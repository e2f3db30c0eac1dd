"""What a job loads: the twisted-product kernel only for cochain checks,
never numpy.ma, which np.unique would import (about 1.3 MB of peak RSS), and
never dataclasses, whose class decoration generates and compiles code in
every cold process."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import argparse, fractions, json, sys
import numpy
ma_at_import = "numpy.ma" in sys.modules
before = set(sys.modules)
from superbrauer.cli import main
added_at_import = sorted(set(sys.modules) - before)
out = sys.argv[1]
codes = [main(["weyl-table", "--types", "A1,A2,A3,B2,B3,G2", "--out", out + "/table.txt"]),
         main(["bm", "--type", "B3", "--field", "real", "--out", out + "/bm.txt"])]
twisted_before_checks = "superbrauer.twisted" in sys.modules
codes += [main(["verify", "--type", "B3", "--check", "lambda-lazy", "--out", out + "/lambda.txt"]),
          main(["verify", "--algebra", "E4", "--check", "omega-lazy", "--sigma", "identity", "--out", out + "/omega.txt"])]
print(json.dumps({"codes": codes, "ma_at_import": ma_at_import, "ma_at_end": "numpy.ma" in sys.modules,
                  "twisted_before_checks": twisted_before_checks,
                  "twisted_at_end": "superbrauer.twisted" in sys.modules,
                  "added_at_import": added_at_import, "added_at_end": sorted(set(sys.modules) - before)}))
"""


@pytest.fixture(scope="module")
def seen(tmp_path_factory):
    """What the probe saw, in a fresh interpreter that imports numpy, json,
    argparse and fractions before the package and then runs four jobs."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-c", PROBE, str(tmp_path_factory.mktemp("probe"))], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    return json.loads(run.stdout)


def test_jobs_load_only_what_they_use(seen):
    assert seen["codes"] == [0, 0, 0, 0]
    assert not seen["twisted_before_checks"]  # weyl-table and bm check no cochain
    assert seen["twisted_at_end"]  # the probe sees the module once a check loads it
    assert seen["ma_at_end"] == seen["ma_at_import"]  # no job imports numpy.ma


def test_no_dataclass_machinery_on_the_import_path(seen):
    """Neither importing the CLI nor the jobs, whose first cochain check loads
    the twisted kernel, add dataclasses to the modules numpy and the standard
    library already loaded."""
    assert "superbrauer.cli" in seen["added_at_import"]
    assert "superbrauer.twisted" in seen["added_at_end"]
    assert "dataclasses" not in seen["added_at_import"]
    assert "dataclasses" not in seen["added_at_end"]
