"""What a job loads: the twisted-product kernel only for cochain checks, and
never numpy.ma, which np.unique would import (about 1.3 MB of peak RSS)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
import numpy
ma_at_import = "numpy.ma" in sys.modules
from superbrauer.cli import main
out = sys.argv[1]
codes = [main(["weyl-table", "--types", "A1,A2,A3,B2,B3,G2", "--out", out + "/table.txt"]),
         main(["bm", "--type", "B3", "--field", "real", "--out", out + "/bm.txt"])]
twisted_before_checks = "superbrauer.twisted" in sys.modules
codes += [main(["verify", "--type", "B3", "--check", "lambda-lazy", "--out", out + "/lambda.txt"]),
          main(["verify", "--algebra", "E4", "--check", "omega-lazy", "--sigma", "identity", "--out", out + "/omega.txt"])]
print(json.dumps({"codes": codes, "ma_at_import": ma_at_import, "ma_at_end": "numpy.ma" in sys.modules,
                  "twisted_before_checks": twisted_before_checks,
                  "twisted_at_end": "superbrauer.twisted" in sys.modules}))
"""


def test_jobs_load_only_what_they_use(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-c", PROBE, str(tmp_path)], env=env, capture_output=True, text=True,
                         timeout=300, check=True)
    seen = json.loads(run.stdout)
    assert seen["codes"] == [0, 0, 0, 0]
    assert not seen["twisted_before_checks"]  # weyl-table and bm check no cochain
    assert seen["twisted_at_end"]  # the probe sees the module once a check loads it
    assert seen["ma_at_end"] == seen["ma_at_import"]  # no job imports numpy.ma
