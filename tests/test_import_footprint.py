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


JOB = """
import json, os, sys
from superbrauer.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "layers": sorted(m for m in sys.modules if m.startswith("superbrauer.")),
                  "threads": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
                  "openblas": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _fresh(code: str, *args: str, **env: str) -> str:
    """stdout of code run in a fresh interpreter, with no thread variable set
    but those given."""
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    run = subprocess.run([sys.executable, "-c", code, *args], env={**base, "PYTHONPATH": str(SRC), **env},
                         capture_output=True, text=True, timeout=300, check=True)
    return run.stdout


def _job(*argv: str, **env: str) -> dict:
    return json.loads(_fresh(JOB, *argv, **env))


def test_bare_import_loads_no_layer():
    """import superbrauer resolves its public names on first use: it loads
    neither numpy nor any submodule."""
    loaded = json.loads(_fresh("import json, sys, superbrauer\n"
                               "print(json.dumps(sorted(m for m in sys.modules if m.startswith(('superbrauer', 'numpy')))))"))
    assert loaded == ["superbrauer"]


VERIFY_LAYERS = ["superbrauer.cli", "superbrauer.errors", "superbrauer.forms", "superbrauer.groups",
                 "superbrauer.modlinalg", "superbrauer.supergroup", "superbrauer.twisted", "superbrauer.weyl"]


@pytest.mark.parametrize("argv", [["--algebra", "E4", "--check", "omega-lazy"],
                                  ["--type", "B3", "--check", "lambda-lazy"]], ids=["omega-E4", "lambda-B3"])
def test_verify_jobs_load_no_h2_layer(argv, tmp_path):
    """A verify job solves no H^2, so it loads neither cohomology nor sharp."""
    seen = _job("verify", *argv, "--out", str(tmp_path / "report.txt"))
    assert seen["code"] == 0
    assert seen["layers"] == VERIFY_LAYERS


COMMANDS = [
    ["h2", "--type", "A2"],
    ["h2sharp", "--type", "A2", "--field", "real"],
    ["bm", "--type", "B2", "--field", "closed"],
    ["lazy", "--type", "A2"],
    ["invforms", "--type", "G2"],
    ["weyl-table", "--types", "A1,B2"],
    ["verify", "--algebra", "E2", "--check", "hopf"],
]


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_every_command_runs_in_a_fresh_interpreter(argv, tmp_path):
    """Each command imports the layers it runs inside its own functions; a
    missing import shows only where no earlier job in the process loaded it."""
    seen = _job(*argv, "--out", str(tmp_path / "report.txt"))
    assert seen["code"] == 0
    solves_h2 = argv[0] not in ("invforms", "verify")
    assert ("superbrauer.cohomology" in seen["layers"]) == solves_h2


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task (Linux)")
def test_a_job_runs_one_openblas_thread_unless_the_user_sets_one(tmp_path):
    """No float array reaches BLAS, so a job starts OpenBLAS with one thread:
    it runs in one OS thread.  A thread count the user set is kept, and the job
    then runs the threads that numpy alone starts with it."""
    argv = ["verify", "--algebra", "E2", "--check", "hopf", "--out", str(tmp_path / "report.txt")]
    seen = _job(*argv)
    assert (seen["threads"], seen["openblas"]) == (1, "1")
    numpy_alone = int(_fresh("import os, numpy\nprint(len(os.listdir('/proc/self/task')))", OPENBLAS_NUM_THREADS="2"))
    seen = _job(*argv, OPENBLAS_NUM_THREADS="2")
    assert (seen["threads"], seen["openblas"]) == (numpy_alone, "2")
    seen = _job(*argv, OMP_NUM_THREADS="2")
    assert seen["openblas"] is None
