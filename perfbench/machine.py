"""Print the machine the benchmark ran on as one JSON object.

Run in its own process so that run.py never loads numpy or
starts BLAS threads itself.
"""

import ctypes
import json
import os
import platform

import numpy as np


def blas_threads():
    """OpenBLAS's thread count as numpy loaded it, or None if not found."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line and line.rstrip().endswith(".so")}
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getattr(lib, fn).restype = ctypes.c_int
                return getattr(lib, fn)()
    return None


if __name__ == "__main__":
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "thread_env": {k: v for k, v in os.environ.items() if k.startswith(("OMP_", "OPENBLAS_", "MKL_"))},
    }))
