"""The benchmark's workloads: CLI jobs, seeded inputs and expected results.

Each workload is a list of CLI jobs run one after another, each in a fresh
interpreter, as a user runs them.  The paper's full-size jobs (the D4 table
row, ``bm --type D4 --field real``, ``verify --type D4 --check lambda-lazy``,
``verify`` on E(5)) take 35-180 s each, more than one benchmark run may
last, so every workload keeps the layer profile of its full-size job on a
smaller group; README.md gives the mapping.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# paper rows: type -> (H2_L invariants, BM invariants); linear dim 1 in both
WEYL_ROWS = {
    "A1": ((), (2,)),
    "A2": ((), (2, 2)),
    "A3": ((2,), (2, 2, 2)),
    "B2": ((2,), (2,)),
    "B3": ((2,), (2, 2, 2)),
    "G2": ((), (2, 2)),
}

# BM(R, k[W(B3)], R_{w0}): H^2(W(B3), Z2) = Z2^4, Br(R) = Z2, split
BM_B3_REAL = (8, 4, 2)
BM_B3_H2 = (2, 2, 2, 2)

EN_RANK = 4  # E(4), dim 2 * 2^4 = 32: every check stays exhaustive (budget 64)
B3_LAMBDA_DIM = 48 * 2**3  # |W(B3)| * 2^rank: sampled checks (dim > 64)


@dataclass
class Job:
    label: str
    args: list[str]
    check: Callable[[dict], list[str]]  # report -> problems found


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    inputs: dict[str, str] = field(default_factory=dict)  # file name -> sha256


def _weyl_table(report: dict) -> list[str]:
    rows = {r["type"]: r for r in report["result"]["rows"]}
    problems = []
    if sorted(rows) != sorted(WEYL_ROWS):
        problems.append(f"rows {sorted(rows)} != {sorted(WEYL_ROWS)}")
    for name, (h2l, bm) in WEYL_ROWS.items():
        r = rows.get(name)
        if r is None:
            continue
        got = (r["mode"], tuple(r["H2L"]["invariants"]), r["H2L"]["linear_dim"],
               tuple(r["BM"]["invariants"]), r["BM"]["linear_dim"])
        if got != ("computed", h2l, 1, bm, 1):
            problems.append(f"{name}: {got} != {('computed', h2l, 1, bm, 1)}")
    return problems


def _bm_real_b3(report: dict) -> list[str]:
    res = report["result"]
    inv = tuple(res["invariants"])
    h2 = tuple(g["order_in_h2"] for g in res["generators"] if g["kind"] == "cohomology")
    problems = []
    if inv != BM_B3_REAL:
        problems.append(f"invariants {inv} != {BM_B3_REAL}")
    if h2 != BM_B3_H2:
        problems.append(f"H^2 orders {h2} != {BM_B3_H2}")
    # |BM| = |Br| * |H^2_sharp| * 2^split with |Br(R)| = 2, and the invariants multiply to |BM|
    expected = 2 * math.prod(h2) * (2 if res["split"] else 1)
    if not (res["order"] == expected == math.prod(inv)):
        problems.append(f"|BM| = {res['order']}, |Br||H2#|2^split = {expected}, prod(invariants) = {math.prod(inv)}")
    if res.get("linear_dim") != 1:
        problems.append(f"linear_dim {res.get('linear_dim')} != 1")
    return problems


def _verify(dim: int, sampled: bool) -> Callable[[dict], list[str]]:
    def check(report: dict) -> list[str]:
        res = report["result"]
        got = (res["passed"], res["dim"], res["sampled"])
        return [] if got == (True, dim, sampled) else [f"(passed, dim, sampled) = {got} != {(True, dim, sampled)}"]

    return check


def _write_json(path: Path, data) -> str:
    text = json.dumps(data)
    path.write_text(text)
    return hashlib.sha256(text.encode()).hexdigest()


def _nonzero(rng: random.Random) -> int:
    return rng.choice((-1, 1)) * rng.randint(1, 9)


def make(name: str, seed: int, workdir: Path) -> Workload:
    """The workload's jobs for this seed; input files go to workdir."""
    common = ["--format", "json", "--seed", str(seed)]
    if name == "weyl-table":
        types = ",".join(WEYL_ROWS)
        return Workload(name, [Job("weyl-table", ["weyl-table", "--types", types, *common], _weyl_table)])
    if name == "bm-real-b3":
        return Workload(name, [Job("bm", ["bm", "--type", "B3", "--field", "real", *common], _bm_real_b3)])
    if name == "verify-b3-lambda":
        args = ["verify", "--type", "B3", "--check", "lambda-lazy", *common]
        return Workload(name, [Job("lambda-lazy", args, _verify(B3_LAMBDA_DIM, True))])
    if name == "verify-en":
        # the seed changes the values, never the zero pattern: A dense, Sigma diagonal
        rng = random.Random(seed)
        n = EN_RANK
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = _nonzero(rng)
        sigma = [[_nonzero(rng) if i == j else 0 for j in range(n)] for i in range(n)]
        a_path, s_path = workdir / "A.json", workdir / "Sigma.json"
        inputs = {"A.json": _write_json(a_path, a), "Sigma.json": _write_json(s_path, sigma)}
        alg = ["verify", "--algebra", f"E{n}"]
        dim = 2 * 2**n
        return Workload(name, [
            Job("hopf", [*alg, "--check", "hopf", *common], _verify(dim, False)),
            Job("triangular", [*alg, "--check", "triangular", "--A", str(a_path), *common], _verify(dim, False)),
            Job("omega-lazy", [*alg, "--check", "omega-lazy", "--sigma", str(s_path), *common], _verify(dim, False)),
        ], inputs)
    raise ValueError(f"unknown workload {name!r}")
