"""Span and count recorder for a traced superbrauer job.

The package binds names with ``from .x import y``, so a public function is
wrapped by replacing every module attribute that holds it; methods are
wrapped on their class.  Each call records a span (name, start, end, parent)
and feeds the counters of its layer.  Per-basis-element helpers
(``product_basis``, ``coproduct_basis``, ``counit_basis``) run millions of
times and are left alone: their time counts as self time of the wrapped
function that calls them.

``install`` must run before ``superbrauer.cli.main`` is called.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter

# (module, attribute, metric that receives the span's self time)
WRAPPED = [
    ("groups", "close_generators", "groups.closure_s"),
    ("groups", "quotient_by_central_involution", "groups.quotient_s"),
    ("modlinalg", "snf_mod", "modlinalg.snf_s"),
    ("cohomology", "h2", "cohomology.h2_s"),
    ("cohomology", "h2_closed_field", "cohomology.h2_s"),
    ("cohomology", "h2_real_closed", "cohomology.h2_s"),
    ("cohomology", "is_cocycle", "cohomology.is_cocycle_s"),
    ("cohomology", "CohomologyGroup.class_of", "cohomology.class_of_s"),
    ("sharp", "theta", "sharp.self_s"),
    ("sharp", "sharp", "sharp.self_s"),
    ("sharp", "sharp_inverse", "sharp.self_s"),
    ("sharp", "sharp_class_table", "sharp.self_s"),
    ("sharp", "h2_sharp", "sharp.self_s"),
    ("sharp", "bm_group", "sharp.self_s"),
    ("sharp", "q_group", "sharp.self_s"),
    ("forms", "invariant_symmetric_forms", "forms.invariant_forms_s"),
    ("supergroup", "lambda_cocycle", "supergroup.cochain_build_s"),
    ("supergroup", "omega_sigma", "supergroup.cochain_build_s"),
    ("supergroup", "dual_r_matrix", "supergroup.cochain_build_s"),
    ("supergroup", "r_matrix_RA", "supergroup.cochain_build_s"),
    ("supergroup", "verify_hopf", "supergroup.check_s"),
    ("supergroup", "verify_quasitriangular", "supergroup.check_s"),
    ("supergroup", "verify_triangular", "supergroup.check_s"),
    ("supergroup", "is_left_cocycle", "supergroup.check_s"),
    ("supergroup", "is_right_cocycle", "supergroup.check_s"),
    ("supergroup", "is_lazy", "supergroup.check_s"),
    ("supergroup", "build_supergroup", "supergroup.build_s"),
    ("supergroup", "build_en", "supergroup.build_s"),
    ("supergroup", "lazy_cohomology", "supergroup.build_s"),
    ("supergroup", "bm_supergroup", "supergroup.build_s"),
    ("weyl", "build_weyl", "weyl.self_s"),
    ("weyl", "group_datum", "weyl.self_s"),
    ("weyl", "table_row", "weyl.self_s"),
] + [
    ("cli", name, "cli.self_s")
    for name in ("cmd_h2", "cmd_h2sharp", "cmd_bm", "cmd_lazy", "cmd_invforms", "cmd_weyl_table", "cmd_verify")
]

SELF_TIME_METRICS = sorted({metric for _, _, metric in WRAPPED})

COUNT_METRICS = [
    "groups.elements",
    "modlinalg.snf_calls", "modlinalg.snf_cells", "modlinalg.pivots",
    "cohomology.h2_calls", "cohomology.frontier_unknowns", "cohomology.primes_solved",
    "cohomology.is_cocycle_calls", "cohomology.class_of_calls",
    "sharp.theta_calls", "sharp.table_cells", "sharp.classes_enumerated",
    "forms.calls",
    "supergroup.cochain_entries", "supergroup.check_items",
]

# wrapped functions whose calls are counted, and the counter
_CALL_COUNTS = {
    "is_cocycle": "cohomology.is_cocycle_calls",
    "CohomologyGroup.class_of": "cohomology.class_of_calls",
    "theta": "sharp.theta_calls",
    "invariant_symmetric_forms": "forms.calls",
}

# items a check visits when it is exhaustive, as a power of dim
_CHECK_POWER = {
    "verify_hopf": 2,
    "verify_quasitriangular": 1,
    "is_left_cocycle": 3,
    "is_right_cocycle": 3,
    "is_lazy": 2,
}


class Recorder:
    """Spans in call order plus counters; ``parent`` is a span index or -1."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[list] = []  # [name, metric, start, end, parent]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._h2_results: dict[int, object] = {}  # id -> CohomologyGroup, kept alive

    def wrap(self, fn, name: str, metric: str, on_result=None):
        clock, spans, stack = self.clock, self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, metric, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, out)
            return out

        return wrapper

    # counters, one per wrapped function that has any

    def _count_hook(self, name: str):
        c = self.counts
        if name == "close_generators":
            return lambda args, g: c.update({"groups.elements": g.order})
        if name == "snf_mod":
            def snf(args, out):
                c["modlinalg.snf_calls"] += 1
                c["modlinalg.snf_cells"] += int(args[0].shape[0]) * int(args[0].shape[1])
                c["modlinalg.pivots"] += len(out.diag)
            return snf
        if name in ("h2", "h2_closed_field", "h2_real_closed"):
            return self._h2_result
        if name in _CALL_COUNTS:
            key = _CALL_COUNTS[name]
            return lambda args, out: c.update((key,))
        if name == "sharp_class_table":
            def table(args, out):
                c["sharp.classes_enumerated"] += args[0].size
                c["sharp.table_cells"] += out[1].shape[0] ** 2
            return table
        if name == "bm_group":
            return lambda args, bm: c.update({"sharp.table_cells": bm.table.shape[0] ** 2})
        if name in ("lambda_cocycle", "omega_sigma", "dual_r_matrix"):
            return lambda args, out: c.update({"supergroup.cochain_entries": out.algebra.dim ** 2})
        if name == "r_matrix_RA":
            return lambda args, out: c.update({"supergroup.cochain_entries": len(out)})
        if name in _CHECK_POWER:
            power = _CHECK_POWER[name]
            sampled_size = importlib.import_module("superbrauer.supergroup").SAMPLED_TRIPLES

            def check(args, rep):
                algebra = getattr(args[0], "algebra", args[0])  # a cochain's algebra, or the algebra
                c["supergroup.check_items"] += sampled_size if rep.sampled else algebra.dim ** power
            return check
        return None

    def _h2_result(self, args, cg) -> None:
        self.counts["cohomology.h2_calls"] += 1
        if id(cg) in self._h2_results:
            return
        groups_seen = {id(r.group) for r in self._h2_results.values()}
        self._h2_results[id(cg)] = cg
        g, n = cg.group, cg.coeff.n
        if g.order == 1 or n == 1:
            return
        if id(g) not in groups_seen:
            self.counts["cohomology.frontier_unknowns"] += (g.order - 1) * len(g.gens)
        self.counts["cohomology.primes_solved"] += len(self._prime_power_factors(n))

    def install(self) -> None:
        """Wrap every function in WRAPPED wherever a superbrauer module binds it."""
        # the package re-exports sharp(), which hides the submodule of that name
        home_of = {sub: importlib.import_module(f"superbrauer.{sub}") for sub, _, _ in WRAPPED}
        self._prime_power_factors = importlib.import_module("superbrauer.modlinalg").prime_power_factors
        modules = [m for key, m in sys.modules.items() if key == "superbrauer" or key.startswith("superbrauer.")]
        for mod_name, attr, metric in WRAPPED:
            home = home_of[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, self.wrap(getattr(cls, meth), attr, metric, self._count_hook(attr)))
                continue
            orig = getattr(home, attr)
            wrapped = self.wrap(orig, attr, metric, self._count_hook(attr))
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)

    def summary(self, launch: float) -> dict:
        """Self time per metric and the counters.  The first span must be the
        CLI's ``main``; the time from launch to it (interpreter start, imports)
        is CLI self time."""
        child_time = [0.0] * len(self.spans)
        for name, metric, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {m: 0.0 for m in SELF_TIME_METRICS}
        for i, (name, metric, start, end, parent) in enumerate(self.spans):
            out[metric] += (end - start) - child_time[i]
        main = self.spans[0]
        out["cli.startup_s"] = main[2] - launch
        out["cli.self_s"] += out["cli.startup_s"]
        # JSON encoding and writing: from the command's return to main's
        cmd_end = max((s[3] for s in self.spans if s[4] == 0), default=main[3])
        out["cli.report_s"] = main[3] - cmd_end
        out.update({m: self.counts.get(m, 0) for m in COUNT_METRICS})
        return out
