"""Batch command-line front end: one job per invocation, deterministic reports.

Machine-readable output is a single JSON document with a schema version;
the text form is derived from it.  Budgets and seeds are always echoed so a
report can be reproduced byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import errors
from .cohomology import CoefficientModule, DEFAULT_H2_BUDGET, h2
from .forms import Representation, invariant_symmetric_forms
from .groups import (
    DEFAULT_CAP,
    CentralInvolution,
    FiniteGroup,
    load_group_file,
    parse_rational,
    resolve_u,
)
from .sharp import ENUMERATION_BUDGET, bm_group, field_from_name, h2_sharp
from .supergroup import (
    DEFAULT_DIM_BUDGET,
    build_en,
    build_supergroup,
    is_lazy,
    is_left_cocycle,
    lambda_cocycle,
    lazy_cohomology,
    omega_sigma,
    r_matrix_RA,
    verify_hopf,
    verify_quasitriangular,
    verify_triangular,
)
from .weyl import WEYL_GROUP_BUDGET, DEFAULT_TABLE_TYPES, RootSystemType, group_datum, table_row

SCHEMA = "superbrauer-report/1"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4


def _group_header(g: FiniteGroup) -> dict:
    return {
        "order": g.order,
        "identity": int(g.identity),
        "kind": g.kind,
        "generators_idx": [int(x) for x in g.gens],
        "indexing": "bfs-from-identity" if g.kind != "table" else "as-given",
    }


def _invariants(inv) -> list[int]:
    return [int(d) for d in inv]


def _weyl_datum(args, cap: int):
    """The Weyl datum of --type; it fixes u = w0, so --u is refused."""
    if getattr(args, "u", None) is not None:
        raise errors.ParseError("--u cannot be combined with --type: the Weyl datum fixes u = w0")
    return group_datum(RootSystemType.parse(args.type), cap=cap)


def _need_group(args, cap: int) -> tuple[FiniteGroup, int | None, Representation | None]:
    """Group datum from --group/--u or --type; Weyl types also give the rep."""
    if getattr(args, "type", None):
        datum = _weyl_datum(args, cap)
        return datum.group, datum.inv.u, datum.rep
    if not getattr(args, "group", None):
        raise errors.ParseError("either --group FILE or --type XN is required")
    g, u = load_group_file(args.group, cap=cap)
    if getattr(args, "u", None) is not None:
        u = resolve_u(g, int(args.u) if args.u.isdecimal() else args.u)
    rep = None
    if getattr(args, "rep", None):
        rep = _load_rep(args.rep, g)
    return g, u, rep


def _load_rep(path: str, g: FiniteGroup) -> Representation:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise errors.ParseError(f"cannot read representation file {path}: {exc}") from exc
    try:
        mats = data["matrices"] if isinstance(data, dict) else data
        if len(mats) != len(g.gens):
            raise errors.ParseError("representation file must list one matrix per group generator")
        gm = [tuple(tuple(parse_rational(x) for x in row) for row in m) for m in mats]
    except (KeyError, TypeError) as exc:
        raise errors.ParseError(f"representation file {path} must give 'matrices', one per generator") from exc
    return Representation(group=g, dim=len(gm[0]), gen_matrices=gm)


def _matrix_arg(spec: str, n: int):
    if spec == "identity":
        return [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if spec == "zero":
        return [[0] * n for _ in range(n)]
    try:
        data = json.loads(Path(spec).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise errors.ParseError(f"cannot read matrix file {spec}: {exc}") from exc
    return data


def _report(args, command: str, payload: dict, budgets: dict) -> dict:
    return {
        "schema": SCHEMA,
        "command": command,
        "budgets": budgets,
        "seed": getattr(args, "seed", 0),
        **payload,
    }


def cmd_h2(args) -> dict:
    g, _, _ = _need_group(args, args.budget_cap)
    budgets = {"cap": args.budget_cap, "h2": args.budget_h2}
    if args.coeff is not None:
        cg = h2(g, CoefficientModule(args.coeff), budget=args.budget_h2)
        coeff_desc = {"modulus": args.coeff}
    else:
        cg = field_from_name(args.field).cohomology(g, args.budget_h2)
        coeff_desc = {"field": args.field, "modulus": cg.coeff.n}
    payload = {
        "group": _group_header(g),
        "result": {
            "coefficients": coeff_desc,
            "invariants": _invariants(cg.invariants),
            "representatives": [r.to_sparse() for r in cg.reps],
        },
    }
    return _report(args, "h2", payload, budgets)


def cmd_h2sharp(args) -> dict:
    g, u, _ = _need_group(args, args.budget_cap)
    if u is None:
        raise errors.ParseError("a central involution u is required (file key 'u' or --u)")
    inv = CentralInvolution(g, u)
    field = field_from_name(args.field)
    hs = h2_sharp(g, inv, field, budget=args.budget_enum)
    from .groups import splitting_character

    budgets = {"cap": args.budget_cap, "enum": args.budget_enum}
    payload = {
        "group": _group_header(g),
        "result": {
            "field": field.kind,
            "u": int(u),
            "split": splitting_character(inv) is not None,
            "invariants": _invariants(hs.invariants),
            "classes": [list(c.coords) for c in hs.classes],
            "generators": [
                {"coords": list(c.coords), "representative": c.representative().to_sparse()}
                for c in hs.cohomology.all_classes()
                if any(x == 1 for x in c.coords) and sum(1 for x in c.coords if x) == 1
            ],
            "cayley_table": hs.table.tolist(),
        },
    }
    return _report(args, "h2sharp", payload, budgets)


def cmd_bm(args) -> dict:
    g, u, rep = _need_group(args, args.budget_cap)
    if u is None:
        raise errors.ParseError("a central involution u is required (file key 'u' or --u)")
    inv = CentralInvolution(g, u)
    field = field_from_name(args.field)
    bm = bm_group(g, inv, field, budget=args.budget_enum)
    budgets = {"cap": args.budget_cap, "enum": args.budget_enum}
    gens = []
    if field.brauer_order > 1:
        gens.append({"kind": "brauer", "order": 2})
    for i, d in enumerate(bm.cohomology.invariants):
        coords = tuple(1 if j == i else 0 for j in range(len(bm.cohomology.invariants)))
        cls = bm.cohomology.rep_of_coords(coords)
        gens.append({"kind": "cohomology", "order_in_h2": int(d), "representative": cls.to_sparse()})
    if bm.split:
        gens.append({"kind": "C(1)", "parity": 1})
    result = {
        "field": field.kind,
        "u": int(u),
        "split": bm.split,
        "invariants": _invariants(bm.invariants),
        "order": bm.order,
        "generators": gens,
        "cayley_table": bm.table.tolist(),
    }
    if rep is not None:
        forms = invariant_symmetric_forms(rep)
        result["linear_dim"] = forms.dim
    payload = {"group": _group_header(g), "result": result}
    return _report(args, "bm", payload, budgets)


def cmd_lazy(args) -> dict:
    g, u, rep = _need_group(args, args.budget_cap)
    budgets = {"cap": args.budget_cap, "h2": args.budget_h2}
    if rep is None:
        raise errors.ParseError("lazy cohomology needs a representation (--rep or --type)")
    if u is None:
        raise errors.ParseError("a central involution u is required")
    inv = CentralInvolution(g, u)
    alg = build_supergroup(g, inv, rep)
    lc = lazy_cohomology(alg, budget=args.budget_h2)
    payload = {
        "group": _group_header(g),
        "result": {
            "dim_H": alg.dim,
            "linear_dim": lc.linear_dim,
            "group_part_invariants": _invariants(lc.invariants),
            "k_trivial": lc.k_trivial,
        },
    }
    return _report(args, "lazy", payload, budgets)


def cmd_invforms(args) -> dict:
    g, _, rep = _need_group(args, args.budget_cap)
    if rep is None:
        raise errors.ParseError("invforms needs a representation (--rep or --type)")
    forms = invariant_symmetric_forms(rep)
    payload = {
        "group": _group_header(g),
        "result": {
            "dim": forms.dim,
            "basis": [[[str(x) for x in row] for row in b] for b in forms.basis],
        },
    }
    return _report(args, "invforms", payload, {"cap": args.budget_cap})


def cmd_weyl_table(args) -> dict:
    names = [s for s in (args.types.split(",") if args.types else DEFAULT_TABLE_TYPES) if s]
    rows = [table_row(RootSystemType.parse(n), group_budget=args.budget_weyl, cap=args.budget_cap) for n in names]
    payload = {
        "result": {
            "rows": [r.as_dict() for r in rows],
            "pretty": [r.pretty() for r in rows],
        }
    }
    return _report(args, "weyl-table", payload, {"cap": args.budget_cap, "weyl": args.budget_weyl})


def _algebra_from_args(args):
    if getattr(args, "algebra", None):
        name = args.algebra.upper()
        if not (name.startswith("E") and name[1:].isdecimal()):
            raise errors.ParseError("--algebra expects E<n>, e.g. E2")
        return build_en(int(name[1:]))
    if getattr(args, "type", None):
        datum = _weyl_datum(args, args.budget_cap)
        return build_supergroup(datum.group, datum.inv, datum.rep)
    raise errors.ParseError("verify needs --algebra E<n> or --type XN")


def cmd_verify(args) -> dict:
    alg = _algebra_from_args(args)
    check = args.check
    budgets = {"cap": args.budget_cap, "dim": args.budget_dim}
    if check == "hopf":
        rep = verify_hopf(alg, budget=args.budget_dim, seed=args.seed)
    elif check in ("quasitriangular", "triangular"):
        amat = _matrix_arg(args.A or "zero", alg.nv)
        r = r_matrix_RA(amat, alg)
        fn = verify_quasitriangular if check == "quasitriangular" else verify_triangular
        rep = fn(alg, r, budget=args.budget_dim, seed=args.seed)
    elif check in ("omega-lazy", "omega-cocycle"):
        smat = _matrix_arg(args.sigma or "identity", alg.nv)
        om = omega_sigma(smat, alg)
        rep = is_lazy(om, budget=args.budget_dim, seed=args.seed) if check == "omega-lazy" else is_left_cocycle(om, budget=args.budget_dim, seed=args.seed)
        if rep.passed and check == "omega-lazy":
            rep2 = is_left_cocycle(om, budget=args.budget_dim, seed=args.seed)
            if not rep2.passed:
                rep = rep2
    elif check in ("lambda-lazy", "lambda-cocycle"):
        if args.sigma:
            smat = _matrix_arg(args.sigma, alg.nv)
        else:
            forms = invariant_symmetric_forms(alg.rep)
            if not forms.basis:
                raise errors.ParseError("no invariant symmetric form available")
            smat = [[x for x in row] for row in forms.basis[0]]
        lam = lambda_cocycle(alg, smat, require_invariant=not args.skip_invariance)
        rep = is_left_cocycle(lam, budget=args.budget_dim, seed=args.seed)
        if rep.passed:
            rep2 = is_lazy(lam, budget=args.budget_dim, seed=args.seed)
            if not rep2.passed:
                rep = rep2
    else:
        raise errors.ParseError(f"unknown check {check!r}")
    payload = {
        "result": {
            "check": check,
            "dim": alg.dim,
            "passed": bool(rep.passed),
            "sampled": rep.sampled,
            "detail": rep.detail,
            "counterexample": list(rep.counterexample) if rep.counterexample else None,
        }
    }
    return _report(args, "verify", payload, budgets)


def _text_from_report(doc: dict) -> str:
    lines = [f"superbrauer {doc['command']}  (schema {doc['schema']})"]
    for k, v in sorted(doc.get("budgets", {}).items()):
        lines.append(f"budget {k} = {v}")
    lines.append(f"seed = {doc.get('seed', 0)}")
    if "group" in doc:
        g = doc["group"]
        lines.append(f"group: order {g['order']}, identity {g['identity']}, kind {g['kind']}, generators {g['generators_idx']}")
    res = doc.get("result", {})
    if doc["command"] == "weyl-table":
        lines.extend(res.get("pretty", []))
        return "\n".join(lines)
    for key in ("coefficients", "field", "u", "split", "invariants", "order", "linear_dim",
                "group_part_invariants", "k_trivial", "dim", "dim_H", "check", "passed",
                "sampled", "detail", "counterexample"):
        if key in res:
            lines.append(f"{key}: {res[key]}")
    if "basis" in res:
        for b in res["basis"]:
            lines.append("  " + " ; ".join(",".join(row) for row in b))
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="superbrauer",
                                description="Exact Brauer groups and lazy cohomology of modified supergroup algebras.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, group_input=True):
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--out", help="write the report to this path instead of stdout")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--budget-cap", dest="budget_cap", type=int, default=DEFAULT_CAP,
                        help="group enumeration cap")
        if group_input:
            sp.add_argument("--group", help="group input JSON file")
            sp.add_argument("--type", help="root system type, e.g. B3 (builds the Weyl datum)")
            sp.add_argument("--u", help="central involution: element index or word like 'g0 g1'")

    sp = sub.add_parser("h2", help="H^2(G, Z_N) or the closed/real field realization")
    common(sp)
    sp.add_argument("--coeff", type=int, help="coefficient modulus N (overrides --field)")
    sp.add_argument("--field", choices=("closed", "real"), default="closed")
    sp.add_argument("--budget-h2", dest="budget_h2", type=int, default=DEFAULT_H2_BUDGET)
    sp.set_defaults(func=cmd_h2)

    sp = sub.add_parser("h2sharp", help="H^2 under the sharp product, by enumeration")
    common(sp)
    sp.add_argument("--field", choices=("closed", "real"), required=True)
    sp.add_argument("--budget-enum", dest="budget_enum", type=int, default=ENUMERATION_BUDGET)
    sp.set_defaults(func=cmd_h2sharp)

    sp = sub.add_parser("bm", help="BM(k, k[G], R_u) with Cayley table")
    common(sp)
    sp.add_argument("--field", choices=("closed", "real"), required=True)
    sp.add_argument("--rep", help="representation JSON (adds the linear summand dimension)")
    sp.add_argument("--budget-enum", dest="budget_enum", type=int, default=ENUMERATION_BUDGET)
    sp.set_defaults(func=cmd_bm)

    sp = sub.add_parser("lazy", help="lazy cohomology of k[G] x Lambda V")
    common(sp)
    sp.add_argument("--rep", help="representation JSON file (one matrix per generator)")
    sp.add_argument("--budget-h2", dest="budget_h2", type=int, default=DEFAULT_H2_BUDGET)
    sp.set_defaults(func=cmd_lazy)

    sp = sub.add_parser("invforms", help="G-invariant symmetric forms, exact rationals")
    common(sp)
    sp.add_argument("--rep", help="representation JSON file")
    sp.set_defaults(func=cmd_invforms)

    sp = sub.add_parser("weyl-table", help="the two final tables per root system type")
    common(sp, group_input=False)
    sp.add_argument("--types", help="comma separated list, e.g. A1,B2,D4")
    sp.add_argument("--budget-weyl", dest="budget_weyl", type=int, default=WEYL_GROUP_BUDGET)
    sp.set_defaults(func=cmd_weyl_table)

    sp = sub.add_parser("verify", help="axiom checks with first counterexample")
    common(sp)
    sp.add_argument("--algebra", help="E<n> for the self-dual family, e.g. E2")
    sp.add_argument("--check", required=True,
                    choices=("hopf", "quasitriangular", "triangular", "omega-lazy",
                             "omega-cocycle", "lambda-lazy", "lambda-cocycle"))
    sp.add_argument("--A", help="symmetric matrix for R_A: identity, zero, or a JSON file")
    sp.add_argument("--sigma", help="symmetric matrix for omega/lambda: identity, zero, or JSON file")
    sp.add_argument("--skip-invariance", action="store_true",
                    help="build lambda from a non-invariant form (the checks will then fail)")
    sp.add_argument("--budget-dim", dest="budget_dim", type=int, default=DEFAULT_DIM_BUDGET)
    sp.set_defaults(func=cmd_verify)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc = args.func(args)
    except (errors.BudgetExceeded, errors.CapExceeded, errors.E8Refused) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except errors.SuperbrauerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    text = json.dumps(doc, sort_keys=True, indent=2) if args.format == "json" else _text_from_report(doc)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    if doc["command"] == "verify" and not doc["result"]["passed"]:
        return EXIT_VERIFY
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
