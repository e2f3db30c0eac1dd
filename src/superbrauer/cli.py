"""Batch command-line front end: one job per invocation, deterministic reports.

Machine-readable output is a single JSON document with a schema version;
the text form is derived from it.  Budgets and seeds are always echoed so a
report can be reproduced byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import stat
import sys
from pathlib import Path

# No float array of this package reaches BLAS, so OpenBLAS's worker threads
# would only spin (about 65 ms of CPU per job on 2 cores).  OpenBLAS reads the
# count when numpy is first imported; a count the user set is kept.
_THREAD_VARS = {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}
if "numpy" not in sys.modules and not _THREAD_VARS & set(os.environ):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from . import errors
from .forms import Representation, invariant_symmetric_forms
from .groups import (
    DEFAULT_CAP,
    DEFAULT_H2_BUDGET,
    ENUMERATION_BUDGET,
    MAX_TABLE_ORDER,
    CentralInvolution,
    FiniteGroup,
    parse_group_spec,
    parse_rational,
    read_group_file,
    resolve_u,
    splitting_character,
)
from .supergroup import (
    DEFAULT_DIM_BUDGET,
    bm_supergroup,
    build_en,
    build_supergroup,
    is_lazy,
    is_left_cocycle,
    lambda_cocycle,
    lazy_cohomology,
    omega_sigma,
    r_matrix_RA,
    r_u,
    verify_hopf,
    verify_quasitriangular,
    verify_triangular,
)
from .weyl import WEYL_GROUP_BUDGET, DEFAULT_TABLE_TYPES, RootSystemType, datum_size, group_datum, table_row

SCHEMA = "superbrauer-report/2"
# the text form has kept its layout since /1: schema /2 changed only how JSON writes classes
TEXT_SCHEMA = "superbrauer-report/1"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4

NO_U = "a central involution u is required (file key 'u' or --u)"


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


def _class_doc(cg, cls) -> dict:
    """A class of H^2(G, Z_N) as its edge labels: labels[x, k] = sigma(x, s_k)
    mod N of the representative that vanishes on the BFS tree, an |G| x |S|
    int64 array (|G| |S| values, where the cochain has |G|^2)."""
    g = cg.group
    return {"modulus": cg.coeff.n, "labels": cg.labels_of_coords(cls.coords).reshape(g.order, len(g.gens))}


def _weyl_datum(args, h2_budget: int | None = None, h2_quotient: bool = False):
    """The Weyl datum of --type; it fixes G, u = w0 and V, so --group, --u and --rep are refused.
    With h2_budget, a datum that the closure admits but whose H^2 the budget
    refuses is refused before it is built: the H^2 of G, or with h2_quotient
    that of G/U (|G|/2 elements, as V != 0); a datum past min(cap, table
    limit) (E7 and E8 included) keeps the closure's own refusal."""
    extra = [flag for flag in ("group", "u", "rep") if getattr(args, flag, None) is not None]
    if extra:
        raise errors.ParseError(f"--{extra[0]} cannot be combined with --type: the Weyl datum fixes G, u = w0 and V")
    t, cap = RootSystemType.parse(args.type), args.budget_cap
    size = datum_size(t)
    if h2_budget is not None and size <= min(cap, MAX_TABLE_ORDER):
        from .cohomology import _check_h2_budget

        _check_h2_budget(size // 2 if h2_quotient else size, h2_budget)
    return group_datum(t, cap=cap)


def _need_group(args, h2_budget: int | None = None, h2_quotient: bool = False, no_rep: str | None = None,
                no_u: str | None = None) -> tuple[FiniteGroup, int | None, Representation | None]:
    """Group datum from --group/--u or --type; Weyl types also give the rep.
    h2_budget is the H^2 budget of the job, of G or of G/U, checked early for --type.
    A job that needs a representation or u passes the refusal no_rep or no_u,
    which a group file without one meets before its group is closed."""
    if getattr(args, "type", None):
        datum = _weyl_datum(args, h2_budget, h2_quotient)
        return datum.group, datum.inv.u, datum.rep
    if not getattr(args, "group", None):
        raise errors.ParseError("either --group FILE or --type XN is required")
    if no_rep and not getattr(args, "rep", None):
        raise errors.ParseError(no_rep)
    spec = read_group_file(args.group)
    if no_u and getattr(args, "u", None) is None and isinstance(spec, dict) and spec.get("u") is None:
        raise errors.ParseError(no_u)
    g, u = parse_group_spec(spec, cap=args.budget_cap)
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


def _report(args, result: dict, g: FiniteGroup | None = None) -> dict:
    """The report of the parsed command: its name, every --budget-* flag it
    accepts (named without the prefix), the seed, the header of g and result."""
    doc = {
        "schema": SCHEMA,
        "command": args.command,
        "budgets": {k[len("budget_"):]: v for k, v in vars(args).items() if k.startswith("budget_")},
        "seed": args.seed,
        "result": result,
    }
    if g is not None:
        doc["group"] = _group_header(g)
    return doc


def cmd_h2(args) -> dict:
    from .cohomology import CoefficientModule, h2
    from .sharp import field_from_name

    coeff = None if args.coeff is None else CoefficientModule(args.coeff)
    g, _, _ = _need_group(args, args.budget_h2)
    if coeff is not None:
        cg = h2(g, coeff, budget=args.budget_h2)
        coeff_desc = {"modulus": args.coeff}
    else:
        cg = field_from_name(args.field).cohomology(g, args.budget_h2)
        coeff_desc = {"field": args.field, "modulus": cg.coeff.n}
    result = {"coefficients": coeff_desc, "invariants": _invariants(cg.invariants)}
    if args.format == "json":  # only the JSON report prints the generator classes
        result["generators"] = [{"order_in_h2": int(d), **_class_doc(cg, c)}
                                for d, c in zip(cg.invariants, cg.generators())]
    return _report(args, result, g)


def cmd_h2sharp(args) -> dict:
    from .sharp import field_from_name, h2_sharp

    g, u, _ = _need_group(args, DEFAULT_H2_BUDGET, no_u=NO_U)
    inv = CentralInvolution(g, u)
    field = field_from_name(args.field)
    hs = h2_sharp(g, inv, field, budget=args.budget_enum)
    result = {
        "field": field.kind,
        "u": int(u),
        "split": splitting_character(inv) is not None,
        "invariants": _invariants(hs.invariants),
    }
    if args.format == "json":  # the text report prints no class, table or labels
        result["classes"] = np.array([c.coords for c in hs.classes], dtype=np.int64)
        result["cayley_table"] = hs.table
        # the last generator first, the order in which all_classes meets them
        result["generators"] = [{"coords": list(c.coords), **_class_doc(hs.cohomology, c)}
                                for c in reversed(hs.cohomology.generators())]
    return _report(args, result, g)


def cmd_bm(args) -> dict:
    from .sharp import bm_group, field_from_name

    g, u, rep = _need_group(args, DEFAULT_H2_BUDGET, no_u=NO_U)
    inv = CentralInvolution(g, u)
    field = field_from_name(args.field)
    bms = bm_supergroup(g, inv, rep, field, budget=args.budget_enum) if rep is not None else None
    bm = bms.bm if bms is not None else bm_group(g, inv, field, budget=args.budget_enum)
    result = {
        "field": field.kind,
        "u": int(u),
        "split": bm.split,
        "invariants": _invariants(bm.invariants),
        "order": bm.order,
    }
    if args.format == "json":  # the text report prints no table or labels
        result["cayley_table"] = bm.table
        gens = []
        if field.brauer_order > 1:
            gens.append({"kind": "brauer", "order": 2})
        for d, c in zip(bm.cohomology.invariants, bm.cohomology.generators()):
            gens.append({"kind": "cohomology", "order_in_h2": int(d), **_class_doc(bm.cohomology, c)})
        if bm.split:
            gens.append({"kind": "C(1)", "parity": 1})
        result["generators"] = gens
    if bms is not None:
        result["linear_dim"] = bms.linear_dim
    return _report(args, result, g)


def cmd_lazy(args) -> dict:
    g, u, rep = _need_group(args, args.budget_h2, h2_quotient=True,
                            no_rep="lazy cohomology needs a representation (--rep or --type)",
                            no_u="a central involution u is required")
    inv = CentralInvolution(g, u)
    alg = build_supergroup(g, inv, rep)
    lc = lazy_cohomology(alg, budget=args.budget_h2)
    result = {
        "dim_H": alg.dim,
        "linear_dim": lc.linear_dim,
        "group_part_invariants": _invariants(lc.invariants),
        "k_trivial": lc.k_trivial,
    }
    return _report(args, result, g)


def cmd_invforms(args) -> dict:
    g, _, rep = _need_group(args, no_rep="invforms needs a representation (--rep or --type)")
    forms = invariant_symmetric_forms(rep)
    result = {"dim": forms.dim, "basis": [[[str(x) for x in row] for row in b] for b in forms.basis]}
    return _report(args, result, g)


def cmd_weyl_table(args) -> dict:
    names = DEFAULT_TABLE_TYPES if args.types is None else [s for s in args.types.split(",") if s]
    if not names:
        raise errors.ParseError("--types names no root system type")
    rows = [table_row(RootSystemType.parse(n), group_budget=args.budget_weyl, cap=args.budget_cap) for n in names]
    return _report(args, {"rows": [r.as_dict() for r in rows], "pretty": [r.pretty() for r in rows]})


def _algebra_from_args(args):
    if getattr(args, "algebra", None):
        extra = [flag for flag in ("type", "group", "u") if getattr(args, flag, None) is not None]
        if extra:
            raise errors.ParseError(f"--algebra cannot be combined with --{extra[0]}")
        name = args.algebra.upper()
        if not (name.startswith("E") and name[1:].isdecimal()):
            raise errors.ParseError("--algebra expects E<n>, e.g. E2")
        n = int(name[1:])
        # 2^(n+1) > cap exactly when n + 1 >= cap.bit_length(), with no 2^(n+1) built
        if n + 1 >= args.budget_cap.bit_length():
            raise errors.BudgetExceeded(f"dim E({n}) = 2^{n + 1} exceeds cap {args.budget_cap}; raise --budget-cap")
        return build_en(n)
    if getattr(args, "type", None):
        datum = _weyl_datum(args)
        return build_supergroup(datum.group, datum.inv, datum.rep)
    raise errors.ParseError("verify needs --algebra E<n> or --type XN")


# the checks behind each composite --check, in order; the first failure is
# reported.  They are named, not bound, so a rebound module attribute is called.
COMPOSITE_CHECKS = {
    "omega-lazy": ("is_lazy", "is_left_cocycle"),
    "omega-cocycle": ("is_left_cocycle",),
    "lambda-lazy": ("is_left_cocycle", "is_lazy"),
    "lambda-cocycle": ("is_left_cocycle", "is_lazy"),
}


def cmd_verify(args) -> dict:
    alg = _algebra_from_args(args)
    check = args.check
    if check == "hopf":
        rep = verify_hopf(alg)
    elif check in ("quasitriangular", "triangular"):
        # R_u, or R_A (E(n) only) with --A; on E(n), R_u is R_0
        r = r_matrix_RA(_matrix_arg(args.A, alg.nv), alg) if args.A else r_u(alg)
        fn = verify_quasitriangular if check == "quasitriangular" else verify_triangular
        rep = fn(alg, r)
    elif check in COMPOSITE_CHECKS:
        if check.startswith("omega-"):
            cochain = omega_sigma(_matrix_arg(args.sigma or "identity", alg.nv), alg)
        else:
            if args.sigma:
                smat = _matrix_arg(args.sigma, alg.nv)
            else:
                forms = invariant_symmetric_forms(alg.rep)
                if not forms.basis:
                    raise errors.ParseError("no invariant symmetric form available")
                smat = [[x for x in row] for row in forms.basis[0]]
            cochain = lambda_cocycle(alg, smat, require_invariant=not args.skip_invariance)
        for name in COMPOSITE_CHECKS[check]:
            rep = globals()[name](cochain, budget=args.budget_dim, seed=args.seed)
            if not rep.passed:
                break
    else:
        raise errors.ParseError(f"unknown check {check!r}")
    result = {
        "check": check,
        "dim": alg.dim,
        "passed": bool(rep.passed),
        "sampled": rep.sampled,
        "detail": rep.detail,
        "counterexample": list(rep.counterexample) if rep.counterexample else None,
    }
    return _report(args, result)


def _text_lines(doc: dict) -> list[str]:
    lines = [f"superbrauer {doc['command']}  (schema {TEXT_SCHEMA})"]
    for k, v in sorted(doc["budgets"].items()):
        lines.append(f"budget {k} = {v}")
    lines.append(f"seed = {doc['seed']}")
    if "group" in doc:
        g = doc["group"]
        lines.append(f"group: order {g['order']}, identity {g['identity']}, kind {g['kind']}, generators {g['generators_idx']}")
    res = doc["result"]
    if doc["command"] == "weyl-table":
        lines.extend(res["pretty"])
        return lines
    for key in ("coefficients", "field", "u", "split", "invariants", "order", "linear_dim",
                "group_part_invariants", "k_trivial", "dim", "dim_H", "check", "passed",
                "sampled", "detail", "counterexample"):
        if key in res:
            lines.append(f"{key}: {res[key]}")
    if "basis" in res:
        for b in res["basis"]:
            lines.append("  " + " ; ".join(",".join(row) for row in b))
    return lines


# ints per slice that the C encoder writes in one piece; this bounds the
# memory of one chunk whatever the size of the report
_SLICE_INTS = 1024
_compact = json.JSONEncoder(separators=(",", ":")).encode


def _json_chunks(x, indent: str = "\n"):
    """The text of json.dumps(x, sort_keys=True, indent=2) in pieces, with a
    numpy array written as its tolist(); indent is the line break and the
    spaces of the line that x starts on.

    Dicts and lists nest as json's own encoder nests them; keys must be str.
    A non-empty 2-D integer array (a Cayley table, class coordinates, edge
    labels) is written by the C encoder with no spaces, a slice of
    at most _SLICE_INTS ints (or one row) at a time, and indented with
    str.replace: the text of an int holds no comma and no bracket.  Scalars
    go through the same C encoder, so a value json cannot encode (a numpy
    int) raises TypeError."""
    inner = indent + "  "
    if isinstance(x, np.ndarray):
        if not (x.ndim == 2 and x.size and x.dtype.kind in "iu"):
            yield from _json_chunks(x.tolist(), indent)
            return
        item = inner + "  "
        step = max(1, _SLICE_INTS // x.shape[1])
        for lo in range(0, len(x), step):
            text = _compact(x[lo:lo + step].tolist())[1:-1]  # "[1,2],[3,4]"
            # the commas inside rows, the brackets, then the row separators "],"
            text = text.replace(",", "," + item).replace("[", "[" + item).replace("]", inner + "]")
            yield ("," if lo else "[") + inner + text.replace("]," + item, "]," + inner)
        yield indent + "]"
    elif isinstance(x, dict):
        if not x:
            yield "{}"
            return
        sep = "{" + inner
        for k in sorted(x):
            if not isinstance(k, str):
                raise TypeError(f"report keys must be str, not {type(k).__name__}")
            yield f"{sep}{_compact(k)}: "
            yield from _json_chunks(x[k], inner)
            sep = "," + inner
        yield indent + "}"
    elif isinstance(x, (list, tuple)):
        if not x:
            yield "[]"
            return
        sep = "[" + inner
        for v in x:
            yield sep
            yield from _json_chunks(v, inner)
            sep = "," + inner
        yield indent + "]"
    else:
        yield _compact(x)


def _write_report(doc: dict, fmt: str, fh) -> None:
    """Stream the report into fh, never holding its text as one string.  The
    JSON is json.dumps(doc, sort_keys=True, indent=2), written chunk by chunk
    as _json_chunks makes it; json's own indent encoder runs in pure Python,
    one call per int."""
    if fmt == "json":
        fh.writelines(_json_chunks(doc))
        fh.write("\n")
    else:
        fh.writelines(f"{line}\n" for line in _text_lines(doc))


@contextlib.contextmanager
def _destination(path: str | None):
    """stdout, or --out.  A path that exists and is no regular file (a FIFO, a
    device) is written in place.  Otherwise a new file beside the path's real
    target replaces that target once the report is complete, so a symlink
    stays a link and an existing file keeps its permission bits.  That file is
    made before the job runs, so an unwritable --out is refused first; on any
    failure it is removed and the target is left as it was."""
    if not path:
        yield sys.stdout
        return
    tmp = None
    try:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if os.path.exists(path) and not os.path.isfile(path):
            fh = open(path, "w")
        else:
            real = os.path.realpath(path)
            tmp = f"{real}.{os.urandom(4).hex()}.tmp"
            fh = open(tmp, "x")  # mode 0o666 less the umask, as open(path, "w") would give a new file
    except OSError as exc:
        raise errors.ParseError(f"cannot write report to {path}: {exc.strerror}") from exc
    try:
        with fh:
            yield fh
        if tmp:
            if os.path.isfile(real):
                os.chmod(tmp, stat.S_IMODE(os.stat(real).st_mode))
            os.replace(tmp, real)
    except BaseException:
        if tmp:
            os.unlink(tmp)
        raise


def _budget(text: str) -> int:
    """argparse type of every --budget-* flag: a non-negative integer (0 is legal)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"a budget cannot be negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="superbrauer",
                                description="Exact Brauer groups and lazy cohomology of modified supergroup algebras.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, group_input=True):
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--out", help="write the report to this path instead of stdout")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--budget-cap", dest="budget_cap", type=_budget, default=DEFAULT_CAP,
                        help="group enumeration cap")
        if group_input:
            sp.add_argument("--group", help="group input JSON file")
            sp.add_argument("--type", help="root system type, e.g. B3 (builds the Weyl datum)")
            sp.add_argument("--u", help="central involution: element index or word like 'g0 g1'")

    sp = sub.add_parser("h2", help="H^2(G, Z_N) or the closed/real field realization")
    common(sp)
    sp.add_argument("--coeff", type=int, help="coefficient modulus N (overrides --field)")
    sp.add_argument("--field", choices=("closed", "real"), default="closed")
    sp.add_argument("--budget-h2", dest="budget_h2", type=_budget, default=DEFAULT_H2_BUDGET)
    sp.set_defaults(func=cmd_h2)

    sp = sub.add_parser("h2sharp", help="H^2 under the sharp product, by enumeration")
    common(sp)
    sp.add_argument("--field", choices=("closed", "real"), required=True)
    sp.add_argument("--budget-enum", dest="budget_enum", type=_budget, default=ENUMERATION_BUDGET)
    sp.set_defaults(func=cmd_h2sharp)

    sp = sub.add_parser("bm", help="BM(k, k[G], R_u) with Cayley table")
    common(sp)
    sp.add_argument("--field", choices=("closed", "real"), required=True)
    sp.add_argument("--rep", help="representation JSON (adds the linear summand dimension)")
    sp.add_argument("--budget-enum", dest="budget_enum", type=_budget, default=ENUMERATION_BUDGET)
    sp.set_defaults(func=cmd_bm)

    sp = sub.add_parser("lazy", help="lazy cohomology of k[G] x Lambda V")
    common(sp)
    sp.add_argument("--rep", help="representation JSON file (one matrix per generator)")
    sp.add_argument("--budget-h2", dest="budget_h2", type=_budget, default=DEFAULT_H2_BUDGET)
    sp.set_defaults(func=cmd_lazy)

    sp = sub.add_parser("invforms", help="G-invariant symmetric forms, exact rationals")
    common(sp)
    sp.add_argument("--rep", help="representation JSON file")
    sp.set_defaults(func=cmd_invforms)

    sp = sub.add_parser("weyl-table", help="the two final tables per root system type")
    common(sp, group_input=False)
    sp.add_argument("--types", help="comma separated list, e.g. A1,B2,D4")
    sp.add_argument("--budget-weyl", dest="budget_weyl", type=_budget, default=WEYL_GROUP_BUDGET)
    sp.set_defaults(func=cmd_weyl_table)

    sp = sub.add_parser("verify", help="axiom checks with first counterexample")
    common(sp)
    sp.add_argument("--algebra", help="E<n> for the self-dual family, e.g. E2")
    sp.add_argument("--check", required=True,
                    choices=("hopf", "quasitriangular", "triangular", "omega-lazy",
                             "omega-cocycle", "lambda-lazy", "lambda-cocycle"))
    sp.add_argument("--A", help="symmetric matrix for R_A on E(n): identity, zero, or a JSON file (default: R_u)")
    sp.add_argument("--sigma", help="symmetric matrix for omega/lambda: identity, zero, or JSON file")
    sp.add_argument("--skip-invariance", action="store_true",
                    help="build lambda from a non-invariant form (the checks will then fail)")
    sp.add_argument("--budget-dim", dest="budget_dim", type=_budget, default=DEFAULT_DIM_BUDGET,
                    help="the Hopf and R-matrix checks are exhaustive at every dimension; --budget-dim governs "
                         "only the omega-*/lambda-* checks, exhaustive up to this dim and sampled beyond")
    sp.set_defaults(func=cmd_verify)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _destination(args.out) as fh:
            doc = args.func(args)
            _write_report(doc, args.format, fh)
    except (errors.BudgetExceeded, errors.CapExceeded, errors.E8Refused) as exc:
        text, hint, flag = str(exc).rpartition("; raise --")
        if hint and not hasattr(args, flag.replace("-", "_")):  # name only a flag this command accepts
            exc = f"{text}; {args.command} has no flag that raises it"
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except errors.SuperbrauerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if doc["command"] == "verify" and not doc["result"]["passed"]:
        return EXIT_VERIFY
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
