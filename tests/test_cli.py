"""CLI round-trips, determinism and exit codes."""

from __future__ import annotations

import hashlib
import json
import re

import pytest

from superbrauer.cli import EXIT_BUDGET, EXIT_PARSE, EXIT_VERIFY, main


@pytest.fixture()
def zz_file(tmp_path):
    spec = {"kind": "permutations", "generators": [[1, 0, 2, 3], [0, 1, 3, 2]], "u": "g0"}
    path = tmp_path / "zz.json"
    path.write_text(json.dumps(spec))
    return str(path)


def _run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_h2_on_group_file(zz_file, capsys):
    code, out = _run(["h2", "--group", zz_file, "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["invariants"] == [2]  # H^2(Z2 x Z2, C*)


def test_h2_real_descriptor(zz_file, capsys):
    code, out = _run(["h2", "--group", zz_file, "--field", "real", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["invariants"] == [2, 2, 2]


def test_bm_b3_report(capsys):
    code, out = _run(["bm", "--type", "B3", "--field", "closed", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["invariants"] == [2, 2, 2]
    assert doc["result"]["linear_dim"] == 1
    assert doc["result"]["split"] is True


def test_verify_e2_triangular_identity(capsys):
    code, out = _run(["verify", "--algebra", "E2", "--check", "triangular", "--A", "identity"], capsys)
    assert code == 0
    assert "passed: True" in out


def test_verify_failure_exit_code(capsys):
    code, out = _run(
        ["verify", "--type", "B2", "--check", "lambda-cocycle", "--sigma", "identity"],
        capsys,
    )
    # Sigma = I is not invariant for B2 in the root basis: rejected as a parse error
    assert code == EXIT_PARSE
    code, out = _run(
        ["verify", "--type", "B2", "--check", "lambda-cocycle", "--sigma", "identity", "--skip-invariance"],
        capsys,
    )
    assert code == EXIT_VERIFY


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = _run(["h2", "--group", str(bad)], capsys)
    assert code == EXIT_PARSE


@pytest.mark.parametrize(
    "spec, u",
    [
        ({"kind": "permutations"}, None),  # no generators
        ({"kind": "permutations", "generators": [[1, 0]]}, "gx"),  # bad u word
        ({"kind": "permutations", "generators": [[1, 0]]}, "7"),  # u index past |G| = 2
    ],
)
def test_malformed_input_exit_code(tmp_path, capsys, spec, u):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(spec))
    args = ["h2sharp", "--group", str(path), "--field", "closed"] + (["--u", u] if u else [])
    code, _ = _run(args, capsys)
    assert code == EXIT_PARSE


_Z2_TABLE = [[0, 1], [1, 0]]


@pytest.mark.parametrize("fields, message", [
    ({"table": [[0, 1.5], [1, 0]]}, "table entries must be integers"),
    ({"table": [["0", "1"], ["1", "0"]]}, "table entries must be integers"),
    ({"table": [[0, True], [True, 0]]}, "table entries must be integers"),
    ({"identity": 5}, r"identity 5 is not an element index in 0\.\.1"),
    ({"identity": -1}, r"identity -1 is not an element index in 0\.\.1"),
    ({"identity": "a"}, r"identity 'a' is not an element index in 0\.\.1"),
    ({"identity": 1}, "element 1 is not the identity of the table"),
    ({"labels": ["e"]}, "labels must be a list of 2 strings"),
], ids=["float-entry", "string-entries", "bool-entries", "identity-past-end", "identity-negative",
        "identity-string", "identity-not-neutral", "labels-short"])
def test_malformed_table_exit_code(tmp_path, capsys, fields, message):
    """Each fault of a table group file is refused with exit 2 and named."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"kind": "table", "table": _Z2_TABLE, **fields}))
    assert main(["h2", "--group", str(path)]) == EXIT_PARSE
    assert re.search(message, capsys.readouterr().err)


@pytest.mark.parametrize("spec, message", [
    ({"kind": "matrices", "generators": [[1, 0]]}, "kind 'matrices' needs each generator as"),
    ({"kind": "permutations", "generators": [[[0, 1], [1, 0]]]}, "kind 'permutations' needs each generator as"),
    ({"kind": "matrices", "generators": [[]]}, "kind 'matrices' needs each generator as"),
    ({"kind": "permutations", "generators": [[1.5, 0]]}, "permutation entries must be integers, got 1.5"),
    ({"kind": "permutations", "generators": [["1", "0"]]}, "permutation entries must be integers, got '1'"),
    ({"kind": "permutations", "generators": [[True, False]]}, "permutation entries must be integers, got True"),
], ids=["permutation-as-matrix", "matrix-as-permutation", "empty-matrix", "float-point-image",
        "string-point-images", "bool-point-images"])
def test_generators_must_fit_the_declared_kind(tmp_path, capsys, spec, message):
    """The declared kind decides how generators are read; a misfit, or a point
    image that is not an integer, is refused, not re-guessed or truncated."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps(spec))
    assert main(["h2", "--group", str(path)]) == EXIT_PARSE
    assert message in capsys.readouterr().err


def test_bm_rep_must_send_u_to_minus_one(tmp_path, capsys):
    """bm with --rep refuses rho(u) = +1, as lazy does."""
    group, rep = tmp_path / "z2.json", tmp_path / "rep.json"
    group.write_text(json.dumps({"kind": "permutations", "generators": [[1, 0]], "u": "g0"}))
    rep.write_text(json.dumps({"matrices": [[[1]]]}))
    for args in (["bm", "--field", "real"], ["bm", "--field", "closed"], ["lazy"]):
        assert main(args + ["--group", str(group), "--rep", str(rep)]) == EXIT_PARSE
        assert "u must act as -1 on V" in capsys.readouterr().err


def test_composite_checks_call_the_current_module_attributes(monkeypatch):
    """verify resolves the checks of omega-*/lambda-* when it runs, so a rebound
    is_lazy or is_left_cocycle (e.g. a tracing wrapper) is the one called."""
    import superbrauer.cli as cli

    called = []
    for name in ("is_lazy", "is_left_cocycle"):
        def record(*args, _check=getattr(cli, name), _name=name, **kwargs):
            called.append(_name)
            return _check(*args, **kwargs)
        monkeypatch.setattr(cli, name, record)
    for check in ("omega-lazy", "lambda-lazy"):
        called.clear()
        assert main(["verify", "--algebra", "E2", "--check", check]) == 0
        assert sorted(called) == ["is_lazy", "is_left_cocycle"]


@pytest.mark.parametrize("rep", [{}, {"kind": "permutations", "generators": [[1, 0]]}, {"matrices": [5]}],
                         ids=["empty", "group-file", "scalar-matrix"])
def test_malformed_rep_exit_code(tmp_path, capsys, rep):
    group = tmp_path / "z2.json"
    group.write_text(json.dumps({"kind": "permutations", "generators": [[1, 0]], "u": "g0"}))
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep))
    code, _ = _run(["lazy", "--group", str(group), "--rep", str(path)], capsys)
    assert code == EXIT_PARSE


@pytest.mark.parametrize("name", ["EX", "E-1", "F2"])
def test_malformed_algebra_exit_code(capsys, name):
    assert main(["verify", "--algebra", name, "--check", "hopf"]) == EXIT_PARSE
    assert "--algebra expects E<n>" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--type", "B2"), ("--group", "z2.json"), ("--u", "1")])
def test_algebra_with_group_input_exit_code(tmp_path, capsys, flag, value):
    """--algebra names the whole algebra; a group input next to it is refused, not ignored."""
    (tmp_path / "z2.json").write_text(json.dumps({"kind": "permutations", "generators": [[1, 0]], "u": "g0"}))
    if flag == "--group":
        value = str(tmp_path / value)
    assert main(["verify", "--algebra", "E2", flag, value, "--check", "hopf"]) == EXIT_PARSE
    assert f"--algebra cannot be combined with {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("matrix", [5, [1, 2], "ab", {"a": 1}], ids=["scalar", "flat-list", "string", "object"])
@pytest.mark.parametrize("flag, check", [("--sigma", "omega-lazy"), ("--A", "triangular")])
def test_malformed_matrix_exit_code(tmp_path, capsys, matrix, flag, check):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix))
    assert main(["verify", "--algebra", "E2", "--check", check, flag, str(path)]) == EXIT_PARSE
    assert "matrix must be a list of rows" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["lazy", "--type", "B2", "--rep", "nonexistent.json"],
    ["invforms", "--type", "B2", "--rep", "nonexistent.json"],
    ["bm", "--type", "B2", "--field", "real", "--rep", "nonexistent.json"],
    ["h2", "--type", "B2", "--group", "nonexistent.json"],
    ["h2sharp", "--type", "B2", "--field", "real", "--group", "nonexistent.json"],
], ids=["lazy", "invforms", "bm", "h2", "h2sharp"])
def test_group_input_with_type_exit_code(capsys, args):
    """The Weyl datum fixes G and V; a --group or --rep next to --type is refused, not ignored."""
    assert main(args) == EXIT_PARSE
    assert f"{args[-2]} cannot be combined with --type" in capsys.readouterr().err


def test_u_with_type_exit_code(capsys):
    """The Weyl datum fixes u = w0; a --u next to --type is refused, not ignored."""
    assert main(["bm", "--type", "A1", "--field", "real", "--u", "0"]) == EXIT_PARSE
    assert main(["verify", "--type", "B2", "--check", "hopf", "--u", "0"]) == EXIT_PARSE


def test_budget_exit_code(capsys):
    code, _ = _run(["h2", "--type", "B3", "--budget-h2", "10"], capsys)
    assert code == EXIT_BUDGET
    code, _ = _run(["weyl-table", "--types", "E8", "--budget-cap", "100"], capsys)
    assert code == 0  # E8 row falls back to literature mode, no build attempted


@pytest.mark.parametrize("generator, term", [
    ([["-9223372036854775807"]], 2**63 - 1),  # squares to 1 in int64; the group is infinite
    ([["9223372036854775808"]], 2**63),  # not an int64
    ([["3037000500", "0"], ["0", "1"]], 3037000500**2),  # squares past 2^63
], ids=["wraps", "overflows", "squares-past"])
def test_integer_closure_refuses_int64_overflow(tmp_path, capsys, generator, term):
    """An integer closure whose products could leave int64 is refused (exit 3),
    naming the size of the product terms, instead of wrapping or crashing."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"kind": "matrices", "generators": [generator]}))
    assert main(["h2", "--group", str(path)]) == EXIT_BUDGET
    err = capsys.readouterr().err
    assert f"terms up to {term} leave exact int64 arithmetic" in err


@pytest.mark.parametrize("args, flag", [
    (["h2", "--type", "B3", "--budget-h2", "10"], "--budget-h2"),
    (["h2sharp", "--type", "B3", "--field", "real", "--budget-enum", "10"], "--budget-enum"),
    (["bm", "--type", "B3", "--field", "real", "--budget-enum", "10"], "--budget-enum"),
], ids=["h2", "h2sharp", "bm"])
def test_budget_refusal_names_its_flag(capsys, args, flag):
    assert main(args) == EXIT_BUDGET
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("args, flag, zero_code", [
    (["h2", "--type", "A2", "--budget-cap", "-1"], "--budget-cap", EXIT_BUDGET),
    (["h2", "--type", "A2", "--budget-h2", "-5"], "--budget-h2", EXIT_BUDGET),
    (["bm", "--type", "A2", "--field", "real", "--budget-enum", "-1"], "--budget-enum", EXIT_BUDGET),
    (["weyl-table", "--types", "A1", "--budget-weyl", "-3"], "--budget-weyl", 0),  # A1 row from the literature
    (["verify", "--algebra", "E2", "--check", "omega-lazy", "--budget-dim", "-1"], "--budget-dim", 0),  # sampled
], ids=["cap", "h2", "enum", "weyl", "dim"])
def test_negative_budget_exit_code(capsys, args, flag, zero_code):
    """A negative budget is an input error (exit 2) naming its flag; 0 stays legal."""
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == EXIT_PARSE
    assert f"argument {flag}: a budget cannot be negative" in capsys.readouterr().err
    assert main(args[:-1] + ["0"]) == zero_code


def test_coprime_modulus_computes(capsys):
    """H^2(G, Z_q) = 0 for q prime to |G|, however large q is."""
    code, out = _run(["h2", "--type", "B2", "--coeff", "1000000007", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["invariants"] == []


def test_modulus_too_large_states_its_size(capsys):
    assert main(["h2", "--type", "B2", "--coeff", str(2**31)]) == EXIT_BUDGET
    err = capsys.readouterr().err
    # |R| counts the unknowns: the central values of the three relators of W(B2)
    assert "|R| = 3" in err and f"Z_{2**31}" in err and "no budget flag" in err


@pytest.fixture()
def z2xz4_cwd(tmp_path, monkeypatch):
    (tmp_path / "z2xz4.json").write_text(json.dumps(Z2XZ4_SPEC))
    monkeypatch.chdir(tmp_path)


def test_modulus_inside_the_relator_bound(z2xz4_cwd, capsys):
    """2^30 on Z2 x Z4: |R| q^2 = 3 * 2^60 < 2^62 (the f-column solve had
    f = 9 unknowns and refused it)."""
    code, out = _run(["h2", "--group", "z2xz4.json", "--coeff", str(2**30), "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["invariants"] == [4, 2, 2]


@pytest.mark.parametrize("modulus", [2**25 * 1099511627791, 8 * (2**61 - 1)], ids=["66-bit", "8(2^61-1)"])
def test_modulus_past_2_62_is_an_input_error(z2xz4_cwd, capsys, modulus):
    """Sums of two cochain values must stay exact in int64, so N >= 2^62 is
    refused as input (exit 2), not with an overflow traceback."""
    assert main(["h2", "--group", "z2xz4.json", "--coeff", str(modulus)]) == EXIT_PARSE
    assert f"coefficient modulus {modulus} is not below 2^62" in capsys.readouterr().err


def test_machine_output_deterministic(zz_file, capsys):
    args = ["h2sharp", "--group", zz_file, "--field", "real", "--format", "json"]
    _, out1 = _run(args, capsys)
    _, out2 = _run(args, capsys)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["result"]["invariants"] == [4, 2]
    assert doc["budgets"] and "seed" in doc


def test_weyl_table_output(capsys):
    code, out = _run(["weyl-table", "--types", "A1,B2,E8", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)["result"]["rows"]
    assert rows[0]["type"] == "A1" and rows[0]["mode"] == "computed"
    assert rows[2]["type"] == "E8" and rows[2]["mode"] == "literature"
    assert rows[2]["BM"]["invariants"] == [2]


def test_lazy_and_invforms_via_type(capsys):
    code, out = _run(["lazy", "--type", "B2", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["linear_dim"] == 1
    assert doc["result"]["group_part_invariants"] == [2]
    code, out = _run(["invforms", "--type", "B2", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["dim"] == 1


def test_group_report_roundtrip(zz_file, capsys):
    """Serialized groups and cocycles re-parse to equal values."""
    from superbrauer import cochain_from_sparse, h2_real_closed, load_group_file, parse_group_spec, serialize_group

    g, u = load_group_file(zz_file)
    doc = serialize_group(g)
    doc2 = json.loads(json.dumps(doc, sort_keys=True))
    g2, _ = parse_group_spec(doc2)
    assert serialize_group(g2) == doc
    H = h2_real_closed(g)
    for rep in H.reps:
        sp = json.loads(json.dumps(rep.to_sparse(), sort_keys=True))
        assert cochain_from_sparse(g, sp).equals(rep)


def test_out_file(tmp_path, zz_file, capsys):
    out = tmp_path / "report.json"
    code, _ = _run(["h2", "--group", zz_file, "--format", "json", "--out", str(out)], capsys)
    assert code == 0
    assert json.loads(out.read_text())["schema"] == "superbrauer-report/1"


# SHA-256 of the --format json reports, frozen so that refactors keep them byte-identical
GOLDEN_REPORTS = [
    (["verify", "--algebra", "E2", "--check", "hopf"],
     "1eaae1f6cd3b4b9e71a0fa58868780017930011bb3f615605a852212d35d9f21"),
    (["verify", "--algebra", "E2", "--check", "quasitriangular"],
     "a0a4a1e42c4c70139905896c731d0b59d1bc7ef81b0bf12a61c55750ec4ef4f3"),
    (["verify", "--algebra", "E2", "--check", "triangular"],
     "9b618a66a698813e88b3a8ebcbf19fc1e2cd88e50b2da5f0d32a6e32d2417342"),
    (["verify", "--algebra", "E2", "--check", "omega-lazy"],
     "90da1e18d25dd454bd237e540cd495b650ce40a1b2ed1c05d4aaf16f391668d9"),
    (["verify", "--algebra", "E2", "--check", "omega-cocycle"],
     "2ae3f18c91174b3182a797e8b3785f04b63637a9f865f9af667e0ad77605deca"),
    (["verify", "--algebra", "E2", "--check", "lambda-lazy"],
     "a63868c57821955334e63d5b215bda59b66cb3f17901f045472a9d32bb67124e"),
    (["verify", "--algebra", "E2", "--check", "lambda-cocycle"],
     "a305245704d5c75343bca65dc720de4ecd34176ca242718f4a113737ade84cba"),
    (["verify", "--type", "B2", "--check", "lambda-lazy", "--budget-dim", "16"],  # sampled
     "20086b62f1ff8d38dda2665adc4896d9dd20db1d5b9b3d3b8d6502d2947307dd"),
    (["invforms", "--type", "G2"],
     "6af3daa0762a32c2c7a9f21fb7f9f85ff19daf246d29a4470319cd3418b8f633"),
    (["bm", "--type", "B3", "--field", "real"],
     "3d8586315bccb4fc88e4089922ee411f429b20158e0b7276aa921efe35149c4e"),
    (["h2sharp", "--type", "B2", "--field", "real"],
     "fe40189ec129ef444b65595e762b425bfabc47cac714133e62ddc4d5c5af5f1d"),
    (["h2", "--type", "A3"],
     "2a6f106db6b1b80bba304d65670ac0fa9827aefd9c4d4f04a36d84dde7a0a364"),
    (["weyl-table", "--types", "A1,B2,G2"],
     "c26be73283e4601af2abb2407bcb678ca36a794aef16c1989a170d5e99d976f3"),
    (["h2sharp", "--type", "A3", "--field", "closed"],
     "8debbea3ea9ca57432e624409bfe12821c65b2b7a7ccba5a39477889d0703857"),
    (["bm", "--type", "G2", "--field", "real"],
     "c51cad1e6063b0c21ce83410fae99aa8634402fc7ca7443eca05a48ca7790130"),
    (["verify", "--type", "D4", "--check", "lambda-lazy", "--seed", "1"],  # dim 3072, sampled
     "ddc647a51a704f441f45d4868de61b47e4e895cb02619528eef4179e1ed02d5a"),
    (["bm", "--type", "B3", "--field", "closed"],
     "54a073a4b7ed9f0fb38cdc4c4926186b49b0869b046ca3a1e46dbe8a60c683d3"),
    (["bm", "--field", "real", "--group", "z2xz4.json"],  # u = (0, 2): not split
     "fd2c0a2401ba563640e8b2d4f122405d71d105a34a5e4d55d60d829ff8ac064f"),
    (["h2", "--type", "D4"],  # closed field, Z_192: p = 3 has a cyclic Sylow and is skipped
     "172f7113d210a6c96da38cdd08e87856e86d61ba9db3a635b1f10b7cb3ab6375"),
    (["h2", "--type", "B3", "--coeff", "6"],  # p = 3 kept for Ext(G^ab, Z_3)
     "639356533924d61faf563d78734323115116f5e7ca960031022f24745b2122e6"),
    (["h2", "--group", "z2xz4.json", "--coeff", "12"],  # p = 3 does not divide 8 and is skipped
     "6fe2f2cd59cbefd05c9d10b9710ca4db7d5fe59b9e0b98727a92811f61169c5e"),
    (["h2", "--group", "z2xz4.json", "--coeff", "33554432"],  # 2^25: |R| q^2 = 3 * 2^50, inside the exact int64 bound 2^62, past float64's 2^53
     "db7a752c594ab761b1607c06a5d49df509c847fa58343d5398a0c993609d7700"),
    (["verify", "--type", "B3", "--check", "hopf"],  # dim 384: exhaustive above the dim budget
     "394741f78edb6f7e82d7cf415f9e62ef4b2e68842ac2f34d5a47c93bed6eedd5"),
    (["verify", "--algebra", "E6", "--check", "hopf"],  # dim 128
     "f25cb088ffad78c119e32021be04e2aa42494074b58ce43cc02e26d24abb8a8f"),
    (["verify", "--algebra", "E6", "--check", "triangular", "--A", "identity"],  # dim 128
     "73eb7e4c8425eeff487cce210d21a245bad34bfb15e406cf5b01412e68847cea"),
]

# Z2 x Z4 on the points {0, 1} and {2, 3, 4, 5}, u = (0, 2)
Z2XZ4_SPEC = {"kind": "permutations", "generators": [[1, 0, 2, 3, 4, 5], [0, 1, 3, 4, 5, 2]], "u": "g1 g1"}


@pytest.mark.parametrize("args, digest", GOLDEN_REPORTS, ids=[" ".join(a) for a, _ in GOLDEN_REPORTS])
def test_golden_reports(args, digest, capsys, tmp_path, monkeypatch):
    (tmp_path / "z2xz4.json").write_text(json.dumps(Z2XZ4_SPEC))
    monkeypatch.chdir(tmp_path)
    code, out = _run(args + ["--format", "json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# failing lambda reports for the non-invariant Sigma = diag(1, 2) on W(B2), whose
# first counterexample is (g0*v0, g0*v0, g2) when the check is exhaustive
FAILING_LAMBDA_REPORTS = [
    (["verify", "--type", "B2", "--check", "lambda-lazy", "--skip-invariance"],
     "487f7948032e7e7f309da777a0a8ddc1ccfccb88bf40e7bfb5e31c1213227c3b"),
    (["verify", "--type", "B2", "--check", "lambda-cocycle", "--skip-invariance", "--budget-dim", "16"],  # sampled
     "2197a346bf525df2f32b0c52fc5de0b1673f86028d582a1470cf524e8d79033e"),
]


@pytest.mark.parametrize("args, digest", FAILING_LAMBDA_REPORTS, ids=[" ".join(a) for a, _ in FAILING_LAMBDA_REPORTS])
def test_golden_failing_lambda_reports(tmp_path, args, digest, capsys):
    sigma = tmp_path / "sigma.json"
    sigma.write_text("[[1, 0], [0, 2]]")
    code, out = _run(args + ["--sigma", str(sigma), "--format", "json"], capsys)
    assert code == EXIT_VERIFY
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# passing E(3) reports for matrix files: a dense symmetric A and a diagonal Sigma
MATRIX_FILE_REPORTS = [
    (["verify", "--algebra", "E3", "--check", "triangular", "--A"],
     '[[1, 2, -1], [2, "1/3", "1/2"], [-1, "1/2", 2]]',
     "692f906352380a4b830c9fa0add3a2d6ac1fb56ae415770ef75f878a095f22e4"),
    (["verify", "--algebra", "E3", "--check", "omega-lazy", "--sigma"],
     '[[2, 0, 0], [0, -1, 0], [0, 0, "3/2"]]',
     "c753d6173a6724d773fa9589b7b949311fa5b06708255b3044e0858b2028df6a"),
]


@pytest.mark.parametrize("args, matrix, digest", MATRIX_FILE_REPORTS, ids=[" ".join(a) for a, _, _ in MATRIX_FILE_REPORTS])
def test_golden_matrix_file_reports(tmp_path, args, matrix, digest, capsys):
    path = tmp_path / "matrix.json"
    path.write_text(matrix)
    code, out = _run(args + [str(path), "--format", "json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
