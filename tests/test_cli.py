"""CLI round-trips, determinism and exit codes."""

from __future__ import annotations

import hashlib
import json

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


@pytest.mark.parametrize("matrix", [5, [1, 2], "ab", {"a": 1}], ids=["scalar", "flat-list", "string", "object"])
@pytest.mark.parametrize("flag, check", [("--sigma", "omega-lazy"), ("--A", "triangular")])
def test_malformed_matrix_exit_code(tmp_path, capsys, matrix, flag, check):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix))
    assert main(["verify", "--algebra", "E2", "--check", check, flag, str(path)]) == EXIT_PARSE
    assert "matrix must be a list of rows" in capsys.readouterr().err


def test_u_with_type_exit_code(capsys):
    """The Weyl datum fixes u = w0; a --u next to --type is refused, not ignored."""
    assert main(["bm", "--type", "A1", "--field", "real", "--u", "0"]) == EXIT_PARSE
    assert main(["verify", "--type", "B2", "--check", "hopf", "--u", "0"]) == EXIT_PARSE


def test_budget_exit_code(capsys):
    code, _ = _run(["h2", "--type", "B3", "--budget-h2", "10"], capsys)
    assert code == EXIT_BUDGET
    code, _ = _run(["weyl-table", "--types", "E8", "--budget-cap", "100"], capsys)
    assert code == 0  # E8 row falls back to literature mode, no build attempted


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
     "0085df3a98d8c452ca7cfc4ffae0496a90e49eabf6ab16788127beaab903c0b0"),
    (["h2sharp", "--type", "B2", "--field", "real"],
     "ac52660f84ef23c0cd631ea657a8676a73fdd2e48f53b0a937ce8dbc1c807407"),
    (["h2", "--type", "A3"],
     "61639c77dcdc056d99aa609231bbdc01f0a49278dc588d8355098299a0318f65"),
    (["weyl-table", "--types", "A1,B2,G2"],
     "c26be73283e4601af2abb2407bcb678ca36a794aef16c1989a170d5e99d976f3"),
    (["h2sharp", "--type", "A3", "--field", "closed"],
     "117daebd28e5dd0c3c959f71c27ac6af542d5222d6335221c016721b5ea0a86c"),
    (["bm", "--type", "G2", "--field", "real"],
     "2356d671bd33467550c7d6d48f98489499981f4b3365f66975a35b9fe0835fd3"),
    (["verify", "--type", "D4", "--check", "lambda-lazy", "--seed", "1"],  # dim 3072, sampled
     "ddc647a51a704f441f45d4868de61b47e4e895cb02619528eef4179e1ed02d5a"),
]


@pytest.mark.parametrize("args, digest", GOLDEN_REPORTS, ids=[" ".join(a) for a, _ in GOLDEN_REPORTS])
def test_golden_reports(args, digest, capsys):
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
