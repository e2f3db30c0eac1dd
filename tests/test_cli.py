"""CLI round-trips, determinism and exit codes."""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import re
import stat
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from superbrauer import cli, groups
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


@pytest.mark.parametrize("args, code, message", [
    (["--type", "B2", "--check", "triangular"], 0, "passed: True"),
    (["--type", "B3", "--check", "quasitriangular"], 0, "passed: True"),
    (["--type", "B3", "--check", "triangular"], 0, "passed: True"),
    (["--type", "B2", "--check", "triangular", "--A", "identity"], EXIT_PARSE, "R_A lives on E(n), i.e. G = Z_2"),
], ids=["B2-triangular", "B3-quasitriangular", "B3-triangular", "B2-R_A"])
def test_verify_weyl_type_checks_r_u(capsys, args, code, message):
    """Without --A the (quasi)triangular checks take R_u, which every Weyl datum
    carries; --A selects R_A, which lives on E(n) only."""
    assert main(["verify", *args]) == code
    seen = capsys.readouterr()
    assert message in (seen.out if code == 0 else seen.err)


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


@pytest.mark.parametrize("spec, message", [
    ([1, 2], "group spec must be an object with a 'kind' field"),
    ({"generators": [[1, 0]]}, "group spec must be an object with a 'kind' field"),
    ({"kind": "permutations", "generators": [[1, 0]], "u": 1.5}, "u must be an element index or a word in generators"),
    ({"kind": "matrices", "generators": [[[True, 0], [0, 1]]]}, "bad rational entry True"),
    ({"kind": "matrices", "generators": [[["x", 0], [0, 1]]]}, "bad rational entry 'x'"),
    ({"kind": "matrices", "generators": [[[0.5, 0], [0, 1]]]}, "bad rational entry 0.5"),
    ({"kind": "matrices", "generators": [[[1, 0], [0, 1]], [[1]]]}, "matrix generators must be square and equally sized"),
    ({"kind": "table", "table": [[0, 1]]}, "multiplication table must be square"),
    ({"kind": "table", "table": [[0, 2], [1, 0]]}, "table entries out of range"),
    ({"kind": "table", "table": [[0, 0], [0, 0]]}, "table has no identity element"),
    ({"kind": "table", "table": [[0, 1, 2], [1, 1, 1], [2, 2, 0]]}, "element 1 has no inverse"),
], ids=["list", "no-kind", "float-u", "bool-entry", "string-entry", "float-entry", "unequal-sizes", "not-square",
        "out-of-range", "no-identity", "no-inverse"])
def test_malformed_group_file_is_refused_with_its_message(tmp_path, capsys, spec, message):
    """Each fault of a group file exits 2 with one error line naming it."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps(spec))
    assert main(["h2", "--group", str(path)]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {message}\n"


def test_u_as_a_list_of_generator_indices(tmp_path, capsys):
    """"u": [0] names the same element as "u": "g0"."""
    reports = []
    for u in ([0], "g0"):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"kind": "permutations", "generators": [[1, 0, 2, 3], [0, 1, 3, 2]], "u": u}))
        code, out = _run(["h2sharp", "--group", str(path), "--field", "real", "--format", "json"], capsys)
        assert code == 0
        reports.append(json.loads(out))
    assert reports[0] == reports[1] and reports[0]["result"]["u"] == 1


def test_rep_matrix_that_is_not_square_is_refused(tmp_path, capsys):
    group, rep = tmp_path / "z2.json", tmp_path / "rep.json"
    group.write_text(json.dumps({"kind": "permutations", "generators": [[1, 0]], "u": "g0"}))
    rep.write_text(json.dumps({"matrices": [[[1, 0]]]}))
    assert main(["lazy", "--group", str(group), "--rep", str(rep)]) == EXIT_PARSE
    assert capsys.readouterr().err == "error: representation matrices must be dim x dim\n"


def test_lambda_check_without_an_invariant_form_is_refused(capsys):
    """E(0) has V = 0, so no invariant symmetric form exists for lambda."""
    assert main(["verify", "--algebra", "E0", "--check", "lambda-lazy"]) == EXIT_PARSE
    assert capsys.readouterr().err == "error: no invariant symmetric form available\n"


def test_omega_check_with_the_zero_sigma(capsys):
    code, out = _run(["verify", "--algebra", "E2", "--check", "omega-lazy", "--sigma", "zero"], capsys)
    assert code == 0 and "passed: True" in out


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


@pytest.mark.parametrize("args, message", [
    (["h2"], "either --group FILE or --type XN is required"),
    (["h2sharp", "--field", "real", "--group", "{no_u}"], "a central involution u is required (file key 'u' or --u)"),
    (["bm", "--field", "real", "--group", "{no_u}"], "a central involution u is required (file key 'u' or --u)"),
    (["lazy", "--group", "{with_u}"], "lazy cohomology needs a representation (--rep or --type)"),
    (["lazy", "--group", "{no_u}", "--rep", "{rep}"], "a central involution u is required"),
    (["lazy", "--group", "{no_u}"], "lazy cohomology needs a representation (--rep or --type)"),
    (["invforms", "--group", "{with_u}"], "invforms needs a representation (--rep or --type)"),
    (["verify", "--check", "hopf"], "verify needs --algebra E<n> or --type XN"),
], ids=["h2-no-group", "h2sharp-no-u", "bm-no-u", "lazy-no-rep", "lazy-no-u", "lazy-no-rep-no-u", "invforms-no-rep",
        "verify-no-algebra"])
def test_missing_input_exit_code(tmp_path, capsys, monkeypatch, args, message):
    """A command that lacks the group, u or representation it needs exits 2 and
    says which, before it closes any group."""

    def unclosed(*args, **kwargs):
        raise AssertionError("the group was closed before the refusal")

    monkeypatch.setattr(groups, "close_generators", unclosed)
    files = {"no_u": {"kind": "permutations", "generators": [[1, 0]]},
             "with_u": {"kind": "permutations", "generators": [[1, 0]], "u": "g0"},
             "rep": {"matrices": [[[-1]]]}}
    paths = {}
    for name, doc in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    assert main([a.format(**paths) for a in args]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {message}\n"


def test_u_with_type_exit_code(capsys):
    """The Weyl datum fixes u = w0; a --u next to --type is refused, not ignored."""
    assert main(["bm", "--type", "A1", "--field", "real", "--u", "0"]) == EXIT_PARSE
    assert main(["verify", "--type", "B2", "--check", "hopf", "--u", "0"]) == EXIT_PARSE


def test_budget_exit_code(capsys):
    code, _ = _run(["h2", "--type", "B3", "--budget-h2", "10"], capsys)
    assert code == EXIT_BUDGET
    code, _ = _run(["weyl-table", "--types", "E8", "--budget-cap", "100"], capsys)
    assert code == 0  # E8 row falls back to literature mode, no build attempted


def test_budget_cap_zero_refuses_a_group_file(zz_file, capsys):
    """--budget-cap 0 is legal and refuses every closure with exit 3, for --group as for --type."""
    assert main(["h2", "--group", zz_file, "--budget-cap", "0"]) == EXIT_BUDGET
    assert capsys.readouterr().err == "error: closure exceeded cap 0\n"
    assert main(["h2", "--type", "A1", "--budget-cap", "0"]) == EXIT_BUDGET


def _exit_code(args) -> int:
    """main's exit code, argparse's own exits included."""
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("args", [
    ["lazy", "--group", "{zz}", "--rep", "{missing}"],
    ["lazy", "--group", "{zz}", "--rep", "{not_json}"],
    ["lazy", "--group", "{zz}", "--rep", "{scalar_matrices}"],
    ["lazy", "--group", "{zz}", "--rep", "{one_short}"],
    ["verify", "--algebra", "E2", "--check", "triangular", "--A", "{missing}"],
    ["verify", "--algebra", "E2", "--check", "triangular", "--A", "{not_json}"],
    ["verify", "--algebra", "E2", "--check", "omega-lazy", "--sigma", "{missing}"],
    ["verify", "--algebra", "E2", "--check", "omega-lazy", "--sigma", "{not_json}"],
    ["h2", "--type", "A1", "--budget-h2", "abc"],
    ["verify", "--algebra", "E2", "--check", "hopf", "--budget-dim", "1.5"],
], ids=["rep-missing", "rep-not-json", "rep-matrices-scalar", "rep-one-short", "A-missing", "A-not-json",
        "sigma-missing", "sigma-not-json", "budget-h2-abc", "budget-dim-float"])
def test_malformed_job_input_exit_code(tmp_path, zz_file, capsys, args):
    """An unreadable or malformed input file or budget exits 2 with an error line, never a traceback."""
    paths = {"zz": zz_file, "missing": tmp_path / "missing.json", "not_json": tmp_path / "not.json",
             "scalar_matrices": tmp_path / "scalar.json", "one_short": tmp_path / "short.json"}
    paths["not_json"].write_text("{not json")
    paths["scalar_matrices"].write_text(json.dumps({"matrices": 5}))
    paths["one_short"].write_text(json.dumps({"matrices": [[[-1]]]}))  # zz has two generators
    assert _exit_code([a.format(**paths) for a in args]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "Traceback" not in captured.err + captured.out


def _messy_and_clean_files(tmp_path):
    """Z2 x Z2 listed as [(0 1), id, (2 3), (0 1)] and as [(0 1), (2 3)], u = (0 1)(2 3),
    with a representation sending (0 1) to -1 and (2 3) to 1."""
    swap01, ident, swap23 = [1, 0, 2, 3], [0, 1, 2, 3], [0, 1, 3, 2]
    files = {
        "messy": {"kind": "permutations", "generators": [swap01, ident, swap23, swap01], "u": "g0 g2"},
        "messy_rep": {"matrices": [[[-1]], [[1]], [[1]], [[-1]]]},
        "clean": {"kind": "permutations", "generators": [swap01, swap23], "u": "g0 g1"},
        "clean_rep": {"matrices": [[[-1]], [[1]]]},
    }
    for name, doc in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    return {name: str(tmp_path / f"{name}.json") for name in files}


@pytest.mark.parametrize("args, keys", [
    (["h2"], ["invariants"]),
    (["bm", "--field", "real"], ["invariants", "order", "split", "u"]),
    (["h2sharp", "--field", "real"], ["invariants", "split", "u", "classes", "cayley_table"]),
    (["lazy", "--rep", "{rep}"], ["dim_H", "linear_dim", "group_part_invariants", "k_trivial"]),
    (["invforms", "--rep", "{rep}"], ["dim", "basis"]),
], ids=["h2", "bm", "h2sharp", "lazy", "invforms"])
def test_words_and_rep_files_name_the_generators_as_listed(tmp_path, capsys, args, keys):
    """gk in a u word and the k-th matrix of a representation file refer to the
    k-th generator listed, identity and repeats included: the messy listing
    gives the clean listing's invariants."""
    files = _messy_and_clean_files(tmp_path)
    results = {}
    for side in ("messy", "clean"):
        argv = [args[0], "--group", files[side], "--format", "json"]
        argv += [a.format(rep=files[f"{side}_rep"]) for a in args[1:]]
        code, out = _run(argv, capsys)
        assert code == 0, capsys.readouterr().err
        result = json.loads(out)["result"]
        results[side] = {k: result[k] for k in keys}
    assert results["messy"] == results["clean"]
    if args[0] == "h2":
        assert results["clean"]["invariants"] == [2]
    if args[0] == "bm":
        assert results["clean"]["invariants"] == [8, 4]


@pytest.mark.parametrize("args, message", [
    (["--algebra", "E99"], "dim E(99) = 2^100 exceeds cap 200000; raise --budget-cap"),
    (["--algebra", "E" + "9" * 40], f"dim E({'9' * 40}) = 2^1{'0' * 40} exceeds cap 200000"),
    (["--algebra", "E3", "--budget-cap", "15"], "dim E(3) = 2^4 exceeds cap 15; raise --budget-cap"),
    (["--algebra", "E0", "--budget-cap", "0"], "dim E(0) = 2^1 exceeds cap 0; raise --budget-cap"),
], ids=["E99", "E10^40", "E3-cap15", "E0-cap0"])
def test_en_dimension_is_refused_before_building(capsys, monkeypatch, args, message):
    """dim E(n) = 2^(n+1) above --budget-cap is refused (exit 3), naming the bound
    and the flag, before E(n) is built."""
    from superbrauer import cli

    def unbuilt(n):
        raise AssertionError(f"E({n}) was built")

    monkeypatch.setattr(cli, "build_en", unbuilt)
    assert main(["verify", "--check", "hopf", *args]) == EXIT_BUDGET
    assert message in capsys.readouterr().err


def test_en_dimension_at_the_cap_is_admitted(capsys):
    code, out = _run(["verify", "--check", "hopf", "--algebra", "E3", "--budget-cap", "16", "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["result"]["dim"] == 16


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


# the cyclic group of order 390 as permutations, u = g0^195: (|G|-1)^2 = 151 321
# is just above the default H^2 budget of 150 000
C390_SPEC = {"kind": "permutations", "generators": [[(i + 1) % 390 for i in range(390)]], "u": "g0 " * 195}


@pytest.mark.parametrize("args, flag, named", [
    (["h2", "--type", "B3", "--budget-h2", "10"], "--budget-h2", True),
    (["h2sharp", "--type", "B3", "--field", "real", "--budget-enum", "10"], "--budget-enum", True),
    (["bm", "--type", "B3", "--field", "real", "--budget-enum", "10"], "--budget-enum", True),
    (["h2", "--group", "c390.json"], "--budget-h2", True),
    (["h2sharp", "--group", "c390.json", "--field", "closed"], "--budget-h2", False),
    (["bm", "--group", "c390.json", "--field", "closed"], "--budget-h2", False),
    (["bm", "--group", "c390.json", "--field", "real"], "--budget-h2", False),
    (["weyl-table", "--types", "F4", "--budget-weyl", "2000"], "--budget-h2", False),
], ids=["h2", "h2sharp", "bm", "h2-c390", "h2sharp-c390", "bm-closed-c390", "bm-real-c390", "weyl-table-f4"])
def test_budget_refusal_names_its_flag(tmp_path, monkeypatch, capsys, args, flag, named):
    """A refusal names the flag that raises its budget when the command accepts
    it.  h2sharp, bm and weyl-table have no --budget-h2, so their H^2 refusal
    names the size and the budget and says that no flag of theirs raises it."""
    (tmp_path / "c390.json").write_text(json.dumps(C390_SPEC))
    monkeypatch.chdir(tmp_path)
    assert main(args) == EXIT_BUDGET
    err = capsys.readouterr().err
    assert (flag in err) == named
    if not named:
        assert "is below (|G|-1)^2 = " in err and f"{args[0]} has no flag that raises it" in err


@pytest.mark.parametrize("args, square, named", [
    (["h2", "--type", "D5"], 14737921, True),
    (["h2sharp", "--type", "D5", "--field", "closed"], 14737921, False),
    (["bm", "--type", "D5", "--field", "closed"], 14737921, False),
    (["lazy", "--type", "D5"], 3682561, True),  # the H^2 of G/U, 1920 elements
], ids=["h2", "h2sharp", "bm", "lazy"])
def test_h2_budget_refuses_a_weyl_type_before_building(monkeypatch, capsys, args, square, named):
    """|G(D5)| = 3840 is known from the type, so the H^2 budget refuses the job
    (exit 3, same message) before G(D5) is closed."""
    from superbrauer import cli

    def unbuilt(t, cap):
        raise AssertionError(f"G({t.name}) was built")

    monkeypatch.setattr(cli, "group_datum", unbuilt)
    assert main(args) == EXIT_BUDGET
    err = capsys.readouterr().err
    assert f"H^2 budget 150000 is below (|G|-1)^2 = {square}" in err
    assert ("raise --budget-h2" in err) == named


@pytest.mark.parametrize("args, message", [
    (["h2", "--type", "D5", "--budget-cap", "1000"], "|W(D5)| = 1920 exceeds cap 1000"),
    (["h2", "--type", "A3", "--budget-cap", "30", "--budget-h2", "10"], "closure exceeded cap 30"),
    (["h2", "--type", "E7", "--budget-cap", "10000000"], "above the 20000-element multiplication table limit"),
    (["h2", "--type", "E6"], "W(E6) has 51840 elements, above the 20000-element multiplication table limit"),
    (["bm", "--type", "E8", "--field", "closed"], "W(E8) has ~7e8 elements and is refused at any budget"),
], ids=["cap-D5", "cap-extended-A3", "table-limit-E7", "table-limit-E6", "E8"])
def test_weyl_type_too_large_to_build_keeps_its_refusal(capsys, args, message):
    """A datum past min(cap, table limit) keeps the closure's refusal, not the H^2 budget's."""
    assert main(args) == EXIT_BUDGET
    err = capsys.readouterr().err
    assert message in err and "H^2 budget" not in err


@pytest.mark.parametrize("target", ["missing/x.json", "."], ids=["missing-dir", "directory"])
def test_unwritable_out_is_refused_before_work(tmp_path, monkeypatch, capsys, target):
    """An --out that cannot be written exits 2 before the command runs."""
    from superbrauer import cli

    def unrun(args):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "cmd_verify", unrun)
    out = str(tmp_path / target)
    assert main(["verify", "--algebra", "E1", "--check", "hopf", "--out", out]) == EXIT_PARSE
    assert f"error: cannot write report to {out}: " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("old", [None, b"an older report\n"], ids=["absent", "existing"])
def test_failed_job_leaves_out_as_it_was(tmp_path, monkeypatch, capsys, old):
    """A refused job, and a report that fails part way through, leave --out
    absent or with its old bytes, and no temporary file beside it."""
    from superbrauer import cli

    out = tmp_path / "report.json"
    if old is not None:
        out.write_bytes(old)

    def unchanged():
        assert [p.name for p in tmp_path.iterdir()] == ([] if old is None else ["report.json"])
        assert old is None or out.read_bytes() == old

    assert main(["h2", "--type", "B3", "--budget-h2", "10", "--out", str(out)]) == EXIT_BUDGET
    unchanged()
    monkeypatch.setattr(cli, "cmd_verify", lambda args: {"command": "verify", "result": {"a": 1, "b": object()}})
    with pytest.raises(TypeError, match="not JSON serializable"):
        main(["verify", "--algebra", "E1", "--check", "hopf", "--format", "json", "--out", str(out)])
    unchanged()


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_out_file_mode_follows_the_umask(tmp_path, zz_file, umask):
    """The report gets the mode that open(path, "w") gives, not a temporary file's 0600."""
    old = os.umask(umask)
    try:
        (tmp_path / "plain").open("w").close()
        out = tmp_path / "report.json"
        assert main(["h2", "--group", zz_file, "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE((tmp_path / "plain").stat().st_mode) == 0o666 & ~umask


INVFORMS_A1 = ["invforms", "--type", "A1"]


def _printed(args, capsys) -> str:
    assert main(args) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("dangling", [False, True], ids=["link", "dangling-link"])
def test_out_through_a_symlink_replaces_its_target(tmp_path, capsys, dangling):
    """--out naming a symlink keeps the link and writes the report to its
    target, which is created when the link dangles."""
    want = _printed(INVFORMS_A1, capsys)
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    if not dangling:
        target.write_text("an older report\n")
    link.symlink_to(target.name)
    assert main([*INVFORMS_A1, "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_text() == want
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "target.txt"]
    assert main(["h2", "--type", "B3", "--budget-h2", "10", "--out", str(link)]) == EXIT_BUDGET
    assert link.is_symlink() and target.read_text() == want


def test_out_fifo_is_written_in_place(tmp_path, capsys):
    """A FIFO at --out stays a FIFO and its reader receives the report."""
    import threading

    want = _printed(INVFORMS_A1, capsys)
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    assert main([*INVFORMS_A1, "--out", str(fifo)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive() and got == [want]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["report.fifo"]


def test_out_keeps_an_existing_files_permission_bits(tmp_path, capsys):
    """A report that replaces an existing file keeps that file's mode, and
    a refused job leaves both the bytes and the mode as they were."""
    want = _printed(INVFORMS_A1, capsys)
    out = tmp_path / "report.txt"
    out.write_text("an older report\n")
    out.chmod(0o600)
    assert main([*INVFORMS_A1, "--out", str(out)]) == 0
    assert out.read_text() == want and stat.S_IMODE(out.stat().st_mode) == 0o600
    out.chmod(0o640)
    assert main(["h2", "--type", "B3", "--budget-h2", "10", "--out", str(out)]) == EXIT_BUDGET
    assert out.read_text() == want and stat.S_IMODE(out.stat().st_mode) == 0o640


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


@pytest.mark.parametrize("types", ["", ","])
def test_weyl_table_types_naming_no_type(capsys, types):
    """--types that names no type is an input error, not the default table or an empty one."""
    assert main(["weyl-table", "--types", types]) == EXIT_PARSE
    assert "--types names no root system type" in capsys.readouterr().err


def test_weyl_table_default_types(capsys, monkeypatch):
    """Without --types the table has the default rows."""
    from superbrauer import cli

    monkeypatch.setattr(cli, "DEFAULT_TABLE_TYPES", ["A1", "E8"])
    code, out = _run(["weyl-table", "--format", "json"], capsys)
    assert code == 0 and [row["type"] for row in json.loads(out)["result"]["rows"]] == ["A1", "E8"]


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


@pytest.mark.parametrize("args", [
    ["h2"],
    ["h2sharp", "--field", "real"],
    ["bm", "--field", "real"],
], ids=["h2", "h2sharp", "bm"])
def test_text_reports_build_no_representative(zz_file, monkeypatch, capsys, args):
    """The text report prints no representative, so it rebuilds no dense
    cochain; the JSON report of the same job does."""
    from superbrauer import cohomology

    def refuse(*args):
        raise RuntimeError("reconstruct called")

    monkeypatch.setattr(cohomology._Presentation, "reconstruct", refuse)
    code, out = _run([*args, "--group", zz_file], capsys)  # a group file is a fresh group with empty memos
    assert code == 0 and "invariants: [" in out
    with pytest.raises(RuntimeError, match="reconstruct called"):
        main([*args, "--group", zz_file, "--format", "json"])


@pytest.mark.parametrize("args, json_prints_table", [
    (["h2sharp", "--type", "B2", "--field", "real"], True),
    (["bm", "--type", "B2", "--field", "real"], True),
    (["weyl-table", "--types", "A1,B2"], False),
    (["lazy", "--type", "B2"], False),
], ids=["h2sharp", "bm", "weyl-table", "lazy"])
def test_text_reports_derive_no_cayley_table(monkeypatch, capsys, args, json_prints_table):
    """H^2_sharp, BM and Q(k, G) are generator columns; only a report that
    prints a Cayley table (JSON h2sharp and bm) derives one."""
    sharp_mod = importlib.import_module("superbrauer.sharp")  # the package attribute is the function

    def refuse(self):
        raise RuntimeError("Cayley table derived")

    monkeypatch.setattr(sharp_mod._GeneratedGroup, "table", property(refuse))
    code, out = _run(args, capsys)
    assert code == 0 and out
    if json_prints_table:
        with pytest.raises(RuntimeError, match="Cayley table derived"):
            main([*args, "--format", "json"])


# a cheap job of every subcommand
_SUBCOMMAND_JOBS = [
    ["h2", "--type", "A1"],
    ["h2sharp", "--type", "A1", "--field", "real"],
    ["bm", "--type", "A1", "--field", "real"],
    ["lazy", "--type", "A1"],
    ["invforms", "--type", "A1"],
    ["weyl-table", "--types", "A1"],
    ["verify", "--algebra", "E1", "--check", "hopf"],
]


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_subcommand_jobs_cover_every_subcommand():
    assert sorted(args[0] for args in _SUBCOMMAND_JOBS) == sorted(_subparsers(cli.build_parser()))


@pytest.mark.parametrize("args", _SUBCOMMAND_JOBS, ids=[args[0] for args in _SUBCOMMAND_JOBS])
def test_report_echoes_every_budget_flag(args, capsys):
    """A report echoes each --budget-* flag of its command, named without the
    prefix, and the seed, whichever flags the command has."""
    flags = {opt for action in _subparsers(cli.build_parser())[args[0]]._actions for opt in action.option_strings}
    budgets = {flag.removeprefix("--budget-").replace("-", "_") for flag in flags if flag.startswith("--budget-")}
    code, out = _run([*args, "--seed", "5", "--format", "json"], capsys)
    doc = json.loads(out)
    assert code == 0 and doc["command"] == args[0] and doc["seed"] == 5
    assert set(doc["budgets"]) == budgets and "cap" in budgets


@pytest.mark.parametrize("args, arrays", [
    (["h2sharp", "--type", "B2", "--field", "real"], ("classes", "cayley_table")),
    (["bm", "--type", "B2", "--field", "real"], ("cayley_table",)),
], ids=["h2sharp", "bm"])
def test_text_docs_build_no_table(args, arrays):
    """The text report of h2sharp and bm holds no class list and no Cayley
    table, as it prints neither; the JSON report holds them as int arrays,
    and the sparse entries of its representatives as k x 3 arrays."""
    parser = cli.build_parser()
    text_args, json_args = parser.parse_args(args), parser.parse_args([*args, "--format", "json"])
    assert not {"classes", "cayley_table"} & set(text_args.func(text_args)["result"])
    result = json_args.func(json_args)["result"]
    for key in arrays:
        assert isinstance(result[key], np.ndarray) and result[key].ndim == 2 and result[key].dtype.kind == "i"
    reps = [gen["representative"] for gen in result["generators"] if "representative" in gen]
    assert reps and all(r["entries"].dtype == np.int64 and r["entries"].shape[1] == 3 for r in reps)


def test_group_report_roundtrip(zz_file, capsys):
    """Serialized groups and cocycles re-parse to equal values."""
    from superbrauer import h2_real_closed, load_group_file, parse_group_spec

    from .oracles import cochain_equals, cochain_from_sparse, serialize_group

    g, u = load_group_file(zz_file)
    doc = serialize_group(g)
    doc2 = json.loads(json.dumps(doc, sort_keys=True))
    g2, _ = parse_group_spec(doc2)
    assert serialize_group(g2) == doc
    H = h2_real_closed(g)
    for rep in H.reps:
        sp = json.loads("".join(cli._json_chunks(rep.to_sparse())))
        assert cochain_equals(cochain_from_sparse(g, sp), rep)


def test_out_file(tmp_path, zz_file, capsys):
    out = tmp_path / "report.json"
    code, _ = _run(["h2", "--group", zz_file, "--format", "json", "--out", str(out)], capsys)
    assert code == 0
    assert json.loads(out.read_text())["schema"] == "superbrauer-report/1"
    code, printed = _run(["h2", "--group", zz_file, "--format", "json", "--out", ""], capsys)  # an empty --out is stdout
    assert code == 0 and printed.encode() == out.read_bytes()


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

# SHA-256 of the default (text) report of each GOLDEN_REPORTS job
TEXT_GOLDEN_REPORTS = {
    "verify --algebra E2 --check hopf":
        "eb5950edbf6f6a00fce733237ae84adeed0d0b63ff2bbea1ecf94dadd08a18cd",
    "verify --algebra E2 --check quasitriangular":
        "4d152b0f173bff2046c5dcee78fbb7e265128ae2b576f06d24b1ed372897429e",
    "verify --algebra E2 --check triangular":
        "3bc47659894b47f37ba83f0f207b097c307b7ee9f76b07a225f6e9dd1fd49676",
    "verify --algebra E2 --check omega-lazy":
        "0476327cc820e5a732b10d5ca1a97aa4fd3e6919c5813b7e17b4475c31853ac3",
    "verify --algebra E2 --check omega-cocycle":
        "66c858e19dd86b5312e9e2e4fb79b802f1444184846786c8ced8d77e1c816c4f",
    "verify --algebra E2 --check lambda-lazy":
        "c47dbcf760e958b3394f686523bcf1b8ad55602e6186c7c8113349aa2c4be3bf",
    "verify --algebra E2 --check lambda-cocycle":
        "4ef3402946b49d0b1a4a78521872045bae07013226f52a76a360a4df43be8922",
    "verify --type B2 --check lambda-lazy --budget-dim 16":
        "cfaad7360bb9f9b812b7a400ad21d0ff330d71f09baaae8beadd4ad6ba389acd",
    "invforms --type G2":
        "61ea50b4bf35095125f08dfb6a392dd06d2050378cc306fea9f3ae562e34a3e2",
    "bm --type B3 --field real":
        "34263b59c683e4e7c2eabc53bed6973c02a00dc0a939c24c0a9ee7bc4c4ba6f6",
    "h2sharp --type B2 --field real":
        "a6084145b09231bf51baa697af34c20d4129335cfd2f9d5f42fba711480f958c",
    "h2 --type A3":
        "c65189221bf8016d2e137c9029a50743773c7e927ff66383c05acbe83ca8ade4",
    "weyl-table --types A1,B2,G2":
        "3ca4255c960ed0ba3585285b28d36f1f826c35ebcfa91170e5d4498e4af75700",
    "h2sharp --type A3 --field closed":
        "b64040e8851f0171ea7c3c329223b2d37a3a365a17b0da3c2ccb347dfd04c3e2",
    "bm --type G2 --field real":
        "63a45cd7fcbc310b7e200a1bae0365efc5c3f3698fecd466a210bc86e179c3b7",
    "verify --type D4 --check lambda-lazy --seed 1":
        "e28b52e076ca049c0acc1d74ffe0ef7546a45809a86237d9c31ead38154ef755",
    "bm --type B3 --field closed":
        "db74d15b194569d6c47108e7e9411acc9ef20856e0cb5da4a56fb7d512ed7539",
    "bm --field real --group z2xz4.json":
        "2e765570dfc3d9b1e4b216def7aa3c4689d763f9495279f9c777e2f7b75e1079",
    "h2 --type D4":
        "10c17b250d8da44927bd084f59527052b1cad24887dc36cdde7bebbbc6afe9d0",
    "h2 --type B3 --coeff 6":
        "4efac69c74cdf75bb4cfa3cd0209d169ccc8d7481c0af05f0270b11f3a04509c",
    "h2 --group z2xz4.json --coeff 12":
        "ebe5bed7cbd46de715b477cc7d2e6337519957797991684275548882308a3bed",
    "h2 --group z2xz4.json --coeff 33554432":
        "b70f27e7067673216d8e67054c495b9b3e47fd89cf82689fb867f65d65b10192",
    "verify --type B3 --check hopf":
        "0061cbbdc304c5857b3691be9c387af6365fb78bfcc8e0233b51bfa2abdd60fd",
    "verify --algebra E6 --check hopf":
        "1dc59ed8f80cf2aa556915442606a95275b3d0f35ef20dd1abd0f6851aeb528a",
    "verify --algebra E6 --check triangular --A identity":
        "d88052ad7886af30aed426a13240a4dead5648fc95682ceaa57ff5a7030b289e",
}

# Z2 x Z4 on the points {0, 1} and {2, 3, 4, 5}, u = (0, 2)
Z2XZ4_SPEC = {"kind": "permutations", "generators": [[1, 0, 2, 3, 4, 5], [0, 1, 3, 4, 5, 2]], "u": "g1 g1"}


@pytest.mark.parametrize("args, format_args, digest, to_file", [
    pytest.param(args, format_args, digest, to_file, id=" ".join(args) + name + (" --out FILE" if to_file else ""))
    for args, json_digest in GOLDEN_REPORTS
    for name, format_args, digest in (("", ["--format", "json"], json_digest),
                                      (" text", [], TEXT_GOLDEN_REPORTS[" ".join(args)]))
    for to_file in (False, True)
])
def test_golden_reports(args, format_args, digest, to_file, capsys, tmp_path, monkeypatch):
    """Each golden report, as JSON and as the default text, on stdout and through --out FILE."""
    (tmp_path / "z2xz4.json").write_text(json.dumps(Z2XZ4_SPEC))
    monkeypatch.chdir(tmp_path)
    out_args = ["--out", "report.json"] if to_file else []
    code, out = _run(args + [*format_args, *out_args], capsys)
    assert code == 0 and (out == "") == to_file
    report = (tmp_path / "report.json").read_bytes() if to_file else out.encode()
    assert hashlib.sha256(report).hexdigest() == digest


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


def _json_text(doc) -> str:
    fh = io.StringIO()
    cli._write_report(doc, "json", fh)
    return fh.getvalue()


_ints = st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70))  # past 2^63 both ways
_keys = st.text(st.sampled_from(',[]{}"\\: \n\tab\u00e9\u4e2d\U0001f600'), max_size=6)
_scalars = st.one_of(_ints, st.booleans(), st.none(), _keys, st.just(1.5))
_int_lists = st.lists(_ints, max_size=7)
_int_rows = st.lists(st.one_of(_int_lists, _int_lists.map(tuple)), max_size=5)  # empty rows included
_rows_with_bools = st.lists(st.lists(st.one_of(_ints, st.booleans()), max_size=4), max_size=4)
# 2-D int arrays as the reports hold them: Cayley tables, class coordinates
# (one empty row when H^2 is trivial) and sparse entries (none for a zero cochain)
_int_arrays = st.one_of(
    st.sampled_from([(0, 3), (1, 0)]), st.tuples(st.integers(1, 5), st.just(1)),
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=5),
).flatmap(lambda shape: hnp.arrays(st.sampled_from([np.int32, np.int64]), shape))
_json_docs = st.recursive(
    st.one_of(_scalars, _int_lists, _int_lists.map(tuple), _int_rows, _rows_with_bools, _int_arrays),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_keys, inner, max_size=4)),
    max_leaves=12,
)


def _tolists(x):
    """x with every numpy array replaced by its tolist()."""
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, dict):
        return {k: _tolists(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_tolists(v) for v in x]
    return x


@settings(max_examples=400, deadline=None)
@given(_json_docs, st.sampled_from([1, 2, 3, 1024]))
def test_report_writer_equals_json_dumps(doc, slice_ints):
    """The report is json.dumps(doc, sort_keys=True, indent=2) and a newline,
    with each 2-D int array written as its tolist(), whatever the slice size
    of the arrays."""
    with mock.patch.object(cli, "_SLICE_INTS", slice_ints):
        assert _json_text(doc) == json.dumps(_tolists(doc), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("doc, message", [
    ([np.int64(1)], "not JSON serializable"),
    ({"t": [[1, 2], [3, np.int32(4)]]}, "not JSON serializable"),
    ({"a": {1: 2}}, "report keys must be str, not int"),
    ({("a",): 1}, "report keys must be str, not tuple"),
], ids=["numpy-int", "numpy-int-in-a-row", "int-key", "tuple-key"])
def test_report_writer_raises_type_error(doc, message):
    """A numpy int raises TypeError as json.dumps does; a key that is not a
    str raises TypeError where json.dumps would coerce an int key."""
    with pytest.raises(TypeError, match=message):
        _json_text(doc)


def test_report_writer_memory_is_bounded(tmp_path):
    """Writing 20 000 sparse [i, j, value] entries and a 512 x 512 table, the
    arrays that the CLI hands over, peaks under 1 MB of Python memory: they
    are encoded a slice at a time, never as one string or list (the report
    is 3.8 MB; encoded whole, the peak is 8.5 MB)."""
    i, j = np.arange(20_000), np.arange(512, dtype=np.int32)
    doc = {"entries": np.column_stack((i, i % 7, -i)), "table": (j[:, None] + j) % 512}
    path = tmp_path / "report.json"
    with path.open("w") as fh:
        tracemalloc.start()
        try:
            cli._write_report(doc, "json", fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1_000_000
    assert json.loads(path.read_text()) == _tolists(doc)
