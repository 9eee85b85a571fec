import argparse
import contextlib
import io
import json
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from cosovereign import (build_freeprod, build_hef, build_hplusq, build_hq,
                         build_slq2, confluent, format_matrix, inverse,
                         matrix_fq, parse_presentation, q, ExactMatrix)
from cosovereign.cli import COMMANDS, _read, build_parser, main
from _helpers import (LONG_LITERAL, confluence_counts, generic_integer_matrix,
                      is_confluent, needs_digit_limit, parse_table_payload,
                      prefix_dim, random_hef_pair, random_unimodular,
                      reference_check_payload, reference_check_text,
                      reference_parser, reference_table_lines,
                      reference_table_payload)
import random


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fuse(capsys):
    code, out, _ = run(capsys, "fuse", "a", "b")
    assert code == 0 and out.strip() == "ab + e"
    code, out, _ = run(capsys, "fuse", "e", "ab")
    assert code == 0 and out.strip() == "ab"
    code, out, _ = run(capsys, "fuse", "a", "b", "-n", "2")
    assert code == 0
    assert out.splitlines()[1] == "dims(n=2): 3 + 1 = 4 = 2*2"


def test_fuse_parse_error(capsys):
    code, _, err = run(capsys, "fuse", "a", "xy")
    assert code == 2 and "position" in err


def test_fuse_rejects_small_n(capsys):
    code, _, err = run(capsys, "fuse", "a", "b", "-n", "1")
    assert code == 2


def test_dual_and_dim(capsys):
    assert run(capsys, "dual", "aab")[1].strip() == "abb"
    assert run(capsys, "dual", "e")[1].strip() == "e"
    assert run(capsys, "dim", "ab", "2")[1].strip() == "3"


def test_dim_of_long_label(capsys):
    rng = random.Random(3000)
    for x in ("ab" * 1500, "".join(rng.choice("ab") for _ in range(3000))):
        code, out, err = run(capsys, "dim", x, "3")
        assert code == 0 and err == ""
        assert int(out) == prefix_dim(x, 3)


def test_psi_of_long_label(capsys):
    rng = random.Random(2000)
    x = "".join(rng.choice("ab") for _ in range(2000))
    code, out, err = run(capsys, "psi", x)
    assert code == 0 and err == ""
    assert out.strip().endswith(f"(dim {prefix_dim(x, 2)})")


def test_psi(capsys):
    code, out, _ = run(capsys, "psi", "ab")
    assert code == 0 and out.strip() == "Z^1 V_2 Z^-1 (dim 3)"
    assert run(capsys, "psi", "e")[1].strip() == "1 (dim 1)"
    assert run(capsys, "psi", "ba")[1].strip() == "V_2 (dim 3)"


def test_table_text_and_roundtrip(capsys):
    code, out, _ = run(capsys, "table", "--max-len", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    assert "a b -> ab + e" in lines
    code, blob, _ = run(capsys, "table", "--max-len", "2", "--format", "json")
    entries = parse_table_payload(blob)
    assert len(entries) == 49
    from cosovereign import fuse
    for x, y, product in entries:
        assert product == fuse(x, y)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("max_len", range(5))
def test_table_writers_match_reference(capsys, max_len, seed):
    """The one-pass writers print the bytes of `json.dumps(payload,
    indent=2)` and of the `FusionElement.render` lines."""
    argv = ["table", "--max-len", str(max_len), "--seed", str(seed)]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == json.dumps(reference_table_payload(max_len, seed),
                             indent=2) + "\n"
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == "\n".join(reference_table_lines(max_len)) + "\n"


def test_table_deterministic(capsys):
    first = run(capsys, "table", "--max-len", "2", "--format", "json")
    second = run(capsys, "table", "--max-len", "2", "--format", "json")
    assert first == second


def test_check_deterministic(capsys):
    first = run(capsys, "check", "hplus", "--format", "json", "--seed", "7")
    second = run(capsys, "check", "hplus", "--format", "json", "--seed", "7")
    assert first == second
    assert '"seed": 7' in first[1]


def test_table_bound(capsys):
    code, _, err = run(capsys, "table", "--max-len", "9")
    assert code == 2 and "bound" in err


def test_check_hq(capsys):
    code, out, _ = run(capsys, "check", "hq", "--q", "sym")
    assert code == 0
    assert "confluent: True" in out
    assert "18 ambiguities (2 inclusion, 16 overlap)" in out
    assert "seed: 0" in out


def test_check_hplus_json(capsys):
    code, blob, _ = run(capsys, "check", "hplus", "--format", "json")
    assert code == 0
    data = json.loads(blob)
    assert data["confluent"] is True
    assert data["counts"] == {"inclusion": 2, "overlap": 42}


def test_check_hef_files(tmp_path, capsys):
    epath = tmp_path / "e.mat"
    fpath = tmp_path / "f.mat"
    epath.write_text("2 2\n1 0\n0 2\n")
    fpath.write_text("2 2\n1 0\n1 2\n")
    code, out, _ = run(capsys, "check", "hef", "--E", str(epath), "--F", str(fpath))
    assert code == 0 and "confluent: True" in out

    # mismatched traces: rejected without --unchecked, negative with it
    fpath.write_text("2 2\n3 0\n1 2\n")
    code, _, err = run(capsys, "check", "hef", "--E", str(epath), "--F", str(fpath))
    assert code == 2 and "trace conditions" in err
    code, out, _ = run(capsys, "check", "hef", "--E", str(epath), "--F", str(fpath),
                       "--unchecked")
    assert code == 1 and "confluent: False" in out

    # a zero on the diagonal of F is refused before the trace conditions
    fpath.write_text("2 2\n1 0\n1 0\n")
    assert run(capsys, "check", "hef", "--E", str(epath), "--F", str(fpath)) \
        == (2, "", "error: F is singular (zero diagonal entry)\n")


def test_check_file_preset(tmp_path, capsys):
    path = tmp_path / "pres.txt"
    path.write_text("generators:\na\nb\nrules:\na.b -> 1\nb.a -> 1\n")
    code, out, _ = run(capsys, "check", "file", "--file", str(path))
    assert code == 0 and "confluent: True" in out


def check_matches_reference(capsys, argv, system, label, seed=0):
    """`cosov check` on `argv` prints, as text and as JSON, what
    `ConfluenceReport` wrote for `system`, and exits 0 or 1 by its verdict;
    returns that verdict."""
    alphabet, checks = confluent(system)
    ok = is_confluent(checks)
    text = (f"presentation: {label}\nseed: {seed}\n"
            + reference_check_text(alphabet, checks) + "\n")
    blob = json.dumps({"presentation": label, "seed": seed, "confluent": ok,
                       "counts": confluence_counts(checks),
                       "ambiguities": reference_check_payload(alphabet,
                                                              checks)},
                      indent=2) + "\n"
    argv = ["check", *argv, "--seed", str(seed)]
    assert run(capsys, *argv) == (0 if ok else 1, text, "")
    assert run(capsys, *argv, "--format", "json") == (0 if ok else 1, blob, "")
    return ok


@pytest.mark.parametrize("qtext, qv", [("sym", q), ("3/2", Fraction(3, 2))])
@pytest.mark.parametrize("preset, builder", [
    ("hq", build_hq), ("hplus", build_hplusq), ("slq2", build_slq2),
    ("freeprod", build_freeprod)])
def test_check_writers_match_reference_on_presets(capsys, preset, builder,
                                                  qtext, qv):
    assert check_matches_reference(capsys, [preset, "--q", qtext],
                                   builder(qv), f"{preset} (q = {qtext})",
                                   seed=7)


def test_check_writers_match_reference_on_a_non_confluent_file(capsys,
                                                               tmp_path):
    path = tmp_path / "qinv.pres"
    text = "generators:\na\nb\nrules:\nb.a -> q^-1*a\nb.b -> a\n"
    path.write_text(text)
    assert not check_matches_reference(capsys, ["file", "--file", str(path)],
                                       parse_presentation(text),
                                       f"file ({path})")


def test_check_writers_match_reference_on_random_hef_pairs(capsys, tmp_path):
    rng = random.Random(1978)
    epath, fpath = tmp_path / "e.mat", tmp_path / "f.mat"
    label = f"hef (E = {epath}, F = {fpath})"
    argv = ["hef", "--E", str(epath), "--F", str(fpath)]
    verdicts = set()
    for _ in range(10):
        e, f, unchecked = random_hef_pair(rng, 2, 3)
        epath.write_text(format_matrix(e))
        fpath.write_text(format_matrix(f))
        system = build_hef(e, f, unchecked=True)
        ok = check_matches_reference(capsys, argv + ["--unchecked"], system,
                                     label)
        if not unchecked:
            assert check_matches_reference(capsys, argv, system, label) == ok
        verdicts.add((unchecked, ok))
    # checked and unchecked pairs, confluent and not
    assert {(False, True), (True, False)} <= verdicts


def test_file_rule_order_error_names_line_and_generators(tmp_path, capsys):
    path = tmp_path / "pres.txt"
    path.write_text("generators:\na\nb\nrules:\nb.a -> a.b\na.b -> b.a\n")
    code, out, err = run(capsys, "check", "file", "--file", str(path))
    assert code == 2 and out == ""
    assert "rhs monomial b.a is not smaller than lhs a.b" in err
    assert "(line 6, column 1)" in err


@pytest.mark.parametrize("argv, payload", [
    (["fuse", "a", "b", "-n", "2"],
     {"x": "a", "y": "b", "product": [["ab", 1], ["e", 1]],
      "dims": {"n": 2, "summands": [3, 1], "total": 4}}),
    (["psi", "ab"],
     {"word": "ab", "image": "Z^1 V_2 Z^-1",
      "factors": [{"kind": "Z", "index": 1}, {"kind": "V", "index": 2},
                  {"kind": "Z", "index": -1}], "dim": 3}),
    (["basis", "slq2", "--max-len", "1"],
     {"presentation": "slq2 (q = sym)", "max_len": 1, "count": 5,
      "monomials": ["1", "a", "b", "c", "d"]}),
    (["free-check", "hq", "--letters", "a,b", "--max-len", "4"],
     {"presentation": "hq (q = sym)", "letters": ["a", "b"], "max_len": 4,
      "free": True, "seed": 0})], ids=["fuse", "psi", "basis", "free-check"])
def test_json_writers(capsys, argv, payload):
    code, blob, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "") and json.loads(blob) == payload


def test_basis_and_free_check(capsys, tmp_path):
    code, out, _ = run(capsys, "basis", "slq2", "--max-len", "2")
    assert code == 0
    assert len(out.strip().splitlines()) == 14
    code, out, _ = run(capsys, "free-check", "hq", "--letters", "a,b,c,d",
                       "--max-len", "3")
    assert code == 0 and "True" in out
    code, out, _ = run(capsys, "free-check", "hq", "--letters", "a,as",
                       "--max-len", "2")
    assert code == 1 and "False" in out


def test_free_check_needs_no_enumeration(capsys):
    # 4^12 words over {a, b, c, d}: the answer comes from the rule left sides
    code, out, _ = run(capsys, "free-check", "hq", "--letters", "a,b,c,d",
                       "--max-len", "12")
    assert code == 0 and out.strip().endswith(": True")


def test_free_check_unknown_letter(capsys):
    code, out, err = run(capsys, "free-check", "hq", "--letters", "a,zz",
                         "--max-len", "2")
    assert code == 2 and out == ""
    assert "error: unknown generator 'zz'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["check", "hq", "--q", "0"],
                                  ["verify-pi", "--q", "0"],
                                  ["check", "slq2", "--q", "q-q"]])
def test_zero_q_is_a_usage_error(capsys, argv):
    assert run(capsys, *argv) == (2, "", "error: q must be nonzero\n")


def test_q_degree_is_a_usage_error(capsys):
    # each literal is in bounds; their product is not
    assert run(capsys, "check", "hq", "--q", "q^10000*q^10000") == (
        2, "", "error: q degree beyond 10000 (position 7)\n")


@pytest.mark.parametrize("argv, message", [
    (["check", "hef", "--F", "f.mat"], "hef needs --E and --F matrix files"),
    (["check", "file"], "preset 'file' needs --file")])
def test_missing_preset_input_is_a_usage_error(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_non_integer_max_len_is_a_usage_error(capsys):
    code, out, err = run(capsys, "basis", "hq", "--max-len", "x")
    assert code == 2 and out == ""
    assert err.startswith("usage: cosov basis ")
    assert err.endswith("cosov basis: error: argument --max-len: "
                        "expected an integer >= 0, got 'x'\n")


def test_negative_max_len_is_a_usage_error(capsys):
    for argv in (["table"], ["basis", "hq"],
                 ["free-check", "hq", "--letters", "a"]):
        code, out, err = run(capsys, *argv, "--max-len", "-1")
        assert code == 2 and out == ""
        assert "expected an integer >= 0, got '-1'" in err
        code, _, _ = run(capsys, *argv, "--max-len", "0")
        assert code == 0


def test_iso(tmp_path, capsys):
    rng = random.Random(41)
    # det_param 2 keeps E away from its own transpose inverse, so the two
    # isomorphism conditions are distinguishable
    e = generic_integer_matrix(rng, 3, 5, det_param=2)
    p = random_unimodular(rng, 3)
    f = p * e * inverse(p)
    epath, fpath = tmp_path / "e.mat", tmp_path / "f.mat"
    epath.write_text(format_matrix(e))
    fpath.write_text(format_matrix(f))
    code, out, _ = run(capsys, "iso", "--E", str(epath), "--F", str(fpath))
    assert code == 0 and "condition i" in out

    fpath.write_text(format_matrix(inverse(e).transpose()))
    code, out, _ = run(capsys, "iso", "--E", str(epath), "--F", str(fpath))
    assert code == 0 and "condition ii" in out

    g = generic_integer_matrix(rng, 2, 7)
    fpath.write_text(format_matrix(g))
    code, out, _ = run(capsys, "iso", "--E", str(epath), "--F", str(fpath))
    assert code == 1 and "not isomorphic" in out

    # non-generic input rejected with the hypothesis named
    fpath.write_text("2 2\n1 0\n0 2\n")
    code, _, err = run(capsys, "iso", "--E", str(epath), "--F", str(fpath))
    assert code == 2 and "generic" in err


def test_iso_reads_constant_q_expressions_as_rational(tmp_path, capsys):
    # q/(2*q) and 2*q/q do not depend on q, so E is a rational matrix
    epath, fpath = tmp_path / "e.mat", tmp_path / "f.mat"
    epath.write_text("2 2\nq/(2*q) 0\n0 2*q/q\n")
    fpath.write_text("2 2\n-2 0\n0 -1/2\n")
    code, out, err = run(capsys, "iso", "--E", str(epath), "--F", str(fpath))
    assert (code, out, err) == (0, "isomorphic via condition i: F ~ -E\n", "")


@needs_digit_limit
def test_overlong_literal_is_a_usage_error(tmp_path, capsys):
    epath, fpath = tmp_path / "e.mat", tmp_path / "f.mat"
    epath.write_text("2 2\n1/2 0\n0 2\n")
    fpath.write_text(f"2 2\n1 0\n0 {LONG_LITERAL}/3\n")
    code, out, err = run(capsys, "iso", "--E", str(epath), "--F", str(fpath))
    assert code == 2 and out == ""
    assert err.endswith("integer literal has too many digits "
                        "(line 3, column 3)\n")


def test_verify_pi(capsys):
    code, out, _ = run(capsys, "verify-pi", "--q", "sym")
    assert code == 0 and "morphism well-defined: True" in out
    code, blob, _ = run(capsys, "verify-pi", "--q", "3/2", "--format", "json")
    assert code == 0
    data = json.loads(blob)
    assert data["ok"] is True and len(data["checks"]) == 16


# General-denominator scalars: the benchmark's goldens only use c*q^k
# entries, so these pin the quotient path of the scalar layer.

GENERAL_DENOMINATOR_PRESENTATION = (
    "generators:\na\nb\nrules:\n"
    "b.a -> (q^2+1)/(q^2+q)*a.b + q^-2*a\n"
    "a.a -> (q-1)/(2*q^3+q)*b\n")


def test_general_denominator_file_golden(tmp_path, capsys):
    path = tmp_path / "gd.pres"
    path.write_text(GENERAL_DENOMINATOR_PRESENTATION)
    code, out, _ = run(capsys, "check", "file", "--file", str(path))
    assert code == 1
    assert out == (
        f"presentation: file ({path})\n"
        "seed: 0\n"
        "overlap   rules ( 1, 1) witness a.a.a                          "
        "FAIL residual -(1/2*q^2-q+1/2)/(q^5+q^4+1/2*q^3+1/2*q^2)*a.b"
        " + (1/2*q-1/2)/(q^5+1/2*q^3)*a\n"
        "overlap   rules ( 0, 1) witness b.a.a                          "
        "FAIL residual -(q^4-3/2*q^3+1/2*q^2-1/2*q+1/2)"
        "/(q^7+2*q^6+3/2*q^5+q^4+1/2*q^3)*b.b"
        " + (q^3-1/2*q^2-1/2)/(q^7+q^6+1/2*q^5+1/2*q^4)*b\n"
        "2 ambiguities (0 inclusion, 2 overlap); confluent: False\n")


@pytest.mark.parametrize("rules, residuals", [
    (["b.a -> q^-1*a.b + (q+1)*a", "b.b -> (q^2+1)/(q-1)*a"],
     ["-(2+2*q^-1)*a.b + (q+1+q^-1+q^-2)*a.a - (q^2+2*q+1)*a",
      "(q+q^-1)*a.b - (q^3+q^2+q+1)/(q-1)*a"]),
    (["b.a -> q^-1*a", "b.b -> a"], ["a.a - (q^-2)*a", "a.b - (q^-1)*a"])])
def test_laurent_coefficients_are_parenthesized(tmp_path, capsys, rules,
                                                residuals):
    # a q^-k or a Laurent sum prints in parentheses; a quotient as (..)/(..)
    path = tmp_path / "laurent.pres"
    path.write_text("generators:\na\nb\nrules:\n" + "\n".join(rules) + "\n")
    code, out, _ = run(capsys, "check", "file", "--file", str(path))
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 5
    for line, residual in zip(lines[2:4], residuals):
        assert line.endswith(f"FAIL residual {residual}")


VERIFY_PI_GENERAL_RELATIONS = [
    "b.bs -> -a.as + 1",
    "b.ds -> -a.cs",
    "d.bs -> -c.as",
    "d.ds -> -c.cs + 1",
    "as.a -> -(q^4+2*q^2+1)/(q^2-4*q+4)*bs.b + 1",
    "as.c -> -(q^4+2*q^2+1)/(q^2-4*q+4)*bs.d",
    "cs.a -> -(q^4+2*q^2+1)/(q^2-4*q+4)*ds.b",
    "cs.c -> -(q^4+2*q^2+1)/(q^2-4*q+4)*ds.d + (q^4+2*q^2+1)/(q^2-4*q+4)",
    "as.a -> -cs.c + 1",
    "as.b -> -cs.d",
    "bs.a -> -ds.c",
    "bs.b -> -ds.d + 1",
    "c.cs -> -(q^4+2*q^2+1)/(q^2-4*q+4)*a.as + (q^4+2*q^2+1)/(q^2-4*q+4)",
    "c.ds -> -(q^4+2*q^2+1)/(q^2-4*q+4)*a.bs",
    "d.cs -> -(q^4+2*q^2+1)/(q^2-4*q+4)*b.as",
    "d.ds -> -(q^4+2*q^2+1)/(q^2-4*q+4)*b.bs + 1",
]


def test_general_denominator_verify_pi_golden(capsys):
    code, out, _ = run(capsys, "verify-pi", "--q", "(q^2+1)/(q-2)",
                       "--format", "json")
    assert code == 0
    checks = [{"relation": r, "ok": True, "residual": "0"}
              for r in VERIFY_PI_GENERAL_RELATIONS]
    assert out == json.dumps({"q": "(q^2+1)/(q-2)", "seed": 0, "ok": True,
                              "checks": checks}, indent=2) + "\n"


CHECK_HQ_GENERAL_LINES = [
    "presentation: hq (q = (q^2+1)/(q+1))",
    "seed: 0",
    "inclusion rules ( 4, 8) witness as.a                           ok",
    "inclusion rules ( 3,15) witness d.ds                           ok",
    "overlap   rules ( 7,13) witness cs.c.ds                        ok",
    "overlap   rules ( 7,12) witness cs.c.cs                        ok",
    "overlap   rules (11, 1) witness bs.b.ds                        ok",
    "overlap   rules (11, 0) witness bs.b.bs                        ok",
    "overlap   rules ( 9, 1) witness as.b.ds                        ok",
    "overlap   rules ( 9, 0) witness as.b.bs                        ok",
    "overlap   rules ( 5,13) witness as.c.ds                        ok",
    "overlap   rules ( 5,12) witness as.c.cs                        ok",
    "overlap   rules ( 0,10) witness b.bs.a                         ok",
    "overlap   rules ( 0,11) witness b.bs.b                         ok",
    "overlap   rules (12, 6) witness c.cs.a                         ok",
    "overlap   rules (12, 7) witness c.cs.c                         ok",
    "overlap   rules (14, 6) witness d.cs.a                         ok",
    "overlap   rules (14, 7) witness d.cs.c                         ok",
    "overlap   rules ( 2,10) witness d.bs.a                         ok",
    "overlap   rules ( 2,11) witness d.bs.b                         ok",
    "18 ambiguities (2 inclusion, 16 overlap); confluent: True",
]


def test_general_denominator_check_hq_golden(capsys):
    code, out, _ = run(capsys, "check", "hq", "--q", "(q^2+1)/(q+1)")
    assert code == 0
    assert out == "".join(line + "\n" for line in CHECK_HQ_GENERAL_LINES)


def test_aaut_relations(tmp_path, capsys):
    path = tmp_path / "fq.mat"
    path.write_text("2 2\nq^-1 0\n0 q\n")
    code, blob, _ = run(capsys, "aaut-relations", "--F", str(path),
                        "--format", "json")
    assert code == 0
    data = json.loads(blob)
    assert data["counts"] == {"multiplicative": 64, "measure": 64,
                              "counit": 4, "trace": 4}
    assert any("X11^11" in rel for rel in data["families"]["counit"])


def test_aaut_relations_text(tmp_path, capsys):
    path = tmp_path / "f.mat"
    path.write_text("2 2\n2 0\n0 1/2\n")
    code, out, err = run(capsys, "aaut-relations", "--F", str(path))
    assert (code, err) == (0, "")
    assert out.startswith("generators: 16\n[multiplicative] (64 relations)\n")
    # the families of the JSON writer, in its order, two spaces in
    data = json.loads(run(capsys, "aaut-relations", "--F", str(path),
                          "--format", "json")[1])
    lines = [f"generators: {len(data['generators'])}"]
    for name, relations in data["families"].items():
        lines.append(f"[{name}] ({len(relations)} relations)")
        lines.extend("  " + r for r in relations)
    assert out == "\n".join(lines) + "\n"
    assert len(lines) == 1 + 4 + 64 + 64 + 4 + 4


@pytest.mark.parametrize("text, message", [
    ("2 2\n1 1\n1 1\n", "singular"),
    ("2 3\n1 0 0\n0 1 0\n", "F must be square"),
    ("6 6\n" + "".join(" ".join("1" if i == j else "0" for j in range(6))
                       + "\n" for i in range(6)), "n > 5")],
    ids=["singular", "non-square", "over-bound"])
def test_aaut_relations_refuses_bad_f(tmp_path, capsys, text, message):
    path = tmp_path / "f.mat"
    path.write_text(text)
    code, out, err = run(capsys, "aaut-relations", "--F", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "iso", "--E", "/nonexistent", "--F", "/nonexistent")
    assert code == 2


def test_cli_import_is_light():
    """`import cosovereign.cli` loads none of dataclasses, inspect, typing."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); "
            "import cosovereign.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect', 'typing') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


#: Valid command lines, at least two per command: defaults, --format json,
#: --seed, -n and the preset flags.
VALID_ARGVS = (
    ["fuse", "ab", "ba"], ["fuse", "aab", "e", "-n", "3", "--format", "json"],
    ["dual", "ab"], ["dual", "e"],
    ["dim", "abab", "3"], ["dim", "e", "-2"],
    ["psi", "abba"], ["psi", "ab", "--format", "json"],
    ["table"], ["table", "--max-len", "4", "--format", "json", "--seed", "7"],
    ["check", "hq"],
    ["check", "hef", "--E", "e.mat", "--F", "f.mat", "--unchecked",
     "--seed", "5", "--format", "json"],
    ["check", "file", "--file", "p.pres"],
    ["basis", "slq2", "--q", "3/2", "--max-len", "3"],
    ["basis", "hq", "--max-len", "0", "--format", "json"],
    ["free-check", "freeprod", "--letters", "a,b", "--max-len", "2"],
    ["free-check", "hplus", "--q", "-2", "--letters", "x", "--max-len", "4",
     "--seed", "3", "--format", "json"],
    ["iso", "--E", "e.mat", "--F", "f.mat"], ["iso", "--F", "f", "--E", "e"],
    ["verify-pi"], ["verify-pi", "--q", "3/2", "--format", "json", "--seed", "2"],
    ["aaut-relations", "--F", "f.mat"],
    ["aaut-relations", "--F", "f.mat", "--format", "json"],
)


def test_lazy_parser_matches_the_eager_one(monkeypatch):
    """`parse_args` gives the namespace of the parser that adds every
    subparser, `func` included, and builds no parser for a line its reader
    takes: every valid line but a negative positional."""
    assert {argv[0] for argv in VALID_ARGVS} == set(COMMANDS)
    built, on_argparse = [], []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    reused = build_parser()
    for argv in VALID_ARGVS:
        expected = vars(reference_parser().parse_args(argv))
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            counting_init)
        built.clear()
        got = vars(build_parser().parse_args(argv))
        monkeypatch.undo()
        assert got == expected, argv
        assert got["func"] is COMMANDS[argv[0]][0]
        if built:
            on_argparse.append(argv)
        assert vars(reused.parse_args(argv)) == got
    assert on_argparse == [["dim", "e", "-2"]]


#: Values that a spec's type or choices may refuse, or that argparse reads
#: apart: negative numbers, a q it takes for an option, the separator.
_ODD_VALUES = ("-2", "-1/2", "", "--", "x", "json")
#: Tokens beside an option's: help, the separator, bogus and short forms.
_ODD_TOKENS = ("-h", "--help", "--", "-2", "-1/2", "", "--bogus", "-n3")


@st.composite
def _command_lines(draw):
    """A command line drawn from one command's specs: each option absent,
    given once or repeated, exact or abbreviated, as `--opt=v`, `--opt v` or
    with no value; each value one the spec accepts or, one time in five, an
    odd one; too few, enough or too many positionals; all shuffled."""
    name = draw(st.sampled_from(list(COMMANDS)))

    def value(options):
        if draw(st.integers(0, 4)):
            return draw(st.sampled_from(options.get("choices") or ("3",)))
        return draw(st.sampled_from(_ODD_VALUES))
    groups = []
    for flags, options in COMMANDS[name][2]:
        if not flags[0].startswith("-"):
            groups.append([value(options)])
            continue
        for _ in range(draw(st.sampled_from((0, 1, 1, 1, 2)))):
            flag = flags[0]
            if flag.startswith("--") and not draw(st.integers(0, 5)):
                flag = flag[:draw(st.integers(3, len(flag)))]
            form = draw(st.sampled_from(("=", "=", " ", " ", "bare")))
            if form == "bare" or (options.get("action") == "store_true"
                                  and form != "="):
                groups.append([flag])
            elif form == "=":
                groups.append([f"{flag}={value(options)}"])
            else:
                groups.append([flag, value(options)])
    if draw(st.booleans()):
        groups.append([draw(st.sampled_from(("ab", "3")))])
    if draw(st.booleans()) and len(groups) > 1:
        groups.pop(draw(st.integers(0, len(groups) - 1)))
    groups += [[t] for t in draw(st.lists(st.sampled_from(_ODD_TOKENS),
                                          max_size=2))]
    return [name, *(t for g in draw(st.permutations(groups)) for t in g)]


@seed(2002)
@settings(max_examples=400, deadline=None, database=None)
@given(_command_lines())
def test_reader_gives_argparse_namespace_or_none(argv):
    """The reader gives None, or exactly the namespace of the parser that
    adds every subparser; never a namespace where that parser exits."""
    got = _read(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            expected = vars(reference_parser().parse_args(argv))
    except SystemExit:
        expected = None
    assert got is None or vars(got) == expected, argv


@seed(2003)
@settings(max_examples=400, deadline=None, database=None)
@given(_command_lines())
def test_parse_args_stores_no_list(argv):
    """Every drawn line is a usage exit (0 or 2) or a namespace holding no
    list: a `--` value never reaches a handler unchecked."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        assert exc.code in (0, 2), argv
    else:
        assert not any(isinstance(v, list) for v in vars(args).values()), argv


#: Command lines that end in a usage error or in help, on either parser.
USAGE_ARGVS = (
    [], ["nope"], ["-h"], ["--help"], ["-h", "fuse"], ["fuse", "-h"],
    ["fuse", "--he"], ["fuse", "ab", "ba", "--bogus"],
    ["fuse", "ab", "ba", "--", "x"], ["fuse", "ab", "ba", "extra"],
    ["fuse", "--", "ab", "ba", "x"], ["fuse", "ab"], ["fuse"],
    ["fuse", "--format", "xml", "ab", "ba"], ["fuse", "ab", "ba", "-n"],
    ["dim", "ab", "x"], ["dual"], ["psi", "ab", "--format"],
    ["check", "nope"], ["check"], ["check", "hef", "--E"],
    ["check", "hq", "--seed", "x"], ["basis", "hq"],
    ["basis", "hq", "--max-len", "2", "--bogus", "1"],
    ["free-check", "hq", "--max-len", "2"], ["table", "--max-len", "-1"],
    ["table", "--max-len"], ["table", "extra"], ["iso", "--E", "e"],
    ["verify-pi", "--q"], ["aaut-relations"], ["--bogus", "fuse", "a", "b"],
)


@pytest.mark.parametrize("argv", USAGE_ARGVS, ids=" ".join)
def test_usage_errors_match_the_eager_parser(capsys, argv):
    """`main` exits with the code, stdout and stderr that the parser holding
    every subparser gives, through the same `SystemExit` handling."""
    got = run(capsys, *argv)
    with pytest.raises(SystemExit) as exc:
        reference_parser().parse_args(argv)
    captured = capsys.readouterr()
    code = exc.value.code if exc.value.code is not None else 2
    assert got == (code, captured.out, captured.err)
    assert code in (0, 2)


def test_python_m_runs_the_cli():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-m", "cosovereign", "fuse", "a",
                           "b"], capture_output=True, text=True,
                          env={"PYTHONPATH": str(src)})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ab + e\n", "")


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    expected = run(capsys, "fuse", "ab", "ba")
    monkeypatch.setattr(sys, "argv", ["cosov", "fuse", "ab", "ba"])
    code = main()
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == expected
