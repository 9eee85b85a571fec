import json

import pytest

from cosovereign import format_matrix, inverse, matrix_fq, ExactMatrix
from cosovereign.cli import main, parse_table_payload
from _helpers import generic_integer_matrix, random_unimodular
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


def _prefix_dim(x, n):
    """dim by peeling off the last letter instead of the first:
    x.a = x (*) a - x[:-1] when x ends in b, and symmetrically."""
    d1, d2 = 1, 0
    for i in range(len(x)):
        d = n * d1
        if i and x[i - 1] != x[i]:
            d -= d2
        d1, d2 = d, d1
    return d1


def test_dim_of_long_label(capsys):
    rng = random.Random(3000)
    for x in ("ab" * 1500, "".join(rng.choice("ab") for _ in range(3000))):
        code, out, err = run(capsys, "dim", x, "3")
        assert code == 0 and err == ""
        assert int(out) == _prefix_dim(x, 3)


def test_psi_of_long_label(capsys):
    rng = random.Random(2000)
    x = "".join(rng.choice("ab") for _ in range(2000))
    code, out, err = run(capsys, "psi", x)
    assert code == 0 and err == ""
    assert out.strip().endswith(f"(dim {_prefix_dim(x, 2)})")


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


def test_check_file_preset(tmp_path, capsys):
    path = tmp_path / "pres.txt"
    path.write_text("generators:\na\nb\nrules:\na.b -> 1\nb.a -> 1\n")
    code, out, _ = run(capsys, "check", "file", "--file", str(path))
    assert code == 0 and "confluent: True" in out


def test_file_rule_order_error_names_line_and_generators(tmp_path, capsys):
    path = tmp_path / "pres.txt"
    path.write_text("generators:\na\nb\nrules:\nb.a -> a.b\na.b -> b.a\n")
    code, out, err = run(capsys, "check", "file", "--file", str(path))
    assert code == 2 and out == ""
    assert "rhs monomial b.a is not smaller than lhs a.b" in err
    assert "(line 6, column 1)" in err


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


def test_verify_pi(capsys):
    code, out, _ = run(capsys, "verify-pi", "--q", "sym")
    assert code == 0 and "morphism well-defined: True" in out
    code, blob, _ = run(capsys, "verify-pi", "--q", "3/2", "--format", "json")
    assert code == 0
    data = json.loads(blob)
    assert data["ok"] is True and len(data["checks"]) == 16


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


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "iso", "--E", "/nonexistent", "--F", "/nonexistent")
    assert code == 2
