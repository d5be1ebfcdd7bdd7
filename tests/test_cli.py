import csv
import io
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from eqsolve.cli import main

HERE = Path(__file__).resolve().parent
PROBLEMS = HERE.parent / "problems"

UNSAT_GROUP = """
[group]
q = 2
m = 3
pattern = full
orders = [1, 1, 1]

[constants]
c = [1,1,0, 0,1,0, 0,0,1]

[equation]
vars = x
lhs = x x
rhs = c
"""


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_decide_sat_exit_zero():
    code, out, _ = run(["decide", str(PROBLEMS / "order54_identity.prob")])
    assert code == 0
    assert out.splitlines()[0] == "SAT"
    assert "x = [[1,0,0],[0,1,0],[0,0,1]]" in out


def test_decide_unsat_exit_one(tmp_path):
    # squares over UT(3, GF(2)) are only I and I+E13, never I+E12
    path = tmp_path / "unsat.prob"
    path.write_text(UNSAT_GROUP)
    code, out, _ = run(["decide", str(path), "--oracle"])
    assert code == 1
    assert out.splitlines()[0] == "UNSAT"
    assert "oracle agrees" in out


def test_decide_with_oracle_agrees():
    for name in ("ut3f2_square.prob", "ring_m2z4.prob", "ring_factor.prob"):
        code, out, _ = run(["decide", str(PROBLEMS / name), "--oracle"])
        assert code == 0, name
        assert "oracle agrees" in out


def test_parse_error_exit_two(tmp_path):
    path = tmp_path / "broken.prob"
    path.write_text("[group]\nq = six\n")
    code, _, err = run(["decide", str(path)])
    assert code == 2
    assert "error:" in err


def test_guard_error_exit_two(tmp_path):
    code, _, err = run(["decide", str(PROBLEMS / "order54_identity.prob"),
                        "--guard", "1"])
    assert code == 2
    assert "guard" in err


def test_backend_flag_rejected():
    # the solver has one search; the naive reference lives in the tests
    with pytest.raises(SystemExit) as exc:
        run(["decide", str(PROBLEMS / "order54_identity.prob"),
             "--backend", "naive"])
    assert exc.value.code == 2


def test_recursion_limit_exit_two(monkeypatch):
    import eqsolve.cli

    def too_deep(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(eqsolve.cli, "decide_equation", too_deep)
    code, _, err = run(["decide", str(PROBLEMS / "order54_identity.prob")])
    assert code == 2
    assert "error: recursion limit" in err
    assert "cli.cmd_decide" in err


def test_equiv_exit_codes(tmp_path):
    code, out, _ = run(["equiv", str(PROBLEMS / "ut3f2_commute.prob")])
    assert code == 1
    assert "NOT EQUIVALENT" in out
    same = (PROBLEMS / "ut3f2_commute.prob").read_text().replace(
        "rhs = y x", "rhs = x y")
    path = tmp_path / "same.prob"
    path.write_text(same)
    code, out, _ = run(["equiv", str(path)])
    assert code == 0
    assert "EQUIVALENT" in out


def test_equiv_exponent_word_vs_empty(tmp_path):
    # x^4 agrees with the empty word everywhere over UT(3, GF(2))
    path = tmp_path / "exponent.prob"
    path.write_text("""
[group]
q = 2
m = 3
pattern = full
orders = [1, 1, 1]

[equation]
vars = x
lhs = x x x x
rhs =
""")
    code, out, _ = run(["equiv", str(path)])
    assert code == 0
    assert "EQUIVALENT" in out


def test_oracle_command():
    code, out, _ = run(["oracle", str(PROBLEMS / "ut3f2_square.prob")])
    assert code == 0
    assert out.splitlines()[0] == "SAT"


def test_dump_system_golden_group():
    code, out, _ = run(["dump-system", str(PROBLEMS / "ut3f2_square.prob")])
    assert code == 0
    assert out == (HERE / "data" / "dump_ut3f2_square.txt").read_text()


def test_dump_system_golden_ring():
    code, out, _ = run(["dump-system", str(PROBLEMS / "ring_m2z4.prob")])
    assert code == 0
    assert out == (HERE / "data" / "dump_ring_m2z4.txt").read_text()


def test_decide_dump_flag(tmp_path):
    target = tmp_path / "dump.txt"
    code, _, _ = run(["decide", str(PROBLEMS / "ut3f2_square.prob"),
                      "--dump-system", str(target)])
    assert code == 0
    assert target.read_text() == \
        (HERE / "data" / "dump_ut3f2_square.txt").read_text()


def test_bench_csv_and_size_law(tmp_path):
    out_path = tmp_path / "bench.csv"
    code, _, _ = run(["bench", str(PROBLEMS / "bench_small.cfg"),
                      "--seed", "3", "--out", str(out_path)])
    assert code == 0
    with open(out_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows, "no bench rows"
    for row in rows:
        assert row["agree"] in ("yes", "")
        assert row["explored"] != ""
        if row["family"] == "full-m3-f2":
            n = int(row["n"])
            # top-right entry of a full-pattern all-distinct-variable word
            assert int(row["sym_size_top"]) == n * math.comb(n + 1, 2)
            if n == 0:
                assert int(row["sym_size_total"]) == 0
    lengths = sorted(int(r["n"]) for r in rows if r["family"] == "full-m3-f2")
    assert lengths == [0, 2, 4, 6]


def test_bench_oracle_skipped_under_guard(tmp_path):
    config = tmp_path / "b.cfg"
    config.write_text("""
[family]
name = tiny
q = 2
m = 3
pattern = full
orders = [1,1,1]
lengths = [4]
variables = 4
reps = 1
""")
    out_path = tmp_path / "bench.csv"
    code, _, _ = run(["bench", str(config), "--guard", "100",
                      "--out", str(out_path)])
    assert code == 0
    with open(out_path, newline="") as handle:
        (row,) = list(csv.DictReader(handle))
    assert row["oracle_verdict"] == "skipped"
    assert row["oracle_ms"] == "skipped"
    assert row["verdict"] == "guard-exceeded"
    assert row["agree"] == ""


def test_empty_word_lhs(tmp_path):
    path = tmp_path / "empty.prob"
    path.write_text("""
[group]
q = 2
m = 2
pattern = full
orders = [1, 1]

[equation]
vars = x
lhs =
rhs = I
""")
    code, out, _ = run(["decide", str(path)])
    assert code == 0
    assert out.splitlines()[0] == "SAT"
