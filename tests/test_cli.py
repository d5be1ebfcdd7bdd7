import argparse
import io
import json
import os
import signal
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from conftest import golden_diff
from eqsolve.cli import _build_parser, main
from eqsolve.solver import Decision

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


def test_decide_gf4_square_with_oracle():
    code, out, _ = run(["decide", str(PROBLEMS / "gf4_square.prob"),
                        "--oracle"])
    assert code == 0
    assert out.splitlines() == ["SAT", "  x = [[3,3],[0,1]]",
                                "explored 7 assignments, 5 prunes",
                                "oracle agrees (SAT)"]


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


def test_guard_below_one_is_rejected():
    """decide and oracle refuse a guard below 1 when parsing, naming
    --guard, before they read the problem (guard 0 used to refuse even a
    space of 1)."""
    path = str(PROBLEMS / "ut3f2_square.prob")
    for command in ("decide", "oracle"):
        for value in ("0", "-5"):
            with pytest.raises(SystemExit) as exc:
                run([command, path, "--guard", value])
            assert exc.value.code == 2
            code, _, err = _fresh([command, path, "--guard", value])
            assert code == 2
            assert err.splitlines()[-1] == (
                "eqsolve %s: error: argument --guard: must be at least 1, "
                "got %s" % (command, value)), err


def test_guard_error_on_a_huge_space_is_one_short_line(tmp_path):
    # UT(64, GF(2)) has 2016 field slots per unknown: a space of 2^2016
    path = tmp_path / "ut64.prob"
    path.write_text("[group]\nq = 2\nm = 64\npattern = full\norders = %s\n"
                    "\n[equation]\nvars = x\nlhs = x\nrhs = I\n"
                    % ([1] * 64))
    code, _, err = run(["decide", str(path)])
    assert code == 2
    assert err == "error: search space 10^606.9 exceeds guard 100000000\n"


def test_ideal_guard_error_names_the_ideal(tmp_path):
    # E14 generates an ideal of M(4, Z8) past IDEAL_GUARD; the refusal
    # names the ideal and its own guard, not the search space or --guard
    path = tmp_path / "e14.prob"
    path.write_text("[ring]\np = 2\nalpha = 3\nm = 4\n"
                    "ideal = [[0,0,0,1, 0,0,0,0, 0,0,0,0, 0,0,0,0]]\n"
                    "\n[equation]\nvars = x\nlhs = x*x\nrhs = 0\n")
    code, _, err = run(["decide", str(path)])
    assert code == 2
    assert err == ("error: ideal of at least 131072 elements exceeds the "
                   "ideal guard 100000\n")


def test_backend_flag_rejected():
    # the solver has one search; the naive reference lives in the tests
    with pytest.raises(SystemExit) as exc:
        run(["decide", str(PROBLEMS / "order54_identity.prob"),
             "--backend", "naive"])
    assert exc.value.code == 2


def _fresh(argv):
    """(exit code, stdout, stderr) of argv in a new eqsolve process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(HERE.parent / "src"), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "eqsolve", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_parser_reused_across_calls_parses_as_fresh():
    """main() builds its parser once per process: an argparse error, then a
    decide in the same process, each print what a fresh process prints."""
    path = str(PROBLEMS / "order54_identity.prob")
    bad = ["decide", path, "--guard", "many"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), \
            pytest.raises(SystemExit) as exc:
        main(bad)
    assert (exc.value.code, out.getvalue(), err.getvalue()) == _fresh(bad)
    assert exc.value.code == 2
    good = ["decide", path, "--oracle"]
    assert run(good) == _fresh(good)


def test_subcommands_match_readme():
    """README's CLI block shows exactly the parser's subcommands, and a
    retired subcommand is refused like any unknown one."""
    readme = (HERE.parent / "README.md").read_text()
    block = readme.split("## CLI\n", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    shown = {line.split()[1] for line in block.splitlines()
             if line.startswith("eqsolve ")}
    (commands,) = [action.choices for action in _build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    assert shown == set(commands) == {"decide", "equiv", "oracle",
                                      "dump-system"}
    code, out, err = _fresh(["bench", "x"])
    assert (code, out) == (2, "")
    assert "invalid choice: 'bench'" in err


def test_recursion_limit_exit_two(monkeypatch):
    import eqsolve.cli

    def too_deep(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(eqsolve.cli, "decide_equation", too_deep)
    code, _, err = run(["decide", str(PROBLEMS / "order54_identity.prob")])
    assert code == 2
    assert "error: recursion limit" in err
    assert "cli.cmd_decide" in err


def test_deeply_nested_orders_reach_the_recursion_handler(tmp_path):
    """An orders value nesting 100,000 lists exhausts the recursion limit
    in the JSON decoder; main reports the layer and exits 2."""
    path = tmp_path / "deep.prob"
    path.write_text(UNSAT_GROUP.replace(
        "orders = [1, 1, 1]", "orders = " + "[" * 100000 + "]" * 100000))
    code, out, err = run(["decide", str(path)])
    assert (code, out) == (2, "")
    assert err == ("error: recursion limit %d exceeded in "
                   "problemfile._as_list\n" % sys.getrecursionlimit())


def test_oracle_disagreement_exit_three(monkeypatch, tmp_path):
    """An oracle that contradicts the decision ends decide --oracle with
    exit 3 and the oracle's verdict, on SAT and on UNSAT questions."""
    import eqsolve.cli

    real = eqsolve.cli._run_oracle
    monkeypatch.setattr(eqsolve.cli, "_run_oracle",
                        lambda *args: Decision(not real(*args).sat))
    unsat = tmp_path / "unsat.prob"
    unsat.write_text(UNSAT_GROUP)
    for path, decided, claimed in (
            (PROBLEMS / "ut3f2_square.prob", "SAT", "UNSAT"),
            (PROBLEMS / "ring_factor.prob", "SAT", "UNSAT"),
            (unsat, "UNSAT", "SAT")):
        code, out, err = run(["decide", str(path), "--oracle"])
        assert (code, err) == (3, ""), path
        lines = out.splitlines()
        assert lines[0] == decided
        assert lines[-1] == "ORACLE DISAGREES: oracle says %s" % claimed


LONG_RING = """
[ring]
p = 2
alpha = 1
m = 2

[constants]
c = [0,1, 0,0]

[equation]
vars = x y
lhs = %s
rhs = c
"""


def test_oracles_decide_long_inputs(tmp_path):
    # 64 and 4 assignments, but a 3000-letter word ((xy)^1500 = 1 in
    # UT(3,F2)) and a 1200-term sum (x*y = 0 in M(2,Z2)): both UNSAT
    long_word = UNSAT_GROUP.replace("vars = x\n", "vars = x y\n").replace(
        "lhs = x x", "lhs = " + "x y " * 1500)
    long_sum = LONG_RING % " + ".join(["x*y"] * 1200)
    for name, text in (("word", long_word), ("sum", long_sum)):
        path = tmp_path / (name + ".prob")
        path.write_text(text)
        assert run(["oracle", str(path)]) == (1, "UNSAT\n", ""), name
        code, out, err = run(["decide", str(path), "--oracle"])
        assert (code, err) == (1, ""), name
        assert out.splitlines()[0] == "UNSAT"
        assert out.splitlines()[-1] == "oracle agrees (UNSAT)"


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
    # ut3f2_commute has a word right side, order54_identity subgroup domains,
    # gf4_square an extension field
    for name in ("ut3f2_square", "ut3f2_commute", "order54_identity",
                 "gf4_square"):
        code, out, _ = run(["dump-system", str(PROBLEMS / (name + ".prob"))])
        assert code == 0
        assert out == (HERE / "data" / ("dump_%s.txt" % name)).read_text()


def test_dump_system_golden_ring():
    # ring_factor is the factor-ring system lhs - rhs
    for name in ("ring_m2z4", "ring_factor"):
        code, out, _ = run(["dump-system", str(PROBLEMS / (name + ".prob"))])
        assert code == 0
        assert out == (HERE / "data" / ("dump_%s.txt" % name)).read_text()


def test_dump_system_out_writes_the_golden(tmp_path):
    """dump-system --out PATH writes exactly what dump-system prints, the
    golden, to PATH, and prints nothing."""
    for name in ("ut3f2_commute", "ring_factor"):
        target = tmp_path / (name + ".txt")
        assert run(["dump-system", str(PROBLEMS / (name + ".prob")),
                    "--out", str(target)]) == (0, "", "")
        assert target.read_bytes() == \
            (HERE / "data" / ("dump_%s.txt" % name)).read_bytes()


def test_decide_dump_flag(tmp_path):
    target = tmp_path / "dump.txt"
    code, _, _ = run(["decide", str(PROBLEMS / "ut3f2_square.prob"),
                      "--dump-system", str(target)])
    assert code == 0
    assert target.read_text() == \
        (HERE / "data" / "dump_ut3f2_square.txt").read_text()


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


# every command of the CLI contract on every committed problem file;
# `PYTHONPATH=src python tests/test_cli.py` rewrites the golden from the
# current code
TRANSCRIPT_COMMANDS = (("decide",), ("decide", "--oracle"), ("equiv",),
                       ("oracle",))
TRANSCRIPTS = HERE / "data" / "cli_transcripts.json"


def record_transcripts():
    """{"<command> <file>": [stdout, stderr, exit code]} over problems/."""
    out = {}
    for path in sorted(PROBLEMS.glob("*.prob")):
        for command in TRANSCRIPT_COMMANDS:
            argv = [command[0], str(path), *command[1:]]
            code, stdout, stderr = run(argv)
            out[" ".join(command + (path.name,))] = [stdout, stderr, code]
    return out


def test_cli_transcripts_golden():
    got, want = record_transcripts(), json.loads(TRANSCRIPTS.read_text())
    assert got == want, golden_diff(got, want)


if __name__ == "__main__":
    TRANSCRIPTS.write_text(json.dumps(record_transcripts(), indent=1) + "\n")


RING_ZERO = """
[ring]
p = 2
alpha = 2
m = 2

[constants]
c = [0,2, 0,0]

[equation]
vars = x
lhs = %s
rhs = c
"""


def test_ring_zero_in_the_lhs(tmp_path):
    """The ring's 0 is a letter on the left too: x + 0 = c is x = c, and
    x*0 = c has only the zero product on the left."""
    path = tmp_path / "zero.prob"
    path.write_text(RING_ZERO % "x + 0")
    code, out, _ = run(["decide", str(path), "--oracle"])
    assert code == 0 and "x = [[0,2],[0,0]]" in out and "oracle agrees" in out
    path.write_text(RING_ZERO % "x*0")
    code, out, _ = run(["decide", str(path), "--oracle"])
    assert code == 1 and "oracle agrees" in out


# Each replaces the value of one `key = value` line of a problem file.
MUTANTS = ("1.5", "true", "null", "[]", "{}", "[1.5]", "[true]", "-1", "0",
           "40", "1000003", "99999999999999999999", "x", "x + 0", "*", "+",
           "")


class _Overtime(BaseException):
    """Raised by the alarm: not an error that main() may report."""


def _overtime(signum, frame):
    raise _Overtime()


@pytest.mark.parametrize("name", sorted(p.name for p in
                                        PROBLEMS.glob("*.prob")))
def test_mutated_problem_files_end_in_an_exit_code(name, tmp_path):
    """With each key's value replaced by each of MUTANTS, decide --oracle,
    equiv and dump-system return an exit code 0-3 within a few seconds and
    raise nothing."""
    lines = (PROBLEMS / name).read_text().splitlines()
    path = tmp_path / name
    previous = signal.signal(signal.SIGALRM, _overtime)
    try:
        for n, line in enumerate(lines):
            key, equals, _ = line.partition("=")
            if not equals or line.lstrip().startswith("#"):
                continue
            for value in MUTANTS:
                mutated = "%s= %s" % (key, value)
                path.write_text("\n".join(lines[:n] + [mutated]
                                          + lines[n + 1:]) + "\n")
                for command in ("decide --oracle", "equiv", "dump-system"):
                    signal.alarm(5)
                    try:
                        code = run(command.split() + [str(path)])[0]
                    except (Exception, _Overtime) as exc:
                        pytest.fail("%s with %r raised %r"
                                    % (command, mutated, exc))
                    finally:
                        signal.alarm(0)
                    assert code in (0, 1, 2, 3), (command, mutated, code)
    finally:
        signal.signal(signal.SIGALRM, previous)
