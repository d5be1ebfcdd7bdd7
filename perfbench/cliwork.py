"""The `cli` workload: the command line on the committed problem files.

Set-up parses the problem files and checks, for each decide file, a witness
planted here by hand, so every command carries a reference verdict that
does not come from the command itself.  The timed passes call
`eqsolve.cli.main` in-process (`run_in_process`); after them one round runs
each command as a `python -m eqsolve` process (`run_subprocess`).  Both check
exit code, printed verdict, printed witnesses (re-evaluated with
`evaluate_word` / `eval_ring_expr`) and, for `dump-system`, the golden files
under tests/data.
"""

from __future__ import annotations

import ast
import io
import os
import random
import re
import sys
import time
from contextlib import redirect_stdout

from workloads import ROOT, SRC, Instance, Mismatch, groups, rings

from eqsolve import cli, problemfile

# file -> (planted witness rows per variable, ideal element or None); each
# witness solves the file's equation, so the reference verdict is SAT
PLANTED = {
    "order54_identity": ({"x": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}, None),
    "ut3f2_square": ({"x": [[1, 1, 0], [0, 1, 1], [0, 0, 1]]}, None),
    "ring_m2z4": ({"x": [[0, 1], [0, 0]], "y": [[0, 0], [0, 2]]}, None),
    "ring_factor": ({"x": [[0, 1], [0, 0]], "y": [[0, 0], [0, 2]]},
                    [[0, 0], [0, 0]]),
}
# x = I + E23 and y = I + E12 do not commute in UT(3, F2)
NONCOMMUTING = {"x": [[1, 0, 0], [0, 1, 1], [0, 0, 1]],
                "y": [[1, 1, 0], [0, 1, 0], [0, 0, 1]]}

_WITNESS = re.compile(r"^  (\w+) = (\[.*\])$")
_IDEAL = re.compile(r"^  \(ideal element (\[.*\])\)$")


def _problem(name):
    path = os.path.join(ROOT, "problems", name + ".prob")
    return path, problemfile.parse_problem_file(path)


def _element(pf, rows):
    return (pf.group if pf.kind == "group" else pf.ring).element(rows)


def _holds(pf, witness, ideal_element=None, ideal=None):
    """Does the witness solve the problem file's equation (over M/I if any)?"""
    if pf.kind == "group":
        left = groups.evaluate_word(pf.group, pf.lhs, witness)
        right = (groups.evaluate_word(pf.group, pf.rhs, witness)
                 if isinstance(pf.rhs, tuple) else pf.rhs)
        return left == right
    diff = rings.eval_ring_expr(pf.lhs, witness, pf.ring) - pf.rhs
    if ideal is None:
        return diff.is_zero()
    return ideal_element in ideal and diff == ideal_element


def setup(seed):
    out = []
    for name, (rows, ideal_rows) in PLANTED.items():
        path, pf = _problem(name)
        ideal = (rings.enumerate_ideal(pf.ring, pf.ideal_generators)
                 if pf.ideal_generators else None)
        witness = {k: _element(pf, v) for k, v in rows.items()}
        ideal_element = _element(pf, ideal_rows) if ideal_rows else None
        if not _holds(pf, witness, ideal_element, ideal):
            raise Mismatch("%s: planted witness does not solve it" % name)
        out.append(Instance("cli", "decide-" + name,
                            (["decide", path, "--oracle"], pf, ideal), True))
    path, pf = _problem("ut3f2_commute")
    witness = {k: _element(pf, v) for k, v in NONCOMMUTING.items()}
    if _holds(pf, witness):
        raise Mismatch("ut3f2_commute: planted separator does not separate")
    out.append(Instance("cli", "equiv-ut3f2_commute",
                        (["equiv", path], pf, None), False))
    for name in ("ut3f2_square", "ring_m2z4"):
        path, pf = _problem(name)
        with open(os.path.join(ROOT, "tests", "data", "dump_%s.txt" % name),
                  encoding="utf-8") as handle:
            golden = handle.read()
        out.append(Instance("cli", "dump-system-" + name,
                            (["dump-system", path], pf, None), golden))
    random.Random(seed).shuffle(out)
    return out


def check(inst, code, stdout):
    """Raise Mismatch unless the command's exit code and output are right."""
    argv, pf, ideal = inst.args
    if argv[0] == "dump-system":
        if code != 0 or stdout != inst.expected:
            raise Mismatch("%s: exit %s or output differs from the golden"
                           % (inst.label, code))
        return
    verdict = {0: True, 1: False}.get(code)
    if verdict != inst.expected:
        raise Mismatch("%s: exit code %s, expected %s"
                       % (inst.label, code, 0 if inst.expected else 1))
    lines = stdout.splitlines()
    printed = {("decide", True): "SAT", ("decide", False): "UNSAT",
               ("equiv", True): "EQUIVALENT",
               ("equiv", False): "NOT EQUIVALENT"}[(argv[0], verdict)]
    if lines[:1] != [printed]:
        raise Mismatch("%s: printed verdict %r" % (inst.label, lines[:1]))
    if argv[0] == "decide" and ("oracle agrees (%s)" % printed) not in lines:
        raise Mismatch("%s: no oracle agreement line" % inst.label)
    if verdict != (argv[0] == "decide"):
        return  # UNSAT or EQUIVALENT: nothing printed to re-evaluate
    witness, ideal_element = {}, None
    for line in lines[1:]:
        match = _WITNESS.match(line)
        if match:
            witness[match.group(1)] = _element(
                pf, ast.literal_eval(match.group(2)))
        match = _IDEAL.match(line)
        if match:
            ideal_element = _element(pf, ast.literal_eval(match.group(1)))
    if set(witness) != set(pf.variables):
        raise Mismatch("%s: witness covers %s" % (inst.label, sorted(witness)))
    if _holds(pf, witness, ideal_element, ideal) != (argv[0] == "decide"):
        raise Mismatch("%s: printed witness fails re-evaluation" % inst.label)


def run_subprocess(inst, samples):
    import subprocess

    argv = inst.args[0]
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "eqsolve"] + argv, cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    samples.add("cli", time.perf_counter() - t0)
    check(inst, proc.returncode, proc.stdout)


def run_in_process(inst, samples):
    argv = inst.args[0]
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = samples.time("decide" if argv[0] == "decide" else "cli_main",
                            cli.main, argv)
    check(inst, code, buffer.getvalue())
    return (code, len(buffer.getvalue()))


def time_import(samples):
    """One bare `python -c "import eqsolve"`, as the CLI pays it."""
    import subprocess

    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import eqsolve"], cwd=ROOT,
                   env=env, check=True, timeout=120)
    samples.add("import", time.perf_counter() - t0)
