from pathlib import Path

import pytest

from eqsolve import GroupElement, RingElement
from eqsolve.problemfile import (ParseError, parse_bench_config,
                                 parse_problem, parse_problem_file,
                                 render_problem)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

GROUP_TEXT = """
[group]
q = 3
m = 3
pattern = full
orders = [1, 2, 1]

[constants]
c = [1,0,1, 0,1,0, 0,0,1]

[equation]
vars = x y
lhs = x c y
rhs = I
"""

RING_TEXT = """
[ring]
p = 2
alpha = 2
m = 2
ideal = [[0,2,0,0]]

[constants]
c = [0,2, 0,0]

[equation]
vars = x y
lhs = x*y + 2*x - c
rhs = 0
"""


def test_parse_group_problem():
    pf = parse_problem(GROUP_TEXT)
    assert pf.kind == "group"
    assert pf.group.order == 54
    assert pf.variables == ("x", "y")
    assert len(pf.lhs) == 3
    assert isinstance(pf.lhs[1], GroupElement)
    assert pf.rhs == pf.group.identity()


def test_parse_ring_problem():
    pf = parse_problem(RING_TEXT)
    assert pf.kind == "ring"
    assert pf.ring.cardinality == 32
    assert len(pf.ideal_generators) == 1
    assert isinstance(pf.constants["c"], RingElement)
    assert pf.rhs == pf.ring.zero()
    assert set(pf.variables) == {"x", "y"}


def test_sample_problem_files_parse():
    for path in sorted(PROBLEMS.glob("*.prob")):
        pf = parse_problem_file(path)
        assert pf.kind in ("group", "ring")


def test_round_trip_is_identity():
    for text in (GROUP_TEXT, RING_TEXT):
        pf = parse_problem(text)
        rendered = render_problem(pf)
        assert parse_problem(rendered) == pf
        assert render_problem(parse_problem(rendered)) == rendered
    for path in sorted(PROBLEMS.glob("*.prob")):
        pf = parse_problem_file(path)
        assert parse_problem(render_problem(pf)) == pf


def test_unknown_section_rejected():
    with pytest.raises(ParseError) as err:
        parse_problem("[mystery]\nq = 3\n")
    assert "mystery" in str(err.value)
    assert err.value.line == 1


def test_unknown_key_rejected():
    with pytest.raises(ParseError) as err:
        parse_problem("[group]\nq = 3\nm = 2\nflavor = sweet\n"
                      "pattern = full\norders = [1,1]\n"
                      "[equation]\nvars = x\nlhs = x\nrhs = I\n")
    assert err.value.line == 4


def test_bad_matrix_shape_rejected():
    bad = GROUP_TEXT.replace("[1,0,1, 0,1,0, 0,0,1]", "[1,0,1]")
    with pytest.raises(ParseError):
        parse_problem(bad)


def test_constant_membership_validated():
    bad = RING_TEXT.replace("c = [0,2, 0,0]", "c = [1,2, 0,0]")
    with pytest.raises(Exception):
        parse_problem(bad)


def test_unknown_letter_rejected():
    bad = GROUP_TEXT.replace("lhs = x c y", "lhs = x w y")
    with pytest.raises(ParseError) as err:
        parse_problem(bad)
    assert "w" in str(err.value)


def test_q_must_be_prime_power():
    bad = GROUP_TEXT.replace("q = 3", "q = 6")
    with pytest.raises(ParseError):
        parse_problem(bad)


def test_missing_rhs_rejected():
    bad = "\n".join(line for line in GROUP_TEXT.splitlines()
                    if not line.startswith("rhs"))
    with pytest.raises(ParseError):
        parse_problem(bad)


def test_group_and_ring_both_present_rejected():
    with pytest.raises(ParseError):
        parse_problem(GROUP_TEXT + "\n[ring]\np = 2\nalpha = 1\nm = 2\n")


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_problem("[group]\nq 3\n")
    assert err.value.line == 2


FAMILY_TEXT = """
[family]
q = 2
m = 3
pattern = full
orders = [1, 1, 1]
lengths = [2, 4]
variables = 2
"""


def test_bench_config_duplicate_key_rejected():
    with pytest.raises(ParseError) as err:
        parse_bench_config(FAMILY_TEXT.replace("q = 2", "q = 2\nq = 3"))
    assert "duplicate" in str(err.value)
    assert err.value.line == 4


def test_bench_config_pattern_needs_pairs():
    with pytest.raises(ParseError) as err:
        parse_bench_config(FAMILY_TEXT.replace("full", "[[1,2,3]]"))
    assert "pairs" in str(err.value)
    assert err.value.line == 5


def test_missing_key_reports_its_section():
    with pytest.raises(ParseError) as err:
        parse_bench_config(FAMILY_TEXT.replace("variables = 2", ""))
    assert "'variables'" in str(err.value)
    assert err.value.line == 2


def test_pattern_entry_must_be_an_integer():
    text = GROUP_TEXT.replace("pattern = full", "pattern = [[1, [2]]]")
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert "expected an integer" in str(err.value)
    assert err.value.line == 5


def test_orders_entry_must_be_an_integer():
    text = GROUP_TEXT.replace("orders = [1, 2, 1]", 'orders = ["a", 1, 1]')
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert "expected an integer" in str(err.value)
    assert err.value.line == 6


def test_bench_config_lengths_must_be_integers():
    with pytest.raises(ParseError) as err:
        parse_bench_config(FAMILY_TEXT.replace("[2, 4]", "[[1]]"))
    assert "expected an integer" in str(err.value)
    assert err.value.line == 7
