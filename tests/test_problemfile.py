from pathlib import Path

import pytest

from eqsolve import (GroupElement, RConst, RingElement, RNeg, RProd, RScale,
                     RSum, RVar)
from eqsolve.problemfile import ParseError, parse_problem, parse_problem_file
from problemtext import render_problem

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


@pytest.mark.parametrize("rhs", ["[0, 2, 0, 0]", "[0,2,0,0]",
                                 "[[0, 2], [0, 0]]", "c"])
def test_ring_rhs_inline_matrix_may_hold_spaces(rhs):
    pf = parse_problem(RING_TEXT.replace("rhs = 0", "rhs = " + rhs))
    assert pf.rhs == pf.ring.element([[0, 2], [0, 0]])


@pytest.mark.parametrize("rhs, message", [
    ("c c", "single constant"), ("c [0,2,0,0]", "single constant"),
    ("x", "must be a constant"), ("[0, 2, 0]", "row-major"),
    ("[0, 2, 0, 0] c", "list syntax"),
])
def test_ring_rhs_must_be_one_constant(rhs, message):
    with pytest.raises(ParseError, match=message) as err:
        parse_problem(RING_TEXT.replace("rhs = 0", "rhs = " + rhs))
    assert err.value.line == 14


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


@pytest.mark.parametrize("old, new, line, col, rest", [
    ("c = [1,0,1, 0,1,0, 0,0,1]", "c = [1,0,1, 0,1,0 0,0,1]", 9, 19,
     "0,0,1]"),
    ("orders = [1, 2, 1]", "  orders =   [1, 2 1]", 6, 20, "1]"),
    ("pattern = full", "pattern=[[1, 2] [1, 3]]", 5, 17, "[1, 3]]"),
    ("c = [1,0,1,", "\tc\t= [1,0,1,,", 9, 13, ", 0,1,0, 0,0,1]"),
])
def test_bad_list_syntax_reports_column_in_line(old, new, line, col, rest):
    """The decoder's column is counted from the start of the line, past
    the key, its `=` and any indentation or spacing: rest is the line
    from the reported column on."""
    text = GROUP_TEXT.replace(old, new)
    with pytest.raises(ParseError, match="bad list syntax") as err:
        parse_problem(text)
    assert (err.value.line, err.value.col) == (line, col)
    assert "(line %d, col %d)" % (line, col) in str(err.value)
    assert text.splitlines()[line - 1][col - 1:] == rest


def test_ring_rhs_bad_list_syntax_reports_column_in_line():
    text = RING_TEXT.replace("rhs = 0", "rhs =  [0, 2 0, 0]")
    with pytest.raises(ParseError, match="bad list syntax") as err:
        parse_problem(text)
    assert (err.value.line, err.value.col) == (14, 14)
    assert text.splitlines()[13][13:] == "0, 0]"


def test_bench_config_duplicate_key_rejected():
    with pytest.raises(ParseError) as err:
        parse_problem(GROUP_TEXT.replace("q = 3", "q = 3\nq = 2"))
    assert "duplicate" in str(err.value)
    assert err.value.line == 4


def test_bench_config_pattern_needs_pairs():
    with pytest.raises(ParseError) as err:
        parse_problem(GROUP_TEXT.replace("full", "[[1,2,3]]"))
    assert "pairs" in str(err.value)
    assert err.value.line == 5


def test_missing_key_reports_its_section():
    with pytest.raises(ParseError) as err:
        parse_problem(GROUP_TEXT.replace("orders = [1, 2, 1]", ""))
    assert "'orders'" in str(err.value) and "[group]" in str(err.value)
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


@pytest.mark.parametrize("old, new, line", [
    ("pattern = full", "pattern = [[1.0, 2.9], [true, 3]]", 5),
    ("pattern = full", "pattern = [[1, 2.0], [1, 3]]", 5),
    ("pattern = full", "pattern = [[true, 2], [1, 3]]", 5),
    ("orders = [1, 2, 1]", "orders = [1.9, 2, 1]", 6),
    ("orders = [1, 2, 1]", "orders = [1, true, 1]", 6),
    ("c = [1,0,1,", "c = [true,0,1,", 9),
])
def test_list_entries_are_ints_not_floats_or_bools(old, new, line):
    """A float or a bool in a list is refused, not truncated to an int:
    every text here used to parse into a valid group or constant."""
    with pytest.raises(ParseError) as err:
        parse_problem(GROUP_TEXT.replace(old, new))
    assert "expected an integer" in str(err.value)
    assert err.value.line == line


def test_ring_zero_is_a_letter_in_the_lhs():
    pf = parse_problem(RING_TEXT.replace("lhs = x*y + 2*x - c",
                                         "lhs = x + 0 - 0*y + x*0 - -1*x"))
    zero = RConst(pf.ring.zero())
    assert pf.lhs == RSum((RVar("x"), zero,
                           RNeg(RProd((zero, RVar("y")))),
                           RProd((RVar("x"), zero)),
                           RNeg(RScale(-1, RVar("x")))))
    assert parse_problem(RING_TEXT).lhs.parts[1] == RScale(2, RVar("x"))
    assert parse_problem(render_problem(pf)) == pf


@pytest.mark.parametrize("old, new, line", [
    ("m = 3", "m = 1000003", 4),
    ("q = 3", "q = 1048583", 3),
    ("q = 3", "q = 2305843009213693951", 3),
])
def test_construction_limits_name_the_line(old, new, line):
    """m is refused before the full pattern is built, and q before its
    trial division."""
    with pytest.raises(ParseError, match="limit") as err:
        parse_problem(GROUP_TEXT.replace(old, new))
    assert err.value.line == line
