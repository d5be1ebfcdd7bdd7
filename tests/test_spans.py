"""The benchmark's tracer (perfbench/spans.py) rebinds eqsolve attributes by
name; every name it lists must exist where it looks."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_resolve():
    spans = _load_spans()
    for name, home, attr, where, _ in spans.BOUNDARIES:
        function = getattr(importlib.import_module(home), attr, None)
        assert callable(function), name
        for binding in where or ():
            assert getattr(importlib.import_module(binding), attr,
                           None) is function, (name, binding)
    for name, home, cls_name, attr in spans.METHODS:
        cls = getattr(importlib.import_module(home), cls_name)
        # install() reads the class's own __dict__, not an inherited method
        assert attr in cls.__dict__, name
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()


def test_tracer_sees_the_expansion_inside_build_system(order54):
    """build_system sums F - G through the module attribute
    symbolic_product, once per build, so its time is attributed to that
    span, nested in build_system's."""
    from eqsolve import reduction

    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        reduction.build_system(order54, ("x", "y"), ("y", "x"))
    finally:
        tracer.uninstall()
    assert tracer.calls["reduction.build_system"] == 1
    assert tracer.calls["reduction.symbolic_product"] == 1
    # build_system's child time is exactly its one sum
    child = (tracer.total["reduction.build_system"]
             - tracer.self_time["reduction.build_system"])
    assert child == pytest.approx(tracer.total["reduction.symbolic_product"])


def test_tracer_counts_monomials_and_slots_of_each_build(order54, ring_m2z4):
    """The benchmark's monomial count, read through
    Polynomial.monomial_count(), is the number of terms of every constraint
    of a build, and its slot count the size of the build's domain map: one
    group build and one factor-ring build (with t[k] coset unknowns)."""
    from eqsolve import reduction, rings

    spans = _load_spans()
    ideal = rings.enumerate_ideal(ring_m2z4,
                                  [ring_m2z4.element([[0, 2], [0, 0]])])
    rhs = ring_m2z4.element([[0, 2], [0, 0]])
    expr = rings.RSum((rings.RProd((rings.RVar("x"), rings.RVar("y"))),
                       rings.RNeg(rings.RConst(rhs))))
    tracer = spans.Tracer()
    tracer.install()
    try:
        group = reduction.build_system(order54, ("x", "y"), ("y", "x"))
        ring = rings.build_ring_system(ring_m2z4, expr, ring_m2z4.zero(),
                                       ideal)
    finally:
        tracer.uninstall()
    for prefix, built in (("reduction", group), ("rings", ring)):
        system = built.system
        assert tracer.counts[prefix + ".builds"] == 1
        assert tracer.counts[prefix + ".monomials"] == sum(
            len(c.poly) for c in system.constraints) > 0
        assert tracer.counts[prefix + ".slot_vars"] == \
            len(system.domains) > 0
    assert "t[1]" in ring.system.domains
