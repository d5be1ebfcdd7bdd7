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
