"""Self time is duration minus child coverage; the tracer wraps and
restores functions where the engine calls them."""

import threading
import types

import pytest

import run
from spans import Span, Tracer, self_times


def test_self_time_on_hand_built_tree():
    root = Span("root", None, 1, 0.0, 10.0)
    a = Span("a", root, 1, 1.0, 4.0)
    b = Span("b", root, 1, 3.0, 6.0, leaf_s=1.0)  # overlaps a, as a worker thread's span would
    a1 = Span("a1", a, 1, 2.0, 3.0)
    c = Span("c", root, 1, 8.0, 12.0)  # runs past its parent: only [8, 10] is covered
    got = self_times([root, a, b, a1, c])
    assert got == pytest.approx([10 - 5 - 2, 3 - 1, 3 - 1, 1, 4])


def test_leaf_time_counts_as_coverage():
    root = Span("root", None, 1, 0.0, 2.0, leaf_s=0.5)
    child = Span("child", root, 1, 1.0, 1.5, leaf_s=0.5)
    assert self_times([root, child]) == pytest.approx([1.0, 0.0])


def _module():
    mod = types.ModuleType("toy_engine")

    def leaf(x):
        return x + 1

    def inner(x):
        return mod.leaf(x) + mod.leaf(x)

    def outer(x):
        return mod.inner(x) * 2

    mod.leaf, mod.inner, mod.outer = leaf, inner, outer
    return mod


def test_tracer_wraps_and_restores(monkeypatch):
    import sys

    mod = _module()
    monkeypatch.setitem(sys.modules, "toy_engine", mod)
    originals = (mod.leaf, mod.inner, mod.outer)
    patches = [
        ("toy_engine.outer", "toy.outer", "span", None, None),
        ("toy_engine.inner", "toy.inner", "span", None, None),
        ("toy_engine.leaf", "toy.leaf", "leaf", None, None),
        ("toy_engine.gone", "toy.gone", "span", None, None),
    ]
    tracer = Tracer()
    with tracer.installed(patches), tracer.command("cmd"):
        assert mod.outer(1) == 8
        worker = threading.Thread(target=mod.inner, args=(2,))
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert (mod.leaf, mod.inner, mod.outer) == originals
    assert tracer.missing == ["toy_engine.gone"]
    funcs = tracer.summary()["funcs"]
    assert funcs["cli.main"]["calls"] == 1
    assert funcs["toy.outer"]["calls"] == 1
    assert funcs["toy.inner"]["calls"] == 2
    assert funcs["toy.leaf"]["calls"] == 4
    assert funcs["toy.leaf"]["self_s"] == pytest.approx(funcs["toy.leaf"]["s"])
    spans = tracer.summary()["spans"]
    thread_inner = [s for s in spans if s.name == "toy.inner" and s.parent.name == "cli.main"]
    assert len(thread_inner) == 1  # the worker thread's span hangs under the command
    for name in ("toy.outer", "toy.inner", "cli.main"):
        assert 0.0 <= funcs[name]["self_s"] <= funcs[name]["s"]


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(range(1, 101))[0] == "p90"
    assert run.tail_percentile(range(1, 1001)) == ("p99", 990)
    assert run.tail_percentile(range(1, 20))[0] == "max"
    assert run.tail_percentile(range(1, 21))[0] == "p50"
