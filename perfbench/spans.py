"""In-memory span tracer that wraps the engine's public functions from
outside the package.

Each wrapped function records a span (name, start, end, parent, trace
id); hot leaf functions, called ~10^5 times a run, record only a
per-call duration and add it to the enclosing span's leaf time. One CLI
command is one trace id, under a root span named `cli.main`. Spans are
kept in memory and summarised when the command cycle ends.

The engine imports functions by name (`from .network import encode`),
so a wrapper is installed on the name in the module that calls it, e.g.
`panelcast.forecaster.encode`, and removed again afterwards.
"""

from __future__ import annotations

import importlib
import threading
from array import array
from contextlib import contextmanager
from time import perf_counter

ROOT = "cli.main"


class Span:
    __slots__ = ("name", "start", "end", "parent", "trace", "leaf_s", "label")

    def __init__(self, name, parent, trace, start=0.0, end=0.0, leaf_s=0.0, label=None):
        self.name = name
        self.parent = parent
        self.trace = trace
        self.start = start
        self.end = end
        self.leaf_s = leaf_s
        self.label = label


def self_times(spans) -> list:
    """Self time of each span: its duration minus the part of it covered by
    its child spans (their union, clipped to the span, so overlapping
    children from worker threads count once) and by leaf calls made
    directly under it."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    out = []
    for s in spans:
        covered = 0.0
        cursor = s.start
        for a, b in sorted(children.get(id(s), ())):
            a, b = max(a, cursor), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        dur = s.end - s.start
        out.append(max(0.0, dur - min(dur, covered + s.leaf_s)))
    return out


class _ThreadState:
    def __init__(self):
        self.stack = []
        self.spans = []
        self.leaf = {}  # name -> array of per-call seconds
        self.counters = {}  # name -> summed value
        self.values = {}  # name -> list of observed values


class Tracer:
    """Collects spans for one or more CLI commands (one trace id each)."""

    def __init__(self):
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self.root = None
        self.roots = []
        self.trace = 0
        self.missing = []

    def state(self) -> _ThreadState:
        try:
            return self._local.st
        except AttributeError:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._states.append(st)
            return st

    @contextmanager
    def command(self, label: str):
        """Root span for one CLI command; spans opened on threads with no
        open span of their own (executor workers) hang under it."""
        self.trace += 1
        root = Span(ROOT, None, self.trace, label=label)
        st = self.state()
        st.stack.append(root)
        self.root = root
        root.start = perf_counter()
        try:
            yield root
        finally:
            root.end = perf_counter()
            st.stack.pop()
            self.root = None
            self.roots.append(root)

    def span_wrapper(self, name, fn, probe=None, name_fn=None):
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer.state()
            parent = st.stack[-1] if st.stack else tracer.root
            span = Span(name_fn(args, kwargs) if name_fn else name, parent, tracer.trace)
            st.stack.append(span)
            result = exc = None
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                span.end = perf_counter()
                st.stack.pop()
                st.spans.append(span)
                if probe is not None:
                    _run_probe(probe, st, args, kwargs, result, exc)

        return wrapper

    def leaf_wrapper(self, name, fn, probe=None):
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                st = tracer.state()
                durs = st.leaf.get(name)
                if durs is None:
                    durs = st.leaf[name] = array("d")
                durs.append(d)
                parent = st.stack[-1] if st.stack else tracer.root
                if parent is not None:
                    parent.leaf_s += d
                if probe is not None:
                    _run_probe(probe, st, args, kwargs, None, None)

        return wrapper

    @contextmanager
    def installed(self, patches):
        """Install wrappers for `patches` (see layers.PATCHES) and restore
        the original attributes on exit. Targets the engine no longer has
        are skipped and listed in self.missing."""
        undo = []
        try:
            for target, name, kind, probe, name_fn in patches:
                try:
                    holder, attr = _holder(target)
                    original = getattr(holder, attr)
                except (ImportError, AttributeError):
                    self.missing.append(target)
                    continue
                if kind == "leaf":
                    wrapped = self.leaf_wrapper(name, original, probe)
                else:
                    wrapped = self.span_wrapper(name, original, probe, name_fn)
                setattr(holder, attr, wrapped)
                undo.append((holder, attr, original))
            yield self
        finally:
            for holder, attr, original in reversed(undo):
                setattr(holder, attr, original)

    def summary(self) -> dict:
        """Per-name calls, total seconds, self seconds and per-call seconds,
        plus the probes' counters and observed values."""
        spans = list(self.roots)
        leaf, counters, values = {}, {}, {}
        for st in self._states:
            spans.extend(st.spans)
            for name, durs in st.leaf.items():
                leaf.setdefault(name, array("d")).extend(durs)
            for name, v in st.counters.items():
                counters[name] = counters.get(name, 0) + v
            for name, vs in st.values.items():
                values.setdefault(name, []).extend(vs)
        funcs = {}
        for span, self_s in zip(spans, self_times(spans)):
            f = funcs.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durs": []})
            f["calls"] += 1
            f["s"] += span.end - span.start
            f["self_s"] += self_s
            f["durs"].append(span.end - span.start)
        for name, durs in leaf.items():
            total = sum(durs)
            funcs[name] = {"calls": len(durs), "s": total, "self_s": total, "durs": durs}
        return {"funcs": funcs, "counters": counters, "values": values, "roots": self.roots,
                "spans": spans}


def _run_probe(probe, st, args, kwargs, result, exc):
    # A probe that no longer fits the engine's signature must not break
    # the traced command; it is counted instead.
    try:
        probe(st, args, kwargs, result, exc)
    except Exception:
        st.counters["trace.probe_errors"] = st.counters.get("trace.probe_errors", 0) + 1


def _holder(target: str):
    """(object holding the attribute, attribute name) for a dotted target
    like `panelcast.cli.load_jsonl` or `panelcast.dataset.Panel.get`."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:-1]:
            obj = getattr(obj, part)
        return obj, parts[-1]
    raise ImportError(f"cannot resolve {target}")
