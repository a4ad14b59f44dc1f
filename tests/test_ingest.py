"""The panel loader against its per-entry reference, and its memory.

On generated files, load_jsonl returns the panel the reference loader
in conftest returns, byte for byte, or raises its one-line DataError,
naming the same line and entry. Its memory beyond the returned arrays
is one line's objects, not the file's."""

import json
import os
import tempfile
import tracemalloc

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import reference_load_jsonl
from panelcast.dataset import load_jsonl
from panelcast.errors import DataError

# Ids with and without the words whose text decides the loader's path;
# few enough that some repeat.
ids = st.sampled_from(["a", "b", "c", "d", "e", "f", "true", "false", "null", "is-true",
                       "nullable", "false_null"])
good_entries = st.one_of(st.integers(0, 10**6), st.floats(0.0, 1e6), st.none())
bad_entries = st.one_of(
    st.booleans(),
    st.sampled_from(["3", "x", "NaN"]),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.sampled_from(["k"]), st.integers(0, 3), max_size=1),
    st.integers(-5, -1),
    st.floats(max_value=-0.0),
    st.integers(2**63 - 2, 2**64 + 2),  # past int64, inside the float range
    st.sampled_from([2**1023, 10**308, 10**309, -(10**400), 2**1024]),  # at and past it
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 1e308, 1.7e308]),
)
# The keys a faulty line breaks, or the whole line.
FAULTS = ("id", "start", "freq", "target", "cat", "line")


@st.composite
def targets(draw, odds=4):
    """Numbers and nulls; one time in odds + 1 bad entries or no list."""
    if draw(st.integers(0, odds)) > 0:
        return draw(st.lists(good_entries, min_size=1, max_size=8))
    if draw(st.booleans()):
        return draw(st.sampled_from([[], None, 3, "abc", {}]))
    return draw(st.lists(st.one_of(good_entries, bad_entries), min_size=1, max_size=8))


@st.composite
def panel_lines(draw, odds=6):
    """A valid panel line but one time in odds + 1: then one key faulty
    or missing, or a line that is no panel row."""
    row = {"id": draw(ids), "start": "2014-01-06", "freq": "D", "target": draw(targets())}
    if draw(st.booleans()):
        row["cat"] = draw(st.integers(0, 5))
    fault = draw(st.sampled_from(FAULTS)) if draw(st.integers(0, odds)) == 0 else None
    if fault == "line":
        return draw(st.sampled_from(["", "   ", "not json", "[1, 2]", '{"id": "a"']))
    if fault is not None and draw(st.booleans()):
        row.pop(fault, None)
    elif fault is not None:
        row[fault] = draw(st.sampled_from({
            "id": ["", 7, None],
            "start": ["2014-13-01", "2014-01-06T05:00:00", 5],
            "freq": ["H", "X", 3],
            "target": [[1, True], ["3"], [1e308, 1e308], [-1, None]],
            "cat": [-1, 2**20, True, "1", 1.0],
        }[fault]))
    return json.dumps(row)


def outcome(load, path):
    try:
        return load(path)
    except DataError as e:
        return e


@given(st.lists(panel_lines(), max_size=6))
@example(["{\"id\": \"a\", \"start\": \"2014-01-06\", \"freq\": \"D\", \"target\": [1, true, -1]}"])
@example(["{\"id\": \"true\", \"start\": \"2014-01-06\", \"freq\": \"D\", \"target\": [1, 2]}"] * 2)
@example(["{\"id\": \"a\", \"start\": \"2014-01-06\", \"freq\": \"D\", \"target\": [1e308, 1e308]}"])
@example(["{\"id\": \"a\", \"start\": \"2014-01-06\", \"freq\": \"D\", \"target\": [null, NaN]}"])
@example(["{\"id\": \"a\", \"start\": \"2014-01-06\", \"freq\": \"D\", \"target\": [1.5, NaN]}"])
@example(["{\"id\": \"a\", \"start\": \"2014-01-06\", \"freq\": \"D\", \"target\": [1, -Infinity]}"])
@example(["{\"id\": \"a\", \"start\": \"2014-01-06\", \"freq\": \"D\", \"target\": [null, \"3\"]}"])
@example(["{\"id\": \"nullable\", \"start\": \"2014-01-06\", \"freq\": \"D\", \"target\": [1, 2.5]}"])
@example(["{\"id\": \"a\", \"start\": \"2014-01-06\", \"freq\": \"Q\", \"target\": [1]}", "x"])
def test_loader_equals_the_reference(file_lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "panel.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(file_lines))
        expected = outcome(reference_load_jsonl, path)
        got = outcome(load_jsonl, path)
    if isinstance(expected, DataError):
        assert isinstance(got, DataError) and str(got) == str(expected)
        assert "\n" not in str(got)
        return
    assert not isinstance(got, DataError), got
    assert len(got) == len(expected)
    for s, (sid, start, gran, target, cat) in zip(got, expected):
        assert (s.id, s.start, s.granularity, s.category) == (sid, start, gran, cat)
        assert s.target.dtype == np.float64 and s.target.shape == target.shape
        assert s.target.tobytes() == target.tobytes()


def whole_file_load(path):
    """A loader that parses every line before converting any: the
    memory profile load_jsonl must not have."""
    with open(path, "r", encoding="utf-8") as fh:
        objs = [json.loads(line) for line in fh]
    return [np.array(obj["target"], dtype=np.float64) for obj in objs]


def traced_peak(load, path):
    tracemalloc.start()
    try:
        result = load(path)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_loader_memory_is_one_line_beyond_its_arrays(tmp_path):
    # 2000 counts series of 400 steps: 6.4 MB of float64 targets, and
    # about five times that as Python ints and lists.
    rng = np.random.default_rng(11)
    path = tmp_path / "panel.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(2000):
            row = {"id": f"s{i:05d}", "start": "2014-01-06", "freq": "D",
                   "target": rng.integers(1000, 100_000, 400).tolist(), "cat": i % 7}
            fh.write(json.dumps(row) + "\n")
    panel, peak = traced_peak(load_jsonl, path)
    held = sum(s.target.nbytes for s in panel)
    assert held == 2000 * 400 * 8
    bound = 2 * held
    assert peak <= bound, f"peak {peak} bytes for {held} bytes of targets"
    # The bound tells the two memory profiles apart.
    arrays, whole_peak = traced_peak(whole_file_load, path)
    assert sum(a.nbytes for a in arrays) == held
    assert whole_peak > 2 * bound
