"""Fuzzing of the parsers that read outside input: the panel file, the
model file and forecast records. Whatever the input, a parser either
loads it or raises a PanelcastError, never another exception. A model
file that loads must also forecast: predict on one with a number
replaced writes finite forecasts or exits 2."""

import base64
import io
import json
import math
import os
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import NEGBIN_FIXTURE, count_rows, set_model_number, tiny_model, write_jsonl
from panelcast.cli import main
from panelcast.dataset import load_jsonl
from panelcast.errors import PanelcastError
from panelcast.forecaster import ForecastRecord
from panelcast.likelihood import LikelihoodKind
from panelcast.network import model_from_bytes, model_to_bytes

# Any JSON value, big integers and non-finite floats included (json.dumps
# writes the latter as NaN / Infinity, which json.loads reads back).
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=10**300, max_value=10**400),
    st.floats(),
    st.text(max_size=8),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def loads_or_rejects(parse, *args):
    try:
        parse(*args)
    except PanelcastError:
        pass


# -- panel files ---------------------------------------------------------------

panel_rows = st.fixed_dictionaries(
    {},
    optional={
        "id": st.one_of(st.sampled_from(["a", "b", ""]), json_values),
        "start": st.one_of(
            st.sampled_from(
                ["2014-01-06", "2014-01-01T05:00:00", "2014-02-01", "2014-13-01",
                 "2014-01-06T00:00:00+05:00", ""]
            ),
            json_values,
        ),
        "freq": st.one_of(st.sampled_from(["H", "D", "W", "M", "X", ""]), json_values),
        "target": st.one_of(st.lists(scalars, max_size=12), json_values),
        "cat": st.one_of(st.integers(min_value=-3, max_value=2**21), json_values),
    },
)
panel_lines = st.one_of(panel_rows.map(json.dumps), json_values.map(json.dumps), st.text(max_size=30))


@given(st.lists(panel_lines, max_size=4))
@example(lines=['{"id": "a", "start": "2014-01-06", "freq": "D", "target": [1, 1%s]}' % ("0" * 400)])
@example(lines=["\udcff"])  # written as bytes that are not UTF-8
def test_load_jsonl_loads_or_rejects(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "panel.jsonl")
        with open(path, "w", encoding="utf-8", errors="surrogatepass") as fh:
            fh.write("\n".join(lines))
        loads_or_rejects(load_jsonl, path)


# -- model files ---------------------------------------------------------------

_, _MODEL = tiny_model(LikelihoodKind.NEG_BINOMIAL)
_MODEL_DOC = json.loads(model_to_bytes(_MODEL))


def _paths(doc, prefix=()):
    """Every key path of a nested dict, outermost first."""
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


_MODEL_PATHS = list(_paths(_MODEL_DOC))


def _model_blob(path, value=None, delete=False):
    """The valid model file with the value at key path `path` replaced,
    or deleted."""
    doc = json.loads(json.dumps(_MODEL_DOC))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(doc).encode("utf-8")


@st.composite
def model_blobs(draw):
    """A valid model file with one key replaced or deleted, possibly
    truncated; or arbitrary bytes."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=64))
    path = draw(st.sampled_from(_MODEL_PATHS))
    if draw(st.booleans()):
        blob = _model_blob(path, delete=True)
    else:
        blob = _model_blob(path, draw(json_values))
    cut = draw(st.integers(0, 3))
    return blob[: len(blob) * cut // 3] if cut else blob


@given(model_blobs())
@example(blob=_model_blob(("features", "mean"), 10**400))
@example(blob=_model_blob(("params", "lstm0.w"), {"shape": [], "data": "AAAAAAAA8D8="}))
def test_model_from_bytes_loads_or_rejects(blob):
    loads_or_rejects(model_from_bytes, blob)


# -- predict on a model file with one number replaced ----------------------------

_NEGBIN_DOC = json.loads(NEGBIN_FIXTURE.read_bytes())


def _number_lists(node, path=()):
    """(key path, length) of every number in a model document, as lists:
    a lone number has length None; a params block's numbers are its
    decoded data."""
    if isinstance(node, dict):
        if "data" in node:
            yield path, len(base64.b64decode(node["data"])) // 8
        for key, value in node.items():
            if key != "data":
                yield from _number_lists(value, path + (key,))
    elif isinstance(node, list):
        if node and all(type(v) in (int, float) for v in node):
            yield path, len(node)
    elif type(node) in (int, float):
        yield path, None


_NUMBER_LISTS = list(_number_lists(_NEGBIN_DOC))


@st.composite
def number_edits(draw):
    """(key path, index or None, value): one number of the negbin fixture
    and NaN, an infinity, 0 or a negative value to put in its place."""
    path, length = draw(st.sampled_from(_NUMBER_LISTS))
    index = None if length is None else draw(st.integers(0, length - 1))
    value = draw(st.sampled_from([math.nan, math.inf, -math.inf, 0.0]) | st.floats(-4.0, -1e-3))
    return path, index, value


@settings(max_examples=60)
@given(number_edits())
@example(edit=(("features", "std"), 0, 0.0))
@example(edit=(("features", "std"), 1, math.nan))
@example(edit=(("params", "lstm1.w"), 7, math.inf))
@example(edit=(("window", "prediction_length"), None, -1.0))
def test_predict_on_edited_model_forecasts_or_exits_2(edit):
    # predict on the fixture with one number replaced either writes finite
    # forecasts and nothing on stderr, or exits 2 with one line and writes
    # no file. Warnings count as stderr lines.
    with tempfile.TemporaryDirectory() as tmp:
        model, data, out = (os.path.join(tmp, name) for name in ("model", "counts.jsonl", "fc"))
        doc = json.loads(json.dumps(_NEGBIN_DOC))
        set_model_number(doc, *edit)
        with open(model, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        write_jsonl(data, count_rows())
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, redirect_stderr(err), \
                redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            rc = main(["predict", "--model", model, "--data", data, "--output", out,
                       "--samples", "5", "--horizon", "3"])
        lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
        if rc == 0:
            assert lines == []
            with open(out, encoding="utf-8") as fh:
                values = [v for line in fh for q in json.loads(line)["quantiles"].values() for v in q]
            assert len(values) == 3 * 2 * 3 and all(map(math.isfinite, values))
        else:
            assert rc == 2 and len(lines) == 1 and lines[0].startswith("error: "), lines
            assert sorted(os.listdir(tmp)) == ["counts.jsonl", "model"]


# -- forecast records ------------------------------------------------------------

records = st.fixed_dictionaries(
    {},
    optional={
        "id": json_values,
        "start": st.one_of(st.sampled_from(["2014-01-06", "2014-01-06T05:00:00", "x"]), json_values),
        "num_samples": st.one_of(st.integers(-2, 300), json_values),
        "seed": json_values,
        "quantiles": st.one_of(
            st.dictionaries(
                st.one_of(st.sampled_from(["0.1", "0.5", "nan", "x"]), st.text(max_size=4)),
                st.one_of(st.lists(scalars, max_size=4), json_values),
                max_size=3,
            ),
            json_values,
        ),
        "samples": st.one_of(st.lists(st.lists(scalars, max_size=3), max_size=3), json_values),
    },
)


def _record(**quantiles):
    return {"id": "a", "start": "2014-01-06", "num_samples": 4, "seed": 0,
            "quantiles": quantiles}


@given(st.one_of(records, json_values))
@example(obj=_record(**{"0.5": [1.0, 2.0], "0.9": [1.0]}))  # unequal lengths
@example(obj=_record(**{"0.5": 1.0}))  # a scalar, not an array
@example(obj=_record())  # no quantiles at all
def test_forecast_record_from_json_obj_loads_or_rejects(obj):
    # A record that loads has a horizon of at least 1 that every quantile
    # array shares.
    try:
        rec = ForecastRecord.from_json_obj(obj)
    except PanelcastError:
        return
    assert rec.horizon >= 1
    assert all(v.shape == (rec.horizon,) for v in rec.quantile_values.values())
