"""End-to-end tests of the command-line interface: exit codes, artifact
files (model, log, manifest, forecasts, reports), reproducibility, and
worker-count independence. Commands run in-process through main()."""

import base64
import json
import hashlib
import os
import subprocess
import sys
from datetime import datetime, timedelta

import numpy as np
import pytest

from panelcast import cli, evaluator
from panelcast.cli import _parse_spans, main
from panelcast.errors import DataError

from conftest import NEGBIN_FIXTURE, count_rows, set_model_number

START = datetime(2014, 1, 6)
N_STEPS = 60
HORIZON = 4

CONFIG_TEXT = """\
likelihood = gaussian
conditioning_length = 8
prediction_length = 4
num_layers = 1
hidden_units = 8
embedding_dim = 2
batch_size = 16
learning_rate = 0.01
max_batches = 40
patience = 3
windows_per_epoch = 128
seed = 0
"""


def _rows(num_series=12, n=N_STEPS, seed=1):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(num_series):
        t = np.arange(n)
        vals = 8.0 + 4.0 * np.sin(2 * np.pi * t / 7 + i) + rng.normal(0, 0.4, n)
        vals = np.clip(vals, 0.1, None)
        rows.append(
            {
                "id": f"s{i}",
                "start": START.isoformat(),
                "freq": "D",
                "target": [round(float(v), 4) for v in vals],
                "cat": i % 2,
            }
        )
    return rows


def _write_rows(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rows = _rows()
    data = _write_rows(root / "panel.jsonl", rows)
    config = root / "train.cfg"
    config.write_text(CONFIG_TEXT, encoding="utf-8")
    model = root / "model.bin"
    rc = main(["train", "--data", data, "--config", str(config), "--output", str(model)])
    assert rc == 0
    return {"root": root, "rows": rows, "data": data, "config": str(config), "model": str(model)}


def _sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_missing_required_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--output", "/tmp/x.bin"])
    assert exc.value.code == 2


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_validation_failures_exit_2(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json\n", encoding="utf-8")
    assert main(["train", "--data", str(bad), "--output", str(tmp_path / "m.bin")]) == 2
    assert "error:" in capsys.readouterr().err

    out = str(tmp_path / "fc.jsonl")
    args = ["predict", "--model", workdir["model"], "--data", workdir["data"], "--output", out]
    assert main(args + ["--samples", "0"]) == 2
    assert main(args + ["--quantiles", "0.5,1.5"]) == 2

    assert main(["evaluate", "--truth", workdir["data"]]) == 2  # no --forecasts
    assert main(["evaluate", "--truth", workdir["data"], "--rolling", "2:2"]) == 2  # no --model
    assert (
        main(
            ["evaluate", "--truth", workdir["data"], "--rolling", "2x2",
             "--model", workdir["model"]]
        )
        == 2
    )


def test_unseen_category_exits_2(workdir, tmp_path, capsys):
    # the model was trained on cat 0 and 1 only
    rows = _rows(num_series=3)
    rows[1]["cat"] = 999
    data = _write_rows(tmp_path / "newcat.jsonl", rows)
    rc = main(["predict", "--model", workdir["model"], "--data", data,
               "--output", str(tmp_path / "fc.jsonl")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "category 999" in err and "'s1'" in err
    assert not (tmp_path / "fc.jsonl").exists()
    rc = main(["evaluate", "--truth", data, "--model", workdir["model"], "--rolling", "2:2"])
    assert rc == 2
    assert "category 999" in capsys.readouterr().err


def test_model_file_missing_key_exits_2(workdir, tmp_path, capsys):
    doc = json.loads(open(workdir["model"], "rb").read())
    del doc["window"]
    model = tmp_path / "nowindow.bin"
    model.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["predict", "--model", str(model), "--data", workdir["data"],
               "--output", str(tmp_path / "fc.jsonl")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "window" in err


def test_model_file_non_bool_scaling_exits_2(workdir, tmp_path, capsys):
    doc = json.loads(open(workdir["model"], "rb").read())
    assert "scaling" not in doc  # a scaled model's file does not name it
    doc["scaling"] = "false"
    model = tmp_path / "badscaling.bin"
    model.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "fc.jsonl"
    rc = main(["predict", "--model", str(model), "--data", workdir["data"], "--output", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "scaling must be true or false" in err
    assert not out.exists()


@pytest.mark.parametrize("block, shape", [("head.w_mu", (7,)), ("head.w_disp", (8, 1))])
def test_model_file_malformed_head_weights_exit_2(workdir, tmp_path, capsys, block, shape):
    # The trained model has 8 hidden units; a head weight of another shape
    # would otherwise fail inside the heads' product.
    doc = json.loads(open(workdir["model"], "rb").read())
    data = base64.b64encode(np.zeros(shape).astype("<f8").tobytes()).decode("ascii")
    doc["params"][block] = {"shape": list(shape), "data": data}
    model = tmp_path / "badhead.bin"
    model.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "fc.jsonl"
    rc = main(["predict", "--model", str(model), "--data", workdir["data"], "--output", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and block in err
    assert not out.exists()


@pytest.mark.parametrize("path, index, value", [
    (("features", "std"), 0, 0.0),
    (("features", "std"), 1, float("nan")),
    (("features", "std"), 0, -2.0),
    (("features", "std"), 1, float("inf")),
    (("features", "mean"), 0, float("-inf")),
    (("params", "lstm0.w"), 5, float("nan")),
    (("params", "embedding"), 1, float("inf")),
    (("params", "head.b_disp"), 0, float("nan")),
])
def test_model_file_bad_number_exits_2_before_forecasting(workdir, tmp_path, capsys, monkeypatch,
                                                          path, index, value):
    # A feature std of 0 once forecast from infinite features, with a
    # warning, and a NaN weight failed with exit 1 after the encode work.
    doc = json.loads(open(workdir["model"], "rb").read())
    set_model_number(doc, path, index, value)
    model = tmp_path / "bad.bin"
    model.write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.setattr(cli, "forecast_panel", None)  # reached only by a bug
    out = tmp_path / "fc.jsonl"
    rc = main(["predict", "--model", str(model), "--data", workdir["data"], "--output", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: model file: ") and path[-1] in err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("block, index, value", [
    ("embedding", slice(None), 1e39),
    ("lstm0.w", 7, -1e39),
    ("lstm2.b", 0, 4e38),
])
def test_model_value_past_float32_range_exits_2(tmp_path, capsys, block, index, value):
    # Validation, encode and decode step the LSTM and its embedding inputs
    # in float32, where these values are infinite. The benchmark's count
    # model with every embedding value 1e39 once failed only in decoding,
    # with "non-finite distribution parameters during decoding".
    doc = json.loads(NEGBIN_FIXTURE.read_bytes())
    set_model_number(doc, ("params", block), index, value)
    model = tmp_path / "big.model"
    model.write_text(json.dumps(doc), encoding="utf-8")
    data = _write_rows(tmp_path / "counts.jsonl", count_rows())
    out = tmp_path / "fc.jsonl"
    rc = main(["predict", "--model", str(model), "--data", data, "--output", str(out),
               "--samples", "5", "--horizon", "3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: model file: {block} holds a value past the float32 range\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("count", [2.0**53, 2.0**53 + 2, 1e308])
def test_predict_counts_beyond_exact_integers_exit_2(tmp_path, capsys, count):
    # Above 2**53 not every integer is a float64, so the count check cannot
    # hold; a count of 1e308 once forecast medians near 1e306, with
    # overflow warnings from the sampler and lgamma.
    data = _write_rows(tmp_path / "counts.jsonl", count_rows(big=count))
    out = tmp_path / "fc.jsonl"
    rc = main(["predict", "--model", str(NEGBIN_FIXTURE), "--data", data, "--output", str(out),
               "--samples", "5", "--horizon", "3"])
    err = capsys.readouterr().err
    if count <= 2.0**53:
        assert rc == 0 and err == ""
        assert all(np.isfinite(v).all() for line in out.read_text().splitlines()
                   for v in json.loads(line)["quantiles"].values())
    else:
        assert rc == 2
        assert err.count("\n") == 1 and "series 'c1': target[20]" in err and "2**53" in err
        assert not out.exists()


def test_rolling_evaluate_checks_counts_for_a_count_model(tmp_path, capsys):
    # The rolling backtest conditions the model on the truth panel, which
    # once went unchecked: a count of 2.5 was forecast from silently.
    data = _write_rows(tmp_path / "counts.jsonl", count_rows(big=2.5))
    out = tmp_path / "report.json"
    rc = main(["evaluate", "--truth", data, "--rolling", "2:3", "--model", str(NEGBIN_FIXTURE),
               "--samples", "5", "--output", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "series 'c1': target[20] = 2.5 is not an integer" in err
    assert not out.exists()


def test_missing_input_file_is_runtime_error(tmp_path, capsys):
    rc = main(["stats", "--data", str(tmp_path / "nope.jsonl")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_metric_failure_exits_1(workdir, tmp_path, capsys):
    # forecast for a series the truth panel does not contain
    rec = {
        "id": "ghost",
        "start": START.isoformat(),
        "num_samples": 4,
        "seed": 0,
        "quantiles": {"0.5": [1.0]},
    }
    fc = tmp_path / "ghost.jsonl"
    fc.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    rc = main(["evaluate", "--truth", workdir["data"], "--forecasts", str(fc)])
    assert rc == 1
    assert "ghost" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train artifacts
# ---------------------------------------------------------------------------


def test_train_wrote_model_log_manifest(workdir, capsys):
    model = workdir["model"]
    assert open(model, "rb").read(4) != b""
    log_text = open(model + ".log", "r", encoding="utf-8").read()
    assert "# stopped:" in log_text
    header, *rest = [l for l in log_text.splitlines() if l and not l.startswith("#")]
    assert header.split("\t")[0] == "epoch"
    assert len(rest) >= 1

    manifest = json.load(open(model + ".manifest.json"))
    assert manifest["command"] == "train"
    assert manifest["options"]["hidden_units"] == 8
    assert manifest["options"]["likelihood"] == "gaussian"
    assert manifest["inputs"]["data"]["sha256"] == _sha(workdir["data"])
    assert manifest["inputs"]["config"]["sha256"] == _sha(workdir["config"])
    assert manifest["outputs"]["primary"]["sha256"] == _sha(model)


def test_train_reruns_are_byte_identical(workdir, tmp_path):
    out = tmp_path / "again.bin"
    rc = main(
        ["train", "--data", workdir["data"], "--config", workdir["config"],
         "--output", str(out)]
    )
    assert rc == 0
    assert open(out, "rb").read() == open(workdir["model"], "rb").read()


def test_train_seed_flag_overrides_config(workdir, tmp_path):
    out = tmp_path / "seeded.bin"
    rc = main(
        ["train", "--data", workdir["data"], "--config", workdir["config"],
         "--output", str(out), "--seed", "99"]
    )
    assert rc == 0
    assert open(out, "rb").read() != open(workdir["model"], "rb").read()
    manifest = json.load(open(str(out) + ".manifest.json"))
    assert manifest["options"]["seed"] == 99


def test_grid_search_records_candidates(workdir, tmp_path):
    out = tmp_path / "grid.bin"
    rc = main(
        ["train", "--data", workdir["data"], "--config", workdir["config"],
         "--output", str(out), "--grid", "hidden_units=4,8"]
    )
    assert rc == 0
    manifest = json.load(open(str(out) + ".manifest.json"))
    grid = manifest["grid"]
    assert [g["hidden_units"] for g in grid] == [4, 8]
    assert all(np.isfinite(g["val_nll"]) for g in grid)
    best = min(grid, key=lambda g: g["val_nll"])
    assert manifest["options"]["hidden_units"] == best["hidden_units"]


# ---------------------------------------------------------------------------
# predict artifacts
# ---------------------------------------------------------------------------


def test_predict_single_quantile(workdir, tmp_path):
    out = tmp_path / "fc.jsonl"
    rc = main(
        ["predict", "--model", workdir["model"], "--data", workdir["data"],
         "--output", str(out), "--quantiles", "0.5", "--samples", "25"]
    )
    assert rc == 0
    lines = open(out).read().splitlines()
    assert len(lines) == 12
    for line in lines:
        obj = json.loads(line)
        assert list(obj["quantiles"]) == ["0.5"]
        assert len(obj["quantiles"]["0.5"]) == HORIZON
        assert obj["num_samples"] == 25
        assert "samples" not in obj


def test_predict_default_sample_count(workdir, tmp_path):
    out = tmp_path / "fc200.jsonl"
    rc = main(
        ["predict", "--model", workdir["model"], "--data", workdir["data"],
         "--output", str(out)]
    )
    assert rc == 0
    manifest = json.load(open(str(out) + ".manifest.json"))
    assert manifest["options"]["samples"] == 200
    first = json.loads(open(out).readline())
    assert first["num_samples"] == 200


def test_predict_fixed_seed_reproducible(workdir, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["predict", "--model", workdir["model"], "--data", workdir["data"],
            "--samples", "30", "--seed", "5"]
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    c = tmp_path / "c.jsonl"
    assert main(
        ["predict", "--model", workdir["model"], "--data", workdir["data"],
         "--samples", "30", "--seed", "6", "--output", str(c)]
    ) == 0
    assert open(a, "rb").read() != open(c, "rb").read()


def test_predict_worker_count_does_not_change_output(workdir, tmp_path):
    files = {}
    for workers in (1, 4):
        out = tmp_path / f"w{workers}.jsonl"
        rc = main(
            ["predict", "--model", workdir["model"], "--data", workdir["data"],
             "--output", str(out), "--samples", "40", "--seed", "2",
             "--workers", str(workers), "--emit-samples"]
        )
        assert rc == 0
        files[workers] = open(out, "rb").read()
    assert files[1] == files[4]


def test_predict_output_independent_of_blas_threads(workdir, tmp_path):
    # Fresh processes, one with a single BLAS thread and one with the
    # inherited default; the variable is set on the child only.
    import panelcast

    src = os.path.dirname(os.path.dirname(os.path.abspath(panelcast.__file__)))
    outputs = []
    for threads in ("1", None):
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"fc-{threads}.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "panelcast.cli", "predict", "--model", workdir["model"],
             "--data", workdir["data"], "--output", str(out), "--samples", "150",
             "--seed", "4", "--emit-samples"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_train_output_independent_of_blas_threads(workdir, tmp_path):
    # As for predict: fresh processes under one BLAS thread and under the
    # inherited default. The layers are wide enough that OpenBLAS would
    # split the weight-gradient products over threads.
    import panelcast

    src = os.path.dirname(os.path.dirname(os.path.abspath(panelcast.__file__)))
    config = tmp_path / "wide.cfg"
    config.write_text(
        CONFIG_TEXT.replace("num_layers = 1", "num_layers = 2")
        .replace("hidden_units = 8", "hidden_units = 40")
        .replace("batch_size = 16", "batch_size = 64")
        .replace("max_batches = 40", "max_batches = 6"),
        encoding="utf-8",
    )
    outputs = []
    for threads in ("1", None):
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"model-{threads}.bin"
        proc = subprocess.run(
            [sys.executable, "-m", "panelcast.cli", "train", "--data", workdir["data"],
             "--config", str(config), "--output", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_forecasting_commands_load_neither_numpy_random_nor_openssl(workdir, tmp_path):
    # Every command derives its random draws and manifest digests without
    # numpy.random or hashlib's OpenSSL backend, both of which raise a
    # fresh process's peak RSS.
    import panelcast

    src = os.path.dirname(os.path.dirname(os.path.abspath(panelcast.__file__)))
    model, fc, report, rolling = (
        str(tmp_path / name) for name in ("model.bin", "fc.jsonl", "r.json", "roll.json")
    )
    history = _write_rows(tmp_path / "history.jsonl",
                          [dict(r, target=r["target"][:-HORIZON]) for r in workdir["rows"]])
    commands = [
        ["train", "--data", workdir["data"], "--config", workdir["config"], "--output", model],
        ["predict", "--model", workdir["model"], "--data", history, "--output", fc,
         "--samples", "20", "--emit-samples"],
        ["evaluate", "--truth", workdir["data"], "--forecasts", fc, "--spans", "0:1,0:4",
         "--output", report],
        ["evaluate", "--truth", workdir["data"], "--model", workdir["model"],
         "--rolling", "2:2", "--samples", "20", "--output", rolling],
    ]
    code = (
        "import json, sys\n"
        "from panelcast.cli import main\n"
        f"rcs = [main(argv) for argv in {commands!r}]\n"
        "print(json.dumps([rcs, [m for m in ('numpy.random', '_hashlib') if m in sys.modules]]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    rcs, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert rcs == [0, 0, 0, 0], proc.stderr
    assert loaded == []
    assert open(model, "rb").read() == open(workdir["model"], "rb").read()
    for path in (model, fc, report, rolling):
        manifest = json.load(open(path + ".manifest.json"))
        assert manifest["outputs"]["primary"]["sha256"] == _sha(path)


def test_predict_granularity_mismatch(workdir, tmp_path, capsys):
    rows = _rows(num_series=2)
    for row in rows:
        row["freq"] = "H"
    data = _write_rows(tmp_path / "hourly.jsonl", rows)
    rc = main(
        ["predict", "--model", workdir["model"], "--data", data,
         "--output", str(tmp_path / "x.jsonl")]
    )
    assert rc == 2
    assert "hourly" in capsys.readouterr().err


def test_predict_empty_conditioning_range_exits_2(workdir, tmp_path, capsys):
    # s1 has observations, but none in the 8 steps the model conditions on.
    rows = _rows(num_series=3)
    rows[1]["target"][-8:] = [None] * 8
    data = _write_rows(tmp_path / "tailgap.jsonl", rows)
    out = tmp_path / "fc.jsonl"
    rc = main(["predict", "--model", workdir["model"], "--data", data, "--output", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'s1': no observed value in the conditioning range" in err
    assert not out.exists()


def test_predict_failing_mid_stream_leaves_no_file(workdir, tmp_path, monkeypatch, capsys):
    # Records stream into the temporary file while later series are still
    # being forecast; a failure then leaves neither it nor the output.
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    real = cli.forecast_panel

    def failing_panel(*args, **kwargs):
        forecasts = real(*args, **kwargs)
        yield next(forecasts)
        yield next(forecasts)
        assert any(p.name.startswith(".tmp-") for p in out_dir.iterdir())
        raise DataError("series 's2': failed mid-stream")

    monkeypatch.setattr(cli, "forecast_panel", failing_panel)
    rc = main(["predict", "--model", workdir["model"], "--data", workdir["data"],
               "--output", str(out_dir / "fc.jsonl")])
    assert rc == 2
    assert "failed mid-stream" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


def _negative_seed_argv(workdir, tmp_path, out, command):
    if command == "train-flag":
        return ["train", "--data", workdir["data"], "--config", workdir["config"],
                "--output", str(out / "m.bin"), "--seed", "-1"]
    if command == "train-config":
        config = tmp_path / "negative.cfg"
        config.write_text(CONFIG_TEXT.replace("seed = 0", "seed = -1"), encoding="utf-8")
        return ["train", "--data", workdir["data"], "--config", str(config),
                "--output", str(out / "m.bin")]
    if command == "predict":
        return ["predict", "--model", workdir["model"], "--data", workdir["data"],
                "--output", str(out / "fc.jsonl"), "--seed", "-1"]
    return ["evaluate", "--truth", workdir["data"], "--model", workdir["model"],
            "--rolling", "2:3", "--seed", "-3", "--output", str(out / "report.json")]


@pytest.mark.parametrize("command", ["train-flag", "train-config", "predict", "evaluate"])
def test_negative_seed_exits_2(workdir, tmp_path, capsys, command):
    out = tmp_path / "out"
    out.mkdir()
    rc = main(_negative_seed_argv(workdir, tmp_path, out, command))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "seed must be a non-negative integer" in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_learning_rate_exits_2(workdir, tmp_path, capsys, value):
    config = tmp_path / "lr.cfg"
    config.write_text(CONFIG_TEXT.replace("learning_rate = 0.01", f"learning_rate = {value}"),
                      encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["train", "--data", workdir["data"], "--config", str(config),
               "--output", str(out / "m.bin")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "learning_rate must be finite and positive" in err
    assert list(out.iterdir()) == []


@pytest.mark.filterwarnings("error")
def test_learning_rate_past_float32_weights_fails_in_one_line(workdir, tmp_path, capsys):
    # One Adam step moves every weight by about the learning rate, past the
    # float32 range that validation and predict step the LSTM in: a model
    # predict would reject is not written.
    config = tmp_path / "lr.cfg"
    config.write_text(CONFIG_TEXT.replace("learning_rate = 0.01", "learning_rate = 1e40"),
                      encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["train", "--data", workdir["data"], "--config", str(config),
               "--output", str(out / "m.bin")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("holds a value past the float32 range\n"), err
    assert list(out.iterdir()) == []


def _overflow_argv(workdir, tmp_path, out, command):
    # Finite targets whose sum is past the float range, in one series of
    # a small panel.
    rows = workdir["rows"][:3] + [dict(workdir["rows"][3], target=[1e308, 1e308, 3.0])]
    data = _write_rows(tmp_path / "overflow.jsonl", rows)
    if command == "stats":
        return ["stats", "--data", data, "--output", str(out / "stats.tsv")]
    if command == "train":
        return ["train", "--data", data, "--config", workdir["config"],
                "--output", str(out / "m.bin")]
    return ["predict", "--model", workdir["model"], "--data", data,
            "--output", str(out / "fc.jsonl")]


@pytest.mark.parametrize("command", ["stats", "train", "predict"])
def test_targets_summing_past_float_range_exit_2(workdir, tmp_path, capsys, command):
    out = tmp_path / "out"
    out.mkdir()
    rc = main(_overflow_argv(workdir, tmp_path, out, command))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "series 's3': observed targets sum past the float range" in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("factor", [1e100, 1e150])
def test_unscaled_gaussian_train_on_huge_targets_fails_in_one_line(tmp_path, factor):
    # Counts of levels 1 to 1000, times 1e100 or 1e150, trained without
    # scaling: every batch's gradient norm (1e100) or summed NLL (1e150)
    # overflows, so both batches are skipped as divergent. The run ends
    # with one line on stderr, no warning, and writes no model: the
    # untrained init is not a trained model. A fresh process, so that
    # stderr holds everything the command prints.
    import panelcast

    rng = np.random.default_rng(5)
    rows = [{"id": f"s{i}", "start": START.isoformat(), "freq": "D",
             "target": (rng.poisson(10.0 ** (i / 3), 120) * factor).tolist(), "cat": i % 2}
            for i in range(10)]
    data = _write_rows(tmp_path / "huge.jsonl", rows)
    config = tmp_path / "unscaled.cfg"
    config.write_text("likelihood = gaussian\nno_scaling = true\nmax_batches = 2\n",
                      encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(panelcast.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "panelcast.cli", "train", "--data", data,
         "--config", str(config), "--output", str(out / "m.bin")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: "), proc.stderr
    assert "diverge" in proc.stderr or "overflows" in proc.stderr
    assert list(out.iterdir()) == []


def _succeeds_or_fails_in_one_line(argv, output, capsys) -> int:
    """Run one command: it either exits 0 with empty stderr and writes
    `output`, or exits 1 or 2 with one stderr line and writes nothing.
    Returns the exit code."""
    rc = main(argv)
    err = capsys.readouterr().err
    if rc == 0:
        assert err == "" and output.exists(), err
    else:
        assert rc in (1, 2)
        assert err.count("\n") == 1 and err.startswith("error: "), err
        assert not output.exists()
    return rc


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("exponent", [0, 20, 40, 50, 100, 150, 200, 250, 300, 305, 307])
@pytest.mark.parametrize("scaling", [True, False], ids=["scaled", "unscaled"])
@pytest.mark.parametrize("likelihood", ["gaussian", "negbin"])
def test_train_on_targets_of_any_magnitude_succeeds_or_fails_in_one_line(
        tmp_path, capsys, likelihood, scaling, exponent):
    # Counts of levels 1 to 1000 times 10**exponent, two batches; at 307
    # the larger counts are past the float range, which the loader
    # rejects. Unscaled inputs from 1e40 on are past the float32 range of
    # the validation slab. A model that trains forecasts the panel's history without its
    # last 12 steps, and is scored on the whole panel from those forecasts
    # and by a rolling backtest. Each command either succeeds silently or
    # fails with one line and writes nothing; a floating-point warning
    # fails the test.
    rng = np.random.default_rng(5)
    with np.errstate(over="ignore"):
        rows = [{"id": f"s{i}", "start": START.isoformat(), "freq": "D",
                 "target": (rng.poisson(10.0 ** (i / 3), 120) * 10.0**exponent).tolist(),
                 "cat": i % 2} for i in range(10)]
    data = _write_rows(tmp_path / "scaled.jsonl", rows)
    history = _write_rows(tmp_path / "history.jsonl",
                          [dict(row, target=row["target"][:-12]) for row in rows])
    config = tmp_path / "train.cfg"
    config.write_text(f"likelihood = {likelihood}\nno_scaling = {str(not scaling).lower()}\n"
                      "max_batches = 2\n", encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    model = out / "m.bin"
    if _succeeds_or_fails_in_one_line(
            ["train", "--data", data, "--config", str(config), "--output", str(model)],
            model, capsys):
        assert list(out.iterdir()) == []
        return
    forecasts = out / "fc.jsonl"
    if not _succeeds_or_fails_in_one_line(
            ["predict", "--model", str(model), "--data", history, "--samples", "20",
             "--output", str(forecasts)], forecasts, capsys):
        report = out / "report.json"
        _succeeds_or_fails_in_one_line(
            ["evaluate", "--truth", data, "--forecasts", str(forecasts), "--output", str(report)],
            report, capsys)
    rolling = out / "rolling.json"
    _succeeds_or_fails_in_one_line(
        ["evaluate", "--truth", data, "--model", str(model), "--rolling", "2:3",
         "--samples", "20", "--output", str(rolling)], rolling, capsys)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def _perfect_forecasts(workdir, tmp_path, with_samples=False):
    """Forecast records whose quantiles equal the realized tail values."""
    path = tmp_path / "perfect.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for row in workdir["rows"]:
            tail = row["target"][-HORIZON:]
            start = START + timedelta(days=N_STEPS - HORIZON)
            obj = {
                "id": row["id"],
                "start": start.isoformat(),
                "num_samples": 3,
                "seed": 0,
                "quantiles": {"0.5": tail, "0.9": tail},
            }
            if with_samples:
                obj["samples"] = [tail, tail, tail]
            fh.write(json.dumps(obj) + "\n")
    return str(path)


def test_evaluate_perfect_forecast_scores_zero(workdir, tmp_path, capsys):
    fc = _perfect_forecasts(workdir, tmp_path)
    report_path = tmp_path / "report.json"
    rc = main(
        ["evaluate", "--truth", workdir["data"], "--forecasts", fc,
         "--output", str(report_path)]
    )
    assert rc == 0
    table = capsys.readouterr().out
    assert "ND\t0.000000" in table
    report = json.loads(open(report_path).read())
    assert report["nd"] == 0.0
    assert report["rmse"] == 0.0
    assert all(v == 0.0 for v in report["risks"].values())
    assert report["levels"] == ["0.5", "0.9"]  # taken from the forecast file
    manifest = json.load(open(str(report_path) + ".manifest.json"))
    assert manifest["inputs"]["forecasts"]["sha256"] == _sha(fc)


def _aware_start(obj):
    obj["start"] += "+00:00"


def _unequal_lengths(obj):
    obj["quantiles"]["0.9"] = obj["quantiles"]["0.9"][:2]


def _scalar_quantile(obj):
    obj["quantiles"] = {"0.5": 1.0}


def _empty_quantiles(obj):
    obj["quantiles"] = {}


def _nan_quantile(obj):
    obj["quantiles"]["0.9"][1] = float("nan")


def _extra_sample_column(obj):
    obj["samples"] = [obj["quantiles"]["0.5"] + [1.0]] * 3


def _missing_sample_column(obj):
    obj["samples"] = [obj["quantiles"]["0.5"][:-1]] * 3


def _nan_sample(obj):
    obj["samples"] = [obj["quantiles"]["0.5"]] * 3
    obj["samples"][1] = [float("nan")] * len(obj["samples"][1])


def _no_sample_rows(obj):
    obj["samples"] = []


def _flat_samples(obj):
    obj["samples"] = obj["quantiles"]["0.5"]


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_aware_start, "UTC offset"),
        (_unequal_lengths, "one common length"),
        (_scalar_quantile, "one common length"),
        (_empty_quantiles, "one common length"),
        (_nan_quantile, "quantile values must be finite"),
        (_extra_sample_column, f"samples must be a matrix of at least one row and {HORIZON} columns"),
        (_missing_sample_column, f"samples must be a matrix of at least one row and {HORIZON} columns"),
        (_nan_sample, "samples must be finite"),
        (_no_sample_rows, "samples must be a matrix"),
        (_flat_samples, "samples must be a matrix"),
    ],
)
def test_evaluate_malformed_forecast_exits_2(workdir, tmp_path, capsys, corrupt, message):
    lines = open(_perfect_forecasts(workdir, tmp_path)).read().splitlines()
    obj = json.loads(lines[1])
    corrupt(obj)
    lines[1] = json.dumps(obj)
    fc = tmp_path / "malformed.jsonl"
    fc.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(["evaluate", "--truth", workdir["data"], "--forecasts", str(fc)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def test_evaluate_repeated_record_exits_1(workdir, tmp_path, capsys):
    lines = open(_perfect_forecasts(workdir, tmp_path)).read().splitlines()
    fc = tmp_path / "repeated.jsonl"
    fc.write_text("\n".join(lines + lines[1:2]) + "\n", encoding="utf-8")
    out = tmp_path / "report.json"
    rc = main(["evaluate", "--truth", workdir["data"], "--forecasts", str(fc), "--output", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    sid = json.loads(lines[1])["id"]
    assert err.count("\n") == 1 and f"series {sid!r}: the forecasts repeat the record" in err
    assert not out.exists()


def test_spans_string_parses_into_pairs():
    assert _parse_spans("0:1,2:1,0:8") == [(0, 1), (2, 1), (0, 8)]


def test_evaluate_multi_span_needs_samples(workdir, tmp_path, capsys):
    fc = _perfect_forecasts(workdir, tmp_path)
    rc = main(
        ["evaluate", "--truth", workdir["data"], "--forecasts", fc,
         "--spans", "0:1,0:2"]
    )
    assert rc == 2
    assert "--emit-samples" in capsys.readouterr().err


def test_evaluate_multi_span_with_samples(workdir, tmp_path, capsys):
    fc = _perfect_forecasts(workdir, tmp_path, with_samples=True)
    rc = main(
        ["evaluate", "--truth", workdir["data"], "--forecasts", fc,
         "--spans", f"0:1,0:{HORIZON}"]
    )
    assert rc == 0
    table = capsys.readouterr().out
    assert f"risk[0:{HORIZON}@0.5]\t0.000000" in table


def test_evaluate_rolling_backtest(workdir, tmp_path, capsys):
    out = tmp_path / "rolling.json"
    rc = main(
        ["evaluate", "--truth", workdir["data"], "--model", workdir["model"],
         "--rolling", "2:2", "--samples", "25", "--output", str(out)]
    )
    assert rc == 0
    assert "ND\t" in capsys.readouterr().out
    doc = json.loads(open(out).read())
    assert len(doc["windows"]) == 2
    assert doc["pooled"]["n_series"] == 24  # 12 series x 2 windows
    assert set(doc["pooled"]["risks"]) == {"0:1@0.5", "0:1@0.9"}


@pytest.mark.parametrize(
    "options, message",
    [
        (["--rolling", "3:2", "--spans", f"0:1,0:{HORIZON + 1}"],
         f"span [0, {HORIZON + 1}) does not fit the model's prediction length {HORIZON}"),
        (["--rolling", "0:3"], "COUNT >= 1 and STRIDE >= 1, got 0:3"),
        (["--rolling", "2:0"], "COUNT >= 1 and STRIDE >= 1, got 2:0"),
        (["--rolling", "2:2", "--spans=-1:2"], "bad span '-1:2'"),
        (["--rolling", "2:2", "--spans", "0:1,1:0"], "bad span '1:0'"),
        (["--forecasts", "never-read.jsonl", "--spans", "0:-1"], "bad span '0:-1'"),
    ],
    ids=["span-past-horizon", "count-0", "stride-0", "lead-negative", "length-0", "forecasts-length-negative"],
)
def test_bad_spans_and_rolling_exit_2_before_forecasting(
    workdir, tmp_path, capsys, monkeypatch, options, message
):
    def no_forecast(*args, **kwargs):
        raise AssertionError("forecast_panel was called")

    monkeypatch.setattr(evaluator, "forecast_panel", no_forecast)
    out = tmp_path / "out"
    out.mkdir()
    argv = ["evaluate", "--truth", workdir["data"], "--output", str(out / "report.json")]
    if "--rolling" in options:
        argv += ["--model", workdir["model"]]
    rc = main(argv + options)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert list(out.iterdir()) == []


def test_forecasts_span_past_horizon_exits_2_before_align(workdir, tmp_path, capsys, monkeypatch):
    def no_align(*args, **kwargs):
        raise AssertionError("align was called")

    monkeypatch.setattr(cli, "align", no_align)
    fc = _perfect_forecasts(workdir, tmp_path, with_samples=True)
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["evaluate", "--truth", workdir["data"], "--forecasts", fc,
               "--spans", f"0:1,0:{HORIZON + 1}", "--output", str(out / "report.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"span [0, {HORIZON + 1}) does not fit the forecasts' horizon {HORIZON}" in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "options, message",
    [
        (["--levels", "0.5,0.95"], "forecasts have no 0.95 quantile (available: [0.5, 0.9])"),
        (["--spans", "0:1,1:3"], "span [1, 4) is longer than one step and needs the sample"),
    ],
    ids=["level-missing", "long-span-without-samples"],
)
def test_forecasts_option_first_record_cannot_serve_exits_2_before_align(
    workdir, tmp_path, capsys, monkeypatch, options, message
):
    def no_align(*args, **kwargs):
        raise AssertionError("align was called")

    monkeypatch.setattr(cli, "align", no_align)
    fc = _perfect_forecasts(workdir, tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["evaluate", "--truth", workdir["data"], "--forecasts", fc, *options,
               "--output", str(out / "report.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert message in err
    assert list(out.iterdir()) == []


def test_forecasts_levels_and_spans_served_by_samples(workdir, tmp_path, capsys):
    # With sample matrices any level and any span that fits can be scored.
    fc = _perfect_forecasts(workdir, tmp_path, with_samples=True)
    rc = main(["evaluate", "--truth", workdir["data"], "--forecasts", fc,
               "--levels", "0.5,0.95", "--spans", "0:1,1:3"])
    assert rc == 0
    assert "risk[1:3@0.95]\t0.000000" in capsys.readouterr().out


def test_rolling_nd_rmse_without_median_level(workdir, tmp_path):
    # ND and RMSE take the median from the sample paths, so a level list
    # without 0.5 scores them as the one with it does.
    docs = []
    for levels in ("0.9", "0.5,0.9"):
        out = tmp_path / f"rolling-{levels}.json"
        rc = main(["evaluate", "--truth", workdir["data"], "--model", workdir["model"],
                   "--rolling", "2:3", "--samples", "25", "--levels", levels,
                   "--output", str(out)])
        assert rc == 0
        docs.append(json.loads(out.read_text()))
    for report in ("nd", "rmse"):
        assert docs[0]["pooled"][report] == docs[1]["pooled"][report]
        assert [w[report] for w in docs[0]["windows"]] == [w[report] for w in docs[1]["windows"]]


def test_forecasts_with_samples_without_median_level(workdir, tmp_path):
    history = _write_rows(tmp_path / "history.jsonl",
                          [dict(r, target=r["target"][:-HORIZON]) for r in workdir["rows"]])
    reports = []
    for levels in ("0.9", "0.5,0.9"):
        fc, out = tmp_path / f"fc-{levels}.jsonl", tmp_path / f"report-{levels}.json"
        assert main(["predict", "--model", workdir["model"], "--data", history,
                     "--output", str(fc), "--samples", "25", "--quantiles", levels,
                     "--emit-samples"]) == 0
        assert main(["evaluate", "--truth", workdir["data"], "--forecasts", str(fc),
                     "--levels", "0.9", "--output", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_forecasts_without_median_level_exit_2_before_align(workdir, tmp_path, capsys,
                                                            monkeypatch):
    def no_align(*args, **kwargs):
        raise AssertionError("align was called")

    monkeypatch.setattr(cli, "align", no_align)
    lines = open(_perfect_forecasts(workdir, tmp_path)).read().splitlines()
    objs = [json.loads(line) for line in lines]
    for obj in objs:
        del obj["quantiles"]["0.5"]
    fc = _write_rows(tmp_path / "p90.jsonl", objs)
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["evaluate", "--truth", workdir["data"], "--forecasts", fc,
               "--output", str(out / "report.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "forecasts have no 0.5 quantile (available: [0.9])" in err
    assert list(out.iterdir()) == []


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


def test_stats_single_series(tmp_path, capsys):
    data = _write_rows(tmp_path / "one.jsonl", _rows(num_series=1))
    assert main(["stats", "--data", data]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    edge, count = lines[0].split("\t")
    assert int(count) == 1


def test_stats_target_beyond_float_range_exits_2(tmp_path, capsys):
    rows = _rows(num_series=1)
    path = tmp_path / "huge.jsonl"
    path.write_text(json.dumps(rows[0]).replace('"target": [', '"target": [1' + "0" * 400 + ", "))
    assert main(["stats", "--data", str(path)]) == 2
    err = capsys.readouterr().err
    assert "target[0] must be a finite number or null" in err
    assert "Traceback" not in err


def test_stats_bucket_counts_sum_to_series(workdir, tmp_path, capsys):
    out = tmp_path / "hist.tsv"
    assert main(["stats", "--data", workdir["data"], "--output", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines  # only non-empty buckets are printed
    total = sum(int(line.split("\t")[1]) for line in lines)
    assert total == 12
    assert all(int(line.split("\t")[1]) > 0 for line in lines)
    assert open(out).read() == "\n".join(lines) + "\n"
    manifest = json.load(open(str(out) + ".manifest.json"))
    assert manifest["command"] == "stats"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("big", [None, 1e200])
def test_evaluate_metric_overflow_exits_2(tmp_path, capsys, big):
    # A truth value of 1e200 is finite, but its squared residual is not:
    # RMSE once read inf, and report.json held "rmse":Infinity, which is
    # not JSON. A metric that is not finite is now a one-line error.
    history = count_rows()
    for row in history:
        row["target"] = row["target"][:37]
    data = _write_rows(tmp_path / "history.jsonl", history)
    fc = tmp_path / "fc.jsonl"
    assert main(["predict", "--model", str(NEGBIN_FIXTURE), "--data", data, "--output", str(fc),
                 "--samples", "5", "--horizon", "3"]) == 0
    capsys.readouterr()
    truth = count_rows()
    if big is not None:
        truth[1]["target"][37] = big
    report = tmp_path / "report.json"
    truth_path = _write_rows(tmp_path / "truth.jsonl", truth)
    rc = main(["evaluate", "--forecasts", str(fc), "--truth", truth_path, "--spans", "0:1",
               "--output", str(report)])
    err = capsys.readouterr().err
    if big is None:
        assert rc == 0 and err == ""
        json.loads(report.read_text(), parse_constant=pytest.fail)  # strict JSON
    else:
        assert rc == 2
        assert err == "error: RMSE is inf: the truth or forecast values are too large to score\n"
        assert not report.exists()
