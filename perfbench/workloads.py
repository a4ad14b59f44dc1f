"""The four workloads: their generated inputs, the CLI commands one cycle
runs, the set-up the CLI does before its first unit of work, and the
checks on every output.

A cycle is the workload's command sequence, run one command at a time
(a closed loop with one client). Every cycle of a run repeats the same
commands on the same inputs, so its outputs must repeat byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import os
from datetime import timedelta

import numpy as np

import checks
import gen

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")

LEVELS = (0.1, 0.5, 0.9)
LEVELS_ARG = "0.1,0.5,0.9"


def fixture(name: str) -> str:
    """Path of a committed fixture model after checking its sha256."""
    with open(os.path.join(FIXTURES, "fixtures.json"), "r", encoding="utf-8") as fh:
        want = json.load(fh)[name]["sha256"]
    path = os.path.join(FIXTURES, name)
    with open(path, "rb") as fh:
        got = hashlib.sha256(fh.read()).hexdigest()
    if got != want:
        raise RuntimeError(f"fixture {name} has sha256 {got}, expected {want}")
    return path


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _spans(text: str):
    return [tuple(int(v) for v in part.split(":")) for part in text.split(",")]


class Workload:
    """One workload; subclasses fill in the inputs, commands and checks."""

    name = ""
    why = ""
    primary = ()  # labels of the commands whose throughput is units_per_s
    unit = ""

    def prepare(self, seed: int, workdir: str) -> None:
        """Generate the inputs for `seed` into workdir."""
        raise NotImplementedError

    def commands(self, out: str):
        """[(label, argv)] for one cycle, writing its outputs under out."""
        raise NotImplementedError

    def setup(self) -> None:
        """What the CLI does before its first unit of work."""
        raise NotImplementedError

    def units(self) -> int:
        """Work units one primary command completes."""
        raise NotImplementedError

    def check(self, out: str):
        """[(check name, None or failure reason)] and a quality score."""
        raise NotImplementedError

    def digest(self, out: str) -> str:
        """Hash of the cycle's primary outputs, compared across cycles."""
        h = hashlib.sha256()
        for path in self.primary_outputs(out):
            h.update(_read(path))
        return h.hexdigest()

    def primary_outputs(self, out: str):
        raise NotImplementedError

    def figures(self, walls: dict, quality: float) -> dict:
        """The per-command figures named in the layer map, from one cycle's
        command walls (seconds, by label)."""
        raise NotImplementedError


class TrainNegbinSkewed(Workload):
    name = "train-negbin-skewed"
    why = ("panelcast train on a count panel with means over three orders of magnitude: "
           "backward pass, negbin NLL gradients, clipping, Adam, scale-weighted draws")
    primary = ("train",)
    unit = "windows"

    NUM_SERIES = 200
    LENGTH = 400
    CONFIG = {
        "likelihood": "negbin", "conditioning_length": 28, "prediction_length": 14,
        "num_layers": 3, "hidden_units": 40, "embedding_dim": 10, "batch_size": 64,
        "learning_rate": 0.001, "max_batches": 16, "patience": 1000,
        "windows_per_epoch": 512,
    }

    def prepare(self, seed, workdir):
        self.seed = seed
        self.data = os.path.join(workdir, "panel.jsonl")
        gen.write_panel(self.data, "D", gen.skewed_counts(seed, self.NUM_SERIES, self.LENGTH))
        self.config = os.path.join(workdir, "train.cfg")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.writelines(f"{k} = {v}\n" for k, v in self.CONFIG.items())

    def commands(self, out):
        return [("train", ["train", "--data", self.data, "--config", self.config,
                           "--output", os.path.join(out, "model"), "--seed", str(self.seed)])]

    def setup(self):
        from panelcast.dataset import WindowSampler, WindowSpec, fit_feature_stats, load_jsonl

        panel = load_jsonl(self.data)
        spec = WindowSpec(self.CONFIG["conditioning_length"], self.CONFIG["prediction_length"])
        stats = fit_feature_stats(panel, spec)
        WindowSampler(panel, spec, stats)

    def units(self):
        return self.CONFIG["max_batches"] * self.CONFIG["batch_size"]

    def primary_outputs(self, out):
        return [os.path.join(out, "model")]

    def check(self, out):
        from panelcast.network import load_model

        model_path = os.path.join(out, "model")
        try:
            model = load_model(model_path)
            loads = None
            if model.likelihood.value != "negbin" or model.hidden_dim != self.CONFIG["hidden_units"]:
                loads = f"model has likelihood {model.likelihood.value}, hidden {model.hidden_dim}"
        except Exception as e:  # any failure to load is the finding
            loads = f"model does not load: {e!r}"
        log = _read(model_path + ".log").decode("utf-8")
        results = [
            ("train.model_loads", loads),
            ("train.val_nll_falls", checks.check_train_log(log, self.CONFIG["max_batches"])),
        ]
        quality = checks.best_val_nll(log) if results[1][1] is None else float("nan")
        return results, quality

    def figures(self, walls, quality):
        return {"train_windows_per_s": self.units() / walls["train"], "train_val_nll": quality}


class PredictNegbinPaths(Workload):
    name = "predict-negbin-paths"
    why = ("panelcast predict with 200 negbin sample paths at --workers 1 and 2, then "
           "evaluate: decoding and per-path sampling dominate")
    primary = ("predict-w1",)
    unit = "path-steps"

    NUM_SERIES = 10
    HISTORY = 120
    HORIZON = 14
    SAMPLES = 200
    SPANS = "0:1,6:1,0:7"

    def prepare(self, seed, workdir):
        self.seed = seed
        self.model = fixture("negbin.model")
        rows = gen.skewed_counts(seed, self.NUM_SERIES, self.HISTORY + self.HORIZON)
        self.rows = rows
        self.ids = [sid for sid, _, _ in rows]
        self.history = os.path.join(workdir, "history.jsonl")
        self.truth = os.path.join(workdir, "truth.jsonl")
        gen.write_panel(self.history, "D", rows, length=self.HISTORY)
        gen.write_panel(self.truth, "D", rows)
        self.start = (gen.START + timedelta(days=self.HISTORY)).isoformat()

    def _predict(self, out, workers):
        return ["predict", "--model", self.model, "--data", self.history,
                "--output", os.path.join(out, f"fc-w{workers}.jsonl"),
                "--horizon", str(self.HORIZON), "--samples", str(self.SAMPLES),
                "--quantiles", LEVELS_ARG, "--emit-samples", "--seed", str(self.seed),
                "--workers", str(workers)]

    def commands(self, out):
        return [
            ("predict-w1", self._predict(out, 1)),
            ("predict-w2", self._predict(out, 2)),
            ("evaluate", ["evaluate", "--forecasts", os.path.join(out, "fc-w1.jsonl"),
                          "--truth", self.truth, "--spans", self.SPANS,
                          "--output", os.path.join(out, "report.json")]),
        ]

    def setup(self):
        from panelcast.dataset import load_jsonl
        from panelcast.network import load_model

        load_jsonl(self.history)
        load_model(self.model)

    def units(self):
        return self.NUM_SERIES * self.SAMPLES * self.HORIZON

    def primary_outputs(self, out):
        return [os.path.join(out, name) for name in ("fc-w1.jsonl", "fc-w2.jsonl", "report.json")]

    def check(self, out):
        w1 = _read(os.path.join(out, "fc-w1.jsonl"))
        w2 = _read(os.path.join(out, "fc-w2.jsonl"))
        records = checks.parse_records(w1)
        report = json.loads(_read(os.path.join(out, "report.json")))
        truth = {sid: values for sid, values, _ in self.rows}
        results = [
            ("predict.records", checks.check_predict_records(
                records, self.ids, self.start, self.HORIZON, LEVELS, self.SAMPLES)),
            ("predict.monotone", checks.check_monotone(records)),
            ("predict.counts", checks.check_counts(records)),
            ("predict.median_rank", checks.check_median_rank(records)),
            ("predict.workers_identical", checks.check_identical(w1, w2, "--workers 1 and 2 outputs")),
            ("evaluate.report", checks.check_report(
                report, _spans(self.SPANS), LEVELS, self.NUM_SERIES)),
        ]
        return results, checks.scaled_quantile_loss(records, truth, self.HISTORY)

    def figures(self, walls, quality):
        return {
            "predict_path_steps_per_s": self.units() / walls["predict-w1"],
            "predict_w2_path_steps_per_s": self.units() / walls["predict-w2"],
            "score_series_per_s": self.NUM_SERIES / walls["evaluate"],
        }


class BacktestGaussianLongContext(Workload):
    name = "backtest-gaussian-long-context"
    why = ("panelcast evaluate --rolling on hourly panels with missing values: 168-step "
           "batch-1 encodes with imputation, Box-Muller sampling")
    primary = ("backtest-a", "backtest-b")
    unit = "forecasts"

    NUM_SERIES = 16  # split into two panels, one rolling backtest each
    PARTS = ("a", "b")
    LENGTH = 1200
    WINDOWS = 3
    STRIDE = 24
    HORIZON = 24
    SAMPLES = 100
    SPANS = "0:1,23:1,0:24"

    @property
    def part_series(self) -> int:
        return self.NUM_SERIES // len(self.PARTS)

    def prepare(self, seed, workdir):
        self.seed = seed
        self.model = fixture("gaussian.model")
        protect = (self.WINDOWS - 1) * self.STRIDE + self.HORIZON
        rows = gen.hourly_real(seed, self.NUM_SERIES, self.LENGTH, protect)
        self.data = {}
        for i, part in enumerate(self.PARTS):
            self.data[part] = os.path.join(workdir, f"panel-{part}.jsonl")
            gen.write_panel(self.data[part], "H", rows[i::len(self.PARTS)])

    def commands(self, out):
        return [(f"backtest-{part}", [
            "evaluate", "--truth", self.data[part], "--model", self.model,
            "--rolling", f"{self.WINDOWS}:{self.STRIDE}", "--samples", str(self.SAMPLES),
            "--seed", str(self.seed), "--spans", self.SPANS, "--levels", LEVELS_ARG,
            "--output", os.path.join(out, f"backtest-{part}.json")]) for part in self.PARTS]

    def setup(self):
        from panelcast.dataset import load_jsonl
        from panelcast.network import load_model

        load_jsonl(self.data[self.PARTS[0]])
        load_model(self.model)

    def units(self):
        return self.part_series * self.WINDOWS

    def primary_outputs(self, out):
        return [os.path.join(out, f"backtest-{part}.json") for part in self.PARTS]

    def check(self, out):
        spans = _spans(self.SPANS)
        results, quality = [], []
        for part in self.PARTS:
            doc = json.loads(_read(os.path.join(out, f"backtest-{part}.json")))
            windows = doc.get("windows", [])
            results.append((f"backtest-{part}.pooled", checks.check_report(
                doc.get("pooled", {}), spans, LEVELS, self.part_series * self.WINDOWS)))
            if len(windows) != self.WINDOWS:
                results.append((f"backtest-{part}.windows",
                                f"{len(windows)} window reports, expected {self.WINDOWS}"))
            for i, report in enumerate(windows):
                results.append((f"backtest-{part}.window{i}",
                                checks.check_report(report, spans, LEVELS, self.part_series)))
            quality.append(checks.mean_all_k(doc["pooled"]))
        return results, float(np.mean(quality))

    def figures(self, walls, quality):
        wall = sum(walls[label] for label in self.primary)
        return {"backtest_forecasts_per_s": len(self.primary) * self.units() / wall}


class ScoreWidePanel(Workload):
    name = "score-wide-panel"
    why = ("panelcast evaluate --forecasts on a wide panel of quantile-only records: ingest, "
           "align (Panel.get lookups) and risk loops, LSTM idle")
    primary = ("evaluate",)
    unit = "series"

    NUM_SERIES = 3000
    LENGTH = 70
    HORIZON = 14
    SPANS = "0:1,6:1,13:1"

    def prepare(self, seed, workdir):
        series, forecasts = gen.wide_daily(seed, self.NUM_SERIES, self.LENGTH, self.HORIZON)
        self.truth = os.path.join(workdir, "truth.jsonl")
        self.forecasts = os.path.join(workdir, "forecasts.jsonl")
        gen.write_panel(self.truth, "D", series)
        gen.write_forecasts(self.forecasts, forecasts)

    def commands(self, out):
        return [("evaluate", ["evaluate", "--forecasts", self.forecasts, "--truth", self.truth,
                              "--spans", self.SPANS, "--output", os.path.join(out, "score.json")])]

    def setup(self):
        from panelcast.dataset import load_jsonl
        from panelcast.forecaster import read_forecasts

        load_jsonl(self.truth)
        read_forecasts(self.forecasts)

    def units(self):
        return self.NUM_SERIES

    def primary_outputs(self, out):
        return [os.path.join(out, "score.json")]

    def check(self, out):
        report = json.loads(_read(os.path.join(out, "score.json")))
        results = [("evaluate.report", checks.check_report(
            report, _spans(self.SPANS), LEVELS, self.NUM_SERIES))]
        return results, checks.mean_risk(report)

    def figures(self, walls, quality):
        return {"score_series_per_s": self.units() / walls["evaluate"]}


WORKLOADS = {w.name: w for w in (TrainNegbinSkewed, PredictNegbinPaths,
                                 BacktestGaussianLongContext, ScoreWidePanel)}
