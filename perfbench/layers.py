"""Which engine functions the traced run wraps, and where.

Each entry is (target, metric name, kind, probe, name_fn). `target` is
the attribute the engine actually calls through: the module that
imports the function by name, or the class that owns the method. A
function called from two modules has one entry per caller, both under
the same metric name. `kind` is "span" or "leaf"; leaves are the hot
functions that get counters and summed time instead of spans. A probe
sees (thread state, args, kwargs, result, exception) after each call and
adds counts; name_fn picks the metric name from the arguments.
"""

from __future__ import annotations

import numpy as np


def _add(st, name, value):
    st.counters[name] = st.counters.get(name, 0) + value


def _unroll_name(args, kwargs):
    grads = kwargs.get("compute_grads", args[3] if len(args) > 3 else True)
    return "network.unroll_batch.grad" if grads else "network.unroll_batch.val"


def _unroll_probe(st, args, kwargs, result, exc):
    if exc is not None and type(exc).__name__ == "DivergenceError":
        _add(st, "network.unroll_batch.diverged", 1)


def _decode_probe(st, args, kwargs, result, exc):
    _add(st, "network.decode_step.rows", int(args[2].shape[0]))


def _encode_probe(st, args, kwargs, result, exc):
    _add(st, "network.encode.steps", int(np.size(args[0])))


def _nll_probe(st, args, kwargs, result, exc):
    _add(st, "likelihood.nll_and_grads.elements", int(np.size(args[0])))


def _lstm_forward_probe(st, args, kwargs, result, exc):
    # Computed, not measured: 2 * B * (in + h) * 4h flops per layer-step.
    rows = int(args[0].shape[0])
    per_row = sum(8 * (layer.input_dim + layer.hidden_dim) * layer.hidden_dim for layer in args[2])
    _add(st, "lstm.forward.flop", rows * per_row)


def _clip_probe(st, args, kwargs, result, exc):
    if result is not None:
        st.values.setdefault("optim.grad_norm", []).append(float(result))
        _add(st, "optim.clipped", int(result > args[1]))


PATCHES = [
    ("panelcast.cli.load_jsonl", "dataset.load_jsonl", "span", None, None),
    ("panelcast.trainer.fit_feature_stats", "dataset.fit_feature_stats", "span", None, None),
    ("panelcast.dataset.WindowSampler.__init__", "dataset.WindowSampler.__init__", "span", None, None),
    ("panelcast.dataset.WindowSampler.draw", "dataset.WindowSampler.draw", "span", None, None),
    ("panelcast.dataset.Panel.get", "dataset.Panel.get", "span", None, None),
    ("panelcast.trainer.unroll_batch", "network.unroll_batch", "span", _unroll_probe, _unroll_name),
    ("panelcast.forecaster.decode_step", "network.decode_step", "span", _decode_probe, None),
    ("panelcast.forecaster.encode", "network.encode", "span", _encode_probe, None),
    ("panelcast.network.model_from_bytes", "network.model_from_bytes", "span", None, None),
    ("panelcast.cli.model_to_bytes", "network.model_to_bytes", "span", None, None),
    ("panelcast.network.lstm_forward", "lstm.lstm_forward", "leaf", _lstm_forward_probe, None),
    ("panelcast.network.lstm_backward", "lstm.lstm_backward", "span", None, None),
    ("panelcast.network.nll_and_grads", "likelihood.nll_and_grads", "span", _nll_probe, None),
    ("panelcast.network.apply_heads", "likelihood.apply_heads", "span", None, None),
    ("panelcast.network.heads_backward", "likelihood.heads_backward", "span", None, None),
    ("panelcast.network.sample", "likelihood.sample", "leaf", None, None),
    ("panelcast.forecaster.sample", "likelihood.sample", "leaf", None, None),
    ("panelcast.forecaster.substream", "rng.substream", "leaf", None, None),
    ("panelcast.trainer.clip_global_norm", "optim.clip_global_norm", "span", _clip_probe, None),
    ("panelcast.trainer.adam_step", "optim.adam_step", "span", None, None),
    ("panelcast.cli.train", "trainer.train", "span", None, None),
    ("panelcast.cli.forecast", "forecaster.forecast", "span", None, None),
    ("panelcast.evaluator.forecast", "forecaster.forecast", "span", None, None),
    ("panelcast.forecaster.quantiles", "forecaster.quantiles", "span", None, None),
    ("panelcast.cli.record_from_samples", "forecaster.record_from_samples", "span", None, None),
    ("panelcast.evaluator.record_from_samples", "forecaster.record_from_samples", "span", None, None),
    ("panelcast.forecaster.ForecastRecord.to_json_obj", "forecaster.ForecastRecord.to_json_obj",
     "span", None, None),
    ("panelcast.cli.read_forecasts", "forecaster.read_forecasts", "span", None, None),
    ("panelcast.cli.align", "evaluator.align", "span", None, None),
    ("panelcast.cli.evaluate", "evaluator.evaluate", "span", None, None),
    ("panelcast.evaluator.evaluate", "evaluator.evaluate", "span", None, None),
    ("panelcast.evaluator.rho_risk", "evaluator.rho_risk", "span", None, None),
    ("panelcast.cli.rolling_backtest", "evaluator.rolling_backtest", "span", None, None),
    ("panelcast.cli._atomic_write", "cli._atomic_write", "span", None, None),
    ("panelcast.cli._write_manifest", "cli._write_manifest", "span", None, None),
]
