"""Command-line entry point.

Subcommands: train, predict, evaluate, stats. Every command takes one
--seed and derives all its randomness from it, writes its primary outputs
atomically, and drops a <output>.manifest.json recording the effective
configuration, seeds, and input digests so the run can be reproduced
bit-for-bit. Exit codes: 0 success, 1 runtime failure, 2 usage or
validation error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import replace
from datetime import datetime, timezone
from itertools import chain

from . import __version__
from .dataset import load_jsonl, velocity_histogram
from .errors import ConfigError, DataError, PanelcastError
from .evaluator import align, evaluate, report_json, rolling_backtest
from .forecaster import (
    DEFAULT_NUM_SAMPLES,
    forecast_panel,
    read_forecasts,
    record_from_samples,
    render_forecasts,
)
from .likelihood import LikelihoodKind
from .network import load_model, model_to_bytes
from .rng import sha256
from .trainer import TrainConfig, grid_search, parse_config, train

__all__ = ["main"]


def _atomic_write(path: str, data) -> None:
    """Write bytes, a str or an iterable of str chunks (each written as it
    comes) via a temp file in the target directory, then rename."""
    if isinstance(data, (str, bytes)):
        data = [data]
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in data:
                fh.write(chunk if isinstance(chunk, bytes) else chunk.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _sha256(path: str) -> str:
    digest = sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(output: str, command: str, options: dict, inputs: dict, extra: dict = None):
    manifest = {
        "command": command,
        "engine_version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
        "options": options,
        "inputs": {name: {"path": p, "sha256": _sha256(p)} for name, p in inputs.items()},
        "outputs": {"primary": {"path": output, "sha256": _sha256(output)}},
    }
    if extra:
        manifest.update(extra)
    _atomic_write(output + ".manifest.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _parse_levels(text: str):
    try:
        levels = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"bad quantile list {text!r}; expected e.g. 0.5,0.9") from None
    if not levels or any(not 0.0 < v < 1.0 for v in levels):
        raise ConfigError("quantile levels must lie strictly between 0 and 1")
    return levels


def _parse_spans(text: str):
    spans = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            lead, _, span = part.partition(":")
            lead, span = int(lead), int(span)
        except ValueError:
            raise ConfigError(f"bad span {part!r}; expected LEAD:LENGTH") from None
        if lead < 0 or span < 1:
            raise ConfigError(f"bad span {part!r}; LEAD must be at least 0 and LENGTH at least 1")
        spans.append((lead, span))
    if not spans:
        raise ConfigError("no spans given")
    return spans


def _parse_grid(text: str):
    axes = {"hidden_units": None, "embedding_dim": None}
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        key, eq, vals = clause.partition("=")
        key = key.strip()
        if not eq or key not in axes:
            raise ConfigError(
                f"bad grid clause {clause!r}; expected hidden_units=... or embedding_dim=..."
            )
        try:
            axes[key] = [int(v) for v in vals.split(",") if v.strip()]
        except ValueError:
            raise ConfigError(f"grid values for {key} must be integers") from None
        if not axes[key]:
            raise ConfigError(f"grid axis {key} has no values")
    return axes


def cmd_train(args) -> int:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = parse_config(fh.read())
        inputs = {"data": args.data, "config": args.config}
    else:
        config = TrainConfig()
        inputs = {"data": args.data}
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    panel = load_jsonl(args.data)
    extra = {}
    if args.grid:
        axes = _parse_grid(args.grid)
        hidden = axes["hidden_units"] or [config.hidden_units]
        embedding = axes["embedding_dim"] or [config.embedding_dim]
        config, results = grid_search(panel, hidden, embedding, config)
        extra["grid"] = [
            {"hidden_units": h, "embedding_dim": e, "val_nll": v} for h, e, v in results
        ]
    model, log = train(panel, config)
    _atomic_write(args.output, model_to_bytes(model))
    _atomic_write(args.output + ".log", log.to_tsv())
    _write_manifest(args.output, "train", config.to_dict(), inputs, extra)
    print(
        f"trained {config.likelihood.value} model on {len(panel)} series: "
        f"best val nll {log.best_val_nll:.6f} ({log.stopping_reason})"
    )
    return 0


def _check_targets(params, panel) -> None:
    """A panel to condition a count model on must hold counts."""
    if params.likelihood is LikelihoodKind.NEG_BINOMIAL:
        panel.require_integer_targets()


def cmd_predict(args) -> int:
    params = load_model(args.model)
    panel = load_jsonl(args.data)
    _check_targets(params, panel)
    levels = _parse_levels(args.quantiles)
    if args.samples < 1:
        raise ConfigError("--samples must be at least 1")
    horizon = args.horizon or 0
    # One record at a time from forecast to file: memory is set by the
    # forecaster's row budget, not by the panel.
    records = (
        record_from_samples(fc, levels, emit_samples=args.emit_samples)
        for fc in forecast_panel(panel.series, params, args.samples, args.seed, horizon)
    )
    _atomic_write(args.output, render_forecasts(records))
    _write_manifest(
        args.output,
        "predict",
        {
            "samples": args.samples,
            "quantiles": [repr(v) for v in levels],
            "horizon": horizon or params.spec.prediction_length,
            "seed": args.seed,
            "emit_samples": bool(args.emit_samples),
        },
        {"model": args.model, "data": args.data},
    )
    print(f"wrote forecasts for {len(panel)} series to {args.output}")
    return 0


def cmd_evaluate(args) -> int:
    panel = load_jsonl(args.truth)
    spans = _parse_spans(args.spans)
    if args.rolling:
        if not args.model:
            raise ConfigError("--rolling needs --model to re-condition the forecaster")
        try:
            count_s, _, stride_s = args.rolling.partition(":")
            count, stride = int(count_s), int(stride_s)
        except ValueError:
            raise ConfigError(f"bad --rolling {args.rolling!r}; expected COUNT:STRIDE") from None
        params = load_model(args.model)
        _check_targets(params, panel)
        levels = _parse_levels(args.levels or "0.5,0.9")
        reports, pooled = rolling_backtest(
            panel, params, count, stride, spans, levels, args.samples, args.seed
        )
        if args.output:
            doc = {"windows": [r.to_json_obj() for r in reports], "pooled": pooled.to_json_obj()}
            _atomic_write(args.output, report_json(doc))
            _write_manifest(
                args.output,
                "evaluate",
                {
                    "spans": args.spans,
                    "rolling": args.rolling,
                    "levels": args.levels,
                    "samples": args.samples,
                    "seed": args.seed,
                },
                {"truth": args.truth, "model": args.model},
            )
        sys.stdout.write(pooled.to_table())
        return 0
    if not args.forecasts:
        raise ConfigError("evaluate needs --forecasts (or --rolling with --model)")
    records = read_forecasts(args.forecasts)
    first = next(records)  # a file without a record is a DataError
    levels = _parse_levels(args.levels) if args.levels else sorted(first.quantile_values)
    # Every record is checked against the first one later; an option the
    # first one cannot serve is rejected before any alignment.
    for lead, span in spans:
        if lead + span > first.horizon:
            raise ConfigError(
                f"span [{lead}, {lead + span}) does not fit the forecasts' horizon {first.horizon}"
            )
        if span > 1 and first.samples is None:
            raise ConfigError(
                f"span [{lead}, {lead + span}) is longer than one step and needs the sample "
                "matrix; re-run prediction with --emit-samples"
            )
    if first.samples is None:
        # ND and RMSE read the median whatever the levels.
        for rho in [*levels, 0.5]:
            if not any(level == rho or abs(level - rho) < 1e-12 for level in first.quantile_values):
                raise ConfigError(
                    f"forecasts have no {rho} quantile (available: {sorted(first.quantile_values)})"
                )
    # One record at a time from file to running sums: memory is set by
    # series x horizon, not by the sample paths.
    report = evaluate(align(panel, chain([first], records)), spans, levels)
    if args.output:
        _atomic_write(args.output, report.to_json())
        _write_manifest(
            args.output,
            "evaluate",
            {"spans": args.spans, "levels": [repr(v) for v in levels]},
            {"truth": args.truth, "forecasts": args.forecasts},
        )
    sys.stdout.write(report.to_table())
    return 0


def cmd_stats(args) -> int:
    panel = load_jsonl(args.data)
    rows = velocity_histogram(panel)
    table = "".join(f"{edge:.2f}\t{count}\n" for edge, count in rows)
    if args.output:
        _atomic_write(args.output, table)
        _write_manifest(args.output, "stats", {}, {"data": args.data})
    sys.stdout.write(table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panelcast",
        description="Probabilistic panel forecasting: train, predict, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit a model on a JSONL panel")
    p_train.add_argument("--data", required=True, help="panel JSONL file")
    p_train.add_argument("--config", help="key=value training config file")
    p_train.add_argument("--output", required=True, help="model file to write")
    p_train.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    p_train.add_argument(
        "--grid",
        help='grid search, e.g. "hidden_units=16,32;embedding_dim=2,4"',
    )
    p_train.set_defaults(func=cmd_train)

    p_pred = sub.add_parser("predict", help="sample forecasts from a trained model")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--data", required=True)
    p_pred.add_argument("--output", required=True)
    p_pred.add_argument("--horizon", type=int, default=0, help="defaults to the trained length")
    p_pred.add_argument("--samples", type=int, default=DEFAULT_NUM_SAMPLES)
    p_pred.add_argument("--quantiles", default="0.5,0.9")
    p_pred.add_argument("--seed", type=int, default=0)
    p_pred.add_argument("--emit-samples", action="store_true", help="include sample matrices")
    p_pred.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted for compatibility and ignored: forecasts run as batched array work",
    )
    p_pred.set_defaults(func=cmd_predict)

    p_eval = sub.add_parser("evaluate", help="score forecasts against ground truth")
    p_eval.add_argument("--forecasts", help="forecast JSONL from predict")
    p_eval.add_argument("--truth", required=True, help="panel JSONL with realized targets")
    p_eval.add_argument("--spans", default="0:1", help='e.g. "0:1,2:1,0:8"')
    p_eval.add_argument(
        "--levels",
        default=None,
        help="quantile levels; defaults to the forecast file's levels "
        "(0.5,0.9 for --rolling)",
    )
    p_eval.add_argument("--rolling", help="COUNT:STRIDE rolling backtest (needs --model)")
    p_eval.add_argument("--model", help="model file for --rolling")
    p_eval.add_argument("--samples", type=int, default=DEFAULT_NUM_SAMPLES)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--output", help="write the JSON report here")
    p_eval.set_defaults(func=cmd_evaluate)

    p_stats = sub.add_parser("stats", help="velocity histogram of a panel")
    p_stats.add_argument("--data", required=True)
    p_stats.add_argument("--output", help="write the table here as well")
    p_stats.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (PanelcastError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
