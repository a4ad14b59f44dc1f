"""Benchmark for the panelcast CLI.

Run from the repository root:

    python3 perfbench/run.py --workload predict-negbin-paths --seed 1 --seconds 28 --trace 0

It generates the workload's inputs from --seed, then drives the CLI in
this process, one command at a time (a closed loop with one client),
repeating the workload's command cycle for --seconds and checking every
output. --trace 0 reports the end-to-end metrics; --trace 1 alternates
untraced and traced cycles and reports per-layer metrics. The last line
of standard output is one JSON object; a details file with the machine
record, every cycle and the full per-function table is written under
.bench_out/. --workload all runs every workload in turn.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import envinfo  # noqa: E402
from layers import PATCHES  # noqa: E402
import reference  # noqa: E402  (before the engine: it snapshots the environment)
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5  # before the first cycle
SETUP_SLICE_S = 0.1  # more set-ups before every cycle, at least one
SETUP_MAX_REPEATS = 50
MIN_CYCLES = 3
PROCESS_TIMEOUT_S = 150.0
OUT_DIR = ".bench_out"
# units_per_s is quoted at a machine on which the reference kernel takes
# this long: about its fastest on the 2-vCPU VM the benchmark was written on.
REF_NOMINAL_S = 0.12

# A fresh CLI process that writes its own peak RSS (KiB) to argv[1].
_CHILD = """
import resource, sys
from panelcast.cli import main
rc = main(sys.argv[2:])
try:
    with open("/proc/self/status", encoding="ascii") as fh:
        hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
except (OSError, StopIteration):
    hwm = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
with open(sys.argv[1], "w", encoding="ascii") as fh:
    fh.write(str(hwm))
sys.exit(rc)
"""

# Per-layer statistics reported for each wrapped function (all of them
# are in the details file; these are the ones an optimisation should
# move). See README.md for the metric -> layer map.
FUNC_STATS = {
    "dataset.load_jsonl": ("calls", "self_s"),
    "dataset.fit_feature_stats": ("calls", "self_s"),
    "dataset.WindowSampler.__init__": ("calls", "self_s"),
    "dataset.WindowSampler.draw": ("calls", "self_s", "p50_us"),
    "dataset.Panel.get": ("calls", "self_s", "p50_us", "tail_us"),
    "network.unroll_batch.grad": ("calls", "s", "self_s", "p50_us", "tail_us"),
    "network.unroll_batch.val": ("calls", "s", "self_s"),
    "network.decode_step": ("calls", "s", "self_s", "p50_us", "tail_us"),
    "network.encode": ("calls", "s", "self_s", "p50_us", "tail_us"),
    "network.model_from_bytes": ("calls", "self_s"),
    "network.model_to_bytes": ("calls", "self_s"),
    "lstm.lstm_forward": ("calls", "self_s", "p50_us", "tail_us"),
    "lstm.lstm_backward": ("calls", "self_s", "p50_us"),
    "likelihood.nll_and_grads": ("calls", "self_s", "p50_us"),
    "likelihood.apply_heads": ("calls", "self_s", "p50_us"),
    "likelihood.heads_backward": ("calls", "self_s", "p50_us"),
    "likelihood.sample": ("calls", "self_s", "p50_us", "tail_us"),
    "rng.substream": ("calls", "self_s", "p50_us"),
    "optim.clip_global_norm": ("calls", "self_s", "p50_us"),
    "optim.adam_step": ("calls", "self_s", "p50_us", "tail_us"),
    "trainer.train": ("calls", "s", "self_s"),
    "forecaster.forecast": ("calls", "s", "self_s", "p50_us", "tail_us"),
    "forecaster.quantiles": ("calls", "self_s", "p50_us"),
    "forecaster.record_from_samples": ("calls", "s", "self_s"),
    "forecaster.ForecastRecord.to_json_obj": ("calls", "self_s", "p50_us"),
    "forecaster.read_forecasts": ("calls", "self_s"),
    "evaluator.align": ("calls", "s", "self_s"),
    "evaluator.evaluate": ("calls", "s", "self_s"),
    "evaluator.rho_risk": ("calls", "self_s", "p50_us"),
    "evaluator.rolling_backtest": ("calls", "s", "self_s"),
    "cli._atomic_write": ("calls", "self_s", "p50_us"),
    "cli._write_manifest": ("calls", "self_s"),
    "cli.main": ("calls", "s", "self_s"),
}
STAT_UNITS = {"calls": ("count", "lower"), "s": ("s", "lower"), "self_s": ("s", "lower"),
              "p50_us": ("us", "lower"), "tail_us": ("us", "lower")}
EXTRA_LAYER_METRICS = {
    "network.unroll_batch.diverged": ("count", "lower"),
    "network.decode_step.rows": ("count", "higher"),
    "network.encode.steps": ("count", "higher"),
    "likelihood.nll_and_grads.elements": ("count", "higher"),
    "lstm.forward.gflop": ("GFLOP", "lower"),
    "lstm.forward.gflop_per_s": ("GFLOP/s", "higher"),
    "optim.grad_norm.p50": ("norm", "lower"),
    "optim.clipped_ratio": ("ratio", "lower"),
    "predict.w2_busy_ratio": ("ratio", "higher"),
    "bench.trace_overhead_ratio": ("ratio", "lower"),
    "train_windows_per_s": ("1/s", "higher"),
    "train_val_nll": ("nats", "lower"),
    "predict_path_steps_per_s": ("1/s", "higher"),
    "predict_w2_path_steps_per_s": ("1/s", "higher"),
    "score_series_per_s": ("1/s", "higher"),
    "backtest_forecasts_per_s": ("1/s", "higher"),
}
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_ops_ratio": "ratio",
    "units_per_s": "1/s",
    "forecast_quality": "score",
}


def per_layer_units() -> dict:
    """name -> (unit, better) for every per-layer metric, in report order."""
    out = {}
    for fn, stats in FUNC_STATS.items():
        for stat in stats:
            out[f"{fn}.{stat}"] = STAT_UNITS[stat]
    out.update(EXTRA_LAYER_METRICS)
    return out


def tail_percentile(durations):
    """(label, value) of the highest of p99.9/p99/p90/p50 with at least ten
    samples beyond it; the maximum when there are fewer than 20."""
    ordered = sorted(durations)
    n = len(ordered)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return f"p{p:g}", nearest_rank(ordered, p)
    return "max", ordered[-1] if ordered else 0.0


def nearest_rank(ordered, p: float) -> float:
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(round(p / 100.0 * len(ordered), 9)) - 1)]


def median(values):
    return statistics.median(values) if values else 0.0


def fastest(values):
    """The shortest of a run's timings.

    On a shared host the CPU runs up to ~1.9x slower for stretches of
    seconds to minutes while other tenants load it. That time is not the
    program's, so the fastest sample is the steadiest estimate of the
    program's own cost; the medians are kept in the details file."""
    return min(values) if values else 0.0


class Ops:
    """Attempted and failed operations: CLI commands and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, name: str, reason):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {reason}")


class Bench:
    """Runs one workload's cycles in this process."""

    def __init__(self, workload, cli_main, work: str, src: str, ref: bool = False):
        self.wl = workload
        self.cli_main = cli_main
        self.work = work
        self.src = src
        self.ref = ref
        self.ops = Ops()
        self.digest = None

    def _fresh_out(self, name: str) -> str:
        out = os.path.join(self.work, name)
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        return out

    def _command(self, label, argv):
        """Run one CLI command in-process; returns (wall s, cpu s, ok)."""
        err = io.StringIO()
        t0, c0 = time.perf_counter(), time.process_time()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            try:
                rc = self.cli_main(argv)
            except Exception as e:  # the command's failure is what we report
                rc = repr(e)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        ok = rc == 0
        self.ops.record(f"cmd.{label}", None if ok else f"exit {rc} {err.getvalue().strip()}")
        return wall, cpu, ok

    def _check(self, out: str):
        """Run the workload's checks on a cycle's outputs; returns quality."""
        try:
            results, quality = self.wl.check(out)
            digest = self.wl.digest(out)
        except Exception as e:  # unreadable output fails the cycle's checks
            self.ops.record("checks", f"outputs unreadable: {e!r}")
            return float("nan")
        for name, reason in results:
            self.ops.record(name, reason)
        if self.digest is None:
            self.digest = digest
        else:
            self.ops.record("repeat_identical", None if digest == self.digest
                            else "outputs differ from the first cycle's")
        return quality

    def cycle(self, tracer=None):
        """One pass over the workload's commands, then its checks. With a
        reference, the kernel is timed right before each primary command."""
        out = self._fresh_out("out")
        walls, cpus, refs = {}, {}, {}
        for label, argv in self.wl.commands(out):
            if self.ref and label in self.wl.primary:
                refs[label] = reference.time_once()
            if tracer is None:
                wall, cpu, ok = self._command(label, argv)
            else:
                with tracer.installed(PATCHES), tracer.command(label):
                    wall, cpu, ok = self._command(label, argv)
            walls[label], cpus[label] = wall, cpu
            if not ok:
                return None
        quality = self._check(out)
        return {"walls": walls, "cpus": cpus, "refs": refs, "wall": sum(walls.values()),
                "cpu": sum(cpus.values()), "quality": quality}

    def setup_time(self, repeats: int, min_s: float = 0.0) -> list:
        """Seconds of `repeats` set-ups, or more until they add up to min_s."""
        times = []
        while len(times) < repeats or (sum(times) < min_s and len(times) < SETUP_MAX_REPEATS):
            t0 = time.perf_counter()
            self.wl.setup()
            times.append(time.perf_counter() - t0)
        return times

    def fresh_processes(self) -> float:
        """Run one cycle as fresh processes, one per CLI command; returns
        the peak RSS over them in MiB.

        Each process reports its own VmHWM. The rusage of a child is no
        use here: Linux carries the parent's high-water mark across exec."""
        out = self._fresh_out("proc")
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        hwm_path = os.path.join(self.work, "proc-hwm.txt")
        peak_kib = 0
        for label, argv in self.wl.commands(out):
            try:
                proc = subprocess.run([sys.executable, "-c", _CHILD, hwm_path, *argv],
                                      stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                      env=env, timeout=PROCESS_TIMEOUT_S)
                ok, message = proc.returncode == 0, f"exit {proc.returncode} {proc.stderr[-500:]!r}"
            except subprocess.TimeoutExpired:
                ok, message = False, f"timed out after {PROCESS_TIMEOUT_S} s"
            self.ops.record(f"process.{label}", None if ok else message)
            if not ok:
                return float("nan")
            with open(hwm_path, "r", encoding="ascii") as fh:
                peak_kib = max(peak_kib, int(fh.read()))
        self._check(out)
        return peak_kib / 1024.0

    def loop(self, seconds: float, traced: bool, setup=None):
        """At least MIN_CYCLES cycles, then more while the next one should
        end within `seconds`; in traced mode untraced and traced cycles
        alternate. Given a `setup` list, set-up samples taken before each
        cycle are appended to it, so they span the run like the cycles."""
        plain, tracers = [], []
        start = time.perf_counter()
        i = 0
        while i < MIN_CYCLES or (time.perf_counter() - start) * (i + 1) / i <= seconds:
            if setup is not None:
                setup.extend(self.setup_time(1, SETUP_SLICE_S))
            if traced and i % 2 == 1:
                tracer = Tracer()
                row = self.cycle(tracer)
                if row is not None:
                    tracers.append((row, tracer))
            else:
                row = self.cycle()
                if row is not None:
                    plain.append(row)
            i += 1
        return plain, tracers


def end_to_end(bench: Bench, seconds: float):
    setup = bench.setup_time(SETUP_REPEATS)
    rss_mb = bench.fresh_processes()
    plain, _ = bench.loop(seconds, traced=False, setup=setup)
    wl = bench.wl
    primary = [r["walls"][label] for r in plain for label in wl.primary]
    refs = [r["refs"][label] for r in plain for label in wl.primary]
    # Each primary command's wall in units of the kernel's time next to it.
    ref_ratio = median([t / r for t, r in zip(primary, refs)])
    metrics = {
        "setup_s": fastest(setup),
        "peak_rss_mb": rss_mb,
        "ok_ops_ratio": (bench.ops.attempted - bench.ops.failed) / bench.ops.attempted,
        "units_per_s": wl.units() / (ref_ratio * REF_NOMINAL_S) if primary else 0.0,
        "forecast_quality": median([r["quality"] for r in plain]),
    }
    details = {
        "setup_s": setup,
        "cycles": plain,
        "primary_over_ref": ref_ratio,
        "raw_units_per_s": {"fastest": wl.units() / fastest(primary) if primary else 0.0,
                            "median": wl.units() / median(primary) if primary else 0.0},
        "medians": {"setup_s": median(setup), "primary_s": median(primary),
                    "ref_s": median(refs), "cycle_s": median([r["wall"] for r in plain])},
    }
    return metrics, details


def _cycle_layers(summary: dict) -> dict:
    """Per-cycle values of every per-layer metric the trace can give."""
    funcs, counters, values = summary["funcs"], summary["counters"], summary["values"]
    vals = {}
    for fn, f in funcs.items():
        vals[f"{fn}.calls"] = f["calls"]
        vals[f"{fn}.s"] = f["s"]
        vals[f"{fn}.self_s"] = f["self_s"]

    def per_call(counter, fn):
        calls = funcs.get(fn, {}).get("calls", 0)
        return counters.get(counter, 0) / calls if calls else 0.0

    vals["network.unroll_batch.diverged"] = counters.get("network.unroll_batch.diverged", 0)
    vals["network.decode_step.rows"] = per_call("network.decode_step.rows", "network.decode_step")
    vals["network.encode.steps"] = per_call("network.encode.steps", "network.encode")
    vals["likelihood.nll_and_grads.elements"] = per_call(
        "likelihood.nll_and_grads.elements", "likelihood.nll_and_grads")
    gflop = counters.get("lstm.forward.flop", 0) / 1e9
    fwd_s = funcs.get("lstm.lstm_forward", {}).get("s", 0.0)
    vals["lstm.forward.gflop"] = gflop
    vals["lstm.forward.gflop_per_s"] = gflop / fwd_s if fwd_s else 0.0
    norms = values.get("optim.grad_norm", [])
    vals["optim.grad_norm.p50"] = median(norms)
    clip_calls = funcs.get("optim.clip_global_norm", {}).get("calls", 0)
    vals["optim.clipped_ratio"] = counters.get("optim.clipped", 0) / clip_calls if clip_calls else 0.0
    w2 = [r for r in summary["roots"] if r.label == "predict-w2"]
    if w2:
        busy = sum(s.end - s.start for s in summary["spans"]
                   if s.name == "forecaster.forecast" and s.trace == w2[0].trace)
        vals["predict.w2_busy_ratio"] = busy / (2.0 * (w2[0].end - w2[0].start))
    vals["trace.probe_errors"] = counters.get("trace.probe_errors", 0)
    return vals


def per_layer(bench: Bench, seconds: float):
    plain, traced = bench.loop(seconds, traced=True)
    wl = bench.wl
    summaries = [tracer.summary() for _, tracer in traced]
    cycles = [_cycle_layers(summary) for summary in summaries]
    durations = {}
    for summary in summaries:
        for fn, f in summary["funcs"].items():
            durations.setdefault(fn, []).extend(f["durs"])
    names = per_layer_units()
    metrics, table = {}, {}
    for name in names:
        metrics[name] = median([c.get(name, 0) for c in cycles]) if cycles else 0.0
    for fn, durs in durations.items():
        label, tail = tail_percentile(durs)
        p50 = nearest_rank(sorted(durs), 50.0)
        table[fn] = {"calls_per_cycle": median([c.get(f"{fn}.calls", 0) for c in cycles]),
                     "s": median([c.get(f"{fn}.s", 0) for c in cycles]),
                     "self_s": median([c.get(f"{fn}.self_s", 0) for c in cycles]),
                     "p50_us": p50 * 1e6, "tail": label, "tail_us": tail * 1e6}
        for stat in ("p50_us", "tail_us"):
            if f"{fn}.{stat}" in names:
                metrics[f"{fn}.{stat}"] = table[fn][stat]
    untraced = fastest([r["wall"] for r in plain])
    traced_wall = fastest([row["wall"] for row, _ in traced])
    metrics["bench.trace_overhead_ratio"] = traced_wall / untraced - 1.0 if untraced else 0.0
    figures = [wl.figures(r["walls"], r["quality"]) for r in plain]
    for name in figures[0] if figures else ():
        metrics[name] = median([f[name] for f in figures])
    details = {
        "untraced_cycles": plain,
        "traced_cycle_walls": [row["wall"] for row, _ in traced],
        "functions": table,
        "unattributed_s": table.get("cli.main", {}).get("self_s"),
        "missing_targets": traced[0][1].missing if traced else [],
        "probe_errors": median([c["trace.probe_errors"] for c in cycles]) if cycles else 0,
    }
    return metrics, details


def _value(x) -> float:
    # A measurement a failed operation left undefined reads 0; the failure
    # itself is in `failed`.
    x = float(x)
    return x if math.isfinite(x) else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: str, src: str):
    from panelcast.cli import main as cli_main

    wl = WORKLOADS[name]()
    work = os.path.join(root, OUT_DIR, f"{name}-s{seed}-p{os.getpid()}")
    os.makedirs(work)
    try:
        wl.prepare(seed, work)
        bench = Bench(wl, cli_main, work, src, ref=not trace)
        if trace:
            metrics, details = per_layer(bench, seconds)
            units = {k: v[0] for k, v in per_layer_units().items()}
        else:
            metrics, details = end_to_end(bench, seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": bench.ops.failed == 0,
        "attempted": bench.ops.attempted,
        "failed": bench.ops.failed,
        "metrics": {k: {"value": _value(metrics[k]), "unit": units[k]} for k in units},
    }
    record = {"workload": name, "unit_of_work": wl.unit, "seed": seed, "seconds": seconds,
              "trace": int(trace),
              "env": envinfo.collect(numpy), "failures": bench.ops.failures,
              "result": result, "details": details}
    path = os.path.join(root, OUT_DIR, f"result-{name}-s{seed}-t{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=float)
    return result, record


def print_table(name: str, result: dict, record: dict) -> None:
    env = record["env"]
    print(f"# {name} seed={record['seed']} trace={record['trace']} nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']} blas={env['blas_vendor']} "
          f"{env['blas_version']} blas_threads={env['blas_threads']} "
          f"thread_env={json.dumps({k: v for k, v in env['thread_env'].items() if v})}")
    for failure in record["failures"]:
        print(f"# FAILED {failure}")
    for metric, m in result["metrics"].items():
        print(f"{name}\t{metric}\t{m['value']:.6g}\t{m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "panelcast", "cli.py")):
        print("error: no panelcast sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import panelcast

    if os.path.dirname(os.path.abspath(panelcast.__file__)) != os.path.join(src, "panelcast"):
        print(f"error: imported panelcast from {panelcast.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result, record = run_workload(name, args.seed, args.seconds, bool(args.trace), root, src)
            print_table(name, result, record)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, m in result["metrics"].items():
                combined["metrics"][metric if len(names) == 1 else f"{name}.{metric}"] = m
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
