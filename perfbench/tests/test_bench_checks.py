"""Each output check accepts a real CLI output and rejects a deliberately
corrupted copy of it."""

import copy
import json
from datetime import timedelta
from pathlib import Path

import pytest

import checks
import gen
from panelcast.cli import main as cli_main
from workloads import LEVELS, LEVELS_ARG, fixture

HISTORY, HORIZON, SAMPLES = 60, 7, 40
SPANS = [(0, 1), (3, 1), (0, 7)]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("outputs")
    rows = gen.skewed_counts(4, 3, HISTORY + HORIZON)
    history, truth = work / "history.jsonl", work / "truth.jsonl"
    gen.write_panel(str(history), "D", rows, length=HISTORY)
    gen.write_panel(str(truth), "D", rows)
    fc, report = work / "fc.jsonl", work / "report.json"
    assert cli_main(["predict", "--model", fixture("negbin.model"), "--data", str(history),
                     "--output", str(fc), "--horizon", str(HORIZON), "--samples", str(SAMPLES),
                     "--quantiles", LEVELS_ARG, "--emit-samples", "--seed", "3"]) == 0
    assert cli_main(["evaluate", "--forecasts", str(fc), "--truth", str(truth),
                     "--spans", "0:1,3:1,0:7", "--output", str(report)]) == 0
    return {
        "rows": rows,
        "ids": [sid for sid, _, _ in rows],
        "start": (gen.START + timedelta(days=HISTORY)).isoformat(),
        "fc": fc.read_bytes(),
        "records": checks.parse_records(fc.read_bytes()),
        "report": json.loads(report.read_text()),
    }


def _records_check(out, records):
    return checks.check_predict_records(records, out["ids"], out["start"], HORIZON, LEVELS, SAMPLES)


def test_real_outputs_pass(outputs):
    records = outputs["records"]
    assert _records_check(outputs, records) is None
    assert checks.check_monotone(records) is None
    assert checks.check_counts(records) is None
    assert checks.check_median_rank(records) is None
    assert checks.check_report(outputs["report"], SPANS, LEVELS, 3) is None
    truth = {sid: values for sid, values, _ in outputs["rows"]}
    assert checks.scaled_quantile_loss(records, truth, HISTORY) > 0


def _corrupt(records, fn):
    bad = copy.deepcopy(records)
    fn(bad)
    return bad


@pytest.mark.parametrize("corruption", [
    lambda r: r.pop(),
    lambda r: r.reverse(),
    lambda r: r[1].__setitem__("start", "2021-01-01T00:00:00"),
    lambda r: r[0]["quantiles"]["0.9"].pop(),
    lambda r: r[2]["quantiles"].pop("0.1"),
    lambda r: r[0]["samples"].pop(),
])
def test_records_check_rejects(outputs, corruption):
    assert _records_check(outputs, _corrupt(outputs["records"], corruption)) is not None


def test_monotone_check_rejects(outputs):
    def swap(r):
        r[1]["quantiles"]["0.1"], r[1]["quantiles"]["0.9"] = (
            r[1]["quantiles"]["0.9"], r[1]["quantiles"]["0.1"])
    bad = _corrupt(outputs["records"], swap)
    assert bad[1]["quantiles"]["0.1"] != bad[1]["quantiles"]["0.9"]
    assert checks.check_monotone(bad) is not None


@pytest.mark.parametrize("value", [2.5, -1.0, float("nan")])
def test_counts_check_rejects(outputs, value):
    bad = _corrupt(outputs["records"], lambda r: r[0]["samples"][3].__setitem__(2, value))
    assert checks.check_counts(bad) is not None


def test_median_check_rejects(outputs):
    def shift(r):
        r[2]["quantiles"]["0.5"][4] += 1.0
    assert checks.check_median_rank(_corrupt(outputs["records"], shift)) is not None
    no_samples = _corrupt(outputs["records"], lambda r: r[0].pop("samples"))
    assert checks.check_median_rank(no_samples) is not None


def test_identical_check_rejects(outputs):
    fc = outputs["fc"]
    assert checks.check_identical(fc, fc, "outputs") is None
    assert checks.check_identical(fc, fc.replace(b"1", b"2", 1), "outputs") is not None


@pytest.mark.parametrize("corruption", [
    lambda rep: rep["risks"].pop("3:1@0.5"),
    lambda rep: rep["coverage"]["0:7"].pop("0.9"),
    lambda rep: rep["coverage"].pop("0:1"),
    lambda rep: rep["risks"].__setitem__("0:1@0.1", -0.5),
    lambda rep: rep["risks"].__setitem__("0:7@0.9", float("inf")),
    lambda rep: rep.__setitem__("nd", float("nan")),
    lambda rep: rep["coverage"]["3:1"].__setitem__("0.5", 1.5),
    lambda rep: rep.__setitem__("n_series", 2),
    lambda rep: rep.pop("all_k"),
])
def test_report_check_rejects(outputs, corruption):
    bad = copy.deepcopy(outputs["report"])
    corruption(bad)
    assert checks.check_report(bad, SPANS, LEVELS, 3) is not None


GOOD_LOG = (
    "epoch\tbatches\ttrain_nll\tval_nll\telapsed_s\n"
    "1\t4\t6.100000\t5.900000\t0.500\n"
    "2\t8\t5.700000\t5.600000\t1.000\n"
    "# stopped: reached max_batches=8\n"
)


@pytest.mark.parametrize("log", [
    GOOD_LOG.replace("5.600000", "nan"),
    GOOD_LOG.replace("5.600000", "5.950000"),
    GOOD_LOG.replace("2\t8\t", "2\t6\t"),
    "\n".join(GOOD_LOG.splitlines()[:2] + GOOD_LOG.splitlines()[3:]) + "\n",
    GOOD_LOG.replace("5.600000", "five"),
])
def test_train_log_check_rejects(log):
    assert checks.check_train_log(GOOD_LOG, 8) is None
    assert checks.check_train_log(log, 8) is not None


def test_train_model_check_rejects(tmp_path):
    from workloads import TrainNegbinSkewed

    wl = TrainNegbinSkewed()
    (tmp_path / "model").write_bytes(Path(fixture("negbin.model")).read_bytes())
    batches = wl.CONFIG["max_batches"]
    (tmp_path / "model.log").write_text(GOOD_LOG.replace("2\t8\t", f"2\t{batches}\t"))
    results, quality = wl.check(str(tmp_path))
    assert all(reason is None for _, reason in results) and quality == 5.6
    (tmp_path / "model").write_bytes(b'{"format": "panelcast-model"}\n')
    results, _ = wl.check(str(tmp_path))
    assert dict(results)["train.model_loads"] is not None
    (tmp_path / "model").write_bytes(Path(fixture("gaussian.model")).read_bytes())
    results, _ = wl.check(str(tmp_path))
    assert dict(results)["train.model_loads"] is not None
