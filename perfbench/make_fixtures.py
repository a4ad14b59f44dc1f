"""Train the fixture models that the forecasting workloads read.

The fixtures are committed, together with the recipe below and their
sha256 in fixtures/fixtures.json, so that a later change to training
arithmetic does not change what the forecasting workloads are asked to
do. Re-running this script with different engine code may give
different bytes; only do so on purpose, and commit the new manifest.

Run from the repository root:

    python3 perfbench/make_fixtures.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402

FIXTURE_DIR = os.path.join(HERE, "fixtures")
MANIFEST = os.path.join(FIXTURE_DIR, "fixtures.json")

# Each recipe: the generator call that makes the training panel, and the
# key=value config handed to `panelcast train --seed`.
RECIPES = {
    "negbin.model": {
        "panel": {"generator": "skewed_counts", "seed": 9001, "num_series": 200, "length": 400},
        "freq": "D",
        "seed": 11,
        "config": {
            "likelihood": "negbin", "conditioning_length": 28, "prediction_length": 14,
            "num_layers": 3, "hidden_units": 40, "embedding_dim": 10, "batch_size": 64,
            "learning_rate": 0.003, "max_batches": 300, "patience": 100,
            "windows_per_epoch": 1280,
        },
    },
    "gaussian.model": {
        "panel": {"generator": "hourly_real", "seed": 9002, "num_series": 40, "length": 1200,
                  "protect": 72},
        "freq": "H",
        "seed": 12,
        "config": {
            "likelihood": "gaussian", "conditioning_length": 168, "prediction_length": 24,
            "num_layers": 3, "hidden_units": 40, "embedding_dim": 10, "batch_size": 32,
            "learning_rate": 0.003, "max_batches": 200, "patience": 100,
            "windows_per_epoch": 640,
        },
    },
}


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _panel_rows(spec: dict):
    kwargs = {k: v for k, v in spec.items() if k != "generator"}
    return getattr(gen, spec["generator"])(**kwargs)


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from panelcast.cli import main as cli_main

    manifest = {}
    with tempfile.TemporaryDirectory(dir=FIXTURE_DIR) as tmp:
        for name, recipe in RECIPES.items():
            data = os.path.join(tmp, "panel.jsonl")
            gen.write_panel(data, recipe["freq"], _panel_rows(recipe["panel"]))
            config = os.path.join(tmp, "train.cfg")
            with open(config, "w", encoding="utf-8") as fh:
                fh.writelines(f"{k} = {v}\n" for k, v in recipe["config"].items())
            out = os.path.join(FIXTURE_DIR, name)
            rc = cli_main(["train", "--data", data, "--config", config, "--output", out,
                           "--seed", str(recipe["seed"])])
            if rc != 0:
                return rc
            for extra in (out + ".log", out + ".manifest.json"):
                os.unlink(extra)
            manifest[name] = dict(recipe, sha256=sha256_file(out))
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
