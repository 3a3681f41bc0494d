"""Golden digests: `ggp run` writes the same records and summary bytes as
when the digests in golden_sha256.json were taken.

Each config below runs through cli.main at one and at two workers, and the
sha256 of every file it writes must equal its recorded digest. The configs
are one small seed-5 run per experiment, one JSON-output run, and the four
benchmark workloads (perfbench/workloads.py) at fewer replications.

The digests hold for one numpy and one scipy release: their generators and
special functions decide the last bits of every value. On other versions the
test fails, naming both, rather than reporting a change in the records.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
import scipy

from ggp.cli import main

GOLDEN = Path(__file__).parent / "golden_sha256.json"
NUMPY_VERSION = "2.4.6"
SCIPY_VERSION = "1.17.1"

_SLLN = {"experiment": "slln", "alpha": 0, "beta": 2, "a": 10, "p": 0.6}
CONFIGS = {
    "gumbel": {"experiment": "gumbel", "alpha": 0.5, "beta": 1.5, "n": 1000, "reps": 100},
    "gumbel_json": {"experiment": "gumbel", "alpha": 0.0, "beta": 1.0, "n": 500, "reps": 100,
                    "output_format": "json"},
    "intensity": {"experiment": "intensity", "d": 2, "alpha": 0.0, "beta": 2.0,
                  "lambda": 1e3, "window": {"spatial_radius": 2.0, "h_min": -5.0, "h_max": 1.0},
                  "bins": [2, 3], "reps": 10},
    "scaling_limit": {"experiment": "scaling_limit", "d": 2, "alphas_betas": [[0, 2], [1, 1]],
                      "lambda_grid": [1e3, 3e3], "L": 1.0, "grid_n": 21, "reps": 3},
    "moments": {"experiment": "moments", "d": 2, "alpha": 0.0, "beta": 2.0,
                "lambda_grid": [100.0, 300.0], "reps": 200},
    "clt": {"experiment": "clt", "d": 2, "alpha": 0.0, "beta": 2.0, "lambda": 100.0,
            "reps": 1000},
    "tails": {"experiment": "tails", "d": 2, "alpha": 0.0, "beta": 2.0, "lambda": 200.0,
              "M": 1.0, "t_grid": [1, 2, 3], "reps": 500},
    "slln": {"experiment": "slln", "d": 3, "alpha": 1.0, "beta": 1.5, "a": 4.0, "k_max": 4,
             "p": 0.6, "i": 3, "reps": 4},
    "concentration": {"experiment": "concentration", "d": 2, "alpha": 0.0, "beta": 2.0,
                      "lambda": 50.0, "y_grid": [0.5, 1, 2], "i": 2, "reps": 2000},
    "vertex_correspondence": {"experiment": "vertex_correspondence", "d": 2, "alpha": 0.0,
                              "beta": 2.0, "lambda": 1e3, "L": 1.0, "reps": 5},
    # the benchmark workloads, as perfbench/workloads.py pins them, at fewer reps
    "gumbel_maxima": {"experiment": "gumbel", "alpha": 0, "beta": 2, "n": 100000, "reps": 100},
    "hull_d2_slln": dict(_SLLN, d=2, k_max=6, i=2, reps=2),
    "hull_d4_slln": dict(_SLLN, d=4, k_max=4, i=4, reps=2),
    "festoon_scaling": {"experiment": "scaling_limit", "d": 2, "alphas_betas": [[0, 2], [1, 1]],
                        "lambda_grid": [1e3, 1e4, 1e5], "L": 1, "reps": 2},
}
SEED = 5


def output_digests(name: str, config: dict, workers: int, tmp_path) -> dict:
    """{file name: sha256} of what `ggp run` writes for config at seed 5."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(dict(config, seed=SEED)))
    out = tmp_path / f"{name}_w{workers}"
    assert main(["run", "--config", str(path), "--out", str(out),
                 "--workers", str(workers)]) in (0, 1)
    return {f"{name}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_match_golden_digests(name, workers, tmp_path):
    assert (np.__version__, scipy.__version__) == (NUMPY_VERSION, SCIPY_VERSION), (
        f"golden digests were taken on numpy {NUMPY_VERSION} and scipy {SCIPY_VERSION}; "
        f"this is numpy {np.__version__} and scipy {scipy.__version__}")
    golden = json.loads(GOLDEN.read_text())
    got = output_digests(name, CONFIGS[name], workers, tmp_path)
    assert got == {k: v for k, v in golden.items() if k.startswith(f"{name}/")}


@pytest.mark.parametrize("name", sorted(name for name, config in CONFIGS.items()
                                        if config.get("output_format", "csv") == "csv"))
def test_summarize_prints_the_run_summary(name, tmp_path, capsysbinary):
    # one summary function serves both commands: `ggp summarize` on the
    # records file a run wrote prints that run's summary file, byte for byte
    output_digests(name, CONFIGS[name], 1, tmp_path)
    out = tmp_path / f"{name}_w1"
    experiment = CONFIGS[name]["experiment"]
    capsysbinary.readouterr()
    assert main(["summarize", str(out / f"{experiment}_records.csv")]) == 0
    assert capsysbinary.readouterr().out == (out / f"{experiment}_summary.csv").read_bytes()
