"""Command-line front end: JSON configs in, CSV/JSON records and summaries out.

Usage:
    ggp run --config cfg.json [--seed N] [--workers N] [--out DIR]
    ggp validate --config cfg.json      # the run's checks, without sampling
    ggp summarize records.csv

A run writes one records file and one summary file, prints a PASS/FAIL/INFO
line per embedded check, and exits 0 iff no check failed. Identical
(config, seed) pairs produce byte-identical records regardless of the
worker count.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, replace

from .errors import GgpError, IoError, ParseError, ValidationError
from .experiments import (
    check_clt,
    check_concentration,
    check_gumbel,
    check_intensity,
    check_moments,
    check_reps,
    check_scaling_limit,
    check_slln,
    check_tails,
    concentration_check,
    run_clt,
    run_gumbel,
    run_intensity,
    run_moments,
    run_scaling_limit,
    run_slln_trend,
    run_tails,
)
from .params import validate_params
from .sampling import ScaledWindow

__all__ = ["RunConfig", "parse_config", "run", "emit_summary", "main"]

RECORDS_HEADER = ["experiment", "lambda", "d", "alpha", "beta", "seed", "replication",
                  "metric", "value"]
SUMMARY_HEADER = ["experiment", "lambda", "metric", "n", "mean", "var", "ci95"]

EXPERIMENTS = ("gumbel", "intensity", "scaling_limit", "moments", "clt", "tails",
               "slln", "concentration")

_COMMON_KEYS = {"experiment", "seed", "reps", "workers", "output_format", "output_path"}
_EXPERIMENT_KEYS = {
    "gumbel": {"alpha", "beta", "n"},
    "intensity": {"d", "alpha", "beta", "lambda", "window", "bins"},
    "scaling_limit": {"d", "alphas_betas", "lambda_grid", "L", "grid_n"},
    "moments": {"d", "alpha", "beta", "lambda_grid"},
    "clt": {"d", "alpha", "beta", "lambda"},
    "tails": {"d", "alpha", "beta", "lambda", "M", "t_grid"},
    "slln": {"d", "alpha", "beta", "a", "k_max", "p", "i"},
    "concentration": {"d", "alpha", "beta", "lambda", "y_grid", "i"},
}
_REQUIRED_KEYS = {
    "gumbel": {"alpha", "beta", "n"},
    "intensity": {"d", "alpha", "beta", "lambda", "window"},
    "scaling_limit": {"d", "alphas_betas", "lambda_grid", "L"},
    "moments": {"d", "alpha", "beta", "lambda_grid"},
    "clt": {"d", "alpha", "beta", "lambda"},
    "tails": {"d", "alpha", "beta", "lambda", "M", "t_grid"},
    "slln": {"d", "alpha", "beta", "a", "k_max", "p", "i"},
    "concentration": {"d", "alpha", "beta", "lambda", "y_grid"},
}
# Smallest value of each integer run field, in the config file or on the command line.
_RUN_INT_MIN = {"seed": 0, "reps": 1, "workers": 1}
# JSON types of the experiment keys outside the model fields.
_INTEGER_KEYS = ("k_max", "i", "grid_n")
_NUMBER_KEYS = ("L", "p", "a", "M")
_NUMBER_LIST_KEYS = ("t_grid", "y_grid")
_WINDOW_KEYS = ("spatial_radius", "h_min", "h_max")


@dataclass(frozen=True)
class RunConfig:
    experiment: str
    seed: int
    reps: int
    workers: int
    output_format: str
    output_path: str | None
    options: dict


def default_workers() -> int:
    env = os.environ.get("GGP_WORKERS")
    if env is not None:
        try:
            n = int(env)
        except ValueError as exc:
            raise ValidationError("GGP_WORKERS", f"not an integer: {env!r}") from exc
        if n < 1:
            raise ValidationError("GGP_WORKERS", "must be >= 1")
        return n
    return os.cpu_count() or 1


def _run_int(field: str, value) -> int:
    """Check seed, reps or workers; bools are rejected, though Python counts them as ints."""
    if isinstance(value, bool) or not isinstance(value, int) or value < _RUN_INT_MIN[field]:
        raise ValidationError(field, f"must be an integer >= {_RUN_INT_MIN[field]}")
    return value


def _check_number(field: str, value, integer: bool = False):
    """Reject a JSON value that is not a number (or not an integer), bools included."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ValidationError(field, f"must be {'an integer' if integer else 'a number'}, "
                                     f"got {value!r}")


def _check_number_list(field: str, value, length: int | None = None, integer: bool = False):
    """Reject anything but a non-empty JSON list of numbers or integers (of the given length)."""
    kind = "integers" if integer else "numbers"
    if not isinstance(value, list) or not value or length not in (None, len(value)):
        raise ValidationError(field, f"must be a non-empty list of {kind}" if length is None
                              else f"must be a list of {length} {kind}")
    for x in value:
        _check_number(field, x, integer=integer)


def _check_experiment_fields(opts: dict):
    """Type- and range-check the experiment keys that are not model fields."""
    for key in _INTEGER_KEYS:
        if key in opts:
            _check_number(key, opts[key], integer=True)
    for key in _NUMBER_KEYS:
        if key in opts:
            _check_number(key, opts[key])
    for key in _NUMBER_LIST_KEYS:
        if key in opts:
            _check_number_list(key, opts[key])
    if "bins" in opts:
        _check_number_list("bins", opts["bins"], length=2, integer=True)
        if min(opts["bins"]) < 1:
            raise ValidationError("bins", "both bin counts must be >= 1")
    if "L" in opts and not opts["L"] > 0:
        raise ValidationError("L", "must be > 0")
    if "grid_n" in opts and opts["grid_n"] < 2:
        raise ValidationError("grid_n", "must be >= 2")
    if "window" in opts:
        w = opts["window"]
        if not isinstance(w, dict):
            raise ValidationError("window", "must be an object with keys "
                                            + ", ".join(_WINDOW_KEYS))
        for k in _WINDOW_KEYS:
            if k not in w:
                raise ValidationError("window", f"missing {k}")
            _check_number(f"window.{k}", w[k])


def _validate_model_fields(opts: dict):
    """Run the model-parameter validators so bad fields are named early."""
    from .errors import (
        AlphaOutOfRange,
        BetaOutOfRange,
        DimensionTooSmall,
        NonpositiveIntensity,
    )

    mapping = {
        DimensionTooSmall: "d",
        AlphaOutOfRange: "alpha",
        BetaOutOfRange: "beta",
        NonpositiveIntensity: "lambda",
    }
    for key in ("d", "alpha", "beta", "lambda"):
        if key in opts:
            _check_number(key, opts[key], integer=key == "d")
    if "lambda_grid" in opts:
        _check_number_list("lambda_grid", opts["lambda_grid"])
    if "alphas_betas" in opts:
        if not isinstance(opts["alphas_betas"], list) or not opts["alphas_betas"]:
            raise ValidationError("alphas_betas", "must be a non-empty list of [alpha, beta] pairs")
        for pair in opts["alphas_betas"]:
            _check_number_list("alphas_betas", pair, length=2)
    lams = []
    if "lambda" in opts:
        lams = [opts["lambda"]]
    elif "lambda_grid" in opts:
        lams = list(opts["lambda_grid"])
    pairs = opts.get("alphas_betas") or [(opts.get("alpha", 0.0), opts.get("beta", 2.0))]
    d = int(opts.get("d", 2))
    for alpha, beta in pairs:
        for lam in lams or [1.0]:
            try:
                validate_params(d, alpha, beta, lam)
            except tuple(mapping) as exc:
                raise ValidationError(mapping[type(exc)], str(exc)) from exc


def parse_config(source: str) -> RunConfig:
    """Parse and validate a JSON run configuration.

    Unknown keys are rejected; missing required keys and out-of-range model
    parameters raise ValidationError naming the field. Defaults: workers
    from GGP_WORKERS or the machine's parallelism, output_format csv.
    """
    try:
        raw = json.loads(source)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno) from exc
    if not isinstance(raw, dict):
        raise ValidationError("config", "top level must be a JSON object")
    experiment = raw.get("experiment")
    if experiment is None:
        raise ValidationError("experiment", "missing")
    if experiment not in EXPERIMENTS:
        raise ValidationError("experiment", f"unknown experiment {experiment!r}")
    allowed = _COMMON_KEYS | _EXPERIMENT_KEYS[experiment]
    for key in raw:
        if key not in allowed:
            raise ValidationError(key, "unknown key")
    for key in _REQUIRED_KEYS[experiment] | {"seed", "reps"}:
        if key not in raw:
            raise ValidationError(key, "missing required key")
    seed = _run_int("seed", raw["seed"])
    reps = _run_int("reps", raw["reps"])
    check_reps(reps)
    workers = _run_int("workers", raw["workers"] if "workers" in raw else default_workers())
    output_format = raw.get("output_format", "csv")
    if output_format not in ("csv", "json"):
        raise ValidationError("output_format", "must be 'csv' or 'json'")
    options = {k: v for k, v in raw.items() if k not in _COMMON_KEYS}
    options.pop("experiment", None)
    if experiment != "gumbel":
        _validate_model_fields(options)
    else:
        for key in ("alpha", "beta", "n"):
            _check_number(key, options[key])
        if not options["alpha"] > -1:
            raise ValidationError("alpha", "must be > -1")
        if not options["beta"] >= 1:
            raise ValidationError("beta", "must be >= 1")
    _check_experiment_fields(options)
    return RunConfig(
        experiment=experiment,
        seed=seed,
        reps=reps,
        workers=workers,
        output_format=output_format,
        output_path=raw.get("output_path"),
        options=options,
    )


def _plan(config: RunConfig):
    """(check, call) for the configured runner, both without arguments.

    check() raises what the runner's own check function raises on these
    arguments, sampling nothing, so `validate` rejects exactly what `run`
    would; call() runs the runner, which makes the same check first.
    """
    o = config.options
    seed, reps, workers = config.seed, config.reps, config.workers
    if config.experiment == "gumbel":
        n = int(o["n"])
        return (lambda: check_gumbel(n, reps),
                lambda: run_gumbel(o["alpha"], o["beta"], n, reps, seed, workers))
    if config.experiment == "intensity":
        params = validate_params(o["d"], o["alpha"], o["beta"], o["lambda"])
        w = o["window"]
        window = ScaledWindow(w["spatial_radius"], w["h_min"], w["h_max"])
        bins = tuple(o.get("bins", (1, 4)))
        return (lambda: check_intensity(params, window),
                lambda: run_intensity(params, window, bins, reps, seed, workers))
    if config.experiment == "scaling_limit":
        params_list = [
            validate_params(o["d"], a, b, lam)
            for (a, b) in o["alphas_betas"]
            for lam in o["lambda_grid"]
        ]
        return (lambda: check_scaling_limit(params_list, o["L"]),
                lambda: run_scaling_limit(params_list, o["L"], reps, seed, workers,
                                          grid_n=int(o.get("grid_n", 41))))
    if config.experiment == "moments":
        grid = [validate_params(o["d"], o["alpha"], o["beta"], lam) for lam in o["lambda_grid"]]
        return (lambda: check_moments(grid, reps),
                lambda: run_moments(grid, reps, seed, workers))
    if config.experiment == "clt":
        params = validate_params(o["d"], o["alpha"], o["beta"], o["lambda"])
        return (lambda: check_clt(params, reps),
                lambda: run_clt(params, reps, seed, workers))
    if config.experiment == "tails":
        params = validate_params(o["d"], o["alpha"], o["beta"], o["lambda"])
        return (lambda: check_tails(params, reps),
                lambda: run_tails(params, o["M"], o["t_grid"], reps, seed, workers))
    if config.experiment == "slln":
        params = validate_params(o["d"], o["alpha"], o["beta"], 1.0)
        args = (params, o["a"], int(o["k_max"]), o["p"], int(o["i"]))
        return (lambda: check_slln(*args),
                lambda: run_slln_trend(*args, reps, seed, workers))
    if config.experiment == "concentration":
        params = validate_params(o["d"], o["alpha"], o["beta"], o["lambda"])
        return (lambda: check_concentration(params, reps, o.get("i")),
                lambda: concentration_check(params, reps, o["y_grid"], seed,
                                            i=o.get("i"), workers=workers))
    raise ValidationError("experiment", config.experiment)


def _dispatch(config: RunConfig):
    _, call = _plan(config)
    return call()


def _format_value(x) -> str:
    v = float(x)
    if math.isnan(v):
        return "nan"
    return repr(v)


def _record_rows(records):
    for rec in records:
        for metric in sorted(rec.metrics):
            yield [
                rec.experiment,
                _format_value(rec.lam),
                str(rec.d),
                _format_value(rec.alpha),
                _format_value(rec.beta),
                str(rec.seed),
                str(rec.replication),
                metric,
                _format_value(rec.metrics[metric]),
            ]


def emit_summary(records):
    """Group records into per-(lambda, metric) summary rows.

    Rows come back sorted by experiment, ascending lambda, then metric:
    count, mean, unbiased variance, and the 95% CI half-width of the mean
    (variance and CI empty when a group has a single record).
    """
    from .errors import EmptyInput

    if not records:
        raise EmptyInput("no records to summarize")
    groups: dict = {}
    for rec in records:
        for metric, value in rec.metrics.items():
            groups.setdefault((rec.experiment, rec.lam, metric), []).append(float(value))
    rows = []
    for (experiment, lam, metric) in sorted(groups):
        vals = groups[(experiment, lam, metric)]
        n = len(vals)
        mean = math.fsum(vals) / n
        if n > 1:
            var = math.fsum((v - mean) ** 2 for v in vals) / (n - 1)
            ci = 1.96 * math.sqrt(var / n)
            var_s, ci_s = _format_value(var), _format_value(ci)
        else:
            var_s, ci_s = "", ""
        rows.append([experiment, _format_value(lam), metric, str(n), _format_value(mean),
                     var_s, ci_s])
    return rows


def _write_csv(path, header, rows):
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _write_json(path, header, rows):
    payload = [dict(zip(header, row)) for row in rows]
    try:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def run(config: RunConfig, out_dir: str | None = None) -> int:
    """Execute the configured experiment; returns the process exit status."""
    result = _dispatch(config)
    base = out_dir or config.output_path or "."
    try:
        os.makedirs(base, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {base}: {exc}") from exc
    ext = config.output_format
    records_path = os.path.join(base, f"{config.experiment}_records.{ext}")
    summary_path = os.path.join(base, f"{config.experiment}_summary.{ext}")
    rows = list(_record_rows(result.records))
    summary = emit_summary(result.records)
    writer = _write_csv if ext == "csv" else _write_json
    writer(records_path, RECORDS_HEADER, rows)
    writer(summary_path, SUMMARY_HEADER, summary)
    for check in result.checks:
        print(f"{check.status} {check.name}: {check.detail}")
    print(f"records: {records_path}")
    print(f"summary: {summary_path}")
    return 1 if result.failed() else 0


def _read_records_csv(path):
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != RECORDS_HEADER:
                raise ValidationError("header", f"unexpected records header {header}")
            return list(reader)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def summarize_file(path, out=None):
    """Summarize an existing records CSV to CSV text on `out` (default stdout)."""
    from .experiments import ExperimentRecord

    out = out if out is not None else sys.stdout
    rows = _read_records_csv(path)
    records = [
        ExperimentRecord(
            experiment=r[0], lam=float(r[1]), d=int(r[2]), alpha=float(r[3]), beta=float(r[4]),
            seed=int(r[5]), replication=int(r[6]), metrics={r[7]: float(r[8])},
        )
        for r in rows
    ]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(SUMMARY_HEADER)
    writer.writerows(emit_summary(records))
    out.write(buf.getvalue())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ggp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--workers", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_val = sub.add_parser("validate", help="validate a JSON config")
    p_val.add_argument("--config", required=True)
    p_sum = sub.add_parser("summarize", help="summarize a records CSV to stdout")
    p_sum.add_argument("records")
    args = parser.parse_args(argv)

    try:
        if args.command == "summarize":
            summarize_file(args.records)
            return 0
        try:
            with open(args.config) as fh:
                source = fh.read()
        except OSError as exc:
            raise IoError(f"cannot read {args.config}: {exc}") from exc
        config = parse_config(source)
        if args.command == "validate":
            check, _ = _plan(config)
            check()
            print(f"ok: {config.experiment} (seed {config.seed}, reps {config.reps})")
            return 0
        if args.seed is not None:
            config = replace(config, seed=_run_int("seed", args.seed))
        if args.workers is not None:
            config = replace(config, workers=_run_int("workers", args.workers))
        return run(config, out_dir=args.out)
    except ParseError as exc:
        print(f"error: parse failure at line {exc.line} column {exc.column}: {exc}",
              file=sys.stderr)
        return 2
    except GgpError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
