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
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, replace

from .errors import EmptyInput, GgpError, IoError, ParseError, ValidationError
from .experiments import (
    RecordTable,
    check_clt,
    check_concentration,
    check_gumbel,
    check_intensity,
    check_moments,
    check_scaling_limit,
    check_slln,
    check_tails,
    check_vertex_correspondence,
    concentration_check,
    run_clt,
    run_gumbel,
    run_intensity,
    run_moments,
    run_scaling_limit,
    run_slln_trend,
    run_tails,
    run_vertex_correspondence,
)
from .params import ModelParams
from .sampling import ScaledWindow

__all__ = ["RunConfig", "parse_config", "run", "emit_summary", "main"]

RECORDS_HEADER = ["experiment", "lambda", "d", "alpha", "beta", "seed", "replication",
                  "metric", "value"]
SUMMARY_HEADER = ["experiment", "lambda", "metric", "n", "mean", "var", "ci95"]

_COMMON_KEYS = {"experiment", "seed", "reps", "workers", "output_format", "output_path"}
# Smallest value of each integer run field, in the config file or on the command line.
_RUN_INT_MIN = {"seed": 0, "workers": 1}
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
    if hasattr(os, "sched_getaffinity"):  # the cores this process may run on
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_int(field: str, value) -> int:
    """Check seed or workers; bools are rejected, though Python counts them as ints."""
    if isinstance(value, bool) or not isinstance(value, int) or value < _RUN_INT_MIN[field]:
        raise ValidationError(field, f"must be an integer >= {_RUN_INT_MIN[field]}")
    return value


# Type rules: rule(field, value) raises ValidationError naming the field
# unless value is a well-typed JSON value for it.


def _number(field: str, value, integer: bool = False, finite: bool = True):
    """Reject a JSON value that is not a number (or not an integer), bools
    included, or that no float holds; NaN and infinities pass only where
    finite is False."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ValidationError(field, f"must be {'an integer' if integer else 'a number'}, "
                                     f"got {value!r}")
    in_range = abs(value) <= sys.float_info.max  # False for NaN, infinities and huge ints
    if not in_range and (finite or isinstance(value, int)):
        raise ValidationError(field, "must be a finite number within the float range")


def _integer(field: str, value):
    _number(field, value, integer=True)


def _numbers(field: str, value, length: int | None = None, integer: bool = False):
    """Reject anything but a non-empty JSON list of numbers or integers (of the given length)."""
    kind = "integers" if integer else "numbers"
    if not isinstance(value, list) or not value or length not in (None, len(value)):
        raise ValidationError(field, f"must be a non-empty list of {kind}" if length is None
                              else f"must be a list of {length} {kind}")
    for x in value:
        _number(field, x, integer=integer)


def _bins(field: str, value):
    _numbers(field, value, length=2, integer=True)


def _pairs(field: str, value):
    if not isinstance(value, list) or not value:
        raise ValidationError(field, "must be a non-empty list of [alpha, beta] pairs")
    for pair in value:
        _numbers(field, pair, length=2)


def _window(field: str, value):
    if not isinstance(value, dict):
        raise ValidationError(field, "must be an object with keys " + ", ".join(_WINDOW_KEYS))
    for k in _WINDOW_KEYS:
        if k not in value:
            raise ValidationError(field, f"missing {k}")
        _number(f"{field}.{k}", value[k], finite=False)


# Each experiment's check and runner take one argument list, which
# args(options, reps) builds from the parsed config as (args, kwargs):
# check(*args, **kwargs) raises what the runner raises on them, sampling
# nothing, and runner(*args, seed=..., workers=..., **kwargs) makes the same
# check first. Each is called through its name in this module, so a rebinding
# of the name (a test's monkeypatch, a tracer's wrapper) takes effect.


def _model(o: dict, lam=None):
    """The config's model, at intensity lam or else its own lambda."""
    return ModelParams(o["d"], o["alpha"], o["beta"], o["lambda"] if lam is None else lam)


def _optional(o: dict, *keys) -> dict:
    """The optional keys the config sets, as keyword arguments."""
    return {k: o[k] for k in keys if k in o}


@dataclass(frozen=True)
class _Experiment:
    """One experiment's config keys, each with its type rule; its check and
    runner; and the builder of their argument list."""

    required: dict
    optional: dict
    check: object
    runner: object
    args: object


_MODEL = {"d": _integer, "alpha": _number, "beta": _number}
_REGISTRY = {
    "gumbel": _Experiment(
        {"alpha": _number, "beta": _number, "n": _integer}, {}, check_gumbel, run_gumbel,
        lambda o, reps: ((o["alpha"], o["beta"], o["n"], reps), {})),
    "intensity": _Experiment(
        dict(_MODEL, **{"lambda": _number, "window": _window}), {"bins": _bins},
        check_intensity, run_intensity,
        lambda o, reps: ((_model(o), ScaledWindow(*(o["window"][k] for k in _WINDOW_KEYS)),
                          tuple(o.get("bins", (1, 4))), reps), {})),
    "scaling_limit": _Experiment(
        {"d": _integer, "alphas_betas": _pairs, "lambda_grid": _numbers, "L": _number},
        {"grid_n": _integer}, check_scaling_limit, run_scaling_limit,
        lambda o, reps: (([ModelParams(o["d"], a, b, lam) for a, b in o["alphas_betas"]
                           for lam in o["lambda_grid"]], o["L"], reps), _optional(o, "grid_n"))),
    "moments": _Experiment(
        dict(_MODEL, lambda_grid=_numbers), {}, check_moments, run_moments,
        lambda o, reps: (([_model(o, lam) for lam in o["lambda_grid"]], reps), {})),
    "clt": _Experiment(
        dict(_MODEL, **{"lambda": _number}), {}, check_clt, run_clt,
        lambda o, reps: ((_model(o), reps), {})),
    "tails": _Experiment(
        dict(_MODEL, **{"lambda": _number, "M": _number, "t_grid": _numbers}), {},
        check_tails, run_tails,
        lambda o, reps: ((_model(o), o["M"], o["t_grid"], reps), {})),
    "slln": _Experiment(
        dict(_MODEL, a=_number, k_max=_integer, p=_number, i=_integer), {},
        check_slln, run_slln_trend,
        lambda o, reps: ((_model(o, 1.0), o["a"], o["k_max"], o["p"], o["i"], reps), {})),
    "concentration": _Experiment(
        dict(_MODEL, **{"lambda": _number, "y_grid": _numbers}), {"i": _integer},
        check_concentration, concentration_check,
        lambda o, reps: ((_model(o), reps, o["y_grid"]), _optional(o, "i"))),
    "vertex_correspondence": _Experiment(
        dict(_MODEL, **{"lambda": _number, "L": _number}), {},
        check_vertex_correspondence, run_vertex_correspondence,
        lambda o, reps: ((_model(o), o["L"], reps), {})),
}
EXPERIMENTS = tuple(_REGISTRY)


def parse_config(source: str) -> RunConfig:
    """Parse a JSON run configuration and check its shape and types.

    Unknown keys, missing required keys and values of the wrong JSON type
    raise ValidationError naming the field, as does a seed or workers below
    its minimum. Every other value range, reps included, is judged by the
    experiment's check, which `ggp validate` and the runner call on the
    config's argument list. Defaults: workers from GGP_WORKERS or the
    machine's parallelism, output_format csv.
    """
    try:
        raw = json.loads(source)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno) from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("config", "top level must be a JSON object")
    experiment = raw.get("experiment")
    if experiment is None:
        raise ValidationError("experiment", "missing")
    if not isinstance(experiment, str) or experiment not in _REGISTRY:
        raise ValidationError("experiment", f"unknown experiment {experiment!r}")
    entry = _REGISTRY[experiment]
    rules = {**entry.required, **entry.optional}
    for key in raw:
        if key not in _COMMON_KEYS and key not in rules:
            raise ValidationError(key, "unknown key")
    for key in [*entry.required, "seed", "reps"]:
        if key not in raw:
            raise ValidationError(key, "missing required key")
    seed = _run_int("seed", raw["seed"])
    reps = raw["reps"]
    _integer("reps", reps)
    workers = _run_int("workers", raw["workers"] if "workers" in raw else default_workers())
    output_format = raw.get("output_format", "csv")
    if output_format not in ("csv", "json"):
        raise ValidationError("output_format", "must be 'csv' or 'json'")
    output_path = raw.get("output_path")
    if output_path is not None and not isinstance(output_path, str):
        raise ValidationError("output_path", "must be a string")
    options = {k: v for k, v in raw.items() if k not in _COMMON_KEYS}
    for key, value in options.items():
        rules[key](key, value)
    return RunConfig(
        experiment=experiment,
        seed=seed,
        reps=reps,
        workers=workers,
        output_format=output_format,
        output_path=output_path,
        options=options,
    )


def _plan(config: RunConfig):
    """(check, call) of the configured experiment, both without arguments:
    its check and its runner on the one argument list of the config."""
    entry = _REGISTRY[config.experiment]
    args, kwargs = entry.args(config.options, config.reps)
    return (lambda: globals()[entry.check.__name__](*args, **kwargs),
            lambda: globals()[entry.runner.__name__](*args, seed=config.seed,
                                                     workers=config.workers, **kwargs))


def _dispatch(config: RunConfig):
    _, call = _plan(config)
    return call()


def _format_value(x) -> str:
    return repr(float(x))


def _record_rows(tables):
    """The records' CSV rows, table by table: the constant columns formatted
    once per table, then each row's metrics in sorted order."""
    for table in tables:
        p = table.params
        head = [table.experiment, _format_value(p.lam), str(p.d), _format_value(p.alpha),
                _format_value(p.beta), str(table.seed)]
        for rep, items in zip(table.replication.tolist(), table.row_items()):
            rep = str(rep)
            for metric, value in items:
                yield [*head, rep, metric, repr(value)]


def emit_summary(tables):
    """Group the tables' values into per-(experiment, lambda, metric) summary rows.

    Rows come back sorted by experiment, ascending lambda, then metric:
    count, mean, unbiased variance, and the 95% CI half-width of the mean
    (variance and CI empty when a group has a single value).
    """
    if not any(len(table.replication) for table in tables):
        raise EmptyInput("no records to summarize")
    groups: dict = {}
    for table in tables:
        for metric, (_, values) in table.metrics.items():
            groups.setdefault((table.experiment, table.params.lam, metric), []).extend(
                values.tolist())
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
    summary = emit_summary(result.tables)
    writer = _write_csv if ext == "csv" else _write_json
    writer(records_path, RECORDS_HEADER, _record_rows(result.tables))
    writer(summary_path, SUMMARY_HEADER, summary)
    for check in result.checks:
        print(f"{check.status} {check.name}: {check.detail}")
    print(f"records: {records_path}")
    print(f"summary: {summary_path}")
    return 1 if result.failed() else 0


def _parse_row(line, row) -> list:
    """One records-CSV row's fields; ValidationError names the line and the
    column of a field that is missing or unreadable, or an extra one."""
    kinds = (str, float, int, float, float, int, int, str, float)  # of each RECORDS_HEADER column
    if len(row) > len(kinds):
        raise ValidationError(f"line {line}", f"{len(row)} columns, expected {len(kinds)}")
    fields = []
    for k, (column, kind) in enumerate(zip(RECORDS_HEADER, kinds)):
        try:
            fields.append(kind(row[k]))
        except (IndexError, ValueError):
            problem = f"cannot read {row[k]!r} as {kind.__name__}" if k < len(row) else "missing"
            raise ValidationError(f"line {line}, column {column}", problem) from None
    return fields


def _read_tables(path) -> list:
    """A records CSV as tables, one per (experiment, lambda, d, alpha, beta,
    seed), each line a row."""
    groups: dict = {}
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != RECORDS_HEADER:
                raise ValidationError("header", f"unexpected records header {header}")
            for row in reader:
                *key, rep, metric, value = _parse_row(reader.line_num, row)
                groups.setdefault(tuple(key), []).append((rep, {metric: value}))
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    return [RecordTable.from_rows(experiment, ModelParams(d, alpha, beta, lam), seed,
                                  [rep for rep, _ in rows], [metrics for _, metrics in rows],
                                  [0.0] * len(rows))
            for (experiment, lam, d, alpha, beta, seed), rows in groups.items()]


def summarize_file(path, out=None):
    """Summarize an existing records CSV to CSV text on `out` (default stdout)."""
    rows = emit_summary(_read_tables(path))
    writer = csv.writer(out if out is not None else sys.stdout)
    writer.writerow(SUMMARY_HEADER)
    writer.writerows(rows)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built at the first main call of a process."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        if args.command == "summarize":
            summarize_file(args.records)
            return 0
        try:
            with open(args.config) as fh:
                source = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
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
        where = f" at line {exc.line} column {exc.column}" if exc.line else ""
        print(f"error: parse failure{where}: {exc}", file=sys.stderr)
        return 2
    except GgpError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
