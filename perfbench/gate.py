"""Correctness gate on a records CSV, independent of the lab's PASS/FAIL lines.

At benchmark scale the lab's own checks fail legitimately, so the gate
checks what must hold at any scale instead: one record per attempted
replication, Euler's relation on every f-vector, finite non-negative
sup-distances, and the Gumbel KS statistic recomputed with scipy.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

from scipy import stats

KS_TOLERANCE = 1e-9


@dataclass
class GateResult:
    attempted: int
    skipped: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, message: str, whole_run: bool = False):
        """Count one replication as failed, or all of them for a run-level problem."""
        if whole_run:
            self.failed, self.skipped = self.attempted, 0
        else:
            self.failed += 1
        self.problems.append(message)


def _euler_sum(metrics: dict, d: int):
    """Alternating f-vector sum minus its value for a (d-1)-sphere, or None if incomplete."""
    f = [metrics.get(f"f{j}") for j in range(d)]
    if None in f:
        return None
    return sum((-1) ** j * fj for j, fj in enumerate(f)) - (1 - (-1) ** d)


def _check_replication(experiment: str, d: int, m: dict):
    """Problem description for one non-skipped replication's metrics, or None."""
    if experiment == "gumbel":
        ok = math.isfinite(m.get("std_max", math.nan))
        return None if ok else "std_max missing or not finite"
    if experiment == "slln":
        euler = _euler_sum(m, d)
        if euler is None:
            return "incomplete f-vector"
        if euler != 0:
            return f"Euler relation off by {euler:g}"
        return None
    if experiment == "scaling_limit":
        sup = m.get("sup_dist", math.nan)
        if not (math.isfinite(sup) and sup >= 0):
            return f"sup_dist = {sup!r}"
        return None
    return f"no gate for experiment {experiment!r}"


def read_records(path: str):
    """Metrics keyed by (lambda, alpha, beta, replication), and the run-wide column values."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    records: dict = {}
    for r in rows:
        key = (float(r["lambda"]), float(r["alpha"]), float(r["beta"]), int(r["replication"]))
        records.setdefault(key, {})[r["metric"]] = float(r["value"])
    columns = {name: {r[name] for r in rows} for name in ("experiment", "d", "seed")}
    return records, columns


def check(workload, config: dict, path: str) -> GateResult:
    """Gate one run's records file against the config that produced it."""
    experiment, reps = config["experiment"], config["reps"]
    groups = workload.parameter_groups()
    result = GateResult(attempted=len(groups) * reps)
    try:
        records, columns = read_records(path)
    except (OSError, KeyError, ValueError) as exc:
        result.fail(f"unreadable records: {exc}", whole_run=True)
        return result
    expected_columns = {"experiment": {experiment}, "d": {str(workload.dim)},
                        "seed": {str(config["seed"])}}
    if columns != expected_columns:
        result.fail(f"columns {columns} != {expected_columns}", whole_run=True)
        return result

    expected = {(lam, a, b, rep) for lam, a, b in groups for rep in range(reps)}
    extra = {k for k in records if k[3] >= 0} - expected
    if extra:
        result.problems.append(f"{len(extra)} unexpected replication records")
    for key in sorted(expected):
        m = records.get(key)
        if m is None:
            result.fail(f"no record for {key}")
        elif m.get("skipped") == 1.0:
            result.skipped += 1
        else:
            problem = _check_replication(experiment, workload.dim, m)
            if problem:
                result.fail(f"{key}: {problem}")

    if experiment == "gumbel":
        lam, a, b = groups[0]
        sample = [records[(lam, a, b, rep)]["std_max"] for rep in range(reps)
                  if "std_max" in records.get((lam, a, b, rep), {})]
        aggregate = records.get((lam, a, b, -1), {})
        ks = float(stats.kstest(sample, "gumbel_r").statistic) if sample else math.nan
        if not abs(ks - aggregate.get("ks", math.nan)) <= KS_TOLERANCE:
            result.fail(f"KS {aggregate.get('ks')!r} != recomputed {ks!r}", whole_run=True)
    return result
