"""Experiment runners: estimators plus the named desk-scale experiments.

Every runner is deterministic given (seed, configuration): replication r of
a run draws from the stream (seed, stream_id(r)), and the Gumbel runner's
block b of GUMBEL_BLOCK replications from the stream (seed, b), so results
are identical regardless of how replications are scheduled across workers.
Asymptotic claims are tested as ratio bands, monotone trends, or shape
fits, whose thresholds are the named module constants below, one value per
pass rule.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import GgpError, ValidationError
from .festoon import (
    ball_grid,
    phi_boundary_batch,
    psi_lambda_envelope,
    rescaled_hull_boundary,
    stable_height,
    windowed_festoon,
)
from .hull import convex_hull
from .params import (
    ModelParams,
    check_exponents,
    check_integer,
    critical_radius,
    normalization,
    sphere_surface_area,
    unit_ball_volume,
    validate_params,
)
from .rescale import rescaled_intensity, transform_batch
from .sampling import (
    RngStream,
    radial_tail,
    radial_tail_inverse,
    sample_polytope_input,
    sample_standardized_max,
)
from .stats import bootstrap_median_ci, fit_line, gumbel_cdf, ks_statistic, summary_stats

__all__ = [
    "ExperimentRecord",
    "RecordTable",
    "CheckOutcome",
    "RunResult",
    "run_gumbel",
    "run_intensity",
    "run_scaling_limit",
    "run_moments",
    "run_clt",
    "run_tails",
    "run_slln_trend",
    "concentration_check",
    "run_vertex_correspondence",
    "expected_intrinsic_scale",
    "check_gumbel",
    "check_intensity",
    "check_scaling_limit",
    "check_moments",
    "check_clt",
    "check_tails",
    "check_slln",
    "check_concentration",
    "check_vertex_correspondence",
    "check_reps",
    "replicate",
]

AGGREGATE_REPLICATION = -1  # replication index reserved for run-level metrics
# Expected point count of the outer shell that a polytope replication samples
# first, by dimension; the last entry serves every higher d, and at or below
# its size a replication samples the whole cloud. The hull boundary lives in
# an O(1)-high layer of the rescaled space whose spatial extent grows like
# (beta log lambda)^((d-1)/2), so the points that can touch the hull grow
# steeply with d. Round 1 certified at least 99% of 100 replications of the
# polytope, scaling and vertex tasks for the laws (alpha, beta) = (0,2),
# (1,1), (-0.5,3), (0,1), (2,4) in d = 2 at lambda 1e3..1e6, and in d = 3 at
# lambda 1e4..1e5 but for (2,4) at 1e5 (78%). In d = 4 at lambda 1e4, 512
# points certified 70% and hulled slower than 1024 (5.1 vs 4.7 ms).
SHELL_POINTS = {2: 192, 3: 512, 4: 1024}
# Distinct grid points a slope or trend check needs; below this it reports INFO.
MIN_TREND_POINTS = 3
GRID_N = 41  # points per axis of the tails ball_grid; the scaling-limit default
# Most points of a ball_grid, grid_n^(d-1): about 20 times the largest grid a
# test or documented config builds (512, grid_n = 2 in d = 10). GRID_N serves d <= 3.
MAX_GRID_POINTS = 10_000
# Replication rep of parameter group pi draws from stream pi * STREAM_STRIDE + rep,
# so reps must stay below it and every replication stream below the streams
# reserved for the bootstrap of the k-th intensity of a law at
# BOOTSTRAP_STREAM + k (check_reps).
STREAM_STRIDE = 1_000_000
BOOTSTRAP_STREAM = 2_000_000_000
# Gumbel replications per task: block b of a run draws its maxima from stream
# b, so one generator and one vectorized kernel call serve the whole block.
# Warm in-process runs at n = 1e5 (2-core VM) took medians of 2.60 ms with
# blocks of 100 against 2.44 ms with blocks of 1000 at 400 reps, 6.6 against
# 6.1 ms at 2000 reps and 31 against 42 ms at 1e4 reps (alternating runs).
# 100 costs little more and leaves a 400-rep run 4 tasks to share, not one.
GUMBEL_BLOCK = 100
# What a process pool costs beyond the work it spreads, in seconds: forking a
# ProcessPoolExecutor(2) in a warm process with numpy and scipy loaded,
# mapping 400 trivial tasks and shutting it down took a median of 22-23 ms
# (19-61 ms over 20 trials; 2-core VM, Python 3.11), before the workers' cold
# caches slow their first tasks. With workers = 2, _map_tasks starts a pool of
# one process, whose cost was not re-measured.
POOL_START_S = 0.03
# Pass rules, one value each.
GUMBEL_KS_THRESHOLD = 0.05  # KS distance of the standardized maxima to the Gumbel law
INTENSITY_REL_TOL = 0.05  # relative error of a binned count against its exact mass,
INTENSITY_MIN_EXPECTED = 200.0  # on the cells whose aggregate expected count is this or more
INTENSITY_MASS_TOL = 0.01  # relative error of the whole window's quadrature mass
INTENSITY_LIMIT_LAMS = (1e4, 1e8)  # the exact masses approach their e^h limit between these
MOMENTS_RATIO_BAND = (0.75, 1.05)  # E[V_d] / leading-order scale at the largest intensity
MOMENTS_F0_SLOPE_BAND = 0.15  # log E[f0] slope within (d-1)/2 +- this
MOMENTS_VAR_SLOPE_BAND = 0.2  # log var[f0] slope within (d-1)/2 +- this
CLT_SKEW_TOL = 0.25  # |skewness| of a standardized metric
CLT_KURT_TOL = 0.5  # its |excess kurtosis|
CLT_KS_TOL = 0.04  # its KS distance to N(0, 1)
TAILS_R2_THRESHOLD = 0.9  # r^2 of the fit of log P(sup >= t) on t
VERTEX_MATCH_THRESHOLD = 0.95  # match rate of hull vertices and festoon extreme points
# Gauss-Legendre nodes per axis of a window cell in _cell_masses.
GAUSS_NODES = 24


@dataclass(frozen=True)
class ExperimentRecord:
    """One replication's metrics with full provenance: one row of a RecordTable."""

    experiment: str
    lam: float
    d: int
    alpha: float
    beta: float
    seed: int
    replication: int
    metrics: dict
    wall_time: float = 0.0


@dataclass(frozen=True)
class RecordTable:
    """One parameter group's records as columns.

    Row k is replication replication[k], which took wall_time[k] seconds.
    metrics maps each metric name to (rows, values): the ascending indices
    of the rows that hold the metric, and its values there. A skipped row
    holds only `skipped`, so every other metric's values are the kept rows'.
    """

    experiment: str
    params: ModelParams
    seed: int
    replication: np.ndarray
    metrics: dict
    wall_time: np.ndarray

    @classmethod
    def from_rows(cls, experiment, params, seed, replications, row_metrics, wall_times):
        """The table of one metrics dict per row."""
        columns: dict = {}
        for k, metrics in enumerate(row_metrics):
            for name, value in metrics.items():
                rows, values = columns.setdefault(name, ([], []))
                rows.append(k)
                values.append(value)
        return cls(experiment, params, seed, np.asarray(replications, dtype=np.int64),
                   {name: (np.asarray(rows, dtype=np.intp), np.asarray(values, dtype=float))
                    for name, (rows, values) in columns.items()},
                   np.asarray(wall_times, dtype=float))

    def values(self, name) -> np.ndarray:
        """The values of metric name over the rows that hold it; empty if none does."""
        return self.metrics[name][1] if name in self.metrics else np.empty(0)

    def n_kept(self) -> int:
        """The rows not skipped."""
        return len(self.replication) - int(np.count_nonzero(self.values("skipped")))

    def row_items(self) -> list:
        """Per row, its (metric, value) pairs in sorted metric order, as Python floats."""
        items = [[] for _ in range(len(self.replication))]
        for name in sorted(self.metrics):
            rows, values = self.metrics[name]
            for k, value in zip(rows.tolist(), values.tolist()):
                items[k].append((name, value))
        return items


@dataclass(frozen=True)
class CheckOutcome:
    """One embedded acceptance check: PASS, FAIL or INFO plus detail."""

    name: str
    status: str
    detail: str


@dataclass
class RunResult:
    """A run's records as tables, in output order (the groups' replications,
    then the aggregate rows where the runner adds them), and its checks."""

    experiment: str
    tables: list = field(default_factory=list)
    checks: list = field(default_factory=list)

    @property
    def records(self) -> tuple:
        """Read-only view: each table row as an ExperimentRecord, built on access."""
        return tuple(ExperimentRecord(t.experiment, t.params.lam, t.params.d, t.params.alpha,
                                      t.params.beta, t.seed, rep, dict(items), wall)
                     for t in self.tables for rep, items, wall in
                     zip(t.replication.tolist(), t.row_items(), t.wall_time.tolist()))

    def failed(self) -> bool:
        return any(c.status == "FAIL" for c in self.checks)


def _run_share(fn, share):
    """[fn(task) for task in share]: one process's share of a pool run."""
    return [fn(t) for t in share]


def _process_pool(processes: int):
    """A pool of processes; concurrent.futures.process, with multiprocessing
    and pickle, loads here, at the first pool a run starts."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=processes)


def _map_tasks(fn, tasks, workers: int, probe: int):
    """[fn(task) for task in tasks], on this process and at most workers - 1 others.

    fn(tasks[probe]) runs first in this process and is timed; it also loads,
    before any fork, the modules the tasks import lazily. The rest could be
    shared by w = min(workers, tasks left) processes, and a pool pays off
    only when the serial time S of the rest exceeds POOL_START_S + S / w.
    So if w < 2, as at one worker, or probe time x tasks left is below that
    break-even, the rest runs here, in order. Otherwise it splits into w
    strided shares: a pool of w - 1 processes runs one share each while
    this process runs the first. Either way every row lands at its task's
    index.
    """
    results = [None] * len(tasks)
    t0 = time.perf_counter()
    results[probe] = fn(tasks[probe])
    probe_s = time.perf_counter() - t0
    rest = [k for k in range(len(tasks)) if k != probe]
    w = min(workers, len(rest))
    if w < 2 or probe_s * len(rest) < POOL_START_S * w / (w - 1):
        for k in rest:
            results[k] = fn(tasks[k])
        return results
    shares = [rest[i::w] for i in range(w)]
    with _process_pool(w - 1) as pool:
        futures = [pool.submit(_run_share, fn, [tasks[k] for k in share]) for share in shares[1:]]
        rows = [_run_share(fn, [tasks[k] for k in shares[0]])]
        rows += [future.result() for future in futures]
    for share, share_rows in zip(shares, rows):
        for k, row in zip(share, share_rows):
            results[k] = row
    return results


def _check(name, ok, detail) -> CheckOutcome:
    return CheckOutcome(name=name, status="PASS" if ok else "FAIL", detail=detail)


def _info(name, detail) -> CheckOutcome:
    return CheckOutcome(name=name, status="INFO", detail=detail)


def _judged(result, name, n_kept, reps) -> bool:
    """Whether n_kept of reps kept replications can judge a statistic: 2 or
    more can. Fewer get the FAIL check name, appended to result's checks."""
    if n_kept < 2:
        result.checks.append(
            _check(name, False, f"not judged: {n_kept} of {reps} replications kept, need 2"))
    return n_kept >= 2


def _too_short(grid):
    """Why a slope or trend check over grid cannot be judged, or None if it can."""
    distinct = len(np.unique(grid))
    if distinct < MIN_TREND_POINTS:
        return f"not judged: {distinct} distinct grid point(s), need {MIN_TREND_POINTS}"
    return None


# Each runner's preconditions live in a check_* function that takes the
# runner's arguments but seed and workers, judges those it must and samples
# nothing. The runner calls it first on its own arguments, so `ggp validate`,
# calling it on the arguments `ggp run` hands the runner, rejects exactly the
# configs the runner would. These checks, with the params.validate_params
# they call, are the only judges of a value's range, reps included; the CLI
# judges only JSON shape and types and its own seed and workers.


def check_reps(reps, n_groups=1, minimum=1):
    """Bounds shared by every runner: an integer count of at least minimum
    replications and one parameter group, and distinct (group, rep) pairs
    get distinct streams, all below the reserved BOOTSTRAP_STREAM."""
    check_integer("reps", reps)
    if not minimum <= reps < STREAM_STRIDE:
        raise ValidationError("reps", f"need {minimum} <= reps < {STREAM_STRIDE}")
    if not 1 <= n_groups <= BOOTSTRAP_STREAM // STREAM_STRIDE:
        raise ValidationError("lambda_grid", f"need 1 to {BOOTSTRAP_STREAM // STREAM_STRIDE} "
                                             f"parameter groups, got {n_groups}")


def _usable(params):
    """Validated parameters and their critical radius (IntensityTooSmall if none)."""
    params = validate_params(params.d, params.alpha, params.beta, params.lam)
    return params, critical_radius(params)


def _check_L(L):
    if not 0 < L <= 2:
        raise ValidationError("L", "need 0 < L <= 2")


def _check_grid(grid_n, d, field):
    """Refuse, naming field, a ball_grid of grid_n^(d-1) points above MAX_GRID_POINTS."""
    if grid_n ** min(d - 1, 64) > MAX_GRID_POINTS:  # grid_n >= 2, so 2^64 is above it too
        raise ValidationError(field, f"need a ball grid of at most {MAX_GRID_POINTS} points, "
                                     f"got grid_n^(d-1) = {grid_n}^{d - 1}")


# ---------------------------------------------------------------------------
# the replication engine
# ---------------------------------------------------------------------------


def _replication(job):
    """One replication: the task's output on its own stream, and its wall time."""
    task, seed, stream_id, params, args = job
    t0 = time.perf_counter()
    out = task(RngStream(seed, stream_id), params, *args)
    return out, time.perf_counter() - t0


def replicate(experiment, task, groups, reps, seed, workers, *args):
    """reps replications of task(stream, params, *args) for each parameter group.

    Replication rep of group pi draws from stream pi * STREAM_STRIDE + rep,
    which it seeds where it runs, so results do not depend on where or in
    which order replications run: in this process, or on a pool that
    _map_tasks starts only when the timed probe replication says the pool
    would pay for itself.
    A task returns its replication's metrics, or (metrics, side) to hand
    back a side value that is not recorded. Returns one RecordTable per
    group, its rows the replications in order, and the side values,
    group-major and replication-minor.
    """
    check_reps(reps, len(groups))
    jobs = [(task, seed, pi * STREAM_STRIDE + rep, params, args)
            for pi, params in enumerate(groups) for rep in range(reps)]
    # probe the likely costliest replication: the last of the largest lambda
    last = max(range(len(groups)), key=lambda pi: (groups[pi].lam, pi), default=0)
    rows = _map_tasks(_replication, jobs, workers, last * reps + reps - 1)
    outs = [out if isinstance(out, tuple) else (out, None) for out, _ in rows]
    tables = [RecordTable.from_rows(experiment, params, seed, range(reps),
                                    [metrics for metrics, _ in outs[pi * reps:(pi + 1) * reps]],
                                    [wall for _, wall in rows[pi * reps:(pi + 1) * reps]])
              for pi, params in enumerate(groups)]
    return tables, [side for _, side in outs]


def _aggregate(experiment, params, seed, metrics) -> RecordTable:
    """The run-level row of one parameter group."""
    return RecordTable.from_rows(experiment, params, seed, [AGGREGATE_REPLICATION], [metrics],
                                 [0.0])


def _by_law(groups) -> dict:
    """Indices of the groups of each law (d, alpha, beta), in ascending lambda."""
    laws: dict = {}
    for pi, params in enumerate(groups):
        laws.setdefault((params.d, params.alpha, params.beta), []).append(pi)
    return {law: sorted(pis, key=lambda pi: groups[pi].lam) for law, pis in laws.items()}


# ---------------------------------------------------------------------------
# gumbel maxima
# ---------------------------------------------------------------------------


def _gumbel_block_task(rng, group, reps):
    """Block rng.stream_id of run_gumbel: the next GUMBEL_BLOCK of its reps
    maxima, fewer in the last block, as the side value."""
    size = min(GUMBEL_BLOCK, reps - rng.stream_id * GUMBEL_BLOCK)
    return {}, sample_standardized_max(rng, int(group.lam), group.alpha, group.beta, size)


def check_gumbel(alpha, beta, n, reps):
    """Preconditions of run_gumbel."""
    check_exponents(alpha, beta)
    check_integer("n", n)
    if not 100 <= n < 2**63:  # the point count is drawn as a 64-bit binomial
        raise ValidationError("n", "need 100 <= n < 2**63")
    check_reps(reps, minimum=100)


def run_gumbel(alpha, beta, n, reps, seed, workers=1) -> RunResult:
    """Standardized 1-d maxima against the Gumbel law exp(-e^{-x}); passes
    when their KS distance is below GUMBEL_KS_THRESHOLD.

    Replication b * GUMBEL_BLOCK + j is draw j of block b, which draws from
    stream b; the group's table holds one row per replication, with its
    block's wall time shared evenly.
    """
    check_gumbel(alpha, beta, n, reps)
    # one group of 1-d maxima of n points, with n in the lambda column
    group = ModelParams(1, float(alpha), float(beta), float(n))
    (blocks,), maxima = replicate("gumbel", _gumbel_block_task, [group],
                                  math.ceil(reps / GUMBEL_BLOCK), seed, workers, reps)
    values, sizes, rows = np.concatenate(maxima), [len(m) for m in maxima], np.arange(reps)
    result = RunResult("gumbel", [RecordTable("gumbel", group, seed, rows,
                                              {"std_max": (rows, values)},
                                              np.repeat(blocks.wall_time / sizes, sizes))])
    ks = ks_statistic(values, gumbel_cdf)
    result.tables.append(_aggregate("gumbel", group, seed,
                                    {"ks": ks, "n": float(n), "reps": float(reps)}))
    result.checks.append(
        _check(
            f"gumbel_ks[alpha={alpha},beta={beta}]",
            ks < GUMBEL_KS_THRESHOLD,
            f"ks = {ks:.4f} vs threshold {GUMBEL_KS_THRESHOLD} (n = {n:.0g}, reps = {reps})",
        )
    )
    return result


# ---------------------------------------------------------------------------
# rescaled intensity
# ---------------------------------------------------------------------------


def _spatial_shell_factor(rho, d):
    """Surface measure per unit spatial radius: 2 for d = 2, else a sphere shell."""
    if d == 2:
        return np.full_like(np.asarray(rho, dtype=float), 2.0)
    return sphere_surface_area(d - 1) * np.asarray(rho, dtype=float) ** (d - 2)


def _cell_masses(params, r_lambda, rho_edges, h_edges, mode):
    """Integral of the exact (or limiting e^h) intensity over (||v||, h) cells."""
    nodes, weights = np.polynomial.legendre.leggauss(GAUSS_NODES)
    rho_edges, h_edges = np.asarray(rho_edges, dtype=float), np.asarray(h_edges, dtype=float)
    r0, r1 = rho_edges[:-1, None], rho_edges[1:, None]
    rho = 0.5 * (r1 - r0) * nodes + 0.5 * (r1 + r0)  # (rho cells, n_gauss)
    wr = 0.5 * (r1 - r0) * weights * _spatial_shell_factor(rho, params.d)
    h0, h1 = h_edges[:-1, None], h_edges[1:, None]
    hh = 0.5 * (h1 - h0) * nodes + 0.5 * (h1 + h0)  # (h cells, n_gauss)
    wh = 0.5 * (h1 - h0) * weights
    n_rho, n_h = len(rho), len(hh)
    if mode == "exact":
        consts = normalization(params.d, params.alpha, params.beta)
    else:  # e^h depends on h alone, so one (n_h, n_gauss, n_gauss) table serves every row
        vals = np.repeat(np.exp(hh)[:, None, :], GAUSS_NODES, axis=1)
    out = np.empty((n_rho, n_h))
    for i in range(n_rho):
        if mode == "exact":
            # one call per rho row, so memory grows with n_h alone; node (a, b)
            # of cell (i, j) sits at ||v|| = rho[i, a], h = hh[j, b]
            pts = np.zeros((n_h, GAUSS_NODES, GAUSS_NODES, params.d))
            pts[..., 0] = rho[i, None, :, None]
            pts[..., -1] = hh[:, None, :]
            vals = rescaled_intensity(pts.reshape(-1, params.d), params, r_lambda,
                                      consts).reshape(n_h, GAUSS_NODES, GAUSS_NODES)
        for j in range(n_h):
            out[i, j] = float(wr[i] @ vals[j] @ wh[j])
    return out


def _intensity_task(rng, params, window, rho_edges, h_edges, r_lambda):
    # h = R^(beta-1) (R - ||x||), so only the annulus below can reach the
    # window's heights; by Poisson restriction sampling just it is exact. The
    # margins absorb rounding in h, and keep still decides membership. The
    # annulus is never empty, as check_intensity keeps h_min < h_max <= R^beta.
    per_height = r_lambda ** (1.0 - params.beta)
    r_min = max(r_lambda - window.h_max * per_height, 0.0) * (1.0 - 1e-9)
    r_max = (r_lambda - window.h_min * per_height) * (1.0 + 1e-9)
    counts = np.zeros((len(rho_edges) - 1, len(h_edges) - 1))
    n_window = 0
    cloud = sample_polytope_input(rng, params, r_min, r_max)
    if len(cloud):
        w = transform_batch(cloud, params.beta, r_lambda)
        rho = np.linalg.norm(w[:, :-1], axis=1)
        h = w[:, -1]
        keep = (rho <= window.spatial_radius) & (h > window.h_min) & (h <= window.h_max)
        n_window = int(keep.sum())
        if n_window:
            counts, _, _ = np.histogram2d(rho[keep], h[keep], bins=[rho_edges, h_edges])
    return {"window_count": float(n_window)}, counts


def check_intensity(params, window, bins, reps):
    """Preconditions of run_intensity; returns the validated parameters, R,
    and the (parameters, R) of each of INTENSITY_LIMIT_LAMS. The runner
    evaluates the exact intensity over the window at each of these
    intensities, so the window must lie in the rescaled space of the smallest
    R among them: spatial_radius <= pi R^(beta/2) and h_max <= R^beta."""
    for count in bins:
        check_integer("bins", count)
    if min(bins) < 1:
        raise ValidationError("bins", "need both bin counts >= 1")
    check_reps(reps)
    # the height slabs divide [e^h_min, e^h_max], so e^h_max must be a finite float
    if not (math.isfinite(window.spatial_radius) and math.isfinite(window.h_min)
            and window.h_max < math.log(sys.float_info.max)):
        raise ValidationError("window", "intensity binning needs a compact window")
    params, r_lambda = _usable(params)
    comparisons = [_usable(ModelParams(params.d, params.alpha, params.beta, float(lam)))
                   for lam in INTENSITY_LIMIT_LAMS]
    r_min = min(r_lambda, *(r for _, r in comparisons))
    v_max, h_top = math.pi * r_min ** (params.beta / 2.0), r_min**params.beta
    if not (window.spatial_radius <= v_max and window.h_max <= h_top):
        raise ValidationError("window", f"need spatial_radius <= {v_max:.4g} and h_max <= "
                                        f"{h_top:.4g}, the rescaled space at R = {r_min:.4g}")
    return params, r_lambda, comparisons


def run_intensity(params, window, bins, reps, seed, workers=1) -> RunResult:
    """Binned rescaled-process counts against the exact intensity and its limit.

    Pass rules: aggregated per-cell counts match the exact-intensity masses to
    INTENSITY_REL_TOL on cells with aggregate expectation >=
    INTENSITY_MIN_EXPECTED; the quadrature integral of the exact intensity
    over the whole rescaled window returns lambda to INTENSITY_MASS_TOL; the
    quadrature distance to the e^h limit shrinks between the two comparison
    intensities INTENSITY_LIMIT_LAMS.
    """
    params, r_lambda, comparisons = check_intensity(params, window, bins, reps)
    n_rho, n_h = bins
    rho_edges = np.linspace(0.0, window.spatial_radius, n_rho + 1)
    # equal-mass height slabs under the limit intensity, so no pass-rule cell
    # sits just above the inclusion threshold
    lo, hi = math.exp(window.h_min), math.exp(window.h_max)
    h_edges = np.log(lo + (hi - lo) * np.linspace(0.0, 1.0, n_h + 1))
    h_edges[0], h_edges[-1] = window.h_min, window.h_max

    tables, hists = replicate("intensity", _intensity_task, [params], reps, seed, workers,
                              window, rho_edges, h_edges, r_lambda)
    result = RunResult("intensity", tables)
    counts = sum(hists, np.zeros((n_rho, n_h)))

    expected = reps * _cell_masses(params, r_lambda, rho_edges, h_edges, "exact")
    qualifying = expected >= INTENSITY_MIN_EXPECTED
    rel_err = np.abs(counts - expected) / np.where(expected > 0, expected, 1.0)
    max_rel = float(rel_err[qualifying].max()) if qualifying.any() else math.nan
    chi2 = float((((counts - expected) ** 2 / np.where(expected > 0, expected, 1.0))[qualifying]).sum())
    if qualifying.any():
        detail = (f"max rel err = {max_rel:.4f} over {int(qualifying.sum())} cells >= "
                  f"{INTENSITY_MIN_EXPECTED:.0f} expected; chi2 = {chi2:.1f}")
    else:
        detail = (f"not judged: 0 of {qualifying.size} cells reach "
                  f"{INTENSITY_MIN_EXPECTED:.0f} expected points, need 1")
    result.checks.append(_check("intensity_binned_vs_exact",
                                qualifying.any() and max_rel < INTENSITY_REL_TOL, detail))

    # the whole window: every direction, and heights from the radius that a
    # point exceeds with probability 1e-17 up to the origin's R^beta
    beta = params.beta
    h_lo = r_lambda ** (beta - 1.0) * (r_lambda - radial_tail_inverse(params, 1e-17))
    mass = float(_cell_masses(params, r_lambda,
                              np.linspace(0.0, math.pi * r_lambda ** (beta / 2.0), 9),
                              np.linspace(h_lo, r_lambda**beta, 65), "exact").sum())
    mass_err = abs(mass / params.lam - 1.0)
    result.checks.append(
        _check(
            "intensity_window_mass",
            mass_err < INTENSITY_MASS_TOL,
            f"quadrature mass / lambda = {mass / params.lam:.5f} (rel err {mass_err:.2e})",
        )
    )

    limit_errs = []
    limit_mass = _cell_masses(params, r_lambda, rho_edges, h_edges, "limit")
    for p_cmp, r_cmp in comparisons:
        exact = _cell_masses(p_cmp, r_cmp, rho_edges, h_edges, "exact")
        limit_errs.append(float(np.max(np.abs(exact - limit_mass) / limit_mass)))
    result.checks.append(
        _check(
            "intensity_limit_trend",
            limit_errs[-1] < limit_errs[0],
            "max rel err vs e^h: "
            + ", ".join(f"lambda={l:.0g}: {e:.4f}"
                        for l, e in zip(INTENSITY_LIMIT_LAMS, limit_errs)),
        )
    )
    result.tables.append(_aggregate("intensity", params, seed, {
        "max_rel_err": max_rel,
        "chi_square": chi2,
        "mass_rel_err": mass_err,
        "limit_err_lo": limit_errs[0],
        "limit_err_hi": limit_errs[-1],
    }))
    return result


# ---------------------------------------------------------------------------
# scaling limit of the hull boundary
# ---------------------------------------------------------------------------


def _scaling_task(rng, params, L, grid_n):
    r_lambda = critical_radius(params)
    grid = ball_grid(L, grid_n, params.d - 1)

    def measure(poly, w, fest, kept):
        hull_heights = rescaled_hull_boundary(poly, grid, params, r_lambda)
        phi_heights = phi_boundary_batch(fest, grid)
        in_ball = np.linalg.norm(fest.extreme_points[:, :-1], axis=1) <= L
        return {
            "sup_dist": float(np.max(np.abs(hull_heights - phi_heights))),
            "n_vertices": float(len(poly.vertices)),
            "n_extreme": float(np.count_nonzero(in_ball)),
        }

    return _festoon_sample(rng, params, L, r_lambda, measure)


def check_scaling_limit(params_list, L, reps, grid_n=GRID_N) -> list:
    """Preconditions of run_scaling_limit; returns the validated parameters."""
    _check_L(L)
    check_integer("grid_n", grid_n)
    if not grid_n >= 2:
        raise ValidationError("grid_n", "need grid_n >= 2")
    check_reps(reps, len(params_list), minimum=2)
    params_list = [_usable(p)[0] for p in params_list]
    _check_grid(grid_n, max(p.d for p in params_list), "grid_n")
    return params_list


def run_scaling_limit(params_list, L, reps, seed, workers=1, grid_n=GRID_N) -> RunResult:
    """Sup-distance between the rescaled hull boundary and the festoon.

    For each parameter group (d, alpha, beta) whose every intensity keeps 2
    or more replications, the median sup-distance over replications must
    decrease strictly along its intensity grid, and the bootstrap 95%
    intervals of the endpoint medians must not overlap.
    """
    params_list = check_scaling_limit(params_list, L, reps, grid_n)
    tables, _ = replicate("scaling_limit", _scaling_task, params_list, reps, seed, workers,
                          float(L), int(grid_n))
    result = RunResult("scaling_limit", tables)
    for (d, alpha, beta), pis in _by_law(params_list).items():
        if not all([_judged(result, f"scaling_judged[d={d},alpha={alpha},beta={beta},"
                                    f"lambda={params_list[pi].lam:g}]", tables[pi].n_kept(), reps)
                    for pi in pis]):
            continue
        lams = [params_list[pi].lam for pi in pis]
        meds, cis = [], []
        for k, pi in enumerate(pis):
            med, lo, hi = bootstrap_median_ci(tables[pi].values("sup_dist"),
                                              RngStream(seed, BOOTSTRAP_STREAM + k))
            meds.append(med)
            cis.append((lo, hi))
        decreasing = all(meds[k + 1] < meds[k] for k in range(len(meds) - 1))
        separated = meds[-1] < meds[0] and cis[-1][1] < cis[0][0]
        detail = ", ".join(f"lambda={l:.0g}: {m:.4f}" for l, m in zip(lams, meds))
        result.checks.append(_check(
            f"scaling_sup_distance_decreasing[d={d},alpha={alpha},beta={beta}]",
            decreasing and separated, f"medians {detail}; endpoint CIs ({cis[0][0]:.4f}, "
            f"{cis[0][1]:.4f}) vs ({cis[-1][0]:.4f}, {cis[-1][1]:.4f})"))
    return result


# ---------------------------------------------------------------------------
# moments, CLT, SLLN, concentration
# ---------------------------------------------------------------------------


def _certified(needed: float, inner: float) -> bool:
    """Whether a certificate's radius covers the unsampled ball B(inner).

    Each certificate keeps a 1e-9 relative margin against rounding; the
    1e-12 slack here absorbs round-off when round 2 recomputes a radius
    that cannot shrink, such as the inball of a hull of more points.
    """
    return needed >= inner * (1.0 - 1e-12)


def _shell_points(d: int) -> float:
    """Round 1's expected shell point count in dimension d (SHELL_POINTS)."""
    return SHELL_POINTS[min(d, max(SHELL_POINTS))]


def _sample_shell(rng: RngStream, params: ModelParams, evaluate, measure) -> dict:
    """One replication's metrics, from the fewest points of one Poisson
    cloud that provably give the whole cloud's result.

    evaluate(points, inner) returns (result, needed): its result on the
    sampled points, all of norm > inner, None if they have none, and a
    radius such that points of norm <= needed cannot change that result.
    inner = 0 means the whole cloud, whose result stands as it is; if that
    is None, the replication is skipped: {"skipped": 1.0}, the one place a
    skip is written. Otherwise: {"skipped": 0.0, **measure(result, n_points)}.

    Round 1 samples the shell ||x|| > r0 holding min(lambda,
    _shell_points(d)) points in expectation (192 in d = 2, 512 in d = 3,
    1024 from d = 4 on), so at lambda up to that size r0 = 0: the whole
    cloud, drawn as sample_polytope_input draws it. Round 1's result
    stands when needed >= r0. Otherwise round 2 adds the annulus
    max(needed, 0) < ||x|| <= r0 and evaluates again; if that still falls
    short, round 3 adds the rest of the cloud. The points left inside the
    last inner radius are counted by an independent Poisson draw, the last
    draw, left out on a skip. Poisson restriction makes the counts on
    disjoint regions independent, so result and count have the law of the
    full cloud's, whatever the shell size: a shell too small for its cloud
    costs rounds, never correctness.
    """
    g = rng.generator()
    inner = float(radial_tail_inverse(params, min(1.0, _shell_points(params.d) / params.lam)))
    points = sample_polytope_input(g, params, r_min=inner)
    result, needed = evaluate(points, inner)
    for whole in (False, True):
        if inner == 0.0 or _certified(needed, inner):
            break
        outer, inner = inner, 0.0 if whole else max(needed, 0.0)
        annulus = sample_polytope_input(g, params, r_min=inner, r_max=outer)
        points = np.vstack([points, annulus])
        result, needed = evaluate(points, inner)
    if result is None:
        return {"skipped": 1.0}
    n_inner = int(g.poisson(params.lam * (1.0 - radial_tail(params, inner))))
    return {"skipped": 0.0, **measure(result, len(points) + n_inner)}


def _inball(poly) -> float:
    """Radius of a ball about the origin inside the hull, safe against
    rounding; points inside it cannot change the hull. 0 without a hull."""
    return 0.0 if poly is None else (1.0 - 1e-9) * float(np.min(poly.facet_offsets))


def _festoon_radius(w, fest, L, beta, r_lambda) -> float:
    """Radius below which unsampled points cannot change the windowed
    festoon over B(o, L): its boundary there and its extreme points there.

    An unsampled point of norm <= r has height >= R^(beta-1) (R - r), above
    every sampled height. It leaves windowed_festoon's h_min, hence its
    guard and window, as they are when a sampled point lies in B(o, L + 1),
    and the festoon over B(o, L) as it is at heights >= stable_height.
    Returns 0 (the whole cloud) when no sampled point lies in B(o, L + 1).
    """
    if not np.any(np.linalg.norm(w[:, :-1], axis=1) <= L + 1.0):
        return 0.0
    h_star = stable_height(fest, L)
    return (1.0 - 1e-9) * (r_lambda - h_star * r_lambda ** (1.0 - beta))


def _festoon_sample(rng, params, L, r_lambda, measure):
    """measure(poly, w, fest, kept) on one cloud's hull, rescaled points and
    windowed festoon, or _sample_shell's skip when the whole cloud has none.

    A shell's measure stands when neither the hull (_inball) nor the
    festoon over B(o, L) (_festoon_radius) can change with the unsampled
    points, so every metric read from the hull and from the festoon over
    B(o, L) is the whole cloud's. A shell that fails, a degenerate one
    included, is widened; only the whole cloud is skipped.
    """
    spatial_limit = 0.999 * math.pi * r_lambda ** (params.beta / 2.0)

    def evaluate(points, inner):
        try:
            poly = convex_hull(points, assume_unique=True)
            w = transform_batch(points, params.beta, r_lambda)
            fest, kept, _ = windowed_festoon(w, L, spatial_limit=spatial_limit)
            needed = 0.0
            if inner > 0.0:
                needed = min(_inball(poly), _festoon_radius(w, fest, L, params.beta, r_lambda))
                if not _certified(needed, inner):
                    return None, needed
            return measure(poly, w, fest, kept), needed
        except GgpError:  # degenerate hull, origin outside, or festoon support miss
            return None, 0.0

    return _sample_shell(rng, params, evaluate, lambda metrics, n_points: metrics)


def _polytope_task(rng, params):
    def evaluate(points, inner):
        try:
            poly = convex_hull(points, assume_unique=True)
        except GgpError:  # too few or affinely dependent points: no hull
            poly = None
        return poly, _inball(poly)

    def measure(poly, n_points):
        faces = {f"f{j}": float(fj) for j, fj in enumerate(poly.f_vector) if fj is not None}
        return {"n_points": float(n_points), **faces, f"v{params.d}": poly.volume,
                f"v{params.d - 1}": poly.area / 2.0}

    return _sample_shell(rng, params, evaluate, measure)


def expected_intrinsic_scale(params, i: int) -> float:
    """Leading-order expected i-th intrinsic volume:
    binom(d, i) (kappa_d / kappa_{d-i}) (beta log lambda)^(i/beta)."""
    d = params.d
    bl = params.beta * math.log(params.lam)
    return (
        math.comb(d, i)
        * unit_ball_volume(d)
        / unit_ball_volume(d - i)
        * bl ** (i / params.beta)
    )


def _check_intrinsic_index(i: int, d: int):
    """Polytope records carry only V_{d-1} and V_d, so no other i can be judged."""
    check_integer("i", i)
    if i not in (d - 1, d):
        raise ValidationError("i", f"need i in {{{d - 1}, {d}}} for d = {d}, got {i}")


def check_moments(params_grid, reps) -> list:
    """Preconditions of run_moments; returns the validated parameters."""
    check_reps(reps, len(params_grid), minimum=200)
    return [validate_params(p.d, p.alpha, p.beta, p.lam) for p in params_grid]


def run_moments(params_grid, reps, seed, workers=1) -> RunResult:
    """Expectation and variance scaling of intrinsic volumes and face counts.

    Checks, per (d, alpha, beta) group over its intensity grid: the top
    intrinsic volume's ratio to its leading-order scale lands in
    MOMENTS_RATIO_BAND at the largest intensity and increases along the grid;
    log E[f_0] and log var[f_0] regress on log(beta log lambda) with slopes
    (d-1)/2 within MOMENTS_F0_SLOPE_BAND and MOMENTS_VAR_SLOPE_BAND.
    """
    params_grid = check_moments(params_grid, reps)
    tables, _ = replicate("moments", _polytope_task, params_grid, reps, seed, workers)
    result = RunResult("moments", tables)
    laws = _by_law(params_grid)
    for (d, alpha, beta), pis in laws.items():
        if not all([_judged(result, f"moments_judged[d={d},alpha={alpha},beta={beta},"
                                    f"lambda={params_grid[pi].lam:g}]", tables[pi].n_kept(), reps)
                    for pi in pis]):
            continue
        lams = np.array([params_grid[pi].lam for pi in pis])
        tag = f"[d={d},alpha={alpha},beta={beta}]"
        ratios = [np.mean(tables[pi].values(f"v{d}"))
                  / expected_intrinsic_scale(params_grid[pi], d) for pi in pis]
        increasing = all(ratios[k + 1] > ratios[k] for k in range(len(ratios) - 1))
        in_band = MOMENTS_RATIO_BAND[0] <= ratios[-1] <= MOMENTS_RATIO_BAND[1]
        ratio_detail = (f"E[V_{d}]/scale = " + ", ".join(f"{r:.4f}" for r in ratios)
                        + f" (band {MOMENTS_RATIO_BAND} at top, increasing)")
        short = _too_short(lams)
        if short:
            result.checks.append(_info(f"moments_volume_ratio{tag}", f"{short}; {ratio_detail}"))
            result.checks.append(_info(f"moments_f0_slope{tag}", short))
            result.checks.append(_info(f"moments_var_f0_slope{tag}", short))
        else:
            result.checks.append(
                _check(f"moments_volume_ratio{tag}", in_band and increasing, ratio_detail)
            )
            log_bl = np.log(beta * np.log(lams))
            mean_f0 = np.array([np.mean(tables[pi].values("f0")) for pi in pis])
            var_f0 = np.array([np.var(tables[pi].values("f0"), ddof=1) for pi in pis])
            target = (d - 1) / 2.0
            slope_e, _, r2_e = fit_line(log_bl, np.log(mean_f0))
            slope_v, _, r2_v = fit_line(log_bl, np.log(var_f0))
            result.checks.append(
                _check(
                    f"moments_f0_slope{tag}",
                    abs(slope_e - target) <= MOMENTS_F0_SLOPE_BAND,
                    f"log E[f0] slope = {slope_e:.3f} vs {target} +- {MOMENTS_F0_SLOPE_BAND} "
                    f"(r2 = {r2_e:.3f})",
                )
            )
            result.checks.append(
                _check(
                    f"moments_var_f0_slope{tag}",
                    abs(slope_v - target) <= MOMENTS_VAR_SLOPE_BAND,
                    f"log var[f0] slope = {slope_v:.3f} vs {target} +- {MOMENTS_VAR_SLOPE_BAND} "
                    f"(r2 = {r2_v:.3f})",
                )
            )
    for pis in laws.values():
        for pi in pis:
            agg = {}
            for k, (_, arr) in tables[pi].metrics.items():
                if k != "skipped":
                    agg[f"mean_{k}"] = float(arr.mean())
                    if len(arr) > 1:
                        agg[f"var_{k}"] = float(arr.var(ddof=1))
            result.tables.append(_aggregate("moments", params_grid[pi], seed, agg))
    return result


def check_clt(params, reps) -> ModelParams:
    """Preconditions of run_clt; returns the validated parameters."""
    check_reps(reps, minimum=1000)
    return validate_params(params.d, params.alpha, params.beta, params.lam)


def run_clt(params, reps, seed, workers=1) -> RunResult:
    """Normality of standardized face counts and intrinsic volumes, judged
    against CLT_SKEW_TOL, CLT_KURT_TOL and CLT_KS_TOL."""
    params = check_clt(params, reps)
    (table,), _ = replicate("clt", _polytope_task, [params], reps, seed, workers)
    result = RunResult("clt", [table])
    d = params.d
    metrics = ["f0", f"v{d}"]
    agg = {}
    for name in ["f0", f"f{d - 1}", "v1", f"v{d}"]:
        judged = name in metrics and _judged(result, f"clt_judged[{name}]", table.n_kept(), reps)
        vals = table.values(name)
        if len(vals) == 0:
            continue
        st = summary_stats(vals)
        agg[f"skew_{name}"] = st.skewness
        agg[f"kurt_{name}"] = st.excess_kurtosis
        agg[f"ks_{name}"] = st.ks_normal
        if judged:
            result.checks += [
                _check(f"clt_skewness[{name}]", abs(st.skewness) < CLT_SKEW_TOL,
                       f"|skew| = {abs(st.skewness):.4f} vs {CLT_SKEW_TOL} ({reps} reps)"),
                _check(f"clt_kurtosis[{name}]", abs(st.excess_kurtosis) < CLT_KURT_TOL,
                       f"|excess kurtosis| = {abs(st.excess_kurtosis):.4f} vs {CLT_KURT_TOL}"),
                _check(f"clt_ks_normal[{name}]", st.ks_normal < CLT_KS_TOL,
                       f"ks = {st.ks_normal:.4f} vs {CLT_KS_TOL}"),
            ]
    result.tables.append(_aggregate("clt", params, seed, agg))
    return result


# ---------------------------------------------------------------------------
# boundary-height tails
# ---------------------------------------------------------------------------


def _tails_task(rng, params, M, h_cap, r_lambda):
    cloud = sample_polytope_input(rng, params)
    # with no grain below the cap the envelope exceeds h_cap everywhere,
    # which already decides every threshold below it
    if len(cloud) == 0:
        return {"sup_abs": h_cap}
    w = transform_batch(cloud, params.beta, r_lambda)
    kept = w[w[:, -1] <= h_cap]
    grid = ball_grid(M, GRID_N, params.d - 1)
    if len(kept) == 0:
        return {"sup_abs": h_cap}
    env = psi_lambda_envelope(kept, grid, params.beta, r_lambda)
    # grains of dropped points sit above their apex height > h_cap, so the
    # envelope is exact wherever it is below h_cap
    env = np.minimum(env, h_cap)
    return {"sup_abs": float(np.max(np.abs(env)))}


def check_tails(params, M, t_grid, reps):
    """Preconditions of run_tails; returns the validated parameters and R."""
    check_reps(reps, minimum=500)
    if not M > 0:
        raise ValidationError("M", "must be > 0")
    if len(t_grid) == 0:
        raise ValidationError("t_grid", "need at least one threshold")
    params, r_lambda = _usable(params)
    _check_grid(GRID_N, params.d, "d")
    return params, r_lambda


def run_tails(params, M, t_grid, reps, seed, workers=1) -> RunResult:
    """Exponential-shape check of the envelope boundary-height tails.

    Estimates P(sup over the M-ball of |envelope| >= t) on t_grid, requires
    monotone probabilities, and fits log P against t: the slope must be
    negative with fit r^2 above TAILS_R2_THRESHOLD.
    """
    params, r_lambda = check_tails(params, M, t_grid, reps)
    t_grid = np.asarray(sorted(t_grid), dtype=float)
    h_cap = float(t_grid[-1]) + 2.0
    (table,), _ = replicate("tails", _tails_task, [params], reps, seed, workers,
                            float(M), h_cap, r_lambda)
    result = RunResult("tails", [table])
    sups = table.values("sup_abs")
    probs = np.array([(sups >= t).mean() for t in t_grid])
    monotone = bool(np.all(np.diff(probs) <= 0))
    positive = probs > 0
    agg = {f"p_ge_{t:g}": float(p) for t, p in zip(t_grid, probs)}
    # the fit runs over the thresholds with a positive probability
    short = _too_short(t_grid[positive])
    if short:
        slope, r2 = math.nan, math.nan
    else:
        slope, _, r2 = fit_line(t_grid[positive], np.log(probs[positive]))
    agg["tail_slope"] = slope
    agg["tail_r2"] = r2
    result.tables.append(_aggregate("tails", params, seed, agg))
    result.checks.append(
        _check(
            "tails_monotone",
            monotone,
            "P(sup >= t) = " + ", ".join(f"{t:g}: {p:.4f}" for t, p in zip(t_grid, probs)),
        )
    )
    result.checks.append(
        _info("tails_exponential_shape", short) if short else _check(
            "tails_exponential_shape",
            (slope < 0) and (r2 > TAILS_R2_THRESHOLD),
            f"slope = {slope:.3f} (< 0), r2 = {r2:.3f} (> {TAILS_R2_THRESHOLD})",
        )
    )
    return result


def check_slln(params_base, a, k_max, p, i, reps) -> list:
    """Preconditions of run_slln_trend; returns the parameters of the grid a^k."""
    params_base = validate_params(params_base.d, params_base.alpha, params_base.beta,
                                  params_base.lam)
    d, alpha, beta = params_base.d, params_base.alpha, params_base.beta
    _check_intrinsic_index(i, d)
    threshold = (4 * i - beta * (d + 3)) / (4 * i)
    if not p > threshold:
        raise ValidationError("p", f"need p > {threshold:.4f}")
    if not a > 1:
        raise ValidationError("a", "need a > 1")
    check_integer("k_max", k_max)
    if not 4 <= k_max <= BOOTSTRAP_STREAM // STREAM_STRIDE:
        raise ValidationError("k_max", f"need 4 <= k_max <= {BOOTSTRAP_STREAM // STREAM_STRIDE}")
    check_reps(reps, minimum=2)
    try:
        return [validate_params(d, alpha, beta, a**k) for k in range(1, k_max + 1)]
    except OverflowError as exc:
        raise ValidationError("a", f"need a**k_max = a**{k_max} within the float range") from exc


def run_slln_trend(params_base, a, k_max, p, i, reps, seed, workers=1) -> RunResult:
    """Strong-law trend: normalized deviations along the geometric grid a^k.

    The deviation |V_i - mean| / (log lambda_k)^(p i / beta) must have
    decreasing medians in k, judged when every k keeps 2 or more
    replications. Requires p above the summability threshold
    (4i - beta(d+3)) / (4i) and a > 1.
    """
    params_grid = check_slln(params_base, a, k_max, p, i, reps)
    tables, _ = replicate("slln", _polytope_task, params_grid, reps, seed, workers)
    result = RunResult("slln", tables)
    judged = all([_judged(result, f"slln_judged[k={k}]", table.n_kept(), reps)
                  for k, table in enumerate(tables, start=1)])
    meds = []
    for k, params in enumerate(params_grid, start=1):
        vals = tables[k - 1].values(f"v{i}")
        if len(vals) == 0:
            continue
        dev = np.abs(vals - vals.mean()) / (math.log(params.lam)) ** (p * i / params.beta)
        meds.append(float(np.median(dev)))
        result.tables.append(_aggregate("slln", params, seed,
                                        {"median_norm_dev": meds[-1], "k": float(k)}))
    if judged:
        result.checks.append(_check(
            "slln_normalized_deviations_decreasing",
            all(meds[k + 1] < meds[k] for k in range(len(meds) - 1)),
            "medians: " + ", ".join(f"k={k + 1}: {m:.4g}" for k, m in enumerate(meds))))
    return result


def check_concentration(params, reps, y_grid, i=None):
    """Preconditions of concentration_check; returns the validated parameters
    and the intrinsic index (d when i is None)."""
    check_reps(reps, minimum=2000)
    if len(y_grid) == 0:
        raise ValidationError("y_grid", "need at least one deviation level")
    params = validate_params(params.d, params.alpha, params.beta, params.lam)
    i = params.d if i is None else i
    _check_intrinsic_index(i, params.d)
    return params, i


def concentration_check(params, reps, y_grid, seed, i=None, workers=1) -> RunResult:
    """Non-violation of the concentration bound min(1, 2 exp(-y^2 / 2^(2d+i+7))).

    The empirical exceedance probability P(|V_i - mean| >= y sd) may not
    exceed the bound by more than three binomial standard errors at any y.
    """
    params, i = check_concentration(params, reps, y_grid, i)
    d = params.d
    (table,), _ = replicate("concentration", _polytope_task, [params], reps, seed, workers)
    result = RunResult("concentration", [table])
    judged = _judged(result, "concentration_judged", table.n_kept(), reps)
    vals = table.values(f"v{i}")
    if len(vals) == 0:
        return result
    # One value has no sd: nothing exceeds y * nan, so every p_exceed reads 0.
    mean, sd = vals.mean(), (vals.std(ddof=1) if len(vals) > 1 else math.nan)
    y_grid = np.asarray(sorted(y_grid), dtype=float)
    emp = np.array([np.mean(np.abs(vals - mean) >= y * sd) for y in y_grid])
    bound = np.minimum(1.0, 2.0 * np.exp(-(y_grid**2) / 2.0 ** (2 * d + i + 7)))
    se = np.sqrt(np.maximum(emp * (1 - emp), 1e-12) / len(vals))
    violated = emp > bound + 3 * se
    agg = {f"p_exceed_{y:g}": float(p) for y, p in zip(y_grid, emp)}
    result.tables.append(_aggregate("concentration", params, seed, agg))
    if not judged:
        return result
    result.checks.append(
        _check(
            "concentration_no_violation",
            not violated.any(),
            ", ".join(
                f"y={y:g}: emp {p:.4f} vs bound {b:.4f}" for y, p, b in zip(y_grid, emp, bound)
            ),
        )
    )
    result.checks.append(
        _check(
            "concentration_monotone",
            bool(np.all(np.diff(emp) <= 0)),
            "exceedance probabilities non-increasing in y",
        )
    )
    result.checks.append(
        _info(
            "concentration_bound_scale",
            f"bound at y={y_grid[-1]:g} is {bound[-1]:.4f}; the stated constant makes the "
            "bound vacuous at desk scale, so this is a sanity check only",
        )
    )
    return result


# ---------------------------------------------------------------------------
# vertex correspondence
# ---------------------------------------------------------------------------


def _vertex_task(rng, params, L, r_lambda):
    def measure(poly, w, fest, kept):
        vnorm = np.linalg.norm(w[:, :-1], axis=1)
        hull_set = {int(ix) for ix in poly.vertex_input_indices if vnorm[ix] <= L}
        ext_orig = kept[fest.extreme_indices]
        ext_set = {int(ix) for ix in ext_orig if vnorm[ix] <= L}
        union = hull_set | ext_set
        inter = hull_set & ext_set
        # mismatches whose height gap to the opposing boundary is below
        # the grain-approximation scale R^(-beta/2) are the expected
        # near-boundary flips between quasi and ideal extremality; they
        # are logged separately from hard disagreements
        margin = r_lambda ** (-params.beta / 2.0)
        exceptions = 0
        for ix in union - inter:
            if ix in hull_set:
                gap = w[ix, -1] - phi_boundary_batch(fest, w[ix, :-1][None, :])[0]
            else:
                gap = w[ix, -1] - rescaled_hull_boundary(poly, w[ix:ix + 1, :-1], params, r_lambda)[0]
            if abs(gap) <= margin:
                exceptions += 1
        return {
            "n_hull_window": float(len(hull_set)),
            "n_extreme_window": float(len(ext_set)),
            "n_match": float(len(inter)),
            "n_boundary_exceptions": float(exceptions),
            "jaccard": float(len(inter) / len(union)) if union else 1.0,
        }

    return _festoon_sample(rng, params, L, r_lambda, measure)


def check_vertex_correspondence(params, L, reps):
    """Preconditions of run_vertex_correspondence; returns the validated parameters and R."""
    _check_L(L)
    check_reps(reps, minimum=2)
    return _usable(params)


def run_vertex_correspondence(params, L, reps, seed, workers=1) -> RunResult:
    """Agreement between rescaled hull vertices and festoon extreme points.

    Compares, inside the spatial L-ball, the set of original point indices
    that are hull vertices with the set that are extreme points of the
    guard-banded rescaled process. Mismatches within the R^(-beta/2)
    height margin of the opposing boundary are logged as boundary-effect
    exceptions; the match rate over the remaining points must reach
    VERTEX_MATCH_THRESHOLD.
    """
    params, r_lambda = check_vertex_correspondence(params, L, reps)
    (table,), _ = replicate("vertex_correspondence", _vertex_task, [params], reps, seed,
                            workers, float(L), r_lambda)
    result = RunResult("vertex_correspondence", [table])
    if not _judged(result, "vertex_correspondence_judged", table.n_kept(), reps):
        return result
    counts = {k: sum(v.tolist()) for k, (_, v) in table.metrics.items()}
    match = counts["n_match"]
    union = counts["n_hull_window"] + counts["n_extreme_window"] - match
    exceptions = counts["n_boundary_exceptions"]
    effective = union - exceptions
    rate = match / effective if effective else 1.0
    exception_rate = exceptions / union if union else 0.0
    result.checks.append(_check(
        "vertex_correspondence_rate", rate >= VERTEX_MATCH_THRESHOLD,
        f"matched {match:.0f} of {effective:.0f} window vertices ({rate:.4f} >= "
        f"{VERTEX_MATCH_THRESHOLD}); {exceptions:.0f} near-boundary exceptions logged "
        f"({exception_rate:.4f} of {union:.0f})"))
    result.tables.append(_aggregate("vertex_correspondence", params, seed, {
        "match_rate": rate, "exception_rate": exception_rate}))
    return result
