import math
import multiprocessing
import os
import time
import tracemalloc
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy.spatial import ConvexHull
from scipy.stats import ks_2samp

from ggp import experiments
from ggp.errors import IntensityTooSmall, ValidationError
from ggp.experiments import (
    concentration_check,
    expected_intrinsic_scale,
    run_clt,
    run_gumbel,
    run_intensity,
    run_moments,
    run_scaling_limit,
    run_slln_trend,
    run_tails,
    run_vertex_correspondence,
)
from ggp.festoon import extreme_points, phi_boundary_batch, stable_height, windowed_festoon
from ggp.hull import convex_hull
from ggp.params import ModelParams, critical_radius, validate_params
from ggp.rescale import inverse_transform, transform_batch
from ggp.sampling import (
    RngStream,
    ScaledWindow,
    radial_tail_inverse,
    sample_polytope_input,
    sample_standardized_max,
)
from ggp.stats import gumbel_cdf, ks_statistic


def record_key(records):
    return [
        (r.experiment, r.lam, r.replication, tuple(sorted(r.metrics.items())))
        for r in records
    ]


def table_records(tables):
    """The records of replicate's tables, group by group."""
    return experiments.RunResult("stub", tables).records


@pytest.fixture
def pools(monkeypatch):
    """Per process pool the engine starts, the sizes of the shares submitted
    to it; the share this process runs itself is not counted."""
    started = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append([])

        def submit(self, fn, /, *args, **kwargs):
            started[-1].append(len(args[-1]))
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(experiments, "_process_pool",
                        lambda processes: CountingPool(max_workers=processes))
    return started


def _stub_task(rng, params, slow_lam, delay):
    """One uniform draw from the replication's stream, after sleeping delay
    seconds if the group's lambda is slow_lam."""
    if params.lam == slow_lam:
        time.sleep(delay)
    return {"u": float(rng.generator().uniform())}


def _slow_probe_task(rng, params, delay):
    """One uniform draw, after sleeping delay seconds on stream 2, the probe
    of one group of 3 replications."""
    if rng.stream_id == 2:
        time.sleep(delay)
    return {"u": float(rng.generator().uniform())}


def _failing_task(rng, params):
    raise ValueError(f"replication {rng.stream_id} failed")


def _pid_task(rng, params, bad_stream=-1):
    """One uniform draw, with the id of the process that ran it as the side
    value; raises on stream bad_stream."""
    if rng.stream_id == bad_stream:
        raise ValueError(f"replication {rng.stream_id} failed")
    return {"u": float(rng.generator().uniform())}, os.getpid()


def _three_draws_task(rng, params):
    """The stream's first three uniforms as the side value, with its id."""
    return {}, (rng.stream_id, tuple(rng.generator().random(3)))


class TestGumbelRunner:
    def test_preconditions(self):
        with pytest.raises(ValidationError):
            run_gumbel(0, 2, 50, 500, seed=1)
        with pytest.raises(ValidationError):
            run_gumbel(0, 2, 1000, 50, seed=1)

    def test_deterministic_records(self):
        a = run_gumbel(0, 1, 1000, 200, seed=7)
        b = run_gumbel(0, 1, 1000, 200, seed=7)
        assert record_key(a.records) == record_key(b.records)

    def test_worker_count_invariance(self):
        a = run_gumbel(0, 1, 1000, 120, seed=9, workers=1)
        b = run_gumbel(0, 1, 1000, 120, seed=9, workers=2)
        assert record_key(a.records) == record_key(b.records)

    def test_worker_count_invariance_through_the_pool(self, monkeypatch, pools):
        # 350 replications are blocks of 100, 100, 100 and 50; the probe is
        # the last, and the pool runs one of the three blocks left
        monkeypatch.setattr(experiments, "POOL_START_S", 0.0)
        a = run_gumbel(0, 1, 1000, 350, seed=9, workers=1)
        b = run_gumbel(0, 1, 1000, 350, seed=9, workers=2)
        assert pools == [[1]]
        assert record_key(a.records) == record_key(b.records)

    @pytest.mark.parametrize("workers, mapped", [(1, []), (2, [[1]])])
    def test_replication_is_its_draw_in_its_block(self, monkeypatch, pools, workers, mapped):
        # replication b * GUMBEL_BLOCK + j is draw j of block b, drawn from
        # stream b; the last block holds what is left
        monkeypatch.setattr(experiments, "POOL_START_S", 0.0)
        reps, block = 250, experiments.GUMBEL_BLOCK
        result = run_gumbel(0.5, 1.5, 1000, reps, seed=4, workers=workers)
        assert pools == mapped
        sizes = [min(block, reps - b * block) for b in range(-(-reps // block))]
        assert sizes == [100, 100, 50]
        expected = np.concatenate([sample_standardized_max(RngStream(4, b), 1000, 0.5, 1.5, size)
                                   for b, size in enumerate(sizes)])
        records = result.records[:-1]
        assert [r.replication for r in records] == list(range(reps))
        assert [r.metrics for r in records] == [{"std_max": x} for x in expected.tolist()]
        assert result.records[-1].metrics["ks"] == ks_statistic(expected, gumbel_cdf)

    def test_ks_decreases_with_n(self):
        # Gumbel distance shrinks as the block size grows
        ks = {}
        for n in (10**3, 10**5):
            runs = [run_gumbel(0, 2, n, 2000, seed=100 + j).records[-1].metrics["ks"]
                    for j in range(3)]
            ks[n] = np.median(runs)
        assert ks[10**5] < ks[10**3]


class TestMomentsRunner:
    def test_reps_precondition(self):
        grid = [validate_params(2, 0, 2, 100.0)]
        with pytest.raises(ValidationError):
            run_moments(grid, 50, seed=1)

    def test_cross_oracle_tiny_intensity(self):
        # E[f0] from the runner pipeline vs a direct loop on raw Qhull, sharing no ggp code
        lam = 20.0
        grid = [validate_params(2, 0, 2, lam)]
        result = run_moments(grid, 2000, seed=11)
        f0 = [r.metrics["f0"] for r in result.records
              if r.replication >= 0 and not r.metrics.get("skipped")]
        pipeline_mean = np.mean(f0)
        pipeline_se = np.std(f0, ddof=1) / np.sqrt(len(f0))
        rng = np.random.default_rng(999)
        direct = []
        for _ in range(10**5):
            n = rng.poisson(lam)
            if n < 3:
                continue
            pts = rng.standard_normal((n, 2))
            direct.append(len(ConvexHull(pts).vertices))
        direct_mean = np.mean(direct)
        direct_se = np.std(direct, ddof=1) / np.sqrt(len(direct))
        combined = np.hypot(pipeline_se, direct_se)
        assert abs(pipeline_mean - direct_mean) < 3 * combined

    def test_deterministic_and_worker_invariant(self):
        grid = [validate_params(2, 0, 2, 50.0)]
        a = run_moments(grid, 200, seed=3, workers=1)
        b = run_moments(grid, 200, seed=3, workers=2)
        assert record_key(a.records) == record_key(b.records)

    def test_worker_invariant_through_the_pool(self, monkeypatch, pools):
        monkeypatch.setattr(experiments, "POOL_START_S", 0.0)
        grid = [validate_params(2, 0, 2, 50.0)]
        a = run_moments(grid, 200, seed=3, workers=1)
        b = run_moments(grid, 200, seed=3, workers=2)
        assert pools == [[99]]
        assert record_key(a.records) == record_key(b.records)

    def test_short_grid_reports_info_without_fit(self):
        # one or two distinct intensities cannot carry a slope or a trend
        for lams in ((100.0,), (100.0, 100.0, 300.0)):
            grid = [validate_params(2, 0, 2, lam) for lam in lams]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                result = run_moments(grid, 200, seed=2)
            assert [(c.name.split("[")[0], c.status) for c in result.checks] == [
                ("moments_volume_ratio", "INFO"),
                ("moments_f0_slope", "INFO"),
                ("moments_var_f0_slope", "INFO"),
            ]
            assert all("not judged" in c.detail for c in result.checks)

    def test_expected_scale_gaussian(self):
        p = validate_params(2, 0, 2, 10**6)
        assert expected_intrinsic_scale(p, 2) == pytest.approx(
            np.pi * 2 * np.log(10**6), rel=1e-12
        )


class TestIntensityRunner:
    def test_compact_window_required(self):
        p = validate_params(2, 0, 2, 1e5)
        with pytest.raises(ValidationError):
            run_intensity(p, ScaledWindow(2.0, -np.inf, 1.0), (1, 4), 10, seed=1)

    def test_small_scale_consistency(self, monkeypatch):
        # 150 replications resolve a binned count to about 7%, short of the
        # pass rule's 5%, so the binned check is judged at 12% here
        monkeypatch.setattr(experiments, "INTENSITY_REL_TOL", 0.12)
        p = validate_params(2, 0, 2, 1e5)
        window = ScaledWindow(2.0, -5.0, 1.0)
        result = run_intensity(p, window, (1, 3), reps=150, seed=5)
        by_name = {c.name: c for c in result.checks}
        assert by_name["intensity_window_mass"].status == "PASS"
        assert by_name["intensity_limit_trend"].status == "PASS"
        assert by_name["intensity_binned_vs_exact"].status == "PASS"

    def test_binned_check_without_a_qualifying_cell_is_not_judged(self):
        # at lambda 1e3 and 10 replications no cell of the window reaches
        # INTENSITY_MIN_EXPECTED expected points
        p = validate_params(2, 0, 2, 1e3)
        result = run_intensity(p, ScaledWindow(2.0, -5.0, 1.0), (2, 3), reps=10, seed=5)
        (binned,) = [c for c in result.checks if c.name == "intensity_binned_vs_exact"]
        assert binned.status == "FAIL"
        assert binned.detail.startswith("not judged: 0 of 6 cells reach")
        assert math.isnan(result.records[-1].metrics["max_rel_err"])

    def test_window_mass_by_quadrature(self):
        # the exact intensity integrates back to lambda over the whole window,
        # and the integral draws from no stream, so every seed gets the same
        window = ScaledWindow(2.0, -5.0, 1.0)
        for d, alpha, beta, lam in [(2, 0, 2, 1e6), (2, 1, 1, 1e4), (3, -0.5, 3, 1e5),
                                    (4, 0, 2, 1e5), (5, 0.5, 1.5, 1e6)]:
            p = validate_params(d, alpha, beta, lam)
            errs = []
            for seed in (1, 2):
                result = run_intensity(p, window, (1, 2), reps=2, seed=seed)
                (mass,) = [c for c in result.checks if c.name == "intensity_window_mass"]
                assert mass.status == "PASS" and "quadrature" in mass.detail
                errs.append(result.records[-1].metrics["mass_rel_err"])
            assert errs[0] == errs[1] <= 1e-9

    @pytest.mark.parametrize("mode", ["exact", "limit"])
    def test_cell_masses_memory_does_not_grow_with_rho_bins(self, mode):
        # bins come from the config, so the quadrature must not hold every
        # cell's 576 nodes at once: 32 times the rho bins, about the same peak
        p = validate_params(3, 0, 2, 1e5)
        r_lambda, h_edges = critical_radius(p), np.linspace(-2.0, 1.5, 9)
        peaks = []
        for n_rho in (2, 64):
            tracemalloc.start()
            try:
                experiments._cell_masses(p, r_lambda, np.linspace(0.0, 1.5, n_rho + 1), h_edges, mode)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0], peaks


def whole_cloud_intensity_counts(seed, rep, params, window, rho_edges, h_edges, r_lambda):
    """Window cell counts from every point of one cloud (the runner samples an annulus)."""
    cloud = sample_polytope_input(RngStream(seed, rep), params)
    w = transform_batch(cloud, params.beta, r_lambda)
    rho, h = np.linalg.norm(w[:, :-1], axis=1), w[:, -1]
    keep = (rho <= window.spatial_radius) & (h > window.h_min) & (h <= window.h_max)
    counts, _, _ = np.histogram2d(rho[keep], h[keep], bins=[rho_edges, h_edges])
    return counts


class TestIntensityAnnulus:
    @pytest.mark.parametrize("d, lam, window", [
        (2, 1e4, ScaledWindow(2.0, -5.0, 1.0)),
        (3, 3000.0, ScaledWindow(1.5, -3.0, 2.0)),
        (2, 1e4, ScaledWindow(1.0, 0.5, 40.0)),  # h_max past R^beta: the annulus reaches 0
    ])
    def test_annulus_matches_whole_cloud_in_law(self, d, lam, window):
        p = validate_params(d, 0, 2, lam)
        r_lambda = critical_radius(p)
        rho_edges = np.linspace(0.0, window.spatial_radius, 3)
        h_edges = np.linspace(window.h_min, window.h_max, 4)
        task = (p, window, rho_edges, h_edges, r_lambda)
        reps = 400
        annulus = np.array([experiments._intensity_task(RngStream(61, rep), *task)[1]
                            for rep in range(reps)])
        whole = np.array([whole_cloud_intensity_counts(62, rep, *task) for rep in range(reps)])
        assert annulus.sum() > 5 * reps
        ks = ks_2samp(annulus.sum(axis=(1, 2)), whole.sum(axis=(1, 2)))
        assert ks.pvalue > 1e-3
        sigma = np.sqrt((annulus.var(axis=0, ddof=1) + whole.var(axis=0, ddof=1)) / reps)
        gap = np.abs(annulus.mean(axis=0) - whole.mean(axis=0))
        assert np.all(gap <= 4 * sigma + 1e-12)


class TestTailsRunner:
    def test_monotone_and_negative_slope(self):
        p = validate_params(2, 0, 2, 1e4)
        result = run_tails(p, 1.0, [1, 2, 3], reps=600, seed=6)
        by_name = {c.name: c for c in result.checks}
        assert by_name["tails_monotone"].status == "PASS"
        agg = result.records[-1].metrics
        assert agg["tail_slope"] < 0

    def test_reps_precondition(self):
        with pytest.raises(ValidationError):
            run_tails(validate_params(2, 0, 2, 1e4), 1.0, [1, 2], reps=100, seed=1)

    def test_two_thresholds_report_info_without_fit(self):
        p = validate_params(2, 0, 2, 1e3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_tails(p, 1.0, [1, 2], reps=500, seed=6)
        shape = next(c for c in result.checks if c.name == "tails_exponential_shape")
        assert shape.status == "INFO" and "not judged" in shape.detail
        assert math.isnan(result.records[-1].metrics["tail_slope"])


class TestDispatch:
    """At every worker count, replicate times a probe replication in-process
    and starts a process pool only when the rest would cost more than the pool."""

    GROUPS = [validate_params(2, 0, 2, 1.0), validate_params(2, 0, 2, 2.0)]

    @pytest.mark.parametrize("pool_start_s, mapped", [(0.0, [[199]]), (math.inf, [])])
    def test_each_branch_matches_one_worker(self, monkeypatch, pools, pool_start_s, mapped):
        grid = [validate_params(2, 0, 2, 50.0), validate_params(2, 0, 2, 80.0)]
        serial = run_moments(grid, 200, seed=3, workers=1)
        monkeypatch.setattr(experiments, "POOL_START_S", pool_start_s)
        parallel = run_moments(grid, 200, seed=3, workers=2)
        assert pools == mapped
        assert record_key(parallel.records) == record_key(serial.records)
        assert [c.status for c in parallel.checks] == [c.status for c in serial.checks]

    def test_small_run_starts_no_process(self, monkeypatch):
        # ten blocks, whose probe times the rest far below a pool's start-up
        serial = run_gumbel(0, 1, 1000, 1000, seed=9, workers=1)

        def refuse(*args, **kwargs):
            raise AssertionError("started a process pool")

        monkeypatch.setattr(experiments, "_process_pool", refuse)
        parallel = run_gumbel(0, 1, 1000, 1000, seed=9, workers=2)
        assert record_key(parallel.records) == record_key(serial.records)

    def test_probe_is_the_last_replication_of_the_largest_lambda(self, monkeypatch):
        monkeypatch.setattr(experiments, "POOL_START_S", math.inf)
        groups = [validate_params(2, 0, 2, lam) for lam in (3.0, 5.0, 5.0, 1.0)]
        calls = []
        experiments.replicate("stub", lambda rng, params: calls.append(rng.stream_id) or {},
                              groups, 3, 1, 2)
        stride = experiments.STREAM_STRIDE
        assert calls[0] == 2 * stride + 2  # ties go to the later group
        assert sorted(calls) == [pi * stride + rep for pi in range(4) for rep in range(3)]

    def test_slow_probe_sends_the_rest_to_the_pool(self, pools):
        serial = experiments.replicate("stub", _stub_task, self.GROUPS, 8, 5, 1, 2.0, 0.01)
        parallel = experiments.replicate("stub", _stub_task, self.GROUPS, 8, 5, 2, 2.0, 0.01)
        assert pools == [[7]]
        assert record_key(table_records(parallel[0])) == record_key(table_records(serial[0]))
        assert parallel[1] == serial[1]

    def test_fast_probe_keeps_every_replication_here(self, pools):
        # the probe (lambda 2) is fast, so the rest runs in this process to
        # the end, however slow the lambda-1 group turns out to be
        serial = experiments.replicate("stub", _stub_task, self.GROUPS, 8, 5, 1, 1.0, 0.03)
        parallel = experiments.replicate("stub", _stub_task, self.GROUPS, 8, 5, 2, 1.0, 0.03)
        assert pools == []
        assert record_key(table_records(parallel[0])) == record_key(table_records(serial[0]))
        assert parallel[1] == serial[1]

    @pytest.mark.parametrize("delay, mapped", [(0.175, []), (0.25, [[1]])])
    def test_break_even_counts_the_pool_that_would_start(self, monkeypatch, pools, delay, mapped):
        # two replications follow the probe, so three workers would start
        # w = 2 shares: a pool pays off above POOL_START_S * 2 / 1 = 0.4 s of
        # serial rest, not the 0.3 s that w = 3 would give; 2 x 0.175 s lies
        # between the two, 2 x 0.25 s above both
        monkeypatch.setattr(experiments, "POOL_START_S", 0.2)
        serial = experiments.replicate("stub", _slow_probe_task, self.GROUPS[1:], 3, 5, 1, 0.0)
        parallel = experiments.replicate("stub", _slow_probe_task, self.GROUPS[1:], 3, 5, 3, delay)
        assert pools == mapped
        assert record_key(table_records(parallel[0])) == record_key(table_records(serial[0]))

    def test_probe_exception_propagates(self, pools):
        with pytest.raises(ValueError, match=r"replication 1000001 failed"):
            experiments.replicate("stub", _failing_task, self.GROUPS, 2, 5, 2)
        assert pools == []

    def test_pool_runs_all_shares_but_the_one_run_here(self, monkeypatch, pools):
        # 15 replications after the probe split into strided shares of 5:
        # the first runs in this process, the other two on a pool of two
        monkeypatch.setattr(experiments, "POOL_START_S", 0.0)
        serial = experiments.replicate("stub", _pid_task, self.GROUPS, 8, 5, 1)
        parallel = experiments.replicate("stub", _pid_task, self.GROUPS, 8, 5, 3)
        assert pools == [[5, 5]]
        assert record_key(table_records(parallel[0])) == record_key(table_records(serial[0]))
        pids = parallel[1]
        here = [k for k, pid in enumerate(pids) if pid == os.getpid()]
        assert here == [0, 3, 6, 9, 12, 15]  # the first share and the probe
        assert multiprocessing.active_children() == []

    def test_one_task_left_starts_no_pool(self, monkeypatch, pools):
        # a slow probe points to the pool, but one replication is left to share
        monkeypatch.setattr(experiments, "POOL_START_S", 0.0)
        serial = experiments.replicate("stub", _stub_task, self.GROUPS[:1], 2, 5, 1, 1.0, 0.01)
        parallel = experiments.replicate("stub", _stub_task, self.GROUPS[:1], 2, 5, 2, 1.0, 0.01)
        assert pools == []
        assert record_key(table_records(parallel[0])) == record_key(table_records(serial[0]))

    def test_one_worker_takes_the_probe_path_and_starts_no_pool(self, monkeypatch, pools):
        # at one worker the break-even has no pool to weigh: the probe runs
        # first, the rest in order, and each row lands at its task's index
        monkeypatch.setattr(experiments, "POOL_START_S", 0.0)
        calls = []
        rows = experiments._map_tasks(lambda t: calls.append(t) or 2 * t, list(range(6)), 1, 4)
        assert rows == [0, 2, 4, 6, 8, 10] and calls == [4, 0, 1, 2, 3, 5]
        tables, _ = experiments.replicate("stub", _stub_task, self.GROUPS, 4, 5, 1, 2.0, 0.0)
        records = table_records(tables)
        assert pools == []
        streams = [(params, pi * experiments.STREAM_STRIDE + rep)
                   for pi, params in enumerate(self.GROUPS) for rep in range(4)]
        assert [r.metrics for r in records] == [_stub_task(RngStream(5, sid), params, 2.0, 0.0)
                                                for params, sid in streams]
        assert [table.n_kept() for table in tables] == [4, 4]
        assert [table.values("u").tolist() for table in tables] == [
            [r.metrics["u"] for r in records[:4]], [r.metrics["u"] for r in records[4:]]]

    @pytest.mark.parametrize("workers, mapped", [(1, []), (2, [[7]])])
    def test_every_task_draws_its_own_stream(self, monkeypatch, pools, workers, mapped):
        # each task, here or on the pool, draws from the generator that
        # RngStream(seed, stream_id) builds alone
        monkeypatch.setattr(experiments, "POOL_START_S", 0.0)
        _, sides = experiments.replicate("stub", _three_draws_task, self.GROUPS, 8, 11, workers)
        assert pools == mapped
        stride = experiments.STREAM_STRIDE
        assert [sid for sid, _ in sides] == [pi * stride + rep for pi in range(2)
                                             for rep in range(8)]
        for sid, draws in sides:
            assert draws == tuple(RngStream(11, sid).generator().random(3))

    @pytest.mark.parametrize("bad_stream", [1, 2], ids=["pool_share", "own_share"])
    def test_share_exception_propagates(self, monkeypatch, pools, bad_stream):
        # with two workers, odd replications of group 0 go to the pool and
        # even ones run here
        monkeypatch.setattr(experiments, "POOL_START_S", 0.0)
        with pytest.raises(ValueError, match=rf"replication {bad_stream} failed"):
            experiments.replicate("stub", _pid_task, self.GROUPS, 8, 5, 2, bad_stream)
        assert pools == [[7]]
        assert multiprocessing.active_children() == []


@pytest.fixture
def no_polytope_sampling(monkeypatch):
    """Fail the test if a runner reaches its replications."""
    def refuse(*args, **kwargs):
        raise AssertionError("sampled before validating the input")

    monkeypatch.setattr(experiments, "_map_tasks", refuse)


P2 = validate_params(2, 0, 2, 1e3)


class TestPreconditionChecks:
    # each runner raises its check function's error before any replication
    @pytest.mark.parametrize("call, field", [
        (lambda: run_gumbel(0, 2, 99, 500, seed=1), "n"),
        (lambda: run_gumbel(0, 2, 1000, 99, seed=1), "reps"),
        (lambda: run_intensity(P2, ScaledWindow(2.0, -np.inf, 1.0), (1, 4), 10, seed=1),
         "window"),
        (lambda: run_scaling_limit([P2], 2.5, 2, seed=1), "L"),
        (lambda: run_moments([P2], 199, seed=1), "reps"),
        (lambda: run_clt(P2, 999, seed=1), "reps"),
        (lambda: run_tails(P2, 1.0, [1, 2], reps=499, seed=1), "reps"),
        (lambda: run_slln_trend(P2, a=1.0, k_max=4, p=0.6, i=2, reps=10, seed=1), "a"),
        (lambda: run_slln_trend(P2, a=4.0, k_max=3, p=0.6, i=2, reps=10, seed=1), "k_max"),
        (lambda: run_slln_trend(P2, a=4.0, k_max=4, p=-0.3, i=2, reps=10, seed=1), "p"),
        (lambda: concentration_check(P2, 1999, [1.0], seed=1), "reps"),
        (lambda: concentration_check(P2, 2000, [1.0], seed=1, i=3), "i"),
        # rep STREAM_STRIDE of group 0 would draw group 1's first stream
        (lambda: run_scaling_limit([P2], 1.0, experiments.STREAM_STRIDE, seed=1), "reps"),
        (lambda: run_moments([P2], experiments.STREAM_STRIDE, seed=1), "reps"),
        (lambda: run_tails(P2, 0.0, [1, 2], reps=500, seed=1), "M"),
        (lambda: run_tails(P2, -1.0, [1, 2], reps=500, seed=1), "M"),
        # the window must lie in the rescaled space of every intensity the run
        # evaluates; at lambda = 1e3 that is ||v|| <= 8.61 and h <= 7.51
        pytest.param(lambda: run_intensity(P2, ScaledWindow(100.0, -5.0, 1.0), (1, 4), 10,
                                           seed=1), "window", id="intensity-spatial_radius"),
        pytest.param(lambda: run_intensity(P2, ScaledWindow(2.0, -5.0, 100.0), (1, 4), 10,
                                           seed=1), "window", id="intensity-h_max"),
        # a run with no parameter group judges nothing
        pytest.param(lambda: run_moments([], 200, seed=1), "lambda_grid", id="moments-empty"),
        # a ball grid of grid_n^(d-1) points above MAX_GRID_POINTS: 2^99 points
        # in d = 100, and the tails runner's 41^3 in d = 4
        pytest.param(lambda: run_scaling_limit(
            [validate_params(100, 0, 4, lam) for lam in (1.1, 1.15, 1.2)], 1.0, 20, seed=1,
            grid_n=2), "grid_n", id="scaling_limit-grid"),
        pytest.param(lambda: run_tails(validate_params(4, 0, 2, 1e3), 1.0, [1, 2], 500, seed=1),
                     "d", id="tails-grid"),
        # gumbel runs ceil(reps / GUMBEL_BLOCK) tasks, so reps meets the
        # stream bound in check_gumbel, not in the engine
        pytest.param(lambda: run_gumbel(0, 2, 1000, experiments.STREAM_STRIDE, seed=1), "reps",
                     id="gumbel-stream_stride"),
        # one replication can never be judged
        pytest.param(lambda: run_scaling_limit([P2], 1.0, 1, seed=1), "reps",
                     id="scaling_limit-reps1"),
        pytest.param(lambda: run_slln_trend(P2, a=4.0, k_max=4, p=0.6, i=2, reps=1, seed=1),
                     "reps", id="slln-reps1"),
        pytest.param(lambda: run_vertex_correspondence(P2, 1.0, 1, seed=1), "reps",
                     id="vertex_correspondence-reps1"),
        # an empty grid leaves nothing to judge
        pytest.param(lambda: concentration_check(P2, 2000, [], seed=1), "y_grid",
                     id="concentration-empty_y_grid"),
        pytest.param(lambda: run_tails(P2, 1.0, [], 500, seed=1), "t_grid",
                     id="tails-empty_t_grid"),
        # check_slln judges the model first: d = 1 allows i = 0, which its p
        # threshold would divide by
        pytest.param(lambda: run_slln_trend(ModelParams(1, 0.0, 2.0, 1.0), a=10.0, k_max=4,
                                            p=0.6, i=0, reps=2, seed=1), "d", id="slln-d1"),
    ])
    def test_runner_rejects_before_sampling(self, monkeypatch, call, field):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled before validating the input")

        monkeypatch.setattr(experiments, "_map_tasks", refuse)
        with pytest.raises(ValidationError) as exc:
            call()
        assert exc.value.field == field

    # each check, called directly, judges reps as its runner does: its
    # runner's minimum, and the stream bound STREAM_STRIDE
    @pytest.mark.parametrize("check, minimum", [
        pytest.param(lambda reps: experiments.check_gumbel(0, 2, 1000, reps), 100, id="gumbel"),
        pytest.param(lambda reps: experiments.check_intensity(
            P2, ScaledWindow(2.0, -5.0, 1.0), (1, 4), reps), 1, id="intensity"),
        pytest.param(lambda reps: experiments.check_scaling_limit([P2], 1.0, reps), 2,
                     id="scaling_limit"),
        pytest.param(lambda reps: experiments.check_moments([P2], reps), 200, id="moments"),
        pytest.param(lambda reps: experiments.check_clt(P2, reps), 1000, id="clt"),
        pytest.param(lambda reps: experiments.check_tails(P2, 1.0, [1, 2], reps), 500,
                     id="tails"),
        pytest.param(lambda reps: experiments.check_slln(P2, 4.0, 4, 0.6, 2, reps), 2,
                     id="slln"),
        pytest.param(lambda reps: experiments.check_concentration(P2, reps, [1.0]), 2000,
                     id="concentration"),
        pytest.param(lambda reps: experiments.check_vertex_correspondence(P2, 1.0, reps), 2,
                     id="vertex_correspondence"),
    ])
    def test_check_judges_reps(self, check, minimum):
        check(minimum)
        check(experiments.STREAM_STRIDE - 1)
        for reps in (minimum - 1, experiments.STREAM_STRIDE):
            with pytest.raises(ValidationError) as exc:
                check(reps)
            assert exc.value.field == "reps"

    # each check refuses a count that is not an integer, naming its field: an
    # integral float, a fractional one and a bool, which Python counts as an
    # int; ok is an integer the check accepts in that place
    @pytest.mark.parametrize("check, field, ok", [
        pytest.param(lambda x: experiments.check_gumbel(0, 2, 1000, x), "reps", 100,
                     id="gumbel-reps"),
        pytest.param(lambda x: experiments.check_gumbel(0, 2, x, 100), "n", 1000,
                     id="gumbel-n"),
        pytest.param(lambda x: experiments.check_intensity(
            P2, ScaledWindow(2.0, -5.0, 1.0), (1, 4), x), "reps", 1, id="intensity-reps"),
        pytest.param(lambda x: experiments.check_intensity(
            P2, ScaledWindow(2.0, -5.0, 1.0), (x, 4), 10), "bins", 1, id="intensity-bins_rho"),
        pytest.param(lambda x: experiments.check_intensity(
            P2, ScaledWindow(2.0, -5.0, 1.0), (1, x), 10), "bins", 4, id="intensity-bins_h"),
        pytest.param(lambda x: experiments.check_scaling_limit([P2], 1.0, x), "reps", 2,
                     id="scaling_limit-reps"),
        pytest.param(lambda x: experiments.check_scaling_limit([P2], 1.0, 2, x), "grid_n", 2,
                     id="scaling_limit-grid_n"),
        pytest.param(lambda x: experiments.check_moments([P2], x), "reps", 200, id="moments-reps"),
        pytest.param(lambda x: experiments.check_clt(P2, x), "reps", 1000, id="clt-reps"),
        pytest.param(lambda x: experiments.check_clt(ModelParams(x, 0, 2, 1e3), 1000), "d", 2,
                     id="clt-d"),
        pytest.param(lambda x: experiments.check_tails(P2, 1.0, [1, 2], x), "reps", 500,
                     id="tails-reps"),
        pytest.param(lambda x: experiments.check_slln(P2, 4.0, 4, 0.6, 2, x), "reps", 2,
                     id="slln-reps"),
        pytest.param(lambda x: experiments.check_slln(P2, 4.0, x, 0.6, 2, 2), "k_max", 4,
                     id="slln-k_max"),
        pytest.param(lambda x: experiments.check_slln(P2, 4.0, 4, 0.6, x, 2), "i", 1,
                     id="slln-i"),
        pytest.param(lambda x: experiments.check_concentration(P2, x, [1.0]), "reps", 2000,
                     id="concentration-reps"),
        pytest.param(lambda x: experiments.check_concentration(P2, 2000, [1.0], x), "i", 1,
                     id="concentration-i"),
        pytest.param(lambda x: experiments.check_vertex_correspondence(P2, 1.0, x), "reps", 2,
                     id="vertex_correspondence-reps"),
    ])
    def test_check_refuses_non_integer_counts(self, check, field, ok):
        check(ok)
        for bad in (float(ok), ok + 0.5, True):
            with pytest.raises(ValidationError, match="must be an integer") as exc:
                check(bad)
            assert exc.value.field == field

    # the ranges a config's keys share with the Python API are judged by the
    # runner's own check, before any point is drawn
    @pytest.mark.parametrize("call, field", [
        pytest.param(lambda: run_scaling_limit([P2], 1.0, 2, seed=1, grid_n=0), "grid_n",
                     id="scaling_limit-grid_n"),
        pytest.param(lambda: run_scaling_limit([P2], -1.0, 2, seed=1), "L",
                     id="scaling_limit-L"),
        pytest.param(lambda: run_intensity(P2, ScaledWindow(2.0, -5.0, 1.0), (0, 4), 10, seed=1),
                     "bins", id="intensity-bins"),
        pytest.param(lambda: run_vertex_correspondence(P2, 0.0, 5, seed=1), "L",
                     id="vertex_correspondence-L"),
        pytest.param(lambda: run_gumbel(-2, 2, 1000, 200, seed=1), "alpha", id="gumbel-alpha"),
        pytest.param(lambda: run_gumbel(0, 0.5, 1000, 200, seed=1), "beta", id="gumbel-beta"),
        pytest.param(lambda: run_vertex_correspondence(P2, 1.0, 0, seed=1), "reps",
                     id="vertex_correspondence-reps"),
        pytest.param(lambda: run_slln_trend(P2, a=4.0, k_max=4, p=0.6, i=2, reps=0, seed=1),
                     "reps", id="slln-reps"),
    ])
    def test_range_rejected_before_any_draw(self, monkeypatch, call, field):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled before validating the input")

        monkeypatch.setattr(experiments, "sample_polytope_input", refuse)
        monkeypatch.setattr(experiments, "sample_standardized_max", refuse)
        with pytest.raises(ValidationError) as exc:
            call()
        assert exc.value.field == field

    def test_streams_stay_below_the_reserved_ones(self, monkeypatch):
        # the last replication stream of 2000 groups is 2 * 10**9 - 1; group
        # 2000 would start at the first bootstrap stream
        last = 1999 * experiments.STREAM_STRIDE + experiments.STREAM_STRIDE - 1
        assert last == experiments.BOOTSTRAP_STREAM - 1
        experiments.check_reps(experiments.STREAM_STRIDE - 1, 2000)
        monkeypatch.setattr(experiments, "_map_tasks", lambda *a: pytest.fail("sampled"))
        grid = [validate_params(2, 0, 2, 1e3 + k) for k in range(2001)]
        for call, field in (
            (lambda: experiments.check_reps(1, 2001), "lambda_grid"),
            (lambda: run_scaling_limit(grid, 1.0, 2, seed=1), "lambda_grid"),
            (lambda: run_moments(grid, 200, seed=1), "lambda_grid"),
            (lambda: run_slln_trend(P2, a=1.001, k_max=2001, p=0.6, i=2, reps=2, seed=1),
             "k_max"),
        ):
            with pytest.raises(ValidationError) as exc:
                call()
            assert exc.value.field == field

    def test_checks_return_what_the_runner_uses(self):
        grid = experiments.check_slln(validate_params(3, 0.5, 2, 1.0), 10.0, 4, 0.9, 3, 10)
        assert [q.lam for q in grid] == [10.0, 100.0, 1000.0, 10000.0]
        assert experiments.check_concentration(P2, 2000, [1.0]) == (P2, 2)
        with pytest.raises(IntensityTooSmall):
            experiments.check_tails(validate_params(2, 0, 2, 1.5), 1.0, [1, 2], 500)

    def test_intensity_check_needs_every_comparison_radius(self, monkeypatch):
        # at lambda = 1e12 the law has a critical radius, at the comparison
        # intensity 1e4 it has none
        monkeypatch.setattr(experiments, "_map_tasks", lambda *a: pytest.fail("sampled"))
        p = validate_params(3, 0, 10, 1e12)
        assert critical_radius(p) > 1
        with pytest.raises(IntensityTooSmall, match="lambda = 1e[+]04"):
            run_intensity(p, ScaledWindow(1.0, -2.0, 1.0), (1, 4), 10, seed=1)


class TestSllnRunner:
    def test_invalid_p_rejected(self):
        p = validate_params(2, 0, 2, 1.0)
        with pytest.raises(ValidationError):
            run_slln_trend(p, a=4.0, k_max=6, p=-0.5, i=2, reps=200, seed=1)

    def test_a_must_exceed_one(self):
        p = validate_params(2, 0, 2, 1.0)
        with pytest.raises(ValidationError):
            run_slln_trend(p, a=1.0, k_max=6, p=0.6, i=2, reps=200, seed=1)

    def test_threshold_value(self):
        # i=2, beta=2, d=2: threshold (4i - beta(d+3))/(4i) = (8-10)/8 = -0.25
        p = validate_params(2, 0, 2, 1.0)
        with pytest.raises(ValidationError):
            run_slln_trend(p, a=4.0, k_max=6, p=-0.25, i=2, reps=200, seed=1)

    @pytest.mark.parametrize("i", [0, 3, 5, -1])
    @pytest.mark.usefixtures("no_polytope_sampling")
    def test_unjudgeable_index_rejected_before_sampling(self, i):
        # d = 2 records carry only v1 and v2
        p = validate_params(2, 0, 2, 1.0)
        with pytest.raises(ValidationError) as exc:
            run_slln_trend(p, a=4.0, k_max=4, p=0.6, i=i, reps=10, seed=1)
        assert exc.value.field == "i"


class TestConcentrationRunner:
    def test_zero_threshold_never_violates(self):
        p = validate_params(2, 0, 2, 200.0)
        result = concentration_check(p, 2000, [0.0, 1.0, 2.0], seed=8)
        by_name = {c.name: c for c in result.checks}
        assert by_name["concentration_no_violation"].status == "PASS"
        assert by_name["concentration_monotone"].status == "PASS"
        agg = next(r for r in result.records if r.replication == -1)
        assert agg.metrics["p_exceed_0"] == 1.0

    def test_reps_precondition(self):
        with pytest.raises(ValidationError):
            concentration_check(validate_params(2, 0, 2, 100.0), 500, [1.0], seed=1)

    @pytest.mark.parametrize("i", [0, 4, 9])
    @pytest.mark.usefixtures("no_polytope_sampling")
    def test_unjudgeable_index_rejected_before_sampling(self, i):
        p = validate_params(3, 0, 2, 100.0)
        with pytest.raises(ValidationError) as exc:
            concentration_check(p, 2000, [1.0], seed=1, i=i)
        assert exc.value.field == "i"


class TestUnjudgedRuns:
    """A statistic that fewer than 2 kept replications cannot judge is a FAIL
    check naming the kept count: in d=30 a cloud of lambda = 5 points has no
    hull, so every replication below is skipped."""

    P30 = validate_params(30, 0, 2, 5.0)

    @staticmethod
    def statuses(result):
        return {c.name: (c.status, c.detail) for c in result.checks}

    def test_concentration(self):
        result = concentration_check(self.P30, 2000, [1.0], seed=1)
        assert self.statuses(result) == {
            "concentration_judged": ("FAIL", "not judged: 0 of 2000 replications kept, need 2")}
        assert len(result.records) == 2000

    def test_concentration_one_kept_still_writes_the_aggregate(self, monkeypatch):
        calls = []

        def first_kept(rng, params):
            calls.append(rng)
            return {"skipped": 0.0, "v2": 1.0} if len(calls) == 1 else {"skipped": 1.0}

        monkeypatch.setattr(experiments, "_polytope_task", first_kept)
        result = concentration_check(validate_params(2, 0, 2, 100.0), 2000, [0.5, 1.0], seed=1)
        assert self.statuses(result) == {
            "concentration_judged": ("FAIL", "not judged: 1 of 2000 replications kept, need 2")}
        assert len(result.records) == 2001
        assert result.records[-1].replication == -1
        assert result.records[-1].metrics == {"p_exceed_0.5": 0.0, "p_exceed_1": 0.0}

    def test_clt(self):
        result = run_clt(self.P30, 1000, seed=1)
        assert self.statuses(result) == {
            f"clt_judged[{m}]": ("FAIL", "not judged: 0 of 1000 replications kept, need 2")
            for m in ("f0", "v30")}

    def test_moments(self):
        grid = [validate_params(30, 0, 2, lam) for lam in (5.0, 6.0, 7.0)]
        result = run_moments(grid, 200, seed=1)
        assert [(c.name, c.status) for c in result.checks] == [
            (f"moments_judged[d=30,alpha=0.0,beta=2.0,lambda={lam}]", "FAIL")
            for lam in (5, 6, 7)]
        assert len(result.records) == 3 * 200 + 3

    def test_slln(self):
        # and no trend check: its medians would all be nan
        result = run_slln_trend(self.P30, a=2.0, k_max=4, p=0.6, i=30, reps=5, seed=1)
        assert self.statuses(result) == {
            f"slln_judged[k={k}]": ("FAIL", "not judged: 0 of 5 replications kept, need 2")
            for k in range(1, 5)}

    def test_scaling_limit(self):
        # in d = 10 at lambda near 1 no cloud has a festoon over the unit ball
        grid = [validate_params(10, 0, 8, lam) for lam in (1.02, 1.03, 1.05)]
        result = run_scaling_limit(grid, 1.0, 20, seed=1, grid_n=2)
        assert self.statuses(result) == {
            f"scaling_judged[d=10,alpha=0.0,beta=8.0,lambda={lam}]":
                ("FAIL", "not judged: 0 of 20 replications kept, need 2")
            for lam in (1.02, 1.03, 1.05)}
        assert len(result.records) == 3 * 20

    def test_scaling_limit_judges_the_other_law(self, monkeypatch):
        # law (0, 2) keeps one replication at lambda 1e4; law (1, 1) keeps all
        def stub(rng, params, L, grid_n):
            rep = rng.stream_id % experiments.STREAM_STRIDE
            if params.alpha == 0 and params.lam == 1e4 and rep > 0:
                return {"skipped": 1.0}
            return {"skipped": 0.0, "sup_dist": 1.0 / params.lam + rep * 1e-6}

        monkeypatch.setattr(experiments, "_scaling_task", stub)
        grid = [validate_params(2, alpha, beta, lam) for alpha, beta in ((0, 2), (1, 1))
                for lam in (1e3, 1e4)]
        assert self.statuses(run_scaling_limit(grid, 1.0, 3, seed=1)) == {
            "scaling_judged[d=2,alpha=0.0,beta=2.0,lambda=10000]":
                ("FAIL", "not judged: 1 of 3 replications kept, need 2"),
            "scaling_sup_distance_decreasing[d=2,alpha=1.0,beta=1.0]":
                ("PASS", "medians lambda=1e+03: 0.0010, lambda=1e+04: 0.0001; endpoint CIs "
                         "(0.0010, 0.0010) vs (0.0001, 0.0001)")}

    def test_vertex_correspondence(self):
        result = run_vertex_correspondence(validate_params(100, 0, 4, 1.2), 1.0, 20, seed=1)
        assert self.statuses(result) == {
            "vertex_correspondence_judged": ("FAIL", "not judged: 0 of 20 replications kept, "
                                                     "need 2")}
        assert len(result.records) == 20


class TestVertexCorrespondence:
    def test_small_scale_rate(self):
        p = validate_params(2, 0, 2, 1e4)
        result = run_vertex_correspondence(p, 1.0, reps=10, seed=12)
        agg = next(r for r in result.records if r.replication == -1)
        assert agg.metrics["match_rate"] > 0.8


class TestCltRunner:
    def test_reps_precondition(self):
        with pytest.raises(ValidationError):
            run_clt(validate_params(2, 0, 2, 1000.0), 500, seed=1)


SHELL_POINTS = experiments.SHELL_POINTS


def shell_table(size):
    """A SHELL_POINTS table that forces one shell size in every dimension."""
    return dict.fromkeys(SHELL_POINTS, size)


def polytope_metrics(cloud, d):
    """_polytope_task's metrics computed directly from a whole cloud."""
    poly = convex_hull(cloud, assume_unique=True)
    out = {"skipped": 0.0, "n_points": float(len(cloud))}
    out.update({f"f{j}": float(fj) for j, fj in enumerate(poly.f_vector) if fj is not None})
    out[f"v{d}"] = poly.volume
    out[f"v{d - 1}"] = poly.area / 2.0
    return out


class TestShellSampling:
    def test_small_intensity_records_match_full_path(self):
        # at lambda <= the shell size a replication hulls its whole cloud, draw for draw
        for d, lam in ((2, 100.0), (2, 192.0), (3, 300.0), (3, 512.0), (4, 200.0), (4, 1024.0)):
            assert lam <= experiments._shell_points(d)
            p = validate_params(d, 0, 2, lam)
            for sid in range(5):
                cloud = sample_polytope_input(RngStream(5, sid), p)
                got = experiments._polytope_task(RngStream(5, sid), p)
                assert got == polytope_metrics(cloud, d)

    @pytest.mark.parametrize("d, lam, shell", [
        (2, 3000.0, 32), (2, 2e4, 40), (3, 3000.0, 128), (3, 1e4, 160), (4, 3000.0, 384),
    ])
    def test_certified_shell_hull_equals_full_hull(self, d, lam, shell):
        # split one whole cloud at r0: a certified shell hull is the whole hull;
        # the shell sizes leave about half of the clouds uncertified
        p = validate_params(d, 0, 2, lam)
        r0 = float(radial_tail_inverse(p, shell / lam))
        certified = 0
        for sid in range(20):
            pts = sample_polytope_input(RngStream(13, sid), p)
            outer = pts[np.linalg.norm(pts, axis=1) > r0]
            if len(outer) < d + 1:
                continue
            part = convex_hull(outer, assume_unique=True)
            if (1.0 - 1e-9) * part.facet_offsets.min() < r0:
                continue
            certified += 1
            whole = convex_hull(pts, assume_unique=True)
            assert sorted(map(tuple, part.vertices)) == sorted(map(tuple, whole.vertices))
            assert part.f_vector == whole.f_vector
            assert part.volume == pytest.approx(whole.volume, rel=1e-12)
            assert part.area == pytest.approx(whole.area, rel=1e-12)
        assert certified >= 5

    @pytest.mark.parametrize("d, lam, reps", [(2, 5000.0, 300), (3, 3000.0, 300), (4, 2000.0, 200)])
    def test_shell_path_matches_full_path_in_law(self, monkeypatch, d, lam, reps):
        p = validate_params(d, 0, 2, lam)

        def sample(seed, table):
            monkeypatch.setattr(experiments, "SHELL_POINTS", table)
            return [experiments._polytope_task(RngStream(seed, sid), p) for sid in range(reps)]

        full = sample(41, shell_table(math.inf))
        # the production size certifies in round 1; 8 often needs round 2 or the whole cloud
        for seed, table in ((42, SHELL_POINTS), (43, shell_table(8))):
            shell = sample(seed, table)
            for key in ("f0", f"v{d}", "n_points"):
                a, b = [m[key] for m in full], [m[key] for m in shell]
                assert ks_2samp(a, b).pvalue > 1e-3, (table, key)

    def test_shell_size_grows_with_dimension(self):
        sizes = [experiments._shell_points(d) for d in range(2, 9)]
        assert sizes == [192, 512] + [1024] * 5

    @pytest.mark.parametrize("d, alpha, beta, lam", [
        (2, 0, 2, 1e4), (2, 0, 2, 1e6), (2, 1, 1, 1e4), (2, 1, 1, 1e6), (2, 2, 4, 1e4),
        (2, 2, 4, 1e6), (3, 0, 2, 1e4), (3, 0, 2, 1e5), (3, 1, 1, 1e4), (3, 1, 1, 1e5),
    ])
    def test_round_one_certifies_the_traffic_it_serves(self, monkeypatch, d, alpha, beta, lam):
        # a replication certified in round 1 samples its cloud once
        p = validate_params(d, alpha, beta, lam)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return sample_polytope_input(*args, **kwargs)

        monkeypatch.setattr(experiments, "sample_polytope_input", counted)
        tasks = {"_polytope_task": lambda rng: experiments._polytope_task(rng, p),
                 "_scaling_task": lambda rng: experiments._scaling_task(rng, p, 1.0, 21)}
        reps = 60
        for name, task in tasks.items():
            round_one = 0
            for sid in range(reps):
                calls.clear()
                task(RngStream(37, sid))
                round_one += len(calls) == 1
            assert round_one >= 0.95 * reps, (name, round_one)


def split_sampler(points):
    """Stand-in for sample_polytope_input that hands out one fixed whole
    cloud annulus by annulus, logging each (r_min, r_max) it is asked for."""
    norms = np.linalg.norm(points, axis=1)
    calls = []

    def sample(rng, params, r_min=0.0, r_max=math.inf):
        calls.append((r_min, r_max))
        return points[(norms > r_min) & (norms <= r_max)]

    return sample, calls


def capture(monkeypatch, names):
    """Wrap ggp.experiments functions so the last output of each stays readable."""
    last = {}
    for name in names:
        def wrapper(*args, _fn=getattr(experiments, name), _name=name, **kwargs):
            out = _fn(*args, **kwargs)
            last[_name] = (args, out)
            return out
        monkeypatch.setattr(experiments, name, wrapper)
    return last


def window_sets(last, L):
    """hull_set and ext_set of _vertex_task, as sets of point coordinates."""
    (points, _, _), w = last["transform_batch"]
    fest, kept, _ = last["windowed_festoon"][1]
    poly = last["convex_hull"][1]
    near = np.linalg.norm(w[:, :-1], axis=1) <= L
    hull_set = {tuple(points[ix]) for ix in poly.vertex_input_indices if near[ix]}
    ext_set = {tuple(points[ix]) for ix in kept[fest.extreme_indices] if near[ix]}
    return hull_set, ext_set


class TestFestoonShell:
    """scaling_limit and vertex_correspondence on the shell sampler: one
    whole cloud is handed out annulus by annulus, so every replication the
    certificates accept must give the whole cloud's result."""

    def run_split(self, monkeypatch, task, points, table):
        sample, calls = split_sampler(points)
        monkeypatch.setattr(experiments, "sample_polytope_input", sample)
        monkeypatch.setattr(experiments, "SHELL_POINTS", table)
        return task(), calls

    @pytest.mark.parametrize("d, alpha, beta, lam", [
        (2, 0, 2, 1e4), (2, 0, 2, 1e5), (2, 1, 1, 1e5), (2, -0.5, 3, 1e5), (3, 0, 2, 1e4),
    ])
    def test_scaling_task_on_shell_equals_whole_cloud(self, monkeypatch, d, alpha, beta, lam):
        p = validate_params(d, alpha, beta, lam)
        certified = 0
        for sid in range(12):
            points = sample_polytope_input(RngStream(23, sid), p)
            task = lambda: experiments._scaling_task(RngStream(23, sid), p, 1.0, 21)  # noqa: E731
            whole, _ = self.run_split(monkeypatch, task, points, shell_table(math.inf))
            shell, calls = self.run_split(monkeypatch, task, points, SHELL_POINTS)
            certified += len(calls) == 1
            assert shell["skipped"] == whole["skipped"] == 0.0
            assert abs(shell["sup_dist"] - whole["sup_dist"]) <= 1e-12
            assert shell["n_vertices"] == whole["n_vertices"]
            assert shell["n_extreme"] == whole["n_extreme"]
        assert certified == 12

    @pytest.mark.parametrize("d, lam", [(2, 1e4), (2, 1e5), (3, 1e4)])
    def test_vertex_sets_on_shell_equal_whole_cloud(self, monkeypatch, d, lam):
        p = validate_params(d, 0, 2, lam)
        r_lambda = critical_radius(p)
        compared = 0
        for sid in range(8):
            points = sample_polytope_input(RngStream(29, sid), p)
            task = lambda: experiments._vertex_task(RngStream(29, sid), p, 1.0, r_lambda)  # noqa: E731
            results = []
            for table in (shell_table(math.inf), SHELL_POINTS):
                last = capture(monkeypatch, ["transform_batch", "convex_hull",
                                             "windowed_festoon"])
                metrics, calls = self.run_split(monkeypatch, task, points, table)
                results.append((metrics, window_sets(last, 1.0)))
                monkeypatch.undo()
            (whole, whole_sets), (shell, shell_sets) = results
            assert len(calls) == 1  # certified in round 1
            assert shell_sets == whole_sets
            assert shell == whole
            compared += len(whole_sets[0]) + len(whole_sets[1])
        assert compared >= 8

    @pytest.mark.parametrize("task_name", ["_scaling_task", "_vertex_task"])
    def test_tiny_shell_widens_and_never_skips_more(self, monkeypatch, task_name):
        # 8 shell points in expectation: round 2 widens to a positive radius
        # in some replications and to the whole cloud in others
        p = validate_params(2, 0, 2, 3e3)
        r_lambda = critical_radius(p)
        widened = {"annulus": 0, "whole": 0}
        for sid in range(30):
            points = sample_polytope_input(RngStream(31, sid), p)
            args = (RngStream(31, sid), p, 1.0, 21 if task_name == "_scaling_task" else r_lambda)
            task = lambda: getattr(experiments, task_name)(*args)  # noqa: E731
            whole, _ = self.run_split(monkeypatch, task, points, shell_table(math.inf))
            shell, calls = self.run_split(monkeypatch, task, points, shell_table(8))
            if len(calls) > 1:
                widened["whole" if calls[-1][0] == 0.0 else "annulus"] += 1
            assert shell["skipped"] == whole["skipped"]
            if task_name == "_scaling_task" and not whole["skipped"]:
                assert abs(shell.pop("sup_dist") - whole.pop("sup_dist")) <= 1e-12
            assert shell == whole
        assert widened["annulus"] > 0 and widened["whole"] > 0

    def test_shell_without_near_point_is_rejected(self, monkeypatch):
        # hand-built d = 2 cloud: no shell point lies in B(o, L + 1), so the
        # shell's windowed_festoon guesses h_min = -1 and a narrow window;
        # the inner point sets the whole cloud's h_min, whose wider window
        # takes in the low point at v = 5 and lowers the festoon over B(o, L);
        # the shell's hull holds B(o, r0) only at a 1024-point shell
        p = validate_params(2, 0, 2, 1e4)
        r_lambda = critical_radius(p)
        r0 = float(radial_tail_inverse(p, 1024 / p.lam))
        h0 = r_lambda ** (p.beta - 1) * (r_lambda - r0)
        shell_w = np.array([[-2.5, 0.0], [2.5, 0.0], [3.0, 2.0], [5.0, -10.0], [9.0, -5.0],
                            [-9.0, -5.0], [-5.0, -3.0]])
        shell = inverse_transform(shell_w, p, r_lambda)
        inner = inverse_transform(np.array([0.0, h0 + 0.1])[None], p, r_lambda)[0]
        assert np.linalg.norm(inner) < r0 < experiments._inball(convex_hull(shell))

        w = transform_batch(shell, p.beta, r_lambda)
        fest, _, _ = windowed_festoon(w, 1.0)
        assert stable_height(fest, 1.0) < h0  # only the missing near point fails
        assert experiments._festoon_radius(w, fest, 1.0, p.beta, r_lambda) == 0.0

        points = np.vstack([shell, inner])
        task = lambda: experiments._scaling_task(RngStream(1, 0), p, 1.0, 21)  # noqa: E731
        whole, _ = self.run_split(monkeypatch, task, points, shell_table(math.inf))
        got, calls = self.run_split(monkeypatch, task, points, shell_table(1024))
        assert calls[-1][0] == 0.0 and got == whole

    @pytest.mark.parametrize("d, alpha, beta, lam, reps", [
        (2, 0, 2, 1e5, 150), (2, 1, 1, 1e4, 200), (3, 0, 2, 1e4, 120), (3, 1, 1, 1e4, 120),
    ])
    def test_shell_path_matches_whole_path_in_law(self, monkeypatch, d, alpha, beta, lam, reps):
        p = validate_params(d, alpha, beta, lam)

        def sample(seed, table):
            monkeypatch.setattr(experiments, "SHELL_POINTS", table)
            out = [experiments._scaling_task(RngStream(seed, sid), p, 1.0, 21)
                   for sid in range(reps)]
            return [m for m in out if not m["skipped"]]

        whole, shell = sample(51, shell_table(math.inf)), sample(52, SHELL_POINTS)
        assert len(shell) >= len(whole) - reps // 20
        for key in ("sup_dist", "n_vertices", "n_extreme"):
            a, b = [m[key] for m in whole], [m[key] for m in shell]
            assert ks_2samp(a, b).pvalue > 1e-3, key

    def test_round_three_samples_the_rest_of_the_cloud(self, monkeypatch):
        # a certificate that still falls short after round 2 gets the whole cloud
        p = validate_params(2, 0, 2, 1e4)
        r0 = float(radial_tail_inverse(p, experiments._shell_points(p.d) / p.lam))
        points = sample_polytope_input(RngStream(3, 0), p)
        sample, calls = split_sampler(points)
        monkeypatch.setattr(experiments, "sample_polytope_input", sample)
        seen = []

        def evaluate(pts, inner):
            seen.append((len(pts), inner))
            return len(pts), {r0: r0 / 2, r0 / 2: r0 / 4}.get(inner, 0.0)

        metrics = experiments._sample_shell(RngStream(3, 0), p, evaluate,
                                            lambda result, n: {"result": result, "n_points": n})
        assert calls == [(r0, math.inf), (r0 / 2, r0), (0.0, r0 / 2)]
        assert [inner for _, inner in seen] == [r0, r0 / 2, 0.0]
        assert metrics == {"skipped": 0.0, "result": len(points), "n_points": len(points)}

    def test_a_cloud_without_a_result_is_skipped_before_the_inner_count(self, monkeypatch):
        # the whole cloud gives no result: the replication is skipped, and
        # neither measure nor the inner-count draw runs
        p = validate_params(2, 0, 2, 1e4)
        monkeypatch.setattr(experiments, "radial_tail", lambda *a: pytest.fail("counted"))
        measured = []
        metrics = experiments._sample_shell(RngStream(3, 0), p, lambda pts, inner: (None, 0.0),
                                            lambda result, n: measured.append(n))
        assert metrics == {"skipped": 1.0} and measured == []

    def test_point_below_active_paraboloid_is_rejected(self, monkeypatch):
        # hand-built d = 2 cloud: a shell whose festoon piece over v = 0 rises
        # above the shell's lowest unsampled height h0, and one inner point
        # between h0 and that piece; the shell lies outside r0 only at a
        # 1024-point shell
        p = validate_params(2, 0, 2, 1e4)
        r_lambda = critical_radius(p)
        r0 = float(radial_tail_inverse(p, 1024 / p.lam))
        h0 = r_lambda ** (p.beta - 1) * (r_lambda - r0)
        ring = 0.9 * math.pi * r_lambda ** (p.beta / 2)  # far side: makes the hull hold o
        shell_w = np.array([[-4.0, 1.0], [4.0, 1.0], [-1.5, 3.5], [ring, -5.0], [-ring, -5.0]])
        fest = extreme_points(shell_w)
        phi0 = float(phi_boundary_batch(fest, np.zeros((1, 1)))[0])
        assert phi0 > h0 + 0.5
        inner_w = np.array([0.0, (h0 + phi0) / 2])
        shell = inverse_transform(shell_w, p, r_lambda)
        inner = inverse_transform(inner_w[None], p, r_lambda)[0]
        assert np.linalg.norm(shell, axis=1).min() > r0 > np.linalg.norm(inner)

        w = transform_batch(shell, p.beta, r_lambda)
        fest, _, _ = windowed_festoon(w, 1.0)
        assert experiments._festoon_radius(w, fest, 1.0, p.beta, r_lambda) < np.linalg.norm(inner)
        whole_fest, _, _ = windowed_festoon(transform_batch(np.vstack([shell, inner]), p.beta,
                                                            r_lambda), 1.0)
        at_zero = [float(phi_boundary_batch(f, np.zeros((1, 1)))[0]) for f in (fest, whole_fest)]
        assert at_zero[1] < at_zero[0] - 0.1  # the inner point does move the festoon

        points = np.vstack([shell, inner])
        task = lambda: experiments._scaling_task(RngStream(1, 0), p, 1.0, 21)  # noqa: E731
        whole, _ = self.run_split(monkeypatch, task, points, shell_table(math.inf))
        got, calls = self.run_split(monkeypatch, task, points, shell_table(1024))
        assert len(calls) > 1 and got == whole
