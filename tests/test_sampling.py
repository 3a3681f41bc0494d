import math
import warnings

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.special import gammaincc
from scipy.stats import chi2, ks_2samp, kstest

from ggp import experiments
from ggp.errors import ValidationError
from ggp.sampling import (
    RngStream,
    ScaledWindow,
    radial_tail,
    radial_tail_inverse,
    sample_direction,
    sample_polytope_input,
    sample_radius,
    sample_standardized_max,
)
from ggp.params import critical_radius, gumbel_centering, validate_params
from ggp.stats import gumbel_cdf, ks_statistic


def radial_cdf_oracle(d, alpha, beta):
    """Quadrature CDF of the radial density, independent of the sampler.

    In the variable t = r^beta / beta the integrand is t^(k-1) e^(-t) with
    k = (d + alpha)/beta; for k < 1 the extra substitution s = t^k absorbs
    the power singularity at zero. Either way the whole grid covers the
    region that carries mass.
    """
    k = (d + alpha) / beta
    t_max = 60.0 + 8.0 * k

    def to_t(x):
        return np.asarray(x, dtype=float) ** beta / beta

    if k >= 1.0:
        t_grid = np.linspace(0.0, t_max, 2**16)
        integrand = t_grid ** (k - 1.0) * np.exp(-t_grid)
        cdf = cumulative_trapezoid(integrand, t_grid, initial=0.0)
        cdf /= cdf[-1]
        return lambda x: np.interp(to_t(x), t_grid, cdf)
    s_grid = np.linspace(0.0, t_max**k, 2**16)
    integrand = np.exp(-(s_grid ** (1.0 / k)))
    cdf = cumulative_trapezoid(integrand, s_grid, initial=0.0)
    cdf /= cdf[-1]
    return lambda x: np.interp(to_t(x) ** k, s_grid, cdf)


class TestDeterminism:
    def test_bit_identical_streams(self):
        a = sample_radius(RngStream(7, 3).generator(), 3, 0.5, 1.5, size=1000)
        b = sample_radius(RngStream(7, 3).generator(), 3, 0.5, 1.5, size=1000)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = sample_radius(RngStream(7, 3).generator(), 3, 0.5, 1.5, size=100)
        b = sample_radius(RngStream(7, 4).generator(), 3, 0.5, 1.5, size=100)
        assert not np.array_equal(a, b)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError):
            RngStream(-1, 0)


class TestRadialLaw:
    def test_rayleigh_case(self):
        r = sample_radius(RngStream(1, 0).generator(), 2, 0, 2, size=10**5)
        ks = ks_statistic(r, lambda x: 1 - np.exp(-(x**2) / 2))
        assert ks < 0.01

    def test_exponential_case(self):
        r = sample_radius(RngStream(2, 0).generator(), 1, 0, 1, size=10**5)
        ks = ks_statistic(r, lambda x: 1 - np.exp(-x))
        assert ks < 0.01

    def test_generalized_case_vs_quadrature(self):
        r = sample_radius(RngStream(3, 0).generator(), 3, 0.5, 1.5, size=10**5)
        ks = ks_statistic(r, radial_cdf_oracle(3, 0.5, 1.5))
        assert ks < 0.01

    def test_random_triples_vs_quadrature(self):
        rng = np.random.default_rng(99)
        for k in range(20):
            d = int(rng.integers(1, 6))
            alpha = float(rng.uniform(-0.9, 3.0))
            beta = float(rng.uniform(1.0, 3.0))
            r = sample_radius(RngStream(10, k).generator(), d, alpha, beta, size=10**5)
            ks = ks_statistic(r, radial_cdf_oracle(d, alpha, beta))
            assert ks < 0.015, (d, alpha, beta, ks)


class TestDirections:
    def test_unit_norm(self):
        for d in (1, 2, 3, 6):
            u = sample_direction(RngStream(4, d).generator(), d, size=1000)
            assert np.max(np.abs(np.linalg.norm(u, axis=1) - 1.0)) < 1e-12

    def test_angular_uniformity_chi_square(self):
        u = sample_direction(RngStream(5, 0).generator(), 2, size=10**4)
        angles = np.mod(np.arctan2(u[:, 1], u[:, 0]), 2 * np.pi)
        counts, _ = np.histogram(angles, bins=36, range=(0, 2 * np.pi))
        expected = len(u) / 36
        stat = np.sum((counts - expected) ** 2 / expected)
        assert stat < chi2.ppf(0.99, df=35)

    def test_mean_direction_small(self):
        u = sample_direction(RngStream(6, 0).generator(), 3, size=10**5)
        assert np.linalg.norm(u.mean(axis=0)) < 0.02

    def test_covariance_isotropy(self):
        for d in (2, 3):
            u = sample_direction(RngStream(7, d).generator(), d, size=10**5)
            cov = (u.T @ u) / len(u)
            assert np.max(np.abs(cov - np.eye(d) / d)) < 0.05 / d


class TestPolytopeInput:
    def test_poisson_mean(self):
        counts = [
            len(sample_polytope_input(RngStream(8, k).generator(), validate_params(2, 0, 2, 100)))
            for k in range(10**4)
        ]
        assert 97 <= np.mean(counts) <= 103

    def test_gaussian_second_moment(self):
        cloud = sample_polytope_input(RngStream(9, 0).generator(), validate_params(2, 0, 2, 10**5))
        m2 = np.mean(np.sum(cloud**2, axis=1))
        assert abs(m2 - 2.0) < 0.1

    def test_empty_cloud_valid(self):
        empties = sum(
            len(sample_polytope_input(RngStream(10, k).generator(),
                                      validate_params(2, 0, 2, 0.01))) == 0
            for k in range(100)
        )
        assert empties >= 95


class TestRestrictedPolytopeInput:
    def test_unrestricted_path_draws_as_before(self):
        # count, gamma radii, normalized Gaussian directions: the historical draw order
        p = validate_params(3, 0.5, 1.5, 500.0)
        for k in range(5):
            g = RngStream(21, k).generator()
            n = int(g.poisson(p.lam))
            r = (p.beta * g.gamma((p.d + p.alpha) / p.beta, size=n)) ** (1.0 / p.beta)
            u = g.standard_normal((n, p.d))
            u = u / np.linalg.norm(u, axis=1, keepdims=True)
            got = sample_polytope_input(RngStream(21, k).generator(), p)
            np.testing.assert_array_equal(got, u * r[:, None])

    def test_radial_tail_against_quadrature(self):
        for d, alpha, beta in ((2, 0.0, 2.0), (3, -0.5, 1.0), (2, -0.5, 3.0)):
            p = validate_params(d, alpha, beta, 10.0)
            cdf = radial_cdf_oracle(d, alpha, beta)
            for r in (0.3, 1.0, 2.0, 3.5):
                assert radial_tail(p, r) == pytest.approx(1.0 - cdf(r), abs=1e-6)
            assert radial_tail(p, 0.0) == 1.0 and radial_tail(p, math.inf) == 0.0
            for q in (0.9, 0.1, 1e-3, 1e-6):
                assert radial_tail(p, radial_tail_inverse(p, q)) == pytest.approx(q, rel=1e-9)

    @pytest.mark.parametrize("d, alpha, beta", [
        (2, 0.0, 2.0), (3, -0.5, 1.0), (4, 1.0, 3.0), (2, -0.5, 3.0),
    ])
    def test_radii_follow_truncated_cdf(self, d, alpha, beta):
        p = validate_params(d, alpha, beta, 4000.0)
        cdf = radial_cdf_oracle(d, alpha, beta)
        r_lo, r_hi = float(radial_tail_inverse(p, 0.6)), float(radial_tail_inverse(p, 0.01))
        # an inner annulus, and the outer shell beyond the 99% radial quantile
        for r_min, r_max, streams in ((r_lo, r_hi, 2), (r_hi, math.inf, 60)):
            clouds = [sample_polytope_input(RngStream(31, k).generator(), p, r_min, r_max)
                      for k in range(streams)]
            r = np.linalg.norm(np.vstack(clouds), axis=1)
            assert np.all((r > r_min) & (r <= r_max))
            lo, hi = float(cdf(r_min)), 1.0 if math.isinf(r_max) else float(cdf(r_max))
            assert kstest(r, lambda x: (cdf(x) - lo) / (hi - lo)).pvalue > 1e-3
            mean = streams * p.lam * (hi - lo)
            assert abs(len(r) - mean) < 4.0 * math.sqrt(mean)

    def test_annulus_bounds_validated(self):
        p = validate_params(2, 0.0, 2.0, 100.0)
        for r_min, r_max in ((-1.0, 2.0), (2.0, 2.0), (3.0, 1.0)):
            with pytest.raises(ValidationError):
                sample_polytope_input(RngStream(1, 0).generator(), p, r_min, r_max)


class TestLimitProcess:
    """The limit-process window of the intensity runner and its mass under
    the limiting intensity e^h dv dh."""

    def test_compact_window_mass(self):
        # the runner's limit-mode cell masses, summed over a split window
        window = ScaledWindow(2.0, -1.0, 0.0)
        expected = math.pi * 4 * (1 - math.exp(-1))
        p = validate_params(3, 0.0, 2.0, 1e5)
        rho_edges = [0.0, 0.5, window.spatial_radius]
        h_edges = [window.h_min, -0.3, window.h_max]
        mass = experiments._cell_masses(p, critical_radius(p), rho_edges, h_edges, "limit").sum()
        assert mass == pytest.approx(expected, rel=1e-12)
        assert mass == pytest.approx(7.9438, abs=1e-3)

    def test_window_validation(self):
        with pytest.raises(ValidationError, match="window.spatial_radius"):
            ScaledWindow(0.0, -1.0, 0.0)
        with pytest.raises(ValidationError, match="window.h_min"):
            ScaledWindow(1.0, 1.0, 0.0)


def standardized_max_cdf(n, alpha, beta):
    """Exact CDF F^n of the standardized maximum, from the 1-d law directly.

    A draw is +-R with equal odds and R^beta / beta ~ Gamma((1+alpha)/beta),
    so with m = a_n + x / scale and q = Q(s, |m|^beta / beta) one draw has
    P(X <= m) = 1 - q/2 for m >= 0 and q/2 for m < 0.
    """
    a_n, scale = gumbel_centering(n, alpha, beta)
    s = (1.0 + alpha) / beta

    def cdf(x):
        m = a_n + np.asarray(x, dtype=float) / scale
        q = gammaincc(s, np.abs(m) ** beta / beta)
        return np.where(m >= 0, np.exp(n * np.log1p(-q / 2)), (q / 2) ** n)

    return cdf


def reference_standardized_max(g, n, alpha, beta, reps):
    """The n/2-draw sampler the inversion replaced: keep the largest of the
    Binomial(n, 1/2) positive-side gamma draws, or minus the smallest of n."""
    a_n, scale = gumbel_centering(n, alpha, beta)
    shape = (1.0 + alpha) / beta
    out = np.empty(reps)
    for j in range(reps):
        k = int(g.binomial(n, 0.5))
        if k == 0:
            m = -(beta * np.min(g.gamma(shape, size=n))) ** (1.0 / beta)
        else:
            m = (beta * np.max(g.gamma(shape, size=k))) ** (1.0 / beta)
        out[j] = scale * (m - a_n)
    return out


class FixedGenerator(np.random.Generator):
    """A generator whose binomial and uniform draws are pinned."""

    def __init__(self, k, u):
        super().__init__(np.random.PCG64(0))
        self.k, self.u = k, u

    def binomial(self, n, p, size=None):
        return self.k if size is None else np.full(size, self.k)

    def random(self, size=None):
        return self.u if size is None else np.full(size, self.u)


MAX_LAWS = [(0.0, 1.0), (1.0, 1.0), (0.5, 1.5), (-0.5, 3.0)]


class TestStandardizedMax:
    @pytest.mark.parametrize("alpha, beta", MAX_LAWS)
    @pytest.mark.parametrize("n", [2, 3, 5, 10**3, 10**5])
    def test_exact_law(self, n, alpha, beta):
        # n = 2 and 3 put 1/4 and 1/8 of the mass in the all-negative branch
        vals = sample_standardized_max(RngStream(17, n).generator(), n, alpha, beta, 20000)
        assert kstest(vals, standardized_max_cdf(n, alpha, beta)).pvalue > 1e-3

    @pytest.mark.parametrize("alpha, beta", MAX_LAWS)
    def test_matches_reference_sampler(self, alpha, beta):
        for n, reps in ((10, 2000), (10**3, 2000), (10**5, 300)):
            ref = reference_standardized_max(np.random.default_rng(18), n, alpha, beta, reps)
            new = sample_standardized_max(RngStream(19, n).generator(), n, alpha, beta, reps)
            assert ks_2samp(ref, new).pvalue > 1e-3, (n, alpha, beta)

    def test_uniform_endpoints_give_finite_values(self):
        n = 10
        for k in (0, 4):  # the all-negative branch and the maximum branch
            for u in (0.0, np.nextafter(1.0, 0.0)):
                g = FixedGenerator(k, u)
                assert math.isfinite(sample_standardized_max(g, n, 0.5, 1.5, 1)[0])

    # Block draws pinned bit for bit (float.hex), since every Gumbel record
    # is one: a block of four from default_rng(3), whose binomials are
    # 0, 0, 2, 1 at n = 2, so the all-negative branch runs for beta = 1 and != 1.
    PINNED = {
        (2, 0.0, 1.0): ["-0x1.94ec18dc17804p-5", "-0x1.229f12b1402ecp-2",
                        "0x1.2d97a135e28d6p+0", "0x1.647074f7ecd69p-3"],
        (2, 0.5, 1.5): ["-0x1.0cfd0cadc8adap-1", "-0x1.d6fa2b1327b56p-1",
                        "0x1.225a78db71572p+0", "0x1.1368fd21b461ap-4"],
        (2, -0.5, 3.0): ["0x1.4cba6b8f89c7ep-6", "-0x1.934ad97e98efcp-4",
                         "0x1.03acdf6d065cap+0", "0x1.39ce852c6b16fp-4"],
        (10**5, 0.0, 1.0): ["0x1.00bc3e115cc00p-4", "0x1.a6fcdded879a0p-2",
                            "0x1.65aff7b2f4c00p-3", "0x1.451f2da8b4000p-1"],
        (10**5, 0.0, 2.0): ["-0x1.a0cc598e0b4efp-8", "0x1.75a0e130b1689p-2",
                            "0x1.ce93f51755d79p-4", "0x1.319e359fdb14ep-1"],
    }

    @pytest.mark.parametrize("n, alpha, beta", list(PINNED))
    def test_scalar_draws_are_pinned(self, n, alpha, beta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            block = sample_standardized_max(np.random.default_rng(3), n, alpha, beta, size=4)
        assert [x.hex() for x in block.tolist()] == self.PINNED[n, alpha, beta]

    @pytest.mark.parametrize("alpha, beta, pinned", [(0.0, 1.0, "-0x1.8dbc239b0b862p+2"),
                                                     (0.5, 1.5, "-0x1.35643c33c5c19p+3")])
    def test_zero_uniform_is_pinned_without_warning(self, alpha, beta, pinned):
        # u = 0 inverts to t = 0 in both branches, so m = 0 and the value is -scale * a_n
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (0, 1, 700):
                g = FixedGenerator(k, 0.0)
                assert sample_standardized_max(g, 1000, alpha, beta, 1)[0].hex() == pinned
                block = sample_standardized_max(g, 1000, alpha, beta, size=3)
                assert [x.hex() for x in block.tolist()] == [pinned] * 3

    @pytest.mark.parametrize("alpha, beta", MAX_LAWS)
    @pytest.mark.parametrize("n", [3, 10**5])
    def test_blocks_match_one_draw_per_stream(self, n, alpha, beta):
        # blocks of experiments.GUMBEL_BLOCK from streams 0, 1, ..., as
        # run_gumbel draws them, against one draw from each of as many
        # streams; n = 3 puts 1/8 of the mass in the all-negative branch
        count, block = 20000, experiments.GUMBEL_BLOCK
        blocks = np.concatenate([sample_standardized_max(RngStream(23, b).generator(), n, alpha,
                                                         beta, block)
                                 for b in range(count // block)])
        singles = [sample_standardized_max(RngStream(24, sid).generator(), n, alpha, beta, 1)[0]
                   for sid in range(count)]
        assert len(blocks) == len(singles) == count
        assert ks_2samp(blocks, singles).pvalue > 1e-3

    def test_small_n_rejected(self):
        with pytest.raises(ValidationError):
            sample_standardized_max(RngStream(15, 0).generator(), 1, 0, 1, 1)

    @pytest.mark.parametrize("alpha, beta, field", [(-1, 2, "alpha"), (0, 0.5, "beta")])
    def test_exponent_out_of_range_names_its_field(self, alpha, beta, field):
        with pytest.raises(ValidationError) as exc:
            sample_standardized_max(RngStream(15, 0).generator(), 1000, alpha, beta, 1)
        assert exc.value.field == field

    def test_laplace_matches_gumbel_at_moderate_scale(self):
        vals = sample_standardized_max(RngStream(16, 0).generator(), 10**4, 0, 1, 2000)
        assert ks_statistic(vals, gumbel_cdf) < 0.06
