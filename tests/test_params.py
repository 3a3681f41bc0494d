import math

import numpy as np
import pytest
from scipy.integrate import quad

from ggp.errors import IntensityTooSmall, ValidationError
from ggp.params import (
    critical_exponent,
    critical_radius,
    gumbel_centering,
    normalization,
    sphere_surface_area,
    unit_ball_volume,
    validate_params,
)


def quad_z_total(d, alpha, beta):
    """Independent quadrature oracle for the full-space density integral."""
    radial, _ = quad(lambda r: r ** (d - 1 + alpha) * math.exp(-(r**beta) / beta), 0, np.inf)
    return sphere_surface_area(d) * radial


class TestValidation:
    def test_gaussian_case_accepted(self):
        p = validate_params(2, 0, 2, 1e5)
        assert (p.d, p.alpha, p.beta, p.lam) == (2, 0.0, 2.0, 1e5)

    def test_alpha_boundary_rejected(self):
        with pytest.raises(ValidationError) as exc:
            validate_params(2, -1, 2, 1e5)
        assert exc.value.field == "alpha"

    def test_beta_below_one_rejected(self):
        with pytest.raises(ValidationError) as exc:
            validate_params(3, 1, 0.5, 1e5)
        assert exc.value.field == "beta"

    def test_dimension_and_intensity(self):
        with pytest.raises(ValidationError) as exc:
            validate_params(1, 0, 2, 1e5)
        assert exc.value.field == "d"
        with pytest.raises(ValidationError) as exc:
            validate_params(2, 0, 2, 0.0)
        assert exc.value.field == "lambda"

    @pytest.mark.parametrize("args, field", [
        ((0, 0, 2), "d"), ((2, -1, 2), "alpha"), ((2, 0, 0.5), "beta"),
        ((2, True, 2), "alpha"), ((2, 0, "2"), "beta"),
    ])
    def test_normalization_names_the_field(self, args, field):
        with pytest.raises(ValidationError) as exc:
            normalization(*args)
        assert exc.value.field == field


class TestNormalization:
    def test_gaussian_constant(self):
        for d in (2, 3, 5):
            n = normalization(d, 0, 2)
            assert abs(n.c_star - (2 * math.pi) ** -0.5) < 1e-12
            assert abs(n.c_paper - n.c_star) < 1e-12

    def test_d2_alpha1_beta1_mismatch_flagged(self):
        n = normalization(2, 1, 1)
        assert abs(n.z_total - 4 * math.pi) < 1e-10
        assert abs(n.c_star - (4 * math.pi) ** -0.5) < 1e-12
        assert abs(n.c_paper - 0.5) < 1e-12

    def test_one_dimensional_density_constant(self):
        n = normalization(1, 0, 1)
        assert abs(n.c_paper - 0.5) < 1e-12
        assert abs(n.c_star - 0.5) < 1e-12

    def test_quadrature_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(8):
            d = int(rng.integers(2, 6))
            alpha = float(rng.uniform(-0.9, 3.0))
            beta = float(rng.uniform(1.0, 3.0))
            n = normalization(d, alpha, beta)
            assert n.z_total == pytest.approx(quad_z_total(d, alpha, beta), rel=1e-8)

    def test_kappa_values(self):
        assert abs(unit_ball_volume(0) - 1.0) < 1e-12
        assert abs(unit_ball_volume(1) - 2.0) < 1e-12
        assert abs(unit_ball_volume(2) - math.pi) < 1e-12
        assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3, rel=1e-12)
        assert unit_ball_volume(3) == pytest.approx(4.18879, abs=1e-5)

    def test_pushforward_mass(self):
        # lambda * phi integrates back to lambda when phi uses c_star
        rng = np.random.default_rng(2)
        for _ in range(5):
            d = int(rng.integers(2, 5))
            alpha = float(rng.uniform(-0.5, 2.0))
            beta = float(rng.uniform(1.0, 2.5))
            n = normalization(d, alpha, beta)
            lam = 10 ** rng.uniform(1, 6)
            mass = lam * n.c_star**d * quad_z_total(d, alpha, beta)
            assert mass == pytest.approx(lam, rel=1e-6)


class TestCriticalRadius:
    def test_gaussian_example(self):
        p = validate_params(2, 0, 2, 1e6)
        r = critical_radius(p)
        r2_expected = 2 * math.log(1e6) - math.log((2 * math.pi) ** 2 * 2 * math.log(1e6))
        assert r**2 == pytest.approx(r2_expected, rel=1e-12)
        assert r == pytest.approx(4.5427, abs=2e-4)

    def test_radius_identity(self):
        # exp(-R^beta/beta) * lambda * c^d == (beta log lambda)^(E/beta)
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            alpha = float(rng.uniform(-0.9, 2.0))
            beta = float(rng.uniform(1.0, 3.0))
            lam = 10 ** rng.uniform(3, 9)
            p = validate_params(d, alpha, beta, lam)
            n = normalization(d, alpha, beta)
            try:
                r = critical_radius(p)
            except IntensityTooSmall:
                continue
            lhs = math.exp(-(r**beta) / beta) * lam * n.c_star**d
            rhs = (beta * math.log(lam)) ** (critical_exponent(d, alpha, beta) / beta)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_tiny_intensity_rejected(self):
        with pytest.raises(IntensityTooSmall):
            critical_radius(validate_params(2, 0, 2, 1.05))

    def test_monotone_in_lambda(self):
        for (d, alpha, beta) in [(2, 0, 2), (2, 1, 1), (3, 0.5, 1.5)]:
            lams = np.logspace(2, 9, 100)
            values = [critical_radius(validate_params(d, alpha, beta, lam)) for lam in lams]
            assert np.all(np.diff(values) > 0)

    def test_gaussian_mode_agreement(self):
        # for the Gaussian law the closed-form constant gives the same radius
        p = validate_params(3, 0, 2, 1e5)
        bl = 2 * math.log(p.lam)
        c = normalization(3, 0, 2).c_paper
        r_paper = (bl + 3 * 2 * math.log(c) - critical_exponent(3, 0, 2) * math.log(bl)) ** 0.5
        assert critical_radius(p) == pytest.approx(r_paper, rel=1e-12)


class TestGumbelCentering:
    def test_laplace_case(self):
        # alpha=0, beta=1 is the two-sided exponential: a_n = log(n) - log 2
        a_n, scale = gumbel_centering(10**5, 0, 1)
        assert scale == pytest.approx(1.0, rel=1e-12)
        assert a_n == pytest.approx(math.log(10**5) - math.log(2), rel=1e-12)

    def test_gaussian_case_matches_classic_norming(self):
        n = 10**6
        a_n, scale = gumbel_centering(n, 0, 2)
        bl = 2 * math.log(n)
        classic = math.sqrt(bl) - (math.log(math.log(n)) + math.log(4 * math.pi)) / (
            2 * math.sqrt(bl)
        )
        assert scale == pytest.approx(math.sqrt(bl), rel=1e-12)
        assert a_n == pytest.approx(classic, rel=1e-12)

    def test_small_n_rejected(self):
        with pytest.raises(ValidationError) as exc:
            gumbel_centering(1, 0, 2)
        assert exc.value.field == "n"
