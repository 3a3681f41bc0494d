import numpy as np
import pytest
from scipy.stats import norm

from ggp.errors import EmptyInput
from ggp.stats import bootstrap_median_ci, fit_line, ks_statistic, summary_stats
from ggp.sampling import RngStream


class TestKsStatistic:
    def test_sample_from_its_own_cdf(self):
        rng = np.random.default_rng(1)
        sample = rng.standard_normal(10**4)
        assert ks_statistic(sample, norm.cdf) < 0.02

    def test_constant_sample(self):
        assert ks_statistic(np.zeros(100), norm.cdf) >= 0.5

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            ks_statistic([], norm.cdf)


class TestSummaryStats:
    def test_standard_normal_sanity(self):
        rng = np.random.default_rng(2)
        st = summary_stats(rng.standard_normal(10**6))
        assert abs(st.mean) < 0.004
        assert abs(st.variance - 1.0) < 0.006
        assert abs(st.skewness) < 0.01
        assert abs(st.excess_kurtosis) < 0.02
        assert st.ks_normal < 0.002

    def test_single_observation(self):
        st = summary_stats([3.5])
        assert st.n == 1 and st.mean == 3.5
        assert np.isnan(st.variance)

    def test_variance_nonnegative_and_unbiased_form(self):
        st = summary_stats([1.0, 2.0, 3.0])
        assert st.variance == pytest.approx(1.0, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            summary_stats([])


class TestFits:
    def test_exact_line(self):
        x = np.arange(10.0)
        slope, intercept, r2 = fit_line(x, 3.0 * x - 2.0)
        assert slope == pytest.approx(3.0, rel=1e-12)
        assert intercept == pytest.approx(-2.0, rel=1e-10)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_bootstrap_ci_covers_median(self):
        rng = np.random.default_rng(3)
        hits = 0
        for k in range(50):
            sample = rng.standard_normal(200)
            med, lo, hi = bootstrap_median_ci(sample, RngStream(4, k).generator())
            assert lo <= med <= hi
            hits += lo <= 0.0 <= hi
        assert hits >= 42  # 95% nominal coverage, allow slack
