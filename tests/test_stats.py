import math

import numpy as np
import pytest
import scipy.stats

from parcelwalk.stats import (
    gaussian_fit,
    histogram_build,
    ks_one_sample,
    ks_two_sample,
    stats_report,
    std_normal_cdf,
)


def test_histogram_half_open_bin_rule():
    h = histogram_build([0.5], 2, (0.0, 1.0))
    assert list(h.counts) == [0, 1]


def test_histogram_top_edge_is_out_of_range():
    h = histogram_build([1.0], 2, (0.0, 1.0))
    assert list(h.counts) == [0, 0]
    assert h.n_out_of_range == 1 and h.total == 1


def test_histogram_conservation_with_outliers():
    h = histogram_build([-1.0, 0.5, 2.0], 4, (0.0, 1.0))
    assert h.counts.sum() + h.n_out_of_range == h.total == 3
    assert h.n_out_of_range == 2


def test_histogram_permutation_invariance():
    rng = np.random.default_rng(17)
    x = rng.uniform(0, 1, 500)
    h1 = histogram_build(x, 7, (0.0, 1.0))
    h2 = histogram_build(rng.permutation(x), 7, (0.0, 1.0))
    assert np.array_equal(h1.counts, h2.counts)


def test_histogram_uniform_counts_within_binomial_bound():
    x = np.random.default_rng(5).uniform(0, 1, 10_000)
    h = histogram_build(x, 10, (0.0, 1.0))
    assert h.n_out_of_range == 0
    # 4 sigma for Binomial(1e4, 0.1): 4 * sqrt(1e4 * 0.1 * 0.9) = 120
    assert np.abs(h.counts - 1000).max() <= 120


def test_histogram_guards():
    with pytest.raises(ValueError):
        histogram_build([], 4, (0.0, 1.0))
    with pytest.raises(ValueError):
        histogram_build([0.5], 0, (0.0, 1.0))
    with pytest.raises(ValueError):
        histogram_build([0.5], 4, (1.0, 1.0))


def test_histogram_densities_integrate_to_in_range_fraction():
    x = np.random.default_rng(6).uniform(0, 2, 1000)
    h = histogram_build(x, 8, (0.0, 1.0))
    widths = np.diff(h.edges)
    assert (h.densities() * widths).sum() == pytest.approx(h.counts.sum() / h.total)


def test_gaussian_fit_two_point():
    assert gaussian_fit([-1.0, 1.0]) == (0.0, 1.0)


def test_gaussian_fit_degenerate_sigma_zero():
    mu, sigma = gaussian_fit([1.0, 1.0, 1.0])
    assert mu == 1.0 and sigma == 0.0


def test_gaussian_fit_needs_two_samples():
    with pytest.raises(ValueError):
        gaussian_fit([1.0])


def test_gaussian_fit_affine_equivariance():
    rng = np.random.default_rng(30)
    x = rng.standard_normal(300)
    mu, sigma = gaussian_fit(x)
    a, b = -2.5, 0.7
    mu2, sigma2 = gaussian_fit(a * x + b)
    assert mu2 == pytest.approx(a * mu + b, abs=1e-12)
    assert sigma2 == pytest.approx(abs(a) * sigma, abs=1e-12)


def test_gaussian_fit_large_sample_bounds():
    x = np.random.default_rng(123).standard_normal(100_000)
    mu, sigma = gaussian_fit(x)
    assert abs(mu) <= 0.013          # 4 sigma on the mean
    assert 0.99 <= sigma <= 1.01     # 4 sigma on the scale


def test_ks_one_sample_level_and_scipy_agreement():
    x = np.random.default_rng(123).standard_normal(100_000)
    result = ks_one_sample(x, std_normal_cdf)
    assert result.passes(0.01)
    assert result.statistic == pytest.approx(scipy.stats.kstest(x, "norm").statistic,
                                             abs=1e-12)


def test_ks_one_sample_constant_samples():
    result = ks_one_sample(np.zeros(50), std_normal_cdf)
    assert result.statistic >= 0.5


def test_ks_threshold_values():
    result = ks_one_sample(np.random.default_rng(1).standard_normal(100_000),
                           std_normal_cdf)
    assert result.threshold_at(0.01) == pytest.approx(0.00515, abs=5e-6)
    # the asymptotic coefficients behind the thresholds
    assert result.threshold_at(0.05) * math.sqrt(100_000) == pytest.approx(1.358, abs=1e-3)
    assert result.threshold_at(0.01) * math.sqrt(100_000) == pytest.approx(1.628, abs=1e-3)


def test_ks_statistic_in_unit_interval():
    rng = np.random.default_rng(44)
    for _ in range(5):
        x = rng.uniform(-3, 3, 200)
        stat = ks_one_sample(x, std_normal_cdf).statistic
        assert 0.0 <= stat <= 1.0


def test_ks_statistic_dominates_any_coarse_probe():
    # the implementation evaluates the sup over all jump points, so probing
    # the CDF gap on any fixed grid can only see less
    x = np.random.default_rng(71).standard_normal(500)
    stat = ks_one_sample(x, std_normal_cdf).statistic
    xs = np.sort(x)
    for probe_count in (10, 50, 200):
        probes = np.linspace(-3, 3, probe_count)
        emp = np.searchsorted(xs, probes, side="right") / xs.size
        coarse = np.abs(emp - std_normal_cdf(probes)).max()
        assert coarse <= stat + 1e-15


def test_ks_sample_size_guards():
    with pytest.raises(ValueError):
        ks_one_sample(np.zeros(19), std_normal_cdf)
    with pytest.raises(ValueError):
        ks_two_sample(np.zeros(19), np.zeros(50))
    with pytest.raises(ValueError):
        ks_one_sample(np.zeros(30), std_normal_cdf).threshold_at(0.0)


def test_ks_two_sample_identical_and_disjoint():
    x = np.random.default_rng(2).uniform(0, 1, 40)
    assert ks_two_sample(x, x).statistic == 0.0
    assert ks_two_sample(x, x + 10.0).statistic == 1.0


def test_ks_two_sample_level_and_scipy_agreement():
    a = np.random.default_rng(21).standard_normal(10_000)
    b = np.random.default_rng(22).standard_normal(10_000)
    result = ks_two_sample(a, b)
    assert result.passes(0.01)
    ref = scipy.stats.ks_2samp(a, b, method="asymp").statistic
    assert result.statistic == pytest.approx(ref, abs=1e-12)


def test_stats_report_known_moments():
    report = stats_report(np.array([-1.0, 1.0] * 50), std_normal_cdf, alpha=0.05)
    assert report.mean == 0.0
    assert report.variance == 1.0
    assert report.skewness == 0.0
    assert report.excess_kurtosis == pytest.approx(-2.0)
    assert report.verdict in ("pass", "fail")
    assert (report.verdict == "pass") == (report.ks_statistic <= report.ks_threshold)
    assert set(report.to_dict()) == {"mean", "variance", "skewness", "excess_kurtosis",
                                     "ks_statistic", "ks_threshold", "verdict"}


def test_stats_report_passes_on_normal_data():
    x = np.random.default_rng(9).standard_normal(20_000)
    report = stats_report(x, std_normal_cdf, alpha=0.01)
    assert report.verdict == "pass"


@pytest.mark.parametrize("bad", ["all_nan", "one_nan", "inf"])
def test_ks_tests_reject_non_finite_samples(bad):
    x = np.random.default_rng(5).standard_normal(100)
    if bad == "all_nan":
        x[:] = np.nan
    else:
        x[17] = np.nan if bad == "one_nan" else np.inf
    with pytest.raises(ValueError):
        ks_one_sample(x, std_normal_cdf)
    with pytest.raises(ValueError):
        ks_two_sample(x, x.copy())
    with pytest.raises(ValueError):
        ks_two_sample(np.zeros(100), x)
