import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from parcelwalk import stats
from parcelwalk.stats import (
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
    # one bin: the bottom edge and the inside are in it, the top edge is not
    h = histogram_build([0.0, 0.5, 1.0], 1, (0.0, 1.0))
    assert list(h.counts) == [2]
    assert h.n_out_of_range == 1 and h.total == 3


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


def old_histogram_counts(x, edges):
    """The counts and out-of-range count of the searchsorted-into-edges and bincount formula."""
    n_bins = len(edges) - 1
    idx = np.searchsorted(edges, x, side="right") - 1
    in_range = (idx >= 0) & (idx < n_bins)
    return np.bincount(idx[in_range], minlength=n_bins), int(x.size - in_range.sum())


def test_histogram_counts_match_the_bincount_formula_on_edges_and_outliers():
    rng = np.random.default_rng(23)
    for case in range(300):
        n_bins = int(rng.integers(1, 40))
        lo = float(rng.uniform(-3.0, 0.0)) if case % 3 else 0.0
        hi = lo + float(rng.uniform(0.1, 5.0))
        edges = lo + (hi - lo) * np.arange(n_bins + 1) / n_bins
        # every edge (the top one included), both zeros, out-of-range and
        # non-finite values, and draws inside and around the range
        special = np.concatenate([edges, [0.0, -0.0, lo - 1.0, hi + 1.0, np.inf, -np.inf,
                                          np.nan, np.nextafter(hi, -np.inf)]])
        x = np.concatenate([rng.choice(special, size=int(rng.integers(0, 30))),
                            rng.uniform(lo - 1.0, hi + 1.0, size=int(rng.integers(1, 200)))])
        h = histogram_build(x, n_bins, (lo, hi))
        counts, out_of_range = old_histogram_counts(x, h.edges)
        assert np.array_equal(h.edges, edges)
        assert h.counts.tolist() == counts.tolist()
        assert h.n_out_of_range == out_of_range


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


@pytest.mark.parametrize("scale", [1e-60, 1e-80, 1e-160, 1e-200, 1e300])
def test_report_shape_moments_do_not_depend_on_a_tiny_scale(scale):
    x = np.random.default_rng(1).standard_normal(500)
    unit = stats_report(x)
    scaled = stats_report(x * scale)
    assert scaled.skewness == pytest.approx(unit.skewness, rel=1e-12)
    assert scaled.excess_kurtosis == pytest.approx(unit.excess_kurtosis, rel=1e-12)


def test_ks_one_sample_level_and_scipy_agreement():
    x = np.random.default_rng(123).standard_normal(100_000)
    result = ks_one_sample(x, std_normal_cdf)
    assert result.passes(0.01)
    assert result.statistic == pytest.approx(scipy.stats.kstest(x, "norm").statistic,
                                             abs=1e-12)


def whole_array_ks_statistic(x, reference_cdf):
    """The one-sample sup over whole arrays, the reference for the chunked one."""
    x = np.sort(x)
    n = x.size
    ref = np.asarray(reference_cdf(x), dtype=float)
    grid = np.arange(n + 1) / n
    return max(float((grid[1:] - ref).max()), float((ref - grid[:-1]).max()))


@pytest.mark.parametrize("n", [20, 21, 27, 28, 29, 100, 343])
def test_ks_one_sample_in_chunks_equals_the_whole_array_sup(monkeypatch, n):
    monkeypatch.setattr(stats, "_KS_CHUNK", 7)
    rng = np.random.default_rng(n)
    for x in (rng.standard_normal(n), 1.3 * rng.standard_normal(n) + 0.2,
              np.abs(rng.standard_normal(n))):
        assert (ks_one_sample(x, std_normal_cdf).statistic
                == whole_array_ks_statistic(x, std_normal_cdf))
    # a NaN anywhere in the reference CDF, in any chunk, makes the statistic NaN
    for at in (0, n // 2, n - 1):
        def nan_cdf(v):
            out = std_normal_cdf(v)
            out[at] = np.nan
            return out
        assert math.isnan(ks_one_sample(x, nan_cdf).statistic)
        assert math.isnan(whole_array_ks_statistic(x, nan_cdf))


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
    for alpha in (0.0, 5e-324, 1.0, math.nan):
        with pytest.raises(ValueError, match="alpha"):
            result.threshold_at(alpha)


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
    report = stats_report(np.array([-1.0, 1.0] * 50) + 3.0)
    assert asdict(report) == {"skewness": 0.0, "excess_kurtosis": -2.0}
    skewed = stats_report([0.0, 0.0, 0.0, 4.0])
    assert skewed.skewness == pytest.approx(2 / math.sqrt(3), rel=1e-15)
    assert skewed.excess_kurtosis == pytest.approx(7 / 3 - 3, rel=1e-15)


# A sample with no finite spread has no shape moments; refusing it beats
# reading a skewness of 0.0 or NaN, and it raises before any numpy warning.
@pytest.mark.parametrize("bad", ["constant", "inf", "nan"])
def test_stats_report_refuses_a_sample_with_no_finite_spread(bad):
    x = np.full(100, 2.5)
    if bad != "constant":
        x[17] = np.inf if bad == "inf" else np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            stats_report(x)


def test_stats_report_refuses_a_sample_whose_mean_overflows():
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="spread, got inf"):
        stats_report(np.linspace(1e308, 1.5e308, 100))


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


CDF_SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 38.0, -38.0,
                      1e300, -1e300]

# Sizes on each side of a chunk boundary of the CDF's erf loop, and several chunks.
CHUNK_SIZES = [stats._ERF_CHUNK - 1, stats._ERF_CHUNK, stats._ERF_CHUNK + 1,
               3 * stats._ERF_CHUNK + 7]


def chunk_sample(size: int) -> np.ndarray:
    x = 4.0 * np.random.default_rng(size).standard_normal(size)
    x[::97] = np.resize(CDF_SPECIAL_VALUES, x[::97].size)
    return x


# The parent's formula iterated numpy scalars; iterating Python floats must
# not move a bit, signed zeros and the saturated tails included.
@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.integers(1, 30),
              elements=st.floats(allow_nan=False) | st.sampled_from(CDF_SPECIAL_VALUES)))
@example(chunk_sample(CHUNK_SIZES[0]))
@example(chunk_sample(CHUNK_SIZES[1]))
@example(chunk_sample(CHUNK_SIZES[2]))
@example(chunk_sample(CHUNK_SIZES[3]))
def test_std_normal_cdf_matches_the_numpy_scalar_formula(x):
    expected = [0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x]
    assert [v.hex() for v in std_normal_cdf(x).tolist()] == [v.hex() for v in expected]
    assert std_normal_cdf(x[0]).hex() == expected[0].hex()


def pooled_ks_statistic(a, b) -> float:
    """The two-sample statistic as the sup over the concatenated sorted samples."""
    xa, xb = np.sort(a), np.sort(b)
    pooled = np.concatenate([xa, xb])
    cdf_a = np.searchsorted(xa, pooled, side="right") / xa.size
    cdf_b = np.searchsorted(xb, pooled, side="right") / xb.size
    return float(np.abs(cdf_a - cdf_b).max())


# The two-sample KS has no chunk of its own; it runs at the CDF's sizes, with
# equal and unequal sides.  Rounded to a 0.05 grid, the samples tie within
# and across each other.
@pytest.mark.parametrize("n, m", [(CHUNK_SIZES[0], CHUNK_SIZES[0]), (CHUNK_SIZES[1], 20),
                                  (CHUNK_SIZES[2], CHUNK_SIZES[3]), (CHUNK_SIZES[3], 997)])
@pytest.mark.parametrize("ties", [False, True])
def test_ks_two_sample_equals_the_pooled_formula(n, m, ties):
    rng = np.random.default_rng(n + m)
    a = rng.standard_normal(n)
    b = 1.1 * rng.standard_normal(m) + 0.02
    if ties:
        a, b = np.round(a * 20) / 20, np.round(b * 20) / 20
    result = ks_two_sample(a, b)
    assert result.statistic == pooled_ks_statistic(a, b)
    assert ks_two_sample(b, a).statistic == result.statistic
    assert result.effective_n == n * m / (n + m)
