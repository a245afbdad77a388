"""Histograms, moments, Gaussian fits, and Kolmogorov-Smirnov tests.

The KS machinery uses the asymptotic thresholds c(alpha)/sqrt(n) with
c(alpha) = sqrt(-ln(alpha/2)/2); valid for n >= ~1e3, which is the regime
every distributional check here runs in (c(0.05) = 1.358, c(0.01) = 1.628).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Histogram:
    """Counts over half-open bins [edge_i, edge_{i+1}).

    ``total`` counts every input sample; samples outside the range are not
    binned but show up in ``n_out_of_range``, so
    ``sum(counts) + n_out_of_range == total`` always holds.
    """

    edges: np.ndarray
    counts: np.ndarray
    total: int
    n_out_of_range: int

    def densities(self) -> np.ndarray:
        """Per-bin density count / (total * width); integrates to <= 1."""
        widths = np.diff(self.edges)
        return self.counts / (self.total * widths)


def histogram_build(samples, n_bins: int, range_: tuple[float, float]) -> Histogram:
    """Histogram of ``samples`` over ``n_bins`` equal half-open bins in ``range_``."""
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("cannot histogram an empty sample")
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    lo, hi = float(range_[0]), float(range_[1])
    if not lo < hi:
        raise ValueError(f"range must satisfy lo < hi, got ({lo}, {hi})")
    edges = lo + (hi - lo) * np.arange(n_bins + 1) / n_bins
    # side='right' puts x == edge_i into bin i, giving half-open bins; the
    # top edge itself lands out of range.
    idx = np.searchsorted(edges, x, side="right") - 1
    in_range = (idx >= 0) & (idx < n_bins)
    counts = np.bincount(idx[in_range], minlength=n_bins).astype(np.int64)
    return Histogram(edges=edges, counts=counts, total=int(x.size),
                     n_out_of_range=int(x.size - in_range.sum()))


def gaussian_fit(samples) -> tuple[float, float]:
    """Sample mean and population (1/N) standard deviation.

    A zero-variance input returns sigma = 0.0; callers treat that as a
    degenerate fit.
    """
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        raise ValueError(f"need at least 2 samples to fit, got {x.size}")
    return float(x.mean()), float(x.std())


def std_normal_cdf(x) -> np.ndarray:
    """CDF of N(0, 1), elementwise."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in arr])
    return out if np.ndim(x) else out[0]


def _ks_coefficient(alpha: float) -> float:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return math.sqrt(-math.log(alpha / 2.0) / 2.0)


@dataclass(frozen=True)
class KsResult:
    """KS statistic plus the effective sample size its threshold scales with."""

    statistic: float
    effective_n: float

    def threshold_at(self, alpha: float) -> float:
        return _ks_coefficient(alpha) / math.sqrt(self.effective_n)

    def passes(self, alpha: float) -> bool:
        return self.statistic <= self.threshold_at(alpha)


def _sorted_finite(samples) -> np.ndarray:
    # Non-finite samples would otherwise slip through: two all-NaN samples
    # give a two-sample statistic of 0.0, and an inf passes either test.
    x = np.sort(np.asarray(samples, dtype=float))
    if not np.isfinite(x).all():
        raise ValueError("KS samples must be finite")
    return x


def ks_one_sample(samples, reference_cdf) -> KsResult:
    """Sup gap between the empirical CDF of ``samples`` and ``reference_cdf``.

    Raises ``ValueError`` on a NaN or infinite sample.
    """
    x = _sorted_finite(samples)
    n = x.size
    if n < 20:
        raise ValueError(f"one-sample KS needs >= 20 samples, got {n}")
    ref = np.asarray(reference_cdf(x), dtype=float)
    grid = np.arange(n + 1) / n
    d_plus = float((grid[1:] - ref).max())
    d_minus = float((ref - grid[:-1]).max())
    return KsResult(statistic=max(d_plus, d_minus), effective_n=float(n))


def ks_two_sample(a, b) -> KsResult:
    """Sup gap between the empirical CDFs of two samples.

    Raises ``ValueError`` on a NaN or infinite sample.
    """
    xa = _sorted_finite(a)
    xb = _sorted_finite(b)
    n, m = xa.size, xb.size
    if n < 20 or m < 20:
        raise ValueError(f"two-sample KS needs >= 20 samples per side, got {n} and {m}")
    pooled = np.concatenate([xa, xb])
    cdf_a = np.searchsorted(xa, pooled, side="right") / n
    cdf_b = np.searchsorted(xb, pooled, side="right") / m
    stat = float(np.abs(cdf_a - cdf_b).max())
    return KsResult(statistic=stat, effective_n=n * m / (n + m))


@dataclass(frozen=True)
class StatsReport:
    """Moments, a KS verdict, and the threshold it was judged against."""

    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float
    ks_statistic: float
    ks_threshold: float
    verdict: str  # "pass" | "fail"

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "variance": self.variance,
            "skewness": self.skewness,
            "excess_kurtosis": self.excess_kurtosis,
            "ks_statistic": self.ks_statistic,
            "ks_threshold": self.ks_threshold,
            "verdict": self.verdict,
        }


def stats_report(samples, reference_cdf, alpha: float) -> StatsReport:
    """Summary report: population moments plus a one-sample KS verdict."""
    x = np.asarray(samples, dtype=float)
    mean = float(x.mean())
    centered = x - mean
    m2 = float((centered**2).mean())
    m3 = float((centered**3).mean())
    m4 = float((centered**4).mean())
    skew = m3 / m2**1.5 if m2 > 0 else 0.0
    kurt = m4 / m2**2 - 3.0 if m2 > 0 else 0.0
    ks = ks_one_sample(x, reference_cdf)
    threshold = ks.threshold_at(alpha)
    return StatsReport(
        mean=mean,
        variance=m2,
        skewness=skew,
        excess_kurtosis=kurt,
        ks_statistic=ks.statistic,
        ks_threshold=threshold,
        verdict="pass" if ks.statistic <= threshold else "fail",
    )
