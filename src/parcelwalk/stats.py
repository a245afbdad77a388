"""Histograms, moments, and Kolmogorov-Smirnov tests.

The KS machinery uses the asymptotic thresholds c(alpha)/sqrt(n) with
c(alpha) = sqrt(-ln(alpha/2)/2) (c(0.05) = 1.358, c(0.01) = 1.628).  They
are accurate for n >= ~1e3.  ``fig3`` accepts as few as 100 trials, where
the one-sample threshold is conservative: its exact size at alpha = 0.01
is 0.0088 at n = 100.
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
    # pos[i] counts the samples below edge_i, so bin i holds pos[i + 1] - pos[i]:
    # half-open bins, with the top edge itself out of range.  A NaN sorts
    # last and stays out of range too.
    pos = np.searchsorted(np.sort(x), edges, side="left")
    counts = np.diff(pos).astype(np.int64)
    return Histogram(edges=edges, counts=counts, total=int(x.size),
                     n_out_of_range=int(x.size - (pos[-1] - pos[0])))


# Samples per chunk of std_normal_cdf's Python floats: a chunk's lists stay
# near 200 KiB, so the output array is the only thing that grows with n.
_ERF_CHUNK = 4096


def std_normal_cdf(x) -> np.ndarray:
    """CDF of N(0, 1), elementwise."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    # The scaling, the shift and the halving are the same correctly rounded
    # IEEE operations on the array as on each Python float; only erf needs libm.
    out = np.empty_like(arr)
    for lo in range(0, arr.size, _ERF_CHUNK):
        scaled = (arr[lo:lo + _ERF_CHUNK] / math.sqrt(2.0)).tolist()
        out[lo:lo + _ERF_CHUNK] = list(map(math.erf, scaled))
    out += 1.0
    out *= 0.5
    return out if np.ndim(x) else out[0]


# Samples per chunk of ks_one_sample's grid and gaps: each temporary stays at
# 256 KiB, and the sorted copy is freed once its CDF is taken, so no more
# than two arrays of the sample's size are alive at once.
_KS_CHUNK = 1 << 15


def _ks_coefficient(alpha: float) -> float:
    # alpha / 2 < 0.5 is alpha < 1; 0 < alpha / 2 also refuses 5e-324, whose half is 0.
    if not 0.0 < alpha / 2.0 < 0.5:
        raise ValueError(f"alpha must be in (0, 1) with alpha / 2 > 0, got {alpha}")
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
    del x
    # Each chunk's slice of the grid arange(n + 1) / n is computed from the
    # same integers, so the sup is the same bit for bit as over whole arrays;
    # np.maximum, unlike max, carries a NaN of the reference CDF through.
    stat = -math.inf
    for lo in range(0, n, _KS_CHUNK):
        hi = min(lo + _KS_CHUNK, n)
        grid, chunk = np.arange(lo, hi + 1) / n, ref[lo:hi]
        stat = np.maximum(stat, np.maximum((grid[1:] - chunk).max(), (chunk - grid[:-1]).max()))
    return KsResult(statistic=float(stat), effective_n=float(n))


def ks_two_sample(a, b) -> KsResult:
    """Sup gap between the empirical CDFs of two samples.

    Raises ``ValueError`` on a NaN or infinite sample.
    """
    xa = _sorted_finite(a)
    xb = _sorted_finite(b)
    n, m = xa.size, xb.size
    if n < 20 or m < 20:
        raise ValueError(f"two-sample KS needs >= 20 samples per side, got {n} and {m}")
    # The sup over the pooled points, taken over each sample's points in turn
    # with one gap array of that sample's size.
    stat = 0.0
    for points in (xa, xb):
        gap = np.searchsorted(xa, points, side="right") / n
        gap -= np.searchsorted(xb, points, side="right") / m
        stat = max(stat, float(np.abs(gap, out=gap).max()))
    return KsResult(statistic=stat, effective_n=n * m / (n + m))


@dataclass(frozen=True)
class StatsReport:
    """Shape moments: they depend on neither the sample's location nor its scale."""

    skewness: float
    excess_kurtosis: float


def stats_report(samples) -> StatsReport:
    """Population skewness and excess kurtosis of ``samples``.

    Raises ``ValueError`` on a NaN or infinite sample, one with no spread,
    or one whose mean overflows.
    """
    x = np.asarray(samples, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("moment samples must be finite")
    centered = x - x.mean()
    peak = float(np.abs(centered).max())
    if not 0.0 < peak < math.inf:
        raise ValueError(f"shape moments need a finite, nonzero spread, got {peak}")
    # Moments of the sample scaled into [-1, 1]: their powers neither
    # overflow nor underflow at any scale.
    centered /= peak
    # Each power multiplies the last in one buffer: numpy sends ** 3 and ** 4
    # to libm's pow, a hundred times slower than a multiplication.
    power = centered * centered
    s2 = float(power.mean())
    power *= centered
    skew = float(power.mean()) / s2**1.5
    power *= centered
    kurt = float(power.mean()) / s2**2 - 3.0
    return StatsReport(skewness=skew, excess_kurtosis=kurt)
