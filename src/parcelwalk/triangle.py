"""Rows of the binomial triangle, classical and complex-amplitude, with Gaussian-limit errors.

Classical rows are exact big-integer binomials.  The complex rows carry
amplitudes whose squared moduli reproduce the binomial probabilities, so
every distributional statement about the classical triangle transfers
verbatim to the amplitude triangle.

A pass over rows 0..N builds each row once: :func:`next_classical_row`
adds the previous row to itself shifted (Pascal's rule, no ``math.comb``),
and :func:`qtpt_row` takes that row's counts, so the pmf is
``C(n, k) / 2**n`` from the counts already held.  Every value is
bit-identical to the per-entry functions :func:`binomial_pmf` and
:func:`qtpt_amplitude`.  The module is pure Python and never imports numpy.
"""
from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

MAX_ROW = 1000


@dataclass(frozen=True)
class TriangleRow:
    """One row: ``values[k]`` is C(n, k) (classical) or the amplitude psi_nk (quantum)."""

    n: int
    values: list
    kind: str  # "classical" | "quantum"


def _check_row_index(n: int, minimum: int = 0) -> None:
    if not isinstance(n, int) or not minimum <= n <= MAX_ROW:
        raise ValueError(f"row index must be an integer in [{minimum}, {MAX_ROW}], got {n}")


def classical_row(n: int) -> TriangleRow:
    """Exact binomial coefficients C(n, 0..n); Python ints, no overflow."""
    _check_row_index(n)
    return TriangleRow(n, [math.comb(n, k) for k in range(n + 1)], "classical")


def next_classical_row(row: TriangleRow) -> TriangleRow:
    """Classical row n+1 from row n by big-integer Pascal addition.

    Equal to ``classical_row(row.n + 1)``, at one addition per entry instead
    of one ``math.comb`` call.
    """
    if row.kind != "classical":
        raise ValueError(f"Pascal addition needs a classical row, got {row.kind!r}")
    _check_row_index(row.n + 1)
    values = row.values
    return TriangleRow(row.n + 1, [1, *map(operator.add, values, values[1:]), 1], "classical")


def binomial_pmf(n: int, k: int) -> float:
    """C(n, k) / 2**n via exact big-integer division, rounded once to float."""
    return math.comb(n, k) / (1 << n)


def _amplitude_phase(n: int, k: int) -> float:
    # Single home for the adopted reading of the phase: the offset (k - n/2)
    # is divided by n, and both square-root factors use (n - 1)/4.  Swap here
    # if the divisor convention ever needs to change; the squared modulus is
    # independent of this choice.
    r = math.sqrt((n - 1) / 4.0)
    return ((k - n / 2.0) / n) * r * math.atan(r)


def _amplitude(n: int, k: int, pmf: float) -> complex:
    return math.sqrt(pmf) * cmath.exp(1j * _amplitude_phase(n, k))


def qtpt_amplitude(n: int, k: int) -> complex:
    """Amplitude sqrt(C(n,k)) * 2**(-n/2) * exp(i * phase(n, k)).

    The squared modulus is the binomial probability C(n,k) * 2**(-n).
    n = 0 returns 1 by convention (the apex carries total probability 1;
    the phase term is 0/0 there).
    """
    _check_row_index(n)
    if not 0 <= k <= n:
        raise ValueError(f"k must be in [0, {n}], got {k}")
    if n == 0:
        return complex(1.0)
    return _amplitude(n, k, binomial_pmf(n, k))


def qtpt_row(n: int, counts: list[int] | None = None) -> TriangleRow:
    """All n+1 amplitudes of row n; squared moduli sum to 1.

    ``counts`` are C(n, 0..n), the values of classical row n, when the caller
    already holds them; otherwise they are computed.  Each amplitude equals
    ``qtpt_amplitude(n, k)`` bit for bit.
    """
    _check_row_index(n, minimum=1)
    if counts is None:
        counts = classical_row(n).values
    elif len(counts) != n + 1:
        raise ValueError(f"row {n} needs {n + 1} counts, got {len(counts)}")
    scale = 1 << n
    return TriangleRow(n, [_amplitude(n, k, c / scale) for k, c in enumerate(counts)],
                       "quantum")


def gaussian_approx_row(n: int) -> list[float]:
    """Gaussian limit of the row profile: mean n/2, variance n/4."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    var = n / 4.0
    norm = 1.0 / math.sqrt(2.0 * math.pi * var)
    return [norm * math.exp(-((k - n / 2.0) ** 2) / (2.0 * var)) for k in range(n + 1)]


def sup_error(probs: list[float]) -> float:
    """Sup over k of |probs[k] - gaussian[k]| for a row profile p(0..n), n >= 1."""
    gauss = gaussian_approx_row(len(probs) - 1)
    return max(abs(p - g) for p, g in zip(probs, gauss))


def row_sup_error(n: int, kind: str) -> float:
    """:func:`sup_error` of row n's normalized profile.

    ``kind='classical'`` uses the exact binomial pmf, ``kind='quantum'`` the
    squared amplitude moduli; the two agree to roundoff.
    """
    _check_row_index(n, minimum=1)
    if kind == "classical":
        probs = [binomial_pmf(n, k) for k in range(n + 1)]
    elif kind == "quantum":
        probs = [abs(a) ** 2 for a in qtpt_row(n).values]
    else:
        raise ValueError(f"kind must be 'classical' or 'quantum', got {kind!r}")
    return sup_error(probs)


def row_csv(row: TriangleRow) -> str:
    """CSV text for one row: k,count,pmf (classical) or k,re,im,modulus2 (quantum)."""
    if row.kind == "classical":
        lines = ["k,count,pmf"]
        for k, c in enumerate(row.values):
            lines.append(f"{k},{c},{c / (1 << row.n)!r}")
    else:
        lines = ["k,re,im,modulus2"]
        for k, a in enumerate(row.values):
            lines.append(f"{k},{a.real!r},{a.imag!r},{abs(a) ** 2!r}")
    return "\n".join(lines) + "\n"
