"""Rows of the binomial triangle, classical and complex-amplitude, with Gaussian-limit errors.

Classical rows are exact big-integer binomials.  The complex rows carry
amplitudes whose squared moduli reproduce the binomial probabilities, so
every distributional statement about the classical triangle transfers
verbatim to the amplitude triangle.

A pass over rows 0..N builds each row once, with its profile: Pascal's
rule (:func:`next_classical_row`, no ``math.comb``) and one division by
``2**n`` per count, then :func:`qtpt_row`'s amplitudes from that pmf and
one squared modulus each.  Every value is bit-identical to the per-entry
functions :func:`binomial_pmf` and :func:`qtpt_amplitude`.  The module is
pure Python and never imports numpy.
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
    probs: list  # the row's profile: C(n, k) / 2**n, or |psi_nk|**2


def _check_row_index(n: int, minimum: int = 0) -> None:
    if not isinstance(n, int) or not minimum <= n <= MAX_ROW:
        raise ValueError(f"row index must be an integer in [{minimum}, {MAX_ROW}], got {n}")


def _classical(n: int, counts: list[int]) -> TriangleRow:
    # The pmf C(n, k) / 2**n: exact big-integer division, rounded once to float.
    scale = 1 << n
    return TriangleRow(n, counts, "classical", [c / scale for c in counts])


def classical_row(n: int) -> TriangleRow:
    """Exact binomial coefficients C(n, 0..n); Python ints, no overflow."""
    _check_row_index(n)
    return _classical(n, [math.comb(n, k) for k in range(n + 1)])


def next_classical_row(row: TriangleRow) -> TriangleRow:
    """Classical row n+1 from row n by big-integer Pascal addition.

    Equal to ``classical_row(row.n + 1)``, at one addition per entry instead
    of one ``math.comb`` call.
    """
    if row.kind != "classical":
        raise ValueError(f"Pascal addition needs a classical row, got {row.kind!r}")
    _check_row_index(row.n + 1)
    values = row.values
    return _classical(row.n + 1, [1, *map(operator.add, values, values[1:]), 1])


def binomial_pmf(n: int, k: int) -> float:
    """C(n, k) / 2**n via exact big-integer division, rounded once to float."""
    return _classical(n, [math.comb(n, k)]).probs[0]


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


def qtpt_row(n: int, classical: TriangleRow | None = None) -> TriangleRow:
    """All n+1 amplitudes of row n, from the pmf of classical row n; ``probs`` sum to 1.

    ``classical`` is that row when the caller already holds it; otherwise it
    is built.  Each amplitude equals ``qtpt_amplitude(n, k)`` bit for bit.
    """
    _check_row_index(n, minimum=1)
    if classical is None:
        classical = classical_row(n)
    elif classical.kind != "classical" or classical.n != n:
        raise ValueError(f"row {n} needs classical row {n}, got {classical.kind} {classical.n}")
    values = [_amplitude(n, k, p) for k, p in enumerate(classical.probs)]
    return TriangleRow(n, values, "quantum", [abs(a) ** 2 for a in values])


def gaussian_approx_row(n: int) -> list[float]:
    """Gaussian limit of the row profile: mean n/2, variance n/4."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    var = n / 4.0
    norm = 1.0 / math.sqrt(2.0 * math.pi * var)
    return [norm * math.exp(-((k - n / 2.0) ** 2) / (2.0 * var)) for k in range(n + 1)]


def sup_error(probs: list[float], gauss: list[float]) -> float:
    """Sup over k of |probs[k] - gauss[k]|: a row profile against its Gaussian row."""
    return max(abs(p - g) for p, g in zip(probs, gauss, strict=True))


def row_sup_error(n: int, kind: str) -> float:
    """:func:`sup_error` of row n's normalized profile.

    ``kind='classical'`` uses the exact binomial pmf, ``kind='quantum'`` the
    squared amplitude moduli; the two agree to roundoff.
    """
    _check_row_index(n, minimum=1)
    if kind == "classical":
        row = classical_row(n)
    elif kind == "quantum":
        row = qtpt_row(n)
    else:
        raise ValueError(f"kind must be 'classical' or 'quantum', got {kind!r}")
    return sup_error(row.probs, gaussian_approx_row(n))


# The header of each kind's table of rows; ``row_csv`` writes its lines.
ROW_CSV_HEADER = {"classical": "n,k,count,pmf\n", "quantum": "n,k,re,im,modulus2\n"}


def row_csv(row: TriangleRow) -> str:
    """One row's lines of its kind's table: n,k,count,pmf or n,k,re,im,modulus2.

    There is no header (see ``ROW_CSV_HEADER``).  Each value is written as
    ``str`` of the count and ``repr`` of a float.  An entry past the middle
    that equals its mirror entry ``n - k`` (for an amplitude: the mirror's
    conjugate) reuses that entry's text, with the sign of the imaginary part
    flipped; the equality is checked per entry, and an entry with a zero
    component is formatted on its own, since 0.0 == -0.0 while their texts
    differ.
    """
    n, values, probs = row.n, row.values, row.probs
    last = len(values) - 1
    fields = []
    lines = []
    if row.kind == "classical":
        for k, (c, p) in enumerate(zip(values, probs)):
            j = last - k
            if j < k and c and p and c == values[j] and p == probs[j]:
                text = fields[j]
            else:
                text = f"{c},{p!r}"
            fields.append(text)
            lines.append(f"{n},{k},{text}")
        return "\n".join(lines) + "\n"
    for k, (a, p) in enumerate(zip(values, probs)):
        j = last - k
        re, im = a.real, a.imag
        if (j < k and re and im and p and re == values[j].real and im == -values[j].imag
                and p == probs[j]):
            re_text, im_text, p_text = fields[j]
            im_text = im_text[1:] if im_text[0] == "-" else "-" + im_text
        else:
            re_text, im_text, p_text = repr(re), repr(im), repr(p)
        fields.append((re_text, im_text, p_text))
        lines.append(f"{n},{k},{re_text},{im_text},{p_text}")
    return "\n".join(lines) + "\n"
