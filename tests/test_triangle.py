import cmath
import math

import pytest

from parcelwalk.triangle import (
    ROW_CSV_HEADER,
    binomial_pmf,
    classical_row,
    gaussian_approx_row,
    next_classical_row,
    qtpt_amplitude,
    qtpt_row,
    row_csv,
    row_sup_error,
)

# Frozen from a brute-force evaluation with exact big-integer binomials.
SUP_ERROR_N25 = 1.436060e-03
SUP_ERROR_N100 = 1.9921869310776663e-04
SUP_ERROR_N400 = 2.492608e-05

# Independent evaluation of the amplitude phase at n=2, k=0:
# ((0 - 1)/2) * sqrt(1/4) * atan(sqrt(1/4)) = -atan(0.5)/4.
PHASE_N2_K0 = -0.11591190225020152


def test_classical_row_apex_and_small_rows():
    assert classical_row(0).values == [1]
    assert classical_row(4).values == [1, 4, 6, 4, 1]
    assert classical_row(10).values[5] == 252


def test_classical_row_sums_to_power_of_two():
    for n in (1, 7, 30, 67):
        assert sum(classical_row(n).values) == 2**n


def test_pascal_recurrence_exact():
    for n in range(1, 61):
        prev = classical_row(n - 1).values
        cur = classical_row(n).values
        for k in range(1, n):
            assert cur[k] == prev[k - 1] + prev[k]


def test_row_index_guards():
    with pytest.raises(ValueError):
        classical_row(-1)
    with pytest.raises(ValueError):
        classical_row(1001)
    with pytest.raises(ValueError):
        qtpt_row(0)
    with pytest.raises(ValueError):
        qtpt_amplitude(3, 4)
    with pytest.raises(ValueError):
        qtpt_amplitude(3, -1)


def test_amplitude_apex_convention():
    assert qtpt_amplitude(0, 0) == 1.0 + 0j


def test_amplitude_small_cases():
    a = qtpt_amplitude(1, 0)
    assert abs(a - 1 / math.sqrt(2)) <= 1e-15  # phase factor vanishes at n=1
    a = qtpt_amplitude(2, 1)
    assert abs(a - 1 / math.sqrt(2)) <= 1e-15  # k - n/2 = 0 kills the phase


def test_amplitude_n2_k0_modulus_and_phase():
    a = qtpt_amplitude(2, 0)
    assert abs(a) == pytest.approx(0.5, abs=1e-15)
    assert cmath.phase(a) == pytest.approx(PHASE_N2_K0, abs=1e-12)


def test_modulus_squared_matches_binomial_pmf():
    for n in (1, 2, 3, 5, 10, 40, 97):
        for k in range(n + 1):
            assert abs(abs(qtpt_amplitude(n, k)) ** 2 - binomial_pmf(n, k)) <= 1e-10


def test_phases_antisymmetric_about_row_center():
    # psi(n, n-k) is the conjugate of psi(n, k): equal modulus, negated phase.
    for n in (2, 5, 17, 100):
        row = qtpt_row(n).values
        for k in range(n + 1):
            assert abs(row[k] - row[n - k].conjugate()) <= 1e-12


def test_row_normalization():
    for n in (1, 2, 3, 10, 50, 200):
        total = sum(abs(a) ** 2 for a in qtpt_row(n).values)
        assert abs(total - 1.0) <= 1e-10


def test_row_moduli_small_cases():
    row = qtpt_row(1).values
    assert [pytest.approx(abs(a), abs=1e-15) for a in row] == [1 / math.sqrt(2)] * 2
    row = qtpt_row(2).values
    assert abs(row[0]) == pytest.approx(0.5, abs=1e-15)
    assert abs(row[1]) == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert abs(row[2]) == pytest.approx(0.5, abs=1e-15)


def test_gaussian_approx_row_values():
    vals = gaussian_approx_row(4)
    assert vals[2] == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-15)
    assert vals == list(reversed(vals))
    vals = gaussian_approx_row(100)
    assert vals.index(max(vals)) == 50


def test_row_sup_error_kinds_agree():
    assert abs(row_sup_error(20, "classical") - row_sup_error(20, "quantum")) <= 1e-12
    with pytest.raises(ValueError):
        row_sup_error(20, "fancy")


@pytest.mark.parametrize("kind", ["classical", "quantum"])
def test_row_sup_error_of_row_1_is_its_closed_form(kind):
    # Row 1 is (1/2, 1/2); its Gaussian row has 2*exp(-1/2)/sqrt(2*pi) at both entries.
    closed = 0.5 - 2.0 * math.exp(-0.5) / math.sqrt(2.0 * math.pi)
    assert closed == pytest.approx(0.016058550961713, abs=1e-15)
    assert row_sup_error(1, kind) == pytest.approx(closed, abs=1e-15)


def test_row_sup_error_frozen_values():
    assert row_sup_error(100, "classical") == pytest.approx(SUP_ERROR_N100, abs=1e-12)
    assert row_sup_error(25, "classical") == pytest.approx(SUP_ERROR_N25, abs=1e-8)
    assert row_sup_error(400, "classical") == pytest.approx(SUP_ERROR_N400, abs=1e-9)


def test_row_sup_error_strictly_decreasing():
    errors = [row_sup_error(n, "classical") for n in (25, 100, 400)]
    assert errors[0] > errors[1] > errors[2]


def test_row_csv_format():
    assert ROW_CSV_HEADER == {"classical": "n,k,count\n", "quantum": "n,k,re,im\n"}
    assert row_csv(classical_row(2)) == "2,0,1\n2,1,2\n2,2,1\n"
    assert row_csv(qtpt_row(1)) == "1,0,0.7071067811865476,0.0\n1,1,0.7071067811865476,0.0\n"


# Every row up to 300 (row 1 and each even row's middle have a zero imaginary
# part), and the largest rows on each side of a power of two.
ROW_CSV_NS = {*range(301), 511, 512, 999, 1000}


def test_row_csv_reads_back_each_rows_profile():
    # A line holds each number once: count / 2**n is the pmf and
    # abs(complex(re, im))**2 is |psi|**2, bit for bit.
    classical = classical_row(0)
    for n in range(max(ROW_CSV_NS) + 1):
        if n:
            classical = next_classical_row(classical)
        if n not in ROW_CSV_NS:
            continue
        lines = [line.split(",") for line in row_csv(classical).splitlines()]
        assert [(int(m), int(k)) for m, k, _ in lines] == [(n, k) for k in range(n + 1)]
        assert [int(count) for _, _, count in lines] == classical.values
        assert [(int(count) / 2**n).hex() for _, _, count in lines] == \
            [p.hex() for p in classical.probs], n
        if n:
            quantum = qtpt_row(n, classical)
            lines = [line.split(",") for line in row_csv(quantum).splitlines()]
            assert [(int(m), int(k)) for m, k, _, _ in lines] == [(n, k) for k in range(n + 1)]
            amplitudes = [complex(float(re), float(im)) for _, _, re, im in lines]
            assert [(a.real.hex(), a.imag.hex()) for a in amplitudes] == \
                [(a.real.hex(), a.imag.hex()) for a in quantum.values], n
            assert [(abs(a) ** 2).hex() for a in amplitudes] == \
                [p.hex() for p in quantum.probs], n
