import cmath
import math

import numpy as np
import pytest

from parcelwalk import kernels
from parcelwalk.kernels import (
    KernelSpec,
    heat_kernel,
    heat_kernel_complex_time,
    schrodinger_kernel,
    wick_identity_residual,
)

SPEC = KernelSpec()  # D = 1/2, hbar = 1, m = 1

# Interior points for the finite-difference PDE checks; step sizes chosen so
# the O(h^2) truncation error dominates roundoff while staying below 1e-6.
FD_POINTS = [(x, t) for x in (-1.5, -0.4, 0.0, 0.7, 2.0) for t in (0.5, 1.0, 2.0)]


def test_kernel_spec_requires_positive_constants():
    with pytest.raises(ValueError):
        KernelSpec(diffusion_D=0.0)
    with pytest.raises(ValueError):
        KernelSpec(hbar=-1.0)
    with pytest.raises(ValueError):
        KernelSpec(mass_m=0.0)
    for name in ("diffusion_D", "hbar", "mass_m"):
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError):
                KernelSpec(**{name: value})


def test_heat_kernel_peak_value():
    assert heat_kernel(SPEC, 0.0, 1.0) == pytest.approx(1 / math.sqrt(2 * math.pi),
                                                        rel=1e-15)


def test_heat_kernel_even_in_x():
    for x in (0.3, 1.7, 4.0):
        assert heat_kernel(SPEC, x, 0.8) == heat_kernel(SPEC, -x, 0.8)


def test_heat_kernel_requires_positive_time():
    with pytest.raises(ValueError):
        heat_kernel(SPEC, 0.0, 0.0)
    with pytest.raises(ValueError):
        heat_kernel(SPEC, 0.0, -1.0)


def test_heat_kernel_normalized_by_quadrature():
    sigma = math.sqrt(2 * SPEC.diffusion_D * 1.0)
    xs = np.linspace(-10 * sigma, 10 * sigma, 20_001)
    ys = [heat_kernel(SPEC, float(x), 1.0) for x in xs]
    assert abs(np.trapezoid(ys, xs) - 1.0) <= 1e-8


def test_heat_kernel_solves_diffusion_equation():
    h = 1e-4
    for x, t in FD_POINTS:
        dt = (heat_kernel(SPEC, x, t + h) - heat_kernel(SPEC, x, t - h)) / (2 * h)
        dxx = (heat_kernel(SPEC, x + h, t) - 2 * heat_kernel(SPEC, x, t)
               + heat_kernel(SPEC, x - h, t)) / h**2
        assert abs(dt - SPEC.diffusion_D * dxx) <= 1e-6


def test_schrodinger_kernel_modulus_independent_of_x():
    for t in (1.0, -1.0, 0.3):
        expected = math.sqrt(SPEC.mass_m / (2 * math.pi * SPEC.hbar * abs(t)))
        for x in (0.0, 0.7, 3.0):
            assert abs(schrodinger_kernel(SPEC, x, t)) == pytest.approx(expected,
                                                                        rel=1e-12)


def test_schrodinger_kernel_peak_value():
    expected = cmath.sqrt(1 / (2j * math.pi))
    assert abs(schrodinger_kernel(SPEC, 0.0, 1.0) - expected) <= 1e-15


def test_schrodinger_kernel_even_in_x():
    for x in (0.4, 2.1):
        assert schrodinger_kernel(SPEC, x, 0.9) == schrodinger_kernel(SPEC, -x, 0.9)


def test_schrodinger_kernel_rejects_zero_time():
    with pytest.raises(ValueError):
        schrodinger_kernel(SPEC, 1.0, 0.0)


def test_schrodinger_kernel_solves_free_equation():
    h = 5e-5
    half = SPEC.hbar**2 / (2 * SPEC.mass_m)
    for x, t in FD_POINTS:
        dt = (schrodinger_kernel(SPEC, x, t + h)
              - schrodinger_kernel(SPEC, x, t - h)) / (2 * h)
        dxx = (schrodinger_kernel(SPEC, x + h, t) - 2 * schrodinger_kernel(SPEC, x, t)
               + schrodinger_kernel(SPEC, x - h, t)) / h**2
        assert abs(1j * dt + half * dxx) <= 1e-6


def test_wick_identity_single_point():
    gap = abs(heat_kernel_complex_time(SPEC, 0.0, 1j) - schrodinger_kernel(SPEC, 0.0, 1.0))
    assert gap <= 1e-15


def test_wick_identity_residual_on_grid():
    xs = np.linspace(-4.0, 4.0, 40)
    ts = np.linspace(0.1, 2.5, 25)
    grid = [(float(x), float(t)) for t in ts for x in xs]
    assert wick_identity_residual(SPEC, SPEC, grid) <= 1e-12


def test_wick_identity_rejects_mismatched_constants():
    with pytest.raises(ValueError):
        wick_identity_residual(KernelSpec(diffusion_D=1.0), KernelSpec(), [(0.0, 1.0)])
    # just outside the 1e-12 relative tolerance
    off = KernelSpec(diffusion_D=0.5 * (1.0 + 1.5e-12))
    with pytest.raises(ValueError, match="constants mismatch"):
        wick_identity_residual(off, SPEC, [(0.0, 1.0)])


def test_wick_identity_rejects_a_non_finite_dictionary():
    # hbar/(2m) overflows, and any D would match it: |D - inf| > 1e-12 * inf is False
    spec = KernelSpec(hbar=1e308, mass_m=1e-308)
    with pytest.raises(ValueError, match="not finite"):
        wick_identity_residual(SPEC, spec, [(0.0, 1.0)])


@pytest.mark.parametrize("bad_index", [0, 1, 2])
def test_nan_gap_makes_the_residual_nan(monkeypatch, bad_index):
    grid = [(0.0, 1.0), (0.5, 1.0), (1.0, 1.0)]
    real = kernels.schrodinger_kernel

    def planted(spec, x, t):
        return complex(math.nan, 0.0) if x == grid[bad_index][0] else real(spec, x, t)

    monkeypatch.setattr(kernels, "schrodinger_kernel", planted)
    assert math.isnan(wick_identity_residual(SPEC, SPEC, grid))


def test_wick_identity_rejects_nonpositive_times():
    with pytest.raises(ValueError):
        wick_identity_residual(SPEC, SPEC, [(0.0, -1.0)])
    with pytest.raises(ValueError, match="grid times must be positive"):
        wick_identity_residual(SPEC, SPEC, [(0.5, 1.0), (0.0, 0.0)])


def test_complex_time_kernel_matches_real_time_on_positive_axis():
    for x, t in FD_POINTS:
        gap = abs(heat_kernel_complex_time(SPEC, x, t + 0j) - heat_kernel(SPEC, x, t))
        assert gap <= 1e-15
