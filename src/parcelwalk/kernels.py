"""Closed-form diffusion and free-particle propagators and the imaginary-time identity.

With the dictionary D = hbar/(2m), the diffusion kernel continued to
imaginary time i*t coincides with the free-particle propagator; the
residual of that identity is what :func:`wick_identity_residual` measures.
All complex square roots take the principal branch, so both sides of the
identity are branch-consistent.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class KernelSpec:
    """Physical constants: diffusion coefficient, hbar, and particle mass."""

    diffusion_D: float = 0.5
    hbar: float = 1.0
    mass_m: float = 1.0

    def __post_init__(self) -> None:
        for name in ("diffusion_D", "hbar", "mass_m"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")


def heat_kernel(spec: KernelSpec, x: float, t: float) -> float:
    """Gaussian fundamental solution (4 pi D t)**(-1/2) exp(-x**2 / (4 D t))."""
    if not t > 0:
        raise ValueError(f"heat kernel needs t > 0, got {t}")
    d = spec.diffusion_D
    return math.exp(-x * x / (4.0 * d * t)) / math.sqrt(4.0 * math.pi * d * t)


def heat_kernel_complex_time(spec: KernelSpec, x: float, tau: complex) -> complex:
    """Analytic continuation of the heat kernel to complex time (principal branch)."""
    if tau == 0:
        raise ValueError("complex-time heat kernel needs tau != 0")
    d = spec.diffusion_D
    return cmath.exp(-x * x / (4.0 * d * tau)) / cmath.sqrt(4.0 * math.pi * d * tau)


def schrodinger_kernel(spec: KernelSpec, x: float, t: float) -> complex:
    """Free propagator (m / (2 pi i hbar t))**(1/2) exp(i m x**2 / (2 hbar t))."""
    if t == 0:
        raise ValueError("free propagator needs t != 0")
    hbar, m = spec.hbar, spec.mass_m
    return cmath.sqrt(m / (2.0 * math.pi * 1j * hbar * t)) * cmath.exp(
        1j * m * x * x / (2.0 * hbar * t)
    )


def wick_identity_residual(spec_heat: KernelSpec, spec_schrod: KernelSpec, grid) -> float:
    """Max over (x, t) pairs of |heat kernel at time i*t - free propagator at t|.

    Requires the dictionary D == hbar/(2m) (to 1e-12 relative), with
    hbar/(2m) finite, and t > 0 throughout the grid.  A NaN gap makes the
    residual NaN, so it can never read as a pass.
    """
    d = spec_heat.diffusion_D
    target = spec_schrod.hbar / (2.0 * spec_schrod.mass_m)
    if not math.isfinite(target):
        raise ValueError(f"hbar/(2m) = {target} is not finite")
    if abs(d - target) > 1e-12 * max(abs(d), abs(target)):
        raise ValueError(
            f"constants mismatch: D = {d} but hbar/(2m) = {target}; "
            "the two kernels only correspond when these agree"
        )
    worst = 0.0
    for x, t in grid:
        if not t > 0:
            raise ValueError(f"grid times must be positive, got {t}")
        gap = abs(heat_kernel_complex_time(spec_heat, x, 1j * t)
                  - schrodinger_kernel(spec_schrod, x, t))
        if math.isnan(gap):
            return gap  # max() would drop it: max(0.0, nan) is 0.0
        worst = max(worst, gap)
    return worst
