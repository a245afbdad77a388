"""Quantization identities at desk scale.

Four independent checks of the same theme (geometry forced onto an integer
ladder): the circle's spectral commutation relation, the 2*pi*N length rule,
harmonic-oscillator phase-space areas, and the sphere's two-valued square.
The sphere map and its square take one point or a whole ``(N, 3)`` sample
at once; the stacked square runs one 2x2 product per point through the
same ``matmul`` kernel, so each result keeps the single-point bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clifford import CliffordElement, gamma_basis, scalar_decompose


@dataclass(frozen=True)
class CircleModel:
    """Uniform angular grid theta_j = 2 pi j / N on the unit circle."""

    n_points: int
    thetas: np.ndarray


def circle_model(n_points: int) -> CircleModel:
    if n_points < 4:
        raise ValueError(f"circle grid needs N >= 4, got {n_points}")
    j = np.arange(n_points)
    return CircleModel(n_points=n_points, thetas=2.0 * np.pi * j / n_points)


@dataclass(frozen=True)
class OscillatorSpec:
    """Unit-mass oscillator: available energy, pulsation, hbar, quantum number."""

    energy_E: float
    omega: float
    hbar: float = 1.0
    n_quanta: int = 0

    def __post_init__(self) -> None:
        if not (self.energy_E > 0 and self.omega > 0 and self.hbar > 0):
            raise ValueError("energy_E, omega, hbar must all be positive")
        if self.n_quanta < 0:
            raise ValueError(f"n_quanta must be >= 0, got {self.n_quanta}")


def circle_distance(theta1, theta2):
    """Chord distance on the unit circle, 2*|sin((theta1 - theta2)/2)|."""
    return 2.0 * np.abs(np.sin((np.asarray(theta1) - np.asarray(theta2)) / 2.0))


def fourier_modes(n_points: int) -> np.ndarray:
    """Integer mode labels -floor(N/2) .. ceil(N/2)-1 in ascending order."""
    return np.arange(-(n_points // 2), (n_points + 1) // 2)


def circle_quantization_residual(model: CircleModel) -> tuple[float, float]:
    """Measure Y^dagger [D, Y] against the identity in the Fourier basis.

    D is diagonal with integer eigenvalues (the spectral derivative); Y, the
    unit phase map, acts as the mode shift m -> m+1.  On a finite grid the
    shift wraps the top mode back to the bottom, so exactly one diagonal
    entry deviates from 1: the wrap mode carries the value 1 - N.  Returns
    ``(interior_residual, wrap_value)`` where the interior residual is the
    max deviation from the identity away from that single wrap entry.
    """
    n = model.n_points
    modes = fourier_modes(n)
    deriv = np.diag(modes.astype(np.complex128))
    shift = np.zeros((n, n), dtype=np.complex128)
    shift[(np.arange(n) + 1) % n, np.arange(n)] = 1.0
    m = shift.conj().T @ (deriv @ shift - shift @ deriv)
    deviation = np.abs(m - np.eye(n))
    wrap_value = float(m[n - 1, n - 1].real)
    deviation[n - 1, n - 1] = 0.0
    return float(deviation.max()), wrap_value


def length_quantization_check(length: float, tol: float) -> int | None:
    """Return n if ``length`` is within ``tol`` of 2*pi*n for a positive integer n."""
    if not length > 0:
        raise ValueError(f"length must be positive, got {length}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    n = max(1, round(length / (2.0 * math.pi)))
    if abs(length - 2.0 * math.pi * n) <= tol:
        return n
    return None


@dataclass(frozen=True)
class OscillatorVolumes:
    classical_volume: float
    quantized_volume: float
    semi_axes: tuple[float, float]


def oscillator_volumes(spec: OscillatorSpec) -> OscillatorVolumes:
    """Phase-space ellipse area pi*a*b vs the quantized area 2*pi*(n + 1/2)*hbar.

    Semi-axes a = sqrt(2E), b = sqrt(2E/omega**2); the two areas agree
    exactly when E = (n + 1/2)*hbar*omega.
    """
    a = math.sqrt(2.0 * spec.energy_E)
    b = math.sqrt(2.0 * spec.energy_E / spec.omega**2)
    classical = math.pi * a * b
    quantized = 2.0 * math.pi * (spec.n_quanta + 0.5) * spec.hbar
    return OscillatorVolumes(classical_volume=classical, quantized_volume=quantized,
                             semi_axes=(a, b))


def sphere_map(u) -> CliffordElement:
    """Map coordinates (u1, u2, u3) to -i*g1*u1 - i*g2*u2 + g3*u3.

    ``u`` is one point, giving a 2x2 matrix, or a stack of points of shape
    ``(N, 3)``, giving an ``(N, 2, 2)`` stack of matrices.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim not in (1, 2) or u.shape[-1] != 3:
        raise ValueError(f"expected a point (u1, u2, u3) or a stack of them, got shape {u.shape}")
    u1, u2, u3 = (u[..., i, None, None] for i in range(3))
    _, g1, g2, g3 = gamma_basis()
    return -1j * u1 * g1 - 1j * u2 * g2 + u3 * g3


def sphere_map_square(u):
    """Square of the sphere map: always scalar, equal to (u3**2 - u1**2 - u2**2) * I.

    The sign of the scalar classifies the point into the two volume types
    (+1-like vs -1-like); cross terms cancel by anticommutation, measured by
    the returned off-diagonal residual.  A stack of points gives arrays of
    scalars and residuals, each bit-identical to the single-point result.
    """
    y = sphere_map(u)
    return scalar_decompose(y @ y)
