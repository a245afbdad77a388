"""Exact 2x2 complex matrix algebra: Pauli generators and square roots of wave symbols.

All elements are plain ``numpy`` arrays of shape ``(2, 2)`` and dtype
``complex128``.  Treat them as immutable: every operation returns a fresh
array and nothing here mutates its inputs.
"""
from __future__ import annotations

import numpy as np

# Type alias for the public surface; a CliffordElement is always a 2x2
# complex128 array.
CliffordElement = np.ndarray


def pauli_basis() -> tuple[CliffordElement, CliffordElement, CliffordElement, CliffordElement]:
    """Return ``(identity, sigma1, sigma2, sigma3)`` in the standard convention.

    sigma1 = [[0, 1], [1, 0]], sigma2 = [[0, -i], [i, 0]],
    sigma3 = [[1, 0], [0, -1]].  Each generator is self-adjoint, unitary,
    squares to the identity, and anticommutes with the other two.
    """
    identity = np.eye(2, dtype=np.complex128)
    sigma1 = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    sigma2 = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
    sigma3 = np.array([[1, 0], [0, -1]], dtype=np.complex128)
    return identity, sigma1, sigma2, sigma3


def gamma_basis() -> tuple[CliffordElement, CliffordElement, CliffordElement, CliffordElement]:
    """Fresh copy of the Pauli basis acting on the coordinate side.

    The coordinate-side generators satisfy the same relations as the
    sigma set but are kept as an independent instance so the two roles
    never share arrays.
    """
    return pauli_basis()


def scalar_decompose(a):
    """Split ``a`` into ``c*I + R`` and return ``(c, ||R||_F)``.

    ``a`` is one 2x2 matrix, giving a complex and a float, or a stack of
    shape ``(N, 2, 2)``, giving two arrays of length N.  Each norm is the
    one ``np.linalg.norm`` returns for that matrix's residual, bit for bit:
    the squares of the real parts, then of the imaginary parts, are summed
    by the same strided BLAS dot product that ``np.linalg.norm`` calls, one
    call per matrix through ``matmul``, and the two sums are added.
    """
    a = np.asarray(a)
    if a.ndim not in (2, 3) or a.shape[-2:] != (2, 2):
        raise ValueError(f"expected a 2x2 matrix or a stack of them, got shape {a.shape}")
    c = np.asarray((a[..., 0, 0] + a[..., 1, 1]) / 2.0)
    resid = a - c[..., None, None] * np.eye(2, dtype=np.complex128)
    flat = resid.reshape(*resid.shape[:-2], 1, 4)
    re, im = flat.real, flat.imag
    norm = np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0])
    if a.ndim == 2:
        return complex(c), float(norm)
    return c, norm


def dirac_symbol_square(s: float, u: float, v: float) -> tuple[complex, float]:
    """Square the first-order symbol sigma3*s - i*sigma1*u - i*sigma2*v.

    Returns ``(scalar_coeff, offdiag_norm)`` where the square equals
    ``scalar_coeff * I`` up to ``offdiag_norm``.  The anticommutation
    relations collapse the square to ``(s**2 - u**2 - v**2) * I``, which is
    how a first-order operator reproduces the second-order wave operator.
    """
    _, sigma1, sigma2, sigma3 = pauli_basis()
    symbol = s * sigma3 - 1j * u * sigma1 - 1j * v * sigma2
    return scalar_decompose(symbol @ symbol)
