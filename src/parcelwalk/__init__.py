"""parcelwalk: complex square roots of Brownian motion and quantized-geometry checks.

The package builds seeded Wiener ensembles, derives the {1, i} parcel
process and the square-root paths whose per-step squares recover the
original increments, compares the rotated endpoint statistics against the
diffusion kernel, and verifies the companion algebraic identities (Pauli
relations, binomial-amplitude triangle, circle/oscillator/sphere
quantization, imaginary-time kernel correspondence).

Every public name below resolves lazily (PEP 562): ``parcelwalk.<name>``
imports only the submodule that defines it, so the numpy-free modules
(``triangle``, ``kernels``) can be used without importing numpy.
"""
from __future__ import annotations

import importlib

_EXPORTS = {
    "clifford": (
        "CliffordElement",
        "dirac_symbol_square",
        "gamma_basis",
        "pauli_basis",
        "scalar_decompose",
    ),
    "geometry": (
        "CircleModel",
        "OscillatorSpec",
        "OscillatorVolumes",
        "circle_model",
        "circle_quantization_residual",
        "fourier_modes",
        "length_quantization_check",
        "oscillator_volumes",
        "sphere_map",
        "sphere_map_square",
    ),
    "kernels": (
        "KernelSpec",
        "heat_kernel",
        "heat_kernel_complex_time",
        "schrodinger_kernel",
        "wick_identity_residual",
    ),
    "stats": (
        "Histogram",
        "KsResult",
        "StatsReport",
        "histogram_build",
        "ks_one_sample",
        "ks_two_sample",
        "stats_report",
        "std_normal_cdf",
    ),
    "stochastic": (
        "EndpointStatistics",
        "brownian_increments",
        "increment_block",
        "parcel_from_bernoulli",
        "sqrt_endpoint_statistics",
        "sqrt_path",
        "square_identity_residuals",
        "stream_endpoint_statistics",
    ),
    "triangle": (
        "TriangleRow",
        "binomial_pmf",
        "classical_row",
        "gaussian_approx_row",
        "next_classical_row",
        "qtpt_amplitude",
        "qtpt_row",
        "row_sup_error",
        "sup_error",
    ),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE)
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
