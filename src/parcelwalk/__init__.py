"""parcelwalk: complex square roots of Brownian motion and quantized-geometry checks.

The package builds seeded Wiener ensembles, derives the {1, i} parcel
process and the square-root paths whose per-step squares recover the
original increments, compares the rotated endpoint statistics against the
diffusion kernel, and verifies the companion algebraic identities (Pauli
relations, binomial-amplitude triangle, circle/oscillator/sphere
quantization, imaginary-time kernel correspondence).
"""
from .clifford import (
    CliffordElement,
    ComplexScalar,
    adjoint,
    bracket,
    dirac_symbol_square,
    element,
    gamma_basis,
    mul,
    pauli_basis,
    pauli_coefficients,
    scalar_decompose,
)
from .geometry import (
    CircleModel,
    OscillatorSpec,
    OscillatorVolumes,
    circle_distance,
    circle_model,
    circle_quantization_residual,
    fourier_modes,
    length_quantization_check,
    oscillator_volumes,
    sphere_map,
    sphere_map_square,
)
from .kernels import (
    KernelSpec,
    heat_kernel,
    heat_kernel_complex_time,
    schrodinger_kernel,
    wick_identity_residual,
)
from .stats import (
    Histogram,
    KsResult,
    StatsReport,
    gaussian_fit,
    histogram_build,
    ks_one_sample,
    ks_two_sample,
    stats_report,
    std_normal_cdf,
)
from .stochastic import (
    EndpointStatistics,
    PathEnsemble,
    SphereStepParams,
    SqrtPath,
    brownian_increments,
    check_unit_constraint,
    increment_block,
    parcel_from_bernoulli,
    signs_to_bernoulli,
    sphere_sqrt_step,
    sqrt_endpoint_statistics,
    sqrt_path,
    square_identity_residuals,
    stream_endpoint_statistics,
    wick_rotate_samples,
)
from .triangle import (
    TriangleRow,
    binomial_pmf,
    classical_row,
    gaussian_approx_row,
    qtpt_amplitude,
    qtpt_row,
    row_sup_error,
)

__version__ = "0.1.0"
