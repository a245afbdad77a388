"""Bit identity of the batched sphere check, the numpy-free grid and the one-pass triangle.

Each fast path is compared with the formula it replaced, written out here,
by ``float.hex`` so that signed zeros and last bits count.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from parcelwalk.cli import _linspace
from parcelwalk.clifford import pauli_basis, scalar_decompose
from parcelwalk.geometry import sphere_map, sphere_map_square
from parcelwalk.triangle import (
    classical_row,
    next_classical_row,
    qtpt_amplitude,
    qtpt_row,
    row_sup_error,
    sup_error,
)

SPECIAL_COORDINATES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
                       1e-300, -1e-300, 1e150, -1e150]
coordinates = (st.floats(min_value=-1e150, max_value=1e150)
               | st.sampled_from(SPECIAL_COORDINATES))
point_stacks = st.integers(1, 12).flatmap(
    lambda n: arrays(np.float64, (n, 3), elements=coordinates))
SPECIAL_ENTRIES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300,
                   1.7e308, -1.7e308]
entries = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL_ENTRIES)
matrices = st.tuples(arrays(np.float64, (2, 2), elements=entries),
                     arrays(np.float64, (2, 2), elements=entries))


def reference_scalar_decompose(a):
    """The single-matrix decomposition as it was before stacks were accepted."""
    c = complex(a[0, 0] + a[1, 1]) / 2.0
    resid = a - c * np.eye(2, dtype=np.complex128)
    return c, float(np.linalg.norm(resid))


def reference_sphere_map_square(u):
    """One point's square through the per-point formula the sphere check used."""
    u1, u2, u3 = u
    _, g1, g2, g3 = pauli_basis()
    y = -1j * u1 * g1 - 1j * u2 * g2 + u3 * g3
    return reference_scalar_decompose(y @ y)


def bits(scalar, norm):
    scalar = complex(scalar)
    return scalar.real.hex(), scalar.imag.hex(), float(norm).hex()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(point_stacks)
def test_batched_sphere_square_matches_each_point(points):
    scalars, norms = sphere_map_square(points)
    assert scalars.shape == norms.shape == (len(points),)
    for i, row in enumerate(points):
        expected = bits(*reference_sphere_map_square(tuple(row)))
        assert bits(scalars[i], norms[i]) == expected
        assert bits(*sphere_map_square(tuple(row))) == expected
        assert bits(*sphere_map_square(row.tolist())) == expected


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(matrices)
def test_scalar_decompose_matches_linalg_norm(parts):
    a = parts[0] + 1j * parts[1]
    c, norm = scalar_decompose(a)
    assert isinstance(c, complex) and isinstance(norm, float)
    assert bits(c, norm) == bits(*reference_scalar_decompose(a))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(st.lists(matrices, min_size=1, max_size=6))
def test_scalar_decompose_stack_matches_each_matrix(parts):
    stack = np.array([re + 1j * im for re, im in parts])
    scalars, norms = scalar_decompose(stack)
    for i, a in enumerate(stack):
        assert bits(scalars[i], norms[i]) == bits(*reference_scalar_decompose(a))


def test_sphere_map_stack_and_shape_guards():
    points = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    stack = sphere_map(points)
    assert stack.shape == (2, 2, 2)
    assert np.array_equal(stack[1], sphere_map((1.0, 0.0, 0.0)))
    with pytest.raises(ValueError):
        sphere_map((1.0, 2.0))
    with pytest.raises(ValueError):
        sphere_map(np.zeros((2, 2, 3)))
    with pytest.raises(ValueError):
        scalar_decompose(np.zeros((3, 3)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 25, 40, 1000]),
       st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False))
def test_linspace_matches_numpy(num, start, stop):
    expected = [float(x).hex() for x in np.linspace(start, stop, num)]
    assert [x.hex() for x in _linspace(start, stop, num)] == expected


def test_linspace_cli_grids_and_guard():
    for start, stop, num in ((-4.0, 4.0, 40), (0.1, 2.5, 25)):
        assert _linspace(start, stop, num) == np.linspace(start, stop, num).tolist()
    for num in (1, 0, -3):
        with pytest.raises(ValueError):
            _linspace(0.0, 1.0, num)


def test_pascal_rows_equal_math_comb_rows():
    row = classical_row(0)
    for n in range(1, 1001):
        row = next_classical_row(row)
        if n <= 100 or n in (499, 500, 1000):
            assert row == classical_row(n)
    with pytest.raises(ValueError):
        next_classical_row(row)
    with pytest.raises(ValueError):
        next_classical_row(qtpt_row(3))


@pytest.mark.parametrize("n", [1, 2, 3, 17, 200, 1000])
def test_row_from_counts_matches_each_amplitude(n):
    expected = [(a.real.hex(), a.imag.hex()) for a in
                (qtpt_amplitude(n, k) for k in range(n + 1))]
    for row in (qtpt_row(n), qtpt_row(n, classical_row(n).values)):
        assert [(a.real.hex(), a.imag.hex()) for a in row.values] == expected
    with pytest.raises(ValueError):
        qtpt_row(n, [1] * n)


def test_pmf_from_counts_and_sup_error_core():
    n = 300
    counts = classical_row(n).values
    probs = [c / (1 << n) for c in counts]
    assert probs == [math.comb(n, k) / 2**n for k in range(n + 1)]
    assert sup_error(probs) == row_sup_error(n, "classical")
    assert sup_error([abs(a) ** 2 for a in qtpt_row(n).values]) == row_sup_error(n, "quantum")
