import numpy as np
import pytest

from parcelwalk.clifford import (
    dirac_symbol_square,
    gamma_basis,
    pauli_basis,
    scalar_decompose,
)

I, S1, S2, S3 = pauli_basis()
ZERO = np.zeros((2, 2), dtype=np.complex128)


def test_pauli_squares_are_identity_exactly():
    for s in (S1, S2, S3):
        assert np.array_equal(s @ s, I)


def test_pauli_anticommutators_vanish_exactly():
    pairs = [(S1, S2), (S1, S3), (S2, S3)]
    for a, b in pairs:
        assert np.array_equal(a @ b + b @ a, ZERO)


def test_sigma1_sigma2_is_i_sigma3():
    assert np.array_equal(S1 @ S2, 1j * S3)


def test_sigma3_is_diagonal_plus_minus_one():
    assert np.array_equal(S3, np.diag([1.0 + 0j, -1.0 + 0j]))


def test_paulis_self_adjoint_and_unitary():
    for s in (S1, S2, S3):
        assert np.array_equal(s.conj().T, s)
        assert np.array_equal(s.conj().T @ s, I)


def test_identity_is_multiplicative_unit():
    assert np.array_equal(I @ S1, S1)
    assert np.array_equal(S1 @ I, S1)


def test_commutator_examples():
    assert np.array_equal(S1 @ S1 - S1 @ S1, ZERO)
    assert np.array_equal(S1 @ S2 - S2 @ S1, 2j * S3)


def test_gamma_basis_is_independent_instance_with_same_relations():
    gi, g1, g2, g3 = gamma_basis()
    assert np.array_equal(gi, I) and gi is not I
    for g in (g1, g2, g3):
        assert np.array_equal(g @ g, I)
    assert np.array_equal(g1 @ g2 + g2 @ g1, ZERO)


def test_dirac_symbol_square_axis_cases():
    scalar, offdiag = dirac_symbol_square(1.0, 0.0, 0.0)
    assert scalar == 1.0 + 0j and offdiag == 0.0
    scalar, offdiag = dirac_symbol_square(0.0, 1.0, 0.0)
    assert scalar == -1.0 + 0j and offdiag == 0.0
    scalar, offdiag = dirac_symbol_square(2.0, 1.0, 1.0)
    assert scalar == pytest.approx(2.0, abs=1e-14) and offdiag <= 1e-14


def test_dirac_symbol_square_scalar_law_random():
    rng = np.random.default_rng(2024)
    for s, u, v in rng.uniform(-2.0, 2.0, size=(1000, 3)):
        scalar, offdiag = dirac_symbol_square(s, u, v)
        assert abs(scalar - (s * s - u * u - v * v)) <= 1e-12
        assert offdiag <= 1e-12


def test_scalar_decompose_splits_scalar_part():
    scalar, resid = scalar_decompose(3.5 * I)
    assert scalar == 3.5 + 0j and resid == 0.0
    scalar, resid = scalar_decompose(S1)
    assert scalar == 0.0 + 0j and resid == pytest.approx(np.sqrt(2.0))
