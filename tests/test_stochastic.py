import cmath
import math

import numpy as np
import pytest

from parcelwalk.clifford import gamma_basis, pauli_coefficients
from parcelwalk.stats import ks_one_sample, ks_two_sample, std_normal_cdf
from parcelwalk.stochastic import (
    PathEnsemble,
    SphereStepParams,
    brownian_increments,
    check_unit_constraint,
    increment_block,
    parcel_from_bernoulli,
    signs_to_bernoulli,
    sphere_sqrt_step,
    sqrt_endpoint_statistics,
    sqrt_path,
    square_identity_residuals,
    wick_rotate_samples,
)

GI, G1, G2, G3 = gamma_basis()


def test_brownian_increments_deterministic():
    a = brownian_increments(1, 1, 4, 1.0)
    b = brownian_increments(1, 1, 4, 1.0)
    assert np.array_equal(a.increments, b.increments)


def test_increment_blocks_merge_like_any_worker_split():
    whole = increment_block(5, 0, 7, 9, 2.0)
    split = np.vstack([increment_block(5, 0, 3, 9, 2.0),
                       increment_block(5, 3, 4, 9, 2.0)])
    assert np.array_equal(whole, split)
    assert np.array_equal(whole, brownian_increments(5, 7, 9, 2.0).increments)


def test_brownian_increments_guards():
    with pytest.raises(ValueError):
        brownian_increments(-1, 1, 1, 1.0)
    with pytest.raises(ValueError):
        brownian_increments(1, 0, 1, 1.0)
    with pytest.raises(ValueError):
        brownian_increments(1, 1, 0, 1.0)
    for horizon in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            brownian_increments(1, 1, 1, horizon)


def test_endpoint_variance_matches_horizon():
    ensemble = brownian_increments(7, 100_000, 1, 1.0)
    endpoints = ensemble.increments.sum(axis=1)
    assert 0.985 <= endpoints.var() <= 1.015
    assert abs(endpoints.mean()) <= 5 / math.sqrt(100_000)


def test_per_increment_variance_is_horizon_over_steps():
    ensemble = brownian_increments(8, 50_000, 4, 4.0)
    flat = ensemble.increments.ravel()
    # T/steps = 1; 5 sigma band for the sample variance of 2e5 draws
    assert abs(flat.var() - 1.0) <= 5 * math.sqrt(2 / flat.size)


def test_signs_to_bernoulli():
    assert list(signs_to_bernoulli([0.3, -0.1])) == [1, -1]
    assert list(signs_to_bernoulli([0.0])) == [1]


def test_sign_fraction_is_balanced():
    inc = brownian_increments(11, 1, 100_000, 1.0).increments[0]
    frac = (signs_to_bernoulli(inc) == 1).mean()
    assert 0.494 <= frac <= 0.506


def test_parcel_values_and_square_identity():
    assert parcel_from_bernoulli([1]).tolist() == [1 + 0j]
    assert parcel_from_bernoulli([-1]).tolist() == [1j]
    b = signs_to_bernoulli(brownian_increments(3, 1, 1000, 1.0).increments[0])
    phi = parcel_from_bernoulli(b)
    assert np.array_equal(phi**2, b.astype(np.complex128))


def test_parcel_rejects_non_signs():
    with pytest.raises(ValueError):
        parcel_from_bernoulli([1, 0])
    with pytest.raises(ValueError):
        parcel_from_bernoulli([0.5])


def test_sqrt_path_single_steps():
    path = sqrt_path([0.09])
    assert path.sqrt_increments[0] == pytest.approx(0.3 + 0j, abs=1e-15)
    assert path.sqrt_increments[0] ** 2 == pytest.approx(0.09, rel=1e-15)
    path = sqrt_path([-0.04])
    assert path.sqrt_increments[0] == pytest.approx(0.2j, abs=1e-15)
    assert path.sqrt_increments[0] ** 2 == pytest.approx(-0.04, rel=1e-15)
    assert sqrt_path([0.0]).sqrt_increments[0] == 0.0


def test_sqrt_path_square_identity_per_step():
    inc = brownian_increments(13, 1, 5_000, 1.0).increments[0]
    path = sqrt_path(inc)
    resid = np.abs(path.sqrt_increments**2 - inc) / np.maximum(1.0, np.abs(inc))
    assert resid.max() <= 1e-15
    assert np.array_equal(path.partial_sums, np.cumsum(path.sqrt_increments))


def test_sqrt_path_rejects_matrices():
    with pytest.raises(ValueError):
        sqrt_path(np.zeros((2, 3)))


def test_wick_rotation_examples():
    r = math.sqrt(2) / 2
    rotated = wick_rotate_samples([1.0 + 0j])
    assert abs(rotated[0] - (r - r * 1j)) <= 1e-15
    rotated = wick_rotate_samples([1.0 + 1.0j])
    assert abs(rotated[0] - math.sqrt(2)) <= 1e-15


def test_wick_rotation_is_isometry():
    rng = np.random.default_rng(6)
    z = rng.normal(size=200) + 1j * rng.normal(size=200)
    assert np.abs(np.abs(wick_rotate_samples(z)) - np.abs(z)).max() <= 1e-13


def test_endpoint_channels_centered_and_scaled():
    ensemble = brownian_increments(3, 500, 64, 1.0)
    real_ch, imag_ch = sqrt_endpoint_statistics(ensemble)
    for ch in (real_ch, imag_ch):
        assert abs(ch.mean()) <= 1e-12
        assert abs(ch.var() - 1.0) <= 1e-12


def test_endpoint_statistics_chunk_invariance():
    ensemble = brownian_increments(3, 500, 64, 1.0)
    a = sqrt_endpoint_statistics(ensemble, chunk=37)
    b = sqrt_endpoint_statistics(ensemble, chunk=10**9)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_endpoint_statistics_guards():
    with pytest.raises(ValueError):
        sqrt_endpoint_statistics(brownian_increments(3, 99, 8, 1.0))
    degenerate = PathEnsemble(seed=0, trials=200, steps=4, horizon_T=1.0,
                              increments=np.zeros((200, 4)))
    with pytest.raises(ValueError):
        sqrt_endpoint_statistics(degenerate)


def test_path_sums_telescope_to_brownian_endpoint():
    ensemble = brownian_increments(17, 300, 400, 1.0)
    for row in ensemble.increments[:50]:
        path = sqrt_path(row)
        assert abs(np.sum(path.sqrt_increments**2) - row.sum()) <= 1e-14


def test_square_identity_residuals_small_ensemble():
    max_step, max_path = square_identity_residuals(brownian_increments(19, 400, 250, 1.0))
    assert max_step <= 1e-15
    assert max_path <= 1e-13


@pytest.mark.parametrize("row", [0, 39])
def test_square_identity_residuals_propagate_nan(row):
    increments = brownian_increments(19, 40, 8, 1.0).increments
    increments[row, 3] = np.nan
    ensemble = PathEnsemble(seed=19, trials=40, steps=8, horizon_T=1.0,
                            increments=increments)
    for chunk in (None, 1):
        max_step, max_path = square_identity_residuals(ensemble, chunk=chunk)
        assert math.isnan(max_step) and math.isnan(max_path)


def test_channels_normal_at_moderate_scale():
    # trials >= 1e4 is the documented regime for the KS checks
    ensemble = brownian_increments(3, 10_000, 300, 1.0)
    real_ch, imag_ch = sqrt_endpoint_statistics(ensemble)
    endpoints = ensemble.increments.sum(axis=1)
    scaled = (endpoints - endpoints.mean()) / endpoints.std()
    assert ks_one_sample(scaled, std_normal_cdf).passes(0.01)
    assert ks_one_sample(real_ch, std_normal_cdf).passes(0.01)
    assert ks_one_sample(imag_ch, std_normal_cdf).passes(0.01)
    assert ks_two_sample(real_ch, imag_ch).passes(0.01)


def test_sphere_step_inert_defaults():
    step = sphere_sqrt_step(SphereStepParams(), dU1=0.4, dU2=-0.2)
    assert np.abs(step).max() == 0.0


def test_sphere_step_drift_only_term():
    params = SphereStepParams(a=1.0, dt=0.1)
    step = sphere_sqrt_step(params, dU1=0.5, dU2=0.5)
    assert np.abs(step - 0.1 * G2).max() <= 1e-15


def test_sphere_step_parcel_flips_gamma0_term():
    params = SphereStepParams(f=1.0)
    step = sphere_sqrt_step(params, dU1=-0.5, dU2=0.5)
    # Phi1 = i, so the i*gamma0*f*Phi1 term contributes -gamma0
    assert np.abs(step - (-G3)).max() <= 1e-15


def test_sphere_step_stays_in_generator_span():
    rng = np.random.default_rng(23)
    for _ in range(100):
        params = SphereStepParams(*rng.uniform(-1, 1, 8), dt=0.05)
        step = sphere_sqrt_step(params, dU1=rng.normal(), dU2=rng.normal())
        c_identity = pauli_coefficients(step)[0]
        assert abs(c_identity) <= 1e-12


def test_sphere_step_custom_gamma0():
    params = SphereStepParams(f=1.0)
    step = sphere_sqrt_step(params, dU1=0.5, dU2=0.5, gamma0=GI)
    assert np.abs(step - 1j * GI).max() <= 1e-15


def test_sphere_step_params_require_positive_dt():
    with pytest.raises(ValueError):
        SphereStepParams(dt=0.0)


def test_check_unit_constraint_classification():
    verdict, resid = check_unit_constraint(G3, 1e-12)
    assert verdict == "plus_one" and resid == 0.0
    verdict, resid = check_unit_constraint(-1j * G1, 1e-12)
    assert verdict == "minus_one" and resid == 0.0
    verdict, resid = check_unit_constraint(0.5 * G1, 1e-12)
    assert verdict == "violated" and resid == pytest.approx(0.75, abs=1e-15)
    with pytest.raises(ValueError):
        check_unit_constraint(G3, 0.0)


def test_sqrt_endpoints_match_wick_rotated_path_sums():
    ensemble = brownian_increments(29, 150, 32, 1.0)
    real_ch, imag_ch = sqrt_endpoint_statistics(ensemble)
    raw = np.array([np.sum(sqrt_path(row).sqrt_increments)
                    for row in ensemble.increments])
    rotated = raw * cmath.exp(-1j * math.pi / 4)
    for channel, values in ((real_ch, rotated.real), (imag_ch, rotated.imag)):
        rebuilt = (values - values.mean()) / values.std()
        assert np.abs(channel - rebuilt).max() <= 1e-12
