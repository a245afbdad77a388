import cmath
import math

import numpy as np
import pytest

from parcelwalk import stochastic
from parcelwalk.stats import ks_one_sample, ks_two_sample, std_normal_cdf
from parcelwalk.stochastic import (
    brownian_increments,
    increment_block,
    parcel_from_bernoulli,
    sqrt_endpoint_statistics,
    sqrt_path,
    square_identity_residuals,
)


def test_brownian_increments_deterministic():
    a = brownian_increments(1, 1, 4, 1.0)
    b = brownian_increments(1, 1, 4, 1.0)
    assert np.array_equal(a, b)


def test_increment_blocks_merge_like_any_worker_split():
    whole = increment_block(5, 0, 7, 9, 2.0)
    split = np.vstack([increment_block(5, 0, 3, 9, 2.0),
                       increment_block(5, 3, 4, 9, 2.0)])
    assert np.array_equal(whole, split)
    assert np.array_equal(whole, brownian_increments(5, 7, 9, 2.0))


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


# (seed, first_trial, n_trials, steps, horizon_T); the trial index is one
# 64-bit word of the Philox counter.
@pytest.mark.parametrize("args", [
    (1, 0, 2, 4, math.nan),
    (1, 0, 2, 4, math.inf),
    (1, 0, 2, 4, -math.inf),
    (2**64, 0, 2, 4, 1.0),
    (-1, 0, 2, 4, 1.0),
    (1, 0, 2, 0, 1.0),
    (1, 0, 0, 4, 1.0),
    (1, -1, 2, 4, 1.0),
    (1, 2**64 - 1, 2, 4, 1.0),
    (1, 2**64, 1, 4, 1.0),
])
def test_increment_block_refuses_what_brownian_increments_refuses(args):
    with pytest.raises(ValueError):
        increment_block(*args)


def test_increment_block_draws_the_last_trial_index():
    last = increment_block(1, 2**64 - 2, 2, 4, 1.0)
    assert last.shape == (2, 4) and np.isfinite(last).all()


def test_endpoint_variance_matches_horizon():
    endpoints = brownian_increments(7, 100_000, 1, 1.0).sum(axis=1)
    assert 0.985 <= endpoints.var() <= 1.015
    assert abs(endpoints.mean()) <= 5 / math.sqrt(100_000)


def test_per_increment_variance_is_horizon_over_steps():
    flat = brownian_increments(8, 50_000, 4, 4.0).ravel()
    # T/steps = 1; 5 sigma band for the sample variance of 2e5 draws
    assert abs(flat.var() - 1.0) <= 5 * math.sqrt(2 / flat.size)


def test_sign_fraction_is_balanced():
    inc = brownian_increments(11, 1, 100_000, 1.0)[0]
    frac = (inc >= 0).mean()
    assert 0.494 <= frac <= 0.506


def test_parcel_values_and_square_identity():
    assert parcel_from_bernoulli([1]).tolist() == [1 + 0j]
    assert parcel_from_bernoulli([-1]).tolist() == [1j]
    b = np.where(brownian_increments(3, 1, 1000, 1.0)[0] >= 0, 1, -1)
    phi = parcel_from_bernoulli(b)
    assert np.array_equal(phi**2, b.astype(np.complex128))


def test_parcel_rejects_non_signs():
    with pytest.raises(ValueError):
        parcel_from_bernoulli([1, 0])
    with pytest.raises(ValueError):
        parcel_from_bernoulli([0.5])


def test_sqrt_path_single_steps():
    root = sqrt_path([0.09])
    assert root[0] == pytest.approx(0.3 + 0j, abs=1e-15)
    assert root[0] ** 2 == pytest.approx(0.09, rel=1e-15)
    root = sqrt_path([-0.04])
    assert root[0] == pytest.approx(0.2j, abs=1e-15)
    assert root[0] ** 2 == pytest.approx(-0.04, rel=1e-15)
    assert sqrt_path([0.0])[0] == 0.0


def test_sqrt_path_square_identity_per_step():
    inc = brownian_increments(13, 1, 5_000, 1.0)[0]
    resid = np.abs(sqrt_path(inc)**2 - inc) / np.maximum(1.0, np.abs(inc))
    assert resid.max() <= 1e-15


def test_sqrt_path_rejects_matrices():
    with pytest.raises(ValueError):
        sqrt_path(np.zeros((2, 3)))


def test_wick_rotation_examples():
    r = math.sqrt(2) / 2
    rotated = np.array([1.0 + 0j]) * stochastic.WICK_FACTOR
    assert abs(rotated[0] - (r - r * 1j)) <= 1e-15
    rotated = np.array([1.0 + 1.0j]) * stochastic.WICK_FACTOR
    assert abs(rotated[0] - math.sqrt(2)) <= 1e-15


def test_wick_rotation_is_isometry():
    rng = np.random.default_rng(6)
    z = rng.normal(size=200) + 1j * rng.normal(size=200)
    assert np.abs(np.abs(z * stochastic.WICK_FACTOR) - np.abs(z)).max() <= 1e-13


def test_endpoint_channels_centered_and_scaled():
    real_ch, imag_ch = sqrt_endpoint_statistics(brownian_increments(3, 500, 64, 1.0))
    for ch in (real_ch, imag_ch):
        assert abs(ch.mean()) <= 1e-12
        assert abs(ch.var() - 1.0) <= 1e-12


def test_endpoint_statistics_guards():
    with pytest.raises(ValueError):
        sqrt_endpoint_statistics(brownian_increments(3, 99, 8, 1.0))
    with pytest.raises(ValueError, match="degenerate"):
        sqrt_endpoint_statistics(np.zeros((200, 4)))


@pytest.mark.parametrize("reduction", [sqrt_endpoint_statistics, square_identity_residuals])
@pytest.mark.parametrize("shape", [(400,), (2, 200, 4)], ids=["1-D", "3-D"])
def test_reductions_refuse_arrays_that_are_not_2d(reduction, shape):
    with pytest.raises(ValueError, match="trials, steps"):
        reduction(np.ones(shape))


@pytest.mark.parametrize("reduction", [sqrt_endpoint_statistics, square_identity_residuals])
@pytest.mark.parametrize("shape", [(3, 0), (100, 0), (0, 5)])
def test_reductions_refuse_an_empty_ensemble(reduction, shape):
    with pytest.raises(ValueError, match="trials, steps >= 1"):
        reduction(np.empty(shape))


def test_too_few_rows_are_refused_before_any_block_is_reduced(monkeypatch):
    def no_blocks(*args):
        raise AssertionError("a block was reduced")

    monkeypatch.setattr(stochastic, "_reduce_block", no_blocks)
    with pytest.raises(ValueError, match="100 trials"):
        sqrt_endpoint_statistics(np.ones((99, 8)))


def test_path_sums_telescope_to_brownian_endpoint():
    for row in brownian_increments(17, 300, 400, 1.0)[:50]:
        assert abs(np.sum(sqrt_path(row)**2) - row.sum()) <= 1e-14


def test_square_identity_residuals_small_ensemble():
    max_step, max_path = square_identity_residuals(brownian_increments(19, 400, 250, 1.0))
    assert max_step <= 1e-15
    assert max_path <= 1e-13


@pytest.mark.parametrize("row", [0, 39])
def test_square_identity_residuals_propagate_nan(row):
    # The reference is one kernel call on the whole array, at any row length;
    # test_block_kernel.py checks that the stream's fold across blocks keeps a NaN.
    for steps in (8, stochastic._BLOCK_ELEMENTS):
        increments = brownian_increments(19, 40, steps, 1.0)
        increments[row, 3] = np.nan
        max_step, max_path = square_identity_residuals(increments)
        assert math.isnan(max_step) and math.isnan(max_path)


def test_channels_normal_at_moderate_scale():
    # trials >= 1e4 is the documented regime for the KS checks
    increments = brownian_increments(3, 10_000, 300, 1.0)
    real_ch, imag_ch = sqrt_endpoint_statistics(increments)
    endpoints = increments.sum(axis=1)
    scaled = (endpoints - endpoints.mean()) / endpoints.std()
    assert ks_one_sample(scaled, std_normal_cdf).passes(0.01)
    assert ks_one_sample(real_ch, std_normal_cdf).passes(0.01)
    assert ks_one_sample(imag_ch, std_normal_cdf).passes(0.01)
    assert ks_two_sample(real_ch, imag_ch).passes(0.01)


def test_sqrt_endpoints_match_wick_rotated_path_sums():
    increments = brownian_increments(29, 150, 32, 1.0)
    real_ch, imag_ch = sqrt_endpoint_statistics(increments)
    raw = np.array([np.sum(sqrt_path(row)) for row in increments])
    rotated = raw * cmath.exp(-1j * math.pi / 4)
    for channel, values in ((real_ch, rotated.real), (imag_ch, rotated.imag)):
        rebuilt = (values - values.mean()) / values.std()
        assert np.abs(channel - rebuilt).max() <= 1e-12
