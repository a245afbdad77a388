"""Differential tests of the streamed fig3 path against its slow oracles.

The block kernel is checked row by row against ``sqrt_path``, the reused
block source against a fresh Philox generator per trial, and the streaming
result against the materialised ensemble path.
"""
import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from parcelwalk import stochastic
from parcelwalk.stochastic import (
    brownian_increments,
    increment_block,
    parcel_from_bernoulli,
    sqrt_endpoint_statistics,
    sqrt_path,
    square_identity_residuals,
    stream_endpoint_statistics,
)

SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300,
                  1e300, -1e300, 1.7e308, -1.7e308]
increment_values = (st.floats(allow_nan=False, allow_infinity=False)
                    | st.sampled_from(SPECIAL_VALUES))
increment_blocks = arrays(
    np.float64,
    array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
    elements=increment_values,
)


def same(a, b) -> bool:
    return np.array_equal(a, b, equal_nan=True)


def test_kernel_parcel_values_are_the_parcel_map():
    assert np.array_equal(parcel_from_bernoulli([1, -1]), np.array(stochastic._PARCEL))


# Overflowing rows (sums of +-1.7e308) are part of the domain: both sides
# must then agree on inf and NaN.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(increment_blocks)
def test_block_kernel_matches_sqrt_path_row_by_row(block):
    w_T, endpoints, step, path = stochastic._reduce_block(block)
    row_steps, row_paths = [], []
    for i, row in enumerate(block):
        root_increments = sqrt_path(row)
        squared = root_increments ** 2
        assert same(w_T[i], row.sum())
        assert same(endpoints[i].real, root_increments.real.sum())
        assert same(endpoints[i].imag, root_increments.imag.sum())
        row_steps.append((np.abs(squared - row) / np.maximum(1.0, np.abs(row))).max())
        row_paths.append(abs(squared.real.sum() - row.sum()))
    assert same(step, np.max(row_steps))
    assert same(path, np.max(row_paths))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), first_trial=st.integers(0, 2**63),
       n_trials=st.integers(1, 5), steps=st.integers(1, 40),
       horizon=st.floats(1e-3, 1e3))
def test_block_source_matches_fresh_generator_per_trial(seed, first_trial, n_trials,
                                                        steps, horizon):
    block = increment_block(seed, first_trial, n_trials, steps, horizon)
    scale = math.sqrt(horizon / steps)
    for i, row in enumerate(block):
        fresh = np.random.Generator(np.random.Philox(key=seed, counter=(first_trial + i) << 192))
        assert row.tobytes() == fresh.normal(0.0, scale, steps).tobytes()


# 1001 x 129, 3001 x 129 and 700 x 1000 span several blocks with a partial
# last one; 150 x 1 is one partial block.
@pytest.mark.parametrize("trials, steps", [(1001, 129), (3001, 129), (700, 1000), (150, 1)])
def test_streaming_matches_materialised_ensemble_bit_for_bit(trials, steps):
    streamed = stream_endpoint_statistics(11, trials, steps, 2.0)
    increments = brownian_increments(11, trials, steps, 2.0)
    real_ch, imag_ch = sqrt_endpoint_statistics(increments)
    residuals = square_identity_residuals(increments)
    w_T = increments.sum(axis=1)
    assert streamed.brownian_endpoints.tobytes() == w_T.tobytes()
    assert streamed.brownian_scaled.tobytes() == ((w_T - w_T.mean()) / w_T.std()).tobytes()
    assert streamed.real_channel.tobytes() == real_ch.tobytes()
    assert streamed.imag_channel.tobytes() == imag_ch.tobytes()
    assert (streamed.max_step_residual, streamed.max_path_residual) == residuals


def test_streaming_one_partial_block_matches_materialised_ensemble():
    steps = 129
    trials = stochastic._block_rows(steps) - 3  # rows of 129 steps fill no whole block
    assert trials >= 100  # the streaming minimum
    test_streaming_matches_materialised_ensemble_bit_for_bit(trials, steps)


def test_wrong_parcel_map_fails_square_identity():
    block = increment_block(3, 0, 20, 64, 1.0)
    _, _, step, path = stochastic._reduce_block(block)
    assert step <= 1e-15 and path <= 1e-13
    _, _, step, path = stochastic._reduce_block(block, parcel=(1.0, -1.0))
    assert step > 1e-3 and path > 1e-3


# Work buffers are sized to the first block and reused by every later, smaller
# one: a leftover row from an earlier block must never reach a result.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_reused_work_buffers_match_a_fresh_kernel_per_block(data):
    steps = data.draw(st.integers(1, 12))
    row_counts = sorted(data.draw(st.lists(st.integers(1, 9), min_size=1, max_size=4)),
                        reverse=True)
    blocks = [data.draw(arrays(np.float64, (rows, steps), elements=increment_values))
              for rows in row_counts]
    fresh = [stochastic._reduce_block(block) for block in blocks]
    work = stochastic._work_buffers(*blocks[0].shape)
    for block, expected in zip(blocks, fresh):
        reused = stochastic._reduce_block(block, work=work)
        assert all(same(a, b) for a, b in zip(reused, expected))
    firsts = np.cumsum([0] + row_counts[:-1])
    w_T = np.empty(sum(row_counts))
    endpoints = np.empty(sum(row_counts), dtype=np.complex128)
    step, path = stochastic._reduce_blocks(zip(firsts, blocks), w_T, endpoints)
    assert same(w_T, np.concatenate([f[0] for f in fresh]))
    assert same(endpoints, np.concatenate([f[1] for f in fresh]))
    assert same(step, np.max([f[2] for f in fresh]))
    assert same(path, np.max([f[3] for f in fresh]))


def test_parcel_with_non_real_square_is_rejected():
    block = increment_block(3, 0, 4, 8, 1.0)
    with pytest.raises(ValueError):
        stochastic._reduce_block(block, parcel=(1.0, cmath.exp(1j * math.pi / 4)))


# A NaN increment has no sign; like sqrt_path, the kernel carries it into
# both endpoint axes instead of leaving it out of the sums.
def test_nan_increment_reaches_both_endpoint_axes():
    block = increment_block(3, 0, 3, 8, 1.0)
    block[1, 2] = np.nan
    _, endpoints, step, path = stochastic._reduce_block(block)
    reference = np.cumsum(sqrt_path(block[1]))[-1]
    assert math.isnan(reference.real) and math.isnan(reference.imag)
    assert math.isnan(endpoints[1].real) and math.isnan(endpoints[1].imag)
    assert np.isfinite(endpoints[[0, 2]]).all()
    assert math.isnan(step) and math.isnan(path)


def test_streaming_guards():
    with pytest.raises(ValueError):
        stream_endpoint_statistics(1, 99, 8, 1.0)
    for horizon in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            stream_endpoint_statistics(1, 200, 8, horizon)


def test_a_step_variance_that_rounds_to_zero_is_refused_before_any_row(monkeypatch):
    def no_rows(*args):
        raise AssertionError("a row source was built")

    monkeypatch.setattr(stochastic, "_row_source", no_rows)
    with pytest.raises(ValueError, match="horizon_T / steps"):
        stream_endpoint_statistics(1, 200, 8, 5e-324)


def test_too_few_trials_are_refused_before_any_row_is_generated(monkeypatch):
    def no_rows(*args):
        raise AssertionError("a row source was built")

    monkeypatch.setattr(stochastic, "_row_source", no_rows)
    with pytest.raises(ValueError, match="100 trials"):
        stream_endpoint_statistics(1, 99, 200_000, 1.0)
