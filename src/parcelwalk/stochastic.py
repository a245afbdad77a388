"""Seeded Wiener ensembles, the {1, i} parcel process, and square-root paths.

The square root of a Brownian path is built per step: take the Bernoulli
sign B of each increment, map it to the parcel value Phi = (1+B)/2 +
i(1-B)/2 (so Phi**2 == B), and set the root increment to Phi * |dW|**(1/2).
Each root increment then squares back to its Brownian increment, which is
the strongest checkable meaning of "square root of a Wiener process".

Randomness uses one counter-based (Philox) substream per trial, keyed by
(seed, trial index), so any partition of trials across workers reproduces
the serial ensemble bit-exactly.

The same property lets ``fig3`` stream: ``stream_endpoint_statistics``
generates blocks of about 2**15 increments into one reused buffer, resetting
a single Philox generator to each trial's substream, and one block kernel
reduces every block to its per-trial W_T and square-root endpoint and to the
block's square-identity maxima.  The trials x steps ensemble is never held.
The reference is the ensemble built as one array with
``brownian_increments`` and reduced by ``sqrt_endpoint_statistics`` and
``square_identity_residuals``, each one call of the same kernel on the whole
array, which reads trials and steps from its shape.  Every row goes through
the same element operations whichever block holds it, so the streamed
results are bit-identical to the reference for any block size.

The pass runs on every CPU the process may use: the process reduces the
first contiguous range of trials itself inside ``ranges.run_in_ranges``,
which forks one worker per other range, each returning its rows and maxima
through a file.  A row's results do not depend on where the blocks split,
so they are the same bit for bit for any number of ranges, which is
recorded nowhere; the CLI formats ``endpoints.csv`` over the same ranges
while it computes the statistics.

The kernel works in real arithmetic: each root increment lies on one axis,
so its square is the real square of its parcel value times the square of
|dW|**(1/2).  The streamed pass gives it work buffers allocated once per
range, sized to the first (largest) block, so a block costs no fresh
allocations.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .ranges import range_bounds, run_in_ranges

# Rotation applied to sampled data: maps the parcel directions 1 and i to
# mirror-symmetric rays about the real axis.
WICK_FACTOR = cmath.exp(-1j * math.pi / 4.0)

# Increments per streamed block (at least one row): a block (256 KiB of
# doubles) and the kernel's temporaries stay near the size of a core's L2
# cache whatever the ensemble size.
_BLOCK_ELEMENTS = 2**15

# Parcel values of the signs +1 and -1, as parcel_from_bernoulli maps them;
# the block kernel squares each root increment through these.
_PARCEL = (1.0, 1j)


@dataclass(frozen=True)
class EndpointStatistics:
    """Per-trial summaries of one seeded ensemble: everything ``fig3`` reads from it."""

    brownian_endpoints: np.ndarray  # W_T per trial
    brownian_scaled: np.ndarray     # W_T standardized
    real_channel: np.ndarray        # standardized channels of the Wick-rotated
    imag_channel: np.ndarray        # square-root endpoints
    max_step_residual: float        # see square_identity_residuals
    max_path_residual: float


def _check_ensemble_args(seed: int, trials: int, steps: int, horizon_T: float) -> None:
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if trials < 1 or steps < 1:
        raise ValueError(f"trials and steps must be >= 1, got {trials}, {steps}")
    if not (horizon_T > 0 and math.isfinite(horizon_T)):
        raise ValueError(f"horizon_T must be positive and finite, got {horizon_T}")
    if not horizon_T / steps > 0:
        raise ValueError(f"the step variance horizon_T / steps = {horizon_T} / {steps} "
                         "rounds to 0")


def _block_rows(steps: int) -> int:
    return max(1, _BLOCK_ELEMENTS // steps)


def _row_source(seed: int, steps: int, horizon_T: float):
    """Return ``fill(rows, first_trial)``, writing trial first_trial + i into rows[i].

    One Philox and one Generator serve every row.  Before each row the bit
    generator is reset to the state a fresh ``Philox(key=seed,
    counter=trial << 192)`` starts in: the counter space is 256 bits, and the
    trial index in the top word gives every trial 2**192 private blocks.
    ``state`` is the snapshot of the fresh generator (output buffer spent,
    no cached 32-bit half), so only its counter changes between rows.
    """
    bit_generator = np.random.Philox(key=seed)
    generator = np.random.Generator(bit_generator)
    state = bit_generator.state
    # Plain lists: the setter reads them element by element either way, and
    # a list costs less to read and to write than a numpy uint64 array.
    counter = [0, 0, 0, 0]
    state["state"] = {"counter": counter, "key": state["state"]["key"].tolist()}
    state["buffer"] = state["buffer"].tolist()
    scale = math.sqrt(horizon_T / steps)

    def fill(rows: np.ndarray, first_trial: int) -> None:
        for i, row in enumerate(rows):
            counter[3] = first_trial + i
            bit_generator.state = state
            generator.standard_normal(out=row)
        # normal(0.0, scale) computes 0.0 + scale * z: the += 0.0 keeps its
        # bits by turning -0.0 into +0.0.
        rows *= scale
        rows += 0.0

    return fill


def increment_block(seed: int, first_trial: int, n_trials: int, steps: int,
                    horizon_T: float) -> np.ndarray:
    """Increment rows for trials [first_trial, first_trial + n_trials).

    Each row depends only on (seed, trial index), so any rows of the
    ensemble can be drawn alone, and blocks drawn in any order concatenate
    into the rows ``brownian_increments`` returns.  A trial index is one
    64-bit word of the Philox counter, so the range must lie in [0, 2**64).
    """
    _check_ensemble_args(seed, n_trials, steps, horizon_T)
    if not 0 <= first_trial <= 2**64 - n_trials:
        raise ValueError(f"trials [{first_trial}, {first_trial + n_trials}) "
                         "do not lie in [0, 2**64)")
    block = np.empty((n_trials, steps))
    _row_source(seed, steps, horizon_T)(block, first_trial)
    return block


def brownian_increments(seed: int, trials: int, steps: int, horizon_T: float) -> np.ndarray:
    """``(trials, steps)`` array of i.i.d. N(0, T/steps) increments, one trial per row.

    Bit-reproducible from the arguments.
    """
    return increment_block(seed, 0, trials, steps, horizon_T)


def parcel_from_bernoulli(bernoulli) -> np.ndarray:
    """Map signs to parcel values: +1 -> 1, -1 -> i; elementwise Phi**2 == B."""
    b = np.asarray(bernoulli)
    if not np.all((b == 1) | (b == -1)):
        raise ValueError("bernoulli entries must all be +1 or -1")
    return (1 + b) / 2.0 + 1j * (1 - b) / 2.0


def sqrt_path(increments) -> np.ndarray:
    """Root increments of one increment row: Phi * |dW|**(1/2) per step, complex.

    The sign of 0 is taken as +1; it cannot show, since |0|**(1/2) is 0 on
    either axis.
    """
    inc = np.asarray(increments, dtype=float)
    if inc.ndim != 1:
        raise ValueError(f"sqrt_path takes a single 1-D path, got shape {inc.shape}")
    return parcel_from_bernoulli(np.where(inc >= 0, 1, -1)) * np.sqrt(np.abs(inc))


def _work_buffers(rows: int, steps: int):
    """Work buffers of ``_reduce_block``: root, plus, minus and sign mask."""
    return (np.empty((rows, steps)), np.empty((rows, steps)), np.empty((rows, steps)),
            np.empty((rows, steps), dtype=bool))


def _real_squares(parcel) -> tuple[float, float]:
    squares = [complex(value) ** 2 for value in parcel]
    if any(square.imag != 0.0 for square in squares):
        raise ValueError(f"parcel values must square to real numbers, got {tuple(parcel)}")
    return squares[0].real, squares[1].real


def _reduce_block(block: np.ndarray, parcel=_PARCEL, work=None):
    """Per-row ``W_T`` and square-root endpoint, plus the block's square-identity maxima.

    Increments >= 0 (-0.0 included, as in ``sqrt_path``) take parcel
    1 and accumulate on the real axis; negative ones take parcel i and
    accumulate on the imaginary axis.  ``parcel`` holds the values of the
    signs +1 and -1 that each root increment is squared through; their
    squares must be real.

    The arithmetic is real: a root increment is nonzero on one axis only, so
    its square is ``sq+ * plus**2 + sq- * minus**2`` with ``sq+, sq-`` the
    squares of the two parcel values, bit for bit the real part of the
    complex square, whose imaginary part is 0.  A NaN increment has no sign
    and lands on both axes, as in ``sqrt_path``.

    Every step writes into ``work`` (``_work_buffers`` with at least
    ``len(block)`` rows; allocated here when not given), so a call makes no
    block-sized temporaries.
    """
    sq_plus, sq_minus = _real_squares(parcel)
    rows = len(block)
    root, plus, minus, mask = (buffer[:rows] for buffer in
                               work or _work_buffers(*block.shape))
    np.abs(block, out=root)
    np.sqrt(root, out=root)
    # root * mask is root or +0.0, and root - plus the other half of root.
    np.greater_equal(block, 0.0, out=mask)
    np.multiply(root, mask, out=plus)
    np.subtract(root, plus, out=minus)
    w_T = block.sum(axis=1)
    endpoints = plus.sum(axis=1) + 1j * minus.sum(axis=1)
    for channel, square in ((plus, sq_plus), (minus, sq_minus)):
        np.multiply(channel, channel, out=channel)
        channel *= square
    np.add(plus, minus, out=plus)
    path = np.abs(plus.sum(axis=1) - w_T).max()
    np.subtract(plus, block, out=plus)
    np.abs(plus, out=plus)
    np.abs(block, out=minus)
    np.maximum(minus, 1.0, out=minus)
    plus /= minus
    return w_T, endpoints, plus.max(), path


def _ensemble_array(increments) -> np.ndarray:
    """``increments`` as a float ``(trials, steps)`` array with at least one trial and step."""
    increments = np.asarray(increments, dtype=float)
    if increments.ndim != 2 or 0 in increments.shape:
        raise ValueError("increments must be a (trials, steps) array with trials, steps >= 1, "
                         f"got shape {increments.shape}")
    return increments


def _stream_in_ranges(seed: int, trials: int, steps: int, horizon_T: float):
    """``(w_T, endpoints, max_step, max_path)`` of the streamed ensemble, one range per CPU.

    Every range reduces into arrays allocated before the fork.  The process
    reduces the first range itself while one worker per other range runs;
    a worker writes its slices and its two maxima to its file as raw bytes,
    read back into place.
    """
    w_T = np.empty(trials)
    endpoints = np.empty(trials, dtype=np.complex128)
    rows = _block_rows(steps)

    def reduce_range(lo: int, hi: int) -> tuple[float, float]:
        # One block buffer and one set of work buffers, sized to the first
        # (largest) block, serve every block: each is reduced before the next
        # is drawn.  np.maximum, unlike max, lets a NaN residual of any block
        # reach the maxima instead of losing to 0.0.
        fill = _row_source(seed, steps, horizon_T)
        buffer = np.empty((min(rows, hi - lo), steps))
        work = _work_buffers(*buffer.shape)
        max_step = max_path = 0.0
        for first in range(lo, hi, rows):
            stop = min(first + rows, hi)
            block = buffer[:stop - first]
            fill(block, first)
            w_T[first:stop], endpoints[first:stop], step, path = _reduce_block(block, work=work)
            max_step, max_path = np.maximum(max_step, step), np.maximum(max_path, path)
        return float(max_step), float(max_path)

    def reduce_into(lo: int, hi: int, out) -> None:
        maxima = reduce_range(lo, hi)
        for array in (w_T[lo:hi], endpoints[lo:hi], np.array(maxima)):
            out.write(array)

    bounds = range_bounds(trials)
    with run_in_ranges(bounds[1:], reduce_into) as join:
        maxima = [reduce_range(bounds[0], bounds[1])]
        for lo, hi, part in zip(bounds[1:], bounds[2:], join()):
            part.readinto(w_T[lo:hi])
            part.readinto(endpoints[lo:hi])
            maxima.append(np.frombuffer(part.read()))
    max_step, max_path = np.maximum.reduce(maxima)
    return w_T, endpoints, float(max_step), float(max_path)


def _check_statistics_trials(trials: int) -> None:
    """Refuse an ensemble too small for endpoint statistics, before any pass over it."""
    if trials < 100:
        raise ValueError(f"endpoint statistics need >= 100 trials, got {trials}")


def _standardize(values: np.ndarray, what: str) -> np.ndarray:
    """``values`` centered and scaled by their population standard deviation."""
    with np.errstate(over="ignore"):
        sigma = values.std()
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise ValueError(f"degenerate ensemble: {what} spread is {sigma}")
    return (values - values.mean()) / sigma


def _standard_channels(endpoints: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rotated = endpoints * WICK_FACTOR
    return _standardize(rotated.real, "channel"), _standardize(rotated.imag, "channel")


def sqrt_endpoint_statistics(increments) -> tuple[np.ndarray, np.ndarray]:
    """Wick-rotated square-root endpoints, split into centered unit-variance channels.

    ``increments`` is a ``(trials, steps)`` array with at least 100 rows.
    Per trial: sum the square-root increments, rotate by exp(-i pi/4), and
    split into real and imaginary parts.  Each channel is then centered and
    scaled by its population standard deviation (the raw sums carry a
    positive drift from E|dW|**(1/2) that the rotation does not remove).
    """
    increments = _ensemble_array(increments)
    _check_statistics_trials(len(increments))
    _, endpoints, _, _ = _reduce_block(increments)
    return _standard_channels(endpoints)


def square_identity_residuals(increments) -> tuple[float, float]:
    """Worst-case defect of the defining identity over a ``(trials, steps)`` array.

    Returns ``(max_step, max_path)``: the max per-step value of
    |(dY)**2 - dW| / max(1, |dW|) and the max per-path value of
    |sum (dY)**2 - W_T|.  A NaN anywhere in the array makes both NaN.
    """
    _, _, max_step, max_path = _reduce_block(_ensemble_array(increments))
    return float(max_step), float(max_path)


def stream_endpoint_statistics(seed: int, trials: int, steps: int,
                               horizon_T: float) -> EndpointStatistics:
    """The ``fig3`` summaries of the seeded ensemble, generated and reduced block by block.

    Bit-identical to ``brownian_increments`` followed by
    ``sqrt_endpoint_statistics`` and ``square_identity_residuals``, while only
    one block of increments per process is held at a time.  The trials are
    reduced in one forked worker per extra CPU (see ``_stream_in_ranges``);
    a failed worker raises ``ChildProcessError``.
    """
    _check_ensemble_args(seed, trials, steps, horizon_T)
    _check_statistics_trials(trials)
    w_T, endpoints, max_step, max_path = _stream_in_ranges(seed, trials, steps, horizon_T)
    real_channel, imag_channel = _standard_channels(endpoints)
    return EndpointStatistics(brownian_endpoints=w_T,
                              brownian_scaled=_standardize(w_T, "endpoint"),
                              real_channel=real_channel, imag_channel=imag_channel,
                              max_step_residual=max_step, max_path_residual=max_path)

