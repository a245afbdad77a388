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
generates blocks of about 2**17 increments into one reused buffer, resetting
a single Philox generator to each trial's substream, and one block kernel
reduces every block to its per-trial W_T and square-root endpoint and to the
block's square-identity maxima.  The trials x steps ensemble is never held,
and the results are bit-identical to building it with
``brownian_increments`` and reducing it with ``sqrt_endpoint_statistics``
and ``square_identity_residuals``, which run the same kernel over slices.

The pass runs on every CPU the process may use: the trials split into one
contiguous range per CPU, the calling process reduces the first range and a
forked worker each of the others, writing its rows and maxima into one
anonymous shared mapping.  A row's results do not depend on where the blocks
split, so the results are the same bit for bit for any number of ranges, and
that number is recorded nowhere.  The fork code lives in ``_run_in_ranges``
alone; the CLI formats ``endpoints.csv`` over the same ranges with it.
Whole-ensemble generation (``brownian_increments``) and its reductions stay
serial.

The kernel works in real arithmetic: each root increment lies on one axis,
so its square is the real square of its parcel value times the square of
|dW|**(1/2).  It writes
into work buffers allocated once per pass, sized to the first (largest)
block, so a block costs no fresh allocations.  Only the path sum of the
squares runs through a complex buffer, to keep the summation order, and so
the bits, of squaring through the complex parcel values.
"""
from __future__ import annotations

import cmath
import errno
import math
import mmap
import os
import sys
from dataclasses import dataclass

import numpy as np

from .clifford import CliffordElement, gamma_basis

# Rotation applied to sampled data: maps the parcel directions 1 and i to
# mirror-symmetric rays about the real axis.
WICK_FACTOR = cmath.exp(-1j * math.pi / 4.0)

# Increments per streamed block (at least one row): a block and the kernel's
# temporaries stay a few MiB whatever the ensemble size.
_BLOCK_ELEMENTS = 2**17

# Parcel values of the signs +1 and -1, as parcel_from_bernoulli maps them;
# the block kernel squares each root increment through these.
_PARCEL = (1.0, 1j)


@dataclass(frozen=True)
class PathEnsemble:
    """Seeded collection of Brownian increment rows, one trial per row."""

    seed: int
    trials: int
    steps: int
    horizon_T: float
    increments: np.ndarray  # shape (trials, steps), variance T/steps per entry


@dataclass(frozen=True)
class EndpointStatistics:
    """Per-trial summaries of one seeded ensemble: everything ``fig3`` reads from it."""

    brownian_endpoints: np.ndarray  # W_T per trial
    real_channel: np.ndarray        # standardized channels of the Wick-rotated
    imag_channel: np.ndarray        # square-root endpoints
    max_step_residual: float        # see square_identity_residuals
    max_path_residual: float


@dataclass(frozen=True)
class SqrtPath:
    """Square-root path derived from one row of Brownian increments."""

    bernoulli: np.ndarray        # {+1, -1} signs
    parcel: np.ndarray           # {1, i} values, parcel[j]**2 == bernoulli[j]
    sqrt_increments: np.ndarray  # complex; squares back to the increments
    partial_sums: np.ndarray     # running sum of sqrt_increments


@dataclass(frozen=True)
class SphereStepParams:
    """Coefficients of the sphere-valued step; all-zero defaults are inert."""

    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    e: float = 0.0
    f: float = 0.0
    g: float = 0.0
    k: float = 0.0
    m: float = 0.0
    dt: float = 1.0

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")


def _check_ensemble_args(seed: int, trials: int, steps: int, horizon_T: float) -> None:
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if trials < 1 or steps < 1:
        raise ValueError(f"trials and steps must be >= 1, got {trials}, {steps}")
    if not (horizon_T > 0 and math.isfinite(horizon_T)):
        raise ValueError(f"horizon_T must be positive and finite, got {horizon_T}")


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

    Building block for parallel generation: each row depends only on
    (seed, trial index), so blocks computed in any order concatenate into
    the same ensemble.
    """
    block = np.empty((n_trials, steps))
    _row_source(seed, steps, horizon_T)(block, first_trial)
    return block


def brownian_increments(seed: int, trials: int, steps: int, horizon_T: float) -> PathEnsemble:
    """Ensemble of i.i.d. N(0, T/steps) increments, bit-reproducible from the arguments."""
    _check_ensemble_args(seed, trials, steps, horizon_T)
    increments = increment_block(seed, 0, trials, steps, horizon_T)
    return PathEnsemble(seed=seed, trials=trials, steps=steps,
                        horizon_T=horizon_T, increments=increments)


def signs_to_bernoulli(increments) -> np.ndarray:
    """Elementwise sign as {+1, -1}; sign(0) = +1 (measure-zero tie-break)."""
    inc = np.asarray(increments)
    return np.where(inc >= 0, 1, -1)


def parcel_from_bernoulli(bernoulli) -> np.ndarray:
    """Map signs to parcel values: +1 -> 1, -1 -> i; elementwise Phi**2 == B."""
    b = np.asarray(bernoulli)
    if not np.all((b == 1) | (b == -1)):
        raise ValueError("bernoulli entries must all be +1 or -1")
    return (1 + b) / 2.0 + 1j * (1 - b) / 2.0


def sqrt_path(increments) -> SqrtPath:
    """Square-root path of one increment row: Phi * |dW|**(1/2) per step."""
    inc = np.asarray(increments, dtype=float)
    if inc.ndim != 1:
        raise ValueError(f"sqrt_path takes a single 1-D path, got shape {inc.shape}")
    bernoulli = signs_to_bernoulli(inc)
    parcel = parcel_from_bernoulli(bernoulli)
    sqrt_increments = parcel * np.sqrt(np.abs(inc))
    return SqrtPath(bernoulli=bernoulli, parcel=parcel,
                    sqrt_increments=sqrt_increments,
                    partial_sums=np.cumsum(sqrt_increments))


def wick_rotate_samples(z) -> np.ndarray:
    """Multiply samples by exp(-i pi/4); an isometry symmetrizing the parcel axes."""
    return np.asarray(z, dtype=np.complex128) * WICK_FACTOR


def _work_buffers(rows: int, steps: int):
    """Work buffers of ``_reduce_block``: root, plus, minus, sign mask, complex squares."""
    return (np.empty((rows, steps)), np.empty((rows, steps)), np.empty((rows, steps)),
            np.empty((rows, steps), dtype=bool), np.zeros((rows, steps), dtype=np.complex128))


def _real_squares(parcel) -> tuple[float, float]:
    squares = [complex(value) ** 2 for value in parcel]
    if any(square.imag != 0.0 for square in squares):
        raise ValueError(f"parcel values must square to real numbers, got {tuple(parcel)}")
    return squares[0].real, squares[1].real


def _reduce_block(block: np.ndarray, parcel=_PARCEL, work=None):
    """Per-row ``W_T`` and square-root endpoint, plus the block's square-identity maxima.

    Increments >= 0 (-0.0 included, as in ``signs_to_bernoulli``) take parcel
    1 and accumulate on the real axis; negative ones take parcel i and
    accumulate on the imaginary axis.  ``parcel`` holds the values of the
    signs +1 and -1 that each root increment is squared through; their
    squares must be real.

    The arithmetic is real: a root increment is nonzero on one axis only, so
    its square is ``sq+ * plus**2 + sq- * minus**2`` with ``sq+, sq-`` the
    squares of the two parcel values, bit for bit the real part of the
    complex square, whose imaginary part is 0.  The path sum still adds
    these squares as complex numbers with zero imaginary parts: numpy's
    pairwise summation groups complex elements differently from real ones,
    and a real sum moves the last bits of the path residual.  A NaN
    increment has no sign and lands on both axes, as in ``sqrt_path``.

    Every step writes into ``work`` (``_work_buffers`` with at least
    ``len(block)`` rows; allocated here when not given), so a call makes no
    block-sized temporaries.
    """
    sq_plus, sq_minus = _real_squares(parcel)
    rows = len(block)
    root, plus, minus, mask, squared = (buffer[:rows] for buffer in
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
    real = squared.real  # the imaginary slots are never written and stay 0
    np.add(plus, minus, out=real)
    path = np.abs(squared.sum(axis=1).real - w_T).max()
    np.subtract(real, block, out=plus)
    np.abs(plus, out=plus)
    np.abs(block, out=minus)
    np.maximum(minus, 1.0, out=minus)
    plus /= minus
    return w_T, endpoints, plus.max(), path


def _reduce_blocks(blocks, w_T: np.ndarray, endpoints: np.ndarray) -> tuple[float, float]:
    """Run the block kernel over ``(first_row, block)`` pairs; return the residual maxima.

    Row ``first_row + i`` of each block writes its ``W_T`` and square-root
    endpoint into that index of ``w_T`` and ``endpoints``.  The kernel's work
    buffers are sized to the first block, which is the largest, and every
    block uses their leading rows.  The maxima accumulate with ``np.maximum``
    so that a NaN residual in any block reaches the result instead of losing
    to 0.0.
    """
    max_step = max_path = 0.0
    work = None
    for lo, block in blocks:
        hi = lo + len(block)
        work = work or _work_buffers(*block.shape)
        w_T[lo:hi], endpoints[lo:hi], step, path = _reduce_block(block, work=work)
        max_step = np.maximum(max_step, step)
        max_path = np.maximum(max_path, path)
    return float(max_step), float(max_path)


def _reduce_ensemble(ensemble: PathEnsemble, chunk: int | None):
    """``(endpoints, max_step, max_path)`` of a materialised ensemble, ``chunk`` rows at a time."""
    rows = chunk or _block_rows(ensemble.steps)
    blocks = ((lo, ensemble.increments[lo:lo + rows]) for lo in range(0, ensemble.trials, rows))
    endpoints = np.empty(ensemble.trials, dtype=np.complex128)
    max_step, max_path = _reduce_blocks(blocks, np.empty(ensemble.trials), endpoints)
    return endpoints, max_step, max_path


def _streamed_blocks(seed: int, steps: int, horizon_T: float, first: int, stop: int):
    """Generate trials [first, stop) as ``(trial, block)`` pairs, block by block.

    One buffer serves every block: each is reduced before the next is drawn.
    """
    fill = _row_source(seed, steps, horizon_T)
    rows = _block_rows(steps)
    buffer = np.empty((min(rows, stop - first), steps))
    for lo in range(first, stop, rows):
        block = buffer[:min(rows, stop - lo)]
        fill(block, lo)
        yield lo, block


def _cpu_count() -> int:
    """CPUs this process may run on, or 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _range_bounds(n: int) -> list[int]:
    """Bounds of ``n`` items split into contiguous ranges, one per CPU, never more than ``n``.

    Range ``r`` is ``[bounds[r], bounds[r + 1])``.
    """
    ranges = min(n, _cpu_count())
    return [n * r // ranges for r in range(ranges + 1)]


def _run_in_ranges(bounds: list[int], job) -> None:
    """Run ``job(r, lo, hi)`` for every range of ``bounds``, each range in its own process.

    The caller runs range 0 itself after forking one worker per other range.
    A job shares nothing with the caller but what was set up before the
    fork: a worker returns its results through a shared mapping or a file
    opened beforehand.  A worker never returns into the caller's code: it
    leaves through ``os._exit``, which flushes no buffer, with status 0 only
    when its job returned; a job that raised prints its traceback to stderr
    first.  Every worker is reaped however the caller's own range ends; one
    that failed or was killed makes this raise ``ChildProcessError`` (an
    ``OSError``).

    Forking is safe here although numpy may have started BLAS threads: the
    jobs run only ufuncs, reductions, a Philox generator they create
    themselves, float formatting and file writes, none of which needs a lock
    that another thread could hold.
    """
    workers = []
    try:
        for r in range(1, len(bounds) - 1):
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    job(r, bounds[r], bounds[r + 1])
                    status = 0
                except Exception:
                    import traceback  # only a failing worker needs it

                    traceback.print_exc()
                    sys.stderr.flush()
                finally:
                    os._exit(status)
            workers.append(pid)
        job(0, bounds[0], bounds[1])
    finally:
        statuses = [os.waitpid(pid, 0)[1] for pid in workers]
    failed = [os.waitstatus_to_exitcode(status) for status in statuses if status != 0]
    if failed:
        raise ChildProcessError(f"{len(failed)} fig3 worker(s) failed, exit codes {failed} "
                                "(negative: killed by that signal)")


def _stream_in_ranges(seed: int, trials: int, steps: int, horizon_T: float):
    """``(w_T, endpoints, max_step, max_path)`` of the streamed ensemble, one range per CPU.

    ``_run_in_ranges`` reduces the trial ranges; each writes its rows and its
    two maxima straight into one anonymous shared mapping allocated before
    the fork.
    """
    bounds = _range_bounds(trials)
    ranges = len(bounds) - 1
    try:
        mapping = mmap.mmap(-1, 8 * (3 * trials + 2 * ranges))
    except OSError as exc:
        if exc.errno == errno.ENOMEM:
            raise MemoryError(f"cannot map the results of {trials} trials: {exc}") from None
        raise
    shared = np.frombuffer(mapping, dtype=np.float64)
    endpoints = shared[:2 * trials].view(np.complex128)
    w_T = shared[2 * trials:3 * trials]
    maxima = shared[3 * trials:].reshape(ranges, 2)

    def reduce_range(r: int, lo: int, hi: int) -> None:
        maxima[r] = _reduce_blocks(_streamed_blocks(seed, steps, horizon_T, lo, hi),
                                   w_T, endpoints)

    _run_in_ranges(bounds, reduce_range)
    max_step, max_path = np.maximum.reduce(maxima)
    return w_T, endpoints, float(max_step), float(max_path)


def _check_statistics_trials(trials: int) -> None:
    """Refuse an ensemble too small for endpoint statistics, before any pass over it."""
    if trials < 100:
        raise ValueError(f"endpoint statistics need >= 100 trials, got {trials}")


def _standard_channels(endpoints: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rotated = endpoints * WICK_FACTOR
    channels = []
    for values in (rotated.real, rotated.imag):
        sigma = values.std()
        if sigma == 0.0:
            raise ValueError("degenerate ensemble: channel has zero sample variance")
        channels.append((values - values.mean()) / sigma)
    return channels[0], channels[1]


def sqrt_endpoint_statistics(ensemble: PathEnsemble,
                             chunk: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Wick-rotated square-root endpoints, split into centered unit-variance channels.

    Per trial: sum the square-root increments, rotate by exp(-i pi/4), and
    split into real and imaginary parts.  Each channel is then centered and
    scaled by its population standard deviation (the raw sums carry a
    positive drift from E|dW|**(1/2) that the rotation does not remove).
    ``chunk`` rows are reduced at a time; the result does not depend on it.
    """
    _check_statistics_trials(ensemble.trials)
    endpoints, _, _ = _reduce_ensemble(ensemble, chunk)
    return _standard_channels(endpoints)


def square_identity_residuals(ensemble: PathEnsemble,
                              chunk: int | None = None) -> tuple[float, float]:
    """Worst-case defect of the defining identity over the whole ensemble.

    Returns ``(max_step, max_path)``: the max per-step value of
    |(dY)**2 - dW| / max(1, |dW|) and the max per-path value of
    |sum (dY)**2 - W_T|.  A NaN anywhere in the ensemble makes both NaN.
    """
    _, max_step, max_path = _reduce_ensemble(ensemble, chunk)
    return max_step, max_path


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
    return EndpointStatistics(brownian_endpoints=w_T, real_channel=real_channel,
                              imag_channel=imag_channel, max_step_residual=max_step,
                              max_path_residual=max_path)


def sphere_sqrt_step(params: SphereStepParams, dU1: float, dU2: float,
                     gamma0: CliffordElement | None = None) -> CliffordElement:
    """One sphere-valued step combining the two parcel channels.

    Signs of (dU1, dU2) give Bernoulli values B1, B2 and parcels Phi1, Phi2;
    the step is g2*(k + a*dt - i*b*dU2*B2)*Phi2 + g1*(m + c*dt -
    i*e*dU1*B1)*Phi1 + i*gamma0*(f*Phi1 + g*Phi2).  gamma0 is not pinned by
    the construction; it defaults to the third coordinate-side generator and
    can be overridden.
    """
    _, g1, g2, g3 = gamma_basis()
    if gamma0 is None:
        gamma0 = g3
    b1 = 1.0 if dU1 >= 0 else -1.0
    b2 = 1.0 if dU2 >= 0 else -1.0
    phi1 = 1.0 + 0.0j if b1 > 0 else 1.0j
    phi2 = 1.0 + 0.0j if b2 > 0 else 1.0j
    coeff2 = (params.k + params.a * params.dt - 1j * params.b * dU2 * b2) * phi2
    coeff1 = (params.m + params.c * params.dt - 1j * params.e * dU1 * b1) * phi1
    coeff0 = 1j * (params.f * phi1 + params.g * phi2)
    return coeff2 * g2 + coeff1 * g1 + coeff0 * gamma0


def check_unit_constraint(y: CliffordElement, tol: float) -> tuple[str, float]:
    """Classify Y**2 against +I / -I within ``tol`` (max-abs entry norm).

    Returns ``("plus_one" | "minus_one" | "violated", residual)`` where the
    residual is the distance to the nearer of the two targets.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    squared = y @ y
    identity = np.eye(2)
    r_plus = float(np.abs(squared - identity).max())
    r_minus = float(np.abs(squared + identity).max())
    if r_plus <= tol:
        return "plus_one", r_plus
    if r_minus <= tol:
        return "minus_one", r_minus
    return "violated", min(r_plus, r_minus)
