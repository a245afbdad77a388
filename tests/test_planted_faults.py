"""Planted faults: every verdict must fail when the physics is wrong.

Each row plants one fault at one seam (a module attribute the run calls),
runs a subcommand through ``cli.main`` and requires exit 2, ``all_passed``
false in ``verdict.json``, and the check record the row names failed.  A
counter in this process shows that the plant ran: a refactor that stops
calling the seam fails the row instead of passing it unseen.  (``fig3`` runs its first trial range in
this process, the others in forked copies of it, so the copies plant the
same fault.)

The verdicts that do not yet see their fault are ``xfail(strict=True)``,
with the ROADMAP item that fixes them as the reason; they name no check
yet.  A strict xfail that starts to pass fails the suite, so the change that
makes a verdict see its fault removes the mark and names the check that
sees it.  The mark only covers the verdict assertions: a plant that never
ran, or a run that errored, fails the row outright.
"""
import dataclasses
import json
import math

import numpy as np
import pytest

from parcelwalk import geometry, kernels, stochastic, triangle
from parcelwalk.cli import EXIT_OK, EXIT_STAT, main

FIG3 = ["fig3", "--seed", "42", "--trials", "20000", "--steps", "64"]
TRIANGLE = ["triangle", "--n-max", "200"]

FIG3_BLIND = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP: Exact `fig3` verdicts at every step count")
TRIANGLE_BLIND = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP: A `triangle` verdict that checks the Gaussian limit")


# Each plant is called as ``plant(original, *args)`` in place of the seam.

def increments_times_three(original, seed, steps, horizon_T):
    return original(seed, steps, 9.0 * horizon_T)


def drift_half_sd_per_step(original, seed, steps, horizon_T):
    fill = original(seed, steps, horizon_T)
    drift = 0.5 * math.sqrt(horizon_T / steps)

    def drifting(rows, first_trial):
        fill(rows, first_trial)
        rows += drift

    return drifting


def uniform_increments(original, seed, steps, horizon_T):
    half_width = math.sqrt(3.0 * horizon_T / steps)  # variance horizon_T / steps

    def fill(rows, first_trial):
        rng = np.random.default_rng([seed, first_trial])
        rows[...] = rng.uniform(-half_width, half_width, rows.shape)

    return fill


def gaussian_variance_times_1_5(original, n):
    var = 1.5 * n / 4.0
    return [math.exp(-((k - n / 2.0) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
            for k in range(n + 1)]


def gaussian_zero(original, n):
    return [0.0] * (n + 1)


def pascal_edge_two(original, row):
    n, counts = row.n + 1, [2, *original(row).values[1:-1], 2]
    return triangle.TriangleRow(n, counts, "classical", [c / (1 << n) for c in counts])


def tail_amplitudes_zeroed(original, n, classical):
    # Every amplitude whose pmf is under 1e-10: each absolute gap stays under
    # 1e-10, each relative one reads 1.
    row = original(n, classical)
    values = [0j if p < 1e-10 else a for a, p in zip(row.values, classical.probs)]
    return triangle.TriangleRow(n, values, "quantum", [abs(a) ** 2 for a in values])


def parcel_one_minus_one(original, *args, **kwargs):
    return original(*args, **kwargs, parcel=(1.0, -1.0))


def conjugated_propagator(original, *args):
    return original(*args).conjugate()


def g2_is_g1(original):
    identity, g1, _, g3 = original()
    return identity, g1, g1.copy(), g3


def oscillator_area_without_half(original, spec):
    volumes = original(spec)
    return dataclasses.replace(volumes,
                               quantized_volume=2.0 * math.pi * spec.n_quanta * spec.hbar)


def length_rule_without_tolerance(original, length, tol):
    return max(1, round(length / (2.0 * math.pi)))


@pytest.mark.parametrize("argv, module, seam, plant, failing", [
    pytest.param(FIG3, stochastic, "_row_source", increments_times_three, None,
                 marks=FIG3_BLIND, id="fig3-increments-x3"),
    pytest.param(FIG3, stochastic, "_row_source", drift_half_sd_per_step, None,
                 marks=FIG3_BLIND, id="fig3-drift-half-sd"),
    pytest.param(FIG3, stochastic, "_row_source", uniform_increments, None,
                 marks=FIG3_BLIND, id="fig3-uniform-increments"),
    pytest.param(TRIANGLE, triangle, "gaussian_approx_row", gaussian_variance_times_1_5, None,
                 marks=TRIANGLE_BLIND, id="triangle-gaussian-variance-x1.5"),
    pytest.param(TRIANGLE, triangle, "gaussian_approx_row", gaussian_zero, None,
                 marks=TRIANGLE_BLIND, id="triangle-gaussian-zero"),
    pytest.param(TRIANGLE, triangle, "next_classical_row", pascal_edge_two,
                 "classical_row_defects", id="triangle-pascal-edge-two"),
    pytest.param(TRIANGLE, triangle, "qtpt_row", tail_amplitudes_zeroed,
                 "max_modulus_relative_residual", id="triangle-tail-amplitudes-zeroed"),
    pytest.param(FIG3, stochastic, "_reduce_block", parcel_one_minus_one,
                 "square_identity_max_step", id="fig3-parcel-one-minus-one"),
    pytest.param(["kernels"], kernels, "schrodinger_kernel", conjugated_propagator,
                 "wick_identity_residual", id="kernels-conjugated-propagator"),
    pytest.param(["geometry", "--report", "sphere"], geometry, "gamma_basis", g2_is_g1,
                 "sphere_max_scalar_gap", id="geometry-g2-is-g1"),
    pytest.param(["geometry", "--report", "oscillator"], geometry, "oscillator_volumes",
                 oscillator_area_without_half, "oscillator_relative_gap",
                 id="geometry-oscillator-without-half"),
    pytest.param(["geometry", "--report", "circle"], geometry, "length_quantization_check",
                 length_rule_without_tolerance, "circle_length_rule",
                 id="geometry-length-rule-without-tolerance"),
])
def test_verdict_fails_on_a_planted_fault(tmp_path, monkeypatch, argv, module, seam, plant,
                                          failing):
    original = getattr(module, seam)
    calls = []

    def planted(*args, **kwargs):
        calls.append(None)
        return plant(original, *args, **kwargs)

    monkeypatch.setattr(module, seam, planted)
    out = tmp_path / "run"
    code = main([*argv, "--out", str(out)])
    # pytest.fail is not an AssertionError, so the xfail marks do not cover it.
    if not calls:
        pytest.fail(f"{module.__name__}.{seam} was never called: the fault was not planted")
    if code not in (EXIT_OK, EXIT_STAT):
        pytest.fail(f"the planted run exited {code} instead of giving a verdict")
    verdict = json.loads((out / "verdict.json").read_text(encoding="utf-8"))
    assert code == EXIT_STAT
    assert verdict["all_passed"] is False
    if failing is not None:
        passed = {check["name"]: check["passed"] for check in verdict["checks"]}
        assert passed[failing] is False
