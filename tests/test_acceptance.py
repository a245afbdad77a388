"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria 1 and 2 share
one summary of the seed-42, 1e5 x 1e3 ensemble from
``stream_endpoint_statistics``, the engine ``fig3`` runs: it is bit-identical
to reducing the materialised ensemble, which it never holds, so the whole
module stays near 70 MiB of peak memory.
"""
import math
import time

import numpy as np
import pytest

import parcelwalk as pw
from parcelwalk.cli import EXIT_OK, main

SEED, TRIALS, STEPS, HORIZON = 42, 100_000, 1_000, 1.0
KS_THRESHOLD_1E5 = 1.628 / math.sqrt(TRIALS)  # alpha = 0.01
SUP_ERROR_THRESHOLD_N100 = 2.0e-4  # frozen from the brute-force oracle value 1.99219e-4


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} — {detail}")


@pytest.fixture(scope="module")
def main_summary():
    start = time.perf_counter()
    summary = pw.stream_endpoint_statistics(SEED, TRIALS, STEPS, HORIZON)
    return summary, time.perf_counter() - start


def test_criterion_1_fig3_reproduction(main_summary):
    summary, build_seconds = main_summary
    start = time.perf_counter()
    endpoints = summary.brownian_endpoints
    scaled = (endpoints - endpoints.mean()) / endpoints.std()
    ks_brownian = pw.ks_one_sample(scaled, pw.std_normal_cdf)
    real_ch, imag_ch = summary.real_channel, summary.imag_channel
    ks_real = pw.ks_one_sample(real_ch, pw.std_normal_cdf)
    ks_imag = pw.ks_one_sample(imag_ch, pw.std_normal_cdf)
    ks_channels = pw.ks_two_sample(real_ch, imag_ch)
    elapsed = build_seconds + time.perf_counter() - start

    ok = (ks_brownian.statistic <= KS_THRESHOLD_1E5
          and ks_real.statistic <= KS_THRESHOLD_1E5
          and ks_imag.statistic <= KS_THRESHOLD_1E5
          and ks_channels.passes(0.01))
    report("1", ok,
           f"KS brownian {ks_brownian.statistic:.2e}, real {ks_real.statistic:.2e}, "
           f"imag {ks_imag.statistic:.2e} vs {KS_THRESHOLD_1E5:.2e}; two-sample "
           f"{ks_channels.statistic:.2e} vs {ks_channels.threshold_at(0.01):.2e}; "
           f"runtime {elapsed:.1f}s")
    assert ks_brownian.statistic <= KS_THRESHOLD_1E5
    assert ks_real.statistic <= KS_THRESHOLD_1E5
    assert ks_imag.statistic <= KS_THRESHOLD_1E5
    assert ks_channels.passes(0.01)


def test_criterion_2_exact_square_root_identity(main_summary):
    summary, _ = main_summary
    max_step, max_path = summary.max_step_residual, summary.max_path_residual
    ok = max_step <= 1e-15 and max_path <= 1e-12
    report("2", ok, f"max per-step residual {max_step:.2e} (<= 1e-15 relative), "
                    f"max per-path residual {max_path:.2e} (<= 1e-12)")
    assert max_step <= 1e-15
    assert max_path <= 1e-12


def test_criterion_3_amplitude_modulus_law():
    worst_modulus = 0.0
    worst_norm = 0.0
    for n in range(1, 201):
        row = pw.qtpt_row(n)
        probs = [abs(a) ** 2 for a in row.values]
        worst_modulus = max(worst_modulus,
                            max(abs(p - pw.binomial_pmf(n, k)) for k, p in enumerate(probs)))
        worst_norm = max(worst_norm, abs(sum(probs) - 1.0))
    ok = worst_modulus <= 1e-10 and worst_norm <= 1e-10
    report("3", ok, f"max | |psi|^2 - pmf | = {worst_modulus:.2e}, "
                    f"max |sum - 1| = {worst_norm:.2e} over n <= 200")
    assert worst_modulus <= 1e-10
    assert worst_norm <= 1e-10


def test_criterion_4_gaussian_convergence():
    errors = {n: pw.row_sup_error(n, "classical") for n in (25, 100, 400)}
    ok = errors[25] > errors[100] > errors[400] and errors[100] <= SUP_ERROR_THRESHOLD_N100
    report("4", ok, f"sup errors {errors[25]:.3e} > {errors[100]:.3e} > {errors[400]:.3e}; "
                    f"n=100 within frozen {SUP_ERROR_THRESHOLD_N100:.1e}")
    assert errors[25] > errors[100] > errors[400]
    assert errors[100] <= SUP_ERROR_THRESHOLD_N100


def test_criterion_5_kernel_correspondence():
    spec = pw.KernelSpec(diffusion_D=0.5, hbar=1.0, mass_m=1.0)
    xs = np.linspace(-4.0, 4.0, 40)
    ts = np.linspace(0.1, 2.5, 25)
    grid = [(float(x), float(t)) for t in ts for x in xs]
    residual = pw.wick_identity_residual(spec, spec, grid)

    points = [(x, t) for x in (-1.5, -0.4, 0.0, 0.7, 2.0) for t in (0.5, 1.0, 2.0)]
    h = 1e-4
    heat_resid = max(
        abs((pw.heat_kernel(spec, x, t + h) - pw.heat_kernel(spec, x, t - h)) / (2 * h)
            - spec.diffusion_D * (pw.heat_kernel(spec, x + h, t)
                                  - 2 * pw.heat_kernel(spec, x, t)
                                  + pw.heat_kernel(spec, x - h, t)) / h**2)
        for x, t in points)
    h = 5e-5
    half = spec.hbar**2 / (2 * spec.mass_m)
    schrod_resid = max(
        abs(1j * (pw.schrodinger_kernel(spec, x, t + h)
                  - pw.schrodinger_kernel(spec, x, t - h)) / (2 * h)
            + half * (pw.schrodinger_kernel(spec, x + h, t)
                      - 2 * pw.schrodinger_kernel(spec, x, t)
                      + pw.schrodinger_kernel(spec, x - h, t)) / h**2)
        for x, t in points)

    ok = residual <= 1e-12 and heat_resid <= 1e-6 and schrod_resid <= 1e-6
    report("5", ok, f"identity residual {residual:.2e} on {len(grid)} points; "
                    f"PDE residuals heat {heat_resid:.2e}, free {schrod_resid:.2e}")
    assert residual <= 1e-12
    assert heat_resid <= 1e-6
    assert schrod_resid <= 1e-6


def test_criterion_6_clifford_suite():
    rng = np.random.default_rng(2024)
    exact = True
    for basis in (pw.pauli_basis(), pw.gamma_basis()):
        identity, *gens = basis
        for g in gens:
            exact &= np.array_equal(g @ g, identity)
        for i in range(3):
            for j in range(i + 1, 3):
                exact &= np.array_equal(gens[i] @ gens[j] + gens[j] @ gens[i],
                                        np.zeros((2, 2)))
    worst_scalar = 0.0
    worst_offdiag = 0.0
    for s, u, v in rng.uniform(-2.0, 2.0, size=(1000, 3)):
        scalar, offdiag = pw.dirac_symbol_square(s, u, v)
        worst_scalar = max(worst_scalar, abs(scalar - (s * s - u * u - v * v)))
        worst_offdiag = max(worst_offdiag, offdiag)
    ok = exact and worst_scalar <= 1e-12 and worst_offdiag <= 1e-12
    report("6", ok, f"generator identities exact: {exact}; symbol-square scalar gap "
                    f"{worst_scalar:.2e}, off-diagonal {worst_offdiag:.2e}")
    assert exact
    assert worst_scalar <= 1e-12
    assert worst_offdiag <= 1e-12


def test_criterion_7_circle_quantization():
    results = {n: pw.circle_quantization_residual(pw.circle_model(n))
               for n in (8, 16, 64, 256)}
    interior_ok = all(interior <= 1e-10 for interior, _ in results.values())
    wrap_ok = all(wrap == float(1 - n) for n, (_, wrap) in results.items())
    lengths_ok = (pw.length_quantization_check(2 * math.pi, 1e-6) == 1
                  and pw.length_quantization_check(4 * math.pi, 1e-6) == 2
                  and pw.length_quantization_check(7.0, 1e-6) is None)
    ok = interior_ok and wrap_ok and lengths_ok
    worst = max(interior for interior, _ in results.values())
    report("7", ok, f"interior residual <= {worst:.2e} for N in 8..256; wrap values exact; "
                    f"length rule correct on 2pi, 4pi, 7")
    assert interior_ok and wrap_ok and lengths_ok


def test_criterion_8_oscillator_quantization():
    worst_ratio = 0.0
    worst_identity = 0.0
    for energy, omega in ((1.0, 2.0), (3.7, 0.9), (0.2, 5.0)):
        vol = pw.oscillator_volumes(pw.OscillatorSpec(energy_E=energy, omega=omega))
        worst_ratio = max(worst_ratio,
                          abs(vol.classical_volume - 2 * math.pi * energy / omega))
    hbar, omega = 1.0, 1.3
    for n in range(11):
        energy = (n + 0.5) * hbar * omega
        vol = pw.oscillator_volumes(pw.OscillatorSpec(energy_E=energy, omega=omega,
                                                      hbar=hbar, n_quanta=n))
        worst_identity = max(worst_identity,
                             abs(vol.classical_volume - vol.quantized_volume))
    ok = worst_ratio <= 1e-12 and worst_identity <= 1e-12 * 2 * math.pi * 10.5
    report("8", ok, f"pi*a*b vs 2*pi*E/omega gap {worst_ratio:.2e}; quantized-volume "
                    f"identity gap {worst_identity:.2e} over n = 0..10")
    assert worst_ratio <= 1e-12
    assert worst_identity <= 1e-12 * 2 * math.pi * 10.5


def test_criterion_9_sphere_map_square():
    rng = np.random.default_rng(4242)
    u = rng.uniform(-2.0, 2.0, size=(10_000, 3))
    worst_scalar = 0.0
    worst_offdiag = 0.0
    for u1, u2, u3 in u:
        scalar, offdiag = pw.sphere_map_square((u1, u2, u3))
        worst_scalar = max(worst_scalar, abs(scalar - (u3 * u3 - u1 * u1 - u2 * u2)))
        worst_offdiag = max(worst_offdiag, offdiag)
    ok = worst_scalar <= 1e-12 and worst_offdiag <= 1e-12
    report("9", ok, f"scalar gap {worst_scalar:.2e}, off-diagonal {worst_offdiag:.2e} "
                    f"over 1e4 random points")
    assert worst_scalar <= 1e-12
    assert worst_offdiag <= 1e-12


def test_criterion_10_cli_determinism(tmp_path):
    args = ["fig3", "--seed", "7", "--trials", "20000", "--steps", "250", "--bins", "40"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = main([*args, "--out", str(out_a)])
    code_b = main([*args, "--out", str(out_b)])
    csvs = sorted(p.name for p in out_a.glob("*.csv"))
    identical = all((out_a / name).read_bytes() == (out_b / name).read_bytes()
                    for name in csvs)
    ok = identical and code_a == code_b == EXIT_OK
    report("10", ok, f"two identical-config runs, {len(csvs)} CSVs byte-identical: "
                     f"{identical}; exit codes {code_a}/{code_b}")
    assert code_a == EXIT_OK and code_b == EXIT_OK
    assert identical and csvs
