import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from parcelwalk import cli, geometry
from parcelwalk.clifford import gamma_basis
from parcelwalk.geometry import (
    OscillatorSpec,
    circle_model,
    circle_quantization_residual,
    fourier_modes,
    length_quantization_check,
    mode_shift,
    oscillator_volumes,
    sphere_map,
    sphere_map_square,
)

GI, G1, G2, G3 = gamma_basis()
SRC = Path(__file__).resolve().parents[1] / "src"


def dense_shift_commutator(modes, successor):
    """Mode-space oracle: Y^dagger [D, Y] from dense N x N complex products.

    D = diag(modes) and Y is the permutation matrix with Y e_j = e_successor[j].
    Returns ``(interior_residual, wrap_value)`` as circle_quantization_residual
    defines them: the wrap entry is the last diagonal one.
    """
    n = len(modes)
    deriv = np.diag(np.asarray(modes).astype(np.complex128))
    shift = np.zeros((n, n), dtype=np.complex128)
    shift[successor, np.arange(n)] = 1.0
    m = shift.conj().T @ (deriv @ shift - shift @ deriv)
    deviation = np.abs(m - np.eye(n))
    wrap_value = float(m[n - 1, n - 1].real)
    deviation[n - 1, n - 1] = 0.0
    return float(deviation.max()), wrap_value


def dense_circle_commutation(n):
    """Grid-side oracle: build Y and D on the sample grid, move to mode space.

    Multiplication by exp(i theta) and the spectral derivative are assembled
    from the DFT synthesis/analysis matrices directly, independent of the
    mode-shift construction under test.
    """
    j = np.arange(n)
    modes = fourier_modes(n)
    synthesis = np.exp(2j * np.pi * np.outer(j, modes) / n)          # modes -> grid
    analysis = np.exp(-2j * np.pi * np.outer(modes, j) / n) / n      # grid -> modes
    y_grid = np.diag(np.exp(2j * np.pi * j / n))
    d_grid = synthesis @ np.diag(modes.astype(complex)) @ analysis
    m_grid = y_grid.conj().T @ (d_grid @ y_grid - y_grid @ d_grid)
    return analysis @ m_grid @ synthesis


def test_circle_model_guard():
    with pytest.raises(ValueError):
        circle_model(3)
    assert circle_model(4).n_points == 4


def test_circle_quantization_n8():
    interior, wrap = circle_quantization_residual(circle_model(8))
    assert interior <= 1e-12
    assert wrap == -7.0


@pytest.mark.parametrize("n", [8, 16, 64, 256])
def test_circle_quantization_family(n):
    interior, wrap = circle_quantization_residual(circle_model(n))
    assert interior <= 1e-10
    assert wrap == float(1 - n)


@pytest.mark.parametrize("n", [8, 32])
def test_circle_quantization_against_dense_oracle(n):
    m = dense_circle_commutation(n)
    deviation = np.abs(m - np.eye(n))
    oracle_wrap = m[n - 1, n - 1].real
    deviation[n - 1, n - 1] = 0.0
    interior, wrap = circle_quantization_residual(circle_model(n))
    assert abs(deviation.max() - interior) <= 1e-10
    assert abs(oracle_wrap - wrap) <= 1e-10


def test_circle_quantization_equals_dense_products_exactly():
    for n in range(4, 202):
        expected = dense_shift_commutator(fourier_modes(n), mode_shift(n))
        assert circle_quantization_residual(circle_model(n)) == expected, n
        assert expected == (0.0, float(1 - n))


def shift_by_two(n):
    return (np.arange(n) + 2) % n


def gapped_ladder(n):
    modes = fourier_modes(n)
    return np.where(modes > 0, modes + 1, modes)


@pytest.mark.parametrize("patch, value", [("mode_shift", shift_by_two),
                                          ("fourier_modes", gapped_ladder)])
@pytest.mark.parametrize("n", [8, 33])
def test_wrong_shift_or_mode_ladder_fails_the_circle_verdict(tmp_path, monkeypatch,
                                                            patch, value, n):
    monkeypatch.setattr(geometry, patch, value)
    interior, wrap = circle_quantization_residual(circle_model(n))
    assert (interior, wrap) == dense_shift_commutator(geometry.fourier_modes(n),
                                                      geometry.mode_shift(n))
    out = tmp_path / "geo"
    args = ["geometry", "--report", "circle", "--circle-n", str(n), "--out", str(out)]
    assert cli.main(args) == cli.EXIT_STAT
    passed = {check["name"]: check["passed"]
              for check in json.loads((out / "verdict.json").read_text())["checks"]}
    assert (passed["circle_interior_residual"], passed["circle_wrap_error"]) == (False, False)


def whole_array_sphere_files(samples, seed):
    """The sphere report and verdict texts from one (samples, 3) draw and one batched square."""
    rng = np.random.Generator(np.random.Philox(key=seed, counter=0))
    u = rng.uniform(-1.0, 1.0, size=(samples, 3))
    scalar, offdiag = sphere_map_square(u)
    squares = u * u
    expected = squares[:, 2] - squares[:, 0] - squares[:, 1]
    gap = scalar - expected
    worst_offdiag = float(offdiag.max())
    worst_scalar_gap = float(np.hypot(gap.real, gap.imag).max())
    n_plus = int(np.count_nonzero(expected > 0))
    report = {"sections": {"sphere": {"plus_one_fraction": n_plus / samples}},
              "all_passed": True}
    verdict = {"checks": [cli._check("sphere_max_offdiag_residual", worst_offdiag, 1e-12),
                          cli._check("sphere_max_scalar_gap", worst_scalar_gap, 1e-12)],
               "all_passed": True}
    return {"geometry_report.json": cli._json_text("geometry_report.json", report),
            "verdict.json": cli._json_text("verdict.json", verdict)}


def assert_sphere_report_is_the_whole_array(out, samples, seed):
    args = ["geometry", "--report", "sphere", "--sphere-samples", str(samples),
            "--seed", str(seed), "--out", str(out)]
    assert cli.main(args) == cli.EXIT_OK
    for name, reference in whole_array_sphere_files(samples, seed).items():
        assert (out / name).read_text(encoding="utf-8") == reference, name


@pytest.mark.parametrize("extra", [-1, 0, 1, cli._SPHERE_CHUNK + 1])
def test_chunked_sphere_report_matches_the_whole_array(tmp_path, extra):
    assert_sphere_report_is_the_whole_array(tmp_path / "geo", cli._SPHERE_CHUNK + extra, 5)


# At seed 7 and 1e5 samples, squaring through libm pow instead of the
# correctly rounded product moves the last bit of sphere_max_scalar_gap.
def test_sphere_report_squares_the_points_as_products(tmp_path):
    assert_sphere_report_is_the_whole_array(tmp_path / "geo", 100_000, 7)


# On Linux a child's ru_maxrss starts at its parent's high-water RSS, which
# exec keeps, so each child is spawned from a fresh interpreter that imports
# nothing large, not from the test process.
PEAK_RSS = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_rss_mib(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", PEAK_RSS, sys.executable, *argv], env=env,
                            capture_output=True, text=True, timeout=120, check=True)
    code, maxrss_kib = map(int, result.stdout.split())
    assert code == 0
    return maxrss_kib / 1024


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_geometry_memory_stays_flat_in_the_sizes(tmp_path):
    baseline = _peak_rss_mib(["-c", "import numpy.random, parcelwalk.cli, parcelwalk.geometry"])
    run = _peak_rss_mib(["-m", "parcelwalk.cli", "geometry", "--report", "all",
                         "--circle-n", "1024", "--sphere-samples", "100000",
                         "--out", str(tmp_path / "geo")])
    assert run - baseline <= 8.0, (run, baseline)


def test_single_wrap_mode_fraction_shrinks():
    # exactly one deviant diagonal entry regardless of N, so the bad-mode
    # fraction is 1/N and vanishes in the continuum limit
    for n in (8, 64):
        m = dense_circle_commutation(n)
        bad = int((np.abs(np.diag(m) - 1.0) > 1e-6).sum())
        assert bad == 1


def test_length_quantization_examples():
    assert length_quantization_check(2 * math.pi, 1e-6) == 1
    assert length_quantization_check(4 * math.pi, 1e-6) == 2
    assert length_quantization_check(7.0, 1e-6) is None


def test_length_quantization_guards():
    with pytest.raises(ValueError):
        length_quantization_check(-1.0, 1e-6)
    with pytest.raises(ValueError):
        length_quantization_check(1.0, 0.0)


def test_length_quantization_short_lengths_never_round_to_zero():
    assert length_quantization_check(0.5, 1e-6) is None
    assert length_quantization_check(0.5, 10.0) == 1  # huge tol still targets n >= 1


def test_oscillator_volumes_example():
    vol = oscillator_volumes(OscillatorSpec(energy_E=1.0, omega=2.0))
    assert vol.classical_volume == pytest.approx(math.pi, abs=1e-14)


def test_oscillator_ground_state_quantized_volume():
    vol = oscillator_volumes(OscillatorSpec(energy_E=0.5, omega=1.0, hbar=1.0, n_quanta=0))
    assert vol.quantized_volume == pytest.approx(math.pi, abs=1e-14)


def test_oscillator_identity_across_levels():
    hbar, omega = 1.0, 1.7
    for n in range(11):
        energy = (n + 0.5) * hbar * omega
        vol = oscillator_volumes(OscillatorSpec(energy_E=energy, omega=omega,
                                                hbar=hbar, n_quanta=n))
        assert abs(vol.classical_volume - vol.quantized_volume) <= 1e-12 * vol.classical_volume


def test_oscillator_spec_validation():
    with pytest.raises(ValueError):
        OscillatorSpec(energy_E=0.0, omega=1.0)
    with pytest.raises(ValueError):
        OscillatorSpec(energy_E=1.0, omega=1.0, n_quanta=-1)


def test_oscillator_volumes_reject_an_overflowing_omega():
    with pytest.raises(ValueError, match="overflows"):
        oscillator_volumes(OscillatorSpec(energy_E=1.0, omega=1e200))


def test_sphere_map_basis_directions():
    assert np.array_equal(sphere_map((0.0, 0.0, 1.0)), G3)
    assert np.array_equal(sphere_map((1.0, 0.0, 0.0)), -1j * G1)
    r = 1 / math.sqrt(2)
    expected = (-1j * r) * (G1 + G2)
    assert np.abs(sphere_map((r, r, 0.0)) - expected).max() <= 1e-15


def test_sphere_map_square_classification():
    scalar, offdiag = sphere_map_square((0.0, 0.0, 1.0))
    assert scalar == 1.0 + 0j and offdiag == 0.0
    scalar, offdiag = sphere_map_square((1.0, 0.0, 0.0))
    assert scalar == -1.0 + 0j and offdiag == 0.0
    scalar, offdiag = sphere_map_square((1.0, 1.0, 1.0))
    assert scalar == -1.0 + 0j and offdiag == 0.0


def test_sphere_map_square_scalar_law_random():
    rng = np.random.default_rng(99)
    u = rng.uniform(-2.0, 2.0, size=(10_000, 3))
    for u1, u2, u3 in u:
        scalar, offdiag = sphere_map_square((u1, u2, u3))
        assert offdiag <= 1e-12
        assert abs(scalar - (u3 * u3 - u1 * u1 - u2 * u2)) <= 1e-12
