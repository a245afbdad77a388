import functools
import hashlib
import json
import math

import pytest

from parcelwalk import cli, geometry, kernels, stochastic, triangle
from parcelwalk.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_STAT,
    EXIT_USAGE,
    build_parser,
    load_config_file,
    main,
)
from parcelwalk.geometry import oscillator_volumes
from parcelwalk.triangle import gaussian_approx_row

FAST_FIG3 = ["--seed", "1", "--trials", "2000", "--steps", "50", "--bins", "30"]


def read_table(path):
    """A CSV file's header line and its other lines split into fields."""
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    return header, [line.split(",") for line in lines]


def run_fig3(tmp_path, extra=()):
    out = tmp_path / "run"
    code = main(["fig3", *FAST_FIG3, "--out", str(out), *extra])
    return code, out


def test_fig3_writes_artifacts_and_passes(tmp_path):
    code, out = run_fig3(tmp_path)
    assert code == EXIT_OK
    for name in ("endpoints.csv", "histograms.csv",
                 "fig3_overlay.svg", "verdict.json", "manifest.json"):
        assert (out / name).exists(), name
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["all_passed"] is True
    assert len(verdict["checks"]) == 5
    assert verdict["square_identity"]["max_step_residual"] <= 1e-15


def test_fig3_histograms_count_the_endpoints_csv_columns(tmp_path):
    from parcelwalk.stats import histogram_build

    _, out = run_fig3(tmp_path)
    header, rows = read_table(out / "histograms.csv")
    assert header == "bin_lo,bin_hi,brownian_endpoints,sqrt_real_channel,sqrt_imag_channel"
    _, trials = read_table(out / "endpoints.csv")
    n_bins = int(FAST_FIG3[FAST_FIG3.index("--bins") + 1])
    for column in range(3):
        samples = [float(trial[1 + column]) for trial in trials]
        hist = histogram_build(samples, n_bins, (-4.5, 4.5))
        assert [float(row[0]) for row in rows] == hist.edges[:-1].tolist()
        assert [float(row[1]) for row in rows] == hist.edges[1:].tolist()
        assert [int(row[2 + column]) for row in rows] == hist.counts.tolist()


def test_fig3_runs_are_byte_identical(tmp_path):
    _, out_a = run_fig3(tmp_path / "a")
    _, out_b = run_fig3(tmp_path / "b")
    for name in ("endpoints.csv", "histograms.csv", "verdict.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_fig3_manifest_checksums_artifacts(tmp_path):
    _, out = run_fig3(tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "fig3"
    assert manifest["config"]["seed"] == 1
    recorded = manifest["artifacts"]["endpoints.csv"]["sha256"]
    actual = hashlib.sha256((out / "endpoints.csv").read_bytes()).hexdigest()
    assert recorded == actual


def test_fig3_refuses_tiny_trials(tmp_path):
    code = main(["fig3", "--trials", "10", "--out", str(tmp_path / "x")])
    assert code == EXIT_USAGE


def test_fig3_rejects_bad_flag_values(tmp_path):
    assert main(["fig3", "--trials", "abc"]) == EXIT_USAGE
    assert main(["fig3", "--alpha", "1.5", "--out", str(tmp_path / "x")]) == EXIT_USAGE
    assert main(["fig3", "--horizon", "-2", "--out", str(tmp_path / "x")]) == EXIT_USAGE


# 5e-324 halves to 0, which has no logarithm: the KS coefficient of such an
# alpha does not exist, and the run is refused before any ensemble is drawn.
def test_fig3_refuses_an_alpha_whose_half_underflows(tmp_path, monkeypatch, capsys):
    def no_ensemble(*args):
        raise AssertionError("the ensemble was simulated")

    monkeypatch.setattr(stochastic, "stream_endpoint_statistics", no_ensemble)
    out = tmp_path / "x"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha=5e-324\n")
    for source in (["--alpha", "5e-324"], ["--config", str(cfg)]):
        assert main(["fig3", *FAST_FIG3, *source, "--out", str(out)]) == EXIT_USAGE
        assert "alpha" in capsys.readouterr().err
    assert not out.exists()


# A config value goes through its flag's check.
@pytest.mark.parametrize("key, flag, value", [
    ("seed", "--seed", str(2**64)),
    ("trials", "--trials", "10"),
    ("steps", "--steps", "0"),
    ("horizon_T", "--horizon", "inf"),
    ("n_bins", "--bins", "0"),
    ("alpha", "--alpha", "1.5"),
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_each_fig3_config_key_is_checked_like_its_flag(tmp_path, capsys, key, flag, value,
                                                       source):
    out = tmp_path / "x"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value}\n")
    given = [flag, value] if source == "flag" else ["--config", str(cfg)]
    assert main(["fig3", *given, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("horizon", ["inf", "nan"])
def test_fig3_rejects_non_finite_horizon(tmp_path, horizon):
    out = tmp_path / "x"
    assert main(["fig3", *FAST_FIG3, "--horizon", horizon, "--out", str(out)]) == EXIT_USAGE
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"horizon_T={horizon}\n")
    assert main(["fig3", *FAST_FIG3, "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()


# Each size asks numpy for hundreds of GiB; the refused allocation is a
# usage error with a one-line message, not a traceback.
@pytest.mark.parametrize("flag", ["--trials", "--steps", "--bins"])
def test_fig3_reports_a_size_too_large_for_memory_as_usage_error(tmp_path, capsys, flag):
    args = ["fig3", "--trials", "100", "--steps", "1", flag, "100000000000"]
    assert main([*args, "--out", str(tmp_path / "x")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_fig3_bins_over_the_cap_are_refused_before_any_row_is_drawn(tmp_path, capsys,
                                                                    monkeypatch):
    def drawn(*args):
        raise AssertionError("rows were drawn")

    monkeypatch.setattr(stochastic, "stream_endpoint_statistics", drawn)
    out = tmp_path / "x"
    args = ["fig3", "--trials", "100", "--steps", "1", "--bins", str(cli.MAX_BINS + 1)]
    assert main([*args, "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: n_bins must")
    assert not out.exists()


def test_fig3_failing_before_its_first_file_creates_no_output_directory(tmp_path):
    out = tmp_path / "x"
    args = ["fig3", "--trials", "100", "--steps", "1", "--bins", "100000000000"]
    assert main([*args, "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()


def test_fig3_statistical_failure_exit_code(tmp_path):
    # alpha=0.99 shrinks the KS threshold below what a correct sampler
    # achieves; at this pinned seed every check fails
    code = main(["fig3", "--seed", "1", "--trials", "500", "--steps", "50",
                 "--alpha", "0.99", "--out", str(tmp_path / "x")])
    assert code == EXIT_STAT


def test_fig3_fails_when_the_roots_do_not_square_back(tmp_path, monkeypatch):
    # The parcel map {1, -1} leaves every endpoint, and so every KS check,
    # as it was, but a root increment of a negative step squares to +|dW|.
    monkeypatch.setattr(stochastic, "_reduce_block",
                        functools.partial(stochastic._reduce_block, parcel=(1.0, -1.0)))
    code, out = run_fig3(tmp_path)
    assert code == EXIT_STAT
    verdict = json.loads((out / "verdict.json").read_text())
    passed = {check["name"]: check["passed"] for check in verdict["checks"]}
    assert passed.pop("square_identity_max_step") is False
    assert all(passed.values())
    assert verdict["all_passed"] is False
    assert verdict["square_identity"]["max_step_residual"] > 1.0


def test_fig3_io_failure_exit_code(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("not a directory")
    code = main(["fig3", *FAST_FIG3, "--out", str(blocker)])
    assert code == EXIT_IO


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=9\ntrials=1500\nsteps=40\n# comment\nalpha=0.05\n")
    out = tmp_path / "run"
    code = main(["fig3", "--config", str(cfg), "--trials", "1800", "--out", str(out)])
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 9          # from file
    assert manifest["config"]["trials"] == 1800     # flag wins
    assert manifest["config"]["alpha"] == 0.05


def test_rerun_from_manifest_reproduces_artifacts(tmp_path):
    _, out_a = run_fig3(tmp_path / "a")
    out_b = tmp_path / "b" / "run"
    code = main(["fig3", "--config", str(out_a / "manifest.json"), "--out", str(out_b)])
    assert code == EXIT_OK
    for name in ("endpoints.csv", "histograms.csv", "verdict.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    manifest_a = json.loads((out_a / "manifest.json").read_text())
    manifest_b = json.loads((out_b / "manifest.json").read_text())
    assert manifest_a["artifacts"] == manifest_b["artifacts"]


def test_manifest_records_config_hash(tmp_path):
    _, out = run_fig3(tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    canonical = json.dumps(manifest["config"], sort_keys=True).encode()
    assert manifest["config_hash"] == hashlib.sha256(canonical).hexdigest()


def test_fig3_verdict_embeds_channel_reports(tmp_path):
    _, out = run_fig3(tmp_path)
    verdict = json.loads((out / "verdict.json").read_text())
    assert set(verdict) == {"checks", "all_passed", "square_identity", "channel_reports"}
    assert "gaussian_fits" not in verdict
    reports = verdict["channel_reports"]
    assert set(reports) == {"brownian_endpoints", "sqrt_real_channel", "sqrt_imag_channel"}
    for report in reports.values():
        assert set(report) == {"skewness", "excess_kurtosis"}
        assert all(math.isfinite(value) for value in report.values())


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "run.cfg"
    # the config file cannot name itself or replace the command
    for key in ("sede", "config", "run", "command"):
        cfg.write_text(f"{key}=9\n")
        assert main(["fig3", "--config", str(cfg), "--out", str(tmp_path / "x")]) == EXIT_USAGE
    cfg.write_text("just a line\n")
    assert main(["fig3", "--config", str(cfg), "--out", str(tmp_path / "x")]) == EXIT_USAGE


def test_load_config_file_parses_values(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 3\noutput_dir = some/dir  # trailing comment\n\n")
    assert load_config_file(str(cfg)) == {"seed": "3", "output_dir": "some/dir"}


def test_run_config_defaults_match_documented_experiment():
    config = build_parser().parse_args(["fig3"])
    assert (config.seed, config.trials, config.steps, config.horizon_T) == \
        (42, 100_000, 1_000, 1.0)
    assert config.alpha == 0.01


def test_triangle_classical_rows(tmp_path):
    out = tmp_path / "tri"
    code = main(["triangle", "--n-max", "4", "--kind", "classical", "--out", str(out)])
    assert code == EXIT_OK
    header, rows = read_table(out / "classical_rows.csv")
    assert header == "n,k,count,pmf"
    assert len(rows) == 15
    assert [count for n, _, count, _ in rows if n == "4"] == ["1", "4", "6", "4", "1"]
    assert not (out / "quantum_rows.csv").exists()
    # no amplitude row is built, so no check is made
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict == {"checks": [], "all_passed": True}
    assert not (out / "modulus_residuals.csv").exists()


def test_triangle_quantum_residual_verdict(tmp_path):
    out = tmp_path / "tri"
    code = main(["triangle", "--n-max", "25", "--kind", "quantum", "--out", str(out)])
    assert code == EXIT_OK
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["max_modulus_residual"] <= 1e-10
    assert (out / "modulus_residuals.csv").exists()
    assert (out / "sup_error.csv").exists()


def test_triangle_both_emits_two_kinds(tmp_path):
    # Tables smaller than one write buffer: each is closed before it is hashed.
    for n_max in ("1", "2"):
        out = tmp_path / f"tri{n_max}"
        assert main(["triangle", "--n-max", n_max, "--kind", "both", "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        for name, entry in manifest["artifacts"].items():
            data = (out / name).read_bytes()
            assert (len(data), hashlib.sha256(data).hexdigest()) == \
                (entry["bytes"], entry["sha256"]), (n_max, name)
    out = tmp_path / "tri"
    assert main(["triangle", "--n-max", "40", "--kind", "both", "--out", str(out)]) == EXIT_OK
    header = (out / "sup_error.csv").read_text().splitlines()[0]
    assert header == "n,classical_sup_error,quantum_sup_error"
    # Both tables round-trip bit for bit, the signed zeros of row 1 included.
    header, rows = read_table(out / "classical_rows.csv")
    assert header == "n,k,count,pmf"
    assert [(int(n), int(k), int(count), float(pmf).hex()) for n, k, count, pmf in rows] == [
        (n, k, count, pmf.hex()) for n in range(41) for row in [triangle.classical_row(n)]
        for k, (count, pmf) in enumerate(zip(row.values, row.probs))]
    header, rows = read_table(out / "quantum_rows.csv")
    assert header == "n,k,re,im,modulus2"
    assert [(int(n), int(k), *(float(x).hex() for x in floats)) for n, k, *floats in rows] == [
        (n, k, a.real.hex(), a.imag.hex(), p.hex()) for n in range(1, 41)
        for row in [triangle.qtpt_row(n)] for k, (a, p) in enumerate(zip(row.values, row.probs))]
    assert [im for n, _, _, im, _ in rows if n == "1"] == ["0.0", "0.0"]


def test_triangle_builds_one_gaussian_row_per_n(tmp_path, monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return gaussian_approx_row(n)

    monkeypatch.setattr(triangle, "gaussian_approx_row", counted)
    out = tmp_path / "tri"
    assert main(["triangle", "--n-max", "12", "--kind", "both", "--out", str(out)]) == EXIT_OK
    assert calls == list(range(1, 13))


def test_geometry_builds_each_oscillator_row_once(tmp_path, monkeypatch):
    calls = []

    def counted(spec):
        calls.append(spec.n_quanta)
        return oscillator_volumes(spec)

    monkeypatch.setattr(geometry, "oscillator_volumes", counted)
    out = tmp_path / "geo"
    argv = ["geometry", "--report", "oscillator", "--oscillator-n-max", "10", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert calls == list(range(11))


def test_triangle_range_guard(tmp_path):
    assert main(["triangle", "--n-max", "0", "--out", str(tmp_path / "x")]) == EXIT_USAGE
    assert main(["triangle", "--n-max", "1001", "--out", str(tmp_path / "x")]) == EXIT_USAGE


def test_geometry_full_report(tmp_path):
    out = tmp_path / "geo"
    code = main(["geometry", "--report", "all", "--sphere-samples", "500",
                 "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads((out / "geometry_report.json").read_text())
    assert report["all_passed"] is True
    assert set(report) == {"sections", "all_passed"}
    circle = report["sections"]["circle"]
    assert set(circle) == {"wrap_value", "length_checks"}
    assert circle["wrap_value"] == -63.0
    assert circle["length_checks"][repr(2 * math.pi)] == 1
    assert circle["length_checks"]["7.0"] is None
    rows = report["sections"]["oscillator"]["rows"]
    assert set(report["sections"]["oscillator"]) == {"rows"} and len(rows) == 11
    assert all(set(row) == {"n", "energy", "classical_volume", "quantized_volume"}
               for row in rows)
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["all_passed"] is True
    assert [check["name"] for check in verdict["checks"]] == [
        "oscillator_relative_gap", "circle_interior_residual", "circle_wrap_error",
        "circle_length_rule", "sphere_max_offdiag_residual", "sphere_max_scalar_gap"]
    assert set(report["sections"]["sphere"]) == {"plus_one_fraction"}
    assert 0.0 < report["sections"]["sphere"]["plus_one_fraction"] < 1.0


def test_geometry_single_section(tmp_path):
    out = tmp_path / "geo"
    code = main(["geometry", "--report", "circle", "--circle-n", "16", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads((out / "geometry_report.json").read_text())
    assert set(report["sections"]) == {"circle"}
    assert report["sections"]["circle"]["wrap_value"] == -15.0


def test_kernels_report(tmp_path):
    out = tmp_path / "ker"
    code = main(["kernels", "--out", str(out)])
    assert code == EXIT_OK
    verdict = json.loads((out / "verdict.json").read_text())
    [check] = verdict["checks"]
    assert check["name"] == "wick_identity_residual" and check["statistic"] <= 1e-12
    assert sorted(path.name for path in out.iterdir()) == [
        "kernel_grid.csv", "manifest.json", "verdict.json"]


def test_kernels_derives_the_diffusion_coefficient_from_hbar_and_mass(tmp_path):
    out = tmp_path / "ker"
    assert main(["kernels", "--hbar", "2", "--mass", "3", "--out", str(out)]) == EXIT_OK
    spec = kernels.KernelSpec(diffusion_D=1 / 3, hbar=2.0, mass_m=3.0)
    header, *lines = (out / "kernel_grid.csv").read_text().splitlines()
    assert header == "x,t,heat,schrodinger_re,schrodinger_im" and len(lines) == 1000
    for line in lines:
        x, t, heat, re, im = map(float, line.split(","))
        assert heat == kernels.heat_kernel(spec, x, t)
        assert complex(re, im) == kernels.schrodinger_kernel(spec, x, t)
    manifest = json.loads((out / "manifest.json").read_text())
    assert "diffusion" not in manifest["config"]


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == EXIT_USAGE
