import hashlib
import json
import math

import pytest

from parcelwalk.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_STAT,
    EXIT_USAGE,
    RunConfig,
    load_config_file,
    main,
)

FAST_FIG3 = ["--seed", "1", "--trials", "2000", "--steps", "50", "--bins", "30"]


def run_fig3(tmp_path, extra=()):
    out = tmp_path / "run"
    code = main(["fig3", *FAST_FIG3, "--out", str(out), *extra])
    return code, out


def test_fig3_writes_artifacts_and_passes(tmp_path):
    code, out = run_fig3(tmp_path)
    assert code == EXIT_OK
    for name in ("endpoints.csv", "hist_brownian_endpoints.csv",
                 "hist_sqrt_real_channel.csv", "hist_sqrt_imag_channel.csv",
                 "fig3_overlay.svg", "verdict.json", "manifest.json"):
        assert (out / name).exists(), name
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["all_passed"] is True
    assert len(verdict["checks"]) == 4
    assert verdict["square_identity"]["max_step_residual"] <= 1e-15


def test_fig3_runs_are_byte_identical(tmp_path):
    _, out_a = run_fig3(tmp_path / "a")
    _, out_b = run_fig3(tmp_path / "b")
    for name in ("endpoints.csv", "hist_brownian_endpoints.csv", "verdict.json"):
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


@pytest.mark.parametrize("horizon", ["inf", "nan"])
def test_fig3_rejects_non_finite_horizon(tmp_path, horizon):
    out = tmp_path / "x"
    assert main(["fig3", *FAST_FIG3, "--horizon", horizon, "--out", str(out)]) == EXIT_USAGE
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"horizon_T={horizon}\n")
    assert main(["fig3", *FAST_FIG3, "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()


def test_fig3_statistical_failure_exit_code(tmp_path):
    # alpha=0.99 shrinks the KS threshold below what a correct sampler
    # achieves; at this pinned seed every check fails
    code = main(["fig3", "--seed", "1", "--trials", "500", "--steps", "50",
                 "--alpha", "0.99", "--out", str(tmp_path / "x")])
    assert code == EXIT_STAT


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
    for name in ("endpoints.csv", "hist_brownian_endpoints.csv", "verdict.json"):
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
    report = verdict["channel_reports"]["sqrt_real_channel"]
    assert set(report) == {"mean", "variance", "skewness", "excess_kurtosis",
                           "ks_statistic", "ks_threshold", "verdict"}
    assert abs(report["mean"]) <= 1e-12
    assert report["variance"] == pytest.approx(1.0, abs=1e-12)


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sede=9\n")
    assert main(["fig3", "--config", str(cfg), "--out", str(tmp_path / "x")]) == EXIT_USAGE
    cfg.write_text("just a line\n")
    assert main(["fig3", "--config", str(cfg), "--out", str(tmp_path / "x")]) == EXIT_USAGE


def test_load_config_file_parses_values(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 3\noutput_dir = some/dir  # trailing comment\n\n")
    assert load_config_file(str(cfg)) == {"seed": "3", "output_dir": "some/dir"}


def test_run_config_defaults_match_documented_experiment():
    config = RunConfig()
    assert (config.seed, config.trials, config.steps, config.horizon_T) == \
        (42, 100_000, 1_000, 1.0)
    assert config.alpha == 0.01


def test_triangle_classical_rows(tmp_path):
    out = tmp_path / "tri"
    code = main(["triangle", "--n-max", "4", "--kind", "classical", "--out", str(out)])
    assert code == EXIT_OK
    rows = sorted((out / "rows").glob("classical_n*.csv"))
    assert len(rows) == 5
    last = rows[-1].read_text().strip().split("\n")
    assert [line.split(",")[1] for line in last[1:]] == ["1", "4", "6", "4", "1"]


def test_triangle_quantum_residual_verdict(tmp_path):
    out = tmp_path / "tri"
    code = main(["triangle", "--n-max", "25", "--kind", "quantum", "--out", str(out)])
    assert code == EXIT_OK
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["max_modulus_residual"] <= 1e-10
    assert (out / "modulus_residuals.csv").exists()
    assert (out / "sup_error.csv").exists()


def test_triangle_both_emits_two_kinds(tmp_path):
    out = tmp_path / "tri"
    assert main(["triangle", "--n-max", "3", "--kind", "both", "--out", str(out)]) == EXIT_OK
    assert (out / "rows" / "classical_n0003.csv").exists()
    assert (out / "rows" / "quantum_n0003.csv").exists()
    header = (out / "sup_error.csv").read_text().splitlines()[0]
    assert header == "n,classical_sup_error,quantum_sup_error"


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
    circle = report["sections"]["circle"]
    assert circle["wrap_value"] == -63.0
    assert circle["interior_residual"] <= 1e-10
    assert circle["length_checks"][repr(2 * math.pi)] == 1
    assert circle["length_checks"]["7.0"] is None
    oscillator = report["sections"]["oscillator"]
    assert all(row["passed"] for row in oscillator["rows"])
    sphere = report["sections"]["sphere"]
    assert sphere["plus_one_fraction"] + sphere["minus_one_fraction"] == pytest.approx(1.0)


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
    assert verdict["wick_identity_residual"] <= 1e-12
    assert (out / "heat_kernel_grid.csv").exists()
    assert (out / "schrodinger_kernel_grid.csv").exists()


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == EXIT_USAGE
