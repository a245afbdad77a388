"""CLI run contract: one verdict schema, strict JSON artifacts and usage errors for empty inputs.

A non-finite result fails the run instead of writing a bare ``NaN``.  A
property over drawn ``geometry`` and ``kernels`` argv, in range and out,
checks the exit code and what each run leaves in ``--out``.
"""
import hashlib
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from parcelwalk import cli, geometry, kernels
from parcelwalk.cli import EXIT_OK, EXIT_STAT, EXIT_USAGE, main


def test_nan_residual_fails_without_writing_verdict_or_manifest(tmp_path, monkeypatch):
    monkeypatch.setattr(kernels, "wick_identity_residual", lambda *args: float("nan"))
    out = tmp_path / "ker"
    assert main(["kernels", "--out", str(out)]) != EXIT_OK
    assert not (out / "verdict.json").exists()
    assert not (out / "manifest.json").exists()
    for path in out.rglob("*"):
        assert "NaN" not in path.read_text(encoding="utf-8")


def test_failed_first_run_leaves_no_parent_directory_it_made(tmp_path, monkeypatch):
    monkeypatch.setattr(kernels, "wick_identity_residual", lambda *args: float("nan"))
    assert main(["kernels", "--out", str(tmp_path / "a" / "b" / "c")]) == EXIT_USAGE
    assert not (tmp_path / "a").exists()


def test_written_json_is_strict(tmp_path):
    out = tmp_path / "tri"
    assert main(["triangle", "--n-max", "5", "--out", str(out)]) == EXIT_OK
    for name in ("verdict.json", "manifest.json"):
        json.loads((out / name).read_text(encoding="utf-8"), parse_constant=pytest.fail)


def conjugated_propagator(monkeypatch):
    original = kernels.schrodinger_kernel
    monkeypatch.setattr(kernels, "schrodinger_kernel", lambda *args: original(*args).conjugate())


@pytest.mark.parametrize("argv, plant", [
    (["fig3", "--trials", "500", "--steps", "8"], None),
    (["triangle", "--n-max", "5"], None),
    (["geometry", "--sphere-samples", "200"], None),
    (["kernels"], None),
    (["kernels"], conjugated_propagator),
], ids=["fig3", "triangle", "geometry", "kernels", "kernels-planted-failure"])
def test_every_run_writes_one_verdict_schema(tmp_path, monkeypatch, argv, plant):
    if plant is not None:
        plant(monkeypatch)
    out = tmp_path / "run"
    code = main([*argv, "--out", str(out)])
    verdict = json.loads((out / "verdict.json").read_text(encoding="utf-8"))
    checks = verdict["checks"]
    assert checks and all({"name", "statistic", "threshold", "passed"} <= set(check)
                          for check in checks)
    names = [check["name"] for check in checks]
    assert len(set(names)) == len(names)
    assert verdict["all_passed"] is all(check["passed"] for check in checks)
    assert code == (EXIT_OK if verdict["all_passed"] else EXIT_STAT)
    assert verdict["all_passed"] is (plant is None)


@pytest.mark.parametrize("argv", [
    ["fig3", "--trials", "500", "--steps", "8"],
    ["triangle", "--n-max", "5"],
    ["geometry", "--sphere-samples", "200"],
    ["kernels"],
], ids=["fig3", "triangle", "geometry", "kernels"])
def test_out_holds_the_manifests_files_and_no_subdirectory(tmp_path, argv):
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert all(path.is_file() for path in out.iterdir())
    assert sorted(path.name for path in out.iterdir()) == sorted(
        [*manifest["artifacts"], "manifest.json"])


def test_geometry_rejects_an_empty_sphere_sample(tmp_path):
    out = tmp_path / "geo"
    args = ["geometry", "--report", "sphere", "--sphere-samples", "0", "--out", str(out)]
    assert main(args) == EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["geometry", "--omega", "1e308"],
    ["geometry", "--omega", "1e200", "--report", "oscillator"],
    ["geometry", "--omega", "inf"],
    ["geometry", "--omega", "nan"],
    ["geometry", "--omega", "0"],
    ["geometry", "--hbar", "-1"],
    ["geometry", "--hbar", "inf"],
    ["geometry", "--hbar", "1e300", "--omega", "1e10"],
    ["geometry", "--report", "oscillator", "--oscillator-n-max", "-5"],
    ["geometry", "--oscillator-n-max", str(cli.MAX_OSCILLATOR_N + 1)],
    ["geometry", "--circle-n", "100000"],
    ["geometry", "--circle-n", "3"],
    ["geometry", "--sphere-samples", str(cli.MAX_SPHERE_SAMPLES + 1)],
    ["geometry", "--seed", "-1"],
    ["kernels", "--hbar", "1e308", "--mass", "1e-308"],
    ["kernels", "--hbar", "inf"],
    ["kernels", "--hbar", "nan"],
    ["kernels", "--mass", "inf"],
    ["fig3", "--seed", str(2**64), "--trials", "100", "--steps", "4"],
    ["fig3", "--trials", "100000000000", "--steps", "4"],
    ["fig3", "--trials", "100", "--steps", "1", "--horizon", "1e308"],
    ["geometry", "--report", "oscillator", "--omega", "1e-170"],
    ["geometry", "--hbar", "1e308"],
    ["geometry", "--hbar", "1e307", "--oscillator-n-max", "1000"],
    ["kernels", "--hbar", "1e308"],
    ["kernels", "--mass", "1e-308"],
    ["kernels", "--hbar", "1e-307"],
    ["kernels", "--hbar", "1e-320"],
    ["geometry", "--omega", "1e-160"],
    ["triangle", "--n-max", "0"],
    ["triangle", "--n-max", "1001"],
    ["fig3", "--steps", "0"],
    ["fig3", "--bins", "0"],
    ["fig3", "--trials", "100", "--steps", "3", "--horizon", "5e-324"],
])
def test_bad_input_is_a_usage_error_before_any_write(tmp_path, capsys, monkeypatch, argv):
    def staged(*args, **kwargs):
        raise AssertionError("a run directory was staged")

    monkeypatch.setattr(tempfile, "mkdtemp", staged)
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


def test_an_oscillator_row_out_of_range_is_a_usage_error_where_it_is_built(
        tmp_path, capsys, monkeypatch):
    original = geometry.oscillator_volumes

    def failing_at_row_5(spec):
        if spec.n_quanta == 5:
            raise ValueError("row 5 out of range")
        return original(spec)

    monkeypatch.setattr(geometry, "oscillator_volumes", failing_at_row_5)
    out = tmp_path / "geo"
    assert main(["geometry", "--oscillator-n-max", "10", "--out", str(out)]) == EXIT_USAGE
    assert "--hbar 1.0 and --omega 1.0 put an oscillator row" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, named", [
    (["--hbar", "inf"], "hbar must"),
    (["--mass", "0"], "mass must"),
    (["--hbar", "1e308", "--mass", "1e-308"], "hbar/(2*mass) must"),
    (["--hbar", "1e308"], "--hbar 1e+308 and --mass 1.0"),
    (["--mass", "1e-308"], "--hbar 1.0 and --mass 1e-308"),
    (["--hbar", "1e-307"], "--hbar 1e-307 and --mass 1.0"),
    (["--hbar", "1e-320"], "--hbar 1e-320 and --mass 1.0"),
])
def test_kernels_usage_error_names_the_flag_or_the_quotient(tmp_path, capsys, argv, named):
    assert main(["kernels", *argv, "--out", str(tmp_path / "run")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert named in err and "diffusion" not in err


@pytest.mark.parametrize("report, flag, cap", [
    ("circle", "--circle-n", cli.MAX_CIRCLE_N),
    ("oscillator", "--oscillator-n-max", cli.MAX_OSCILLATOR_N),
])
def test_geometry_accepts_each_size_at_its_cap(tmp_path, report, flag, cap):
    assert main(["geometry", "--report", report, flag, str(cap),
                 "--out", str(tmp_path / "geo")]) == EXIT_OK


# Each flag's values in range, kept small so that a drawn run is quick.
VALID_FLAGS = {
    "geometry": {"--report": st.sampled_from(["circle", "oscillator", "sphere", "all"]),
                 "--circle-n": st.integers(4, 300),
                 "--oscillator-n-max": st.integers(0, 40),
                 "--hbar": st.floats(1e-3, 1e3),
                 "--omega": st.floats(1e-3, 1e3),
                 "--sphere-samples": st.integers(1, 5000),
                 "--seed": st.integers(0, 2**128 - 1)},
    "kernels": {"--hbar": st.floats(1e-3, 1e3), "--mass": st.floats(1e-3, 1e3)},
}
# Texts any flag may get: no integer among them is a size in range that takes long.
ANY_TEXT = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "-0", "-0.0", "1e-320", "1e308", "1e400",
                     str(2**64), str(2**128), "", "x", "torus", "1_0", " 7 "]),
    st.floats().map(repr), st.integers(max_value=3).map(str),
    st.integers(min_value=10**7 + 1).map(str))


@st.composite
def drawn_argv(draw):
    command = draw(st.sampled_from(sorted(VALID_FLAGS)))
    wild = draw(st.booleans())  # half the runs give each flag any text
    texts = {flag: st.one_of(valid.map(str), ANY_TEXT) if wild else valid.map(str)
             for flag, valid in VALID_FLAGS[command].items()}
    flags = draw(st.fixed_dictionaries({}, optional=texts))
    return [command, *(text for flag in flags.items() for text in flag)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=drawn_argv())
def test_a_drawn_geometry_or_kernels_run_keeps_the_run_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "parent" / "run"
        code = main([*argv, "--out", str(out)])
        event(f"{argv[0]} exit {code}")
        assert code in (0, 1, 2, 3)
        if code == EXIT_USAGE:
            assert not (Path(tmp) / "parent").exists()
        if code not in (EXIT_OK, EXIT_STAT):
            return
        documents = {path.name: json.loads(path.read_text(encoding="utf-8"),
                                           parse_constant=pytest.fail)
                     for path in out.glob("*.json")}
        artifacts = documents["manifest.json"]["artifacts"]
        assert sorted(path.name for path in out.iterdir()) == sorted(
            [*artifacts, "manifest.json"])
        for name, entry in artifacts.items():
            data = (out / name).read_bytes()
            assert (len(data), hashlib.sha256(data).hexdigest()) == (entry["bytes"],
                                                                     entry["sha256"])
        assert documents["verdict.json"]["all_passed"] is (code == EXIT_OK)
