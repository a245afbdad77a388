"""CLI run contract: strict JSON artifacts and usage errors for empty inputs.

A non-finite result fails the run instead of writing a bare ``NaN``.
"""
import json

import pytest

from parcelwalk import kernels
from parcelwalk.cli import EXIT_OK, EXIT_USAGE, main


def test_nan_residual_fails_without_writing_verdict_or_manifest(tmp_path, monkeypatch):
    monkeypatch.setattr(kernels, "wick_identity_residual", lambda *args: float("nan"))
    out = tmp_path / "ker"
    assert main(["kernels", "--out", str(out)]) != EXIT_OK
    assert not (out / "verdict.json").exists()
    assert not (out / "manifest.json").exists()
    for path in out.rglob("*"):
        assert "NaN" not in path.read_text(encoding="utf-8")


def test_written_json_is_strict(tmp_path):
    out = tmp_path / "tri"
    assert main(["triangle", "--n-max", "5", "--out", str(out)]) == EXIT_OK
    for name in ("verdict.json", "manifest.json"):
        json.loads((out / name).read_text(encoding="utf-8"), parse_constant=pytest.fail)


def test_geometry_rejects_an_empty_sphere_sample(tmp_path):
    out = tmp_path / "geo"
    args = ["geometry", "--report", "sphere", "--sphere-samples", "0", "--out", str(out)]
    assert main(args) == EXIT_USAGE
    assert not out.exists()
