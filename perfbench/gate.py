"""Correctness gate for one ``parcelwalk.cli`` invocation's output directory.

``check`` returns the list of reasons the invocation failed (empty when it
passed) and the list of verdicts worth reporting that are not failures.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

EXIT_OK, EXIT_STAT = 0, 2
SQUARE_IDENTITY_TOL = 1e-12
MODULUS_TOL = 1e-10
STREAM_TRIALS = 32
STREAM_RTOL = 1e-9

VERDICT_FILES = {"fig3": "verdict.json", "triangle": "verdict.json",
                 "geometry": "geometry_report.json", "kernels": "verdict.json"}


def _manifest_failures(out_dir: Path) -> list[str]:
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    # The manifest keys artifacts by file name alone (triangle rows live in
    # rows/), so a name must match exactly one file under the output directory.
    by_name: dict[str, list[Path]] = {}
    for path in out_dir.rglob("*"):
        if path.is_file():
            by_name.setdefault(path.name, []).append(path)
    failures = []
    for name, entry in manifest["artifacts"].items():
        paths = by_name.get(name, [])
        if len(paths) != 1:
            failures.append(f"manifest artifact {name} matches {len(paths)} files")
            continue
        path = paths[0]
        data = path.read_bytes()
        if len(data) != entry["bytes"] or hashlib.sha256(data).hexdigest() != entry["sha256"]:
            failures.append(f"artifact {name} does not match its manifest entry")
    return failures


def reference_endpoints(seed: int, trials, steps: int) -> np.ndarray:
    """W_T / sqrt(T/S) per trial, rebuilt from one Philox substream per trial.

    Independent of parcelwalk: the stream contract is key=seed and a counter
    whose top 64-bit word is the trial index.
    """
    return np.array([
        np.random.Generator(np.random.Philox(key=seed, counter=int(t) << 192))
        .standard_normal(steps).sum()
        for t in trials
    ])


def stream_failures(out_dir: Path, seed: int, trials: int, steps: int) -> list[str]:
    """``brownian_scaled`` in endpoints.csv must be an affine image of the reference W_T."""
    picks = np.unique(np.concatenate([
        [0, trials - 1],
        np.random.default_rng([seed, trials, steps]).choice(trials, STREAM_TRIALS - 2,
                                                            replace=False),
    ]))
    table = np.loadtxt(out_dir / "endpoints.csv", delimiter=",", skiprows=1,
                       usecols=(0, 1))
    if table.shape[0] != trials or not np.array_equal(table[:, 0], np.arange(trials)):
        return [f"endpoints.csv does not hold trials 0..{trials - 1} in order"]
    observed = table[picks, 1]
    reference = reference_endpoints(seed, picks, steps)
    design = np.column_stack([reference, np.ones_like(reference)])
    (slope, offset), *_ = np.linalg.lstsq(design, observed, rcond=None)
    worst = np.abs(observed - (slope * reference + offset)).max()
    if not (slope > 0 and worst <= STREAM_RTOL * np.abs(observed).max()):
        return [f"brownian_scaled is not an affine image of the seeded stream "
                f"(slope {slope:.6g}, worst residual {worst:.3g})"]
    return []


def _fig3(report: dict, require_all: bool) -> tuple[list[str], list[str]]:
    failures, verdicts = [], []
    identity = report["square_identity"]
    for key in ("max_step_residual", "max_path_residual"):
        if not identity[key] <= SQUARE_IDENTITY_TOL:
            failures.append(f"square identity {key} = {identity[key]!r}")
    for check in report["checks"]:
        if check["passed"]:
            continue
        if check["name"] == "ks_brownian_endpoints_vs_normal" or require_all:
            failures.append(f"{check['name']} failed")
        else:
            verdicts.append(f"{check['name']} failed")
    return failures, verdicts


def check(command: str, out_dir: Path, exit_code: int, *, seed: int | None = None,
          trials: int | None = None, steps: int | None = None,
          require_all: bool = False) -> tuple[list[str], list[str]]:
    """Gate one invocation of ``command`` that wrote ``out_dir`` and exited ``exit_code``."""
    if exit_code not in (EXIT_OK, EXIT_STAT):
        return [f"{command} exited {exit_code}"], []
    try:
        report = json.loads((out_dir / VERDICT_FILES[command]).read_text(encoding="utf-8"))
        failures = _manifest_failures(out_dir)
        passed = report["all_passed"] if "all_passed" in report else report["passed"]
        if passed != (exit_code == EXIT_OK):
            failures.append(f"exit code {exit_code} disagrees with the verdict passed={passed}")
        verdicts = []
        if command == "fig3":
            fig3_failures, verdicts = _fig3(report, require_all)
            failures += fig3_failures
            failures += stream_failures(out_dir, seed, trials, steps)
        elif command == "triangle":
            if not report["max_modulus_residual"] <= MODULUS_TOL:
                failures.append(f"modulus residual {report['max_modulus_residual']!r}")
        elif not passed:
            failures.append(f"{command} report did not pass")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{command} output unreadable: {exc!r}"], []
    return failures, verdicts
