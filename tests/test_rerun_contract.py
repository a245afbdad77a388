"""A rerun into an existing run directory never leaves a stale manifest behind.

A run removes the old ``manifest.json`` right before it writes its first
artifact and writes the new one last, so after any rerun, failed or not,
the directory holds either no manifest or one whose every entry matches its
file.  A forked ``fig3`` worker that fails prints its traceback to stderr.
"""
import hashlib
import json
import os

import pytest

from parcelwalk import cli, stochastic
from parcelwalk.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, main

FIG3_ARGS = ["fig3", "--seed", "7", "--trials", "300", "--steps", "16"]
KERNELS_MISMATCH = ["kernels", "--diffusion", "0.25", "--hbar", "2", "--mass", "3"]


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_manifest_absent_or_current(out):
    path = out / "manifest.json"
    if not path.exists():
        return
    manifest = json.loads(path.read_text(encoding="utf-8"))
    for name, entry in manifest["artifacts"].items():
        [artifact] = [p for p in out.rglob(name) if p.is_file()]
        data = artifact.read_bytes()
        assert hashlib.sha256(data).hexdigest() == entry["sha256"], name
        assert len(data) == entry["bytes"], name


def test_failed_kernels_rerun_leaves_the_old_run_as_it_was(tmp_path):
    out = tmp_path / "run"
    assert main(["kernels", "--out", str(out)]) == EXIT_OK
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main([*KERNELS_MISMATCH, "--out", str(out)]) == EXIT_USAGE
    assert_manifest_absent_or_current(out)
    assert (out / "heat_kernel_grid.csv").read_bytes() == before["heat_kernel_grid.csv"]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_refused_kernels_run_creates_no_output_directory(tmp_path):
    out = tmp_path / "run"
    assert main([*KERNELS_MISMATCH, "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()


def fail_in_formatting_worker(monkeypatch):
    monkeypatch.setattr(stochastic, "_cpu_count", lambda: 2)
    parent = os.getpid()
    row_format = cli._csv_row_format

    def failing_format(header):
        row = row_format(header)

        def format_in(*values):
            if os.getpid() != parent:
                raise RuntimeError("planted failure in a formatting worker")
            return row(*values)

        return format_in

    monkeypatch.setattr(cli, "_csv_row_format", failing_format)


def test_fig3_rerun_with_a_failed_worker_leaves_no_stale_manifest(tmp_path, monkeypatch):
    out = tmp_path / "run"
    assert main([*FIG3_ARGS, "--out", str(out)]) == EXIT_OK
    fail_in_formatting_worker(monkeypatch)
    assert main([*FIG3_ARGS, "--out", str(out)]) == EXIT_IO
    assert_manifest_absent_or_current(out)


def test_failed_worker_traceback_reaches_stderr(tmp_path, monkeypatch, capfd):
    # A forked worker writes to file descriptor 2 itself, which only capfd sees.
    fail_in_formatting_worker(monkeypatch)
    assert main([*FIG3_ARGS, "--out", str(tmp_path / "run")]) == EXIT_IO
    err = capfd.readouterr().err
    assert "RuntimeError: planted failure in a formatting worker" in err
    assert "1 fig3 worker(s) failed" in err
