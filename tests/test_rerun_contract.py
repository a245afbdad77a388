"""A run that fails leaves its output directory exactly as it was.

Every artifact is staged in a ``.staging-*`` directory inside ``--out`` and
moved into place only when the run finishes, ``manifest.json`` last.  So a
failed rerun keeps the old run byte for byte, manifest included; a failed
first run makes no ``--out``; a file of the user's in ``--out`` survives
every run; and no run, finished or failed, leaves a staging directory
behind.  A forked ``fig3`` worker that fails prints its traceback to stderr.
A ``fig3`` statistics step that fails while the ``endpoints.csv`` workers
run leaves no child, open file or temporary file either.
"""
import hashlib
import json
import os
import signal
import tempfile
import time

import pytest

from parcelwalk import cli, kernels, ranges, stats, triangle
from parcelwalk.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, main

FIG3_ARGS = ["fig3", "--seed", "7", "--trials", "300", "--steps", "16"]
TRIANGLE_ARGS = ["triangle", "--n-max", "9"]
KERNELS_ARGS = ["kernels", "--hbar", "2", "--mass", "3"]


def assert_manifest_absent_or_current(out):
    path = out / "manifest.json"
    if not path.exists():
        return
    manifest = json.loads(path.read_text(encoding="utf-8"))
    for name, entry in manifest["artifacts"].items():
        data = (out / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == entry["sha256"], name
        assert len(data) == entry["bytes"], name


def nan_wick_residual(monkeypatch):
    """Fail a kernels run after its grid table is staged: its NaN verdict cannot be written."""
    monkeypatch.setattr(kernels, "wick_identity_residual", lambda *args: float("nan"))


def test_failed_kernels_rerun_leaves_the_old_run_as_it_was(tmp_path, monkeypatch):
    out = tmp_path / "run"
    assert main(["kernels", "--out", str(out)]) == EXIT_OK
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    nan_wick_residual(monkeypatch)
    assert main([*KERNELS_ARGS, "--out", str(out)]) == EXIT_USAGE
    assert_manifest_absent_or_current(out)
    assert (out / "kernel_grid.csv").read_bytes() == before["kernel_grid.csv"]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_refused_kernels_run_creates_no_output_directory(tmp_path, monkeypatch):
    out = tmp_path / "run"
    nan_wick_residual(monkeypatch)
    assert main([*KERNELS_ARGS, "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()


def in_formatting_workers(monkeypatch, plant):
    """Run ``plant()`` before each row a forked ``endpoints.csv`` worker formats."""
    monkeypatch.setattr(ranges, "cpu_count", lambda: 2)
    parent = os.getpid()
    row_format = cli._csv_row_format

    def planted_format(header):
        row = row_format(header)

        def format_in(*values):
            if os.getpid() != parent:
                plant()
            return row(*values)

        return format_in

    monkeypatch.setattr(cli, "_csv_row_format", planted_format)


def fail_in_formatting_worker(monkeypatch):
    def fail():
        raise RuntimeError("planted failure in a formatting worker")

    in_formatting_workers(monkeypatch, fail)


def kill_a_formatting_worker(monkeypatch):
    in_formatting_workers(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))


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
    assert "2 worker(s) failed, exit codes [1, 1]" in err


def fail_at_row_7(monkeypatch):
    qtpt_row = triangle.qtpt_row

    def failing_row(n, classical):
        if n == 7:
            raise OSError("planted failure at row 7")
        return qtpt_row(n, classical)

    monkeypatch.setattr(triangle, "qtpt_row", failing_row)


def fail_at_the_manifest(monkeypatch):
    """Fail at the last point before the files move into place: every artifact is staged."""
    json_text = cli._json_text

    def failing_json_text(name, payload):
        if name == "manifest.json":
            raise OSError("planted failure at the manifest")
        return json_text(name, payload)

    monkeypatch.setattr(cli, "_json_text", failing_json_text)


def fail_at_staging(monkeypatch):
    """Fail where the staging directory is made: ``--out`` exists, nothing is staged yet."""
    def failing_mkdtemp(*args, **kwargs):
        raise OSError(28, "planted failure at the staging directory")

    monkeypatch.setattr(tempfile, "mkdtemp", failing_mkdtemp)


GEOMETRY_ARGS = ["geometry", "--circle-n", "8", "--sphere-samples", "10"]
FAILED_RUNS = pytest.mark.parametrize("args, plant", [
    (FIG3_ARGS, fail_in_formatting_worker),
    (FIG3_ARGS, kill_a_formatting_worker),
    (TRIANGLE_ARGS, fail_at_row_7),
    (FIG3_ARGS, fail_at_the_manifest),
    (TRIANGLE_ARGS, fail_at_the_manifest),
    (GEOMETRY_ARGS, fail_at_the_manifest),
    (["kernels"], fail_at_the_manifest),
    (["kernels"], fail_at_staging),
], ids=["fig3-worker", "fig3-killed-worker", "triangle-row-7", "fig3-manifest", "triangle-manifest",
        "geometry-manifest", "kernels-manifest", "kernels-staging"])


def snapshot(out):
    """Every entry under ``out``, hidden ones included, with the bytes of each file."""
    return {str(p.relative_to(out)): p.read_bytes() if p.is_file() else None
            for p in out.rglob("*")}


@FAILED_RUNS
def test_failed_rerun_leaves_the_old_run_byte_identical(tmp_path, monkeypatch, args, plant):
    out = tmp_path / "run"
    assert main([*args, "--out", str(out)]) == EXIT_OK
    before = snapshot(out)
    assert "manifest.json" in before
    plant(monkeypatch)
    assert main([*args, "--out", str(out)]) == EXIT_IO
    assert snapshot(out) == before


@FAILED_RUNS
def test_failed_first_run_makes_no_output_directory(tmp_path, monkeypatch, args, plant):
    out = tmp_path / "run"
    plant(monkeypatch)
    assert main([*args, "--out", str(out)]) == EXIT_IO
    assert not out.exists()


def open_fds():
    return sorted(os.listdir("/proc/self/fd"))


def test_a_statistics_failure_while_the_csv_workers_run_leaves_no_trace(tmp_path, monkeypatch):
    out = tmp_path / "run"
    assert main([*FIG3_ARGS, "--out", str(out)]) == EXIT_OK
    before = snapshot(out)
    temp = tmp_path / "tmp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    waited = []

    def wait_before_the_first_row():
        # so both workers are still formatting when the statistics fail
        if not waited:
            waited.append(True)
            time.sleep(0.2)

    in_formatting_workers(monkeypatch, wait_before_the_first_row)
    running = []

    def failing_two_sample(a, b):
        # WNOWAIT leaves every worker for the helper to reap; None: none has exited.
        running.append(os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None)
        raise ValueError("planted failure in the statistics")

    monkeypatch.setattr(stats, "ks_two_sample", failing_two_sample)
    fds = open_fds()
    assert main([*FIG3_ARGS, "--out", str(out)]) == EXIT_USAGE
    assert main([*FIG3_ARGS, "--out", str(tmp_path / "first")]) == EXIT_USAGE
    assert running == [True, True]
    # no_child_left checks that every worker was reaped
    assert open_fds() == fds
    assert list(temp.iterdir()) == []
    assert snapshot(out) == before
    assert not (tmp_path / "first").exists()


def test_a_users_file_in_out_survives_finished_and_failed_runs(tmp_path, monkeypatch):
    out = tmp_path / "run"
    out.mkdir()
    notes = out / "notes.txt"
    notes.write_text("kept\n", encoding="utf-8")
    assert main([*TRIANGLE_ARGS, "--out", str(out)]) == EXIT_OK
    assert notes.read_text(encoding="utf-8") == "kept\n"
    fail_at_row_7(monkeypatch)
    assert main([*TRIANGLE_ARGS, "--out", str(out)]) == EXIT_IO
    assert notes.read_text(encoding="utf-8") == "kept\n"
    assert_manifest_absent_or_current(out)
    assert (out / "manifest.json").exists()


def test_no_staging_directory_is_left_behind(tmp_path, monkeypatch):
    out = tmp_path / "run"
    assert main([*TRIANGLE_ARGS, "--out", str(out)]) == EXIT_OK
    assert main([*TRIANGLE_ARGS, "--out", str(out)]) == EXIT_OK
    assert not list(out.rglob(".staging-*"))
    assert sorted(p.name for p in out.iterdir()) == [
        "classical_rows.csv", "manifest.json", "modulus_residuals.csv", "quantum_rows.csv",
        "sup_error.csv", "verdict.json"]
    fail_at_row_7(monkeypatch)
    assert main([*TRIANGLE_ARGS, "--out", str(out)]) == EXIT_IO
    assert not list(out.rglob(".staging-*"))
    assert_manifest_absent_or_current(out)


def test_a_rerun_removes_the_old_runs_files_it_does_not_write(tmp_path):
    out = tmp_path / "run"
    assert main([*TRIANGLE_ARGS, "--kind", "both", "--out", str(out)]) == EXIT_OK
    assert main([*TRIANGLE_ARGS, "--kind", "classical", "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    files = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert files == sorted(manifest["artifacts"]) == [
        "classical_rows.csv", "sup_error.csv", "verdict.json"]
    assert_manifest_absent_or_current(out)


def test_a_rerun_keeps_a_stale_file_that_was_edited(tmp_path):
    out = tmp_path / "run"
    assert main([*TRIANGLE_ARGS, "--kind", "both", "--out", str(out)]) == EXIT_OK
    edited = out / "quantum_rows.csv"
    edited.write_text("mine\n", encoding="utf-8")
    assert main([*TRIANGLE_ARGS, "--kind", "classical", "--out", str(out)]) == EXIT_OK
    assert edited.read_text(encoding="utf-8") == "mine\n"
    assert not (out / "modulus_residuals.csv").exists()


OLD_KERNEL_GRIDS = ["heat_kernel_grid.csv", "schrodinger_kernel_grid.csv"]


def old_kernels_run(out):
    """A run directory in the layout kernels wrote before one table held both kernels."""
    out.mkdir()
    artifacts = {}
    for name in OLD_KERNEL_GRIDS:
        data = f"x,t,re,im\n-4.0,0.1,{len(name)}.0,0.0\n".encode("utf-8")
        (out / name).write_bytes(data)
        artifacts[name] = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    (out / "manifest.json").write_text(json.dumps({"command": "kernels", "artifacts": artifacts}),
                                       encoding="utf-8")


@pytest.mark.parametrize("edited", [None, *OLD_KERNEL_GRIDS])
def test_a_kernels_rerun_removes_the_old_grid_files_it_replaces(tmp_path, edited):
    out = tmp_path / "run"
    old_kernels_run(out)
    kept = {}
    if edited is not None:  # same size, other bytes: only the sha256 tells
        kept[edited] = (out / edited).read_bytes().replace(b"-4.0", b"-5.0")
        (out / edited).write_bytes(kept[edited])
    assert main(["kernels", "--out", str(out)]) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["kernel_grid.csv", "manifest.json", "verdict.json", *kept])
    for name, data in kept.items():
        assert (out / name).read_bytes() == data
    assert_manifest_absent_or_current(out)


def test_a_planted_manifest_key_deletes_nothing_outside_out(tmp_path):
    out = tmp_path / "run"
    outside = tmp_path / "x"
    outside.write_bytes(b"outside\n")
    assert main([*KERNELS_ARGS, "--out", str(out)]) == EXIT_OK
    path = out / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["artifacts"]["../x"] = {"sha256": hashlib.sha256(b"outside\n").hexdigest(),
                                     "bytes": 8}
    path.write_text(json.dumps(manifest), encoding="utf-8")
    assert main([*TRIANGLE_ARGS, "--out", str(out)]) == EXIT_OK
    assert outside.read_bytes() == b"outside\n"
    # an old manifest that does not parse removes nothing and fails nothing
    path.write_text("{not json", encoding="utf-8")
    assert main([*KERNELS_ARGS, "--out", str(out)]) == EXIT_OK
    assert (out / "sup_error.csv").exists()


@pytest.mark.parametrize("size", [0, 1, cli._HASH_READ - 1, cli._HASH_READ, cli._HASH_READ + 1,
                                  2 * cli._HASH_READ + 3])
def test_file_digest_equals_the_whole_file_hash(tmp_path, size):
    path = tmp_path / "artifact"
    path.write_bytes(os.urandom(size))
    assert cli._file_digest(path) == (hashlib.sha256(path.read_bytes()).hexdigest(), size)
