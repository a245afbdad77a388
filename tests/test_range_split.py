"""The fork helper, and the fig3 pass and endpoints.csv split into trial ranges by it.

``ranges.cpu_count`` is patched to force 1, 2 and 4 ranges.  Each range's
file comes back in range order; results and files must be the same bit for
bit for every range count, a worker's NaN and a worker's failure must reach
the parent, and no call may leave a file open or a temporary file behind
(``conftest.no_child_left`` fails a test that leaves a child unreaped).
"""
import hashlib
import json
import math
import os
import signal
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parcelwalk import cli, ranges, stochastic
from parcelwalk.cli import EXIT_IO, EXIT_OK, EXIT_STAT, main

FIG3_ARGS = ["fig3", "--seed", "7", "--trials", "300", "--steps", "16"]


def force_ranges(monkeypatch, n):
    monkeypatch.setattr(ranges, "cpu_count", lambda: n)


def fail_in(monkeypatch, where, how="raise"):
    """Make the block kernel fail in the parent or in every forked worker."""
    parent = os.getpid()
    kernel = stochastic._reduce_block

    def failing(block, *args, **kwargs):
        if (os.getpid() == parent) == (where == "parent"):
            if how == "signal":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError(f"planted failure in the {where}")
        return kernel(block, *args, **kwargs)

    monkeypatch.setattr(stochastic, "_reduce_block", failing)


# 100 x 1 is one block; 101 x 3000 and 1001 x 129 split inside a block at
# every range count; 3 x 5 has fewer trials than ranges.
@pytest.mark.parametrize("trials, steps", [(100, 1), (101, 3000), (1001, 129), (3, 5)])
def test_range_count_does_not_move_a_bit(monkeypatch, trials, steps):
    results = {}
    for n in (1, 2, 4):
        force_ranges(monkeypatch, n)
        w_T, endpoints, step, path = stochastic._stream_in_ranges(13, trials, steps, 0.5)
        results[n] = (w_T.tobytes(), endpoints.tobytes(), step.hex(), path.hex())
        if trials >= 100:
            summary = stochastic.stream_endpoint_statistics(13, trials, steps, 0.5)
            assert summary.brownian_endpoints.tobytes() == results[n][0]
    assert results[1] == results[2] == results[4]
    w_T, endpoints, step, path = stochastic._reduce_block(
        stochastic.increment_block(13, 0, trials, steps, 0.5))
    assert results[1] == (w_T.tobytes(), endpoints.tobytes(), step.hex(), path.hex())


def test_nan_in_a_worker_range_reaches_both_maxima(monkeypatch):
    force_ranges(monkeypatch, 2)
    source = stochastic._row_source

    def planting(seed, steps, horizon_T):
        fill = source(seed, steps, horizon_T)

        def fill_with_nan(rows, first_trial):
            fill(rows, first_trial)
            if first_trial <= 150 < first_trial + len(rows):
                rows[150 - first_trial, 3] = np.nan

        return fill_with_nan

    monkeypatch.setattr(stochastic, "_row_source", planting)
    w_T, endpoints, step, path = stochastic._stream_in_ranges(5, 200, 8, 1.0)
    assert math.isnan(step) and math.isnan(path)
    assert math.isnan(w_T[150])
    assert math.isnan(endpoints[150].real) and math.isnan(endpoints[150].imag)
    assert np.isfinite(np.delete(w_T, 150)).all()
    assert np.isfinite(np.delete(endpoints, 150)).all()


def run_artifacts(out):
    files = {path.name: path.read_bytes() for path in out.iterdir() if path.name != "manifest.json"}
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    return files, manifest["artifacts"]


def test_fig3_artifacts_are_byte_identical_for_one_and_two_ranges(tmp_path, monkeypatch):
    runs = []
    for n in (1, 2):
        force_ranges(monkeypatch, n)
        out = tmp_path / f"ranges{n}"
        assert main([*FIG3_ARGS, "--out", str(out)]) == EXIT_OK
        runs.append(run_artifacts(out))
    assert runs[0] == runs[1]
    for name, data in runs[0][0].items():
        assert runs[0][1][name]["sha256"] == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("how", ["raise", "signal"])
def test_failed_worker_exits_3_without_verdict_or_manifest(tmp_path, monkeypatch, capsys, how):
    force_ranges(monkeypatch, 2)
    fail_in(monkeypatch, "worker", how)
    out = tmp_path / "run"
    assert main([*FIG3_ARGS, "--out", str(out)]) == EXIT_IO
    assert not (out / "verdict.json").exists()
    assert not (out / "manifest.json").exists()
    assert "worker" in capsys.readouterr().err


def test_failure_in_the_parent_range_still_reaps_every_worker(monkeypatch):
    force_ranges(monkeypatch, 4)
    fail_in(monkeypatch, "parent")
    with pytest.raises(RuntimeError, match="parent"):
        stochastic.stream_endpoint_statistics(3, 400, 16, 1.0)


def test_cpu_count_falls_back_without_affinity_or_fork(monkeypatch):
    assert ranges.cpu_count() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity")
    assert ranges.cpu_count() == os.cpu_count()
    monkeypatch.delattr(os, "fork")
    assert ranges.cpu_count() == 1


def write_range(lo, hi, out):
    out.write(f"{os.getpid()} {lo} {hi}\n".encode())


def read_ranges(bounds, job=write_range):
    """``(pid, lo, hi)`` of every range's file, in the order ``join`` returns them."""
    with ranges.run_in_ranges(bounds, job) as join:
        parts = join()
        results = [tuple(int(word) for word in part.read().split()) for part in parts]
    assert all(part.closed for part in parts)
    return results


@pytest.mark.parametrize("items, cpus", [(10, 1), (10, 2), (10, 4), (3, 4)])
def test_run_in_ranges_returns_each_ranges_file_in_range_order(monkeypatch, items, cpus):
    force_ranges(monkeypatch, cpus)
    bounds = ranges.range_bounds(items)
    assert len(bounds) == min(items, cpus) + 1
    results = read_ranges(bounds)
    assert [(lo, hi) for _, lo, hi in results] == list(zip(bounds, bounds[1:]))
    assert bounds[0] == 0 and bounds[-1] == items
    pids = [pid for pid, _, _ in results]
    assert os.getpid() not in pids
    assert len(set(pids)) == len(pids)


def test_no_range_forks_nothing():
    with ranges.run_in_ranges([5], write_range) as join:
        assert join() == []


def test_without_fork_every_range_runs_in_the_caller_before_the_block(monkeypatch):
    force_ranges(monkeypatch, 3)
    monkeypatch.delattr(os, "fork")
    bounds = ranges.range_bounds(9)
    done = []

    def job(lo, hi, out):
        done.append(lo)
        write_range(lo, hi, out)

    with ranges.run_in_ranges(bounds, job) as join:
        assert done == bounds[:-1]
        results = [tuple(int(word) for word in part.read().split()) for part in join()]
    assert results == [(os.getpid(), lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def open_fds():
    return sorted(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("how, code", [("raise", 1), ("signal", -signal.SIGKILL)],
                         ids=["raise", "signal"])
def test_failed_worker_raises_leaving_no_file_open_or_behind(tmp_path, monkeypatch, how, code):
    force_ranges(monkeypatch, 4)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    bounds = ranges.range_bounds(8)

    def job(lo, hi, out):
        write_range(lo, hi, out)
        if lo == bounds[2]:
            if how == "signal":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("planted failure in a worker")

    fds = open_fds()
    # The traceback keeps the helper's frame, and so its files, alive: a
    # file the helper did not close is still open below.
    with pytest.raises(ChildProcessError) as failure:
        read_ranges(bounds, job)
    assert str(failure.value).startswith(f"1 worker(s) failed, exit codes [{code}]")
    assert open_fds() == fds
    assert list(tmp_path.iterdir()) == []


def test_a_block_that_never_joins_still_raises_for_a_failed_worker(tmp_path, monkeypatch):
    force_ranges(monkeypatch, 2)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))

    def job(lo, hi, out):
        os.kill(os.getpid(), signal.SIGKILL)

    fds = open_fds()
    with pytest.raises(ChildProcessError, match=r"2 worker\(s\) failed"):
        with ranges.run_in_ranges(ranges.range_bounds(4), job):
            pass
    assert open_fds() == fds
    assert list(tmp_path.iterdir()) == []


def test_failure_in_the_caller_raises_it_after_reaping_every_worker(tmp_path, monkeypatch):
    force_ranges(monkeypatch, 4)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))

    def job(lo, hi, out):
        time.sleep(0.2)  # still running when the caller's block fails
        write_range(lo, hi, out)

    fds = open_fds()
    with pytest.raises(KeyError) as failure:  # kept alive, as above
        with ranges.run_in_ranges(ranges.range_bounds(8), job):
            raise KeyError("planted failure in the caller")
    assert failure.value.args == ("planted failure in the caller",)
    # no_child_left checks that every worker was reaped
    assert open_fds() == fds
    assert list(tmp_path.iterdir()) == []


FIG3_FILES = ["endpoints.csv", "fig3_overlay.svg", "histograms.csv", "manifest.json",
              "verdict.json"]
ENDPOINTS_HEADER = ["trial", "brownian_scaled", "real_channel", "imag_channel"]


def write_trial_csv(path, header, columns):
    with cli._write_trial_csv(path, header, columns):
        pass


@pytest.mark.parametrize("trials, steps", [(100, 1), (1001, 129)])
def test_endpoints_csv_is_byte_identical_for_one_two_and_four_ranges(tmp_path, monkeypatch,
                                                                     trials, steps):
    csvs = set()
    for n in (1, 2, 4):
        force_ranges(monkeypatch, n)
        out = tmp_path / f"ranges{n}"
        args = ["fig3", "--seed", "7", "--trials", str(trials), "--steps", str(steps)]
        assert main([*args, "--out", str(out)]) in (EXIT_OK, EXIT_STAT)
        assert sorted(path.name for path in out.iterdir()) == FIG3_FILES
        csvs.add((out / "endpoints.csv").read_bytes())
    assert len(csvs) == 1


def test_trial_csv_with_fewer_trials_than_ranges_matches_the_serial_writer(tmp_path,
                                                                           monkeypatch):
    columns = [np.array([0.1, -0.0, 5e-324]), np.array([1.7e308, np.inf, -np.inf]),
               np.array([np.nan, -2.5, 1e-7])]
    serial = tmp_path / "serial.csv"
    cli._write_csv(serial, ENDPOINTS_HEADER, zip(range(3), *(c.tolist() for c in columns)))
    for n in (1, 2, 4):
        force_ranges(monkeypatch, n)
        split = tmp_path / f"ranges{n}.csv"
        write_trial_csv(split, ENDPOINTS_HEADER, columns)
        assert split.read_bytes() == serial.read_bytes()
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "ranges1.csv", "ranges2.csv", "ranges4.csv", "serial.csv"]


CSV_CHUNK = cli._CSV_CHUNK_ROWS


# Row counts on each side of a chunk boundary, and several chunks; one range
# puts every boundary in one file, three put the range boundaries inside chunks.
@pytest.mark.parametrize("rows", [CSV_CHUNK - 1, CSV_CHUNK, CSV_CHUNK + 1, 3 * CSV_CHUNK + 7])
def test_trial_csv_in_chunks_matches_the_whole_array_writer(tmp_path, monkeypatch, rows):
    rng = np.random.default_rng(rows)
    columns = [rng.standard_normal(rows), rng.standard_normal(rows) * 1e-300,
               np.resize([-0.0, 5e-324, np.inf, np.nan, 1.7e308], rows)]
    whole = tmp_path / "whole.csv"
    cli._write_csv(whole, ENDPOINTS_HEADER, zip(range(rows), *(c.tolist() for c in columns)))
    for n in (1, 3):
        force_ranges(monkeypatch, n)
        chunked = tmp_path / f"ranges{n}.csv"
        write_trial_csv(chunked, ENDPOINTS_HEADER, columns)
        assert chunked.read_bytes() == whole.read_bytes()


def fail_formatting(monkeypatch, how):
    """Make every forked worker fail while it formats its rows of endpoints.csv."""
    parent = os.getpid()
    row_format = cli._csv_row_format

    def failing_format(header):
        row = row_format(header)

        def format_in(*values):
            if os.getpid() != parent:
                if how == "signal":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("planted failure in a formatting worker")
            return row(*values)

        return format_in

    monkeypatch.setattr(cli, "_csv_row_format", failing_format)


@pytest.mark.parametrize("how", ["raise", "signal"])
def test_failed_formatting_worker_exits_3_leaving_no_output_directory(tmp_path, monkeypatch,
                                                                      capsys, how):
    force_ranges(monkeypatch, 2)
    fail_formatting(monkeypatch, how)
    out = tmp_path / "run"
    assert main([*FIG3_ARGS, "--out", str(out)]) == EXIT_IO
    assert not out.exists()
    assert "worker" in capsys.readouterr().err


def old_csv_bytes(header, rows):
    """The CSV writer's bytes before it formatted each row with one format call."""
    lines = [",".join(header) + "\n"]
    lines += [",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n"
              for row in rows]
    return "".join(lines).encode("utf-8")


CSV_VALUES = st.one_of(
    st.integers(), st.booleans(), st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.7e308, -1.7e308,
                     math.inf, -math.inf, math.nan]))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda width: st.lists(st.lists(CSV_VALUES, min_size=width, max_size=width), max_size=20)
    .map(lambda rows: (width, rows))))
def test_write_csv_bytes_match_the_repr_and_str_formula(width_rows):
    width, rows = width_rows
    header = [f"c{i}" for i in range(width)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        cli._write_csv(path, header, rows)
        assert path.read_bytes() == old_csv_bytes(header, rows)
