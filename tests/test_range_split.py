"""The fig3 pass split into trial ranges reduced by forked workers.

The CPU-count helper is patched to force 1, 2 and 4 ranges.  Results must
be the same bit for bit for every range count, a worker's NaN and a
worker's failure must reach the parent, and no call may leave a child
process unreaped.
"""
import hashlib
import json
import math
import os
import signal

import numpy as np
import pytest

from parcelwalk import stochastic
from parcelwalk.cli import EXIT_IO, EXIT_OK, main

FIG3_ARGS = ["fig3", "--seed", "7", "--trials", "300", "--steps", "16"]


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def force_ranges(monkeypatch, n):
    monkeypatch.setattr(stochastic, "_cpu_count", lambda: n)


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
    assert stochastic._cpu_count() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity")
    assert stochastic._cpu_count() == os.cpu_count()
    monkeypatch.delattr(os, "fork")
    assert stochastic._cpu_count() == 1
