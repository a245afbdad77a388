"""Peak Python-heap bounds on fig3's per-trial stages, read with ``tracemalloc``.

numpy reports its array buffers to ``tracemalloc``, so each peak counts the
arrays a stage makes as well as its Python objects; the inputs are built
before tracing starts.  Each bound sits well below what one more array or
one Python float per sample would cost: the CDF and the two-sample KS may
hold a few arrays of their input's size, the one-sample KS two (its sorted
copy and their CDF) and fixed-size chunks, and the ``endpoints.csv`` writer
and the manifest hash a few fixed-size chunks whatever the size.
"""
import os
import tracemalloc

import numpy as np

from parcelwalk import cli, ranges
from parcelwalk.stats import ks_one_sample, ks_two_sample, std_normal_cdf

MiB = 1 << 20


def traced_peak(call) -> int:
    """Peak bytes traced while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_normal_cdf_of_a_million_samples_holds_no_python_float_per_sample():
    x = np.random.default_rng(1).standard_normal(10**6)
    assert traced_peak(lambda: std_normal_cdf(x)) <= 4 * x.nbytes


def test_one_sample_ks_holds_two_arrays_of_its_input_size():
    x = np.random.default_rng(4).standard_normal(10**6)
    assert traced_peak(lambda: ks_one_sample(x, std_normal_cdf)) <= 2 * x.nbytes + MiB


def test_two_sample_ks_holds_a_few_arrays_of_its_input_size():
    rng = np.random.default_rng(2)
    a, b = rng.standard_normal(5 * 10**5), rng.standard_normal(5 * 10**5)
    assert traced_peak(lambda: ks_two_sample(a, b)) <= a.nbytes + b.nbytes + MiB


def write_trial_csv(path, header, columns):
    with cli._write_trial_csv(path, header, columns):
        pass


def test_endpoints_csv_of_2e5_rows_is_written_in_fixed_size_chunks(tmp_path, monkeypatch):
    # Without os.fork both ranges are formatted in this process, where
    # tracemalloc sees them.
    monkeypatch.setattr(ranges, "cpu_count", lambda: 2)
    monkeypatch.delattr(os, "fork")
    rng = np.random.default_rng(3)
    columns = [rng.standard_normal(2 * 10**5) for _ in range(3)]
    path = tmp_path / "endpoints.csv"
    header = ["trial", "brownian_scaled", "real_channel", "imag_channel"]
    assert traced_peak(lambda: write_trial_csv(path, header, columns)) <= 4 * MiB
    assert path.read_bytes().count(b"\n") == 2 * 10**5 + 1


def test_manifest_of_a_64_mib_artifact_hashes_it_in_fixed_size_reads(tmp_path):
    with cli._RunDir(str(tmp_path / "run")) as run:
        with run.path("big.bin").open("wb") as handle:
            block = bytes(range(256)) * (MiB // 256)
            for _ in range(64):
                handle.write(block)
        del block
        assert traced_peak(lambda: run.finish("test", {}, [])) <= 8 * MiB
    assert (tmp_path / "run" / "big.bin").stat().st_size == 64 * MiB
