"""Golden replay table: absolute values of the seeded stream and fig3 artifact bytes.

Every value here was recorded once with numpy 2.4.6 and must never be
edited to make a refactor pass.  A change that alters the seeded stream or
any fig3 artifact byte fails these tests; a deliberate change of bytes
updates the table and says so once in CHANGES.md.
"""
import hashlib

import pytest

from parcelwalk.cli import EXIT_OK, main
from parcelwalk.stochastic import increment_block

# increment_block(seed, trial, 1, 1000, 1.0).sum().hex()
STREAM_GOLDEN = {
    (0, 0): "-0x1.762ea6ddfa1f6p-2",
    (42, 0): "-0x1.87a0cec4f7772p-1",
    (42, 99999): "0x1.10e30f5703be8p-2",
    (2**64 - 1, 12345): "-0x1.a6af4cff27c00p-1",
}

# fig3 --seed 7 --trials 300 --steps 16; manifest.json is left out because
# it embeds the output directory.
FIG3_ARGS = ["--seed", "7", "--trials", "300", "--steps", "16"]
FIG3_GOLDEN = {
    "endpoints.csv": "d333ec7e6fdb2197df878a14579a7ef85c3e9d0d6ead1f242fa10f72f4b9b657",
    "hist_brownian_endpoints.csv":
        "6e71fffefc5c3957ea415fcb932deb6f8148224b989bd0caa62ad7402cb9fdf5",
    "hist_sqrt_real_channel.csv":
        "e057b8e0ac8007de58b5a82bf3cf78b4367cca46b390a2514bc1b41360578abe",
    "hist_sqrt_imag_channel.csv":
        "08e60a89de581137a8267f171b026b7f648ee4aac21e3847ff7ebe7e5fb13c18",
    "fig3_overlay.svg": "777f3d6988e80a105d663a66d4f76ab53c6635cee14d7f74b588c534d344e012",
    "verdict.json": "8a86e7005abe79f7ca3b2d1f6b8a3f6d9e39ea750f957603cb21fce21c5c86d0",
}


@pytest.mark.parametrize("seed, trial", sorted(STREAM_GOLDEN))
def test_seeded_stream_endpoint_is_pinned(seed, trial):
    endpoint = increment_block(seed, trial, 1, 1000, 1.0).sum()
    assert endpoint.hex() == STREAM_GOLDEN[(seed, trial)]


@pytest.fixture(scope="module")
def fig3_golden_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "fig3"
    return main(["fig3", *FIG3_ARGS, "--out", str(out)]), out


def test_fig3_golden_run_exits_ok(fig3_golden_run):
    code, _ = fig3_golden_run
    assert code == EXIT_OK


@pytest.mark.parametrize("name", sorted(FIG3_GOLDEN))
def test_fig3_artifact_bytes_are_pinned(fig3_golden_run, name):
    _, out = fig3_golden_run
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() == FIG3_GOLDEN[name]
