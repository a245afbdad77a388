"""Golden replay table: absolute values of the seeded stream and every artifact's bytes.

Every value here was recorded once with numpy 2.4.6 and must never be
edited to make a refactor pass.  A change that alters the seeded stream or
any pinned artifact byte fails these tests; a deliberate change of bytes
updates the table and says so once in CHANGES.md.
"""
import hashlib
from pathlib import Path

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
    "histograms.csv": "66b401316839480f14438c7167523a2e287f03e3c38ee917d210d736a2613bb5",
    "fig3_overlay.svg": "777f3d6988e80a105d663a66d4f76ab53c6635cee14d7f74b588c534d344e012",
    "verdict.json": "183da20a7609d0a032710f79202164b64fae33f29a01fb3ff9e8724c6cdc3458",
}

# fig3 --seed 7 --trials 9001 --steps 16: more trials than several chunks of
# the CDF and of endpoints.csv's rows, split into two trial ranges on two
# CPUs; every file but manifest.json.
FIG3_9001_GOLDEN = {
    "endpoints.csv": "bb39f930f2bc38c2aa880365b160adfcc9243418fe5f5a099c9dc3f58491b831",
    "histograms.csv": "7d8810a765e121132adec4b7f66ccfac01fb1cec407315ef892b0be0c985947e",
    "fig3_overlay.svg": "e185aa109cff04129fc6d23fedc3b9ccdde7e678bab734237721c868547a0931",
    "verdict.json": "14a59400b4d385559e937dd1cf22b5611fa07058dfad21f287c46c88e82c64bc",
}

# sha256 of every file a triangle, geometry or kernels run writes, keyed by
# its file name in the output directory; manifest.json is left out for the
# same reason as above.
TRIANGLE_40_BOTH_GOLDEN = {
    "classical_rows.csv": "2d6715b6d0d7062e47832995dc42ce1d9825e66f247436d925e8b031b728cb9d",
    "modulus_residuals.csv": "21a8599201577d4632340ce4ecfe1763a4ca661a754c4ca27a0b21bee1793704",
    "quantum_rows.csv": "5b5d9581a374f791db87124ab638b466e196c8e48fe256ed02c0f5e2ee6b80d3",
    "sup_error.csv": "625216786c953658ad73d5058fdd28b6ac79346d3f89969658f51a927c7c9e0c",
    "verdict.json": "1a85498aacb8524b66c56d880895571b57d63f4c25ef752724993ed155a55724",
}

TRIANGLE_25_QUANTUM_GOLDEN = {
    "modulus_residuals.csv": "eeaecb6f461cba17d466978daa85071be602892f3e8e50b595635ba5d935fc05",
    "quantum_rows.csv": "5ef39bd3b92fe0cfaa50066783016ef8a6aebdbcade94c82740b1385baa89807",
    "sup_error.csv": "ad77ef29a8fbff0ed6a798d3287c960181907a40fcb90e1dd88ae6ff20cb704c",
    "verdict.json": "1a85498aacb8524b66c56d880895571b57d63f4c25ef752724993ed155a55724",
}

GEOMETRY_ALL_GOLDEN = {
    "geometry_report.json": "437406bc69bf4b830f4082abd1878f9b21413f226e99e49a4dfd9091219e0196",
    "verdict.json": "d36a0dba0e47df3b04ddd3724f6629953439039420fa3af4bc04927823bb3874",
}

KERNELS_GOLDEN = {
    "kernel_grid.csv": "3279e0be58fe6a29b89c7453248962a7f2a8d2422eb69d35143341b0b8f16ecb",
    "verdict.json": "1a1294b237820f846e5ca9b8caf1c5700a2478938f3d2657b0f4d563ef769189",
}

SUBCOMMAND_GOLDEN = {
    "fig3-9001": (["fig3", "--seed", "7", "--trials", "9001", "--steps", "16"],
                  FIG3_9001_GOLDEN),
    "triangle-40-both": (["triangle", "--n-max", "40", "--kind", "both"],
                         TRIANGLE_40_BOTH_GOLDEN),
    "triangle-25-quantum": (["triangle", "--n-max", "25", "--kind", "quantum"],
                            TRIANGLE_25_QUANTUM_GOLDEN),
    "geometry-all": (["geometry", "--report", "all", "--circle-n", "64",
                      "--sphere-samples", "2000", "--seed", "3"], GEOMETRY_ALL_GOLDEN),
    "kernels": (["kernels"], KERNELS_GOLDEN),
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


def _artifact_digests(out: Path) -> dict[str, str]:
    return {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*"))
            if path.is_file() and path.name != "manifest.json"}


@pytest.mark.parametrize("run", sorted(SUBCOMMAND_GOLDEN))
def test_subcommand_artifact_bytes_are_pinned(tmp_path, run):
    args, golden = SUBCOMMAND_GOLDEN[run]
    out = tmp_path / run
    assert main([*args, "--out", str(out)]) == EXIT_OK
    digests = _artifact_digests(out)
    assert sorted(digests) == sorted(golden)
    changed = [name for name in golden if digests[name] != golden[name]]
    assert changed == []
