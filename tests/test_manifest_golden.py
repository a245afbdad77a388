"""Golden manifest bytes: the sha256 of ``manifest.json`` for each golden run.

``test_replay_golden.py`` pins every other artifact.  A manifest embeds the
output directory, so each run here writes to the relative ``--out run`` from
its own working directory, which makes the manifest's bytes reproducible.
The pins hold the format that the benchmark gate reads (artifacts keyed by
their file names in the output directory); a deliberate change of that
format updates them and says so once in CHANGES.md.
"""
import hashlib

import pytest

from parcelwalk.cli import EXIT_OK, main

MANIFEST_GOLDEN = {
    "fig3": (["fig3", "--seed", "7", "--trials", "300", "--steps", "16"],
             "fd90d882ff80f3d924dcdde1497c68fa47c1e240be3741de3a0477f5a9441628"),
    "triangle-40-both": (["triangle", "--n-max", "40", "--kind", "both"],
                         "3fc2c2aad3dccd71e8d2f2b77925dca6d5868bf3ba62d1687227324ae260f4a2"),
    "triangle-25-quantum": (["triangle", "--n-max", "25", "--kind", "quantum"],
                            "8b53d8eacb4274cefad94d6e09ba120527b57b366e2f63e14616dae5733a4d1b"),
    "geometry-all": (["geometry", "--report", "all", "--circle-n", "64",
                      "--sphere-samples", "2000", "--seed", "3"],
                     "53aa96fb268be36ce540f56ca55252a6dcd7c2066768a387ae75dbca37852355"),
    "kernels": (["kernels"],
                "2ca27c4670cc4e50d1273fae930ceb8afcaadbefa4259e8b8812ec37ca6c182e"),
}


@pytest.mark.parametrize("run", sorted(MANIFEST_GOLDEN))
def test_manifest_bytes_are_pinned(tmp_path, monkeypatch, run):
    args, golden = MANIFEST_GOLDEN[run]
    monkeypatch.chdir(tmp_path)
    assert main([*args, "--out", "run"]) == EXIT_OK
    manifest = (tmp_path / "run" / "manifest.json").read_bytes()
    assert hashlib.sha256(manifest).hexdigest() == golden
