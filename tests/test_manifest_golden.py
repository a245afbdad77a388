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
                         "f682778a996cee0422321f233e35420158938519d078b06b77f6f551fc9b1e04"),
    "triangle-25-quantum": (["triangle", "--n-max", "25", "--kind", "quantum"],
                            "5297b2591181c154f7c74454ddd40c1a7c47b91c198a8c48975dfa884f3fe5ef"),
    "geometry-all": (["geometry", "--report", "all", "--circle-n", "64",
                      "--sphere-samples", "2000", "--seed", "3"],
                     "8fa77ef77749a9201d2f1e1cb9e9dceb4183c99bf9dd08347a144fc15e516b19"),
    "kernels": (["kernels"],
                "cf5769f39b17a0b7c04510084d7924202a0601e31c56cd133c6a1416b4541322"),
}


@pytest.mark.parametrize("run", sorted(MANIFEST_GOLDEN))
def test_manifest_bytes_are_pinned(tmp_path, monkeypatch, run):
    args, golden = MANIFEST_GOLDEN[run]
    monkeypatch.chdir(tmp_path)
    assert main([*args, "--out", "run"]) == EXIT_OK
    manifest = (tmp_path / "run" / "manifest.json").read_bytes()
    assert hashlib.sha256(manifest).hexdigest() == golden
