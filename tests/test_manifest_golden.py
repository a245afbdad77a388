"""Golden manifest bytes: the sha256 of ``manifest.json`` for each golden run.

``test_replay_golden.py`` pins every other artifact.  A manifest embeds the
output directory, so each run here writes to the relative ``--out run`` from
its own working directory, which makes the manifest's bytes reproducible.
The pins hold the format that the benchmark gate reads (artifacts keyed by
bare file name); a deliberate change of that format updates them and says
so once in CHANGES.md.
"""
import hashlib

import pytest

from parcelwalk.cli import EXIT_OK, main

MANIFEST_GOLDEN = {
    "fig3": (["fig3", "--seed", "7", "--trials", "300", "--steps", "16"],
             "c28252102258a98e33e85315f731dfbd5c48127c699646677c893b9ca3db985c"),
    "triangle-40-both": (["triangle", "--n-max", "40", "--kind", "both"],
                         "08b27f4c689da47029c2edccc227d8304f9703f30b57c58ba030f6e2e2d28283"),
    "triangle-25-quantum": (["triangle", "--n-max", "25", "--kind", "quantum"],
                            "32c58b0043ffb19e04460d97ab953e10d73ce13283c646dbe6d5a16bd58ceb2b"),
    "geometry-all": (["geometry", "--report", "all", "--circle-n", "64",
                      "--sphere-samples", "2000", "--seed", "3"],
                     "5499b18e8b772dd41359187c043d5a8b22f45d91a8e050497d3871cab61d14af"),
    "kernels": (["kernels"],
                "b9c917fc36ea4f86d8d33c80196c9cd0456f5a231ad45396cee04b6a328124b7"),
}


@pytest.mark.parametrize("run", sorted(MANIFEST_GOLDEN))
def test_manifest_bytes_are_pinned(tmp_path, monkeypatch, run):
    args, golden = MANIFEST_GOLDEN[run]
    monkeypatch.chdir(tmp_path)
    assert main([*args, "--out", "run"]) == EXIT_OK
    manifest = (tmp_path / "run" / "manifest.json").read_bytes()
    assert hashlib.sha256(manifest).hexdigest() == golden
