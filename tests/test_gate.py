"""The benchmark's correctness gate passes every invocation the benchmark runs.

``perfbench/run.py`` gates each output directory with ``perfbench/gate.py``
and counts a refused one as a failed operation.  These tests run the same
invocations, read from ``run.WORKLOADS``, through ``parcelwalk.cli.main`` and
gate their output, so a change the gate would refuse (a ``fig3`` square
identity residual above 1e-12, say) fails here first.
"""
import sys
from pathlib import Path

import pytest

from parcelwalk.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gate  # noqa: E402
import run  # noqa: E402

# run.py's default --seed
SEED = 42

INVOCATIONS = [pytest.param(invocation, id=f"{workload}-{invocation.command}")
               for workload, build in run.WORKLOADS.items() for invocation in build(SEED)]


def gate_failures(tmp_path, command, args, **gate_kwargs):
    out = tmp_path / "out"
    code = main([command, *args, "--out", str(out)])
    failures, _ = gate.check(command, out, code, **gate_kwargs)
    return failures


@pytest.mark.parametrize("invocation", INVOCATIONS)
def test_every_benchmark_invocation_passes_the_gate(tmp_path, invocation):
    assert gate_failures(tmp_path, invocation.command, invocation.args,
                         **invocation.gate_kwargs) == []


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 7: the gate reads triangle's max_modulus_residual, "
           "which a --kind classical run does not write")
def test_a_classical_triangle_run_passes_the_gate(tmp_path):
    assert gate_failures(tmp_path, "triangle", ["--n-max", "40", "--kind", "classical"]) == []
