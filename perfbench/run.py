"""parcelwalk benchmark: time-to-verdict and peak RSS of whole CLI commands.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``NAME`` is one of ``fig3-deep``, ``fig3-wide``, ``exact``, or ``all`` (every
workload in turn).  Run it from the root of a source checkout; the package is
imported from ``src/``.

Each workload is a closed loop with one client: one ``python -m
parcelwalk.cli`` child at a time, the next started only after the previous
one exited and its output passed the correctness gate (``gate.py``).  The
loop runs an untimed warm-up iteration, then whole iterations for about
``S`` seconds.  Every invocation writes into a temporary directory inside the
checkout, deleted once gated.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (spawn to exit of
the iteration's invocations; the fastest timed iteration of the run),
``peak_rss_mb`` (max RSS of those children, from ``os.wait4``; median over the
run), and ``setup_s`` (fresh interpreter until ``import parcelwalk.cli``
returns; median of imports spread over the run).  ``--trace 1`` alternates
traced iterations (``tracer.py``) with untraced ones and reports the
per-layer split.  The last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"
# Fresh imports behind setup_s: one before each timed iteration, topped up to
# at least this many at the end, so the median spans the whole run.
SETUP_SAMPLES = 7
# Whole run, set-up included, must end well inside three minutes; a child
# still running at this point is killed and counted as failed.
RUN_LIMIT_S = 170.0
TRIANGLE_N_MAX = 200

PROBE = r"""
import ctypes, glob, json, os, sys
import numpy, parcelwalk.cli
threads = None
libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
for lib in libs:
    for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        try:
            fn = getattr(ctypes.CDLL(lib), symbol)
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        threads = fn()
        break
    if threads is not None:
        break
print(json.dumps({"parcelwalk": os.path.realpath(parcelwalk.cli.__file__),
                  "python": sys.version.split()[0], "numpy": numpy.__version__,
                  "blas_threads": threads}))
"""


@dataclass(frozen=True)
class Invocation:
    """One ``parcelwalk`` subcommand with its arguments, minus ``--out``."""

    command: str
    args: tuple[str, ...]
    gate_kwargs: dict = field(default_factory=dict)


def _fig3(trials: int, steps: int, require_all: bool):
    def build(seed: int) -> list[Invocation]:
        return [Invocation("fig3", ("--seed", str(seed), "--trials", str(trials),
                                    "--steps", str(steps)),
                           {"seed": seed, "trials": trials, "steps": steps,
                            "require_all": require_all})]
    return build


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "fig3-deep": _fig3(10_000, 1_000, require_all=True),
    "fig3-wide": _fig3(50_000, 16, require_all=False),
    "exact": lambda seed: [
        Invocation("triangle", ("--n-max", str(TRIANGLE_N_MAX), "--kind", "both")),
        Invocation("geometry", ("--report", "all", "--circle-n", "512",
                                "--sphere-samples", "10000", "--seed", str(seed))),
        Invocation("kernels", ()),
    ],
}
# Quantum rows one iteration's triangle invocation needs; the base of
# rows_built_per_row.
QUANTUM_ROWS = {"exact": TRIANGLE_N_MAX}

# Per-layer metrics read from the traced profile: (name, unit, reduction,
# functions).  "self" sums the functions' time outside other traced calls,
# "total" their inclusive time, "count" their calls.  A metric is absent when
# one of its functions no longer exists.
SPAN_METRICS = [
    ("stochastic.generate_s", "s", "self",
     ("stochastic.brownian_increments", "stochastic.increment_block")),
    ("stochastic.sqrt_endpoints_s", "s", "total", ("stochastic.sqrt_endpoint_statistics",)),
    ("stochastic.square_identity_s", "s", "total", ("stochastic.square_identity_residuals",)),
    ("stats.report_s", "s", "total", ("stats.stats_report",)),
    ("stats.cdf_s", "s", "total", ("stats.std_normal_cdf",)),
    ("stats.ks_two_sample_s", "s", "total", ("stats.ks_two_sample",)),
    ("stats.histogram_s", "s", "total", ("stats.histogram_build",)),
    ("triangle.qtpt_row_calls", "count", "count", ("triangle.qtpt_row",)),
    ("triangle.binomial_pmf_calls", "count", "count", ("triangle.binomial_pmf",)),
    ("triangle.amplitude_s", "s", "self", ("triangle.qtpt_row", "triangle.qtpt_amplitude")),
    ("triangle.pmf_s", "s", "self", ("triangle.binomial_pmf", "triangle.classical_row")),
    ("triangle.row_csv_s", "s", "total", ("triangle.row_csv",)),
    ("triangle.sup_error_s", "s", "self",
     ("triangle.row_sup_error", "triangle.gaussian_approx_row")),
    ("geometry.circle_s", "s", "total",
     ("geometry.circle_model", "geometry.circle_quantization_residual")),
    ("geometry.sphere_s", "s", "self", ("geometry.sphere_map_square", "geometry.sphere_map")),
    ("geometry.sphere_calls", "count", "count", ("geometry.sphere_map_square",)),
    ("clifford.gamma_basis_calls", "count", "count", ("clifford.gamma_basis",)),
    ("kernels.wick_residual_s", "s", "total", ("kernels.wick_identity_residual",)),
]
# Sizes the tracer reads from call arguments or results: (name, unit, function).
OBSERVED_METRICS = [
    ("stochastic.trials", "count", "stochastic.brownian_increments"),
    ("stochastic.steps", "count", "stochastic.brownian_increments"),
    ("stochastic.ensemble_mb", "MiB", "stochastic.brownian_increments"),
    ("stats.samples", "count", "stats.stats_report"),
    ("geometry.circle_gflop", "GFLOP", "geometry.circle_quantization_residual"),
    ("kernels.grid_points", "count", "kernels.wick_identity_residual"),
]
UNITS = {name: unit for name, unit, *_ in SPAN_METRICS + OBSERVED_METRICS}
UNITS.update({
    "triangle.rows_built_per_row": "ratio", "clifford.self_s": "s", "cli.self_s": "s",
    "cli.artifact_mb": "MiB", "cli.artifact_files": "count", "proc.cpu_s": "s",
    "proc.parallelism": "ratio", "trace.overhead_s": "s",
    "wall_s": "s", "peak_rss_mb": "MiB", "setup_s": "s",
})


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Spawned:
    exit_code: int
    wall_s: float
    maxrss_kib: int
    cpu_s: float


def spawn(argv: list[str], cwd: Path, env: dict, deadline: float,
          stderr_path: Path | None = None) -> Spawned:
    """Run one child to completion; rusage comes from ``wait4`` for that child alone."""
    timeout = max(1.0, deadline - time.monotonic())
    with open(stderr_path or os.devnull, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Spawned(proc.returncode, wall, usage.ru_maxrss, usage.ru_utime + usage.ru_stime)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def probe(env: dict, deadline: float) -> dict:
    """Import the package once (warming caches) and check it comes from this checkout."""
    out = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env, capture_output=True,
                         text=True, timeout=max(1.0, deadline - time.monotonic()))
    if out.returncode != 0:
        raise BenchError(f"cannot import parcelwalk.cli from {SRC}: {out.stderr.strip()}")
    info = json.loads(out.stdout.strip().splitlines()[-1])
    if not Path(info["parcelwalk"]).is_relative_to(SRC.resolve()):
        raise BenchError(f"parcelwalk was imported from {info['parcelwalk']}, not {SRC}")
    return info


def measure_setup(env: dict, deadline: float) -> float:
    """Seconds from a fresh interpreter's spawn until ``import parcelwalk.cli`` returns."""
    result = spawn([sys.executable, "-c", "import parcelwalk.cli"], ROOT, env, deadline)
    if result.exit_code != 0:
        raise BenchError("import parcelwalk.cli failed")
    return result.wall_s


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _tree_size(path: Path) -> tuple[int, int]:
    files = [p for p in path.rglob("*") if p.is_file()]
    return sum(p.stat().st_size for p in files), len(files)


@dataclass
class Iteration:
    traced: bool
    warmup: bool = False
    wall_s: float = 0.0
    maxrss_kib: int = 0
    cpu_s: float = 0.0
    invocations: int = 0
    failed: int = 0
    verdicts: list = field(default_factory=list)
    profiles: list = field(default_factory=list)
    artifact_bytes: int = 0
    artifact_files: int = 0


def run_iteration(invocations: list[Invocation], traced: bool, tmp: Path, env: dict,
                  deadline: float) -> Iteration:
    it = Iteration(traced=traced)
    for index, inv in enumerate(invocations):
        work = Path(tempfile.mkdtemp(prefix=f"{inv.command}-", dir=tmp))
        try:
            out_dir = work / "out"
            cli_args = [inv.command, *inv.args, "--out", str(out_dir)]
            if traced:
                profile_path = work / "profile.json"
                argv = [sys.executable, str(TRACER), str(profile_path), *cli_args]
            else:
                argv = [sys.executable, "-m", "parcelwalk.cli", *cli_args]
            result = spawn(argv, work, env, deadline, stderr_path=work / "stderr.txt")
            it.invocations += 1
            it.wall_s += result.wall_s
            it.cpu_s += result.cpu_s
            it.maxrss_kib = max(it.maxrss_kib, result.maxrss_kib)
            failures, verdicts = gate.check(inv.command, out_dir, result.exit_code,
                                            **inv.gate_kwargs)
            if failures:
                stderr_tail = (work / "stderr.txt").read_text(errors="replace")[-2000:]
                print(f"gate: {inv.command} invocation {index} failed: {failures}\n"
                      f"{stderr_tail}", file=sys.stderr)
            it.failed += bool(failures)
            it.verdicts += verdicts
            if out_dir.is_dir():
                size, files = _tree_size(out_dir)
                it.artifact_bytes += size
                it.artifact_files += files
            if traced and profile_path.is_file():
                it.profiles.append(json.loads(profile_path.read_text(encoding="utf-8")))
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return it


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict,
                 deadline: float) -> tuple[list[Iteration], list[float]]:
    """Closed loop: an untimed warm-up iteration, then timed iterations back to
    back until the next one would overrun ``seconds``.

    Untraced, a fresh import (a ``setup_s`` sample) precedes each timed
    iteration.  Returns the iterations, warm-up first, and the set-up samples.
    """
    invocations = WORKLOADS[name](seed)
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        start = time.monotonic()
        iterations = [run_iteration(invocations, False, tmp, env, deadline)]
        iterations[0].warmup = True
        setup: list[float] = []
        while not iterations[-1].failed and time.monotonic() < deadline:
            timed = len(iterations) - 1
            elapsed = time.monotonic() - start
            # A traced run needs an untraced iteration to compare with.
            if (timed >= (2 if trace else 1)
                    and elapsed * (len(iterations) + 1) / len(iterations) > seconds):
                break
            if not trace:
                setup.append(measure_setup(env, deadline))
            iterations.append(run_iteration(invocations, trace and timed % 2 == 0, tmp, env,
                                            deadline))
        while not trace and len(setup) < SETUP_SAMPLES:
            setup.append(measure_setup(env, deadline))
        return iterations, setup
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _median(values):
    return statistics.median(values) if values else None


def layer_metrics(profile: dict, rows: int) -> dict[str, float]:
    """Per-layer values of one traced invocation; absent where a function is gone."""
    functions = profile["functions"]
    metrics = {}
    column = {"count": 0, "total": 1, "self": 2}
    for name, _, reduction, names in SPAN_METRICS:
        if all(fn in functions for fn in names):
            metrics[name] = sum(functions[fn][column[reduction]] for fn in names)
    for name, _, fn in OBSERVED_METRICS:
        if fn in functions and fn not in profile["observer_errors"]:
            metrics[name] = profile["observed"].get(name, 0)
    clifford = [fn for fn in functions if fn.startswith("clifford.")]
    if clifford:
        metrics["clifford.self_s"] = sum(functions[fn][2] for fn in clifford)
    if "triangle.qtpt_row" in functions:
        calls = functions["triangle.qtpt_row"][0]
        metrics["triangle.rows_built_per_row"] = calls / rows if rows else 0.0
    metrics["cli.self_s"] = profile["main_s"] - sum(rec[2] for rec in functions.values())
    return metrics


def summarize(name: str, iterations: list[Iteration], trace: bool,
              setup: list[float]) -> dict[str, float]:
    plain = [it for it in iterations if not it.traced and not it.warmup]
    if not trace:
        # wall_s is the fastest timed iteration, not the median.  On a shared
        # host the CPU's speed drifts by up to ~50% in phases from under a
        # second to minutes (CPU time drifts with wall time), so a run's
        # median reads whichever phases the run fell in.  Interference only
        # adds time, so the fastest iteration is the steadiest estimate of the
        # program's own cost; the report prints the median beside it.
        return {
            "wall_s": min((it.wall_s for it in plain), default=None),
            "peak_rss_mb": _median([it.maxrss_kib / 1024 for it in plain]),
            "setup_s": _median(setup),
        }
    traced = [it for it in iterations if it.traced and it.profiles]
    per_iteration = []
    for it in traced:
        summed: dict[str, float] = {}
        for profile in it.profiles:
            for key, value in layer_metrics(profile, QUANTUM_ROWS.get(name, 0)).items():
                summed[key] = summed.get(key, 0) + value
        summed["cli.artifact_mb"] = it.artifact_bytes / 2**20
        summed["cli.artifact_files"] = it.artifact_files
        per_iteration.append(summed)
    keys = set().union(*per_iteration) if per_iteration else set()
    metrics = {key: _median([m[key] for m in per_iteration if key in m]) for key in keys}
    if plain:
        cpu = _median([it.cpu_s for it in plain])
        wall = _median([it.wall_s for it in plain])
        metrics["proc.cpu_s"] = cpu
        metrics["proc.parallelism"] = cpu / wall
        if traced:
            metrics["trace.overhead_s"] = (min(it.wall_s for it in traced)
                                           - min(it.wall_s for it in plain))
    return metrics


def _samples(values: list[float], what: str) -> str:
    return f"  median of {len(values)} {what}: " + " ".join(f"{v:.4g}" for v in values)


def report(name: str, iterations: list[Iteration], metrics: dict, trace: bool,
           setup: list[float]) -> None:
    attempted = sum(it.invocations for it in iterations)
    failed = sum(it.failed for it in iterations)
    plain = [it for it in iterations if not it.traced and not it.warmup]
    print(f"workload {name}: {len(iterations)} iterations (the first a warm-up), "
          f"{attempted} invocations{' (traced and untraced alternating)' if trace else ''}")
    for key in sorted(metrics):
        note = ""
        if key == "wall_s":
            walls = [it.wall_s for it in plain]
            note = (f"  fastest (median {_median(walls):.4g}) of {len(walls)} iterations: "
                    + " ".join(f"{v:.4g}" for v in walls))
        elif key == "peak_rss_mb":
            note = _samples([it.maxrss_kib / 1024 for it in plain], "iterations")
        elif key == "setup_s":
            note = _samples(setup, "fresh imports")
        print(f"  {key:<32} {metrics[key]:>14.6g} {UNITS[key]}{note}")
    print(f"  {'fail_rate':<32} {failed / attempted:>14.6g} fraction  ({failed}/{attempted})")
    verdicts = [v for it in iterations for v in it.verdicts]
    if verdicts:
        print(f"  verdicts (recorded, not failures): {sorted(set(verdicts))} "
              f"x{len(verdicts)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("seed must be a 64-bit unsigned integer")
    if not args.seconds > 0:
        parser.error("seconds must be positive")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    if not (SRC / "parcelwalk" / "cli.py").is_file():
        print(f"error: no parcelwalk sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    try:
        info = probe(env, deadline)
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), env,
                                      deadline)
                   for name in names}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    provenance = {"seed": args.seed, "nproc": os.cpu_count(), "python": info["python"],
                  "numpy": info["numpy"], "blas_threads": info["blas_threads"],
                  "git_commit": git_commit(), "seconds": args.seconds, "trace": args.trace}
    print("provenance " + json.dumps(provenance, sort_keys=True))
    attempted = failed = 0
    metrics = {}
    for name, (iterations, setup) in results.items():
        values = summarize(name, iterations, bool(args.trace), setup)
        report(name, iterations, values, bool(args.trace), setup)
        attempted += sum(it.invocations for it in iterations)
        failed += sum(it.failed for it in iterations)
        prefix = "" if len(names) == 1 else f"{name}/"
        for key, value in sorted(values.items()):
            if value is not None:
                metrics[prefix + key] = {"value": value, "unit": UNITS[key]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
