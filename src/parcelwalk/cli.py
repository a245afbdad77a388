"""Command-line entry point: run the experiments and emit CSV/JSON/SVG artifacts.

Subcommands: ``fig3`` (Brownian vs Wick-rotated square-root histogram
comparison), ``triangle`` (row dumps and Gaussian-convergence tables),
``geometry`` (circle/oscillator/sphere quantization reports), ``kernels``
(grid dumps and the imaginary-time identity residual).

Each subcommand validates its flags, computes, and writes through one
``_RunDir``.  It owns the output directory: it removes an old run's
``manifest.json`` right before the first artifact is opened and writes the
new one last, with the resolved configuration and a sha256 per artifact
keyed by bare file name, so a failed rerun leaves no stale manifest.  It
also maps the verdict to the exit code.  Re-running with the same
configuration reproduces the artifacts byte for byte.  JSON artifacts are
strict: a non-finite value is an error, and the file that would hold it is
not written.  Exit codes:
0 success, 1 usage (a non-finite result, or a size too large for memory,
included), 2 statistical failure, 3 I/O failure (a failed ``fig3`` worker
process included).

Only the numpy-free modules are imported here; ``fig3`` and ``geometry``
import numpy and their modules when they run, so ``triangle`` and
``kernels`` never load numpy.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import shutil
import sys
import tempfile
from contextlib import ExitStack
from dataclasses import asdict, dataclass, fields
from itertools import starmap
from pathlib import Path
from typing import TYPE_CHECKING

from . import kernels, triangle

if TYPE_CHECKING:
    import numpy as np

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_STAT = 2
EXIT_IO = 3

# Fixed plotting/histogram window for standardized samples.
_STANDARD_RANGE = (-4.5, 4.5)


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration for the main experiment; persisted in the manifest."""

    seed: int = 42
    trials: int = 100_000
    steps: int = 1_000
    horizon_T: float = 1.0
    n_bins: int = 60
    alpha: float = 0.01
    output_dir: str = "out"


def load_config_file(path: str) -> dict:
    """Parse a flat key=value config file; '#' starts a comment.

    A run ``manifest.json`` is accepted too: its embedded config is reused,
    so a finished run can be reproduced straight from its manifest.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        payload = None
    if payload is not None:
        if not isinstance(payload, dict):
            raise UsageError(f"config JSON must be an object: {path}")
        config = payload.get("config", payload)
        if not isinstance(config, dict):
            raise UsageError(f"manifest config section must be an object: {path}")
        return {key: str(value) for key, value in config.items()}
    values: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"malformed config line: {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults < config file < explicit CLI flags; each flag's dest is its field."""
    types = {field.name: type(field.default) for field in fields(RunConfig)}
    merged = {}
    if args.config:
        for key, raw in load_config_file(args.config).items():
            if key not in types:
                raise UsageError(f"unknown config key: {key}")
            merged[key] = types[key](raw)
    for key in types:
        if getattr(args, key) is not None:
            merged[key] = getattr(args, key)
    config = RunConfig(**merged)
    if config.seed < 0:
        raise UsageError("seed must be non-negative")
    if config.steps < 1 or config.trials < 1:
        raise UsageError("trials and steps must be >= 1")
    if not (config.horizon_T > 0 and math.isfinite(config.horizon_T)):
        raise UsageError("horizon must be positive and finite")
    if config.n_bins < 1:
        raise UsageError("bins must be >= 1")
    if not 0.0 < config.alpha < 1.0:
        raise UsageError("alpha must be in (0, 1)")
    if config.trials < 100:
        raise UsageError(
            f"trials={config.trials} is below the minimum of 100 for endpoint statistics"
        )
    return config


# ---------------------------------------------------------------------------
# artifact helpers
# ---------------------------------------------------------------------------

def _csv_row_format(header: list[str]):
    """``format`` of one CSV line with a field per header column.

    An empty format spec gives ``repr`` for a float and ``str`` for an int
    or a bool, in one C-level call per row.
    """
    return (",".join(["{}"] * len(header)) + "\n").format


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write ``rows`` as they are generated; floats as ``repr``, everything else as ``str``."""
    with path.open("w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(starmap(_csv_row_format(header), rows))


def _write_trial_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """``_write_csv`` of the rows ``zip(range(trials), *columns)``, formatted on every CPU.

    The trials split into the ranges of ``stochastic._run_in_ranges``.  The
    parent writes the header and the first range straight into ``path``, each
    forked worker its own range into an anonymous temporary file opened
    before the fork, and the parent then appends those in order.  A row's
    text does not depend on its range, so the file is the same for any
    number of ranges; the temporary files have no name, so a failed or
    killed run leaves none behind.
    """
    from . import stochastic

    bounds = stochastic._range_bounds(len(columns[0]))
    row = _csv_row_format(header)
    with ExitStack() as stack:
        handle = stack.enter_context(path.open("w", encoding="utf-8"))
        parts = [handle] + [
            stack.enter_context(tempfile.TemporaryFile("w+", encoding="utf-8", dir=path.parent))
            for _ in bounds[2:]]
        handle.write(",".join(header) + "\n")
        # Flushed before the fork, so no worker's copy of the buffer holds
        # text that could reach the file twice.
        handle.flush()

        def write_range(r: int, lo: int, hi: int) -> None:
            parts[r].writelines(starmap(row, zip(range(lo, hi),
                                                 *(column[lo:hi].tolist() for column in columns))))
            parts[r].flush()  # a worker leaves through os._exit, which flushes nothing

        stochastic._run_in_ranges(bounds, write_range)
        for part in parts[1:]:
            part.seek(0)
            shutil.copyfileobj(part, handle)


def _json_text(name: str, payload: dict) -> str:
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValueError(f"{name} not written: {exc}") from None


class _RunDir:
    """The output directory of one run: it owns the artifacts, the manifest and the exit code.

    The first artifact path handed out removes an old run's ``manifest.json``
    and ``finish`` writes the new one last, so the directory never holds a
    manifest whose checksums do not match its files.  A run refused before
    its first artifact leaves the old run's files as they were.  Manifest
    keys are bare file names (those in ``rows/`` too): the benchmark gate
    looks them up so.
    """

    def __init__(self, out: str, *subdirs: str) -> None:
        self.dir = Path(out)
        self.dir.mkdir(parents=True, exist_ok=True)
        for sub in subdirs:
            (self.dir / sub).mkdir(exist_ok=True)
        self.artifacts: list[Path] = []

    def path(self, name: str) -> Path:
        """Path of the artifact ``name`` (relative to the directory), to be written next."""
        if not self.artifacts:
            (self.dir / "manifest.json").unlink(missing_ok=True)
        path = self.dir / name
        self.artifacts.append(path)
        return path

    def write_text(self, name: str, text: str) -> None:
        self.path(name).write_text(text, encoding="utf-8")

    def write_json(self, name: str, payload: dict) -> None:
        self.write_text(name, _json_text(name, payload))

    def finish(self, command: str, config: dict, passed: bool) -> int:
        """Write ``manifest.json`` last; return the exit code of the verdict ``passed``."""
        artifacts = {}
        for path in self.artifacts:
            data = path.read_bytes()
            artifacts[path.name] = {"sha256": hashlib.sha256(data).hexdigest(),
                                    "bytes": len(data)}
        canonical = json.dumps(config, sort_keys=True).encode("utf-8")
        manifest = {
            "command": command,
            "config": config,
            "config_hash": hashlib.sha256(canonical).hexdigest(),
            "artifacts": artifacts,
        }
        (self.dir / "manifest.json").write_text(_json_text("manifest.json", manifest),
                                                encoding="utf-8")
        return EXIT_OK if passed else EXIT_STAT


def _flags(args: argparse.Namespace) -> dict:
    """A subcommand's parsed flags, as its manifest records them."""
    return {key: value for key, value in vars(args).items() if key not in ("command", "run")}


def _overlay_svg(series: list[tuple[str, str, np.ndarray, np.ndarray]], title: str) -> str:
    """Polyline overlay plot: each series is (label, color, xs, ys)."""
    width, height, margin = 720, 440, 56
    x_lo = min(float(xs.min()) for _, _, xs, _ in series)
    x_hi = max(float(xs.max()) for _, _, xs, _ in series)
    y_hi = max(float(ys.max()) for _, _, _, ys in series) * 1.08 or 1.0

    def sx(x: float) -> float:
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - y / y_hi * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="24" text-anchor="middle" font-size="16" '
        f'font-family="sans-serif">{title}</text>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="black"/>',
    ]
    for i in range(5):
        x_tick = x_lo + (x_hi - x_lo) * i / 4
        y_tick = y_hi * i / 4
        parts.append(f'<text x="{sx(x_tick):.1f}" y="{height - margin + 18}" '
                     f'text-anchor="middle" font-size="11" font-family="sans-serif">'
                     f'{x_tick:.2g}</text>')
        parts.append(f'<text x="{margin - 6}" y="{sy(y_tick):.1f}" text-anchor="end" '
                     f'font-size="11" font-family="sans-serif">{y_tick:.2g}</text>')
    for idx, (label, color, xs, ys) in enumerate(series):
        points = " ".join(f"{sx(float(x)):.2f},{sy(float(y)):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        ly = margin + 16 + 16 * idx
        parts.append(f'<line x1="{width - margin - 150}" y1="{ly - 4}" '
                     f'x2="{width - margin - 126}" y2="{ly - 4}" stroke="{color}" '
                     f'stroke-width="2"/>')
        parts.append(f'<text x="{width - margin - 120}" y="{ly}" font-size="11" '
                     f'font-family="sans-serif">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_fig3(args: argparse.Namespace) -> int:
    """Brownian endpoints vs Wick-rotated square-root channels, with KS verdicts."""
    config = resolve_config(args)  # before numpy loads: a usage error stays cheap
    import numpy as np

    from . import stats, stochastic

    run = _RunDir(config.output_dir)

    summary = stochastic.stream_endpoint_statistics(
        config.seed, config.trials, config.steps, config.horizon_T
    )
    endpoints = summary.brownian_endpoints
    scale = endpoints.std()
    if scale == 0.0:
        raise UsageError("degenerate ensemble: endpoint variance is zero")
    brownian_scaled = (endpoints - endpoints.mean()) / scale
    real_ch, imag_ch = summary.real_channel, summary.imag_channel
    max_step, max_path = summary.max_step_residual, summary.max_path_residual

    checks = []
    reports = {}
    named = [("brownian_endpoints", brownian_scaled),
             ("sqrt_real_channel", real_ch),
             ("sqrt_imag_channel", imag_ch)]
    for name, samples in named:
        report = stats.stats_report(samples, stats.std_normal_cdf, config.alpha)
        reports[name] = report.to_dict()
        checks.append({
            "name": f"ks_{name}_vs_normal",
            "statistic": report.ks_statistic,
            "threshold": report.ks_threshold,
            "alpha": config.alpha,
            "passed": report.verdict == "pass",
        })
    two = stats.ks_two_sample(real_ch, imag_ch)
    checks.append({
        "name": "ks_two_sample_channels",
        "statistic": two.statistic,
        "threshold": two.threshold_at(config.alpha),
        "alpha": config.alpha,
        "passed": two.passes(config.alpha),
    })

    # Every result is built before the first file is written, so a run that
    # fails here (a histogram too large for memory, a non-finite value in the
    # verdict) leaves the output directory as it was.
    hists = {name: stats.histogram_build(samples, config.n_bins, _STANDARD_RANGE)
             for name, samples in named}
    fits = {name: dict(zip(("mu", "sigma"), stats.gaussian_fit(samples)))
            for name, samples in named}

    curve_x = np.linspace(*_STANDARD_RANGE, 181)
    curve_y = np.exp(-curve_x**2 / 2.0) / math.sqrt(2.0 * math.pi)
    series = [("standard normal", "black", curve_x, curve_y)]
    for (name, _), color in zip(named, ("#1f77b4", "#d62728", "#2ca02c")):
        hist = hists[name]
        centers = (hist.edges[:-1] + hist.edges[1:]) / 2.0
        series.append((name.replace("_", " "), color, centers, hist.densities()))
    svg_text = _overlay_svg(series, "Brownian kernel vs rotated square-root channels")

    all_passed = all(c["passed"] for c in checks)
    verdict_text = _json_text("verdict.json", {
        "checks": checks,
        "all_passed": all_passed,
        "square_identity": {"max_step_residual": max_step, "max_path_residual": max_path},
        "gaussian_fits": fits,
        "channel_reports": reports,
    })

    _write_trial_csv(run.path("endpoints.csv"),
                     ["trial", "brownian_scaled", "real_channel", "imag_channel"],
                     [brownian_scaled, real_ch, imag_ch])
    for name, hist in hists.items():
        edges = hist.edges.tolist()
        _write_csv(run.path(f"hist_{name}.csv"), ["bin_lo", "bin_hi", "count", "density"],
                   zip(edges[:-1], edges[1:], hist.counts.tolist(), hist.densities().tolist()))
    run.write_text("fig3_overlay.svg", svg_text)
    run.write_text("verdict.json", verdict_text)
    return run.finish("fig3", asdict(config), all_passed)


def cmd_triangle(args: argparse.Namespace) -> int:
    """Row dumps plus the amplitude-vs-binomial residual and convergence tables.

    One pass builds each row once: the classical row by Pascal addition, the
    quantum row from its counts, and the pmf ``C(n, k) / 2**n`` from the same
    counts; the residuals and sup errors reuse these lists.
    """
    n_max, kind = args.n_max, args.kind
    if not 1 <= n_max <= triangle.MAX_ROW:
        raise UsageError(f"n_max must be in [1, {triangle.MAX_ROW}], got {n_max}")
    run = _RunDir(args.out, "rows")

    def dump(row: triangle.TriangleRow) -> None:
        run.write_text(f"rows/{row.kind}_n{row.n:04d}.csv", triangle.row_csv(row))

    kinds = ["classical", "quantum"] if kind == "both" else [kind]
    classical = triangle.classical_row(0)
    if "classical" in kinds:
        dump(classical)
    max_residual = 0.0
    residual_rows = []
    sup_rows = []
    for n in range(1, n_max + 1):
        classical = triangle.next_classical_row(classical)
        scale = 1 << n
        probs = {"classical": [c / scale for c in classical.values]}
        if "classical" in kinds:
            dump(classical)
        if "quantum" in kinds:
            quantum = triangle.qtpt_row(n, classical.values)
            dump(quantum)
            probs["quantum"] = [abs(a) ** 2 for a in quantum.values]
            residual = max(abs(m - p) for m, p in zip(probs["quantum"], probs["classical"]))
            residual_rows.append((n, residual))
            max_residual = max(max_residual, residual)
        sup_rows.append((n, *(triangle.sup_error(probs[which]) for which in kinds)))

    if "quantum" in kinds:
        _write_csv(run.path("modulus_residuals.csv"), ["n", "max_abs_residual"], residual_rows)
    _write_csv(run.path("sup_error.csv"), ["n"] + [f"{w}_sup_error" for w in kinds], sup_rows)

    passed = max_residual <= 1e-10
    run.write_json("verdict.json", {
        "n_max": n_max,
        "kind": kind,
        "max_modulus_residual": max_residual,
        "passed": passed,
    })
    return run.finish("triangle", _flags(args), passed)


def cmd_geometry(args: argparse.Namespace) -> int:
    """JSON quantization reports for the circle, oscillator, and sphere checks."""
    import numpy as np

    from . import geometry

    report, circle_n, hbar, omega = args.report, args.circle_n, args.hbar, args.omega
    sphere_samples, seed = args.sphere_samples, args.seed
    if report in ("sphere", "all") and sphere_samples < 1:
        raise UsageError(f"sphere_samples must be >= 1, got {sphere_samples}")
    sections = {}
    all_passed = True

    if report in ("circle", "all"):
        model = geometry.circle_model(circle_n)
        interior, wrap = geometry.circle_quantization_residual(model)
        lengths = {}
        for length in (2.0 * math.pi, 4.0 * math.pi, 7.0):
            n = geometry.length_quantization_check(length, tol=1e-6)
            lengths[repr(float(length))] = n
        passed = interior <= 1e-10 and wrap == 1 - circle_n
        sections["circle"] = {
            "n_points": circle_n,
            "interior_residual": interior,
            "wrap_value": wrap,
            "expected_wrap": 1 - circle_n,
            "length_checks": lengths,
            "passed": passed,
        }
        all_passed &= passed

    if report in ("oscillator", "all"):
        rows = []
        passed = True
        for n in range(args.oscillator_n_max + 1):
            energy = (n + 0.5) * hbar * omega
            spec = geometry.OscillatorSpec(energy_E=energy, omega=omega, hbar=hbar, n_quanta=n)
            volumes = geometry.oscillator_volumes(spec)
            gap = abs(volumes.classical_volume - volumes.quantized_volume)
            ok = gap <= 1e-12 * max(1.0, volumes.classical_volume)
            passed &= ok
            rows.append({
                "n": n,
                "energy": energy,
                "classical_volume": volumes.classical_volume,
                "quantized_volume": volumes.quantized_volume,
                "gap": gap,
                "passed": ok,
            })
        sections["oscillator"] = {"hbar": hbar, "omega": omega, "rows": rows, "passed": passed}
        all_passed &= passed

    if report in ("sphere", "all"):
        rng = np.random.Generator(np.random.Philox(key=seed, counter=0))
        u = rng.uniform(-1.0, 1.0, size=(sphere_samples, 3))
        scalar, offdiag = geometry.sphere_map_square(u)
        # Squares through libm pow, as ``x ** 2`` on a Python or numpy scalar
        # does; numpy's array power rounds about 0.1% of them differently.
        squares = np.array([x ** 2 for x in u.ravel().tolist()]).reshape(u.shape)
        expected = squares[:, 2] - squares[:, 0] - squares[:, 1]
        gap = scalar - expected
        worst_offdiag = float(offdiag.max())
        worst_scalar_gap = float(np.hypot(gap.real, gap.imag).max())
        n_plus = int(np.count_nonzero(expected > 0))
        passed = worst_offdiag <= 1e-12 and worst_scalar_gap <= 1e-12
        sections["sphere"] = {
            "samples": sphere_samples,
            "seed": seed,
            "plus_one_fraction": n_plus / sphere_samples,
            "minus_one_fraction": (sphere_samples - n_plus) / sphere_samples,
            "max_offdiag_residual": worst_offdiag,
            "max_scalar_gap": worst_scalar_gap,
            "passed": passed,
        }
        all_passed &= passed

    run = _RunDir(args.out)
    run.write_json("geometry_report.json", {"sections": sections, "all_passed": all_passed})
    return run.finish("geometry", _flags(args), all_passed)


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """``np.linspace(start, stop, num)`` as Python floats, bit for bit, for ``num >= 2``."""
    if num < 2:
        raise ValueError(f"a grid needs at least 2 points, got {num}")
    div = num - 1
    delta = stop - start
    step = delta / div
    if step == 0:
        # numpy's branch for a step that underflows (a subnormal or zero span)
        points = [i / div * delta + start for i in range(num)]
    else:
        points = [i * step + start for i in range(num)]
    points[-1] = stop
    return points


# Points of the kernels grid in x and in t; the manifest records them.
_KERNEL_GRID = {"n_x": 40, "n_t": 25}


def cmd_kernels(args: argparse.Namespace) -> int:
    """Kernel grid dumps plus the imaginary-time identity residual.

    The residual (with its ``D = hbar/(2m)`` check) and the verdict are
    computed before the first file is written, so a refused run leaves
    ``--out`` as it was.
    """
    spec = kernels.KernelSpec(diffusion_D=args.diffusion, hbar=args.hbar, mass_m=args.mass)
    xs = _linspace(-4.0, 4.0, _KERNEL_GRID["n_x"])
    ts = _linspace(0.1, 2.5, _KERNEL_GRID["n_t"])
    grid = [(x, t) for t in ts for x in xs]
    residual = kernels.wick_identity_residual(spec, spec, grid)
    passed = residual <= 1e-12
    verdict_text = _json_text("verdict.json", {
        "grid_points": len(grid),
        "wick_identity_residual": residual,
        "passed": passed,
    })

    run = _RunDir(args.out)
    _write_csv(run.path("heat_kernel_grid.csv"), ["x", "t", "re", "im"],
               ((x, t, kernels.heat_kernel(spec, x, t), 0.0) for x, t in grid))
    schrod_values = [(x, t, kernels.schrodinger_kernel(spec, x, t)) for x, t in grid]
    _write_csv(run.path("schrodinger_kernel_grid.csv"), ["x", "t", "re", "im"],
               ((x, t, value.real, value.imag) for x, t, value in schrod_values))
    run.write_text("verdict.json", verdict_text)
    return run.finish("kernels", {**_flags(args), **_KERNEL_GRID}, passed)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; our contract reserves 2 for statistical
    # failure, so usage problems must exit 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    # Each dest is a RunConfig field; unset flags stay None for resolve_config.
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--steps", type=int)
    parser.add_argument("--horizon", type=float, dest="horizon_T", metavar="HORIZON")
    parser.add_argument("--bins", type=int, dest="n_bins", metavar="BINS")
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--out", dest="output_dir", metavar="OUT")
    parser.add_argument("--config")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="parcelwalk",
                     description="Square roots of Brownian motion and quantized-geometry checks")
    sub = parser.add_subparsers(dest="command", required=True)

    fig3 = sub.add_parser("fig3", help="Brownian vs rotated square-root comparison")
    fig3.set_defaults(run=cmd_fig3)
    _add_run_flags(fig3)

    tri = sub.add_parser("triangle", help="triangle rows and convergence tables")
    tri.set_defaults(run=cmd_triangle)
    tri.add_argument("--n-max", type=int, default=50)
    tri.add_argument("--kind", choices=["classical", "quantum", "both"], default="both")
    tri.add_argument("--out", type=str, default="out")

    geo = sub.add_parser("geometry", help="quantization reports")
    geo.set_defaults(run=cmd_geometry)
    geo.add_argument("--report", choices=["circle", "oscillator", "sphere", "all"],
                     default="all")
    geo.add_argument("--circle-n", type=int, default=64)
    geo.add_argument("--oscillator-n-max", type=int, default=10)
    geo.add_argument("--hbar", type=float, default=1.0)
    geo.add_argument("--omega", type=float, default=1.0)
    geo.add_argument("--sphere-samples", type=int, default=1000)
    geo.add_argument("--seed", type=int, default=42)
    geo.add_argument("--out", type=str, default="out")

    ker = sub.add_parser("kernels", help="kernel grid dumps and identity residual")
    ker.set_defaults(run=cmd_kernels)
    ker.add_argument("--diffusion", type=float, default=0.5)
    ker.add_argument("--hbar", type=float, default=1.0)
    ker.add_argument("--mass", type=float, default=1.0)
    ker.add_argument("--out", type=str, default="out")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # numpy's message names the size and shape of the array that did not fit
        print(f"error: input too large: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
