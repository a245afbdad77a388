"""Command-line entry point: run the experiments and emit CSV/JSON/SVG artifacts.

Subcommands: ``fig3`` (Brownian vs Wick-rotated square-root histogram
comparison), ``triangle`` (row dumps and Gaussian-convergence tables),
``geometry`` (circle/oscillator/sphere quantization reports), ``kernels``
(grid dumps and the imaginary-time identity residual).

Every run writes a ``manifest.json`` with the resolved configuration and a
sha256 per artifact; re-running with the same configuration reproduces the
artifacts byte for byte.  JSON artifacts are strict: a non-finite value is
an error, and the file that would hold it is not written.  Exit codes:
0 success, 1 usage (or a non-finite result), 2 statistical failure, 3 I/O
failure.

Only the numpy-free modules are imported here; ``fig3`` and ``geometry``
import numpy and their modules when they run, so ``triangle`` and
``kernels`` never load numpy.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from . import kernels, triangle

if TYPE_CHECKING:
    import numpy as np

    from . import stats

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


_CONFIG_TYPES = {
    "seed": int,
    "trials": int,
    "steps": int,
    "horizon_T": float,
    "n_bins": int,
    "alpha": float,
    "output_dir": str,
}


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults < config file < explicit CLI flags."""
    merged = asdict(RunConfig())
    if getattr(args, "config", None):
        for key, raw in load_config_file(args.config).items():
            if key not in _CONFIG_TYPES:
                raise UsageError(f"unknown config key: {key}")
            merged[key] = _CONFIG_TYPES[key](raw)
    flag_map = {
        "seed": "seed",
        "trials": "trials",
        "steps": "steps",
        "horizon": "horizon_T",
        "bins": "n_bins",
        "alpha": "alpha",
        "out": "output_dir",
    }
    for flag, key in flag_map.items():
        value = getattr(args, flag, None)
        if value is not None:
            merged[key] = value
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
    return config


# ---------------------------------------------------------------------------
# artifact helpers
# ---------------------------------------------------------------------------

def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, payload: dict) -> None:
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{path.name} not written: {exc}") from None
    path.write_text(text + "\n", encoding="utf-8")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, command: str, config: dict, artifacts: list[Path]) -> None:
    canonical = json.dumps(config, sort_keys=True).encode("utf-8")
    manifest = {
        "command": command,
        "config": config,
        "config_hash": hashlib.sha256(canonical).hexdigest(),
        "artifacts": {
            p.name: {"sha256": _sha256(p), "bytes": p.stat().st_size}
            for p in sorted(artifacts)
        },
    }
    _write_json(out_dir / "manifest.json", manifest)


def _histogram_csv(path: Path, hist: stats.Histogram) -> None:
    dens = hist.densities()
    rows = [
        (float(hist.edges[i]), float(hist.edges[i + 1]), int(hist.counts[i]), float(dens[i]))
        for i in range(len(hist.counts))
    ]
    _write_csv(path, ["bin_lo", "bin_hi", "count", "density"], rows)


def _render_overlay_svg(path: Path, series: list[tuple[str, str, np.ndarray, np.ndarray]],
                        title: str) -> None:
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
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")


def _hist_polyline(hist: stats.Histogram) -> tuple[np.ndarray, np.ndarray]:
    centers = (hist.edges[:-1] + hist.edges[1:]) / 2.0
    return centers, hist.densities()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_fig3(config: RunConfig) -> int:
    """Brownian endpoints vs Wick-rotated square-root channels, with KS verdicts."""
    import numpy as np

    from . import stats, stochastic

    if config.trials < 100:
        raise UsageError(
            f"trials={config.trials} is below the minimum of 100 for endpoint statistics"
        )
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

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

    artifacts = []
    endpoints_csv = out_dir / "endpoints.csv"
    _write_csv(endpoints_csv, ["trial", "brownian_scaled", "real_channel", "imag_channel"],
               ((i, float(brownian_scaled[i]), float(real_ch[i]), float(imag_ch[i]))
                for i in range(config.trials)))
    artifacts.append(endpoints_csv)

    hists = {}
    for name, samples in named:
        hist = stats.histogram_build(samples, config.n_bins, _STANDARD_RANGE)
        hists[name] = hist
        csv_path = out_dir / f"hist_{name}.csv"
        _histogram_csv(csv_path, hist)
        artifacts.append(csv_path)

    fits = {name: dict(zip(("mu", "sigma"), stats.gaussian_fit(samples)))
            for name, samples in named}

    curve_x = np.linspace(*_STANDARD_RANGE, 181)
    curve_y = np.exp(-curve_x**2 / 2.0) / math.sqrt(2.0 * math.pi)
    series = [("standard normal", "black", curve_x, curve_y)]
    for (name, _), color in zip(named, ("#1f77b4", "#d62728", "#2ca02c")):
        xs, ys = _hist_polyline(hists[name])
        series.append((name.replace("_", " "), color, xs, ys))
    svg_path = out_dir / "fig3_overlay.svg"
    _render_overlay_svg(svg_path, series, "Brownian kernel vs rotated square-root channels")
    artifacts.append(svg_path)

    all_passed = all(c["passed"] for c in checks)
    verdict_path = out_dir / "verdict.json"
    _write_json(verdict_path, {
        "checks": checks,
        "all_passed": all_passed,
        "square_identity": {"max_step_residual": max_step, "max_path_residual": max_path},
        "gaussian_fits": fits,
        "channel_reports": reports,
    })
    artifacts.append(verdict_path)

    _write_manifest(out_dir, "fig3", asdict(config), artifacts)
    return EXIT_OK if all_passed else EXIT_STAT


def cmd_triangle(n_max: int, kind: str, out: str) -> int:
    """Row dumps plus the amplitude-vs-binomial residual and convergence tables.

    One pass builds each row once: the classical row by Pascal addition, the
    quantum row from its counts, and the pmf ``C(n, k) / 2**n`` from the same
    counts; the residuals and sup errors reuse these lists.
    """
    if not 1 <= n_max <= triangle.MAX_ROW:
        raise UsageError(f"n_max must be in [1, {triangle.MAX_ROW}], got {n_max}")
    out_dir = Path(out)
    rows_dir = out_dir / "rows"
    rows_dir.mkdir(parents=True, exist_ok=True)
    artifacts = []

    def dump(row: triangle.TriangleRow) -> None:
        path = rows_dir / f"{row.kind}_n{row.n:04d}.csv"
        path.write_text(triangle.row_csv(row), encoding="utf-8")
        artifacts.append(path)

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
        residual_path = out_dir / "modulus_residuals.csv"
        _write_csv(residual_path, ["n", "max_abs_residual"], residual_rows)
        artifacts.append(residual_path)

    sup_path = out_dir / "sup_error.csv"
    _write_csv(sup_path, ["n"] + [f"{w}_sup_error" for w in kinds], sup_rows)
    artifacts.append(sup_path)

    passed = max_residual <= 1e-10
    verdict_path = out_dir / "verdict.json"
    _write_json(verdict_path, {
        "n_max": n_max,
        "kind": kind,
        "max_modulus_residual": max_residual,
        "passed": passed,
    })
    artifacts.append(verdict_path)
    _write_manifest(out_dir, "triangle", {"n_max": n_max, "kind": kind, "out": out}, artifacts)
    return EXIT_OK if passed else EXIT_STAT


def cmd_geometry(report: str, out: str, circle_n: int = 64, oscillator_n_max: int = 10,
                 hbar: float = 1.0, omega: float = 1.0, sphere_samples: int = 1000,
                 seed: int = 42) -> int:
    """JSON quantization reports for the circle, oscillator, and sphere checks."""
    import numpy as np

    from . import geometry

    if report in ("sphere", "all") and sphere_samples < 1:
        raise UsageError(f"sphere_samples must be >= 1, got {sphere_samples}")
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
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
        for n in range(oscillator_n_max + 1):
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

    report_path = out_dir / "geometry_report.json"
    _write_json(report_path, {"sections": sections, "all_passed": all_passed})
    _write_manifest(out_dir, "geometry",
                    {"report": report, "circle_n": circle_n,
                     "oscillator_n_max": oscillator_n_max, "hbar": hbar, "omega": omega,
                     "sphere_samples": sphere_samples, "seed": seed, "out": out},
                    [report_path])
    return EXIT_OK if all_passed else EXIT_STAT


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


def cmd_kernels(out: str, diffusion: float = 0.5, hbar: float = 1.0, mass: float = 1.0,
                n_x: int = 40, n_t: int = 25) -> int:
    """Kernel grid dumps plus the imaginary-time identity residual."""
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = kernels.KernelSpec(diffusion_D=diffusion, hbar=hbar, mass_m=mass)
    xs = _linspace(-4.0, 4.0, n_x)
    ts = _linspace(0.1, 2.5, n_t)
    grid = [(x, t) for t in ts for x in xs]

    heat_path = out_dir / "heat_kernel_grid.csv"
    _write_csv(heat_path, ["x", "t", "re", "im"],
               ((x, t, kernels.heat_kernel(spec, x, t), 0.0) for x, t in grid))
    schrod_values = [(x, t, kernels.schrodinger_kernel(spec, x, t)) for x, t in grid]
    schrod_path = out_dir / "schrodinger_kernel_grid.csv"
    _write_csv(schrod_path, ["x", "t", "re", "im"],
               ((x, t, value.real, value.imag) for x, t, value in schrod_values))

    residual = kernels.wick_identity_residual(spec, spec, grid)
    passed = residual <= 1e-12
    verdict_path = out_dir / "verdict.json"
    _write_json(verdict_path, {
        "grid_points": len(grid),
        "wick_identity_residual": residual,
        "passed": passed,
    })
    _write_manifest(out_dir, "kernels",
                    {"diffusion": diffusion, "hbar": hbar, "mass": mass,
                     "n_x": n_x, "n_t": n_t, "out": out},
                    [heat_path, schrod_path, verdict_path])
    return EXIT_OK if passed else EXIT_STAT


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
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--steps", type=int, default=None)
    parser.add_argument("--horizon", type=float, default=None)
    parser.add_argument("--bins", type=int, default=None)
    parser.add_argument("--alpha", type=float, default=None)
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--config", type=str, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="parcelwalk",
                     description="Square roots of Brownian motion and quantized-geometry checks")
    sub = parser.add_subparsers(dest="command", required=True)

    fig3 = sub.add_parser("fig3", help="Brownian vs rotated square-root comparison")
    _add_run_flags(fig3)

    tri = sub.add_parser("triangle", help="triangle rows and convergence tables")
    tri.add_argument("--n-max", type=int, default=50)
    tri.add_argument("--kind", choices=["classical", "quantum", "both"], default="both")
    tri.add_argument("--out", type=str, default="out")

    geo = sub.add_parser("geometry", help="quantization reports")
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
    ker.add_argument("--diffusion", type=float, default=0.5)
    ker.add_argument("--hbar", type=float, default=1.0)
    ker.add_argument("--mass", type=float, default=1.0)
    ker.add_argument("--out", type=str, default="out")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "fig3":
            return cmd_fig3(resolve_config(args))
        if args.command == "triangle":
            return cmd_triangle(args.n_max, args.kind, args.out)
        if args.command == "geometry":
            return cmd_geometry(args.report, args.out, circle_n=args.circle_n,
                                oscillator_n_max=args.oscillator_n_max, hbar=args.hbar,
                                omega=args.omega, sphere_samples=args.sphere_samples,
                                seed=args.seed)
        if args.command == "kernels":
            return cmd_kernels(args.out, diffusion=args.diffusion, hbar=args.hbar,
                               mass=args.mass)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
