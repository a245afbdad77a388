"""Command-line entry point: run the experiments and emit CSV/JSON/SVG artifacts.

Subcommands: ``fig3`` (Brownian vs Wick-rotated square-root histogram
comparison), ``triangle`` (one table of rows per kind and Gaussian-convergence
tables), ``geometry`` (circle/oscillator/sphere quantization reports),
``kernels`` (one table of both kernels on a grid and the imaginary-time
identity residual).

The parser checks each flag (a ``fig3 --config`` value too).  ``main`` is
the one run path: it opens one ``_RunDir`` on ``--out``, whose first staged
artifact creates it; the subcommand checks what two flags set together,
computes, stages its artifacts and returns its check records; ``main`` then
calls ``_RunDir.finish``, which alone writes ``verdict.json`` and moves the
artifacts into place, ``manifest.json`` (the resolved configuration and a
sha256 per artifact, keyed by file name) last.  A run that fails before that
leaves the directory as it was.  Re-running with the same configuration
reproduces the artifacts byte for byte.  JSON artifacts are strict: a
non-finite value is an error.  Exit codes: 0 success, 1 usage (a non-finite
result, or a size too large for memory, included), 2 a failed check, 3 I/O
failure (a failed ``fig3`` worker process included).

Only the numpy-free modules are imported here; ``fig3`` and ``geometry``
import numpy and their modules when they run, so ``triangle`` and
``kernels`` never load numpy.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import sys
import tempfile
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import asdict
from itertools import starmap
from pathlib import Path
from typing import TYPE_CHECKING

from . import kernels, ranges, triangle

if TYPE_CHECKING:
    import numpy as np

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_STAT = 2
EXIT_IO = 3

# Fixed plotting/histogram window for standardized samples.
_STANDARD_RANGE = (-4.5, 4.5)

# Points per chunk of the geometry sphere check: its temporaries stay under
# a MiB whatever --sphere-samples is.
_SPHERE_CHUNK = 1024

# Rows per chunk of endpoints.csv, and bytes per read when an artifact is
# hashed: what a run holds of either stays under a MiB whatever --trials is.
# A read of a small file allocates the whole read size first, so a larger
# one raises the peak of the small runs.
_CSV_CHUNK_ROWS = 4096
_HASH_READ = 1 << 16

# Largest geometry inputs: the circle check's arrays stay near 2.5 MiB, the
# chunked sphere check near 10 s on a 2-vCPU VM; an oscillator level is a report row.
MAX_CIRCLE_N = 2**16
MAX_SPHERE_SAMPLES = 10**7
MAX_OSCILLATOR_N = 1000

# Most fig3 histogram bins: at the cap, `--trials 1000 --steps 16` peaks near
# 39 MiB RSS (36 MiB at the default 60 bins) and the overlay SVG is 0.42 MB.
MAX_BINS = 10**4


class UsageError(Exception):
    pass


def _checked(name: str, convert, ok, rule: str):
    """``type=`` of the flag with dest ``name``; argparse lets its ``UsageError`` through."""
    def parse(text: str):
        with suppress(ValueError):
            if ok(value := convert(text)):
                return value
        raise UsageError(f"{name} must be {rule}, got {text}")
    return parse


def _int_in(name: str, lo: int, hi: float = math.inf):
    return _checked(name, int, lambda value: lo <= value <= hi, f"an integer in [{lo}, {hi}]")


def _positive_float(name: str):
    return _checked(name, float, lambda value: value > 0 and math.isfinite(value),
                    "positive and finite")


# as stats._ks_coefficient checks it
_alpha = _checked("alpha", float, lambda value: 0.0 < value / 2.0 < 0.5,
                  "in (0, 1) with alpha / 2 > 0")


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


@contextmanager
def _write_trial_csv(path: Path, header: list[str], columns: list[np.ndarray]):
    """``_write_csv`` of the rows ``zip(range(trials), *columns)``, formatted while the
    ``with`` block runs.

    One worker per trial range, forked by ``ranges.run_in_ranges``, formats
    its rows into its own file, ``_CSV_CHUNK_ROWS`` rows to a write; when the
    block ends, ``path`` gets the header and then each file in range order.
    A row's text does not depend on its range or its chunk, so the file is
    the same for any number of ranges.  A block that raises writes nothing.
    """
    row = _csv_row_format(header)

    def write_range(lo: int, hi: int, out) -> None:
        for start in range(lo, hi, _CSV_CHUNK_ROWS):
            stop = min(start + _CSV_CHUNK_ROWS, hi)
            chunk = (column[start:stop].tolist() for column in columns)
            out.write("".join(starmap(row, zip(range(start, stop), *chunk))).encode("utf-8"))

    with ranges.run_in_ranges(ranges.range_bounds(len(columns[0])), write_range) as join:
        yield
        parts = join()
        with path.open("wb") as handle:
            handle.write((",".join(header) + "\n").encode("utf-8"))
            for part in parts:
                shutil.copyfileobj(part, handle)


def _file_digest(path: Path) -> tuple[str, int]:
    """sha256 hex digest and size of the file at ``path``, read ``_HASH_READ`` bytes at a time."""
    digest, size = hashlib.sha256(), 0
    with path.open("rb") as handle:
        while block := handle.read(_HASH_READ):
            digest.update(block)
            size += len(block)
    return digest.hexdigest(), size


def _json_text(name: str, payload: dict) -> str:
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValueError(f"{name} not written: {exc}") from None


def _check(name: str, statistic: float, threshold: float, **extra) -> dict:
    """One record of ``verdict.json``: it passes when ``statistic <= threshold`` (a NaN fails)."""
    return {"name": name, "statistic": statistic, "threshold": threshold, **extra,
            "passed": bool(statistic <= threshold)}


class _RunDir:
    """The output directory of one run: it owns the artifacts, the verdict and the exit code.

    ``with _RunDir(out) as run:`` creates nothing until the first ``path``
    call, which creates ``out`` and a private ``.staging-*`` directory inside
    it where every artifact is staged; ``finish`` writes ``verdict.json``
    from the run's check records, checksums the staged files, then moves
    them into ``out`` with ``manifest.json`` last, after the old manifest is
    gone, so ``out`` never holds a manifest whose checksums do not match its
    files.  A run that fails before ``finish`` leaves ``out`` as it was, and
    removes ``out`` and each parent of it that it created.  Every artifact is
    a file directly in ``out``, and its manifest key is its file name; a
    rerun removes the old run's files it does not rewrite.
    """

    def __init__(self, out: str) -> None:
        self.dir = Path(out)
        self.names: list[str] = []
        self.created: list[Path] = []
        self.staging: Path | None = None

    def __enter__(self) -> _RunDir:
        return self

    def __exit__(self, *exc_info) -> None:
        # A forked worker leaves through os._exit and never gets here.
        if self.staging is not None:
            shutil.rmtree(self.staging, ignore_errors=True)
        with suppress(OSError):  # stops at the first that is not empty: a finished run
            for path in self.created:
                path.rmdir()

    def path(self, name: str) -> Path:
        """Staged path of the artifact file ``name``, to be written next."""
        if self.staging is None:
            # ``out`` and each missing ancestor, bottom up
            self.created = [path for path in (self.dir, *self.dir.parents) if not path.exists()]
            self.dir.mkdir(parents=True, exist_ok=True)
            # Inside ``out``, so that every move in ``finish`` stays on one filesystem.
            self.staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=self.dir))
        self.names.append(name)
        return self.staging / name

    def write_text(self, name: str, text: str) -> None:
        self.path(name).write_text(text, encoding="utf-8")

    def write_json(self, name: str, payload: dict) -> None:
        self.write_text(name, _json_text(name, payload))

    def finish(self, command: str, config: dict, checks: list[dict], **details) -> int:
        """Write ``verdict.json`` from ``checks`` and ``details``, move the artifacts into
        place, manifest last; return 0 if every check passed, else 2."""
        all_passed = all(check["passed"] for check in checks)
        self.write_json("verdict.json", {"checks": checks, "all_passed": all_passed, **details})
        artifacts = {}
        for name in self.names:
            digest, size = _file_digest(self.staging / name)
            artifacts[name] = {"sha256": digest, "bytes": size}
        canonical = json.dumps(config, sort_keys=True).encode("utf-8")
        self.write_json("manifest.json", {
            "command": command,
            "config": config,
            "config_hash": hashlib.sha256(canonical).hexdigest(),
            "artifacts": artifacts,
        })
        stale = self._stale_files()
        (self.dir / "manifest.json").unlink(missing_ok=True)
        for path in stale:
            path.unlink(missing_ok=True)
        for name in self.names:
            os.replace(self.staging / name, self.dir / name)
        return EXIT_OK if all_passed else EXIT_STAT

    def _stale_files(self) -> list[Path]:
        """The old manifest's files, unchanged, that this run does not write (bare names only)."""
        try:
            old = json.loads((self.dir / "manifest.json").read_bytes())["artifacts"]
            entries = [(self.dir / name, entry["bytes"], entry["sha256"])
                       for name, entry in old.items()
                       if name not in self.names and name == Path(name).name]
        except (OSError, ValueError, LookupError, TypeError, AttributeError):
            return []
        return [path for path, size, digest in entries
                if path.is_file() and path.stat().st_size == size
                and _file_digest(path)[0] == digest]


def _flags(args: argparse.Namespace) -> dict:
    """A subcommand's parsed flags, as its manifest records them."""
    return {key: value for key, value in vars(args).items()
            if key not in ("command", "run", "config")}


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

def cmd_fig3(args: argparse.Namespace, run: _RunDir) -> tuple[list[dict], dict]:
    """Brownian endpoints vs Wick-rotated square-root channels, with KS verdicts.

    The KS and moment checks, the histograms and the overlay are computed
    while the forked workers of ``endpoints.csv`` format its rows.
    """
    import numpy as np

    from . import stats, stochastic

    summary = stochastic.stream_endpoint_statistics(args.seed, args.trials, args.steps,
                                                    args.horizon_T)
    brownian_scaled = summary.brownian_scaled
    real_ch, imag_ch = summary.real_channel, summary.imag_channel
    max_step, max_path = summary.max_step_residual, summary.max_path_residual
    named = [("brownian_endpoints", brownian_scaled),
             ("sqrt_real_channel", real_ch),
             ("sqrt_imag_channel", imag_ch)]

    with _write_trial_csv(run.path("endpoints.csv"),
                          ["trial", "brownian_scaled", "real_channel", "imag_channel"],
                          [brownian_scaled, real_ch, imag_ch]):
        checks = []
        reports = {}
        for name, samples in named:
            ks = stats.ks_one_sample(samples, stats.std_normal_cdf)
            # the benchmark gate reads the ks_* names and their passed
            checks.append(_check(f"ks_{name}_vs_normal", ks.statistic,
                                 ks.threshold_at(args.alpha), alpha=args.alpha))
            reports[name] = asdict(stats.stats_report(samples))
        two = stats.ks_two_sample(real_ch, imag_ch)
        checks.append(_check("ks_two_sample_channels", two.statistic,
                             two.threshold_at(args.alpha), alpha=args.alpha))
        # The step residual is relative, so one bound holds at every horizon.
        checks.append(_check("square_identity_max_step", max_step, 1e-12))

        curve_x = np.linspace(*_STANDARD_RANGE, 181)
        curve_y = np.exp(-curve_x**2 / 2.0) / math.sqrt(2.0 * math.pi)
        series = [("standard normal", "black", curve_x, curve_y)]
        counts = []
        for (name, samples), color in zip(named, ("#1f77b4", "#d62728", "#2ca02c")):
            hist = stats.histogram_build(samples, args.n_bins, _STANDARD_RANGE)
            counts.append(hist.counts.tolist())
            centers = (hist.edges[:-1] + hist.edges[1:]) / 2.0
            series.append((name.replace("_", " "), color, centers, hist.densities()))
        # Every sample shares the edges: they depend only on --bins and the window.
        edges = hist.edges.tolist()
        header = ["bin_lo", "bin_hi", *(name for name, _ in named)]
        _write_csv(run.path("histograms.csv"), header, zip(edges[:-1], edges[1:], *counts))
        run.write_text("fig3_overlay.svg",
                       _overlay_svg(series, "Brownian kernel vs rotated square-root channels"))
    # the benchmark gate reads square_identity
    return checks, {"square_identity": {"max_step_residual": max_step,
                                        "max_path_residual": max_path},
                    "channel_reports": reports}


def cmd_triangle(args: argparse.Namespace, run: _RunDir) -> tuple[list[dict], dict]:
    """One table of rows per kind, plus the amplitude-vs-binomial residual and
    convergence tables.

    One pass builds each row once, with its profile: the classical row by
    Pascal addition, the quantum row from its pmf.  The tables of rows
    (``classical_rows.csv``, ``quantum_rows.csv``), residuals and sup errors
    (against one Gaussian row per ``n``) read those profiles.
    """
    n_max, kind = args.n_max, args.kind
    kinds = ["classical", "quantum"] if kind == "both" else [kind]
    # Each table is closed before finish hashes it.
    with ExitStack() as stack:
        tables = {which: stack.enter_context(
            run.path(f"{which}_rows.csv").open("w", encoding="utf-8")) for which in kinds}
        for which, table in tables.items():
            table.write(triangle.ROW_CSV_HEADER[which])
        classical = triangle.classical_row(0)
        if "classical" in tables:
            tables["classical"].write(triangle.row_csv(classical))
        max_residual = 0.0
        residual_rows = []
        sup_rows = []
        for n in range(1, n_max + 1):
            classical = triangle.next_classical_row(classical)
            rows = {"classical": classical}
            if "quantum" in kinds:
                quantum = rows["quantum"] = triangle.qtpt_row(n, classical)
                residual = max(abs(m - p) for m, p in zip(quantum.probs, classical.probs))
                residual_rows.append((n, residual))
                max_residual = max(max_residual, residual)
            for which, table in tables.items():
                table.write(triangle.row_csv(rows[which]))
            gauss = triangle.gaussian_approx_row(n)
            sup_rows.append((n, *(triangle.sup_error(rows[which].probs, gauss)
                                  for which in kinds)))

    # Classical rows alone are not judged: that run's checks are empty.
    checks, details = [], {}
    if "quantum" in kinds:
        _write_csv(run.path("modulus_residuals.csv"), ["n", "max_abs_residual"], residual_rows)
        checks.append(_check("max_modulus_residual", max_residual, 1e-10))
        # the benchmark gate reads max_modulus_residual here
        details["max_modulus_residual"] = max_residual
    _write_csv(run.path("sup_error.csv"), ["n"] + [f"{w}_sup_error" for w in kinds], sup_rows)
    return checks, details


def cmd_geometry(args: argparse.Namespace, run: _RunDir) -> tuple[list[dict], dict]:
    """Circle, oscillator and sphere quantization checks.

    ``geometry_report.json`` holds only what ``verdict.json`` and the manifest
    do not: the circle's wrap value and length rule, the oscillator rows and
    the sphere's ``+1`` fraction.

    Each oscillator row is checked where it is built: a row that ``--hbar``
    and ``--omega`` take out of float range is a usage error, raised before
    the other sections run.
    """
    import numpy as np

    from . import geometry

    report, circle_n, hbar, omega = args.report, args.circle_n, args.hbar, args.omega
    sphere_samples, seed = args.sphere_samples, args.seed
    sections = {}
    checks = []

    if report in ("oscillator", "all"):
        rows = []
        for n in range(args.oscillator_n_max + 1):
            energy = (n + 0.5) * hbar * omega
            try:
                spec = geometry.OscillatorSpec(energy, omega, hbar, n)
                volumes = geometry.oscillator_volumes(spec)
                in_range = all(map(math.isfinite, (
                    energy, volumes.classical_volume, volumes.quantized_volume)))
            except ValueError:
                in_range = False
            if not in_range:
                raise UsageError(f"--hbar {hbar} and --omega {omega} put an oscillator row "
                                 "out of float range")
            rows.append({
                "n": n,
                "energy": energy,
                "classical_volume": volumes.classical_volume,
                "quantized_volume": volumes.quantized_volume,
            })
        sections["oscillator"] = {"rows": rows}
        worst_gap = max(abs(row["classical_volume"] - row["quantized_volume"])
                        / max(1.0, row["classical_volume"]) for row in rows)
        checks.append(_check("oscillator_relative_gap", worst_gap, 1e-12))

    if report in ("circle", "all"):
        model = geometry.circle_model(circle_n)
        interior, wrap = geometry.circle_quantization_residual(model)
        expected_n = {2.0 * math.pi: 1, 4.0 * math.pi: 2, 7.0: None}
        lengths = {length: geometry.length_quantization_check(length, tol=1e-6)
                   for length in expected_n}
        sections["circle"] = {
            "wrap_value": wrap,
            "length_checks": {repr(length): n for length, n in lengths.items()},
        }
        checks += [
            _check("circle_interior_residual", interior, 1e-10),
            _check("circle_wrap_error", abs(wrap - (1 - circle_n)), 0),
            _check("circle_length_rule",
                   sum(lengths[length] != n for length, n in expected_n.items()), 0),
        ]

    if report in ("sphere", "all"):
        # One generator drawn chunk by chunk gives the bytes of one
        # (sphere_samples, 3) draw; maxima and counts fold exactly.
        rng = np.random.Generator(np.random.Philox(key=seed, counter=0))
        worst_offdiag = worst_scalar_gap = 0.0
        n_plus = 0
        for start in range(0, sphere_samples, _SPHERE_CHUNK):
            u = rng.uniform(-1.0, 1.0, size=(min(_SPHERE_CHUNK, sphere_samples - start), 3))
            scalar, offdiag = geometry.sphere_map_square(u)
            squares = u * u
            expected = squares[:, 2] - squares[:, 0] - squares[:, 1]
            gap = scalar - expected
            worst_offdiag = max(worst_offdiag, float(offdiag.max()))
            worst_scalar_gap = max(worst_scalar_gap, float(np.hypot(gap.real, gap.imag).max()))
            n_plus += int(np.count_nonzero(expected > 0))
        sections["sphere"] = {"plus_one_fraction": n_plus / sphere_samples}
        checks += [_check("sphere_max_offdiag_residual", worst_offdiag, 1e-12),
                   _check("sphere_max_scalar_gap", worst_scalar_gap, 1e-12)]

    # the benchmark gate reads this all_passed
    run.write_json("geometry_report.json", {
        "sections": sections, "all_passed": all(check["passed"] for check in checks)})
    return checks, {}


def cmd_kernels(args: argparse.Namespace, run: _RunDir) -> tuple[list[dict], dict]:
    """Both kernels on one (x, t) grid table, plus the imaginary-time identity residual.

    The diffusion coefficient is the one the identity holds for, D = hbar/(2m).
    """
    hbar, mass = args.hbar, args.mass
    diffusion = hbar / (2 * mass)
    if not (diffusion > 0 and math.isfinite(diffusion)):
        raise UsageError(f"hbar/(2*mass) must be positive and finite, got {diffusion}")
    spec = kernels.KernelSpec(diffusion_D=diffusion, hbar=hbar, mass_m=mass)
    # np.linspace(-4, 4, n_x) and np.linspace(0.1, 2.5, n_t), bit for bit, without numpy
    n_x, n_t = args.n_x, args.n_t
    xs = [-4.0 + i * (8.0 / (n_x - 1)) for i in range(n_x - 1)] + [4.0]
    ts = [0.1 + i * ((2.5 - 0.1) / (n_t - 1)) for i in range(n_t - 1)] + [2.5]
    # 4*pi*D*t, m/(2*pi*hbar*t) and the phase m*x**2/(2*hbar*t) at the grid's edges
    t_lo, t_hi = ts[0], ts[-1]
    try:
        edges = (4.0 * math.pi * diffusion * t_lo, 4.0 * math.pi * diffusion * t_hi,
                 mass / (2.0 * math.pi * hbar * t_lo), mass / (2.0 * math.pi * hbar * t_hi),
                 mass * xs[0] * xs[0] / (2.0 * hbar * t_lo))
    except ZeroDivisionError:
        edges = (0.0,)
    if not all(sys.float_info.min <= value < math.inf for value in edges):
        raise UsageError(f"--hbar {hbar} and --mass {mass} take a kernel argument "
                         "out of the normal float range on the grid")
    grid = [(x, t) for t in ts for x in xs]
    _write_csv(run.path("kernel_grid.csv"),
               ["x", "t", "heat", "schrodinger_re", "schrodinger_im"],
               ((x, t, kernels.heat_kernel(spec, x, t), value.real, value.imag)
                for x, t in grid for value in [kernels.schrodinger_kernel(spec, x, t)]))
    residual = kernels.wick_identity_residual(spec, spec, grid)
    return [_check("wick_identity_residual", residual, 1e-12)], {}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; our contract reserves 2 for statistical
    # failure, so usage problems must exit 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def build_parser(fig3_config: dict | None = None) -> argparse.ArgumentParser:
    """The parser; ``fig3_config``'s text values, which argparse checks as flags, are defaults."""
    parser = _Parser(prog="parcelwalk",
                     description="Square roots of Brownian motion and quantized-geometry checks")
    sub = parser.add_subparsers(dest="command", required=True)
    # One --out for every subcommand; argparse shares this action among them.
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default="out", dest="output_dir", metavar="OUT")

    fig3 = sub.add_parser("fig3", parents=[out],
                          help="Brownian vs rotated square-root comparison")
    fig3.add_argument("--seed", type=_int_in("seed", 0, 2**64 - 1), default=42)
    fig3.add_argument("--trials", type=_int_in("trials", 100), default=100_000)
    fig3.add_argument("--steps", type=_int_in("steps", 1), default=1_000)
    fig3.add_argument("--horizon", type=_positive_float("horizon_T"), default=1.0,
                      dest="horizon_T", metavar="HORIZON")
    fig3.add_argument("--bins", type=_int_in("n_bins", 1, MAX_BINS), default=60,
                      dest="n_bins", metavar="BINS")
    fig3.add_argument("--alpha", type=_alpha, default=0.01)
    fig3.add_argument("--config")
    fig3.set_defaults(run=cmd_fig3, **(fig3_config or {}))

    tri = sub.add_parser("triangle", parents=[out], help="triangle rows and convergence tables")
    tri.set_defaults(run=cmd_triangle)
    tri.add_argument("--n-max", type=_int_in("n_max", 1, triangle.MAX_ROW), default=50)
    tri.add_argument("--kind", choices=["classical", "quantum", "both"], default="both")

    geo = sub.add_parser("geometry", parents=[out], help="quantization reports")
    geo.set_defaults(run=cmd_geometry)
    geo.add_argument("--report", choices=["circle", "oscillator", "sphere", "all"],
                     default="all")
    geo.add_argument("--circle-n", type=_int_in("circle_n", 4, MAX_CIRCLE_N), default=64)
    geo.add_argument("--oscillator-n-max", type=_int_in("oscillator_n_max", 0, MAX_OSCILLATOR_N),
                     default=10)
    geo.add_argument("--hbar", type=_positive_float("hbar"), default=1.0)
    geo.add_argument("--omega", type=_positive_float("omega"), default=1.0)
    geo.add_argument("--sphere-samples", type=_int_in("sphere_samples", 1, MAX_SPHERE_SAMPLES),
                     default=1000)
    geo.add_argument("--seed", type=_int_in("seed", 0, 2**128 - 1), default=42)

    ker = sub.add_parser("kernels", parents=[out], help="kernel grid table and identity residual")
    # Points of the grid in x and in t: not flags, but the manifest records them.
    ker.set_defaults(run=cmd_kernels, n_x=40, n_t=25)
    ker.add_argument("--hbar", type=_positive_float("hbar"), default=1.0)
    ker.add_argument("--mass", type=_positive_float("mass"), default=1.0)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "config", None) is not None:  # fig3: flags > config > defaults
            config = load_config_file(args.config)
            if unknown := [key for key in config if key not in _flags(args)]:
                raise UsageError(f"unknown config key: {unknown[0]}")
            args = build_parser(config).parse_args(argv)
        with _RunDir(args.output_dir) as run:
            checks, details = args.run(args, run)
            return run.finish(args.command, _flags(args), checks, **details)
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
