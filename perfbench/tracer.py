"""Run ``parcelwalk.cli.main`` with timing wrappers on the library's public functions.

Usage: ``python3 perfbench/tracer.py PROFILE_JSON CLI_ARG...``

Every public function defined in one of the traced modules is wrapped, and
the wrapper is bound wherever a parcelwalk module holds that function, so
calls made through ``from .x import f`` names are seen too.  Spans are
aggregated per function into (count, total seconds, self seconds) instead of
being kept per call: one triangle run makes ~10^6 calls.  A function that a
refactor removed simply does not appear in the profile.

The profile JSON holds ``main_s`` (duration of ``cli.main``), ``functions``
and ``observed`` (sizes read from a few calls' arguments or results).  The
process exits with the code ``cli.main`` returned.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

TRACED_MODULES = ("stochastic", "stats", "triangle", "geometry", "clifford", "kernels")
BOUND_MODULES = ("parcelwalk", "parcelwalk.cli") + tuple(f"parcelwalk.{m}" for m in TRACED_MODULES)


def _ensemble_sizes(args, result):
    increments = result.increments
    return {"stochastic.trials": increments.shape[0], "stochastic.steps": increments.shape[1],
            "stochastic.ensemble_mb": increments.nbytes / 2**20}


# Sizes that turn a span into a rate or a ratio, read from one call.  An
# observer that no longer fits the function's signature drops its metrics.
OBSERVERS = {
    "stochastic.brownian_increments": _ensemble_sizes,
    "stats.stats_report": lambda args, result: {"stats.samples": len(args[0])},
    # Three dense complex n x n products, 8 n^3 real flops each.
    "geometry.circle_quantization_residual":
        lambda args, result: {"geometry.circle_gflop": 24 * args[0].n_points ** 3 / 1e9},
    "kernels.wick_identity_residual": lambda args, result: {"kernels.grid_points": len(args[2])},
}


class Tracer:
    """Aggregated span profile with a stack that carries child time to the parent."""

    def __init__(self):
        self.functions: dict[str, list] = {}  # name -> [count, total_s, self_s]
        self.observed: dict[str, float] = {}
        self.observer_errors: dict[str, str] = {}
        self._stack: list[float] = []

    def wrap(self, name: str, fn):
        record = self.functions.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        observer = OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if observer is not None:
                self._observe(name, observer, args, result)
            return result

        return traced

    def _observe(self, name, observer, args, result):
        try:
            values = observer(args, result)
        except (AttributeError, IndexError, TypeError) as exc:
            self.observer_errors[name] = repr(exc)
            return
        for key, value in values.items():
            self.observed[key] = self.observed.get(key, 0) + value

    def install(self) -> None:
        """Wrap each traced module's public functions in every module that binds them."""
        bound = [importlib.import_module(name) for name in BOUND_MODULES]
        for short in TRACED_MODULES:
            module = importlib.import_module(f"parcelwalk.{short}")
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                traced = self.wrap(f"{short}.{attr}", fn)
                for holder in bound:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, traced)


def main(argv: list[str]) -> int:
    profile_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from parcelwalk import cli

    start = time.perf_counter()
    code = cli.main(cli_args)
    main_s = time.perf_counter() - start
    with open(profile_path, "w", encoding="utf-8") as fh:
        json.dump({"main_s": main_s, "exit": code, "functions": tracer.functions,
                   "observed": tracer.observed, "observer_errors": tracer.observer_errors},
                  fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
