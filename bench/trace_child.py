"""Run the orbitgap CLI in this process with a span around every call into a layer.

    python3 bench/trace_child.py SPANS_FILE RUN_ID -- analyze PROBLEM --out RECORDS

The package itself is not changed.  Before `orbitgap.cli.main` runs, each
function in `SPANNED` is replaced by a wrapper that records a span (id,
name, start ns, end ns, parent id) and each function in `COUNTED` by one that
only counts calls, because those run millions of times.  A function imported
by name into other modules (`pipeline` imports `compute_returns`, the package
re-exports most names) is replaced in every orbitgap module that holds it.
Spans stay in memory and are written to SPANS_FILE as one JSON document
after the CLI returns.  The exit code is the CLI's.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

# (module, attribute path) -> metric stem "<module>.<function>"
SPANNED = {
    ("cli", "main"): "cli.main",
    ("problemfile", "load_problem"): "problemfile.load_problem",
    ("pipeline", "run_analyze"): "pipeline.run_analyze",
    ("pipeline", "stage_bad_primes"): "pipeline.stage_bad_primes",
    ("pipeline", "stage_avoidance"): "pipeline.stage_avoidance",
    ("pipeline", "stage_diagnostics"): "pipeline.stage_diagnostics",
    ("pipeline", "stage_normalization"): "pipeline.stage_normalization",
    ("pipeline", "stage_interpolation"): "pipeline.stage_interpolation",
    ("pipeline", "stage_returns"): "pipeline.stage_returns",
    ("pipeline", "stage_gaps"): "pipeline.stage_gaps",
    ("pipeline", "stage_density"): "pipeline.stage_density",
    ("reduction", "bad_primes"): "reduction.bad_primes",
    ("reduction", "avoidance_search"): "reduction.avoidance_search",
    ("normalization", "ensure_not_preperiodic"): "normalization.ensure_not_preperiodic",
    ("normalization", "build_model_family"): "normalization.build_model_family",
    ("interpolation", "build_interpolant"): "interpolation.build_interpolant",
    ("interpolation", "verify_error_bound"): "interpolation.verify_error_bound",
    ("interpolation", "verify_compatibility"): "interpolation.verify_compatibility",
    ("interpolation", "constancy_test"): "interpolation.constancy_test",
    ("gaps", "compute_returns"): "gaps.compute_returns",
    ("gaps", "localize_zeros"): "gaps.localize_zeros",
    ("gaps", "restrict_to_disk"): "gaps.restrict_to_disk",
    ("gaps", "build_gap_report"): "gaps.build_gap_report",
    ("gaps", "build_density_report"): "gaps.build_density_report",
    ("padic", "binomial_row"): "padic.binomial_row",
    ("padic", "MahlerSeries.evaluate"): "padic.MahlerSeries.evaluate",
    ("padic", "TruncatedSeries.__mul__"): "padic.TruncatedSeries.mul",
    ("padic", "TruncatedSeries.compose"): "padic.TruncatedSeries.compose",
}

COUNTED = {
    ("reduction", "preimage_buckets"): "reduction.preimage_buckets",
    ("reduction", "first_hit_depth"): "reduction.first_hit_depth",
    ("gaps", "newton_zero_count"): "gaps.newton_zero_count",
    ("padic", "PadicContext.scalar"): "padic.PadicContext.scalar",
    ("polynomials", "ModularMap.__call__"): "polynomials.ModularMap.call",
}


class Tracer:
    """In-memory span and call-count recorder for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, name, start_ns, end_ns, parent_id]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def spanned(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span = [len(spans), name, 0, 0, stack[-1] if stack else None]
            spans.append(span)
            stack.append(span[0])
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _install(tracer: Tracer) -> None:
    modules = {
        name: importlib.import_module(f"orbitgap.{name}")
        for name in ("cli", "problemfile", "pipeline", "reduction", "normalization",
                     "interpolation", "gaps", "padic", "polynomials")
    }
    holders = [m for k, m in sys.modules.items() if k == "orbitgap" or k.startswith("orbitgap.")]
    for table, make in ((SPANNED, tracer.spanned), (COUNTED, tracer.counted)):
        for (module, path), name in table.items():
            owner = modules[module]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            wrapped = make(name, original)
            setattr(owner, attr, wrapped)
            if classes:
                continue  # methods are looked up on the class
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)


def main(argv: list[str]) -> int:
    spans_path, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: trace_child.py SPANS_FILE RUN_ID -- CLI_ARGS...")
    tracer = Tracer()
    _install(tracer)
    cli = sys.modules["orbitgap.cli"]
    code = cli.main(cli_args)
    Path(spans_path).write_text(
        json.dumps({"run_id": run_id, "spans": tracer.spans, "counts": tracer.counts}),
        encoding="utf-8",
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
