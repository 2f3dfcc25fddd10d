"""The orbitgap benchmark: `orbitgap analyze` timed from outside the package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs to be installed.  The
seed generates the problem (see workloads.py).  One child runs at a time.

--trace 0 measures the end-to-end metrics: each sample is a fresh
`python3 -m orbitgap.cli analyze PROBLEM --out RECORDS` process, timed from
spawn to exit, and each is followed by a set-up probe, a fresh interpreter
that imports orbitgap and loads the problem.  Samples are taken until S
seconds have passed, and medians are reported.

--trace 1 measures the per-layer metrics: it alternates an untraced sample
with a traced one (trace_child.py), reports the median of each span total
and the call counts, which must repeat exactly, and the tracing overhead.

Every sample's records are checked against the invariants of the
untranslated sample.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: A child still running after this long is killed and counted as failed.
CHILD_TIMEOUT_S = 60
#: Fewest rounds in a run.  A round is one analyze sample and one set-up
#: probe (trace 0), or one untraced and one traced sample (trace 1).
MIN_ROUNDS = 2

SETUP_SNIPPET = "import sys, orbitgap; orbitgap.load_problem(sys.argv[1])"

END_TO_END = {"analyze_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# Span metrics: "<stem>.s" is the time inside the outermost calls of a
# function, "<stem>.calls" the number of calls.
_STAGES = ("bad_primes", "avoidance", "diagnostics", "normalization",
           "interpolation", "returns", "gaps", "density")
PER_LAYER = {
    **{f"pipeline.stage_{s}.s": "s" for s in _STAGES},
    "pipeline.self_s": "s",
    "cli.self_s": "s",
    "problemfile.load_problem.s": "s",
    "reduction.bad_primes.s": "s",
    "reduction.avoidance_search.s": "s",
    "reduction.preimage_buckets.calls": "count",
    "reduction.first_hit_depth.calls": "count",
    "reduction.primes_scanned": "count",
    "reduction.certified_ratio": "ratio",
    "normalization.ensure_not_preperiodic.s": "s",
    "normalization.build_model_family.s": "s",
    "normalization.models": "count",
    "interpolation.build_interpolant.s": "s",
    "interpolation.verify_error_bound.s": "s",
    "interpolation.verify_compatibility.s": "s",
    "interpolation.constancy_test.s": "s",
    "gaps.compute_returns.s": "s",
    "gaps.localize_zeros.s": "s",
    "gaps.restrict_to_disk.s": "s",
    "gaps.restrict_to_disk.calls": "count",
    "gaps.newton_zero_count.calls": "count",
    "gaps.build_gap_report.s": "s",
    "gaps.build_density_report.s": "s",
    "padic.binomial_row.s": "s",
    "padic.binomial_row.calls": "count",
    "padic.MahlerSeries.evaluate.s": "s",
    "padic.MahlerSeries.evaluate.calls": "count",
    "padic.PadicContext.scalar.calls": "count",
    "padic.TruncatedSeries.mul.s": "s",
    "padic.TruncatedSeries.mul.calls": "count",
    "padic.TruncatedSeries.compose.s": "s",
    "padic.TruncatedSeries.compose.calls": "count",
    "polynomials.ModularMap.call.calls": "count",
    "trace.analyze_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The package cannot be imported or cannot load the problem."""


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], stderr_path: Path) -> tuple[float, int, float]:
    """Run one child to completion: (wall seconds, exit code, peak RSS MiB)."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=subprocess.DEVNULL, stderr=err, env=_child_env(), cwd=ROOT
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024


# ---------------------------------------------------------------------------
# Spans -> per-layer figures
# ---------------------------------------------------------------------------


def span_metrics(spans: list[list]) -> dict[str, float]:
    """Per-name totals and calls, and per-module self time, from raw spans.

    A span is [id, name, start_ns, end_ns, parent_id].  A name's total counts
    only spans with no ancestor of the same name, so recursion is not counted
    twice.  A span's self time is its duration minus its direct children's.
    """
    by_id = {s[0]: s for s in spans}
    child_ns: dict[int, int] = {}
    for s in spans:
        if s[4] is not None:
            child_ns[s[4]] = child_ns.get(s[4], 0) + s[3] - s[2]
    out: dict[str, float] = {}
    for s in spans:
        sid, name, start, end, parent = s
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        module = name.split(".", 1)[0]
        self_ns = end - start - child_ns.get(sid, 0)
        out[f"{module}.self_s"] = out.get(f"{module}.self_s", 0.0) + self_ns / 1e9
        while parent is not None and by_id[parent][1] != name:
            parent = by_id[parent][4]
        if parent is None:
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + (end - start) / 1e9
    return out


def traced_figures(spans_doc: dict, records: list[dict]) -> dict[str, float]:
    """Every per-layer figure of one traced sample except the trace.* pair."""
    figures = span_metrics(spans_doc["spans"])
    for name, count in spans_doc["counts"].items():
        figures[f"{name}.calls"] = count
    rows = next(r for r in records if r["record"] == "certificates")["rows"]
    figures["reduction.primes_scanned"] = len(rows)
    figures["reduction.certified_ratio"] = sum(r["verdict"] == "certified" for r in rows) / len(rows)
    figures["normalization.models"] = sum(r["record"] == "model" for r in records)
    return figures


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
        self.dir.mkdir(parents=True, exist_ok=True)
        doc, self.translation = workloads.make_problem(workload, seed)
        self.problem = self.dir / "problem.json"
        self.problem.write_text(json.dumps(doc, indent=1), encoding="utf-8")
        self.expected = workloads.expected_invariants(workload)
        self.attempted = 0
        self.failures: list[str] = []
        self.analyze_s: list[float] = []
        self.traced_s: list[float] = []
        self.rss_mb: list[float] = []
        self.setup_s: list[float] = []
        self.figures: list[dict[str, float]] = []

    def setup_probe(self) -> float:
        wall, code, _ = spawn(
            [sys.executable, "-c", SETUP_SNIPPET, str(self.problem)], self.dir / "setup.err"
        )
        if code != 0:
            detail = (self.dir / "setup.err").read_text(errors="replace").strip()
            raise BenchError(f"cannot import orbitgap and load the problem: {detail}")
        return wall

    def analyze(self, traced: bool) -> tuple[float, list[dict] | None]:
        """One analyze sample; returns its wall time and its records, None if it failed."""
        self.attempted += 1
        records_path = self.dir / "records.jsonl"
        records_path.unlink(missing_ok=True)
        cli = ["analyze", str(self.problem), "--out", str(records_path)]
        if traced:
            spans_path = self.dir / "spans.json"
            argv = [sys.executable, str(BENCH / "trace_child.py"), str(spans_path),
                    f"{self.workload}/{self.seed}/{self.attempted}", "--", *cli]
        else:
            argv = [sys.executable, "-m", "orbitgap.cli", *cli]
        wall, code, rss = spawn(argv, self.dir / "analyze.err")
        if not traced:
            self.rss_mb.append(rss)
        if code != 0:
            self.failures.append(f"sample {self.attempted}: exit code {code}")
            return wall, None
        records = workloads.read_records(records_path)
        bad = workloads.mismatches(workloads.invariants(records), self.expected)
        if bad:
            self.failures.append(f"sample {self.attempted}: invariants differ: {bad}")
            return wall, None
        return wall, records

    def measure(self) -> None:
        self.setup_probe()  # compiles bytecode, and fails fast without a package
        start = time.perf_counter()
        rounds: list[float] = []
        while True:
            begin = time.perf_counter()
            if self.trace:
                self.analyze_s.append(self.analyze(False)[0])
                wall, records = self.analyze(True)
                self.traced_s.append(wall)
                if records is not None:
                    spans_doc = json.loads((self.dir / "spans.json").read_text(encoding="utf-8"))
                    self.figures.append(traced_figures(spans_doc, records))
            else:
                self.analyze_s.append(self.analyze(False)[0])
                self.setup_s.append(self.setup_probe())
            rounds.append(time.perf_counter() - begin)
            # Stop where the run ends closest to `seconds`: skip a round that
            # would overrun by more than half of a typical round.
            elapsed = time.perf_counter() - start
            if len(rounds) >= MIN_ROUNDS and elapsed + statistics.median(rounds) / 2 >= self.seconds:
                break

    def nondeterministic_counts(self) -> list[str]:
        """Count figures that differ between traced samples of this run."""
        names = [n for n, unit in PER_LAYER.items() if unit == "count"]
        return [n for n in names if len({f.get(n, 0) for f in self.figures}) > 1]

    def metrics(self) -> dict[str, float]:
        if not self.trace:
            return {
                "analyze_s": statistics.median(self.analyze_s),
                "setup_s": statistics.median(self.setup_s),
                "peak_rss_mb": statistics.median(self.rss_mb),
            }
        out = {}
        for name, unit in PER_LAYER.items():
            if name.startswith("trace."):
                continue
            values = [f.get(name, 0) for f in self.figures] or [0]
            out[name] = values[0] if unit == "count" else statistics.median(values)
        out["trace.analyze_s"] = statistics.median(self.traced_s)
        out["trace.overhead_s"] = out["trace.analyze_s"] - statistics.median(self.analyze_s)
        return out


def spread(values: list[float]) -> float | None:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "orbitgap" / "cli.py").is_file():
        print(f"error: no orbitgap sources under {SRC}", file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        run.measure()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    unsteady = run.nondeterministic_counts()
    failed = len(run.failures)
    metrics = run.metrics()
    units = PER_LAYER if run.trace else END_TO_END
    stamp = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "commit": git_commit(),
        "workload": run.workload,
        "seed": run.seed,
        "translation": list(run.translation),
        "analyze_samples": len(run.analyze_s),
        "analyze_spread": spread(run.analyze_s),
        "traced_samples": len(run.traced_s),
        "setup_samples": len(run.setup_s),
        "setup_spread": spread(run.setup_s),
        "failed_share": failed / run.attempted,
        "failures": run.failures,
        "nondeterministic_counts": unsteady,
    }
    (run.dir / "report.json").write_text(
        json.dumps({"stamp": stamp, "analyze_s": run.analyze_s, "traced_s": run.traced_s,
                    "setup_s": run.setup_s, "peak_rss_mb": run.rss_mb,
                    "figures": run.figures, "metrics": metrics}, indent=1),
        encoding="utf-8",
    )
    print("env " + json.dumps(stamp))
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6f} {units[name]}")
    for message in run.failures:
        print(f"FAILED {message}")
    if unsteady:
        print(f"BENCHMARK BUG: counts differ between traced samples: {unsteady}")
    result = {
        "correct": failed == 0 and not unsteady,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
