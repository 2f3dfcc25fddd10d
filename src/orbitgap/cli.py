"""Command-line front end.

Each command runs its row of the stage table in `pipeline` from the
problem file: analyze the whole chain, primes and returns its first stages.
A failed stage writes a failure record and a `FAILED at stage ...` line.
Exit codes: 0 success, 1 hypothesis-violation abort, 2 input error or
usage error, 3 precision or budget exhaustion, 4 a broken internal
invariant (a bug).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .errors import InputError, OrbitgapError
from .pipeline import COMMANDS, RunReport, exit_code_for, render_summary, run
from .problemfile import load_problem


def _apply_overrides(params, args):
    updates = {}
    if args.prime_range:
        updates["prime_range"] = tuple(args.prime_range)
    for name in ("precision", "n_max", "screen_primes", "density_m"):
        value = getattr(args, name)
        if value is not None:
            updates[name] = value
    return params._replace(**updates) if updates else params


def _open_records(path: str | None):
    """The records file, opened before any stage runs so that a path that
    cannot be written is an input error and costs no run; a context that
    enters as None when there is no path."""
    if not path:
        return contextlib.nullcontext()
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write records: {exc}") from None


def _print_summary(report: RunReport) -> None:
    """The human summary on stdout.  A closed stdout changes neither the
    records, written before it, nor the run's exit code."""
    try:
        print(render_summary(report), flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="orbitgap",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="certify avoidance, interpolation, and gap reports for "
        "polynomial orbit return sets\n\n"
        "commands:\n"
        "  primes   bad primes and per-prime avoidance certificates\n"
        "  returns  multi-modular screening and exact certification of the return set\n"
        "  analyze  full pipeline: primes, normalization, interpolation, returns, gaps, "
        "density",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("problem", help="problem file (JSON)")
    parser.add_argument("--prime-range", nargs=2, type=int, metavar=("LO", "HI"))
    parser.add_argument("--precision", type=int)
    parser.add_argument("--n-max", type=int)
    parser.add_argument("--screen-primes", type=int)
    parser.add_argument("--density-m", type=int)
    parser.add_argument("--out", help="write machine records (JSON lines) here")
    args = parser.parse_args(argv)

    try:
        inst, params, sha = load_problem(args.problem)
        params = _apply_overrides(params, args)
        records = _open_records(args.out)
    except OrbitgapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)

    with records as fh:
        report = run(args.command, inst, params, sha)
        if fh:
            for rec in report.records:
                fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
    _print_summary(report)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
