"""Command-line front end.

Each command runs its row of the stage table in `pipeline`: analyze the
whole chain, primes and returns its first stages, and interpolate and gaps
the later stages, resumed from the --replay records of a previous run so a
single stage is recomputed deterministically.  A failed stage writes a
failure record and a `FAILED at stage ...` line.  Exit codes: 0 success,
1 hypothesis-violation abort, 2 input error, 3 precision or budget
exhaustion, 4 a broken internal invariant (a bug).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import OrbitgapError
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


def _emit(report: RunReport, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            for rec in report.records:
                fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
    print(render_summary(report))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="orbitgap",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="certify avoidance, interpolation, and gap reports for "
        "polynomial orbit return sets\n\n"
        "commands:\n"
        "  primes       bad primes and per-prime avoidance certificates\n"
        "  returns      multi-modular screening and exact certification of the return set\n"
        "  interpolate  normalization and certified interpolation at the replayed prime\n"
        "  gaps         zero localization and gap/density reports from replayed records\n"
        "  analyze      full pipeline: primes, normalization, interpolation, returns, gaps, "
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
    parser.add_argument("--replay", help="records of a previous run to resume from")
    args = parser.parse_args(argv)

    try:
        inst, params, sha = load_problem(args.problem)
        report = run(args.command, inst, _apply_overrides(params, args), sha, args.replay)
    except OrbitgapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)

    _emit(report, args.out)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
