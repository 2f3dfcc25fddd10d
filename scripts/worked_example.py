#!/usr/bin/env python3
"""Run the bundled worked example end to end and print the report.

Equivalent to:  orbitgap analyze problems/square_minus_two.json --out run.jsonl

The records go to the path given as the first argument, by default
run.jsonl in the working directory.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from orbitgap.cli import main

HERE = pathlib.Path(__file__).resolve().parents[1]

if __name__ == "__main__":
    problem = HERE / "problems" / "square_minus_two.json"
    out = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "run.jsonl")
    code = main(["analyze", str(problem), "--out", str(out)])
    print(f"\nrecords written to {out}")
    records = [json.loads(line) for line in out.read_text().splitlines()]
    summary = records[-1]
    print(f"exit code {code}; summary record: {json.dumps(summary, sort_keys=True)}")
    sys.exit(code)
