"""The benchmark tracer patches package functions by name; every name must resolve.

`bench/trace_child.py` looks each `(module, attribute path)` of its SPANNED
and COUNTED tables up with getattr before the CLI runs, so a renamed or
deleted kernel breaks `bench/run.py --trace 1` at start-up.  This test reads
those tables (the script only defines them when it is not run as main) and
resolves every name against the package.
"""

import importlib
import runpy
from pathlib import Path

TRACE_CHILD = Path(__file__).resolve().parents[1] / "bench" / "trace_child.py"


def test_traced_names_resolve():
    tracer = runpy.run_path(str(TRACE_CHILD))  # compiles in memory, writes no bytecode
    names = {**tracer["SPANNED"], **tracer["COUNTED"]}
    assert ("padic", "binomial_row") in names
    missing = []
    for module, path in sorted(names):
        owner = importlib.import_module(f"orbitgap.{module}")
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(f"orbitgap.{module}.{path}")
    assert missing == [], f"traced names that no longer resolve: {missing}"
