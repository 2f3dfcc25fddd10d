"""The benchmark's own unit tests pass against the package.

`bench/test_bench.py` runs the tracer on a real `analyze` child and checks,
among other things, that every traced span takes time above 0.  So a change
that leaves a traced kernel with no work, or renames one, fails here.  The
suite runs in a subprocess, as `python3 -m unittest discover -s bench`; it
writes only under the git-ignored `bench/out/`.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_unit_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "bench", "-p", "test_*.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
