"""Smoke test: the README's library example runs.

It runs in a fresh temporary directory, so whatever it writes lands there
and not in the source tree.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_readme_library_example_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    example = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run(
        [sys.executable, "-c", example],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("(")
