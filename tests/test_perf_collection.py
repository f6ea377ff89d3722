"""The micro-benchmarks under `perf/` import private names of the package.

`perf/` sits outside `testpaths`, so a refactor that drops or renames one of
those names would go unnoticed until someone times the layers; collecting
the suite here catches it without running a benchmark.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_the_perf_suite_collects():
    pytest.importorskip("pytest_benchmark")
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "perf", "--collect-only", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-4000:]
    assert " collected" in run.stdout.splitlines()[-1] and "error" not in run.stdout.splitlines()[-1]
