"""Make the library and the harness importable, with BLAS on one thread.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

sys.path.insert(0, str(BENCH))
import run  # noqa: E402

for _var in run.THREAD_VARS:
    os.environ[_var] = "1"
sys.path.insert(0, str(ROOT / "src"))
import harness  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture(autouse=True)
def tiny_workloads(monkeypatch):
    """Every test runs the workloads at their TINY sizes."""
    monkeypatch.setattr(harness, "WORKLOADS", harness.TINY)
