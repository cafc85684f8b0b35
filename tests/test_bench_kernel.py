"""The kernel benchmark script still runs against the package.

``pipebench/kernel_ns.py`` imports ``benchmarks/bench_kernel.py`` on every
traced bench run, and the script imports the layers it times by name
(``build_bigalois``, ``cotensor``, ``verify_coaction`` and others), so a
renamed function would break only the traced benchmark.  Each loop below
runs once; each asserts that its two paths agree.  ``run_simplicity`` is
left out for its cost, about 9 s.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
import bench_kernel  # noqa: E402


@pytest.mark.parametrize("loop", ["run_sweeps", "run_connecting",
                                  "run_factoring", "run_blocks",
                                  "run_associativity", "run_cotensor",
                                  "run_left_kernel", "run_startup"])
def test_bench_kernel_loop_runs(loop, capsys):
    getattr(bench_kernel, loop)(1)
    assert capsys.readouterr().out
