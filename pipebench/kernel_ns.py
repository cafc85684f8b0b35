"""Cost per kernel operation on the active lane, from the bench_kernel loops.

    python3 pipebench/kernel_ns.py

Runs ``mul_chain`` and ``eliminate_sweep`` from ``benchmarks/bench_kernel.py``
at conductor 8 on ``qlsmodcat._kernel`` (whichever lane imported) and prints
one JSON line with the median nanoseconds per ``mul`` and per ``submul``.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONDUCTOR, COUNT, REPS, ROUNDS = 8, 64, 400, 5


def main() -> int:
    sys.path.insert(0, str(ROOT / "benchmarks"))
    import bench_kernel
    import qlsmodcat._kernel as kernel
    from qlsmodcat.cyclo import context

    ctx = context(CONDUCTOR)
    pairs = bench_kernel.random_pairs(random.Random(0), ctx.degree, COUNT)
    out = {"backend": kernel.BACKEND}
    for name, loop, ops in (("mul_ns", bench_kernel.mul_chain, COUNT - 1),
                            ("submul_ns", bench_kernel.eliminate_sweep, COUNT - 2)):
        times = [loop(kernel, pairs, ctx.reduction, REPS)[0]
                 for _ in range(ROUNDS)]
        out[name] = statistics.median(times) * 1e9 / (REPS * ops)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
