"""Time the compiled arithmetic kernel against the pure-Python fallback.

Runs the two hot loops (products with reduction, fused eliminate steps)
on identical pseudo-random inputs and reports the wall times and ratio.
Each loop runs on two operand mixes: random pairs, and the mix a CLI
``transport`` multiplies, where about 95% of the operands are 1 or -1
(structure constants are products of roots of unity).  Both lanes must
agree exactly on every result; the script asserts that.
"""

from __future__ import annotations

import argparse
import random
from time import perf_counter

from qlsmodcat._kernel import pure
from qlsmodcat.cyclo import context

try:
    from qlsmodcat._kernel import _speedups
except ImportError:
    _speedups = None


def random_pairs(rng, degree, count):
    out = []
    for _ in range(count):
        nums = tuple(rng.randint(-9, 9) for _ in range(degree))
        out.append(pure.norm_pair(nums, rng.randint(1, 7)))
    return out


# measured share of 1 and -1 operands of _kernel.mul on the dim-24 mixed
# transport of the pipebench inputs
UNIT_SHARE = 0.95


def unit_heavy_pairs(rng, degree, count):
    """Random pairs, each replaced by 1 or -1 with probability UNIT_SHARE."""
    units = pure.units(degree)
    return [rng.choice(units) if rng.random() < UNIT_SHARE else p
            for p in random_pairs(rng, degree, count)]


def mul_chain(kernel, pairs, red, reps):
    t0 = perf_counter()
    acc = None
    for _ in range(reps):
        acc = pairs[0]
        for p in pairs[1:]:
            acc = kernel.mul(acc, p, red)
    return perf_counter() - t0, acc


def eliminate_sweep(kernel, pairs, red, reps):
    pivot = pairs[0]
    t0 = perf_counter()
    acc = None
    for _ in range(reps):
        acc = pairs[1]
        for p in pairs[2:]:
            acc = kernel.submul(acc, p, pivot, red)
    return perf_counter() - t0, acc


def run(conductor, count, reps, seed):
    ctx = context(conductor)
    rng = random.Random(seed)
    mixes = (("random", random_pairs(rng, ctx.degree, count)),
             (f"{UNIT_SHARE:.0%} +-1",
              unit_heavy_pairs(rng, ctx.degree, count)))
    print(f"conductor {conductor} (degree {ctx.degree}), "
          f"{count} values x {reps} reps")
    for mix, pairs in mixes:
        for name, loop in (("mul chain", mul_chain),
                           ("eliminate sweep", eliminate_sweep)):
            label = f"{name}, {mix}"
            t_pure, r_pure = loop(pure, pairs, ctx.reduction, reps)
            if _speedups is None:
                print(f"  {label:27s} pure {t_pure:8.4f}s   "
                      "compiled lane missing")
                continue
            t_fast, r_fast = loop(_speedups, pairs, ctx.reduction, reps)
            assert r_pure == r_fast, \
                f"{label} disagrees at conductor {conductor}"
            ratio = t_pure / t_fast if t_fast > 0 else float("inf")
            print(f"  {label:27s} pure {t_pure:8.4f}s   "
                  f"cython {t_fast:8.4f}s   {ratio:5.1f}x")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--conductors", default="4,12,60",
                    help="comma-separated list to benchmark at")
    ap.add_argument("--count", type=int, default=64)
    ap.add_argument("--reps", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if _speedups is None:
        print("compiled kernel not importable; timing the fallback only")
    for tok in args.conductors.split(","):
        run(int(tok), args.count, args.reps, args.seed)


if __name__ == "__main__":
    main()
