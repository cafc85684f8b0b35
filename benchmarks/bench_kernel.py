"""Time the compiled arithmetic kernel against the pure-Python fallback,
and ``CycloNumber.inv`` against the extended Euclidean algorithm.

Runs the two hot loops (products with reduction, fused eliminate steps)
on identical pseudo-random inputs and reports the wall times and ratio.
Each loop runs on two operand mixes: random pairs, and the mix a CLI
``transport`` multiplies, where about 95% of the operands are 1 or -1
(structure constants are products of roots of unity).  Both lanes must
agree exactly on every result; the script asserts that.

The inverse is timed on +-zeta**k, the pivots of a transport over a
cyclic group, and on generic elements, against the Euclidean inverse
over Q it replaced; the two must agree exactly.

Factoring is timed on the minimal polynomials a CLI ``classify`` factors:
``polyfactor.factor`` against a hit of ``comodule``'s per-process memo,
which must give the same factors.

The comodule-algebra sweep is timed on the dim-36 algebra over Z6 of the
pipebench ``algebra-z6`` build: ``ComoduleAlgebra.verify`` against a
ledger that already proves the bosonization (|S| n pairs), and
``verify_coaction`` with a fresh report (all n^2 pairs).

The connecting object's right sweep, ``BiGaloisRep.verify_right``, is
timed on the dim-24 mixed Z6 and the dim-64 Z8 liftings of the pipebench
transports: against a ledger that already proves B, as ``build_bigalois``
passes it (H proven, then |S| n pairs), and with a fresh report (H
proven, then all n^2 pairs); both must pass with the same failures.

The block analysis ``simple_modules`` is timed, with both factoring memos
cleared before each repeat, on the 30 algebras ``classify --sample 0,1``
builds over Z4 with two generators of degree 1 and q = -1, and on A and
T of the dim-24 mixed Z6 transport of the pipebench; the block data
printed are asserted.

``FiniteAlgebra.verify_algebra`` is timed three ways: as it runs on a
built table, proving it from its engine's presentation; as Light's
associativity test, on the same tables without the engine, walking only
the nonzero cells; and as that test over the grid loop it replaced,
which accumulates both sides of every basis triple.  The tables are U, B,
H and T of the pipebench's dim-32 link and dim-24 mixed transports (T has
no engine, so only the two sweeps run on it), the dim-64 Z8 bosonization
of its ``hopf-z8`` build and the dim-32 Z8 lifting of its
``lifting-z8t2`` build; all three must agree, and both sweeps must report
the same failures.

The cotensor's table, ``deformation._cotensor_table``, is timed as it
runs, from the |S| n products of a generating set's letters in
B tensor A, against the all-pairs loop it replaced
(``tests/all_pairs.py``), which multiplies all n^2 pairs of
representatives, on the dim-24 mixed Z6 and the dim-64 Z8 regular
transports of the pipebench; both must give the same table.

The cotensor's matching equation, ``linalg.left_kernel``, is timed as it
runs, block by block, against one augmented elimination of all its rows
(``tests/whole_kernel.py``), on the dim-24 mixed Z6 and the dim-64 Z8
regular transports of the pipebench; both must give the same kernel key.

``check_simplicity`` is timed as it runs, with the leading-column
certificate first, against its exact path, which eliminates the operator
span (the certificate forced to fall short), on A and T of the dim-24
mixed Z6 transport, on A and T of the dim-64 Z8 regular transport and
on the 198 algebras ``classify --sample 0,1`` builds over Z4 with three
generators and q = -1; both must give the same verdicts and operator
dims.

Start-up is timed on fresh processes, as the CLI runs each command:
``qlsmodcat transport`` of the dim-8 root lifting and the pipebench's
set-up probe, on a copy of the package in three layouts (no __pycache__
under ``PYTHONDONTWRITEBYTECODE=1``, as the pipebench runs; a compiled
__pycache__ under it, as ``pip install`` leaves one; a compiled
__pycache__ without it), each against empty cache directories and then
against a warm one.  Under the flag a module with no valid bytecode is
compiled into the code cache once and loaded from it after.
"""

from __future__ import annotations

import argparse
import ast
import compileall
import importlib.util
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from math import lcm
from pathlib import Path
from statistics import median
from time import perf_counter

from qlsmodcat import (classify, comodule, deformation, linalg, polyfactor,
                       serialize)
from qlsmodcat._kernel import pure
from qlsmodcat.cocycles import Cocycle2
from qlsmodcat.cyclo import (CycloNumber, _poly_trim, _poly_xgcd, context,
                             cyclotomic_polynomial, zeta)
from qlsmodcat.deformation import (LiftingDatum, build_bigalois,
                                   build_lifting, cotensor)
from qlsmodcat.groups import AbelianGroup, Character, Subgroup
from qlsmodcat.hopf import (CheckReport, FiniteAlgebra, QlsDatum,
                            build_bosonization, verify_coaction)
from qlsmodcat.linalg import vec_addmul

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
                  f"c {t_fast:8.4f}s   {ratio:5.1f}x")


# conductors of the bench inputs (4, 8, 12) and one odd prime power (9);
# the Euclidean inverse is slow, so it runs few repetitions
INVERSE_CONDUCTORS = (4, 8, 9, 12)
INVERSE_REPS = 5


def euclid_inverse(x):
    """The inverse by the extended Euclidean algorithm against Phi_L over
    Q: s x + t Phi_L = g, a nonzero constant, so x**-1 = s / g."""
    phi = [Fraction(c) for c in cyclotomic_polynomial(x.L)]
    g, s = _poly_xgcd([Fraction(n, x.den) for n in x.nums], phi)
    g = _poly_trim(g)
    coeffs = [c / g[0] for c in s]
    coeffs += [Fraction(0)] * (context(x.L).degree - len(coeffs))
    den = lcm(*(c.denominator for c in coeffs))
    return CycloNumber(x.L, [int(c * den) for c in coeffs], den)


def time_inverses(inverse, xs, reps):
    """Seconds per call, and the inverses as pairs."""
    t0 = perf_counter()
    for _ in range(reps):
        out = [inverse(x).raw() for x in xs]
    return (perf_counter() - t0) / (reps * len(xs)), out


def run_inverses(conductor, count, reps, seed):
    rng = random.Random(seed)
    d = context(conductor).degree
    roots = [s * zeta(conductor, k) for k in range(conductor) for s in (1, -1)]
    generic = []
    while len(generic) < count:
        x = CycloNumber(conductor, [rng.randint(-9, 9) for _ in range(d)],
                        rng.randint(1, 7))
        if any(x.nums[1:]):
            generic.append(x)
    print(f"inverses at conductor {conductor} (degree {d}), x {reps} reps")
    for mix, xs in (("+-zeta^k", roots), ("generic", generic)):
        t_old, want = time_inverses(euclid_inverse, xs, reps)
        t_new, got = time_inverses(CycloNumber.inv, xs, reps)
        assert got == want, f"inverses disagree at conductor {conductor}"
        print(f"  {mix:27s} euclid {t_old * 1e6:8.1f}us   "
              f"inv {t_new * 1e6:8.1f}us   {t_old / t_new:5.1f}x")


# the minimal polynomials the pipebench classify inputs factor, lowest
# degree first, with their conductors
FACTOR_CASES = (
    ("x^2 - 1", 2, [-1, 0, 1]), ("x^2 - 1", 4, [-1, 0, 1]),
    ("x^2 - 4", 2, [-4, 0, 1]), ("x^2 - 4", 4, [-4, 0, 1]),
    ("x^2 + 4", 4, [4, 0, 1]),
    ("x^6 - 2x^4 + 2x^2 - 1", 6, [-1, 0, 2, 0, -2, 0, 1]),
)
FACTOR_REPS = 20


def time_calls(fn, reps):
    """Seconds per call, and the last result."""
    t0 = perf_counter()
    for _ in range(reps):
        out = fn()
    return (perf_counter() - t0) / reps, out


def run_factoring(reps):
    print(f"factoring the classify polynomials, x {reps} reps")
    for name, L, f in FACTOR_CASES:
        f = polyfactor.as_cyclo(f, L)
        want = polyfactor.factor(f, L)  # warm-up
        t_cold, _ = time_calls(lambda: polyfactor.factor(f, L), reps)
        comodule._factors_memo.cache_clear()
        comodule._poly_factors(f, L)
        t_hit, hit = time_calls(lambda: comodule._poly_factors(f, L), reps)
        assert hit == want, f"{name} memo disagrees"
        print(f"  {name:22s} L={L:<2d} factor {t_cold * 1e3:7.3f}ms   "
              f"memo hit {t_hit * 1e6:6.1f}us ({t_cold / t_hit:5.0f}x)")


SWEEP_REPS = 5


def run_sweeps(reps):
    """The dim-36 comodule algebra over Z6 (q = zeta_6, F = Z6, xi = 2)."""
    G = AbelianGroup((6,))
    d = QlsDatum(G, [G.element((1,))], [Character(G, (1,))])
    F = Subgroup.full(G)
    A = comodule.build_A(comodule.ModCatDatum(
        d, F, Cocycle2.trivial(F), w={(1,): [[1]]}, xi=[2]))
    U = A.hopf
    n = A.dim
    print(f"comodule-algebra sweep, dim {n} over a dim {U.dim} "
          f"bosonization, x {reps} reps")
    t_proof, urep = time_calls(U.verify_algebra, reps)

    def with_ledger():
        # a new ledger each time, holding U's proof alone, so that A's
        # own algebra sweep is timed too
        ledger = CheckReport("proofs")
        ledger.proven += urep.proven
        return A.verify(ledger)

    t_ledger, rep = time_calls(with_ledger, reps)
    t_fresh, fresh = time_calls(
        lambda: verify_coaction(CheckReport(), A, U, U.comult, A.coaction),
        reps)
    assert urep.ok and rep.ok and fresh.ok, "the dim-36 sweeps disagree"
    pairs = len(A.generators()) * n
    for label, t in (
            ("U.verify_algebra, once a command", t_proof),
            (f"A.verify with the ledger, {pairs} pairs", t_ledger),
            (f"verify_coaction, fresh report, {n * n} pairs", t_fresh)):
        print(f"  {label:44s} {t * 1e3:7.1f}ms")


BLOCK_REPS = 5


def sampled_members(theta):
    """The algebras ``classify --sample 0,1`` builds over Z4 with theta
    generators of degree 1 and q = -1, one per datum."""
    Z4 = AbelianGroup((4,))
    d = QlsDatum(Z4, [Z4.element((1,))] * theta, [Character(Z4, (2,))] * theta)
    return [comodule.build_A(m)
            for m in classify.enumerate_modcat_data(d, (0, 1))]


def mixed_z6_lifting():
    """The pipebench dim-24 mixed Z6 lifting: q = -1, root scalars 1 and
    2, link scalar -2."""
    Z6 = AbelianGroup((6,))
    g, chi = Z6.element((1,)), Character(Z6, (3,))
    return LiftingDatum(QlsDatum(Z6, [g, g], [chi, chi]), mu=[1, 2],
                        lam={(0, 1): -2})


def z8_lifting():
    """The dim-64 lifting over Z8 with q = zeta_8, whose root scalar is 0."""
    Z8 = AbelianGroup((8,))
    return LiftingDatum(QlsDatum(Z8, [Z8.element((1,))], [Character(Z8, (1,))]),
                        mu=[0])


def transport_tables(ld, mcd=None) -> dict:
    """The tables of a transport: the connecting object B of the lifting,
    its left and right Hopf algebras U and H, the algebra A (mcd's over
    U, or H's regular algebra without mcd) and its image T."""
    B = build_bigalois(ld)
    A = (comodule.regular_coaction(B.right_hopf) if mcd is None
         else comodule.build_A(mcd, B.left_hopf))
    return {"U": B.left_hopf, "B": B.algebra, "H": B.right_hopf, "A": A,
            "T": cotensor(B, A)}


def transport_pair(ld):
    """The regular algebra A of the lifting's right Hopf algebra and its
    image T under transport along the connecting object."""
    tables = transport_tables(ld)
    return tables["A"], tables["T"]


def mixed_z6_pair():
    """The pipebench dim-24 mixed Z6 transport."""
    return transport_pair(mixed_z6_lifting())


def run_connecting(reps):
    print(f"connecting object's right sweep, x {reps} reps")
    for label, ld in (("mixed Z6 lifting", mixed_z6_lifting()),
                      ("Z8 lifting", z8_lifting())):
        B = build_bigalois(ld)
        n = B.algebra.dim
        bproof = B.algebra.verify_algebra()

        def with_ledger():
            # a new ledger each time, holding B's proof alone as build_A
            # leaves it, so that H's algebra sweep is timed too
            ledger = CheckReport("proofs")
            ledger.proven += bproof.proven
            return B.verify_right(ledger)

        t_ledger, rep = time_calls(with_ledger, reps)
        t_fresh, fresh = time_calls(
            lambda: B.verify_right(CheckReport("bigalois")), reps)
        assert rep.ok and fresh.ok and rep.failures == fresh.failures, \
            f"{label}: the ledger and the fresh report disagree"
        pairs = len(B.algebra.generators()) * n
        name = f"{label} (dim {n})"
        print(f"  {name:28s} ledger, {pairs:4d} pairs "
              f"{t_ledger * 1e3:7.1f}ms   fresh report, {n * n:4d} pairs "
              f"{t_fresh * 1e3:7.1f}ms ({t_fresh / t_ledger:4.1f}x)")


def block_cases():
    """(label, algebras, counts of their (radical dim, blocks))."""
    members = sampled_members(2)
    A, T = mixed_z6_pair()
    return [
        (f"Z4 theta=2, {len(members)} data at 0,1", members, Z4T2_BLOCKS),
        ("mixed Z6 transport, A (dim 24)", [A],
         {(6, ((1, 1), (1, 1), (8, 2), (8, 2))): 1}),
        ("mixed Z6 transport, T (dim 24)", [T],
         {(0, ((8, 2), (8, 2), (8, 2))): 1}),
    ]


# (radical dim, ((block dim, centre dim), ...)) -> number of algebras
Z4T2_BLOCKS = {
    (0, ((1, 1),)): 1, (1, ((1, 1),)): 2, (3, ((1, 1),)): 1,
    (0, ((1, 1), (1, 1))): 1, (2, ((1, 1), (1, 1))): 2,
    (6, ((1, 1), (1, 1))): 1,
    (0, ((1, 1), (1, 1), (1, 1), (1, 1))): 3,
    (4, ((1, 1), (1, 1), (1, 1), (1, 1))): 4,
    (12, ((1, 1), (1, 1), (1, 1), (1, 1))): 1,
    (0, ((4, 1), (4, 1))): 7, (8, ((4, 1), (4, 1))): 2,
    (0, ((4, 1), (4, 1), (4, 1), (4, 1))): 4, (0, ((8, 2), (8, 2))): 1,
}


def block_key(rep):
    return rep.radical_dim, tuple((b["block_dim"], b["center_dim"])
                                  for b in rep.blocks)


def run_blocks(reps):
    print(f"block analysis, simple_modules with cleared memos, x {reps} reps")
    for label, algs, want in block_cases():
        def once():
            comodule._factors_memo.cache_clear()
            comodule._cofactor_memo.cache_clear()
            return [comodule.simple_modules(alg) for alg in algs]

        t, reports = time_calls(once, reps)
        got = Counter(block_key(rep) for rep in reports)
        print(f"  {label:34s} {t * 1e3:8.1f}ms")
        for key, n in sorted(got.items()):
            print(f"    {n:2d} x radical {key[0]}, blocks {key[1]}")
        assert got == want, f"{label}: block data changed"


ASSOCIATIVITY_REPS = 5

# the first input variant of the pipebench link-z222-sub transport
LINK_Z222 = {"group": {"orders": [2, 2, 2]}, "g": [[0, 0, 1], [1, 0, 0]],
             "chi": [[1, 0, 1], [1, 0, 1]],
             "lifting": {"mu": [], "lambda": [[0, 1, 2]]},
             "modcat": {"F": {"gens": [[0, 0, 1], [1, 0, 0]]},
                        "w": [{"component": [0, 0, 1], "rows": [[1]]},
                              {"component": [1, 0, 0], "rows": [[1]]}]}}


def grid_associators(alg, firsts):
    """The associativity sweep over every basis triple, each side
    accumulated from the table."""
    n = alg.dim
    mult = alg.mult
    red = alg.ctx.reduction
    for i in firsts:
        for j in range(n):
            ij = mult.get((i, j), {})
            for k in range(n):
                left: dict = {}
                for m, c in ij.items():
                    cell = mult.get((m, k))
                    if cell:
                        vec_addmul(left, cell, c, red)
                right: dict = {}
                for m, d in mult.get((j, k), {}).items():
                    cell = mult.get((i, m))
                    if cell:
                        vec_addmul(right, cell, d, red)
                if left != right:
                    yield i, j, k


def grid_verify_algebra(alg):
    """``verify_algebra`` with the grid loop as its associativity sweep."""
    walk = FiniteAlgebra._associators
    FiniteAlgebra._associators = grid_associators
    try:
        return alg.verify_algebra()
    finally:
        FiniteAlgebra._associators = walk


def associativity_cases():
    _, link, link_mcd = serialize.load_datum(LINK_Z222)
    Z8 = AbelianGroup((8,))
    g = Z8.element((1,))
    chi4 = Character(Z8, (4,))
    cases = []
    for label, tables in (("link", transport_tables(link, link_mcd)),
                          ("mixed", transport_tables(mixed_z6_lifting()))):
        cases += [(f"{label} transport, {name}", tables[name])
                  for name in "UBHT"]
    return cases + [
        ("Z8 bosonization", build_bosonization(
            QlsDatum(Z8, [g], [Character(Z8, (1,))]))),
        ("Z8 lifting", build_lifting(LiftingDatum(
            QlsDatum(Z8, [g, g], [chi4, chi4]), mu=[1, 2],
            lam={(0, 1): -2}))),
    ]


def run_associativity(reps):
    print(f"associativity, the presentation proof against Light's walk and "
          f"the grid loop, x {reps} reps")
    for label, alg in associativity_cases():
        bare = FiniteAlgebra(alg.labels, alg.L, alg.mult, alg.unit)
        t_walk, walk = time_calls(bare.verify_algebra, reps)
        t_grid, grid = time_calls(lambda: grid_verify_algebra(bare), reps)
        assert walk.failures == grid.failures, \
            f"{label}: the walk and the grid loop disagree"
        proof = ""
        if alg.engine is not None:
            t_proof, rep = time_calls(alg.verify_algebra, reps)
            assert rep.ok == walk.ok, \
                f"{label}: the proof and Light's walk disagree"
            proof = f"proof {t_proof * 1e3:7.2f}ms   "
        name = f"{label} (dim {alg.dim})"
        print(f"  {name:32s} {proof:20s}walk {t_walk * 1e3:7.2f}ms   "
              f"grid {t_grid * 1e3:7.2f}ms ({t_grid / t_walk:4.1f}x)   "
              f"{'ok' if walk.ok else walk.checks_failed()}")


COTENSOR_REPS = 3


def first_arguments(module, name: str, B, A) -> tuple:
    """The arguments of the first call ``cotensor`` makes on B and A to
    module.name: ``deformation._cotensor_table`` gets the table builder's,
    ``linalg.left_kernel`` the matching equation's (rows, ncols, L)."""
    seen = []
    fn = getattr(module, name)

    def recorded(*args):
        seen.append(args)
        return fn(*args)

    setattr(module, name, recorded)
    try:
        cotensor(B, A)
    finally:
        setattr(module, name, fn)
    return seen[0]


def oracle_module(name: str):
    """tests/<name>.py, loaded by path: the oracles live with the tests."""
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tests" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_cotensor(reps):
    oracle = oracle_module("all_pairs")
    print(f"cotensor table, letters against all pairs, x {reps} reps")
    for label, ld in (("mixed Z6 transport", mixed_z6_lifting()),
                      ("Z8 regular transport", z8_lifting())):
        B = build_bigalois(ld)
        args = first_arguments(deformation, "_cotensor_table", B,
                               comodule.regular_coaction(B.right_hopf))
        t_letters, letters = time_calls(
            lambda: deformation._cotensor_table(*args), reps)
        t_pairs, pairs = time_calls(lambda: oracle.all_pairs_table(*args),
                                    reps)
        assert letters == pairs, f"{label}: the two tables differ"
        n = len(args[-1])
        name = f"{label} (dim {n})"
        print(f"  {name:32s} letters {t_letters * 1e3:7.1f}ms   "
              f"all pairs, {n * n:4d} products {t_pairs * 1e3:7.1f}ms "
              f"({t_pairs / t_letters:4.1f}x)")


KERNEL_REPS = 3


def run_left_kernel(reps):
    oracle = oracle_module("whole_kernel")
    print(f"matching equation, blocks against one elimination, x {reps} reps")
    for label, ld in (("mixed Z6 transport", mixed_z6_lifting()),
                      ("Z8 regular transport", z8_lifting())):
        B = build_bigalois(ld)
        args = first_arguments(linalg, "left_kernel", B,
                               comodule.regular_coaction(B.right_hopf))
        t_blocks, blocks = time_calls(lambda: linalg.left_kernel(*args), reps)
        t_whole, whole = time_calls(lambda: oracle.whole_left_kernel(*args),
                                    reps)
        assert blocks.key() == whole.key(), f"{label}: the kernels differ"
        name = f"{label} ({len(args[0])} rows)"
        print(f"  {name:36s} blocks {t_blocks * 1e3:7.1f}ms   "
              f"one elimination {t_whole * 1e3:7.1f}ms "
              f"({t_whole / t_blocks:4.1f}x)")


SIMPLICITY_REPS = 3


def exact_simplicity(A):
    """``check_simplicity`` with the certificate forced to fall short, so
    that the operator span is eliminated as before the certificate."""
    certificate = comodule._leading_columns
    comodule._leading_columns = lambda A, gens: 0
    try:
        return comodule.check_simplicity(A)
    finally:
        comodule._leading_columns = certificate


def simplicity_cases():
    A, T = mixed_z6_pair()
    A8, T8 = transport_pair(z8_lifting())
    members = sampled_members(3)
    return [("mixed Z6 transport, A (dim 24)", [A]),
            ("mixed Z6 transport, T (dim 24)", [T]),
            ("Z8 regular transport, A (dim 64)", [A8]),
            ("Z8 regular transport, T (dim 64)", [T8]),
            (f"Z4 theta=3, {len(members)} data at 0,1", members)]


def run_simplicity(reps):
    print(f"check_simplicity, leading columns against the exact span, "
          f"x {reps} reps")
    for label, algs in simplicity_cases():
        t_cert, cert = time_calls(
            lambda: [comodule.check_simplicity(A) for A in algs], reps)
        t_exact, exact = time_calls(
            lambda: [exact_simplicity(A) for A in algs], reps)
        verdicts = [(r.verdict, r.operator_dim) for r in cert]
        assert verdicts == [(r.verdict, r.operator_dim) for r in exact], \
            f"{label}: the certificate and the exact span disagree"
        print(f"  {label:34s} certificate {t_cert * 1e3:8.1f}ms   "
              f"exact {t_exact * 1e3:8.1f}ms ({t_exact / t_cert:4.1f}x)   "
              f"{Counter(v for v, _ in verdicts)}")


STARTUP_PROCESSES = 5
ROOT = Path(__file__).resolve().parent.parent


def pipebench_probe() -> str:
    """The text of pipebench/run.py's set-up probe, read without importing
    run.py, which puts pipebench/ on sys.path for its own modules."""
    tree = ast.parse((ROOT / "pipebench" / "run.py").read_text())
    (value,) = [node.value for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["PROBE"]]
    return ast.literal_eval(value)


# ROADMAP item 20's layouts of the package: (name, a compiled __pycache__,
# PYTHONDONTWRITEBYTECODE set)
STARTUP_LAYOUTS = (("no __pycache__, no bytecode written", False, True),
                   ("__pycache__, no bytecode written", True, True),
                   ("__pycache__, bytecode written", True, False))
# the dim-8 root lifting (Z4, q = -1, mu = 1) of the pipebench transports
ROOT_Z4 = {"group": {"orders": [4]}, "g": [[1]], "chi": [[2]],
           "lifting": {"mu": [1], "lambda": []}}


def run_startup(reps):
    """Wall time of fresh processes, at most STARTUP_PROCESSES a case."""
    reps = min(reps, STARTUP_PROCESSES)
    print(f"start-up, fresh processes, x {reps} each")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        datum = tmp / "datum.json"
        datum.write_text(json.dumps(ROOT_Z4))
        commands = (("transport", ["-m", "qlsmodcat.cli", "transport",
                                   str(datum), "--out", str(tmp / "out.json")]),
                    ("set-up probe", ["-c", pipebench_probe()]))
        for n, (layout, compiled, no_bytecode) in enumerate(STARTUP_LAYOUTS):
            src = tmp / f"src-{n}"
            shutil.copytree(ROOT / "src" / "qlsmodcat", src / "qlsmodcat",
                            ignore=shutil.ignore_patterns("__pycache__"))
            if compiled:
                compileall.compile_dir(src / "qlsmodcat", quiet=1)
            env = dict(os.environ, PYTHONPATH=str(src))
            env.pop("PYTHONDONTWRITEBYTECODE", None)
            if no_bytecode:
                env["PYTHONDONTWRITEBYTECODE"] = "1"

            def wall(argv, cache):
                t0 = perf_counter()
                subprocess.run([sys.executable, *argv], check=True,
                               env=dict(env, QLSMODCAT_CACHE_DIR=str(cache)),
                               stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL)
                return perf_counter() - t0

            print(f"  {layout}")
            for label, argv in commands:
                caches = [tmp / f"cache-{n}-{label}-{i}" for i in range(reps)]
                empty = [wall(argv, cache) for cache in caches]
                # the last empty directory is warm now
                warm = [wall(argv, caches[-1]) for _ in range(reps)]
                print(f"    {label:14s} empty cache {median(empty) * 1e3:6.1f}ms"
                      f"   warm cache {median(warm) * 1e3:6.1f}ms")


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
    for conductor in INVERSE_CONDUCTORS:
        run_inverses(conductor, args.count, INVERSE_REPS, args.seed)
    run_factoring(FACTOR_REPS)
    run_sweeps(SWEEP_REPS)
    run_connecting(SWEEP_REPS)
    run_blocks(BLOCK_REPS)
    run_associativity(ASSOCIATIVITY_REPS)
    run_cotensor(COTENSOR_REPS)
    run_left_kernel(KERNEL_REPS)
    run_simplicity(SIMPLICITY_REPS)
    run_startup(STARTUP_PROCESSES)


if __name__ == "__main__":
    main()
