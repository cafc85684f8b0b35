"""Both kernel lanes must agree operation for operation."""

from __future__ import annotations

import importlib.util
import os
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlsmodcat._kernel as kernel
from qlsmodcat._kernel import pure
from qlsmodcat.cyclo import context

try:
    from qlsmodcat._kernel import _speedups
except ImportError:
    _speedups = None


def test_selected_backend_is_known():
    assert kernel.BACKEND in ("pure", "c")


def test_env_override_forces_pure_lane():
    # the child imports the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(kernel.__path__[0]))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, QLSMODCAT_PURE="1", PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", "import qlsmodcat._kernel as k; print(k.BACKEND)"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "pure"


SOURCE = os.path.join(kernel.__path__[0], "_speedups.c")


def _compiler():
    """The system C compiler as an argument list, and Python's include
    directory; skips the test where either is missing."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    include = sysconfig.get_paths()["include"]
    if shutil.which(cc[0]) is None or not os.path.isfile(
            os.path.join(include, "Python.h")):
        pytest.skip("no C compiler or Python.h to build the compiled lane")
    return cc, include


@pytest.fixture(scope="module")
def speedups(tmp_path_factory):
    """The compiled lane: the built module if it imports, else
    _speedups.c compiled into a temporary directory with the system C
    compiler and loaded from there by path."""
    if _speedups is not None:
        return _speedups
    cc, include = _compiler()
    out = tmp_path_factory.mktemp("lane") / (
        "_speedups" + sysconfig.get_config_var("EXT_SUFFIX"))
    subprocess.run(cc + ["-shared", "-fPIC", "-O2", "-I", include, SOURCE,
                         "-o", str(out)], check=True, capture_output=True)
    spec = importlib.util.spec_from_file_location(
        "qlsmodcat._kernel._speedups", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lanes_agree_on_random_operations(speedups):
    red = context(12).reduction
    d = 4
    rng = random.Random(7)

    def rand():
        return pure.norm_pair(
            tuple(rng.randint(-50, 50) for _ in range(d)), rng.randint(1, 20)
        )

    for _ in range(300):
        a, b, f = rand(), rand(), rand()
        assert pure.add(a, b) == speedups.add(a, b)
        assert pure.sub(a, b) == speedups.sub(a, b)
        assert pure.neg(a) == speedups.neg(a)
        assert pure.mul(a, b, red) == speedups.mul(a, b, red)
        assert pure.submul(a, f, b, red) == speedups.submul(a, f, b, red)
        assert pure.rat_mul(3, -7, a) == speedups.rat_mul(3, -7, a)
        assert pure.is_zero(a) == speedups.is_zero(a)


# Structure constants are products of roots of unity, so most operands the
# CLI multiplies are 1 or -1; pure.mul returns the other factor for those
# without running the product, and scales the other factor by a rational
# one without the convolution.  The pool below reaches those paths on
# every conductor (degree 1 included, where every operand is rational),
# next to roots of unity and random pairs.
POOL_CONDUCTORS = (1, 2, 3, 4, 6, 8, 12)
RATIONALS = ((1, 1), (-1, 1), (0, 1), (2, 1), (-6, 1), (1, 2), (-3, 4),
             (5, 3), (-1, 7))


def _operand_pool(L, rng):
    ctx = context(L)
    d = ctx.degree
    pool = []
    for nums in ctx.zeta_pows:
        pool.append((nums, 1))
        pool.append(pure.neg((nums, 1)))
    for p, q in RATIONALS:
        pool.append(pure.norm_pair((p,) + (0,) * (d - 1), q))
    for _ in range(8):
        pool.append(pure.norm_pair(
            tuple(rng.randint(-50, 50) for _ in range(d)), rng.randint(1, 20)))
    return pool


def _generic_mul(a, b, red):
    """The product loop and normalization, with no shortcut for 1, -1 or
    a rational factor."""
    an, ad = a
    bn, bd = b
    d = len(an)
    prod = [0] * (2 * d - 1)
    for i in range(d):
        for j in range(d):
            prod[i + j] += an[i] * bn[j]
    for j in range(2 * d - 2, d - 1, -1):
        for k in range(d):
            prod[k] += prod[j] * red[j - d][k]
    return pure.norm_pair(tuple(prod[:d]), ad * bd)


def _generic_add(a, b, sign=1):
    """a + sign * b over the common denominator, then normalized."""
    (an, ad), (bn, bd) = a, b
    return pure.norm_pair(
        tuple(x * bd + sign * y * ad for x, y in zip(an, bn)), ad * bd)


def _generic_neg(a):
    return pure.norm_pair(tuple(-c for c in a[0]), a[1])


@pytest.mark.parametrize("L", POOL_CONDUCTORS)
def test_pure_products_match_the_generic_product(L):
    red = context(L).reduction
    rng = random.Random(L)
    pool = _operand_pool(L, rng)
    for a in pool:
        assert pure.neg(a) == _generic_neg(a)
        assert pure.is_zero(a) == all(c == 0 for c in a[0])
        for b in pool:
            assert pure.mul(a, b, red) == _generic_mul(a, b, red)
            assert pure.add(a, b) == _generic_add(a, b)
            assert pure.sub(a, b) == _generic_add(a, b, -1)
            f = rng.choice(pool)
            assert pure.submul(a, f, b, red) == _generic_add(
                a, _generic_mul(f, b, red), -1)


@pytest.mark.parametrize("L", POOL_CONDUCTORS)
def test_lanes_agree_on_unit_and_root_operands(speedups, L):
    red = context(L).reduction
    rng = random.Random(L)
    pool = _operand_pool(L, rng)
    for a in pool:
        for b in pool:
            assert pure.mul(a, b, red) == speedups.mul(a, b, red)
            f = rng.choice(pool)
            assert pure.submul(a, f, b, red) == speedups.submul(a, f, b, red)


@pytest.mark.parametrize("lane", ["pure", "c"])
def test_norm_pair_canonical_form(lane, request):
    backend = pure if lane == "pure" else request.getfixturevalue("speedups")
    assert backend.norm_pair((2, 4), 6) == ((1, 2), 3)
    assert backend.norm_pair((1, 1), -2) == ((-1, -1), 2)
    assert backend.norm_pair((0, 0), 9) == ((0, 0), 1)
    with pytest.raises(ZeroDivisionError):
        backend.norm_pair((1,), 0)


def test_kernel_source_compiles_without_warnings(tmp_path):
    cc, include = _compiler()
    # Python's own headers are system headers here: the flags judge the kernel
    out = subprocess.run(
        cc + ["-Wall", "-Wextra", "-Werror", "-O2", "-fPIC", "-isystem",
              include, "-c", SOURCE, "-o", str(tmp_path / "kernel.o")],
        capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_extension_build_without_a_compiler_falls_back(tmp_path):
    """The extension is optional: with no working compiler, build_ext
    warns and exits 0, and writes nothing into the source tree."""
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    before = sorted(p for p in src.rglob("*") if "__pycache__" not in p.parts)
    env = dict(os.environ, CC=str(tmp_path / "missing" / "cc"))
    out = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(tmp_path / "lib"),
         "--build-temp", str(tmp_path / "temp")],
        cwd=root, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "failed" in out.stderr
    assert not list((tmp_path / "lib").rglob("_speedups*"))
    after = sorted(p for p in src.rglob("*") if "__pycache__" not in p.parts)
    assert after == before


# Operands a C kernel can get wrong: coefficients and denominators past
# 2**64, zero, 1 and -1, and +-zeta**k, at every conductor of the pool.
BIG = 2 ** 70
big_ints = st.integers(-BIG, BIG)


@st.composite
def lane_operands(draw, L):
    ctx = context(L)
    d = ctx.degree
    kind = draw(st.sampled_from(["zero", "root", "small", "big"]))
    if kind == "zero":
        return ((0,) * d, 1)
    if kind == "root":
        pair = (draw(st.sampled_from(ctx.zeta_pows)), 1)
        return pure.neg(pair) if draw(st.booleans()) else pair
    bound = 9 if kind == "small" else BIG
    nums = tuple(draw(st.integers(-bound, bound)) for _ in range(d))
    return pure.norm_pair(nums, draw(st.integers(1, bound)))


@st.composite
def lane_cases(draw):
    L = draw(st.sampled_from(POOL_CONDUCTORS))
    a, b, f = (draw(lane_operands(L)) for _ in range(3))
    return L, a, b, f


@settings(max_examples=300, deadline=None)
@given(case=lane_cases(), p=big_ints, q=big_ints.filter(bool),
       scale=big_ints.filter(bool), den=big_ints)
def test_lanes_agree_beyond_64_bits(speedups, case, p, q, scale, den):
    L, a, b, f = case
    red = context(L).reduction
    assert speedups.__all__ == pure.__all__
    for op, args in ((pure.add, (a, b)), (pure.sub, (a, b)),
                     (pure.neg, (a,)), (pure.is_zero, (a,)),
                     (pure.mul, (a, b, red)), (pure.submul, (a, f, b, red)),
                     (pure.rat_mul, (p, q, a)), (pure.rat_mul, (0, q, a))):
        got = getattr(speedups, op.__name__)(*args)
        assert got == op(*args), op.__name__
    # the unit shortcut hands back the other factor itself, in both lanes
    assert (speedups.mul(a, b, red) is b) == (pure.mul(a, b, red) is b)
    assert (speedups.mul(a, b, red) is a) == (pure.mul(a, b, red) is a)
    # non-canonical input: a common factor, and any denominator sign
    nums = tuple(scale * c for c in a[0])
    if den == 0:
        with pytest.raises(ZeroDivisionError):
            speedups.norm_pair(nums, den)
    else:
        assert speedups.norm_pair(nums, den) == pure.norm_pair(nums, den)
        assert speedups.norm_pair(nums, -abs(den)) == pure.norm_pair(
            nums, -abs(den))


def _leak_cases(k):
    """One call per branch of every export, on operands past 2**64,
    error paths included; returns the calls and the operands to watch."""
    red = context(12).reduction
    big = 2 ** 64
    a = pure.norm_pair((big + 1, -3 * big, 5, big * big), 3 * big + 2)
    b = pure.norm_pair((7 * big, 1, -big - 9, 2), big + 1)
    w = ((big, -big - 1, 0, 3), 1)
    one, minus_one = pure.units(4)
    zero = ((0, 0, 0, 0), 1)
    p, q = 5 * big + 3, -(2 * big + 1)
    nums = tuple(6 * c for c in a[0])
    calls = [
        (k.norm_pair, (nums, -6 * a[1])), (k.norm_pair, (w[0], 1)),
        (k.norm_pair, (nums, 0)),
        (k.is_zero, (a,)), (k.is_zero, (zero,)), (k.neg, (a,)),
        (k.add, (a, b)), (k.add, (a, a)), (k.add, (w, w)),
        (k.sub, (a, b)), (k.sub, (b, b)), (k.sub, (w, w)),
        (k.rat_mul, (p, q, a)), (k.rat_mul, (0, q, a)),
        (k.mul, (a, b, red)), (k.mul, (w, w, red)), (k.mul, (one, a, red)),
        (k.mul, (a, minus_one, red)), (k.mul, (a, b, ())),
        (k.submul, (a, b, w, red)), (k.submul, (a, minus_one, b, red)),
    ]
    watched = [a, b, w, one, minus_one, zero, nums, red, p, q,
               *a[0], a[1], *b[0], b[1], *w[0], *nums]
    # small ints are shared by the whole interpreter
    return calls, [x for x in watched if type(x) is not int or abs(x) > 256]


def test_compiled_lane_leaks_no_references(speedups):
    """100,000 calls of each export leave the operands' reference counts
    as they were, and a traced run keeps no memory.  Tracing slows a call
    10-40x, so it covers 4,000 rounds of every call: one leaked int per
    call of any one of them would keep over 100 KiB."""
    calls, watched = _leak_cases(speedups)
    names = [fn.__name__ for fn, _ in calls]
    assert set(names) == set(pure.__all__) - {"BACKEND"}

    def run(rounds):
        for fn, args in calls:
            for _ in range(rounds(fn)):
                try:
                    fn(*args)
                except (ZeroDivisionError, IndexError):
                    pass

    run(lambda fn: 10)
    counts = [sys.getrefcount(x) for x in watched]
    run(lambda fn: -(-100_000 // names.count(fn.__name__)))
    assert [sys.getrefcount(x) for x in watched] == counts
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run(lambda fn: 4_000)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024, f"{grown} bytes kept after the calls"
