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

import pytest

import qlsmodcat._kernel as kernel
from qlsmodcat._kernel import pure
from qlsmodcat.cyclo import context

try:
    from qlsmodcat._kernel import _speedups
except ImportError:
    _speedups = None


def test_selected_backend_is_known():
    assert kernel.BACKEND in ("pure", "cython")


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


@pytest.fixture(scope="module")
def speedups(tmp_path_factory):
    """The compiled lane: the built module if it imports, else the
    committed _speedups.c compiled into a temporary directory with the
    system C compiler and loaded from there by path."""
    if _speedups is not None:
        return _speedups
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    include = sysconfig.get_paths()["include"]
    if shutil.which(cc[0]) is None or not os.path.isfile(
            os.path.join(include, "Python.h")):
        pytest.skip("no C compiler or Python.h to build the compiled lane")
    source = os.path.join(kernel.__path__[0], "_speedups.c")
    out = tmp_path_factory.mktemp("lane") / (
        "_speedups" + sysconfig.get_config_var("EXT_SUFFIX"))
    subprocess.run(cc + ["-shared", "-fPIC", "-O2", "-I", include, source,
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
# without running the product.  The pool below reaches that path on every
# conductor, next to roots of unity, rationals and random pairs.
POOL_CONDUCTORS = (1, 3, 4, 8, 12)


def _operand_pool(L, rng):
    ctx = context(L)
    d = ctx.degree
    pool = [((0,) * d, 1)]
    for nums in ctx.zeta_pows:
        pool.append((nums, 1))
        pool.append(pure.neg((nums, 1)))
    for p, q in ((1, 2), (-3, 4), (5, 1), (-1, 7)):
        pool.append(pure.norm_pair((p,) + (0,) * (d - 1), q))
    for _ in range(8):
        pool.append(pure.norm_pair(
            tuple(rng.randint(-50, 50) for _ in range(d)), rng.randint(1, 20)))
    return pool


def _generic_mul(a, b, red):
    """The product loop and normalization, with no shortcut for 1 or -1."""
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


@pytest.mark.parametrize("L", POOL_CONDUCTORS)
def test_pure_products_match_the_generic_product(L):
    red = context(L).reduction
    rng = random.Random(L)
    pool = _operand_pool(L, rng)
    for a in pool:
        for b in pool:
            assert pure.mul(a, b, red) == _generic_mul(a, b, red)
            f = rng.choice(pool)
            assert pure.submul(a, f, b, red) == pure.sub(
                a, _generic_mul(f, b, red))


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


@pytest.mark.parametrize("lane", ["pure", "cython"])
def test_norm_pair_canonical_form(lane, request):
    backend = pure if lane == "pure" else request.getfixturevalue("speedups")
    assert backend.norm_pair((2, 4), 6) == ((1, 2), 3)
    assert backend.norm_pair((1, 1), -2) == ((-1, -1), 2)
    assert backend.norm_pair((0, 0), 9) == ((0, 0), 1)
    with pytest.raises(ZeroDivisionError):
        backend.norm_pair((1,), 0)
