"""Both kernel lanes must agree operation for operation."""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

import qlsmodcat._kernel as kernel
from qlsmodcat._kernel import pure
from qlsmodcat.cyclo import context

try:
    from qlsmodcat._kernel import _speedups
except ImportError:
    _speedups = None

BACKENDS = [pure] if _speedups is None else [pure, _speedups]


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


@pytest.mark.skipif(_speedups is None, reason="compiled lane not built")
def test_lanes_agree_on_random_operations():
    red = context(12).reduction
    d = 4
    rng = random.Random(7)

    def rand():
        return pure.norm_pair(
            tuple(rng.randint(-50, 50) for _ in range(d)), rng.randint(1, 20)
        )

    for _ in range(300):
        a, b, f = rand(), rand(), rand()
        assert pure.add(a, b) == _speedups.add(a, b)
        assert pure.sub(a, b) == _speedups.sub(a, b)
        assert pure.neg(a) == _speedups.neg(a)
        assert pure.mul(a, b, red) == _speedups.mul(a, b, red)
        assert pure.submul(a, f, b, red) == _speedups.submul(a, f, b, red)
        assert pure.rat_mul(3, -7, a) == _speedups.rat_mul(3, -7, a)
        assert pure.is_zero(a) == _speedups.is_zero(a)


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda m: m.BACKEND)
def test_norm_pair_canonical_form(backend):
    assert backend.norm_pair((2, 4), 6) == ((1, 2), 3)
    assert backend.norm_pair((1, 1), -2) == ((-1, -1), 2)
    assert backend.norm_pair((0, 0), 9) == ((0, 0), 1)
    with pytest.raises(ZeroDivisionError):
        backend.norm_pair((1,), 0)
