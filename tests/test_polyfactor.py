"""Fixed factorisations over Q(zeta_L) that force every branch of
``polyfactor``: Trager's shift, Yun's decomposition, Berlekamp's split,
Hensel lifting and Zassenhaus recombination.  Polynomials are written
lowest degree first, as the module takes them."""

from __future__ import annotations

import pytest

from qlsmodcat import polyfactor
from qlsmodcat.cyclo import CycloNumber, conjugate, zeta


def c(L, *nums):
    return CycloNumber(L, nums)


def test_x2_plus_1_is_irreducible_over_q_and_splits_over_q_i():
    assert polyfactor.factor([1, 0, 1], 1) == [([1, 0, 1], 1)]
    i = zeta(4)
    assert polyfactor.factor([1, 0, 1], 4) == [([-i, 1], 1), ([i, 1], 1)]


def test_phi_8_is_two_quadratics_over_q_i():
    i = zeta(4)
    assert polyfactor.factor([1, 0, 0, 0, 1], 4) == [([-i, 0, 1], 1), ([i, 0, 1], 1)]


def test_x4_minus_10x2_plus_1_needs_recombination():
    """The minimal polynomial of sqrt 2 + sqrt 3 is irreducible over Q but
    has two or four factors mod every prime, so no prime proves it: only
    the subset search after Hensel lifting does."""
    f = [1, 0, -10, 0, 1]
    for p in (5, 7, 11, 13, 17):
        assert len(polyfactor.berlekamp(f, p)) in (2, 4)
    assert polyfactor.factor_integer(f) == [f]
    assert polyfactor.factor(f, 1) == [(f, 1)]
    r2 = zeta(8) + zeta(8, 7)
    assert r2 * r2 == 2
    assert polyfactor.factor(f, 8) == [([-1, r2 * 2, 1], 1), ([-1, r2 * -2, 1], 1)]


def test_recombination_finds_a_product_of_modular_factors():
    """(x^2 - 2)(x^2 - 3) splits into four linear factors mod 23, so two
    of them must be recombined into each true factor."""
    f = [6, 0, -5, 0, 1]
    assert len(polyfactor.berlekamp(f, 23)) == 4
    assert polyfactor.factor_integer(f) == [[-2, 0, 1], [-3, 0, 1]]


def test_repeated_factors_go_through_yun():
    assert polyfactor.factor([-1, -1, 1, 1], 1) == [([-1, 1], 1), ([1, 1], 2)]
    i = zeta(4)
    assert polyfactor.factor([1, 0, 2, 0, 1], 4) == [([-i, 1], 2), ([i, 1], 2)]
    assert polyfactor.squarefree_parts(polyfactor.as_cyclo([1, 0, 2, 0, 1], 1)) \
        == [([1, 0, 1], 2)]


def test_a_rational_g_over_q_i_forces_a_shift(monkeypatch):
    """The norm of a g over Q is g^phi(L), never squarefree, so Trager's
    method must shift: s = 0 is rejected and s = 1 taken."""
    shifts = []
    shift = polyfactor.shift

    def spy(g, cst):
        shifts.append(cst)
        return shift(g, cst)

    monkeypatch.setattr(polyfactor, "shift", spy)
    assert len(polyfactor.factor([2, 0, 1], 4)) == 1
    assert [s == 0 for s in shifts[:2]] == [True, False]
    assert shifts[1] == zeta(4)


def test_factor_checks_the_product(monkeypatch):
    monkeypatch.setattr(polyfactor, "_factor_squarefree", lambda g, L: [g[:1] + g[2:]])
    with pytest.raises(ArithmeticError, match="multiply back"):
        polyfactor.factor([1, 1, 1], 3)


def test_conjugation_is_the_automorphism_zeta_to_zeta_a():
    for L in (3, 5, 8, 12):
        for a in (1, L - 1):
            for k in range(L):
                assert conjugate(zeta(L, k), a) == zeta(L, a * k)
    x, y = c(12, 1, 2, 0, -1), c(12, 0, -1, 3, 1)
    for a in (5, 7, 11):
        sx, sy = conjugate(x, a), conjugate(y, a)
        assert conjugate(x * y, a) == sx * sy
        assert conjugate(x + y, a) == sx + sy
