"""Fixed factorisations over Q(zeta_L) that force every branch of
``polyfactor``: Trager's shift, Berlekamp's split, Hensel lifting,
Zassenhaus recombination and the rejection of a repeated factor.
Polynomials are written lowest degree first, as the module and
``comodule``'s memos take them.  ``factor`` promises no order, so its
factors are compared with the expected ones as sets."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qlsmodcat import comodule, polyfactor
from qlsmodcat.cyclo import CycloNumber, conjugate, context, zeta


@pytest.fixture
def fresh_memo():
    """Empty factor memos, so that a call through ``comodule`` factors
    again whatever an earlier test left in them."""
    comodule._factors_memo.cache_clear()
    comodule._cofactor_memo.cache_clear()
    yield
    comodule._factors_memo.cache_clear()
    comodule._cofactor_memo.cache_clear()


def c(L, *nums):
    return CycloNumber(L, nums)


def same_factors(got, want) -> bool:
    """Equal as sets of polynomials; no factor of a squarefree f repeats."""
    return len(got) == len(want) and all(h in got for h in want)


def test_x2_plus_1_is_irreducible_over_q_and_splits_over_q_i():
    assert polyfactor.factor([1, 0, 1], 1) == [[1, 0, 1]]
    i = zeta(4)
    assert same_factors(polyfactor.factor([1, 0, 1], 4), [[-i, 1], [i, 1]])


def test_phi_8_is_two_quadratics_over_q_i():
    i = zeta(4)
    assert same_factors(polyfactor.factor([1, 0, 0, 0, 1], 4), [[-i, 0, 1], [i, 0, 1]])


def test_x4_minus_10x2_plus_1_needs_recombination():
    """The minimal polynomial of sqrt 2 + sqrt 3 is irreducible over Q but
    has two or four factors mod every prime, so no prime proves it: only
    the subset search after Hensel lifting does."""
    f = [1, 0, -10, 0, 1]
    for p in (5, 7, 11, 13, 17):
        assert len(polyfactor.berlekamp(f, p)) in (2, 4)
    assert polyfactor.factor_integer(f) == [f]
    assert polyfactor.factor(f, 1) == [f]
    r2 = zeta(8) + zeta(8, 7)
    assert r2 * r2 == 2
    assert same_factors(polyfactor.factor(f, 8), [[-1, r2 * 2, 1], [-1, r2 * -2, 1]])


def test_recombination_finds_a_product_of_modular_factors():
    """(x^2 - 2)(x^2 - 3) splits into four linear factors mod 23, so two
    of them must be recombined into each true factor."""
    f = [6, 0, -5, 0, 1]
    assert len(polyfactor.berlekamp(f, 23)) == 4
    assert polyfactor.factor_integer(f) == [[-2, 0, 1], [-3, 0, 1]]


def test_a_repeated_factor_is_rejected(fresh_memo):
    """(x + 1)^2 (x - 1), and (x^2 + 1)^2, which repeats x - i and x + i
    over Q(i): gcd(f, f') is not 1, so ``factor`` raises, also through
    ``comodule``'s memo."""
    for f, L in (([-1, -1, 1, 1], 1), ([1, 0, 2, 0, 1], 4)):
        with pytest.raises(ArithmeticError, match="repeated factor"):
            polyfactor.factor(f, L)
        with pytest.raises(ArithmeticError, match="repeated factor"):
            comodule._poly_factors(polyfactor.as_cyclo(f, L), L)


def test_a_rational_g_over_q_i_forces_a_shift(monkeypatch, fresh_memo):
    """The norm of a g over Q is g^phi(L), never squarefree, so Trager's
    method must shift: s = 0 is rejected and s = 1 taken, also through
    ``comodule``'s memo."""
    shifts = []
    shift = polyfactor.shift

    def spy(g, cst):
        shifts.append(cst)
        return shift(g, cst)

    monkeypatch.setattr(polyfactor, "shift", spy)
    assert len(polyfactor.factor([2, 0, 1], 4)) == 1
    assert [s == 0 for s in shifts[:2]] == [True, False]
    assert shifts[1] == zeta(4)
    shifts.clear()
    assert len(comodule._poly_factors(polyfactor.as_cyclo([2, 0, 1], 4), 4)) == 1
    assert [s == 0 for s in shifts[:2]] == [True, False]


def test_factor_checks_the_product(monkeypatch, fresh_memo):
    monkeypatch.setattr(polyfactor, "_factor_squarefree", lambda g, L: [g[:1] + g[2:]])
    with pytest.raises(ArithmeticError, match="multiply back"):
        polyfactor.factor([1, 1, 1], 3)
    with pytest.raises(ArithmeticError, match="multiply back"):
        comodule._poly_factors(polyfactor.as_cyclo([1, 1, 1], 3), 3)


def squarefree(f) -> bool:
    return len(polyfactor.gcd_monic(f, polyfactor.derivative(f))) == 1


@st.composite
def products(draw):
    """(L, f): a product, lowest degree first, of up to three monic
    factors.  A factor is a polynomial over Q of degree 1 or 2, one of
    degree 1 or 2 with coefficients anywhere in Q(zeta_L), or the norm
    prod_a (x - sigma_a(c)) over Q of a linear factor, which splits over
    Q(zeta_L) though not, in general, over Q."""
    L = draw(st.sampled_from([1, 2, 3, 4, 5, 8, 12]))
    deg = context(L).degree
    rational = st.builds(lambda n, d: CycloNumber.from_rational(Fraction(n, d), L),
                         st.integers(-4, 4), st.sampled_from([1, 1, 2]))
    general = st.builds(lambda nums, d: CycloNumber(L, nums, d),
                        st.lists(st.integers(-2, 2), min_size=deg, max_size=deg),
                        st.sampled_from([1, 1, 2]))
    f = [CycloNumber.one(L)]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["rational", "general", "norm"]))
        if kind == "norm":
            h = polyfactor.norm([-draw(general), CycloNumber.one(L)], L)
        else:
            coeffs = rational if kind == "rational" else general
            h = draw(st.lists(coeffs, min_size=1, max_size=2)) + [CycloNumber.one(L)]
        f = polyfactor.as_cyclo(polyfactor._poly_mul(f, h), L)
    return L, f


# the squarefree products, the only polynomials ``factor`` takes
squarefree_products = products().filter(lambda case: squarefree(case[1]))


@settings(max_examples=80, deadline=None)
@given(squarefree_products)
def test_the_memo_answers_as_factor(case):
    """``comodule._poly_factors`` through its memo, left filled from
    earlier examples, gives ``factor``'s answer: a key tells apart
    polynomials whose coordinates agree at another conductor."""
    L, f = case
    want = polyfactor.factor(f, L)
    assert comodule._poly_factors(f, L) == want
    assert comodule._poly_factors(f, L) == want


def test_a_caller_cannot_poison_the_memo(fresh_memo):
    """Each call gets fresh lists, so editing one changes no later hit."""
    L = 4
    f = polyfactor.as_cyclo([-1, 0, 1], L)  # x^2 - 1
    want = comodule._poly_factors(f, L)
    got = comodule._poly_factors(f, L)
    got[0][0] = zeta(L)
    got[1].append(zeta(L))
    got.pop()
    assert comodule._poly_factors(f, L) == want
    assert comodule._factors_memo.cache_info().hits == 2
    h = want[0]
    w = comodule._cofactor_idempotent(f, h, L)
    edited = comodule._cofactor_idempotent(f, h, L)
    edited[0] = zeta(L)
    edited.pop()
    assert comodule._cofactor_idempotent(f, h, L) == w
    assert comodule._cofactor_memo.cache_info().hits == 2


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


def _full_scan_split(f, basis, p: int) -> list:
    """Berlekamp's split with every c in Z/p tried for every factor u."""
    factors = [f]
    for v in basis[1:]:
        if len(factors) == len(basis):
            break
        factors = [g for u in factors
                   for g in (polyfactor._xgcd_p(u, polyfactor._add_mod(v, [-c], p), p)[0]
                             for c in range(p))
                   if len(g) > 1]
    return factors


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_the_split_stops_early_with_the_full_scans_factors(p):
    """On seeded random monic polynomials squarefree mod p, the early exit
    returns the full scan's factors in the same order, and they multiply
    back to f."""
    rng = random.Random(p)
    most = 0
    for _ in range(60):
        f = [rng.randrange(p) for _ in range(rng.randint(1, 9))] + [1]
        if len(polyfactor._xgcd_p(f, polyfactor.derivative(f), p)[0]) > 1:
            continue
        basis = polyfactor.berlekamp(f, p)
        got = polyfactor._split_p(f, basis, p)
        assert got == _full_scan_split(f, basis, p)
        assert len(got) == len(basis)
        back = [1]
        for g in got:
            back = polyfactor._mul_mod(back, g, p)
        assert back == f
        most = max(most, len(got))
    assert most >= 3


@pytest.mark.parametrize("coeffs, calls", [
    ([-1, 0, 2, 0, -2, 0, 1], 72),   # 133 with every c scanned
    ([1, 0, 0, 0, 0, 0, 1], 28),     # 34
])
def test_the_mixed_transports_polynomials_split_with_few_gcds(
        coeffs, calls, monkeypatch):
    """The two minimal polynomials the bench's dim-24 mixed Z6 transport
    factors, at conductor 6: the ``_xgcd_p`` calls of one ``factor``."""
    counted = []
    xgcd = polyfactor._xgcd_p

    def counting(*args):
        counted.append(1)
        return xgcd(*args)

    monkeypatch.setattr(polyfactor, "_xgcd_p", counting)
    polyfactor.factor(coeffs, 6)
    assert len(counted) <= calls
