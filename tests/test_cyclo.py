"""Cyclotomic arithmetic against the complex embedding and known tables."""

from __future__ import annotations

import cmath
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qlsmodcat.cyclo import (CycloNumber, _poly_trim, _poly_xgcd, conjugate,
                             context, cyclotomic_polynomial, totient, zeta)
from qlsmodcat.errors import ValidationError
from qlsmodcat.serialize import cyclo_from_json, cyclo_to_json

# Textbook tables, constant coefficient first.
KNOWN_PHI = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}


def to_complex(x: CycloNumber) -> complex:
    """The value of x under the embedding zeta_L -> exp(2 pi i / L)."""
    w = cmath.exp(2j * cmath.pi / x.L)
    return sum(c * w**i for i, c in enumerate(x.nums)) / x.den


def test_cyclotomic_polynomial_tables():
    for L, coeffs in KNOWN_PHI.items():
        assert cyclotomic_polynomial(L) == coeffs


@pytest.mark.parametrize("L", range(1, 25))
def test_phi_vanishes_exactly_on_primitive_roots(L):
    w = cmath.exp(2j * cmath.pi / L)
    phi = cyclotomic_polynomial(L)
    val = sum(c * w**i for i, c in enumerate(phi))
    assert abs(val) < 1e-9
    # and stays away from zero on non-primitive roots
    for k in range(L):
        if gcd(k, L) != 1:
            wk = cmath.exp(2j * cmath.pi * k / L)
            assert abs(sum(c * wk**i for i, c in enumerate(phi))) > 1e-6


def test_totient_is_the_field_degree():
    for L in range(1, 100):
        assert totient(L) == context(L).degree


def test_scalar_coefficient_count_is_checked_before_any_table():
    with pytest.raises(ValidationError, match="needs 4 coefficients"):
        cyclo_from_json({"L": 12, "c": ["1"]})
    # a conductor no trial division should meet is ruled out by
    # phi(L) >= sqrt(L / 2) alone
    with pytest.raises(ValidationError, match="needs more than 1 coeff"):
        cyclo_from_json({"L": 10**30, "c": ["1"]})


def test_reduction_rows_match_polynomial():
    ctx = context(12)
    assert ctx.degree == 4
    # x^4 = x^2 - 1 for Phi_12 = x^4 - x^2 + 1
    assert ctx.reduction[0] == (-1, 0, 1, 0)
    assert len(ctx.reduction) == ctx.degree - 1
    assert ctx.zeta_pows[0] == (1, 0, 0, 0)
    assert ctx.zeta_pows[1] == (0, 1, 0, 0)


def test_root_of_unity_identities():
    assert zeta(3) + zeta(3, 2) == -1
    assert zeta(4) ** 2 == -1
    assert zeta(8) ** 2 == zeta(4)
    assert zeta(6) == 1 + zeta(3)
    assert sum(zeta(5, k) for k in range(5)) == CycloNumber.zero(5)
    assert zeta(2) * zeta(3) == zeta(6, 5)


def test_normalization():
    x = CycloNumber(4, (2, 4), 6)
    assert x.nums == (1, 2) and x.den == 3
    y = CycloNumber(4, (0, 0), 17)
    assert y.nums == (0, 0) and y.den == 1
    z = CycloNumber(4, (1, 1), -2)
    assert z.nums == (-1, -1) and z.den == 2


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6, 8, 12])
def test_arithmetic_matches_complex_embedding(L):
    rng = random.Random(20240 + L)
    d = context(L).degree

    def rand():
        return CycloNumber(
            L, tuple(rng.randint(-9, 9) for _ in range(d)), rng.randint(1, 7)
        )

    for _ in range(25):
        a, b = rand(), rand()
        assert cmath.isclose(
            to_complex(a + b), to_complex(a) + to_complex(b), abs_tol=1e-9
        )
        assert cmath.isclose(
            to_complex(a * b), to_complex(a) * to_complex(b), abs_tol=1e-9
        )
        if not a.is_zero():
            assert cmath.isclose(
                to_complex(a.inv()), 1 / to_complex(a), abs_tol=1e-9
            )


def _cyclos(L=12, size=20):
    d = context(L).degree
    return st.builds(
        lambda nums, den: CycloNumber(L, nums, den),
        st.tuples(*[st.integers(-size, size)] * d),
        st.integers(1, 12),
    )


@given(_cyclos(), _cyclos(), _cyclos())
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + (b - a) == b
    assert a * b == b * a


@given(_cyclos(L=8, size=9))
def test_inverse_is_two_sided(a):
    if not a.is_zero():
        assert (a * a.inv()).is_one()
        assert (a.inv() * a).is_one()


def euclid_inverse(x: CycloNumber) -> CycloNumber:
    """The inverse by the extended Euclidean algorithm against Phi_L over
    Q: s x + t Phi_L = g, a nonzero constant, so x**-1 = s / g."""
    phi = [Fraction(c) for c in cyclotomic_polynomial(x.L)]
    g, s = _poly_xgcd([Fraction(n, x.den) for n in x.nums], phi)
    g = _poly_trim(g)
    assert len(g) == 1
    coeffs = [c / g[0] for c in s]
    coeffs += [Fraction(0)] * (context(x.L).degree - len(coeffs))
    den = lcm(*(c.denominator for c in coeffs))
    return CycloNumber(x.L, [int(c * den) for c in coeffs], den)


@pytest.mark.parametrize("L", [3, 4, 5, 8, 9, 12])
def test_inverse_matches_the_euclidean_oracle(L):
    """Generic elements go through the product of conjugates over the
    norm, +-zeta**k through the table of powers, rationals through Q."""
    rng = random.Random(L)
    d = context(L).degree
    xs = [zeta(L, k) for k in range(L)] + [-zeta(L, k) for k in range(L)]
    xs += [CycloNumber.from_rational(Fraction(-3, 7), L)]
    while len(xs) < 2 * L + 60:
        x = CycloNumber(L, [rng.randint(-40, 40) for _ in range(d)],
                        rng.randint(1, 9))
        if x:
            xs.append(x)
    for x in xs:
        assert x.inv().raw() == euclid_inverse(x).raw()


def test_inverse_of_a_root_of_unity_is_its_conjugate_power():
    for L in (3, 5, 8, 9, 12):
        for k in range(L):
            assert zeta(L, k).inv().raw() == zeta(L, L - k).raw()
            assert (-zeta(L, k)).inv().raw() == (-zeta(L, L - k)).raw()


def test_inverse_rejects_a_norm_that_is_not_rational(monkeypatch):
    import qlsmodcat.cyclo as cyclo

    # with sigma_3 taken for the identity, the "norm" of 1 + 2i is
    # (1 + 2i)**2 = -3 + 4i
    monkeypatch.setattr(cyclo, "_conjugate_pair", lambda pair, a, ctx: pair)
    with pytest.raises(ArithmeticError, match="not rational"):
        (1 + 2 * zeta(4)).inv()


@pytest.mark.parametrize("L", [1, 3, 4, 8, 12])
@given(st.integers(-30, 30).filter(bool), st.integers(1, 30))
def test_rational_inverse_is_the_canonical_reciprocal(L, n, d):
    a = CycloNumber.from_rational(Fraction(n, d), L)
    assert a.inv().raw() == CycloNumber.from_rational(Fraction(d, n), L).raw()


def test_rebase_round_trip():
    a = zeta(3) - 2
    b = a.rebase(12)
    assert b.L == 12
    assert b == a
    assert cmath.isclose(to_complex(a), to_complex(b), abs_tol=1e-12)
    with pytest.raises(ValueError):
        a.rebase(8)


@pytest.mark.parametrize("L", [1, 3, 4, 8, 12])
@given(st.data())
def test_rebase_is_the_ring_map_zeta_L_to_a_power_of_zeta_M(L, data):
    """rebase substitutes zeta_L -> zeta_M ** (M // L), as a conjugation
    substitutes zeta_L -> zeta_L ** a: it is a ring map that commutes with
    every conjugation of Q(zeta_M)."""
    M = L * data.draw(st.integers(1, 6))
    x, y = data.draw(_cyclos(L, 9)), data.draw(_cyclos(L, 9))
    assert (x + y).rebase(M).raw() == (x.rebase(M) + y.rebase(M)).raw()
    assert (x * y).rebase(M).raw() == (x.rebase(M) * y.rebase(M)).raw()
    k = data.draw(st.integers(0, L - 1))
    assert zeta(L, k).rebase(M).raw() == zeta(M, k * M // L).raw()
    a = data.draw(st.integers(1, M).filter(lambda a: gcd(a, M) == 1))
    assert (conjugate(x.rebase(M), a).raw()
            == conjugate(x, a % L).rebase(M).raw())
    if L > 1:
        with pytest.raises(ValueError):
            x.rebase(M + 1)


def test_mixed_conductor_operations():
    x = zeta(4) + zeta(3)
    assert x.L == 12
    assert cmath.isclose(
        to_complex(x),
        cmath.exp(2j * cmath.pi / 4) + cmath.exp(2j * cmath.pi / 3),
        abs_tol=1e-12,
    )


def test_order_table():
    assert zeta(12).order() == 12
    assert zeta(3, 2).order() == 3
    assert (-zeta(3)).order() == 6
    assert CycloNumber.one(5).order() == 1
    assert CycloNumber.from_rational(-1, 4).order() == 2
    assert CycloNumber.from_rational(2, 3).order() is None
    assert (1 + zeta(4)).order() is None


def test_json_round_trip_is_bit_exact():
    x = CycloNumber(12, (3, -2, 0, 7), 6)
    doc = cyclo_to_json(x)
    assert doc == {"L": 12, "c": ["1/2", "-1/3", "0", "7/6"]}
    y = cyclo_from_json(doc)
    assert (y.L, y.nums, y.den) == (x.L, x.nums, x.den)


def test_division_and_powers():
    a = 1 + zeta(4)
    assert a / a == CycloNumber.one(4)
    assert a**0 == 1
    assert a**3 == a * a * a
    assert a**-2 == (a * a).inv()
    assert (2 / a) * a == 2


def test_rational_detection():
    assert (zeta(3) + zeta(3, 2)).as_fraction() == Fraction(-1)
    assert CycloNumber.from_rational(Fraction(7, 3), 8).as_fraction() == Fraction(7, 3)
    with pytest.raises(ValueError):
        zeta(4).as_fraction()


def test_unhashable_by_design():
    with pytest.raises(TypeError):
        hash(zeta(4))
