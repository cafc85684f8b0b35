"""Two-cocycles on finite abelian groups with root-of-unity values.

Cohomology classes are parametrized by alternating bicharacters: the
class of psi is determined by beta(a, b) = psi(a, b) / psi(b, a), and on
a group with invariant factors (m_1, ..., m_r) the classes correspond to
exponent choices c_ij in Z_gcd(m_i, m_j) on generator pairs i < j.
"""

from __future__ import annotations

from itertools import combinations, product
from math import gcd, lcm

from qlsmodcat.cyclo import CycloNumber, zeta
from qlsmodcat.errors import ValidationError


def dlog_root(value: CycloNumber, m: int):
    """k with value == zeta_m ** k, or None."""
    for k in range(m):
        if value == zeta(m, k):
            return k
    return None


class Cocycle2:
    """A 2-cocycle on a finite abelian group, stored as a full table."""

    def __init__(self, carrier, table: dict, check: bool = True):
        self.carrier = carrier
        self.table = table
        if check:
            self._check_cocycle()

    def __call__(self, a, b) -> CycloNumber:
        return self.table[(a, b)]

    def _check_cocycle(self):
        els = list(self.carrier)
        for a in els:
            for b in els:
                if (a, b) not in self.table:
                    raise ValidationError("cocycle table is missing a pair")
                if self.table[(a, b)].is_zero():
                    raise ValidationError("cocycle values must be invertible")
        for a in els:
            for b in els:
                for c in els:
                    lhs = self.table[(a, b)] * self.table[(a * b, c)]
                    rhs = self.table[(b, c)] * self.table[(a, b * c)]
                    if lhs != rhs:
                        raise ValidationError(
                            f"cocycle identity fails at ({a}, {b}, {c})"
                        )

    @classmethod
    def trivial(cls, carrier) -> "Cocycle2":
        one = CycloNumber.one(1)
        table = {(a, b): one for a in carrier for b in carrier}
        return cls(carrier, table, check=False)

    @classmethod
    def from_exponents(cls, carrier, c: dict) -> "Cocycle2":
        """The bilinear representative with psi(a, b) = prod over i < j of
        zeta_gcd(m_i, m_j) ** (c[i, j] * a_i * b_j) in generator coordinates."""
        factors = carrier.char_orders
        r = len(factors)
        for (i, j), cij in c.items():
            if not (0 <= i < j < r):
                raise ValidationError(f"exponent key {(i, j)} is not an i < j pair")
            if cij % gcd(factors[i], factors[j]) != cij:
                raise ValidationError(
                    f"exponent {cij} out of range for pair {(i, j)}"
                )
        N = carrier.exponent if factors else 1
        table = {}
        for a in carrier:
            da = carrier.dlog(a)
            for b in carrier:
                db = carrier.dlog(b)
                e = 0
                for (i, j), cij in c.items():
                    g = gcd(factors[i], factors[j])
                    e += (N // g) * cij * da[i] * db[j]
                table[(a, b)] = zeta(N, e % N)
        return cls(carrier, table, check=False)

    def is_unital(self) -> bool:
        e = next(a for a in self.carrier if a.is_identity())
        return all(
            self.table[(e, a)].is_one() and self.table[(a, e)].is_one()
            for a in self.carrier
        )

    def coboundary_twist(self, mu: dict) -> "Cocycle2":
        """The cohomologous cocycle psi(a,b) * mu(a) * mu(b) / mu(ab)."""
        table = {}
        for (a, b), v in self.table.items():
            table[(a, b)] = v * mu[a] * mu[b] * mu[a * b].inv()
        return Cocycle2(self.carrier, table, check=False)

    def normalize(self) -> "Cocycle2":
        """A cohomologous cocycle with psi(1, .) = psi(., 1) = 1 and
        psi(g, g^-1) = 1 for every g.

        Involutions need a square root of a table value, so the result can
        live at twice the conductor of the input.
        """
        els = list(self.carrier)
        ident = next(a for a in els if a.is_identity())
        c = self.table[(ident, ident)].inv()
        psi = self.coboundary_twist({a: c for a in els})
        mu2 = {a: CycloNumber.one(1) for a in els}
        done = {ident}
        for g in els:
            if g in done:
                continue
            h = g.inv()
            v = psi.table[(h, g)]
            if h == g:
                n = v.order()
                if n is None:
                    raise ValidationError("cocycle value is not a root of unity")
                k = dlog_root(v, n)
                mu2[g] = zeta(2 * n, -k % (2 * n))
                done.add(g)
            else:
                mu2[h] = v.inv()
                done.add(g)
                done.add(h)
        return psi.coboundary_twist(mu2)

    def beta(self, a, b) -> CycloNumber:
        """The alternating bicharacter psi(a, b) / psi(b, a)."""
        return self.table[(a, b)] * self.table[(b, a)].inv()

    def class_tag(self) -> tuple:
        """Canonical label of the cohomology class: beta exponents on
        generator pairs."""
        factors = self.carrier.char_orders
        gens = _gens(self.carrier)
        tag = []
        for i, j in combinations(range(len(factors)), 2):
            g = gcd(factors[i], factors[j])
            k = dlog_root(self.beta(gens[i], gens[j]), g)
            if k is None:
                raise ArithmeticError("beta value has wrong order on a generator pair")
            tag.append(k)
        return tuple(tag)

    def rebase(self, L: int) -> "Cocycle2":
        table = {k: v.rebase(lcm(v.L, L)) for k, v in self.table.items()}
        return Cocycle2(self.carrier, table, check=False)


def _gens(carrier):
    gens = getattr(carrier, "gens", None)
    if gens is not None:
        return gens
    # a plain product group: the standard generators
    orders = carrier.char_orders
    return tuple(
        carrier.element(tuple(int(i == j) for j in range(len(orders))))
        for i in range(len(orders))
    )


def enumerate_classes(carrier) -> list[Cocycle2]:
    """One normalized representative per cohomology class."""
    factors = carrier.char_orders
    pairs = list(combinations(range(len(factors)), 2))
    ranges = [range(gcd(factors[i], factors[j])) for i, j in pairs]
    out = []
    tags = set()
    for choice in product(*ranges):
        c = {p: v for p, v in zip(pairs, choice)}
        psi = Cocycle2.from_exponents(carrier, c).normalize()
        tag = psi.class_tag()
        if tag in tags:
            raise ArithmeticError("duplicate cohomology class tag")
        tags.add(tag)
        out.append(psi)
    return out
