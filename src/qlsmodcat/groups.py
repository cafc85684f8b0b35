"""Finite abelian groups, their subgroups, and their characters.

Groups are direct products of cyclic factors; elements are exponent
tuples.  Subgroups carry an invariant-factor presentation (computed from
order statistics plus a generator search) so characters and bilinear
data on them can be written in coordinates.
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from math import gcd, lcm

from qlsmodcat.cyclo import CycloNumber, factorize, zeta
from qlsmodcat.errors import SizeBound, ValidationError


class GroupElement:
    __slots__ = ("group", "exps")

    def __init__(self, group: "AbelianGroup", exps):
        self.group = group
        self.exps = tuple(e % n for e, n in zip(exps, group.orders))

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if other.group != self.group:
            raise ValueError("elements of different groups")
        return GroupElement(
            self.group, tuple(a + b for a, b in zip(self.exps, other.exps))
        )

    def inv(self) -> "GroupElement":
        return GroupElement(self.group, tuple(-e for e in self.exps))

    def __pow__(self, n: int) -> "GroupElement":
        return GroupElement(self.group, tuple(n * e for e in self.exps))

    def order(self) -> int:
        return reduce(
            lcm, (n // gcd(n, e) for e, n in zip(self.exps, self.group.orders)), 1
        )

    def is_identity(self) -> bool:
        return not any(self.exps)

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.group.orders == other.group.orders
            and self.exps == other.exps
        )

    def __hash__(self):
        return hash((self.group.orders, self.exps))

    def __repr__(self):
        return f"g{self.exps}"


class AbelianGroup:
    """A direct product of cyclic groups Z_n1 x ... x Z_nk."""

    def __init__(self, orders):
        orders = tuple(int(n) for n in orders)
        if any(n < 1 for n in orders):
            raise ValidationError(f"cyclic orders must be positive, got {orders}")
        self.orders = orders
        self.order = 1
        for n in orders:
            self.order *= n
        self.exponent = reduce(lcm, orders, 1)

    def element(self, exps) -> GroupElement:
        if len(exps) != len(self.orders):
            raise ValidationError(
                f"expected {len(self.orders)} exponents, got {len(exps)}"
            )
        return GroupElement(self, exps)

    def identity(self) -> GroupElement:
        return GroupElement(self, (0,) * len(self.orders))

    def __iter__(self):
        for exps in product(*[range(n) for n in self.orders]):
            yield GroupElement(self, exps)

    def __eq__(self, other):
        return isinstance(other, AbelianGroup) and self.orders == other.orders

    def __hash__(self):
        return hash(self.orders)

    def __repr__(self):
        return "Z" + "x".join(f"{n}" for n in self.orders) if self.orders else "Z1"

    # character-carrier protocol
    @property
    def char_orders(self):
        return self.orders

    def dlog(self, el: GroupElement):
        return el.exps


class Character:
    """A character of a group or subgroup, given by exponents on its factors.

    Values are roots of unity at the carrier's exponent N: the element
    with discrete log (d_1, ..., d_k) maps to zeta_N ** (sum of
    e_i * d_i * N / n_i).
    """

    __slots__ = ("carrier", "exps")

    def __init__(self, carrier, exps):
        orders = carrier.char_orders
        if len(exps) != len(orders):
            raise ValidationError(
                f"expected {len(orders)} character exponents, got {len(exps)}"
            )
        self.carrier = carrier
        self.exps = tuple(e % n for e, n in zip(exps, orders))

    def eval_exponent(self, el) -> int:
        """Exponent k with value zeta_N ** k, N the carrier exponent."""
        N = self.carrier.exponent
        total = 0
        for e, d, n in zip(self.exps, self.carrier.dlog(el), self.carrier.char_orders):
            total += e * d * (N // n)
        return total % N

    def __call__(self, el) -> CycloNumber:
        return zeta(self.carrier.exponent, self.eval_exponent(el))

    def is_trivial(self) -> bool:
        return not any(self.exps)

    def __mul__(self, other: "Character") -> "Character":
        if other.carrier.char_orders != self.carrier.char_orders:
            raise ValueError("characters of different carriers")
        return Character(
            self.carrier, tuple(a + b for a, b in zip(self.exps, other.exps))
        )

    def inv(self) -> "Character":
        return Character(self.carrier, tuple(-e for e in self.exps))

    def __pow__(self, n: int) -> "Character":
        return Character(self.carrier, tuple(n * e for e in self.exps))

    def __eq__(self, other):
        return (
            isinstance(other, Character)
            and self.carrier.char_orders == other.carrier.char_orders
            and self.exps == other.exps
        )

    def __hash__(self):
        return hash((self.carrier.char_orders, self.exps))

    def __repr__(self):
        return f"chi{self.exps}"



def _invariant_factors(orders: list[int]) -> tuple[int, ...]:
    """Invariant factors of an abelian group from its element order counts.

    For each prime p, the count of elements killed by p**k determines the
    partition of p-exponents; factors are then assembled largest-first
    and returned in ascending divisibility order.
    """
    n = len(orders)
    if n == 1:
        return ()
    exponent = reduce(lcm, orders, 1)
    per_prime: dict[int, list[int]] = {}
    for p, a in factorize(exponent).items():
        logs = []
        for k in range(a + 1):
            pk = p**k
            dk = sum(1 for o in orders if pk % o == 0)
            lg = 0
            while p**lg < dk:
                lg += 1
            if p**lg != dk:
                raise ArithmeticError("element order counts are not a p-power")
            logs.append(lg)
        s = [logs[k] - logs[k - 1] for k in range(1, a + 1)]
        per_prime[p] = [sum(1 for sk in s if sk >= t) for t in range(1, s[0] + 1)]
    r = max(len(v) for v in per_prime.values())
    factors = []
    for t in range(r):
        m = 1
        for p, exps in per_prime.items():
            if t < len(exps):
                m *= p ** exps[t]
        factors.append(m)
    return tuple(sorted(factors))


def _closure(group: AbelianGroup, gens) -> frozenset:
    elems = {group.identity()}
    frontier = [group.identity()]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = a * g
                if b not in elems:
                    elems.add(b)
                    nxt.append(b)
        frontier = nxt
    return frozenset(elems)


def _find_generators(group, elems, factors_desc):
    """Search elements realizing the invariant factors as a direct product."""

    universe = sorted(elems, key=lambda e: e.exps)

    def rec(chosen, span):
        if len(chosen) == len(factors_desc):
            return chosen
        m = factors_desc[len(chosen)]
        for h in universe:
            if h.order() != m or h in span:
                continue
            span2 = _closure(group, chosen + [h])
            if len(span2) == len(span) * m:
                found = rec(chosen + [h], span2)
                if found is not None:
                    return found
        return None

    found = rec([], frozenset({group.identity()}))
    if found is None:
        raise ArithmeticError("no generating tuple realizes the invariant factors")
    return found


class Subgroup:
    """A subgroup with an explicit iso to Z_m1 x ... x Z_mr (m1 | m2 | ...)."""

    __slots__ = ("group", "elements", "factors", "gens", "_dlog")

    def __init__(self, group: AbelianGroup, elements: frozenset):
        self.group = group
        self.elements = elements
        factors = _invariant_factors([el.order() for el in elements])
        gens_desc = _find_generators(group, elements, tuple(reversed(factors)))
        self.factors = factors
        self.gens = tuple(reversed(gens_desc))
        dlog: dict[GroupElement, tuple[int, ...]] = {}
        for exps in product(*[range(m) for m in factors]):
            el = group.identity()
            for t, e in zip(self.gens, exps):
                el = el * t**e
            dlog[el] = exps
        if len(dlog) != len(elements):
            raise ArithmeticError("generator tuple does not enumerate the subgroup")
        self._dlog = dlog

    @classmethod
    def generated(cls, group: AbelianGroup, gens) -> "Subgroup":
        return cls(group, _closure(group, list(gens)))

    @classmethod
    def trivial(cls, group: AbelianGroup) -> "Subgroup":
        return cls.generated(group, [])

    @classmethod
    def full(cls, group: AbelianGroup) -> "Subgroup":
        gens = [
            GroupElement(group, tuple(int(i == j) for j in range(len(group.orders))))
            for i in range(len(group.orders))
        ]
        return cls.generated(group, gens)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def exponent(self) -> int:
        return reduce(lcm, self.factors, 1)

    def __contains__(self, el) -> bool:
        return el in self.elements

    def __iter__(self):
        return iter(sorted(self.elements, key=lambda e: e.exps))

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.group == other.group
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash((self.group.orders, self.key()))

    def key(self):
        """Canonical hashable form: the sorted element exponent tuples."""
        return tuple(sorted(el.exps for el in self.elements))

    def __repr__(self):
        body = "x".join(str(m) for m in self.factors) if self.factors else "1"
        return f"Subgroup(Z{body}, order={self.order})"

    # character-carrier protocol
    @property
    def char_orders(self):
        return self.factors

    def dlog(self, el: GroupElement):
        return self._dlog[el]


def enumerate_subgroups(group: AbelianGroup, bound: int = 256) -> list[Subgroup]:
    """All subgroups, smallest first, in a canonical order.

    Each subgroup is presented (``Subgroup``) once, when its element set
    is first reached; every later closure is only looked up."""
    if group.order > bound:
        raise SizeBound(
            f"group of order {group.order} exceeds the subgroup enumeration bound {bound}"
        )
    seen: dict[frozenset, Subgroup] = {}
    trivial = Subgroup.trivial(group)
    seen[trivial.elements] = trivial
    frontier = [trivial]
    while frontier:
        nxt = []
        for sub in frontier:
            for g in group:
                if g in sub:
                    continue
                elements = _closure(group, list(sub.gens) + [g])
                if elements not in seen:
                    seen[elements] = Subgroup(group, elements)
                    nxt.append(seen[elements])
        frontier = nxt
    return sorted(seen.values(), key=lambda s: (s.order, s.key()))
