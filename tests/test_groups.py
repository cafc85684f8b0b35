"""Group, subgroup, and character behaviour on small abelian groups."""

from __future__ import annotations

from itertools import product

import pytest

from qlsmodcat.cyclo import CycloNumber
from qlsmodcat.errors import SizeBound, ValidationError
from qlsmodcat.groups import (
    AbelianGroup,
    Character,
    Subgroup,
    enumerate_subgroups,
)


def characters(carrier):
    """All characters of the carrier, one per exponent tuple."""
    for exps in product(*[range(n) for n in carrier.char_orders]):
        yield Character(carrier, exps)


def test_element_arithmetic_and_orders():
    G = AbelianGroup((2, 4))
    a = G.element((1, 0))
    b = G.element((0, 1))
    assert (a * b).exps == (1, 1)
    assert (a * a).is_identity()
    assert a.order() == 2
    assert b.order() == 4
    assert (a * b).order() == 4
    assert G.element((1, 2)).order() == 2
    assert (b.inv() * b).is_identity()
    assert (b**3).exps == (0, 3)
    assert G.exponent == 4 and G.order == 8


def test_bad_group_data_rejected():
    with pytest.raises(ValidationError):
        AbelianGroup((2, 0))
    with pytest.raises(ValidationError):
        AbelianGroup((4,)).element((1, 1))


def test_character_values_and_orthogonality():
    G = AbelianGroup((2, 4))
    for chi in characters(G):
        total = CycloNumber.zero(G.exponent)
        for g in G:
            total = total + chi(g)
        if chi.is_trivial():
            assert total == G.order
        else:
            assert total.is_zero()


def test_character_multiplicativity():
    G = AbelianGroup((3, 4))
    chi = Character(G, (2, 3))
    for g in G:
        for h in G:
            assert chi(g * h) == chi(g) * chi(h)
    assert chi(G.element((1, 0))).order() == 3
    assert chi(G.element((0, 2))).order() == 2
    assert (chi * chi.inv()).is_trivial()


def test_subgroup_presentations():
    G = AbelianGroup((2, 4))
    sub = Subgroup.generated(G, [G.element((0, 2))])
    assert sub.order == 2 and sub.factors == (2,)
    full = Subgroup.full(G)
    assert full.order == 8 and full.factors == (2, 4)
    klein = Subgroup.generated(G, [G.element((1, 0)), G.element((0, 2))])
    assert klein.factors == (2, 2)
    trivial = Subgroup.trivial(G)
    assert trivial.order == 1 and trivial.factors == ()


def test_subgroup_presentation_matches_abstract_group():
    # the invariant factors must reproduce the element order statistics
    G = AbelianGroup((2, 2, 4))
    for sub in enumerate_subgroups(G):
        model = AbelianGroup(sub.factors) if sub.factors else AbelianGroup(())
        have = sorted(el.order() for el in sub)
        want = sorted(el.order() for el in model)
        assert have == want
        # divisibility chain
        for m1, m2 in zip(sub.factors, sub.factors[1:]):
            assert m2 % m1 == 0
        # dlog is an isomorphism onto the product of the factors
        seen = set()
        for el in sub:
            d = sub.dlog(el)
            seen.add(d)
            for t, e, m in zip(sub.gens, d, sub.factors):
                assert 0 <= e < m
        assert len(seen) == sub.order


def test_subgroup_counts():
    assert len(enumerate_subgroups(AbelianGroup((2,)))) == 2
    assert len(enumerate_subgroups(AbelianGroup((4,)))) == 3
    assert len(enumerate_subgroups(AbelianGroup((8,)))) == 4
    assert len(enumerate_subgroups(AbelianGroup((2, 2)))) == 5
    assert len(enumerate_subgroups(AbelianGroup((2, 4)))) == 8
    assert len(enumerate_subgroups(AbelianGroup((3, 3)))) == 6


def test_each_subgroup_is_presented_once(monkeypatch):
    """Closures are deduplicated on their element sets before a subgroup
    is presented: the 67 subgroups of Z2^4 cost 67 presentations."""
    presented = []
    init = Subgroup.__init__

    def counted(self, group, elements):
        presented.append(elements)
        init(self, group, elements)

    monkeypatch.setattr(Subgroup, "__init__", counted)
    assert len(enumerate_subgroups(AbelianGroup((2,) * 4))) == 67
    assert len(presented) == 67


def test_subgroup_enumeration_bound():
    with pytest.raises(SizeBound):
        enumerate_subgroups(AbelianGroup((2,) * 9))


def test_subgroup_characters_cover_dual():
    G = AbelianGroup((2, 4))
    sub = Subgroup.generated(G, [G.element((1, 0)), G.element((0, 2))])
    chars = list(characters(sub))
    assert len(chars) == sub.order
    assert len(set(chars)) == sub.order
    for chi in chars:
        for a in sub:
            for b in sub:
                assert chi(a * b) == chi(a) * chi(b)
