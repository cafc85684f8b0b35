"""Cocycle classes against brute-force bicharacter enumeration."""

from __future__ import annotations

import random
from itertools import product

import pytest

from qlsmodcat.cyclo import CycloNumber, zeta
from qlsmodcat.groups import AbelianGroup, Subgroup
from qlsmodcat.cocycles import Cocycle2, enumerate_classes

CARRIERS = [
    Subgroup.full(AbelianGroup(())),
    Subgroup.full(AbelianGroup((2,))),
    Subgroup.full(AbelianGroup((4,))),
    Subgroup.full(AbelianGroup((2, 2))),
    Subgroup.full(AbelianGroup((2, 4))),
    Subgroup.full(AbelianGroup((4, 4))),
]


def _ids(c):
    return "Z" + "x".join(map(str, c.factors)) if c.factors else "Z1"


@pytest.mark.parametrize("carrier", CARRIERS, ids=_ids)
def test_class_enumeration(carrier):
    classes = enumerate_classes(carrier)
    tags = {psi.class_tag() for psi in classes}
    assert len(tags) == len(classes)
    for psi in classes:
        psi._check_cocycle()
        assert psi.is_unital()
        for g in carrier:
            assert psi(g.inv(), g).is_one()
            assert psi(g, g.inv()).is_one()


def test_expected_class_counts():
    counts = {(): 1, (2,): 1, (4,): 1, (2, 2): 2, (2, 4): 2, (4, 4): 4}
    for carrier in CARRIERS:
        assert len(enumerate_classes(carrier)) == counts[carrier.factors]


@pytest.mark.parametrize("carrier", CARRIERS[3:], ids=_ids)
def test_beta_is_an_alternating_bicharacter(carrier):
    for psi in enumerate_classes(carrier):
        for g in carrier:
            assert psi.beta(g, g).is_one()
        for a in carrier:
            for b in carrier:
                for c in carrier:
                    assert psi.beta(a * b, c) == psi.beta(a, c) * psi.beta(b, c)


def test_brute_force_alternating_bicharacters_klein():
    """Independent count for Z2 x Z2: enumerate all sign tables directly."""
    G = AbelianGroup((2, 2))
    els = list(G)
    idx = {g: i for i, g in enumerate(els)}
    found = []
    for bits in range(1 << 16):
        table = [[1 - 2 * ((bits >> (4 * i + j)) & 1) for j in range(4)] for i in range(4)]
        ok = True
        for a in els:
            if table[idx[a]][idx[a]] != 1:
                ok = False
                break
        if not ok:
            continue
        for a in els:
            for b in els:
                for c in els:
                    if table[idx[a * b]][idx[c]] != table[idx[a]][idx[c]] * table[idx[b]][idx[c]]:
                        ok = False
                        break
                    if table[idx[a]][idx[b * c]] != table[idx[a]][idx[b]] * table[idx[a]][idx[c]]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            found.append(tuple(tuple(r) for r in table))
    assert len(found) == 2

    carrier = Subgroup.full(G)
    from_classes = set()
    for psi in enumerate_classes(carrier):
        tbl = []
        for a in els:
            row = []
            for b in els:
                v = psi.beta(carrier_el(carrier, a), carrier_el(carrier, b))
                row.append(int(v.as_fraction()))
            tbl.append(tuple(row))
        from_classes.add(tuple(tbl))
    assert from_classes == set(found)


def carrier_el(sub, g):
    # group elements of the parent are the subgroup's elements here
    assert g in sub
    return g


def test_class_tag_is_coboundary_invariant():
    G = AbelianGroup((2, 4))
    carrier = Subgroup.full(G)
    rng = random.Random(3)
    for psi in enumerate_classes(carrier):
        tag = psi.class_tag()
        mu = {g: zeta(8, rng.randrange(8)) for g in carrier}
        twisted = psi.coboundary_twist(mu)
        twisted._check_cocycle()
        assert twisted.class_tag() == tag
        assert twisted.normalize().class_tag() == tag


def test_sign_cocycle_on_klein_is_nontrivial():
    G = AbelianGroup((2, 2))
    carrier = Subgroup.full(G)
    nontrivial = [
        psi for psi in enumerate_classes(carrier) if any(psi.class_tag())
    ]
    assert len(nontrivial) == 1
    psi = nontrivial[0]
    a = G.element((1, 0))
    b = G.element((0, 1))
    assert psi.beta(a, b) == -CycloNumber.one(1)
