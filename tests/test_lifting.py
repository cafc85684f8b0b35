"""Lifted relation tables: validity conditions, axioms, filtration."""

import pytest

from qlsmodcat.cyclo import zeta
from qlsmodcat.deformation import LiftingDatum, build_lifting
from qlsmodcat.errors import ValidationError
from qlsmodcat.groups import AbelianGroup, Character
from qlsmodcat.hopf import QlsDatum, build_bosonization

from closed_forms import bosonization_mult
from qls_fixtures import (
    clifford_z22_datum,
    sweedler_datum,
    z4_mu_datum,
    z22_lambda_datum,
)


def one_pair(L):
    return zeta(L, 0).raw()


def test_trivial_lifting_equals_bosonization():
    # with all scalars zero the lifting and the bosonization must both
    # reproduce the closed-form product bit for bit, grading flag aside
    for d in (sweedler_datum(), z4_mu_datum(), z22_lambda_datum()):
        H = build_bosonization(d)
        K = build_lifting(LiftingDatum(d))
        assert K.labels == H.labels
        assert K.mult == H.mult == bosonization_mult(d)
        assert K.comult == H.comult
        assert K.counit == H.counit
        assert K.antipode == H.antipode


def test_root_scalar_conditions():
    # chi has order 2 = N and g^2 = g^2 != 1 in Z4, so mu is free
    assert LiftingDatum(z4_mu_datum(), mu=[1]).validate().ok
    # over Z2 the square g^2 = 1 forces mu = 0
    bad = LiftingDatum(sweedler_datum(), mu=[1])
    rep = bad.validate()
    assert "root-scalar-forced-zero" in rep.checks_failed()
    with pytest.raises(ValidationError):
        build_lifting(bad)
    # chi^N != trivial also forces mu = 0: z4 datum with chi(g) = i has
    # chi^4 = trivial but g^4 = 1, so both guards trip separately
    from qls_fixtures import z4_datum
    rep = LiftingDatum(z4_datum(), mu=[1]).validate()
    assert "root-scalar-forced-zero" in rep.checks_failed()


def test_link_scalar_conditions():
    assert LiftingDatum(z22_lambda_datum(), lam={(0, 1): 1}).validate().ok
    # both generators graded by the same involution: g1 g2 = 1
    from qls_fixtures import clifford_z2_datum
    rep = LiftingDatum(clifford_z2_datum(), lam={(0, 1): 1}).validate()
    assert "link-scalar-forced-zero" in rep.checks_failed()
    # clifford over Z2 x Z2 has g1 g2 = (0, 0)? no: (1,0)(1,0) = (0,0), forced
    rep = LiftingDatum(clifford_z22_datum(), lam={(0, 1): 1}).validate()
    assert "link-scalar-forced-zero" in rep.checks_failed()
    with pytest.raises(ValidationError):
        LiftingDatum(z22_lambda_datum(), lam={(1, 0): 1})


def test_a_lifting_over_an_invalid_datum_is_rejected():
    # g = 1 and chi trivial give q = 1; the lifting's own report checks
    # only its scalars, and require_valid still rejects the datum
    G = AbelianGroup((2,))
    ld = LiftingDatum(QlsDatum(G, [G.identity()], [Character(G, (0,))]), mu=[1])
    assert ld.validate().subject == "lifting"
    assert "self-pairing-one" not in ld.validate().checks_failed()
    with pytest.raises(ValidationError, match="invalid datum"):
        build_lifting(ld)


def test_each_forced_zero_scalar_fails_once():
    # over Z2 x Z4 with g = (1, 0): g^2 = 1 and chi^2 != eps; over Z4
    # with g1 g2 = 1: chi1 chi2 != eps.  Both reasons hold, one failure
    G = AbelianGroup((2, 4))
    d = QlsDatum(G, [G.element((1, 0))], [Character(G, (1, 1))])
    assert LiftingDatum(d, mu=[1]).validate().failures == [
        ("root-scalar-forced-zero", 0)]
    G = AbelianGroup((4,))
    chi = Character(G, (1,))
    d = QlsDatum(G, [G.element((1,)), G.element((3,))], [chi, chi])
    assert LiftingDatum(d, lam={(0, 1): 1}).validate().failures == [
        ("link-scalar-forced-zero", (0, 1))]


def test_mu_lifting_tables():
    ld = LiftingDatum(z4_mu_datum(), mu=[1])
    H = build_lifting(ld)
    assert H.dim == 8
    a = H.basis(H.index[((1,), (0,))])
    sq = H.multiply(a, a)
    # a^2 = 1 - g^2
    assert sq == {
        H.index[((0,), (0,))]: one_pair(4),
        H.index[((0,), (2,))]: zeta(4, 2).raw(),
    }
    rep = H.verify()
    assert rep.ok, rep.failures[:3]


def test_lambda_lifting_tables():
    ld = LiftingDatum(z22_lambda_datum(), lam={(0, 1): 1})
    H = build_lifting(ld)
    assert H.dim == 16
    a1 = H.basis(H.index[((1, 0), (0, 0))])
    a2 = H.basis(H.index[((0, 1), (0, 0))])
    a12 = H.multiply(a1, a2)
    assert a12 == {H.index[((1, 1), (0, 0))]: one_pair(2)}
    # a2 a1 = -a1 a2 + (1 - g1 g2) after descending swap
    a21 = H.multiply(a2, a1)
    assert a21 == {
        H.index[((1, 1), (0, 0))]: zeta(2, 1).raw(),
        H.index[((0, 0), (0, 0))]: one_pair(2),
        H.index[((0, 0), (1, 1))]: zeta(2, 1).raw(),
    }
    rep = H.verify()
    assert rep.ok, rep.failures[:3]


def test_lifting_filtration_matches_graded_dims():
    graded = build_bosonization(z4_mu_datum())
    lifted = build_lifting(LiftingDatum(z4_mu_datum(), mu=[1]))
    assert lifted.degree == graded.degree
    assert not lifted.graded


def test_lifting_keeps_graded_coalgebra():
    # the coproduct tables agree with the graded ones on the whole basis;
    # only the multiplication bends, and it is the part that mixes degrees
    for ld in (LiftingDatum(z4_mu_datum(), mu=[1]),
               LiftingDatum(z22_lambda_datum(), lam={(0, 1): 1})):
        H = build_lifting(ld)
        G = build_bosonization(ld.datum)
        assert H.comult == G.comult
        assert H.counit == G.counit
        assert H.mult != G.mult
        theta = ld.datum.theta
        first = H.basis(H.index[((1,) + (0,) * (theta - 1), ld.datum.group.identity().exps)])
        last = H.basis(H.index[((0,) * (theta - 1) + (1,), ld.datum.group.identity().exps)])
        prod = H.multiply(last, first)
        assert {H.degree[i] for i in prod} & {0}


def test_lifting_scalar_validation_shapes():
    with pytest.raises(ValidationError):
        LiftingDatum(z4_mu_datum(), mu=[1, 1])
    with pytest.raises(ValidationError):
        LiftingDatum(z22_lambda_datum(), lam={(0, 0): 1})
