"""Cocycle twists, connecting objects and transport of algebras."""

import pytest

from qlsmodcat import deformation
from qlsmodcat.cocycles import Cocycle2, enumerate_classes
from qlsmodcat.comodule import (
    ModCatDatum,
    build_A,
    coinvariants,
    regular_coaction,
    simple_modules,
    trivial_coaction,
)
from qlsmodcat.cyclo import CycloNumber
from qlsmodcat.deformation import (
    HopfCocycle,
    LiftingDatum,
    build_bigalois,
    build_lifting,
    coideal_twist,
    cotensor,
    deform_comodule_algebra,
    deform_hopf,
    group_sigma,
    sigma_bigalois,
    transport,
)
from qlsmodcat.errors import (CocycleInvalid, IsoCheckFailed, NotClosed,
                               ValidationError)
from qlsmodcat.groups import AbelianGroup, Subgroup
from qlsmodcat.hopf import FiniteAlgebra, QlsDatum, build_bosonization, group_hopf
from qlsmodcat.linalg import pone
from qls_fixtures import sweedler_datum, trivial_sigma, z4_mu_datum, z22_lambda_datum


def plain_mcd():
    G = AbelianGroup((2, 2))
    datum = QlsDatum(G, [], [])
    F = Subgroup.full(G)
    return ModCatDatum(datum, F, Cocycle2.trivial(F))


def twisted_mcd():
    G = AbelianGroup((2, 2))
    datum = QlsDatum(G, [], [])
    F = Subgroup.full(G)
    return ModCatDatum(datum, F, Cocycle2.from_exponents(F, {(0, 1): 1}))


def group_setup():
    mcd = plain_mcd()
    A = build_A(mcd)
    psi = Cocycle2.from_exponents(mcd.F, {(0, 1): 1})
    return A, group_sigma(A.hopf, psi)


def test_trivial_cocycle_validates_and_is_self_inverse():
    H = build_bosonization(sweedler_datum())
    s = trivial_sigma(H)
    assert s.validate().ok
    assert s.inverse == s.table


def test_trivial_cocycle_deformation_is_identity():
    H = build_bosonization(sweedler_datum())
    H2 = deform_hopf(H, trivial_sigma(H))
    assert H2.mult == H.mult
    assert H2.antipode == H.antipode
    assert H2.comult == H.comult


def test_deform_hopf_takes_each_iterated_coproduct_once(monkeypatch):
    # the product is two twists of the plain coproduct, so the only
    # iterated coproducts are the five-fold ones of the antipode
    H = build_bosonization(z22_lambda_datum())
    calls = []
    orig = deformation._iterated_comult

    def counted(H, i, legs):
        calls.append((i, legs))
        return orig(H, i, legs)

    monkeypatch.setattr(deformation, "_iterated_comult", counted)
    H2 = deform_hopf(H, trivial_sigma(H))
    assert H2.mult == H.mult
    assert H.dim == 16
    assert sorted(calls) == [(i, 5) for i in range(16)]


def test_group_cocycle_table_and_inverse():
    A, s = group_setup()
    H = A.hopf
    # every value is +-1, so the convolution inverse must equal the table
    assert s.inverse == s.table
    minus = CycloNumber.from_rational(-1, H.L).raw()
    i = H.index[((), (1, 0))]
    j = H.index[((), (0, 1))]
    assert s.value(i, j) != s.value(j, i)
    assert s.value(i, j) == minus


def test_group_sigma_names_the_conductor_it_needs():
    # the nontrivial class on Z2 x Z2 takes the value i, at conductor 4,
    # while the bosonization lives at conductor 2
    d = z22_lambda_datum()
    H = build_bosonization(d)
    psi = enumerate_classes(Subgroup.full(d.group))[-1]
    assert max(v.L for v in psi.table.values()) == 4
    with pytest.raises(ValidationError, match="rebase H to conductor 4"):
        group_sigma(H, psi)
    assert group_sigma(H.rebased(4), psi).validate().ok


def test_deform_hopf_of_cocommutative_is_unchanged():
    A, s = group_setup()
    H2 = deform_hopf(A.hopf, s)
    assert H2.mult == A.hopf.mult
    assert H2.antipode == A.hopf.antipode


def test_corrupted_table_is_rejected():
    A, s = group_setup()
    H = A.hopf
    bad = dict(s.table)
    i = H.index[((), (1, 0))]
    j = H.index[((), (0, 1))]
    nums, den = bad[(i, j)]
    bad[(i, j)] = (tuple(-n for n in nums), den)
    with pytest.raises(CocycleInvalid):
        HopfCocycle(H, bad)


def test_deformed_regular_algebra_is_twisted_group_algebra():
    A, s = group_setup()
    D = deform_comodule_algebra(A, s)
    M = build_A(twisted_mcd())
    assert D.labels == M.labels
    assert D.mult == M.mult
    assert D.coaction == M.coaction
    # the coacting Hopf algebra itself stays untouched
    assert D.hopf.mult == A.hopf.mult


def test_sigma_bigalois_cotensor_matches_direct_deformation():
    A, s = group_setup()
    B = sigma_bigalois(A.hopf, s)
    M = build_A(twisted_mcd())
    assert B.algebra.mult == M.mult
    assert B.left_galois_bijective()
    assert B.right_galois_bijective()
    T = cotensor(B, A)
    D = deform_comodule_algebra(A, s)
    assert T.labels == D.labels
    assert T.mult == D.mult
    assert T.coaction == D.coaction
    assert T.hopf.mult == D.hopf.mult


def test_root_lifting_bigalois_object():
    B = build_bigalois(LiftingDatum(z4_mu_datum(), mu=[1]))
    alg = B.algebra
    assert alg.dim == 8
    v = alg.index[((1,), (0,))]
    minus = CycloNumber.from_rational(-1, alg.L).raw()
    assert alg.mult[(v, v)] == {alg.index[((0,), (2,))]: minus}
    assert B.left_galois_bijective()
    assert B.right_galois_bijective()


def test_transport_of_root_lifting_changes_block_data():
    B = build_bigalois(LiftingDatum(z4_mu_datum(), mu=[1]))
    A = regular_coaction(B.right_hopf)
    src = simple_modules(A)
    assert src.radical_dim == 2
    assert src.block_data == (1, 1, 4)
    T, rep = transport(B, A)
    assert T.dim == 8
    dst = simple_modules(T)
    assert dst.radical_dim == 0
    assert dst.block_data == (4, 4)
    failed = rep.checks_failed()
    assert "dimension-preserved" not in failed
    assert "radical-dimension-preserved" in failed
    assert "block-data-preserved" in failed


def test_transport_reports_each_changed_invariant_once_in_order():
    """The failures of the root-lifting transport, their order and their
    (before, after) witnesses."""
    B = build_bigalois(LiftingDatum(z4_mu_datum(), mu=[1]))
    _, rep = transport(B, regular_coaction(B.right_hopf))
    assert rep.failures == [
        ("radical-dimension-preserved", (2, 0)),
        ("block-data-preserved", ((1, 1, 4), (4, 4))),
    ]


def test_transport_along_trivial_lifting_preserves_blocks():
    B = build_bigalois(LiftingDatum(z4_mu_datum()))
    A = regular_coaction(B.right_hopf)
    T, rep = transport(B, A)
    assert T.dim == 8
    assert rep.ok


def test_transport_compares_coinvariants_with_the_source():
    # every element of a trivially coacted algebra is coinvariant, so
    # dim A^co = 2 here and an equal dim on the image is no failure
    B = build_bigalois(LiftingDatum(sweedler_datum()))
    A = trivial_coaction(B.right_hopf, group_hopf(AbelianGroup((2,))))
    T, rep = transport(B, A)
    assert coinvariants(T).dim == 2
    assert rep.ok, rep.failures


def test_cotensor_against_left_coacting_side():
    B = build_bigalois(LiftingDatum(z4_mu_datum(), mu=[1]))
    A = regular_coaction(B.left_hopf)
    T = cotensor(B, A)
    assert T.dim == 8
    want = simple_modules(B.algebra).block_data
    assert simple_modules(T).block_data == want


@pytest.mark.parametrize("side, failed", [("B", "bigalois-associativity"),
                                          ("A", "associativity")])
def test_cotensor_rests_on_proofs_of_both_factors(monkeypatch, side, failed):
    """The table comes from the letters only in an associative B tensor A,
    so a factor whose sweep fails fails the cotensor, after T's sweep.
    B cotensor H has B's tables, so B's case goes through B^-1 and U."""
    B = build_bigalois(LiftingDatum(z4_mu_datum(), mu=[1]))
    A = regular_coaction(B.left_hopf if side == "B" else B.right_hopf)
    broken = {"B": B.algebra, "A": A}[side]
    plain = FiniteAlgebra.verify_algebra

    def sweep(alg):
        rep = plain(alg)
        if alg is broken:
            rep.fail("associativity", (alg.labels[0],) * 3)
            rep.proven.clear()
        return rep

    monkeypatch.setattr(FiniteAlgebra, "verify_algebra", sweep)
    with pytest.raises(IsoCheckFailed) as caught:
        cotensor(B, A)
    assert str(caught.value) == f"cotensor factors fail verification: ['{failed}']"


def test_cotensor_rejects_unrelated_comodule():
    B = build_bigalois(LiftingDatum(z4_mu_datum(), mu=[1]))
    A = regular_coaction(build_bosonization(sweedler_datum()))
    with pytest.raises(ValidationError):
        cotensor(B, A)


def test_linking_lifting_bigalois_and_transport():
    B = build_bigalois(LiftingDatum(z22_lambda_datum(), lam={(0, 1): 1}))
    assert B.algebra.dim == 16
    assert B.left_galois_bijective()
    assert B.right_galois_bijective()
    A = regular_coaction(B.right_hopf)
    src = simple_modules(A)
    assert src.radical_dim == 6
    assert src.block_data == (1, 1, 4, 4)
    T, rep = transport(B, A)
    assert T.dim == 16
    dst = simple_modules(T)
    assert dst.radical_dim == 0
    assert dst.block_data == (4, 4, 4, 4)
    assert "block-data-preserved" in rep.checks_failed()


def test_coideal_twist_of_full_group_algebra():
    G = AbelianGroup((2, 2))
    H = group_hopf(G)
    psi = Cocycle2.from_exponents(G, {(0, 1): 1})
    K = coideal_twist(H, [H.basis(i) for i in range(H.dim)],
                      group_sigma(H, psi))
    assert K.dim == 4
    assert K.verify().ok
    by_exps = {f.exps: f for f in psi.carrier}
    idx = {lab: i for i, lab in enumerate(H.labels)}
    for i, (_, ei) in enumerate(H.labels):
        for j, (_, ej) in enumerate(H.labels):
            prod = (G.element(ei) * G.element(ej)).exps
            want = {idx[((), prod)]: psi(by_exps[ei], by_exps[ej]).rebase(H.L).raw()}
            assert K.mult.get((i, j)) == want


def test_coideal_twist_flips_a_group_like_square():
    U = build_bosonization(z22_lambda_datum())
    idx = {lab: i for i, lab in enumerate(U.labels)}
    rows = [U.basis(idx[((0, 0), (0, 0))]), U.basis(idx[((0, 0), (1, 1))])]
    psi = Cocycle2.from_exponents(AbelianGroup((2, 2)), {(0, 1): 1})
    K = coideal_twist(U, rows, group_sigma(U, psi))
    plain = coideal_twist(U, rows, trivial_sigma(U))
    assert K.dim == plain.dim == 2
    assert K.unit == plain.unit == {0: CycloNumber.from_rational(1, U.L).raw()}
    minus = CycloNumber.from_rational(-1, U.L).raw()
    assert plain.mult[(1, 1)] == dict(plain.unit)
    assert K.mult[(1, 1)] == {0: minus}
    assert K.coaction == plain.coaction


def test_coideal_twist_trivial_sigma_restricts_the_plain_product():
    U = build_bosonization(z22_lambda_datum())
    idx = {lab: i for i, lab in enumerate(U.labels)}
    mono = [idx[((0, 0), (0, 0))], idx[((0, 0), (1, 0))],
            idx[((1, 0), (0, 0))], idx[((1, 0), (1, 0))]]
    K = coideal_twist(U, [U.basis(i) for i in mono], trivial_sigma(U))
    assert K.verify().ok
    for a in range(4):
        for b in range(4):
            want = U.multiply(U.basis(mono[a]), U.basis(mono[b]))
            want = {mono.index(t): c for t, c in want.items()}
            assert K.mult.get((a, b), {}) == want


def test_coideal_twist_rejects_a_non_coideal_span():
    U = build_bosonization(z22_lambda_datum())
    idx = {lab: i for i, lab in enumerate(U.labels)}
    cross = {idx[((1, 0), (0, 0))]: pone(U.L), idx[((0, 1), (0, 0))]: pone(U.L)}
    with pytest.raises(ValidationError):
        coideal_twist(U, [U.basis(idx[((0, 0), (0, 0))]), cross],
                      trivial_sigma(U))


def test_coideal_twist_guards_closure_of_the_span():
    U = build_bosonization(z22_lambda_datum())
    idx = {lab: i for i, lab in enumerate(U.labels)}
    unit_i = idx[((0, 0), (0, 0))]
    x0_i = idx[((1, 0), (0, 0))]
    table = dict(trivial_sigma(U).table)
    table[(unit_i, x0_i)] = pone(U.L)
    broken = HopfCocycle(U, table, check=False)
    with pytest.raises(NotClosed):
        coideal_twist(U, [U.basis(unit_i), U.basis(x0_i)], broken)


@pytest.mark.parametrize("tag", [(0,), (1,)])
def test_deforming_back_by_the_inverse_cocycle_gives_back_h(tag):
    """(H^sigma)^(sigma^-1) = H (Doi 1993) for both cocycle classes on
    Z2 x Z2, with sigma^-1 made from the pointwise inverse group cocycle
    on H^sigma."""
    d = z22_lambda_datum()
    H = build_bosonization(d).rebased(4)
    psi = {c.class_tag(): c for c in enumerate_classes(Subgroup.full(d.group))}[tag]
    psi_inv = Cocycle2(psi.carrier, {k: v.inv() for k, v in psi.table.items()})
    Hs = deform_hopf(H, group_sigma(H, psi))
    assert Hs.verify().ok
    assert Hs.same_tables(H) == (tag == (0,))
    assert deform_hopf(Hs, group_sigma(Hs, psi_inv)).same_tables(H)


def _inverse_fixtures():
    A, s = group_setup()
    return {
        "root_z4": build_bigalois(LiftingDatum(z4_mu_datum(), mu=[1])),
        "link_z22": build_bigalois(LiftingDatum(z22_lambda_datum(),
                                                lam={(0, 1): 1})),
        "trivial_sweedler": build_bigalois(LiftingDatum(sweedler_datum())),
        "sigma_z22": sigma_bigalois(A.hopf, s),
    }


INVERSE_FIXTURES = _inverse_fixtures()


@pytest.mark.parametrize("name", sorted(INVERSE_FIXTURES))
def test_inverse_object_is_bigalois_with_the_sides_exchanged(name):
    B = INVERSE_FIXTURES[name]
    Binv = B.inverse()
    assert Binv.verify().ok
    assert Binv.left_hopf is B.right_hopf
    assert Binv.right_hopf is B.left_hopf
    assert Binv.left_galois_bijective()


@pytest.mark.parametrize("name", sorted(INVERSE_FIXTURES))
def test_inverting_twice_gives_back_the_object(name):
    B = INVERSE_FIXTURES[name]
    back = B.inverse().inverse()
    assert back.algebra.same_tables(B.algebra)
    assert back.left_coaction == B.left_coaction
    assert back.right_coaction == B.right_coaction
    assert back.counit_functional == B.counit_functional
