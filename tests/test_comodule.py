"""Comodule algebra construction, filtration and structure reports."""

from fractions import Fraction
from itertools import product

import pytest

from qlsmodcat import linalg
from qlsmodcat.cocycles import Cocycle2
from qlsmodcat.comodule import (
    ComoduleAlgebra,
    ModCatDatum,
    build_A,
    build_K,
    check_simplicity,
    coinvariants,
    galois_map,
    loewy_filtration,
    simple_modules,
    trivial_coaction,
    verify_loewy,
)
from qlsmodcat.cyclo import CycloNumber
from qlsmodcat.deformation import LiftingDatum, build_lifting
from qlsmodcat.errors import (
    HypothesisViolated,
    IsoCheckFailed,
    ValidationError,
)
from qlsmodcat.groups import AbelianGroup, Character, Subgroup
from qlsmodcat.hopf import FiniteAlgebra, QlsDatum, build_bosonization, group_hopf
from closed_forms import graded_model_mult
from criterion_checks import associated_graded, check_degree_one_generation
from qls_fixtures import (
    clifford_z2_datum,
    sweedler_datum,
    z4_mu_datum,
    z22_lambda_datum,
)


def one(L):
    return linalg.pone(L)


def as_fraction(pair, L):
    nums, den = pair
    assert all(n == 0 for n in nums[1:])
    return Fraction(nums[0], den)


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)]


def kpsi_m2():
    """The group algebra of Z2 x Z2 twisted into a matrix algebra."""
    G = AbelianGroup((2, 2))
    datum = QlsDatum(G, [], [])
    F = Subgroup.full(G)
    psi = Cocycle2.from_exponents(F, {(0, 1): 1})
    return ModCatDatum(datum, F, psi)


def kpsi_plain():
    G = AbelianGroup((2, 2))
    datum = QlsDatum(G, [], [])
    F = Subgroup.full(G)
    return ModCatDatum(datum, F, Cocycle2.trivial(F))


def sweedler_mcd(full_group=True, xi=0):
    d = sweedler_datum()
    F = Subgroup.full(d.group) if full_group else Subgroup.trivial(d.group)
    return ModCatDatum(d, F, Cocycle2.trivial(F), w={(1,): [[1]]}, xi=[xi])


def clifford_mcd(xi=(1, 1), alpha=2):
    d = clifford_z2_datum()
    F = Subgroup.trivial(d.group)
    return ModCatDatum(d, F, Cocycle2.trivial(F),
                       w={(1,): [[1, 0], [0, 1]]}, xi=list(xi),
                       alpha={(0, 1): alpha})


# The twisted group algebra has an explicit 2 x 2 matrix model: the two
# standard generators go to sigma_x and sigma_z, their product to
# sigma_z . sigma_x, and every structure constant must match.

PAULI = {
    (0, 0): [[1, 0], [0, 1]],
    (1, 0): [[0, 1], [1, 0]],
    (0, 1): [[1, 0], [0, -1]],
    (1, 1): [[0, 1], [-1, 0]],
}


def test_twisted_group_algebra_matches_matrix_model():
    mcd = kpsi_m2()
    F = mcd.F
    assert F.gens == (F.group.element((1, 0)), F.group.element((0, 1)))
    assert mcd.psi.beta(F.gens[0], F.gens[1]) == -CycloNumber.one(1)
    A = build_A(mcd)
    assert A.dim == 4
    for (ia, la), (ib, lb) in product(enumerate(A.labels), repeat=2):
        cell = A.mult[(ia, ib)]
        assert len(cell) == 1
        ((ik, coef),) = cell.items()
        fab = tuple((x + y) % 2 for x, y in zip(la[1], lb[1]))
        assert A.labels[ik] == ((), fab)
        c = as_fraction(coef, A.L)
        got = matmul(PAULI[la[1]], PAULI[lb[1]])
        want = [[c * e for e in row] for row in PAULI[fab]]
        assert got == want


def test_build_A_and_build_K_agree_without_scalars():
    for mcd in (kpsi_m2(), sweedler_mcd(), clifford_mcd(xi=(0, 0), alpha=0)):
        A = build_A(mcd)
        K = build_K(mcd)
        assert A.mult == K.mult == graded_model_mult(mcd)
        assert A.labels == K.labels and A.unit == K.unit
        assert A.coaction == K.coaction


def test_clifford_relations_pinned():
    mcd = clifford_mcd()
    A = build_A(mcd)
    assert A.dim == 4
    idx = A.index
    ident = (0,)
    u1 = idx[((0, 0), ident)]
    w1 = idx[((1, 0), ident)]
    w2 = idx[((0, 1), ident)]
    w12 = idx[((1, 1), ident)]
    assert A.mult[(w1, w1)] == {u1: one(A.L)}
    assert A.mult[(w2, w2)] == {u1: one(A.L)}
    two = CycloNumber.from_rational(2, A.L).raw()
    minus = CycloNumber.from_rational(-1, A.L).raw()
    assert A.mult[(w2, w1)] == {w12: minus, u1: two}
    assert A.mult[(w1, w2)] == {w12: one(A.L)}


def test_sweedler_modcat_full_group_is_the_bosonization():
    A = build_A(sweedler_mcd(full_group=True, xi=0))
    H = build_bosonization(sweedler_datum())
    assert A.labels == H.labels
    assert A.mult == H.mult
    lam = A.coaction[A.index[((1,), (0,))]]
    x = H.index[((1,), (0,))]
    u = H.index[((0,), (1,))]
    assert lam == {(x, A.index[((0,), (0,))]): one(A.L),
                   (u, A.index[((1,), (0,))]): one(A.L)}


def test_modcat_dim_and_label_order():
    mcd = clifford_mcd()
    assert mcd.dim() == 4
    A = build_A(mcd)
    assert [r for r, _ in A.labels] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert A.degree == [0, 1, 1, 2]


def test_row_not_eigenvector_reported():
    G = AbelianGroup((2, 2))
    g = G.element((1, 0))
    d = QlsDatum(G, [g, g], [Character(G, (1, 0)), Character(G, (1, 1))])
    F = Subgroup.full(G)
    mcd = ModCatDatum(d, F, Cocycle2.trivial(F), w={(1, 0): [[1, 1]]})
    rep = mcd.validate()
    assert not rep.ok
    assert "row-not-eigenvector" in rep.checks_failed()


def test_dependent_rows_reported():
    d = clifford_z2_datum()
    F = Subgroup.trivial(d.group)
    mcd = ModCatDatum(d, F, Cocycle2.trivial(F), w={(1,): [[1, 0], [2, 0]]})
    assert "rows-dependent" in mcd.validate().checks_failed()


def test_power_scalar_condition():
    G = AbelianGroup((4,))
    d = QlsDatum(G, [G.element((2,))], [Character(G, (1,))])
    F = Subgroup.full(G)
    mcd = ModCatDatum(d, F, Cocycle2.trivial(F), w={(2,): [[1]]}, xi=[1])
    assert "power-scalar-forced-zero" in mcd.validate().checks_failed()
    with pytest.raises(ValidationError):
        build_A(mcd)
    assert ModCatDatum(d, F, Cocycle2.trivial(F),
                       w={(2,): [[1]]}, xi=[0]).validate().ok


def test_link_scalar_condition():
    d = z22_lambda_datum()
    F = Subgroup.trivial(d.group)
    mcd = ModCatDatum(d, F, Cocycle2.trivial(F),
                      w={(0, 1): [[1]], (1, 0): [[1]]}, alpha={(0, 1): 1})
    assert "link-scalar-forced-zero" in mcd.validate().checks_failed()
    with pytest.raises(ValidationError):
        ModCatDatum(d, F, Cocycle2.trivial(F),
                    w={(0, 1): [[1]], (1, 0): [[1]]}, alpha={(1, 0): 1})


def test_component_without_generators_rejected():
    d = sweedler_datum()
    F = Subgroup.full(d.group)
    with pytest.raises(ValidationError):
        ModCatDatum(d, F, Cocycle2.trivial(F), w={(0,): [[1]]})


def test_loewy_filtration_dims():
    A = build_A(clifford_mcd())
    spaces = loewy_filtration(A)
    assert [sp.dim for sp in spaces] == [1, 3, 4]
    assert verify_loewy(A, spaces).ok
    B = build_A(sweedler_mcd(full_group=True, xi=1))
    assert [sp.dim for sp in loewy_filtration(B)] == [2, 4]
    assert verify_loewy(B).ok


def test_associated_graded_matches_model():
    for mcd in (clifford_mcd(), sweedler_mcd(full_group=True, xi=1)):
        A = build_A(mcd)
        gr = associated_graded(A)
        K = build_K(mcd)
        assert gr.labels == K.labels and gr.unit == K.unit
        assert gr.mult == K.mult == graded_model_mult(mcd)


def test_associated_graded_detects_tampering():
    A = build_A(clifford_mcd())
    idx = A.index
    w1 = idx[((1, 0), (0,))]
    w2 = idx[((0, 1), (0,))]
    w12 = idx[((1, 1), (0,))]
    mult = {k: dict(v) for k, v in A.mult.items()}
    mult[(w1, w2)][w12] = CycloNumber.from_rational(-1, A.L).raw()
    bad = ComoduleAlgebra(A.labels, A.L, mult, dict(A.unit), A.hopf,
                          A.coaction, degree=A.degree, mcd=A.mcd)
    with pytest.raises(IsoCheckFailed):
        associated_graded(bad)


def test_verify_catches_broken_coaction():
    A = build_A(sweedler_mcd(full_group=True, xi=0))
    x = A.index[((1,), (0,))]
    coaction = [dict(v) for v in A.coaction]
    coaction[x] = {k: v for k, v in coaction[x].items()
                   if k[1] != A.index[((1,), (0,))]}
    bad = ComoduleAlgebra(A.labels, A.L, A.mult, dict(A.unit), A.hopf,
                          coaction, degree=A.degree, mcd=A.mcd)
    rep = bad.verify()
    assert not rep.ok
    assert "coaction-counital" in rep.checks_failed()


def test_coinvariants_of_full_datum_are_scalars():
    for mcd in (kpsi_m2(), sweedler_mcd(full_group=True, xi=1),
                clifford_mcd()):
        A = build_A(mcd)
        sp = coinvariants(A)
        assert sp.dim == 1
        assert sp.contains(dict(A.unit))


def test_trivial_coaction_control():
    U = group_hopf(AbelianGroup((2, 2)))
    A = trivial_coaction(U)
    assert A.verify().ok
    assert coinvariants(A).dim == A.dim


def test_galois_map_bijective_exactly_for_full_data():
    for mcd in (kpsi_m2(), sweedler_mcd(full_group=True, xi=0),
                sweedler_mcd(full_group=True, xi=1)):
        assert galois_map(build_A(mcd)).bijective
    partial = build_A(sweedler_mcd(full_group=False, xi=1))
    rep = galois_map(partial)
    assert not rep.bijective
    assert rep.source_dim == 4 and rep.target_dim == 8


def xvec(U, label):
    return {U.index[label]: one(U.L)}


def test_generation_coordinate_subspace():
    d = clifford_z2_datum()
    U = build_bosonization(d)
    ident = (0,)
    comps = [
        [xvec(U, ((0, 0), ident))],
        [xvec(U, ((1, 0), ident)), xvec(U, ((0, 1), ident))],
        [xvec(U, ((1, 1), ident))],
    ]
    rep = check_degree_one_generation(d, comps, U)
    assert rep.ok
    assert rep.levels == [True, True, True]


def test_generation_diagonal_subspace():
    d = clifford_z2_datum()
    U = build_bosonization(d)
    ident = (0,)
    diag = {U.index[((1, 0), ident)]: one(U.L),
            U.index[((0, 1), ident)]: one(U.L)}
    comps = [[xvec(U, ((0, 0), ident))], [diag]]
    rep = check_degree_one_generation(d, comps, U)
    assert rep.ok


def test_generation_rejects_cross_component_diagonal():
    d = z22_lambda_datum()
    U = build_bosonization(d)
    ident = (0, 0)
    diag = {U.index[((1, 0), ident)]: one(U.L),
            U.index[((0, 1), ident)]: one(U.L)}
    comps = [[xvec(U, ((0, 0), ident))], [diag]]
    with pytest.raises(HypothesisViolated) as err:
        check_degree_one_generation(d, comps, U)
    assert err.value.which == "degree-one-not-subcomodule"


def test_generation_rejects_incompatible_coproduct():
    d = clifford_z2_datum()
    U = build_bosonization(d)
    ident = (0,)
    comps = [
        [xvec(U, ((0, 0), ident))],
        [xvec(U, ((1, 0), ident))],
        [xvec(U, ((1, 1), ident))],
    ]
    with pytest.raises(HypothesisViolated) as err:
        check_degree_one_generation(d, comps, U)
    assert err.value.which == "coproduct-compatibility"


def test_generation_reports_missing_top_degree():
    d = clifford_z2_datum()
    U = build_bosonization(d)
    ident = (0,)
    comps = [
        [xvec(U, ((0, 0), ident))],
        [xvec(U, ((1, 0), ident)), xvec(U, ((0, 1), ident))],
    ]
    rep = check_degree_one_generation(d, comps, U)
    assert rep.levels == [True, True]
    assert not rep.closure_ok
    assert not rep.ok


def test_simplicity_verdicts():
    simple = check_simplicity(build_A(kpsi_m2()))
    assert simple.verdict == "split-simple"
    assert simple.operator_dim == 16

    regular = check_simplicity(build_A(kpsi_plain()))
    assert regular.verdict == "split-simple"

    control = check_simplicity(trivial_coaction(group_hopf(AbelianGroup((2, 2)))))
    assert control.verdict == "reducible"
    assert 0 < control.witness.dim < 4

    plain = check_simplicity(group_hopf(AbelianGroup((4,))))
    assert plain.verdict == "reducible"


def test_a_proper_operator_span_is_reducible_over_the_closure():
    # Q(sqrt 2) = Q[y]/(y^2 - 2) has no proper ideal over Q, so no
    # K-rational witness exists; its right multiplications span only 2 of
    # End's 4 dimensions, and by Burnside's theorem that makes it
    # reducible over the closure, where it splits as k x k
    one, two = (CycloNumber.one(1) * n for n in (1, 2))
    A = FiniteAlgebra(["1", "y"], 1,
                      {(0, 0): {0: one.raw()}, (0, 1): {1: one.raw()},
                       (1, 0): {1: one.raw()}, (1, 1): {0: two.raw()}},
                      {0: one.raw()})
    assert A.verify_algebra().ok
    rep = check_simplicity(A)
    assert (rep.verdict, rep.operator_dim, rep.full_dim) == ("reducible", 2, 4)
    assert rep.witness is None
    assert simple_modules(A).module_dims() == [1, 1]


def test_simple_modules_of_group_algebras():
    rep = simple_modules(group_hopf(AbelianGroup((4,))))
    assert rep.radical_dim == 0
    assert rep.block_data == (1, 1, 1, 1)
    assert rep.module_dims() == [1, 1, 1, 1]

    rep = simple_modules(build_A(kpsi_m2()))
    assert rep.radical_dim == 0
    assert rep.block_data == (4,)
    assert rep.module_dims() == [2]


def test_simple_modules_of_sweedler_bosonization():
    rep = simple_modules(build_bosonization(sweedler_datum()))
    assert rep.radical_dim == 2
    assert rep.block_data == (1, 1)
    assert rep.module_dims() == [1, 1]


def test_simple_modules_of_mu_lifting():
    # x^2 = 1 - g^2 splits the algebra at the central idempotents
    # (1 +- g^2)/2 into a dim 4 piece with nilpotent x and a quaternion
    # piece that is a full matrix block because -1 is a square at L = 4
    H = build_lifting(LiftingDatum(z4_mu_datum(), mu=[1]))
    rep = simple_modules(H)
    assert rep.radical_dim == 2
    assert rep.block_data == (1, 1, 4)
    assert rep.module_dims() == [1, 1, 2]


def test_module_dims_of_the_hamilton_quaternions():
    # y0^2 = y1^2 = -1 and y0 y1 = -y1 y0 over Q: a division algebra of
    # dim 4 with centre Q, which is M_2 over the algebraic closure
    d = clifford_z2_datum()
    F = Subgroup.trivial(d.group)
    A = build_A(ModCatDatum(d, F, Cocycle2.trivial(F),
                            w={(1,): [[1, 0], [0, 1]]}, xi=[-1, -1]))
    rep = simple_modules(A)
    assert (A.L, rep.radical_dim) == (2, 0)
    assert rep.blocks == [{"block_dim": 4, "center_dim": 1}]
    assert rep.module_dims() == [2]


def test_module_dims_of_a_field_no_conductor_splits():
    # y^3 = 2 over Q(zeta3) gives the field Q(zeta3, 2^(1/3)); no
    # cyclotomic field contains 2^(1/3), and over the closure it is k^3
    G = AbelianGroup((3,))
    d = QlsDatum(G, [G.element((1,))], [Character(G, (1,))])
    F = Subgroup.trivial(G)
    A = build_A(ModCatDatum(d, F, Cocycle2.trivial(F), w={(1,): [[1]]}, xi=[2]))
    rep = simple_modules(A)
    assert (A.dim, rep.radical_dim) == (3, 0)
    assert rep.blocks == [{"block_dim": 3, "center_dim": 3}]
    assert rep.module_dims() == [1, 1, 1]


def test_build_is_deterministic():
    a1 = build_A(clifford_mcd())
    a2 = build_A(clifford_mcd())
    assert a1.same_tables(a2)
    assert a1.coaction == a2.coaction
    assert a1.labels == a2.labels
