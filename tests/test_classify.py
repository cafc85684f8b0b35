"""Datum enumeration, dedupe keys, the table, and the Clifford cross-check."""

import functools

import pytest

from qlsmodcat import comodule
from qlsmodcat.classify import (
    classification_report,
    coordinate_subspaces,
    datum_key,
    dedupe,
    enumerate_modcat_data,
    exterior_clifford_check,
    free_scalar_positions,
)
from qlsmodcat.cocycles import Cocycle2
from qlsmodcat.comodule import ModCatDatum, build_A, coinvariants
from qlsmodcat.cyclo import CycloNumber
from qlsmodcat.errors import NotExteriorDatum, SizeBound, ValidationError
from qlsmodcat.groups import AbelianGroup, Character, Subgroup
from qlsmodcat.hopf import (CheckReport, FiniteHopf, QlsDatum,
                            build_bosonization)
from qls_fixtures import (
    clifford_z2_datum,
    clifford_z22_datum,
    sweedler_datum,
    z4_mu_datum,
    z22_lambda_datum,
)


def z22_group_datum():
    G = AbelianGroup((2, 2))
    return QlsDatum(G, [], [])


def bench_classify_data():
    """Sweedler and the three data of bench ``classify``: Z3 with
    q = zeta_3, Z4 with two generators and q = -1, and Z2 x Z2 with two
    generators."""
    G = AbelianGroup((3,))
    z3 = QlsDatum(G, [G.element((1,))], [Character(G, (1,))])
    G = AbelianGroup((4,))
    z4t2 = QlsDatum(G, [G.element((1,))] * 2, [Character(G, (2,))] * 2)
    return {"sweedler": sweedler_datum(), "z3": z3, "z4t2": z4t2,
            "z22t2": z22_lambda_datum()}


@functools.cache
def sampled_members():
    """The algebra of every datum ``enumerate_modcat_data`` yields at the
    sample 0, 1 over the data of bench ``classify``."""
    data = bench_classify_data()
    out = []
    for datum in (data["z3"], data["z4t2"], data["z22t2"]):
        U = build_bosonization(datum)
        proofs = CheckReport("proofs")
        out += [build_A(mcd, U, proofs)
                for mcd in enumerate_modcat_data(datum, (0, 1))]
    return out


def test_every_sampled_member_is_simple_with_trivial_coinvariants():
    """Each member, not only the one each row reports on, gives an
    indecomposable module category: A is right H-simple, certified by
    its leading columns, and its coinvariants are the scalars."""
    members = sampled_members()
    assert len(members) == 98
    for A in members:
        gens = comodule._operator_generators(A)
        assert comodule._leading_columns(A, gens) == A.dim ** 2
        assert coinvariants(A).dim == 1


def as_int(c: CycloNumber) -> int:
    nums, den = c.raw()
    assert den == 1 and all(n == 0 for n in nums[1:])
    return nums[0]


def test_coordinate_subspaces_order():
    d = clifford_z2_datum()
    ws = coordinate_subspaces(d)
    assert ws == [
        {},
        {(1,): [[1, 0]]},
        {(1,): [[0, 1]]},
        {(1,): [[1, 0], [0, 1]]},
    ]


def test_sweedler_enumeration_matches_hand_count():
    # hand enumeration: two subgroups, one cocycle class each, W in
    # {0, V}, and the power scalar is unconstrained whenever W = V
    data = enumerate_modcat_data(sweedler_datum())
    assert len(data) == 6
    shapes = [(m.F.order, m.n_letters, [as_int(x) for x in m.xi])
              for m in data]
    assert shapes == [
        (1, 0, []),
        (1, 1, [0]),
        (1, 1, [1]),
        (2, 0, []),
        (2, 1, [0]),
        (2, 1, [1]),
    ]
    for m in data:
        assert m.validate().ok


def test_zero_subspace_slice_is_one_datum_per_subgroup_class():
    data = enumerate_modcat_data(z22_group_datum())
    assert all(m.n_letters == 0 for m in data)
    keys = [(m.F.key(), m.psi_norm.class_tag()) for m in data]
    assert len(set(keys)) == len(data) == 6


def test_enumeration_is_deterministic():
    a = [datum_key(m) for m in enumerate_modcat_data(sweedler_datum())]
    b = [datum_key(m) for m in enumerate_modcat_data(sweedler_datum())]
    assert a == b


def test_size_bound():
    G = AbelianGroup((2,) * 9)
    with pytest.raises(SizeBound):
        enumerate_modcat_data(QlsDatum(G, [], []))


def test_free_positions_follow_the_cocycle_class():
    # both generators graded by distinct elements whose product (1,1)
    # pairs nontrivially with the nontrivial beta, so the link scalar is
    # free exactly for the trivial class
    d = z22_lambda_datum()
    F = Subgroup.full(d.group)
    w = {(1, 0): [[1]], (0, 1): [[1]]}
    triv = ModCatDatum(d, F, Cocycle2.trivial(F), w=w)
    assert free_scalar_positions(triv) == ([0, 1], [(0, 1)])
    psi = Cocycle2.from_exponents(F, {(0, 1): 1})
    skew = ModCatDatum(d, F, psi, w=w)
    assert free_scalar_positions(skew) == ([0, 1], [])
    # a cohomologous representative must give the same answer
    minus = CycloNumber.from_rational(-1, 1)
    one = CycloNumber.one(1)
    mu = {f: (minus if f.exps == (1, 0) else one) for f in F}
    skew2 = ModCatDatum(d, F, psi.coboundary_twist(mu), w=w)
    assert free_scalar_positions(skew2) == ([0, 1], [])


def test_dedupe_drops_repeats_and_coboundaries():
    d = z22_group_datum()
    F = Subgroup.full(d.group)
    psi = Cocycle2.from_exponents(F, {(0, 1): 1})
    minus = CycloNumber.from_rational(-1, 1)
    one = CycloNumber.one(1)
    mu = {f: (minus if f.exps == (1, 0) else one) for f in F}
    m1 = ModCatDatum(d, F, psi)
    m2 = ModCatDatum(d, F, psi.coboundary_twist(mu))
    assert m1.psi_norm.table != m2.psi_norm.table
    assert dedupe([m1, m1]) == [m1]
    assert dedupe([m1, m2]) == [m1]
    assert len(dedupe([m1, m2], strict=True)) == 2


def test_dedupe_keeps_distinct_scalars_and_rejects_mixed_bases():
    data = enumerate_modcat_data(sweedler_datum())
    assert len(dedupe(data)) == 6
    with pytest.raises(ValidationError):
        dedupe([data[0], ModCatDatum(z22_group_datum(),
                                     Subgroup.trivial(AbelianGroup((2, 2))),
                                     Cocycle2.trivial(
                                         Subgroup.trivial(AbelianGroup((2, 2)))))])


@pytest.mark.parametrize("name", sorted(bench_classify_data()))
def test_enumerated_data_dedupe_to_themselves(name):
    """The sweep yields one datum per (F, psi class, W, scalar choice),
    so no two share a dedupe key, and ``classify`` prints the number of
    data as its representatives."""
    data = enumerate_modcat_data(bench_classify_data()[name], (0, 1))
    assert dedupe(data) == data


def test_classify_rebases_the_bosonization_once_per_conductor(monkeypatch):
    """The Z2 x Z2 rows sit at conductors 2 and 4: the bosonization, built
    at 2, is rebased to 4 once, not once per row at 4."""
    rebases = []
    plain = FiniteHopf.rebased

    def counted(self, M):
        if M != self.L:
            rebases.append(M)
        return plain(self, M)

    monkeypatch.setattr(FiniteHopf, "rebased", counted)
    rep = classification_report(z22_lambda_datum(), (0, 1))
    assert rep.totals["rows"] == 24
    assert rebases == [4]


def test_sweedler_report():
    rep = classification_report(sweedler_datum())
    assert rep.totals == {"rows": 4, "data": 6, "free_parameters": 2}
    assert [r.count for r in rep.rows] == [1, 2, 1, 2]
    assert [r.free_parameters for r in rep.rows] == [0, 1, 0, 1]
    assert [r.dim for r in rep.rows] == [1, 2, 2, 4]
    text = rep.to_text()
    assert text.splitlines()[0].startswith("F")
    assert "total: 4 rows, 6 data" in text


def test_group_only_report_pins_the_matrix_block():
    rep = classification_report(z22_group_datum())
    assert rep.totals["data"] == 6
    assert all(r.w_label == "0" for r in rep.rows)
    last = rep.rows[-1]
    assert last.subgroup == "Z2x2"
    assert last.psi_tag == (1,)
    assert last.dim == 4
    assert last.verdict == "split-simple"
    assert last.blocks == (4,)
    assert last.radical_dim == 0


def test_clifford_free_parameters_count_symmetric_forms():
    # the root scalars give the diagonal of a symmetric form on W and the
    # link scalars the off-diagonal part, so each row must have
    # k(k+1)/2 free positions for a k-dimensional W
    rep = classification_report(clifford_z2_datum())
    assert len(rep.rows) == 8
    for row in rep.rows:
        k = 0 if row.w_label == "0" else row.w_label.count("x")
        assert row.free_parameters == k * (k + 1) // 2


def test_registered_general_subspace():
    d = clifford_z2_datum()
    extra = {(1,): [[1, 1]]}
    plain = enumerate_modcat_data(d)
    more = enumerate_modcat_data(d, extra_w=[extra])
    # one new W times two subgroups times two power scalar values
    assert len(more) == len(plain) + 4
    assert len(dedupe(more)) == len(more)
    rep = classification_report(d, extra_w=[extra])
    flagged = [r for r in rep.rows if r.general]
    assert len(flagged) == 2
    assert all(r.w_label == "{w0}" for r in flagged)
    with pytest.raises(ValidationError):
        enumerate_modcat_data(d, extra_w=[{(1,): [[1, 0, 0]]}])


@pytest.mark.parametrize("w, message", [
    ({(0,): [[1]]}, "component (0,) carries no generators"),
    ({(1,): [[1, 0, 0]]}, "row length does not match the component dimension"),
])
def test_a_bad_extra_subspace_fails_as_the_datum_does(w, message):
    d = clifford_z2_datum()
    F = Subgroup.trivial(d.group)
    with pytest.raises(ValidationError) as from_datum:
        ModCatDatum(d, F, Cocycle2.trivial(F), w=w)
    with pytest.raises(ValidationError) as from_sweep:
        enumerate_modcat_data(d, extra_w=[w])
    assert str(from_datum.value) == str(from_sweep.value) == message


def test_report_determinism():
    a = classification_report(clifford_z2_datum())
    b = classification_report(clifford_z2_datum())
    assert a.as_dict() == b.as_dict()
    assert a.to_text() == b.to_text()


def clifford_mcd(datum, xi, alpha):
    F = Subgroup.trivial(datum.group)
    w = {datum.g[0].exps: [[1, 0], [0, 1]]}
    al = {(0, 1): alpha} if alpha else None
    return ModCatDatum(datum, F, Cocycle2.trivial(F), w=w, xi=list(xi),
                       alpha=al)


def test_exterior_check_across_scalar_choices():
    d = clifford_z2_datum()
    for xi, alpha in [((0, 0), 0), ((1, 1), 0), ((1, 1), 2), ((0, 1), 1)]:
        rep = exterior_clifford_check(d, clifford_mcd(d, xi, alpha))
        assert rep.ok


def test_exterior_check_with_subgroup_and_cocycle():
    d = clifford_z22_datum()
    F = Subgroup.full(d.group)
    psi = Cocycle2.from_exponents(F, {(0, 1): 1})
    w = {d.g[0].exps: [[1, 0], [0, 1]]}
    mcd = ModCatDatum(d, F, psi, w=w, xi=[1, 1], alpha={(0, 1): 2})
    assert exterior_clifford_check(d, mcd).ok


def test_exterior_check_rejects_wrong_shapes():
    d = z4_mu_datum()
    F = Subgroup.trivial(d.group)
    mcd = ModCatDatum(d, F, Cocycle2.trivial(F), w={(1,): [[1]]})
    with pytest.raises(NotExteriorDatum):
        exterior_clifford_check(d, mcd)
    d2 = z22_lambda_datum()
    F2 = Subgroup.trivial(d2.group)
    mcd2 = ModCatDatum(d2, F2, Cocycle2.trivial(F2),
                       w={(1, 0): [[1]], (0, 1): [[1]]})
    with pytest.raises(NotExteriorDatum):
        exterior_clifford_check(d2, mcd2)
    with pytest.raises(ValidationError):
        exterior_clifford_check(sweedler_datum(), mcd)
