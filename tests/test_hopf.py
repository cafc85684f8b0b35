"""Tables, axioms and q-arithmetic of the Hopf kernel builders."""

import pytest

from qlsmodcat.cyclo import CycloNumber, zeta
from qlsmodcat.errors import DimensionMismatch, SizeBound, ValidationError
from qlsmodcat.groups import AbelianGroup, Character, Subgroup
from qlsmodcat.hopf import (
    MAX_TABLE_DIM,
    FiniteHopf,
    QlsDatum,
    build_bosonization,
    group_hopf,
    monomial_labels,
    pair_multiply,
)

from qls_fixtures import (
    clifford_z2_datum,
    clifford_z22_datum,
    sweedler_datum,
    z4_datum,
    z4_mu_datum,
    z22_lambda_datum,
)


def expand_qbinom(l, k, q):
    """Oracle: expand (x+y)^l word by word under yx = q xy, read one slot.

    Words are tracked as exponent pairs (i, j) standing for x^i y^j; right
    multiplication by x walks it past j copies of y, one q each.
    """
    terms = {(0, 0): CycloNumber.one(q.L)}
    for _ in range(l):
        nxt = {}
        for (i, j), c in terms.items():
            for key, inc in (((i + 1, j), c * q ** j), ((i, j + 1), c)):
                cur = nxt.get(key)
                cur = inc if cur is None else cur + inc
                if cur.is_zero():
                    nxt.pop(key, None)
                else:
                    nxt[key] = cur
        terms = nxt
    return terms.get((l - k, k), CycloNumber.zero(q.L))


def gaussian_binomial(l, k, q):
    """Coefficient of x^(l-k) y^k in (x+y)^l subject to yx = q xy, by the
    q-Pascal rule."""
    row = [CycloNumber.one(q.L)]
    for m in range(1, l + 1):
        nxt = [row[0]]
        qpow = CycloNumber.one(q.L)
        for j in range(1, m + 1):
            qpow = qpow * q
            entry = row[j - 1]
            if j < m:
                entry = entry + qpow * row[j]
            nxt.append(entry)
        row = nxt
    return row[k]


def one_pair(L):
    return CycloNumber.one(L).raw()


def test_q_binomial_against_expansion_oracle():
    for L, e in ((4, 1), (2, 1), (8, 3), (3, 1)):
        q = zeta(L, e)
        for l in range(7):
            for k in range(l + 1):
                assert gaussian_binomial(l, k, q) == expand_qbinom(l, k, q)


def test_q_binomial_small_values():
    q = zeta(4, 1)
    one = CycloNumber.one(4)
    assert gaussian_binomial(3, 0, q) == one
    assert gaussian_binomial(3, 3, q) == one
    assert gaussian_binomial(2, 1, q) == one + q
    assert gaussian_binomial(3, 1, q) == one + q + q * q
    m1 = zeta(2, 1)
    assert gaussian_binomial(2, 1, m1).is_zero()
    # all inner columns vanish at a primitive 4th root, which is what
    # makes x^4 compatible with the coproduct
    for k in (1, 2, 3):
        assert gaussian_binomial(4, k, q).is_zero()


def test_the_table_dimension_ceiling_admits_itself():
    """Z32 with one letter of height 32 (the largest table built in the
    profile) is admitted; one more letter, or a subgroup twice as large,
    is a SizeBound before any label is enumerated."""
    G = AbelianGroup([32])
    assert len(monomial_labels([32], G)) == MAX_TABLE_DIM == 1024
    with pytest.raises(SizeBound, match="table dimension 2048 exceeds"):
        monomial_labels([32, 2], G)
    F = Subgroup.full(AbelianGroup([64]))
    with pytest.raises(SizeBound, match="table dimension 2048 exceeds"):
        monomial_labels([32], F)


def test_datum_valid_fixtures():
    for d in (sweedler_datum(), z4_datum(), clifford_z2_datum(),
              clifford_z22_datum(), z4_mu_datum(), z22_lambda_datum()):
        assert d.validate().ok
    d = sweedler_datum()
    assert d.N == [2]
    assert d.q[0] == zeta(2, 1)
    assert z4_datum().N == [4]


def test_datum_self_pairing_one_rejected():
    G = AbelianGroup((2,))
    d = QlsDatum(G, [G.element((1,))], [Character(G, (0,))])
    rep = d.validate()
    assert not rep.ok
    assert "self-pairing-one" in rep.checks_failed()
    with pytest.raises(ValidationError):
        d.require_valid()


def test_datum_pairing_not_inverse_rejected():
    G = AbelianGroup((4,))
    g = G.element((1,))
    d = QlsDatum(G, [g, g], [Character(G, (1,)), Character(G, (1,))])
    # chi1(g2) chi2(g1) = i * i = -1
    assert "pairing-not-inverse" in d.validate().checks_failed()


def test_datum_height_rule_rejected():
    G = AbelianGroup((4,))
    g = G.element((1,))
    d = QlsDatum(G, [g, g], [Character(G, (1,)), Character(G, (3,))])
    rep = d.validate()
    # the pairings multiply to one, but a two-dimensional component
    # needs both self-pairings equal to -1
    assert "pairing-not-inverse" not in rep.checks_failed()
    assert "height-not-two" in rep.checks_failed()


def test_datum_mixed_group_rejected():
    G = AbelianGroup((2,))
    H = AbelianGroup((4,))
    with pytest.raises(ValidationError):
        QlsDatum(G, [H.element((1,))], [Character(G, (1,))])
    with pytest.raises(ValidationError):
        QlsDatum(G, [G.element((1,))], [Character(H, (1,))])


def test_q_scalar_well_defined_and_ambiguous():
    d = clifford_z2_datum()
    u = d.group.element((1,))
    assert d.q_scalar(u, u) == zeta(2, 1)

    G = AbelianGroup((2, 2))
    g = G.element((1, 0))
    d2 = QlsDatum(G, [g, g], [Character(G, (1, 0)), Character(G, (1, 1))])
    assert d2.validate().ok
    with pytest.raises(ValidationError):
        d2.q_scalar(G.element((0, 1)), g)


def test_bosonization_dimensions():
    for d, n in ((sweedler_datum(), 4), (z4_datum(), 16),
                 (clifford_z2_datum(), 8), (clifford_z22_datum(), 16),
                 (z4_mu_datum(), 8), (z22_lambda_datum(), 16)):
        H = build_bosonization(d)
        assert H.dim == n == d.group.order * prod(d.N)


def prod(ns):
    out = 1
    for n in ns:
        out *= n
    return out


def test_bosonization_rejects_invalid_datum():
    G = AbelianGroup((2,))
    d = QlsDatum(G, [G.element((1,))], [Character(G, (0,))])
    with pytest.raises(ValidationError):
        build_bosonization(d)


def test_group_hopf_axioms():
    for orders in ((2,), (4,), (2, 2)):
        H = group_hopf(AbelianGroup(orders))
        assert H.dim == prod(orders)
        rep = H.verify()
        assert rep.ok, rep.failures[:3]
        assert H.degree == [0] * H.dim


def test_bosonization_axioms_all_fixtures():
    for d in (sweedler_datum(), z4_datum(), clifford_z2_datum(),
              clifford_z22_datum(), z4_mu_datum(), z22_lambda_datum()):
        H = build_bosonization(d)
        rep = H.verify()
        assert rep.ok, (d.group, rep.failures[:3])


def test_sweedler_tables_pinned():
    d = sweedler_datum()
    H = build_bosonization(d)
    assert H.labels == [((0,), (0,)), ((0,), (1,)), ((1,), (0,)), ((1,), (1,))]
    one = one_pair(2)
    x = H.basis(H.index[((1,), (0,))])
    g = H.basis(H.index[((0,), (1,))])
    assert H.multiply(x, x) == {}
    assert H.multiply(g, g) == H.unit
    # moving the group element past x picks up chi(g) = -1
    gx = H.multiply(g, x)
    xg_idx = H.index[((1,), (1,))]
    assert gx == {xg_idx: zeta(2, 1).raw()}
    assert H.comultiply(x) == {
        (H.index[((1,), (0,))], H.index[((0,), (0,))]): one,
        (H.index[((0,), (1,))], H.index[((1,), (0,))]): one,
    }
    # S(x) = -g x = x g in this normal form
    assert H.antipode[H.index[((1,), (0,))]] == {xg_idx: one}
    assert H.degree == [0, 0, 1, 1]


def test_sweedler_coproduct_square_cancels():
    H = build_bosonization(sweedler_datum())
    x = H.basis(H.index[((1,), (0,))])
    dx = H.comultiply(x)
    assert pair_multiply(H, H, dx, dx) == {}


def test_coproduct_matches_q_binomial_formula():
    d = z4_datum()
    H = build_bosonization(d)
    q = d.q[0]
    for l in range(1, 4):
        got = H.comultiply(H.basis(H.index[((l,), (0,))]))
        want = {}
        for k in range(l + 1):
            coef = gaussian_binomial(l, k, q)
            if coef.is_zero():
                continue
            left = H.index[((l - k,), (k % 4,))]
            right = H.index[((k,), (0,))]
            want[(left, right)] = coef.rebase(4).raw()
        assert got == want


def test_clifford_coproduct_of_product():
    d = clifford_z2_datum()
    H = build_bosonization(d)
    one = one_pair(2)
    x12 = H.index[((1, 1), (0,))]
    got = H.comultiply(H.basis(x12))
    assert got == {
        (x12, H.index[((0, 0), (0,))]): one,
        (H.index[((1, 0), (1,))], H.index[((0, 1), (0,))]): one,
        (H.index[((0, 1), (1,))], H.index[((1, 0), (0,))]): zeta(2, 1).raw(),
        (H.index[((0, 0), (0,))], x12): one,
    }


def test_clifford_generators_anticommute():
    H = build_bosonization(clifford_z2_datum())
    x1 = H.basis(H.index[((1, 0), (0,))])
    x2 = H.basis(H.index[((0, 1), (0,))])
    x12 = H.index[((1, 1), (0,))]
    assert H.multiply(x1, x2) == {x12: one_pair(2)}
    assert H.multiply(x2, x1) == {x12: zeta(2, 1).raw()}
    assert H.multiply(x1, x1) == {}


def test_degree_sorted_prefix_filtration():
    H = build_bosonization(clifford_z22_datum())
    assert H.degree == sorted(H.degree)
    assert [H.degree.count(n) for n in range(3)] == [4, 8, 4]
    assert H.graded


def test_dimension_mismatch_raised():
    H = build_bosonization(sweedler_datum())
    bad = {7: one_pair(2)}
    with pytest.raises(DimensionMismatch):
        H.multiply(bad, H.unit)
    with pytest.raises(DimensionMismatch):
        H.comultiply(bad)
    with pytest.raises(DimensionMismatch):
        H.basis(4)


def test_corrupted_coproduct_detected():
    H = build_bosonization(sweedler_datum())
    xi = H.index[((1,), (0,))]
    comult = [dict(c) for c in H.comult]
    comult[xi] = {(xi, H.index[((0,), (0,))]): one_pair(2)}
    broken = FiniteHopf(H.labels, H.L, H.mult, H.unit, comult, H.counit,
                        H.antipode, degree=H.degree, graded=True)
    rep = broken.verify()
    assert not rep.ok
    assert "counit-law" in rep.checks_failed()


def test_build_is_deterministic():
    a = build_bosonization(z4_mu_datum())
    b = build_bosonization(z4_mu_datum())
    assert a.same_tables(b)
    assert not a.same_tables(build_bosonization(sweedler_datum()))
