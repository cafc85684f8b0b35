"""The cheap simplicity, block and cocycle routes against the slow ones
they replace.

``check_simplicity`` spans the products R_a o S_u instead of closing the
generators under composition, and proves most spans full from the
products' leading columns instead of eliminating them;
``simple_modules`` reads each block off the trace of one idempotent of
a generator of the centre instead of
splitting corners along every central mix, and module dimensions come
from each block's dimension and centre instead of a random search for a
minimal left ideal.  A Hopf cocycle is checked by the algebra sweep of sigma H
instead of a loop over the cocycle identity, the deformed product is two
twists instead of a sum over triple coproducts, and the right Galois map
is decided on the inverse connecting object.  Associativity and the
multiplicativity of coactions and the counit are proven from a
generating set instead of on every basis triple and pair.  Polynomials
over Q(zeta_L) are factored in house instead of by sympy.  A product
table is composed from right multiplication by letters instead of
normalizing every pair of label words, and the bosonization and the
graded model come from that table instead of closed-form loops
(``closed_forms``).  The cotensor's table comes from |S| n letter
products in B tensor A instead of all n^2 (``all_pairs``), and a letter
product with a stray term must fail its closure check.  Its matching
equation is solved block by block instead of as one elimination
(``whole_kernel``).  The old routes
stay here as
oracles, three operation counts guard the cost on the dim-24 Z6 algebra
of the pipeline benchmark, and a fourth guards the factoring of
``simple_modules`` on every ``PAIRS`` fixture.  Further counts guard the
normalizations of a table and the letter chains of ``extend_letters``,
and two broken presentations must still fail their sweeps.  The
associativity sweep, which walks only a table's nonzero cells, must find
the triples a product of every basis triple finds, on random tables and
on one-cell corruptions of the fixtures.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qlsmodcat import (_kernel as kernel, classify, comodule, deformation, hopf, linalg,
                       polyfactor, serialize)
from qlsmodcat._kernel import add as padd, is_zero as pis0, mul as pmul
from qlsmodcat.classify import classification_report
from qlsmodcat.cli import main
from qlsmodcat.cocycles import Cocycle2, enumerate_classes
from qlsmodcat.comodule import (
    ComoduleRules,
    ModCatDatum,
    build_A,
    build_K,
    check_simplicity,
    regular_coaction,
    simple_modules,
    trivial_coaction,
)
from qlsmodcat.cyclo import CycloNumber, context, zeta
from qlsmodcat.errors import NotClosed
from qlsmodcat.deformation import (
    BiGaloisRep,
    HopfCocycle,
    LiftingDatum,
    build_bigalois,
    build_lifting,
    cotensor,
    deform_hopf,
    group_sigma,
    sigma_bigalois,
)
from qlsmodcat.groups import AbelianGroup, Character, Subgroup
from qlsmodcat.hopf import (
    CheckReport,
    FiniteAlgebra,
    FiniteHopf,
    QlsDatum,
    build_bosonization,
    group_hopf,
)
from qlsmodcat.linalg import accumulate, pone, vec_addmul
from qlsmodcat.rewrite import LiftingRules, NormalFormEngine

from all_pairs import all_pairs_cotensor
from closed_forms import bosonization_mult, graded_model_mult
from qls_fixtures import (
    clifford_z2_datum,
    clifford_z22_datum,
    sweedler_datum,
    trivial_sigma,
    z4_datum,
    z4_mu_datum,
    z6_modcat,
    z22_lambda_datum,
)
from test_acceptance import full_mcd
from test_classify import sampled_members
from test_polyfactor import same_factors, squarefree
from whole_kernel import whole_left_kernel

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "pipebench"))
import workloads  # noqa: E402


def closure_span(A, gens):
    """Close the identity and the generators under composition."""
    nA = A.dim
    sp = linalg.Subspace(A.L)
    queue = []
    for rows in [[A.basis(i) for i in range(nA)]] + gens:
        if sp.insert(comodule._flat_op(rows, nA)):
            queue.append(rows)
    while queue and sp.dim < nA * nA:
        cur = queue.pop()
        for g in gens:
            prod = [linalg.combine(r, g, A.L) for r in cur]
            if sp.insert(comodule._flat_op(prod, nA)):
                queue.append(prod)
    return sp


def _eval_poly(B: FiniteAlgebra, coeffs, y: dict, unit: dict) -> dict:
    """sum_k coeffs[k] y^k in the corner with the given unit."""
    red = B.ctx.reduction
    acc: dict = {}
    power = dict(unit)
    for c in coeffs:
        if not c.is_zero():
            vec_addmul(acc, power, c.raw(), red)
        power = B.multiply(power, y)
    return acc


def _split_idempotent(B: FiniteAlgebra, e: dict, z: dict, center_dim: int):
    """Refine the idempotent e along an element z of the corner eBe.

    Returns the orthogonal idempotents, one per irreducible factor of
    the minimal polynomial of z e, which sum to e; or [e] when z proves
    e centrally primitive; or None when z decides nothing.  They are
    central when e and z are; then z e is central in the semisimple B,
    so its minimal polynomial is squarefree.  The proof of [e]: that
    polynomial is irreducible and of degree center_dim = dim Z(Be); then
    k[z e] is a field and all of Z(Be).
    """
    x = B.multiply(z, e)
    coeffs, _ = comodule._min_poly(B, x, e)
    if len(coeffs) <= 2:
        return None
    factors = comodule._poly_factors(coeffs, B.L)
    if len(factors) == 1:
        return [e] if len(coeffs) - 1 == center_dim else None
    return [_eval_poly(B, comodule._cofactor_idempotent(coeffs, fc, B.L), x, e)
            for fc in factors]


def _corner(B: FiniteAlgebra, e: dict, zrows):
    """(e, dim Z(Be), whether that dimension already proves e primitive)."""
    zspan = linalg.Subspace(B.L)
    for zr in zrows:
        zspan.insert(B.multiply(dict(zr), e))
    return e, zspan.dim, zspan.dim == 1


def full_retry_corners(A, seed=0, tries=24):
    """Radical dim, B = A/J and (idempotent, centre dim) of every corner,
    splitting along every central mix until each centre is the ground
    field or all the tries are spent."""
    J = comodule._trace_radical(A)
    B = comodule._quotient_algebra(A, J) if J.dim else A
    Z = comodule._center(B)
    rng = random.Random(seed)
    red = B.ctx.reduction

    def center_dim(e):
        return _corner(B, e, Z.rows)[1]

    ids = [dict(B.unit)]
    queue = [dict(z) for z in Z.rows]
    attempts = tries
    while True:
        while queue:
            z = queue.pop(0)
            nxt = []
            for e in ids:
                # no centre dimension is -1, so this never stops on a field
                parts = _split_idempotent(B, e, z, -1)
                nxt.extend(parts if parts is not None else [e])
            ids = nxt
        if attempts == 0 or all(center_dim(e) == 1 for e in ids):
            break
        attempts -= 1
        mix: dict = {}
        for zr in Z.rows:
            c = rng.randint(-3, 3)
            if c:
                vec_addmul(mix, dict(zr), CycloNumber.from_rational(c, B.L).raw(), red)
        if mix:
            queue.append(mix)
    return J.dim, B, [(e, center_dim(e)) for e in ids]


def block_span(B, e):
    return linalg.span([B.multiply(B.basis(i), e) for i in range(B.dim)], B.L)


def full_retry_blocks(A):
    """Radical dim and sorted (block dim, centre dim) of every corner."""
    radical, B, corners = full_retry_corners(A)
    return radical, sorted((block_span(B, e).dim, d) for e, d in corners)


def report_blocks(rep):
    return rep.radical_dim, sorted((b["block_dim"], b["center_dim"])
                                   for b in rep.blocks)


def _group_algebra(orders, psi_exps=None):
    G = AbelianGroup(orders)
    F = Subgroup.full(G)
    psi = Cocycle2.from_exponents(F, psi_exps) if psi_exps else Cocycle2.trivial(F)
    return build_A(ModCatDatum(QlsDatum(G, [], []), F, psi))


def _small_fixtures():
    """Every algebra of dim <= 16 that a simplicity verdict is taken on."""
    d = sweedler_datum()
    out = {
        "kpsi_m2": _group_algebra((2, 2), {(0, 1): 1}),
        "kpsi_plain": _group_algebra((2, 2)),
        "trivial_coaction": trivial_coaction(group_hopf(AbelianGroup((2, 2)))),
        "trivial_on_kz2": trivial_coaction(build_bosonization(d),
                                           group_hopf(AbelianGroup((2,)))),
        "group_algebra_z4": group_hopf(AbelianGroup((4,))),
        "sweedler_trivial_F": build_A(ModCatDatum(
            d, Subgroup.trivial(d.group), Cocycle2.trivial(Subgroup.trivial(d.group)),
            w={(1,): [[1]]})),
    }
    for name, datum, xi, alpha in (
            ("sweedler", sweedler_datum(), [1], None),
            ("z4", z4_datum(), [1], None),
            ("clifford_z2", clifford_z2_datum(), [1, 1], {(0, 1): 2}),
            ("clifford_z22", clifford_z22_datum(), [1, 1], None),
            ("z4_mu", z4_mu_datum(), [1], None),
            ("z22_lambda", z22_lambda_datum(), [1, 1], None)):
        out["full_" + name] = build_A(full_mcd(datum, xi=xi, alpha=alpha))
    for name, _, B in CONNECTING:
        A = regular_coaction(B.right_hopf)
        out["regular_" + name] = A
        out["transported_regular_" + name] = cotensor(B, A)
    return out


# the three liftings of acceptance criterion 8 and their connecting objects
CONNECTING = [(name, ld, build_bigalois(ld)) for name, ld in (
    ("trivial", LiftingDatum(sweedler_datum())),
    ("z4_mu", LiftingDatum(z4_mu_datum(), mu=[1])),
    ("z22_lambda", LiftingDatum(z22_lambda_datum(), lam={(0, 1): 1})))]
SMALL = _small_fixtures()


@pytest.mark.parametrize("name", sorted(SMALL))
def test_operator_span_equals_the_closure(name, monkeypatch):
    A = SMALL[name]
    assert A.dim <= 16
    gens = comodule._operator_generators(A)
    assert comodule._operator_span(A, gens).key() == closure_span(A, gens).key()

    # on a split-simple fixture the leading columns would answer before
    # either span, so both sides are sent down the exact path
    monkeypatch.setattr(comodule, "_leading_columns", shortfall)
    fast = check_simplicity(A)
    monkeypatch.setattr(comodule, "_operator_span", closure_span)
    slow = check_simplicity(A)
    assert (fast.verdict, fast.operator_dim) == (slow.verdict, slow.operator_dim)
    assert fast.verdict != "undecided"
    if fast.witness is not None:
        assert fast.witness.key() == slow.witness.key()


def shortfall(A, gens):
    """A certificate that never counts enough leading columns."""
    return 0


def test_the_leading_columns_certify_only_full_spans():
    certified = 0
    for A in list(SMALL.values()) + sampled_members():
        gens = comodule._operator_generators(A)
        if comodule._leading_columns(A, gens) == A.dim ** 2:
            certified += 1
            assert comodule._operator_span(A, gens).dim == A.dim ** 2
    # the three reducible fixtures fall short, every other algebra is certified
    assert certified == len(SMALL) - 3 + len(sampled_members())


def test_a_shortfall_gives_the_same_report(monkeypatch):
    def summary(rep):
        witness = None if rep.witness is None else rep.witness.key()
        return rep.verdict, rep.operator_dim, rep.full_dim, witness

    before = {name: summary(check_simplicity(A)) for name, A in SMALL.items()}
    monkeypatch.setattr(comodule, "_leading_columns", shortfall)
    after = {name: summary(check_simplicity(A)) for name, A in SMALL.items()}
    assert after == before


def test_oracle_fixtures_cover_both_verdicts():
    verdicts = {name: check_simplicity(A).verdict for name, A in SMALL.items()}
    assert verdicts["trivial_coaction"] == "reducible"
    assert verdicts["full_z22_lambda"] == "split-simple"
    assert set(verdicts.values()) == {"reducible", "split-simple"}


def mixed_z6_pair():
    """The dim-24 Z6, theta = 2 regular algebra of the benchmark's mixed
    lifting (q = -1, root scalars 1 and 2, link scalar -2), and its image
    under transport."""
    G = AbelianGroup((6,))
    g, chi = G.element((1,)), Character(G, (3,))
    B = build_bigalois(LiftingDatum(QlsDatum(G, [g, g], [chi, chi]),
                                    mu=[1, 2], lam={(0, 1): -2}))
    A = regular_coaction(B.right_hopf)
    return A, cotensor(B, A)


MIXED = mixed_z6_pair()


def _criterion_8_pairs():
    for name, ld, B in CONNECTING:
        for kind, A in (("regular", regular_coaction(B.right_hopf)),
                        ("full", build_A(full_mcd(ld.datum)))):
            yield f"{name}-{kind}", A
            yield f"{name}-{kind}-transported", cotensor(B, A)
    # the corners of centre dimension 2 here are where the two loops differ
    yield "mixed_z6-regular", MIXED[0]
    yield "mixed_z6-regular-transported", MIXED[1]
    yield "rational_z3xz3", rational_z3xz3()


def rational_z3xz3():
    """The group algebra of Z3 x Z3 over Q: Q x Q(zeta3)^4.  Its generator
    times the Q(zeta3)^4 idempotent has the irreducible minimal polynomial
    t^2 + t + 1 of degree 2 < 8, so irreducibility alone proves no field."""
    H = group_hopf(AbelianGroup((3, 3)))
    one = pone(1)
    mult = {k: {j: one for j in cell} for k, cell in H.mult.items()}
    return FiniteAlgebra(H.labels, 1, mult, {i: one for i in H.unit})


PAIRS = dict(_criterion_8_pairs())


def classify_members(datum, sample):
    """The algebra of every datum ``classify`` enumerates over the sample."""
    return [build_A(m) for m in classify.enumerate_modcat_data(datum, sample)]


def _retry_fixtures():
    """PAIRS, every Z4 theta = 2 datum at sample 0,1 and every Z3 datum
    at 0,2; the last hold Q(zeta3)[y]/(y^3 - 2), a field no conductor
    splits."""
    Z4, Z3 = AbelianGroup((4,)), AbelianGroup((3,))
    out = dict(PAIRS)
    for label, datum, sample in (
            ("z4_theta2-0,1", QlsDatum(Z4, [Z4.element((1,))] * 2,
                                       [Character(Z4, (2,))] * 2), (0, 1)),
            ("z3-0,2", QlsDatum(Z3, [Z3.element((1,))], [Character(Z3, (1,))]),
             (0, 2))):
        for i, A in enumerate(classify_members(datum, sample)):
            out[f"{label}-{i}"] = A
    return out


RETRY = _retry_fixtures()


@pytest.mark.parametrize("name", sorted(RETRY))
def test_simple_modules_matches_the_full_retry_loop(name):
    A = RETRY[name]
    assert report_blocks(simple_modules(A)) == full_retry_blocks(A)


def test_the_retry_fixtures_hold_a_field_no_conductor_splits():
    blocks = [report_blocks(simple_modules(A))
              for name, A in RETRY.items() if name.startswith("z3-0,2")]
    assert (0, [(3, 3)]) in blocks


@pytest.mark.parametrize("datum", [sweedler_datum, clifford_z2_datum, z4_mu_datum,
                                   lambda: QlsDatum(AbelianGroup((2, 2)), [], [])])
def test_classify_rows_match_the_full_retry_loop(datum, monkeypatch):
    want = classification_report(datum()).as_dict()

    def oracle(A):
        radical, blocks = full_retry_blocks(A)
        return comodule.SimpleModulesReport(
            radical, [{"block_dim": b, "center_dim": c} for b, c in blocks])

    monkeypatch.setattr(classify, "simple_modules", oracle)
    assert classification_report(datum()).as_dict() == want


# ----------------------------------------------------- operation counts

def counted_inserts(monkeypatch):
    calls = []
    insert = linalg.Subspace.insert

    def counted(self, vec):
        calls.append(1)
        return insert(self, vec)

    monkeypatch.setattr(linalg.Subspace, "insert", counted)
    return calls


def test_a_certified_algebra_inserts_no_vector(monkeypatch):
    calls = counted_inserts(monkeypatch)
    for A in MIXED:
        rep = check_simplicity(A)
        assert (A.dim, rep.verdict, rep.operator_dim) == (24, "split-simple", 576)
    assert calls == []


def test_simplicity_inserts_at_most_one_product_per_pair(monkeypatch):
    A = MIXED[0]
    support = {u for lam in A.coaction for (u, _) in lam}
    monkeypatch.setattr(comodule, "_leading_columns", shortfall)
    calls = counted_inserts(monkeypatch)
    rep = check_simplicity(A)
    assert (A.dim, rep.verdict) == (24, "split-simple")
    assert len(calls) <= A.dim * len(support)


def test_simple_modules_stops_on_proven_fields(monkeypatch):
    calls = []
    factors = comodule._poly_factors

    def counted(coeffs, L):
        calls.append(len(coeffs) - 1)
        return factors(coeffs, L)

    monkeypatch.setattr(comodule, "_poly_factors", counted)
    A, T = MIXED
    assert simple_modules(A).block_data == (1, 1, 8, 8)
    assert simple_modules(T).block_data == (8, 8, 8)
    assert len(calls) <= 10


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_simple_modules_factors_once(name, monkeypatch):
    """One minimal polynomial factored, one cofactor idempotent per block."""
    calls = Counter()
    for fn in ("_poly_factors", "_cofactor_idempotent"):
        def counted(*args, fn=fn, orig=getattr(comodule, fn)):
            calls[fn] += 1
            return orig(*args)

        monkeypatch.setattr(comodule, fn, counted)
    rep = simple_modules(PAIRS[name])
    assert calls == {"_poly_factors": 1, "_cofactor_idempotent": len(rep.blocks)}


@pytest.mark.parametrize("w", [Fraction(1, 2), 0])
def test_a_trace_that_is_no_dimension_raises(w, monkeypatch):
    """A w that is no idempotent gives the dim-9 algebra a trace of 9 w."""
    monkeypatch.setattr(comodule, "_cofactor_idempotent",
                        lambda p, h, L: [CycloNumber.from_rational(w, L)])
    with pytest.raises(ArithmeticError, match="not a positive integer"):
        simple_modules(PAIRS["rational_z3xz3"])


# ------------------------------------------------ factoring over Q(zeta_L)

@functools.lru_cache(maxsize=None)
def sympy_domain(L):
    """sympy's Q(zeta_L) and the powers of its generator; QQ and None at
    degree 1."""
    from sympy import I, QQ, exp, pi

    if context(L).degree == 1:
        return QQ, None
    z = exp(2 * pi * I / L)
    dom = QQ.algebraic_field(z)
    gen_pows = [dom.one]
    gen = dom.from_sympy(z)
    for _ in range(context(L).degree - 1):
        gen_pows.append(gen_pows[-1] * gen)
    return dom, gen_pows


def sympy_poly(coeffs, L):
    """The sympy polynomial in t with the given coefficients, lowest first."""
    from sympy import QQ, Poly, symbols

    dom, gen_pows = sympy_domain(L)

    def to_dom(x):
        nums, den = x.raw()
        if gen_pows is None:
            return QQ(int(nums[0]), int(den))
        val = dom.zero
        for k, num in enumerate(nums):
            if num:
                val += dom.convert(QQ(int(num), int(den))) * gen_pows[k]
        return val

    # sympy lists coefficients highest first
    return Poly([to_dom(c) for c in reversed(coeffs)], symbols("t"), domain=dom)


def from_sympy_poly(p, L):
    """The coefficients of a sympy polynomial, lowest first, as CycloNumbers."""
    _, gen_pows = sympy_domain(L)
    out = []
    for val in reversed(p.rep.to_list()):
        if gen_pows is None:
            out.append(CycloNumber.from_rational(
                Fraction(int(val.numerator), int(val.denominator)), L))
            continue
        c = CycloNumber.zero(L)
        for k, q in enumerate(reversed(val.to_list())):
            if q:
                c = c + CycloNumber.from_rational(
                    Fraction(int(q.numerator), int(q.denominator)), L) * zeta(L, k)
        out.append(c)
    return out


def sympy_factors(coeffs, L):
    """sympy's ``factor_list``, each factor made monic and listed as often
    as it divides."""
    return [from_sympy_poly(f.monic(), L)
            for f, m in sympy_poly(coeffs, L).factor_list()[1] for _ in range(m)]


def sympy_cofactor_idempotent(coeffs, factor, L):
    p = sympy_poly(coeffs, L)
    f = sympy_poly(factor, L)
    u = p.quo(f)
    _, v, h = f.gcdex(u)
    assert h.is_one
    return from_sympy_poly((v * u) % p, L)


def poly_product(factors, L):
    """The product of the factors."""
    out = [CycloNumber.one(L)]
    for h in factors:
        nxt = [CycloNumber.zero(L)] * (len(out) + len(h) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(h):
                nxt[i + j] = nxt[i + j] + x * y
        out = nxt
    return out


def small_cyclo(L):
    deg = context(L).degree
    return st.builds(lambda nums, den: CycloNumber(L, nums, den),
                     st.lists(st.integers(-2, 2), min_size=deg, max_size=deg),
                     st.sampled_from([1, 1, 2, 3]))


@st.composite
def factored_polys(draw):
    """(L, [monic factor]) with up to three factors of degree up to 3,
    over one of the conductors the package meets, whose product is
    squarefree."""
    L = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12]))
    parts = draw(st.lists(st.lists(small_cyclo(L), min_size=1, max_size=3),
                          min_size=1, max_size=3))
    parts = [h + [CycloNumber.one(L)] for h in parts]
    assume(squarefree(poly_product(parts, L)))
    return L, parts


@settings(max_examples=40, deadline=None)
@given(factored_polys())
def test_factors_match_sympy(case):
    """The in-house factors are sympy's, in any order, and multiply back
    to f; every cofactor idempotent is sympy's ``gcdex`` one."""
    L, parts = case
    f = poly_product(parts, L)
    ours = comodule._poly_factors(f, L)
    assert same_factors(ours, sympy_factors(f, L))
    assert poly_product(ours, L) == f
    for h in ours:
        assert (comodule._cofactor_idempotent(f, h, L)
                == sympy_cofactor_idempotent(f, h, L))


# the minimal polynomials bench classify factors (x^2 - 1 and x^2 - 4 at
# L = 2 and 4, x^2 + 4 at 4, the sextic at 6), then squarefree rational
# polynomials that split further over Q(zeta_L); lowest degree first
RATIONAL_CASES = [
    (2, [-1, 0, 1]), (4, [-1, 0, 1]), (2, [-4, 0, 1]), (4, [-4, 0, 1]),
    (4, [4, 0, 1]), (6, [-1, 0, 2, 0, -2, 0, 1]),
    (8, [1, 0, -10, 0, 1]), (12, [1, 0, -10, 0, 1]),
    (3, [1, 0, 1, 0, 1]), (5, [-2, -1, -1, -1, -1, 1]),
    (8, [-2, 0, -1, 0, 1]), (1, [6, 0, -5, 0, 1]),
]


@pytest.mark.parametrize("L,coeffs", RATIONAL_CASES)
def test_rational_polynomials_factor_as_sympy(L, coeffs):
    """Rational polynomials: the factors are sympy's ``factor_list`` over
    Q(zeta_L), in any order."""
    f = [CycloNumber.from_rational(c, L) for c in coeffs]
    assert same_factors(polyfactor.factor(f, L), sympy_factors(f, L))


# ------------------------------------------------------- module dimensions

def ideal_span(B, block, z):
    return linalg.span([B.multiply(row, z) for row in block.rows], B.L)


def poly_quo(coeffs, factor, L):
    p, f = sympy_poly(coeffs, L), sympy_poly(factor, L)
    return from_sympy_poly(p.quo(f), L)


def random_ideal_dim(B, e, block, rng, tries=24):
    """A random search for a minimal left ideal of a block with centre K.

    Draws the block's basis and random mixes of it, evaluates the cofactor
    of each irreducible factor of a draw's minimal polynomial at the draw
    (a zero divisor), and returns sqrt(dim Be) once the left ideal of such
    a zero divisor, or of a row of it, has that dimension; else None.
    """
    d = block.dim
    want = math.isqrt(d)
    if want * want != d:
        return None
    if d == 1:
        return 1

    def candidates():
        yield from (dict(row) for row in block.rows)
        red = B.ctx.reduction
        for _ in range(tries):
            mix: dict = {}
            for row in block.rows:
                c = rng.randint(-2, 2)
                if c:
                    vec_addmul(mix, row, CycloNumber.from_rational(c, B.L).raw(), red)
            if mix:
                yield mix

    for y in candidates():
        coeffs, _ = comodule._min_poly(B, y, e)
        # y need not be central, so its minimal polynomial may repeat a
        # factor; factor only its squarefree part
        radical = polyfactor.as_cyclo(polyfactor.exquo(coeffs, polyfactor.gcd_monic(
            coeffs, polyfactor.derivative(coeffs))), B.L)
        for fc in comodule._poly_factors(radical, B.L):
            zdiv = _eval_poly(B, poly_quo(coeffs, fc, B.L), y, e)
            if not zdiv:
                continue
            ideal = ideal_span(B, block, zdiv)
            if ideal.dim == want:
                return want
            if ideal.dim < d:
                for row in list(ideal.rows)[:4]:
                    if ideal_span(B, block, row).dim == want:
                        return want
    return None


def module_dims_both_ways(A):
    """``module_dims()`` of A, and the sorted (block dim, random search dim)
    of every centre-1 corner of the full retry loop."""
    _, B, corners = full_retry_corners(A)
    search = []
    for e, center_dim in corners:
        if center_dim == 1:
            block = block_span(B, e)
            search.append((block.dim,
                           random_ideal_dim(B, e, block, random.Random(0))))
    return simple_modules(A).module_dims(), sorted(search)


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_corner_descent_matches_the_random_ideal_search(name):
    """Every simple module the search certifies is one of ``module_dims()``."""
    dims, search = module_dims_both_ways(PAIRS[name])
    certified = Counter(n for _, n in search if n is not None)
    assert not certified - Counter(dims)


def test_the_ideal_search_oracle_certifies_matrix_blocks():
    dims, search = module_dims_both_ways(PAIRS["z22_lambda-regular"])
    assert dims == [1, 1, 2, 2]
    assert search == [(1, 1), (1, 1), (4, 2), (4, 2)]


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_module_dims_square_to_the_semisimple_part(name):
    A = PAIRS[name]
    rep = simple_modules(A)
    assert sum(n * n for n in rep.module_dims()) == A.dim - rep.radical_dim


def bench_cell(g):
    """The dim-16 algebra of the classify row of Z2 x Z2, theta = 2, q = -1
    with F = Z2 x Z2, the nontrivial cocycle class and W spanned by both
    generators (``Z2x2 [1] {x1,x0}`` in the first presentation): M_4(Q(i))."""
    G = AbelianGroup((2, 2))
    datum = QlsDatum(G, [G.element(e) for e in g], [Character(G, (1, 1))] * 2)
    members = [m for m in classify.enumerate_modcat_data(datum)
               if (classify._subgroup_label(m.F), m.psi_norm.class_tag(),
                   m.n_letters) == ("Z2x2", (1,), 2)]
    assert len({classify._w_key(m) for m in members}) == 1
    return build_A(members[-1])


@pytest.mark.parametrize("g", [((1, 0), (0, 1)), ((0, 1), (1, 0))])
def test_bench_matrix_block_over_q_i_is_split(g):
    A = bench_cell(g)
    rep = simple_modules(A)
    assert (A.dim, A.L, rep.block_data) == (16, 4, (16,))
    assert rep.blocks == [{"block_dim": 16, "center_dim": 1}]
    assert rep.module_dims() == [4]


# ------------------------------------------ cocycles and connecting objects

def quintuple_cocycle_ok(sigma) -> bool:
    """Normalization and the cocycle identity
    sigma(x_1, y_1) sigma(x_2 y_2, z) = sigma(y_1, z_1) sigma(x, y_2 z_2)
    summed out by hand on every basis triple."""
    H, table = sigma.H, sigma.table
    red = H.ctx.reduction
    n = H.dim
    for j in range(n):
        if sigma.pair(dict(H.unit), H.basis(j)) != H.counit[j]:
            return False
        if sigma.pair(H.basis(j), dict(H.unit)) != H.counit[j]:
            return False

    def side(a, b, outer):
        acc = linalg.pzero(H.L)
        for (p, p2), c in H.comult[a].items():
            for (q, q2), c2 in H.comult[b].items():
                s = table.get((p, q))
                if s is None:
                    continue
                c3 = pmul(pmul(c, c2, red), s, red)
                for t, cm in H.mult.get((p2, q2), {}).items():
                    v = table.get(outer(t))
                    if v is not None:
                        acc = padd(acc, pmul(pmul(c3, cm, red), v, red))
        return acc

    for i in range(n):
        for j in range(n):
            for k in range(n):
                if (side(i, j, lambda t: (t, k))
                        != side(j, k, lambda w: (i, w))):
                    return False
    return True


def quartic_convolution_inverse(sigma) -> dict:
    """sigma^-1 from one row per unknown tau(c, d), each row a scan of
    every (a, b) for coproduct terms ending in c and d."""
    H = sigma.H
    red = H.ctx.reduction
    n = H.dim
    rows = []
    for c in range(n):
        for d in range(n):
            row: dict = {}
            for a in range(n):
                for (p, p2), ca in H.comult[a].items():
                    if p2 != c:
                        continue
                    for b in range(n):
                        for (q, q2), cb in H.comult[b].items():
                            s = sigma.table.get((p, q))
                            if q2 == d and s is not None:
                                accumulate(row, a * n + b,
                                           pmul(pmul(ca, cb, red), s, red))
            rows.append(row)
    target = {}
    for a in range(n):
        for b in range(n):
            v = pmul(H.counit[a], H.counit[b], red)
            if not pis0(v):
                target[a * n + b] = v
    sol, = linalg.solve(rows, [target], n * n, H.L)
    return {(k // n, k % n): v for k, v in sol.items()}


def triple_coproduct_product(H, sigma) -> dict:
    """sigma(x_1, y_1) x_2 y_2 sigma^-1(x_3, y_3) over triple coproducts."""
    red = H.ctx.reduction
    triple = [deformation._iterated_comult(H, i, 3) for i in range(H.dim)]
    mult: dict = {}
    for i in range(H.dim):
        for j in range(H.dim):
            cell: dict = {}
            for (i1, i2, i3), ci in triple[i].items():
                for (j1, j2, j3), cj in triple[j].items():
                    s = sigma.table.get((i1, j1))
                    t = sigma.inverse.get((i3, j3))
                    m = H.mult.get((i2, j2))
                    if s is None or t is None or not m:
                        continue
                    coef = pmul(pmul(pmul(ci, cj, red), s, red), t, red)
                    vec_addmul(cell, m, coef, red)
            if cell:
                mult[(i, j)] = cell
    return mult


def rank_loop_right_galois(B) -> bool:
    """Rank of x (x) y -> x y_(0) (x) y_(1), one row per basis pair."""
    alg, H = B.algebra, B.right_hopf
    n = alg.dim
    red = alg.ctx.reduction
    rows = []
    for i in range(n):
        for j in range(n):
            flat: dict = {}
            for (b, h), c in B.right_coaction[j].items():
                for k, c2 in alg.mult.get((i, b), {}).items():
                    accumulate(flat, k * H.dim + h, pmul(c, c2, red))
            rows.append(flat)
    return linalg.rank(rows, alg.L) == n * n == n * H.dim


def _cocycles():
    """The trivial cocycle and one group cocycle per class on five
    bosonizations, the Z2 x Z2 ones at conductor 4 for the class valued i."""
    out = {}
    for name, datum, L in (("sweedler", sweedler_datum(), None),
                           ("z4_mu", z4_mu_datum(), None),
                           ("z22_lambda", z22_lambda_datum(), 4),
                           ("clifford_z22", clifford_z22_datum(), 4),
                           ("z4", z4_datum(), None)):
        H = build_bosonization(datum)
        H = H.rebased(L) if L else H
        out[f"{name}-trivial"] = trivial_sigma(H)
        for psi in enumerate_classes(Subgroup.full(datum.group)):
            tag = "".join(map(str, psi.class_tag()))
            out[f"{name}-class{tag}"] = group_sigma(H, psi)
    return out


COCYCLES = _cocycles()


@pytest.mark.parametrize("name", sorted(COCYCLES))
def test_cocycle_tables_match_the_loop_oracles(name):
    sigma = COCYCLES[name]
    assert sigma.validate().ok
    assert quintuple_cocycle_ok(sigma)
    assert sigma.inverse == quartic_convolution_inverse(sigma)
    H = sigma.H
    assert deform_hopf(H, sigma).mult == triple_coproduct_product(H, sigma)


def _corruptions(sigma):
    """sigma with one table entry negated or doubled, every way."""
    for key in sorted(sigma.table):
        nums, den = sigma.table[key]
        for f in (-1, 2):
            table = dict(sigma.table)
            table[key] = (tuple(f * x for x in nums), den)
            yield HopfCocycle(sigma.H, table, check=False)


def _distinct():
    """COCYCLES without repeats: on every bosonization here the group
    cocycle of the trivial class is the trivial cocycle."""
    out, seen = {}, set()
    for name in sorted(COCYCLES, key=lambda nm: not nm.endswith("-trivial")):
        key = (name.split("-")[0], tuple(sorted(COCYCLES[name].table.items())))
        if key not in seen:
            seen.add(key)
            out[name] = COCYCLES[name]
    return out


DISTINCT = _distinct()


@pytest.mark.parametrize("name", sorted(DISTINCT))
def test_cocycle_sweep_matches_the_quintuple_loop_on_corruptions(name):
    verdicts = []
    for broken in _corruptions(DISTINCT[name]):
        verdicts.append(broken.validate().ok)
        assert verdicts[-1] == quintuple_cocycle_ok(broken)
    if name == "sweedler-trivial":
        # negating or doubling sigma(g, g) leaves a cocycle
        assert (len(verdicts), sum(verdicts)) == (8, 2)


def _trivially_coacted(H):
    """H coacted trivially on both sides: a bicomodule algebra that is
    not Galois."""
    one = pone(H.L)
    e = next(iter(H.unit))
    return BiGaloisRep(H, H, H, [{(e, b): one} for b in range(H.dim)],
                       [{(b, e): one} for b in range(H.dim)], list(H.counit))


GALOIS = {name: B for name, _, B in CONNECTING}
GALOIS["sigma_z22_lambda"] = sigma_bigalois(
    COCYCLES["z22_lambda-class1"].H, COCYCLES["z22_lambda-class1"])
GALOIS["trivially_coacted"] = _trivially_coacted(group_hopf(AbelianGroup((2, 2))))


@pytest.mark.parametrize("name", sorted(GALOIS))
def test_right_galois_verdict_matches_the_rank_loop(name):
    B = GALOIS[name]
    assert B.right_galois_bijective() == rank_loop_right_galois(B)
    assert B.right_galois_bijective() == (name != "trivially_coacted")


# ------------------------------------------- axiom sweeps on generators

def exhaustive_algebra(A) -> CheckReport:
    """The unit laws on every basis element and associativity on every
    basis triple."""
    rep = CheckReport("algebra")
    n = A.dim
    basis = [A.basis(i) for i in range(n)]
    for i in range(n):
        if A.multiply(A.unit, basis[i]) != basis[i]:
            rep.fail("unit-left", A.labels[i])
        if A.multiply(basis[i], A.unit) != basis[i]:
            rep.fail("unit-right", A.labels[i])
    for i, j, k in itertools.product(range(n), repeat=3):
        left = A.multiply(A.mult.get((i, j), {}), basis[k])
        right = A.multiply(basis[i], A.mult.get((j, k), {}))
        if left != right:
            rep.fail("associativity", (A.labels[i], A.labels[j], A.labels[k]))
    return rep


def exhaustive_coaction(rep, alg, U, comult, coaction,
                        names=hopf.COACTION_CHECKS) -> CheckReport:
    """The comodule-algebra sweep with multiplicativity on every basis pair."""
    unital, coassociative, counital, multiplicative = names
    red = alg.ctx.reduction
    n = alg.dim

    def coact(vec):
        out = {}
        for i, c in vec.items():
            vec_addmul(out, coaction[i], c, red)
        return out

    unit_target = {(u0, i): pmul(c0, c, red)
                   for u0, c0 in U.unit.items() for i, c in alg.unit.items()}
    if coact(alg.unit) != unit_target:
        rep.fail(unital, "1")
    for i in range(n):
        left, right, acc = {}, {}, {}
        for (u, a), c in coaction[i].items():
            for (p, q), c2 in comult[u].items():
                accumulate(left, (p, q, a), pmul(c, c2, red))
            for (u2, a2), c2 in coaction[a].items():
                accumulate(right, (u, u2, a2), pmul(c, c2, red))
            accumulate(acc, a, pmul(c, U.counit[u], red))
        if left != right:
            rep.fail(coassociative, alg.labels[i])
        if acc != alg.basis(i):
            rep.fail(counital, alg.labels[i])
    for i, j in itertools.product(range(n), repeat=2):
        want = hopf.pair_multiply(U, alg, coaction[i], coaction[j])
        if coact(alg.mult.get((i, j), {})) != want:
            rep.fail(multiplicative, (alg.labels[i], alg.labels[j]))
    return rep


def exhaustive_hopf(H) -> CheckReport:
    """``FiniteHopf.verify`` with counit-multiplicative on every basis pair."""
    rep = exhaustive_algebra(H)
    rep.subject = "hopf"
    exhaustive_coaction(rep, H, H, H.comult, H.comult, hopf.HOPF_CHECKS)
    red = H.ctx.reduction
    n = H.dim
    basis = [H.basis(i) for i in range(n)]
    if H.counit_value(H.unit) != pone(H.L):
        rep.fail("counit-unital", "1")
    for i in range(n):
        di = H.comult[i]
        rc, sl, sr = {}, {}, {}
        for (j, k), c in di.items():
            accumulate(rc, j, pmul(c, H.counit[k], red))
            vec_addmul(sl, H.multiply(H.antipode[j], basis[k]), c, red)
            vec_addmul(sr, H.multiply(basis[j], H.antipode[k]), c, red)
        if rc != basis[i] and ("counit-law", H.labels[i]) not in rep.failures:
            rep.fail("counit-law", H.labels[i])
        target = {}
        vec_addmul(target, H.unit, H.counit[i], red)
        if sl != target or sr != target:
            rep.fail("antipode", H.labels[i])
        if H.degree is not None:
            for j, k in di:
                total = H.degree[j] + H.degree[k]
                if total > H.degree[i] or (H.graded and total != H.degree[i]):
                    rep.fail("coradical-degree", (H.labels[i], H.labels[j], H.labels[k]))
                    break
    for i, j in itertools.product(range(n), repeat=2):
        prod = H.mult.get((i, j), {})
        if H.counit_value(prod) != pmul(H.counit[i], H.counit[j], red):
            rep.fail("counit-multiplicative", (H.labels[i], H.labels[j]))
    return rep


def exhaustive_verify(obj, monkeypatch) -> CheckReport:
    """obj.verify() with every sweep run on all basis triples and pairs."""
    with monkeypatch.context() as m:
        m.setattr(FiniteAlgebra, "verify_algebra", exhaustive_algebra)
        m.setattr(FiniteHopf, "verify", exhaustive_hopf)
        for module in (hopf, comodule, deformation):
            m.setattr(module, "verify_coaction", exhaustive_coaction)
        return obj.verify()


def _sweep_fixtures():
    out = dict(SMALL)
    for name, _, B in CONNECTING:
        out["bigalois_" + name] = B
        out["inverse_bigalois_" + name] = B.inverse()
        out["left_hopf_" + name] = B.left_hopf
        out["right_hopf_" + name] = B.right_hopf
    return out


SWEEP_FIXTURES = _sweep_fixtures()


@pytest.mark.parametrize("name", sorted(SWEEP_FIXTURES))
def test_sweeps_match_the_exhaustive_loops(name, monkeypatch):
    obj = SWEEP_FIXTURES[name]
    got = obj.verify()
    want = exhaustive_verify(obj, monkeypatch)
    assert got.ok and want.ok
    assert got.failures == want.failures


Z4_MU = build_lifting(LiftingDatum(z4_mu_datum(), mu=[1]))


def _changed(vec, f):
    """The sparse vector times -1 or 2."""
    return {k: padd(v, v) if f == 2 else kernel.neg(v) for k, v in vec.items()}


def _broken_tables(obj, fields):
    """(field, cell, copy of obj) with one cell of one table negated or
    doubled, cells that stay the same skipped; then, for ``mult``, with
    one empty cell set to the unit, and with the term of one one-term
    cell moved to the next basis element."""
    def broken(field, table, cell, new):
        out = copy.copy(obj)
        changed = dict(table) if isinstance(table, dict) else list(table)
        changed[cell] = new
        setattr(out, field, changed)
        return field, cell, out

    for field in fields:
        table = getattr(obj, field)
        for cell in (sorted(table) if isinstance(table, dict) else range(len(table))):
            for f in (-1, 2):
                value = table[cell]
                new = _changed(value, f) if isinstance(value, dict) else (
                    padd(value, value) if f == 2 else kernel.neg(value))
                if new != value:
                    yield broken(field, table, cell, new)
        if field == "mult":
            # a sweep that walks the nonzero cells must still reach these
            for cell in itertools.product(range(obj.dim), repeat=2):
                if not table.get(cell):
                    yield broken(field, table, cell, dict(obj.unit))
            # scaling or filling one cell never gives a triple whose two
            # one-term sides differ only in their keys; this does
            for cell in sorted(table):
                if len(table[cell]) == 1:
                    (p, v), = table[cell].items()
                    yield broken(field, table, cell, {(p + 1) % obj.dim: v})


CORRUPTED = {
    # every cell of the bosonization holds one term, and x x = 0
    "bosonization": (build_bosonization(z4_mu_datum()),
                     ("mult", "comult", "counit")),
    "lifting": (Z4_MU, ("mult", "comult", "counit")),
    "regular": (regular_coaction(Z4_MU), ("mult", "coaction")),
    "full": (build_A(full_mcd(z4_mu_datum())), ("mult", "coaction")),
}


@st.composite
def random_tables(draw):
    """A table on up to 4 basis elements at conductor 4 whose cells hold
    up to 3 terms, with empty cells and zero entries among them."""
    n = draw(st.integers(1, 4))
    values = st.sampled_from([CycloNumber.from_rational(q, 4).raw()
                              for q in (0, 1, -1, 2)]
                             + [zeta(4).raw(), (-zeta(4)).raw()])
    cells = st.dictionaries(st.integers(0, n - 1), values, max_size=3)
    pairs = itertools.product(range(n), repeat=2)
    mult = {cell: draw(cells) for cell in pairs if draw(st.booleans())}
    return FiniteAlgebra(range(n), 4, mult, {0: pone(4)})


@settings(max_examples=300, deadline=None)
@given(random_tables())
def test_the_associativity_walk_matches_every_triple(A):
    """Walking the nonzero cells, one-term sides compared as scaled
    cells, finds the triples a product of every basis triple finds."""
    want = exhaustive_algebra(A).failures
    got = A._associators(range(A.dim))
    assert [("associativity", t) for t in got] == [
        f for f in want if f[0] == "associativity"]


@pytest.mark.parametrize("name", sorted(CORRUPTED))
def test_sweeps_match_the_exhaustive_loops_on_corruptions(name, monkeypatch):
    obj, fields = CORRUPTED[name]
    gens = obj.generators()
    outside, caught_outside, verdicts = 0, 0, []
    for field, cell, broken in _broken_tables(obj, fields):
        got = broken.verify()
        want = exhaustive_verify(broken, monkeypatch)
        assert got.ok == want.ok, (field, cell)
        assert got.failures == want.failures, (field, cell)
        verdicts.append(got.ok)
        if field == "mult" and cell[0] not in gens and cell[1] not in gens:
            outside += 1
            caught_outside += not got.ok
    # cells (y, z) with neither factor a generator are only reached
    # through the induction; some of them must be caught
    assert outside > 0 and caught_outside > 0
    assert not all(verdicts)


# ------------------------------------------------------ product tables

def normal_form_table(engine, labels) -> dict:
    """Cell (i, j) as the normal form of label i's word followed by label
    j's: all n^2 concatenated words normalized."""
    idx = {lab: i for i, lab in enumerate(labels)}
    words = [engine.word_of(r, engine.group.element(ge)) for r, ge in labels]
    mult: dict = {}
    for i1, w1 in enumerate(words):
        for i2, w2 in enumerate(words):
            nf = engine.normalize(w1 + w2)
            cell = {idx[(t, g.exps)]: c for (t, g), c in nf.items()}
            if cell:
                mult[(i1, i2)] = cell
    return mult


def built_tables(build) -> list:
    """(engine, labels, table) of every product table ``build()`` makes."""
    seen = []
    table = NormalFormEngine.product_table

    def recorded(engine, labels):
        seen.append((engine, labels, table(engine, labels)))
        return seen[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(NormalFormEngine, "product_table", recorded)
        build()
    return seen


def _slot_build(command, obj):
    """The builder one bench command runs on obj, and how many product
    tables it makes: an algebra build also makes the bosonization U it is
    coacted on, and a transport builds the connecting B with its U, the
    lifting H and the modcat A if any."""
    datum, lifting, mcd = serialize.load_datum(obj)
    if command == "build-hopf":
        return (lambda: build_bosonization(datum)), 1
    if command == "build-lifting":
        return (lambda: build_lifting(lifting)), 1
    if command == "build-algebra":
        return (lambda: build_A(mcd)), 2

    def transport():
        B = build_bigalois(lifting)
        if mcd is not None:
            build_A(mcd, B.left_hopf)
    return transport, 3 + (mcd is not None)


BENCH_SLOTS = {slot.name: slot
               for slot in workloads.tables_slots() + workloads.transport_slots()}


@pytest.mark.parametrize("name", sorted(BENCH_SLOTS))
def test_bench_tables_equal_the_normal_forms(name):
    slot = BENCH_SLOTS[name]
    for obj in slot.variants:
        build, count = _slot_build(slot.command, obj)
        tables = built_tables(build)
        assert len(tables) == count
        for engine, labels, table in tables:
            assert table == normal_form_table(engine, labels)


def _qls(orders, g, chi):
    G = AbelianGroup(orders)
    return QlsDatum(G, [G.element(e) for e in g], [Character(G, c) for c in chi])


CLASSIFY_DATA = {
    "z3": _qls((3,), [(1,)], [(1,)]),
    "z4_theta2": _qls((4,), [(1,)] * 2, [(2,)] * 2),
    "z22_theta2": _qls((2, 2), [(1, 0), (0, 1)], [(1, 1)] * 2),
    "z4_theta3": _qls((4,), [(1,)] * 3, [(2,)] * 3),
}


@pytest.mark.parametrize("name", sorted(CLASSIFY_DATA))
def test_classify_tables_equal_the_normal_forms(name):
    members = classify.enumerate_modcat_data(CLASSIFY_DATA[name], (0, 1))
    assert members
    for mcd in members:
        labels = hopf.monomial_labels(mcd.heights, mcd.F)
        assert ComoduleRules(mcd).product_table(labels) == \
            normal_form_table(ComoduleRules(mcd), labels)


def twisted_z22_mcd():
    """Z2 x Z2 with two letters, a nontrivial cocycle class and xi = 1, 1."""
    d = CLASSIFY_DATA["z22_theta2"]
    F = Subgroup.full(d.group)
    psi = Cocycle2.from_exponents(F, {(0, 1): 1})
    assert any(psi.class_tag())
    return ModCatDatum(d, F, psi, w={(1, 0): [[1]], (0, 1): [[1]]}, xi=[1, 1])


def zeta8_z4_mcd():
    """Z4 with two letters of degree g, chi(g) = -1, and alpha = zeta_8:
    a conductor the datum alone does not reach."""
    d = CLASSIFY_DATA["z4_theta2"]
    F = Subgroup.full(d.group)
    return ModCatDatum(d, F, Cocycle2.trivial(F), w={(1,): [[1, 0], [0, 1]]},
                       alpha={(0, 1): zeta(8, 1)})


def bosonization_data():
    """Every bench datum, the theta = 0 group algebras, Z4 with theta = 3
    and Z2^3 with theta = 3."""
    out = {}
    for wl in (workloads.tables_slots, workloads.transport_slots,
               workloads.classify_slots):
        for slot in wl():
            for v, obj in enumerate(slot.variants):
                out[f"{slot.name}#{v}"] = serialize.load_datum(obj)[0]
    for orders in ((1,), (6,), (2, 2)):
        out["group" + "x".join(map(str, orders))] = _qls(orders, [], [])
    out["z4_theta3"] = CLASSIFY_DATA["z4_theta3"]
    out["z2^3_theta3"] = _qls((2, 2, 2), [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
                              [(1, 1, 1)] * 3)
    return out


def test_the_bosonization_equals_the_closed_form():
    data = bosonization_data()
    assert len(data) == 41
    for name, d in data.items():
        assert build_bosonization(d).mult == bosonization_mult(d), name


def graded_model_data():
    """Every classify member at 0,1 of Z3, Z4 theta = 2 and Z2 x Z2
    theta = 2, the twisted cocycle on Z2 x Z2 and alpha = zeta_8 over Z4."""
    out = {}
    for name in ("z3", "z4_theta2", "z22_theta2"):
        members = classify.enumerate_modcat_data(CLASSIFY_DATA[name], (0, 1))
        out.update((f"{name}#{k}", mcd) for k, mcd in enumerate(members))
    out["psi"] = twisted_z22_mcd()
    out["zeta8"] = zeta8_z4_mcd()
    return out


def test_the_graded_model_equals_the_closed_form():
    data = graded_model_data()
    assert len(data) == 100
    for name, mcd in data.items():
        K = build_K(mcd)
        assert K.L == mcd.L, name
        assert K.mult == graded_model_mult(mcd), name
    assert data["zeta8"].L == 8


@pytest.mark.parametrize("name", [name for name, _, _ in CONNECTING] + ["psi"])
def test_fixture_tables_equal_the_normal_forms(name):
    if name == "psi":
        tables = built_tables(lambda: build_A(twisted_z22_mcd()))
    else:
        ld = next(ld for other, ld, _ in CONNECTING if other == name)
        tables = built_tables(lambda: build_bigalois(ld))
    assert len(tables) == (2 if name == "psi" else 3)
    for engine, labels, table in tables:
        assert table == normal_form_table(engine, labels)


@pytest.mark.parametrize("name, dim, theta", [("hopf-z8", 64, 1),
                                              ("lifting-z8t2", 32, 2),
                                              ("algebra-z6", 36, 1)])
def test_a_table_normalizes_n_theta_words(name, dim, theta, monkeypatch):
    """Only the outermost normalize calls inside a product table count,
    per table: a reduction recurses, an algebra build also makes the table
    of its U, and each table's proof normalizes its relation words
    besides (``FiniteAlgebra._presentation``)."""
    slot = BENCH_SLOTS[name]
    tables, depth, building = [], [], []
    normalize, product_table = (NormalFormEngine.normalize,
                                NormalFormEngine.product_table)

    def counted(engine, word):
        if building and not depth:
            tables[-1][2].append(word)
        depth.append(1)
        try:
            return normalize(engine, word)
        finally:
            depth.pop()

    def per_table(engine, labels):
        tables.append((len(labels), engine.n_letters, []))
        building.append(1)
        try:
            return product_table(engine, labels)
        finally:
            building.pop()

    monkeypatch.setattr(NormalFormEngine, "normalize", counted)
    monkeypatch.setattr(NormalFormEngine, "product_table", per_table)
    for obj in slot.variants:
        tables.clear()
        build, count = _slot_build(slot.command, obj)
        assert build().dim == dim
        assert len(tables) == count
        assert (dim, theta) in [(n, letters) for n, letters, _ in tables]
        for n, letters, outer in tables:
            assert len(outer) <= n * letters


def test_extend_letters_multiplies_each_letter_chain_once(monkeypatch):
    """On the dim-24 Z6 theta = 2 connecting object: per call, one power of
    each letter, one chain per exponent tuple, one step per label."""
    counts, inside = [], []
    pair_multiply, extend = hopf.pair_multiply, hopf.extend_letters

    def counted(*args):
        if inside:
            counts[-1] += 1
        return pair_multiply(*args)

    def per_call(*args):
        counts.append(0)
        inside.append(1)
        try:
            return extend(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(hopf, "pair_multiply", counted)
    for module in (hopf, comodule, deformation):
        monkeypatch.setattr(module, "extend_letters", per_call)
    G = AbelianGroup((6,))
    g, chi = G.element((1,)), Character(G, (3,))
    B = build_bigalois(LiftingDatum(QlsDatum(G, [g, g], [chi, chi]),
                                    mu=[1, 2], lam={(0, 1): -2}))
    assert B.algebra.dim == 24
    # the bosonization's and the lifting's coproducts, B's coaction, rho:
    # two letter powers, four chain steps over (1, 0), (0, 1), (1, 1) and
    # one group step per label
    assert counts == [2 + 4 + 24] * 4


def _transport_case(ld, mcd=None):
    """B, A and the ledger of a ``transport`` command: A is mcd's algebra
    over B's left Hopf algebra, or without mcd the regular algebra of its
    right one."""
    proofs = CheckReport("proofs")
    B = build_bigalois(ld, proofs)
    A = (regular_coaction(B.right_hopf) if mcd is None
         else build_A(mcd, B.left_hopf, proofs))
    return B, A, proofs


def _fixture_case(B, ld):
    """B with the regular algebra of its right Hopf algebra, or with ld's
    full-subgroup algebra, as ``_criterion_8_pairs`` transports them."""
    A = (regular_coaction(B.right_hopf) if ld is None
         else build_A(full_mcd(ld.datum)))
    return B, A, None


def _z8_regular():
    Z8 = AbelianGroup((8,))
    return _transport_case(LiftingDatum(
        QlsDatum(Z8, [Z8.element((1,))], [Character(Z8, (1,))]), mu=[0]))


def transport_cases() -> dict:
    """Every transport of this module, every input variant of the bench's
    transport slots and the dim-64 Z8 regular transport, each as a
    function returning (B, A, ledger)."""
    cases = {}
    for name, ld, B in CONNECTING:
        cases[f"{name}-regular"] = functools.partial(_fixture_case, B, None)
        cases[f"{name}-full"] = functools.partial(_fixture_case, B, ld)
    for slot in workloads.transport_slots():
        for v, obj in enumerate(slot.variants):
            _, ld, mcd = serialize.load_datum(obj)
            cases[f"{slot.name}#{v}"] = functools.partial(_transport_case,
                                                          ld, mcd)
    cases["z8-regular"] = _z8_regular
    return cases


TRANSPORT_CASES = transport_cases()


def test_transport_cases_cover_every_transport():
    assert len(TRANSPORT_CASES) == 6 + 10 + 1
    # the mixed Z6 pair of this module is the first mixed bench variant
    B, A, proofs = TRANSPORT_CASES["mixed-z6t2-regular#0"]()
    assert A.mult == MIXED[0].mult and A.coaction == MIXED[0].coaction
    assert cotensor(B, A, proofs).mult == MIXED[1].mult


def dumps(T) -> str:
    return serialize.dumps_canonical(serialize.comodule_dump(T))


@pytest.mark.parametrize("name", sorted(TRANSPORT_CASES))
def test_the_letter_table_equals_all_pairs(name):
    B, A, proofs = TRANSPORT_CASES[name]()
    T = cotensor(B, A, proofs)
    want = all_pairs_cotensor(B, A, proofs)
    assert dumps(T) == dumps(want)


@pytest.mark.parametrize("name, products", [("mixed-z6t2-regular#0", 72),
                                            ("link-z222-sub#0", 64),
                                            ("z8-regular", 128)])
def test_cotensor_multiplies_each_letter_column_once(name, products,
                                                     monkeypatch):
    """|S| n products in B tensor A, not n^2: 3 x 24, 4 x 16 and 2 x 64.
    T's own sweep multiplies in U tensor T, through ``hopf``, and is
    guarded by the sweep counts."""
    B, A, proofs = TRANSPORT_CASES[name]()
    calls = []
    multiply = deformation.pair_multiply

    def counted(*args):
        calls.append(1)
        return multiply(*args)

    monkeypatch.setattr(deformation, "pair_multiply", counted)
    T = cotensor(B, A, proofs)
    assert len(calls) == len(T.generators()) * T.dim == products


@pytest.mark.parametrize("name", sorted(TRANSPORT_CASES))
def test_the_block_kernel_gives_the_whole_kernels_algebra(name, monkeypatch):
    """The matching equation solved block by block gives the same space,
    and so the same T byte for byte, as one elimination of all its rows."""
    B, A, proofs = TRANSPORT_CASES[name]()
    T = cotensor(B, A, proofs)
    monkeypatch.setattr(linalg, "left_kernel", whole_left_kernel)
    assert dumps(T) == dumps(cotensor(B, A, proofs))


def test_the_matching_equation_eliminates_only_its_blocks(monkeypatch):
    """On the bench's dim-24 mixed Z6 transport the matching equation has
    576 rows, of which 72 lie in blocks of two or more: 72 augmented
    inserts and 24 kernel rows, against 576 + 24 for one elimination."""
    B, A, proofs = TRANSPORT_CASES["mixed-z6t2-regular#0"]()
    seen = []
    kernel_of = linalg.left_kernel
    monkeypatch.setattr(linalg, "left_kernel",
                        lambda *args: seen.append(args) or kernel_of(*args))
    cotensor(B, A, proofs)
    rows, ncols, L = seen[0]
    calls = []
    insert = linalg.Subspace.insert

    def counted(self, vec):
        calls.append(1)
        return insert(self, vec)

    monkeypatch.setattr(linalg.Subspace, "insert", counted)
    assert kernel_of(rows, ncols, L).dim == 24
    assert len(rows) == 24 * 24
    assert len(calls) <= 96


def test_a_stray_term_in_a_letter_product_is_not_closed(tmp_path, monkeypatch,
                                                        capsys):
    """The first letter product of the mixed Z6 transport gains a term
    outside the cotensor space, which its closure check must catch."""
    multiply = deformation.pair_multiply
    calls = []

    def stray(first, second, x, y):
        out = multiply(first, second, x, y)
        calls.append(1)
        if len(calls) == 1:
            accumulate(out, (first.dim - 1, second.dim - 1), pone(first.L))
        return out

    monkeypatch.setattr(deformation, "pair_multiply", stray)
    B, A, proofs = TRANSPORT_CASES["mixed-z6t2-regular#0"]()
    with pytest.raises(NotClosed):
        cotensor(B, A, proofs)
    calls.clear()
    code, err = _run_broken(tmp_path, monkeypatch, capsys, "mixed-z6t2-regular")
    assert code == 2
    assert err == ("verification failure: cotensor is not closed under the "
                   "product\n")


def _run_broken(tmp_path, monkeypatch, capsys, name):
    monkeypatch.setenv("QLSMODCAT_CACHE_DIR", str(tmp_path / "cache"))
    slot = BENCH_SLOTS[name]
    src = tmp_path / "input.json"
    src.write_text(serialize.dumps_canonical(slot.variants[0]) + "\n")
    code = main([slot.command, str(src), "--out", str(tmp_path / "out.json")])
    return code, capsys.readouterr().err


def test_q_commuting_letters_made_to_commute_fail_the_sweep(tmp_path, monkeypatch,
                                                            capsys):
    swap = deformation.LiftingRules.swap_descending

    def commuting(engine, b, a):
        (coef, word), *rest = swap(engine, b, a)
        return [(-coef, word)] + rest

    monkeypatch.setattr(deformation.LiftingRules, "swap_descending", commuting)
    code, err = _run_broken(tmp_path, monkeypatch, capsys, "lifting-z4t2")
    assert code == 2
    assert "built tables fail the axiom sweep: ['associativity', " \
           "'comult-multiplicative']" in err


def test_a_negated_group_move_fails_verification(tmp_path, monkeypatch, capsys):
    move = comodule.ComoduleRules.move_group_past
    monkeypatch.setattr(comodule.ComoduleRules, "move_group_past",
                        lambda engine, f, a: -move(engine, f, a))
    code, err = _run_broken(tmp_path, monkeypatch, capsys, "algebra-z6")
    assert code == 2
    assert "built tables fail verification: ['unit-left', 'associativity', " \
           "'coaction-multiplicative']" in err


# ------------------------------------------------- wrong relation scalars

def _on_a_twin(kind, change):
    """``product_table`` run, for an engine of class ``kind``, on a copy
    that ``change`` gives one wrong scalar; the table keeps the datum's
    own engine, which its proof reads."""
    plain = NormalFormEngine.product_table

    def product_table(engine, labels):
        if isinstance(engine, kind):
            engine = copy.copy(engine)
            engine._memo = {}
            change(engine)
        return plain(engine, labels)
    return product_table


def _doubled(field):
    def change(holder):
        value = getattr(holder, field)
        setattr(holder, field, {k: v + v for k, v in value.items()}
                if isinstance(value, dict) else [v + v for v in value])
    return change


def _doubled_modcat(field):
    def change(engine):
        engine.mcd = copy.copy(engine.mcd)
        _doubled(field)(engine.mcd)
    return change


def _inverted_character(engine):
    move = engine.move_group_past
    engine.move_group_past = lambda f, a: move(f, a).inv()


# name: (bench slot, engine class, the change, the checks that fail)
WRONG_SCALARS = {
    "mu": ("lifting-z4t2", LiftingRules, _doubled("mu"), ["relation-power"]),
    "lambda": ("lifting-z4t2", LiftingRules, _doubled("lam"),
               ["relation-q-commutation"]),
    "xi": ("algebra-z4t2", ComoduleRules, _doubled_modcat("xi"),
           ["relation-power"]),
    "alpha": ("algebra-z4t2", ComoduleRules, _doubled_modcat("alpha"),
              ["relation-q-commutation"]),
    "chi": ("algebra-z6", ComoduleRules, _inverted_character,
            ["relation-group-letter", "coaction-multiplicative"]),
}


@pytest.mark.parametrize("name", sorted(WRONG_SCALARS))
def test_a_table_with_a_wrong_scalar_fails_its_presentation(
        name, tmp_path, monkeypatch, capsys):
    """A table built with doubled root or link scalars, or with the
    inverse character moving the group past the letters, is the table of
    another datum.  The doubled ones are liftings and algebras too, so
    Light's sweep and the coalgebra and coaction sweeps all pass them;
    the proof from the datum's own presentation names the relation that
    fails, and the command exits 2."""
    slot, kind, change, checks = WRONG_SCALARS[name]
    monkeypatch.setattr(NormalFormEngine, "product_table",
                        _on_a_twin(kind, change))
    code, err = _run_broken(tmp_path, monkeypatch, capsys, slot)
    assert code == 2
    assert err.endswith(f": {checks}\n")


# ------------------------------------ the presentation proof against Light

def _verdicts(alg) -> tuple:
    """(the presentation proof passes, Light's sweep passes) on one table
    with an engine, each with its unit laws."""
    unital = next(alg._unit_failures(), None) is None
    return (unital and not alg._presentation()[1],
            unital and next(alg._associators(alg.generators()), None) is None)


def _fixture_tables():
    """The tables with an engine among the built fixtures of this module."""
    out = []
    for obj in SMALL.values():
        out += [obj, getattr(obj, "hopf", obj)]
    for _, _, B in CONNECTING:
        out += [B.algebra, B.left_hopf, B.right_hopf]
    for mcd in [z6_modcat(), *graded_model_data().values()]:
        A = build_A(mcd)
        out += [A, A.hopf, build_K(mcd)]
    return [t for t in out if t.engine is not None]


def _bench_tables(monkeypatch, tmp_path, workload):
    """The tables with an engine that every input variant of a bench
    workload proves, each command run as the bench runs it."""
    seen = []
    plain = FiniteAlgebra.verify_algebra

    def recorded(self):
        if self.engine is not None:
            seen.append(self)
        return plain(self)

    monkeypatch.setattr(FiniteAlgebra, "verify_algebra", recorded)
    monkeypatch.setenv("QLSMODCAT_CACHE_DIR", str(tmp_path / "cache"))
    src, out = tmp_path / "input.json", tmp_path / "out.json"
    for slot in workloads.WORKLOADS[workload]():
        for obj in slot.variants:
            src.write_text(serialize.dumps_canonical(obj))
            options = ["--no-cache"] if slot.command.startswith("build") else []
            assert main([slot.command, str(src), *slot.options, *options,
                         "--out", str(out)]) == 0
    return seen


@pytest.mark.parametrize("inputs", ["fixtures", "tables", "transport",
                                    "classify"])
def test_the_presentation_proof_agrees_with_lights_sweep(
        inputs, monkeypatch, tmp_path, capsys):
    """Light's sweep, the oracle, passes every table with an engine that
    the fixtures build and that every bench input's command proves, and
    so does the proof from the table's presentation."""
    if inputs == "fixtures":
        tables = _fixture_tables()
    else:
        tables = _bench_tables(monkeypatch, tmp_path, inputs)
        capsys.readouterr()
    assert len(tables) >= 10
    assert [_verdicts(t) for t in tables] == [(True, True)] * len(tables)


@pytest.mark.parametrize("name", sorted(CORRUPTED))
def test_the_presentation_proof_rejects_every_broken_product_cell(name):
    """One product cell negated, doubled, filled with the unit or moved
    to the next basis element never leaves the table the algebra its
    datum presents; Light's sweep fails each table that breaks a law,
    and the proof fails each of those and every other."""
    obj, _ = CORRUPTED[name]
    verdicts = [_verdicts(broken)
                for _, _, broken in _broken_tables(obj, ("mult",))]
    assert len(verdicts) > obj.dim
    assert not any(proof for proof, _ in verdicts)
