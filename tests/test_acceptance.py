"""Acceptance checks, one criterion per test with a pass/fail line each.

Criterion 8 ends with transport along the connecting objects. It checks
what the cotensor equivalence of comodule categories keeps: dimension,
coinvariant dimension, Galois bijectivity, the simplicity verdict and
the Loewy layer dims. It also asserts the counterexample to the claim
that transport keeps Wedderburn block data: on the dim-8 root lifting
the regular algebra's blocks (1, 1, 4) become (4, 4).
"""

from __future__ import annotations

import json
from math import prod

from qlsmodcat import cli, linalg
from qlsmodcat.classify import (
    classification_report,
    dedupe,
    enumerate_modcat_data,
)
from qlsmodcat.cocycles import Cocycle2
from qlsmodcat.comodule import (
    ModCatDatum,
    build_A,
    check_simplicity,
    coinvariants,
    galois_map,
    loewy_filtration,
    regular_coaction,
    simple_modules,
    trivial_coaction,
    verify_loewy,
)
from qlsmodcat.cyclo import CycloNumber
from qlsmodcat.deformation import (
    LiftingDatum,
    build_bigalois,
    build_lifting,
    cotensor,
    deform_comodule_algebra,
    group_sigma,
    transport,
)
from qlsmodcat.errors import HypothesisViolated
from qlsmodcat.groups import AbelianGroup, Subgroup
from qlsmodcat.hopf import QlsDatum, build_bosonization, group_hopf
from qlsmodcat.serialize import datum_to_json, dumps_canonical

from criterion_checks import (associated_graded, check_degree_one_generation,
                              exterior_clifford_check)
from qls_fixtures import (
    clifford_z2_datum,
    clifford_z22_datum,
    sweedler_datum,
    z4_datum,
    z4_mu_datum,
    z22_lambda_datum,
)


LINES: list[str] = []


def _line(n: int, ok: bool, title: str) -> None:
    msg = f"criterion {n}: {'PASS' if ok else 'FAIL'} ({title})"
    LINES.append(msg)
    print(msg)


def full_mcd(d, xi=None, alpha=None):
    """Full subgroup, trivial cocycle, all letters in coordinate rows."""
    F = Subgroup.full(d.group)
    seen: dict = {}
    for i, el in enumerate(d.g):
        seen.setdefault(el.exps, []).append(i)
    w = {exps: [[1 if j == k else 0 for k in range(len(idcs))]
                for j in range(len(idcs))]
         for exps, idcs in seen.items()}
    return ModCatDatum(d, F, Cocycle2.trivial(F), w=w, xi=xi, alpha=alpha)


def test_criterion_1_axiom_sweeps_on_all_builders():
    bad = []
    for orders in ((2,), (4,), (2, 2)):
        H = group_hopf(AbelianGroup(orders))
        if not H.verify().ok:
            bad.append(("group", orders, H.verify().checks_failed()))

    cases = [
        (sweedler_datum(), 4),
        (clifford_z2_datum(), 8),
        (clifford_z22_datum(), 16),
    ]
    for d, dim in cases:
        H = build_bosonization(d)
        if H.dim != dim:
            bad.append(("bosonization-dim", d.group.orders, H.dim, dim))
        if not H.verify().ok:
            bad.append(("bosonization", d.group.orders,
                        H.verify().checks_failed()))

    liftings = [
        (LiftingDatum(z4_mu_datum(), mu=[1]), 8),
        (LiftingDatum(z22_lambda_datum(), lam={(0, 1): 1}), 16),
    ]
    for ld, dim in liftings:
        H = build_lifting(ld)
        if H.dim != dim:
            bad.append(("lifting-dim", H.dim, dim))
        if not H.verify().ok:
            bad.append(("lifting", H.verify().checks_failed()))

    _line(1, not bad, "exact axiom sweeps on group, graded and lifted tables")
    assert not bad, bad


def test_criterion_2_dimension_laws_on_generated_data():
    bad = []
    for d in (sweedler_datum(), z4_datum(), clifford_z2_datum(),
              clifford_z22_datum(), z4_mu_datum(), z22_lambda_datum()):
        H = build_bosonization(d)
        want = d.group.order * prod(d.N)
        if H.dim != want:
            bad.append(("graded", d.group.orders, H.dim, want))

    count = 0
    for d in (sweedler_datum(), clifford_z2_datum()):
        for mcd in enumerate_modcat_data(d):
            count += 1
            A = build_A(mcd)
            want = mcd.F.order * prod(mcd.heights)
            if A.dim != want or A.dim != mcd.dim():
                bad.append(("algebra", mcd.F.key(), A.dim, want))
    if count < 10:
        bad.append(("too-few-data", count))

    _line(2, not bad, f"dimension laws exact on {count} generated data")
    assert not bad, bad


def test_criterion_3_filtration_graded_coinvariants_galois():
    bad = []
    full = 0
    for d in (sweedler_datum(), clifford_z2_datum()):
        for mcd in enumerate_modcat_data(d):
            A = build_A(mcd)
            rep = verify_loewy(A)
            if not rep.ok:
                bad.append(("loewy", mcd.F.key(), rep.checks_failed()))
                continue
            associated_graded(A)  # raises on any layer or table mismatch
            sp = coinvariants(A)
            if sp.dim != 1 or not sp.contains(dict(A.unit)):
                bad.append(("coinvariants", mcd.F.key(), sp.dim))
            if (mcd.F.order == d.group.order
                    and mcd.n_letters == d.theta):
                full += 1
                if not galois_map(A).bijective:
                    bad.append(("galois", mcd.F.key()))
    if full == 0:
        bad.append(("no-full-data",))

    _line(3, not bad,
          f"filtration, graded model, coinvariants, {full} full Galois maps")
    assert not bad, bad


def test_criterion_4_degree_one_generation():
    bad = []
    one = linalg.pone

    d = sweedler_datum()
    U = build_bosonization(d)
    unit = {U.index[((0,), (0,))]: one(U.L)}
    x = {U.index[((1,), (0,))]: one(U.L)}
    if not check_degree_one_generation(d, [[unit], [x]], U).ok:
        bad.append(("coordinate", "single-letter"))

    d = clifford_z2_datum()
    U = build_bosonization(d)
    ident = (0,)
    vec = lambda r: {U.index[(r, ident)]: one(U.L)}
    coordinate = [
        [[vec((0, 0))]],
        [[vec((0, 0))], [vec((1, 0))]],
        [[vec((0, 0))], [vec((0, 1))]],
        [[vec((0, 0))], [vec((1, 0)), vec((0, 1))], [vec((1, 1))]],
    ]
    for comps in coordinate:
        if not check_degree_one_generation(d, comps, U).ok:
            bad.append(("coordinate", len(comps)))

    diag = {U.index[((1, 0), ident)]: one(U.L),
            U.index[((0, 1), ident)]: one(U.L)}
    if not check_degree_one_generation(d, [[vec((0, 0))], [diag]], U).ok:
        bad.append(("diagonal",))

    # a flag whose top class is not compatible with the coproduct
    fabricated = [[vec((0, 0))], [vec((1, 0))], [vec((1, 1))]]
    try:
        check_degree_one_generation(d, fabricated, U)
        bad.append(("fabricated-flag-accepted",))
    except HypothesisViolated as e:
        if e.which != "coproduct-compatibility":
            bad.append(("wrong-rejection", e.which))

    _line(4, not bad, "degree-one generation incl. diagonal and rejection")
    assert not bad, bad


def test_criterion_5_classification_sweep_and_dedupe():
    bad = []
    report = classification_report(sweedler_datum())
    if report.totals != {"rows": 4, "data": 6, "free_parameters": 2}:
        bad.append(("totals", report.totals))
    top_rows = [r for r in report.rows if r.w_label == "{x0}"]
    if len(top_rows) != 2 or any(r.free_parameters != 1 for r in top_rows):
        bad.append(("full-subspace-rows",
                    [(r.subgroup, r.free_parameters) for r in top_rows]))

    reps = dedupe(enumerate_modcat_data(sweedler_datum()))
    if len(reps) != 6:
        bad.append(("distinct-scalars-merged", len(reps)))

    G = AbelianGroup((2, 2))
    gd = QlsDatum(G, [], [])
    F = Subgroup.full(G)
    psi = Cocycle2.from_exponents(F, {(0, 1): 1})
    minus = CycloNumber.from_rational(-1, 1)
    unit = CycloNumber.one(1)
    mu = {f: (minus if f.exps == (1, 0) else unit) for f in F}
    m1 = ModCatDatum(gd, F, psi)
    m2 = ModCatDatum(gd, F, psi.coboundary_twist(mu))
    if len(dedupe([m1, m2])) != 1:
        bad.append(("class-equal-cocycles-kept",))
    if len(dedupe([m1, m2], strict=True)) != 2:
        bad.append(("strict-mode-merged",))

    _line(5, not bad, "6 representatives in 4 rows, class-aware dedupe")
    assert not bad, bad


def test_criterion_6_simplicity_verdicts():
    bad = []
    cases = [
        ("sweedler", full_mcd(sweedler_datum(), xi=[1])),
        ("z4", full_mcd(z4_datum(), xi=[1])),
        ("clifford_z2", full_mcd(clifford_z2_datum(), xi=[1, 1],
                                 alpha={(0, 1): 2})),
        ("clifford_z22", full_mcd(clifford_z22_datum(), xi=[1, 1])),
        ("z4_mu", full_mcd(z4_mu_datum(), xi=[1])),
        ("z22_lambda", full_mcd(z22_lambda_datum(), xi=[1, 1])),
    ]
    for name, mcd in cases:
        v = check_simplicity(build_A(mcd))
        if v.verdict != "split-simple":
            bad.append((name, v.verdict))

    control = check_simplicity(trivial_coaction(group_hopf(AbelianGroup((2, 2)))))
    if control.verdict != "reducible":
        bad.append(("control", control.verdict))
    elif not (0 < control.witness.dim < 4):
        bad.append(("control-witness", control.witness.dim))

    _line(6, not bad, "split-simple on full data, reducible control")
    assert not bad, bad


def test_criterion_7_exterior_and_clifford_tables():
    bad = []
    d = clifford_z2_datum()
    F = Subgroup.trivial(d.group)

    def mcd_of(xi, alpha):
        al = {(0, 1): alpha} if alpha else None
        return ModCatDatum(d, F, Cocycle2.trivial(F),
                           w={(1,): [[1, 0], [0, 1]]}, xi=list(xi), alpha=al)

    choices = [((0, 0), 0), ((1, 1), 0), ((1, 1), 2), ((0, 1), 1)]
    for xi, alpha in choices:
        rep = exterior_clifford_check(d, mcd_of(xi, alpha))
        if not rep.ok:
            bad.append((xi, alpha, rep.checks_failed()))

    # Gram matrices [[2,0],[0,2]] and [[0,1],[1,2]] are nondegenerate
    for xi, alpha in (((1, 1), 0), ((0, 1), 1)):
        rep = simple_modules(build_A(mcd_of(xi, alpha)))
        if (rep.radical_dim, rep.block_data, rep.module_dims()) != (0, (4,), [2]):
            bad.append(("blocks", xi, alpha, rep.block_data))

    _line(7, not bad, "generator-insertion oracle and matrix block on 4 forms")
    assert not bad, bad


def test_criterion_8_connecting_objects_and_transport():
    bad = []
    liftings = [
        ("trivial", LiftingDatum(sweedler_datum())),
        ("z4_mu", LiftingDatum(z4_mu_datum(), mu=[1])),
        ("z22_lambda", LiftingDatum(z22_lambda_datum(), lam={(0, 1): 1})),
    ]
    built = []
    for name, ld in liftings:
        B = build_bigalois(ld)
        built.append((name, B))
        if not B.verify().ok:
            bad.append((name, "invariants", B.verify().checks_failed()))
        if not (B.left_galois_bijective() and B.right_galois_bijective()):
            bad.append((name, "galois-not-bijective"))

    for name, B in built:
        for H in (B.right_hopf, B.left_hopf):
            A = regular_coaction(H)
            if cotensor(B, A).dim != A.dim:
                bad.append((name, "cotensor-dimension"))

    # the trivial connecting object must hand back the algebra unchanged
    d = sweedler_datum()
    F = Subgroup.full(d.group)
    A = build_A(ModCatDatum(d, F, Cocycle2.trivial(F), w={(1,): [[1]]}, xi=[1]))
    T, rep = transport(built[0][1], A)
    if not rep.ok:
        bad.append(("trivial-transport", rep.checks_failed()))
    if not (T.labels == A.labels and T.mult == A.mult
            and T.coaction == A.coaction):
        bad.append(("trivial-transport", "tables-differ"))

    # twisting the regular algebra by a group cocycle must reproduce the
    # cocycle-twisted tables directly
    G = AbelianGroup((2, 2))
    gd = QlsDatum(G, [], [])
    Fg = Subgroup.full(G)
    plain = build_A(ModCatDatum(gd, Fg, Cocycle2.trivial(Fg)))
    psi = Cocycle2.from_exponents(Fg, {(0, 1): 1})
    twisted = build_A(ModCatDatum(gd, Fg, psi))
    M = deform_comodule_algebra(plain, group_sigma(plain.hopf, psi))
    if M.mult != twisted.mult or M.labels != twisted.labels:
        bad.append(("sigma-structure-constants",))

    # B □_H − is a monoidal equivalence of comodule categories
    # (Schauenburg, "Hopf bi-Galois extensions", 1996), and B is cleft, so
    # it keeps dimensions. It sends the unit object to the unit object
    # (coinvariants), keeps Galois bijectivity and simplicity, and keeps
    # the socle series of A as a comodule, which is the Loewy filtration
    # rho^-1(H_n ⊗ A).
    invariants = (
        ("dim", lambda X: X.dim),
        ("coinvariant-dim", lambda X: coinvariants(X).dim),
        ("galois-bijective", lambda X: galois_map(X).bijective),
        ("simplicity-verdict", lambda X: check_simplicity(X).verdict),
        ("loewy-layers", lambda X: [sp.dim for sp in loewy_filtration(X)]),
    )
    reports = {}
    for (name, ld), (_, B) in zip(liftings, built):
        for kind, A in (("regular", regular_coaction(B.right_hopf)),
                        ("full", build_A(full_mcd(ld.datum)))):
            T, rep = transport(B, A)
            reports[(name, kind)] = rep
            if not T.verify().ok:
                bad.append((name, kind, "transported-tables-invalid"))
            for inv, of in invariants:
                pair = (of(A), of(T))
                if pair[0] != pair[1]:
                    bad.append((name, kind, inv, pair))

    # Block data is not kept: the functor is not an algebra isomorphism.
    # The dim-8 root lifting (Z4, chi(g) = -1, mu = 1) has x^2 = 1 - g^2
    # with g^2 central. On g^2 = 1 the regular algebra has x^2 = 0, two
    # 1-dim simples and radical dim 2; on g^2 = -1 it is M_2: blocks
    # (1, 1, 4). Its image has x^2 an invertible scalar, so it is
    # M_2 ⊕ M_2: blocks (4, 4), radical 0.
    witness = dict(reports[("z4_mu", "regular")].failures)
    if witness.get("block-data-preserved") != ((1, 1, 4), (4, 4)):
        bad.append(("z4_mu", "block-data-counterexample",
                    witness.get("block-data-preserved")))
    for kind in ("regular", "full"):
        if not reports[("trivial", kind)].ok:
            bad.append(("trivial", kind,
                        reports[("trivial", kind)].checks_failed()))

    _line(8, not bad, "connecting objects, cotensor, transport invariants")
    assert not bad, bad


def test_criterion_9_classify_artifacts_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.setenv("QLSMODCAT_CACHE_DIR", str(tmp_path / "cache"))
    src = tmp_path / "datum.json"
    src.write_text(dumps_canonical(datum_to_json(sweedler_datum())) + "\n")
    artifact = tmp_path / "datum.classify.json"

    assert cli.main(["classify", str(src)]) == 0
    first = artifact.read_bytes()
    assert cli.main(["classify", str(src)]) == 0
    ok = artifact.read_bytes() == first and json.loads(first)

    _line(9, bool(ok), "repeated classify runs emit identical bytes")
    assert ok
