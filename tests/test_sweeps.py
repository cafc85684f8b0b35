"""The comodule-algebra axiom sweeps, one corrupted table cell at a time.

H is a comodule algebra over itself through its coproduct, and a right
coaction is a left one over the reversed coproduct, so the Hopf, the
comodule-algebra and the biGalois checks share one sweep.  Each case
below breaks one cell of a valid dim-4 Sweedler table and pins every
failure the verifier reports, with the basis labels written as 1, g, x
and xg.  ``ComoduleAlgebra.verify`` and ``BiGaloisRep.verify`` are pinned
in order; ``FiniteHopf.verify`` is pinned as a multiset, because its
per-element checks may run in any order.
"""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from qlsmodcat import hopf
from qlsmodcat.cli import main
from qlsmodcat.cocycles import Cocycle2
from qlsmodcat.comodule import (ComoduleAlgebra, ModCatDatum, build_A,
                                regular_coaction)
from qlsmodcat.cyclo import CycloNumber
from qlsmodcat.deformation import (BiGaloisRep, LiftingDatum, build_bigalois,
                                   cotensor, deform_hopf)
from qlsmodcat.errors import CocycleInvalid, ConfluenceFailure, IsoCheckFailed
from qlsmodcat.groups import AbelianGroup, Character, Subgroup
from qlsmodcat.hopf import (FiniteAlgebra, FiniteHopf, QlsDatum,
                            build_bosonization)
from qlsmodcat.serialize import datum_to_json, load_datum
from qls_fixtures import (sweedler_datum, trivial_sigma, z4_mu_datum,
                          z4_theta2_obj, z6_modcat, z22_link_obj)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "pipebench"))
import workloads  # noqa: E402

NAMES = {((0,), (0,)): "1", ((0,), (1,)): "g",
         ((1,), (0,)): "x", ((1,), (1,)): "xg"}


def short(witness):
    """The witness with every basis label replaced by its name."""
    if witness in NAMES:
        return NAMES[witness]
    if isinstance(witness, tuple):
        return tuple(short(w) for w in witness)
    return witness


def failures(rep):
    return [(name, short(w)) for name, w in rep.failures]


def scalar(n, L):
    return CycloNumber.from_rational(n, L).raw()


def hopf_case(check):
    H = build_bosonization(sweedler_datum())
    i = {name: H.index[lab] for lab, name in NAMES.items()}
    mult = {k: dict(v) for k, v in H.mult.items()}
    comult = [dict(v) for v in H.comult]
    counit = list(H.counit)
    antipode = [dict(v) for v in H.antipode]
    if check == "comult-unital":
        comult[i["1"]] = {(i["1"], i["1"]): scalar(2, H.L)}
    elif check == "coassociativity":
        comult[i["x"]][(i["g"], i["g"])] = scalar(1, H.L)
    elif check == "counit-law":
        counit[i["x"]] = scalar(1, H.L)
    elif check == "comult-multiplicative":
        del comult[i["xg"]][min(comult[i["xg"]])]
    elif check == "counit-multiplicative":
        mult[(i["x"], i["x"])] = {i["1"]: scalar(1, H.L)}
    elif check == "antipode":
        antipode[i["g"]] = {i["1"]: scalar(1, H.L)}
    return FiniteHopf(H.labels, H.L, mult, dict(H.unit), comult, counit,
                      antipode, degree=H.degree, graded=H.graded)


def comodule_case(check):
    d = sweedler_datum()
    F = Subgroup.full(d.group)
    A = build_A(ModCatDatum(d, F, Cocycle2.trivial(F), w={(1,): [[1]]},
                            xi=[1]))
    i = {name: A.index[lab] for lab, name in NAMES.items()}
    u = {name: A.hopf.index[lab] for lab, name in NAMES.items()}
    coaction = [dict(v) for v in A.coaction]
    if check == "coaction-unital":
        coaction[i["1"]] = {(u["1"], i["1"]): scalar(2, A.L)}
    elif check == "coaction-coassociative":
        coaction[i["x"]][(u["g"], i["g"])] = scalar(1, A.L)
    elif check == "coaction-counital":
        del coaction[i["x"]][(u["g"], i["x"])]
    elif check == "coaction-multiplicative":
        del coaction[i["xg"]][min(coaction[i["xg"]])]
    return ComoduleAlgebra(A.labels, A.L, A.mult, dict(A.unit), A.hopf,
                           coaction, degree=A.degree, mcd=A.mcd)


def bigalois_case(check):
    B = build_bigalois(LiftingDatum(sweedler_datum()))
    alg, H = B.algebra, B.right_hopf
    b = {name: alg.index[lab] for lab, name in NAMES.items()}
    h = {name: H.index[lab] for lab, name in NAMES.items()}
    rho = [dict(v) for v in B.right_coaction]
    if check == "right-coaction-unital":
        rho[b["1"]] = {(b["1"], h["1"]): scalar(2, alg.L)}
    elif check == "right-coaction-coassociative":
        rho[b["x"]][(b["g"], h["g"])] = scalar(1, alg.L)
    elif check == "right-coaction-counital":
        del rho[b["x"]][(b["x"], h["1"])]
    elif check == "right-coaction-multiplicative":
        del rho[b["xg"]][min(rho[b["xg"]])]
    elif check == "coactions-commute":
        rho[b["x"]][(b["1"], h["x"])] = scalar(1, alg.L)
    return BiGaloisRep(alg, B.left_hopf, H, B.left_coaction, rho,
                       B.counit_functional)


# every failure each broken cell gives, with the labels named as in NAMES
EXPECTED = {'comult-unital': [('comult-unital', '1'),
                   ('counit-law', '1'),
                   ('antipode', '1'),
                   ('coassociativity', 'x'),
                   ('coassociativity', 'xg'),
                   ('comult-multiplicative', ('1', '1')),
                   ('comult-multiplicative', ('1', 'g')),
                   ('comult-multiplicative', ('1', 'x')),
                   ('comult-multiplicative', ('1', 'xg')),
                   ('comult-multiplicative', ('g', '1')),
                   ('comult-multiplicative', ('g', 'g')),
                   ('comult-multiplicative', ('x', '1')),
                   ('comult-multiplicative', ('xg', '1'))],
 'coassociativity': [('coassociativity', 'x'),
                     ('counit-law', 'x'),
                     ('antipode', 'x'),
                     ('coradical-degree', ('x', 'g', 'g')),
                     ('comult-multiplicative', ('g', 'x')),
                     ('comult-multiplicative', ('g', 'xg')),
                     ('comult-multiplicative', ('x', 'g')),
                     ('comult-multiplicative', ('x', 'x')),
                     ('comult-multiplicative', ('x', 'xg')),
                     ('comult-multiplicative', ('xg', 'g')),
                     ('comult-multiplicative', ('xg', 'x'))],
 'counit-law': [('counit-law', 'x'),
                ('antipode', 'x'),
                ('counit-multiplicative', ('g', 'x')),
                ('counit-multiplicative', ('g', 'xg')),
                ('counit-multiplicative', ('x', 'g')),
                ('counit-multiplicative', ('x', 'x')),
                ('counit-multiplicative', ('xg', 'g'))],
 'comult-multiplicative': [('counit-law', 'xg'),
                           ('antipode', 'xg'),
                           ('comult-multiplicative', ('g', 'x')),
                           ('comult-multiplicative', ('g', 'xg')),
                           ('comult-multiplicative', ('x', 'g')),
                           ('comult-multiplicative', ('x', 'xg')),
                           ('comult-multiplicative', ('xg', 'g')),
                           ('comult-multiplicative', ('xg', 'x'))],
 'counit-multiplicative': [('associativity', ('g', 'x', 'x')),
                           ('associativity', ('g', 'xg', 'x')),
                           ('associativity', ('x', 'g', 'xg')),
                           ('associativity', ('x', 'x', 'g')),
                           ('associativity', ('x', 'x', 'xg')),
                           ('associativity', ('x', 'xg', 'g')),
                           ('associativity', ('xg', 'g', 'x')),
                           ('associativity', ('xg', 'x', 'x')),
                           ('comult-multiplicative', ('x', 'x')),
                           ('counit-multiplicative', ('x', 'x'))],
 'antipode': [('antipode', 'g'), ('antipode', 'x'), ('antipode', 'xg')],
 'coaction-unital': [('coaction-unital', '1'),
                     ('coaction-coassociative', '1'),
                     ('coaction-counital', '1'),
                     ('coaction-coassociative', 'x'),
                     ('coaction-multiplicative', ('1', '1')),
                     ('coaction-multiplicative', ('1', 'g')),
                     ('coaction-multiplicative', ('1', 'x')),
                     ('coaction-multiplicative', ('1', 'xg')),
                     ('coaction-multiplicative', ('g', '1')),
                     ('coaction-multiplicative', ('g', 'g')),
                     ('coaction-multiplicative', ('x', '1')),
                     ('coaction-multiplicative', ('x', 'x')),
                     ('coaction-multiplicative', ('xg', '1')),
                     ('coaction-multiplicative', ('xg', 'xg'))],
 'coaction-coassociative': [('coaction-coassociative', 'x'),
                            ('coaction-counital', 'x'),
                            ('coaction-multiplicative', ('g', 'x')),
                            ('coaction-multiplicative', ('g', 'xg')),
                            ('coaction-multiplicative', ('x', 'g')),
                            ('coaction-multiplicative', ('x', 'x')),
                            ('coaction-multiplicative', ('x', 'xg')),
                            ('coaction-multiplicative', ('xg', 'g')),
                            ('coaction-multiplicative', ('xg', 'x'))],
 'coaction-counital': [('coaction-coassociative', 'x'),
                       ('coaction-counital', 'x'),
                       ('coaction-multiplicative', ('g', 'x')),
                       ('coaction-multiplicative', ('g', 'xg')),
                       ('coaction-multiplicative', ('x', 'g')),
                       ('coaction-multiplicative', ('x', 'x')),
                       ('coaction-multiplicative', ('x', 'xg')),
                       ('coaction-multiplicative', ('xg', 'g')),
                       ('coaction-multiplicative', ('xg', 'x'))],
 'coaction-multiplicative': [('coaction-coassociative', 'xg'),
                             ('coaction-counital', 'xg'),
                             ('coaction-multiplicative', ('g', 'x')),
                             ('coaction-multiplicative', ('g', 'xg')),
                             ('coaction-multiplicative', ('x', 'g')),
                             ('coaction-multiplicative', ('x', 'xg')),
                             ('coaction-multiplicative', ('xg', 'g')),
                             ('coaction-multiplicative', ('xg', 'x')),
                             ('coaction-multiplicative', ('xg', 'xg'))],
 'right-coaction-unital': [('right-coaction-unital', '1'),
                           ('right-coaction-coassociative', '1'),
                           ('right-coaction-counital', '1'),
                           ('right-coaction-coassociative', 'xg'),
                           ('right-coaction-multiplicative', ('1', '1')),
                           ('right-coaction-multiplicative', ('1', 'g')),
                           ('right-coaction-multiplicative', ('1', 'x')),
                           ('right-coaction-multiplicative', ('1', 'xg')),
                           ('right-coaction-multiplicative', ('g', '1')),
                           ('right-coaction-multiplicative', ('g', 'g')),
                           ('right-coaction-multiplicative', ('x', '1')),
                           ('right-coaction-multiplicative', ('xg', '1')),
                           ('coactions-commute', 'x')],
 'right-coaction-coassociative': [('right-coaction-coassociative', 'x'),
                                  ('right-coaction-counital', 'x'),
                                  ('right-coaction-multiplicative',
                                   ('g', 'x')),
                                  ('right-coaction-multiplicative',
                                   ('g', 'xg')),
                                  ('right-coaction-multiplicative',
                                   ('x', 'g')),
                                  ('right-coaction-multiplicative',
                                   ('x', 'x')),
                                  ('right-coaction-multiplicative',
                                   ('x', 'xg')),
                                  ('right-coaction-multiplicative',
                                   ('xg', 'g')),
                                  ('right-coaction-multiplicative',
                                   ('xg', 'x'))],
 'right-coaction-counital': [('right-coaction-coassociative', 'x'),
                             ('right-coaction-counital', 'x'),
                             ('right-coaction-multiplicative', ('g', 'x')),
                             ('right-coaction-multiplicative', ('g', 'xg')),
                             ('right-coaction-multiplicative', ('x', 'g')),
                             ('right-coaction-multiplicative', ('x', 'xg')),
                             ('right-coaction-multiplicative', ('xg', 'g')),
                             ('right-coaction-multiplicative', ('xg', 'x')),
                             ('coactions-commute', 'x')],
 'right-coaction-multiplicative': [('right-coaction-multiplicative',
                                    ('g', 'x')),
                                   ('right-coaction-multiplicative',
                                    ('g', 'xg')),
                                   ('right-coaction-multiplicative',
                                    ('x', 'g')),
                                   ('right-coaction-multiplicative',
                                    ('x', 'xg')),
                                   ('right-coaction-multiplicative',
                                    ('xg', 'g')),
                                   ('right-coaction-multiplicative',
                                    ('xg', 'x'))],
 'coactions-commute': [('right-coaction-coassociative', 'x'),
                       ('right-coaction-multiplicative', ('g', 'x')),
                       ('right-coaction-multiplicative', ('g', 'xg')),
                       ('right-coaction-multiplicative', ('x', 'g')),
                       ('right-coaction-multiplicative', ('x', 'x')),
                       ('right-coaction-multiplicative', ('x', 'xg')),
                       ('right-coaction-multiplicative', ('xg', 'g')),
                       ('right-coaction-multiplicative', ('xg', 'x')),
                       ('coactions-commute', 'x')]}


HOPF_CHECKS = ["comult-unital", "coassociativity", "counit-law",
               "comult-multiplicative", "counit-multiplicative", "antipode"]
COMODULE_CHECKS = ["coaction-unital", "coaction-coassociative",
                   "coaction-counital", "coaction-multiplicative"]
BIGALOIS_CHECKS = ["right-coaction-unital", "right-coaction-coassociative",
                   "right-coaction-counital", "right-coaction-multiplicative",
                   "coactions-commute"]


def test_fixtures_pass_every_sweep():
    assert hopf_case(None).verify().ok
    assert comodule_case(None).verify().ok
    assert bigalois_case(None).verify().ok


@pytest.mark.parametrize("check", HOPF_CHECKS)
def test_hopf_sweep_on_one_broken_cell(check):
    got = failures(hopf_case(check).verify())
    assert check in [name for name, _ in got]
    assert len(set(got)) == len(got)
    assert Counter(got) == Counter(EXPECTED[check])


@pytest.mark.parametrize("check", COMODULE_CHECKS)
def test_comodule_sweep_on_one_broken_cell(check):
    got = failures(comodule_case(check).verify())
    assert check in [name for name, _ in got]
    assert len(set(got)) == len(got)
    assert got == EXPECTED[check]


@pytest.mark.parametrize("check", BIGALOIS_CHECKS)
def test_bigalois_sweep_on_one_broken_cell(check):
    got = failures(bigalois_case(check).verify())
    assert check in [name for name, _ in got]
    assert len(set(got)) == len(got)
    assert got == EXPECTED[check]


def test_build_bigalois_sweeps_the_algebra_once(monkeypatch):
    """B's algebra, its left coacting bosonization U and the lifting H
    that coacts on the right are each swept once: three different tables
    of dim 8, all in one ledger."""
    calls, tables = [], []
    plain = FiniteAlgebra.verify_algebra

    def counted(self):
        calls.append(self.dim)
        tables.append(self)
        return plain(self)

    monkeypatch.setattr(FiniteAlgebra, "verify_algebra", counted)
    B = build_bigalois(LiftingDatum(z4_mu_datum(), mu=[1]))
    assert calls == [8, 8, 8]
    assert tables == [B.algebra, B.left_hopf, B.right_hopf]
    for i, table in enumerate(tables):
        for other in tables[:i]:
            assert not FiniteAlgebra.same_tables(table, other)


def test_right_sweep_multiplies_generator_pairs_only(monkeypatch):
    """The dim-24 connecting object of the mixed Z6 lifting (q = -1, root
    scalars 1 and 2, link scalar -2) is proven right-coaction
    multiplicative from its |S| n = 72 generator pairs, read off the
    ledger that proved B and H, not from all n^2 = 576 pairs."""
    Z6 = AbelianGroup((6,))
    g, chi = Z6.element((1,)), Character(Z6, (3,))
    ld = LiftingDatum(QlsDatum(Z6, [g, g], [chi, chi]), mu=[1, 2],
                      lam={(0, 1): -2})
    calls = []
    plain = hopf.pair_multiply

    def counted(first, second, x, y):
        calls.append((first, second))
        return plain(first, second, x, y)

    monkeypatch.setattr(hopf, "pair_multiply", counted)
    B = build_bigalois(ld)
    n = B.algebra.dim
    assert n == 24
    right = sum(first is B.right_hopf and second is B.algebra
                for first, second in calls)
    assert right <= len(B.algebra.generators()) * n == 72


def test_hopf_sweep_multiplies_on_generators_only(monkeypatch):
    """The dim-64 Z8 bosonization with q = zeta_8 is proven from S = {g, x}:
    about |S| n^2 products instead of the n^3 of every basis triple.

    Every product of the sweep but associativity makes one
    ``vec_addmul`` per nonzero term: the whole verify makes 1,408 calls.
    The associativity sweep compares this table's one-term sides without
    accumulating (see the next test); accumulating every nonzero term of
    every first factor's triples would take 122,880 calls."""
    G = AbelianGroup((8,))
    H = build_bosonization(QlsDatum(G, [G.element((1,))],
                                    [Character(G, (1,))]))
    assert H.dim == 64
    assert [H.labels[s] for s in H.generators()] == [((0,), (1,)),
                                                     ((1,), (0,))]
    calls = []
    plain = hopf.vec_addmul

    def counted(acc, vec, coef, red):
        calls.append(1)
        return plain(acc, vec, coef, red)

    monkeypatch.setattr(hopf, "vec_addmul", counted)
    assert H.verify().ok
    assert len(calls) <= 20000


def hopf_z8_bosonizations():
    """The dim-64 Z8 bosonizations of every variant of the pipebench
    ``hopf-z8`` slot."""
    slot = next(s for s in workloads.tables_slots() if s.name == "hopf-z8")
    return [build_bosonization(load_datum(obj)[0]) for obj in slot.variants]


def test_associativity_compares_only_triples_with_a_nonzero_side(monkeypatch):
    """Each Z8 bosonization (q = zeta_8, |S| = 2, 2,304 nonzero cells of
    4,096) is proven associative from 4,608 of its |S| n^2 = 8,192
    generator triples: at every other triple, row j and each row m of
    e_i e_j are empty in column k, so both sides are zero.  Every nonzero
    side of this table is one scaled cell, so no triple is accumulated."""
    compared, accumulated = [], []
    columns, plain = hopf._columns, hopf.vec_addmul

    def counted_columns(rows, ij, row_j):
        ks = columns(rows, ij, row_j)
        compared.append(len(ks))
        return ks

    def counted_addmul(acc, vec, coef, red):
        accumulated.append(1)
        return plain(acc, vec, coef, red)

    monkeypatch.setattr(hopf, "_columns", counted_columns)
    monkeypatch.setattr(hopf, "vec_addmul", counted_addmul)
    for H in hopf_z8_bosonizations():
        gens = H.generators()
        assert (H.dim, len(gens), sum(map(bool, H.mult.values()))) == (64, 2, 2304)
        compared.clear()
        assert H.verify_algebra().ok
        assert 0 < sum(compared) <= 4608
        accumulated.clear()
        assert next(H._associators(gens), None) is None
        assert not accumulated


def test_comodule_sweep_multiplies_generator_pairs_only(monkeypatch):
    """The dim-36 algebra over Z6 (q = zeta_6, F = Z6, xi = 2) is proven
    multiplicative from its |S| n = 72 generator pairs once its coacting
    bosonization is proven; without that proof all n^2 = 1,296 pairs are
    multiplied.  A pair that fails still starts the full sweep."""
    A = build_A(z6_modcat())
    assert A.dim == A.hopf.dim == 36
    gens = A.generators()
    assert len(gens) * A.dim == 72
    calls = []
    plain = hopf.pair_multiply

    def counted(*args):
        calls.append(1)
        return plain(*args)

    monkeypatch.setattr(hopf, "pair_multiply", counted)
    assert A.verify().ok
    assert len(calls) <= 72

    calls.clear()
    coaction = [dict(v) for v in A.coaction]
    del coaction[gens[-1]][min(coaction[gens[-1]])]
    broken = ComoduleAlgebra(A.labels, A.L, A.mult, dict(A.unit), A.hopf,
                             coaction, degree=A.degree)
    rep = broken.verify()
    assert "coaction-multiplicative" in rep.checks_failed()
    assert len(calls) > A.dim ** 2


# Z2 x Z2 with both generators of q = -1: its rows sit at conductors 2
# and 4, so classify proves U at each
Z22 = {k: v for k, v in z22_link_obj().items() if k in ("group", "g", "chi")}
COMMANDS = {
    "build-algebra": (z4_theta2_obj(modcat=True), ["--no-cache"]),
    "classify": (z4_theta2_obj(), ["--sample", "0,1"]),
    "classify-z22": (Z22, ["--sample", "0,1"]),
    "transport": (z22_link_obj(), []),
}


@pytest.mark.parametrize("case", sorted(COMMANDS))
def test_each_command_proves_each_table_once(case, tmp_path, monkeypatch,
                                             capsys):
    """Every algebra table a command builds or reads is swept for its unit
    laws and associativity once: the bosonization U once (once per
    conductor in classify), each built algebra once, and in transport
    also the connecting object, the lifting and the transported algebra."""
    monkeypatch.setenv("QLSMODCAT_CACHE_DIR", str(tmp_path / "cache"))
    proven = []
    plain = FiniteAlgebra.verify_algebra

    def recorded(self):
        proven.append(self)
        return plain(self)

    monkeypatch.setattr(FiniteAlgebra, "verify_algebra", recorded)
    obj, options = COMMANDS[case]
    command = case.split("-z")[0]
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(obj))
    out = tmp_path / "out.json"
    assert main([command, str(path), "--out", str(out)] + options) == 0
    capsys.readouterr()

    for i, table in enumerate(proven):
        for other in proven[:i]:
            assert not FiniteAlgebra.same_tables(table, other)
    bosonizations = [t for t in proven if isinstance(t, FiniteHopf)]
    if command == "build-algebra":
        assert [t.dim for t in proven] == [16, 16]
        assert len(bosonizations) == 1
    elif command == "classify":
        report = json.loads(out.read_text())["report"]
        conductors = {t.L for t in bosonizations}
        assert len(bosonizations) == len(conductors)
        assert len(conductors) == (2 if case == "classify-z22" else 1)
        # the generic algebra of each row, unless its tables repeat another's
        algebras = len(proven) - len(bosonizations)
        assert 1 < algebras <= len(report["rows"])
    else:
        # B and U from B's build, then T = B cotensor A and the lifting H
        # that coacts on T; the modcat algebra A has U's tables here, so
        # U's proof serves A's sweep too
        assert [t.dim for t in proven] == [16, 16, 16, 16]
        assert len(bosonizations) == 2


def failing_algebra_sweep(alg):
    """verify_algebra that reports one associator, so every sweep fails."""
    rep = hopf.CheckReport("algebra")
    rep.fail("associativity", (alg.labels[0],) * 3)
    return rep


def test_failed_build_time_sweeps_raise_with_the_failed_checks(
        monkeypatch, tmp_path, capsys):
    """Each build that verifies its tables raises a typed error whose
    message lists the checks that failed, and build-hopf exits 2."""
    d = sweedler_datum()
    F = Subgroup.full(d.group)
    mcd = ModCatDatum(d, F, Cocycle2.trivial(F), w={(1,): [[1]]}, xi=[1])
    ld = LiftingDatum(d)
    B = build_bigalois(ld)
    A = regular_coaction(B.right_hopf)
    H = build_bosonization(d)
    sigma = trivial_sigma(H)
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum_to_json(d)))
    monkeypatch.setattr(FiniteAlgebra, "verify_algebra", failing_algebra_sweep)

    both = "['associativity', 'hopf-associativity']"
    cases = [
        (lambda: build_A(mcd), ConfluenceFailure,
         f"built tables fail verification: {both}"),
        (lambda: cotensor(B, A), IsoCheckFailed,
         f"transported algebra fails verification: {both}"),
        (lambda: build_bigalois(ld), ConfluenceFailure,
         f"built tables fail verification: {both}"),
        (lambda: deform_hopf(H, sigma), CocycleInvalid,
         "deformed tables fail Hopf axioms: ['associativity']"),
    ]
    for build, error, message in cases:
        with pytest.raises(error) as caught:
            build()
        assert str(caught.value) == message

    assert main(["build-hopf", str(path), "--no-cache",
                 "--out", str(tmp_path / "out.json")]) == 2
    assert capsys.readouterr().err == ("verification failure: built tables "
                                       "fail the axiom sweep: ['associativity']\n")
