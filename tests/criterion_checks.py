"""Checks that acceptance criteria 3, 4 and 7 make beside the package's
own sweeps, on algebras the package builds.

* ``associated_graded`` (criterion 3) forms the layer-by-layer algebra of
  the Loewy filtration and compares it with the graded model.
* ``check_degree_one_generation`` (criterion 4) checks the degree-one
  generation hypotheses, then compares each degree with the span the
  degree-one part generates.
* ``exterior_clifford_check`` (criterion 7) rebuilds the algebra of an
  all-order-two datum as a Clifford algebra smashed with the twisted
  subgroup algebra, using a direct letter-insertion product instead of
  the rewrite engine, and compares the structure tables cell by cell.
"""

from __future__ import annotations

from fractions import Fraction

from qlsmodcat import linalg
from qlsmodcat._kernel import is_zero as pis0, mul as pmul, neg as pneg
from qlsmodcat.classify import _datum_fingerprint
from qlsmodcat.comodule import (
    ComoduleAlgebra,
    ModCatDatum,
    build_A,
    build_K,
    verify_loewy,
)
from qlsmodcat.cyclo import CycloNumber, context
from qlsmodcat.errors import (
    HypothesisViolated,
    IsoCheckFailed,
    NotExteriorDatum,
    ValidationError,
)
from qlsmodcat.hopf import (
    CheckReport,
    FiniteAlgebra,
    FiniteHopf,
    QlsDatum,
    build_bosonization,
)
from qlsmodcat.linalg import accumulate


def associated_graded(A: ComoduleAlgebra) -> FiniteAlgebra:
    """Layer-by-layer algebra of the filtration, checked against the model.

    The identification sends the class of each monomial basis element to
    the same label in the graded model, so the check is a direct table
    comparison; a mismatch raises IsoCheckFailed.
    """
    verify_loewy(A).require(IsoCheckFailed,
                            "filtration does not match the monomial layers")
    mult = {}
    for (i, j), cell in A.mult.items():
        d = A.degree[i] + A.degree[j]
        kept = {k: c for k, c in cell.items() if A.degree[k] == d}
        if kept:
            mult[(i, j)] = kept
    gr = FiniteAlgebra(A.labels, A.L, mult, dict(A.unit))
    if A.mcd is not None:
        K = build_K(A.mcd, A.hopf)
        if not (gr.labels == K.labels and gr.mult == K.mult
                and gr.unit == K.unit):
            raise IsoCheckFailed("graded tables differ from the graded model")
    return gr


class GenerationReport:
    """Degree-by-degree comparison with the span of the degree-one part."""

    def __init__(self, levels, closure_ok):
        self.levels = levels
        self.closure_ok = closure_ok

    @property
    def ok(self) -> bool:
        return all(self.levels) and self.closure_ok

    def __repr__(self):
        return f"GenerationReport(levels={self.levels}, closure_ok={self.closure_ok})"


def check_degree_one_generation(datum: QlsDatum, components,
                                U: FiniteHopf = None) -> GenerationReport:
    """Verify the degree-one generation hypotheses, then the conclusion.

    ``components`` lists bases per degree, as sparse vectors over the
    basis of the ambient graded Hopf algebra.  Hypothesis failures raise
    HypothesisViolated; the returned report compares each degree with the
    span generated by the degree-one part.
    """
    if U is None:
        U = build_bosonization(datum)
    L = U.L
    ident = datum.group.identity().exps

    for n, vecs in enumerate(components):
        for v in vecs:
            for i in v:
                r, ge = U.labels[i]
                if sum(r) != n or ge != ident:
                    raise HypothesisViolated(
                        "component-degree",
                        f"degree {n} vector meets basis label {U.labels[i]}")
    k0 = linalg.span([dict(v) for v in components[0]], L) if components else None
    if k0 is None or k0.dim != 1 or not k0.contains(dict(U.unit)):
        raise HypothesisViolated("component-degree",
                                 "degree 0 part must be spanned by 1")

    W = [dict(v) for v in components[1]] if len(components) > 1 else []
    wspan = linalg.span(W, L)
    for g in sorted(set(datum.g), key=lambda e: e.exps):
        for v in W:
            proj = {}
            for i, c in v.items():
                r, _ = U.labels[i]
                if datum.g[r.index(1)] == g:
                    proj[i] = c
            if proj and not wspan.contains(proj):
                raise HypothesisViolated(
                    "degree-one-not-subcomodule",
                    f"projection to the {g.exps} component leaves the span")

    nU = U.dim
    by_deg = {}
    for u in range(nU):
        by_deg.setdefault(U.degree[u], []).append(u)
    for n, vecs in enumerate(components):
        target = linalg.Subspace(L)
        for i in range(n + 1):
            for u in by_deg.get(i, []):
                for wvec in components[n - i]:
                    target.insert({u * nU + k: c for k, c in wvec.items()})
        for v in vecs:
            dv = U.comultiply(dict(v))
            flat = {j * nU + k: c for (j, k), c in dv.items()}
            if not target.contains(flat):
                raise HypothesisViolated(
                    "coproduct-compatibility",
                    f"coproduct of a degree {n} vector leaves the allowed span")

    def times_w(level):
        """span(level . W)"""
        return linalg.span((U.multiply(x, wvec) for x in level.rows
                            for wvec in W), L)

    levels = []
    level = linalg.span([dict(U.unit)], L)
    for n, vecs in enumerate(components):
        if n:
            level = times_w(level)
        levels.append(level.key() == linalg.span(
            [dict(v) for v in vecs], L).key())
    return GenerationReport(levels, times_w(level).dim == 0)


def _mono_times_letter(S: tuple, a: int, contract, one) -> dict:
    """Right-multiply an ascending letter monomial by one letter."""
    if not S or S[-1] < a:
        return {S + (a,): one}
    last, body = S[-1], S[:-1]
    out: dict = {}
    if last == a:
        k = contract(a, a)
        if not pis0(k):
            out[body] = k
        return out
    k = contract(a, last)
    if not pis0(k):
        out[body] = k
    for T, c in _mono_times_letter(body, a, contract, one).items():
        accumulate(out, T + (last,), pneg(c))
    return out


def _mono_mul(S: tuple, T: tuple, contract, red, one) -> dict:
    terms = {S: one}
    for a in T:
        nxt: dict = {}
        for U, c in terms.items():
            for V, c2 in _mono_times_letter(U, a, contract, one).items():
                accumulate(nxt, V, pmul(c, c2, red))
        terms = nxt
    return terms


def exterior_clifford_check(datum: QlsDatum, mcd: ModCatDatum) -> CheckReport:
    """Rebuild the algebra of an all-order-two datum independently.

    The generators contract like a Clifford algebra whose symmetric form
    has the link scalars off the diagonal and the root scalars on it; the
    subgroup part multiplies through its cocycle, and conjugation picks
    up the eigencharacter values.  The generator-indexed map between the
    two builds is the identity on labels, so it is an isomorphism exactly
    when all structure tables agree.
    """
    if _datum_fingerprint(datum) != _datum_fingerprint(mcd.datum):
        raise ValidationError("the subspace datum belongs to a different base")
    if datum.theta:
        u = datum.g[0]
        if u.order() != 2 or any(el != u for el in datum.g):
            raise NotExteriorDatum(
                "all generators must sit in one degree of order two")
        minus_one = CycloNumber.from_rational(Fraction(-1), 1)
        if any(ch(u) != minus_one for ch in datum.chi):
            raise NotExteriorDatum(
                "every character must negate the grading element")
    mcd.require_valid()
    A = build_A(mcd)
    L = A.L
    red = context(L).reduction
    one = linalg.pone(L)

    def contract(a: int, b: int):
        if a == b:
            return mcd.xi[a].raw()
        return mcd.alpha[(a, b)].raw() if (a, b) in mcd.alpha \
            else linalg.pzero(L)

    felts = {f.exps: f for f in mcd.F}
    rep = CheckReport("exterior-clifford")
    mult: dict = {}
    for i, (r, fe) in enumerate(A.labels):
        S = tuple(a for a in range(mcd.n_letters) if r[a])
        f = felts[fe]
        for j, (s, ge) in enumerate(A.labels):
            T = tuple(a for a in range(mcd.n_letters) if s[a])
            g = felts[ge]
            coef = mcd.psi_norm(f, g).rebase(L).raw()
            for a in T:
                coef = pmul(coef, mcd.chiF[a][f].raw(), red)
            cell: dict = {}
            out_e = (f * g).exps
            for U, c in _mono_mul(S, T, contract, red, one).items():
                rU = tuple(1 if a in U else 0 for a in range(mcd.n_letters))
                accumulate(cell, A.index[(rU, out_e)], pmul(coef, c, red))
            if cell:
                mult[(i, j)] = cell
            if cell != A.mult.get((i, j), {}):
                rep.fail("table-mismatch", (A.labels[i], A.labels[j]))
    if dict(A.unit) != {A.index[((0,) * mcd.n_letters,
                                 datum.group.identity().exps)]: one}:
        rep.fail("unit-mismatch", "1")
    return rep
