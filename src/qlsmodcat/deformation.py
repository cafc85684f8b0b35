"""Liftings of the graded Hopf algebras and cocycle deformation machinery.

A lifting keeps the group part and the generator coproducts but bends the
two relation families: generator powers may land on 1 minus a group
element (root scalars mu) and pairs of generators may link through
1 minus their product (link scalars lambda).  The second half of the
module deforms multiplication by a Hopf 2-cocycle and moves comodule
algebras along the resulting bi-Galois object by a cotensor product.
"""

from __future__ import annotations

import functools
import itertools

from . import _lazy, linalg
from ._kernel import add as padd, is_zero as pis0, mul as pmul, neg as pneg
from .cyclo import CycloNumber, common_conductor
from .errors import (
    CocycleInvalid,
    ConfluenceFailure,
    IsoCheckFailed,
    NotClosed,
    ValidationError,
)
from .groups import Subgroup
from .hopf import (
    COACTION_CHECKS,
    CheckReport,
    FiniteAlgebra,
    FiniteHopf,
    QlsDatum,
    complete_hopf,
    extend_letters,
    left_closure,
    pair_multiply,
    verify_coaction,
)
from .linalg import accumulate, through, vec_addmul
from .rewrite import LiftingRules

# compiled on first use: build-lifting runs neither
cocycles = _lazy("cocycles")
comodule = _lazy("comodule")


class LiftingDatum:
    """A quantum linear space datum together with root and link scalars."""

    def __init__(self, datum: QlsDatum, mu=None, lam=None):
        self.datum = datum
        theta = datum.theta
        mu = list(mu) if mu is not None else [0] * theta
        if len(mu) != theta:
            raise ValidationError("need one root scalar per generator")
        lam = dict(lam) if lam is not None else {}
        for (i, j) in lam:
            if not 0 <= i < j < theta:
                raise ValidationError(
                    f"link scalar index {(i, j)} out of range: need "
                    f"0 <= i < j < theta = {theta}")
        self.L = L = common_conductor(datum.conductor, [*mu, *lam.values()])
        self.mu = [CycloNumber.coerce(c, L) for c in mu]
        lam = {k: CycloNumber.coerce(c, L) for k, c in sorted(lam.items())}
        self.lam = {k: c for k, c in lam.items() if not c.is_zero()}

    def validate(self) -> CheckReport:
        """The conditions on the scalars, over a datum that is valid."""
        rep = CheckReport("lifting")
        d = self.datum
        for i, m in enumerate(self.mu):
            if not m.is_zero() and ((d.g[i] ** d.N[i]).is_identity()
                                    or not (d.chi[i] ** d.N[i]).is_trivial()):
                rep.fail("root-scalar-forced-zero", i)
        for (i, j) in self.lam:
            if ((d.g[i] * d.g[j]).is_identity()
                    or not (d.chi[i] * d.chi[j]).is_trivial()):
                rep.fail("link-scalar-forced-zero", (i, j))
        return rep

    def require_valid(self) -> None:
        self.datum.require_valid()
        self.validate().require(ValidationError, "invalid lifting datum")


def build_lifting(ld: LiftingDatum) -> FiniteHopf:
    """Hopf algebra tables for the lifting determined by (mu, lambda)."""
    ld.require_valid()
    return complete_hopf(LiftingRules(ld.datum, ld.L, ld.mu, ld.lam),
                         graded=False)


def _iterated_comult(H: FiniteHopf, i: int, legs: int) -> dict:
    """Coefficients of the (legs - 1)-fold coproduct of basis element i."""
    cur = {(i,): linalg.pone(H.L)}
    for last in range(legs - 1):
        cur = through(cur, last, H.comult, H.ctx.reduction)
    return cur


class HopfCocycle:
    """Convolution-invertible 2-cocycle on a finite Hopf algebra.

    The table maps basis index pairs to values; missing pairs are zero.
    Construction checks that the table is a normal 2-cocycle, then solves
    for the convolution inverse; any failure raises CocycleInvalid.
    """

    def __init__(self, H: FiniteHopf, table: dict, check=True):
        self.H = H
        self.L = H.L
        self.table = {k: v for k, v in table.items() if not pis0(v)}
        if check:
            self.validate().require(CocycleInvalid, "cocycle table fails")
        self.inverse = self._convolution_inverse()

    def value(self, i: int, j: int):
        v = self.table.get((i, j))
        return v if v is not None else linalg.pzero(self.L)

    def pair(self, x: dict, y: dict, table=None):
        red = self.H.ctx.reduction
        table = self.table if table is None else table
        acc = linalg.pzero(self.L)
        for i, c in x.items():
            for j, c2 in y.items():
                v = table.get((i, j))
                if v is not None:
                    acc = padd(acc, pmul(pmul(c, c2, red), v, red))
        return acc

    @functools.cached_property
    def twisted(self) -> FiniteAlgebra:
        """sigma H: the basis of H with a . b = sigma(a_1, b_1) a_2 b_2."""
        H = self.H
        return FiniteAlgebra(H.labels, H.L,
                             _twisted_product(self.table, H.comult, H),
                             dict(H.unit))

    def validate(self) -> CheckReport:
        """The unit and associativity sweep of sigma H.

        k #_sigma H is associative with unit 1 exactly when sigma is a
        normal 2-cocycle (Blattner, Cohen & Montgomery 1986; Montgomery
        1993, §7.1): the counit on the last leg of either law gives the
        cocycle identity or the normalization back, and they give it.
        """
        return CheckReport("hopf-cocycle").prove(self.twisted)

    def _convolution_inverse(self) -> dict:
        """tau with sigma(a_1, b_1) tau(a_2, b_2) = eps(a) eps(b): row
        c n + d holds the coefficients of the unknown tau(c, d)."""
        H = self.H
        red = H.ctx.reduction
        n = H.dim
        rows = [dict() for _ in range(n * n)]
        for a in range(n):
            for (p, c), ca in H.comult[a].items():
                for b in range(n):
                    for (q, d), cb in H.comult[b].items():
                        s = self.table.get((p, q))
                        if s is not None:
                            accumulate(rows[c * n + d], a * n + b,
                                       pmul(pmul(ca, cb, red), s, red))
        target = {a * n + b: v for (a, b), v in _counit_pairs(H).items()}
        sol, = linalg.solve(rows, [target], n * n, self.L)
        if sol is None:
            raise CocycleInvalid("table has no convolution inverse")
        return {(k // n, k % n): v for k, v in sol.items()}


def _counit_pairs(H: FiniteHopf) -> dict:
    """The table of eps(a) eps(b), the trivial cocycle."""
    red = H.ctx.reduction
    out = {}
    for i in range(H.dim):
        for j in range(H.dim):
            v = pmul(H.counit[i], H.counit[j], red)
            if not pis0(v):
                out[(i, j)] = v
    return out


def group_sigma(H: FiniteHopf, psi: cocycles.Cocycle2) -> HopfCocycle:
    """The cocycle supported on the group part of a bosonization-shaped H.

    psi must live on the full group; sigma vanishes off the group-like
    basis and copies psi on it.
    """
    by_exps = {f.exps: f for f in psi.carrier}
    M = common_conductor(H.L, psi.table.values())
    if M != H.L:
        raise ValidationError(
            f"cocycle values need conductor {M} but H has conductor {H.L}; "
            f"rebase H to conductor {M} first")
    table = {}
    for i, (r, ge) in enumerate(H.labels):
        if sum(r):
            continue
        if ge not in by_exps:
            raise ValidationError("cocycle carrier misses a group-like")
        for j, (s, he) in enumerate(H.labels):
            if sum(s):
                continue
            v = psi(by_exps[ge], by_exps[he]).rebase(H.L)
            table[(i, j)] = v.raw()
    return HopfCocycle(H, table)


def deform_hopf(H: FiniteHopf, sigma: HopfCocycle) -> FiniteHopf:
    """Same coalgebra, multiplication and antipode twisted by sigma.

    The product sigma(x_1, y_1) x_2 y_2 sigma^-1(x_3, y_3) is sigma H
    twisted on the right by sigma^-1, through the coproduct with its legs
    swapped.
    """
    if not sigma.H.same_tables(H):
        raise ValidationError("cocycle lives on a different Hopf algebra")
    red = H.ctx.reduction
    mult = _twisted_product(sigma.inverse, _flip(H.comult), sigma.twisted)
    antipode = []
    for i in range(H.dim):
        vec: dict = {}
        for (x1, x2, x3, x4, x5), c in _iterated_comult(H, i, 5).items():
            s = sigma.pair(H.basis(x1), H.antipode[x2])
            if pis0(s):
                continue
            t = sigma.pair(H.antipode[x4], H.basis(x5), table=sigma.inverse)
            if pis0(t):
                continue
            vec_addmul(vec, H.antipode[x3], pmul(pmul(c, s, red), t, red), red)
        antipode.append(vec)
    out = FiniteHopf(H.labels, H.L, mult, dict(H.unit),
                     [dict(v) for v in H.comult], list(H.counit), antipode,
                     degree=H.degree, graded=False)
    out.verify().require(CocycleInvalid, "deformed tables fail Hopf axioms")
    return out


def _flip(cells) -> list:
    """Every cell {(x, y): c} with its two legs swapped."""
    return [{(y, x): c for (x, y), c in cell.items()} for cell in cells]


def _twisted_product(table: dict, coaction, alg: FiniteAlgebra) -> dict:
    """Tables of a . b = table(a_(-1), b_(-1)) a_(0) b_(0), for a left
    coaction on alg given as a list over the basis being multiplied.

    ``table`` is a cocycle or its convolution inverse; a coaction with
    its legs swapped makes the twist act from the right.
    """
    red = alg.ctx.reduction
    n = len(coaction)
    mult: dict = {}
    for i in range(n):
        for j in range(n):
            cell: dict = {}
            for (u, a), c in coaction[i].items():
                for (v, b), c2 in coaction[j].items():
                    s = table.get((u, v))
                    if s is None:
                        continue
                    m = alg.mult.get((a, b))
                    if not m:
                        continue
                    vec_addmul(cell, m, pmul(pmul(c, c2, red), s, red), red)
            if cell:
                mult[(i, j)] = cell
    return mult


def deform_comodule_algebra(A: comodule.ComoduleAlgebra, sigma: HopfCocycle,
                            hopf: FiniteHopf = None
                            ) -> comodule.ComoduleAlgebra:
    """Twist the product to sigma(a, b) applied to the coaction legs.

    The coaction map is unchanged; the result is a comodule algebra over
    the deformed Hopf algebra, which is verified.
    """
    U = A.hopf
    if not sigma.H.same_tables(U):
        raise ValidationError("cocycle does not live on the coacting Hopf algebra")
    mult = _twisted_product(sigma.table, A.coaction, A)
    if hopf is None:
        hopf = deform_hopf(U, sigma)
    out = comodule.ComoduleAlgebra(A.labels, A.L, mult, dict(A.unit), hopf,
                                   [dict(v) for v in A.coaction],
                                   degree=A.degree)
    out.verify().require(CocycleInvalid,
                         "deformed comodule algebra fails verification")
    return out


def coideal_twist(H: FiniteHopf, rows,
                  sigma: HopfCocycle) -> comodule.ComoduleAlgebra:
    """Twist a coideal subalgebra of H by sigma on the trailing legs.

    ``rows`` spans the subalgebra inside H.  The twisted product pays
    sigma on the second coproduct legs and multiplies the first ones,
    so the span must absorb every such product (NotClosed when it does
    not).  The coaction is the restricted coproduct, still over H, and
    the result is verified as a left H-comodule algebra.
    """
    if not sigma.H.same_tables(H):
        raise ValidationError("cocycle does not live on the ambient Hopf algebra")
    sp = linalg.span(rows, H.L)
    basis = sp.rows
    comults = [H.comultiply(vec) for vec in basis]
    legs = []
    for a, dx in enumerate(comults):
        by_first: dict = {}
        for (j, k), c in dx.items():
            by_first.setdefault(j, {})[k] = c
        legs.extend((a, j, row) for j, row in by_first.items())
    cells = _twisted_product(sigma.table, _flip(comults), H)
    sols = linalg.solve(basis, [dict(H.unit)] + [row for _, _, row in legs]
                        + list(cells.values()), H.dim, H.L)
    unit = sols[0]
    if unit is None:
        raise ValidationError("the span misses the unit")
    for x, y in itertools.product(basis, repeat=2):
        if not sp.contains(H.multiply(x, y)):
            raise ValidationError("the span is not a subalgebra")
    coaction = [dict() for _ in basis]
    for (a, j, _), coords in zip(legs, sols[1:]):
        if coords is None:
            raise ValidationError("the span is not a coideal")
        for t, c in coords.items():
            coaction[a][(j, t)] = c
    mult: dict = {}
    for key, coords in zip(cells, sols[1 + len(legs):]):
        if coords is None:
            raise NotClosed("the twisted product leaves the span")
        if coords:
            mult[key] = coords
    labels = [("k", piv) for piv in sp.pivots]
    out = comodule.ComoduleAlgebra(labels, H.L, mult, unit, H, coaction)
    out.verify().require(CocycleInvalid,
                         "twisted coideal subalgebra fails verification")
    return out


class BiGaloisRep:
    """An algebra with commuting left and right comodule structures.

    The left and right coacting Hopf algebras may differ; the counit
    functional is the linear form used to collapse cotensor products.
    """

    def __init__(self, algebra: FiniteAlgebra, left_hopf: FiniteHopf,
                 right_hopf: FiniteHopf, left_coaction, right_coaction,
                 counit_functional):
        self.algebra = algebra
        self.left_hopf = left_hopf
        self.right_hopf = right_hopf
        self.left_coaction = left_coaction
        self.right_coaction = right_coaction
        self.counit_functional = counit_functional

    def left_comodule(self) -> comodule.ComoduleAlgebra:
        """The algebra with its left coaction alone."""
        alg = self.algebra
        return comodule.ComoduleAlgebra(alg.labels, alg.L, alg.mult,
                                        dict(alg.unit), self.left_hopf,
                                        self.left_coaction,
                                        engine=alg.engine)

    def verify(self) -> CheckReport:
        rep = self.left_comodule().verify()
        rep.subject = "bigalois"
        return self.verify_right(rep)

    def verify_right(self, rep: CheckReport) -> CheckReport:
        """The checks beyond the left comodule algebra: the right coaction,
        as a left one over the reversed coproduct, and coactions-commute.
        H is proven through the ledger of ``rep``, where the left sweep
        proved B, and its failing laws are reported as ``right-hopf-*``."""
        H = self.right_hopf
        B = self.algebra
        red = B.ctx.reduction
        rho = self.right_coaction
        rep.prove(H, "right-hopf-")
        verify_coaction(rep, B, H, _flip(H.comult), _flip(rho),
                        tuple("right-" + name for name in COACTION_CHECKS))

        lam = self.left_coaction
        for i in range(B.dim):
            if through(lam[i], 1, rho, red) != through(rho[i], 0, lam, red):
                rep.fail("coactions-commute", B.labels[i])
        return rep

    def left_galois_bijective(self) -> bool:
        return comodule.galois_map(self.left_comodule()).bijective

    def right_galois_bijective(self) -> bool:
        """The right Galois map x (x) y -> x y_(0) (x) y_(1) is the left
        one of the inverse object up to flips and S^-1 on one leg."""
        return self.inverse().left_galois_bijective()

    def inverse(self) -> "BiGaloisRep":
        """B^-1: the opposite algebra, coacted on the left by the right
        Hopf algebra through S^-1(b_(1)) (x) b_(0) and on the right by
        the left one through b_(0) (x) S(b_(-1)) (Schauenburg 1996).
        Inverting twice gives B back."""
        U, H = self.left_hopf, self.right_hopf
        B = self.algebra
        red = B.ctx.reduction
        op = FiniteAlgebra(B.labels, B.L,
                           {(j, i): cell for (i, j), cell in B.mult.items()},
                           dict(B.unit))
        sinv = _antipode_inverse(H)
        left = _flip([through(v, 1, sinv, red) for v in self.right_coaction])
        right = _flip([through(v, 0, U.antipode, red) for v in self.left_coaction])
        return BiGaloisRep(op, H, U, left, right, list(self.counit_functional))


def _antipode_inverse(H: FiniteHopf) -> list:
    """S^-1 as the images of the basis, read off one elimination of S."""
    out = linalg.solve(H.antipode, [H.basis(i) for i in range(H.dim)],
                       H.dim, H.L)
    if None in out:
        raise ValidationError("antipode is not invertible")
    return out


def sigma_bigalois(H: FiniteHopf, sigma: HopfCocycle) -> BiGaloisRep:
    """H with product twisted on the left legs only; coactions are the
    coproduct on both sides."""
    lam = [dict(v) for v in H.comult]
    rho = [dict(v) for v in H.comult]
    rep = BiGaloisRep(sigma.twisted, deform_hopf(H, sigma), H, lam, rho,
                      list(H.counit))
    rep.verify().require(CocycleInvalid,
                         "twisted algebra fails bicomodule checks")
    return rep


def build_bigalois(ld: LiftingDatum,
                   proofs: CheckReport | None = None) -> BiGaloisRep:
    """The connecting object between a lifting and its graded model.

    As an algebra this is the comodule algebra over the full group with
    trivial cocycle, full generating subspace and negated scalars; the
    graded Hopf algebra coacts on the left and the lifting on the right.
    B, the graded Hopf algebra and the lifting are proven unital and
    associative through the ledger ``proofs``, a new one when none is
    given, so that every sweep over them reads those proofs.
    """
    if proofs is None:
        proofs = CheckReport("proofs")
    d = ld.datum
    theta = d.theta
    F = Subgroup.full(d.group)
    order = sorted(range(theta), key=lambda i: (d.g[i].exps, i))
    w: dict = {}
    xi = [0] * theta
    for a, oi in enumerate(order):
        pos = [t for t in order if d.g[t] == d.g[oi]]
        row = [1 if p == oi else 0 for p in sorted(pos)]
        w.setdefault(d.g[oi].exps, []).append(row)
        xi[a] = -ld.mu[oi]
    inv = {oi: a for a, oi in enumerate(order)}
    alpha: dict = {}
    for (i, j), lam_ij in ld.lam.items():
        a, b = inv[i], inv[j]
        if a < b:
            alpha[(a, b)] = -lam_ij
        else:
            alpha[(b, a)] = d.chi[i](d.g[j]) * lam_ij
    mcd = comodule.ModCatDatum(d, F, cocycles.Cocycle2.trivial(F), w=w, xi=xi,
                               alpha=alpha)
    B = comodule.build_A(mcd, proofs=proofs)
    H = build_lifting(ld).rebased(B.L)

    one = linalg.pone(B.L)
    # y_a -> y_a (x) 1 + g (x) x_oi
    rho = extend_letters(B, H, B.labels,
                         [({a: one}, d.g[oi].exps, oi)
                          for a, oi in enumerate(order)], mcd.heights)

    cb = [one if sum(r) == 0 else linalg.pzero(B.L) for r, _ in B.labels]
    rep = BiGaloisRep(B, B.hopf, H, [dict(v) for v in B.coaction], rho, cb)
    # build_A has verified B as a left comodule algebra
    rep.verify_right(proofs).require(
        ConfluenceFailure, "connecting object fails verification")
    return rep


def _flatten(vec: dict, nA: int) -> dict:
    return {b * nA + a: c for (b, a), c in vec.items()}


def _unflatten(flat: dict, nA: int) -> dict:
    return {(k // nA, k % nA): c for k, c in flat.items()}


def cotensor(B: BiGaloisRep, A: comodule.ComoduleAlgebra,
             proofs: CheckReport | None = None) -> comodule.ComoduleAlgebra:
    """Solutions of the matching equation in B tensor A, as an algebra.

    When A is coacted by B's right Hopf algebra the matching is direct;
    when it is coacted by the left one, A is matched with the inverse
    object instead.  The result is a comodule algebra over the other
    side, of the same dimension as A, verified against the ledger
    ``proofs`` (``ComoduleAlgebra.verify``), a new one when none is
    given.

    The table is built from the products of a generating set's letters
    only, which proves closure under every product in the associative
    B tensor A (``_cotensor_core``).  So B and A are proven unital and
    associative through the ledger too; B^-1's algebra is B^op, whose
    unit laws and associativity are B's.  T's own sweep runs first, so
    tables that fail their laws are reported as T's.
    """
    if proofs is None:
        proofs = CheckReport("proofs")
    if A.hopf.same_tables(B.right_hopf):
        T = _cotensor_core(B, A, proofs)
    elif A.hopf.same_tables(B.left_hopf):
        T = _cotensor_core(B.inverse(), A, proofs)
    else:
        raise ValidationError("A is not a comodule over either side of B")
    CheckReport("cotensor", proofs).prove(B.algebra, "bigalois-").prove(
        A).require(IsoCheckFailed, "cotensor factors fail verification")
    return T


def _cotensor_core(B: BiGaloisRep, A: comodule.ComoduleAlgebra,
                   proofs: CheckReport) -> comodule.ComoduleAlgebra:
    """B cotensor A, for A coacted by B's right Hopf algebra; the result
    is coacted by B's left one.

    The matching equation's solutions form the kernel V, eliminated block
    by block of rows that share columns (``linalg.left_kernel``), and
    rep_i is the element of V that collapses to e_i of A.  T's cell (i, j) is
    collapse(rep_i rep_j), but only the products rep_s rep_j for the
    letters s of a generating set S of T are formed (``_cotensor_table``).
    That is still a proof that V is closed under every product, given
    that B tensor A is associative, which ``cotensor`` proves:
    - V holds 1 (x) 1, which collapses to A's unit (checked);
    - rep_s V lies in V for each s in S (each letter product checked);
    - the closure of 1 under S reaches dim V (checked), so V is spanned
      by words rep_s1 (rep_s2 (... (1 (x) 1))), and by associativity
      each word times an element of V stays in V.
    Associativity also gives every cell from the letter products alone.
    """
    nA = A.dim
    nK = A.hopf.dim
    L = A.L
    red = A.ctx.reduction
    rho = B.right_coaction
    # the matching equation b_(0) (x) b_(1) (x) a = b (x) a_(-1) (x) a_(0)
    rows = []
    for b in range(len(rho)):
        for a in range(nA):
            row = {(b2 * nK + h) * nA + a: c for (b2, h), c in rho[b].items()}
            for (h, a2), c in A.coaction[a].items():
                accumulate(row, (b * nK + h) * nA + a2, pneg(c))
            rows.append(row)
    space = linalg.left_kernel(rows, len(rho) * nK * nA, L)
    if space.dim != nA:
        raise IsoCheckFailed(
            f"cotensor dimension {space.dim} differs from {nA}")

    cb = B.counit_functional
    basis = space.rows

    def collapse(flat: dict) -> dict:
        out: dict = {}
        for k, c in flat.items():
            b, a = k // nA, k % nA
            if not pis0(cb[b]):
                accumulate(out, a, pmul(cb[b], c, red))
        return out

    one = linalg.pone(L)
    sols = linalg.solve([collapse(t) for t in basis],
                        [{i: one} for i in range(nA)], nA, L)
    if None in sols:
        raise IsoCheckFailed("collapse map of the cotensor is not bijective")
    reps = []
    for sol in sols:
        vec: dict = {}
        for k, c in sol.items():
            vec_addmul(vec, basis[k], c, red)
        reps.append(_unflatten(vec, nA))

    mult = _cotensor_table(B.algebra, A, space, collapse, reps)

    # b (x) a -> cb(b_(0)) b_(-1) (x) a
    counit = [{(): e} for e in cb]
    coact = [through(lam, 1, counit, red) for lam in B.left_coaction]
    coaction = [through(vec, 0, coact, red) for vec in reps]

    T = comodule.ComoduleAlgebra(list(A.labels), L, mult, dict(A.unit),
                                 B.left_hopf, coaction)
    T.verify(proofs).require(IsoCheckFailed,
                             "transported algebra fails verification")
    return T


def _cotensor_table(first: FiniteAlgebra, A: comodule.ComoduleAlgebra,
                    space: linalg.Subspace, collapse, reps) -> dict:
    """T's table, cell (i, j) = collapse(rep_i rep_j), from |S| n products
    in first tensor A rather than all n^2 (see ``_cotensor_core``).

    ``space`` is the cotensor space V, flattened, and ``collapse`` maps V
    onto A's basis coordinates, in which T works.  S is chosen greedily
    over T's basis, as ``FiniteAlgebra.generators`` does
    (``left_closure``), and the letter column of s is
    collapse(rep_s rep_j) for every j, each product checked to lie in V.
    Each vector of the closure of 1 is s times an earlier one,
    found_k = s found_p.  One n x n solve writes e_i = sum_k c_ik found_k,
    and found_k e_j = s (found_p e_j) walks that tree in T's coordinates
    with the letter columns, so cell (i, j) is sum_k c_ik found_k e_j.
    """
    n = len(reps)
    L = A.L
    red = A.ctx.reduction
    one = linalg.pone(L)
    unit = _flatten({(b, a): pmul(c, d, red) for b, c in first.unit.items()
                     for a, d in A.unit.items()}, n)
    if not space.contains(unit):
        raise NotClosed("the cotensor does not hold 1 (x) 1")
    if collapse(unit) != A.unit:
        raise IsoCheckFailed("1 (x) 1 does not collapse to the unit of A")

    cols: dict = {}         # the letter columns: cols[s][j] = e_s e_j in T

    def times(s: int, vec: dict) -> dict:
        col = cols.get(s)
        if col is None:
            col = cols[s] = []
            for j in range(n):
                flat = _flatten(pair_multiply(first, A, reps[s], reps[j]), n)
                if not space.contains(flat):
                    raise NotClosed("cotensor is not closed under the product")
                col.append(collapse(flat))
        out: dict = {}
        for j, c in vec.items():
            vec_addmul(out, col[j], c, red)
        return out

    _, found, words = left_closure(n, L, dict(A.unit), times)
    if len(found) != n:
        raise IsoCheckFailed(
            f"the letters generate {len(found)} of the cotensor's {n} dimensions")

    # right[k][j] = found_k e_j; found_0 is the unit
    right = [[{j: one} for j in range(n)]]
    for s, p in words:
        right.append([times(s, v) for v in right[p]])
    mult: dict = {}
    for i, coeffs in enumerate(linalg.solve(found, [{i: one} for i in range(n)],
                                            n, L)):
        for j in range(n):
            cell: dict = {}
            for k, c in coeffs.items():
                vec_addmul(cell, right[k][j], c, red)
            if cell:
                mult[(i, j)] = cell
    return mult


def transport(B: BiGaloisRep, A: comodule.ComoduleAlgebra,
              proofs: CheckReport | None = None):
    """Move A along B and report which invariants survive.

    Returns the transported algebra and a report.  Each of the five
    ``invariants`` that differs between A and its image is recorded the
    same way, as a failed check with witness (A's value, T's value);
    none raises.  Radical dimension and block data may change, since the
    cotensor is an equivalence of comodule categories, not an algebra
    isomorphism.  ``proofs`` is passed on to ``cotensor``.
    """
    T = cotensor(B, A, proofs)
    rep = CheckReport("transport")
    before, after = invariants(A), invariants(T)
    for check, value in before.items():
        if value != after[check]:
            rep.fail(check, (value, after[check]))
    return T, rep


def invariants(A: comodule.ComoduleAlgebra) -> dict:
    """The invariants ``transport`` compares and ``verify`` rechecks,
    keyed by the name of the check that fails when one changes, in
    report order."""
    blocks = comodule.simple_modules(A)
    return {"dimension-preserved": A.dim,
            "simplicity-verdict-preserved": comodule.check_simplicity(A).verdict,
            "coinvariants-preserved": comodule.coinvariants(A).dim,
            "radical-dimension-preserved": blocks.radical_dim,
            "block-data-preserved": blocks.block_data}
