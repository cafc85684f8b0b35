"""Comodule algebras over the Hopf kernel and their structure reports.

A module-category datum picks a subgroup F, a 2-cocycle on it, a graded
subspace W spanned by eigenvectors for the subgroup characters, and the
root and link scalars xi and alpha.  The main builder produces the
algebra generated by W and the twisted group basis {e_f} with its left
coaction, as exact tables, from the rewrite engine under
``ComoduleRules``; the graded model is the same build with xi and alpha
zero.  The rest of the module computes filtrations, coinvariants, the
Galois map, and simplicity and block reports.
"""

from __future__ import annotations

import functools
import itertools
from math import isqrt

from . import linalg
from ._kernel import add as padd, is_zero as pis0, mul as pmul, neg as pneg
from .cocycles import Cocycle2
from .cyclo import (CycloNumber, _poly_divmod, _poly_mul, _poly_xgcd,
                    common_conductor)
from .errors import ConfluenceFailure, ValidationError
from .groups import Subgroup
from .hopf import (
    CheckReport,
    FiniteAlgebra,
    FiniteHopf,
    QlsDatum,
    build_bosonization,
    extend_letters,
    monomial_labels,
    verify_coaction,
)
from .linalg import accumulate, vec_addmul
from .rewrite import NormalFormEngine


def w_rows(datum: QlsDatum, w) -> list:
    """The rows of a subspace ``w`` as (carrier, generator positions, row),
    by component; ValidationError when a component carries no generators
    or a row's length is not the component's dimension."""
    comp = datum.isotypic()
    out = []
    for ge in sorted(w or {}):
        h = datum.group.element(tuple(ge))
        if h not in comp:
            raise ValidationError(f"component {tuple(ge)} carries no generators")
        for row in w[ge]:
            if len(row) != len(comp[h]):
                raise ValidationError(
                    "row length does not match the component dimension")
            out.append((h, comp[h], row))
    return out


class ModCatDatum:
    """Subgroup, cocycle, eigenvector subspace and scalars for one algebra.

    ``w`` maps exponent tuples of grading elements to lists of rows; each
    row gives coordinates over that isotypic component's generators and
    must be an eigenvector for every subgroup character.  ``xi`` and
    ``alpha`` are indexed against the flattened row order.
    """

    def __init__(self, datum: QlsDatum, F: Subgroup, psi: Cocycle2,
                 w=None, xi=None, alpha=None):
        datum.require_valid()
        self.datum = datum
        if not isinstance(F, Subgroup) or F.group != datum.group:
            raise ValidationError("F must be a subgroup of the base group")
        self.F = F
        if psi.carrier != F:
            raise ValidationError("the cocycle must live on F")
        self.psi = psi
        self.psi_norm = psi if psi.is_unital() else psi.normalize()

        parsed = w_rows(datum, w)
        carriers = [h for h, _, _ in parsed]
        m = len(carriers)
        xi = list(xi) if xi is not None else [0] * m
        if len(xi) != m:
            raise ValidationError("need one power scalar per subspace row")
        alpha = dict(alpha) if alpha else {}
        for key in alpha:
            a, b = key
            if not 0 <= a < b < m:
                raise ValidationError(
                    f"link index {key} out of range: need 0 <= a < b < m "
                    f"= {m}, the number of subspace rows")
        self.L = L = common_conductor(datum.conductor, [
            *self.psi_norm.table.values(), *xi, *alpha.values(),
            *(c for _, _, row in parsed for c in row)])
        self.carriers = carriers
        self.positions = [idcs for _, idcs, _ in parsed]
        self.rows = [[CycloNumber.coerce(c, L) for c in row]
                     for _, _, row in parsed]
        self.xi = [CycloNumber.coerce(c, L) for c in xi]
        alpha = {k: CycloNumber.coerce(c, L) for k, c in sorted(alpha.items())}
        self.alpha = {k: c for k, c in alpha.items() if not c.is_zero()}

        # commutation scalars and heights; ambiguity makes the subspace
        # structurally unusable, so it fails here rather than in a report
        self.Q = [[datum.q_scalar(carriers[a], carriers[b]).rebase(L)
                   for b in range(m)] for a in range(m)]
        self.heights = [self.Q[a][a].order() for a in range(m)]

        # eigencharacter values, read off the first nonzero coordinate;
        # validate() rechecks the full row
        self.chiF = []
        for a in range(m):
            vals = {}
            lead = next((p for p, c in enumerate(self.rows[a])
                         if not c.is_zero()), None)
            for f in self.F:
                if lead is None:
                    vals[f] = CycloNumber.one(L)
                else:
                    vals[f] = datum.chi[self.positions[a][lead]](f).rebase(L)
            self.chiF.append(vals)

    @property
    def n_letters(self) -> int:
        return len(self.carriers)

    def dim(self) -> int:
        out = self.F.order
        for n in self.heights:
            out *= n
        return out

    def validate(self) -> CheckReport:
        rep = CheckReport("modcat-datum")
        d = self.datum
        for a in range(self.n_letters):
            if all(c.is_zero() for c in self.rows[a]):
                rep.fail("row-zero", a)
        # independence within each component
        for h, count, span in self.row_spans():
            if span.dim != count:
                rep.fail("rows-dependent", h.exps)
        # full eigenvector condition
        for a in range(self.n_letters):
            for f in self.F:
                lam = self.chiF[a][f]
                for p, c in zip(self.positions[a], self.rows[a]):
                    if (d.chi[p](f) * c) != (lam * c):
                        rep.fail("row-not-eigenvector", (a, f.exps))
                        break
        for a, x in enumerate(self.xi):
            if not x.is_zero() and not self.scalar_free((a,) * self.heights[a]):
                rep.fail("power-scalar-forced-zero", a)
        for (a, b) in self.alpha:
            if not self.scalar_free((a, b)):
                rep.fail("link-scalar-forced-zero", (a, b))
        return rep

    def w(self) -> dict:
        """The rows as CycloNumbers at L, by component exponents, in the
        form the constructor reads ``w``."""
        out: dict = {}
        for h, row in zip(self.carriers, self.rows):
            out.setdefault(h.exps, []).append(row)
        return out

    def row_spans(self) -> list:
        """(carrier, number of rows, span of the rows) of each component
        the rows meet, by carrier; a row is a vector over the generators
        of its component."""
        out = []
        for h in sorted(set(self.carriers), key=lambda e: e.exps):
            rows = [{p: c.raw() for p, c in zip(self.positions[a], self.rows[a])
                     if not c.is_zero()}
                    for a in range(self.n_letters) if self.carriers[a] == h]
            out.append((h, len(rows), linalg.span(rows, self.L)))
        return out

    def scalar_free(self, letters) -> bool:
        """Whether the compatibility conditions leave free the scalar of
        the relation on the word ``letters``: (a,) * N_a for the power
        scalar xi_a, (a, b) for the link scalar alpha_ab.  Otherwise the
        scalar is forced to zero.

        The condition sees the cocycle only through its alternating form,
        so the answer depends on the cohomology class alone.
        """
        h = self.datum.group.identity()
        for a in letters:
            h = h * self.carriers[a]
        if h not in self.F:
            return False
        for f in self.F:
            val = CycloNumber.one(self.L)
            for a in letters:
                val = val * self.chiF[a][f]
            if val != self.psi_norm.beta(f, h):
                return False
        return True

    def require_valid(self) -> None:
        self.validate().require(ValidationError, "invalid module-category datum")


class ComoduleRules(NormalFormEngine):
    """Rewriting rules for the subspace generators over the twisted group basis."""

    def __init__(self, mcd: ModCatDatum):
        super().__init__(mcd.n_letters, mcd.heights, mcd.datum.group, mcd.L,
                         mcd.F)
        self.mcd = mcd

    def group_product(self, f, g):
        return self.mcd.psi_norm(f, g).rebase(self.L), f * g

    def move_group_past(self, f, a):
        return self.mcd.chiF[a][f]

    def swap_descending(self, b, a):
        qinv = self.mcd.Q[a][b].inv()
        frags = [(qinv, (a, b))]
        al = self.mcd.alpha.get((a, b))
        if al is not None:
            frags.append((-(qinv * al),
                          (self.mcd.carriers[a] * self.mcd.carriers[b],)))
        return frags

    def cut_power(self, a):
        x = self.mcd.xi[a]
        if x.is_zero():
            return []
        return [(x, (self.mcd.carriers[a] ** self.mcd.heights[a],))]


class ComoduleAlgebra(FiniteAlgebra):
    """Algebra tables with a left coaction by a finite Hopf algebra.

    ``coaction`` is a list over the basis; each entry maps index pairs
    (coacting basis, own basis) to pairs.
    """

    def __init__(self, labels, L, mult, unit, hopf: FiniteHopf, coaction,
                 degree=None, mcd=None, engine=None):
        super().__init__(labels, L, mult, unit, engine)
        if hopf.L != L:
            raise ValidationError("coacting Hopf algebra at a different conductor")
        self.hopf = hopf
        self.coaction = coaction
        self.degree = list(degree) if degree is not None else None
        self.mcd = mcd

    def verify(self, proofs: CheckReport | None = None) -> CheckReport:
        """The algebra laws, then the comodule-algebra sweep over ``hopf``.

        This algebra and the coacting U are proven through the ledger
        ``proofs`` of one command, or the report's own when none is given
        (``CheckReport.prove``), so each is swept only when the ledger
        holds no proof for its tables.  With both proofs, multiplicativity
        is proven from the |S| n generator pairs (``verify_coaction``).
        U's failing laws are reported under a ``hopf-`` prefix with U's
        labels, and then all n^2 pairs are swept.
        """
        U = self.hopf
        rep = CheckReport("comodule-algebra", proofs).prove(self).prove(U, "hopf-")
        return verify_coaction(rep, self, U, U.comult, self.coaction)


def build_A(mcd: ModCatDatum, U: FiniteHopf | None = None,
            proofs: CheckReport | None = None) -> ComoduleAlgebra:
    """The comodule algebra generated by the subspace rows and the e_f.

    ``U`` is the bosonization of ``mcd.datum`` at any conductor dividing
    ``mcd.L``; it is built when not given.  The tables are verified
    against the ledger ``proofs`` (``ComoduleAlgebra.verify``).
    """
    mcd.require_valid()
    labels = monomial_labels(mcd.heights, mcd.F)
    rules = ComoduleRules(mcd)
    mult = rules.product_table(labels)
    ident = mcd.datum.group.identity()
    zero_w = (0,) * mcd.n_letters
    unit = {labels.index((zero_w, ident.exps)): linalg.pone(mcd.L)}
    alg = FiniteAlgebra(labels, mcd.L, mult, unit)
    if U is None:
        U = build_bosonization(mcd.datum)
    U = U.rebased(mcd.L)
    # y_a -> sum_p row_a[p] x_p (x) 1 + h_a (x) y_a
    coaction = extend_letters(
        U, alg, labels,
        [({p: c.raw() for p, c in zip(pos, row) if not c.is_zero()}, h.exps, a)
         for a, (pos, row, h) in enumerate(
             zip(mcd.positions, mcd.rows, mcd.carriers))],
        mcd.heights)
    A = ComoduleAlgebra(labels, mcd.L, mult, unit, U, coaction,
                        degree=[sum(r) for r, _ in labels], mcd=mcd,
                        engine=rules)
    A.verify(proofs).require(ConfluenceFailure, "built tables fail verification")
    return A


def build_K(mcd: ModCatDatum, U: FiniteHopf | None = None) -> ComoduleAlgebra:
    """The graded model: ``build_A`` of the same subgroup, cocycle and
    rows with every xi and alpha zero, at the conductor of ``mcd``."""
    mcd.require_valid()
    return build_A(ModCatDatum(mcd.datum, mcd.F, mcd.psi, mcd.w()), U)


def regular_coaction(H: FiniteHopf) -> ComoduleAlgebra:
    """H as a left comodule algebra over itself via its coproduct."""
    coaction = [dict(cell) for cell in H.comult]
    return ComoduleAlgebra(H.labels, H.L, H.mult, dict(H.unit), H, coaction,
                           degree=H.degree, engine=H.engine)


def trivial_coaction(U: FiniteHopf, alg: FiniteAlgebra = None) -> ComoduleAlgebra:
    """alg with the coaction a -> 1 tensor a; the negative control."""
    if alg is None:
        alg = U
    U = U.rebased(alg.L)
    coaction = []
    for i in range(alg.dim):
        vec2 = {}
        for u0, c0 in U.unit.items():
            vec2[(u0, i)] = c0
        coaction.append(vec2)
    return ComoduleAlgebra(alg.labels, alg.L, alg.mult, alg.unit, U, coaction)


def loewy_filtration(A: ComoduleAlgebra) -> list:
    """Subspaces A_n = preimage of the degree-n part of the coaction."""
    U = A.hopf
    if U.degree is None:
        raise ValidationError("coacting Hopf algebra carries no degree data")
    nA = A.dim
    spaces = []
    n = 0
    while True:
        rows = []
        for i in range(nA):
            rows.append({u * nA + a: c for (u, a), c in A.coaction[i].items()
                         if U.degree[u] > n})
        spaces.append(linalg.left_kernel(rows, U.dim * nA, A.L))
        if spaces[-1].dim == nA:
            return spaces
        n += 1


def verify_loewy(A: ComoduleAlgebra, spaces=None) -> CheckReport:
    """Layer dimensions, monomial membership and product compatibility."""
    rep = CheckReport("loewy")
    if A.degree is None:
        rep.fail("no-degree-data", None)
        return rep
    if spaces is None:
        spaces = loewy_filtration(A)
    one = linalg.pone(A.L)
    top = len(spaces) - 1
    for n, sp in enumerate(spaces):
        want = sum(1 for d in A.degree if d <= n)
        if sp.dim != want:
            rep.fail("layer-dimension", (n, sp.dim, want))
        for i, d in enumerate(A.degree):
            if d <= n and not sp.contains({i: one}):
                rep.fail("monomial-missing", (n, A.labels[i]))
                break
    for i in range(top + 1):
        for j in range(top + 1):
            t = spaces[min(i + j, top)]
            ok = True
            for u in spaces[i].rows:
                for v in spaces[j].rows:
                    if not t.contains(A.multiply(u, v)):
                        rep.fail("product-degree", (i, j))
                        ok = False
                        break
                if not ok:
                    break
    return rep


def coinvariants(A: ComoduleAlgebra):
    """Subspace of a with coaction 1 tensor a, by an exact kernel solve."""
    U = A.hopf
    nA = A.dim
    rows = []
    for i in range(nA):
        row = {u * nA + a: c for (u, a), c in A.coaction[i].items()}
        for u0, c0 in U.unit.items():
            accumulate(row, u0 * nA + i, pneg(c0))
        rows.append(row)
    return linalg.left_kernel(rows, U.dim * nA, A.L)


class GaloisReport:
    """Rank data for the map a tensor b -> a_(-1) tensor a_(0) b."""

    def __init__(self, rank, source_dim, target_dim):
        self.rank = rank
        self.source_dim = source_dim
        self.target_dim = target_dim

    @property
    def bijective(self) -> bool:
        return self.rank == self.source_dim == self.target_dim

    def __repr__(self):
        return (f"GaloisReport(rank={self.rank}, source={self.source_dim}, "
                f"target={self.target_dim}, bijective={self.bijective})")


def galois_map(A: ComoduleAlgebra) -> GaloisReport:
    nA = A.dim
    red = A.ctx.reduction
    # column j sends a to a e_j; row (i, j) is lambda(e_i) (1 (x) e_j)
    cols = [[A.mult.get((a, j), {}) for a in range(nA)] for j in range(nA)]
    rows = [{u * nA + k: c
             for (u, k), c in linalg.through(lam, 1, col, red).items()}
            for lam in A.coaction for col in cols]
    return GaloisReport(linalg.rank(rows, A.L), nA * nA, A.hopf.dim * nA)


class SimplicityReport:
    """Outcome of the operator span and invariant subspace search: the
    verdict over an algebraic closure of K, "split-simple" or "reducible",
    and a K-rational invariant subspace as witness when one was found."""

    def __init__(self, verdict, operator_dim, full_dim, witness=None):
        self.verdict = verdict
        self.operator_dim = operator_dim
        self.full_dim = full_dim
        self.witness = witness

    def __repr__(self):
        return (f"SimplicityReport({self.verdict}, "
                f"operators {self.operator_dim}/{self.full_dim})")


def _operator_generators(A):
    nA = A.dim
    gens = []
    for k in range(nA):
        gens.append([A.mult.get((i, k), {}) for i in range(nA)])
    coaction = getattr(A, "coaction", None)
    if coaction is None:
        return gens
    support = sorted({u for lam in coaction for (u, _) in lam})
    for u in support:
        rows = []
        for i in range(nA):
            rows.append({a: c for (u2, a), c in coaction[i].items() if u2 == u})
        gens.append(rows)
    return gens


def _flat_op(rows, nA):
    out = {}
    for i, row in enumerate(rows):
        for j, c in row.items():
            out[i * nA + j] = c
    return out


def _sub_rows(r1, r2):
    out = []
    for a, b in zip(r1, r2):
        row = dict(a)
        for j, c in b.items():
            accumulate(row, j, pneg(c))
        out.append(row)
    return out


def _products(A, gens):
    """The coaction slices S_u and the right multiplications R_a, in the
    order both spans take the products R_a o S_u."""
    nA = A.dim
    return gens[nA:] or [[A.basis(i) for i in range(nA)]], gens[:nA]


def _leading_columns(A, gens) -> int:
    """How many distinct leading columns the products R_a o S_u have.

    The leading column of an operator is the least flat index i * n + j
    of a nonzero entry.  Only the rows combine(S[i], R_a) up to the first
    nonzero one are formed.  The count stops once it reaches n^2, or once
    the products left cannot bring it there.
    """
    nA = A.dim
    full = nA * nA
    slices, rmults = _products(A, gens)
    left = len(slices) * nA
    leads = set()
    for S in slices:
        nonzero = [(i, r) for i, r in enumerate(S) if r]
        for R in rmults:
            for i, r in nonzero:
                row = linalg.combine(r, R, A.L)
                if row:
                    leads.add(i * nA + min(row))
                    break
            left -= 1
            if len(leads) == full or len(leads) + left < full:
                return len(leads)
    return len(leads)


def _operator_span(A: ComoduleAlgebra, gens):
    """The operator algebra of A, spanned by the products R_a o S_u.

    R_a is right multiplication by the basis element a and S_u the
    coaction slice a |-> (u* (x) id) lambda(a), for u in the coaction's
    support; ``gens`` are the R_a, then the S_u, as
    ``_operator_generators`` lists them.  The algebra these generate is
    the span of the R_a o S_u alone (Montgomery, Hopf Algebras and Their
    Actions on Rings, 1993, 4.1: the action of A # H*), because that span
    is closed:

    * S_f o R_b = sum R_(S_(f_2)(b)) o S_(f_1), since lambda is
      multiplicative (f(hk) = f_1(h) f_2(k));
    * S_f o S_g = S_(f * g), by coassociativity, and sum eps(u) S_u is
      the identity, by the counit;
    * R_a o R_b = R_(b a), and R_1 is the identity.

    So inserting the n * |support| products proves the dimension; it is
    not sampling.  This needs A to pass ``ComoduleAlgebra.verify``, which
    every builder and the cotensor check.  Without a coaction the span is
    that of the R_a.
    """
    nA = A.dim
    full = nA * nA
    slices, rmults = _products(A, gens)
    sp = linalg.Subspace(A.L)
    for S in slices:
        for R in rmults:
            sp.insert(_flat_op([linalg.combine(r, R, A.L) for r in S], nA))
            if sp.dim == full:
                return sp
    return sp


def check_simplicity(A: ComoduleAlgebra) -> SimplicityReport:
    """Span the right multiplications and coaction slices, then decide
    over an algebraic closure K-bar of the ground field K.

    The span's dimension is the same over K and over K-bar, and a full
    span certifies that the only invariant subspaces are trivial.  Most
    spans are proven full by their leading columns alone: when the
    products R_a o S_u have n^2 distinct leading columns, those n^2
    operators are linearly independent.  In a dependency among them, the
    operator with the least leading column among those with a nonzero
    coefficient is the only one of them nonzero in that column, so its
    coefficient is zero after all.  That is the echelon argument, exact
    over K, and no vector is inserted.

    When the leading columns fall short, the span is eliminated.  A proper
    span is a proper subalgebra of End(A (x) K-bar), so by Burnside's
    theorem A (x) K-bar has a proper invariant subspace and the verdict
    is "reducible".  The kernel of each difference of two generators is
    then closed up under the generators, and the first proper closure is
    the K-rational witness; when none is proper the witness is None.
    """
    nA = A.dim
    full = nA * nA
    gens = _operator_generators(A)
    if _leading_columns(A, gens) == full:
        return SimplicityReport("split-simple", full, full)
    sp = _operator_span(A, gens)
    if sp.dim == full:
        return SimplicityReport("split-simple", sp.dim, full)

    for i, j in itertools.combinations(range(len(gens)), 2):
        sub = linalg.left_kernel(_sub_rows(gens[i], gens[j]), nA, A.L)
        if not 0 < sub.dim < nA:
            continue
        changed = True
        while changed and sub.dim < nA:
            changed = False
            for v in list(sub.rows):
                for g in gens:
                    if sub.insert(linalg.combine(v, g, A.L)):
                        changed = True
        if 0 < sub.dim < nA:
            return SimplicityReport("reducible", sp.dim, full, witness=sub)
    return SimplicityReport("reducible", sp.dim, full)


class SimpleModulesReport:
    """Radical dimension and central blocks of an algebra's semisimple part.

    Each block is a dict with its dimension b over the ground field K and
    the dimension d of its centre, which is a field of degree d over K.
    """

    def __init__(self, radical_dim, blocks):
        self.radical_dim = radical_dim
        self.blocks = blocks

    @property
    def block_data(self):
        return tuple(sorted(b["block_dim"] for b in self.blocks))

    def module_dims(self):
        """Dimensions of the simple modules over an algebraic closure of K.

        In characteristic 0 the radical commutes with extending scalars,
        and a block's centre, a field of degree d, is separable; so over
        the closure the block becomes d matrix blocks M_n with n^2 = b / d.
        """
        dims = []
        for b in self.blocks:
            n2, rem = divmod(b["block_dim"], b["center_dim"])
            n = isqrt(n2)
            if rem or n * n != n2:
                raise ArithmeticError(
                    f"a block of dimension {b['block_dim']} with centre of "
                    f"dimension {b['center_dim']} is not central simple")
            dims += [n] * b["center_dim"]
        return sorted(dims)

    def __repr__(self):
        return (f"SimpleModulesReport(radical={self.radical_dim}, "
                f"blocks={self.blocks})")


def _basis_traces(B: FiniteAlgebra) -> list:
    """The trace of left multiplication by each basis element, as pairs."""
    zero = linalg.pzero(B.L)
    tr = []
    for k in range(B.dim):
        acc = zero
        for j in range(B.dim):
            c = B.mult.get((k, j), {}).get(j)
            if c is not None:
                acc = padd(acc, c)
        tr.append(acc)
    return tr


def _trace(vec: dict, tr: list, red, zero):
    """The trace of left multiplication by vec, from the basis traces."""
    acc = zero
    for k, c in vec.items():
        acc = padd(acc, pmul(c, tr[k], red))
    return acc


def _trace_radical(B: FiniteAlgebra):
    nB = B.dim
    red = B.ctx.reduction
    zero = linalg.pzero(B.L)
    tr = _basis_traces(B)
    rows = []
    for i in range(nB):
        row = {}
        for j in range(nB):
            cell = B.mult.get((i, j))
            if not cell:
                continue
            acc = _trace(cell, tr, red, zero)
            if not pis0(acc):
                row[j] = acc
        rows.append(row)
    return linalg.left_kernel(rows, nB, B.L)


def _quotient_algebra(B: FiniteAlgebra, J):
    keep = [i for i in range(B.dim) if i not in set(J.pivots)]
    pos = {i: t for t, i in enumerate(keep)}

    def push(vec):
        return {pos[i]: c for i, c in J.reduce(vec).items()}

    mult = {}
    for a, i in enumerate(keep):
        for b, j in enumerate(keep):
            cell = push(B.mult.get((i, j), {}))
            if cell:
                mult[(a, b)] = cell
    return FiniteAlgebra([B.labels[i] for i in keep], B.L, mult, push(dict(B.unit)))


def _center(B: FiniteAlgebra):
    nB = B.dim
    rows = []
    for k in range(nB):
        row = {}
        for b in range(nB):
            diff = dict(B.mult.get((k, b), {}))
            for j, c in B.mult.get((b, k), {}).items():
                accumulate(diff, j, pneg(c))
            for j, c in diff.items():
                row[b * nB + j] = c
        rows.append(row)
    return linalg.left_kernel(rows, nB * nB, B.L)


def _min_poly(B: FiniteAlgebra, y: dict, unit: dict):
    """Monic minimal polynomial of y over the corner with the given unit.

    Returns its coefficients, lowest degree first, as CycloNumbers, and
    the powers y^0, ..., y^(m-1) below its degree m.
    """
    sp = linalg.Subspace(B.L)
    pows = [dict(unit)]
    sp.insert(dict(unit))
    cur = dict(unit)
    while True:
        cur = B.multiply(cur, y)
        if sp.contains(cur):
            sol = linalg.solve(pows, [cur], B.dim, B.L)[0] or {}
            coeffs = [-linalg.to_cyclo(sol[k], B.L) if k in sol
                      else CycloNumber.zero(B.L) for k in range(len(pows))]
            return coeffs + [CycloNumber.one(B.L)], pows
        sp.insert(dict(cur))
        pows.append(dict(cur))


# The memos below factor and split each distinct minimal polynomial once
# per process.  Bench classify (seed 1) calls _poly_factors 24 times on 7
# distinct polynomials for Z2xZ2 theta=2, 12 on 4 for Z4 theta=2 and 4 on
# 2 for Z3; _cofactor_idempotent 44 times on 13, 26 on 9 and 8 on 4.
_MEMO_SIZE = 1024


def _poly_key(coeffs) -> tuple:
    """A polynomial's coefficients as exact (conductor, pair) keys."""
    return tuple((c.L, c.raw()) for c in coeffs)


def _from_key(key) -> list:
    return [CycloNumber._make(L, pair) for L, pair in key]


def _poly_factors(coeffs, L: int):
    """The monic irreducible factors of a squarefree polynomial.

    Factored once per distinct (L, coefficients) in a process; every call
    gets fresh lists.
    """
    return [_from_key(h) for h in _factors_memo(L, _poly_key(coeffs))]


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _factors_memo(L: int, key: tuple) -> tuple:
    # imported on first use, so that commands which never factor do not
    # pay for loading it at start-up
    from . import polyfactor

    return tuple(_poly_key(h) for h in polyfactor.factor(_from_key(key), L))


def _cofactor_idempotent(coeffs, factor, L: int):
    """Coefficients of w with w = 1 mod factor and w = 0 mod coeffs/factor.

    Computed once per distinct argument in a process, like
    ``_poly_factors``.
    """
    return _from_key(_cofactor_memo(_poly_key(coeffs), _poly_key(factor), L))


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _cofactor_memo(coeffs: tuple, factor: tuple, L: int) -> tuple:
    from . import polyfactor

    p, f = _from_key(coeffs), _from_key(factor)
    u = polyfactor.exquo(p, f)
    h, v = _poly_xgcd(u, f)
    if len(h) != 1:
        raise ArithmeticError("factor is not coprime to its cofactor")
    inv = 1 / h[0]
    w = _poly_divmod(_poly_mul([c * inv for c in v], u), p)[1]
    return _poly_key(polyfactor.as_cyclo(w, L))


def _central_mixes(B: FiniteAlgebra, zrows):
    """The fixed central elements sum_i t^(i+1) z_i for t = 2, 3, ...

    Some mix generates the centre Z.  B is semisimple, so Z tensored with
    an algebraic closure is a product of m = dim Z copies of the closure,
    one character per copy, and z generates Z exactly when the m
    characters differ on z: then its minimal polynomial has m distinct
    roots.  Two distinct characters differ on some z_i, as the z_i span
    Z, so their difference on the mix for t is a nonzero polynomial in t
    of degree at most m.  Only finitely many t fail for each of the
    finitely many pairs of characters, and the sequence reaches a
    generator.  This needs B semisimple, so the algebra it came from
    must be associative, as every builder and the cotensor verify.
    """
    red = B.ctx.reduction
    for t in itertools.count(2):
        mix: dict = {}
        for i, zr in enumerate(zrows):
            vec_addmul(mix, zr, CycloNumber.from_rational(t ** (i + 1), B.L).raw(),
                       red)
        yield mix


def simple_modules(A: FiniteAlgebra) -> SimpleModulesReport:
    """Radical and central block decomposition.

    Works over the exact cyclotomic field at the algebra's conductor.
    After the trace-form radical is divided out, one central z generates
    the centre: the first of the centre's basis and then of the mixes of
    ``_central_mixes`` whose minimal polynomial p has degree dim Z.  Each
    irreducible factor h of p gives the central primitive idempotent
    e = w(z), w the cofactor idempotent of h, whose block has centre
    K[x]/(h) and dimension rank L_e = tr L_e = sum_s w_s tr L_(z^s).
    ``SimpleModulesReport.module_dims`` reads the simple modules over an
    algebraic closure off these blocks.
    """
    J = _trace_radical(A)
    B = _quotient_algebra(A, J) if J.dim else A
    Z = _center(B)
    for z in itertools.chain([dict(z) for z in Z.rows], _central_mixes(B, Z.rows)):
        p, powers = _min_poly(B, z, dict(B.unit))
        if len(p) - 1 == Z.dim:
            break
    tr, zero = _basis_traces(B), linalg.pzero(B.L)
    traces = [linalg.to_cyclo(_trace(x, tr, B.ctx.reduction, zero), B.L)
              for x in powers]

    blocks = []
    for h in _poly_factors(p, B.L):
        w = _cofactor_idempotent(p, h, B.L)
        dim = sum((c * t for c, t in zip(w, traces)),
                  CycloNumber.zero(B.L))
        if dim.den != 1 or any(dim.nums[1:]) or dim.nums[0] < 1:
            raise ArithmeticError(
                f"a central idempotent has trace {dim}, not a positive integer")
        blocks.append({"block_dim": int(dim.nums[0]), "center_dim": len(h) - 1})
    blocks.sort(key=lambda b: (b["block_dim"], b["center_dim"]))
    return SimpleModulesReport(J.dim, blocks)
