"""Finite-dimensional Hopf algebras presented by exact structure-constant tables.

The central builder turns a quantum linear space datum (group, grading
elements, characters) into the smash product of the nilpotent generator
algebra with the group algebra, with comultiplication, counit and
antipode materialized as sparse tables over a fixed cyclotomic field.
Its product table is the rewrite engine's, under the lifting rules with
every root and link scalar zero; this module adds the coalgebra.
Everything downstream (comodule algebras, deformations, reports) works
against the two table classes defined here.
"""

from __future__ import annotations

import itertools
import math

from . import _lazy, linalg
from ._kernel import add as padd, is_zero as pis0, mul as pmul
from .cyclo import CycloNumber, context
from .errors import DimensionMismatch, SizeBound, ValidationError
from .groups import AbelianGroup, Character, GroupElement
from .linalg import through, vec_addmul

# compiled on the first build: verify and a cache hit rewrite no words
rewrite = _lazy("rewrite")


class CheckReport:
    """Collected failures of one verification sweep.

    The report also reads a ledger of the algebras proven unital and
    associative, each with the generators that prove it, so that later
    checks can rest on those laws: the ledger of ``proofs`` (a command's
    ledger, passed from sweep to sweep), or its own.  Nothing is kept on
    the tables themselves.
    """

    def __init__(self, subject: str = "", proofs: "CheckReport | None" = None):
        self.subject = subject
        self.failures: list[tuple[str, object]] = []
        self.proven: list[tuple[FiniteAlgebra, list[int]]] = (
            [] if proofs is None else proofs.proven)

    def fail(self, check: str, witness) -> None:
        self.failures.append((check, witness))

    @property
    def ok(self) -> bool:
        return not self.failures

    def generators(self, alg: "FiniteAlgebra") -> list[int] | None:
        """The generators of ``alg`` when the ledger holds a proof that
        tables equal to alg's are unital and associative, else None."""
        for other, gens in self.proven:
            if FiniteAlgebra.same_tables(other, alg):
                return gens
        return None

    def prove(self, alg: "FiniteAlgebra", prefix: str = "") -> "CheckReport":
        """Sweep alg's unit laws and associativity unless the ledger holds
        a proof for tables equal to alg's; a new proof is entered in the
        ledger, and each failing law is reported here under ``prefix``."""
        if self.generators(alg) is None:
            rep = alg.verify_algebra()
            self.proven += rep.proven
            for name, witness in rep.failures:
                self.fail(prefix + name, witness)
        return self

    def checks_failed(self) -> list[str]:
        seen = []
        for name, _ in self.failures:
            if name not in seen:
                seen.append(name)
        return seen

    def require(self, error: type, what: str) -> "CheckReport":
        """This report when it holds no failure; otherwise raise
        ``error`` with ``what`` and the names of the failed checks."""
        if self.failures:
            raise error(f"{what}: {self.checks_failed()}")
        return self

    def __repr__(self):
        if self.ok:
            return f"CheckReport({self.subject or 'ok'}: ok)"
        return "CheckReport(%s: failed %s)" % (
            self.subject or "?", ", ".join(self.checks_failed()))


def _generators_prove(rep: CheckReport, check: str, failures, gens,
                      labels) -> bool:
    """Whether no tuple of the generators ``gens`` breaks the law, which
    the caller's induction then proves; ``failures(firsts)`` yields the
    breaking index tuples with first index in ``firsts``.  Without gens,
    or when one fails, each failure of every tuple is reported as check."""
    if gens is not None and next(failures(gens), None) is None:
        return True
    for t in failures(range(len(labels))):
        rep.fail(check, tuple(labels[i] for i in t))
    return False


def _columns(rows: dict, ij: dict, row_j: dict) -> list:
    """The columns k, in order, at which (e_i e_j) e_k or e_i (e_j e_k)
    can be nonzero: those of row j, and of each row m of e_i e_j = ij.
    ``rows[a]`` maps b to the nonzero cell mult[a, b]."""
    ks = set(row_j)
    for m in ij:
        ks.update(rows.get(m, ()))
    return sorted(ks)


def rebase_vec(vec: dict, L: int, M: int) -> dict:
    """Rewrite the pairs of a sparse vector from conductor L to M."""
    if M == L:
        return dict(vec)
    return {k: linalg.to_cyclo(v, L).rebase(M).raw() for k, v in vec.items()}


class FiniteAlgebra:
    """Associative unital algebra with a fixed basis and sparse exact tables.

    ``mult`` maps index pairs to sparse vectors ``{index: pair}``; absent
    cells are zero.  Instances are treated as immutable once built.  A
    table built by a ``rewrite.NormalFormEngine``, at its conductor or a
    multiple, keeps that ``engine``, whose presentation proves it.
    """

    def __init__(self, labels, L: int, mult: dict, unit: dict, engine=None):
        self.labels = list(labels)
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self.index) != len(self.labels):
            raise ValidationError("duplicate basis labels")
        self.L = L
        self.ctx = context(L)
        self.mult = mult
        self.unit = dict(unit)
        self.engine = engine

    @property
    def dim(self) -> int:
        return len(self.labels)

    def basis(self, i: int) -> dict:
        if not 0 <= i < self.dim:
            raise DimensionMismatch(f"basis index {i} out of range")
        return {i: linalg.pone(self.L)}

    def multiply(self, a: dict, b: dict) -> dict:
        n = self.dim
        red = self.ctx.reduction
        out: dict = {}
        for i, ca in a.items():
            if not 0 <= i < n:
                raise DimensionMismatch(f"vector index {i} out of range")
            for j, cb in b.items():
                if not 0 <= j < n:
                    raise DimensionMismatch(f"vector index {j} out of range")
                cell = self.mult.get((i, j))
                if not cell:
                    continue
                vec_addmul(out, cell, pmul(ca, cb, red), red)
        return out

    def _unit_failures(self):
        """The unit laws that fail, as (check, basis index), in basis order."""
        for i in range(self.dim):
            b = self.basis(i)
            if self.multiply(self.unit, b) != b:
                yield "unit-left", i
            if self.multiply(b, self.unit) != b:
                yield "unit-right", i

    def _associators(self, firsts):
        """The basis triples (i, j, k) with i in ``firsts`` and
        (e_i e_j) e_k != e_i (e_j e_k), in order.

        Both sides are read straight from the table: with
        e_i e_j = sum_m c_m e_m and e_j e_k = sum_m d_m e_m,
        (e_i e_j) e_k = sum_m c_m mult[m, k] and
        e_i (e_j e_k) = sum_m d_m mult[i, m].  Only the k of
        ``_columns`` can make either side nonzero, so only those are
        compared.  When e_i e_j = c e_m and e_j e_k = d e_m' are one term
        each, the sides are the scaled cells c mult[m, k] and
        d mult[i, m'], compared as such (``_same_multiples``).  Any other
        k, and a one-term pair that this does not show equal, is decided
        by accumulating both sums, as ``multiply`` would.
        """
        n = self.dim
        red = self.ctx.reduction
        rows: dict = {}     # rows[a][b] = mult[a, b], nonzero cells only
        for (a, b), cell in self.mult.items():
            if cell:
                rows.setdefault(a, {})[b] = cell
        empty: dict = {}
        for i in firsts:
            row_i = rows.get(i, empty)
            for j in range(n):
                row_j = rows.get(j, empty)
                ij = row_i.get(j, empty)
                if len(ij) == 1:
                    (m, c), = ij.items()
                    row_m = rows.get(m, empty)
                else:
                    row_m = None
                for k in _columns(rows, ij, row_j):
                    jk = row_j.get(k, empty)
                    if row_m is not None and len(jk) == 1:
                        (m, d), = jk.items()
                        if _same_multiples(row_m.get(k), c, row_i.get(m), d,
                                           red):
                            continue
                    left: dict = {}
                    for m, f in ij.items():
                        cell = rows.get(m, empty).get(k)
                        if cell:
                            vec_addmul(left, cell, f, red)
                    right: dict = {}
                    for m, f in jk.items():
                        cell = row_i.get(m)
                        if cell:
                            vec_addmul(right, cell, f, red)
                    if left != right:
                        yield i, j, k

    def generators(self) -> list[int]:
        """A generating set S of basis indices, chosen greedily
        (``left_closure``)."""
        return left_closure(self.dim, self.L, self.unit,
                            lambda s, v: self.multiply(self.basis(s), v))[0]

    def verify_algebra(self) -> CheckReport:
        """The unit laws and associativity: from the presentation of the
        table's ``engine`` when it has one, else by Light's sweep.

        With an engine, a proof that the table is the algebra the engine
        presents (``_presentation``) proves it associative, and the report
        keeps the letters as S for the checks that rest on these laws.
        When that proof fails, Light's sweep runs as below.  A table it
        finds breaking a law is reported by those failures, as one without
        an engine is; one that passes it is an algebra, but not the one
        its datum presents, and is reported by the steps and relations
        that fail.

        Light's sweep is Light's associativity test in its linear form
        (Clifford & Preston, *The Algebraic Theory of Semigroups* I, 1961,
        §1.2).  Once the unit laws hold, T = {x : (x y) z = x (y z) for
        all y, z} is a subspace containing 1, and it is closed under left
        multiplication by every s with (s y) z = s (y z) for all basis
        y, z: ((s x) y) z = (s (x y)) z = s ((x y) z) = s (x (y z))
        = (s x) (y z).  So when every s in S = ``generators()`` passes, T
        contains the closure V of 1 under S, which is the whole algebra.
        The sweep compares only the triples (s, y, z) with a possibly
        nonzero side, at most |S| n^2 and not n^3, and compares one-term
        sides without accumulating them (``_associators``); the report
        keeps S.  When the unit laws or a generator fail, every basis
        element and triple is swept, and the sweep reports each failure.
        """
        rep = CheckReport("algebra")
        failures: list = []
        if self.engine is not None:
            letters, failures = self._presentation()
            if not failures:
                rep.proven.append((self, letters))
                return rep
        for check, i in self._unit_failures():
            rep.fail(check, self.labels[i])
        gens = self.generators() if rep.ok else None
        if _generators_prove(rep, "associativity", self._associators, gens,
                             self.labels):
            rep.proven.append((self, gens))
            for check, witness in failures:
                rep.fail(check, witness)
        return rep

    def _presentation(self) -> tuple:
        """The letters S, as basis indices, and the failures of the proof
        that this table T is the algebra its ``engine`` presents on the
        PBW basis y^r g.

        The letters are the y_a and the group letters, the independent
        generators of the engine's carrier.  R_s is right multiplication
        by s read from T, R_s(v) = sum_k v_k T(k, s), and NF(v s) is the
        normal form of label v's word followed by the letter s.  The proof
        checks that
        1. the unit is e_1, the label of the empty word, and its row and
           column are those of the identity;
        2. each label u other than 1 and the letters has one parent step
           (p, s), s the last letter of u's PBW word (its last group
           letter, else its last y): the hooks give NF(p s) = c e_u (c = 1
           for a y, ``group_product``'s scalar for a group letter), and
           R_s(column p) = c column u on all n rows ("pbw-step"), which
           on row 1 says that T(p, s) is exactly c e_u;
        3. each defining relation x^m s of the hooks
           (``NormalFormEngine.relations``), where x^m is the PBW word of
           a label v, holds among the R_s on all n basis vectors:
           R_s(column v) = sum_t NF(v s)_t column t.
        This is the closure argument of Bergman's diamond lemma (Adv.
        Math. 29, 1978) on the PBW basis of Andruskiewitsch & Schneider
        (J. Algebra 209, 1998).  Let A be the algebra on the letters with
        the relations of 3, and w_u the PBW word of u.  Column 1 is the
        identity by 1, so by 2 column u is the operator of c_u^-1 w_u for
        c_u the product of the scalars along u's parent steps, and by 3
        V = k^n is a right A-module.  The relations move the group letters
        right, sort the y's and cut their powers and the group orders, so
        the n words w_u span A.  The map a -> e_1 R_a sends c_u^-1 w_u to
        T(1, u) = e_u, so it is onto V and hence a bijection, and
        T(x, u) = e_x R_(c_u^-1 w_u) is the product of A carried over by
        it.  So T is A: unital, associative, of dim n, with e_u the PBW
        basis element of u, and generated by S.  A wrong scalar gives
        another algebra, which may pass Light's sweep, but fails 3.
        Cost: the nonzero cells of T, each compared once in 2 or 3, and
        one more column per relation, against Light's |S| n^2 triples.
        """
        eng = self.engine
        red = self.ctx.reduction
        one = linalg.pone(self.L)
        idx = self.index
        group, carrier = eng.group, eng.carrier
        zero_r, ident = (0,) * eng.n_letters, group.identity().exps
        if eng.L == self.L:
            def lift(c):
                return c
        else:
            def lift(c):
                return linalg.to_cyclo(c, eng.L).rebase(self.L).raw()

        def run(x, m: int) -> int:
            """The label of x^m for a letter x."""
            if isinstance(x, int):
                return idx[(zero_r[:x] + (m,) + zero_r[x + 1:], ident)]
            return idx[(zero_r, (x ** m).exps)]

        cols: list = [{} for _ in range(self.dim)]  # cols[b][a] = T(a, b) != 0
        for (a, b), cell in self.mult.items():
            if cell:
                cols[b][a] = cell
        unit = idx[(zero_r, ident)]
        letter = {x: run(x, 1) for x in [*range(eng.n_letters), *(
            g for g, _ in eng.group_letters())]}
        ones = {i: {i: one} for i in range(self.dim)}
        if self.unit != {unit: one} or cols[unit] != ones or any(
                col.get(unit) != ones[j] for j, col in enumerate(cols)):
            return sorted(letter.values()), [("unit", self.labels[unit])]
        failures = []

        # the last letter s of each group element g = h s, with the
        # scalar c of h s = c g
        last = {}
        for g in carrier:
            k = carrier.dlog(g)
            if any(k):
                s = carrier.gens[max(t for t, e in enumerate(k) if e)]
                h = g * s.inv()
                c, hs = eng.group_product(h, s)
                last[g.exps] = h.exps, s, lift(c.raw()) if hs == g else None
        skip = {unit, *letter.values()}
        for u, (r, ge) in enumerate(self.labels):
            if u in skip:
                continue
            if ge != ident:
                he, s, c = last[ge]
                p = idx[(r, he)]
            else:
                s = max(a for a, e in enumerate(r) if e)
                p, c = idx[(r[:s] + (r[s] - 1,) + r[s + 1:], ge)], one
            if c is None or not _column_step(cols[u], c, cols[p],
                                             cols[letter[s]], one, red):
                failures.append(("pbw-step", self.labels[u]))

        for name, word in eng.relations():
            v, s = run(word[0], len(word) - 1), word[-1]
            r, ge = self.labels[v]
            nf = {idx[(t, g.exps)]: lift(c) for (t, g), c in eng.normalize(
                eng.word_of(r, group.element(ge)) + (s,)).items()}
            if len(nf) == 1:
                (t, c), = nf.items()
                target = cols[t]
            else:
                c, target = one, {}
                for t, d in nf.items():
                    for y, cell in cols[t].items():
                        vec_addmul(target.setdefault(y, {}), cell, d, red)
                target = {y: cell for y, cell in target.items() if cell}
            if not _column_step(target, c, cols[v], cols[letter[s]], one,
                                red):
                failures.append((name, tuple(self.labels[letter[x]]
                                             for x in word)))
        eng.clear_memo()
        return sorted(letter.values()), failures

    def same_tables(self, other) -> bool:
        return other is self or (
            isinstance(other, FiniteAlgebra)
            and self.labels == other.labels
            and self.L == other.L
            and self.unit == other.unit
            and self.mult == other.mult)

    def rebased(self, M: int) -> "FiniteAlgebra":
        """The same algebra with every pair rewritten at conductor M."""
        if M == self.L:
            return self
        mult = {k: rebase_vec(v, self.L, M) for k, v in self.mult.items()}
        return FiniteAlgebra(self.labels, M, mult,
                             rebase_vec(self.unit, self.L, M), self.engine)


def _same_multiples(a, c, b, d, red) -> bool:
    """Whether c a = d b, for sparse vectors a and b (None or empty for
    zero) and nonzero pairs c and d.  A product of two pairs is formed
    only where c = d, or swapping the factors, does not show it."""
    if not a or not b:
        return not a and not b
    if c == d:
        return a == b
    if a.keys() != b.keys():
        return False
    for key, v in a.items():
        w = b[key]
        if not (c == w and v == d or pmul(c, v, red) == pmul(d, w, red)):
            return False
    return True


def _column_step(col_u: dict, c, col_p: dict, col_s: dict, one, red) -> bool:
    """Whether c T(i, u) = R_s(T(i, p)) on every row i, for columns given
    as {row: nonzero cell}, a nonzero pair c and the pair ``one``.  Only
    the rows of column p can be nonzero on the right, so column u must
    lie within them."""
    if not col_u.keys() <= col_p.keys():
        return False
    for i, prev in col_p.items():
        if len(prev) == 1:
            (k, d), = prev.items()
            want = col_s.get(k)
        else:
            want, d = {}, one
            for k, e in prev.items():
                if k in col_s:
                    vec_addmul(want, col_s[k], e, red)
        if not _same_multiples(col_u.get(i), c, want, d, red):
            return False
    return True


def left_closure(n: int, L: int, unit: dict, times) -> tuple:
    """A generating set S of an n-dim algebra, chosen greedily, with the
    closure of 1 under S that proves it generates.

    ``times(s, v)`` is e_s v.  V starts as the span of 1 and is kept
    closed under left multiplication by S; walking the basis in label
    order, each element not yet in V joins S.  With the unit laws,
    s = s 1 lies in V once s joins S, so V ends as the whole algebra:
    every element is a combination of words s_1 (s_2 (... (s_k 1))).
    Returns S, the basis ``found`` of V, found[0] being 1, and the
    ``words`` (s, p), one for each later k, with found[k] = e_s found[p].
    """
    span = linalg.Subspace(L)
    span.insert(unit)
    found = [unit]
    words: list[tuple[int, int]] = []
    gens: list[int] = []
    done: list[int] = []    # done[t]: how many of found gens[t] has multiplied
    one = linalg.pone(L)
    for i in range(n):
        if span.dim == n:
            break
        if span.contains({i: one}):
            continue
        gens.append(i)
        done.append(0)
        while span.dim < n and min(done) < len(found):
            for t, s in enumerate(gens):
                while span.dim < n and done[t] < len(found):
                    prod = times(s, found[done[t]])
                    if span.insert(prod):
                        found.append(prod)
                        words.append((s, done[t]))
                    done[t] += 1
    return gens, found, words


def pair_multiply(first: FiniteAlgebra, second: FiniteAlgebra,
                  x: dict, y: dict) -> dict:
    """Componentwise product over first tensor second, keyed by index pairs.

    A product by the canonical 1 is skipped; entries that cancel, or are
    zero, are dropped."""
    if first.L != second.L:
        raise DimensionMismatch("tensor factors live at different conductors")
    red = first.ctx.reduction
    one = linalg.pone(first.L)
    out: dict = {}
    for (j1, k1), c1 in x.items():
        for (j2, k2), c2 in y.items():
            left = first.mult.get((j1, j2))
            if not left:
                continue
            right = second.mult.get((k1, k2))
            if not right:
                continue
            coef = c2 if c1 == one else pmul(c1, c2, red)
            for m1, d1 in left.items():
                f = d1 if coef == one else pmul(coef, d1, red)
                for m2, d2 in right.items():
                    term = d2 if f == one else pmul(f, d2, red)
                    key = (m1, m2)
                    cur = out.get(key)
                    cur = term if cur is None else padd(cur, term)
                    if pis0(cur):
                        out.pop(key, None)
                    else:
                        out[key] = cur
    return out


def extend_letters(first: FiniteAlgebra, second: FiniteAlgebra, labels,
                   specs, heights) -> list:
    """Images of the basis labels (r, g) under an algebra map into
    first tensor second, fixed by the images of the generators.

    Both factors have monomial labels (exponents, group element).  Letter
    a has the spec (row, h, b): its image is
    sum_p row[p] x_p tensor 1 + h tensor y_b, with x_p the letters of
    first, y_b those of second and h the exponents of a group element.
    The image of (r, g) is 1 tensor 1 times the image of letter a to the
    power r[a] for a = 0, 1, ... in turn, times g tensor g; ``heights[a]``
    bounds the exponents of letter a.  The letter chain of each exponent
    tuple r is multiplied out once and shared by every label (r, g).
    """
    one = linalg.pone(first.L)
    ident = (0,) * len(labels[0][1])

    def at(alg, p, ge) -> int:
        """The index of x_p g in alg, or of g when p is None."""
        width = len(alg.labels[0][0])
        return alg.index[(tuple(int(t == p) for t in range(width)), ge)]

    def group_image(ge) -> dict:
        return {(at(first, None, ge), at(second, None, ge)): one}

    start = group_image(ident)
    unit = at(second, None, ident)
    pows = []
    for (row, h, b), height in zip(specs, heights):
        letter = {(at(first, p, ident), unit): c for p, c in row.items()}
        letter[(at(first, None, h), at(second, b, ident))] = one
        powers = [start]
        for _ in range(1, height):
            powers.append(pair_multiply(first, second, powers[-1], letter))
        pows.append(powers)
    chains: dict = {}
    out = []
    for r, ge in labels:
        t = chains.get(r)
        if t is None:
            t = start
            for a, k in enumerate(r):
                if k:
                    t = pair_multiply(first, second, t, pows[a][k])
            chains[r] = t
        out.append(pair_multiply(first, second, t, group_image(ge)))
    return out


COACTION_CHECKS = ("coaction-unital", "coaction-coassociative",
                   "coaction-counital", "coaction-multiplicative")
HOPF_CHECKS = ("comult-unital", "coassociativity", "counit-law",
               "comult-multiplicative")


def verify_coaction(rep: CheckReport, alg: FiniteAlgebra, U: FiniteHopf,
                    comult, coaction, names=COACTION_CHECKS) -> CheckReport:
    """Sweep the left comodule-algebra axioms of ``coaction`` into ``rep``.

    ``coaction[i]`` maps (U index, alg index) pairs to the coefficients
    of the image of basis element i.  It is checked against the coproduct
    ``comult`` and U's unit, counit and product; ``names`` names the
    unital, coassociative, counital and multiplicative checks.  A Hopf
    algebra is a comodule algebra over itself through its coproduct, and
    a right coaction is a left one over the reversed coproduct once its
    legs are swapped (Montgomery 1993, §1.6), so this one sweep serves
    all three.

    Multiplicativity is proven from the generators S of ``alg`` when
    the ledger of ``rep`` already holds proofs that alg and U are unital
    and associative (``CheckReport.generators``) and the coaction is
    unital: then T = {x : delta(x y) = delta(x) delta(y) for all y}
    contains 1 and is closed under left multiplication by each s with
    delta(s y) = delta(s) delta(y) for all basis y, since
    delta((s x) y) = delta(s) delta(x y) = (delta(s) delta(x)) delta(y)
    = delta(s x) delta(y) in the associative U tensor alg.  So the |S| n
    pairs (s, y) prove the law.  Otherwise, or when a pair fails, all n^2
    pairs are swept and each failure reported.  Each caller proves alg
    and U through that ledger first (``CheckReport.prove``).
    """
    unital, coassociative, counital, multiplicative = names
    red = alg.ctx.reduction
    n = alg.dim
    unit_target = {}
    for u0, c0 in U.unit.items():
        for i, c in alg.unit.items():
            unit_target[(u0, i)] = pmul(c0, c, red)
    is_unital = linalg.combine(alg.unit, coaction, alg.L) == unit_target
    if not is_unital:
        rep.fail(unital, "1")

    counit = [{(): e} for e in U.counit]
    for i, lam in enumerate(coaction):
        if through(lam, 0, comult, red) != through(lam, 1, coaction, red):
            rep.fail(coassociative, alg.labels[i])
        if through(lam, 0, counit, red) != {(i,): linalg.pone(alg.L)}:
            rep.fail(counital, alg.labels[i])

    def unmultiplicative(firsts):
        for i in firsts:
            for j in range(n):
                want = pair_multiply(U, alg, coaction[i], coaction[j])
                got = linalg.combine(alg.mult.get((i, j), {}), coaction, alg.L)
                if got != want:
                    yield i, j

    proven = is_unital and rep.generators(U) is not None
    _generators_prove(rep, multiplicative, unmultiplicative,
                      rep.generators(alg) if proven else None, alg.labels)
    return rep


class FiniteHopf(FiniteAlgebra):
    """FiniteAlgebra plus coalgebra and antipode tables.

    ``comult`` and ``antipode`` are lists aligned with the basis; ``counit``
    is a list of pairs.  ``degree`` records the coradical degree of each
    basis element; when ``graded`` is set the comultiplication is expected
    to preserve total degree exactly, otherwise only to filter it.
    """

    def __init__(self, labels, L, mult, unit, comult, counit, antipode,
                 degree=None, graded=False, engine=None):
        super().__init__(labels, L, mult, unit, engine)
        self.comult = comult
        self.counit = counit
        self.antipode = antipode
        self.degree = list(degree) if degree is not None else None
        self.graded = graded
        if self.degree is not None:
            if any(self.degree[i] > self.degree[i + 1]
                   for i in range(self.dim - 1)):
                raise ValidationError("basis labels are not sorted by degree")

    def comultiply(self, a: dict) -> dict:
        red = self.ctx.reduction
        out: dict = {}
        for i, c in a.items():
            if not 0 <= i < self.dim:
                raise DimensionMismatch(f"vector index {i} out of range")
            vec_addmul(out, self.comult[i], c, red)
        return out

    def counit_value(self, a: dict):
        red = self.ctx.reduction
        acc = linalg.pzero(self.L)
        for i, c in a.items():
            acc = padd(acc, pmul(c, self.counit[i], red))
        return acc

    def same_tables(self, other) -> bool:
        return other is self or (
            isinstance(other, FiniteHopf)
            and super().same_tables(other)
            and self.comult == other.comult
            and self.counit == other.counit
            and self.antipode == other.antipode)

    def rebased(self, M: int) -> "FiniteHopf":
        if M == self.L:
            return self
        alg = super().rebased(M)
        comult = [rebase_vec(v, self.L, M) for v in self.comult]
        counit = [linalg.to_cyclo(p, self.L).rebase(M).raw() for p in self.counit]
        antipode = [rebase_vec(v, self.L, M) for v in self.antipode]
        return FiniteHopf(self.labels, M, alg.mult, alg.unit,
                          comult, counit, antipode, degree=self.degree,
                          graded=self.graded, engine=self.engine)

    def verify(self) -> CheckReport:
        rep = CheckReport("hopf").prove(self)
        # H coacts on itself through its coproduct: the sweep checks
        # comult-unital, coassociativity, the left half of the counit law
        # and comult-multiplicative; the right half below adds counit-law
        # only for elements the left half passed
        verify_coaction(rep, self, self, self.comult, self.comult, HOPF_CHECKS)
        red = self.ctx.reduction
        n = self.dim
        basis = [self.basis(i) for i in range(n)]
        counit_unital = self.counit_value(self.unit) == linalg.pone(self.L)
        if not counit_unital:
            rep.fail("counit-unital", "1")

        counit = [{(): e} for e in self.counit]
        for i in range(n):
            di = self.comult[i]
            sl: dict = {}
            sr: dict = {}
            for (j, k), c in di.items():
                vec_addmul(sl, self.multiply(self.antipode[j], basis[k]), c, red)
                vec_addmul(sr, self.multiply(basis[j], self.antipode[k]), c, red)
            if (through(di, 1, counit, red) != {(i,): linalg.pone(self.L)}
                    and ("counit-law", self.labels[i]) not in rep.failures):
                rep.fail("counit-law", self.labels[i])
            target = {}
            vec_addmul(target, self.unit, self.counit[i], red)
            if sl != target or sr != target:
                rep.fail("antipode", self.labels[i])

            if self.degree is not None:
                for (j, k) in di:
                    total = self.degree[j] + self.degree[k]
                    if total > self.degree[i] or (self.graded and total != self.degree[i]):
                        rep.fail("coradical-degree", (self.labels[i], self.labels[j], self.labels[k]))
                        break

        # eps is multiplicative once eps(s y) = eps(s) eps(y) for every
        # generator s and basis y, given the unit laws, associativity and
        # eps(1) = 1: T = {x : eps(x y) = eps(x) eps(y) for all y}
        # contains 1 and eps((s x) y) = eps(s) eps(x y) puts s x in T
        def uncounital(firsts):
            for i in firsts:
                for j in range(n):
                    prod = self.mult.get((i, j), {})
                    if self.counit_value(prod) != pmul(self.counit[i], self.counit[j], red):
                        yield i, j

        _generators_prove(rep, "counit-multiplicative", uncounital,
                          rep.generators(self) if counit_unital else None,
                          self.labels)
        return rep


class QlsDatum:
    """Grading elements and characters presenting a quantum linear space."""

    def __init__(self, group: AbelianGroup, g, chi):
        if len(g) != len(chi):
            raise ValidationError("need one character per grading element")
        self.group = group
        self.g = list(g)
        self.chi = list(chi)
        self.theta = len(self.g)
        for el in self.g:
            if not isinstance(el, GroupElement) or el.group != group:
                raise ValidationError("grading element does not live in the base group")
        for ch in self.chi:
            if not isinstance(ch, Character) or ch.carrier != group:
                raise ValidationError("character is not defined on the base group")
        self.q = [self.chi[i](self.g[i]) for i in range(self.theta)]
        self.N = [qi.order() for qi in self.q]

    @property
    def conductor(self) -> int:
        return self.group.exponent

    def isotypic(self) -> dict:
        comp: dict = {}
        for i, el in enumerate(self.g):
            comp.setdefault(el, []).append(i)
        return comp

    def q_scalar(self, h: GroupElement, g: GroupElement) -> CycloNumber:
        """The scalar moving a degree-h generator past a degree-g one."""
        indices = [j for j, el in enumerate(self.g) if el == g]
        if not indices:
            raise ValidationError("no generator in the requested component")
        vals = [self.chi[j](h) for j in indices]
        for v in vals[1:]:
            if v != vals[0]:
                raise ValidationError("component-wise commutation scalar is ambiguous")
        return vals[0]

    def validate(self) -> CheckReport:
        rep = CheckReport("datum")
        for i, qi in enumerate(self.q):
            if qi.is_one():
                rep.fail("self-pairing-one", i)
        for i in range(self.theta):
            for j in range(i + 1, self.theta):
                prod = self.chi[j](self.g[i]) * self.chi[i](self.g[j])
                if not prod.is_one():
                    rep.fail("pairing-not-inverse", (i, j, repr(prod)))
        for el, idcs in self.isotypic().items():
            if len(idcs) >= 2:
                for i in idcs:
                    if self.N[i] != 2:
                        rep.fail("height-not-two", (i, el.exps))
        return rep

    def require_valid(self) -> None:
        self.validate().require(ValidationError, "invalid datum")


# Every table a command builds has a basis from monomial_labels, so this
# bounds each build before it starts.  build-hopf of the Z32 bosonization
# (dim 1,024) takes 15-16 s and 605 MB (pure lane, shared 2-vCPU VM); Z64's
# (dim 4,096) ran out of 1 GiB of address space within 10 s.
MAX_TABLE_DIM = 1024


def monomial_labels(heights, elements) -> list:
    """Basis labels (r, g): exponent tuples r with r[a] < heights[a], by
    total degree and then lexicographically, each with every element g
    of a group or subgroup.  A basis past MAX_TABLE_DIM is a SizeBound."""
    dim = math.prod(heights) * elements.order
    if dim > MAX_TABLE_DIM:
        raise SizeBound(f"table dimension {dim} exceeds the ceiling "
                        f"{MAX_TABLE_DIM}")
    rs = sorted(itertools.product(*[range(n) for n in heights]),
                key=lambda r: (sum(r), r))
    gs = sorted(elements, key=lambda e: e.exps)
    return [(r, g.exps) for r in rs for g in gs]


def complete_hopf(rules, graded: bool) -> FiniteHopf:
    """The product table of the lifting rules ``rules`` on the monomial
    basis, with unit, coalgebra and antipode around it.

    The bosonization and its liftings share them: the letter x_i is
    (g_i, 1)-skew primitive, the group elements are group-like and
    S(x_i) = -g_i^-1 x_i.
    """
    d, L = rules.d, rules.L
    group, theta = d.group, d.theta
    labels = monomial_labels(d.N, group)
    mult = rules.product_table(labels)
    one = linalg.pone(L)
    idx = {lab: i for i, lab in enumerate(labels)}
    zero_r = (0,) * theta
    ident = group.identity()
    unit_idx = idx[(zero_r, ident.exps)]
    unit = {unit_idx: one}
    alg = FiniteAlgebra(labels, L, mult, unit)

    comult = extend_letters(alg, alg, labels,
                            [({i: one}, d.g[i].exps, i) for i in range(theta)],
                            d.N)
    counit = [one if sum(r) == 0 else linalg.pzero(L) for r, _ in labels]

    sx = []
    for i in range(theta):
        ei = tuple(1 if a == i else 0 for a in range(theta))
        coef = -(d.q[i].inv().rebase(L))
        sx.append({idx[(ei, d.g[i].inv().exps)]: coef.raw()})
    antipode = []
    for r, ge in labels:
        vec = alg.basis(idx[(zero_r, group.element(ge).inv().exps)])
        for i in reversed(range(theta)):
            for _ in range(r[i]):
                vec = alg.multiply(vec, sx[i])
        antipode.append(vec)

    return FiniteHopf(labels, L, mult, unit, comult, counit, antipode,
                      degree=[sum(r) for r, _ in labels], graded=graded,
                      engine=rules)


def build_bosonization(d: QlsDatum) -> FiniteHopf:
    """The graded Hopf algebra on monomials x^r times a group element: the
    lifting whose root and link scalars are all zero."""
    d.require_valid()
    return complete_hopf(rewrite.LiftingRules(d, d.group.exponent),
                         graded=True)


def group_hopf(group: AbelianGroup) -> FiniteHopf:
    """The group algebra with its usual Hopf structure."""
    return build_bosonization(QlsDatum(group, [], []))
