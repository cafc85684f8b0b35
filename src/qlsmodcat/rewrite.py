"""Rewriting of generator words into ascending PBW normal form.

A word is a tuple whose entries are generator indices (plain ints) or
group elements.  The target shape is a run of generator indices in
ascending order, each run shorter than that generator's height, followed
by exactly one group element.  Relations are supplied by subclasses as
four hooks; the engine repeatedly replaces the leftmost reducible
pattern and memoizes finished words.

A product table needs only n * theta normal forms, not n^2: each basis
label times each letter.  The basis is the PBW basis y^r g, so the row of
e_i is built by right multiplication, e_i y^r g = ((e_i y^(r - e_a)) y_a) g
with a the last letter of r, and a group element on the right moves a
normal form e_(t,k) to a multiple of e_(t,kg).  For a confluent
presentation every word has one normal form (Bergman's diamond lemma),
so this composition gives the normal form of the concatenated label
words, cell for cell.  For a presentation that is not confluent the two
may differ; the axiom sweeps run on the table either way.

``LiftingRules`` presents the liftings of a bosonized quantum linear
space, and with every scalar zero the bosonization itself, so every Hopf
product table comes from this engine; ``comodule.ComoduleRules`` presents
the comodule algebras and their graded models.
"""

from __future__ import annotations

from ._kernel import mul as pmul
from .cyclo import CycloNumber, context
from .groups import GroupElement
from .linalg import vec_addmul


class NormalFormEngine:
    """Skeleton rewriter; subclasses encode one presentation each."""

    def __init__(self, n_letters, heights, group, conductor):
        if any(h < 2 for h in heights):
            raise ValueError("every generator height must be at least 2")
        self.n_letters = n_letters
        self.heights = tuple(heights)
        self.group = group
        self.L = conductor
        self.one = CycloNumber.one(conductor)
        self._red = context(conductor).reduction
        self._memo = {}

    # Relation hooks.  Fragment lists hold (coefficient, replacement word)
    # pairs; a dropped branch is expressed by an empty list or a zero
    # coefficient, both of which the reducer skips.

    def group_product(self, g, h):
        """Return (coefficient, product element) for adjacent g, h."""
        raise NotImplementedError

    def move_group_past(self, g, a):
        """Return the scalar picked up by commuting g to the right of a."""
        raise NotImplementedError

    def swap_descending(self, b, a):
        """Fragments replacing the two-letter word (b, a) with b > a."""
        raise NotImplementedError

    def cut_power(self, a):
        """Fragments replacing a full height-long run of the letter a."""
        raise NotImplementedError

    def normalize(self, word):
        """Reduce a word to {(exponents, group element): coefficient},
        each coefficient a kernel pair.

        The returned dict is shared through the memo table; callers must
        treat it as read-only.
        """
        word = tuple(word)
        done = self._memo.get(word)
        if done is None:
            done = self._reduce(word)
            self._memo[word] = done
        return done

    def _reduce(self, word):
        hit = self._leftmost(word)
        if hit is None:
            return {self._pack(word): self.one.raw()}
        start, length, frags = hit
        head, tail = word[:start], word[start + length:]
        out = {}
        for coef, frag in frags:
            if coef.is_zero():
                continue
            vec_addmul(out, self.normalize(head + tuple(frag) + tail),
                       coef.raw(), self._red)
        return out

    def _leftmost(self, word):
        n = len(word)
        for i, x in enumerate(word):
            if isinstance(x, GroupElement):
                if i + 1 == n:
                    continue
                y = word[i + 1]
                if isinstance(y, GroupElement):
                    coef, merged = self.group_product(x, y)
                    return i, 2, [(coef, (merged,))]
                return i, 2, [(self.move_group_past(x, y), (y, x))]
            h = self.heights[x]
            if word[i:i + h] == (x,) * h:
                return i, h, self.cut_power(x)
            if i + 1 < n and isinstance(word[i + 1], int) and word[i + 1] < x:
                return i, 2, self.swap_descending(x, word[i + 1])
        return None

    def _pack(self, word):
        exps = [0] * self.n_letters
        tail = self.group.identity()
        for x in word:
            if isinstance(x, GroupElement):
                tail = x
            else:
                exps[x] += 1
        return tuple(exps), tail

    def product_table(self, labels) -> dict:
        """Structure constants on the basis labels (exponents, group exps).

        Cell (i, j) holds the normal form of label i's word followed by
        label j's, as {index: pair}; zero cells are left out.  Only the
        words of label i followed by one letter are normalized.  With
        label j = (r, g), row i is e_i y^r = (e_i y^(r - e_a)) y_a for a
        the last letter of r, one sparse step per exponent tuple, and then
        e_(t,k) g = c e_(t,kg) for (c, kg) = group_product(k, g), a
        coefficient of a group-element product and so never zero.  The
        labels are those of ``monomial_labels``: every (t, k) for t in a
        box of exponents and k in a group, by total degree of t, so that
        r - e_a comes before r.
        """
        idx = {lab: i for i, lab in enumerate(labels)}
        red = self._red
        elem = {ge: self.group.element(ge) for _, ge in labels}
        right = [[self._cell(self.word_of(r, elem[ge]) + (a,), idx)
                  for r, ge in labels] for a in range(self.n_letters)]
        moves = {}
        for g in elem.values():
            by_k = {}
            for ke, k in elem.items():
                coef, kg = self.group_product(k, g)
                by_k[ke] = kg.exps, coef.raw()
            moves[g.exps] = [(idx[(t, by_k[ke][0])], by_k[ke][1])
                             for t, ke in labels]
        steps = []
        for r in dict.fromkeys(r for r, _ in labels):
            if any(r):
                a = max(b for b, e in enumerate(r) if e)
                steps.append((r, r[:a] + (r[a] - 1,) + r[a + 1:], right[a]))
        zero_r = (0,) * self.n_letters
        mult: dict = {}
        for i in range(len(labels)):
            rows = {zero_r: {i: self.one.raw()}}
            for r, prev, by in steps:
                row: dict = {}
                for k, c in rows[prev].items():
                    vec_addmul(row, by[k], c, red)
                rows[r] = row
            for j, (r, ge) in enumerate(labels):
                move = moves[ge]
                cell = {}
                for k, c in rows[r].items():
                    tgt, d = move[k]
                    cell[tgt] = pmul(c, d, red)
                if cell:
                    mult[(i, j)] = cell
        return mult

    def _cell(self, word, idx) -> dict:
        return {idx[(t, g.exps)]: c for (t, g), c in self.normalize(word).items()}

    def word_of(self, exps, g):
        """Inverse of _pack: the word a product of normal forms starts from."""
        letters = []
        for a, r in enumerate(exps):
            letters.extend([a] * r)
        letters.append(g)
        return tuple(letters)


class LiftingRules(NormalFormEngine):
    """Rewriting rules for the lifting of a quantum linear space datum
    ``d`` by root scalars ``mu`` (one per letter) and link scalars ``lam``
    ({(i, j): scalar} for i < j), all CycloNumbers at ``conductor``.
    Left out, every scalar is zero: the rules of the bosonization."""

    def __init__(self, d, conductor, mu=None, lam=None):
        super().__init__(d.theta, d.N, d.group, conductor)
        self.d = d
        self.mu = mu or [CycloNumber.zero(conductor)] * d.theta
        self.lam = lam or {}

    def group_product(self, g, h):
        return self.one, g * h

    def move_group_past(self, g, a):
        return self.d.chi[a](g).rebase(self.L)

    def swap_descending(self, b, a):
        coef = self.d.chi[a](self.d.g[b]).rebase(self.L)
        frags = [(coef, (a, b))]
        lam = self.lam.get((a, b))
        if lam is not None:
            frags.append((-(coef * lam), ()))
            frags.append((coef * lam, (self.d.g[a] * self.d.g[b],)))
        return frags

    def cut_power(self, a):
        m = self.mu[a]
        if m.is_zero():
            return []
        return [(m, ()), (-m, ((self.d.g[a] ** self.d.N[a]),))]
