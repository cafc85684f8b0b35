"""Rewriting of generator words into ascending PBW normal form.

A word is a tuple whose entries are generator indices (plain ints) or
group elements.  The target shape is a run of generator indices in
ascending order, each run shorter than that generator's height, followed
by exactly one group element.  Relations are supplied by subclasses as
four hooks; the engine repeatedly replaces the leftmost reducible
pattern and memoizes finished words, so repeated table builds stay
cheap.
"""

from __future__ import annotations

from .cyclo import CycloNumber
from .groups import GroupElement


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
        """Reduce a word to {(exponents, group element): coefficient}.

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
            return {self._pack(word): self.one}
        start, length, frags = hit
        head, tail = word[:start], word[start + length:]
        out = {}
        for coef, frag in frags:
            if coef.is_zero():
                continue
            for key, c in self.normalize(head + tuple(frag) + tail).items():
                acc = out.get(key)
                acc = coef * c if acc is None else acc + coef * c
                if acc.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = acc
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
        label j's, as {index: pair}; zero cells are left out.
        """
        idx = {lab: i for i, lab in enumerate(labels)}
        words = [self.word_of(r, self.group.element(ge)) for r, ge in labels]
        mult: dict = {}
        for i1, w1 in enumerate(words):
            for i2, w2 in enumerate(words):
                nf = self.normalize(w1 + w2)
                cell = {idx[(t, g.exps)]: c.raw() for (t, g), c in nf.items()}
                if cell:
                    mult[(i1, i2)] = cell
        return mult

    def word_of(self, exps, g):
        """Inverse of _pack: the word a product of normal forms starts from."""
        letters = []
        for a, r in enumerate(exps):
            letters.extend([a] * r)
        letters.append(g)
        return tuple(letters)
