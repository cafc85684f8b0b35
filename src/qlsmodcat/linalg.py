"""Sparse exact linear algebra over a fixed cyclotomic field.

Vectors are dicts mapping integer column indices to kernel pairs; absent
columns are zero.  Every object taking part in one computation must live
at the same conductor L.  Scalars enter and leave as kernel pairs;
``to_cyclo`` turns one back into a ``CycloNumber``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict

from qlsmodcat import _kernel as _K
from qlsmodcat._kernel import add as padd, is_zero as pis0, mul as pmul
from qlsmodcat._kernel.pure import units
from qlsmodcat.cyclo import CycloNumber, context


def pzero(L: int):
    return (0,) * context(L).degree, 1


def pone(L: int):
    return units(context(L).degree)[0]


def to_cyclo(pair, L: int) -> CycloNumber:
    return CycloNumber._make(L, pair)


def inv_pair(pair, L: int):
    """Inverse of a nonzero pair; 1 and -1 are their own inverses."""
    if pair in units(len(pair[0])):
        return pair
    return CycloNumber._make(L, pair).inv().raw()


def _drop_zeros(out: dict, vec: dict) -> None:
    """out += 0 * vec: drop the zero entries of out in vec's keys."""
    for c in out.keys() & vec.keys():
        if pis0(out[c]):
            del out[c]


def axpy_neg(out: dict, f, row: dict, red) -> None:
    """In place: out -= f * row.  Zero entries are dropped.

    f = 1 subtracts row's entries with no product, and f = 0 only drops
    the zero entries of out in row's columns, as the sum would; every
    path drops a zero or cancelled entry."""
    if pis0(f):
        _drop_zeros(out, row)
        return
    unit = f == units(len(f[0]))[0]
    for c, v in row.items():
        cur = out.get(c)
        if unit:
            w = _K.neg(v) if cur is None else _K.sub(cur, v)
        else:
            w = _K.neg(_K.mul(f, v, red)) if cur is None else _K.submul(cur, f, v, red)
        if _K.is_zero(w):
            out.pop(c, None)
        else:
            out[c] = w


def accumulate(store: dict, key, pair) -> None:
    """store[key] += pair in place, dropping the entry when it cancels.

    Sparse vectors never hold a zero entry, so two of them are equal
    exactly when their dicts are; the axiom sweeps compare them that way.
    """
    cur = store.get(key)
    cur = pair if cur is None else padd(cur, pair)
    if pis0(cur):
        store.pop(key, None)
    else:
        store[key] = cur


def vec_addmul(acc: dict, vec: dict, coef, red) -> None:
    """acc += coef * vec in place, dropping entries that cancel.

    coef = 1 adds vec's entries with no product, and coef = 0 only drops
    the zero entries of acc in vec's keys, as the sum would; a zero entry
    of vec is never stored.  The body of ``accumulate`` is inlined: this
    loop runs inside every product of the axiom sweeps.
    """
    if pis0(coef):
        _drop_zeros(acc, vec)
        return
    unit = coef == units(len(coef[0]))[0]
    for k, v in vec.items():
        term = v if unit else pmul(coef, v, red)
        cur = acc.get(k)
        cur = term if cur is None else padd(cur, term)
        if pis0(cur):
            acc.pop(k, None)
        else:
            acc[k] = cur


def through(vec: dict, leg: int, images, red) -> dict:
    """Send leg ``leg`` of a sparse tensor through a linear map.

    The keys of vec are tuples of basis indices, one per leg, and
    ``images[x]`` is the image of basis element x, keyed by an index or
    by a tuple of indices.  Each key's leg is replaced by the image's
    key, so an image {(): c} contracts the leg to the scalar c.  Entries
    that cancel are dropped.
    """
    out: dict = {}
    for key, c in vec.items():
        head, tail = key[:leg], key[leg + 1:]
        for k, c2 in images[key[leg]].items():
            accumulate(out, head + (k if type(k) is tuple else (k,)) + tail,
                       pmul(c, c2, red))
    return out


def combine(coeffs: dict, rows, L: int) -> dict:
    """Return sum over i of coeffs[i] * rows[i]."""
    red = context(L).reduction
    out: dict = {}
    for i, f in coeffs.items():
        if not pis0(f):
            vec_addmul(out, rows[i], f, red)
    return out


class Subspace:
    """A subspace maintained in reduced row echelon form.

    Insertion keeps all rows fully reduced, so ``rows`` is the canonical
    RREF of the subspace and ``key()`` is a canonical identifier.  The
    holder index maps each column to the pivots of the rows with a nonzero
    entry there, so a new pivot clears only the rows that hold its column.
    """

    def __init__(self, L: int):
        self.L = L
        self._red = context(L).reduction
        self._one = pone(L)
        self.rows: list[dict] = []
        self.pivots: list[int] = []
        self._row_of: dict[int, dict] = {}
        self._holders: defaultdict[int, set[int]] = defaultdict(set)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """Residual of vec after eliminating every pivot column.

        Each row is zero in every pivot column but its own, so subtracting
        a row fills in no other pivot: only the pivots in vec's support
        need eliminating, each by its coefficient in vec.  The cost follows
        that support, not the dimension of the subspace.
        """
        out = dict(vec)
        row_of = self._row_of
        for piv in vec.keys() & row_of.keys():
            axpy_neg(out, vec[piv], row_of[piv], self._red)
        return out

    def insert(self, vec: dict) -> bool:
        """Add vec to the span; True when the dimension grew."""
        res = self.reduce(vec)
        if not res:
            return False
        piv = min(res)
        red = self._red
        lead = res[piv]
        if lead == self._one:
            row = res
        else:
            inv = inv_pair(lead, self.L)
            row = {c: _K.mul(inv, v, red) for c, v in res.items()}
        holders = self._holders
        # piv is no pivot yet, so its holders are the rows to clear; a
        # cleared row changes only in the columns of the new row
        cols = row.keys() - {piv}
        for p in holders.pop(piv, ()):
            r = self._row_of[p]
            before = r.keys() & cols
            axpy_neg(r, r[piv], row, red)
            after = r.keys() & cols
            for c in after - before:
                holders[c].add(p)
            for c in before - after:
                holders[c].discard(p)
        for c in row:
            holders[c].add(piv)
        idx = bisect_left(self.pivots, piv)
        self.pivots.insert(idx, piv)
        self.rows.insert(idx, row)
        self._row_of[piv] = row
        return True

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def key(self):
        """Canonical hashable form of the subspace."""
        return tuple(
            tuple((c,) + row[c] for c in sorted(row)) for row in self.rows
        )


def span(vectors, L: int) -> Subspace:
    sp = Subspace(L)
    for v in vectors:
        sp.insert(v)
    return sp


def rank(vectors, L: int) -> int:
    return span(vectors, L).dim


def _augmented(rows, ncols: int, L: int) -> Subspace:
    """Echelon form of the (i, row) pairs, row i extended by 1 in column
    ncols + i."""
    one = pone(L)
    sp = Subspace(L)
    for i, r in rows:
        aug = dict(r)
        aug[ncols + i] = one
        sp.insert(aug)
    return sp


def _blocks(rows) -> list:
    """The row indices grouped into connected blocks: two rows share a
    block when a chain of rows, each sharing a column with the next, joins
    them.  Blocks come in the order of their first rows, each ascending."""
    parent = list(range(len(rows)))

    def find(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    owner: dict = {}
    for i, r in enumerate(rows):
        for c in r:
            j = owner.setdefault(c, i)
            if j != i:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    blocks: dict = {}
    for i in range(len(rows)):
        blocks.setdefault(find(i), []).append(i)
    return list(blocks.values())


def left_kernel(rows, ncols: int, L: int) -> Subspace:
    """The subspace {c : sum_i c_i rows_i = 0}, over the row indices.

    Rows that share no column, even through other rows, cannot cancel each
    other, so the kernel is the direct sum of the kernels of the row
    blocks (``_blocks``): e_i for an empty row, nothing for a lone nonzero
    row, and for a larger block the augmented elimination of its rows
    alone.  The echelon rows of the augmented rows whose leading column is
    in the augmented block are zero in every other pivot column, so
    shifted they are already the block kernel's reduced row echelon form.
    Kernel rows of different blocks have disjoint supports, so inserted in
    pivot order they are the canonical form of the whole kernel, and each
    insert below only appends a row.
    """
    one = pone(L)
    found = []
    for block in _blocks(rows):
        if len(block) > 1:
            sp = _augmented(((i, rows[i]) for i in block), ncols, L)
            found += [{c - ncols: v for c, v in row.items()}
                      for piv, row in zip(sp.pivots, sp.rows) if piv >= ncols]
        elif all(map(pis0, rows[block[0]].values())):
            found.append({block[0]: one})
    kern = Subspace(L)
    for vec in sorted(found, key=min):
        kern.insert(vec)
    return kern


def solve(rows, targets, ncols: int, L: int) -> list:
    """For each target, the coefficients c with sum_i c_i rows_i == target,
    or None; every target is reduced against one elimination of the rows."""
    sp = _augmented(enumerate(rows), ncols, L)
    out = []
    for target in targets:
        res = sp.reduce(target)
        out.append(None if any(c < ncols for c in res)
                   else {c - ncols: _K.neg(v) for c, v in res.items()})
    return out
