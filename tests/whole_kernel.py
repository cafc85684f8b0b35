"""The left kernel by one augmented elimination of all the rows.

``linalg.left_kernel`` splits its rows into blocks that share no column
and eliminates each block alone.  This function eliminates every row in
one subspace, as the package did before the split, so it stays an
independent oracle for the block construction: both must give the same
``rows``, ``pivots`` and ``key()``.
"""

from __future__ import annotations

from qlsmodcat import linalg


def whole_left_kernel(rows, ncols: int, L: int) -> linalg.Subspace:
    """{c : sum_i c_i rows_i = 0} from the echelon form of all the rows,
    row i extended by 1 in column ncols + i: the echelon rows that lead
    in the augmented block, shifted, are the kernel's reduced form."""
    one = linalg.pone(L)
    sp = linalg.Subspace(L)
    for i, r in enumerate(rows):
        aug = dict(r)
        aug[ncols + i] = one
        sp.insert(aug)
    kern = linalg.Subspace(L)
    for piv, row in zip(sp.pivots, sp.rows):
        if piv >= ncols:
            kern.insert({c - ncols: v for c, v in row.items()})
    return kern
