"""The cotensor's product table over all n^2 pairs of representatives.

``deformation._cotensor_table`` builds the transported algebra's table
from |S| n letter products in B tensor A.  This loop forms every product
rep_i rep_j, checks that it lies in the cotensor space and collapses it,
so it stays an independent oracle for the letter construction.
``all_pairs_cotensor`` runs ``cotensor`` with this loop in its place.
"""

from __future__ import annotations

from unittest import mock

from qlsmodcat import deformation
from qlsmodcat.errors import NotClosed
from qlsmodcat.hopf import pair_multiply


def all_pairs_table(first, A, space, collapse, reps) -> dict:
    """Cell (i, j) = collapse(rep_i rep_j), each product checked in V."""
    n = len(reps)
    mult: dict = {}
    for i in range(n):
        for j in range(n):
            flat = deformation._flatten(
                pair_multiply(first, A, reps[i], reps[j]), n)
            if not space.contains(flat):
                raise NotClosed("cotensor is not closed under the product")
            cell = collapse(flat)
            if cell:
                mult[(i, j)] = cell
    return mult


def all_pairs_cotensor(B, A, proofs=None):
    """``deformation.cotensor`` with the all-pairs table."""
    with mock.patch.object(deformation, "_cotensor_table", all_pairs_table):
        return deformation.cotensor(B, A, proofs)
