"""Enumeration and tabulation of module-category data for one datum.

The sweep walks every subgroup, one 2-cocycle per cohomology class, every
coordinate subspace of the generator space (plus user-registered general
subspaces), and fills the root and link scalars from a finite sample,
forcing to zero every position the compatibility conditions rule out.
Over the coordinate subspaces and a sample without repeats, no two data
share the canonical key (W, F, psi class, xi, alpha) that ``dedupe``
compares.  The data are summarized in a table with one row per
(F, psi class, W) cell.
"""

from __future__ import annotations

import functools
import itertools

from .cocycles import enumerate_classes
from .comodule import (
    ModCatDatum,
    build_A,
    check_simplicity,
    simple_modules,
    w_rows,
)
from .cyclo import CycloNumber
from .errors import ValidationError
from .groups import Subgroup, enumerate_subgroups
from .hopf import CheckReport, QlsDatum, build_bosonization


def coordinate_subspaces(datum: QlsDatum) -> list[dict]:
    """All w dictionaries spanned by subsets of the generators,
    smallest first."""
    subsets = sorted(
        (tuple(i for i in range(datum.theta) if mask >> i & 1)
         for mask in range(1 << datum.theta)),
        key=lambda s: (len(s), s))
    comp = datum.isotypic()
    out = []
    for chosen in subsets:
        w: dict = {}
        for p in chosen:
            idcs = comp[datum.g[p]]
            row = [1 if q == p else 0 for q in idcs]
            w.setdefault(datum.g[p].exps, []).append(row)
        out.append(w)
    return out


def free_scalar_positions(mcd: ModCatDatum):
    """Positions of xi and alpha that the compatibility conditions leave
    free (``ModCatDatum.scalar_free``); all others are forced to zero."""
    m = mcd.n_letters
    free_xi = [a for a in range(m) if mcd.scalar_free((a,) * mcd.heights[a])]
    free_alpha = [(a, b) for a in range(m) for b in range(a + 1, m)
                  if mcd.scalar_free((a, b))]
    return free_xi, free_alpha


def enumerate_modcat_data(datum: QlsDatum, scalar_sample=(0, 1),
                          extra_w=None, bound: int = 256) -> list[ModCatDatum]:
    """Every valid datum tuple over the sample, in a deterministic order."""
    datum.require_valid()
    sample = list(scalar_sample)
    ws = coordinate_subspaces(datum)
    for w in (extra_w or []):
        w_rows(datum, w)
        ws.append(w)
    out = []
    for F in enumerate_subgroups(datum.group, bound):
        for psi in enumerate_classes(F):
            for w in ws:
                try:
                    base = ModCatDatum(datum, F, psi, w=w)
                except ValidationError:
                    continue
                if not base.validate().ok:
                    continue
                free_xi, free_al = free_scalar_positions(base)
                for xs in itertools.product(sample, repeat=len(free_xi)):
                    for als in itertools.product(sample, repeat=len(free_al)):
                        xi = [0] * base.n_letters
                        for a, v in zip(free_xi, xs):
                            xi[a] = v
                        alpha = dict(zip(free_al, als))
                        out.append(ModCatDatum(datum, F, psi,
                                               w=w, xi=xi, alpha=alpha))
    return out


def _w_key(mcd: ModCatDatum) -> tuple:
    return tuple((h.exps, span.key()) for h, _, span in mcd.row_spans())


def datum_key(mcd: ModCatDatum, strict: bool = False) -> tuple:
    """Canonical equivalence key of one datum.

    The cocycle enters through its class tag; strict mode compares the
    normalized table itself instead.
    """
    if strict:
        psi_part = tuple(
            (a.exps, b.exps, mcd.psi_norm(a, b).rebase(mcd.L).raw())
            for a in mcd.F for b in mcd.F)
    else:
        psi_part = mcd.psi_norm.class_tag()
    xi_part = tuple(c.raw() for c in mcd.xi)
    alpha_part = tuple((k, v.raw()) for k, v in sorted(mcd.alpha.items()))
    return (_w_key(mcd), mcd.F.key(), psi_part, xi_part, alpha_part)


def _datum_fingerprint(d: QlsDatum) -> tuple:
    return (d.group.orders, tuple(el.exps for el in d.g),
            tuple(ch.exps for ch in d.chi))


def dedupe(data: list[ModCatDatum], strict: bool = False) -> list[ModCatDatum]:
    """One representative per equivalence key, keeping first occurrences."""
    if not data:
        return []
    base = _datum_fingerprint(data[0].datum)
    seen: dict = {}
    for mcd in data:
        if _datum_fingerprint(mcd.datum) != base:
            raise ValidationError("cannot dedupe data over different base data")
        key = datum_key(mcd, strict=strict)
        if key not in seen:
            seen[key] = mcd
    return list(seen.values())


class ClassificationRow:
    """One (F, psi class, W) cell of the table."""

    def __init__(self, subgroup, psi_tag, w_label, general, count,
                 free_parameters, dim, verdict, blocks, radical_dim):
        self.subgroup = subgroup
        self.psi_tag = psi_tag
        self.w_label = w_label
        self.general = general
        self.count = count
        self.free_parameters = free_parameters
        self.dim = dim
        self.verdict = verdict
        self.blocks = blocks
        self.radical_dim = radical_dim

    def as_dict(self) -> dict:
        return {
            "subgroup": self.subgroup,
            "psi_class": list(self.psi_tag),
            "W": self.w_label,
            "general_W": self.general,
            "count": self.count,
            "free_parameters": self.free_parameters,
            "dim": self.dim,
            "simplicity": self.verdict,
            "blocks": list(self.blocks),
            "radical_dim": self.radical_dim,
        }


class ClassificationReport:
    """Rows in sweep order plus a totals line."""

    def __init__(self, rows: list[ClassificationRow], totals: dict):
        self.rows = rows
        self.totals = totals

    def as_dict(self) -> dict:
        return {"rows": [r.as_dict() for r in self.rows],
                "totals": dict(self.totals)}

    def to_text(self) -> str:
        heads = ["F", "psi", "W", "count", "free", "dim",
                 "simplicity", "blocks"]
        body = []
        for r in self.rows:
            w = r.w_label + ("*" if r.general else "")
            blocks = ",".join(str(b) for b in r.blocks) or "-"
            body.append([r.subgroup, str(r.psi_tag), w, str(r.count),
                         str(r.free_parameters), str(r.dim), r.verdict,
                         blocks])
        widths = [max(len(h), *(len(row[i]) for row in body)) if body
                  else len(h) for i, h in enumerate(heads)]
        lines = ["  ".join(h.ljust(w) for h, w in zip(heads, widths))]
        for row in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        lines.append(f"total: {self.totals['rows']} rows, "
                     f"{self.totals['data']} data under the sample, "
                     f"{self.totals['free_parameters']} free parameters")
        return "\n".join(lines)


def _subgroup_label(F: Subgroup) -> str:
    if not F.factors:
        return "1"
    return "Z" + "x".join(str(m) for m in F.factors)


def _w_label(mcd: ModCatDatum):
    parts = []
    general = False
    for a in range(mcd.n_letters):
        live = [(p, c) for p, c in zip(mcd.positions[a], mcd.rows[a])
                if not c.is_zero()]
        if len(live) == 1 and live[0][1] == CycloNumber.one(mcd.L):
            parts.append(f"x{live[0][0]}")
        else:
            parts.append(f"w{a}")
            general = True
    label = "{" + ",".join(parts) + "}" if parts else "0"
    return label, general


def classification_report(datum: QlsDatum, scalar_sample=(0, 1),
                          extra_w=None, bound: int = 256) -> ClassificationReport:
    """Group the sweep by (F, psi class, W) and report structure per cell.

    Simplicity and block data are computed on the last member of each
    cell, the one with every free scalar at the last sample value.
    """
    data = enumerate_modcat_data(datum, scalar_sample,
                                 extra_w=extra_w, bound=bound)
    cells: dict = {}
    for mcd in data:
        key = (mcd.F.key(), mcd.psi_norm.class_tag(), _w_key(mcd))
        cells.setdefault(key, []).append(mcd)
    # every row's algebra is a comodule algebra over this one Hopf algebra,
    # rebased once per conductor, so that the ledger finds its proof by
    # identity
    U_at = functools.cache(build_bosonization(datum).rebased)
    proofs = CheckReport("proofs")
    rows = []
    free_total = 0
    for members in cells.values():
        base = members[0]
        free_xi, free_al = free_scalar_positions(base)
        free = len(free_xi) + len(free_al)
        free_total += free
        generic = members[-1]
        A = build_A(generic, U_at(generic.L), proofs)
        simp = check_simplicity(A)
        mods = simple_modules(A)
        label, general = _w_label(base)
        rows.append(ClassificationRow(
            _subgroup_label(base.F), base.psi_norm.class_tag(), label,
            general, len(members), free, A.dim, simp.verdict,
            mods.block_data, mods.radical_dim))
    totals = {"rows": len(rows), "data": len(data),
              "free_parameters": free_total}
    return ClassificationReport(rows, totals)
