"""Workload inputs, command lists and known answers for the pipeline benchmark.

Every workload is a fixed list of input slots.  A slot holds a small pool
of input variants of the same family and size; the run's seed picks one
variant per slot, so two seeds give different inputs of about the same
cost.  Every variant has a reference digest in ``reference.json``.

The known answers below are computed from the input alone, with plain
fractions, never with the package under test:

* a built Hopf algebra or full-subgroup comodule algebra has dimension
  |G| * prod(N_i), N_i the order of q_ii = chi_i(g_i);
* a cotensor product (the transported algebra) has the dimension of the
  algebra it transports: |F| * prod(N_i) for a modcat section whose rows
  are coordinate rows, the Hopf dimension for the regular algebra;
* on the dim-8 root lifting (Z4, q = -1, mu = 1), transport of the
  regular algebra takes radical dimension 2 and blocks (1, 1, 4) to
  radical dimension 0 and blocks (4, 4) (the documented counterexample of
  acceptance criterion 8).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import prod


# ------------------------------------------------------------ input data

def datum(orders, g, chi, lifting=None) -> dict:
    obj = {"group": {"orders": list(orders)}, "g": [list(e) for e in g],
           "chi": [list(e) for e in chi]}
    if lifting is not None:
        mu, lam = lifting
        obj["lifting"] = {"mu": list(mu),
                          "lambda": [[i, j, v] for (i, j), v in lam]}
    return obj


def with_modcat(obj, F_gens, xi=(), alpha=()) -> dict:
    """A copy of obj with a modcat section over F, one coordinate row per generator."""
    comps: dict = {}
    for i, e in enumerate(obj["g"]):
        comps.setdefault(tuple(e), []).append(i)
    w = [{"component": list(c),
          "rows": [[1 if j == k else 0 for k in range(len(idx))]
                   for j in range(len(idx))]}
         for c, idx in sorted(comps.items())]
    sec = {"F": {"gens": [list(f) for f in F_gens]}, "w": w}
    if xi:
        sec["xi"] = list(xi)
    if alpha:
        sec["alpha"] = [[a, b, v] for (a, b), v in alpha]
    return dict(obj, modcat=sec)


# --------------------------------------------------------- known answers

def heights(obj) -> list[int]:
    """Order of q_ii = chi_i(g_i) for every generator."""
    out = []
    for g, chi in zip(obj["g"], obj["chi"]):
        angle = sum(Fraction(c * e, n)
                    for c, e, n in zip(chi, g, obj["group"]["orders"]))
        out.append((angle % 1).denominator)
    return out


def subgroup_order(orders, gens) -> int:
    seen = {tuple(0 for _ in orders)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple((a + b) % n for a, b, n in zip(x, g, orders))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen)


def hopf_dim(obj) -> int:
    return prod(obj["group"]["orders"]) * prod(heights(obj))


def algebra_dim(obj) -> int:
    """Dimension of the comodule algebra of a coordinate-row modcat section."""
    F = subgroup_order(obj["group"]["orders"], obj["modcat"]["F"]["gens"])
    return F * prod(heights(obj))


# ------------------------------------------------------------ variants
#
# The variants of a slot are isomorphic presentations of one datum: images
# under group automorphisms (g -> u*g and chi -> chi/u on Z_n, coordinate
# maps on Z2^2 and Z2^3), some with the generators rescaled by signs, which
# flips the signs of the link scalars (every root scalar here has N = 2 and
# keeps its sign).  They are different inputs with different output bytes.
# Only presentations whose traced kernel-op counts agree to within 1% were
# kept, so the seed moves the inputs and not the size of the work.  The
# root and link scalars themselves were drawn once from {+-1, +-2}.

def _lifting(scalars, signs):
    mu, lam = scalars
    return mu, [((i, j), v * signs[i] * signs[j]) for (i, j), v in lam]


def _cyclic(n: int, units, theta: int, chi: int, scalars=None) -> list[dict]:
    """Z_n with theta generators of degree u and character chi / u."""
    out = []
    for k, u in enumerate(units):
        signs = [(-1) ** ((k >> i) & 1) for i in range(theta)]
        out.append(datum([n], [[u]] * theta,
                         [[chi * pow(u, -1, n) % n]] * theta,
                         lifting=_lifting(scalars, signs) if scalars else None))
    return out


def _z22(presentations, scalars=None) -> list[dict]:
    """Z2 x Z2 with two generators and q = -1, under automorphisms."""
    table = [([[1, 0], [0, 1]], [1, 1]), ([[0, 1], [1, 0]], [1, 1]),
             ([[1, 0], [1, 1]], [1, 0]), ([[1, 1], [0, 1]], [0, 1])]
    return [datum([2, 2], table[k][0], [table[k][1]] * 2,
                  lifting=_lifting(scalars, [1, (-1) ** k]) if scalars else None)
            for k in presentations]


def _z222(variants, scalars) -> list[dict]:
    """Z2^3 with two generators and q = -1: (coordinate permutation, sign)."""
    g, chi = [[1, 0, 0], [0, 1, 0]], [1, 1, 0]
    return [datum([2, 2, 2], [[e[i] for i in perm] for e in g],
                  [[chi[i] for i in perm]] * 2,
                  lifting=_lifting(scalars, [1, sign]))
            for perm, sign in variants]


THETA2 = ([1, 2], [((0, 1), -2)])
LINKS = ([], [((0, 1), 2)])


@dataclass
class Slot:
    """One position of a workload: a command and its pool of inputs."""

    name: str
    command: str
    variants: list
    options: tuple = ()
    expect: dict = field(default_factory=dict)


def tables_slots() -> list[Slot]:
    return [
        Slot("hopf-z4", "build-hopf", _cyclic(4, (1, 3), 1, 1)),
        Slot("hopf-z8", "build-hopf", _cyclic(8, (1, 3, 5, 7), 1, 1)),
        Slot("lifting-z4t2", "build-lifting",
             _cyclic(4, (1, 3, 1, 3), 2, 2, THETA2)),
        Slot("lifting-z8t2", "build-lifting",
             _cyclic(8, (1, 3, 5, 7), 2, 4, THETA2)),
        Slot("algebra-z4t2", "build-algebra",
             [with_modcat(o, o["g"][:1], [1, 2], [((0, 1), a)])
              for o, a in zip(_cyclic(4, (1, 3, 1, 3), 2, 2), (1, 1, -1, -1))]),
        Slot("algebra-z6", "build-algebra",
             [with_modcat(o, o["g"], [2]) for o in _cyclic(6, (1, 5), 1, 1)]),
    ]


def transport_slots() -> list[Slot]:
    return [
        Slot("root-z4-regular", "transport",
             _cyclic(4, (1, 3), 1, 2, ([1], [])),
             expect={"radical": [2, 0], "blocks": [[1, 1, 4], [4, 4]]}),
        Slot("link-z222-sub", "transport",
             [with_modcat(o, o["g"])
              for o in _z222([((1, 2, 0), 1), ((1, 0, 2), 1), ((1, 2, 0), -1),
                              ((1, 0, 2), -1)], LINKS)]),
        Slot("mixed-z6t2-regular", "transport",
             _cyclic(6, (1, 5, 1, 5), 2, 3, THETA2)),
    ]


def classify_slots() -> list[Slot]:
    sample = ("--sample", "0,1")
    return [
        Slot("z4t2", "classify", _cyclic(4, (1, 3), 2, 2), sample),
        Slot("z22t2", "classify", _z22((0, 1)), sample),
        Slot("z3", "classify", _cyclic(3, (1, 2), 1, 1), sample),
    ]


WORKLOADS = {
    "tables": tables_slots,
    "transport": transport_slots,
    "classify": classify_slots,
}


# ------------------------------------------------------------- steps

def input_key(command: str, options, obj) -> str:
    """Reference key of one command on one input."""
    blob = json.dumps({"command": command, "options": list(options),
                       "input": obj}, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Step:
    """One CLI command of a pass, with what its output must satisfy."""

    name: str
    argv: list
    kind: str            # "build", "hit", "verify", "transport", "classify"
    key: str             # reference key
    input: dict
    artifact: str = None
    expect: dict = field(default_factory=dict)


def draw(workload: str, seed: int) -> list[tuple[Slot, dict]]:
    """The seeded choice of one input variant per slot."""
    rng = random.Random(f"{workload}:{seed}")
    return [(s, s.variants[rng.randrange(len(s.variants))])
            for s in WORKLOADS[workload]()]


def steps(chosen, input_path, out_path) -> list[Step]:
    """The fixed command list of one pass over the chosen inputs.

    ``input_path(name)`` and ``out_path(name, suffix)`` give file paths.
    Builds run twice, the second against the now warm cache, and every
    built artifact is then read back by ``verify``.
    """
    out = []
    for slot, obj in chosen:
        src = input_path(slot.name)
        key = input_key(slot.command, slot.options, obj)
        if slot.command.startswith("build-"):
            art = out_path(slot.name, "artifact")
            hit = out_path(slot.name, "hit")
            out.append(Step(slot.name, [slot.command, src, "--out", art],
                            "build", key, obj, art, slot.expect))
            out.append(Step(slot.name + ":hit",
                            [slot.command, src, "--out", hit],
                            "hit", key, obj, hit, {"same_as": art}))
        else:
            art = out_path(slot.name, slot.command)
            out.append(Step(slot.name, [slot.command, src, *slot.options,
                                        "--out", art],
                            slot.command, key, obj, art, slot.expect))
    for slot, obj in chosen:
        if slot.command.startswith("build-"):
            art = out_path(slot.name, "artifact")
            key = input_key("verify", (), input_key(slot.command, (), obj))
            out.append(Step(slot.name + ":verify", ["verify", art], "verify",
                            key, obj))
    return out


def expected_dim(step: Step) -> int:
    obj = step.input
    if step.argv[0] == "build-algebra" or (step.kind == "transport"
                                           and "modcat" in obj):
        return algebra_dim(obj)
    return hopf_dim(obj)
