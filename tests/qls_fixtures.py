"""Small shared data used across the test modules."""

from qlsmodcat import deformation
from qlsmodcat.cocycles import Cocycle2
from qlsmodcat.comodule import ModCatDatum
from qlsmodcat.groups import AbelianGroup, Character, Subgroup
from qlsmodcat.hopf import QlsDatum


def trivial_sigma(H):
    """The trivial cocycle eps(a) eps(b) on H."""
    return deformation.HopfCocycle(H, deformation._counit_pairs(H), check=False)


def sweedler_datum():
    """One generator over Z2 with chi(u) = -1, dimension 4."""
    G = AbelianGroup((2,))
    return QlsDatum(G, [G.element((1,))], [Character(G, (1,))])


def z4_datum():
    """One generator over Z4 with chi(g) = i, dimension 16."""
    G = AbelianGroup((4,))
    return QlsDatum(G, [G.element((1,))], [Character(G, (1,))])


def clifford_z2_datum():
    """Two generators over Z2, both graded by u, dimension 8."""
    G = AbelianGroup((2,))
    u = G.element((1,))
    chi = Character(G, (1,))
    return QlsDatum(G, [u, u], [chi, chi])


def clifford_z22_datum():
    """Two generators over Z2 x Z2, both graded by (1, 0), dimension 16."""
    G = AbelianGroup((2, 2))
    u = G.element((1, 0))
    chi = Character(G, (1, 0))
    return QlsDatum(G, [u, u], [chi, chi])


def z6_modcat():
    """F = Z6, the full subspace and xi = 2 over one generator of Z6 with
    chi(g) = zeta_6: a dim-36 comodule algebra over a dim-36 bosonization."""
    G = AbelianGroup((6,))
    d = QlsDatum(G, [G.element((1,))], [Character(G, (1,))])
    F = Subgroup.full(G)
    return ModCatDatum(d, F, Cocycle2.trivial(F), w={(1,): [[1]]}, xi=[2])


def z4_mu_datum():
    """One generator over Z4 with chi(g) = -1; admits the root lifting."""
    G = AbelianGroup((4,))
    return QlsDatum(G, [G.element((1,))], [Character(G, (2,))])


def z22_lambda_datum():
    """Two generators over Z2 x Z2; admits the linking lifting."""
    G = AbelianGroup((2, 2))
    chi = Character(G, (1, 1))
    return QlsDatum(G, [G.element((1, 0)), G.element((0, 1))], [chi, chi])


def z4_theta2_obj(modcat=False):
    """Two generators of degree g over Z4 with chi(g) = -1, as an input
    file; with ``modcat``, the dim-16 algebra over F = Z4 with root
    scalars 1, 2 and link scalar 1."""
    obj = {"group": {"orders": [4]}, "g": [[1], [1]], "chi": [[2], [2]]}
    if modcat:
        obj["modcat"] = {"F": {"gens": [[1]]},
                         "w": [{"component": [1], "rows": [[1, 0], [0, 1]]}],
                         "xi": [1, 2], "alpha": [[0, 1, 1]]}
    return obj


def z22_link_obj():
    """The linking lifting of z22_lambda_datum with lambda = 1, and the
    dim-16 algebra over F = Z2 x Z2 on both generators, as an input file."""
    return {"group": {"orders": [2, 2]}, "g": [[1, 0], [0, 1]],
            "chi": [[1, 1], [1, 1]],
            "lifting": {"mu": [], "lambda": [[0, 1, 1]]},
            "modcat": {"F": {"gens": [[1, 0], [0, 1]]},
                       "w": [{"component": [0, 1], "rows": [[1]]},
                             {"component": [1, 0], "rows": [[1]]}]}}


def float_integer_inputs():
    """Inputs with a float where the schema asks for an integer, keyed by
    the JSON path of the float and paired with the command they broke:
    jsonschema counts 1.0 as an integer, so validation used to let them
    through to a TypeError, or to a silent success for the orders."""
    sweedler = {"group": {"orders": [2]}, "g": [[1]], "chi": [[1]]}
    z4_mu = {"group": {"orders": [4]}, "g": [[1]], "chi": [[2]]}
    z22 = {"group": {"orders": [2, 2]}, "g": [[1, 0], [0, 1]],
           "chi": [[1, 1], [1, 1]]}
    return {
        "$.g[0][0]": ("build-hopf", dict(sweedler, g=[[1.0]])),
        "$.group.orders[0]": ("build-hopf",
                              dict(sweedler, group={"orders": [2.0]})),
        "$.lifting.mu[0]": ("build-lifting",
                            dict(z4_mu, lifting={"mu": [1.0]})),
        "$.lifting.lambda[0][1]": (
            "build-lifting", dict(z22, lifting={"lambda": [[0, 1.0, "1"]]})),
    }
