"""CLI fuzz of ``validate``: schema-shaped inputs never end in a traceback.

Inputs follow the shape of ``datum.schema.json`` at small sizes (group
orders at most 4, at most 2 generators, scalars at conductor at most 8),
with exponent lists of the wrong length, out-of-range indices, zero
denominators, wrong coefficient counts and, now and then, an integral
float in an integer slot.  Each one runs through the schema check, the
loaders and the datum checks; the command must exit 0, 1 or 2.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from qlsmodcat.cli import main
from qlsmodcat.cyclo import totient

fractions = st.one_of(
    st.integers(-3, 3).map(str),
    st.tuples(st.integers(-3, 3), st.integers(0, 3)).map(
        lambda t: f"{t[0]}/{t[1]}"))


@st.composite
def scalars(draw):
    kind = draw(st.sampled_from(["int", "fraction", "cyclo"]))
    if kind == "int":
        return draw(st.integers(-2, 2))
    if kind == "fraction":
        return draw(fractions)
    L = draw(st.integers(1, 8))
    n = totient(L) + draw(st.sampled_from([0, 0, 1, -1]))
    return {"L": L, "c": draw(st.lists(fractions, min_size=n, max_size=n))}


def _integer_paths(obj, path=()):
    if isinstance(obj, bool):
        return
    if isinstance(obj, int):
        yield path
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from _integer_paths(value, path + (key,))


@st.composite
def data(draw):
    orders = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    r = len(orders)
    exps = st.one_of(
        st.lists(st.integers(0, 3), min_size=r, max_size=r),
        st.lists(st.integers(-1, 4), min_size=r - 1, max_size=r + 1))
    theta = draw(st.integers(0, 2))
    obj = {"group": {"orders": orders},
           "g": draw(st.lists(exps, min_size=theta, max_size=theta)),
           "chi": draw(st.lists(exps, min_size=theta, max_size=theta + 1))}
    index = st.integers(-1, 2)
    indexed = st.tuples(index, index, scalars()).map(list)
    if draw(st.booleans()):
        obj["lifting"] = draw(st.fixed_dictionaries({}, optional={
            "mu": st.lists(scalars(), max_size=3),
            "lambda": st.lists(indexed, max_size=2)}))
    if draw(st.booleans()):
        psi = st.one_of(
            st.just({}),
            st.fixed_dictionaries({"exponents": st.lists(
                st.tuples(index, index, st.integers(-1, 3)).map(list),
                max_size=2)}),
            st.fixed_dictionaries({"table": st.lists(
                st.tuples(exps, exps, scalars()).map(list), max_size=2)}))
        obj["modcat"] = draw(st.fixed_dictionaries(
            {"F": st.fixed_dictionaries({"gens": st.lists(exps, max_size=2)})},
            optional={
                "psi": psi,
                "w": st.lists(st.fixed_dictionaries({
                    "component": exps,
                    "rows": st.lists(st.lists(scalars(), max_size=3),
                                     max_size=2)}), max_size=2),
                "xi": st.lists(scalars(), max_size=3),
                "alpha": st.lists(indexed, max_size=2)}))
    if draw(st.integers(0, 4)) == 0:
        path = draw(st.sampled_from(list(_integer_paths(obj))))
        node = obj
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = float(node[path[-1]])
    return obj


@settings(max_examples=150, deadline=None)
@given(data())
def test_validate_never_raises(tmp_path_factory, obj):
    path = tmp_path_factory.mktemp("fuzz") / "datum.json"
    path.write_text(json.dumps(obj))
    assert main(["validate", str(path)]) in (0, 1, 2)
