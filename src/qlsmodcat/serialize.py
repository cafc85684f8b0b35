"""JSON forms of scalars, input data and structure tables.

Dumps are canonical: sorted keys, fixed separators, table entries in
sorted index order, so identical inputs give identical bytes.  A scalar
serializes as {"L": conductor, "c": [coefficient fractions as strings]}
and round trips bit for bit.  Input files describing a datum are checked
against the schema shipped with the package before anything is built.
"""

from __future__ import annotations

import functools
import json
import re
from fractions import Fraction
from importlib import resources
from math import lcm

from . import _lazy, dumps_canonical, linalg  # noqa: F401 (re-exported)
from .cyclo import CycloNumber, totient
from .errors import SizeBound, ValidationError
from .groups import AbelianGroup, Character, GroupElement, Subgroup
from .hopf import CheckReport, FiniteAlgebra, FiniteHopf, QlsDatum

# compiled on first use: a Hopf artifact or a bare datum needs none of them
cocycles = _lazy("cocycles")
comodule = _lazy("comodule")
deformation = _lazy("deformation")


# ---------------------------------------------------------------- scalars

# Structure constants are products of roots of unity, so a table holds
# few distinct scalars: the caches below print and parse each one once.
_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _coefficient_strings(pair) -> tuple[str, ...]:
    nums, den = pair
    return tuple(str(Fraction(n, den)) for n in nums)


def _pair_json(pair, L: int) -> dict:
    return {"L": L, "c": list(_coefficient_strings(pair))}


def cyclo_to_json(c: CycloNumber) -> dict:
    return _pair_json(c.raw(), c.L)


def _fraction(s) -> Fraction:
    """A coefficient: an integer or a fraction literal with a nonzero
    denominator."""
    if type(s) in (int, str):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValidationError(
        f"coefficient {s!r} is not a fraction with a nonzero denominator")


def _conductor(L) -> int:
    if type(L) is not int or L < 1:
        raise ValidationError(f"conductor {L!r} is not a positive integer")
    return L


def _check_degree(L: int, count: int) -> None:
    """Require one coefficient per power of zeta_L below phi(L), checked
    before any table at conductor L is built (those cost about L phi(L)).

    Factoring L takes up to sqrt(L) trial divisions, so past 10^12 a
    conductor is rejected unfactored when phi(L) >= sqrt(L / 2) already
    rules the count out.
    """
    if L > max(2 * count * count, 10**12):
        raise ValidationError(
            f"scalar at conductor {L} needs more than {count} coefficients")
    need = totient(L)
    if count != need:
        raise ValidationError(f"scalar at conductor {L} needs {need} coefficients")


# An input group is enumerated element by element, and its exponent is the
# conductor of the datum's scalars: cyclo.context(1024) builds in 0.06 s,
# context(2048) in 0.23 s (pure lane, shared 2-vCPU VM).
MAX_GROUP_ORDER = 4096
MAX_GROUP_EXPONENT = 1024
# A build's --conductor rebases its tables there: cyclo.context(4096) builds
# in 1.9 s, and build-hopf of the Sweedler datum at 4096 takes 1.4 s and
# 157 MB; context(8192) takes 4.9 s (pure lane, shared 2-vCPU VM).
MAX_CONDUCTOR = 4096


def _check_group(G: AbelianGroup) -> None:
    """Bound the group's exponent and order before any element is
    enumerated or any table at its conductor is built."""
    for what, value, ceiling in (("exponent", G.exponent, MAX_GROUP_EXPONENT),
                                 ("order", G.order, MAX_GROUP_ORDER)):
        if value > ceiling:
            raise SizeBound(
                f"group {what} {value} exceeds the ceiling {ceiling}")


def cyclo_from_json(obj, L: int | None = None) -> CycloNumber:
    """A scalar; with L, one of the tables of an artifact at conductor L,
    which every dump writes at L.  A scalar written at another conductor
    is rejected once its coefficients are counted, before any table at
    either conductor is built."""
    if isinstance(obj, (int, str)):
        return CycloNumber.from_rational(_fraction(obj), L or 1)
    M = _conductor(obj["L"])
    fracs = [_fraction(s) for s in obj["c"]]
    _check_degree(M, len(fracs))
    if L is not None and M != L:
        raise ValidationError(
            f"scalar at conductor {M} in an artifact at conductor {L}")
    den = 1
    for f in fracs:
        den = lcm(den, f.denominator)
    nums = tuple(int(f * den) for f in fracs)
    return linalg.to_cyclo((nums, den), M)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _read_pair(L: int, coefficients: tuple):
    return cyclo_from_json({"L": L, "c": list(coefficients)}, L).raw()


def _pair_from_json(obj, L: int):
    """A table scalar at conductor L as a pair.

    A scalar {"L": L, "c": [...]} whose coefficients are JSON integers or
    strings is parsed once per distinct (L, coefficients).  The exact
    type tests come before the cache: True and 1.0 compare equal to 1 in
    Python, so a key taken from them would hit the entry of a valid 1.
    Anything else goes straight to the parser, which rejects it or
    reads it.
    """
    if type(obj) is dict and type(obj.get("L")) is int and obj["L"] == L:
        c = obj.get("c")
        if type(c) is list and all(type(s) in (int, str) for s in c):
            return _read_pair(L, tuple(c))
    return cyclo_from_json(obj, L).raw()


# ------------------------------------------------------- groups, cocycles

def group_to_json(G: AbelianGroup) -> dict:
    return {"orders": list(G.orders)}


def cocycle_to_json(psi: cocycles.Cocycle2) -> dict:
    table = [[list(a.exps), list(b.exps), cyclo_to_json(v)]
             for (a, b), v in sorted(psi.table.items(),
                                     key=lambda kv: (kv[0][0].exps,
                                                     kv[0][1].exps))]
    return {"table": table, "classTag": list(psi.class_tag())}


def cocycle_from_json(carrier, obj) -> cocycles.Cocycle2:
    if "exponents" in obj:
        c = {(i, j): v for i, j, v in obj["exponents"]}
        return cocycles.Cocycle2.from_exponents(carrier, c)
    if "table" in obj:
        group = carrier.group
        table = {}
        for ae, be, v in obj["table"]:
            a = group.element(tuple(ae))
            b = group.element(tuple(be))
            if a not in carrier or b not in carrier:
                raise ValidationError("cocycle table entry leaves the carrier")
            table[(a, b)] = cyclo_from_json(v)
        return cocycles.Cocycle2(carrier, table)
    return cocycles.Cocycle2.trivial(carrier)


# ----------------------------------------------------------- input datum

@functools.cache
def input_schema() -> dict:
    path = resources.files("qlsmodcat") / "schema" / "datum.schema.json"
    return json.loads(path.read_text())


def _is_type(x, name: str) -> bool:
    """JSON type membership; a JSON integer is an int, so 1.0 and True
    are not integers."""
    if name == "integer":
        return isinstance(x, int) and not isinstance(x, bool)
    return isinstance(x, {"object": dict, "array": list, "string": str}[name])


def _schema_error(schema: dict, x, path: str):
    """The first place where x breaks schema, as (JSON path, message), or
    None.  Reads only the keywords datum.schema.json uses: type, required,
    properties, additionalProperties: false, items, prefixItems,
    minItems, maxItems, minimum, pattern, oneOf and local $ref."""
    if "$ref" in schema:
        target = input_schema()
        for part in schema["$ref"].removeprefix("#/").split("/"):
            target = target[part]
        err = _schema_error(target, x, path)
        if err is not None:
            return err
    if "type" in schema and not _is_type(x, schema["type"]):
        return path, f"{x!r} is not of type {schema['type']!r}"
    if "oneOf" in schema:
        valid = sum(_schema_error(s, x, path) is None for s in schema["oneOf"])
        if valid != 1:
            how = "any" if valid == 0 else "more than one"
            return path, f"{x!r} is not valid under {how} of the given schemas"
    if isinstance(x, dict):
        for key in schema.get("required", ()):
            if key not in x:
                return path, f"{key!r} is a required property"
        props = schema.get("properties", {})
        for key, value in x.items():
            if key in props:
                err = _schema_error(props[key], value, f"{path}.{key}")
                if err is not None:
                    return err
            elif schema.get("additionalProperties") is False:
                return path, f"{key!r} is not an allowed property"
    if isinstance(x, list):
        if not schema.get("minItems", 0) <= len(x) <= schema.get("maxItems", len(x)):
            return path, f"{x!r} has the wrong length"
        prefix = schema.get("prefixItems", [])
        for i, value in enumerate(x):
            sub = prefix[i] if i < len(prefix) else schema.get("items")
            if sub is not None:
                err = _schema_error(sub, value, f"{path}[{i}]")
                if err is not None:
                    return err
    if ("minimum" in schema and isinstance(x, (int, float))
            and not isinstance(x, bool) and x < schema["minimum"]):
        return path, f"{x!r} is less than the minimum of {schema['minimum']!r}"
    if ("pattern" in schema and isinstance(x, str)
            and not re.search(schema["pattern"], x)):
        return path, f"{x!r} does not match {schema['pattern']!r}"
    return None


def validate_input(obj) -> None:
    """Check an input datum against the package's schema.

    The walk above decides; an accepted input never imports jsonschema.
    A rejected one is worded by jsonschema's best_match, so messages stay
    those of the reference validator; only where jsonschema accepts (a
    float such as 1.0 in an integer slot, which it counts as an integer)
    is the walk's own message raised.
    """
    err = _schema_error(input_schema(), obj, "$")
    if err is None:
        return
    import jsonschema

    path, message = err
    schema = input_schema()
    # the validator itself, not jsonschema.validate, which would also check
    # the schema against its metaschema (the test suite does that)
    best = jsonschema.exceptions.best_match(
        jsonschema.validators.validator_for(schema)(schema).iter_errors(obj))
    if best is not None:
        path, message = best.json_path, best.message
    raise ValidationError(f"input does not match the schema at {path}: {message}")


def datum_to_json(datum: QlsDatum, lifting: deformation.LiftingDatum = None,
                  mcd: comodule.ModCatDatum = None) -> dict:
    out = {
        "group": group_to_json(datum.group),
        "g": [list(el.exps) for el in datum.g],
        "chi": [list(ch.exps) for ch in datum.chi],
    }
    if lifting is not None:
        out["lifting"] = {
            "mu": [cyclo_to_json(c) for c in lifting.mu],
            "lambda": [[i, j, cyclo_to_json(c)]
                       for (i, j), c in sorted(lifting.lam.items())],
        }
    if mcd is not None:
        out["modcat"] = {
            "F": {"gens": [list(g.exps) for g in mcd.F.gens]},
            "psi": cocycle_to_json(mcd.psi),
            "w": [{"component": list(ge),
                   "rows": [[cyclo_to_json(c) for c in row] for row in rows]}
                  for ge, rows in sorted(mcd.w().items())],
            "xi": [cyclo_to_json(c) for c in mcd.xi],
            "alpha": [[a, b, cyclo_to_json(c)]
                      for (a, b), c in sorted(mcd.alpha.items())],
        }
    return out


def load_datum(obj, modcat: bool = True):
    """Parse one input object into (datum, lifting, modcat datum).

    The whole object is checked against the schema; with ``modcat`` false
    the modcat section is not parsed and the third entry is None.
    """
    validate_input(obj)
    G = AbelianGroup(tuple(obj["group"]["orders"]))
    _check_group(G)
    g = [G.element(tuple(e)) for e in obj["g"]]
    chi = [Character(G, tuple(e)) for e in obj["chi"]]
    datum = QlsDatum(G, g, chi)
    lifting = None
    if "lifting" in obj:
        sec = obj["lifting"]
        mu = [cyclo_from_json(v) for v in sec.get("mu", [])]
        lam = {(i, j): cyclo_from_json(v)
               for i, j, v in sec.get("lambda", [])}
        lifting = deformation.LiftingDatum(datum, mu=mu or None,
                                           lam=lam or None)
    mcd = None
    if modcat and "modcat" in obj:
        mcd = load_modcat(datum, obj["modcat"])
    return datum, lifting, mcd


def load_modcat(datum: QlsDatum, sec) -> comodule.ModCatDatum:
    """The modcat section of a schema-checked input, over a valid datum."""
    G = datum.group
    F = Subgroup.generated(G, [G.element(tuple(e)) for e in sec["F"]["gens"]])
    psi = cocycle_from_json(F, sec.get("psi", {}))
    w = {tuple(entry["component"]):
         [[cyclo_from_json(v) for v in row] for row in entry["rows"]]
         for entry in sec.get("w", [])}
    xi = [cyclo_from_json(v) for v in sec.get("xi", [])]
    alpha = {(a, b): cyclo_from_json(v) for a, b, v in sec.get("alpha", [])}
    return comodule.ModCatDatum(datum, F, psi, w=w or None, xi=xi or None,
                                alpha=alpha or None)


# ------------------------------------------------------- structure dumps

def _label_json(lab) -> list:
    r, exps = lab
    return [list(r), list(exps)]


def _label_from_json(lab) -> tuple:
    """A basis label: the group element and the letter exponents, each a
    list of integers (an integral float would compare equal as a key)."""
    r, exps = lab
    for part in (r, exps):
        if not isinstance(part, list) or any(type(e) is not int for e in part):
            raise ValidationError(f"labels entry {lab!r} is not two lists of integers")
    return (tuple(r), tuple(exps))


def algebra_dump(alg: FiniteAlgebra) -> dict:
    mult = []
    for (i, j) in sorted(alg.mult):
        cell = alg.mult[(i, j)]
        for k in sorted(cell):
            mult.append([i, j, k, _pair_json(cell[k], alg.L)])
    return {
        "dim": alg.dim,
        "L": alg.L,
        "labels": [_label_json(lab) for lab in alg.labels],
        "unit": [[i, _pair_json(alg.unit[i], alg.L)]
                 for i in sorted(alg.unit)],
        "mult": mult,
    }


def _index(i, n: int) -> int:
    """A table index of a loaded artifact, checked to lie in range(n):
    Python's list indexing would wrap a negative one."""
    if type(i) is not int or not 0 <= i < n:
        raise ValidationError(f"table index {i!r} is outside 0..{n - 1}")
    return i


def _rows(rows, width: int):
    """The rows of a table, each checked to be a list of width entries."""
    for row in rows:
        if not isinstance(row, list) or len(row) != width:
            raise ValidationError(f"table row {row!r} needs {width} entries")
        yield row


def _put(store: dict, key, value, table: str, cell: list) -> None:
    """store[key] = value, for a cell the table has not listed before: a
    repeated cell would otherwise let its last row win unseen."""
    if key in store:
        raise ValidationError(f"{table} lists the cell {cell} twice")
    store[key] = value


def _degree(obj, n: int):
    """The optional degree list: one integer per basis element."""
    deg = obj.get("degree")
    if deg is not None and (not isinstance(deg, list) or len(deg) != n
                            or any(type(d) is not int for d in deg)):
        raise ValidationError(f"degree {deg!r} is not {n} integers")
    return deg


def _per_basis(obj, key: str, n: int) -> list:
    """The list under key: exactly one entry per basis element."""
    entries = obj[key]
    if not isinstance(entries, list):
        raise ValidationError(f"{key} {entries!r} is not a list")
    if len(entries) != n:
        raise ValidationError(
            f"{key} has {len(entries)} entries for {n} basis elements")
    return entries


def _graded(obj) -> bool:
    """The optional graded flag: true or false."""
    graded = obj.get("graded", False)
    if type(graded) is not bool:
        raise ValidationError(f"graded {graded!r} is not true or false")
    return graded


def _core_tables(obj):
    labels = [_label_from_json(lab) for lab in _rows(obj["labels"], 2)]
    n = len(labels)
    dim = obj.get("dim", n)
    if type(dim) is not int or dim != n:
        raise ValidationError(f"dim {dim!r} but {n} labels")
    L = _conductor(obj["L"])
    # each scalar read at L checks L against its coefficient count before
    # anything at conductor L is built; with no scalar nothing would
    if not any(obj.get(key) for key in
               ("mult", "unit", "comult", "counit", "antipode", "coaction")):
        raise ValidationError(
            f"artifact at conductor {L} holds no scalar to check it against")
    mult: dict = {}
    for i, j, k, v in _rows(obj["mult"], 4):
        _put(mult.setdefault((_index(i, n), _index(j, n)), {}), _index(k, n),
             _pair_from_json(v, L), "mult", [i, j, k])
    unit: dict = {}
    for i, v in _rows(obj["unit"], 2):
        _put(unit, _index(i, n), _pair_from_json(v, L), "unit", [i])
    return labels, L, mult, unit


def _table_dump(table, L: int) -> list:
    """Rows [i, j, k, c] of a list of {(j, k): pair} cells: a coproduct
    or a coaction."""
    return [[i, j, k, _pair_json(c, L)]
            for i, cell in enumerate(table)
            for (j, k), c in sorted(cell.items())]


def _table_load(obj, key: str, n: int, L: int, legs) -> list:
    """The n cells of the coproduct or coaction under key; legs bounds
    (j, k)."""
    nj, nk = legs
    table = [dict() for _ in range(n)]
    for i, j, k, v in _rows(obj[key], 4):
        _put(table[_index(i, n)], (_index(j, nj), _index(k, nk)),
             _pair_from_json(v, L), key, [i, j, k])
    return table


def algebra_load(obj) -> FiniteAlgebra:
    return FiniteAlgebra(*_core_tables(obj))


def hopf_dump(H: FiniteHopf) -> dict:
    out = algebra_dump(H)
    out["comult"] = _table_dump(H.comult, H.L)
    out["counit"] = [_pair_json(H.counit[i], H.L) for i in range(H.dim)]
    out["antipode"] = [[i, k, _pair_json(c, H.L)]
                       for i in range(H.dim)
                       for k, c in sorted(H.antipode[i].items())]
    out["degree"] = list(H.degree) if H.degree is not None else None
    out["graded"] = bool(H.graded)
    return out


def hopf_load(obj) -> FiniteHopf:
    labels, L, mult, unit = _core_tables(obj)
    n = len(labels)
    comult = _table_load(obj, "comult", n, L, (n, n))
    counit = [_pair_from_json(v, L) for v in _per_basis(obj, "counit", n)]
    antipode = [dict() for _ in range(n)]
    for i, k, v in _rows(obj["antipode"], 3):
        _put(antipode[_index(i, n)], _index(k, n), _pair_from_json(v, L),
             "antipode", [i, k])
    return FiniteHopf(labels, L, mult, unit, comult, counit, antipode,
                      degree=_degree(obj, n), graded=_graded(obj))


def comodule_dump(A: comodule.ComoduleAlgebra) -> dict:
    out = algebra_dump(A)
    out["coaction"] = _table_dump(A.coaction, A.L)
    out["degree"] = list(A.degree) if A.degree is not None else None
    out["hopf"] = hopf_dump(A.hopf)
    return out


def comodule_load(obj) -> comodule.ComoduleAlgebra:
    labels, L, mult, unit = _core_tables(obj)
    hopf = hopf_load(obj["hopf"])
    n = len(labels)
    coaction = _table_load(obj, "coaction", n, L, (hopf.dim, n))
    return comodule.ComoduleAlgebra(labels, L, mult, unit, hopf, coaction,
                                    degree=_degree(obj, n))


def bigalois_dump(B: deformation.BiGaloisRep) -> dict:
    alg = B.algebra
    out = {
        "algebra": algebra_dump(alg),
        "left_hopf": hopf_dump(B.left_hopf),
        "right_hopf": hopf_dump(B.right_hopf),
        "left_coaction": _table_dump(B.left_coaction, alg.L),
        "right_coaction": _table_dump(B.right_coaction, alg.L),
        "counit_functional": [_pair_json(c, alg.L)
                              for c in B.counit_functional],
    }
    return out


def bigalois_load(obj) -> deformation.BiGaloisRep:
    alg = algebra_load(obj["algebra"])
    left_hopf = hopf_load(obj["left_hopf"])
    right_hopf = hopf_load(obj["right_hopf"])
    n = alg.dim
    left = _table_load(obj, "left_coaction", n, alg.L, (left_hopf.dim, n))
    right = _table_load(obj, "right_coaction", n, alg.L, (n, right_hopf.dim))
    cb = [_pair_from_json(v, alg.L)
          for v in _per_basis(obj, "counit_functional", n)]
    return deformation.BiGaloisRep(alg, left_hopf, right_hopf, left, right,
                                   cb)


# ------------------------------------------------------------ reports

def _plain(x):
    if isinstance(x, CycloNumber):
        return cyclo_to_json(x)
    if isinstance(x, GroupElement):
        return list(x.exps)
    if isinstance(x, (tuple, list)):
        return [_plain(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (int, str, bool)) or x is None:
        return x
    return str(x)


def report_to_json(rep: CheckReport) -> dict:
    return {
        "subject": rep.subject,
        "ok": rep.ok,
        "failures": [{"check": name, "witness": _plain(w)}
                     for name, w in rep.failures],
    }


def check_transport_report(T: comodule.ComoduleAlgebra, obj,
                           rep: CheckReport) -> CheckReport:
    """Check the ``transport`` report ``obj`` against T, the algebra it
    moved, into rep.  Each failure must name an invariant of
    ``deformation.invariants`` not named before and carry [before, after]
    with after T's value as ``report_to_json`` writes it, and before
    another; "ok" must hold exactly when no failure is listed.  A
    mismatch is reported as ``report-`` and the check it names."""
    after = {k: _plain(v) for k, v in deformation.invariants(T).items()}
    for f in obj["failures"]:
        name, witness = f["check"], f["witness"]
        if name not in after:
            rep.fail("report-unknown-check", name)
        elif not (isinstance(witness, list) and len(witness) == 2
                  and witness[0] != witness[1] == after.pop(name)):
            rep.fail("report-" + name, witness)
    if obj["ok"] is not (not obj["failures"]):
        rep.fail("report-ok", obj["ok"])
    return rep
