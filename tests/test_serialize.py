"""Round trips and schema checks for the JSON layer."""

from __future__ import annotations

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlsmodcat.classify import datum_key
from qlsmodcat.cocycles import Cocycle2
from qlsmodcat.comodule import ModCatDatum, build_A, regular_coaction
from qlsmodcat.cyclo import CycloNumber, zeta
from qlsmodcat.deformation import (LiftingDatum, build_bigalois, build_lifting,
                                   transport)
from qlsmodcat.errors import ValidationError
from qlsmodcat.groups import Subgroup
from qlsmodcat.hopf import CheckReport, build_bosonization
from qlsmodcat.serialize import (
    _pair_from_json,
    bigalois_dump,
    bigalois_load,
    comodule_dump,
    comodule_load,
    cyclo_from_json,
    cyclo_to_json,
    datum_to_json,
    dumps_canonical,
    hopf_dump,
    hopf_load,
    input_schema,
    load_datum,
    report_to_json,
    validate_input,
)

from qls_fixtures import (
    clifford_z2_datum,
    clifford_z22_datum,
    float_integer_inputs,
    sweedler_datum,
    z4_datum,
    z4_mu_datum,
    z22_lambda_datum,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "pipebench"))
import workloads  # noqa: E402


def rt(c: CycloNumber) -> CycloNumber:
    return cyclo_from_json(json.loads(dumps_canonical(cyclo_to_json(c))))


def test_scalar_round_trip_is_bit_exact():
    cases = [
        CycloNumber.from_rational(Fraction(3, 7), 1),
        CycloNumber.from_rational(Fraction(-22, 9), 12),
        zeta(8, 1) + zeta(8, 3) * CycloNumber.from_rational(Fraction(2, 5), 1),
        (zeta(12, 5) - zeta(12, 1)).inv(),
        CycloNumber.zero(20),
    ]
    for c in cases:
        back = rt(c)
        assert back.L == c.L
        assert back.raw() == c.raw()


def test_scalar_accepts_plain_ints_and_fraction_strings():
    assert cyclo_from_json(5) == CycloNumber.from_rational(Fraction(5), 1)
    assert cyclo_from_json("-3/4") == CycloNumber.from_rational(Fraction(-3, 4), 1)


def test_scalar_rejects_wrong_coefficient_count():
    with pytest.raises(ValidationError):
        cyclo_from_json({"L": 4, "c": ["1"]})


def test_datum_round_trip_plain():
    d = sweedler_datum()
    back, lifting, mcd = load_datum(datum_to_json(d))
    assert lifting is None and mcd is None
    assert back.group.orders == d.group.orders
    assert [el.exps for el in back.g] == [el.exps for el in d.g]
    assert [ch.exps for ch in back.chi] == [ch.exps for ch in d.chi]


def test_datum_round_trip_with_lifting():
    d = z22_lambda_datum()
    ld = LiftingDatum(d, lam={(0, 1): Fraction(2, 3)})
    obj = datum_to_json(d, lifting=ld)
    _, back, _ = load_datum(obj)
    assert back is not None
    assert back.lam == ld.lam
    assert back.mu == ld.mu

    d2 = z4_mu_datum()
    ld2 = LiftingDatum(d2, mu=[1])
    _, back2, _ = load_datum(datum_to_json(d2, lifting=ld2))
    assert back2.mu == ld2.mu


def test_datum_round_trip_with_modcat():
    d = clifford_z22_datum()
    F = Subgroup.full(d.group)
    psi = Cocycle2.from_exponents(F, {(0, 1): 1})
    mcd = ModCatDatum(d, F, psi,
                      w={(1, 0): [[1, 0], [0, 1]]},
                      xi=[Fraction(1, 3), 1],
                      alpha={(0, 1): 2})
    obj = datum_to_json(d, mcd=mcd)
    _, _, back = load_datum(obj)
    assert back is not None
    assert datum_key(back, strict=True) == datum_key(mcd, strict=True)
    assert back.dim() == mcd.dim()


def test_hopf_dump_is_deterministic_and_reloads():
    H = build_bosonization(sweedler_datum())
    blob = dumps_canonical(hopf_dump(H))
    again = dumps_canonical(hopf_dump(build_bosonization(sweedler_datum())))
    assert blob == again

    H2 = hopf_load(json.loads(blob))
    assert H2.verify().ok
    assert H2.labels == H.labels
    assert H2.mult == H.mult
    assert H2.comult == H.comult
    assert H2.counit == H.counit
    assert H2.antipode == H.antipode
    assert H2.degree == H.degree
    assert H2.graded == H.graded


def test_comodule_round_trip():
    d = sweedler_datum()
    F = Subgroup.full(d.group)
    mcd = ModCatDatum(d, F, Cocycle2.trivial(F), w={(1,): [[1]]}, xi=[1])
    A = build_A(mcd)
    A2 = comodule_load(json.loads(dumps_canonical(comodule_dump(A))))
    assert A2.verify().ok
    assert A2.labels == A.labels
    assert A2.mult == A.mult
    assert A2.coaction == A.coaction
    assert A2.degree == A.degree
    assert A2.hopf.mult == A.hopf.mult


def test_bigalois_round_trip():
    B = build_bigalois(LiftingDatum(z4_mu_datum(), mu=[1]))
    B2 = bigalois_load(json.loads(dumps_canonical(bigalois_dump(B))))
    assert B2.verify().ok
    assert B2.algebra.mult == B.algebra.mult
    assert B2.left_coaction == B.left_coaction
    assert B2.right_coaction == B.right_coaction
    assert B2.counit_functional == B.counit_functional
    assert B2.left_galois_bijective()
    assert B2.right_galois_bijective()


BAD_INPUTS = [
    {"group": {"orders": [2]}, "g": [[1]]},
    {"group": {"orders": []}, "g": [], "chi": []},
    {"group": {"orders": [2]}, "g": [[1]], "chi": [[1]], "junk": 1},
    {"group": {"orders": [2]}, "g": [[1]], "chi": [[1]],
     "lifting": {"lambda": [[0, "1"]]}},
    {"group": {"orders": [2]}, "g": [[1]], "chi": [[1]],
     "modcat": {"F": {"gens": []}, "xi": ["1.5"]}},
    {"group": {"orders": [2]}, "g": [[1]], "chi": [[1]],
     "lifting": {"mu": [{"L": 0, "c": []}]}},
]


def test_schema_rejects_bad_inputs():
    good = {"group": {"orders": [2]}, "g": [[1]], "chi": [[1]]}
    validate_input(good)

    for obj in BAD_INPUTS:
        with pytest.raises(ValidationError) as err:
            validate_input(obj)
        assert "schema" in str(err.value)


def test_input_schema_passes_its_metaschema():
    schema = input_schema()
    jsonschema.validators.validator_for(schema).check_schema(schema)


@pytest.mark.parametrize("obj", BAD_INPUTS)
def test_schema_errors_match_jsonschema_validate(obj):
    """The validator built once reports the error jsonschema.validate picks."""
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(obj, input_schema())
    with pytest.raises(ValidationError) as got:
        validate_input(obj)
    assert str(got.value) == (f"input does not match the schema at "
                              f"{want.value.json_path}: {want.value.message}")


def _schema_bases() -> list:
    """Valid inputs to mutate: the fixture data, with and without lifting
    and modcat sections, and every input variant of the benchmark."""
    d = clifford_z22_datum()
    F = Subgroup.full(d.group)
    mcd = ModCatDatum(d, F, Cocycle2.from_exponents(F, {(0, 1): 1}),
                      w={(1, 0): [[1, 0], [0, 1]]},
                      xi=[Fraction(1, 3), 1], alpha={(0, 1): zeta(4, 1)})
    bases = [datum_to_json(f()) for f in (sweedler_datum, z4_datum,
                                          clifford_z2_datum, z4_mu_datum)]
    bases.append(datum_to_json(d, mcd=mcd))
    bases.append(datum_to_json(z22_lambda_datum(), lifting=LiftingDatum(
        z22_lambda_datum(), lam={(0, 1): Fraction(2, 3)})))
    for slots in workloads.WORKLOADS.values():
        for slot in slots():
            bases.extend(slot.variants)
    return bases


SCHEMA_BASES = _schema_bases()
# values that swap a node's JSON type or scalar form; no float is
# integral, since jsonschema counts 1.0 as an integer and the checker
# does not
SWAPS = [0, -1, 3, True, None, 1.5, "x", "1", "-2/3", [], [1], {}, {"c": []},
         {"L": 1, "c": ["1"]}, {"L": 4, "c": ["1", "0"]}, {"L": 0, "c": []},
         {"L": 2.5, "c": ["1"]}, {"L": 1, "c": ["1"], "d": 1}]
BAD_FRACTIONS = ["1/", "/2", "1.5", "a", "1//2", "--1", "1/2/3", "", " 1",
                 "1\n", "1/-2"]


def _nodes(obj, path=()):
    """The path of every node of obj, the root first."""
    yield path
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _put(obj, path, value) -> None:
    _at(obj, path[:-1])[path[-1]] = value


def _mutate(obj, kind: str, draw) -> None:
    """Apply one mutation of the given kind to obj in place, where obj has
    a node it applies to."""
    paths = list(_nodes(obj))

    def pick(test):
        found = [p for p in paths[1:] if test(_at(obj, p))]
        return draw(st.sampled_from(found)) if found else None

    if kind == "swap":
        value = copy.deepcopy(draw(st.sampled_from(SWAPS)))
        _put(obj, pick(lambda v: True), value)
    elif kind == "bad-fraction":
        path = pick(lambda v: isinstance(v, (str, int)))
        if path:
            _put(obj, path, draw(st.sampled_from(BAD_FRACTIONS)))
    elif kind == "resize-list":
        path = pick(lambda v: isinstance(v, list) and v)
        if path and draw(st.booleans()):
            _at(obj, path).pop()
        elif path:
            _at(obj, path).append(copy.deepcopy(_at(obj, path)[-1]))
    elif kind in ("empty-orders", "L-zero"):
        key, value = ("orders", []) if kind == "empty-orders" else ("L", 0)
        path = pick(lambda v: isinstance(v, dict) and key in v)
        if path:
            _at(obj, path)[key] = value
    else:
        path = pick(lambda v: isinstance(v, dict) and v)
        node = obj if path is None or draw(st.booleans()) else _at(obj, path)
        if kind == "add-key":
            node[draw(st.sampled_from(["junk", "c", "L", "mu", "F"]))] = 1
        elif node:
            del node[draw(st.sampled_from(sorted(node)))]


MUTATIONS = ["drop-key", "add-key", "swap", "empty-orders", "L-zero",
             "bad-fraction", "resize-list"]


@st.composite
def mutated_inputs(draw):
    obj = copy.deepcopy(draw(st.sampled_from(SCHEMA_BASES)))
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), min_size=1,
                              max_size=2)):
        _mutate(obj, kind, draw)
    return obj


# what jsonschema.validate raises, without checking the schema against
# its metaschema on every call (test_input_schema_passes_its_metaschema
# does that)
REFERENCE = jsonschema.validators.validator_for(input_schema())(input_schema())


def _assert_checker_agrees(obj) -> None:
    """validate_input accepts exactly what jsonschema accepts and words
    every rejection as jsonschema's best match."""
    want = jsonschema.exceptions.best_match(REFERENCE.iter_errors(obj))
    if want is None:
        validate_input(obj)
        return
    with pytest.raises(ValidationError) as got:
        validate_input(obj)
    assert str(got.value) == (f"input does not match the schema at "
                              f"{want.json_path}: {want.message}")


@settings(max_examples=500, deadline=None)
@given(mutated_inputs())
def test_schema_checker_agrees_with_jsonschema(obj):
    _assert_checker_agrees(obj)


@pytest.mark.parametrize("text", BAD_FRACTIONS)
def test_schema_checker_agrees_on_fraction_strings(text):
    """Both read the pattern with re.search, whose $ also matches before
    a final newline."""
    for scalar in (text, {"L": 1, "c": [text]}):
        _assert_checker_agrees({"group": {"orders": [2]}, "g": [[1]],
                                "chi": [[1]], "lifting": {"mu": [scalar]}})


@pytest.mark.parametrize("where", sorted(float_integer_inputs()))
def test_schema_checker_rejects_floats_jsonschema_counts_as_integers(where):
    _, obj = float_integer_inputs()[where]
    jsonschema.validate(obj, input_schema())
    with pytest.raises(ValidationError) as err:
        validate_input(obj)
    assert str(err.value).startswith(
        f"input does not match the schema at {where}: ")


# the keywords the in-house checker reads, and annotations it may ignore
CHECKED = {"type", "required", "properties", "additionalProperties",
           "items", "prefixItems", "minItems", "maxItems", "minimum",
           "pattern", "oneOf", "$ref"}
IGNORED = {"$schema", "title", "$defs"}


def test_schema_uses_only_keywords_the_checker_reads():
    """A later schema edit with a keyword the checker skips would let
    inputs through that jsonschema rejects; fail on it here instead."""
    def walk(schema, where):
        assert set(schema) <= CHECKED | IGNORED, (where, set(schema) - CHECKED
                                                  - IGNORED)
        assert schema.get("additionalProperties", False) is False, where
        assert schema.get("$ref", "#/").startswith("#/"), where
        assert schema.get("type", "integer") in (
            "object", "array", "string", "integer"), where
        subs = [*schema.get("properties", {}).items(),
                *schema.get("$defs", {}).items(),
                *enumerate(schema.get("prefixItems", [])),
                *enumerate(schema.get("oneOf", []))]
        if "items" in schema:
            subs.append(("items", schema["items"]))
        for key, sub in subs:
            walk(sub, f"{where}/{key}")

    walk(input_schema(), "#")


def test_schema_failure_names_the_offending_path():
    obj = {"group": {"orders": [2]}, "g": [[1]], "chi": [[1]],
           "lifting": {"mu": [{"L": 0, "c": []}]}}
    with pytest.raises(ValidationError) as err:
        validate_input(obj)
    assert "lifting" in str(err.value)


def _sweedler_hopf_obj():
    return json.loads(dumps_canonical(hopf_dump(build_bosonization(sweedler_datum()))))


# (table, row position, bad index) on the dim-4 Sweedler algebra; list
# indexing would wrap -1 round to the last basis element
@pytest.mark.parametrize("table,pos,bad", [
    ("mult", 0, -1), ("mult", 1, 4), ("mult", 2, -1), ("unit", 0, -1),
    ("comult", 0, -1), ("comult", 1, 4), ("comult", 2, -1),
    ("antipode", 0, 4), ("antipode", 1, -1)])
def test_hopf_load_range_checks_every_table_index(table, pos, bad):
    obj = _sweedler_hopf_obj()
    obj[table][0][pos] = bad
    with pytest.raises(ValidationError, match="table index"):
        hopf_load(obj)


def test_load_rejects_a_dim_that_disagrees_with_the_labels():
    obj = _sweedler_hopf_obj()
    obj["dim"] = 5
    with pytest.raises(ValidationError, match="4 labels"):
        hopf_load(obj)


@pytest.mark.parametrize("L,good,bad", [
    (4, {"L": 4, "c": [1, 0]}, {"L": 4, "c": [True, 0]}),
    (4, {"L": 4, "c": [1, 0]}, {"L": 4, "c": [1.0, 0]}),
    (4, {"L": 4, "c": ["1", "0"]}, {"L": 6, "c": ["1", "0"]}),
    (1, {"L": 1, "c": [1]}, {"L": True, "c": [1]}),
    (1, {"L": 1, "c": [1]}, {"L": 1.0, "c": [1]}),
], ids=["coefficient-true", "coefficient-float", "foreign-conductor",
        "conductor-true", "conductor-float"])
def test_a_cached_scalar_does_not_stand_in_for_an_equal_json_value(
        L, good, bad):
    """True and 1.0 equal 1 in Python, and a scalar at conductor 6 has the
    coefficients of one at 4: the read cache keys on exact types and on
    the artifact's conductor, so each bad twin still reaches the parser,
    however often the good one was read."""
    for _ in range(2):
        assert _pair_from_json(good, L) == ((1,) + (0,) * (len(good["c"]) - 1), 1)
        with pytest.raises(ValidationError):
            _pair_from_json(bad, L)


def test_load_then_dump_gives_the_same_bytes():
    """Every artifact kind reads back to the bytes it was written as, also
    on a second pass, when every scalar is in the caches."""
    d = sweedler_datum()
    F = Subgroup.full(d.group)
    mcd = ModCatDatum(d, F, Cocycle2.trivial(F), w={(1,): [[1]]}, xi=[1])
    lifting = LiftingDatum(z4_mu_datum(), mu=[1])
    B = build_bigalois(lifting)
    T, _ = transport(B, regular_coaction(B.right_hopf))
    cases = {
        "hopf": (hopf_dump(build_bosonization(z4_datum())), hopf_load, hopf_dump),
        "lifting": (hopf_dump(build_lifting(lifting)), hopf_load, hopf_dump),
        "comodule": (comodule_dump(build_A(mcd)), comodule_load, comodule_dump),
        "bigalois": (bigalois_dump(B), bigalois_load, bigalois_dump),
        "transport": (comodule_dump(T), comodule_load, comodule_dump),
    }
    for name, (payload, load, dump) in cases.items():
        text = dumps_canonical(payload)
        for _ in range(2):
            assert dumps_canonical(dump(load(json.loads(text)))) == text, name


def test_coaction_indices_are_bounded_by_their_own_legs():
    d = sweedler_datum()
    triv = Subgroup.trivial(d.group)
    A = build_A(ModCatDatum(d, triv, Cocycle2.trivial(triv), w={(1,): [[1]]}))
    assert (A.dim, A.hopf.dim) == (2, 4)
    obj = json.loads(dumps_canonical(comodule_dump(A)))
    obj["coaction"][0][1] = 3  # a Hopf basis index, in range
    comodule_load(obj)
    for pos, bad in ((0, 2), (1, 4), (2, 2), (2, -1)):
        broken = json.loads(dumps_canonical(comodule_dump(A)))
        broken["coaction"][0][pos] = bad
        with pytest.raises(ValidationError, match="table index"):
            comodule_load(broken)


def test_bigalois_load_range_checks_both_coactions():
    B = build_bigalois(LiftingDatum(z4_mu_datum(), mu=[1]))
    for side in ("left_coaction", "right_coaction"):
        obj = json.loads(dumps_canonical(bigalois_dump(B)))
        obj[side][0][1] = -1
        with pytest.raises(ValidationError, match="table index"):
            bigalois_load(obj)


def test_report_to_json_renders_witnesses():
    d = sweedler_datum()
    rep = CheckReport("demo")
    rep.fail("some-check", (d.group.element((1,)), zeta(4, 1)))
    out = report_to_json(rep)
    assert out["subject"] == "demo"
    assert out["ok"] is False
    assert out["failures"][0]["check"] == "some-check"
    dumps_canonical(out)

    assert report_to_json(CheckReport("fine"))["ok"] is True
