"""End-to-end runs of the command-line front end."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import stat
import subprocess
import sys
import time
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import pytest

from qlsmodcat.cli import _parser, main
from qlsmodcat.cocycles import Cocycle2
from qlsmodcat.comodule import ModCatDatum
from qlsmodcat.deformation import LiftingDatum, build_bigalois
from qlsmodcat.groups import Subgroup
from qlsmodcat.hopf import MAX_TABLE_DIM, CheckReport, verify_coaction
from qlsmodcat.serialize import (MAX_CONDUCTOR, MAX_GROUP_ORDER, bigalois_dump,
                                 bigalois_load, comodule_load, datum_to_json,
                                 dumps_canonical)

from qls_fixtures import (
    float_integer_inputs,
    sweedler_datum,
    z4_datum,
    z4_mu_datum,
    z4_theta2_obj,
    z22_lambda_datum,
)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("QLSMODCAT_CACHE_DIR", str(tmp_path / "cache"))


def write(tmp_path, obj, name="datum.json") -> str:
    p = tmp_path / name
    p.write_text(dumps_canonical(obj) + "\n")
    return str(p)


def sweedler_modcat_obj():
    d = sweedler_datum()
    F = Subgroup.full(d.group)
    mcd = ModCatDatum(d, F, Cocycle2.trivial(F), w={(1,): [[1]]}, xi=[1])
    return datum_to_json(d, mcd=mcd)


def z4_mu_obj():
    obj = datum_to_json(z4_mu_datum())
    obj["lifting"] = {"mu": [1], "lambda": []}
    return obj


def test_validate_accepts_good_datum(tmp_path, capsys):
    path = write(tmp_path, datum_to_json(sweedler_datum()))
    assert main(["validate", path]) == 0
    assert "valid, N=[2]" in capsys.readouterr().out


def test_validate_flags_forced_zero_lifting_scalar(tmp_path, capsys):
    obj = datum_to_json(sweedler_datum())
    obj["lifting"] = {"mu": [1], "lambda": []}
    path = write(tmp_path, obj)
    assert main(["validate", path]) == 1
    assert "root-scalar-forced-zero" in capsys.readouterr().out


def test_validate_reports_a_forced_zero_root_scalar_once(tmp_path, capsys):
    """Over Z2 x Z4 with g = (1, 0), g^2 = 1 and chi^2 != eps each force
    mu to zero: one failure of the one scalar, in text and in JSON."""
    path = write(tmp_path, {"group": {"orders": [2, 4]}, "g": [[1, 0]],
                            "chi": [[1, 1]], "lifting": {"mu": [1]}})
    assert main(["validate", path]) == 1
    assert capsys.readouterr().out == "FAIL lifting root-scalar-forced-zero: 0\n"
    assert main(["validate", path, "--format", "json"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert [r["failures"] for r in out["reports"]] == [
        [], [{"check": "root-scalar-forced-zero", "witness": 0}]]


def test_validate_json_format(tmp_path, capsys):
    path = write(tmp_path, datum_to_json(sweedler_datum()))
    assert main(["validate", path, "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is True
    assert out["N"] == [2]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_validate_reports_an_invalid_datum_under_a_modcat_section(
        tmp_path, capsys, fmt):
    """A modcat section over a datum with q_00 = 1 reports the datum's
    failures exactly as the bare datum does, with exit code 1."""
    bare = {"group": {"orders": [2]}, "g": [[1]], "chi": [[0]]}
    outs = []
    for obj in (bare, dict(bare, modcat={"F": {"gens": []}})):
        path = write(tmp_path, obj)
        assert main(["validate", path, "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        outs.append(captured.out)
    assert outs[1] == outs[0]
    assert "self-pairing-one" in outs[0]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_validate_reports_an_invalid_datum_under_a_lifting_section_once(
        tmp_path, capsys, fmt):
    """A lifting section over a datum with g = 1 and chi trivial adds no
    report: its scalars are checked only over a valid datum."""
    bare = {"group": {"orders": [2]}, "g": [[0]], "chi": [[0]]}
    outs = []
    for obj in (bare, dict(bare, lifting={"mu": [1]})):
        path = write(tmp_path, obj)
        assert main(["validate", path, "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        outs.append(captured.out)
    assert outs[1] == outs[0]
    assert outs[0].count("self-pairing-one") == 1


def test_an_out_of_range_link_scalar_names_its_bound(tmp_path, capsys):
    """(0, 1) is strictly upper, but over one generator it is out of range."""
    obj = z4_mu_obj()
    obj["lifting"]["lambda"] = [[0, 1, 1]]
    assert main(["validate", write(tmp_path, obj)]) == 1
    err = capsys.readouterr().err
    assert "link scalar index (0, 1) out of range" in err
    assert "0 <= i < j < theta = 1" in err
    assert "strictly upper" not in err


def test_an_out_of_range_modcat_link_names_its_bound(tmp_path, capsys):
    """(0, 1) is strictly upper, but over one subspace row it is out of
    range."""
    obj = sweedler_modcat_obj()
    obj["modcat"]["alpha"] = [[0, 1, 1]]
    assert main(["validate", write(tmp_path, obj)]) == 1
    err = capsys.readouterr().err
    assert "link index (0, 1) out of range" in err
    assert "0 <= a < b < m = 1" in err
    assert "strictly upper" not in err


def test_malformed_json_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ nope")
    assert main(["validate", str(path)]) == 1
    assert "broken.json:1:" in capsys.readouterr().err


def test_missing_file_is_an_input_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.json")]) == 1
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("command, warm", [
    ("validate", False), ("classify", False), ("transport", False),
    ("verify", False), ("build-hopf", False), ("build-hopf", True)])
def test_a_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys, command,
                                                   warm):
    """build-hopf reads its input before it looks up the cache, so the
    error is the same whether the cache holds an entry or not."""
    if warm:
        assert main(["build-hopf",
                     write(tmp_path, datum_to_json(sweedler_datum()))]) == 0
        assert any((tmp_path / "cache").iterdir())
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{")
    capsys.readouterr()
    assert main([command, str(path)]) == 1
    assert f"error: cannot read {path}:" in capsys.readouterr().err


def test_build_hopf_then_verify(tmp_path, capsys):
    path = write(tmp_path, datum_to_json(sweedler_datum()))
    assert main(["build-hopf", path]) == 0
    out = capsys.readouterr().out
    assert "dim 4" in out
    artifact = tmp_path / "datum.hopf.json"
    assert artifact.exists()
    assert main(["verify", str(artifact)]) == 0
    assert "hopf: ok" in capsys.readouterr().out


def test_verify_catches_a_corrupted_table(tmp_path, capsys):
    path = write(tmp_path, datum_to_json(sweedler_datum()))
    assert main(["build-hopf", path]) == 0
    capsys.readouterr()
    artifact = tmp_path / "datum.hopf.json"
    obj = json.loads(artifact.read_text())
    entry = obj["mult"][0]
    entry[3]["c"] = ["-" + s if not s.startswith("-") else s[1:]
                     for s in entry[3]["c"]]
    artifact.write_text(dumps_canonical(obj))
    assert main(["verify", str(artifact)]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_verify_rejects_a_negative_table_index(tmp_path, capsys):
    path = write(tmp_path, datum_to_json(sweedler_datum()))
    assert main(["build-hopf", path]) == 0
    capsys.readouterr()
    artifact = tmp_path / "datum.hopf.json"
    obj = json.loads(artifact.read_text())
    # list indexing would read -1 as 3 and report axiom failures (exit 2)
    obj["comult"] = [[-1 if x == 3 else x for x in row[:3]] + row[3:]
                     for row in obj["comult"]]
    artifact.write_text(dumps_canonical(obj))
    assert main(["verify", str(artifact)]) == 1
    captured = capsys.readouterr()
    assert "table index -1" in captured.err
    assert "FAIL" not in captured.out


def _corrupt_coefficient(obj, text):
    obj["mult"][0][3]["c"][0] = text


def _set_degree(obj, deg):
    obj["degree"] = deg


@pytest.mark.parametrize("corrupt", [
    lambda obj: _corrupt_coefficient(obj, "abc"),
    lambda obj: _corrupt_coefficient(obj, "1/0"),
    lambda obj: _corrupt_coefficient(obj, 0.5),
    lambda obj: obj.update(L=0),
    lambda obj: obj.update(L=-2),
    lambda obj: obj.update(L=2.5),
    lambda obj: obj.update(unit=[[0]]),
    lambda obj: _set_degree(obj, [d / 2 for d in obj["degree"]]),
    lambda obj: obj.update(dim=4.0),
    lambda obj: obj.update(graded="no"),
    lambda obj: obj.update(graded=0),
    lambda obj: obj.update(graded=[]),
    lambda obj: obj.update(graded=None),
], ids=["coefficient-abc", "zero-denominator", "coefficient-float",
        "L-zero", "L-negative",
        "L-fraction", "short-unit-row", "fractional-degree", "dim-float",
        "graded-string", "graded-zero", "graded-list", "graded-null"])
def test_verify_rejects_malformed_artifacts(tmp_path, capsys, corrupt):
    path = write(tmp_path, datum_to_json(sweedler_datum()))
    assert main(["build-hopf", path]) == 0
    capsys.readouterr()
    artifact = tmp_path / "datum.hopf.json"
    obj = json.loads(artifact.read_text())
    corrupt(obj)
    artifact.write_text(dumps_canonical(obj))
    assert main(["verify", str(artifact)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert "FAIL" not in captured.out


def _built(tmp_path, capsys, command, obj, artifact):
    assert main([command, write(tmp_path, obj)]) == 0
    capsys.readouterr()
    return tmp_path / artifact


def _verify_rejects(capsys, artifact, obj, field):
    artifact.write_text(dumps_canonical(obj))
    assert main(["verify", str(artifact)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {field}")
    assert "Traceback" not in captured.err
    assert "FAIL" not in captured.out


def test_verify_rejects_an_extra_counit_entry(tmp_path, capsys):
    # the extra scalar used to be ignored, and the artifact verified ok
    artifact = _built(tmp_path, capsys, "build-hopf",
                      datum_to_json(sweedler_datum()), "datum.hopf.json")
    obj = json.loads(artifact.read_text())
    obj["counit"].append(obj["counit"][0])
    _verify_rejects(capsys, artifact, obj, "counit has 5 entries for 4")


def test_verify_rejects_a_missing_counit_entry(tmp_path, capsys):
    # this used to exit 1 through an IndexError
    artifact = _built(tmp_path, capsys, "build-hopf",
                      datum_to_json(sweedler_datum()), "datum.hopf.json")
    obj = json.loads(artifact.read_text())
    obj["counit"].pop()
    _verify_rejects(capsys, artifact, obj, "counit has 3 entries for 4")


def _float_labels(obj):
    obj["labels"] = [[[float(e) for e in r], exps] for r, exps in obj["labels"]]


def test_verify_rejects_float_labels_in_a_hopf_artifact(tmp_path, capsys):
    # [[0.0], [0]] used to load as the label ((0,), (0,)) and verify ok
    artifact = _built(tmp_path, capsys, "build-hopf",
                      datum_to_json(sweedler_datum()), "datum.hopf.json")
    obj = json.loads(artifact.read_text())
    _float_labels(obj)
    _verify_rejects(capsys, artifact, obj, "labels entry [[0.0], [0]]")


def test_verify_rejects_float_labels_in_a_comodule_artifact(tmp_path, capsys):
    artifact = _built(tmp_path, capsys, "build-algebra",
                      sweedler_modcat_obj(), "datum.algebra.json")
    obj = json.loads(artifact.read_text())
    obj["labels"][1][1] = [1.0]
    _verify_rejects(capsys, artifact, obj, "labels entry")


def _bigalois_artifact(tmp_path):
    B = build_bigalois(LiftingDatum(z4_mu_datum(), mu=[1]))
    artifact = tmp_path / "bigalois.json"
    artifact.write_text(dumps_canonical(bigalois_dump(B)))
    return artifact


REPEATABLE_TABLES = {
    "mult": "hopf", "unit": "hopf", "comult": "hopf", "antipode": "hopf",
    "coaction": "algebra", "left_coaction": "bigalois",
    "right_coaction": "bigalois",
}


@pytest.mark.parametrize("table", sorted(REPEATABLE_TABLES))
def test_verify_rejects_a_repeated_table_cell(tmp_path, capsys, table):
    # the last row of a repeated cell used to win, and the artifact
    # verified ok
    kind = REPEATABLE_TABLES[table]
    if kind == "hopf":
        artifact = _built(tmp_path, capsys, "build-hopf",
                          datum_to_json(sweedler_datum()), "datum.hopf.json")
    elif kind == "algebra":
        artifact = _built(tmp_path, capsys, "build-algebra",
                          sweedler_modcat_obj(), "datum.algebra.json")
    else:
        artifact = _bigalois_artifact(tmp_path)
    obj = json.loads(artifact.read_text())
    row = json.loads(json.dumps(obj[table][0]))
    row[-1]["c"][0] = "7"
    obj[table].insert(0, row)
    _verify_rejects(capsys, artifact, obj,
                    f"{table} lists the cell {row[:-1]} twice")


def zero_denominator_inputs():
    """Inputs whose lifting.mu, lifting.lambda or modcat.xi holds 1/0."""
    mu = z4_mu_obj()
    mu["lifting"]["mu"] = ["1/0"]
    lam = datum_to_json(z22_lambda_datum())
    lam["lifting"] = {"mu": [], "lambda": [[0, 1, "1/0"]]}
    xi = sweedler_modcat_obj()
    xi["modcat"]["xi"] = ["1/0"]
    return {"lifting.mu": mu, "lifting.lambda": lam, "modcat.xi": xi}


@pytest.mark.parametrize("where", sorted(zero_denominator_inputs()))
@pytest.mark.parametrize("command", ["build-lifting", "build-algebra",
                                     "transport", "classify", "validate"])
def test_zero_denominator_is_an_input_error(tmp_path, capsys, where, command):
    path = write(tmp_path, zero_denominator_inputs()[where])
    assert main([command, path]) == 1
    err = capsys.readouterr().err
    assert "nonzero denominator" in err
    assert "Traceback" not in err


# phi(10^6) = 400000: one coefficient is too few, and building the field
# tables at that conductor to find out would not finish
HUGE_CONDUCTOR = {"L": 1000000, "c": ["1"]}


def run_timed(argv):
    start = time.perf_counter()
    code = main(argv)
    return code, time.perf_counter() - start


def test_huge_conductor_in_a_datum_is_an_input_error(tmp_path, capsys):
    obj = z4_mu_obj()
    obj["lifting"]["mu"] = [HUGE_CONDUCTOR]
    code, seconds = run_timed(["validate", write(tmp_path, obj)])
    assert code == 1 and seconds < 2
    assert "needs 400000 coefficients" in capsys.readouterr().err


def test_huge_conductor_in_an_artifact_is_an_input_error(tmp_path, capsys):
    path = write(tmp_path, datum_to_json(sweedler_datum()))
    assert main(["build-hopf", path]) == 0
    capsys.readouterr()
    artifact = tmp_path / "datum.hopf.json"
    obj = json.loads(artifact.read_text())
    obj["counit"][0] = HUGE_CONDUCTOR
    artifact.write_text(dumps_canonical(obj))
    code, seconds = run_timed(["verify", str(artifact)])
    assert code == 1 and seconds < 2
    captured = capsys.readouterr()
    assert "needs 400000 coefficients" in captured.err
    assert "FAIL" not in captured.out


def sweedler_hopf_artifact(tmp_path, capsys):
    """The dim-4 Sweedler bosonization at conductor 2, as build-hopf
    writes it."""
    path = write(tmp_path, datum_to_json(sweedler_datum()))
    assert main(["build-hopf", path]) == 0
    capsys.readouterr()
    artifact = tmp_path / "datum.hopf.json"
    return artifact, json.loads(artifact.read_text())


def test_artifact_without_scalars_is_an_input_error(tmp_path, capsys):
    """No scalar is left to check the conductor against, and building the
    tables at conductor 10^6 would not finish."""
    artifact, obj = sweedler_hopf_artifact(tmp_path, capsys)
    for table in ("mult", "unit", "comult", "counit", "antipode"):
        obj[table] = []
    obj["L"] = 1000000
    artifact.write_text(dumps_canonical(obj))
    code, seconds = run_timed(["verify", str(artifact)])
    assert code == 1 and seconds < 2
    captured = capsys.readouterr()
    assert "holds no scalar" in captured.err
    assert "FAIL" not in captured.out


def test_artifact_with_an_empty_unit_still_fails_its_sweep(tmp_path, capsys):
    artifact, obj = sweedler_hopf_artifact(tmp_path, capsys)
    assert obj["L"] == 2
    obj["unit"] = []
    artifact.write_text(dumps_canonical(obj))
    assert main(["verify", str(artifact)]) == 2
    out = capsys.readouterr().out
    assert "FAIL hopf unit-left" in out and "FAIL hopf unit-right" in out


@pytest.mark.parametrize("where", sorted(float_integer_inputs()))
def test_float_in_an_integer_slot_is_a_schema_error(tmp_path, capsys, where):
    command, obj = float_integer_inputs()[where]
    assert main([command, write(tmp_path, obj)]) == 1
    err = capsys.readouterr().err
    assert f"schema at {where}:" in err
    assert "Traceback" not in err


def z4_hopf_artifact(tmp_path, capsys):
    """The dim-16 Z4 bosonization at conductor 4, as build-hopf writes it."""
    path = write(tmp_path, datum_to_json(z4_datum()))
    assert main(["build-hopf", path]) == 0
    capsys.readouterr()
    artifact = tmp_path / "datum.hopf.json"
    obj = json.loads(artifact.read_text())
    assert (obj["L"], obj["dim"]) == (4, 16)
    return artifact, obj


@pytest.mark.parametrize("corrupt", [
    lambda obj: obj["unit"][0].__setitem__(1, {"L": 3, "c": ["1", "0"]}),
    lambda obj: obj.update(L=4000),
], ids=["unit-at-L3", "top-level-L4000"])
def test_verify_rejects_scalars_at_a_foreign_conductor(tmp_path, capsys, corrupt):
    """Every dump writes its scalars at the artifact's conductor, so one
    written elsewhere is an input error: conductor 3 does not embed in 4,
    and a top-level conductor raised to 4000 must not rebase every
    scalar into Q(zeta_4000) and answer ok."""
    artifact, obj = z4_hopf_artifact(tmp_path, capsys)
    corrupt(obj)
    artifact.write_text(dumps_canonical(obj))
    code, seconds = run_timed(["verify", str(artifact)])
    assert code == 1 and seconds < 2
    captured = capsys.readouterr()
    assert "in an artifact at conductor" in captured.err
    assert "Traceback" not in captured.err
    assert "ok" not in captured.out


def _scalars_of_one(obj) -> list:
    """The scalars {"L": 4, "c": ["1", "0"]} of the Z4 artifact's mult
    table, in table order."""
    return [row[3] for row in obj["mult"] if row[3]["c"] == ["1", "0"]]


@pytest.mark.parametrize("twin", [[True, 0], [1.0, 0]],
                         ids=["true", "float"])
def test_a_scalar_read_once_does_not_admit_its_twin(tmp_path, capsys, twin):
    """The first 1 of the table is written [1, 0], a valid scalar, and the
    last one [true, 0] or [1.0, 0], which Python compares equal to it:
    the last must still be rejected."""
    artifact, obj = z4_hopf_artifact(tmp_path, capsys)
    ones = _scalars_of_one(obj)
    assert len(ones) > 2
    ones[0]["c"] = [1, 0]
    ones[-1]["c"] = twin
    artifact.write_text(dumps_canonical(obj))
    assert main(["verify", str(artifact)]) == 1
    captured = capsys.readouterr()
    assert "is not a fraction" in captured.err
    assert "ok" not in captured.out


def test_a_repeated_scalar_at_a_foreign_conductor_is_rejected(tmp_path, capsys):
    """The 1 of the table read at conductor 4, then twice written with the
    same coefficients at conductor 6: the first foreign one is an input
    error, with nothing taken from the 1 already read."""
    artifact, obj = z4_hopf_artifact(tmp_path, capsys)
    ones = _scalars_of_one(obj)
    for scalar in ones[-2:]:
        scalar["L"] = 6
    artifact.write_text(dumps_canonical(obj))
    assert main(["verify", str(artifact)]) == 1
    captured = capsys.readouterr()
    assert "scalar at conductor 6 in an artifact at conductor 4" in captured.err
    assert "ok" not in captured.out


def test_verify_redirects_datum_files(tmp_path, capsys):
    path = write(tmp_path, datum_to_json(sweedler_datum()))
    assert main(["verify", path]) == 1
    assert "validate command" in capsys.readouterr().err


def test_build_cache_round_trip(tmp_path, capsys):
    path = write(tmp_path, datum_to_json(sweedler_datum()))
    artifact = tmp_path / "datum.hopf.json"

    assert main(["build-hopf", path]) == 0
    first = capsys.readouterr().out
    assert "cache hit" not in first
    blob = artifact.read_bytes()

    assert main(["build-hopf", path]) == 0
    second = capsys.readouterr().out
    assert "cache hit" in second
    assert artifact.read_bytes() == blob

    assert main(["build-hopf", path, "--no-cache"]) == 0
    third = capsys.readouterr().out
    assert "cache hit" not in third
    assert artifact.read_bytes() == blob


def test_cache_entry_is_the_canonical_wrapper_and_checked(tmp_path, capsys):
    """An entry holds exactly dumps_canonical({"checksum", "payload"}), the
    checksum hashes the payload's canonical text, and a payload edited
    under its old checksum is a miss that the rebuild overwrites."""
    path = write(tmp_path, datum_to_json(sweedler_datum()))
    artifact = tmp_path / "datum.hopf.json"
    assert main(["build-hopf", path]) == 0
    blob = artifact.read_bytes()
    (entry,) = (tmp_path / "cache").iterdir()
    text = entry.read_text()
    stored = json.loads(text)
    assert sorted(stored) == ["checksum", "payload"]
    assert text == dumps_canonical(stored)
    payload_text = dumps_canonical(stored["payload"])
    assert stored["checksum"] == hashlib.sha256(payload_text.encode()).hexdigest()
    assert blob == (payload_text + "\n").encode()

    stored["payload"]["counit"][0]["c"] = ["-1"]
    entry.write_text(dumps_canonical(stored))
    assert main(["build-hopf", path]) == 0
    assert "cache hit" not in capsys.readouterr().out
    assert artifact.read_bytes() == blob
    assert entry.read_text() == text
    assert main(["build-hopf", path]) == 0
    assert "cache hit" in capsys.readouterr().out
    assert artifact.read_bytes() == blob


@pytest.mark.parametrize("reform", [
    lambda text: text + "\n",
    lambda text: json.dumps(json.loads(text), sort_keys=True),
    lambda text: dumps_canonical(json.loads(text)).replace(
        '"checksum"', '"checksum" ', 1),
    lambda text: text.replace('"checksum":"', '"checksum":"0', 1),
], ids=["newline", "spaces", "space-after-key", "long-checksum"])
def test_a_cache_entry_in_another_form_is_a_miss(tmp_path, capsys, reform):
    """An entry is served only in exactly the form _cache_put writes; any
    other text, even of the same JSON value, is a miss that the rebuild
    overwrites."""
    path = write(tmp_path, datum_to_json(sweedler_datum()))
    assert main(["build-hopf", path]) == 0
    (entry,) = (tmp_path / "cache").iterdir()
    text = entry.read_text()
    entry.write_text(reform(text))
    capsys.readouterr()
    assert main(["build-hopf", path]) == 0
    assert "cache hit" not in capsys.readouterr().out
    assert entry.read_text() == text


def test_cache_misses_when_the_code_changes(tmp_path, capsys, monkeypatch):
    import qlsmodcat.cli as cli

    path = write(tmp_path, datum_to_json(sweedler_datum()))

    def hit() -> bool:
        assert main(["build-hopf", path]) == 0
        return "cache hit" in capsys.readouterr().out

    assert not hit()
    assert hit()
    monkeypatch.setattr(cli, "_source_digest", lambda: "0" * 64)
    assert not hit()
    assert hit()
    monkeypatch.setattr(cli, "__version__", "0.0.0+other")
    assert not hit()
    # entries are written through a temporary file that is renamed away
    cache = tmp_path / "cache"
    assert sorted(p.suffix for p in cache.iterdir()) == [".json"] * 3


def _z4_obj(chi: int) -> dict:
    return {"group": {"orders": [4]}, "g": [[1]], "chi": [[chi]]}


@pytest.mark.parametrize("change", ["foreign-owned", "group-writable"])
def test_a_cache_entry_someone_else_could_write_is_a_miss(tmp_path, capsys,
                                                          change):
    """The checksummed entry of another build (chi = 3, dim 16), put at
    this build's key (chi = 2, dim 8) where someone else could have put
    it, is not served: the rebuild writes what --no-cache writes and
    leaves an entry only its owner can write."""
    cache = tmp_path / "cache"
    other = write(tmp_path, _z4_obj(3), "other.json")
    assert main(["build-hopf", other]) == 0
    (planted,) = cache.iterdir()
    path = write(tmp_path, _z4_obj(2))
    assert main(["build-hopf", path]) == 0
    (entry,) = set(cache.iterdir()) - {planted}
    entry.write_bytes(planted.read_bytes())
    if change == "foreign-owned":
        if os.getuid() != 0:
            pytest.skip("only root can give a file to another user")
        os.chown(entry, os.getuid() + 1, -1)
        entry.chmod(0o666)
    else:
        entry.chmod(0o620)
    capsys.readouterr()
    assert main(["build-hopf", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("bosonization: dim 8,") and "cache hit" not in out
    fresh = tmp_path / "fresh.json"
    assert main(["build-hopf", path, "--no-cache", "--out", str(fresh)]) == 0
    assert (tmp_path / "datum.hopf.json").read_bytes() == fresh.read_bytes()
    st = entry.stat()
    assert (st.st_uid, stat.S_IMODE(st.st_mode)) == (os.getuid(), 0o600)
    capsys.readouterr()


def test_a_fifo_at_a_cache_entry_is_a_miss_not_a_hang(tmp_path, capsys):
    path = write(tmp_path, datum_to_json(sweedler_datum()))
    artifact = tmp_path / "datum.hopf.json"
    assert main(["build-hopf", path]) == 0
    blob = artifact.read_bytes()
    (entry,) = (tmp_path / "cache").iterdir()
    entry.unlink()
    os.mkfifo(entry)
    artifact.unlink()
    proc = _limited(["build-hopf", path], 60)
    assert proc.returncode == 0, proc.stderr
    assert "cache hit" not in proc.stdout
    assert artifact.read_bytes() == blob
    assert stat.S_ISREG(entry.stat().st_mode)
    capsys.readouterr()


@pytest.mark.parametrize("planted", ["symlink", "file"])
def test_a_file_at_the_temporary_name_is_left_alone(tmp_path, capsys,
                                                    monkeypatch, planted):
    """Whatever is at the temporary name an entry is written through keeps
    its bytes and the entry is not stored, but the command still writes
    its artifact; a later process, with a temporary name of its own,
    stores the entry."""
    import qlsmodcat.cli as cli

    cache = tmp_path / "cache"
    target = tmp_path / "target"
    target.write_bytes(b"not a cache entry")
    put = cli._cache_put

    def plant_then_put(key, text):
        tmp = cache / f".{key}.json.{os.getpid()}.tmp"
        cache.mkdir()
        if planted == "symlink":
            tmp.symlink_to(target)
        else:
            shutil.copyfile(target, tmp)
        put(key, text)

    monkeypatch.setattr(cli, "_cache_put", plant_then_put)
    path = write(tmp_path, datum_to_json(sweedler_datum()))
    fresh = tmp_path / "fresh.json"
    assert main(["build-hopf", path, "--no-cache", "--out", str(fresh)]) == 0
    assert main(["build-hopf", path]) == 0
    assert (tmp_path / "datum.hopf.json").read_bytes() == fresh.read_bytes()
    (tmp,) = cache.iterdir()
    assert tmp.name.endswith(".tmp")
    assert target.read_bytes() == tmp.read_bytes() == b"not a cache entry"
    proc = _limited(["build-hopf", path], 60)
    assert proc.returncode == 0, proc.stderr
    assert "cache hit" not in proc.stdout
    (entry,) = cache.glob("*.json")
    assert stat.S_IMODE(entry.stat().st_mode) == 0o600
    assert target.read_bytes() == b"not a cache entry"
    capsys.readouterr()


def test_source_digest_is_taken_only_by_cached_commands(tmp_path, capsys):
    import qlsmodcat.cli as cli

    cli._source_digest.cache_clear()
    path = write(tmp_path, datum_to_json(sweedler_datum()))
    assert main(["validate", path]) == 0
    assert cli._source_digest.cache_info().currsize == 0
    assert main(["build-hopf", path]) == 0
    assert main(["build-hopf", path]) == 0
    info = cli._source_digest.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    capsys.readouterr()


def test_an_uncached_build_takes_no_source_digest(tmp_path, capsys):
    import qlsmodcat.cli as cli

    cli._source_digest.cache_clear()
    path = write(tmp_path, datum_to_json(sweedler_datum()))
    assert main(["build-hopf", path, "--no-cache"]) == 0
    assert cli._source_digest.cache_info().misses == 0
    assert not (tmp_path / "cache").exists()
    capsys.readouterr()


# the three build commands, each on an input it builds
BUILDS = [
    ("build-hopf", lambda: datum_to_json(sweedler_datum()), ["--conductor", "4"]),
    ("build-lifting", z4_mu_obj, []),
    ("build-algebra", sweedler_modcat_obj, []),
]


@pytest.mark.parametrize("command, make, flags", BUILDS,
                         ids=[b[0] for b in BUILDS])
def test_a_cache_hit_writes_and_prints_what_its_miss_did(
        tmp_path, capsys, command, make, flags):
    path = write(tmp_path, make())
    out = tmp_path / "out.json"
    argv = [command, path, *flags, "--out", str(out)]
    assert main(argv) == 0
    miss = capsys.readouterr().out
    blob = out.read_bytes()
    out.unlink()
    assert main(argv) == 0
    hit = capsys.readouterr().out
    assert out.read_bytes() == blob
    assert "(cache hit)" not in miss
    assert hit == miss.replace("; wrote", " (cache hit); wrote")


def _off_schema(make):
    obj = make()
    obj["group"]["orders"] = [0]
    return obj


@pytest.mark.parametrize("command, make, flags, message", [
    ("build-hopf", lambda: _off_schema(sweedler_modcat_obj), [],
     "input does not match the schema at $.group.orders[0]: "
     "0 is less than the minimum of 1"),
    ("build-lifting", lambda: _off_schema(z4_mu_obj), [],
     "input does not match the schema at $.group.orders[0]: "
     "0 is less than the minimum of 1"),
    ("build-algebra", lambda: _off_schema(sweedler_modcat_obj), [],
     "input does not match the schema at $.group.orders[0]: "
     "0 is less than the minimum of 1"),
    ("build-lifting", lambda: datum_to_json(sweedler_datum()), [],
     "the input has no lifting section"),
    ("build-algebra", lambda: datum_to_json(sweedler_datum()), [],
     "the input has no modcat section"),
    ("build-hopf", lambda: datum_to_json(sweedler_datum()),
     ["--conductor", "3"], "conductor 3 is not a multiple of 2"),
    ("build-lifting", z4_mu_obj, ["--conductor", "6"],
     "conductor 6 is not a multiple of 4"),
])
def test_a_warm_cache_still_rejects_bad_input(tmp_path, capsys, command, make,
                                              flags, message):
    """Hits are answered before the input is parsed, so with a cache that
    holds builds of every command, over the same datum where there is
    one, a bad input still exits 1 with its message."""
    for name, good, good_flags in BUILDS + [
            ("build-hopf", lambda: datum_to_json(sweedler_datum()), []),
            ("build-hopf", sweedler_modcat_obj, []),
            ("build-lifting", z4_mu_obj, ["--conductor", "8"])]:
        warm = write(tmp_path, good(), "warm.json")
        assert main([name, warm, *good_flags]) == 0
    capsys.readouterr()
    path = write(tmp_path, make())
    for _ in range(2):
        assert main([command, path, *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_an_unwritable_out_path_is_an_input_error(tmp_path, capsys):
    """Writing the artifact fails on a miss and on a hit of build-hopf,
    and in classify and transport, each with exit 1 and no traceback."""
    out = tmp_path / "no-such-dir" / "a.json"
    message = f"error: cannot write {out}: "
    hopf_in = write(tmp_path, datum_to_json(sweedler_datum()))
    for hit in (False, True):
        assert main(["build-hopf", hopf_in, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(message)
        assert (main(["build-hopf", hopf_in, "--out",
                      str(tmp_path / "good.json")]) == 0)
        assert "(cache hit)" in capsys.readouterr().out
    assert main(["classify", hopf_in, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(message)
    lifting_in = write(tmp_path, z4_mu_obj(), "lifting.json")
    assert main(["transport", lifting_in, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(message)
    assert not out.parent.exists()


ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "pipebench"))
import run as pipebench_run  # noqa: E402
import tracer  # noqa: E402
import workloads as pipebench_workloads  # noqa: E402

UNLOADED = """
import importlib.util, json, sys
{code}
lazy = {{name: type(m) is importlib.util._LazyModule
        for name, m in sys.modules.items()
        if name == "qlsmodcat" or name.startswith("qlsmodcat.")}}
print(json.dumps([sorted(n for n in lazy if lazy[n]),
                  sorted(n for n in lazy if not lazy[n])]))
"""
HEAVY = ["qlsmodcat.classify", "qlsmodcat.cocycles", "qlsmodcat.comodule",
         "qlsmodcat.deformation"]
# what verify leaves unloaded: it builds no table, so rewrites no word
UNBUILT = sorted(HEAVY + ["qlsmodcat.rewrite"])
# the layers of the engine, each still a handle after a cache hit
HANDLES = ["qlsmodcat._kernel", "qlsmodcat.classify", "qlsmodcat.comodule",
           "qlsmodcat.cyclo", "qlsmodcat.deformation", "qlsmodcat.groups",
           "qlsmodcat.hopf", "qlsmodcat.linalg", "qlsmodcat.rewrite",
           "qlsmodcat.serialize"]


def _fresh_python(tmp_path, argv) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               QLSMODCAT_CACHE_DIR=str(tmp_path / "cache"))
    proc = subprocess.run([sys.executable, *argv], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_each_command_compiles_only_the_layers_it_runs(tmp_path):
    """The layer modules still unloaded when a command ends, each command
    in a fresh interpreter as the CLI runs it.  A cache hit loads no
    layer of the engine at all: only the package root, the CLI and the
    error types."""
    hopf_in = write(tmp_path, datum_to_json(sweedler_datum()))
    lifting_in = write(tmp_path, z4_mu_obj(), "lifting.json")
    algebra_in = write(tmp_path, sweedler_modcat_obj(), "algebra.json")
    hopf_out = str(tmp_path / "out.hopf.json")
    cases = [
        ("probe", pipebench_run.PROBE, UNBUILT),
        ("build-hopf", ["build-hopf", hopf_in, "--out", hopf_out], HEAVY),
        ("cache hit", ["build-hopf", hopf_in, "--out", hopf_out], HANDLES),
        ("verify", ["verify", hopf_out], UNBUILT),
        ("build-lifting", ["build-lifting", lifting_in],
         ["qlsmodcat.classify", "qlsmodcat.cocycles", "qlsmodcat.comodule"]),
        ("build-algebra", ["build-algebra", algebra_in],
         ["qlsmodcat.classify", "qlsmodcat.deformation"]),
        ("classify", ["classify", hopf_in], ["qlsmodcat.deformation"]),
    ]
    for name, command, want in cases:
        if isinstance(command, list):
            code = ("from qlsmodcat.cli import main\n"
                    f"assert main({command!r}) == 0")
        else:
            code = command
        proc = _fresh_python(tmp_path, ["-c", UNLOADED.format(code=code)])
        got, loaded = json.loads(proc.stdout.strip().splitlines()[-1])
        if name == "cache hit":
            assert "(cache hit)" in proc.stdout
            assert loaded == ["qlsmodcat", "qlsmodcat.cli", "qlsmodcat.errors"]
        assert got == want, name


def test_the_tracer_wraps_the_lazily_compiled_layers(tmp_path):
    """pipebench/tracer.py rebinds functions in the modules loaded when
    it starts: a layer compiled later must still be traced."""
    cases = [
        (["build-lifting", write(tmp_path, z4_mu_obj(), "lifting.json")],
         "deformation:build_lifting"),
        (["build-algebra", write(tmp_path, sweedler_modcat_obj(),
                                 "algebra.json")],
         "comodule:build_A"),
        (["classify", write(tmp_path, datum_to_json(sweedler_datum()))],
         "classify:enumerate_modcat_data"),
    ]
    for argv, span in cases:
        spans = tmp_path / "spans.jsonl"
        _fresh_python(tmp_path, [str(ROOT / "pipebench" / "tracer.py"),
                                 str(spans), "--", *argv])
        layers = tracer.aggregate(str(spans))
        assert layers.calls.get(span), (argv[0], span)
        assert layers.missing == ["linalg:preimage", "comodule:_poly_quo",
                                  "comodule:_field_domain"]


def test_importing_the_cli_puts_every_shared_layer_in_sys_modules(tmp_path):
    """pipebench/tracer.py rebinds functions across the qlsmodcat modules
    in sys.modules once it has imported the CLI, so a layer that a
    command loads only later would escape it.  After a build-hopf miss,
    the only new entries are a kernel lane and the cocycles handle."""
    path = write(tmp_path, datum_to_json(sweedler_datum()))
    code = ("import json, sys\n"
            "import qlsmodcat.cli\n"
            "before = set(sys.modules)\n"
            f"assert qlsmodcat.cli.main(['build-hopf', {path!r}]) == 0\n"
            "print(json.dumps(sorted(\n"
            "    n for n in set(sys.modules) - before\n"
            "    if n.startswith('qlsmodcat.')\n"
            "    and not n.startswith('qlsmodcat._kernel.'))))")
    proc = _fresh_python(tmp_path, ["-c", code])
    assert json.loads(proc.stdout.splitlines()[-1]) == ["qlsmodcat.cocycles"]


def test_a_hit_turns_into_a_miss_when_the_schema_or_a_source_changes(
        tmp_path):
    """The key covers the input schema, every .py source and the compiled
    kernel, its C source and a built extension module (the version is
    covered above): a hit is served before the input meets the schema,
    so an entry made under another schema must not be found, nor one
    made by another kernel.  The junk extension module fails to import,
    and the kernel falls back to the pure lane."""
    pkg = tmp_path / "src" / "qlsmodcat"
    shutil.copytree(ROOT / "src" / "qlsmodcat", pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = write(tmp_path, datum_to_json(sweedler_datum()))
    env = dict(os.environ, PYTHONPATH=str(tmp_path / "src"),
               QLSMODCAT_CACHE_DIR=str(tmp_path / "cache"))

    def hit() -> bool:
        proc = subprocess.run(
            [sys.executable, "-m", "qlsmodcat.cli", "build-hopf", path],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return "(cache hit)" in proc.stdout

    assert not hit()
    assert hit()
    for name, text in [("schema/datum.schema.json", "\n"),
                       ("hopf.py", "# edited\n"),
                       ("_kernel/_speedups.c", "/* edited */\n"),
                       ("_kernel/_speedups" + EXTENSION_SUFFIXES[0], "junk\n")]:
        with open(pkg / name, "a") as f:
            f.write(text)
        assert not hit(), name
        assert hit(), name


def test_build_algebra_and_verify(tmp_path, capsys):
    path = write(tmp_path, sweedler_modcat_obj())
    assert main(["build-algebra", path]) == 0
    capsys.readouterr()
    artifact = tmp_path / "datum.algebra.json"
    assert main(["verify", str(artifact)]) == 0
    assert "comodule-algebra: ok" in capsys.readouterr().out


def test_verify_names_a_broken_coacting_hopf_table(tmp_path, capsys):
    """One cell of the coacting bosonization deleted from a built
    algebra: verify reports U's failing laws under a hopf- prefix with
    U's labels, and then sweeps every pair for multiplicativity."""
    path = write(tmp_path, z4_theta2_obj(modcat=True))
    assert main(["build-algebra", path, "--no-cache"]) == 0
    artifact = tmp_path / "datum.algebra.json"
    obj = json.loads(artifact.read_text())
    del obj["hopf"]["mult"][-1]
    artifact.write_text(dumps_canonical(obj))
    capsys.readouterr()
    assert main(["verify", str(artifact), "--format", "json"]) == 2
    got = json.loads(capsys.readouterr().out)["failures"]

    A = comodule_load(obj)
    U = A.hopf
    assert A.verify_algebra().ok
    hopf_failures = U.verify_algebra().failures
    full = verify_coaction(CheckReport(), A, U, U.comult, A.coaction).failures
    assert hopf_failures and {name for name, _ in hopf_failures} == {
        "associativity"}
    assert [name for name, _ in full] == ["coaction-multiplicative"] * len(full)
    want = ([("hopf-" + name, w) for name, w in hopf_failures] + full)
    assert [f["check"] for f in got] == [name for name, _ in want]
    assert A.verify().failures == want


def test_verify_names_a_broken_lifting_table(tmp_path, capsys):
    """One mult cell of the lifting H deleted from a dumped Z4
    root-lifting connecting object: verify names H's failing laws under
    a right-hopf- prefix, apart from B's and U's laws, which still hold,
    and then sweeps every pair for the right coaction."""
    artifact = _bigalois_artifact(tmp_path)
    obj = json.loads(artifact.read_text())
    del obj["right_hopf"]["mult"][-1]
    artifact.write_text(dumps_canonical(obj))
    assert main(["verify", str(artifact), "--format", "json"]) == 2
    got = [f["check"] for f in json.loads(capsys.readouterr().out)["failures"]]

    B = bigalois_load(obj)
    assert B.algebra.verify_algebra().ok and B.left_hopf.verify_algebra().ok
    hopf_failures = B.right_hopf.verify_algebra().failures
    assert hopf_failures and {name for name, _ in hopf_failures} == {
        "associativity"}
    want = ["right-hopf-" + name for name, _ in hopf_failures]
    assert got[:len(want)] == want
    assert got[len(want):] and all(
        name.startswith("right-coaction-") for name in got[len(want):])
    assert got == [name for name, _ in B.verify().failures]


def test_build_algebra_rejects_conductor_flag(tmp_path, capsys):
    path = write(tmp_path, sweedler_modcat_obj())
    with pytest.raises(SystemExit) as e:
        main(["build-algebra", path, "--conductor", "8"])
    assert e.value.code == 2
    assert "--conductor" in capsys.readouterr().err


# the flags each subcommand reads; every other flag is a usage error,
# among them --seed, which no subcommand takes since classify's splits
# became deterministic, and --strict-cocycle, which could not change
# classify's output: its dedupe key already fixes each cocycle table
OWN_FLAGS = {
    "validate": {"--format"},
    "build-hopf": {"--out", "--conductor", "--no-cache"},
    "build-lifting": {"--out", "--conductor", "--no-cache"},
    "build-algebra": {"--out", "--no-cache"},
    "classify": {"--out", "--format", "--sample", "--max-group-order"},
    "transport": {"--out", "--format"},
    "verify": {"--format"},
}
ALL_FLAGS = {"--out": "x.json", "--format": "json", "--sample": "0,1",
             "--max-group-order": "8", "--conductor": "8", "--seed": "1",
             "--no-cache": None, "--strict-cocycle": None}


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command, own in OWN_FLAGS.items()
    for flag in ALL_FLAGS if flag not in own])
def test_each_subcommand_rejects_flags_it_does_not_own(capsys, command, flag):
    value = ALL_FLAGS[flag]
    with pytest.raises(SystemExit) as e:
        main([command, "in.json", flag] + ([value] if value is not None else []))
    assert e.value.code == 2
    assert flag in capsys.readouterr().err


def test_each_subcommand_parses_the_flags_it_owns():
    parser = _parser()
    for command, own in OWN_FLAGS.items():
        for flag in own:
            value = ALL_FLAGS[flag]
            args = parser.parse_args(
                [command, "in.json", flag] + ([value] if value is not None else []))
            assert args.command == command


def test_build_algebra_needs_a_modcat_section(tmp_path, capsys):
    path = write(tmp_path, datum_to_json(sweedler_datum()))
    assert main(["build-algebra", path]) == 1
    assert "modcat" in capsys.readouterr().err


def test_build_lifting_with_conductor_override(tmp_path, capsys):
    path = write(tmp_path, z4_mu_obj())
    assert main(["build-lifting", path, "--conductor", "8"]) == 0
    out = capsys.readouterr().out
    assert "dim 8" in out and "conductor 8" in out
    artifact = tmp_path / "datum.lifting.json"
    assert main(["verify", str(artifact)]) == 0

    capsys.readouterr()
    assert main(["build-lifting", path, "--conductor", "3"]) == 1
    assert "multiple" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["build-hopf", "build-lifting"])
@pytest.mark.parametrize("conductor", ["-4", "0"])
def test_a_non_positive_conductor_is_a_usage_error(tmp_path, capsys,
                                                   command, conductor):
    """-4 used to exit through a traceback, and 0 was ignored."""
    path = write(tmp_path, z4_mu_obj())
    with pytest.raises(SystemExit) as e:
        main([command, path, "--conductor", conductor, "--no-cache"])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "--conductor" in err and "positive integer" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["datum.json"]


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_a_non_positive_max_group_order_is_a_usage_error(tmp_path, capsys,
                                                         bound):
    """-3 used to exit 1 with "group of order 3 exceeds the subgroup
    enumeration bound -3", after the input was read."""
    path = write(tmp_path, datum_to_json(sweedler_datum()))
    with pytest.raises(SystemExit) as e:
        main(["classify", path, "--max-group-order", bound])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "--max-group-order" in err and "positive integer" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["datum.json"]


def test_a_max_group_order_past_the_input_ceiling_is_a_usage_error(
        tmp_path, capsys):
    """No input group is larger than MAX_GROUP_ORDER, so a bound above it
    would be accepted and never reached."""
    path = write(tmp_path, datum_to_json(sweedler_datum()))
    assert main(["classify", path, "--max-group-order", str(MAX_GROUP_ORDER),
                 "--out", str(tmp_path / "out.json")]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as e:
        main(["classify", path, "--max-group-order", str(MAX_GROUP_ORDER + 1)])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "--max-group-order" in err
    assert f"at most the group order ceiling {MAX_GROUP_ORDER}" in err


# groups past the ceilings, each of which used to end in a traceback
# (OverflowError, MemoryError), run out of time or, for thirty orders of 2,
# pass validate and exhaust memory in build-hopf
HUGE_GROUPS = {
    "order-1e20": ([10**20], "group exponent 100000000000000000000 "
                   "exceeds the ceiling 1024"),
    "order-2^32": ([2**32], "group exponent 4294967296 exceeds the ceiling 1024"),
    "order-1e7": ([10**7], "group exponent 10000000 exceeds the ceiling 1024"),
    "thirty-Z2": ([2] * 30, "group order 1073741824 exceeds the ceiling 4096"),
}


def _limited(argv, timeout) -> subprocess.CompletedProcess:
    """A fresh CLI process with at most 1 GiB of address space, so a
    missing bound fails the test instead of exhausting the machine."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "qlsmodcat.cli", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=timeout, preexec_fn=limit)


@pytest.mark.parametrize("command", ["validate", "build-hopf", "transport",
                                     "classify"])
@pytest.mark.parametrize("case", sorted(HUGE_GROUPS))
def test_a_group_past_the_ceilings_is_a_size_bound(tmp_path, case, command):
    orders, message = HUGE_GROUPS[case]
    first = [[int(i == 0) for i in range(len(orders))]]
    path = write(tmp_path, {"group": {"orders": orders}, "g": first,
                            "chi": [[2 * e for e in first[0]]]})
    proc = _limited([command, path], 60)
    assert (proc.returncode, proc.stderr) == (1, f"error: {message}\n")
    assert list(tmp_path.glob("datum.*.json")) == []


@pytest.mark.parametrize("command", ["build-hopf", "build-lifting"])
@pytest.mark.parametrize("conductor", [MAX_CONDUCTOR + 4, 1000000])
def test_a_conductor_past_the_ceiling_is_a_size_bound(tmp_path, command,
                                                      conductor):
    """Both conductors are multiples of the datum's 4, so only the ceiling
    rejects them; 1000000 used to run on, rebasing at that conductor."""
    path = write(tmp_path, z4_mu_obj())
    proc = _limited([command, path, "--conductor", str(conductor),
                     "--no-cache"], 60)
    assert (proc.returncode, proc.stderr) == (
        1, f"error: conductor {conductor} exceeds the ceiling "
           f"{MAX_CONDUCTOR}\n")
    assert list(tmp_path.glob("datum.*.json")) == []


def test_the_conductor_ceiling_admits_itself(tmp_path):
    """The Sweedler tables rebase at the ceiling itself, under the same
    address-space limit; every other --conductor in the tests is 8 or
    less."""
    path = write(tmp_path, datum_to_json(sweedler_datum()))
    proc = _limited(["build-hopf", path, "--conductor", str(MAX_CONDUCTOR),
                     "--no-cache"], 120)
    assert proc.returncode == 0, proc.stderr
    assert f"conductor {MAX_CONDUCTOR};" in proc.stdout


# Z64 with g = chi = 1: the bosonization, the lifting and the comodule
# algebra of the full group with one letter all have dim 64 * 64 = 4,096
Z64_OBJ = {"group": {"orders": [64]}, "g": [[1]], "chi": [[1]],
           "lifting": {"mu": [0], "lambda": []},
           "modcat": {"F": {"gens": [[1]]},
                      "w": [{"component": [1],
                             "rows": [[{"L": 1, "c": ["1"]}]]}]}}


@pytest.mark.parametrize("argv", [["build-hopf", "--no-cache"],
                                  ["build-lifting"], ["build-algebra"],
                                  ["transport"], ["classify"]],
                         ids=lambda argv: argv[0])
def test_a_table_past_the_dimension_ceiling_is_a_size_bound(tmp_path, argv):
    """Each of these ran out of 1 GiB of address space, with a traceback
    or a crash, before the ceiling."""
    path = write(tmp_path, Z64_OBJ)
    proc = _limited([*argv, path], 60)
    assert (proc.returncode, proc.stderr) == (
        1, f"error: table dimension 4096 exceeds the ceiling "
           f"{MAX_TABLE_DIM}\n")
    assert list(tmp_path.glob("datum.*.json")) == []
    assert list(tmp_path.glob("cache/*.json")) == []


def test_validate_accepts_a_datum_past_the_dimension_ceiling(tmp_path):
    """The ceiling bounds what is built, not what is valid."""
    path = write(tmp_path, Z64_OBJ)
    proc = _limited(["validate", path], 60)
    assert (proc.returncode, proc.stdout) == (
        0, "valid, N=[64]; lifting ok; modcat ok (dim 4096)\n")


@pytest.mark.parametrize("orders,g,chi", [
    ([6, 6], [[1, 0], [0, 1]], [[2, 0], [0, 1]]),
    ([16], [[1]], [[1]]),
    ([2] * 5, [[1, 0, 0, 0, 0]], [[1, 0, 0, 0, 0]]),
    ([1024], [[1]], [[1]]),
    ([64, 64], [[1, 0]], [[1, 0]]),
], ids=["Z6xZ6", "Z16", "Z2^5", "exponent-at-ceiling", "order-at-ceiling"])
def test_the_group_ceilings_accept_the_largest_inputs(tmp_path, orders, g,
                                                      chi):
    path = write(tmp_path, {"group": {"orders": orders}, "g": g, "chi": chi})
    proc = _limited(["validate", path], 120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("valid")


@pytest.mark.parametrize("sample,message", [
    (",", "is empty"), ("", "is empty"),
    ("0,1,1", "repeats the value 1"), ("0,1,0", "repeats the value 0"),
    ("0,1,2/2", "repeats the value 1")])
def test_classify_rejects_an_empty_or_repeated_sample(tmp_path, capsys,
                                                      sample, message):
    """An empty sample dropped every cell with a free scalar, and a
    repeated value enumerated the same datum once per repeat."""
    path = write(tmp_path, datum_to_json(sweedler_datum()))
    assert main(["classify", path, "--sample", sample]) == 1
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert not (tmp_path / "datum.classify.json").exists()


def test_classify_sweedler(tmp_path, capsys):
    path = write(tmp_path, datum_to_json(sweedler_datum()))
    assert main(["classify", path]) == 0
    out = capsys.readouterr().out
    assert "total: 4 rows, 6 data" in out
    assert "representatives: 6" in out
    artifact = json.loads((tmp_path / "datum.classify.json").read_text())
    assert artifact["report"]["totals"]["data"] == 6
    assert artifact["representatives"] == 6


def test_classify_runs_are_byte_identical(tmp_path, capsys):
    path = write(tmp_path, datum_to_json(sweedler_datum()))
    artifact = tmp_path / "datum.classify.json"
    assert main(["classify", path]) == 0
    blob = artifact.read_bytes()
    assert main(["classify", path]) == 0
    assert artifact.read_bytes() == blob
    capsys.readouterr()


def test_classify_enumerates_the_data_once(tmp_path, capsys, monkeypatch):
    import qlsmodcat.classify
    import qlsmodcat.cli

    calls = []
    enumerate_modcat_data = qlsmodcat.classify.enumerate_modcat_data

    def counting(*args, **kwargs):
        calls.append(args)
        return enumerate_modcat_data(*args, **kwargs)

    # patch every module that holds the function by name
    for mod in (qlsmodcat.classify, qlsmodcat.cli):
        if hasattr(mod, "enumerate_modcat_data"):
            monkeypatch.setattr(mod, "enumerate_modcat_data", counting)
    path = write(tmp_path, datum_to_json(sweedler_datum()))
    assert main(["classify", path]) == 0
    assert "representatives: 6" in capsys.readouterr().out
    assert len(calls) == 1


def test_transport_defaults_to_the_regular_algebra(tmp_path, capsys):
    path = write(tmp_path, z4_mu_obj())
    out_path = tmp_path / "moved.json"
    assert main(["transport", path, "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "dim 8" in out
    assert "changed" in out
    artifact = json.loads(out_path.read_text())
    assert artifact["algebra"]["dim"] == 8
    failed = [f["check"] for f in artifact["report"]["failures"]]
    assert "block-data-preserved" in failed
    assert "dimension-preserved" not in failed
    assert main(["verify", str(out_path)]) == 0
    assert "comodule-algebra: ok" in capsys.readouterr().out


def _set_after(report, check, value):
    for f in report["failures"]:
        if f["check"] == check:
            f["witness"][1] = value


# each forgery of the dim-8 root lifting's transport report, and the check
# verify names for it
FORGERIES = [
    (lambda r: r.update(failures=[{"check": "simplicity",
                                   "witness": "made up"}]),
     "report-unknown-check: simplicity"),
    (lambda r: _set_after(r, "block-data-preserved", [2, 6]),
     "report-block-data-preserved"),
    (lambda r: r.update(ok=True), "report-ok"),
    (lambda r: r["failures"].append(r["failures"][0]),
     "report-unknown-check: radical-dimension-preserved"),
]


def test_verify_checks_what_a_transport_report_claims(tmp_path, capsys):
    """verify recomputes T's invariants: a failure must name one of them
    and give T's value after, and ok must hold exactly when none fails."""
    out_path = tmp_path / "moved.json"
    assert main(["transport", write(tmp_path, z4_mu_obj()),
                 "--out", str(out_path)]) == 0
    capsys.readouterr()
    for forge, named in FORGERIES:
        artifact = json.loads(out_path.read_text())
        forge(artifact["report"])
        assert main(["verify", write(tmp_path, artifact, "forged.json")]) == 2
        assert f"FAIL comodule-algebra {named}" in capsys.readouterr().out
    # a report over a table that is no comodule algebra claims nothing
    artifact["algebra"] = artifact["algebra"]["hopf"]
    assert main(["verify", write(tmp_path, artifact, "forged.json")]) == 1
    assert "holds a comodule algebra" in capsys.readouterr().err


@pytest.mark.parametrize("slot", pipebench_workloads.transport_slots(),
                         ids=lambda slot: slot.name)
def test_the_bench_transport_artifacts_verify(tmp_path, capsys, slot):
    out_path = tmp_path / "moved.json"
    assert main(["transport", write(tmp_path, slot.variants[0]),
                 "--out", str(out_path)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out_path)]) == 0
    assert capsys.readouterr().out == "comodule-algebra: ok\n"


ZETA8 = {"L": 8, "c": ["0", "1", "0", "0"]}


@pytest.mark.parametrize("mu,xi", [(1, ZETA8), (ZETA8, 1)])
def test_transport_of_an_algebra_at_another_conductor_is_an_input_error(
        tmp_path, capsys, mu, xi):
    """A modcat algebra at conductor 8 over a connecting object at 4, and
    the other way round: neither side of B coacts on it."""
    obj = z4_mu_obj()
    obj["lifting"]["mu"] = [mu]
    obj["modcat"] = {"F": {"gens": [[1]]},
                     "w": [{"component": [1], "rows": [[1]]}], "xi": [xi]}
    path = write(tmp_path, obj)
    assert main(["transport", path]) == 1
    err = capsys.readouterr().err
    assert "conductor" in err and "either side of B" in err


def test_transport_needs_a_lifting_section(tmp_path, capsys):
    path = write(tmp_path, datum_to_json(sweedler_datum()))
    assert main(["transport", path]) == 1
    assert "lifting" in capsys.readouterr().err
