"""Transport artifacts byte for byte against the pipeline benchmark.

Runs ``transport`` in process on the first input variant of each
transport slot of ``pipebench/workloads.py`` and compares the artifact's
sha256 with the digest recorded in ``pipebench/reference.json``, which
is only read here.  The root slot moves the regular algebra of the
lifting, so the cotensor matches it directly; the link slot moves a
comodule algebra over the graded side, so it goes through the inverse
connecting object.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from qlsmodcat import deformation
from qlsmodcat.cli import main
from qlsmodcat.serialize import dumps_canonical

PIPEBENCH = Path(__file__).resolve().parent.parent / "pipebench"
sys.path.insert(0, str(PIPEBENCH))
import workloads  # noqa: E402

REFERENCE = json.loads((PIPEBENCH / "reference.json").read_text())
SLOTS = {slot.name: slot for slot in workloads.transport_slots()}
# how many times each slot builds the inverse connecting object
INVERSES = {"root-z4-regular": 0, "link-z222-sub": 1, "mixed-z6t2-regular": 0}


def test_every_transport_slot_is_covered():
    assert sorted(SLOTS) == sorted(INVERSES)


@pytest.mark.parametrize("name", sorted(INVERSES))
def test_transport_artifact_matches_the_reference(name, tmp_path, capsys,
                                                  monkeypatch):
    slot = SLOTS[name]
    obj = slot.variants[0]
    src = tmp_path / "input.json"
    src.write_text(dumps_canonical(obj) + "\n")
    out = tmp_path / "transport.json"

    calls = []
    inverse = deformation.BiGaloisRep.inverse

    def counted(self):
        calls.append(1)
        return inverse(self)

    monkeypatch.setattr(deformation.BiGaloisRep, "inverse", counted)
    assert main(["transport", str(src), *slot.options, "--out", str(out)]) == 0
    capsys.readouterr()
    assert len(calls) == INVERSES[name]
    want = REFERENCE[workloads.input_key(slot.command, slot.options, obj)]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want["sha256"]
