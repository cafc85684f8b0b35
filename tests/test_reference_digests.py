"""Command outputs byte for byte against the pipeline benchmark.

Runs the commands of ``pipebench/workloads.py`` in process on the first
input variant of every slot of its three workloads and compares each
output with what ``pipebench/reference.json``, which is only read here,
records: the sha256 of every build, transport and classify artifact and
the stdout of every ``verify``.  A build runs twice, as in the bench, and
the cache hit must write the same bytes.  The root transport slot moves
the regular algebra of the lifting, so the cotensor matches it directly;
the link slot moves a comodule algebra over the graded side, so it goes
through the inverse connecting object.  A fresh interpreter runs a
command of each kind on valid inputs to check that none imports sympy or
jsonschema.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
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


OTHER_SLOTS = workloads.tables_slots() + workloads.classify_slots()


@pytest.mark.parametrize("slot", OTHER_SLOTS, ids=lambda slot: slot.name)
def test_build_verify_and_classify_outputs_match_the_reference(
        slot, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QLSMODCAT_CACHE_DIR", str(tmp_path / "cache"))
    obj = slot.variants[0]
    src = tmp_path / "input.json"
    src.write_text(json.dumps(obj))
    steps = workloads.steps([(slot, obj)], lambda name: str(src),
                            lambda name, suffix: str(tmp_path / f"{suffix}.json"))
    assert [s.kind for s in steps] == (
        ["build", "hit", "verify"] if slot.command.startswith("build-")
        else ["classify"])
    for step in steps:
        assert main(step.argv) == 0, step.name
        stdout = capsys.readouterr().out
        if step.kind == "verify":
            assert stdout == REFERENCE[step.key]["stdout"]
            continue
        data = Path(step.artifact).read_bytes()
        if step.kind == "hit":
            assert "(cache hit)" in stdout
            assert data == Path(step.expect["same_as"]).read_bytes()
        else:
            assert hashlib.sha256(data).hexdigest() == \
                REFERENCE[step.key]["sha256"], step.name


CLI_RUN = """
import hashlib, json, sys
from qlsmodcat.cli import main
digests = []
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0
    if "--out" in argv:
        with open(argv[argv.index("--out") + 1], "rb") as fh:
            digests.append(hashlib.sha256(fh.read()).hexdigest())
print(json.dumps({"imported": sorted({"jsonschema", "sympy"} & set(sys.modules)),
                  "digests": digests}))
"""


def test_accepted_commands_never_import_sympy_or_jsonschema(tmp_path):
    """validate, build-hopf (a miss, then a cache hit), verify, transport
    and classify on valid inputs, in one fresh interpreter: jsonschema
    only words rejections and sympy is a test oracle."""
    hopf = next(s for s in workloads.tables_slots() if s.name == "hopf-z4")
    slots = [hopf, SLOTS["root-z4-regular"],
             next(s for s in workloads.classify_slots() if s.name == "z3")]
    argvs, want = [], []
    for slot in slots:
        obj = slot.variants[0]
        src = tmp_path / f"{slot.name}.json"
        src.write_text(dumps_canonical(obj) + "\n")
        out = str(tmp_path / f"{slot.name}.out.json")
        argv = [slot.command, str(src), *slot.options, "--out", out]
        digest = REFERENCE[workloads.input_key(slot.command, slot.options,
                                               obj)]["sha256"]
        if slot is hopf:
            argvs += [["validate", str(src)], argv, argv, ["verify", out]]
            want += [digest, digest]
        else:
            argvs.append(argv)
            want.append(digest)
    src_dir = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src_dir),
               QLSMODCAT_CACHE_DIR=str(tmp_path / "cache"))
    proc = subprocess.run([sys.executable, "-c", CLI_RUN, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "(cache hit)" in proc.stdout
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got == {"imported": [], "digests": want}
