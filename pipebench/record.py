"""Record the reference digests of every input variant of every workload.

    python3 pipebench/record.py

Runs each command once on each variant, applies the known-answer checks,
and rewrites ``reference.json`` with the artifact sha256 and summary (or
the ``verify`` output) under each command's input key.  Record only on a
commit whose outputs are trusted: the benchmark compares every later run
with these digests.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    reference, bad = {}, 0
    run.TMP.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="record-", dir=run.TMP))
    try:
        for name, slots in workloads.WORKLOADS.items():
            for slot in slots():
                for v, obj in enumerate(slot.variants):
                    sub = tmp / f"{name}-{slot.name}-{v}"
                    sub.mkdir()
                    bench = run.Bench([(slot, obj)], sub, {})
                    bench.t_start += 1e9  # no run deadline while recording
                    for rec in bench.run_pass(0, traced=False):
                        problems = [p for p in rec.problems
                                    if not p.startswith("no reference digest")]
                        if problems:
                            bad += 1
                            print(f"FAIL {rec.step.name}#{v}: {problems}",
                                  file=sys.stderr)
                        elif rec.step.kind != "hit":
                            reference[rec.step.key] = run.digest(rec.step, rec.proc)
                        print(f"{rec.step.name}#{v}: {rec.proc.wall:.2f}s",
                              flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if bad:
        print(f"{bad} commands failed; reference.json left unchanged",
              file=sys.stderr)
        return 1
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reference)} digests to {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
