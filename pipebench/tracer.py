"""Run one qlsmodcat CLI command with its layers wrapped, recording spans.

    python3 pipebench/tracer.py SPANS.jsonl -- build-hopf in.json --out a.json

The wrappers live here, not in the package: every public function named in
``STAGES``, ``HELPERS`` and ``COUNTERS`` is replaced in the module that
defines it and in every ``qlsmodcat`` module that imported it by name
(``from ._kernel import mul as pmul`` and the like), so no call escapes.
Methods are replaced on their class.

A span is ``[id, parent, name, start_ns, end_ns]``; spans stay in memory
and are written as JSON lines when the command ends, after one header
line with the call counters.  ``aggregate`` turns one such file into the
per-layer numbers:

* a stage's time is the time inside its spans minus the time inside
  nested stage spans, so stage times add up to the traced command;
* a helper's time (linalg, rewrite, sympy) is the time inside its
  outermost spans, wherever they sit, so it breaks stage time down.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter_ns
from typing import NamedTuple

# stage name -> wrapped callables ("module:function" or "module:Class.method")
STAGES = {
    "hopf.build": ["hopf:build_bosonization", "hopf:group_hopf"],
    "hopf.verify": ["hopf:FiniteAlgebra.verify_algebra", "hopf:FiniteHopf.verify"],
    "comodule.build": ["comodule:build_A", "comodule:build_K",
                       "comodule:regular_coaction", "comodule:trivial_coaction"],
    "comodule.verify": ["comodule:ComoduleAlgebra.verify"],
    "comodule.simplicity": ["comodule:check_simplicity"],
    "comodule.simple_modules": ["comodule:simple_modules"],
    "deformation.lifting": ["deformation:build_lifting"],
    "deformation.bigalois": ["deformation:build_bigalois",
                             "deformation:sigma_bigalois"],
    "deformation.bigalois_verify": ["deformation:BiGaloisRep.verify"],
    "deformation.cotensor": ["deformation:cotensor"],
    "deformation.transport": ["deformation:transport"],
    "classify.enumerate": ["classify:enumerate_modcat_data"],
    "classify.dedupe": ["classify:dedupe"],
    "serialize.load": ["serialize:load_datum", "serialize:algebra_load",
                       "serialize:hopf_load", "serialize:comodule_load",
                       "serialize:bigalois_load"],
    "serialize.dump": ["serialize:dumps_canonical", "serialize:algebra_dump",
                       "serialize:hopf_dump", "serialize:comodule_dump",
                       "serialize:bigalois_dump"],
    "cli.cache": ["cli:_cache_key", "cli:_cache_get", "cli:_cache_put"],
    "cli": ["cli:main"],
}
HELPERS = {
    "linalg": ["linalg:Subspace.insert", "linalg:Subspace.contains",
               "linalg:span", "linalg:rank", "linalg:left_kernel",
               "linalg:solve", "linalg:preimage"],
    "rewrite": ["rewrite:NormalFormEngine.normalize"],
    "sympy": ["comodule:_poly_factors", "comodule:_cofactor_idempotent",
              "comodule:_poly_quo", "comodule:_field_domain"],
}
# counter name -> callable counted without a span (too hot or too small)
COUNTERS = {
    "kernel.mul": "_kernel:mul",
    "kernel.submul": "_kernel:submul",
    "kernel.add": "_kernel:add",
    "cyclo.inv": "cyclo:CycloNumber.inv",
    "linalg.reduce": "linalg:Subspace.reduce",
    "hopf.multiply": "hopf:FiniteAlgebra.multiply",
}


class Recorder:
    """Spans and counters of one command."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.stack = [0]
        self.next_id = 1
        self.cells: dict[str, list] = {}
        self.missing: list[str] = []

    def cell(self, key: str) -> list:
        return self.cells.setdefault(key, [0])

    def span(self, target: str, fn, after=None):
        idx = len(self.names)
        self.names.append(target)
        stack, spans = self.stack, self.spans

        def wrapper(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans.append((sid, parent, idx, t0, t1))
            if after is not None:
                after(args, out)
            return out
        return wrapper

    def counter(self, key: str, fn, before=None):
        cell = self.cell(key)

        def wrapper(*args, **kwargs):
            cell[0] += 1
            if before is not None:
                before(args)
            return fn(*args, **kwargs)
        return wrapper

    def add(self, key: str, n) -> None:
        self.cell(key)[0] += n

    def dump(self, path: str, command: list) -> None:
        with open(path, "w") as f:
            f.write(json.dumps({"command": command, "names": self.names,
                                "counts": {k: c[0] for k, c in self.cells.items()},
                                "missing": self.missing}) + "\n")
            for s in self.spans:
                f.write("[%d,%d,%d,%d,%d]\n" % s)


def _after_hooks(rec: Recorder) -> dict:
    """Extra counts read off a wrapped call's arguments or result."""
    def useful(args, out):
        rec.add("linalg.insert_useful", bool(out))

    def verdict(args, out):
        rec.add("comodule.undecided", out.verdict == "undecided")

    def enumerated(args, out):
        rec.add("classify.data_enumerated", len(out))

    def cache_get(args, out):
        rec.add("cli.cache_lookups", 1)
        rec.add("cli.cache_hits", out is not None)

    return {"linalg:Subspace.insert": useful,
            "comodule:check_simplicity": verdict,
            "classify:enumerate_modcat_data": enumerated,
            "cli:_cache_get": cache_get}


def _memo_probe(rec: Recorder):
    def before(args):
        engine, word = args[0], args[1]
        rec.add("rewrite.memo_hits", tuple(word) in getattr(engine, "_memo", ()))
    return before


def install(rec: Recorder) -> None:
    """Wrap every target in the package and rebind all of its aliases."""
    import qlsmodcat.cli  # noqa: F401  (imports every layer)

    # the lanes themselves stay unwrapped, so counts do not depend on the lane
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "qlsmodcat" or n.startswith("qlsmodcat."))
               and not n.startswith("qlsmodcat._kernel.")]

    def replace(target: str, make) -> None:
        modname, qual = target.split(":")
        try:
            mod = importlib.import_module("qlsmodcat." + modname)
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, make(cls.__dict__[meth]))
                return
            orig = getattr(mod, qual)
        except (ImportError, AttributeError, KeyError):
            rec.missing.append(target)
            return
        new = make(orig)
        for m in modules:
            for k, v in list(vars(m).items()):
                if v is orig:
                    setattr(m, k, new)

    after = _after_hooks(rec)
    for key, target in COUNTERS.items():
        replace(target, lambda fn, key=key: rec.counter(key, fn))
    replace("rewrite:NormalFormEngine.normalize",
            lambda fn: rec.counter("rewrite.normalize", fn, _memo_probe(rec)))
    for targets in list(STAGES.values()) + list(HELPERS.values()):
        for t in targets:
            replace(t, lambda fn, t=t: rec.span(t, fn, after.get(t)))


class Layers(NamedTuple):
    """What one traced command recorded."""

    times: dict     # stage or helper group -> seconds
    calls: dict     # wrapped callable -> number of spans
    counts: dict    # counter -> value
    missing: list   # targets that were not found


def aggregate(path: str) -> Layers:
    """Per-group times, per-callable span counts and counters of one file."""
    group_of, tier_of = {}, {}
    for tier, table in (("stage", STAGES), ("helper", HELPERS)):
        for group, targets in table.items():
            for t in targets:
                group_of[t] = group
                tier_of[t] = tier
    times: dict = {}
    calls: dict = {}
    with open(path) as f:
        head = json.loads(f.readline())
        names = head["names"]
        spans = sorted(json.loads(line) for line in f)
    near_stage = {0: 0}
    helpers_on_path = {0: frozenset()}
    info = {}
    for sid, parent, idx, t0, t1 in spans:
        name = names[idx]
        group, tier = group_of[name], tier_of[name]
        calls[name] = calls.get(name, 0) + 1
        dur = (t1 - t0) / 1e9
        info[sid] = group
        above = helpers_on_path[parent]
        if tier == "stage":
            near_stage[sid] = sid
            helpers_on_path[sid] = above
            times[group] = times.get(group, 0.0) + dur
            outer = near_stage[parent]
            if outer:
                times[info[outer]] -= dur
        else:
            near_stage[sid] = near_stage[parent]
            helpers_on_path[sid] = above | {group}
            if group not in above:
                times[group] = times.get(group, 0.0) + dur
    return Layers(times, calls, head["counts"], head["missing"])


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS.jsonl -- COMMAND ARGS...", file=sys.stderr)
        return 2
    path, args = argv[0], argv[2:]
    rec = Recorder()
    install(rec)
    from qlsmodcat import cli
    for target in rec.missing:
        print(f"tracer: {target} not found, not wrapped", file=sys.stderr)
    try:
        return cli.main(args)
    finally:
        rec.dump(path, args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
