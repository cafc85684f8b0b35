"""Command-line front end for building, classifying and checking tables.

Exit codes: 0 on success, 1 when the input fails validation, 2 when an
axiom sweep fails on input that parsed cleanly or when the command line
is malformed (each subcommand takes only its own flags).  Artifacts are
written as canonical JSON next to the input file unless --out says
otherwise; build results are cached under a content hash of the input,
the package version, the package's sources, its compiled kernel and its
input schema, and cache hits are accepted only when their stored
checksum still matches.
A hit is answered before the input is parsed, so it loads no layer of
the engine; every miss parses and validates the input in full.
The cache directory (``qlsmodcat._cache_dir``) also holds the package's
compiled code under code/, which the package root reads and writes in a
process that may write no bytecode, for each module that has no valid
bytecode in __pycache__; --no-cache skips the build results only.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import (__version__, _cache_dir, _lazy, _read_private, _store,
               dumps_canonical)
from .errors import (
    CocycleInvalid,
    ConfluenceFailure,
    DimensionMismatch,
    HypothesisViolated,
    IsoCheckFailed,
    NotClosed,
    NotExteriorDatum,
    SizeBound,
    ValidationError,
)

# Each layer is loaded (from code/ or compiled) on its first use, so a
# command loads only the layers it runs and a cache hit loads none.  The
# layers under serialize and hopf get handles too, so that importing this
# module puts every shared layer in sys.modules: pipebench/tracer.py
# rebinds functions only across the modules present once it has imported
# this one.
for _core in ("_kernel", "cyclo", "groups", "linalg", "rewrite"):
    _lazy(_core)
serialize = _lazy("serialize")
hopf = _lazy("hopf")
classify = _lazy("classify")
comodule = _lazy("comodule")
deformation = _lazy("deformation")

INPUT_ERRORS = (ValidationError, SizeBound, NotExteriorDatum, DimensionMismatch,
                HypothesisViolated, CocycleInvalid)
INTERNAL_ERRORS = (ConfluenceFailure, IsoCheckFailed, NotClosed)


def _read_json(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ValidationError(f"cannot read {path}: {e}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}:{e.lineno}:{e.colno}: {e.msg}")


def _out_path(args, suffix: str) -> Path:
    if args.out:
        return Path(args.out)
    src = Path(args.input)
    stem = src.name[:-5] if src.name.endswith(".json") else src.name
    return src.with_name(f"{stem}.{suffix}.json")


def _write_artifact(path: Path, text: str) -> None:
    try:
        path.write_text(text + "\n")
    except OSError as e:
        raise ValidationError(f"cannot write {path}: {e}")


def _report(args, suffix: str, payload, text) -> None:
    """Write the payload as the artifact, print it on stdout as JSON or,
    in text format, print ``text()``, and name the artifact on stderr."""
    out = _out_path(args, suffix)
    dumped = dumps_canonical(payload)
    _write_artifact(out, dumped)
    print(dumped if args.format == "json" else text())
    print(f"wrote {out}", file=sys.stderr)


def _parse_sample(text: str):
    """The distinct scalars of a comma-separated sample, in order.  An
    empty sample would drop every cell with a free scalar, and a repeated
    one would enumerate the same datum twice, so both are input errors."""
    from fractions import Fraction  # classify only

    try:
        sample = [Fraction(tok) for tok in text.split(",") if tok.strip()]
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"cannot parse the scalar sample {text!r}")
    if not sample:
        raise ValidationError(f"the scalar sample {text!r} is empty")
    seen = set()
    for value in sample:
        if value in seen:
            raise ValidationError(
                f"the scalar sample {text!r} repeats the value {value}")
        seen.add(value)
    return sample


# ------------------------------------------------------------------ cache

def _checksum(text: str) -> str:
    import hashlib  # on the cache path only

    return hashlib.sha256(text.encode()).hexdigest()


@functools.cache
def _source_digest() -> str:
    """sha256 of the package's .py sources, its data files (the input
    schema, which decides what a build accepts) and its compiled kernel,
    source and built extension module both, read once per process.  A
    hit is served before the input is validated, so all must be in the
    key."""
    import hashlib
    from importlib.machinery import EXTENSION_SUFFIXES

    root = Path(__file__).resolve().parent
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*")
                       if p.suffix in (".py", ".json", ".c")
                       or p.name.endswith(tuple(EXTENSION_SUFFIXES))):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _cache_key(command: str, obj, options: dict) -> str:
    """Key of a build: a result of other code, or of another input, misses."""
    blob = dumps_canonical(
        {"command": command, "input": obj, "options": options,
         "version": __version__, "sources": _source_digest()})
    return _checksum(blob)


def _entry(text: str) -> str:
    """The cache entry of a payload's canonical text:
    dumps_canonical({"checksum": ..., "payload": payload}), spelled out
    around the text so the payload is not dumped again."""
    return f'{{"checksum":"{_checksum(text)}","payload":{text}}}'


# where the payload's text starts in an entry
_TEXT_START = len('{"checksum":"') + 64 + len('","payload":')


def _cache_get(key: str):
    """(payload, its canonical text) of a stored entry, or None.

    The text is cut out of the entry and served as it stands when the
    entry is exactly _entry(text), checksum included; it is decoded once,
    for the summary line.  Any other entry is a miss, and so is one that
    someone else could have written (``_read_private``).
    """
    data = _read_private(_cache_dir() / f"{key}.json")
    if data is None:
        return None
    try:
        stored = data.decode()
    except ValueError:
        return None
    text = stored[_TEXT_START:-1]
    if stored != _entry(text):
        return None
    try:
        return json.loads(text), text
    except ValueError:
        return None


def _cache_put(key: str, text: str) -> None:
    """Store the canonical text of a payload as its _entry."""
    _store(_cache_dir() / f"{key}.json", _entry(text).encode())


# --------------------------------------------------------------- commands

def cmd_validate(args) -> int:
    obj = _read_json(args.input)
    datum, lifting, _ = serialize.load_datum(obj, modcat=False)
    reports = [datum.validate()]
    # the lifting and modcat sections are only defined over a valid datum:
    # over an invalid one the datum's failures are the report, as for the
    # bare datum
    mcd = None
    if reports[0].ok and lifting is not None:
        reports.append(lifting.validate())
    if reports[0].ok and "modcat" in obj:
        mcd = serialize.load_modcat(datum, obj["modcat"])
        reports.append(mcd.validate())
    ok = all(r.ok for r in reports)
    if args.format == "json":
        print(dumps_canonical(
            {"valid": ok, "N": list(datum.N),
             "reports": [serialize.report_to_json(r) for r in reports]}))
    elif ok:
        parts = [f"valid, N={list(datum.N)}"]
        if lifting is not None:
            parts.append("lifting ok")
        if mcd is not None:
            parts.append(f"modcat ok (dim {mcd.dim()})")
        print("; ".join(parts))
    else:
        for r in reports:
            for name, witness in r.failures:
                print(f"FAIL {r.subject} {name}: {witness}")
    return 0 if ok else 1


def _finish_build(args, obj, command, suffix, options, build):
    """Shared cache/write plumbing for the three build commands.

    The cache is looked up first.  ``build`` parses and validates the
    input, builds and sweeps the tables and returns their payload, and
    runs on every miss; a hit needs only the key and the stored text.
    """
    key = None if args.no_cache else _cache_key(command, obj, options)
    hit = None if key is None else _cache_get(key)
    if hit is not None:
        payload, text = hit
    else:
        payload = build()
        text = dumps_canonical(payload)
        if key is not None:
            _cache_put(key, text)
    out = _out_path(args, suffix)
    _write_artifact(out, text)
    return payload, out, hit is not None


def _build_hopf_command(args, obj, command, suffix, kind, make) -> int:
    """build-hopf and build-lifting: parse and build (``make``), rebase,
    sweep, cache, write."""
    def build():
        if args.conductor and args.conductor > serialize.MAX_CONDUCTOR:
            raise SizeBound(f"conductor {args.conductor} exceeds the ceiling "
                            f"{serialize.MAX_CONDUCTOR}")
        H = make()
        if args.conductor:
            if args.conductor % H.L:
                raise ValidationError(
                    f"conductor {args.conductor} is not a multiple of {H.L}")
            H = H.rebased(args.conductor)
        H.verify().require(ConfluenceFailure,
                           "built tables fail the axiom sweep")
        return serialize.hopf_dump(H)

    payload, out, cached = _finish_build(
        args, obj, command, suffix, {"conductor": args.conductor}, build)
    note = " (cache hit)" if cached else ""
    print(f"{kind}: dim {payload['dim']}, conductor {payload['L']}"
          f"{note}; wrote {out}")
    return 0


def cmd_build_hopf(args) -> int:
    obj = _read_json(args.input)

    def make():
        datum, _, _ = serialize.load_datum(obj)
        return hopf.build_bosonization(datum)

    return _build_hopf_command(args, obj, "build-hopf", "hopf", "bosonization",
                               make)


def cmd_build_lifting(args) -> int:
    obj = _read_json(args.input)

    def make():
        _, lifting, _ = serialize.load_datum(obj)
        if lifting is None:
            raise ValidationError("the input has no lifting section")
        return deformation.build_lifting(lifting)

    return _build_hopf_command(args, obj, "build-lifting", "lifting", "lifting",
                               make)


def cmd_build_algebra(args) -> int:
    obj = _read_json(args.input)

    def build():
        _, _, mcd = serialize.load_datum(obj)
        if mcd is None:
            raise ValidationError("the input has no modcat section")
        return serialize.comodule_dump(comodule.build_A(mcd))

    payload, out, cached = _finish_build(
        args, obj, "build-algebra", "algebra", {}, build)
    note = " (cache hit)" if cached else ""
    print(f"comodule algebra: dim {payload['dim']} over a dim "
          f"{payload['hopf']['dim']} Hopf algebra{note}; wrote {out}")
    return 0


def cmd_classify(args) -> int:
    obj = _read_json(args.input)
    datum, _, _ = serialize.load_datum(obj)
    sample = _parse_sample(args.sample)
    report = classify.classification_report(datum, sample,
                                            bound=args.max_group_order)
    # distinct subgroups, cocycle classes, coordinate W and sample values
    # give distinct dedupe keys, so each enumerated datum represents itself
    reps = report.totals["data"]
    _report(args, "classify",
            {"report": report.as_dict(), "representatives": reps},
            lambda: f"{report.to_text()}\nrepresentatives: {reps}")
    return 0


def cmd_transport(args) -> int:
    obj = _read_json(args.input)
    _, lifting, mcd = serialize.load_datum(obj)
    if lifting is None:
        raise ValidationError("the input has no lifting section")
    # one ledger for the command: B's build proves the bosonization, and
    # the modcat algebra is built over that same table, so every later
    # sweep over it reads that proof
    proofs = hopf.CheckReport("proofs")
    B = deformation.build_bigalois(lifting, proofs)
    if mcd is None:
        A = comodule.regular_coaction(B.right_hopf)
    elif mcd.L != B.algebra.L:
        raise ValidationError(
            f"the modcat algebra lives at conductor {mcd.L} and the "
            f"connecting object at {B.algebra.L}, so A is not a comodule "
            f"over either side of B")
    else:
        A = comodule.build_A(mcd, B.left_hopf, proofs)
    T, rep = deformation.transport(B, A, proofs)
    changed = [f"changed {name}: {witness}" for name, witness in rep.failures]
    _report(args, "transport", {"algebra": serialize.comodule_dump(T),
                                "report": serialize.report_to_json(rep)},
            lambda: "\n".join([f"transported algebra: dim {T.dim}"] + (
                changed or ["all recorded invariants preserved"])))
    return 0


def cmd_verify(args) -> int:
    obj = _read_json(args.input)
    claims = None
    if isinstance(obj, dict) and "algebra" in obj and "report" in obj:
        obj, claims = obj["algebra"], obj["report"]
        if (not isinstance(obj, dict) or "coaction" not in obj
                or "left_coaction" in obj):
            raise ValidationError("a transport artifact holds a comodule algebra")
    try:
        if isinstance(obj, dict) and "left_coaction" in obj:
            rep = serialize.bigalois_load(obj).verify()
        elif isinstance(obj, dict) and "coaction" in obj:
            T = serialize.comodule_load(obj)
            rep = T.verify()
            # T's invariants are computed only from tables that pass
            if claims is not None and rep.ok:
                serialize.check_transport_report(T, claims, rep)
        elif isinstance(obj, dict) and "comult" in obj:
            rep = serialize.hopf_load(obj).verify()
        elif isinstance(obj, dict) and "mult" in obj:
            rep = serialize.algebra_load(obj).verify_algebra()
        elif isinstance(obj, dict) and "group" in obj:
            raise ValidationError(
                "this is an input datum; use the validate command")
        else:
            raise ValidationError("unrecognized artifact shape")
    except (KeyError, IndexError, TypeError) as e:
        raise ValidationError(f"artifact is structurally broken: {e!r}")
    if args.format == "json":
        print(dumps_canonical(serialize.report_to_json(rep)))
    elif rep.ok:
        print(f"{rep.subject}: ok")
    else:
        for name, witness in rep.failures:
            print(f"FAIL {rep.subject} {name}: {witness}")
    return 0 if rep.ok else 2


# ------------------------------------------------------------------ main

def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return value


def _group_order(text: str) -> int:
    """A --max-group-order: no input group is larger than the ceiling,
    so a bound above it would promise what load_datum refuses."""
    value = _positive_int(text)
    if value > serialize.MAX_GROUP_ORDER:
        raise argparse.ArgumentTypeError(
            f"must be at most the group order ceiling "
            f"{serialize.MAX_GROUP_ORDER}, got {text!r}")
    return value


FLAGS = {
    "--out": dict(help="artifact path (default: next to input)"),
    "--format": dict(choices=("text", "json"), default="text"),
    "--sample": dict(default="0,1",
                     help="comma-separated scalar sample for classify"),
    "--max-group-order": dict(
        type=_group_order, default=256, dest="max_group_order",
        help="largest group order to enumerate subgroups of; at most the "
             "input ceiling serialize.MAX_GROUP_ORDER (4096)"),
    "--conductor": dict(type=_positive_int,
                        help="rebase built tables to this conductor, at most "
                             "serialize.MAX_CONDUCTOR (4096)"),
    "--no-cache": dict(action="store_true", dest="no_cache"),
}
BUILD_FLAGS = ("--out", "--conductor", "--no-cache")


def _parser() -> argparse.ArgumentParser:
    """One subparser per command, each taking only the flags it reads."""
    p = argparse.ArgumentParser(
        prog="qlsmodcat",
        description="exact module-category data over finite abelian groups")
    sub = p.add_subparsers(dest="command", required=True)
    commands = [
        ("validate", cmd_validate, "check an input datum file", ("--format",)),
        ("build-hopf", cmd_build_hopf, "build the graded Hopf algebra",
         BUILD_FLAGS),
        ("build-lifting", cmd_build_lifting, "build the lifted Hopf algebra",
         BUILD_FLAGS),
        ("build-algebra", cmd_build_algebra, "build the comodule algebra",
         ("--out", "--no-cache")),
        ("classify", cmd_classify, "sweep and tabulate module-category data",
         ("--out", "--format", "--sample", "--max-group-order")),
        ("transport", cmd_transport,
         "move an algebra along the lifting's connecting object",
         ("--out", "--format")),
        ("verify", cmd_verify, "re-run the axiom sweep on a dumped artifact",
         ("--format",)),
    ]
    for name, func, help_text, flags in commands:
        q = sub.add_parser(name, help=help_text)
        q.add_argument("input", help="input JSON file")
        for flag in flags:
            q.add_argument(flag, **FLAGS[flag])
        q.set_defaults(func=func)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except INTERNAL_ERRORS as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 2
    except INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
