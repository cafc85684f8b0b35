"""Pipeline benchmark: whole qlsmodcat CLI commands, one fresh process each.

    python3 pipebench/run.py --workload tables --seed 1 --seconds 30 --trace 0

Writes the seeded inputs of one workload as JSON files, then runs the
workload's command list in passes, one command at a time, until
``--seconds`` are used (at least one pass); each pass ends with a few
probes of the fixed set-up cost of a CLI process.  Every command's output
is checked against known answers and the committed reference digests
before any number is reported.  With ``--trace 1`` the passes alternate
between plain and traced commands and the per-layer numbers of the traced
ones are reported instead.  The last line of standard output is one JSON
object; see README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from importlib import metadata
from math import gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".pipebench_tmp"
REFERENCE = HERE / "reference.json"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3    # set-up probes at the end of every pass
CAL_ROUNDS = 50     # one calibration slice: about 0.7 ms on a 2.1 GHz Xeon
CAL_REF_S = 0.0007  # about a slice's median time on that machine
CAL_GAP = 0.05      # seconds between slices while a process runs
COMMAND_TIMEOUT = 120.0
DEADLINE = 150.0  # seconds after start: no command runs past this
PROBE = ("import json, qlsmodcat, qlsmodcat.cli, qlsmodcat.serialize as s; "
         "s.input_schema(); import qlsmodcat._kernel as k; "
         "print(json.dumps({'file': qlsmodcat.__file__, 'backend': k.BACKEND}))")


class BenchError(Exception):
    """The benchmark cannot run here; nothing is reported."""


# --------------------------------------------------------------- processes

@dataclass
class Proc:
    rc: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: str
    stderr: str
    timed_out: bool
    cal: float  # mean calibration slice while the process ran

    def scaled(self, attr: str) -> float:
        """wall or cpu, in seconds of a core on which calibrate() takes CAL_REF_S."""
        return getattr(self, attr) * CAL_REF_S / self.cal


def spawn(argv: list, env: dict, tmp: Path, timeout: float) -> Proc:
    """Run argv to completion; wall from spawn to exit, rusage of the child.

    While the child runs, this process times one calibration slice every
    CAL_GAP seconds on the same core; their mean is the Proc's ``cal``.
    """
    with tempfile.TemporaryFile(dir=tmp) as fo, \
            tempfile.TemporaryFile(dir=tmp) as fe:
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=[
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, fo.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, fe.fileno(), 2)])
        slices, timed_out = [], False
        try:
            fd = os.pidfd_open(pid)
            try:
                while True:
                    slices.append(calibrate())
                    if select.select([fd], [], [], CAL_GAP)[0]:
                        break
                    if time.perf_counter() - t0 > timeout:
                        timed_out = True
                        os.kill(pid, signal.SIGKILL)
                        break
            finally:
                os.close(fd)
            wall = time.perf_counter() - t0
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            raise
        _, status, ru = os.wait4(pid, 0)
        fo.seek(0)
        fe.seek(0)
        return Proc(os.waitstatus_to_exitcode(status), wall,
                    ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
                    fo.read().decode(errors="replace"),
                    fe.read().decode(errors="replace"), timed_out,
                    statistics.mean(slices))


# ------------------------------------------------------------- calibration
#
# On a shared host the speed of one core changes by up to half, in bursts
# of a second and in phases of tens of seconds to minutes, and a run of
# forty seconds can sit in one phase.  So while each process runs, the
# benchmark times a fixed piece of interpreter work of its own, written
# here and used by no commit under test, every CAL_GAP seconds on the same
# core, in CPU time of its own thread, and scales that process's times by
# CAL_REF_S / (the mean slice): every time it reports is what the process
# takes on a core on which a slice takes CAL_REF_S.  The slices take about
# 1% of the core; the raw times are printed beside the scaled ones.

def _cal_mul(a: tuple, b: tuple, n: int) -> tuple:
    """Product of two integer vectors modulo x^n + 1, content divided out."""
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                k = i + j
                if k < n:
                    out[k] += x * y
                else:
                    out[k - n] -= x * y
    g = 0
    for c in out:
        g = gcd(g, c)
    return tuple(c // g for c in out) if g > 1 else tuple(out)


def calibrate() -> float:
    """Thread CPU seconds for CAL_ROUNDS products, dict updates and tuple rebuilds."""
    t0 = time.thread_time()
    seen: dict = {}
    a, b = (1, 2, 0, -1, 3, 0, 1, -2), (2, -1, 1, 0, 0, 3, -1, 1)
    for _ in range(CAL_ROUNDS):
        c = _cal_mul(a, b, 8)
        seen[c] = seen.get(c, 0) + 1
        a, b = b, tuple(x % 97 - 48 for x in c)
    return time.thread_time() - t0


# ------------------------------------------------------------- correctness

def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def summarize(kind: str, obj) -> dict:
    """Dims, verdicts, radical dims and block data of one artifact."""
    if kind == "transport":
        rep = obj["report"]
        return {"dim": obj["algebra"]["dim"], "ok": rep["ok"],
                "failures": [[f["check"], f["witness"]] for f in rep["failures"]]}
    if kind == "classify":
        rows = obj["report"]["rows"]
        cells = Counter(json.dumps([r["dim"], r["simplicity"], r["radical_dim"],
                                    r["blocks"]]) for r in rows)
        return {"totals": obj["report"]["totals"],
                "representatives": obj["representatives"],
                "cells": sorted(json.loads(k) + [n] for k, n in cells.items())}
    out = {"dim": obj["dim"], "L": obj["L"]}
    if "hopf" in obj:
        out["hopf_dim"] = obj["hopf"]["dim"]
    return out


def digest(step: workloads.Step, proc: Proc) -> dict:
    """What the reference records for one command's output."""
    if step.kind == "verify":
        return {"stdout": proc.stdout}
    data = Path(step.artifact).read_bytes()
    return {"sha256": sha256(data),
            "summary": summarize(step.kind, json.loads(data))}


def known_answers(step: workloads.Step, proc: Proc) -> list[str]:
    """Checks that come from the input alone, not from the code under test."""
    if step.kind == "verify":
        return [] if proc.stdout.rstrip().endswith(": ok") else \
            [f"verify did not report ok: {proc.stdout.strip()[-200:]!r}"]
    data = Path(step.artifact).read_bytes()
    if step.kind == "hit":
        same = Path(step.expect["same_as"]).read_bytes() == data
        return [] if same else ["cache-hit artifact differs from the built one"]
    obj = json.loads(data)
    bad = []
    if step.kind in ("build", "transport"):
        dim = obj["algebra"]["dim"] if step.kind == "transport" else obj["dim"]
        want = workloads.expected_dim(step)
        if dim != want:
            bad.append(f"dim {dim}, expected {want}")
    if step.kind == "transport":
        rep = obj["report"]
        if "undecided" in json.dumps(rep):
            bad.append("an 'undecided' simplicity verdict")
        found = {f["check"]: f["witness"] for f in rep["failures"]}
        if "radical" in step.expect:
            for check, key in (("radical-dimension-preserved", "radical"),
                               ("block-data-preserved", "blocks")):
                if found.get(check) != step.expect[key]:
                    bad.append(f"{check}: {found.get(check)}, "
                               f"expected {step.expect[key]}")
    if step.kind == "classify":
        rows, totals = obj["report"]["rows"], obj["report"]["totals"]
        if any(r["simplicity"] == "undecided" for r in rows):
            bad.append("an 'undecided' simplicity verdict")
        if sum(r["count"] for r in rows) != totals["data"] \
                or len(rows) != totals["rows"]:
            bad.append("row counts do not add up to the totals")
    return bad


def check(step: workloads.Step, proc: Proc, reference: dict) -> list[str]:
    if proc.timed_out:
        return ["timed out"]
    bad = []
    if proc.rc != 0:
        bad.append(f"exit code {proc.rc}")
    if "Traceback" in proc.stderr:
        bad.append("traceback on stderr")
    if bad:
        return bad + [proc.stderr.strip()[-300:]]
    try:
        bad = known_answers(step, proc)
        if step.kind == "hit":
            return bad
        got = digest(step, proc)
    except (OSError, ValueError, KeyError, TypeError) as e:
        return bad + [f"unreadable output: {e!r}"]
    want = reference.get(step.key)
    if want is None:
        bad.append("no reference digest for this input")
    elif got != want:
        bad.append("output differs from the reference digest: "
                   f"{json.dumps(got)[:300]} != {json.dumps(want)[:300]}")
    return bad


# ------------------------------------------------------------------ runs

@dataclass
class Record:
    step: workloads.Step
    proc: Proc = None
    problems: list = field(default_factory=list)
    layers: tracer.Layers = None


class Bench:
    """One run of one workload inside a private temporary directory."""

    def __init__(self, chosen: list, tmp: Path, reference: dict):
        self.t_start = time.monotonic()
        self.tmp = tmp
        self.reference = reference
        self.chosen = chosen
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        self.env = env
        self.cal: list[float] = []
        self.probes: list[Proc] = []
        (tmp / "inputs").mkdir()
        for slot, obj in self.chosen:
            (tmp / "inputs" / f"{slot.name}.json").write_text(json.dumps(obj))

    def spawn(self, argv: list, env: dict, timeout: float) -> Proc:
        """spawn() in this run's directory; its mean slice goes to the meta line."""
        proc = spawn(argv, env, self.tmp, timeout)
        self.cal.append(proc.cal)
        return proc

    def remaining(self) -> float:
        return DEADLINE - (time.monotonic() - self.t_start)

    def steps(self, index: int) -> list:
        out_dir = self.tmp / f"pass-{index}"
        out_dir.mkdir()
        return workloads.steps(
            self.chosen, lambda name: str(self.tmp / "inputs" / f"{name}.json"),
            lambda name, suffix: str(out_dir / f"{name}.{suffix}.json"))

    def probe(self) -> dict:
        """One fresh CLI process up to a loaded input schema; kept for setup_s."""
        p = self.spawn([sys.executable, "-c", PROBE], self.env, 60.0)
        if p.rc != 0:
            raise BenchError(f"qlsmodcat does not import: {p.stderr[-300:]}")
        self.probes.append(p)
        return json.loads(p.stdout)

    def check_import(self) -> dict:
        """The lane that imports, after checking that it is the checkout's src/."""
        meta = self.probe()
        if not Path(meta["file"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"qlsmodcat imports from {meta['file']}, not {SRC}")
        return meta

    def setup_s(self) -> float:
        """Median scaled time of the set-up probes, spread over the whole run."""
        return statistics.median(p.scaled("wall") for p in self.probes)

    def run_pass(self, index: int, traced: bool) -> list[Record]:
        env = dict(self.env, QLSMODCAT_CACHE_DIR=str(self.tmp / f"cache-{index}"))
        records = []
        for i, step in enumerate(self.steps(index)):
            if self.remaining() <= 0:
                records.append(Record(step, None, ["not run: the run's deadline passed"]))
                continue
            spans = self.tmp / f"spans-{index}-{i}.jsonl"
            if traced:
                argv = [sys.executable, str(HERE / "tracer.py"), str(spans),
                        "--", *step.argv]
            else:
                argv = [sys.executable, "-m", "qlsmodcat.cli", *step.argv]
            proc = self.spawn(argv, env, min(COMMAND_TIMEOUT, self.remaining()))
            rec = Record(step, proc, check(step, proc, self.reference))
            if traced:
                if spans.exists():
                    rec.layers = tracer.aggregate(str(spans))
                    spans.unlink()
                    if rec.layers.counts.get("comodule.undecided"):
                        rec.problems.append("an 'undecided' simplicity verdict")
                else:
                    rec.problems.append("the traced command wrote no spans")
            records.append(rec)
        for _ in range(SETUP_PROBES):
            if self.remaining() > 0:
                self.probe()
        return records

    def passes(self, seconds: float, traced: bool) -> list[tuple[bool, list]]:
        """Passes until the time is used; a traced run alternates plain and traced."""
        kinds = [False, True] if traced else [False]
        out = []
        t0 = time.monotonic()
        while True:
            c0 = time.monotonic()
            for kind in kinds:
                out.append((kind, self.run_pass(len(out), kind)))
            cycle = time.monotonic() - c0
            if time.monotonic() - t0 + cycle > seconds or self.remaining() < cycle:
                return out


# --------------------------------------------------------------- metrics

def quantile(values: list, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def per_command(runs: list, traced: bool, attr: str) -> list[float]:
    """Median of each command's scaled times over the passes of one kind.

    The median over passes keeps a burst of load on a shared machine,
    which slows one pass, out of every number built from these.  A failed
    command's time is not a cost of the command and is left out.
    """
    passes = [recs for kind, recs in runs if kind == traced]
    out = []
    for i in range(len(passes[0])):
        samples = [recs[i].proc.scaled(attr) for recs in passes
                   if recs[i].proc and not recs[i].problems]
        if samples:
            out.append(statistics.median(samples))
    return out


def end_to_end(setup_s: float, runs: list) -> dict:
    walls = per_command(runs, False, "wall")
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(walls), "s"),
        "cpu_s": (sum(per_command(runs, False, "cpu")), "s"),
        "cmd_p50_s": (quantile(walls, 0.5), "s"),
        "cmd_p90_s": (quantile(walls, 0.9), "s"),
        "peak_rss_mb": (max(r.proc.rss_mb for _, recs in runs
                            for r in recs if r.proc), "MB"),
    }


def _pass_layers(records: list) -> dict:
    times, calls, counts = Counter(), Counter(), Counter()
    for r in records:
        if r.layers:
            factor = CAL_REF_S / r.proc.cal
            times.update({k: v * factor for k, v in r.layers.times.items()})
            calls.update(r.layers.calls)
            counts.update(r.layers.counts)

    def ratio(a, b):
        return a / b if b else 0.0

    def group_calls(group):
        table = tracer.STAGES if group in tracer.STAGES else tracer.HELPERS
        return sum(calls[t] for t in table[group])

    t = times.__getitem__
    return {
        "kernel.mul_calls": (counts["kernel.mul"], "count"),
        "kernel.submul_calls": (counts["kernel.submul"], "count"),
        "kernel.add_calls": (counts["kernel.add"], "count"),
        "cyclo.inv_calls": (counts["cyclo.inv"], "count"),
        "linalg.insert_calls": (calls["linalg:Subspace.insert"], "count"),
        "linalg.reduce_calls": (counts["linalg.reduce"], "count"),
        "linalg.insert_useful_ratio": (ratio(counts["linalg.insert_useful"],
                                             calls["linalg:Subspace.insert"]), "1"),
        "linalg.left_kernel_calls": (calls["linalg:left_kernel"], "count"),
        "linalg.solve_calls": (calls["linalg:solve"], "count"),
        "linalg.self_s": (t("linalg"), "s"),
        "rewrite.normalize_calls": (counts["rewrite.normalize"], "count"),
        "rewrite.memo_hit_ratio": (ratio(counts["rewrite.memo_hits"],
                                         counts["rewrite.normalize"]), "1"),
        "rewrite.self_s": (t("rewrite"), "s"),
        "hopf.verify_calls": (group_calls("hopf.verify"), "count"),
        "hopf.verify_s": (t("hopf.verify"), "s"),
        "hopf.multiply_calls": (counts["hopf.multiply"], "count"),
        "hopf.build_s": (t("hopf.build"), "s"),
        "comodule.build_s": (t("comodule.build"), "s"),
        "comodule.verify_s": (t("comodule.verify"), "s"),
        "comodule.simplicity_calls": (group_calls("comodule.simplicity"), "count"),
        "comodule.simplicity_s": (t("comodule.simplicity"), "s"),
        "comodule.simple_modules_s": (t("comodule.simple_modules"), "s"),
        "comodule.factor_calls": (calls["comodule:_poly_factors"], "count"),
        "comodule.field_domain_builds": (calls["comodule:_field_domain"], "count"),
        "comodule.sympy_s": (t("sympy"), "s"),
        "deformation.lifting_s": (t("deformation.lifting"), "s"),
        "deformation.bigalois_s": (t("deformation.bigalois"), "s"),
        "deformation.bigalois_verify_s": (t("deformation.bigalois_verify"), "s"),
        "deformation.cotensor_s": (t("deformation.cotensor"), "s"),
        "deformation.transport_s": (t("deformation.transport"), "s"),
        "classify.enumerate_calls": (group_calls("classify.enumerate"), "count"),
        "classify.data_enumerated": (counts["classify.data_enumerated"], "count"),
        "classify.enumerate_s": (t("classify.enumerate"), "s"),
        "classify.dedupe_s": (t("classify.dedupe"), "s"),
        "serialize.load_s": (t("serialize.load"), "s"),
        "serialize.dump_s": (t("serialize.dump"), "s"),
        "cli.cache_hit_ratio": (ratio(counts["cli.cache_hits"],
                                      counts["cli.cache_lookups"]), "1"),
        "cli.cache_s": (t("cli.cache"), "s"),
        "cli.self_s": (t("cli"), "s"),
    }


def per_layer(runs: list, kernel: dict) -> dict:
    traced = [_pass_layers(recs) for kind, recs in runs if kind]
    out = {}
    for name, (_, unit) in traced[0].items():
        # counts repeat exactly from pass to pass; median_low keeps them whole
        mid = statistics.median_low if unit == "count" else statistics.median
        out[name] = (mid([p[name][0] for p in traced]), unit)
    out["kernel.mul_ns"] = (kernel["mul_ns"], "ns")
    out["kernel.submul_ns"] = (kernel["submul_ns"], "ns")
    out["trace.overhead_ratio"] = (sum(per_command(runs, True, "wall"))
                                   / sum(per_command(runs, False, "wall")), "1")
    return out


# ------------------------------------------------------------------ main

def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def kernel_costs(bench: Bench) -> dict:
    p = bench.spawn([sys.executable, str(HERE / "kernel_ns.py")], bench.env,
                    60.0)
    if p.rc != 0:
        raise BenchError(f"kernel_ns.py failed: {p.stderr[-300:]}")
    costs = json.loads(p.stdout)
    factor = CAL_REF_S / p.cal
    return {k: costs[k] * factor for k in ("mul_ns", "submul_ns")}


def report(workload, seed, meta, runs, metrics) -> dict:
    records = [r for _, recs in runs for r in recs]
    failed = [r for r in records if r.problems]
    procs = [r.proc for r in records if r.proc]
    plain = sum(1 for kind, _ in runs if not kind)
    print(f"pipebench {workload}: seed {seed}, {plain} plain and "
          f"{len(runs) - plain} traced passes, {len(records)} commands, "
          f"lane {meta['backend']}")
    per_pass = len(runs[0][1])
    samples = {"setup_s": f"median of {meta['setup_probes']} probes",
               "wall_s": f"sum over {per_pass} commands of the median of {plain} passes",
               "cpu_s": f"sum over {per_pass} commands of the median of {plain} passes",
               "cmd_p50_s": f"over {per_pass} per-command medians",
               "cmd_p90_s": f"over {per_pass} per-command medians",
               "peak_rss_mb": f"max of {len(procs)} commands"}
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6f} {unit:6s} {samples.get(name, '')}")
    print(f"  {'fail_ratio':32s} {len(failed) / len(records):14.6f} 1      "
          f"{len(failed)} of {len(records)} commands failed")
    for i, r in enumerate(runs[0][1]):
        walls = " ".join(f"{recs[i].proc.wall:.3f}" if recs[i].proc else "-"
                         for _, recs in runs)
        print(f"  {r.step.name:32s} raw wall per pass (s): {walls}")
    missing = sorted({t for r in records if r.layers for t in r.layers.missing})
    if missing:
        print(f"tracer: not found, so not wrapped: {', '.join(missing)}",
              file=sys.stderr)
    for r in failed:
        print(f"FAIL {r.step.name} ({' '.join(r.step.argv[:1])}): "
              + "; ".join(str(p) for p in r.problems), file=sys.stderr)
    print(json.dumps({"meta": meta}))
    return {"correct": not failed, "attempted": len(records),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops its command process and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # the run, its calibration and every command it starts share one core
    nproc = len(os.sched_getaffinity(0))
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    try:
        if not (SRC / "qlsmodcat" / "cli.py").is_file():
            raise BenchError(f"no qlsmodcat sources under {SRC}")
        reference = json.loads(REFERENCE.read_text())
        TMP.mkdir(exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP))
        try:
            bench = Bench(workloads.draw(args.workload, args.seed), tmp,
                          reference)
            probe = bench.check_import()
            kernel = kernel_costs(bench) if args.trace else None
            runs = bench.passes(args.seconds, bool(args.trace))
            if args.trace:
                metrics = per_layer(runs, kernel)
            else:
                metrics = end_to_end(bench.setup_s(), runs)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
            try:
                TMP.rmdir()
            except OSError:
                pass
    except BenchError as e:
        print(f"pipebench: {e}", file=sys.stderr)
        return 2
    meta = {"workload": args.workload, "seed": args.seed,
            "backend": probe["backend"], "python": platform.python_version(),
            "sympy": metadata.version("sympy"), "nproc": nproc, "cpu": cpu,
            "commit": git_commit(), "trace": args.trace,
            "calibration_s": statistics.median(bench.cal),
            "calibration_samples": len(bench.cal), "cal_ref_s": CAL_REF_S,
            "setup_probes": len(bench.probes)}
    print(json.dumps(report(args.workload, args.seed, meta, runs, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
