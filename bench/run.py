#!/usr/bin/env python3
"""embedlab benchmark: one workload per process, or all three in turn.

    python3 bench/run.py --workload order_stream --seed 7 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 7

A run sets up its inputs several times (reporting the median), makes one
untimed pass that checks every case in full, then repeats timed passes over
all cases for about ``--seconds`` seconds.  Every timed unit (a case, a
set-up) runs between two runs of the calibration kernel and is reported in
seconds at the kernel's reference speed (see calibration.py).  Every timed
execution must reproduce the checked one (same log bytes and verdict).  With
``--trace 1`` the untraced timed passes get half of ``--seconds``, the
same number of passes is then repeated with run-time wrappers installed,
and the per-layer metrics replace the end-to-end ones on the last line.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import calibration
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
MODULES = ("streams", "kernel", "combinators", "constructions", "pairing",
           "sigma2", "classify", "forcing", "diagram", "experiments",
           "registry", "cli")


def drop_embedlab() -> dict:
    """Remove the package's modules from sys.modules; returns them."""
    names = [n for n in sys.modules if n == "embedlab" or n.startswith("embedlab.")]
    return {n: sys.modules.pop(n) for n in names}


def import_embedlab() -> SimpleNamespace:
    """Fresh import of the package and the modules the benchmark calls."""
    drop_embedlab()
    importlib.import_module("embedlab")
    em = SimpleNamespace(**{
        m: importlib.import_module(f"embedlab.{m}") for m in MODULES
    })
    if SRC not in Path(em.kernel.__file__).resolve().parents:
        raise SystemExit(f"embedlab was imported from {em.kernel.__file__}, not {SRC}")
    return em


def setup(workload: str, seed: int):
    """Import, input generation and operator construction; (em, cases,
    (seconds, calibration seconds)).  The kernel runs before and after,
    and the set-up is compared with the mean of the two."""
    gc.collect()
    before = calibration.measure()
    start = time.perf_counter()
    em = import_embedlab()
    cases = workloads.build_cases(workload, seed, em)
    seconds = time.perf_counter() - start
    after = calibration.measure()
    return em, cases, (seconds, (before + after) / 2)


def setup_again(workload: str, seed: int) -> tuple:
    """Time one more set-up, then put back the modules the run uses."""
    kept = drop_embedlab()
    timing = setup(workload, seed)[2]
    drop_embedlab()
    sys.modules.update(kept)
    return timing


class Runner:
    def __init__(self, seed: int, em, cases: list):
        self.seed = seed
        self.em = em
        self.cases = cases
        self.attempted = 0
        self.failed = 0
        self.reference: dict = {}   # case index -> (digest, log sha, verdict)
        self.case_lines: list = []
        self.proxy: list = []       # (input verdict, output verdict)

    def _fail(self, case, message):
        self.failed += 1
        print(f"FAIL case {case.index} {case.label}: {message}", file=sys.stderr)

    def execute(self, case, tracer=None):
        """One timed execution; returns (outcome, seconds), or
        (None, None) when the case raised."""
        self.attempted += 1
        frame = tracer.begin_case(case.index) if tracer else None
        try:
            return workloads.run_case(case, self.seed, self.em)
        except Exception:
            self._fail(case, "raised\n" + traceback.format_exc())
            return None, None
        finally:
            if frame is not None:
                tracer.end_case(frame)

    def check(self, case, out, full: bool) -> None:
        """The first execution of a case gets every check and becomes the
        reference; later ones must reproduce its log bytes and verdict, and
        with ``full`` (traced passes) its output digest too."""
        first = case.index not in self.reference
        try:
            problems = workloads.full_check(case, out, self.em) if first else []
            digest = workloads.digest(case, out, self.em) if first or full else None
            sha = workloads.sha(out.text)
        except Exception:
            self._fail(case, "check raised\n" + traceback.format_exc())
            return
        if first:
            self.reference[case.index] = (digest, sha, out.verdict)
            self.case_lines.append(
                f"case {case.index:2d} {case.label:<58} digest={digest} "
                f"verdict={json.dumps(out.verdict, sort_keys=True)}")
            if case.kind == "replicate" and not case.gated:
                self.proxy.append((workloads.input_verdict(case, out, self.em),
                                   out.verdict))
        else:
            ref_digest, ref_sha, ref_verdict = self.reference[case.index]
            if (sha, out.verdict) != (ref_sha, ref_verdict):
                problems.append("log or verdict differs from the first execution")
            if digest is not None and digest != ref_digest:
                problems.append("output digest differs from the first execution")
            if not out.ok and not problems:
                problems.append(f"verdict {out.verdict!r} fails the criterion")
        for message in problems:
            self._fail(case, message)

    def run_pass(self, tracer=None) -> dict:
        """One execution of every case: {case index: (seconds, calibration
        seconds)}, log bytes and facts emitted."""
        times, log_bytes, facts = {}, 0, 0
        for case in self.cases:
            gc.collect()
            before = calibration.measure()
            if tracer:
                tracer.active = True
            out, seconds = self.execute(case, tracer)
            if tracer:
                tracer.active = False
            after = calibration.measure()
            if out is None:
                continue
            times[case.index] = (seconds, (before + after) / 2)
            log_bytes += len(out.text)
            facts += out.facts
            self.check(case, out, full=tracer is not None)
            del out  # free this case's logs before the next case runs
        return {"times": times, "log_bytes": log_bytes, "facts": facts}

    def measure(self, seconds: float, passes: int | None = None, tracer=None,
                between=None) -> list:
        """Timed passes until the next one would overrun ``seconds``
        (at least one), or exactly ``passes`` passes.  ``between`` runs
        after each pass, outside the timed spans."""
        results = []
        start = time.perf_counter()
        while True:
            results.append(self.run_pass(tracer))
            if between:
                between()
            if passes is not None:
                if len(results) >= passes:
                    return results
                continue
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(results) > seconds:
                return results


def case_times(passes: list) -> list:
    """Each case's time in reference seconds: the median over the timed
    passes of its time divided by the calibration runs around it."""
    ratios: dict = {}
    for p in passes:
        for index, timing in p["times"].items():
            ratios.setdefault(index, []).append(calibration.reference_seconds(*timing))
    return [statistics.median(r) for r in ratios.values()]


def tail(durations: list):
    """(percentile, seconds): the highest whole percentile with at least
    ten samples beyond it (nearest rank), or None below 20 samples."""
    n = len(durations)
    if n < 20:
        return None
    p = math.floor(100 * (1 - 10 / n))
    rank = math.ceil(p / 100 * n)
    return p, sorted(durations)[rank - 1]


def end_to_end(workload, cases, setup_times, passes) -> tuple:
    """(metrics for the result line, notes on them, report-only metrics)."""
    times = case_times(passes)
    wall = sum(times)
    pass_walls = [sum(t for t, _ in p["times"].values()) for p in passes]
    cals = [c for p in passes for _, c in p["times"].values()]
    last = passes[-1]
    metrics = {
        "setup_s": (statistics.median(
            calibration.reference_seconds(*t) for t in setup_times), "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "log_bytes": (last["log_bytes"], "B"),
    }
    notes = {
        "setup_s": f"reference seconds; median of {len(setup_times)} set-ups, "
                   "one before and one after each timed pass",
        "wall_s": f"reference seconds; one pass of {len(cases)} cases, each "
                  f"at its median of {len(passes)} timed passes",
        "log_bytes": "per pass",
    }
    report = {
        "wall_raw_s": (statistics.median(pass_walls), "s",
                       "median pass as measured, in host seconds (pass sums: "
                       + " ".join(f"{w:.3f}" for w in pass_walls) + ")"),
        "host_speed": (statistics.median(cals) / calibration.NOMINAL_S, "x",
                       "median calibration time / reference time "
                       f"({len(cals)} calibrations)"),
        "case_p50_s": (statistics.median(times), "s",
                       f"reference seconds; median over {len(times)} cases"),
    }
    if workload != "batch_scan":
        stages = sum(c.stages for c in cases)
        report["stages_per_s"] = (stages / wall, "1/s",
                                  f"{stages} input stages per pass")
        report["facts_emitted"] = (last["facts"], "count", "per pass")
    t = tail(times)
    if t is None:
        report["case_tail_s"] = (None, "s", f"omitted: {len(times)} cases, fewer than 20")
    else:
        report["case_tail_s"] = (t[1], "s", f"p{t[0]} of {len(times)} cases")
    return metrics, notes, report


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    # Set-up is timed once before the run and again after each untraced
    # timed pass, so that its median samples the whole run.
    em, cases, first = setup(args.workload, args.seed)
    setup_times = [first]
    runner = Runner(args.seed, em, cases)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")

    runner.run_pass()   # untimed: full checks, caches warm
    # A traced run splits its time: half untraced, then as many traced passes.
    passes = runner.measure(
        args.seconds / 2 if args.trace else args.seconds,
        between=lambda: setup_times.append(setup_again(args.workload, args.seed)))
    metrics, notes, report = end_to_end(args.workload, cases, setup_times, passes)

    for line in runner.case_lines:
        print(line)
    digest = workloads.sha(" ".join(runner.reference[c.index][0]
                                     for c in cases if c.index in runner.reference))
    print(f"workload digest {digest}")
    if runner.proxy:
        bad_in = sum(1 for i, _ in runner.proxy if i != "CONSISTENT")
        bad_out = sum(1 for _, o in runner.proxy if o != "CONSISTENT")
        print(f"fingerprint proxy on permuted inputs (not gated): "
              f"{bad_in}/{len(runner.proxy)} input streams and "
              f"{bad_out}/{len(runner.proxy)} outputs judged INCONSISTENT")

    print("end-to-end:")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<16} {value:>14.6g} {unit:<5} {notes.get(name, '')}")
    for name, (value, unit, note) in report.items():
        shown = "-" if value is None else f"{value:.6g}"
        print(f"  {name:<16} {shown:>14} {unit:<5} {note}")
    print(f"  {'cases_failed':<16} {runner.failed:>14} count of {runner.attempted} "
          f"case executions")

    result_metrics = {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}
    if args.trace:
        result_metrics = trace_run(args, runner, passes)

    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": result_metrics,
    }))
    return 0 if runner.failed == 0 else 1


def trace_run(args, runner, untraced) -> dict:
    """Repeat the timed passes with wrappers installed; per-layer metrics."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = runner.measure(args.seconds, passes=len(untraced), tracer=tracer)
    finally:
        tracer.uninstall()
    n = len(traced)
    metrics, absent = tracer.layer_metrics(n)
    overhead = sum(case_times(traced)) - sum(case_times(untraced))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}

    print(f"per-layer (traced, per pass, {n} passes; digests checked against "
          "the untraced run):")
    for name, m in metrics.items():
        print(f"  {name:<30} {m['value']:>14.6g} {m['unit']}")
    for name, reason in absent:
        print(f"  {name:<30} {'absent':>14} {reason}")
    print("evaluator nodes (step calls and self seconds per pass):")
    for node, status, calls, self_s in tracer.node_table(n):
        if status == "absent":
            print(f"  {node:<24} absent")
        else:
            print(f"  {node:<24} {status:<8} {calls:>10.1f} {self_s:>12.6f}")
    print("not measured from outside:")
    for name, reason in tracing.NOT_MEASURABLE:
        print(f"  {name:<24} {reason}")

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    dump = tracer.dump()
    dump.update(workload=args.workload, seed=args.seed, passes=n)
    path.write_text(json.dumps(dump) + "\n", encoding="utf-8")
    print(f"spans: {len(dump['spans'])} written to {path.relative_to(ROOT)}")
    return metrics


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    combined, attempted, failed, correct, code = {}, 0, 0, True, 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(lines[-1])
            print(f"{workload}: no result (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        code = code or proc.returncode
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            combined[f"{workload}.{name}"] = m
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "embedlab" / "__init__.py").is_file():
        print(f"embedlab sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
