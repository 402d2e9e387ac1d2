#!/usr/bin/env python3
"""Benchmark for transpec: four workloads, end-to-end metrics or a traced run.

    python3 benchmarks/run.py --workload verdicts --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seconds 20

Run it from the root of a checkout: the program is imported from ``src/``
there, never from an installed copy.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NAMES = ("verdicts", "dense_sweep", "shift_invert", "cli")

#: Fresh interpreters per run for the set-up time (the median is reported).
SETUP_REPEATS = 5
#: Fresh interpreters per traced run for cli.import_s.
IMPORT_REPEATS = 3

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("peak_rss_mb", "MB"))

_SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
{code}
print(repr(time.perf_counter() - t0))
"""


@dataclass
class Pass:
    """What one pass of whole rounds did."""

    rounds: int = 0
    attempted: int = 0
    wall_s: float = 0.0
    latencies: List[float] = field(default_factory=list)
    outputs: List[tuple] = field(default_factory=list)   # (op, output, round)
    errors: Dict[str, str] = field(default_factory=dict)  # label -> first error

    @property
    def failed(self) -> int:
        return self.attempted - len(self.latencies)


def run_rounds(workload, seconds: float, rounds: int = 0) -> Pass:
    """Whole rounds: a fixed count, or while the next one is due to end within ``seconds``."""
    done = Pass()
    t0 = time.perf_counter()
    while True:
        for op in workload.ops:
            t = time.perf_counter()
            try:
                out = op.run(done.rounds)
            except Exception as exc:  # a failed operation is counted, not fatal
                done.errors.setdefault(op.label, f"{type(exc).__name__}: {exc}")
            else:
                done.latencies.append(time.perf_counter() - t)
                done.outputs.append((op, out, done.rounds))
            done.attempted += 1
        done.rounds += 1
        done.wall_s = time.perf_counter() - t0
        if rounds:
            if done.rounds >= rounds:
                return done
        elif done.wall_s * (done.rounds + 1) / done.rounds > seconds:
            return done


def problems_of(workload, passes: List[Pass]) -> List[str]:
    problems = []
    first: Dict[str, Any] = {}
    for p in passes:
        for op, out, rnd in p.outputs:
            problems += op.check(out)
            if rnd == 0:
                first.setdefault(op.label, out)
    return problems + workload.final_check(first)


def child_seconds(code: str, repeats: int) -> float:
    """Median of ``repeats`` fresh interpreters timing their own import and set-up."""
    import workloads
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD.format(src=str(SRC), code=code)],
                              cwd=ROOT, env=workloads.child_env(), capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def report_errors(p: Pass) -> None:
    for label, err in p.errors.items():
        print(f"failed: {label}: {err}", file=sys.stderr)


def untraced(workload, seconds: float) -> Dict[str, Any]:
    setup_s = child_seconds(workload.setup_code, SETUP_REPEATS)
    p = run_rounds(workload, seconds)
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    report_errors(p)
    problems = problems_of(workload, [p])
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(p.latencies) / p.wall_s,
        "op_p50_ms": 1e3 * statistics.median(p.latencies) if p.latencies else float("nan"),
        "peak_rss_mb": peak_mb,
    }
    print(f"{workload.name}: {p.rounds} rounds, {p.attempted} attempted, {p.failed} failed, "
          f"{p.wall_s:.3f} s", file=sys.stderr)
    return result(problems, p.attempted, p.failed,
                  {name: (metrics[name], unit) for name, unit in END_TO_END})


def traced(workload, seconds: float) -> Dict[str, Any]:
    import tracing
    base = run_rounds(workload, seconds / 2)
    tracer = tracing.Tracer()
    restore = tracer.install()
    try:
        spans = run_rounds(workload, 0.0, rounds=base.rounds)
    finally:
        restore()
    report_errors(spans)
    layer = tracer.metrics(spans.rounds)
    layer["cli.import_s"] = child_seconds("import transpec.cli", IMPORT_REPEATS)
    layer["trace.overhead_s"] = (spans.wall_s - base.wall_s) / spans.rounds
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload.name}.jsonl")
    problems = problems_of(workload, [base, spans])
    return result(problems, base.attempted + spans.attempted, base.failed + spans.failed,
                  {name: (layer.get(name, 0.0), unit) for name, unit in tracing.METRICS})


def result(problems: List[str], attempted: int, failed: int, metrics) -> Dict[str, Any]:
    for line in problems[:20]:
        print(f"check: {line}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def run_all(args) -> int:
    """Each workload in its own process: a table of every metric, then one JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, v in res["metrics"].items():
            print(f"  {metric:<50} {v['value']:>16.6g} {v['unit']}")
            combined["metrics"][f"{name}.{metric}"] = v
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "transpec" / "__init__.py").is_file():
        print(f"error: no transpec sources at {SRC / 'transpec'}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("TRANSPEC_THREADS", None)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import workloads
    if Path(workloads.transpec.__file__).resolve().parent != SRC / "transpec":
        print("error: transpec was not imported from the checkout", file=sys.stderr)
        return 2
    workload = workloads.BY_NAME[args.workload](args.seed, in_process=bool(args.trace))
    res = (traced if args.trace else untraced)(workload, args.seconds)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
