"""Benchmark of mdpreduce: one workload per process, driven as a closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload total-dense --seed 1 --seconds 15 --trace 0

One caller runs whole rounds of operations (each instance of the workload
once, with each of its methods), starting the next operation when the
previous one returns, until the operations have taken ``--seconds``
seconds.  Every answer is checked outside the timed region.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The traced run alternates untraced
and traced rounds, so its ``trace.overhead_s`` compares the two medians
within one process, and writes its spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import bench_trace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("total-dense", "average-sparse", "small-sweep", "files")

#: BLAS on one thread, set before numpy loads: the load comes from one
#: process, and OpenBLAS threads on a 2-core machine made the dense solves
#: use more CPU than wall time and spread run to run.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: setup_s is the median of three set-ups: this process's own, one in a
#: fresh child process before the timed loop and one after it, so that the
#: three fall in different stretches of the machine's load.


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(workload: str, seed: int):
    """Import mdpreduce and make the workload's instances.  Returns the
    seconds this took, the workload and its instances."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import bench_workloads
    import mdpreduce

    if Path(mdpreduce.__file__).resolve().parent != SRC / "mdpreduce":
        raise ImportError(f"mdpreduce imported from {mdpreduce.__file__}, not {SRC}")
    spec = bench_workloads.WORKLOADS[workload]
    cases = spec.setup(seed)
    return time.perf_counter() - start, spec, cases


def set_up_in_child(args) -> float:
    """Seconds a fresh process takes to do the same set-up."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


@dataclass
class Tally:
    """Operations attempted, failed (raised, or answered wrongly) and
    answered wrongly, and the sizes of each instance's first answer."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    shapes: dict[int, dict] = field(default_factory=dict)


def run_op(op, tally: Tally, tracer):
    """Run one operation, time it, check its answer.  Returns an OpRecord,
    or ``None`` when the operation raised or its answer is wrong."""
    gc.collect()
    mark = len(tracer.spans) if tracer else 0
    tally.attempted += 1
    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception:
        tally.failed += 1
        traceback.print_exc(file=sys.stderr)
        return None
    seconds = time.perf_counter() - start
    cpu_seconds = time.process_time() - cpu0
    try:
        reason = op.check(result)
    except (ArithmeticError, AttributeError, LookupError, TypeError, ValueError) as exc:
        reason = f"the check cannot read the answer: {exc!r}"
    if reason is not None:
        tally.failed += 1
        tally.wrong += 1
        print(f"wrong answer on instance {op.case} ({op.method}): {reason}", file=sys.stderr)
        return None
    shape = op.shape(result)
    tally.shapes.setdefault(op.case, shape)
    spans = tracer.spans[mark:] if tracer else []
    return bench_trace.OpRecord(seconds, cpu_seconds, op.method, shape, spans)


def warm_up(ops) -> None:
    """One untimed operation of every method the workload runs."""
    seen = set()
    for op in ops:
        if op.method not in seen:
            seen.add(op.method)
            op.run()


def timed_loop(ops, seconds: float, tally: Tally, tracer=None):
    """Whole rounds until the operations have taken ``seconds``.  With a
    tracer, an untraced and a traced round alternate until each side has
    taken half of ``seconds``.  Returns the untraced and the traced
    records."""
    sides = (None,) if tracer is None else (None, tracer)
    budget = seconds / len(sides)
    records = [[] for _ in sides]
    spent = [0.0 for _ in sides]
    while min(spent) < budget:
        for i, side in enumerate(sides):
            if side is not None:
                side.install()
            try:
                for op in ops:
                    record = run_op(op, tally, side)
                    if record is not None:
                        records[i].append(record)
                        spent[i] += record.seconds
            finally:
                if side is not None:
                    side.remove()
    return records[0], (records[1] if tracer is not None else [])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_trace(args, sizes, metrics, records) -> None:
    OUT.mkdir(exist_ok=True)
    ops = [
        {
            "seconds": r.seconds,
            "method": r.method,
            "spans": [
                {
                    "name": s.name,
                    "parent": s.parent,
                    "offset_s": s.start - (r.spans[0].start if r.spans else s.start),
                    "seconds": s.seconds,
                    "method": s.method,
                    "iterations": s.iterations,
                }
                for s in r.spans
            ],
        }
        for r in records
    ]
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "sizes": sizes,
                    "metrics": metrics, "ops": ops}) + "\n"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(ONE_THREAD)
    if not (SRC / "mdpreduce" / "__init__.py").is_file():
        print(f"error: no mdpreduce sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": set_up(args.workload, args.seed)[0]}))
        return 0

    setup_s, spec, cases = set_up(args.workload, args.seed)
    samples = [setup_s] if args.trace else [setup_s, set_up_in_child(args)]

    ops = spec.make_round(cases)
    warm_up(ops)
    gc.collect()
    # Set-up objects (every instance the run keeps) leave the collector's
    # view, so a collection during an operation costs what a process
    # holding one instance would pay, not what this harness holds.
    gc.freeze()

    tally = Tally()
    tracer = bench_trace.Tracer() if args.trace else None
    plain, traced = timed_loop(ops, args.seconds, tally, tracer)
    if not args.trace:
        samples.append(set_up_in_child(args))
    if not plain or (tracer is not None and not traced):
        print("error: no operation returned a correct answer", file=sys.stderr)
        return 1

    sizes = [tally.shapes[i] for i in sorted(tally.shapes)]
    print(json.dumps({"workload": args.workload, "seed": args.seed, "sizes": sizes}))
    if tracer is None:
        values = bench_trace.end_to_end(plain)
        values["setup_s"] = statistics.median(samples)
        values["peak_rss_mb"] = peak_rss_mb()
        units = {"setup_s": "s", "op_s.p50": "s", "ops_per_s": "1/s",
                 "cpu_per_op_s": "s", "peak_rss_mb": "MB"}
    else:
        overhead = (bench_trace.median([r.seconds for r in traced])
                    - bench_trace.median([r.seconds for r in plain]))
        values = bench_trace.per_layer(traced, overhead)
        units = dict(bench_trace.PER_LAYER)
        write_trace(args, sizes, values, traced)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": tally.wrong == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
