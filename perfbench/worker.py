"""One workload in its own process: set up, then a closed loop of ops.

``run.py`` starts this script with BLAS pinned to one thread and ``src``
on ``PYTHONPATH``, and deletes ``--workdir`` after it ends.  A single
client calls ``haltlab.cli.main`` in-process and starts the next op only
after the previous one returned and its output was checked.  The last
line of standard output is one JSON object with the set-up time, the
measured figures and the environment.

Untraced, the loop runs ops 0, 1, 2, ... until ``--seconds`` have passed.
Traced, it first repeats the input generation under the tracer, then
alternates one untraced and one traced cycle of the workload's distinct
ops until the window ends.  Per-op counters are thus averages over
identical cycles, and the untraced cycles, run under the same conditions,
give the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import List

import numpy as np
import scipy

from haltlab import cli
from run import THREAD_VARS
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS, Workload

#: problems kept per run for the report; the count is always complete
MAX_PROBLEMS = 5
#: op_tail_s is the highest percentile with this many ops beyond it
TAIL_BEYOND = 10


@dataclass
class OpRecord:
    index: int
    wall_s: float
    cpu_s: float
    problems: List[str] = field(default_factory=list)


def run_commands(commands) -> list:
    """(exit code, stdout) of each ``haltlab`` command line, run in-process."""
    outputs = []
    for argv in commands:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
        outputs.append((code, buffer.getvalue()))
    return outputs


def run_op(workload: Workload, i: int) -> OpRecord:
    commands = workload.commands(i)
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    try:
        outputs = run_commands(commands)
    except Exception:  # an op that raises is a failed op; the loop goes on
        outputs, problems = None, [traceback.format_exc()]
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    if outputs is not None:
        try:
            problems = workload.check(i, outputs)
        except Exception:  # output the check cannot read is a failed op
            problems = [traceback.format_exc()]
    return OpRecord(i, wall, cpu, problems)


def set_up(workload: Workload) -> None:
    os.makedirs(workload.workdir, exist_ok=True)
    workload.prepare()
    run_commands(workload.warm_up_commands())  # judged only in the timed ops


def end_to_end(records: List[OpRecord], window_s: float) -> tuple:
    """End-to-end figures of one untraced window, and how they were taken."""
    walls = sorted(r.wall_s for r in records)
    n = len(walls)
    median = statistics.median(walls)
    if n > 2 * TAIL_BEYOND:
        tail, percentile = walls[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    else:
        tail, percentile = median, 50.0
    succeeded = sum(not r.problems for r in records)
    metrics = {
        "ops_per_s": succeeded / window_s,
        "op_p50_s": median,
        "op_tail_s": tail,
        "cpu_s_per_op": statistics.median(r.cpu_s for r in records),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"ops": n, "window_s": window_s, "op_tail_percentile": percentile,
              "failed_op_ratio": (n - succeeded) / n}
    return metrics, detail


def timed_run(workload: Workload, seconds: float):
    records = []
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        records.append(run_op(workload, len(records)))
    metrics, detail = end_to_end(records, time.perf_counter() - start)
    return records, metrics, detail


def traced_run(workload: Workload, seconds: float):
    tracer = Tracer()
    with tracer:
        tracer.group = "setup"
        workload.prepare()
        tracer.group = None
    start = time.perf_counter()
    plain: List[OpRecord] = []
    traced: List[OpRecord] = []
    while not traced or time.perf_counter() - start < seconds:
        plain.extend(run_op(workload, i) for i in range(workload.cycle))
        with tracer:
            for i in range(workload.cycle):
                tracer.group = len(traced)
                traced.append(run_op(workload, i))
            tracer.group = None

    metrics = layer_metrics(tracer.spans, len(traced), workload.required_spans)
    metrics["trace_overhead_ratio"] = (
        statistics.median(r.wall_s for r in traced) / statistics.median(r.wall_s for r in plain)
    )
    detail = {"untraced_ops": len(plain), "traced_ops": len(traced), "spans": len(tracer.spans),
              "computed_not_measured": ["qtm.dense_bytes_per_op"]}
    return plain + traced, metrics, detail


#: fields of numpy's BLAS/LAPACK build record worth keeping (the rest are paths)
BUILD_FIELDS = ("name", "version", "openblas configuration")


def environment() -> dict:
    build = np.show_config(mode="dicts")["Build Dependencies"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **{lib: {k: build[lib][k] for k in BUILD_FIELDS if k in build[lib]}
           for lib in ("blas", "lapack")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, report the set-up time and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    set_up(workload)
    result = {"setup_s": time.monotonic() - args.spawned_at}
    if not args.setup_only:
        measure = traced_run if args.trace else timed_run
        records, metrics, detail = measure(workload, args.seconds)
        problems = [f"op {r.index}: {p}" for r in records for p in r.problems]
        result.update(
            metrics=metrics,
            detail=detail,
            attempted=len(records),
            failed=sum(bool(r.problems) for r in records),
            problems=problems[:MAX_PROBLEMS],
            env=environment(),
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
