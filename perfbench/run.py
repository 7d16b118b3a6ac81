"""haltlab benchmark: one workload, timed end to end or traced layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload nogo-files --seed 1 --seconds 30 --trace 0

The workload runs in a child process (``worker.py``) with BLAS pinned to
one thread.  With ``--trace 0`` the set-up is also repeated in separate
short-lived processes and its median reported.  Standard output ends with
one JSON line holding ``correct``, ``attempted``, ``failed`` and the
metrics that ``BENCHMARK.json`` lists for the mode; the lines before it
record the environment and how the figures were taken.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: inputs the workers write; each run deletes its own directory
WORK_ROOT = ROOT / ".perfbench_work"
WORKLOADS = ("nogo-files", "search-proof", "interfere-wide")

#: set-up samples behind the reported ``setup_s`` median (the timed run is one)
SETUP_SAMPLES = 5
#: the whole command must end within this many seconds
BUDGET_S = 175.0
#: BLAS/OpenMP pools are pinned to this many threads before numpy loads
PINNED_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = PINNED_THREADS
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def spawn(args, deadline: float, setup_only: bool) -> dict:
    """Run ``worker.py`` once in a fresh work directory and return its result object."""
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}-{time.monotonic_ns()}"
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", str(workdir)]
    if setup_only:
        command.append("--setup-only")
    command += ["--spawned-at", repr(time.monotonic())]
    try:
        done = subprocess.run(command, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{args.workload} worker ran past the time budget") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0:
        raise BenchmarkError(f"{args.workload} worker exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{args.workload} worker printed no result")
    return json.loads(lines[-1])


def run(args) -> dict:
    deadline = time.monotonic() + BUDGET_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setup.append(spawn(args, deadline, setup_only=True)["setup_s"])
    result = spawn(args, deadline, setup_only=False)
    setup.append(result["setup_s"])
    measured = dict(result["metrics"], setup_s=statistics.median(setup))

    missing = [m["name"] for m in listed if m["name"] not in measured]
    if missing:
        raise BenchmarkError(f"no value measured for {', '.join(missing)}")
    print(json.dumps({"env": result["env"]}))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "setup_samples_s": setup, **result["detail"],
                      "problems": result["problems"]}))
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in listed},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="haltlab benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must lie in (0, 60]")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "haltlab" / "__init__.py").is_file():
        print(f"error: no haltlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        line = run(args)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            WORK_ROOT.rmdir()
        except OSError:  # absent, or another run is still using it
            pass
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
