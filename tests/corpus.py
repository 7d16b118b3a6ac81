"""Command corpus: named ``haltlab`` runs compared with another commit.

Each row of the table that ``_commands`` builds names one run of the
package: a command line (``python -m haltlab ...``) or a short
``python -c`` program.  The runner checks REV out into a temporary
``git worktree`` (local git only) and runs every row twice, once on that
tree's ``src`` and once on this checkout's, and compares stdout, stderr,
the exit code and every file the run leaves in its working directory
(the ``--out`` files)::

    python tests/corpus.py --against REV [--expect-change NAME ...]

Both sides read the same inputs: the fixtures of this checkout and the
scenarios the runner writes, found under ``inputs/`` in each run's own
working directory.  Both run under one environment: one BLAS thread,
``PYTHONHASHSEED=0``, and the OpenBLAS core type in use, which a
one-line ``OPENBLAS_VERBOSE=2`` probe logs first.  The bytes of
``search`` and ``nogo --random`` depend on the BLAS kernel, so the two
sides are only compared with each other, never with recorded files.

It prints one line per row and a summary line, and exits 1 on a
difference that no ``--expect-change`` names, on a named row whose
output did not change, or when a side does not import ``haltlab`` from
its own tree; it exits 2 on an unknown row name.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, NamedTuple, Tuple

REPO = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = "inputs/fixtures"


class Command(NamedTuple):
    name: str
    args: Tuple[str, ...]  # after the python executable


def _cli(name: str, *argv: str) -> Command:
    return Command(name, ("-m", "haltlab") + argv)


MACHINES = ("right_shift", "halted_tape_writer", "leaky_nonunitary", "halt_flip_witness",
            "malformed")
SCENARIOS = ("scenario_equal_halt", "scenario_shared_unequal", "scenario_permuted",
             "scenario_wide_permuted")
#: (M, S, seed) of the recorded generator tables in ``fixtures/generated``
GENERATED = ((1, 1, 0), (1, 3, 3), (2, 1, 4), (2, 2, 1), (3, 2, 2))
#: the interfere-wide benchmark scenario at these seeds, and the pairs read
WIDE_SEEDS = (1, 701, 702, 703)
WIDE_PAIRS = ("0,1", "1,0", "3,2")
#: the search grid at M=2, S=2, N=6: two restarts, both modes, two budgets
GRID_SEEDS = (0, 1, 2, 7, 2148) + tuple(range(5000, 5010))

_GENERATOR = """
import numpy as np
from haltlab.documents import dumps_machine
from haltlab.nogo import random_compliant_table
from haltlab.qtm import MachineDims, right_shift_table
for m, s, seed in {generated}:
    rng = np.random.default_rng([seed, 99])
    print(dumps_machine(random_compliant_table(MachineDims(m, s, 6), rng)))
for m, s, n in ((1, 1, 1), (1, 2, 6), (2, 2, 6), (3, 1, 5)):
    print(dumps_machine(right_shift_table(MachineDims(m, s, n))))
"""


def _commands() -> List[Command]:
    rows = []
    for machine in MACHINES:
        for command in ("check", "nogo"):
            rows.append(_cli(f"{command}-{machine}", command, f"{FIXTURES}/{machine}.json"))
    rows += [
        _cli("check-missing-file", "check", f"{FIXTURES}/no_such_file.json"),
        _cli("check-tol-3e-1", "check", f"{FIXTURES}/leaky_nonunitary.json", "--tol", "3e-1"),
        _cli("nogo-random-M1-S1", "nogo", "--random", "M=1,S=1,N=6", "--samples", "2"),
        _cli("nogo-random-M2-S2", "nogo", "--random", "M=2,S=2,N=6", "--samples", "3",
             "--seed", "4"),
        _cli("nogo-random-M3-S2", "nogo", "--random", "M=3,S=2,N=6", "--seed", "2"),
        _cli("nogo-random-N7-tol", "nogo", "--random", "M=2,S=2,N=7", "--samples", "2",
             "--seed", "9", "--tol", "1e-14"),
        _cli("nogo-random-past-the-cap", "nogo", "--random", "M=2,S=3,N=6"),
        _cli("nogo-random-N5", "nogo", "--random", "M=1,S=2,N=5"),
        _cli("search-trivial", "search", "--dims", "M=1,S=1,N=6", "--restarts", "2",
             "--iterations", "120"),
        _cli("search-M1-S2-N5", "search", "--dims", "M=1,S=2,N=5", "--restarts", "2",
             "--iterations", "200", "--seed", "1", "--out", "trace.csv"),
        _cli("search-M2-S2-N5", "search", "--dims", "M=2,S=2,N=5", "--restarts", "1",
             "--iterations", "300", "--seed", "2", "--out", "trace.csv"),
        _cli("search-M2-S2-N6-3-restarts", "search", "--dims", "M=2,S=2,N=6", "--restarts",
             "3", "--iterations", "400", "--seed", "3", "--out", "trace.csv"),
        _cli("search-no-ozawa-M1-S2-N6", "search", "--dims", "M=1,S=2,N=6", "--restarts", "2",
             "--iterations", "300", "--seed", "5", "--no-ozawa", "--out", "trace.csv"),
        _cli("search-one-iteration", "search", "--dims", "M=2,S=2,N=6", "--restarts", "1",
             "--iterations", "1", "--seed", "6", "--out", "trace.csv"),
        _cli("search-past-the-cap", "search", "--dims", "M=2,S=2,N=8", "--restarts", "1"),
        _cli("search-no-restarts", "search", "--dims", "M=2,S=2,N=6", "--restarts", "0"),
        _cli("search-rescued-2148", "search", "--dims", "M=2,S=2,N=6", "--restarts", "1",
             "--iterations", "500", "--seed", "2148", "--out", "trace.csv"),
        _cli("search-unwritable-out", "search", "--dims", "M=1,S=1,N=6", "--restarts", "1",
             "--iterations", "1", "--out", "missing/trace.csv"),
    ]
    for scenario in SCENARIOS:
        rows.append(_cli(f"interfere-{scenario}", "interfere", f"{FIXTURES}/{scenario}.json",
                         "--pair", "0,1"))
    rows.append(_cli("interfere-permuted-out", "interfere", f"{FIXTURES}/scenario_permuted.json",
                     "--pair", "1,0", "--out", "interfere.csv"))
    for seed in WIDE_SEEDS:
        for pair in WIDE_PAIRS:
            rows.append(_cli(f"interfere-wide-{seed}-{pair.replace(',', '-')}", "interfere",
                             f"inputs/wide_{seed}.json", "--pair", pair))
    for name in _error_scenarios():
        rows.append(_cli(f"interfere-{name}", "interfere", f"inputs/{name}.json",
                         "--pair", "0,2" if name == "pruned-third-branch" else "0,1"))
    rows.append(Command("dumps-machine-generated-and-shift",
                        ("-c", _GENERATOR.format(generated=GENERATED))))
    for seed in GRID_SEEDS:
        for mode in ("compliant", "no-ozawa"):
            for iterations in ("500", "60"):
                argv = ["search", "--dims", "M=2,S=2,N=6", "--restarts", "2", "--iterations",
                        iterations, "--seed", str(seed), "--out", "trace.csv"]
                rows.append(_cli(f"search-grid-{mode}-{iterations}-{seed}",
                                 *argv + (["--no-ozawa"] if mode == "no-ozawa" else [])))
    return rows


def _error_scenarios() -> Dict[str, dict]:
    """Hand-made scenario documents, each a variant of ``scenario_permuted``."""
    base = json.loads((REPO / "tests" / "fixtures" / "scenario_permuted.json").read_text())

    def variant(**changes):
        doc = json.loads(json.dumps(base))
        doc.update(changes)
        return doc

    pruned = variant(amps=base["amps"] + [[1e-17, 0.0]])
    pruned["branches"].append({"id": 3, "orbit": ["c0", "cdone"], "halt_step": 1})
    swap = {"0": 2, "2": 0}
    return {
        "pruned-third-branch": pruned,
        "overflowing-amplitude": variant(amps=[[1e200, 0.0], base["amps"][1]]),
        "map-for-a-missing-branch": variant(
            policy={"kind": "PermutedOrbit", "permutations": {"3": swap}}),
        "non-integer-policy-key": variant(
            policy={"kind": "PermutedOrbit", "permutations": {"x": swap}}),
        "two-keys-for-one-branch": variant(
            policy={"kind": "PermutedOrbit", "permutations": {"2": swap, "02": swap}}),
        "not-normalized": variant(amps=[[0.7, 0.0], [0.7, 0.0]]),
    }


def _write_inputs(directory: pathlib.Path) -> None:
    """The fixtures, the wide benchmark scenarios and the error scenarios."""
    sys.path.insert(0, str(REPO / "src"))
    import numpy as np
    from haltlab.ancilla import AncillaPolicy, BranchSpec
    from haltlab.documents import ScenarioDef, dumps_scenario

    shutil.copytree(REPO / "tests" / "fixtures", directory / "fixtures")
    for seed in WIDE_SEEDS:
        # built like perfbench's interfere-wide scenario: 32 branches to
        # t_max 200, odd branches swap ancilla offsets 0 and 2, and branch 0
        # halts two steps after branch 1
        n, t_max = 32, 200
        rng = np.random.default_rng(seed)
        steps = [int(h) for h in rng.integers(1, t_max, size=n)]
        steps[1] = int(rng.integers(1, t_max - 2))
        steps[0] = steps[1] + 2
        branches = tuple(
            BranchSpec(id=k, orbit=tuple(f"b{k}.{t}" for t in range(h)) + (f"b{k}.halted",),
                       halt_step=h)
            for k, h in enumerate(steps)
        )
        policy = AncillaPolicy.permuted({k: {0: 2, 2: 0} for k in range(1, n, 2)})
        scenario = ScenarioDef(branches, (complex(1.0 / math.sqrt(n)),) * n, policy, t_max)
        (directory / f"wide_{seed}.json").write_text(dumps_scenario(scenario), encoding="utf-8")
    for name, doc in _error_scenarios().items():
        (directory / f"{name}.json").write_text(json.dumps(doc, indent=2), encoding="utf-8")


def _environment() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "OPENBLAS_VERBOSE", "PYTHONWARNINGS")}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    return env


def _stamp(env: Dict[str, str]) -> str:
    """Python, numpy and scipy versions and the OpenBLAS core type in use."""
    probe = subprocess.run(
        [sys.executable, "-c", "import numpy, scipy; numpy.ones(2) @ numpy.ones(2); "
         "print(f'numpy {numpy.__version__}, scipy {scipy.__version__}')"],
        env=dict(env, OPENBLAS_VERBOSE="2"), capture_output=True, text=True,
    )
    lines = (probe.stdout + probe.stderr).splitlines()
    cores = sorted({line.split(":", 1)[1].strip() for line in lines if line.startswith("Core:")})
    versions = [line for line in lines if line.startswith("numpy")]
    return (f"python {sys.version.split()[0]}, {', '.join(versions)}, "
            f"OpenBLAS core {', '.join(cores) or 'not reported'}")


Outcome = Tuple[int, bytes, bytes, Dict[str, bytes]]


def _run(command: Command, side: pathlib.Path, src: pathlib.Path, env) -> Outcome:
    """Run ``command`` in a fresh directory under ``side``, on the package at ``src``."""
    cwd = side / command.name
    cwd.mkdir()
    (cwd / "inputs").symlink_to(side.parent / "inputs", target_is_directory=True)
    proc = subprocess.run([sys.executable, *command.args], cwd=cwd, capture_output=True,
                          env=dict(env, PYTHONPATH=str(src)), timeout=600)
    files = {str(p.relative_to(cwd)): p.read_bytes() for p in sorted(cwd.rglob("*"))
             if p.is_file() and p.relative_to(cwd).parts[0] != "inputs"}
    return proc.returncode, proc.stdout, proc.stderr, files


def _differences(before: Outcome, after: Outcome) -> List[str]:
    parts = [what for what, a, b in zip(("exit code", "stdout", "stderr"), before, after)
             if a != b]
    names = sorted(set(before[3]) | set(after[3]))
    return parts + [name for name in names if before[3].get(name) != after[3].get(name)]


def _imports_from(src: pathlib.Path, cwd: pathlib.Path, env) -> bool:
    """Whether ``python -c`` run in ``cwd``, as the rows are, imports ``haltlab`` from ``src``."""
    where = subprocess.run([sys.executable, "-c", "import haltlab; print(haltlab.__file__)"],
                           capture_output=True, text=True, env=dict(env, PYTHONPATH=str(src)),
                           cwd=cwd).stdout.strip()
    return bool(where) and pathlib.Path(where).resolve().is_relative_to(src.resolve())


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(REPO), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--against", required=True, metavar="REV",
                        help="commit to compare this checkout with")
    parser.add_argument("--expect-change", action="append", default=[], metavar="NAME",
                        help="a row whose output is meant to change (repeatable)")
    args = parser.parse_args(argv)
    commands = _commands()
    unknown = set(args.expect_change) - {c.name for c in commands}
    if unknown:
        print(f"unknown rows: {sorted(unknown)}")
        return 2
    rev = _git("rev-parse", "--verify", f"{args.against}^{{commit}}")
    env = _environment()
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="haltlab-corpus-") as tmp:
        tmp = pathlib.Path(tmp)
        tree = tmp / "rev"
        _git("worktree", "add", "--detach", "--quiet", str(tree), rev)
        try:
            (tmp / "inputs").mkdir()
            _write_inputs(tmp / "inputs")
            sides = ((tmp / "before", tree / "src"), (tmp / "after", REPO / "src"))
            for side, src in sides:
                side.mkdir()
                if not _imports_from(src, side, env):
                    print(f"the package would not import from {src}")
                    return 1
            print(f"env: {_stamp(env)}, 1 BLAS thread, PYTHONHASHSEED=0; "
                  f"{rev[:12]} against this checkout", flush=True)
            runs = [(c, side, src) for c in commands for side, src in sides]
            with ThreadPoolExecutor(max(1, min(os.cpu_count() or 1, 4))) as pool:
                outcomes = list(pool.map(lambda run: _run(*run, env), runs))
        finally:
            subprocess.run(["git", "-C", str(REPO), "worktree", "remove", "--force", str(tree)],
                           capture_output=True)
    failures = changed = 0
    for k, command in enumerate(commands):
        differences = _differences(outcomes[2 * k], outcomes[2 * k + 1])
        expected = command.name in args.expect_change
        changed += bool(differences)
        if not differences:
            status = "FAIL expected a change, found none" if expected else "same"
        else:
            status = ("changed as expected: " if expected else "DIFF ") + ", ".join(differences)
        failures += status.startswith(("DIFF", "FAIL"))
        print(f"{command.name}: {status}", flush=True)
    print(f"corpus: {len(commands)} commands against {rev[:12]}: "
          f"{len(commands) - changed} same, {changed} changed "
          f"({len(args.expect_change)} expected), {failures} failures, "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
