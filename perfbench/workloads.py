"""The three benchmark workloads: inputs made from a seed, CLI ops, output checks.

Each workload writes its inputs with haltlab's own API, names the
``haltlab`` command lines of op ``i`` and judges their output.  Only the
benchmark judges: every bound below is the one the acceptance suite uses,
and a check that does not hold marks the op as failed.

Sizes come in two sets.  ``full`` is what ``run.py`` measures; ``tiny``
exercises the same code paths in well under a second per op and is what
the benchmark's own tests run.
"""

from __future__ import annotations

import json
import math
import os
from typing import List, Sequence, Tuple

import numpy as np

from haltlab import documents, nogo
from haltlab.ancilla import AncillaPolicy, BranchSpec
from haltlab.documents import ScenarioDef
from haltlab.qtm import MachineDims

#: acceptance bounds the checks use (README "Tests and acceptance suite")
NOGO_TOL = 1e-10
SEARCH_MASS_TOL = 1e-6
SEARCH_DEVIATION_TOL = 1e-8
WITNESS_MIN_MASS = 0.5
INTERFERE_TOL = 1e-14

#: what every command of every op must exit with
EXPECTED_EXIT = 0

#: (exit code, captured stdout) of one ``haltlab.cli.main`` call
Output = Tuple[int, str]


def _dims_text(dims: MachineDims) -> str:
    return f"M={dims.M},S={dims.S},N={dims.N}"


def _exit_problems(outputs: Sequence[Output]) -> List[str]:
    return [
        f"command {k} exited {code}, expected {EXPECTED_EXIT}"
        for k, (code, _) in enumerate(outputs)
        if code != EXPECTED_EXIT
    ]


class Workload:
    """One closed-loop workload: op ``i`` is a short list of CLI calls.

    ``cycle`` is the number of distinct ops; op ``i`` and op ``i + cycle``
    are identical, so counters averaged over whole cycles repeat exactly.
    """

    name = ""
    cycle = 1
    #: size name -> parameters
    SIZES: dict = {}
    #: spans the traced run must see at least once on this workload
    required_spans: Tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: str, size: str = "full"):
        if size not in self.SIZES:
            raise ValueError(f"unknown size {size!r}")
        self.seed = seed
        self.workdir = workdir
        self.size = self.SIZES[size]

    def prepare(self) -> None:
        """Write the inputs; deterministic in the seed, safe to repeat."""

    def warm_up_commands(self) -> List[List[str]]:
        return []

    def commands(self, i: int) -> List[List[str]]:
        raise NotImplementedError

    def check(self, i: int, outputs: Sequence[Output]) -> List[str]:
        raise NotImplementedError

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)


class NogoFiles(Workload):
    """``check F`` then ``nogo F`` on random compliant machine documents."""

    name = "nogo-files"
    SIZES = {
        "full": {"dims": MachineDims(2, 2, 6), "documents": 16},
        "tiny": {"dims": MachineDims(1, 2, 6), "documents": 2},
    }
    required_spans = (
        "cli.main",
        "documents.load_machine",
        "qtm.TransitionTable",
        "qtm.sparse_global_matrix",
        "qtm.check_global_unitarity",
        "qtm.check_ozawa_compliance",
        "nogo.verify_nogo",
        "nogo.random_compliant_table",
    )

    def __init__(self, seed, workdir, size="full"):
        super().__init__(seed, workdir, size)
        self.cycle = self.size["documents"]

    def _doc(self, i: int) -> str:
        return self._path(f"machine-{i % self.cycle}.json")

    def prepare(self):
        dims = self.size["dims"]
        for i in range(self.cycle):
            table = nogo.random_compliant_table(dims, np.random.default_rng([self.seed, i]))
            with open(self._doc(i), "w", encoding="utf-8") as handle:
                handle.write(documents.dumps_machine(table))

    def warm_up_commands(self):
        return self.commands(0)

    def commands(self, i):
        return [["check", self._doc(i)], ["nogo", self._doc(i)]]

    def check(self, i, outputs):
        problems = _exit_problems(outputs)
        if problems:
            return problems
        check_doc = json.loads(outputs[0][1])
        if check_doc["passed"] is not True:
            problems.append("check did not pass")
        if not check_doc["unitarity"]["max_deviation"] <= NOGO_TOL:
            problems.append(f"unitarity deviation {check_doc['unitarity']['max_deviation']!r}")
        report = json.loads(outputs[1][1])["report"]
        if report["passed"] is not True:
            problems.append("nogo did not pass")
        for key in ("max_residual", "halting_mass"):
            if not report[key] <= NOGO_TOL:
                problems.append(f"nogo {key} {report[key]!r} above {NOGO_TOL}")
        return problems


class SearchProof(Workload):
    """One-restart searches; every other op drops halted-sector compliance."""

    name = "search-proof"
    cycle = 2
    SIZES = {
        "full": {"dims": MachineDims(2, 2, 6), "iterations": 500},
        "tiny": {"dims": MachineDims(1, 2, 5), "iterations": 200},
    }
    required_spans = (
        "cli.main",
        "qtm.build_global_matrix",
        "qtm.check_global_unitarity",
        "nogo.halting_mass_from_table",
        "search.search_max_halting_mass",
        "search.project_to_unitary_table",
        "search.penalty_value_grad",
        "search.lbfgs",
    )

    def op_seed(self, i: int) -> int:
        return self.seed * 1000 + i

    @staticmethod
    def _search(dims, iterations, seed, witness):
        argv = ["search", "--dims", _dims_text(dims), "--restarts", "1",
                "--iterations", str(iterations), "--seed", str(seed)]
        return argv + ["--no-ozawa"] if witness else argv

    def warm_up_commands(self):
        tiny = self.SIZES["tiny"]
        return [self._search(tiny["dims"], tiny["iterations"], self.seed, witness=False)]

    def commands(self, i):
        return [self._search(self.size["dims"], self.size["iterations"],
                             self.op_seed(i), witness=i % 2 == 1)]

    def check(self, i, outputs):
        problems = _exit_problems(outputs)
        if problems:
            return problems
        doc = json.loads(outputs[0][1])
        mass = doc["best_mass"]
        deviation = doc["best_unitarity_deviation"]
        if not deviation <= SEARCH_DEVIATION_TOL:
            problems.append(f"unitarity deviation {deviation!r} above {SEARCH_DEVIATION_TOL}")
        if i % 2 == 1:
            if not mass >= WITNESS_MIN_MASS:
                problems.append(f"--no-ozawa mass {mass!r} below {WITNESS_MIN_MASS}")
        elif not mass <= SEARCH_MASS_TOL:
            problems.append(f"compliant mass {mass!r} above {SEARCH_MASS_TOL}")
        return problems


class InterfereWide(Workload):
    """``interfere`` on one wide permuted-orbit scenario, pair (0, 1)."""

    name = "interfere-wide"
    SIZES = {
        # 32 branches keep an op near 1.5 s on a 2-CPU box, about twenty ops
        # per 30 s window; with 64 (about 3 s) the median of some ten ops
        # spread by a quarter from run to run.
        "full": {"branches": 32, "t_max": 200},
        "tiny": {"branches": 4, "t_max": 12},
    }
    required_spans = (
        "cli.main",
        "documents.load_scenario",
        "ancilla.run_superposition",
        "ancilla.coherence",
        "ancilla.monitoring_effect",
        "hilbert.reduced_density",
    )
    #: post-halt ancilla map of every odd branch: swap offsets 0 and 2
    SWAP = {0: 2, 2: 0}

    def __init__(self, seed, workdir, size="full"):
        super().__init__(seed, workdir, size)
        self.halt_steps = self._draw_halt_steps(**self.size)

    def _draw_halt_steps(self, branches: int, t_max: int) -> List[int]:
        rng = np.random.default_rng(self.seed)
        steps = [int(h) for h in rng.integers(1, t_max, size=branches)]
        # Branch 0 halts two steps after branch 1, whose ancilla runs the
        # swapped sequence: both then sit at ancilla index 0 at t = steps[0],
        # so the checked pair shows a transient coherence revival and a
        # non-zero monitoring delta, not only zeros after halting.
        steps[1] = int(rng.integers(1, t_max - 2))
        steps[0] = steps[1] + 2
        return steps

    def _scenario(self, branches: int, t_max: int, halt_steps: Sequence[int]) -> ScenarioDef:
        specs = tuple(
            BranchSpec(id=k, orbit=tuple(f"b{k}.{t}" for t in range(h)) + (f"b{k}.halted",),
                       halt_step=h)
            for k, h in enumerate(halt_steps)
        )
        amp = complex(1.0 / math.sqrt(branches))
        policy = AncillaPolicy.permuted({k: self.SWAP for k in range(1, branches, 2)})
        return ScenarioDef(branches=specs, amps=(amp,) * branches, policy=policy, t_max=t_max)

    def prepare(self):
        tiny = self.SIZES["tiny"]
        scenarios = {
            "scenario.json": self._scenario(halt_steps=self.halt_steps, **self.size),
            "warm-up.json": self._scenario(halt_steps=range(1, tiny["branches"] + 1), **tiny),
        }
        for name, scenario in scenarios.items():
            with open(self._path(name), "w", encoding="utf-8") as handle:
                handle.write(documents.dumps_scenario(scenario))

    def warm_up_commands(self):
        return [["interfere", self._path("warm-up.json"), "--pair", "0,1",
                 "--out", self._path("warm-up.csv")]]

    def commands(self, i):
        return [["interfere", self._path("scenario.json"), "--pair", "0,1",
                 "--out", self._path("interfere.csv")]]

    def _environment(self, k: int, t: int) -> Tuple[int, int]:
        """(halt bit, ancilla index) of branch k at step t."""
        h = self.halt_steps[k]
        if t < h:
            return 0, 0
        offset = t - h
        index = self.SWAP.get(offset, offset) if k % 2 == 1 else offset
        return 1, index

    def expected_rows(self) -> List[Tuple[int, float, float]]:
        """Closed form of every CSV row for the pair (0, 1)."""
        amp = 1.0 / math.sqrt(self.size["branches"])
        cross = amp * amp
        h0, h1 = self.halt_steps[0], self.halt_steps[1]
        rows = []
        for t in range(self.size["t_max"] + 1):
            agree = self._environment(0, t) == self._environment(1, t)
            records_differ = not (h0 == h1 or (h0 > t and h1 > t))
            coherence = cross if agree else 0.0
            delta = cross if agree and records_differ else 0.0
            rows.append((t, coherence, delta))
        return rows

    def check(self, i, outputs):
        problems = _exit_problems(outputs)
        if problems:
            return problems
        csv = self._path("interfere.csv")
        with open(csv, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        os.remove(csv)  # the next op must write its own
        if lines[0] != "t,abs_coherence,monitored_delta":
            return [f"unexpected CSV header {lines[0]!r}"]
        expected = self.expected_rows()
        if len(lines) - 1 != len(expected):
            return [f"{len(lines) - 1} CSV rows, expected {len(expected)}"]
        for line, (t, coherence, delta) in zip(lines[1:], expected):
            t_text, coh_text, delta_text = line.split(",")
            if int(t_text) != t:
                problems.append(f"row for t={t} reads t={t_text}")
            elif abs(float(coh_text) - coherence) > INTERFERE_TOL:
                problems.append(f"t={t}: |coherence| {coh_text}, closed form {coherence!r}")
            elif abs(float(delta_text) - delta) > INTERFERE_TOL:
                problems.append(f"t={t}: delta {delta_text}, closed form {delta!r}")
        return problems


WORKLOADS = {cls.name: cls for cls in (NogoFiles, SearchProof, InterfereWide)}
