"""Spans around haltlab's public functions, recorded from outside the program.

``Tracer.install`` replaces every public function of the layer modules,
in every ``haltlab`` module that binds it, with a wrapper that records a
span (name, start, end, parent) around each call; ``uninstall`` puts the
originals back.  Spans stay in memory and are reduced to per-layer
metrics by :func:`layer_metrics` when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

import scipy.optimize

from haltlab import ancilla, cli, documents, hilbert, nogo, qtm, search

#: the layers, in dependency order from the command line down
LAYERS = (cli, documents, search, nogo, qtm, ancilla, hilbert)

#: public functions left unwrapped.  ``cli.build_parser`` stays inside
#: ``cli.main``'s self time (argparse is the cost that metric tracks);
#: ``cli.run_main`` exits the interpreter and is never called in-process.
UNWRAPPED = {"cli.build_parser", "cli.run_main"}

#: a restart is feasible when its certified deviation is at most this
FEASIBLE_DEVIATION = 1e-8

#: bytes of one complex128 entry of a dense D x D matrix
COMPLEX_BYTES = 16


class Span:
    __slots__ = ("name", "group", "parent", "start", "end", "child_s", "info")

    def __init__(self, name: str, group, parent: Optional["Span"]):
        self.name = name
        self.group = group
        self.parent = parent
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.info: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the time its child spans cover (children never overlap)."""
        return self.duration - self.child_s


def _haltlab_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "haltlab" or name.startswith("haltlab."))]


def _span_info(name: str) -> Optional[Callable]:
    """Extra fields some spans keep, read from the call's result."""
    if name == "search.lbfgs":
        return lambda res: {"nit": int(res.nit), "nfev": int(res.nfev)}
    if name == "qtm.check_global_unitarity":
        return lambda res: {"deviation": res.max_deviation}
    if name == "qtm.build_global_matrix":
        return lambda res: {"dim": int(res.shape[0])}
    return None


def _targets():
    """(span name, original callable, [(owner, attribute)]) to patch."""
    modules = _haltlab_modules()
    targets = []
    for layer in LAYERS:
        short = layer.__name__.rsplit(".", 1)[-1]
        for attr in layer.__all__:
            fn = getattr(layer, attr)
            name = f"{short}.{attr}"
            if not inspect.isfunction(fn) or fn.__module__ != layer.__name__:
                continue
            if name in UNWRAPPED:
                continue
            owners = [(m, a) for m in modules for a, v in vars(m).items() if v is fn]
            targets.append((name, fn, owners))
    init = qtm.TransitionTable.__init__
    targets.append(("qtm.TransitionTable", init, [(qtm.TransitionTable, "__init__")]))
    # haltlab.search reaches L-BFGS through the scipy.optimize attribute
    targets.append(("search.lbfgs", scipy.optimize.minimize, [(scipy.optimize, "minimize")]))
    return targets


class Tracer:
    """Records spans while installed; ``group`` tags them with the current op."""

    def __init__(self):
        self.spans: List[Span] = []
        self.group = None
        self._stack: List[Span] = []
        self._restore: List[tuple] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        info = _span_info(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = Span(name, tracer.group, stack[-1] if stack else None)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
                if span.parent is not None:
                    span.parent.child_s += span.duration
            if info is not None:
                span.info = info(result)
            return result

        return wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for name, fn, owners in _targets():
            wrapper = self._wrap(name, fn)
            for owner, attr in owners:
                self._restore.append((owner, attr, fn))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()
        self._stack.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


class MissingSpanError(RuntimeError):
    """A span the workload must exercise never fired."""


def layer_metrics(spans: Sequence[Span], ops: int, required: Sequence[str]) -> Dict[str, float]:
    """Per-layer metrics of one traced run over ``ops`` ops.

    ``*_per_op`` sums spans of the ops (group is an op index) and divides by
    ``ops``; ``s_per_call`` averages every call, set-up included.  A span
    in ``required`` that never fired raises :class:`MissingSpanError`.
    """
    fired = {s.name for s in spans}
    missing = [name for name in required if name not in fired]
    if missing:
        raise MissingSpanError(f"spans never fired: {', '.join(missing)}")

    op_spans = [s for s in spans if isinstance(s.group, int)]

    def named(name, pool):
        return [s for s in pool if s.name == name]

    def calls_per_op(name):
        return len(named(name, op_spans)) / ops

    def s_per_call(name):
        calls = named(name, spans)
        return statistics.fmean(s.duration for s in calls) if calls else 0.0

    def s_per_op(name):
        return sum(s.duration for s in named(name, op_spans)) / ops

    def self_s_per_op(name):
        return sum(s.self_s for s in named(name, op_spans)) / ops

    def info_per_op(name, key):
        return sum(s.info[key] for s in named(name, op_spans)) / ops

    builds = named("qtm.build_global_matrix", op_spans)
    restarts = [s for s in named("qtm.check_global_unitarity", op_spans)
                if s.parent is not None and s.parent.name == "search.search_max_halting_mass"]
    feasible = sum(s.info["deviation"] <= FEASIBLE_DEVIATION for s in restarts)

    return {
        "traced_ops": ops,
        "cli.main.self_s_per_op": self_s_per_op("cli.main"),
        "documents.load_machine.s_per_call": s_per_call("documents.load_machine"),
        "documents.load_scenario.s_per_call": s_per_call("documents.load_scenario"),
        "qtm.TransitionTable.s_per_call": s_per_call("qtm.TransitionTable"),
        "qtm.sparse_global_matrix.s_per_call": s_per_call("qtm.sparse_global_matrix"),
        "qtm.check_global_unitarity.calls_per_op": calls_per_op("qtm.check_global_unitarity"),
        "qtm.check_global_unitarity.self_s_per_op": self_s_per_op("qtm.check_global_unitarity"),
        "qtm.check_ozawa_compliance.s_per_call": s_per_call("qtm.check_ozawa_compliance"),
        "qtm.build_global_matrix.calls_per_op": calls_per_op("qtm.build_global_matrix"),
        "qtm.build_global_matrix.s_per_call": s_per_call("qtm.build_global_matrix"),
        "qtm.dense_bytes_per_op": sum(COMPLEX_BYTES * s.info["dim"] ** 2 for s in builds) / ops,
        "nogo.verify_nogo.self_s_per_op": self_s_per_op("nogo.verify_nogo"),
        "nogo.random_compliant_table.s_per_call": s_per_call("nogo.random_compliant_table"),
        "nogo.halting_mass_from_table.s_per_call": s_per_call("nogo.halting_mass_from_table"),
        "search.search_max_halting_mass.self_s_per_op":
            self_s_per_op("search.search_max_halting_mass"),
        "search.project_to_unitary_table.self_s_per_op":
            self_s_per_op("search.project_to_unitary_table"),
        "search.lbfgs.s_per_op": s_per_op("search.lbfgs"),
        "search.lbfgs.nit_per_op": info_per_op("search.lbfgs", "nit"),
        "search.lbfgs.nfev_per_op": info_per_op("search.lbfgs", "nfev"),
        "search.penalty_value_grad.calls_per_op": calls_per_op("search.penalty_value_grad"),
        "search.penalty_value_grad.s_per_call": s_per_call("search.penalty_value_grad"),
        "search.restarts_run": len(restarts),
        "search.feasible_restart_ratio": feasible / len(restarts) if restarts else 0.0,
        "ancilla.run_superposition.calls_per_op": calls_per_op("ancilla.run_superposition"),
        "ancilla.run_superposition.s_per_call": s_per_call("ancilla.run_superposition"),
        "ancilla.coherence.self_s_per_op": self_s_per_op("ancilla.coherence"),
        "ancilla.monitoring_effect.self_s_per_op": self_s_per_op("ancilla.monitoring_effect"),
        "hilbert.reduced_density.calls_per_op": calls_per_op("hilbert.reduced_density"),
        "hilbert.reduced_density.s_per_call": s_per_call("hilbert.reduced_density"),
    }
