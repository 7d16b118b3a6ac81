"""Command-line front end.

Exit codes: 0 the command ran and every check passed, 1 a semantic check
failed (non-unitary machine, compliance violation, failed residuals, no
search restart within the unitarity bound, a report figure that is not a
finite number), 2 a usage or parse error.  All output is a deterministic
function of the arguments, input files and seed: its bytes for a fixed
numpy/scipy/BLAS build, BLAS kernel and thread count; its exit code and
decisions (``passed``, ``worst_sample``, ``best_restart``) on every
kernel, except a ``best_restart`` between masses tied to the last ulp.
Standard output is strict JSON or CSV: a report that would need
``Infinity`` or ``NaN`` is not printed, and one ``error:`` line on
stderr names the cause instead.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import re
import sys
from dataclasses import asdict

import numpy as np

from .ancilla import BranchModelError, coherence, monitoring_effect, run_superposition
from .documents import (
    FORMAT_VERSION,
    DocumentError,
    load_machine,
    load_scenario,
)
from .nogo import (
    PreconditionError,
    random_compliant_table,
    require_tape_cells,
    verify_nogo,
)
from .qtm import (
    MachineDims,
    MachineError,
    check_global_unitarity,
    check_ozawa_compliance,
)
from .search import FEASIBLE_DEVIATION, search_max_halting_mass

__all__ = ["main", "run_main", "build_parser"]


def _dims_argument(text: str) -> MachineDims:
    parts = {}
    try:
        for item in text.split(","):
            name, value = item.split("=")
            if name.strip() in parts:
                raise ValueError(f"{name} repeated")
            parts[name.strip()] = int(value)
        return MachineDims(**parts)  # an unknown or missing name is a TypeError
    except (ValueError, TypeError, MachineError):
        raise argparse.ArgumentTypeError(
            f"expected dims like 'M=2,S=2,N=6', got {text!r}"
        ) from None


def _pair_argument(text: str):
    try:
        i, j = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a pair like '0,1', got {text!r}") from None
    return i, j


class _Parser(argparse.ArgumentParser):
    """An argument parser that takes '-' and a digit as the start of a value.

    argparse's own pattern for negative numbers covers only forms like
    '-1' and '-0.5', so it read ``--tol -1e-3`` as an option and failed
    with "expected one argument" before the range check could run.
    Subparsers are built with their parent's class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="haltlab",
        description="Checks and simulations for halting schemes of quantum Turing machines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="unitarity and halted-sector compliance of a machine")
    p_check.add_argument("machine", help="machine document (JSON)")
    p_check.add_argument("--tol", type=float, default=1e-10, help="unitarity tolerance")
    p_check.set_defaults(func=cmd_check)

    p_nogo = sub.add_parser("nogo", help="verify the zero-halting conclusion")
    p_nogo.add_argument("machine", nargs="?", help="machine document (JSON)")
    p_nogo.add_argument("--random", type=_dims_argument, metavar="DIMS",
                        help="verify randomly generated compliant unitary machines, e.g. 'M=2,S=2,N=6'")
    p_nogo.add_argument("--samples", type=int, default=1, help="number of random machines")
    p_nogo.add_argument("--seed", type=int, default=0)
    p_nogo.add_argument("--tol", type=float, default=1e-10)
    p_nogo.set_defaults(func=cmd_nogo)

    p_search = sub.add_parser("search", help="penalty search for the largest halting mass")
    p_search.add_argument("--dims", type=_dims_argument, required=True, metavar="DIMS")
    p_search.add_argument("--restarts", type=int, default=20)
    p_search.add_argument("--iterations", type=int, default=500)
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--no-ozawa", action="store_true",
                          help="drop the halted-sector compliance constraint")
    p_search.add_argument("--out", help="write the objective trace as CSV to this path")
    p_search.set_defaults(func=cmd_search)

    p_inter = sub.add_parser("interfere", help="per-step coherence and monitoring effect")
    p_inter.add_argument("scenario", help="scenario document (JSON)")
    p_inter.add_argument("--pair", type=_pair_argument, default=(0, 1), metavar="I,J",
                         help="branch pair, list positions (default 0,1)")
    p_inter.add_argument("--out", help="write the CSV here instead of stdout")
    p_inter.set_defaults(func=cmd_interfere)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built on its first call and then reused:
    parsing leaves a parser unchanged."""
    return build_parser()


def _emit(doc: dict) -> None:
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError:
        raise NonFiniteReport(
            "report not printed: a figure in it is inf or NaN, which strict JSON cannot hold"
        ) from None
    sys.stdout.write(text + "\n")


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _require_tol(tol: float) -> None:
    if not 0.0 <= tol < math.inf:
        raise UsageError(f"--tol must be finite and >= 0, got {tol!r}")


def _require_seed(seed: int) -> None:
    if seed < 0:
        raise UsageError(f"--seed must be >= 0, got {seed}")


def cmd_check(args) -> int:
    _require_tol(args.tol)
    table = load_machine(args.machine)
    unitarity = check_global_unitarity(table, tol=args.tol)
    compliance = check_ozawa_compliance(table)
    passed = unitarity.passed and compliance.passed
    _emit(
        {
            "format_version": FORMAT_VERSION,
            "machine": args.machine,
            "unitarity": unitarity.as_dict(),
            "compliance": compliance.as_dict(),
            "passed": passed,
        }
    )
    return 0 if passed else 1


def cmd_nogo(args) -> int:
    if (args.machine is None) == (args.random is None):
        raise UsageError("provide a machine file or --random DIMS, not both")
    _require_tol(args.tol)

    if args.machine is not None:
        header = {"format_version": FORMAT_VERSION, "mode": "file", "machine": args.machine}
        table = load_machine(args.machine)
        try:
            report = verify_nogo(table, tol=args.tol)
        except PreconditionError as exc:
            _emit({**header, "precondition_failure": {"check": exc.check, "detail": exc.detail}})
            return 1
        _emit({**header, "report": report.as_dict()})
        return 0 if report.passed else 1

    if args.samples < 1:
        raise UsageError("--samples must be >= 1")
    _require_seed(args.seed)
    dims = args.random
    if dims.N >= 3:
        # the errors verify_nogo would end in, raised before a draw spends
        # time and memory on a table; N < 3 is the draw's own first error
        require_tape_cells(dims)
        dims.require_dense()
    worst_mass = 0.0
    worst_residual = 0.0
    worst_sample = 0
    all_passed = True
    for sample in range(args.samples):
        rng = np.random.default_rng([args.seed, sample])
        table = random_compliant_table(dims, rng)
        report = verify_nogo(table, tol=args.tol)
        all_passed = all_passed and report.passed
        if max(report.halting_mass, report.max_residual) > max(worst_mass, worst_residual):
            worst_sample = sample
        worst_mass = max(worst_mass, report.halting_mass)
        worst_residual = max(worst_residual, report.max_residual)
    _emit(
        {
            "format_version": FORMAT_VERSION,
            "mode": "random",
            "dims": asdict(dims),
            "samples": args.samples,
            "seed": args.seed,
            "tol": args.tol,
            "max_halting_mass": worst_mass,
            "max_residual": worst_residual,
            "worst_sample": worst_sample,
            "passed": all_passed,
        }
    )
    return 0 if all_passed else 1


def cmd_search(args) -> int:
    if args.restarts < 1:
        raise UsageError("--restarts must be >= 1")
    if args.iterations < 1:
        raise UsageError("--iterations must be >= 1")
    _require_seed(args.seed)
    # the cap is checked and --out opened before the search: a path that
    # cannot be written then costs no search time and leaves stdout empty
    args.dims.require_dense()
    trace_file = open(args.out, "w", encoding="utf-8", newline="") if args.out else None
    with trace_file or contextlib.nullcontext() as out:
        result = search_max_halting_mass(
            args.dims,
            restarts=args.restarts,
            iterations=args.iterations,
            seed=args.seed,
            ozawa_compliant=not args.no_ozawa,
        )
        doc = {
            "format_version": FORMAT_VERSION,
            "dims": asdict(args.dims),
            "restarts": args.restarts,
            "iterations": args.iterations,
            "seed": args.seed,
            "ozawa_compliance": not args.no_ozawa,
        }
        doc.update(result.as_dict())
        if args.no_ozawa:
            doc["warning"] = (
                "halted-sector compliance disabled: halting mass is attainable "
                "by unitary machines"
            )
        _emit(doc)
        if out:
            out.write("iteration,objective\n")
            for iteration, objective in result.trace:
                out.write(f"{iteration},{_fmt(objective)}\n")
    if not result.feasible:
        print(
            f"error: no restart reached unitarity deviation <= {FEASIBLE_DEVIATION:g}; "
            f"smallest was {result.best_unitarity_deviation:.3e} (restart {result.best_restart})",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_interfere(args) -> int:
    scenario = load_scenario(args.scenario)
    i, j = args.pair
    n = len(scenario.branches)
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise UsageError(f"pair ({i}, {j}) invalid for {n} branches")
    # --out is opened before the run, as in cmd_search: a path that cannot
    # be written then costs no run time
    out = open(args.out, "w", encoding="utf-8", newline="") if args.out else None
    with out or contextlib.nullcontext():
        trace = run_superposition(
            scenario.branches, scenario.amps, scenario.policy, scenario.t_max
        )
        lines = ["t,abs_coherence,monitored_delta"]
        for t in range(scenario.t_max + 1):
            coh = coherence(trace, t, i, j)
            effect = monitoring_effect(
                scenario.branches, scenario.amps, scenario.policy, (i, j), t
            )
            lines.append(f"{t},{_fmt(abs(coh))},{_fmt(effect.delta)}")
        (out or sys.stdout).write("\n".join(lines) + "\n")
    return 0


class UsageError(Exception):
    """Bad argument combination detected after parsing."""


class NonFiniteReport(Exception):
    """A report figure overflowed to inf or NaN, so strict JSON cannot hold it."""


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except DocumentError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, OSError, MachineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BranchModelError, NonFiniteReport) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run_main() -> None:
    sys.exit(main())
