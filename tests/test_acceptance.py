"""Acceptance criteria, one test per criterion.

Every test prints one pass/fail line (visible with ``pytest -s`` or
``--capture=tee-sys``) and asserts the criterion at its stated tolerance.
"""

import io
import json
import math
import pathlib
import time
from contextlib import redirect_stdout

import numpy as np

from haltlab.ancilla import (
    AncillaPolicy,
    BranchSpec,
    PolicyError,
    coherence,
    fixed_point_impossibility,
    monitoring_effect,
    run_superposition,
)
from haltlab.cli import main
from haltlab.documents import dumps_machine, dumps_scenario, loads_machine, loads_scenario
from haltlab.hilbert import SparseState
from haltlab.nogo import (
    halting_mass_from_table,
    halting_witness_table,
    random_compliant_table,
    verify_nogo,
)
from haltlab.qtm import MachineDims, build_global_matrix, check_global_unitarity
from haltlab.search import search_max_halting_mass
from oracles import Configuration, config_index, step

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
PROOF_DIMS = MachineDims(2, 2, 6)


def _verdict(num: int, description: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}{suffix}"
    print(line)
    assert ok, line


def _equal_amp_pair(t1, t2, length=21):
    def branch(bid, prefix, halt):
        orbit = tuple(f"{prefix}{t}" for t in range(halt)) + (f"{prefix}done",) * (
            length - halt
        )
        return BranchSpec(id=bid, orbit=orbit, halt_step=halt)

    return [branch(1, "a", t1), branch(2, "b", t2)], (2**-0.5, 2**-0.5)


def test_criterion_1_nogo_on_random_compliant_unitary_tables():
    started = time.monotonic()
    worst_residual = 0.0
    worst_mass = 0.0
    all_passed = True
    samples = 100
    for sample in range(samples):
        table = random_compliant_table(PROOF_DIMS, np.random.default_rng([2026, sample]))
        report = verify_nogo(table, tol=1e-10)
        all_passed = all_passed and report.passed
        worst_residual = max(worst_residual, report.max_residual)
        worst_mass = max(worst_mass, report.halting_mass)
    elapsed = time.monotonic() - started
    ok = all_passed and worst_residual <= 1e-10 and worst_mass <= 1e-10 and elapsed < 300
    _verdict(
        1,
        f"no-go residuals and halting mass over {samples} random unitary tables",
        ok,
        f"max residual {worst_residual:.2e}, max mass {worst_mass:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_converse_witness_without_compliance():
    table = halting_witness_table(PROOF_DIMS)
    deviation = check_global_unitarity(table).max_deviation
    mass = halting_mass_from_table(table)
    ok = deviation <= 1e-12 and mass >= 0.5
    _verdict(
        2,
        "dropping halted-sector compliance admits a unitary halting machine",
        ok,
        f"unitarity deviation {deviation:.2e}, halting mass {mass:.3g}",
    )


def test_criterion_3_search_collapses_to_zero_mass():
    started = time.monotonic()
    result = search_max_halting_mass(PROOF_DIMS, restarts=20, iterations=500, seed=0)
    elapsed = time.monotonic() - started
    ok = result.best_mass <= 1e-6 and result.best_unitarity_deviation <= 1e-8 and elapsed < 600
    _verdict(
        3,
        "penalty search over compliant tables converges to zero halting mass",
        ok,
        f"best mass {result.best_mass:.2e}, deviation "
        f"{result.best_unitarity_deviation:.2e}, {elapsed:.1f}s",
    )


def _random_sparse_machine_state(dims, rng, size=24):
    configs = set()
    while len(configs) < size:
        tape = tuple(int(x) for x in rng.integers(0, dims.S, size=dims.N))
        configs.add(
            Configuration(
                int(rng.integers(dims.M)), int(rng.integers(dims.N)), tape, int(rng.integers(2))
            )
        )
    amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    amps /= np.linalg.norm(amps)
    return SparseState(zip(sorted(configs), amps))


def test_criterion_4_unitarity_engine_and_step_agreement():
    dims_cycle = [MachineDims(2, 2, 4)] * 8 + [MachineDims(1, 2, 6)] * 6 + [PROOF_DIMS] * 6
    worst_gram = 0.0
    worst_step = 0.0
    for index, dims in enumerate(dims_cycle):
        rng = np.random.default_rng([4, index])
        table = random_compliant_table(dims, rng)
        dense = build_global_matrix(table)
        gram_dev = float(np.max(np.abs(dense.conj().T @ dense - np.eye(dims.dim))))
        worst_gram = max(worst_gram, gram_dev)
        for _ in range(10):
            state = _random_sparse_machine_state(dims, rng)
            vec = np.zeros(dims.dim, dtype=complex)
            for config, amp in state.items():
                vec[config_index(config, dims)] = amp
            direct = np.zeros(dims.dim, dtype=complex)
            for config, amp in step(state, table).items():
                direct[config_index(config, dims)] = amp
            worst_step = max(worst_step, float(np.max(np.abs(direct - dense @ vec))))
    ok = worst_gram <= 1e-12 and worst_step <= 1e-14
    _verdict(
        4,
        "dense unitarity of 20 random tables and step/matrix agreement",
        ok,
        f"max gram deviation {worst_gram:.2e}, max step mismatch {worst_step:.2e}",
    )


def test_criterion_5_decoherence_of_unequal_halt_times():
    branches, amps = _equal_amp_pair(3, 5)
    trace = run_superposition(branches, amps, AncillaPolicy.shared(), t_max=20)
    worst_late = max(abs(coherence(trace, t, 0, 1)) for t in range(3, 21))

    branches_eq, amps_eq = _equal_amp_pair(3, 3)
    trace_eq = run_superposition(branches_eq, amps_eq, AncillaPolicy.shared(), t_max=20)
    worst_equal = max(
        abs(abs(coherence(trace_eq, t, 0, 1)) - 0.5) for t in range(21)
    )
    ok = worst_late <= 1e-15 and worst_equal <= 1e-12
    _verdict(
        5,
        "shared-orbit coherence: zero after unequal halts, 0.5 for equal halts",
        ok,
        f"max |coherence| from t=3 {worst_late:.2e}, max | |c|-0.5 | {worst_equal:.2e}",
    )


def test_criterion_6_monitoring_effect():
    branches, amps = _equal_amp_pair(3, 5)
    shared_worst = max(
        monitoring_effect(branches, amps, AncillaPolicy.shared(), (0, 1), t).delta
        for t in range(21)
    )

    policy = AncillaPolicy.permuted({2: {0: 2, 2: 0}})
    deltas = [
        monitoring_effect(branches, amps, policy, (0, 1), t).delta for t in range(9)
    ]
    at_reinterference = abs(deltas[5] - 0.5)
    elsewhere = max(d for t, d in enumerate(deltas) if t != 5)
    ok = shared_worst <= 1e-12 and at_reinterference <= 1e-12 and elsewhere <= 1e-12
    _verdict(
        6,
        "monitoring is null for shared orbits and blocks permuted reinterference",
        ok,
        f"shared max delta {shared_worst:.2e}, delta(5)-0.5 {at_reinterference:.2e}, "
        f"elsewhere {elsewhere:.2e}",
    )


def test_criterion_7_fixed_point_impossibility():
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(100):
        r = float(rng.uniform(0.0, 1.0))
        dim = int(rng.integers(2, 16))
        cert = fixed_point_impossibility(dim, overlap=r, seed=trial)
        worst = max(worst, abs(cert.residual - math.sqrt(2.0 - 2.0 * r)))
    ok = worst <= 1e-10
    _verdict(
        7,
        "fixed-point residual matches sqrt(2 - 2 overlap) on 100 random pairs",
        ok,
        f"max |residual - bound| {worst:.2e}",
    )


def test_criterion_8_non_injective_policies_rejected():
    rejected_custom = rejected_permuted = False
    try:
        AncillaPolicy.custom({1: {0: 1, 1: 1}})
    except PolicyError:
        rejected_custom = True
    try:
        AncillaPolicy.permuted({1: {0: 0, 1: 0}})
    except PolicyError:
        rejected_permuted = True
    ok = rejected_custom and rejected_permuted
    _verdict(8, "non-injective ancilla orbit maps rejected at construction", ok)


def _run_cli_capture(argv, out_path=None):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    file_bytes = pathlib.Path(out_path).read_bytes() if out_path else b""
    return code, buffer.getvalue(), file_bytes


def test_criterion_9_cli_determinism_and_round_trips(tmp_path):
    commands = [
        (["check", str(FIXTURES / "right_shift.json")], None),
        (["check", str(FIXTURES / "halted_tape_writer.json")], None),
        (["nogo", str(FIXTURES / "right_shift.json")], None),
        (["nogo", str(FIXTURES / "halt_flip_witness.json")], None),
        (["nogo", "--random", "M=2,S=2,N=6", "--samples", "3", "--seed", "11"], None),
        (
            ["search", "--dims", "M=1,S=2,N=6", "--restarts", "1", "--iterations", "80",
             "--seed", "2", "--out", str(tmp_path / "trace.csv")],
            tmp_path / "trace.csv",
        ),
        (["interfere", str(FIXTURES / "scenario_equal_halt.json")], None),
        (["interfere", str(FIXTURES / "scenario_shared_unequal.json")], None),
        (["interfere", str(FIXTURES / "scenario_permuted.json"),
          "--out", str(tmp_path / "rows.csv")], tmp_path / "rows.csv"),
    ]
    deterministic = True
    for argv, out_path in commands:
        first = _run_cli_capture(argv, out_path)
        second = _run_cli_capture(argv, out_path)
        deterministic = deterministic and first == second

    machine_fixtures = [
        "right_shift.json", "halt_flip_witness.json", "leaky_nonunitary.json",
        "halted_tape_writer.json",
    ]
    round_trips = True
    for name in machine_fixtures:
        text = (FIXTURES / name).read_text()
        once = dumps_machine(loads_machine(text))
        round_trips = round_trips and once == text
    scenario_fixtures = [
        "scenario_equal_halt.json", "scenario_shared_unequal.json", "scenario_permuted.json"
    ]
    for name in scenario_fixtures:
        text = (FIXTURES / name).read_text()
        once = dumps_scenario(loads_scenario(text))
        twice = dumps_scenario(loads_scenario(once))
        round_trips = round_trips and once == twice
        round_trips = round_trips and json.loads(once) == json.loads(text)

    ok = deterministic and round_trips
    _verdict(
        9,
        "CLI commands byte-deterministic and documents round-trip",
        ok,
        f"deterministic={deterministic}, round_trips={round_trips}",
    )
