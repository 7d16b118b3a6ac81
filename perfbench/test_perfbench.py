"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.optimize

import run
import worker
from haltlab import cli, documents, nogo, qtm, search
from tracer import MissingSpanError, Tracer, layer_metrics
from workloads import WORKLOADS, NogoFiles

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: counters that must repeat exactly across runs with the same seed
EXACT_COUNTERS = (
    "search.lbfgs.nit_per_op",
    "search.lbfgs.nfev_per_op",
    "search.penalty_value_grad.calls_per_op",
    "ancilla.run_superposition.calls_per_op",
    "hilbert.reduced_density.calls_per_op",
)


def tiny(name, tmp_path, seed=3):
    workload = WORKLOADS[name](seed, str(tmp_path / name), size="tiny")
    worker.set_up(workload)
    return workload


def test_workload_names_agree():
    listed = [w["name"] for w in SPEC["workloads"]]
    assert listed == list(run.WORKLOADS) == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_smoke_run_reports_every_end_to_end_metric(name, tmp_path):
    workload = tiny(name, tmp_path)
    records, metrics, detail = worker.timed_run(workload, seconds=0.0)
    assert [r.problems for r in records] == [[]]
    assert detail["failed_op_ratio"] == 0.0
    measured = dict(metrics, setup_s=1.0)
    assert sorted(measured) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(value > 0 for value in measured.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_counters_repeat_exactly(name, tmp_path):
    runs = []
    for attempt in range(2):
        workload = tiny(name, tmp_path / str(attempt))
        records, metrics, _ = worker.traced_run(workload, seconds=0.0)
        assert all(not r.problems for r in records)
        assert metrics["traced_ops"] == workload.cycle
        runs.append(metrics)
    assert sorted(runs[0]) == sorted(m["name"] for m in SPEC["per_layer"])
    for counter in EXACT_COUNTERS:
        assert runs[0][counter] == runs[1][counter], counter


def test_search_counters_are_live_on_search_proof(tmp_path):
    workload = tiny("search-proof", tmp_path)
    _, metrics, _ = worker.traced_run(workload, seconds=0.0)
    assert metrics["search.lbfgs.nit_per_op"] > 0
    assert metrics["search.penalty_value_grad.calls_per_op"] > 0
    assert metrics["search.restarts_run"] == 2
    assert metrics["search.feasible_restart_ratio"] == 1.0
    assert metrics["qtm.build_global_matrix.calls_per_op"] == 2.0
    dim = WORKLOADS["search-proof"].SIZES["tiny"]["dims"].dim
    assert metrics["qtm.dense_bytes_per_op"] == 2 * 16 * dim**2


def test_interfere_counts_match_the_command_loop(tmp_path):
    workload = tiny("interfere-wide", tmp_path)
    _, metrics, _ = worker.traced_run(workload, seconds=0.0)
    t_max = workload.size["t_max"]
    assert metrics["ancilla.run_superposition.calls_per_op"] == t_max + 2
    assert metrics["hilbert.reduced_density.calls_per_op"] == 2 * (t_max + 1)


def test_tracer_patches_every_binding_and_restores_them():
    originals = {
        "cli": cli.main,
        "nogo": nogo.check_global_unitarity,
        "search": search.check_global_unitarity,
        "init": qtm.TransitionTable.__init__,
        "minimize": scipy.optimize.minimize,
        "load": documents.load_machine,
    }
    assert nogo.check_global_unitarity is qtm.check_global_unitarity
    tracer = Tracer()
    with tracer:
        assert cli.verify_nogo is nogo.verify_nogo is not originals["cli"]
        assert nogo.check_global_unitarity is search.check_global_unitarity
        assert cli.check_global_unitarity is qtm.check_global_unitarity
        assert qtm.check_global_unitarity is not originals["nogo"]
        assert scipy.optimize.minimize is not originals["minimize"]
        qtm.right_shift_table(qtm.MachineDims(1, 2, 3))
    assert [s.name for s in tracer.spans] == ["qtm.TransitionTable", "qtm.right_shift_table"]
    assert tracer.spans[0].parent is tracer.spans[1]
    assert cli.main is originals["cli"]
    assert nogo.check_global_unitarity is originals["nogo"]
    assert search.check_global_unitarity is originals["search"]
    assert qtm.TransitionTable.__init__ is originals["init"]
    assert scipy.optimize.minimize is originals["minimize"]
    assert cli.load_machine is documents.load_machine is originals["load"]


def test_traced_run_fails_when_a_listed_span_never_fires(tmp_path):
    workload = tiny("interfere-wide", tmp_path)
    workload.required_spans = workload.required_spans + ("search.lbfgs",)
    with pytest.raises(MissingSpanError, match="search.lbfgs"):
        worker.traced_run(workload, seconds=0.0)
    assert scipy.optimize.minimize.__module__.startswith("scipy")


def test_layer_metrics_self_time_excludes_children():
    tracer = Tracer()
    with tracer:
        tracer.group = 0
        qtm.check_global_unitarity(qtm.right_shift_table(qtm.MachineDims(1, 2, 3)))
    metrics = layer_metrics(tracer.spans, ops=1, required=())
    (outer,) = [s for s in tracer.spans if s.name == "qtm.check_global_unitarity"]
    (inner,) = [s for s in tracer.spans if s.name == "qtm.sparse_global_matrix"]
    assert inner.parent is outer
    assert metrics["qtm.check_global_unitarity.self_s_per_op"] == pytest.approx(
        outer.duration - inner.duration
    )


def test_interfere_closed_form_covers_the_revival(tmp_path):
    workload = tiny("interfere-wide", tmp_path)
    h0 = workload.halt_steps[0]
    rows = workload.expected_rows()
    amp2 = 1.0 / workload.size["branches"]
    assert rows[0][1:] == (amp2, 0.0)
    assert rows[h0][1:] == (amp2, amp2)
    assert all(coherence == 0.0 for _, coherence, _ in rows[h0 + 1:])


def test_checks_reject_wrong_output(tmp_path):
    workload = tiny("interfere-wide", tmp_path)
    csv = Path(workload.workdir) / "interfere.csv"
    worker.run_commands(workload.commands(0))
    lines = csv.read_text(encoding="utf-8").splitlines()
    assert workload.check(0, [(0, "")]) == []
    assert not csv.exists()
    assert workload.check(0, [(1, "")]) == ["command 0 exited 1, expected 0"]
    h0 = workload.halt_steps[0]
    lines[1 + h0] = f"{h0},0,0"
    csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert len(workload.check(0, [(0, "")])) == 1

    nogo_files = tiny("nogo-files", tmp_path)
    outputs = worker.run_commands(nogo_files.commands(0))
    assert nogo_files.check(0, outputs) == []
    report = json.loads(outputs[1][1])
    report["report"]["halting_mass"] = 1e-3
    assert nogo_files.check(0, [outputs[0], (0, json.dumps(report))]) != []


def test_search_check_holds_each_mode_to_its_own_bound(tmp_path):
    workload = WORKLOADS["search-proof"](0, str(tmp_path))
    feasible = {"best_unitarity_deviation": 1e-15}
    assert workload.check(0, [(0, json.dumps(dict(feasible, best_mass=0.0)))]) == []
    assert workload.check(0, [(0, json.dumps(dict(feasible, best_mass=4.0)))]) != []
    assert workload.check(1, [(0, json.dumps(dict(feasible, best_mass=4.0)))]) == []
    assert workload.check(1, [(0, json.dumps(dict(feasible, best_mass=0.0)))]) != []
    infeasible = {"best_unitarity_deviation": 1e-6, "best_mass": 0.0}
    assert workload.check(0, [(0, json.dumps(infeasible))]) != []


def test_tail_is_median_below_twenty_one_ops():
    records = [worker.OpRecord(i, float(i + 1), 0.5) for i in range(20)]
    metrics, detail = worker.end_to_end(records, window_s=10.0)
    assert metrics["op_tail_s"] == metrics["op_p50_s"] == 10.5
    records.append(worker.OpRecord(20, 21.0, 0.5))
    metrics, detail = worker.end_to_end(records, window_s=10.0)
    assert metrics["op_tail_s"] == 11.0
    assert detail["op_tail_percentile"] == pytest.approx(100 * 11 / 21)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nogo-files", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_nogo_files_documents_repeat_with_the_seed(tmp_path):
    first = tiny("nogo-files", tmp_path / "a", seed=5)
    second = NogoFiles(5, str(tmp_path / "b"), size="tiny")
    worker.set_up(second)
    for i in range(first.cycle):
        assert Path(first._doc(i)).read_bytes() == Path(second._doc(i)).read_bytes()
