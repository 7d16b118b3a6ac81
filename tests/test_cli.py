"""CLI contract: exit codes, determinism, CSV and report shapes."""

import contextlib
import dataclasses
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import haltlab.cli
from haltlab.cli import main
from haltlab.documents import MAX_T_MAX, MAX_TRACE_LABELS, dumps_machine
from haltlab.qtm import MachineDims, TransitionTable, check_global_unitarity, right_shift_table

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_passes_right_shift(capsys):
    code, out, _ = run_cli(capsys, "check", str(FIXTURES / "right_shift.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["unitarity"]["max_deviation"] == 0.0
    assert doc["compliance"]["violations"] == []


def test_check_flags_halted_tape_writer(capsys):
    code, out, _ = run_cli(capsys, "check", str(FIXTURES / "halted_tape_writer.json"))
    assert code == 1
    doc = json.loads(out)
    assert doc["unitarity"]["passed"] is True
    assert doc["compliance"]["passed"] is False
    assert len(doc["compliance"]["violations"]) == 4


def test_check_malformed_document_exits_2(capsys):
    code, out, err = run_cli(capsys, "check", str(FIXTURES / "malformed.json"))
    assert code == 2
    assert out == ""
    assert "parse error" in err


def test_check_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "check", str(FIXTURES / "no_such_file.json"))
    assert code == 2
    assert "error" in err


def test_nogo_file_mode_passes_right_shift(capsys):
    code, out, _ = run_cli(capsys, "nogo", str(FIXTURES / "right_shift.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["passed"] is True
    assert doc["report"]["halting_mass"] == 0.0


def test_nogo_names_failed_precondition(capsys):
    code, out, _ = run_cli(capsys, "nogo", str(FIXTURES / "leaky_nonunitary.json"))
    assert code == 1
    doc = json.loads(out)
    assert doc["precondition_failure"]["check"] == "global_unitarity"

    code, out, _ = run_cli(capsys, "nogo", str(FIXTURES / "halt_flip_witness.json"))
    assert code == 1
    doc = json.loads(out)
    assert doc["precondition_failure"]["check"] == "ozawa_compliance"


def test_nogo_random_mode(capsys):
    code, out, _ = run_cli(
        capsys, "nogo", "--random", "M=2,S=2,N=6", "--samples", "3", "--seed", "5"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["samples"] == 3
    assert doc["max_halting_mass"] <= 1e-10
    assert doc["max_residual"] <= 1e-10
    assert doc["passed"] is True


def test_nogo_random_fails_when_an_early_sample_fails(capsys, monkeypatch):
    # sample 0 of 3 fails, the last one passes: the run must fail
    verify = haltlab.cli.verify_nogo
    reports = []

    def first_fails(table, tol):
        report = verify(table, tol=tol)
        reports.append(report)
        return dataclasses.replace(report, passed=False) if len(reports) == 1 else report

    monkeypatch.setattr(haltlab.cli, "verify_nogo", first_fails)
    code, out, err = run_cli(
        capsys, "nogo", "--random", "M=2,S=2,N=6", "--samples", "3", "--seed", "5"
    )
    assert len(reports) == 3 and all(r.passed for r in reports)
    assert (code, err) == (1, "")
    assert json.loads(out)["passed"] is False


def test_check_finds_a_phase_only_unitarity_defect(capsys, tmp_path):
    # key (0,1,0) also writes symbol 0 at amplitude 1e-3 i: its columns
    # overlap those of key (0,0,0) by a purely imaginary 1e-3
    dims = MachineDims(1, 2, 6)
    rules = {key: list(out) for key, out in right_shift_table(dims).rules.items()}
    rules[(0, 1, 0)].append((0, 0, 1, 0, 1e-3j))
    table = TransitionTable(dims, rules)
    assert check_global_unitarity(table).max_deviation == pytest.approx(1e-3, rel=1e-12)
    path = tmp_path / "phase_defect.json"
    path.write_text(dumps_machine(table))
    code, out, err = run_cli(capsys, "check", str(path))
    assert (code, err) == (1, "")
    assert json.loads(out)["unitarity"]["max_deviation"] == pytest.approx(1e-3, rel=1e-12)


def _limited_address_space():
    import resource

    limit = 3 * 2**29  # 1.5 GiB
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs RLIMIT_AS")
def test_tables_past_the_dense_cap_are_refused_before_allocation(tmp_path):
    # each is refused before its table tensor (0.5 to 75 GiB) exists; the
    # child may map 1.5 GiB
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({
        "format_version": 1,
        "dims": {"M": 20000, "S": 1, "N": 6},
        "rules": [{"q": q, "sym": 0, "halt": h, "out": []} for q in range(20000) for h in (0, 1)],
    }))
    cases = [
        (["nogo", "--random", "M=100000,S=2,N=6", "--samples", "1"],
         "error: dimension 76800000 exceeds dense cap 4096\n"),
        (["nogo", "--random", "M=100000,S=2,N=4", "--samples", "1"],
         "error: no-go verification needs at least 6 tape cells\n"),
        # refused before the draw, which takes 10 s already at M=256
        (["nogo", "--random", "M=1024,S=2,N=6", "--samples", "1"],
         "error: dimension 786432 exceeds dense cap 4096\n"),
        (["check", str(wide)], "error: dimension 240000 exceeds dense cap 4096\n"),
        (["nogo", str(wide)], "error: dimension 240000 exceeds dense cap 4096\n"),
    ]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env.pop("OPENBLAS_VERBOSE", None)  # it would log the BLAS core type to stderr
    for argv, stderr in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "haltlab", *argv], capture_output=True, text=True,
            env=env, preexec_fn=_limited_address_space, check=False,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", stderr)


def test_nogo_rejects_both_file_and_random(capsys):
    code, _, err = run_cli(
        capsys, "nogo", str(FIXTURES / "right_shift.json"), "--random", "M=2,S=2,N=6"
    )
    assert code == 2
    assert "not both" in err


def test_nogo_rejects_zero_samples(capsys):
    code, _, err = run_cli(
        capsys, "nogo", "--random", "M=2,S=2,N=6", "--samples", "0"
    )
    assert code == 2
    assert "samples" in err


def test_nogo_trivial_dims_all_residuals_zero(capsys):
    code, out, _ = run_cli(capsys, "nogo", "--random", "M=1,S=1,N=6", "--samples", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["max_residual"] <= 1e-15


def test_search_reports_and_writes_trace(capsys, tmp_path):
    trace_path = tmp_path / "trace.csv"
    code, out, _ = run_cli(
        capsys, "search", "--dims", "M=1,S=2,N=6", "--restarts", "2",
        "--iterations", "120", "--seed", "1", "--out", str(trace_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["best_mass"] <= 1e-6
    assert doc["best_unitarity_deviation"] <= 1e-8
    assert "warning" not in doc
    lines = trace_path.read_text().splitlines()
    assert lines[0] == "iteration,objective"
    assert len(lines) > 5


def test_search_no_ozawa_warns_and_finds_mass(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--dims", "M=1,S=2,N=6", "--restarts", "2",
        "--iterations", "200", "--seed", "0", "--no-ozawa",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["best_mass"] >= 0.5
    assert "warning" in doc


def test_search_without_feasible_restart_exits_1(capsys):
    code, out, err = run_cli(
        capsys, "search", "--dims", "M=1,S=2,N=6", "--restarts", "2",
        "--iterations", "1", "--seed", "0",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["best_unitarity_deviation"] > 1e-8
    assert {"best_mass", "best_projection_residual", "best_restart"} <= set(doc)
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("seed", [2148, 12056, 30258])
def test_search_rescues_a_restart_stuck_off_unitarity(capsys, seed):
    # the polish of these restarts stops in a local minimum of the penalty
    # where two halted-key columns share one unit of norm (deviation ~0.6);
    # redrawing those columns and polishing again reaches a unitary table
    code, out, err = run_cli(
        capsys, "search", "--dims", "M=2,S=2,N=6", "--restarts", "1",
        "--iterations", "500", "--seed", str(seed),
    )
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["best_mass"] <= 1e-6
    assert doc["best_unitarity_deviation"] <= 1e-8


def test_search_zero_restarts_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "search", "--dims", "M=2,S=2,N=6", "--restarts", "0"
    )
    assert code == 2
    assert "restarts" in err


def _argument_error(command, message):
    """Stderr of an argparse error in ``command``: its usage, then one error line."""
    sub = haltlab.cli.build_parser()._subparsers._group_actions[0].choices[command]
    return sub.format_usage() + f"{sub.prog}: error: {message}\n"


def _bad_dims(option, text):
    return f"argument {option}: expected dims like 'M=2,S=2,N=6', got {text!r}"


RIGHT_SHIFT = str(FIXTURES / "right_shift.json")


@pytest.mark.parametrize(
    "argv, code, err",
    [
        pytest.param(("search", "--dims", "M=2,S=2,N=6", "--iterations", "0"), 2,
                     "error: --iterations must be >= 1\n", id="search-iterations"),
        pytest.param(("nogo", "--random", "M=1,S=1,N=6", "--seed", "-1"), 2,
                     "error: --seed must be >= 0, got -1\n", id="nogo-seed"),
        pytest.param(("search", "--dims", "M=1,S=2,N=6", "--seed", "-3"), 2,
                     "error: --seed must be >= 0, got -3\n", id="search-seed"),
        pytest.param(("nogo", "--random", "M=1,S=1,N=6,X=9"), 2,
                     _argument_error("nogo", _bad_dims("--random", "M=1,S=1,N=6,X=9")),
                     id="dims-unknown-name"),
        pytest.param(("search", "--dims", "M=1,M=2,S=1,N=6"), 2,
                     _argument_error("search", _bad_dims("--dims", "M=1,M=2,S=1,N=6")),
                     id="dims-repeated-name"),
        pytest.param(("check", RIGHT_SHIFT, "--tol", "nan"), 2,
                     "error: --tol must be finite and >= 0, got nan\n", id="check-tol-nan"),
        pytest.param(("nogo", RIGHT_SHIFT, "--tol", "inf"), 2,
                     "error: --tol must be finite and >= 0, got inf\n", id="nogo-tol-inf"),
        pytest.param(("nogo", "--random", "M=1,S=1,N=6", "--tol", "-0.5"), 2,
                     "error: --tol must be finite and >= 0, got -0.5\n", id="nogo-tol-negative"),
    ],
)
def test_input_checks(capsys, monkeypatch, argv, code, err):
    # each is refused before a table is loaded, drawn or searched for
    def refuse(*args, **kwargs):
        raise AssertionError("input check came too late")

    for name in ("load_machine", "random_compliant_table", "search_max_halting_mass"):
        monkeypatch.setattr(haltlab.cli, name, refuse)
    assert run_cli(capsys, *argv) == (code, "", err)


@pytest.mark.parametrize(
    "tol_args",
    [("--tol", "-1e-3"), ("--tol", "-1E-3"), ("--tol", "-0.5"), ("--tol=-1e-3",)],
    ids=["-1e-3", "-1E-3", "-0.5", "=-1e-3"],
)
@pytest.mark.parametrize(
    "command", [("check", RIGHT_SHIFT), ("nogo", "--random", "M=1,S=1,N=6")], ids=["check", "nogo"]
)
def test_a_negative_tol_in_any_float_form_reaches_the_range_check(capsys, command, tol_args):
    # argparse alone reads "-1e-3" as an option; twice, so that the
    # parser main keeps between calls is exercised too
    value = float(tol_args[-1].split("=")[-1])
    expected = (2, "", f"error: --tol must be finite and >= 0, got {value!r}\n")
    for _ in range(2):
        assert run_cli(capsys, *command, *tol_args) == expected


def test_search_out_to_an_unwritable_path_exits_2_before_the_search(capsys, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("the search ran before --out was opened")

    monkeypatch.setattr(haltlab.cli, "search_max_halting_mass", refuse)
    path = tmp_path / "missing" / "t.csv"
    try:
        open(path, "w", encoding="utf-8")
    except OSError as exc:
        expected = f"error: {exc}\n"
    assert run_cli(
        capsys, "search", "--dims", "M=1,S=1,N=6", "--restarts", "1", "--iterations", "1",
        "--out", str(path),
    ) == (2, "", expected)


def test_main_builds_one_parser_and_keeps_it_after_a_parse_error(capsys, monkeypatch):
    # a parse error, then check and nogo of one fixture, in one process:
    # each result is the recorded one, and the parser is built once
    parse_error = _argument_error("check", "argument --tol: expected one argument")
    build, builds = haltlab.cli.build_parser, []

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(haltlab.cli, "build_parser", counted)
    haltlab.cli._parser.cache_clear()
    monkeypatch.chdir(FIXTURES)
    assert run_cli(capsys, "check", "--tol") == (2, "", parse_error)
    for command in ("check", "nogo"):
        golden = FIXTURES / "golden" / f"{command}_leaky_nonunitary"
        assert run_cli(capsys, command, "leaky_nonunitary.json") == (
            int(golden.with_suffix(".exit").read_text()),
            golden.with_suffix(".stdout").read_text(encoding="utf-8"),
            golden.with_suffix(".stderr").read_text(encoding="utf-8"),
        )
    assert len(builds) == 1


@pytest.mark.parametrize("command", ["check", "nogo", "interfere"])
def test_a_directory_is_a_usage_error(capsys, tmp_path, command):
    try:
        open(tmp_path, encoding="utf-8")
    except OSError as exc:  # IsADirectoryError on Linux, PermissionError on Windows
        expected = f"error: {exc}\n"
    assert run_cli(capsys, command, str(tmp_path)) == (2, "", expected)


@pytest.mark.parametrize("command", ["check", "nogo", "interfere"])
def test_a_document_that_is_not_utf8_is_a_parse_error(capsys, tmp_path, command):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"format_version": 1, "note": "\xe9"}'.encode("latin-1"))
    assert run_cli(capsys, command, str(path)) == (
        2, "", "parse error: document: not UTF-8 text: invalid continuation byte at byte 31\n"
    )


def test_search_dimension_cap_exits_2(capsys):
    code, _, err = run_cli(capsys, "search", "--dims", "M=2,S=2,N=8")
    assert code == 2
    assert "cap" in err


def test_search_bad_dims_string_exits_2(capsys):
    code, _, _ = run_cli(capsys, "search", "--dims", "M=2,S=2")
    assert code == 2


def test_interfere_equal_halt_constant_coherence(capsys):
    code, out, _ = run_cli(capsys, "interfere", str(FIXTURES / "scenario_equal_halt.json"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,abs_coherence,monitored_delta"
    assert len(lines) == 22
    for line in lines[1:]:
        _, coh, delta = line.split(",")
        assert float(coh) == pytest.approx(0.5, abs=1e-12)
        assert float(delta) == 0.0


def test_interfere_shared_unequal_loses_coherence(capsys):
    code, out, _ = run_cli(
        capsys, "interfere", str(FIXTURES / "scenario_shared_unequal.json")
    )
    assert code == 0
    for line in out.splitlines()[1:]:
        t, coh, _ = line.split(",")
        if int(t) >= 3:
            assert float(coh) == 0.0


def test_interfere_permuted_single_reinterference_row(capsys):
    code, out, _ = run_cli(capsys, "interfere", str(FIXTURES / "scenario_permuted.json"))
    assert code == 0
    nonzero = [
        line for line in out.splitlines()[1:] if float(line.split(",")[1]) > 1e-12
    ]
    pre_split = {"0", "1", "2"}
    late = [line for line in nonzero if line.split(",")[0] not in pre_split]
    assert len(late) == 1
    t, coh, delta = late[0].split(",")
    assert t == "5"
    assert float(coh) == pytest.approx(0.5, abs=1e-12)
    assert float(delta) == pytest.approx(0.5, abs=1e-12)


def test_interfere_invalid_pair_exits_2(capsys):
    code, _, _ = run_cli(
        capsys, "interfere", str(FIXTURES / "scenario_equal_halt.json"), "--pair", "0,0"
    )
    assert code == 2
    code, _, _ = run_cli(
        capsys, "interfere", str(FIXTURES / "scenario_equal_halt.json"), "--pair", "0,7"
    )
    assert code == 2
    code, _, _ = run_cli(
        capsys, "interfere", str(FIXTURES / "scenario_equal_halt.json"), "--pair", "zero,one"
    )
    assert code == 2


def test_interfere_writes_csv_file(capsys, tmp_path):
    out_path = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        capsys, "interfere", str(FIXTURES / "scenario_permuted.json"),
        "--out", str(out_path),
    )
    assert code == 0
    assert out == ""
    assert out_path.read_text().startswith("t,abs_coherence,monitored_delta\n")


def test_interfere_out_to_an_unwritable_path_exits_2_before_the_run(capsys, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("the run started before --out was opened")

    monkeypatch.setattr(haltlab.cli, "run_superposition", refuse)
    path = tmp_path / "missing" / "rows.csv"
    try:
        open(path, "w", encoding="utf-8")
    except OSError as exc:
        expected = f"error: {exc}\n"
    assert run_cli(
        capsys, "interfere", str(FIXTURES / "scenario_permuted.json"), "--out", str(path),
    ) == (2, "", expected)


@pytest.mark.parametrize(
    "scenario",
    [
        "scenario_equal_halt",
        "scenario_shared_unequal",
        "scenario_permuted",
        # 12 branches to t_max 80, built like the interfere-wide benchmark
        # scenario: odd branches swap ancilla offsets 0 and 2, and branch 0
        # halts two steps after branch 1, so the pair's coherence revives
        "scenario_wide_permuted",
    ],
)
def test_interfere_output_matches_golden_bytes(capsys, scenario):
    """``fixtures/golden`` holds recorded stdout: an output change must
    come with a deliberate update of those files."""
    code, out, err = run_cli(
        capsys, "interfere", str(FIXTURES / f"{scenario}.json"), "--pair", "0,1"
    )
    golden = FIXTURES / "golden" / f"interfere_{scenario}.csv"
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == golden.read_bytes()


@pytest.mark.parametrize("command", ["check", "nogo"])
@pytest.mark.parametrize(
    "machine",
    ["right_shift", "halted_tape_writer", "leaky_nonunitary", "halt_flip_witness", "malformed"],
)
def test_check_and_nogo_match_golden_bytes(capsys, monkeypatch, command, machine):
    """Recorded stdout, stderr and exit code, run from ``fixtures`` so that
    the echoed ``machine`` field is the bare file name; they also pin the
    JSON key order that the report fields carry."""
    monkeypatch.chdir(FIXTURES)
    code, out, err = run_cli(capsys, command, f"{machine}.json")
    golden = FIXTURES / "golden" / f"{command}_{machine}"
    assert out.encode("utf-8") == golden.with_suffix(".stdout").read_bytes()
    assert err.encode("utf-8") == golden.with_suffix(".stderr").read_bytes()
    assert code == int(golden.with_suffix(".exit").read_text())


@pytest.mark.parametrize(
    "argv",
    [
        ("check", str(FIXTURES / "right_shift.json")),
        ("nogo", str(FIXTURES / "right_shift.json")),
        ("nogo", "--random", "M=2,S=2,N=6", "--samples", "2", "--seed", "3"),
        ("search", "--dims", "M=1,S=2,N=6", "--restarts", "1", "--iterations", "80"),
        ("interfere", str(FIXTURES / "scenario_permuted.json")),
    ],
)
def test_commands_are_byte_deterministic(capsys, argv):
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2
    assert out1 == out2


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "haltlab", "check", str(FIXTURES / "right_shift.json")],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True


def test_missing_subcommand_exits_2():
    assert main([]) == 2


def _strict_json(text):
    """Parse ``text`` as JSON that holds no Infinity, -Infinity or NaN."""

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=reject)


def _altered_fixture(tmp_path, name, alter):
    doc = json.loads((FIXTURES / name).read_text())
    alter(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_interfere_reads_a_pruned_branch_as_zero(capsys, tmp_path):
    # a branch at amplitude 1e-17 is pruned from every state, so the
    # reduced density has no row for it; its coherence with branch 0 is
    # the closed form a_0 * conj(a_2) while both still run, then 0
    def add_pruned_branch(doc):
        doc["branches"].append({"id": 3, "orbit": ["c0", "c1", "done3"], "halt_step": 2})
        doc["amps"].append([1e-17, 0.0])

    path = _altered_fixture(tmp_path, "scenario_permuted.json", add_pruned_branch)
    code, out, err = run_cli(capsys, "interfere", path, "--pair", "0,2")
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 9
    for t, coh, delta in rows:
        expected = 0.7071067811865476 * 1e-17 if int(t) < 2 else 0.0
        assert float(coh) == pytest.approx(expected, rel=1e-15)
        assert float(delta) == 0.0


def test_interfere_overflowing_amplitude_is_a_parse_error(capsys, tmp_path):
    def overflow(doc):
        doc["amps"][0] = [1e200, 0.0]

    path = _altered_fixture(tmp_path, "scenario_permuted.json", overflow)
    code, out, err = run_cli(capsys, "interfere", path)
    assert (code, out) == (2, "")
    assert err.startswith("parse error: amps: sum |amp|^2 = inf,") and err.count("\n") == 1


@pytest.mark.parametrize("key", ["x", "1.5"])
def test_interfere_non_integer_policy_key_is_a_parse_error(capsys, tmp_path, key):
    def alter(doc):
        doc["policy"]["permutations"][key] = doc["policy"]["permutations"].pop("2")

    path = _altered_fixture(tmp_path, "scenario_permuted.json", alter)
    code, out, err = run_cli(capsys, "interfere", path)
    assert (code, out) == (2, "")
    assert err == (
        f"parse error: policy.permutations: branch id key {key!r} "
        "is not a canonical decimal integer\n"
    )


def test_interfere_refuses_two_keys_for_one_branch(capsys, tmp_path):
    # "0" and "00" used to name branch 0 both, the later silently winning
    def alter(doc):
        doc["policy"]["permutations"] = {"2": {"0": 2, "2": 0}, "02": {"0": 1, "1": 0}}

    path = _altered_fixture(tmp_path, "scenario_permuted.json", alter)
    code, out, err = run_cli(capsys, "interfere", path)
    assert (code, out) == (2, "")
    assert err.startswith("parse error: policy.permutations: branch id key '02' ")


def test_interfere_refuses_a_map_for_a_missing_branch(capsys, tmp_path):
    # the fixture's branches are 1 and 2: ignoring the map for 3 would
    # print rows without the t = 5 revival of pair 0,1 and exit 0
    def alter(doc):
        doc["policy"]["permutations"] = {"3": {"0": 2, "2": 0}}

    path = _altered_fixture(tmp_path, "scenario_permuted.json", alter)
    code, out, err = run_cli(capsys, "interfere", path, "--pair", "0,1")
    assert (code, out) == (1, "")
    assert err == "error: PermutedOrbit map for branch 3, which no branch has\n"


def test_interfere_refuses_a_trace_past_the_label_cap_before_the_run(capsys, monkeypatch, tmp_path):
    # one branch more than MAX_TRACE_LABELS admits at MAX_T_MAX: a document
    # of a few kilobytes that would ask for more than a million labels
    def refuse(*args, **kwargs):
        raise AssertionError("the run started before the trace size was checked")

    monkeypatch.setattr(haltlab.cli, "run_superposition", refuse)
    n = MAX_TRACE_LABELS // (MAX_T_MAX + 1) + 1
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "format_version": 1,
        "branches": [{"id": k, "orbit": [f"c{k}"], "halt_step": 0} for k in range(n)],
        "amps": [[n**-0.5, 0.0]] * n,
        "policy": {"kind": "SharedOrbit"},
        "t_max": MAX_T_MAX,
    }))
    labels = n * (MAX_T_MAX + 1)
    assert run_cli(capsys, "interfere", str(path)) == (2, "", (
        f"parse error: document: {n} branches over {MAX_T_MAX + 1} steps make {labels} "
        f"composite labels, more than {MAX_TRACE_LABELS}\n"
    ))


@pytest.mark.parametrize("amp", [1e155, 1e200])
def test_check_overflowing_deviation_prints_no_infinity(capsys, tmp_path, amp):
    def overflow(doc):
        doc["rules"][0]["out"][0]["amp"] = [amp, 0.0]

    path = _altered_fixture(tmp_path, "right_shift.json", overflow)
    code, out, err = run_cli(capsys, "check", path)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    code, out, _ = run_cli(capsys, "nogo", path)
    assert code == 1
    assert _strict_json(out)["precondition_failure"]["check"] == "global_unitarity"


def _numeric_leaves(node, path=()):
    """Paths to every number in a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            yield path
        return
    for key, child in items:
        yield from _numeric_leaves(child, path + (key,))


#: fixture -> the commands that read it
FUZZ_FIXTURES = {
    "right_shift.json": ("check", "nogo"),
    "halt_flip_witness.json": ("check", "nogo"),
    "halted_tape_writer.json": ("check", "nogo"),
    "leaky_nonunitary.json": ("check", "nogo"),
    "scenario_equal_halt.json": ("interfere",),
    "scenario_permuted.json": ("interfere",),
    "scenario_shared_unequal.json": ("interfere",),
}
#: huge, tiny, negative and out-of-range replacements for one number
FUZZ_VALUES = (
    0, 2, 3, 7, -1, -(2**63), 2**31, 2**64, 10**30, 10**400,
    1e-300, 5e-324, -1e-300, 0.5, -0.5, 1e154, 1e200, 1.7e308, -1.7e308, True, "1", None,
)


@st.composite
def _mutated_fixture(draw):
    name = draw(st.sampled_from(sorted(FUZZ_FIXTURES)))
    doc = json.loads((FIXTURES / name).read_text())
    leaves = list(_numeric_leaves(doc))
    for path in draw(st.lists(st.sampled_from(leaves), min_size=1, max_size=3, unique=True)):
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = draw(st.sampled_from(FUZZ_VALUES))
    return name, doc


@settings(max_examples=150, deadline=None)
@given(_mutated_fixture())
def test_mutated_fixtures_exit_cleanly(case):
    # every command ends with a documented exit code and, where it prints
    # a report, strict JSON; an exception escaping main is a traceback
    name, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / name
        path.write_text(json.dumps(doc))
        for command in FUZZ_FIXTURES[name]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, str(path)])
            assert code in (0, 1, 2)
            if command == "interfere":
                assert out.getvalue() == "" or out.getvalue().startswith("t,")
            elif out.getvalue():
                _strict_json(out.getvalue())
            else:
                assert code != 0 and err.getvalue().count("\n") == 1
