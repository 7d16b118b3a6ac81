"""Mutation table: one-line source mutants that the test suite must kill.

Each row names a file under ``src/haltlab``, a text that occurs in it
exactly once, and the text that replaces it.  A row lists the tests that
kill the mutant: with it applied, at least one of them must fail.  An
``equivalent`` row instead gives the reason no test can tell the mutant
apart, and its tests must all still pass.

Run from the repository root::

    python tests/mutants.py            # every row
    python tests/mutants.py NAME ...   # the named rows only

The runner makes one temporary copy of ``src`` and ``tests`` for each of
its ``os.cpu_count()`` workers, and first runs every named test on the
unmutated copies, a share on each.  Then each free worker takes the next
row, applies it alone to its own copy and runs only that row's tests;
results print in row order.  It exits 1 if a baseline test fails, if a
row's text no longer occurs exactly once, if a mutant survives, or if an
``equivalent`` mutant is killed (then its reason is wrong).
"""

from __future__ import annotations

import os
import pathlib
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple, Optional, Tuple


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/haltlab
    old: str
    new: str
    tests: Tuple[str, ...]
    equivalent: Optional[str] = None


MUTANTS = (
    # move split of the generator
    Mutant(
        "generator-swaps-the-left-complements", "nogo.py",
        "(0, 0): eye - p0, (0, 1): eye - p1}",
        "(0, 0): eye - p1, (0, 1): eye - p0}",
        ("tests/test_nogo.py::test_generator_matches_its_recorded_tables",
         "tests/test_nogo.py::test_generator_produces_unitary_compliant_tables"),
    ),
    Mutant(
        "generator-halted-sector-flips-the-halt-bit", "nogo.py",
        "halted[xi::s, :, xi, 0, 1] = (split[0, 1] @ head).T",
        "halted[xi::s, :, xi, 0, 0] = (split[0, 1] @ head).T",
        ("tests/test_nogo.py::test_generator_produces_unitary_compliant_tables",),
    ),
    Mutant(
        "generator-one-gram-schmidt-pass", "nogo.py",
        "for _pass in range(2):",
        "for _pass in range(1):",
        ("tests/test_nogo.py::test_generator_is_deterministic_given_seed",),
    ),
    # one (q, sigma, halt) key order
    Mutant(
        "rule-keys-halt-bit-first", "qtm.py",
        "for s in range(dims.S) for hb in (0, 1))",
        "for s in range(dims.S) for hb in (1, 0))",
        ("tests/test_documents.py::test_machine_with_huge_dims_names_its_first_missing_keys",
         "tests/test_qtm.py::test_compliance_violations_reported"),
    ),
    Mutant(
        "missing-keys-name-present-ones", "documents.py",
        "missing = (key for key in rule_keys(dims) if key not in rules)",
        "missing = (key for key in rule_keys(dims) if key in rules)",
        ("tests/test_documents.py::test_machine_with_huge_dims_names_its_first_missing_keys",),
    ),
    # M/S/N size names
    Mutant(
        "dims-accept-zero", "qtm.py",
        "if not isinstance(val, int) or val < 1:",
        "if not isinstance(val, int) or val < 0:",
        ("tests/test_qtm.py::test_dims_validation",),
    ),
    Mutant(
        "dims-argument-takes-a-repeated-name", "cli.py",
        "if name.strip() in parts:",
        "if False:",
        ("tests/test_cli.py::test_input_checks[dims-repeated-name]",),
    ),
    # one kind -> field table for policy maps
    Mutant(
        "custom-maps-field-renamed", "documents.py",
        'AncillaPolicy.CUSTOM: "maps",',
        'AncillaPolicy.CUSTOM: "custom",',
        ("tests/test_documents.py::test_custom_orbit_scenario_round_trips",),
    ),
    Mutant(
        "policy-kind-must-be-hashable", "documents.py",
        "if not isinstance(kind, str) or kind not in _MAP_FIELDS:",
        "if kind not in _MAP_FIELDS:",
        ("tests/test_documents.py::test_input_checks[policy-kind-not-string]",),
    ),
    # one distinct-labels relabel path
    Mutant(
        "relabel-keeps-pruned-positions", "ancilla.py",
        "                del entries[labels[k]]",
        "                pass",
        ("tests/test_ancilla.py::test_pruned_branch_colliding_with_a_kept_one_merges_into_it",
         "tests/test_ancilla.py::test_steps_match_the_state_built_from_scratch"),
    ),
    Mutant(
        "relabel-treats-a-collision-as-distinct", "ancilla.py",
        "if len(entries) == n:  # the labels are distinct",
        "if len(entries) >= n - 1:  # the labels are distinct",
        ("tests/test_ancilla.py::test_colliding_composites_rejected",),
    ),
    # the first mutation check: twelve mutants that the whole suite killed
    Mutant(
        "compliance-allows-any-written-symbol", "qtm.py",
        "allowed[halted, :, halted // 2 % dims.S, :, 1] = True",
        "allowed[halted, :, :, :, 1] = True",
        ("tests/test_cli.py::test_check_flags_halted_tape_writer",),
    ),
    Mutant(
        "residual-27-pairs-q-plus", "nogo.py",
        "np.abs(overlaps(qminus, phiplus)),",
        "np.abs(overlaps(qplus, phiplus)),",
        ("tests/test_nogo.py::test_residual_tensors_match_the_vdot_loop_on_arbitrary_compliant_slots",),
    ),
    Mutant(
        "identity-22-on-the-difference", "nogo.py",
        "e_vecs = qplus + qminus",
        "e_vecs = qplus - qminus",
        ("tests/test_nogo.py::test_verify_nogo_worst_matches_the_vdot_loop",),
    ),
    Mutant(
        "worst-index-kept-at-zero", "nogo.py",
        "if peaks[name] > 0.0",
        "if peaks[name] >= 0.0",
        ("tests/test_cli.py::test_check_and_nogo_match_golden_bytes[right_shift-nogo]",),
    ),
    Mutant(
        "winner-among-infeasible-restarts", "search.py",
        "feasible = [c for c in candidates if c.feasible]",
        "feasible = list(candidates)",
        ("tests/test_search.py::test_only_feasible_restarts_win",),
    ),
    Mutant(
        "no-rescue-rounds", "search.py",
        "RESCUE_ROUNDS = 3",
        "RESCUE_ROUNDS = 0",
        ("tests/test_cli.py::test_search_rescues_a_restart_stuck_off_unitarity[2148]",),
    ),
    Mutant(
        "rescue-draw-imaginary-sign-flipped", "search.py",
        "raw = rng.standard_normal(int(mask_k.sum())) + 1j * rng.standard_normal(",
        "raw = rng.standard_normal(int(mask_k.sum())) - 1j * rng.standard_normal(",
        ("tests/test_search.py::test_a_rescued_restart_ends_at_zero_mass_on_a_unitary_table",),
    ),
    Mutant(
        "penalty-pair-multiplicity", "search.py",
        "mult_pair = dims.N * dims.S ** (dims.N - 2)",
        "mult_pair = dims.N * dims.S ** (dims.N - 1)",
        ("tests/test_search.py::test_local_penalty_equals_global_frobenius",),
    ),
    # trace values taken from the optimizer's own objective
    Mutant(
        "polish-trace-drops-the-final-weight", "search.py",
        "record(0.0 - (final * intermediate_result.fun - mass))",
        "record(0.0 - (intermediate_result.fun - mass))",
        ("tests/test_search.py::test_trace_rows_are_the_objective_at_each_iterate[compliant]",
         "tests/test_search.py::test_trace_rows_are_the_objective_at_each_iterate[no_ozawa]"),
    ),
    Mutant(
        "polish-trace-drops-the-mass", "search.py",
        "record(0.0 - (final * intermediate_result.fun - mass))",
        "record(0.0 - final * intermediate_result.fun)",
        ("tests/test_search.py::test_trace_rows_are_the_objective_at_each_iterate[compliant]",
         "tests/test_search.py::test_trace_rows_are_the_objective_at_each_iterate[no_ozawa]"),
    ),
    Mutant(
        "polar-blocks-sorted-inverse", "search.py",
        "(left @ right)[inverse.reshape(-1)]",
        "(left @ right)[np.sort(inverse.reshape(-1))]",
        ("tests/test_search.py::test_projection_is_identity_on_unitary_tables",),
    ),
    Mutant(
        "coherence-by-halt-bit-alone", "ancilla.py",
        "if env_i == env_j else 0j",
        "if env_i[0] == env_j[0] else 0j",
        ("tests/test_ancilla.py::test_shared_orbit_unequal_halts_lose_all_coherence",),
    ),
    Mutant(
        "records-agree-only-when-equal", "ancilla.py",
        "records_agree = ti == tj or (ti > t and tj > t)",
        "records_agree = ti == tj",
        ("tests/test_ancilla.py::test_monitoring_effect_shared_orbit_is_null",),
    ),
    Mutant(
        "records-agree-when-either-branch-runs", "ancilla.py",
        "records_agree = ti == tj or (ti > t and tj > t)",
        "records_agree = ti == tj or (ti > t or tj > t)",
        ("tests/test_ancilla.py::"
         "test_monitoring_effect_drops_a_cross_term_when_only_one_branch_has_halted",),
    ),
    Mutant(
        "pruned-branch-read-as-1e-14", "ancilla.py",
        "        return rho.entry(row, col)\n    return 0j",
        "        return rho.entry(row, col)\n    return 1e-14 + 0j",
        ("tests/test_cli.py::test_interfere_reads_a_pruned_branch_as_zero",),
    ),
    # the first mutation check's three survivors, killed by tests added since
    Mutant(
        "unitarity-reads-the-real-part-only", "qtm.py",
        "dev = float(np.max(np.abs(gram.data - on_diagonal), initial=0.0))",
        "dev = float(np.max(np.abs((gram.data - on_diagonal).real), initial=0.0))",
        ("tests/test_cli.py::test_check_finds_a_phase_only_unitarity_defect",),
    ),
    Mutant(
        "nogo-keeps-the-last-sample-only", "cli.py",
        "all_passed = all_passed and report.passed",
        "all_passed = report.passed",
        ("tests/test_cli.py::test_nogo_random_fails_when_an_early_sample_fails",),
    ),
    Mutant(
        "sum-of-squares-overflows-to-zero", "hilbert.py",
        "        return math.inf",
        "        return 0.0",
        ("tests/test_hilbert.py::test_sum_of_squares_overflows_to_inf",),
    ),
    Mutant(
        "verify-nogo-ignores-the-mass", "nogo.py",
        "passed=max_residual <= tol and mass <= tol,",
        "passed=max_residual <= tol,",
        ("tests/test_nogo.py::test_verify_nogo_on_random_tables",
         "tests/test_nogo.py::test_verify_nogo_right_shift_all_zero"),
        equivalent=(
            "under the 1e-12 unitarity precondition each residual is at most the "
            "deviation, so the mass stays below ~48e-24 and cannot exceed a tol that "
            "the residuals meet; the check stays as defence in depth"
        ),
    ),
    # the deviation read off U^dag U, and the parser kept between calls
    Mutant(
        "unitarity-ignores-a-missing-diagonal", "qtm.py",
        "dev = max(dev, 1.0)",
        "dev = dev",
        ("tests/test_qtm.py::test_empty_outcome_list_flagged_as_nonunitary",),
    ),
    Mutant(
        "unitarity-reads-g-ii-for-g-ii-minus-1", "qtm.py",
        "np.abs(gram.data - on_diagonal)",
        "np.abs(gram.data)",
        ("tests/test_cli.py::test_check_and_nogo_match_golden_bytes[right_shift-check]",),
    ),
    Mutant(
        "main-builds-a-parser-per-call", "cli.py",
        "args = _parser().parse_args(argv)",
        "args = build_parser().parse_args(argv)",
        ("tests/test_cli.py::test_main_builds_one_parser_and_keeps_it_after_a_parse_error",),
    ),
    Mutant(
        "tol-in-exponent-form-read-as-an-option", "cli.py",
        'self._negative_number_matcher = re.compile(r"^-\\.?\\d")',
        'self._negative_number_matcher = re.compile(r"^-\\d+$|^-\\d*\\.\\d+$")',
        ("tests/test_cli.py::"
         "test_a_negative_tol_in_any_float_form_reaches_the_range_check[nogo--1e-3]",),
    ),
    # the residual gate, which the unitarity precondition implies at the
    # default tol but which a smaller tol reaches
    Mutant(
        "verify-nogo-ignores-the-residuals", "nogo.py",
        "passed=max_residual <= tol and mass <= tol,",
        "passed=mass <= tol,",
        ("tests/test_nogo.py::test_verify_nogo_fails_on_residuals_above_its_tol",),
    ),
    # branch model input checks, each deleted
    Mutant(
        "halt-step-may-be-negative", "ancilla.py",
        "if self.halt_step < 0:",
        "if False:",
        ("tests/test_ancilla.py::test_input_checks[halt-step]",),
    ),
    Mutant(
        "policy-kind-unchecked", "ancilla.py",
        "if kind not in (self.SHARED, self.PERMUTED, self.CUSTOM):",
        "if False:",
        ("tests/test_ancilla.py::test_input_checks[policy-kind]",),
    ),
    Mutant(
        "trace-step-unchecked", "ancilla.py",
        "if not (0 <= t <= self.t_max):",
        "if False:",
        ("tests/test_ancilla.py::test_input_checks[trace-step]",),
    ),
    Mutant(
        "t-max-may-be-negative", "ancilla.py",
        "if t_max < 0:",
        "if False:",
        ("tests/test_ancilla.py::test_input_checks[t-max]",),
    ),
    Mutant(
        "amplitude-count-unchecked", "ancilla.py",
        "if len(branches) != len(amps) or not branches:",
        "if False:",
        ("tests/test_ancilla.py::test_input_checks[amp-count]",),
    ),
    Mutant(
        "branch-ids-may-repeat", "ancilla.py",
        "if len(ids) != len(branches):",
        "if False:",
        ("tests/test_ancilla.py::test_input_checks[duplicate-id]",),
    ),
    Mutant(
        "map-without-branch-ignored", "ancilla.py",
        "    if unknown:",
        "    if False:",
        ("tests/test_ancilla.py::test_input_checks[map-without-branch]",
         "tests/test_ancilla.py::test_input_checks[permutation-without-branch]"),
    ),
    Mutant(
        "monitoring-pair-unchecked", "ancilla.py",
        "if not (0 <= i < n and 0 <= j < n) or i == j:",
        "if False:",
        ("tests/test_ancilla.py::test_input_checks[monitoring-pair]",),
    ),
    Mutant(
        "orbit-may-miss-pre-halt-steps", "ancilla.py",
        "if len(self.orbit) < self.halt_step:",
        "if False:",
        ("tests/test_ancilla.py::test_branch_orbit_must_cover_pre_halt_steps",),
    ),
    Mutant(
        "duplicated-branches-accepted", "ancilla.py",
        "if len(fingerprints) != len(branches):",
        "if False:",
        ("tests/test_ancilla.py::test_duplicated_branches_rejected",),
    ),
    Mutant(
        "fixed-point-dimension-unchecked", "ancilla.py",
        "if dim < 2:",
        "if False:",
        ("tests/test_ancilla.py::test_fixed_point_validates_arguments",),
    ),
    Mutant(
        "fixed-point-overlap-unchecked", "ancilla.py",
        "if not 0.0 <= r <= 1.0:",
        "if False:",
        ("tests/test_ancilla.py::test_fixed_point_validates_arguments",),
    ),
    # labels, halt bits and ancilla indices read from the trace's steps
    Mutant(
        "policy-gap-names-the-step", "ancilla.py",
        "does not cover offset {t - b.halt_step}",
        "does not cover offset {t}",
        ("tests/test_ancilla.py::test_earliest_step_policy_gap_is_reported_first",),
    ),
    Mutant(
        "label-reader-skips-the-range-check", "ancilla.py",
        "return self.steps[self._step(t)][i]",
        "return self.steps[t][i]",
        ("tests/test_ancilla.py::test_input_checks[label-step-before-0]",),
    ),
    Mutant(
        "branch-readers-skip-the-index-check", "ancilla.py",
        "if not (0 <= i < len(self.branches)):",
        "if False:",
        ("tests/test_ancilla.py::test_input_checks[label-branch-before-0]",
         "tests/test_ancilla.py::test_input_checks[environment-branch-past-n]"),
    ),
    Mutant(
        "served-prefix-keeps-every-step", "ancilla.py",
        "steps=kept.steps[: t_max + 1]",
        "steps=kept.steps",
        ("tests/test_ancilla.py::test_the_last_run_is_served_only_for_its_own_objects_and_steps",),
    ),
    Mutant(
        "monitored-run-reads-the-first-step", "ancilla.py",
        "steps[t_max]",
        "steps[0]",
        ("tests/test_ancilla.py::test_monitored_run_marks_unhalted_branches",),
    ),
    Mutant(
        "monitored-run-keeps-zero-probabilities", "ancilla.py",
        "if prob > 0.0:",
        "if prob >= 0.0:",
        ("tests/test_ancilla.py::test_monitored_run_leaves_out_a_branch_of_amplitude_zero",),
    ),
    # the one-entry memos of run_superposition and reduced_density
    Mutant(
        "run-memo-ignores-t-max", "ancilla.py",
        "and 0 <= t_max <= last[3].t_max",
        "and 0 <= t_max",
        ("tests/test_ancilla.py::test_the_last_run_is_served_only_for_its_own_objects_and_steps",),
    ),
    Mutant(
        "run-memo-ignores-the-policy", "ancilla.py",
        "and policy is last[2]",
        "and True",
        ("tests/test_ancilla.py::test_the_last_run_is_served_only_for_its_own_objects_and_steps",),
    ),
    Mutant(
        "run-memo-keeps-list-inputs", "ancilla.py",
        "if type(branches) is tuple and type(amps) is tuple:",
        "if True:",
        ("tests/test_ancilla.py::test_a_list_changed_between_calls_is_run_again",),
    ),
    Mutant(
        "density-memo-ignores-the-state", "hilbert.py",
        "if last is not None and state is last[0]:",
        "if last is not None:",
        ("tests/test_hilbert.py::"
         "test_reduced_density_is_returned_again_only_for_the_same_state_and_projection",),
    ),
    # the reduced density's array path and the PSD check
    Mutant(
        "density-products-by-complex-multiply", "hilbert.py",
        "    mat.real = np.bincount(cell, ar * br - ai * nbi, d * d)\n"
        "    mat.imag = np.bincount(cell, ar * nbi + ai * br, d * d)",
        "    prod = amps[a] * amps[b].conj()\n"
        "    mat.real = np.bincount(cell, prod.real, d * d)\n"
        "    mat.imag = np.bincount(cell, prod.imag, d * d)",
        ("tests/test_hilbert.py::test_reduced_density_bits_equal_the_loop",),
    ),
    Mutant(
        "density-environments-in-label-order", "hilbert.py",
        "enumerate(sorted(set(env_part)))",
        "enumerate(dict.fromkeys(env_part))",
        ("tests/test_hilbert.py::test_reduced_density_bits_equal_the_loop",),
    ),
    Mutant(
        "cholesky-shift-twice-the-tolerance", "hilbert.py",
        "diagonal += self.PSD_TOL / 2",
        "diagonal += 2 * self.PSD_TOL",
        ("tests/test_hilbert.py::"
         "test_psd_check_near_the_tolerance[past-the-shift-and-the-tolerance]",),
    ),
    Mutant(
        "cholesky-without-the-scale-guard", "hilbert.py",
        "if not (n + 1) * _EPS * trace <= self.PSD_TOL / 4:",
        "if False:",
        ("tests/test_hilbert.py::test_psd_check_outside_the_scale_guard_asks_eigvalsh",),
    ),
    Mutant(
        "density-matrix-adopts-the-callers-array", "hilbert.py",
        "mat = np.array(matrix, dtype=complex)",
        "mat = np.asarray(matrix, dtype=complex)",
        ("tests/test_hilbert.py::test_density_matrix_keeps_its_own_copy_of_the_input",),
    ),
    # CLI input checks
    Mutant(
        "tol-may-be-infinite", "cli.py",
        "if not 0.0 <= tol < math.inf:",
        "if not 0.0 <= tol:",
        ("tests/test_cli.py::test_input_checks[nogo-tol-inf]",),
    ),
    Mutant(
        "seed-may-be-negative", "cli.py",
        "    if seed < 0:",
        "    if seed < -9:",
        ("tests/test_cli.py::test_input_checks[nogo-seed]",
         "tests/test_cli.py::test_input_checks[search-seed]"),
    ),
    Mutant(
        "only-missing-files-are-usage-errors", "cli.py",
        "except (UsageError, OSError, MachineError) as exc:",
        "except (UsageError, FileNotFoundError, MachineError) as exc:",
        ("tests/test_cli.py::test_a_directory_is_a_usage_error",),
    ),
    # document field checks, each deleted
    Mutant(
        "top-level-may-be-any-value", "documents.py",
        "if not isinstance(doc, dict):",
        "if False:",
        ("tests/test_documents.py::test_input_checks[top-level]",),
    ),
    Mutant(
        "field-holder-may-be-any-value", "documents.py",
        "if not isinstance(obj, dict):\n        raise DocumentError(path, f\"expected an object, got",
        "if False:\n        raise DocumentError(path, f\"expected an object, got",
        ("tests/test_documents.py::test_input_checks[holder-not-object]",),
    ),
    Mutant(
        "missing-field-unchecked", "documents.py",
        "if key not in obj:",
        "if False:",
        ("tests/test_documents.py::test_input_checks[missing-field]",),
    ),
    Mutant(
        "amplitude-may-be-infinite", "documents.py",
        "if not (math.isfinite(z.real) and math.isfinite(z.imag)):",
        "if False:",
        ("tests/test_documents.py::test_input_checks[json-1e400]",),
    ),
    Mutant(
        "rules-may-be-any-value", "documents.py",
        "if not isinstance(rules_obj, list):",
        "if False:",
        ("tests/test_documents.py::test_input_checks[rules-not-list]",),
    ),
    Mutant(
        "outcomes-may-be-any-value", "documents.py",
        "if not isinstance(out, list):",
        "if False:",
        ("tests/test_documents.py::test_input_checks[out-not-list]",),
    ),
    Mutant(
        "orbit-may-be-any-value", "documents.py",
        "if not isinstance(orbit, list):",
        "if False:",
        ("tests/test_documents.py::test_input_checks[orbit-not-list]",),
    ),
    Mutant(
        "branches-may-be-empty", "documents.py",
        "if not isinstance(branches_obj, list) or not branches_obj:",
        "if not isinstance(branches_obj, list):",
        ("tests/test_documents.py::test_input_checks[no-branches]",),
    ),
    Mutant(
        "policy-maps-may-be-any-value", "documents.py",
        "if not isinstance(obj, dict):\n        raise DocumentError(path, \"expected an object\")",
        "if False:\n        raise DocumentError(path, \"expected an object\")",
        ("tests/test_documents.py::test_input_checks[maps-not-object]",),
    ),
    Mutant(
        "index-map-may-be-any-value", "documents.py",
        "if not isinstance(obj, dict):\n        raise DocumentError(path, \"expected an object of",
        "if False:\n        raise DocumentError(path, \"expected an object of",
        ("tests/test_documents.py::test_input_checks[map-not-object]",),
    ),
    Mutant(
        "orbit-label-type-unchecked", "documents.py",
        "if isinstance(label, bool) or not isinstance(label, (str, int)):",
        "if False:",
        ("tests/test_documents.py::test_input_checks[label-type]",),
    ),
    Mutant(
        "post-halt-label-type-unchecked", "documents.py",
        "if isinstance(post, bool) or not isinstance(post, (str, int)):",
        "if False:",
        ("tests/test_documents.py::test_input_checks[post-halt-label-type]",),
    ),
    Mutant(
        "scenario-policy-kind-unchecked", "documents.py",
        "if not isinstance(kind, str) or kind not in _MAP_FIELDS:",
        "if False:",
        ("tests/test_documents.py::test_input_checks[policy-kind]",),
    ),
    Mutant(
        "trace-labels-uncapped", "documents.py",
        "if labels > MAX_TRACE_LABELS:",
        "if False:",
        ("tests/test_documents.py::test_scenario_trace_is_capped_in_labels",
         "tests/test_cli.py::"
         "test_interfere_refuses_a_trace_past_the_label_cap_before_the_run"),
    ),
    Mutant(
        "decode-errors-escape", "documents.py",
        "except UnicodeDecodeError as exc:",
        "except LookupError as exc:",
        ("tests/test_cli.py::test_a_document_that_is_not_utf8_is_a_parse_error",),
    ),
)


def _run(root: pathlib.Path, *args) -> subprocess.CompletedProcess:
    """Python on the copy at ``root``.  No bytecode is cached, so a file
    restored within the same second is not read from a stale cache."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.pop("OPENBLAS_VERBOSE", None)  # it would log the BLAS core type to stderr
    return subprocess.run([sys.executable, *args], cwd=root, env=env,
                          capture_output=True, text=True, check=False)


def _pytest(root: pathlib.Path, tests) -> int:
    return _run(root, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests).returncode


def _imports_from(root: pathlib.Path) -> bool:
    where = _run(root, "-c", "import haltlab; print(haltlab.__file__)").stdout.strip()
    return pathlib.Path(where).is_relative_to(root / "src")


def _check(root: pathlib.Path, mutant: Mutant) -> str:
    """Apply ``mutant`` to the copy at ``root``, run its tests, restore the file."""
    path = root / "src" / "haltlab" / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return f"text occurs {text.count(mutant.old)} times, not once"
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    try:
        code = _pytest(root, mutant.tests)
    finally:
        path.write_text(text, encoding="utf-8")
    if code not in (0, 1):
        return f"pytest exited {code}: a test id is wrong or the mutant breaks the import"
    if mutant.equivalent is None and code == 0:
        return "survived"
    if mutant.equivalent is not None and code == 1:
        return "killed, though marked equivalent"
    return ""


def main(argv) -> int:
    rows = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown rows: {sorted(unknown)}")
        return 2
    repo = pathlib.Path(__file__).resolve().parent.parent
    workers = max(1, min(os.cpu_count() or 1, len(rows)))
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        roots = [pathlib.Path(tmp, str(k)) for k in range(workers)]
        for root in roots:
            for part in ("src", "tests"):
                shutil.copytree(repo / part, root / part,
                                ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        start = time.perf_counter()
        if not all(_imports_from(root) for root in roots):
            print("the tests would not import haltlab from the copy")
            return 1
        free = queue.SimpleQueue()
        for root in roots:
            free.put(root)

        def check(mutant: Mutant) -> str:
            root = free.get()
            try:
                return _check(root, mutant)
            finally:
                free.put(root)

        baseline = sorted({test for m in rows for test in m.tests})
        shares = [baseline[k::workers] for k in range(workers) if baseline[k::workers]]
        with ThreadPoolExecutor(workers) as pool:
            if any(pool.map(_pytest, roots, shares)):
                print("baseline: a named test fails on the unmutated source")
                return 1
            for mutant, problem in zip(rows, pool.map(check, rows)):
                failures += bool(problem)
                print(f"{'FAIL' if problem else 'ok':4}  {mutant.name}"
                      + (f": {problem}" if problem else ""), flush=True)
        print(f"{len(rows) - failures} of {len(rows)} rows hold "
              f"in {time.perf_counter() - start:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
