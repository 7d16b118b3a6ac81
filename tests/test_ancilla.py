"""Branch model: traces, coherence, monitoring, fixed-point certificates."""

import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haltlab.ancilla import (
    AncillaPolicy,
    BranchModelError,
    BranchSpec,
    PolicyError,
    coherence,
    fixed_point_impossibility,
    monitored_run,
    monitoring_effect,
    run_superposition,
)
from oracles import _composite, superposition_states

INV_SQRT2 = 2**-0.5


def _branch(bid, prefix, halt_step, length=None):
    length = halt_step + 1 if length is None else length
    orbit = tuple(f"{prefix}{t}" for t in range(halt_step)) + (f"{prefix}done",) * max(
        0, length - halt_step
    )
    return BranchSpec(id=bid, orbit=orbit, halt_step=halt_step)


def _pair(t1, t2):
    return [_branch(1, "a", t1), _branch(2, "b", t2)]


EQUAL_AMPS = (INV_SQRT2, INV_SQRT2)


# -- branch and policy validation -------------------------------------------

def test_branch_orbit_must_cover_pre_halt_steps():
    with pytest.raises(
        BranchModelError, match=r"^branch 1: orbit covers 2 steps, needs at least 3$"
    ):
        BranchSpec(id=1, orbit=("a", "b"), halt_step=3)


def test_branch_requires_post_halt_label_when_orbit_stops_at_halt():
    with pytest.raises(BranchModelError):
        BranchSpec(id=1, orbit=("a", "b", "c"), halt_step=3)
    b = BranchSpec(id=1, orbit=("a", "b", "c"), halt_step=3, post_halt_label="done")
    trace = run_superposition([b], [1.0], AncillaPolicy.shared(), t_max=99)
    assert trace.branch_label(0, 2) == "c"
    assert trace.branch_label(0, 99) == "done"


def test_branch_orbit_tail_must_be_frozen():
    with pytest.raises(BranchModelError):
        BranchSpec(id=1, orbit=("a", "b", "done", "oops"), halt_step=2)


def test_permuted_policy_rejects_non_injective_map():
    with pytest.raises(PolicyError):
        AncillaPolicy.permuted({1: {0: 1, 1: 1}})


def test_permuted_policy_rejects_non_permutation():
    # 0 -> 5 with no entry mapping back collides with the identity tail
    with pytest.raises(PolicyError):
        AncillaPolicy.permuted({1: {0: 5}})


def test_custom_policy_rejects_non_injective_map():
    with pytest.raises(PolicyError):
        AncillaPolicy.custom({1: {0: 3, 1: 3}})


def test_policies_reject_negative_indices():
    with pytest.raises(PolicyError):
        AncillaPolicy.custom({1: {0: -1}})


def test_custom_policy_must_cover_requested_offsets():
    policy = AncillaPolicy.custom({1: {0: 0, 1: 1}})
    branches = [_branch(1, "a", 1), _branch(2, "b", 9)]
    with pytest.raises(PolicyError):
        run_superposition(branches, EQUAL_AMPS, policy, t_max=4)


def test_shared_policy_takes_no_maps():
    with pytest.raises(PolicyError):
        AncillaPolicy(AncillaPolicy.SHARED, {1: {0: 0}})


SHARED = AncillaPolicy.shared()


def _read_step(reader, t):
    """Call ``reader`` of a 0..4 trace for branch 0 at step ``t``."""
    return lambda: getattr(run_superposition(_pair(3, 5), EQUAL_AMPS, SHARED, 4), reader)(0, t)


def _read_branch(reader, i):
    """Call ``reader`` of a two-branch 0..4 trace for branch ``i`` at step 2."""
    return lambda: getattr(run_superposition(_pair(3, 5), EQUAL_AMPS, SHARED, 4), reader)(i, 2)


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        pytest.param(lambda: BranchSpec(id=1, orbit=("a",), halt_step=-1),
                     BranchModelError, "branch 1: halt_step must be >= 0", id="halt-step"),
        pytest.param(lambda: AncillaPolicy("LoopOrbit"),
                     PolicyError, "unknown policy kind 'LoopOrbit'", id="policy-kind"),
        pytest.param(lambda: run_superposition(_pair(3, 5), EQUAL_AMPS, SHARED, 4).state(5),
                     BranchModelError, "step 5 outside 0..4", id="trace-step"),
        # a step of -1 must not read a column from its end
        pytest.param(_read_step("branch_label", -1), BranchModelError,
                     "step -1 outside 0..4", id="label-step-before-0"),
        pytest.param(_read_step("branch_label", 5), BranchModelError,
                     "step 5 outside 0..4", id="label-step-past-t-max"),
        pytest.param(_read_step("branch_environment", -1), BranchModelError,
                     "step -1 outside 0..4", id="environment-step-before-0"),
        pytest.param(_read_step("branch_environment", 5), BranchModelError,
                     "step 5 outside 0..4", id="environment-step-past-t-max"),
        # a branch index of -1 must not read the last branch's column
        pytest.param(_read_branch("branch_label", -1), BranchModelError,
                     "branch index out of range: -1", id="label-branch-before-0"),
        pytest.param(_read_branch("branch_label", 2), BranchModelError,
                     "branch index out of range: 2", id="label-branch-past-n"),
        pytest.param(_read_branch("branch_environment", -1), BranchModelError,
                     "branch index out of range: -1", id="environment-branch-before-0"),
        pytest.param(_read_branch("branch_environment", 2), BranchModelError,
                     "branch index out of range: 2", id="environment-branch-past-n"),
        pytest.param(lambda: run_superposition(_pair(3, 5), EQUAL_AMPS, SHARED, -1),
                     BranchModelError, "t_max must be >= 0", id="t-max"),
        pytest.param(lambda: run_superposition(_pair(3, 5), (1.0,), SHARED, 4),
                     BranchModelError, "need one amplitude per branch", id="amp-count"),
        pytest.param(lambda: run_superposition([_branch(1, "a", 3), _branch(1, "b", 5)],
                                               EQUAL_AMPS, SHARED, 4),
                     BranchModelError, "branch ids must be distinct", id="duplicate-id"),
        pytest.param(lambda: run_superposition(_pair(3, 5), EQUAL_AMPS,
                                               AncillaPolicy.custom({2: {}, 7: {0: 0}}), 4),
                     PolicyError, "CustomOrbit map for branch 7, which no branch has",
                     id="map-without-branch"),
        # ignoring the map for branch 3 would drop the revival that the same
        # map gives branch 2, so the run must refuse it
        pytest.param(lambda: monitored_run(_pair(3, 5), EQUAL_AMPS,
                                           AncillaPolicy.permuted({3: {0: 2, 2: 0}}), 8),
                     PolicyError, "PermutedOrbit map for branch 3, which no branch has",
                     id="permutation-without-branch"),
        pytest.param(lambda: monitoring_effect(_pair(3, 5), EQUAL_AMPS, SHARED, (0, 0), 2),
                     BranchModelError, "invalid branch pair (0, 0)", id="monitoring-pair"),
    ],
)
def test_input_checks(call, error, fragment):
    with pytest.raises(BranchModelError) as caught:
        call()
    assert type(caught.value) is error
    assert fragment in str(caught.value)


# -- running superpositions ---------------------------------------------------

def test_single_branch_trace_is_basis_vector():
    trace = run_superposition([_branch(1, "a", 2)], [1.0], AncillaPolicy.shared(), t_max=6)
    for t in range(7):
        state = trace.state(t)
        assert len(state) == 1
        assert state.norm() == pytest.approx(1.0)


def test_equal_halt_times_keep_common_environment():
    trace = run_superposition(_pair(3, 3), EQUAL_AMPS, AncillaPolicy.shared(), t_max=10)
    for t in range(11):
        assert trace.branch_environment(0, t) == trace.branch_environment(1, t)


def test_unequal_halt_times_split_halt_bit_then_ancilla():
    trace = run_superposition(_pair(3, 5), EQUAL_AMPS, AncillaPolicy.shared(), t_max=10)
    assert trace.branch_environment(0, 4) == (1, 1)
    assert trace.branch_environment(1, 4) == (0, 0)  # halt bits differ at t=4
    assert trace.branch_environment(0, 6) == (1, 3)  # ancilla indices 3 vs 1 at t=6
    assert trace.branch_environment(1, 6) == (1, 1)


def test_amplitudes_must_be_normalized():
    nan, inf = float("nan"), float("inf")
    for amps in [(0.5, 0.5), (nan, 1.0), (complex(1.0, nan), 0.0), (inf, 0.0)]:
        with pytest.raises(BranchModelError, match="not normalized"):
            run_superposition(_pair(3, 5), amps, AncillaPolicy.shared(), t_max=4)


def test_duplicated_branches_rejected():
    b1 = _branch(1, "a", 3)
    b2 = BranchSpec(id=2, orbit=b1.orbit, halt_step=3)
    with pytest.raises(BranchModelError, match=r"^duplicated branch: same orbit and halt data$"):
        run_superposition([b1, b2], EQUAL_AMPS, AncillaPolicy.shared(), t_max=5)


def _bits(state):
    return [(label, a.real.hex(), a.imag.hex()) for label, a in state.items()]


def _assert_matches_oracle(branches, amps, policy, t_max):
    """Same states, bit for bit, or the same error type and text."""
    try:
        expected = [_bits(s) for s in superposition_states(branches, amps, policy, t_max)]
    except BranchModelError as exc:
        with pytest.raises(BranchModelError) as caught:
            run_superposition(branches, amps, policy, t_max)
        assert type(caught.value) is type(exc)
        assert str(caught.value) == str(exc)
        return caught.value
    trace = run_superposition(branches, amps, policy, t_max)
    assert len(trace.states) == t_max + 1
    assert [_bits(trace.state(t)) for t in range(t_max + 1)] == expected
    assert trace.steps == tuple(
        tuple(_composite(b, policy, t) for b in branches) for t in range(t_max + 1)
    )
    for i, branch in enumerate(branches):
        for t in range(t_max + 1):
            label, halt, index = _composite(branch, policy, t)
            assert trace.branch_label(i, t) == label
            assert trace.branch_environment(i, t) == (halt, index)
    return trace


def test_run_ending_before_any_branch_halts_keeps_t_max_plus_one_steps():
    _assert_matches_oracle(_pair(5, 6), EQUAL_AMPS, AncillaPolicy.shared(), t_max=3)


def test_pruned_branch_colliding_with_a_kept_one_merges_into_it():
    # the third amplitude is pruned, but at step 0 its label is the first
    # branch's, so the step is built from scratch and the two add up
    branches = _pair(2, 3) + [BranchSpec(id=3, orbit=("a0", "c1"), halt_step=1)]
    trace = _assert_matches_oracle(branches, EQUAL_AMPS + (1e-16,), AncillaPolicy.shared(), 4)
    assert trace.state(0).amplitude(("a0", 0, 0)) == INV_SQRT2 + 1e-16 != INV_SQRT2


def test_orthogonal_phases_on_one_label_merge_into_one_entry():
    b1 = BranchSpec(id=1, orbit=("x", "a1"), halt_step=1)
    b2 = BranchSpec(id=2, orbit=("x", "b1"), halt_step=1)
    trace = _assert_matches_oracle(
        [b1, b2], (INV_SQRT2, 1j * INV_SQRT2), AncillaPolicy.shared(), t_max=3
    )
    assert [label for label, _ in trace.state(0).items()] == [("x", 0, 0)]
    assert len(trace.state(1)) == 2


def test_collision_is_reported_before_a_later_policy_gap():
    b1 = BranchSpec(id=1, orbit=("x", "a1"), halt_step=1)
    b2 = BranchSpec(id=2, orbit=("x", "b1"), halt_step=1)
    policy = AncillaPolicy.custom({1: {0: 0}})  # offset 1 is reached at t = 2
    error = _assert_matches_oracle([b1, b2], EQUAL_AMPS, policy, t_max=3)
    assert type(error) is BranchModelError
    assert "collide on a composite label at step 0" in str(error)


def test_earliest_step_policy_gap_is_reported_first():
    # branch 1 comes first but its gap (offset 2) is reached one step after
    # branch 2's (offset 0)
    policy = AncillaPolicy.custom({1: {0: 0, 1: 1}, 2: {}})
    error = _assert_matches_oracle(_pair(1, 2), EQUAL_AMPS, policy, t_max=4)
    assert type(error) is PolicyError
    assert str(error) == "custom map for branch 2 does not cover offset 0"


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_policy_gaps_at_one_step_report_the_first_branch_in_position(order):
    # both gaps are reached at t = 3: branch 1 at offset 2, branch 2 at offset 1
    policy = AncillaPolicy.custom({1: {0: 0, 1: 1}, 2: {0: 5}})
    branches = [_pair(1, 2)[k] for k in order]
    error = _assert_matches_oracle(branches, EQUAL_AMPS, policy, t_max=5)
    first = branches[0]
    assert str(error) == (
        f"custom map for branch {first.id} does not cover offset {3 - first.halt_step}"
    )


def test_pruned_branch_still_needs_its_policy_to_cover_it():
    branches = _pair(3, 4) + [_branch(3, "c", 1)]
    policy = AncillaPolicy.custom({3: {}})
    error = _assert_matches_oracle(branches, EQUAL_AMPS + (1e-17,), policy, t_max=2)
    assert type(error) is PolicyError
    assert str(error) == "custom map for branch 3 does not cover offset 0"


def test_colliding_composites_rejected():
    # same label at step 0 with identical environment: not an isometry
    b1 = BranchSpec(id=1, orbit=("x", "a1", "a2"), halt_step=2)
    b2 = BranchSpec(id=2, orbit=("x", "b1", "b2"), halt_step=2)
    with pytest.raises(BranchModelError):
        run_superposition([b1, b2], EQUAL_AMPS, AncillaPolicy.shared(), t_max=2)


# -- coherence ----------------------------------------------------------------

def test_equal_halt_coherence_constant_half():
    trace = run_superposition(_pair(3, 3), EQUAL_AMPS, AncillaPolicy.shared(), t_max=20)
    for t in range(21):
        assert abs(coherence(trace, t, 0, 1)) == pytest.approx(0.5, abs=1e-12)


def test_shared_orbit_unequal_halts_lose_all_coherence():
    trace = run_superposition(_pair(3, 5), EQUAL_AMPS, AncillaPolicy.shared(), t_max=20)
    for t in range(3, 21):
        assert coherence(trace, t, 0, 1) == 0j


def test_permuted_orbit_reinterferes_at_a_computable_step():
    policy = AncillaPolicy.permuted({2: {0: 2, 2: 0}})
    trace = run_superposition(_pair(3, 5), EQUAL_AMPS, policy, t_max=8)
    for t in range(3, 9):
        value = coherence(trace, t, 0, 1)
        if t == 5:
            assert abs(value) == pytest.approx(0.5, abs=1e-12)
        else:
            assert value == 0j


def test_coherence_validates_indices():
    trace = run_superposition(_pair(3, 5), EQUAL_AMPS, AncillaPolicy.shared(), t_max=6)
    with pytest.raises(BranchModelError):
        coherence(trace, 2, 0, 0)
    with pytest.raises(BranchModelError):
        coherence(trace, 2, 0, 5)
    with pytest.raises(BranchModelError):
        coherence(trace, 9, 0, 1)


# -- monitoring ----------------------------------------------------------------

def test_monitored_run_single_branch():
    dist = monitored_run([_branch(1, "a", 3)], [1.0], AncillaPolicy.shared(), t_max=6)
    assert dist == {(3, "adone"): pytest.approx(1.0)}


def test_monitored_run_separates_unequal_halt_times():
    dist = monitored_run(_pair(3, 5), EQUAL_AMPS, AncillaPolicy.shared(), t_max=8)
    assert set(dist) == {(3, "adone"), (5, "bdone")}
    assert dist[(3, "adone")] == pytest.approx(0.5)
    assert dist[(5, "bdone")] == pytest.approx(0.5)


def test_monitored_run_equal_halt_times_single_record():
    dist = monitored_run(_pair(3, 3), EQUAL_AMPS, AncillaPolicy.shared(), t_max=8)
    records = {record for record, _ in dist}
    assert records == {3}
    assert math.fsum(dist.values()) == pytest.approx(1.0)


def test_monitored_run_marks_unhalted_branches():
    dist = monitored_run(_pair(2, 30), EQUAL_AMPS, AncillaPolicy.shared(), t_max=10)
    assert set(dist) == {(2, "adone"), (None, "b10")}


def test_monitored_run_leaves_out_a_branch_of_amplitude_zero():
    dist = monitored_run(_pair(2, 4), (1.0, 0.0), AncillaPolicy.shared(), t_max=6)
    assert all(prob > 0.0 for prob in dist.values())
    assert dist == {(2, "adone"): 1.0}


def test_monitoring_effect_shared_orbit_is_null():
    for t in range(9):
        effect = monitoring_effect(_pair(3, 5), EQUAL_AMPS, AncillaPolicy.shared(), (0, 1), t)
        assert effect.delta <= 1e-12


def test_monitoring_effect_detects_prevented_reinterference():
    policy = AncillaPolicy.permuted({2: {0: 2, 2: 0}})
    for t in range(9):
        effect = monitoring_effect(_pair(3, 5), EQUAL_AMPS, policy, (0, 1), t)
        if t == 5:
            assert effect.delta == pytest.approx(0.5, abs=1e-12)
            assert effect.unmonitored_expectation == pytest.approx(1.0, abs=1e-12)
            assert effect.monitored_expectation == pytest.approx(0.5, abs=1e-12)
        else:
            assert effect.delta <= 1e-12


def test_monitoring_effect_equal_halt_times_is_null():
    for t in range(7):
        effect = monitoring_effect(_pair(3, 3), EQUAL_AMPS, AncillaPolicy.shared(), (0, 1), t)
        assert effect.delta == 0.0


def test_monitoring_effect_drops_a_cross_term_when_only_one_branch_has_halted():
    # i still runs at t = 2 with label "a"; j and k halted at step 1 with
    # labels "b" and "a", so their records match and rho[a, b] = 1/3
    # comes from k, whose label collides with i's.
    branches = [
        BranchSpec(id=0, orbit=("i0", "i1", "a", "i.halted"), halt_step=3),
        BranchSpec(id=1, orbit=("j0", "b"), halt_step=1),
        BranchSpec(id=2, orbit=("k0", "a"), halt_step=1),
    ]
    amps = (complex(1.0 / math.sqrt(3.0)),) * 3
    for t in range(5):
        effect = monitoring_effect(branches, amps, AncillaPolicy.shared(), (0, 1), t)
        if t == 2:
            assert effect.unmonitored_expectation == pytest.approx(5.0 / 6.0, abs=1e-12)
            assert effect.monitored_expectation == pytest.approx(0.5, abs=1e-12)
            assert effect.delta == pytest.approx(1.0 / 3.0, abs=1e-12)
        else:
            assert effect.delta <= 1e-12


def test_monitoring_effect_rejects_degenerate_projector():
    b1 = BranchSpec(id=1, orbit=("a", "x"), halt_step=1, post_halt_label="x")
    b2 = BranchSpec(id=2, orbit=("b", "x"), halt_step=2, post_halt_label="y")
    with pytest.raises(BranchModelError):
        monitoring_effect([b1, b2], EQUAL_AMPS, AncillaPolicy.shared(), (0, 1), 1)


# -- fixed point impossibility --------------------------------------------------

def test_fixed_point_orthogonal_states():
    cert = fixed_point_impossibility(4, overlap=0.0, seed=1)
    assert cert.residual == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert cert.lower_bound == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_fixed_point_degenerate_overlap_one():
    cert = fixed_point_impossibility(4, overlap=1.0, seed=1)
    assert cert.residual <= 1e-12
    assert cert.lower_bound == 0.0


def test_fixed_point_partial_overlap():
    cert = fixed_point_impossibility(6, overlap=0.6, seed=2)
    assert cert.residual == pytest.approx(math.sqrt(0.8), abs=1e-12)


def test_fixed_point_residual_matches_bound_on_random_draws():
    rng = np.random.default_rng(3)
    for trial in range(25):
        r = float(rng.uniform(0.0, 1.0))
        cert = fixed_point_impossibility(int(rng.integers(2, 10)), overlap=r, seed=trial)
        assert abs(cert.residual - cert.lower_bound) <= 1e-10


def test_fixed_point_validates_arguments():
    with pytest.raises(BranchModelError, match=r"^need dimension >= 2$"):
        fixed_point_impossibility(1, overlap=0.5)
    with pytest.raises(BranchModelError, match=r"^overlap must lie in \[0, 1\], got 1\.5$"):
        fixed_point_impossibility(4, overlap=1.5)


# -- property suite -------------------------------------------------------------

def _branch_sets(max_size, max_halt):
    return st.lists(
        st.tuples(st.integers(1, 8), st.integers(1, max_halt)), min_size=1, max_size=max_size
    ).map(
        lambda specs: [
            _branch(i + 1, f"b{i}_", halt, length=halt + extra)
            for i, (extra, halt) in enumerate(specs)
        ]
    )


branch_sets = _branch_sets(max_size=4, max_halt=6)
wide_branch_sets = _branch_sets(max_size=6, max_halt=30)


@st.composite
def branch_scenarios(draw, extended=False):
    """Branches, normalized amplitudes, a policy and t_max.

    With ``extended``, there may be up to 6 branches halting up to step 30
    in runs up to t_max 40, with longer permutations, so policy gaps and
    collisions can land deep in a run; branches may share one post-halt
    label, so their composite labels can collide; the last amplitude may
    sit at or below the prune threshold; and the policy may be a
    CustomOrbit whose maps can leave offsets uncovered.
    """
    branches = draw(wide_branch_sets if extended else branch_sets)
    n = len(branches)
    if extended and draw(st.booleans()):
        branches = [
            BranchSpec(id=b.id, orbit=b.orbit[: b.halt_step], halt_step=b.halt_step,
                       post_halt_label="done")
            for b in branches
        ]
    raw = [
        draw(
            st.complex_numbers(
                min_magnitude=0.1, max_magnitude=1.0, allow_nan=False, allow_infinity=False
            )
        )
        for _ in range(n)
    ]
    tiny = None
    if extended and n >= 2 and draw(st.booleans()):
        last = raw.pop()
        tiny = last / abs(last) * draw(st.floats(0.0, 1e-15))
    norm = math.sqrt(math.fsum(abs(a) ** 2 for a in raw))
    amps = [a / norm for a in raw] + ([] if tiny is None else [tiny])
    use_permutation = draw(st.booleans())
    if extended and draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        maps = {}
        for b in branches:
            if draw(st.booleans()):
                values = rng.permutation(40)[: draw(st.integers(0, 30))]
                maps[b.id] = {k: int(v) for k, v in enumerate(values)}
        policy = AncillaPolicy.custom(maps)
    elif use_permutation:
        perm_seed = draw(st.integers(0, 2**16))
        rng = np.random.default_rng(perm_seed)
        perms = {}
        for b in branches:
            if draw(st.booleans()):
                size = draw(st.integers(2, 16)) if extended else 8
                p = rng.permutation(size)
                perms[b.id] = {k: int(p[k]) for k in range(size)}
        policy = AncillaPolicy.permuted(perms)
    else:
        policy = AncillaPolicy.shared()
    t_max = draw(st.integers(0, 40 if extended else 10))
    return branches, amps, policy, t_max


@given(branch_scenarios(extended=True))
@settings(max_examples=300, deadline=None)
def test_steps_match_the_state_built_from_scratch(scenario):
    _assert_matches_oracle(*scenario)


@given(branch_scenarios(extended=True))
@settings(max_examples=150, deadline=None)
def test_a_prefix_of_the_last_run_equals_a_fresh_run(scenario):
    branches, amps, policy, t_max = scenario
    branches, amps = tuple(branches), tuple(amps)
    # the longest run that passes, so that collisions and policy gaps of
    # the scenario lie past every step served from it
    while True:
        try:
            full = run_superposition(branches, amps, policy, t_max)
            break
        except BranchModelError:
            if t_max == 0:
                return
            t_max -= 1
    served = [run_superposition(branches, amps, policy, t) for t in range(t_max + 1)]
    for t, trace in enumerate(served):
        assert all(a is b for a, b in zip(trace.states, full.states))  # a hit
        # the kept run's step tuples themselves, not copies of them
        assert len(trace.steps) == t + 1
        assert all(a is b for a, b in zip(trace.steps, full.steps))
        # copied tuples are other objects, so this run starts from step 0
        fresh = run_superposition(tuple(list(branches)), tuple(list(amps)), policy, t)
        assert fresh.states[0] is not full.states[0]
        assert (trace.branches, trace.amps, trace.t_max) == (
            fresh.branches, fresh.amps, fresh.t_max)
        assert trace.steps == fresh.steps
        assert [_bits(s) for s in trace.states] == [_bits(s) for s in fresh.states]


def test_the_last_run_is_served_only_for_its_own_objects_and_steps():
    branches = tuple(_pair(3, 5))
    policy = AncillaPolicy.permuted({2: {0: 2, 2: 0}})
    swapped = AncillaPolicy.permuted({2: {0: 1, 1: 0}})
    cases = [  # (branches, amps, policy, t_max), served from the run to 8
        ((branches, EQUAL_AMPS, policy, 5), True),
        ((branches, EQUAL_AMPS, policy, 0), True),
        ((branches, EQUAL_AMPS, policy, 10), False),
        ((list(branches), EQUAL_AMPS, policy, 5), False),
        ((branches, list(EQUAL_AMPS), policy, 5), False),
        ((tuple(list(branches)), EQUAL_AMPS, policy, 5), False),
        ((branches, EQUAL_AMPS, AncillaPolicy.permuted({2: {0: 2, 2: 0}}), 5), False),
        ((branches, EQUAL_AMPS, swapped, 5), False),
    ]
    for args, served in cases:
        full = run_superposition(branches, EQUAL_AMPS, policy, 8)
        trace = run_superposition(*args)
        b, a, p, t = args
        fresh = run_superposition(list(b), list(a), p, t)
        assert (trace.states[0] is full.states[0]) == served
        assert trace.t_max == t
        assert trace.steps == fresh.steps
        assert [_bits(s) for s in trace.states] == [_bits(s) for s in fresh.states]


def test_a_list_changed_between_calls_is_run_again():
    branches = tuple(_pair(3, 5))
    amps = list(EQUAL_AMPS)
    run_superposition(branches, amps, SHARED, 8)
    amps[1] = -amps[1]
    trace = run_superposition(branches, amps, SHARED, 5)
    assert trace.amps == (INV_SQRT2, -INV_SQRT2)


def test_only_the_last_run_is_kept():
    first = run_superposition(tuple(_pair(3, 5)), EQUAL_AMPS, SHARED, 8)
    kept = weakref.ref(first)
    del first
    assert kept() is not None
    run_superposition(tuple(_pair(2, 4)), EQUAL_AMPS, SHARED, 8)
    assert kept() is None


def test_a_policy_never_changes():
    policy = AncillaPolicy.permuted({2: {0: 2, 2: 0}})
    with pytest.raises(AttributeError):
        policy.kind = AncillaPolicy.CUSTOM
    with pytest.raises(AttributeError):
        policy.maps = {}
    with pytest.raises(TypeError):
        policy.maps[2] = {}
    with pytest.raises(TypeError):
        policy.maps[2][0] = 0
    assert (policy.kind, policy.maps) == (AncillaPolicy.PERMUTED, {2: {0: 2, 2: 0}})


@given(branch_scenarios())
@settings(max_examples=120, deadline=None)
def test_trace_invariants(scenario):
    branches, amps, policy, t_max = scenario
    trace = run_superposition(branches, amps, policy, t_max)
    for t in range(t_max + 1):
        assert abs(trace.state(t).norm() - 1.0) <= 1e-12
    for i, b in enumerate(branches):
        bits = [trace.branch_environment(i, t)[0] for t in range(t_max + 1)]
        assert bits == sorted(bits)  # halt bit never clears
        for t in range(b.halt_step, t_max + 1):
            assert trace.branch_label(i, t) == b.post_halt_label


@given(branch_scenarios())
@settings(max_examples=120, deadline=None)
def test_shared_orbit_zero_coherence_theorem(scenario):
    branches, amps, _, t_max = scenario
    policy = AncillaPolicy.shared()
    trace = run_superposition(branches, amps, policy, t_max)
    for i in range(len(branches)):
        for j in range(i + 1, len(branches)):
            ti, tj = branches[i].halt_step, branches[j].halt_step
            if ti == tj:
                continue
            for t in range(min(ti, tj), t_max + 1):
                assert coherence(trace, t, i, j) == 0j


@given(branch_scenarios())
@settings(max_examples=60, deadline=None)
def test_monitoring_cannot_change_outcomes_without_coherence(scenario):
    branches, amps, policy, t_max = scenario
    trace = run_superposition(branches, amps, policy, t_max)
    n = len(branches)
    all_decohered = all(
        trace.branch_label(i, t_max) == trace.branch_label(j, t_max)
        or coherence(trace, t_max, i, j) == 0j
        for i in range(n)
        for j in range(i + 1, n)
    )
    if not all_decohered:
        return
    unmonitored = {}
    for label, amp in trace.state(t_max).items():
        unmonitored[label[0]] = unmonitored.get(label[0], 0.0) + abs(amp) ** 2
    monitored = {}
    for (_, label), prob in monitored_run(branches, amps, policy, t_max).items():
        monitored[label] = monitored.get(label, 0.0) + prob
    tv = 0.5 * math.fsum(
        abs(unmonitored.get(l, 0.0) - monitored.get(l, 0.0))
        for l in set(unmonitored) | set(monitored)
    )
    assert tv <= 1e-12


def test_run_superposition_rejects_an_overflowing_amplitude():
    branches = [
        BranchSpec(id=0, orbit=("a", "done"), halt_step=1),
        BranchSpec(id=1, orbit=("b", "done"), halt_step=1),
    ]
    with pytest.raises(BranchModelError, match="not normalized"):
        run_superposition(branches, [1e200, 0.0], AncillaPolicy.shared(), t_max=2)
