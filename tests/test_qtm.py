"""Machine model: step operator, global matrix, unitarity and compliance."""

import itertools
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import haltlab.qtm
from haltlab.documents import load_machine
from haltlab.hilbert import SparseState
from haltlab.nogo import random_compliant_table
from haltlab.qtm import (
    DimensionCapError,
    MachineDims,
    MachineError,
    TransitionTable,
    build_global_matrix,
    check_global_unitarity,
    check_ozawa_compliance,
    operator_indices,
    right_shift_table,
    sparse_global_matrix,
)
from oracles import (
    Configuration,
    config_index,
    inner_product,
    minus,
    plus,
    scaled,
    sparse_global_matrix_by_coo,
    step,
    unitarity_deviation_by_identity,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
INV_SQRT2 = 2**-0.5


def _random_state(dims, rng, size=12):
    configs = set()
    while len(configs) < size:
        tape = tuple(int(x) for x in rng.integers(0, dims.S, size=dims.N))
        configs.add(
            Configuration(int(rng.integers(dims.M)), int(rng.integers(dims.N)), tape,
                          int(rng.integers(2)))
        )
    amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    amps /= np.linalg.norm(amps)
    return SparseState(zip(sorted(configs), amps))


def _to_vector(state, dims):
    vec = np.zeros(dims.dim, dtype=complex)
    for config, amp in state.items():
        vec[config_index(config, dims)] = amp
    return vec


def test_dims_validation():
    with pytest.raises(MachineError):
        MachineDims(0, 2, 6)
    with pytest.raises(MachineError):
        MachineDims(2, 2, -1)
    assert MachineDims(2, 2, 6).dim == 1536


def test_right_shift_moves_head():
    dims = MachineDims(2, 2, 6)
    table = right_shift_table(dims)
    start = Configuration(0, 0, (1, 0, 0, 0, 0, 0), 0)
    out = step(SparseState.basis(start), table)
    assert out.items() == [(Configuration(0, 1, (1, 0, 0, 0, 0, 0), 0), 1.0 + 0j)]


def test_head_state_hadamard_with_right_move():
    dims = MachineDims(2, 2, 6)
    rules = {}
    for s in range(2):
        for hb in (0, 1):
            rules[(0, s, hb)] = [(0, s, 1, hb, INV_SQRT2), (1, s, 1, hb, INV_SQRT2)]
            rules[(1, s, hb)] = [(0, s, 1, hb, INV_SQRT2), (1, s, 1, hb, -INV_SQRT2)]
    table = TransitionTable(dims, rules)
    tape = (0, 1, 0, 1, 0, 1)
    out = step(SparseState.basis(Configuration(0, 2, tape, 0)), table)
    assert out.items() == [
        (Configuration(0, 3, tape, 0), pytest.approx(INV_SQRT2)),
        (Configuration(1, 3, tape, 0), pytest.approx(INV_SQRT2)),
    ]
    assert check_global_unitarity(table).passed


def test_step_rejects_invalid_configuration():
    dims = MachineDims(2, 2, 6)
    table = right_shift_table(dims)
    bad = Configuration(5, 0, (0,) * 6, 0)
    with pytest.raises(MachineError):
        step(SparseState.basis(bad), table)


def test_step_is_linear():
    dims = MachineDims(2, 2, 5)
    rng = np.random.default_rng(11)
    table = random_compliant_table(dims, rng)
    x = _random_state(dims, rng)
    y = _random_state(dims, rng)
    a, b = 0.3 - 0.7j, 1.1 + 0.2j
    lhs = step(plus(scaled(x, a), scaled(y, b)), table)
    rhs = plus(scaled(step(x, table), a), scaled(step(y, table), b))
    assert minus(lhs, rhs).norm() < 1e-14


def test_right_shift_global_matrix_is_permutation():
    dims = MachineDims(1, 1, 3)
    mat = build_global_matrix(right_shift_table(dims))
    assert mat.shape == (6, 6)
    assert np.array_equal(np.abs(mat) > 0.5, np.abs(mat) > 0)  # entries are 0 or 1
    assert np.all(mat.sum(axis=0) == 1.0)
    assert np.all(mat.sum(axis=1) == 1.0)
    assert np.max(np.abs(mat.conj().T @ mat - np.eye(6))) == 0.0


def test_half_amplitude_column_norm():
    dims = MachineDims(1, 1, 3)
    rules = {(0, 0, hb): [(0, 0, 1, hb, 0.5)] for hb in (0, 1)}
    table = TransitionTable(dims, rules)
    mat = build_global_matrix(table)
    assert np.linalg.norm(mat[:, 0]) == pytest.approx(0.5)
    report = check_global_unitarity(table)
    assert report.max_deviation == pytest.approx(0.75)
    assert not report.passed


def test_step_agrees_with_dense_matrix():
    rng = np.random.default_rng(5)
    for dims in (MachineDims(2, 2, 4), MachineDims(1, 2, 5)):
        table = random_compliant_table(dims, rng)
        mat = build_global_matrix(table)
        for _ in range(5):
            state = _random_state(dims, rng)
            direct = _to_vector(step(state, table), dims)
            via_matrix = mat @ _to_vector(state, dims)
            assert np.max(np.abs(direct - via_matrix)) < 1e-14


def _all_configurations(dims):
    """Every configuration, in lexicographic (q, h, tape, halt) order."""
    return [
        Configuration(q, h, tape, halt)
        for q in range(dims.M)
        for h in range(dims.N)
        for tape in itertools.product(range(dims.S), repeat=dims.N)
        for halt in (0, 1)
    ]


def _both_moves_table(dims):
    # compliant (symbol and halt bit kept); with N <= 2 the two moves of
    # an outcome reach the same configuration and their amplitudes add
    rules = {
        (q, s, hb): [(q, s, -1, hb, 0.6), (q, s, 1, hb, 0.8j)]
        for q in range(dims.M)
        for s in range(dims.S)
        for hb in (0, 1)
    }
    return TransitionTable(dims, rules)


def test_sparse_global_matrix_columns_match_step():
    # the per-configuration step is the independent oracle for the
    # vectorized operator build: every basis column must agree exactly
    tables = [
        _both_moves_table(MachineDims(2, 2, 2)),
        random_compliant_table(MachineDims(2, 2, 4), np.random.default_rng(9)),
        random_compliant_table(MachineDims(2, 2, 6), np.random.default_rng(10)),
        load_machine(FIXTURES / "leaky_nonunitary.json"),
    ]
    for table in tables:
        dims = table.dims
        configs = _all_configurations(dims)
        assert [config_index(c, dims) for c in configs] == list(range(dims.dim))
        matrix = sparse_global_matrix(table).toarray()
        for col, config in enumerate(configs):
            expected = _to_vector(step(SparseState.basis(config), table), dims)
            assert np.array_equal(matrix[:, col], expected), (dims, config)
    # column 0 is (q=0, h=0, tape=(0, 0), halt=0); both moves land on h=1
    row = config_index(Configuration(0, 1, (0, 0), 0), tables[0].dims)
    assert sparse_global_matrix(tables[0])[row, 0] == 0.6 + 0.8j


def test_tensor_and_outcome_lists_round_trip():
    dims = MachineDims(2, 2, 6)
    table = random_compliant_table(dims, np.random.default_rng(3))
    assert table.amplitudes.shape == table.support.shape == dims.table_shape
    assert not table.amplitudes.flags.writeable and not table.support.flags.writeable
    again = TransitionTable(dims, table.rules)
    assert np.array_equal(again.amplitudes, table.amplitudes)
    assert np.array_equal(again.support, table.support)
    assert again.rules == table.rules
    tensor = np.array(table.amplitudes)
    tensor[0, 0, 0, 0, 0] = 1e-16
    tensor[0, 0, 0, 0, 1] = 0.25
    floored = TransitionTable.from_tensor(dims, tensor)
    assert not floored.support[0, 0, 0, 0, 0] and floored.amplitudes[0, 0, 0, 0, 0] == 0
    assert floored.support[0, 0, 0, 0, 1] and floored.amplitudes[0, 0, 0, 0, 1] == 0.25
    for bad in (np.inf, np.nan):
        tensor[1, 0, 0, 0, 0] = bad
        with pytest.raises(MachineError):
            TransitionTable.from_tensor(dims, tensor)


def test_unitary_table_preserves_norm_and_inner_products():
    dims = MachineDims(2, 2, 6)
    rng = np.random.default_rng(23)
    table = random_compliant_table(dims, rng)
    assert check_global_unitarity(table).passed
    for _ in range(5):
        x = _random_state(dims, rng)
        y = _random_state(dims, rng)
        sx, sy = step(x, table), step(y, table)
        assert abs(sx.norm() - x.norm()) < 1e-12
        assert abs(inner_product(sx, sy) - inner_product(x, y)) < 1e-12


def test_dimension_cap_enforced():
    dims = MachineDims(2, 2, 8)  # dim 8192
    table = right_shift_table(dims)
    with pytest.raises(DimensionCapError):
        build_global_matrix(table)
    with pytest.raises(DimensionCapError):
        check_global_unitarity(table)


def test_dimension_cap_names_a_huge_dimension_by_its_factors():
    with pytest.raises(DimensionCapError, match=r"^dimension 98304 exceeds dense cap 4096$"):
        MachineDims(1, 2, 12).require_dense()
    # S**N is never formed for a tape this long
    with pytest.raises(DimensionCapError, match=r"^dimension 1\*10{30}\*2\*\*10{30}\*2 exceeds"):
        MachineDims(1, 2, 10**30).require_dense()
    with pytest.raises(DimensionCapError, match="exceeds dense cap"):
        MachineDims(10**1000, 1, 1).require_dense()


def test_empty_outcome_list_flagged_as_nonunitary():
    dims = MachineDims(1, 1, 3)
    rules = {(0, 0, 0): [], (0, 0, 1): [(0, 0, 1, 1, 1.0)]}
    table = TransitionTable(dims, rules)
    report = check_global_unitarity(table)
    assert report.max_deviation == pytest.approx(1.0)
    assert not report.passed


def test_table_validation_rejects_duplicates_and_gaps():
    dims = MachineDims(1, 2, 3)
    complete = {
        (0, s, hb): [(0, s, 1, hb, 1.0)] for s in range(2) for hb in (0, 1)
    }
    missing = dict(complete)
    del missing[(0, 1, 1)]
    with pytest.raises(MachineError):
        TransitionTable(dims, missing)
    duplicated = dict(complete)
    duplicated[(0, 0, 0)] = [(0, 0, 1, 0, 0.5), (0, 0, 1, 0, 0.5)]
    with pytest.raises(MachineError):
        TransitionTable(dims, duplicated)
    bad_move = dict(complete)
    bad_move[(0, 0, 0)] = [(0, 0, 0, 0, 1.0)]
    with pytest.raises(MachineError):
        TransitionTable(dims, bad_move)


def _with_outcome(key, outcome):
    """Rules of the 1x2x3 right shift, with ``key`` listing only ``outcome``."""
    rules = dict(right_shift_table(MachineDims(1, 2, 3)).rules)
    rules[key] = [outcome]
    return rules


@pytest.mark.parametrize(
    "call, fragment",
    [
        pytest.param(lambda: TransitionTable(MachineDims(1, 2, 3),
                                             _with_outcome((1, 0, 0), (0, 0, 1, 0, 1.0))),
                     "rule keys outside dims: [(1, 0, 0)]", id="key-outside-dims"),
        pytest.param(lambda: TransitionTable(MachineDims(1, 2, 3),
                                             _with_outcome((0, 1, 0), (0, 2, 1, 0, 1.0))),
                     "outcome target out of range at key (0, 1, 0)", id="target-range"),
        pytest.param(lambda: TransitionTable(MachineDims(1, 2, 3),
                                             _with_outcome((0, 1, 0), (0, 1, 1, 2, 1.0))),
                     "halt bit must be 0 or 1, got 2 at key (0, 1, 0)", id="halt-bit"),
        pytest.param(lambda: TransitionTable(MachineDims(1, 2, 3),
                                             _with_outcome((0, 1, 0), (0, 1, 1, 0, math.inf))),
                     "non-finite amplitude at key (0, 1, 0)", id="non-finite"),
        pytest.param(lambda: TransitionTable.from_tensor(MachineDims(1, 2, 3), np.zeros((4, 1))),
                     "tensor shape (4, 1) is not (4, 1, 2, 2, 2)", id="tensor-shape"),
    ],
)
def test_input_checks(call, fragment):
    with pytest.raises(MachineError) as caught:
        call()
    assert type(caught.value) is MachineError
    assert fragment in str(caught.value)


def test_compliance_violations_reported():
    dims = MachineDims(1, 2, 3)

    def table_with_halted_rule(outcome):
        rules = {(0, s, hb): [(0, s, 1, hb, 1.0)] for s in range(2) for hb in (0, 1)}
        rules[(0, 0, 1)] = [outcome]
        return TransitionTable(dims, rules)

    writes_tape = table_with_halted_rule((0, 1, 1, 1, 1.0))
    assert check_ozawa_compliance(writes_tape).violations == (((0, 0, 1), (0, 1, 1, 1)),)

    clears_halt = table_with_halted_rule((0, 0, 1, 0, 1.0))
    assert check_ozawa_compliance(clears_halt).violations == (((0, 0, 1), (0, 0, 1, 0)),)

    moves_head = table_with_halted_rule((0, 0, -1, 1, 1.0))
    assert check_ozawa_compliance(moves_head).passed


def test_added_halting_outcome_breaks_unitarity():
    # a compliant unitary table plus one running->halted outcome of
    # amplitude 0.1, with the column greedily renormalized, cannot stay
    # unitary; the dense gram computation is the oracle
    dims = MachineDims(2, 2, 6)
    table = random_compliant_table(dims, np.random.default_rng(31))
    assert check_global_unitarity(table).passed

    rules = {key: list(val) for key, val in table.rules.items()}
    key = (0, 0, 0)
    taken = {o[:4] for o in rules[key]}
    assert (0, 0, 1, 1) not in taken  # generated tables carry no halting amplitude
    rules[key] = rules[key] + [(0, 0, 1, 1, 0.1 + 0j)]
    scale = 1.0 / np.sqrt(sum(abs(o[4]) ** 2 for o in rules[key]))
    rules[key] = [(q2, s2, mv, h2, amp * scale) for q2, s2, mv, h2, amp in rules[key]]
    spoiled = TransitionTable(dims, rules)

    report = check_global_unitarity(spoiled)
    assert not report.passed
    assert report.max_deviation > 1e-2


#: (M, S, N) for the fast-path property: N <= 2 puts both moves of an
#: outcome on one row, N >= 3 admits compliant tables
PATTERN_DIMS = [
    (1, 1, 1), (2, 2, 1), (1, 3, 2), (2, 2, 2),
    (1, 2, 3), (2, 1, 4), (2, 2, 4), (1, 3, 4), (2, 2, 6),
]
TABLE_KINDS = ["arbitrary", "near_unitary", "compliant", "phase_defect", "emptied_key"]


def _pattern_case_table(dims, kind, seed):
    """A table of the given kind, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    shape = dims.table_shape
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if kind == "arbitrary":
        # about half the slots listed, both moves of an outcome often among them
        return TransitionTable.from_tensor(dims, np.where(rng.random(shape) < 0.5, noise, 0))
    if kind == "phase_defect":
        # the right shift plus one purely imaginary amplitude on an empty
        # slot: every overlap it makes with another column is imaginary
        base = right_shift_table(dims).amplitudes.copy()
        empty = np.argwhere(base == 0)
        base[tuple(empty[rng.integers(len(empty))])] = 1e-3j
        return TransitionTable.from_tensor(dims, base)
    if dims.N >= 3:
        base = random_compliant_table(dims, rng).amplitudes.copy()
    else:
        base = right_shift_table(dims).amplitudes.copy()
    if kind == "near_unitary":
        base += rng.choice([1e-12, 1e-9, 1e-3]) * noise
    elif kind == "emptied_key":
        base[rng.integers(shape[0])] = 0
    return TransitionTable.from_tensor(dims, base)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(PATTERN_DIMS),
    st.sampled_from(TABLE_KINDS),
    st.integers(0, 2**32 - 1),
)
def test_operator_and_deviation_match_their_oracles_bit_for_bit(mns, kind, seed):
    # consecutive examples switch dims, so the one-entry pattern cache is
    # refilled as well as hit
    dims = MachineDims(*mns)
    table = _pattern_case_table(dims, kind, seed)
    fast = sparse_global_matrix(table)
    slow = sparse_global_matrix_by_coo(table)
    assert fast.shape == slow.shape
    assert np.array_equal(fast.indptr, slow.indptr)
    assert np.array_equal(fast.indices, slow.indices)
    assert fast.data.tobytes() == slow.data.tobytes()
    deviation = check_global_unitarity(table).max_deviation
    assert deviation.hex() == unitarity_deviation_by_identity(slow).hex()


def test_deviation_cases_are_the_ones_named():
    # the property above reaches each case it names
    dims = MachineDims(2, 2, 2)
    both_moves = _both_moves_table(dims)
    listed = np.count_nonzero(both_moves.support[operator_indices(dims)[0]])
    assert sparse_global_matrix(both_moves).nnz < listed  # both moves reach one row and add
    assert check_global_unitarity(_pattern_case_table(dims, "emptied_key", 0)).max_deviation == 1.0
    assert check_global_unitarity(
        _pattern_case_table(MachineDims(2, 2, 4), "phase_defect", 0)
    ).max_deviation == pytest.approx(1e-3, rel=1e-12)
    assert check_global_unitarity(_pattern_case_table(MachineDims(2, 2, 4), "compliant", 0)).passed


def test_operator_pattern_is_cached_read_only_for_one_dims():
    dims = MachineDims(1, 2, 3)
    keys, rows = operator_indices(dims)
    again = operator_indices(MachineDims(1, 2, 3))
    assert again[0] is keys and again[1] is rows
    for array in haltlab.qtm._operator_pattern(dims):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array.reshape(-1)[0] = 1
    operator_indices(MachineDims(1, 2, 4))
    assert haltlab.qtm._operator_pattern.cache_info().currsize == 1
    assert operator_indices(dims)[0] is not keys  # evicted, then rebuilt equal
    assert np.array_equal(operator_indices(dims)[1], rows)
