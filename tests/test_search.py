"""Penalty kernel, gradient, unitary projection and the mass search."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from haltlab import search
from haltlab.nogo import (
    halting_mass_from_table,
    random_compliant_table,
)
from haltlab.qtm import (
    MachineDims,
    MachineError,
    TransitionTable,
    build_global_matrix,
    check_global_unitarity,
    right_shift_table,
)
from haltlab.search import (
    FEASIBLE_DEVIATION,
    PENALTY_WEIGHTS,
    SearchResult,
    TableParametrization,
    penalty_value_grad,
    project_to_unitary_table,
    search_max_halting_mass,
)
from haltlab.search import _objective  # gradient check
from haltlab.search import _polar_factor, _polish, _redraw_columns, _select_restart
from oracles import global_frobenius_penalty, polar_factor_by_blocks, projection_by_dense_polar


def _perturbed_start(dims, compliant, seed, scale=0.1):
    """A parametrization and a vector near a unitary (compliant) or random table."""
    rng = np.random.default_rng(seed)
    param = TableParametrization(dims, compliant)
    if compliant:
        x = param.vector(random_compliant_table(dims, rng).amplitudes)
    else:
        x = param.random_start(rng)
    return param, x + scale * rng.standard_normal(x.shape)


def _key_columns(x, param):
    """The table tensor of ``x``, one flattened row per rule key."""
    return param.tensor(x).reshape(len(param.mask), -1)


@pytest.mark.parametrize("dims", [MachineDims(2, 2, 5), MachineDims(2, 2, 6), MachineDims(1, 2, 6)])
@pytest.mark.parametrize("compliant", [True, False])
def test_local_penalty_equals_global_frobenius(dims, compliant):
    param, x = _perturbed_start(dims, compliant, seed=8)
    pen_local, _ = penalty_value_grad(param.tensor(x), dims)
    pen_global = global_frobenius_penalty(param.table(x))
    assert pen_local == pytest.approx(pen_global, rel=1e-12)


def test_penalty_zero_exactly_on_unitary_tables():
    dims = MachineDims(2, 2, 6)
    param = TableParametrization(dims, True)
    table = random_compliant_table(dims, np.random.default_rng(3))
    pen, _ = penalty_value_grad(param.tensor(param.vector(table.amplitudes)), dims)
    assert pen < 1e-26


def test_penalty_requires_five_cells():
    dims = MachineDims(2, 2, 4)
    param = TableParametrization(dims, True)
    with pytest.raises(MachineError, match="at least 5 tape cells"):
        penalty_value_grad(param.tensor(param.random_start(np.random.default_rng(0))), dims)


def test_objective_gradient_matches_finite_differences():
    dims = MachineDims(2, 2, 6)
    for compliant in (True, False):
        param, x = _perturbed_start(dims, compliant, seed=21)
        _, grad = _objective(x, param, 0.37, 1.0)
        rng = np.random.default_rng(1)
        eps = 1e-7
        for i in rng.integers(0, x.size, size=10):
            xp, xm = x.copy(), x.copy()
            xp[i] += eps
            xm[i] -= eps
            fp, _ = _objective(xp, param, 0.37, 1.0)
            fm, _ = _objective(xm, param, 0.37, 1.0)
            fd = (fp - fm) / (2 * eps)
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_parametrization_round_trip():
    dims = MachineDims(2, 2, 6)
    for compliant in (True, False):
        param = TableParametrization(dims, compliant)
        x = param.random_start(np.random.default_rng(5))
        assert param.vector(param.tensor(x)).tobytes() == x.tobytes()
        back = param.vector(param.table(x).amplitudes)
        assert np.max(np.abs(x - back)) < 1e-15
        assert not np.any(param.tensor(x)[~param.mask])


def test_projection_improves_nearby_unitary_table():
    # the refit is first-order accurate in the pre-projection deviation:
    # leftover non-locality of the polar factor shows up in the residual
    dims = MachineDims(2, 2, 6)
    param, x = _perturbed_start(dims, True, seed=13, scale=0.02)
    noisy = param.table(x)
    dev_noisy = check_global_unitarity(noisy).max_deviation
    assert dev_noisy > 1e-3
    refit, residual = project_to_unitary_table(noisy, ozawa_compliant=True)
    dev_refit = check_global_unitarity(refit).max_deviation
    assert dev_refit < dev_noisy
    assert residual < 5 * dev_noisy


def test_projection_is_identity_on_unitary_tables():
    dims = MachineDims(2, 2, 6)
    table = random_compliant_table(dims, np.random.default_rng(19))
    refit, residual = project_to_unitary_table(table, ozawa_compliant=True)
    assert residual < 1e-12
    assert check_global_unitarity(refit).max_deviation < 1e-12


def _dense_polar(matrix):
    """Independent slow path: one SVD of the whole matrix."""
    left, sing, right = np.linalg.svd(matrix)
    return left @ right, sing


def _polar_cases():
    dims = MachineDims(1, 2, 6)
    rng = np.random.default_rng(29)
    param = TableParametrization(dims, True)
    start = param.table(param.random_start(rng))
    _, x = _perturbed_start(dims, True, seed=31, scale=0.02)
    support = rng.uniform(size=dims.table_shape) < 0.3
    noise = rng.standard_normal(dims.table_shape) + 1j * rng.standard_normal(dims.table_shape)
    zero_keys = random_compliant_table(dims, rng).amplitudes.copy()
    zero_keys[1] = 0.0
    return {
        "search_start": build_global_matrix(start),
        "perturbed_compliant": build_global_matrix(param.table(x)),
        "right_shift": build_global_matrix(right_shift_table(dims)),
        "sparse_arbitrary": build_global_matrix(
            TransitionTable.from_tensor(dims, np.where(support, noise, 0.0))
        ),
        "zero_keys": build_global_matrix(TransitionTable.from_tensor(dims, zero_keys)),
        "dense_random": rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40)),
    }


def _assemble(groups, size):
    """The dense matrix whose blocks are ``groups``, zero elsewhere."""
    polar = np.zeros((size, size), dtype=complex)
    for rows, cols, blocks in groups:
        polar[rows[:, :, None], cols[:, None, :]] = blocks
    return polar


@pytest.mark.parametrize("case", sorted(_polar_cases()))
def test_block_polar_factor_matches_dense_svd(case):
    matrix = _polar_cases()[case]
    polar = _assemble(_polar_factor(matrix), matrix.shape[0])
    oracle, sing = _dense_polar(matrix)
    eye = np.eye(matrix.shape[0])
    assert np.max(np.abs(polar.conj().T @ polar - eye)) <= 1e-13
    dist, dist_oracle = np.linalg.norm(matrix - polar), np.linalg.norm(matrix - oracle)
    assert dist == pytest.approx(dist_oracle, rel=1e-12, abs=1e-12)
    # P^dag M is the Hermitian PSD factor of M = P H
    herm = polar.conj().T @ matrix
    assert np.max(np.abs(herm - herm.conj().T)) <= 1e-12 * sing[0]
    assert np.linalg.eigvalsh(herm).min() >= -1e-12 * sing[0]
    if sing[-1] > 1e-8 * sing[0]:  # nonsingular: the polar factor is unique
        assert np.max(np.abs(polar - oracle)) <= 1e-12


def _search_iterates():
    """Global matrices of search iterates at M=2, S=2, N=6: a start and a polished one."""
    dims = MachineDims(2, 2, 6)
    tables = {}
    for compliant in (True, False):
        param = TableParametrization(dims, compliant)
        x = param.random_start(np.random.default_rng([5, compliant]))
        polished = _polish(x, param, 30, lambda value: None)
        mode = "compliant" if compliant else "no_ozawa"
        tables[f"{mode}_start"] = (param.table(x), compliant)
        tables[f"{mode}_polished"] = (param.table(polished), compliant)
    return tables


def _oracle_cases():
    cases = dict(_polar_cases())
    for name, (table, _) in _search_iterates().items():
        cases[name] = build_global_matrix(table)
    return cases


@pytest.mark.parametrize("case", sorted(_oracle_cases()))
def test_polar_factor_equals_the_block_loop_bit_for_bit(case):
    matrix = _oracle_cases()[case]
    groups = _polar_factor(matrix)
    size = matrix.shape[0]
    # every row and every column lies in exactly one block, in increasing order
    for axis in (0, 1):
        seen = np.concatenate([g[axis].reshape(-1) for g in groups])
        assert np.array_equal(np.sort(seen), np.arange(size))
        assert all(np.all(np.diff(g[axis], axis=1) > 0) for g in groups)
    assert all(g[2].shape == (*g[0].shape, g[0].shape[1]) for g in groups)
    assert _assemble(groups, size).tobytes() == polar_factor_by_blocks(matrix).tobytes()


def test_blocks_one_ulp_apart_get_their_own_svd():
    rng = np.random.default_rng(41)
    block = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    nudged = block.copy()
    nudged[1, 2] = np.nextafter(block[1, 2].real, np.inf) + 1j * block[1, 2].imag
    matrix = np.zeros((9, 9), dtype=complex)
    matrix[:3, :3] = block
    matrix[3:6, 3:6] = nudged
    matrix[6:, 6:] = block
    oracle = polar_factor_by_blocks(matrix)
    # the nudge reaches the polar factor, so merging the two would show
    assert oracle[:3, :3].tobytes() != oracle[3:6, 3:6].tobytes()
    assert oracle[:3, :3].tobytes() == oracle[6:, 6:].tobytes()
    assert _assemble(_polar_factor(matrix), 9).tobytes() == oracle.tobytes()


def _projection_cases():
    dims = MachineDims(1, 2, 6)
    rng = np.random.default_rng(29)
    param = TableParametrization(dims, True)
    support = rng.uniform(size=dims.table_shape) < 0.3
    noise = rng.standard_normal(dims.table_shape) + 1j * rng.standard_normal(dims.table_shape)
    zero_keys = random_compliant_table(dims, rng).amplitudes.copy()
    zero_keys[1] = 0.0
    cases = {
        "search_start": param.table(param.random_start(rng)),
        "right_shift": right_shift_table(dims),
        "sparse_arbitrary": TransitionTable.from_tensor(dims, np.where(support, noise, 0.0)),
        "zero_keys": TransitionTable.from_tensor(dims, zero_keys),
    }
    out = {
        f"{name}_{'compliant' if c else 'no_ozawa'}": (table, c)
        for name, table in cases.items()
        for c in (True, False)
    }
    out.update(_search_iterates())
    # at most two listed outcomes per key: the refit's global matrix has
    # entries outside the polar factor's blocks, and the residual peaks there
    dims = MachineDims(1, 2, 3)
    rng = np.random.default_rng(362)
    amps = np.zeros(dims.table_shape, dtype=complex)
    flat = amps.reshape(dims.table_shape[0], -1)
    for k in range(len(flat)):
        n = rng.integers(0, 3)
        slots = rng.choice(flat.shape[1], n, replace=False)
        flat[k, slots] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    out["sparse_keys_no_ozawa"] = (TransitionTable.from_tensor(dims, amps), False)
    return out


@pytest.mark.parametrize("case", sorted(_projection_cases()))
def test_projection_equals_the_dense_polar_route(case):
    table, compliant = _projection_cases()[case]
    refit, residual = project_to_unitary_table(table, compliant)
    oracle_refit, oracle_residual = projection_by_dense_polar(table, compliant)
    assert refit.amplitudes.tobytes() == oracle_refit.amplitudes.tobytes()
    assert refit.support.tobytes() == oracle_refit.support.tobytes()
    assert residual == oracle_residual


@pytest.mark.parametrize("compliant", [True, False])
def test_projection_peaks_below_one_and_a_quarter_dense_matrices(compliant):
    # the refit's dense global matrix is 16 * D^2 bytes; the residual is
    # taken by column blocks, so no second D x D array is formed
    dims = MachineDims(2, 2, 6)
    param = TableParametrization(dims, compliant)
    table = param.table(param.random_start(np.random.default_rng(5)))
    project_to_unitary_table(table, compliant)  # the operator pattern is cached
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        project_to_unitary_table(table, compliant)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 1.25 * 16 * dims.dim**2


@pytest.mark.parametrize("compliant", [True, False])
def test_redrawn_columns_are_unit_and_orthogonal_to_the_kept_ones(compliant):
    param, x = _perturbed_start(MachineDims(2, 2, 6), compliant, seed=17)
    assert _redraw_columns(x, param, None, np.zeros(len(param.mask), dtype=bool)) is x
    redraw = np.zeros(len(param.mask), dtype=bool)
    redraw[[1, 4, 5]] = True
    before = _key_columns(x, param)
    after = _key_columns(_redraw_columns(x, param, np.random.default_rng(3), redraw), param)
    assert after[~redraw].tobytes() == before[~redraw].tobytes()
    flat_mask = param.mask.reshape(len(param.mask), -1)
    for ki in np.flatnonzero(redraw):
        assert np.all(after[ki][~flat_mask[ki]] == 0)
        assert np.linalg.norm(after[ki]) == pytest.approx(1.0, abs=1e-15)
        kept = after[~redraw][:, flat_mask[ki]]
        assert np.max(np.abs(kept.conj() @ after[ki][flat_mask[ki]])) <= 1e-12
        assert not np.array_equal(after[ki], before[ki])


def _candidate(restart, mass, deviation):
    return SearchResult(
        best_mass=mass,
        best_unitarity_deviation=deviation,
        best_projection_residual=0.0,
        best_restart=restart,
        trace=(),
        table=right_shift_table(MachineDims(1, 1, 1)),
    )


def test_only_feasible_restarts_win():
    infeasible_heavy = _candidate(0, 0.9, 0.4)
    feasible = _candidate(1, 0.1, 1e-12)
    at_bound = _candidate(2, 0.1, FEASIBLE_DEVIATION)
    assert _select_restart([infeasible_heavy, feasible, at_bound]) is feasible
    assert _select_restart([infeasible_heavy, at_bound]) is at_bound
    assert _select_restart([feasible, _candidate(3, 0.5, 1e-9)]).best_restart == 3


def test_without_feasible_restart_the_smallest_deviation_is_reported():
    chosen = _select_restart([_candidate(0, 0.9, 0.4), _candidate(1, 0.0, 0.2),
                              _candidate(2, 0.5, 0.2)])
    assert chosen.best_restart == 1
    assert not chosen.feasible


def test_rescue_stops_at_once_when_no_key_column_is_off_unit(monkeypatch):
    # every polished key column is a unit vector, so a deviation reported
    # as 1.0 leaves the rescue no column to redraw: the restart is
    # projected once and stays infeasible
    project = search.project_to_unitary_table
    projected = []

    def counting_projection(table, ozawa_compliant):
        projected.append(table)
        return project(table, ozawa_compliant)

    monkeypatch.setattr(search, "project_to_unitary_table", counting_projection)
    monkeypatch.setattr(
        search, "check_global_unitarity", lambda table: SimpleNamespace(max_deviation=1.0)
    )
    result = search_max_halting_mass(MachineDims(2, 2, 6), restarts=1, iterations=400, seed=3)
    assert len(projected) == 1
    assert result.best_unitarity_deviation == 1.0
    assert not result.feasible


def test_a_rescued_restart_ends_at_zero_mass_on_a_unitary_table(monkeypatch):
    # seed 2148's polish stops off unitarity; the rescue redraws the
    # off-unit key columns, and the restart then ends at mass exactly 0
    redraw = search._redraw_columns
    redrawn = []

    def counting_redraw(x, param, rng, flags):
        redrawn.append(int(flags.sum()))
        return redraw(x, param, rng, flags)

    monkeypatch.setattr(search, "_redraw_columns", counting_redraw)
    result = search_max_halting_mass(MachineDims(2, 2, 6), restarts=1, iterations=500, seed=2148)
    assert sum(redrawn) >= 1
    assert result.best_mass == 0.0
    assert result.best_unitarity_deviation <= 1e-15


@pytest.mark.parametrize(
    "seed, compliant",
    [(3, True), (0, False), (2148, True)],
    ids=["compliant", "no_ozawa", "rescued"],
)
def test_trace_rows_are_the_objective_at_each_iterate(monkeypatch, seed, compliant):
    # each row must be mass - lam * penalty at its iterate, lam the phase's
    # weight and the final weight for every polish, rescue polishes included
    lbfgs = search._lbfgs
    iterates, polishes = [], []

    def keeping_lbfgs(x, param, lam, mass_weight, iterations, callback, ftol, gtol):
        polishes.append(not mass_weight)

        def keep(intermediate_result):
            iterates.append((intermediate_result.x.copy(), lam, mass_weight))
            callback(intermediate_result)

        return lbfgs(x, param, lam, mass_weight, iterations, keep, ftol, gtol)

    monkeypatch.setattr(search, "_lbfgs", keeping_lbfgs)
    dims = MachineDims(2, 2, 6)
    result = search_max_halting_mass(dims, 1, 500, seed, ozawa_compliant=compliant)
    param = TableParametrization(dims, compliant)
    start = param.random_start(np.random.default_rng([seed, 0]))
    expected = [0.0 - _objective(start, param, PENALTY_WEIGHTS[0], 1.0)[0]]
    for x, lam, mass_weight in iterates:
        weight = lam if mass_weight else PENALTY_WEIGHTS[-1]
        expected.append(0.0 - _objective(x, param, weight, 1.0)[0])
    assert [it for it, _ in result.trace] == list(range(len(expected)))
    assert [value.hex() for _, value in result.trace] == [value.hex() for value in expected]
    # six phases and one polish, plus the rescue polishes of seed 2148
    assert sum(polishes) > 1 if seed == 2148 else polishes == [False] * 6 + [True]


def test_search_validates_arguments():
    dims = MachineDims(2, 2, 6)
    with pytest.raises(MachineError, match="restarts must be >= 1"):
        search_max_halting_mass(dims, restarts=0, iterations=10, seed=0)
    with pytest.raises(MachineError, match="iterations must be >= 1"):
        search_max_halting_mass(dims, restarts=1, iterations=0, seed=0)
    with pytest.raises(MachineError, match="exceeds dense cap"):
        search_max_halting_mass(MachineDims(2, 2, 8), restarts=1, iterations=10, seed=0)


def test_search_trivial_dims_gives_zero_mass():
    result = search_max_halting_mass(MachineDims(1, 1, 6), restarts=2, iterations=120, seed=0)
    assert result.best_mass <= 1e-10
    assert result.best_unitarity_deviation <= 1e-10


def test_search_compliant_collapses_to_zero_mass():
    result = search_max_halting_mass(MachineDims(2, 2, 6), restarts=2, iterations=400, seed=3)
    assert result.best_mass <= 1e-6
    assert result.best_unitarity_deviation <= 1e-8
    assert result.best_projection_residual <= 1e-6
    assert len(result.trace) > 10
    iterations = [it for it, _ in result.trace]
    assert iterations == sorted(iterations)


def test_search_without_compliance_reaches_halting_mass():
    result = search_max_halting_mass(
        MachineDims(2, 2, 6), restarts=2, iterations=400, seed=0, ozawa_compliant=False
    )
    assert result.best_mass >= 0.5
    assert result.best_unitarity_deviation <= 1e-8
    assert halting_mass_from_table(result.table) == pytest.approx(result.best_mass)


def test_search_is_deterministic():
    dims = MachineDims(2, 2, 6)
    r1 = search_max_halting_mass(dims, restarts=1, iterations=120, seed=11)
    r2 = search_max_halting_mass(dims, restarts=1, iterations=120, seed=11)
    assert r1.best_mass == r2.best_mass
    assert r1.best_unitarity_deviation == r2.best_unitarity_deviation
    assert r1.best_projection_residual == r2.best_projection_residual
    assert r1.table.amplitudes.tobytes() == r2.table.amplitudes.tobytes()
    assert r1.trace == r2.trace
