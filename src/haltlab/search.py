"""Penalty search for the largest achievable halting mass.

The optimizer works directly on the local rule amplitudes, the table
tensor of shape (2*M*S, M, S, 2, 2) indexed (key, q', sigma', move,
halt') that :class:`~haltlab.qtm.TransitionTable` holds; its free
variables are the entries under a boolean slot mask.  Each restart holds
its iterate in two forms: the real L-BFGS vector (real parts of the free
slots, then their imaginary parts) and the table tensor it fills in, and
:class:`TableParametrization` converts between them.  The search
maximizes the halting mass subject to global unitarity, enforced as a
penalty lambda * ||U^dag U - I||_F^2 whose weight grows tenfold per
phase.  The Frobenius penalty of the global matrix decomposes exactly
into three small-tensor terms (same-column norms, same-site column
overlaps, and right/left overlaps at head distance two), so no D x D
matrix is formed in the hot loop; the identity with the global
computation is covered by tests.

Each restart is one call of ``_restart``: L-BFGS phases of growing
penalty weight, a feasibility polish, then a projection of the final
table onto the unitary matrices, each L-BFGS run going through one
helper that hands every iterate to the restart's objective trace.  The
trace logs the objective value L-BFGS has already computed at the
iterate, so no iterate is evaluated a second time.  The projection is a
polar decomposition of the dense global matrix, followed by a refit of
the table tensor read off one representative column per key.  Where the
polar factor is not exactly of local-rule form, the leftover is reported
as the projection residual, its max |.| taken over column blocks so that
no second D x D array is formed.  Because the operator
comes from local rules, its nonzero pattern splits into many small
independent blocks, and most of them repeat along the tape.  The polar
factor is computed exactly and kept only as its blocks: blocks of one
size form one stack, and one SVD serves every block with the same bytes,
so no dense polar matrix is formed.  The certified table, its mass,
residual and deviation form the restart's :class:`SearchResult`, built
once; only restarts whose deviation is within
:data:`FEASIBLE_DEVIATION` may win the search.  A restart that ends
above it is rescued for up to :data:`RESCUE_ROUNDS` rounds: key columns
whose squared norm is off 1 are redrawn, the table is polished and
projected again, and the least deviating round is kept.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

import numpy as np
import scipy.optimize
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .nogo import halting_mass_from_table
from .qtm import (
    MachineDims,
    MachineError,
    TransitionTable,
    build_global_matrix,
    check_global_unitarity,
    compliant_slots,
    halting_slots,
    operator_indices,
)

__all__ = [
    "FEASIBLE_DEVIATION",
    "PENALTY_WEIGHTS",
    "RESCUE_ROUNDS",
    "TableParametrization",
    "SearchResult",
    "penalty_value_grad",
    "project_to_unitary_table",
    "search_max_halting_mass",
]

#: Largest certified unitarity deviation max|U^dag U - I| of a restart
#: that may win the search (the acceptance bound of the search).
FEASIBLE_DEVIATION = 1e-8

#: Most rescue rounds of a restart whose certified deviation is above
#: :data:`FEASIBLE_DEVIATION`.  A round redraws every key column whose
#: squared norm is off 1 by more than that bound and polishes again.
RESCUE_ROUNDS = 3

#: Penalty weight lambda of each L-BFGS phase of a restart: 0.1, growing
#: tenfold per phase, six phases.
PENALTY_WEIGHTS = tuple(0.1 * 10.0**p for p in range(6))


class TableParametrization:
    """Free amplitude slots of a transition table, and the L-BFGS vector.

    ``mask`` has the table tensor's shape and marks the free slots.  In
    compliant mode the halted keys expose only (head state, move) slots
    that keep the scanned symbol and the halt bit; running keys always
    expose every (q', sigma', move, halt') slot.  ``mass_mask`` marks the
    free slots that carry halting mass.  An iterate is held as the real
    vector ``x`` of length ``2 * num_slots``, the real parts of the free
    slots and then their imaginary parts, slots in lexicographic (key,
    q', sigma', move, halt') order, or as the table tensor that is ``x``
    on the mask and zero off it.
    """

    def __init__(self, dims: MachineDims, ozawa_compliant: bool = True):
        self.dims = dims
        self.ozawa_compliant = ozawa_compliant
        if ozawa_compliant:
            self.mask = compliant_slots(dims)
        else:
            self.mask = np.ones(dims.table_shape, dtype=bool)
        self.mass_mask = self.mask & halting_slots(dims)
        self.num_slots = int(self.mask.sum())

    def tensor(self, x: np.ndarray) -> np.ndarray:
        """The table tensor of the vector ``x``."""
        v = np.zeros(self.mask.shape, dtype=complex)
        v[self.mask] = x[: self.num_slots] + 1j * x[self.num_slots :]
        return v

    def vector(self, v: np.ndarray) -> np.ndarray:
        """The vector of the tensor ``v``'s free slots; other entries are ignored."""
        slots = v[self.mask]
        return np.concatenate([slots.real, slots.imag])

    def table(self, x: np.ndarray) -> TransitionTable:
        return TransitionTable.from_tensor(self.dims, self.tensor(x))

    def random_start(self, rng: np.random.Generator) -> np.ndarray:
        """Raw start point: each key column drawn Gaussian and normalized."""
        v = np.zeros(self.mask.shape, dtype=complex)
        v[self.mask] = rng.standard_normal(self.num_slots) + 1j * rng.standard_normal(
            self.num_slots
        )
        for column in v:
            nrm = np.linalg.norm(column)
            if nrm > 0:
                column /= nrm
        return self.vector(v)


def penalty_value_grad(v: np.ndarray, dims: MachineDims) -> Tuple[float, np.ndarray]:
    """||U^dag U - I||_F^2 and its Wirtinger gradient d/d(conj V).

    ``v`` has shape (num keys, M, S, move, halt').  Valid for N >= 5,
    where the three interference channels of the global operator (same
    head site, and head sites two cells apart in either direction) hit
    disjoint matrix entries.
    """
    if dims.N < 5:
        raise MachineError("closed-form penalty requires at least 5 tape cells")
    n_keys = v.shape[0]
    mult_same = dims.N * dims.S ** (dims.N - 1)
    mult_pair = dims.N * dims.S ** (dims.N - 2)

    flat = v.reshape(n_keys, -1)
    overlap = flat @ flat.conj().T
    delta = overlap - np.eye(n_keys)
    pen_same = mult_same * float(np.sum(np.abs(delta) ** 2))
    grad_flat = 2.0 * mult_same * (delta @ flat)

    # right/left blocks as (key * written symbol, head state * halt') rows
    right = v[:, :, :, 1, :].transpose(0, 2, 1, 3).reshape(n_keys * dims.S, -1)
    left = v[:, :, :, 0, :].transpose(0, 2, 1, 3).reshape(n_keys * dims.S, -1)
    cross = right.conj() @ left.T
    pen_pair = 2.0 * mult_pair * float(np.sum(np.abs(cross) ** 2))
    grad_right = 2.0 * mult_pair * (cross.conj() @ left)
    grad_left = 2.0 * mult_pair * (cross.T @ right)

    grad = grad_flat.reshape(v.shape)
    grad[:, :, :, 1, :] += grad_right.reshape(n_keys, dims.S, dims.M, 2).transpose(0, 2, 1, 3)
    grad[:, :, :, 0, :] += grad_left.reshape(n_keys, dims.S, dims.M, 2).transpose(0, 2, 1, 3)
    return pen_same + pen_pair, grad


def _mass(v: np.ndarray, param: TableParametrization) -> float:
    """Halting mass carried by the free slots of the table tensor ``v``."""
    return float(np.sum(np.abs(v[param.mass_mask]) ** 2))


def _objective(x, param, lam, mass_weight):
    v = param.tensor(x)
    pen, pen_grad = penalty_value_grad(v, param.dims)
    mass = _mass(v, param)
    grad_conj = lam * pen_grad
    if mass_weight:
        grad_conj = grad_conj - mass_weight * np.where(param.mass_mask, v, 0.0)
    return lam * pen - mass_weight * mass, 2.0 * param.vector(grad_conj)


#: One block size of a polar factor: ``rows`` and ``cols`` of shape (k, n)
#: and ``polar`` of shape (k, n, n), so that block b of the factor is
#: ``polar[b]`` at rows ``rows[b]`` and columns ``cols[b]``.
PolarBlocks = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _polar_factor(matrix: np.ndarray) -> List[PolarBlocks]:
    """Closest unitary matrix in Frobenius norm, as its nonzero blocks.

    Exact block by block.  Rows and columns are split into the connected
    components of the bipartite graph joining row i to column j wherever
    ``matrix[i, j] != 0``.  Components with as many rows as columns are
    square blocks; every other component (zero rows and zero columns
    included) joins one remainder block, which is square because the
    matrix is.  Up to a permutation of rows and of columns the matrix is
    the direct sum of these blocks, so its polar factor is the direct sum
    of theirs, ``left @ right`` of each block's SVD, and zero elsewhere.
    Each block lists its rows and its columns in increasing order.

    The blocks of one size are gathered into one stack.  Blocks with the
    same bytes (translates of one local pattern along the tape) share one
    SVD, so the result is bit for bit what a separate SVD per block gives.
    Returns one :data:`PolarBlocks` per block size; a fully coupled matrix
    is one block, a single dense SVD.
    """
    size = matrix.shape[0]
    pattern = sp.csr_matrix(matrix != 0)
    graph = sp.bmat([[None, pattern], [pattern.T, None]], format="csr")
    count, labels = connected_components(graph, directed=False)
    row_labels, col_labels = labels[:size], labels[size:]
    square = np.bincount(row_labels, minlength=count) == np.bincount(col_labels, minlength=count)
    block = np.where(square, np.arange(count), count)
    row_block, col_block = block[row_labels], block[col_labels]
    row_order = np.argsort(row_block, kind="stable")
    col_order = np.argsort(col_block, kind="stable")
    sizes = np.bincount(row_block, minlength=count + 1)
    starts = np.cumsum(sizes) - sizes

    groups = []
    for n in np.unique(sizes[sizes > 0]):
        take = starts[sizes == n, None] + np.arange(n)
        rows, cols = row_order[take], col_order[take]
        stack = matrix[rows[:, :, None], cols[:, None, :]]
        raw = stack.reshape(len(stack), -1).view(np.dtype((np.void, n * n * stack.itemsize)))
        _, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
        left, _, right = np.linalg.svd(stack[first])
        groups.append((rows, cols, (left @ right)[inverse.reshape(-1)]))
    return groups


def _redraw_columns(
    x: np.ndarray, param: TableParametrization, rng, redraw: np.ndarray
) -> np.ndarray:
    """Replace the key columns flagged in ``redraw`` by fresh random ones.

    Each flagged column becomes a random unit direction inside its slot
    mask, orthogonalized against the in-mask components of every column
    that is not flagged.  This revives dead columns (an all-zero column is
    an exact stationary point of the Frobenius penalty, so gradient steps
    never revive it) and rescues restarts stuck off unitarity.
    """
    if not redraw.any():
        return x
    v = param.tensor(x)
    flat = v.reshape(len(v), -1)  # one row per key column, a view of v
    for ki in np.flatnonzero(redraw):
        mask_k = param.mask[ki].reshape(-1)
        others = [flat[kj][mask_k] for kj in range(len(flat)) if kj != ki and not redraw[kj]]
        basis = np.stack(others, axis=1) if others else None
        for _attempt in range(16):
            raw = rng.standard_normal(int(mask_k.sum())) + 1j * rng.standard_normal(
                int(mask_k.sum())
            )
            if basis is not None:
                coef, *_ = np.linalg.lstsq(basis, raw, rcond=None)
                raw = raw - basis @ coef
            nrm = np.linalg.norm(raw)
            if nrm > 1e-6:
                flat[ki][:] = 0.0
                flat[ki][mask_k] = raw / nrm
                break
    return param.vector(v)


def project_to_unitary_table(
    table: TransitionTable, ozawa_compliant: bool = True
) -> Tuple[TransitionTable, float]:
    """Polar-project the global matrix and refit local rules.

    The polar factor of the dense global matrix is the nearest unitary,
    computed exactly over the matrix's independent blocks, grouped by
    size with one SVD per distinct block (see :func:`_polar_factor`); no
    dense polar matrix is formed.  Its local part is read off one
    representative column per rule key, the key's first configuration
    (head at cell 0, scanned symbol at cell 0, other cells blank), at the
    rows the table's slots send it to.  Any entry the slot mask cannot
    carry is dropped, and the max-abs difference between the polar factor
    and the refit table's global matrix is returned as the projection
    residual (zero when the refit is exact).
    """
    dims = table.dims
    groups = _polar_factor(build_global_matrix(table))

    keys, rows = operator_indices(dims)
    first = np.unique(keys, return_index=True)[1]
    key_of = np.full(len(keys), -1)
    key_of[first] = np.arange(len(first))
    columns = np.zeros((len(keys), len(first)), dtype=complex)  # polar[:, first]
    for block_rows, block_cols, polar in groups:
        b, pos = np.nonzero(key_of[block_cols] >= 0)
        columns[block_rows[b], key_of[block_cols[b, pos]][:, None]] = polar[b, :, pos]
    local = columns[rows[first], np.arange(len(first)).reshape(-1, 1, 1, 1, 1)]
    if ozawa_compliant:
        local = np.where(compliant_slots(dims), local, 0)
    refit = TransitionTable.from_tensor(dims, local)

    difference = build_global_matrix(refit)
    for block_rows, block_cols, polar in groups:
        difference[block_rows[:, :, None], block_cols[:, None, :]] -= polar
    # the max |.| of blocks of 96 contiguous columns (the matrix is
    # F-ordered): exact, and no D x D array of absolute values is formed
    peaks = [np.max(np.abs(difference[:, j : j + 96])) for j in range(0, difference.shape[1], 96)]
    residual = float(np.max(peaks))
    return refit, residual


@dataclass(frozen=True)
class SearchResult:
    best_mass: float
    best_unitarity_deviation: float
    best_projection_residual: float
    best_restart: int
    trace: Tuple[Tuple[int, float], ...]
    table: TransitionTable

    @property
    def feasible(self) -> bool:
        """Whether the certified deviation is within :data:`FEASIBLE_DEVIATION`."""
        return self.best_unitarity_deviation <= FEASIBLE_DEVIATION

    def as_dict(self) -> dict:
        return {
            "best_mass": self.best_mass,
            "best_unitarity_deviation": self.best_unitarity_deviation,
            "best_projection_residual": self.best_projection_residual,
            "best_restart": self.best_restart,
        }


def _select_restart(candidates: Sequence[SearchResult]) -> SearchResult:
    """The winning restart: largest mass among the feasible ones.

    Ties go to the earliest restart.  Mass from an infeasible restart is
    never reported as a win; when no restart is feasible, the one with the
    smallest deviation is returned so the caller can report the failure.
    """
    feasible = [c for c in candidates if c.feasible]
    if feasible:
        return max(feasible, key=lambda c: c.best_mass)
    return min(candidates, key=lambda c: c.best_unitarity_deviation)


def _lbfgs(x, param, lam, mass_weight, iterations, callback, ftol, gtol) -> np.ndarray:
    """L-BFGS on :func:`_objective` from ``x``.

    ``callback(intermediate_result)`` sees each iterate as scipy's
    ``OptimizeResult(x, fun)`` (scipy passes it only to a callback whose
    one parameter has that name): ``fun`` is the value of the
    objective's last evaluation, which L-BFGS-B made at ``x``, and ``x``
    is the optimizer's working array, to be read before the callback
    returns.
    """
    res = scipy.optimize.minimize(
        _objective,
        x,
        args=(param, lam, mass_weight),
        jac=True,
        method="L-BFGS-B",
        callback=callback,
        options={"maxiter": iterations, "ftol": ftol, "gtol": gtol, "maxcor": 30},
    )
    return res.x


def _polish(x: np.ndarray, param: TableParametrization, iterations: int, record) -> np.ndarray:
    """Feasibility polish: L-BFGS on the penalty alone, no mass term.

    Grounds the iterate into the unitary-table manifold before the polar
    projection.  ``record`` takes each iterate's trace value,
    ``mass - PENALTY_WEIGHTS[-1] * pen``, built from the penalty the
    optimizer has already evaluated there: its objective
    ``1.0 * pen - 0.0 * mass`` is ``pen`` bit for bit, so only the mass
    is computed again.
    """
    final = PENALTY_WEIGHTS[-1]

    def log(intermediate_result):
        mass = _mass(param.tensor(intermediate_result.x), param)
        record(0.0 - (final * intermediate_result.fun - mass))

    return _lbfgs(x, param, 1.0, 0.0, iterations, log, 0.0, 1e-16)


def _certify(x: np.ndarray, param: TableParametrization, restart: int) -> SearchResult:
    """Restart ``restart``'s result at ``x``: the projected refit table, its
    mass, projection residual and certified deviation, and an empty trace."""
    refit, residual = project_to_unitary_table(param.table(x), param.ozawa_compliant)
    return SearchResult(
        best_mass=halting_mass_from_table(refit),
        best_unitarity_deviation=check_global_unitarity(refit).max_deviation,
        best_projection_residual=residual,
        best_restart=restart,
        trace=(),
        table=refit,
    )


def _restart(param: TableParametrization, iterations: int, seed: int, restart: int) -> SearchResult:
    """One restart of :func:`search_max_halting_mass`, drawing from
    ``default_rng([seed, restart])``: penalty phases, polish, projection and
    rescue rounds, with the objective trace of every L-BFGS iterate.

    The trace value of an iterate is mass - lam * penalty, ``0.0 -`` the
    objective, which keeps +0.0 where the two cancel.  The start's value
    is evaluated; a phase minimizes that very objective, so each of its
    iterates logs the value L-BFGS reports for it, and the polish builds
    its value from the penalty L-BFGS reports (see :func:`_polish`)."""
    per_phase = max(1, iterations // (len(PENALTY_WEIGHTS) + 1))
    polish_iters = max(1, iterations - len(PENALTY_WEIGHTS) * per_phase)
    rng = np.random.default_rng([seed, restart])
    x = param.random_start(rng)
    trace: List[Tuple[int, float]] = []

    def record(value):
        trace.append((len(trace), value))

    def log(intermediate_result):
        record(0.0 - intermediate_result.fun)

    record(0.0 - _objective(x, param, PENALTY_WEIGHTS[0], 1.0)[0])
    for lam in PENALTY_WEIGHTS:
        x = _lbfgs(x, param, lam, 1.0, per_phase, log, 1e-18, 1e-14)
        norms = np.linalg.norm(param.tensor(x).reshape(len(param.mask), -1), axis=1)
        x = _redraw_columns(x, param, rng, ~(norms >= 0.5))  # dead or NaN
    x = _polish(x, param, polish_iters, record)
    result = _certify(x, param, restart)
    # rescue: a polished iterate can sit in a local minimum of the penalty
    # where key columns share their unit norms; redraw those columns and
    # polish again, keeping the least deviating round
    for _round in range(RESCUE_ROUNDS):
        if result.feasible:
            break
        norms = np.linalg.norm(param.tensor(x).reshape(len(param.mask), -1), axis=1)
        off_unit = ~(np.abs(norms**2 - 1.0) <= FEASIBLE_DEVIATION)
        if not off_unit.any():
            break
        x = _polish(_redraw_columns(x, param, rng, off_unit), param, polish_iters, record)
        result = min(result, _certify(x, param, restart), key=lambda r: r.best_unitarity_deviation)
    return replace(result, trace=tuple(trace))


def search_max_halting_mass(
    dims: MachineDims,
    restarts: int,
    iterations: int,
    seed: int,
    ozawa_compliant: bool = True,
) -> SearchResult:
    """Maximize halting mass over tables, penalizing unitarity violation.

    Each restart runs L-BFGS through one phase per penalty weight in
    :data:`PENALTY_WEIGHTS`, then a final feasibility polish (penalty
    only), then the polar projection/refit.  A restart whose certified
    deviation is above :data:`FEASIBLE_DEVIATION` then gets up to
    :data:`RESCUE_ROUNDS` rescue rounds (redraw the key columns whose
    squared norm is off 1 by more than that bound, polish and project
    again) and keeps its least deviating round; the rescue polishes are
    part of the trace.
    Fully deterministic given ``seed``: restart r draws from
    ``default_rng([seed, r])``.  Restarts are independent; the winner is
    the feasible restart (certified deviation at most
    :data:`FEASIBLE_DEVIATION`) with the largest projected mass, earliest
    restart on ties.  When no restart is feasible the result is the one
    with the smallest deviation and its ``feasible`` is false.
    """
    if restarts < 1:
        raise MachineError("restarts must be >= 1")
    if iterations < 1:
        raise MachineError("iterations must be >= 1")
    dims.require_dense()
    param = TableParametrization(dims, ozawa_compliant)
    return _select_restart([_restart(param, iterations, seed, r) for r in range(restarts)])
