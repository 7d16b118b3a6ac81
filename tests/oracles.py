"""Independent oracles that tests compare the package against.

Each function recomputes a quantity the package computes another way,
by the most direct route available: the one-step operator configuration
by configuration, and again from (value, row, column) triples, inner
products and the Gram matrix pair by pair, the no-go residuals vector
pair by vector pair, the halting mass from the global matrix, the
unitarity deviation and penalty from U^dag U - I formed as a matrix,
the polar factor one block at a time into a dense matrix (and the
search's projection read off it), every state of a branch
superposition built and normed from scratch from composite labels
whose ancilla index is worked out step by step, and the reduced density
matrix added entry by entry into an array.
None of them is used by the package itself.
"""

from typing import Callable, Dict, Hashable, List, NamedTuple, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from haltlab.ancilla import (
    NORM_TOL,
    AncillaPolicy,
    BranchModelError,
    BranchSpec,
    PolicyError,
)
from haltlab.hilbert import HilbertError, SparseState
from haltlab.nogo import RESIDUALS
from haltlab.qtm import (
    MachineDims,
    MachineError,
    TransitionTable,
    build_global_matrix,
    operator_indices,
    sparse_global_matrix,
)
from haltlab.search import TableParametrization


class Configuration(NamedTuple):
    """One classical basis label: head state, position, tape, halt bit."""

    q: int
    h: int
    tape: Tuple[int, ...]
    halt: int


def validate_configuration(config, dims: MachineDims) -> Configuration:
    if not isinstance(config, tuple) or len(config) != 4:
        raise MachineError(f"not a configuration label: {config!r}")
    q, h, tape, halt = config
    if not (isinstance(q, int) and 0 <= q < dims.M):
        raise MachineError(f"head state {q!r} out of range for M={dims.M}")
    if not (isinstance(h, int) and 0 <= h < dims.N):
        raise MachineError(f"head position {h!r} out of range for N={dims.N}")
    if len(tape) != dims.N or any(not (isinstance(s, int) and 0 <= s < dims.S) for s in tape):
        raise MachineError(f"tape {tape!r} invalid for S={dims.S}, N={dims.N}")
    if halt not in (0, 1):
        raise MachineError(f"halt bit {halt!r} must be 0 or 1")
    return Configuration(q, h, tuple(tape), halt)


def config_index(config: Configuration, dims: MachineDims) -> int:
    """Position of ``config`` in the lexicographic enumeration.

    The tape reads as a base-S number whose first cell is the most
    significant digit.
    """
    q, h, tape, halt = config
    code = 0
    for sym in tape:
        code = code * dims.S + sym
    return ((q * dims.N + h) * dims.S**dims.N + code) * 2 + halt


def step(state: SparseState, table: TransitionTable) -> SparseState:
    """Apply the global one-step operator to a sparse state.

    For each configuration the rule at (q, tape[h], halt) fires: the head
    state, the scanned cell and the halt bit are rewritten and the head
    moves by the outcome's move, cyclically.  Amplitudes accumulate
    additively across interfering configurations.  This per-configuration
    loop is the independent reference for
    :func:`haltlab.qtm.sparse_global_matrix`.
    """
    d = table.dims
    rules = table.rules
    out: List[Tuple[Configuration, complex]] = []
    for label, amp in state.items():
        config = validate_configuration(label, d)
        key = (config.q, config.tape[config.h], config.halt)
        for q2, s2, move, h2, weight in rules[key]:
            tape2 = config.tape[: config.h] + (s2,) + config.tape[config.h + 1 :]
            target = Configuration(q2, (config.h + move) % d.N, tape2, h2)
            out.append((target, amp * weight))
    return SparseState(out)


def scaled(state: SparseState, factor: complex) -> SparseState:
    return SparseState((label, factor * amp) for label, amp in state.items())


def plus(x: SparseState, y: SparseState) -> SparseState:
    return SparseState(list(x.items()) + list(y.items()))


def minus(x: SparseState, y: SparseState) -> SparseState:
    return plus(x, scaled(y, -1.0))


def normalized(state: SparseState) -> SparseState:
    n = state.norm()
    if n == 0.0:
        raise HilbertError("cannot normalize the zero state")
    return scaled(state, 1.0 / n)


def inner_product(x: SparseState, y: SparseState) -> complex:
    """<x|y>, conjugate-linear in ``x`` and linear in ``y``."""
    common = sorted(set(x.labels()) & set(y.labels()))
    return complex(sum(x.amplitude(l).conjugate() * y.amplitude(l) for l in common))


def gram(vectors: Sequence[SparseState]) -> np.ndarray:
    """Gram matrix G[j, k] = <v_j|v_k>; Hermitian by construction."""
    if len(vectors) == 0:
        raise HilbertError("gram requires at least one vector")
    n = len(vectors)
    g = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for k in range(j, n):
            val = inner_product(vectors[j], vectors[k])
            g[j, k] = val
            g[k, j] = val.conjugate()
    return g


def nogo_residuals_by_loop(qplus, qminus, phiplus, phiminus):
    """Residual tensors of identities 16-28 and their first worst indices.

    Takes the arrays :func:`haltlab.nogo.halted_sector` and
    :func:`haltlab.nogo.halting_candidates` return.  Identities 16, 19
    and 22 are Gram matrices of one scanned symbol's vectors at a time;
    26, 27 and 28 are measured one vector pair at a time with ``np.vdot``.
    The worst-index scans run over (xi, j, k) and (nu, eta, q0, j) in
    lexicographic order, and an index becomes the worst only when its value
    strictly exceeds zero and every earlier value.
    Returns ({name: tensor}, {name: worst index}).
    """
    s, m = qplus.shape[0], qplus.shape[1]
    halted = np.zeros((3, s, m, m))
    eye = np.eye(m)
    for xi in range(s):
        qp, qm = qplus[xi].copy(), qminus[xi].copy()
        e_vecs = qp + qm
        halted[:, xi] = (
            np.abs(qp.conj() @ qp.T + qm.conj() @ qm.T - eye),
            np.abs(qm.conj() @ qp.T),
            np.abs(e_vecs.conj() @ e_vecs.T - eye),
        )
    cross = np.zeros((3, s, s, m, m))
    for nu in range(s):
        for eta in range(s):
            for q0 in range(m):
                for j in range(m):
                    phi_p, phi_m = phiplus[q0, eta, nu], phiminus[q0, eta, nu]
                    cross[:, nu, eta, q0, j] = (
                        abs(np.vdot(qplus[nu, j], phi_p) + np.vdot(qminus[nu, j], phi_m)),
                        abs(np.vdot(qminus[nu, j], phi_p)),
                        abs(np.vdot(qplus[nu, j], phi_m)),
                    )
    tensors: Dict[str, np.ndarray] = dict(zip(RESIDUALS, [*halted, *cross]))
    worst: Dict[str, tuple] = {}
    for name, tensor in tensors.items():
        peak = 0.0
        for index in np.ndindex(tensor.shape):
            if tensor[index] > peak:
                peak = tensor[index]
                worst[name] = index
    return tensors, worst


def halting_mass_from_matrix(matrix, dims: MachineDims) -> float:
    """Halting mass read off the global matrix.

    Sums |U[halted row, running column]|^2 and divides by the number of
    configurations sharing one rule key (N * S**(N-1)), which makes the
    value comparable entry-for-entry with
    :func:`haltlab.nogo.halting_mass_from_table`.  Rows and columns follow
    the lexicographic configuration order, where the halt bit is the
    fastest index.
    """
    if sp.issparse(matrix):
        dense = np.asarray(matrix.todense())
    else:
        dense = np.asarray(matrix)
    block = dense[1::2, 0::2]  # halted rows, running columns
    multiplicity = dims.N * dims.S ** (dims.N - 1)
    return float(np.sum(np.abs(block) ** 2)) / multiplicity


def sparse_global_matrix_by_coo(table: TransitionTable) -> sp.csc_matrix:
    """U assembled as (value, row, column) triples and converted to CSC.

    Every listed slot of every column gives one triple, and the conversion
    sums the triples that share a row (both moves of an outcome, for
    N <= 2).  The reference for :func:`haltlab.qtm.sparse_global_matrix`,
    which gathers the CSC arrays from a pre-sorted pattern instead.
    """
    keys, rows = operator_indices(table.dims)
    listed = table.support[keys]
    cols = np.broadcast_to(np.arange(len(keys)).reshape(-1, 1, 1, 1, 1), rows.shape)
    size = len(keys)
    return sp.csc_matrix(
        (table.amplitudes[keys][listed], (rows[listed], cols[listed])), shape=(size, size)
    )


def _gram_minus_identity(u: sp.spmatrix) -> sp.spmatrix:
    return (u.getH() @ u) - sp.identity(u.shape[0], dtype=complex, format="csc")


def unitarity_deviation_by_identity(u: sp.spmatrix) -> float:
    """Max-abs entry of U^dag U - I, with the identity subtracted as a
    sparse matrix: the reference for
    :func:`haltlab.qtm.check_global_unitarity`, which reads the deviation
    off U^dag U."""
    gram = _gram_minus_identity(u)
    gram.eliminate_zeros()
    return float(np.max(np.abs(gram.data))) if gram.nnz else 0.0


def global_frobenius_penalty(table: TransitionTable) -> float:
    """||U^dag U - I||_F^2 computed from the sparse global matrix."""
    gram = _gram_minus_identity(sparse_global_matrix(table))
    return float(np.sum(np.abs(gram.data) ** 2))


def polar_factor_by_blocks(matrix: np.ndarray) -> np.ndarray:
    """Dense polar factor of ``matrix``, one SVD per independent block.

    The blocks are the connected components of the bipartite row/column
    nonzero graph; components with unequal row and column counts join one
    square remainder block.  Each block's ``left @ right`` is written into
    a zero matrix, one block after another.  The reference for
    :func:`haltlab.search._polar_factor`, which groups the blocks by size
    and shares one SVD between blocks with the same bytes.
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
    bounds = np.cumsum(np.bincount(row_block, minlength=count + 1))

    polar = np.zeros_like(matrix)
    start = 0
    for stop in bounds:
        if stop > start:
            rows = row_order[start:stop, None]
            cols = col_order[start:stop]
            left, _, right = np.linalg.svd(matrix[rows, cols])
            polar[rows, cols] = left @ right
        start = stop
    return polar


def projection_by_dense_polar(table: TransitionTable, ozawa_compliant: bool):
    """Refit table and residual of :func:`haltlab.search.project_to_unitary_table`.

    Builds the dense polar factor with :func:`polar_factor_by_blocks`,
    reads each key's representative column out of it, and takes the
    max-abs difference to the refit table's dense global matrix.
    """
    dims = table.dims
    polar = polar_factor_by_blocks(build_global_matrix(table))
    keys, rows = operator_indices(dims)
    first = np.unique(keys, return_index=True)[1]
    local = polar[rows[first], first.reshape(-1, 1, 1, 1, 1)]
    mask = TableParametrization(dims, ozawa_compliant).mask
    refit = TransitionTable.from_tensor(dims, np.where(mask, local, 0))
    residual = float(np.max(np.abs(polar - build_global_matrix(refit))))
    return refit, residual


def _composite(branch: BranchSpec, policy: AncillaPolicy, t: int):
    """(label, halt bit, ancilla index) of ``branch`` at step ``t``, one
    step at a time: the orbit entry and index 0 before the halt step, then
    the post-halt label and ``rho(t - halt_step)``, with ``rho`` read from
    the policy's kind and maps.  The reference for the step tuples of the
    trace that :func:`haltlab.ancilla.run_superposition` returns."""
    if t < branch.halt_step:
        return branch.orbit[t], 0, 0
    k = t - branch.halt_step
    mapping = policy.maps.get(branch.id)
    if mapping is None:  # the shared policy, or a branch without a map
        index = k
    elif policy.kind == AncillaPolicy.PERMUTED:
        index = mapping.get(k, k)
    elif k in mapping:
        index = mapping[k]
    else:
        raise PolicyError(f"custom map for branch {branch.id} does not cover offset {k}")
    return branch.post_halt_label, 1, index


def superposition_states(
    branches: Sequence[BranchSpec],
    amps: Sequence[complex],
    policy: AncillaPolicy,
    t_max: int,
) -> list:
    """States 0 .. t_max of :func:`haltlab.ancilla.run_superposition`.

    Each step is a new SparseState over every branch's composite label,
    checked to have norm 1.  Skips the checks run_superposition makes
    before its first step.
    """
    amps = tuple(complex(a) for a in amps)
    states = []
    for t in range(t_max + 1):
        state = SparseState(
            (_composite(b, policy, t), a) for b, a in zip(branches, amps)
        )
        if abs(state.norm() - 1.0) > NORM_TOL:
            raise BranchModelError(
                f"branches collide on a composite label at step {t}; "
                "the run is not an isometry on the branch set"
            )
        states.append(state)
    return states


def reduced_density_by_loop(
    state: SparseState, project: Callable[[Hashable], Tuple[Hashable, Hashable]]
) -> Tuple[list, np.ndarray]:
    """Sorted subsystem labels and matrix of
    :func:`haltlab.hilbert.reduced_density`, without its checks.

    Environments are taken in sorted order and each environment's entries
    in label order; every product a_i * conj(a_j) is added into its numpy
    array entry one at a time.
    """
    by_env: dict = {}
    sys_labels: set = set()
    for label, amp in state.items():
        sys_label, env_label = project(label)
        sys_labels.add(sys_label)
        by_env.setdefault(env_label, []).append((sys_label, amp))

    ordered = sorted(sys_labels)
    index = {l: i for i, l in enumerate(ordered)}
    rho = np.zeros((len(ordered), len(ordered)), dtype=complex)
    for env_label in sorted(by_env):
        group = by_env[env_label]
        for sys_i, amp_i in group:
            for sys_j, amp_j in group:
                rho[index[sys_i], index[sys_j]] += amp_i * amp_j.conjugate()
    return ordered, rho
