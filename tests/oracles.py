"""Independent oracles that tests compare the package against.

Each function recomputes a quantity the package computes another way,
by the most direct route available: the Gram matrix pair by pair, the
halting mass from the global matrix, the unitarity penalty from the
global product U^dag U, and every state of a branch superposition built
and normed from scratch.  None of them is used by the package itself.
"""

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from haltlab.ancilla import NORM_TOL, AncillaPolicy, BranchModelError, BranchSpec
from haltlab.hilbert import HilbertError, SparseState, inner_product
from haltlab.qtm import MachineDims, TransitionTable, sparse_global_matrix


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


def global_frobenius_penalty(table: TransitionTable) -> float:
    """||U^dag U - I||_F^2 computed from the sparse global matrix."""
    u = sparse_global_matrix(table)
    gram = (u.getH() @ u) - sp.identity(u.shape[0], dtype=complex, format="csc")
    return float(np.sum(np.abs(gram.data) ** 2))


def _composite(branch: BranchSpec, policy: AncillaPolicy, t: int):
    return (
        branch.label_at(t),
        branch.halt_bit(t),
        policy.ancilla_index(branch.id, t, branch.halt_step),
    )


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
