"""Independent oracles that tests compare the package against.

Each function recomputes a quantity the package computes another way,
by the most direct route available: the Gram matrix pair by pair, the
halting mass from the global matrix, and the unitarity penalty from the
global product U^dag U.  None of them is used by the package itself.
"""

from typing import Sequence

import numpy as np
import scipy.sparse as sp

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
