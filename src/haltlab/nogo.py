"""Executable reconstruction of the halting no-go argument.

For a machine whose halted sector freezes tape and halt bit, the one-step
operator acts on a halted configuration through two head-state vectors per
scanned symbol: Q+ (head amplitudes attached to a right move) and Q-
(left move).  Global unitarity forces a chain of Gram identities on these
vectors and on the candidate halting vectors Phi+/Phi- extracted from the
running sector, and the chain collapses every Phi to zero: a compliant
unitary machine has no amplitude flowing from running to halted.

This module slices the Q and Phi vectors out of a transition table's
tensor as arrays, measures each identity as one residual tensor over all
its indices (16, 19, 22 on the halted sector; 26, 27, 28 between the
halted sector and Phi), certifies the conclusion numerically, and provides
a randomized generator of compliant unitary tables plus the converse
witness (a unitary machine that halts by breaking compliance).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from .hilbert import sum_of_squares
from .qtm import (
    MachineDims,
    MachineError,
    TransitionTable,
    check_global_unitarity,
    check_ozawa_compliance,
    halting_slots,
    rule_keys,
)

__all__ = [
    "PreconditionError",
    "GramReport",
    "halted_sector",
    "halting_candidates",
    "gram_residuals",
    "cross_residuals",
    "verify_nogo",
    "halting_mass_from_table",
    "haar_unitary",
    "random_compliant_table",
    "halting_witness_table",
]

#: Orthonormality defect tolerated in freshly constructed tables.
CONSTRUCTION_TOL = 1e-14
#: Unitarity tolerance demanded of inputs to the no-go verifier.
UNITARITY_TOL = 1e-12
#: Minimum tape length for the no-go argument (distinct cells at offsets
#: -2 .. +3 of the head are required).
MIN_TAPE_CELLS = 6
#: The identities the verifier checks, in report order.
RESIDUALS = (
    "residual_16", "residual_19", "residual_22", "residual_26", "residual_27", "residual_28"
)


class PreconditionError(ValueError):
    """A verifier precondition failed; ``check`` names the offending check."""

    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check
        self.detail = detail


@dataclass(frozen=True)
class GramReport:
    """Worst-case residuals of all orthogonality identities plus halting mass.

    ``max_residual`` is the largest of the six residuals.
    """

    residual_16: float
    residual_19: float
    residual_22: float
    residual_26: float
    residual_27: float
    residual_28: float
    halting_mass: float
    max_residual: float
    tol: float
    passed: bool
    worst: Mapping[str, tuple]

    def as_dict(self) -> dict:
        return asdict(self)


def _require_compliance(table: TransitionTable) -> None:
    report = check_ozawa_compliance(table)
    if not report.passed:
        key, target = report.violations[0]
        raise PreconditionError(
            "ozawa_compliance",
            f"{len(report.violations)} violating outcome(s); first: key {key} -> {target}",
        )


def halted_sector(table: TransitionTable) -> Tuple[np.ndarray, np.ndarray]:
    """Halted-sector head vectors ``(qplus, qminus)``, each (S, M, M).

    ``qplus[xi, j, q']`` is the amplitude of outcome (q', xi, move +1,
    halt' 1) from key (q_j, xi, 1); ``qminus`` holds the move -1 block.
    The rules are position-free, so the vectors do not depend on where the
    head sits.  Requires a compliant table: only then is the halted sector
    confined to (head state, move) outcomes.
    """
    _require_compliance(table)
    xi = np.arange(table.dims.S)
    # keys (j, xi, 1) -> outcomes (q', xi, move, 1), as [xi, j, q', move]
    halted = table.by_key[:, xi, 1, :, xi, :, 1]
    return halted[..., 1], halted[..., 0]


def halting_candidates(table: TransitionTable) -> Tuple[np.ndarray, np.ndarray]:
    """Running-to-halted head vectors ``(phiplus, phiminus)``, each (M, S, S, M).

    ``phiplus[q0, eta, mu, q']`` is the amplitude of outcome (q', mu,
    move +1, halt' 1) from key (q0, eta, 0); ``phiminus`` holds the move -1
    block.  The running remainder of the evolution plays no role in the
    argument and is not extracted.
    """
    # keys (q0, eta, 0) -> outcomes (q', mu, move, 1), as [q0, eta, mu, q', move]
    halting = table.by_key[:, :, 0, :, :, :, 1].transpose(0, 1, 3, 2, 4)
    return halting[..., 1], halting[..., 0]


def gram_residuals(
    qplus: np.ndarray, qminus: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entrywise residuals of identities 16, 19 and 22, indexed [..., j, k].

    With the last axis as the vector index and any leading axes batched:
    <Q+_j|Q+_k> + <Q-_j|Q-_k> must be the identity (16), <Q-_j|Q+_k> must
    vanish (19), and the sums E_k = Q+_k + Q-_k must again be orthonormal
    (22).
    """

    def overlaps(x, y):
        return x.conj() @ np.swapaxes(y, -1, -2)

    eye = np.eye(qplus.shape[-2])
    e_vecs = qplus + qminus
    return (
        np.abs(overlaps(qplus, qplus) + overlaps(qminus, qminus) - eye),
        np.abs(overlaps(qminus, qplus)),
        np.abs(overlaps(e_vecs, e_vecs) - eye),
    )


def cross_residuals(
    qplus: np.ndarray, qminus: np.ndarray, phiplus: np.ndarray, phiminus: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residuals of identities 26, 27 and 28, indexed [nu, eta, q0, j].

    Each pairs the halted sector scanning symbol nu with the halting
    vectors written as symbol nu: <Q+_j|Phi+> + <Q-_j|Phi-> (26),
    <Q-_j|Phi+> (27) and <Q+_j|Phi-> (28) must all vanish.
    """

    def overlaps(q, phi):
        return np.einsum("vjq,aevq->veaj", q.conj(), phi)

    return (
        np.abs(overlaps(qplus, phiplus) + overlaps(qminus, phiminus)),
        np.abs(overlaps(qminus, phiplus)),
        np.abs(overlaps(qplus, phiminus)),
    )


def _worst_cases(residuals: Sequence[np.ndarray]) -> Tuple[Dict[str, float], Dict[str, tuple]]:
    """Each residual tensor's maximum and worst index, named as in :data:`RESIDUALS`.

    The worst index is the first in C (lexicographic) order that attains
    the maximum; a tensor whose maximum is zero has none.
    """
    peaks = {name: float(r.max()) for name, r in zip(RESIDUALS, residuals)}
    worst = {
        name: tuple(int(i) for i in np.unravel_index(np.argmax(r), r.shape))
        for name, r in zip(RESIDUALS, residuals)
        if peaks[name] > 0.0
    }
    return peaks, worst


def require_tape_cells(dims: MachineDims) -> None:
    """Raise unless the tape has the :data:`MIN_TAPE_CELLS` the argument needs."""
    if dims.N < MIN_TAPE_CELLS:
        raise MachineError(f"no-go verification needs at least {MIN_TAPE_CELLS} tape cells")


def verify_nogo(table: TransitionTable, tol: float = 1e-10) -> GramReport:
    """Check every orthogonality identity and the zero-halting conclusion.

    Preconditions (raised as :class:`PreconditionError` naming the check):
    the table must pass the compliance check and global unitarity at 1e-12,
    and the tape must have at least 6 cells so the argument's cell offsets
    are distinct.  Each identity is one residual tensor over all scanned
    symbols, source keys and written symbols; each reported residual is its
    maximum, and ``worst`` names the first maximizing index tuple in
    lexicographic order, omitted when the maximum is zero.
    """
    require_tape_cells(table.dims)
    qplus, qminus = halted_sector(table)
    unit = check_global_unitarity(table, tol=UNITARITY_TOL)
    if not unit.passed:
        raise PreconditionError(
            "global_unitarity",
            f"max deviation {unit.max_deviation:.3e} exceeds {UNITARITY_TOL:.0e}",
        )

    peaks, worst = _worst_cases(
        gram_residuals(qplus, qminus)
        + cross_residuals(qplus, qminus, *halting_candidates(table))
    )
    mass = halting_mass_from_table(table)
    max_residual = max(peaks.values())
    return GramReport(
        **peaks,
        halting_mass=mass,
        max_residual=max_residual,
        tol=tol,
        passed=max_residual <= tol and mass <= tol,
        worst=worst,
    )


def halting_mass_from_table(table: TransitionTable) -> float:
    """Total squared running-to-halted amplitude, summed over all running keys."""
    return sum_of_squares(table.amplitudes[halting_slots(table.dims)].tolist())


# ---------------------------------------------------------------------------
# Randomized generator of compliant, globally unitary tables
# ---------------------------------------------------------------------------

def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary (QR of a complex Gaussian, phase-fixed)."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))


def _random_projector(n: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    if rank == 0:
        return np.zeros((n, n), dtype=complex)
    basis = haar_unitary(n, rng)[:, :rank]
    return basis @ basis.conj().T


def random_compliant_table(dims: MachineDims, rng: np.random.Generator) -> TransitionTable:
    """Draw a random compliant table whose global operator is unitary.

    The table is written straight into its tensor, whose halted keys are
    the rows ``[1::2]`` and running keys the rows ``[0::2]``, each in key
    order.  A random move split of the (head state, halt bit) space comes
    first: right-moving outcome vectors are confined to the subspace
    W = W0 + W1 (one random block per halt-bit slice, with projectors p0
    and p1) and left-moving ones to its complement.  Cross-overlaps
    between right and left parts of any two key columns then vanish
    identically, which is exactly what kills the distance-two
    interference channels of the global operator.

    The halted sector takes a Haar-random head unitary per scanned symbol,
    split into right/left partial isometries by p1, so its identities
    hold by construction.  The running keys start from raw complex
    Gaussians confined to the same split and are completed by modified
    Gram-Schmidt (run twice) against all previously fixed key columns:
    the halted keys, then the running keys before them.  The raw vectors
    carry halting components; orthogonalization against the halted sector
    is what removes them.
    """
    if dims.N < 3:
        raise MachineError("the generator needs at least 3 tape cells")
    m, s = dims.M, dims.S
    eye = np.eye(m)
    p0 = _random_projector(m, int(rng.integers(0, m + 1)), rng)
    p1 = _random_projector(m, int(rng.integers(0, m + 1)), rng)
    # (move, halt') -> projector; move index 0 is a left move, 1 a right move
    split = {(1, 0): p0, (1, 1): p1, (0, 0): eye - p0, (0, 1): eye - p1}

    table = np.zeros(dims.table_shape, dtype=complex)
    halted, running = table[1::2], table[0::2]
    for xi in range(s):
        head = haar_unitary(m, rng)
        # rows xi::s are the keys (j, xi, 1); columns of head are their vectors
        halted[xi::s, :, xi, 1, 1] = (split[1, 1] @ head).T
        halted[xi::s, :, xi, 0, 1] = (split[0, 1] @ head).T

    fixed = list(halted)
    for row in running:
        for _attempt in range(64):
            raw = rng.standard_normal((m, s, 2, 2)) + 1j * rng.standard_normal((m, s, 2, 2))
            vec = np.empty_like(raw)
            for (move, h2), proj in split.items():
                vec[:, :, move, h2] = np.einsum("ab,bs->as", proj, raw[:, :, move, h2])
            for _pass in range(2):  # re-orthogonalize once for 1e-16 defects
                for prev in fixed:
                    vec = vec - np.vdot(prev, vec) * prev
            nrm = float(np.linalg.norm(vec))
            if nrm > 1e-8:
                break
        else:  # pragma: no cover - probability zero for continuous draws
            raise MachineError("failed to complete a unitary table")
        row[...] = vec / nrm
        fixed.append(row)

    frame = table.reshape(len(table), -1)
    defect = float(np.max(np.abs(frame @ frame.conj().T - np.eye(len(frame)))))
    if defect > CONSTRUCTION_TOL:  # pragma: no cover - construction gate
        raise MachineError(f"completion left an orthonormality defect of {defect:.3e}")

    return TransitionTable.from_tensor(dims, table)


def halting_witness_table(dims: MachineDims) -> TransitionTable:
    """Unitary but non-compliant machine that halts with certainty.

    Every key toggles the halt bit and shifts right, leaving head state and
    tape untouched: a permutation of the configuration space, hence exactly
    unitary, with one unit of halting mass per running key.
    """
    rules = {(q, sym, hb): [(q, sym, 1, 1 - hb, 1.0 + 0j)] for q, sym, hb in rule_keys(dims)}
    return TransitionTable(dims, rules)
