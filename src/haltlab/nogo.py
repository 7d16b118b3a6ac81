"""Executable reconstruction of the halting no-go argument.

For a machine whose halted sector freezes tape and halt bit, the one-step
operator acts on a halted configuration through two head-state vectors per
scanned symbol: Q+ (head amplitudes attached to a right move) and Q-
(left move).  Global unitarity forces a chain of Gram identities on these
vectors and on the candidate halting vectors Phi+/Phi- extracted from the
running sector, and the chain collapses every Phi to zero: a compliant
unitary machine has no amplitude flowing from running to halted.

This module extracts the Q/Phi vectors from a transition table, measures
each identity's residual, certifies the conclusion numerically, and
provides a randomized generator of compliant unitary tables plus the
converse witness (a unitary machine that halts by breaking compliance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

import numpy as np

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
    "HaltedSectorVectors",
    "HaltingCandidateVectors",
    "GramIdentityResiduals",
    "GramReport",
    "compute_Q_vectors",
    "check_gram_identities",
    "compute_Phi_vectors",
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


class PreconditionError(ValueError):
    """A verifier precondition failed; ``check`` names the offending check."""

    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check
        self.detail = detail


@dataclass(frozen=True)
class HaltedSectorVectors:
    """Head-state vectors of the halted sector for one scanned symbol.

    ``qplus[j, q]`` is the amplitude of outcome (q, move +1) from key
    (q_j, scanned_symbol, halt=1); ``qminus`` holds the move -1 block.
    """

    scanned_symbol: int
    qplus: np.ndarray
    qminus: np.ndarray

    def __post_init__(self):
        self.qplus.flags.writeable = False
        self.qminus.flags.writeable = False


@dataclass(frozen=True)
class HaltingCandidateVectors:
    """Head-state vectors of running-to-halted outcomes for one source key.

    ``phiplus[mu, q]`` is the amplitude of outcome (q, written symbol mu,
    move +1, halt'=1) from key (source_state, source_symbol, halt=0);
    ``phiminus`` holds the move -1 block.  The running remainder of the
    evolution plays no role in the argument and is not extracted.
    """

    source_state: int
    source_symbol: int
    phiplus: np.ndarray
    phiminus: np.ndarray

    def __post_init__(self):
        self.phiplus.flags.writeable = False
        self.phiminus.flags.writeable = False

    def mass(self) -> float:
        """Total squared halting amplitude carried by this key."""
        return float(np.sum(np.abs(self.phiplus) ** 2) + np.sum(np.abs(self.phiminus) ** 2))


@dataclass(frozen=True)
class GramIdentityResiduals:
    """Residuals of the halted-sector identities for one scanned symbol."""

    residual_16: float
    residual_19: float
    residual_22: float
    worst: Mapping[str, Tuple[int, int]]


@dataclass(frozen=True)
class GramReport:
    """Worst-case residuals of all orthogonality identities plus halting mass."""

    residual_16: float
    residual_19: float
    residual_22: float
    residual_26: float
    residual_27: float
    residual_28: float
    halting_mass: float
    tol: float
    passed: bool
    worst: Mapping[str, tuple]

    @property
    def max_residual(self) -> float:
        return max(
            self.residual_16,
            self.residual_19,
            self.residual_22,
            self.residual_26,
            self.residual_27,
            self.residual_28,
        )

    def as_dict(self) -> dict:
        return {
            "residual_16": self.residual_16,
            "residual_19": self.residual_19,
            "residual_22": self.residual_22,
            "residual_26": self.residual_26,
            "residual_27": self.residual_27,
            "residual_28": self.residual_28,
            "halting_mass": self.halting_mass,
            "max_residual": self.max_residual,
            "tol": self.tol,
            "passed": self.passed,
            "worst": {name: list(loc) for name, loc in self.worst.items()},
        }


def _require_compliance(table: TransitionTable) -> None:
    report = check_ozawa_compliance(table)
    if not report.passed:
        key, target = report.violations[0]
        raise PreconditionError(
            "ozawa_compliance",
            f"{len(report.violations)} violating outcome(s); first: key {key} -> {target}",
        )


def compute_Q_vectors(table: TransitionTable, scanned_symbol: int) -> HaltedSectorVectors:
    """Extract the halted-sector vectors for one scanned symbol.

    The rules are position-free, so the vectors do not depend on where the
    head sits.  Requires a compliant table: only then is the halted sector
    confined to (head state, move) outcomes.
    """
    if not (0 <= scanned_symbol < table.dims.S):
        raise MachineError(f"scanned symbol {scanned_symbol} out of range")
    _require_compliance(table)
    # keys (j, xi, 1) -> outcomes (q', xi, move, 1), as [j, q']
    halted = table.by_key[:, scanned_symbol, 1, :, scanned_symbol, :, 1]
    return HaltedSectorVectors(
        scanned_symbol=scanned_symbol, qplus=halted[..., 1].copy(), qminus=halted[..., 0].copy()
    )


def _first_argmax(matrix: np.ndarray) -> Tuple[int, int]:
    # np.argmax scans row-major, i.e. lexicographic (j, k): ties resolve
    # to the first index pair.
    flat = int(np.argmax(matrix))
    return flat // matrix.shape[1], flat % matrix.shape[1]


def check_gram_identities(qv: HaltedSectorVectors) -> GramIdentityResiduals:
    """Residuals of the three halted-sector identities.

    With rows as vectors: <Q+_j|Q+_k> + <Q-_j|Q-_k> must be the identity,
    <Q-_j|Q+_k> must vanish, and the sums E_k = Q+_k + Q-_k must again be
    orthonormal.
    """
    gp = qv.qplus.conj() @ qv.qplus.T
    gm = qv.qminus.conj() @ qv.qminus.T
    eye = np.eye(gp.shape[0])

    dev16 = np.abs(gp + gm - eye)
    cross = qv.qminus.conj() @ qv.qplus.T
    dev19 = np.abs(cross)
    e_vecs = qv.qplus + qv.qminus
    dev22 = np.abs(e_vecs.conj() @ e_vecs.T - eye)

    return GramIdentityResiduals(
        residual_16=float(dev16.max()),
        residual_19=float(dev19.max()),
        residual_22=float(dev22.max()),
        worst={
            "residual_16": _first_argmax(dev16),
            "residual_19": _first_argmax(dev19),
            "residual_22": _first_argmax(dev22),
        },
    )


def compute_Phi_vectors(
    table: TransitionTable, source_state: int, source_symbol: int
) -> HaltingCandidateVectors:
    """Extract the running-to-halted vectors of key (source_state, source_symbol, 0)."""
    d = table.dims
    if not (0 <= source_state < d.M and 0 <= source_symbol < d.S):
        raise MachineError(
            f"key ({source_state}, {source_symbol}, 0) outside dims {d}"
        )
    # outcomes (q', sigma', move, 1), as [sigma', q']
    halting = table.by_key[source_state, source_symbol, 0, :, :, :, 1].transpose(1, 0, 2)
    return HaltingCandidateVectors(
        source_state=source_state,
        source_symbol=source_symbol,
        phiplus=halting[..., 1].copy(),
        phiminus=halting[..., 0].copy(),
    )


def verify_nogo(table: TransitionTable, tol: float = 1e-10) -> GramReport:
    """Check every orthogonality identity and the zero-halting conclusion.

    Preconditions (raised as :class:`PreconditionError` naming the check):
    the table must pass the compliance check and global unitarity at 1e-12,
    and the tape must have at least 6 cells so the argument's cell offsets
    are distinct.  The scan runs over all scanned symbols, source keys and
    written symbols; each residual is the worst case, and ``worst`` names
    the first maximizing index tuple in lexicographic order.
    """
    d = table.dims
    if d.N < MIN_TAPE_CELLS:
        raise MachineError(f"no-go verification needs at least {MIN_TAPE_CELLS} tape cells")
    _require_compliance(table)
    unit = check_global_unitarity(table, tol=UNITARITY_TOL)
    if not unit.passed:
        raise PreconditionError(
            "global_unitarity",
            f"max deviation {unit.max_deviation:.3e} exceeds {UNITARITY_TOL:.0e}",
        )

    halted = {xi: compute_Q_vectors(table, xi) for xi in range(d.S)}

    res16 = res19 = res22 = 0.0
    worst: Dict[str, tuple] = {}
    for xi in range(d.S):
        ident = check_gram_identities(halted[xi])
        if ident.residual_16 > res16:
            res16 = ident.residual_16
            worst["residual_16"] = (xi, *ident.worst["residual_16"])
        if ident.residual_19 > res19:
            res19 = ident.residual_19
            worst["residual_19"] = (xi, *ident.worst["residual_19"])
        if ident.residual_22 > res22:
            res22 = ident.residual_22
            worst["residual_22"] = (xi, *ident.worst["residual_22"])

    candidates = {
        (q0, eta): compute_Phi_vectors(table, q0, eta)
        for q0 in range(d.M)
        for eta in range(d.S)
    }

    # Cross identities pair the halted sector scanning symbol nu with the
    # Phi block written as symbol nu; iterate (nu, eta, q0, j) so strict
    # improvements land on the lexicographically first worst case.
    res26 = res27 = res28 = 0.0
    for nu in range(d.S):
        qv = halted[nu]
        for eta in range(d.S):
            for q0 in range(d.M):
                phi = candidates[(q0, eta)]
                for j in range(d.M):
                    v26 = abs(
                        np.vdot(qv.qplus[j], phi.phiplus[nu])
                        + np.vdot(qv.qminus[j], phi.phiminus[nu])
                    )
                    v27 = abs(np.vdot(qv.qminus[j], phi.phiplus[nu]))
                    v28 = abs(np.vdot(qv.qplus[j], phi.phiminus[nu]))
                    if v26 > res26:
                        res26 = v26
                        worst["residual_26"] = (nu, eta, q0, j)
                    if v27 > res27:
                        res27 = v27
                        worst["residual_27"] = (nu, eta, q0, j)
                    if v28 > res28:
                        res28 = v28
                        worst["residual_28"] = (nu, eta, q0, j)

    mass = math.fsum(candidates[key].mass() for key in sorted(candidates))
    max_res = max(res16, res19, res22, res26, res27, res28)
    return GramReport(
        residual_16=res16,
        residual_19=res19,
        residual_22=res22,
        residual_26=res26,
        residual_27=res27,
        residual_28=res28,
        halting_mass=mass,
        tol=tol,
        passed=(max_res <= tol and mass <= tol),
        worst=worst,
    )


def halting_mass_from_table(table: TransitionTable) -> float:
    """Total squared running-to-halted amplitude, summed over all running keys."""
    halting = table.amplitudes[halting_slots(table.dims)].tolist()
    return math.fsum(abs(amp) ** 2 for amp in halting)


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


class _MoveSplit:
    """Orthogonal split of the (head state, halt bit) space.

    Right-moving outcome vectors are confined to the subspace W = W0 + W1
    (one random block per halt-bit slice) and left-moving ones to its
    complement.  Cross-overlaps between right and left parts of any two
    key columns then vanish identically, which is exactly what kills the
    distance-two interference channels of the global operator.
    """

    def __init__(self, m: int, rng: np.random.Generator):
        self.p0 = _random_projector(m, int(rng.integers(0, m + 1)), rng)
        self.p1 = _random_projector(m, int(rng.integers(0, m + 1)), rng)

    def confine(self, vec: np.ndarray) -> np.ndarray:
        """Project a key vector (M, S, move, halt') into the split subspace."""
        m = vec.shape[0]
        eye = np.eye(m)
        out = np.empty_like(vec)
        # move index 0 is a left move, 1 is a right move
        out[:, :, 1, 0] = np.einsum("ab,bs->as", self.p0, vec[:, :, 1, 0])
        out[:, :, 1, 1] = np.einsum("ab,bs->as", self.p1, vec[:, :, 1, 1])
        out[:, :, 0, 0] = np.einsum("ab,bs->as", eye - self.p0, vec[:, :, 0, 0])
        out[:, :, 0, 1] = np.einsum("ab,bs->as", eye - self.p1, vec[:, :, 0, 1])
        return out


def random_compliant_table(dims: MachineDims, rng: np.random.Generator) -> TransitionTable:
    """Draw a random compliant table whose global operator is unitary.

    The halted sector takes a Haar-random head unitary per scanned symbol,
    split into right/left partial isometries by the shared move split, so
    its identities hold by construction.  The running keys start from raw
    complex Gaussians confined to the same split and are completed by
    modified Gram-Schmidt (run twice) against all previously fixed key
    columns, in lexicographic key order.  The raw vectors carry halting
    components; orthogonalization against the halted sector is what
    removes them.
    """
    if dims.N < 3:
        raise MachineError("the generator needs at least 3 tape cells")
    m, s = dims.M, dims.S
    split = _MoveSplit(m, rng)

    key_vectors: Dict[tuple, np.ndarray] = {}
    for xi in range(s):
        head = haar_unitary(m, rng)
        a_block = split.p1 @ head
        b_block = (np.eye(m) - split.p1) @ head
        for j in range(m):
            vec = np.zeros((m, s, 2, 2), dtype=complex)
            vec[:, xi, 1, 1] = a_block[:, j]
            vec[:, xi, 0, 1] = b_block[:, j]
            key_vectors[(j, xi, 1)] = vec

    fixed = [key_vectors[k] for k in sorted(key_vectors)]
    for key in sorted((q, sym, 0) for q in range(m) for sym in range(s)):
        for _attempt in range(64):
            raw = rng.standard_normal((m, s, 2, 2)) + 1j * rng.standard_normal((m, s, 2, 2))
            vec = split.confine(raw)
            for _pass in range(2):  # re-orthogonalize once for 1e-16 defects
                for prev in fixed:
                    vec = vec - np.vdot(prev, vec) * prev
            nrm = float(np.linalg.norm(vec))
            if nrm > 1e-8:
                vec = vec / nrm
                break
        else:  # pragma: no cover - probability zero for continuous draws
            raise MachineError("failed to complete a unitary table")
        key_vectors[key] = vec
        fixed.append(vec)

    frame = np.stack([v.reshape(-1) for v in fixed])
    defect = float(np.max(np.abs(frame @ frame.conj().T - np.eye(len(fixed)))))
    if defect > CONSTRUCTION_TOL:  # pragma: no cover - construction gate
        raise MachineError(f"completion left an orthonormality defect of {defect:.3e}")

    return TransitionTable.from_tensor(dims, np.stack([key_vectors[k] for k in rule_keys(dims)]))


def halting_witness_table(dims: MachineDims) -> TransitionTable:
    """Unitary but non-compliant machine that halts with certainty.

    Every key toggles the halt bit and shifts right, leaving head state and
    tape untouched: a permutation of the configuration space, hence exactly
    unitary, with one unit of halting mass per running key.
    """
    rules = {
        (q, sym, hb): [(q, sym, 1, 1 - hb, 1.0 + 0j)]
        for q in range(dims.M)
        for sym in range(dims.S)
        for hb in (0, 1)
    }
    return TransitionTable(dims, rules)
