"""Sparse complex vectors over opaque, totally ordered basis labels.

One vector engine serves the branch states of :mod:`haltlab.ancilla`,
whose labels are (computational label, halt bit, ancilla index)
composites; labels may be any hashable, sortable objects, and the test
oracles also use the engine for machine configurations.  Every
reduction is bit-stable across runs: it iterates in sorted label order,
or, like the norm, takes a correctly rounded sum that no order changes.

``reduced_density`` reads its labels as tuples: ``label[0]`` is the
subsystem and ``label[1:]`` the environment, so a branch label
(computational label, halt bit, ancilla index) splits into the
computational label and (halt bit, ancilla index).

``reduced_density`` sums with array operations.  It forms every product
a·conj(b) of two entries under one environment as two real arrays, the
parts that Python's complex product computes, and ``np.bincount`` adds
each into its matrix cell from +0.0, environments in sorted order and
label order within one.  Every entry is therefore the float sum, term for
term, of the entry-by-entry loop that the test oracles keep.

``reduced_density`` keeps its last result, one entry, keyed by the
identity of its ``state``, and returns it again for the same object.
This is exact: a ``SparseState`` and a ``DensityMatrix`` never change
after construction.  Coherence and monitoring read the same step's
state of one trace, so the second of their two builds is a lookup.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Mapping, Sequence, Tuple

import numpy as np
from scipy.linalg.lapack import zpotrf

__all__ = [
    "PRUNE_THRESHOLD",
    "BasisLabel",
    "HilbertError",
    "SparseState",
    "DensityMatrix",
    "reduced_density",
]

#: Stored amplitudes at or below this magnitude are dropped.  Every
#: tolerance used elsewhere in the package is >= 1e-12, so pruning is
#: invisible to all checks.
PRUNE_THRESHOLD = 1e-15

BasisLabel = Hashable

_EPS = float(np.finfo(float).eps)


class HilbertError(ValueError):
    """Malformed state, label set or density matrix."""


def sum_of_squares(amps: Iterable[complex]) -> float:
    """Correctly rounded sum of |a|^2 over ``amps``, in any order.

    Returns inf, instead of raising OverflowError, when a square or the
    sum leaves the float range.
    """
    try:
        return math.fsum(abs(a) ** 2 for a in amps)
    except OverflowError:
        return math.inf


def _require_finite(amp: complex, label) -> None:
    if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
        raise HilbertError(f"non-finite amplitude {amp!r} at label {label!r}")


class SparseState:
    """Immutable sparse vector: basis label -> complex amplitude.

    Repeated labels in the input accumulate; entries whose magnitude ends
    up at or below :data:`PRUNE_THRESHOLD` are then dropped.
    """

    __slots__ = ("_entries",)

    def __init__(
        self,
        entries: Mapping[BasisLabel, complex] | Iterable[Tuple[BasisLabel, complex]] = (),
    ):
        data: dict = {}
        items = entries.items() if isinstance(entries, Mapping) else entries
        for label, amp in items:
            data[label] = data.get(label, 0j) + complex(amp)
        for label in list(data):
            amp = data[label]
            _require_finite(amp, label)
            if abs(amp) <= PRUNE_THRESHOLD:
                del data[label]
        self._entries = data

    @classmethod
    def _adopt(cls, entries: dict) -> "SparseState":
        """Wrap ``entries`` as a state without validating it again.

        The caller hands over the dict and must guarantee what the
        constructor would: every amplitude a finite complex number above
        the prune threshold, stored once under its own label.
        """
        state = cls.__new__(cls)
        state._entries = entries
        return state

    @classmethod
    def basis(cls, label: BasisLabel) -> "SparseState":
        """Unit basis vector |label>."""
        return cls(((label, 1.0 + 0j),))

    def items(self) -> list:
        """Entries as (label, amplitude) pairs, sorted by label."""
        return sorted(self._entries.items(), key=lambda kv: kv[0])

    def labels(self) -> list:
        return sorted(self._entries)

    def amplitude(self, label: BasisLabel) -> complex:
        return self._entries.get(label, 0j)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, label: BasisLabel) -> bool:
        return label in self._entries

    def norm_squared(self) -> float:
        return sum_of_squares(self._entries.values())

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    def __repr__(self) -> str:
        shown = ", ".join(f"{l!r}: {a:.3g}" for l, a in self.items()[:4])
        tail = ", ..." if len(self) > 4 else ""
        return f"SparseState({{{shown}{tail}}})"


class DensityMatrix:
    """Dense Hermitian PSD matrix over an ordered list of subsystem labels.

    The constructor copies ``matrix`` and makes its copy read-only, so a
    density matrix never changes after construction, whatever becomes of
    the array it was given.

    A matrix is PSD when ``eigvalsh(matrix).min() >= -PSD_TOL``.  A shifted
    Cholesky factorization accepts most PSD matrices first, without the
    eigenvalues (:meth:`_cholesky_accepts`); whatever it does not accept,
    ``eigvalsh`` decides.  Both read the lower triangle.
    """

    #: construction tolerances
    HERMITICITY_TOL = 1e-12
    PSD_TOL = 1e-10

    __slots__ = ("labels", "matrix")

    def __init__(self, labels: Sequence[BasisLabel], matrix: np.ndarray):
        mat = np.array(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] != len(labels):
            raise HilbertError(
                f"matrix shape {mat.shape} does not match {len(labels)} labels"
            )
        if not np.isfinite(mat).all():
            raise HilbertError("non-finite density matrix entry")
        herm = np.abs(mat - mat.conj().T).max() if mat.size else 0.0
        if herm > self.HERMITICITY_TOL:
            raise HilbertError(f"density matrix not Hermitian: deviation {herm:.3e}")
        if mat.size and not self._cholesky_accepts(mat):
            eigmin = float(np.linalg.eigvalsh(mat).min())
            if eigmin < -self.PSD_TOL:
                raise HilbertError(f"density matrix not PSD: min eigenvalue {eigmin:.3e}")
        mat.flags.writeable = False
        self.labels = tuple(labels)
        self.matrix = mat

    def _cholesky_accepts(self, mat: np.ndarray) -> bool:
        """True when a Cholesky factorization of ``mat + (PSD_TOL/2)·I``
        completes and its backward error is provably below PSD_TOL/2.

        If the factorization of the n×n Hermitian A_s = A + δI completes,
        the computed factor R satisfies R*R = A_s + ΔA with
        |ΔA| ≤ γ_{n+1}|R*||R| entrywise, γ_k = ku/(1 − ku) (Higham,
        *Accuracy and Stability of Numerical Algorithms*, 2nd ed., §10.1.1;
        the bound needs only that the factorization runs to completion, and
        holds for any order of summation).  Then ||ΔA||_2 ≤ γ_{n+1}||R||_F^2
        and ||R||_F^2 = tr(A_s + ΔA) ≤ tr(A_s)/(1 − γ_{n+1}).  Complex
        arithmetic raises the constant by about √2 (ibid., §3.6), to below
        √2·(n+1)·eps for n ≥ 1, with eps = 2u the machine epsilon.  So the
        scale guard (n+1)·eps·tr(A_s) ≤ PSD_TOL/4 gives
        ||ΔA||_2 < 0.36·PSD_TOL, the rounding of the shift included.  R*R is
        PSD, hence λmin(A) ≥ −δ − ||ΔA||_2 > −0.86·PSD_TOL with
        δ = PSD_TOL/2, and ``eigvalsh``, whose error on such a matrix is a
        small multiple of eps·tr(A_s), would accept A too.  Outside the
        guard this returns False, and so does a factorization that stops.
        """
        n = mat.shape[0]
        shifted = mat.copy()
        diagonal = shifted.reshape(-1)[:: n + 1]
        diagonal += self.PSD_TOL / 2
        trace = float(diagonal.real.sum())
        if not (n + 1) * _EPS * trace <= self.PSD_TOL / 4:
            return False
        _, info = zpotrf(shifted, lower=1, clean=0)
        return info == 0

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def entry(self, row_label: BasisLabel, col_label: BasisLabel) -> complex:
        i = self.labels.index(row_label)
        j = self.labels.index(col_label)
        return complex(self.matrix[i, j])

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={len(self.labels)}, trace={self.trace:.6g})"


#: the last result as (state, density matrix), or None
_last_density: tuple | None = None


def reduced_density(state: SparseState) -> DensityMatrix:
    """Reduced density matrix of the subsystem ``label[0]`` of tuple labels.

    Each basis label is a tuple whose first entry is the subsystem and
    whose remaining entries, ``label[1:]``, are the environment.  The
    result is rho[c, c'] = sum_e amp(c, e) * conj(amp(c', e)), with
    rows/columns ordered by sorted subsystem label; its trace equals the
    squared norm of ``state``.  Called again with the same state object,
    it returns the same matrix object.
    """
    global _last_density
    last = _last_density
    if last is not None and state is last[0]:
        return last[1]
    dm = _reduced_density(state)
    _last_density = (state, dm)
    return dm


def _reduced_density(state: SparseState) -> DensityMatrix:
    """The body of :func:`reduced_density`: every sum and every check.

    The entries are sorted once, by environment rank and then by label,
    and every pair under one environment is listed a-major, in the order
    in which a loop over environments, then rows, then columns visits them.
    """
    norm_squared = state.norm_squared()
    if norm_squared == 0.0:
        raise HilbertError("reduced_density requires a state with positive norm")

    entries = state._entries
    labels = sorted(entries)
    n = len(labels)
    sys_part = [label[0] for label in labels]
    env_part = [label[1:] for label in labels]
    ordered = sorted(set(sys_part))
    index = {l: i for i, l in enumerate(ordered)}
    rank = {e: r for r, e in enumerate(sorted(set(env_part)))}
    d = len(ordered)

    # entries in sorted-environment order, label order within an environment
    env = np.fromiter(map(rank.__getitem__, env_part), dtype=np.intp, count=n)
    order = np.argsort(env, kind="stable")
    env = env[order]
    rows = np.fromiter(map(index.__getitem__, sys_part), dtype=np.intp, count=n)[order]
    amps = np.fromiter(map(entries.__getitem__, labels), dtype=complex, count=n)[order]

    # every pair (a, b) of entries under one environment, a-major: entry a
    # pairs with the size[a] entries of its group, which starts at first[a],
    # and its pairs start at run[a] in the list of all pairs
    counts = np.bincount(env)
    first = (np.cumsum(counts) - counts)[env]
    size = counts[env]
    run = np.cumsum(size) - size
    a = np.repeat(np.arange(n), size)
    b = first[a] + np.arange(a.size) - run[a]

    # a_a * conj(a_b) as Python's complex product forms it, one real array
    # per part (numpy's complex multiply may fuse a multiply-add and round
    # differently); bincount adds each cell's terms from +0.0 in pair order,
    # so every entry is the loop's sum, operation for operation
    ar, ai = amps.real[a], amps.imag[a]
    br, nbi = amps.real[b], -amps.imag[b]
    cell = rows[a] * d + rows[b]
    mat = np.empty(d * d, dtype=complex)
    mat.real = np.bincount(cell, ar * br - ai * nbi, d * d)
    mat.imag = np.bincount(cell, ar * nbi + ai * br, d * d)

    dm = DensityMatrix(ordered, mat.reshape(d, d))
    drift = abs(dm.trace - norm_squared)
    if drift > 1e-12 * max(1.0, norm_squared):
        raise HilbertError(f"trace drifted from squared norm by {drift:.3e}")
    return dm
