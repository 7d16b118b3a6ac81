"""Sparse complex vectors over opaque, totally ordered basis labels.

One vector engine serves the branch states of :mod:`haltlab.ancilla`,
whose labels are (computational label, halt bit, ancilla index)
composites; labels may be any hashable, sortable objects, and the test
oracles also use the engine for machine configurations.  Every
reduction is bit-stable across runs: it iterates in sorted label order,
or, like the norm, takes a correctly rounded sum that no order changes.

``reduced_density`` keeps its last result, one entry, keyed by the
identity of its ``state`` and ``project`` arguments, and returns it
again for the same two objects.  This is exact: a ``SparseState`` and a
``DensityMatrix`` never change after construction.  Coherence and
monitoring read the same step's state of one trace, so the second of
their two builds is a lookup.
"""

from __future__ import annotations

import math
from typing import Callable, Hashable, Iterable, Mapping, Sequence, Tuple

import numpy as np

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
    """Dense Hermitian PSD matrix over an ordered list of subsystem labels."""

    #: construction tolerances
    HERMITICITY_TOL = 1e-12
    PSD_TOL = 1e-10

    __slots__ = ("labels", "matrix")

    def __init__(self, labels: Sequence[BasisLabel], matrix: np.ndarray):
        mat = np.asarray(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] != len(labels):
            raise HilbertError(
                f"matrix shape {mat.shape} does not match {len(labels)} labels"
            )
        if not np.all(np.isfinite(mat.view(float))):
            raise HilbertError("non-finite density matrix entry")
        herm = np.max(np.abs(mat - mat.conj().T)) if mat.size else 0.0
        if herm > self.HERMITICITY_TOL:
            raise HilbertError(f"density matrix not Hermitian: deviation {herm:.3e}")
        if mat.size:
            eigmin = float(np.linalg.eigvalsh(mat).min())
            if eigmin < -self.PSD_TOL:
                raise HilbertError(f"density matrix not PSD: min eigenvalue {eigmin:.3e}")
        mat.flags.writeable = False
        self.labels = tuple(labels)
        self.matrix = mat

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def entry(self, row_label: BasisLabel, col_label: BasisLabel) -> complex:
        i = self.labels.index(row_label)
        j = self.labels.index(col_label)
        return complex(self.matrix[i, j])

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={len(self.labels)}, trace={self.trace:.6g})"


#: the last result as (state, project, density matrix), or None
_last_density: tuple | None = None


def reduced_density(
    state: SparseState,
    project: Callable[[BasisLabel], Tuple[BasisLabel, BasisLabel]],
) -> DensityMatrix:
    """Reduced density matrix of the subsystem singled out by ``project``.

    ``project`` splits each basis label into a ``(subsystem, environment)``
    pair.  The result is rho[c, c'] = sum_e amp(c, e) * conj(amp(c', e)),
    with rows/columns ordered by sorted subsystem label; its trace equals
    the squared norm of ``state``.  Called again with the same state and
    project objects, it returns the same matrix object.
    """
    global _last_density
    last = _last_density
    if last is not None and state is last[0] and project is last[1]:
        return last[2]
    dm = _reduced_density(state, project)
    _last_density = (state, project, dm)
    return dm


def _reduced_density(
    state: SparseState,
    project: Callable[[BasisLabel], Tuple[BasisLabel, BasisLabel]],
) -> DensityMatrix:
    """The body of :func:`reduced_density`: every sum and every check."""
    norm_squared = state.norm_squared()
    if norm_squared == 0.0:
        raise HilbertError("reduced_density requires a state with positive norm")

    by_env: dict = {}
    sys_labels: set = set()
    for label, amp in state.items():
        sys_label, env_label = project(label)
        sys_labels.add(sys_label)
        by_env.setdefault(env_label, []).append((sys_label, amp))

    ordered = sorted(sys_labels)
    index = {l: i for i, l in enumerate(ordered)}
    # Python complex arithmetic, converted once: the same products and sums
    # in the same order as adding into the array entry by entry
    rows = [[0j] * len(ordered) for _ in ordered]
    for env_label in sorted(by_env):
        group = [(index[sys_label], amp) for sys_label, amp in by_env[env_label]]
        conjugates = [(j, amp.conjugate()) for j, amp in group]
        for i, amp_i in group:
            row = rows[i]
            for j, conj_j in conjugates:
                row[j] += amp_i * conj_j

    dm = DensityMatrix(ordered, np.array(rows, dtype=complex))
    drift = abs(dm.trace - norm_squared)
    if drift > 1e-12 * max(1.0, norm_squared):
        raise HilbertError(f"trace drifted from squared norm by {drift:.3e}")
    return dm
