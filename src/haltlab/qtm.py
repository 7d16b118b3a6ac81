"""Quantum Turing machine with a halt qubit on a cyclic tape.

A machine configuration is (head state q, head position h, tape contents,
halt bit).  Local rules map (q, scanned symbol, halt) to weighted outcomes
(q', written symbol, move, halt'); the global one-step operator U applies
the rule at the head position of every configuration in superposition.

A transition table is held as one complex amplitude tensor of shape
(2*M*S, M, S, 2, 2), indexed (key, q', sigma', move, halt'), with keys in
the sorted (q, sigma, halt) order of :func:`rule_keys`, the one place that
order is spelled out, and the move axis holding -1 before +1,
plus a boolean ``support`` tensor of the same shape that marks the listed
outcomes.  The outcome lists, the halted-sector compliance check and the
global operator are all slices, masks or index arithmetic on that pair;
the global operator is built without a loop over configurations.  A
configuration's index in the lexicographic (q, h, tape, halt) order, with
the tape read as a base-S number, is its row and column of the operator.

The tape is cyclic with N cells, which keeps the configuration space
finite and makes unitarity of U exactly decidable.  Head moves are +1 or
-1 only; there is no stay-put option.
"""

from __future__ import annotations

import functools
import math
import types
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

__all__ = [
    "DENSE_DIMENSION_CAP",
    "MachineError",
    "DimensionCapError",
    "MachineDims",
    "RuleKey",
    "Outcome",
    "TransitionTable",
    "UnitarityReport",
    "ComplianceReport",
    "build_global_matrix",
    "sparse_global_matrix",
    "check_global_unitarity",
    "check_ozawa_compliance",
    "right_shift_table",
]

#: Largest configuration-space dimension for which the exact global
#: operator may be materialized.
DENSE_DIMENSION_CAP = 4096

#: Move axis of a table tensor: index 0 is a left move, index 1 a right move.
MOVES = (-1, 1)

#: :meth:`TransitionTable.from_tensor` lists only amplitudes of larger magnitude.
AMPLITUDE_FLOOR = 1e-15


class MachineError(ValueError):
    """Invalid machine definition, configuration or state."""


class DimensionCapError(MachineError):
    """Configuration space too large for exact global checks."""


@dataclass(frozen=True)
class MachineDims:
    """Machine sizes: M head states, S tape symbols, N tape cells."""

    M: int
    S: int
    N: int

    def __post_init__(self):
        for name, val in asdict(self).items():
            if not isinstance(val, int) or val < 1:
                raise MachineError(f"{name} must be a positive integer, got {val!r}")

    @property
    def dim(self) -> int:
        """Configuration-space dimension M * N * S**N * 2."""
        return self.M * self.N * self.S**self.N * 2

    @property
    def table_shape(self) -> Tuple[int, int, int, int, int]:
        """Shape (key, q', sigma', move, halt') of a transition-table tensor."""
        return (2 * self.M * self.S, self.M, self.S, 2, 2)

    def require_dense(self) -> int:
        # dim < 2**bits; past 3000 bits dim is far above the cap and may be
        # too long to compute or print, so it is named by its factors
        bits = (2 * self.M * self.N).bit_length() + self.N * self.S.bit_length()
        if bits > 3000:
            raise DimensionCapError(
                f"dimension {self.M}*{self.N}*{self.S}**{self.N}*2 exceeds dense cap "
                f"{DENSE_DIMENSION_CAP}"
            )
        if self.dim > DENSE_DIMENSION_CAP:
            raise DimensionCapError(
                f"dimension {self.dim} exceeds dense cap {DENSE_DIMENSION_CAP}"
            )
        return self.dim


#: (head state, scanned symbol, halt bit)
RuleKey = Tuple[int, int, int]
#: (new head state, written symbol, move in {-1, +1}, new halt bit, amplitude)
Outcome = Tuple[int, int, int, int, complex]


def rule_keys(dims: MachineDims) -> Iterator[RuleKey]:
    """All rule keys in sorted (q, sigma, halt) order: the key axis of a table.

    Generated lazily, so that dims too large to list can still name their
    first keys; callers that index keys take ``list(rule_keys(dims))``.
    """
    return ((q, s, hb) for q in range(dims.M) for s in range(dims.S) for hb in (0, 1))


def compliant_slots(dims: MachineDims) -> np.ndarray:
    """Table-shaped mask of the outcomes the halted-sector constraint allows.

    Running keys may list any outcome; a halted key only outcomes that keep
    its scanned symbol and the halt bit.
    """
    allowed = np.ones(dims.table_shape, dtype=bool)
    halted = np.arange(1, allowed.shape[0], 2)  # the halt bit is the fastest key index
    allowed[halted] = False
    allowed[halted, :, halted // 2 % dims.S, :, 1] = True
    return allowed


def halting_slots(dims: MachineDims) -> np.ndarray:
    """Table-shaped mask of the running-to-halted outcomes (halt 0 -> halt' 1)."""
    halting = np.zeros(dims.table_shape, dtype=bool)
    halting[0::2, ..., 1] = True  # running keys: the halt bit is the fastest key index
    return halting


class TransitionTable:
    """Local rules (q, sigma, halt) -> weighted outcomes, held as one tensor.

    ``amplitudes`` (complex) and ``support`` (bool) both have shape
    ``dims.table_shape``.  ``support`` marks the listed outcomes, so an
    outcome listed with amplitude zero still counts; off the support every
    amplitude is zero.  Both arrays are read-only.

    The constructor validates an outcome-list mapping: every key in
    [0,M) x [0,S) x {0,1} must be present, an empty outcome list is
    representable (it annihilates, which the global unitarity check
    rejects), and no list may repeat a (q', sigma', move, halt') target.
    :meth:`from_tensor` builds a table from an amplitude tensor instead.
    """

    __slots__ = ("dims", "amplitudes", "support")

    def __init__(self, dims: MachineDims, rules: Mapping[RuleKey, Sequence[Outcome]]):
        keys = list(rule_keys(dims))
        expected = set(keys)
        unknown = set(rules) - expected
        if unknown:
            raise MachineError(f"rule keys outside dims: {sorted(unknown)[:4]}")
        missing = expected - set(rules)
        if missing:
            raise MachineError(f"missing rule keys: {sorted(missing)[:4]}")
        amplitudes = np.zeros(dims.table_shape, dtype=complex)
        support = np.zeros(dims.table_shape, dtype=bool)
        for k, key in enumerate(keys):
            for q2, s2, move, h2, amp in rules[key]:
                if not (0 <= q2 < dims.M and 0 <= s2 < dims.S):
                    raise MachineError(f"outcome target out of range at key {key}")
                if move not in MOVES:
                    raise MachineError(f"move must be -1 or +1, got {move} at key {key}")
                if h2 not in (0, 1):
                    raise MachineError(f"halt bit must be 0 or 1, got {h2} at key {key}")
                a = complex(amp)
                if not (math.isfinite(a.real) and math.isfinite(a.imag)):
                    raise MachineError(f"non-finite amplitude at key {key}")
                slot = (k, q2, s2, MOVES.index(move), h2)
                if support[slot]:
                    raise MachineError(f"duplicate outcome {(q2, s2, move, h2)} at key {key}")
                support[slot] = True
                amplitudes[slot] = a
        self._freeze(dims, amplitudes, support)

    @classmethod
    def from_tensor(cls, dims: MachineDims, amplitudes: np.ndarray) -> "TransitionTable":
        """The table listing every outcome above :data:`AMPLITUDE_FLOOR` in magnitude."""
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.shape != dims.table_shape:
            raise MachineError(f"tensor shape {amplitudes.shape} is not {dims.table_shape}")
        bad = np.argwhere(~np.isfinite(amplitudes))
        if len(bad):
            raise MachineError(f"non-finite amplitude at key {list(rule_keys(dims))[bad[0, 0]]}")
        support = np.abs(amplitudes) > AMPLITUDE_FLOOR
        table = object.__new__(cls)
        table._freeze(dims, np.where(support, amplitudes, 0), support)
        return table

    def _freeze(self, dims: MachineDims, amplitudes: np.ndarray, support: np.ndarray) -> None:
        amplitudes.flags.writeable = False
        support.flags.writeable = False
        self.dims = dims
        self.amplitudes = amplitudes
        self.support = support

    @property
    def by_key(self) -> np.ndarray:
        """``amplitudes`` with the key axis unfolded: shape (M, S, 2, M, S, 2, 2)."""
        d = self.dims
        return self.amplitudes.reshape(d.M, d.S, 2, *d.table_shape[1:])

    @property
    def rules(self) -> Mapping[RuleKey, Tuple[Outcome, ...]]:
        """Read-only outcome lists per key, each sorted by (q', sigma', move, halt')."""
        keys = list(rule_keys(self.dims))
        listed: Dict[RuleKey, List[Outcome]] = {key: [] for key in keys}
        slots = [axis.tolist() for axis in np.nonzero(self.support)]
        for k, q2, s2, mi, h2, amp in zip(*slots, self.amplitudes[self.support].tolist()):
            listed[keys[k]].append((q2, s2, MOVES[mi], h2, amp))
        return types.MappingProxyType({key: tuple(out) for key, out in listed.items()})

    def __repr__(self) -> str:
        n_out = int(self.support.sum())
        return f"TransitionTable(dims={self.dims}, keys={self.support.shape[0]}, outcomes={n_out})"


@functools.lru_cache(maxsize=1)
def _operator_pattern(dims: MachineDims) -> Tuple[np.ndarray, ...]:
    """``keys`` and ``rows`` of :func:`operator_indices`, then the CSC layout of U.

    ``csc_rows`` (D, 4*M*S) holds each column's target rows in ascending
    order and ``gather`` the flat table-tensor slot of each of them.  All
    four are int32: under the cap every index is below 8*(M*S)**2 <= 2**25.
    One dims is held at a time, and every array is read-only.
    """
    size = dims.require_dense()
    tapes = dims.S**dims.N
    col = np.arange(size).reshape(-1, 1, 1, 1, 1)
    q, h = np.divmod(col // (2 * tapes), dims.N)
    code, halt = np.divmod(col % (2 * tapes), 2)
    place = dims.S ** (dims.N - 1 - h)  # place value of the head cell
    sym = code // place % dims.S
    q2 = np.arange(dims.M).reshape(-1, 1, 1, 1)
    s2 = np.arange(dims.S).reshape(-1, 1, 1)
    move = np.array(MOVES).reshape(-1, 1)
    h2 = np.arange(2)
    rows = ((q2 * dims.N + (h + move) % dims.N) * tapes + code + (s2 - sym) * place) * 2 + h2
    rows = rows.astype(np.int32)
    keys = ((q * dims.S + sym) * 2 + halt).reshape(-1).astype(np.int32)
    slots = rows.reshape(size, -1)
    order = np.argsort(slots, axis=1, kind="stable").astype(np.int32)
    csc_rows = np.take_along_axis(slots, order, axis=1)
    gather = keys.reshape(-1, 1) * slots.shape[1] + order
    for array in (keys, rows, csc_rows, gather):
        array.flags.writeable = False
    return keys, rows, csc_rows, gather


def operator_indices(dims: MachineDims) -> Tuple[np.ndarray, np.ndarray]:
    """Rule key of every configuration, and where each table slot sends it.

    Returns ``keys`` of shape (D,), the key index of column c, and ``rows``
    of shape (D, M, S, 2, 2), the configuration index that outcome slot
    (q', sigma', move, halt') maps column c to.  The first column of each
    key has the head at cell 0, the scanned symbol in cell 0 and every other
    cell blank.  For N <= 2 both moves of an outcome reach the same row.

    Both arrays are int32 and depend on the dims alone.  They are cached
    for the last dims asked for (one dims at a time) and are read-only.
    """
    keys, rows, _, _ = _operator_pattern(dims)
    return keys, rows


def sparse_global_matrix(table: TransitionTable) -> sp.csc_matrix:
    """U in CSC form, configurations in lexicographic (q, h, tape, halt) order.

    Every listed outcome of a column's key contributes one entry; entries
    that land on the same row add.  The CSC arrays are gathered straight
    from the table through the cached pattern, each column's rows already
    in ascending order; only for N <= 2, where both moves of an outcome
    reach one row, is there a pair of entries to add.
    """
    _, _, csc_rows, gather = _operator_pattern(table.dims)
    size = len(gather)
    listed = table.support.take(gather)  # take indexes the flattened tensor
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(listed, axis=1), out=indptr[1:])
    entries = np.flatnonzero(listed)
    data = table.amplitudes.take(gather.take(entries))
    u = sp.csc_matrix((data, csc_rows.take(entries), indptr), shape=(size, size))
    u.sum_duplicates()  # sorted and distinct for N >= 3: only checked
    return u


def build_global_matrix(table: TransitionTable) -> np.ndarray:
    """Materialize U as a dense D x D matrix (the sparse operator, expanded)."""
    return sparse_global_matrix(table).toarray()


@dataclass(frozen=True)
class UnitarityReport:
    max_deviation: float
    tol: float
    passed: bool
    dim: int

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ComplianceReport:
    violations: Tuple[Tuple[RuleKey, Tuple[int, int, int, int]], ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "violations": [
                {"key": list(key), "outcome": list(target)}
                for key, target in self.violations
            ],
            "passed": self.passed,
        }


def check_global_unitarity(table: TransitionTable, tol: float = 1e-12) -> UnitarityReport:
    """Max-abs entry of U^dag U - I over the full truncated configuration space.

    Read straight off G = U^dag U, without forming G - I: the max of
    |g_ij - delta_ij| over G's stored entries, and 1 if a diagonal entry
    is not stored (a zero column of U).  These are the floats that the
    max-abs entry of G - I is taken over.
    """
    u = sparse_global_matrix(table)
    gram = u.getH() @ u
    size = gram.shape[0]
    on_diagonal = gram.indices == np.repeat(np.arange(size), np.diff(gram.indptr))
    dev = float(np.max(np.abs(gram.data - on_diagonal), initial=0.0))
    if np.count_nonzero(on_diagonal) < size:
        dev = max(dev, 1.0)  # a zero column: its diagonal entry of G - I is -1
    return UnitarityReport(max_deviation=dev, tol=tol, passed=dev <= tol, dim=size)


def check_ozawa_compliance(table: TransitionTable) -> ComplianceReport:
    """Halted keys may change only the head state and position.

    Any outcome of a halt=1 key that rewrites the scanned symbol or clears
    the halt bit is a violation, regardless of its amplitude.
    """
    keys = list(rule_keys(table.dims))
    violating = table.support & ~compliant_slots(table.dims)
    return ComplianceReport(
        violations=tuple(
            (keys[k], (q2, s2, MOVES[mi], h2))
            for k, q2, s2, mi, h2 in np.argwhere(violating).tolist()
        )
    )


def right_shift_table(dims: MachineDims) -> TransitionTable:
    """Permutation machine: every key keeps (q, sigma, halt) and moves right."""
    rules = {(q, s, hb): [(q, s, 1, hb, 1.0 + 0j)] for q, s, hb in rule_keys(dims)}
    return TransitionTable(dims, rules)
