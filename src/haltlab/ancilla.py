"""Branch computations with a halt qubit and an ancilla clock.

A branch is an abstract computation: an orbit of computational labels, a
halt step, and a frozen label from the halt step on.  Once a branch
halts, its halt qubit flips to 1 and an ancilla register starts stepping
through mutually orthogonal basis states; the ancilla index is what keeps
the evolution unitary while the computational state stays fixed, and it
records the time since halting.  Policies decide which index sequence
each branch walks after halting: the shared identity sequence, a
per-branch permutation of it, or an arbitrary injective map.

A run builds each branch's composite labels (label, halt bit, ancilla
index) for all its steps once, as one column; that is the only place
the policy's map is applied.  The trace keeps them by step, one tuple of
the n branches' labels per step, the order in which coherence and
monitoring read labels and environments.

``run_superposition`` keeps its last successful run, one entry, keyed
by the identity of its ``branches`` and ``amps`` tuples and of its
policy.  A request for the same three objects and a ``t_max`` no larger
than the kept run's is served as a prefix of that run: the kept step
tuples and states themselves, with no label copied.  This is exact:
step t depends only on the labels at step t, and a run to T that passed
checked every step up to T.  It lets ``monitoring_effect``, which runs
the branches again for each step t, read the command's own trace.

Branches that halt at different times entangle the computational register
with different halt-bit/ancilla states, so their mutual coherence in the
reduced computational density matrix dies; with permuted sequences it can
transiently return when two branches revisit the same index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Hashable, Mapping, Sequence, Tuple

import numpy as np

from .hilbert import DensityMatrix, SparseState, reduced_density, sum_of_squares

__all__ = [
    "BranchModelError",
    "PolicyError",
    "BranchSpec",
    "AncillaPolicy",
    "RunTrace",
    "run_superposition",
    "coherence",
    "monitored_run",
    "monitoring_effect",
    "FixedPointCertificate",
    "fixed_point_impossibility",
]

NORM_TOL = 1e-12
AGREEMENT_TOL = 1e-14


class BranchModelError(ValueError):
    """Invalid branch set, amplitudes or query."""


class PolicyError(BranchModelError):
    """Ancilla policy violates injectivity, does not cover a lookup, or maps
    a branch id that the run has no branch for."""


@dataclass(frozen=True)
class BranchSpec:
    """One computational branch: orbit, halt step, frozen post-halt label.

    The orbit lists the computational label at steps 0, 1, ...; it must
    cover every pre-halt step, and any entries from ``halt_step`` on must
    repeat ``post_halt_label`` (the computation freezes when it halts).
    """

    id: int
    orbit: Tuple[Hashable, ...]
    halt_step: int
    post_halt_label: Hashable = None

    def __post_init__(self):
        object.__setattr__(self, "orbit", tuple(self.orbit))
        if self.halt_step < 0:
            raise BranchModelError(f"branch {self.id}: halt_step must be >= 0")
        if len(self.orbit) < self.halt_step:
            raise BranchModelError(
                f"branch {self.id}: orbit covers {len(self.orbit)} steps, "
                f"needs at least {self.halt_step}"
            )
        post = self.post_halt_label
        if post is None:
            if len(self.orbit) <= self.halt_step:
                raise BranchModelError(
                    f"branch {self.id}: post_halt_label required when the orbit "
                    "ends at the halt step"
                )
            post = self.orbit[self.halt_step]
            object.__setattr__(self, "post_halt_label", post)
        for t in range(self.halt_step, len(self.orbit)):
            if self.orbit[t] != post:
                raise BranchModelError(
                    f"branch {self.id}: orbit[{t}] differs from the post-halt label"
                )


def _check_injective(mapping: Mapping[int, int], what: str) -> None:
    values = list(mapping.values())
    if len(set(values)) != len(values):
        raise PolicyError(f"{what} is not injective")
    if any(k < 0 for k in mapping) or any(v < 0 for v in values):
        raise PolicyError(f"{what} uses negative ancilla indices")


class AncillaPolicy:
    """Rule assigning the post-halt ancilla index of every branch.

    A branch that halted at step ``t_halt`` carries ancilla index
    ``rho(t - t_halt)`` at times t >= t_halt and index 0 before.  The map
    ``rho`` is the identity for the shared policy, a finite permutation
    extended by the identity for the permuted policy, and an explicit
    injective map for the custom policy.  Injectivity is what keeps
    post-halt ancilla states mutually orthogonal, and it is enforced at
    construction.  The policy only holds its kind and its maps, and never
    changes after construction: ``run_superposition`` applies ``rho``
    when it builds each branch's label column.
    """

    SHARED = "SharedOrbit"
    PERMUTED = "PermutedOrbit"
    CUSTOM = "CustomOrbit"

    def __init__(self, kind: str, maps: Mapping[int, Mapping[int, int]] | None = None):
        if kind not in (self.SHARED, self.PERMUTED, self.CUSTOM):
            raise PolicyError(f"unknown policy kind {kind!r}")
        checked: Dict[int, Mapping[int, int]] = {}
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "maps", MappingProxyType(checked))
        if kind == self.SHARED:
            if maps:
                raise PolicyError("the shared policy takes no per-branch maps")
            return
        for branch_id, mapping in (maps or {}).items():
            mapping = {int(k): int(v) for k, v in mapping.items()}
            what = f"{kind} map for branch {branch_id}"
            _check_injective(mapping, what)
            if kind == self.PERMUTED and set(mapping) != set(mapping.values()):
                # anything short of a true permutation of its domain would
                # collide with the identity extension
                raise PolicyError(f"{what} is not a permutation of its domain")
            checked[branch_id] = MappingProxyType(mapping)

    def __setattr__(self, name, value):
        raise AttributeError("an AncillaPolicy does not change after construction")

    @classmethod
    def shared(cls) -> "AncillaPolicy":
        return cls(cls.SHARED)

    @classmethod
    def permuted(cls, permutations: Mapping[int, Mapping[int, int]]) -> "AncillaPolicy":
        return cls(cls.PERMUTED, permutations)

    @classmethod
    def custom(cls, maps: Mapping[int, Mapping[int, int]]) -> "AncillaPolicy":
        return cls(cls.CUSTOM, maps)

    def __repr__(self) -> str:
        return f"AncillaPolicy({self.kind}, branches={sorted(self.maps)})"


@dataclass(frozen=True)
class RunTrace:
    """States of a branch superposition at steps 0 .. t_max.

    Composite basis labels are (computational label, halt bit, ancilla
    index).  ``steps[t]`` is the tuple of the n branches' composite labels
    at step t, in branch order, for t = 0 .. t_max, and ``states[t]`` the
    SparseState at step t, of norm 1.  Every reader takes labels, halt
    bits and ancilla indices from the steps, and refuses a branch index
    outside 0 .. n-1 and then a step outside 0 .. t_max.
    """

    branches: Tuple[BranchSpec, ...]
    amps: Tuple[complex, ...]
    t_max: int
    steps: Tuple[Tuple[tuple, ...], ...] = field(repr=False)
    states: Tuple[SparseState, ...] = field(repr=False)

    def _step(self, t: int) -> int:
        if not (0 <= t <= self.t_max):
            raise BranchModelError(f"step {t} outside 0..{self.t_max}")
        return t

    def _composite(self, i: int, t: int) -> tuple:
        if not (0 <= i < len(self.branches)):
            raise BranchModelError(f"branch index out of range: {i}")
        return self.steps[self._step(t)][i]

    def state(self, t: int) -> SparseState:
        return self.states[self._step(t)]

    def branch_label(self, i: int, t: int) -> Hashable:
        return self._composite(i, t)[0]

    def branch_environment(self, i: int, t: int) -> Tuple[int, int]:
        """(halt bit, ancilla index) of branch i at step t."""
        _, halt, index = self._composite(i, t)
        return halt, index


def _label_column(branch: BranchSpec, policy: AncillaPolicy, t_max: int) -> list:
    """Composite labels (label, halt bit, ancilla index) of one branch at
    steps 0 .. t_max: the one place that applies the policy's ``rho``.  The
    running steps are (orbit entry, 0, 0).  A custom map that leaves an
    offset uncovered ends the column at the step that reaches it."""
    column = [(label, 0, 0) for label in branch.orbit[: min(branch.halt_step, t_max + 1)]]
    halted = range(t_max + 1 - branch.halt_step)
    if not halted:
        return column
    post = branch.post_halt_label
    mapping = policy.maps.get(branch.id)
    if mapping is None:  # the shared policy, or a branch without a map
        column += [(post, 1, k) for k in halted]
    elif policy.kind == AncillaPolicy.PERMUTED:
        column += [(post, 1, mapping.get(k, k)) for k in halted]
    else:
        for k in halted:
            if k not in mapping:
                break
            column.append((post, 1, mapping[k]))
    return column


#: the last successful run as (branches, amps, policy, trace), or None
_last_run: tuple | None = None


def run_superposition(
    branches: Sequence[BranchSpec],
    amps: Sequence[complex],
    policy: AncillaPolicy,
    t_max: int,
) -> RunTrace:
    """Evolve sum_i a_i |c_i(t), H_i(t), anc_i(t)> for t = 0 .. t_max.

    The amplitudes must be finite and normalized to 1e-12, the branch set
    must contain no duplicated branch or branch id, and every per-branch
    map of the policy must name a branch of the set.  Every step is checked
    to have norm 1: a violation means two branches collided on the same
    composite label, which the branch bookkeeping cannot represent.

    The amplitudes are validated and pruned once, keyed by branch
    position, and each branch's labels are built once as a column; the
    trace keeps them by step, as the tuples the step loop reads.  Each
    step maps its composite labels to the validated amplitudes; when the
    labels are pairwise distinct it drops the pruned positions and keeps
    the validated norm, and when labels collide it builds a new state, so
    the collision merges or raises.  Steps are checked in order, so the
    first failing step raises; an uncovered custom offset raises at the
    step that reaches it, for the first such branch in position order.

    Called again with the same ``branches`` and ``amps`` tuples and the
    same policy object as the last successful run, and a ``t_max`` no
    larger than that run's, it returns that run's first t_max + 1 steps:
    the same step tuples and state objects, with no label copied.
    Lists, and equal but distinct objects, always run from step 0.
    """
    global _last_run
    last = _last_run
    if (
        last is not None
        and branches is last[0]
        and amps is last[1]
        and policy is last[2]
        and 0 <= t_max <= last[3].t_max
    ):
        kept = last[3]
        return RunTrace(
            branches=kept.branches,
            amps=kept.amps,
            t_max=t_max,
            steps=kept.steps[: t_max + 1],
            states=kept.states[: t_max + 1],
        )
    _last_run = None  # at most one kept trace alive while this one is built
    trace = _run(branches, amps, policy, t_max)
    if type(branches) is tuple and type(amps) is tuple:
        _last_run = (branches, amps, policy, trace)
    return trace


def _run(
    branches: Sequence[BranchSpec],
    amps: Sequence[complex],
    policy: AncillaPolicy,
    t_max: int,
) -> RunTrace:
    """The body of :func:`run_superposition`: every check, every step."""
    if t_max < 0:
        raise BranchModelError("t_max must be >= 0")
    if len(branches) != len(amps) or not branches:
        raise BranchModelError("need one amplitude per branch, at least one branch")
    amps = tuple(complex(a) for a in amps)
    total = sum_of_squares(amps)
    if not abs(total - 1.0) <= NORM_TOL:  # also rejects an inf or NaN total
        raise BranchModelError(f"amplitudes not normalized: sum |a|^2 = {total!r}")
    ids = {b.id for b in branches}
    if len(ids) != len(branches):
        raise BranchModelError("branch ids must be distinct")
    unknown = [bid for bid in policy.maps if bid not in ids]
    if unknown:
        raise PolicyError(f"{policy.kind} map for branch {unknown[0]}, which no branch has")
    fingerprints = {(b.orbit, b.halt_step, b.post_halt_label) for b in branches}
    if len(fingerprints) != len(branches):
        raise BranchModelError("duplicated branch: same orbit and halt data")

    validated = SparseState(enumerate(amps))
    n = len(branches)
    stored = [validated.amplitude(k) for k in range(n)]
    pruned = [k for k in range(n) if k not in validated]
    kept_norm = validated.norm()
    columns = [_label_column(b, policy, t_max) for b in branches]
    steps = tuple(zip(*columns))
    states = []
    for t, labels in enumerate(steps):
        entries = dict(zip(labels, stored))
        if len(entries) == n:  # the labels are distinct
            for k in pruned:
                del entries[labels[k]]
            state = SparseState._adopt(entries)
            norm = kept_norm
        else:
            state = SparseState(zip(labels, amps))
            norm = state.norm()
        if abs(norm - 1.0) > NORM_TOL:
            raise BranchModelError(
                f"branches collide on a composite label at step {t}; "
                "the run is not an isometry on the branch set"
            )
        states.append(state)
    t = len(states)
    if t <= t_max:  # a column ended early: its custom map misses step t
        for b, column in zip(branches, columns):
            if len(column) == t:
                raise PolicyError(
                    f"custom map for branch {b.id} does not cover offset {t - b.halt_step}"
                )
    return RunTrace(
        branches=tuple(branches),
        amps=amps,
        t_max=t_max,
        steps=steps,
        states=tuple(states),
    )


def _density_entry(rho: DensityMatrix, row, col) -> complex:
    """rho[row, col], read as zero where a branch pruned from the state
    (amplitude at or below the prune threshold) left no row or column."""
    if row in rho.labels and col in rho.labels:
        return rho.entry(row, col)
    return 0j


def coherence(trace: RunTrace, t: int, i: int, j: int) -> complex:
    """Coefficient of |c_i(t)><c_j(t)| in the reduced computational state.

    Equals a_i * conj(a_j) when branches i and j carry the same halt bit
    and ancilla index at step t, and 0 otherwise.  Whenever the branch
    labels at t are pairwise distinct the value is cross-checked against
    the reduced density matrix entry; the two must agree to 1e-14.
    """
    n = len(trace.branches)
    if not (0 <= i < n and 0 <= j < n):
        raise BranchModelError(f"branch index out of range: ({i}, {j})")
    if i == j:
        raise BranchModelError("coherence needs two distinct branches")
    step = trace.steps[trace._step(t)]
    (c_i, *env_i), (c_j, *env_j) = step[i], step[j]
    value = trace.amps[i] * trace.amps[j].conjugate() if env_i == env_j else 0j

    if len({label for label, _, _ in step}) == n:
        rho = reduced_density(trace.state(t))
        entry = _density_entry(rho, c_i, c_j)
        if abs(entry - value) > AGREEMENT_TOL:
            raise BranchModelError(
                f"coherence formula and reduced density disagree at step {t}: "
                f"{value} vs {entry}"
            )
    return value


def monitored_run(
    branches: Sequence[BranchSpec],
    amps: Sequence[complex],
    policy: AncillaPolicy,
    t_max: int,
) -> Dict[tuple, float]:
    """Exact outcome distribution under halt-qubit monitoring.

    The halt qubit is measured projectively after every step, which sorts
    the branch ensemble into groups by halt time.  Keys of the returned
    distribution are (halt-time record, final computational label), where
    the record is the halt step, or None for branches still running at
    ``t_max``.  The distribution is enumerated analytically, not sampled.
    """
    trace = run_superposition(branches, amps, policy, t_max)

    groups: Dict[object, list] = {}
    for idx, b in enumerate(trace.branches):
        record = b.halt_step if b.halt_step <= t_max else None
        groups.setdefault(record, []).append(idx)

    dist: Dict[tuple, float] = {}
    for record in sorted(groups, key=lambda r: (r is None, r)):
        # branches in one record group may still interfere; sum amplitudes
        # per composite label before squaring
        cells: Dict[tuple, complex] = {}
        for idx in groups[record]:
            composite = trace.steps[t_max][idx]
            cells[composite] = cells.get(composite, 0j) + trace.amps[idx]
        for (label, _halt, _index), amp in sorted(cells.items()):
            prob = abs(amp) ** 2
            if prob > 0.0:
                dist[(record, label)] = dist.get((record, label), 0.0) + prob
    return dist


@dataclass(frozen=True)
class MonitoringEffect:
    unmonitored_expectation: float
    monitored_expectation: float
    delta: float


def monitoring_effect(
    branches: Sequence[BranchSpec],
    amps: Sequence[complex],
    policy: AncillaPolicy,
    observable: Tuple[int, int],
    t: int,
) -> MonitoringEffect:
    """Expectation shift caused by monitoring, for one branch pair.

    The observable is the projector onto (|c_i(t)> + |c_j(t)>)/sqrt(2) on
    the computational register, which requires distinct labels.  The
    monitored expectation zeroes the cross term whenever the halt-time
    records of the two branches differ by step t.
    """
    i, j = observable
    trace = run_superposition(branches, amps, policy, t_max=t)
    n = len(trace.branches)
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise BranchModelError(f"invalid branch pair ({i}, {j})")
    ci = trace.branch_label(i, t)
    cj = trace.branch_label(j, t)
    if ci == cj:
        raise BranchModelError(
            f"branches {i} and {j} share label {ci!r} at step {t}; projector degenerate"
        )

    rho = reduced_density(trace.state(t))
    rho_ii = _density_entry(rho, ci, ci).real
    rho_jj = _density_entry(rho, cj, cj).real
    rho_ij = _density_entry(rho, ci, cj)

    ti = trace.branches[i].halt_step
    tj = trace.branches[j].halt_step
    records_agree = ti == tj or (ti > t and tj > t)

    unmonitored = (rho_ii + rho_jj) / 2.0 + rho_ij.real
    monitored = (rho_ii + rho_jj) / 2.0 + (rho_ij.real if records_agree else 0.0)
    return MonitoringEffect(
        unmonitored_expectation=unmonitored,
        monitored_expectation=monitored,
        delta=abs(unmonitored - monitored),
    )


@dataclass(frozen=True)
class FixedPointCertificate:
    """Numerical witness that a reached state cannot also be a fixed point."""

    dim: int
    overlap: float
    residual: float
    lower_bound: float


def fixed_point_impossibility(
    dim: int, overlap: float, seed: int = 0
) -> FixedPointCertificate:
    """Build U with U|psi_tilde> = |psi> and measure how badly U|psi> = |psi> fails.

    ``overlap`` is the real inner product <psi_tilde|psi> in [0, 1], and
    the two states are drawn from ``default_rng(seed)``.  U is the
    Householder reflection swapping them, so the residual ||U psi - psi||
    equals ||psi - psi_tilde|| = sqrt(2 - 2 overlap), the bound unitarity
    alone imposes.  Only overlap 1 (psi_tilde = psi) makes the residual
    vanish.
    """
    if dim < 2:
        raise BranchModelError("need dimension >= 2")
    rng = np.random.default_rng(seed)
    r = float(overlap)
    if not 0.0 <= r <= 1.0:
        raise BranchModelError(f"overlap must lie in [0, 1], got {r}")

    psi_tilde = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi_tilde /= np.linalg.norm(psi_tilde)
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    raw -= np.vdot(psi_tilde, raw) * psi_tilde
    orth = raw / np.linalg.norm(raw)
    psi = r * psi_tilde + math.sqrt(max(0.0, 1.0 - r * r)) * orth

    w = psi_tilde - psi
    wnorm2 = float(np.vdot(w, w).real)
    if wnorm2 < 1e-28:
        u = np.eye(dim, dtype=complex)
    else:
        u = np.eye(dim, dtype=complex) - 2.0 * np.outer(w, w.conj()) / wnorm2
    mapped = u @ psi_tilde
    if np.linalg.norm(mapped - psi) > 1e-12:
        raise BranchModelError("reflection failed to map psi_tilde to psi")

    residual = float(np.linalg.norm(u @ psi - psi))
    bound = math.sqrt(max(0.0, 2.0 - 2.0 * r))
    return FixedPointCertificate(dim=dim, overlap=r, residual=residual, lower_bound=bound)
