"""No-go machinery: Q/Phi extraction, Gram identities, verifier, generator."""

import math

import numpy as np
import pytest

from haltlab.hilbert import SparseState
from haltlab.nogo import (
    HaltedSectorVectors,
    PreconditionError,
    check_gram_identities,
    compute_Phi_vectors,
    compute_Q_vectors,
    haar_unitary,
    halting_mass_from_table,
    halting_witness_table,
    random_compliant_table,
    verify_nogo,
)
from haltlab.qtm import (
    MachineDims,
    MachineError,
    TransitionTable,
    build_global_matrix,
    check_global_unitarity,
    check_ozawa_compliance,
    right_shift_table,
)
from oracles import gram, halting_mass_from_matrix

INV_SQRT2 = 2**-0.5


def _identity_halted_table(dims):
    """Halted sector: keep head state, move right; running sector: right shift."""
    rules = {}
    for q in range(dims.M):
        for s in range(dims.S):
            rules[(q, s, 0)] = [(q, s, 1, 0, 1.0)]
            rules[(q, s, 1)] = [(q, s, 1, 1, 1.0)]
    return TransitionTable(dims, rules)


def test_q_vectors_identity_sector():
    dims = MachineDims(2, 2, 6)
    qv = compute_Q_vectors(_identity_halted_table(dims), scanned_symbol=0)
    assert np.array_equal(qv.qplus, np.eye(2))
    assert np.array_equal(qv.qminus, np.zeros((2, 2)))


def test_q_vectors_hadamard_sector():
    dims = MachineDims(2, 2, 6)
    rules = {}
    for s in range(2):
        rules[(0, s, 0)] = [(0, s, 1, 0, 1.0)]
        rules[(1, s, 0)] = [(1, s, 1, 0, 1.0)]
        rules[(0, s, 1)] = [(0, s, 1, 1, INV_SQRT2), (1, s, 1, 1, INV_SQRT2)]
        rules[(1, s, 1)] = [(0, s, 1, 1, INV_SQRT2), (1, s, 1, 1, -INV_SQRT2)]
    qv = compute_Q_vectors(TransitionTable(dims, rules), scanned_symbol=1)
    assert np.allclose(qv.qplus, np.array([[1, 1], [1, -1]]) * INV_SQRT2)
    assert np.array_equal(qv.qminus, np.zeros((2, 2)))
    ident = check_gram_identities(qv)
    assert ident.residual_16 < 1e-15
    assert ident.residual_19 == 0.0
    assert ident.residual_22 < 1e-15


def test_q_vectors_demand_compliance():
    dims = MachineDims(2, 2, 6)
    with pytest.raises(PreconditionError) as err:
        compute_Q_vectors(halting_witness_table(dims), scanned_symbol=0)
    assert err.value.check == "ozawa_compliance"


def test_gram_identities_catch_non_unitary_sector():
    # Q+_j = Q-_j = e_j / sqrt(2) satisfies the norm identity but not the
    # right/left orthogonality: such a sector cannot come from a unitary U
    half = np.eye(2) / math.sqrt(2.0)
    ident = check_gram_identities(
        HaltedSectorVectors(scanned_symbol=0, qplus=half, qminus=half)
    )
    assert ident.residual_16 < 1e-15
    assert ident.residual_19 == pytest.approx(0.5)
    assert ident.worst["residual_19"] == (0, 0)


def test_gram_identity_residuals_for_random_compliant_table():
    dims = MachineDims(2, 2, 6)
    table = random_compliant_table(dims, np.random.default_rng(2))
    for xi in range(dims.S):
        ident = check_gram_identities(compute_Q_vectors(table, xi))
        assert ident.residual_16 <= 1e-12
        assert ident.residual_19 <= 1e-12
        assert ident.residual_22 <= 1e-12


def test_e_vector_residual_triangle_bound():
    # |<E_j|E_k> - delta| <= res16 + 2*res19 <= 4*max(res16, res19), for
    # arbitrary (not necessarily unitary) halted sectors
    rng = np.random.default_rng(17)
    for _ in range(50):
        m = int(rng.integers(1, 5))
        qv = HaltedSectorVectors(
            scanned_symbol=0,
            qplus=rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)),
            qminus=rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)),
        )
        ident = check_gram_identities(qv)
        bound = 4.0 * max(ident.residual_16, ident.residual_19)
        assert ident.residual_22 <= bound + 1e-12


def test_phi_vectors_zero_without_halting_outcomes():
    dims = MachineDims(2, 2, 6)
    phi = compute_Phi_vectors(right_shift_table(dims), source_state=0, source_symbol=1)
    assert phi.mass() == 0.0


def test_phi_vectors_single_halting_outcome():
    dims = MachineDims(2, 2, 6)
    rules = {k: list(v) for k, v in right_shift_table(dims).rules.items()}
    rules[(0, 1, 0)] = rules[(0, 1, 0)] + [(0, 0, 1, 1, 0.3)]
    phi = compute_Phi_vectors(TransitionTable(dims, rules), 0, 1)
    expected = np.zeros((2, 2), dtype=complex)
    expected[0, 0] = 0.3
    assert np.array_equal(phi.phiplus, expected)
    assert np.array_equal(phi.phiminus, np.zeros((2, 2)))
    assert phi.mass() == pytest.approx(0.09)


def test_phi_vectors_validate_key():
    dims = MachineDims(2, 2, 6)
    with pytest.raises(MachineError):
        compute_Phi_vectors(right_shift_table(dims), source_state=7, source_symbol=0)


def test_verify_nogo_right_shift_all_zero():
    report = verify_nogo(right_shift_table(MachineDims(2, 2, 6)))
    assert report.max_residual == 0.0
    assert report.halting_mass == 0.0
    assert report.passed


def test_verify_nogo_requires_six_cells():
    with pytest.raises(MachineError):
        verify_nogo(right_shift_table(MachineDims(2, 2, 5)))


def test_verify_nogo_refuses_non_unitary_table():
    # compliant, halting mass 0.09, but not unitary: the verifier must
    # refuse rather than report, naming the failing check
    dims = MachineDims(2, 2, 6)
    rules = {k: list(v) for k, v in _identity_halted_table(dims).rules.items()}
    rules[(0, 0, 0)] = rules[(0, 0, 0)] + [(0, 0, 1, 1, 0.3)]
    table = TransitionTable(dims, rules)
    assert check_ozawa_compliance(table).passed
    assert halting_mass_from_table(table) == pytest.approx(0.09)
    with pytest.raises(PreconditionError) as err:
        verify_nogo(table)
    assert err.value.check == "global_unitarity"


def test_verify_nogo_refuses_non_compliant_table():
    dims = MachineDims(2, 2, 6)
    with pytest.raises(PreconditionError) as err:
        verify_nogo(halting_witness_table(dims))
    assert err.value.check == "ozawa_compliance"


def test_verify_nogo_on_random_tables():
    dims = MachineDims(2, 2, 6)
    for sample in range(10):
        table = random_compliant_table(dims, np.random.default_rng([99, sample]))
        report = verify_nogo(table)
        assert report.passed, report.as_dict()
        assert report.max_residual <= 1e-10
        assert report.halting_mass <= 1e-10


def test_report_serialization_round_trip_keys():
    report = verify_nogo(right_shift_table(MachineDims(2, 2, 6)))
    doc = report.as_dict()
    assert set(doc) == {
        "residual_16", "residual_19", "residual_22", "residual_26",
        "residual_27", "residual_28", "halting_mass", "max_residual",
        "tol", "passed", "worst",
    }


def test_halted_sector_gram_via_sparse_states_is_identity():
    # second route to the halted-sector norm identity: embed Q+_j + Q-_j
    # as one sparse vector per j (disjoint move sectors) and take the
    # Gram matrix with the generic vector engine
    dims = MachineDims(2, 2, 6)
    table = random_compliant_table(dims, np.random.default_rng(8))
    for xi in range(dims.S):
        qv = compute_Q_vectors(table, xi)
        vectors = [
            SparseState(
                [(("plus", q), qv.qplus[j, q]) for q in range(dims.M)]
                + [(("minus", q), qv.qminus[j, q]) for q in range(dims.M)]
            )
            for j in range(dims.M)
        ]
        g = gram(vectors)
        assert np.max(np.abs(g - np.eye(dims.M))) <= 1e-12


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(4)
    for n in (1, 2, 5):
        u = haar_unitary(n, rng)
        assert np.max(np.abs(u.conj().T @ u - np.eye(n))) < 1e-13


def test_generator_produces_unitary_compliant_tables():
    rng = np.random.default_rng(12)
    for dims in (MachineDims(1, 1, 6), MachineDims(1, 2, 5), MachineDims(2, 2, 4),
                 MachineDims(3, 2, 3), MachineDims(2, 3, 3)):
        table = random_compliant_table(dims, rng)
        assert check_ozawa_compliance(table).passed
        assert check_global_unitarity(table).max_deviation < 1e-12


def test_generator_is_deterministic_given_seed():
    dims = MachineDims(2, 2, 6)
    t1 = random_compliant_table(dims, np.random.default_rng(42))
    t2 = random_compliant_table(dims, np.random.default_rng(42))
    assert t1.rules == t2.rules


def test_witness_table_is_unitary_with_full_halting_mass():
    dims = MachineDims(2, 2, 6)
    table = halting_witness_table(dims)
    assert check_global_unitarity(table).max_deviation == 0.0
    assert not check_ozawa_compliance(table).passed
    assert halting_mass_from_table(table) == pytest.approx(float(dims.M * dims.S))


def test_halting_mass_two_routes_agree():
    rng = np.random.default_rng(77)
    cases = []
    dims_small = MachineDims(2, 2, 4)
    cases.append(halting_witness_table(dims_small))
    # random table with arbitrary halting amplitudes, no unitarity at all
    rules = {}
    for q in range(dims_small.M):
        for s in range(dims_small.S):
            for hb in (0, 1):
                outcomes = []
                for q2 in range(dims_small.M):
                    for s2 in range(dims_small.S):
                        for mv in (-1, 1):
                            for h2 in (0, 1):
                                if rng.uniform() < 0.4:
                                    amp = complex(rng.standard_normal(), rng.standard_normal())
                                    outcomes.append((q2, s2, mv, h2, amp))
                rules[(q, s, hb)] = outcomes
    cases.append(TransitionTable(dims_small, rules))
    cases.append(random_compliant_table(dims_small, rng))

    for table in cases:
        from_table = halting_mass_from_table(table)
        from_matrix = halting_mass_from_matrix(build_global_matrix(table), table.dims)
        assert abs(from_table - from_matrix) <= 1e-12 * max(1.0, from_table)
