"""No-go machinery: Q/Phi extraction, residual tensors, verifier, generator."""

import math
import pathlib
import re

import numpy as np
import pytest

from haltlab.documents import load_machine
from haltlab.hilbert import SparseState
from haltlab.nogo import (
    RESIDUALS,
    PreconditionError,
    _worst_cases,
    cross_residuals,
    gram_residuals,
    haar_unitary,
    halted_sector,
    halting_candidates,
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
    compliant_slots,
    right_shift_table,
)
from oracles import gram, halting_mass_from_matrix, nogo_residuals_by_loop

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
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
    qplus, qminus = halted_sector(_identity_halted_table(dims))
    assert qplus.shape == qminus.shape == (dims.S, dims.M, dims.M)
    assert np.array_equal(qplus[0], np.eye(2))
    assert np.array_equal(qminus[0], np.zeros((2, 2)))


def test_q_vectors_hadamard_sector():
    dims = MachineDims(2, 2, 6)
    rules = {}
    for s in range(2):
        rules[(0, s, 0)] = [(0, s, 1, 0, 1.0)]
        rules[(1, s, 0)] = [(1, s, 1, 0, 1.0)]
        rules[(0, s, 1)] = [(0, s, 1, 1, INV_SQRT2), (1, s, 1, 1, INV_SQRT2)]
        rules[(1, s, 1)] = [(0, s, 1, 1, INV_SQRT2), (1, s, 1, 1, -INV_SQRT2)]
    qplus, qminus = halted_sector(TransitionTable(dims, rules))
    assert np.allclose(qplus[1], np.array([[1, 1], [1, -1]]) * INV_SQRT2)
    assert np.array_equal(qminus[1], np.zeros((2, 2)))
    res16, res19, res22 = gram_residuals(qplus[1], qminus[1])
    assert res16.max() < 1e-15
    assert res19.max() == 0.0
    assert res22.max() < 1e-15


def test_q_vectors_demand_compliance():
    dims = MachineDims(2, 2, 6)
    with pytest.raises(PreconditionError) as err:
        halted_sector(halting_witness_table(dims))
    assert err.value.check == "ozawa_compliance"


def test_gram_identities_catch_non_unitary_sector():
    # Q+_j = Q-_j = e_j / sqrt(2) satisfies the norm identity but not the
    # right/left orthogonality: such a sector cannot come from a unitary U
    half = np.eye(2) / math.sqrt(2.0)
    residuals = gram_residuals(half, half)
    peaks, worst = _worst_cases(residuals)
    assert peaks["residual_16"] < 1e-15
    assert peaks["residual_19"] == pytest.approx(0.5)
    assert worst["residual_19"] == (0, 0)


def test_gram_identity_residuals_for_random_compliant_table():
    dims = MachineDims(2, 2, 6)
    table = random_compliant_table(dims, np.random.default_rng(2))
    res16, res19, res22 = gram_residuals(*halted_sector(table))
    assert res16.shape == (dims.S, dims.M, dims.M)
    assert res16.max() <= 1e-12
    assert res19.max() <= 1e-12
    assert res22.max() <= 1e-12


def test_e_vector_residual_triangle_bound():
    # |<E_j|E_k> - delta| <= res16 + 2*res19 <= 4*max(res16, res19), for
    # arbitrary (not necessarily unitary) halted sectors
    rng = np.random.default_rng(17)
    for _ in range(50):
        m = int(rng.integers(1, 5))
        res16, res19, res22 = gram_residuals(
            rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)),
            rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)),
        )
        bound = 4.0 * max(res16.max(), res19.max())
        assert res22.max() <= bound + 1e-12


def test_phi_vectors_zero_without_halting_outcomes():
    dims = MachineDims(2, 2, 6)
    phiplus, phiminus = halting_candidates(right_shift_table(dims))
    assert phiplus.shape == phiminus.shape == (dims.M, dims.S, dims.S, dims.M)
    assert not phiplus[0, 1].any() and not phiminus[0, 1].any()


def test_phi_vectors_single_halting_outcome():
    dims = MachineDims(2, 2, 6)
    rules = {k: list(v) for k, v in right_shift_table(dims).rules.items()}
    rules[(0, 1, 0)] = rules[(0, 1, 0)] + [(0, 0, 1, 1, 0.3)]
    phiplus, phiminus = halting_candidates(TransitionTable(dims, rules))
    expected = np.zeros((2, 2), dtype=complex)
    expected[0, 0] = 0.3
    assert np.array_equal(phiplus[0, 1], expected)
    assert np.array_equal(phiminus[0, 1], np.zeros((2, 2)))
    mass = np.sum(np.abs(phiplus[0, 1]) ** 2) + np.sum(np.abs(phiminus[0, 1]) ** 2)
    assert mass == pytest.approx(0.09)


UNIT_ROUNDOFF = 2.0**-53


def _norms(x):
    return np.sqrt(np.sum(np.abs(x) ** 2, axis=-1))


def _rounding_bounds(qplus, qminus, phiplus, phiminus):
    """How far two correct evaluations of each residual entry may differ.

    Every entry is |<x|y> - delta| for vectors of length n <= 2M (identities
    16 and 26 add two length-M products, which is one product of length
    2M).  A computed complex inner product lies within
    sqrt(2) * gamma_(n+2) * ||x|| ||y|| of the exact one, gamma_k =
    k u / (1 - k u) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., sec. 3.1 and 3.6, with Cauchy-Schwarz), and
    subtracting delta and taking |.| round at most twice more, by
    u (|value| + 1) each.  Two evaluations may sit on opposite sides.
    Returns a function of (name, oracle tensor) giving the bound tensor.
    """
    m = qplus.shape[-1]
    gamma = (2 * m + 2) * UNIT_ROUNDOFF / (1 - (2 * m + 2) * UNIT_ROUNDOFF)
    # vector norms, as [xi, j] for the halted sector and [nu, eta, q0] for Phi
    plus, minus = _norms(qplus), _norms(qminus)
    both = np.hypot(plus, minus)
    summed = _norms(qplus + qminus)
    phi_plus = _norms(phiplus).transpose(2, 1, 0)
    phi_minus = _norms(phiminus).transpose(2, 1, 0)
    phi_both = np.hypot(phi_plus, phi_minus)
    products = {
        "residual_16": both[:, :, None] * both[:, None, :],
        "residual_19": minus[:, :, None] * plus[:, None, :],
        "residual_22": summed[:, :, None] * summed[:, None, :],
        "residual_26": phi_both[..., None] * both[:, None, None, :],
        "residual_27": phi_plus[..., None] * minus[:, None, None, :],
        "residual_28": phi_minus[..., None] * plus[:, None, None, :],
    }

    def bound(name, value):
        return 2.0 * (math.sqrt(2.0) * gamma * products[name] + 2 * UNIT_ROUNDOFF * (value + 1))

    return bound


def _assert_tensors_match_loop(table):
    sector = halted_sector(table)
    candidates = halting_candidates(table)
    tensors = gram_residuals(*sector) + cross_residuals(*sector, *candidates)
    expected, expected_worst = nogo_residuals_by_loop(*sector, *candidates)
    bound = _rounding_bounds(*sector, *candidates)
    for name, tensor in zip(RESIDUALS, tensors):
        assert tensor.shape == expected[name].shape, name
        assert np.all(np.abs(tensor - expected[name]) <= bound(name, expected[name])), name
    assert _worst_cases(tensors)[1] == expected_worst


def test_residual_tensors_match_the_vdot_loop_on_compliant_tables():
    # most of these sizes are past the dense cap, where verify_nogo refuses
    # to run, so the residual functions are called directly
    for m in range(1, 7):
        for s in range(1, 7):
            table = random_compliant_table(MachineDims(m, s, 6), np.random.default_rng([m, s]))
            _assert_tensors_match_loop(table)


def test_residual_tensors_match_the_vdot_loop_on_arbitrary_compliant_slots():
    rng = np.random.default_rng(5)
    for m, s in [(1, 1), (1, 3), (2, 2), (3, 2), (2, 3), (4, 4), (5, 3)]:
        dims = MachineDims(m, s, 6)
        raw = rng.standard_normal(dims.table_shape) + 1j * rng.standard_normal(dims.table_shape)
        _assert_tensors_match_loop(TransitionTable.from_tensor(dims, raw * compliant_slots(dims)))


def test_verify_nogo_worst_matches_the_vdot_loop():
    # includes tables where whole identities are exactly zero, which must
    # name no worst index
    tables = [right_shift_table(MachineDims(2, 2, 6)), _identity_halted_table(MachineDims(3, 2, 6))]
    tables += [
        random_compliant_table(MachineDims(m, 2, 6), np.random.default_rng([41, m, k]))
        for m in (1, 2, 3, 4, 5)
        for k in range(4)
    ]
    for table in tables:
        report = verify_nogo(table)
        expected, worst = nogo_residuals_by_loop(*halted_sector(table), *halting_candidates(table))
        assert report.worst == worst
        for name in RESIDUALS:
            assert (getattr(report, name) == 0.0) == (expected[name].max() == 0.0)


def test_verify_nogo_right_shift_all_zero():
    report = verify_nogo(right_shift_table(MachineDims(2, 2, 6)))
    assert report.max_residual == 0.0
    assert report.halting_mass == 0.0
    assert report.passed


def test_verify_nogo_requires_six_cells():
    with pytest.raises(MachineError):
        verify_nogo(right_shift_table(MachineDims(2, 2, 5)))


@pytest.mark.parametrize(
    "call, fragment",
    [
        pytest.param(lambda: random_compliant_table(MachineDims(2, 2, 2), np.random.default_rng(0)),
                     "the generator needs at least 3 tape cells", id="generator-cells"),
    ],
)
def test_input_checks(call, fragment):
    with pytest.raises(MachineError) as caught:
        call()
    assert type(caught.value) is MachineError
    assert fragment in str(caught.value)


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


def test_verify_nogo_fails_on_residuals_above_its_tol():
    # at the default tol the residual gate cannot fail once the unitarity
    # precondition passes: every residual is then at most ~3e-12.  A tol
    # between the mass and the rounding-level residuals shows it is applied
    table = random_compliant_table(MachineDims(2, 2, 6), np.random.default_rng(1))
    report = verify_nogo(table, tol=1e-20)
    assert report.halting_mass <= 1e-20 < report.max_residual
    assert not report.passed


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
    qplus, qminus = halted_sector(table)
    for xi in range(dims.S):
        vectors = [
            SparseState(
                [(("plus", q), qplus[xi, j, q]) for q in range(dims.M)]
                + [(("minus", q), qminus[xi, j, q]) for q in range(dims.M)]
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


@pytest.mark.parametrize(
    "fixture", sorted((FIXTURES / "generated").glob("random_M*_S*_seed*.json")),
    ids=lambda path: path.stem,
)
def test_generator_matches_its_recorded_tables(fixture):
    # each file is dumps_machine(random_compliant_table(dims, default_rng([seed, 99])));
    # compared entrywise, since QR and matmul bits vary with the BLAS kernel
    m, s, seed = map(int, re.fullmatch(r"random_M(\d+)_S(\d+)_seed(\d+)", fixture.stem).groups())
    recorded = load_machine(fixture)
    assert recorded.dims == MachineDims(m, s, 6)
    table = random_compliant_table(recorded.dims, np.random.default_rng([seed, 99]))
    assert np.max(np.abs(table.amplitudes - recorded.amplitudes)) <= 1e-12


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
