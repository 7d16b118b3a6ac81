"""Sparse vector engine: inner products, Gram matrices, reduced density."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from haltlab.hilbert import (
    DensityMatrix,
    HilbertError,
    SparseState,
    reduced_density,
    sum_of_squares,
)
from oracles import gram, inner_product, normalized, reduced_density_by_loop, scaled

INV_SQRT2 = 2**-0.5


def test_inner_product_of_normalized_state_is_one():
    x = SparseState({"a": INV_SQRT2, "b": INV_SQRT2 * 1j})
    val = inner_product(x, x)
    assert val.imag == 0.0
    assert val.real == pytest.approx(1.0, abs=1e-15)


def test_inner_product_disjoint_support_is_zero():
    x = SparseState({"a": 1.0})
    y = SparseState({"b": 1.0})
    assert inner_product(x, y) == 0j


def test_inner_product_hadamard_pair_is_zero():
    x = SparseState({"a": INV_SQRT2, "b": INV_SQRT2})
    y = SparseState({"a": INV_SQRT2, "b": -INV_SQRT2})
    assert abs(inner_product(x, y)) < 1e-16


def test_inner_product_sesquilinear():
    x = SparseState({1: 0.3 + 0.4j, 2: -0.5j})
    y = SparseState({1: 1.0, 2: 0.2 - 0.1j})
    a, b = 0.7 - 0.2j, -1.1 + 0.4j
    lhs = inner_product(scaled(x, a), scaled(y, b))
    rhs = a.conjugate() * b * inner_product(x, y)
    assert abs(lhs - rhs) < 1e-14


def test_sparse_state_accumulates_and_prunes():
    s = SparseState([("a", 0.5), ("a", -0.5), ("b", 1e-16), ("c", 2.0)])
    assert s.labels() == ["c"]
    assert s.amplitude("a") == 0j


def test_sparse_state_rejects_non_finite():
    with pytest.raises(HilbertError):
        SparseState({"a": complex("nan")})
    with pytest.raises(HilbertError):
        SparseState({"a": complex("inf")})


def test_normalize_zero_state_fails():
    with pytest.raises(HilbertError):
        normalized(SparseState())


def test_gram_of_orthonormal_basis_is_identity():
    basis = [SparseState.basis(i) for i in range(3)]
    g = gram(basis)
    assert np.max(np.abs(g - np.eye(3))) == 0.0


def test_gram_of_repeated_unit_vector_is_all_ones():
    v = SparseState({"x": INV_SQRT2, "y": INV_SQRT2})
    g = gram([v, v])
    assert np.max(np.abs(g - np.ones((2, 2)))) < 1e-15


def test_gram_requires_nonempty_list():
    with pytest.raises(HilbertError):
        gram([])


def _split_pair(label):
    return label[0], label[1:]


def test_reduced_density_product_state_is_pure():
    state = SparseState({("c", "e"): 1.0})
    rho = reduced_density(state)
    assert rho.labels == ("c",)
    assert rho.matrix[0, 0] == pytest.approx(1.0)


def test_reduced_density_orthogonal_environments_decohere():
    state = SparseState({("c1", "e1"): INV_SQRT2, ("c2", "e2"): INV_SQRT2})
    rho = reduced_density(state)
    mat = rho.matrix
    assert mat[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert mat[1, 1] == pytest.approx(0.5, abs=1e-15)
    assert abs(mat[0, 1]) == 0.0


def test_reduced_density_shared_environment_keeps_coherence():
    state = SparseState({("c1", "e"): INV_SQRT2, ("c2", "e"): INV_SQRT2})
    rho = reduced_density(state)
    assert rho.entry("c1", "c2") == pytest.approx(0.5, abs=1e-15)


def test_reduced_density_identity_projection_gives_projector():
    state = SparseState({("a",): 0.6, ("b",): 0.8j})
    rho = reduced_density(state)
    vec = np.array([0.6, 0.8j])
    assert np.max(np.abs(rho.matrix - np.outer(vec, vec.conj()))) < 1e-15


def test_reduced_density_rejects_zero_state():
    with pytest.raises(HilbertError):
        reduced_density(SparseState())


def test_reduced_density_trace_matches_squared_norm_unnormalized():
    state = SparseState({("c1", "e1"): 1.5, ("c2", "e2"): -2.0j, ("c1", "e3"): 0.25})
    rho = reduced_density(state)
    assert rho.trace == pytest.approx(state.norm_squared(), abs=1e-12)


def test_reduced_density_is_returned_again_only_for_the_same_state_and_projection():
    state = SparseState({("c1", "e1"): INV_SQRT2, ("c2", "e2"): INV_SQRT2})
    rho = reduced_density(state)
    assert reduced_density(state) is rho
    copy = SparseState(state.items())
    again = reduced_density(copy)
    assert again is not rho
    assert again.labels == rho.labels
    assert again.matrix.tobytes() == rho.matrix.tobytes()


def test_density_matrix_rejects_non_hermitian():
    with pytest.raises(HilbertError):
        DensityMatrix(("a", "b"), np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_density_matrix_rejects_negative():
    with pytest.raises(HilbertError):
        DensityMatrix(("a", "b"), np.array([[1.0, 0.0], [0.0, -1e-6]]))


def test_density_matrix_keeps_its_own_copy_of_the_input():
    base = np.diag([0.5, 0.5]).astype(complex)
    whole = DensityMatrix(("a", "b"), base)
    view = DensityMatrix(("a", "b"), base[:, :])
    assert base.flags.writeable  # the caller's array is not frozen
    base[0, 1] = 5
    base[1, 1] = -3
    for rho in (whole, view):
        assert rho.trace == 1.0
        assert rho.matrix.tobytes() == np.diag([0.5, 0.5]).astype(complex).tobytes()
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 2


PSD_TOL = DensityMatrix.PSD_TOL


def _hermitian(n, eigenvalues, seed):
    """Q diag(eigenvalues) Q* for a random unitary Q, exactly Hermitian."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    mat = (q * np.asarray(eigenvalues)) @ q.conj().T
    return (mat + mat.conj().T) / 2


def _eigvalsh_calls(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(mat, *args, **kwargs):
        calls.append(mat.shape)
        return eigvalsh(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def _psd_verdict(mat):
    """None when DensityMatrix accepts ``mat``, else its error text."""
    try:
        DensityMatrix(range(mat.shape[0]), mat)
    except HilbertError as exc:
        return str(exc)
    return None


def _eigvalsh_verdict(mat):
    eigmin = float(np.linalg.eigvalsh(mat).min())
    return None if eigmin >= -PSD_TOL else f"density matrix not PSD: min eigenvalue {eigmin:.3e}"


@given(
    n=st.integers(1, 40),
    lam_min=st.floats(-3.0, 3.0).map(lambda f: f * PSD_TOL),
    low_rank=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_psd_verdict_equals_eigvalsh(n, lam_min, low_rank, seed):
    """Full rank: one eigenvalue at lam_min, the others in [0.01, 1].
    Rank-deficient: up to all eigenvalues at lam_min, so the matrix is
    singular to within a few PSD_TOL."""
    rng = np.random.default_rng(seed)
    eigenvalues = rng.uniform(0.01, 1.0, size=n)
    eigenvalues[: rng.integers(1, n + 1) if low_rank else 1] = lam_min
    mat = _hermitian(n, eigenvalues, seed)
    assert _psd_verdict(mat) == _eigvalsh_verdict(mat)


@pytest.mark.parametrize(
    "factor, accepted, eigvalsh_calls",
    [
        pytest.param(-0.4, True, 0, id="cholesky-accepts"),
        pytest.param(-0.6, True, 1, id="eigvalsh-accepts"),
        pytest.param(-1.01, False, 1, id="just-past-the-tolerance"),
        pytest.param(-1.5, False, 1, id="past-the-shift-and-the-tolerance"),
    ],
)
def test_psd_check_near_the_tolerance(monkeypatch, factor, accepted, eigvalsh_calls):
    """The Cholesky route takes only what it can prove; the shift of
    PSD_TOL/2 leaves lambda_min = -0.6·PSD_TOL to eigvalsh."""
    mat = _hermitian(8, [factor * PSD_TOL] + [0.1 * k for k in range(1, 8)], seed=5)
    expected = _eigvalsh_verdict(mat)
    calls = _eigvalsh_calls(monkeypatch)
    verdict = _psd_verdict(mat)
    assert (verdict is None) == accepted
    assert verdict == expected
    assert len(calls) == eigvalsh_calls


def test_psd_check_outside_the_scale_guard_asks_eigvalsh(monkeypatch):
    """A large trace makes the Cholesky backward error too coarse to
    prove anything at PSD_TOL, though the factorization would succeed."""
    mat = _hermitian(8, [1e6 * k for k in range(1, 9)], seed=6)
    calls = _eigvalsh_calls(monkeypatch)
    assert _psd_verdict(mat) is None
    assert len(calls) == 1


# -- property tests ---------------------------------------------------------

amplitudes = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=3.0, allow_nan=False, allow_infinity=False
)
states = st.dictionaries(st.integers(0, 12), amplitudes, min_size=1, max_size=8).map(SparseState)


@given(states, states)
@settings(max_examples=200)
def test_cauchy_schwarz(x, y):
    lhs = abs(inner_product(x, y)) ** 2
    rhs = x.norm_squared() * y.norm_squared()
    assert lhs <= rhs * (1 + 1e-12) + 1e-12


@given(st.lists(states, min_size=1, max_size=5))
@settings(max_examples=100)
def test_gram_is_hermitian_psd(vectors):
    g = gram(vectors)
    assert np.max(np.abs(g - g.conj().T)) < 1e-12
    assert np.linalg.eigvalsh(g).min() >= -1e-10


@given(states)
@settings(max_examples=100)
def test_norm_matches_self_inner_product(x):
    ip = inner_product(x, x)
    assert abs(ip.imag) < 1e-12
    assert math.isclose(ip.real, x.norm_squared(), rel_tol=1e-12, abs_tol=1e-12)


@given(
    st.dictionaries(
        st.text(max_size=3),
        st.complex_numbers(max_magnitude=1e150, allow_nan=False, allow_infinity=False),
        max_size=12,
    )
)
@settings(max_examples=200)
def test_norm_squared_equals_sorted_fsum_bit_for_bit(entries):
    state = SparseState(entries)
    in_label_order = math.fsum(abs(a) ** 2 for _, a in state.items())
    assert state.norm_squared().hex() == in_label_order.hex()


# (subsystem, environment) labels from small ranges, so entries share an
# environment and one subsystem label sits under several environments;
# parts include signed zeros, kept as drawn by building the state unchecked
_parts = st.sampled_from([0.0, -0.0]) | st.floats(-2.0, 2.0, allow_nan=False)
_signed_amplitudes = (
    st.tuples(_parts, _parts).map(lambda p: complex(*p)).filter(lambda a: abs(a) > 1e-3)
)
split_states = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), _signed_amplitudes, min_size=1, max_size=12
).map(SparseState._adopt)


@given(split_states)
# subsystem 1 sits under environments 0, 1 and 2, but environment 2 is met
# first in label order; summing in that order changes the last bit of rho[1, 1]
@example(
    SparseState._adopt(
        {(0, 2): complex(-0.0, 0.5), (1, 0): 0.66 + 0.34j, (1, 1): -0.39 + 0.18j,
         (1, 2): 0.76 + 0.69j}
    )
)
@settings(max_examples=300)
def test_reduced_density_bits_equal_the_loop(state):
    labels, expected = reduced_density_by_loop(state, _split_pair)
    rho = reduced_density(state)
    assert rho.labels == tuple(labels)
    assert rho.matrix.tobytes() == expected.tobytes()


def test_sum_of_squares_overflows_to_inf():
    assert sum_of_squares([1e200]) == math.inf
    assert sum_of_squares([1.3e154, 1.3e154j]) == math.inf  # each square fits, the sum does not
    assert sum_of_squares([3.0, 4j]) == 25.0


@pytest.mark.parametrize(
    "labels, matrix, fragment",
    [
        pytest.param(("a",), np.eye(2), "matrix shape (2, 2) does not match 1 labels", id="shape"),
        pytest.param(("a", "b"), np.array([[1.0, 0.0], [0.0, math.nan]]),
                     "non-finite density matrix entry", id="non-finite"),
    ],
)
def test_input_checks(labels, matrix, fragment):
    with pytest.raises(HilbertError) as caught:
        DensityMatrix(labels, matrix)
    assert type(caught.value) is HilbertError
    assert fragment in str(caught.value)
