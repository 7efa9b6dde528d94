import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from phaselab.linalg import (
    LOGM_COND_MAX,
    RANK_TOL,
    BranchCutError,
    EigenbasisError,
    RankError,
    ShapeError,
    STACK_BYTES,
    expm,
    hermitian_part,
    logm_principal,
    nullspace,
    opnorm,
    span_frame,
    stack_runs,
    subspace_gap,
)
from phaselab.cones import make_structural, po_decompose, sample
from phaselab.relations import relation_from_span


def expm_series(X, terms=60):
    """Independent power-series oracle for the matrix exponential."""
    X = np.asarray(X, dtype=complex)
    out = np.eye(X.shape[0], dtype=complex)
    term = np.eye(X.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ X / k
        out = out + term
    return out


def random_complex(rng, shape, scale=1.0):
    return scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))


def test_expm_zero_and_diagonal():
    assert np.allclose(expm(np.zeros((2, 2))), np.eye(2), atol=1e-15)
    out = expm(np.diag([1.0, -1.0]))
    assert np.allclose(out, np.diag([np.e, 1 / np.e]), rtol=1e-14)


def test_expm_rotation_vs_series_oracle():
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    t = np.pi / 2
    expected = expm_series(t * J)
    assert np.linalg.norm(expm(t * J) - expected, 2) < 1e-12
    assert np.allclose(expm(t * J), [[0, 1], [-1, 0]], atol=1e-12)


def test_expm_nonsquare_rejected():
    with pytest.raises(ShapeError):
        expm(np.ones((2, 3)))


def test_expm_inverse_identity():
    rng = np.random.default_rng(1)
    for _ in range(10):
        X = random_complex(rng, (4, 4))
        X *= 5.0 / np.linalg.norm(X, 2)
        assert np.linalg.norm(expm(X) @ expm(-X) - np.eye(4), 2) < 1e-10


def test_expm_normal_matrix_matches_eigendecomposition():
    rng = np.random.default_rng(2)
    for _ in range(5):
        H = random_complex(rng, (5, 5))
        H = H + H.conj().T  # Hermitian, hence normal
        w, V = np.linalg.eigh(H)
        via_eig = V @ np.diag(np.exp(w)) @ V.conj().T
        rel = np.linalg.norm(expm(H) - via_eig, 2) / np.linalg.norm(via_eig, 2)
        assert rel < 1e-12


def test_logm_trivial_cases():
    assert np.linalg.norm(logm_principal(np.eye(3))) < 1e-14
    out = logm_principal(np.diag([np.e**2, np.e**-2]))
    assert np.allclose(out, np.diag([2.0, -2.0]), atol=1e-12)


def test_logm_roundtrip_generated():
    rng = np.random.default_rng(3)
    for _ in range(10):
        S = random_complex(rng, (4, 4))
        S *= 0.9 / np.linalg.norm(S, 2)  # spectrum inside the unit disc
        M = expm(S)
        resid = np.linalg.norm(expm(logm_principal(M)) - M, 2) / np.linalg.norm(M, 2)
        assert resid < 1e-9


def test_logm_of_expm_identity_in_strip():
    rng = np.random.default_rng(4)
    for _ in range(10):
        X = random_complex(rng, (4, 4))
        X *= 2.0 / np.linalg.norm(X, 2)  # |Im eigenvalue| <= 2 < pi - 0.1
        assert np.linalg.norm(logm_principal(expm(X)) - X, 2) < 1e-9


def test_logm_branch_cut_error_carries_eigenvalue():
    with pytest.raises(BranchCutError) as err:
        logm_principal(np.diag([-1.0, 2.0]))
    assert abs(err.value.eigenvalue - (-1.0)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 0.4),
    st.floats(0.0, 2.5),
)
def test_logm_matches_scipy_reference(n, seed, skew, arg_max):
    # diagonalizable M = V diag(w) V^{-1}, with V a bounded perturbation of
    # the identity and w off the branch cut; scipy's Schur-Pade logm is
    # the reference
    rng = np.random.default_rng(seed)
    V = np.eye(n) + skew * random_complex(rng, (n, n)) / np.sqrt(n)
    w = rng.uniform(0.1, 10.0, n) * np.exp(1j * rng.uniform(-arg_max, arg_max, n))
    M = (V * w) @ np.linalg.inv(V)
    # scipy's norm estimator divides by zero on (near-)diagonal M and warns;
    # a NaN in its result would still fail the comparison
    with np.errstate(all="ignore"):
        ref = scipy.linalg.logm(M)
    assert np.linalg.norm(logm_principal(M) - ref, 2) <= 1e-12 * max(1.0, np.linalg.norm(ref, 2))


def test_logm_defective_input_raises():
    # a Jordan block has no eigenbasis: LAPACK returns two nearly parallel
    # eigenvectors, cond(V) about 9e15
    with pytest.raises(EigenbasisError) as err:
        logm_principal(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert err.value.cond > LOGM_COND_MAX


def test_span_frame_examples():
    f = span_frame(np.array([[2.0], [0.0]]))
    assert np.allclose(np.abs(f), [[1.0], [0.0]], atol=1e-14)
    # rank deficiency drops a column here; relation_from_span and graph_of
    # raise RankError on it (tests/test_relations.py)
    assert span_frame(np.array([[1.0, 1.0], [2.0, 2.0]])).shape == (2, 1)


def test_span_frame_random():
    rng = np.random.default_rng(5)
    A = random_complex(rng, (8, 4))
    f = span_frame(A)
    assert np.linalg.norm(f.conj().T @ f - np.eye(4), 2) < 1e-12
    assert subspace_gap(f, span_frame(A @ random_complex(rng, (4, 4)))) < 1e-12


def test_subspace_gap_examples():
    e1 = np.array([[1.0], [0.0]], dtype=complex)
    e2 = np.array([[0.0], [1.0]], dtype=complex)
    assert subspace_gap(e1, e1) == 0.0
    # 2x2 projector oracle: diag(1,0) - diag(0,1) has operator norm 1
    oracle = np.linalg.norm(e1 @ e1.conj().T - e2 @ e2.conj().T, 2)
    assert abs(subspace_gap(e1, e2) - oracle) < 1e-15
    assert abs(oracle - 1.0) < 1e-15


def test_subspace_gap_frame_invariance_and_pseudometric():
    rng = np.random.default_rng(6)
    A = span_frame(random_complex(rng, (6, 3)))
    U, _ = np.linalg.qr(random_complex(rng, (3, 3)))
    assert subspace_gap(A, span_frame(A @ U)) < 1e-13
    for _ in range(20):
        P = span_frame(random_complex(rng, (6, 3)))
        Q = span_frame(random_complex(rng, (6, 3)))
        R = span_frame(random_complex(rng, (6, 3)))
        assert subspace_gap(P, Q) == subspace_gap(Q, P)
        assert subspace_gap(P, R) <= subspace_gap(P, Q) + subspace_gap(Q, R) + 1e-12
        assert -1e-15 <= subspace_gap(P, Q) <= 1.0 + 1e-12


def test_subspace_gap_shape_mismatch():
    with pytest.raises(ShapeError):
        subspace_gap(np.eye(4)[:, :2], np.eye(6)[:, :2])


def test_nullspace_and_span_frame():
    rng = np.random.default_rng(7)
    M = random_complex(rng, (3, 6))
    N = nullspace(M)
    assert N.shape[1] == 3
    assert np.linalg.norm(M @ N, 2) < 1e-12
    assert span_frame(np.zeros((4, 2))).shape[1] == 0


@pytest.mark.parametrize("factor, rank", [(1.01, 2), (0.99, 1)], ids=["above", "below"])
def test_rank_boundary_is_shared(factor, rank):
    # singular values 1 and just above or below RANK_TOL, in a rotated 4 x 2
    # matrix: span_frame, nullspace and relation_from_span draw one line
    rng = np.random.default_rng(11)
    U, _ = np.linalg.qr(random_complex(rng, (4, 2)))
    V, _ = np.linalg.qr(random_complex(rng, (2, 2)))
    M = U @ np.diag([1.0, factor * RANK_TOL]) @ V.conj().T
    assert span_frame(M).shape[1] == rank
    assert nullspace(M).shape[1] == 2 - rank
    if rank == 2:
        assert relation_from_span(M).shape == (4, 2)
    else:
        with pytest.raises(RankError):
            relation_from_span(M)


def test_opnorm_is_the_spectral_norm_bit_for_bit():
    rng = np.random.default_rng(5)
    for shape in ((3, 3), (1, 4, 4), (6, 4, 4), (2, 3, 5, 2)):
        for M in (rng.normal(size=shape), rng.normal(size=shape) + 1j * rng.normal(size=shape)):
            flat = M.reshape(-1, *shape[-2:])
            want = np.array([np.linalg.norm(m, 2) for m in flat]).reshape(shape[:-2])
            assert np.array_equal(opnorm(M), want)


def test_stacked_kernels_equal_the_loop_over_their_matrices():
    # the norms spread over five decades, so expm picks several Pade orders
    # and scalings within one stack
    rng = np.random.default_rng(6)
    X = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
    X *= np.array([1e-3, 0.1, 0.7, 3.0, 20.0, 90.0])[:, None, None]
    for stack in (X, X[:1]):
        assert np.array_equal(expm(stack), np.stack([expm(x) for x in stack]))
        assert np.array_equal(hermitian_part(stack), np.stack([hermitian_part(x) for x in stack]))
    P = np.linalg.qr(rng.normal(size=(5, 8, 4)) + 1j * rng.normal(size=(5, 8, 4)))[0]
    Q = np.linalg.qr(rng.normal(size=(5, 8, 4)) + 1j * rng.normal(size=(5, 8, 4)))[0]
    for p, q in ((P, Q), (P[:1], Q[:1])):
        assert np.array_equal(subspace_gap(p, q), [subspace_gap(a, b) for a, b in zip(p, q)])
    # one frame against a stack, as graph_limit_gaps measures its sweep
    assert np.array_equal(subspace_gap(P, Q[0]), [subspace_gap(a, Q[0]) for a in P])
    assert isinstance(subspace_gap(P[0], Q[0]), float)
    # spectral radii up to 3 < pi keep every eigenvalue of e^X off the cut
    Y = X[:5] / opnorm(X[:5])[:, None, None] * np.array([1e-3, 0.1, 0.7, 2.0, 3.0])[:, None, None]
    M = expm(Y)
    for stack in (M, M[:1]):
        assert np.array_equal(logm_principal(stack), np.stack([logm_principal(x) for x in stack]))
    # the Potapov-Olshanski factors of a stack, through the logarithm
    S = make_structural(2)
    g = sample("GammaSp_c", 2, 0.5, range(6))
    for stack in (g, g[:1]):
        h, Xg = po_decompose(stack, S)
        pairs = [po_decompose(x, S) for x in stack]
        assert np.array_equal(h, np.stack([a for a, _ in pairs]))
        assert np.array_equal(Xg, np.stack([b for _, b in pairs]))


def test_stack_runs_cut_a_sweep_in_order():
    assert list(stack_runs(0, 8)) == []
    assert list(stack_runs(5, 8)) == [slice(0, 5)]
    assert list(stack_runs(5, STACK_BYTES // 2)) == [slice(0, 2), slice(2, 4), slice(4, 5)]
    # an item past the budget is a stack of its own
    assert list(stack_runs(3, 2 * STACK_BYTES)) == [slice(0, 1), slice(1, 2), slice(2, 3)]
