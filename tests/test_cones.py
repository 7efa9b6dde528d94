import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phaselab.cones import (
    PREDICATES,
    SAMPLE_KINDS,
    HamiltonianSymbol,
    MembershipError,
    cayley,
    classify,
    hamiltonian_real_values,
    hat_lift,
    make_structural,
    po_decompose,
    sample,
    spc_residual,
)
from phaselab.linalg import EQ_TOL, PSD_TOL, BranchCutError, ShapeError, expm
from phaselab.relations import limit_graph, make_Nb
from reference import hamiltonian_value, herm_form, split_diss


def test_structural_matrices():
    for n in (1, 2, 3):
        S = make_structural(n)
        I2n = np.eye(2 * n)
        assert np.linalg.norm(S.J.T + S.J) == 0
        assert np.linalg.norm(S.J @ S.J + I2n) == 0
        assert np.linalg.norm(S.W @ S.W.conj().T - I2n, 2) < 1e-14
        Jc = S.W @ S.J @ S.W.conj().T
        target = np.diag(np.concatenate([-1j * np.ones(n), 1j * np.ones(n)]))
        assert np.linalg.norm(Jc - target, 2) < 1e-14
        assert np.linalg.norm(S.Ical - (-1j) * Jc, 2) < 1e-14
        assert np.linalg.norm(S.Ical @ S.Ical - I2n, 2) < 1e-15


def test_make_structural_rejects_zero():
    with pytest.raises(ValueError):
        make_structural(0)


def test_cayley_examples():
    S = make_structural(2)
    Jc = cayley(S.J)
    assert np.linalg.norm(Jc - np.diag([-1j, -1j, 1j, 1j]), 2) < 1e-14
    assert np.linalg.norm(cayley(np.eye(4)) - np.eye(4), 2) < 1e-14
    rng = np.random.default_rng(0)
    for _ in range(5):
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        B = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        lhs = cayley(A @ B)
        rhs = cayley(A) @ cayley(B)
        assert np.linalg.norm(lhs - rhs, 2) < 1e-12 * np.linalg.norm(lhs, 2)


def test_herm_form():
    e1, e2 = np.eye(2)
    assert herm_form(e1, e1) == -1.0
    assert herm_form(e2, e2) == 1.0
    rng = np.random.default_rng(1)
    for _ in range(10):
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert abs(herm_form(u, v) - np.conj(herm_form(v, u))) < 1e-14


def test_classify_examples():
    S1 = make_structural(1)
    assert _reference_flag(S1.J, "Sp_R")

    M = np.array([[0.7j, 0.3 + 0.2j], [0.3 - 0.2j, -0.7j]])
    assert classify(M, "sp_c").flag

    # the one-parameter contraction family of the worked 2x2 example
    X = np.diag([1.0, -1.0]).astype(complex)
    for t in (0.5, 1.0, 3.0):
        assert classify(expm(t * X), "GammaSp_c").flag
    assert _reference_flag(X, "SDiss")

    # +N_b is the dissipative multiple of the doubled number matrix;
    # -N_b is accretive (the sign the worked displays carry is flipped)
    Nb = make_Nb(1)
    assert classify(Nb, "SDiss_spc").flag
    assert not classify(-Nb, "SDiss_spc").flag
    assert _reference_flag(Nb, "Diss_spc")


def _eager_classify(M, S):
    # every residual up front, by the formulas classify evaluates per
    # predicate, and the verdicts of the predicates classify does not offer
    # (Sp_R, Sp_C, sp_R, sp_C, u, SDiss, Diss_spc) by the same formulas
    M = np.asarray(M, dtype=complex)
    J, Ical = S.J, S.Ical

    def norm(A):
        return float(np.linalg.norm(A, 2))

    realness = norm(M.imag)
    sp_grp = norm(M.T @ J @ M - J)
    sp_alg = norm(J @ M + M.T @ J)
    spc = spc_residual(M)
    u_grp = norm(M.conj().T @ Ical @ M - Ical)
    u_alg = norm(Ical @ M + M.conj().T @ Ical)
    iu_alg = norm(Ical @ M - M.conj().T @ Ical)
    ispc = spc_residual(-1j * M)
    herm = Ical - M.conj().T @ Ical @ M
    gamma_u = max(-float(np.linalg.eigvalsh((herm + herm.conj().T) / 2).min()), 0.0)
    IM = Ical @ M
    top = float(np.linalg.eigvalsh((IM + IM.conj().T) / 2).max())
    diss = max(top * 2, 0.0)
    icalM_top = max(top, 0.0)
    eq, psd = EQ_TOL, PSD_TOL
    return {
        "Sp_R": (sp_grp <= eq and realness <= eq, max(sp_grp, realness)),
        "Sp_C": (sp_grp <= eq, sp_grp),
        "sp_R": (sp_alg <= eq and realness <= eq, max(sp_alg, realness)),
        "sp_C": (sp_alg <= eq, sp_alg),
        "sp_c": (spc <= eq, spc),
        "U": (u_grp <= eq, u_grp),
        "u": (u_alg <= eq, u_alg),
        "GammaU": (gamma_u <= psd, gamma_u),
        "GammaSp_c": (gamma_u <= psd and sp_grp <= eq, max(gamma_u, sp_grp)),
        "Diss": (diss <= psd, diss),
        "SDiss": (iu_alg <= eq and icalM_top <= psd, max(iu_alg, icalM_top)),
        "Diss_spc": (sp_alg <= eq and diss <= psd, max(sp_alg, diss)),
        "SDiss_spc": (ispc <= eq and icalM_top <= psd, max(ispc, icalM_top)),
    }


def _reference_flag(M, predicate):
    M = np.asarray(M, dtype=complex)
    return _eager_classify(M, make_structural(M.shape[0] // 2))[predicate][0]


def _bits(flag, residual):
    # float.hex tells -0.0 from 0.0, which == does not
    return bool(flag), float(residual).hex()


def test_classify_matches_eager_reference():
    for n in (1, 2, 3):
        S = make_structural(n)
        for i, kind in enumerate(SAMPLE_KINDS):
            M = sample(kind, n, 0.7, 40 + i)
            ref = {k: _bits(*v) for k, v in _eager_classify(M, S).items()}
            assert set(PREDICATES) <= set(ref)
            for key in PREDICATES:
                got = classify(M, key)
                assert _bits(got.flag, got.residual) == ref[key], (n, kind, key)


def test_classify_rejects_unknown_predicate():
    S = make_structural(1)
    with pytest.raises(ValueError) as err:
        classify(S.J, "Sp")
    for key in PREDICATES:
        assert repr(key) in str(err.value)


def test_make_structural_is_shared_and_read_only():
    for n in (1, 2, 3):
        S = make_structural(n)
        assert make_structural(n) is S
        for A in (S.J, S.W, S.Ical):
            assert not A.flags.writeable
            with pytest.raises(ValueError):
                A[0, 0] = 2.0


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.floats(0.1, 1.0), st.integers(0, 2**31 - 1))
def test_classify_group_inclusions(n, scale, seed):
    # Sp_c(2n,R) = U(n,n) intersect Sp(2n,C)
    g = sample("Sp_c", n, scale, seed)
    assert classify(g, "U").flag and _reference_flag(g, "Sp_C")


def test_classify_sdiss_chain_consistency():
    # the two-clause definition (in i.u(n,n) and Ical X <= 0) agrees with the
    # form-negativity condition Re<v|Xv> <= 0 plus realness of the form
    rng = np.random.default_rng(3)
    for i in range(20):
        X = sample("SDiss", 2, 1.0, i)
        assert _reference_flag(X, "SDiss") and classify(X, "Diss").flag
        assert _reference_flag(X, "u") is False
        for _ in range(20):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            val = herm_form(v, X @ v)
            assert abs(val.imag) < 1e-10 * np.linalg.norm(v) ** 2
            assert val.real <= 1e-10 * np.linalg.norm(v) ** 2


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.floats(0.1, 1.0), st.integers(0, 2**31 - 1))
def test_sample_kinds_pass_their_flags(n, scale, seed):
    key = {
        "sp_c": "sp_c", "u": "u", "Sp_c": "GammaSp_c", "U": "U", "SDiss": "SDiss",
        "SDiss_spc": "SDiss_spc", "Diss": "Diss", "GammaU": "GammaU", "GammaSp_c": "GammaSp_c",
    }
    for kind in SAMPLE_KINDS:
        M = sample(kind, n, scale, seed)
        # u and SDiss have no classify predicate; the reference decides them
        flag = classify(M, key[kind]).flag if key[kind] in PREDICATES else _reference_flag(M, key[kind])
        assert flag, kind


def test_sample_deterministic_and_validated():
    a = sample("sp_c", 1, 0.5, 11)
    b = sample("sp_c", 1, 0.5, 11)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        sample("nonsense", 1, 1.0, 0)
    with pytest.raises(ValueError):
        sample("sp_c", 1, -1.0, 0)


def test_split_diss():
    # pure u(n,n) element: self-adjoint part vanishes
    Xu = sample("u", 2, 0.5, 7)
    xu, xs = split_diss(Xu)
    assert np.linalg.norm(xs, 2) < 1e-12

    # the doubled number matrix is Ical-self-adjoint: skew part vanishes
    Nb = make_Nb(1)
    xu, xs = split_diss(Nb)
    assert np.linalg.norm(xu, 2) < 1e-14
    assert np.linalg.norm(xs - Nb, 2) < 1e-14

    for i in range(10):
        X = sample("Diss", 2, 1.0, i)
        xu, xs = split_diss(X)
        assert np.linalg.norm(xu + xs - X, 2) < 1e-12
        assert _reference_flag(xu, "u") and _reference_flag(xs, "SDiss")

    with pytest.raises(MembershipError):
        split_diss(make_structural(2).Ical)  # strictly accretive


def test_po_decompose_trivial_and_boundary():
    S = make_structural(2)
    h0 = sample("Sp_c", 2, 0.7, 3)
    h, X = po_decompose(h0, S)
    assert np.linalg.norm(X, 2) < 1e-9
    assert np.linalg.norm(h - h0, 2) < 1e-9

    # Ical-self-adjoint generator: h = identity, X recovered exactly
    X0 = make_Nb(1)
    h, X = po_decompose(expm(X0), S)
    assert np.linalg.norm(h - np.eye(4), 2) < 1e-9
    assert np.linalg.norm(X - X0, 2) < 1e-9


def test_po_decompose_generate_recover_and_continuity():
    S = make_structural(2)
    rng = np.random.default_rng(9)
    for i in range(20):
        h0 = sample("Sp_c", 2, float(rng.uniform(0.2, 1.0)), 50 + 2 * i)
        X0 = sample("SDiss_spc", 2, float(rng.uniform(0.1, 1.0)), 51 + 2 * i)
        g = h0 @ expm(X0)
        h, X = po_decompose(g, S)
        assert np.linalg.norm(h @ expm(X) - g, 2) < 1e-9 * np.linalg.norm(g, 2)
        assert np.linalg.norm(X - X0, 2) < 1e-7
        # determinism / uniqueness: a second run agrees
        _, X2 = po_decompose(g, S)
        assert np.linalg.norm(X2 - X, 2) < 1e-9
    # continuity smoke test
    g = sample("Sp_c", 2, 0.5, 1) @ expm(sample("SDiss_spc", 2, 0.5, 2))
    gp = g @ expm(1e-6 * sample("sp_c", 2, 1.0, 3))
    (_, X1), (_, X2) = po_decompose(g, S), po_decompose(gp, S)
    assert np.linalg.norm(X1 - X2, 2) < 1e-4


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 2, 3]),
    st.integers(0, 2**31 - 1),
    st.floats(0.2, 1.0),
    st.floats(0.1, 1.0),
)
def test_po_decompose_roundtrip_property(n, seed, h_scale, x_scale):
    # generate g = h0 e^{X0} as the decompose experiment does; the factors
    # come back within its reconstruction and recovery tolerances
    # (1e-9 relative, 1e-7)
    S = make_structural(n)
    h0 = sample("Sp_c", n, h_scale, seed)
    X0 = sample("SDiss_spc", n, x_scale, seed + 1)
    g = h0 @ expm(X0)
    h, X = po_decompose(g, S)
    assert np.linalg.norm(h @ expm(X) - g, 2) <= 1e-9 * np.linalg.norm(g, 2)
    assert np.linalg.norm(X - X0, 2) <= 1e-7


def test_po_decompose_rejects_non_members():
    S = make_structural(2)
    with pytest.raises(MembershipError):
        po_decompose(2.0 * np.eye(4), S)
    # boundary-of-cone exponent with a kernel direction still decomposes
    # (spectrum of M touches 1, not 0); a genuinely expanding element fails
    with pytest.raises((MembershipError, BranchCutError)):
        po_decompose(expm(-make_Nb(1)), S)


def test_hamiltonian_value():
    A0 = HamiltonianSymbol(1, np.zeros((2, 2)))
    assert hamiltonian_value(A0, [1.23 + 0.5j]) == 0

    sym = HamiltonianSymbol(1, np.diag([1j, -1j]))
    assert abs(hamiltonian_value(sym, [1.0]) - (-1j)) < 1e-14
    rng = np.random.default_rng(11)
    for i in range(1000):
        symr = HamiltonianSymbol(1, sample("sp_c", 1, 1.0, i))
        z = rng.normal(size=1) + 1j * rng.normal(size=1)
        val = hamiltonian_value(symr, z)
        assert abs(val.real) < 1e-12 * max(1.0, abs(val))


def test_hamiltonian_additivity_and_real_values():
    rng = np.random.default_rng(13)
    for i in range(20):
        A = sample("sp_c", 1, 1.0, 2 * i)
        B = sample("sp_c", 1, 1.0, 2 * i + 1)
        z = rng.normal(size=1) + 1j * rng.normal(size=1)
        lhs = hamiltonian_value(HamiltonianSymbol(1, A + B), z)
        rhs = hamiltonian_value(HamiltonianSymbol(1, A), z) + hamiltonian_value(
            HamiltonianSymbol(1, B), z
        )
        assert abs(lhs - rhs) < 1e-13 * max(1.0, abs(lhs))
        # the vectorized real evaluator agrees with i * pointwise values
        pts = np.concatenate([z.real, z.imag])[None, :]
        rv = hamiltonian_real_values(HamiltonianSymbol(1, A), pts)[0]
        direct = 1j * hamiltonian_value(HamiltonianSymbol(1, A), z)
        assert abs(rv - direct.real) < 1e-12 * max(1.0, abs(rv))


def test_hat_lift():
    assert np.linalg.norm(hat_lift(HamiltonianSymbol(1, np.zeros((2, 2))))) == 0
    for i in range(100):
        sym = HamiltonianSymbol(1, sample("sp_c", 1, 1.0, i))
        lifted = hat_lift(sym)
        assert lifted.shape == (4, 4)
        assert spc_residual(lifted) < 1e-12


def test_hamiltonian_symbol_validates():
    with pytest.raises(MembershipError):
        HamiltonianSymbol(1, np.array([[1.0, 0.0], [0.0, 1.0]]))
    # one mode pair: A is 2 x 2, an sp_c(4, R) generator included
    for A in (sample("sp_c", 2, 1.0, 1), np.zeros((1, 2))):
        with pytest.raises(ShapeError, match=r"expected shape \(2, 2\)"):
            HamiltonianSymbol(1, A)


def test_spc_gates_use_the_equality_tolerance():
    # an sp_c residual of about 1e-9 is over EQ_TOL, so both sp_c gates reject
    A = sample("sp_c", 1, 1.0, 3)
    A[0, 0] += 4e-10  # A + A* moves by twice that
    assert EQ_TOL < spc_residual(A) < 1e-9
    with pytest.raises(MembershipError):
        HamiltonianSymbol(1, A)
    # limit_graph's gate at m = 1 (a lifted symbol) and m = 2 (8 x 8)
    for lifted in (hat_lift(HamiltonianSymbol(1, sample("sp_c", 1, 1.0, 3))), sample("sp_c", 4, 1.0, 3)):
        lifted[0, 0] += 4e-10
        assert EQ_TOL < spc_residual(lifted) < 1e-9
        with pytest.raises(MembershipError):
            limit_graph(lifted)


@pytest.mark.parametrize("kind", SAMPLE_KINDS)
def test_seed_sequence_draws_each_seed_as_alone(kind):
    # a seed's matrix in a stack is bitwise the one it draws alone, with one
    # scale for all seeds or one per seed
    seeds = [5, 6, 11, 40]
    for n in (1, 2):
        for scale in (0.7, [0.2, 0.5, 0.9, 1.3]):
            scales = np.broadcast_to(scale, (len(seeds),))
            stack = sample(kind, n, scale, seeds)
            assert stack.shape == (len(seeds), 2 * n, 2 * n)
            for got, seed, s in zip(stack, seeds, scales):
                assert np.array_equal(got, sample(kind, n, float(s), seed))
        assert np.array_equal(sample(kind, n, 0.7, [9]), sample(kind, n, 0.7, 9)[None])
        assert np.array_equal(sample(kind, n, 0.7, range(3, 6)), sample(kind, n, 0.7, [3, 4, 5]))


def test_seed_sequence_refusals():
    with pytest.raises(ValueError, match="at least one seed"):
        sample("u", 1, 1.0, [])
    with pytest.raises(ValueError, match="positive"):
        sample("u", 1, [1.0, 0.0], [1, 2])


@pytest.mark.parametrize("predicate", sorted(PREDICATES))
def test_stacked_classify_equals_the_loop(predicate):
    # a draw of every kind, so that each predicate meets members and others
    stack = np.concatenate([sample(kind, 2, 0.5, [1, 2]) for kind in SAMPLE_KINDS])
    for mats in (stack, stack[:1]):
        got = classify(mats, predicate)
        alone = [classify(M, predicate) for M in mats]
        assert np.array_equal(got.flag, [m.flag for m in alone])
        assert np.array_equal(got.residual, [m.residual for m in alone])
    one = classify(stack[0], predicate)
    assert type(one.flag) is bool and type(one.residual) is float
