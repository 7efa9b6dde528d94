from math import factorial, inf

import numpy as np
import pytest

from phaselab.cones import HamiltonianSymbol, hamiltonian_real_values, hat_lift, sample
from phaselab.fock import (
    COHERENT_BOUND,
    ConvergenceGuardError,
    TruncationError,
    VACUUM_GUARD,
    annihilator,
    antinormal_quantize,
    band_indices,
    basis_state,
    coherent,
    coherent_truncation_bound,
    creator,
    drho,
    h_A_operator,
    quantize_integral,
    sector_h_A,
    strong_limit_run,
    vacuum_expectation,
    z_op,
)
from phaselab.fock import _coherent_amplitudes, _disc_grid, _occupation_diagonals, _quadratic
from phaselab.linalg import ShapeError, expm
from phaselab.relations import make_Nb


def sym1(seed, scale=1.0):
    return HamiltonianSymbol(1, sample("sp_c", 1, scale, seed))


def number_ops(D):
    """(N_b, E_b) as full-space matrices: the number operator of the b-mode
    and the orthogonal projector onto its kernel, the dense reference."""
    N_b = creator(D, 2) @ annihilator(D, 2)
    return N_b, np.diag((np.diag(N_b) == 0).astype(complex))


def occ_band(D, max_occ, modes):
    """Indices of the basis states with occupation <= max_occ in the given
    modes (1-based)."""
    occ = _occupation_diagonals(D)[[k - 1 for k in modes]]
    return np.flatnonzero(occ.max(axis=0) <= max_occ)


def test_band_indices():
    # two modes at cutoff 3: state (j, k) at index 3 j + k
    D = 3
    assert band_indices(D, 1).tolist() == [0, 1, 3, 4]
    assert band_indices(D, 2).tolist() == list(range(9))


def test_cached_operators_are_read_only():
    D = 4
    a1 = annihilator(D, 1)
    with pytest.raises(ValueError):
        a1[0, 1] = 9.0
    with pytest.raises(ValueError):
        _occupation_diagonals(D)[0, 0] = 9.0
    assert annihilator(D, 1)[0, 1] == a1[0, 1] != 9.0


def test_ladder_matrices_qubit_truncation():
    D = 2
    a1 = annihilator(D, 1)
    # mode 1 of two modes at cutoff 2: a (x) I on C^2 (x) C^2
    single = np.array([[0, 1], [0, 0]], dtype=complex)
    assert np.array_equal(a1, np.kron(single, np.eye(2)))


def test_ccr_on_safe_band():
    D = 6
    a1, a2 = annihilator(D, 1), annihilator(D, 2)
    c1 = creator(D, 1)
    assert np.linalg.norm(a1 @ a2 - a2 @ a1, 2) == 0
    assert np.linalg.norm(a1 @ a2.conj().T - a2.conj().T @ a1, 2) == 0
    band = occ_band(D, D - 2, [1])
    comm = a1 @ c1 - c1 @ a1
    # exact up to sqrt(j)*sqrt(j) rounding
    assert np.linalg.norm((comm - np.eye(D**2))[:, band], 2) < 1e-14
    with pytest.raises(Exception):
        annihilator(D, 3)


def test_drho_worked_examples():
    # The single-mode worked examples, embedded into the mode pair as
    # a-mode-only generators (pad the b-mode with zeros).  With
    # Ical = diag(-1, 1) the literal quadratic gives
    # drho(diag(i,-i)) = -i(a*a + 1/2); the displays carrying the opposite
    # sign use the opposite Ical, see the ledger.
    D = 8
    a = annihilator(D, 1)
    ac = creator(D, 1)
    band = occ_band(D, D - 2, [1])
    got = drho(D, np.diag([1j, 0.0, -1j, 0.0]))
    want = -1j * (ac @ a + 0.5 * np.eye(D**2))
    assert np.linalg.norm((got - want)[:, band], 2) < 1e-13

    r, b = 0.7, 0.3 - 0.4j
    A = np.zeros((4, 4), dtype=complex)
    A[0, 0], A[0, 2] = 1j * r, b
    A[2, 0], A[2, 2] = np.conj(b), -1j * r
    got = drho(D, A)
    want = -(
        (1j / 2) * r * (a @ ac + ac @ a)
        + (b / 2) * (a @ a)
        - (np.conj(b) / 2) * (ac @ ac)
    )
    band = occ_band(D, D - 3, [1])
    assert np.linalg.norm((got - want)[:, band], 2) < 1e-12


def test_drho_linearity_and_skewness():
    D = 8
    A = sample("sp_c", 2, 1.0, 1)
    B = sample("sp_c", 2, 1.0, 2)
    assert np.linalg.norm(drho(D, A + B) - drho(D, A) - drho(D, B), 2) < 1e-12
    band = band_indices(D, D - 3)
    dA = drho(D, A)
    assert np.linalg.norm((dA + dA.conj().T)[np.ix_(band, band)], 2) < 1e-12
    # A is the doubled 4 x 4 matrix of the mode pair: a symbol's 2 x 2 is refused
    with pytest.raises(ShapeError, match=r"\(4, 4\)"):
        drho(D, sample("sp_c", 1, 1.0, 1))


def test_drho_lie_algebra_homomorphism():
    D = 12
    band = band_indices(D, D - 4)
    for i in range(10):
        A = sample("sp_c", 2, 1.0, 3 * i)
        B = sample("sp_c", 2, 1.0, 3 * i + 1)
        lhs = drho(D, A) @ drho(D, B) - drho(D, B) @ drho(D, A)
        rhs = drho(D, A @ B - B @ A)
        assert np.linalg.norm((lhs - rhs)[:, band], 2) < 1e-9


def test_number_ops_and_projector_limit():
    D = 10
    N_b, E_b = number_ops(D)
    assert np.linalg.norm(E_b @ E_b - E_b, 2) == 0
    assert np.linalg.norm(expm(-10.0 * N_b) - E_b, 2) <= np.exp(-10) + 1e-12
    assert np.linalg.norm(expm(-30.0 * N_b) - E_b, 2) < 1e-13
    # the diagonal doubled matrix maps to -(N_b + 1/2) on the safe band
    got = drho(D, make_Nb(1))
    want = -(N_b + 0.5 * np.eye(D**2))
    band = occ_band(D, D - 2, [2])
    assert np.linalg.norm((got - want)[:, band], 2) < 1e-13


def test_quadratic_matches_entrywise_reference():
    # one product per row, row_i (sum_j M_ij col_j), against one product per
    # nonzero entry, over the doubled rows (a, b, a*, b*) and columns
    # (a*, b*, a, b)
    D = 6
    rows = [annihilator(D, k) for k in (1, 2)] + [creator(D, k) for k in (1, 2)]
    cols = rows[2:] + rows[:2]
    rng = np.random.default_rng(11)
    M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    M[1] = 0  # a row with no terms
    M[2, 3] = 0
    ref = np.zeros((D**2, D**2), dtype=complex)
    for i in range(4):
        for j in range(4):
            if M[i, j] != 0:
                ref += M[i, j] * (rows[i] @ cols[j])
    got = _quadratic(rows[:2], M)
    assert np.max(np.abs(got - ref)) < 1e-13 * np.max(np.abs(ref))


def test_quadratic_operators_conserve_occupation_parity():
    # quadratic generators move the total occupation by 0 or +-2, so their
    # entries between the even and odd sectors are exactly zero
    D = 7
    parity = _occupation_diagonals(D).sum(axis=0) % 2
    between = parity[:, None] != parity[None, :]
    for seed in range(3):
        assert not np.any(h_A_operator(D, sym1(seed))[between])
        assert not np.any(drho(D, sample("sp_c", 2, 1.0, seed))[between])


def test_basis_state():
    # |j_a, j_b> at index j_a D + j_b; the vacuum is the first basis vector
    D = 3
    assert np.array_equal(basis_state(D, (1, 2)), np.eye(D**2)[5])
    assert np.array_equal(basis_state(D, (0, 0)), np.eye(D**2)[0])
    for bad in ((1,), (0, 0, 0)):
        with pytest.raises(ShapeError, match="need 2"):
            basis_state(D, bad)
    for bad in ((D, 0), (0, -1)):
        with pytest.raises(TruncationError, match="outside 0..2"):
            basis_state(D, bad)


def test_z_op_commuting_normal():
    D = 8
    Z = z_op(D)
    band = band_indices(D, D - 3)
    comm = Z @ Z.conj().T - Z.conj().T @ Z
    assert np.linalg.norm(comm[:, band], 2) < 1e-12
    # Z on the joint vacuum is a pure a-excitation
    vac = basis_state(D, (0, 0))
    assert np.linalg.norm(Z @ vac - basis_state(D, (1, 0))) < 1e-14
    with pytest.raises(TruncationError):
        z_op(2)


def test_antinormal_quantize_basics():
    # E_b I E_b is the identity of ran E_b, and compressing E_b X E_b again
    # changes nothing
    D = 8
    _, E_b = number_ops(D)
    one = antinormal_quantize(D, np.eye(D**2))
    assert one.shape == (D,) * 2 and np.array_equal(one, np.eye(D))
    X = np.random.default_rng(0).normal(size=(D**2, D**2))
    C = antinormal_quantize(D, X)
    assert np.linalg.norm(antinormal_quantize(D, E_b @ X @ E_b) - C, 2) < 1e-12
    # X acts on the whole D^2-dimensional space, not on ran E_b alone
    with pytest.raises(ShapeError, match="dimension"):
        antinormal_quantize(D, one)


def test_antinormal_quantize_equals_projector_compression():
    # E_b is an exact 0/1 diagonal, so E_b X E_b is exactly the D x D
    # result put back on the b-vacuum states, in their full-space order
    D = 7
    _, E_b = number_ops(D)
    idx = np.flatnonzero(np.diag(E_b).real)
    rng = np.random.default_rng(D**2)
    X = rng.normal(size=(D**2,) * 2) + 1j * rng.normal(size=(D**2,) * 2)
    full = np.zeros_like(X)
    full[np.ix_(idx, idx)] = antinormal_quantize(D, X)
    assert np.array_equal(full, E_b @ X @ E_b)


def test_sector_expm_matches_full_space():
    D, s = 9, sym1(7)
    _, E_b = number_ops(D)
    idx = np.flatnonzero(np.diag(E_b).real)
    assert idx.size == D and idx[0] == 0
    H = h_A_operator(D, s)
    G = E_b @ H @ E_b
    full = expm(G)
    block = expm(antinormal_quantize(D, H))
    assert np.max(np.abs(block - full[np.ix_(idx, idx)])) < 1e-13
    # off the sector e^G is the identity and does not mix in
    off = np.flatnonzero(np.diag(E_b).real == 0)
    assert np.max(np.abs(full[np.ix_(off, idx)])) == 0
    # a generator outside E_b . E_b is compressed first
    assert np.array_equal(antinormal_quantize(D, G), antinormal_quantize(D, H))
    D, s = 10, sym1(9, 0.5)
    vac = basis_state(D, (0, 0))
    _, E_b = number_ops(D)
    want = vac.conj() @ expm(E_b @ h_A_operator(D, s) @ E_b) @ vac
    assert abs(vacuum_expectation(D, s, [None])[0] - want) < 1e-13


def test_sector_h_A_is_the_compression_of_h_A():
    # E_b h_A(Z) E_b from the a-modes alone, exact on the whole truncated
    # space, not only on the safe band
    for D in (3, 4, 8, 12, 16, 18):
        for seed in range(2):
            s = sym1(10 * D + seed)
            G = sector_h_A(D, s)
            assert G.shape == (D, D)
            assert np.max(np.abs(G - antinormal_quantize(D, h_A_operator(D, s)))) < 1e-14
            # skew-adjoint, so exp(G) is unitary and |vacuum_expectation| <= 1
            assert np.max(np.abs(G + G.conj().T)) < 1e-14


def test_symbols_beyond_one_mode_are_refused():
    # the space is one mode pair, so a symbol with m = 2 has no quantization
    # on it: the symbol itself refuses to be built, with one message, before
    # any route that quantizes it is reached
    for A in (sample("sp_c", 2, 1.0, 8), sample("sp_c", 1, 1.0, 8)):
        with pytest.raises(ShapeError, match="one mode pair: need a symbol with m = 1, not 2"):
            HamiltonianSymbol(2, A)


def test_coherent_amplitude_table():
    z, _ = _disc_grid(8.0, 60)
    D = 18
    C = _coherent_amplitudes(z, D)
    assert C.shape == (D, z.size) and C.flags.c_contiguous
    ref = np.array([z**j * np.exp(-np.abs(z) ** 2 / 2) / np.sqrt(float(factorial(j))) for j in range(D)])
    assert np.max(np.abs(C - ref)) < 1e-14


def test_quantize_integral_is_the_leading_block_at_a_larger_cutoff():
    # the amplitude table at D is exactly the first D rows of the table at
    # D + 2, so the quadrature at D is the leading block of the one at D + 2
    z, _ = _disc_grid(8.0, 120)
    D = 12
    assert np.array_equal(_coherent_amplitudes(z, D + 2)[:D], _coherent_amplitudes(z, D))
    s = sym1(12, 0.5)
    f = lambda z: hamiltonian_real_values(s, np.stack([z.real, z.imag], axis=1), 8.0)
    [small] = quantize_integral(D, [f], 8.0, 120)
    [large] = quantize_integral(D + 2, [f], 8.0, 120)
    assert small.shape == (D, D) and large.shape == (D + 2, D + 2)
    # equal up to the BLAS summation order, which may depend on the shape
    assert np.max(np.abs(large[:D, :D] - small)) <= 1e-14 * np.max(np.abs(small))


def test_antinormal_word_identity():
    # E_b Z^p Z*^q E_b = a^q a*^p E_b (the verified index order; see ledger)
    D = 10
    Z = z_op(D)
    Zc = Z.conj().T
    a = annihilator(D, 1)
    ac = creator(D, 1)
    _, E_b = number_ops(D)
    band = band_indices(D, D - 5)
    for p in range(4):
        for q in range(4 - p):
            lhs = E_b @ np.linalg.matrix_power(Z, p) @ np.linalg.matrix_power(Zc, q) @ E_b
            rhs = np.linalg.matrix_power(a, q) @ np.linalg.matrix_power(ac, p) @ E_b
            assert np.linalg.norm((lhs - rhs)[:, band], 2) < 1e-12


def test_h_A_operator_equals_lifted_drho():
    D = 10
    band = band_indices(D, 7)
    for i in range(10):
        s = sym1(i)
        lhs = h_A_operator(D, s)
        rhs = drho(D, hat_lift(s))
        assert np.linalg.norm((lhs - rhs)[:, band], 2) < 1e-10
        assert np.linalg.norm((lhs + lhs.conj().T)[np.ix_(band, band)], 2) < 1e-10
    assert np.linalg.norm(h_A_operator(D, HamiltonianSymbol(1, np.zeros((2, 2))))) == 0


def test_strong_limit_zero_generator_exact():
    D = 8
    s0 = HamiltonianSymbol(1, np.zeros((2, 2)))
    rows = strong_limit_run(D, s0, [1.0, 4.0], [basis_state(D, (0, 0))])
    for _, residuals in rows:
        assert residuals[0] < 1e-14


def test_strong_limit_monotone_and_rate():
    D = 12
    s = sym1(5, 0.8)
    vecs = [basis_state(D, (0, 0)), basis_state(D, (1, 0))]
    rows = strong_limit_run(D, s, [4.0, 6.0, 8.0, 12.0, 16.0], vecs)
    res = np.array([r[1] for r in rows])
    assert np.all(res[1:] <= res[:-1] + 1e-12)
    # the decay is ~ C/nu: doubling nu roughly halves the residual
    ratio = res[1][0] / res[4][0] if res[4][0] > 0 else np.inf
    assert 1.5 < (res[0][0] / res[3][0]) < 5.0


def test_strong_limit_matches_full_space_expm():
    # the two parity blocks against one full-space expm(H - nu N_b)
    D = 12
    s = sym1(6, 0.8)
    vecs = [basis_state(D, (0, 0)), coherent(D, 0.5), basis_state(D, (1, 0))]
    nus = [4.0, 8.0, 12.0]
    H = h_A_operator(D, s)
    N_b, E_b = number_ops(D)
    target = E_b @ expm(E_b @ H @ E_b) @ E_b
    for (nu, got), want_nu in zip(strong_limit_run(D, s, nus, vecs), nus):
        U = expm(H - want_nu * N_b)
        want = [np.linalg.norm(U @ p - target @ p) for p in vecs]
        assert nu == want_nu
        assert np.max(np.abs(np.array(got) - want)) < 1e-13


def test_strong_limit_vector_preconditions():
    D = 9
    s = sym1(1)
    bad = basis_state(D, (0, 1))  # b-occupied: not in ran E_b
    with pytest.raises(ValueError):
        strong_limit_run(D, s, [1.0], [bad])
    top = basis_state(D, (D - 1, 0))
    with pytest.raises(TruncationError):
        strong_limit_run(D, s, [1.0], [top])
    # a vector of the wrong length or rank
    D = 14
    for bad in (np.zeros(10), basis_state(D, (0, 0))[:, None]):
        with pytest.raises(ShapeError):
            strong_limit_run(D, s, [1.0], [bad])


def test_ray_normalized_strong_limit_drift_cancels():
    # exp(h_A(Z) - nu N_b) and exp(drho(hat A + nu N_b)) differ by exactly
    # the scalar e^{nu / 2} up to truncation; after gauge-normalizing both
    # by their vacuum matrix element the drift cancels
    D = 12
    s = sym1(3, 0.4)
    N_b, _ = number_ops(D)
    nu = 2.0
    U1 = expm(h_A_operator(D, s) - nu * N_b)
    U2 = expm(drho(D, hat_lift(s) + nu * make_Nb(1)))
    vac = basis_state(D, (0, 0))
    g1 = complex(vac.conj() @ U1 @ vac)
    g2 = complex(vac.conj() @ U2 @ vac)
    band = band_indices(D, 3)
    diff = np.linalg.norm((U1 / g1 - U2 / g2)[np.ix_(band, band)], 2)
    assert diff < 1e-6
    # and the raw scalar ratio is e^{nu/2}
    assert abs(g1 / g2 - np.exp(nu * 0.5)) < 1e-6


def test_coherent_states():
    D = 20
    vac = coherent(D, 0.0)
    assert np.linalg.norm(vac - basis_state(D, (0, 0))) == 0

    st = coherent(D, 0.8)
    a = annihilator(D, 1)
    resid = np.linalg.norm(a @ st - 0.8 * st)
    assert resid <= coherent_truncation_bound(D, 0.8) + 1e-12
    assert abs(np.linalg.norm(st) - 1.0) < 1e-12
    # lies in ran E_b
    _, E_b = number_ops(D)
    assert np.linalg.norm((np.eye(D**2) - E_b) @ st) == 0

    with pytest.raises(TruncationError):
        coherent(6, 3.0)


def test_coherent_truncation_bound_past_the_factorial_range():
    # (D - 1)! is past the float range from D = 172 on; the bound is formed
    # in log space and agrees with |z|^D / sqrt((D - 1)!) where that is finite
    assert coherent_truncation_bound(200, 0.5) < COHERENT_BOUND
    assert coherent_truncation_bound(200, 0.0) == 0.0
    st = coherent(200, 0.5)
    assert abs(np.linalg.norm(st) - 1.0) < 1e-12
    for z in (0.5, 1.0, 3.0, 0.3 + 0.4j, 20.0):
        for D in range(2, 172):
            want = abs(z) ** D / np.sqrt(float(factorial(D - 1)))
            assert coherent_truncation_bound(D, z) == pytest.approx(want, rel=1e-12, abs=0)
    # a bound past the float range is inf, and coherent refuses the amplitude
    assert coherent_truncation_bound(200, 1e10) == inf
    with pytest.raises(TruncationError):
        coherent(200, 1e10)


def test_coherent_overlap_gaussian_formula():
    # probes up to |z| = 2, at cutoff 30, where the truncation bound stays
    # within COHERENT_BOUND for every such z
    D = 30
    assert coherent_truncation_bound(D, 2.0) <= COHERENT_BOUND
    rng = np.random.default_rng(2)
    for _ in range(20):
        z = 2.0 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / np.sqrt(2)
        w = 2.0 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / np.sqrt(2)
        got = np.vdot(coherent(D, z), coherent(D, w))
        want = np.exp(-abs(z) ** 2 / 2 - abs(w) ** 2 / 2 + np.conj(z) * w)
        assert abs(got - want) < 1e-8


def test_resolution_of_identity_and_trace():
    # the resolution of identity, the quadrature of f = 1, is checked in
    # test_quantize_integral_monomials_and_hermiticity.  The normalized
    # coherent projector has unit trace (safe amplitudes: at cutoff 16 the
    # truncation bound of |z| = 1 is within COHERENT_BOUND)
    st = coherent(16, 1.0)
    assert abs(np.vdot(st, st) - 1.0) < 1e-12


def test_quantize_integral_monomials_and_hermiticity():
    D = 12
    Z = z_op(D)
    Zc = Z.conj().T
    _, E_b = number_ops(D)
    # the band of a-occupation <= 3 inside ran E_b: the b-vacuum states
    # |j, 0>, j <= 3, at full-space index j D
    band = np.intersect1d(occ_band(D, 3, [1]), occ_band(D, 0, [2]))
    assert np.array_equal(band, D * np.arange(4))
    # f = |z|^2 matches the compressed word a a* E_b
    [Q] = quantize_integral(D, [lambda z: (np.abs(z) ** 2).astype(complex)], 6.0, 200)
    assert Q.shape == (D, D)
    ref = E_b @ Z @ Zc @ E_b
    assert np.linalg.norm(Q[:4, :4] - ref[np.ix_(band, band)], 2) < 1e-3
    # f = 1 reproduces E_b, the identity of ran E_b
    [Q1] = quantize_integral(D, [lambda z: np.ones_like(z)], 6.0, 200)
    assert np.linalg.norm(Q1[:4, :4] - np.eye(4), 2) < 1e-3
    # real f gives a Hermitian operator
    [Qr] = quantize_integral(D, [lambda z: z.real.astype(complex)], 6.0, 120)
    assert np.linalg.norm(Qr - Qr.conj().T, 2) < 1e-12


def test_symbol_clip():
    # the quadrature's clipped symbol, at z = x + iy given as points p = (x, y)
    s = sym1(4)
    pts = np.array([[0.1, 0.1], [3.0, -2.0], [0.0, 0.5]])
    clipped, raw = hamiltonian_real_values(s, pts, 2.0), hamiltonian_real_values(s, pts)
    assert np.all(clipped <= 2.0 + 1e-15) and np.all(clipped >= -2.0 - 1e-15)
    assert np.any(np.abs(raw) > 2.0)  # the clip is exercised
    small = np.abs(raw) <= 2.0
    assert np.allclose(clipped[small], raw[small])
    assert np.allclose(hamiltonian_real_values(s, pts, 1e9), raw)
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            hamiltonian_real_values(s, pts, bad)
    # points come as an (N, 2) array: one point alone, a stack of arrays
    # and points of the wrong dimension are refused
    for bad_pts in (pts[0], pts[None], pts[:, :1]):
        with pytest.raises(ShapeError):
            hamiltonian_real_values(s, bad_pts)


def test_vacuum_expectation():
    D = 12
    s0 = HamiltonianSymbol(1, np.zeros((2, 2)))
    assert vacuum_expectation(D, s0, [None]) == [pytest.approx(1.0)]
    for i in range(5):
        s = sym1(20 + i, 0.5)
        [v] = vacuum_expectation(D, s, [None])
        assert abs(v) <= 1.0 + 1e-9
    # cutoff route converges to the uncut value
    D16 = 16
    s = sym1(30, 0.5)
    [v_un] = vacuum_expectation(D16, s, [None])
    assert abs(vacuum_expectation(D16, s, [16.0])[0] - v_un) < 1e-3


def test_vacuum_expectation_guard_trips():
    # the values at cutoffs 6 and 8 differ by 4.0e-4
    s = sym1(40, 2.5)
    with pytest.raises(ConvergenceGuardError) as err:
        vacuum_expectation(6, s, [None])
    assert err.value.guard == VACUUM_GUARD == 1e-4 and err.value.delta >= VACUUM_GUARD
    # the quadrature route checks its leading block against the whole one:
    # at tau = 8 the blocks of cutoffs 4 and 6 differ by 1.5e-3
    with pytest.raises(ConvergenceGuardError):
        vacuum_expectation(4, s, [8.0])


def test_quantize_integral_of_a_list_equals_one_call_per_function():
    D = 6
    fs = [lambda z: np.ones_like(z), lambda z: z**2 * np.conj(z), lambda z: np.exp(-abs(z))]
    Qs = quantize_integral(D, fs, 4.0, 60)
    assert len(Qs) == len(fs)
    for Q, f in zip(Qs, fs):
        assert np.array_equal(Q, quantize_integral(D, [f], 4.0, 60)[0])
    # each function gives one value per grid point: a scalar or a short
    # array is refused
    for bad in (lambda z: 1.0, lambda z: z[1:]):
        with pytest.raises(ShapeError, match="one value per point"):
            quantize_integral(D, [fs[0], bad], 4.0, 60)


def test_vacuum_expectation_of_a_tau_list_equals_one_call_per_tau():
    D = 8
    sym = sym1(202, 0.5)
    taus = [None, 4.0, 8.0]
    assert vacuum_expectation(D, sym, taus) == [vacuum_expectation(D, sym, [t])[0] for t in taus]
