from math import factorial, inf

import numpy as np
import pytest

from phaselab.cones import HamiltonianSymbol, hamiltonian_real_values, hat_lift, sample
from phaselab.fock import (
    COHERENT_BOUND,
    ConvergenceGuardError,
    FockSpace,
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
    vacuum_state,
    z_op,
)
from phaselab.fock import _coherent_amplitudes, _disc_grid, _occupation_diagonals, _quadratic
from phaselab.linalg import ShapeError, expm
from phaselab.relations import make_Nb


def sym1(seed, scale=1.0):
    return HamiltonianSymbol(1, sample("sp_c", 1, scale, seed))


def number_ops(space):
    """(N_b, E_b) as full-space matrices: the number operator of the b-mode
    and the orthogonal projector onto its kernel, the dense reference."""
    N_b = creator(space, 2) @ annihilator(space, 2)
    return N_b, np.diag((np.diag(N_b) == 0).astype(complex))


def occ_band(space, max_occ, modes):
    """Indices of the basis states with occupation <= max_occ in the given
    modes (1-based)."""
    occ = _occupation_diagonals(space.cutoff)[[k - 1 for k in modes]]
    return np.flatnonzero(occ.max(axis=0) <= max_occ)


def test_band_indices():
    # two modes at cutoff 3: state (j, k) at index 3 j + k
    space = FockSpace(3)
    assert band_indices(space, 1).tolist() == [0, 1, 3, 4]
    assert band_indices(space, 2).tolist() == list(range(9))


def test_cached_operators_are_read_only():
    space = FockSpace(4)
    a1 = annihilator(space, 1)
    with pytest.raises(ValueError):
        a1[0, 1] = 9.0
    with pytest.raises(ValueError):
        _occupation_diagonals(space.cutoff)[0, 0] = 9.0
    assert annihilator(space, 1)[0, 1] == a1[0, 1] != 9.0


def test_ladder_matrices_qubit_truncation():
    space = FockSpace(2)
    a1 = annihilator(space, 1)
    # mode 1 of two modes at cutoff 2: a (x) I on C^2 (x) C^2
    single = np.array([[0, 1], [0, 0]], dtype=complex)
    assert np.array_equal(a1, np.kron(single, np.eye(2)))


def test_ccr_on_safe_band():
    space = FockSpace(6)
    D = space.cutoff
    a1, a2 = annihilator(space, 1), annihilator(space, 2)
    c1 = creator(space, 1)
    assert np.linalg.norm(a1 @ a2 - a2 @ a1, 2) == 0
    assert np.linalg.norm(a1 @ a2.conj().T - a2.conj().T @ a1, 2) == 0
    band = occ_band(space, D - 2, [1])
    comm = a1 @ c1 - c1 @ a1
    # exact up to sqrt(j)*sqrt(j) rounding
    assert np.linalg.norm((comm - np.eye(space.dim))[:, band], 2) < 1e-14
    with pytest.raises(Exception):
        annihilator(space, 3)


def test_drho_worked_examples():
    # The single-mode worked examples, embedded into the mode pair as
    # a-mode-only generators (pad the b-mode with zeros).  With
    # Ical = diag(-1, 1) the literal quadratic gives
    # drho(diag(i,-i)) = -i(a*a + 1/2); the displays carrying the opposite
    # sign use the opposite Ical, see the ledger.
    space = FockSpace(8)
    a = annihilator(space, 1)
    ac = creator(space, 1)
    band = occ_band(space, space.cutoff - 2, [1])
    got = drho(space, np.diag([1j, 0.0, -1j, 0.0]))
    want = -1j * (ac @ a + 0.5 * np.eye(space.dim))
    assert np.linalg.norm((got - want)[:, band], 2) < 1e-13

    r, b = 0.7, 0.3 - 0.4j
    A = np.zeros((4, 4), dtype=complex)
    A[0, 0], A[0, 2] = 1j * r, b
    A[2, 0], A[2, 2] = np.conj(b), -1j * r
    got = drho(space, A)
    want = -(
        (1j / 2) * r * (a @ ac + ac @ a)
        + (b / 2) * (a @ a)
        - (np.conj(b) / 2) * (ac @ ac)
    )
    band = occ_band(space, space.cutoff - 3, [1])
    assert np.linalg.norm((got - want)[:, band], 2) < 1e-12


def test_drho_linearity_and_skewness():
    space = FockSpace(8)
    A = sample("sp_c", 2, 1.0, 1)
    B = sample("sp_c", 2, 1.0, 2)
    assert np.linalg.norm(drho(space, A + B) - drho(space, A) - drho(space, B), 2) < 1e-12
    band = band_indices(space, space.cutoff - 3)
    dA = drho(space, A)
    assert np.linalg.norm((dA + dA.conj().T)[np.ix_(band, band)], 2) < 1e-12


def test_drho_lie_algebra_homomorphism():
    space = FockSpace(12)
    band = band_indices(space, space.cutoff - 4)
    for i in range(10):
        A = sample("sp_c", 2, 1.0, 3 * i)
        B = sample("sp_c", 2, 1.0, 3 * i + 1)
        lhs = drho(space, A) @ drho(space, B) - drho(space, B) @ drho(space, A)
        rhs = drho(space, A @ B - B @ A)
        assert np.linalg.norm((lhs - rhs)[:, band], 2) < 1e-9


def test_number_ops_and_projector_limit():
    space = FockSpace(10)
    N_b, E_b = number_ops(space)
    assert np.linalg.norm(E_b @ E_b - E_b, 2) == 0
    assert np.linalg.norm(expm(-10.0 * N_b) - E_b, 2) <= np.exp(-10) + 1e-12
    assert np.linalg.norm(expm(-30.0 * N_b) - E_b, 2) < 1e-13
    # the diagonal doubled matrix maps to -(N_b + 1/2) on the safe band
    got = drho(space, make_Nb(1))
    want = -(N_b + 0.5 * np.eye(space.dim))
    band = occ_band(space, space.cutoff - 2, [2])
    assert np.linalg.norm((got - want)[:, band], 2) < 1e-13


def test_quadratic_matches_entrywise_reference():
    # one product per row, row_i (sum_j M_ij col_j), against one product per
    # nonzero entry, over the doubled rows (a, b, a*, b*) and columns
    # (a*, b*, a, b)
    space = FockSpace(6)
    rows = [annihilator(space, k) for k in (1, 2)] + [creator(space, k) for k in (1, 2)]
    cols = rows[2:] + rows[:2]
    rng = np.random.default_rng(11)
    M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    M[1] = 0  # a row with no terms
    M[2, 3] = 0
    ref = np.zeros((space.dim, space.dim), dtype=complex)
    for i in range(4):
        for j in range(4):
            if M[i, j] != 0:
                ref += M[i, j] * (rows[i] @ cols[j])
    got = _quadratic(rows[:2], M)
    assert np.max(np.abs(got - ref)) < 1e-13 * np.max(np.abs(ref))


def test_quadratic_operators_conserve_occupation_parity():
    # quadratic generators move the total occupation by 0 or +-2, so their
    # entries between the even and odd sectors are exactly zero
    space = FockSpace(7)
    parity = _occupation_diagonals(space.cutoff).sum(axis=0) % 2
    between = parity[:, None] != parity[None, :]
    for seed in range(3):
        assert not np.any(h_A_operator(space, sym1(seed))[between])
        assert not np.any(drho(space, sample("sp_c", 2, 1.0, seed))[between])


def test_z_op_commuting_normal():
    space = FockSpace(8)
    Z = z_op(space)
    band = band_indices(space, space.cutoff - 3)
    comm = Z @ Z.conj().T - Z.conj().T @ Z
    assert np.linalg.norm(comm[:, band], 2) < 1e-12
    # Z on the joint vacuum is a pure a-excitation
    vac = vacuum_state(space)
    assert np.linalg.norm(Z @ vac - basis_state(space, (1, 0))) < 1e-14
    with pytest.raises(TruncationError):
        z_op(FockSpace(2))


def test_antinormal_quantize_basics():
    # E_b I E_b is the identity of ran E_b, and compressing E_b X E_b again
    # changes nothing
    space = FockSpace(8)
    _, E_b = number_ops(space)
    one = antinormal_quantize(space, np.eye(space.dim))
    assert one.shape == (space.cutoff,) * 2 and np.array_equal(one, np.eye(space.cutoff))
    X = np.random.default_rng(0).normal(size=(space.dim, space.dim))
    C = antinormal_quantize(space, X)
    assert np.linalg.norm(antinormal_quantize(space, E_b @ X @ E_b) - C, 2) < 1e-12


def test_antinormal_quantize_equals_projector_compression():
    # E_b is an exact 0/1 diagonal, so E_b X E_b is exactly the D x D
    # result put back on the b-vacuum states, in their full-space order
    space = FockSpace(7)
    _, E_b = number_ops(space)
    idx = np.flatnonzero(np.diag(E_b).real)
    rng = np.random.default_rng(space.dim)
    X = rng.normal(size=(space.dim,) * 2) + 1j * rng.normal(size=(space.dim,) * 2)
    full = np.zeros_like(X)
    full[np.ix_(idx, idx)] = antinormal_quantize(space, X)
    assert np.array_equal(full, E_b @ X @ E_b)


def test_sector_expm_matches_full_space():
    space, s = FockSpace(9), sym1(7)
    _, E_b = number_ops(space)
    idx = np.flatnonzero(np.diag(E_b).real)
    assert idx.size == space.cutoff and idx[0] == 0
    H = h_A_operator(space, s)
    G = E_b @ H @ E_b
    full = expm(G)
    block = expm(antinormal_quantize(space, H))
    assert np.max(np.abs(block - full[np.ix_(idx, idx)])) < 1e-13
    # off the sector e^G is the identity and does not mix in
    off = np.flatnonzero(np.diag(E_b).real == 0)
    assert np.max(np.abs(full[np.ix_(off, idx)])) == 0
    # a generator outside E_b . E_b is compressed first
    assert np.array_equal(antinormal_quantize(space, G), antinormal_quantize(space, H))
    space, s = FockSpace(10), sym1(9, 0.5)
    vac = vacuum_state(space)
    _, E_b = number_ops(space)
    want = vac.conj() @ expm(E_b @ h_A_operator(space, s) @ E_b) @ vac
    assert abs(vacuum_expectation(space, s, [None])[0] - want) < 1e-13


def test_sector_h_A_is_the_compression_of_h_A():
    # E_b h_A(Z) E_b from the a-modes alone, exact on the whole truncated
    # space, not only on the safe band
    for D in (3, 4, 8, 12, 16, 18):
        space = FockSpace(D)
        for seed in range(2):
            s = sym1(10 * D + seed)
            G = sector_h_A(space, s)
            assert G.shape == (D, D)
            assert np.max(np.abs(G - antinormal_quantize(space, h_A_operator(space, s)))) < 1e-14
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
    [small] = quantize_integral(FockSpace(D), [f], 8.0, 120)
    [large] = quantize_integral(FockSpace(D + 2), [f], 8.0, 120)
    assert small.shape == (D, D) and large.shape == (D + 2, D + 2)
    # equal up to the BLAS summation order, which may depend on the shape
    assert np.max(np.abs(large[:D, :D] - small)) <= 1e-14 * np.max(np.abs(small))


def test_antinormal_word_identity():
    # E_b Z^p Z*^q E_b = a^q a*^p E_b (the verified index order; see ledger)
    space = FockSpace(10)
    Z = z_op(space)
    Zc = Z.conj().T
    a = annihilator(space, 1)
    ac = creator(space, 1)
    _, E_b = number_ops(space)
    band = band_indices(space, space.cutoff - 5)
    for p in range(4):
        for q in range(4 - p):
            lhs = E_b @ np.linalg.matrix_power(Z, p) @ np.linalg.matrix_power(Zc, q) @ E_b
            rhs = np.linalg.matrix_power(a, q) @ np.linalg.matrix_power(ac, p) @ E_b
            assert np.linalg.norm((lhs - rhs)[:, band], 2) < 1e-12


def test_h_A_operator_equals_lifted_drho():
    space = FockSpace(10)
    band = band_indices(space, 7)
    for i in range(10):
        s = sym1(i)
        lhs = h_A_operator(space, s)
        rhs = drho(space, hat_lift(s))
        assert np.linalg.norm((lhs - rhs)[:, band], 2) < 1e-10
        assert np.linalg.norm((lhs + lhs.conj().T)[np.ix_(band, band)], 2) < 1e-10
    assert np.linalg.norm(h_A_operator(space, HamiltonianSymbol(1, np.zeros((2, 2))))) == 0


def test_strong_limit_zero_generator_exact():
    space = FockSpace(8)
    s0 = HamiltonianSymbol(1, np.zeros((2, 2)))
    rows = strong_limit_run(space, s0, [1.0, 4.0], [vacuum_state(space)])
    for _, residuals in rows:
        assert residuals[0] < 1e-14


def test_strong_limit_monotone_and_rate():
    space = FockSpace(12)
    s = sym1(5, 0.8)
    vecs = [vacuum_state(space), basis_state(space, (1, 0))]
    rows = strong_limit_run(space, s, [4.0, 6.0, 8.0, 12.0, 16.0], vecs)
    res = np.array([r[1] for r in rows])
    assert np.all(res[1:] <= res[:-1] + 1e-12)
    # the decay is ~ C/nu: doubling nu roughly halves the residual
    ratio = res[1][0] / res[4][0] if res[4][0] > 0 else np.inf
    assert 1.5 < (res[0][0] / res[3][0]) < 5.0


def test_strong_limit_matches_full_space_expm():
    # the two parity blocks against one full-space expm(H - nu N_b)
    space = FockSpace(12)
    s = sym1(6, 0.8)
    vecs = [vacuum_state(space), coherent(space, 0.5), basis_state(space, (1, 0))]
    nus = [4.0, 8.0, 12.0]
    H = h_A_operator(space, s)
    N_b, E_b = number_ops(space)
    target = E_b @ expm(E_b @ H @ E_b) @ E_b
    for (nu, got), want_nu in zip(strong_limit_run(space, s, nus, vecs), nus):
        U = expm(H - want_nu * N_b)
        want = [np.linalg.norm(U @ p - target @ p) for p in vecs]
        assert nu == want_nu
        assert np.max(np.abs(np.array(got) - want)) < 1e-13


def test_strong_limit_vector_preconditions():
    space = FockSpace(9)
    s = sym1(1)
    bad = basis_state(space, (0, 1))  # b-occupied: not in ran E_b
    with pytest.raises(ValueError):
        strong_limit_run(space, s, [1.0], [bad])
    top = basis_state(space, (space.cutoff - 1, 0))
    with pytest.raises(TruncationError):
        strong_limit_run(space, s, [1.0], [top])
    # a vector of the wrong length or rank
    space = FockSpace(14)
    for bad in (np.zeros(10), vacuum_state(space)[:, None]):
        with pytest.raises(ShapeError):
            strong_limit_run(space, s, [1.0], [bad])


def test_ray_normalized_strong_limit_drift_cancels():
    # exp(h_A(Z) - nu N_b) and exp(drho(hat A + nu N_b)) differ by exactly
    # the scalar e^{nu / 2} up to truncation; after gauge-normalizing both
    # by their vacuum matrix element the drift cancels
    space = FockSpace(12)
    s = sym1(3, 0.4)
    N_b, _ = number_ops(space)
    nu = 2.0
    U1 = expm(h_A_operator(space, s) - nu * N_b)
    U2 = expm(drho(space, hat_lift(s) + nu * make_Nb(1)))
    vac = vacuum_state(space)
    g1 = complex(vac.conj() @ U1 @ vac)
    g2 = complex(vac.conj() @ U2 @ vac)
    band = band_indices(space, 3)
    diff = np.linalg.norm((U1 / g1 - U2 / g2)[np.ix_(band, band)], 2)
    assert diff < 1e-6
    # and the raw scalar ratio is e^{nu/2}
    assert abs(g1 / g2 - np.exp(nu * 0.5)) < 1e-6


def test_coherent_states():
    space = FockSpace(20)
    vac = coherent(space, 0.0)
    assert np.linalg.norm(vac - vacuum_state(space)) == 0

    st = coherent(space, 0.8)
    a = annihilator(space, 1)
    resid = np.linalg.norm(a @ st - 0.8 * st)
    assert resid <= coherent_truncation_bound(space, 0.8) + 1e-12
    assert abs(np.linalg.norm(st) - 1.0) < 1e-12
    # lies in ran E_b
    _, E_b = number_ops(space)
    assert np.linalg.norm((np.eye(space.dim) - E_b) @ st) == 0

    with pytest.raises(TruncationError):
        coherent(FockSpace(6), 3.0)


def test_coherent_truncation_bound_past_the_factorial_range():
    # (D - 1)! is past the float range from D = 172 on; the bound is formed
    # in log space and agrees with |z|^D / sqrt((D - 1)!) where that is finite
    assert coherent_truncation_bound(FockSpace(200), 0.5) < COHERENT_BOUND
    assert coherent_truncation_bound(FockSpace(200), 0.0) == 0.0
    st = coherent(FockSpace(200), 0.5)
    assert abs(np.linalg.norm(st) - 1.0) < 1e-12
    for z in (0.5, 1.0, 3.0, 0.3 + 0.4j, 20.0):
        for D in range(2, 172):
            want = abs(z) ** D / np.sqrt(float(factorial(D - 1)))
            assert coherent_truncation_bound(FockSpace(D), z) == pytest.approx(want, rel=1e-12, abs=0)
    # a bound past the float range is inf, and coherent refuses the amplitude
    assert coherent_truncation_bound(FockSpace(200), 1e10) == inf
    with pytest.raises(TruncationError):
        coherent(FockSpace(200), 1e10)


def test_coherent_overlap_gaussian_formula():
    # probes up to |z| = 2, at cutoff 30, where the truncation bound stays
    # within COHERENT_BOUND for every such z
    space = FockSpace(30)
    assert coherent_truncation_bound(space, 2.0) <= COHERENT_BOUND
    rng = np.random.default_rng(2)
    for _ in range(20):
        z = 2.0 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / np.sqrt(2)
        w = 2.0 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / np.sqrt(2)
        got = np.vdot(coherent(space, z), coherent(space, w))
        want = np.exp(-abs(z) ** 2 / 2 - abs(w) ** 2 / 2 + np.conj(z) * w)
        assert abs(got - want) < 1e-8


def test_resolution_of_identity_and_trace():
    # the resolution of identity, the quadrature of f = 1, is checked in
    # test_quantize_integral_monomials_and_hermiticity.  The normalized
    # coherent projector has unit trace (safe amplitudes: at cutoff 16 the
    # truncation bound of |z| = 1 is within COHERENT_BOUND)
    st = coherent(FockSpace(16), 1.0)
    assert abs(np.vdot(st, st) - 1.0) < 1e-12


def test_quantize_integral_monomials_and_hermiticity():
    space = FockSpace(12)
    Z = z_op(space)
    Zc = Z.conj().T
    _, E_b = number_ops(space)
    # the band of a-occupation <= 3 inside ran E_b: the b-vacuum states
    # |j, 0>, j <= 3, at full-space index j D
    band = np.intersect1d(occ_band(space, 3, [1]), occ_band(space, 0, [2]))
    assert np.array_equal(band, space.cutoff * np.arange(4))
    # f = |z|^2 matches the compressed word a a* E_b
    [Q] = quantize_integral(space, [lambda z: (np.abs(z) ** 2).astype(complex)], 6.0, 200)
    assert Q.shape == (space.cutoff, space.cutoff)
    ref = E_b @ Z @ Zc @ E_b
    assert np.linalg.norm(Q[:4, :4] - ref[np.ix_(band, band)], 2) < 1e-3
    # f = 1 reproduces E_b, the identity of ran E_b
    [Q1] = quantize_integral(space, [lambda z: np.ones_like(z)], 6.0, 200)
    assert np.linalg.norm(Q1[:4, :4] - np.eye(4), 2) < 1e-3
    # real f gives a Hermitian operator
    [Qr] = quantize_integral(space, [lambda z: z.real.astype(complex)], 6.0, 120)
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
    space = FockSpace(12)
    s0 = HamiltonianSymbol(1, np.zeros((2, 2)))
    assert vacuum_expectation(space, s0, [None]) == [pytest.approx(1.0)]
    for i in range(5):
        s = sym1(20 + i, 0.5)
        [v] = vacuum_expectation(space, s, [None])
        assert abs(v) <= 1.0 + 1e-9
    # cutoff route converges to the uncut value
    space16 = FockSpace(16)
    s = sym1(30, 0.5)
    [v_un] = vacuum_expectation(space16, s, [None])
    assert abs(vacuum_expectation(space16, s, [16.0])[0] - v_un) < 1e-3


def test_vacuum_expectation_guard_trips():
    # the values at cutoffs 6 and 8 differ by 4.0e-4
    s = sym1(40, 2.5)
    with pytest.raises(ConvergenceGuardError) as err:
        vacuum_expectation(FockSpace(6), s, [None])
    assert err.value.guard == VACUUM_GUARD == 1e-4 and err.value.delta >= VACUUM_GUARD
    # the quadrature route checks its leading block against the whole one:
    # at tau = 8 the blocks of cutoffs 4 and 6 differ by 1.5e-3
    with pytest.raises(ConvergenceGuardError):
        vacuum_expectation(FockSpace(4), s, [8.0])


def test_space_validation():
    with pytest.raises(ValueError):
        FockSpace(1)
    assert FockSpace(3).dim == 9


def test_quantize_integral_of_a_list_equals_one_call_per_function():
    space = FockSpace(6)
    fs = [lambda z: np.ones_like(z), lambda z: z**2 * np.conj(z), lambda z: np.exp(-abs(z))]
    Qs = quantize_integral(space, fs, 4.0, 60)
    assert len(Qs) == len(fs)
    for Q, f in zip(Qs, fs):
        assert np.array_equal(Q, quantize_integral(space, [f], 4.0, 60)[0])


def test_vacuum_expectation_of_a_tau_list_equals_one_call_per_tau():
    space = FockSpace(8)
    sym = sym1(202, 0.5)
    taus = [None, 4.0, 8.0]
    assert vacuum_expectation(space, sym, taus) == [vacuum_expectation(space, sym, [t])[0] for t in taus]
