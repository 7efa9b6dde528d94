import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from phaselab.bridge import (
    VARIANCE_RULES,
    EstimateReport,
    MeasureSpec,
    QuadraticAction,
    CHUNK,
    _block_actions,
    discrete_quadratic_form,
    estimate_actions,
    gaussian_oracle,
    gaussian_oracles,
    symbol_quadratic_matrix,
)
from phaselab.cones import HamiltonianSymbol, hamiltonian_real_values, sample
from reference import hamiltonian_value, loop_actions, sample_loops

AREA = QuadraticAction()


def spec64(nu=1.0, seed=0, rule="nu"):
    return MeasureSpec(nu=nu, steps=64, seed=seed, variance_rule=rule)


def hmatrix(m, norm, seed):
    """A seeded real symmetric 2m x 2m M: a sampled symbol's at m = 1, and
    for m >= 2, where the bridge still runs but symbols are one mode pair, a
    random one of spectral norm ``norm`` (every real symmetric M is the
    quadratic form of some quadratic Hamiltonian)."""
    if m == 1:
        return symbol_quadratic_matrix(HamiltonianSymbol(1, sample("sp_c", 1, norm, seed)))
    G = np.random.default_rng((m, seed)).normal(size=(2 * m, 2 * m))
    return (G + G.T) * (norm / np.linalg.norm(G + G.T, 2))


def quadratic(m, norm, seed):
    """The action of a seeded M: the area plus its x^T M x."""
    return QuadraticAction(hmatrix=hmatrix(m, norm, seed))


def test_measure_spec_validation():
    with pytest.raises(ValueError):
        MeasureSpec(nu=-1.0, steps=64, seed=0)
    with pytest.raises(ValueError):
        MeasureSpec(nu=1.0, steps=8, seed=0)
    with pytest.raises(ValueError):
        MeasureSpec(nu=1.0, steps=64, seed=0, variance_rule="bogus")
    # nu + ln(2 nu) is negative below the root of 2 nu e^nu = 1, nu = 0.3517
    with pytest.raises(ValueError, match="must be positive"):
        MeasureSpec(nu=0.1, steps=64, seed=0, variance_rule="nu_plus_log")
    assert MeasureSpec(nu=0.36, steps=64, seed=0, variance_rule="nu_plus_log").sigma2 > 0
    assert spec64(2.0).sigma2 == 2.0
    assert MeasureSpec(nu=2.0, steps=64, seed=0, variance_rule="two_nu").sigma2 == 4.0


def test_sample_loop_pinned_and_deterministic():
    spec = spec64(seed=3)
    p1 = sample_loops(spec, 17, 18)[0]
    p2 = sample_loops(spec, 17, 18)[0]
    assert np.array_equal(p1, p2)
    assert np.all(p1[0] == 0) and np.all(p1[-1] == 0)
    p3 = sample_loops(spec, 18, 19)[0]
    assert not np.array_equal(p1, p3)
    block = sample_loops(spec, 0, 100)
    assert block.shape == (100, 65, 2) and np.array_equal(block, sample_loops(spec, 0, 100))
    assert np.all(block[:, 0] == 0) and np.all(block[:, -1] == 0)
    assert np.array_equal(block[17], p1)
    for lo, hi in ((5, 5), (-1, 3)):
        with pytest.raises(ValueError):
            sample_loops(spec, lo, hi)


def stream_loop(spec, i):
    """Loop i built here from the stream's definition: the last of the first
    i % CHUNK + 1 increment draws of default_rng((seed, i // CHUNK)), summed
    and pinned at t = 1."""
    K, d = spec.steps, 2 * spec.m
    draw = np.random.default_rng((spec.seed, i // CHUNK)).normal(0.0, np.sqrt(spec.sigma2 / K), (i % CHUNK + 1, K, d))
    walk = np.vstack([np.zeros((1, d)), np.cumsum(draw[-1], axis=0)])
    return walk - (np.arange(K + 1) / K)[:, None] * walk[-1]


def test_sample_loops_across_chunk_boundary():
    # loop i comes from default_rng((seed, i // CHUNK)) whatever range is
    # asked for: 4090..4099 straddle the first two blocks
    spec = spec64(seed=3)
    lo, hi = CHUNK - 6, CHUNK + 4
    loops = sample_loops(spec, lo, hi)
    assert np.array_equal(loops, np.stack([stream_loop(spec, i) for i in range(lo, hi)]))
    assert np.array_equal(loops, sample_loops(spec, 0, hi + 10)[lo:hi])


def test_bridge_covariance_monte_carlo():
    # empirical covariance at (s, t) = (1/4, 1/2) vs sigma^2 (min - s t)
    spec = MeasureSpec(nu=2.0, steps=32, seed=5)
    i_s, i_t = 8, 16  # t = 1/4, 1/2
    n = 20000
    pts = sample_loops(spec, 0, n)
    prods = pts[:, i_s, 0] * pts[:, i_t, 0]
    want = spec.sigma2 * (0.25 - 0.125)
    stderr = np.std(prods, ddof=1) / np.sqrt(n)
    assert abs(prods.mean() - want) < 3 * stderr


def line_integral(pts):
    """The midpoint line integral of one loop: its bare area action."""
    return loop_actions(pts[None], [AREA])[0][0]


def test_line_integral_square_loop():
    pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], dtype=float)
    assert line_integral(pts) == pytest.approx(-2.0)
    assert line_integral(pts[::-1].copy()) == pytest.approx(2.0)
    assert line_integral(np.zeros((5, 2))) == 0.0


def test_action_constant_hamiltonian():
    # x^T I x at the midpoints (1/2, 0), (1, 1/2), (1/2, 1), (0, 1/2) is
    # 0.25, 1.25, 1.25, 0.25: the action is the area -2 plus their mean 0.75
    pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], dtype=float)
    base, with_h = loop_actions(pts[None], [AREA, QuadraticAction(hmatrix=np.eye(2))])
    assert base[0] == line_integral(pts)
    assert with_h[0] == pytest.approx(-1.25)


def test_cutoff_h_clipping():
    # the cutoff Hamiltonian H_tau of fock.vacuum_expectation:
    # hamiltonian_real_values clipped to [-tau, tau]
    sym = HamiltonianSymbol(1, sample("sp_c", 1, 1.0, 1))
    pts = np.array([[0.1, 0.2], [4.0, -3.0], [0.5, 0.0]])
    clipped, raw = hamiltonian_real_values(sym, pts, 1.5), hamiltonian_real_values(sym, pts)
    assert np.all(np.abs(clipped) <= 1.5 + 1e-15)
    assert np.any(np.abs(raw) > 1.5)  # the clip is exercised
    small = np.abs(raw) <= 1.5
    assert np.allclose(clipped[small], raw[small])
    # tau -> infinity pointwise recovery on a bounded set
    assert np.allclose(hamiltonian_real_values(sym, pts, 1e9), raw)
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            hamiltonian_real_values(sym, pts, bad)


def test_quadratic_matrix_matches_symbol():
    # the closed-form M against the complex reference value i h_A(z)
    rng = np.random.default_rng(0)
    for seed in range(8, 11):
        sym = HamiltonianSymbol(1, sample("sp_c", 1, 1.0, seed))
        M = symbol_quadratic_matrix(sym)
        assert M.dtype == float and np.array_equal(M, M.T)
        for _ in range(20):
            p = rng.normal(size=2)
            direct = (1j * hamiltonian_value(sym, p[:1] + 1j * p[1:])).real
            assert p @ M @ p == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_discrete_form_matches_action():
    # coordinate-major free coordinates; m = 2 exercises the block assembly
    for m in (1, 2):
        q = quadratic(m, 0.5, 9)
        spec = MeasureSpec(nu=1.5, steps=64, seed=2, m=m)
        Q = discrete_quadratic_form(spec, q)
        for pts in sample_loops(spec, 0, 5):
            x = pts[1:-1].T.ravel()
            assert x @ Q @ x == pytest.approx(loop_actions(pts[None], [q])[0][0], abs=1e-12)


def test_oracle_trivial_and_closed_form():
    spec = MeasureSpec(nu=1.0, steps=256, seed=0)
    # bridge stochastic-area law: e^{nu} E[e^{i S0}] -> 2 nu/(1 - e^{-2 nu})
    val = np.exp(1.0) * gaussian_oracle(spec, QuadraticAction())
    closed = 2.0 / (1 - np.exp(-2.0))
    assert abs(val - closed) / closed < 5e-3


def test_estimate_matches_per_index_loop():
    # the estimator's blocks reproduce loops built one at a time from the
    # stream's definition
    q = quadratic(1, 0.3, 8)
    spec = spec64(nu=1.0, seed=6)
    direct = np.mean([np.exp(1j * loop_actions(stream_loop(spec, i)[None], [q])[0][0]) for i in range(1000)])
    [[rep]] = estimate_actions([spec], [q], samples=1000)
    assert abs(rep.mean / np.exp(1.0) - direct) < 1e-13
    with pytest.raises(ValueError):
        estimate_actions([spec], [AREA], samples=10)


def test_estimate_actions_match_separate_estimates():
    # one draw serves every action, bit for bit as separate estimates
    actions = [AREA, quadratic(1, 0.3, 8)]
    spec = spec64(nu=1.0, seed=6)
    both = estimate_actions([spec], actions, samples=CHUNK + 1000)[0]
    for rep, q in zip(both, actions):
        [[alone]] = estimate_actions([spec], [q], samples=CHUNK + 1000)
        assert rep.mean == alone.mean and rep.stderr == alone.stderr
    assert both[0].mean != both[1].mean


def own_draw_means(spec, actions, samples):
    """The scaled means from the spec's own loops at its sigma^2, block by
    block: the estimator's route before one draw served every spec."""
    total = np.zeros(len(actions), dtype=complex)
    for lo in range(0, samples, CHUNK):
        total += [np.sum(np.exp(1j * S)) for S in loop_actions(sample_loops(spec, lo, min(lo + CHUNK, samples)), actions)]
    return [complex(float(np.exp(spec.nu * spec.m)) * (t / samples)) for t in total]


def test_shared_draw_matches_own_draws():
    # S at sigma^2 is sigma^2 times S at 1 up to rounding, and exactly at 1
    for m in (1, 2):
        actions = [AREA, quadratic(m, 0.3, 8)]
        specs = [MeasureSpec(nu=nu, steps=64, seed=6, variance_rule=rule, m=m)
                 for nu, rule in ((1.0, "nu"), (2.0, "nu_half"), (0.5, "two_nu"), (2.0, "nu"), (3.0, "nu_plus_log"))]
        shared = estimate_actions(specs, actions, samples=CHUNK + 1000)
        for spec, reps in zip(specs, shared):
            own = own_draw_means(spec, actions, CHUNK + 1000)
            for rep, want in zip(reps, own):
                if spec.sigma2 == 1.0:
                    assert rep.mean == want
                else:
                    assert abs(rep.mean - want) <= 1e-13 * abs(want)


def test_estimate_independent_of_the_specs_sharing_the_draw():
    actions = [AREA, quadratic(1, 0.3, 8)]
    specs = [spec64(nu=nu, seed=6, rule=rule) for nu, rule in ((1.0, "nu"), (2.0, "two_nu"), (4.0, "nu"))]
    together = estimate_actions(specs, actions, samples=CHUNK + 1000)
    reversed_ = estimate_actions(specs[::-1], actions[::-1], samples=CHUNK + 1000)
    for i, spec in enumerate(specs):
        alone = estimate_actions([spec], actions, samples=CHUNK + 1000)[0]
        for a, b, c in zip(together[i], reversed_[len(specs) - 1 - i][::-1], alone):
            assert a.mean == b.mean == c.mean and a.stderr == b.stderr == c.stderr


def test_shared_draw_needs_one_stream():
    base = spec64(seed=6)
    for other in (MeasureSpec(nu=2.0, steps=32, seed=6), spec64(nu=2.0, seed=7),
                  MeasureSpec(nu=2.0, steps=64, seed=6, m=2)):
        with pytest.raises(ValueError):
            estimate_actions([base, other], [AREA], samples=1000)
    with pytest.raises(ValueError):
        estimate_actions([], [AREA], samples=1000)
    with pytest.raises(ValueError):
        gaussian_oracles([(base, QuadraticAction()), (MeasureSpec(nu=2.0, steps=64, seed=6, m=2), QuadraticAction())])
    with pytest.raises(ValueError):
        gaussian_oracles([])


def test_sub_block_size_moves_no_value(monkeypatch):
    # each CHUNK block is drawn and evaluated in sub-blocks; their size, from
    # one loop to a whole block, changes no bit of any estimate, and a
    # block's per-loop actions are those of the stream's own loops
    samples = CHUNK + 1000  # two blocks, the last one partial
    for m in (1, 2):
        specs = [MeasureSpec(nu=nu, steps=64, seed=6, variance_rule=rule, m=m)
                 for nu, rule in ((1.0, "nu"), (2.0, "two_nu"))]
        unit = MeasureSpec(nu=1.0, steps=64, seed=6, m=m)
        for actions in ([AREA], [AREA, quadratic(m, 0.3, 8)]):
            for lo, acts in zip(range(0, samples, CHUNK), _block_actions(unit, actions, samples)):
                want = loop_actions(sample_loops(unit, lo, min(lo + CHUNK, samples)), actions)
                assert all(np.array_equal(a, b) for a, b in zip(acts, want))
            want = [[(r.mean, r.stderr) for r in reps] for reps in estimate_actions(specs, actions, samples)]
            for loops in (1, 7, 256, CHUNK):
                monkeypatch.setattr("phaselab.bridge.SUB_BLOCK_BYTES", loops * 8 * 65 * 2 * m)
                got = estimate_actions(specs, actions, samples)
                assert [[(r.mean, r.stderr) for r in reps] for reps in got] == want
            monkeypatch.undo()


def test_estimate_memory_stays_below_half_a_block():
    # the estimator never holds a whole block of loops: at CHUNK loops of 256
    # steps its traced peak stays below half of one (4096, 257, 2) array
    specs = [MeasureSpec(nu=nu, steps=256, seed=6) for nu in (1.0, 2.0, 4.0)]
    actions = [AREA, quadratic(1, 0.3, 8)]
    tracemalloc.start()
    try:
        estimate_actions(specs, actions, samples=CHUNK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < CHUNK * 257 * 2 * 8 / 2


def test_oracle_mixed_steps_batch_matches_per_steps_batches():
    # one recursion serves pairs of different steps, each pair bitwise its
    # value in a batch of its own steps
    q = QuadraticAction(hmatrix=symbol_quadratic_matrix(HamiltonianSymbol(1, sample("sp_c", 1, 2.0, 30))))
    by_steps = [[(MeasureSpec(nu=nu, steps=steps, seed=0, variance_rule=rule), action)
                 for nu, rule in ((1.0, "nu"), (2.5, "nu_half"), (4.0, "two_nu")) for action in (AREA, q)]
                for steps in (16, 48, 96)]
    want = [gaussian_oracles(pairs) for pairs in by_steps]
    # the steps interleaved: pair i of each steps in turn
    assert gaussian_oracles([pair for pairs in zip(*by_steps) for pair in pairs]) == [v for vs in zip(*want) for v in vs]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_oracle_batch_matches_single_calls(m, monkeypatch):
    # a stacked recursion gives each pair bitwise its own value, whatever
    # shares the batch and however the batch is cut into runs
    pairs = []
    for k, (nu, rule) in enumerate(((1.0, "nu"), (2.5, "nu_half"), (4.0, "two_nu"), (0.7, "nu_plus_log"))):
        spec = MeasureSpec(nu=nu, steps=48, seed=k, variance_rule=rule, m=m)
        hmat = hmatrix(m, 2.0, 30 + k)
        pairs += [(spec, QuadraticAction()), (spec, QuadraticAction(hmatrix=hmat))]
    single = [gaussian_oracle(spec, q) for spec, q in pairs]
    assert gaussian_oracles(pairs) == single
    assert gaussian_oracles(pairs[::-1]) == single[::-1]
    monkeypatch.setattr("phaselab.bridge.ORACLE_RUN_BYTES", 16 * 47 * (2 * m) ** 2 * 5)  # runs of 5 pairs
    assert gaussian_oracles(pairs) == single


def test_mc_matches_oracle_within_stderr():
    for seed, with_sym in ((1, False), (2, True)):
        q = quadratic(1, 0.25, 3) if with_sym else AREA
        spec = spec64(nu=1.0, seed=seed)
        scale = np.exp(1.0)
        oracle = scale * gaussian_oracle(spec, q)
        [[rep]] = estimate_actions([spec], [q], samples=20000)
        assert abs(rep.mean - oracle) < 3 * rep.stderr
        # raw sample mean of a unit-modulus variable
        assert abs(rep.mean) / scale <= 1.0 + 3 * rep.stderr / scale


def test_estimate_clt_scaling_and_independence():
    spec = spec64(nu=1.0, seed=11)
    [[r1]] = estimate_actions([spec], [AREA], samples=4000)
    [[r2]] = estimate_actions([spec], [AREA], samples=16000)
    assert 0.8 * 0.5 < r2.stderr / r1.stderr < 1.2 * 0.5
    [[ra]] = estimate_actions([spec64(nu=1.0, seed=100)], [AREA], samples=10000)
    [[rb]] = estimate_actions([spec64(nu=1.0, seed=200)], [AREA], samples=10000)
    assert abs(ra.mean - rb.mean) < 3 * np.hypot(ra.stderr, rb.stderr)


def test_estimate_deterministic():
    spec = spec64(nu=1.0, seed=4)
    q = quadratic(1, 0.3, 5)
    [[r1]] = estimate_actions([spec], [q], samples=5000)
    [[r2]] = estimate_actions([spec], [q], samples=5000)
    assert r1.mean == r2.mean and r1.stderr == r2.stderr
    assert isinstance(r1, EstimateReport)


def bridge_covariance(spec):
    """The discrete bridge covariance sigma^2 (min(s, t) - s t) on the free
    grid times, coordinate-major, built here independently of the oracle."""
    t = np.arange(1, spec.steps) / spec.steps
    return np.kron(np.eye(2 * spec.m), spec.sigma2 * (np.minimum.outer(t, t) - np.outer(t, t)))


def dense_oracle(spec, q):
    """prod (1 - 2i mu)^{-1/2} over the eigenvalues mu of L^T Q L, with
    Sigma = L L^T: each factor has argument in (-pi/2, pi/2), so the product
    of principal roots is the continuous one.  O((2mK)^3)."""
    L = np.linalg.cholesky(bridge_covariance(spec))
    mu = np.linalg.eigvalsh(L.T @ discrete_quadratic_form(spec, q) @ L)
    return complex(np.exp(-0.5 * np.sum(np.log(1.0 - 2j * mu))))


def tracked_oracle(spec, q, grid):
    """det(I - 2i lam Sigma Q)^{-1/2} at lam = 1, with the square root tracked
    continuously from lam = 0 (sign nearest the previous step), and the
    total phase of the determinant."""
    SQ = bridge_covariance(spec) @ discrete_quadratic_form(spec, q)
    eye = np.eye(SQ.shape[0])
    root, phase = 1.0 + 0j, 0.0
    for lam in np.linspace(0.0, 1.0, grid + 1)[1:]:
        r = np.sqrt(np.linalg.det(eye - 2j * lam * SQ))
        if abs(r + root) < abs(r - root):
            r = -r
        step = np.angle(r / root)
        assert abs(step) < np.pi / 8  # the grid resolves the phase
        root, phase = r, phase + 2 * step
    return 1.0 / root, phase


def test_oracle_branch_pinned():
    # the determinant winds past pi, so the principal square root of det
    # alone has the wrong sign here; the tracked root and the oracle agree
    sym = HamiltonianSymbol(1, sample("sp_c", 1, 30.0, 5))
    spec = MeasureSpec(nu=4.0, steps=64, seed=0)
    q = QuadraticAction(hmatrix=symbol_quadratic_matrix(sym))
    want, phase = tracked_oracle(spec, q, grid=512)
    assert abs(phase) > np.pi
    got = gaussian_oracle(spec, q)
    assert abs(got - want) <= 1e-10 * abs(want)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    norm=st.floats(0.0, 40.0, exclude_min=True),
    nu=st.floats(0.5, 16.0),
)
def test_oracle_branch_property(seed, norm, nu):
    sym = HamiltonianSymbol(1, sample("sp_c", 1, norm, seed))
    spec = MeasureSpec(nu=nu, steps=32, seed=0)
    q = QuadraticAction(hmatrix=symbol_quadratic_matrix(sym))
    want, _ = tracked_oracle(spec, q, grid=2000)
    got = gaussian_oracle(spec, q)
    assert abs(got - want) <= 1e-10 * abs(want)


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(1, 3),
    steps=st.integers(16, 256),
    nu=st.floats(0.5, 32.0),
    norm=st.floats(0.0, 1e3, exclude_min=True),
    rule=st.sampled_from(sorted(VARIANCE_RULES)),
    seed=st.integers(0, 2**16),
)
def test_oracle_matches_dense_property(m, steps, nu, norm, rule, seed):
    # the pivot recursion against the dense eigenvalue route
    spec = MeasureSpec(nu=nu, steps=steps, seed=0, variance_rule=rule, m=m)
    q = quadratic(m, norm, seed)
    want = dense_oracle(spec, q)
    assume(abs(want) > 1e-290)  # relative accuracy is void once the value underflows
    got = gaussian_oracle(spec, q)
    assert abs(got - want) <= 1e-10 * abs(want)


def test_oracle_pivot_eigenvalue_branch():
    # a definite M turns all eigenvalues of a pivot the same way: for m = 2
    # their arguments sum to about -3.97 < -pi at every pivot, so the
    # principal log of det D_j would flip the sign of the value
    spec = MeasureSpec(nu=16.0, steps=16, seed=0, m=2)
    q = QuadraticAction(hmatrix=100.0 * np.eye(4))
    want = dense_oracle(spec, q)
    assert abs(gaussian_oracle(spec, q) - want) <= 1e-10 * abs(want)


@pytest.mark.parametrize("nu", [1.0, 4.0])
def test_oracle_rate_constant_beyond_dense_reach(nu):
    # at 16384 steps (a dense form would be 32766 x 32766) the discrete area
    # law exceeds the continuum nu / sinh nu by (1/2) nu^2 / steps (relative)
    steps = 16384
    value = gaussian_oracle(MeasureSpec(nu=nu, steps=steps, seed=0), QuadraticAction())
    closed = nu / np.sinh(nu)
    assert 0.499 <= abs(abs(value) - closed) / closed * steps / nu**2 <= 0.501


def test_oracle_refinement_reported():
    # the discrete-area distribution converges at rate O(nu^2/steps); the
    # refinement between 256 and 512 steps is percent-level at nu = 4
    v1 = gaussian_oracle(MeasureSpec(nu=4.0, steps=256, seed=0), QuadraticAction())
    v2 = gaussian_oracle(MeasureSpec(nu=4.0, steps=512, seed=0), QuadraticAction())
    rel = abs(v1 - v2) / abs(v2)
    assert 1e-3 < rel < 5e-2


def test_stratonovich_refinement_statistics():
    # line-integral values at K vs 2K on the same refined path: the mean
    # difference is O(1/K), the spread O(K^{-1/2})
    fine = MeasureSpec(nu=1.0, steps=128, seed=21)
    loops = sample_loops(fine, 0, 2000)
    diffs = loop_actions(loops, [AREA])[0] - loop_actions(loops[:, ::2], [AREA])[0]
    stderr = diffs.std(ddof=1) / np.sqrt(len(diffs))
    assert abs(diffs.mean()) < 3 * stderr + 2.0 / fine.steps
    assert diffs.std() < 3.0 / np.sqrt(fine.steps)
