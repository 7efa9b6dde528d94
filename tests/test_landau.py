import sys

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import phaselab.landau as landau
from phaselab.cones import HamiltonianSymbol, sample
from phaselab.landau import (
    Grid2D,
    InertiaError,
    SymmetryError,
    cluster_center,
    count_below,
    flux_count,
    grid_strong_limit,
    landau_hamiltonian,
    low_spectrum,
    magnetic_laplacian,
    rotation_sectors,
)


def small_grid():
    return Grid2D(4.0, 0.25)


def test_low_spectrum_repeats_exactly():
    H = landau_hamiltonian(Grid2D(2.0, 0.125))
    a = low_spectrum(H, k=12)
    b = low_spectrum(H, k=12)
    assert np.array_equal(a, b)
    dense = np.linalg.eigvalsh(H.toarray())[:12]
    assert np.max(np.abs(a - dense)) < 1e-10


def test_rotation_sectors_split_the_spectrum():
    H = landau_hamiltonian(small_grid())
    N = H.shape[0]
    sectors = rotation_sectors(H)
    assert [Hq.shape[0] for Hq in sectors] == [(N - 1) // 4 + 1] + [(N - 1) // 4] * 3
    for Hq in sectors:
        # real symmetric, entry for entry
        assert Hq.dtype == np.float64 and (Hq != Hq.T).nnz == 0
    split = np.sort(np.concatenate([np.linalg.eigvalsh(Hq.toarray()) for Hq in sectors]))
    assert np.max(np.abs(split - np.linalg.eigvalsh(H.toarray()))) < 1e-10


def test_inertia_count_matches_dense_count():
    # at the checked-in spacing the first excited level is a near-degenerate
    # cluster at 0.990; one cut goes between its two closest members
    H = landau_hamiltonian(Grid2D(4.0, 0.125))
    sectors = rotation_sectors(H)
    dense = [np.linalg.eigvalsh(Hq.toarray()) for Hq in sectors]
    w = np.sort(np.concatenate(dense))
    cluster = w[(w > 0.98) & (w < 1.0)]
    i = np.argmin(np.diff(cluster))
    assert cluster[i + 1] - cluster[i] < 1e-4
    # the real form [[Re H, -Im H], [Im H, Re H]] holds each eigenvalue of H
    # twice; its inertia count does not pass through rotation_sectors (a
    # dense eigvalsh of this H takes about 30 s and 600 MiB)
    real_form = sp.bmat([[H.real, -H.imag], [H.imag, H.real]], format="csc")
    for cut in (-0.1, 0.5, (cluster[i] + cluster[i + 1]) / 2, 0.9903, 1.2):
        counts = [count_below(Hq, cut) for Hq in sectors]
        assert counts == [int(np.sum(d < cut)) for d in dense]
        assert count_below(real_form, cut) == 2 * sum(counts)


@pytest.mark.parametrize("k", [3, 36])
def test_cut_moves_past_a_degenerate_boundary(monkeypatch, k):
    # on this grid the k-th and (k+1)-th values (in the lowest level, and in
    # the cluster at 0.961) are closer than an inertia count can resolve
    H = landau_hamiltonian(Grid2D(5.0, 0.25))
    dense = np.sort(np.concatenate([np.linalg.eigvalsh(Hq.toarray()) for Hq in rotation_sectors(H)]))
    assert dense[k] - dense[k - 1] < landau.CUT_GAP_MIN * abs(H).max()
    cuts = []
    original = landau.count_below
    monkeypatch.setattr(landau, "count_below", lambda Hq, cut: cuts.append(cut) or original(Hq, cut))
    vals = low_spectrum(H, k=k)
    assert np.max(np.abs(vals - dense[:k])) < 1e-10
    assert cuts and min(cuts) > dense[k]


def _short_first_sector(monkeypatch, kind, every_run=False):
    """Make the first Lanczos run of sector 0 fall short (or every run of it):
    compute 4 values fewer ("k_down") or lose the third value ("missed_value",
    as Lanczos may in a near-degenerate cluster).  Returns (size, k) per run."""
    original = landau._sector_low
    runs = []

    def short(Hq, k):
        runs.append((Hq.shape[0], k))
        sector_zero = Hq.shape[0] == runs[0][0]  # runs first; the only sector holding the centre
        if not sector_zero or (len(runs) > 1 and not every_run):
            return original(Hq, k)
        if kind == "k_down":
            return original(Hq, k - 4)
        return np.delete(original(Hq, k), 2)

    monkeypatch.setattr(landau, "_sector_low", short)
    return runs


@pytest.mark.parametrize("kind", ["k_down", "missed_value"])
def test_short_sector_is_rerun(monkeypatch, kind):
    H = landau_hamiltonian(small_grid())
    dense = np.linalg.eigvalsh(H.toarray())[:24]
    runs = _short_first_sector(monkeypatch, kind)
    vals = low_spectrum(H, k=24)
    assert len(runs) > 4  # the inertia count sent the short sector back
    assert np.max(np.abs(vals - dense)) < 1e-10


@pytest.mark.parametrize("kind", ["k_down", "missed_value"])
def test_short_sector_without_reruns_raises(monkeypatch, kind):
    monkeypatch.setattr(landau, "RERUNS", 0)
    _short_first_sector(monkeypatch, kind)
    with pytest.raises(InertiaError, match="after 0 reruns"):
        low_spectrum(landau_hamiltonian(small_grid()), k=24)


def test_sector_short_on_every_run_raises(monkeypatch):
    runs = _short_first_sector(monkeypatch, "missed_value", every_run=True)
    H = landau_hamiltonian(small_grid())
    with pytest.raises(InertiaError, match=f"after {landau.RERUNS} reruns"):
        low_spectrum(H, k=24)
    assert len(runs) == 4 + landau.RERUNS
    # sector 0, the largest, grew RERUNS times, to the k_q on which the
    # Lanczos basis bound rests, and no run asked for more
    bound = landau.lanczos_bytes(H.shape[0], 24)
    basis = [8 * n * max(2 * kq + 1, 20) for n, kq in runs]
    assert all(b <= bound for b in basis) and basis[-1] == bound


def test_more_values_than_the_inertia_count_raises(monkeypatch):
    # a spurious value -0.45, below the spectrum, in sector 0: it holds one
    # computed value more than the inertia count finds below the cut
    H = landau_hamiltonian(small_grid())
    n0 = (H.shape[0] - 1) // 4 + 1  # sector 0 holds the centre of the grid
    original = landau._sector_low
    monkeypatch.setattr(landau, "_sector_low", lambda Hq, k: np.append(original(Hq, k), -0.45)
                        if Hq.shape[0] == n0 else original(Hq, k))
    with pytest.raises(InertiaError, match="sector 0: .* computed values below .* but an inertia count of"):
        low_spectrum(H, k=24)


def test_no_wide_gap_reruns_every_sector_then_raises(monkeypatch):
    # no gap between merged values is max |H_ij| wide, so no cut is placed
    # and all four sectors rerun, RERUNS times, before the error
    monkeypatch.setattr(landau, "CUT_GAP_MIN", 1.0)
    runs = []
    sector_low = landau._sector_low
    monkeypatch.setattr(landau, "_sector_low", lambda Hq, k: runs.append(k) or sector_low(Hq, k))
    with pytest.raises(InertiaError, match=rf"sectors \[0, 1, 2, 3\] .*\(no gap of .* after {landau.RERUNS} reruns"):
        low_spectrum(landau_hamiltonian(Grid2D(2.0, 0.125)), k=12)
    assert len(runs) == 4 * (1 + landau.RERUNS)


def test_inertia_pivot_guards():
    # a zero pivot: the cut is an eigenvalue
    with pytest.raises(InertiaError, match="no factorization at shift 1.0"):
        count_below(sp.diags([1.0, 2.0], format="csc"), 1.0)
    assert count_below(sp.diags([1.0, 2.0], format="csc"), 1.5) == 1
    # a zero diagonal: the only pivot is off it
    with pytest.raises(InertiaError, match="pivoted off the diagonal"):
        count_below(sp.csc_matrix([[0.0, 1.0], [1.0, 0.0]]), 0.0)


def test_count_below_refuses_complex_matrices():
    # numpy orders complex pivots lexicographically, which is no inertia
    with pytest.raises(TypeError, match="complex"):
        count_below(sp.diags([1.0, -1.0], format="csc", dtype=complex), 0.0)


def test_one_factorization_per_sector_and_shift(monkeypatch):
    # eigsh factors A - sigma I itself unless given OPinv; it calls the splu
    # that its own module imported, so that one is counted too
    arpack = sys.modules[spla.eigsh.__module__]
    calls, shifts = [], []
    original_splu, original_factor = spla.splu, landau._factor

    def counting_splu(A, *args, **kwargs):
        calls.append(A.shape)
        return original_splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    monkeypatch.setattr(arpack, "splu", counting_splu)
    monkeypatch.setattr(landau, "_factor", lambda Hq, shift: shifts.append(shift) or original_factor(Hq, shift))
    low_spectrum(landau_hamiltonian(Grid2D(2.0, 0.125)), k=12)  # no sector reruns
    assert len(calls) == 8 == len(shifts)
    assert shifts[:4] == [landau.SHIFT] * 4
    assert len(set(shifts[4:])) == 1 and shifts[4] > landau.SHIFT


def test_low_spectrum_rejects_asymmetric_operators():
    with pytest.raises(SymmetryError, match="square"):
        low_spectrum(sp.identity(1090, dtype=complex, format="csr"), k=4)
    H = landau_hamiltonian(small_grid()).tolil()
    H[0, 0] += 1e-12  # still Hermitian, no longer rotation-symmetric
    with pytest.raises(SymmetryError, match="rotation"):
        low_spectrum(H.tocsr(), k=4)
    # eps I J (I^2 - J^2), in site coordinates centred on the grid, keeps the
    # rotation (I, J) -> (-J, I) exactly and changes sign under J -> -J
    g = small_grid()
    i, j = np.divmod(np.arange(g.npoints), g.side)
    I, J = i - g.side // 2, j - g.side // 2
    potential = 1e-3 * (I * J * (I**2 - J**2))
    assert np.any(potential)
    with pytest.raises(SymmetryError, match="mirror"):
        rotation_sectors(landau_hamiltonian(g) + sp.diags(potential))
    with pytest.raises(ValueError, match="outside"):
        low_spectrum(landau_hamiltonian(small_grid()), k=landau.max_eig_count(1089) + 1)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid2D(4.0, 0.5)  # ratio 8 < 16
    g = small_grid()
    assert g.side == 33
    X, Y = g.coordinates()
    assert X[0] == Y[0] == -4.0 and X[-1] == Y[-1] == 4.0
    assert X.shape == Y.shape == (g.npoints,)


def _loop_laplacian(grid):
    # link by link over the sites, one hop and its conjugate at a time
    h, side = grid.spacing, grid.side
    X, Y = grid.coordinates()
    rows, cols, vals = [], [], []
    for i in range(side):
        for j in range(side):
            a = i * side + j
            links = []
            if i + 1 < side:
                links.append((a + side, h * Y[a]))
            if j + 1 < side:
                links.append((a + 1, -h * X[a]))
            for b, phase in links:
                rows += [a, b]
                cols += [b, a]
                vals += [-np.exp(1j * phase) / h**2, -np.exp(-1j * phase) / h**2]
    H = sp.csr_matrix((vals, (rows, cols)), shape=(grid.npoints,) * 2)
    return (H + sp.diags(np.full(grid.npoints, 4.0 / h**2, dtype=complex))).tocsr()


def test_magnetic_laplacian_matches_loop_assembly():
    g = Grid2D(2.5, 0.125)
    H, ref = magnetic_laplacian(g), _loop_laplacian(g)
    assert H.nnz == ref.nnz == g.npoints + 4 * (g.side - 1) * g.side
    assert np.array_equal(H.indptr, ref.indptr) and np.array_equal(H.indices, ref.indices)
    assert np.array_equal(H.data, ref.data)


def test_zero_gauge_reduces_to_five_point_laplacian():
    # the Peierls phases have modulus 1, so dropping them takes the entrywise
    # modulus; compared with an independent 5-point stencil via kron
    g = small_grid()
    H = magnetic_laplacian(g)
    side, h = g.side, g.spacing
    T = sp.diags([2.0 / h**2] * side) + sp.diags([-1.0 / h**2] * (side - 1), 1) + sp.diags(
        [-1.0 / h**2] * (side - 1), -1
    )
    I = sp.identity(side)
    ref = sp.kron(T, I) + sp.kron(I, T)
    assert abs(abs(H) - abs(ref)).max() < 1e-12


def test_hermitian_and_psd():
    g = small_grid()
    H = magnetic_laplacian(g)
    assert abs(H - H.getH()).max() < 1e-12
    smallest = sp.linalg.eigsh(H, k=1, sigma=-0.1, which="LM", return_eigenvectors=False)
    assert smallest[0] >= -1e-9


def test_gauge_covariance():
    # shifting the vector potential by a discrete gradient conjugates the
    # operator by a diagonal phase; rebuild the link assembly with the
    # shifted phases (test-side construction) and compare
    g = small_grid()
    h, side = g.spacing, g.side
    X, Y = g.coordinates()
    rng = np.random.default_rng(0)
    chi = rng.normal(size=g.npoints)

    def idx(i, j):
        return i * side + j

    rows, cols, vals = [], [], []
    diag = np.full(g.npoints, 4.0 / h**2, dtype=complex)

    def add_hop(a, b, phase):
        rows.extend([a, b])
        cols.extend([b, a])
        vals.extend([-np.exp(1j * phase) / h**2, -np.exp(-1j * phase) / h**2])

    for i in range(side):
        for j in range(side):
            a = idx(i, j)
            if i + 1 < side:
                add_hop(a, idx(i + 1, j), h * Y[a] + (chi[idx(i + 1, j)] - chi[a]))
            if j + 1 < side:
                add_hop(a, idx(i, j + 1), -h * X[a] + (chi[idx(i, j + 1)] - chi[a]))
    H_shifted = sp.csr_matrix((vals, (rows, cols)), shape=(g.npoints, g.npoints)) + sp.diags(diag)

    U = sp.diags(np.exp(1j * chi))
    H = magnetic_laplacian(g)
    conj = (U.getH() @ H @ U).tocsr()
    assert abs(H_shifted - conj).max() < 1e-10
    e1 = sorted(sp.linalg.eigsh(H, k=5, sigma=-0.1, which="LM", return_eigenvectors=False))
    e2 = sorted(sp.linalg.eigsh(H_shifted, k=5, sigma=-0.1, which="LM", return_eigenvectors=False))
    assert np.allclose(e1, e2, atol=1e-10)


def test_landau_levels_small_grid():
    g = small_grid()
    H = landau_hamiltonian(g)
    vals = low_spectrum(H, k=40)
    assert abs(vals[0]) < 0.05
    assert abs(cluster_center(vals, 1.0) - 1.0) < 0.15


def test_degeneracy_growth_with_area():
    # the count of states below the gap grows with the flux; the growth
    # between two domain sizes matches the flux growth within +-2
    # (the absolute count carries a perimeter-proportional edge deficit)
    counts, fluxes = [], []
    for L in (4.0, 6.0):
        g = Grid2D(L, 0.25)
        H = landau_hamiltonian(g)
        k = int(flux_count(g) * 1.3) + 12
        vals = low_spectrum(H, k=k)
        assert vals.max() > 0.5
        counts.append(int(np.sum(vals < 0.5)))
        fluxes.append(flux_count(g))
    growth = counts[1] - counts[0]
    flux_growth = fluxes[1] - fluxes[0]
    assert abs(growth - flux_growth) <= 2.0 + 1.0  # +-2 with edge-term slack


def test_cluster_center_rejects_empty_window():
    with pytest.raises(ValueError):
        cluster_center(np.array([5.0, 6.0]), 1.0)


def test_grid_strong_limit_decay():
    g = Grid2D(5.0, 0.25)
    sym = HamiltonianSymbol(1, sample("sp_c", 1, 0.3, 2))
    rows = grid_strong_limit(g, sym, [2.0, 6.0])
    assert rows[0][1] > rows[1][1] > 0 or rows[1][1] < 1e-6
    assert rows[1][1] < 0.05


def test_grid_strong_limit_zero_symbol():
    # pure dissipative semigroup: the evolved vacuum stays the vacuum
    g = Grid2D(5.0, 0.25)
    sym0 = HamiltonianSymbol(1, np.zeros((2, 2)))
    rows = grid_strong_limit(g, sym0, [4.0])
    assert rows[0][1] < 1e-4
