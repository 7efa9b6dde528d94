"""Finite-difference magnetic Laplacian on a square patch of the plane
(m = 1) and the grid-side strong-limit experiment.

The gauge field is the symplectic potential alpha = (y, -x), discretized
with Peierls link phases exp(i integral of alpha along the link); along
axis-parallel links the integrand is constant, so the phases are exact.
Dirichlet boundary (wavefunction zero outside the patch).  In the continuum
the quarter Laplacian minus 1/2 reproduces the b-mode number operator, so
its spectrum is the Landau ladder {0, 1, 2, ...} with edge states sprinkled
between clusters by the Dirichlet wall.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .cones import HamiltonianSymbol, hamiltonian_real_values
from .fock import _coherent_amplitudes, sector_h_A
from .linalg import expm

if TYPE_CHECKING:
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla


# the fewest spacings in a half width that Grid2D accepts
MIN_HALF_CELLS = 16


@dataclass(frozen=True)
class Grid2D:
    """Uniform lattice on [-L, L]^2 with spacing h; (2 floor(L/h) + 1)^2 points."""

    half_width: float
    spacing: float

    def __post_init__(self):
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")
        if self.half_width / self.spacing < MIN_HALF_CELLS:
            raise ValueError(f"grid too coarse: need half_width/spacing >= {MIN_HALF_CELLS}")

    @property
    def side(self) -> int:
        return 2 * int(self.half_width / self.spacing) + 1

    @property
    def npoints(self) -> int:
        return self.side**2

    def coordinates(self):
        """(X, Y) of every site, flattened: site (i, j) at index i*side + j."""
        r = int(self.half_width / self.spacing)
        axis = self.spacing * (np.arange(-r, r + 1))
        X, Y = np.meshgrid(axis, axis, indexing="ij")
        return X.ravel(), Y.ravel()


def magnetic_laplacian(grid: Grid2D) -> sp.csr_matrix:
    """Gauge-covariant 5-point discretization of -sum_k (d_k + i alpha_k)^2.

    Assembled as sum_k D_k^dagger D_k with covariant forward differences, so
    it is Hermitian positive semidefinite by construction.  The link phases
    have modulus 1, so the entrywise modulus is the standard Dirichlet
    5-point Laplacian.
    """
    import scipy.sparse as sp

    h = grid.spacing
    side = grid.side
    X, Y = grid.coordinates()
    N = grid.npoints
    i, j = np.divmod(np.arange(N), side)  # site (i, j) at index i*side + j
    # x-links (i, j) -> (i+1, j), where alpha_x = y is constant along the
    # link; y-links (i, j) -> (i, j+1), where alpha_y = -x
    ax, ay = np.flatnonzero(i + 1 < side), np.flatnonzero(j + 1 < side)
    a = np.concatenate([ax, ay])
    b = np.concatenate([ax + side, ay + 1])
    phase = np.concatenate([h * Y[ax], -h * X[ay]])
    # hop amplitude -e^{i phase}/h^2 from site b into site a, plus h.c.
    rows = np.concatenate([a, b])
    cols = np.concatenate([b, a])
    vals = np.concatenate([-np.exp(1j * phase) / h**2, -np.exp(-1j * phase) / h**2])
    diag = np.full(N, 4.0 / h**2, dtype=complex)
    H = sp.csr_matrix((vals, (rows, cols)), shape=(N, N))
    H = H + sp.diags(diag)
    return H.tocsr()


def landau_hamiltonian(grid: Grid2D) -> sp.csr_matrix:
    """The grid realization of the b-mode number operator: (1/4) Lap - 1/2."""
    import scipy.sparse as sp

    N = grid.npoints
    return (0.25 * magnetic_laplacian(grid) - 0.5 * sp.identity(N, format="csr")).tocsr()


class SymmetryError(ValueError):
    """The operator is not on a square grid, does not commute with the
    90-degree rotation of that grid, or is not conjugated by its mirror."""


class InertiaError(ArithmeticError):
    """The Sylvester inertia count does not certify a computed spectrum."""


# Each sector starts with a quarter of k plus this margin; a sector that the
# inertia count finds short reruns with half as many values again, at most
# RERUNS times.
SECTOR_MARGIN = 4
RERUNS = 3
# The cut sits in the first gap above the k-th value at least this wide,
# relative to max |H_ij|: the rounding in the pivots is of order
# eps max |H_ij|, and a narrower gap (the bulk of a Landau level is
# degenerate to 1e-15) cannot be resolved by an inertia count.
CUT_GAP_MIN = 1e-8
# low_spectrum's shift-invert target, below the spectrum (landau_hamiltonian >= -1/2)
SHIFT = -0.6
# cluster_center's search window about a level, and the width of a cluster
CLUSTER_WINDOW, CLUSTER_WIDTH = 0.45, 0.02
# the Fock cutoff of grid_strong_limit's prediction
PREDICTION_CUTOFF = 12
_I_POWERS = np.array([1, 1j, -1, -1j])
# a square root of each i^m, e^{i pi m / 4}
_SQRT_I_POWERS = np.array([1, (1 + 1j) / np.sqrt(2), 1j, (-1 + 1j) / np.sqrt(2)])


def rotation_sectors(H: sp.spmatrix) -> list[sp.csc_matrix]:
    """H restricted to the four eigenspaces of the 90-degree grid rotation R,
    each as a real symmetric matrix.

    The side of the grid is isqrt(N), with site (i, j) at index i*side + j,
    and R maps (x, y) to (-y, x).  The columns b_a of B_q, one per orbit of
    R, are (1/2) sum_s i^{-qs} e_{R^s a} (a the orbit's smallest index):
    R B_q = i^q B_q.  The mirror F, (i, j) -> (i, side-1-j), has F R F = R^-1
    and F H F^T = conj(H), so T = F K (K complex conjugation, T^2 = 1)
    commutes with H and maps sector q to itself: T b_a = i^{q t(a)} b_{pi(a)}
    where F a = R^{t(a)} pi(a) and pi is an involution on the orbits.  The
    columns of W_q, sqrt(i^{q t(a)}) b_a for pi(a) = a and (b_a + T b_a)/sqrt 2,
    i (b_a - T b_a)/sqrt 2 for a < pi(a), are fixed by T, so entry q,
    (B_q W_q)^H H B_q W_q, is real; it is returned as float64 CSC, averaged
    with its transpose against the rounding.  The sites fixed by R (the
    centre of an odd grid) add unit columns to sector 0.  The four spectra
    together are the spectrum of H.  Raises ``SymmetryError`` unless N is a
    square and R H R^T == H and F H F^T == conj(H) hold exactly, and if a
    sector keeps a nonzero imaginary part.
    """
    import scipy.sparse as sp

    N = H.shape[0]
    side = isqrt(N)
    if side * side != N:
        raise SymmetryError(f"{N} points do not make a square grid")
    i, j = np.divmod(np.arange(N), side)
    s1 = (side - 1 - j) * side + i  # the index of R e_a
    f = i * side + side - 1 - j  # the index of F e_a
    # R^T H R has entries H[s1[a], s1[b]], and likewise for F
    H = H.tocsr()
    if (H[s1][:, s1] != H).nnz:
        raise SymmetryError("H does not commute with the 90-degree grid rotation")
    if (H[f][:, f] != H.conj()).nnz:
        raise SymmetryError("the grid mirror does not map H to its conjugate")
    orbit = [np.arange(N), s1, s1[s1], s1[s1[s1]]]
    reps = np.flatnonzero((orbit[0] < orbit[1]) & (orbit[0] < orbit[2]) & (orbit[0] < orbit[3]))
    fixed = np.flatnonzero(s1 == orbit[0])
    n = reps.size
    # site R^s reps[c] lies in column c at power s
    column, power = np.zeros(N, dtype=int), np.zeros(N, dtype=int)
    for s, o in enumerate(orbit):
        column[o[reps]], power[o[reps]] = np.arange(n), s
    pi, t = column[f[reps]], power[f[reps]]
    a = np.arange(n)
    own, lo = np.flatnonzero(pi == a), np.flatnonzero(a < pi)
    hi = pi[lo]
    rows = np.concatenate([o[reps] for o in orbit])
    cols = np.tile(a, 4)
    w_rows = np.concatenate([own, lo, hi, lo, hi])
    w_cols = np.concatenate([own, lo, lo, hi, hi])
    centre = sp.csr_matrix((np.ones(fixed.size), (fixed, np.arange(fixed.size))), shape=(N, fixed.size))
    sectors = []
    for q in range(4):
        B = sp.csr_matrix((np.repeat(_I_POWERS[(-q * np.arange(4)) % 4], n) / 2, (rows, cols)), shape=(N, n))
        phase, root_half = _I_POWERS[(q * t[lo]) % 4] / np.sqrt(2), np.full(lo.size, 1 / np.sqrt(2))
        w_vals = np.concatenate([_SQRT_I_POWERS[(q * t[own]) % 4], root_half, phase, 1j * root_half, -1j * phase])
        V = B @ sp.csr_matrix((w_vals, (w_rows, w_cols)), shape=(n, n))
        if q == 0 and fixed.size:
            V = sp.hstack([V, centre], format="csr")
        Hq = (V.conj().T @ H @ V).tocsc()
        if np.any(Hq.data.imag):
            raise SymmetryError(f"sector {q} is not real: max |Im| = {np.abs(Hq.data.imag).max():.3g}")
        Hq = Hq.real
        sectors.append(((Hq + Hq.T) / 2).tocsc())
    return sectors


def max_eig_count(npoints: int) -> int:
    """The largest k that ``low_spectrum`` takes on an npoints-site grid:
    every sector must hold its first k_q plus the two ARPACK needs."""
    return 4 * ((npoints - 1) // 4 - 2 - SECTOR_MARGIN)


def _sector_k(k: int, n: int, rerun: int) -> int:
    """The k_q that ``low_spectrum`` asks of an n-site sector for the lowest
    k on run ``rerun`` (0 the first): ceil(k/4) + SECTOR_MARGIN, grown by
    half on each rerun to at most n - 2."""
    kq = -(-k // 4) + SECTOR_MARGIN
    for _ in range(rerun):
        kq = min(kq + kq // 2, n - 2)
    return kq


def lanczos_bytes(npoints: int, k: int) -> int:
    """The most bytes of Lanczos basis that ``low_spectrum`` asks for the
    lowest k on an npoints-site grid.  scipy's eigsh allocates an
    n x max(2 k_q + 1, 20) float64 basis for k_q values of an n-site real
    sector before it clips to n; k_q is largest on the last of RERUNS
    reruns, and the largest sector has (npoints - 1) // 4 + 1 sites."""
    n = (npoints - 1) // 4 + 1
    return 8 * n * max(2 * _sector_k(k, n, RERUNS) + 1, 20)


def _factor(Hq: sp.csc_matrix, shift: float) -> spla.SuperLU:
    """The sparse LU of the real symmetric Hq - shift I with one row and
    column permutation: minimum degree on the pattern of A^T + A, diagonal
    pivots only.  Raises ``TypeError`` for a complex Hq, and
    ``InertiaError`` on a zero pivot or one off the diagonal."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    if np.iscomplexobj(Hq.data):
        raise TypeError(f"a real symmetric sector is needed, not {Hq.dtype}")
    shifted = (Hq - shift * sp.identity(Hq.shape[0], format="csc")).tocsc()
    try:
        lu = spla.splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise InertiaError(f"no factorization at shift {shift}: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise InertiaError(f"the factorization at shift {shift} pivoted off the diagonal")
    return lu


def _sector_low(Hq: sp.csc_matrix, k: int) -> np.ndarray:
    import scipy.sparse.linalg as spla

    n = Hq.shape[0]
    solve = spla.LinearOperator((n, n), matvec=_factor(Hq, SHIFT).solve, dtype=float)
    # a fixed real normal start vector, so that a run repeats exactly
    v0 = np.random.default_rng(0).normal(size=n)
    vals = spla.eigsh(Hq, k=k, sigma=SHIFT, which="LM", v0=v0, OPinv=solve, return_eigenvectors=False)
    return np.sort(vals)


def count_below(Hq: sp.spmatrix, cut: float) -> int:
    """The number of eigenvalues of the real symmetric Hq below ``cut``, by
    Sylvester's law of inertia.

    With the same row and column permutation P, P (Hq - cut I) P^T = L U
    with L unit lower triangular is the congruence L D L^T, D = diag(U), so
    Hq - cut I and D have the same number of negative values.  ``_factor``
    does not pivot for stability, so raises ``InertiaError`` when it
    pivots off the diagonal or meets a zero pivot, and ``TypeError`` for a
    complex Hq, whose pivots numpy's complex ordering would misread.
    """
    return int(np.sum(_factor(Hq, cut).U.diagonal() < 0))


def low_spectrum(H: sp.csr_matrix, k: int) -> np.ndarray:
    """Lowest k eigenvalues of a rotation-symmetric grid operator, by
    shift-invert Lanczos (about SHIFT, below the spectrum) in each rotation sector.

    ``rotation_sectors`` splits H into four real symmetric blocks of about
    N/4 (raising ``SymmetryError`` for a non-square N, or an H that does not
    commute with the rotation or that the mirror does not conjugate).  Each
    block gives its lowest ceil(k/4) + SECTOR_MARGIN values by symmetric
    Lanczos on the solves of one ``_factor`` at SHIFT, from a fixed real
    start vector, so a run repeats exactly; the lowest k of the merged
    values are the result.  They are certified by a cut
    halfway across the first gap between consecutive merged values, from the
    k-th on, that is at least CUT_GAP_MIN max |H_ij| wide (mostly the gap
    between the k-th and (k+1)-th): in every sector the inertia count below
    the cut (``count_below``) must equal the number of computed values below
    it.  A sector that falls short, because Lanczos missed a value of a
    near-degenerate cluster or stopped below the cut, reruns with half as
    many values again, and so does every sector when no gap is wide enough;
    after RERUNS reruns, or on a count above the computed one,
    ``InertiaError`` is raised.  k must lie in [1, max_eig_count(N)].
    """
    if not 1 <= k <= max_eig_count(H.shape[0]):
        raise ValueError(f"k = {k} outside [1, {max_eig_count(H.shape[0])}] for N = {H.shape[0]}")
    sectors = rotation_sectors(H)
    min_gap = CUT_GAP_MIN * abs(H).max()
    reruns = [0] * 4
    vals = [_sector_low(Hq, _sector_k(k, Hq.shape[0], 0)) for Hq in sectors]
    for rerun in range(RERUNS + 1):
        merged = np.sort(np.concatenate(vals))
        wide = np.flatnonzero(np.diff(merged[k - 1:]) >= min_gap)
        if not wide.size:
            cut, short = None, [0, 1, 2, 3]
        else:
            cut = (merged[k - 1 + wide[0]] + merged[k + wide[0]]) / 2
            short = []
            for q, Hq in enumerate(sectors):
                found, count = int(np.sum(vals[q] < cut)), count_below(Hq, cut)
                if count < found:
                    raise InertiaError(f"sector {q}: {found} computed values below {cut} but an inertia count of {count}")
                if count > found:
                    short.append(q)
            if not short:
                return merged[:k]
        if rerun < RERUNS:
            for q in short:
                reruns[q] += 1
                vals[q] = _sector_low(sectors[q], _sector_k(k, sectors[q].shape[0], reruns[q]))
    where = f"no gap of {min_gap:.3g} above value {k}" if cut is None else f"short below the cut {cut}"
    raise InertiaError(f"sectors {short} stay uncertified ({where}) after {RERUNS} reruns")


def cluster_center(eigs: np.ndarray, near: float) -> float:
    """Center of the densest eigenvalue cluster within CLUSTER_WINDOW of
    ``near`` (robust against the sparse ladder of Dirichlet edge states)."""
    window = eigs[(eigs > near - CLUSTER_WINDOW) & (eigs < near + CLUSTER_WINDOW)]
    if window.size == 0:
        raise ValueError(f"no eigenvalues within {CLUSTER_WINDOW} of {near}")
    counts = np.array([np.sum(np.abs(window - e) <= CLUSTER_WIDTH) for e in window])
    seed = window[np.argmax(counts)]
    cluster = window[np.abs(window - seed) <= CLUSTER_WIDTH]
    return float(np.median(cluster))


def flux_count(grid: Grid2D) -> float:
    """Expected lowest-Landau-level degeneracy: |B| Area / (2 pi), |B| = 2."""
    area = (2 * grid.half_width) ** 2
    return 2.0 * area / (2 * np.pi)


def _fock_prediction_on_grid(grid: Grid2D, sym: HamiltonianSymbol) -> np.ndarray:
    """exp(E_b h E_b) E_b Omega_0 from the Fock side, sampled on the grid via
    the b-vacuum wavefunctions z^j e^{-|z|^2/2}/sqrt(pi j!)."""
    # the vacuum is the first of the sector's states |j, 0>, j = 0..cutoff-1
    coeff = expm(sector_h_A(PREDICTION_CUTOFF, sym))[:, 0]
    X, Y = grid.coordinates()
    return coeff @ _coherent_amplitudes(X + 1j * Y, PREDICTION_CUTOFF) / np.sqrt(np.pi)


def grid_strong_limit(grid: Grid2D, sym: HamiltonianSymbol, nu_list: Sequence[float]) -> list[tuple[float, float]]:
    """Evolve the discretized vacuum by exp(h_A - nu ((1/4)Lap - 1/2)) and
    report, per nu, the overlap deviation 1 - |<grid, fock>| between the
    L2-normalized grid vector and the Fock-side prediction.

    This is a report-producing experiment; the contract is qualitative
    decay of the deviation in nu until discretization error dominates.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    target = _fock_prediction_on_grid(grid, sym)
    target = target / np.linalg.norm(target)
    X, Y = grid.coordinates()
    pts = np.stack([X, Y], axis=1)
    hvals = -1j * hamiltonian_real_values(sym, pts)  # h_A is pure imaginary
    Hnum = landau_hamiltonian(grid)
    psi0 = np.exp(-(X**2 + Y**2) / 2) / np.sqrt(np.pi)

    rows = []
    for nu in nu_list:
        gen = sp.diags(hvals) - nu * Hnum
        evolved = spla.expm_multiply(gen.tocsc(), psi0.astype(complex))
        norm = np.linalg.norm(evolved)
        if not np.isfinite(norm) or norm == 0:
            raise FloatingPointError(f"evolution ill-conditioned at nu = {nu}")
        deviation = 1.0 - abs(np.vdot(evolved / norm, target))
        rows.append((float(nu), float(deviation)))
    return rows
