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
from math import factorial
from typing import Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .cones import HamiltonianSymbol, hamiltonian_real_values
from .fock import FockSpace, antinormal_quantize, h_A_operator, number_ops, vacuum_state
from .linalg import expm


@dataclass(frozen=True)
class Grid2D:
    """Uniform lattice on [-L, L]^2 with spacing h; (2 floor(L/h) + 1)^2 points."""

    half_width: float
    spacing: float

    def __post_init__(self):
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")
        if self.half_width / self.spacing < 16:
            raise ValueError("grid too coarse: need half_width/spacing >= 16")

    @property
    def side(self) -> int:
        return 2 * int(self.half_width / self.spacing) + 1

    @property
    def npoints(self) -> int:
        return self.side**2

    def coordinates(self):
        """(x, y) arrays of shape (side,) and the flattened meshgrid."""
        r = int(self.half_width / self.spacing)
        axis = self.spacing * (np.arange(-r, r + 1))
        X, Y = np.meshgrid(axis, axis, indexing="ij")
        return axis, X.ravel(), Y.ravel()


def magnetic_laplacian(grid: Grid2D, with_gauge: bool = True) -> sp.csr_matrix:
    """Gauge-covariant 5-point discretization of -sum_k (d_k + i alpha_k)^2.

    Assembled as sum_k D_k^dagger D_k with covariant forward differences, so
    it is Hermitian positive semidefinite by construction.  With
    ``with_gauge=False`` the phases are dropped and the standard Dirichlet
    5-point Laplacian results.
    """
    h = grid.spacing
    side = grid.side
    _, X, Y = grid.coordinates()
    N = grid.npoints

    def idx(i, j):
        return i * side + j

    rows, cols, vals = [], [], []

    def add_hop(a, b, phase):
        # hop amplitude -e^{i phase}/h^2 from site b into site a, plus h.c.
        rows.append(a)
        cols.append(b)
        vals.append(-np.exp(1j * phase) / h**2)
        rows.append(b)
        cols.append(a)
        vals.append(-np.exp(-1j * phase) / h**2)

    diag = np.full(N, 4.0 / h**2, dtype=complex)
    for i in range(side):
        for j in range(side):
            a = idx(i, j)
            if i + 1 < side:
                # x-link: alpha_x = y, constant along the link
                phase = h * Y[a] if with_gauge else 0.0
                add_hop(a, idx(i + 1, j), phase)
            if j + 1 < side:
                # y-link: alpha_y = -x
                phase = -h * X[a] if with_gauge else 0.0
                add_hop(a, idx(i, j + 1), phase)
    H = sp.csr_matrix((vals, (rows, cols)), shape=(N, N))
    H = H + sp.diags(diag)
    return H.tocsr()


def landau_hamiltonian(grid: Grid2D) -> sp.csr_matrix:
    """The grid realization of the b-mode number operator: (1/4) Lap - 1/2."""
    N = grid.npoints
    return (0.25 * magnetic_laplacian(grid) - 0.5 * sp.identity(N, format="csr")).tocsr()


def low_spectrum(H: sp.csr_matrix, k: int, sigma: float = -0.6) -> np.ndarray:
    """Lowest k eigenvalues via shift-invert Lanczos (sigma below the spectrum).

    Lanczos starts from a fixed complex normal vector, so a run repeats
    exactly.  A constant start vector would not do: it is invariant under the
    90-degree grid rotation, which commutes with H, and would confine the
    Krylov space to one symmetry sector.
    """
    rng = np.random.default_rng(0)
    v0 = rng.normal(size=H.shape[0]) + 1j * rng.normal(size=H.shape[0])
    vals = spla.eigsh(H, k=k, sigma=sigma, which="LM", v0=v0, return_eigenvectors=False)
    return np.sort(vals.real)


def cluster_center(eigs: np.ndarray, near: float, halfwidth: float = 0.45, width: float = 0.02) -> float:
    """Center of the densest eigenvalue cluster within ``halfwidth`` of
    ``near`` (robust against the sparse ladder of Dirichlet edge states)."""
    window = eigs[(eigs > near - halfwidth) & (eigs < near + halfwidth)]
    if window.size == 0:
        raise ValueError(f"no eigenvalues within {halfwidth} of {near}")
    counts = np.array([np.sum(np.abs(window - e) <= width) for e in window])
    seed = window[np.argmax(counts)]
    cluster = window[np.abs(window - seed) <= width]
    return float(np.median(cluster))


def flux_count(grid: Grid2D) -> float:
    """Expected lowest-Landau-level degeneracy: |B| Area / (2 pi), |B| = 2."""
    area = (2 * grid.half_width) ** 2
    return 2.0 * area / (2 * np.pi)


def _fock_prediction_on_grid(grid: Grid2D, sym: HamiltonianSymbol, t: float, cutoff: int) -> np.ndarray:
    """exp(E_b h E_b) E_b Omega_0 from the Fock side, sampled on the grid via
    the b-vacuum wavefunctions z^j e^{-|z|^2/2}/sqrt(pi j!)."""
    space = FockSpace(1, cutoff)
    G = antinormal_quantize(space, t * h_A_operator(space, sym))
    _, _, E_b = number_ops(space)
    phi = expm(G) @ (E_b @ vacuum_state(space))
    coeff = phi.reshape(cutoff, cutoff)[:, 0]  # b-occupation zero column
    _, X, Y = grid.coordinates()
    z = X + 1j * Y
    out = np.zeros_like(z, dtype=complex)
    env = np.exp(-np.abs(z) ** 2 / 2)
    for j, c in enumerate(coeff):
        if c != 0:
            out += c * z**j * env / np.sqrt(np.pi * float(factorial(j)))
    return out


def grid_strong_limit(
    grid: Grid2D,
    sym: HamiltonianSymbol,
    nu_list: Sequence[float],
    t: float = 1.0,
    cutoff: int = 12,
) -> list[tuple[float, float]]:
    """Evolve the discretized vacuum by exp(t h_A - nu ((1/4)Lap - 1/2)) and
    report, per nu, the overlap deviation 1 - |<grid, fock>| between the
    L2-normalized grid vector and the Fock-side prediction.

    This is a report-producing experiment; the contract is qualitative
    decay of the deviation in nu until discretization error dominates.
    """
    if sym.m != 1:
        raise ValueError("grid experiment is m = 1 only")
    h = grid.spacing
    _, X, Y = grid.coordinates()
    pts = np.stack([X, Y], axis=1)
    hvals = -1j * hamiltonian_real_values(sym, pts)  # h_A is pure imaginary
    Hnum = landau_hamiltonian(grid)
    psi0 = np.exp(-(X**2 + Y**2) / 2) / np.sqrt(np.pi)
    target = _fock_prediction_on_grid(grid, sym, t, cutoff)
    target = target / np.linalg.norm(target)

    rows = []
    for nu in nu_list:
        gen = sp.diags(t * hvals) - nu * Hnum
        evolved = spla.expm_multiply(gen.tocsc(), psi0.astype(complex))
        norm = np.linalg.norm(evolved)
        if not np.isfinite(norm) or norm == 0:
            raise FloatingPointError(f"evolution ill-conditioned at nu = {nu}")
        deviation = 1.0 - abs(np.vdot(evolved / norm, target))
        rows.append((float(nu), float(deviation)))
    return rows
