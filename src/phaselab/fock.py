"""Truncated bosonic Fock space over one mode pair (a, b) and the
quantization machinery on it: quadratic generators, the b-vacuum compression
(antinormal quantization), coherent states, quadrature quantization, and the
strong-limit experiment.

Operators are plain complex ndarrays on the D^2-dimensional truncated space
(per-mode occupation 0..D-1, the a-mode left of the b-mode in the tensor
product).  CCR-derived identities hold exactly on the "safe band" of
occupations away from the cutoff and are only ever asserted there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Callable, Sequence

import numpy as np

from .cones import HamiltonianSymbol, hamiltonian_real_values, make_structural
from .linalg import ShapeError, expm


class TruncationError(ValueError):
    """Raised when a request exceeds what the cutoff can represent."""


class ConvergenceGuardError(RuntimeError):
    """Raised when a declared cutoff-convergence guard is violated: the
    values at two cutoffs differ by ``delta``, not less than ``guard``."""

    def __init__(self, delta: float, guard: float):
        self.delta = delta
        self.guard = guard
        super().__init__(f"cutoff not converged: |delta| = {delta:.2e} >= {guard:.2e}")


SAFE_BAND_MASS = 1e-2
# resolution_check's disc radius and the largest a-occupation it compares
QUAD_RADIUS, QUAD_MAX_OCC = 6.0, 3
COHERENT_BOUND = 1e-6
# vacuum_expectation quantizes the clipped symbol on this disc and lattice
CLIP_RADIUS, CLIP_GRID = 8.0, 320
# vacuum_expectation's values at cutoffs D and D + 2 agree within this
VACUUM_GUARD = 1e-4


@dataclass(frozen=True)
class FockSpace:
    """Truncated Fock space of the mode pair (a, b), per-mode occupation < cutoff."""

    cutoff: int

    def __post_init__(self):
        if self.cutoff < 2:
            raise ValueError("cutoff must be >= 2")

    @property
    def dim(self) -> int:
        return self.cutoff ** 2


def _ladder(D: int) -> np.ndarray:
    a = np.zeros((D, D), dtype=complex)
    for j in range(D - 1):
        a[j, j + 1] = np.sqrt(j + 1)
    return a


@lru_cache(maxsize=None)
def _mode_annihilators(D: int) -> tuple:
    a1, I = _ladder(D), np.eye(D)
    ops = (np.kron(a1, I), np.kron(I, a1))
    for out in ops:
        out.flags.writeable = False  # cached and shared
    return ops


def annihilator(space: FockSpace, k: int) -> np.ndarray:
    """a for k = 1 and b for k = 2, built once per cutoff and shared, so
    read-only."""
    if k not in (1, 2):
        raise ShapeError(f"mode index {k} out of range 1..2")
    return _mode_annihilators(space.cutoff)[k - 1]


def creator(space: FockSpace, k: int) -> np.ndarray:
    return annihilator(space, k).conj().T


@lru_cache(maxsize=None)
def _occupation_diagonals(D: int) -> np.ndarray:
    """(2, D^2) array of the a- and b-occupation numbers along the diagonal."""
    j = np.arange(D)
    occ = np.stack([np.repeat(j, D), np.tile(j, D)]).astype(float)
    occ.flags.writeable = False  # cached and shared
    return occ


def band_indices(space: FockSpace, max_occ: int) -> np.ndarray:
    """Indices of the basis states with both occupations <= max_occ: the
    safe band on which CCR-derived identities are exact."""
    return np.flatnonzero(_occupation_diagonals(space.cutoff).max(axis=0) <= max_occ)


def _b_vacuum(space: FockSpace) -> np.ndarray:
    """Boolean mask of the b-vacuum sector ran E_b = ker N_b: the basis
    states |j, 0> (D of the D^2)."""
    return _occupation_diagonals(space.cutoff)[1] == 0


def z_op(space: FockSpace) -> np.ndarray:
    """The normal operator Z = a* + b."""
    if space.cutoff < 3:
        raise TruncationError("z_op needs cutoff >= 3")
    return creator(space, 1) + annihilator(space, 2)


def _quadratic(row_ops, col_ops, M: np.ndarray) -> np.ndarray:
    """sum_ij M_ij row_i col_j, with one operator product per row:
    row_i (sum_j M_ij col_j)."""
    dim = row_ops[0].shape[0]
    out = np.zeros((dim, dim), dtype=complex)
    for row, coeffs in zip(row_ops, M):
        if np.any(coeffs):
            out += row @ sum(c * col for c, col in zip(coeffs, col_ops) if c != 0)
    return out


def drho(space: FockSpace, A) -> np.ndarray:
    """The quadratic generator (1/2) a* Ical A a, with the doubled vector
    a = (a*, b*, a, b)^T and Ical = diag(-I_2, I_2).

    Skew-adjoint on the safe band for A in sp_c(4,R).  Linear in A, so it
    extends to the complexification; e.g. the doubled number matrix
    N_b = diag(0,1,0,-1) (which lies in i.sp_c) maps to -(N_b + 1/2).
    """
    A = np.asarray(A, dtype=complex)
    if A.shape != (4, 4):
        raise ShapeError("expected shape (4, 4)")
    a, b = _mode_annihilators(space.cutoff)
    # the entries of the conjugate row (a, b, a*, b*); the doubled column
    # has them in the order (a*, b*, a, b)
    row = [a, b, a.conj().T, b.conj().T]
    return _quadratic(row, row[2:] + row[:2], 0.5 * (make_structural(2).Ical @ A))


def antinormal_quantize(space: FockSpace, X) -> np.ndarray:
    """The compression E_b X E_b as an operator on ran E_b = ker N_b: the
    D x D block of X on the b-vacuum basis states, in their order in the
    full space (the vacuum first).  Those states are |j, 0> with j running
    over the a-occupations, so the block is in a-mode Fock coordinates.
    E_b X E_b vanishes off ran E_b, so exp(E_b X E_b) is the expm of this
    block on ran E_b and the identity elsewhere."""
    X = np.asarray(X, dtype=complex)
    if X.shape != (space.dim, space.dim):
        raise ShapeError("operator dimension mismatch")
    idx = np.flatnonzero(_b_vacuum(space))
    return X[np.ix_(idx, idx)]


def h_A_operator(space: FockSpace, sym: HamiltonianSymbol) -> np.ndarray:
    """The symbol evaluated on Z: (1/2) (Z, Z*) Ical A (Z*, Z)^T.

    Agrees with drho(hat_lift(sym)) on the safe band.
    """
    if sym.m != 1:
        raise ShapeError(f"the Fock space has one mode pair: need a symbol with m = 1, not {sym.m}")
    Z = z_op(space)
    row = [Z, Z.conj().T]
    return _quadratic(row, row[::-1], 0.5 * (make_structural(1).Ical @ sym.A))


def sector_h_A(space: FockSpace, sym: HamiltonianSymbol) -> np.ndarray:
    """E_b h_A(Z) E_b as the D x D operator on ran E_b, in the coordinates
    of ``antinormal_quantize``: the antinormally ordered quantization of the
    symbol, built from the a-mode alone.

    On ran E_b, Z E_b = a* E_b, E_b Z* = E_b a and E_b b b* E_b = E_b, so
    h_A's quadratic in (Z, Z*) becomes the same quadratic in (a*, a), plus
    M[0, 0] from the Z Z* term, M = (1/2) Ical A.  On ran E_b, a is the
    one-mode ladder.  Exact on the whole truncated space.
    """
    if sym.m != 1:
        raise ShapeError(f"the Fock space has one mode pair: need a symbol with m = 1, not {sym.m}")
    M = 0.5 * (make_structural(1).Ical @ sym.A)
    a = _ladder(space.cutoff)
    ac = a.conj().T
    return _quadratic([ac, a], [a, ac], M) + M[0, 0] * np.eye(space.cutoff)


def vacuum_state(space: FockSpace) -> np.ndarray:
    vec = np.zeros(space.dim, dtype=complex)
    vec[0] = 1.0
    return vec


def basis_state(space: FockSpace, occupations: Sequence[int]) -> np.ndarray:
    """Occupation-basis vector |j_a, j_b> (the a-mode leftmost)."""
    if len(occupations) != 2:
        raise ShapeError("need 2 occupation numbers")
    D = space.cutoff
    idx = 0
    for j in occupations:
        if not 0 <= j < D:
            raise TruncationError(f"occupation {j} outside 0..{D - 1}")
        idx = idx * D + j
    vec = np.zeros(space.dim, dtype=complex)
    vec[idx] = 1.0
    return vec


def coherent_truncation_bound(space: FockSpace, z: complex) -> float:
    """Bound on || (a - z) Omega_z || from the series tail at the cutoff."""
    D = space.cutoff
    return float(abs(z) ** D / np.sqrt(float(factorial(D - 1))))


def coherent(space: FockSpace, z: complex) -> np.ndarray:
    """Truncated coherent state vector of amplitude z in the a-mode
    tensored with the b-vacuum.  Raises TruncationError when the
    truncation-error bound exceeds COHERENT_BOUND.
    """
    err = coherent_truncation_bound(space, z)
    if err > COHERENT_BOUND:
        raise TruncationError(
            f"coherent amplitude too large for cutoff {space.cutoff} "
            f"(error bound {err:.2e} > {COHERENT_BOUND:.2e})"
        )
    amps = _coherent_amplitudes(np.array([z], dtype=complex), space.cutoff)[:, 0]
    # the b-vacuum states are the a-mode basis states, in the same order
    vec = np.zeros(space.dim, dtype=complex)
    vec[_b_vacuum(space)] = amps / np.linalg.norm(amps)
    return vec


def strong_limit_run(space: FockSpace, sym: HamiltonianSymbol, nu_list: Sequence[float],
                     vectors: Sequence[np.ndarray]) -> list[tuple[float, list[float]]]:
    """Residual table for the strong-limit theorem: for each nu,

        r(nu) = || exp(h_A(Z) - nu N_b) psi - exp(E_b h_A(Z) E_b) E_b psi ||

    per test vector.  Vectors must lie in ran E_b and be essentially
    supported on occupations <= cutoff/3: mass beyond that band must stay
    below SAFE_BAND_MASS (a hard support cutoff would exclude coherent states,
    whose tails are small but nowhere zero).  r(nu) decays like ||A||/nu.

    Quadratic generators and N_b conserve the parity of the total
    occupation, so h_A(Z) - nu N_b is block-diagonal in the even and odd
    sectors and is exponentiated block by block.
    """
    b_vac = _b_vacuum(space)
    occ = _occupation_diagonals(space.cutoff)
    N_b = occ[1]
    parity = [np.flatnonzero(occ.sum(axis=0) % 2 == r) for r in (0, 1)]
    safe = occ.max(axis=0) <= space.cutoff / 3
    vectors = [np.asarray(psi, dtype=complex) for psi in vectors]
    for psi in vectors:
        if psi.shape != (space.dim,):
            raise ShapeError(f"test vector must have shape ({space.dim},), not {psi.shape}")
        if np.linalg.norm(psi[~b_vac]) > 1e-12:
            raise ValueError("test vector not in ran E_b")
        if np.linalg.norm(psi[~safe]) > SAFE_BAND_MASS:
            raise TruncationError("test vector occupies the unsafe band")
    H = h_A_operator(space, sym)
    block = expm(sector_h_A(space, sym))
    targets = []
    for p in vectors:
        t = np.zeros(space.dim, dtype=complex)
        t[b_vac] = block @ p[b_vac]
        targets.append(t)
    rows = []
    for nu in nu_list:
        images = [np.zeros(space.dim, dtype=complex) for _ in vectors]
        for idx in parity:
            U = expm(H[np.ix_(idx, idx)] - np.diag(nu * N_b[idx]))
            for p, out in zip(vectors, images):
                out[idx] = U @ p[idx]
        rows.append((float(nu), [float(np.linalg.norm(u - t)) for u, t in zip(images, targets)]))
    return rows


# ---------------------------------------------------------------------------
# quadrature quantization on the disc

def _disc_grid(radius: float, grid: int):
    """Midpoint lattice on [-R, R]^2 masked to the disc |z| <= R."""
    h = 2.0 * radius / grid
    centers = -radius + h * (np.arange(grid) + 0.5)
    X, Y = np.meshgrid(centers, centers, indexing="ij")
    z = (X + 1j * Y).ravel()
    mask = np.abs(z) <= radius
    return z[mask], h * h / np.pi  # measure dmu = dx dy / pi


def _coherent_amplitudes(z: np.ndarray, D: int) -> np.ndarray:
    """Gaussian coherent amplitudes C[j, g] = e^{-|z_g|^2/2} z_g^j / sqrt(j!),
    one contiguous row per occupation j, by C[j] = C[j-1] z / sqrt(j).

    These are the amplitudes of the exact (infinite-dimensional, normalized)
    coherent states, truncated.  Renormalizing the truncated rows instead
    would inflate the |z| > sqrt(cutoff) region and destroy the resolution
    of identity, so the tail mass is deliberately left missing; it only
    affects occupations near the cutoff.
    """
    C = np.empty((D, z.size), dtype=complex)
    C[0] = np.exp(-np.abs(z) ** 2 / 2)
    for j in range(1, D):
        np.multiply(C[j - 1], z / np.sqrt(j), out=C[j])
    return C


def quantize_integral(
    space: FockSpace, f: Callable[[np.ndarray], np.ndarray], radius: float, grid: int
) -> np.ndarray:
    """Quadrature quantization Q(f) = integral of f(z) p_z dmu(z) over the
    disc |z| <= radius, with p_z the (normalized, truncated) coherent-state
    projector.  Midpoint rule on a grid x grid lattice.

    p_z lies in ran E_b, so Q(f) is returned as the D x D operator there, in
    the coordinates of ``antinormal_quantize``: entry (j, k) is
    <j, 0| Q(f) |k, 0>."""
    from scipy.linalg.blas import zgemm

    D = space.cutoff
    z, w = _disc_grid(radius, grid)
    C = _coherent_amplitudes(z, D)
    fvals = np.asarray(f(z), dtype=complex).reshape(-1)
    if fvals.shape != z.shape:
        raise ShapeError("f must map the grid to one value per point")
    # Q = (C w f) C^H, as the transpose of conj(C) (C w f)^T: BLAS reads
    # the Fortran-ordered C.T conjugate-transposed in place, where C.conj()
    # would copy the whole table
    return zgemm(1.0, C.T, (C * (w * fvals)).T, trans_a=2).T


def resolution_check(space: FockSpace, grid: int) -> float:
    """Distance || integral p_z dmu - E_b || over |z| <= QUAD_RADIUS, on the
    block of a-occupation <= QUAD_MAX_OCC (inside the b-vacuum sector)."""
    if grid < 100:
        raise ValueError("resolution check needs grid >= 100")
    Q = quantize_integral(space, lambda z: np.ones_like(z, dtype=complex), QUAD_RADIUS, grid)
    block = Q[: QUAD_MAX_OCC + 1, : QUAD_MAX_OCC + 1]
    return float(np.linalg.norm(block - np.eye(len(block)), 2))


def vacuum_expectation(space: FockSpace, sym: HamiltonianSymbol, tau: float | None = None) -> complex:
    """<Omega_0 | exp(E_b h_A(Z) E_b) Omega_0>, or with h_A replaced by the
    quadrature quantization of the tau-clipped symbol.

    The modulus never exceeds 1 (the compressed generator is skew-adjoint on
    the b-vacuum sector).  The value is recomputed at cutoff + 2 and must
    agree within VACUUM_GUARD, else ConvergenceGuardError.
    The quadrature route runs once, at the larger cutoff: its amplitude
    table at cutoff D is the first D rows of the table at D + 2, so the
    sector generator at D is the leading D x D block of the one at D + 2.
    """
    D = space.cutoff
    cutoffs = (D, D + 2)
    spaces = [FockSpace(c) for c in cutoffs]
    if tau is None:
        gens = [sector_h_A(sp, sym) for sp in spaces]
    else:
        top = -1j * quantize_integral(
            spaces[-1], lambda z: hamiltonian_real_values(sym, np.stack([z.real, z.imag], axis=1), tau),
            CLIP_RADIUS, CLIP_GRID)
        gens = [top[:c, :c] for c in cutoffs]
    # the vacuum is the sector's first basis state
    val, val2 = (complex(expm(G)[0, 0]) for G in gens)
    delta = abs(val - val2)
    if delta >= VACUUM_GUARD:
        raise ConvergenceGuardError(delta, VACUUM_GUARD)
    return val
