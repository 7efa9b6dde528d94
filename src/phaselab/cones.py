"""Symplectic groups, the indefinite form, dissipative cones, and the
Potapov-Olshanski decomposition.

Conventions (fixed once, used everywhere):

    J  = [[0, I], [-I, 0]]                 (real symplectic form)
    W  = (1/sqrt 2) [[I, iI], [I, -iI]]    (Cayley-type unitary)
    J_c = W J W^{-1} = diag(-iI, iI)
    Ical = -i J_c = diag(-I, I)
    <u|v>_I = u* Ical v                    (indefinite Hermitian form)

The predicates of ``classify``, with M a 2n x 2n complex matrix:

    sp_c:        block pattern (A B; conj B conj A), A* = -A, B^T = B
    U:           M* Ical M = Ical                    (the group U(n,n))
    GammaU:      Ical - M* Ical M >= 0
    GammaSp_c:   GammaU and M^T J M = J              (the Olshanski semigroup)
    Diss:        Ical M + M* Ical <= 0
    SDiss_spc:   M in i.sp_c(2n,R) and Ical M <= 0   (Ical M is then Hermitian)

Note one fact that the sign conventions force and that is load-bearing for
the whole graph-limit machinery: with Ical = diag(-I, I) the *dissipative*
multiple of the doubled number matrix N_b = diag(0, I, 0, -I) is +N_b
(Ical N_b = diag(0, -I, 0, -I) <= 0), and the canonical strictly dissipative
direction is -Ical itself.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import (
    EQ_TOL,
    PSD_TOL,
    ShapeError,
    as_cmatrix,
    expm,
    hermitian_part,
    logm_principal,
    opnorm,
    square_blocks,
)


class MembershipError(ValueError):
    """Raised when an operation's input fails a required membership test."""


@dataclass(frozen=True)
class StructuralMatrices:
    """The structural matrices J, W, Ical for a fixed block size n."""

    J: np.ndarray
    W: np.ndarray
    Ical: np.ndarray


@lru_cache(maxsize=None, typed=True)
def make_structural(n: int) -> StructuralMatrices:
    """J, W, Ical for block size n (matrices are 2n x 2n), built once per n
    and shared, so the arrays are read-only."""
    if n < 1:
        raise ValueError("n must be >= 1")
    Z = np.zeros((n, n))
    I = np.eye(n)
    J = np.block([[Z, I], [-I, Z]]).astype(complex)
    W = np.block([[I, 1j * I], [I, -1j * I]]) / np.sqrt(2.0)
    Ical = np.diag(np.concatenate([-np.ones(n), np.ones(n)])).astype(complex)
    for A in (J, W, Ical):
        A.flags.writeable = False
    return StructuralMatrices(J=J, W=W, Ical=Ical)


def cayley(A) -> np.ndarray:
    """Conjugation A -> W A W^{-1} of a 2n x 2n A into the complexified
    coordinates."""
    A, n = square_blocks(A, 2)
    W = make_structural(n).W
    return W @ A @ W.conj().T  # W is unitary


@dataclass(frozen=True)
class Membership:
    """A verdict and its residual: a bool and a float for one matrix, a bool
    array and a float array for a stack."""

    flag: bool | np.ndarray
    residual: float | np.ndarray


def spc_residual(M: np.ndarray):
    """Block-pattern residual for sp_c(2n,R): (A B; conj B conj A), A* = -A,
    B^T = B; one per matrix of a stack."""
    n = M.shape[-1] // 2
    A, B = M[..., :n, :n], M[..., :n, n:]
    return np.maximum.reduce([
        opnorm(M[..., n:, :n] - B.conj()),
        opnorm(M[..., n:, n:] - A.conj()),
        opnorm(A + A.conj().mT),
        opnorm(B - B.mT),
    ])


def _ical_top(M: np.ndarray, S: StructuralMatrices) -> np.ndarray:
    # the largest eigenvalue of the Hermitian part of Ical M
    return np.linalg.eigvalsh(hermitian_part(S.Ical @ M)).max(axis=-1)


# residual name -> its formula on (M, S), one value per matrix of a stack
_RESIDUALS = {
    "sp_grp": lambda M, S: opnorm(M.mT @ S.J @ M - S.J),
    "spc": lambda M, S: spc_residual(M),
    "u_grp": lambda M, S: opnorm(M.conj().mT @ S.Ical @ M - S.Ical),
    "ispc": lambda M, S: spc_residual(-1j * M),
    "gamma_u": lambda M, S: np.maximum(
        -np.linalg.eigvalsh(hermitian_part(S.Ical - M.conj().mT @ S.Ical @ M)).min(axis=-1), 0.0
    ),
    "diss": lambda M, S: np.maximum(_ical_top(M, S) * 2, 0.0),
    # for X in i.u(n,n), Ical X is Hermitian; its largest eigenvalue is the
    # cone residual for SDiss-type membership
    "icalM_top": lambda M, S: np.maximum(_ical_top(M, S), 0.0),
}

# predicate -> its residuals, each with the tolerance it gates on
PREDICATES = {
    "sp_c": (("spc", EQ_TOL),),
    "U": (("u_grp", EQ_TOL),),
    "GammaU": (("gamma_u", PSD_TOL),),
    "GammaSp_c": (("gamma_u", PSD_TOL), ("sp_grp", EQ_TOL)),
    "Diss": (("diss", PSD_TOL),),
    "SDiss_spc": (("ispc", EQ_TOL), ("icalM_top", PSD_TOL)),
}


def classify(M, predicate: str) -> Membership:
    """Whether a 2n x 2n M, or each matrix of a stack of them, satisfies one
    group/cone predicate, with its residual.

    Only that predicate's residuals are computed.  Equality-type residuals
    gate on EQ_TOL, semidefinite ones on PSD_TOL; a conjunction predicate
    needs every gate and reports the largest of its residuals.
    """
    if predicate not in PREDICATES:
        raise ValueError(f"unknown predicate {predicate!r}; known predicates: {tuple(PREDICATES)}")
    M, n = square_blocks(M, 2)
    S = make_structural(n)
    gates = PREDICATES[predicate]
    res = [_RESIDUALS[name](M, S) for name, _ in gates]
    flag = np.logical_and.reduce([r <= tol for r, (_, tol) in zip(res, gates)])
    residual = np.maximum.reduce(res)
    if M.ndim == 2:
        return Membership(bool(flag), float(residual))
    return Membership(flag, residual)


def po_decompose(g, S: StructuralMatrices) -> tuple[np.ndarray, np.ndarray]:
    """Potapov-Olshanski decomposition g = h e^X of g in GammaSp_c(2n), or
    of each matrix of a stack of them: the pair (h, X), h in Sp_c(2n,R) and
    X in SDiss_spc, each a matrix or a stack like g.

    Algorithm: with the Ical-adjoint g^[*] = Ical g* Ical one has
    g^[*] g = e^{2X} (X is Ical-self-adjoint), and the spectrum of e^{2X} is
    strictly positive for interior semigroup elements, so the principal
    logarithm recovers X; then h = g e^{-X}.  Boundary elements surface as a
    BranchCutError from the logarithm rather than a wrong branch, and a
    g^[*] g without a well-conditioned eigenbasis as an EigenbasisError.  In
    a stack, the first matrix that fails a test raises what it raises alone.

    Unlike the other functions here, po_decompose takes S, the structural
    matrices of g's block size, because the benchmark's tracer test
    (perfbench/test_checks.py) calls it as po_decompose(g, S).  A g whose
    matrices do not have the shape of S.J raises ShapeError.
    """
    g = as_cmatrix(g)
    if g.shape[-2:] != S.J.shape:
        raise ShapeError(f"expected matrices of shape {S.J.shape}, got {g.shape}")
    member = classify(g, "GammaSp_c")
    outside = np.flatnonzero(~np.asarray(member.flag))
    if outside.size:
        residual = np.ravel(member.residual)[outside[0]]
        raise MembershipError(f"input is not in GammaSp_c (residual {residual:.3e})")
    M = S.Ical @ g.conj().mT @ S.Ical @ g
    X = 0.5 * logm_principal(M)
    return g @ expm(-X), X


@dataclass(frozen=True)
class HamiltonianSymbol:
    """A generator A in sp_c(2,R) viewed as a quadratic Hamiltonian symbol
    on one mode pair.  ``m``, the number of mode pairs, must be 1; the field
    stays because the benchmark builds symbols as HamiltonianSymbol(1, A)."""

    m: int
    A: np.ndarray

    def __post_init__(self):
        if self.m != 1:
            raise ShapeError(f"the Fock space has one mode pair: need a symbol with m = 1, not {self.m}")
        A = as_cmatrix(self.A)
        if A.shape != (2, 2):
            raise ShapeError(f"expected shape (2, 2), got {A.shape}")
        spc = classify(A, "sp_c")
        if not spc.flag:
            raise MembershipError(f"A does not have the sp_c block pattern (residual {spc.residual:.3e})")
        object.__setattr__(self, "A", A)


def symbol_quadratic_matrix(sym: HamiltonianSymbol) -> np.ndarray:
    """The real symmetric 2 x 2 M with i h_A(x + iy) = p^T M p, p = (x, y).

    With C = (1, -i; 1, i) the doubled vector is (conj z, z) = C p and its
    row partner (z, conj z) is conj(C) p, so i h_A(p) = p^T K p with
    K = (i/2) C* Ical A C; M is the symmetric part of K, which is real for
    A in sp_c(2,R).
    """
    C = np.array([[1, -1j], [1, 1j]])
    K = 0.5j * C.conj().T @ make_structural(1).Ical @ sym.A @ C
    return ((K + K.T) / 2).real


def hamiltonian_real_values(sym: HamiltonianSymbol, pts, tau: float | None = None) -> np.ndarray:
    """Vectorized evaluation of the real symbol i h_A on phase-space points.

    ``pts`` has shape (N, 2) with rows (x, y); returns the real values
    p^T M p of i times the (pure imaginary) quadratic symbol, clipped to
    [-tau, tau] when ``tau`` is given (the cutoff Hamiltonian).
    """
    if tau is not None and tau <= 0:
        raise ValueError("tau must be positive")
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ShapeError(f"expected an (N, 2) array of points, got shape {pts.shape}")
    vals = np.einsum("gi,gi->g", pts @ symbol_quadratic_matrix(sym), pts)
    if tau is not None:
        vals = np.clip(vals, -tau, tau)
    return vals


def hat_lift(sym: HamiltonianSymbol) -> np.ndarray:
    """The 4 x 4 lift of A = (a b; conj b conj a) whose quadratic expression
    in the doubled creation/annihilation vector reproduces the symbol
    evaluated on the commuting normal operator Z.

    Row blocks: (-conj a, -conj b, -conj b, -conj a; b, a, a, b;
                 -b, -a, -a, -b; conj a, conj b, conj b, conj a).
    The result lies in sp_c(4, R).
    """
    A, B = sym.A[:1, :1], sym.A[:1, 1:]
    Ab, Bb = A.conj(), B.conj()
    return np.block(
        [
            [-Ab, -Bb, -Bb, -Ab],
            [B, A, A, B],
            [-B, -A, -A, -B],
            [Ab, Bb, Bb, Ab],
        ]
    )


# ---------------------------------------------------------------------------
# random sampling of groups and cones (deterministic in the seed)

SAMPLE_KINDS = ("sp_c", "u", "Sp_c", "U", "SDiss", "SDiss_spc", "Diss", "GammaU", "GammaSp_c")


def sample(kind: str, n: int, scale, seed) -> np.ndarray:
    """Draw a seeded element of a group, algebra or cone, or a stack of them.

    The kinds are the sets of PREDICATES, Sp_c, and two building blocks:
    u(n,n) (Ical X skew-Hermitian) and SDiss (X in i.u(n,n), Ical X <= 0).
    Algebra samples fill the defining block pattern with Gaussian entries and
    symmetrize; group samples exponentiate algebra samples; dissipative
    samples are pushed strictly inside the cone by a spectral shift along
    -Ical (the canonical strictly dissipative direction).  Deterministic in
    (kind, n, scale, seed); matrices are normalized to spectral norm
    ``scale`` (algebra/cone kinds).

    An int ``seed`` gives one 2n x 2n matrix.  A sequence of seeds gives
    the stack of their matrices, with ``scale`` one scale for all or one per
    seed; each seed's matrix is bitwise the one it draws alone, from its own
    generator, default_rng((crc32(kind), n, seed)).
    """
    if kind not in SAMPLE_KINDS:
        raise ValueError(f"unknown sample kind {kind!r}; known kinds: {SAMPLE_KINDS}")
    one = np.ndim(seed) == 0
    seeds = [seed] if one else list(seed)
    if not seeds:
        raise ValueError("need at least one seed")
    scales = np.broadcast_to(np.asarray(scale, dtype=float), (len(seeds),))
    if np.any(scales <= 0):
        raise ValueError("scale must be positive")
    S = make_structural(n)

    def shifted(k):
        return [s + k for s in seeds]

    def gauss(shape, count=1):
        # crc32, not hash(): hash() is salted per process and would break
        # the bit-identical-output contract.  Only the kinds that draw build
        # generators; each draws its ``count`` matrices in order
        rngs = [np.random.default_rng((zlib.crc32(kind.encode()), n, s)) for s in seeds]
        draws = [[rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(count)] for rng in rngs]
        return [np.stack(mats) for mats in zip(*draws)]

    def normalized(M):
        return M / opnorm(M)[:, None, None] * scales[:, None, None]

    if kind == "sp_c":
        A, B = gauss((n, n), 2)
        A = (A - A.conj().mT) / 2
        B = (B + B.mT) / 2
        X = normalized(np.block([[A, B], [B.conj(), A.conj()]]))
    elif kind == "u":
        # Ical X skew-Hermitian
        [K] = gauss((2 * n, 2 * n))
        K = (K - K.conj().mT) / 2
        X = normalized(S.Ical @ K)
    elif kind == "Sp_c":
        X = expm(sample("sp_c", n, scales, shifted(1)))
    elif kind == "U":
        X = expm(sample("u", n, scales, shifted(1)))
    elif kind == "SDiss":
        [K] = gauss((2 * n, 2 * n))
        K = (K + K.conj().mT) / 2
        lam = np.linalg.eigvalsh(K).max(axis=-1)[:, None, None]
        # Ical X = K - (lam + margin) I  <=  -margin
        X = normalized(S.Ical @ (K - (lam + 0.3) * np.eye(2 * n)))
    elif kind == "SDiss_spc":
        X = 1j * sample("sp_c", n, 1.0, shifted(1))
        lam = np.linalg.eigvalsh(hermitian_part(S.Ical @ X)).max(axis=-1)[:, None, None]
        X = normalized(X - (lam + 0.3) * S.Ical)  # -Ical is strictly dissipative in i.sp_c
    elif kind == "Diss":
        X = normalized(sample("u", n, 1.0, shifted(1)) + sample("SDiss", n, 1.0, shifted(2)))
    elif kind == "GammaU":
        X = sample("U", n, scales, shifted(1)) @ expm(sample("SDiss", n, scales, shifted(2)))
    else:  # GammaSp_c
        X = sample("Sp_c", n, scales, shifted(1)) @ expm(sample("SDiss_spc", n, scales, shifted(2)))
    return X[0] if one else X
