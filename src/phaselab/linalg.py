"""Dense complex linear-algebra kernel shared by every module.

All matrices are plain ``numpy.ndarray`` with dtype complex128.  The
kernels take a matrix or a stack of them, an (..., rows, cols) array whose
last two axes are the matrix: ``expm``, ``logm_principal``,
``hermitian_part``, ``opnorm`` (the spectral norm, bitwise that of
``np.linalg.norm(M, 2)``) and ``subspace_gap`` act on each matrix of a
stack as they act on it alone, with the same LAPACK call, so a stacked sweep
returns the same bits as a loop over it.  A sweep is cut into stacks of at
most STACK_BYTES of its items (``stack_runs``): the budget bounds each
stack's items, not the process peak, which the kernels' intermediates add
to.  Subspaces are always carried around as orthonormal frames
(matrices with orthonormal columns); equality of subspaces is span-based
and tolerance-gated, since a point of a Grassmannian has no canonical matrix
representative.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Raised when an input matrix has the wrong shape."""


class RankError(ValueError):
    """Raised when an input is rank-deficient where full rank is required."""


class BranchCutError(ValueError):
    """Raised when a principal logarithm is requested for a matrix with an
    eigenvalue on (or numerically near) the closed ray (-inf, 0].

    The offending eigenvalue is stored in ``eigenvalue``.
    """

    def __init__(self, eigenvalue: complex):
        self.eigenvalue = eigenvalue
        super().__init__(
            f"eigenvalue {eigenvalue} lies on the principal branch cut (-inf, 0]"
        )


# largest eigenbasis condition number for which logm_principal's eigen
# route V log(w) V^{-1} is trusted; its error is about cond(V) * eps
LOGM_COND_MAX = 1e4


class EigenbasisError(ValueError):
    """Raised when a principal logarithm is requested for a matrix whose
    eigenbasis is too ill-conditioned (cond(V) > LOGM_COND_MAX) for the
    eigen route, e.g. a defective matrix.

    The condition number is stored in ``cond``.
    """

    def __init__(self, cond: float):
        self.cond = cond
        super().__init__(
            f"eigenbasis condition number {cond:.3e} exceeds {LOGM_COND_MAX:.0e}"
        )


# The numerical slack of every check: EQ_TOL gates equality-type residuals,
# PSD_TOL cone and semidefinite ones, and RANK_TOL rank decisions, relative
# to the largest singular value.
EQ_TOL = 1e-10
PSD_TOL = 1e-9
RANK_TOL = 1e-8


# A sweep of matrices is evaluated in stacks of at most this many bytes of
# its items, and at least one item each
STACK_BYTES = 2**22


def stack_runs(count: int, item_bytes: int):
    """The consecutive slices, in order, that cut a sweep of ``count`` items
    of ``item_bytes`` bytes each into stacks of at most STACK_BYTES, and at
    least one item each."""
    step = max(1, STACK_BYTES // item_bytes)
    return (slice(lo, min(lo + step, count)) for lo in range(0, count, step))


def as_cmatrix(M) -> np.ndarray:
    """Coerce to a complex128 matrix, or a stack of them (..., rows, cols),
    and validate finiteness."""
    A = np.asarray(M, dtype=complex)
    if A.ndim < 2 or min(A.shape[-2:]) < 1:
        raise ShapeError(f"expected a 2-d matrix or a stack of them, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    return A


def square_blocks(M, k: int) -> tuple[np.ndarray, int]:
    """(M, n) for a finite square kn x kn matrix M, or a stack of them,
    coerced by as_cmatrix.

    The one shape check of every function that reads its block size from
    its input: ShapeError on any other shape, ValueError on a non-finite
    entry.
    """
    M = as_cmatrix(M)
    rows, cols = M.shape[-2:]
    if rows != cols or rows % k:
        side = f"{k}n x {k}n " if k > 1 else ""
        raise ShapeError(f"expected a square {side}matrix, got shape {M.shape}")
    return M, rows // k


def opnorm(M):
    """Spectral norm of a matrix, or of each matrix of a stack: the largest
    singular value, from the gesdd call of ``np.linalg.norm(M, 2)`` without
    its axis moves and reduction, so bitwise equal to it."""
    return np.linalg.svd(M, compute_uv=False)[..., 0]


def expm(X) -> np.ndarray:
    """Matrix exponential e^X of a matrix or of each matrix of a stack
    (scaling-and-squaring Pade, via scipy, which picks each matrix's own
    order and scaling)."""
    import scipy.linalg

    return scipy.linalg.expm(square_blocks(X, 1)[0])


def logm_principal(M) -> np.ndarray:
    """Principal matrix logarithm V log(w) V^{-1} from the eigendecomposition
    M = V diag(w) V^{-1} of a matrix or of each matrix of a stack, with an
    explicit branch-cut guard and a conditioning certificate.

    Eigenvalues are checked first: if any lies within RANK_TOL (scaled by
    max(1, spectral radius)) of the closed ray (-inf, 0], a BranchCutError
    carrying the offending eigenvalue is raised instead of returning a
    silently wrong branch.  The eigen route is accurate to about
    cond(V) * eps (Higham, Functions of Matrices, SIAM 2008, sec. 4.5), so
    cond(V) > LOGM_COND_MAX, a defective M among others, raises
    EigenbasisError instead of returning an inaccurate logarithm.  In a
    stack, the first matrix that fails either test raises what it raises
    alone.
    """
    M, _ = square_blocks(M, 1)
    w, V = np.linalg.eig(M)
    scale = np.maximum(1.0, np.max(np.abs(w), axis=-1, keepdims=True))
    cut = np.where(w.real <= 0, np.abs(w.imag), np.abs(w)) <= RANK_TOL * scale
    cond = np.linalg.cond(V)
    bad = np.flatnonzero(cut.any(axis=-1) | ~(cond <= LOGM_COND_MAX))
    if bad.size:
        lams, cuts = (a.reshape(-1, a.shape[-1])[bad[0]] for a in (w, cut))
        if cuts.any():
            raise BranchCutError(lams[np.argmax(cuts)])
        raise EigenbasisError(float(np.ravel(cond)[bad[0]]))
    return (V * np.log(w)[..., None, :]) @ np.linalg.inv(V)


def _rank(s: np.ndarray) -> np.ndarray:
    """Numerical rank of each matrix from its descending singular values
    (the last axis of ``s``): the count above RANK_TOL times the largest, 0
    for an empty or zero one."""
    if not s.shape[-1]:
        return np.zeros(s.shape[:-1], dtype=int)
    return np.sum(s > RANK_TOL * s[..., :1], axis=-1)


def _frame_ranks(cols) -> tuple[np.ndarray, np.ndarray]:
    """(u, r): the left singular vectors of a matrix or of each matrix of a
    stack, and the numerical rank of each, so that u[..., :r] is an
    orthonormal frame for the span of a matrix of rank r."""
    A = np.asarray(cols, dtype=complex)
    if A.ndim < 2:
        raise ShapeError(f"expected a 2-d matrix or a stack of them, got shape {A.shape}")
    u, s, _ = np.linalg.svd(A, full_matrices=False)
    return u, _rank(s)


def span_frame(cols) -> np.ndarray:
    """Orthonormal frame (via SVD) for the span of a matrix's columns,
    dropping numerically null columns: a frame of whatever rank the span
    has, with zero columns for a zero-dimensional one, which a zero-column
    ``cols`` also gives."""
    u, rank = _frame_ranks(cols)
    return u[..., :int(rank)]


def nullspace(M) -> np.ndarray:
    """Orthonormal basis of the (right) nullspace of M."""
    _, s, vh = np.linalg.svd(as_cmatrix(M))
    return vh.conj().T[:, int(_rank(s)):]


def subspace_gap(P, Q):
    """Operator-norm distance of the orthogonal projectors of two frames, or
    of each pair of frames of two stacks (broadcast against each other).

    Both arguments must be orthonormal frames of the same ambient dimension
    and the same rank.  This is the gap metric on the Grassmannian; it is
    symmetric, satisfies the triangle inequality, takes values in [0, 1],
    and vanishes exactly on equal spans.  A float for two frames, an array
    for stacks.
    """
    P = as_cmatrix(P)
    Q = as_cmatrix(Q)
    if P.shape[-2:] != Q.shape[-2:]:
        raise ShapeError(f"frame shapes differ: {P.shape} vs {Q.shape}")
    dP = P @ P.conj().mT
    dQ = Q @ Q.conj().mT
    gap = opnorm(dP - dQ)
    return float(gap) if gap.ndim == 0 else gap


def hermitian_part(M) -> np.ndarray:
    M, _ = square_blocks(M, 1)
    return (M + M.conj().mT) / 2

