"""Linear relations on C^{2n} (+) C^{2n}: the extended contraction semigroup,
the Potapov transform, and graph limits of e^{A + nu N_b}.

A relation is a 2n-dimensional subspace of C^{4n}, stored as an orthonormal
4n x 2n frame.  graph(T) = {v (+) Tv} embeds matrices; the relation product

    A B = {x (+) y : exists w, x (+) w in A, w (+) y in B}

extends matrix multiplication in reversed order: compose(graph S, graph T)
equals graph(T S).  (The order was fixed empirically against the Potapov
product formula, which holds verbatim with r1 = Pi(P1), r2 = Pi(P2).)

The Potapov coordinate permutation used here is

    Pi: (v-, v+) (+) (w-, w+)  |->  (v+, w-) (+) (v-, w+)

with V-+ the Ical = -+1 eigenspaces; this is the unique cross permutation
under which Pi(graph g) is the graph of the block matrix

    Pi(g) = ( -a^{-1} b,  a^{-1} ;  d - c a^{-1} b,  c a^{-1} ).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import MembershipError, StructuralMatrices, classify, make_structural
from .linalg import (
    EQ_TOL,
    PSD_TOL,
    RANK_TOL,
    RankError,
    ShapeError,
    as_cmatrix,
    expm,
    hermitian_part,
    nullspace,
    orthonormal_frame,
    span_frame,
    subspace_gap,
)


class DegenerateCompositionError(ValueError):
    """Relation product came out with dimension != 2n (inputs were outside
    the contraction semigroup).  Carries the actual dimension."""

    def __init__(self, dim: int, expected: int):
        self.dim = dim
        self.expected = expected
        super().__init__(f"relation product has dimension {dim}, expected {expected}")


class NotAGraphError(ValueError):
    """The Potapov-permuted subspace is not the graph of a matrix."""


@dataclass(frozen=True)
class LinearRelation:
    """A 2n-dimensional subspace of C^{2n} (+) C^{2n} as an orthonormal frame."""

    n: int
    frame: np.ndarray  # 4n x 2n, orthonormal columns

    @property
    def top(self) -> np.ndarray:
        """Rows of the frame in the first (domain-side) summand."""
        return self.frame[: 2 * self.n, :]

    @property
    def bottom(self) -> np.ndarray:
        """Rows of the frame in the second (image-side) summand."""
        return self.frame[2 * self.n :, :]


def relation_from_span(cols, n: int) -> LinearRelation:
    """Orthonormalize a spanning set into a relation; rank must be exactly 2n."""
    cols = as_cmatrix(cols)
    if cols.shape[0] != 4 * n:
        raise ShapeError(f"expected 4n = {4 * n} rows, got {cols.shape[0]}")
    F = span_frame(cols)
    if F.shape[1] != 2 * n:
        raise RankError(f"span has dimension {F.shape[1]}, expected {2 * n}")
    return LinearRelation(n=n, frame=F)


def _square_2n(T) -> tuple[np.ndarray, int]:
    """(T, n) for a finite square 2n x 2n T, checked by as_cmatrix and ShapeError."""
    T = as_cmatrix(T)
    if T.shape[0] != T.shape[1] or T.shape[0] % 2:
        raise ShapeError("expected a square 2n x 2n matrix")
    return T, T.shape[0] // 2


def graph_of(T) -> LinearRelation:
    """The relation {v (+) Tv} of a 2n x 2n matrix."""
    T, n = _square_2n(T)
    F = orthonormal_frame(np.vstack([np.eye(2 * n, dtype=complex), T]))
    return LinearRelation(n=n, frame=F)


def compose(A: LinearRelation, B: LinearRelation) -> LinearRelation:
    """Relation product {x (+) y : exists w, x (+) w in A, w (+) y in B}.

    Computed from the nullspace of the stacked compatibility system in
    (s, t) coordinates (A.bottom s = B.top t), then projected to (x, y) and
    orthonormalized.  Raises DegenerateCompositionError when the result is
    not 2n-dimensional.
    """
    if A.n != B.n:
        raise ShapeError("ambient dimensions differ")
    n = A.n
    null = nullspace(np.hstack([A.bottom, -B.top]))
    s_part, t_part = null[: 2 * n, :], null[2 * n :, :]
    vecs = np.vstack([A.top @ s_part, B.bottom @ t_part])
    F = span_frame(vecs)
    if F.shape[1] != 2 * n:
        raise DegenerateCompositionError(F.shape[1], 2 * n)
    return LinearRelation(n=n, frame=F)


def ker_indef(P: LinearRelation):
    """Frames for ker P = {x : x (+) 0 in P} and indef P = {y : 0 (+) y in P}.

    Either frame may have zero columns.
    """
    V, W = P.top, P.bottom
    ker = span_frame(V @ nullspace(W))
    ind = span_frame(W @ nullspace(V))
    return ker, ind


def is_Unn(P: LinearRelation, S: StructuralMatrices) -> bool:
    """Membership in the contraction-relation semigroup.

    (1) the induced form <v|v>_I - <w|w>_I is PSD on the frame,
    (2) the form is negative definite on indef P,
    (3) positive definite on ker P.
    """
    V, W = P.top, P.bottom
    G = V.conj().T @ S.Ical @ V - W.conj().T @ S.Ical @ W
    contraction = -float(np.linalg.eigvalsh(hermitian_part(G)).min())
    ker, ind = ker_indef(P)

    if ind.shape[1]:
        Gi = ind.conj().T @ S.Ical @ ind
        indef_top = float(np.linalg.eigvalsh(hermitian_part(Gi)).max())
    else:
        indef_top = -np.inf
    if ker.shape[1]:
        Gk = ker.conj().T @ S.Ical @ ker
        ker_bot = float(np.linalg.eigvalsh(hermitian_part(Gk)).min())
    else:
        ker_bot = np.inf
    return contraction <= PSD_TOL and indef_top <= -PSD_TOL and ker_bot >= PSD_TOL


def is_symplectic_rel(P: LinearRelation, S: StructuralMatrices) -> bool:
    """Whether v^T J v' = w^T J w' for all v (+) w, v' (+) w' in P."""
    V, W = P.top, P.bottom
    R = V.T @ S.J @ V - W.T @ S.J @ W
    return float(np.linalg.norm(R, 2)) <= EQ_TOL


def potapov_matrix(g) -> np.ndarray:
    """The 2n x 2n Potapov transform of a matrix g = (a b; c d) with invertible a."""
    g, n = _square_2n(g)
    a, b, c, d = g[:n, :n], g[:n, n:], g[n:, :n], g[n:, n:]
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] <= RANK_TOL * max(s[0], 1.0):
        raise RankError("upper-left block is singular; use potapov_relation")
    ai = np.linalg.inv(a)
    return np.block([[-ai @ b, ai], [d - c @ ai @ b, c @ ai]])


def _pi_rows(n: int) -> np.ndarray:
    """Pi as a row order: row k of Pi x is row _pi_rows(n)[k] of x, for
    Pi (v-, v+, w-, w+) = (v+, w-, v-, w+) with blocks of n rows."""
    return np.r_[n : 3 * n, 0:n, 3 * n : 4 * n]


def potapov_relation(P: LinearRelation) -> np.ndarray:
    """Potapov transform of a relation: permute the frame by Pi, then solve
    for the matrix whose graph is the permuted subspace."""
    n = P.n
    F = P.frame[_pi_rows(n)]
    top, bottom = F[: 2 * n, :], F[2 * n :, :]
    s = np.linalg.svd(top, compute_uv=False)
    if s[-1] <= RANK_TOL * max(s[0], 1.0):
        raise NotAGraphError(
            "permuted subspace is not a graph (input outside the contraction semigroup)"
        )
    return bottom @ np.linalg.inv(top)


def potapov_inverse(r: np.ndarray) -> LinearRelation:
    """The relation whose Potapov transform is r (inverse of potapov_relation)."""
    r, n = _square_2n(r)
    F = np.empty((4 * n, 2 * n), dtype=complex)
    F[_pi_rows(n)] = np.vstack([np.eye(2 * n), r])  # Pi^{-1}: scatter the rows back
    return relation_from_span(F, n)


def potapov_product(r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Product formula: Pi(P1 P2) from the 2n x 2n transforms
    r1 = Pi(P1) = (alpha beta; gamma delta) and r2 = Pi(P2) = (phi psi; theta kappa)."""
    (r1, n), (r2, n2) = _square_2n(r1), _square_2n(r2)
    if n != n2:
        raise ShapeError("block sizes differ")
    al, be, ga, de = r1[:n, :n], r1[:n, n:], r1[n:, :n], r1[n:, n:]
    ph, ps, th, ka = r2[:n, :n], r2[:n, n:], r2[n:, :n], r2[n:, n:]
    M = np.eye(n) - ph @ de
    s = np.linalg.svd(M, compute_uv=False)
    if s[-1] <= RANK_TOL * max(s[0], 1.0):
        raise RankError("1 - phi delta is singular")
    M1 = np.linalg.inv(M)
    M2 = np.linalg.inv(np.eye(n) - de @ ph)
    return np.block(
        [
            [al + be @ M1 @ ph @ ga, be @ M1 @ ps],
            [th @ M2 @ ga, ka + th @ de @ M1 @ ps],
        ]
    )


# ---------------------------------------------------------------------------
# the doubled number matrix and the graph-limit theorem

def make_Nb(m: int) -> np.ndarray:
    """Doubled number matrix N_b = diag(0..0, 1..1, 0..0, -1..-1) (4m x 4m).

    Its dissipative multiple is +N_b: Ical N_b = diag(0, -I, 0, -I) <= 0.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return np.diag(
        np.concatenate([np.zeros(m), np.ones(m), np.zeros(m), -np.ones(m)])
    ).astype(complex)


def a0_generator(A, m: int) -> np.ndarray:
    """Compression (I - N_b^2) A (I - N_b^2) onto the zero eigenspace of N_b."""
    A = as_cmatrix(A)
    if A.shape != (4 * m, 4 * m):
        raise ShapeError(f"expected shape {(4 * m, 4 * m)}")
    keep = np.diag(make_Nb(m)) == 0
    return np.where(keep[:, None] & keep[None, :], A, 0)


def projection_derivative(A, m: int) -> np.ndarray:
    """Closed-form derivative at eps = 0 of the spectral projector of
    eps A - N_b onto the eigenvalue cluster near 0:

        N_b A (I - N_b^2) + (I - N_b^2) A N_b.
    """
    A = as_cmatrix(A)
    if A.shape != (4 * m, 4 * m):
        raise ShapeError(f"expected shape {(4 * m, 4 * m)}")
    Nb = make_Nb(m)
    P0 = np.eye(4 * m) - Nb @ Nb
    return Nb @ A @ P0 + P0 @ A @ Nb


def limit_graph(A, m: int) -> LinearRelation:
    """The limit relation of graph(e^{A + nu N_b}) as nu -> infinity:

        span{ v_-1 (+) 0,  v_0 (+) e^{A_0} v_0,  0 (+) v_1 }

    over the eigenspaces V^(lambda) of N_b, with A_0 the zero-space
    compression of A.  The result is a symplectic contraction relation.
    """
    A = as_cmatrix(A)
    if A.shape != (4 * m, 4 * m):
        raise ShapeError(f"expected shape {(4 * m, 4 * m)}")
    spc = classify(A, make_structural(2 * m), "sp_c")
    if not spc.flag:
        raise MembershipError(f"A does not have the sp_c(4m,R) block pattern (residual {spc.residual:.3e})")
    d = 4 * m
    I, O = np.eye(d), np.zeros((d, d))
    # block k = 0, 1, 2 gives the columns j whose e_j lies in V^(k - 1)
    blocks = np.block([[I, I, O], [O, expm(a0_generator(A, m)), I]])
    lam = np.diag(make_Nb(m)).real
    cols = np.concatenate([k * d + np.flatnonzero(lam == k - 1) for k in range(3)])
    return relation_from_span(blocks[:, cols], 2 * m)


def graph_limit_gaps(A, m: int, nu_list) -> tuple[LinearRelation, list[float]]:
    """Convergence diagnostic: the limit relation P = limit_graph(A) and
    gap(graph(e^{A + nu N_b}), P) for each nu of ``nu_list``.

    Decays like ||A||/nu for generic A (exponentially only when A commutes
    with N_b^2).
    """
    A, Nb = as_cmatrix(A), make_Nb(m)
    P = limit_graph(A, m)
    return P, [subspace_gap(graph_of(expm(A + nu * Nb)).frame, P.frame) for nu in nu_list]
