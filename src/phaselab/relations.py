"""Linear relations on C^{2n} (+) C^{2n}: the extended contraction semigroup,
the Potapov transform, and graph limits of e^{A + nu N_b}.

A relation is a 2n-dimensional subspace of C^{4n}, and it is nothing but an
orthonormal 4n x 2n frame, a plain ndarray: rows 0..2n-1 lie in the domain
summand, rows 2n..4n-1 in the image summand.  Apart from the constructor
make_Nb, no function here takes the block size: each reads it from the
shape of its input (2n x 2n for a matrix, 4n rows for a frame, 4m x 4m for
a graph-limit generator) and raises ShapeError when the shape has none.
graph_of, relation_from_span, potapov_relation and potapov_product also
take a stack of inputs, (..., rows, cols), and return the stack of what
each gives alone; a member that the function refuses alone raises the same
error in a stack.

graph(T) = {v (+) Tv} embeds matrices; the relation product

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

import numpy as np

from .cones import MembershipError, classify, make_structural
from .linalg import (
    EQ_TOL,
    PSD_TOL,
    RANK_TOL,
    RankError,
    ShapeError,
    _frame_ranks,
    as_cmatrix,
    expm,
    hermitian_part,
    nullspace,
    opnorm,
    span_frame,
    square_blocks,
    stack_runs,
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


def _halves(P) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a 4n-row frame, or of each frame of a stack, in the
    domain summand and in the image summand; ShapeError unless the row count
    is a multiple of 4."""
    P = as_cmatrix(P)
    if P.shape[-2] % 4:
        raise ShapeError(f"expected a frame with 4n rows, got shape {P.shape}")
    d = P.shape[-2] // 2
    return P[..., :d, :], P[..., d:, :]


def _singular(M: np.ndarray) -> bool:
    """Whether M's smallest singular value is within RANK_TOL of
    max(largest, 1): the invertibility test of the Potapov transforms.
    For a stack, whether that holds for any of its matrices."""
    s = np.linalg.svd(M, compute_uv=False)
    return bool(np.any(s[..., -1] <= RANK_TOL * np.maximum(s[..., 0], 1.0)))


def relation_from_span(cols) -> np.ndarray:
    """Orthonormalize a spanning set of 4n rows, or each of a stack, into a
    relation; rank must be exactly 2n, else RankError naming the first
    other rank."""
    top, _ = _halves(cols)
    d = top.shape[-2]
    u, ranks = _frame_ranks(cols)
    bad = ranks[ranks != d]
    if bad.size:
        raise RankError(f"span has dimension {bad[0]}, expected {d}")
    return u[..., :d]


def graph_of(T) -> np.ndarray:
    """The relation {v (+) Tv} of a 2n x 2n matrix, or of each of a stack."""
    T, n = square_blocks(T, 2)
    eye = np.broadcast_to(np.eye(2 * n, dtype=complex), T.shape)
    return relation_from_span(np.concatenate([eye, T], axis=-2))


def compose(A, B) -> np.ndarray:
    """Relation product {x (+) y : exists w, x (+) w in A, w (+) y in B}.

    Computed from the nullspace of the stacked compatibility system in
    (s, t) coordinates (A's image rows times s = B's domain rows times t),
    then projected to (x, y) and orthonormalized.  Raises
    DegenerateCompositionError when the result is not 2n-dimensional.
    """
    (A_top, A_bottom), (B_top, B_bottom) = _halves(A), _halves(B)
    if len(A_top) != len(B_top):
        raise ShapeError("ambient dimensions differ")
    null = nullspace(np.hstack([A_bottom, -B_top]))
    k = A_bottom.shape[1]
    vecs = np.vstack([A_top @ null[:k], B_bottom @ null[k:]])
    F = span_frame(vecs)
    if F.shape[1] != len(A_top):
        raise DegenerateCompositionError(F.shape[1], len(A_top))
    return F


def ker_indef(P):
    """Frames for ker P = {x : x (+) 0 in P} and indef P = {y : 0 (+) y in P}.

    Either frame may have zero columns.
    """
    V, W = _halves(P)
    ker = span_frame(V @ nullspace(W))
    ind = span_frame(W @ nullspace(V))
    return ker, ind


def _form_eigvals(G: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Hermitian part of G, a form on a frame; none when
    the frame has no columns (G is 0 x 0)."""
    return np.linalg.eigvalsh(hermitian_part(G)) if G.size else np.zeros(0)


def is_Unn(P) -> bool:
    """Membership in the contraction-relation semigroup.

    (1) the induced form <v|v>_I - <w|w>_I is PSD on the frame,
    (2) the form is negative definite on indef P,
    (3) positive definite on ker P.
    """
    V, W = _halves(P)
    Ical = make_structural(len(V) // 2).Ical
    on_P = _form_eigvals(V.conj().T @ Ical @ V - W.conj().T @ Ical @ W)
    ker, ind = ker_indef(P)
    on_ind = _form_eigvals(ind.conj().T @ Ical @ ind)
    on_ker = _form_eigvals(ker.conj().T @ Ical @ ker)
    return bool(np.all(on_P >= -PSD_TOL) and np.all(on_ind <= -PSD_TOL) and np.all(on_ker >= PSD_TOL))


def is_symplectic_rel(P) -> bool:
    """Whether v^T J v' = w^T J w' for all v (+) w, v' (+) w' in P."""
    V, W = _halves(P)
    J = make_structural(len(V) // 2).J
    R = V.T @ J @ V - W.T @ J @ W
    return float(opnorm(R)) <= EQ_TOL


def potapov_matrix(g) -> np.ndarray:
    """The 2n x 2n Potapov transform of a matrix g = (a b; c d) with invertible a."""
    g, n = square_blocks(g, 2)
    a, b, c, d = g[:n, :n], g[:n, n:], g[n:, :n], g[n:, n:]
    if _singular(a):
        raise RankError("upper-left block is singular; use potapov_relation")
    ai = np.linalg.inv(a)
    return np.block([[-ai @ b, ai], [d - c @ ai @ b, c @ ai]])


def potapov_relation(P) -> np.ndarray:
    """Potapov transform of a relation, or of each of a stack: permute the
    frame by Pi, then solve for the matrix whose graph is the permuted
    subspace."""
    V, W = _halves(P)
    n = V.shape[-2] // 2
    # Pi (v-, v+) (+) (w-, w+) = (v+, w-) (+) (v-, w+)
    top = np.concatenate([V[..., n:, :], W[..., :n, :]], axis=-2)
    bottom = np.concatenate([V[..., :n, :], W[..., n:, :]], axis=-2)
    if _singular(top):
        raise NotAGraphError(
            "permuted subspace is not a graph (input outside the contraction semigroup)"
        )
    return bottom @ np.linalg.inv(top)


def potapov_inverse(r) -> np.ndarray:
    """The relation whose Potapov transform is r (inverse of potapov_relation)."""
    r, n = square_blocks(r, 2)
    # Pi^{-1} of I (+) r: v- and w+ are r's row halves, (v+, w-) is I
    return relation_from_span(np.vstack([r[:n], np.eye(2 * n), r[n:]]))


def potapov_product(r1, r2) -> np.ndarray:
    """Product formula: Pi(P1 P2) from the 2n x 2n transforms
    r1 = Pi(P1) = (alpha beta; gamma delta) and r2 = Pi(P2) = (phi psi; theta kappa),
    or from each pair of two stacks of them."""
    (r1, n), (r2, n2) = square_blocks(r1, 2), square_blocks(r2, 2)
    if n != n2:
        raise ShapeError("block sizes differ")
    al, be, ga, de = r1[..., :n, :n], r1[..., :n, n:], r1[..., n:, :n], r1[..., n:, n:]
    ph, ps, th, ka = r2[..., :n, :n], r2[..., :n, n:], r2[..., n:, :n], r2[..., n:, n:]
    M = np.eye(n) - ph @ de
    if _singular(M):
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


def a0_generator(A) -> np.ndarray:
    """Compression (I - N_b^2) A (I - N_b^2) of a 4m x 4m A onto the zero
    eigenspace of N_b."""
    A, m = square_blocks(A, 4)
    keep = np.diag(make_Nb(m)) == 0
    return np.where(keep[:, None] & keep[None, :], A, 0)


def projection_derivative(A) -> np.ndarray:
    """Closed-form derivative at eps = 0 of the spectral projector of
    eps A - N_b onto the eigenvalue cluster near 0, for a 4m x 4m A:

        N_b A (I - N_b^2) + (I - N_b^2) A N_b.
    """
    A, m = square_blocks(A, 4)
    Nb = make_Nb(m)
    P0 = np.eye(4 * m) - Nb @ Nb
    return Nb @ A @ P0 + P0 @ A @ Nb


def limit_graph(A) -> np.ndarray:
    """The limit relation of graph(e^{A + nu N_b}) as nu -> infinity, for a
    4m x 4m A:

        span{ v_-1 (+) 0,  v_0 (+) e^{A_0} v_0,  0 (+) v_1 }

    over the eigenspaces V^(lambda) of N_b, with A_0 the zero-space
    compression of A.  The result is a symplectic contraction relation.
    """
    A, m = square_blocks(A, 4)
    spc = classify(A, "sp_c")
    if not spc.flag:
        raise MembershipError(f"A does not have the sp_c(4m,R) block pattern (residual {spc.residual:.3e})")
    d = 4 * m
    I, O = np.eye(d), np.zeros((d, d))
    # block k = 0, 1, 2 gives the columns j whose e_j lies in V^(k - 1)
    blocks = np.block([[I, I, O], [O, expm(a0_generator(A)), I]])
    lam = np.diag(make_Nb(m)).real
    cols = np.concatenate([k * d + np.flatnonzero(lam == k - 1) for k in range(3)])
    return relation_from_span(blocks[:, cols])


def graph_limit_gaps(A, nu_list) -> tuple[np.ndarray, list[float]]:
    """Convergence diagnostic for a 4m x 4m A: the limit relation
    P = limit_graph(A) and gap(graph(e^{A + nu N_b}), P) for each nu of
    ``nu_list``, the sweep in stacks of generators (linalg.stack_runs).

    Decays like ||A||/nu for generic A (exponentially only when A commutes
    with N_b^2).
    """
    A, m = square_blocks(A, 4)
    Nb = make_Nb(m)
    P = limit_graph(A)
    nus = np.asarray(nu_list, dtype=float)
    gaps = []
    # the largest array of a nu is the 8m x 8m projector of subspace_gap
    for run in stack_runs(len(nus), 16 * (8 * m) ** 2):
        gaps += subspace_gap(graph_of(expm(A + nus[run, None, None] * Nb)), P).tolist()
    return P, gaps
