"""Plain numpy references for the tests: the loop stream, the loop actions,
the pointwise symbol, the indefinite form and the split of Diss.  Each is
written straight from its definition, with no buffers, no ``out=`` and no
private phaselab helper, so that the kernels are checked against code they
do not share."""

import numpy as np

from phaselab.bridge import CHUNK
from phaselab.cones import MembershipError, classify, make_structural
from phaselab.linalg import ShapeError, square_blocks


def sample_loops(spec, lo, hi):
    """Loops lo, ..., hi-1 of the seed's stream, (hi-lo, steps+1, 2m): loop i
    is row i % CHUNK of default_rng((seed, i // CHUNK)).standard_normal(
    (CHUNK, steps, 2m)) times sqrt(sigma^2/steps), summed from 0 and pinned
    at t = 1 by subtracting (k/steps) times the end point at step k."""
    if not 0 <= lo < hi:
        raise ValueError("need 0 <= lo < hi")
    K, d = spec.steps, 2 * spec.m
    draws = []
    for block in range(lo // CHUNK, (hi - 1) // CHUNK + 1):
        first = block * CHUNK
        draw = np.random.default_rng((spec.seed, block)).standard_normal((min(hi, first + CHUNK) - first, K, d))
        draws.append(draw[max(lo - first, 0):])
    walk = np.cumsum(np.concatenate(draws) * np.sqrt(spec.sigma2 / K), axis=1)
    walk = walk - walk[:, -1:] * (np.arange(1, K + 1) / K)[:, None]
    return np.concatenate([np.zeros((hi - lo, 1, d)), walk], axis=1)


def loop_actions(points, actions):
    """Actions of the loops ``points`` (n, steps+1, 2m), one array per
    action: the midpoint line integral of sum_k (y_k dx_k - x_k dy_k), which
    is the shoelace sum of x_{j+1} y_j - x_j y_{j+1}, plus the mean of x^T M x
    over the step midpoints for an action with an hmatrix M."""
    n, K, d = points.shape[0], points.shape[1] - 1, points.shape[2]
    x, y = points[:, :, : d // 2], points[:, :, d // 2 :]
    area = np.sum(x[:, 1:] * y[:, :-1] - x[:, :-1] * y[:, 1:], axis=(1, 2))
    mid = ((points[:, :-1] + points[:, 1:]) / 2).reshape(-1, d)
    return [area if q.hmatrix is None
            else area + np.einsum("gi,gi->g", mid @ q.hmatrix, mid).reshape(n, K).mean(axis=1)
            for q in actions]


def hamiltonian_value(sym, z):
    """The quadratic symbol (1/2) z* Ical A z on the doubled coordinates
    bold z = (conj z, z) of one mode pair, z a vector of length 1, with
    conjugate row (z, conj z); pure imaginary for A in sp_c(2,R)."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    if z.shape != (1,):
        raise ShapeError(f"expected a vector of length 1, got shape {z.shape}")
    zvec, zstar = np.concatenate([z.conj(), z]), np.concatenate([z, z.conj()])
    return complex(0.5 * zstar @ (make_structural(1).Ical @ sym.A @ zvec))


def herm_form(u, v):
    """The indefinite inner product <u|v>_I = u* Ical v of two vectors of the
    same even length 2n."""
    u = np.asarray(u, dtype=complex).reshape(-1)
    v = np.asarray(v, dtype=complex).reshape(-1)
    if u.shape != v.shape or not u.size or u.size % 2:
        raise ShapeError(f"vectors must have the same even length, got {u.size} and {v.size}")
    return complex(u.conj() @ (make_structural(u.size // 2).Ical @ v))


def split_diss(X):
    """Split X in Diss(n,n) as Xu + Xs, Xu in u(n,n) and Xs Ical-self-adjoint
    dissipative: the direct sum Diss = u(n,n) + SDiss."""
    X, n = square_blocks(X, 2)
    diss = classify(X, "Diss")
    if not diss.flag:
        raise MembershipError(f"input is not Ical-dissipative (residual {diss.residual:.3e})")
    Ical = make_structural(n).Ical
    Xadj = Ical @ X.conj().T @ Ical
    return (X - Xadj) / 2, (X + Xadj) / 2
