"""Brownian-bridge loop sampling and the oscillatory phase-space path
integral: Stratonovich line integral of the symplectic 1-form, discretized
actions, the scaled estimator e^{nu m} E[e^{iS}], and an exact Gaussian
determinant oracle for quadratic actions.

Loops are exact discrete bridges, pinned to 0 at both ends of [0, 1]
(covariance sigma^2 (min(s, t) - s t) per coordinate at grid times s, t).
Loop i of a seed's stream is drawn from default_rng((seed, i // CHUNK)), a
block of CHUNK loops of (steps + 1) x 2m floats at a time: the increments
of a block's first n loops are sqrt(sigma^2/steps) times that generator's
standard_normal((n, steps, 2m)), a prefix of any longer draw of the block.
The default variance rule sigma^2(nu) = nu is the literal time rescaling
phi(nu t) of the standard bridge; alternative rules exist only for the
calibration study, which documents (rather than resolves) the normalization
gap of the reference measure: for sigma^2 = nu the exact value is

    e^{nu m} E[e^{i S_0}] = (e^{nu} nu / sinh nu)^m = (2 nu / (1 - e^{-2 nu}))^m,

which grows like (2 nu)^m instead of tending to 1.

One ``QuadraticAction`` (the area, plus an optional x^T M x) describes an
action to both sides: ``_loop_actions`` evaluates it on sampled loops for
the estimator, and ``_form_blocks`` discretizes it for the oracle.  A sweep
over nu and variance rules is one pass.  The loop at sigma^2 is
sqrt(sigma^2) times the sigma^2 = 1 loop of the same increments, and every
action is a quadratic form of the loop, so S_{sigma^2} = sigma^2 S_1:
``estimate_actions`` draws the unit loops of a seed once for every spec.
It works block by block, and draws, builds and evaluates each block in
sub-blocks of at most SUB_BLOCK_BYTES of points, in buffers reused from one
sub-block to the next, so that its arrays stay in cache; the sub-block size
moves no value.  ``gaussian_oracles`` runs the oracle's recursion once for a
batch of (spec, action) pairs, of one m and any steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

# the benchmark's pathint checks read bridge.symbol_quadratic_matrix
from .cones import symbol_quadratic_matrix  # noqa: F401
from .linalg import ShapeError

# smallest step count of a measure and sample count of an estimate; config
# validation rejects smaller values with the same limits
MIN_STEPS = 16
MIN_SAMPLES = 1000
# loops per block of the sample stream and per batch of the estimator; part
# of the stream's definition, so changing it changes every Monte Carlo value
CHUNK = 4096

VARIANCE_RULES: Mapping[str, Callable[[float], float]] = {
    "nu": lambda nu: nu,
    "nu_half": lambda nu: nu / 2.0,
    "two_nu": lambda nu: 2.0 * nu,
    "nu_plus_log": lambda nu: nu + np.log(2.0 * nu),
}


@dataclass(frozen=True)
class MeasureSpec:
    """Scaled Brownian-bridge measure: nu, variance rule, step count, seed."""

    nu: float
    steps: int
    seed: int
    variance_rule: str = "nu"
    m: int = 1

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError("nu must be positive")
        if self.steps < MIN_STEPS:
            raise ValueError(f"need at least {MIN_STEPS} steps")
        if self.variance_rule not in VARIANCE_RULES:
            raise ValueError(f"unknown variance rule {self.variance_rule!r}")
        if not self.sigma2 > 0:
            raise ValueError(f"variance rule {self.variance_rule!r} gives sigma^2 = {self.sigma2:.4g} "
                             f"at nu = {self.nu:g}; it must be positive")

    @property
    def sigma2(self) -> float:
        return float(VARIANCE_RULES[self.variance_rule](self.nu))


@dataclass(frozen=True)
class QuadraticAction:
    """An action quadratic in the loop, for the estimator and the oracle
    alike: the stochastic-area line integral plus, when ``hmatrix`` is given,
    the midpoint time quadrature of x^T M x (M real symmetric, 2m x 2m)."""

    hmatrix: np.ndarray | None = None


@dataclass(frozen=True)
class EstimateReport:
    mean: complex
    stderr: float
    samples: int
    spec: MeasureSpec


def _build_loops(incr: np.ndarray, pts: np.ndarray) -> None:
    """The sigma^2 = 1 loops of the standard-normal increments ``incr``
    (n, K, 2m) into ``pts`` (n, K+1, 2m): scale by sqrt(1/K) in place, sum
    from 0 and subtract (k/K) times the end point at step k; ``incr`` is left
    holding that pinning term.  The sum runs on coordinate pairs viewed as
    complex numbers (a complex add is the two real adds, so the sums are
    bitwise the real ones), and the term is formed one coordinate at a time,
    so each multiply runs along a whole loop rather than 2m values."""
    K = incr.shape[1]
    incr *= np.sqrt(1.0 / K)
    pts[:, 0] = 0.0
    np.cumsum(incr.view(complex), axis=1, out=pts[:, 1:].view(complex))
    walk = pts[:, 1:]
    end, t = walk[:, -1].copy(), np.arange(1, K + 1) / K
    for c in range(incr.shape[2]):
        np.multiply(end[:, c, None], t, out=incr[:, :, c])
    walk -= incr


def _action_buffers(n: int, K: int, d: int) -> tuple[np.ndarray, ...]:
    """The intermediate arrays of ``_loop_actions`` for up to n loops of K
    steps in d = 2m coordinates: the two shoelace products, the midpoints, M
    times them, and x^T M x at each midpoint."""
    return np.empty((n, K, d // 2)), np.empty((n, K, d // 2)), np.empty((n, K, d)), np.empty((n, K, d)), np.empty((n, K))


def _loop_actions(points: np.ndarray, actions: Sequence[QuadraticAction],
                  buffers: tuple[np.ndarray, ...]) -> list[np.ndarray]:
    """Actions of the loops ``points`` (n, steps+1, 2m), one array per entry
    of ``actions``: the midpoint (Stratonovich) line integral of
    sum_k (y_k dx_k - x_k dy_k), computed once, plus the mean of x^T M x over
    the step midpoints x for an action with an hmatrix M.  On each segment
    the midpoint rule ((y_j + y_{j+1}) (x_{j+1} - x_j) - (x_j + x_{j+1})
    (y_{j+1} - y_j)) / 2 is exactly the shoelace term x_{j+1} y_j - x_j y_{j+1},
    so the line integral is the shoelace sum for any polygon, closed or not
    (-2 times the signed area of a closed one).  The loop-sized
    intermediates go into the leading rows of ``buffers`` (from
    ``_action_buffers``), so that a caller that reuses them allocates none
    per call."""
    n, K, d = points.shape[0], points.shape[1] - 1, points.shape[2]
    left, right, mid, hmid, quad = (b[:n] for b in buffers)
    x, y = points[:, :, : d // 2], points[:, :, d // 2 :]
    np.multiply(x[:, 1:], y[:, :-1], out=left)
    area = np.sum(np.subtract(left, np.multiply(x[:, :-1], y[:, 1:], out=right), out=left), axis=(1, 2))
    if any(q.hmatrix is not None for q in actions):
        mid = np.divide(np.add(points[:, :-1], points[:, 1:], out=mid), 2, out=mid).reshape(-1, d)
        hmid, quad = hmid.reshape(-1, d), quad.reshape(-1)
    return [area if q.hmatrix is None
            else area + np.einsum("gi,gi->g", np.matmul(mid, q.hmatrix, out=hmid), mid, out=quad).reshape(n, K).mean(axis=1)
            for q in actions]


# the points of one sub-block of the estimator take at most this many bytes,
# and at least one loop's: each CHUNK block of the stream is drawn, built
# and evaluated a sub-block at a time, so that its working arrays stay in
# cache; no value depends on it
SUB_BLOCK_BYTES = 2**19


def _block_actions(spec: MeasureSpec, actions: Sequence[QuadraticAction], samples: int) -> Iterator[list[np.ndarray]]:
    """For each CHUNK block of the first ``samples`` sigma^2 = 1 loops of
    ``spec``'s stream, the ``_loop_actions`` of its loops, one array per
    action.  The block's one generator draws a sub-block at a time
    (sequential draws equal one long draw) into buffers reused for every
    sub-block, which ``_build_loops`` turns into loops; every step works
    along each loop on its own, so the cut into sub-blocks moves no bit."""
    K, d = spec.steps, 2 * spec.m
    size = max(1, SUB_BLOCK_BYTES // (8 * (K + 1) * d))
    incr, pts, buffers = np.empty((size, K, d)), np.empty((size, K + 1, d)), _action_buffers(size, K, d)
    for block, lo in enumerate(range(0, samples, CHUNK)):
        rng = np.random.default_rng((spec.seed, block))
        n = min(CHUNK, samples - lo)
        acts = [np.empty(n) for _ in actions]
        for first in range(0, n, size):
            b = min(size, n - first)
            _build_loops(rng.standard_normal(out=incr[:b]), pts[:b])
            for S, part in zip(acts, _loop_actions(pts[:b], actions, buffers)):
                S[first:first + b] = part
        yield acts


def estimate_actions(specs: Sequence[MeasureSpec], actions: Sequence[QuadraticAction],
                     samples: int) -> list[list[EstimateReport]]:
    """The scaled estimator e^{nu m} E[e^{i S}] for each spec and each of
    ``actions``, with S its ``_loop_actions`` value; one list of reports
    per spec.

    Every action is a quadratic form of the loop, so at variance sigma^2 it
    is sigma^2 times the action of the sigma^2 = 1 loop with the same
    increments.  The specs must share steps, seed and m, and so one stream:
    each block of CHUNK of its sigma^2 = 1 loops is drawn once, a sub-block
    at a time, each action is evaluated on it once, and e^{i sigma^2 S} is
    summed over the whole block for every (spec, action) pair; the blocks'
    sums are merged in a fixed order.  A spec's reports do not depend on
    which other specs share the draw, nor on SUB_BLOCK_BYTES.
    """
    if samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples for a meaningful stderr")
    if len({(s.steps, s.seed, s.m) for s in specs}) != 1:
        raise ValueError("need one or more specs, all with the same steps, seed and m")
    total = np.zeros((len(specs), len(actions)), dtype=complex)
    for acts in _block_actions(specs[0], actions, samples):
        total += [[np.sum(np.exp(1j * (spec.sigma2 * S))) for S in acts] for spec in specs]
    # every sample has modulus 1, so the sum of squared moduli is ``samples``
    var = (samples - np.abs(total) ** 2 / samples) / (samples - 1)
    reports = []
    for spec, ts, vs in zip(specs, total, var):
        scale = float(np.exp(spec.nu * spec.m))
        reports.append([EstimateReport(complex(scale * (t / samples)), scale * float(np.sqrt(max(v, 0.0) / samples)),
                                       samples, spec) for t, v in zip(ts, vs)])
    return reports


# ---------------------------------------------------------------------------
# exact Gaussian oracle for quadratic actions

def _form_blocks(spec: MeasureSpec, q: QuadraticAction) -> tuple[np.ndarray, np.ndarray]:
    """The 2m x 2m blocks of the discretized action in time-major order:
    x_j^T diag x_j per free point, x_j^T coupling x_{j+1} per step.  The
    midpoint line integral telescopes to sum_j (x_{j+1} y_j - x_j y_{j+1});
    the Hamiltonian part is the midpoint time quadrature of x^T M x."""
    K, d = spec.steps, 2 * spec.m
    diag, coupling = np.zeros((d, d)), np.zeros((d, d))
    coupling -= 0.5 * np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(spec.m))
    if q.hmatrix is not None:
        M = np.asarray(q.hmatrix, dtype=float)
        if M.shape != (d, d):
            raise ShapeError(f"hmatrix must be {(d, d)}")
        M = (M + M.T) / 2
        diag += M / (2.0 * K)
        coupling += M / (4.0 * K)
    return diag, coupling


def discrete_quadratic_form(spec: MeasureSpec, q: QuadraticAction) -> np.ndarray:
    """Assemble the exact discretized action as a symmetric form on the free
    coordinates (coordinate-major layout: coordinate block, then time)."""
    diag, coupling = _form_blocks(spec, q)
    shift = np.eye(spec.steps - 1, k=1)
    return np.kron(diag, np.eye(len(shift))) + np.kron(coupling, shift) + np.kron(coupling.T, shift.T)


def gaussian_oracle(spec: MeasureSpec, q: QuadraticAction) -> complex:
    """E[e^{i x^T Q x}] = (det P / det(P - 2i Q))^{1/2}, P = Sigma^{-1} the
    exact discrete bridge precision (no e^{nu m} factor), in O(K m^3): the
    batch of one of ``gaussian_oracles``."""
    return gaussian_oracles([(spec, q)])[0]


# one run of gaussian_oracles stacks as many pairs' pivots, counted at the
# batch's largest steps, as fit in this many bytes, and at least one pair's,
# so each stack stays within the larger of this and one pair's pivots at
# that steps; a longer batch runs in several, with the same values
ORACLE_RUN_BYTES = 2**26


def gaussian_oracles(pairs: Sequence[tuple[MeasureSpec, QuadraticAction]]) -> list[complex]:
    """``gaussian_oracle`` of each (spec, q) pair, by one recursion over a
    leading batch axis (stacked ``solve``, matrix products and ``eigvals``,
    which run the same LAPACK call per matrix); each value is bitwise the
    one its pair gets alone.  The specs must share m; their steps may differ.

    Time-major and scaled by sigma^2/K, P = tridiag(-1, 2, -1) (x) I_{2m} and
    A = P - 2i (sigma^2/K) Q are block tridiagonal, so det A/det P is the
    product of the block LDL^T pivots D_j = A_d - A_o^T D_{j-1}^{-1} A_o (the
    discrete Gel'fand-Yaglom recursion) over P's scalar pivots p_j = (j+1)/j.
    It runs on E_j = D_j/p_j - I, which keeps the O(K^2 eps) rounding of the
    O(1) Laplacian part out of prod det(I + E_j).  Re A = P > 0 and Schur
    complements of accretive matrices stay accretive, so along
    lambda -> P - 2i lambda Q every pivot eigenvalue keeps Re > 0 and the sum
    of their principal logs, over the pair's own (K-1) 2m eigenvalues, is the
    continuous branch; the principal log of det D_j is not (for m >= 2 the
    arguments can sum outside (-pi, pi]).  A pair's blocks are constant in j
    and p_j does not depend on K, so pairs of different K share one
    recursion, run to the largest K; each pair reads its own first K - 1
    pivots.
    """
    if len({s.m for s, _ in pairs}) != 1:
        raise ValueError("need one or more pairs, all with the same m")
    K, d = max(s.steps for s, _ in pairs), 2 * pairs[0][0].m
    p = 1.0 + 1.0 / np.arange(1, K)
    run = max(1, ORACLE_RUN_BYTES // (16 * (K - 1) * d * d))
    values = []
    for first in range(0, len(pairs), run):
        batch = pairs[first:first + run]
        g, a = np.stack([2j * s.sigma2 / s.steps * np.array(_form_blocks(s, q)) for s, q in batch], axis=1)
        at = a.swapaxes(-1, -2)
        b, c = np.eye(d) + a, a + at + at @ a
        bt = b.swapaxes(-1, -2)
        dev = np.empty((len(g), K - 1, d, d), dtype=complex)
        dev[:, 0] = -g / 2
        for j in range(1, K - 1):
            f = np.linalg.solve(np.eye(d) + dev[:, j - 1], dev[:, j - 1])
            dev[:, j] = -(g + (c - bt @ f @ b) / p[j - 1]) / p[j]
        for (s, _), piv in zip(batch, dev):
            mu = np.linalg.eigvals(piv[:s.steps - 1])  # log(1 + mu) by hand: complex np.log1p is inaccurate near 0
            terms = np.log1p(2 * mu.real + np.abs(mu) ** 2) / 2 + 1j * np.angle(1 + mu)
            values.append(complex(np.exp(-0.5 * np.sum(terms))))
    return values
