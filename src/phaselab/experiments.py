"""Configuration-driven experiment runners.

Each experiment tag reproduces a block of the verification battery and emits
one row per check: a measured value, its threshold, a comparator, and a
status.  Rows with comparator "report" never fail a run.  Runners are
deterministic given the config (all randomness flows through explicit
seeds), so identical configs produce byte-identical CSV output.
"""

from __future__ import annotations

import math
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from typing import Callable, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .cones import (
    HamiltonianSymbol,
    cayley,
    classify,
    hat_lift,
    make_structural,
    po_decompose,
    sample,
    symbol_quadratic_matrix,
)
from .fock import (
    ConvergenceGuardError,
    FockSpace,
    annihilator,
    antinormal_quantize,
    band_indices,
    basis_state,
    coherent,
    creator,
    drho,
    h_A_operator,
    quantize_integral,
    strong_limit_run,
    vacuum_expectation,
    vacuum_state,
    z_op,
)
from .landau import (
    MIN_HALF_CELLS,
    Grid2D,
    cluster_center,
    flux_count,
    grid_strong_limit,
    lanczos_bytes,
    landau_hamiltonian,
    low_spectrum,
    max_eig_count,
)
from .bridge import (
    CHUNK,
    MIN_SAMPLES,
    MIN_STEPS,
    MeasureSpec,
    QuadraticAction,
    VARIANCE_RULES,
    estimate_actions,
    gaussian_oracles,
)
from .linalg import RANK_TOL, expm, opnorm, stack_runs, subspace_gap
from .relations import (
    compose,
    graph_limit_gaps,
    graph_of,
    is_Unn,
    is_symplectic_rel,
    ker_indef,
    make_Nb,
    potapov_inverse,
    potapov_matrix,
    potapov_relation,
    potapov_product,
    projection_derivative,
)


class ConfigError(ValueError):
    """Config failed schema validation (maps to exit status 2)."""


class NonFiniteCheckError(ValueError):
    """A check row with a non-finite value or threshold: a run ends in this
    instead of writing nan or inf as a measurement."""


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    threshold: float | None
    comparator: str  # "<=", "<", ">", ">=", or "report"
    passed: bool | None  # None for report-only rows

    def __post_init__(self):
        # every constructor below comes through here
        if not all(math.isfinite(x) for x in (self.value, self.threshold) if x is not None):
            raise NonFiniteCheckError(f"check {self.name!r} has value {self.value!r} and threshold "
                                      f"{self.threshold!r}; both must be finite")

    @staticmethod
    def le(name: str, value: float, threshold: float) -> "Check":
        return Check(name, float(value), float(threshold), "<=", bool(value <= threshold))

    @staticmethod
    def lt(name: str, value: float, threshold: float) -> "Check":
        return Check(name, float(value), float(threshold), "<", bool(value < threshold))

    @staticmethod
    def gt(name: str, value: float, threshold: float) -> "Check":
        return Check(name, float(value), float(threshold), ">", bool(value > threshold))

    @staticmethod
    def ge(name: str, value: float, threshold: float) -> "Check":
        return Check(name, float(value), float(threshold), ">=", bool(value >= threshold))

    @staticmethod
    def report(name: str, value: float) -> "Check":
        return Check(name, float(value), None, "report", None)


@dataclass
class RunReport:
    experiment: str
    parameters: dict
    checks: list[Check] = field(default_factory=list)
    wall_time: float = 0.0
    version: str = __version__

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks if c.passed is not None)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "parameters": self.parameters,
            "version": self.version,
            "wall_time_s": self.wall_time,
            "ok": self.ok,
            "checks": [asdict(c) for c in self.checks],
        }


# ---------------------------------------------------------------------------
# membership: structural identities and dissipativity <-> contraction

STRUCTURAL_TOL = 1e-14


def run_membership(p: dict) -> RunReport:
    checks = []
    for n in p["n_list"]:
        S = make_structural(n)
        Jc = cayley(S.J)
        target = np.diag(np.concatenate([-1j * np.ones(n), 1j * np.ones(n)]))
        checks.append(Check.le(f"Jc_diagonal_n{n}", opnorm(Jc - target), STRUCTURAL_TOL))
        checks.append(Check.le(f"Ical_is_minus_i_Jc_n{n}", opnorm(S.Ical - (-1j) * Jc), STRUCTURAL_TOL))
        checks.append(Check.le(f"J_squared_n{n}", opnorm(S.J @ S.J + np.eye(2 * n)), STRUCTURAL_TOL))
        checks.append(Check.le(f"W_unitary_n{n}", opnorm(S.W @ S.W.conj().T - np.eye(2 * n)), STRUCTURAL_TOL))

    # cone test vs contraction test at six time points.  Member samples are
    # kept at norm <= 0.4 so that ||e^{10X}||^2 stays small enough for the
    # absolute psd tolerance at t = 10; non-members violate exponentially,
    # so their size costs nothing.
    n = p["n"]
    S = make_structural(n)
    ts = np.array([0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
    rng = np.random.default_rng(p["seed"])
    disagreements = 0
    # a sample's share of a stack: its exponentials at the six times; where
    # one sample's exceed the budget, its times are cut in turn
    item = 16 * (2 * n) ** 2
    for run in stack_runs(p["samples"], len(ts) * item):
        idx = range(p["samples"])[run]
        X = sample("Diss", n, 0.4, [p["seed"] + i for i in idx])
        for k, i in enumerate(idx):
            if i % 2:
                # push strictly outside the cone: shift along the accretive +Ical
                X[k] += float(rng.uniform(0.15, 0.5)) * S.Ical
        in_cone = classify(X, "Diss").flag
        contracts = np.ones(len(idx), dtype=bool)
        for times in stack_runs(len(ts), len(idx) * item):
            contracts &= classify(expm(ts[times, None, None, None] * X), "GammaU").flag.all(axis=0)
        disagreements += int(np.sum(in_cone != contracts))
    checks.append(Check.le("dissipativity_contraction_disagreements", disagreements, 0))
    return RunReport("membership", p, checks)


# ---------------------------------------------------------------------------
# decompose: Potapov-Olshanski generate-then-recover

def run_decompose(p: dict) -> RunReport:
    n = p["n"]
    S = make_structural(n)
    rng = np.random.default_rng(p["seed"])
    worst_recon = worst_recover = 0.0
    memberships_ok = True
    # a sample's share of a stack: h0, X0, g, h, X and the logarithm's
    # intermediates g^[*] g, its eigenbasis and that basis's inverse
    for run in stack_runs(p["samples"], 8 * 16 * (2 * n) ** 2):
        idx = range(p["samples"])[run]
        scales = [(float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.1, 1.0))) for _ in idx]
        h0 = sample("Sp_c", n, [a for a, _ in scales], [p["seed"] + 2 * i for i in idx])
        X0 = sample("SDiss_spc", n, [b for _, b in scales], [p["seed"] + 2 * i + 1 for i in idx])
        g = h0 @ expm(X0)
        h, X = po_decompose(g, S)
        worst_recon = max(worst_recon, float(np.max(opnorm(h @ expm(X) - g) / opnorm(g))))
        worst_recover = max(worst_recover, float(np.max(opnorm(X - X0))))
        memberships_ok &= bool(np.all(
            classify(h, "GammaSp_c").flag & classify(h, "U").flag & classify(X, "SDiss_spc").flag
        ))
    checks = [
        Check.le("reconstruction_residual", worst_recon, 1e-9),
        Check.le("generator_recovery", worst_recover, 1e-7),
        Check.ge("memberships_certified", float(memberships_ok), 1.0),
    ]
    return RunReport("decompose", p, checks)


# ---------------------------------------------------------------------------
# potapov: the explicit 2x2 limit example, the product formula, contractivity

def run_potapov(p: dict) -> RunReport:
    checks = []

    # the diagonal one-parameter semigroup example
    X = np.diag([1.0, -1.0]).astype(complex)
    r1 = potapov_matrix(expm(1.0 * X))
    target = np.array([[0.0, np.exp(-1.0)], [np.exp(-1.0), 0.0]], dtype=complex)
    checks.append(Check.le("example_potapov_t1", opnorm(r1 - target), 1e-12))

    P_lim = potapov_inverse(np.zeros((2, 2), dtype=complex))
    gap16 = subspace_gap(graph_of(expm(16.0 * X)), P_lim)
    checks.append(Check.le("example_gap_t16", gap16, 1e-6))

    ker, ind = ker_indef(P_lim)
    ker_ok = (
        ker.shape[1] == 1
        and abs(abs(ker[1, 0]) - 1.0) < 1e-12
        and ind.shape[1] == 1
        and abs(abs(ind[0, 0]) - 1.0) < 1e-12
    )
    checks.append(Check.ge("example_ker_indef_lines", float(ker_ok), 1.0))
    in_semigroup = is_Unn(P_lim) and is_symplectic_rel(P_lim)
    checks.append(Check.ge("example_limit_in_semigroup", float(in_semigroup), 1.0))

    # product formula vs relation composition
    n = p["n"]
    worst = 0.0
    # a pair's share of a stack: its draws, their graphs and transforms, and
    # the composed frame; compose runs per pair, its nullspace rank being
    # the data's
    for run in stack_runs(p["pairs"], 12 * 16 * (2 * n) ** 2):
        idx = range(p["pairs"])[run]
        g1 = sample("GammaU", n, 0.6, [p["seed"] + 2 * i for i in idx])
        g2 = sample("GammaU", n, 0.6, [p["seed"] + 2 * i + 1 for i in idx])
        P1, P2 = graph_of(g1), graph_of(g2)
        lhs = potapov_relation(np.stack([compose(a, b) for a, b in zip(P1, P2)]))
        rhs = potapov_product(potapov_relation(P1), potapov_relation(P2))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    checks.append(Check.le("product_formula_deviation", worst, 1e-9))

    # contractivity of the transform over the semigroup
    worst_norm = 0.0
    per_n = p["contraction_samples"] // len(p["contraction_n_list"])
    for nn in p["contraction_n_list"]:
        seeds = range(p["seed"] + 1000, p["seed"] + 1000 + per_n)
        for run in stack_runs(per_n, 8 * 16 * (2 * nn) ** 2):
            g = sample("GammaU", nn, 0.8, seeds[run])
            worst_norm = max(worst_norm, float(np.max(opnorm(potapov_relation(graph_of(g))))))
    checks.append(Check.le("transform_operator_norm", worst_norm, 1.0 + 1e-10))
    return RunReport("potapov", p, checks)


# ---------------------------------------------------------------------------
# graph-limit: convergence to the limit relation; projection derivative

def run_graph_limit(p: dict) -> RunReport:
    m = p["m"]
    Nb = make_Nb(m)
    nu_list = p["nu_list"]
    worst = np.zeros(len(nu_list))
    monotone = True
    structure_ok = True
    for i in range(p["samples"]):
        P, gaps = graph_limit_gaps(sample("sp_c", 2 * m, 1.0, p["seed"] + i), nu_list)
        structure_ok &= is_Unn(P) and is_symplectic_rel(P)
        monotone &= all(g2 <= g1 + 1e-12 for g1, g2 in zip(gaps, gaps[1:]))
        worst = np.maximum(worst, gaps)
    checks = [
        Check.ge("limit_in_semigroup", float(structure_ok), 1.0),
        Check.ge("gap_monotone_decreasing", float(monotone), 1.0),
        # the stated e^{-nu}-rate threshold; the true rate is ||A||/nu, so
        # this check documents the gap to the stated tolerance honestly
        Check.le("final_gap", worst[-1], 1e-6),
    ]
    for nu, g in zip(nu_list, worst):
        checks.append(Check.report(f"gap_nu{nu:g}", g))

    eps = 1e-5
    worst_rel = 0.0
    rng = np.random.default_rng(p["seed"])
    for _ in range(p["fd_samples"]):
        A = rng.normal(size=(4 * m, 4 * m)) + 1j * rng.normal(size=(4 * m, 4 * m))
        A /= opnorm(A)
        closed = projection_derivative(A)
        fd = (_cluster_projector(eps * A - Nb) - _cluster_projector(-eps * A - Nb)) / (2 * eps)
        worst_rel = max(worst_rel, opnorm(fd - closed) / opnorm(closed))
    checks.append(Check.le("projection_derivative_fd", worst_rel, 1e-3))
    return RunReport("graph-limit", p, checks)


# for small eps, eps A - N_b has eigenvalues near 0, 1 and -1; those near 0 lie within this radius
CLUSTER_RADIUS = 0.5


def _cluster_projector(M: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eig(M)
    sel = np.abs(w) < CLUSTER_RADIUS
    Vi = np.linalg.inv(V)
    return V[:, sel] @ Vi[sel, :]


# ---------------------------------------------------------------------------
# fock-limit: operator lemma, strong limit, antinormal identities,
# resolution of identity, cutoff convergence

LEMMA_CUTOFF = 10
# the safe band of the antinormal words, occupations <= cutoff - 5, is not empty
ANTINORMAL_CUTOFF = 10
# the quadrature rows run at the Fock cutoff QUAD_CUTOFF on the disc of
# radius QUAD_RADIUS, and compare a-occupations <= QUAD_MAX_OCC
QUAD_TOL, QUAD_CUTOFF = 1e-3, 12
QUAD_RADIUS, QUAD_MAX_OCC = 6.0, 3
# the Fock cutoff of the cutoff-convergence rows; the guard reruns at cutoff + 2
VACUUM_CUTOFF = 16


def run_fock_limit(p: dict) -> RunReport:
    checks = []

    # two-route operator identity on the safe band
    space = FockSpace(LEMMA_CUTOFF)
    band = band_indices(space, LEMMA_CUTOFF - 3)
    worst = 0.0
    for i in range(p["lemma_samples"]):
        sym = HamiltonianSymbol(1, sample("sp_c", 1, 1.0, p["seed"] + i))
        lhs = h_A_operator(space, sym)
        rhs = drho(space, hat_lift(sym))
        worst = max(worst, float(opnorm((lhs - rhs)[:, band])))
    checks.append(Check.le("symbol_equals_lifted_generator", worst, 1e-10))

    # strong limit residual table.  The coherent test vector (amplitude 0.5)
    # must fit strong_limit_run's safe band, occupations <= cutoff / 3, so
    # the cutoff is at least 12
    sl_space = FockSpace(14)
    sym = HamiltonianSymbol(1, sample("sp_c", 1, p["strong_norm"], p["seed"] + 101))
    vectors = [
        vacuum_state(sl_space),
        coherent(sl_space, 0.5),
        basis_state(sl_space, (1, 0)),
    ]
    table = strong_limit_run(sl_space, sym, p["strong_nu_list"], vectors)
    finals = table[-1][1]
    residuals = np.array([row[1] for row in table])
    monotone = bool(np.all(residuals[1:] <= residuals[:-1] + 1e-12))
    checks.append(Check.ge("strong_limit_monotone", float(monotone), 1.0))
    # stated threshold; the honest rate is ||A||/nu (see ledger), reported as-is
    checks.append(Check.le("strong_limit_final_residual", max(finals), 5e-3))

    # antinormal monomial identities, exact on the safe band of occupations
    # <= cutoff - 5: the leading cutoff - 4 of the states |j, 0> of ran E_b
    an_space = FockSpace(ANTINORMAL_CUTOFF)
    Z = z_op(an_space)
    Zc = Z.conj().T
    a, ac = annihilator(an_space, 1), creator(an_space, 1)
    worst = 0.0
    for pp in range(4):
        for qq in range(4 - pp):
            lhs = antinormal_quantize(an_space, np.linalg.matrix_power(Z, pp) @ np.linalg.matrix_power(Zc, qq))
            rhs = antinormal_quantize(an_space, np.linalg.matrix_power(a, qq) @ np.linalg.matrix_power(ac, pp))
            worst = max(worst, float(opnorm((lhs - rhs)[:, : ANTINORMAL_CUTOFF - 4])))
    checks.append(Check.le("antinormal_word_identity", worst, 1e-12))

    # quadrature monomials vs compressed operator words, on a-occupations <= QUAD_MAX_OCC
    q_space = FockSpace(QUAD_CUTOFF)
    Zq = z_op(q_space)
    Zqc = Zq.conj().T
    band = QUAD_MAX_OCC + 1
    degrees = [(pp, qq) for pp in range(3) for qq in range(3 - pp)]
    # one amplitude table serves every monomial
    Qs = quantize_integral(q_space, [lambda z, pp=pp, qq=qq: z**pp * np.conj(z) ** qq for pp, qq in degrees],
                           QUAD_RADIUS, p["quad_grid"])
    devs = {}
    for (pp, qq), Q in zip(degrees, Qs):
        ref = antinormal_quantize(q_space, np.linalg.matrix_power(Zq, qq) @ np.linalg.matrix_power(Zqc, pp))
        devs[pp, qq] = float(opnorm((Q - ref)[:band, :band]))
    checks.append(Check.le("quadrature_monomials", max(devs.values()), QUAD_TOL))
    # the resolution of identity is the monomial f = 1: its quadrature against E_b
    checks.append(Check.le("resolution_of_identity", devs[0, 0], QUAD_TOL))

    # cutoff-Hamiltonian convergence of the vacuum expectation.  Whether
    # the cutoff suffices depends on the symbol, so a tripped cutoff guard
    # is a failed check in place of the rows it guards
    ve_space = FockSpace(VACUUM_CUTOFF)
    sym2 = HamiltonianSymbol(1, sample("sp_c", 1, 0.5, p["seed"] + 202))
    try:
        # one amplitude table serves every clip
        v_uncut, *v_clipped = vacuum_expectation(ve_space, sym2, [None, *map(float, p["tau_list"])])
        devs = [abs(v - v_uncut) for v in v_clipped]
    except ConvergenceGuardError as exc:
        checks.append(Check.lt("vacuum_expectation_cutoff_guard", exc.delta, exc.guard))
    else:
        checks.append(Check.le("vacuum_expectation_modulus", abs(v_uncut), 1.0 + 1e-9))
        checks.append(Check.le("cutoff_convergence_final", devs[-1], 1e-3))
        checks.append(Check.report("cutoff_convergence_first", devs[0]))
    return RunReport("fock-limit", p, checks)


# ---------------------------------------------------------------------------
# landau: Landau levels of the discretized magnetic Laplacian

STRONG_LIMIT_SPACING = 0.25


def run_landau(p: dict) -> RunReport:
    grid = Grid2D(p["half_width"], p["spacing"])
    H = landau_hamiltonian(grid)
    vals = low_spectrum(H, k=p["eig_count"])
    checks = [
        Check.le("ground_level_offset", abs(vals[0]), 0.02),
        Check.le("first_excited_cluster_offset", abs(cluster_center(vals, 1.0) - 1.0), 0.05),
        Check.ge("spectrum_reaches_past_gap", float(vals.max() > 0.5), 1.0),
    ]
    checks.append(Check.report("states_below_half", float(np.sum(vals < 0.5))))
    checks.append(Check.report("flux_count", flux_count(grid)))

    sgrid = Grid2D(p["strong_limit_half_width"], STRONG_LIMIT_SPACING)
    sym = HamiltonianSymbol(1, sample("sp_c", 1, 0.3, p["seed"]))
    for nu, dev in grid_strong_limit(sgrid, sym, p["strong_limit_nu_list"]):
        checks.append(Check.report(f"grid_strong_limit_dev_nu{nu:g}", dev))
    return RunReport("landau", p, checks)


# ---------------------------------------------------------------------------
# pathint: Monte Carlo engine vs the Gaussian determinant oracle

def _in_stderr(name: str, dev: float, stderr: float, threshold: float | None = None) -> Check:
    """The row ``name``_in_stderr, dev / stderr, checked against
    ``threshold`` (report-only without one).  Where every sample's phase
    rounded to one value (a tiny nu), the stderr is 0 and a failed guard
    row, ``name``_stderr_guard (stderr > 0), stands in its place."""
    if stderr == 0:
        return Check.gt(f"{name}_stderr_guard", stderr, 0.0)
    if threshold is None:
        return Check.report(f"{name}_in_stderr", dev / stderr)
    return Check.le(f"{name}_in_stderr", dev / stderr, threshold)


def run_pathint(p: dict) -> RunReport:
    sym = HamiltonianSymbol(1, sample("sp_c", 1, p["symbol_norm"], p["seed"] + 77))
    actions = [QuadraticAction(), QuadraticAction(hmatrix=symbol_quadratic_matrix(sym))]
    specs = [MeasureSpec(nu=float(nu), steps=p["steps"], seed=p["seed"]) for nu in p["nu_list"]]
    # one draw of the loops serves both actions at every nu; one oracle
    # batch, of the same actions, serves both grids
    reps = estimate_actions(specs, actions, samples=p["samples"])
    oracles = gaussian_oracles([(spec, q) for spec in specs for q in actions]
                               + [(replace(spec, steps=2 * spec.steps), actions[1]) for spec in specs])
    coarse, fine = oracles[:2 * len(specs)], oracles[2 * len(specs):]
    checks = []
    for i, (nu, spec) in enumerate(zip(p["nu_list"], specs)):
        scale = float(np.exp(spec.nu * spec.m))
        for label, oracle, rep in zip(("area", "quadratic"), coarse[2 * i:2 * i + 2], reps[i]):
            dev = abs(rep.mean - scale * oracle)
            checks.append(_in_stderr(f"mc_vs_oracle_{label}_nu{nu:g}", dev, rep.stderr, 3.0))
            checks.append(Check.report(f"mc_stderr_{label}_nu{nu:g}", rep.stderr))
        v1, v2 = coarse[2 * i + 1], fine[i]
        if v2 == 0:
            # the symbol drawn decides whether the fine oracle, a product
            # of one factor per step, underflows: a failed guard row stands
            # in place of the refinement row
            checks.append(Check.gt(f"oracle_refinement_nu{nu:g}_underflow_guard", abs(v2), 0.0))
        else:
            # stated refinement tolerance; the honest discretization error is
            # Theta(nu^2/steps) (see ledger), reported as-is
            checks.append(Check.le(f"oracle_refinement_nu{nu:g}", abs(v1 - v2) / abs(v2), 1e-3))
    return RunReport("pathint", p, checks)


# ---------------------------------------------------------------------------
# calibrate: reference-measure normalization study (report-only).  For each
# variance rule and nu, the exact oracle value of e^{nu m} E[e^{i S_0}] for
# the bare area action, from one oracle batch, and a Monte Carlo spot check
# at each rule's first nu, from one shared draw.  Documents the normalization
# gap of the reference measure; asserts nothing about any limit.

def run_calibrate(p: dict) -> RunReport:
    m, nus = p["m"], p["nu_list"]
    specs = [MeasureSpec(nu=float(nu), steps=p["steps"], seed=p["seed"], variance_rule=rule, m=m)
             for rule in p["rules"] for nu in nus]
    firsts = specs[::len(nus)]
    area = QuadraticAction()

    def table():
        oracles = gaussian_oracles([(spec, area) for spec in specs])
        spot = estimate_actions(firsts, [area], p["samples"])
        return [float(np.exp(spec.nu * m)) * v for spec, v in zip(specs, oracles)], [rep for (rep,) in spot]

    # run twice: the table must repeat exactly
    (scaled, spot), (scaled2, spot2) = table(), table()
    deterministic = scaled == scaled2 and [r.mean for r in spot] == [r.mean for r in spot2]
    checks = [Check.ge("table_deterministic", float(deterministic), 1.0)]
    for spec, v in zip(specs, scaled):
        checks.append(Check.report(f"oracle_{spec.variance_rule}_nu{spec.nu:g}", abs(v)))
        checks.append(Check.report(f"dev_from_one_{spec.variance_rule}_nu{spec.nu:g}", abs(v - 1.0)))
    # closed form for the time-rescaled rule: (2 nu / (1 - e^{-2 nu}))^m.
    # The discrete-area error grows like nu^2/steps, so the continuum law is
    # checked at the smallest nu, where the discretization is well resolved.
    # The table holds it: ``rules`` must contain "nu".
    min_nu = min(nus)
    oracle = next(v for spec, v in zip(specs, scaled) if spec.variance_rule == "nu" and spec.nu == min_nu)
    closed = (2 * min_nu / -np.expm1(-2 * min_nu)) ** m
    checks.append(Check.le("closed_form_cross_check", abs(abs(oracle) - closed) / closed, 5e-3))
    # whether any rule lands within 0.1 of 1 at the largest nu
    near_one = any(abs(v - 1.0) < 0.1 for spec, v in zip(specs, scaled) if spec.nu == max(nus))
    checks.append(Check.report("any_rule_near_one", float(near_one)))
    # the Monte Carlo spot checks, as pathint reports them
    for spec, v, rep in zip(firsts, scaled[::len(nus)], spot):
        tag = f"{spec.variance_rule}_nu{spec.nu:g}"
        checks.append(_in_stderr(f"mc_vs_oracle_{tag}", abs(rep.mean - v), rep.stderr))
        checks.append(Check.report(f"mc_stderr_{tag}", rep.stderr))
    return RunReport("calibrate", p, checks)


# ---------------------------------------------------------------------------
# registry and config validation: one frozen dataclass per experiment, its
# docstring the topic.  A field's annotation is its type, its default the
# default (none: required), and its metadata "range" is (holds(value,
# params), what the value must be), run on the filled parameters after the
# type checks, so a range may read any field; what the value must be is a
# string, or a function of the parameters for a range that quotes another
# field.  Outside a range a runner raises, or a run checks nothing.

def _range(holds: Callable[[object, dict], bool], want: str | Callable[[dict], str]) -> dict:
    return {"range": (holds, want)}


def _at_least(low, why: str = "") -> dict:
    return _range(lambda v, p: v >= low, f"at least {low}{why}")


# An int that sizes an array is at most the largest value at which the biggest
# array its runner allocates for it, named in its range, stays within this
MAX_ARRAY_BYTES = 2**28


def _sized(low: int, high: int, array: str, why: str = "", each: bool = False) -> dict:
    within = f"{low}{why} to {high}, the most at which {array} stays within 256 MiB"
    if each:  # a list field
        return _range(lambda v, p: len(v) > 0 and all(low <= x <= high for x in v), f"a non-empty list of integers from {within}")
    return _range(lambda v, p: low <= v <= high, f"from {within}")


# the most points of a landau grid: the largest array of the grid
# Hamiltonian is the complex CSR data of magnetic_laplacian's H + diag, its
# 4 side (side - 1) hops and npoints diagonal entries, fewer than 5 npoints;
# landau_hamiltonian's sum and grid_strong_limit's generator and its tocsc
# allocate the same size again.  eig_count's range bounds low_spectrum's
# Lanczos basis on the main grid; its factorizations' fill-in is not covered
_GRID_POINTS = MAX_ARRAY_BYTES // 80


def _fine_grid(spacing: Callable[[dict], float], what: str) -> dict:
    """The range of a half width on the grid of spacing ``spacing(params)``,
    which the message calls ``what`` and quotes."""
    return _range(lambda v, p: spacing(p) > 0 and MIN_HALF_CELLS <= v / spacing(p) < math.inf
                  and Grid2D(v, spacing(p)).npoints <= _GRID_POINTS,
                  lambda p: f"finite and at least {MIN_HALF_CELLS} times {what}, which is {spacing(p)!r} "
                  f"and must be positive, on a grid of at most {_GRID_POINTS} points, the most at which "
                  "the CSR data of the grid Hamiltonian (fewer than 5 x npoints complex values) stays "
                  "within 256 MiB")


def _row_names(fmt: str, within: dict | None = None) -> dict:
    """The range of a list field whose entries name CSV rows, as
    format(entry, fmt): ``within``'s range, and no two names alike."""
    holds, want = within["range"] if within else (lambda v, p: True, "a list")
    return _range(lambda v, p: holds(v, p) and len({format(x, fmt) for x in v}) == len(v),
                  f"{want}, no two alike as format(entry, {fmt!r}), which names their CSV rows")


def _eig_count_ok(k: int, grid: Grid2D) -> bool:
    # the lowest level holds about flux_count states; on grids with half
    # widths 2-8 and spacings 1/8-1/4 the first value that cluster_center
    # can place near level 1 (above 0.55) came at most ceil(flux_count) + 1
    # values in
    return (math.ceil(flux_count(grid)) + 2 <= k <= max_eig_count(grid.npoints)
            and lanczos_bytes(grid.npoints, k) <= MAX_ARRAY_BYTES)


_AT_LEAST_ONE = _at_least(1)
_SEED = _at_least(0, ", as numpy's default_rng needs")
_POSITIVE = _range(lambda v, p: v > 0, "positive")
_POSITIVE_LIST = _range(lambda v, p: len(v) > 0 and all(x > 0 for x in v), "a non-empty list of positive numbers")
# the largest nu m at which the estimator's scale e^{nu m} is a finite float
_NU_M_MAX = math.floor(math.log(np.finfo(float).max))
_SCALED_NU_LIST = _row_names("g", _range(lambda v, p: len(v) > 0 and all(0 < x and x * p.get("m", 1) <= _NU_M_MAX for x in v),
                                         f"a non-empty list of positive numbers with nu m at most {_NU_M_MAX} (m = 1 for "
                                         "pathint), the most at which the estimator's scale e^(nu m) is a finite float"))
_GRAPH_NU_MAX = math.floor(math.log(1 / RANK_TOL) - 1)
_GRAPH_NU_LIST = _row_names("g", _range(lambda v, p: len(v) > 0 and all(0 < x <= _GRAPH_NU_MAX for x in v),
                                        f"a non-empty list of positive numbers at most {_GRAPH_NU_MAX}: the runner's A has "
                                        "spectral norm 1, so ||e^(A + nu N_b)|| <= e^(nu + 1), and the frame [I; e^(A + nu N_b)] "
                                        "of relations.graph_of, whose smallest singular value is at least 1, passes its rank "
                                        f"test (RANK_TOL = {RANK_TOL:g}) while sqrt(1 + e^(2 (nu + 1))) < 1 / RANK_TOL"))
# gaussian_oracles forms each pivot as a difference of products of its
# blocks, so cancellation costs it about their norm times eps, relatively;
# the symbol's ||M|| is at most symbol_norm
_SYMBOL_NORM = _range(lambda v, p: 0 < v <= 1e10,
                      "positive and at most 1e10, so that the pivots of bridge.gaussian_oracles, differences of "
                      "products of blocks of norm up to nu symbol_norm / (2 steps^2) + nu / steps, lose at most "
                      "about 3e-6 of their value to cancellation (at nu = 709 and 16 steps)")
# the floor is measured on seeds 1-20, at strong_norm 1 to 1e5
_STRONG_NORM = _range(lambda v, p: 0 < v <= 1e5,
                      "positive and at most 1e5, so that the strong-limit residual's rounding floor, about "
                      "2.4e-8 strong_norm at large nu, stays below the check's 5e-3")
# expm's order selection reads the norm of the 8th power of its argument
# (Al-Mohy and Higham, SIAM J. Matrix Anal. Appl. 31, 2009)
_STRONG_NU_LIST = _range(lambda v, p: len(v) > 0 and all(0 < x <= 1e36 for x in v),
                         "a non-empty list of positive numbers at most 1e36: expm reads the norm of the 8th power "
                         "of the strong-limit generator h_A(Z) - nu N_b, of norm about 13 nu at the Fock cutoff 14, "
                         "which stays finite while 13 nu < float max^(1/8) = 3.4e38")
# Al-Mohy and Higham, SIAM J. Sci. Comput. 33, 2011
_STRONG_LIMIT_NU_LIST = _row_names("g", _range(
    lambda v, p: len(v) > 0 and all(0 < x <= 128 for x in v),
    "a non-empty list of positive numbers at most 128: the products with the generator that grid_strong_limit's "
    f"expm_multiply takes grow like nu ||H||_1, with ||H||_1 = 31.5 at the strong-limit spacing {STRONG_LIMIT_SPACING}, "
    "and by nu = 128 the deviation has reached the grid's discretization floor"))
_MATRIX_N_MAX, _MATRIX = math.isqrt(MAX_ARRAY_BYTES // 64), "a 2n x 2n complex matrix"
_QUAD_GRID = _sized(100, math.isqrt(MAX_ARRAY_BYTES // (16 * QUAD_CUTOFF)), f"the cutoff x grid^2 complex table of "
                    f"fock._coherent_amplitudes at cutoff {QUAD_CUTOFF}", ", the coarsest lattice the quadrature rows are stated on,")
_CONTRACTION_N_LIST = _sized(1, math.isqrt(MAX_ARRAY_BYTES // 128), "the 4n x 2n complex frame of relations.graph_of", each=True)
# the estimator works in sub-blocks; the limit keeps a whole block within reach
_LOOP_BLOCK = f"one block of the loop stream ({CHUNK} loops of (steps + 1) x 2m floats)"
_LOOP_POINTS = MAX_ARRAY_BYTES // (16 * CHUNK)  # the most (steps + 1) m
_STEPS = _sized(MIN_STEPS, _LOOP_POINTS - 1, f"{_LOOP_BLOCK} at m = 1")
_LOOP_M = _range(lambda v, p: 1 <= v <= _LOOP_POINTS // (p["steps"] + 1),
                 f"at least 1 and at most {_LOOP_POINTS} // (steps + 1), the most at which {_LOOP_BLOCK} stays within 256 MiB")
# spread evenly over contraction_n_list, the same positive number per n
_CONTRACTION_SAMPLES = _range(lambda v, p: v >= 1 and v % max(1, len(p["contraction_n_list"])) == 0,
                              "a positive multiple of len(contraction_n_list)")
_EIG_COUNT = _range(lambda v, p: _eig_count_ok(v, Grid2D(p["half_width"], p["spacing"])),
                    "at least ceil(landau.flux_count) + 2 of the grid, enough to reach the "
                    "first excited level, at most landau.max_eig_count of its point count, and small enough that "
                    "low_spectrum's Lanczos basis (landau.lanczos_bytes) stays within 256 MiB")
_STRONG_LIMIT_GRID = _fine_grid(lambda p: STRONG_LIMIT_SPACING, "the strong-limit spacing")
# a rule's variance must be positive at each nu of nu_list (validated first)
_RULES = _row_names("", _range(lambda v, p: "nu" in v and set(v) <= set(VARIANCE_RULES)
                               and all(VARIANCE_RULES[rule](nu) > 0 for rule in v for nu in p["nu_list"]),
                               f"a list of {sorted(VARIANCE_RULES)} that holds 'nu', the rule of the "
                               "closed-form cross-check, each rule giving a positive variance at every nu of "
                               "nu_list: nu_plus_log's nu + ln(2 nu) is positive only where 2 nu e^nu > 1, "
                               "nu above about 0.3517"))


@dataclass(frozen=True, kw_only=True)
class MembershipParams:
    """structural matrices and the dissipative-cone / contraction-semigroup equivalence"""
    seed: int = field(metadata=_SEED)
    n_list: tuple[int, ...] = field(default=(1, 2, 3), metadata=_row_names("", _sized(1, _MATRIX_N_MAX, _MATRIX, each=True)))
    n: int = field(default=2, metadata=_sized(1, _MATRIX_N_MAX, _MATRIX))
    samples: int = field(default=200, metadata=_AT_LEAST_ONE)


@dataclass(frozen=True, kw_only=True)
class DecomposeParams:
    """unitary-times-dissipative factorization of semigroup elements"""
    seed: int = field(metadata=_SEED)
    n: int = field(default=2, metadata=_sized(1, _MATRIX_N_MAX, _MATRIX))
    samples: int = field(default=200, metadata=_AT_LEAST_ONE)


@dataclass(frozen=True, kw_only=True)
class PotapovParams:
    """graph transform of contraction relations: explicit limit, product formula, norm bound"""
    seed: int = field(metadata=_SEED)
    n: int = field(default=2, metadata=_sized(1, math.isqrt(MAX_ARRAY_BYTES // 256), "compose's 4n x 4n nullspace basis"))
    pairs: int = field(default=100, metadata=_AT_LEAST_ONE)
    contraction_samples: int = field(default=500, metadata=_CONTRACTION_SAMPLES)
    contraction_n_list: tuple[int, ...] = field(default=(1, 2), metadata=_CONTRACTION_N_LIST)


@dataclass(frozen=True, kw_only=True)
class GraphLimitParams:
    """Grassmannian limits of one-parameter contraction families and the cluster-projector derivative"""
    seed: int = field(metadata=_SEED)
    m: int = field(default=1, metadata=_sized(1, math.isqrt(MAX_ARRAY_BYTES // 1024), "an 8m x 8m projector of subspace_gap"))
    samples: int = field(default=50, metadata=_AT_LEAST_ONE)
    nu_list: tuple[float, ...] = field(default=tuple(float(nu) for nu in range(4, 17)), metadata=_GRAPH_NU_LIST)
    fd_samples: int = field(default=50, metadata=_AT_LEAST_ONE)


@dataclass(frozen=True, kw_only=True)
class FockLimitParams:
    """truncated-Fock quantization: operator lemma, strong limits, antinormal identities, coherent resolution"""
    seed: int = field(metadata=_SEED)
    lemma_samples: int = field(default=50, metadata=_AT_LEAST_ONE)
    strong_norm: float = field(default=1.0, metadata=_STRONG_NORM)
    strong_nu_list: tuple[float, ...] = field(default=tuple(float(nu) for nu in range(4, 13)), metadata=_STRONG_NU_LIST)
    quad_grid: int = field(default=200, metadata=_QUAD_GRID)
    tau_list: tuple[float, ...] = field(default=(4.0, 8.0, 16.0), metadata=_POSITIVE_LIST)


@dataclass(frozen=True, kw_only=True)
class LandauParams:
    """Landau levels of the gauge-covariant lattice Laplacian"""
    half_width: float = field(default=8.0, metadata=_fine_grid(lambda p: p["spacing"], "the parameter 'spacing'"))
    spacing: float = field(default=0.125, metadata=_POSITIVE)
    eig_count: int = field(default=120, metadata=_EIG_COUNT)
    seed: int = field(default=0, metadata=_SEED)
    strong_limit_nu_list: tuple[float, ...] = field(default=(2.0, 4.0, 8.0), metadata=_STRONG_LIMIT_NU_LIST)
    strong_limit_half_width: float = field(default=6.0, metadata=_STRONG_LIMIT_GRID)


@dataclass(frozen=True, kw_only=True)
class PathintParams:
    """oscillatory path-integral Monte Carlo vs the exact Gaussian determinant"""
    seed: int = field(metadata=_SEED)
    nu_list: tuple[float, ...] = field(default=(1.0, 2.0, 4.0), metadata=_SCALED_NU_LIST)
    steps: int = field(default=256, metadata=_STEPS)
    samples: int = field(default=200000, metadata=_at_least(MIN_SAMPLES))
    symbol_norm: float = field(default=0.25, metadata=_SYMBOL_NORM)


@dataclass(frozen=True, kw_only=True)
class CalibrateParams:
    """reference-measure normalization study for the scaled loop estimator"""
    seed: int = field(metadata=_SEED)
    nu_list: tuple[float, ...] = field(default=(1.0, 2.0, 4.0, 8.0), metadata=_SCALED_NU_LIST)
    rules: tuple[str, ...] = field(default=("nu", "nu_half", "two_nu", "nu_plus_log"), metadata=_RULES)
    steps: int = field(default=256, metadata=_STEPS)
    samples: int = field(default=20000, metadata=_at_least(MIN_SAMPLES))
    m: int = field(default=1, metadata=_LOOP_M)


@dataclass(frozen=True)
class ExperimentDef:
    runner: Callable[[dict], RunReport]
    params: type  # the parameter dataclass

    @property
    def topic(self) -> str:
        return self.params.__doc__

    @property
    def required(self) -> tuple:
        return tuple(f.name for f in fields(self.params) if f.default is MISSING)

    @property
    def defaults(self) -> dict:
        """The defaults in field order, a tuple default as the JSON list it stands for."""
        return {f.name: list(f.default) if isinstance(f.default, tuple) else f.default
                for f in fields(self.params) if f.default is not MISSING}


EXPERIMENTS: dict[str, ExperimentDef] = {
    "membership": ExperimentDef(run_membership, MembershipParams),
    "decompose": ExperimentDef(run_decompose, DecomposeParams),
    "potapov": ExperimentDef(run_potapov, PotapovParams),
    "graph-limit": ExperimentDef(run_graph_limit, GraphLimitParams),
    "fock-limit": ExperimentDef(run_fock_limit, FockLimitParams),
    "landau": ExperimentDef(run_landau, LandauParams),
    "pathint": ExperimentDef(run_pathint, PathintParams),
    "calibrate": ExperimentDef(run_calibrate, CalibrateParams),
}


def _type_ok(value, kind) -> bool:
    """Whether the JSON ``value`` has the field type ``kind``: an int also
    passes for a float, a bool never passes for a number (no field is a
    bool), and a list passes for ``tuple[T, ...]`` when each element passes
    for T."""
    if get_origin(kind) is tuple:
        return isinstance(value, list) and all(_type_ok(v, get_args(kind)[0]) for v in value)
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _finite(value, kind) -> bool:
    """Whether a value that passed ``_type_ok`` for ``kind`` is finite where
    ``kind`` is float (for each element, for a list): JSON reads 1e999 as
    inf, and an int too large for a float overflows float(), and with it
    math.isfinite."""
    if get_origin(kind) is tuple:
        return all(_finite(v, get_args(kind)[0]) for v in value)
    if kind is not float:
        return True
    try:
        return math.isfinite(float(value))
    except OverflowError:
        return False


def _type_name(kind) -> str:
    return f"list of {get_args(kind)[0].__name__}" if get_origin(kind) is tuple else kind.__name__


def validate_config(config: dict) -> tuple[str, dict]:
    """Validate a config dict against the experiment's parameter dataclass;
    returns the tag and the parameter dict with defaults filled in.  Each
    value must have its field's type, be finite if it is a float, and stay
    within its field's range."""
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    unknown_top = set(config) - {"experiment", "parameters"}
    if unknown_top:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown_top)}")
    tag = config.get("experiment")
    if tag not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {tag!r}; known tags: {sorted(EXPERIMENTS)}"
        )
    spec = EXPERIMENTS[tag]
    params = config.get("parameters", {})
    if not isinstance(params, dict):
        raise ConfigError("parameters must be an object")
    for key in spec.required:
        if key not in params:
            raise ConfigError(f"experiment {tag!r} requires parameter {key!r}")
    types = get_type_hints(spec.params)
    unknown = set(params) - set(types)
    if unknown:
        raise ConfigError(f"unknown parameters for {tag!r}: {sorted(unknown)}")
    for key, value in params.items():
        if not _type_ok(value, types[key]):
            raise ConfigError(f"parameter {key!r} of {tag!r} must be {_type_name(types[key])}, got {value!r}")
        if not _finite(value, types[key]):
            raise ConfigError(f"parameter {key!r} of {tag!r} must be finite, got {value!r}")
    filled = {**spec.defaults, **params}
    for f in fields(spec.params):
        if "range" in f.metadata:
            holds, want = f.metadata["range"]
            if not holds(filled[f.name], filled):
                want = want(filled) if callable(want) else want
                raise ConfigError(f"parameter {f.name!r} of {tag!r} must be {want}, got {filled[f.name]!r}")
    return tag, filled


def run_experiment(config: dict) -> RunReport:
    tag, params = validate_config(config)
    t0 = time.perf_counter()
    report = EXPERIMENTS[tag].runner(params)
    report.wall_time = time.perf_counter() - t0
    return report
