"""Independent checks of the outputs a workload wrote.

Nothing here compares against a stored copy of an earlier output.  Each
check either recomputes a value with code of its own (numpy and scipy only:
its own action and quadratic form, bridge covariance, dense determinant
oracle, Peierls-phase Laplacian, closed forms) or tests a property the
method must have (a convergence rate, monotone decay, a Monte Carlo error
band).  The program is imported only to rebuild the inputs it was given (the
seeded symbol) and, where a value is not written out (the Gaussian oracle,
the small-grid operator and spectrum), to obtain it for comparison.

Every ``check_*`` function returns a list of failure messages; empty means
the output is correct.  The expected-red rows (criterion 07 ``final_gap``,
criterion 10 ``strong_limit_final_residual`` and criterion 14
``oracle_refinement_nu*``) and the program's own 3-sigma rows never decide a
verdict here.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.sparse as sp

# Monte Carlo band: |mean - exact| <= MC_SIGMAS * stderr.  For a complex mean
# the tail beyond 6 sigma is below 1e-8, so a correct program essentially
# never fails it on any seed.
MC_SIGMAS = 6.0
# dense-oracle agreement (the eigenvalue routes differ only by round-off)
ORACLE_RTOL = 1e-9
# measured law of the discrete-area oracle: |oracle - closed| / closed
# = c sigma^4 / steps with c in 0.50-0.62 at 256 and 512 steps, nu <= 9
AREA_LAW_C = (0.49, 0.63)
# criterion 07: nu * gap(nu) for ||A|| = 1 (measured 0.73-0.93 at nu 4-16)
GAP_RATE = (0.25, 1.25)
# criterion 10: nu * r(nu) at the last nu for ||A|| = strong_norm
# (measured 1.2-2.8 for ||A|| = 1)
RESIDUAL_RATE = (0.25, 4.0)
# small Landau grid on which the operator and spectrum are recomputed
SMALL_GRID = (4.0, 0.25)
SMALL_EIGS = 24
SPECTRUM_ATOL = 1e-8


# ---------------------------------------------------------------------------
# reading outputs

def read_rows(csv_path: Path) -> dict[str, dict]:
    """CSV rows by check name: value, threshold, comparator, status."""
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    out = {}
    for r in rows:
        out[r["check"]] = {
            "value": float(r["value"]),
            "threshold": float(r["threshold"]) if r["threshold"] else None,
            "comparator": r["comparator"],
            "status": r["status"],
            "experiment": r["experiment"],
        }
    return out


def output_paths(out_dir: Path, experiment: str) -> tuple[Path, Path]:
    base = experiment.replace("-", "_")
    return out_dir / f"{base}_report.json", out_dir / f"{base}_measurements.csv"


def same_rows(first: dict[str, dict], later: dict[str, dict]) -> list[str]:
    """A later round of the same config must write the same rows.  Values may
    differ in the last digits only: ARPACK starts from a random vector, so
    the Landau eigenvalues are not bit-reproducible."""
    if list(first) != list(later):
        return ["rows differ from round 0"]
    return [
        f"{name}: {later[name]['value']!r} in this round, {r['value']!r} in round 0"
        for name, r in first.items()
        if r["status"] != later[name]["status"]
        or not math.isclose(r["value"], later[name]["value"], rel_tol=1e-9, abs_tol=1e-12)
    ]


def check_report(config: dict, report: dict, rows: dict[str, dict]) -> list[str]:
    """The JSON report is for the config that was sent and agrees with the
    CSV row for row."""
    fails = []
    if report.get("experiment") != config["experiment"]:
        fails.append(f"report experiment {report.get('experiment')!r} != {config['experiment']!r}")
    params = report.get("parameters", {})
    for key, val in config["parameters"].items():
        if params.get(key) != val:
            fails.append(f"report parameter {key} = {params.get(key)!r}, sent {val!r}")
    names = [c["name"] for c in report.get("checks", [])]
    if names != list(rows):
        fails.append("report checks and CSV rows differ")
    for c in report.get("checks", []):
        r = rows.get(c["name"])
        if r is None:
            continue
        status = "report" if c["passed"] is None else ("pass" if c["passed"] else "fail")
        if status != r["status"] or c["value"] != r["value"]:
            fails.append(f"{c['name']}: report and CSV disagree")
        if r["status"] != "report" and status == "pass" and not _holds(r):
            fails.append(f"{c['name']}: marked pass but {r['value']} {r['comparator']} {r['threshold']} is false")
    return fails


def _holds(r: dict) -> bool:
    v, t, c = r["value"], r["threshold"], r["comparator"]
    return v <= t if c == "<=" else v >= t if c == ">=" else v == t


def _need(rows: dict, name: str, fails: list[str]):
    if name not in rows:
        fails.append(f"row {name} missing")
        return None
    return rows[name]["value"]


def _at_most(rows: dict, name: str, bound: float, fails: list[str]) -> None:
    v = _need(rows, name, fails)
    if v is not None and not v <= bound:
        fails.append(f"{name} = {v:.6g} > {bound:.6g}")


def _at_least(rows: dict, name: str, bound: float, fails: list[str]) -> None:
    v = _need(rows, name, fails)
    if v is not None and not v >= bound:
        fails.append(f"{name} = {v:.6g} < {bound:.6g}")


def _decreasing(values: list[float], what: str, fails: list[str]) -> None:
    if any(b > a for a, b in zip(values, values[1:])):
        fails.append(f"{what} not decreasing: {values}")


# ---------------------------------------------------------------------------
# independent path-integral machinery

def symbol_values(A: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """i h_A(p) for the quadratic symbol h_A(z) = (1/2) z~* Ical A z~ on the
    doubled coordinates z~ = (conj z, z), z = x + i y; pts is (..., 2m)."""
    m = A.shape[0] // 2
    z = pts[..., :m] + 1j * pts[..., m:]
    zt = np.concatenate([z.conj(), z], axis=-1)
    ical = np.concatenate([-np.ones(m), np.ones(m)])
    h = 0.5 * np.einsum("...i,i,ij,...j->...", zt.conj(), ical, A, zt)
    return np.real(1j * h)


def loop_action(points: np.ndarray, A: np.ndarray | None) -> np.ndarray:
    """Discretized action of loops (..., K+1, 2m): the shoelace sum
    sum_j (y_mid dx - x_mid dy) plus the midpoint time quadrature of i h_A."""
    m = points.shape[-1] // 2
    x, y = points[..., :m], points[..., m:]
    mid = (points[..., 1:, :] + points[..., :-1, :]) / 2
    dx, dy = np.diff(x, axis=-2), np.diff(y, axis=-2)
    s = np.sum(mid[..., m:] * dx - mid[..., :m] * dy, axis=(-2, -1))
    if A is not None:
        s = s + symbol_values(A, mid).mean(axis=-1)
    return s


def _embed(free: np.ndarray, K: int, m: int) -> np.ndarray:
    """Free coordinates (coordinate-major: each of the 2m coordinates over
    the K-1 inner times) to pinned loops (..., K+1, 2m)."""
    lead = free.shape[:-1]
    pts = np.zeros(lead + (K + 1, 2 * m))
    pts[..., 1:K, :] = np.swapaxes(free.reshape(lead + (2 * m, K - 1)), -1, -2)
    return pts


def polarized_form(K: int, m: int, A: np.ndarray | None) -> np.ndarray:
    """The symmetric Q with S(x) = x^T Q x, by polarization of loop_action:
    Q_ij = (S(e_i + e_j) - S(e_i) - S(e_j)) / 2.

    The action couples only equal and neighbouring times, so only those pairs
    are polarized; random probes then confirm x^T Q x = S(x) on whole loops,
    which would expose any coupling the pairing missed.
    """
    n = K - 1
    d = 2 * m * n
    time = np.arange(d) % n
    ii, jj = np.nonzero(np.abs(time[:, None] - time[None, :]) <= 1)
    keep = ii <= jj
    ii, jj = ii[keep], jj[keep]
    diag = np.empty(d)
    Q = np.zeros((d, d))
    eye = np.eye(d)
    for lo in range(0, d, 256):
        diag[lo:lo + 256] = loop_action(_embed(eye[lo:lo + 256], K, m), A)
    for lo in range(0, ii.size, 2048):
        a, b = ii[lo:lo + 2048], jj[lo:lo + 2048]
        vec = np.zeros((a.size, d))
        vec[np.arange(a.size), a] += 1.0
        vec[np.arange(a.size), b] += 1.0
        q = (loop_action(_embed(vec, K, m), A) - diag[a] - diag[b]) / 2
        same = a == b
        q[same] = diag[a[same]]
        Q[a, b] = q
        Q[b, a] = q
    rng = np.random.default_rng(0)
    x = rng.normal(size=(8, d))
    direct = loop_action(_embed(x, K, m), A)
    quad = np.einsum("pi,ij,pj->p", x, Q, x)
    if not np.allclose(quad, direct, rtol=1e-10, atol=1e-10 * d):
        raise AssertionError("polarized form does not reproduce the action")
    return Q


def bridge_covariance(K: int, sigma2: float) -> np.ndarray:
    """Covariance sigma^2 (min(s,t) - s t) of one bridge coordinate at the
    inner grid times."""
    t = np.arange(1, K) / K
    return sigma2 * (np.minimum.outer(t, t) - np.outer(t, t))


def dense_oracle(Q: np.ndarray, K: int, m: int, sigma2: float) -> complex:
    """E[e^{i x^T Q x}] = prod_k (1 - 2i mu_k)^{-1/2}, mu the eigenvalues of
    Sigma^{1/2} Q Sigma^{1/2}.  Each factor has real part 1, so the product
    of principal square roots is the continuous branch."""
    L1 = np.linalg.cholesky(bridge_covariance(K, sigma2))
    L = np.kron(np.eye(2 * m), L1)
    T = L.T @ Q @ L
    mu = np.linalg.eigvalsh((T + T.T) / 2)
    return complex(np.exp(-0.5 * np.sum(np.log(1.0 - 2j * mu))))


def closed_area(nu: float, sigma2: float, m: int = 1) -> float:
    """Continuum value e^{nu m} (sigma^2 / sinh sigma^2)^m of the scaled
    area-only estimator."""
    return math.exp(nu * m) * (sigma2 / math.sinh(sigma2)) ** m


VARIANCE = {
    "nu": lambda nu: nu,
    "nu_half": lambda nu: nu / 2.0,
    "two_nu": lambda nu: 2.0 * nu,
    "nu_plus_log": lambda nu: nu + math.log(2.0 * nu),
}


# ---------------------------------------------------------------------------
# pathint

def check_pathint(p: dict, rows: dict, A: np.ndarray,
                  program_oracle: Callable[[float, str], complex]) -> list[str]:
    """``A`` is the seeded symbol matrix the program drew;
    ``program_oracle(nu, label)`` returns the program's unscaled Gaussian
    oracle for the "area" and "quadratic" actions."""
    fails: list[str] = []
    K, n, m = p["steps"], p["samples"], 1
    forms = {"area": polarized_form(K, m, None), "quadratic": polarized_form(K, m, A)}
    for nu in p["nu_list"]:
        scale = math.exp(nu * m)
        for label, Q in forms.items():
            exact = dense_oracle(Q, K, m, float(nu))
            prog = program_oracle(float(nu), label)
            if abs(prog - exact) > ORACLE_RTOL * abs(exact):
                fails.append(f"gaussian_oracle {label} nu{nu:g}: {prog} vs own {exact}")
            tag = f"{label}_nu{nu:g}"
            ratio = _need(rows, f"mc_vs_oracle_{tag}_in_stderr", fails)
            stderr = _need(rows, f"mc_stderr_{tag}", fails)
            if ratio is None or stderr is None:
                continue
            # the program writes |mean - its oracle| / stderr; bound the
            # distance to the exact value through the triangle inequality
            dev = ratio * stderr + scale * abs(prog - exact)
            if not dev <= MC_SIGMAS * stderr:
                fails.append(f"MC mean {tag} is {dev / stderr:.2f} stderr from the exact value")
            # |e^{iS}| = 1, so the sample variance is n/(n-1) (1 - |mean|^2);
            # |mean|^2 differs from |exact|^2 by at most 2|exact| dev + dev^2
            se_u = math.sqrt((1 - abs(exact) ** 2) / n)
            expected = scale * se_u
            slack = (2 * abs(exact) * MC_SIGMAS * se_u + (MC_SIGMAS * se_u) ** 2) / (
                1 - abs(exact) ** 2) + 2.0 / n
            if not abs((stderr / expected) ** 2 - 1) <= slack:
                fails.append(f"mc_stderr_{tag} = {stderr:.6g}, expected {expected:.6g}")
    return fails


# ---------------------------------------------------------------------------
# oracle (calibrate)

def check_calibrate(p: dict, rows: dict) -> list[str]:
    """Every row follows the closed form with the measured sigma^4/(2K) law;
    one row per rule, at a nu chosen from the config seed, is recomputed with
    the dense oracle of this module."""
    fails: list[str] = []
    K, m = p["steps"], p["m"]
    _at_least(rows, "table_deterministic", 1.0, fails)
    pick = np.random.default_rng(p["seed"]).integers(0, len(p["nu_list"]), size=len(p["rules"]))
    recompute = {(rule, p["nu_list"][k]) for rule, k in zip(p["rules"], pick)}
    area = None
    for rule in p["rules"]:
        for nu in p["nu_list"]:
            name = f"oracle_{rule}_nu{nu:g}"
            value = _need(rows, name, fails)
            if value is None:
                continue
            s2 = VARIANCE[rule](nu)
            closed = closed_area(nu, s2, m)
            c = (value - closed) / closed * K / s2**2
            if not AREA_LAW_C[0] <= c <= AREA_LAW_C[1]:
                fails.append(f"{name}: law constant {c:.4f} outside {AREA_LAW_C}")
            dev = _need(rows, f"dev_from_one_{rule}_nu{nu:g}", fails)
            if dev is not None and not dev >= abs(value - 1) * (1 - 1e-12):
                fails.append(f"dev_from_one_{rule}_nu{nu:g} = {dev} < |oracle - 1|")
            if (rule, nu) in recompute:
                if area is None:
                    area = polarized_form(K, m, None)
                own = abs(math.exp(nu * m) * dense_oracle(area, K, m, s2))
                if abs(value - own) > ORACLE_RTOL * own:
                    fails.append(f"{name} = {value!r}, own dense oracle {own!r}")
    nu0 = min(p["nu_list"])
    v0 = rows.get(f"oracle_nu_nu{nu0:g}", {}).get("value")
    cross = _need(rows, "closed_form_cross_check", fails)
    if v0 is not None and cross is not None:
        closed = closed_area(nu0, nu0, m)
        if not math.isclose(cross, abs(v0 - closed) / closed, rel_tol=1e-6):
            fails.append(f"closed_form_cross_check = {cross}, own {abs(v0 - closed) / closed}")
    return fails


# ---------------------------------------------------------------------------
# landau

def peierls_laplacian(half_width: float, spacing: float) -> sp.csr_matrix:
    """-sum_k (d_k + i alpha_k)^2 for alpha = (y, -x) on the Dirichlet grid:
    each link carries the exact phase e^{i h alpha} of its start point, x
    links with alpha_x = y and y links with alpha_y = -x."""
    r = int(half_width / spacing)
    side, h = 2 * r + 1, spacing
    axis = h * np.arange(-r, r + 1)
    idx = np.arange(side * side).reshape(side, side)  # idx[i, j]: x_i, y_j
    X, Y = np.meshgrid(axis, axis, indexing="ij")
    a_x, b_x = idx[:-1, :].ravel(), idx[1:, :].ravel()
    a_y, b_y = idx[:, :-1].ravel(), idx[:, 1:].ravel()
    ph_x = np.exp(1j * h * Y[:-1, :].ravel())
    ph_y = np.exp(-1j * h * X[:, :-1].ravel())
    rows = np.concatenate([a_x, b_x, a_y, b_y])
    cols = np.concatenate([b_x, a_x, b_y, a_y])
    vals = -np.concatenate([ph_x, ph_x.conj(), ph_y, ph_y.conj()]) / h**2
    N = side * side
    H = sp.csr_matrix((vals, (rows, cols)), shape=(N, N))
    return (H + sp.diags(np.full(N, 4.0 / h**2))).tocsr()


def check_small_landau(program_H: sp.spmatrix, program_low: np.ndarray) -> list[str]:
    """On the small grid: the program's (1/4) Lap - 1/2 equals this module's
    entrywise, and its lowest eigenvalues equal dense eigvalsh."""
    fails = []
    own = 0.25 * peierls_laplacian(*SMALL_GRID) - 0.5 * sp.identity(
        program_H.shape[0], format="csr")
    if program_H.shape != own.shape:
        return [f"small-grid operator shape {program_H.shape} != {own.shape}"]
    diff = abs(program_H - own).max()
    if not diff <= 1e-12:
        fails.append(f"small-grid operator differs entrywise by {diff:.3e}")
    dense = np.linalg.eigvalsh(own.toarray())[: len(program_low)]
    if len(program_low) != SMALL_EIGS or not np.allclose(program_low, dense, rtol=0, atol=SPECTRUM_ATOL):
        fails.append(f"small-grid low_spectrum differs from dense eigvalsh by "
                     f"{np.max(np.abs(np.asarray(program_low) - dense[:len(program_low)])):.3e}")
    return fails


def check_landau(p: dict, rows: dict) -> list[str]:
    """The workload-grid rows: Landau levels at 0 and 1, nothing below -1/2,
    lowest-level count against the flux, strong-limit decay in nu."""
    fails: list[str] = []
    # the offset is |lowest eigenvalue|, so this also keeps every eigenvalue
    # above -1/2, as (1/4) Lap - 1/2 with Lap >= 0 requires
    _at_most(rows, "ground_level_offset", 0.02, fails)
    _at_most(rows, "first_excited_cluster_offset", 0.05, fails)
    _at_least(rows, "spectrum_reaches_past_gap", 1.0, fails)
    flux = 2.0 * (2 * p["half_width"]) ** 2 / (2 * math.pi)
    fc = _need(rows, "flux_count", fails)
    if fc is not None and not math.isclose(fc, flux, rel_tol=1e-12):
        fails.append(f"flux_count = {fc}, closed form {flux}")
    below = _need(rows, "states_below_half", fails)
    # the lowest level holds about |B| area / 2 pi states; the Dirichlet
    # wall pushes a few edge states up
    if below is not None and not (0.8 * flux <= below <= flux + 1):
        fails.append(f"states_below_half = {below} vs flux {flux:.1f}")
    nus = p["strong_limit_nu_list"]
    devs = [_need(rows, f"grid_strong_limit_dev_nu{nu:g}", fails) for nu in nus]
    if None not in devs:
        _decreasing(devs, "grid_strong_limit deviation", fails)
        if not 0 <= devs[0] < 0.02:
            fails.append(f"grid_strong_limit deviation {devs[0]} at nu{nus[0]:g}")
    return fails


# ---------------------------------------------------------------------------
# battery

# closed-form and two-route rows with their documented tolerances
BATTERY_LIMITS = {
    "membership": {
        "dissipativity_contraction_disagreements": ("<=", 0.0),
    },
    "decompose": {
        "reconstruction_residual": ("<=", 1e-9),
        "generator_recovery": ("<=", 1e-7),
        "memberships_certified": (">=", 1.0),
    },
    "potapov": {
        "example_potapov_t1": ("<=", 1e-12),
        "example_gap_t16": ("<=", 1e-6),
        "example_ker_indef_lines": (">=", 1.0),
        "example_limit_in_semigroup": (">=", 1.0),
        "product_formula_deviation": ("<=", 1e-9),
        "transform_operator_norm": ("<=", 1.0 + 1e-10),
    },
    "graph-limit": {
        "limit_in_semigroup": (">=", 1.0),
        "gap_monotone_decreasing": (">=", 1.0),
        "projection_derivative_fd": ("<=", 1e-3),
    },
    "fock-limit": {
        "symbol_equals_lifted_generator": ("<=", 1e-10),
        "strong_limit_monotone": (">=", 1.0),
        "antinormal_word_identity": ("<=", 1e-12),
        "quadrature_monomials": ("<=", 1e-3),
        "resolution_of_identity": ("<=", 1e-3),
        "vacuum_expectation_modulus": ("<=", 1.0 + 1e-9),
        "cutoff_convergence_final": ("<=", 1e-3),
    },
}


def check_battery(experiment: str, p: dict, rows: dict) -> list[str]:
    fails: list[str] = []
    limits = dict(BATTERY_LIMITS[experiment])
    if experiment == "membership":
        for n in p["n_list"]:
            for name in ("Jc_diagonal", "Ical_is_minus_i_Jc", "J_squared", "W_unitary"):
                limits[f"{name}_n{n}"] = ("<=", 1e-14)
    for name, (cmp, bound) in limits.items():
        (_at_most if cmp == "<=" else _at_least)(rows, name, bound, fails)
    if experiment == "graph-limit":
        # criterion 07: gap(nu) ~ ||A|| / nu with ||A|| = 1
        nus = p["nu_list"]
        gaps = [_need(rows, f"gap_nu{nu:g}", fails) for nu in nus]
        if None not in gaps:
            _decreasing(gaps, "graph-limit gap", fails)
            rates = [nu * g for nu, g in zip(nus, gaps)]
            if not all(GAP_RATE[0] <= r <= GAP_RATE[1] for r in rates):
                fails.append(f"nu * gap(nu) outside {GAP_RATE}: {min(rates):.3f}..{max(rates):.3f}")
            final = _need(rows, "final_gap", fails)
            if final is not None and final != gaps[-1]:
                fails.append(f"final_gap {final} != gap at the last nu {gaps[-1]}")
    if experiment == "fock-limit":
        # criterion 10: r(nu) ~ ||A|| / nu at the last nu
        nu = p["strong_nu_list"][-1]
        norm = p["strong_norm"]
        r = _need(rows, "strong_limit_final_residual", fails)
        if r is not None and not RESIDUAL_RATE[0] * norm <= nu * r <= RESIDUAL_RATE[1] * norm:
            fails.append(f"nu * r(nu) = {nu * r:.3f} outside {RESIDUAL_RATE} * ||A||")
        first = _need(rows, "cutoff_convergence_first", fails)
        final = _need(rows, "cutoff_convergence_final", fails)
        if first is not None and final is not None and not final <= first:
            fails.append("cutoff convergence does not decrease in tau")
    return fails


# ---------------------------------------------------------------------------
# one operation

class Checker:
    """Checks the outputs of one config; ``program`` is the imported
    ``phaselab`` package."""

    def __init__(self, program):
        self.program = program

    def __call__(self, config: dict, out_dir: Path) -> list[str]:
        exp = config["experiment"]
        json_path, csv_path = output_paths(out_dir, exp)
        if not json_path.exists() or not csv_path.exists():
            return [f"{exp}: report or CSV not written"]
        try:
            report = json.loads(json_path.read_text())
            rows = read_rows(csv_path)
            p = report["parameters"]
        except (ValueError, KeyError) as exc:
            return [f"{exp}: unreadable output: {exc}"]
        fails = check_report(config, report, rows)
        if exp == "pathint":
            fails += check_pathint(p, rows, self.symbol_matrix(p), self.oracle_for(p))
        elif exp == "calibrate":
            fails += check_calibrate(p, rows)
        elif exp == "landau":
            fails += check_landau(p, rows) + self.small_landau()
        else:
            fails += check_battery(exp, p, rows)
        return [f"{exp}: {f}" for f in fails]

    def symbol_matrix(self, p: dict) -> np.ndarray:
        sample = self.program.cones.sample
        return np.asarray(sample("sp_c", 1, p["symbol_norm"], p["seed"] + 77))

    def oracle_for(self, p: dict) -> Callable[[float, str], complex]:
        b = self.program.bridge
        sym = self.program.cones.HamiltonianSymbol(1, self.symbol_matrix(p))
        hmat = b.symbol_quadratic_matrix(sym)

        def oracle(nu: float, label: str) -> complex:
            spec = b.MeasureSpec(nu=nu, steps=p["steps"], seed=p["seed"])
            q = b.QuadraticAction(hmatrix=hmat if label == "quadratic" else None)
            return complex(b.gaussian_oracle(spec, q))

        return oracle

    def small_landau(self) -> list[str]:
        land = self.program.landau
        H = land.landau_hamiltonian(land.Grid2D(*SMALL_GRID))
        return check_small_landau(H, land.low_spectrum(H, k=SMALL_EIGS))
