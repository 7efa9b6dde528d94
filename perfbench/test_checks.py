"""The benchmark's checks pass on correct outputs and fail on wrong ones.

    python3 -m pytest perfbench/test_checks.py -q

Each test runs a small config through the program, checks that the correct
output passes, then damages one value the way a faulty program would and
checks that the same check now fails.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import phaselab  # noqa: E402
import phaselab.bridge  # noqa: E402
import phaselab.cones  # noqa: E402
import phaselab.landau  # noqa: E402
from phaselab import cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def run_config(config: dict, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{config['experiment']}.json"
    path.write_text(json.dumps(config))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(["run", str(path), "--out", str(out)])
    assert rc in (0, 1)
    _, csv_path = checks.output_paths(out, config["experiment"])
    return checks.read_rows(csv_path)


def scaled(rows: dict, name: str, factor: float) -> dict:
    out = copy.deepcopy(rows)
    out[name]["value"] *= factor
    return out


# ---------------------------------------------------------------------------
# pathint

PATHINT = {"experiment": "pathint",
           "parameters": {"seed": 5, "nu_list": [1, 2], "steps": 32, "samples": 4000}}


@pytest.fixture(scope="module")
def pathint(tmp_path_factory):
    rows = run_config(PATHINT, tmp_path_factory.mktemp("pathint"))
    ck = checks.Checker(phaselab)
    p = dict(phaselab.experiments.EXPERIMENTS["pathint"].defaults, **PATHINT["parameters"])
    return p, rows, ck.symbol_matrix(p), ck.oracle_for(p)


def test_pathint_correct_output_passes(pathint):
    p, rows, A, oracle = pathint
    assert checks.check_pathint(p, rows, A, oracle) == []


def test_pathint_oracle_scaled_fails(pathint):
    p, rows, A, oracle = pathint
    fails = checks.check_pathint(p, rows, A, lambda nu, label: 1.01 * oracle(nu, label))
    assert any("gaussian_oracle" in f for f in fails)


def test_pathint_doubled_stderr_fails(pathint):
    p, rows, A, oracle = pathint
    fails = checks.check_pathint(p, scaled(rows, "mc_stderr_quadratic_nu2", 2.0), A, oracle)
    assert fails and all("mc_stderr_quadratic_nu2" in f for f in fails)


def test_pathint_biased_mean_fails(pathint):
    p, rows, A, oracle = pathint
    biased = copy.deepcopy(rows)
    biased["mc_vs_oracle_area_nu1_in_stderr"]["value"] = 7.0
    assert any("MC mean area_nu1" in f for f in checks.check_pathint(p, biased, A, oracle))


def test_polarized_form_matches_program_form():
    K, m = 24, 1
    A = np.asarray(phaselab.cones.sample("sp_c", 1, 0.5, 3))
    Q = checks.polarized_form(K, m, A)
    b = phaselab.bridge
    sym = phaselab.cones.HamiltonianSymbol(1, A)
    spec = b.MeasureSpec(nu=1.0, steps=K, seed=0)
    prog = b.discrete_quadratic_form(spec, b.QuadraticAction(hmatrix=b.symbol_quadratic_matrix(sym)))
    assert np.max(np.abs(Q - prog)) < 1e-12


def test_polarized_form_probes_catch_nonlocal_coupling(monkeypatch):
    # an action coupling distant times is not captured by the neighbour
    # pairing; the random probes must notice
    K, local = 24, checks.loop_action
    monkeypatch.setattr(
        checks, "loop_action",
        lambda points, A: local(points, A) + points[..., 1, 0] * points[..., K - 1, 1])
    with pytest.raises(AssertionError):
        checks.polarized_form(K, 1, None)


def test_dense_oracle_closed_form():
    # continuum limit of the area-only oracle: (sigma^2 / sinh sigma^2)
    K = 512
    Q = checks.polarized_form(K, 1, None)
    v = checks.dense_oracle(Q, K, 1, 1.0)
    closed = 1.0 / np.sinh(1.0)
    assert abs(v.imag) < 1e-12
    assert 0 < (v.real - closed) / closed * K < 0.51


# ---------------------------------------------------------------------------
# oracle (calibrate)

CALIBRATE = {"experiment": "calibrate",
             "parameters": {"seed": 3, "nu_list": [1.05, 2.1], "steps": 256, "samples": 1000,
                            "rules": ["nu", "nu_half", "two_nu", "nu_plus_log"]}}


@pytest.fixture(scope="module")
def calibrate(tmp_path_factory):
    rows = run_config(CALIBRATE, tmp_path_factory.mktemp("calibrate"))
    p = dict(phaselab.experiments.EXPERIMENTS["calibrate"].defaults, **CALIBRATE["parameters"])
    return p, rows


def test_calibrate_correct_output_passes(calibrate):
    p, rows = calibrate
    assert checks.check_calibrate(p, rows) == []


def test_calibrate_oracle_scaled_fails(calibrate):
    p, rows = calibrate
    assert any("law constant" in f for f in checks.check_calibrate(p, scaled(rows, "oracle_nu_nu2.1", 1.01)))


def test_calibrate_own_dense_oracle_catches_small_error(calibrate):
    # 1e-7 is far inside the law band; only the recomputed rows see it
    p, rows = calibrate
    off = copy.deepcopy(rows)
    for name in off:
        if name.startswith("oracle_"):
            off[name]["value"] *= 1 + 1e-7
    fails = checks.check_calibrate(p, off)
    assert any("own dense oracle" in f for f in fails)
    assert not any("law constant" in f for f in fails)


# ---------------------------------------------------------------------------
# landau

@pytest.fixture(scope="module")
def small_landau():
    land = phaselab.landau
    H = land.landau_hamiltonian(land.Grid2D(*checks.SMALL_GRID))
    return H, land.low_spectrum(H, k=checks.SMALL_EIGS)


def test_small_landau_passes(small_landau):
    assert checks.check_small_landau(*small_landau) == []


def test_small_landau_shifted_spectrum_fails(small_landau):
    H, low = small_landau
    assert checks.check_small_landau(H, low + 0.05)


def test_small_landau_missing_eigenvalue_fails(small_landau):
    H, low = small_landau
    dense = np.linalg.eigvalsh(H.toarray())
    missing = np.concatenate([low[:5], low[6:], dense[checks.SMALL_EIGS:checks.SMALL_EIGS + 1]])
    assert any("low_spectrum" in f for f in checks.check_small_landau(H, missing))


def test_small_landau_wrong_gauge_fails(small_landau):
    H, low = small_landau
    assert any("entrywise" in f for f in checks.check_small_landau(H.conj(), low))


LANDAU = {"experiment": "landau", "parameters": {"half_width": 8.0, "spacing": 0.25,
                                                 "eig_count": 90, "seed": 4}}


@pytest.fixture(scope="module")
def landau(tmp_path_factory):
    rows = run_config(LANDAU, tmp_path_factory.mktemp("landau"))
    p = dict(phaselab.experiments.EXPERIMENTS["landau"].defaults, **LANDAU["parameters"])
    return p, rows


def test_landau_rows_pass(landau):
    p, rows = landau
    assert checks.check_landau(p, rows) == []


def test_landau_shifted_ground_fails(landau):
    p, rows = landau
    off = copy.deepcopy(rows)
    off["ground_level_offset"]["value"] += 0.05
    assert checks.check_landau(p, off)


def test_landau_strong_limit_growth_fails(landau):
    p, rows = landau
    assert any("not decreasing" in f
               for f in checks.check_landau(p, scaled(rows, "grid_strong_limit_dev_nu8", 100.0)))


# ---------------------------------------------------------------------------
# battery

BATTERY = [
    {"experiment": "membership", "parameters": {"seed": 2, "samples": 20}},
    {"experiment": "decompose", "parameters": {"seed": 2, "samples": 20}},
    {"experiment": "potapov", "parameters": {"seed": 2, "pairs": 10, "contraction_samples": 20}},
    {"experiment": "graph-limit", "parameters": {"seed": 2, "samples": 10, "fd_samples": 10}},
    {"experiment": "fock-limit", "parameters": {"seed": 2, "lemma_samples": 5}},
]


@pytest.fixture(scope="module")
def battery(tmp_path_factory):
    out = tmp_path_factory.mktemp("battery")
    result = {}
    for cfg in BATTERY:
        exp = cfg["experiment"]
        p = dict(phaselab.experiments.EXPERIMENTS[exp].defaults, **cfg["parameters"])
        result[exp] = (p, run_config(cfg, out))
    return result


@pytest.mark.parametrize("exp", [c["experiment"] for c in BATTERY])
def test_battery_correct_output_passes(battery, exp):
    p, rows = battery[exp]
    assert checks.check_battery(exp, p, rows) == []


@pytest.mark.parametrize("exp,name,factor", [
    ("membership", "W_unitary_n2", 1e3),
    ("decompose", "reconstruction_residual", 1e9),
    ("potapov", "product_formula_deviation", 1e9),
    ("graph-limit", "projection_derivative_fd", 1e9),
    ("fock-limit", "resolution_of_identity", 1e9),
    ("fock-limit", "strong_limit_final_residual", 10.0),
    ("fock-limit", "strong_limit_final_residual", 0.01),
])
def test_battery_wrong_value_fails(battery, exp, name, factor):
    p, rows = battery[exp]
    if rows[name]["value"] == 0:
        rows = copy.deepcopy(rows)
        rows[name]["value"] = 1e-12
    assert checks.check_battery(exp, p, scaled(rows, name, factor))


def test_graph_limit_exponential_decay_fails(battery):
    # a gap decaying like e^{-nu} instead of ||A||/nu breaks the rate check
    p, rows = battery["graph-limit"]
    off = copy.deepcopy(rows)
    for nu in p["nu_list"]:
        off[f"gap_nu{nu:g}"]["value"] = float(np.exp(-nu))
    off["final_gap"]["value"] = off[f"gap_nu{p['nu_list'][-1]:g}"]["value"]
    assert any("nu * gap" in f for f in checks.check_battery("graph-limit", p, off))


def test_graph_limit_missing_row_fails(battery):
    p, rows = battery["graph-limit"]
    off = copy.deepcopy(rows)
    del off["gap_nu9"]
    assert any("gap_nu9 missing" in f for f in checks.check_battery("graph-limit", p, off))


# ---------------------------------------------------------------------------
# report consistency, operations and rounds

def test_report_must_match_config_and_csv(tmp_path):
    cfg = BATTERY[0]
    rows = run_config(cfg, tmp_path)
    json_path, _ = checks.output_paths(tmp_path, cfg["experiment"])
    report = json.loads(json_path.read_text())
    assert checks.check_report(cfg, report, rows) == []
    other = copy.deepcopy(cfg)
    other["parameters"]["samples"] = 21
    assert any("parameter samples" in f for f in checks.check_report(other, report, rows))
    changed = copy.deepcopy(report)
    changed["checks"][0]["value"] += 1.0
    assert any("disagree" in f for f in checks.check_report(cfg, changed, rows))
    wrong_pass = copy.deepcopy(rows)
    name = next(n for n, r in rows.items() if r["comparator"] == "<=")
    wrong_pass[name]["value"] = 2 * wrong_pass[name]["threshold"] + 1
    assert any("marked pass" in f for f in checks.check_report(cfg, report, wrong_pass))


def test_operations_counts_raises_and_changed_rounds(tmp_path):
    cfgs = [{"experiment": "membership", "parameters": {}},
            {"experiment": "decompose", "parameters": {}}]
    header = "experiment,check,value,threshold,comparator,status\n"
    for r in range(2):
        d = tmp_path / f"round{r}"
        d.mkdir()
        (d / "membership_measurements.csv").write_text(header + "membership,a,1.5,,report,report\n")
        (d / "decompose_measurements.csv").write_text(header + f"decompose,b,{1 + r * 1e-6},,report,report\n")
    result = {"rounds": [{"ops": [{"exit": 0}, {"exit": 1}]},
                         {"ops": [{"exit": None, "error": "ValueError"}, {"exit": 0}]}]}
    attempted, failed, correct, _ = run.operations(cfgs, result, tmp_path, lambda c, d: [])
    # round 1: membership raised (correct stays true for it), decompose wrote
    # a value 1e-6 away from round 0's (an incorrect output)
    assert (attempted, failed, correct) == (4, 2, False)
    result["rounds"][1]["ops"][1] = {"exit": 2}
    attempted, failed, correct, _ = run.operations(cfgs, result, tmp_path, lambda c, d: [])
    assert (attempted, failed, correct) == (4, 2, True)


def test_tracer_counts_nested_calls():
    cones, linalg = phaselab.cones, phaselab.linalg
    S = cones.make_structural(2)
    g = cones.sample("GammaSp_c", 2, 0.5, 1)
    tracer = Tracer()
    tracer.install()
    try:
        cones.po_decompose(g, S)
    finally:
        tracer.uninstall()
    assert cones.classify is not None and not hasattr(cones.classify, "__wrapped__")
    assert not hasattr(linalg.expm, "__wrapped__")
    summary = tracer.summary()
    assert summary["cones.po_decompose"]["calls"] == 1
    # po_decompose calls classify through the module binding
    assert summary["cones.classify"]["calls"] >= 1
    names = tracer.names
    root = [s for s in tracer.spans if names[s[0]] == "cones.po_decompose"][0]
    kids = [s for s in tracer.spans if s[1] == tracer.spans.index(root)]
    assert kids and all(root[3] <= k[3] <= k[4] <= root[4] for k in kids)
    for row in summary.values():
        assert -1e-9 <= row["self_s"] <= row["incl_s"] + 1e-9


def test_run_refuses_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "battery", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
