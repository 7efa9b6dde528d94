"""Acceptance battery: every criterion runs at its stated tolerance via the
checked-in experiment configs and prints one pass/fail line.

Two criteria (07, the graph-limit gap threshold, and 10, the strong-limit
residual threshold) and the step-refinement clause of criterion 14 assert
convergence-rate constants that the implemented dynamics provably cannot
meet (the true rates are O(1/nu) and O(nu^2/steps), not exponential; see
the repository notes).  They are implemented faithfully at the stated
tolerances and are expected to fail; everything else passes.
"""

import csv
import io
import json
from pathlib import Path

import pytest

from phaselab.cli import write_outputs
from phaselab.experiments import run_experiment

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# wall-time budgets: the sum of the stated per-criterion limits covered by
# each experiment config
TIME_BUDGETS = {
    "membership": 1 + 30,
    "decompose": 30,
    "potapov": 1 + 10 + 10,
    "graph_limit": 30 + 30,
    "fock_limit": 60 + 300 + 60 + 120 + 120,
    "landau": 120,
    "pathint": 300,
    "calibrate": 300,
}

_cache = {}


def report_for(name):
    if name not in _cache:
        config = json.loads((CONFIG_DIR / f"{name}.json").read_text())
        _cache[name] = run_experiment(config)
    return _cache[name]


def check(report, name):
    for c in report.checks:
        if c.name == name:
            return c
    raise KeyError(name)


def crit(num, description, ok, detail):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {description} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_structural_identities():
    rep = report_for("membership")
    rows = [c for c in rep.checks if c.name.startswith(("Jc_diagonal", "Ical_is_minus_i_Jc"))]
    assert len(rows) == 6
    worst = max(c.value for c in rows)
    crit(1, "structural identities to 1e-14 for n in {1,2,3}", all(c.passed for c in rows), f"worst residual {worst:.2e}")
    assert rep.wall_time < TIME_BUDGETS["membership"]


def test_criterion_02_explicit_limit_example():
    rep = report_for("potapov")
    rows = [
        check(rep, "example_potapov_t1"),
        check(rep, "example_gap_t16"),
        check(rep, "example_ker_indef_lines"),
        check(rep, "example_limit_in_semigroup"),
    ]
    crit(
        2,
        "explicit 2x2 semigroup limit: transform at t=1, gap at t=16, ker/indef lines",
        all(c.passed for c in rows),
        f"transform dev {rows[0].value:.2e}, gap {rows[1].value:.2e}",
    )
    assert rep.wall_time < TIME_BUDGETS["potapov"]


def test_criterion_03_product_formula():
    c = check(report_for("potapov"), "product_formula_deviation")
    crit(3, "product formula vs relation composition on 100 pairs", c.passed, f"max block dev {c.value:.2e}")


def test_criterion_04_transform_contraction():
    c = check(report_for("potapov"), "transform_operator_norm")
    crit(4, "transform norm <= 1 + 1e-10 over 500 semigroup samples", c.passed, f"worst norm {c.value:.12f}")


def test_criterion_05_decomposition_roundtrip():
    rep = report_for("decompose")
    rows = [
        check(rep, "reconstruction_residual"),
        check(rep, "generator_recovery"),
        check(rep, "memberships_certified"),
    ]
    crit(
        5,
        "factorization: 200 samples, reconstruction < 1e-9, recovery < 1e-7, memberships",
        all(c.passed for c in rows),
        f"recon {rows[0].value:.2e}, recover {rows[1].value:.2e}",
    )
    assert rep.wall_time < TIME_BUDGETS["decompose"]


def test_criterion_06_dissipative_iff_contraction():
    c = check(report_for("membership"), "dissipativity_contraction_disagreements")
    crit(6, "cone test vs contraction test, 200 matrices x 6 times", c.passed, f"disagreements {int(c.value)}")


def test_criterion_07_graph_limit():
    rep = report_for("graph_limit")
    structure = check(rep, "limit_in_semigroup")
    monotone = check(rep, "gap_monotone_decreasing")
    final = check(rep, "final_gap")
    ok = structure.passed and monotone.passed and final.passed
    crit(
        7,
        "graph limit: monotone gap, final gap < 1e-6 at nu=16 (rate is ||A||/nu; expected FAIL)",
        ok,
        f"structure {structure.passed}, monotone {monotone.passed}, final gap {final.value:.3e}",
    )


def test_criterion_08_projection_derivative():
    rep = report_for("graph_limit")
    c = check(rep, "projection_derivative_fd")
    crit(8, "closed-form projector derivative vs central differences, 50 samples", c.passed, f"worst rel dev {c.value:.2e}")
    assert rep.wall_time < TIME_BUDGETS["graph_limit"]


def test_criterion_09_symbol_equals_lifted_generator():
    c = check(report_for("fock_limit"), "symbol_equals_lifted_generator")
    crit(9, "quadratic symbol on Z equals the lifted generator, 50 samples", c.passed, f"worst band residual {c.value:.2e}")


def test_criterion_10_strong_limit():
    rep = report_for("fock_limit")
    monotone = check(rep, "strong_limit_monotone")
    final = check(rep, "strong_limit_final_residual")
    ok = monotone.passed and final.passed
    crit(
        10,
        "strong limit: monotone residual, r(12) < 5e-3 (rate is ||A||/nu; expected FAIL)",
        ok,
        f"monotone {monotone.passed}, r(12) {final.value:.3e}",
    )


def test_criterion_11_antinormal_identities():
    rep = report_for("fock_limit")
    word = check(rep, "antinormal_word_identity")
    quad = check(rep, "quadrature_monomials")
    crit(
        11,
        "compressed monomial words exact on the safe band; quadrature matches to 1e-3",
        word.passed and quad.passed,
        f"word {word.value:.2e}, quadrature {quad.value:.2e}",
    )


def test_criterion_12_resolution_of_identity():
    c = check(report_for("fock_limit"), "resolution_of_identity")
    crit(12, "coherent resolution of identity on the low block < 1e-3", c.passed, f"residual {c.value:.2e}")


def test_criterion_13_landau_levels():
    rep = report_for("landau")
    ground = check(rep, "ground_level_offset")
    cluster = check(rep, "first_excited_cluster_offset")
    crit(
        13,
        "lattice Landau ladder: ground within 0.02 of 0, next cluster within 0.05 of 1",
        ground.passed and cluster.passed,
        f"ground {ground.value:.4f}, cluster offset {cluster.value:.4f}",
    )
    assert rep.wall_time < TIME_BUDGETS["landau"]


def test_criterion_14_monte_carlo_vs_oracle():
    rep = report_for("pathint")
    mc_rows = [c for c in rep.checks if c.name.startswith("mc_vs_oracle")]
    refine_rows = [c for c in rep.checks if c.name.startswith("oracle_refinement")]
    assert len(mc_rows) == 6 and len(refine_rows) == 3
    mc_ok = all(c.passed for c in mc_rows)
    refine_ok = all(c.passed for c in refine_rows)
    crit(
        14,
        "MC within 3 stderr of the determinant oracle; step refinement < 1e-3 "
        "(refinement error is Theta(nu^2/steps); expected FAIL at nu=2,4)",
        mc_ok and refine_ok,
        f"worst sigma-distance {max(c.value for c in mc_rows):.2f}, "
        f"worst refinement {max(c.value for c in refine_rows):.2e}",
    )
    assert rep.wall_time < TIME_BUDGETS["pathint"]


def test_criterion_15_cutoff_convergence():
    rep = report_for("fock_limit")
    mod = check(rep, "vacuum_expectation_modulus")
    conv = check(rep, "cutoff_convergence_final")
    crit(
        15,
        "clipped-symbol vacuum expectation converges to the uncut value within 1e-3",
        mod.passed and conv.passed,
        f"|value| {mod.value:.6f}, final deviation {conv.value:.2e}",
    )
    assert rep.wall_time < TIME_BUDGETS["fock_limit"]


def test_criterion_16_calibration_study():
    rep = report_for("calibrate")
    det = check(rep, "table_deterministic")
    closed = check(rep, "closed_form_cross_check")
    dev_rows = [c for c in rep.checks if c.name.startswith("dev_from_one")]
    assert len(dev_rows) == 16  # 4 rules x 4 nu values
    crit(
        16,
        "calibration table produced deterministically (normalization gap documented, not asserted)",
        det.passed and closed.passed,
        f"closed-form dev {closed.value:.2e}; no rule near 1: {check(rep, 'any_rule_near_one').value == 0.0}",
    )
    assert rep.wall_time < TIME_BUDGETS["calibrate"]


def _relative_move(new: str, old: str) -> float:
    if new == old:
        return 0.0
    try:
        a, b = float(new), float(old)
    except ValueError:  # an empty value on one side
        return float("inf")
    return abs(a - b) / abs(b) if b else float("inf")


def golden_moves(new: bytes, old: bytes) -> str:
    """The rows of a measurements CSV that differ from the golden one: each
    moved value with its relative move, each other changed field, each row
    on one side only, and the largest relative value move."""
    def rows(text):
        return {r["check"]: r for r in csv.DictReader(io.StringIO(text.decode()))}

    got, want = rows(new), rows(old)
    lines, worst = [], 0.0
    for name in list(want) + [n for n in got if n not in want]:
        if name not in got or name not in want:
            lines.append(f"  {name}: only in the {'golden file' if name in want else 'new output'}")
            continue
        g, w = got[name], want[name]
        if g["value"] != w["value"]:
            move = _relative_move(g["value"], w["value"])
            worst = max(worst, move)
            lines.append(f"  {name}: {w['value']} -> {g['value']} (relative {move:.2g})")
        for field in ("experiment", "threshold", "comparator", "status"):
            if g[field] != w[field]:
                lines.append(f"  {name}: {field} {w[field]} -> {g[field]}")
    if list(got) != list(want) and set(got) == set(want):
        lines.append("  the rows come in another order")
    lines.append(f"  largest relative value move: {worst:.2g}")
    return "\n".join(lines)


def test_golden_moves_names_each_changed_row():
    head = "experiment,check,value,threshold,comparator,status\n"
    old = (head + "e,a,1.5,2,<=,pass\ne,b,4,2,<=,fail\ne,c,,,report,report\n").encode()
    new = (head + "e,a,1.5,2,<=,pass\ne,b,1,2,<=,pass\ne,d,3,,report,report\n").encode()
    assert golden_moves(new, old).splitlines() == [
        "  b: 4 -> 1 (relative 0.75)",
        "  b: status fail -> pass",
        "  c: only in the golden file",
        "  d: only in the new output",
        "  largest relative value move: 0.75",
    ]
    assert golden_moves(old, old) == "  largest relative value move: 0"
    swapped = (head + "e,b,4,2,<=,fail\ne,a,1.5,2,<=,pass\ne,c,,,report,report\n").encode()
    assert golden_moves(swapped, old).splitlines()[0] == "  the rows come in another order"


@pytest.mark.parametrize("name", sorted(TIME_BUDGETS))
def test_csv_matches_golden(name, tmp_path):
    # the CSV of each checked-in config, formatted from the cached report,
    # is byte-identical to the one committed under tests/golden
    _, csv_path = write_outputs(report_for(name), tmp_path)
    new, old = csv_path.read_bytes(), (GOLDEN_DIR / f"{name}.csv").read_bytes()
    assert new == old, (
        f"configs/{name}.json no longer writes tests/golden/{name}.csv byte for byte.  The golden "
        "bytes belong to the numpy and OpenBLAS build of the host that wrote them; another build "
        "may move the last bits of a value.  If a value moved on purpose, rewrite the file with "
        f"`phaselab run configs/{name}.json` and state the largest move in CHANGES.md.  The rows "
        f"that differ:\n{golden_moves(new, old)}")
