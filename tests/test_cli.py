import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, settings, strategies as st

import phaselab
from phaselab import experiments
from phaselab.cli import main
from phaselab.experiments import EXPERIMENTS, MAX_ARRAY_BYTES, Check, ConfigError, NonFiniteCheckError, validate_config
from phaselab.landau import Grid2D, flux_count, lanczos_bytes


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def small_membership(seed=7):
    return {
        "experiment": "membership",
        "parameters": {"seed": seed, "n_list": [1], "n": 1, "samples": 6},
    }


def test_catalog_has_all_tags():
    tags = set(EXPERIMENTS)
    assert tags == {
        "membership",
        "decompose",
        "potapov",
        "graph-limit",
        "fock-limit",
        "landau",
        "pathint",
        "calibrate",
    }
    for d in EXPERIMENTS.values():
        assert d.topic


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for tag in EXPERIMENTS:
        assert tag in out
    assert main(["list", "--json"]) == 0
    catalog = json.loads(capsys.readouterr().out)
    assert len(catalog) == 8
    assert all("topic" in e and "required_parameters" in e for e in catalog)


def test_validate_config_errors():
    with pytest.raises(ConfigError):
        validate_config({"experiment": "bogus"})
    with pytest.raises(ConfigError):
        validate_config({"experiment": "membership", "parameters": {}})  # seed missing
    with pytest.raises(ConfigError):
        validate_config(
            {"experiment": "membership", "parameters": {"seed": 1, "typo": 2}}
        )
    tag, params = validate_config({"experiment": "membership", "parameters": {"seed": 1}})
    assert tag == "membership" and params["samples"] == 200


@pytest.mark.parametrize(
    "payload, message",
    [
        ([1], "config must be a JSON object"),
        ({**small_membership(), "comment": "x"}, "unknown top-level keys: ['comment']"),
        ({"experiment": "membership", "parameters": [1]}, "parameters must be an object"),
    ],
    ids=["list_config", "extra_top_level_key", "list_parameters"],
)
def test_malformed_config_shape_exits_2_without_outputs(tmp_path, capsys, payload, message):
    cfg = write_config(tmp_path, payload)
    out_dir = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out_dir)]) == 2
    assert not out_dir.exists()
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("below", [False, True], ids=["out_is_a_file", "out_below_a_file"])
def test_out_that_cannot_be_a_directory_exits_2_before_the_run(tmp_path, capsys, below):
    # refused before the runner starts, so a long run never ends in an
    # error writing its outputs
    cfg = write_config(tmp_path, small_membership())
    blocker = tmp_path / "F"
    blocker.write_text("kept")
    out = blocker / "x" if below else blocker
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert blocker.read_text() == "kept"
    captured = capsys.readouterr()
    assert captured.err == f"error: --out {out}: {blocker} is not a directory\n"
    assert captured.out == ""


def test_run_missing_seed_exits_2_without_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, {"experiment": "decompose", "parameters": {}})
    out_dir = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out_dir)]) == 2
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "params",
    [
        {"seed": 1.5},
        {"seed": True},
        {"seed": 1, "steps": 8},
        {"seed": 1, "samples": "many"},
    ],
    ids=["float_seed", "bool_seed", "too_few_steps", "string_samples"],
)
def test_malformed_parameters_exit_2_without_outputs(tmp_path, capsys, params):
    cfg = write_config(tmp_path, {"experiment": "pathint", "parameters": params})
    out_dir = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out_dir)]) == 2
    assert not out_dir.exists()
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "experiment, params",
    [
        ("membership", {"seed": 1, "n_list": [1.5]}),
        ("potapov", {"seed": 1, "contraction_n_list": [2.0]}),
        ("pathint", {"seed": 1, "nu_list": [1, "two"]}),
    ],
    ids=["float_in_int_list", "float_in_contraction_list", "string_in_float_list"],
)
def test_malformed_list_elements_exit_2_without_outputs(tmp_path, capsys, experiment, params):
    # list elements carry the type of the default's elements; an int still
    # passes for a float (nu_list [1, ...] above fails only on "two")
    cfg = write_config(tmp_path, {"experiment": experiment, "parameters": params})
    out_dir = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out_dir)]) == 2
    assert not out_dir.exists()
    err = capsys.readouterr().err
    assert "config error" in err and "must be list of " in err


@pytest.mark.parametrize(
    "experiment, params",
    [
        ("pathint", {"seed": 1, "nu_list": []}),
        ("pathint", {"seed": 1, "nu_list": [-1]}),
        ("pathint", {"seed": 1, "nu_list": [1, 0]}),
        ("calibrate", {"seed": 1, "rules": ["bogus"]}),
        ("calibrate", {"seed": 1, "rules": []}),
        ("calibrate", {"seed": 1, "nu_list": []}),
        ("landau", {"eig_count": 0}),
        ("landau", {"spacing": -0.1}),
        ("landau", {"half_width": 4.0, "spacing": 0.5}),
        ("landau", {"half_width": float("inf")}),
        ("landau", {"half_width": 4.0, "spacing": 0.25, "eig_count": 5000}),
        ("landau", {"half_width": 4.0, "spacing": 0.25, "eig_count": 8}),
        ("landau", {"strong_limit_half_width": 3.9}),
        ("membership", {"seed": 1, "n_list": []}),
        ("potapov", {"seed": 1, "contraction_n_list": []}),
        ("graph-limit", {"seed": 1, "nu_list": []}),
        ("graph-limit", {"seed": 1, "m": 0}),
        ("fock-limit", {"seed": 1, "tau_list": []}),
        ("fock-limit", {"seed": 1, "strong_nu_list": []}),
        ("calibrate", {"seed": 1, "m": 0}),
        ("membership", {"seed": 1, "samples": 0}),
        ("membership", {"seed": 1, "n": 0}),
        ("membership", {"seed": 1, "structural_tol": 0.0}),
        ("decompose", {"seed": 1, "samples": 0}),
        ("decompose", {"seed": 1, "n": 0}),
        ("decompose", {"seed": 1, "recon_tol": -1e-9}),
        ("decompose", {"seed": 1, "recover_tol": 0}),
        ("potapov", {"seed": 1, "pairs": 0}),
        ("potapov", {"seed": 1, "n": 0}),
        ("potapov", {"seed": 1, "contraction_samples": 1}),
        ("potapov", {"seed": 1, "contraction_samples": 0, "contraction_n_list": [1]}),
        ("potapov", {"seed": 1, "contraction_samples": 5, "contraction_n_list": [1, 2]}),
        ("potapov", {"seed": 1, "example_tol": 0}),
        ("potapov", {"seed": 1, "gap_tol": 0}),
        ("potapov", {"seed": 1, "product_tol": 0}),
        ("potapov", {"seed": 1, "norm_tol": -1.0}),
        ("graph-limit", {"seed": 1, "samples": 0}),
        ("graph-limit", {"seed": 1, "fd_samples": 0}),
        ("graph-limit", {"seed": 1, "gap_threshold": 0}),
        ("graph-limit", {"seed": 1, "fd_epsilon": 0}),
        ("graph-limit", {"seed": 1, "fd_tol": 0}),
        ("fock-limit", {"seed": 1, "lemma_cutoff": 2}),
        ("fock-limit", {"seed": 1, "lemma_samples": 0}),
        ("fock-limit", {"seed": 1, "strong_cutoff": 11}),
        ("fock-limit", {"seed": 1, "antinormal_cutoff": 4}),
        ("fock-limit", {"seed": 1, "quad_cutoff": 2}),
        ("fock-limit", {"seed": 1, "quad_radius": 4.5}),
        ("fock-limit", {"seed": 1, "quad_grid": 50}),
        ("fock-limit", {"seed": 1, "cutoff_cutoff": 2}),
        ("fock-limit", {"seed": 1, "lemma_tol": 0}),
        ("fock-limit", {"seed": 1, "strong_tol": 0}),
        ("fock-limit", {"seed": 1, "antinormal_tol": 0}),
        ("fock-limit", {"seed": 1, "quad_tol": 0}),
        ("fock-limit", {"seed": 1, "cutoff_tol": 0}),
        ("landau", {"spacing": 0.0}),
        ("landau", {"ground_tol": 0}),
        ("landau", {"cluster_tol": -0.05}),
        ("pathint", {"seed": 1, "refinement_tol": 0}),
        ("calibrate", {"seed": 1, "closed_form_tol": 0}),
        ("decompose", {"seed": 1, "recon_tol": float("inf")}),
        ("fock-limit", {"seed": 1, "quad_radius": float("inf")}),
        ("landau", {"half_width": 10**400}),
        ("pathint", {"seed": 1, "nu_list": [1, float("inf")]}),
        ("graph-limit", {"seed": 1, "fd_tol": float("nan")}),
        *((tag, {"seed": -1}) for tag in EXPERIMENTS),
        ("decompose", {"seed": 1, "n": 10**30}),
        ("membership", {"seed": 1, "n_list": [1, 2049]}),
        ("potapov", {"seed": 1, "contraction_n_list": [1449]}),
        ("graph-limit", {"seed": 1, "m": 513}),
        ("fock-limit", {"seed": 1, "lemma_cutoff": 65}),
        ("fock-limit", {"seed": 1, "cutoff_cutoff": 63}),
        ("fock-limit", {"seed": 1, "quad_grid": 1183}),
        ("pathint", {"seed": 1, "steps": 4096}),
        ("calibrate", {"seed": 1, "steps": 256, "m": 16}),
        ("landau", {"half_width": 916.0, "spacing": 1.0}),
        ("landau", {"strong_limit_half_width": 1e12}),
        ("pathint", {"seed": 1, "nu_list": [1, 1.0000001]}),
        ("calibrate", {"seed": 1, "rules": ["nu", "nu"]}),
        ("calibrate", {"seed": 1, "nu_list": [2, 2.0]}),
        ("graph-limit", {"seed": 1, "nu_list": [4, 8, 4]}),
        ("landau", {"strong_limit_nu_list": [2, 2.0000001]}),
        ("membership", {"seed": 1, "n_list": [1, 2, 1]}),
        ("landau", {"strong_limit_nu_list": [-4]}),
        ("landau", {"strong_limit_nu_list": [0]}),
        ("landau", {"strong_limit_nu_list": []}),
        ("landau", {"half_width": 64.0, "spacing": 0.25, "eig_count": 200000}),
        ("calibrate", {"seed": 1, "rules": ["two_nu"]}),
        ("fock-limit", {"seed": 1, "strong_norm": 0}),
        ("pathint", {"seed": 1, "symbol_norm": -1}),
        ("pathint", {"seed": 1, "nu_list": [1, 710]}),
        ("calibrate", {"seed": 1, "m": 2, "nu_list": [1, 355]}),
        ("graph-limit", {"seed": 1, "nu_list": [4, 17.5]}),
        ("pathint", {"seed": 1, "symbol_norm": 1e50}),
        ("pathint", {"seed": 1, "symbol_norm": 1e160}),
        ("fock-limit", {"seed": 1, "strong_norm": 1e300}),
        ("fock-limit", {"seed": 1, "strong_nu_list": [4, 1e300]}),
        ("landau", {"strong_limit_nu_list": [2, 1e8]}),
        ("landau", {"strong_limit_nu_list": [1e300]}),
        ("calibrate", {"seed": 1, "nu_list": [0.1], "rules": ["nu", "nu_plus_log"], "steps": 16, "samples": 1000}),
    ],
    ids=[
        "pathint_empty_nu_list",
        "pathint_negative_nu",
        "pathint_zero_nu",
        "calibrate_unknown_rule",
        "calibrate_no_rules",
        "calibrate_empty_nu_list",
        "landau_no_eigenvalues",
        "landau_negative_spacing",
        "landau_coarse_grid",
        "landau_infinite_grid",
        "landau_eig_count_beyond_grid",
        "landau_eig_count_short_of_level_1",
        "landau_coarse_strong_limit_grid",
        "membership_empty_n_list",
        "potapov_empty_contraction_n_list",
        "graph_limit_empty_nu_list",
        "graph_limit_zero_m",
        "fock_limit_empty_tau_list",
        "fock_limit_empty_strong_nu_list",
        "calibrate_zero_m",
        "membership_zero_samples",
        "membership_zero_n",
        "membership_zero_structural_tol",
        "decompose_zero_samples",
        "decompose_zero_n",
        "decompose_negative_recon_tol",
        "decompose_zero_recover_tol",
        "potapov_zero_pairs",
        "potapov_zero_n",
        "potapov_fewer_contraction_samples_than_n_values",
        "potapov_zero_contraction_samples",
        "potapov_contraction_samples_not_a_multiple_of_n_values",
        "potapov_zero_example_tol",
        "potapov_zero_gap_tol",
        "potapov_zero_product_tol",
        "potapov_negative_norm_tol",
        "graph_limit_zero_samples",
        "graph_limit_zero_fd_samples",
        "graph_limit_zero_gap_threshold",
        "graph_limit_zero_fd_epsilon",
        "graph_limit_zero_fd_tol",
        "fock_limit_lemma_cutoff_below_z_ops",
        "fock_limit_zero_lemma_samples",
        "fock_limit_strong_cutoff_short_of_test_vectors",
        "fock_limit_empty_antinormal_band",
        "fock_limit_quad_cutoff_below_z_ops",
        "fock_limit_quad_radius_below_5",
        "fock_limit_quad_grid_below_100",
        "fock_limit_cutoff_cutoff_below_z_ops",
        "fock_limit_zero_lemma_tol",
        "fock_limit_zero_strong_tol",
        "fock_limit_zero_antinormal_tol",
        "fock_limit_zero_quad_tol",
        "fock_limit_zero_cutoff_tol",
        "landau_zero_spacing",
        "landau_zero_ground_tol",
        "landau_negative_cluster_tol",
        "pathint_zero_refinement_tol",
        "calibrate_zero_closed_form_tol",
        "decompose_infinite_recon_tol",
        "fock_limit_infinite_quad_radius",
        "landau_half_width_beyond_float",
        "pathint_infinite_nu",
        "graph_limit_nan_fd_tol",
        *(f"{tag.replace('-', '_')}_negative_seed" for tag in EXPERIMENTS),
        "decompose_n_beyond_memory",
        "membership_n_list_beyond_memory",
        "potapov_contraction_n_beyond_memory",
        "graph_limit_m_beyond_memory",
        "fock_limit_lemma_cutoff_beyond_memory",
        "fock_limit_cutoff_cutoff_beyond_memory_at_guard",
        "fock_limit_quad_grid_beyond_memory",
        "pathint_steps_beyond_memory",
        "calibrate_m_beyond_memory_at_steps",
        "landau_grid_beyond_memory",
        "landau_strong_limit_grid_beyond_memory",
        "pathint_nu_list_row_names_collide",
        "calibrate_rules_repeat",
        "calibrate_nu_list_row_names_collide",
        "graph_limit_nu_list_repeats",
        "landau_strong_limit_nu_list_row_names_collide",
        "membership_n_list_repeats",
        "landau_negative_strong_limit_nu",
        "landau_zero_strong_limit_nu",
        "landau_empty_strong_limit_nu_list",
        "landau_eig_count_beyond_lanczos_memory",
        "calibrate_rules_without_nu",
        "fock_limit_zero_strong_norm",
        "pathint_negative_symbol_norm",
        "pathint_scale_e_nu_beyond_float",
        "calibrate_scale_e_nu_m_beyond_float",
        "graph_limit_nu_beyond_rank_test",
        "pathint_symbol_norm_beyond_oracle_cancellation",
        "pathint_symbol_norm_beyond_oracle_overflow",
        "fock_limit_strong_norm_beyond_rounding_floor",
        "fock_limit_strong_nu_beyond_expm_power",
        "landau_strong_limit_nu_beyond_expm_multiply_cost",
        "landau_strong_limit_nu_beyond_float_in_expm_multiply",
        "calibrate_nu_plus_log_variance_not_positive",
    ],
)
def test_out_of_range_parameters_exit_2_without_outputs(tmp_path, capsys, experiment, params):
    cfg = write_config(tmp_path, {"experiment": experiment, "parameters": params})
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(["run", cfg, "--out", str(out_dir)]) == 2
    assert list(out_dir.iterdir()) == []
    err = capsys.readouterr().err
    assert "config error" in err
    # a key that is no field (a tolerance or a Fock cutoff, constants in
    # experiments.py) fails as unknown, whatever its value, not by a range
    retired = sorted(set(params) - {f.name for f in fields(EXPERIMENTS[experiment].params)})
    assert (f"unknown parameters for {experiment!r}: {retired}" if retired else " must be ") in err


# each field retired into a constant of experiments.py, with its old default
RETIRED = {
    "membership": {"structural_tol": 1e-14},
    "decompose": {"recon_tol": 1e-9, "recover_tol": 1e-7},
    "potapov": {"example_tol": 1e-12, "gap_tol": 1e-6, "product_tol": 1e-9, "norm_tol": 1e-10},
    "graph-limit": {"gap_threshold": 1e-6, "fd_epsilon": 1e-5, "fd_tol": 1e-3},
    "fock-limit": {"lemma_cutoff": 10, "lemma_tol": 1e-10, "strong_cutoff": 14, "strong_tol": 5e-3,
                   "antinormal_cutoff": 10, "antinormal_tol": 1e-12, "quad_cutoff": 12, "quad_radius": 6.0,
                   "quad_tol": 1e-3, "cutoff_cutoff": 16, "cutoff_norm": 0.5, "cutoff_tol": 1e-3},
    "landau": {"ground_tol": 0.02, "cluster_tol": 0.05, "strong_limit_spacing": 0.25, "strong_limit_norm": 0.3},
    "pathint": {"refinement_tol": 1e-3},
    "calibrate": {"closed_form_tol": 5e-3},
}


@pytest.mark.parametrize(
    "experiment, name, value",
    [(tag, name, value) for tag, retired in RETIRED.items() for name, value in retired.items()],
    ids=[f"{tag}-{name}" for tag, retired in RETIRED.items() for name in retired],
)
def test_retired_field_exits_2_as_unknown(tmp_path, capsys, experiment, name, value):
    # a check threshold is a constant in the code: no config can move it,
    # not even to the value it has
    params = {**{key: 1 for key in EXPERIMENTS[experiment].required}, name: value}
    cfg = write_config(tmp_path, {"experiment": experiment, "parameters": params})
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(["run", cfg, "--out", str(out_dir)]) == 2
    assert list(out_dir.iterdir()) == []
    assert f"config error: unknown parameters for {experiment!r}: [{name!r}]" in capsys.readouterr().err


def test_integer_past_the_digit_limit_exits_2_without_outputs(tmp_path, capsys):
    # Python refuses to parse an int literal of more than 4300 digits
    cfg = tmp_path / "config.json"
    cfg.write_text('{"experiment": "landau", "parameters": {"half_width": ' + "9" * 5000 + "}}")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(["run", str(cfg), "--out", str(out_dir)]) == 2
    assert list(out_dir.iterdir()) == []
    assert "cannot read config" in capsys.readouterr().err


def test_calibrate_rules_range_names_the_nu_plus_log_bound():
    config = {"experiment": "calibrate", "parameters": {"seed": 1, "nu_list": [0.35, 1.0], "rules": ["nu", "nu_plus_log"]}}
    with pytest.raises(ConfigError, match=r"2 nu e\^nu > 1"):
        validate_config(config)
    config["parameters"]["nu_list"] = [0.36, 1.0]
    validate_config(config)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")], ids=["nan", "inf", "minus_inf"])
@pytest.mark.parametrize("make", [
    lambda x: Check.le("row", x, 1.0), lambda x: Check.le("row", 1.0, x),
    lambda x: Check.lt("row", x, 1.0), lambda x: Check.lt("row", 1.0, x),
    lambda x: Check.gt("row", x, 1.0), lambda x: Check.gt("row", 1.0, x),
    lambda x: Check.ge("row", x, 1.0), lambda x: Check.ge("row", 1.0, x),
    lambda x: Check.report("row", x),
], ids=["le_value", "le_threshold", "lt_value", "lt_threshold", "gt_value", "gt_threshold",
        "ge_value", "ge_threshold", "report_value"])
def test_check_refuses_a_non_finite_value_or_threshold(make, bad):
    with pytest.raises(NonFiniteCheckError):
        make(bad)


FOCK_SMALL = {"lemma_samples": 2, "strong_nu_list": [4], "quad_grid": 100, "tau_list": [4]}


def test_tripped_cutoff_guard_is_a_failed_check(tmp_path, capsys, monkeypatch):
    # at cutoff 3 the vacuum expectation moves by 2.2e-3 between cutoffs 3
    # and 5, past the 1e-4 guard: the run writes its outputs with a failed
    # guard row in place of the rows the guard protects, exit 1
    monkeypatch.setattr(experiments, "VACUUM_CUTOFF", 3)
    params = {"seed": 19, **FOCK_SMALL}
    cfg = write_config(tmp_path, {"experiment": "fock-limit", "parameters": params})
    out_dir = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out_dir)]) == 1
    report = json.loads((out_dir / "fock_limit_report.json").read_text())
    last = report["checks"][-1]
    assert last["name"] == "vacuum_expectation_cutoff_guard" and last["passed"] is False
    assert last["comparator"] == "<" and last["value"] >= last["threshold"] == 1e-4
    names = [c["name"] for c in report["checks"]]
    assert "vacuum_expectation_modulus" not in names and "cutoff_convergence_final" not in names
    csv_rows = (out_dir / "fock_limit_measurements.csv").read_text().splitlines()
    assert csv_rows[-1].startswith("fock-limit,vacuum_expectation_cutoff_guard,") and csv_rows[-1].endswith(",<,fail")
    assert "vacuum_expectation_cutoff_guard" in capsys.readouterr().err

    # a cutoff whose guard holds writes the guarded rows and no guard row
    monkeypatch.setattr(experiments, "VACUUM_CUTOFF", 8)
    main(["run", cfg, "--out", str(out_dir)])
    names = [c["name"] for c in json.loads((out_dir / "fock_limit_report.json").read_text())["checks"]]
    assert names[-3:] == ["vacuum_expectation_modulus", "cutoff_convergence_final", "cutoff_convergence_first"]
    assert "vacuum_expectation_cutoff_guard" not in names


FIELDS = [(tag, f.name) for tag, d in EXPERIMENTS.items() for f in fields(d.params)]


def other_json_type(kind):
    """JSON values that are not of the field type ``kind``: a string, a
    bool, a non-empty nested list, and a float for an int (also as a list
    element)."""
    nested = st.lists(st.lists(st.integers(), max_size=2), min_size=1, max_size=3)
    wrong = st.text(max_size=4) | st.booleans() | nested
    floats = st.floats(allow_nan=False, allow_infinity=False)
    if kind is int:
        wrong |= floats
    if get_origin(kind) is tuple and get_args(kind)[0] is int:
        wrong |= st.lists(floats, min_size=1, max_size=3)
    return wrong


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FIELDS), st.data())
def test_value_of_another_json_type_is_a_config_error(tag_field, data):
    tag, name = tag_field
    kind = get_type_hints(EXPERIMENTS[tag].params)[name]
    value = data.draw(other_json_type(kind))
    params = {**{key: 1 for key in EXPERIMENTS[tag].required}, name: value}
    want = f"list of {get_args(kind)[0].__name__}" if get_origin(kind) is tuple else kind.__name__
    with pytest.raises(ConfigError, match=f"parameter '{name}' of '{tag}' must be {want}, got"):
        validate_config({"experiment": tag, "parameters": params})


@settings(deadline=None)
@given(st.sampled_from(sorted(EXPERIMENTS)), st.integers(0, 2**31 - 1))
def test_defaults_spelled_out_validate_like_the_bare_required_keys(tag, seed):
    spec = EXPERIMENTS[tag]
    bare = {key: seed for key in spec.required}
    _, filled_bare = validate_config({"experiment": tag, "parameters": bare})
    _, filled_full = validate_config({"experiment": tag, "parameters": {**spec.defaults, **bare}})
    assert list(filled_full.items()) == list(filled_bare.items())


@pytest.mark.parametrize(
    "payload",
    [[], {"experiment": "decompose", "parameters": []}],
    ids=["list_config", "list_parameters"],
)
def test_seed_override_on_non_object_exits_2(tmp_path, capsys, payload):
    cfg = write_config(tmp_path, payload)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(["run", cfg, "--out", str(out_dir), "--seed-override", "3"]) == 2
    assert list(out_dir.iterdir()) == []
    assert "config error" in capsys.readouterr().err


def test_negative_seed_override_exits_2_without_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, small_membership())
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(["run", cfg, "--out", str(out_dir), "--seed-override", "-1"]) == 2
    assert list(out_dir.iterdir()) == []
    assert "config error" in capsys.readouterr().err


ROOT = Path(__file__).resolve().parent.parent


def load_perfbench(name, monkeypatch):
    """perfbench/<name>.py, loaded by path without writing bytecode there."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_bench_pairs(monkeypatch):
    """tools/bench_pairs.py, loaded by path without writing bytecode there."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary_sums_operations(monkeypatch):
    bench_pairs = load_bench_pairs(monkeypatch)

    def run(seed, wall, attempted, failed, correct):
        metrics = {m: {"value": wall} for m in bench_pairs.METRICS}
        return {"seed": seed, "result": {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}}

    runs = {"parent": [run(1, 1.0, 100, 0, True), run(2, 2.0, 110, 0, True)],
            "change": [run(1, 0.5, 100, 3, True), run(2, 3.0, 90, 1, False)]}
    summary = bench_pairs.summary(runs)
    assert summary["operations"] == {"parent": {"attempted": 210, "failed": 0, "all_correct": True},
                                     "change": {"attempted": 190, "failed": 4, "all_correct": False}}
    assert summary["wall_s"]["change_lower_in"] == "1 of 2"
    assert summary["wall_s"]["parent"] == {"median": 1.5, "q1": 1.25, "q3": 1.75, "n": 2}



def test_bench_pairs_summary_reads_pair_ratios_and_the_gain_rule(monkeypatch):
    bench_pairs = load_bench_pairs(monkeypatch)

    def run(seed, value):
        metrics = {m: {"value": value} for m in bench_pairs.METRICS}
        return {"seed": seed, "result": {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}}

    def wall(parent, change):
        return bench_pairs.summary({"parent": [run(k, v) for k, v in enumerate(parent)],
                                    "change": [run(k, v) for k, v in enumerate(change)]})["wall_s"]

    # a host that slows down over the record: each side spreads, while every
    # pair's ratio stays 0.5
    parent = [1.0 + 0.1 * k for k in range(10)]  # median 1.45, quartiles 1.225 and 1.675
    half = wall(parent, [v / 2 for v in parent])
    assert half["ratio"] == {"median": 0.5, "q1": 0.5, "q3": 0.5, "n": 10}
    assert half["change_lower_in"] == "10 of 10" and half["gain_holds"]
    # a tie counts for neither side: nine of ten still holds, eight does not
    tie = wall(parent, [1.0] + [v / 2 for v in parent[1:]])
    assert tie["change_lower_in"] == "9 of 10" and tie["gain_holds"]
    two_ties = wall(parent, [1.0, 1.1] + [v / 2 for v in parent[2:]])
    assert two_ties["change_lower_in"] == "8 of 10" and not two_ties["gain_holds"]
    # lower in every pair, by less than the parent's interquartile range 0.45
    near = wall(parent, [v - 0.1 for v in parent])
    assert near["change_lower_in"] == "10 of 10" and not near["gain_holds"]


def test_bench_pairs_summary_reads_the_no_regression_verdict(monkeypatch):
    bench_pairs = load_bench_pairs(monkeypatch)

    def run(seed, value):
        metrics = {m: {"value": value} for m in bench_pairs.METRICS}
        return {"seed": seed, "result": {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}}

    def verdict(parent, change, metric="wall_s"):
        return bench_pairs.summary({"parent": [run(k, v) for k, v in enumerate(parent)],
                                    "change": [run(k, v) for k, v in enumerate(change)]})[metric]["regression"]

    # BENCHMARK.json bounds wall_s at 0.25 and peak_rss_mib at 0.05 of the parent's median
    tight = [1.0 + 0.01 * k for k in range(10)]  # median 1.045, interquartile range 0.045
    assert verdict(tight, [v * 1.2 for v in tight]) == "not_worse"
    assert verdict(tight, [v * 1.3 for v in tight]) == "worse"
    assert verdict(tight, [v * 1.04 for v in tight], "peak_rss_mib") == "not_worse"
    assert verdict(tight, [v * 1.06 for v in tight], "peak_rss_mib") == "worse"
    # a parent spread of 0.45 over a median of 1.45 is wider than the bound
    wide = [1.0 + 0.1 * k for k in range(10)]
    assert verdict(wide, wide) == "unresolved"
    assert verdict(wide, [v - 0.2 for v in wide]) == "unresolved"  # lower, but not every run below 1.0
    assert verdict(wide, [0.5 + 0.04 * k for k in range(10)]) == "not_worse"  # every run below 1.0
    assert verdict(wide, [v * 1.3 for v in wide]) == "worse"

def test_bench_pairs_revision_marks_a_dirty_checkout(monkeypatch, tmp_path):
    bench_pairs = load_bench_pairs(monkeypatch)

    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false", *args],
                              cwd=tmp_path, check=True, stdout=subprocess.PIPE, text=True).stdout.strip()

    git("init", "-q")
    (tmp_path / "a.txt").write_text("one\n")
    git("add", "a.txt")
    git("commit", "-q", "-m", "one")
    sha = git("rev-parse", "HEAD")
    assert bench_pairs.revision(tmp_path) == sha
    (tmp_path / "new.txt").write_text("untracked\n")  # an untracked file is not an edit
    assert bench_pairs.revision(tmp_path) == sha
    (tmp_path / "a.txt").write_text("two\n")
    assert bench_pairs.revision(tmp_path) == f"{sha}-dirty"


@pytest.fixture
def repo_configs(monkeypatch):
    """The checked-in configs, and the benchmark's at seeds 1-20 and its
    warm-ups."""
    configs = [json.loads(path.read_text()) for path in sorted((ROOT / "configs").glob("*.json"))]
    assert len(configs) == len(EXPERIMENTS)
    workloads = load_perfbench("workloads", monkeypatch)
    for w in workloads.WORKLOADS:
        configs += workloads.warmup_configs(w)
        for seed in range(1, 21):
            configs += workloads.configs(w, seed)
    return configs


def test_checked_in_and_benchmark_configs_validate(repo_configs):
    # a range that rejects a config the repository runs fails here, not as
    # a failed benchmark run
    for config in repo_configs:
        validate_config(config)


@pytest.mark.parametrize("workload", ["pathint", "oracle", "landau", "battery"])
def test_benchmark_checks_pass_on_its_configs(tmp_path, monkeypatch, workload):
    # the benchmark checks every output with perfbench/checks.py, which calls
    # the program's own names; a renamed or deleted one fails here, not as a
    # failed benchmark run
    workloads = load_perfbench("workloads", monkeypatch)
    checker = load_perfbench("checks", monkeypatch).Checker(phaselab)
    for config in workloads.configs(workload, 1):
        cfg = write_config(tmp_path, config)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) in (0, 1)
        assert checker(config, tmp_path / "out") == []


# fields that no config sends but the benchmark's checks read from the report
BENCHMARK_READS = {("pathint", "symbol_norm"), ("fock-limit", "strong_norm"), ("calibrate", "m")}


def test_every_field_is_sent_by_a_config_or_read_by_the_benchmark(repo_configs):
    # a field with one value in use is a constant, not a parameter
    sent = {(config["experiment"], key) for config in repo_configs for key in config["parameters"]}
    assert [field for field in FIELDS if field not in sent | BENCHMARK_READS] == []


def test_landau_grid_bound_is_the_csr_data_array():
    # a grid of at most MAX_ARRAY_BYTES // 80 points, so that the
    # 5 side^2 - 4 side complex CSR data of the Hamiltonian fits: side 1831
    # passes, side 1833 does not (half widths 915.9 and 916 at spacing 1,
    # 228.9 and 229 at the fixed strong-limit spacing 0.25); validation
    # only, nothing is allocated
    assert 16 * (5 * 1831**2 - 4 * 1831) <= MAX_ARRAY_BYTES < 16 * (5 * 1833**2 - 4 * 1833)
    main_grid = {"spacing": 1.0, "eig_count": 2_000_000}
    # on the side-1831 main grid the half width passes its range, and the
    # eig_count, whose Lanczos basis would not fit, fails its own
    with pytest.raises(ConfigError, match="parameter 'eig_count'"):
        validate_config({"experiment": "landau", "parameters": {**main_grid, "half_width": 915.9}})
    with pytest.raises(ConfigError, match="3355443 points"):
        validate_config({"experiment": "landau", "parameters": {**main_grid, "half_width": 916.0}})
    validate_config({"experiment": "landau", "parameters": {"strong_limit_half_width": 228.9}})
    with pytest.raises(ConfigError, match="3355443 points"):
        validate_config({"experiment": "landau", "parameters": {"strong_limit_half_width": 229.0}})


def test_landau_spacing_out_of_range_names_the_spacing(tmp_path, capsys):
    # the range sits on half_width (the default 8.0, which the config does
    # not set) but fails on the spacing, so the message quotes the spacing
    cfg = write_config(tmp_path, {"experiment": "landau", "parameters": {"spacing": 1.0}})
    out_dir = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out_dir)]) == 2
    assert not out_dir.exists()
    err = capsys.readouterr().err
    assert "times the parameter 'spacing', which is 1.0 and must be positive" in err


def test_eig_count_bound_is_the_lanczos_basis():
    # low_spectrum's largest sector has (npoints - 1) // 4 + 1 sites and asks
    # ARPACK for at most 2 k_q + 1 float64 Lanczos vectors: 7.3 MiB for the
    # checked-in config, 66,050 MiB for eig_count 200000 on a side-513
    # grid, where even the least eig_count that reaches level 1 needs
    # 4,434 MiB; validation only, nothing is allocated
    checked_in = Grid2D(8.0, 0.125)
    assert lanczos_bytes(checked_in.npoints, 120) == 8 * 4161 * 229
    validate_config({"experiment": "landau", "parameters": {"eig_count": 120}})
    big = Grid2D(64.0, 0.25)
    assert lanczos_bytes(big.npoints, 200_000) == 8 * 65793 * (2 * 65791 + 1)
    least = math.ceil(flux_count(big)) + 2
    assert least == 5218 and lanczos_bytes(big.npoints, least) > MAX_ARRAY_BYTES
    for k in (least, 200_000):
        with pytest.raises(ConfigError, match="parameter 'eig_count'.*lanczos_bytes"):
            validate_config({"experiment": "landau", "parameters": {"half_width": 64.0, "spacing": 0.25, "eig_count": k}})


def test_quad_grid_bound_is_the_amplitude_table():
    # the quadrature rows run at Fock cutoff 12, so the 12 x grid^2 complex
    # amplitude table fits at grid 1182 and not at 1183; validation only
    assert experiments.QUAD_CUTOFF == 12
    assert 16 * 12 * 1182**2 <= MAX_ARRAY_BYTES < 16 * 12 * 1183**2
    validate_config({"experiment": "fock-limit", "parameters": {"seed": 1, "quad_grid": 1182}})
    with pytest.raises(ConfigError, match="parameter 'quad_grid'.*to 1182"):
        validate_config({"experiment": "fock-limit", "parameters": {"seed": 1, "quad_grid": 1183}})


def test_calibrate_closed_form_cross_check_at_m(tmp_path):
    # the cross-check row compares the table's own oracle at the smallest nu
    # with the closed form (2 nu / (1 - e^{-2 nu}))^m at the configured m
    params = {"seed": 5, "nu_list": [1, 2], "rules": ["nu"], "steps": 64, "samples": 1000, "m": 2}
    cfg = write_config(tmp_path, {"experiment": "calibrate", "parameters": params})
    main(["run", cfg, "--out", str(tmp_path)])
    lines = (tmp_path / "calibrate_measurements.csv").read_text().splitlines()[1:]
    rows = {name: float(value) for _, name, value, *_ in (line.split(",") for line in lines)}
    closed = (2.0 / (1 - math.exp(-2.0))) ** 2
    want = abs(rows["oracle_nu_nu1"] - closed) / closed
    assert rows["closed_form_cross_check"] == pytest.approx(want, rel=1e-12)


def test_calibrate_reports_its_monte_carlo_spot_checks(tmp_path):
    params = {"seed": 3, "nu_list": [1, 2], "rules": ["nu", "two_nu"], "steps": 64, "samples": 2000}
    cfg = write_config(tmp_path, {"experiment": "calibrate", "parameters": params})
    lines = []
    for out in ("a", "b"):
        main(["run", cfg, "--out", str(tmp_path / out)])
        lines.append((tmp_path / out / "calibrate_measurements.csv").read_text().splitlines())
    assert lines[0] == lines[1]
    # appended after every other row, one pair per rule at its first nu
    tail = [row.split(",") for row in lines[0][-4:]]
    assert [row[1] for row in tail] == [
        "mc_vs_oracle_nu_nu1_in_stderr", "mc_stderr_nu_nu1",
        "mc_vs_oracle_two_nu_nu1_in_stderr", "mc_stderr_two_nu_nu1",
    ]
    assert all(row[3:] == ["", "report", "report"] for row in tail)
    assert float(tail[0][2]) <= 6.0 and float(tail[1][2]) > 0


def test_calibrate_table():
    rep = experiments.run_experiment({"experiment": "calibrate", "parameters": {
        "seed": 3, "nu_list": [1.0, 2.0], "rules": ["nu", "two_nu"], "steps": 64, "samples": 2000}})
    rows = {c.name: c for c in rep.checks}
    # the table runs twice and repeats exactly
    assert rows["table_deterministic"].passed
    assert [name for name in rows if name.startswith("oracle_")] == [
        "oracle_nu_nu1", "oracle_nu_nu2", "oracle_two_nu_nu1", "oracle_two_nu_nu2"]
    assert all(math.isfinite(c.value) for name, c in rows.items() if name.startswith("oracle_"))
    assert rows["any_rule_near_one"].comparator == "report"
    # the literal time-rescaling rule drifts away from 1 like 2 nu
    assert rows["dev_from_one_nu_nu2"].value > 1.0


def test_run_writes_report_and_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, small_membership())
    out_dir = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "membership_report.json").read_text())
    assert report["experiment"] == "membership" and report["ok"] is True
    csv_text = (out_dir / "membership_measurements.csv").read_text()
    header = csv_text.splitlines()[0]
    assert header == "experiment,check,value,threshold,comparator,status"
    assert len(csv_text.splitlines()) == len(report["checks"]) + 1


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, small_membership())
    main(["run", cfg, "--out", str(tmp_path / "a")])
    main(["run", cfg, "--out", str(tmp_path / "b")])
    csv_a = (tmp_path / "a" / "membership_measurements.csv").read_bytes()
    csv_b = (tmp_path / "b" / "membership_measurements.csv").read_bytes()
    assert csv_a == csv_b


# a fresh process: runs each config given after the output directory
RUN_CONFIGS = "import sys\nfrom phaselab.cli import main\nfor c in sys.argv[2:]:\n    main(['run', c, '--out', sys.argv[1]])"


def fresh_env(**extra):
    """This process's environment with src/ on PYTHONPATH, and ``extra``."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path, **extra}


def test_csv_bytes_do_not_depend_on_the_thread_count(tmp_path):
    # one process per BLAS thread count (this contract is checked on two
    # cores, so 1 and 2), each running every config through cli.main
    configs = [str(ROOT / "configs" / f"{name}.json") for name in ("membership", "decompose", "potapov")]
    landau = {"experiment": "landau", "parameters": {"half_width": 4.5, "spacing": 0.125, "eig_count": 38}}
    configs.append(write_config(tmp_path, landau, "landau.json"))
    fock = {"experiment": "fock-limit", "parameters": {"seed": 1, **FOCK_SMALL}}
    configs.append(write_config(tmp_path, fock, "fock_limit.json"))
    # two CHUNK blocks of loops
    pathint = {"experiment": "pathint", "parameters": {"seed": 1, "nu_list": [1], "steps": 16, "samples": 5000}}
    configs.append(write_config(tmp_path, pathint, "pathint.json"))
    calibrate = {"experiment": "calibrate", "parameters": {"seed": 1, **SMALL_PARAMETERS["calibrate"]}}
    configs.append(write_config(tmp_path, calibrate, "calibrate.json"))
    procs = {}
    for threads in ("1", "2"):
        env = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads)
        procs[threads] = subprocess.Popen([sys.executable, "-c", RUN_CONFIGS, str(tmp_path / threads), *configs],
                                          env=fresh_env(**env), stdout=subprocess.DEVNULL)
    assert [proc.wait(timeout=600) for proc in procs.values()] == [0, 0]
    one, two = (sorted((tmp_path / threads).glob("*.csv")) for threads in procs)
    assert [f.name for f in one] == [f.name for f in two] and len(one) == 7
    for a, b in zip(one, two):
        assert a.read_bytes() == b.read_bytes(), a.name


def test_pathint_and_calibrate_runs_never_import_scipy(tmp_path):
    # neither runner calls scipy, which linalg, fock and landau import where
    # they call it; a fresh process, since this one has imported scipy
    configs = [write_config(tmp_path, {"experiment": tag, "parameters": {**SMALL_PARAMETERS[tag], "seed": 1}}, f"{tag}.json")
               for tag in ("pathint", "calibrate")]
    script = RUN_CONFIGS + "\nprint(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "out"), *configs],
                          env=fresh_env(), stdout=subprocess.PIPE, text=True, timeout=600)
    assert proc.returncode == 0
    assert len(list((tmp_path / "out").glob("*.csv"))) == 2
    assert proc.stdout.splitlines()[-1] == "[]"


def test_seed_override_changes_samples(tmp_path):
    base = {
        "experiment": "decompose",
        "parameters": {"seed": 1, "n": 1, "samples": 3},
    }
    cfg = write_config(tmp_path, base)
    main(["run", cfg, "--out", str(tmp_path / "a")])
    main(["run", cfg, "--out", str(tmp_path / "b"), "--seed-override", "99"])
    csv_a = (tmp_path / "a" / "decompose_measurements.csv").read_text()
    csv_b = (tmp_path / "b" / "decompose_measurements.csv").read_text()
    assert csv_a != csv_b


# a config of each experiment that runs in well under a second
SMALL_PARAMETERS = {
    "membership": {"n_list": [1], "n": 1, "samples": 6},
    "decompose": {"n": 1, "samples": 3},
    "potapov": {"n": 1, "pairs": 2, "contraction_samples": 2, "contraction_n_list": [1]},
    "graph-limit": {"samples": 2, "nu_list": [4], "fd_samples": 2},
    "fock-limit": FOCK_SMALL,
    "landau": {"half_width": 2.0, "spacing": 0.125, "eig_count": 8,
               "strong_limit_nu_list": [2], "strong_limit_half_width": 4.0},
    "pathint": {"nu_list": [1], "steps": 16, "samples": 1000},
    "calibrate": {"nu_list": [1], "rules": ["nu"], "steps": 16, "samples": 1000},
}


@settings(max_examples=16, deadline=None)
@given(st.sampled_from(sorted(SMALL_PARAMETERS)), st.integers(0, 2**31 - 1))
def test_seed_override_writes_the_bytes_of_the_seed_in_the_config(tmp_path_factory, tag, seed):
    tmp = tmp_path_factory.mktemp("seed")
    params = SMALL_PARAMETERS[tag]
    overridden = write_config(tmp, {"experiment": tag, "parameters": {**params, "seed": 7}}, "overridden.json")
    direct = write_config(tmp, {"experiment": tag, "parameters": {**params, "seed": seed}}, "direct.json")
    codes = [main(["run", overridden, "--out", str(tmp / "a"), "--seed-override", str(seed)]),
             main(["run", direct, "--out", str(tmp / "b")])]
    assert codes[0] == codes[1]
    a, b = (sorted((tmp / out).glob("*.csv")) for out in "ab")
    assert len(a) == len(b) == 1 and a[0].read_bytes() == b[0].read_bytes()


@pytest.mark.parametrize("tag, params", [
    ("pathint", {"nu_list": [709]}),
    ("calibrate", {"m": 2, "nu_list": [354]}),
    ("graph-limit", {"nu_list": [4, 17]}),
], ids=["pathint_nu_709", "calibrate_m2_nu_354", "graph_limit_nu_17"])
def test_nu_at_its_bound_writes_finite_rows(tmp_path, tag, params):
    # the largest nu each range admits runs to finite values in every row
    cfg = write_config(tmp_path, {"experiment": tag, "parameters": {**SMALL_PARAMETERS[tag], **params, "seed": 1}})
    assert main(["run", cfg, "--out", str(tmp_path)]) in (0, 1)
    [csv] = tmp_path.glob("*.csv")
    values = [float(line.split(",")[2]) for line in csv.read_text().splitlines()[1:]]
    assert values and all(math.isfinite(v) for v in values)


@pytest.mark.parametrize("tag, params, guarded", [
    ("pathint", {"nu_list": [1e-8]}, {"mc_vs_oracle_area_nu1e-08_stderr_guard": "mc_vs_oracle_area_nu1e-08_in_stderr",
                                      "mc_vs_oracle_quadratic_nu1e-08_stderr_guard": "mc_vs_oracle_quadratic_nu1e-08_in_stderr"}),
    ("calibrate", {"nu_list": [1e-8]}, {"mc_vs_oracle_nu_nu1e-08_stderr_guard": "mc_vs_oracle_nu_nu1e-08_in_stderr"}),
    ("pathint", {"steps": 64, "symbol_norm": 1e8}, {"oracle_refinement_nu1_underflow_guard": "oracle_refinement_nu1"}),
], ids=["pathint_nu_1e-8_zero_stderr", "calibrate_nu_1e-8_zero_stderr", "pathint_symbol_norm_1e8_fine_oracle_underflow"])
def test_guard_row_stands_in_for_a_zero_divisor(tmp_path, tag, params, guarded):
    # where the draws leave a divisor at exactly 0 (every phase rounded to
    # one value, so the stderr is 0, or the symbol drawn underflows the fine
    # oracle), a failed guard row with a finite value stands in place of the
    # row it guards
    cfg = write_config(tmp_path, {"experiment": tag, "parameters": {**SMALL_PARAMETERS[tag], **params, "seed": 1}})
    assert main(["run", cfg, "--out", str(tmp_path)]) == 1
    [csv] = tmp_path.glob("*.csv")
    rows = {name: rest for _, name, *rest in (line.split(",") for line in csv.read_text().splitlines()[1:])}
    assert all(math.isfinite(float(value)) for value, *_ in rows.values())
    assert [name for name in rows if name.endswith("_guard")] == list(guarded)
    for guard, row in guarded.items():
        assert rows[guard] == ["0", "0", ">", "fail"] and row not in rows



# the runners that evaluate their sweeps in stacks of linalg.STACK_BYTES;
# graph-limit at three nu, so that its sweep is more than one matrix
STACKED_RUNNERS = {tag: SMALL_PARAMETERS[tag] for tag in ("membership", "decompose", "potapov", "fock-limit")}
STACKED_RUNNERS["graph-limit"] = {**SMALL_PARAMETERS["graph-limit"], "nu_list": [4, 9, 16]}


@pytest.mark.parametrize("tag", sorted(STACKED_RUNNERS))
def test_stack_budget_moves_no_value(tmp_path, monkeypatch, tag):
    # a budget of one byte puts every item of a sweep in a stack of its own;
    # the CSV bytes are those of the default budget
    cfg = write_config(tmp_path, {"experiment": tag, "parameters": {**STACKED_RUNNERS[tag], "seed": 3}})
    codes = [main(["run", cfg, "--out", str(tmp_path / "a")])]
    monkeypatch.setattr("phaselab.linalg.STACK_BYTES", 1)
    codes.append(main(["run", cfg, "--out", str(tmp_path / "b")]))
    assert codes[0] == codes[1] in (0, 1)
    a, b = (sorted((tmp_path / out).glob("*.csv")) for out in "ab")
    assert len(a) == len(b) == 1 and a[0].read_bytes() == b[0].read_bytes()


# each stacked runner's sweep of k items, at block sizes where an item
# weighs a few KiB
SWEEPS = {
    "membership": lambda k: {"n": 4, "samples": k},
    "decompose": lambda k: {"n": 4, "samples": k},
    "potapov": lambda k: {"n": 4, "pairs": k, "contraction_n_list": [4], "contraction_samples": k},
    "graph-limit": lambda k: {"m": 2, "nu_list": list(range(4, 4 + k))},
    "fock-limit": lambda k: {"tau_list": [4.0 + j for j in range(k)]},
}


@pytest.mark.parametrize("tag", sorted(STACKED_RUNNERS))
def test_a_longer_sweep_of_stacks_holds_no_more_memory(monkeypatch, tag):
    # with a budget of one byte every item is a stack of its own, so a sweep
    # of 8 stacks must peak where one of 2 does: within 16 KiB, where holding
    # the 8 items at once (the default budget) adds 33-187 KiB
    def traced_peak(k):
        _, params = validate_config({"experiment": tag, "parameters": {**STACKED_RUNNERS[tag], **SWEEPS[tag](k), "seed": 3}})
        tracemalloc.start()
        try:
            EXPERIMENTS[tag].runner(params)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    monkeypatch.setattr("phaselab.linalg.STACK_BYTES", 1)
    traced_peak(2)  # fill the caches the runner keeps
    assert traced_peak(8) - traced_peak(2) <= 16 * 1024


# each float field of the stacked runners, with the largest value its range
# admits and whether the field is a list
FLOAT_FIELDS = [("graph-limit", "nu_list", 17.0, True), ("fock-limit", "strong_norm", 1e5, False),
                ("fock-limit", "strong_nu_list", 1e36, True), ("fock-limit", "tau_list", sys.float_info.max, True)]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(FLOAT_FIELDS),
       st.floats(math.log(sys.float_info.min * sys.float_info.epsilon), math.log(sys.float_info.max)))
def test_a_valid_float_field_ends_in_finite_rows_or_a_typed_refusal(tmp_path_factory, field, log_value):
    # one float drawn log-uniform over (0, its bound] on a small config: the
    # run exits 0 or 1 with only finite values in its CSV, or 2 having
    # written nothing, and never raises out of main
    tag, name, high, is_list = field
    value = min(math.exp(min(log_value, math.log(high))), high) or sys.float_info.min * sys.float_info.epsilon
    tmp = tmp_path_factory.mktemp("float")
    cfg = write_config(tmp, {"experiment": tag, "parameters": {**SMALL_PARAMETERS[tag], name: [value] if is_list else value,
                                                               "seed": 1}})
    code = main(["run", cfg, "--out", str(tmp / "out")])
    assert code in (0, 1, 2)
    outputs = sorted((tmp / "out").glob("*")) if (tmp / "out").exists() else []
    if code == 2:
        assert outputs == []
        return
    [csv] = [path for path in outputs if path.suffix == ".csv"]
    values = [float(line.split(",")[2]) for line in csv.read_text().splitlines()[1:]]
    assert values and all(math.isfinite(v) for v in values)

def test_unreadable_config_exits_2(tmp_path):
    assert main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2
