import json

import pytest

from phaselab.cli import main
from phaselab.experiments import EXPERIMENTS, ConfigError, validate_config


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
        ("landau", {"strong_limit_half_width": 4.0, "strong_limit_spacing": 0.5}),
        ("membership", {"seed": 1, "n_list": []}),
        ("potapov", {"seed": 1, "contraction_n_list": []}),
        ("graph-limit", {"seed": 1, "nu_list": []}),
        ("graph-limit", {"seed": 1, "m": 0}),
        ("fock-limit", {"seed": 1, "tau_list": []}),
        ("fock-limit", {"seed": 1, "strong_nu_list": []}),
        ("calibrate", {"seed": 1, "m": 0}),
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
    ],
)
def test_out_of_range_parameters_exit_2_without_outputs(tmp_path, capsys, experiment, params):
    cfg = write_config(tmp_path, {"experiment": experiment, "parameters": params})
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(["run", cfg, "--out", str(out_dir)]) == 2
    assert list(out_dir.iterdir()) == []
    assert "config error" in capsys.readouterr().err


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


def test_unreadable_config_exits_2(tmp_path):
    assert main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2
