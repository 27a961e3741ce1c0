import json

import pytest

from gradflux.cli import ConfigError, RunConfig, main


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_config_defaults_round_trip():
    config = RunConfig({})
    again = RunConfig(config.to_dict())
    assert again.to_dict() == config.to_dict()


def test_config_round_trip_with_options():
    payload = {
        "case": {"name": "case2", "phi": 0.7853981633974483},
        "formulation": "eo_full",
        "k": 0,
        "mesh": {"sizes": [4, 8, 16], "grading": 1.0},
        "kappa": 2.0,
        "zeta": 0.5,
        "stabilization": {"alpha": 0.1, "eta": 0.4},
        "seed": 3,
    }
    config = RunConfig(payload)
    again = RunConfig(config.to_dict())
    assert again.to_dict() == config.to_dict()


def test_config_validation_messages():
    with pytest.raises(ConfigError, match="formulation"):
        RunConfig({"formulation": "galerkin"})
    with pytest.raises(ConfigError, match="case.name"):
        RunConfig({"case": {"name": "case9"}})
    with pytest.raises(ConfigError, match="k:"):
        RunConfig({"k": 5})
    with pytest.raises(ConfigError, match="mesh.grading"):
        RunConfig({"mesh": {"grading": 0.2}})
    with pytest.raises(ConfigError, match="kappa"):
        RunConfig({"kappa": -1.0})


def test_corner_and_data_cases_force_lowest_order():
    with pytest.raises(ConfigError, match="k:"):
        RunConfig({"case": {"name": "case2"}, "k": 1})
    with pytest.raises(ConfigError, match="k:"):
        RunConfig({"case": {"name": "case3"}, "k": 2})


def test_invalid_stabilization_rejected_before_solving(tmp_path):
    path = write_config(tmp_path, {"stabilization": {"gamma": 1.0}})
    rc = main(["verify", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 1


def test_invalid_json_is_a_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc = main(["solve", "--config", str(path), "--out",
               str(tmp_path / "o")])
    assert rc == 1


def test_solve_writes_outputs(tmp_path):
    path = write_config(tmp_path, {
        "case": {"name": "case3", "nd": None},
        "formulation": "natural",
        "mesh": {"sizes": [8]},
    })
    out = tmp_path / "run"
    rc = main(["solve", "--config", path, "--out", str(out)])
    assert rc == 0
    report = (out / "report.csv").read_text().strip().splitlines()
    assert len(report) == 4   # comment, header, one data row, rate row
    for field in ("u", "e", "s", "lam", "mu"):
        assert (out / f"field_{field}.csv").exists()
    audit = (out / "second_law_audit.txt").read_text()
    assert audit.startswith("violations 0")
    assert (out / "nodal_error_u.csv").exists()


def test_solve_with_sampled_data(tmp_path):
    path = write_config(tmp_path, {
        "case": {"name": "case3", "nd": 4},
        "formulation": "eo_min",
        "mesh": {"sizes": [9]},
    })
    out = tmp_path / "run"
    rc = main(["solve", "--config", path, "--out", str(out)])
    assert rc == 0
    assert (out / "dataset.csv").exists()


def test_convergence_needs_three_meshes(tmp_path):
    path = write_config(tmp_path, {"mesh": {"sizes": [4, 8]}})
    rc = main(["convergence", "--config", path, "--out",
               str(tmp_path / "o")])
    assert rc == 1


def test_convergence_writes_report_and_svg(tmp_path):
    path = write_config(tmp_path, {
        "case": "case3",
        "formulation": "natural",
        "mesh": {"sizes": [4, 8, 16]},
    })
    out = tmp_path / "sweep"
    rc = main(["convergence", "--config", path, "--out", str(out)])
    assert rc == 0
    assert (out / "report.csv").exists()
    assert (out / "report.svg").read_text().startswith("<svg")


def test_data_study_requires_case3_and_nd_list(tmp_path):
    path = write_config(tmp_path, {"case": "case1", "nd_list": [4]})
    assert main(["data-study", "--config", path,
                 "--out", str(tmp_path / "a")]) == 1
    path = write_config(tmp_path, {"case": "case3"}, name="c2.json")
    assert main(["data-study", "--config", path,
                 "--out", str(tmp_path / "b")]) == 1


def test_data_study_writes_per_nd_reports(tmp_path):
    # nd = 1 (a single sample pair for the whole domain) must also run
    # to completion
    path = write_config(tmp_path, {
        "case": "case3",
        "formulation": "natural",
        "mesh": {"sizes": [5, 9, 13]},
        "nd_list": [1, 4],
    })
    out = tmp_path / "study"
    rc = main(["data-study", "--config", path, "--out", str(out)])
    assert rc == 0
    for nd in (1, 4):
        assert (out / f"report_nd{nd}.csv").exists()
        assert (out / f"report_nd{nd}.svg").exists()


def test_non_length_scale_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path, {"stabilization": {"ell_s": "global_h"},
                                   "mesh": {"sizes": [2]}})
    rc = main(["solve", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "stabilization: ell_s must be a LengthScale" in \
        capsys.readouterr().err


def test_coarse_fd_step_fails_verification(tmp_path):
    path = write_config(tmp_path, {"fd_step": 1e-2})
    rc = main(["verify", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 2


def test_deterministic_solves_are_byte_identical(tmp_path):
    path = write_config(tmp_path, {
        "case": "case3",
        "formulation": "eo_full",
        "mesh": {"sizes": [6]},
    })
    outputs = []
    for name in ("one", "two"):
        out = tmp_path / name
        rc = main(["solve", "--config", path, "--out", str(out)])
        assert rc == 0
        outputs.append((out / "field_u.csv").read_bytes()
                       + (out / "report.csv").read_bytes())
    assert outputs[0] == outputs[1]
