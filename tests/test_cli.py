import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradflux import manufactured, mesh as gradflux_mesh, study
from gradflux.cli import ConfigError, RunConfig, main
from gradflux.forms import FORMULATION_KINDS, StabilizationParams


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


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
    # a repeated resolution would solve twice and overwrite its report:
    # rejected before anything is solved or written
    path = write_config(tmp_path, {"case": "case3", "nd_list": [4, 4]},
                        name="c3.json")
    assert main(["data-study", "--config", path,
                 "--out", str(tmp_path / "c")]) == 1
    assert not (tmp_path / "c").exists()


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
    assert "stabilization.ell_s: unknown key; expected alpha, gamma, eta, " \
        "theta or beta" in capsys.readouterr().err


@pytest.mark.parametrize("payload, message", [
    ({"stabilization": {"theta": True}},
     "stabilization.theta: expected a number, got True"),
    ({"stabilization": {"alpha": "0.1"}},
     "stabilization.alpha: expected a number, got '0.1'"),
    ({"stabilization": {"beta": None}},
     "stabilization.beta: expected a number, got None"),
    ({"output": 5}, "output: expected a directory name, got 5"),
    ({"output": ""}, "output: expected a directory name, got ''"),
    ({"mesh": {"sizes": []}}, "mesh.sizes: expected at least one size"),
    ({"kappa": 10 ** 400}, "kappa: expected a finite number, got 1000"),
    ({"mesh": {"sizes": [8, 4, 16]}},
     "mesh.sizes: must be strictly increasing (coarse to fine), "
     "got [8, 4, 16]"),
    ({"mesh": {"sizes": [4, 4, 8]}},
     "mesh.sizes: must be strictly increasing (coarse to fine), "
     "got [4, 4, 8]"),
    ({"mesh": {"sizes": [2], "grading": 2.0}},
     "mesh.grading: only case2 takes it, got it for case1"),
    ({"case": {"name": "case3", "nd": 4}, "mesh": {"grading": 1}},
     "mesh.grading: only case2 takes it, got it for case3"),
    ({"case": "case1", "mesh": {"grading": 0.2}},
     "mesh.grading: must be >= 1, got 0.2"),
    ({"stabilization": {"alpha": 0.1}},
     "stabilization: only the equal-order formulations take it, got it for "
     "natural"),
    ({"formulation": "natural", "stabilization": {}},
     "stabilization: only the equal-order formulations take it, got it for "
     "natural"),
    ({"stabilization": {"gamma": 1.0}},
     "stabilization: gamma must be < 1, got 1.0"),
    ({"case": "case3", "nd_list": [4, 4]},
     "nd_list: entries must be distinct, got [4, 4]"),
    ({"nd_list": [8, 2, 8]},
     "nd_list: entries must be distinct, got [8, 2, 8]"),
])
def test_values_of_the_wrong_kind_exit_1_naming_the_field(tmp_path, capsys,
                                                          payload, message):
    path = write_config(tmp_path, payload)
    rc = main(["solve", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_output_that_cannot_be_a_directory_is_a_config_error(tmp_path,
                                                             capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    path = write_config(tmp_path, {"output": str(taken)})
    assert main(["solve", "--config", path]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: output: cannot create directory {str(taken)!r}")
    assert main(["solve", "--config", path, "--out", str(taken)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: --out: cannot create directory {str(taken)!r}")


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_a_config_that_cannot_be_read_exits_1_naming_the_option(
        tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "folder").mkdir()
    (tmp_path / "utf16.json").write_bytes("{}".encode("utf-16"))
    for path, reason in (("nope.json", "No such file or directory"),
                         ("folder", "Is a directory"),
                         ("", "No such file or directory"),
                         ("utf16.json", "not UTF-8 text")):
        assert main([command, "--config", path, "--out", "o"]) == 1
        assert capsys.readouterr().err == \
            f"error: --config: cannot read {path!r} ({reason})\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["folder",
                                                          "utf16.json"]


def test_an_empty_out_exits_1_naming_the_option(tmp_path, monkeypatch,
                                                capsys):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, {"mesh": {"sizes": [2]},
                                   "output": "from-config"})
    assert main(["solve", "--config", path, "--out", ""]) == 1
    assert capsys.readouterr().err == \
        "error: --out: expected a directory name, got ''\n"
    assert not (tmp_path / "from-config").exists()


def test_coarse_fd_step_fails_verification(tmp_path, monkeypatch):
    # verify's step is fixed; a coarse one must still fail the check
    strong = manufactured.verify_strong_system
    monkeypatch.setattr(manufactured, "verify_strong_system",
                        lambda case, n_samples: strong(case, n_samples,
                                                       fd_step=1e-2))
    rc = main(["verify", "--out", str(tmp_path / "o")])
    assert rc == 2


def test_verify_makes_no_output_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["verify"]) == 0
    assert main(["verify", "--out", "elsewhere"]) == 0
    assert list(tmp_path.iterdir()) == []


def test_nan_grading_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path, {"case": {"name": "case2"},
                                   "mesh": {"sizes": [2],
                                            "grading": float("nan")}})
    rc = main(["solve", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "mesh.grading: must be >= 1, got nan" in capsys.readouterr().err


@pytest.mark.parametrize("case, builder", [
    ("case1", "unit_square_mesh"),
    ("case2", "sector_mesh"),
])
def test_solve_builds_only_the_mesh_it_solves(tmp_path, monkeypatch, case,
                                              builder):
    built = []
    build = getattr(gradflux_mesh, builder)

    def recording(*args, **kwargs):
        built.append(args[-1])        # the size: n, or (phi, n)
        return build(*args, **kwargs)

    monkeypatch.setattr(study, builder, recording)
    path = write_config(tmp_path, {"case": case, "mesh": {"sizes": [2, 4, 8]}})
    assert main(["solve", "--config", path, "--out", str(tmp_path / "o")]) \
        == 0
    assert built == [2]


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


def test_solve_prints_the_unknowns_solved(tmp_path, capsys):
    path = write_config(tmp_path, {"formulation": "natural", "k": 1,
                                   "mesh": {"sizes": [2]}})
    rc = main(["solve", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 0
    # u and lambda are solved; e, s and mu, 18 dofs on each of the 8
    # elements, are recovered from them
    assert "dofs=194 solved=50" in capsys.readouterr().out


def test_a_non_finite_recovered_field_exits_2(tmp_path, monkeypatch,
                                             capsys):
    assemble_natural = study.assemble_natural

    def broken(*args):
        system, fields = assemble_natural(*args)

        def non_finite(x):
            out = fields(x)
            out["mu"] = out["mu"] * np.inf        # 0 * inf is NaN too
            return out
        return system, non_finite

    monkeypatch.setattr(study, "assemble_natural", broken)
    path = write_config(tmp_path, {"mesh": {"sizes": [2]}})
    rc = main(["solve", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == \
        "numerical failure: recovered field mu is not finite\n"


@pytest.mark.parametrize("payload, message", [
    ({"zeta": float("nan")}, "zeta: must be a finite number >= 0, got nan"),
    ({"zeta": float("inf")}, "zeta: must be a finite number >= 0, got inf"),
    ({"kappa": float("inf")},
     "kappa: must be a positive finite number, got inf"),
] + [({"formulation": "eo_min", "stabilization": {name: float("nan")}},
      f"stabilization: {name} must be a finite number >= 0, got nan")
     for name in ("alpha", "gamma", "eta", "theta", "beta")])
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, payload,
                                              message):
    path = write_config(tmp_path, {**payload, "mesh": {"sizes": [2]}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["solve", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("payload, message", [
    ({"k": 1.5}, "k: expected an integer, got 1.5"),
    ({"mesh": {"sizes": [2.7]}}, "mesh.sizes: expected an integer, got 2.7"),
    ({"mesh": {"sizes": 4}}, "mesh.sizes: expected a list of integers, "
                             "got 4"),
    ({"case": {"name": "case3", "nd": 0.5}},
     "case.nd: expected an integer, got 0.5"),
    ({"nd_list": [4, 2.5]}, "nd_list: expected an integer, got 2.5"),
    ({"case": {"name": "case2", "phi": "1"}},
     "case.phi: expected a number, got '1'"),
    ({"mesh": {"grading": True}}, "mesh.grading: expected a number, got True"),
    ({"zeta": None}, "zeta: expected a number, got None"),
    ({"k": True}, "k: expected a number, got True"),
    ({"kappa": "2"}, "kappa: expected a number, got '2'"),
])
def test_numbers_of_the_wrong_kind_are_config_errors(payload, message):
    with pytest.raises(ConfigError) as err:
        RunConfig(payload)
    assert message in str(err.value)


@pytest.mark.parametrize("payload, message", [
    ({"mesh": 3}, "mesh: expected a JSON object, got 3"),
    ({"case": 5}, "case: expected a JSON object, got 5"),
    ({"stabilization": [0.1]},
     "stabilization: expected a JSON object, got [0.1]"),
])
def test_sections_that_are_not_objects_are_config_errors(tmp_path, capsys,
                                                         payload, message):
    path = write_config(tmp_path, payload)
    rc = main(["solve", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


EXPECTED_KEYS = ("unknown key; expected case, formulation, k, mesh, kappa, "
                 "zeta, stabilization, nd_list or output")


@pytest.mark.parametrize("payload, message", [
    ({"formulaton": "eo_full"},
     f"formulaton: {EXPECTED_KEYS}"),
    ({"case": {"name": "case1", "ndd": 3}},
     "case.ndd: unknown key; expected name, phi or nd"),
    ({"mesh": {"sizes": [2], "size": 4}},
     "mesh.size: unknown key; expected sizes or grading"),
    # keys that verify and the quadrature rule no longer read
    ({"quad_exactness": 5}, f"quad_exactness: {EXPECTED_KEYS}"),
    ({"seed": 1}, f"seed: {EXPECTED_KEYS}"),
    ({"fd_step": 1e-5}, f"fd_step: {EXPECTED_KEYS}"),
])
def test_unknown_keys_exit_1_naming_the_key(tmp_path, capsys, payload,
                                            message):
    path = write_config(tmp_path, {"mesh": {"sizes": [2]}, **payload})
    rc = main(["solve", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exit_1_naming_the_option(tmp_path, capsys,
                                                    threads):
    path = write_config(tmp_path, {"mesh": {"sizes": [2]}})
    out = tmp_path / "o"
    rc = main(["solve", "--config", path, "--out", str(out),
               "--threads", threads])
    assert rc == 1
    assert capsys.readouterr().err == \
        f"error: --threads: must be >= 1, got {threads}\n"
    assert not out.exists()


def test_integral_floats_are_accepted():
    config = RunConfig({"k": 2.0, "mesh": {"sizes": [4.0]},
                        "nd_list": [2.0]})
    assert (config.k, config.sizes, config.nd_list) == (2, [4], [2])
    assert isinstance(config.k, int)


# ----------------------------------------------------------------------
# any JSON value under any known key either passes validation with fields
# of their documented type and range, or raises ConfigError


JSON_LEAVES = (st.none() | st.booleans() | st.integers()
               | st.just(10 ** 400) | st.floats() | st.text(max_size=4))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=3)),
    max_leaves=6)
CASES = ("case1", "case2", "case3")
COEFFICIENTS = ("alpha", "gamma", "eta", "theta", "beta")


def section(required=(), **optional):
    return st.fixed_dictionaries(dict(required), optional=optional)


# Configs of the documented shape, mostly valid.
SHAPED = section(
    case=st.sampled_from(CASES)
    | section([("name", st.sampled_from(CASES))],
              phi=st.floats(0.1, 3.0), nd=st.integers(1, 70))
    | section([("name", st.just("case2"))], phi=st.floats(0.1, 3.0))
    | section([("name", st.just("case3"))], nd=st.integers(1, 70)),
    formulation=st.sampled_from(FORMULATION_KINDS),
    k=st.integers(0, 2),
    mesh=section(sizes=st.lists(st.integers(1, 40), max_size=4,
                                unique=True).map(sorted)
                 | st.lists(st.integers(1, 40), max_size=4),
                 grading=st.floats(1.0, 3.0)),
    kappa=st.floats(0.1, 3.0),
    zeta=st.floats(0.0, 3.0),
    stabilization=st.dictionaries(st.sampled_from(COEFFICIENTS),
                                  st.floats(0.0, 0.2), max_size=3),
    nd_list=st.lists(st.integers(1, 70), max_size=3, unique=True)
    | st.lists(st.integers(1, 70), max_size=3),
    output=st.text(min_size=1, max_size=8),
)
KEYS = ("case", "formulation", "k", "mesh", "kappa", "zeta",
        "stabilization", "nd_list", "output")
SECTIONS = {"case": ("name", "phi", "nd"), "mesh": ("sizes", "grading"),
            "stabilization": COEFFICIENTS}
SUBKEYS = {**SECTIONS, "stabilization": COEFFICIENTS + ("ell_s",)}
# misspelt keys, removed keys, and anything else that is no key of its
# section
UNKNOWN_KEYS = (st.sampled_from(("formulaton", "ndd", "size", "Kappa",
                                 "quad_exactness", "seed", "fd_step"))
                | st.text(max_size=4))
# the case a case-section key belongs to
OWNERS = {"phi": "case2", "nd": "case3"}
# every key that only one case takes, by section
ONE_CASE_KEYS = (("case", "phi", "case2"), ("case", "nd", "case3"),
                 ("mesh", "grading", "case2"))


@st.composite
def configs(draw):
    """A shaped config with at most one entry, a key, a section's key or
    a list item, replaced by an arbitrary JSON value, and at most one
    key drawn into the top level, ``case`` or ``mesh``, which may be
    unknown there.  Half of the configs also get ``phi`` or ``nd`` in
    their case section, which may belong to another case."""
    raw = draw(SHAPED)
    if draw(st.booleans()):
        case = raw.setdefault("case", {"name": draw(st.sampled_from(CASES))})
        if isinstance(case, dict):
            case[draw(st.sampled_from(sorted(OWNERS)))] = draw(
                st.floats(0.1, 3.0) | st.integers(1, 70))
    sections = [None, raw] + [raw[name] for name in ("case", "mesh")
                              if isinstance(raw.get(name), dict)]
    target = draw(st.sampled_from(sections))
    if target is not None:
        target[draw(UNKNOWN_KEYS)] = draw(JSON_LEAVES)
    spots = [None] + [(raw, key) for key in KEYS]
    for name, keys in SUBKEYS.items():
        if isinstance(raw.get(name), dict):
            spots += [(raw[name], key) for key in keys]
    for items in (raw.get("mesh", {}).get("sizes"), raw.get("nd_list")):
        spots += [(items, i) for i in range(len(items or ()))]
    spot = draw(st.sampled_from(spots))
    if spot is not None:
        container, key = spot
        container[key] = draw(JSON_LEAVES | JSON_VALUES)
    return raw


def finite_float(value):
    return type(value) is float and math.isfinite(value)


def exact_int(value):
    return type(value) is int


def assert_documented_fields(config):
    assert config.case_name in CASES
    assert type(config.phi) is float
    if config.case_name == "case2":
        assert 0.0 < config.phi < math.pi
    assert config.nd is None or (exact_int(config.nd) and config.nd >= 1
                                 and config.case_name == "case3")
    assert config.kind in FORMULATION_KINDS
    assert exact_int(config.k) and config.k in (0, 1, 2)
    assert config.k == 0 or config.case_name == "case1"
    assert isinstance(config.sizes, list) and config.sizes
    assert all(exact_int(n) and n >= 1 for n in config.sizes)
    assert all(a < b for a, b in zip(config.sizes, config.sizes[1:]))
    assert finite_float(config.grading) and config.grading >= 1.0
    assert finite_float(config.kappa) and config.kappa > 0.0
    assert finite_float(config.zeta) and config.zeta >= 0.0
    if config.stabilization is not None:
        st_ = config.stabilization
        assert type(st_) is StabilizationParams
        assert all(finite_float(getattr(st_, name)) and getattr(st_, name)
                   >= 0.0 for name in COEFFICIENTS)
        assert st_.alpha <= 0.25 and st_.gamma < 1.0 and st_.eta < 1.0
    assert config.stabilization is None or config.kind != "natural"
    assert isinstance(config.nd_list, list)
    assert all(exact_int(nd) and nd >= 1 for nd in config.nd_list)
    assert len(set(config.nd_list)) == len(config.nd_list)
    assert type(config.output) is str and config.output


def unknown_keys(raw):
    """Names of the keys of ``raw`` and of its sections that RunConfig
    does not define, in the order RunConfig reads them."""
    if not isinstance(raw, dict):
        return []
    names = [key for key in raw if key not in KEYS]
    for name, keys in SECTIONS.items():
        if isinstance(raw.get(name), dict):
            names += [f"{name}.{key}" for key in raw[name] if key not in keys]
    return names


def case_name(raw):
    """The case a config names, as RunConfig reads it."""
    case = raw.get("case", "case1")
    return case.get("name") if isinstance(case, dict) else case


def misplaced_keys(raw):
    """Names of the ``case`` and ``mesh`` keys that belong to another case
    than the one the config names, then ``stabilization`` if it is given
    for natural, in the order RunConfig reads them."""
    if not isinstance(raw, dict):
        return []
    names = [f"{section}.{key}" for section, key, owner in ONE_CASE_KEYS
             if isinstance(raw.get(section), dict) and key in raw[section]
             and case_name(raw) != owner]
    if raw.get("stabilization") is not None and \
            raw.get("formulation", "natural") == "natural":
        names.append("stabilization")
    return names


def without(raw, names):
    """``raw`` without the keys ``names``, top-level or section keys."""
    raw = dict(raw)
    for name in names:
        section, _, key = name.partition(".")
        if not key:
            del raw[section]
            continue
        raw[section] = {k: v for k, v in raw[section].items() if k != key}
    return raw


def known_only(raw):
    """``raw`` without the keys ``unknown_keys`` names."""
    raw = {key: value for key, value in raw.items() if key in KEYS}
    for name, keys in SECTIONS.items():
        if isinstance(raw.get(name), dict):
            raw[name] = {key: value for key, value in raw[name].items()
                         if key in keys}
    return raw


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.one_of(configs(), configs(), JSON_VALUES))
def test_any_json_config_is_valid_or_a_config_error(raw):
    unknown = unknown_keys(raw)
    misplaced = misplaced_keys(raw)
    try:
        config = RunConfig(raw)
    except ConfigError as err:
        if unknown:
            try:
                RunConfig(known_only(raw))
            except ConfigError:
                return
            # the unknown key is the config's only fault: it is named
            assert str(err).startswith(f"{unknown[0]}: unknown key")
        elif misplaced and case_name(raw) in CASES:
            try:
                RunConfig(without(raw, misplaced))
            except ConfigError:
                return
            # a key of another case, or stabilization for natural, is the
            # config's only fault: it is named, or one of its own keys is
            assert str(err).startswith((f"{misplaced[0]}: ",
                                        f"{misplaced[0]}."))
        return
    assert not unknown and not misplaced
    assert_documented_fields(config)


@pytest.mark.parametrize("payload, coefficients", [
    ({"formulation": "natural", "kappa": 1e-310}, "kappa=1e-310, zeta=1"),
    ({"formulation": "eo_full", "kappa": 1e-310}, "kappa=1e-310, zeta=1"),
    ({"formulation": "eo_full", "zeta": 1e200}, "kappa=1, zeta=1e+200"),
], ids=["natural-kappa", "eo_full-kappa", "eo_full-zeta"])
def test_an_assembly_that_overflows_float64_is_a_numerical_failure(
        tmp_path, capsys, payload, coefficients):
    # kappa and zeta are in range, but 1 / kappa or zeta**2 is not
    path = write_config(tmp_path, {"case": "case1", "mesh": {"sizes": [4]},
                                   **payload})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = main(["solve", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "numerical failure: assembled system has a non-finite entry "
        f"(float64 overflow; {coefficients})\n")
