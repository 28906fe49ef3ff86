import dataclasses
import importlib
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chbfem import cli
from chbfem.cli import (CSV_HEADER, ConfigError, SimulationConfig,
                        config_from_dict, load_config, main, run_experiment,
                        write_metrics_csv, write_vtk)
from chbfem.linalg import LinearSolveFailure
from chbfem.mesh import build_unit_square_mesh
from chbfem.model import SCALE_LIMIT, MaterialParams
from chbfem.solvers import ChbSystem, SolverConfig

from conftest import random_state

ROOT = Path(__file__).resolve().parent.parent


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def small_config(**overrides):
    data = dict(n=4, num_steps=1, strategy="both", vtk_every=0)
    data.update(overrides)
    return config_from_dict(data)


def test_empty_config_gives_table_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path, {}))
    assert cfg.gamma == 5.0
    assert cfg.ell == 2.0e-2
    assert cfg.mobility == 1.0
    assert cfg.xi == 0.5
    assert cfg.phi_bar == 0.5
    assert cfg.M0 == 1.0 and cfg.M1 == 0.1
    assert cfg.kappa0 == 1.0 and cfg.kappa1 == 0.1
    assert cfg.alpha0 == 1.0 and cfg.alpha1 == 0.5
    assert cfg.tau == 1.0e-5
    assert cfg.tol == 1.0e-6
    assert cfg.max_iter == 100
    assert cfg.n == 65
    assert np.allclose(cfg.C0, [[100, 20, 0], [20, 100, 0], [0, 0, 100]])
    assert np.allclose(cfg.C1, [[1, 0.1, 0], [0.1, 1, 0], [0, 0, 1]])


def test_single_override(tmp_path):
    cfg = load_config(write_config(tmp_path, {"gamma": 0.5}))
    assert cfg.gamma == 0.5
    assert cfg.ell == 2.0e-2


def test_negative_tau_rejected_by_name(tmp_path):
    with pytest.raises(ConfigError, match="tau"):
        load_config(write_config(tmp_path, {"tau": -1}))


@pytest.mark.parametrize("data, message", [
    ({"tol": True}, "tol"),
    ({"max_iter": 2.5}, "max_iter"),
    ({"n": "4"}, "n must be"),
    ({"C0": [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
     "C0 must be positive definite"),
    ({"xi": float("nan")}, "xi must be a number"),
    ({"phi_bar": float("inf")}, "phi_bar must be a number"),
    ({"sweep": {"param": "xi", "values": [0.5, float("nan")]}},
     "sweep values must be"),
    ({"gamma": 10 ** 400}, "gamma must be a positive number"),
    ({"C1": [[float("inf"), 0.1, 0.0], [0.1, 1.0, 0.0], [0.0, 0.0, 1.0]]},
     "C1 must have finite entries"),
    ({"C0": [[True, 0, 0], [0, True, 0], [0, 0, True]]},
     "C0 must have finite entries, each a number"),
    ({"C1": [["100", "20", "0"], ["20", "100", "0"], ["0", "0", "100"]]},
     "C1 must have finite entries, each a number"),
    ({"gamma": True}, "gamma must be a positive number"),
    ({"M0": 200, "M1": 1e-20}, "M1 is lost in M0"),
    ({"kappa0": 200, "kappa1": 1e-20}, "kappa1 is lost in kappa0"),
    # beyond these scales a run overflows or divides zero by zero
    ({"ell": 1.57e-205}, r"ell must lie within \[1e-20, 1e\+20\]"),
    ({"M0": 1.57e-205}, r"M0 must lie within \[1e-20, 1e\+20\]"),
    ({"xi": -1e300}, r"xi must lie within \[-1e\+20, 1e\+20\]"),
    ({"C1": [[1e-300, 0, 0], [0, 1e-300, 0], [0, 0, 1e-300]]},
     "C1 must have eigenvalues within"),
    ({"out_dir": "a\0b"}, "out_dir must not contain a NUL character"),
    ({"out_dir": "\ud800"}, "out_dir must be encodable as a file name"),
], ids=["bool_tol", "fractional_max_iter", "string_n", "indefinite_C0",
        "nan_xi", "inf_phi_bar", "nan_sweep_value", "huge_int_gamma", "inf_C1",
        "bool_C0", "string_C1", "bool_gamma", "M1_lost_in_M0",
        "kappa1_lost_in_kappa0", "tiny_ell", "tiny_M0", "huge_xi", "tiny_C1",
        "nul_out_dir", "surrogate_out_dir"])
def test_invalid_field_rejected_by_name(tmp_path, data, message):
    path = write_config(tmp_path, data)
    with pytest.raises(ConfigError, match=message):
        load_config(path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--desk", "--out", str(out)]) == 1
    assert not out.exists()


def fail_if_run(config):
    pytest.fail("a simulation ran")


def assert_one_error_line(capsys, message):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]


@pytest.mark.parametrize("data, flags", [
    ({"out_dir": "a\0b"}, []),
    ({"out_dir": "\ud800"}, []),
    ({}, ["--out", "a\0b"]),
], ids=["nul_in_config", "surrogate_in_config", "nul_in_out_flag"])
def test_bad_out_dir_ends_before_any_run(tmp_path, monkeypatch, capsys,
                                         data, flags):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_experiment", fail_if_run)
    path = write_config(tmp_path, {"n": 2, "num_steps": 1, **data})
    assert main(["run", "--config", str(path), *flags]) == 1
    assert_one_error_line(capsys, "out_dir")
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_uncreatable_out_dir_ends_before_any_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_experiment", fail_if_run)
    (tmp_path / "file").touch()
    out = tmp_path / "file" / "out"
    path = write_config(tmp_path, {"n": 12, "num_steps": 3, "out_dir": str(out)})
    assert main(["run", "--config", str(path)]) == 1
    assert_one_error_line(capsys, str(out))


def test_config_is_checked_when_made():
    with pytest.raises(ConfigError, match="n must be"):
        SimulationConfig(n=0)
    with pytest.raises(ConfigError, match="vtk_every must be"):
        dataclasses.replace(config_from_dict({}), vtk_every=-1)


def test_desk_flag_is_the_benchmarks_desk_profile(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "chbbench"))
    desk = importlib.import_module("harness").WORKLOADS["desk"]
    assert (cli.DESK_N, cli.DESK_NUM_STEPS) == (desk.n, desk.steps)


def test_shared_fields_are_declared_once():
    params, defaults = config_from_dict({}).material_params(), MaterialParams()
    for f in dataclasses.fields(MaterialParams):
        got, want = getattr(params, f.name), getattr(defaults, f.name)
        assert np.array_equal(got, want) if f.name in ("C0", "C1") else got == want
    for strategy in ("monolithic", "splitting"):
        assert (config_from_dict({}).solver_config(strategy)
                == SolverConfig(strategy=strategy))


@pytest.mark.parametrize("cls, name, value", [
    (MaterialParams, "ell", 0.0),
    (MaterialParams, "alpha1", "0.5"),
    (SolverConfig, "max_iter", 0),
    (MaterialParams, "C1", [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
], ids=["positive_real", "real", "integer", "voigt"])
def test_shared_fields_are_checked_one_way(cls, name, value):
    with pytest.raises(ConfigError) as direct:
        cls(**{name: value})
    with pytest.raises(ConfigError) as configured:
        config_from_dict({name: value})
    reason = str(direct.value).split(": ", 1)[1]
    assert reason.startswith(f"{name} must be")
    assert reason == str(configured.value).split(": ", 1)[1]


def test_all_violations_listed(tmp_path):
    with pytest.raises(ConfigError) as exc_info:
        load_config(write_config(tmp_path, {"tau": -1, "gamma": 0, "n": 0}))
    msg = str(exc_info.value)
    assert "tau" in msg and "gamma" in msg and "n must be" in msg


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "gamma": 5,\n  oops\n}')
    with pytest.raises(ConfigError, match="line 3"):
        load_config(path)


def test_config_that_is_not_utf8_is_a_read_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_experiment", fail_if_run)
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"gamma": 5, "\xff": 1}')
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(path)
    assert main(["run", "--config", str(path)]) == 1
    assert_one_error_line(capsys, "cannot read config")


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(ConfigError, match="gama"):
        load_config(write_config(tmp_path, {"gama": 1.0}))


def test_sweep_validation(tmp_path):
    with pytest.raises(ConfigError, match="sweep param"):
        load_config(write_config(tmp_path, {"sweep": {"param": "tau"}}))
    with pytest.raises(ConfigError, match="positive"):
        load_config(write_config(tmp_path, {"sweep": {"param": "gamma",
                                                      "values": [1.0, -2.0]}}))
    # a misspelt key must not fall back to the default grid
    misspelt = {"sweep": {"param": "gamma", "valuse": [1, 2]}}
    with pytest.raises(ConfigError, match="sweep has unknown keys: valuse"):
        config_from_dict(misspelt)
    path, out = write_config(tmp_path, misspelt), tmp_path / "out"
    for flag in ("gamma", "xi"):
        assert main(["run", "--config", str(path), "--sweep", flag,
                     "--out", str(out)]) == 1
    assert not out.exists()


def test_config_round_trip(tmp_path):
    cfg = load_config(write_config(tmp_path, {"gamma": 2.5, "n": 8,
                                              "sweep": {"param": "xi",
                                                        "values": [0.5, 1.0]}}))
    again = config_from_dict(json.loads(json.dumps(dataclasses.asdict(cfg))))
    assert again == cfg
    # the values reach the fields the solver reads
    assert cfg.n == 8
    assert cfg.material_params().gamma == 2.5
    assert cfg.solver_config("monolithic") == SolverConfig(strategy="monolithic")
    assert cfg.sweep_plan() == ("xi", [0.5, 1.0])


# anything a JSON document can hold, and a few things it cannot
_ANY = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10 ** 400)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=10)
_NUMBER = st.integers(-3, 200) | st.floats(-1e3, 1e3)
_ENTRY = _NUMBER | st.booleans() | st.just(float("nan")) | st.text(max_size=3)
_FIELD_VALUES = {
    "max_iter": st.integers(-2, 200), "n": st.integers(-2, 200),
    "num_steps": st.integers(-2, 50), "vtk_every": st.integers(-2, 5),
    "strategy": st.sampled_from(["monolithic", "splitting", "both", "Both"]),
    "out_dir": st.text(max_size=8),
    "C0": st.one_of(
        st.floats(0.1, 1e3).map(lambda d: [[d, 0, 0], [0, d, 0], [0, 0, d]]),
        st.lists(st.lists(_ENTRY, min_size=3, max_size=3), min_size=3,
                 max_size=3),
        st.lists(st.lists(_ENTRY, max_size=4), max_size=4)),
    "sweep": st.fixed_dictionaries(
        {"param": st.sampled_from(["gamma", "xi", "tau"])},
        optional={"values": st.lists(_ENTRY, max_size=4)}),
}
_FIELD_VALUES["C1"] = _FIELD_VALUES["C0"]


def _field_value(name):
    return st.one_of(_FIELD_VALUES.get(name, _NUMBER), _ANY)


_CONFIGS = st.sets(st.sampled_from(sorted(SimulationConfig.__dataclass_fields__)),
                   max_size=5).flatmap(
    lambda names: st.fixed_dictionaries({k: _field_value(k) for k in names}))


@settings(max_examples=300, deadline=None)
@given(_CONFIGS)
def test_config_fuzz_builds_parameters_or_names_a_key(data):
    try:
        cfg = config_from_dict(data)
    except ConfigError as exc:
        # the defaults are valid, so an error must name one of the given keys
        named = [k for k in data if re.search(rf"\b{k}\b", str(exc))]
        assert named, (data, str(exc))
        return
    cfg.material_params()
    param, values = cfg.sweep_plan()
    for value in values if param != "none" else ():
        cfg.material_params(**{param: value})
    for strategy in ("monolithic", "splitting"):
        cfg.solver_config(strategy)


# values the schema accepts, field by field; a paired field is drawn
# after the field it is interpolated from (_accepted_configs)
_POSITIVE = st.integers(1, 200) | st.floats(1 / SCALE_LIMIT, SCALE_LIMIT)
_REAL = st.integers(-3, 200) | st.floats(-SCALE_LIMIT, SCALE_LIMIT)
_ACCEPTED = {
    **dict.fromkeys(["gamma", "ell", "mobility", "M0", "kappa0", "tau", "tol"],
                    _POSITIVE),
    **dict.fromkeys(["xi", "phi_bar", "alpha0", "alpha1"], _REAL),
    **dict.fromkeys(["C0", "C1"], st.floats(0.1, 1e3).map(
        lambda d: [[d, 0, 0], [0, d, 0], [0, 0, d]])),
    "max_iter": st.integers(1, 200), "n": st.integers(1, 200),
    "num_steps": st.integers(0, 50), "vtk_every": st.integers(0, 5),
    "strategy": st.sampled_from(["monolithic", "splitting", "both"]),
    "out_dir": st.text(st.characters(exclude_characters="\0"), max_size=8),
}
_ACCEPTED["sweep"] = st.none() | st.sampled_from(["gamma", "xi"]).flatmap(
    lambda param: st.fixed_dictionaries(
        {"param": st.just(param)},
        optional={"values": st.lists(_ACCEPTED[param], min_size=1, max_size=4)}))
_PAIRS = (("M0", "M1"), ("kappa0", "kappa1"))


@st.composite
def _accepted_configs(draw):
    """Up to five fields, each with a value the schema accepts."""
    names = draw(st.sets(st.sampled_from(sorted(SimulationConfig.__dataclass_fields__)),
                         max_size=5))
    paired = {name for pair in _PAIRS for name in pair}
    data = {k: draw(_ACCEPTED[k]) for k in sorted(names - paired)}
    # z1 of at least 1e-7 z0 survives z0 + (z1 - z0) to 1e-8 relative
    for z0, z1 in _PAIRS:
        if z0 in names:
            high = (SCALE_LIMIT if z1 in names
                    else 1e7 * getattr(MaterialParams, z1))
            data[z0] = draw(st.integers(1, 200)
                            | st.floats(1 / SCALE_LIMIT, high))
        if z1 in names:
            low = 1e-7 * data.get(z0, getattr(MaterialParams, z0))
            data[z1] = draw(st.floats(max(low, 1 / SCALE_LIMIT), SCALE_LIMIT))
    return data


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(_accepted_configs())
@example({"ell": 1e-20, "gamma": 1e20, "xi": -1e20, "tau": 1e20,
          "C0": [[1e20, 0, 0], [0, 1e20, 0], [0, 0, 1e20]]})   # overflows a residual norm
def test_accepted_configs_run_one_step(tmp_path_factory, data):
    cfg = dataclasses.replace(config_from_dict(data), n=4, num_steps=1,
                              vtk_every=0,
                              out_dir=str(tmp_path_factory.mktemp("run")))
    records = run_experiment(cfg)
    _, values = cfg.sweep_plan()
    assert len(records) == len(values) * (2 if cfg.strategy == "both" else 1)


def test_default_sweep_grids():
    cfg = config_from_dict({"sweep": {"param": "gamma"}})
    assert cfg.sweep_plan() == ("gamma", [0.1, 0.5, 1.0, 5.0, 10.0, 25.0])
    cfg = config_from_dict({"sweep": {"param": "xi"}})
    assert cfg.sweep_plan() == ("xi", [0.25, 0.5, 1.0, 1.5, 2.0])
    assert config_from_dict({}).sweep_plan() == ("none", [None])


def test_material_params_from_config():
    cfg = small_config(gamma=3.0)
    pa = cfg.material_params()
    assert isinstance(pa, MaterialParams)
    assert pa.gamma == 3.0
    assert cfg.material_params(gamma=9.0).gamma == 9.0
    assert cfg.material_params(xi=2.0).xi == 2.0


def test_run_experiment_row_counts_and_order():
    cfg = small_config(sweep={"param": "gamma", "values": [1.0, 5.0, 25.0]})
    records = run_experiment(cfg)
    assert len(records) == 6
    assert [r.param_value for r in records] == [1.0, 1.0, 5.0, 5.0, 25.0, 25.0]
    assert [r.strategy for r in records] == ["monolithic", "splitting"] * 3
    assert all(r.param_name == "gamma" for r in records)


def test_baseline_run_converges_both_strategies():
    records = run_experiment(small_config(num_steps=2))
    assert len(records) == 2
    assert all(r.converged for r in records)
    assert all(r.param_name == "none" for r in records)
    split = next(r for r in records if r.strategy == "splitting")
    mono = next(r for r in records if r.strategy == "monolithic")
    assert split.outer_iters > 0
    assert mono.outer_iters == 0
    assert mono.inner_newton_iters > 0


def test_failed_runs_are_recorded_rows_not_crashes():
    cfg = small_config(max_iter=1, num_steps=1,
                       sweep={"param": "xi", "values": [0.5, 2.0]},
                       strategy="splitting")
    records = run_experiment(cfg)
    assert len(records) == 2
    assert all(not r.converged for r in records)
    assert all(not r.solver_fault for r in records)
    assert all(r.inner_newton_iters >= 1 for r in records)
    assert all(r.wall_seconds > 0.0 for r in records)


def test_metrics_csv_schema(tmp_path):
    records = run_experiment(small_config(num_steps=1, strategy="splitting"))
    path = tmp_path / "metrics.csv"
    write_metrics_csv(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "none"
    assert fields[2] == "splitting"
    assert fields[3] == "true"
    int(fields[4]), int(fields[5]), float(fields[6])


def test_metrics_csv_failed_row(tmp_path):
    records = run_experiment(small_config(num_steps=1, strategy="monolithic",
                                          max_iter=1))
    path = tmp_path / "m.csv"
    write_metrics_csv(records, path)
    row = path.read_text().splitlines()[1].split(",")
    assert row[3] == "false"
    assert int(row[5]) == 1  # iterations consumed before the abort
    assert float(row[6]) > 0.0


def test_metrics_csv_deterministic_apart_from_wall_time(tmp_path):
    cfg = small_config(num_steps=1, strategy="splitting",
                       sweep={"param": "gamma", "values": [1.0, 5.0]})
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_metrics_csv(run_experiment(cfg), a)
    write_metrics_csv(run_experiment(cfg), b)

    def strip_wall(text):
        return [line.rsplit(",", 1)[0] for line in text.splitlines()]

    assert strip_wall(a.read_text()) == strip_wall(b.read_text())


def test_write_metrics_requires_records(tmp_path):
    with pytest.raises(ValueError):
        write_metrics_csv([], tmp_path / "x.csv")


def parse_vtk(path):
    """Minimal legacy-VTK reader for the writer's output."""
    tokens = path.read_text().splitlines()
    data = {"points": [], "cells": [], "point_data": {}, "cell_data": {}}
    i = 0
    section = None
    target = None
    while i < len(tokens):
        line = tokens[i]
        if line.startswith("POINTS"):
            count = int(line.split()[1])
            for j in range(count):
                data["points"].append([float(v) for v in tokens[i + 1 + j].split()])
            i += count
        elif line.startswith("CELLS"):
            count = int(line.split()[1])
            for j in range(count):
                data["cells"].append([int(v) for v in tokens[i + 1 + j].split()[1:]])
            i += count
        elif line.startswith("POINT_DATA"):
            section = "point_data"
        elif line.startswith("CELL_DATA"):
            section = "cell_data"
        elif line.startswith("SCALARS"):
            name = line.split()[1]
            count = len(data["points"]) if section == "point_data" else len(data["cells"])
            vals = [float(tokens[i + 2 + j]) for j in range(count)]
            data[section][name] = np.array(vals)
            i += count + 1
        elif line.startswith("VECTORS"):
            name = line.split()[1]
            count = len(data["points"]) if section == "point_data" else len(data["cells"])
            vals = [[float(v) for v in tokens[i + 1 + j].split()] for j in range(count)]
            data[section][name] = np.array(vals)
            i += count
        i += 1
    return data


def test_vtk_round_trip(tmp_path):
    mesh = build_unit_square_mesh(4)
    system = ChbSystem(mesh, MaterialParams())
    state = system.initial_state()
    rng = np.random.default_rng(8)
    state.mu = rng.normal(size=system.nv)
    state.u = rng.normal(size=2 * system.nv)
    state.q = rng.normal(size=system.ne)
    path = tmp_path / "state.vtk"
    write_vtk(state, mesh, path)

    data = parse_vtk(path)
    assert np.allclose(np.array(data["points"])[:, :2], mesh.vertices, atol=1e-9)
    assert np.array_equal(np.array(data["cells"]), mesh.cells)
    # initial phi is the 0/1 half-domain step, p is identically zero
    assert np.allclose(data["point_data"]["phi"], state.phi, atol=1e-9)
    assert set(np.unique(data["point_data"]["phi"])) == {0.0, 1.0}
    assert np.allclose(data["cell_data"]["p"], 0.0)
    assert np.allclose(data["point_data"]["mu"], state.mu, atol=1e-9)
    u = np.column_stack([state.u[0::2], state.u[1::2]])
    assert np.allclose(data["point_data"]["u"][:, :2], u, atol=1e-9)
    assert data["cell_data"]["q"].shape == (mesh.num_cells, 3)


def test_vtk_flux_vectors_at_centroids(tmp_path):
    # a constant flux field is reproduced exactly at the centroids
    mesh = build_unit_square_mesh(3)
    system = ChbSystem(mesh, MaterialParams())
    state = system.initial_state()
    from reference_fem import interpolate, rt0_space
    state.q = interpolate(rt0_space(mesh), lambda x, y: np.array([1.5, -0.5])).coefficients
    path = tmp_path / "flux.vtk"
    write_vtk(state, mesh, path)
    data = parse_vtk(path)
    assert np.allclose(data["cell_data"]["q"][:, :2], [1.5, -0.5], atol=1e-9)


def per_value_vtk(state, mesh):
    """The VTK text written one f-string per value, as the writer once did."""
    from chbfem.fem import rt0_basis
    nv, nc = mesh.num_vertices, mesh.num_cells
    psi_c = rt0_basis(mesh, np.full((1, 3), 1.0 / 3.0))[:, 0]
    qc = np.einsum("ck,cka->ca", state.q[mesh.cell_edges], psi_c)
    lines = ["# vtk DataFile Version 3.0", f"chbfem fields at step {state.n}",
             "ASCII", "DATASET UNSTRUCTURED_GRID", f"POINTS {nv} double"]
    lines += [f"{x:.10e} {y:.10e} 0.0" for x, y in mesh.vertices]
    lines.append(f"CELLS {nc} {4 * nc}")
    lines += [f"3 {a} {b} {c}" for a, b, c in mesh.cells]
    lines.append(f"CELL_TYPES {nc}")
    lines += ["5"] * nc
    lines.append(f"POINT_DATA {nv}")
    for name, values in (("phi", state.phi), ("mu", state.mu)):
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines += [f"{v:.10e}" for v in values]
    lines.append("VECTORS u double")
    lines += [f"{ux:.10e} {uy:.10e} 0.0"
              for ux, uy in zip(state.u[0::2], state.u[1::2])]
    lines.append(f"CELL_DATA {nc}")
    lines.append("SCALARS p double 1")
    lines.append("LOOKUP_TABLE default")
    lines += [f"{v:.10e}" for v in state.p]
    lines.append("VECTORS q double")
    lines += [f"{qx:.10e} {qy:.10e} 0.0" for qx, qy in qc]
    return "\n".join(lines) + "\n"


def test_vtk_bytes_match_per_value_formatting(tmp_path):
    mesh = build_unit_square_mesh(3)
    system = ChbSystem(mesh, MaterialParams())
    rng = np.random.default_rng(12)
    state = random_state(system, rng, n=7)
    # magnitudes across the exponent range, signed zeros and non-finite values
    state.mu = rng.normal(size=system.nv) * 10.0 ** rng.integers(-300, 300, system.nv)
    state.mu[:4] = [0.0, -0.0, np.inf, np.nan]
    state.p[0] = -np.inf
    path = tmp_path / "state.vtk"
    write_vtk(state, mesh, path)
    assert path.read_bytes() == per_value_vtk(state, mesh).encode()


def test_main_runs_and_writes_outputs(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"n": 4, "num_steps": 1, "vtk_every": 1})
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg_path), "--strategy", "splitting",
                 "--out", str(out)])
    assert code == 0
    assert (out / "metrics.csv").exists()
    assert (out / "base_splitting" / "state_0000.vtk").exists()
    assert (out / "base_splitting" / "state_0001.vtk").exists()
    assert "metrics written" in capsys.readouterr().out


def test_main_desk_flag_applies_profile(tmp_path, monkeypatch):
    seen = {}

    def fake_run(config):
        seen["n"] = config.n
        seen["steps"] = config.num_steps
        return [cli.RunRecord("none", 0.0, "splitting", True, 1, 1, 0.0)]

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    cfg_path = write_config(tmp_path, {})
    code = main(["run", "--config", str(cfg_path), "--desk",
                 "--out", str(tmp_path / "o")])
    assert code == 0
    assert seen == {"n": 16, "steps": 20}


def test_main_sweep_flag(tmp_path, monkeypatch):
    seen = {}

    def fake_run(config):
        seen["plan"] = config.sweep_plan()
        return [cli.RunRecord("xi", 0.5, "splitting", True, 1, 1, 0.0)]

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    cfg_path = write_config(tmp_path, {})
    assert main(["run", "--config", str(cfg_path), "--sweep", "xi",
                 "--out", str(tmp_path / "o")]) == 0
    assert seen["plan"] == ("xi", [0.25, 0.5, 1.0, 1.5, 2.0])


@pytest.mark.parametrize("sweep, flag, plan", [
    ({"param": "xi"}, "xi", ("xi", [0.25, 0.5, 1.0, 1.5, 2.0])),
    ({"param": "xi", "values": [1.0, 2.0]}, "xi", ("xi", [1.0, 2.0])),
    ({"param": "xi", "values": [1.0, 2.0]}, "gamma",
     ("gamma", [0.1, 0.5, 1.0, 5.0, 10.0, 25.0])),
], ids=["default_grid", "configured_grid", "other_param"])
def test_main_sweep_flag_keeps_a_configured_grid(tmp_path, monkeypatch,
                                                 sweep, flag, plan):
    seen = {}

    def fake_run(config):
        seen["plan"] = config.sweep_plan()
        return [cli.RunRecord(flag, 1.0, "splitting", True, 1, 1, 0.0)]

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    cfg_path = write_config(tmp_path, {"sweep": sweep})
    assert main(["run", "--config", str(cfg_path), "--sweep", flag,
                 "--out", str(tmp_path / "o")]) == 0
    assert seen["plan"] == plan


def test_main_config_error_exit_code(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_main_solver_fault_exit_code(tmp_path, monkeypatch):
    def boom(self, phase, u, q_start, storage_prev):
        raise LinearSolveFailure("synthetic breakdown")

    monkeypatch.setattr(ChbSystem, "solve_flow", boom)
    cfg_path = write_config(tmp_path, {"n": 4, "num_steps": 1,
                                       "strategy": "splitting"})
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 2
    lines = (tmp_path / "o" / "metrics.csv").read_text().splitlines()
    assert len(lines) == 2 and ",false," in lines[1]
