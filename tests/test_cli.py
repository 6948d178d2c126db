"""Configuration files, CSV interchange, CLI commands and exit codes."""

import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qobserver import (
    CONDITION_TOL,
    PlantConditionError,
    QuantumLinearSystem,
    check_plant_conditions,
    decompose_plant,
    propagate,
    synthesize_observer,
)
from qobserver.cli import (
    RunReport,
    cmd_analyze,
    cmd_demo,
    main,
    write_matrices_csv,
    write_trajectory_csv,
)
from qobserver.config import (
    ConfigError,
    PlantConfig,
    build_plant,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from qobserver.demo import sixmode_config
from qobserver.synthesis import EQ_CONSISTENCY_TOL

from conftest import random_valid_plant


def read_trajectory_csv(path):
    """Inverse of ``write_trajectory_csv``; returns (times, flat_coeffs, header)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1:], header


def read_matrices_csv(path) -> dict:
    """Inverse of ``write_matrices_csv``; each cell must appear exactly once."""
    entries: dict[str, list] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["matrix", "row", "col", "value"]:
            raise ValueError(f"unexpected matrix CSV header: {header}")
        for name, i, j, value in reader:
            entries.setdefault(name, []).append((int(i), int(j), float(value)))
    out = {}
    for name, cells in entries.items():
        rows = 1 + max(i for i, _, _ in cells)
        cols = 1 + max(j for _, j, _ in cells)
        if sorted((i, j) for i, j, _ in cells) != [(i, j) for i in range(rows)
                                                   for j in range(cols)]:
            raise ValueError(f"matrix {name}: cells do not cover {rows}x{cols} exactly once")
        mat = np.zeros((rows, cols))
        for i, j, v in cells:
            mat[i, j] = v
        out[name] = mat
    return out


def assert_input_error(code, capsys):
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err and "Warning" not in err


# (section, key, value) changes that make the six-mode config an input error
MALFORMED_CONFIGS = [
    ("simulation", "zero_coupling", "false"), ("simulation", "dtt", 0.5),
    (None, "n_p", 6.5), (None, "m", True), (None, "tol", True),
    ("simulation", "t_end", "200"),
    ("observer", "surprise", 1.0),
    pytest.param("simulation", "dt", 10**400, id="simulation-dt-10**400"),
    (None, "r_p", ["1"] * 36), (None, "c_p2_tilde", [[1.0, 1.0], [1.0]]),
    (None, "simulation", [200.0, 0.01]), (None, "format_version", True),
    (None, "m", 0), (None, "c_p2_tilde", [1.0] * 6),
    # the default gain -R_o C_o^+ = -2e308 I overflows
    (None, "observer", {"r_o": [1e308, 0, 0, 1e308], "c_o": [0.5, 0, 0, 0.5]}),
    # omega scales the default R_o only
    (None, "observer", {"omega": 5.0, "r_o": [2, 0, 0, 2]})]


def write_changed_config(sixmode_path, tmp_path, section, key, value) -> str:
    """The six-mode config with ``key`` of ``section`` (None: the top level) set to ``value``."""
    doc = json.loads(sixmode_path.read_text())
    (doc.setdefault(section, {}) if section else doc)[key] = value
    path = tmp_path / "changed.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def sixmode_path(tmp_path):
    path = tmp_path / "sixmode.json"
    save_config(sixmode_config(), path)
    return path


@pytest.fixture
def fast_sixmode_path(tmp_path):
    path = tmp_path / "sixmode_fast.json"
    save_config(sixmode_config(t_end=50.0), path)
    return path


@pytest.fixture
def perturbed_sixmode_path(tmp_path):
    """Six-mode plant with C_p + 1e-7 [p1; p1]^T, p1 the first dynamical basis vector.

    The outputs leak into the dynamics: tf_cond is about 1.7e-7, above the
    default tolerance and below 1e-5.
    """
    plant, dec = build_plant(sixmode_config())
    p1 = dec.p[:, 0]
    cfg = PlantConfig(n_p=6, m=2, r_p=plant.r, c_p=plant.c + 1e-7 * np.vstack([p1, p1]))
    path = tmp_path / "perturbed.json"
    save_config(cfg, path)
    return path


@pytest.fixture
def condition_checks(monkeypatch):
    """Count calls of check_plant_conditions made through the cli and synthesis."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return check_plant_conditions(*args, **kwargs)

    monkeypatch.setattr("qobserver.synthesis.check_plant_conditions", counted)
    monkeypatch.setattr("qobserver.cli.check_plant_conditions", counted)
    return calls


class TestConfig:
    def test_bundled_config_matches_demo(self):
        from pathlib import Path
        bundled = Path(__file__).resolve().parent.parent / "configs" / "sixmode.json"
        assert config_to_dict(load_config(bundled)) == config_to_dict(sixmode_config())

    def test_round_trip_is_identity(self, sixmode_path):
        cfg = load_config(sixmode_path)
        doc = config_to_dict(cfg)
        again = config_to_dict(config_from_dict(doc))
        assert doc == again
        assert doc == json.loads(json.dumps(doc))

    def test_file_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        g = rng.normal(size=(4, 4))
        cfg = PlantConfig(n_p=4, m=1, r_p=(g + g.T) / 2, c_p=rng.normal(size=(1, 4)))
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        loaded = load_config(path)
        assert np.array_equal(loaded.r_p, cfg.r_p)
        assert np.array_equal(loaded.c_p, cfg.c_p)

    def test_build_plant_from_transformed_output(self, sixmode_path):
        cfg = load_config(sixmode_path)
        plant, dec = build_plant(cfg)
        assert plant.n == 6 and plant.m == 2
        assert np.array_equal(dec.c_p2_tilde, [[1.0, 1, 1, 1], [1, 1, -1, -1]])

    def test_build_plant_from_original_output(self, sixmode_path):
        cfg = load_config(sixmode_path)
        plant, _ = build_plant(cfg)
        direct = PlantConfig(n_p=6, m=2, r_p=np.ones((6, 6)), c_p=plant.c)
        plant2, dec2 = build_plant(direct)
        assert np.array_equal(plant2.c, plant.c)
        assert dec2.n_p2 == 4

    def test_rejects_odd_dimension(self):
        with pytest.raises(ConfigError, match="even"):
            PlantConfig(n_p=5, m=1, r_p=np.zeros(25), c_p=np.zeros(5))

    def test_rejects_both_output_specs(self):
        with pytest.raises(ConfigError, match="exactly one"):
            PlantConfig(n_p=4, m=1, r_p=np.zeros(16), c_p=np.zeros(4),
                        c_p2_tilde=np.zeros(4))

    def test_rejects_missing_output_spec(self):
        with pytest.raises(ConfigError, match="exactly one"):
            PlantConfig(n_p=4, m=1, r_p=np.zeros(16))

    def test_rejects_wrong_matrix_length(self):
        with pytest.raises(ConfigError, match="r_p"):
            PlantConfig(n_p=4, m=1, r_p=np.zeros(15), c_p=np.zeros(4))

    @pytest.mark.parametrize("m", [2, 10**20])
    def test_rejects_empty_output_selector(self, m):
        with pytest.raises(ConfigError, match="c_p2_tilde"):
            PlantConfig(n_p=4, m=m, r_p=np.zeros(16), c_p2_tilde=[])

    def test_rejects_degenerate_horizon(self):
        with pytest.raises(ConfigError, match="horizon"):
            PlantConfig(n_p=4, m=1, r_p=np.zeros(16), c_p=np.zeros(4), t_end=0.0)

    def test_rejects_unknown_fields(self):
        doc = config_to_dict(sixmode_config())
        doc["surprise"] = 1
        with pytest.raises(ConfigError, match="unknown"):
            config_from_dict(doc)

    def test_rejects_wrong_version(self):
        doc = config_to_dict(sixmode_config())
        doc["format_version"] = 99
        with pytest.raises(ConfigError, match="format_version"):
            config_from_dict(doc)

    def test_parse_error_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"format_version": 1,\n  "n_p": }\n')
        with pytest.raises(ConfigError, match=r"broken\.json:2"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_tol_absent_or_null_means_default(self):
        doc = config_to_dict(sixmode_config())
        assert "tol" not in doc
        assert config_from_dict(doc).tol == CONDITION_TOL
        assert config_from_dict(dict(doc, tol=None)).tol == CONDITION_TOL
        cfg = config_from_dict(dict(doc, tol=1e-6))
        assert cfg.tol == 1e-6 and config_to_dict(cfg)["tol"] == 1e-6

    def test_json_integers_load_as_floats(self):
        doc = config_to_dict(sixmode_config())
        as_int = config_from_dict(dict(doc, simulation={"t_end": 200, "dt": 1}, tol=1))
        as_float = config_from_dict(dict(doc, simulation={"t_end": 200.0, "dt": 1.0}, tol=1.0))
        assert json.dumps(config_to_dict(as_int)) == json.dumps(config_to_dict(as_float))
        assert {type(getattr(as_int, name)) for name in ("omega", "t_end", "dt", "tol")} == {float}


class TestCsvInterchange:
    def test_matrices_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        mats = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=(1, 4)) * 1e-13}
        path = tmp_path / "mats.csv"
        write_matrices_csv(path, mats)
        loaded = read_matrices_csv(path)
        assert set(loaded) == {"a", "b"}
        assert np.array_equal(loaded["a"], mats["a"])
        assert np.array_equal(loaded["b"], mats["b"])

    def test_one_point_record_round_trip(self, sixmode_system, tmp_path):
        *_, aug = sixmode_system
        rec = propagate(aug, [0.0])
        path = tmp_path / "zo_avg.csv"
        write_trajectory_csv(path, rec.times, rec.zo_avg, "o_avg")
        times, avg, _ = read_trajectory_csv(path)
        assert times.tolist() == [0.0]
        assert np.array_equal(avg, aug.zo_selector.reshape(1, -1))

    @pytest.mark.parametrize("rows", [
        ["r_o,0,0,1", "r_o,1,1,1"],                                   # missing cells
        ["r_o,0,0,1", "r_o,0,1,0", "r_o,1,0,0", "r_o,1,1,1", "r_o,1,1,2"],  # repeated cell
        ["r_o,0,0,1", "r_o,0,1,0", "r_o,1,0,0", "r_o,-1,1,1"],        # negative index
    ])
    def test_matrices_reject_incomplete_or_repeated_cells(self, tmp_path, rows):
        path = tmp_path / "mats.csv"
        path.write_text("\n".join(["matrix,row,col,value", *rows]) + "\n")
        with pytest.raises(ValueError, match="r_o"):
            read_matrices_csv(path)


class TestCliCommands:
    def test_analyze_passes_on_demo_plant(self, sixmode_path, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(["analyze", str(sixmode_path), "--report", str(report_path)])
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert doc["passed"]
        assert doc["conditions"]["rank_cr"] == 2
        assert doc["decomposition"]["n_p1"] == 2
        assert "PASS" in capsys.readouterr().out

    def test_analyze_rejects_odd_dimension_config(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({
            "format_version": 1, "n_p": 5, "m": 1,
            "r_p": [0.0] * 25, "c_p": [1.0, 0, 0, 0, 0]}))
        assert main(["analyze", str(path)]) == 2

    @pytest.mark.parametrize("output", ["c_p2_tilde", "c_p"])
    def test_analyze_refuses_asymmetric_r_for_either_output(self, sixmode_path, tmp_path,
                                                            capsys, output):
        doc = json.loads(sixmode_path.read_text())
        doc["r_p"][1] = 2.0
        if output == "c_p":
            plant, _ = build_plant(sixmode_config())
            del doc["c_p2_tilde"]
            doc["c_p"] = plant.c.ravel().tolist()
        path = tmp_path / "asymmetric.json"
        path.write_text(json.dumps(doc))
        code = main(["analyze", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: r must be symmetric to within 1e-12 of its largest entry\n"

    def test_analyze_fails_on_zero_output(self, tmp_path):
        zeroed = PlantConfig(n_p=6, m=2, r_p=np.ones((6, 6)), c_p=np.zeros((2, 6)))
        path = tmp_path / "zeroed.json"
        save_config(zeroed, path)
        code = main(["analyze", str(path)])
        assert code == 1

    def test_synthesize_identity_overrides_emit_reference_coupling(
            self, tmp_path, sixmode_path):
        cfg = load_config(sixmode_path)
        cfg.r_o = np.eye(2)
        cfg.c_o = np.eye(2)
        cfg.beta = -np.eye(2)
        path = tmp_path / "explicit.json"
        save_config(cfg, path)
        out = tmp_path / "observer.csv"
        code = main(["synthesize", str(path), str(out)])
        assert code == 0
        mats = read_matrices_csv(out)
        assert np.array_equal(mats["r_c_tilde"],
                              [[-1.0, -1.0], [-1.0, -1.0], [-1.0, 1.0], [-1.0, 1.0]])
        assert np.array_equal(mats["theta_o"], [[0.0, 1.0], [-1.0, 0.0]])

    def test_synthesize_defaults_report_zero_residual(self, sixmode_path, tmp_path):
        out = tmp_path / "observer.csv"
        report_path = tmp_path / "report.json"
        code = main(["synthesize", str(sixmode_path), str(out),
                     "--report", str(report_path)])
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert doc["observer"]["consistency_residual"] == 0.0

    def test_synthesize_single_output_pads_order(self, tmp_path):
        cfg = PlantConfig(n_p=4, m=1, r_p=np.ones((4, 4)),
                          c_p2_tilde=np.array([[1.0, 0.0]]))
        path = tmp_path / "toy.json"
        save_config(cfg, path)
        report_path = tmp_path / "report.json"
        code = main(["synthesize", str(path), str(tmp_path / "obs.csv"),
                     "--report", str(report_path)])
        assert code == 0
        assert json.loads(report_path.read_text())["observer"]["n_o"] == 2

    def test_tol_reaches_refusal(self, perturbed_sixmode_path, tmp_path):
        out = str(tmp_path / "obs.csv")
        assert main(["synthesize", str(perturbed_sixmode_path), out]) == 1
        assert main(["synthesize", str(perturbed_sixmode_path), out, "--tol", "1e-5"]) == 0

    def test_synthesize_reports_the_conditions_analyze_reports(
            self, perturbed_sixmode_path, tmp_path):
        syn, ana = tmp_path / "syn.json", tmp_path / "ana.json"
        assert main(["synthesize", str(perturbed_sixmode_path), str(tmp_path / "obs.csv"),
                     "--tol", "1e-5", "--report", str(syn)]) == 0
        assert main(["analyze", str(perturbed_sixmode_path), "--tol", "1e-5",
                     "--report", str(ana)]) == 0
        conditions = json.loads(syn.read_text())["conditions"]
        assert conditions["residuals"]["tf_cond"] > CONDITION_TOL
        assert conditions == json.loads(ana.read_text())["conditions"]

    def test_synthesize_checks_conditions_once(self, sixmode_path, tmp_path,
                                               condition_checks):
        assert main(["synthesize", str(sixmode_path), str(tmp_path / "obs.csv")]) == 0
        assert len(condition_checks) == 1

    def test_simulate_checks_conditions_once(self, fast_sixmode_path, tmp_path,
                                             condition_checks):
        assert main(["simulate", str(fast_sixmode_path), str(tmp_path / "run")]) == 0
        assert len(condition_checks) == 1

    @pytest.mark.parametrize("command", ["analyze", "synthesize", "simulate"])
    def test_each_command_factors_the_dynamics_span_once(
            self, fast_sixmode_path, tmp_path, monkeypatch, command):
        svd, eigh, spans, hamiltonians = np.linalg.svd, np.linalg.eigh, [], []

        def counted_svd(a, *args, **kwargs):
            if np.shape(a)[1] == 12:  # [R, Theta R] of the six-mode plant
                spans.append(np.shape(a))
            return svd(a, *args, **kwargs)

        def counted_eigh(a, *args, **kwargs):
            if np.array_equal(a, np.ones((6, 6))):  # R of the six-mode plant
                hamiltonians.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        out = {"analyze": [], "synthesize": [str(tmp_path / "obs.csv")],
               "simulate": [str(tmp_path / "run")]}[command]
        assert main([command, str(fast_sixmode_path), *out]) == 0
        assert hamiltonians == [(6, 6)] and spans == []

    def test_synthesize_refuses_bad_plant(self, tmp_path):
        bad = PlantConfig(n_p=6, m=2, r_p=np.ones((6, 6)), c_p=np.eye(2, 6))
        path = tmp_path / "bad.json"
        save_config(bad, path)
        code = main(["synthesize", str(path), str(tmp_path / "obs.csv")])
        assert code == 1

    def test_simulate_emits_trajectories(self, fast_sixmode_path, tmp_path):
        out_dir = tmp_path / "run"
        code = main(["simulate", str(fast_sixmode_path), str(out_dir)])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["passed"]
        times, zp, _ = read_trajectory_csv(out_dir / "zp.csv")
        assert times[0] == 0.0 and times[-1] == pytest.approx(50.0)
        # constant columns
        assert np.abs(zp - zp[0]).max() <= 1e-6
        # averaged observer coefficients approach the plant coefficient rows
        _, avg, header = read_trajectory_csv(out_dir / "zo_avg.csv")
        assert header[1] == "zo_avg_1_x1"
        target = np.asarray(zp[0])
        assert np.abs(avg[-1] - target).max() <= 0.05

    def test_simulate_csv_reingestion_is_exact(self, fast_sixmode_path, tmp_path):
        out_dir = tmp_path / "run"
        main(["simulate", str(fast_sixmode_path), str(out_dir)])
        cfg = load_config(fast_sixmode_path)
        from qobserver import assemble_augmented, propagate, time_grid
        from qobserver.cli import _design
        plant, _, obs = _design(cfg)
        aug = assemble_augmented(plant, obs)
        record = propagate(aug, time_grid(cfg.t_end, cfg.dt))
        _, zo, _ = read_trajectory_csv(out_dir / "zo.csv")
        assert np.array_equal(zo, record.zo_coeffs.reshape(len(record.times), -1))

    def test_simulate_rejects_too_short_horizon(self, tmp_path, sixmode_path):
        code = main(["simulate", str(sixmode_path), str(tmp_path / "x"),
                     "--t-end", "5"])
        assert code == 2

    def test_simulate_rejects_grid_ending_short(self, tmp_path, sixmode_path, capsys):
        # dt = 3 rounds t_end = 10 to a grid that ends at 9
        code = main(["simulate", str(sixmode_path), str(tmp_path / "x"),
                     "--t-end", "10", "--dt", "3"])
        assert_input_error(code, capsys)

    # "--dt 1e-300" and "--t-end 1e300" are finite, but their grids (about 1e302
    # points) cannot be held; neither can the step exponentials of "--omega 1e31"
    # and "1e160", nor the dynamics 2 theta R of "1e308"
    @pytest.mark.parametrize("flag,value", [("--t-end", "inf"), ("--t-end", "nan"),
                                            ("--dt", "nan"), ("--omega", "inf"),
                                            ("--tol", "inf"), ("--dt", "1e-300"),
                                            ("--t-end", "1e300"), ("--omega", "1e31"),
                                            ("--omega", "1e160"), ("--omega", "1e308")])
    def test_simulate_rejects_nonfinite_override(self, tmp_path, sixmode_path, capsys,
                                                 flag, value):
        code = main(["simulate", str(sixmode_path), str(tmp_path / "x"), flag, value])
        assert_input_error(code, capsys)

    @pytest.mark.parametrize("section,key,value", [
        ("simulation", "t_end", np.inf), ("simulation", "dt", np.nan),
        ("observer", "omega", np.inf), ("observer", "r_o", [np.nan, 0, 0, 1]),
        (None, "r_p", [np.nan] + [0] * 35), (None, "c_p2_tilde", [-np.inf] + [0] * 7),
        (None, "tol", np.inf)])
    def test_simulate_rejects_nonfinite_config(self, tmp_path, sixmode_path, capsys,
                                               section, key, value):
        path = write_changed_config(sixmode_path, tmp_path, section, key, value)  # Infinity, NaN
        code = main(["simulate", path, str(tmp_path / "x")])
        assert_input_error(code, capsys)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("section,key,value", MALFORMED_CONFIGS)
    def test_simulate_rejects_malformed_config(self, tmp_path, sixmode_path, capsys,
                                               section, key, value):
        path = write_changed_config(sixmode_path, tmp_path, section, key, value)
        code = main(["simulate", path, str(tmp_path / "x")])
        assert_input_error(code, capsys)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("section,key,value", MALFORMED_CONFIGS)
    def test_synthesize_rejects_malformed_config(self, tmp_path, sixmode_path, capsys,
                                                 section, key, value):
        path = write_changed_config(sixmode_path, tmp_path, section, key, value)
        code = main(["synthesize", path, str(tmp_path / "obs.csv")])
        assert_input_error(code, capsys)

    @pytest.mark.filterwarnings("error")
    def test_tiny_output_selector(self, tmp_path, sixmode_path, capsys):
        # C_o = 1e-300 I has full rank; its Gram matrix underflows to zero
        path = write_changed_config(sixmode_path, tmp_path, "observer", "c_o",
                                    [1e-300, 0.0, 0.0, 1e-300])
        report_path = tmp_path / "report.json"
        code = main(["synthesize", path, str(tmp_path / "obs.csv"),
                     "--report", str(report_path)])
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert doc["observer"]["consistency_residual"] <= EQ_CONSISTENCY_TOL
        capsys.readouterr()
        # beta = -1e300 I: the coupled dynamics are beyond the exponential's range
        code = main(["simulate", path, str(tmp_path / "x")])
        assert_input_error(code, capsys)

    def test_omega_override_conflicts_with_given_r_o(self, tmp_path, sixmode_path, capsys):
        path = write_changed_config(sixmode_path, tmp_path, "observer", "r_o",
                                    [2.0, 0.0, 0.0, 2.0])
        out = str(tmp_path / "obs.csv")
        assert main(["synthesize", path, out, "--omega", "1"]) == 0
        assert main(["analyze", path]) == 0
        capsys.readouterr()
        assert_input_error(main(["synthesize", path, out, "--omega", "7"]), capsys)

    def test_simulate_reports_evaluated_grid_end(self, tmp_path, sixmode_path, capsys):
        # t_end / dt = 20.8 rounds to 21 steps of 0.5
        code = main(["simulate", str(sixmode_path), str(tmp_path / "x"),
                     "--t-end", "10.4", "--dt", "0.5"])
        assert code == 0
        assert "t_end = 10.5, dt = 0.5" in capsys.readouterr().out
        times, _, _ = read_trajectory_csv(tmp_path / "x" / "zp.csv")
        assert times[-1] == 10.5

    def test_zero_coupling_leaves_synthesize_unchanged(self, sixmode_path, tmp_path):
        # the flag is a simulation diagnostic; the designed observer keeps its coupling
        plain, flagged = tmp_path / "plain.csv", tmp_path / "flagged.csv"
        assert main(["synthesize", str(sixmode_path), str(plain)]) == 0
        path = write_changed_config(sixmode_path, tmp_path, "simulation", "zero_coupling", True)
        assert main(["synthesize", path, str(flagged)]) == 0
        assert flagged.read_bytes() == plain.read_bytes()

    def test_simulate_zero_coupling_fails_convergence(self, fast_sixmode_path, tmp_path):
        out_dir = tmp_path / "decoupled"
        code = main(["simulate", str(fast_sixmode_path), str(out_dir),
                     "--zero-coupling"])
        assert code == 1
        report = json.loads((out_dir / "report.json").read_text())
        assert not report["convergence"]["passed"]

    def test_exit_codes_deterministic(self, sixmode_path, tmp_path):
        a = main(["analyze", str(sixmode_path), "--report", str(tmp_path / "a.json")])
        b = main(["analyze", str(sixmode_path), "--report", str(tmp_path / "b.json")])
        assert a == b == 0
        assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()

    def test_missing_config_is_input_error(self, tmp_path):
        assert main(["analyze", str(tmp_path / "absent.json")]) == 2

    def test_simulate_loads_no_scipy(self, fast_sixmode_path, tmp_path):
        # numpy is the only numerical runtime; scipy serves the tests alone
        import qobserver

        script = ("import sys, qobserver.cli\n"
                  "code = qobserver.cli.main(['simulate', sys.argv[1], sys.argv[2]])\n"
                  "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        src = str(Path(qobserver.__file__).parents[1])
        out = subprocess.run([sys.executable, "-c", script, str(fast_sixmode_path),
                              str(tmp_path / "run")], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
        assert out.stdout.splitlines()[-1] == "0 []"


class TestConditionsFromDecomposition:
    """Designs judge the conditions from the decomposition's rank of [R, Theta R];
    the verdicts equal those of the standalone check_plant_conditions."""

    @staticmethod
    def plants():
        rng = np.random.default_rng(97)
        valid = [random_valid_plant(rng)[0] for _ in range(20)]
        six, six_dec = build_plant(sixmode_config())
        p2 = six_dec.p[:, 2:]
        # the q and p of one constant mode do not commute; four outputs exceed n_p2 / 2
        non_commuting = QuantumLinearSystem(six.theta, six.r, np.eye(2, 4) @ p2.T)
        too_many = QuantumLinearSystem(six.theta, six.r, p2.T)
        return valid + [non_commuting, too_many]

    def test_design_and_analyze_equal_the_reference_check(self, tmp_path):
        failing = 0
        for i, plant in enumerate(self.plants()):
            reference = check_plant_conditions(plant)
            dec = decompose_plant(plant)
            if reference.all_ok:
                assert synthesize_observer(dec).conditions == reference
            else:
                failing += 1
                with pytest.raises(PlantConditionError, match=re.escape(
                        f"{reference.failing}; residuals {reference.residuals}")):
                    synthesize_observer(dec)
            path = tmp_path / f"plant{i}.json"
            save_config(PlantConfig(n_p=plant.n, m=plant.m, r_p=plant.r, c_p=plant.c), path)
            analyzed = cmd_analyze(path).conditions
            assert analyzed == {**dataclasses.asdict(reference), "all_ok": reference.all_ok}
        assert failing == 2


class TestDemo:
    def test_demo_passes_reference_checks(self, tmp_path, capsys):
        report = cmd_demo(out_dir=tmp_path / "demo")
        out = capsys.readouterr().out
        assert report.passed
        assert "FAIL" not in out
        assert out.count("PASS") >= 7
        assert report.conditions["rank_cr"] == 2
        assert report.observer["r_c_tilde"] == [
            [-1.0, -1.0], [-1.0, -1.0], [-1.0, 1.0], [-1.0, 1.0]]
        slope = report.convergence["decay_slope"]
        assert -1.3 <= slope <= -0.7

    def test_demo_cli_entry(self, tmp_path):
        assert main(["demo", "--out-dir", str(tmp_path / "demo")]) == 0


class TestRunReport:
    def test_json_round_trip(self, sixmode_path, tmp_path):
        from qobserver.cli import cmd_analyze
        report = cmd_analyze(sixmode_path, tmp_path / "r.json")
        doc = json.loads((tmp_path / "r.json").read_text())
        rebuilt = RunReport(**json.loads(json.dumps(doc)))
        assert rebuilt == RunReport(**doc)
        assert rebuilt.to_dict() == report.to_dict()
