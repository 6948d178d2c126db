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
    cli,
    decompose_plant,
    propagate,
    simulation,
    synthesize_observer,
)
from qobserver.cli import (
    RunReport,
    _write_report,
    cmd_analyze,
    cmd_demo,
    cmd_simulate,
    main,
    write_matrices_csv,
    write_trajectory_csv,
)
from qobserver.config import (
    ConfigError,
    PlantConfig,
    build_plant,
    config_from_dict,
    load_config,
)
from qobserver.demo import sixmode_config
from qobserver.synthesis import EQ_CONSISTENCY_TOL

from conftest import config_to_dict, random_valid_plant, same_bits, save_config


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


def strict_json_constant(name):
    """A ``parse_constant`` that refuses the non-standard NaN, Infinity and -Infinity."""
    raise ValueError(f"report holds the non-JSON constant {name}")


def assert_judged_failure(code, capsys, out_dir, check):
    """A run judged to the end: exit 1, the verdict failing on ``check``, and a strict-JSON
    report whose convergence figures are finite numbers."""
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert out.splitlines()[-1].startswith(f"  convergence     FAIL: {check} ")
    report = json.loads((out_dir / "report.json").read_text(), parse_constant=strict_json_constant)
    for key in ("final_error", "decay_slope", "reduction_residual"):
        value = report["convergence"][key]
        assert isinstance(value, float) and np.isfinite(value), key


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

    def test_non_utf8_config_is_refused_with_its_path(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"format_version": 1, "name": "ø"}'.encode("latin-1"))
        with pytest.raises(ConfigError, match=re.escape(f"{path}:")):
            load_config(path)
        assert_input_error(main(["analyze", str(path)]), capsys)

    # refused by the parser itself, at the literal, before any field is judged
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
    def test_parser_refuses_nonfinite_literals(self, sixmode_path, tmp_path, capsys, literal):
        text = sixmode_path.read_text().replace('"format_version": 1',
                                                f'"format_version": 1,\n"tol": {literal}')
        path = tmp_path / "nonfinite.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(f"{path}:") + r"3:\d+: "):
            load_config(path)
        code = main(["simulate", str(path), str(tmp_path / "x")])
        assert_input_error(code, capsys)
        assert not (tmp_path / "x").exists()

    def test_integer_beyond_64_bits_reads_as_a_double(self, sixmode_path):
        sixmode_path.write_text(sixmode_path.read_text().replace(
            '"format_version": 1', f'"format_version": 1, "tol": {2**70}'))
        assert load_config(sixmode_path).tol == float(2**70)

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

    def test_trajectory_blocks_do_not_change_the_bytes(self, sixmode_system, tmp_path,
                                                       monkeypatch):
        *_, aug = sixmode_system
        rec = propagate(aug, np.linspace(0.0, 1.0, 23))
        whole, blocked = tmp_path / "whole.csv", tmp_path / "blocked.csv"
        write_trajectory_csv(whole, rec.times, rec.zo_coeffs, "o")
        # 17 values a row: one row per block, then two rows per block
        for values in (1, 40):
            monkeypatch.setattr(cli, "_BLOCK_VALUES", values)
            write_trajectory_csv(blocked, rec.times, rec.zo_coeffs, "o")
            assert blocked.read_bytes() == whole.read_bytes()
        assert whole.read_bytes().count(b"\n") == 24 and b"\r" not in whole.read_bytes()

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("row", [0, 19])
    def test_trajectory_writer_refuses_nonfinite(self, tmp_path, monkeypatch, value, row):
        monkeypatch.setattr(cli, "_BLOCK_VALUES", 10)  # three rows of 3 values per block
        coeffs = np.ones((20, 1, 2))
        coeffs[row, 0, 1] = value
        path = tmp_path / "zo.csv"
        with pytest.raises(ValueError, match=re.escape(str(path))):
            write_trajectory_csv(path, np.arange(20.0), coeffs, "o")
        assert b"null" not in path.read_bytes()
        with pytest.raises(ValueError, match=re.escape(str(path))):
            write_trajectory_csv(path, np.where(np.arange(20) == row, value, 1.0),
                                 np.ones((20, 1, 2)), "o")

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_matrices_writer_refuses_nonfinite(self, tmp_path, value):
        path = tmp_path / "mats.csv"
        with pytest.raises(ValueError, match=re.escape(str(path))):
            write_matrices_csv(path, {"a": np.eye(2), "b": np.array([[1.0, value]])})
        assert not path.exists()  # each matrix is judged before any line is written

    def test_matrices_keep_shapes_and_crlf(self, tmp_path):
        path = tmp_path / "mats.csv"
        write_matrices_csv(path, {"row": [1, -0.0, 5e-324], "empty": np.zeros((0, 3)),
                                  "col": np.array([[0.1], [1e22]])})
        assert path.read_bytes() == (b"matrix,row,col,value\r\nrow,0,0,1.0\r\nrow,0,1,-0.0\r\n"
                                     b"row,0,2,5e-324\r\ncol,0,0,0.1\r\ncol,1,0,1e22\r\n")

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
        for name, coeffs in (("zp.csv", record.zp_coeffs), ("zo.csv", record.zo_coeffs),
                             ("zo_avg.csv", record.zo_avg)):
            times, written, _ = read_trajectory_csv(out_dir / name)
            assert same_bits(times, record.times)
            assert same_bits(written, coeffs.reshape(len(record.times), -1))

    def test_simulate_rejects_too_short_horizon(self, tmp_path, sixmode_path):
        code = main(["simulate", str(sixmode_path), str(tmp_path / "x"),
                     "--t-end", "5"])
        assert code == 2

    def test_simulate_rejects_grid_ending_short(self, tmp_path, sixmode_path, capsys):
        # dt = 3 rounds t_end = 10 to a grid that ends at 9; time_average_error refuses it
        code = main(["simulate", str(sixmode_path), str(tmp_path / "x"),
                     "--t-end", "10", "--dt", "3"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("error:") == 1 and err.startswith("error:")
        assert "t_end >= 10" in err
        assert not (tmp_path / "x").exists()

    def test_simulate_refuses_a_full_width_record_before_any_grid(
            self, tmp_path, sixmode_path, capsys, monkeypatch):
        # the bound lies between the record in propagate's basis, d = m + n_o = 4
        # wide, and the n_p + n_o = 8 wide CSVs, so only the CLI's check refuses it
        cfg = sixmode_config()
        points = cfg.t_end / cfg.dt + 1
        monkeypatch.setattr(simulation, "MAX_RECORD_BYTES", 24 * points * cfg.m * 8 - 8)
        propagated = []
        monkeypatch.setattr("qobserver.cli.propagate", lambda *args: propagated.append(args))
        out_dir = tmp_path / "x"
        code = main(["simulate", str(sixmode_path), str(out_dir)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "would exceed MAX_RECORD_BYTES" in err
        assert "48 doubles per point" in err
        assert propagated == [] and not out_dir.exists()

    # "--dt 1e-300" and "--t-end 1e300" are finite, but their grids (about 1e302
    # points) cannot be held, nor can the dynamics 2 theta R of "--omega 1e308".
    # The record of "--omega 1e31" and "1e160" is formed in closed form and judged:
    # the verdict fails on the reduction residual, 3.4e+19 and 2.3e+148
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flag,value", [("--t-end", "inf"), ("--t-end", "nan"),
                                            ("--dt", "nan"), ("--omega", "inf"),
                                            ("--tol", "inf"), ("--dt", "1e-300"),
                                            ("--t-end", "1e300"), ("--omega", "1e31"),
                                            ("--omega", "1e160"), ("--omega", "1e308")])
    def test_simulate_rejects_nonfinite_override(self, tmp_path, sixmode_path, capsys,
                                                 flag, value):
        out_dir = tmp_path / "x"
        code = main(["simulate", str(sixmode_path), str(out_dir), flag, value])
        if value in ("1e31", "1e160"):
            assert_judged_failure(code, capsys, out_dir, "reduction_residual")
        else:
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
        # beta = -1e300 I: the coupling's round-off, 3.2e+288, fails the verdict
        code = main(["simulate", path, str(tmp_path / "x")])
        assert_judged_failure(code, capsys, tmp_path / "x", "reduction_residual")

    @pytest.mark.filterwarnings("error")
    def test_huge_output_selector_is_judged_without_overflow(self, tmp_path, sixmode_path,
                                                            capsys):
        # C_o = 1e300 I: the averaged error, about 6.5e+298, is a norm whose squares
        # would overflow; each matrix is scaled by a power of two first
        path = write_changed_config(sixmode_path, tmp_path, "observer", "c_o",
                                    [1e300, 0.0, 0.0, 1e300])
        out_dir = tmp_path / "x"
        code = main(["simulate", path, str(out_dir), "--t-end", "20", "--dt", "0.1"])
        assert_judged_failure(code, capsys, out_dir, "reduction_residual")

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

    def test_simulate_prints_the_exact_average_of_a_coarse_grid(self, tmp_path, sixmode_path,
                                                                 capsys):
        # sqrt(10) |sin 10| / 10; a trapezoid on steps of 0.5 read 1.575e-01
        code = main(["simulate", str(sixmode_path), str(tmp_path / "x"),
                     "--t-end", "10", "--dt", "0.5"])
        assert code == 0
        assert "  final avg error 1.720e-01" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("output", ["c_p2_tilde", "c_p"])
    def test_analyze_refuses_r_whose_eigenvalues_overflow(self, sixmode_path, tmp_path,
                                                          capsys, output):
        doc = json.loads(sixmode_path.read_text())
        doc["r_p"] = [3e307 * v for v in doc["r_p"]]
        if output == "c_p":
            plant, _ = build_plant(sixmode_config())
            del doc["c_p2_tilde"]
            doc["c_p"] = plant.c.ravel().tolist()
        path = tmp_path / "huge_r.json"
        path.write_text(json.dumps(doc))
        code = main(["analyze", str(path)])
        assert capsys.readouterr().err == "error: the eigenvalues of r overflow doubles\n"
        assert code == 2

    def test_analyze_fails_overflowing_outputs_on_tf_cond_alone(self, sixmode_path, tmp_path,
                                                               capsys):
        doc = json.loads(sixmode_path.read_text())
        path = write_changed_config(sixmode_path, tmp_path, None, "c_p2_tilde",
                                    [1e308 * v for v in doc["c_p2_tilde"]])
        assert main(["analyze", path]) == 1
        out, err = capsys.readouterr()
        assert "  tf_cond_ok   FAIL" in out.splitlines()
        assert "  rank_ok      pass" in out.splitlines()
        assert err == ""

    def test_report_names_a_nonfinite_residual(self, sixmode_path, tmp_path):
        # [C; C Theta] R overflows to inf; the report stays strict JSON
        doc = json.loads(sixmode_path.read_text())
        path = write_changed_config(sixmode_path, tmp_path, None, "c_p2_tilde",
                                    [1e308 * v for v in doc["c_p2_tilde"]])
        report_path = tmp_path / "report.json"
        assert main(["analyze", path, "--report", str(report_path)]) == 1
        report = json.loads(report_path.read_text(), parse_constant=strict_json_constant)
        assert report["conditions"]["residuals"]["tf_cond"] == "inf"
        assert report["conditions"]["residuals"]["cjc"] <= 1e-15

    def test_report_writes_each_nonfinite_float_by_name(self, tmp_path):
        path = tmp_path / "report.json"
        _write_report(RunReport(conditions={"a": np.nan, "b": [-np.inf, 0.1, 2, np.inf]}), path)
        report = json.loads(path.read_text(), parse_constant=strict_json_constant)
        assert report["conditions"] == {"a": "nan", "b": ["-inf", 0.1, 2, "inf"]}

    def test_zero_coupling_leaves_synthesize_unchanged(self, sixmode_path, tmp_path):
        # the flag is a simulation diagnostic; the designed observer keeps its coupling
        plain, flagged = tmp_path / "plain.csv", tmp_path / "flagged.csv"
        assert main(["synthesize", str(sixmode_path), str(plain)]) == 0
        path = write_changed_config(sixmode_path, tmp_path, "simulation", "zero_coupling", True)
        assert main(["synthesize", path, str(flagged)]) == 0
        assert flagged.read_bytes() == plain.read_bytes()

    def test_simulate_zero_coupling_fails_convergence(self, fast_sixmode_path, tmp_path,
                                                      capsys):
        out_dir = tmp_path / "decoupled"
        code = main(["simulate", str(fast_sixmode_path), str(out_dir),
                     "--zero-coupling"])
        assert code == 1
        report = json.loads((out_dir / "report.json").read_text())
        assert not report["convergence"]["passed"]
        # the averaged error does not decay; the verdict names that check
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("  convergence     FAIL: decay_slope ")
        assert lines[-1].endswith(" outside SLOPE_WINDOW (-1.3, -0.7)")
        residual = report["convergence"]["reduction_residual"]
        assert f"  reduction resid {residual:.3e}" in lines

    def test_simulate_prints_the_residual_of_a_passing_run(self, fast_sixmode_path, tmp_path,
                                                           capsys):
        assert main(["simulate", str(fast_sixmode_path), str(tmp_path / "run")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line[:18] for line in lines[1:]] == [
            "  reduction resid ", "  final avg error ",
            "  decay slope     ", "  convergence     "]
        assert lines[-1] == "  convergence     PASS"

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
    """The plant factors (Theta, R) once; the condition check and the decomposition
    read that one factorization, and the verdicts of a design equal those of the
    standalone check_plant_conditions."""

    @staticmethod
    def plants():
        """``(plant, c_p2_tilde)``: the plant and its outputs in the rotated coordinates."""
        rng = np.random.default_rng(97)
        valid = [(plant, dec.c_p2_tilde)
                 for plant, dec in (random_valid_plant(rng) for _ in range(20))]
        six, six_dec = build_plant(sixmode_config())
        p2 = six_dec.p[:, 2:]
        # the q and p of one constant mode do not commute; four outputs exceed n_p2 / 2
        non_commuting = QuantumLinearSystem(six.r, np.eye(2, 4) @ p2.T)
        too_many = QuantumLinearSystem(six.r, p2.T)
        return valid + [(non_commuting, np.eye(2, 4)), (too_many, np.eye(4))]

    @staticmethod
    def assert_design_judges_as(dec, reference):
        if reference.all_ok:
            assert synthesize_observer(dec).conditions == reference
        else:
            with pytest.raises(PlantConditionError, match=re.escape(
                    f"{reference.failing}; residuals {reference.residuals}")):
                synthesize_observer(dec)

    def test_one_factorization_per_plant(self, monkeypatch):
        # build_plant -> check_plant_conditions -> synthesize_observer, with the
        # outputs given through c_p2_tilde and through c_p
        eigh, svd, calls = np.linalg.eigh, np.linalg.svd, []

        def counted_eigh(a, *args, **kwargs):
            calls.append(("eigh", np.array(a)))
            return eigh(a, *args, **kwargs)

        def counted_svd(a, *args, **kwargs):
            calls.append(("svd", np.shape(a)))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        for plant, c2 in self.plants():
            for outputs in ({"c_p2_tilde": c2}, {"c_p": plant.c}):
                calls.clear()
                built, dec = build_plant(PlantConfig(n_p=plant.n, m=plant.m, r_p=plant.r,
                                                     **outputs))
                self.assert_design_judges_as(dec, check_plant_conditions(built))
                assert sum(kind == "eigh" and np.array_equal(a, built.r)
                           for kind, a in calls) == 1
                assert ("svd", (built.n, 2 * built.n)) not in calls

    def test_design_and_analyze_equal_the_reference_check(self, tmp_path):
        failing = 0
        for i, (plant, _) in enumerate(self.plants()):
            reference = check_plant_conditions(plant)
            failing += not reference.all_ok
            self.assert_design_judges_as(decompose_plant(plant), reference)
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
        # the four reference checks and the convergence verdict
        assert out.count("PASS") == 5
        assert "  convergence     PASS\n" in out
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

    def test_simulate_returns_the_report_it_writes(self, fast_sixmode_path, tmp_path):
        report = cmd_simulate(fast_sixmode_path, tmp_path / "run")
        written = RunReport(**json.loads((tmp_path / "run" / "report.json").read_text()))
        assert written == report
        assert report.csv_files == [str(tmp_path / "run" / name)
                                    for name in ("zp.csv", "zo.csv", "zo_avg.csv")]

    @pytest.mark.parametrize("reference", ["pass", "fail"])
    def test_demo_returns_the_report_it_writes(self, tmp_path, monkeypatch, reference):
        if reference == "fail":
            # R_o = 2 I doubles the coupling block: a reference check fails, the verdict passes
            monkeypatch.setattr("qobserver.cli.sixmode_config", lambda: dataclasses.replace(
                sixmode_config(), r_o=2 * np.eye(2)))
        report = cmd_demo(out_dir=tmp_path / "demo")
        written = RunReport(**json.loads((tmp_path / "demo" / "report.json").read_text()))
        assert written == report
        assert report.convergence["passed"]
        assert report.passed == (reference == "pass")
