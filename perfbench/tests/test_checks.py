"""Each correctness check passes on a real result and fails on a corrupted one."""

import json

import numpy as np
import pytest

import checks
import inputs
import workloads
from checks import CheckFailed
from conftest import ROOT
from qobserver.config import PlantConfig


def _sixmode_run(t_end=20.0, dt=0.01):
    cfg = PlantConfig(n_p=6, m=2, r_p=inputs.SIXMODE_R, c_p2_tilde=inputs.SIXMODE_OUTPUT,
                      t_end=t_end, dt=dt)
    plant, obs, record, _ = workloads._simulate_library(cfg)
    return plant, obs, record, checks.augmented_dynamics(inputs.SIXMODE_R, obs.r_c, obs.r_o)


@pytest.fixture(scope="module")
def sixmode():
    return _sixmode_run()


def test_drift(sixmode):
    _, _, record, _ = sixmode
    checks.check_drift(record.zp_coeffs)
    zp = record.zp_coeffs.copy()
    zp[-1, 0, 0] += 1e-5
    with pytest.raises(CheckFailed, match="drift"):
        checks.check_drift(zp)


def test_design(sixmode):
    plant, obs, _, a_a = sixmode
    checks.check_design(plant.m, plant.c, obs.r_o, obs.c_o, obs.beta, a_a)
    with pytest.raises(CheckFailed, match="beta = I"):
        checks.check_design(plant.m, plant.c, obs.r_o, obs.c_o, obs.beta * 1.001, a_a)
    # C_p Theta_p kills any change along C_p^T, so push along Theta_p^T C_p^T.
    bad_rc = obs.r_c + 1e-3 * inputs.commutation(3).T @ plant.c.T
    bad_a = checks.augmented_dynamics(inputs.SIXMODE_R, bad_rc, obs.r_o)
    with pytest.raises(CheckFailed, match="A_a relative"):
        checks.check_design(plant.m, plant.c, obs.r_o, obs.c_o, obs.beta, bad_a)
    with pytest.raises(CheckFailed, match="observer order"):
        checks.check_design(plant.m, plant.c, np.eye(4), np.eye(2, 4), -np.eye(4, 2), a_a)


def test_expm(sixmode):
    plant, obs, record, a_a = sixmode
    sel = np.hstack([np.zeros((plant.m, plant.n)), obs.c_o])
    points = checks.checkpoint_indices(len(record.times))
    assert checks.check_expm(record.times, [(record.zo_coeffs, sel)], a_a, points) < 1e-9
    zo = record.zo_coeffs.copy()
    zo[points[2]] *= 1 + 1e-5
    with pytest.raises(CheckFailed, match="direct expm"):
        checks.check_expm(record.times, [(zo, sel)], a_a, points)


def test_slope(sixmode):
    plant, _, record, _ = sixmode
    target = np.hstack([plant.c, np.zeros((plant.m, 2))])
    assert -1.3 <= checks.check_slope(record.times, record.zo_avg, target) <= -0.7
    slow = target + (record.zo_avg - target) * np.sqrt(np.maximum(record.times, 1e-3))[:, None, None]
    with pytest.raises(CheckFailed, match="decay slope"):
        checks.check_slope(record.times, slow, target)


def test_closed_form_average(sixmode):
    _, _, record, _ = sixmode
    target = record.zp_coeffs[0]
    offset = record.zo_coeffs[0] - target
    checks.check_closed_form_average(record.times, record.zo_avg, target, offset)

    # An exact average meets the tolerance with room to spare.
    exact = record.zo_avg.copy()
    for k, t in enumerate(record.times[1:], start=1):
        rot = np.array([[np.sin(2 * t), 1 - np.cos(2 * t)],
                        [np.cos(2 * t) - 1, np.sin(2 * t)]]) / (2 * t)
        exact[k] = target + rot @ offset
    assert checks.check_closed_form_average(record.times, exact, target, offset) < 1e-12

    # A left Riemann sum, first-order in the step, does not, although its
    # error norms match |sin T| / T ||[-C_p, I]|| to second order.
    h = record.times[1]
    left = np.cumsum(record.zo_coeffs, axis=0) * h
    riemann = record.zo_avg.copy()
    riemann[1:] = left[:-1] / record.times[1:, None, None]
    with pytest.raises(CheckFailed, match="closed form"):
        checks.check_closed_form_average(record.times, riemann, target, offset)


@pytest.fixture(scope="module")
def demo_run(tmp_path_factory):
    demo = workloads.Demo(ROOT, 0, tmp_path_factory.mktemp("demo"))
    assert demo.run() == 0
    return demo


def _rewrite(path, edit):
    text = path.read_text()
    path.write_text(edit(text))
    return text


def test_demo_check_passes(demo_run):
    outcome = demo_run.check(0)
    assert not outcome.failed
    assert outcome.stats["simulation.avg_bias"] < checks.AVG_TOL
    assert outcome.stats["cli.output_mb"] > 1


def test_demo_check_exit_code(demo_run):
    with pytest.raises(CheckFailed, match="exited with 1"):
        demo_run.check(1)


# Line 12001 holds t = 120, a checkpoint of the zo comparison.
@pytest.mark.parametrize("name, line, delta", [("zp.csv", 15000, 1e-5),
                                               ("zo.csv", 12001, 1e-5),
                                               ("zo_avg.csv", 5000, 1e-2)])
def test_demo_check_corrupted_trajectory(demo_run, name, line, delta):
    def corrupt(text):
        lines = text.split("\n")
        cells = lines[line].split(",")
        cells[3] = repr(float(cells[3]) + delta)
        lines[line] = ",".join(cells)
        return "\n".join(lines)

    path = demo_run.out_dir / name
    original = _rewrite(path, corrupt)
    try:
        with pytest.raises(CheckFailed):
            demo_run.check(0)
    finally:
        path.write_text(original)


def test_demo_check_corrupted_report(demo_run):
    def corrupt(text):
        doc = json.loads(text)
        doc["observer"]["r_c"][0][0] += 1e-3
        return json.dumps(doc)

    path = demo_run.out_dir / "report.json"
    original = _rewrite(path, corrupt)
    try:
        with pytest.raises(CheckFailed):
            demo_run.check(0)
    finally:
        path.write_text(original)


@pytest.fixture
def sweep(tmp_path):
    sweep = workloads.DesignSweep(ROOT, 3, tmp_path)
    ops = {}
    for plant, op in zip(sweep.plants, sweep.round()):
        ops.setdefault(plant.kind, op)
    return sweep, ops


def test_sweep_outcomes(sweep):
    _, ops = sweep
    op = ops["valid"]
    assert not op.check(op.run()).failed
    # A valid plant refused counts as failed; an invalid one accepted is wrong.
    refusal = workloads.synthesis.PlantConditionError("refused")
    assert op.check(refusal).failed
    for kind in ("noncommuting", "too_many"):
        invalid_op = ops[kind]
        assert not invalid_op.check(invalid_op.run()).failed
        with pytest.raises(CheckFailed, match="not refused"):
            invalid_op.check(op.run())
    assert ops["r_scaled"].check(ops["r_scaled"].run()).failed


@pytest.mark.parametrize("matrix, match", [("beta", "beta = I"), ("r_c", "A_a relative"),
                                           ("r_o", "beta = I")])
def test_sweep_check_corrupted_csv_and_report(sweep, matrix, match):
    sweep_wl, ops = sweep
    op = ops["valid"]
    i = next(k for k, p in enumerate(sweep_wl.plants) if p.kind == "valid")
    report = op.run()
    path = sweep_wl.csv_paths[i]
    lines = path.read_text().splitlines()
    k = next(n for n, line in enumerate(lines) if line.startswith(f"{matrix},0,0,"))
    name, row, col, value = lines[k].split(",")
    bad = float(value) + 1e-3
    lines[k] = f"{name},{row},{col},{bad!r}"
    # Written CSV and report disagree: caught before the design is judged.
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckFailed, match="differs from the report"):
        op.check(report)
    # Both carry the same wrong value: the design checks catch it.
    report.observer[matrix][0][0] = bad
    with pytest.raises(CheckFailed, match=match):
        op.check(report)


def test_read_long_csv_rejects_missing_cells():
    text = "matrix,row,col,value\nr_o,0,0,1\nr_o,1,1,1\n"
    with pytest.raises(CheckFailed, match="2 cells missing"):
        checks.read_long_csv(text)
    full = text + "r_o,0,1,0\nr_o,1,0,0\n"
    assert np.array_equal(checks.read_long_csv(full)["r_o"], np.eye(2))


def test_sweep_round_is_fixed_in_shape(tmp_path):
    shapes = [[(p.kind, p.n_p, p.m) for p in inputs.sweep_plants(seed)] for seed in (1, 2)]
    assert shapes[0] == shapes[1]
    counts = {kind: sum(k == kind for k, _, _ in shapes[0]) for kind, _, _ in shapes[0]}
    assert counts == {"valid": inputs.SWEEP_VALID, "noncommuting": inputs.SWEEP_NONCOMMUTING,
                      "too_many": inputs.SWEEP_TOO_MANY, "r_scaled": len(inputs.R_SCALES)}
