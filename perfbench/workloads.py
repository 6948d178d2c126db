"""The three workloads: their inputs, their operations and the checks on each.

A workload builds its inputs once, then offers one round of operations.
Every operation is a ``run`` that calls into qobserver (the timed part) and
a ``check`` that judges the result apart from the program (not timed).  A
check returns ``Outcome``; it raises ``CheckFailed`` when an output is wrong.
qobserver functions are looked up through their modules at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs
from checks import CheckFailed

from qobserver import cli, config, model, simulation, synthesis  # noqa: E402
# Imported by name, so that the checks' own calls stay outside the tracer's spans.
from qobserver.config import build_plant, load_config  # noqa: E402


@dataclass
class Outcome:
    failed: bool = False
    stats: dict = field(default_factory=dict)   # residuals and sizes of this operation


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


class Workload:
    name = ""
    # qobserver modules a user imports for this workload, and the inputs read
    # before the first operation; together they make up setup_s.
    setup_modules: tuple[str, ...] = ("qobserver", "qobserver.config")
    # Per-layer metrics the workload's operations must produce.
    expected: frozenset[str] = frozenset()

    def setup_inputs(self) -> list[Path]:
        return []

    def round(self) -> list[Op]:
        raise NotImplementedError


def _simulate_library(cfg):
    """The library calls of ``qobserver simulate``, without file output."""
    plant, dec = config.build_plant(cfg)
    tol = cfg.tol if cfg.tol is not None else model.CONDITION_TOL
    model.check_plant_conditions(plant, tol=tol)
    obs = synthesis.synthesize_observer(dec, omega=cfg.omega, r_o=cfg.r_o, c_o=cfg.c_o,
                                        beta=cfg.beta, condition_tol=tol)
    aug = synthesis.assemble_augmented(plant, obs)
    record = simulation.propagate(aug, simulation.time_grid(cfg.t_end, cfg.dt))
    return plant, obs, record, simulation.time_average_error(record, aug)


def _check_design(r_p, plant, obs) -> np.ndarray:
    a_a = checks.augmented_dynamics(r_p, obs.r_c, obs.r_o)
    checks.check_design(plant.m, plant.c, obs.r_o, obs.c_o, obs.beta, a_a)
    return a_a


class Demo(Workload):
    """The bundled six-mode config through ``qobserver simulate``, in process."""

    name = "demo"
    setup_modules = ("qobserver.cli",)
    expected = frozenset({
        "config.load_s", "analysis.decompose_s", "model.conditions_s",
        "model.checks_per_op", "synthesis.synthesize_s", "synthesis.assemble_s",
        "synthesis.accepted", "simulation.propagate_s", "simulation.average_s",
        "simulation.record_mb", "simulation.grid_points", "cli.command_s",
        "cli.output_s"})

    def __init__(self, root: Path, seed: int, workdir: Path):
        # The input is the bundled config; the seed has nothing to draw.
        self.config_path = root / "configs" / "sixmode.json"
        if not self.config_path.is_file():
            raise FileNotFoundError(self.config_path)
        doc = json.loads(self.config_path.read_text())
        self.n_p, self.m = doc["n_p"], doc["m"]
        self.r_p = np.array(doc["r_p"], dtype=float).reshape(self.n_p, self.n_p)
        self.c2 = np.array(doc["c_p2_tilde"], dtype=float).reshape(self.m, -1)
        self.out_dir = workdir / "demo"
        self.verified: dict[str, Outcome] = {}

    def run(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["simulate", str(self.config_path), str(self.out_dir)])

    def _trajectory(self, name: str):
        data = np.loadtxt(self.out_dir / name, delimiter=",", skiprows=1, ndmin=2)
        return data[:, 0], data[:, 1:].reshape(len(data), self.m, -1)

    def check(self, exit_code) -> Outcome:
        """Outputs byte-identical to ones already verified pass as those did."""
        if exit_code != 0:
            raise CheckFailed(f"qobserver simulate exited with {exit_code}")
        digest = hashlib.sha256()
        for path in sorted(self.out_dir.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        key = digest.hexdigest()
        if key not in self.verified:
            self.verified[key] = self._verify()
        return self.verified[key]

    def _verify(self) -> Outcome:
        report = json.loads((self.out_dir / "report.json").read_text())
        obs = {k: np.array(report["observer"][k], dtype=float)
               for k in ("r_o", "c_o", "beta", "r_c")}
        n_o = self.m if self.m % 2 == 0 else self.m + 1
        # omega = 1 and no observer matrices in the config: R_o = I,
        # C_o = [I, 0], beta = -R_o C_o^T (C_o C_o^T)^-1.
        c_o = np.hstack([np.eye(self.m), np.zeros((self.m, n_o - self.m))])
        for key, want in (("r_o", np.eye(n_o)), ("c_o", c_o), ("beta", -c_o.T)):
            if obs[key].shape != want.shape or not np.allclose(obs[key], want, atol=1e-12):
                raise CheckFailed(f"reported {key} is not the default observer choice")
        a_a = checks.augmented_dynamics(self.r_p, obs["r_c"], obs["r_o"])

        times, zp = self._trajectory("zp.csv")
        checks.check_drift(zp)
        c_p = zp[0, :, :self.n_p]
        # C_p = [0, c_p2_tilde] P^T with P orthogonal keeps the config's norm.
        if abs(np.linalg.norm(c_p) - np.linalg.norm(self.c2)) > 1e-12 * np.linalg.norm(self.c2):
            raise CheckFailed("plant output selector does not keep the norm of c_p2_tilde")
        checks.check_design(self.m, c_p, obs["r_o"], obs["c_o"], obs["beta"], a_a)
        _, zo = self._trajectory("zo.csv")
        sel_o = np.hstack([np.zeros((self.m, self.n_p)), obs["c_o"]])
        dev = checks.check_expm(times, [(zo, sel_o)], a_a, checks.checkpoint_indices(len(times)))
        _, zo_avg = self._trajectory("zo_avg.csv")
        bias = checks.check_closed_form_average(times, zo_avg, zp[0], sel_o - zp[0])
        written = sum(p.stat().st_size for p in self.out_dir.iterdir())
        return Outcome(stats={"simulation.propagate_dev": dev, "simulation.avg_bias": bias,
                              "cli.output_mb": written / 1e6})

    def round(self) -> list[Op]:
        return [Op("sixmode", self.run, self.check)]


class LargePlant(Workload):
    """One n_p = 200 plant, m = 3 and m = 4, through the library calls of simulate."""

    name = "large_plant"
    expected = frozenset({
        "analysis.decompose_s", "model.conditions_s", "model.checks_per_op",
        "synthesis.synthesize_s", "synthesis.assemble_s", "synthesis.accepted",
        "simulation.propagate_s", "simulation.average_s", "simulation.record_mb",
        "simulation.grid_points"})

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.plants = inputs.large_plants(seed)
        self.paths = [p.write(workdir) for p in self.plants]
        self.configs = [config.load_config(p) for p in self.paths]

    def setup_inputs(self) -> list[Path]:
        return self.paths

    def _check(self, plant_in: inputs.Plant, result) -> Outcome:
        plant, obs, record, conv = result
        a_a = _check_design(plant_in.r_p, plant, obs)
        checks.check_drift(record.zp_coeffs)
        sel_p = np.hstack([plant.c, np.zeros((plant.m, obs.n_o))])
        sel_o = np.hstack([np.zeros((plant.m, plant.n)), obs.c_o])
        dev = checks.check_expm(record.times, [(record.zp_coeffs, sel_p),
                                               (record.zo_coeffs, sel_o)],
                                a_a, checks.checkpoint_indices(len(record.times)))
        checks.check_slope(record.times, record.zo_avg, sel_p)
        if not conv.passed:
            raise CheckFailed(f"qobserver reports convergence failed: {conv}")
        return Outcome(stats={"simulation.propagate_dev": dev})

    def round(self) -> list[Op]:
        return [Op(p.name, lambda cfg=cfg: _simulate_library(cfg),
                   lambda result, p=p: self._check(p, result))
                for p, cfg in zip(self.plants, self.configs)]


class DesignSweep(Workload):
    """A few hundred generated plants through ``qobserver synthesize``, in process."""

    name = "design_sweep"
    setup_modules = ("qobserver.cli",)
    expected = frozenset({
        "config.load_s", "analysis.decompose_s", "model.conditions_s",
        "model.checks_per_op", "model.refused", "synthesis.synthesize_s",
        "synthesis.accepted", "cli.command_s", "cli.output_s"})

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.plants = inputs.sweep_plants(seed)
        self.paths = [p.write(workdir) for p in self.plants]
        self.csv_paths = [workdir / f"{p.name}.csv" for p in self.plants]
        self.verified: dict[tuple[int, str], Outcome] = {}

    def run(self, i: int):
        """``cli.cmd_synthesize``, the command behind ``qobserver synthesize CONFIG CSV``.

        Returns its report, or the ``PlantConditionError`` that refused the plant.
        """
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.cmd_synthesize(self.paths[i], self.csv_paths[i])
        except synthesis.PlantConditionError as exc:
            return exc

    def check(self, i: int, result) -> Outcome:
        """A design identical to one already verified passes as that one did."""
        plant_in = self.plants[i]
        if isinstance(result, synthesis.PlantConditionError):
            # A valid plant refused is a failed operation, not a wrong answer.
            return Outcome(failed=plant_in.valid)
        if not plant_in.valid:
            raise CheckFailed(f"{plant_in.name} ({plant_in.kind}) was not refused")
        written = self.csv_paths[i].read_bytes()
        digest = hashlib.sha256(written + json.dumps(result.observer).encode()).hexdigest()
        if (i, digest) not in self.verified:
            self.verified[i, digest] = self._verify(i, result.observer, written)
        return self.verified[i, digest]

    def _verify(self, i: int, observer: dict, written: bytes) -> Outcome:
        plant_in = self.plants[i]
        mats = checks.read_long_csv(written.decode())
        for key in ("r_o", "c_o", "beta", "r_c"):
            if key not in mats or not np.array_equal(mats[key], np.array(observer[key])):
                raise CheckFailed(f"{key} in the written CSV differs from the report")
        # C_p is the program's choice of output basis; the check takes it from
        # the program and judges the design against it.
        plant, _ = build_plant(load_config(self.paths[i]))
        a_a = checks.augmented_dynamics(plant_in.r_p, mats["r_c"], mats["r_o"])
        checks.check_design(plant_in.m, plant.c, mats["r_o"], mats["c_o"], mats["beta"], a_a)
        return Outcome(stats={"cli.output_mb": len(written) / 1e6})

    def round(self) -> list[Op]:
        return [Op(p.name, lambda i=i: self.run(i), lambda result, i=i: self.check(i, result))
                for i, p in enumerate(self.plants)]


WORKLOADS = {w.name: w for w in (Demo, LargePlant, DesignSweep)}
