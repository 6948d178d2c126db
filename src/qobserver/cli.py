"""Command-line front end: analyze, synthesize, simulate, demo.

Exit codes: 0 all checks passed, 1 a structural or convergence check
failed (``PlantConditionError`` included), 2 any other refused input: a
``ValueError`` or ``OSError`` from any layer.  ``main`` alone maps errors
to these codes.
Every CSV value is written by orjson as the shortest decimal that re-reads
to the same double, so re-ingesting a file reproduces the exact
floating-point values; a non-finite value is refused, never written.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import orjson

from .analysis import DecomposedPlant, transformed_condition_check
from .config import PlantConfig, build_plant, load_config
from .demo import sixmode_config
from .model import ConditionReport, check_plant_conditions
from .simulation import _check_record, propagate, time_average_error, time_grid
from .synthesis import ObserverDesign, PlantConditionError, assemble_augmented, synthesize_observer

__all__ = ["RunReport", "main", "cmd_analyze", "cmd_synthesize", "cmd_simulate",
           "cmd_demo", "write_matrices_csv", "write_trajectory_csv"]

# Values formatted at a time: only one block's text is alive at once.
_BLOCK_VALUES = 1 << 16


@dataclasses.dataclass
class RunReport:
    """Aggregated, JSON-serializable outcome of a pipeline run."""

    conditions: dict
    decomposition: dict | None = None
    observer: dict | None = None
    convergence: dict | None = None
    csv_files: list = dataclasses.field(default_factory=list)
    passed: bool = False

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------

def _decimals(values: np.ndarray, path) -> bytes:
    """The JSON array of the float64 ``values``, each the shortest decimal that re-reads to it."""
    if not np.isfinite(values).all():
        raise ValueError(f"{path}: refusing to write a non-finite value")
    return orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)


def write_trajectory_csv(path, times: np.ndarray, coeffs: np.ndarray, stream: str):
    """Write coefficient trajectories: columns t, z{stream}_{i}_x{j} (1-based)."""
    n_t = len(times)
    m, n = coeffs.shape[1], coeffs.shape[2]
    header = ["t"] + [f"z{stream}_{i + 1}_x{j + 1}"
                      for i in range(m) for j in range(n)]
    times, flat = np.asarray(times).reshape(n_t, 1), coeffs.reshape(n_t, m * n)
    rows = max(1, _BLOCK_VALUES // (m * n + 1))
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\n")
        for k in range(0, n_t, rows):
            block = np.concatenate((times[k:k + rows], flat[k:k + rows]), axis=1, dtype=float)
            fh.write(_decimals(block, path)[2:-2].replace(b"],[", b"\n") + b"\n")


def write_matrices_csv(path, matrices: dict):
    """Write named matrices in long form: matrix,row,col,value (0-based), CRLF-ended."""
    lines = [b"matrix,row,col,value"]
    for name, mat in matrices.items():
        mat = np.atleast_2d(np.asarray(mat, dtype=float))
        values = _decimals(mat.ravel(), path)[1:-1].split(b",") if mat.size else []
        lines += [b"%s,%d,%d,%s" % (name.encode(), *divmod(k, mat.shape[1]), v)
                  for k, v in enumerate(values)]
    Path(path).write_bytes(b"\r\n".join(lines) + b"\r\n")


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

def _conditions_dict(report: ConditionReport) -> dict:
    doc = dataclasses.asdict(report)
    doc["all_ok"] = report.all_ok
    return doc


def _decomposition_dict(dec: DecomposedPlant) -> dict:
    return {
        "n_p1": dec.n_p1,
        "n_p2": dec.n_p2,
        "r_p11_eigenvalues": np.linalg.eigvalsh(dec.r_p11).tolist(),  # ascending
        "transformed_condition_residual": transformed_condition_check(dec),
        "residuals": {k: float(v) for k, v in dec.residuals.items()},
    }


def _observer_dict(obs: ObserverDesign) -> dict:
    return {
        "n_o": obs.n_o,
        "consistency_residual": obs.consistency_residual,
        "r_o": obs.r_o.tolist(),
        "c_o": obs.c_o.tolist(),
        "beta": obs.beta.tolist(),
        "r_c_tilde": obs.r_c_tilde.tolist(),
        "r_c": obs.r_c.tolist(),
        "theta_o": obs.theta_o.tolist(),
    }


def _write_report(report: RunReport, path) -> None:
    """The report as strict JSON, each non-finite float written as "inf", "-inf" or "nan"."""
    doc = json.loads(json.dumps(report.to_dict()), parse_constant=lambda name: str(float(name)))
    Path(path).write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n")


def _print_conditions(report: ConditionReport):
    for name, ok in report.flags.items():
        print(f"  {name:<12} {'pass' if ok else 'FAIL'}")
    print(f"  rank of dynamics span: {report.rank_cr}, "
          f"constant coordinates: {report.n_p2}")
    if not report.all_ok:
        print(f"  residuals: {report.residuals}")


# ---------------------------------------------------------------------------
# Pipeline stages
# ---------------------------------------------------------------------------

def _design(cfg: PlantConfig):
    """``(plant, dec, obs)``; synthesis judges the conditions into ``obs.conditions``."""
    plant, dec = build_plant(cfg)
    obs = synthesize_observer(dec, omega=cfg.omega, r_o=cfg.r_o,
                              c_o=cfg.c_o, beta=cfg.beta, condition_tol=cfg.tol)
    return plant, dec, obs


def cmd_analyze(config_path, report_path=None, **overrides) -> RunReport:
    cfg = dataclasses.replace(load_config(config_path), **overrides)
    plant, dec = build_plant(cfg)
    conditions = check_plant_conditions(plant, cfg.tol)
    report = RunReport(
        conditions=_conditions_dict(conditions),
        decomposition=_decomposition_dict(dec),
        passed=conditions.all_ok,
    )
    print(f"analyze {config_path}: {'PASS' if report.passed else 'FAIL'}")
    _print_conditions(conditions)
    if report_path:
        _write_report(report, report_path)
    return report


def cmd_synthesize(config_path, out_path, report_path=None, **overrides) -> RunReport:
    cfg = dataclasses.replace(load_config(config_path), **overrides)
    _, dec, obs = _design(cfg)
    write_matrices_csv(out_path, {
        "r_o": obs.r_o, "r_c": obs.r_c, "r_c_tilde": obs.r_c_tilde,
        "c_o": obs.c_o, "beta": obs.beta, "theta_o": obs.theta_o,
    })
    report = RunReport(
        conditions=_conditions_dict(obs.conditions),
        decomposition=_decomposition_dict(dec),
        observer=_observer_dict(obs),
        csv_files=[str(out_path)],
        passed=True,
    )
    print(f"synthesize {config_path}: observer order {obs.n_o}, "
          f"matrices written to {out_path}")
    if report_path:
        _write_report(report, report_path)
    return report


def cmd_simulate(config_path, out_dir, **overrides) -> RunReport:
    report = _simulate(dataclasses.replace(load_config(config_path), **overrides),
                       out_dir, label=str(config_path))
    _write_report(report, Path(out_dir) / "report.json")
    return report


def _simulate(cfg: PlantConfig, out_dir, label: str) -> RunReport:
    """Design, propagate, judge and write the CSVs; the caller writes ``report.json``."""
    plant, dec, obs = _design(cfg)
    if cfg.zero_coupling:
        obs = dataclasses.replace(obs, r_c=np.zeros_like(obs.r_c),
                                  r_c_tilde=np.zeros_like(obs.r_c_tilde))
    aug = assemble_augmented(plant, obs)
    # the CSVs are n wide: judged before time_grid allocates the times
    _check_record(cfg.t_end / cfg.dt + 1, aug.m, aug.n)
    times = time_grid(cfg.t_end, cfg.dt)
    record = propagate(aug, times)
    convergence = time_average_error(record, aug)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    for name, coeffs, stream in (("zp.csv", record.zp_coeffs, "p"),
                                 ("zo.csv", record.zo_coeffs, "o"),
                                 ("zo_avg.csv", record.zo_avg, "o_avg")):
        path = out_dir / name
        write_trajectory_csv(path, record.times, coeffs, stream)
        files.append(str(path))

    print(f"simulate {label}: t_end = {float(times[-1])}, dt = {cfg.dt}")
    print(f"  reduction resid {convergence.reduction_residual:.3e}")
    print(f"  final avg error {convergence.final_error:.3e}")
    slope = convergence.decay_slope
    print(f"  decay slope     {'n/a' if slope is None else f'{slope:.3f}'}")
    failure = convergence.first_failure
    print(f"  convergence     {'PASS' if failure is None else f'FAIL: {failure}'}")
    return RunReport(
        conditions=_conditions_dict(obs.conditions),
        decomposition=_decomposition_dict(dec),
        observer=_observer_dict(obs),
        convergence=dataclasses.asdict(convergence),
        csv_files=files,
        passed=convergence.passed,
    )


def cmd_demo(out_dir="qobserver-demo") -> RunReport:
    """Run the bundled six-mode example end to end and check the paper's reference values.

    The convergence verdict, printed by the simulation, covers the reduction residual and
    the decay slope.
    """
    report = _simulate(sixmode_config(), out_dir, label="six-mode demo")
    dec_doc, obs_doc = report.decomposition, report.observer
    expected_rct = [[-1.0, -1.0], [-1.0, -1.0], [-1.0, 1.0], [-1.0, 1.0]]
    checks = [
        ("block sizes (2, 4)", (dec_doc["n_p1"], dec_doc["n_p2"]) == (2, 4)),
        ("dynamical Hamiltonian block eigenvalues {0, 6}",
         np.allclose(dec_doc["r_p11_eigenvalues"], [0.0, 6.0], atol=1e-9)),
        ("coupling block matches reference exactly",
         obs_doc["r_c_tilde"] == expected_rct),
        ("consistency residual = 0", obs_doc["consistency_residual"] == 0.0),
    ]
    print("\nsix-mode demo reference checks")
    for label, ok in checks:
        print(f"  {label:<50} {'PASS' if ok else 'FAIL'}")
    report.passed = report.passed and all(ok for _, ok in checks)
    _write_report(report, Path(out_dir) / "report.json")
    return report


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qobserver",
        description="Analyze quantum plants, synthesize direct-coupling "
                    "observers, simulate the coupled system.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="check plant conditions and decompose")
    p.add_argument("config")
    p.add_argument("--report", help="write the JSON report to this path")
    p.add_argument("--tol", type=float, help="condition-check tolerance")

    p = sub.add_parser("synthesize", help="construct the observer matrices")
    p.add_argument("config")
    p.add_argument("out", help="output CSV file for the observer matrices")
    p.add_argument("--report", help="write the JSON report to this path")
    p.add_argument("--omega", type=float, help="observer stiffness")
    p.add_argument("--tol", type=float, help="condition-check tolerance")

    p = sub.add_parser("simulate", help="run the full pipeline and emit trajectories")
    p.add_argument("config")
    p.add_argument("out_dir", help="directory for zp.csv, zo.csv, zo_avg.csv, report.json")
    p.add_argument("--t-end", type=float, dest="t_end")
    p.add_argument("--dt", type=float)
    p.add_argument("--omega", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--zero-coupling", action="store_true", default=None,
                   help="force zero coupling (diagnostic; convergence will fail)")

    p = sub.add_parser("demo", help="run the bundled six-mode example")
    p.add_argument("--out-dir", default="qobserver-demo")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # Option dests are PlantConfig field names: every one the command set overrides.
    overrides = {field.name: getattr(args, field.name) for field in dataclasses.fields(PlantConfig)
                 if getattr(args, field.name, None) is not None}
    try:
        if args.command == "analyze":
            report = cmd_analyze(args.config, args.report, **overrides)
        elif args.command == "synthesize":
            report = cmd_synthesize(args.config, args.out, args.report, **overrides)
        elif args.command == "simulate":
            report = cmd_simulate(args.config, args.out_dir, **overrides)
        else:
            report = cmd_demo(args.out_dir)
    except PlantConditionError as exc:  # a ValueError too, so it is caught first
        print(f"synthesis refused: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # configuration errors and LinAlgError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
