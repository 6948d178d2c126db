"""Plant/observer run configurations: a small versioned JSON format.

Matrices are stored as flat row-major lists next to explicit dimension
fields so that shape errors are diagnosable at parse time.  The output
selector may be given either in original coordinates (``c_p``) or in the
rotated constant-block coordinates (``c_p2_tilde``); the latter is the
natural way to state a design and is mapped back through the decomposition
basis when the plant is built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import decompose_plant, plant_from_transformed_output
from .model import CONDITION_TOL, QuantumLinearSystem, make_commutation_matrix

__all__ = ["ConfigError", "PlantConfig", "load_config", "save_config", "build_plant"]

FORMAT_VERSION = 1


class ConfigError(ValueError):
    """A configuration file could not be parsed or is inconsistent."""


@dataclass
class PlantConfig:
    n_p: int
    m: int
    r_p: np.ndarray
    c_p: np.ndarray | None = None
    c_p2_tilde: np.ndarray | None = None
    omega: float = 1.0
    r_o: np.ndarray | None = None
    c_o: np.ndarray | None = None
    beta: np.ndarray | None = None
    t_end: float = 100.0
    dt: float = 0.01
    zero_coupling: bool = False
    tol: float = CONDITION_TOL

    def __post_init__(self):
        if self.n_p < 2 or self.n_p % 2 != 0:
            raise ConfigError(f"n_p must be a positive even integer, got {self.n_p}")
        if self.m < 1:
            raise ConfigError(f"m must be at least 1, got {self.m}")
        if (self.c_p is None) == (self.c_p2_tilde is None):
            raise ConfigError("exactly one of c_p / c_p2_tilde must be given")
        self.r_p = _shape("r_p", self.r_p, self.n_p * self.n_p, (self.n_p, self.n_p))
        if self.c_p is not None:
            self.c_p = _shape("c_p", self.c_p, self.m * self.n_p, (self.m, self.n_p))
        if self.c_p2_tilde is not None:
            c2 = np.atleast_2d(np.asarray(self.c_p2_tilde, dtype=float))
            if c2.size % self.m != 0:
                raise ConfigError(
                    f"c_p2_tilde has {c2.size} entries, not a multiple of m = {self.m}")
            self.c_p2_tilde = c2.reshape(self.m, -1)
        n_o = self.m if self.m % 2 == 0 else self.m + 1
        if self.r_o is not None:
            self.r_o = _shape("observer.r_o", self.r_o, n_o * n_o, (n_o, n_o))
        if self.c_o is not None:
            self.c_o = _shape("observer.c_o", self.c_o, self.m * n_o, (self.m, n_o))
        if self.beta is not None:
            self.beta = _shape("observer.beta", self.beta, n_o * self.m, (n_o, self.m))
        if not self.omega > 0:
            raise ConfigError(f"observer.omega must be positive, got {self.omega}")
        if not (self.t_end > 0 and self.dt > 0 and self.dt <= self.t_end):
            raise ConfigError(
                f"simulation horizon invalid: t_end = {self.t_end}, dt = {self.dt}")
        if not self.tol > 0:
            raise ConfigError(f"tol must be positive, got {self.tol}")


def _shape(name: str, values, expected_len: int, shape: tuple) -> np.ndarray:
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size != expected_len:
        raise ConfigError(f"field {name}: expected {expected_len} entries "
                          f"(row-major {shape[0]}x{shape[1]}), got {arr.size}")
    return arr.reshape(shape)


def _flat(a: np.ndarray | None):
    return None if a is None else [float(v) for v in np.asarray(a).ravel()]


def config_to_dict(cfg: PlantConfig) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "n_p": cfg.n_p,
        "m": cfg.m,
        "r_p": _flat(cfg.r_p),
    }
    if cfg.c_p is not None:
        doc["c_p"] = _flat(cfg.c_p)
    else:
        doc["c_p2_tilde"] = _flat(cfg.c_p2_tilde)
    observer = {}
    if cfg.omega != 1.0:
        observer["omega"] = cfg.omega
    for key, val in (("r_o", cfg.r_o), ("c_o", cfg.c_o), ("beta", cfg.beta)):
        if val is not None:
            observer[key] = _flat(val)
    if observer:
        doc["observer"] = observer
    doc["simulation"] = {"t_end": cfg.t_end, "dt": cfg.dt}
    if cfg.zero_coupling:
        doc["simulation"]["zero_coupling"] = True
    if cfg.tol != CONDITION_TOL:
        doc["tol"] = cfg.tol
    return doc


def config_from_dict(doc: dict) -> PlantConfig:
    if not isinstance(doc, dict):
        raise ConfigError("configuration root must be a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ConfigError(f"unsupported format_version {version!r}, expected {FORMAT_VERSION}")
    known = {"format_version", "n_p", "m", "r_p", "c_p", "c_p2_tilde",
             "observer", "simulation", "tol"}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown fields: {sorted(unknown)}")
    for required in ("n_p", "m", "r_p"):
        if required not in doc:
            raise ConfigError(f"missing required field {required}")
    observer = doc.get("observer", {})
    simulation = doc.get("simulation", {})
    if not isinstance(observer, dict) or not isinstance(simulation, dict):
        raise ConfigError("observer and simulation sections must be objects")
    try:
        return PlantConfig(
            n_p=int(doc["n_p"]),
            m=int(doc["m"]),
            r_p=doc["r_p"],
            c_p=doc.get("c_p"),
            c_p2_tilde=doc.get("c_p2_tilde"),
            omega=float(observer.get("omega", 1.0)),
            r_o=observer.get("r_o"),
            c_o=observer.get("c_o"),
            beta=observer.get("beta"),
            t_end=float(simulation.get("t_end", 100.0)),
            dt=float(simulation.get("dt", 0.01)),
            zero_coupling=bool(simulation.get("zero_coupling", False)),
            tol=CONDITION_TOL if doc.get("tol") is None else float(doc["tol"]),
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"malformed configuration: {exc}") from exc


def load_config(path) -> PlantConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return config_from_dict(doc)


def save_config(cfg: PlantConfig, path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(cfg), indent=2) + "\n")


def build_plant(cfg: PlantConfig):
    """Construct the plant and its decomposition from a configuration.

    Returns ``(plant, dec)``.  When the output is given as ``c_p2_tilde``
    the matrix is used verbatim in the decomposition (no round trip through
    original coordinates).
    """
    theta = make_commutation_matrix(cfg.n_p // 2)
    try:
        if cfg.c_p2_tilde is not None:
            plant, dec = plant_from_transformed_output(theta, cfg.r_p, cfg.c_p2_tilde)
        else:
            plant = QuantumLinearSystem(theta=theta, r=cfg.r_p, c=cfg.c_p)
            dec = decompose_plant(plant)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if plant.m != cfg.m:
        raise ConfigError(f"declared m = {cfg.m} but output selector has {plant.m} rows")
    return plant, dec
