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
import numbers
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .analysis import decompose_plant, plant_from_transformed_output
from .model import CONDITION_TOL, QuantumLinearSystem, make_commutation_matrix
from .synthesis import _observer_order

__all__ = ["ConfigError", "PlantConfig", "load_config", "save_config", "build_plant"]

FORMAT_VERSION = 1

# The nested JSON sections and the PlantConfig fields each one holds; every
# other field sits at the top level of the document.
SECTIONS = {"observer": ("omega", "r_o", "c_o", "beta"),
            "simulation": ("t_end", "dt", "zero_coupling")}
_SECTION_OF = {name: section for section, names in SECTIONS.items() for name in names}

# Scalar annotation (a string: annotations are postponed) -> the values it
# accepts and the type it stores.  bool is no number: JSON true is not 1.
_SCALARS = {"int": (numbers.Integral, int), "float": (numbers.Real, float),
            "bool": (bool, bool)}


class ConfigError(ValueError):
    """A configuration file could not be parsed or is inconsistent."""


@dataclass
class PlantConfig:
    """A run's inputs; the defaults below are the only statement of each default."""

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
        for field in fields(self):
            if field.type not in _SCALARS:
                continue
            (kind, stored), value = _SCALARS[field.type], getattr(self, field.name)
            if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
                raise ConfigError(f"{field.name} must be of type {field.type}, got {value!r}")
            try:
                setattr(self, field.name, stored(value))
            except OverflowError:
                raise ConfigError(f"{field.name} is beyond floating-point range") from None
        if self.n_p < 2 or self.n_p % 2 != 0:
            raise ConfigError(f"n_p must be a positive even integer, got {self.n_p}")
        if self.m < 1:
            raise ConfigError(f"m must be at least 1, got {self.m}")
        if (self.c_p is None) == (self.c_p2_tilde is None):
            raise ConfigError("exactly one of c_p / c_p2_tilde must be given")
        self.r_p = _matrix("r_p", self.r_p, (self.n_p, self.n_p))
        if self.c_p2_tilde is not None:
            c2 = _matrix("c_p2_tilde", self.c_p2_tilde)
            if c2.size == 0 or c2.size % self.m != 0:
                raise ConfigError(f"c_p2_tilde has {c2.size} entries, "
                                  f"not a positive multiple of m = {self.m}")
            self.c_p2_tilde = c2.reshape(self.m, -1)
        n_o = _observer_order(self.m)
        for name, shape in (("c_p", (self.m, self.n_p)), ("r_o", (n_o, n_o)),
                            ("c_o", (self.m, n_o)), ("beta", (n_o, self.m))):
            if getattr(self, name) is not None:
                setattr(self, name, _matrix(name, getattr(self, name), shape))
        if not 0 < self.dt <= self.t_end < np.inf:
            raise ConfigError(
                f"simulation horizon invalid: t_end = {self.t_end}, dt = {self.dt}")
        for name in ("omega", "tol"):
            if not 0 < getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be positive and finite, got {getattr(self, name)}")


def _matrix(name: str, values, shape: tuple | None = None) -> np.ndarray:
    try:
        arr = np.asarray(values)
    except ValueError as exc:
        raise ConfigError(f"field {name}: {exc}") from None
    if arr.dtype.kind not in "iuf" or not np.all(np.isfinite(arr)):
        raise ConfigError(f"field {name}: entries must be finite numbers")
    arr = arr.astype(float, copy=False).ravel()
    if shape is None:
        return arr
    if arr.size != shape[0] * shape[1]:
        raise ConfigError(f"field {name}: expected {shape[0] * shape[1]} "
                          f"entries (row-major {shape[0]}x{shape[1]}), got {arr.size}")
    return arr.reshape(shape)


def config_to_dict(cfg: PlantConfig) -> dict:
    """JSON document of ``cfg``: each set matrix and each field off its default."""
    doc = {"format_version": FORMAT_VERSION}
    for field in fields(cfg):
        value = getattr(cfg, field.name)
        if isinstance(value, np.ndarray):
            value = [float(v) for v in value.ravel()]
        elif value == field.default:
            continue
        section = _SECTION_OF.get(field.name)
        (doc.setdefault(section, {}) if section else doc)[field.name] = value
    return doc


def _json_object(where: str, doc, known) -> dict:
    """``doc``, once it is a JSON object whose keys are all ``known``."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(doc) - set(known)
    if unknown:
        raise ConfigError(f"unknown fields in {where}: {sorted(unknown)}")
    return doc


def config_from_dict(doc: dict) -> PlantConfig:
    """Inverse of ``config_to_dict``; an absent or null field takes its default."""
    _json_object("configuration root", doc, {"format_version", *SECTIONS} | {
        field.name for field in fields(PlantConfig) if field.name not in _SECTION_OF})
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ConfigError(f"unsupported format_version {version!r}, expected {FORMAT_VERSION}")
    parts = {None: doc} | {
        section: _json_object(f"section {section}", doc.get(section, {}), names)
        for section, names in SECTIONS.items()}
    values = {}
    for field in fields(PlantConfig):
        value = parts[_SECTION_OF.get(field.name)].get(field.name)
        if value is not None:
            values[field.name] = value
        elif field.default is MISSING:
            raise ConfigError(f"missing required field {field.name}")
    return PlantConfig(**values)


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
    original coordinates).  An invalid plant raises the library's own
    ``ValueError``, unchanged.
    """
    theta = make_commutation_matrix(cfg.n_p // 2)
    if cfg.c_p2_tilde is not None:
        return plant_from_transformed_output(theta, cfg.r_p, cfg.c_p2_tilde)
    plant = QuantumLinearSystem(theta=theta, r=cfg.r_p, c=cfg.c_p)
    return plant, decompose_plant(plant)
