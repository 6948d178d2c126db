"""Spans around calls into qobserver's layers, recorded from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
``qobserver`` module namespace that holds it, so calls between modules
(``cli`` calling ``config.build_plant``, ``synthesize_observer`` re-running
``check_plant_conditions``) are seen too; ``uninstall`` puts the originals
back.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

# Traced functions, as (module, function name) -> per-layer time metric.
TRACED = {
    ("qobserver.config", "load_config"): "config.load_s",
    ("qobserver.config", "build_plant"): "analysis.decompose_s",
    ("qobserver.analysis", "decompose_plant"): "analysis.decompose_s",
    ("qobserver.analysis", "plant_from_transformed_output"): "analysis.decompose_s",
    ("qobserver.analysis", "transformed_condition_check"): "analysis.decompose_s",
    ("qobserver.model", "check_plant_conditions"): "model.conditions_s",
    ("qobserver.synthesis", "synthesize_observer"): "synthesis.synthesize_s",
    ("qobserver.synthesis", "assemble_augmented"): "synthesis.assemble_s",
    ("qobserver.simulation", "propagate"): "simulation.propagate_s",
    ("qobserver.simulation", "time_average_error"): "simulation.average_s",
    ("qobserver.cli", "main"): "cli.command_s",
    ("qobserver.cli", "cmd_synthesize"): "cli.command_s",
    ("qobserver.cli", "write_trajectory_csv"): "cli.output_s",
    ("qobserver.cli", "write_matrices_csv"): "cli.output_s",
}
# Span names are "<module>.<function>".
TRACED_BY_SPAN = {f"{mod.split('.')[-1]}.{fname}": metric
                  for (mod, fname), metric in TRACED.items()}


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    error: str | None = None
    attrs: dict = field(default_factory=dict)


def _record_attrs(name: str, result) -> dict:
    """Sizes read off a result at the span boundary."""
    if name == "simulation.propagate":
        arrays = (result.times, result.zp_coeffs, result.zo_coeffs, result.zo_avg)
        return {"record_bytes": sum(a.size * a.itemsize for a in arrays),
                "grid_points": int(result.times.size)}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin_op(self) -> int:
        self.op += 1
        return self.op

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, self.op, parent, time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.attrs = _record_attrs(name, result)
            return result
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qobserver" or n.startswith("qobserver."))]
        for (mod_name, fname) in TRACED:
            original = getattr(sys.modules[mod_name], fname)
            wrapper = self._wrap(f"{mod_name.split('.')[-1]}.{fname}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def layer_summary(spans: list[Span], op_times: dict[int, float], rounds: int,
                  expected: set[str]) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced operations, and the expected ones never seen.

    ``op_times`` maps each traced operation to its wall time; ``rounds``
    counts the traced rounds.  Times and sizes are means per operation,
    designs accepted and refused are counts per round.  Time no span covers
    is ``trace.uncovered_s``; with it the layer times add up to
    ``trace.op_s``.
    """
    n_ops = len(op_times)
    own = self_times(spans)
    sums = {metric: 0.0 for metric in set(TRACED.values())}
    seen = set()
    for span, t in zip(spans, own):
        metric = TRACED_BY_SPAN[span.name]
        sums[metric] += t
        seen.add(metric)
    out = {metric: total / n_ops for metric, total in sums.items()}
    out["trace.op_s"] = sum(op_times.values()) / n_ops
    out["trace.uncovered_s"] = out["trace.op_s"] - sum(own) / n_ops

    propagations = [s for s in spans if s.name == "simulation.propagate" and s.attrs]
    out["simulation.record_mb"] = sum(s.attrs["record_bytes"] for s in propagations) / 1e6 / n_ops
    out["simulation.grid_points"] = sum(s.attrs["grid_points"] for s in propagations) / n_ops
    if propagations:
        seen.update({"simulation.record_mb", "simulation.grid_points"})
    checks = [s for s in spans if s.name == "model.check_plant_conditions"]
    out["model.checks_per_op"] = len(checks) / n_ops
    if checks:
        seen.add("model.checks_per_op")
    designs = [s for s in spans if s.name == "synthesis.synthesize_observer"]
    accepted = sum(s.error is None for s in designs)
    refused = sum(s.error == "PlantConditionError" for s in designs)
    out["synthesis.accepted"] = accepted / rounds
    out["model.refused"] = refused / rounds
    seen.update(name for name, n in (("synthesis.accepted", accepted),
                                     ("model.refused", refused)) if n)
    missing = sorted(expected - seen)
    for metric in missing:
        del out[metric]
    return out, missing

