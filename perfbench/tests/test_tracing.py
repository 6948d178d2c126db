"""Spans, self times and the per-layer summary."""

import json

import numpy as np

import tracing
import workloads
from conftest import ROOT
from qobserver import model, synthesis


def test_self_time_subtracts_children():
    spans = [tracing.Span("synthesis.synthesize_observer", 0, None, 0.0, 10.0),
             tracing.Span("model.check_plant_conditions", 0, 0, 1.0, 4.0),
             tracing.Span("model.check_plant_conditions", 0, 0, 5.0, 6.0)]
    assert tracing.self_times(spans) == [6.0, 3.0, 1.0]


def test_install_sees_calls_between_modules_and_uninstall_restores():
    original = model.check_plant_conditions
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert synthesis.check_plant_conditions is not original
        workloads._simulate_library(workloads.config.PlantConfig(
            n_p=6, m=2, r_p=np.ones((6, 6)),
            c_p2_tilde=np.array([[1.0, 1, 1, 1], [1, 1, -1, -1]]), t_end=10.0, dt=0.1))
    finally:
        tracer.uninstall()
    assert model.check_plant_conditions is original
    assert synthesis.check_plant_conditions is original
    names = [s.name for s in tracer.spans]
    # The re-check inside synthesize_observer is a child of its span.
    nested = [s for s in tracer.spans if s.name == "model.check_plant_conditions"
              and s.parent is not None]
    assert [tracer.spans[s.parent].name for s in nested] == ["synthesis.synthesize_observer"]
    assert names.count("model.check_plant_conditions") == 2
    assert "simulation.propagate" in names


def test_summary_accounts_for_op_time_and_names_missing_spans():
    spans = [tracing.Span("config.load_config", 0, None, 0.0, 1.0),
             tracing.Span("synthesis.synthesize_observer", 0, None, 2.0, 5.0,
                          error="PlantConditionError"),
             tracing.Span("model.check_plant_conditions", 0, 1, 2.5, 4.5)]
    values, missing = tracing.layer_summary(
        spans, {0: 6.0}, 1, {"config.load_s", "model.conditions_s", "simulation.propagate_s"})
    assert missing == ["simulation.propagate_s"]
    assert "simulation.propagate_s" not in values
    assert values["config.load_s"] == 1.0
    assert values["model.conditions_s"] == 2.0
    assert values["synthesis.synthesize_s"] == 1.0
    assert values["trace.uncovered_s"] == 2.0
    layers = sum(values[m] for m in set(tracing.TRACED.values()) if m in values)
    assert layers + values["trace.uncovered_s"] == values["trace.op_s"]
    assert values["model.refused"] == 1 and values["synthesis.accepted"] == 0


def test_traced_metrics_and_workloads_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in doc["per_layer"]}
    assert set(tracing.TRACED.values()) <= declared
    for workload in workloads.WORKLOADS.values():
        assert workload.expected <= declared
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
