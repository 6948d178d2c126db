"""Generated configurations: JSON round trips and malformed documents."""

import dataclasses
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qobserver.config import ConfigError, PlantConfig, config_from_dict

from conftest import config_to_dict

# Derandomized and bounded, so that every run checks the same examples quickly.
PROFILE = settings(derandomize=True, max_examples=60, deadline=None, database=None)

FIELDS = {field.name: field for field in dataclasses.fields(PlantConfig)}
SECTIONS = {"observer": ("omega", "r_o", "c_o", "beta"),
            "simulation": ("t_end", "dt", "zero_coupling")}
KNOWN = {"format_version", *SECTIONS, *FIELDS}

finite = st.floats(-1e3, 1e3, allow_nan=False)


def matrix(rows, cols):
    return arrays(float, (rows, cols), elements=finite)


def default_or(name, values):
    """The field's default or a generated value, with the default drawn often."""
    return st.one_of(st.just(FIELDS[name].default), values)


@st.composite
def valid_configs(draw):
    n_p = 2 * draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    n_o = m if m % 2 == 0 else m + 1
    if draw(st.booleans()):
        output = {"c_p": draw(matrix(m, n_p))}
    else:
        output = {"c_p2_tilde": draw(matrix(m, draw(st.integers(1, 3))))}
    observer = {name: draw(st.none() | matrix(*shape)) for name, shape in
                (("r_o", (n_o, n_o)), ("c_o", (m, n_o)), ("beta", (n_o, m)))}
    return PlantConfig(
        n_p=n_p, m=m, r_p=draw(matrix(n_p, n_p)), **output, **observer,
        omega=draw(default_or("omega", st.floats(1e-3, 1e3))),
        t_end=draw(default_or("t_end", st.floats(1.0, 1e3))),
        dt=draw(default_or("dt", st.floats(1e-3, 1.0))),
        zero_coupling=draw(st.booleans()),
        tol=draw(default_or("tol", st.floats(1e-15, 1.0))),
    )


def located(doc, name):
    """The JSON object in ``doc`` that holds field ``name``."""
    section = next((s for s, names in SECTIONS.items() if name in names), None)
    return doc.get(section, {}) if section else doc


@PROFILE
@given(valid_configs())
def test_json_round_trip_keeps_every_field(cfg):
    doc = config_to_dict(cfg)
    loaded = config_from_dict(json.loads(json.dumps(doc)))
    for name, field in FIELDS.items():
        before, after = getattr(cfg, name), getattr(loaded, name)
        if isinstance(before, np.ndarray):
            assert np.array_equal(before, after) and after.shape == before.shape
            assert name in located(doc, name)
        else:
            assert before == after and type(before) is type(after)
            assert (name in located(doc, name)) == (before != field.default)


def wrong_values():
    return st.one_of(st.text(max_size=3), st.booleans(), st.integers(), st.floats(),
                     st.lists(st.text(max_size=2), max_size=3),
                     st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
                     st.just(10**400), st.just([[1.0], [1.0, 2.0]]))


@st.composite
def mutated_docs(draw):
    """A valid document with one key dropped, one unknown key added beside it, or
    its value replaced; returns the document and whether it must be refused."""
    doc = json.loads(json.dumps(config_to_dict(draw(valid_configs()))))
    holder = draw(st.sampled_from([doc] + [doc[s] for s in SECTIONS if s in doc]))
    key = draw(st.sampled_from(sorted(holder)))
    action = draw(st.sampled_from(["drop", "unknown", "retype"]))
    if action == "drop":
        del holder[key]
    elif action == "unknown":
        holder[draw(st.text(min_size=1).filter(lambda k: k not in KNOWN))] = holder[key]
    else:
        holder[key] = draw(wrong_values())
    return doc, action == "unknown"


@PROFILE
@given(mutated_docs())
def test_mutated_documents_load_or_raise_config_error(mutation):
    doc, must_refuse = mutation
    try:
        config_from_dict(doc)
    except ConfigError:
        return
    assert not must_refuse
