"""Generated doubles: the CSV writers and the configuration parser are exact."""

import csv
import json
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qobserver.cli import write_matrices_csv, write_trajectory_csv
from qobserver.config import load_config

from conftest import same_bits

# Derandomized and bounded, so that every run checks the same examples quickly.
PROFILE = settings(derandomize=True, max_examples=80, deadline=None, database=None)

EDGES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
         -1.7976931348623157e308, 0.1, 1e22]
doubles = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def trajectories(draw):
    """``(times, coeffs)``: n_t times and an n_t x m x n array of coefficients."""
    n_t, m, n = draw(st.integers(1, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    return (draw(arrays(float, n_t, elements=doubles)),
            draw(arrays(float, (n_t, m, n), elements=doubles)))


@PROFILE
@given(trajectories())
@example((np.array(EDGES[:5]), np.array([EDGES[5:]] * 5).reshape(5, 1, -1)))
def test_trajectory_csv_round_trips_every_double(tmp_path_factory, trajectory):
    times, coeffs = trajectory
    path = tmp_path_factory.getbasetemp() / "trajectory.csv"
    write_trajectory_csv(path, times, [coeffs], "zo")
    read = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert same_bits(read[:, 0], times)
    assert same_bits(read[:, 1:], coeffs.reshape(len(times), -1))


@PROFILE
@given(arrays(float, st.tuples(st.integers(1, 3), st.integers(1, 4)), elements=doubles))
@example(np.array([EDGES]))
def test_matrices_csv_round_trips_every_double(tmp_path_factory, matrix):
    path = tmp_path_factory.getbasetemp() / "matrices.csv"
    write_matrices_csv(path, {"a": matrix})
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [(int(i), int(j)) for _, i, j, _ in rows] == list(np.ndindex(matrix.shape))
    assert same_bits([float(value) for *_, value in rows], matrix.ravel())


def spellings(value: float) -> list[str]:
    """JSON spellings of ``value`` that ``float()`` reads back to it exactly."""
    texts = [repr(value), "%.17g" % value, "%.25e" % value]
    if value == math.trunc(value):
        texts.append(str(int(value)))
    # "%.17g" spells -0.0 as the JSON integer -0, which is the integer 0
    return [t for t in texts if t != "-0"]


@PROFILE
@given(st.lists(st.tuples(st.one_of(doubles, doubles.map(math.trunc).map(float)),
                          st.integers(0, 3)), min_size=4, max_size=4))
@example([(-0.0, 0), (5e-324, 1), (1.7976931348623157e308, 2), (-1.7976931348623157e308, 3)])
def test_config_parses_each_spelling_to_the_double_float_reads(tmp_path_factory, entries):
    texts = [spellings(v)[k % len(spellings(v))] for v, k in entries]
    doc = json.dumps({"format_version": 1, "n_p": 2, "m": 1, "r_p": [0, 0, 0, 0],
                      "c_p": [1.0, 0.0]}).replace("[0, 0, 0, 0]", "[" + ", ".join(texts) + "]")
    path = tmp_path_factory.getbasetemp() / "config.json"
    path.write_text(doc)
    assert same_bits(load_config(path).r_p.ravel(), [float(t) for t in texts])
