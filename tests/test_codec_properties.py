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
from oracles import trajectory_csv_bytes

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


@st.composite
def blocked_runs(draw):
    """``(times, blocks)``: runs of rows from three m x n rows, two of them apart only in
    the sign of a zero, cut at drawn split points into blocks; a block of one repeated
    row may be drawn as that row broadcast, a view with a stride of 0."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    row, at = draw(arrays(float, (m, n), elements=doubles)), draw(st.integers(0, m * n - 1))
    pool = np.stack([row, row, draw(arrays(float, (m, n), elements=doubles))])
    pool[0].flat[at], pool[1].flat[at] = 0.0, -0.0
    runs = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(1, 5)), min_size=1,
                         max_size=6))
    coeffs = np.concatenate([np.repeat(pool[[i]], count, axis=0) for i, count in runs])
    times = draw(arrays(float, len(coeffs), elements=doubles))
    cuts = sorted(draw(st.sets(st.integers(1, len(coeffs) - 1))) if len(coeffs) > 1 else ())
    return times, [np.broadcast_to(b[0], b.shape) if same_bits(b, b[:1].repeat(len(b), 0))
                   and draw(st.booleans()) else b for b in np.split(coeffs, cuts)]


# Row 0 apart from a constant run, as in zp: a split on row 0's end, one and two rows
# after it, and none
STEP = np.concatenate([np.zeros((1, 1, 2)), np.ones((4, 1, 2))])


@PROFILE
@given(blocked_runs())
@example((np.arange(4.0), [np.array([[[-0.0]], [[0.0]], [[0.0]], [[-0.0]]])]))
@example((np.arange(5.0), np.split(STEP, [1])))
@example((np.arange(5.0), np.split(STEP, [2])))
@example((np.arange(5.0), np.split(STEP, [3])))
@example((np.arange(5.0), [STEP]))
def test_trajectory_csv_is_the_two_pass_formula(tmp_path_factory, trajectory):
    # a constant run is formatted once and joined to its times' text; the other rows
    # get their newlines in place: both must give the two-pass formula's bytes
    times, blocks = trajectory
    path = tmp_path_factory.getbasetemp() / "trajectory.csv"
    write_trajectory_csv(path, times, blocks, "zp")
    assert path.read_bytes() == trajectory_csv_bytes(times, blocks, "zp")


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
