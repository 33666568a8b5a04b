"""Hand-checked cases for the benchmark's reference computations.

    python3 -m pytest perfbench/tests -q
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import reference  # noqa: E402


def forward(n, edges, features, intensities):
    table, mask, degrees = reference.neighbour_table(n, edges)
    columns = np.asarray(features, dtype=np.float64)[:, None]
    layers = np.asarray(intensities, dtype=np.float64)[:, None]
    return [s[:, 0] for s in reference.dense_forward(table, mask, columns, layers)], degrees


STAR = [(0, 1), (0, 2), (0, 3)]
PATH = [(0, 1), (1, 2)]


@pytest.mark.parametrize("t", [0.0, 0.5, 2.0])
def test_star_centre_weights_agreeing_leaves_by_e_to_the_2t(t):
    out, _ = forward(4, STAR, [1.0, 2.0, -1.0, 3.0], [t])
    e = math.exp(2 * t)
    assert out[-1][0] == pytest.approx((5 * e - 1) / (2 * e + 1), rel=1e-14)
    # each leaf sees only the centre
    assert out[-1][1:].tolist() == [1.0, 1.0, 1.0]


def test_path_two_layers():
    out, _ = forward(3, PATH, [1.0, -2.0, 4.0], [1.0, 0.0])
    # layer 1: the middle node disagrees with both ends, so it averages them
    assert out[1].tolist() == [-2.0, 2.5, -2.0]
    assert out[2].tolist() == [2.5, -2.0, 2.5]


def test_zero_feature_counts_as_agreement():
    t = 10.0
    out, _ = forward(3, [(0, 1), (0, 2)], [2.0, 0.0, -4.0], [t])
    small = math.exp(-2 * t)
    assert out[1][0] == pytest.approx(-4.0 * small / (1.0 + small), rel=1e-12)
    # a zero centre agrees with every neighbour: plain average
    out, _ = forward(3, [(0, 1), (0, 2)], [0.0, 3.0, -5.0], [t])
    assert out[1][0] == -1.0


def test_isolated_node_outputs_zero_and_reads_out_wrong():
    out, degrees = forward(4, PATH, [1.0, 2.0, 3.0, 5.0], [1.0, 1.0])
    assert degrees.tolist() == [1, 2, 1, 0]
    assert out[1][3] == 0.0 and out[2][3] == 0.0
    correct, ambiguous = reference.accuracy_counts(
        out[2], np.array([1, 1, 1, 1]), degrees, np.array([1e-9]))
    assert correct.tolist() == [3] and ambiguous.tolist() == [0]


@pytest.mark.parametrize("t", [400.0, 1000.0])
def test_large_intensity_underflows_to_the_agreeing_average(t):
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        out, _ = forward(4, STAR, [1.0, 2.0, -1.0, 3.0], [t])
    assert out[-1][0] == 2.5
    # every neighbour disagrees: the limit is the plain average
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        out, _ = forward(3, [(0, 1), (0, 2)], [1.0, -2.0, -4.0], [t])
    assert out[-1][0] == -3.0


def test_columns_run_independently():
    table, mask, _ = reference.neighbour_table(4, STAR)
    x = np.array([[1.0, -1.0], [2.0, 2.0], [-1.0, 1.0], [3.0, 3.0]])
    both = reference.dense_forward(table, mask, x, [[0.5, 3.0]])[-1]
    for c, t in enumerate((0.5, 3.0)):
        alone = reference.dense_forward(table, mask, x[:, c], [[t]])[-1][:, 0]
        assert both[:, c].tolist() == alone.tolist()


def test_outputs_near_zero_are_ambiguous():
    final = np.array([1e-12, -3.0, 2.0, -1e-12])
    correct, ambiguous = reference.accuracy_counts(
        final, np.array([1, -1, -1, 1]), np.array([2, 2, 2, 2]), np.array([1e-9]))
    assert correct.tolist() == [1] and ambiguous.tolist() == [2]


def test_sampler_problems_flags_bad_edges_and_labels():
    labels, features = np.array([0, 1, 7]), np.zeros(3)
    assert "labels outside {0, 1}" in reference.sampler_problems(
        3, 0.9, 0.5, 1.0, 1.0, labels, features, np.array([[0, 1]]))
    ok = np.array([0, 1, 1])
    assert reference.sampler_problems(3, 0.9, 0.5, 1.0, 1.0, ok, features,
                                      np.array([[1, 0]])) == ["edge not an in-range pair i < j"]
    assert reference.sampler_problems(3, 0.9, 0.5, 1.0, 1.0, ok, features,
                                      np.array([[0, 1], [0, 1]])) == ["duplicate edges"]


def test_parse_graph_text_reads_features_bit_exact(tmp_path):
    x = 0.1 + 0.2
    path = tmp_path / "g.txt"
    path.write_text(f"2 0.5 0.25 1.0 2.0 7\n1 {x!r}\n0 -3.5\n0 1\n")
    g = reference.parse_graph_text(str(path))
    assert (g["n"], g["p"], g["q"], g["mu"], g["sigma"], g["seed"]) == (2, 0.5, 0.25, 1.0, 2.0, 7)
    assert g["features"][0] == x and g["labels"].tolist() == [1, 0]
    assert g["edges"].tolist() == [[0, 1]]
