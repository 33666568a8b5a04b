"""Forward pass against a per-node brute-force aggregation oracle."""

import math

import numpy as np
import pytest

from csbmlab import (CsbmParams, FeaturedGraph, LayerSchedule, ParameterError, ScheduleError,
                     SignSym, Uniform, forward_layer, gatstar_schedule, run_network,
                     sample_csbm)
from scoring_oracle import attention_coefficients


def brute_force_layer(graph, features, spec):
    """Independent per-node aggregation via the coefficient API."""
    out = np.zeros(graph.n)
    for i in range(graph.n):
        nbrs = graph.neighbors_of(i)
        if nbrs.size == 0:
            continue
        row = attention_coefficients(features, i, nbrs, spec)
        out[i] = float(np.dot(row.coefficients, features[nbrs]))
    return out


def hand_graph():
    labels = [0, 0, 1, 1, 1]
    features = [1.2, -0.4, 0.9, -2.0, 3.3]
    edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (0, 4)]
    return FeaturedGraph.from_edges(labels, features, edges)


def edge_case_graph():
    """The hand graph plus an edge 5-6 and an isolated node 7."""
    edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (0, 4), (5, 6)]
    return FeaturedGraph.from_edges([0, 0, 1, 1, 1, 0, 1, 0],
                                    [1.2, -0.4, 0.9, -2.0, 3.3, 1.0, -2.0, 0.7], edges)


# Columns of an (8, 4) feature block on edge_case_graph: the graph's own
# features (node 5's only neighbour disagrees with it); zero centres and
# zero neighbours; the first column negated; tiny features whose pairwise
# products underflow.
EDGE_CASE_BLOCK = np.array([
    [1.2, -0.4, 0.9, -2.0, 3.3, 1.0, -2.0, 0.7],
    [0.0, -0.4, 0.0, -2.0, 3.3, 0.0, 0.0, 0.0],
    [-1.2, 0.4, -0.9, 2.0, -3.3, -1.0, 2.0, -0.7],
    [1e-200, -1e-200, 3e-200, -2e-200, 5e-201, 1e-200, 2e-200, 0.0],
]).T

LAYER_SPECS = [Uniform(), SignSym(0.0), SignSym(1.3), SignSym(40.0), SignSym(400.0),
               SignSym(1000.0)]


@pytest.mark.parametrize("spec", LAYER_SPECS)
def test_forward_layer_matches_brute_force(spec):
    g = hand_graph()
    out = forward_layer(g, g.features, spec)
    assert out == pytest.approx(brute_force_layer(g, g.features, spec), abs=1e-12)


@pytest.mark.parametrize("spec", LAYER_SPECS)
def test_feature_block_matches_columns_and_brute_force(spec):
    g = edge_case_graph()
    with np.errstate(all="raise"):
        out = forward_layer(g, EDGE_CASE_BLOCK, spec)
    assert out.shape == EDGE_CASE_BLOCK.shape
    for c in range(EDGE_CASE_BLOCK.shape[1]):
        column = EDGE_CASE_BLOCK[:, c]
        single = forward_layer(g, column, spec)
        assert np.array_equal(out[:, c], single)
        scale = np.abs(column).max()
        assert single == pytest.approx(brute_force_layer(g, column, spec),
                                       rel=1e-12, abs=1e-12 * scale)
    # the isolated node outputs 0 in every column
    assert out[7].tolist() == [0.0] * EDGE_CASE_BLOCK.shape[1]


def test_sign_zero_intensity_equals_uniform_on_block():
    g = edge_case_graph()
    assert np.array_equal(forward_layer(g, EDGE_CASE_BLOCK, SignSym(0.0)),
                          forward_layer(g, EDGE_CASE_BLOCK, Uniform()))


@pytest.mark.parametrize("t", [0.7, 5.0, 400.0, 1000.0])
def test_zero_product_counts_as_agreement(t):
    # star: centre 0 against leaves -1, 2, 0, then the same leaves around a
    # positive and a negative centre
    star = [(0, 1), (0, 2), (0, 3)]
    e = math.exp(-2.0 * t)
    for centre, expected in ((0.0, 1.0 / 3.0),
                             (1.5, (2.0 - e) / (2.0 + e)),
                             (-1.5, (-1.0 + 2.0 * e) / (2.0 + e))):
        g = FeaturedGraph.from_edges([1, 0, 1, 0], [centre, -1.0, 2.0, 0.0], star)
        assert forward_layer(g, g.features, SignSym(t))[0] == pytest.approx(
            expected, rel=1e-15)


def test_all_disagreeing_neighbours_average_at_any_intensity():
    # every neighbour of node 5 disagrees: equal scores, plain average
    g = edge_case_graph()
    for t in (1.0, 400.0, 1000.0):
        out = forward_layer(g, g.features, SignSym(t))
        assert out[5] == -2.0 and out[6] == 1.0


def test_underflowing_product_is_not_agreement():
    # 1e-200 * -1e-200 rounds to -0.0; the signs still disagree
    g = FeaturedGraph.from_edges([1, 0, 1], [1e-200, -1e-200, 3e-200], [(0, 1), (0, 2)])
    e = math.exp(-10.0)
    out = forward_layer(g, g.features, SignSym(5.0))
    assert out[0] == pytest.approx((3e-200 - e * 1e-200) / (1.0 + e), rel=1e-14)
    assert out[0] == pytest.approx(2.9998e-200, rel=1e-4)
    assert out[0] == pytest.approx(brute_force_layer(g, g.features, SignSym(5.0))[0],
                                   rel=1e-14)


def test_run_network_block_matches_per_column_runs():
    params = CsbmParams(n=120, p=0.5, q=0.25, mu=0.6, sigma=1.0)
    g = sample_csbm(params, 3)
    block = np.stack([g.features, -g.features, 3.0 * g.features, np.zeros(g.n)], axis=1)
    schedule = LayerSchedule.from_intensities([0.0, 0.5, 5.0])
    trace, result = run_network(g, schedule, block)
    assert len(trace) == 4 and trace.final.shape == block.shape
    assert result.outputs.shape == block.shape
    assert result.accuracy.shape == (4,) and result.perfect.shape == (4,)
    for c in range(block.shape[1]):
        trace_c, result_c = run_network(g, schedule, block[:, c])
        for snap, snap_c in zip(trace.snapshots, trace_c.snapshots):
            assert np.array_equal(snap[:, c], snap_c)
        assert isinstance(result_c.accuracy, float) and isinstance(result_c.perfect, bool)
        assert result.accuracy[c] == result_c.accuracy
        assert result.perfect[c] == result_c.perfect
    # an all-zero column reads out 0 everywhere: nothing is correct
    assert result.accuracy[3] == 0.0
    _, own = run_network(g, schedule)
    assert own.accuracy == result.accuracy[0]


def test_forward_layer_matches_brute_force_on_sample():
    params = CsbmParams(n=120, p=0.4, q=0.2, mu=1.0, sigma=1.0)
    g = sample_csbm(params, 8)
    for spec in (Uniform(), SignSym(2.0)):
        out = forward_layer(g, g.features, spec)
        assert out == pytest.approx(brute_force_layer(g, g.features, spec), abs=1e-10)


def test_uniform_layer_is_plain_neighbour_average():
    g = hand_graph()
    out = forward_layer(g, g.features, Uniform())
    for i in range(g.n):
        nbrs = g.neighbors_of(i)
        assert out[i] == pytest.approx(g.features[nbrs].mean())


def test_two_node_swap():
    g = FeaturedGraph.from_edges([0, 1], [3.5, -1.25], [(0, 1)])
    out = forward_layer(g, g.features, Uniform())
    assert out.tolist() == [-1.25, 3.5]


def test_isolated_node_outputs_zero_and_warns():
    g = FeaturedGraph.from_edges([0, 1, 1], [5.0, 1.0, 2.0], [(1, 2)])
    out = forward_layer(g, g.features, SignSym(1.0))
    assert out[0] == 0.0
    _, result = run_network(g, LayerSchedule.from_intensities([1.0]))
    assert result.warnings and "isolated" in result.warnings[0]
    # sign output 0 never matches a +-1 label
    assert result.outputs[0] == 0
    assert result.accuracy < 1.0 and not result.perfect
    block = np.stack([g.features, -g.features], axis=1)
    _, result = run_network(g, LayerSchedule.from_intensities([1.0]), block)
    assert result.outputs[0].tolist() == [0, 0]
    assert result.warnings and not result.perfect.any()


def test_feature_block_shape_is_checked():
    g = hand_graph()
    with pytest.raises(ParameterError):
        forward_layer(g, np.zeros((g.n + 1, 2)), Uniform())
    with pytest.raises(ParameterError):
        run_network(g, LayerSchedule((Uniform(),)), np.zeros((g.n, 2, 2)))


def test_uniform_layer_perfect_when_neighbour_means_align():
    # both neighbour means already carry the class sign, so one averaging
    # layer classifies perfectly
    g = FeaturedGraph.from_edges([1, 1], [2.0, 3.0], [(0, 1)])
    _, result = run_network(g, LayerSchedule((Uniform(),)))
    assert result.perfect and result.accuracy == 1.0


def test_sign_zero_counts_as_misclassified():
    # node 0's only neighbour has feature exactly 0 -> output sgn(0) = 0
    g = FeaturedGraph.from_edges([1, 1], [2.0, 0.0], [(0, 1)])
    _, result = run_network(g, LayerSchedule.from_intensities([0.0]))
    assert result.outputs[0] == 0
    assert not result.perfect


def test_run_network_trace_and_perfect_flag():
    g = hand_graph()
    schedule = LayerSchedule((Uniform(), SignSym(1.0)))
    trace, result = run_network(g, schedule)
    assert len(trace) == 3
    assert np.array_equal(trace.snapshots[0], g.features)
    step = forward_layer(g, g.features, Uniform())
    assert trace.snapshots[1] == pytest.approx(step)
    assert result.perfect == (result.accuracy == 1.0)
    assert 0.0 <= result.accuracy <= 1.0


def test_global_sign_flip_negates_trace():
    params = CsbmParams(n=80, p=0.5, q=0.25, mu=1.0, sigma=1.0)
    g = sample_csbm(params, 4)
    flipped = FeaturedGraph.from_edges(1 - g.labels, -g.features, g.edges)
    schedule = LayerSchedule.from_intensities([0.0, 1.5, 3.0])
    trace, result = run_network(g, schedule)
    trace_f, result_f = run_network(flipped, schedule)
    for a, b in zip(trace.snapshots, trace_f.snapshots):
        assert b == pytest.approx(-a, abs=1e-12)
    assert result_f.accuracy == pytest.approx(result.accuracy)


def test_node_relabelling_permutes_outputs():
    params = CsbmParams(n=60, p=0.5, q=0.3, mu=1.0, sigma=1.0)
    g = sample_csbm(params, 14)
    rng = np.random.default_rng(0)
    perm = rng.permutation(g.n)            # old index -> new index
    inv = np.argsort(perm)
    edges2 = np.sort(perm[g.edges], axis=1)
    g2 = FeaturedGraph.from_edges(g.labels[inv], g.features[inv], edges2)
    out = forward_layer(g, g.features, SignSym(2.0))
    out2 = forward_layer(g2, g2.features, SignSym(2.0))
    assert out2[perm] == pytest.approx(out, abs=1e-12)


def test_uniform_output_within_neighbour_range():
    params = CsbmParams(n=150, p=0.35, q=0.18, mu=2.0, sigma=3.0)
    g = sample_csbm(params, 31)
    out = forward_layer(g, g.features, Uniform())
    for i in range(g.n):
        nbrs = g.neighbors_of(i)
        if nbrs.size:
            assert g.features[nbrs].min() - 1e-12 <= out[i] <= g.features[nbrs].max() + 1e-12


def test_empty_schedule_rejected():
    with pytest.raises(ScheduleError):
        LayerSchedule(())


def test_gatstar_schedule_shapes():
    n = 3000
    high = gatstar_schedule(n, 2.0, 10 * math.sqrt(math.log(n)), 5.0)
    assert len(high) == 1 and isinstance(high.layers[0], SignSym)

    low = gatstar_schedule(n, 2.0, 0.1, 5.0)
    depth = math.ceil(math.log(n) / math.log(2.0 * math.log(n) ** 2))
    assert depth == 2
    assert len(low) == depth + 1
    assert all(isinstance(s, Uniform) for s in low.layers[:-1])
    assert low.layers[-1] == SignSym(5.0)

    with pytest.raises(ScheduleError):
        gatstar_schedule(100, 1e-4, 0.1, 5.0)


def test_intensity_ramp_schedule():
    sched = LayerSchedule.from_intensities([0.0, 0.5, 0.5, 5.0])
    assert [s.t for s in sched.layers] == [0.0, 0.5, 0.5, 5.0]
