"""Sampler correctness: distributional checks against direct recounts."""

import io
import math

import numpy as np
import pytest

from csbmlab import (CsbmParams, FeaturedGraph, ParameterError,
                     check_concentration_events, dump_graph, load_graph,
                     neighborhood_stats, sample_csbm, with_feature_params)


def square_params(n=300, p=0.25, q=0.12, mu=1.0, sigma=1.0):
    return CsbmParams(n=n, p=p, q=q, mu=mu, sigma=sigma)


def test_rejects_bad_params():
    with pytest.raises(ParameterError):
        CsbmParams(n=1, p=0.5, q=0.1, mu=1.0, sigma=1.0)
    with pytest.raises(ParameterError):
        CsbmParams(n=10, p=1.5, q=0.1, mu=1.0, sigma=1.0)
    with pytest.raises(ParameterError):
        CsbmParams(n=10, p=0.5, q=0.1, mu=-1.0, sigma=1.0)
    with pytest.raises(ParameterError):
        CsbmParams(n=10, p=0.5, q=0.1, mu=1.0, sigma=0.0)


def test_heterophilic_params_warn_but_sample():
    with pytest.warns(UserWarning):
        params = CsbmParams(n=100, p=0.1, q=0.2, mu=1.0, sigma=1.0)
    assert not params.homophilic_regime
    graph = sample_csbm(params, 0)
    assert graph.n == 100


def test_zero_probabilities_give_empty_graph():
    with pytest.warns(UserWarning):
        params = CsbmParams(n=50, p=0.0, q=0.0, mu=1.0, sigma=1.0)
    graph = sample_csbm(params, 3)
    assert graph.edges.shape == (0, 2)
    assert np.all(graph.degrees == 0)


def test_unit_probabilities_give_complete_graph():
    with pytest.warns(UserWarning):
        params = CsbmParams(n=4, p=1.0, q=1.0, mu=1.0, sigma=1.0)
    graph = sample_csbm(params, 9)
    assert graph.edges.shape[0] == 6
    assert np.all(graph.degrees == 3)


def test_same_seed_bit_identical():
    params = square_params()
    g1 = sample_csbm(params, 123)
    g2 = sample_csbm(params, 123)
    assert np.array_equal(g1.labels, g2.labels)
    assert np.array_equal(g1.features, g2.features)
    assert np.array_equal(g1.edges, g2.edges)
    g3 = sample_csbm(params, 124)
    assert not np.array_equal(g1.edges, g3.edges)


def test_adjacency_symmetric_no_diagonal():
    graph = sample_csbm(square_params(), 5)
    seen = set()
    for i in range(graph.n):
        for j in graph.neighbors_of(i):
            assert j != i
            seen.add((i, int(j)))
    for i, j in seen:
        assert (j, i) in seen


def test_mean_degree_matches_analytic_value():
    # 100 seeds at the dense textbook parameters; expectation n(p+q)/2.
    n = 3000
    params = CsbmParams.from_ab(n, 3.0, 2.0, 1.0, 1.0)
    target = n * (params.p + params.q) / 2
    mean_degree = np.mean([sample_csbm(params, s).degrees.mean() for s in range(100)])
    assert abs(mean_degree - target) / target < 0.05


def test_edge_density_within_three_binomial_se():
    # Aggregated over 1000 seeds, same-class density ~ p and cross ~ q.
    params = square_params(n=60, p=0.45, q=0.3)
    same_hits = cross_hits = same_pairs = cross_pairs = 0
    for seed in range(1000):
        g = sample_csbm(params, seed)
        labels = g.labels
        n0 = int(np.sum(labels == 0))
        n1 = g.n - n0
        same_pairs += n0 * (n0 - 1) // 2 + n1 * (n1 - 1) // 2
        cross_pairs += n0 * n1
        same_edge = labels[g.edges[:, 0]] == labels[g.edges[:, 1]]
        same_hits += int(np.sum(same_edge))
        cross_hits += int(np.sum(~same_edge))
    for hits, pairs, prob in ((same_hits, same_pairs, params.p),
                              (cross_hits, cross_pairs, params.q)):
        se = math.sqrt(prob * (1 - prob) / pairs)
        assert abs(hits / pairs - prob) < 3 * se


def test_feature_means_per_class():
    params = square_params(n=2000, mu=1.5, sigma=2.0)
    g = sample_csbm(params, 11)
    for label, sign in ((0, -1), (1, 1)):
        values = g.features[g.labels == label]
        tol = 4 * params.sigma / math.sqrt(params.n / 2)
        assert abs(values.mean() - sign * params.mu) < tol


def test_neighborhood_stats_counts():
    labels = [0, 0, 1, 1]
    features = [1.0, 2.0, -1.0, -2.0]
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    g = FeaturedGraph.from_edges(labels, features, edges)
    stats = neighborhood_stats(g, 0)
    assert (stats.degree, stats.same_class, stats.cross_class) == (3, 1, 2)
    isolated = FeaturedGraph.from_edges([0, 1], [0.0, 1.0], np.empty((0, 2)))
    s = neighborhood_stats(isolated, 0)
    assert (s.degree, s.same_class, s.cross_class) == (0, 0, 0)
    with pytest.raises(ParameterError):
        neighborhood_stats(g, 7)


def test_neighborhood_stats_sum_to_degree():
    g = sample_csbm(square_params(), 21)
    for i in range(0, g.n, 17):
        s = neighborhood_stats(g, i)
        assert s.degree == s.same_class + s.cross_class == g.degrees[i]


def test_empty_graph_fails_degree_event():
    with pytest.warns(UserWarning):
        empty = CsbmParams(n=3000, p=0.0, q=0.0, mu=1.0, sigma=1.0)
    dense = CsbmParams.from_ab(3000, 3.0, 2.0, 1.0, 1.0)
    g = sample_csbm(empty, 0)
    report = check_concentration_events(g, dense)
    assert not report.degree.ok
    assert report.degree.deviation == pytest.approx(3000 * (dense.p + dense.q) / 2)


def test_balance_event_slack_is_class_imbalance():
    g = sample_csbm(square_params(n=500), 2)
    report = check_concentration_events(g, square_params(n=500))
    n0 = int(np.sum(g.labels == 0))
    assert report.balance.deviation == pytest.approx(abs(n0 - 250.0))
    assert report.balance.bound == pytest.approx(10 * math.sqrt(500 * math.log(500)))


def test_concentration_event_rates_at_textbook_params():
    # The four events are asymptotic. At n=3000 with a=3, b=2 the balance and
    # feature events hold essentially always, the per-node degree band holds
    # in roughly half the samples, and the degree-split band practically
    # never holds for all 3000 nodes at once (its cross-class branch sits at
    # ~3 standard deviations per node). The counts below are deterministic
    # for seeds 0..39 and were frozen from a direct evaluation.
    params = CsbmParams.from_ab(3000, 3.0, 2.0, 1.0, 1.0)
    counts = {"balance": 0, "degree": 0, "split": 0, "feature": 0}
    seeds = 40
    for seed in range(seeds):
        report = check_concentration_events(sample_csbm(params, seed), params)
        counts["balance"] += report.balance.ok
        counts["degree"] += report.degree.ok
        counts["split"] += report.split.ok
        counts["feature"] += report.feature.ok
    assert counts["balance"] == seeds
    assert counts["feature"] == seeds
    assert counts["degree"] == 14
    assert counts["split"] == 0


def test_dump_load_round_trip():
    g = sample_csbm(square_params(), 77)
    buf = io.StringIO()
    dump_graph(g, buf)
    buf.seek(0)
    loaded = load_graph(buf)
    assert loaded.seed == 77
    assert np.array_equal(loaded.labels, g.labels)
    assert np.array_equal(loaded.features, g.features)
    assert np.array_equal(loaded.edges, g.edges)
    assert loaded.params == g.params


def test_with_feature_params_shares_topology():
    g = sample_csbm(square_params(mu=1.0, sigma=1.0), 5)
    g2 = with_feature_params(g, 4.0, 2.0)
    assert g2.edges is g.edges
    assert np.array_equal(g2.labels, g.labels)
    direct = sample_csbm(square_params(mu=4.0, sigma=2.0), 5)
    assert np.allclose(g2.features, direct.features)
    assert np.array_equal(g2.edges, direct.edges)


def unique_lexsort_oracle(n, edges):
    """Edge list and CSR arrays built the way from_edges used to build them."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    lo, hi = np.minimum(edges[:, 0], edges[:, 1]), np.maximum(edges[:, 0], edges[:, 1])
    edges = np.unique(np.stack([lo, hi], axis=1), axis=0)
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.lexsort((dst, src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src[order], minlength=n), out=indptr[1:])
    return edges, indptr, dst[order]


@pytest.mark.parametrize("n, count", [(300, 4000), (3000, 20000), (5, 0), (2, 3)])
def test_from_edges_matches_unique_lexsort(n, count):
    rng = np.random.default_rng(n + count)
    i = rng.integers(0, n, count)
    j = (i + rng.integers(1, n, count)) % n          # never a self-loop
    edges = np.stack([i, j], axis=1)
    # duplicates, both orientations, shuffled
    edges = np.concatenate([edges, edges[: count // 3, ::-1], edges[: count // 5]])
    edges = edges[rng.permutation(edges.shape[0])]
    g = FeaturedGraph.from_edges(np.zeros(n), np.zeros(n), edges)
    want_edges, want_indptr, want_dst = unique_lexsort_oracle(n, edges)
    for got, want in ((g.edges, want_edges), (g.indptr, want_indptr), (g.adj_dst, want_dst)):
        assert got.dtype == np.int64 and got.shape == want.shape
        assert np.array_equal(got, want)


# The two malformed files of the benchmark's roundtrip workload, then one
# file per remaining rule; each with the line the error must name.
GOOD_HEADER = "3 0.9 0.5 1.0 1.0 0\n"
BAD_GRAPH_FILES = {
    "feature-line": (GOOD_HEADER + "0 -1.5\n1 1.25\nx 2.0\n0 1\n1 2\n", 4),
    "label": (GOOD_HEADER + "7 -1.5\n0 1.25\n1 2.0\n0 1\n1 2\n", 2),
    "non-finite": (GOOD_HEADER + "0 -1.5\n1 inf\n1 2.0\n0 1\n", 3),
    "short-node-block": (GOOD_HEADER + "0 -1.5\n1 1.25\n", 4),
    "node-tokens": (GOOD_HEADER + "0 -1.5 9\n1 1.25\n1 2.0\n", 2),
    "edge-line": (GOOD_HEADER + "0 -1.5\n1 1.25\n1 2.0\n0 1\n1 two\n", 6),
    "edge-range": (GOOD_HEADER + "0 -1.5\n1 1.25\n1 2.0\n0 1\n\n2 3\n", 7),
    "self-loop": (GOOD_HEADER + "0 -1.5\n1 1.25\n1 2.0\n1 1\n", 5),
    "header": ("3 0.9 0.5 1.0 1.0 zero\n0 -1.5\n1 1.25\n1 2.0\n", 1),
}


@pytest.mark.parametrize("name", sorted(BAD_GRAPH_FILES))
def test_load_graph_names_the_bad_line(name):
    text, line = BAD_GRAPH_FILES[name]
    with pytest.raises(ParameterError, match=f"line {line}:"):
        load_graph(io.StringIO(text))


def test_load_graph_skips_blank_lines_and_accepts_no_edges():
    g = load_graph(io.StringIO(GOOD_HEADER + "0 -1.5\n1 1.25\n1 2.0\n\n1 2\n\n"))
    assert g.edges.tolist() == [[1, 2]]
    g = load_graph(io.StringIO(GOOD_HEADER + "0 -1.5\n1 1.25\n1 2.0\n"))
    assert g.edges.shape == (0, 2) and g.labels.tolist() == [0, 1, 1]
