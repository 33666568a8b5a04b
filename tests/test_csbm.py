"""Sampler correctness: distributional checks against direct recounts."""

import dataclasses
import io
import math

import numpy as np
import pytest
from scipy.stats import chi2

from csbmlab import (CsbmParams, FeaturedGraph, ParameterError,
                     check_concentration_events, dump_graph, load_graph,
                     neighborhood_stats, sample_csbm, with_feature_params)
from csbmlab.csbm import _skip_positions, _stream, _unrank_upper


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


# --- geometric-skip edge sampling ------------------------------------------


def test_unrank_upper_is_a_bijection_onto_triu_indices():
    # every position of every triangle up to k = 1000
    for k in range(1001):
        i, j = _unrank_upper(np.arange(k * (k - 1) // 2, dtype=np.int64), k)
        iu, ju = np.triu_indices(k, 1)
        assert np.array_equal(i, iu) and np.array_equal(j, ju), k


@pytest.mark.parametrize("k, rows", [
    (100_000, np.arange(100_000 - 1)),
    # past k ~ 4.7e7 the discriminant rounds and the root lands one row
    # too far at row ends, which the integer step must correct
    (10**9, np.concatenate([np.arange(1000), 10**9 - 1001 + np.arange(1000),
                            np.random.default_rng(0).integers(0, 10**9 - 1, 10_000)])),
], ids=["every-row", "k=1e9"])
def test_unrank_upper_row_ends_at_large_k(k, rows):
    # the first and last position of each row, where rounding may land one
    # row off
    rows = rows.astype(np.int64)
    first = rows * (2 * k - 1 - rows) // 2
    last = first + (k - 2 - rows)
    i, j = _unrank_upper(first, k)
    assert np.array_equal(i, rows) and np.array_equal(j, rows + 1)
    i, j = _unrank_upper(last, k)
    assert np.array_equal(i, rows) and np.array_equal(j, np.full(rows.size, k - 1))


def one_uniform_at_a_time(gen, m, p):
    """Skip positions drawn by a scalar loop over the same stream."""
    hits, pos, log_q = [], -1, math.log1p(-p)
    while True:
        pos += int(np.floor(np.log(1.0 - gen.random()) / log_q)) + 1
        if pos >= m:
            return hits
        hits.append(pos)


@pytest.mark.parametrize("m, p", [(5000, 0.002), (5000, 0.3), (2000, 0.97), (1, 0.5),
                                  (10**12, 1e-9)])
def test_skip_positions_match_a_scalar_loop(m, p):
    for seed in range(4):
        want = one_uniform_at_a_time(_stream(seed, 6), m, p)
        for batch in (None, 1, 7, 1000):
            got = _skip_positions(_stream(seed, 6), m, p, batch=batch)
            assert got.dtype == np.int64
            assert got.tolist() == want, (seed, batch)


def test_skip_positions_degenerate_probabilities():
    gen = _stream(0, 6)
    assert _skip_positions(gen, 100, 0.0).size == 0
    assert _skip_positions(gen, 0, 0.5).size == 0
    assert _skip_positions(gen, 0, 1.0).size == 0
    assert np.array_equal(_skip_positions(gen, 100, 1.0), np.arange(100))
    # a vanishing p must not overflow the int64 gaps
    assert _skip_positions(gen, 10**15, 1e-300).size == 0


def test_per_block_edge_counts_within_five_sd():
    params = CsbmParams.from_ab(2000, 3.0, 2.0, 1.0, 1.0)
    for seed in range(5):
        g = sample_csbm(params, seed)
        y = g.labels[g.edges]
        n1 = int(g.labels.sum())
        n0 = g.n - n1
        for count, pairs, prob in (
                (np.sum((y[:, 0] == 0) & (y[:, 1] == 0)), n0 * (n0 - 1) // 2, params.p),
                (np.sum((y[:, 0] == 1) & (y[:, 1] == 1)), n1 * (n1 - 1) // 2, params.p),
                (np.sum(y[:, 0] != y[:, 1]), n0 * n1, params.q)):
            mean, sd = pairs * prob, math.sqrt(pairs * prob * (1 - prob))
            assert abs(count - mean) < 5 * sd


def test_hit_pairs_are_uniform_over_buckets():
    # hits of a k = 120 triangle at p = 0.02, pooled over 300 seeds, bucketed
    # by (i // 12, j // 12); expected counts are proportional to bucket size
    k, p, width = 120, 0.02, 12
    iu, ju = np.triu_indices(k, 1)
    buckets = (k // width) * (iu // width) + ju // width
    sizes = np.bincount(buckets)
    counts = np.zeros_like(sizes)
    for seed in range(300):
        i, j = _unrank_upper(_skip_positions(_stream(seed, 7), iu.size, p), k)
        counts += np.bincount((k // width) * (i // width) + j // width,
                              minlength=sizes.size)
    used = sizes > 0
    expected = counts.sum() * sizes[used] / iu.size
    statistic = float(np.sum((counts[used] - expected) ** 2 / expected))
    assert chi2.sf(statistic, used.sum() - 1) > 1e-3


def test_small_and_empty_classes_sample_complete_blocks():
    # n = 3 gives every class size from 0 to 3 over a few seeds; p = q = 1
    # must give the complete graph whatever the split, with no division by
    # an empty class in the cross block
    with pytest.warns(UserWarning):
        params = CsbmParams(n=3, p=1.0, q=1.0, mu=1.0, sigma=1.0)
    sizes = set()
    with np.errstate(all="raise"):
        for seed in range(32):
            g = sample_csbm(params, seed)
            sizes.add(int(g.labels.sum()))
            assert g.edges.tolist() == [[0, 1], [0, 2], [1, 2]]
    assert sizes == {0, 1, 2, 3}


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
    # for seeds 0..39 and were frozen from a direct evaluation (the degree
    # count read 14 under the per-pair edge streams before 0.4.0).
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
    assert counts["degree"] == 23
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


def per_element_dump_oracle(graph):
    """Graph text formatted one numpy element at a time, as dump_graph used to."""
    p = graph.params
    lines = [f"{p.n} {float(p.p)!r} {float(p.q)!r} {float(p.mu)!r} "
             f"{float(p.sigma)!r} {graph.seed}"]
    lines.extend(f"{int(graph.labels[i])} {float(graph.features[i])!r}"
                 for i in range(graph.n))
    lines.extend(f"{i} {j}" for i, j in graph.edges)
    return "\n".join(lines) + "\n"


def test_dump_matches_per_element_formatting():
    g = sample_csbm(CsbmParams.from_ab(400, 3.0, 2.0, 4.0, 10.0), 11)
    # extreme, negative-zero and subnormal features format like the rest
    g = dataclasses.replace(g, features=np.concatenate(
        [[-0.0, 5e-324, 1e300, -1.0 / 3.0], g.features[4:]]))
    buf = io.StringIO()
    dump_graph(g, buf)
    assert buf.getvalue() == per_element_dump_oracle(g)


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
