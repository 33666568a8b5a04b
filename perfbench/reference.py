"""Reference computations that share no code with csbmlab.

Everything here is written from the model's definition and the documented
graph-file format, and imports nothing from the package, so a check built
on it cannot inherit a fault of the code it checks:

* ``neighbour_table`` and ``dense_forward``: a dense forward pass over a
  padded (n, max degree) neighbour table. Each layer builds every node's
  softmax coefficients from the sign-agreement score psi(x_i, x_j) = +t when
  x_i * x_j >= 0 (a product of exactly zero counts as agreement) and -t
  otherwise, with the row maximum subtracted before exponentiating, and an
  isolated node outputs 0.
* ``accuracy_counts``: node-for-node sign readout against the labels, with
  nodes whose reference output lies within a stated tolerance of 0 set
  apart as ambiguous.
* ``sampler_problems``: properties every sampled graph must have.
* ``parse_graph_text``: a parser of the ``n p q mu sigma seed`` text dump.
* ``realized_degree_pairs`` and ``monte_carlo_cell``: a graph sampler and a
  one-layer Monte Carlo of the benchmark's own.
"""

from __future__ import annotations

import math

import numpy as np

# A node whose reference output is within this share of the column's largest
# input feature (in absolute value) of 0 may read out either sign: the
# program sums in another order, and the two results differ by rounding.
AMBIGUOUS_REL_TOL = 1e-9

# Sampled counts and means must lie within this many standard deviations of
# their expectation.
SAMPLER_SD = 5.0


def edge_probabilities(n: int, a: float, b: float) -> tuple[float, float]:
    """p = a log^2(n)/n and q = b log^2(n)/n."""
    scale = math.log(n) ** 2 / n
    return a * scale, b * scale


def neighbour_table(n: int, edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Padded neighbour table, its validity mask and the degrees.

    Row i of the (n, max degree) table lists i's neighbours; entries past
    the degree are padding, marked False in the mask.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    degrees = np.bincount(src, minlength=n)
    first = np.concatenate([[0], np.cumsum(degrees)[:-1]])
    slot = np.arange(src.size) - first[src]
    width = max(int(degrees.max(initial=0)), 1)
    table = np.zeros((n, width), dtype=np.int64)
    mask = np.zeros((n, width), dtype=bool)
    table[src, slot] = dst
    mask[src, slot] = True
    return table, mask, degrees


def _layer(table: np.ndarray, mask: np.ndarray, x: np.ndarray, t: float) -> np.ndarray:
    """One attention layer at intensity t over the feature vector x (n,).

    Node i scores neighbour j +t when x_i x_j >= 0, i.e. when the signs'
    product sign(x_i) sign(x_j) is >= 0, and -t otherwise. Its coefficients
    are exp(score - max score) over its neighbours, normalised to sum to 1;
    exp is evaluated once per node for each of the two values its shifted
    scores can take.
    """
    sign = np.sign(x).astype(np.int8)
    agree = sign[:, None] * sign[table] >= 0             # (n, width)
    valid = agree & mask
    top = np.where(valid.any(axis=1), t, -t)             # max score over neighbours
    with np.errstate(over="ignore"):                     # exp(2t) is never selected
        w_agree, w_disagree = np.exp(t - top), np.exp(-t - top)
    weight = np.where(valid, w_agree[:, None], np.where(mask, w_disagree[:, None], 0.0))
    num = np.einsum("nw,nw->n", weight, x[table])
    den = weight.sum(axis=1)
    out = np.zeros_like(x)
    np.divide(num, den, out=out, where=den > 0.0)       # isolated nodes stay 0
    return out


def dense_forward(table: np.ndarray, mask: np.ndarray, features, intensities) -> list[np.ndarray]:
    """Feature snapshots (input, then each layer's output) for every column.

    ``features`` is (n, C) or (n,); ``intensities`` is (L, C): the
    intensity of layer l for column c (0 is plain averaging). Snapshots are
    (n, C).
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    layers = np.asarray(intensities, dtype=np.float64).reshape(-1, x.shape[1])
    snapshots = [x]
    for t in layers:
        x = np.stack([_layer(table, mask, np.ascontiguousarray(x[:, c]), t[c])
                      for c in range(x.shape[1])], axis=1)
        snapshots.append(x)
    return snapshots


def accuracy_counts(final: np.ndarray, signed_labels: np.ndarray, degrees: np.ndarray,
                    tol: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column: nodes surely read out correctly, and ambiguous nodes.

    The readout is the sign of the final feature; a sign of 0 is wrong. A
    node with neighbours whose output is within ``tol`` (per column) of 0 is
    ambiguous; an isolated node outputs exactly 0 and is wrong.
    """
    final = np.asarray(final, dtype=np.float64)
    if final.ndim == 1:
        final = final[:, None]
    ambiguous = (degrees[:, None] > 0) & (np.abs(final) <= tol)
    correct = (np.sign(final) == signed_labels[:, None]) & ~ambiguous
    return correct.sum(axis=0), ambiguous.sum(axis=0)


def ambiguity_tolerance(features: np.ndarray) -> np.ndarray:
    """Per-column tolerance: AMBIGUOUS_REL_TOL times the largest |input|."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    return AMBIGUOUS_REL_TOL * np.abs(x).max(axis=0)


def sampler_problems(n: int, p: float, q: float, mu: float, sigma: float,
                     labels, features, edges) -> list[str]:
    """Properties of one sampled graph; returns what is wrong (empty if none).

    Labels are 0/1, features finite, edges unique in-range pairs i < j; the
    same-class and cross-class edge counts lie within SAMPLER_SD standard
    deviations of their binomial means, and each class's feature mean within
    SAMPLER_SD standard errors of +mu (label 1) or -mu (label 0).
    """
    labels = np.asarray(labels)
    features = np.asarray(features, dtype=np.float64)
    edges = np.asarray(edges)
    problems = []
    if labels.shape != (n,) or features.shape != (n,):
        return [f"labels {labels.shape} / features {features.shape} do not have n={n} entries"]
    if not np.isin(labels, (0, 1)).all():
        problems.append("labels outside {0, 1}")
    if not np.isfinite(features).all():
        problems.append("non-finite features")
    if edges.ndim != 2 or edges.shape[1] != 2 or not np.issubdtype(edges.dtype, np.integer):
        return problems + [f"edges have shape {edges.shape} and dtype {edges.dtype}"]
    i, j = edges[:, 0].astype(np.int64), edges[:, 1].astype(np.int64)
    if edges.size and (i.min() < 0 or j.max() >= n or not (i < j).all()):
        problems.append("edge not an in-range pair i < j")
    elif np.unique(i * n + j).size != i.size:
        problems.append("duplicate edges")
    if problems:
        return problems
    y = labels.astype(np.int64)
    n1 = int(y.sum())
    n0 = n - n1
    same = int(np.sum(y[i] == y[j]))
    for kind, count, pairs, prob in (
            ("same-class", same, n0 * (n0 - 1) // 2 + n1 * (n1 - 1) // 2, p),
            ("cross-class", i.size - same, n0 * n1, q)):
        mean = pairs * prob
        sd = math.sqrt(pairs * prob * (1.0 - prob))
        if abs(count - mean) > SAMPLER_SD * max(sd, 1.0):
            problems.append(f"{kind} edge count {count} vs binomial mean {mean:.1f} (sd {sd:.1f})")
    for label, centre, size in ((1, mu, n1), (0, -mu, n0)):
        if size == 0:
            problems.append(f"class {label} is empty")
            continue
        m = float(features[y == label].mean())
        if abs(m - centre) > SAMPLER_SD * sigma / math.sqrt(size):
            problems.append(f"class {label} feature mean {m:.4f} vs {centre:.4f}")
    return problems


def parse_graph_text(path: str) -> dict:
    """Read a graph dump: header ``n p q mu sigma seed``, n ``label feature``
    lines, then one ``i j`` line per edge."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    header = lines[0].split()
    if len(header) != 6:
        raise ValueError(f"{path}: header has {len(header)} fields")
    n = int(header[0])
    nodes = [line.split() for line in lines[1:n + 1]]
    if len(nodes) != n or any(len(f) != 2 for f in nodes):
        raise ValueError(f"{path}: expected {n} 'label feature' lines")
    edge_tokens = " ".join(lines[n + 1:]).split()
    if len(edge_tokens) % 2:
        raise ValueError(f"{path}: odd number of edge endpoints")
    return {
        "n": n,
        "p": float(header[1]), "q": float(header[2]),
        "mu": float(header[3]), "sigma": float(header[4]),
        "seed": int(header[5]),
        "labels": np.array([int(f[0]) for f in nodes], dtype=np.int64),
        "features": np.array([float(f[1]) for f in nodes], dtype=np.float64),
        "edges": np.array([int(v) for v in edge_tokens], dtype=np.int64).reshape(-1, 2),
    }


def realized_degree_pairs(n: int, p: float, q: float, seed: int) -> np.ndarray:
    """Sorted distinct (same-class, cross-class) degree pairs of one graph.

    The graph is drawn row by row with the benchmark's own generator, so its
    memory stays O(n) and it does not depend on the package's sampler.
    """
    rng = np.random.default_rng([seed, 0x5EED])
    labels = rng.random(n) < 0.5
    same = np.zeros(n, dtype=np.int64)
    cross = np.zeros(n, dtype=np.int64)
    for i in range(n - 1):
        match = labels[i + 1:] == labels[i]
        hit = rng.random(n - i - 1) < np.where(match, p, q)
        hit_same = hit & match
        hit_cross = hit & ~match
        same[i] += int(hit_same.sum())
        cross[i] += int(hit_cross.sum())
        same[i + 1:] += hit_same
        cross[i + 1:] += hit_cross
    pairs = np.unique(np.stack([same, cross], axis=1), axis=0)
    return pairs[pairs.sum(axis=1) > 0]


def monte_carlo_cell(mu: float, sigma: float, t: float, deg_p: int, deg_q: int,
                     trials: int, seed: int) -> dict:
    """One-layer output of a class-1 centre over i.i.d. neighbourhoods.

    Returns the sample mean and variance with their standard errors (the
    variance's from the fourth central moment).
    """
    rng = np.random.default_rng([seed, deg_p, deg_q, 0x3C])
    centre = rng.normal(mu, sigma, size=trials)
    nbrs = np.concatenate([rng.normal(mu, sigma, size=(trials, deg_p)),
                           rng.normal(-mu, sigma, size=(trials, deg_q))], axis=1)
    score = np.where(centre[:, None] * nbrs >= 0.0, t, -t)
    weight = np.exp(score - score.max(axis=1, keepdims=True))
    out = (weight * nbrs).sum(axis=1) / weight.sum(axis=1)
    mean = float(out.mean())
    var = float(out.var(ddof=1))
    m4 = float(np.mean((out - mean) ** 4))
    return {
        "mean": mean, "var": var,
        "se_mean": math.sqrt(var / trials),
        "se_var": math.sqrt(max(m4 - var * var, 0.0) / trials),
    }
