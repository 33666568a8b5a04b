"""Two-community featured-graph sampler and concentration diagnostics.

A draw consists of i.i.d. Bernoulli(1/2) class labels, an undirected edge
for each pair with probability ``p`` (same class) or ``q`` (different
class), and a scalar feature per node from N(+mu, sigma^2) or
N(-mu, sigma^2) according to the label.

Randomness comes from counter-based Philox streams keyed by
``(seed, stream id)``, one stream per entity kind (labels, features, each
edge block), so a given seed reproduces the same graph bit for bit
regardless of how the draws are interleaved by the caller.
"""

from __future__ import annotations

import dataclasses
import io
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

__all__ = [
    "CsbmParams",
    "FeaturedGraph",
    "NeighborhoodStats",
    "EventCheck",
    "EventReport",
    "sample_csbm",
    "with_feature_params",
    "neighborhood_stats",
    "check_concentration_events",
    "dump_graph",
    "load_graph",
]

# Philox stream ids; fixed so that seeds stay meaningful across versions.
_STREAM_LABELS = 1
_STREAM_FEATURES = 2
_STREAM_EDGES_SAME0 = 3
_STREAM_EDGES_SAME1 = 4
_STREAM_EDGES_CROSS = 5


def _stream(seed: int, stream_id: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), stream_id]))


@dataclass(frozen=True)
class CsbmParams:
    """Model parameters: node count, edge probabilities, feature mean/spread."""

    n: int
    p: float
    q: float
    mu: float
    sigma: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise ParameterError(f"n must be an integer >= 2, got {self.n!r}")
        for name in ("p", "q"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ParameterError(f"{name} must lie in [0, 1], got {v!r}")
        if not self.mu > 0:
            raise ParameterError(f"mu must be positive, got {self.mu!r}")
        if not self.sigma > 0:
            raise ParameterError(f"sigma must be positive, got {self.sigma!r}")
        if not self.homophilic_regime:
            warnings.warn(
                f"parameters p={self.p:g}, q={self.q:g}, n={self.n} are outside the "
                "homophilic dense regime (p > q with p, q >= log^2(n)/n); "
                "sampling proceeds but the concentration diagnostics may fail",
                stacklevel=2,
            )

    @property
    def homophilic_regime(self) -> bool:
        """True when p > q and both probabilities are at least log^2(n)/n."""
        floor = math.log(self.n) ** 2 / self.n
        return self.p > self.q and min(self.p, self.q) >= floor

    @classmethod
    def from_ab(cls, n: int, a: float, b: float, mu: float, sigma: float) -> "CsbmParams":
        """Build parameters with p = a log^2(n)/n and q = b log^2(n)/n."""
        scale = math.log(n) ** 2 / n
        return cls(n=n, p=a * scale, q=b * scale, mu=mu, sigma=sigma)


@dataclass(frozen=True)
class FeaturedGraph:
    """One sampled graph: labels, scalar features, sparse symmetric adjacency.

    Adjacency is held two ways: ``edges`` lists each undirected edge once
    with i < j, sorted, while (``indptr``, ``adj_dst``) is the CSR form of
    the symmetric adjacency: node i's sorted neighbours are
    ``adj_dst[indptr[i]:indptr[i + 1]]``. All arrays are read-only; a graph
    never mutates after construction and is safe to share across workers.
    """

    n: int
    labels: np.ndarray          # int8, 0/1 per node
    features: np.ndarray        # float64 per node
    edges: np.ndarray           # (E, 2) int64 with edges[:,0] < edges[:,1]
    indptr: np.ndarray = field(repr=False)
    adj_dst: np.ndarray = field(repr=False)
    params: CsbmParams | None = None
    seed: int | None = None

    @classmethod
    def from_edges(
        cls,
        labels,
        features,
        edges,
        params: CsbmParams | None = None,
        seed: int | None = None,
    ) -> "FeaturedGraph":
        """Assemble a graph from per-node labels/features and an (E, 2) edge list."""
        labels = np.asarray(labels, dtype=np.int8)
        features = np.asarray(features, dtype=np.float64)
        n = labels.shape[0]
        if features.shape[0] != n:
            raise ParameterError("labels and features must have the same length")
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size:
            lo = np.minimum(edges[:, 0], edges[:, 1])
            hi = np.maximum(edges[:, 0], edges[:, 1])
            if np.any(lo == hi):
                raise ParameterError("self-loops are not allowed")
            if lo.min() < 0 or hi.max() >= n:
                raise ParameterError("edge endpoint out of range")
            # the int64 key lo * n + hi sorts (lo, hi) rows lexicographically;
            # dropping repeats of a sorted key deduplicates them
            key = np.sort(lo * n + hi)
            keep = np.ones(key.size, dtype=bool)
            np.not_equal(key[1:], key[:-1], out=keep[1:])
            edges = np.stack(np.divmod(key[keep], n), axis=1)
        # both arcs of every edge, sorted by (source, target) the same way
        src, dst = np.divmod(np.sort(np.concatenate([edges[:, 0] * n + edges[:, 1],
                                                     edges[:, 1] * n + edges[:, 0]])), n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        for arr in (labels, features, edges, indptr, dst):
            arr.setflags(write=False)
        return cls(
            n=n, labels=labels, features=features, edges=edges,
            indptr=indptr, adj_dst=dst, params=params, seed=seed,
        )

    def neighbors_of(self, i: int) -> np.ndarray:
        if not 0 <= i < self.n:
            raise ParameterError(f"node index {i} out of range for n={self.n}")
        return self.adj_dst[self.indptr[i]:self.indptr[i + 1]]

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def signed_labels(self) -> np.ndarray:
        """Labels mapped to -1/+1 (2*eps - 1)."""
        return 2 * self.labels.astype(np.int64) - 1


def sample_csbm(params: CsbmParams, seed: int) -> FeaturedGraph:
    """Draw one featured graph; deterministic for a given (params, seed)."""
    n = params.n
    labels = (_stream(seed, _STREAM_LABELS).random(n) < 0.5).astype(np.int8)
    noise = _stream(seed, _STREAM_FEATURES).standard_normal(n)
    features = (2 * labels.astype(np.float64) - 1) * params.mu + params.sigma * noise

    idx0 = np.flatnonzero(labels == 0)
    idx1 = np.flatnonzero(labels == 1)
    blocks = []

    def same_class_block(members: np.ndarray, stream_id: int) -> None:
        k = members.size
        gen = _stream(seed, stream_id)
        if k < 2 or params.p <= 0.0:
            return
        iu, ju = np.triu_indices(k, 1)
        hit = gen.random(iu.size) < params.p
        if hit.any():
            blocks.append(np.stack([members[iu[hit]], members[ju[hit]]], axis=1))

    same_class_block(idx0, _STREAM_EDGES_SAME0)
    same_class_block(idx1, _STREAM_EDGES_SAME1)

    gen = _stream(seed, _STREAM_EDGES_CROSS)
    if idx0.size and idx1.size and params.q > 0.0:
        hit = gen.random(idx0.size * idx1.size) < params.q
        flat = np.flatnonzero(hit)
        if flat.size:
            a, b = np.divmod(flat, idx1.size)
            blocks.append(np.stack([idx0[a], idx1[b]], axis=1))

    if blocks:
        edges = np.concatenate(blocks, axis=0)
    else:
        edges = np.empty((0, 2), dtype=np.int64)
    return FeaturedGraph.from_edges(labels, features, edges, params=params, seed=seed)


def with_feature_params(graph: FeaturedGraph, mu: float, sigma: float) -> FeaturedGraph:
    """Same topology and labels, features redrawn for new (mu, sigma).

    Uses the stored seed's feature stream, so the Gaussian noise is the
    one the original sample used; only the mean offset and scale change.
    Edge streams never depend on mu or sigma, hence the result equals
    ``sample_csbm`` at the new parameters without resampling any edges.
    """
    if graph.params is None or graph.seed is None:
        raise ParameterError("graph carries no params/seed; resample instead")
    params = CsbmParams(n=graph.params.n, p=graph.params.p, q=graph.params.q,
                        mu=mu, sigma=sigma)
    noise = _stream(graph.seed, _STREAM_FEATURES).standard_normal(graph.n)
    features = (2 * graph.labels.astype(np.float64) - 1) * mu + sigma * noise
    features.setflags(write=False)
    return dataclasses.replace(graph, features=features, params=params)


@dataclass(frozen=True)
class NeighborhoodStats:
    """Degree of one node split into same-class and cross-class neighbours."""

    degree: int
    same_class: int
    cross_class: int


def neighborhood_stats(graph: FeaturedGraph, i: int) -> NeighborhoodStats:
    nbrs = graph.neighbors_of(i)
    same = int(np.sum(graph.labels[nbrs] == graph.labels[i]))
    return NeighborhoodStats(degree=int(nbrs.size), same_class=same,
                             cross_class=int(nbrs.size) - same)


@dataclass(frozen=True)
class EventCheck:
    """Outcome of one concentration inequality: worst deviation vs. its bound."""

    ok: bool
    deviation: float   # worst measured left-hand side
    bound: float       # right-hand side it is compared against
    node: int | None = None   # node attaining the worst ratio, where applicable

    @property
    def slack(self) -> float:
        """bound - deviation; negative when the event fails."""
        return self.bound - self.deviation


@dataclass(frozen=True)
class EventReport:
    """Per-event diagnostics for one sampled graph.

    Events, in order: class balance, degree concentration, same/cross degree
    split, feature deviation. Every deviation/bound pair is recomputable
    from the graph alone.
    """

    balance: EventCheck
    degree: EventCheck
    split: EventCheck
    feature: EventCheck

    @property
    def all_ok(self) -> bool:
        return all(e.ok for e in (self.balance, self.degree, self.split, self.feature))


# Class balance has no explicit constant in its O(sqrt(n log n)) band; 10 is
# used to mirror the explicit constants of the degree and feature events.
_BALANCE_CONSTANT = 10.0


def check_concentration_events(graph: FeaturedGraph, params: CsbmParams) -> EventReport:
    """Evaluate the four high-probability concentration events on one sample.

    These are asymptotic events: at moderate n the per-node degree and
    degree-split bands are frequently violated by a few nodes even at
    textbook parameters. The report therefore carries exact deviations and
    bounds rather than a bare verdict.
    """
    n = params.n
    log_n = math.log(n)
    band = math.sqrt(log_n) / 10.0

    n0 = int(np.sum(graph.labels == 0))
    balance_dev = abs(n0 - n / 2.0)
    balance_bound = _BALANCE_CONSTANT * math.sqrt(n * log_n)
    balance = EventCheck(balance_dev <= balance_bound, balance_dev, balance_bound)

    deg = graph.degrees.astype(np.float64)
    mean_deg = n * (params.p + params.q) / 2.0
    deg_dev = np.abs(deg - mean_deg)
    worst = int(np.argmax(deg_dev))
    degree = EventCheck(
        bool(deg_dev[worst] <= mean_deg * band),
        float(deg_dev[worst]), mean_deg * band, node=worst,
    )

    src = np.repeat(np.arange(graph.n), graph.degrees)
    same = np.bincount(
        src,
        weights=(graph.labels[src] == graph.labels[graph.adj_dst]).astype(np.float64),
        minlength=n,
    )
    cross = deg - same
    denom = params.p + params.q
    if denom > 0:
        target_p = deg * params.p / denom
        target_q = deg * params.q / denom
    else:
        target_p = target_q = np.zeros(n)
    dev_p, bound_p = np.abs(same - target_p), target_p * band
    dev_q, bound_q = np.abs(cross - target_q), target_q * band
    margin = np.fmax(dev_p - bound_p, dev_q - bound_q)   # > 0 where the event fails
    worst = int(np.argmax(margin))
    if dev_p[worst] - bound_p[worst] >= dev_q[worst] - bound_q[worst]:
        split_dev, split_bound = float(dev_p[worst]), float(bound_p[worst])
    else:
        split_dev, split_bound = float(dev_q[worst]), float(bound_q[worst])
    split = EventCheck(bool(margin[worst] <= 0), split_dev, split_bound, node=worst)

    centered = np.abs(graph.features - graph.signed_labels * params.mu)
    worst = int(np.argmax(centered))
    feature = EventCheck(
        bool(centered[worst] <= 10.0 * params.sigma * math.sqrt(log_n)),
        float(centered[worst]), 10.0 * params.sigma * math.sqrt(log_n), node=worst,
    )

    return EventReport(balance=balance, degree=degree, split=split, feature=feature)


# --- text dump/load -------------------------------------------------------
#
# Line format: header "n p q mu sigma seed", then one "label feature" line
# per node, then one "i j" line per edge with i < j. Features are written
# with repr-level precision so that a dump/load round trip is bit exact.


def dump_graph(graph: FeaturedGraph, path_or_file) -> None:
    if graph.params is None or graph.seed is None:
        raise ParameterError("graph carries no params/seed; cannot write a complete header")
    p = graph.params
    lines = [f"{p.n} {float(p.p)!r} {float(p.q)!r} {float(p.mu)!r} "
             f"{float(p.sigma)!r} {graph.seed}"]
    labels = graph.labels
    feats = graph.features
    lines.extend(f"{int(labels[i])} {float(feats[i])!r}" for i in range(graph.n))
    lines.extend(f"{i} {j}" for i, j in graph.edges)
    text = "\n".join(lines) + "\n"
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        with open(path_or_file, "w", newline="\n") as fh:
            fh.write(text)
    else:
        path_or_file.write(text)


def _line_error(lineno: int, message: str) -> ParameterError:
    return ParameterError(f"graph file line {lineno}: {message}")


def _parse_edge_lines(lines: list[str], n: int, first_lineno: int) -> np.ndarray:
    """(E, 2) endpoints of the edge block; blank lines are skipped."""
    filled = [k for k, line in enumerate(lines) if line.strip()]
    if not filled:
        return np.empty((0, 2), dtype=np.int64)
    try:
        edges = np.loadtxt(lines, dtype=np.int64, ndmin=2, comments=None)
        ok = edges.shape[1] == 2
    except ValueError:
        ok = False
    if not ok:
        for k in filled:
            parts = lines[k].split()
            try:
                if len(parts) != 2:
                    raise ValueError
                np.array(parts, dtype=np.int64)
            except (ValueError, OverflowError):
                raise _line_error(first_lineno + k,
                                  f"expected 'i j', got {lines[k]!r}") from None
        raise ParameterError("graph file: cannot parse the edge lines")
    bad = np.flatnonzero((edges < 0).any(axis=1) | (edges >= n).any(axis=1)
                         | (edges[:, 0] == edges[:, 1]))
    if bad.size:
        k = filled[bad[0]]
        raise _line_error(first_lineno + k,
                          f"edge {lines[k].strip()!r} is a self-loop or has an "
                          f"endpoint outside [0, {n})")
    return edges


def load_graph(path_or_file) -> FeaturedGraph:
    """Read a graph written by ``dump_graph``.

    A malformed header, node or edge line, a label other than 0 or 1, a
    non-finite feature, fewer than n node lines, and an edge endpoint out of
    range (or a self-loop) raise ParameterError naming the line.
    """
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        with open(path_or_file, "r") as fh:
            return load_graph(fh)
    fh: io.TextIOBase = path_or_file
    lines = fh.read().splitlines()
    header = lines[0].split() if lines else []
    if len(header) != 6:
        raise ParameterError("graph file header must be 'n p q mu sigma seed'")
    try:
        n, seed = int(header[0]), int(header[5])
        p, q, mu, sigma = (float(v) for v in header[1:5])
    except ValueError:
        raise _line_error(1, f"cannot parse header {lines[0]!r}") from None
    params = CsbmParams(n=n, p=p, q=q, mu=mu, sigma=sigma)
    if len(lines) < n + 1:
        raise _line_error(len(lines) + 1,
                          f"file ends after {len(lines) - 1} of {n} node lines")
    labels = np.empty(n, dtype=np.int8)
    features = np.empty(n, dtype=np.float64)
    for i, line in enumerate(lines[1:n + 1]):
        parts = line.split()
        try:
            if len(parts) != 2:
                raise ValueError
            lab, feat = int(parts[0]), float(parts[1])
        except ValueError:
            raise _line_error(i + 2, f"expected 'label feature', got {line!r}") from None
        if lab not in (0, 1):
            raise _line_error(i + 2, f"label must be 0 or 1, got {lab}")
        if not math.isfinite(feat):
            raise _line_error(i + 2, f"feature must be finite, got {parts[1]!r}")
        labels[i], features[i] = lab, feat
    edges = _parse_edge_lines(lines[n + 1:], n, first_lineno=n + 2)
    return FeaturedGraph.from_edges(labels, features, edges, params=params, seed=seed)
