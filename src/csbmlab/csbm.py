"""Two-community featured-graph sampler and concentration diagnostics.

A draw consists of i.i.d. Bernoulli(1/2) class labels, an undirected edge
for each pair with probability ``p`` (same class) or ``q`` (different
class), and a scalar feature per node from N(+mu, sigma^2) or
N(-mu, sigma^2) according to the label.

Randomness comes from counter-based Philox streams keyed by
``(seed, stream id)``, one stream per entity kind, so a given seed
reproduces the same graph bit for bit regardless of how the draws are
interleaved by the caller: labels use stream 1, features stream 2, and the
three edge blocks (class-0 pairs, class-1 pairs, cross pairs) streams 6, 7
and 8. Within a block the edges are drawn by geometric skips (Batagelj and
Brandes, Phys. Rev. E 71, 036113, 2005): one uniform per edge gives the gap
to the next hit pair, so sampling costs O(n + E) time and memory rather than
one draw per vertex pair. Streams 3-5 held the per-pair draws of versions
before 0.4.0 and are retired, not reused.
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
# Ids 3-5 (per-pair edge draws before 0.4.0) are retired: reusing one would
# give an old seed's stream a new meaning.
_STREAM_LABELS = 1
_STREAM_FEATURES = 2
_STREAM_EDGES_SAME0 = 6
_STREAM_EDGES_SAME1 = 7
_STREAM_EDGES_CROSS = 8


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
        u, v = edges[:, 0], edges[:, 1]
        if edges.size:
            if np.any(u == v):
                raise ParameterError("self-loops are not allowed")
            if edges.min() < 0 or edges.max() >= n:
                raise ParameterError("edge endpoint out of range")
        # both arcs of every edge as int64 keys src * n + dst: one sort orders
        # them by (source, target), dropping repeats of a sorted key
        # deduplicates them, and the arcs with src < dst are the edges, sorted
        m = u.size
        key = np.empty(2 * m, dtype=np.int64)
        np.multiply(u, n, out=key[:m])
        key[:m] += v
        np.multiply(v, n, out=key[m:])
        key[m:] += u
        key.sort()
        repeat = key[1:] == key[:-1]
        if repeat.any():
            key = key[np.concatenate([[True], ~repeat])]
        # node i's arcs are the keys in [i * n, (i + 1) * n); every buffer
        # below is updated in place, since fresh pages cost as much as the work
        indptr = np.searchsorted(key, np.arange(n + 1, dtype=np.int64) * n)
        src = np.repeat(np.arange(0, n * n, n, dtype=np.int64), np.diff(indptr))
        dst = key
        dst -= src
        src //= n
        up = src < dst
        edges = np.empty((dst.size // 2, 2), dtype=np.int64)
        edges[:, 0] = src[up]
        edges[:, 1] = dst[up]
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


def _skip_positions(gen: np.random.Generator, m: int, p: float,
                    batch: int | None = None) -> np.ndarray:
    """Sorted positions in [0, m), each present independently with probability p.

    The gap from one hit to the next is ``floor(log(U) / log1p(-p)) + 1``
    with ``U = 1 - gen.random()`` in (0, 1], one uniform per hit plus one
    that overshoots ``m``. Uniforms are drawn ``batch`` at a time (by
    default sized near the expected count), but the positions depend only
    on the stream: a batch is a run of consecutive draws, and the surplus
    after the overshoot is discarded.
    """
    if m == 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(m, dtype=np.int64)
    log_q = math.log1p(-p)
    if batch is None:
        mean = m * p
        batch = min(m + 1, int(mean + 4.0 * math.sqrt(mean)) + 64)
    chunks, last = [], -1
    while True:
        gap = gen.random(batch)
        np.subtract(1.0, gap, out=gap)
        np.log(gap, out=gap)
        np.divide(gap, log_q, out=gap)
        np.floor(gap, out=gap)
        # a gap of m or more ends the block; clipping keeps the int64 cast exact
        np.minimum(gap, m, out=gap)
        pos = gap.astype(np.int64)
        pos += 1
        np.cumsum(pos, out=pos)
        pos += last
        end = int(np.searchsorted(pos, m))
        chunks.append(pos[:end])
        if end < batch:
            break
        last = int(pos[-1])
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def _unrank_upper(r: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) of positions ``r`` in the row-major strict upper triangle of k x k.

    Row i starts at ``S(i) = i * (2k - 1 - i) / 2``. The closed-form root
    ``i = floor(((2k - 1) - sqrt((2k - 1)^2 - 8r)) / 2)`` of ``S(i) = r``
    gives the row up to rounding, and an integer step corrects it. This is
    the order of ``np.triu_indices(k, 1)``.
    """
    two_k1 = 2 * k - 1
    i = r * -8
    i += two_k1 * two_k1
    root = np.sqrt(i, dtype=np.float64)
    np.subtract(two_k1, root, out=root)
    root *= 0.5
    np.copyto(i, root, casting="unsafe")    # truncation is floor: the root is >= 0
    # At a row start the discriminant is the square (2k - 1 - 2i)^2, whose
    # rounded root is exact, and rounding is monotone, so the estimate is
    # never below the row. It lands one row above it at the end of a row
    # once the discriminant exceeds 2^53 (k above about 4.7e7).
    j = two_k1 - i
    j *= i
    j >>= 1                                 # S(i), the start of row i
    over = np.flatnonzero(r < j)
    i[over] -= 1
    j[over] -= k - 1 - i[over]
    np.subtract(r, j, out=j)
    j += i
    j += 1
    return i, j


def _sample_edges(labels: np.ndarray, p: float, q: float, seed: int) -> np.ndarray:
    """(E, 2) edges of the three blocks, each drawn by geometric skips."""
    idx0 = np.flatnonzero(labels == 0)
    idx1 = np.flatnonzero(labels == 1)
    same = [(members, _skip_positions(_stream(seed, stream_id),
                                      members.size * (members.size - 1) // 2, p))
            for members, stream_id in ((idx0, _STREAM_EDGES_SAME0),
                                       (idx1, _STREAM_EDGES_SAME1))]
    cross = _skip_positions(_stream(seed, _STREAM_EDGES_CROSS), idx0.size * idx1.size, q)
    edges = np.empty((sum(hit.size for _, hit in same) + cross.size, 2), dtype=np.int64)
    start = 0
    for members, hit in same:
        i, j = _unrank_upper(hit, members.size)
        block = edges[start:start + hit.size]
        block[:, 0] = members[i]
        block[:, 1] = members[j]
        start += hit.size
    if cross.size:
        # cross position a * |class 1| + b is the pair (idx0[a], idx1[b])
        a = cross // idx1.size
        edges[start:, 0] = idx0[a]
        a *= idx1.size
        np.subtract(cross, a, out=a)
        edges[start:, 1] = idx1[a]
    return edges


def sample_csbm(params: CsbmParams, seed: int) -> FeaturedGraph:
    """Draw one featured graph; deterministic for a given (params, seed)."""
    n = params.n
    labels = (_stream(seed, _STREAM_LABELS).random(n) < 0.5).astype(np.int8)
    noise = _stream(seed, _STREAM_FEATURES).standard_normal(n)
    features = (2 * labels.astype(np.float64) - 1) * params.mu + params.sigma * noise
    edges = _sample_edges(labels, params.p, params.q, seed)
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
    lines.extend(f"{label} {feat!r}"
                 for label, feat in zip(graph.labels.tolist(), graph.features.tolist()))
    # Python ints format several times faster than numpy scalars; converting
    # the edges a block at a time keeps the lists' memory small
    edges, block = graph.edges, 1024
    for start in range(0, edges.shape[0], block):
        lines.extend(f"{i} {j}" for i, j in edges[start:start + block].tolist())
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
