"""Multi-layer forward passes over a featured graph, sign readout, scoring.

Each layer replaces every node's feature by the coefficient-weighted sum of
its neighbours' current features; coefficients come from that layer's
scoring rule applied to the layer's *input* features. No nonlinearity is
applied between layers; the sign readout happens once, after the last
layer. A sign of exactly zero is its own class and always counts as
misclassified, so ties are never broken optimistically.

A layer is one sparse product of the graph's CSR adjacency with a block of
feature columns, so feature vectors that share a graph and a schedule (an
SNR or mean sweep) run through the network together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .attention import AttentionSpec, SignSym, Uniform, XorNet, psi_xor
from .csbm import FeaturedGraph
from .errors import ParameterError, ScheduleError

__all__ = [
    "LayerSchedule",
    "ForwardTrace",
    "ClassificationResult",
    "forward_layer",
    "run_network",
    "gatstar_schedule",
    "GATSTAR_RAMP_INTENSITIES",
]

# Four-layer ramp used by the model-comparison experiment: two convolution
# layers would already lift the SNR, but a gentle ramp keeps every layer
# informative at low SNR.
GATSTAR_RAMP_INTENSITIES: tuple[float, ...] = (0.0, 0.5, 0.5, 5.0)


@dataclass(frozen=True)
class LayerSchedule:
    """Ordered, non-empty sequence of per-layer attention specs."""

    layers: tuple[AttentionSpec, ...]

    def __post_init__(self):
        if len(self.layers) == 0:
            raise ScheduleError("a schedule needs at least one layer")

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self):
        return iter(self.layers)

    @classmethod
    def from_intensities(cls, intensities: Iterable[float]) -> "LayerSchedule":
        """Schedule of sign-agreement layers with the given intensities (0 = uniform)."""
        return cls(tuple(SignSym(float(t)) for t in intensities))

    def describe(self) -> str:
        return "[" + ", ".join(layer.describe() for layer in self.layers) + "]"


@dataclass(frozen=True)
class ForwardTrace:
    """Feature snapshots: input plus the output of every layer (L+1 arrays)."""

    snapshots: tuple[np.ndarray, ...]
    isolated_nodes: int = 0

    def __len__(self) -> int:
        return len(self.snapshots)

    @property
    def final(self) -> np.ndarray:
        return self.snapshots[-1]


@dataclass(frozen=True)
class ClassificationResult:
    """Sign readout versus labels; ``perfect`` means every node is correct."""

    outputs: np.ndarray          # -1/0/+1 per node (and column)
    accuracy: float | np.ndarray  # one entry per column of a feature block
    perfect: bool | np.ndarray
    warnings: tuple[str, ...] = field(default=())


def _adjacency(graph: FeaturedGraph, data: np.ndarray | None = None):
    """The graph's CSR arrays as a sparse (n, n) matrix, unit weights by default."""
    from scipy.sparse import csr_array

    if data is None:
        data = np.ones(graph.adj_dst.size)
    return csr_array((data, graph.adj_dst, graph.indptr), shape=(graph.n, graph.n))


def _divide(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, with 0 wherever den is 0 (isolated nodes)."""
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)


def _sign_layer(graph: FeaturedGraph, x: np.ndarray, t: float) -> np.ndarray:
    """Sign-agreement layer over an (n, k) block as one sparse product.

    One product gives every node's sums of positive and of negative
    neighbour features and the counts of each; zero neighbours are the
    remainder of the degree. A node agrees with the neighbours of its own
    sign and with zero neighbours (a zero centre agrees with everyone), so
    those weigh 1 and the rest e^{-2t}, exactly 0 for t >= 400. Decided
    from the signs themselves, agreement never depends on a product that
    could underflow. A node with no agreeing neighbour has all scores equal
    to -t and weighs them all 1, as the max-subtracted softmax does.
    """
    k = x.shape[1]
    pos, neg = x > 0.0, x < 0.0
    sums = _adjacency(graph) @ np.concatenate(
        [np.where(pos, x, 0.0), np.where(neg, x, 0.0), pos, neg], axis=1)
    s_pos, s_neg, c_pos, c_neg = (sums[:, i * k:(i + 1) * k] for i in range(4))
    deg = graph.degrees[:, None].astype(np.float64)
    agree_sum = np.where(pos, s_pos, np.where(neg, s_neg, s_pos + s_neg))
    other_sum = np.where(pos, s_neg, np.where(neg, s_pos, 0.0))
    agree_count = np.where(pos, deg - c_neg, np.where(neg, deg - c_pos, deg))
    other_weight = np.where(agree_count > 0.0, math.exp(-2.0 * t) if t < 400 else 0.0, 1.0)
    return _divide(agree_sum + other_weight * other_sum,
                   agree_count + other_weight * (deg - agree_count))


def _xor_layer(graph: FeaturedGraph, x: np.ndarray, spec: XorNet) -> np.ndarray:
    """XorNet layer: per column, the max-shifted exp scores as the CSR matrix data."""
    deg = graph.degrees
    starts = graph.indptr[:-1][deg > 0]
    out = np.empty_like(x)
    for c in range(x.shape[1]):
        col = x[:, c]
        s = np.asarray(psi_xor(np.repeat(col, deg), col[graph.adj_dst], spec.R, spec.beta))
        smax = np.zeros(graph.n)
        if starts.size:
            smax[deg > 0] = np.maximum.reduceat(s, starts)
        sums = _adjacency(graph, np.exp(s - np.repeat(smax, deg))) @ np.stack(
            [col, np.ones(graph.n)], axis=1)
        out[:, c] = _divide(sums[:, 0], sums[:, 1])
    return out


def forward_layer(graph: FeaturedGraph, features, spec: AttentionSpec) -> np.ndarray:
    """One aggregation layer: X'_i = sum_j c_ij X_j over i's neighbours.

    ``features`` is an (n,) vector or an (n, k) block whose columns are
    independent feature vectors on the same graph; the output has its
    shape. Isolated nodes have no coefficients and output exactly 0.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim not in (1, 2) or features.shape[0] != graph.n:
        raise ParameterError("feature vector length does not match the graph")
    x = features.reshape(graph.n, -1)
    if isinstance(spec, Uniform) or (isinstance(spec, SignSym) and spec.t == 0.0):
        out = _divide(_adjacency(graph) @ x, graph.degrees[:, None].astype(np.float64))
    elif isinstance(spec, SignSym):
        out = _sign_layer(graph, x, spec.t)
    elif isinstance(spec, XorNet):
        out = _xor_layer(graph, x, spec)
    else:
        raise ParameterError(f"unknown attention spec {spec!r}")
    return out.reshape(features.shape)


def run_network(graph: FeaturedGraph, schedule: LayerSchedule,
                features=None) -> tuple[ForwardTrace, ClassificationResult]:
    """Apply the schedule's layers in order, then the sign readout.

    ``features`` defaults to the graph's own. An (n, k) block runs k
    feature vectors through the same schedule at once; snapshots and
    outputs are then (n, k), and ``accuracy`` and ``perfect`` are arrays
    with one entry per column.
    """
    if len(schedule) == 0:
        raise ScheduleError("a schedule needs at least one layer")
    x = np.asarray(graph.features if features is None else features, dtype=np.float64)
    snapshots = [x]
    for spec in schedule:
        snapshots.append(forward_layer(graph, snapshots[-1], spec))
    isolated = int(np.sum(graph.degrees == 0))
    trace = ForwardTrace(snapshots=tuple(snapshots), isolated_nodes=isolated)
    outputs = np.sign(trace.final).astype(np.int64)
    correct = outputs == (graph.signed_labels if x.ndim == 1 else graph.signed_labels[:, None])
    accuracy = correct.mean(axis=0)
    perfect = correct.all(axis=0)
    if x.ndim == 1:
        accuracy, perfect = float(accuracy), bool(perfect)
    notes = ()
    if isolated:
        notes = (f"{isolated} isolated node(s) held at output 0 and scored as misclassified",)
    result = ClassificationResult(outputs=outputs, accuracy=accuracy,
                                  perfect=perfect, warnings=notes)
    return trace, result


def gatstar_schedule(n: int, b: float, snr: float, t_final: float) -> LayerSchedule:
    """Convolution-then-attention schedule for a target feature SNR.

    When the SNR already exceeds sqrt(log n) a single attention layer
    suffices; otherwise ceil(log n / log(b log^2 n)) uniform layers lift
    the SNR before the one attention layer at ``t_final``.
    """
    if not b > 0:
        raise ParameterError(f"b must be positive, got {b!r}")
    if n < 16:
        raise ParameterError(f"n must be at least 16, got {n!r}")
    log_n = math.log(n)
    if snr >= math.sqrt(log_n):
        return LayerSchedule((SignSym(t_final),))
    growth = b * log_n**2
    if growth <= 1.0:
        raise ScheduleError(
            f"b*log^2(n) = {growth:g} <= 1: convolution layers cannot grow the SNR")
    depth = math.ceil(log_n / math.log(growth))
    layers: Sequence[AttentionSpec] = [Uniform()] * depth + [SignSym(t_final)]
    return LayerSchedule(tuple(layers))
