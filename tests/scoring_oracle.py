"""Per-node softmax scoring: the reference the CSR forward layers are tested against.

For one centre node it scores every neighbour with the layer's rule and
normalises the scores with a max-subtracted softmax, so arbitrarily large
intensities (t of several hundred) neither overflow nor produce NaNs; in
that limit opposite-sign weights underflow to exact zeros and the softmax
degenerates to a uniform average over same-sign neighbours, which is the
mathematically correct limit.
"""

from dataclasses import dataclass

import numpy as np

from csbmlab import AttentionSpec, ParameterError, SignSym, Uniform


def psi_sign(xi: float, xj: float, t: float):
    """Sign-agreement score: +t when xi*xj >= 0, else -t. Vectorises over xj.

    Agreement is read from the signs, sgn(xi) sgn(xj) >= 0, so a product too
    small to represent (which rounds to -0.0) cannot pass as agreement.
    """
    if not t >= 0.0:
        raise ParameterError(f"attention intensity must be >= 0, got {t!r}")
    xj = np.asarray(xj, dtype=np.float64)
    out = np.where(np.sign(xi) * np.sign(xj) >= 0.0, t, -t)
    return float(out) if out.ndim == 0 else out


def scores(spec: AttentionSpec, xi: float, xj: np.ndarray) -> np.ndarray:
    """Raw scores of ``spec`` for one centre feature against an array of neighbours."""
    xj = np.asarray(xj, dtype=np.float64)
    if isinstance(spec, Uniform):
        return np.zeros_like(xj)
    if isinstance(spec, SignSym):
        return np.asarray(psi_sign(xi, xj, spec.t))
    raise ParameterError(f"unknown attention spec {spec!r}")


@dataclass(frozen=True)
class CoefficientRow:
    """Softmax coefficients of one node over its neighbour list."""

    node: int
    neighbors: np.ndarray
    coefficients: np.ndarray


def attention_coefficients(features, i: int, neighbors, spec: AttentionSpec) -> CoefficientRow:
    """Softmax-normalised coefficients c_ij over a non-empty neighbour list.

    An empty list raises ValueError: an isolated node has no coefficients,
    and the forward layers map it to output 0 themselves.
    """
    features = np.asarray(features, dtype=np.float64)
    neighbors = np.asarray(neighbors, dtype=np.int64)
    if neighbors.size == 0:
        raise ValueError(f"node {i} has no neighbours")
    s = scores(spec, features[i], features[neighbors])
    w = np.exp(s - s.max())
    c = w / w.sum()
    return CoefficientRow(node=i, neighbors=neighbors, coefficients=c)
