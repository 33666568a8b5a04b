"""Edge scoring rules and softmax-normalised neighbour coefficients.

Three scoring rules are supported:

* ``Uniform``       -- every neighbour scores 0, so coefficients are 1/deg;
* ``SignSym(t)``    -- score +t when the two features agree in sign
  (a product of exactly zero counts as agreement), -t otherwise;
* ``XorNet(R, beta)`` -- the piecewise-linear score realised by a fixed
  two-layer LeakyReLU network that separates same-sign from opposite-sign
  pairs; ``R`` scales the output and ``beta`` is the LeakyReLU slope.

Coefficients are computed with max-subtracted softmax so that arbitrarily
large intensities (t of several hundred) neither overflow nor produce NaNs;
in that limit opposite-sign weights underflow to exact zeros and the
softmax degenerates to a uniform average over same-sign neighbours, which
is the mathematically correct limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IsolatedNodeError, ParameterError

__all__ = [
    "Uniform",
    "SignSym",
    "XorNet",
    "AttentionSpec",
    "CoefficientRow",
    "psi_sign",
    "psi_xor",
    "attention_coefficients",
]


@dataclass(frozen=True)
class Uniform:
    """Score every neighbour equally; softmax gives plain averaging."""

    def describe(self) -> str:
        return "uniform"


@dataclass(frozen=True)
class SignSym:
    """Sign-agreement score of magnitude ``t`` (t = 0 degenerates to Uniform)."""

    t: float

    def __post_init__(self):
        if not self.t >= 0.0:
            raise ParameterError(f"attention intensity must be >= 0, got {self.t!r}")

    def describe(self) -> str:
        return f"sign(t={self.t:g})"


@dataclass(frozen=True)
class XorNet:
    """Two-layer LeakyReLU scorer with output scale ``R`` and slope ``beta``."""

    R: float
    beta: float

    def __post_init__(self):
        if not self.R > 0.0:
            raise ParameterError(f"scale R must be positive, got {self.R!r}")
        if not 0.0 < self.beta < 1.0:
            raise ParameterError(f"slope beta must lie in (0, 1), got {self.beta!r}")

    def describe(self) -> str:
        return f"xor(R={self.R:g},beta={self.beta:g})"


AttentionSpec = Uniform | SignSym | XorNet


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


def psi_xor(xi: float, xj: float, R: float, beta: float):
    """Piecewise-linear score of the fixed XOR-separating network.

    Equals -2R(1-beta)*xi for xj <= -|xi|, 2R(1-beta)*sgn(xi)*xj inside
    (-|xi|, |xi|), and 2R(1-beta)*xi for xj >= |xi|. Each branch is
    homogeneous of degree one in (xi, xj). Vectorises over xj.
    """
    if not R > 0.0:
        raise ParameterError(f"scale R must be positive, got {R!r}")
    if not 0.0 < beta < 1.0:
        raise ParameterError(f"slope beta must lie in (0, 1), got {beta!r}")
    xj = np.asarray(xj, dtype=np.float64)
    a = np.abs(xi)
    scale = 2.0 * R * (1.0 - beta)
    inner = scale * np.sign(xi) * xj
    out = np.where(xj <= -a, -scale * xi, np.where(xj >= a, scale * xi, inner))
    return float(out) if out.ndim == 0 else out


def scores(spec: AttentionSpec, xi: float, xj: np.ndarray) -> np.ndarray:
    """Raw scores of ``spec`` for one centre feature against an array of neighbours."""
    xj = np.asarray(xj, dtype=np.float64)
    if isinstance(spec, Uniform):
        return np.zeros_like(xj)
    if isinstance(spec, SignSym):
        return np.asarray(psi_sign(xi, xj, spec.t))
    if isinstance(spec, XorNet):
        return np.asarray(psi_xor(xi, xj, spec.R, spec.beta))
    raise ParameterError(f"unknown attention spec {spec!r}")


@dataclass(frozen=True)
class CoefficientRow:
    """Softmax coefficients of one node over its neighbour list."""

    node: int
    neighbors: np.ndarray
    coefficients: np.ndarray


def attention_coefficients(features, i: int, neighbors, spec: AttentionSpec) -> CoefficientRow:
    """Softmax-normalised coefficients c_ij over a non-empty neighbour list.

    Raises IsolatedNodeError for an empty list; the caller decides the
    fallback (the network layer maps isolated nodes to output 0).
    """
    features = np.asarray(features, dtype=np.float64)
    neighbors = np.asarray(neighbors, dtype=np.int64)
    if neighbors.size == 0:
        raise IsolatedNodeError(f"node {i} has no neighbours")
    s = scores(spec, features[i], features[neighbors])
    w = np.exp(s - s.max())
    c = w / w.sum()
    return CoefficientRow(node=i, neighbors=neighbors, coefficients=c)
