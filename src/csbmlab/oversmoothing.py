"""Node-similarity measure, its axioms, and per-layer decay diagnostics.

The similarity measure is the population standard deviation of the feature
vector, gamma(X) = ||X - mean(X)||_2 / sqrt(n). A network over-smooths when
gamma shrinks exponentially with depth; since an exponential envelope is
undecidable from a finite trace, the operational verdict fits a line to
log gamma and compares the slope against a threshold (default 0.01 per
layer, which separates the visibly exponential traces from the flat ones).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csbm import FeaturedGraph
from .errors import ParameterError
from .network import AttentionSpec, LayerSchedule, SignSym, Uniform, run_network

__all__ = [
    "SimilarityTrace",
    "DecayFit",
    "AxiomReport",
    "gamma",
    "check_similarity_axioms",
    "predicted_decay_factor",
    "trace_gamma",
    "fit_decay",
]

# log-gamma values below this are treated as numerically dead and excluded
# from the decay fit.
_GAMMA_FLOOR = 1e-300
# A trace that has fallen to this fraction of its first value is at the
# rounding floor of float64 averaging, where it stops decaying and would
# flatten the fitted slope; the fit stops there too.
_GAMMA_RELATIVE_FLOOR = 1e-12


def gamma(features) -> float:
    """Population standard deviation of the feature vector; 0 iff constant."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 1 or x.size < 1:
        raise ParameterError("gamma expects a non-empty 1-d feature vector")
    return float(np.sqrt(np.mean((x - x.mean()) ** 2)))


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of randomized checks of the similarity-measure axioms."""

    samples: int
    zero_iff_constant_ok: bool
    triangle_ok: bool
    translation_ok: bool
    worst_triangle_violation: float
    worst_translation_error: float

    @property
    def all_ok(self) -> bool:
        return self.zero_iff_constant_ok and self.triangle_ok and self.translation_ok


def check_similarity_axioms(sample_count: int, seed: int, n: int = 64) -> AxiomReport:
    """Verify, on random vectors, that gamma behaves like a similarity measure:

    zero exactly on constant vectors, subadditive, and translation invariant.
    """
    if sample_count < 1:
        raise ParameterError("sample_count must be >= 1")
    rng = np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), 0]))
    zero_ok = True
    tri_worst = 0.0
    shift_worst = 0.0
    for _ in range(sample_count):
        x = rng.standard_normal(n) * math.exp(rng.uniform(-3, 3))
        y = rng.standard_normal(n) * math.exp(rng.uniform(-3, 3))
        c = rng.uniform(-100.0, 100.0)
        # mean(n copies of c) can round away from c, so "zero on constants"
        # is checked to 1e-12 of the constant's scale
        zero_ok &= gamma(np.full(n, c)) <= 1e-12 * max(1.0, abs(c))
        zero_ok &= gamma(x) > 0.0
        scale = max(gamma(x), gamma(y))
        tri_worst = max(tri_worst, (gamma(x + y) - gamma(x) - gamma(y)) / scale)
        shift_worst = max(shift_worst, abs(gamma(x + c) - gamma(x)) / gamma(x))
    return AxiomReport(
        samples=sample_count,
        zero_iff_constant_ok=bool(zero_ok),
        triangle_ok=tri_worst <= 1e-12,
        translation_ok=shift_worst <= 1e-9,
        worst_triangle_violation=tri_worst,
        worst_translation_error=shift_worst,
    )


def predicted_decay_factor(p: float, q: float, spec: AttentionSpec) -> float:
    """Per-layer contraction of gamma predicted for a dense homophilic graph.

    Uniform averaging contracts by (p-q)/(p+q); sign attention at intensity
    t contracts by (p e^2t - q)/(p e^2t + q), which tends to 1 as t grows.
    Only the homophilic regime p > q > 0 is covered.
    """
    if not p > q > 0:
        raise ParameterError(f"need p > q > 0, got p={p!r}, q={q!r}")
    if isinstance(spec, Uniform):
        return (p - q) / (p + q)
    if isinstance(spec, SignSym):
        # (p e^2t - q) / (p e^2t + q) without overflowing e^2t
        ratio = (q / p) * math.exp(-2.0 * spec.t)
        return (1.0 - ratio) / (1.0 + ratio)
    raise ParameterError(f"no decay prediction for spec {spec!r}")


@dataclass(frozen=True)
class SimilarityTrace:
    """gamma after every layer (index 0 is the input features)."""

    gamma_values: tuple[float, ...]
    schedule: str
    n: int

    def __len__(self) -> int:
        return len(self.gamma_values)


def trace_gamma(graph: FeaturedGraph, schedule: LayerSchedule) -> SimilarityTrace:
    trace, _ = run_network(graph, schedule)
    values = tuple(gamma(x) for x in trace.snapshots)
    return SimilarityTrace(gamma_values=values, schedule=schedule.describe(), n=graph.n)


@dataclass(frozen=True)
class DecayFit:
    """Log-linear fit of a gamma trace.

    ``decay_rate`` is the fitted per-layer rate (positive = shrinking);
    ``oversmoothing`` is true when the rate exceeds the threshold used for
    the fit. ``truncated`` marks traces cut at the first dead value.
    """

    decay_rate: float
    intercept: float
    r_squared: float
    oversmoothing: bool
    threshold: float
    layers_used: int
    truncated: bool


def fit_decay(trace: SimilarityTrace, threshold: float = 0.01) -> DecayFit:
    """Least-squares line through (layer, log gamma); verdict by slope."""
    values = np.asarray(trace.gamma_values, dtype=np.float64)
    if values.size < 3:
        raise ParameterError("need a trace of at least 3 values to fit")
    alive = (values > _GAMMA_FLOOR) & (values > _GAMMA_RELATIVE_FLOOR * values[0])
    if alive.all():
        prefix = values
        truncated = False
    else:
        cut = int(np.argmin(alive))
        prefix = values[:cut]
        truncated = True
    if prefix.size < 2:
        raise ParameterError("trace dies too early to fit a slope")
    layer = np.arange(prefix.size, dtype=np.float64)
    logg = np.log(prefix)
    slope, intercept = np.polyfit(layer, logg, 1)
    resid = logg - (slope * layer + intercept)
    total = logg - logg.mean()
    denom = float(np.sum(total * total))
    r2 = 1.0 - float(np.sum(resid * resid)) / denom if denom > 0 else 1.0
    return DecayFit(
        decay_rate=float(-slope),
        intercept=float(intercept),
        r_squared=r2,
        oversmoothing=bool(-slope >= threshold),
        threshold=threshold,
        layers_used=int(prefix.size),
        truncated=truncated,
    )
