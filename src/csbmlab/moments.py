"""Post-layer feature moments for one attention step, plus their oracles.

For a centre node with ``deg_p`` same-class neighbours (features from
N(+mu, sigma^2)), ``deg_q`` cross-class neighbours (from N(-mu, sigma^2))
and sign-agreement scoring at intensity ``t``, the aggregated output is

    X' = sum_j w_j X_j / sum_j w_j,   w_j = exp(+-t)  by sign agreement.

Conditioning on the centre's sign and on how many neighbours in each class
land on each side of zero makes the law of X' explicit: given the counts,
the softmax denominator is a constant and the neighbour features are
independent half-line truncations of their Gaussians. ``closed_form_mean``
and ``closed_form_var`` sum that conditional decomposition exactly over the
(deg_p+1) x (deg_q+1) count grid -- a finite closed form built from the
half-line Gaussian moments, with binomial count weights assembled in log
space so extreme tail probabilities (z ~ e^-200 at high SNR) cannot
underflow the sum.

The product-form expressions (an inverse-denominator binomial sum times a
linear/quadratic combination of the tail scalars) are kept alongside as
``asymptotic_moments``; they are exact at t = 0 and converge to the exact
law at high SNR, but keep an O(z) bias at moderate SNR, so every numerical
acceptance check runs against the exact law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalConsistencyError, ParameterError

__all__ = [
    "MomentInputs",
    "TailScalars",
    "HalfLineMoments",
    "MomentPair",
    "McMoments",
    "SequenceDiagnostics",
    "normal_upper_tail",
    "log_normal_upper_tail",
    "truncated_moments",
    "tail_scalars",
    "closed_form_mean",
    "closed_form_var",
    "closed_form_moments",
    "asymptotic_moments",
    "inverse_denominator_moment",
    "corollary_case",
    "snr_gain",
    "snr_gain_factor",
    "sequence_diagnostics",
    "monte_carlo_moments",
]


def _log_sf(s: float) -> float:
    from scipy.special import erfcx

    # scaled complementary error function keeps full precision in the tail:
    # log sf(s) = log(erfcx(s/sqrt(2))/2) - s^2/2 for s > 0
    if s <= 0.0:
        return math.log(math.erfc(s / math.sqrt(2.0)) / 2.0)
    return math.log(float(erfcx(s / math.sqrt(2.0))) / 2.0) - s * s / 2.0


def normal_upper_tail(s: float) -> float:
    """P{Z >= s} for standard normal Z (the survival function)."""
    return math.exp(_log_sf(s))


def log_normal_upper_tail(s: float) -> float:
    """log P{Z >= s}; keeps machine precision arbitrarily far into the tail."""
    return _log_sf(s)


@dataclass(frozen=True)
class HalfLineMoments:
    """Unnormalised half-line moments of one Gaussian N(m, sigma^2):

    first_pos  = int_0^inf  x   f(x) dx      first_neg = int_-inf^0 x   f(x) dx
    second_pos = int_0^inf  x^2 f(x) dx      second_neg = int_-inf^0 x^2 f(x) dx
    """

    first_pos: float
    first_neg: float
    second_pos: float
    second_neg: float


def _half_line(m: float, sigma: float) -> HalfLineMoments:
    z = normal_upper_tail(m / sigma)          # P{X < 0} for X ~ N(m, sigma^2)
    y = sigma / math.sqrt(2 * math.pi) * math.exp(-(m * m) / (2 * sigma * sigma))
    return HalfLineMoments(
        first_pos=y + m * (1.0 - z),
        first_neg=-y + m * z,
        second_pos=m * y + (m * m + sigma * sigma) * (1.0 - z),
        second_neg=-m * y + (m * m + sigma * sigma) * z,
    )


def truncated_moments(mu: float, sigma: float) -> tuple[HalfLineMoments, HalfLineMoments]:
    """Half-line moments for N(+mu, sigma^2) and for N(-mu, sigma^2)."""
    if not sigma > 0:
        raise ParameterError(f"sigma must be positive, got {sigma!r}")
    return _half_line(mu, sigma), _half_line(-mu, sigma)


@dataclass(frozen=True)
class TailScalars:
    """Tail probability, Gaussian density mass, and the exp(+-t)-weighted moments.

    ``a_plus``/``a_minus`` are the means of exp(+-t sgn(X)) X for
    X ~ N(mu, sigma^2); ``b_plus``/``b_minus`` are the corresponding
    variances, hence never negative.
    """

    y: float
    z: float
    a_plus: float
    a_minus: float
    b_plus: float
    b_minus: float


def tail_scalars(mu: float, sigma: float, t: float) -> TailScalars:
    if not sigma > 0:
        raise ParameterError(f"sigma must be positive, got {sigma!r}")
    if abs(t) > 350.0:
        # b_plus needs exp(2t); beyond this the scalars leave float range.
        # closed_form_moments has no such limit (its ratios are normalised).
        raise ParameterError(f"|t| must be <= 350 for the tail scalars, got {t!r}")
    h = _half_line(mu, sigma)
    z = normal_upper_tail(mu / sigma)
    y = sigma / math.sqrt(2 * math.pi) * math.exp(-(mu * mu) / (2 * sigma * sigma))
    et, emt = math.exp(t), math.exp(-t)
    a_plus = et * h.first_pos + emt * h.first_neg
    a_minus = emt * h.first_pos + et * h.first_neg
    b_plus = et * et * h.second_pos + emt * emt * h.second_neg - a_plus * a_plus
    b_minus = emt * emt * h.second_pos + et * et * h.second_neg - a_minus * a_minus
    return TailScalars(y=y, z=z, a_plus=a_plus, a_minus=a_minus,
                       b_plus=b_plus, b_minus=b_minus)


@dataclass(frozen=True)
class MomentInputs:
    """Arguments of the one-layer moment law."""

    mu: float
    sigma: float
    t: float
    deg_p: int
    deg_q: int

    def __post_init__(self):
        if not self.mu >= 0:
            raise ParameterError(f"mu must be >= 0, got {self.mu!r}")
        if not self.sigma > 0:
            raise ParameterError(f"sigma must be positive, got {self.sigma!r}")
        if not self.t >= 0:
            raise ParameterError(f"t must be >= 0, got {self.t!r}")
        if self.deg_p < 0 or self.deg_q < 0:
            raise ParameterError("degrees must be non-negative")
        if self.deg_p + self.deg_q < 1:
            raise ParameterError("the neighbourhood must contain at least one node")


@dataclass(frozen=True)
class MomentPair:
    """Mean and variance of the post-layer feature of one node."""

    mu_prime: float
    var_prime: float


def _log_binom_pmf(n: int, log_p: float, log_1mp: float) -> np.ndarray:
    """log Binomial(n, p) pmf on 0..n given log p and log(1-p)."""
    from scipy.special import gammaln

    k = np.arange(n + 1)
    return (gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
            + k * log_p + (n - k) * log_1mp)


def _conditional_law(inputs: MomentInputs) -> tuple[float, float]:
    """Exact (mean, second moment) of the aggregated output.

    Sums the conditional decomposition over the centre sign and the
    per-class positive-feature counts. All count probabilities are built in
    log space; the bounded conditional group moments multiply exponentiated
    weights, so negligible count cells contribute exact zeros rather than
    NaNs even when z underflows.
    """
    mu, sigma, t = inputs.mu, inputs.sigma, inputs.t
    np_, nq = inputs.deg_p, inputs.deg_q
    log_z = _log_sf(mu / sigma)               # log P{X < 0}, X ~ N(mu, sigma^2)
    log_1mz = _log_sf(-mu / sigma)
    log_y = (math.log(sigma) - 0.5 * math.log(2 * math.pi)
             - (mu * mu) / (2 * sigma * sigma))
    # Conditional (normalised) truncated moments; y/z and y/(1-z) are
    # evaluated via log differences so both tails stay finite.
    ry_z = math.exp(log_y - log_z)            # y / z
    ry_1mz = math.exp(log_y - log_1mz)        # y / (1-z)
    m2 = mu * mu + sigma * sigma
    intra_pos = (mu + ry_1mz, m2 + mu * ry_1mz)      # E[X | X>=0], E[X^2 | X>=0], X ~ N(+mu)
    intra_neg = (mu - ry_z, m2 - mu * ry_z)          # E[X | X<0]
    inter_pos = (-mu + ry_z, m2 - mu * ry_z)         # X ~ N(-mu)
    inter_neg = (-mu - ry_1mz, m2 + mu * ry_1mz)

    # Joint count probabilities: r same-class and s cross-class neighbours
    # with non-negative features.
    lp_r = _log_binom_pmf(np_, log_1mz, log_z)[:, None]
    lp_s = _log_binom_pmf(nq, log_z, log_1mz)[None, :]
    prob = np.exp(lp_r + lp_s)
    r = np.arange(np_ + 1, dtype=np.float64)[:, None]
    s = np.arange(nq + 1, dtype=np.float64)[None, :]
    pos = r + s
    neg = (np_ + nq) - pos
    total = float(np_ + nq)
    # The common factor exp(t) cancels out of every ratio below, so the
    # per-branch weight pair is normalised to (1, e^-2t); e^-2t may underflow
    # to an exact zero at extreme t, in which case the single corner cell
    # whose members all carry the small weight degenerates to a uniform
    # average and is patched explicitly.
    w_small = math.exp(-2.0 * t) if t < 350.0 else 0.0

    def branch(w_match, w_mismatch, means, variances):
        m_ip, m_in, m_qp, m_qn = means
        v_ip, v_in, v_qp, v_qn = variances
        denom = pos * w_match + neg * w_mismatch
        lin = (r * w_match * m_ip + (np_ - r) * w_mismatch * m_in
               + s * w_match * m_qp + (nq - s) * w_mismatch * m_qn)
        quad = (r * w_match**2 * v_ip + (np_ - r) * w_mismatch**2 * v_in
                + s * w_match**2 * v_qp + (nq - s) * w_mismatch**2 * v_qn)
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio_mean = lin / denom
            ratio_second = (quad + lin * lin) / (denom * denom)
        corner = denom == 0.0
        if corner.any():
            lin_u = (r * m_ip + (np_ - r) * m_in + s * m_qp + (nq - s) * m_qn)
            quad_u = (r * v_ip + (np_ - r) * v_in + s * v_qp + (nq - s) * v_qn)
            ratio_mean = np.where(corner, lin_u / total, ratio_mean)
            ratio_second = np.where(corner, (quad_u + lin_u * lin_u) / total**2,
                                    ratio_second)
        return float(np.sum(prob * ratio_mean)), float(np.sum(prob * ratio_second))

    means_by_group = (intra_pos[0], intra_neg[0], inter_pos[0], inter_neg[0])
    vars_by_group = tuple(m[1] - m[0] ** 2
                          for m in (intra_pos, intra_neg, inter_pos, inter_neg))
    m_hi, s_hi = branch(1.0, w_small, means_by_group, vars_by_group)   # centre >= 0
    m_lo, s_lo = branch(w_small, 1.0, means_by_group, vars_by_group)   # centre < 0
    p_hi, p_lo = math.exp(log_1mz), math.exp(log_z)
    return p_hi * m_hi + p_lo * m_lo, p_hi * s_hi + p_lo * s_lo


def closed_form_mean(inputs: MomentInputs) -> float:
    """Exact mean of the post-layer feature of a class-1 centre node."""
    return _conditional_law(inputs)[0]


def closed_form_var(inputs: MomentInputs) -> float:
    """Exact variance of the post-layer feature; clamps tiny negative residue."""
    mean, second = _conditional_law(inputs)
    var = second - mean * mean
    if var < -1e-9:
        raise NumericalConsistencyError(
            f"variance evaluated to {var:.3e} < -1e-9 for {inputs}")
    return max(var, 0.0)


def closed_form_moments(inputs: MomentInputs) -> MomentPair:
    """Exact mean and variance in one pass over the count grid."""
    mean, second = _conditional_law(inputs)
    var = second - mean * mean
    if var < -1e-9:
        raise NumericalConsistencyError(
            f"variance evaluated to {var:.3e} < -1e-9 for {inputs}")
    return MomentPair(mu_prime=mean, var_prime=max(var, 0.0))


def inverse_denominator_moment(x: float, t: float, n: int, m: int, k: int = 1) -> float:
    """E[ 1 / ((I+J) e^t + (n+m-I-J) e^-t)^k ] with I ~ Bin(n, 1-x), J ~ Bin(m, x).

    The shared building block of the large-degree moment expressions and of
    the sequence diagnostics; evaluated by streaming log-sum-exp so that
    x near 0 or extreme t cannot underflow.
    """
    from scipy.special import logsumexp

    if n < 0 or m < 0 or n + m < 1:
        raise ParameterError("need n, m >= 0 with n + m >= 1")
    if not 0.0 < x < 1.0:
        raise ParameterError(f"x must lie strictly inside (0, 1), got {x!r}")
    lx, l1mx = math.log(x), math.log1p(-x)
    lp_i = _log_binom_pmf(n, l1mx, lx)[:, None]
    lp_j = _log_binom_pmf(m, lx, l1mx)[None, :]
    i = np.arange(n + 1, dtype=np.float64)[:, None]
    j = np.arange(m + 1, dtype=np.float64)[None, :]
    hi = i + j
    with np.errstate(divide="ignore"):
        log_denom = np.logaddexp(np.log(hi) + t, np.log(n + m - hi) - t)
    return float(np.exp(logsumexp(lp_i + lp_j - k * log_denom)))


def asymptotic_moments(inputs: MomentInputs) -> MomentPair:
    """Product-form approximation of the one-layer moments.

    Mean: (inverse-denominator sum) x (degree-weighted contrast of the
    exp(+-t)-weighted first moments). Variance: the squared-denominator sum
    times a quadratic form in the tail scalars, whose cross term is
    2*deg_p*deg_q*z(1-z)(a_plus - a_minus)^2 so the whole form is a sum of
    non-negative pieces.

    Exact at t = 0 for any degrees, and converges to the exact law as the
    degrees grow whenever the tail probability z is small (high SNR). At
    moderate SNR it keeps an O(z) bias even in the large-degree limit,
    because the product form prices both centre signs with the same
    denominator distribution; use ``closed_form_moments`` whenever numbers
    are to be trusted at face value.
    """
    mu, sigma, t = inputs.mu, inputs.sigma, inputs.t
    np_, nq = inputs.deg_p, inputs.deg_q
    ts = tail_scalars(mu, sigma, t)
    z = ts.z
    abar_p = (1 - z) * ts.a_plus + z * ts.a_minus
    abar_q = (1 - z) * ts.a_minus + z * ts.a_plus
    mean = inverse_denominator_moment(z, t, np_, nq, k=1) * (np_ * abar_p - nq * abar_q)
    spread = ((np_ + nq) ** 2 * z * (1 - z) * (ts.a_plus - ts.a_minus) ** 2
              + np_ * ((1 - z) * ts.b_plus + z * ts.b_minus)
              + nq * ((1 - z) * ts.b_minus + z * ts.b_plus))
    var = inverse_denominator_moment(z, t, np_, nq, k=2) * spread
    return MomentPair(mu_prime=mean, var_prime=var)


def corollary_case(p: float, q: float, mu: float, sigma: float, t: float,
                   n: int, which: str) -> MomentPair:
    """Specialised one-layer moments in three parameter regimes.

    ``which`` is one of:

    * ``"zero_t"``   -- uniform averaging: mean (p-q)/(p+q)*mu, variance
      sigma^2/(n(p+q));
    * ``"high_snr"`` -- sign information essentially perfect: mean
      (p e^t - q e^-t)/(p e^t + q e^-t)*mu with the matching
      (p e^2t + q e^-2t)/((p e^t + q e^-t)^2 n) sigma^2 variance, which
      reduces to the zero_t value at t = 0 (the per-realized-degree form
      of the same law is exactly twice this, the n(p+q)/2 vs n(p+q)
      degree-normalisation difference);
    * ``"low_snr"``  -- order-of-magnitude only, evaluated with unit
      constants: mean (p-q)/(p+q)*mu, variance
      ((e^t - e^-t)^2 + 1/(n(p+q))) sigma^2. Not suitable for equality
      tests.
    """
    if not (0 < p <= 1 and 0 < q <= 1):
        raise ParameterError("p and q must lie in (0, 1]")
    et, emt = math.exp(t), math.exp(-t)
    if which == "zero_t":
        return MomentPair((p - q) / (p + q) * mu, sigma * sigma / (n * (p + q)))
    if which == "high_snr":
        mean = (p * et - q * emt) / (p * et + q * emt) * mu
        var = ((p * et * et + q * emt * emt) / (p * et + q * emt) ** 2
               * sigma * sigma / (n * (p + q)) * (p + q))
        return MomentPair(mean, var)
    if which == "low_snr":
        return MomentPair((p - q) / (p + q) * mu,
                          ((et - emt) ** 2 + 1.0 / (n * (p + q))) * sigma * sigma)
    raise ParameterError(f"unknown corollary case {which!r}")


def snr_gain_factor(p: float, q: float, t: float) -> float:
    """delta(t) = sqrt((p e^t - q e^-t)^2 / (p e^2t + q e^-2t))."""
    if not (0 < p <= 1 and 0 < q <= 1):
        raise ParameterError("p and q must lie in (0, 1]")
    if not t >= 0:
        raise ParameterError(f"t must be >= 0, got {t!r}")
    et, emt = math.exp(t), math.exp(-t)
    return math.sqrt((p * et - q * emt) ** 2 / (p * et * et + q * emt * emt))


def snr_gain(p: float, q: float, t: float, n: int) -> float:
    """One-layer SNR multiplier sqrt(n) * delta(t) in the helpful regime."""
    return math.sqrt(n) * snr_gain_factor(p, q, t)


@dataclass(frozen=True)
class SequenceDiagnostics:
    """Inverse-denominator sum against its analytic envelope, plus the
    square-vs-squared-sum gap that controls the variance simplification."""

    gamma_value: float        # E[D^-k]
    gamma_lower: float        # e^-kt (n+m)^-k
    gamma_upper: float        # e^+kt (n+m)^-k
    a_value: float            # E[D^-2]
    b_value: float            # (E[D^-1])^2
    scaled_gap: float         # (n+m)^3 |A - B|
    gap_bound: float          # e^6t x(1-x)

    @property
    def within_bounds(self) -> bool:
        return (self.gamma_lower <= self.gamma_value <= self.gamma_upper
                and self.scaled_gap <= self.gap_bound)


def sequence_diagnostics(x: float, t: float, n: int, m: int, k: int = 1) -> SequenceDiagnostics:
    if not 0.0 < x < 0.5:
        raise ParameterError(f"x must lie in (0, 1/2), got {x!r}")
    if not t > 0.0:
        raise ParameterError(f"t must be positive, got {t!r}")
    gamma = inverse_denominator_moment(x, t, n, m, k=k)
    a = inverse_denominator_moment(x, t, n, m, k=2)
    b = inverse_denominator_moment(x, t, n, m, k=1) ** 2
    size = float(n + m)
    return SequenceDiagnostics(
        gamma_value=gamma,
        gamma_lower=math.exp(-k * t) / size**k,
        gamma_upper=math.exp(k * t) / size**k,
        a_value=a,
        b_value=b,
        scaled_gap=size**3 * abs(a - b),
        gap_bound=math.exp(6.0 * t) * x * (1.0 - x),
    )


@dataclass(frozen=True)
class McMoments:
    """Empirical moments of the aggregated output with their standard errors."""

    mean: float
    var: float
    se_mean: float
    se_var: float
    trials: int


def monte_carlo_moments(inputs: MomentInputs, trials: int, seed: int,
                        class_sign: int = 1) -> McMoments:
    """Simulate i.i.d. neighbourhoods and aggregate with sign-agreement weights.

    Each trial draws a centre feature from N(class_sign*mu, sigma^2),
    ``deg_p`` same-class and ``deg_q`` cross-class neighbour features, and
    averages the neighbours with weights exp(+-t) by sign agreement with
    the centre. The variance standard error uses the fourth central moment,
    so it stays honest for the non-Gaussian aggregate. Chunks draw from
    per-chunk Philox streams keyed by (seed, chunk), so the result does not
    depend on chunk size and chunks may be farmed out to workers as long as
    the reduction below is kept in chunk order.
    """
    if trials < 1000:
        raise ParameterError(f"need at least 1000 trials, got {trials}")
    if class_sign not in (-1, 1):
        raise ParameterError("class_sign must be -1 or +1")
    mu, sigma, t = inputs.mu, inputs.sigma, inputs.t
    np_, nq = inputs.deg_p, inputs.deg_q
    w_mismatch = math.exp(-2.0 * t) if t < 350.0 else 0.0
    chunk = max(1, int(2e7 // (np_ + nq + 1)))
    agg = np.empty(trials)
    done = 0
    chunk_index = 0
    while done < trials:
        size = min(chunk, trials - done)
        rng = np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), chunk_index]))
        centre = rng.normal(class_sign * mu, sigma, size=size)
        nbrs = np.concatenate(
            [rng.normal(class_sign * mu, sigma, size=(size, np_)),
             rng.normal(-class_sign * mu, sigma, size=(size, nq))], axis=1)
        agree = np.sign(centre)[:, None] * np.sign(nbrs) >= 0.0
        w = np.where(agree, 1.0, w_mismatch)
        wsum = w.sum(axis=1)
        # all-mismatch rows with an underflowed weight: the softmax limit is
        # a uniform average, mirroring the closed form's corner handling
        dead = wsum == 0.0
        agg[done:done + size] = np.where(
            dead, nbrs.mean(axis=1),
            (w * nbrs).sum(axis=1) / np.where(dead, 1.0, wsum))
        done += size
        chunk_index += 1
    mean = float(agg.mean())
    var = float(agg.var(ddof=1))
    se_mean = float(agg.std(ddof=1) / math.sqrt(trials))
    m4 = float(np.mean((agg - mean) ** 4))
    se_var = math.sqrt(max(m4 - var * var * (trials - 3) / (trials - 1), 0.0) / trials)
    return McMoments(mean=mean, var=var, se_mean=se_mean, se_var=se_var, trials=trials)
