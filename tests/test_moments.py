"""Moment formulas against quadrature, scalar Monte Carlo, and exact cases."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from csbmlab import (MomentInputs, ParameterError,
                     asymptotic_moments, closed_form_mean, closed_form_moments,
                     closed_form_var, corollary_case, inverse_denominator_moment,
                     log_normal_upper_tail, monte_carlo_moments, normal_upper_tail,
                     sequence_diagnostics, snr_gain, snr_gain_factor, tail_scalars,
                     truncated_moments)
from csbmlab.moments import McMoments, _conditional_law, _log_binom_pmf, _log_sf


# --- tail probabilities ----------------------------------------------------

def test_upper_tail_at_zero():
    assert normal_upper_tail(0.0) == pytest.approx(0.5, abs=1e-15)


def test_upper_tail_bound_at_three():
    v = normal_upper_tail(3.0)
    bound = min(0.5 * math.exp(-4.5), math.exp(-4.5) / (3 * math.sqrt(2 * math.pi)))
    assert v <= bound


@pytest.mark.parametrize("s", [1.0, 5.0, 10.0, 25.0, 40.0])
def test_upper_tail_matches_quadrature(s):
    # oracle: high-precision quadrature after the substitution x = s + u,
    # which keeps the integrand O(1)-scaled however deep the tail:
    # sf(s) = exp(-s^2/2)/sqrt(2 pi) * int_0^inf exp(-s u - u^2/2) du
    mpmath.mp.dps = 50
    tail_integral = mpmath.quad(lambda u: mpmath.exp(-s * u - u * u / 2),
                                [0, mpmath.inf])
    log_oracle = float(-s * s / 2 + mpmath.log(tail_integral)
                       - mpmath.log(mpmath.sqrt(2 * mpmath.pi)))
    assert log_normal_upper_tail(s) == pytest.approx(log_oracle, rel=1e-12)
    if s <= 35:
        oracle = mpmath.exp(log_oracle)
        assert normal_upper_tail(s) == pytest.approx(float(oracle), rel=1e-12)


# --- half-line moments ------------------------------------------------------

def quad_half_line(m, sigma):
    def f(x):
        return math.exp(-((x - m) ** 2) / (2 * sigma**2)) / (sigma * math.sqrt(2 * math.pi))
    lim = abs(m) + 12 * sigma
    return (quad(lambda x: x * f(x), 0, lim)[0],
            quad(lambda x: x * f(x), -lim, 0)[0],
            quad(lambda x: x * x * f(x), 0, lim)[0],
            quad(lambda x: x * x * f(x), -lim, 0)[0])


@pytest.mark.parametrize("mu", [0.0, 0.5, 1.0, 3.0])
@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_truncated_moments_match_quadrature(mu, sigma):
    plus, minus = truncated_moments(mu, sigma)
    for got, m in ((plus, mu), (minus, -mu)):
        want = quad_half_line(m, sigma)
        assert got.first_pos == pytest.approx(want[0], abs=1e-10)
        assert got.first_neg == pytest.approx(want[1], abs=1e-10)
        assert got.second_pos == pytest.approx(want[2], abs=1e-10)
        assert got.second_neg == pytest.approx(want[3], abs=1e-10)


def test_half_normal_mean():
    plus, _ = truncated_moments(0.0, 1.0)
    assert plus.first_pos == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-14)


def test_first_moment_identity():
    ts = tail_scalars(1.0, 1.0, 0.0)
    plus, _ = truncated_moments(1.0, 1.0)
    assert plus.first_pos == pytest.approx(ts.y + 1.0 * (1 - ts.z), rel=1e-14)


# --- exp(+-t)-weighted scalars ----------------------------------------------

def test_tail_scalars_zero_t_mean_is_mu():
    for mu, sigma in ((0.5, 1.0), (2.0, 0.7), (3.0, 4.0)):
        ts = tail_scalars(mu, sigma, 0.0)
        assert ts.a_plus == pytest.approx(mu, rel=1e-12)
        assert ts.a_minus == pytest.approx(mu, rel=1e-12)


def test_tail_scalars_zero_mean_case():
    ts = tail_scalars(0.0, 1.0, 1.3)
    y = 1.0 / math.sqrt(2 * math.pi)
    assert ts.z == pytest.approx(0.5, rel=1e-12)
    assert ts.a_plus == pytest.approx(y * (math.e**1.3 - math.e**-1.3), rel=1e-10)
    assert ts.a_minus == pytest.approx(-ts.a_plus, rel=1e-10)


def test_tail_scalars_match_scalar_monte_carlo():
    # a_plus/b_plus are mean/variance of exp(t sgn(X)) X over X ~ N(mu, sigma^2)
    mu, sigma, t = 1.0, 1.0, 1.0
    ts = tail_scalars(mu, sigma, t)
    rng = np.random.default_rng(5)
    n = 10**7
    x = rng.normal(mu, sigma, size=n)
    g = np.where(x >= 0, math.exp(t), math.exp(-t)) * x
    se_mean = g.std(ddof=1) / math.sqrt(n)
    assert abs(g.mean() - ts.a_plus) < 4 * se_mean
    var = g.var(ddof=1)
    m4 = np.mean((g - g.mean()) ** 4)
    se_var = math.sqrt((m4 - var**2) / n)
    assert abs(var - ts.b_plus) < 4 * se_var
    assert ts.b_plus >= 0.0 and ts.b_minus >= 0.0


# --- exact one-layer law ------------------------------------------------------

def test_zero_t_reduction_exact():
    rng = np.random.default_rng(6)
    for _ in range(50):
        mu = float(rng.uniform(0.05, 5.0))
        sigma = float(rng.uniform(0.1, 4.0))
        dp = int(rng.integers(1, 60))
        dq = int(rng.integers(0, 60))
        inputs = MomentInputs(mu, sigma, 0.0, dp, dq)
        mean = closed_form_mean(inputs)
        var = closed_form_var(inputs)
        deg = dp + dq
        assert mean == pytest.approx((dp - dq) / deg * mu, rel=1e-10)
        assert var == pytest.approx(sigma**2 / deg, rel=1e-10)


def test_zero_mu_mean_vanishes():
    inputs = MomentInputs(0.0, 1.0, 1.0, 10, 5)
    assert abs(closed_form_mean(inputs)) < 1e-14


def test_deterministic_features_give_zero_variance():
    inputs = MomentInputs(1.0, 1e-8, 0.7, 10, 5)
    assert closed_form_var(inputs) < 1e-12


def test_closed_form_matches_monte_carlo():
    inputs = MomentInputs(1.0, 1.0, 1.0, 10, 5)
    pair = closed_form_moments(inputs)
    mc = monte_carlo_moments(inputs, trials=200_000, seed=17)
    assert abs(pair.mu_prime - mc.mean) < 4 * mc.se_mean
    assert abs(pair.var_prime - mc.var) < 4 * mc.se_var


def test_all_intra_neighbourhood_reduction():
    # with no cross-class neighbours the law reduces to the truncated-moment
    # mixture; the Monte Carlo oracle must agree with it
    inputs = MomentInputs(0.8, 1.0, 1.7, 12, 0)
    pair = closed_form_moments(inputs)
    mc = monte_carlo_moments(inputs, trials=200_000, seed=23)
    assert abs(pair.mu_prime - mc.mean) < 4 * mc.se_mean
    assert abs(pair.var_prime - mc.var) < 4 * mc.se_var


def test_extreme_intensity_stays_finite():
    inputs = MomentInputs(1.0, 1.0, 500.0, 8, 4)
    pair = closed_form_moments(inputs)
    assert math.isfinite(pair.mu_prime) and math.isfinite(pair.var_prime)
    assert pair.var_prime >= 0.0
    mc = monte_carlo_moments(inputs, trials=100_000, seed=3)
    assert abs(pair.mu_prime - mc.mean) < 4 * mc.se_mean


def test_degenerate_neighbourhood_rejected():
    with pytest.raises(ParameterError):
        MomentInputs(1.0, 1.0, 1.0, 0, 0)


def test_monte_carlo_determinism_and_validation():
    inputs = MomentInputs(1.0, 2.0, 0.5, 6, 3)
    a = monte_carlo_moments(inputs, trials=5000, seed=9)
    b = monte_carlo_moments(inputs, trials=5000, seed=9)
    assert (a.mean, a.var, a.se_mean, a.se_var) == (b.mean, b.var, b.se_mean, b.se_var)
    with pytest.raises(ParameterError):
        monte_carlo_moments(inputs, trials=10, seed=0)


def test_monte_carlo_t0_against_exact():
    inputs = MomentInputs(1.5, 1.0, 0.0, 9, 4)
    mc = monte_carlo_moments(inputs, trials=100_000, seed=11)
    assert abs(mc.mean - (9 - 4) / 13 * 1.5) < 4 * mc.se_mean


def test_class_mirror_antisymmetry():
    inputs = MomentInputs(1.0, 1.0, 1.0, 10, 5)
    plus = monte_carlo_moments(inputs, trials=100_000, seed=31, class_sign=1)
    minus = monte_carlo_moments(inputs, trials=100_000, seed=31, class_sign=-1)
    se = math.sqrt(plus.se_mean**2 + minus.se_mean**2)
    assert abs(plus.mean + minus.mean) < 4 * se


# --- the sum over k against the count grid and the fused Monte Carlo ----------

def grid_law_oracle(inputs):
    """(mean, second moment) summed over the (deg_p+1) x (deg_q+1) grid of
    per-class positive counts: the law's earlier implementation."""
    mu, sigma, t = inputs.mu, inputs.sigma, inputs.t
    np_, nq = inputs.deg_p, inputs.deg_q
    log_z = _log_sf(mu / sigma)
    log_1mz = _log_sf(-mu / sigma)
    log_y = (math.log(sigma) - 0.5 * math.log(2 * math.pi)
             - (mu * mu) / (2 * sigma * sigma))
    ry_z = math.exp(log_y - log_z)
    ry_1mz = math.exp(log_y - log_1mz)
    m2 = mu * mu + sigma * sigma
    groups = ((mu + ry_1mz, m2 + mu * ry_1mz), (mu - ry_z, m2 - mu * ry_z),
              (-mu + ry_z, m2 - mu * ry_z), (-mu - ry_1mz, m2 + mu * ry_1mz))
    lp_r = _log_binom_pmf(np_, log_1mz, log_z)[:, None]
    lp_s = _log_binom_pmf(nq, log_z, log_1mz)[None, :]
    prob = np.exp(lp_r + lp_s)
    r = np.arange(np_ + 1, dtype=np.float64)[:, None]
    s = np.arange(nq + 1, dtype=np.float64)[None, :]
    pos = r + s
    neg = (np_ + nq) - pos
    total = float(np_ + nq)
    w_small = math.exp(-2.0 * t) if t < 350.0 else 0.0

    def branch(w_match, w_mismatch):
        (m_ip, m_in, m_qp, m_qn) = (g[0] for g in groups)
        (v_ip, v_in, v_qp, v_qn) = (g[1] - g[0] ** 2 for g in groups)
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
            lin_u = r * m_ip + (np_ - r) * m_in + s * m_qp + (nq - s) * m_qn
            quad_u = r * v_ip + (np_ - r) * v_in + s * v_qp + (nq - s) * v_qn
            ratio_mean = np.where(corner, lin_u / total, ratio_mean)
            ratio_second = np.where(corner, (quad_u + lin_u * lin_u) / total**2,
                                    ratio_second)
        return float(np.sum(prob * ratio_mean)), float(np.sum(prob * ratio_second))

    m_hi, s_hi = branch(1.0, w_small)
    m_lo, s_lo = branch(w_small, 1.0)
    p_hi, p_lo = math.exp(log_1mz), math.exp(log_z)
    return p_hi * m_hi + p_lo * m_lo, p_hi * s_hi + p_lo * s_lo


def concatenating_monte_carlo_oracle(inputs, trials, seed, class_sign=1):
    """The Monte Carlo aggregator that concatenates both neighbour blocks:
    same draws as ``monte_carlo_moments``, other reduction order."""
    mu, sigma, t = inputs.mu, inputs.sigma, inputs.t
    np_, nq = inputs.deg_p, inputs.deg_q
    w_mismatch = math.exp(-2.0 * t) if t < 350.0 else 0.0
    chunk = max(1, int(2e7 // (np_ + nq + 1)))
    agg = np.empty(trials)
    done = chunk_index = 0
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
        dead = wsum == 0.0
        agg[done:done + size] = np.where(
            dead, nbrs.mean(axis=1), (w * nbrs).sum(axis=1) / np.where(dead, 1.0, wsum))
        done += size
        chunk_index += 1
    mean = float(agg.mean())
    var = float(agg.var(ddof=1))
    m4 = float(np.mean((agg - mean) ** 4))
    return McMoments(mean=mean, var=var,
                     se_mean=float(agg.std(ddof=1) / math.sqrt(trials)),
                     se_var=math.sqrt(max(m4 - var * var * (trials - 3) / (trials - 1), 0.0)
                                      / trials),
                     trials=trials)


@pytest.mark.parametrize("degrees", [(1, 0), (0, 1), (5, 0), (0, 5), (3, 3), (20, 10),
                                     (100, 40), (126, 94), (320, 160)])
def test_sum_over_k_matches_count_grid(degrees):
    dp, dq = degrees
    for ms in (0.0, 0.2, 1.0, 3.0, 20.0, 40.0):
        for sigma in (1.0, 2.5):
            mu = ms * sigma
            scale = mu + sigma
            for t in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 400.0, 1000.0):
                inputs = MomentInputs(mu, sigma, t, dp, dq)
                mean, second = _conditional_law(inputs)
                want_mean, want_second = grid_law_oracle(inputs)
                assert abs(mean - want_mean) <= 1e-13 * scale, inputs
                assert abs(second - want_second) <= 1e-13 * scale**2, inputs


@pytest.mark.parametrize("t", [10.0, 20.0])
def test_one_neighbour_law_is_its_feature(t):
    # a single neighbour is the output whatever its weight: expanding lin^2
    # into raw count moments once gave a second moment of 1.175 here
    for dp, dq, sign in ((1, 0, 1.0), (0, 1, -1.0)):
        inputs = MomentInputs(0.2, 1.0, t, dp, dq)
        pair = closed_form_moments(inputs)
        assert pair.mu_prime == pytest.approx(sign * 0.2, rel=1e-13)
        assert pair.var_prime == pytest.approx(1.0, rel=1e-13)
        mean, second = grid_law_oracle(inputs)
        assert abs(pair.mu_prime - mean) <= 1e-13 * 1.2
        assert abs(pair.var_prime + pair.mu_prime**2 - second) <= 1e-13 * 1.2**2


@pytest.mark.parametrize("t", [180.0, 200.0, 300.0, 349.0])
def test_law_stays_finite_where_the_small_weight_squared_underflows(t):
    # e^-4t underflows for t > ~177 while e^-2t does not until 350; the
    # law has converged to its t -> infinity limit long before
    for ms, dp, dq in ((1.0, 8, 4), (0.2, 1, 0), (3.0, 20, 10)):
        got = closed_form_moments(MomentInputs(ms, 1.0, t, dp, dq))
        limit = closed_form_moments(MomentInputs(ms, 1.0, 1000.0, dp, dq))
        assert got.mu_prime == pytest.approx(limit.mu_prime, rel=1e-12)
        assert got.var_prime == pytest.approx(limit.var_prime, rel=1e-12)


def test_mean_and_var_are_the_moments_fields():
    inputs = MomentInputs(1.0, 2.0, 1.5, 12, 7)
    pair = closed_form_moments(inputs)
    assert (closed_form_mean(inputs), closed_form_var(inputs)) == (pair.mu_prime, pair.var_prime)


@pytest.mark.parametrize("cell", [
    (1.0, 1.0, 10, 5, 1), (0.2, 2.0, 20, 10, 1), (3.0, 0.5, 100, 40, 1),
    (1.0, 1.0, 10, 5, -1), (0.8, 1.7, 12, 0, 1), (0.8, 1.7, 12, 0, -1),
    (1.0, 500.0, 8, 4, 1), (0.2, 500.0, 3, 2, 1), (0.2, 500.0, 3, 2, -1),
    (0.5, 0.0, 0, 6, 1)])
def test_fused_monte_carlo_matches_concatenating_aggregator(cell):
    # at t = 500 the mismatch weight underflows to 0; with mu = 0.2 and five
    # neighbours about one row in 32 has every weight at 0
    mu, t, dp, dq, class_sign = cell
    inputs = MomentInputs(mu, 1.0, t, dp, dq)
    got = monte_carlo_moments(inputs, trials=20_000, seed=41, class_sign=class_sign)
    want = concatenating_monte_carlo_oracle(inputs, 20_000, 41, class_sign)
    for field in ("mean", "var", "se_mean", "se_var"):
        assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-12, abs=0.0)


# --- large-degree limit -------------------------------------------------------

def test_asymptotic_exact_at_zero_t():
    inputs = MomentInputs(1.0, 2.0, 0.0, 14, 6)
    pair = asymptotic_moments(inputs)
    assert pair.mu_prime == pytest.approx((14 - 6) / 20 * 1.0, rel=1e-10)
    assert pair.var_prime == pytest.approx(4.0 / 20, rel=1e-10)


def test_asymptotic_approaches_exact_law_at_high_snr():
    # with the tail probability small the product form converges to the
    # exact law as the degrees grow
    gaps = []
    for scale in (1, 4, 16):
        inputs = MomentInputs(3.0, 1.0, 1.0, 20 * scale, 10 * scale)
        exact = closed_form_moments(inputs)
        asym = asymptotic_moments(inputs)
        gaps.append(abs(asym.mu_prime - exact.mu_prime) / abs(exact.mu_prime))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.003


def test_asymptotic_keeps_moderate_snr_bias():
    # at SNR 1 the product form retains an O(z) bias that does not vanish
    # with degree; it must stay a few-percent effect, not explode
    inputs = MomentInputs(1.0, 1.0, 1.0, 320, 160)
    exact = closed_form_moments(inputs)
    asym = asymptotic_moments(inputs)
    gap = abs(asym.mu_prime - exact.mu_prime) / abs(exact.mu_prime)
    assert 0.005 < gap < 0.10


def test_variance_never_negative_on_sweep():
    for ms in (0.2, 1.0, 3.0, 20.0):
        for t in (0.0, 0.5, 2.0, 8.0):
            inputs = MomentInputs(ms, 1.0, t, 25, 10)
            assert closed_form_var(inputs) >= 0.0
            assert asymptotic_moments(inputs).var_prime >= 0.0


# --- corollary cases, SNR gain ------------------------------------------------

def test_corollary_zero_t():
    pair = corollary_case(0.2, 0.1, 3.0, 2.0, 0.0, 1000, "zero_t")
    assert pair.mu_prime == pytest.approx(0.1 / 0.3 * 3.0)
    assert pair.var_prime == pytest.approx(4.0 / (1000 * 0.3))


def test_corollary_high_snr_mean_factor_tends_to_one():
    factors = [corollary_case(0.2, 0.1, 1.0, 1.0, t, 1000, "high_snr").mu_prime
               for t in (1.0, 4.0, 16.0)]
    assert factors[0] < factors[1] < factors[2] < 1.0
    assert factors[2] == pytest.approx(1.0, abs=1e-6)


def test_corollary_high_snr_matches_exact_law():
    # at SNR 20 the general law and the specialised factor agree to 1%
    p, q, n = 0.2, 0.1, 1000
    for t in (0.5, 1.0, 2.0):
        dp, dq = int(n * p / 2), int(n * q / 2)
        inputs = MomentInputs(20.0, 1.0, t, dp, dq)
        mean = closed_form_mean(inputs)
        et, emt = math.exp(t), math.exp(-t)
        bullet = (dp * et - dq * emt) / (dp * et + dq * emt) * 20.0
        assert abs(mean - bullet) / abs(bullet) < 0.01


def test_corollary_low_snr_is_order_of_magnitude_only():
    pair = corollary_case(0.2, 0.1, 0.1, 10.0, 1.0, 1000, "low_snr")
    assert pair.mu_prime == pytest.approx(0.1 / 0.3 * 0.1)
    assert pair.var_prime > 0


def test_snr_gain_monotone_in_t():
    values = [snr_gain_factor(0.2, 0.1, t) for t in np.arange(0.1, 10.1, 0.5)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_snr_gain_limit_sqrt_np():
    n, p, q = 3000, 0.06, 0.04
    assert snr_gain(p, q, 40.0, n) == pytest.approx(math.sqrt(n * p), rel=1e-6)


def test_snr_gain_minimum_at_half_log_ratio():
    p, q = 0.2, 0.05
    t_star = 0.5 * math.log(q / p)
    h = 1e-4
    f0 = snr_gain_factor(p, q, 0.0)  # not defined below 0; check via the formula

    def delta(t):
        et, emt = math.exp(t), math.exp(-t)
        return math.sqrt((p * et - q * emt) ** 2 / (p * et * et + q * emt * emt))

    assert delta(t_star) < delta(t_star - h)
    assert delta(t_star) < delta(t_star + h)
    assert f0 == pytest.approx(delta(0.0), rel=1e-12)
    for t in (0.5, 1.0, 3.0):
        assert snr_gain_factor(p, q, t) == pytest.approx(delta(t), rel=1e-12)


# --- sequence diagnostics -------------------------------------------------------

@pytest.mark.parametrize("nm", [(20, 10), (100, 50)])
def test_gamma_sum_within_envelope(nm):
    n, m = nm
    for k in (1, 2):
        d = sequence_diagnostics(0.3, 1.0, n, m, k=k)
        assert d.gamma_lower <= d.gamma_value <= d.gamma_upper


def test_gamma_sum_monotone_in_sizes():
    base = inverse_denominator_moment(0.3, 1.0, 20, 10, k=1)
    assert inverse_denominator_moment(0.3, 1.0, 21, 10, k=1) <= base
    assert inverse_denominator_moment(0.3, 1.0, 20, 11, k=1) <= base


def test_square_gap_bound_and_decrease():
    gaps = []
    for size in (25, 50, 100, 200):
        d = sequence_diagnostics(0.3, 1.0, size, size)
        assert d.scaled_gap <= d.gap_bound
        gaps.append(d.scaled_gap)
    assert all(b <= a for a, b in zip(gaps, gaps[1:]))


def test_sequence_diagnostics_domain():
    with pytest.raises(ParameterError):
        sequence_diagnostics(0.7, 1.0, 10, 10)
    with pytest.raises(ParameterError):
        sequence_diagnostics(0.3, 0.0, 10, 10)
