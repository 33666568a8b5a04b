"""Similarity measure, decay predictions, deep traces."""

import math

import numpy as np
import pytest

from csbmlab import (CsbmParams, LayerSchedule, ParameterError, SignSym, Uniform,
                     check_similarity_axioms, fit_decay, gamma, predicted_decay_factor,
                     sample_csbm, SimilarityTrace, trace_gamma)


def test_gamma_point_values():
    assert gamma(np.full(10, 3.5)) == 0.0
    assert gamma(np.array([1.0, -1.0])) == pytest.approx(1.0)
    assert gamma(np.array([5.0])) == 0.0


def test_gamma_translation_and_homogeneity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=200)
    assert gamma(x + 17.3) == pytest.approx(gamma(x), rel=1e-12)
    assert gamma(-2.5 * x) == pytest.approx(2.5 * gamma(x), rel=1e-12)
    assert gamma(-x) == pytest.approx(gamma(x), rel=1e-12)


def test_axiom_report():
    report = check_similarity_axioms(1000, seed=1)
    assert report.all_ok
    assert report.samples == 1000
    with pytest.raises(ParameterError):
        check_similarity_axioms(0, seed=1)


def test_gamma_concentrates_on_mixture():
    # gamma^2 estimates mu^2 + sigma^2 on a symmetric two-component mixture
    rng = np.random.default_rng(2)
    signs = np.where(rng.random(200_000) < 0.5, -1.0, 1.0)
    x = signs * 3.0 + 10.0 * rng.standard_normal(200_000)
    assert gamma(x) == pytest.approx(math.sqrt(9 + 100), rel=0.01)


def test_predicted_decay_factors():
    assert predicted_decay_factor(0.2, 0.1, Uniform()) == pytest.approx(1 / 3)
    assert predicted_decay_factor(0.2, 0.1, SignSym(0.0)) == pytest.approx(1 / 3)
    n = 3000
    p = 3 * math.log(n) ** 2 / n
    q = 2 * math.log(n) ** 2 / n
    assert predicted_decay_factor(p, q, SignSym(8.0)) == pytest.approx(1.0, abs=1e-6)
    # closed form (p e^2t - q)/(p e^2t + q) evaluated independently
    t = 1.2
    direct = (p * math.exp(2 * t) - q) / (p * math.exp(2 * t) + q)
    assert predicted_decay_factor(p, q, SignSym(t)) == pytest.approx(direct, rel=1e-12)
    with pytest.raises(ParameterError):
        predicted_decay_factor(0.1, 0.2, Uniform())


def test_fit_decay_exact_geometric():
    ratio = 0.4
    trace = SimilarityTrace(tuple(5.0 * ratio**k for k in range(12)), "synthetic", 10)
    fit = fit_decay(trace)
    assert fit.decay_rate == pytest.approx(-math.log(ratio), abs=1e-9)
    assert fit.intercept == pytest.approx(math.log(5.0), abs=1e-9)
    assert fit.r_squared > 1 - 1e-12
    assert fit.oversmoothing


def test_fit_decay_constant_trace():
    trace = SimilarityTrace((2.0,) * 8, "synthetic", 10)
    fit = fit_decay(trace)
    assert fit.decay_rate == pytest.approx(0.0, abs=1e-12)
    assert not fit.oversmoothing


def test_fit_decay_truncates_at_zero():
    trace = SimilarityTrace((4.0, 2.0, 1.0, 0.0, 0.0), "synthetic", 10)
    fit = fit_decay(trace)
    assert fit.truncated
    assert fit.layers_used == 3
    assert fit.decay_rate == pytest.approx(math.log(2.0), abs=1e-9)


def test_fit_decay_stops_at_the_rounding_floor():
    # geometric down to ~1e-16 of its start, then flat: the flat tail is
    # rounding, not signal, and must not bend the fitted rate
    ratio = 0.5
    values = [3.0 * ratio**k for k in range(54)]
    values += [values[-1]] * 40
    fit = fit_decay(SimilarityTrace(tuple(values), "synthetic", 10))
    assert values[-1] / values[0] < 2e-16
    assert fit.truncated
    assert fit.layers_used == 40
    assert fit.decay_rate == pytest.approx(-math.log(ratio), rel=1e-9)


def test_fit_decay_needs_three_points():
    with pytest.raises(ParameterError):
        fit_decay(SimilarityTrace((1.0, 0.5), "synthetic", 10))


def test_deep_uniform_trace_decays_log_linearly():
    # large spectral gap (a=8, b=2) keeps the realised contraction within a
    # few percent of (p-q)/(p+q); 40 layers stay well above underflow
    n = 1200
    params = CsbmParams.from_ab(n, 8.0, 2.0, 2.0 * math.sqrt(math.log(n)), 1.0)
    g = sample_csbm(params, 3)
    trace = trace_gamma(g, LayerSchedule.from_intensities([0.0] * 40))
    fit = fit_decay(trace)
    predicted = math.log(predicted_decay_factor(params.p, params.q, Uniform()))
    assert fit.oversmoothing
    assert fit.decay_rate == pytest.approx(-predicted, rel=0.05)
    assert fit.r_squared > 0.999


def test_deep_attention_trace_stays_flat():
    n = 1200
    params = CsbmParams.from_ab(n, 8.0, 2.0, 2.0 * math.sqrt(math.log(n)), 1.0)
    g = sample_csbm(params, 3)
    trace = trace_gamma(g, LayerSchedule.from_intensities([8.0] * 100))
    fit = fit_decay(trace)
    assert not fit.oversmoothing
    assert trace.gamma_values[-1] / trace.gamma_values[0] >= 0.9
