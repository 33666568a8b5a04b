"""Scoring rules against independent scalar/matrix-form oracles."""

import math

import numpy as np
import pytest

from csbmlab import (IsolatedNodeError, ParameterError, SignSym, Uniform, XorNet,
                     attention_coefficients, psi_sign, psi_xor)


def test_psi_sign_branches():
    assert psi_sign(1.5, 2.0, 3.0) == 3.0
    assert psi_sign(1.5, -2.0, 3.0) == -3.0
    # product exactly zero lands on the agreement branch
    assert psi_sign(0.0, -5.0, 3.0) == 3.0
    # a product that underflows to -0.0 still has opposite signs
    assert psi_sign(1e-200, -1e-200, 3.0) == -3.0
    assert psi_sign(1e-200, np.array([-1e-200, 3e-200, 0.0]), 3.0).tolist() == [-3.0, 3.0, 3.0]
    with pytest.raises(ParameterError):
        psi_sign(1.0, 1.0, -0.5)


def test_psi_xor_point_values():
    assert psi_xor(1.0, 2.0, 1.0, 0.2) == pytest.approx(1.6)
    assert psi_xor(0.0, 0.0, 1.0, 0.2) == 0.0


def xor_matrix_oracle(xi, xj, R, beta):
    """Direct evaluation of the defining two-layer network."""
    S = np.array([[1, 1], [-1, -1], [1, -1], [-1, 1]], dtype=float)
    r = R * np.array([1, 1, -1, -1], dtype=float)
    pre = S @ np.array([xi, xj])
    act = np.where(pre >= 0, pre, beta * pre)
    return float(r @ act)


def test_psi_xor_matches_matrix_form():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        xi, xj = rng.normal(scale=3.0, size=2)
        R = float(rng.uniform(0.1, 5.0))
        beta = float(rng.uniform(0.01, 0.99))
        assert psi_xor(xi, xj, R, beta) == pytest.approx(
            xor_matrix_oracle(xi, xj, R, beta), abs=1e-12)


def test_psi_xor_positively_homogeneous():
    rng = np.random.default_rng(1)
    for _ in range(200):
        xi, xj = rng.normal(size=2)
        c = float(rng.uniform(0.01, 100.0))
        assert psi_xor(c * xi, c * xj, 2.0, 0.2) == pytest.approx(
            c * psi_xor(xi, xj, 2.0, 0.2), rel=1e-12)


def test_uniform_coefficients():
    feats = np.array([5.0, 1.0, -2.0, 3.0, 0.5])
    row = attention_coefficients(feats, 0, [1, 2, 3, 4], Uniform())
    assert np.allclose(row.coefficients, 0.25)


def test_sign_coefficients_three_term_softmax():
    # independent scalar softmax of (t, -t, t) for centre 1, neighbours (2, -1, 3)
    feats = np.array([1.0, 2.0, -1.0, 3.0])
    row = attention_coefficients(feats, 0, [1, 2, 3], SignSym(1.0))
    e = math.e
    denom = e + 1 / e + e
    assert row.coefficients == pytest.approx([e / denom, (1 / e) / denom, e / denom])


def test_separated_neighbourhood_coefficient():
    # all same-sign intra, all opposite-sign inter:
    # intra coefficient = e^t / (k_p e^t + k_q e^-t)
    t, k_p, k_q = 1.5, 4, 2
    feats = np.array([1.0] + [0.5] * k_p + [-0.5] * k_q)
    row = attention_coefficients(feats, 0, list(range(1, k_p + k_q + 1)), SignSym(t))
    expected = math.exp(t) / (k_p * math.exp(t) + k_q * math.exp(-t))
    assert row.coefficients[0] == pytest.approx(expected)


def test_coefficients_positive_and_normalised():
    rng = np.random.default_rng(2)
    feats = rng.normal(size=30)
    for spec in (Uniform(), SignSym(0.7), SignSym(250.0), XorNet(2.0, 0.2)):
        row = attention_coefficients(feats, 3, list(range(4, 30)), spec)
        assert np.all(row.coefficients > 0.0)
        assert abs(row.coefficients.sum() - 1.0) < 1e-12


def test_sign_rule_invariant_under_global_flip():
    rng = np.random.default_rng(3)
    feats = rng.normal(size=12)
    row = attention_coefficients(feats, 0, list(range(1, 12)), SignSym(2.0))
    flipped = attention_coefficients(-feats, 0, list(range(1, 12)), SignSym(2.0))
    assert np.allclose(row.coefficients, flipped.coefficients)


def test_zero_intensity_equals_uniform():
    rng = np.random.default_rng(4)
    feats = rng.normal(size=9)
    a = attention_coefficients(feats, 2, [0, 1, 5, 7], SignSym(0.0))
    b = attention_coefficients(feats, 2, [0, 1, 5, 7], Uniform())
    assert np.array_equal(a.coefficients, b.coefficients)


def test_huge_intensity_does_not_overflow():
    feats = np.array([1.0, 2.0, -3.0, 4.0])
    row = attention_coefficients(feats, 0, [1, 2, 3], SignSym(700.0))
    assert np.isfinite(row.coefficients).all()
    # opposite-sign weight underflows; the rest split evenly
    assert row.coefficients[[0, 2]] == pytest.approx([0.5, 0.5])


def test_isolated_node_raises():
    with pytest.raises(IsolatedNodeError):
        attention_coefficients(np.array([1.0, 2.0]), 0, [], SignSym(1.0))


def test_spec_validation():
    with pytest.raises(ParameterError):
        SignSym(-1.0)
    with pytest.raises(ParameterError):
        XorNet(0.0, 0.2)
    with pytest.raises(ParameterError):
        XorNet(1.0, 1.5)
