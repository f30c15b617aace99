from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from schrodmax.quadrature import (
    QuadratureError,
    double_panels,
    gauss_legendre,
    integrate_1d,
    panel_nodes,
    panels_for_rate,
)


def test_gauss_legendre_rejects_bad_order():
    with pytest.raises(ValueError):
        gauss_legendre(0)


def test_gauss_legendre_nodes_are_frozen():
    nodes, weights = gauss_legendre(16)
    assert not nodes.flags.writeable
    assert not weights.flags.writeable


@given(order=st.integers(min_value=1, max_value=40))
def test_gauss_legendre_degree_exactness(order):
    """Order-n rule integrates monomials up to degree 2n-1 exactly."""
    nodes, weights = gauss_legendre(order)
    k = 2 * order - 2
    got = float(np.sum(weights * nodes**k))
    assert got == pytest.approx(2.0 / (k + 1), rel=1e-12)
    odd = float(np.sum(weights * nodes ** (k + 1)))
    assert abs(odd) < 1e-12


def test_panel_nodes_weights_cover_interval():
    x, w = panel_nodes(-1.5, 4.0, panels=7)
    assert x.shape == w.shape == (7 * 32,)
    assert float(np.sum(w)) == pytest.approx(5.5, rel=1e-13)
    assert np.all(x > -1.5) and np.all(x < 4.0)


def test_panels_for_rate_degenerate_width():
    assert panels_for_rate(2.0, 2.0, 1e9) == 1
    assert panels_for_rate(3.0, 2.0, 1e9) == 1


@given(rate=st.floats(min_value=1e-3, max_value=1e6),
       factor=st.floats(min_value=1.0, max_value=100.0))
def test_panels_for_rate_monotone_in_rate(rate, factor):
    lo = panels_for_rate(0.0, 10.0, rate)
    hi = panels_for_rate(0.0, 10.0, rate * factor)
    assert hi >= lo >= 1


def test_integrate_1d_polynomial():
    val = integrate_1d(lambda x: x**3 - 2.0 * x + 1.0, -1.0, 3.0)
    assert val.real == pytest.approx(16.0, rel=1e-12)
    assert val.imag == 0.0


def test_integrate_1d_gaussian():
    val = integrate_1d(lambda x: np.exp(-(x**2)), -8.0, 8.0, rtol=1e-12)
    assert val.real == pytest.approx(math.sqrt(math.pi), rel=1e-11)


def test_integrate_1d_fresnel_oscillation():
    """Quadratic-phase integral against the scipy Fresnel functions."""
    X = 20.0
    rate = 2.0 * X
    val = integrate_1d(lambda x: np.exp(1j * x**2), 0.0, X, rtol=1e-10,
                       min_panels=panels_for_rate(0.0, X, rate))
    s, c = special.fresnel(X * math.sqrt(2.0 / math.pi))
    want = math.sqrt(math.pi / 2.0) * complex(c, s)
    assert val == pytest.approx(want, rel=1e-9)


def test_integrate_1d_empty_interval():
    assert integrate_1d(lambda x: x, 2.0, 2.0) == 0.0
    assert integrate_1d(lambda x: x, 3.0, 2.0) == 0.0


def test_integrate_1d_budget_exhaustion():
    with pytest.raises(QuadratureError):
        integrate_1d(lambda x: np.exp(1j * 1e7 * x**2), 0.0, 10.0,
                     rtol=1e-14, max_nodes=256)


def test_integrate_1d_min_panels_consistency():
    fn = lambda x: np.exp(1j * 5.0 * x) / (1.0 + x**2)
    coarse = integrate_1d(fn, 0.0, 6.0, rtol=1e-12)
    warm = integrate_1d(fn, 0.0, 6.0, rtol=1e-12, min_panels=16)
    assert warm == pytest.approx(coarse, rel=1e-10)


@settings(deadline=None, max_examples=25)
@given(a=st.floats(min_value=-3.0, max_value=0.0),
       width=st.floats(min_value=0.1, max_value=4.0),
       k=st.floats(min_value=-20.0, max_value=20.0))
def test_integrate_1d_modulation_shift(a, width, k):
    """e^{ikx} against a smooth window equals the shifted spectrum value."""
    b = a + width
    direct = integrate_1d(lambda x: np.exp(1j * k * x) * np.exp(-(x - a) ** 2),
                          a, b, rtol=1e-11,
                          min_panels=panels_for_rate(a, b, abs(k)))
    by_parts = integrate_1d(
        lambda x: np.exp(1j * k * (x + a)) * np.exp(-(x**2)),
        0.0, width, rtol=1e-11,
        min_panels=panels_for_rate(0.0, width, abs(k)))
    assert direct == pytest.approx(by_parts, rel=1e-8, abs=1e-12)


def test_double_panels_converges_at_rounding_floor():
    """cos over eight periods plus delta: the integral is 1e-8 of the L1 mass."""
    mass = 32.0
    b = 16.0 * math.pi + 1e-8 * mass
    exact = math.sin(b)
    calls = []

    def evaluate(x, w):
        calls.append(x.size)
        return float(np.cos(x) @ w)

    start = panels_for_rate(0.0, b, 1.0)
    floor = 64.0 * np.finfo(float).eps * mass
    val = double_panels(evaluate, 0.0, b, start, rtol=1e-10, mass=mass)
    assert len(calls) <= 4
    assert abs(val - exact) <= floor
    with pytest.raises(QuadratureError):
        double_panels(evaluate, 0.0, b, start, rtol=1e-10, max_nodes=1 << 14)


def test_double_panels_converges_each_column_on_its_own():
    """A coherent column beside one that cancels to 1e-8 of its L1 mass.

    The coherent bump is so large that a test against the largest value
    of the whole matrix would accept the cancelling column one pass
    early, 9e-9 away from its own tolerance.
    """
    b = 16.0 * math.pi + 1e-8 * 32.0
    exact = np.array([100.0 * 8.0 * math.sqrt(math.pi) * math.erf(b / 16.0),
                      math.sin(1.5 * b) / 1.5])
    rows = np.array([[1.0], [-0.5]])
    passes = []

    def evaluate(x, w):
        cols = np.stack([100.0 * np.exp(-(((x - b / 2.0) / 8.0) ** 2)),
                         np.cos(1.5 * x)], axis=1)
        passes.append(rows * (w @ cols))
        return passes[-1]

    mass = float(exact[0])
    floor = 64.0 * np.finfo(float).eps * mass
    val = double_panels(evaluate, 0.0, b, 1, rtol=1e-10, mass=mass)
    change = np.max(np.abs(passes[-1] - passes[-2]), axis=0)
    assert np.all(change <= 1e-10 * np.max(np.abs(val), axis=0) + floor)
    assert np.all(np.abs(val[0] - exact) <= 1e-10 * np.abs(exact) + floor)
    assert abs(exact[1]) < 1e-8 * 32.0 * 1.01
    with pytest.raises(QuadratureError):
        double_panels(evaluate, 0.0, b, 1, rtol=1e-10, max_nodes=1 << 12)
