from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from schrodmax import quadrature
from schrodmax.quadrature import (
    QuadratureError,
    double_panels,
    gauss_legendre,
    panel_nodes,
    panels_for_rate,
    table_blocks,
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


def test_panel_nodes_repeated_rule_is_the_same_frozen_arrays():
    x, w = panel_nodes(-0.75, 2.0, 5, 16)
    again = panel_nodes(-0.75, 2.0, 5, 16)
    assert again[0] is x and again[1] is w
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("n, width, step", [
    (0, 7, 9), (1, 1000, 1), (10, 7, 9), (250, 1, 64), (5, 0, 64), (3, 65, 1)])
def test_table_blocks_hold_the_budget_or_one_item(monkeypatch, n, width, step):
    """Blocks of 64 // width items, or one, cover range(n) in order."""
    monkeypatch.setattr(quadrature, "_CHUNK", 64)
    blocks = list(table_blocks(n, width))
    assert [i for b in blocks for i in range(n)[b]] == list(range(n))
    assert all(b.stop - b.start == step for b in blocks[:-1])
    assert all(0 < b.stop - b.start <= step for b in blocks)


def test_panels_for_rate_degenerate_width():
    assert panels_for_rate(2.0, 2.0, 1e9) == 1
    assert panels_for_rate(3.0, 2.0, 1e9) == 1


@given(rate=st.floats(min_value=1e-3, max_value=1e6),
       factor=st.floats(min_value=1.0, max_value=100.0))
def test_panels_for_rate_monotone_in_rate(rate, factor):
    lo = panels_for_rate(0.0, 10.0, rate)
    hi = panels_for_rate(0.0, 10.0, rate * factor)
    assert hi >= lo >= 1


def _integral(fn, a, b, panels=1, **kw):
    """Integral of a vectorized callable on [a, b] by double_panels."""
    return double_panels(lambda x, w: complex(np.sum(np.asarray(fn(x)) * w)),
                         a, b, panels, **kw)


def test_double_panels_polynomial():
    val = _integral(lambda x: x**3 - 2.0 * x + 1.0, -1.0, 3.0, rtol=1e-10)
    assert val.real == pytest.approx(16.0, rel=1e-12)
    assert val.imag == 0.0


def test_double_panels_gaussian():
    val = _integral(lambda x: np.exp(-(x**2)), -8.0, 8.0, rtol=1e-12)
    assert val.real == pytest.approx(math.sqrt(math.pi), rel=1e-11)


def test_double_panels_fresnel_oscillation():
    """Quadratic-phase integral against the scipy Fresnel functions."""
    X = 20.0
    rate = 2.0 * X
    val = _integral(lambda x: np.exp(1j * x**2), 0.0, X,
                    panels_for_rate(0.0, X, rate), rtol=1e-10)
    s, c = special.fresnel(X * math.sqrt(2.0 / math.pi))
    want = math.sqrt(math.pi / 2.0) * complex(c, s)
    assert val == pytest.approx(want, rel=1e-9)


def test_double_panels_budget_exhaustion():
    with pytest.raises(QuadratureError):
        _integral(lambda x: np.exp(1j * 1e7 * x**2), 0.0, 10.0,
                  rtol=1e-14, max_nodes=256)


@settings(deadline=None, max_examples=25)
@given(a=st.floats(min_value=-3.0, max_value=0.0),
       width=st.floats(min_value=0.1, max_value=4.0),
       k=st.floats(min_value=-20.0, max_value=20.0))
def test_double_panels_modulation_shift(a, width, k):
    """e^{ikx} against a smooth window equals the shifted spectrum value."""
    b = a + width
    direct = _integral(lambda x: np.exp(1j * k * x) * np.exp(-(x - a) ** 2),
                       a, b, panels_for_rate(a, b, abs(k)), rtol=1e-11)
    by_parts = _integral(lambda x: np.exp(1j * k * (x + a)) * np.exp(-(x**2)),
                         0.0, width, panels_for_rate(0.0, width, abs(k)), rtol=1e-11)
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


def test_double_panels_returns_each_column_from_its_own_pass():
    """Columns converging at different passes keep the pass where each converged.

    Every column equals a one-column call on the same rule; the same
    integrals as a 1-D array converge all together, at the slowest one.
    """
    fns = [lambda x: np.exp(-x * x), lambda x: np.cos(20.0 * x), lambda x: np.cos(90.0 * x)]
    rows = np.array([[1.0], [-0.5j]])

    def run(picked, shape):
        calls = []

        def evaluate(x, w):
            calls.append(np.array([fns[j](x) @ w for j in picked]))
            return shape(calls[-1])

        return double_panels(evaluate, 0.0, 4.0, 1, rtol=1e-10, mass=4.0), calls

    def matrix(v):
        return rows * v

    val, _ = run(range(3), matrix)
    passes = []
    for j in range(3):
        alone, calls = run([j], matrix)
        assert np.array_equal(val[:, j], alone[:, 0])
        passes.append(len(calls))
    assert len(set(passes)) == 3
    flat, calls = run(range(3), lambda v: v)
    assert len(calls) == max(passes)
    assert np.array_equal(flat, calls[-1])


@pytest.mark.parametrize("shape", [lambda v: v, lambda v: complex(v[1] - 0.5j * v[2]),
                                   lambda v: float(v[2])], ids=["array", "complex", "float"])
def test_double_panels_returns_a_value_or_an_array_as_one_column(shape):
    """A 1-D array or a single value is one column: it returns from the first
    pass whose largest change is within rtol of its largest modulus plus the
    rounding floor, as that pass's value in its own shape."""
    fns = [lambda x: np.exp(-x * x), lambda x: np.cos(20.0 * x), lambda x: np.cos(90.0 * x)]
    rtol, mass = 1e-10, 4.0
    calls = []

    def evaluate(x, w):
        calls.append(shape(np.array([fn(x) @ w for fn in fns])))
        return calls[-1]

    val = double_panels(evaluate, 0.0, 4.0, 1, rtol=rtol, mass=mass)
    floor = 64.0 * np.finfo(float).eps * mass
    met = [np.max(np.abs(np.subtract(new, old))) <= rtol * np.max(np.abs(new)) + floor
           for old, new in zip(calls, calls[1:])]
    assert len(calls) > 2 and met.index(True) == len(met) - 1
    assert np.ndim(val) == np.ndim(calls[-1]) and np.array_equal(val, calls[-1])


def test_double_panels_takes_a_mass_per_column():
    """Columns with their own masses in one loop equal one loop per column.

    Every column integrates the same oscillation to a small rtol, so the
    rounding floor decides each column's pass: the heavy column stops
    passes before the light one, and one scalar mass for both would
    return the light column from the heavy one's pass.
    """
    masses = np.array([1.0, 1e7])
    shifts = np.array([[0.0], [0.3], [-1.1]])

    def column(x, w):
        return np.cos(150.0 * x + shifts) @ w

    def evaluate(x, w):
        return np.stack([column(x, w)] * masses.size, axis=1)

    def run(mass, columns=evaluate):
        return double_panels(columns, -1.0, 1.0, 1, rtol=1e-15, mass=mass)

    val = run(masses)
    for j, mass in enumerate(masses.tolist()):
        alone = run(mass, lambda x, w: column(x, w)[:, None])
        assert np.array_equal(val[:, j], alone[:, 0])
    assert not np.array_equal(val[:, 0], val[:, 1])
    assert not np.array_equal(run(masses.max())[:, 0], val[:, 0])
