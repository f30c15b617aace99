"""Adaptive Gauss-Legendre quadrature with oscillation-aware node budgets.

Everything downstream integrates smooth compactly supported integrands,
possibly multiplied by fast oscillations e^{i(x xi + t xi^2)}.  The
helpers here pick panel counts from an a-priori bound on the phase rate
and then double panels until two refinements agree; double_panels is the
one doubling loop behind every adaptive integral in the package.  Its
stopping rule has a rounding floor proportional to the integrand's L1
mass, so an integral that cancels far below its mass still converges.
It has one rule: each column of a matrix of integrals meets it on its
own, against its own mass where the columns' integrands differ, and
keeps its value from the pass where it first met it, so columns that
share a rule and converge at different passes can share one loop and
still get the values that separate loops would give.  A single
integral, or a 1-D array that converges as a whole, is one column.
"""

import functools

import numpy as np
from numpy.polynomial.legendre import leggauss

# hard ceiling on nodes spent inside one integral evaluation
MAX_NODES = 1 << 26

# entries in one table held at once: an exponential table or GEMM operand
# of the grid engine, a (sample, node) table or (sample, translate)
# coefficient table of the factorized engine, a (u node, frequency node)
# table of a norm
_CHUNK = 1 << 16

# rounding floor per unit of L1 mass: passes closer than this agree
_ROUNDING = 64.0 * np.finfo(float).eps


class QuadratureError(RuntimeError):
    """An integral failed to converge within its node budget."""


@functools.lru_cache(maxsize=None)
def gauss_legendre(order: int):
    """Cached Gauss-Legendre nodes and weights on [-1, 1]."""
    if order < 1:
        raise ValueError("order must be a positive integer")
    nodes, weights = leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def panel_nodes(a: float, b: float, panels: int, order: int = 32):
    """Composite rule on [a, b]: `panels` equal panels of the given order."""
    base_x, base_w = gauss_legendre(order)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (b - a) / panels
    mids = 0.5 * (edges[:-1] + edges[1:])
    x = (mids[:, None] + half * base_x[None, :]).ravel()
    w = np.tile(half * base_w, panels)
    return x, w


def panels_for_rate(a: float, b: float, phase_rate: float, order: int = 32) -> int:
    """Panel count keeping the mean node spacing below pi/4 per phase radian.

    phase_rate must bound |d(phase)/d(xi)| on [a, b].
    """
    width = b - a
    if width <= 0.0:
        return 1
    spacing = (np.pi / 4.0) / max(float(phase_rate), 1e-30)
    return max(1, int(np.ceil(width / (spacing * order))))


def double_panels(evaluate, a: float, b: float, panels: int, *, rtol: float,
                  mass: float | np.ndarray = 0.0, order: int = 32, max_nodes: int = MAX_NODES):
    """Evaluate on composite rules over [a, b], doubling panels until two agree.

    evaluate(x, w) maps the nodes and weights of one rule to a matrix
    of values: its maxima run over its leading axis, and its columns are
    the rest, of any shape.  A column has converged when its largest
    change is within rtol of its largest new modulus plus 64 eps times
    mass, a bound on the L1 mass of its integrand that the caller works
    out: below that, passes differ by rounding alone.  Each column
    returns from the pass where it first converged, and the loop doubles
    until every column has.  A value or a 1-D array is a matrix with no
    column axes: one column, converging as a whole and returned in its
    own shape.  mass is a scalar or an array of per-column masses
    broadcasting against the columns, so columns with their own floors
    share one loop and each gets the value its own loop would.  Raises
    QuadratureError once panels * order would pass max_nodes.
    """
    prev = None
    floor = _ROUNDING * mass
    while panels * order <= max_nodes:
        vals = evaluate(*panel_nodes(a, b, panels, order))
        if prev is None:
            out, done = vals, np.zeros(np.shape(vals)[1:], dtype=bool)
        else:
            lead = 0 if np.ndim(vals) else None
            change = np.abs(vals - prev).max(axis=lead)
            met = change <= rtol * np.abs(vals).max(axis=lead) + floor
            out = np.where(met & ~done, vals, out)
            done |= met
            if done.all():
                return out[()]
        prev = vals
        panels *= 2
    raise QuadratureError(
        f"integral on [{a:g}, {b:g}] did not converge below rtol={rtol:g} "
        f"within {max_nodes} nodes")
