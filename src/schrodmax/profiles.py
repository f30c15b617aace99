"""Frequency-side data profiles and their L2 / Sobolev norms.

Profiles are symbolic descriptors: a smooth 1d bump, tensor products and
a translated comb along a frequency lattice.  A profile's
factors_by_axis, the one family dispatch, gives pointwise values, norms
and the propagator's grid engine one Cells per axis to read: the
centres, half-widths and weights of the weighted unit bumps, one per
support cell, whose sum is the profile's factor on that axis.  Every
reader works in a cell's own coordinate u in [-1, 1], xi = c + h u.

A norm is built from per-factor moment tables, one per node of the
Sobolev weight's rule.  Where the weight's exponent stays within the
series radius on every cell of a factor, the factor's table is a closed
form in each cell's own coordinate: the series of e^{beta u + q u^2}
(_series_terms) met with the moments of a power of the unit bump
(_bump_moments), which the propagator's factorized engine reads too.
That holds for the comb from R = 2^12 up, for the window from about
2^19 up, and for every factor at s = 0.  The other factors share one
composite rule in u, refined by one doubling loop, so nothing here ever
commits to a global sampling grid.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .quadrature import _CHUNK, MAX_NODES, double_panels, gauss_legendre

TWO_PI = 2.0 * math.pi

# convergence tolerance of the norm quadratures
_NORM_RTOL = 1e-10


# ---------------------------------------------------------------------------
# the mollifier and its cached masses


def _mollifier_raw(u):
    """exp(-1/(1-u^2)) on (-1, 1), zero elsewhere; vectorized."""
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ui * ui))
    return out


@functools.lru_cache(maxsize=1)
def mollifier_mass() -> float:
    """Integral of exp(-1/(1-u^2)) over (-1, 1), fixed once at high order."""
    x, w = gauss_legendre(256)
    return float(np.dot(_mollifier_raw(x), w))


def _unit_bump(u):
    """The unit-mass bump on (-1, 1)."""
    return _mollifier_raw(u) / mollifier_mass()


# ---------------------------------------------------------------------------
# the unit bump against e^{beta u + q u^2}: moments and series

# radius and order of the series: where r = |beta| + |q| <= _SERIES_RADIUS,
# the series of e^{beta u + q u^2} to u-degree 2 _SERIES_ORDER leaves a tail
# below r^(N+1) e^r / (N+1)! < 3.5e-20 (N = _SERIES_ORDER) of the terms' mass;
# at a smaller r, _series_order gives the fewer terms that reach the same tail
_SERIES_RADIUS = 1.0 / 8.0
_SERIES_ORDER = 11


def _series_order(r):
    """The least N whose tail r^(N+1) e^r / (N+1)! is within the tail at the radius.

    Elementwise over an array r.  For r <= _SERIES_RADIUS the tail falls
    as N grows, so N is the count of orders whose tail still exceeds it.
    """
    def tail(x, n):
        return x ** (n + 1) * np.exp(x) / math.factorial(n + 1)

    bound = tail(_SERIES_RADIUS, _SERIES_ORDER)
    return sum(tail(r, n) > bound for n in range(_SERIES_ORDER))


@functools.lru_cache(maxsize=None)
def _bump_moments(p: float, degree: int) -> np.ndarray:
    """nu_k, the integral of _unit_bump(u)^p u^k, for k <= degree.

    From the fixed rule of mollifier_mass, so nu_0 = 1 to rounding at
    p = 1; the odd moments of the even bump are set to zero.  Unbounded,
    as its keys are few: p in {1, 2}, degrees set by a series order.
    """
    u, w = gauss_legendre(256)
    nu = (_unit_bump(u) ** p * w) @ (u[:, None] ** np.arange(degree + 1))
    nu[1::2] = 0.0
    nu.setflags(write=False)
    return nu


def _series_terms(beta, q):
    """e_0, ..., e_{2 _SERIES_ORDER}: the u-coefficients of e^{beta u + q u^2}.

    They follow e_0 = 1, e_1 = beta, (j + 1) e_{j+1} = beta e_j + 2 q e_{j-1},
    elementwise over the arrays beta and q.  Stopped at u-degree
    2 _SERIES_ORDER, every omitted monomial comes from a term
    (beta u + q u^2)^n / n! with n > _SERIES_ORDER, so on |u| <= 1 they sum
    to at most r^(N+1) e^r / (N+1)!, r = |beta| + |q|.
    """
    q2 = 2.0 * q
    e_prev, e = np.zeros_like(beta), np.ones_like(beta)
    yield e
    for j in range(1, 2 * _SERIES_ORDER + 1):
        e_prev, e = e, (beta * e + q2 * e_prev) / j
        yield e


# ---------------------------------------------------------------------------
# model parameters


@dataclass(frozen=True)
class ModelParams:
    """Dimension, dissipation exponent, frequency scale."""

    d: int
    gamma: float
    R: float

    def __post_init__(self):
        if not (isinstance(self.d, int) and self.d >= 1):
            raise ValueError("d must be an integer >= 1")
        if not self.gamma > 0.0:
            raise ValueError("gamma must be positive")
        if not self.R >= 1.0:
            raise ValueError("R must be >= 1")


@dataclass(frozen=True)
class CounterexampleParams:
    """Scales and small constants for the lattice-comb construction.

    D is the comb spacing, Q the modulus budget; both are derived from
    the model and satisfy Q^{d/(d-1)} = R^{gamma/2} / D.
    """

    model: ModelParams
    c0: float
    c1: float
    c2: float
    c3: float
    c4: float
    mu0: float
    delta0: float

    @property
    def D(self) -> float:
        m = self.model
        return m.R ** ((m.d + m.gamma) / (2.0 * (m.d + 1)))

    @property
    def Q(self) -> float:
        m = self.model
        return m.R ** ((m.gamma - 1.0) * (m.d - 1) / (2.0 * (m.d + 1)))

    @property
    def band(self) -> float:
        """The first-axis frequency band R^{gamma/2}."""
        m = self.model
        return m.R ** (m.gamma / 2.0)

    @property
    def x1_lo(self) -> float:
        """Lower end -c1 R^{gamma/2 - 1} of the spatial box's first axis [x1_lo, x1_lo / 2]."""
        m = self.model
        return -self.c1 * m.R ** (m.gamma / 2.0 - 1.0)

    @property
    def spans_lattice_period(self) -> bool:
        """The spatial box holds a lattice period per rest axis: 2 c1 D >= 2 pi."""
        return 2.0 * self.c1 * self.D >= TWO_PI

    def __post_init__(self):
        m = self.model
        if m.d < 2:
            raise ValueError("the comb construction needs d >= 2")
        if not 1.0 < m.gamma <= 2.0:
            raise ValueError("construction scales are defined for 1 < gamma <= 2")
        if not 0.0 < self.c0 < 2.0 ** -(m.d + 1):
            raise ValueError("c0 out of range")
        if not (self.c2 < self.c1 / 2.0 < self.c0 / 4.0):
            raise ValueError("need c2 < c1/2 < c0/4")
        if not 0.0 < self.c3 < min(self.c2 / 4.0, 1.0 / TWO_PI):
            raise ValueError("c3 out of range")
        if not 0.0 < self.c4 < 0.5:
            raise ValueError("c4 out of range")
        if not self.mu0 > 0.0:
            raise ValueError("mu0 must be positive")
        if not 0.0 < self.delta0 < (m.gamma - 1.0) / (4.0 * (m.d + 1)):
            raise ValueError("delta0 out of range")
        if self.c2 <= 0.0:
            raise ValueError("c2 must be positive")
        if not self.D > 2.0:
            raise ValueError("comb spacing D must exceed the bump diameter")
        rel = abs(self.Q ** (m.d / (m.d - 1)) * self.D / self.band - 1.0)
        if rel > 1e-12:
            raise ValueError(f"scale identity violated, relative error {rel:g}")

    @classmethod
    def with_defaults(cls, model: ModelParams, **overrides) -> "CounterexampleParams":
        d = model.d
        c0 = overrides.pop("c0", 2.0 ** -(d + 2))
        c1 = overrides.pop("c1", c0 / 4.0)
        c2 = overrides.pop("c2", c1 / 4.0)
        c3 = overrides.pop("c3", min(c2 / 4.0, 1.0 / TWO_PI) / 2.0)
        c4 = overrides.pop("c4", 0.125)
        mu0 = overrides.pop("mu0", (4.0 * math.pi) ** -d)
        delta0 = overrides.pop("delta0", (model.gamma - 1.0) / (8.0 * (d + 1)))
        if overrides:
            raise TypeError(f"unknown overrides: {sorted(overrides)}")
        return cls(model, c0, c1, c2, c3, c4, mu0, delta0)

    @classmethod
    def for_experiments(cls, model: ModelParams, **overrides) -> "CounterexampleParams":
        """Defaults with a phase-drift constant small enough for tight budgets."""
        overrides.setdefault("c4", 1e-6)
        return cls.with_defaults(model, **overrides)


def comb_range(cp: CounterexampleParams) -> tuple[int, int]:
    """Half-open lattice index range [start, stop) of the frequency comb."""
    n = cp.band / cp.D
    return int(math.ceil(n)), int(math.ceil(2.0 * n))


# ---------------------------------------------------------------------------
# spectrum descriptors


class SpectrumDescriptor:
    """Base for symbolic frequency profiles.

    A family declares its dimension and, in factors_by_axis, one Cells
    per axis, whose weighted unit bumps are the profile's factor on that
    axis: f(xi) is the product over axes of those factors.  Axes whose
    factors are equal share one Cells object, so readers evaluate each
    distinct factor once.  The support annulus is read from the cells
    (support_annulus).
    """

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def factors_by_axis(self) -> tuple:
        """(cells, ...), one Cells per axis."""
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class Cells:
    """One axis factor: a weighted unit bump on each of its support cells.

    On cell i, of centre centres[i] and half-width half[i], the factor is
    weight[i] _unit_bump((xi - centres[i]) / half[i]) / half[i], so the
    cell's L1 mass is |weight[i]|; it vanishes off the cells.  The centres
    ascend and the cells do not overlap.  half and weight broadcast
    against the centres; a weight may be complex.
    """

    centres: np.ndarray
    half: np.ndarray
    weight: np.ndarray = 1.0

    def __post_init__(self):
        centres = np.array(self.centres, dtype=float, ndmin=1)
        centres.setflags(write=False)
        half = np.broadcast_to(np.asarray(self.half, dtype=float), centres.shape)
        if np.any(centres[1:] - half[1:] < centres[:-1] + half[:-1]):
            raise ValueError("cells must ascend without overlapping")
        object.__setattr__(self, "centres", centres)
        object.__setattr__(self, "half", half)
        object.__setattr__(self, "weight", np.broadcast_to(self.weight, centres.shape))


@dataclass(frozen=True)
class PlaneWaveSurrogate(SpectrumDescriptor):
    """Narrow bump at frequency xi0 with mass (2 pi)^d amplitude.

    The mass convention makes the free evolution tend to the plane wave
    amplitude * e^{i(x.xi0 + t|xi0|^2)} as width -> 0.
    """

    xi0: tuple[float, ...]
    width: float
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self):
        if not self.width > 0.0:
            raise ValueError("width must be positive")
        if len(self.xi0) < 1:
            raise ValueError("xi0 must be a nonempty vector")

    @property
    def dim(self) -> int:
        return len(self.xi0)

    def factors_by_axis(self) -> tuple:
        """The first axis carries the amplitude; later axes with equal centres share a factor."""
        head, *rest = self.xi0
        shared = {c: Cells(c, self.width) for c in rest}
        first = Cells(head, self.width, self.amplitude * TWO_PI ** self.dim)
        return (first,) + tuple(shared[c] for c in rest)


@dataclass(frozen=True)
class Case1Product(SpectrumDescriptor):
    """Tensor product of unit-mass bumps at scale R: prod_j R^{-1} phi(xi_j / R)."""

    model: ModelParams

    @property
    def dim(self) -> int:
        return self.model.d

    def factors_by_axis(self) -> tuple:
        """One bump of width R, shared by every axis."""
        return (Cells(0.0, self.model.R),) * self.dim


@dataclass(frozen=True)
class Case3Counterexample(SpectrumDescriptor):
    """Window at xi_1 ~ R^{gamma/2} times a comb of unit bumps on each other axis."""

    params: CounterexampleParams

    @property
    def dim(self) -> int:
        return self.params.model.d

    def factors_by_axis(self) -> tuple:
        """The window of half-width sqrt(R) at the band, then one comb shared by the other axes.

        The comb has a unit bump at D k for each k in comb_range.
        """
        cp = self.params
        teeth = Cells(cp.D * np.arange(*comb_range(cp), dtype=float), 1.0)
        return (Cells(cp.band, math.sqrt(cp.model.R)),) + (teeth,) * (self.dim - 1)


def support_annulus(facs) -> tuple[float, float]:
    """Radii (inner, outer) of the annulus holding the support of the factors facs.

    Per distinct factor, the least and the largest |xi_a| over its cells
    are squared and weighted by the number of axes that share it.
    """
    lo_sq = hi_sq = 0.0
    for fac in {id(fac): fac for fac in facs}.values():
        axes = sum(g is fac for g in facs)
        lo, hi = fac.centres - fac.half, fac.centres + fac.half
        lo_sq += axes * float(np.min(np.maximum(np.maximum(lo, -hi), 0.0))) ** 2
        hi_sq += axes * float(np.max(np.maximum(-lo, hi))) ** 2
    return math.sqrt(lo_sq), math.sqrt(hi_sq)


def _cells_eval(cells: Cells, xi: np.ndarray) -> np.ndarray:
    """The factor that cells describe, at the coordinates xi.

    The last cell whose lower end lies below a coordinate is the only one
    that can hold it, as the cells ascend without overlapping.
    """
    i = np.maximum(np.searchsorted(cells.centres - cells.half, xi) - 1, 0)
    half = cells.half[i]
    return cells.weight[i] * _unit_bump((xi - cells.centres[i]) / half) / half


def spectrum_eval(f: SpectrumDescriptor, xi):
    """Amplitude of the profile at xi (a d-vector or an (..., d) array)."""
    xi = np.asarray(xi, dtype=float)
    if xi.ndim == 0 or xi.shape[-1] != f.dim:
        raise ValueError(f"xi must have trailing dimension {f.dim}")
    out = np.ones(xi.shape[:-1], dtype=complex)
    for cells, coord in zip(f.factors_by_axis(), np.moveaxis(xi, -1, 0)):
        out = out * _cells_eval(cells, coord)
    if out.ndim == 0:
        return complex(out)
    return out


# ---------------------------------------------------------------------------
# norms


# step of the trapezoid rule in u behind (1+X)^{-a}: its relative error
# is below 5e-13 for 0 < a < 1, while at step 0.35 the aliasing term
# 2 |Gamma(a + 2 pi i / h)| / Gamma(a) alone reaches 1.2e-11 near a = 1;
# and the relative error allowed where tail nodes take e^{-e^u (1+X)} as 1
_U_STEP = 0.3
_U_TAIL = 1e-12


def _weight_rule(a: float, x_min: float, x_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes e^u and weights w with (1+X)^{-a} = sum w e^{-e^u (1+X)} on [x_min, x_max].

    The trapezoid rule in u for Gamma(a)^{-1} int e^{a u - e^u (1+X)} du,
    from where e^u (1+X) <= _U_TAIL^{1/(a+1)} to where it reaches 40 (1+a);
    the nodes below sum in closed form to one node at e^u = 0, which is
    the whole rule, of weight 1, when a = 0.
    """
    if a == 0.0:
        return np.zeros(1), np.ones(1)
    h = _U_STEP
    u_lo = -math.log1p(x_max) - math.log(1.0 / _U_TAIL) / (a + 1.0)
    u_hi = -math.log1p(x_min) + math.log(40.0 * (1.0 + a))
    u = u_lo + h * np.arange(math.ceil((u_hi - u_lo) / h) + 1)
    tail = h * math.exp(a * (u_lo - h)) / -math.expm1(-a * h)
    return (np.concatenate([[0.0], np.exp(u)]),
            np.concatenate([[tail], h * np.exp(a * u)]) / math.gamma(a))


def _cell_moments(cells: Cells, p: float, t: np.ndarray, n: int,
                  order: int) -> np.ndarray:
    """m_k(tau) = integral of |factor(xi)|^p xi^{2k} e^{-tau xi^2} / k!, k <= n, per tau in t.

    On a cell of centre c, half-width h and weight w the factor is
    w _unit_bump(u) / h at xi = c + h u, so the cell gives
    h (|w| / h)^p e^{-tau c^2} times the integral of
    nu(u) (c + h u)^{2k} e^{beta u + q u^2} over u, where nu = _unit_bump^p,
    beta = -2 tau c h and q = -tau h^2.  That is
    sum_j e_j sum_i C(2k, i) c^{2k-i} h^i nu_{i+j}, with e_j from
    _series_terms and nu's moments from _bump_moments.  It is exact to
    rounding where every (cell, tau) has |beta| + |q| <= r <= _SERIES_RADIUS
    and order = _series_order(r), which the caller sees to.  The cells run
    in blocks of _CHUNK / t.size, so each (tau, cell) table holds about
    _CHUNK entries.
    """
    centre, half = cells.centres, cells.half
    degree = 2 * order
    nu = _bump_moments(p, degree + 2 * n)
    weight = half * (np.abs(cells.weight) / half) ** p
    out = np.zeros((t.size, n + 1))
    step = max(1, _CHUNK // t.size)
    for at in range(0, centre.size, step):
        c, h = centre[at:at + step], half[at:at + step]
        # g[j, cell, k] = integral of nu(u) (c + h u)^{2k} u^j / k!
        g = np.zeros((degree + 1, c.size, n + 1))
        for k in range(n + 1):
            for i in range(2 * k + 1):
                binom = math.comb(2 * k, i) / math.factorial(k)
                g[:, :, k] += np.multiply.outer(nu[i:i + degree + 1],
                                                binom * c ** (2 * k - i) * h ** i)
        scale = np.exp(np.multiply.outer(-t, c * c)) * weight[at:at + step]
        beta = np.multiply.outer(-2.0 * t, c * h)
        q = np.multiply.outer(-t, h * h)
        for j, e in zip(range(degree + 1), _series_terms(beta, q)):
            out += (scale * e) @ g[j]
    return out


def _support_integral(f: SpectrumDescriptor, p: float, s: float) -> float:
    """Integral of (1 + |xi|^2)^s |f(xi)|^p over the support of f.

    With n = ceil(s), _weight_rule writes (1+X)^{s-n}, X = |xi|^2, as a
    sum over tau = e^u of e^{-tau (1+X)}, and (1+X)^n e^{-tau (1+X)} is
    e^{-tau} n! times the z^n coefficient of e^z prod_factors
    sum_{k<=n} m_k z^k, m_k(tau) the factor's moments: no table over the
    cells of all axes, and one moment table per distinct factor object,
    shared by the axes that carry it.

    A factor takes its table in closed form, cell by cell in the cell's
    own coordinate (_cell_moments), where r = tau (2 |c| h + h^2) is within
    _SERIES_RADIUS on all its cells at the largest tau, with the centres c
    and half-widths h its Cells declare: the comb from R = 2^12 up, the
    window from about 2^19 up, and every factor at s = 0, where tau = 0
    alone.  The series stops at _series_order(r).
    The others (the window at small R, the product bump and the plane
    wave at s > 0, the d=3 comb at small R) share one rule in the cells'
    own coordinate u in [-1, 1], refined by one doubling loop, at most
    MAX_NODES^{1/factors} nodes a cell.
    """
    facs = f.factors_by_axis()
    n = math.ceil(s)
    r_in, r_out = support_annulus(facs)
    t, wt = _weight_rule(n - s, r_in * r_in, r_out * r_out)
    wt = wt * np.exp(-t) * math.factorial(n)
    inv_fact = np.array([1.0 / math.factorial(k) for k in range(n + 1)])
    step = max(1, _CHUNK // t.size)
    closed, looped = {}, {}
    for key, cells in {id(fac): fac for fac in facs}.items():
        centre, half = cells.centres, cells.half
        r = t[-1] * np.max(half * (2.0 * np.abs(centre) + half))
        if r <= _SERIES_RADIUS:
            closed[key] = _cell_moments(cells, p, t, n, _series_order(r))
        else:
            looped[key] = cells

    def moments(cells, u, w):
        """m_k(tau) = sum wx x^{2k} e^{-tau x^2} / k! over the factor's nodes x = c + h u."""
        half = cells.half[:, None]
        x = (cells.centres[:, None] + half * u).ravel()
        wx = (half * (np.abs(cells.weight[:, None]) / half) ** p
              * (_unit_bump(u) ** p * w)).ravel()
        sq = x * x
        rhs = wx[:, None] * sq[:, None] ** np.arange(n + 1) * inv_fact
        return sum(np.exp(np.multiply.outer(-t, sq[at:at + step])) @ rhs[at:at + step]
                   for at in range(0, x.size, step))

    def evaluate(u, w):
        m = closed | {key: moments(cells, u, w) for key, cells in looped.items()}
        # poly[:, k]: z^k coefficient of e^z times the factors so far, per u
        poly = np.tile(inv_fact, (t.size, 1))
        for fac in facs:
            mf = m[id(fac)]
            poly = np.stack([np.sum(poly[:, :k + 1] * mf[:, k::-1], axis=1)
                             for k in range(n + 1)], axis=1)
        return float(wt @ poly[:, n])

    if not looped:
        return evaluate(None, None)
    return double_panels(evaluate, -1.0, 1.0, 1, rtol=_NORM_RTOL, order=24,
                         max_nodes=int(MAX_NODES ** (1.0 / len(facs))))


def l2_norm(f: SpectrumDescriptor) -> float:
    """((2 pi)^{-d} integral |f|^2)^{1/2} by adaptive quadrature."""
    return math.sqrt(max(TWO_PI ** -f.dim * _support_integral(f, 2, 0.0), 0.0))


def sobolev_norm(f: SpectrumDescriptor, s: float) -> float:
    """((2 pi)^{-d} integral (1+|xi|^2)^s |f|^2)^{1/2}; s=0 reduces to l2_norm."""
    if s < 0.0:
        raise ValueError("s must be nonnegative")
    return math.sqrt(max(TWO_PI ** -f.dim * _support_integral(f, 2, s), 0.0))


def l1_fourier_mass(f: SpectrumDescriptor) -> float:
    """Integral of |f| over the support; the trivial sup bound on evolutions."""
    return _support_integral(f, 1, 0.0)
