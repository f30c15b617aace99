"""Field evaluation for the free and dissipative Schrodinger evolutions.

One direct engine evaluates separable and radial profiles at batches
of paired (x, t) samples, with oscillation-aware node budgets per
octave of t; the one-point evaluators, the maximal module's time
suprema and the tail-bound probes all call it.  The lattice-comb data
additionally has one factorized product evaluator, batched over sample
points, whose cost scales with the comb length instead of the full
frequency box: a window integral times one lattice sum of translate
integrals per comb axis.  The one-point factorized evaluation and the
summation-by-parts split of a comb factor into a dominant term plus a
bounded remainder are calls into it.  Every integral converges to rtol
of its batch maximum or to a rounding floor set by its L1 mass, so a
strongly cancelling point costs no more than a coherent one.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import jv

from .profiles import (
    AnnulusBump,
    CounterexampleParams,
    Modulated,
    RadialBump,
    SpectrumDescriptor,
    _mollifier_raw,
    comb_range,
    l2_norm,
    mollifier_mass,
    radial_profile,
)
from .quadrature import MAX_NODES, double_panels, panel_nodes, panels_for_rate

TWO_PI = 2.0 * math.pi

# e^{-x} below double-precision relevance; used to truncate dissipation
_DECAY_CUTOFF = 46.0


@dataclass(frozen=True)
class SpaceTimePoint:
    """Position and nonnegative time."""

    x: tuple[float, ...]
    t: float

    def __post_init__(self):
        if not (math.isfinite(self.t) and self.t >= 0.0):
            raise ValueError("t must be finite and nonnegative")
        if not all(math.isfinite(v) for v in self.x):
            raise ValueError("x must be finite")


@dataclass(frozen=True)
class FactorizedEvaluation:
    """Window factor, per-axis comb factors, and their modulus product."""

    i1: complex
    ij: tuple[complex, ...]
    product_modulus: float


@dataclass(frozen=True)
class TorusCoefficient:
    """One Fourier coefficient of the dissipated bump on the torus."""

    l: tuple[int, ...]
    t: float
    value: complex


# ---------------------------------------------------------------------------
# direct field evaluation, batched over paired (x, t) samples


def _decay(t: np.ndarray, gamma: float) -> np.ndarray:
    """Per-sample dissipation t^gamma, zero at t = 0."""
    return np.where(t > 0.0, t, 1.0) ** gamma * (t > 0.0)


def _bucket_indices(t: np.ndarray) -> list[np.ndarray]:
    """Group sample indices by the octave of t (t = 0 in its own group)."""
    out = []
    zero = np.nonzero(t == 0.0)[0]
    if zero.size:
        out.append(zero)
    live = np.nonzero(t > 0.0)[0]
    if live.size:
        octv = np.floor(np.log2(t[live])).astype(int)
        for o in np.unique(octv):
            out.append(live[octv == o])
    return out


@functools.lru_cache(maxsize=32)
def _cell_masses(f: SpectrumDescriptor, axis: int) -> tuple[float, ...]:
    """Integral of |axis_factor| over each support cell of one axis.

    It bounds the L1 mass of every cell integrand, whatever the point,
    and sets the rounding floor of that cell's convergence test.
    """
    cells = np.array(f.axis_cells()[axis], dtype=float)
    u, w = panel_nodes(0.0, 1.0, 4)
    width = cells[:, 1] - cells[:, 0]
    xi = cells[:, :1] + width[:, None] * u[None, :]
    vals = np.abs(np.asarray(f.axis_factor(axis, xi.ravel()))).reshape(xi.shape)
    return tuple((vals @ w) * width)


def _batch_cell_integral(factor_fn, xv: np.ndarray, tv: np.ndarray,
                         decay: np.ndarray, lo: float, hi: float,
                         rate: float, rtol: float, mass: float) -> np.ndarray:
    """Integrals of factor(xi) e^{i(x xi + t xi^2) - decay xi^2} over [lo, hi]."""

    def evaluate(xi, w):
        phase = xv[:, None] * xi[None, :] + tv[:, None] * (xi * xi)[None, :]
        damp = decay[:, None] * (xi * xi)[None, :]
        return (factor_fn(xi)[None, :] * np.exp(1j * phase - damp)) @ w

    return double_panels(evaluate, lo, hi, panels_for_rate(lo, hi, rate), rtol=rtol,
                         mass=mass)


def _axis_values(f: SpectrumDescriptor, axis: int, xv: np.ndarray,
                 tv: np.ndarray, decay: np.ndarray, rtol: float) -> np.ndarray:
    """Per-axis factor integrals at paired (x_axis, t) samples."""
    out = np.zeros(xv.size, dtype=complex)
    cells = f.axis_cells()[axis]
    masses = _cell_masses(f, axis)
    chunk_cap = 1 << 22
    for rows in _bucket_indices(tv):
        d_min = float(np.min(decay[rows]))
        t_hi = float(np.max(tv[rows]))
        x_hi = float(np.max(np.abs(xv[rows])))
        for (lo, hi), mass in zip(cells, masses):
            if d_min > 0.0:
                reach = math.sqrt(_DECAY_CUTOFF / d_min)
                lo_c, hi_c = max(lo, -reach), min(hi, reach)
            else:
                lo_c, hi_c = lo, hi
            if hi_c <= lo_c:
                continue
            rate = x_hi + 2.0 * t_hi * max(abs(lo_c), abs(hi_c))
            est_nodes = panels_for_rate(lo_c, hi_c, rate) * 32
            step = max(1, chunk_cap // max(est_nodes, 1))
            for at in range(0, rows.size, step):
                sub = rows[at:at + step]
                out[sub] += _batch_cell_integral(
                    lambda xi, _a=axis: np.asarray(f.axis_factor(_a, xi)),
                    xv[sub], tv[sub], decay[sub], lo_c, hi_c, rate, rtol, mass)
    return out


def _radial_values(f: AnnulusBump, radii: np.ndarray, tv: np.ndarray,
                   decay: np.ndarray, rtol: float) -> np.ndarray:
    """|x|-dependent field values at paired (|x|, t) samples."""
    d = f.dim
    lo, hi = f.support_radii()
    out = np.zeros(radii.size, dtype=complex)
    nu = d / 2.0 - 1.0
    area = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    for rows in _bucket_indices(tv):
        d_min = float(np.min(decay[rows]))
        hi_c = min(hi, math.sqrt(_DECAY_CUTOFF / d_min)) if d_min > 0.0 else hi
        if hi_c <= lo:
            continue
        t_hi = float(np.max(tv[rows]))
        x_hi = float(np.max(radii[rows]))
        rate = x_hi + 2.0 * t_hi * hi_c
        small = radii[rows] < 1e-300

        def evaluate(rho, w, rows=rows, small=small):
            prof = radial_profile(f.profile, rho / f.R)
            lead = (1j * tv[rows, None] - decay[rows, None]) * (rho * rho)[None, :]
            rx = radii[rows, None] * rho[None, :]
            kern = np.where(
                small[:, None],
                area * (rho ** (d - 1))[None, :],
                TWO_PI ** (d / 2.0)
                * np.where(small, 1.0, radii[rows])[:, None] ** (1.0 - d / 2.0)
                * jv(nu, rx) * (rho ** (d / 2.0))[None, :])
            return (prof[None, :] * np.exp(lead) * kern) @ w * TWO_PI ** -d

        out[rows] = double_panels(evaluate, lo, hi_c, panels_for_rate(lo, hi_c, rate),
                                  rtol=rtol)
    return out


def _field_points(f: SpectrumDescriptor, x: np.ndarray, t: np.ndarray,
                  decay: np.ndarray, rtol: float) -> np.ndarray:
    """Field values at paired samples: x is (n, d), t and decay are (n,).

    decay is each sample's dissipation t^gamma (zeros for the free
    evolution).  Panel counts follow the worst phase rate of each
    octave of t, and converge against that group's largest modulus.
    """
    if isinstance(f, Modulated):
        return _field_points(f.base, x + f.shift[None, :], t, decay, rtol)
    if isinstance(f, AnnulusBump):
        return _radial_values(f, np.linalg.norm(x, axis=1), t, decay, rtol)
    if f.axis_cells() is None:
        raise ValueError(f"descriptor kind {f.kind!r} is not evaluable")
    out = np.full(x.shape[0], TWO_PI ** -f.dim, dtype=complex)
    for axis in range(f.dim):
        out *= _axis_values(f, axis, x[:, axis], t, decay, rtol)
    return out


def _evaluate_point(f: SpectrumDescriptor, p: SpaceTimePoint, decay: float,
                    rtol: float) -> complex:
    x = np.asarray(p.x, dtype=float)
    if x.size != f.dim:
        raise ValueError(f"point dimension {x.size} does not match profile {f.dim}")
    return complex(_field_points(f, x[None, :], np.array([p.t]),
                                 np.array([decay]), rtol)[0])


def evaluate_free(f: SpectrumDescriptor, p: SpaceTimePoint, *,
                  rtol: float = 1e-10) -> complex:
    """Free evolution (2 pi)^{-d} integral of e^{i(x.xi + t|xi|^2)} f(xi)."""
    return _evaluate_point(f, p, 0.0, rtol)


def evaluate_p_gamma(f: SpectrumDescriptor, gamma: float, p: SpaceTimePoint, *,
                     rtol: float = 1e-10) -> complex:
    """Dissipative evolution: the free phase damped by e^{-t^gamma |xi|^2}."""
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    return _evaluate_point(f, p, p.t ** gamma if p.t > 0.0 else 0.0, rtol)


# ---------------------------------------------------------------------------
# the dissipative tail bound


def _ball_probe_points(d: int) -> np.ndarray:
    pts = [np.zeros(d)]
    for axis in range(d):
        for sign in (1.0, -1.0):
            v = np.zeros(d)
            v[axis] = 0.6 * sign
            pts.append(v)
    for corner in range(1 << d):
        v = np.array([0.4 if corner >> a & 1 else -0.4 for a in range(d)])
        pts.append(v)
    return np.array(pts)


def dissipative_tail_bound(f: SpectrumDescriptor, gamma: float, eps: float, *,
                           n_times: int = 64, rtol: float = 1e-6) -> float:
    """Bound e^{-R^eps} R^{d/2} ||f||_2 on the evolution past the time split.

    Also samples |evolution| on a (t, x) probe grid over
    t in (R^{-2/gamma+eps}, 1) and x in the unit ball, and checks the
    samples stay below ten times the bound.
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    R = f.band_scale
    bound = math.exp(-R ** eps) * R ** (f.dim / 2.0) * l2_norm(f)
    t_lo = R ** (-2.0 / gamma + eps)
    if t_lo >= 1.0:
        raise ValueError("time window is empty; R too small for this gamma, eps")
    times = np.geomspace(t_lo, 1.0, n_times + 2)[1:-1]
    probes = _ball_probe_points(f.dim)
    t = np.repeat(times, probes.shape[0])
    x = np.tile(probes, (times.size, 1))
    worst = float(np.max(np.abs(_field_points(f, x, t, _decay(t, gamma), rtol))))
    if worst > 10.0 * bound:
        raise ArithmeticError(
            f"sampled evolution {worst:g} exceeds ten times the bound {bound:g}")
    return bound


# ---------------------------------------------------------------------------
# torus Fourier coefficients


def _torus_grid_size(d: int) -> int:
    return 512 if d <= 2 else 128


@functools.lru_cache(maxsize=8)
def _torus_table(t: float, R: float, gamma: float, d: int, n_grid: int):
    """Midpoint-grid samples of phi(|xi|) e^{-t^gamma R^2 |xi|^2} on [-pi, pi]^d.

    The grid is symmetric under xi -> -xi, which hands conjugate
    symmetry of the coefficients to the contraction for free.
    """
    step = TWO_PI / n_grid
    xi = -math.pi + (np.arange(n_grid) + 0.5) * step
    grids = np.meshgrid(*([xi] * d), indexing="ij")
    r = np.sqrt(sum(g * g for g in grids))
    table = radial_profile(RadialBump(), r) * np.exp(-(t ** gamma) * R * R * r * r)
    table *= (step / TWO_PI) ** d
    return xi, table


def torus_coefficient(l, t: float, R: float, gamma: float, *,
                      eps: float = 0.1) -> TorusCoefficient:
    """Fourier coefficient of the dissipated annulus bump on the torus."""
    l = tuple(int(v) for v in np.atleast_1d(l))
    d = len(l)
    if d < 1:
        raise ValueError("l must be a nonempty integer vector")
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    t_hi = R ** (-2.0 / gamma + eps)
    if not 0.0 < t <= t_hi * (1.0 + 1e-12):
        raise ValueError(f"t must lie in (0, {t_hi:g}] for R={R:g}")
    xi, table = _torus_table(float(t), float(R), float(gamma), d,
                             _torus_grid_size(d))
    vecs = [np.exp(-1j * xi * l_a) for l_a in l]
    value = np.einsum(table, list(range(d)),
                      *[arg for a, v in enumerate(vecs) for arg in (v, [a])], [])
    return TorusCoefficient(l=l, t=float(t), value=complex(value))


def torus_decay_slope(t: float, R: float, gamma: float, *, d: int = 2,
                      n_max: int = 64, floor: float = 1e-13) -> float:
    """Fitted slope of log|C_l| against log(1+|l|) along the first axis."""
    ns, mags = [], []
    for n in range(1, n_max + 1):
        l = (n,) + (0,) * (d - 1)
        c = abs(torus_coefficient(l, t, R, gamma).value)
        if c >= floor:
            ns.append(1.0 + n)
            mags.append(c)
    if len(ns) < 4:
        raise ValueError("too few coefficients above the floor to fit a slope")
    slope = np.polyfit(np.log(ns), np.log(mags), 1)[0]
    return float(slope)


# ---------------------------------------------------------------------------
# factorized evaluation of the lattice-comb data


def _unit_bump(u):
    return _mollifier_raw(u) / mollifier_mass()


def _check_in_box(cp: CounterexampleParams, x: np.ndarray):
    m = cp.model
    x1_lo = -cp.c1 * m.R ** (m.gamma / 2.0 - 1.0)
    slack = 1e-9
    ok = ((x[..., 0] >= x1_lo * (1.0 + slack))
          & (x[..., 0] <= x1_lo / 2.0 * (1.0 - slack)))
    for j in range(1, m.d):
        ok = ok & (np.abs(x[..., j]) <= cp.c1 * (1.0 + slack))
    if not np.all(ok):
        raise ValueError("point outside the admissible spatial box")


def _lattice_phases(cp: CounterexampleParams, xj, t, ells: np.ndarray) -> np.ndarray:
    """e^{i(D l x_j + D^2 l^2 t)}: one row per sample, one column per translate."""
    return np.exp(1j * (cp.D * np.outer(xj, ells)
                        + cp.D ** 2 * np.outer(t, ells * ells)))


# panel order of the window and comb rules
_FACTOR_ORDER = 64


def _batch_window(cp: CounterexampleParams, x1: np.ndarray, t: np.ndarray,
                  u: np.ndarray, w: np.ndarray,
                  gamma_eval: float | None = None) -> np.ndarray:
    m = cp.model
    ge = m.gamma if gamma_eval is None else gamma_eval
    root_r = math.sqrt(m.R)
    band = m.R ** (m.gamma / 2.0)
    lin = root_r * (x1 + 2.0 * band * t)
    phase = lin[:, None] * u[None, :] + (m.R * t)[:, None] * (u * u)[None, :]
    co = band + u * root_r
    decay = (t ** ge)[:, None] * (co * co)[None, :]
    vals = _unit_bump(u)[None, :] * np.exp(1j * phase - decay)
    return vals @ w


def _batch_comb(cp: CounterexampleParams, xj: np.ndarray, t: np.ndarray,
                ells: np.ndarray, xi: np.ndarray, w: np.ndarray,
                gamma_eval: float | None = None) -> np.ndarray:
    m = cp.model
    ge = m.gamma if gamma_eval is None else gamma_eval
    drift = xj[:, None] + 2.0 * cp.D * t[:, None] * ells[None, :]
    phase = (drift[:, :, None] * xi[None, None, :]
             + t[:, None, None] * (xi * xi)[None, None, :])
    co = xi[None, None, :] + cp.D * ells[None, :, None]
    decay = (t ** ge)[:, None, None] * (co * co)
    g = (_unit_bump(xi)[None, None, :] * np.exp(1j * phase - decay)) @ w
    return np.sum(_lattice_phases(cp, xj, t, ells) * g, axis=1)


def _comb_factors(cp: CounterexampleParams, xj: np.ndarray, t: np.ndarray,
                  ells: np.ndarray, rtol: float,
                  gamma_eval: float | None) -> np.ndarray:
    """Lattice sums of translate integrals on one comb axis at paired samples.

    Each translate integrates the unit bump against a unimodular phase,
    so the sum's L1 mass is at most ells.size; that sets the rounding
    floor, and the node budget is shared among the translates.
    """
    t_max = float(np.max(t, initial=0.0))
    rate = (float(np.max(np.abs(xj)))
            + 2.0 * cp.D * t_max * (float(np.max(ells)) + 1.0) + 2.0 * t_max)
    panels = panels_for_rate(-1.0, 1.0, rate, _FACTOR_ORDER)
    chunk = max(1, (1 << 22) // (ells.size * _FACTOR_ORDER))
    out = np.empty(xj.size, dtype=complex)
    for lo in range(0, xj.size, chunk):
        rows = slice(lo, lo + chunk)
        out[rows] = double_panels(
            functools.partial(_batch_comb, cp, xj[rows], t[rows], ells,
                              gamma_eval=gamma_eval),
            -1.0, 1.0, panels, rtol=rtol, mass=float(ells.size),
            order=_FACTOR_ORDER, max_nodes=MAX_NODES // ells.size)
    return out


def _factorized_batch(cp: CounterexampleParams, x: np.ndarray, t: np.ndarray, *,
                      rtol: float = 1e-9, gamma_eval: float | None = None):
    """Factor arrays for many points: (i1, ij matrix, modulus product).

    Panel counts start from the worst-case phase rate over the batch
    and double until the factor values stabilize, to rtol of the batch
    maximum or to the rounding floor of the integrand's L1 mass (one
    for the unit-mass window).
    """
    m = cp.model
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    if x.ndim != 2 or x.shape[1] != m.d or t.shape != (x.shape[0],):
        raise ValueError("x must be (n, d) and t (n,)")
    _check_in_box(cp, x)
    if not np.all(np.isfinite(t) & (t >= 0.0)):
        raise ValueError("t must be finite and nonnegative")
    start, stop = comb_range(cp)
    ells = np.arange(start, stop, dtype=float)
    band = m.R ** (m.gamma / 2.0)
    root_r = math.sqrt(m.R)
    t_max = float(np.max(t, initial=0.0))

    rate1 = float(np.max(np.abs(root_r * (x[:, 0] + 2.0 * band * t)), initial=0.0)
                  ) + 2.0 * m.R * t_max
    i1 = double_panels(
        functools.partial(_batch_window, cp, x[:, 0], t, gamma_eval=gamma_eval),
        -1.0, 1.0, panels_for_rate(-1.0, 1.0, rate1, _FACTOR_ORDER),
        rtol=rtol, mass=1.0, order=_FACTOR_ORDER)
    ij = np.stack([_comb_factors(cp, x[:, j], t, ells, rtol, gamma_eval)
                   for j in range(1, m.d)], axis=1)
    modulus = np.abs(i1) * np.prod(np.abs(ij), axis=1)
    return i1, ij, modulus


def factorized_evaluate(cp: CounterexampleParams, p: SpaceTimePoint, *,
                        rtol: float = 1e-10,
                        gamma_eval: float | None = None) -> FactorizedEvaluation:
    """Product-form evaluation of the comb data's evolution at one point.

    The product of the factor moduli equals (2 pi)^d times the modulus
    of the direct evolution; a global phase on the first axis is
    dropped.
    """
    x = np.asarray(p.x, dtype=float)
    if x.size != cp.model.d:
        raise ValueError(f"point dimension {x.size} does not match d={cp.model.d}")
    i1, ij, modulus = _factorized_batch(cp, x[None, :], np.array([p.t]), rtol=rtol,
                                        gamma_eval=gamma_eval)
    return FactorizedEvaluation(i1=complex(i1[0]), ij=tuple(complex(v) for v in ij[0]),
                                product_modulus=float(modulus[0]))


def abel_main_plus_error(cp: CounterexampleParams, p: SpaceTimePoint, j: int, *,
                         rtol: float = 1e-10) -> tuple[complex, float]:
    """Dominant term and remainder bound for one comb factor.

    j is the 0-based spatial axis; axes 1 .. d-1 carry comb factors.
    Returns (main, e1_bound) with main the full lattice sum times the
    inner integral at the top translate, and e1_bound an a-priori bound
    on |factor - main| via summation by parts.
    """
    m = cp.model
    if not 1 <= j < m.d:
        raise ValueError(f"axis j must be in [1, {m.d - 1}]")
    x = np.asarray(p.x, dtype=float)
    _check_in_box(cp, x)
    x_j, t = float(x[j]), p.t
    start, stop = comb_range(cp)
    ells = np.arange(start, stop, dtype=float)
    partial = np.cumsum(_lattice_phases(cp, x_j, t, ells)[0])
    sup_s = float(np.max(np.abs(partial)))
    top = ells[-1:]
    g_top = (_comb_factors(cp, x[j:j + 1], np.array([t]), top, rtol, None)[0]
             / _lattice_phases(cp, x_j, t, top)[0, 0])
    main = complex(partial[-1] * g_top)
    band = m.R ** (m.gamma / 2.0)
    e1_bound = 4.0 * (band * t + (t * m.R) ** m.gamma) * sup_s
    return main, e1_bound
