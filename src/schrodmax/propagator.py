"""Field evaluation for the free and dissipative Schrodinger evolutions.

One grid engine evaluates separable and radial profiles as matrices
over a point set times a time set.  As e^{i(x xi + t xi^2) - t^gamma xi^2}
= e^{i x xi} e^{(i t - t^gamma) xi^2}, a per-axis matrix over an octave
of times is one exponential table per side met in GEMMs, and radial data
meets the same time table through a Bessel kernel built once per node
set.  The one-point evaluators (its 1 x 1 case), the maximal module's
time suprema and the tail-bound probe grid all call it.  The
lattice-comb data additionally has one factorized product evaluator,
batched over sample points, whose cost scales with the comb length
instead of the full frequency box: a window integral times one lattice
sum of translate integrals per comb axis.  The one-point factorized
evaluation and the summation-by-parts split of a comb factor into a
dominant term plus a bounded remainder are calls into it.  Every
integral converges to rtol of its largest value (per time column in the
grid engine) or to a rounding floor set by its L1 mass, so a strongly
cancelling point costs no more than a coherent one.
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
# the grid engine: field matrices over a point set times a time set

# entries in one exponential table or GEMM operand
_CHUNK = 1 << 16


def _decay(t: np.ndarray, gamma: float) -> np.ndarray:
    """Per-time dissipation t^gamma, zero at t = 0."""
    return np.where(t > 0.0, t, 1.0) ** gamma * (t > 0.0)


def _octaves(tv: np.ndarray, decay: np.ndarray):
    """Time columns by octave of t (t = 0 alone), with what their rules need.

    Yields the columns, the frequency reach past which the octave's
    weakest dissipation leaves less than e^-_DECAY_CUTOFF (inf without
    dissipation), the largest t, and i t - t^gamma per column.
    """
    octave = np.full(tv.shape, -np.inf)
    octave[tv > 0.0] = np.floor(np.log2(tv[tv > 0.0]))
    for o in np.unique(octave):
        cols = np.nonzero(octave == o)[0]
        d_min = float(np.min(decay[cols]))
        reach = math.sqrt(_DECAY_CUTOFF / d_min) if d_min > 0.0 else math.inf
        yield cols, reach, float(np.max(tv[cols])), 1j * tv[cols] - decay[cols]


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


def _node_blocks(block, xi: np.ndarray, coef: np.ndarray, rows: int):
    """Sum of block(z, c) over blocks z of the nodes, c their coefficients.

    A block holds about _CHUNK / rows nodes, so tables with rows rows
    stay near _CHUNK entries.
    """
    step = max(1, _CHUNK // rows)
    out = block(xi[:step], coef[:step])
    for at in range(step, xi.size, step):
        out += block(xi[at:at + step], coef[at:at + step])
    return out


def _time_table(z: np.ndarray, lead: np.ndarray) -> np.ndarray:
    """e^{lead z^2}, one row per node and one column per time."""
    table = np.multiply.outer(z * z, lead)
    return np.exp(table, out=table)


def _plane_phase_sum(xv: np.ndarray, coef: np.ndarray, xi: np.ndarray,
                     lead: np.ndarray) -> np.ndarray:
    """Sum over nodes of coef e^{i x xi + lead xi^2} at every (x, t).

    lead holds i t - t^gamma per time.  The tables e^{i x xi} and
    e^{lead xi^2} meet in a GEMM, unless one table over every
    (x, t, node) is no larger, as at a single point.
    """
    if xv.size * lead.size > xv.size + lead.size:
        return _node_blocks(lambda z, c: (np.exp(1j * np.multiply.outer(xv, z)) * c)
                            @ _time_table(z, lead), xi, coef, max(xv.size, lead.size))
    return _node_blocks(lambda z, c: np.exp(1j * np.multiply.outer(xv, z)[:, None, :]
                                            + np.multiply.outer(lead, z * z)) @ c,
                        xi, coef, xv.size * lead.size)


def _axis_matrix(f: SpectrumDescriptor, axis: int, xv: np.ndarray, tv: np.ndarray,
                 decay: np.ndarray, rtol: float) -> np.ndarray:
    """Factor integrals of one axis at every (x, t): an (xv.size, tv.size) matrix.

    decay is each time's dissipation t^gamma (zeros for the free
    evolution).  Per octave of t, each support cell is clipped where
    the dissipation leaves nothing, its panels start from the octave's
    worst phase rate, and they double until every time column is within
    rtol of its largest modulus or the rounding floor of the cell's mass.
    """
    out = np.zeros((xv.size, tv.size), dtype=complex)
    x_hi = float(np.max(np.abs(xv)))
    for cols, reach, t_hi, lead in _octaves(tv, decay):
        for (lo, hi), mass in zip(f.axis_cells()[axis], _cell_masses(f, axis)):
            lo, hi = max(lo, -reach), min(hi, reach)
            if hi <= lo:
                continue
            rate = x_hi + 2.0 * t_hi * max(abs(lo), abs(hi))

            def evaluate(xi, w, lead=lead):
                return _plane_phase_sum(xv, np.asarray(f.axis_factor(axis, xi)) * w, xi, lead)

            out[:, cols] += double_panels(evaluate, lo, hi, panels_for_rate(lo, hi, rate),
                                          rtol=rtol, mass=mass)
    return out


def _radial_matrix(f: AnnulusBump, radii: np.ndarray, tv: np.ndarray,
                   decay: np.ndarray, rtol: float) -> np.ndarray:
    """Field of radial data at every (|x|, t): a (radii.size, tv.size) matrix.

    The Bessel kernel of each node set is built once for all times and
    meets their table in a GEMM; octaves, clipping and panel starts are
    those of _axis_matrix, and each time column converges to rtol of
    its largest modulus.
    """
    d = f.dim
    lo, hi = f.support_radii()
    nu = d / 2.0 - 1.0
    area = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    small = radii < 1e-300
    scale = TWO_PI ** (d / 2.0) * np.where(small, 1.0, radii) ** (1.0 - d / 2.0)

    def kernel(rho):
        bessel = scale[:, None] * jv(nu, np.multiply.outer(radii, rho)) * rho ** (d / 2.0)
        return np.where(small[:, None], area * rho ** (d - 1), bessel)

    out = np.zeros((radii.size, tv.size), dtype=complex)
    for cols, reach, t_hi, lead in _octaves(tv, decay):
        hi_c = min(hi, reach)
        if hi_c <= lo:
            continue
        rate = float(np.max(radii)) + 2.0 * t_hi * hi_c

        def evaluate(rho, w, lead=lead):
            return _node_blocks(lambda z, c: (kernel(z) * c) @ _time_table(z, lead),
                                rho, radial_profile(f.profile, rho / f.R) * w,
                                max(radii.size, lead.size))

        out[:, cols] = double_panels(evaluate, lo, hi_c, panels_for_rate(lo, hi_c, rate),
                                     rtol=rtol)
    return out * TWO_PI ** -d


def _field_grid(f: SpectrumDescriptor, x: np.ndarray, t: np.ndarray,
                decay: np.ndarray, rtol: float) -> np.ndarray:
    """Field values at points x, shaped (n, d), and times t: an (n, t.size) matrix.

    decay is each time's dissipation t^gamma (zeros for the free
    evolution).  Separable data is evaluated on the distinct
    coordinates of each axis, radial data on the distinct radii.
    """
    if isinstance(f, Modulated):
        return _field_grid(f.base, x + f.shift[None, :], t, decay, rtol)
    if isinstance(f, AnnulusBump):
        radii, rows = np.unique(np.linalg.norm(x, axis=1), return_inverse=True)
        return _radial_matrix(f, radii, t, decay, rtol)[rows]
    if f.axis_cells() is None:
        raise ValueError(f"descriptor kind {f.kind!r} is not evaluable")
    out = np.full((x.shape[0], t.size), TWO_PI ** -f.dim, dtype=complex)
    for axis in range(f.dim):
        coords, rows = np.unique(x[:, axis], return_inverse=True)
        out *= _axis_matrix(f, axis, coords, t, decay, rtol)[rows]
    return out


def _evaluate_point(f: SpectrumDescriptor, p: SpaceTimePoint, decay: float,
                    rtol: float) -> complex:
    x = np.asarray(p.x, dtype=float)
    if x.size != f.dim:
        raise ValueError(f"point dimension {x.size} does not match profile {f.dim}")
    return complex(_field_grid(f, x[None, :], np.array([p.t]), np.array([decay]),
                               rtol)[0, 0])


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
    field = _field_grid(f, _ball_probe_points(f.dim), times, _decay(times, gamma), rtol)
    worst = float(np.max(np.abs(field)))
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
