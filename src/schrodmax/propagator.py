"""Field evaluation for the free and dissipative Schrodinger evolutions.

Two engines, each with one integration loop.

The grid engine evaluates separable profiles as matrices over a point
set times a time set.  _field_factors reads the data's one factor
description, the profile's factors_by_axis, which is where the data
families are told apart, and turns each axis factor into a
(matrix, rows) pair over that axis's distinct coordinates.  Identical
factors are evaluated once: axes that share a factor object (every axis
of the product bump, the comb axes of the counterexample data) and their
coordinates, as on a meshgrid, share one matrix and differ only in their
rows.  Every matrix comes from one
loop per rule over the axis's Cells: each cell integrates its weighted
unit bump in its own coordinate u in [-1, 1], xi = c + h u; per octave
of t it is clipped where the dissipation leaves nothing and its panels
start from the octave's worst phase rate, and the cells and octaves
that need the same rule over the same time columns share one loop.  It
evaluates those cells at once on the shared nodes u and doubles its
panels until each (cell, time) column converges, to rtol or to the
rounding floor of its cell's L1 mass, the modulus of its weight, so a
comb's teeth and a geometric grid's octaves cost one loop per rule.  As
e^{i(x xi + t xi^2) - t^gamma xi^2} = e^{i x xi} e^{(i t - t^gamma) xi^2},
the node sum has one kernel: per cell, the table e^{i x xi} times the
coefficients meets the table e^{(i t - t^gamma) xi^2} in a stacked GEMM,
and a single point or time is its one-row case.  Over n times that run
t_0 + k dt, as the uniform tail of a hybrid time grid does, the time
table splits the phase by angle addition into anchor and offset
columns, about 2 sqrt(n) complex exponentials per node in place of n,
and multiplies the damping in as a real exponential (_time_table); any
other times take one exponential per entry.  On a cell centred at 0
(_even_cells), whose clipped rules stay symmetric, the same GEMM runs
over the nonnegative nodes only, with one coefficient row per sign of
xi.  The one-point evaluators (the 1 x 1 case) and the maximal module's
time suprema use these factors.

The factorized engine evaluates the lattice-comb data, batched over
sample points, at a cost that scales with the comb length instead of
the full frequency box.  Its one kernel sums translated bumps:
translate k integrates bump(u) e^{i x eta + lam eta^2} at
eta = eta_k + s u, with lam = i t - t^gamma, so the sum over k is a
polynomial in z = e^{2 Delta lam s u} (Delta the translate spacing).
The window factor is one translate of width sqrt(R); each comb factor
is the lattice of unit translates.  At a resonant sample the sum has a
closed form and runs no quadrature.  Where log z moves by at most _RHO
about the centre of the L translates, the polynomial is its
_TAYLOR + 1 Taylor moments about that centre; the rest of the
exponent is beta u + q u^2, and where r = |beta| + |q| <= _SERIES_RADIUS
its power series, met with the unit bump's moments, leaves a tail below
3.5e-20 of the integrand's mass at each sample's own u-degree
2 _series_order(r): 2 _SERIES_ORDER at the radius, 14 and 18 at the
ladder's windows and combs.  The
construction makes its points resonant: the time is chosen where the
window's phase is stationary, and the box keeps |x_j| <= c1, so each
ladder point at its selected time takes the closed form in both
factors, with |beta| + |q| below 0.04.  There each translate's lattice
phase is a quadratic residue over the draw's modulus q plus a slow
drift, so a batch given the draws' residues takes the comb's moments
folded over q from exact integer phases (_folded_moments): one pass per
drawn modulus over every (sample, rest axis) pair, O(q) work per drawn
anchor and no (sample, translate) table.  These are the comb's only
moments: a comb sample without residues, as in check 5,
propagator-check and every one-point evaluation, runs Horner's rule in z
on doubling panels, L multiply-adds per (sample, node), over the lattice
phases formed from x and t.  One translate, the window, has its
coefficient as its one moment M_0, so it takes the closed form wherever
its series converges.  The one-point factorized evaluation is a call
into the kernel.  Every integral converges to rtol of its
largest value (per time column in the grid engine) or to a rounding
floor set by its L1 mass, so a strongly cancelling point costs no more
than a coherent one.  A factor whose damping at its support's smallest
|eta|, times its L1 mass, leaves the normal doubles is 0, with no series
or quadrature, so a batch at large t neither overflows nor integrates
zeros.
"""

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .profiles import (
    _SERIES_ORDER,
    _SERIES_RADIUS,
    CounterexampleParams,
    SpectrumDescriptor,
    _bump_moments,
    _series_order,
    _series_terms,
    _unit_bump,
    comb_range,
)
from .quadrature import (
    _CHUNK,
    MAX_NODES,
    double_panels,
    panels_for_rate,
)

TWO_PI = 2.0 * math.pi

# e^{-x} below double-precision relevance; used to truncate dissipation
_DECAY_CUTOFF = 46.0

# convergence tolerance of the one-point evaluations
_POINT_RTOL = 1e-10

# how far, in ulps of the largest time, the times of a time table may
# stray from t_0 + k dt and still split into runs (_uniform_runs); the
# uniform tail of TimeGrid.hybrid strays by at most 2
_RUN_ULPS = 4


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


def _distinct(a) -> np.ndarray:
    """The sorted distinct values of a, as np.unique(a) gives them.

    Bare np.unique asks numpy.ma whether a is masked (numpy 2), and
    importing numpy.ma costs a process about 14 ms; np.unique with an
    index or count output does not ask, nor does this.
    """
    a = np.sort(a, axis=None)
    return np.concatenate((a[:1], a[1:][a[1:] != a[:-1]]))


# ---------------------------------------------------------------------------
# the grid engine: field matrices over a point set times a time set


def _octaves(tv: np.ndarray, decay: np.ndarray):
    """Time columns by octave of t (t = 0 alone), with what their rules need.

    Yields the columns, the frequency reach past which the octave's
    weakest dissipation leaves less than e^-_DECAY_CUTOFF (inf without
    dissipation) and the largest t.  Octaves set the rules, not the
    loops: _cell_matrix runs one doubling loop per rule, over every cell
    and octave that need it, so the one time per octave of a geometric
    grid costs no loop of its own.
    """
    octave = np.full(tv.shape, -np.inf)
    octave[tv > 0.0] = np.floor(np.log2(tv[tv > 0.0]))
    for o in _distinct(octave):
        cols = np.nonzero(octave == o)[0]
        d_min = float(np.min(decay[cols]))
        reach = math.sqrt(_DECAY_CUTOFF / d_min) if d_min > 0.0 else math.inf
        yield cols, reach, float(np.max(tv[cols]))


def _cis(phase: np.ndarray) -> np.ndarray:
    """e^{i phase} of a real array, exponentiated in place: no complex temporary."""
    table = np.zeros(phase.shape, dtype=complex)
    table.imag = phase
    return np.exp(table, out=table)


def _uniform_runs(t: np.ndarray) -> tuple[int, float] | None:
    """Run length K and step dt where the n times t split into runs, else None.

    They split where they are t_0 + k dt to within _RUN_ULPS ulps of the
    largest |t| and ceil(n / K) + K < n at K = ceil(sqrt(n)), so that a
    time table over them needs fewer exponentials per node by runs
    (_time_table) than directly.  Of a hybrid grid's times, the uniform
    tail splits; a single time, the geometric octaves and the refinement
    sub-times, which skip the grid times between them, do not.
    """
    n = t.size
    size = math.isqrt(n - 1) + 1
    if -(-n // size) + size >= n:
        return None
    step = (t[-1] - t[0]) / (n - 1)
    if np.max(np.abs(t - (t[0] + step * np.arange(n)))) > _RUN_ULPS * np.spacing(np.max(np.abs(t))):
        return None
    return size, step


def _time_table(z: np.ndarray, lead: np.ndarray) -> np.ndarray:
    """e^{lead z^2}, one row per node and one column per time.

    lead is i t - t^gamma per time.  Where the times split into runs of K
    (_uniform_runs), e^{i t_k z^2} at k = jK + r is the anchor
    e^{i t_{jK} z^2}, at an exact grid time, times the offset
    e^{i r dt z^2}: ceil(n / K) + K complex exponentials per node and one
    product per entry, about 2 sqrt(n) in place of n.  The damping
    e^{-t^gamma z^2}, a real exponential, is then multiplied in.  Other
    times take np.exp directly.
    """
    z2 = z * z
    runs = _uniform_runs(lead.imag)
    if runs is None:
        table = np.multiply.outer(z2, lead)
        return np.exp(table, out=table)
    size, step = runs
    anchors = _cis(np.multiply.outer(z2, lead.imag[::size]))
    offsets = _cis(np.multiply.outer(z2, step * np.arange(size)))
    table = np.multiply(anchors[..., None], offsets[..., None, :])
    table = table.reshape(z.shape + (-1,))[..., :lead.size]
    damping = np.multiply.outer(z2, lead.real)
    return np.multiply(table, np.exp(damping, out=damping), out=table)


def _plane_phase_sum(xv: np.ndarray, xi: np.ndarray, coef: np.ndarray,
                     lead: np.ndarray, even: bool) -> np.ndarray:
    """Sum over nodes of coef e^{i x xi + lead xi^2} at every (member, x, t).

    xi and coef hold one row of nodes and coefficients per member, shaped
    (members, nodes), and lead holds i t - t^gamma per time; the result is
    (members, xv.size, lead.size).  Per member the tables e^{i x xi} c and
    e^{lead xi^2} meet in a stacked GEMM; a single point or time is its
    one-row case.  With even set, each member's xi is a rule on a cell
    symmetric about 0, ascending and of even count, so node k from the
    top mirrors node k from the bottom.  As e^{lead xi^2} is even in xi,
    the same GEMM then runs over the nonnegative half with two
    coefficient rows, c(xi) against e^{i x xi} and c(-xi) against
    e^{-i x xi}: half the exponentials in either table and half the GEMM
    depth.  Members run in blocks whose stacked tables hold about _CHUNK
    entries, max(xv.size, lead.size) per node; a member whose own tables
    exceed that runs alone, its nodes in blocks.
    """
    if even:
        half = xi.shape[1] // 2
        # one coefficient row per sign of xi
        xi, coef = xi[:, half:], np.stack([coef[:, half:], coef[:, half - 1::-1]], axis=1)
    else:
        coef = coef[:, None]
    rows = max(xv.size, lead.size)
    members = max(1, _CHUNK // (rows * xi.shape[1]))
    nodes = max(1, _CHUNK // (rows * members))
    out = np.zeros((xi.shape[0], xv.size, lead.size), dtype=complex)
    for lo in range(0, xi.shape[0], members):
        for at in range(0, xi.shape[1], nodes):
            z, c = xi[lo:lo + members, at:at + nodes], coef[lo:lo + members, :, at:at + nodes]
            phase = np.exp(1j * (z[:, None, :] * xv[:, None]))
            if even:
                phase = phase * c[:, :1] + phase.conj() * c[:, 1:]
            else:
                phase *= c
            out[lo:lo + members] += phase @ _time_table(z, lead)
    return out


def _even_cells(cells) -> np.ndarray:
    """Which of cells are even in xi: those centred at 0.

    A unit bump is even, so such a cell's factor is, and so is its field
    in x.  Clipped to |xi| <= reach its rule stays symmetric about 0:
    (-reach - 0) / h is exactly -(reach / h).  _cell_matrix folds these
    cells' time tables, and the maximal module folds x_j -> |x_j| on an
    axis whose cells are all even.
    """
    return cells.centres == 0.0


def _cell_matrix(cells, pts: np.ndarray, tv: np.ndarray, decay: np.ndarray,
                 rtol: float) -> np.ndarray:
    """Sum of the cell integrals at every (point, t): a (pts.size, tv.size) matrix.

    pts are one axis's coordinates and cells the axis's Cells.  Each cell
    integrates in its own coordinate u in [-1, 1], xi = c + h u, where
    its weighted unit bump is w _unit_bump(u) du: _plane_phase_sum sums
    the nodes of each rule at xi, with coefficients w _unit_bump(u) times
    the weights.  Per cell and octave of t, the cell is clipped to
    |xi| <= reach, where the octave's dissipation leaves something, and
    its panels start from the octave's worst phase rate in u, h times
    that in xi.  A rule is the clipped interval and starting panels; a
    cell's octaves that need the same rule merge their time columns, and
    every cell whose merged columns need the same rule joins one doubling
    loop, which evaluates its cells at once on the shared nodes u.  The
    panels double until every (cell, time) column is within rtol of its
    largest modulus or the rounding floor of its cell's L1 mass |w|, each
    column keeping the pass where it first was, as in a loop of its own
    cell and octave.  An even cell (_even_cells) folds its time table
    (_plane_phase_sum's even) in a loop of its own.  Each loop's cells
    are added to its columns as the loop returns them.
    """
    out = np.zeros((pts.size, tv.size), dtype=complex)
    x_hi = float(np.max(np.abs(pts)))
    octaves = list(_octaves(tv, decay))
    # per loop, keyed by its rule, columns and evenness: its columns and cells
    loops = {}
    for i, (c, h, even) in enumerate(zip(cells.centres.tolist(), cells.half.tolist(),
                                         _even_cells(cells).tolist())):
        rules = {}
        for cols, reach, t_hi in octaves:
            a, b = max(-1.0, (-reach - c) / h), min(1.0, (reach - c) / h)
            if b <= a:
                continue
            rate = h * (x_hi + 2.0 * t_hi * max(abs(c + h * a), abs(c + h * b)))
            rules.setdefault((a, b, panels_for_rate(a, b, rate)), []).append(cols)
        for rule, octs in rules.items():
            cols = np.concatenate(octs)
            loops.setdefault(rule + (cols.tobytes(), even), (cols, []))[1].append(i)
    for (a, b, panels, _, even), (cols, members) in loops.items():
        c, h, weight = (v[members, None] for v in (cells.centres, cells.half, cells.weight))
        lead = 1j * tv[cols] - decay[cols]

        def evaluate(u, w):
            # (point, cell, time): points lead, so each (cell, time) column converges alone
            return _plane_phase_sum(pts, c + h * u, weight * _unit_bump(u) * w,
                                    lead, even).transpose(1, 0, 2)

        values = double_panels(evaluate, a, b, panels, rtol=rtol, mass=np.abs(weight))
        for m in range(len(members)):
            out[:, cols] += values[:, m]
    return out


def _field_factors(f: SpectrumDescriptor, x: np.ndarray, t: np.ndarray, decay: np.ndarray,
                   rtol: float) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    """The field at points x, shaped (n, d), and times t, as a scale and (matrix, rows) factors.

    The field at point i is the scale times the product over factors of
    row rows[i] of their matrix, multiplied in that order.  decay is each
    time's dissipation t^gamma (zeros for the free evolution).  The
    scale is (2 pi)^{-d}, and there is one factor per axis over that
    axis's distinct coordinates; axes that share a factor object and
    their coordinates share one matrix.
    """
    out, matrices = [], {}
    for axis, cells in enumerate(f.factors_by_axis()):
        coords, rows = np.unique(x[:, axis], return_inverse=True)
        key = id(cells), coords.tobytes()
        if key not in matrices:
            matrices[key] = _cell_matrix(cells, coords, t, decay, rtol)
        out.append((matrices[key], rows))
    return TWO_PI ** -f.dim, out


def _field_grid(f: SpectrumDescriptor, x: np.ndarray, t: np.ndarray,
                decay: np.ndarray, rtol: float) -> np.ndarray:
    """Field values at points x, shaped (n, d), and times t: an (n, t.size) matrix."""
    scale, ((first, rows), *rest) = _field_factors(f, x, t, decay, rtol)
    out = first[rows]
    out *= scale
    for matrix, rows in rest:
        out *= matrix[rows]
    return out


def evaluate_p_gamma(f: SpectrumDescriptor, gamma: float, p: SpaceTimePoint, *,
                     rtol: float = _POINT_RTOL) -> complex:
    """Dissipative evolution: the free phase damped by e^{-t^gamma |xi|^2}.

    The grid engine's 1 x 1 case.
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    x = np.asarray(p.x, dtype=float)
    if x.size != f.dim:
        raise ValueError(f"point dimension {x.size} does not match profile {f.dim}")
    return complex(_field_grid(f, x[None, :], np.array([p.t]), np.array([p.t ** gamma]),
                               rtol)[0, 0])


# ---------------------------------------------------------------------------
# factorized evaluation of the lattice-comb data


def _check_in_box(cp: CounterexampleParams, x: np.ndarray):
    m = cp.model
    x1_lo, slack = cp.x1_lo, 1e-9
    ok = ((x[..., 0] >= x1_lo * (1.0 + slack))
          & (x[..., 0] <= x1_lo / 2.0 * (1.0 - slack)))
    for j in range(1, m.d):
        ok = ok & (np.abs(x[..., j]) <= cp.c1 * (1.0 + slack))
    if not np.all(ok):
        raise ValueError("point outside the admissible spatial box")


def _lattice_phases(cp: CounterexampleParams, xj, t, ells: np.ndarray) -> np.ndarray:
    """e^{i(D l x_j + D^2 l^2 t)}: one row per sample, one column per translate."""
    phase = cp.D * np.outer(xj, ells)
    phase += cp.D ** 2 * np.outer(t, ells * ells)
    return _cis(phase)


# panel order of the translated-bump rule
_FACTOR_ORDER = 64

# Taylor radius and order of a comb summed from its moments: where log z
# moves by at most _RHO about the comb's centre, the Taylor tail is below
# _RHO^(_TAYLOR+1) / (_TAYLOR+1)! < 1e-19 of the coefficients' mass
_RHO = 1.0 / 64.0
_TAYLOR = 7


def _bump_series(x: np.ndarray, lam: np.ndarray, center: float, step: float,
                 scale: float, size: int, known: np.ndarray, moments):
    """The samples whose sum over translates has a closed form, and its values.

    With the Taylor moments M_m = sum_k coef[k] (k - kappa)^m / m! of the
    size translates' coefficients, kappa = (size - 1) / 2, the sum over
    translates of _bump_sum is the integral of
    bump(u) e^{beta u + q u^2} sum_m M_m (alpha u)^m over u, where
    alpha = 2 step lam scale, beta = scale (i x + 2 lam c) at the
    translates' centre c = center + kappa step, and q = lam scale^2.  A
    sample takes it where it has moments, |alpha| kappa <= _RHO (always
    for one translate), and r = |beta| + |q| <= _SERIES_RADIUS.  The
    u-coefficients e_j of e^{beta u + q u^2} come from _series_terms, to
    each sample's own u-degree 2 _series_order(r), whose omitted
    monomials sum on |u| <= 1 to at most the tail at the radius,
    3.5e-20, times sum_m |M_m alpha^m|, which is at most e^_RHO times the
    coefficients' L1 mass.  The value is
    sum_{m,j} M_m alpha^m e_j mu_{m+j} over the bump moments mu, by
    Horner's rule in alpha, which one translate, with M_0 alone, skips.
    known masks the samples that have moments, and the rows of moments
    are their M_m: a comb's _TAYLOR + 1 folded over the modulus
    (_folded_moments), or one translate's coefficient as M_0 alone.
    Returns the mask of the samples that take the closed form and their
    values.  Each sample decides from its own values, its terms past its
    own order are zeros in a row of fixed length, and every step is
    elementwise or a product of its own row, one per moment, so its value
    depends neither on the other samples nor on how many moments they
    carry.
    """
    kappa = (size - 1) / 2.0
    alpha = 2.0 * step * scale * lam
    beta = scale * (1j * x + 2.0 * lam * (center + kappa * step))
    q = lam * (scale * scale)
    r = np.abs(beta) + np.abs(q)
    take = known & (np.abs(alpha) * kappa <= _RHO) & (r <= _SERIES_RADIUS)
    if not take.any():  # a generic one-point call: skip the series' array steps
        return take, np.empty(0, dtype=complex)
    alpha, beta, q, taken = alpha[take], beta[take], q[take], moments[take]
    order = _series_order(r[take])
    # terms[:, 0, j] = e_j up to each sample's own degree 2 order, zero past it
    terms = np.zeros((beta.size, 1, 2 * _SERIES_ORDER + 1), dtype=complex)
    for j, e in zip(range(2 * int(np.max(order)) + 1), _series_terms(beta, q)):
        terms[:, 0, j] = np.where(j <= 2 * order, e, 0.0)
    mu = _bump_moments(1, 2 * _SERIES_ORDER + _TAYLOR).astype(complex)

    def g(m):
        """sum_j e_j mu_{m+j}: one product per row."""
        return (terms @ mu[m:m + terms.shape[2], None])[:, 0, 0]

    width = taken.shape[1]
    out = taken[:, -1] * g(width - 1)
    for m in range(width - 2, -1, -1):
        out *= alpha
        out += taken[:, m] * g(m)
    return take, out


def _folded_moments(cp: CounterexampleParams, q: np.ndarray, a1: np.ndarray,
                    a_rest: np.ndarray, eps: np.ndarray, delta: np.ndarray):
    """Taylor moments of the comb axes' coefficients from the draws' residues.

    At a draw's box preimage at its selected time, translate l of rest
    axis j has the lattice phase 2 pi phi(l) / q + eps_j l modulo 2 pi,
    phi(l) = a1 l^2 + a_j l, as select_time makes D^2 t = 2 pi a1 / q and
    the sampler D x_j = 2 pi a_j / q + eps_j.  In v = (l - lc) / kappa
    about the comb's centre lc = start + kappa, the translate's coefficient
    is e(phi(l) / q) e^{i eps_j lc - delta lc^2} e^{b v + c v^2}, with
    e(y) = e^{2 pi i y}, delta = t^gamma D^2 per sample,
    b = (i eps_j - 2 delta lc) kappa and c = -delta kappa^2.  With h_n the
    coefficients of e^{b v + c v^2} from _series_terms,
    M_m = e^{i eps_j lc - delta lc^2} kappa^m / m! sum_n h_n W_{m+n}, and
    W_p = sum_l e(phi(l) / q) v^p folds over the period:
    sum_{r < q} e(phi(r) / q) S_p(r), S_p(r) the sum of v^p over the comb's
    l = r mod q, binned once per modulus.  A (sample, axis) pair takes it
    where |b| + |c| <= _SERIES_RADIUS, to v-degree 2 _series_order(|b| + |c|),
    so its tail is that of _bump_series.  The phases are exact residues and
    no (sample, translate) table is formed.  The fold is one pass per drawn
    modulus over every (sample, rest axis) pair: one binning, and W once
    per anchor (a1, a_j), to the batch's top order, as one product of the
    bins with that anchor's own phase column.  A pair's series terms past
    its own order are zeros, so the W past it add nothing, and every other
    step is elementwise: a pair's moments do not depend on the other
    samples.  Returns a mask (n, d - 1) of the pairs taken and their
    moments (n, d - 1, _TAYLOR + 1).
    """
    start, stop = comb_range(cp)
    size = stop - start
    kappa = (size - 1) / 2.0
    lc = start + kappa
    b = (1j * eps - (2.0 * lc) * delta[:, None]) * kappa
    c = -delta[:, None] * (kappa * kappa)
    ok = (np.abs(b) + np.abs(c) <= _SERIES_RADIUS) & (size > 1)
    moments = np.zeros(eps.shape + (_TAYLOR + 1,), dtype=complex)
    if not ok.any():
        return ok, moments
    b, c = np.where(ok, b, 0.0), np.where(ok, c, 0.0)
    order = _series_order(np.abs(b) + np.abs(c))
    # w[i, j, p] = W_p of sample i on rest axis j, to the batch's top order
    top = _TAYLOR + 2 * int(np.max(order)) + 1
    w = np.zeros(eps.shape + (top,), dtype=complex)
    ells = np.arange(start, stop)
    powers = ((ells - lc) / kappa) ** np.arange(top)[:, None]
    for mod in _distinct(q[ok.any(axis=1)]).tolist():
        rows, axes = np.nonzero(ok & (q == mod)[:, None])
        res = np.arange(mod)
        # sums[p, r] = S_p(r), one bin per (power, residue)
        bins = (ells % mod + mod * np.arange(top)[:, None]).ravel()
        sums = np.bincount(bins, weights=powers.ravel(), minlength=top * mod)
        sums = sums.reshape(top, mod).astype(complex)
        units = np.exp(1j * (TWO_PI / mod) * res)
        # W once per anchor (a1, a_j): pairs of one anchor share it
        anchors, which = np.unique(a1[rows] * mod + a_rest[rows, axes], return_inverse=True)
        a1u, aju = np.divmod(anchors[:, None], mod)
        phase = (a1u * res * res + aju * res) % mod
        w[rows, axes] = (sums @ units[phase][:, :, None])[which, :, 0]
    for k, h in zip(range(top - _TAYLOR), _series_terms(b, c)):
        h = np.where(k <= 2 * order, h, 0.0)  # each pair to its own order
        moments += h[..., None] * w[..., k:k + _TAYLOR + 1]
    lead = np.exp(1j * lc * eps - (lc * lc) * delta[:, None])
    scale = np.array([kappa ** m / math.factorial(m) for m in range(_TAYLOR + 1)])
    return ok, moments * (lead[..., None] * scale)


def _bump_sum(x: np.ndarray, lam: np.ndarray, center: float, step: float,
              scale: float, coef: np.ndarray, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sums over translates of integrals of the unit bump, by Horner's rule.

    Translate k is centred at eta_k = center + k step and integrates
    bump(u) e^{i x v + lam v (v + 2 eta_k)} over u, at the offset
    v = scale u, weighted by coef[k]; with
    coef[k] = e^{i x eta_k + lam eta_k^2} a term is the integral of
    bump(u) e^{i x eta + lam eta^2} at eta = eta_k + v; a caller that
    drops the centre phase passes e^{-t^gamma eta_k^2} alone.  The sum
    over k is the sum over nodes of F(u) P(z), where z = e^{2 step lam v},
    F = bump w e^{i x v + lam v (v + 2 center)} and
    P(z) = sum_k coef[k] z^k.

    Horner's rule in z runs from the top translate down: L multiply-adds
    per (sample, node), no exponential per translate and no (sample,
    translate, node) array; one translate needs no z table.  The z table
    becomes the final exponent, so a pass holds two (sample, node)
    tables.  The samples run in blocks of _CHUNK / nodes rows, so each
    table holds about _CHUNK entries whatever the sample count; every
    step is per (sample, node) and each row's node sum is its own
    product, so the blocks change no value.
    """
    v = scale * u
    weights = (_unit_bump(u) * w)[:, None]
    shift = v * (v + 2.0 * center)
    out = np.empty(x.size, dtype=complex)
    block = max(1, _CHUNK // u.size)
    for lo in range(0, x.size, block):
        xb, lb, cb = x[lo:lo + block], lam[lo:lo + block], coef[lo:lo + block]
        a = np.multiply.outer(2.0 * step * lb, v)
        poly = np.empty_like(a)
        poly[:] = cb[:, -1:]
        if cb.shape[1] > 1:
            np.exp(a, out=a)  # z
            for col in cb[:, -2::-1].T:
                poly *= a
                poly += col[:, None]
        np.multiply.outer(lb, shift, out=a)
        a.imag += np.outer(xb, v)
        poly *= np.exp(a, out=a)
        # one product per row: BLAS sums a matrix of rows in another
        # order than one row, which would tie a row's value to its batch
        out[lo:lo + block] = (poly[:, None, :] @ weights)[:, 0, 0]
    return out


def _bump_factors(x: np.ndarray, lam: np.ndarray, center: float, step: float,
                  scale: float, coef, size: int, rate: float, rtol: float,
                  known: np.ndarray, moments) -> np.ndarray:
    """_bump_sum values of size translates at paired samples, in closed form or converged.

    coef(rows) builds the (sample, translate) coefficient table of the
    samples rows, an index array.  Each translate's integrand has modulus at most
    the unit bump, so the sum's L1 mass is at most size; that sets the
    rounding floor, and the node budget is shared among the translates.
    Where the damping e^{-t^gamma eta^2} at the support's smallest |eta|
    times that mass leaves the normal doubles, a sample's value is 0, with
    no series and no quadrature, so that a large t neither integrates
    zeros nor overflows _bump_sum's exponents.  Of the other samples, those that _bump_series takes
    get its closed form from their Taylor moments, known and moments as
    _bump_series reads them; the rest run _bump_sum on doubling panels,
    and only they build a table.  Panels start from rate, a bound on the
    phase rate in u.
    """
    low = max(center - scale, -(center + (size - 1) * step + scale), 0.0)
    gone = lam.real * (low * low) < math.log(sys.float_info.min / size)
    panels = panels_for_rate(-1.0, 1.0, rate, _FACTOR_ORDER)
    # rows per table keep the (sample, translate) coefficients near _CHUNK
    # entries; the quadrature rows of one call converge together, so the
    # chunk also fixes the passes and nodes each of them spends.  _bump_sum
    # holds the (sample, node) tables of a pass near _CHUNK entries by row
    # blocks
    chunk = max(1, _CHUNK // size)
    take, values = _bump_series(x, lam, center, step, scale, size, known & ~gone, moments)
    out = np.zeros(x.size, dtype=complex)
    out[take] = values
    for lo in range(0, x.size, chunk):
        rest = lo + np.flatnonzero(~(take | gone)[lo:lo + chunk])
        if rest.size:
            out[rest] = double_panels(
                functools.partial(_bump_sum, x[rest], lam[rest], center, step, scale,
                                  coef(rest)),
                -1.0, 1.0, panels, rtol=rtol, mass=float(size), order=_FACTOR_ORDER,
                max_nodes=MAX_NODES // size)
    return out


def _factorized_batch(cp: CounterexampleParams, x: np.ndarray, t: np.ndarray, *,
                      rtol: float = 1e-9, gamma_eval: float | None = None,
                      residues=None):
    """Factor arrays for many points: (i1, ij matrix, modulus product).

    The window is one translate of width sqrt(R) at R^{gamma/2}, its
    centre phase dropped, and its coefficient is its one moment.  Each
    comb axis sums the lattice translates with their lattice phases.
    Resonant points take the closed form; for the others panel counts
    start from the worst-case phase rate over the batch and double until
    the factor values stabilize, to rtol of the batch maximum or to the
    rounding floor of the integrand's L1 mass (one for the unit-mass
    window).

    residues, where given, is (q, a1, a_rest, eps) of draws whose box
    preimages at their selected times are the points, as sample_omega_star
    records them.  The comb axes take their Taylor moments only from these
    exact residues, folded over the modulus (_folded_moments), and build no
    lattice-phase table for the samples that take them.  A comb sample
    without them, as at generic points, runs quadrature on the lattice
    phases formed from x and t.
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
    band = cp.band
    root_r = math.sqrt(m.R)
    t_max = float(np.max(t, initial=0.0))
    decay = t ** (m.gamma if gamma_eval is None else gamma_eval)
    lam = 1j * t - decay

    rate1 = float(np.max(np.abs(root_r * (x[:, 0] + 2.0 * band * t)), initial=0.0)
                  ) + 2.0 * m.R * t_max
    m0 = np.exp(-decay * band ** 2)[:, None]
    i1 = _bump_factors(x[:, 0], lam, band, 0.0, root_r, lambda rows: m0[rows],
                       1, rate1, rtol, np.ones(t.size, dtype=bool), m0)

    def lattice(xj, rows):
        table = _lattice_phases(cp, xj[rows], t[rows], ells)
        damp = np.outer(-decay[rows], cp.D ** 2 * ells * ells)
        table *= np.exp(damp, out=damp)
        return table

    if residues is None:
        known = np.zeros((t.size, m.d - 1), dtype=bool)
        moments = np.zeros(known.shape + (_TAYLOR + 1,), dtype=complex)
    else:
        known, moments = _folded_moments(cp, *residues, decay * cp.D ** 2)
    # a comb axis's phase rate in u is at most |x_j| + 2 D t (max ell + 1) + 2 t
    drift = 2.0 * cp.D * t_max * stop
    ij = np.stack([
        _bump_factors(x[:, j], lam, cp.D * start, cp.D, 1.0, functools.partial(lattice, x[:, j]),
                      ells.size, float(np.max(np.abs(x[:, j]), initial=0.0)) + drift + 2.0 * t_max,
                      rtol, known[:, j - 1], moments[:, j - 1])
        for j in range(1, m.d)], axis=1)
    modulus = np.abs(i1) * np.prod(np.abs(ij), axis=1)
    return i1, ij, modulus


def factorized_evaluate(cp: CounterexampleParams, p: SpaceTimePoint, *,
                        gamma_eval: float | None = None) -> FactorizedEvaluation:
    """Product-form evaluation of the comb data's evolution at one point.

    The product of the factor moduli equals (2 pi)^d times the modulus
    of the direct evolution; a global phase on the first axis is
    dropped.
    """
    x = np.asarray(p.x, dtype=float)
    if x.size != cp.model.d:
        raise ValueError(f"point dimension {x.size} does not match d={cp.model.d}")
    i1, ij, modulus = _factorized_batch(cp, x[None, :], np.array([p.t]),
                                        rtol=_POINT_RTOL, gamma_eval=gamma_eval)
    return FactorizedEvaluation(i1=complex(i1[0]), ij=tuple(complex(v) for v in ij[0]),
                                product_modulus=float(modulus[0]))

