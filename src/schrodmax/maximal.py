"""Time-suprema, ball norms, and scaling-exponent sweeps.

The field is sampled on hybrid time grids and midpoint space grids.
The moduli come from the propagator's field factors at the grid points,
whatever the data family: the modulus at a point is the product of one
row of each factor, multiplied out one block of times at a time.  On an
axis whose cells are all centred at 0 the data are even, and so are the
field and its supremum, so the points fold to |x_j| there and each
distinct folded point is evaluated and maximised once (every axis of
the product bump; the comb and an off-centre plane wave fold none).  The
supremum over time is refined on _REFINE-fold sub-times of the two grid
intervals beside each distinct argmax time.  sup_over_time is the same
code at one point.  Ratios over frequency ladders are reduced to
log-log slopes against the predicted exponents.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .profiles import SpectrumDescriptor, l2_norm, support_annulus
from .propagator import _DECAY_CUTOFF, _distinct, _even_cells, _field_factors
from .quadrature import table_blocks


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing sample times in [0, 1]."""

    points: tuple[float, ...]

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.size < 1:
            raise ValueError("grid needs at least one time")
        if not np.all(np.isfinite(pts)):
            raise ValueError("times must be finite")
        if np.any(np.diff(pts) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if pts[0] < 0.0 or pts[-1] > 1.0:
            raise ValueError("times must lie in [0, 1]")

    @property
    def count(self) -> int:
        return len(self.points)

    @property
    def t_min(self) -> float:
        return self.points[0]

    @property
    def t_max(self) -> float:
        return self.points[-1]

    @classmethod
    def hybrid(cls, R: float, *, t_max: float = 1.0, geometric: int = 64,
               cap: int = 1 << 14) -> "TimeGrid":
        """Geometric points in (0, R^-2] then uniform spacing R^-2/4 up to t_max.

        The uniform part is thinned to keep the total at or below cap.
        Raises ValueError where cap holds fewer than the geometric times or
        leaves none of the uniform ones to reach t_max, and once
        the smallest geometric time or the step R^-2/4 leaves the normal
        doubles (R > 2^479 at 64 geometric times), where times turn
        subnormal, merge at 0 or the step count overflows.
        """
        if R < 1.0 or not 0.0 < t_max <= 1.0:
            raise ValueError("need R >= 1 and t_max in (0, 1]")
        knee = min(R ** -2.0, t_max)
        if cap < geometric:
            raise ValueError(f"cap={cap} holds fewer than the {geometric} geometric times")
        if cap == geometric and knee < t_max:
            raise ValueError(f"cap={cap} leaves no uniform time past R^-2 to reach "
                             f"t_max={t_max:g}")
        if min(knee * 2.0 ** -(geometric - 1), knee / 4.0) < sys.float_info.min:
            raise ValueError(f"R={R:g} too large: the smallest time underflows")
        geo = knee * 2.0 ** -np.arange(geometric - 1, -1, -1, dtype=float)
        n_uni = int(math.floor((t_max - knee) / (knee / 4.0)))
        # past the knee at least t_max itself, however close it lies
        n_uni = min(max(n_uni, int(knee < t_max)), cap - geometric)
        uni = knee + (t_max - knee) * (np.arange(1, n_uni + 1) / max(n_uni, 1))
        pts = _distinct(np.concatenate([geo, uni]))
        return cls(points=tuple(float(t) for t in pts))


@dataclass(frozen=True)
class SpaceGrid:
    """Midpoint grid on [-radius, radius]^d restricted to the ball."""

    radius: float = 1.0
    per_axis: int = 128

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError("radius must be finite and positive")
        if self.per_axis < 1:
            raise ValueError("per_axis must be >= 1")

    def axis_points(self) -> np.ndarray:
        step = 2.0 * self.radius / self.per_axis
        return -self.radius + (np.arange(self.per_axis) + 0.5) * step

    def cell_volume(self, d: int) -> float:
        return (2.0 * self.radius / self.per_axis) ** d


# ---------------------------------------------------------------------------
# suprema

# sub-intervals per grid interval on either side of an argmax time
_REFINE = 8

# times per engine call in a supremum; whole-grid calls raised the peak
# memory of a 32^2-point sweep by about 5 MB at no gain in speed
_TIMES = 512


def _column_max(moduli, ts: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Max and first argmax over ts of the field modulus at n points.

    moduli(times) gives a scale and (modulus matrix, rows) factors: the
    modulus at point i is the scale times the product over factors of
    row rows[i] of their matrix, multiplied in that order.
    """
    sup = np.zeros(n)
    arg = np.zeros(n, dtype=np.int64)
    for start in range(0, ts.size, _TIMES):
        scale, ((first, rows), *rest) = moduli(ts[start:start + _TIMES])
        for cols in table_blocks(first.shape[1], n):
            block = np.take(first[:, cols], rows, axis=0)
            block *= scale
            for m, r in rest:
                block *= np.take(m[:, cols], r, axis=0)
            k = np.argmax(block, axis=1)
            vals = block[np.arange(n), k]
            better = vals > sup
            sup = np.where(better, vals, sup)
            arg = np.where(better, start + cols.start + k, arg)
    return sup, arg


def _sup_field(f: SpectrumDescriptor, x: np.ndarray, gamma: float, tg: TimeGrid,
               rtol: float) -> np.ndarray:
    """Time-sup of |field| at the finite points x, shaped (n, d).

    On every even axis (one whose cells _even_cells finds all even) the
    points fold to |x_j|, and the sup is taken once per distinct folded
    point and scattered back: data with no even axis fold nothing.
    Moduli come from the grid engine's field factors, one modulus
    matrix per distinct field matrix.  Times past the dissipation cutoff
    of the support are skipped.  Each point's grid maximum is then
    raised to its maximum over the _REFINE-fold sub-times of the two
    grid intervals beside every distinct argmax time.
    """
    axes = f.factors_by_axis()
    even = [_even_cells(cells).all() for cells in axes]
    x, back = np.unique(np.where(even, np.abs(x), x), axis=0, return_inverse=True)

    def moduli(tq):
        scale, facs = _field_factors(f, x, tq, tq ** gamma, rtol)
        mods = {id(m): np.abs(m) for m, _ in facs}
        return scale, [(mods[id(m)], rows) for m, rows in facs]

    ts = np.asarray(tg.points, dtype=float)
    lo_support = support_annulus(axes)[0]
    live = int(np.count_nonzero(ts ** gamma * lo_support ** 2 <= _DECAY_CUTOFF))
    sup, arg = _column_max(moduli, ts[:live], x.shape[0])
    near = ts[np.clip(_distinct(arg)[:, None] + np.arange(-1, 2), 0, ts.size - 1)]
    frac = np.arange(1, _REFINE) / _REFINE
    sub = near[:, :2, None] + np.diff(near, axis=1)[:, :, None] * frac
    sup = np.maximum(sup, _column_max(moduli, _distinct(sub), x.shape[0])[0])
    return sup[back]


def sup_over_time(f: SpectrumDescriptor, gamma: float, x, tg: TimeGrid, *,
                  rtol: float = 1e-8) -> float:
    """Grid maximum of the evolved field modulus, refined in time near its argmax."""
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    xv = np.asarray(x, dtype=float).ravel()
    if xv.size != f.dim:
        raise ValueError("x dimension mismatch")
    if not np.all(np.isfinite(xv)):
        raise ValueError("x must be finite")
    return _sup_field(f, xv[None, :], gamma, tg, rtol).item()


def l2_ball_norm(values, grid: SpaceGrid) -> float:
    """Midpoint-rule L2 norm over the ball from complete grid samples."""
    values = np.asarray(values)
    d = values.ndim
    if values.shape != (grid.per_axis,) * d:
        raise ValueError("incomplete field: sample shape does not match the grid")
    if not np.all(np.isfinite(values)):
        raise ValueError("incomplete field: non-finite samples")
    pts = grid.axis_points()
    mesh = np.meshgrid(*([pts] * d), indexing="ij")
    inside = sum(g * g for g in mesh) <= grid.radius ** 2
    total = float(np.sum(np.abs(values[inside]) ** 2)) * grid.cell_volume(d)
    return math.sqrt(total)


def maximal_ratio(f: SpectrumDescriptor, gamma: float, grids, *,
                  rtol: float = 1e-8) -> float:
    """Ball L2 norm of the time-sup field divided by the data L2 norm."""
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    tg, sg = grids
    denom = l2_norm(f)
    if denom <= 0.0:
        raise ValueError("profile has zero norm")
    mesh = np.meshgrid(*([sg.axis_points()] * f.dim), indexing="ij")
    x = np.stack([g.ravel() for g in mesh], axis=1)
    sup_field = _sup_field(f, x, gamma, tg, rtol).reshape(mesh[0].shape)
    return l2_ball_norm(sup_field, sg) / denom


# ---------------------------------------------------------------------------
# exponents and sweeps


def theoretical_exponent(d: int, gamma: float) -> float:
    """Predicted growth exponent of the maximal ratio in R."""
    if not (isinstance(d, int) and d >= 1):
        raise ValueError("d must be an integer >= 1")
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    return min(d / (2.0 * (d + 1)), (d / (d + 1)) * max(1.0 - 1.0 / gamma, 0.0))


@dataclass(frozen=True)
class ScalingReport:
    """Ladder entries and the fitted log-log slope against a target."""

    entries: tuple[tuple[float, float, str], ...]
    fitted_slope: float
    slope_stderr: float
    target: float
    verdict: bool


class SweepError(RuntimeError):
    """A ladder entry failed; carries the partial report."""

    def __init__(self, message: str, partial: ScalingReport):
        super().__init__(message)
        self.partial = partial


def fit_loglog(xs, ys) -> tuple[float, float]:
    """Least-squares slope and its standard error in log-log coordinates."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    if lx.size < 2:
        raise ValueError("need at least two points to fit")
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    denom = float(np.sum((lx - lx.mean()) ** 2))
    dof = max(lx.size - 2, 1)
    stderr = math.sqrt(float(np.sum(resid ** 2)) / dof / denom)
    return float(slope), stderr


def _partial_report(entries, target: float) -> ScalingReport:
    return ScalingReport(entries=tuple(entries), fitted_slope=math.nan,
                         slope_stderr=math.nan, target=target, verdict=False)


def check_ladder(scales) -> None:
    """Raise ValueError unless scales is a geometric ladder of 4 or more.

    The first scale must be at least 1, the scales increasing, and every
    log step equal to the first to 1e-6 of it.
    """
    rs = [float(R) for R in scales]
    if len(rs) < 4:
        raise ValueError("ladder needs at least 4 entries")
    if not rs[0] >= 1.0:
        raise ValueError("R must be >= 1")
    if not all(b > a for a, b in zip(rs, rs[1:])):
        raise ValueError("ladder must be increasing")
    steps = np.diff(np.log(rs))
    if not np.max(np.abs(steps - steps[0])) <= 1e-6 * steps[0]:
        raise ValueError("ladder must be geometric")


def _sweep_task(task):
    """Build one sweep entry's grids and evaluate it; returns a tagged result
    so pools can run it, the ratio with a description of the grids."""
    f, gamma, grids, R = task
    try:
        tg, sg = grids(R)
        ratio = float(maximal_ratio(f, gamma, (tg, sg)))
    except Exception as exc:
        return "err", f"{type(exc).__name__}: {exc}"
    return "ok", (ratio, f"time={tg.count} space={sg.per_axis}^{f.dim}")


def exponent_sweep(family, gamma: float, ladder, grids, *,
                   map_fn=map) -> ScalingReport:
    """Fit the maximal-ratio growth exponent over a geometric R ladder.

    family maps R to a descriptor and grids maps R to a (TimeGrid,
    SpaceGrid) pair.  The verdict holds when the slope stays below the
    target (slope <= target + 0.1).  map_fn may be a pool's map; results
    merge in ladder order either way.
    """
    ladder = sorted(float(R) for R in ladder)
    check_ladder(ladder)
    tasks = [(family(R), gamma, grids, R) for R in ladder]
    target = theoretical_exponent(tasks[0][0].dim, gamma)
    entries = []
    for R, (status, payload) in zip(ladder, map_fn(_sweep_task, tasks)):
        if status == "err":
            raise SweepError(f"ladder entry R={R:g} failed: {payload}",
                             _partial_report(entries, target))
        ratio, meta = payload
        if not ratio > 0.0:
            raise SweepError(f"ladder entry R={R:g} returned ratio {ratio:g}",
                             _partial_report(entries, target))
        entries.append((R, ratio, meta))
    slope, stderr = fit_loglog([e[0] for e in entries], [e[1] for e in entries])
    return ScalingReport(entries=tuple(entries), fitted_slope=slope,
                         slope_stderr=stderr, target=target,
                         verdict=slope <= target + 0.1)
