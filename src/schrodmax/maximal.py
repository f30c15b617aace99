"""Time-suprema, ball norms, and scaling-exponent sweeps.

The field is sampled on hybrid time grids and midpoint space grids,
refined by golden-section passes around each grid argmax, and reduced
to log-log slopes against the predicted exponents.  Field values come
from the direct engine in the propagator module: on the space grid,
separable profiles as outer products of per-axis moduli and radial
ones on their distinct radii, both through one supremum loop.
"""

import math
from dataclasses import dataclass

import numpy as np

from .profiles import AnnulusBump, Modulated, SpectrumDescriptor, l2_norm
from .propagator import (
    _DECAY_CUTOFF,
    TWO_PI,
    _axis_values,
    _decay,
    _field_points,
    _radial_values,
)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing sample times in (0, 1], with a rule label."""

    points: tuple[float, ...]
    rule: str = "explicit"

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
        """
        if R < 1.0 or not 0.0 < t_max <= 1.0:
            raise ValueError("need R >= 1 and t_max in (0, 1]")
        knee = min(R ** -2.0, t_max)
        geo = knee * 2.0 ** -np.arange(geometric - 1, -1, -1, dtype=float)
        n_uni = int(math.floor((t_max - knee) / (knee / 4.0)))
        n_uni = min(n_uni, max(cap - geometric, 0))
        uni = knee + (t_max - knee) * (np.arange(1, n_uni + 1) / max(n_uni, 1))
        pts = np.unique(np.concatenate([geo, uni]))
        return cls(points=tuple(float(t) for t in pts),
                   rule=f"hybrid geometric={geometric} knee={knee:g}")


@dataclass(frozen=True)
class SpaceGrid:
    """Midpoint grid on [-radius, radius]^d restricted to the ball."""

    radius: float = 1.0
    per_axis: int = 128

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ValueError("radius must be positive")
        if self.per_axis < 1:
            raise ValueError("per_axis must be >= 1")

    def axis_points(self) -> np.ndarray:
        step = 2.0 * self.radius / self.per_axis
        return -self.radius + (np.arange(self.per_axis) + 0.5) * step

    def cell_volume(self, d: int) -> float:
        return (2.0 * self.radius / self.per_axis) ** d


# ---------------------------------------------------------------------------
# suprema


def _golden_refine(eval_fn, a: np.ndarray, b: np.ndarray, iters: int) -> np.ndarray:
    """Vectorized golden-section maximization of eval_fn on [a, b] per row."""
    a = np.asarray(a, dtype=float).copy()
    b = np.asarray(b, dtype=float).copy()
    x1 = a + _INVPHI2 * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1 = eval_fn(x1)
    f2 = eval_fn(x2)
    for _ in range(iters):
        take = f1 > f2
        b = np.where(take, x2, b)
        a = np.where(take, a, x1)
        h = b - a
        cand1 = a + _INVPHI2 * h
        cand2 = a + _INVPHI * h
        probe = np.where(take, cand1, cand2)
        fp = eval_fn(probe)
        x1, x2, f1, f2 = (np.where(take, cand1, x2),
                          np.where(take, x1, cand2),
                          np.where(take, fp, f2),
                          np.where(take, f1, fp))
    return np.maximum(f1, f2)


def _refine_bracket(field_fn, ts: np.ndarray, sup: np.ndarray, arg: np.ndarray,
                    iters: int) -> np.ndarray:
    """Golden-polish each sample between the grid neighbours of its argmax time."""
    a = ts[np.maximum(arg - 1, 0)]
    b = ts[np.minimum(arg + 1, ts.size - 1)]
    return np.maximum(sup, _golden_refine(field_fn, a, b, iters))


def sup_over_time(f: SpectrumDescriptor, gamma: float, x, tg: TimeGrid, *,
                  rtol: float = 1e-8, golden_iters: int = 30) -> float:
    """Grid maximum of the evolved field modulus, golden-refined in time."""
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    xv = np.asarray(x, dtype=float).reshape(1, -1)
    if xv.shape[1] != f.dim:
        raise ValueError("x dimension mismatch")
    ts = np.asarray(tg.points, dtype=float)

    def field_fn(tq):
        return np.abs(_field_points(f, xv.repeat(tq.size, axis=0), tq,
                                    _decay(tq, gamma), rtol))

    vals = field_fn(ts)
    if ts.size == 1:
        return float(vals[0])
    best = int(np.argmax(vals))
    return float(_refine_bracket(field_fn, ts, vals[[best]], np.array([best]),
                                 golden_iters)[0])


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


def _outer_product(vectors: list[np.ndarray]) -> np.ndarray:
    out = vectors[0]
    for v in vectors[1:]:
        out = np.multiply.outer(out, v)
    return out


def _sup_field(base: SpectrumDescriptor, shift: np.ndarray, gamma: float,
               tg: TimeGrid, sg: SpaceGrid, rtol: float,
               golden_iters: int) -> np.ndarray:
    """Time-sup of |field| on the space grid for the base profile moved by shift.

    The field is reduced to samples whose moduli at one time come from
    one engine call: the grid points of a separable profile, as an outer
    product of per-axis moduli, or the distinct radii of a radial one.
    """
    pts = sg.axis_points()
    d = base.dim
    axes = [pts + s for s in shift]
    mesh = np.meshgrid(*axes, indexing="ij")
    if isinstance(base, AnnulusBump):
        radii, cell_sample = np.unique(
            np.round(np.sqrt(sum(g * g for g in mesh)).ravel(), 14),
            return_inverse=True)
        n = radii.size

        def field_fn(tq):
            return np.abs(_radial_values(base, radii, tq, _decay(tq, gamma), rtol))

        def moduli_at(t):
            return field_fn(np.full(radii.size, t))
    else:
        coords = np.stack([g.ravel() for g in mesh], axis=-1)
        n = coords.shape[0]
        cell_sample = np.arange(n)

        def field_fn(tq):
            return np.abs(_field_points(base, coords, tq, _decay(tq, gamma), rtol))

        def moduli_at(t):
            tv = np.full(pts.size, t)
            mods = [np.abs(_axis_values(base, a, axes[a], tv, _decay(tv, gamma), rtol))
                    for a in range(d)]
            return (TWO_PI ** -d * _outer_product(mods)).ravel()

    sup = np.zeros(n)
    arg = np.zeros(n, dtype=np.int64)
    lo_support = base.support_radii()[0]
    for k, t in enumerate(tg.points):
        decay = t ** gamma if t > 0.0 else 0.0
        if decay > 0.0 and _DECAY_CUTOFF / decay < lo_support ** 2:
            continue
        vals = moduli_at(t)
        better = vals > sup
        sup = np.where(better, vals, sup)
        arg = np.where(better, k, arg)
    sup = _refine_bracket(field_fn, np.asarray(tg.points), sup, arg, golden_iters)
    return sup[cell_sample].reshape((sg.per_axis,) * d)


def maximal_ratio(f: SpectrumDescriptor, gamma: float, grids, *,
                  rtol: float = 1e-8, golden_iters: int = 30) -> float:
    """Ball L2 norm of the time-sup field divided by the data L2 norm."""
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    tg, sg = grids
    denom = l2_norm(f)
    if denom <= 0.0:
        raise ValueError("profile has zero norm")
    base = f
    shift = np.zeros(f.dim)
    while isinstance(base, Modulated):
        shift = shift + base.shift
        base = base.base
    if not isinstance(base, AnnulusBump) and base.axis_cells() is None:
        raise ValueError(f"descriptor kind {base.kind!r} is not evaluable")
    sup_field = _sup_field(base, shift, gamma, tg, sg, rtol, golden_iters)
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


def lemma1_bound(R: float, J_len: float, eps: float, d: int = 2) -> float:
    """Sup-count bound for a time interval of length J_len at scale R."""
    if R < 1.0:
        raise ValueError("R must be >= 1")
    if not 0.0 < J_len <= 1.0:
        raise ValueError("J_len must lie in (0, 1]")
    if J_len <= 1.0 / R:
        return 1.0 + R ** (d / (d + 1.0) + eps) * J_len ** (d / (2.0 * (d + 1)))
    return R ** (d / (2.0 * (d + 1)) + eps)


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


def _sweep_task(task):
    """Evaluate one sweep entry; returns a tagged result so pools can run it."""
    f, gamma, g, ratio_fn, rtol = task
    try:
        ratio = float(ratio_fn(f, gamma, g) if ratio_fn is not None
                      else maximal_ratio(f, gamma, g, rtol=rtol))
    except Exception as exc:
        return "err", f"{type(exc).__name__}: {exc}"
    return "ok", ratio


def exponent_sweep(family, gamma: float, ladder, grids, *, ratio_fn=None,
                   extremal: bool = False, rtol: float = 1e-8,
                   map_fn=map) -> ScalingReport:
    """Fit the maximal-ratio growth exponent over a geometric R ladder.

    family maps R to a descriptor; grids is a (TimeGrid, SpaceGrid) pair
    or a callable R -> pair; ratio_fn overrides maximal_ratio for
    families evaluated by another pipeline.  extremal families must
    reach the target from above (slope >= target - 0.1), the rest stay
    below (slope <= target + 0.1).  map_fn may be a pool's map; results
    merge in ladder order either way.
    """
    ladder = sorted(float(R) for R in ladder)
    if len(ladder) < 4:
        raise ValueError("ladder needs at least 4 entries")
    steps = np.diff(np.log(ladder))
    if np.max(np.abs(steps - steps[0])) > 1e-6 * abs(steps[0]):
        raise ValueError("ladder must be geometric")
    probe = family(ladder[0])
    target = theoretical_exponent(probe.dim, gamma)
    tasks, metas = [], []
    for R in ladder:
        f = family(R)
        g = grids(R) if callable(grids) else grids
        if ratio_fn is not None:
            metas.append("external-ratio")
        else:
            tg, sg = g
            metas.append(f"time={tg.count} space={sg.per_axis}^{f.dim}")
        tasks.append((f, gamma, g, ratio_fn, rtol))
    entries = []
    for R, meta, (status, payload) in zip(ladder, metas,
                                          map_fn(_sweep_task, tasks)):
        if status == "err":
            raise SweepError(f"ladder entry R={R:g} failed: {payload}",
                             _partial_report(entries, target))
        if not payload > 0.0:
            raise SweepError(f"ladder entry R={R:g} returned ratio {payload:g}",
                             _partial_report(entries, target))
        entries.append((R, payload, meta))
    slope, stderr = fit_loglog([e[0] for e in entries], [e[1] for e in entries])
    verdict = slope >= target - 0.1 if extremal else slope <= target + 0.1
    return ScalingReport(entries=tuple(entries), fitted_slope=slope,
                         slope_stderr=stderr, target=target, verdict=verdict)
