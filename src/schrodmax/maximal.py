"""Time-suprema, ball norms, and scaling-exponent sweeps.

The field is sampled on hybrid time grids and midpoint space grids.
The propagator's grid engine gives one moduli matrix per axis over that
axis's grid coordinates and the times (or one over the distinct radii
of radial data); the supremum over time is taken from their outer
product and refined on _REFINE-fold sub-times of the two grid intervals
beside each distinct argmax time.  sup_over_time is the same code at
one point.  Ratios over frequency ladders are reduced to log-log slopes
against the predicted exponents.
"""

import math
from dataclasses import dataclass

import numpy as np

from .profiles import AnnulusBump, Modulated, SpectrumDescriptor, l2_norm
from .propagator import _CHUNK, _DECAY_CUTOFF, TWO_PI, _axis_matrix, _decay, _radial_matrix


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

# sub-intervals per grid interval on either side of an argmax time
_REFINE = 8

# times per engine call in a supremum; whole-grid calls raised the peak
# memory of a 32^2-point sweep by about 5 MB at no gain in speed
_TIMES = 512


def _unwrap(f: SpectrumDescriptor) -> tuple[SpectrumDescriptor, np.ndarray]:
    """Base profile and total spatial shift of nested modulations."""
    shift = np.zeros(f.dim)
    while isinstance(f, Modulated):
        shift = shift + f.shift
        f = f.base
    if not isinstance(f, AnnulusBump) and f.axis_cells() is None:
        raise ValueError(f"descriptor kind {f.kind!r} is not evaluable")
    return f, shift


def _column_max(moduli, ts: np.ndarray, rows: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Max and first argmax over ts of the outer product of per-axis moduli.

    moduli(times) gives one matrix per axis, rows[a] samples by the times;
    result row i is the flat (C-order) index i of their outer product.
    """
    n = math.prod(rows)
    sup = np.zeros(n)
    arg = np.zeros(n, dtype=np.int64)
    step = max(1, _CHUNK // n)
    for start in range(0, ts.size, _TIMES):
        mods = moduli(ts[start:start + _TIMES])
        for at in range(0, mods[0].shape[1], step):
            block = mods[0][:, at:at + step]
            for m in mods[1:]:
                block = (block[:, None] * m[:, at:at + step]).reshape(-1, block.shape[1])
            k = np.argmax(block, axis=1)
            vals = block[np.arange(n), k]
            better = vals > sup
            sup = np.where(better, vals, sup)
            arg = np.where(better, start + at + k, arg)
    return sup, arg


def _sup_field(base: SpectrumDescriptor, axes: list[np.ndarray], gamma: float,
               tg: TimeGrid, rtol: float) -> np.ndarray:
    """Time-sup of |field| on the grid spanned by per-axis coordinates.

    Moduli come from the grid engine as one matrix per axis (separable
    data, the grid being their outer product) or one over the distinct
    radii (radial data).  Times past the dissipation cutoff of the
    support are skipped.  Each sample's grid maximum is then raised to
    its maximum over the _REFINE-fold sub-times of the two grid
    intervals beside every distinct argmax time.
    """
    samples = slice(None)
    if isinstance(base, AnnulusBump):
        mesh = np.meshgrid(*axes, indexing="ij")
        radii, samples = np.unique(
            np.round(np.sqrt(sum(g * g for g in mesh)).ravel(), 14),
            return_inverse=True)
        rows = [radii.size]

        def moduli(tq):
            return [np.abs(_radial_matrix(base, radii, tq, _decay(tq, gamma), rtol))]
    else:
        rows = [a.size for a in axes]

        def moduli(tq):
            decay = _decay(tq, gamma)
            mods = [np.abs(_axis_matrix(base, a, xa, tq, decay, rtol))
                    for a, xa in enumerate(axes)]
            mods[0] *= TWO_PI ** -base.dim
            return mods

    ts = np.asarray(tg.points, dtype=float)
    lo_support = base.support_radii()[0]
    live = int(np.count_nonzero(_decay(ts, gamma) * lo_support ** 2 <= _DECAY_CUTOFF))
    sup, arg = _column_max(moduli, ts[:live], rows)
    near = ts[np.clip(np.unique(arg)[:, None] + np.arange(-1, 2), 0, ts.size - 1)]
    frac = np.arange(1, _REFINE) / _REFINE
    sub = near[:, :2, None] + np.diff(near, axis=1)[:, :, None] * frac
    sup = np.maximum(sup, _column_max(moduli, np.unique(sub), rows)[0])
    return sup[samples].reshape(tuple(a.size for a in axes))


def sup_over_time(f: SpectrumDescriptor, gamma: float, x, tg: TimeGrid, *,
                  rtol: float = 1e-8) -> float:
    """Grid maximum of the evolved field modulus, refined in time near its argmax."""
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    xv = np.asarray(x, dtype=float).ravel()
    if xv.size != f.dim:
        raise ValueError("x dimension mismatch")
    base, shift = _unwrap(f)
    return _sup_field(base, [np.array([v]) for v in xv + shift], gamma, tg, rtol).item()


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
    base, shift = _unwrap(f)
    pts = sg.axis_points()
    sup_field = _sup_field(base, [pts + s for s in shift], gamma, tg, rtol)
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
