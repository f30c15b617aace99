"""Resonant lower-bound machinery on the frequency torus.

Rational anchors pick out times where the dispersive phase aligns with
a quadratic Gauss sum; cells around the anchors are sampled, pulled
back to a spatial box, and the evolved field is evaluated there through
the factorized path.  Measures, error budgets, and scaling fits follow.

Anchors are positions in one enumeration order (`_anchor_pairs`), decoded
with integer arithmetic: the sampler never lists them, and the anchor and
in-window counts are closed-form sums over the (q, a1) pairs.  The draws
stay one record of arrays (`OmegaStarDraws`) from the sampler to the
ladder record.  The record keeps each draw's anchor residues and its
offsets within the anchor's cell as drawn, and a ladder entry hands them
to the factorized engine, which takes each comb axis's lattice phases
from these exact residues instead of from the float point and time.
The calibration's complete comb sums are integer residues too, summed by
the Weyl window kernel (`numbertheory._window_sums`).  Per-draw
computations (`select_time`, `error_budget`, `omega_star_measure`) take
the record and return arrays; a single draw is the one-row slice
draws[i:i + 1].  Iterating the record yields
OmegaStarSample rows (y, x, weight), built on demand; that slim row view
stays because the benchmark harness (`perfbench`) still reads the draws
row by row, and a ladder entry builds none.
"""

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np
from numpy.random import SeedSequence, default_rng

from .maximal import check_ladder, fit_loglog
from .numbertheory import PreconditionError, _window_sums, totient
from .profiles import (
    Case3Counterexample,
    CounterexampleParams,
    ModelParams,
    comb_range,
    sobolev_norm,
)
from .propagator import _factorized_batch

TWO_PI = 2.0 * math.pi


def _wrap(x):
    """Reduce to the symmetric interval around zero."""
    x = np.asarray(x, dtype=float)
    out = x - TWO_PI * np.round(x / TWO_PI)
    return out if out.ndim else float(out)


class ExperimentError(RuntimeError):
    """The ladder lost too many entries, or one failed; carries the aborts so far."""

    def __init__(self, message: str, aborted: tuple):
        super().__init__(message)
        self.aborted = aborted


# ---------------------------------------------------------------------------
# anchors and draws


@dataclass(frozen=True)
class OmegaStarSample:
    """One row of the draws: torus point, box preimage, importance weight.

    x is None when the draw has no preimage inside the box; the weight
    is then zero and the sample still counts toward measure estimates.
    """

    y: tuple[float, ...]
    x: tuple[float, ...] | None
    weight: float


@dataclass(frozen=True, eq=False)
class OmegaStarDraws:
    """The draws of `sample_omega_star` as arrays, one row per draw.

    q, a1 and a_rest (n, d-1) are the drawn anchor's residues and eps
    (n, d-1) each rest coordinate's offset from its residue, A_j U as
    drawn, so that y_j = 2 pi a_j / q + eps_j; with these integers and
    offsets the factorized engine forms each comb translate's phase
    exactly.  y (n, d) is the torus point, x (n, d) its box preimage (NaN
    where valid is False) and weight the importance weight (zero where
    valid is False).

    A slice, a boolean mask or an index array selects rows and gives a
    record again; a single integer is refused, as it would drop the row
    axis.  Iteration yields OmegaStarSample rows, built on demand.
    """

    q: np.ndarray
    a1: np.ndarray
    a_rest: np.ndarray
    eps: np.ndarray
    y: np.ndarray
    x: np.ndarray
    valid: np.ndarray
    weight: np.ndarray

    def __len__(self) -> int:
        return self.weight.size

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            raise TypeError(f"draws[{key}]: select rows with a slice or a boolean mask")
        return OmegaStarDraws(**{f.name: getattr(self, f.name)[key] for f in fields(self)})

    def __iter__(self):
        rows = zip(self.y.tolist(), self.x.tolist(), self.valid.tolist(),
                   self.weight.tolist())
        return (OmegaStarSample(y=tuple(yv), x=tuple(xv) if ok else None, weight=w)
                for yv, xv, ok, w in rows)


def _half_widths(cp: CounterexampleParams) -> tuple[float, float]:
    Q = cp.Q
    d = cp.model.d
    A1 = math.pi * cp.c3 / (4.0 * Q)
    Aj = math.pi * cp.c4 / (cp.mu0 * Q ** (d / (d - 1.0)))
    return A1, Aj


def _admissible_moduli(cp: CounterexampleParams) -> tuple[int, ...]:
    Q = cp.Q
    lo = 4.0 * cp.mu0 * Q
    mods = tuple(4 * k for k in range(1, int(math.floor(Q)) + 1) if 4 * k >= lo)
    if not mods:
        raise PreconditionError("no modulus is admissible at this scale")
    return mods


def _anchor_pairs(cp: CounterexampleParams):
    """The one anchor enumeration order, as arrays over its (q, a1) pairs.

    Anchors run over the admissible q ascending, then a1 over the units
    of q ascending, then the (q/4)^(d-1) even rest tuples with the first
    rest axis most significant.  Returns each pair's q and a1 and the
    position of its first anchor; the last start is the anchor count.
    """
    mods = _admissible_moduli(cp)
    q = np.concatenate([np.full(totient(m), m, dtype=np.int64) for m in mods])
    a1 = np.concatenate([np.flatnonzero(np.gcd(np.arange(m), m) == 1) for m in mods])
    starts = np.concatenate(([0], np.cumsum((q // 4) ** (cp.model.d - 1))))
    return q, a1, starts


def _decode_anchors(cp: CounterexampleParams, index):
    """(q, a1, rest) integer arrays of the anchors at enumeration positions."""
    q_pair, a1_pair, starts = _anchor_pairs(cp)
    index = np.asarray(index, dtype=np.int64)
    pair = np.searchsorted(starts, index, side="right") - 1
    q = q_pair[pair]
    within = index - starts[pair]
    k = q // 4
    rest = np.stack([within // k ** (cp.model.d - 2 - j) % k
                     for j in range(cp.model.d - 1)], axis=-1)
    return q, a1_pair[pair], 2 * rest + 2


def _window_bounds(cp: CounterexampleParams) -> tuple[float, float]:
    U = cp.c1 * cp.D ** 2 / (2.0 * cp.model.R)
    return U / 2.0, U


def _in_window(cp: CounterexampleParams, q, a1) -> np.ndarray:
    """Whether each (q, a1) leading cell meets the pulled-back leading window."""
    lo, hi = _window_bounds(cp)
    A1, _ = _half_widths(cp)
    c = TWO_PI * np.asarray(a1) / np.asarray(q)
    k_lo = np.ceil((lo - c - A1) / TWO_PI - 1e-12)
    k_hi = np.floor((hi - c + A1) / TWO_PI + 1e-12)
    return k_lo <= k_hi


# ---------------------------------------------------------------------------
# measures


def _v1_min_measure(cp: CounterexampleParams) -> float:
    """Exact smallest leading-coordinate union measure over admissible q.

    The coprime intervals at a fixed q are disjoint because their width
    is below the residue spacing, so the union measure is phi(q) 2 A1.
    """
    A1, _ = _half_widths(cp)
    return min(totient(q) * 2.0 * A1 for q in _admissible_moduli(cp))


def v2_measure_lower(cp: CounterexampleParams) -> float:
    """Covering lower bound for the rest-coordinate union, per axis pack."""
    d = cp.model.d
    return 2.0 ** -d * 3.0 ** (1 - d) * cp.c4 ** (d - 1)


def omega_measure_lower(cp: CounterexampleParams) -> float:
    """Product lower bound for the full anchored-cell union measure."""
    return _v1_min_measure(cp) * v2_measure_lower(cp)


def omega_star_chain_bound(cp: CounterexampleParams) -> float:
    """Lower bound for the box preimage measure via the torus bound."""
    mp = cp.model
    d, R, gamma = mp.d, mp.R, mp.gamma
    return (cp.c1 ** d / (4.0 * TWO_PI ** d)) * omega_measure_lower(cp) \
        * R ** (gamma / 2.0 - 1.0)


def _multiplicity(cp, y1n, yjn):
    """Cells containing each point (y1n, yjn), both reduced to [0, 2 pi).

    The rest-axis positions 4 pi k / q, k = 1..q/4, are evenly spaced, so
    those within A = Aj + 1e-12 of y + s are the k in
    [ceil((y + s - A) q / 4 pi), floor((y + s + A) q / 4 pi)].  Summed over
    s in {-2 pi, 0, 2 pi} this counts each position once while A < pi; for
    A >= pi it covers every position, and the count is capped at q/4.
    """
    A1, Aj = _half_widths(cp)
    reach = Aj + 1e-12
    m = np.zeros(y1n.size, dtype=np.int64)
    near = yjn[:, :, None] + np.array([-TWO_PI, 0.0, TWO_PI])
    for q in _admissible_moduli(cp):
        a1c = np.round(q * y1n / TWO_PI).astype(np.int64) % q
        dist1 = np.abs(_wrap(y1n - TWO_PI * a1c / q))
        hit1 = (np.gcd(a1c, q) == 1) & (dist1 <= A1 + 1e-12)
        scale = q / (4.0 * math.pi)
        lo = np.maximum(np.ceil((near - reach) * scale), 1.0)
        hi = np.minimum(np.floor((near + reach) * scale), q // 4)
        per_axis = np.minimum(np.sum(np.maximum(hi - lo + 1.0, 0.0), axis=2), q // 4)
        m += hit1 * np.prod(per_axis, axis=1).astype(np.int64)
    return m


def sample_omega_star(cp: CounterexampleParams, n_samples: int,
                      seed) -> OmegaStarDraws:
    """Draw anchored torus points and pull them back to the spatial box.

    Every draw is returned, as one row of the record; draws whose torus
    point has no preimage in the box carry weight zero.  Weighted means
    over the full set give unbiased integrals over the preimage region.
    """
    d, D, band = cp.model.d, cp.D, cp.band
    if not cp.spans_lattice_period:
        raise PreconditionError(
            "spatial box spans less than one lattice period per rest axis")
    NA = int(_anchor_pairs(cp)[2][-1])
    A1, Aj = _half_widths(cp)
    M1 = D * D / (2.0 * band)
    lo_w, hi_w = _window_bounds(cp)
    rng = default_rng(seed)

    qi, a1i, resti = _decode_anchors(cp, rng.integers(0, NA, size=n_samples))
    q = qi.astype(float)
    y1 = TWO_PI * a1i / q + A1 * rng.uniform(-1.0, 1.0, size=n_samples)
    eps = Aj * rng.uniform(-1.0, 1.0, size=(n_samples, d - 1))
    yj = TWO_PI * resti / q[:, None] + eps

    k1_lo = np.ceil((lo_w - y1) / TWO_PI)
    n1 = np.maximum(np.floor((hi_w - y1) / TWO_PI) - k1_lo + 1, 0).astype(np.int64)
    kj_lo = np.ceil((-cp.c1 * D - yj) / TWO_PI)
    nj = np.maximum(np.floor((cp.c1 * D - yj) / TWO_PI) - kj_lo + 1, 0).astype(np.int64)

    # every draw lies in its own anchor's cell, so it lies in at least one
    own1 = np.abs(_wrap(y1 - TWO_PI * a1i / q)) <= A1 + 1e-12
    ownj = np.abs(_wrap(yj - TWO_PI * resti / q[:, None])) <= Aj + 1e-12
    if not np.all(own1 & np.all(ownj, axis=1)):
        raise RuntimeError("a drawn point fell outside its anchor's cell")

    v_cell = 2.0 * A1 * (2.0 * Aj) ** (d - 1)
    counts = n1 * np.prod(nj, axis=1)
    # only a draw with a box preimage carries weight: the cells are counted there
    carry = counts > 0
    mult = np.ones(n_samples, dtype=np.int64)
    mult[carry] = _multiplicity(cp, y1[carry] % TWO_PI, yj[carry] % TWO_PI)
    if np.any(mult < 1):
        raise RuntimeError("a drawn point fell outside every cell")
    weight = NA * v_cell * counts / (mult * M1 * D ** (d - 1.0))

    k1 = k1_lo + rng.integers(0, np.maximum(n1, 1), size=n_samples)
    x1 = -(y1 + TWO_PI * k1) / M1
    kj = kj_lo + rng.integers(0, np.maximum(nj, 1), size=(n_samples, d - 1))
    xj = (yj + TWO_PI * kj) / D

    valid = counts > 0
    if np.any(valid):
        r1 = np.abs(_wrap(-M1 * x1[valid] - y1[valid]))
        rj = np.abs(_wrap(D * xj[valid] - yj[valid]))
        worst = max(float(np.max(r1)), float(np.max(rj)) if rj.size else 0.0)
        if worst > 1e-9:
            raise RuntimeError(f"congruence residual {worst:g} exceeds 1e-9")

    x = np.column_stack([x1, xj])
    x[~valid] = np.nan
    return OmegaStarDraws(q=qi, a1=a1i, a_rest=resti, eps=eps,
                          y=np.column_stack([y1, yj]), x=x, valid=valid, weight=weight)


def omega_star_measure(draws: OmegaStarDraws) -> tuple[float, float]:
    """Mean importance weight and its standard error (zeros included)."""
    w = draws.weight
    if w.size < 2:
        raise ValueError("need at least two samples")
    return float(w.mean()), float(w.std(ddof=1) / math.sqrt(w.size))


# ---------------------------------------------------------------------------
# resonant times


def select_time(cp: CounterexampleParams, draws: OmegaStarDraws) -> np.ndarray:
    """Resonant evaluation time for each sampled box point, one per row.

    Raises if any row has no box preimage, and otherwise what the first
    failing row would raise on its own.
    """
    if not np.all(draws.valid):
        raise ValueError("sample has no box preimage")
    q, a1, y, x = draws.q, draws.a1, draws.y, draws.x
    mp = cp.model
    R, gamma = mp.R, mp.gamma
    D = cp.D
    s_res = _wrap(TWO_PI * a1 / q - y[:, 0])
    tau = s_res / (D * D)
    off_window = np.abs(tau) >= cp.c2 * R ** (-(gamma + 1.0) / 2.0)
    t = -x[:, 0] / (2.0 * cp.band) + tau
    bad = off_window | (t <= 0.0)
    if np.any(bad):
        if off_window[np.argmax(bad)]:
            raise PreconditionError("resonant correction falls outside the window")
        raise PreconditionError("selected time is not positive")
    return t


# ---------------------------------------------------------------------------
# calibration and error budgets


@lru_cache(maxsize=8)
def calibration_constants(d: int, gamma: float) -> dict:
    """Sweep small scales to calibrate the lattice-sum residual constants.

    A case is a modulus q, a leading residue a1 in {1, q - 1} and a rest
    residue a_j in {2, q/2}, and its complete comb sum is
    sum_l e((a1 l^2 + a_j l) / q) over the translates l below 2 band / D,
    in exact residues from _window_sums, both a1 in one call.
    c_gauss normalizes the residual against sqrt(2) band / (D sqrt(q)) by
    sqrt(q log q); c_delta0 normalizes the same residual by the main-term
    law rate.
    """
    cg, cd = 0.0, 0.0
    swept = 0
    for k in range(12, 21):
        R = 2.0 ** k
        cp = CounterexampleParams.with_defaults(ModelParams(d=d, gamma=gamma, R=R))
        start, stop = comb_range(cp)
        if stop - start < 2:
            continue
        count = cp.band / cp.D
        rate = count / math.sqrt(cp.Q) * R ** -cp.delta0
        # translates below 2 band / D: where band / D rounds up past an
        # integer, one short of comb_range's stop
        n = min(math.ceil(2.0 * count - 1e-12), stop) - start
        for q in _admissible_moduli(cp):
            main = math.sqrt(2.0) * count / math.sqrt(q)
            for aj in {2, q // 2}:
                sums = _window_sums(np.array([1, q - 1]), aj, q, start, n)
                resid = float(np.max(np.abs(np.abs(sums) - main)))
                cg = max(cg, resid / math.sqrt(q * math.log(q)))
                cd = max(cd, resid / rate)
                swept += sums.size
    if swept == 0:
        raise PreconditionError("calibration sweep found no usable scales")
    return {"c_gauss": cg, "c_delta0": cd, "cases": swept}


def _translate_moments(start: int, stop: int) -> tuple[float, float]:
    """Sums of l and of l^2 over start <= l < stop, in exact integer arithmetic."""
    def squares(n):
        return n * (n + 1) * (2 * n + 1) // 6
    return (float((start + stop - 1) * (stop - start) // 2),
            float(squares(stop - 1) - squares(start - 1)))


def error_budget(cp: CounterexampleParams, draws: OmegaStarDraws,
                 t: np.ndarray) -> tuple:
    """Drift and Gauss-replacement budgets at the sampled points and times.

    Both must stay below a fixed fraction of the main-term size for the
    factorized lower bound to survive; the admissible flag reports that.
    Returns three arrays (e1, e2, admissible), one entry per row.
    """
    q, a1 = draws.q, draws.a1
    mp = cp.model
    d, R, gamma = mp.d, mp.R, mp.gamma
    D, Q = cp.D, cp.Q
    band = cp.band
    scale = band / (D * math.sqrt(Q))
    start, stop = comb_range(cp)
    sum_l, sum_l2 = _translate_moments(start, stop)
    _, Aj = _half_widths(cp)
    t = np.asarray(t, dtype=float).reshape(q.shape)
    eps_t = np.abs(_wrap(D * D * t - TWO_PI * a1 / q))
    cal = calibration_constants(d, gamma)
    # libm's log, once per distinct modulus: numpy's vector log differs
    # from it in the last place for some q
    moduli, which = np.unique(q, return_inverse=True)
    gauss = np.array([cal["c_gauss"] * math.sqrt(m * math.log(m))
                      for m in moduli.tolist()])[which]
    err_axis = Aj * sum_l + eps_t * sum_l2 + gauss
    four_pi_d = (4.0 * math.pi) ** d
    e1 = 2.0 ** (d + 1) * (2.0 * four_pi_d) ** (d - 2) * R * t * scale ** (d - 1)
    e2 = (2.0 ** (d - 1) - 1.0) * err_axis * (four_pi_d * scale) ** (d - 2)
    threshold = 2.0 ** (-(d + 5) / 2.0) * scale ** (d - 1)
    return e1, e2, (e1 <= threshold) & (e2 <= threshold)


# ---------------------------------------------------------------------------
# the ladder experiment


@dataclass(frozen=True)
class LowerBoundRecord:
    """Per-scale outcome of the sampled lower-bound experiment."""

    R: float
    n_samples: int
    n_valid: int
    measure_estimate: float
    measure_stderr: float
    mean_modulus: float
    mean_sq_modulus: float
    sobolev: float
    ratio_estimate: float
    e1_max: float
    e2_max: float
    admissible_fraction: float
    anchors_total: int
    anchors_in_window: int


@dataclass(frozen=True)
class LowerBoundReport:
    """Ladder records with fitted growth exponents and targets.

    The ratio slope splits exactly into its factors' slopes, as every fit
    is least squares on the same log R:
    ratio_slope = measure_slope / 2 + point_slope - sobolev_slope.
    """

    records: tuple[LowerBoundRecord, ...]
    aborted: tuple[tuple[float, str], ...]
    s: float
    gamma_eval: float
    point_slope: float
    point_stderr: float
    ratio_slope: float
    ratio_stderr: float
    measure_slope: float
    sobolev_slope: float
    point_target: float
    ratio_target: float
    c_gauss: float
    c_delta0: float


def anchor_counts(cp: CounterexampleParams) -> tuple[int, int]:
    """How many anchors there are, and how many meet the sampling window."""
    q, a1, starts = _anchor_pairs(cp)
    return int(starts[-1]), int(np.sum(np.diff(starts)[_in_window(cp, q, a1)]))


def _experiment_entry(cp, n_samples, seed, s, gamma_eval) -> LowerBoundRecord:
    mp = cp.model
    total, in_window = anchor_counts(cp)
    if not in_window:
        raise PreconditionError(
            f"no rational anchor meets the sampling window at R={mp.R:g}")
    samples = sample_omega_star(cp, n_samples, seed)
    measure_est, measure_err = omega_star_measure(samples)
    valid = samples[samples.valid]
    if not len(valid):
        raise PreconditionError(f"no sampled point had a box preimage at R={mp.R:g}")
    t = select_time(cp, valid)
    e1, e2, admissible = error_budget(cp, valid, t)
    _, _, modulus = _factorized_batch(
        cp, valid.x, t, gamma_eval=gamma_eval,
        residues=(valid.q, valid.a1, valid.a_rest, valid.eps))
    modulus = modulus * TWO_PI ** -mp.d
    w = valid.weight
    wsum = float(np.sum(w))
    mean_mod = float(np.sum(w * modulus) / wsum)
    mean_sq = float(np.sum(w * modulus ** 2) / wsum)
    sob = sobolev_norm(Case3Counterexample(cp), s)
    # sqrt(measure * mean square) estimates the L2 norm of the evolved
    # field over the sampled region, which is what the ratio compares
    # against the Sobolev norm of the data.
    ratio = math.sqrt(max(measure_est, 0.0) * mean_sq) / sob
    return LowerBoundRecord(
        R=mp.R, n_samples=n_samples, n_valid=len(valid),
        measure_estimate=measure_est, measure_stderr=measure_err,
        mean_modulus=mean_mod, mean_sq_modulus=mean_sq, sobolev=sob,
        ratio_estimate=ratio, e1_max=float(np.max(e1)), e2_max=float(np.max(e2)),
        admissible_fraction=int(np.count_nonzero(admissible)) / len(valid),
        anchors_total=total, anchors_in_window=in_window)


def _entry_task(task):
    """Run one ladder entry; tagged result so a process pool can run it."""
    cp, n_samples, child_seed, s, geval = task
    try:
        return "ok", _experiment_entry(cp, n_samples, child_seed, s, geval)
    except PreconditionError as exc:
        return "abort", (cp.model.R, str(exc))
    except Exception as exc:
        return "err", (cp.model.R, f"{type(exc).__name__}: {exc}")


def lower_bound_experiment(params_ladder, n_samples: int, seed: int, *,
                           s: float = 0.0,
                           gamma_eval: float | None = None,
                           map_fn=map) -> LowerBoundReport:
    """Sample the preimage region across a geometric ladder and fit slopes.

    Entries whose construction degenerates (no anchor meets the window,
    or the box cannot hold a lattice period) are dropped with a recorded
    diagnosis; at least four entries must survive to fit.  An entry that
    fails for any other reason stops the ladder with an ExperimentError
    naming it.  gamma_eval lets data built at one dissipation exponent be
    evolved at a larger one, which is how exponents above the quadratic
    range are handled.
    map_fn may be a pool's map; per-entry seeds are spawned by ladder
    index, so results are identical for any worker count.
    """
    ladder = tuple(params_ladder)
    check_ladder([cp.model.R for cp in ladder])
    d = ladder[0].model.d
    gamma = ladder[0].model.gamma
    if any(cp.model.d != d or cp.model.gamma != gamma for cp in ladder):
        raise ValueError("ladder entries must share d and gamma")
    if n_samples < 2:
        raise ValueError("need at least two samples per entry")
    geval = gamma if gamma_eval is None else float(gamma_eval)
    if geval < gamma:
        raise ValueError("gamma_eval must be at least the construction gamma")
    cal = calibration_constants(d, gamma)
    seeds = SeedSequence(seed).spawn(len(ladder))
    tasks = [(cp, n_samples, child, s, geval)
             for cp, child in zip(ladder, seeds)]
    records, aborted = [], []
    for status, payload in map_fn(_entry_task, tasks):
        if status == "ok":
            records.append(payload)
        elif status == "abort":
            aborted.append(payload)
        else:
            R, why = payload
            raise ExperimentError(f"ladder entry R={R:g} failed: {why}", tuple(aborted))
    if len(records) < 4:
        raise ExperimentError(
            f"only {len(records)} ladder entries survived", tuple(aborted))
    scales = [r.R for r in records]
    point_slope, point_err = fit_loglog(
        scales, [math.sqrt(r.mean_sq_modulus) for r in records])
    ratio_slope, ratio_err = fit_loglog(scales, [r.ratio_estimate for r in records])
    measure_slope, _ = fit_loglog(scales, [r.measure_estimate for r in records])
    sobolev_slope, _ = fit_loglog(scales, [r.sobolev for r in records])
    point_target = (gamma - 1.0) * (d - 1) / 4.0
    ratio_target = d * (gamma - 1.0) / (2.0 * (d + 1)) - gamma * s / 2.0
    return LowerBoundReport(
        records=tuple(records), aborted=tuple(aborted), s=s, gamma_eval=geval,
        point_slope=point_slope, point_stderr=point_err,
        ratio_slope=ratio_slope, ratio_stderr=ratio_err,
        measure_slope=measure_slope, sobolev_slope=sobolev_slope,
        point_target=point_target, ratio_target=ratio_target,
        c_gauss=cal["c_gauss"], c_delta0=cal["c_delta0"])
