from __future__ import annotations

import dataclasses
import itertools
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from schrodmax import counterexample, profiles, propagator
from schrodmax.counterexample import (
    ExperimentError,
    _translate_moments,
    OmegaStarDraws,
    OmegaStarSample,
    calibration_constants,
    error_budget,
    lower_bound_experiment,
    omega_measure_lower,
    omega_star_chain_bound,
    omega_star_measure,
    sample_omega_star,
    select_time,
    v2_measure_lower,
)
from schrodmax.maximal import fit_loglog
from schrodmax.numbertheory import PreconditionError, _window_sums
from schrodmax.profiles import (
    Case3Counterexample,
    CounterexampleParams,
    ModelParams,
    comb_range,
    sobolev_norm,
)
from schrodmax.propagator import SpaceTimePoint, factorized_evaluate
from schrodmax.quadrature import QuadratureError

TWO_PI = 2.0 * math.pi


def _exp_params(R=2.0**16, d=2, gamma=2.0):
    return CounterexampleParams.for_experiments(
        ModelParams(d=d, gamma=gamma, R=float(R)))


def _def_params(R=2.0**16, d=2, gamma=2.0):
    return CounterexampleParams.with_defaults(
        ModelParams(d=d, gamma=gamma, R=float(R)))


def _anchors(cp):
    """Every anchor's (q, a1, rest) arrays, decoded in enumeration order."""
    total = int(counterexample._anchor_pairs(cp)[2][-1])
    return counterexample._decode_anchors(cp, np.arange(total))


def _in_window_count(cp):
    q, a1, starts = counterexample._anchor_pairs(cp)
    return int(np.sum(np.diff(starts)[counterexample._in_window(cp, q, a1)]))


def test_rational_anchor_validation():
    for d in (2, 3):
        q, a1, rest = _anchors(_exp_params(2.0**16, d=d))
        assert rest.shape == (q.size, d - 1)
        assert np.all((q >= 4) & (q % 4 == 0))
        assert np.all((1 <= a1) & (a1 < q) & (np.gcd(a1, q) == 1))
        assert np.all((rest % 2 == 0) & (rest >= 2) & (rest <= (q // 2)[:, None]))


def test_anchor_enumeration_counts():
    assert _anchors(_exp_params(2.0**16))[0].size == 142
    assert _anchors(_exp_params(2.0**24))[0].size == 1922


def _nested_loop_anchors(cp):
    """Every anchor by explicit loops: q, then units a1, then even rest tuples."""
    out = []
    for q in range(4, 4 * int(cp.Q) + 1, 4):
        if q < 4.0 * cp.mu0 * cp.Q:
            continue
        evens = range(2, q // 2 + 1, 2)
        for a1 in range(1, q):
            if math.gcd(a1, q) != 1:
                continue
            for rest in itertools.product(evens, repeat=cp.model.d - 1):
                out.append((q, a1, rest))
    return tuple(out)


@pytest.mark.parametrize("d,k", [(2, 16), (2, 24), (3, 16)])
def test_anchor_index_matches_nested_loops(d, k):
    cp = _exp_params(2.0**k, d=d)
    q, a1, rest = _anchors(cp)
    decoded = tuple(zip(q.tolist(), a1.tolist(), map(tuple, rest.tolist())))
    assert decoded == _nested_loop_anchors(cp)


def test_ladder_anchor_counts_in_closed_form():
    rep = lower_bound_experiment(_exp_ladder(16, 19), 100, 0)
    assert [(r.anchors_total, r.anchors_in_window) for r in rep.records] == [
        (142, 11), (226, 22), (226, 15), (354, 15)]
    for r in rep.records:
        cp = _exp_params(r.R)
        assert r.anchors_total == _anchors(cp)[0].size
        assert r.anchors_in_window == _in_window_count(cp)


def test_sampler_draws_are_pinned():
    draws = sample_omega_star(_exp_params(), 500, seed=2)
    valid = draws[draws.valid]
    assert len(valid) == 36
    assert (int(valid.q[0]), int(valid.a1[0]), tuple(valid.a_rest[0].tolist())) \
        == (20, 1, (10,))
    assert tuple(valid.y[0].tolist()) == (0.3141323489577603, 3.141585912456239)
    assert tuple(valid.x[0].tolist()) == (-0.015582938162274707, -0.005798088201491546)
    assert valid.weight[0] == 1.030571082743135e-10


def test_window_filter_matches_enumerated_window():
    cp = _exp_params()
    q, a1, _ = _anchors(cp)
    kept = counterexample._in_window(cp, q, a1)
    assert np.count_nonzero(kept) == _in_window_count(cp) == 11
    assert sorted(set(zip(q[kept].tolist(), a1[kept].tolist()))) == [(20, 1), (24, 1)]


def test_measure_lower_bounds_frozen():
    cp = _def_params()
    assert v2_measure_lower(cp) == pytest.approx(1.0 / 96.0)
    assert omega_measure_lower(cp) == pytest.approx(2.5165295374888564e-06)
    assert omega_star_chain_bound(cp) == pytest.approx(3.890651724384701e-12)


def _multiplicity(cp, y):
    """The sampler's cell count at torus points, the rows of y."""
    y = np.asarray(y, dtype=float) % TWO_PI
    return counterexample._multiplicity(cp, y[:, 0], y[:, 1:])


def test_multiplicity_counts_cells():
    cp = _exp_params()
    q, a1, rest = _anchors(cp)
    centers = TWO_PI * np.column_stack([a1, rest])[:40] / q[:40, None]
    assert np.all(_multiplicity(cp, centers) >= 1)
    assert _multiplicity(cp, [(1.2345, 2.3456)])[0] == 0


def _multiplicity_reference(cp, y):
    """Cells containing each torus point, from the wrapped distance of every
    coordinate to every anchor position of every admissible modulus."""
    A1, Aj = counterexample._half_widths(cp)
    y = np.asarray(y, dtype=float) % TWO_PI

    def dist(v):
        return np.abs(v - TWO_PI * np.round(v / TWO_PI))

    m = np.zeros(len(y), dtype=np.int64)
    for q in counterexample._admissible_moduli(cp):
        a1 = np.round(q * y[:, 0] / TWO_PI).astype(np.int64) % q
        hit = (np.gcd(a1, q) == 1) & (dist(y[:, 0] - TWO_PI * a1 / q) <= A1 + 1e-12)
        pos = (4.0 * math.pi / q) * np.arange(1, q // 4 + 1)
        cnt = np.ones(len(y), dtype=np.int64)
        for j in range(1, y.shape[1]):
            cnt *= np.sum(dist(y[:, j][:, None] - pos[None, :]) <= Aj + 1e-12, axis=1)
        m += hit * cnt
    return m


@pytest.mark.parametrize("cp, n", [
    *((_exp_params(2.0**k), 10_000) for k in range(16, 25)),
    (_exp_params(2.0**22, d=3), 2000),
    (_def_params(2.0**16, d=3), 2000),  # rest half-width above pi
    (_def_params(2.0**22, d=3), 2000),
])
def test_multiplicity_counts_match_distance_reference(cp, n):
    """Floor-arithmetic cell counts equal the distance-matrix counts, also
    at points 1e-13 either side of a rest-axis cell edge."""
    draws = sample_omega_star(cp, n, seed=0)
    _, Aj = counterexample._half_widths(cp)
    rng = np.random.default_rng(1)
    q = draws.q
    pos = 4.0 * math.pi * rng.integers(1, q // 4 + 1) / q
    gap = rng.choice([-1e-13, 1e-13], size=q.size) + rng.choice([Aj, Aj + 1e-12], size=q.size)
    edge = (pos + rng.choice([-1.0, 1.0], size=q.size) * gap)[:, None]
    near_edge = np.column_stack([draws.y[:, 0], np.repeat(edge, cp.model.d - 1, axis=1)])
    for y in (draws.y, near_edge):
        got = _multiplicity(cp, y)
        assert got.dtype == np.int64
        assert np.array_equal(got, _multiplicity_reference(cp, y))


@pytest.mark.parametrize("e", [16, 24])
def test_weights_match_an_all_rows_cell_count(e):
    """The sampler counts cells only at draws with a box preimage; its
    weights are bit for bit those of a cell count over every draw."""
    cp = _exp_params(2.0**e)
    draws = sample_omega_star(cp, 10_000, seed=0)
    d, D = cp.model.d, cp.D
    A1, Aj = counterexample._half_widths(cp)
    NA = int(counterexample._anchor_pairs(cp)[2][-1])
    M1 = D * D / (2.0 * cp.band)
    lo_w, hi_w = counterexample._window_bounds(cp)
    y1, yj = draws.y[:, 0], draws.y[:, 1:]
    n1 = np.maximum(np.floor((hi_w - y1) / TWO_PI) - np.ceil((lo_w - y1) / TWO_PI) + 1, 0)
    nj = np.maximum(np.floor((cp.c1 * D - yj) / TWO_PI)
                    - np.ceil((-cp.c1 * D - yj) / TWO_PI) + 1, 0)
    counts = n1.astype(np.int64) * np.prod(nj.astype(np.int64), axis=1)
    mult = _multiplicity(cp, draws.y)
    assert np.all(mult >= 1)
    assert 0 < np.count_nonzero(counts) < counts.size
    want = NA * (2.0 * A1 * (2.0 * Aj) ** (d - 1)) * counts / (mult * M1 * D ** (d - 1.0))
    assert np.array_equal(draws.valid, counts > 0)
    assert draws.weight.tobytes() == want.tobytes()


def test_sampler_needs_one_lattice_period():
    with pytest.raises(PreconditionError):
        sample_omega_star(_def_params(2.0**10), 16, seed=0)


def test_no_admissible_modulus_is_a_precondition_error():
    """With mu0 = 10 the least admissible modulus, 4 mu0 Q, lies above 4 floor(Q)."""
    cp = CounterexampleParams.for_experiments(ModelParams(d=2, gamma=2.0, R=2.0**16), mu0=10.0)
    with pytest.raises(PreconditionError, match="no modulus is admissible"):
        counterexample._admissible_moduli(cp)
    with pytest.raises(PreconditionError, match="no modulus is admissible"):
        sample_omega_star(cp, 16, seed=0)


def test_sampled_points_satisfy_congruences():
    cp = _exp_params()
    samples = sample_omega_star(cp, 500, seed=2)
    assert len(samples) == 500
    mp = cp.model
    M1 = cp.D**2 / (2.0 * mp.R ** (mp.gamma / 2.0))
    saw_valid = 0
    for smp in samples:
        assert smp.weight >= 0.0
        if smp.x is None:
            assert smp.weight == 0.0
            continue
        saw_valid += 1
        r1 = (-M1 * smp.x[0] - smp.y[0]) % TWO_PI
        rj = (cp.D * smp.x[1] - smp.y[1]) % TWO_PI
        assert min(r1, TWO_PI - r1) <= 1e-9
        assert min(rj, TWO_PI - rj) <= 1e-9
        assert -cp.c1 <= smp.x[1] <= cp.c1
    assert saw_valid > 0


def test_draws_read_as_a_tuple_of_samples():
    cp = _exp_params()
    draws = sample_omega_star(cp, 500, seed=2)
    assert isinstance(draws, OmegaStarDraws)
    samples = list(draws)
    assert len(samples) == len(draws) == 500
    assert all(isinstance(smp, OmegaStarSample) for smp in samples)
    for i, smp in enumerate(samples):
        assert smp.y == tuple(draws.y[i].tolist())
        assert smp.weight == draws.weight[i]
        assert (smp.x is not None) == draws.valid[i]
        if smp.x is None:
            assert smp.weight == 0.0 and np.all(np.isnan(draws.x[i]))
        else:
            assert smp.x == tuple(draws.x[i].tolist())
    assert not draws.valid.all() and draws.valid.any()
    valid = draws[draws.valid]
    assert isinstance(valid, OmegaStarDraws)
    assert list(valid) == [smp for smp in samples if smp.x is not None]
    assert list(draws[10:20]) == samples[10:20]


def test_draws_refuse_a_scalar_key():
    """A scalar key would give a record without its row axis."""
    draws = sample_omega_star(_exp_params(), 50, seed=2)
    for key in (3, np.int64(3), -1):
        with pytest.raises(TypeError, match="slice or a boolean mask"):
            draws[key]
    picked = draws[np.array([3, 7])]
    assert isinstance(picked, OmegaStarDraws) and len(picked) == 2
    assert list(picked) == [list(draws)[3], list(draws)[7]]
    assert list(draws[3:4]) == [list(draws)[3]]


def test_measure_estimate_statistics():
    draws = sample_omega_star(_exp_params(), 500, seed=2)
    four = dataclasses.replace(draws[:4], weight=np.array([0.0, 1.0, 2.0, 3.0]))
    mean, err = omega_star_measure(four)
    assert mean == pytest.approx(1.5)
    assert err == pytest.approx(np.std([0, 1, 2, 3], ddof=1) / 2.0)
    with pytest.raises(ValueError):
        omega_star_measure(draws[:0])
    with pytest.raises(ValueError):
        omega_star_measure(draws[:1])
    w = np.array([smp.weight for smp in draws])
    assert omega_star_measure(draws) == (float(w.mean()),
                                         float(w.std(ddof=1) / math.sqrt(w.size)))


def test_selected_time_is_resonant():
    cp = _exp_params()
    draws = sample_omega_star(cp, 400, seed=3)
    valid = draws[draws.valid]
    assert len(valid)
    for i in range(min(len(valid), 50)):
        (t,) = select_time(cp, valid[i:i + 1])
        assert t > 0.0
        gap = (cp.D**2 * t - TWO_PI * valid.a1[i] / valid.q[i]) % TWO_PI
        assert min(gap, TWO_PI - gap) <= 1e-6
    missing = np.flatnonzero(~draws.valid)[0]
    with pytest.raises(ValueError):
        select_time(cp, draws[missing:missing + 1])


def test_rational_twin_matches_generic_sum_at_anchor():
    """The comb's lattice sum in exact residues against the lattice phases
    formed from x and t at the anchor's own point, D x = 2 pi a / q and
    D^2 t = 2 pi a1 / q."""
    cp = _exp_params()
    q, a1, aj = 20, 1, 2
    t = TWO_PI * a1 / (q * cp.D**2)
    x = TWO_PI * aj / (q * cp.D)
    start, stop = comb_range(cp)
    ells = np.arange(start, stop, dtype=float)
    generic = complex(np.sum(propagator._lattice_phases(cp, x, t, ells)))
    twin = complex(_window_sums(a1, aj, q, start, stop - start))
    assert generic == pytest.approx(twin, rel=1e-8)


# (c_gauss, c_delta0, cases) per (d, gamma), recorded with a direct sum of
# the lattice phases per (q, a1, a_j)
_CALIBRATION = {
    (2, 2.0): (0.3365303166018033, 0.2944772402556042, 202),
    (3, 2.0): (0.346731737021645, 0.4222467926206061, 606),
    (2, 1.75): (0.3318991868351755, 0.3595256822741687, 114),
    (2, 1.5): (0.293313111827481, 0.3505709117952168, 58),
}


@pytest.mark.parametrize("d, gamma", list(_CALIBRATION))
def test_calibration_constants_frozen(d, gamma):
    c_gauss, c_delta0, cases = _CALIBRATION[d, gamma]
    cal = calibration_constants(d, gamma)
    assert cal["c_gauss"] == pytest.approx(c_gauss, rel=1e-12)
    assert cal["c_delta0"] == pytest.approx(c_delta0, rel=1e-12)
    assert cal["cases"] == cases
    assert calibration_constants(d, gamma) is cal


def test_error_budget_flag_matches_threshold():
    cp = _exp_params()
    draws = sample_omega_star(cp, 300, seed=5)
    valid = draws[draws.valid]
    mp = cp.model
    scale = mp.R ** (mp.gamma / 2.0) / (cp.D * math.sqrt(cp.Q))
    threshold = 2.0 ** (-(mp.d + 5) / 2.0) * scale ** (mp.d - 1)
    for i in range(min(len(valid), 20)):
        row = valid[i:i + 1]
        (e1,), (e2,), (ok,) = error_budget(cp, row, select_time(cp, row))
        assert e1 > 0.0 and e2 > 0.0
        assert ok == (e1 <= threshold and e2 <= threshold)


def test_batched_time_and_budget_match_one_sample_calls():
    cp = _exp_params(2.0**19)
    draws = sample_omega_star(cp, 800, seed=7)
    valid = draws[draws.valid]
    t = select_time(cp, valid)
    e1, e2, ok = error_budget(cp, valid, t)
    assert t.shape == e1.shape == e2.shape == ok.shape == (len(valid),)
    assert ok.any() and not ok.all()
    for i in range(len(valid)):
        row = valid[i:i + 1]
        ti = select_time(cp, row)
        assert ti.shape == (1,) and ti[0] == t[i]
        e1i, e2i, oki = error_budget(cp, row, ti)
        assert (e1i[0], e2i[0], oki[0]) == (e1[i], e2[i], ok[i])
    # move one row's torus point off its anchor's resonance
    mp = cp.model
    limit = cp.c2 * mp.R ** (-(mp.gamma + 1.0) / 2.0) * cp.D**2
    y = valid.y.copy()
    y[3, 0] -= 2.0 * limit
    moved = dataclasses.replace(valid, y=y)
    with pytest.raises(PreconditionError, match="resonant correction") as one:
        select_time(cp, moved[3:4])
    with pytest.raises(PreconditionError) as batch:
        select_time(cp, moved)
    assert str(batch.value) == str(one.value)
    with pytest.raises(ValueError):
        select_time(cp, draws)


@pytest.mark.parametrize("make", [_exp_params, _def_params], ids=["experiments", "defaults"])
@pytest.mark.parametrize("d", [2, 3])
def test_translate_moments_match_float_sums(make, d):
    for k in range(16, 29):
        start, stop = comb_range(make(2.0**k, d=d))
        ells = np.arange(start, stop, dtype=float)
        assert _translate_moments(start, stop) == (
            float(np.sum(ells)), float(np.sum(ells ** 2)))


def test_tail_product_dominates_budgeted_main_term():
    cp = _exp_params(2.0**19)
    mp = cp.model
    d = mp.d
    band = mp.R ** (mp.gamma / 2.0)
    scale = band / (cp.D * math.sqrt(cp.Q))
    floor = (2.0 ** ((1 - d) / 2.0) * (1.0 - cp.c0) ** (d - 1)
             - 2.0 ** (-(d + 3) / 2.0)) * scale ** (d - 1)
    assert floor > 0.0
    draws = sample_omega_star(cp, 800, seed=7)
    valid = draws[draws.valid]
    checked = admissible = 0
    for i in range(len(valid)):
        row = valid[i:i + 1]
        try:
            t = select_time(cp, row)
        except PreconditionError:
            continue
        fac = factorized_evaluate(cp, SpaceTimePoint(x=tuple(row.x[0].tolist()),
                                                     t=float(t[0])))
        tail = float(np.prod(np.abs(fac.ij)))
        (e1,), (e2,), (ok,) = error_budget(cp, row, t)
        main = ((1.0 - cp.c0) * math.sqrt(2.0) * band
                / (cp.D * math.sqrt(row.q[0]))) ** (d - 1)
        assert tail >= main - e1 - e2 - 1e-9 * main
        checked += 1
        if ok:
            assert main - e1 - e2 >= floor * (1.0 - 1e-12)
            admissible += 1
        if checked >= 25:
            break
    assert checked == 25 and admissible >= 3


def _exp_ladder(lo_k, hi_k):
    return [_exp_params(2.0**k) for k in range(lo_k, hi_k + 1)]


def test_experiment_ladder_validation():
    ladder = _exp_ladder(16, 19)
    with pytest.raises(ValueError):
        lower_bound_experiment(ladder[:3], 100, 0)
    with pytest.raises(ValueError):
        lower_bound_experiment(list(reversed(ladder)), 100, 0)
    with pytest.raises(ValueError):
        lower_bound_experiment(
            [_exp_params(R) for R in (2.0**16, 2.0**17, 2.0**18, 2.0**20)],
            100, 0)
    with pytest.raises(ValueError):
        lower_bound_experiment(ladder, 1, 0)
    with pytest.raises(ValueError):
        lower_bound_experiment(ladder, 100, 0, gamma_eval=1.5)
    mixed = ladder[:3] + [_exp_params(2.0**19, gamma=1.5)]
    with pytest.raises(ValueError):
        lower_bound_experiment(mixed, 100, 0)


def test_experiment_entry_failure_names_the_entry(monkeypatch):
    real = counterexample.sobolev_norm

    def failing(f, s):
        if f.params.model.R == 2.0**16:
            raise PreconditionError("first entry aborts")
        if f.params.model.R > 2.0**17:
            raise QuadratureError("node cap reached")
        return real(f, s)

    monkeypatch.setattr(counterexample, "sobolev_norm", failing)
    with pytest.raises(ExperimentError, match=r"^ladder entry R=262144 failed: "
                       r"QuadratureError: node cap reached$") as info:
        lower_bound_experiment(_exp_ladder(16, 19), 100, 0)
    # the abort before the failing entry is carried, and none after it
    assert info.value.aborted == ((2.0**16, "first entry aborts"),)


def test_experiment_reports_all_aborts():
    ladder = [_def_params(2.0**k) for k in range(8, 12)]
    with pytest.raises(ExperimentError) as info:
        lower_bound_experiment(ladder, 50, 0)
    assert len(info.value.aborted) == 4
    for R, why in info.value.aborted:
        assert R in {2.0**k for k in range(8, 12)}
        assert why


def test_experiment_deterministic_and_pool_invariant():
    ladder = _exp_ladder(16, 19)
    rep1 = lower_bound_experiment(ladder, 300, 7)
    rep2 = lower_bound_experiment(ladder, 300, 7)
    assert rep1 == rep2
    with ThreadPoolExecutor(max_workers=3) as pool:
        rep3 = lower_bound_experiment(ladder, 300, 7, map_fn=pool.map)
    assert rep3 == rep1
    assert lower_bound_experiment(ladder, 300, 8) != rep1


def test_experiment_record_contents():
    rep = lower_bound_experiment(_exp_ladder(16, 19), 300, 7)
    assert rep.point_target == pytest.approx(0.25)
    assert rep.ratio_target == pytest.approx(1.0 / 3.0)
    assert rep.c_gauss == pytest.approx(0.3365303166018033)
    assert len(rep.records) == 4
    for rec in rep.records:
        assert rec.n_valid <= rec.n_samples == 300
        assert rec.measure_estimate > 0.0
        assert rec.mean_sq_modulus > 0.0
        assert rec.sobolev > 0.0
        assert rec.ratio_estimate == pytest.approx(
            math.sqrt(rec.measure_estimate * rec.mean_sq_modulus)
            / rec.sobolev)
        assert 0.0 <= rec.admissible_fraction <= 1.0
        assert rec.anchors_in_window <= rec.anchors_total


def test_ratio_slope_splits_into_factor_slopes():
    rep = lower_bound_experiment(_exp_ladder(16, 19), 300, 7)
    rs = [r.R for r in rep.records]
    assert rep.measure_slope == fit_loglog(rs, [r.measure_estimate for r in rep.records])[0]
    assert rep.sobolev_slope == fit_loglog(rs, [r.sobolev for r in rep.records])[0]
    assert rep.ratio_slope == pytest.approx(
        0.5 * rep.measure_slope + rep.point_slope - rep.sobolev_slope, rel=0.0, abs=1e-10)


@pytest.mark.parametrize("s", [0.0, 1.0 / 3.0], ids=["s0", "s1_3"])
def test_d3_ladder_runs_without_listing_anchors(s):
    """A d=3 ladder whose largest entry has 3.4M anchors; slopes are not asserted.

    At s=1/3 each entry's Sobolev norm weights up to 156 025 comb cells.
    """
    ladder = [_exp_params(2.0**k, d=3) for k in range(20, 24)]
    start = time.perf_counter()
    rep = lower_bound_experiment(ladder, 2000, 0, s=s)
    elapsed = time.perf_counter() - start
    assert len(rep.records) == 4 and rep.aborted == ()
    assert [r.anchors_total for r in rep.records] == [
        465018, 906106, 1708062, 3364822]
    assert [r.anchors_in_window for r in rep.records] == [4875, 9144, 17451, 48723]
    assert elapsed < 30.0
    if s > 0.0:
        for r, cp in zip(rep.records, ladder):
            assert r.sobolev > sobolev_norm(Case3Counterexample(cp), 0.0)


@pytest.mark.parametrize("case", ["d2", "d3"])
def test_ladder_records_pinned(case):
    """Every record field of two small ladders, pinned with ==."""
    pinned = json.loads(Path(__file__).with_name("ladder_records.json").read_text())
    ladder = _exp_ladder(16, 19) if case == "d2" else \
        [_exp_params(2.0**k, d=3) for k in range(20, 24)]
    n_samples, seed = (300, 7) if case == "d2" else (2000, 0)
    rep = lower_bound_experiment(ladder, n_samples, seed, s=1.0 / 3.0)
    assert [dataclasses.asdict(r) for r in rep.records] == pinned[case]


def test_second_ladder_pass_adds_no_bump_moment_miss():
    """The README ladder's nine entries at s=1/3 ask for nine (p, degree)
    bump-moment keys, one more than a cache of eight holds; a second pass in
    the same process finds every one."""
    ladder = _exp_ladder(16, 24)
    lower_bound_experiment(ladder, 300, 7, s=1.0 / 3.0)
    misses = profiles._bump_moments.cache_info().misses
    lower_bound_experiment(ladder, 300, 7, s=1.0 / 3.0)
    assert profiles._bump_moments.cache_info().misses == misses


def test_experiment_entry_builds_no_sample_objects(monkeypatch):
    built = []
    init = OmegaStarSample.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(OmegaStarSample, "__init__", counting_init)
    cp = _exp_params(2.0**19)
    list(sample_omega_star(cp, 10, seed=0))
    assert len(built) == 10
    built.clear()
    rec = counterexample._experiment_entry(cp, 2000, 0, 1.0 / 3.0, 2.0)
    assert rec.n_valid > 0
    assert built == []


def test_experiment_entry_builds_no_lattice_phase_table(monkeypatch):
    """A ladder entry folds its comb moments over the modulus from the draws'
    residues; a one-point factorized evaluation still forms the phases."""
    calls = []
    phases = propagator._lattice_phases

    def counting(*args):
        calls.append(1)
        return phases(*args)

    monkeypatch.setattr(propagator, "_lattice_phases", counting)
    cp = _exp_params(2.0**19)
    rec = counterexample._experiment_entry(cp, 2000, 0, 1.0 / 3.0, 2.0)
    assert rec.n_valid > 0
    assert calls == []
    draws = sample_omega_star(cp, 200, seed=0)
    row = draws[draws.valid][:1]
    (t,) = select_time(cp, row)
    factorized_evaluate(cp, SpaceTimePoint(x=tuple(row.x[0].tolist()), t=float(t)))
    assert calls


def test_experiment_sobolev_weight_lowers_ratio():
    ladder = _exp_ladder(16, 19)
    flat = lower_bound_experiment(ladder, 200, 3)
    weighted = lower_bound_experiment(ladder, 200, 3, s=1.0 / 3.0)
    assert weighted.ratio_target == pytest.approx(0.0)
    for a, b in zip(flat.records, weighted.records):
        assert b.sobolev > a.sobolev
        assert b.ratio_estimate < a.ratio_estimate
        assert b.mean_sq_modulus == a.mean_sq_modulus
