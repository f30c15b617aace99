from __future__ import annotations

import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schrodmax import maximal
from schrodmax.maximal import (
    ScalingReport,
    SpaceGrid,
    SweepError,
    TimeGrid,
    exponent_sweep,
    fit_loglog,
    l2_ball_norm,
    maximal_ratio,
    sup_over_time,
    theoretical_exponent,
)
from schrodmax.profiles import (
    Case1Product,
    Case3Counterexample,
    CounterexampleParams,
    ModelParams,
    PlaneWaveSurrogate,
    l2_norm,
)
from schrodmax.propagator import _field_factors, _field_grid


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(points=())
    with pytest.raises(ValueError):
        TimeGrid(points=(0.2, 0.2))
    with pytest.raises(ValueError):
        TimeGrid(points=(0.5, 1.5))
    g = TimeGrid(points=(0.1, 0.4, 0.9))
    assert (g.count, g.t_min, g.t_max) == (3, 0.1, 0.9)


def test_time_grid_hybrid_shape():
    g = TimeGrid.hybrid(16.0, geometric=12, cap=256)
    pts = np.asarray(g.points)
    knee = 16.0 ** -2.0
    assert pts[0] == pytest.approx(knee * 2.0 ** -11)
    assert pts[-1] == 1.0
    assert np.all(np.diff(pts) > 0.0)
    assert g.count <= 256
    assert np.count_nonzero(pts <= knee) == 12
    with pytest.raises(ValueError):
        TimeGrid.hybrid(0.5)
    with pytest.raises(ValueError):
        TimeGrid.hybrid(16.0, t_max=1.5)


@pytest.mark.parametrize("R", [2.0**511, 2.0**512, 2.0**600])
def test_time_grid_hybrid_rejects_scales_past_double_range(R):
    """The smallest of 64 geometric times, R^-2 2^-63, is no normal double
    past R = 2^479: the step count overflows at 2^511 and R^-2 underflows
    to 0 at 2^600."""
    with pytest.raises(ValueError, match="underflows"):
        TimeGrid.hybrid(R)
    g = TimeGrid.hybrid(2.0**479, cap=80)
    assert g.count == 80 and g.t_min >= sys.float_info.min
    with pytest.raises(ValueError, match="underflows"):
        TimeGrid.hybrid(2.0**480, cap=80)


def test_time_grid_hybrid_cap_thins_uniform_part():
    g = TimeGrid.hybrid(64.0, geometric=8, cap=40)
    assert g.count <= 40


def test_time_grid_hybrid_refuses_a_cap_that_truncates():
    """A cap with no room past the geometric times would end the grid at
    R^-2 (0.0039 at R = 16) instead of t_max, and one below them would
    hold more points than the cap: both are refused.  Where R^-2 is t_max
    the geometric times alone reach it."""
    with pytest.raises(ValueError, match="no uniform time"):
        TimeGrid.hybrid(16.0, geometric=12, cap=12)
    with pytest.raises(ValueError, match="fewer than the 12 geometric times"):
        TimeGrid.hybrid(16.0, geometric=12, cap=8)
    with pytest.raises(ValueError, match="fewer than the 12 geometric times"):
        TimeGrid.hybrid(1.0, geometric=12, cap=11)
    g = TimeGrid.hybrid(16.0, geometric=12, cap=13)
    assert g.count == 13 and g.t_max == 1.0
    g = TimeGrid.hybrid(1.0, geometric=12, cap=12)
    assert g.count == 12 and g.t_max == 1.0


@pytest.mark.parametrize("R, t_max", [(1.05, 1.0), (4.0, 0.07)])
def test_time_grid_hybrid_reaches_t_max_within_a_quarter_step_of_the_knee(R, t_max):
    """Where t_max lies less than R^-2/4 past the knee R^-2, the grid still
    ends at t_max (it ended at the knee, 0.907 for R = 1.05)."""
    g = TimeGrid.hybrid(R, t_max=t_max, geometric=8)
    assert g.t_max == t_max and g.count == 9


def test_space_grid_midpoints():
    sg = SpaceGrid(radius=2.0, per_axis=8)
    pts = sg.axis_points()
    assert pts.size == 8
    assert pts[0] == pytest.approx(-2.0 + 0.25)
    assert np.mean(pts) == pytest.approx(0.0, abs=1e-15)
    assert sg.cell_volume(2) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        SpaceGrid(radius=0.0)
    with pytest.raises(ValueError, match="finite"):
        SpaceGrid(radius=math.inf)
    with pytest.raises(ValueError, match="finite"):
        SpaceGrid(radius=math.nan)
    with pytest.raises(ValueError):
        SpaceGrid(per_axis=0)


def test_l2_ball_norm_interval_is_exact():
    sg = SpaceGrid(radius=1.0, per_axis=33)
    assert l2_ball_norm(np.ones(33), sg) == pytest.approx(math.sqrt(2.0))


def test_l2_ball_norm_disc_area():
    sg = SpaceGrid(radius=1.0, per_axis=128)
    norm = l2_ball_norm(np.ones((128, 128)), sg)
    assert norm**2 == pytest.approx(math.pi, abs=0.05)


def test_l2_ball_norm_rejects_partial_fields():
    sg = SpaceGrid(radius=1.0, per_axis=8)
    with pytest.raises(ValueError):
        l2_ball_norm(np.ones((8, 7)), sg)
    bad = np.ones((8, 8))
    bad[0, 0] = math.nan
    with pytest.raises(ValueError):
        l2_ball_norm(bad, sg)


def test_sup_over_time_narrow_band_decays_from_first_time():
    f = PlaneWaveSurrogate(xi0=(4.0,), width=0.05)
    tg = TimeGrid(points=(0.1, 0.2, 0.4, 0.8))
    got = sup_over_time(f, 1.5, (0.0,), tg)
    want = math.exp(-(0.1**1.5) * 16.0)
    assert got == pytest.approx(want, rel=5e-3)
    assert sup_over_time(f, 1.5, (0.0,), TimeGrid(points=(0.3,))) == \
        pytest.approx(math.exp(-(0.3**1.5) * 16.0), rel=5e-3)


def test_sup_over_time_validation():
    f = PlaneWaveSurrogate(xi0=(4.0,), width=0.05)
    tg = TimeGrid(points=(0.1,))
    with pytest.raises(ValueError):
        sup_over_time(f, 0.0, (0.0,), tg)
    with pytest.raises(ValueError):
        sup_over_time(f, 2.0, (0.0, 0.0), tg)
    with pytest.raises(ValueError, match="x must be finite"):
        sup_over_time(f, 2.0, (math.nan,), tg)
    with pytest.raises(ValueError, match="x must be finite"):
        sup_over_time(f, 2.0, (math.inf,), tg)


def test_sup_over_time_refines_to_a_64x_denser_grid():
    """A smooth 1-d maximum inside the grid: the in-bracket refinement
    reaches the maximum over a 64x denser grid, the coarse grid alone not."""
    f = Case1Product(ModelParams(d=1, gamma=2.0, R=4.0))
    coarse = np.linspace(1.0 / 64.0, 0.5, 32)
    dense = np.linspace(coarse[0], coarse[-1], 64 * (coarse.size - 1) + 1)

    def grid_max(ts):
        field = _field_grid(f, np.array([[1.0]]), ts, ts ** 2.0, 1e-10)
        return float(np.max(np.abs(field)))

    want = grid_max(dense)
    got = sup_over_time(f, 2.0, (1.0,), TimeGrid(points=tuple(coarse)), rtol=1e-10)
    assert got == pytest.approx(want, rel=1e-6)
    assert grid_max(coarse) < want * (1.0 - 1e-5)


def _small_grids(per_axis=7):
    return (TimeGrid.hybrid(4.0, geometric=6, cap=20),
            SpaceGrid(radius=1.0, per_axis=per_axis))


@pytest.mark.parametrize("f, gamma, per_axis", [
    (Case1Product(ModelParams(d=2, gamma=1.0, R=4.0)), 1.0, 5),
    (PlaneWaveSurrogate(xi0=(2.0, -1.0), width=0.3), 2.0, 5),
], ids=["product", "plane-wave"])
def test_maximal_ratio_matches_per_point_sup_over_time(f, gamma, per_axis):
    """The grid sup loop agrees with sup_over_time taken point by point."""
    tg, sg = _small_grids(per_axis=per_axis)
    pts = sg.axis_points()
    field = np.array([[sup_over_time(f, gamma, (a, b), tg)
                       for b in pts] for a in pts])
    want = l2_ball_norm(field, sg) / l2_norm(f)
    got = maximal_ratio(f, gamma, (tg, sg))
    assert got == pytest.approx(want, rel=1e-9)


def _mesh(per_axis, d):
    pts = SpaceGrid(1.0, per_axis).axis_points()
    return np.stack([g.ravel() for g in np.meshgrid(*([pts] * d), indexing="ij")], axis=1)


_FOLD_CASES = {
    "product-d1-odd": (Case1Product(ModelParams(d=1, gamma=1.0, R=8.0)), 1.0, 33),
    "product-d2": (Case1Product(ModelParams(d=2, gamma=0.5, R=16.0)), 0.5, 12),
    "product-d3": (Case1Product(ModelParams(d=3, gamma=1.0, R=4.0)), 1.0, 5),
    "plane-wave-at-0": (PlaneWaveSurrogate(xi0=(0.0, 0.0), width=0.3,
                                           amplitude=0.7 + 0.2j), 2.0, 7),
    "plane-wave-one-even-axis": (PlaneWaveSurrogate(xi0=(0.0, 1.5), width=0.3), 2.0, 7),
}


@pytest.mark.parametrize("name", sorted(_FOLD_CASES))
def test_sup_field_fold_matches_the_unfolded_evaluation(monkeypatch, name):
    """Folding x_j -> |x_j| on the even axes changes no sup by a bit: the
    same code with no axis taken as even evaluates every point."""
    f, gamma, per_axis = _FOLD_CASES[name]
    x = _mesh(per_axis, f.dim)
    tg = TimeGrid.hybrid(4.0, geometric=6, cap=20)
    folded = maximal._sup_field(f, x, gamma, tg, 1e-8)
    monkeypatch.setattr(maximal, "_even_cells",
                        lambda cells: np.zeros(cells.centres.shape, dtype=bool))
    assert np.array_equal(folded, maximal._sup_field(f, x, gamma, tg, 1e-8))


def _engine_calls(monkeypatch):
    """Spy on the field factors _sup_field asks for: (points, matrix rows) per call."""
    calls = []

    def spy(f, x, t, decay, rtol):
        scale, facs = _field_factors(f, x, t, decay, rtol)
        calls.append((x.shape[0], [m.shape[0] for m, _ in facs]))
        return scale, facs

    monkeypatch.setattr(maximal, "_field_factors", spy)
    return calls


def test_sweep_grid_folds_to_a_quarter_of_its_points(monkeypatch):
    """The sweep's 32^2 grid of the product bump, even in both axes: the
    engine sees the 256 distinct |x| and 16-row axis matrices."""
    calls = _engine_calls(monkeypatch)
    grids = (TimeGrid.hybrid(16.0, geometric=6, cap=20), SpaceGrid(1.0, 32))
    maximal_ratio(Case1Product(ModelParams(d=2, gamma=0.5, R=16.0)), 0.5, grids)
    assert calls and all(c == (256, [16, 16]) for c in calls)


@pytest.mark.parametrize("f", [
    Case3Counterexample(CounterexampleParams.for_experiments(
        ModelParams(d=2, gamma=2.0, R=16.0))),
    PlaneWaveSurrogate(xi0=(2.0, -1.0), width=0.3),
], ids=["case3", "plane-wave-off-centre"])
def test_data_with_no_even_axis_evaluate_every_point(monkeypatch, f):
    calls = _engine_calls(monkeypatch)
    maximal_ratio(f, 2.0, _small_grids(per_axis=6))
    assert calls and all(c == (36, [6, 6]) for c in calls)


_PINNED = json.loads(Path(__file__).with_name("maximal_values.json").read_text())


@pytest.mark.parametrize("e", sorted(_PINNED["ratios"]))
def test_sweep_ratio_is_pinned(e):
    R = 2.0 ** int(e)
    grids = (TimeGrid.hybrid(R, geometric=64, cap=16384), SpaceGrid(1.0, 32))
    got = maximal_ratio(Case1Product(ModelParams(d=2, gamma=0.5, R=R)), 0.5, grids)
    assert got == pytest.approx(_PINNED["ratios"][e], rel=1e-13, abs=0.0)


_SUP_CASES = {
    "product": (Case1Product(ModelParams(d=2, gamma=1.0, R=4.0)), 1.0),
    "plane-wave": (PlaneWaveSurrogate(xi0=(2.0, -1.0), width=0.3), 2.0),
}


@pytest.mark.parametrize("name", sorted(_SUP_CASES))
def test_sup_over_time_is_pinned(name):
    f, gamma = _SUP_CASES[name]
    tg = TimeGrid.hybrid(4.0, geometric=6, cap=20)
    got = [sup_over_time(f, gamma, x, tg) for x in ((0.0, 0.0), (0.3, -0.2), (-0.6, 0.45))]
    assert got == pytest.approx(_PINNED["sups"][name], rel=1e-13, abs=0.0)


def test_maximal_ratio_validation():
    f = PlaneWaveSurrogate(xi0=(1.0,), width=0.1, amplitude=0.0)
    with pytest.raises(ValueError):
        maximal_ratio(f, 2.0, _small_grids())
    with pytest.raises(ValueError):
        maximal_ratio(Case1Product(ModelParams(d=1, gamma=0.5, R=2.0)), 0.0, _small_grids())


def test_maximal_ratio_grid_convergence():
    # rtol is orthogonal to grid resolution; it is loosened to keep the
    # refined pass affordable (the in-bracket time refinement is fixed)
    f = Case1Product(ModelParams(d=2, gamma=1.0, R=64.0))
    t_max = 1.0 / 16.0

    def run(geometric, cap, per_axis):
        grids = (TimeGrid.hybrid(64.0, t_max=t_max, geometric=geometric,
                                 cap=cap),
                 SpaceGrid(1.0, per_axis))
        return maximal_ratio(f, 1.0, grids, rtol=1e-6)

    coarse = run(32, 1 << 9, 64)
    refined = run(64, 1 << 10, 128)
    assert abs(refined - coarse) / coarse < 0.01


def test_theoretical_exponent_known_values():
    assert theoretical_exponent(2, 2.0) == pytest.approx(1.0 / 3.0)
    assert theoretical_exponent(2, 1.0) == 0.0
    assert theoretical_exponent(2, 0.5) == 0.0
    assert theoretical_exponent(3, 3.0) == pytest.approx(3.0 / 8.0)
    assert theoretical_exponent(1, 2.0) == pytest.approx(0.25)
    assert theoretical_exponent(2, 1e9) == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValueError):
        theoretical_exponent(0, 2.0)
    with pytest.raises(ValueError):
        theoretical_exponent(2, 0.0)


def test_theoretical_exponent_monotone_and_saturates():
    for d in (1, 2, 3, 4):
        gammas = np.linspace(0.1, 8.0, 160)
        vals = [theoretical_exponent(d, float(g)) for g in gammas]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        cap = d / (2.0 * (d + 1))
        for g in (2.0, 2.5, 7.0, 1e6):
            assert theoretical_exponent(d, g) == cap


@given(slope=st.floats(-2.0, 2.0), scale=st.floats(0.1, 10.0))
@settings(max_examples=40, deadline=None)
def test_fit_loglog_recovers_exact_power_law(slope, scale):
    xs = [2.0**k for k in range(3, 9)]
    ys = [scale * x**slope for x in xs]
    got, err = fit_loglog(xs, ys)
    assert got == pytest.approx(slope, abs=1e-9)
    assert err == pytest.approx(0.0, abs=1e-9)


def test_fit_loglog_reports_scatter():
    xs = [2.0, 4.0, 8.0, 16.0]
    ys = [1.0, 2.5, 3.6, 9.0]
    _, err = fit_loglog(xs, ys)
    assert err > 0.0
    with pytest.raises(ValueError):
        fit_loglog([2.0], [1.0])


def _power_family(R):
    return Case1Product(ModelParams(d=2, gamma=1.0, R=R))


def _cheap_grids(R):
    return TimeGrid.hybrid(R, geometric=6, cap=16), SpaceGrid(1.0, 5)


def _power_ratio(monkeypatch, exponent):
    monkeypatch.setattr(maximal, "maximal_ratio",
                        lambda f, gamma, grids: f.model.R**exponent)


def test_exponent_sweep_ladder_validation(monkeypatch):
    _power_ratio(monkeypatch, 0.1)
    with pytest.raises(ValueError):
        exponent_sweep(_power_family, 1.0, (4.0, 8.0, 16.0), _cheap_grids)
    with pytest.raises(ValueError):
        exponent_sweep(_power_family, 1.0, (4.0, 8.0, 16.0, 24.0), _cheap_grids)


def test_exponent_sweep_verdict_sides(monkeypatch):
    ladder = (4.0, 8.0, 16.0, 32.0)
    _power_ratio(monkeypatch, 0.2)
    rep = exponent_sweep(_power_family, 1.0, ladder, _cheap_grids)
    assert rep.target == 0.0
    assert rep.fitted_slope == pytest.approx(0.2, abs=1e-9)
    assert not rep.verdict
    _power_ratio(monkeypatch, 0.05)
    assert exponent_sweep(_power_family, 1.0, ladder, _cheap_grids).verdict


def test_exponent_sweep_failure_carries_partial_report(monkeypatch):
    def flaky(f, gamma, grids):
        if f.model.R > 16.0:
            raise RuntimeError("boom")
        return f.model.R**0.1

    monkeypatch.setattr(maximal, "maximal_ratio", flaky)
    with pytest.raises(SweepError) as info:
        exponent_sweep(_power_family, 1.0, (4.0, 8.0, 16.0, 32.0), _cheap_grids)
    partial = info.value.partial
    assert isinstance(partial, ScalingReport)
    assert len(partial.entries) == 3
    assert math.isnan(partial.fitted_slope)
    assert not partial.verdict

    monkeypatch.setattr(maximal, "maximal_ratio", lambda f, g, gr: 0.0)
    with pytest.raises(SweepError):
        exponent_sweep(_power_family, 1.0, (4.0, 8.0, 16.0, 32.0), _cheap_grids)


def test_exponent_sweep_pool_map_matches_serial(monkeypatch):
    ladder = (4.0, 8.0, 16.0, 32.0)
    _power_ratio(monkeypatch, 0.07)
    serial = exponent_sweep(_power_family, 1.0, ladder, _cheap_grids)
    with ThreadPoolExecutor(max_workers=3) as pool:
        pooled = exponent_sweep(_power_family, 1.0, ladder, _cheap_grids,
                                map_fn=pool.map)
    assert pooled == serial


def test_exponent_sweep_real_small_case():
    def grids(R):
        return (TimeGrid.hybrid(R, geometric=6, cap=16),
                SpaceGrid(radius=1.0, per_axis=5))

    def family(R):
        return Case1Product(ModelParams(d=1, gamma=0.5, R=R))

    rep = exponent_sweep(family, 0.5, (4.0, 8.0, 16.0, 32.0), grids)
    assert rep.target == 0.0
    assert all(ratio > 0.0 for _, ratio, _ in rep.entries)
    assert "time=" in rep.entries[0][2]
