from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schrodmax.maximal import (
    ScalingReport,
    SpaceGrid,
    SweepError,
    TimeGrid,
    exponent_sweep,
    fit_loglog,
    l2_ball_norm,
    lemma1_bound,
    maximal_ratio,
    sup_over_time,
    theoretical_exponent,
)
from schrodmax.profiles import (
    AnnulusBump,
    Case1Product,
    ModelParams,
    Modulated,
    PlaneWaveSurrogate,
    l2_norm,
)
from schrodmax.propagator import _decay, _field_grid


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


def test_time_grid_hybrid_cap_thins_uniform_part():
    g = TimeGrid.hybrid(64.0, geometric=8, cap=40)
    assert g.count <= 40


def test_space_grid_midpoints():
    sg = SpaceGrid(radius=2.0, per_axis=8)
    pts = sg.axis_points()
    assert pts.size == 8
    assert pts[0] == pytest.approx(-2.0 + 0.25)
    assert np.mean(pts) == pytest.approx(0.0, abs=1e-15)
    assert sg.cell_volume(2) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        SpaceGrid(radius=0.0)
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


def test_sup_over_time_modulation_shift_identity():
    base = PlaneWaveSurrogate(xi0=(2.0, -1.0), width=0.3)
    mod = Modulated(base=base, l=(3.0, 2.0), R=8.0)
    tg = TimeGrid.hybrid(4.0, geometric=6, cap=24)
    x = (0.2, -0.3)
    shifted = (x[0] + 3.0 / 8.0, x[1] + 2.0 / 8.0)
    a = sup_over_time(mod, 2.0, x, tg)
    b = sup_over_time(base, 2.0, shifted, tg)
    assert a == pytest.approx(b, rel=1e-12)


def test_sup_over_time_refines_to_a_64x_denser_grid():
    """A smooth 1-d maximum inside the grid: the in-bracket refinement
    reaches the maximum over a 64x denser grid, the coarse grid alone not."""
    f = Case1Product(ModelParams(d=1, gamma=2.0, R=4.0))
    coarse = np.linspace(1.0 / 64.0, 0.5, 32)
    dense = np.linspace(coarse[0], coarse[-1], 64 * (coarse.size - 1) + 1)

    def grid_max(ts):
        field = _field_grid(f, np.array([[1.0]]), ts, _decay(ts, 2.0), 1e-10)
        return float(np.max(np.abs(field)))

    want = grid_max(dense)
    got = sup_over_time(f, 2.0, (1.0,), TimeGrid(points=tuple(coarse)), rtol=1e-10)
    assert got == pytest.approx(want, rel=1e-6)
    assert grid_max(coarse) < want * (1.0 - 1e-5)


def _small_grids(per_axis=7):
    return (TimeGrid.hybrid(4.0, geometric=6, cap=20),
            SpaceGrid(radius=1.0, per_axis=per_axis))


def test_maximal_ratio_radial_and_separable_paths():
    radial = maximal_ratio(AnnulusBump(d=2, R=3.0), 2.0, _small_grids())
    assert radial > 0.0 and math.isfinite(radial)
    sep = maximal_ratio(Case1Product(ModelParams(d=2, gamma=1.0, R=4.0)), 1.0,
                        _small_grids())
    assert sep > 0.0 and math.isfinite(sep)


def test_maximal_ratio_shifted_separable_path():
    base = Case1Product(ModelParams(d=2, gamma=1.0, R=4.0))
    mod = Modulated(base=base, l=(2.0, 0.0), R=4.0)
    got = maximal_ratio(mod, 1.0, _small_grids(per_axis=5))
    assert got > 0.0 and math.isfinite(got)


# the radial cases use a 3-point grid: their per-point sups cost seconds each
@pytest.mark.parametrize("f, gamma, per_axis", [
    (AnnulusBump(d=2, R=3.0), 2.0, 3),
    (Modulated(base=AnnulusBump(d=2, R=3.0), l=(2.0, -1.0), R=4.0), 2.0, 3),
    (Case1Product(ModelParams(d=2, gamma=1.0, R=4.0)), 1.0, 5),
    (Modulated(base=Case1Product(ModelParams(d=2, gamma=1.0, R=4.0)),
               l=(2.0, 0.0), R=4.0), 1.0, 5),
    (PlaneWaveSurrogate(xi0=(2.0, -1.0), width=0.3), 2.0, 5),
], ids=["annulus", "shifted-annulus", "product", "shifted-product", "plane-wave"])
def test_maximal_ratio_matches_per_point_sup_over_time(f, gamma, per_axis):
    """The grid sup loop agrees with sup_over_time taken point by point."""
    tg, sg = _small_grids(per_axis=per_axis)
    pts = sg.axis_points()
    field = np.array([[sup_over_time(f, gamma, (a, b), tg)
                       for b in pts] for a in pts])
    want = l2_ball_norm(field, sg) / l2_norm(f)
    got = maximal_ratio(f, gamma, (tg, sg))
    assert got == pytest.approx(want, rel=1e-9)


def test_maximal_ratio_validation():
    f = PlaneWaveSurrogate(xi0=(1.0,), width=0.1, amplitude=0.0)
    with pytest.raises(ValueError):
        maximal_ratio(f, 2.0, _small_grids())
    with pytest.raises(ValueError):
        maximal_ratio(AnnulusBump(d=1, R=2.0), 0.0, _small_grids())


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


def test_lemma1_bound_branches():
    R, eps = 64.0, 0.01
    short = lemma1_bound(R, 1.0 / R**2, eps)
    assert short == pytest.approx(
        1.0 + R ** (2.0 / 3.0 + eps) * (R**-2.0) ** (1.0 / 3.0))
    assert lemma1_bound(R, 0.5, eps) == pytest.approx(R ** (1.0 / 3.0 + eps))
    with pytest.raises(ValueError):
        lemma1_bound(0.5, 0.1, eps)
    with pytest.raises(ValueError):
        lemma1_bound(R, 1.5, eps)


def test_lemma1_bound_branches_agree_at_knee():
    # the long branch is constant in J_len, so sample it anywhere above 1/R
    for d in (1, 2, 3):
        for eps in (0.0, 0.01):
            for R in (8.0, 64.0, 500.0):
                at_knee = lemma1_bound(R, 1.0 / R, eps, d)
                plateau = lemma1_bound(R, 0.9, eps, d)
                assert at_knee == pytest.approx(1.0 + plateau, rel=1e-12)


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


def _power_ratio(exponent):
    def ratio_fn(f, gamma, grids):
        return f.model.R**exponent
    return ratio_fn


def test_exponent_sweep_ladder_validation():
    with pytest.raises(ValueError):
        exponent_sweep(_power_family, 1.0, (4.0, 8.0, 16.0), None,
                       ratio_fn=_power_ratio(0.1))
    with pytest.raises(ValueError):
        exponent_sweep(_power_family, 1.0, (4.0, 8.0, 16.0, 24.0), None,
                       ratio_fn=_power_ratio(0.1))


def test_exponent_sweep_verdict_sides():
    ladder = (4.0, 8.0, 16.0, 32.0)
    rep = exponent_sweep(_power_family, 1.0, ladder, None,
                         ratio_fn=_power_ratio(0.2))
    assert rep.target == 0.0
    assert rep.fitted_slope == pytest.approx(0.2, abs=1e-9)
    assert not rep.verdict
    assert all(meta == "external-ratio" for _, _, meta in rep.entries)
    extremal = exponent_sweep(_power_family, 1.0, ladder,
                              lambda R: ("unused", "unused"),
                              ratio_fn=_power_ratio(0.2), extremal=True)
    assert extremal.verdict


def test_exponent_sweep_failure_carries_partial_report():
    def flaky(f, gamma, grids):
        if f.model.R > 16.0:
            raise RuntimeError("boom")
        return f.model.R**0.1

    with pytest.raises(SweepError) as info:
        exponent_sweep(_power_family, 1.0, (4.0, 8.0, 16.0, 32.0), None,
                       ratio_fn=flaky)
    partial = info.value.partial
    assert isinstance(partial, ScalingReport)
    assert len(partial.entries) == 3
    assert math.isnan(partial.fitted_slope)
    assert not partial.verdict

    with pytest.raises(SweepError):
        exponent_sweep(_power_family, 1.0, (4.0, 8.0, 16.0, 32.0), None,
                       ratio_fn=lambda f, g, gr: 0.0)


def test_exponent_sweep_pool_map_matches_serial():
    ladder = (4.0, 8.0, 16.0, 32.0)
    serial = exponent_sweep(_power_family, 1.0, ladder, None,
                            ratio_fn=_power_ratio(0.07))
    with ThreadPoolExecutor(max_workers=3) as pool:
        pooled = exponent_sweep(_power_family, 1.0, ladder, None,
                                ratio_fn=_power_ratio(0.07), map_fn=pool.map)
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
