from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from schrodmax.maximal import TimeGrid
from schrodmax.profiles import (
    AnnulusBump,
    Case1Product,
    Case3Counterexample,
    CounterexampleParams,
    ModelParams,
    Modulated,
    PlaneWaveSurrogate,
    l1_fourier_mass,
    radial_profile,
    spectrum_eval,
)
from schrodmax.propagator import (
    SpaceTimePoint,
    _decay,
    _factorized_batch,
    _field_grid,
    abel_main_plus_error,
    dissipative_tail_bound,
    evaluate_free,
    evaluate_p_gamma,
    factorized_evaluate,
    torus_coefficient,
    torus_decay_slope,
)

TWO_PI = 2.0 * math.pi


def test_space_time_point_validation():
    SpaceTimePoint(x=(0.0, 1.0), t=0.0)
    with pytest.raises(ValueError):
        SpaceTimePoint(x=(0.0,), t=-1e-9)
    with pytest.raises(ValueError):
        SpaceTimePoint(x=(math.nan,), t=0.1)


def _factorized_at(t):
    cp = CounterexampleParams.for_experiments(ModelParams(d=2, gamma=2.0, R=256.0))
    x1_lo = -cp.c1 * cp.model.R ** (cp.model.gamma / 2.0 - 1.0)
    return _factorized_batch(cp, np.array([[0.75 * x1_lo, 0.0]]), np.array([t]))


@pytest.mark.parametrize("t", [math.nan, math.inf])
@pytest.mark.parametrize("make", [
    lambda t: SpaceTimePoint(x=(0.1, 0.2), t=t),
    lambda t: TimeGrid(points=(0.1, t)),
    _factorized_at,
], ids=["point", "time-grid", "factorized-batch"])
def test_non_finite_times_rejected(make, t):
    with pytest.raises(ValueError, match="finite"):
        make(t)


def test_evaluate_dimension_and_gamma_checks():
    f = PlaneWaveSurrogate(xi0=(3.0, 1.0), width=0.1)
    p = SpaceTimePoint(x=(0.0,), t=0.1)
    with pytest.raises(ValueError):
        evaluate_free(f, p)
    with pytest.raises(ValueError):
        evaluate_p_gamma(f, 0.0, SpaceTimePoint(x=(0.0, 0.0), t=0.1))


def test_plane_wave_free_evolution_oracle():
    """Narrow spectra evolve like the pure exponential at their center."""
    xi0 = (3.0, 1.0)
    amp = 0.8 - 0.3j
    f = PlaneWaveSurrogate(xi0=xi0, width=0.05, amplitude=amp)
    for x, t in [((0.3, -0.2), 0.07), ((0.0, 0.0), 0.0), ((-0.5, 0.4), 0.2)]:
        got = evaluate_free(f, SpaceTimePoint(x=x, t=t))
        phase = x[0] * xi0[0] + x[1] * xi0[1] + t * (xi0[0] ** 2 + xi0[1] ** 2)
        want = amp * cmath.exp(1j * phase)
        assert got == pytest.approx(want, rel=2e-3)


def test_dissipation_ratio_matches_center_decay():
    xi0 = (4.0, -2.0)
    f = PlaneWaveSurrogate(xi0=xi0, width=0.05)
    p = SpaceTimePoint(x=(0.1, 0.2), t=0.3)
    gamma = 1.5
    free = evaluate_free(f, p)
    damped = evaluate_p_gamma(f, gamma, p)
    want = math.exp(-p.t**gamma * (xi0[0] ** 2 + xi0[1] ** 2))
    assert abs(damped) / abs(free) == pytest.approx(want, rel=2e-3)


def test_zero_time_dissipation_is_identity():
    f = AnnulusBump(d=2, R=4.0)
    p = SpaceTimePoint(x=(0.2, -0.1), t=0.0)
    assert evaluate_p_gamma(f, 2.0, p) == evaluate_free(f, p)


def test_modulus_never_exceeds_spectral_mass():
    rng = np.random.default_rng(0)
    f1 = Case1Product(ModelParams(d=1, gamma=2.0, R=8.0))
    cap1 = TWO_PI**-1 * l1_fourier_mass(f1)
    for _ in range(1000):
        p = SpaceTimePoint(x=(float(rng.uniform(-2, 2)),),
                           t=float(rng.uniform(0, 1)))
        assert abs(evaluate_p_gamma(f1, 2.0, p)) <= cap1 * (1 + 1e-8)
    f2 = PlaneWaveSurrogate(xi0=(3.0, -1.0), width=0.3)
    cap2 = TWO_PI**-2 * l1_fourier_mass(f2)
    for _ in range(30):
        p = SpaceTimePoint(x=tuple(float(v) for v in rng.uniform(-1, 1, 2)),
                           t=float(rng.uniform(0, 1)))
        assert abs(evaluate_p_gamma(f2, 1.5, p)) <= cap2 * (1 + 1e-8)


def test_small_time_recovery_of_free_field():
    f = Case1Product(ModelParams(d=1, gamma=2.0, R=4.0))
    x = (0.3,)
    free0 = evaluate_free(f, SpaceTimePoint(x=x, t=0.0))
    t = 2.0**-20
    diff = abs(evaluate_p_gamma(f, 2.0, SpaceTimePoint(x=x, t=t)) - free0)
    assert diff <= 1e-3 * l1_fourier_mass(f) * max(1.0, 16.0 * t)
    coarse = abs(evaluate_p_gamma(f, 2.0, SpaceTimePoint(x=x, t=2.0**-8))
                 - free0)
    assert diff < coarse


def test_case1_profile_stays_order_one_near_origin():
    # frequency growth and ball shrinkage cancel, so no decay in R is
    # possible and the flat-exponent target is forced for gamma <= 1
    origins = []
    for R in (2.0**6, 2.0**10):
        g = Case1Product(ModelParams(d=2, gamma=1.0, R=R))
        origin = abs(evaluate_p_gamma(g, 1.0,
                                      SpaceTimePoint(x=(0.0, 0.0), t=0.0)))
        assert origin * TWO_PI**2 == pytest.approx(l1_fourier_mass(g),
                                                   rel=1e-12)
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = tuple(float(v) for v in
                      rng.uniform(-1.0, 1.0, 2) / (1000.0 * R))
            v = abs(evaluate_p_gamma(g, 1.0, SpaceTimePoint(x=x, t=0.0)))
            assert v == pytest.approx(origin, rel=1e-6)
        origins.append(origin)
    assert origins[0] == pytest.approx(origins[1], rel=1e-12)


def test_modulation_is_spatial_shift():
    base = PlaneWaveSurrogate(xi0=(2.0, 1.0), width=0.4)
    l, R = (3.0, -1.0), 8.0
    mod = Modulated(base=base, l=l, R=R)
    t = 0.05
    x = (0.25, -0.15)
    shifted = (x[0] + l[0] / R, x[1] + l[1] / R)
    a = evaluate_p_gamma(mod, 2.0, SpaceTimePoint(x=x, t=t))
    b = evaluate_p_gamma(base, 2.0, SpaceTimePoint(x=shifted, t=t))
    assert a == pytest.approx(b, rel=1e-9)


def _gauss(a, b, panels, order):
    u, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    mids = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (mids + half * u).ravel(), (half * w).ravel()


def _box_reference(f, x, t, decay, box):
    """Tensor Gauss-Legendre sum over a box holding the 2-d support."""
    (u, wu), (v, wv) = (_gauss(lo, hi, 20, 20) for lo, hi in box)
    xi = np.stack(np.meshgrid(u, v, indexing="ij"), axis=-1)
    amp = spectrum_eval(f, xi) * np.multiply.outer(wu, wv)
    sq = np.sum(xi * xi, axis=-1)
    return np.array([[np.sum(amp * np.exp(1j * (xi @ p) + (1j * s - dc) * sq))
                      for s, dc in zip(t, decay)] for p in x]) / TWO_PI**2


def _polar_reference(f, x, t, decay, box):
    """Gauss-Legendre sum in polar coordinates over the disc of radius box[1]."""
    r, wr = _gauss(0.0, box[1], 80, 32)
    th, wth = _gauss(0.0, TWO_PI, 16, 32)
    prof = radial_profile(f.profile, r / f.R) * r * wr
    dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
    out = np.empty((len(x), t.size), dtype=complex)
    for i, p in enumerate(x):
        ring = np.exp(1j * np.multiply.outer(r, dirs @ p)) @ wth
        out[i] = [np.sum(prof * ring * np.exp((1j * s - dc) * r * r))
                  for s, dc in zip(t, decay)]
    return out / TWO_PI**2


@pytest.mark.parametrize("f, gamma, reference, box", [
    (Case1Product(ModelParams(d=2, gamma=1.0, R=4.0)), 1.0, _box_reference,
     [(-4.0, 4.0)] * 2),
    (Modulated(base=Case1Product(ModelParams(d=2, gamma=1.0, R=4.0)),
               l=(2.0, -1.0), R=4.0), 1.0, _box_reference, [(-4.0, 4.0)] * 2),
    (PlaneWaveSurrogate(xi0=(2.0, -1.0), width=0.3), 2.0, _box_reference,
     [(1.7, 2.3), (-1.3, -0.7)]),
    (AnnulusBump(d=2, R=3.0), 2.0, _polar_reference, (0.0, 9.0)),
], ids=["product", "shifted-product", "plane-wave", "annulus"])
def test_field_grid_matches_fixed_gauss_sum(f, gamma, reference, box):
    """Engine matrices on a 3 x 3 grid of points and times, and point by point."""
    x = np.array([[0.1, -0.2], [0.5, 0.3], [-0.7, 0.0]])
    t = np.array([0.0, 0.05, 0.3])
    decay = _decay(t, gamma)
    want = reference(f, x, t, decay, box)
    tol = 1e-10 * np.max(np.abs(want))
    assert np.max(np.abs(_field_grid(f, x, t, decay, 1e-10) - want)) <= tol
    for i in range(3):
        for j in range(3):
            one = _field_grid(f, x[i:i + 1], t[j:j + 1], decay[j:j + 1], 1e-10)
            assert abs(one[0, 0] - want[i, j]) <= tol


def test_dissipative_tail_bound_properties():
    f = AnnulusBump(d=2, R=6.0)
    bound = dissipative_tail_bound(f, 2.0, 0.3, n_times=8)
    assert bound > 0.0
    assert dissipative_tail_bound(f, 2.0, 0.5, n_times=8) < bound
    with pytest.raises(ValueError):
        dissipative_tail_bound(f, 2.0, 0.0)
    with pytest.raises(ValueError):
        dissipative_tail_bound(f, 0.0, 0.3)


def test_torus_coefficient_symmetry_and_center():
    t, R, gamma = 1e-3, 8.0, 2.0
    c0 = torus_coefficient((0, 0), t, R, gamma)
    assert c0.value.imag == pytest.approx(0.0, abs=1e-12)
    assert c0.value.real > 0.0
    cp = torus_coefficient((3, 1), t, R, gamma)
    cm = torus_coefficient((-3, -1), t, R, gamma)
    assert cm.value == pytest.approx(cp.value.conjugate(), rel=1e-10)
    with pytest.raises(ValueError):
        torus_coefficient((0, 0), 0.9, R, gamma)


def test_torus_coefficients_decay():
    assert torus_decay_slope(1e-3, 8.0, 2.0, d=2, n_max=24) < -1.0


def _box_points(cp, n, seed):
    rng = np.random.default_rng(seed)
    m = cp.model
    x1_lo = -cp.c1 * m.R ** (m.gamma / 2.0 - 1.0)
    pts = []
    for _ in range(n):
        x = (float(rng.uniform(x1_lo, x1_lo / 2.0)),
             *(float(rng.uniform(-cp.c1, cp.c1)) for _ in range(m.d - 1)))
        pts.append(SpaceTimePoint(x=x, t=float(rng.uniform(0.0, 2.0 / m.R))))
    return pts


def test_factorized_matches_direct_evaluation():
    cp = CounterexampleParams.for_experiments(
        ModelParams(d=2, gamma=2.0, R=256.0))
    f = Case3Counterexample(params=cp)
    for p in _box_points(cp, 3, seed=11):
        fac = factorized_evaluate(cp, p)
        direct = evaluate_p_gamma(f, 2.0, p, rtol=1e-10)
        assert fac.product_modulus == pytest.approx(
            TWO_PI**2 * abs(direct), rel=1e-8)
        assert fac.product_modulus == pytest.approx(
            abs(fac.i1) * abs(fac.ij[0]), rel=1e-13)


def test_factorized_rejects_points_outside_box():
    cp = CounterexampleParams.for_experiments(
        ModelParams(d=2, gamma=2.0, R=256.0))
    with pytest.raises(ValueError):
        factorized_evaluate(cp, SpaceTimePoint(x=(0.5, 0.0), t=1e-3))


def test_factorized_gamma_eval_threading():
    """Data built at the quadratic exponent, evolved at a larger one."""
    cp = CounterexampleParams.for_experiments(
        ModelParams(d=2, gamma=2.0, R=256.0))
    f = Case3Counterexample(params=cp)
    p = _box_points(cp, 1, seed=5)[0]
    fac = factorized_evaluate(cp, p, gamma_eval=3.0)
    direct = evaluate_p_gamma(f, 3.0, p, rtol=1e-10)
    assert fac.product_modulus == pytest.approx(TWO_PI**2 * abs(direct),
                                                rel=1e-8)


def test_abel_main_term_brackets_comb_factor():
    cp = CounterexampleParams.for_experiments(
        ModelParams(d=2, gamma=2.0, R=1024.0))
    for p in _box_points(cp, 3, seed=3):
        fac = factorized_evaluate(cp, p)
        main, e1 = abel_main_plus_error(cp, p, 1)
        assert abs(fac.ij[0] - main) <= e1 + 1e-12
    with pytest.raises(ValueError):
        abel_main_plus_error(cp, _box_points(cp, 1, seed=3)[0], 0)


def test_factorized_batch_not_degenerate_at_selected_times():
    """At the selected rational times the window factor stays near one."""
    from schrodmax.counterexample import sample_omega_star, select_time

    cp = CounterexampleParams.for_experiments(
        ModelParams(d=2, gamma=2.0, R=float(2**16)))
    samples = [s for s in sample_omega_star(cp, 400, seed=2) if s.x is not None]
    assert samples
    smp = samples[0]
    t = select_time(cp, smp)
    fac = factorized_evaluate(cp, SpaceTimePoint(x=smp.x, t=t))
    assert abs(fac.i1) > 1.0 - cp.c0
