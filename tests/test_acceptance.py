"""Acceptance gate: ten numbered checks, one printed verdict line each.

Run with -s to see the verdict lines; each check also enforces its own
wall-clock budget.  Root seeds are fixed here and were chosen before the
first full-size run of the sampled experiments.
"""

from __future__ import annotations

import math
import time

import numpy as np

from schrodmax.counterexample import (
    calibration_constants,
    lower_bound_experiment,
    omega_star_chain_bound,
    omega_star_measure,
    sample_omega_star,
)
from schrodmax.maximal import SpaceGrid, TimeGrid, exponent_sweep, fit_loglog
from schrodmax.numbertheory import (
    CubeFamily,
    GaussSumParams,
    abel_sum_identity,
    gauss_modulus_law,
    vitali_scaled_union,
    weyl_calibration,
)
from schrodmax.profiles import (
    Case1Product,
    Case3Counterexample,
    CounterexampleParams,
    ModelParams,
    sobolev_norm,
)
from schrodmax.propagator import (
    SpaceTimePoint,
    evaluate_p_gamma,
    factorized_evaluate,
)

TWO_PI = 2.0 * math.pi
SEED = 0


def _verdict(num, name, ok, elapsed, budget, detail):
    line = (f"[{num:>2}/10] {name}: {'PASS' if ok else 'FAIL'} "
            f"({elapsed:.1f}s / {budget:.0f}s) {detail}")
    print(line, flush=True)
    assert ok, line
    assert elapsed < budget, line


def _exp_params(R, d=2, gamma=2.0):
    return CounterexampleParams.for_experiments(
        ModelParams(d=d, gamma=gamma, R=float(R)))


def test_01_gauss_modulus_law_exhaustive():
    start = time.monotonic()
    cases = 0
    ok = True
    for q in range(4, 257, 4):
        for a in (a for a in range(1, q) if math.gcd(a, q) == 1):
            for b in range(0, q, 2):
                ok = ok and gauss_modulus_law(GaussSumParams(a=a, b=b, q=q))
                cases += 1
    elapsed = time.monotonic() - start
    _verdict(1, "complete quadratic sum modulus law", ok, elapsed, 10.0,
             f"{cases} cases, |G| = sqrt(2q) to 1e-9 sqrt(q)")


def test_02_weyl_calibration_growth():
    start = time.monotonic()
    rho = weyl_calibration()
    elapsed = time.monotonic() - start
    ok = rho[4096] < 2.0 * rho[256]
    _verdict(2, "incomplete quadratic sum calibration", ok, elapsed, 60.0,
             f"rho*(4096) = {rho[4096]:.4f} vs 2 rho*(256) = {2 * rho[256]:.4f}")


def test_03_abel_identity_random():
    start = time.monotonic()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(1000):
        N = int(rng.integers(0, 61))
        M = int(rng.integers(-20, 21))
        coeff = rng.uniform(-5, 5, N + 1) + 1j * rng.uniform(-5, 5, N + 1)
        omega = float(rng.uniform(-0.5, 0.5))
        lhs, rhs = abel_sum_identity(
            coeff, lambda n: complex(math.cos(omega * n), math.sin(0.3 * n)),
            M, N)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    elapsed = time.monotonic() - start
    _verdict(3, "summation-by-parts identity", worst <= 1e-12, elapsed, 5.0,
             f"1000 instances, worst relative gap {worst:.2e}")


def test_04_vitali_covering_bound():
    start = time.monotonic()
    rng = np.random.default_rng(SEED)
    min_margin = math.inf
    for _ in range(1000):
        dim = int(rng.integers(1, 4))
        n = int(rng.integers(1, 6))
        cubes = tuple(
            (tuple(float(c) for c in rng.uniform(-3, 3, dim)),
             float(rng.uniform(0.05, 2.5)))
            for _ in range(n))
        scale = float(rng.uniform(0.05, 0.95))
        union, scaled, bound = vitali_scaled_union(
            CubeFamily(cubes=cubes, scale=scale))
        assert union >= scaled
        min_margin = min(min_margin, scaled / bound)
    elapsed = time.monotonic() - start
    _verdict(4, "scaled covering measure bound", min_margin >= 1.0 - 1e-9,
             elapsed, 60.0,
             f"1000 families, min scaled/bound = {min_margin:.3f}")


def test_05_factorized_matches_direct():
    start = time.monotonic()
    cp = _exp_params(2.0**8)
    mp = cp.model
    rng = np.random.default_rng(SEED)
    x1_lo = -cp.c1 * mp.R ** (mp.gamma / 2.0 - 1.0)
    worst = 0.0
    for _ in range(20):
        x = (float(rng.uniform(x1_lo, x1_lo / 2.0)),
             float(rng.uniform(-cp.c1, cp.c1)))
        p = SpaceTimePoint(x=x, t=float(rng.uniform(0.0, 2.0 / mp.R)))
        fac = factorized_evaluate(cp, p)
        direct = evaluate_p_gamma(Case3Counterexample(cp), mp.gamma, p,
                                  rtol=1e-8)
        denom = max(TWO_PI**mp.d * abs(direct), 1e-300)
        worst = max(worst, abs(fac.product_modulus - denom) / denom)
    elapsed = time.monotonic() - start
    _verdict(5, "factorized vs direct evaluation", worst <= 1e-4, elapsed,
             600.0, f"d=2 R=2^8, 20 points, worst relative error {worst:.2e}")


def test_06_sobolev_scaling_slope():
    start = time.monotonic()
    ladder = [2.0**k for k in range(12, 23, 2)]
    d, gamma = 2, 2.0
    detail = []
    ok = True
    for s in (0.0, 1.0 / 3.0):
        norms = [sobolev_norm(Case3Counterexample(
            CounterexampleParams.with_defaults(
                ModelParams(d=d, gamma=gamma, R=R))), s) for R in ladder]
        slope, _ = fit_loglog(ladder, norms)
        pred = (-0.25 + (d - 1) / 2.0
                * (gamma / 2.0 - (d + gamma) / (2.0 * (d + 1)))
                + gamma * s / 2.0)
        ok = ok and abs(slope - pred) <= 0.02
        detail.append(f"s={s:.3f}: {slope:+.4f} vs {pred:+.4f}")
    elapsed = time.monotonic() - start
    _verdict(6, "data-norm scaling slope", ok, elapsed, 60.0,
             "; ".join(detail))


def test_07_lower_bound_slopes_flat_data():
    start = time.monotonic()
    ladder = [_exp_params(2.0**k) for k in range(16, 25)]
    rep = lower_bound_experiment(ladder, 10_000, SEED, s=0.0)
    elapsed = time.monotonic() - start
    ok = (rep.ratio_slope >= 1.0 / 3.0 - 0.1
          and abs(rep.point_slope - 0.25) <= 0.1)
    _verdict(7, "sampled lower-bound growth, s=0", ok, elapsed, 900.0,
             f"ratio slope {rep.ratio_slope:.4f} (>= {1/3 - 0.1:.4f}), "
             f"point slope {rep.point_slope:.4f} (0.25 +- 0.1)")


def test_08_lower_bound_neutralized_at_threshold():
    start = time.monotonic()
    ladder = [_exp_params(2.0**k) for k in range(16, 25)]
    rep = lower_bound_experiment(ladder, 10_000, SEED, s=1.0 / 3.0)
    elapsed = time.monotonic() - start
    _verdict(8, "sampled lower-bound growth, s=1/3", rep.ratio_slope <= 0.1,
             elapsed, 900.0, f"ratio slope {rep.ratio_slope:.4f} (<= 0.1)")


def test_09_shrinking_dissipation_ratio_flat():
    start = time.monotonic()

    def family(R):
        return Case1Product(ModelParams(d=2, gamma=0.5, R=R))

    def grids(R):
        return (TimeGrid.hybrid(R, geometric=64, cap=1 << 14),
                SpaceGrid(radius=1.0, per_axis=64))

    rep = exponent_sweep(family, 0.5, [2.0**k for k in range(4, 8)], grids)
    elapsed = time.monotonic() - start
    ok = rep.verdict and rep.fitted_slope <= 0.1
    _verdict(9, "product-data sweep stays flat", ok, elapsed, 1800.0,
             f"slope {rep.fitted_slope:+.4f} +- {rep.slope_stderr:.4f} "
             f"(target 0, tolerance 0.1)")


def test_10_preimage_sampling_chain():
    start = time.monotonic()
    cp = CounterexampleParams.with_defaults(
        ModelParams(d=2, gamma=2.0, R=2.0**16))
    samples = sample_omega_star(cp, 10_000, seed=SEED)
    mp = cp.model
    M1 = cp.D**2 / (2.0 * mp.R ** (mp.gamma / 2.0))
    x, y = samples.x[samples.valid], samples.y[samples.valid]
    n_valid = len(x)
    r = np.concatenate([-M1 * x[:, 0] - y[:, 0], cp.D * x[:, 1] - y[:, 1]]) % TWO_PI
    worst = float(np.max(np.minimum(r, TWO_PI - r), initial=0.0))
    mean, err = omega_star_measure(samples)
    chain = omega_star_chain_bound(cp)
    ok = worst <= 1e-9 and n_valid > 0 and mean - 1.96 * err >= chain
    elapsed = time.monotonic() - start
    _verdict(10, "congruence residues and measure chain", ok, elapsed, 300.0,
             f"{n_valid} valid of 10000, worst residue {worst:.1e}, "
             f"measure {mean:.3e} (95% floor {mean - 1.96 * err:.3e}) "
             f"vs bound {chain:.3e}")


def test_calibration_available_for_experiments():
    cal = calibration_constants(2, 2.0)
    assert cal["c_gauss"] > 0.0 and cal["c_delta0"] > 0.0
