from __future__ import annotations

import cmath
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import schrodmax
from schrodmax import profiles, propagator, quadrature
from schrodmax.maximal import SpaceGrid, TimeGrid
from schrodmax.profiles import (
    Case1Product,
    Case3Counterexample,
    Cells,
    CounterexampleParams,
    ModelParams,
    PlaneWaveSurrogate,
    comb_range,
    l1_fourier_mass,
    spectrum_eval,
)
from schrodmax.propagator import (
    SpaceTimePoint,
    _FACTOR_ORDER,
    _RHO,
    _SERIES_ORDER,
    _SERIES_RADIUS,
    _TAYLOR,
    _bump_series,
    _bump_sum,
    _cell_matrix,
    _factorized_batch,
    _field_grid,
    _plane_phase_sum,
    _unit_bump,
    evaluate_p_gamma,
    factorized_evaluate,
)
from schrodmax.quadrature import double_panels, panel_nodes

TWO_PI = 2.0 * math.pi


def _free(f, p):
    """The free evolution at one point: the grid engine's 1 x 1 case without dissipation."""
    x = np.asarray(p.x, dtype=float)
    return complex(_field_grid(f, x[None, :], np.array([p.t]), np.zeros(1),
                               propagator._POINT_RTOL)[0, 0])


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
        evaluate_p_gamma(f, 2.0, p)
    with pytest.raises(ValueError):
        evaluate_p_gamma(f, 0.0, SpaceTimePoint(x=(0.0, 0.0), t=0.1))


def test_plane_wave_free_evolution_oracle():
    """Narrow spectra evolve like the pure exponential at their center."""
    xi0 = (3.0, 1.0)
    amp = 0.8 - 0.3j
    f = PlaneWaveSurrogate(xi0=xi0, width=0.05, amplitude=amp)
    for x, t in [((0.3, -0.2), 0.07), ((0.0, 0.0), 0.0), ((-0.5, 0.4), 0.2)]:
        got = _free(f, SpaceTimePoint(x=x, t=t))
        phase = x[0] * xi0[0] + x[1] * xi0[1] + t * (xi0[0] ** 2 + xi0[1] ** 2)
        want = amp * cmath.exp(1j * phase)
        assert got == pytest.approx(want, rel=2e-3)


def test_dissipation_ratio_matches_center_decay():
    xi0 = (4.0, -2.0)
    f = PlaneWaveSurrogate(xi0=xi0, width=0.05)
    p = SpaceTimePoint(x=(0.1, 0.2), t=0.3)
    gamma = 1.5
    free = _free(f, p)
    damped = evaluate_p_gamma(f, gamma, p)
    want = math.exp(-p.t**gamma * (xi0[0] ** 2 + xi0[1] ** 2))
    assert abs(damped) / abs(free) == pytest.approx(want, rel=2e-3)


def test_zero_time_dissipation_is_identity():
    f = Case1Product(ModelParams(d=2, gamma=2.0, R=4.0))
    p = SpaceTimePoint(x=(0.2, -0.1), t=0.0)
    assert evaluate_p_gamma(f, 2.0, p) == _free(f, p)


_COLD_IMPORT = """
import json, sys
import schrodmax, schrodmax.cli
loaded = sorted(m for m in sys.modules
                if m.split(".")[0] == "scipy" or m == "concurrent.futures.process")
from schrodmax.profiles import Case1Product, ModelParams
from schrodmax.propagator import SpaceTimePoint, evaluate_p_gamma
v = evaluate_p_gamma(Case1Product(ModelParams(d=2, gamma=2.0, R=4.0)), 2.0,
                     SpaceTimePoint(x=(0.2, -0.1), t=0.3))
after = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"at_import": loaded, "after_field": after, "value": [v.real, v.imag]}))
"""


def test_import_loads_neither_scipy_nor_process_pool():
    """A fresh process imports the package without scipy or a process pool,
    and evaluates a field, the value computed here, still without scipy."""
    env = dict(os.environ, PYTHONPATH=str(Path(schrodmax.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", _COLD_IMPORT], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    got = json.loads(out.splitlines()[-1])
    assert got["at_import"] == []
    assert got["after_field"] == []
    want = evaluate_p_gamma(Case1Product(ModelParams(d=2, gamma=2.0, R=4.0)), 2.0,
                            SpaceTimePoint(x=(0.2, -0.1), t=0.3))
    assert complex(*got["value"]) == want


_VERB_PATHS = """
import json, sys, tempfile
from schrodmax import cli
from schrodmax.profiles import Case1Product, ModelParams
from schrodmax.propagator import SpaceTimePoint, evaluate_p_gamma
verbs = [
    ["maximal-sweep", "--d", "2", "--gamma", "0.5", "--ladder", "2^2 2^3 2^4 2^5",
     "--set", "space.per_axis=8"],
    ["counterexample", "--d", "2", "--gamma", "2", "--ladder", "2^16 2^17 2^18 2^19",
     "--samples", "200", "--seed", "0"],
    ["lemmas-verify", "--seed", "1"],
]
loaded = {}
with tempfile.TemporaryDirectory() as out:
    for argv in verbs:
        # 0 or 1: the run completed, its verdicts passed or not
        completed = cli.main(argv + ["--out", out]) in (0, 1)
        loaded[argv[0]] = [completed, "numpy.ma" in sys.modules]
evaluate_p_gamma(Case1Product(ModelParams(d=2, gamma=2.0, R=4.0)), 2.0,
                 SpaceTimePoint(x=(0.2, -0.1), t=0.3))
loaded["evaluate_p_gamma"] = [True, "numpy.ma" in sys.modules]
print(json.dumps(loaded))
"""


def test_no_verb_loads_masked_arrays():
    """A maximal sweep, a counterexample ladder, lemmas-verify and a one-point
    evaluation run to completion in a fresh process without loading numpy.ma,
    whose import would cost every operation that first reached it about 14 ms."""
    env = dict(os.environ, PYTHONPATH=str(Path(schrodmax.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", _VERB_PATHS], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    got = json.loads(out.splitlines()[-1])
    assert got == {name: [True, False] for name in
                   ("maximal-sweep", "counterexample", "lemmas-verify", "evaluate_p_gamma")}


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
    free0 = _free(f, SpaceTimePoint(x=x, t=0.0))
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


@pytest.mark.parametrize("f, gamma, reference, box", [
    (Case1Product(ModelParams(d=2, gamma=1.0, R=4.0)), 1.0, _box_reference,
     [(-4.0, 4.0)] * 2),
    (PlaneWaveSurrogate(xi0=(2.0, -1.0), width=0.3), 2.0, _box_reference,
     [(1.7, 2.3), (-1.3, -0.7)]),
], ids=["product", "plane-wave"])
def test_field_grid_matches_fixed_gauss_sum(f, gamma, reference, box):
    """Engine matrices on a 3 x 3 grid of points and times, and point by point."""
    x = np.array([[0.1, -0.2], [0.5, 0.3], [-0.7, 0.0]])
    t = np.array([0.0, 0.05, 0.3])
    decay = t ** gamma
    want = reference(f, x, t, decay, box)
    tol = 1e-10 * np.max(np.abs(want))
    assert np.max(np.abs(_field_grid(f, x, t, decay, 1e-10) - want)) <= tol
    for i in range(3):
        for j in range(3):
            one = _field_grid(f, x[i:i + 1], t[j:j + 1], decay[j:j + 1], 1e-10)
            assert abs(one[0, 0] - want[i, j]) <= tol


def _mesh(d, scales=None):
    """A 3^d meshgrid of points, axis a scaled by scales[a]."""
    axis = np.array([-0.6, 0.1, 0.5])
    pts = np.stack([g.ravel() for g in np.meshgrid(*([axis] * d), indexing="ij")], axis=1)
    return pts if scales is None else pts * np.asarray(scales)


@pytest.mark.parametrize("f, x, calls", [
    (Case1Product(ModelParams(d=2, gamma=0.5, R=4.0)), _mesh(2), 1),
    (Case1Product(ModelParams(d=3, gamma=0.5, R=4.0)), _mesh(3), 1),
    (PlaneWaveSurrogate(xi0=(2.0, 1.0, 1.0), width=0.3), _mesh(3), 2),
    (PlaneWaveSurrogate(xi0=(2.0, -1.0, 0.5), width=0.3), _mesh(3), 3),
    (Case1Product(ModelParams(d=3, gamma=0.5, R=4.0)), _mesh(3, (1.0, 0.5, 0.25)), 3),
], ids=["product-d2", "product-d3", "plane-wave-equal", "plane-wave-distinct",
        "product-distinct-coordinates"])
def test_field_matrix_per_distinct_factor_and_coordinates(monkeypatch, f, x, calls):
    """Axes sharing a factor object and their coordinates share one _cell_matrix call."""
    seen = []

    def counting(*args):
        seen.append(args)
        return _cell_matrix(*args)

    monkeypatch.setattr(propagator, "_cell_matrix", counting)
    t = np.array([0.0, 0.01, 0.2])
    _field_grid(f, x, t, t ** 0.5, 1e-9)
    assert len(seen) == calls


def test_shared_field_matrix_equals_per_axis_matrices():
    """The shared-matrix field equals the product of matrices computed axis by axis."""
    f = Case1Product(ModelParams(d=2, gamma=0.5, R=4.0))
    x = _mesh(2)
    t = np.array([0.0, 0.01, 0.2])
    decay = t ** 0.5
    per_axis = []
    for axis, cells in enumerate(f.factors_by_axis()):
        coords, rows = np.unique(x[:, axis], return_inverse=True)
        per_axis.append(_cell_matrix(cells, coords, t, decay, 1e-9)[rows])
    want = per_axis[0] * TWO_PI**-2 * per_axis[1]
    assert np.array_equal(_field_grid(f, x, t, decay, 1e-9), want)


def test_octaves_that_need_one_rule_share_its_doubling_loop(monkeypatch):
    """The hybrid grid's geometric times, one per octave, share one double_panels call.

    Each of their columns keeps the value a loop of its own time gives.
    """
    f = Case1Product(ModelParams(d=2, gamma=0.5, R=4.0))
    cells, _ = f.factors_by_axis()
    xv = SpaceGrid(per_axis=32).axis_points()
    t = np.array(TimeGrid.hybrid(4.0).points)
    decay = t ** 0.5
    geometric = set(t[:64].tolist())
    calls = []

    def counting(*args, **kwargs):
        calls.append(set())
        return double_panels(*args, **kwargs)

    def spy(pts, xi, coef, lead, even, runs):
        calls[-1].update(lead.imag.tolist())
        return _plane_phase_sum(pts, xi, coef, lead, even, runs)

    monkeypatch.setattr(propagator, "double_panels", counting)
    monkeypatch.setattr(propagator, "_plane_phase_sum", spy)
    matrix = _cell_matrix(cells, xv, t, decay, 1e-9)
    sharing = [times for times in calls if times & geometric]
    assert len(sharing) == 1 and geometric <= sharing[0]
    for k in range(64):
        alone = _cell_matrix(cells, xv, t[k:k + 1], decay[k:k + 1], 1e-9)
        np.testing.assert_allclose(matrix[:, k], alone[:, 0], rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("chunk", [quadrature._CHUNK, 200], ids=["budget", "blocked"])
@pytest.mark.parametrize("even", [True, False], ids=["symmetric-even", "asymmetric"])
@pytest.mark.parametrize("members", [1, 3])
@pytest.mark.parametrize("points, times", [(1, 1), (1, 4), (5, 1), (5, 4)],
                         ids=["1x1", "1xT", "Xx1", "XxT"])
def test_plane_phase_sum_matches_a_direct_node_sum(monkeypatch, points, times, members,
                                                    even, chunk):
    """The kernel equals sum_k c_k e^{i x xi_k + lead xi_k^2}, summed node by node,
    to 1e-13 of each member's sum |c|, at every shape, folded or not.

    A budget of 200 entries splits three one-point asymmetric members into
    blocks of two, and a five-row member's nodes into blocks of 40.
    """
    monkeypatch.setattr(quadrature, "_CHUNK", chunk)
    rng = np.random.default_rng(points * times + members)
    u, _ = panel_nodes(-1.0, 1.0, 3)
    # an even rule is a symmetric one on a cell centred at 0
    centres = np.zeros(members) if even else rng.uniform(0.5, 3.0, members)
    xi = centres[:, None] + rng.uniform(0.5, 2.0, members)[:, None] * u
    coef = rng.standard_normal(xi.shape) + 1j * rng.standard_normal(xi.shape)
    xv = rng.uniform(-2.0, 2.0, points)
    t = rng.uniform(0.0, 0.5, times)
    lead = 1j * t - t ** 0.5
    want = np.zeros((members, points, times), dtype=complex)
    for z, c in zip(xi.T, coef.T):
        want += c[:, None, None] * np.exp(1j * np.multiply.outer(z, xv)[..., None]
                                          + np.multiply.outer(z * z, lead)[:, None])
    got = _plane_phase_sum(xv, xi, coef, lead, even, propagator._uniform_runs(t))
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(coef).sum(axis=1)[:, None, None])


@pytest.fixture
def time_table_rows(monkeypatch):
    """Rows of every time table _plane_phase_sum builds, in order."""
    rows = []

    def recording(z, lead, runs):
        rows.append(z.size)
        return table(z, lead, runs)

    table = propagator._time_table
    monkeypatch.setattr(propagator, "_time_table", recording)
    return rows


def test_symmetric_cell_folds_its_time_table(time_table_rows):
    """On a cell centred at 0 the time table covers the nonnegative nodes only."""
    f = Case1Product(ModelParams(d=2, gamma=0.5, R=4.0))
    cells, _ = f.factors_by_axis()
    assert cells.centres.tolist() == [0.0]
    u, w = panel_nodes(-1.0, 1.0, 3)
    # one member: a row of nodes and one of coefficients
    xi, coef = cells.half[:1, None] * u, _unit_bump(u) * w[None]
    xv = SpaceGrid(per_axis=32).axis_points()
    t = np.array(TimeGrid.hybrid(4.0).points)
    lead = 1j * t - t ** 0.5
    runs = propagator._uniform_runs(t)
    folded = _plane_phase_sum(xv, xi, coef, lead, True, runs)
    assert sum(time_table_rows) == xi.size // 2
    time_table_rows.clear()
    whole = _plane_phase_sum(xv, xi, coef, lead, False, runs)
    assert sum(time_table_rows) == xi.size
    np.testing.assert_allclose(folded, whole, rtol=1e-14, atol=0.0)


def test_asymmetric_cell_keeps_every_time_table_row(monkeypatch, time_table_rows):
    """A plane-wave axis's cell is not symmetric about 0: each pass tables all its nodes."""
    f = PlaneWaveSurrogate(xi0=(2.0, 1.0), width=0.3)
    cells = f.factors_by_axis()[0]
    nodes = []

    def spy(pts, xi, coef, lead, even, runs):
        assert not even
        nodes.append(xi.size)
        return _plane_phase_sum(pts, xi, coef, lead, even, runs)

    monkeypatch.setattr(propagator, "_plane_phase_sum", spy)
    t = np.array([0.01, 0.2, 0.5])
    _cell_matrix(cells, _mesh(1)[:, 0], t, t ** 0.5, 1e-9)
    assert len(nodes) >= 2 and sum(time_table_rows) == sum(nodes)


def _direct_time_table(z, lead):
    """e^{lead z^2}, one np.exp per entry."""
    table = np.multiply.outer(z * z, lead)
    return np.exp(table, out=table)


def _uniform_times(n, lo=0.25, hi=1.0):
    """n times from lo, spaced (hi - lo) / n, as TimeGrid.hybrid spaces its tail."""
    return lo + (hi - lo) * (np.arange(n) / n)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [2, 3, 17, 511, 512, 513])
def test_time_table_on_uniform_times_matches_direct_exponentials(n, gamma):
    """Three members' nodes in [-1, 1] against n uniform times: the table by
    runs stays within 1e-15 of one np.exp per entry (2 and 3 times take
    np.exp directly)."""
    rng = np.random.default_rng(n)
    z = rng.uniform(-1.0, 1.0, (3, 40))
    t = _uniform_times(n)
    lead = 1j * t - t ** gamma
    runs = propagator._uniform_runs(t)
    assert (runs is None) == (n <= 3)
    got = propagator._time_table(z, lead, runs)
    assert got.shape == (3, 40, n)
    assert np.max(np.abs(got - _direct_time_table(z, lead))) <= 1e-15


@pytest.mark.parametrize("t", [
    np.array([0.3]),
    2.0 ** -10 * 2.0 ** -np.arange(63, -1, -1.0),
    _uniform_times(512) + np.where(np.arange(512) == 300, 1e-12, 0.0),
], ids=["one-time", "geometric", "perturbed-uniform"])
def test_time_table_on_other_times_is_the_direct_table(t):
    """Times that are not t_0 + k dt take one np.exp per entry, bit for bit."""
    z = np.random.default_rng(1).uniform(-3.0, 3.0, (2, 40))
    lead = 1j * t - t ** 0.5
    assert propagator._uniform_runs(t) is None
    assert np.array_equal(propagator._time_table(z, lead, None), _direct_time_table(z, lead))


def test_time_table_on_uniform_times_takes_two_root_n_exponentials(monkeypatch):
    """512 uniform times cost at most 2 ceil(sqrt(512)) = 46 complex
    exponentials per node, in place of 512; the real damping is not counted."""
    class CountingNumpy:
        complex_entries = 0

        def __getattr__(self, name):
            return getattr(np, name)

        def exp(self, a, *args, **kwargs):
            if np.iscomplexobj(a):
                CountingNumpy.complex_entries += np.size(a)
            return np.exp(a, *args, **kwargs)

    z = np.random.default_rng(2).uniform(-1.0, 1.0, (1, 37))
    t = _uniform_times(512)
    monkeypatch.setattr(propagator, "np", CountingNumpy())
    table = propagator._time_table(z, 1j * t - t ** 0.5, propagator._uniform_runs(t))
    monkeypatch.undo()
    assert table.shape == (1, 37, 512)
    assert 0 < CountingNumpy.complex_entries <= 2 * math.ceil(math.sqrt(512)) * 37


def test_each_doubling_loop_takes_its_time_table_route_once(monkeypatch):
    """The route depends on a loop's time columns alone: one _uniform_runs
    call per doubling loop, whatever its passes and blocks."""
    f = Case1Product(ModelParams(d=2, gamma=0.5, R=4.0))
    cells, _ = f.factors_by_axis()
    t = np.array(TimeGrid.hybrid(4.0).points)
    calls = {"loops": 0, "routes": 0, "tables": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name, attr in (("loops", "double_panels"), ("routes", "_uniform_runs"),
                       ("tables", "_time_table")):
        monkeypatch.setattr(propagator, attr, counting(name, getattr(propagator, attr)))
    _cell_matrix(cells, SpaceGrid(per_axis=32).axis_points(), t, t ** 0.5, 1e-9)
    assert calls["routes"] == calls["loops"] < calls["tables"]


@pytest.mark.parametrize("R", [2.0 ** k for k in range(2, 11)])
def test_hybrid_uniform_tail_splits_into_runs(R):
    """Every 512-time block of TimeGrid.hybrid's uniform tail, from R^-2 on,
    takes the time table by runs: a grid change that left them would show."""
    ts = np.array(TimeGrid.hybrid(R).points)
    tail = ts[ts >= R ** -2.0]
    blocks = [tail[at:at + 512] for at in range(0, tail.size, 512)]
    assert blocks and all(propagator._uniform_runs(b) is not None for b in blocks)


@pytest.mark.parametrize("f", [
    Case1Product(ModelParams(d=2, gamma=0.5, R=4.0)),
    Case3Counterexample(params=CounterexampleParams.for_experiments(
        ModelParams(d=2, gamma=2.0, R=64.0))),
    PlaneWaveSurrogate(xi0=(2.0, -1.0), width=0.3, amplitude=0.7 + 0.2j),
], ids=["product", "case3", "plane-wave"])
def test_cell_rounding_floor_is_the_cell_mass(monkeypatch, f):
    """Each (cell, time) column of a doubling loop takes the modulus of its
    cell's weight as the L1 mass of its integrand, which a fine Gauss rule
    over the cell confirms."""
    masses = {}
    nodes = []

    def phase_spy(pts, xi, coef, lead, even, runs):
        nodes.append(xi)
        return _plane_phase_sum(pts, xi, coef, lead, even, runs)

    def loop_spy(*args, mass, **kwargs):
        nodes.clear()
        out = double_panels(*args, mass=mass, **kwargs)
        # the first pass's nodes, one row per cell, tell the loop's cells apart
        for row, column_masses in zip(nodes[0], np.broadcast_to(mass, out.shape[1:])):
            inside = (cells.centres - cells.half <= row.min()) & (
                row.max() <= cells.centres + cells.half)
            (i,) = np.flatnonzero(inside)
            masses.setdefault(int(i), []).extend(column_masses.tolist())
        return out

    monkeypatch.setattr(propagator, "_plane_phase_sum", phase_spy)
    monkeypatch.setattr(propagator, "double_panels", loop_spy)
    u, w = np.polynomial.legendre.leggauss(300)
    t = np.zeros(1)
    for cells in {id(c): c for c in f.factors_by_axis()}.values():
        masses.clear()
        _cell_matrix(cells, np.array([0.1, 0.4]), t, t, 1e-9)
        assert masses == {i: [abs(v)] for i, v in enumerate(cells.weight.tolist())}
        for c, h, (mass,) in zip(cells.centres, cells.half, masses.values()):
            l1 = np.abs(profiles._cells_eval(cells, c + h * u)) @ (h * w)
            assert l1 == pytest.approx(mass, rel=1e-12)


def _per_cell_matrix(cells, pts, t, decay, rtol):
    """The sum of one-cell _cell_matrix calls, one loop per cell, in cell order."""
    out = np.zeros((pts.size, t.size), dtype=complex)
    for c, h, w in zip(cells.centres, cells.half, cells.weight):
        out += _cell_matrix(profiles.Cells(c, h, w), pts, t, decay, rtol)
    return out


@pytest.mark.parametrize("R", [64.0, 2048.0])
@pytest.mark.parametrize("points, times", [(1, 1), (5, 6)], ids=["point", "grid"])
def test_cells_sharing_a_rule_match_their_own_loops(monkeypatch, R, points, times):
    """Cells that share one doubling loop give what a loop per cell gives.

    Case3Counterexample's comb teeth share loops and stay within 1e-12
    relative of the per-cell sum.  Where every loop has one cell (the
    window, teeth whose widths set distinct panel counts) or the one cell
    is centred at 0 (Case1Product), the matrix is the per-cell sum bit
    for bit.
    """
    members = []

    def loop_spy(*args, mass, **kwargs):
        members.append(np.shape(mass)[0])
        return double_panels(*args, mass=mass, **kwargs)

    monkeypatch.setattr(propagator, "double_panels", loop_spy)
    cp = CounterexampleParams.for_experiments(ModelParams(d=2, gamma=2.0, R=R))
    window, comb = Case3Counterexample(params=cp).factors_by_axis()
    rng = np.random.default_rng(int(R) + points)
    t = np.sort(rng.uniform(0.0, 2.0 / R, times))
    t[0] = 0.0 if times > 1 else t[0]
    decay = t ** 2.0
    x1 = np.sort(rng.uniform(cp.x1_lo, cp.x1_lo / 2.0, points))
    xj = np.sort(rng.uniform(-cp.c1, cp.c1, points))
    grouped = _cell_matrix(comb, xj, t, decay, 1e-10)
    assert max(members) > 1
    alone = _per_cell_matrix(comb, xj, t, decay, 1e-10)
    assert np.max(np.abs(grouped - alone)) <= 1e-12 * np.max(np.abs(alone))
    # half-widths 1.5 apart in ratio, met at |x| up to 40, need distinct panels
    size = comb.centres.size
    distinct = profiles.Cells(comb.centres, 0.5 * 1.5 ** np.arange(size),
                              np.exp(1j * np.arange(size)))
    product, _ = Case1Product(ModelParams(d=2, gamma=2.0, R=R)).factors_by_axis()
    for cells, pts in [(window, x1), (distinct, np.linspace(-40.0, 40.0, points)),
                       (product, xj)]:
        members.clear()
        matrix = _cell_matrix(cells, pts, t, decay, 1e-10)
        assert set(members) == {1}
        assert np.array_equal(matrix, _per_cell_matrix(cells, pts, t, decay, 1e-10))


def test_check_5_runs_one_loop_per_rule(monkeypatch):
    """On check 5's data every _cell_matrix call runs one double_panels loop
    per distinct rule, however many cells need it."""
    cp = CounterexampleParams.for_experiments(ModelParams(d=2, gamma=2.0, R=256.0))
    f = Case3Counterexample(params=cp)
    rules, loops, calls = set(), [], []
    cell_matrix, rule_for = propagator._cell_matrix, propagator.panels_for_rate

    def rule_spy(a, b, rate, *args):
        panels = rule_for(a, b, rate, *args)
        rules.add((a, b, panels))
        return panels

    def loop_spy(*args, **kwargs):
        loops.append(1)
        return double_panels(*args, **kwargs)

    def matrix_spy(cells, *args):
        rules.clear()
        loops.clear()
        assert not np.any(cells.centres == 0.0)  # no cell folds a loop of its own
        out = cell_matrix(cells, *args)
        calls.append((len(loops), len(rules), cells.centres.size))
        return out

    monkeypatch.setattr(propagator, "panels_for_rate", rule_spy)
    monkeypatch.setattr(propagator, "double_panels", loop_spy)
    monkeypatch.setattr(propagator, "_cell_matrix", matrix_spy)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = (float(rng.uniform(cp.x1_lo, cp.x1_lo / 2.0)), float(rng.uniform(-cp.c1, cp.c1)))
        evaluate_p_gamma(f, 2.0, SpaceTimePoint(x=x, t=float(rng.uniform(0.0, 2.0 / 256.0))),
                         rtol=1e-8)
    assert len(calls) == 40
    assert all(n_loops == n_rules for n_loops, n_rules, _ in calls)
    assert sum(n for n, _, _ in calls) < sum(cells for _, _, cells in calls)


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


def test_cell_clipped_away_in_an_octave_adds_nothing():
    """At t = 1, gamma = 2, the dissipation leaves nothing beyond
    |xi| = sqrt(46), so a cell on [99, 101] is skipped in that octave and its
    column is exactly zero; the t = 0 column is that of the cell alone."""
    cells = Cells(100.0, 1.0)
    pts = np.array([0.0, 0.5])
    tv = np.array([0.0, 1.0])
    out = _cell_matrix(cells, pts, tv, tv ** 2.0, 1e-10)
    assert np.all(out[:, 1] == 0.0)
    free = _cell_matrix(cells, pts, tv[:1], tv[:1] ** 2.0, 1e-10)
    assert np.array_equal(out[:, :1], free) and np.all(np.abs(free) > 0.0)


def test_factorized_rejects_points_outside_box():
    cp = CounterexampleParams.for_experiments(
        ModelParams(d=2, gamma=2.0, R=256.0))
    with pytest.raises(ValueError):
        factorized_evaluate(cp, SpaceTimePoint(x=(0.5, 0.0), t=1e-3))


@pytest.mark.parametrize("call, text", [
    (lambda cp, x: _factorized_batch(cp, np.zeros((2, 3)), np.zeros(2)), "x must be"),
    (lambda cp, x: _factorized_batch(cp, x[0], np.zeros(2)), "x must be"),
    (lambda cp, x: _factorized_batch(cp, x, np.zeros(3)), "x must be"),
    (lambda cp, x: _factorized_batch(cp, x, np.array([0.0, -1e-3])), "finite and nonnegative"),
    (lambda cp, x: _factorized_batch(cp, x, np.array([0.0, math.nan])), "finite and nonnegative"),
    (lambda cp, x: factorized_evaluate(cp, SpaceTimePoint(x=(*x[0], 0.0), t=0.0)),
     "point dimension"),
], ids=["x-width", "x-one-dimensional", "t-length", "t-negative", "t-nan", "point-dimension"])
def test_factorized_refuses_bad_shapes_and_times(call, text):
    cp = CounterexampleParams.for_experiments(ModelParams(d=2, gamma=2.0, R=256.0))
    x = np.array([[0.75 * cp.x1_lo, 0.0], [0.6 * cp.x1_lo, 0.5 * cp.c1]])
    with pytest.raises(ValueError, match=text):
        call(cp, x)


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


def test_factorized_batch_not_degenerate_at_selected_times():
    """At the selected rational times the window factor stays near one."""
    from schrodmax.counterexample import sample_omega_star, select_time

    cp = CounterexampleParams.for_experiments(
        ModelParams(d=2, gamma=2.0, R=float(2**16)))
    draws = sample_omega_star(cp, 400, seed=2)
    first = draws[draws.valid][:1]
    assert len(first)
    (t,) = select_time(cp, first)
    fac = factorized_evaluate(cp, SpaceTimePoint(x=tuple(first.x[0].tolist()), t=float(t)))
    assert abs(fac.i1) > 1.0 - cp.c0


def _moments(coef):
    """Taylor moments sum_k coef[:, k] (k - kappa)^m / m!, kappa = (L - 1) / 2, of
    each row of the coefficient table coef: M_0 alone for one translate.

    One product per row, so a row's moments do not depend on the others.
    """
    size = coef.shape[1]
    k = np.arange(size) - (size - 1) / 2.0
    orders = _TAYLOR + 1 if size > 1 else 1
    powers = np.stack([k ** m / math.factorial(m) for m in range(orders)], axis=1)
    return (coef[:, None, :] @ powers.astype(complex))[:, 0]


def _series(x, lam, center, step, scale, coef):
    """_bump_series on the Taylor moments of the coefficient table coef."""
    return _bump_series(x, lam, center, step, scale, coef.shape[1],
                        np.ones(x.size, dtype=bool), _moments(coef))


def _ladder_draws(R, n, draws=2000, seed=3):
    """First n valid draws of a ladder entry at scale R and their selected times."""
    from schrodmax.counterexample import sample_omega_star, select_time

    cp = CounterexampleParams.for_experiments(ModelParams(d=2, gamma=2.0, R=float(R)))
    record = sample_omega_star(cp, draws, seed)
    valid = record[record.valid][:n]
    assert len(valid) == n
    return cp, valid, select_time(cp, valid)


def _ladder_points(R, n, draws=2000, seed=3):
    """First n box points of a ladder draw at scale R, each at its selected time."""
    cp, valid, t = _ladder_draws(R, n, draws, seed)
    return cp, valid.x, t


def _residues(draws):
    return draws.q, draws.a1, draws.a_rest, draws.eps


def _lattice(cp, xj, t, ells):
    """Lattice phases e^{i(D l x + D^2 l^2 t)}: one row per sample, one column per translate."""
    return np.exp(1j * (cp.D * np.outer(xj, ells) + cp.D ** 2 * np.outer(t, ells * ells)))


def _per_translate_comb(cp, xj, t, ells, xi, w, gamma_eval=None):
    """The comb sum one translate at a time: one exponential per (sample, translate, node)."""
    ge = cp.model.gamma if gamma_eval is None else gamma_eval
    drift = xj[:, None] + 2.0 * cp.D * t[:, None] * ells[None, :]
    phase = drift[:, :, None] * xi + t[:, None, None] * (xi * xi)
    co = xi + cp.D * ells[:, None]
    g = (_unit_bump(xi) * np.exp(1j * phase - (t ** ge)[:, None, None] * (co * co))) @ w
    return np.sum(_lattice(cp, xj, t, ells) * g, axis=1)


@pytest.mark.parametrize("R", [2 ** 16, 2 ** 24])
@pytest.mark.parametrize("gamma_eval", [None, 3.0])
@pytest.mark.parametrize("one_translate", [False, True], ids=["all", "top"])
def test_batch_comb_matches_per_translate_sum(R, gamma_eval, one_translate):
    """The translated-bump kernel on a comb axis, with the lattice coefficients
    (lattice phase) e^{-t^gamma D^2 l^2} of the translates l: Horner's rule on
    the nodes, and the closed form that every such point takes."""
    cp, x, t = _ladder_points(R, 16)
    start, stop = comb_range(cp)
    ells = np.arange(start, stop, dtype=float)
    if one_translate:
        ells = ells[-1:]
    xi, w = panel_nodes(-1.0, 1.0, 4, _FACTOR_ORDER)
    decay = t ** (cp.model.gamma if gamma_eval is None else gamma_eval)
    lam = 1j * t - decay
    coef = _lattice(cp, x[:, 1], t, ells) * np.exp(-np.outer(decay, cp.D ** 2 * ells * ells))
    want = _per_translate_comb(cp, x[:, 1], t, ells, xi, w, gamma_eval)
    got = _bump_sum(x[:, 1], lam, cp.D * ells[0], cp.D, 1.0, coef, xi, w)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    take, closed = _series(x[:, 1], lam, cp.D * ells[0], cp.D, 1.0, coef)
    assert take.all()
    assert np.max(np.abs(closed - want)) <= 1e-13 * np.max(np.abs(want))


def _horner(x, lam, center, step, coef, u, w):
    """The comb sum by Horner's rule in z = e^{2 step lam u} over every translate,
    summed over the nodes one row at a time."""
    z = np.exp(np.outer(2.0 * step * lam, u))
    poly = np.repeat(coef[:, -1:], u.size, axis=1)
    for c in coef[:, -2::-1].T:
        poly *= z
        poly += c[:, None]
    poly *= np.exp(1j * np.outer(x, u) + np.outer(lam, u * (u + 2.0 * center)))
    weights = _unit_bump(u) * w
    return np.array([row @ weights for row in poly])


def _comb_inputs(cp, x, t):
    """Comb-axis arguments of the kernel: lam, the translates' centre and spacing, coef."""
    start, stop = comb_range(cp)
    ells = np.arange(start, stop, dtype=float)
    decay = t ** cp.model.gamma
    coef = _lattice(cp, x[:, 1], t, ells) * np.exp(-np.outer(decay, cp.D ** 2 * ells * ells))
    return 1j * t - decay, cp.D * ells[0], cp.D, coef


def test_taylor_tail_is_below_double_rounding():
    assert _RHO ** (_TAYLOR + 1) / math.factorial(_TAYLOR + 1) < 2.0 ** -60


def test_series_tail_is_below_double_rounding():
    """The closed form's tail at its radius: r^(N+1) e^r / (N+1)! of the terms' mass."""
    r, n = _SERIES_RADIUS, _SERIES_ORDER
    assert r ** (n + 1) * math.exp(r) / math.factorial(n + 1) < 2.0 ** -60


@pytest.mark.parametrize("d", [2, 3])
def test_comb_on_its_moments_is_within_the_series_radius(d):
    """Where a comb's log z moves by at most rho, 2 |lam| c' <= rho (2 start / (L - 1) + 1)
    and the box keeps |x_j| <= c1, so no comb on its moments runs quadrature:
    box points at times from 1e-6 / R to 10 / R, R = 2^8 ... 2^36."""
    rng = np.random.default_rng(0)
    for e in range(8, 37, 4):
        cp = CounterexampleParams.for_experiments(ModelParams(d=d, gamma=2.0, R=2.0 ** e))
        m = cp.model
        x = np.zeros((256, d))
        x[:, 0] = cp.x1_lo * 0.75
        x[:, 1:] = rng.uniform(-cp.c1, cp.c1, (256, d - 1))
        t = np.exp(rng.uniform(math.log(1e-6 / m.R), math.log(10.0 / m.R), 256))
        lam, center, step, coef = _comb_inputs(cp, x, t)
        size = coef.shape[1]
        on = np.abs(step * lam) * (size - 1) <= _RHO
        assert on.any() and not on.all()
        take = _series(x[:, 1], lam, center, step, 1.0, coef)[0]
        assert np.array_equal(take, on)


@pytest.mark.parametrize("e", [16, 24, 32, 36])
def test_taylor_moments_match_horner_on_the_ladder(e):
    """At the selected times every comb takes the closed form of its Taylor
    moments, which matches Horner's rule over every translate."""
    cp, x, t = _ladder_points(2 ** e, 32)
    lam, center, step, coef = _comb_inputs(cp, x, t)
    u, w = panel_nodes(-1.0, 1.0, 4, _FACTOR_ORDER)
    take, got = _series(x[:, 1], lam, center, step, 1.0, coef)
    assert take.all()
    want = _horner(x[:, 1], lam, center, step, coef, u, w)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("e, gamma_eval", [(16, None), (24, None), (32, None), (40, None),
                                           (24, 3.0)])
def test_folded_moments_match_an_exact_residue_sum(e, gamma_eval):
    """The comb's Taylor moments folded over the modulus against a direct sum
    over the translates with integer residues,
    e(((a1 l^2 + a_j l) mod q) / q) e^{i eps l - delta l^2} (l - lc)^m / m!,
    to 1e-14 of each moment's scale L kappa^m / m!."""
    cp, draws, t = _ladder_draws(2 ** e, 4, draws=400)
    delta = t ** (cp.model.gamma if gamma_eval is None else gamma_eval) * cp.D ** 2
    ok, got = propagator._folded_moments(cp, *_residues(draws), delta)
    assert ok.all()
    start, stop = comb_range(cp)
    ells = np.arange(start, stop)
    lc = (start + stop - 1) / 2.0
    fact = np.array([math.factorial(m) for m in range(_TAYLOR + 1)])
    scale = ells.size * (lc - start) ** np.arange(_TAYLOR + 1) / fact
    coef = _residue_coef(cp, draws, delta)
    for i in range(t.size):
        want = np.array([np.sum(coef[i] * (ells - lc) ** m) for m in range(_TAYLOR + 1)]) / fact
        assert np.all(np.abs(got[i, 0] - want) <= 1e-14 * scale)


def test_residues_beyond_the_series_radius_take_the_quadrature_path():
    """Where no (sample, axis) pair of the residues is within the series
    radius, the folded moments are all refused and the batch equals one
    without residues, bit for bit."""
    cp, draws, t = _ladder_draws(2 ** 16, 4, draws=400)
    q, a1, a_rest, eps = _residues(draws)
    far = np.full_like(eps, 0.1)  # |b| = 0.1 kappa, about 2 at R = 2^16
    ok, moments = propagator._folded_moments(cp, q, a1, a_rest, far, t ** 2 * cp.D ** 2)
    assert ok.shape == eps.shape and not ok.any()
    assert moments.shape == eps.shape + (_TAYLOR + 1,) and not moments.any()
    with_residues = _factorized_batch(cp, draws.x, t, residues=(q, a1, a_rest, far))
    for got, want in zip(with_residues, _factorized_batch(cp, draws.x, t)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("d", [2, 3])
def test_folded_moments_of_a_batch_are_its_rows_alone(d):
    """The fold over each modulus takes every (sample, rest axis) pair of
    the batch at once: each row's mask and moments are the same bits as the
    row folded alone.  The batch holds at least three moduli, pairs of
    several series orders, one anchor drawn twice at two orders, and pairs
    past the series radius, whose moments are zero."""
    from schrodmax.counterexample import sample_omega_star, select_time

    cp = CounterexampleParams.for_experiments(ModelParams(d=d, gamma=2.0, R=2.0 ** 20))
    record = sample_omega_star(cp, 4000, 3)
    # rows 6 and 7 repeat the anchors of rows 0 and 1
    draws = record[record.valid][np.array([0, 1, 2, 3, 4, 5, 0, 1])]
    delta = select_time(cp, draws) ** 2 * cp.D ** 2
    eps = draws.eps * np.array([1, 1, 30, 1, 300, 1, 100, 3000])[:, None]
    eps[5, -1] *= 3000  # at d=3 one rest axis of the row taken, the other not
    q, a1, a_rest = draws.q, draws.a1, draws.a_rest
    ok, moments = propagator._folded_moments(cp, q, a1, a_rest, eps, delta)
    start, stop = comb_range(cp)
    kappa = (stop - start - 1) / 2.0
    r = np.abs((1j * eps - (2.0 * (start + kappa)) * delta[:, None]) * kappa)
    r += delta[:, None] * kappa ** 2
    order = np.where(ok, profiles._series_order(r), -1)
    assert np.unique(q[ok.any(axis=1)]).size >= 3 and np.unique(order[ok]).size >= 2
    assert np.any(ok[0] & ok[6] & (order[0] != order[6]))
    assert not ok.all() and not moments[~ok].any()
    for k in range(q.size):
        row = slice(k, k + 1)
        alone = propagator._folded_moments(cp, q[row], a1[row], a_rest[row], eps[row],
                                           delta[row])
        assert np.array_equal(alone[0][0], ok[k]) and np.array_equal(alone[1][0], moments[k])


def _residue_coef(cp, draws, delta):
    """First comb axis's coefficients from the draws' integer residues,
    e(((a1 l^2 + a_j l) mod q) / q) e^{i eps l - delta l^2}: one row per draw,
    one column per translate."""
    start, stop = comb_range(cp)
    ells = np.arange(start, stop)
    q = draws.q[:, None]
    residue = (draws.a1[:, None] * ells * ells + draws.a_rest[:, :1] * ells) % q
    return np.exp(1j * (TWO_PI * residue / q + draws.eps[:, :1] * ells)
                  - delta[:, None] * ells.astype(float) ** 2)


def _fine_factors(cp, draws, t):
    """Window and first comb factor on one fixed rule of 16 x 64 nodes, no
    doubling, the comb's coefficients from the draws' residues."""
    m = cp.model
    x = draws.x
    u, w = panel_nodes(-1.0, 1.0, 16, _FACTOR_ORDER)
    decay = t ** m.gamma
    lam = 1j * t - decay
    i1 = _bump_sum(x[:, 0], lam, cp.band, 0.0, math.sqrt(m.R),
                   np.exp(-decay * cp.band ** 2)[:, None], u, w)
    _, center, step, _ = _comb_inputs(cp, x, t)
    coef = _residue_coef(cp, draws, decay * cp.D ** 2)
    return i1, _bump_sum(x[:, 1], lam, center, step, 1.0, coef, u, w)


def _quadrature_rows(monkeypatch):
    """Rows that each double_panels call of the factorized engine integrates."""
    rows = []

    def spy(evaluate, *args, **kwargs):
        rows.append(evaluate.args[0].size)
        return double_panels(evaluate, *args, **kwargs)

    monkeypatch.setattr(propagator, "double_panels", spy)
    return rows


@pytest.mark.parametrize("e", [16, 24, 32, 36])
def test_closed_form_factors_match_a_fixed_fine_rule(monkeypatch, e):
    """Ladder points at their selected times, given their draws' residues,
    run no quadrature, and their factors agree with a fixed 16 x 64-node
    rule on the same residues to 1e-14 of the batch maximum."""
    cp, draws, t = _ladder_draws(2 ** e, 32)
    rows = _quadrature_rows(monkeypatch)
    i1, ij, _ = _factorized_batch(cp, draws.x, t, residues=_residues(draws))
    assert rows == []
    for got, want in zip((i1, ij[:, 0]), _fine_factors(cp, draws, t)):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("R", [2 ** 8, 2 ** 11])
def test_generic_points_run_quadrature(monkeypatch, R):
    """Check 5-style points, uniform in the box and in t < 2 / R, are not
    resonant: both factors of every point run on doubling panels."""
    cp = CounterexampleParams.for_experiments(ModelParams(d=2, gamma=2.0, R=float(R)))
    pts = _box_points(cp, 8, seed=11)
    rows = _quadrature_rows(monkeypatch)
    _factorized_batch(cp, np.array([p.x for p in pts]), np.array([p.t for p in pts]))
    assert sum(rows) == 2 * len(pts)


@pytest.mark.parametrize("e", [16, 24, 32])
def test_ladder_points_at_four_times_their_times_run_quadrature(monkeypatch, e):
    cp, x, t = _ladder_points(2 ** e, 32)
    rows = _quadrature_rows(monkeypatch)
    _factorized_batch(cp, x, 4.0 * t)
    assert sum(rows) == 2 * t.size


@pytest.mark.parametrize("R", [2 ** 16, 2 ** 20])
def test_factorized_factors_vanish_where_their_damping_underflows(monkeypatch, R):
    """Three ladder points at t = c / R for c up to t = 1: every batch returns
    finite moduli, without a warning or QuadratureError, that fall with c.
    From c = 19 on the product of the factors' damping bounds times their
    masses has left the normal doubles, though at 19 and 24 neither bound
    alone has; from c = 64 on every bound alone has.  The factors are 0
    and run no quadrature, which would integrate moduli of exactly 0 at
    c = 19 and 24, overflow in exp at c = 1024 and run out of nodes at
    t = 1."""
    cp, draws, _ = _ladder_draws(R, 3, seed=0)
    rows = _quadrature_rows(monkeypatch)
    moduli = []
    for c in (1, 4, 16, 19, 24, 64, 256, 1024, R):
        rows.clear()
        i1, ij, modulus = _factorized_batch(cp, draws.x, np.full(3, c / R))
        assert np.all(np.isfinite(modulus))
        if c >= 19:
            assert rows == [] and not np.any(i1) and not np.any(ij)
        moduli.append(modulus)
    assert all(np.all(a >= b) for a, b in zip(moduli, moduli[1:]))
    assert np.all(moduli[0] > 0.0)


@pytest.mark.parametrize("e", [16, 20])
def test_factorized_matches_direct_field_at_ladder_points(monkeypatch, e):
    """Four ladder points at their selected times, and at 4x those times, all
    match the direct grid engine.  At their selected times the window takes
    the closed form, and the comb takes it from the moments folded over the
    modulus from the draws' residues; a one-point evaluation has no residues,
    so its comb runs quadrature there.  At 4x both factors run quadrature.

    At the selected times the bound is 1e-11 relative.  At 4x the factors
    cancel far below their L1 mass and converge to its rounding floor, so the
    bound is 1e-12 of the data's L1 mass, L comb translates.  Over ladder
    seeds 0-9 the largest differences were 3.0e-13 (2^16) and 2.4e-12 (2^20)
    relative, and 8.4e-15 and 3.9e-14 of the mass.
    """
    cp, draws, t = _ladder_draws(2 ** e, 4)
    x = draws.x
    f = Case3Counterexample(params=cp)
    mass = l1_fourier_mass(f)
    for scale, closed in ((1.0, True), (4.0, False)):
        pts = [SpaceTimePoint(x=tuple(xi.tolist()), t=float(scale * ti))
               for xi, ti in zip(x, t)]
        rows = _quadrature_rows(monkeypatch)
        fac = np.array([factorized_evaluate(cp, p).product_modulus for p in pts])
        assert sum(rows) == (1 if closed else 2) * len(pts)
        if closed:
            rows.clear()
            folded = _factorized_batch(cp, x, t, residues=_residues(draws))[2]
            assert rows == []
        monkeypatch.undo()
        direct = TWO_PI**2 * np.abs([evaluate_p_gamma(f, 2.0, p) for p in pts])
        if closed:
            assert np.all(np.abs(fac - direct) <= 1e-11 * direct)
            assert np.all(np.abs(folded - direct) <= 1e-11 * direct)
        else:
            assert np.all(np.abs(fac - direct) <= 1e-12 * mass)


@pytest.mark.parametrize("e", [16, 24])
def test_mixed_rules_are_the_rows_alone(e):
    """Ladder points at their selected times (closed form) and at 4x those
    times (Horner's rule on the nodes) in one batch.

    In the kernel each row is the same bits as alone, and each Horner row
    the same bits as the reference.  Through the engine a window in closed
    form is the same bits as alone, and so is a comb with its moments
    folded from residues; without residues every comb row runs quadrature,
    and the quadrature rows start from the batch's rate bound and converge
    together, so evaluated apart they agree with the mixed batch to the
    engine's rtol."""
    cp, x, t = _ladder_points(2 ** e, 16)
    x, t = np.concatenate([x, x]), np.concatenate([t, 4.0 * t])
    shuffle = np.random.default_rng(1).permutation(t.size)
    x, t = x[shuffle], t[shuffle]
    lam, center, step, coef = _comb_inputs(cp, x, t)
    u, w = panel_nodes(-1.0, 1.0, 4, _FACTOR_ORDER)
    selected = shuffle < 16
    take, closed = _series(x[:, 1], lam, center, step, 1.0, coef)
    assert np.array_equal(take, selected)
    horner = _bump_sum(x[~selected, 1], lam[~selected], center, step, 1.0,
                       coef[~selected], u, w)
    assert np.array_equal(horner, _horner(x[~selected, 1], lam[~selected], center,
                                          step, coef[~selected], u, w))
    for i, k in enumerate(np.flatnonzero(selected)):
        r = slice(k, k + 1)
        alone = _series(x[r, 1], lam[r], center, step, 1.0, coef[r])
        assert alone[0].all() and np.array_equal(alone[1], closed[i:i + 1])
    for i, k in enumerate(np.flatnonzero(~selected)):
        r = slice(k, k + 1)
        alone = _bump_sum(x[r, 1], lam[r], center, step, 1.0, coef[r], u, w)
        assert np.array_equal(alone, horner[i:i + 1])
    i1, ij, _ = _factorized_batch(cp, x, t)
    for k in np.flatnonzero(selected):
        assert _factorized_batch(cp, x[k:k + 1], t[k:k + 1])[0][0] == i1[k]
    for part in (selected, ~selected):
        np.testing.assert_allclose(_factorized_batch(cp, x[part], t[part])[1], ij[part],
                                   rtol=1e-9, atol=1e-9 * np.max(np.abs(ij[part])))
    # rows with residues fold their comb moments over the modulus: each is
    # the same bits alone as in a shuffled batch
    cp, draws, t = _ladder_draws(2 ** e, 16)
    draws, t = draws[shuffle[selected]], t[shuffle[selected]]
    i1, ij, _ = _factorized_batch(cp, draws.x, t, residues=_residues(draws))
    for k in range(t.size):
        one = draws[k:k + 1]
        one = _factorized_batch(cp, one.x, t[k:k + 1], residues=_residues(one))
        assert one[0][0] == i1[k] and np.array_equal(one[1][0], ij[k])


def _window_integral(cp, x1, t, u, w, gamma_eval=None):
    """The window factor as its own kernel wrote it: the unit bump against
    e^{i eta x + i eta^2 t - t^gamma eta^2} at eta = R^{gamma/2} + sqrt(R) u,
    centre phase dropped."""
    m = cp.model
    ge = m.gamma if gamma_eval is None else gamma_eval
    root_r = math.sqrt(m.R)
    band = m.R ** (m.gamma / 2.0)
    lin = root_r * (x1 + 2.0 * band * t)
    phase = lin[:, None] * u[None, :] + (m.R * t)[:, None] * (u * u)[None, :]
    co = band + u * root_r
    decay = (t ** ge)[:, None] * (co * co)[None, :]
    return (_unit_bump(u)[None, :] * np.exp(1j * phase - decay)) @ w


def _full_series(x, lam, center, step, scale, coef):
    """The closed form with all 2 _SERIES_ORDER + 1 series terms in every row:
    sum_{m,j} M_m alpha^m e_j mu_{m+j} over the Taylor moments M_m of coef."""
    moments = _moments(coef)
    kappa = (coef.shape[1] - 1) / 2.0
    alpha = 2.0 * step * scale * lam
    beta = scale * (1j * x + 2.0 * lam * (center + kappa * step))
    e = np.stack(list(profiles._series_terms(beta, lam * (scale * scale))), axis=1)
    mu = profiles._bump_moments(1, 2 * _SERIES_ORDER + _TAYLOR)
    return sum(moments[:, m] * alpha ** m * (e @ mu[m:m + e.shape[1]])
               for m in range(moments.shape[1]))


def _factor_inputs(cp, x, t):
    """(x_j, lam, centre, step, scale, coef) of the window and of one comb axis."""
    decay = t ** cp.model.gamma
    lam = 1j * t - decay
    window = (x[:, 0], lam, cp.band, 0.0, math.sqrt(cp.model.R),
              np.exp(-decay * cp.band ** 2)[:, None])
    _, center, step, coef = _comb_inputs(cp, x, t)
    return window, (x[:, 1], lam, center, step, 1.0, coef)


@pytest.mark.parametrize("e", range(16, 25))
def test_series_to_its_own_order_matches_the_full_series(e):
    """At README-ladder points each closed form, every row to its own series
    order, is within 1e-15 of its coefficients' L1 mass of the full 23-term
    series, in the window and on a comb axis."""
    cp, x, t = _ladder_points(2 ** e, 64)
    for xj, lam, center, step, scale, coef in _factor_inputs(cp, x, t):
        take, got = _series(xj, lam, center, step, scale, coef)
        assert take.all()
        want = _full_series(xj, lam, center, step, scale, coef)
        assert np.all(np.abs(got - want) <= 1e-15 * np.sum(np.abs(coef), axis=1))


def test_series_draws_terms_to_its_batch_order_only(monkeypatch):
    """_bump_series draws 2 N + 1 series terms, N the largest own order
    _series_order(|beta| + |q|) of its rows: 15 in the window and 19 on a
    comb axis at ladder points, of the 23 at the series radius."""
    counts = []
    series_terms = propagator._series_terms

    def counting(beta, q):
        counts.append(0)
        for e in series_terms(beta, q):
            counts[-1] += 1
            yield e

    monkeypatch.setattr(propagator, "_series_terms", counting)
    for e in (16, 20, 24):
        cp, x, t = _ladder_points(2 ** e, 64)
        for xj, lam, center, step, scale, coef in _factor_inputs(cp, x, t):
            kappa = (coef.shape[1] - 1) / 2.0
            beta = scale * (1j * xj + 2.0 * lam * (center + kappa * step))
            order = profiles._series_order(np.abs(beta) + np.abs(lam * (scale * scale)))
            _series(xj, lam, center, step, scale, coef)
            assert counts[-1] == 2 * int(np.max(order)) + 1 < 2 * _SERIES_ORDER + 1


@pytest.mark.parametrize("R", [2 ** 16, 2 ** 24])
@pytest.mark.parametrize("gamma_eval", [None, 3.0])
def test_bump_sum_one_translate_is_the_window_integral(R, gamma_eval):
    """The window on the nodes and in closed form."""
    cp, x, t = _ladder_points(R, 16)
    u, w = panel_nodes(-1.0, 1.0, 4, _FACTOR_ORDER)
    decay = t ** (cp.model.gamma if gamma_eval is None else gamma_eval)
    band = cp.model.R ** (cp.model.gamma / 2.0)
    lam = 1j * t - decay
    coef = np.exp(-decay * band ** 2)[:, None]
    want = _window_integral(cp, x[:, 0], t, u, w, gamma_eval)
    got = _bump_sum(x[:, 0], lam, band, 0.0, math.sqrt(R), coef, u, w)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    take, closed = _series(x[:, 0], lam, band, 0.0, math.sqrt(R), coef)
    assert take.all()
    assert np.max(np.abs(closed - want)) <= 1e-13 * np.max(np.abs(want))
    # one translate carries its coefficient as M_0 alone: the same bits as
    # with M_1 ... M_K = 0
    known = np.ones(t.size, dtype=bool)
    alone = _bump_series(x[:, 0], lam, band, 0.0, math.sqrt(R), 1, known, coef)
    padded = _bump_series(x[:, 0], lam, band, 0.0, math.sqrt(R), 1, known,
                          np.pad(coef, ((0, 0), (0, _TAYLOR))))
    assert np.array_equal(alone[1], closed) and np.array_equal(padded[1], closed)


def test_factorized_batch_of_no_points_is_empty():
    cp = CounterexampleParams.for_experiments(ModelParams(d=3, gamma=2.0, R=2.0 ** 16))
    i1, ij, modulus = _factorized_batch(cp, np.zeros((0, 3)), np.zeros(0))
    assert i1.shape == (0,) and ij.shape == (0, 2) and modulus.shape == (0,)


def test_factorized_batch_moduli_are_pinned():
    """Moduli recorded with the per-translate comb sum, before Horner's rule."""
    pinned = json.loads(Path(__file__).with_name("factorized_moduli.json").read_text())
    for e, want in pinned["moduli"].items():
        cp, x, t = _ladder_points(2 ** int(e), len(want))
        _, _, modulus = _factorized_batch(cp, x, t)
        np.testing.assert_allclose(modulus, want, rtol=1e-12, atol=0.0)


def test_factorized_batch_holds_no_translate_by_node_table():
    """256 ladder points at R=2^24 peak far below their 385 MB (sample, translate, node) table."""
    cp, x, t = _ladder_points(2 ** 24, 256)
    tracemalloc.start()
    try:
        _factorized_batch(cp, x, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def test_factorized_batch_tables_stay_within_the_budget():
    """4096 ladder points at R=2^16 peak below 8 MB: every (sample, node) table
    runs in row blocks of the table budget (24.5 MB as one block per pass)."""
    cp, x, t = _ladder_points(2 ** 16, 4096, draws=60000)
    tracemalloc.start()
    try:
        _factorized_batch(cp, x, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_factorized_batch_moduli_do_not_depend_on_the_table_budget(monkeypatch):
    """A budget of 4096 entries splits each pass into many row blocks and the
    comb into more convergence groups; the moduli stay bit for bit the same."""
    cp, x, t = _ladder_points(2 ** 16, 4096, draws=60000)
    want = _factorized_batch(cp, x, t)[2]
    monkeypatch.setattr(quadrature, "_CHUNK", 4096)
    assert np.array_equal(_factorized_batch(cp, x, t)[2], want)
