from __future__ import annotations

import functools
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schrodmax import profiles
from schrodmax.profiles import (
    Case1Product,
    Case3Counterexample,
    Cells,
    CounterexampleParams,
    ModelParams,
    PlaneWaveSurrogate,
    comb_range,
    l1_fourier_mass,
    l2_norm,
    mollifier_mass,
    sobolev_norm,
    spectrum_eval,
    support_annulus,
)
from schrodmax.profiles import (
    _SERIES_ORDER,
    _SERIES_RADIUS,
    _bump_moments,
    _cells_eval,
    _mollifier_raw,
    _series_order,
    _weight_rule,
)
from schrodmax.quadrature import double_panels

TWO_PI = 2.0 * math.pi

# scipy.integrate.quad oracles for the bump normalization integrals
MOLLIFIER_MASS = 0.4439938161680794
MOLLIFIER_SQ_MASS = 0.13308612084499427


def _sq_mass():
    """Integral of exp(-2/(1-u^2)) over (-1, 1), from the unit bump's squared mass."""
    return _bump_moments(2, 0)[0] * mollifier_mass() ** 2


def _bump(center, width):
    """Closed form of the unit-mass bump on (center - width, center + width)."""
    return lambda x: _mollifier_raw((np.asarray(x) - center) / width) / (width * mollifier_mass())


def test_mollifier_integrals_match_oracle():
    assert mollifier_mass() == pytest.approx(MOLLIFIER_MASS, rel=1e-13)
    assert _sq_mass() == pytest.approx(MOLLIFIER_SQ_MASS, rel=1e-13)


# the bump's integrals to 32 digits, computed once with mpmath (60-digit
# tanh-sinh quadrature): the mass of exp(-1/(1-u^2)) over (-1, 1), and
# nu_k(p), the integral of _unit_bump(u)^p u^k, for even k <= 40
_MASS_32 = 0.4439938161680794378230489211705527
_NU_32 = {
    1: (
        1.0,
        0.15811363626379823022805042815906,
        0.05298181802207716836488068505449,
        0.023062986781933047099202419453816,
        0.011566522044504767973648365109845,
        0.0063535939469603663435045787291082,
        0.0037221197174235292677903541161532,
        0.0022886545780863193146386366154732,
        0.0014617288336621375051271628344207,
        0.0009627589126601137086841217266867,
        0.00065052220638801003620014766106266,
        0.0004491546843708817881655732295526,
        0.00031593834062616460286977656544835,
        0.00022586059155667697116371100457794,
        0.00016378395212137225218701386621228,
        0.00012028390823393731967098822093975,
        0.000089346530771278580167268000605689,
        0.000067050369634139615473531119772993,
        0.000050788948600158355907416124423453,
        0.000038799927087619192497180417028914,
        0.000029873245580577469053659433137692,
    ),
    2: (
        0.67511681300969752898743321024416,
        0.077589315943183739075430308590705,
        0.020155269284427972353373975132578,
        0.0070579745932057708172778180119965,
        0.002918577361729334771570094283672,
        0.0013457163459640881139633952869826,
        0.00067087913380786753991672530065388,
        0.00035489961390873712959362739085382,
        0.00019677400784675202278034719885467,
        0.00011336410997607999588151487861423,
        0.000067434975504789306655129643869907,
        0.000041221338420642964538573083667192,
        0.000025797297417262911486837266483663,
        0.000016480121365089223551927091324902,
        0.000010721193232538006166925504646647,
        0.0000070887323729015273047532200748313,
        0.0000047558100869060188870567542480634,
        0.0000032330286435278278756177992869904,
        0.0000022243888311665037708876826230054,
        0.000001547341700192649191861955629481,
        0.0000010873081137228437612155147455181,
    ),
}


def test_bump_rule_meets_high_precision_integrals():
    """The bump's fixed rule, the trapezoid rule on 512 steps, against
    32-digit integrals: the mass to 1e-15 relative and every even moment to
    1e-15 of nu_0 (2e-14 at 256 steps); the odd moments are zero."""
    assert abs(mollifier_mass() - _MASS_32) <= 1e-15 * _MASS_32
    for p, want in _NU_32.items():
        nu = _bump_moments(p, 40)
        assert np.max(np.abs(nu[::2] - np.array(want))) <= 1e-15 * want[0]
        assert not np.any(nu[1::2])


def test_bump_unit_integral():
    cells = Cells(1.2, 0.7)
    val = double_panels(lambda x, w: _cells_eval(cells, x) @ w, 0.5, 1.9, 1, rtol=1e-12)
    assert val == pytest.approx(1.0, rel=1e-10)


def test_bump_sq_integral_matches_quadrature():
    cells = Cells(-0.4, 2.5)
    val = double_panels(lambda x, w: _cells_eval(cells, x) ** 2 @ w, -2.9, 2.1, 1, rtol=1e-12)
    assert _bump_moments(2, 0)[0] / 2.5 == pytest.approx(val, rel=1e-10)


@given(center=st.floats(min_value=-5, max_value=5),
       width=st.floats(min_value=0.05, max_value=4.0),
       x=st.floats(min_value=-10, max_value=10))
def test_bump_support(center, width, x):
    v = _cells_eval(Cells(center, width), np.array([x]))[0]
    if abs(x - center) >= width:
        assert v == 0.0
    elif abs(x - center) <= 0.999 * width:
        assert v > 0.0
    else:
        # the shape exponent underflows to zero just inside the edge
        assert v >= 0.0


def test_bump_validation():
    """Cells must ascend without overlapping."""
    Cells([0.0, 2.0], 1.0)
    with pytest.raises(ValueError):
        Cells([0.0, 1.5], 1.0)
    with pytest.raises(ValueError):
        Cells([2.0, 0.0], 0.5)


def test_model_params_validation():
    ModelParams(d=2, gamma=0.5, R=16.0)
    with pytest.raises(ValueError):
        ModelParams(d=0, gamma=2.0, R=16.0)
    with pytest.raises(ValueError):
        ModelParams(d=2, gamma=-2.0, R=16.0)
    with pytest.raises(ValueError):
        ModelParams(d=2, gamma=2.0, R=0.5)


@pytest.mark.parametrize("build", [
    lambda: Cells([0.0, math.nan], 0.1),
    lambda: Cells([0.0, math.inf], 0.1),
    lambda: Cells(0.0, 1.0, math.nan),
    lambda: Cells(0.0, 1.0, complex(0.0, math.inf)),
    lambda: Cells(0.0, 0.0),
    lambda: Cells(0.0, -1.0),
    lambda: Cells(0.0, math.inf),
    lambda: Cells(0.0, math.nan),
    lambda: PlaneWaveSurrogate(xi0=(math.nan,), width=1.0),
    lambda: PlaneWaveSurrogate(xi0=(0.0, -math.inf), width=1.0),
    lambda: PlaneWaveSurrogate(xi0=(0.0,), width=math.inf),
    lambda: PlaneWaveSurrogate(xi0=(0.0,), width=1.0, amplitude=math.nan),
    lambda: PlaneWaveSurrogate(xi0=(0.0,), width=1.0, amplitude=complex(1.0, math.inf)),
    lambda: ModelParams(d=2, gamma=math.inf, R=16.0),
    lambda: ModelParams(d=2, gamma=2.0, R=math.inf),
], ids=["centre-nan", "centre-inf", "weight-nan", "weight-complex-inf", "half-zero",
        "half-negative", "half-inf", "half-nan", "xi0-nan", "xi0-inf", "width-inf",
        "amplitude-nan", "amplitude-inf", "gamma-inf", "R-inf"])
def test_non_finite_data_is_refused_on_construction(build):
    """Data that no norm or field could be computed from is refused when it
    is built, not after a quadrature has spent its node budget on it."""
    with pytest.raises(ValueError, match="finite"):
        build()


def _cp(R=float(2**16), d=2, gamma=2.0, experiment=False, **kw):
    m = ModelParams(d=d, gamma=gamma, R=R)
    if experiment:
        return CounterexampleParams.for_experiments(m, **kw)
    return CounterexampleParams.with_defaults(m, **kw)


def test_counterexample_default_constant_chain():
    cp = _cp()
    assert cp.c0 == 2.0**-4
    assert cp.c1 == cp.c0 / 4.0
    assert cp.c2 == cp.c1 / 4.0
    assert cp.c3 == min(cp.c2 / 4.0, 1.0 / TWO_PI) / 2.0
    assert cp.c4 == 0.125
    assert cp.mu0 == (4.0 * math.pi) ** -2
    assert _cp(experiment=True).c4 == 1e-6


def test_counterexample_scale_formulas():
    cp = _cp()
    assert cp.D == pytest.approx(2.0 ** (32.0 / 3.0), rel=1e-14)
    assert cp.Q == pytest.approx(2.0 ** (8.0 / 3.0), rel=1e-14)
    cp3 = _cp(d=3, gamma=1.5, R=float(2**20))
    assert cp3.D == pytest.approx((2.0**20) ** (4.5 / 8.0), rel=1e-14)
    assert cp3.Q == pytest.approx((2.0**20) ** (1.0 / 8.0), rel=1e-14)
    for c in (cp, cp3):
        d, gamma, R = c.model.d, c.model.gamma, c.model.R
        assert c.Q ** (d / (d - 1.0)) == pytest.approx(
            R ** (gamma / 2.0) / c.D, rel=1e-12)


def test_counterexample_validation():
    with pytest.raises(ValueError):
        _cp(gamma=1.0)
    with pytest.raises(ValueError):
        _cp(gamma=2.5)
    with pytest.raises(ValueError):
        _cp(d=1)
    with pytest.raises(ValueError):
        _cp(c0=0.5)
    with pytest.raises(ValueError):
        _cp(c2=0.01)
    with pytest.raises(ValueError):
        _cp(c4=0.7)
    with pytest.raises(ValueError):
        _cp(R=2.0)
    with pytest.raises(ValueError, match="c2 must be positive"):
        _cp(c2=-1e-3)
    with pytest.raises(ValueError, match="c3 out of range"):
        _cp(c3=0.5)
    with pytest.raises(ValueError, match="mu0"):
        _cp(mu0=0.0)
    with pytest.raises(ValueError, match="delta0"):
        _cp(delta0=1.0)
    with pytest.raises(TypeError, match="unknown overrides"):
        _cp(c5=1.0)


def test_counterexample_refuses_a_broken_scale_identity(monkeypatch):
    """Q and D are derived so that Q^{d/(d-1)} D = R^{gamma/2}; a Q off that
    identity is refused."""
    monkeypatch.setattr(CounterexampleParams, "Q", property(lambda self: 1.5))
    with pytest.raises(ValueError, match="scale identity violated"):
        _cp()


def test_comb_range_frozen_counts():
    assert comb_range(_cp()) == (41, 81)
    counts = {16: 40, 18: 64, 20: 102, 22: 161, 24: 256}
    for k, n in counts.items():
        start, stop = comb_range(_cp(R=float(2**k)))
        assert stop - start == n
    start, stop = comb_range(_cp(R=4096.0))
    assert stop - start == 16


def test_plane_wave_l2_matches_plancherel_product():
    amp = 0.7 + 0.2j
    pw = PlaneWaveSurrogate(xi0=(3.0, -1.0), width=0.5, amplitude=amp)
    # each axis's squared unit-mass bump of half-width 0.5
    bs = _bump_moments(2, 0)[0] / 0.5
    want = math.sqrt(TWO_PI**-2 * abs(amp) ** 2 * TWO_PI**4 * bs * bs)
    assert l2_norm(pw) == pytest.approx(want, rel=1e-10)


def test_plane_wave_l1_mass():
    amp = 0.5 - 1.0j
    pw = PlaneWaveSurrogate(xi0=(2.0, 0.0, -1.0), width=0.3, amplitude=amp)
    assert l1_fourier_mass(pw) == pytest.approx(abs(amp) * TWO_PI**3, rel=1e-9)


def test_case1_l2_scaling():
    """Unit-mass product bumps lose L2 mass like R^{-d/2}."""
    a = l2_norm(Case1Product(model=ModelParams(d=2, gamma=0.5, R=16.0)))
    b = l2_norm(Case1Product(model=ModelParams(d=2, gamma=0.5, R=64.0)))
    assert a / b == pytest.approx(4.0, rel=1e-9)


def _bump_axis(center, width, weight=1.0):
    """Closed-form ((lo, hi) cells, profile) of one bump on one axis."""
    bump = _bump(center, width)
    return ((center - width, center + width),), lambda xi: weight * bump(xi)


def _case3_axes(cp):
    """Closed-form ((lo, hi) cells, profile) per axis of the comb data: the
    unit-mass window of half-width sqrt(R) at the band, then unit bumps at D k."""
    start, stop = comb_range(cp)
    centres = [cp.D * k for k in range(start, stop)]
    comb = (tuple((c - 1.0, c + 1.0) for c in centres),
            lambda xi: sum(_bump(c, 1.0)(xi) for c in centres))
    return [_bump_axis(cp.band, math.sqrt(cp.model.R))] + [comb] * (cp.model.d - 1)


def _bounds(cells):
    """The (lo, hi) pairs of a Cells record."""
    return tuple(zip((cells.centres - cells.half).tolist(),
                     (cells.centres + cells.half).tolist()))


def test_case3_cells_and_window():
    cp = _cp()
    f = Case3Counterexample(params=cp)
    facs = f.factors_by_axis()
    assert [_bounds(cells) for cells in facs] == [cells for cells, _ in _case3_axes(cp)]
    ((lo, hi),) = _bounds(facs[0])
    assert lo == pytest.approx(2.0**16 - 2.0**8)
    assert hi == pytest.approx(2.0**16 + 2.0**8)
    start, stop = comb_range(cp)
    assert facs[1].centres.size == stop - start
    # comb teeth sit at D*l in [R, 2R], so the band lives above R itself
    inner, outer = support_annulus(facs)
    assert 2.0**16 < inner < outer < 3.0 * 2.0**16


@pytest.mark.parametrize("R", [2.0**14, 2.0**26, 2.0**31])
def test_case3_annulus_matches_closed_form(R):
    """The annulus read from the cells is the window's radial range combined
    with d-1 comb axes, to the last bit."""
    d = 3
    cp = _cp(R=R, d=d)
    center, halfw = cp.band, math.sqrt(R)
    start, stop = comb_range(cp)
    inner = math.sqrt((center - halfw) ** 2 + (d - 1) * (cp.D * start - 1.0) ** 2)
    outer = math.sqrt((center + halfw) ** 2 + (d - 1) * (cp.D * (stop - 1) + 1.0) ** 2)
    assert support_annulus(Case3Counterexample(params=cp).factors_by_axis()) == (inner, outer)


def test_case3_axis_factor_support():
    cp = _cp()
    _, comb = Case3Counterexample(params=cp).factors_by_axis()
    start, _ = comb_range(cp)
    teeth = cp.D * np.array([start, start + 1], dtype=float)
    vals = _cells_eval(comb, teeth)
    assert np.all(vals > 0.0)
    between = cp.D * (start + 0.5)
    assert _cells_eval(comb, np.array([between]))[0] == 0.0
    outside = cp.D * (start - 2)
    assert _cells_eval(comb, np.array([outside]))[0] == 0.0


@pytest.mark.parametrize("f, groups, want", [
    (Case1Product(ModelParams(d=3, gamma=0.5, R=4.0)), [0, 0, 0],
     [_bump_axis(0.0, 4.0)] * 3),
    (Case3Counterexample(params=_cp(R=2.0**6, d=3)), [0, 1, 1],
     _case3_axes(_cp(R=2.0**6, d=3))),
    (PlaneWaveSurrogate(xi0=(1.0, 2.0, 2.0, 1.0), width=0.3), [0, 1, 1, 3],
     [_bump_axis(1.0, 0.3, TWO_PI**4)] + [_bump_axis(c, 0.3) for c in (2.0, 2.0, 1.0)]),
    (PlaneWaveSurrogate(xi0=(-1.5, -1.5), width=0.4, amplitude=0.7 + 0.2j), [0, 1],
     [_bump_axis(-1.5, 0.4, (0.7 + 0.2j) * TWO_PI**2), _bump_axis(-1.5, 0.4)]),
], ids=["product", "case3", "plane-wave", "plane-wave-complex"])
def test_equal_axes_share_one_factor(f, groups, want):
    """Axes share a Cells object exactly when their factors are equal, and
    each factor is its family's closed form: the same cells and, on a grid
    across and beyond them, at every cell's edges and just inside them,
    in the gaps between cells and outside the support, the same values."""
    facs = f.factors_by_axis()
    for a, b in itertools.combinations(range(f.dim), 2):
        assert (facs[a] is facs[b]) == (groups[a] == groups[b])
    assert len(facs) == len(want)
    for cells, (want_cells, want_profile) in zip(facs, want):
        assert _bounds(cells) == want_cells
        lo, hi = np.array(want_cells).T
        centres, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        grid = np.linspace(lo[0] - 1.0, hi[-1] + 1.0, 257)
        edges = np.concatenate([lo, hi])
        inside = np.concatenate([centres - 0.999 * half, centres + 0.999 * half])
        off = np.concatenate([0.5 * (hi[:-1] + lo[1:]), [lo[0] - 0.5, hi[-1] + 0.5, -1e9, 1e9]])
        for xi in (grid, edges, inside, off):
            np.testing.assert_allclose(_cells_eval(cells, xi), want_profile(xi),
                                       rtol=1e-13, atol=0.0)
        assert np.all(_cells_eval(cells, edges) == 0.0)
        assert np.all(_cells_eval(cells, inside) != 0.0)
        assert np.all(_cells_eval(cells, off) == 0.0)


def test_spectrum_eval_is_axis_product():
    cp = _cp()
    f = Case3Counterexample(params=cp)
    start, _ = comb_range(cp)
    pts = np.array([[2.0**16, cp.D * start],
                    [2.0**16 + 50.0, cp.D * (start + 3) + 0.4]])
    got = spectrum_eval(f, pts)
    (_, window), (_, comb) = _case3_axes(cp)
    want = window(pts[:, 0]) * comb(pts[:, 1])
    assert np.all(want != 0.0)
    assert np.allclose(got, want, rtol=1e-13)
    # a single d-vector gives a Python complex
    one = spectrum_eval(f, pts[1])
    assert type(one) is complex and one == pytest.approx(want[1], rel=1e-13)


def test_spectrum_eval_validates_shape():
    f = Case1Product(ModelParams(d=2, gamma=2.0, R=8.0))
    with pytest.raises(ValueError):
        spectrum_eval(f, np.zeros(3))
    with pytest.raises(ValueError):
        spectrum_eval(f, 1.0)


def test_spectrum_vanishes_outside_reported_annulus():
    descriptors = [
        Case1Product(ModelParams(d=3, gamma=2.0, R=16.0)),
        Case3Counterexample(params=_cp(R=2.0**6, d=3)),
        PlaneWaveSurrogate(xi0=(4.0, -2.0), width=0.5),
        Case1Product(ModelParams(d=2, gamma=2.0, R=32.0)),
        Case3Counterexample(params=_cp()),
    ]
    rng = np.random.default_rng(5)
    for f in descriptors:
        inner, outer = support_annulus(f.factors_by_axis())
        dirs = rng.normal(size=(2000, f.dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = rng.uniform(1.001 * outer, 3.0 * outer, 2000)
        if inner > 0.0:
            hole = rng.uniform(0.0, 0.999 * inner, 2000)
            radii = np.where(rng.random(2000) < 0.5, hole, radii)
        assert np.all(spectrum_eval(f, dirs * radii[:, None]) == 0.0)


def test_sobolev_reduces_to_l2_at_zero():
    f = Case1Product(ModelParams(d=2, gamma=2.0, R=16.0))
    assert sobolev_norm(f, 0.0) == pytest.approx(l2_norm(f), rel=1e-12)
    with pytest.raises(ValueError, match="nonnegative"):
        sobolev_norm(f, -0.5)


def test_sobolev_narrow_band_weight():
    """A narrow profile at |xi0| sees the weight (1 + |xi0|^2)^{s/2}."""
    pw = PlaneWaveSurrogate(xi0=(30.0, 0.0), width=0.05)
    s = 0.5
    want = (1.0 + 30.0**2) ** (s / 2.0) * l2_norm(pw)
    assert sobolev_norm(pw, s) == pytest.approx(want, rel=1e-3)


@settings(deadline=None, max_examples=10)
@given(s=st.floats(min_value=0.0, max_value=1.5))
def test_sobolev_monotone_in_s(s):
    for f in (Case1Product(ModelParams(d=2, gamma=2.0, R=4.0)),
              Case3Counterexample(params=_cp(R=2.0**12))):
        assert sobolev_norm(f, s + 0.25) >= sobolev_norm(f, s)


@pytest.mark.parametrize("a", [1e-9, 1.0 / 3.0, 0.5, 0.999])
def test_weight_rule_matches_power(a):
    """The u-rule alone: sum w e^{-e^u (1+X)} against (1+X)^{-a}."""
    x = np.geomspace(1.0, 1e17, 2001)
    t, w = _weight_rule(a, 1.0, 1e17)
    approx = w @ np.exp(-np.outer(t, 1.0 + x))
    assert np.max(np.abs(approx / (1.0 + x) ** -a - 1.0)) <= 1e-12


def test_weight_rule_integer_power_is_one_node():
    t, w = _weight_rule(0.0, 0.0, 1e17)
    assert t.tolist() == [0.0] and w.tolist() == [1.0]


def test_case3_sobolev_positive_and_growing():
    small = sobolev_norm(Case3Counterexample(params=_cp(R=2.0**12)), 0.5)
    large = sobolev_norm(Case3Counterexample(params=_cp(R=2.0**16)), 0.5)
    assert 0.0 < small < large


@pytest.mark.parametrize("R", [2.0**12, 2.0**24])
def test_case3_norms_closed_form(R):
    """Every bump has unit mass, and the squared norm is a product of cell sums."""
    d = 2
    cp = _cp(R=R, d=d)
    f = Case3Counterexample(params=cp)
    start, stop = comb_range(cp)
    n = stop - start
    m1, m2 = mollifier_mass(), _sq_mass()
    assert l1_fourier_mass(f) == pytest.approx(n ** (d - 1), rel=1e-10)
    want = math.sqrt(TWO_PI**-d * m2 / (m1**2 * math.sqrt(R))
                     * (n * m2 / m1**2) ** (d - 1))
    assert l2_norm(f) == pytest.approx(want, rel=1e-10)


def _per_box_sobolev(f, s, order=64):
    """Reference: one fixed tensor Gauss rule on each support box of the comb data."""
    x, w = np.polynomial.legendre.leggauss(order)
    total = 0.0
    for box in itertools.product(*(cells for cells, _ in _case3_axes(f.params))):
        axes = [(0.5 * (lo + hi) + 0.5 * (hi - lo) * x, 0.5 * (hi - lo) * w)
                for lo, hi in box]
        pts = np.stack(np.meshgrid(*[a[0] for a in axes], indexing="ij"), axis=-1)
        wts = functools.reduce(np.multiply.outer, [a[1] for a in axes])
        vals = (np.abs(spectrum_eval(f, pts)) ** 2
                * (1.0 + np.sum(pts * pts, axis=-1)) ** s)
        total += float(np.sum(vals * wts))
    return math.sqrt(TWO_PI**-f.dim * total)


@pytest.mark.parametrize("d,R", [(2, 2.0**12), (3, 2.0**6)])
@pytest.mark.parametrize("s", [1.0 / 3.0, 0.5])
def test_case3_sobolev_matches_per_box_reference(d, R, s):
    f = Case3Counterexample(params=_cp(R=R, d=d))
    assert sobolev_norm(f, s) == pytest.approx(_per_box_sobolev(f, s), rel=1e-9)


_PINNED_DATA = {
    "plane-wave": PlaneWaveSurrogate(xi0=(3.0, -1.0), width=0.5, amplitude=0.7 + 0.2j),
    "case1-d3": Case1Product(ModelParams(d=3, gamma=2.0, R=16.0)),
    "case3-d2-R2^12": Case3Counterexample(params=_cp(R=2.0**12)),
    "case3-d3-R2^6": Case3Counterexample(params=_cp(R=2.0**6, d=3)),
}

_PINNED_S = (0.0, 1.0 / 3.0, 0.5 - 1e-9, 0.5 + 1e-9, 0.7, 1.0 - 1e-9, 1.0, 1.3, 2.5)

# (l2_norm, l1_fourier_mass, sobolev_norm at each of _PINNED_S) as computed
# by the earlier norm path: the weight (1+|xi|^2)^s evaluated on the tensor
# of every axis's nodes
_PINNED_NORMS = {
    "plane-wave": (6.176276389949871, 28.740721841462843, [
        6.176276389949871, 9.213854009486106, 11.256005607696832,
        11.25600563474626, 14.31499000476723, 20.537826546481604,
        20.53782657120726, 29.47821348032832, 125.63223032943303,
    ]),
    "case1-d3": (0.0005503241976454449, 0.999999999999999, [
        0.0005503241976454449, 0.0011330833382099783, 0.0016439610184975032,
        0.001643961025903478, 0.0025906218077833753, 0.005199446138857129,
        0.0051994461510668135, 0.010591173986765609, 0.20383149314330526,
    ]),
    "case3-d2-R2^12": (0.05372408897747008, 15.999999999999886, [
        0.05372408897747008, 1.0515279645895583, 4.658719923749948,
        4.6587200069901815, 27.831729855881694, 407.4125147841254,
        407.41251843063714, 5981.322243106719, 285497514.7425269,
    ]),
    "case3-d3-R2^6": (0.06226207552098238, 24.999999999999975, [
        0.06226207552098238, 0.3300187821741724, 0.7606398928764002,
        0.7606399005014425, 2.073786505210358, 9.35352889340699,
        9.353528940408804, 42.28254425797611, 18030.662284719456,
    ]),
}


@pytest.mark.parametrize("name", sorted(_PINNED_DATA))
def test_norms_match_tensor_weight_values(name):
    f = _PINNED_DATA[name]
    l2, l1, sob = _PINNED_NORMS[name]
    assert l2_norm(f) == pytest.approx(l2, rel=1e-10)
    assert l1_fourier_mass(f) == pytest.approx(l1, rel=1e-10)
    assert [sobolev_norm(f, s) for s in _PINNED_S] == pytest.approx(sob, rel=1e-10)


def test_case3_sobolev_d3_full_comb():
    """d=3 at R=2^24: 262 144 comb cells, weighted through per-axis moments."""
    cp = _cp(R=2.0**24, d=3)
    f = Case3Counterexample(params=cp)
    cells = [c for c, _ in _case3_axes(cp)]
    assert [_bounds(c) for c in f.factors_by_axis()] == cells
    assert [len(c) for c in cells] == [1, 512, 512]
    start = time.perf_counter()
    sob = sobolev_norm(f, 1.0 / 3.0)
    assert time.perf_counter() - start < 10.0
    r_in, r_out = support_annulus(f.factors_by_axis())
    l2 = l2_norm(f)
    assert (1.0 + r_in**2) ** (1.0 / 6.0) * l2 <= sob <= (1.0 + r_out**2) ** (1.0 / 6.0) * l2
    # every cell carries the unit-mass bump fitted to it, so a fixed Gauss
    # rule in the cell's own offset u gives its moments of order 0 and 2
    u, w = np.polynomial.legendre.leggauss(256)
    m0, m2 = [], []
    for axis_cells in cells:
        c = np.array(axis_cells)
        mid, half = 0.5 * (c[:, :1] + c[:, 1:]), 0.5 * (c[:, 1:] - c[:, :1])
        sq = (_mollifier_raw(u) / (mollifier_mass() * half)) ** 2 * half * w
        m0.append(float(np.sum(sq)))
        m2.append(float(np.sum(sq * (mid + half * u) ** 2)))
    want = TWO_PI**-3 * (math.prod(m0) + sum(
        m2[b] * math.prod(m0[a] for a in range(3) if a != b) for b in range(3)))
    assert sobolev_norm(f, 1.0) ** 2 == pytest.approx(want, rel=1e-10)


def test_series_order_keeps_the_tail_at_the_radius():
    """Fewer series terms where |beta| + |q| is smaller, the full order at the radius."""
    assert _series_order(0.0) == 0
    assert _series_order(_SERIES_RADIUS) == _SERIES_ORDER
    orders = [_series_order(r) for r in np.geomspace(1e-15, _SERIES_RADIUS, 60)]
    assert orders == sorted(orders)


def test_series_order_is_the_least_order_within_the_tail():
    """Over an array of r, the order's tail r^(N+1) e^r / (N+1)! is within the
    tail at the radius and that of N - 1 is not, each to 1e-12 relative."""
    def tail(r, n):
        return r ** (n + 1) * np.exp(r) / np.array([math.factorial(k + 1) for k in n])

    r = np.concatenate([np.geomspace(1e-30, _SERIES_RADIUS, 2000),
                        np.random.default_rng(0).uniform(0.0, _SERIES_RADIUS, 2000)])
    order = _series_order(r)
    bound = _SERIES_RADIUS ** (_SERIES_ORDER + 1) * math.exp(_SERIES_RADIUS) \
        / math.factorial(_SERIES_ORDER + 1)
    assert np.all(tail(r, order) <= bound * (1.0 + 1e-12))
    some = order > 0
    assert np.all(tail(r[some], order[some] - 1) > bound * (1.0 - 1e-12))


def _own_cell_sobolev(cp, ss, order=64):
    """Reference: the d=2 comb data's Sobolev norm at each s in ss, from one
    fixed tensor Gauss rule on each (window, tooth) box in the box's own
    coordinates, so no bump is evaluated at absolute xi."""
    u, w = np.polynomial.legendre.leggauss(order)
    bump_sq = (_mollifier_raw(u) / mollifier_mass()) ** 2 * w
    half = math.sqrt(cp.model.R)
    xi1_sq = (cp.band + half * u) ** 2
    wts = np.multiply.outer(bump_sq / half, bump_sq)[:, None, :]
    start, stop = comb_range(cp)
    centres = cp.D * np.arange(start, stop, dtype=float)
    total = np.zeros(len(ss))
    for at in range(0, centres.size, 64):
        one_plus = 1.0 + xi1_sq[:, None, None] + (centres[at:at + 64, None] + u) ** 2
        total += [float(np.sum(wts * one_plus ** s)) for s in ss]
    return [math.sqrt(TWO_PI**-2 * v) for v in total]


@pytest.mark.parametrize("e", [16, 24, 30, 32])
def test_closed_form_norms_match_a_gauss_rule_per_cell(e):
    """At R=2^30 the first tooth's centre lies just below 2^30, so its upper
    bound is rounded to the coarser doubles above: its bounds are not its
    centre plus and minus its half-width."""
    cp = _cp(R=2.0**e)
    ss = (0.0, 1.0 / 3.0, 0.5 + 1e-9, 1.3, 2.5)
    got = [sobolev_norm(Case3Counterexample(params=cp), s) for s in ss]
    assert got == pytest.approx(_own_cell_sobolev(cp, ss), rel=1e-12)


@pytest.mark.parametrize("d, e, window_loops", [(2, 16, True), (2, 24, False),
                                                (3, 24, False)])
def test_comb_norms_run_no_doubling_loop(monkeypatch, d, e, window_loops):
    """Every comb factor from R = 2^12, and the window from about 2^19, take
    their moments in closed form: at 2^24 no norm reaches the doubling loop,
    and at 2^16 only the window does, where s is not an integer (an integer s
    weighs by (1+|xi|^2)^s alone, tau = 0).  The L1 mass reads its cells'
    weights: no moment table and no loop."""
    loops, closed = [], []
    cell_moments = profiles._cell_moments

    def counting(*args, **kwargs):
        loops.append(1)
        return double_panels(*args, **kwargs)

    def recording(cells, *args):
        closed.append(cells.centres.size)
        return cell_moments(cells, *args)

    monkeypatch.setattr(profiles, "double_panels", counting)
    monkeypatch.setattr(profiles, "_cell_moments", recording)
    cp = _cp(R=2.0**e, d=d)
    f = Case3Counterexample(params=cp)
    start, stop = comb_range(cp)
    for s in _PINNED_S[1:]:
        loops.clear()
        closed.clear()
        sobolev_norm(f, s)
        loop = window_loops and s != int(s)
        assert closed == ([stop - start] if loop else [1, stop - start])
        assert len(loops) == loop
    loops.clear()
    closed.clear()
    l2_norm(f)
    assert closed == [1, stop - start] and loops == []
    closed.clear()
    l1_fourier_mass(f)
    assert closed == [] and loops == []


def test_norm_at_2_48_lies_within_the_annulus_bounds():
    """d=2 at R=2^48, 65 536 comb cells: (1+r_in^2)^{s/2} l2 <= sob <= (1+r_out^2)^{s/2} l2,
    and l2 is the product of the cell sums, although the last tooth's upper
    bound is rounded to a multiple of 1/8."""
    cp = _cp(R=2.0**48)
    f = Case3Counterexample(params=cp)
    s = 1.0 / 3.0
    begin = time.perf_counter()
    sob = sobolev_norm(f, s)
    assert time.perf_counter() - begin < 10.0
    r_in, r_out = support_annulus(f.factors_by_axis())
    l2 = l2_norm(f)
    assert (1.0 + r_in**2) ** (s / 2.0) * l2 <= sob <= (1.0 + r_out**2) ** (s / 2.0) * l2
    start, stop = comb_range(cp)
    m1, m2 = mollifier_mass(), _sq_mass()
    want = math.sqrt(TWO_PI**-2 * m2 / (m1**2 * 2.0**24) * (stop - start) * m2 / m1**2)
    assert l2 == pytest.approx(want, rel=1e-13)
