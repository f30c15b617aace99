from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schrodmax.numbertheory import (
    CubeFamily,
    GaussSumParams,
    PreconditionError,
    abel_sum_identity,
    dirichlet_simultaneous,
    gauss_modulus_law,
    gauss_modulus_worst,
    gauss_sum,
    totient,
    vitali_scaled_union,
    weyl_bound_rhs,
    weyl_calibration,
)
from schrodmax import numbertheory
from schrodmax.numbertheory import _law_table, _window_sums

TWO_PI = 2.0 * math.pi


def test_gauss_sum_brute_force_agreement():
    p = GaussSumParams(a=3, b=2, q=8)
    l = np.arange(1, 9)
    want = np.sum(np.exp(2j * np.pi * (2 * l + 3 * l**2) / 8))
    assert gauss_sum(p) == pytest.approx(complex(want), abs=1e-12)


def _gauss_reference(pairs, q):
    """G(a, b, q) per (a, b) pair from exact residue counts: bincount, then roots."""
    ab = np.asarray(pairs, dtype=np.int64).reshape(-1, 2) % q
    l = np.arange(1, q + 1, dtype=np.int64)
    res = (ab[:, 1:] * l + ab[:, :1] * (l * l % q)) % q
    flat = res + q * np.arange(len(ab))[:, None]
    counts = np.bincount(flat.ravel(), minlength=len(ab) * q).reshape(len(ab), q)
    return counts @ np.exp(2j * np.pi * np.arange(q) / q)


def test_gauss_sum_matches_residue_reference_small_q():
    for q in range(1, 65):
        pairs = [(a, b) for a in range(-3, q + 3) for b in range(-3, q + 3)]
        want = _gauss_reference(pairs, q)
        got = np.array([gauss_sum(GaussSumParams(a=a, b=b, q=q)) for a, b in pairs])
        assert np.max(np.abs(got - want)) <= 1e-12 * q, q


@pytest.mark.parametrize("q", [256, 1000, 2999, 4096])
def test_gauss_sum_matches_residue_reference_large_q(q):
    rng = np.random.default_rng(q)
    edges = [-3, -1, 0, 1, 2, q // 2, q - 1, q, q + 1, 5 * q + 3]
    pairs = [(a, b) for a in edges for b in edges]
    pairs += [tuple(int(v) for v in ab) for ab in rng.integers(-2 * q, 2 * q, (200, 2))]
    want = _gauss_reference(pairs, q)
    got = np.array([gauss_sum(GaussSumParams(a=a, b=b, q=q)) for a, b in pairs])
    assert np.max(np.abs(got - want)) <= 1e-12 * q


def test_gauss_sum_refuses_moduli_beyond_exact_residues():
    with pytest.raises(ValueError, match="too large"):
        gauss_sum(GaussSumParams(a=1, b=0, q=1 << 31))
    built = _law_table.cache_info().misses
    with pytest.raises(ValueError, match="too large"):
        gauss_modulus_law(GaussSumParams(a=1, b=0, q=1 << 31))
    with pytest.raises(ValueError, match="too large"):
        gauss_modulus_worst(1 << 31, [0, 2])
    assert _law_table.cache_info().misses == built


def test_gauss_sum_is_the_single_row_dft_bit_for_bit():
    def row(a, q):
        l = np.arange(q, dtype=np.int64)
        return q * np.fft.ifft(np.exp(2j * np.pi * np.arange(q) / q)[(a * ((l * l) % q)) % q])

    for a, b, q in [(3, 2, 8), (-5, 7, 12), (1, 0, 1), (17, -40, 1000), (1234, 99, 2999)]:
        assert gauss_sum(GaussSumParams(a=a, b=b, q=q)) == complex(row(a % q, q)[b % q])


def test_gauss_modulus_law_table_matches_gauss_sum():
    """Every unit a and even b of q <= 64, outside [0, q) and negative too."""
    for q in range(4, 65, 4):
        root, tol = math.sqrt(2 * q), 1e-9 * math.sqrt(q)
        units = [a for a in range(-q - 3, 2 * q + 3) if math.gcd(a, q) == 1]
        evens = range(-q - 4, 2 * q + 4, 2)
        worst = 0.0
        for a in units:
            for b in evens:
                p = GaussSumParams(a=a, b=b, q=q)
                dev = abs(abs(gauss_sum(p)) - root)
                assert gauss_modulus_law(p) is (dev <= tol), (a, b, q)
                worst = max(worst, dev / math.sqrt(q))
        # numpy's complex modulus may differ from abs() by one ulp of sqrt(2q)
        assert gauss_modulus_worst(q, evens) == pytest.approx(
            worst, rel=0, abs=2 * np.finfo(float).eps)


def test_gauss_modulus_law_builds_one_table_per_modulus(monkeypatch):
    """Check 1's sweep order builds each modulus's table once; nothing else rebuilds it."""
    monkeypatch.setattr(numbertheory, "_last", (0, None, None))
    _law_table.cache_clear()
    for q in range(4, 257, 4):
        for a in (a for a in range(1, q) if math.gcd(a, q) == 1):
            for b in range(0, q, 2):
                gauss_modulus_law(GaussSumParams(a=a, b=b, q=q))
    assert _law_table.cache_info().misses == 64
    gauss_modulus_law(GaussSumParams(a=3, b=2, q=256))
    gauss_modulus_worst(256, range(0, 256, 2))
    assert _law_table.cache_info().misses == 64


def test_gauss_modulus_law_lone_case_builds_no_table(monkeypatch):
    """A lone case reads its unit's own row; the second distinct unit builds the table."""
    monkeypatch.setattr(numbertheory, "_last", (0, None, None))
    built = _law_table.cache_info().misses
    q = 16384
    root, tol = math.sqrt(2 * q), 1e-9 * math.sqrt(q)
    for a, b in [(1, 2), (1 + q, -6), (1, 4 * q + 10)]:
        p = GaussSumParams(a=a, b=b, q=q)
        assert gauss_modulus_law(p) is (abs(abs(gauss_sum(p)) - root) <= tol)
    with pytest.raises(PreconditionError, match="coprime"):
        gauss_modulus_law(GaussSumParams(a=2, b=2, q=q))
    with pytest.raises(PreconditionError, match="even"):
        gauss_modulus_law(GaussSumParams(a=1, b=3, q=q))
    assert _law_table.cache_info().misses == built
    assert gauss_modulus_law(GaussSumParams(a=5, b=2, q=64))
    assert _law_table.cache_info().misses == built
    assert gauss_modulus_law(GaussSumParams(a=7, b=2, q=64))
    assert _law_table.cache_info().misses == built + 1
    with pytest.raises(PreconditionError, match="coprime"):
        gauss_modulus_law(GaussSumParams(a=6, b=2, q=64))


def test_gauss_modulus_law_small_exhaustive():
    for q in range(4, 41, 4):
        for a in range(1, q):
            if math.gcd(a, q) != 1:
                continue
            for b in range(0, q, 2):
                assert gauss_modulus_law(GaussSumParams(a=a, b=b, q=q))


@given(q4=st.integers(min_value=1, max_value=40),
       a=st.integers(min_value=1, max_value=200),
       b2=st.integers(min_value=0, max_value=100))
def test_gauss_modulus_law_property(q4, a, b2):
    q = 4 * q4
    if math.gcd(a, q) != 1:
        a = 1
    assert gauss_modulus_law(GaussSumParams(a=a, b=2 * b2, q=q))


@given(a=st.integers(-50, 50), b=st.integers(-50, 50),
       q=st.integers(1, 3000))
@settings(max_examples=200, deadline=None)
def test_gauss_sum_modulus_trivial_bound(a, b, q):
    assert abs(gauss_sum(GaussSumParams(a=a, b=b, q=q))) <= q * (1.0 + 1e-12)


def test_gauss_modulus_law_preconditions():
    built = _law_table.cache_info().misses
    with pytest.raises(PreconditionError, match="divisible by 4"):
        gauss_modulus_law(GaussSumParams(a=1, b=2, q=6))
    with pytest.raises(PreconditionError, match="coprime"):
        gauss_modulus_law(GaussSumParams(a=2, b=2, q=8))
    with pytest.raises(PreconditionError, match="even"):
        gauss_modulus_law(GaussSumParams(a=1, b=3, q=8))
    with pytest.raises(PreconditionError, match="divisible by 4"):
        gauss_modulus_worst(6, [2])
    with pytest.raises(PreconditionError, match="even"):
        gauss_modulus_worst(8, [2, 3])
    assert _law_table.cache_info().misses == built
    with pytest.raises(ValueError):
        GaussSumParams(a=1, b=2, q=0)


def test_gauss_sum_params_contract():
    for kwargs in (dict(a=2.0, b=2, q=8), dict(a=1, b=np.int64(2), q=8),
                   dict(a=1, b=2, q=0), dict(a=1, b=2, q=-4)):
        with pytest.raises(ValueError):
            GaussSumParams(**kwargs)
    assert GaussSumParams(True, 2, 8).a is True
    assert GaussSumParams(3, 2, 8) == GaussSumParams(a=3, b=2, q=8)
    assert repr(GaussSumParams(3, -2, 8)) == "GaussSumParams(a=3, b=-2, q=8)"


def test_weyl_sum_trivial_phase():
    assert complex(_window_sums(0, 0, 1, 3, 17)) == pytest.approx(17.0 + 0.0j, abs=1e-12)


def test_weyl_sum_huge_rational_window_is_period_folded():
    """N = 10^12 at alpha = 1/4: (N/4)(2 + 2i) in O(L) memory."""
    N = 10**12
    tracemalloc.start()
    try:
        got = complex(_window_sums(1, 0, 4, 0, N))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = (N / 4) * (2 + 2j)
    assert abs(got - want) <= 1e-9 * abs(want)
    assert peak < 1 << 20


@settings(deadline=None, max_examples=60)
@given(a=st.integers(-40, 40), q=st.integers(1, 40), b=st.integers(-12, 12),
       r=st.integers(1, 12), M=st.integers(-300, 300), N=st.integers(1, 600))
def test_weyl_sum_rational_matches_direct_sum(a, q, b, r, M, N):
    n = np.arange(M, M + N, dtype=np.int64)
    want = np.sum(np.exp(2j * np.pi * ((a * n * n) % q / q + (b * n) % r / r)))
    L = math.lcm(q, r)
    got = complex(_window_sums(a * (L // q) % L, b * (L // r) % L, L, M, N))
    assert abs(got - want) <= 1e-12 * N


def test_weyl_bound_rhs_shape():
    assert weyl_bound_rhs(100, 4) == pytest.approx(
        (100 / 2.0 + 2.0) * math.sqrt(math.log(4.0)))
    with pytest.warns(UserWarning):
        assert weyl_bound_rhs(50, 1) == 50.0
    with pytest.raises(ValueError):
        weyl_bound_rhs(0, 4)


@settings(deadline=None, max_examples=40)
@given(a=st.integers(min_value=1, max_value=30),
       q=st.integers(min_value=2, max_value=31),
       N=st.integers(min_value=2, max_value=400),
       M=st.integers(min_value=-50, max_value=50))
def test_weyl_bound_with_calibration_margin(a, q, N, M):
    """Anchored quadratic sums stay within a fixed multiple of the bound."""
    if math.gcd(a, q) != 1:
        a = 1
    assert abs(complex(_window_sums(a, 0, q, M, N))) <= 8.0 * weyl_bound_rhs(N, q)


WEYL_CALIBRATION_PINNED = [
    (dict(), {256: 1.6854758207266116, 4096: 1.6978145895459869}),
    (dict(n_caps=(256, 1024), q_max=32), {256: 1.6854758207266116, 1024: 1.6953324044735512}),
    (dict(n_caps=(128, 512), q_max=16), {128: 1.6725106221056378, 512: 1.6920340924025905}),
]


@pytest.mark.parametrize("kwargs,want", WEYL_CALIBRATION_PINNED)
def test_weyl_calibration_is_pinned(kwargs, want):
    rho = weyl_calibration(**kwargs)
    assert set(rho) == set(want)
    for cap, value in want.items():
        assert rho[cap] == pytest.approx(value, rel=1e-12, abs=0.0)


def test_weyl_calibration_matches_per_window_exp_sums():
    caps, q_max = (16, 64), 8
    best = {cap: 0.0 for cap in caps}
    for q in range(2, q_max + 1):
        for a in (a for a in range(1, q) if math.gcd(a, q) == 1):
            for beta in (0.0, 1.0 / 3.0, 0.5):
                N = 1
                while N <= caps[-1]:
                    for M in (0, -(N // 2)):
                        n = np.arange(M, M + N, dtype=float)
                        s = abs(np.sum(np.exp(2j * np.pi * (a * n**2 / q + beta * n))))
                        for cap in caps:
                            if N <= cap:
                                best[cap] = max(best[cap], s / weyl_bound_rhs(N, q))
                    N *= 2
    rho = weyl_calibration(n_caps=caps, q_max=q_max)
    assert set(rho) == set(caps)
    for cap in caps:
        assert rho[cap] == pytest.approx(best[cap], rel=1e-10)


def test_weyl_calibration_matches_weyl_sum_windows():
    """The sweep's one call per (q, beta = b/r) equals one window sum per (a, window)."""
    caps, q_max = (16, 64), 12
    best = {cap: 0.0 for cap in caps}
    for q in range(2, q_max + 1):
        for a in (a for a in range(1, q) if math.gcd(a, q) == 1):
            for b, r in ((0, 1), (1, 3), (1, 2)):
                L = math.lcm(q, r)
                for N in (1 << k for k in range(caps[-1].bit_length())):
                    for M in (0, -(N // 2)):
                        s = abs(complex(_window_sums(a * (L // q), b * (L // r), L, M, N)))
                        for cap in caps:
                            if N <= cap:
                                best[cap] = max(best[cap], s / weyl_bound_rhs(N, q))
    rho = weyl_calibration(n_caps=caps, q_max=q_max)
    assert set(rho) == set(caps)
    for cap in caps:
        assert rho[cap] == pytest.approx(best[cap], rel=1e-12, abs=0.0)


def test_weyl_calibration_growth():
    rho = weyl_calibration(n_caps=(128, 512), q_max=16)
    assert set(rho) == {128, 512}
    assert rho[128] > 0.0
    assert rho[512] < 2.0 * rho[128]


@pytest.mark.parametrize("caps", [(), (0, 256), (-4,)])
def test_weyl_calibration_refuses_non_positive_caps(caps):
    with pytest.raises(ValueError, match="n_caps must be positive"):
        weyl_calibration(n_caps=caps, q_max=4)


def test_window_sums_refuse_a_period_beyond_residue_arithmetic():
    """The refusal comes before any table over the period is built."""
    with pytest.raises(ValueError, match="too large"):
        _window_sums(1, 0, 1 << 31, 0, 1)


@settings(deadline=None)
@given(st.data())
def test_abel_identity_exact(data):
    N = data.draw(st.integers(min_value=0, max_value=60))
    M = data.draw(st.integers(min_value=-20, max_value=20))
    re = data.draw(st.lists(st.floats(min_value=-5, max_value=5),
                            min_size=N + 1, max_size=N + 1))
    im = data.draw(st.lists(st.floats(min_value=-5, max_value=5),
                            min_size=N + 1, max_size=N + 1))
    omega = data.draw(st.floats(min_value=-0.5, max_value=0.5))
    coeff = np.asarray(re) + 1j * np.asarray(im)
    lhs, rhs = abel_sum_identity(
        coeff, lambda n: complex(math.cos(omega * n), math.sin(0.3 * n)),
        M, N)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_abel_identity_calls_h_once_per_point():
    rng = np.random.default_rng(7)
    for N in (0, 1, 7):
        M = int(rng.integers(-20, 21))
        coeff = rng.uniform(-5, 5, N + 1) + 1j * rng.uniform(-5, 5, N + 1)
        omega = float(rng.uniform(-0.5, 0.5))
        calls = []

        def h(n):
            calls.append(n)
            return complex(math.cos(omega * n), math.sin(0.3 * n))

        got = abel_sum_identity(coeff, h, M, N)
        assert calls == list(range(M, M + N + 1))
        # reference: each increment from two fresh calls of h
        hvals = np.array([h(n) for n in range(M, M + N + 1)], dtype=complex)
        partial = np.cumsum(coeff)
        lhs = complex(np.sum(coeff * hvals))
        if N == 0:
            want = lhs, complex(partial[-1] * hvals[-1])
        else:
            inc = np.array([h(n + 1) - h(n) for n in range(M, M + N)], dtype=complex)
            want = lhs, complex(partial[-1] * hvals[-1] - complex(np.sum(partial[:-1] * inc)))
        assert got == want


def test_abel_identity_validation():
    with pytest.raises(ValueError):
        abel_sum_identity([1.0], lambda n: 1.0, 0, 2)
    with pytest.raises(ValueError):
        abel_sum_identity([1.0], lambda n: 1.0, 0, -1)


def test_totient_frozen_values():
    values = {1: 1, 2: 1, 4: 2, 12: 4, 36: 12, 97: 96, 100: 40, 2**10: 2**9}
    for q, want in values.items():
        assert totient(q) == want
    with pytest.raises(ValueError):
        totient(0)


@given(n=st.integers(min_value=1, max_value=300))
def test_totient_divisor_sum(n):
    """Gauss: sum of phi(d) over divisors d of n equals n."""
    assert sum(totient(d) for d in range(1, n + 1) if n % d == 0) == n


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_dirichlet_simultaneous_bound(data):
    k = data.draw(st.integers(min_value=1, max_value=3))
    target = [data.draw(st.floats(min_value=0.0, max_value=TWO_PI))
              for _ in range(k)]
    Q = data.draw(st.integers(min_value=4, max_value=64))
    q, a = dirichlet_simultaneous(target, float(Q))
    assert 1 <= q <= Q
    for j in range(k):
        assert abs(target[j] - TWO_PI * a[j] / q) <= TWO_PI / (q * Q ** (1.0 / k))


def test_dirichlet_validation():
    with pytest.raises(ValueError):
        dirichlet_simultaneous([], 8.0)
    with pytest.raises(ValueError):
        dirichlet_simultaneous([1.0], 0.5)


def test_dirichlet_anchors_cover_the_torus():
    rng = np.random.default_rng(11)
    Q = 32.0
    for k in (1, 2):
        pts = rng.uniform(0.0, TWO_PI, size=(5000, k))
        for row in pts:
            q, a = dirichlet_simultaneous([float(v) for v in row], Q)
            assert 1 <= q <= Q
            slack = TWO_PI / (q * Q ** (1.0 / k))
            for j in range(k):
                assert abs(row[j] - TWO_PI * a[j] / q) <= slack


def test_cube_family_validation():
    CubeFamily(cubes=(((0.0, 0.0), 1.0),), scale=0.5)
    with pytest.raises(ValueError):
        CubeFamily(cubes=(), scale=0.5)
    with pytest.raises(ValueError):
        CubeFamily(cubes=(((0.0,), 1.0),), scale=1.5)
    with pytest.raises(ValueError):
        CubeFamily(cubes=(((0.0,), 0.0),), scale=0.5)
    with pytest.raises(ValueError):
        CubeFamily(cubes=(((0.0,), 1.0), ((0.0, 0.0), 1.0)), scale=0.5)


def test_union_measure_of_no_boxes_is_zero():
    assert numbertheory._union_measure([]) == 0.0


def test_vitali_single_cube_exact():
    fam = CubeFamily(cubes=(((1.0, -2.0), 2.0),), scale=0.5)
    union, scaled, bound = vitali_scaled_union(fam)
    assert union == pytest.approx(4.0, rel=1e-12)
    assert scaled == pytest.approx(1.0, rel=1e-12)
    assert bound == pytest.approx(0.25 * 4.0 / 9.0, rel=1e-12)


def test_vitali_disjoint_pair_exact():
    fam = CubeFamily(cubes=(((0.0,), 1.0), ((10.0,), 3.0)), scale=0.25)
    union, scaled, bound = vitali_scaled_union(fam)
    assert union == pytest.approx(4.0, rel=1e-12)
    assert scaled == pytest.approx(1.0, rel=1e-12)
    assert bound == pytest.approx(0.25 / 3.0 * 4.0, rel=1e-12)


def test_vitali_nested_overlap():
    """A cube inside another leaves the union at the big cube alone."""
    fam = CubeFamily(cubes=(((0.0, 0.0), 4.0), ((0.5, 0.5), 1.0)), scale=0.5)
    union, scaled, bound = vitali_scaled_union(fam)
    assert union == pytest.approx(16.0, rel=1e-12)
    assert scaled == pytest.approx(4.0, rel=1e-12)
    assert scaled >= bound


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_vitali_bound_never_violated(data):
    dim = data.draw(st.integers(min_value=1, max_value=3))
    n = data.draw(st.integers(min_value=1, max_value=5))
    cubes = []
    for _ in range(n):
        center = tuple(data.draw(st.floats(min_value=-3, max_value=3))
                       for _ in range(dim))
        side = data.draw(st.floats(min_value=0.05, max_value=2.5))
        cubes.append((center, side))
    scale = data.draw(st.floats(min_value=0.05, max_value=0.95))
    union, scaled, bound = vitali_scaled_union(
        CubeFamily(cubes=tuple(cubes), scale=scale))
    assert scaled >= bound * (1.0 - 1e-9)
    assert union >= scaled
