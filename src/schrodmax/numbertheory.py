"""Exact exponential sums, Diophantine search, and covering measures.

Quadratic phases become exact integer residues before any root of unity is
taken, and both quadratic sums fold over their period: G(a, b, q) for every
b is one length-q DFT row per (a mod q, q), and a window of a rational Weyl
sum is whole periods plus two prefix sums of one period.  The modulus law
|G| = sqrt(2q) is one table of DFT rows per modulus, over every unit a and
every b, read per case: a sweep checks each modulus once and builds its
table at the second unit it reads there, while a lone case computes the
one row of its unit.  The Weyl calibration sweeps rational phases
exhaustively, folding all reduced a of one q and all windows into one
call per (q, beta), and reports the worst ratio against the square-root
bound shape.
"""

import functools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.fft import ifft

TWO_PI = 2.0 * math.pi


class PreconditionError(ValueError):
    """Inputs violate the hypotheses under which a law is asserted."""


# ---------------------------------------------------------------------------
# complete quadratic sums


@dataclass(slots=True)
class GaussSumParams:
    """Phase data for sum_{l=1}^{q} e^{i 2 pi (b l + a l^2) / q}.

    Slotted and not frozen: construction sits in the per-case loop of the
    modulus-law sweeps, where a frozen dataclass doubles its cost.
    """

    a: int
    b: int
    q: int

    def __post_init__(self):
        if not (isinstance(self.a, int) and isinstance(self.b, int)
                and isinstance(self.q, int)):
            raise ValueError("a, b and q must be integers")
        if self.q < 1:
            raise ValueError("q must be a positive integer")


def _gauss_rows(a, q: int) -> np.ndarray:
    """G(a, b, q) for b = 0..q-1 at each a: q ifft(e(a l^2 / q)) over l < q.

    a is one residue or an array of them; the result has shape a.shape + (q,).
    """
    l = np.arange(q, dtype=np.int64)
    res = np.multiply.outer(a, (l * l) % q) % q
    return q * ifft(np.exp(2j * np.pi * np.arange(q) / q)[res], axis=-1)


@functools.lru_cache(maxsize=16)
def _gauss_row(a: int, q: int) -> tuple[complex, ...]:
    """G(a, b, q) for b = 0..q-1, held as Python complex numbers so a lookup converts nothing."""
    return tuple(_gauss_rows(a, q).tolist())


def gauss_sum(p: GaussSumParams) -> complex:
    """Complete quadratic sum (q below 2^31), folded over its period q in l.

    The phases a l^2 mod q are exact integer residues and only the DFT over
    l rounds; the row of every b is built once per (a mod q, q) and cached,
    so a sweep over b at fixed (a, q) reads entry b mod q of one row.
    """
    q = p.q
    if q >= 1 << 31:
        raise ValueError("q too large for exact residue arithmetic")
    return _gauss_row(p.a % q, q)[p.b % q]


# complex entries per block of DFT rows in a law table: the rows of one
# modulus are never all held at once
_LAW_BLOCK = 1 << 12


class _LawTable(NamedTuple):
    verdict: list  # [a mod q][b mod q]: the law's verdict; None at non-units a
    worst: np.ndarray  # per b mod q: max over units a of ||G| - sqrt(2q)| / sqrt(q)


def _law_deviations(a, q: int) -> np.ndarray:
    """||G(a, b, q)| - sqrt(2q)| / sqrt(q) for b = 0..q-1 at each a, shaped as _gauss_rows."""
    dev = np.abs(_gauss_rows(a, q))
    dev -= math.sqrt(2.0 * q)
    np.abs(dev, out=dev)
    dev /= math.sqrt(q)
    return dev


@functools.lru_cache(maxsize=1)
def _law_table(q: int) -> _LawTable:
    """The modulus law at every unit a and every b of one modulus q.

    The rows come from one batched DFT over the units, in blocks of at most
    _LAW_BLOCK entries (one row where q exceeds it).  Verdicts are Python bools, so a lookup
    converts nothing, and equal verdict rows share one tuple: the law gives
    the same row at nearly every unit.  Only the last modulus is kept, since
    the sweeps go through the moduli in order.  The table is read, never
    written, by its callers.
    """
    units = _units(q)
    # the table is made before the blocks and filled in place: made after
    # them, it would sit above their freed temporaries on the heap and keep
    # those resident
    verdict = [None] * q
    worst = np.zeros(q)
    rows = {}
    step = max(1, _LAW_BLOCK // q)
    for lo in range(0, units.size, step):
        a = units[lo:lo + step]
        dev = _law_deviations(a, q)
        np.maximum(worst, dev.max(axis=0), out=worst)
        # keyed by the row's bytes: only a new row becomes Python objects
        for ai, row in zip(a.tolist(), dev <= 1e-9):
            key = row.tobytes()
            if key not in rows:
                rows[key] = tuple(row.tolist())
            verdict[ai] = rows[key]
    return _LawTable(verdict, worst)


@functools.lru_cache(maxsize=1)
def _unit_verdicts(a: int, q: int) -> tuple[bool, ...]:
    """The law's verdicts at one unit a of q and every b mod q, from a's DFT row alone."""
    return tuple((_law_deviations(a, q) <= 1e-9).tolist())


# the modulus the law read last, the first unit read there, and the table
# of that modulus once a second unit was read; replaced whole, so each call
# reads the state of one modulus
_last = (0, None, None)


def gauss_modulus_law(p: GaussSumParams) -> bool:
    """Whether |G(a, b, q)| matches sqrt(2q) to 1e-9 sqrt(q).

    The law is asserted for q divisible by 4, a coprime to q, and even b;
    anything else raises PreconditionError rather than failing the law.
    The sweeps read one modulus after another, so q is checked only when
    it differs from the last modulus read.  The first unit read at a
    modulus takes its verdicts from its own DFT row; from the second
    distinct unit on, a case reads entry [a mod q][b mod q] of the table
    of q, built once from one DFT over every unit, where a non-unit has
    no row.  A lone case at a large modulus so computes one row, not the
    table.
    """
    global _last
    q = p.q
    a = p.a % q
    last_q, first, verdict = _last
    if q != last_q:
        if q % 4 != 0:
            raise PreconditionError("q must be divisible by 4")
        if math.gcd(a, q) != 1:
            raise PreconditionError("a must be coprime to q")
        if p.b % 2 != 0:
            raise PreconditionError("b must be even")
        if q >= 1 << 31:
            raise ValueError("q too large for exact residue arithmetic")
        first, verdict = a, None
        _last = (q, first, verdict)
    if verdict is not None:
        row = verdict[a]
    elif a == first:
        row = _unit_verdicts(a, q)
    elif math.gcd(a, q) == 1:
        verdict = _law_table(q).verdict
        _last = (q, first, verdict)
        row = verdict[a]
    else:
        row = None
    if row is None:
        raise PreconditionError("a must be coprime to q")
    if p.b % 2 != 0:
        raise PreconditionError("b must be even")
    return row[p.b % q]


def gauss_modulus_worst(q: int, b: Sequence[int]) -> float:
    """Worst ||G(a, b, q)| - sqrt(2q)| / sqrt(q) over every unit a of q and the given b.

    The modulus law for a whole modulus in one call, under its preconditions
    (q divisible by 4, every b even), read from the table gauss_modulus_law
    reads.
    """
    if q % 4 != 0:
        raise PreconditionError("q must be divisible by 4")
    b = np.asarray(b, dtype=np.int64)
    if np.any(b % 2 != 0):
        raise PreconditionError("b must be even")
    if q >= 1 << 31:
        raise ValueError("q too large for exact residue arithmetic")
    return float(_law_table(q).worst[b % q].max(initial=0.0))


# ---------------------------------------------------------------------------
# incomplete quadratic (Weyl) sums


def _window_sums(A, B: int, L: int, M, N):
    """Sums of e(r / L), r = (A n^2 + B n) mod L, over the windows [M, M+N).

    A is one residue or an array of them; M, N are integers or arrays of
    windows; the result has shape A.shape + M.shape.  The summand has period
    L, so a window is whole periods times P[L] plus P[(M+N) mod L] - P[M mod L],
    with P the prefix sums over one period, one cumulative sum per residue A.
    """
    if L >= 1 << 31:
        raise ValueError("common denominator too large for residue arithmetic")
    n = np.arange(L, dtype=np.int64)
    res = (np.multiply.outer(A, (n * n) % L) + B * n) % L
    prefix = np.zeros(res.shape[:-1] + (L + 1,), dtype=complex)
    np.cumsum(np.exp(2j * np.pi * np.arange(L) / L)[res], axis=-1, out=prefix[..., 1:])
    q_lo, r_lo = np.divmod(M, L)
    q_hi, r_hi = np.divmod(np.add(M, N), L)
    return (np.multiply.outer(prefix[..., L], q_hi - q_lo)
            + (prefix[..., r_hi] - prefix[..., r_lo]))


def weyl_bound_rhs(N: int, q: int) -> float:
    """Square-root bound shape (N/sqrt(q) + sqrt(q)) sqrt(log q); N at q=1."""
    if N < 1 or q < 1:
        raise ValueError("N and q must be positive integers")
    if q == 1:
        warnings.warn("q = 1 carries no cancellation; returning the trivial bound N",
                      stacklevel=2)
        return float(N)
    return (N / math.sqrt(q) + math.sqrt(q)) * math.sqrt(math.log(q))


def weyl_calibration(n_caps: Sequence[int] = (256, 4096), q_max: int = 64) -> dict[int, float]:
    """Worst |Weyl window sum| / weyl_bound_rhs over an exhaustive rational sweep.

    Sweeps q = 2..q_max, reduced a/q, N over powers of two up to each cap,
    beta in {0, 1/3, 1/2}, and window starts 0 and -N//2: one period-folded
    call per (q, beta) covers every reduced a and every window.  Returns the
    maximum over N <= cap.
    """
    caps = sorted(set(int(c) for c in n_caps))
    if not caps or caps[0] < 1:
        raise ValueError("n_caps must be positive")
    lengths = 1 << np.arange(caps[-1].bit_length())
    M = np.concatenate([np.zeros_like(lengths), -(lengths // 2)])
    N = np.concatenate([lengths, lengths])
    worst = np.zeros(N.size)
    for q in range(2, q_max + 1):
        rhs = np.array([weyl_bound_rhs(int(n), q) for n in N])
        units = _units(q)
        for beta in (Fraction(0), Fraction(1, 3), Fraction(1, 2)):
            L = math.lcm(q, beta.denominator)
            B = beta.numerator * (L // beta.denominator)
            sums = _window_sums(units * (L // q), B, L, M, N)
            np.maximum(worst, (np.abs(sums) / rhs).max(axis=0), out=worst)
    return {cap: float(worst[N <= cap].max()) for cap in caps}


# ---------------------------------------------------------------------------
# summation by parts


def abel_sum_identity(a: Sequence[complex], h: Callable[[float], complex],
                      M: int, N: int) -> tuple[complex, complex]:
    """Both sides of summation by parts for sum_{n=M}^{M+N} a_n h(n).

    a holds the N+1 coefficients for indices M..M+N.  The right side is
    A(M+N) h(M+N) minus the partial sums against the unit increments
    h(n+1) - h(n), differences of the same N+1 values of h the left side
    uses, so h is called once per point.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    if len(a) != N + 1:
        raise ValueError("need exactly N+1 coefficients")
    coeff = np.asarray(a, dtype=complex)
    hvals = np.fromiter((h(n) for n in range(M, M + N + 1)), dtype=complex, count=N + 1)
    lhs = complex(np.sum(coeff * hvals))
    partial = np.cumsum(coeff)
    increments = hvals[1:] - hvals[:-1]
    rhs = partial[-1] * hvals[-1] - complex(np.sum(partial[:-1] * increments))
    return lhs, complex(rhs)


# ---------------------------------------------------------------------------
# totient and simultaneous rational approximation


def _prime_factors(q: int) -> list[int]:
    """The distinct primes dividing q, ascending, by trial division."""
    primes, n, p = [], q, 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        primes.append(n)
    return primes


def totient(q: int) -> int:
    """Euler totient by trial-division factorization."""
    if q < 1:
        raise ValueError("q must be a positive integer")
    result = q
    for p in _prime_factors(q):
        result -= result // p
    return result


def _units(q: int) -> np.ndarray:
    """The units of q, the residues 0 <= a < q coprime to q, ascending.

    The multiples of each prime factor of q are struck out, so q = 1 keeps
    its one residue, 0.
    """
    keep = np.ones(q, dtype=bool)
    for p in _prime_factors(q):
        keep[::p] = False
    return keep.nonzero()[0]


def dirichlet_simultaneous(target: Sequence[float], Q: float) -> tuple[int, tuple[int, ...]]:
    """Smallest modulus q <= Q approximating every angle simultaneously.

    Returns (q, (a_1..a_k)) with |target_j - 2 pi a_j / q| bounded by
    2 pi / (q Q^{1/k}); existence follows from the lattice pigeonhole.
    """
    target = np.asarray(target, dtype=float)
    if target.ndim != 1 or target.size < 1:
        raise ValueError("target must be a nonempty vector of angles")
    if Q < 1.0:
        raise ValueError("Q must be >= 1")
    k = target.size
    alpha = target / TWO_PI
    tol_scale = Q ** (1.0 / k)
    for q in range(1, int(math.floor(Q)) + 1):
        a = np.round(q * alpha)
        if np.all(np.abs(target - TWO_PI * a / q) <= TWO_PI / (q * tol_scale)):
            return q, tuple(int(v) for v in a)
    raise RuntimeError("no admissible modulus found; the pigeonhole bound "
                       "should make this unreachable")


# ---------------------------------------------------------------------------
# cube unions and the scaled-union lower bound


@dataclass(frozen=True)
class CubeFamily:
    """Axis-aligned cubes (center, side) plus a shrink factor in (0, 1)."""

    cubes: tuple[tuple[tuple[float, ...], float], ...]
    scale: float

    def __post_init__(self):
        if not 0.0 < self.scale < 1.0:
            raise ValueError("scale must lie in (0, 1)")
        if len(self.cubes) == 0:
            raise ValueError("family must be nonempty")
        dim = len(self.cubes[0][0])
        for center, side in self.cubes:
            if len(center) != dim:
                raise ValueError("all cubes must share one dimension")
            if not side > 0.0:
                raise ValueError("cube sides must be positive")

    @property
    def dim(self) -> int:
        return len(self.cubes[0][0])


def _union_measure(boxes: list[tuple[tuple[float, ...], tuple[float, ...]]]) -> float:
    """Exact measure of a union of boxes (lo, hi corner tuples) by coordinate sweep."""
    if not boxes:
        return 0.0
    if len(boxes[0][0]) == 1:
        ivs = sorted((lo[0], hi[0]) for lo, hi in boxes)
        total = 0.0
        cur_lo, cur_hi = ivs[0]
        for lo, hi in ivs[1:]:
            if lo > cur_hi:
                total += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        return total + (cur_hi - cur_lo)
    cuts = sorted({lo[0] for lo, _ in boxes} | {hi[0] for _, hi in boxes})
    total = 0.0
    for left, right in zip(cuts[:-1], cuts[1:]):
        if right <= left:
            continue
        active = [(lo[1:], hi[1:]) for lo, hi in boxes
                  if lo[0] <= left and hi[0] >= right]
        if active:
            total += (right - left) * _union_measure(active)
    return total


def _family_boxes(fam: CubeFamily, side_factor: float):
    """Corner tuples of Python floats: the sweep compares and slices them per slab."""
    out = []
    for center, side in fam.cubes:
        h = 0.5 * side * side_factor
        out.append((tuple(float(c) - h for c in center), tuple(float(c) + h for c in center)))
    return out


def vitali_scaled_union(fam: CubeFamily) -> tuple[float, float, float]:
    """(union, scaled union, covering lower bound) for a cube family.

    The bound scale^k 3^{-k} |union| (k the dimension) comes from a
    Vitali selection of disjoint cubes; the scaled union can never fall
    below it, which is asserted before returning.
    """
    union = _union_measure(_family_boxes(fam, 1.0))
    scaled = _union_measure(_family_boxes(fam, fam.scale))
    k = fam.dim
    bound = fam.scale ** k * 3.0 ** (-k) * union
    if scaled < bound * (1.0 - 1e-9):
        raise AssertionError(
            f"scaled union {scaled:g} fell below the covering bound {bound:g}")
    return union, scaled, bound
