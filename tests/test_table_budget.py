"""The one table budget, quadrature._CHUNK, shrunk: what the blocks may and may not change.

Every engine cuts its tables through quadrature.table_blocks.  Blocks that
split independent rows or items change no value; blocks that split a
sum over nodes change it by rounding; blocks of factorized quadrature
rows, which converge together, change it within the engine's rtol.
"""

from __future__ import annotations

import dataclasses
import importlib
import pkgutil
import sys

import numpy as np

import schrodmax
from schrodmax import counterexample, maximal, profiles, propagator, quadrature
from schrodmax.maximal import TimeGrid
from schrodmax.profiles import (
    Case1Product,
    Case3Counterexample,
    CounterexampleParams,
    ModelParams,
    comb_range,
)

# small enough that every engine below splits its tables
_SHRUNK = 256


def _ladder(R=2.0 ** 20):
    return CounterexampleParams.for_experiments(ModelParams(d=2, gamma=2.0, R=R))


def _run_shrunk(monkeypatch, compute):
    """compute() at the full budget, then at _SHRUNK, and the callers whose tables split."""
    full = compute()
    split = set()

    def recording(n, width):
        blocks = list(quadrature.table_blocks(n, width))
        if len(blocks) > 1:
            split.add(sys._getframe(1).f_code.co_name)
        return blocks

    monkeypatch.setattr(quadrature, "_CHUNK", _SHRUNK)
    for module in (counterexample, maximal, profiles, propagator):
        monkeypatch.setattr(module, "table_blocks", recording)
    return full, compute(), split


def test_only_quadrature_names_the_table_budget():
    names = [name for _, name, _ in pkgutil.iter_modules(schrodmax.__path__)]
    assert "quadrature" in names
    for name in names:
        module = importlib.import_module(f"schrodmax.{name}")
        assert hasattr(module, "_CHUNK") == (name == "quadrature"), name


def test_shrunk_budget_keeps_sampler_and_maxima_bit_identical(monkeypatch):
    """The draws, the anchor counts, the decoding, the column maxima and
    the Horner rows split only independent items: bit for bit the same."""
    cp = _ladder()
    start, stop = comb_range(cp)
    ells = np.arange(start, stop, dtype=float)
    rng = np.random.default_rng(0)
    x, t = rng.uniform(-1.0, 1.0, 16), rng.uniform(1e-7, 1e-6, 16)
    lam = 1j * t - t * t
    coef = np.exp(1j * cp.D * np.outer(x, ells) + np.outer(lam, (cp.D * ells) ** 2))
    u, w = quadrature.panel_nodes(-1.0, 1.0, 4, propagator._FACTOR_ORDER)
    ts = np.sort(rng.uniform(0.0, 1.0, 1000))

    def moduli(tq):
        # a scale and (modulus matrix, rows) factors that depend on the times alone
        return 0.5, [(np.abs(np.cos(np.outer(np.arange(1.0, 9.0), tq))), np.arange(40) % 8),
                     (np.abs(np.sin(np.outer(np.arange(1.0, 6.0), 3.0 * tq))), np.arange(40) % 5)]

    def compute():
        draws = counterexample.sample_omega_star(cp, 2000, 0)
        return ([getattr(draws, f.name) for f in dataclasses.fields(draws)],
                counterexample.anchor_counts(cp),
                maximal._column_max(moduli, ts, 40),
                propagator._bump_sum(x, lam, cp.D * start, cp.D, 1.0, coef, u, w))

    full, shrunk, split = _run_shrunk(monkeypatch, compute)
    assert split >= {"_unit_blocks", "_multiplicity", "_column_max", "_bump_sum"}
    (draws, counts, (sup, arg), horner) = full
    # invalid draws carry NaN points: compare the bytes
    assert all(a.tobytes() == b.tobytes() for a, b in zip(draws, shrunk[0]))
    assert counts == shrunk[1]
    assert np.array_equal(sup, shrunk[2][0]) and np.array_equal(arg, shrunk[2][1])
    assert np.array_equal(horner, shrunk[3])


def test_shrunk_budget_moves_grid_matrices_and_norms_by_rounding(monkeypatch):
    """Node blocks reorder the grid engine's and the norms' sums: the field
    matrices and the norms stay within 1e-13 relative."""
    product = Case1Product(ModelParams(d=2, gamma=0.5, R=4.0))
    comb = Case3Counterexample(params=_ladder(2.0 ** 16))
    xv = np.linspace(-2.0, 2.0, 16)
    t = np.array(TimeGrid.hybrid(4.0).points)[::16]

    def compute():
        matrices = [propagator._cell_matrix(cells, xv, t, t ** 0.5, 1e-9)
                    for cells in (product.factors_by_axis()[0], comb.factors_by_axis()[1])]
        return matrices, [profiles.sobolev_norm(f, 1.0 / 3.0) for f in (product, comb)]

    full, shrunk, split = _run_shrunk(monkeypatch, compute)
    assert split >= {"_plane_phase_sum", "_cell_moments", "moments"}
    for a, b in zip(full[0], shrunk[0]):
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(a))
    np.testing.assert_allclose(shrunk[1], full[1], rtol=1e-13, atol=0.0)


def test_shrunk_budget_keeps_factorized_quadrature_rows_within_rtol(monkeypatch):
    """Ladder points at four times their selected times run quadrature in
    both factors; smaller row groups converge apart, within the rtol of
    their largest value."""
    cp = _ladder()
    draws = counterexample.sample_omega_star(cp, 2000, 0)
    valid = draws[draws.valid][:8]
    t = 4.0 * counterexample.select_time(cp, valid)
    rtol = 1e-9

    def compute():
        i1, ij, _ = propagator._factorized_batch(cp, valid.x, t, rtol=rtol)
        return np.column_stack([i1, ij])

    full, shrunk, split = _run_shrunk(monkeypatch, compute)
    assert split >= {"_bump_factors", "_bump_sum"}
    assert np.all(np.abs(shrunk - full) <= rtol * np.max(np.abs(full), axis=0))
