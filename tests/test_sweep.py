"""Budget sweeps: ordering, threading, failure capture, trend statistics."""

import math

import numpy as np
import pytest

from maxaffine import run_sweep, spearman_trend
from maxaffine.sweep import SweepRecord


def test_records_sorted_and_rescaled(quad_1d, w_const):
    out = run_sweep(quad_1d, w_const, 1.0, [8, 1, 4, 2], "exact_1d")
    assert not out.partial
    assert [r.m for r in out.records] == [1, 2, 4, 8]
    for r in out.records:
        assert r.rescaled == pytest.approx(r.m ** 2 * r.error, rel=1e-15)
        assert r.ratio == pytest.approx(r.rescaled / out.theory, rel=1e-12)


def test_exact_1d_rescaled_error_is_m_independent(quad_1d, w_const):
    # for the quadratic the optimum gives exactly 1/(24 m^2) at every m
    out = run_sweep(quad_1d, w_const, 1.0, [1, 2, 4, 8, 16], "exact_1d")
    rescaled = np.array([r.rescaled for r in out.records])
    np.testing.assert_allclose(rescaled, 1 / 24, rtol=1e-10)
    assert out.theory == pytest.approx(1 / 24, rel=1e-12)


def test_partial_outcome_records_failure(quad_2d, w_const):
    out = run_sweep(quad_2d, w_const, 1.0, [2, 4], "exact_1d")
    assert out.partial
    assert out.failure.startswith("m=2:")
    assert out.records == []


def test_thread_pool_matches_sequential(quad_1d, w_const):
    kw = dict(f=quad_1d, omega=w_const, p=1.0, m_list=[2, 4, 8],
              strategy="exact_1d", seed=3)
    seq = run_sweep(threads=1, **kw)
    par = run_sweep(threads=2, **kw)
    assert [r.__dict__ for r in seq.records] == [r.__dict__ for r in par.records]


def test_thread_pool_matches_sequential_2d(quad_2d, w_const):
    # concurrent quantize calls, each running its own bounded assignment
    kw = dict(f=quad_2d, omega=w_const, p=1.0, m_list=[16, 64],
              strategy="global_density", seed=3)
    seq = run_sweep(threads=1, **kw)
    par = run_sweep(threads=2, **kw)
    assert not seq.partial and not par.partial
    assert [r.__dict__ for r in seq.records] == [r.__dict__ for r in par.records]


def test_seeds_are_per_entry(quad_2d, w_const):
    out1 = run_sweep(quad_2d, w_const, 1.0, [4, 8], "global_density", seed=0,
                     max_iterations=40)
    out2 = run_sweep(quad_2d, w_const, 1.0, [4, 8], "global_density", seed=0,
                     max_iterations=40)
    assert [r.error for r in out1.records] == [r.error for r in out2.records]


def test_spearman_trend_signs():
    def rec(m, resc):
        return SweepRecord(m=m, error=resc / m ** 2, error_bar=0.0,
                           rescaled=resc, theory=1.0, ratio=resc)

    # |ratio - 1| shrinking with m reads as convergence regardless of side
    from_above = [rec(m, 1.0 + 1.0 / m) for m in (1, 2, 4, 8, 16)]
    from_below = [rec(m, 1.0 - 1.0 / m) for m in (1, 2, 4, 8, 16)]
    diverging = [rec(m, 1.0 + 0.01 * m) for m in (1, 2, 4, 8, 16)]
    assert spearman_trend(from_above) == pytest.approx(-1.0)
    assert spearman_trend(from_below) == pytest.approx(-1.0)
    assert spearman_trend(diverging) == pytest.approx(1.0)
    flat = [rec(m, 2.0) for m in (1, 2, 4)]
    assert abs(spearman_trend(flat)) < 1e-12  # midranks for ties
    with pytest.raises(ValueError):
        spearman_trend(from_above[:2])


def test_delta_override_changes_theory_only(quad_1d, w_const):
    from maxaffine.functionals import ZadorConstant

    base = run_sweep(quad_1d, w_const, 1.0, [2, 4], "exact_1d")
    doubled = ZadorConstant(n=1, p=1.0, value=1.0 / 6.0, provenance="test",
                            half_width=0.0)
    scaled = run_sweep(quad_1d, w_const, 1.0, [2, 4], "exact_1d", delta=doubled)
    assert scaled.theory == pytest.approx(2 * base.theory, rel=1e-12)
    for a, b in zip(base.records, scaled.records):
        assert a.error == b.error
        assert b.ratio == pytest.approx(a.ratio / 2, rel=1e-12)


def test_outcome_carries_the_mass_bar(w_exp):
    from maxaffine import Domain, catalog_entry
    from maxaffine.functionals import _mass_report

    disc = catalog_entry("cosh_quadratic", {}, Domain.ball([0.0, 0.0], 1.0))
    out = run_sweep(disc, w_exp, 1.5, [4], "uniform_grid")
    mass = _mass_report(disc, 1.5, w_exp)
    assert out.mass_error_bar == mass.error_bar
    assert 0.0 < out.mass_error_bar <= 1e-10 * mass.value
