"""Error functional evaluation: exact 1-d integrals, quadrature, guards."""

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from maxaffine import (
    CircumscriptionError,
    Domain,
    PiecewiseAffineMax,
    QuadratureSpec,
    WeightError,
    WeightFunction,
    build_approximation,
    catalog_entry,
    sup_gap,
    weighted_lp_error,
)
from maxaffine import error_eval
from maxaffine.approximator import _envelope_at
from maxaffine.convex_core import DomainError, tangent_plane
from maxaffine.error_eval import envelope_cells_1d, exact_1d_piecewise_integral
from maxaffine.quadrature import adaptive_panels
from conftest import rng_for

CATALOG_1D = ("quadratic", "cosh_quadratic", "exp_sum", "quartic", "huber")


def _tangents(f, ts):
    return PiecewiseAffineMax.from_pieces(
        [tangent_plane(f, np.array([t])) for t in ts])


# ---------------------------------------------------------------------------
# envelope cell extraction


def test_cells_split_at_tangent_crossing(quad_1d):
    l = _tangents(quad_1d, [0.25, 0.75])
    idx, edges = envelope_cells_1d(l, (0.0, 1.0))
    np.testing.assert_allclose(edges, [0.0, 0.5, 1.0], rtol=1e-14)
    assert list(idx) == [0, 1]


def test_cells_single_piece(quad_1d):
    l = _tangents(quad_1d, [0.5])
    idx, edges = envelope_cells_1d(l, (0.0, 1.0))
    assert list(idx) == [0]
    np.testing.assert_allclose(edges, [0.0, 1.0])


def test_cells_drop_dominated_piece():
    # middle plane lies strictly below the other two everywhere on [0,1]
    l = PiecewiseAffineMax(np.array([[-1.0], [0.0], [1.0]]),
                           np.array([0.5, -10.0, -0.5]))
    idx, edges = envelope_cells_1d(l, (0.0, 1.0))
    assert 1 not in set(idx)
    assert edges[0] == 0.0 and edges[-1] == 1.0


def test_cells_equal_slope_keeps_higher_offset():
    l = PiecewiseAffineMax(np.array([[1.0], [1.0], [-1.0]]),
                           np.array([0.0, 0.25, 0.3]))
    idx, edges = envelope_cells_1d(l, (0.0, 1.0))
    assert 0 not in set(idx)  # same slope as piece 1, lower offset
    assert 1 in set(idx)


def test_cells_clipped_by_interval(quad_1d):
    l = _tangents(quad_1d, [0.25, 0.75])
    idx, edges = envelope_cells_1d(l, (0.6, 1.0))
    assert list(idx) == [1]
    np.testing.assert_allclose(edges, [0.6, 1.0])


def _envelope_cells_reference(l, interval):
    """envelope_cells_1d with the stack loop run on every envelope, verbatim."""
    a, b = float(interval[0]), float(interval[1])
    slopes = np.asarray(l.slopes, dtype=float).reshape(-1)
    offsets = np.asarray(l.offsets, dtype=float)
    order = np.lexsort((offsets, slopes))
    stack = []          # indices into the original piece list
    cross = []          # cross[k] = where stack[k] overtakes stack[k-1]

    def crossing(i, j):
        return (offsets[i] - offsets[j]) / (slopes[j] - slopes[i])

    for idx in order:
        if stack and slopes[stack[-1]] == slopes[idx]:
            # same slope: the sort put the larger offset last, so replace
            stack.pop()
            if cross:
                cross.pop()
        while stack:
            x = crossing(stack[-1], idx)
            if cross and x <= cross[-1]:
                stack.pop()
                cross.pop()
            else:
                stack.append(idx)
                cross.append(x)
                break
        else:
            stack.append(idx)
            if stack[:-1]:
                cross.append(crossing(stack[-2], idx))
    edges = np.concatenate([[a], np.asarray(cross, dtype=float), [b]])
    edges = np.clip(edges, a, b)
    keep = np.flatnonzero(np.diff(edges) > 0)
    if keep.size == 0:
        # a single piece dominates the whole interval
        vals = slopes[np.array(stack)] * a + offsets[np.array(stack)]
        return np.array([stack[int(np.argmax(vals))]]), np.array([a, b])
    idxs = np.asarray(stack)[keep]
    edges = np.concatenate([[edges[keep[0]]], edges[keep + 1]])
    return idxs, edges


def _assert_cells_match_reference(l, interval):
    got, want = envelope_cells_1d(l, interval), _envelope_cells_reference(l, interval)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w, strict=True)


@pytest.mark.parametrize("cid", CATALOG_1D)
def test_cells_match_stack_loop_on_tangent_envelopes(cid):
    f = catalog_entry(cid, {}, Domain.box([-1.0], [1.0]))
    rng = rng_for("cells-loop", CATALOG_1D.index(cid))
    for m in (1, 2, 3, 64, 2048):
        # sorted, unsorted and repeated abscissas (repeats give equal slopes)
        for ts in (np.linspace(-1.0, 1.0, m), rng.uniform(-1.0, 1.0, m),
                   rng.integers(0, 8, m) / 4.0 - 1.0):
            l = _envelope_at(f, ts.reshape(-1, 1))
            for interval in ((-1.0, 1.0), (-0.3, 0.7), (0.95, 1.0)):
                _assert_cells_match_reference(l, interval)


def test_cells_match_stack_loop_on_pruned_envelopes(quad_1d):
    cases = [
        # dominated middle piece, equal slopes, tangents clipped away
        PiecewiseAffineMax(np.array([[-1.0], [0.0], [1.0]]),
                           np.array([0.5, -10.0, -0.5])),
        PiecewiseAffineMax(np.array([[1.0], [1.0], [-1.0]]),
                           np.array([0.0, 0.25, 0.3])),
        _tangents(quad_1d, [0.25, 0.75]),
        # three lines through one point: the middle one's two crossings
        # round to the same abscissa, the outer pair's to the next double
        PiecewiseAffineMax(
            np.array([[-1.1814468079562157], [0.7380418978456841],
                      [0.9620005318430944]]),
            np.array([1.5230083270055879, -0.3024695443578017,
                      -0.5154593521265578])),
    ]
    rng = rng_for("cells-loop-random", 0)
    cases += [PiecewiseAffineMax(rng.normal(size=(k, 1)), rng.normal(size=k))
              for k in (2, 5, 300)]
    for l in cases:
        for interval in ((0.0, 1.0), (0.6, 1.0), (-3.0, 3.0)):
            _assert_cells_match_reference(l, interval)


# ---------------------------------------------------------------------------
# exact integrals and frozen references


def test_exact_integral_frozen_values(quad_1d, w_const):
    for ts, target in (([0.5], 1 / 24), ([0.25, 0.75], 1 / 96),
                       ([1 / 8, 3 / 8, 5 / 8, 7 / 8], 1 / 384)):
        val = exact_1d_piecewise_integral(quad_1d, _tangents(quad_1d, ts),
                                          1.0, w_const).value
        assert val == pytest.approx(target, rel=1e-12)
    val2 = exact_1d_piecewise_integral(quad_1d, _tangents(quad_1d, [0.25, 0.75]),
                                       2.0, w_const).value
    assert val2 == pytest.approx(1.0 / 5120.0, rel=1e-12)


# The cell-at-a-time integrator that the batched one replaced, verbatim.
# The batched path must reproduce its value and node count bit for bit.
_GX32, _GW32 = leggauss(32)


def _adaptive_cell(func, lo, hi, rel_tol, scale, depth=0):
    """Gauss-32 with interval bisection until the panel delta is small."""
    h = (hi - lo) / 2.0
    mid = (hi + lo) / 2.0
    whole = h * float(np.dot(_GW32, func(mid + h * _GX32)))
    h2 = h / 2.0
    left = h2 * float(np.dot(_GW32, func(lo + h2 + h2 * _GX32)))
    right = h2 * float(np.dot(_GW32, func(mid + h2 + h2 * _GX32)))
    if abs(left + right - whole) <= rel_tol * scale or depth >= 24:
        return left + right, 96
    lv, ln = _adaptive_cell(func, lo, mid, rel_tol, scale, depth + 1)
    rv, rn = _adaptive_cell(func, mid, hi, rel_tol, scale, depth + 1)
    return lv + rv, ln + rn + 96


def _reference_exact_1d(f, l, p, omega, rel_tol=1e-12):
    lo, hi = f.domain.bounding_box()
    idxs, edges = envelope_cells_1d(l, (float(lo[0]), float(hi[0])))
    slopes = np.asarray(l.slopes, dtype=float).reshape(-1)
    offsets = np.asarray(l.offsets, dtype=float)

    # overall scale for the relative acceptance test
    probe = np.linspace(float(lo[0]), float(hi[0]), 257)
    fx = f.value(probe.reshape(-1, 1))
    gap = np.maximum(fx - l.evaluate(probe.reshape(-1, 1)), 0.0)
    wpx = np.asarray(omega(probe.reshape(-1, 1), fx), dtype=float)
    scale = max(float(np.max(gap ** p * wpx)) * (float(hi[0]) - float(lo[0])),
                1e-300)

    total, nodes = 0.0, 0
    for j, idx in enumerate(idxs):
        s, o = slopes[idx], offsets[idx]

        def cell_integrand(xs, _s=s, _o=o):
            pts = xs.reshape(-1, 1)
            vals = f.value(pts)
            g = np.maximum(vals - (_s * xs + _o), 0.0)
            w = np.asarray(omega(pts, vals), dtype=float)
            return g ** p * w

        val, n = _adaptive_cell(cell_integrand, edges[j], edges[j + 1],
                                rel_tol, scale)
        total += val
        nodes += n
    return float(max(total, 0.0)), nodes


def test_adaptive_panels_matches_recursion_past_split_block():
    # 3,000 intervals that all split at the first level: their halves go
    # down in two batches of at most 2,048 split panels
    lo = np.linspace(0.0, 1.0, 3001)
    kinks = lo[:-1] + 0.3 / 3000
    tol = 1e-12 / 3000

    def func(xs, cell):
        return np.sqrt(np.abs(xs - kinks[cell, None]))

    vals, nodes, _ = adaptive_panels(func, lo[:-1], lo[1:], tol)
    for j in range(kinks.size):
        want = _adaptive_cell(lambda xs, c=kinks[j]: np.sqrt(np.abs(xs - c)),
                              lo[j], lo[j + 1], tol, 1.0)
        assert vals[j] == want[0]
        nodes -= want[1]
    assert nodes == 0


_WEIGHTS = (WeightFunction.constant(1.0), WeightFunction.exp_neg_t(),
            WeightFunction.from_config({"catalog_id": "affine_x",
                                        "parameters": {"coeffs": [0.3],
                                                       "offset": 1.0}}))


@pytest.mark.parametrize("cid", CATALOG_1D)
def test_batched_exact_integral_matches_cell_recursion(cid):
    # huber's linear arms give zero-gap cells; m = 700 cells span three
    # 256-panel blocks at the first level
    f = catalog_entry(cid, {}, Domain.box([-1.0], [1.0]))
    for i, p in enumerate((0.5, 1.0, 1.5, 2.0, 3.0)):
        cases = [(m, w) for m in (1, 3, 40) for w in _WEIGHTS]
        cases.append((700, _WEIGHTS[i % 3]))
        for m, w in cases:
            ts = np.sort(rng_for(f"batch-{cid}", m * 10 + i).uniform(-1, 1, m))
            l = _tangents(f, ts)
            got = exact_1d_piecewise_integral(f, l, p, w)
            want = _reference_exact_1d(f, l, p, w)
            assert (got.value, got.nodes_used) == want, (cid, p, m)


def test_batched_exact_integral_with_clipped_cells(w_exp):
    # tangents of the same function on a wider interval: some cells are
    # clipped by [-0.5, 1] and others fall outside it altogether
    wide = catalog_entry("cosh_quadratic", {}, Domain.box([-2.0], [2.0]))
    f = wide.restricted_to(Domain.box([-0.5], [1.0]))
    l = _tangents(wide, np.linspace(-1.9, 1.9, 23))
    assert envelope_cells_1d(l, (-0.5, 1.0))[0].size < 23
    for p in (0.5, 1.0, 2.0):
        got = exact_1d_piecewise_integral(f, l, p, w_exp)
        assert (got.value, got.nodes_used) == _reference_exact_1d(f, l, p, w_exp)


def test_exact_path_reports_its_nodes(quad_1d, w_const):
    l = _tangents(quad_1d, np.linspace(0.05, 0.95, 10))
    cells = envelope_cells_1d(l, (0.0, 1.0))[0].size
    rep = weighted_lp_error(quad_1d, l, 1.5, w_const)
    assert rep.nodes_used >= 96 * cells
    assert rep.nodes_used == _reference_exact_1d(quad_1d, l, 1.5, w_const)[1]


@pytest.mark.parametrize("cid, p", [("quadratic", 1.0), ("exp_sum", 1.5)])
def test_exact_path_bar_is_the_panel_sum(cid, p, w_exp, monkeypatch):
    # the bar is the sum of the accepted panels' |left + right - whole|,
    # which adaptive_panels returns, not the nominal rel_tol * value
    bars = []

    def spy(*args):
        out = adaptive_panels(*args)
        bars.append(out[2])
        return out

    monkeypatch.setattr(error_eval, "adaptive_panels", spy)
    f = catalog_entry(cid, {}, Domain.box([-1.0], [1.0]))
    rep = weighted_lp_error(f, _tangents(f, np.linspace(-0.9, 0.9, 16)), p,
                            w_exp)
    assert len(bars) == 1 and rep.error_bar == bars[0]
    assert 0.0 < rep.error_bar != QuadratureSpec().rel_tol * rep.value


@pytest.mark.parametrize("cid", CATALOG_1D)
def test_one_dimensional_tangents_match_tangent_plane(cid):
    f = catalog_entry(cid, {}, Domain.box([-1.0], [1.0]))
    ts = np.sort(rng_for(f"tangents-{cid}", 0).uniform(-1, 1, 300))
    ts = np.concatenate([[-1.0], ts, [1.0]])
    env = _envelope_at(f, ts.reshape(-1, 1))
    ref = _tangents(f, ts)
    assert np.array_equal(env.slopes, ref.slopes)
    assert np.array_equal(env.offsets, ref.offsets)
    with pytest.raises(DomainError):
        _envelope_at(f, np.array([[0.0], [1.5]]))


def test_weighted_lp_error_dispatches_exact_in_1d(quad_1d, w_const):
    rep = weighted_lp_error(quad_1d, _tangents(quad_1d, [0.5]), 1.0, w_const)
    assert rep.value == pytest.approx(1 / 24, rel=1e-12)
    assert rep.error_bar <= 1e-8 * rep.value


def test_monte_carlo_agrees_with_exact(quad_1d, w_exp):
    l = _tangents(quad_1d, [0.2, 0.6, 0.9])
    exact = weighted_lp_error(quad_1d, l, 1.0, w_exp).value
    mc = weighted_lp_error(quad_1d, l, 1.0, w_exp,
                           QuadratureSpec("monte_carlo", samples=200_000, seed=4))
    assert mc.error_bar > 0
    assert abs(mc.value - exact) <= 5 * mc.error_bar
    again = weighted_lp_error(quad_1d, l, 1.0, w_exp,
                              QuadratureSpec("monte_carlo", samples=200_000,
                                             seed=4))
    assert again.value == mc.value  # seeded determinism


def test_tensor_grid_agrees_with_exact_2d(quad_2d, w_const):
    l = build_approximation(quad_2d, w_const, 1.0, 4, "uniform_grid")
    t64 = weighted_lp_error(quad_2d, l, 1.0, w_const,
                            QuadratureSpec("tensor_grid", level=64))
    t128 = weighted_lp_error(quad_2d, l, 1.0, w_const,
                             QuadratureSpec("tensor_grid", level=128))
    assert t128.value == pytest.approx(t64.value, rel=1e-3)
    assert t128.nodes_used >= 128 * 128


def test_fractional_p_integral_consistency(quad_1d, w_const):
    # p = 1.5 has no closed form here; adaptive exact vs Monte Carlo
    l = _tangents(quad_1d, [0.25, 0.75])
    exact = weighted_lp_error(quad_1d, l, 1.5, w_const).value
    mc = weighted_lp_error(quad_1d, l, 1.5, w_const,
                           QuadratureSpec("monte_carlo", samples=400_000, seed=8))
    assert abs(mc.value - exact) <= 5 * mc.error_bar


# ---------------------------------------------------------------------------
# guards


def test_rejects_envelope_above_function(quad_1d, w_const):
    l = _tangents(quad_1d, [0.25, 0.75])
    bad = PiecewiseAffineMax(l.slopes, l.offsets + 1e-6)
    with pytest.raises(CircumscriptionError):
        weighted_lp_error(quad_1d, bad, 1.0, w_const)


def test_rejects_negative_weight(quad_1d):
    w = WeightFunction.from_config({"catalog_id": "affine_x",
                                    "parameters": {"coeffs": [-2.0],
                                                   "offset": 0.5}})
    with pytest.raises(WeightError):
        weighted_lp_error(quad_1d, _tangents(quad_1d, [0.5]), 1.0, w)


# ---------------------------------------------------------------------------
# structural facts about the error functional


def test_sup_gap_frozen(quad_1d):
    assert sup_gap(quad_1d, _tangents(quad_1d, [0.5]),
                   np.linspace(0, 1, 4097)[:, None]) == pytest.approx(1 / 8,
                                                                      rel=1e-6)
    assert sup_gap(quad_1d, _tangents(quad_1d, [0.25, 0.75]),
                   np.linspace(0, 1, 4097)[:, None]) == pytest.approx(1 / 32,
                                                                      rel=1e-5)


def test_p_monotone_when_gap_below_one(quad_1d, w_const):
    # 0 <= u - l <= 1/8 < 1 so higher p decreases the integrand pointwise
    l = _tangents(quad_1d, [0.5])
    d1 = weighted_lp_error(quad_1d, l, 1.0, w_const).value
    d2 = weighted_lp_error(quad_1d, l, 2.0, w_const).value
    assert d2 <= d1


def test_weight_sandwich(quad_1d, w_const, w_exp):
    # e^{-x} on [0,1] ranges over [1/e, 1]
    l = _tangents(quad_1d, [0.3, 0.8])
    base = weighted_lp_error(quad_1d, l, 1.0, w_const).value
    weighted = weighted_lp_error(quad_1d, l, 1.0, w_exp).value
    assert base / np.e - 1e-15 <= weighted <= base + 1e-15


def test_tangent_envelope_of_affine_function_is_exact(w_const):
    dom = Domain.box([0.0, 0.0], [1.0, 1.0])
    f = catalog_entry("quadratic", {"hessian": [[0.0, 0.0], [0.0, 0.0]],
                                    "linear": [1.0, -2.0], "offset": 3.0}, dom)
    l = PiecewiseAffineMax(np.array([[1.0, -2.0]]), np.array([3.0]))
    rep = weighted_lp_error(f, l, 1.0, w_const)
    assert rep.value == pytest.approx(0.0, abs=1e-14)


def test_uniform_downward_shift_adds_linearly(quad_1d, w_const):
    l = _tangents(quad_1d, [0.5])
    lowered = PiecewiseAffineMax(l.slopes, l.offsets - 1e-3)
    rep = weighted_lp_error(quad_1d, lowered, 1.0, w_const)
    assert rep.value == pytest.approx(1 / 24 + 1e-3, rel=1e-10)


def test_property_error_decreases_under_refinement(quad_1d, w_const):
    # adding a tangent never hurts: l_{S} <= l_{S'} <= u for S subset S'
    for i in range(6):
        rng = rng_for("refine", i)
        base = np.sort(rng.uniform(0.05, 0.95, size=4))
        extra = np.append(base, rng.uniform(0.05, 0.95))
        e_base = weighted_lp_error(quad_1d, _tangents(quad_1d, base), 1.0,
                                   w_const).value
        e_more = weighted_lp_error(quad_1d, _tangents(quad_1d, extra), 1.0,
                                   w_const).value
        assert e_more <= e_base + 1e-15
