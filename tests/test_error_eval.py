"""Error functional evaluation: exact 1-d integrals, quadrature, guards."""

import warnings

import mpmath
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import IntegrationWarning, quad

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
from maxaffine.convex_core import DomainError, tangent_planes
from maxaffine.error_eval import (
    _cell_boundaries,
    _Sectors,
    envelope_cells_1d,
    exact_1d_piecewise_integral,
)
from conftest import rng_for

CATALOG_1D = ("quadratic", "cosh_quadratic", "exp_sum", "quartic", "huber")


def _tangents(f, ts):
    """Envelope of the tangents at ts, each built from its point alone."""
    alone = [tangent_planes(f, np.atleast_1d(t)) for t in ts]
    return PiecewiseAffineMax(np.vstack([e.slopes for e in alone]),
                              np.concatenate([e.offsets for e in alone]))


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
            l = tangent_planes(f, ts.reshape(-1, 1))
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


def test_cells_match_stack_loop_with_equal_slopes():
    # equal slopes are pruned to the last piece of each run, as the stack
    # does, before the vectorised crossings are tried
    rng = rng_for("cells-equal-slopes", 0)
    slopes = rng.integers(-4, 5, 200) / 4.0
    cases = [
        # runs of one slope, each run's best piece on the envelope (a
        # lattice's columns on a polygon side)
        PiecewiseAffineMax(slopes[:, None],
                           -slopes ** 2 - rng.uniform(0.0, 0.01, 200)),
        # and with pieces that never win
        PiecewiseAffineMax(slopes[:, None], rng.normal(size=200)),
        # offsets tied within a run
        PiecewiseAffineMax(slopes[:, None], rng.integers(0, 3, 200) / 2.0),
        # every piece on one slope, with and without ties
        PiecewiseAffineMax(np.full((7, 1), 0.5), rng.normal(size=7)),
        PiecewiseAffineMax(np.full((7, 1), 0.5), np.zeros(7)),
        PiecewiseAffineMax([[0.3]], [0.1]),
    ]
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


_WEIGHTS = (WeightFunction.constant(1.0), WeightFunction.exp_neg_t(),
            WeightFunction.from_config({"catalog_id": "affine_x",
                                        "parameters": {"coeffs": [0.3],
                                                       "offset": 1.0}}))

# The 1-d catalog entries (default parameters) in mpmath, for the offset of
# a float tangent from the true one
_MP_CATALOG = {
    "quadratic": lambda x: x * x / 2,
    "cosh_quadratic": mpmath.cosh,
    "exp_sum": lambda x: mpmath.exp(x / 2) + x * x / 2,
    "quartic": lambda x: x ** 4 / 4 + x * x / 4,
    "huber": lambda x: (x * x / 2 if abs(x) <= 0.5
                        else abs(x) / 2 - mpmath.mpf(1) / 8),
}
_THETA = leggauss(16)


def _cell_reference(f, l, ts, p, omega, kinks=()):
    """Integral of (f - l)^p omega for the tangents of f at ``ts``, by
    ``scipy.integrate.quad``, with its error estimate.

    The cells of l are cut at their tangency points and at ``kinks`` (where
    f'' jumps), so each part is smooth for integer 2p.  On the cell of t,
    f - l is the Taylor remainder (x - t)^2 int_0^1 (1 - s) f''(t + s (x -
    t)) ds, by Gauss-Legendre in s cut at the kinks, plus the float
    tangent's offset from the true one, from mpmath: no cancellation, so
    the integrand is smooth to rounding and ``quad`` converges.  All parts
    are mapped to [0, 1] and summed under one integral.
    """
    lo, hi = f.domain.bounding_box()
    idx, edges = envelope_cells_1d(l, (lo[0], hi[0]))
    a, b, piece = [], [], []
    for k, j in enumerate(idx):
        cuts = [c for c in (ts[j], *kinks) if edges[k] < c < edges[k + 1]]
        br = np.unique([edges[k], edges[k + 1], *cuts])
        a += list(br[:-1])
        b += list(br[1:])
        piece += [j] * (br.size - 1)
    a, b, piece = np.array(a), np.array(b), np.array(piece)
    t = ts[piece]
    exact = _MP_CATALOG[f.catalog_id]
    with mpmath.workdps(40):
        offset = np.array([
            [float(exact(mpmath.mpf(tj)) - mpmath.mpf(s) * tj - mpmath.mpf(o)),
             float(mpmath.diff(exact, mpmath.mpf(tj)) - mpmath.mpf(s))]
            for tj, s, o in zip(ts, l.slopes[:, 0], l.offsets)])[piece]
    kinks = np.asarray(kinks, dtype=float).reshape(1, -1)

    def integrand(v):
        x = a + v * (b - a)
        u = x - t
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = np.nan_to_num((kinks - t[:, None]) / u[:, None])
        s = np.sort(np.column_stack([np.zeros_like(x), np.clip(cross, 0, 1),
                                     np.ones_like(x)]), axis=1)
        width = (s[:, 1:] - s[:, :-1])[..., None] / 2
        nodes = s[:, :-1, None] + width * (_THETA[0] + 1)
        h = f.hessian((t[:, None, None] + nodes * u[:, None, None])
                      .reshape(-1, 1))[:, 0, 0].reshape(nodes.shape)
        rest = np.sum(width * _THETA[1] * (1 - nodes) * h, axis=(1, 2))
        gap = u * u * rest + offset[:, 0] + offset[:, 1] * u
        vals = np.maximum(gap, 0.0) ** p * omega(x[:, None],
                                                 f.value(x[:, None]))
        return float(np.sum((b - a) * vals))

    with warnings.catch_warnings():
        # at p < 1 the float tangent's offset leaves a kink near t that
        # quad reports as roundoff; the bars there are far larger
        warnings.simplefilter("ignore", IntegrationWarning)
        return quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)


def _assert_matches_reference(f, l, ts, p, omega):
    rep = exact_1d_piecewise_integral(f, l, p, omega)
    kinks = (-0.5, 0.5) if f.catalog_id == "huber" else ()
    ref, ref_err = _cell_reference(f, l, ts, p, omega, kinks)
    # the gap's float terms round at 1e-16 of f, up to 1e-10 of the gap at
    # m = 700: 1e-12 of the value covers what that leaves after averaging
    assert abs(rep.value - ref) <= rep.error_bar + ref_err + 1e-12 * ref
    cells = envelope_cells_1d(l, tuple(f.domain.bounding_box()[i][0]
                                       for i in (0, 1)))[0].size
    assert rep.nodes_used >= 40 * cells and rep.nodes_used % 20 == 0


@pytest.mark.parametrize("cid", CATALOG_1D)
def test_exact_integral_matches_a_reference(cid):
    # huber's linear arms give zero-gap cells and cells whose tangency
    # point Newton cannot find; m = 700 puts 1,400 segments in one call
    f = catalog_entry(cid, {}, Domain.box([-1.0], [1.0]))
    for i, p in enumerate((0.5, 1.0, 1.5, 2.0, 3.0)):
        cases = [(m, w) for m in (1, 3, 40) for w in _WEIGHTS]
        cases.append((700, _WEIGHTS[i % 3]))
        for m, w in cases:
            ts = np.sort(rng_for(f"batch-{cid}", m * 10 + i).uniform(-1, 1, m))
            _assert_matches_reference(f, _tangents(f, ts), ts, p, w)


def test_exact_integral_with_clipped_cells(w_exp):
    # tangents of the same function on a wider interval: some cells are
    # clipped by [-0.5, 1], their tangency points outside it, and others
    # fall outside it altogether
    wide = catalog_entry("cosh_quadratic", {}, Domain.box([-2.0], [2.0]))
    f = wide.restricted_to(Domain.box([-0.5], [1.0]))
    ts = np.linspace(-1.9, 1.9, 23)
    l = _tangents(wide, ts)
    assert envelope_cells_1d(l, (-0.5, 1.0))[0].size < 23
    for p in (0.5, 1.0, 2.0):
        _assert_matches_reference(f, l, ts, p, w_exp)


@pytest.mark.parametrize("p", [0.25, 0.5, 1.5])
def test_exact_path_matches_a_40_digit_integral(p, w_const):
    # the default error of exact_1d envelopes of cosh against mpmath on the
    # same float envelope, cut at the cell edges and at the true minimum of
    # each gap (or at the two roots around it, where the float tangent
    # rises an ulp above cosh): at p < 1 the gap's rounding near each
    # tangency point counts, and the bar must cover it
    f = catalog_entry("cosh_quadratic", {}, Domain.box([-1.0], [1.0]))
    for m in (16, 64):
        l = build_approximation(f, w_const, p, m, "exact_1d")
        rep = weighted_lp_error(f, l, p, w_const)
        idx, edges = envelope_cells_1d(l, (-1.0, 1.0))
        total, error = mpmath.mpf(0), mpmath.mpf(0)
        with mpmath.workdps(40):
            for k, j in enumerate(idx):
                s = mpmath.mpf(float(l.slopes[j, 0]))
                o = mpmath.mpf(float(l.offsets[j]))

                def gap(x, s=s, o=o):
                    return mpmath.cosh(x) - s * x - o
                low = mpmath.asinh(s)
                a, b = mpmath.mpf(edges[k]), mpmath.mpf(edges[k + 1])
                parts = [(a, low, b)]
                if gap(low) < 0:
                    r = mpmath.sqrt(-2 * gap(low))
                    parts = [(a, mpmath.findroot(gap, low - r)),
                             (mpmath.findroot(gap, low + r), b)]
                for part in parts:
                    cut = [x for x in part if a <= x <= b]
                    if len(cut) > 1:
                        # tanh-sinh to degree 5 reports its own error
                        value, err = mpmath.quad(
                            lambda x: max(gap(x), 0) ** mpmath.mpf(p), cut,
                            maxdegree=5, error=True)
                        total, error = total + value, error + err
        ref = float(total)
        assert error <= 1e-16 * ref
        assert abs(rep.value - ref) <= rep.error_bar + 1e-13 * ref, (p, m)


def test_exact_path_reports_its_nodes(quad_1d, w_const):
    l = _tangents(quad_1d, np.linspace(0.05, 0.95, 10))
    cells = envelope_cells_1d(l, (0.0, 1.0))[0].size
    rep = weighted_lp_error(quad_1d, l, 1.5, w_const)
    # two segments a cell at the first pass, 20 nodes a segment
    assert rep.nodes_used >= 40 * cells and rep.nodes_used % 20 == 0


@pytest.mark.parametrize("p, m", [(0.5, 1500), (0.5, 2048), (1.0, 1500),
                                  (1.0, 2048), (0.1, 16), (1.0, 16)])
def test_exact_path_finds_a_sliver_between_the_nodes(m, p, w_const):
    # huber with tangents at linspace(-delta, delta, m): the first cell is
    # [-1, -0.5 + h/2], its gap zero on the arm, and at m >= 1500 the
    # curved sliver past -0.5 would fall between the nodes of a segment
    # over the whole cell; the cut at -delta makes it a segment of its
    # own.  Reference: cut at +-delta and at the tangency points, where
    # the gap is (x - t)^2 / 2 on the cell of t and zero on the arms
    delta = 0.5
    f = catalog_entry("huber", {"delta": delta}, Domain.box([-1.0], [1.0]))
    t = np.linspace(-delta, delta, m)
    rep = exact_1d_piecewise_integral(f, tangent_planes(f, t[:, None]), p,
                                      w_const)
    mids = (t[1:] + t[:-1]) / 2.0
    a = np.concatenate(([-delta], mids))
    b = np.concatenate((mids, [delta]))
    ref = np.sum(((b - t) ** (2 * p + 1) + (t - a) ** (2 * p + 1))
                 / ((2 * p + 1) * 2.0 ** p))
    assert abs(rep.value - ref) <= rep.error_bar + 1e-12 * ref
    if m == 16:
        # no segment holds a kink, so none is halved toward one (that took
        # 3,760 nodes at p = 0.1 and 2,080 at p = 1)
        assert rep.nodes_used < (3760 if p < 1 else 2080)


@pytest.mark.parametrize("cid, p", [("quadratic", 1.0), ("exp_sum", 1.5)])
def test_exact_path_bar_is_measured(cid, p, w_exp):
    # the bar is the segments' summed rule difference, not the nominal
    # rel_tol * value
    f = catalog_entry(cid, {}, Domain.box([-1.0], [1.0]))
    rep = weighted_lp_error(f, _tangents(f, np.linspace(-0.9, 0.9, 16)), p,
                            w_exp)
    assert 0.0 < rep.error_bar != QuadratureSpec().rel_tol * rep.value


def test_exact_path_bar_does_not_grow_with_the_cells(w_exp):
    # rel_tol holds for the summed bar, not for each cell against the
    # whole integral's scale
    f = catalog_entry("exp_sum", {}, Domain.box([-1.0], [1.0]))
    l = build_approximation(f, w_exp, 1.5, 1024, "exact_1d")
    rep = weighted_lp_error(f, l, 1.5, w_exp)
    assert 0.0 < rep.error_bar <= 1e-9 * rep.value


@pytest.mark.parametrize("cid", CATALOG_1D)
def test_one_dimensional_tangents_match_tangent_plane(cid):
    f = catalog_entry(cid, {}, Domain.box([-1.0], [1.0]))
    ts = np.sort(rng_for(f"tangents-{cid}", 0).uniform(-1, 1, 300))
    ts = np.concatenate([[-1.0], ts, [1.0]])
    env = tangent_planes(f, ts.reshape(-1, 1))
    ref = _tangents(f, ts)
    assert np.array_equal(env.slopes, ref.slopes)
    assert np.array_equal(env.offsets, ref.offsets)
    with pytest.raises(DomainError):
        tangent_planes(f, np.array([[0.0], [1.5]]))


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
    exact = weighted_lp_error(quad_2d, l, 1.0, w_const)
    assert abs(t128.value - exact.value) <= t128.error_bar


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


# ---------------------------------------------------------------------------
# two dimensions: exact integrals over power-diagram cells

_TRIANGLE = Domain.polytope([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]],
                            [0.0, 0.0, 1.0])


def _box_moment(half, p):
    """Integral of (|x - t|^2 / 2)^p over a box of half-widths ``half``
    about t, for p in {1, 2}."""
    a, b = half

    def m(k, h):          # integral of x^k over [-h, h]
        return 2.0 * h ** (k + 1) / (k + 1)
    if p == 1:
        return 0.5 * (m(2, a) * m(0, b) + m(0, a) * m(2, b))
    return 0.25 * (m(4, a) * m(0, b) + 2 * m(2, a) * m(2, b)
                   + m(0, a) * m(4, b))


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_cells_match_lattice_closed_forms(quad_2d, w_const, p):
    # 1/(12 k^2) and 7/(720 k^4) for every k, divisor of 128 or not
    for k in range(8, 33, 4):
        l = build_approximation(quad_2d, w_const, p, k * k, "uniform_grid")
        rep = weighted_lp_error(quad_2d, l, p, w_const)
        want = 1.0 / (12 * k ** 2) if p == 1 else 7.0 / (720 * k ** 4)
        assert rep.value == pytest.approx(want, rel=1e-13, abs=0), k
        assert rep.error_bar <= 1e-12 * want
        assert rep.nodes_used > 0


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_cells_with_one_and_two_pieces(quad_2d, w_const, p):
    one = _tangents(quad_2d, [[0.5, 0.5]])
    two = _tangents(quad_2d, [[0.25, 0.5], [0.75, 0.5]])
    assert weighted_lp_error(quad_2d, one, p, w_const).value == pytest.approx(
        _box_moment((0.5, 0.5), p), rel=1e-13)
    assert weighted_lp_error(quad_2d, two, p, w_const).value == pytest.approx(
        2 * _box_moment((0.25, 0.5), p), rel=1e-13)
    # one tangent at the centre of the unit disc: 2 pi / (2^p (2p + 2))
    disc = quad_2d.restricted_to(Domain.ball([0.0, 0.0], 1.0))
    rep = weighted_lp_error(disc, _tangents(disc, [[0.0, 0.0]]), p, w_const)
    assert rep.value == pytest.approx(2 * np.pi / (2 ** p * (2 * p + 2)),
                                      rel=1e-12)


def test_cells_with_edges_along_the_sides(w_const):
    # tangents mirrored across two sides of the square: the edges between
    # a lattice cell and its mirror lie on the side, and the mirror cells
    # have no area inside
    wide = catalog_entry("quadratic", {}, Domain.box([-1.0, -1.0], [2.0, 2.0]))
    f = wide.restricted_to(Domain.box([0.0, 0.0], [1.0, 1.0]))
    for k in (4, 5, 8):
        c = (np.arange(k) + 0.5) / k
        pts = np.stack(np.meshgrid(c, c, indexing="ij"), -1).reshape(-1, 2)
        mirrors = [pts[pts[:, 1] == c[0]] * [1.0, -1.0],
                   pts[pts[:, 0] == c[-1]] * [-1.0, 1.0] + [2.0, 0.0]]
        l = tangent_planes(wide, np.vstack([pts] + mirrors))
        for p, want in ((1.0, 1.0 / (12 * k ** 2)), (2.0, 7.0 / (720 * k ** 4))):
            assert weighted_lp_error(f, l, p, w_const).value == pytest.approx(
                want, rel=1e-13), (k, p)


def _affine(domain):
    return catalog_entry("quadratic", {"hessian": [[0.0, 0.0], [0.0, 0.0]],
                                       "linear": [0.7, -0.4], "offset": 2.0},
                         domain)


def _region_sides(domain):
    """The sides and arcs of a planar domain: the one cell of the zero
    piece."""
    return _cell_boundaries(np.zeros((1, 2)), np.zeros(1), domain)


def _support(domain, u):
    """max over the domain of u . x, from its exact sides and arcs: the
    largest over the sides' corners, or u . centre + r on a ball."""
    _, s, _, arc, centre, radius = _region_sides(domain)
    if arc.any():
        return u @ centre + radius
    return np.max(u @ s.T, axis=1)


@pytest.mark.parametrize("domain, area", [
    (Domain.box([-0.5, 1.0], [2.0, 1.75]), 2.5 * 0.75),
    (_TRIANGLE, 0.5),
    (Domain.polytope([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0], [-1.0, 1.0]],
                     [0.0, 0.0, 1.0, 0.25]), 0.5 - 0.75 * 0.375 / 2),
    (Domain.ball([1.0, 2.0], 0.5), np.pi * 0.25)])
def test_region_sides_enclose_the_region(domain, area):
    # the pieces, sampled as polylines with both ends, lie on the boundary
    # and run counterclockwise: their shoelace area is the region's, or on
    # a ball its inscribed polygon's (the arcs are at most pi / 8 wide)
    _, s, d, arc, centre, radius = _region_sides(domain)
    n, k = s.shape[0], 64
    pts, _ = _Sectors(s=s, d=d, arc=arc).curve(
        np.tile(np.linspace(0.0, 1.0, k + 1), (n, 1)), centre, radius)
    x, y = pts[..., 0], pts[..., 1]
    shoelace = 0.5 * np.sum(x[:, :-1] * y[:, 1:] - y[:, :-1] * x[:, 1:])
    flat = pts.reshape(-1, 2)
    if domain.kind == "ball":
        assert np.all(arc) and np.all(np.abs(s[:, 1]) <= np.pi / 8 + 1e-15)
        np.testing.assert_allclose(np.hypot(*(flat - centre).T), radius,
                                   rtol=1e-14)
        assert shoelace < area
        area = 0.5 * n * k * radius ** 2 * np.sin(2 * np.pi / (n * k))
    else:
        assert not np.any(arc)
        ha, hb = domain.halfspaces()
        assert np.all(flat @ ha.T <= hb + 1e-14)
    assert shoelace == pytest.approx(area, rel=1e-14)


@pytest.mark.parametrize("domain, area", [
    (Domain.box([-0.5, 1.0], [2.0, 1.75]), 2.5 * 0.75),
    (_TRIANGLE, 0.5),
    (Domain.ball([0.3, -1.2], 0.8), np.pi * 0.64)])
def test_cells_tile_the_domain(w_const, domain, area):
    # l = f - 1 on the domain (to an ulp), so the cells' fans must add up
    # to its area.
    # Each extra plane rises above f - 1 only beyond a line that misses
    # the domain but crosses its bounding disc, so its cell is clipped
    # away; every fourth one lies far below everywhere.
    f = _affine(domain)
    lo, hi = domain.bounding_box()
    centre = (lo + hi) / 2.0
    reach = float(np.hypot(*(hi - lo))) / 2.0
    rng = rng_for("tiling", int(area * 100))
    angle = rng.uniform(0.0, 2.0 * np.pi, 60)
    u = np.column_stack([np.cos(angle), np.sin(angle)])
    support = _support(domain, u) - u @ centre
    touch = centre + (support + rng.uniform(0.05, 0.95, 60)
                      * (reach - support))[:, None] * u
    steep = rng.uniform(0.2, 3.0, 60)[:, None] * u
    slopes = np.vstack([[0.7, -0.4], [0.7, -0.4] + steep])
    touch = np.vstack([centre, touch])
    offsets = f.value(touch) - 1.0 - np.einsum("ij,ij->i", slopes, touch)
    offsets[1::4] -= 50.0
    # copies of the main piece an ulp above and below it: the hull keeps
    # one of the three, and the domain's sides must go to the same one
    slopes = np.vstack([slopes, slopes[:1], slopes[:1]])
    offsets = np.concatenate([offsets, np.nextafter(offsets[:1], np.inf),
                              np.nextafter(offsets[:1], -np.inf)])
    l = PiecewiseAffineMax(slopes, offsets)
    inside = domain.sample(rng, 4000)
    assert np.all(l.evaluate(inside) <= f.value(inside) - 1.0 + 1e-12)
    around = Domain.ball(centre, reach).sample(rng, 4000)
    assert np.any(l.evaluate(around) > f.value(around) - 1.0 + 1e-3)
    rep = weighted_lp_error(f, l, 1.0, w_const)
    assert rep.value == pytest.approx(area, rel=1e-13)


def _greedy_triangle(m=64):
    f = catalog_entry("cosh_quadratic", {}, _TRIANGLE)
    w = WeightFunction.exp_neg_t()
    return f, w, build_approximation(f, w, 2.0, m, "greedy_insertion", seed=1)


def test_cells_ignore_piece_order_duplicates_and_losers():
    f, w, l = _greedy_triangle()
    base = weighted_lp_error(f, l, 2.0, w)
    rng = rng_for("cells-order", 0)
    perm = rng.permutation(l.npieces)
    shuffled = PiecewiseAffineMax(l.slopes[perm], l.offsets[perm])
    assert weighted_lp_error(f, shuffled, 2.0, w).value == pytest.approx(
        base.value, rel=1e-12)
    # repeats of ten pieces, copies lowered by 1e-3 (below their original
    # everywhere) and planes far below: none of them changes l
    again = rng.choice(l.npieces, 10)
    padded = PiecewiseAffineMax(
        np.vstack([l.slopes, l.slopes[again], l.slopes[again],
                   rng.normal(size=(5, 2))]),
        np.concatenate([l.offsets, l.offsets[again], l.offsets[again] - 1e-3,
                        np.full(5, -100.0)]))
    assert weighted_lp_error(f, padded, 2.0, w).value == pytest.approx(
        base.value, rel=1e-12)


def _collapsed_triangle_reference(f, l, p, omega, panels, order=4):
    """Composite Gauss-Legendre over the unit square mapped onto the
    triangle by x = s, y = (1 - s) t, with no indicator."""
    g, wg = leggauss(order)
    edges = np.linspace(0.0, 1.0, panels + 1)
    nodes = ((edges[:-1, None] + edges[1:, None]) / 2
             + (edges[1:, None] - edges[:-1, None]) / 2 * g).ravel()
    weights = np.tile(wg / (2 * panels), panels)
    s, t = np.meshgrid(nodes, nodes, indexing="ij")
    pts = np.column_stack([s.ravel(), ((1 - s) * t).ravel()])
    fx = f.value(pts)
    vals = (np.maximum(fx - l.evaluate(pts), 0.0) ** p * omega(pts, fx)
            * (1 - pts[:, 0])).reshape(s.shape)
    return float(weights @ vals @ weights)


def _polar_disc_reference(f, l, p, omega, panels, order=4):
    """Composite Gauss-Legendre in radius and angle over the unit disc."""
    g, wg = leggauss(order)
    r_edges = np.linspace(0.0, 1.0, panels + 1)
    r = ((r_edges[:-1, None] + r_edges[1:, None]) / 2
         + g / (2 * panels)).ravel()
    wr = np.tile(wg / (2 * panels), panels)
    th_edges = np.linspace(0.0, 2 * np.pi, 4 * panels + 1)
    th = ((th_edges[:-1, None] + th_edges[1:, None]) / 2
          + g * np.pi / (4 * panels)).ravel()
    wth = np.tile(wg * np.pi / (4 * panels), 4 * panels)
    rr, tt = np.meshgrid(r, th, indexing="ij")
    pts = np.column_stack([(rr * np.cos(tt)).ravel(), (rr * np.sin(tt)).ravel()])
    fx = f.value(pts)
    vals = (np.maximum(fx - l.evaluate(pts), 0.0) ** p * omega(pts, fx)
            ).reshape(rr.shape) * rr
    return float(wr @ vals @ wth)


def test_cells_match_unmasked_references():
    # the allowance is each reference's own change between two resolutions
    f, w, l = _greedy_triangle()
    rep = weighted_lp_error(f, l, 2.0, w)
    coarse, fine = (_collapsed_triangle_reference(f, l, 2.0, w, n)
                    for n in (48, 96))
    assert abs(rep.value - fine) <= abs(fine - coarse)
    assert rep.error_bar <= 1e-9 * rep.value

    disc = catalog_entry("cosh_quadratic", {}, Domain.ball([0.0, 0.0], 1.0))
    l = build_approximation(disc, w, 1.5, 64, "paper_partition", seed=1)
    rep = weighted_lp_error(disc, l, 1.5, w)
    coarse, fine = (_polar_disc_reference(disc, l, 1.5, w, n)
                    for n in (48, 96))
    assert abs(rep.value - fine) <= abs(fine - coarse)
    assert rep.error_bar <= 1e-9 * rep.value


def _huber_1d_gap(ts, delta):
    """The 1-d gap h - max_i l_i of huber tangents at ts, with the points
    where it changes formula (crossings, tangency points, +-delta)."""
    h = catalog_entry("huber", {"delta": delta}, Domain.box([-1.0], [1.0]))
    l1 = _tangents(h, ts)
    _, edges = envelope_cells_1d(l1, (-1.0, 1.0))
    breaks = np.unique(np.concatenate([edges, ts, [-delta, delta]]))

    def gap(x):
        return np.maximum(h.value(x.reshape(-1, 1))
                          - l1.evaluate(x.reshape(-1, 1)), 0.0)
    return gap, breaks


@pytest.mark.parametrize("p", [0.5, 1.0])
def test_cells_on_huber(w_const, p):
    # tangents on a product grid: l(x, y) = L(x) + L(y) for the 1-d
    # envelope L, so f - l = g(x) + g(y), smooth inside each rectangle
    # of the 1-d break points
    delta = 0.5
    ts = np.array([-0.8, -0.35, 0.05, 0.4, 0.7])
    f = catalog_entry("huber", {"delta": delta},
                      Domain.box([-1.0, -1.0], [1.0, 1.0]))
    grid = np.stack(np.meshgrid(ts, ts, indexing="ij"), -1).reshape(-1, 2)
    rep = weighted_lp_error(f, _tangents(f, grid), p, w_const)
    gap, breaks = _huber_1d_gap(ts, delta)

    def tensor(order):
        g, wg = leggauss(order)
        x = ((breaks[:-1, None] + breaks[1:, None]) / 2
             + (breaks[1:, None] - breaks[:-1, None]) / 2 * g).ravel()
        wx = ((breaks[1:, None] - breaks[:-1, None]) / 2 * wg).ravel()
        gx = gap(x)
        return float(wx @ (gx[:, None] + gx[None, :]) ** p @ wx)

    # the cells are cut where the Hessian jumps, at |x_k| = delta, so the
    # gap is one quadratic on each part; Newton has no tangency point on
    # the arms, and where a tangent touches an arm in one coordinate the
    # gap vanishes along a line across the part, a kink of it for p < 1
    assert 0 < rep.error_bar <= 1e-2 * rep.value
    if p == 1:
        # g is piecewise quadratic: 8 nodes per piece are exact
        assert abs(rep.value - tensor(8)) <= rep.error_bar
    else:
        coarse, fine = tensor(24), tensor(48)
        assert abs(rep.value - fine) <= abs(fine - coarse) + rep.error_bar


def _clip_polygon(poly, normal, shift):
    """The convex polygon ``poly`` cut to {x : normal . x + shift <= 0}."""
    out = []
    for k in range(len(poly)):
        p, q = poly[k], poly[(k + 1) % len(poly)]
        fp, fq = normal @ p + shift, normal @ q + shift
        if fp <= 0:
            out.append(p)
        if fp * fq < 0:
            out.append(p + fp / (fp - fq) * (q - p))
    return np.array(out).reshape(-1, 2)


def _huber_reference(delta, region, l, p):
    """Integral of (huber - l)^p over the convex polygon ``region``
    (vertices in order), for integer p, to rounding.

    The lines x_k = +-delta cut it into parts where huber is one
    quadratic; each is cut into the cells of l by half-planes, and each
    cell's fan of triangles is integrated by a collapsed Gauss rule that
    is exact for the polynomial (huber - l_j)^p.  With delta past the
    region, huber is |x|^2 / 2 on it.
    """
    g, wg = leggauss(6)
    s, t = np.meshgrid((g + 1) / 2, (g + 1) / 2, indexing="ij")
    w = np.outer(wg, wg) / 4 * s
    ab = np.unique(np.column_stack([l.slopes, l.offsets]), axis=0)
    a, b = ab[:, :2], ab[:, 2]
    region = np.asarray(region, dtype=float)
    lo, hi = region.min(axis=0), region.max(axis=0)
    cuts = [np.unique(np.clip([lo[k], -delta, delta, hi[k]], lo[k], hi[k]))
            for k in range(2)]
    total = 0.0
    for x0, x1 in zip(cuts[0][:-1], cuts[0][1:]):
        for y0, y1 in zip(cuts[1][:-1], cuts[1][1:]):
            part = region
            for normal, shift in (((-1, 0), x0), ((1, 0), -x1),
                                  ((0, -1), y0), ((0, 1), -y1)):
                if len(part):
                    part = _clip_polygon(part, np.array(normal), shift)
            for j in range(b.size):
                poly = part
                for i in range(b.size):
                    if i != j and len(poly):
                        poly = _clip_polygon(poly, a[i] - a[j], b[i] - b[j])
                for k in range(1, len(poly) - 1):
                    v0, e1, e2 = poly[0], poly[k] - poly[0], poly[k + 1] - poly[k]
                    x = v0 + s[..., None] * e1 + (s * t)[..., None] * e2
                    ax = np.abs(x)
                    fx = np.where(ax <= delta, x * x / 2,
                                  delta * ax - delta * delta / 2).sum(axis=-1)
                    gap = np.maximum(fx - x @ a[j] - b[j], 0.0)
                    total += abs(e1[0] * e2[1] - e1[1] * e2[0]) * np.sum(
                        w * gap ** p)
    return total


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("case", [10, 15, 28, 37, 257])
def test_cells_on_huber_bar_covers_the_error(w_const, case, p):
    # 13 huber tangents in a random box and four of them mirrored across
    # one side: kinks of huber's Hessian at |x_k| = delta cross cells
    # whose apex is a tangency point as well as cells whose apex is not.
    # Cells cut at the kinks leave a polynomial gap on each part, which
    # the rules integrate to rounding.  The cases are ones where a kink
    # inside a sector hides from both rules, and a bar that does not cut
    # there reads 13 to 275 times below the error.  The reference is exact
    # to rounding only.
    delta = 0.3
    rng = rng_for("huber-mirrored", case)
    lo = rng.uniform(-1.0, 0.0, 2)
    hi = lo + rng.uniform(0.5, 1.5, 2)
    wide = catalog_entry("huber", {"delta": delta},
                         Domain.box(lo - 2.0, hi + 2.0))
    f = wide.restricted_to(Domain.box(lo, hi))
    pts = lo + rng.uniform(0.0, 1.0, (13, 2)) * (hi - lo)
    side = rng.integers(4)
    axis, edge = side % 2, (hi if side // 2 else lo)[side % 2]
    mirrored = pts[rng.choice(13, 4, replace=False)]
    mirrored[:, axis] = 2 * edge - mirrored[:, axis]
    l = tangent_planes(wide, np.vstack([pts, mirrored]))
    rep = weighted_lp_error(f, l, p, w_const)
    want = _huber_reference(
        delta, [lo, [hi[0], lo[1]], hi, [lo[0], hi[1]]], l, p)
    assert abs(rep.value - want) <= rep.error_bar + 1e-13 * want
    assert rep.error_bar <= 1e-9 * rep.value


@pytest.mark.parametrize("strategy", ["greedy_insertion", "uniform_grid"])
def test_cells_on_a_polygon_match_a_clipping_reference(strategy, w_const):
    # |x|^2 / 2 on the triangle at p = 1, where the clipping reference is
    # exact to rounding.  Each cut of a side must lie where the edge
    # between its two cells meets it: a cut a hair off leaves a sliver
    # that puts the value about 1e-12 of itself off, far outside a bar of
    # 1e-14 of it
    f = catalog_entry("quadratic", {}, _TRIANGLE)
    l = build_approximation(f, w_const, 1.0, 64, strategy, seed=1)
    rep = weighted_lp_error(f, l, 1.0, w_const)
    want = _huber_reference(10.0, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], l,
                            1.0)
    assert abs(rep.value - want) <= rep.error_bar + 1e-13 * want


def test_cells_reject_envelope_above_function(quad_2d, w_const):
    l = build_approximation(quad_2d, w_const, 1.0, 16, "uniform_grid")
    with pytest.raises(CircumscriptionError):
        weighted_lp_error(quad_2d, l.shifted(1e-3), 1.0, w_const)


def test_cells_keep_their_values_on_the_benchmark_envelopes(w_exp):
    # The 2-d error's value, bar and node count on the seed-1 greedy
    # envelopes of the triangle and paper_partition envelopes of the disc;
    # equal bit for bit.
    tri = Domain.polytope([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]],
                          [0.0, 0.0, 1.0])
    disc = Domain.ball([0.0, 0.0], 1.0)
    cases = (
        (tri, 2.0, "greedy_insertion", {"cloud_size": 204_800}, (
            (256, 3.5614748266716406e-09, 4.1488241618145736e-20, 52416),
            (1024, 1.981664079734823e-10, 4.0173473375029844e-22, 215532))),
        (disc, 1.5, "paper_partition", {}, (
            (256, 1.5175046881215548e-05, 1.2082399268373548e-14, 259560),
            (1024, 1.914447539230597e-06, 1.5578810654960963e-15,
             1002816))),
    )
    for dom, p, strategy, opts, want in cases:
        f = catalog_entry("cosh_quadratic", {}, dom)
        for m, value, bar, nodes in want:
            l = build_approximation(f, w_exp, p, m, strategy, seed=1, **opts)
            rep = weighted_lp_error(f, l, p, w_exp)
            assert (rep.value, rep.error_bar, rep.nodes_used) == (
                value, bar, nodes)
