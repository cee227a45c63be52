"""Strategy construction: exact 1-d solver, partitions, budgets, covariance."""

import logging
import math
import sys
import time

import numpy as np
import pytest
from scipy.integrate import quad

from maxaffine import (
    Domain,
    PiecewiseAffineMax,
    QuantizerConfig,
    STRATEGIES,
    WeightFunction,
    allocate_budget,
    build_approximation,
    catalog_entry,
    exact_1d_optimal,
    is_circumscribed,
    max_violation,
    partition_domain,
    quantize,
    run_sweep,
    weighted_lp_error,
)
from maxaffine import approximator
from maxaffine.approximator import (
    _crossings,
    _fd_tridiag_jacobian,
    _split_cell_halves,
    optimal_tangent_abscissas_1d,
    quantile_abscissas,
    stationarity_residual_1d,
)
from maxaffine.convex_core import rowdot, tangent_planes
from maxaffine.error_eval import exact_1d_piecewise_integral
from conftest import rng_for


# ---------------------------------------------------------------------------
# exact 1-d machinery


def test_fd_jacobian_slices_match_entry_loop(w_exp):
    # the 3-colour copy into solve_banded layout, as an entry-by-entry loop
    f = catalog_entry("cosh_quadratic", {}, Domain.box([-1.0], [1.0]))
    interval = (-1.0, 1.0)
    for m in (1, 2, 3, 4, 7):
        t = np.sort(rng_for("fd-jacobian", m).uniform(-0.9, 0.9, m))
        base = stationarity_residual_1d(f, w_exp, 1.5, t, interval)
        eps = 1e-7 * (interval[1] - interval[0])
        ref = np.zeros((3, m))
        for color in range(3):
            mask = np.zeros(m)
            mask[color::3] = eps
            shifted = stationarity_residual_1d(f, w_exp, 1.5, t + mask,
                                               interval)
            col = (shifted - base) / eps
            for j in range(color, m, 3):
                ref[1, j] = col[j]
                if j > 0:
                    ref[0, j] = col[j - 1]
                if j < m - 1:
                    ref[2, j] = col[j + 1]
        jac = _fd_tridiag_jacobian(f, w_exp, 1.5, t, interval, base)
        assert np.array_equal(jac, ref), m


def test_optimal_abscissas_quadratic_are_uniform(quad_1d, w_const):
    t = optimal_tangent_abscissas_1d(quad_1d, w_const, 1.0, 4)
    np.testing.assert_allclose(t, [1 / 8, 3 / 8, 5 / 8, 7 / 8], atol=1e-12)
    t1 = optimal_tangent_abscissas_1d(quad_1d, w_const, 1.0, 1)
    np.testing.assert_allclose(t1, [0.5], atol=1e-9)
    t2 = optimal_tangent_abscissas_1d(quad_1d, w_const, 2.0, 8)
    np.testing.assert_allclose(t2, (np.arange(8) + 0.5) / 8.0, atol=1e-10)


def _tangent_crossings(f, t):
    x = t.reshape(-1, 1)
    return _crossings(t, f.value(x), f.gradient(x)[:, 0])


def test_tangent_crossings_quadratic(quad_1d):
    b = _tangent_crossings(quad_1d, np.array([0.25, 0.75]))
    np.testing.assert_allclose(b, [0.5], rtol=1e-14)


def _error_at(f, omega, p, t):
    return weighted_lp_error(f, tangent_planes(f, t[:, None]), p,
                             omega).value


def test_envelope_error_frozen_values(quad_1d, w_const):
    # Delta_1 = 1/(24 m^2) and Delta_2 = 1/(320 m^4) at the optimum
    for m, target in ((1, 1 / 24), (2, 1 / 96), (4, 1 / 384), (8, 1 / 1536)):
        t = optimal_tangent_abscissas_1d(quad_1d, w_const, 1.0, m)
        err = _error_at(quad_1d, w_const, 1.0, t)
        assert err == pytest.approx(target, rel=1e-12)
    t = optimal_tangent_abscissas_1d(quad_1d, w_const, 2.0, 2)
    err2 = _error_at(quad_1d, w_const, 2.0, t)
    assert err2 == pytest.approx(1.0 / 5120.0, rel=1e-12)


@pytest.mark.parametrize("p", [0.1, 0.25])
@pytest.mark.parametrize("weight", ["constant", "exp_neg_t"])
def test_one_tangent_minimizes_the_error(p, weight):
    # m = 1 minimizes the error itself: no interior tangent on a fine grid
    # does better, and the symmetric stationary point t = 0 is at least 2%
    # worse (22.3%, 7.2%, 17.4% and 2.3% measured), as the solver's
    # comment says
    f = catalog_entry("huber", {"delta": 0.5}, Domain.box([-1.0], [1.0]))
    omega = WeightFunction.from_config({"catalog_id": weight,
                                        "parameters": {}})

    def error(l):
        return exact_1d_piecewise_integral(f, l, p, omega).value

    best = error(build_approximation(f, omega, p, 1, "exact_1d"))
    grid = np.linspace(-1.0, 1.0, 401)[1:-1]
    errors = [error(tangent_planes(f, [t])) for t in grid]
    assert best <= (1.0 + 1e-12) * min(errors)
    assert errors[199] >= 1.02 * best


def test_stationarity_residual_vanishes_at_optimum(quad_1d, w_const):
    t = optimal_tangent_abscissas_1d(quad_1d, w_const, 1.0, 4)
    res = stationarity_residual_1d(quad_1d, w_const, 1.0, t, (0.0, 1.0))
    assert np.max(np.abs(res)) < 1e-12
    bad = t + np.array([0.02, -0.01, 0.0, 0.01])
    res_bad = stationarity_residual_1d(quad_1d, w_const, 1.0, bad, (0.0, 1.0))
    assert np.max(np.abs(res_bad)) > 1e-4


def test_newton_on_cosh_is_stationary(w_const):
    dom = Domain.box([-1.0], [1.0])
    f = catalog_entry("cosh_quadratic", {"eps": 0.3, "freq": 2.0}, dom)
    t_full = optimal_tangent_abscissas_1d(f, w_const, 1.0, 6)
    res = stationarity_residual_1d(f, w_const, 1.0, t_full, (-1.0, 1.0))
    assert np.max(np.abs(res)) < 1e-9


@pytest.mark.parametrize("m", [2, 3, 4, 8, 16, 24])
@pytest.mark.parametrize("weight", ["constant", "exp_neg_t"])
@pytest.mark.parametrize("cid, params", [
    ("quadratic", {}), ("cosh_quadratic", {}), ("exp_sum", {}),
    ("quartic", {}), ("quartic", {"eps": 0.0}), ("huber", {})])
def test_quantile_start_is_stationary_at_p1(cid, params, weight, m):
    # the quantile start serves every m >= 2; Newton must reach a root
    # from it on every 1-d catalog entry at p = 1
    f = catalog_entry(cid, params, Domain.box([-1.0], [1.0]))
    omega = WeightFunction.from_config({"catalog_id": weight,
                                        "parameters": {}})
    t = optimal_tangent_abscissas_1d(f, omega, 1.0, m)
    halves = _split_cell_halves(f, omega, 1.0, t, (-1.0, 1.0))
    res = halves[:, 1] - halves[:, 0]
    assert np.max(np.abs(res)) <= 1e-9 * np.max(np.sum(halves, axis=1))


@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0])
def test_split_halves_cut_where_omega_jumps(p):
    # on x^2 / 2 the half integrals are 2^(1-p) int |x - t_j|^(2p-1) omega,
    # in closed form for a step omega.  The jumps sit mid-half, in a left
    # half, two in one half, and 1e-9 from t_j = 0, a deep geometric split
    # where f(t_j) = f'(t_j) = 0, so the gap is formed without cancelling
    f = catalog_entry("quadratic", {}, Domain.box([-1.0], [1.0]))
    t = np.array([-0.6, -0.2, 0.0, 0.45, 0.8])
    jumps = np.array([-0.5, -0.3, 1e-9, 0.1, 0.55, 0.6])
    levels = np.array([1.0, 3.0, 0.5, 0.0, 2.0, 1.5, 4.0])

    def omega(x, _):
        return levels[np.searchsorted(jumps, x[:, 0])]

    edges = np.concatenate([[-1.0], (t[1:] + t[:-1]) / 2.0, [1.0]])
    ref = np.zeros((t.size, 2))
    for j, tj in enumerate(t):
        for side, (a, b) in enumerate([(edges[j], tj), (tj, edges[j + 1])]):
            cuts = np.concatenate([[a], jumps[(jumps > a) & (jumps < b)], [b]])
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                w = levels[np.searchsorted(jumps, (lo + hi) / 2.0)]
                ref[j, side] += (w * abs(abs(hi - tj) ** (2 * p)
                                         - abs(lo - tj) ** (2 * p))
                                 * 2.0 ** (1 - p) / (2 * p))
    # the rule alone does not see the jumps
    plain = _split_cell_halves(f, omega, p, t, (-1.0, 1.0))
    assert np.max(np.abs(plain - ref) / ref) > 1e-2
    omega.jumps = jumps
    halves = _split_cell_halves(f, omega, p, t, (-1.0, 1.0))
    np.testing.assert_allclose(halves, ref, rtol=1e-12, atol=0)


def _start_and_floor(f, omega, p, m):
    """The solve's quantile start, its residual and its rounding floor."""
    a, b = -1.0, 1.0
    t = np.clip(quantile_abscissas(f, omega, p, m),
                a + 1e-12 * (b - a), b - 1e-12 * (b - a))
    halves, gap = _split_cell_halves(f, omega, p, t, (a, b), bound=True)
    floor = approximator._residual_floor(f, p, t, halves, (a, b), gap)
    return t, halves, halves[:, 1] - halves[:, 0], floor


@pytest.mark.parametrize("m", [16, 256])
@pytest.mark.parametrize("p", [0.25, 1.0, 2.0])
@pytest.mark.parametrize("cid, params, weight", [
    (cid, params, weight)
    for cid, params in [("quadratic", {}), ("cosh_quadratic", {}),
                        ("exp_sum", {}), ("quartic", {}),
                        ("quartic", {"eps": 0.0}), ("huber", {})]
    for weight in ("constant", "exp_neg_t")
    # the uniform midpoints of x^2/2 at constant weight are the optimum
    if (cid, weight) != ("quadratic", "constant")])
def test_rounding_floor_cannot_stop_a_solve_at_its_start(cid, params, weight,
                                                         p, m):
    f = catalog_entry(cid, params, Domain.box([-1.0], [1.0]))
    omega = WeightFunction(weight, {})
    _, _, res, floor = _start_and_floor(f, omega, p, m)
    assert np.all(floor >= 0.0)
    assert np.any(np.abs(res) >= 100.0 * floor)


@pytest.mark.parametrize("cid, wid, interval, p, m", [
    ("cosh_quadratic", "constant", (-1.0, 1.0), 2.0, 1024),
    # the cells next to x = 0, where the crossings' floor vanishes, once
    # stalled this solve in a 25-trial line search that could not pass
    ("quadratic", "exp_neg_t", (0.0, 1.0), 1.0, 256)])
def test_newton_stops_at_its_rounding_floor(cid, wid, interval, p, m,
                                            monkeypatch):
    # the residual bottoms out above 1e-12 of its scale; the solve must
    # end there, not after line searches that cannot pass
    f = catalog_entry(cid, {}, Domain.box([interval[0]], [interval[1]]))
    omega = WeightFunction(wid, {})
    residual = approximator.stationarity_residual_1d
    trials = [0]        # line-search trials of each Newton step

    def counted(*args, **kwargs):
        if sys._getframe(1).f_code.co_name == "_newton":
            trials[-1] += 1
        elif trials[-1]:            # a Jacobian column opens a new step
            trials.append(0)
        return residual(*args, **kwargs)

    monkeypatch.setattr(approximator, "stationarity_residual_1d", counted)
    t, met = approximator._solve_1d(f, omega, p, m)
    assert met and len(trials) > 1 and max(trials) < 25, trials
    a, b = interval
    start = np.clip(quantile_abscissas(f, omega, p, m),
                    a + 1e-12 * (b - a), b - 1e-12 * (b - a))
    halves = _split_cell_halves(f, omega, p, start, interval)
    ref = np.max(np.sum(halves, axis=1))
    res = residual(f, omega, p, t, interval)
    # the solve gets within the crossings' floor alone
    floor = approximator._residual_floor(f, p, t, halves, interval, 0.0)
    assert np.all(np.abs(res) <= np.maximum(1e-12 * ref, floor))


def test_quantile_abscissas_interlace(quad_1d, w_exp):
    t = quantile_abscissas(quad_1d, w_exp, 1.0, 12)
    assert t.shape == (12,)
    assert np.all(np.diff(t) > 0)
    assert t[0] > 0.0 and t[-1] < 1.0


def test_exact_1d_weighted_ratio(w_exp, quad_1d):
    # the weighted solver must beat naive placements on its own objective
    t_opt = optimal_tangent_abscissas_1d(quad_1d, w_exp, 1.0, 6)
    err_opt = _error_at(quad_1d, w_exp, 1.0, t_opt)
    t_unif = (np.arange(6) + 0.5) / 6.0
    err_unif = _error_at(quad_1d, w_exp, 1.0, t_unif)
    assert err_opt <= err_unif + 1e-15
    res = stationarity_residual_1d(quad_1d, w_exp, 1.0, t_opt, (0.0, 1.0))
    assert np.max(np.abs(res)) < 1e-10


def _cosh_gap(t, x):
    """cosh x - cosh t - sinh t (x - t), free of cancellation near t."""
    d = x - t
    # sinh d - d by its series; |d| <= 2 here, so 15 terms reach 1e-25
    k = np.arange(1, 16)
    sinh_less_d = float(np.sum(d ** (2 * k + 1)
                               / np.array([math.factorial(2 * j + 1)
                                           for j in k], dtype=float)))
    return math.cosh(t) * 2.0 * math.sinh(d / 2.0) ** 2 \
        + math.sinh(t) * sinh_less_d


@pytest.mark.parametrize("p", [0.5, 1.5, 2.0])
def test_split_cell_kernel_matches_quad(p, w_exp):
    # every cell's residual against scipy's quad, broken at
    # the tangency point, with the gap written without cancellation.  The
    # residual is a difference of its halves, so it is held to the cell's
    # integral of |integrand|.  The points are jittered midpoints: in a
    # half far shorter than its cell, the rounding of f - l_j near t_j
    # (not the rule) limits agreement to about 1e-10.
    f = catalog_entry("cosh_quadratic", {}, Domain.box([-1.0], [1.0]))
    jitter = rng_for("split-cell", 0).uniform(-0.3, 0.3, 7)
    t = -1.0 + (np.arange(7) + 0.5 + jitter) * 2.0 / 7.0
    edges = np.concatenate([[-1.0], _tangent_crossings(f, t), [1.0]])
    res = stationarity_residual_1d(f, w_exp, p, t, (-1.0, 1.0))
    for j, tj in enumerate(t):
        def term(x, power, lever):
            gap = _cosh_gap(tj, x)
            if gap <= 0.0:
                return 0.0
            return gap ** power * lever(x) * math.exp(-math.cosh(x))

        def want(power, lever):
            return quad(term, edges[j], edges[j + 1], args=(power, lever),
                        points=[tj], epsabs=0.0, epsrel=1e-12, limit=200)[0]

        scale = want(p - 1.0, lambda x: abs(x - tj))
        assert abs(res[j] - want(p - 1.0, lambda x: x - tj)) <= 1e-10 * scale


def _half_rule(beta):
    """The split-cell rule's own Gauss-Jacobi factory, verbatim, before it
    became ``quadrature._jacobi01(12, beta)``."""
    from scipy.special import roots_jacobi
    s, w = roots_jacobi(12, 0.0, beta)
    return (1.0 + s) / 2.0, w / 2.0 ** (beta + 1.0)


@pytest.mark.parametrize("cid, interval, wid, p", [
    ("quadratic", (0.0, 1.0), "constant", 1.0),
    ("quadratic", (0.0, 1.0), "exp_neg_t", 1.0),
    ("cosh_quadratic", (-1.0, 1.0), "constant", 2.0),
    ("exp_sum", (-1.0, 1.0), "exp_neg_t", 1.5)])
def test_exact_1d_tangents_keep_the_half_rule(cid, interval, wid, p,
                                              monkeypatch):
    # the shared rule factory gives the solver its old nodes and weights,
    # so its tangents stay the same bit for bit
    f = catalog_entry(cid, {}, Domain.box([interval[0]], [interval[1]]))
    w = WeightFunction(wid, {})
    sizes = (16, 256, 2048)
    got = [build_approximation(f, w, p, m, "exact_1d") for m in sizes]

    def verbatim(order, beta):
        assert order == 12
        return _half_rule(beta)

    monkeypatch.setattr(approximator, "_jacobi01", verbatim)
    for m, l in zip(sizes, got):
        want = build_approximation(f, w, p, m, "exact_1d")
        assert np.array_equal(l.slopes, want.slopes), m
        assert np.array_equal(l.offsets, want.offsets), m


def test_split_cell_kernel_edge_cases(w_const):
    f = catalog_entry("cosh_quadratic", {}, Domain.box([-1.0], [1.0]))
    # a tangency point on the interval's edge: that half has zero width
    for p in (0.5, 1.0, 1.5):
        halves = _split_cell_halves(f, w_const, p, np.array([-1.0, 0.5]),
                                    (-1.0, 1.0))
        assert np.all(np.isfinite(halves)) and halves[0, 0] == 0.0
    # f = 0: the gap vanishes everywhere, and each term is 0, not inf
    flat = catalog_entry("quadratic", {"hessian": [[0.0]]},
                         Domain.box([-1.0], [1.0]))
    halves = _split_cell_halves(flat, w_const, 0.5, np.array([0.3]),
                                (-1.0, 1.0))
    assert np.array_equal(halves, [[0.0, 0.0]])


@pytest.mark.parametrize("p", [0.5, 0.75])
def test_exact_1d_below_p1_reaches_the_law(p, w_const, caplog):
    # the split-cell residual lets the one Newton solve serve p < 1
    f = catalog_entry("cosh_quadratic", {}, Domain.box([-1.0], [1.0]))
    start = time.perf_counter()
    with caplog.at_level(logging.WARNING, logger="maxaffine.approximator"):
        out = run_sweep(f, w_const, p, [64], "exact_1d")
    elapsed = time.perf_counter() - start
    assert not caplog.records
    assert not out.partial
    rec, = out.records
    assert abs(rec.ratio - 1.0) <= 1e-3
    t0 = quantile_abscissas(f, w_const, p, 64)
    assert rec.error <= weighted_lp_error(f, tangent_planes(f, t0[:, None]), p,
                                          w_const).value
    assert elapsed < 1.0


def test_exact_1d_huber_flat_pieces(w_const):
    dom = Domain.box([-1.0], [1.0])
    f = catalog_entry("huber", {"delta": 0.5}, dom)
    l = exact_1d_optimal(f, w_const, 1.0, 8)
    assert l.npieces <= 8
    x = np.linspace(-1, 1, 2001)[:, None]
    assert max_violation(f, l, x) <= 1e-12


@pytest.mark.parametrize("p, m", [(0.5, 16), (0.5, 64), (1.5, 16),
                                  (1.5, 64)])
def test_exact_1d_huber_holds_the_arms(p, m, w_const):
    # the optimum takes the two arms' lines, tangent at +-delta, and spaces
    # the other m - 2 points evenly between them; each of the m - 1 gaps
    # adds the integral of (x^2/2)^p over [-h/2, h/2], h = 2 delta/(m - 1).
    # Newton alone stops short there: for p < 1 the residual jumps at
    # +-delta, and for p < 2 its slope is singular
    f = catalog_entry("huber", {"delta": 0.5}, Domain.box([-1.0], [1.0]))
    start = time.perf_counter()
    out = run_sweep(f, w_const, p, [m], "exact_1d")
    assert time.perf_counter() - start < 2.0
    assert not out.partial
    h = 1.0 / (m - 1)
    gap_cost = 2.0 * (h / 2.0) ** (2 * p + 1) / ((2 * p + 1) * 2.0 ** p)
    assert out.records[0].error == pytest.approx((m - 1) * gap_cost,
                                                 rel=1e-9)
    # at p = 1.5 the end points are roots 1.5e-8 (m = 16) inside the arms
    l = exact_1d_optimal(f, w_const, p, m)
    assert l.npieces == m
    assert np.allclose(l.slopes[[0, -1], 0], [-0.5, 0.5], rtol=0, atol=1e-7)


def test_exact_1d_fails_when_newton_stops_off_a_root(w_const, monkeypatch):
    # without the sweeps that hold huber's arms, Newton stops far from a
    # root; the sweep records a failure instead of a wrong envelope
    f = catalog_entry("huber", {"delta": 0.5}, Domain.box([-1.0], [1.0]))
    monkeypatch.setattr(approximator, "_bisection_sweeps",
                        lambda f, omega, p, t, interval:
                        (t, np.zeros(t.size, dtype=bool)))
    with pytest.raises(ArithmeticError, match="not stationary"):
        exact_1d_optimal(f, w_const, 0.5, 16)
    out = run_sweep(f, w_const, 0.5, [1, 16], "exact_1d")
    assert out.partial and len(out.records) == 1
    assert "not stationary" in out.failure


def test_exact_1d_rejects_higher_dimensions(quad_2d, w_const):
    with pytest.raises(ValueError):
        build_approximation(quad_2d, w_const, 1.0, 4, "exact_1d")


# ---------------------------------------------------------------------------
# partition and budgets


# law: catalog id, interval, weight, p, and Zador's prediction of the ratio
# when the quantizer is given the law density L itself as its weight
_LAWS_1D = {
    "quadratic": ("quadratic", (0.0, 4.0), "exp_neg_t", 1.0, 1.39816),
    "cosh_quadratic": ("cosh_quadratic", (-3.0, 3.0), "constant", 1.0,
                       1.08151),
    "exp_sum": ("exp_sum", (-2.0, 2.0), "exp_neg_t", 2.0, 1.12981),
}


@pytest.mark.parametrize("law", sorted(_LAWS_1D))
def test_global_density_weight_puts_points_at_the_law(law):
    # a quantizer puts its points at its weight to the power n/(n+2p), so
    # global_density's weight L^((n+2p)/n) puts them at L and the ratio
    # reaches 1; the weight L puts them at L^(n/(n+2p)), and the ratio
    # reaches Zador's prediction for that density
    cid, (a, b), wid, p, biased = _LAWS_1D[law]
    f = catalog_entry(cid, {}, Domain.box([a], [b]))
    omega = getattr(WeightFunction, wid)()
    m = 256
    out = run_sweep(f, omega, p, [m], "global_density")
    assert abs(out.records[0].ratio - 1.0) <= 1e-3
    ps = quantize(f.domain, approximator._law_density(f, omega, p),
                  QuantizerConfig(m=m, p=p))
    err = weighted_lp_error(f, tangent_planes(f, ps.points), p, omega).value
    assert abs(m ** (2.0 * p) * err / out.theory - biased) <= 1e-3


def test_partition_tiles_the_box(quad_2d):
    part = partition_domain(quad_2d, 6)
    assert len(part.cells) == 36  # 6 per axis on the unit square
    vols = np.array([np.prod(hi - lo) for lo, hi in part.cells])
    assert vols.sum() == pytest.approx(1.0, rel=1e-9)
    for (lo, hi), anchor in zip(part.cells, part.anchors):
        assert np.all(anchor > lo - 1e-12) and np.all(anchor < hi + 1e-12)


def test_partition_clips_on_ball():
    ball = Domain.ball([0.0, 0.0], 1.0)
    f = catalog_entry("quadratic", {}, ball)
    part = partition_domain(f, 4)
    assert ball.contains(part.anchors).all()


def test_allocation_floors_and_total(quad_2d, w_const):
    part = partition_domain(quad_2d, 2)  # 4 cells
    for m in (4, 7, 16, 64):
        alloc = allocate_budget(part, quad_2d, w_const, 1.0, m)
        assert alloc.budgets.sum() == m
        assert np.all(alloc.budgets >= 1)
        floors = np.floor(alloc.masses * m).astype(int)
        assert floors.sum() <= m
        assert np.all(alloc.budgets >= floors)
    assert alloc.masses.sum() == pytest.approx(1.0, rel=1e-12)


def test_allocation_needs_enough_budget(quad_2d, w_const):
    part = partition_domain(quad_2d, 3)  # 9 cells
    with pytest.raises(ValueError):
        allocate_budget(part, quad_2d, w_const, 1.0, 5)


# ---------------------------------------------------------------------------
# strategies


def test_uniform_grid_1d_hits_midpoints(quad_1d, w_const):
    l = build_approximation(quad_1d, w_const, 1.0, 4, "uniform_grid")
    rep = weighted_lp_error(quad_1d, l, 1.0, w_const)
    assert rep.value == pytest.approx(1.0 / 384.0, rel=1e-12)


def test_unknown_strategy_rejected(quad_1d, w_const):
    with pytest.raises(ValueError):
        build_approximation(quad_1d, w_const, 1.0, 4, "clever_trick")
    assert set(STRATEGIES) == {"paper_partition", "global_density",
                               "greedy_insertion", "uniform_grid", "exact_1d"}


@pytest.mark.parametrize("strategy", ["uniform_grid", "global_density",
                                      "greedy_insertion", "paper_partition"])
def test_strategies_build_circumscribed_envelopes_2d(strategy, quad_2d, w_const):
    l = build_approximation(quad_2d, w_const, 1.0, 9, strategy, seed=11)
    assert l.npieces <= 9
    pts = quad_2d.domain.sample(np.random.default_rng(0), 20_000)
    ok, worst = is_circumscribed(quad_2d, l, pts)
    assert ok, worst


def test_budget_is_respected_across_strategies(quad_2d, w_const):
    for strategy in ("uniform_grid", "global_density", "greedy_insertion",
                     "paper_partition"):
        for m in (1, 3, 10):
            l = build_approximation(quad_2d, w_const, 1.0, m, strategy, seed=5)
            assert 1 <= l.npieces <= m


def test_greedy_is_monotone_at_fixed_nodes(quad_2d, w_const):
    errs = []
    for m in (4, 8, 16):
        l = build_approximation(quad_2d, w_const, 1.0, m, "greedy_insertion",
                                seed=3, cloud_size=20_000)
        errs.append(weighted_lp_error(quad_2d, l, 1.0, w_const).value)
    assert errs[0] >= errs[1] >= errs[2]


def test_vertical_shift_equivariance(quad_2d, w_const):
    for strategy in ("uniform_grid", "global_density", "greedy_insertion",
                     "paper_partition"):
        l0 = build_approximation(quad_2d, w_const, 1.0, 6, strategy, seed=7)
        l1 = build_approximation(quad_2d.with_offset(2.5), w_const, 1.0, 6,
                                 strategy, seed=7)
        np.testing.assert_allclose(l1.offsets, l0.offsets + 2.5, atol=1e-12)
        np.testing.assert_allclose(l1.slopes, l0.slopes, atol=1e-12)


def test_exact_1d_shift_equivariance(quad_1d, w_const):
    l0 = build_approximation(quad_1d, w_const, 1.0, 5, "exact_1d")
    l1 = build_approximation(quad_1d.with_offset(-1.0), w_const, 1.0, 5,
                             "exact_1d")
    np.testing.assert_allclose(l1.offsets, l0.offsets - 1.0, atol=1e-12)


def test_diagonal_affine_covariance_of_construction(w_const):
    # x -> 2x maps [0, 1/2] onto [0, 1]; tangents transform contravariantly
    dom = Domain.box([0.0], [0.5])
    g = catalog_entry("quadratic", {"hessian": [[4.0]]}, dom)  # g(y)=f(2y)
    lf = build_approximation(
        catalog_entry("quadratic", {"hessian": [[1.0]]}, Domain.box([0.0], [1.0])),
        w_const, 1.0, 4, "exact_1d")
    lg = build_approximation(g, w_const, 1.0, 4, "exact_1d")
    t = np.array([[2.0]])
    y = np.linspace(0, 0.5, 101)[:, None]
    np.testing.assert_allclose(lg.evaluate(y), lf.compose_linear(t).evaluate(y),
                               atol=1e-13)


def test_paper_partition_accepts_piece_count(quad_2d, w_const):
    l = build_approximation(quad_2d, w_const, 1.0, 12, "paper_partition",
                            seed=1, l_pieces=3)
    assert l.npieces <= 12
    # an oversized grid request is coarsened until it fits the budget
    l2 = build_approximation(quad_2d, w_const, 1.0, 2, "paper_partition",
                             seed=1, l_pieces=5)
    assert 1 <= l2.npieces <= 2


def _greedy_reference(f, omega, p, m, seed=0, cloud_size=None):
    """greedy_insertion's picks as first written: every pick rescans the
    cloud."""
    rng = np.random.default_rng((seed, 71))
    cloud = f.domain.sample(rng, cloud_size or max(20_000, 200 * m))
    fx = f.value(cloud)
    wx = np.asarray(omega(cloud, fx), dtype=float)
    points = [f.domain.centroid()]
    psi = tangent_planes(f, points[0])
    lx = rowdot(cloud, psi.slopes[0]) + psi.offsets[0]
    for _ in range(m - 1):
        gap = np.maximum(fx - lx, 0.0)
        score = gap ** p * wx
        points.append(cloud[int(np.argmax(score))])
        psi = tangent_planes(f, points[-1])
        np.maximum(lx, rowdot(cloud, psi.slopes[0]) + psi.offsets[0], out=lx)
    return points


_TRIANGLE = Domain.polytope([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]],
                            [0.0, 0.0, 1.0])
_GREEDY_CASES = {
    "box1d": ("exp_sum", {"alpha": [1.3], "mu": 0.2},
              Domain.box([-1.0], [0.5])),
    "box2d": ("quadratic", {"hessian": [[2.0, 0.5], [0.5, 1.0]],
                            "linear": [0.3, -0.2]},
              Domain.box([0.0, -1.0], [1.0, 2.0])),
    "ball2d": ("exp_sum", {"alpha": [0.8, -0.5]}, Domain.ball([0.2, 0.1], 1.5)),
    "triangle": ("cosh_quadratic", {}, _TRIANGLE),
}


def _assert_greedy_matches_reference(f, omega, p, m, **kw):
    got = build_approximation(f, omega, p, m, "greedy_insertion", **kw)
    points = _greedy_reference(f, omega, p, m, **kw)
    want = tangent_planes(f, np.stack(points))
    np.testing.assert_array_equal(got.slopes, want.slopes)
    np.testing.assert_array_equal(got.offsets, want.offsets)
    # each piece is its pick's plane alone, bit for bit
    for j, x in enumerate(points):
        alone = tangent_planes(f, x)
        assert np.array_equal(got.slopes[j], alone.slopes[0])
        assert got.offsets[j] == alone.offsets[0]


@pytest.mark.parametrize("case", list(_GREEDY_CASES))
@pytest.mark.parametrize("m", [1, 2, 17, 300])
def test_greedy_matches_full_rescan(case, m, w_const, w_exp):
    catalog_id, params, domain = _GREEDY_CASES[case]
    f = catalog_entry(catalog_id, params, domain)
    if m == 300:  # the default 60,000-point cloud: two runs are enough
        runs = [(0.5, w_exp), (3, w_const)]
    else:
        runs = [(p, omega) for p in (0.5, 1.0, 2.0, 3)
                for omega in (w_const, w_exp)]
    for p, omega in runs:
        _assert_greedy_matches_reference(
            f, omega, p, m, seed=m, cloud_size=None if m == 300 else 5000)


@pytest.mark.parametrize("cloud_kind",
                         ["duplicates", "flat", "lone", "near_affine"])
def test_greedy_matches_full_rescan_on_degenerate_clouds(cloud_kind, w_const,
                                                         monkeypatch):
    rng = rng_for("greedy-degenerate", 0)
    square = Domain.box([0.0, 0.0], [1.0, 1.0])
    f = catalog_entry("quadratic", {}, square)
    if cloud_kind == "duplicates":
        # 81 dyadic rows repeated many times: exact score ties within and
        # across buckets, and past m = 81 every gap is zero or rounding
        cloud = rng.integers(0, 9, size=(3000, 2)) / 8.0
    elif cloud_kind == "flat":
        # zero width along y: one slab of buckets
        cloud = np.column_stack([rng.random(3000), np.full(3000, 0.375)])
    elif cloud_kind == "lone":
        # a few repeated points plus single rows alone in their buckets,
        # so hit sets of one row occur once the gaps are rounding noise
        cloud = np.vstack([np.repeat(rng.random((4, 2)) * 0.2, 1600, axis=0),
                           rng.random((30, 2)) * 0.8 + 0.2])
    else:
        # curvature 3e-15: tangent slopes differ by tens of ulps, so gaps
        # are rounding noise and many skip tests fall inside the slack
        f = catalog_entry("quadratic", {"hessian": 3e-15 * np.eye(2),
                                        "linear": [0.7, -1.1]}, square)
        cloud = rng.random((6400, 2))
    monkeypatch.setattr(Domain, "sample", lambda self, rng, count: cloud.copy())
    for p in (0.5, 2.0):
        for m in (17, 120):
            _assert_greedy_matches_reference(f, w_const, p, m)


def test_greedy_handles_m_equal_one(quad_2d, w_const):
    l = build_approximation(quad_2d, w_const, 1.0, 1, "greedy_insertion", seed=9)
    assert l.npieces == 1
    pts = quad_2d.domain.sample(np.random.default_rng(1), 1000)
    assert max_violation(quad_2d, l, pts) <= 1e-12


def test_strategies_work_on_ball_domain(w_const):
    ball = Domain.ball([0.0, 0.0], 1.0)
    f = catalog_entry("quadratic", {}, ball)
    for strategy in ("uniform_grid", "global_density", "paper_partition"):
        l = build_approximation(f, w_const, 1.0, 8, strategy, seed=2)
        pts = ball.sample(np.random.default_rng(3), 10_000)
        assert max_violation(f, l, pts) <= 1e-12
