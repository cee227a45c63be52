"""Lloyd quantizer: brute-force oracles, invariants, metric equivariance."""

import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

from maxaffine import (
    Domain,
    MetricError,
    QuadraticForm,
    QuadratureSpec,
    QuantizerConfig,
    WeightFunction,
    brute_force_1d,
    catalog_entry,
    quantize,
    quantizer_objective,
    whiten,
)
from maxaffine import approximator, quantizer
from maxaffine import (allocate_budget, build_approximation, partition_domain,
                       tangent_planes)
from maxaffine.approximator import _law_density, _probe_lattice
from maxaffine.functionals import law_exponents
from maxaffine.quadrature import tensor_nodes
from maxaffine.convex_core import rowdot
from maxaffine.quantizer import (_SLACK, _BoundedAssigner, _assign,
                                 _fps_select, _generic_cell_update)
from conftest import rng_for


def _uniform_objective_1d(points, p):
    """Exact distortion of sorted 1-d points against the uniform density.

    Voronoi cells are the midpoint intervals; each contributes
    ((t-l)^{2p+1} + (r-t)^{2p+1}) / (2p+1).
    """
    t = np.sort(np.asarray(points, dtype=float).ravel())
    edges = np.concatenate([[0.0], (t[1:] + t[:-1]) / 2.0, [1.0]])
    left = t - edges[:-1]
    right = edges[1:] - t
    q = 2.0 * p + 1.0
    return float(np.sum(left ** q + right ** q) / q)


def test_whiten_reproduces_metric():
    a = np.array([[4.0, 1.0], [1.0, 2.0]])
    w = whiten(QuadraticForm.from_matrix(a))
    np.testing.assert_allclose(w.T @ w, a, rtol=1e-14, atol=1e-14)


def test_brute_force_small_m_midpoints():
    np.testing.assert_allclose(brute_force_1d(1, 1.0).points.ravel(), [0.5],
                               atol=1e-4)
    np.testing.assert_allclose(brute_force_1d(2, 1.0).points.ravel(),
                               [0.25, 0.75], atol=1e-4)
    np.testing.assert_allclose(brute_force_1d(4, 2.0).points.ravel(),
                               [0.125, 0.375, 0.625, 0.875], atol=1e-4)
    with pytest.raises(ValueError):
        brute_force_1d(5, 1.0)
    with pytest.raises(ValueError):
        brute_force_1d(0, 1.0)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_brute_force_recovers_zador_constant(p):
    # the oracle behind the sweep theory: rescale the exact distortion of
    # the brute-force points and compare with 1/(2^{2p}(2p+1))
    m = 4
    ps = brute_force_1d(m, p)
    delta_hat = m ** (2.0 * p) * _uniform_objective_1d(ps.points, p)
    target = 1.0 / (2.0 ** (2 * p) * (2 * p + 1))
    assert delta_hat == pytest.approx(target, rel=1e-6)
    assert ps.objective == pytest.approx(_uniform_objective_1d(ps.points, p),
                                         rel=1e-10)


def test_quantize_uniform_interval_near_midpoints():
    dom = Domain.box([0.0], [1.0])
    ps = quantize(dom, None, QuantizerConfig(m=8, p=1.0, seed=0))
    pts = np.sort(ps.points.ravel())
    np.testing.assert_allclose(pts, (np.arange(8) + 0.5) / 8.0, atol=1e-12)
    assert ps.objective * 64.0 == pytest.approx(1.0 / 12.0, rel=1e-12)


@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("m", [1, 5, 64])
def test_line_objective_is_the_exact_distortion(m, p):
    # on a line the quantizer is the exact solve: its objective is the
    # distortion of its points, integrated exactly over the midpoint cells
    ps = quantize(Domain.box([0.0], [1.0]), None, QuantizerConfig(m=m, p=p))
    assert ps.objective == pytest.approx(_uniform_objective_1d(ps.points, p),
                                         rel=1e-12)
    assert ps.objective_history == [ps.objective]


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_objective_history_is_monotone(p):
    dom = Domain.box([0.0, 0.0], [1.0, 1.0])
    for i in range(3):
        cfg = QuantizerConfig(m=12, p=p, seed=i, max_iterations=40,
                              cloud_size=4000)
        ps = quantize(dom, None, cfg)
        h = np.asarray(ps.objective_history)
        assert np.all(np.diff(h) <= 1e-12 * h[:-1] + 1e-300)
        assert ps.objective == h[-1]
        assert ps.iterations_used >= 1


def test_objective_matches_distortion_of_returned_points():
    dom = Domain.box([0.0, 0.0], [1.0, 1.0])
    cloud = rng_for("obj-id", 0).random((4000, 2))
    for p in (1.0, 1.5, 2.0):
        cfg = QuantizerConfig(m=5, p=p, max_iterations=3)  # force non-converged
        ps = quantize(dom, None, cfg, _cloud=cloud)
        d2 = np.sum((cloud[:, None, :] - ps.points[None]) ** 2,
                    axis=2).min(axis=1)
        assert ps.objective == pytest.approx(float(np.mean(d2 ** p)),
                                             rel=1e-12)


def test_points_stay_inside_closed_region():
    ball = Domain.ball([0.0, 0.0], 1.0)
    ps = quantize(ball, None, QuantizerConfig(m=16, seed=2, cloud_size=8000))
    norms = np.linalg.norm(ps.points, axis=1)
    assert np.all(norms <= 1.0 + 1e-12)

    box = Domain.box([0.0], [1.0])
    ps1 = quantize(box, None, QuantizerConfig(m=6, seed=3))
    assert ps1.points.min() >= 0.0 and ps1.points.max() <= 1.0


def test_restarts_only_improve():
    dom = Domain.box([0.0, 0.0], [1.0, 1.0])
    one = quantize(dom, None, QuantizerConfig(m=9, seed=5, restarts=1,
                                              cloud_size=6000))
    three = quantize(dom, None, QuantizerConfig(m=9, seed=5, restarts=3,
                                                cloud_size=6000))
    assert three.objective <= one.objective + 1e-15


def test_mirror_symmetry_of_seed_cloud():
    # mirroring the seed cloud through the square's centre mirrors the
    # solution; the objective agrees
    dom = Domain.box([0.0, 0.0], [1.0, 1.0])
    # dyadic cloud so the reflection 1 - x is exact in floating point
    cloud = ((rng_for("mirror", 0).integers(0, 2 ** 20, size=(5000, 2)) * 2 + 1)
             / 2.0 ** 21)
    cfg = QuantizerConfig(m=7, p=1.0, seed=0, max_iterations=60)
    a = quantize(dom, None, cfg, _cloud=cloud)
    b = quantize(dom, None, cfg, _cloud=1.0 - cloud)
    assert b.objective == pytest.approx(a.objective, rel=1e-6)
    np.testing.assert_allclose(1.0 - b.points, a.points, atol=1e-6)


def test_diagonal_metric_matches_rescaled_problem():
    # quantizing with metric diag(4, 1) == quantizing the x-doubled cloud
    # with the identity metric; with power-of-two scaling this is exact
    cloud = rng_for("metric", 1).random((3000, 2))
    dom = Domain.box([0.0, 0.0], [1.0, 1.0])
    dom_wide = Domain.box([0.0, 0.0], [2.0, 1.0])
    metric = QuadraticForm.from_matrix(np.diag([4.0, 1.0]))
    cfg_m = QuantizerConfig(m=6, seed=4, metric=metric, max_iterations=50)
    cfg_i = QuantizerConfig(m=6, seed=4, max_iterations=50)
    a = quantize(dom, None, cfg_m, _cloud=cloud)
    b = quantize(dom_wide, None, cfg_i, _cloud=cloud * np.array([2.0, 1.0]))
    np.testing.assert_array_equal(a.points * np.array([2.0, 1.0]), b.points)
    assert a.objective == b.objective


def test_metric_dimension_guard():
    dom = Domain.box([0.0], [1.0])
    metric = QuadraticForm.from_matrix(np.eye(2))
    with pytest.raises(MetricError):
        quantize(dom, None, QuantizerConfig(m=3, metric=metric))


def test_density_quantizer_concentrates_points():
    dom = Domain.box([0.0], [1.0])
    ps = quantize(dom, lambda x: 0.01 + (x[:, 0] > 0.5) * 1.0,
                  QuantizerConfig(m=10, seed=6))
    assert np.sum(ps.points.ravel() > 0.5) >= 7


def test_density_quantizer_concentrates_points_in_2d():
    dom = Domain.box([0.0, 0.0], [1.0, 1.0])
    ps = quantize(dom, lambda x: 0.01 + (x[:, 0] > 0.5) * 1.0,
                  QuantizerConfig(m=10, seed=6))
    assert np.sum(ps.points[:, 0] > 0.5) >= 7


def _step_centroid(lo, hi, c, low, high):
    """Centroid of [lo, hi] under the weight low on x < c, high beyond."""
    parts = [(lo, min(hi, c), low), (max(lo, c), hi, high)]
    mass = sum(w * (b - a) for a, b, w in parts if b > a)
    moment = sum(w * (b * b - a * a) / 2.0 for a, b, w in parts if b > a)
    return moment / mass


@pytest.mark.parametrize("c, low", [(0.5, 0.01), (0.3, 0.01),
                                    (0.123456789, 0.01), (0.6, 0.0)])
def test_line_density_with_a_jump_is_stationary(c, low):
    # the solve cuts its cells where rho jumps, so at p = 1 every point is
    # the rho-centroid of its midpoint cell, to rounding; with low = 0 the
    # density vanishes past the jump
    ps = quantize(Domain.box([0.0], [1.0]),
                  lambda x: np.where(x[:, 0] > c, 1.0, low),
                  QuantizerConfig(m=10, p=1.0))
    t = np.sort(ps.points[:, 0])
    edges = np.concatenate([[0.0], (t[1:] + t[:-1]) / 2.0, [1.0]])
    cen = [_step_centroid(a, b, c, low, 1.0)
           for a, b in zip(edges[:-1], edges[1:])]
    assert ps.converged
    np.testing.assert_allclose(t, cen, rtol=0, atol=1e-13)


def test_density_jumps_are_located():
    def step(x, _):
        return np.where(x[:, 0] > 0.3, 2.0, 1.0)

    found = quantizer._density_jumps(step, [0.0], [1.0])
    assert found.size == 1 and abs(found[0] - 0.3) <= 1e-15
    # a steep smooth density has no jump
    assert quantizer._density_jumps(lambda x, _: np.exp(30.0 * x[:, 0]),
                                    [0.0], [1.0]).size == 0


def test_negative_density_on_a_line_raises():
    with pytest.raises(ValueError, match="nonnegative"):
        quantize(Domain.box([0.0], [1.0]), lambda x: x[:, 0] - 0.5,
                 QuantizerConfig(m=4))


def test_line_converged_reports_the_stop_test(monkeypatch):
    def rho(x):
        return np.exp(2.0 * x[:, 0])

    dom = Domain.box([0.0], [1.0])
    assert quantize(dom, rho, QuantizerConfig(m=16, p=1.0)).converged
    # one Newton step from the quantile start does not reach the stop test
    monkeypatch.setattr(approximator, "_MAX_NEWTON", 1)
    assert not quantize(dom, rho, QuantizerConfig(m=16, p=1.0)).converged


@pytest.mark.parametrize("rho, p, m", [
    *(("exp2x", p, 1024) for p in (0.5, 1.0, 1.5, 2.0)),
    *(("uniform", 0.5, m) for m in (10, 40, 256, 1024))])
def test_line_quantize_meets_its_stop_test(rho, p, m):
    # each of these once ended in a line search that could not pass: the
    # steps were judged by the largest residual over all cells, and at
    # p != 1 the floor left out the rounding of the gap
    density = None if rho == "uniform" else lambda x: np.exp(2.0 * x[:, 0])
    ps = quantize(Domain.box([0.0], [1.0]), density, QuantizerConfig(m=m, p=p))
    assert ps.converged


def test_zero_density_raises():
    dom = Domain.box([0.0], [1.0])
    with pytest.raises(ValueError):
        quantize(dom, lambda x: np.zeros(x.shape[0]),
                 QuantizerConfig(m=3, seed=0))


def test_fixed_cloud_on_a_line_raises():
    with pytest.raises(ValueError, match="no meaning on a line"):
        quantize(Domain.box([0.0], [1.0]), None, QuantizerConfig(m=3),
                 _cloud=np.linspace(0.0, 1.0, 100)[:, None])


def test_quantizer_objective_reports_match():
    dom = Domain.box([0.0], [1.0])
    pts = (np.arange(4)[:, None] + 0.5) / 4.0
    exact = _uniform_objective_1d(pts, 1.0)
    mc = quantizer_objective(dom, None, np.eye(1), 1.0, pts,
                             QuadratureSpec(kind="monte_carlo",
                                            samples=200_000, seed=8))
    assert mc.error_bar > 0
    assert mc.value == pytest.approx(exact, abs=5 * mc.error_bar)
    grid = quantizer_objective(dom, None, np.eye(1), 1.0, pts,
                               QuadratureSpec(kind="tensor_grid", level=512))
    assert grid.value == pytest.approx(exact, rel=1e-6)
    assert np.isfinite(grid.error_bar)


def test_polygon_objective_is_an_integral():
    # with no density the objective is the polygon's area times the cloud
    # average, as on a box or ball, so it estimates the integral that an
    # independent sample and a grid give
    tri = Domain.polytope([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]],
                          [0.0, 0.0, 1.0])
    ps = quantize(tri, None, QuantizerConfig(m=8, seed=0))
    mc = quantizer_objective(tri, None, np.eye(2), 1.0, ps.points,
                             QuadratureSpec(kind="monte_carlo",
                                            samples=200_000, seed=3))
    grid = quantizer_objective(tri, None, np.eye(2), 1.0, ps.points,
                               QuadratureSpec(kind="tensor_grid", level=256))
    assert ps.objective == pytest.approx(mc.value, rel=0.02)
    assert mc.value == pytest.approx(grid.value, rel=0.02)


def test_empty_cell_reseeding_recovers():
    # more centers than distinct cloud points: farthest-point seeding puts
    # the extra centers on taken points, and their cells start empty
    dom = Domain.box([0.0, 0.0], [1.0, 1.0])
    base = rng_for("empty", 0).random((12, 2))
    cloud = np.repeat(base, 40, axis=0)
    ps = quantize(dom, None, QuantizerConfig(m=16, seed=1, max_iterations=80),
                  _cloud=cloud)
    # every distinct point ends up with a center on it
    assert ps.objective == 0.0
    assert np.unique(np.round(ps.points, 9), axis=0).shape[0] == 12


def _fps_reference(cloud, m, rng):
    """Farthest-point selection by the plain O(m N) pass."""
    chosen = [int(rng.integers(cloud.shape[0]))]
    d2 = np.sum((cloud - cloud[chosen[0]]) ** 2, axis=1)
    for _ in range(1, m):
        chosen.append(int(np.argmax(d2)))
        d2 = np.minimum(d2, np.sum((cloud - cloud[chosen[-1]]) ** 2, axis=1))
    return cloud[chosen]


@pytest.mark.parametrize("cloud_kind", ["random", "lattice", "large"])
def test_bounded_assignment_matches_full_query(cloud_kind):
    # the lattice cases put centers and points on a dyadic grid, so exact
    # distance ties between two centers are common and must be broken as
    # a one-neighbour kd-tree query breaks them; the large one has more
    # points than one block of the queries and own-center distances
    rng = rng_for("bounded-assign", 0 if cloud_kind == "random" else 1)
    if cloud_kind == "random":
        cloud = rng.random((6000, 2))
        centers = rng.random((40, 2))
    else:
        size = 70_000 if cloud_kind == "large" else 6000
        cloud = rng.integers(0, 33, size=(size, 2)) / 32.0
        centers = np.unique(rng.integers(0, 9, size=(40, 2)) / 8.0, axis=0)

    def dyadic(x):
        return np.round(x * 1024.0) / 1024.0 if cloud_kind != "random" else x

    # a dense cluster around the center farthest from center 0, and a few
    # points far outside the square whose cell then reaches further than
    # any jump below, so only the radius term brings the jump into view
    far = int(np.argmax(np.sum((centers - centers[0]) ** 2, axis=1)))
    cluster = centers[far] + rng.normal(scale=0.01, size=(1500, 2))
    cloud = np.vstack([cloud, dyadic(cluster), np.full((20, 2), 4.0)])
    assign = _BoundedAssigner(cloud)
    for step in range(40):
        if step == 12:
            # an empty-cell re-seed: one center jumps onto a cloud point,
            # edited in place as quantize does
            centers[0] = cloud[17]
        elif step == 30:
            # center 0 jumps from afar into the cluster while the rest stay
            centers = centers.copy()
            centers[0] = centers[far] + 1.0 / 256.0
        elif step % 3 == 0 and step:
            # a few centers move, the rest stay exactly where they are
            centers = centers.copy()
            movers = rng.choice(len(centers), 3, replace=False)
            centers[movers] += dyadic(rng.normal(scale=0.01, size=(3, 2)))
        elif step:
            jitter = rng.normal(scale=1e-3 * 0.7 ** step, size=centers.shape)
            centers = centers + dyadic(jitter)
        dist, idx = assign([centers])
        ref_dist, ref_idx = cKDTree(centers).query(cloud)
        np.testing.assert_array_equal(idx, ref_idx)
        np.testing.assert_array_equal(dist, ref_dist)
        if step % 7 == 6:
            # the caller may reuse its array once a call has returned
            centers, passed = centers.copy(), centers
            passed[:] = np.nan


class _PairCounter:
    """Stands in for the assigner's kept kd-tree and counts the pairs its
    neighbourhood search returns."""

    def __init__(self, tree):
        self.tree, self.pairs = tree, 0

    def sparse_distance_matrix(self, other, max_distance, **kw):
        out = self.tree.sparse_distance_matrix(self.tree, max_distance, **kw)
        self.pairs = len(out)
        return out


def test_bounded_assignment_far_jump_keeps_pair_search_local():
    # a 20 x 20 grid of centers, then one corner center jumps across the
    # square next to the opposite corner center, as an empty-cell re-seed
    # does: the jump must reach the cells it lands in, and must not turn
    # the neighbourhood search into one over all m^2 pairs
    cloud = rng_for("far-jump", 0).random((20000, 2))
    ticks = (np.arange(20) + 0.5) / 20.0
    centers = np.stack(np.meshgrid(ticks, ticks), axis=-1).reshape(-1, 2)
    assign = _BoundedAssigner(cloud)
    assign([centers])
    counter = assign.trees[0] = _PairCounter(assign.trees[0])
    centers = centers.copy()
    centers[0] = centers[-1] + [0.01, 0.0]
    dist, idx = assign([centers])
    ref_dist, ref_idx = cKDTree(centers).query(cloud)
    np.testing.assert_array_equal(idx, ref_idx)
    np.testing.assert_array_equal(dist, ref_dist)
    assert 0 < counter.pairs < len(centers) ** 2 / 4


class _GlobalShiftAssigner:
    """The bounded assignment as first written (Hamerly 2010): every bound
    is lowered by the single largest center shift."""

    def __init__(self, cloud_w):
        self.cloud_w = cloud_w
        self.bounded = 1 < cloud_w.shape[1] < 8
        self.centers = None

    def __call__(self, centers_w):
        if not self.bounded:
            return _assign(self.cloud_w, centers_w)
        cloud_w = self.cloud_w
        if self.centers is None:
            self.idx = np.empty(cloud_w.shape[0], dtype=np.intp)
            self.bound = np.empty(cloud_w.shape[0])
            dist = np.empty(cloud_w.shape[0])
            stale = np.arange(cloud_w.shape[0])
        else:
            step = centers_w - self.centers
            shift = float(np.sqrt(np.max(np.einsum("ij,ij->i", step, step))))
            # the (1 - slack) factor absorbs the rounding of this update
            self.bound = self.bound * (1.0 - _SLACK) - shift * (1.0 + _SLACK)
            diff = cloud_w - np.take(centers_w, self.idx, axis=0)
            sq = diff[:, 0] * diff[:, 0]
            for k in range(1, diff.shape[1]):
                sq += diff[:, k] * diff[:, k]
            dist = np.sqrt(sq)
            stale = np.flatnonzero(dist * (1.0 + _SLACK) >= self.bound)
        # a copy: the empty-cell branch of quantize edits centers in place
        self.centers = centers_w.copy()
        idx = self.idx
        if stale.size:
            tree = cKDTree(centers_w)
            d, i = tree.query(cloud_w[stale], k=2)
            dist[stale], idx[stale], self.bound[stale] = d[:, 0], i[:, 0], d[:, 1]
            tie = stale[d[:, 0] == d[:, 1]]
            if tie.size:
                # a two-neighbour query breaks exact ties unlike a
                # one-neighbour query; keep the latter's choice
                dist[tie], idx[tie] = tree.query(cloud_w[tie], k=1)
        return dist, idx.copy()


def _generic_cell_update_keyed(cloud_w, idx, centers, p, steps=20):
    """``quantizer._generic_cell_update`` as it summed the cells through one
    bincount over (column, cell) keys of an (ncol x N) term matrix."""
    m, dim = centers.shape
    curved = p > 1.0
    # points by column: d is (dim, N), so every pass below is contiguous.
    # One bincount over (column, cell) keys gives S, g and, for p > 1, K
    cloud_t = np.ascontiguousarray(cloud_w.T)
    ncol = 1 + dim + (dim * dim if curved else 0)
    keys = (np.arange(ncol)[:, None] * m + idx).ravel()
    terms = np.empty((ncol, idx.size))

    def evaluate(c):
        # one power per center gives both the weights and the value
        d = cloud_t - np.take(c.T, idx, axis=1)
        r2 = rowdot(d.T, d.T)
        wgt = (r2 if curved else np.maximum(r2, 1e-300)) ** (p - 1.0)
        return d, r2, wgt, np.bincount(idx, weights=r2 * wgt, minlength=m)

    if not curved:
        sums = np.stack([np.bincount(idx, weights=x, minlength=m)
                         for x in cloud_t], axis=1)
        means = sums / np.maximum(np.bincount(idx, minlength=m), 1)[:, None]
        take = evaluate(means)[3] < evaluate(centers)[3]
        centers = np.where(take[:, None], means, centers)
    d, r2, wgt, val = evaluate(centers)
    active = np.ones(m, dtype=bool)
    eye = np.eye(dim)
    for _ in range(steps):
        terms[0] = wgt
        np.multiply(wgt, d, out=terms[1:1 + dim])
        if curved:
            # r^(2p-4) d d^T, where a point on its center adds nothing
            kd = (wgt / np.where(r2 > 0.0, r2, 1.0)) * d
            np.multiply(kd[:, None], d,
                        out=terms[1 + dim:].reshape(dim, dim, -1))
        sums = np.bincount(keys, weights=terms.ravel(),
                           minlength=ncol * m).reshape(ncol, m).T
        # divided by S: H / S = I + 2(p - 1) K / S is well conditioned, and
        # a cell with S = 0 has g = 0
        wsum = np.where(sums[:, 0] > 0.0, sums[:, 0], 1.0)
        scaled = sums[:, 1:] / wsum[:, None]
        grad = step = scaled[:, :dim]
        if curved:
            hess = scaled[:, dim:].reshape(m, dim, dim) * (2.0 * (p - 1.0))
            hess += eye
            step = np.linalg.solve(hess, grad[..., None])[..., 0]
        decrease = p * wsum * np.einsum("ij,ij->i", grad, step)
        active &= decrease > 1e-15 * np.abs(val)
        tried, alpha = active.copy(), 1.0
        while tried.any():
            trial = np.where(tried[:, None], centers + alpha * step, centers)
            # the trial's state is exact for every cell that kept or took
            # its center; a rejected cell is tried again or stops
            d, r2, wgt, tval = evaluate(trial)
            better = tried & (tval < val)
            rejected = tried & ~better
            centers = np.where(better[:, None], trial, centers)
            val = np.where(better, tval, val)
            # a rejected cell halves its step while the step still promises
            # a decrease above the stop threshold, and stops after that
            alpha *= 0.5
            tried = rejected & (alpha * decrease > 1e-15 * np.abs(val))
            active &= ~rejected | tried
        if not active.any():
            break
    return centers


def _quantize_reference(region, density, config, _cloud=None):
    """``quantize`` as it ran one problem at a time, restart after restart,
    with ``_GlobalShiftAssigner`` for its assignment and the keyed
    ``_generic_cell_update_keyed`` for its non-integer-p update."""
    if config.m >= 1 and region.dim < 1:
        raise ValueError("region must have positive dimension")
    metric = config.metric or QuadraticForm.from_matrix(np.eye(region.dim))
    if metric.dim != region.dim:
        raise MetricError("metric dimension does not match the region")
    w = whiten(metric)
    w_inv = np.linalg.inv(w)
    if config.cloud_size:
        cloud_size = config.cloud_size
    else:
        cloud_size = max(20_000, 200 * config.m)

    best = None
    for restart in range(config.restarts):
        rng = np.random.default_rng((config.seed, restart))
        if _cloud is not None:
            cloud, mass = np.asarray(_cloud, dtype=float), None
        else:
            cloud, mass = quantizer._draw_cloud(region, density, cloud_size, rng)
        if mass is None:
            mass = 1.0  # report the cloud average when no exact mass exists
            norm = 1.0 / cloud.shape[0]
        else:
            norm = mass / cloud.shape[0]
        cloud_w = cloud @ w.T
        del cloud
        assign = _GlobalShiftAssigner(cloud_w)

        if config.m == 1:
            centers = cloud_w.mean(axis=0, keepdims=True).copy()
        else:
            centers = _fps_select(cloud_w, config.m, rng)
        history = []
        converged = False
        it = 0
        prev = np.inf
        for it in range(1, config.max_iterations + 1):
            dist, idx = assign(centers)
            cost = dist ** (2.0 * config.p)
            obj = float(np.sum(cost)) * norm
            if obj > prev * (1 + 1e-12) + 1e-300:
                raise RuntimeError(
                    "Lloyd objective increased; monotonicity contract broken")
            history.append(obj)
            scored = centers
            counts = np.bincount(idx, minlength=config.m)
            empty = np.flatnonzero(counts == 0)
            if empty.size:
                # re-seed each empty cell at a currently expensive sample
                quantizer.log.debug("re-seeding %d empty cells", empty.size)
                order = np.argsort(cost)[::-1]
                centers[empty] = cloud_w[order[: empty.size]]
                prev = obj
                continue
            if prev - obj <= config.tol * max(abs(obj), 1e-300) and it > 1:
                converged = True
                break
            prev = obj

            if config.p == 1.0:
                sums = np.stack(
                    [np.bincount(idx, weights=cloud_w[:, k], minlength=config.m)
                     for k in range(region.dim)], axis=1)
                centers = sums / counts[:, None]
            elif config.p == 2.0:
                # work in cell-centered coordinates: raw moments of far-from-
                # origin cells cancel catastrophically (moments are O(1) while
                # the cell objective is O(width^4))
                sums = np.stack(
                    [np.bincount(idx, weights=cloud_w[:, k], minlength=config.m)
                     for k in range(region.dim)], axis=1)
                means = sums / counts[:, None]
                count, s1, s2, s3, s2tr, s4 = quantizer._cell_stats_p2(
                    cloud_w - np.take(means, idx, axis=0), idx, config.m,
                    region.dim)
                shift, _ = quantizer._p2_cell_update(
                    np.zeros_like(means), count, s1, s2, s3, s2tr, s4)
                centers = means + shift
            else:
                centers = _generic_cell_update_keyed(cloud_w, idx, centers,
                                                     config.p)
            # keep iterates inside the closed region (in original coordinates)
            centers = region.project(centers @ w_inv.T) @ w.T

        if not converged:
            # score the final update so PointSet.objective always matches the
            # distortion of the returned points on the training cloud
            dist, _ = assign(centers)
            obj = float(np.sum(dist ** (2.0 * config.p))) * norm
            if obj <= history[-1]:
                history.append(obj)
            else:  # round-off made the last step a wash; keep the scored one
                centers = scored

        result = quantizer.PointSet(points=centers @ w_inv.T, objective=history[-1],
                          iterations_used=it, converged=converged,
                          objective_history=history)
        if best is None or result.objective < best.objective:
            best = result
    return best


def _disc_cell_density(x):
    return np.where(x[:, 0] ** 2 + x[:, 1] ** 2 <= 1.0, np.exp(-x[:, 0]), 0.0)


@pytest.mark.parametrize("region, density, cfg, cloud", [
    (Domain.box([0.0, 0.0], [1.0, 1.0]), None,
     QuantizerConfig(m=256, p=1.0, seed=0), None),
    # a paper_partition-style cell straddling the unit circle
    (Domain.box([0.5, 0.0], [1.0, 0.5]), _disc_cell_density,
     QuantizerConfig(m=40, p=1.5, seed=2, cloud_size=8000,
                     metric=QuadraticForm.from_matrix(
                         np.array([[1.5, 0.2], [0.2, 1.0]]))), None),
    (Domain.ball([0.2, 0.0, -0.1], 1.3), None,
     QuantizerConfig(m=60, p=2.0, seed=1, cloud_size=12000), None),
    # more centers than distinct cloud points: empty cells are re-seeded,
    # some of them further than any cell reaches
    (Domain.box([0.0, 0.0], [1.0, 1.0]), None,
     QuantizerConfig(m=64, p=1.0, seed=4, max_iterations=30),
     np.repeat(rng_for("reseed", 0).random((50, 2)), 40, axis=0)),
], ids=["square-p1", "disc-cell-p1.5", "ball3d-p2", "reseeded-p1"])
def test_quantize_matches_global_shift_bounds(region, density, cfg, cloud):
    got = quantize(region, density, cfg, _cloud=cloud)
    want = _quantize_reference(region, density, cfg, _cloud=cloud)
    np.testing.assert_array_equal(got.points, want.points)
    assert got.objective_history == want.objective_history
    assert got.iterations_used == want.iterations_used > 1
    assert got.converged == want.converged


def _lloyd_groups(monkeypatch):
    """Record the number of runs of every lockstep group quantize makes."""
    sizes, lloyd = [], quantizer._lloyd

    def spy(runs):
        sizes.append(len(runs))
        return lloyd(runs)

    monkeypatch.setattr(quantizer, "_lloyd", spy)
    return sizes


def test_quantize_many_matches_reference(monkeypatch):
    # one batch mixing every exponent branch, m = 1, anisotropic metrics,
    # disc-masked cells, a duplicate-row cloud whose empty cells are
    # re-seeded, two restarts and 3-d problems; with groups of at most
    # 6,000 rows it splits into five groups, one of them the 7,000-row
    # problem alone, and every problem matches its own run, bit for bit
    monkeypatch.setattr(quantizer, "_ROW_BLOCK", 6000)
    sizes = _lloyd_groups(monkeypatch)
    square = Domain.box([0.0, 0.0], [1.0, 1.0])
    cell = Domain.box([0.5, 0.0], [1.0, 0.5])
    aniso = QuadraticForm.from_matrix(np.array([[1.5, 0.2], [0.2, 1.0]]))
    steep = QuadraticForm.from_matrix(np.array([[4.0, -0.5], [-0.5, 0.7]]))
    dup = np.repeat(rng_for("many-reseed", 0).random((50, 2)), 40, axis=0)

    def exp_density(x):
        return np.exp(-x[:, 0])

    cases = [
        (square, None, dict(m=6, p=0.5, seed=1, cloud_size=1500,
                            metric=aniso), None),
        (cell, _disc_cell_density, dict(m=9, p=1.5, seed=2, cloud_size=2000,
                                        metric=steep), None),
        (square, None, dict(m=1, p=1.5, seed=3, cloud_size=800), None),
        (Domain.box([-1.0, -1.0], [1.0, 1.0]), exp_density,
         dict(m=12, p=2.0, seed=4, cloud_size=1200, restarts=2), None),
        (square, None, dict(m=64, p=1.0, seed=5, max_iterations=30), dup),
        (Domain.ball([0.2, 0.0, -0.1], 1.3), None,
         dict(m=5, p=1.5, seed=6, cloud_size=3000), None),
        (Domain.box([0.0, 0.0, 0.0], [2.0, 1.0, 1.0]), exp_density,
         dict(m=1, p=1.0, seed=7, cloud_size=1000), None),
        (square, None, dict(m=8, p=1.0, seed=8, cloud_size=7000), None),
        (cell, _disc_cell_density, dict(m=4, p=0.5, seed=9, cloud_size=1000),
         None),
    ]
    problems = [(region, density,
                 QuantizerConfig(**{"max_iterations": 60, **cfg}))
                for region, density, cfg, _ in cases]
    got = quantizer.quantize_many(problems, [c[3] for c in cases])
    assert sizes == [4, 2, 2, 1, 1]
    for (region, density, cfg), cloud, ps in zip(
            problems, [c[3] for c in cases], got):
        want = _quantize_reference(region, density, cfg, _cloud=cloud)
        np.testing.assert_array_equal(ps.points, want.points, strict=True)
        assert ps.objective_history == want.objective_history
        assert ps.objective == want.objective
        assert ps.iterations_used == want.iterations_used
        assert ps.converged == want.converged
    # both ends of a run are covered: converged and stopped at the cap
    assert {ps.converged for ps in got} == {True, False}


def _partition_reference(f, l_pieces):
    """``partition_domain``'s cells and anchors, one cell at a time."""
    lo, hi = f.domain.bounding_box()
    sides = hi - lo
    counts = np.maximum(1, np.round(l_pieces * sides / sides.max()).astype(int))
    counts[np.argmax(sides)] = l_pieces
    edges = [np.linspace(lo[k], hi[k], counts[k] + 1) for k in range(f.dim)]
    cells, anchors = [], []
    for idx in np.ndindex(*counts):
        cl = np.array([edges[k][idx[k]] for k in range(f.dim)])
        cu = np.array([edges[k][idx[k] + 1] for k in range(f.dim)])
        probes = cl + _probe_lattice(f.dim) * (cu - cl)
        inside = f.domain.contains(probes)
        if inside.any():
            cells.append((cl, cu))
            anchors.append(probes[inside].mean(axis=0))
    return cells, np.asarray(anchors)


@pytest.mark.parametrize("m", [64, 256])
def test_paper_partition_matches_cell_by_cell_reference(m):
    # the disc, cosh_quadratic, exp_neg_t, p = 1.5: the cells, anchors and
    # masses of the set-up, and the envelope, equal a loop that draws and
    # quantizes one cell after the other through the reference quantize
    disc = Domain.ball([0.0, 0.0], 1.0)
    f = catalog_entry("cosh_quadratic", {}, disc)
    omega, p, seed = WeightFunction.exp_neg_t(), 1.5, 3
    pieces = int(round(m ** (1.0 / 3.0)))
    part = partition_domain(f, pieces)
    cells, anchors = _partition_reference(f, pieces)
    assert len(part.cells) == len(cells) <= m
    for (cl, cu), (rl, ru) in zip(part.cells, cells):
        np.testing.assert_array_equal(cl, rl, strict=True)
        np.testing.assert_array_equal(cu, ru, strict=True)
    np.testing.assert_array_equal(part.anchors, anchors, strict=True)
    masses = np.array([
        float(np.dot(w, _law_density(f, omega, p)(x)))
        for x, w in (tensor_nodes(cl, cu, 16) for cl, cu in cells)])
    alloc = allocate_budget(part, f, omega, p, m)
    np.testing.assert_array_equal(alloc.masses, masses / masses.sum(),
                                  strict=True)
    assert alloc.budgets.sum() == m

    nb = law_exponents(p, 2)[1]

    def dens(x):
        w = np.asarray(omega(x, f.value(x)), dtype=float) ** nb
        return disc.mask(x, w)

    points = []
    for i, ((cl, cu), d) in enumerate(zip(cells, alloc.budgets)):
        if d == 0:
            continue
        cfg = QuantizerConfig(m=int(d), p=p, metric=part.anchor_forms[i],
                              seed=seed * 1009 + i,
                              cloud_size=max(2000, 200 * int(d)))
        pts = _quantize_reference(Domain.box(cl, cu), dens, cfg).points
        points.append(pts[disc.contains(pts)])
    want = tangent_planes(f, np.vstack(points))
    got = build_approximation(f, omega, p, m, "paper_partition", seed=seed)
    np.testing.assert_array_equal(got.slopes, want.slopes, strict=True)
    np.testing.assert_array_equal(got.offsets, want.offsets, strict=True)


def _fps_cloud(kind):
    rng = rng_for("fps", 0)
    if kind == "lattice":
        # 81 distinct dyadic rows, each repeated many times: argmax ties
        # among duplicates and equal distances across buckets
        return rng.integers(0, 9, size=(3000, 2)) / 8.0
    if kind == "lattice3d":
        return rng.integers(0, 5, size=(4000, 3)) / 4.0
    if kind == "anisotropic":
        # thin buckets and distances dominated by one axis
        return rng.random((5000, 3)) * [1000.0, 1.0, 1e-3]
    if kind == "large":
        # more rows than one block: the buckets' first refresh goes in parts
        return rng.integers(0, 257, size=(70_000, 2)) / 256.0
    # a far row alone in its bucket
    return np.vstack([rng.integers(0, 9, size=(3000, 2)) / 8.0, [[3.0, 3.0]]])


@pytest.mark.parametrize("m", [1, 2, 30, 81, 100])
def test_pruned_fps_matches_full_pass(m):
    # m = 100 exhausts the 81 distinct rows of the 2-d lattice
    for kind in ("lattice", "lattice3d", "anisotropic", "lone", "large"):
        cloud = _fps_cloud(kind)
        ref = _fps_reference(cloud, m, np.random.default_rng(m))
        got = _fps_select(cloud, m, np.random.default_rng(m))
        np.testing.assert_array_equal(got, ref)


def _cell_objectives(cloud, idx, centers, p):
    d = cloud - centers[idx]
    return np.bincount(idx, weights=np.einsum("ij,ij->i", d, d) ** p,
                       minlength=len(centers))


def _reference_minimiser(points, p):
    """Minimiser of sum |x - c|^(2p) over the points, by BFGS from their mean."""
    from scipy.optimize import minimize

    start = points.mean(axis=0)
    d = points - start
    scale = np.sum(np.einsum("ij,ij->i", d, d) ** p)

    def objective(c):
        # divided by the value at the mean, so the gradient test is relative
        d = points - c
        r2 = np.einsum("ij,ij->i", d, d)
        return (np.sum(r2 ** p) / scale,
                -2.0 * p * (r2 ** (p - 1.0)) @ d / scale)

    return minimize(objective, start, jac=True, method="BFGS",
                    options={"gtol": 1e-13, "maxiter": 1000}).x


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("p", [0.5, 1.5, 3.0])
def test_generic_cell_update_matches_reference(dim, p):
    # no cell objective increases; for p >= 1, where the cell objective is
    # smooth, every cell ends at its minimiser: within 1e-10 of the
    # objective at a reference minimiser; for p < 1 a center on a point
    # does not stay stuck above the objective at the cell mean
    rng = rng_for("generic-update", dim)
    m = 9
    for case in range(4):
        cloud = rng.random((1200, dim)) * (1.0 + case)
        if case % 2:
            cloud = np.repeat(cloud[:300], 4, axis=0)  # duplicate rows
        centers = rng.random((m, dim))
        idx = rng.integers(2, m, cloud.shape[0])
        # cell 0 is one point exactly on its center: r^2 = 0, and for p > 1
        # an all-zero weight sum
        centers[0], idx[0] = cloud[0], 0
        centers[2] = cloud[np.flatnonzero(idx == 2)[0]]
        # cell 1 is 1000 copies of one point, with its center on them, and
        # one point further out: at p = 1.5 the full Newton step overshoots
        # and has to be halved four times
        centers[1] = cloud[1]
        cloud = np.vstack([cloud, np.repeat(cloud[1:2], 1000, axis=0),
                           cloud[1:2] + 2.0 / np.sqrt(dim)])
        idx = np.concatenate([idx, np.ones(1001, dtype=int)])
        before = _cell_objectives(cloud, idx, centers, p)
        one = _generic_cell_update(cloud, idx, centers.copy(), p, steps=1)
        assert np.all(_cell_objectives(cloud, idx, one, p) <= before)
        got = _generic_cell_update(cloud, idx, centers.copy(), p)
        after = _cell_objectives(cloud, idx, got, p)
        assert np.all(after <= before)
        np.testing.assert_array_equal(got[0], cloud[0])
        if p < 1.0:
            mean = cloud[idx == 2].mean(axis=0)
            assert after[2] <= _cell_objectives(
                cloud, idx, np.vstack([centers[:2], mean, centers[3:]]), p)[2]
        else:
            ref = np.array([_reference_minimiser(cloud[idx == j], p)
                            for j in range(1, m)])
            best = _cell_objectives(cloud, idx, np.vstack([cloud[:1], ref]), p)
            np.testing.assert_allclose(after[1:], best[1:], rtol=1e-10, atol=0)


def test_quantize_p15_disc_cell_matches_reference(monkeypatch):
    # a paper_partition-style cell: a box straddling the unit circle, with
    # the density masked to the disc and an anisotropic metric; Lloyd with
    # the Newton cell update follows Lloyd with each cell minimised by BFGS
    cell = Domain.box([0.5, 0.0], [1.0, 0.5])
    disc = Domain.ball([0.0, 0.0], 1.0)

    def dens(x):
        return np.where(disc.contains(x), np.exp(-x[:, 0]), 0.0)

    def reference_update(cloud_w, idx, centers, p):
        return np.array([_reference_minimiser(cloud_w[idx == j], p)
                         for j in range(len(centers))])

    cfg = QuantizerConfig(m=13, p=1.5, seed=3, cloud_size=2600,
                          metric=QuadraticForm.from_matrix(
                              np.array([[1.5, 0.2], [0.2, 1.0]])))
    got = quantize(cell, dens, cfg)
    monkeypatch.setattr(quantizer, "_generic_cell_update", reference_update)
    want = quantize(cell, dens, cfg)
    assert got.iterations_used == want.iterations_used > 1
    # a cell objective fixes its minimiser only to about sqrt(eps) of the
    # cell width, which moves the next Lloyd objective at first order
    np.testing.assert_allclose(got.objective_history, want.objective_history,
                               rtol=1e-9, atol=0)
    np.testing.assert_allclose(got.points, want.points, rtol=0, atol=1e-9)


def _draw_cloud_whole(region, density, count, rng):
    """``quantizer._draw_cloud`` as it evaluated each batch in one call."""
    lo, hi = region.bounding_box()
    box_vol = float(np.prod(hi - lo))
    if density is None:
        return region.sample(rng, count), region.volume()

    # envelope constant from a probe lattice, with headroom
    probe = lo + rng.random((4096, region.dim)) * (hi - lo)
    pvals = np.asarray(density(probe), dtype=float)
    if np.any(pvals < 0):
        raise ValueError("density must be nonnegative")
    bound = float(pvals.max())
    if bound <= 0:
        raise ValueError("density is zero over the probe sample; region carries no mass")
    bound *= 1.5

    pts = np.empty((count, region.dim))
    got = proposed = accepted = 0
    while got < count:
        batch = lo + rng.random((max(4 * count, 4096), region.dim)) * (hi - lo)
        vals = region.mask(batch, np.asarray(density(batch), dtype=float))
        vmax = vals.max() if vals.size else 0.0
        if vmax > bound:  # envelope was too low; restart with more headroom
            bound = 1.5 * vmax
            got = proposed = accepted = 0
            continue
        keep = rng.random(len(batch)) * bound < vals
        proposed += len(batch)
        accepted += int(keep.sum())
        sel = batch[keep]
        take = min(count - got, sel.shape[0])
        pts[got:got + take] = sel[:take]
        got += take
        if got < count and proposed > 1000 * count:
            raise ValueError("density appears to be (almost) everywhere zero")
    mass = box_vol * bound * accepted / proposed
    return pts, mass


_CLOUD_REGIONS = {
    "box": Domain.box([-0.5, 0.0], [1.0, 1.0]),
    "ball": Domain.ball([0.1, -0.2], 0.9),
    "polytope": Domain.polytope([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]],
                                [0.0, 0.0, 1.0])}


def _assert_draw_matches(region, density, count, seed=3):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = quantizer._draw_cloud(region, density, count, rng)
    want = _draw_cloud_whole(region, density, count, ref)
    np.testing.assert_array_equal(got[0], want[0], strict=True)
    assert got[1] == want[1]
    # the generator ends where the whole-batch draw leaves it
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.random() == ref.random()


@pytest.mark.parametrize("kind", sorted(_CLOUD_REGIONS))
@pytest.mark.parametrize("cid, params", [
    ("quadratic", {"hessian": [[2.0, 0.5], [0.5, 1.0]], "linear": [0.3, -0.7]}),
    ("cosh_quadratic", {}), ("exp_sum", {"alpha": [0.7, -0.4]}),
    ("quartic", {}), ("huber", {"delta": 0.4})],
    ids=["quadratic", "cosh_quadratic", "exp_sum", "quartic", "huber"])
def test_draw_cloud_matches_whole_batch(cid, params, kind):
    # 20,000 points draw batches of 80,000 proposals: a block and a part
    region = _CLOUD_REGIONS[kind]
    f = catalog_entry(cid, params, region)
    for omega in (WeightFunction.exp_neg_t(),
                  WeightFunction.affine_x([0.2, -0.1], offset=2.0)):
        _assert_draw_matches(region, _law_density(f, omega, 1.5), 20_000)


@pytest.mark.parametrize("kind", sorted(_CLOUD_REGIONS))
@pytest.mark.parametrize("count", [1_000, 5_000, 16_384, 32_768])
def test_draw_cloud_block_edges(kind, count):
    # batches of 4,096 and 20,000 proposals, less than a block, and of
    # exactly one and two blocks; no density samples the region uniformly
    region = _CLOUD_REGIONS[kind]
    f = catalog_entry("cosh_quadratic", {}, region)
    for density in (_law_density(f, WeightFunction.exp_neg_t(), 2.0), None):
        _assert_draw_matches(region, density, count)


@pytest.mark.parametrize("count", [1, 4, 5])
def test_draw_cloud_small_counts(count):
    # the first batch of 4,096 proposals is more than 1000 * count for
    # count <= 4; a full cloud is not a density that is almost zero
    region = _CLOUD_REGIONS["box"]
    f = catalog_entry("cosh_quadratic", {}, region)
    density = _law_density(f, WeightFunction.exp_neg_t(), 2.0)
    pts, mass = quantizer._draw_cloud(region, density, count,
                                      np.random.default_rng(3))
    assert pts.shape == (count, 2) and np.all(region.contains(pts))
    assert mass > 0
    _assert_draw_matches(region, density, count)
    # QuadratureSpec refuses fewer than 1,000 samples; a quantizer cloud
    # of count points reaches the draw from the public API
    ps = quantize(region, density, QuantizerConfig(m=min(count, 2), p=2.0,
                                                   cloud_size=count))
    assert ps.points.shape == (min(count, 2), 2)
    assert np.all(np.isfinite(ps.objective_history))


def test_draw_cloud_restart_matches_whole_batch():
    # a spike on 5e-5 of the box: the 4,096-point probe misses it, the
    # first batch of 80,000 proposals hits it and restarts the draw with
    # more headroom, and the next batches keep one proposal in 15
    region = _CLOUD_REGIONS["box"]
    seen = []

    def density(x):
        near = np.sum((x - [0.3, 0.6]) ** 2, axis=1) < 0.005 ** 2
        vals = np.where(near, 10.0, 1.0)
        seen.append(vals.max())
        return vals

    _assert_draw_matches(region, density, 20_000, seed=4)
    # the first call is the probe of the blocked draw
    assert seen[0] == 1.0 and 10.0 in seen[1:]


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_draw_cloud_memory_stays_in_blocks():
    # m = 1024 of the unit-square quadratic at constant weight: 204,800
    # points from batches of 819,200 proposals, 13 MB a batch where a
    # block of 65,536 is 1 MB; beyond the cloud the draw needs a few blocks
    region = Domain.box([0.0, 0.0], [1.0, 1.0])
    f = catalog_entry("quadratic", {"hessian": [[1.0, 0.0], [0.0, 1.0]]},
                      region)
    density = _law_density(f, WeightFunction.constant(), 1.0)
    (pts, _), peak = _traced_peak(quantizer._draw_cloud, region, density,
                                  204_800, np.random.default_rng(0))
    assert peak - pts.nbytes < 8 * 2**20


def test_fps_memory_stays_in_blocks():
    # m = 1024 on 204,800 rows: the bucket engine keeps a copy of the
    # cloud, its order and the running score, twice the cloud; the first
    # score, the bucket keys and the first refresh need a few blocks more
    cloud = rng_for("fps-memory", 0).random((204_800, 2))
    _, peak = _traced_peak(_fps_select, cloud, 1024, np.random.default_rng(0))
    assert peak - 2 * cloud.nbytes < 6 * 2**20


def test_generic_cell_update_memory_stays_in_columns():
    # a whole group of 65,536 rows in 2-d at p = 1.5: the sums of S, g and
    # K went through (7 x N) key and term matrices, 14 doubles a row that
    # took the peak to 13.6 times the cloud; one bincount per column needs
    # a product of two columns at a time
    rng = rng_for("generic-memory", 0)
    cloud, centers = rng.random((65_536, 2)), rng.random((300, 2))
    idx = cKDTree(centers).query(cloud)[1]
    _, peak = _traced_peak(_generic_cell_update, cloud, idx, centers, 1.5)
    assert peak < 7 * cloud.nbytes
