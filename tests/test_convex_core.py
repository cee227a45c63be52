"""Domains, catalog functions, envelopes, and tangency primitives."""

import time
import tracemalloc

import numpy as np
import pytest

from maxaffine import (
    Domain,
    DomainError,
    MetricError,
    PiecewiseAffineMax,
    QuadraticForm,
    SmoothConvexFunction,
    WeightError,
    WeightFunction,
    catalog_entry,
    exact_1d_optimal,
    hessian_fd_check,
    is_circumscribed,
    max_violation,
    sup_gap,
    tangent_planes,
    weighted_lp_error,
    weighted_mass,
)
from maxaffine.convex_core import as_points
from maxaffine.error_eval import _probe_cloud
from conftest import rng_for

CATALOG = ["quadratic", "cosh_quadratic", "exp_sum", "quartic", "huber"]


# ---------------------------------------------------------------------------
# points and domains


def test_as_points_shapes():
    assert as_points(0.3, 1).shape == (1, 1)
    assert as_points([0.1, 0.2], 2).shape == (1, 2)
    assert as_points([[0.1], [0.2]], 1).shape == (2, 1)
    with pytest.raises(ValueError):
        as_points([[0.1, 0.2]], 1)


def test_box_domain_basics():
    d = Domain.box([0.0, -1.0], [2.0, 1.0])
    assert d.kind == "box" and d.dim == 2
    assert d.volume() == pytest.approx(4.0)
    np.testing.assert_allclose(d.centroid(), [1.0, 0.0])
    lo, hi = d.bounding_box()
    np.testing.assert_allclose(lo, [0.0, -1.0])
    np.testing.assert_allclose(hi, [2.0, 1.0])
    inside = d.contains([[1.0, 0.0], [3.0, 0.0]])
    assert inside.tolist() == [True, False]


def test_box_domain_rejects_empty_interior():
    with pytest.raises(DomainError):
        Domain.box([0.0, 0.0], [1.0, 0.0])


def test_ball_domain():
    d = Domain.ball([0.5, 0.5], 0.5)
    assert d.volume() == pytest.approx(np.pi * 0.25, rel=1e-12)
    assert bool(d.contains([0.5, 0.5])[0])
    assert not bool(d.contains([1.1, 0.5])[0])
    pts = d.sample(np.random.default_rng(0), 512)
    assert pts.shape == (512, 2)
    assert d.contains(pts).all()


def test_polytope_domain_triangle():
    # x >= 0, y >= 0, x + y <= 1
    a = [[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]
    b = [0.0, 0.0, 1.0]
    d = Domain.polytope(a, b)
    assert bool(d.contains([0.25, 0.25])[0])
    assert not bool(d.contains([0.8, 0.8])[0])
    pts = d.sample(np.random.default_rng(1), 256)
    assert d.contains(pts).all()
    assert d.volume() == 0.5
    lo, hi = d.bounding_box()
    assert lo.tolist() == [0.0, 0.0] and hi.tolist() == [1.0, 1.0]
    # the Chebyshev center, 1 - 1/sqrt(2) on both axes, as a linear
    # program put it
    assert d.centroid().tolist() == [0.2928932188134525] * 2


def test_domain_sampling_is_seeded():
    d = Domain.box([0.0], [1.0])
    a = d.sample(np.random.default_rng(7), 64)
    b = d.sample(np.random.default_rng(7), 64)
    np.testing.assert_array_equal(a, b)


def test_domain_config_round_trip():
    for d in (Domain.box([0.0], [2.0]), Domain.ball([0.0, 1.0], 0.5),
              _triangle()):
        d2 = Domain.from_config(d.to_config())
        assert d2.kind == d.kind
        np.testing.assert_allclose(d2.bounding_box()[0], d.bounding_box()[0])
    with pytest.raises(DomainError):
        Domain.from_config({"kind": "moebius"})


def _triangle():
    return Domain.polytope([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]],
                           [0.0, 0.0, 1.0])


@pytest.mark.parametrize("a, b", [
    # an unbounded wedge, x >= 0 and y >= 0
    ([[-1.0, 0.0], [0.0, -1.0]], [0.0, 0.0]),
    # an infeasible pair, x <= 0 and x >= 1, closed above and below
    ([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [0.0, -1.0, 1.0, 1.0]),
    # a triangle of zero area: the segment 0 <= x <= 1 on y = 0
    ([[0.0, -1.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.0]], [0.0, 0.0, 1.0, 0.0]),
    # a triangle shrunk to the point (0, 0)
    ([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, 0.0]),
    # a zero row, and a row that is not finite
    ([[-1.0, 0.0], [0.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 1.0, 0.0, 1.0]),
    ([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
     [np.inf, 1.0, 0.0, 1.0, 0.0]),
    # rows off the plane: an interval is a box, and polygons are planar
    ([[1.0], [-1.0]], [1.0, 0.0]),
    (np.vstack([np.eye(3), -np.eye(3)]), np.ones(6)),
])
def test_polytope_refuses_what_is_no_polygon(a, b):
    with pytest.raises(DomainError):
        Domain.polytope(a, b)


def test_polytope_counts_a_repeated_line_once():
    # the hypotenuse x + y <= 1 repeated as it is and scaled by 0.3 and
    # 0.7, whose rows differ from it in the last bits: each side, the
    # area, the mass and the error are the triangle's
    tri = _triangle()
    f = catalog_entry("cosh_quadratic", {}, tri)
    w = WeightFunction.exp_neg_t()
    l = tangent_planes(f, [[0.2, 0.3], [0.6, 0.1], [0.1, 0.7]])
    for a, b in (([[1.0, 1.0]], [1.0]), ([[0.3, 0.3], [0.7, 0.7]], [0.3, 0.7])):
        dom = Domain.polytope(np.vstack([tri.halfspaces()[0], a]),
                              np.append(tri.halfspaces()[1], b))
        assert len(dom.sides()) == 3
        assert dom.volume() == 0.5
        g = catalog_entry("cosh_quadratic", {}, dom)
        assert weighted_mass(g, 2.0, w) == pytest.approx(
            weighted_mass(f, 2.0, w), rel=1e-12)
        assert weighted_lp_error(g, l, 2.0, w).value == pytest.approx(
            weighted_lp_error(f, l, 2.0, w).value, rel=1e-9)


def _random_polygon(rng):
    """Rows of the hull of random points, with a row that cuts nothing
    put in at a random place; and the hull's area."""
    from scipy.spatial import ConvexHull

    pts = (rng.normal(size=(int(rng.integers(3, 12)), 2))
           * rng.uniform(0.1, 3.0, 2) + rng.uniform(-2.0, 2.0, 2))
    hull = ConvexHull(pts)
    a, b = hull.equations[:, :2], -hull.equations[:, 2]
    extra = rng.normal(size=2)
    at = int(rng.integers(b.size + 1))
    a = np.insert(a, at, extra, axis=0)
    b = np.insert(b, at, np.max(pts @ extra) + rng.uniform(0.1, 1.0))
    return a, b, hull.volume


def test_polytope_matches_linear_programs():
    from scipy.optimize import linprog

    rng = np.random.default_rng(27)
    free = [(None, None)] * 2
    for _ in range(20):
        a, b, area = _random_polygon(rng)
        dom = Domain.polytope(a, b)
        lo, hi = dom.bounding_box()
        for k in range(2):
            c = np.eye(2)[k]
            assert lo[k] == pytest.approx(
                linprog(c, A_ub=a, b_ub=b, bounds=free).fun, abs=1e-12)
            assert hi[k] == pytest.approx(
                -linprog(-c, A_ub=a, b_ub=b, bounds=free).fun, abs=1e-12)
        norms = np.linalg.norm(a, axis=1)
        cheb = linprog([0.0, 0.0, -1.0], A_ub=np.column_stack([a, norms]),
                       b_ub=b, bounds=free + [(0, None)])
        centre = dom.centroid()
        assert np.min((b - a @ centre) / norms) == pytest.approx(
            cheb.x[2], abs=1e-12)
        assert dom.volume() == pytest.approx(area, rel=1e-12)
        # the redundant row has no side; the others close up, each ending
        # where another starts, with the polygon on their left
        sides = dom.sides()
        assert len(sides) == b.size - 1
        ends = np.array([[base + lo * along, base + hi * along]
                         for _, base, along, lo, hi in sides])
        gaps = np.linalg.norm(ends[:, 1, None] - ends[None, :, 0], axis=2)
        assert np.all(np.sort(gaps, axis=1)[:, 0] <= 1e-12)
        assert np.all(np.sort(gaps, axis=1)[:, 1] > 1e-6)
        for _, base, along, _, _ in sides:
            rel = centre - base
            assert along[0] * rel[1] - along[1] * rel[0] > 0


def test_sides_of_a_planar_box():
    box = Domain.box([-1.0, 0.0], [1.0, 0.5])
    ends = [(base + lo * along, base + hi * along)
            for _, base, along, lo, hi in box.sides()]
    np.testing.assert_array_equal(
        ends, [[[1.0, 0.0], [1.0, 0.5]], [[1.0, 0.5], [-1.0, 0.5]],
               [[-1.0, 0.5], [-1.0, 0.0]], [[-1.0, 0.0], [1.0, 0.0]]])
    for dom in (Domain.ball([0.0, 0.0], 1.0), Domain.box([0.0], [1.0])):
        with pytest.raises(DomainError):
            dom.sides()


def _sample_whole(domain, rng, count):
    """``Domain.sample`` as it drew each rejection batch in one call."""
    lo, hi = domain.bounding_box()
    if domain.kind == "box":
        return lo + rng.random((count, domain.dim)) * (hi - lo)
    out = np.empty((count, domain.dim))
    got = 0
    while got < count:
        batch = lo + rng.random((max(count, 1024), domain.dim)) * (hi - lo)
        keep = batch[domain.contains(batch)]
        take = min(count - got, keep.shape[0])
        out[got:got + take] = keep[:take]
        got += take
    return out


@pytest.mark.parametrize("count", [0, 700, 65_536, 100_000])
@pytest.mark.parametrize("kind", ["box", "ball", "triangle"])
def test_sample_matches_whole_batch(kind, count):
    # 700 rows draw one batch of 1,024 proposals; 65,536 one batch of one
    # block; 100,000 two batches of a block and a part, the second cut
    # short and the rest drawn and dropped
    domain = {"box": Domain.box([-0.5, 0.0], [1.0, 1.0]),
              "ball": Domain.ball([0.1, -0.2], 0.9),
              "triangle": _triangle()}[kind]
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    got, want = domain.sample(rng, count), _sample_whole(domain, ref, count)
    np.testing.assert_array_equal(got, want, strict=True)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.random() == ref.random()


def test_domain_mask_per_kind():
    # lo + 1.0 * (hi - lo) rounds to 1.3800000000000001 > hi: a box keeps
    # that node, and every value, as it is
    box = Domain.box([-1.95], [1.38])
    x = np.array([[-1.95 + 1.0 * (1.38 - -1.95)], [0.0], [2.0]])
    assert x[0, 0] > 1.38
    vals = np.array([1.0, 2.0, 3.0])
    assert box.mask(x, vals) is vals
    for dom, pts in (
            (Domain.ball([0.0, 0.0], 1.0), [[0.5, 0.0], [0.8, 0.8], [0.0, -1.0]]),
            (_triangle(), [[0.25, 0.25], [0.8, 0.8], [0.0, 1.0]])):
        out = dom.mask(np.array(pts), np.array([1.0, 2.0, 3.0]))
        assert out.tolist() == [1.0, 0.0, 3.0]


def test_domain_halfspaces_describe_the_region():
    rng = np.random.default_rng(5)
    for dom in (Domain.box([-1.0, 0.0], [1.0, 0.5]),
                Domain.box([0.5, -2.0, 1.0], [0.75, 3.0, 4.0]), _triangle()):
        a, b = dom.halfspaces()
        lo, hi = dom.bounding_box()
        pts = lo - 0.5 * (hi - lo) + 2.0 * rng.random((4000, dom.dim)) * (hi - lo)
        inside = np.all(pts @ a.T <= b, axis=1)
        assert 0 < inside.sum() < len(pts)
        np.testing.assert_array_equal(dom.contains(pts), inside)
    with pytest.raises(DomainError):
        Domain.ball([0.0, 0.0], 1.0).halfspaces()


def test_domain_project_per_kind():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2.0, 2.0, (200, 2))
    box = Domain.box([-1.0, 0.0], [1.0, 0.5])
    np.testing.assert_array_equal(box.project(pts),
                                  np.clip(pts, [-1.0, 0.0], [1.0, 0.5]))
    # a ball keeps inside points and puts the others on its sphere; one
    # that rounding leaves an ulp outside is pulled back in
    ball = Domain.ball([0.5, -0.5], 0.75)
    moved = ball.project(pts)
    inside = ball.contains(pts)
    np.testing.assert_array_equal(moved[inside], pts[inside])
    assert np.all(ball.contains(moved))
    radii = np.linalg.norm(moved[~inside] - [0.5, -0.5], axis=1)
    assert np.all(np.abs(radii - 0.75) <= 1e-15)
    # a polytope cuts the ray from its Chebyshev center at the first face
    tri = _triangle()
    moved = tri.project(pts)
    inside = tri.contains(pts)
    np.testing.assert_array_equal(moved[inside], pts[inside])
    assert np.all(tri.contains(moved))
    a = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
    b = np.array([0.0, 0.0, 1.0])
    assert np.all(np.abs(np.max(moved[~inside] @ a.T - b, axis=1)) <= 1e-15)
    ray, step = pts[~inside] - tri.centroid(), moved[~inside] - tri.centroid()
    np.testing.assert_allclose(ray[:, 0] * step[:, 1] - ray[:, 1] * step[:, 0],
                               0.0, atol=1e-14)
    assert np.all(np.einsum("ij,ij->i", ray, step) > 0)
    # a small ball far from the origin: a point that rounding leaves
    # outside steps toward the center an ulp of itself at a time, so a
    # few passes bring it in
    for center in ([1e3, 0.0], [1e8, -1e8]):
        ball = Domain.ball(center, 1e-3)
        far = np.asarray(center) + 1e-3 * pts
        start = time.perf_counter()
        moved = ball.project(far)
        assert time.perf_counter() - start < 1.0
        assert np.all(ball.contains(moved))
        inside = ball.contains(far)
        np.testing.assert_array_equal(moved[inside], far[inside])


# ---------------------------------------------------------------------------
# envelopes


def _random_envelope(rng, npieces, dim):
    slopes = rng.normal(size=(npieces, dim))
    offsets = rng.normal(size=npieces)
    return PiecewiseAffineMax(slopes=slopes, offsets=offsets)


def test_envelope_matches_manual_max():
    for i in range(10):
        rng = rng_for("env-max", i)
        l = _random_envelope(rng, 5, 2)
        x = rng.normal(size=(40, 2))
        manual = np.max(x @ l.slopes.T + l.offsets, axis=1)
        np.testing.assert_allclose(l.evaluate(x), manual, rtol=0, atol=0)


def test_envelope_chunking_is_invisible():
    rng = rng_for("env-chunk", 0)
    l = _random_envelope(rng, 9, 2)
    x = rng.normal(size=(1000, 2))
    np.testing.assert_array_equal(l.evaluate(x), l.evaluate(x, chunk=7))


def test_envelope_score_block_stays_small():
    # 65,536 points against 1,024 pieces: a whole score table is 512 MB,
    # the default block about 2 MB, and the call needs a few MB in all
    rng = rng_for("env-block", 0)
    l = _random_envelope(rng, 1024, 2)
    x = rng.normal(size=(65_536, 2))
    tracemalloc.start()
    try:
        out = l.evaluate(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes < 8 * 2**20
    np.testing.assert_array_equal(out[:500], l.evaluate(x[:500], chunk=7))


def _full_scan(l, x, chunk=None):
    """PiecewiseAffineMax.evaluate as it was before 1-d pruning, verbatim."""
    pts = as_points(x, l.dim)
    if chunk is None:
        # keep the (chunk x npieces) score block around 2 MB: it stays
        # in cache, and resident memory does not hinge on whether the
        # allocator finds a block-sized hole in its heap
        chunk = max(64, (1 << 18) // max(l.npieces, 1))
    out = np.empty(pts.shape[0])
    for s in range(0, pts.shape[0], chunk):
        scores = pts[s:s + chunk] @ l.slopes.T
        scores += l.offsets
        out[s:s + scores.shape[0]] = scores.max(axis=1)
    return out


def _assert_pruned_matches_full_scan(l, x):
    np.testing.assert_array_equal(l.evaluate(x), _full_scan(l, x), strict=True)


def _tangents_1d(catalog_id, params, lo, hi, ts):
    f = catalog_entry(catalog_id, params, Domain.box([lo], [hi]))
    return tangent_planes(f, np.asarray(ts, dtype=float).reshape(-1, 1))


@pytest.mark.parametrize("npieces", [1, 2, 3, 64, 2048])
@pytest.mark.parametrize("npoints", [1, 2, 63, 64, 65, 4096])
def test_pruned_1d_evaluate_matches_full_scan(npieces, npoints):
    rng = rng_for("env-prune", npieces * 10_000 + npoints)
    tangents = _tangents_1d("cosh_quadratic", {}, -1.0, 1.0,
                            rng.uniform(-1.0, 1.0, npieces))
    random = _random_envelope(rng, npieces, 1)
    for l in (tangents, random):
        # unsorted points, some beyond the tangency range
        _assert_pruned_matches_full_scan(l, rng.uniform(-1.5, 1.5, npoints))
        # repeated points: within a block and across block edges
        dup = rng.integers(0, 9, size=npoints) / 8.0 - 0.5
        _assert_pruned_matches_full_scan(l, dup)
        _assert_pruned_matches_full_scan(l, np.full(npoints, 0.3))


def test_pruned_1d_evaluate_degenerate_envelopes():
    rng = rng_for("env-prune-degenerate", 0)
    x = rng.uniform(-1.0, 1.0, 4096)
    base = _tangents_1d("exp_sum", {"alpha": [1.3]}, -1.0, 1.0,
                        np.linspace(-1.0, 1.0, 300))
    cases = {
        # every piece twice, and in two orders
        "duplicates": PiecewiseAffineMax(
            np.vstack([base.slopes, base.slopes[::-1]]),
            np.concatenate([base.offsets, base.offsets[::-1]])),
        # equal slopes, different offsets: only the top of each group wins
        "equal_slopes": PiecewiseAffineMax(
            np.repeat(rng.normal(size=(40, 1)), 5, axis=0),
            rng.normal(size=200)),
        # offsets near 1e12: the rounding of b dwarfs the slopes' terms
        "big_offsets": PiecewiseAffineMax(
            rng.normal(size=(500, 1)), 1e12 + rng.normal(size=500) * 1e-3),
        # tangents of x^2/2 at k/16 cross at the dyadic (2k+1)/32 exactly,
        # and the points are dyadic too, so the pieces tie there to the bit
        "dyadic_crossings": _tangents_1d("quadratic", {}, 0.0, 1.0,
                                         np.arange(17) / 16.0),
    }
    dyadic = np.concatenate([np.arange(129) / 128.0, np.arange(65) / 64.0])
    for name, l in cases.items():
        _assert_pruned_matches_full_scan(l, x)
        _assert_pruned_matches_full_scan(l, rng.permutation(dyadic))
        # far outside the pieces' natural range
        _assert_pruned_matches_full_scan(l, x * 1e6)


def test_pruned_1d_evaluate_near_ties_from_rounding():
    # curvature 3e-15: tangent slopes differ by a few ulps, so which piece
    # is largest at a point is decided by rounding, inside the skip
    # test's margin
    rng = rng_for("env-prune-ties", 0)
    for npieces in (3, 64, 2048):
        l = _tangents_1d("quadratic", {"hessian": [[3e-15]], "linear": [0.7]},
                         0.0, 1.0, rng.random(npieces))
        _assert_pruned_matches_full_scan(l, rng.random(4096))


def test_pruned_1d_evaluate_non_finite_points():
    l = _tangents_1d("cosh_quadratic", {}, -1.0, 1.0, np.linspace(-1, 1, 50))
    x = np.linspace(-2.0, 2.0, 200)
    x[[3, 70, 150]] = [np.nan, np.inf, -np.inf]
    with np.errstate(invalid="ignore"):
        np.testing.assert_array_equal(l.evaluate(x), _full_scan(l, x))


def test_pruned_1d_evaluate_on_exact_1d_envelope():
    # the circumscription probe of weighted_lp_error against the largest
    # exact_1d envelope the benchmark builds
    f = catalog_entry("cosh_quadratic", {}, Domain.box([-1.0], [1.0]))
    l = exact_1d_optimal(f, WeightFunction.constant(1.0), 2.0, 2048)
    assert l.npieces == 2048
    _assert_pruned_matches_full_scan(l, _probe_cloud(f.domain))


def test_pruned_1d_evaluate_memory_stays_small():
    rng = rng_for("env-prune-block", 0)
    l = _random_envelope(rng, 2048, 1)
    x = rng.normal(size=65_536)
    tracemalloc.start()
    try:
        out = l.evaluate(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes < 8 * 2**20
    np.testing.assert_array_equal(out, _full_scan(l, x))


def test_envelope_compose_shift_pieces():
    rng = rng_for("env-ops", 0)
    l = _random_envelope(rng, 4, 2)
    t = np.array([[2.0, 0.0], [0.0, 0.5]])
    x = rng.normal(size=(20, 2))
    np.testing.assert_allclose(l.compose_linear(t).evaluate(x),
                               l.evaluate(x @ t.T), rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(l.shifted(0.7).evaluate(x),
                               l.evaluate(x) + 0.7, rtol=1e-14)


def test_envelope_text_round_trip(tmp_path):
    rng = rng_for("env-io", 0)
    l = _random_envelope(rng, 6, 2)
    path = tmp_path / "env.txt"
    l.save_text(path)
    l2 = PiecewiseAffineMax.load_text(path)
    np.testing.assert_array_equal(l.slopes, l2.slopes)
    np.testing.assert_array_equal(l.offsets, l2.offsets)


def test_envelope_piece_budget():
    l = _random_envelope(rng_for("env-budget", 0), 3, 1)
    assert l.npieces == 3


# ---------------------------------------------------------------------------
# quadratic forms and weights


def test_quadratic_form_factorization():
    a = np.array([[4.0, 1.0], [1.0, 3.0]])
    q = QuadraticForm.from_matrix(a)
    w = q.factor.T
    np.testing.assert_allclose(w.T @ w, a, rtol=1e-14, atol=1e-14)
    y = np.array([0.3, -0.2])
    assert q(y) == pytest.approx(y @ a @ y)
    assert q.det == pytest.approx(np.linalg.det(a))


def test_quadratic_form_rejects_indefinite():
    with pytest.raises(MetricError):
        QuadraticForm.from_matrix([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(MetricError):
        QuadraticForm.from_matrix([[1.0, 0.5], [0.4, 1.0]])  # not symmetric


def test_weight_catalog_values():
    x = np.array([[0.5], [0.25]])
    t = np.array([2.0, 1.0])
    np.testing.assert_allclose(WeightFunction.constant(3.0)(x, t), [3.0, 3.0])
    np.testing.assert_allclose(WeightFunction.exp_neg_t()(x, t), np.exp(-t))
    aff = WeightFunction.affine_x([2.0], offset=1.0)
    np.testing.assert_allclose(aff(x, t), [2.0, 1.5])


def test_weight_positivity_validation(interval):
    WeightFunction.affine_x([1.0], offset=0.5).validate_positive(interval)
    with pytest.raises(WeightError):
        WeightFunction.affine_x([-2.0], offset=0.5).validate_positive(interval)
    with pytest.raises(WeightError):
        WeightFunction.constant(0.0)


def test_weight_positivity_is_checked_on_the_region():
    # each weight is negative at a corner of the region's bounding box but
    # positive on the region: least 0.1 on the triangle, at its vertex
    # (0, 0), and 1.2 - 0.8 sqrt(2) on the disc
    WeightFunction.affine_x([-0.9, -0.9], 1.0).validate_positive(_triangle())
    WeightFunction.affine_x([0.8, 0.8], 1.2).validate_positive(
        Domain.ball([0.0, 0.0], 1.0))
    # 1 - x vanishes at the vertex (1, 0) alone
    with pytest.raises(WeightError):
        WeightFunction.affine_x([-1.0, 0.0], 1.0).validate_positive(
            _triangle())


def test_weight_config_round_trip():
    w = WeightFunction.affine_x([1.0, -0.5], offset=2.0)
    w2 = WeightFunction.from_config(w.to_config())
    x = np.array([[0.3, 0.4]])
    assert w2(x, np.zeros(1))[0] == pytest.approx(w(x, np.zeros(1))[0])
    with pytest.raises(WeightError):
        WeightFunction.from_config({"catalog_id": "lognormal"})


# ---------------------------------------------------------------------------
# catalog functions


def _entry(catalog_id, dim):
    dom = Domain.box(-np.ones(dim), np.ones(dim))
    return catalog_entry(catalog_id, {}, dom)


@pytest.mark.parametrize("catalog_id", CATALOG)
@pytest.mark.parametrize("dim", [1, 2])
def test_catalog_hessians_match_finite_differences(catalog_id, dim):
    f = _entry(catalog_id, dim)
    rng = rng_for("fd", dim)
    # stay away from huber's C^1 kink at |x_i| = delta
    for x in rng.uniform(-0.4, 0.4, size=(8, dim)):
        assert hessian_fd_check(f, x) < 1e-4
    with pytest.raises(DomainError):
        hessian_fd_check(f, np.ones(dim))  # stencil pokes outside


@pytest.mark.parametrize("catalog_id", CATALOG)
def test_catalog_midpoint_convexity_and_lipschitz(catalog_id):
    f = _entry(catalog_id, 2)
    rng = rng_for("convexity", hash(catalog_id) % 1000)
    a = rng.uniform(-1, 1, size=(200, 2))
    b = rng.uniform(-1, 1, size=(200, 2))
    mid = f.value((a + b) / 2.0)
    assert np.all(mid <= (f.value(a) + f.value(b)) / 2.0 + 1e-12)
    grads = np.linalg.norm(f.gradient(a), axis=1)
    assert np.all(grads <= f.lipschitz_bound + 1e-9)


def test_catalog_hessian_det_matches_numpy():
    for catalog_id in CATALOG:
        f = _entry(catalog_id, 2)
        x = rng_for("det", hash(catalog_id) % 997).uniform(-0.9, 0.9, (16, 2))
        np.testing.assert_allclose(f.hessian_det(x),
                                   np.linalg.det(f.hessian(x)),
                                   rtol=1e-12, atol=1e-14)


def test_catalog_strict_convexity_flags():
    assert _entry("quadratic", 2).strictly_convex
    assert _entry("cosh_quadratic", 2).strictly_convex
    assert _entry("quartic", 2).strictly_convex
    assert not _entry("huber", 2).strictly_convex
    dom = Domain.box([-1.0], [1.0])
    flat = catalog_entry("quadratic", {"hessian": [[0.0]]}, dom)
    assert not flat.strictly_convex


def test_catalog_value_at_offset_restrict():
    f = _entry("quartic", 2)
    assert f.value_at([0.5, 0.5]) == pytest.approx(0.25 * 0.25 + 0.25 * 0.5)
    g = f.with_offset(1.5)
    assert g.value_at([0.0, 0.0]) == pytest.approx(f.value_at([0.0, 0.0]) + 1.5)
    sub = Domain.box([-0.5, -0.5], [0.5, 0.5])
    h = f.restricted_to(sub)
    assert h.domain.volume() == pytest.approx(1.0)
    assert h.value_at([0.1, 0.2]) == pytest.approx(f.value_at([0.1, 0.2]))


def test_catalog_config_round_trip():
    dom = Domain.box([-1.0, -1.0], [1.0, 1.0])
    f = catalog_entry("exp_sum", {"alpha": [0.5, 1.0], "mu": 0.25}, dom)
    f2 = SmoothConvexFunction.from_config(f.to_config())
    x = np.array([[0.3, -0.3]])
    assert f2.value(x)[0] == pytest.approx(f.value(x)[0], rel=1e-15)


def test_catalog_refuses_three_dimensions():
    # delta(n, p) is known for n <= 2 only, so the law has no reference
    # above the plane and the catalog refuses such a domain
    for dom in (Domain.box(np.zeros(3), np.ones(3)),
                Domain.ball(np.zeros(3), 1.0)):
        for catalog_id in CATALOG:
            with pytest.raises(DomainError):
                catalog_entry(catalog_id, {}, dom)
            with pytest.raises(DomainError):
                SmoothConvexFunction.from_config(
                    {"catalog_id": catalog_id, "domain": dom.to_config()})


def test_catalog_rejects_bad_input():
    dom = Domain.box([-1.0], [1.0])
    with pytest.raises(ValueError):
        catalog_entry("not_a_function", {}, dom)
    with pytest.raises(ValueError):
        catalog_entry("quadratic", {"hessian": [[1.0, 0.0]]}, dom)
    with pytest.raises(ValueError):
        catalog_entry("huber", {"delta": -1.0}, dom)
    with pytest.raises(ValueError):
        catalog_entry("exp_sum", {"mu": -0.5}, dom)


# ---------------------------------------------------------------------------
# tangency


@pytest.mark.parametrize("catalog_id", CATALOG)
def test_tangent_planes_support_from_below(catalog_id):
    f = _entry(catalog_id, 2)
    for i in range(5):
        rng = rng_for("tangent", i)
        a = rng.uniform(-0.9, 0.9, size=2)
        psi = tangent_planes(f, a)
        x = rng.uniform(-1, 1, size=(500, 2))
        gap = f.value(x) - psi(x)
        assert gap.min() >= -1e-12


def test_tangent_plane_outside_domain_raises(quad_1d):
    with pytest.raises(DomainError):
        tangent_planes(quad_1d, [2.0])


def _full_quadratic_params(rng, dim):
    # a non-diagonal H, and a linear term where the catalog has one
    root = rng.uniform(-1.0, 1.0, (dim, dim))
    return {"hessian": (root @ root.T + 0.5 * np.eye(dim)).tolist(),
            "linear": rng.uniform(-1.0, 1.0, dim).tolist()}


_ROW_ENTRIES = {
    **{cid: lambda rng, dim: {} for cid in CATALOG},
    "quadratic-full": _full_quadratic_params,
    "cosh_quadratic-full": lambda rng, dim: {
        "hessian": _full_quadratic_params(rng, dim)["hessian"],
        "eps": 0.7, "freq": 1.3},
}


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("entry", list(_ROW_ENTRIES))
def test_tangent_planes_are_row_independent(entry, dim):
    # each plane of the builder equals the builder's plane at its point
    # alone, bit for bit, whatever other rows share the call: batched BLAS
    # or einsum products round some rows otherwise (x.Hx with a
    # non-diagonal H: 438 of 2,000 rows)
    rng = rng_for(f"rows-{entry}", dim)
    f = catalog_entry(entry.split("-")[0], _ROW_ENTRIES[entry](rng, dim),
                      Domain.box(np.full(dim, -1.3), np.full(dim, 0.9)))
    pts = f.domain.sample(rng, 2000)
    alone = [tangent_planes(f, a) for a in pts]
    slopes = np.vstack([psi.slopes for psi in alone])
    offsets = np.concatenate([psi.offsets for psi in alone])
    for size in (2000, 777, 64, 2, 1):
        rows = rng.permutation(2000)[:size]
        env = tangent_planes(f, pts[rows])
        assert np.array_equal(env.slopes, slopes[rows])
        assert np.array_equal(env.offsets, offsets[rows])
    with pytest.raises(DomainError):
        tangent_planes(f, np.vstack([pts[:3], np.full(dim, 1.0)]))


def test_circumscription_checks(quad_1d):
    l = tangent_planes(quad_1d, [[0.25], [0.75]])
    samples = np.linspace(0, 1, 1001)[:, None]
    ok, worst = is_circumscribed(quad_1d, l, samples)
    assert ok and worst == 0.0
    # push the envelope above f and the violation must be reported
    bad = l.shifted(1e-6)
    ok, worst = is_circumscribed(quad_1d, bad, samples)
    assert not ok
    assert max_violation(quad_1d, bad, samples) == pytest.approx(1e-6, rel=1e-6)
    with pytest.raises(ValueError):
        max_violation(quad_1d, l, np.empty((0, 1)))
    with pytest.raises(ValueError):
        sup_gap(quad_1d, l, np.empty((0, 1)))


def test_sup_gap_single_tangent(quad_1d):
    l = tangent_planes(quad_1d, [0.5])
    samples = np.linspace(0, 1, 4097)[:, None]
    # largest gap of x^2/2 over its tangent at 1/2 sits at the endpoints
    assert sup_gap(quad_1d, l, samples) == pytest.approx(1.0 / 8.0, rel=1e-12)
