"""Quadrature backends: tensor Gauss panels, stratified MC, dispatch."""

import numpy as np
import pytest

from maxaffine import (Domain, ErrorReport, QuadratureSpec, WeightFunction,
                       catalog_entry, integrate)
from maxaffine.functionals import law_density
from maxaffine.quadrature import (_composite_gl_axis, stratified_sampler,
                                  tensor_nodes)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(kind="simpson")
    with pytest.raises(ValueError):
        QuadratureSpec(level=1)
    with pytest.raises(ValueError):
        QuadratureSpec(samples=10)


def test_tensor_nodes_integrate_polynomials_exactly():
    nodes, weights = tensor_nodes([0.0], [1.0], level=8)
    # order-4 panels integrate degree <= 7 exactly
    for k in range(8):
        assert weights @ nodes[:, 0] ** k == pytest.approx(1.0 / (k + 1), rel=1e-14)
    nodes2, weights2 = tensor_nodes([0.0, 0.0], [1.0, 2.0], level=6)
    assert weights2.sum() == pytest.approx(2.0, rel=1e-13)
    val = weights2 @ (nodes2[:, 0] ** 2 * nodes2[:, 1])
    assert val == pytest.approx((1.0 / 3.0) * 2.0, rel=1e-13)


def test_stratified_nodes_cover_box():
    rng = np.random.default_rng(11)
    draw, total, per = stratified_sampler([0.0, 0.0], [1.0, 1.0], 4096, rng)
    # blocks of whole strata, the last one short
    nodes = np.concatenate([draw(slice(s, min(s + 5 * per, total)))
                            for s in range(0, total, 5 * per)])
    assert nodes.shape == (total, 2) and total % per == 0
    assert nodes.min() >= 0.0 and nodes.max() <= 1.0
    idx = np.repeat(np.arange(total // per), per)
    # every stratum hits its own sub-box
    s = int(round((total // per) ** 0.5))
    cell = np.floor(nodes * s).clip(max=s - 1)
    flat = (cell[:, 0] * s + cell[:, 1]).astype(int)
    assert np.array_equal(flat, idx)


def test_integrate_tensor_on_box():
    d = Domain.box([0.0, 0.0], [1.0, 1.0])
    rep = integrate(lambda x: np.exp(x[:, 0] + x[:, 1]), d,
                    QuadratureSpec(kind="tensor_grid", level=32))
    exact = (np.e - 1.0) ** 2
    assert rep.value == pytest.approx(exact, rel=1e-8)
    # the half-level refinement delta must cover the actual error
    assert abs(rep.value - exact) <= 3.0 * rep.error_bar + 1e-12
    assert rep.nodes_used > 0


def test_integrate_monte_carlo_with_error_bar():
    d = Domain.box([0.0, 0.0], [1.0, 1.0])
    rep = integrate(lambda x: x[:, 0] * x[:, 1], d,
                    QuadratureSpec(kind="monte_carlo", samples=100_000, seed=3))
    assert rep.error_bar > 0
    assert abs(rep.value - 0.25) <= 5 * rep.error_bar
    # same seed, same estimate
    rep2 = integrate(lambda x: x[:, 0] * x[:, 1], d,
                     QuadratureSpec(kind="monte_carlo", samples=100_000, seed=3))
    assert rep.value == rep2.value


def test_integrate_ball_by_indicator():
    d = Domain.ball([0.0, 0.0], 1.0)
    rep = integrate(lambda x: np.ones(x.shape[0]), d,
                    QuadratureSpec(kind="monte_carlo", samples=200_000, seed=9))
    assert rep.value == pytest.approx(np.pi, abs=5 * rep.error_bar + 1e-3)


def test_exact_1d_kind_dispatches_adaptively():
    d = Domain.box([0.0], [2.0])
    rep = integrate(lambda x: np.sin(x[:, 0]), d, QuadratureSpec(kind="exact_1d"))
    assert rep.value == pytest.approx(1.0 - np.cos(2.0), rel=1e-12)


def test_exact_1d_kind_keeps_an_absolute_floor():
    # sin(256 pi x) is odd about the middle of every segment that halving
    # [0, 1] makes, so every rule reads it as zero to rounding; a purely
    # relative target would split segments up to the cap, while the 1e-14
    # floor accepts the first one
    d = Domain.box([0.0], [1.0])
    rep = integrate(lambda x: np.sin(256 * np.pi * x[:, 0]), d,
                    QuadratureSpec(kind="exact_1d"))
    assert rep.nodes_used <= 96 * 64
    assert abs(rep.value) <= 1e-13


def test_exact_1d_kind_refines_at_a_kink():
    # |x - 1|^0.5 has an infinite slope at 1: segments split there, and
    # the report has a bar that covers the error
    d = Domain.box([0.0], [2.0])
    rep = integrate(lambda x: np.sqrt(np.abs(x[:, 0] - 1.0)), d,
                    QuadratureSpec(kind="exact_1d"))
    exact = 4.0 / 3.0
    assert rep.nodes_used > 96
    assert abs(rep.value - exact) <= rep.error_bar + 1e-15
    assert rep.value == pytest.approx(exact, rel=1e-9)


# ---------------------------------------------------------------------------
# block evaluation: the whole-array code it replaced, verbatim, as reference


def _tensor_nodes_whole(lower, upper, level, order=None):
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    n = lower.size
    if order is None:
        order = 4 if n == 1 else 2
    axes = [_composite_gl_axis(lower[k], upper[k], level, order) for k in range(n)]
    grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*[a[1] for a in axes], indexing="ij")
    weights = np.ones(nodes.shape[0])
    for wg in wgrids:
        weights = weights * wg.ravel()
    return nodes, weights


def _stratified_nodes_whole(lower, upper, samples, rng):
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    n = lower.size
    k = 0
    # largest power of two with at least ~4 samples per stratum
    while (2 ** (k + 1)) ** n * 4 <= samples:
        k += 1
    s = 2 ** k
    per = max(1, samples // s ** n)
    cells = np.stack(
        np.meshgrid(*[np.arange(s)] * n, indexing="ij"), axis=-1
    ).reshape(-1, n)
    base = np.repeat(cells, per, axis=0).astype(float)
    u = rng.random(base.shape)
    unit = (base + u) / s
    nodes = lower + unit * (upper - lower)
    idx = np.repeat(np.arange(s ** n), per)
    return nodes, idx, per


def _integrate_whole(func, domain, spec):
    """``integrate`` as it evaluated the whole grid or cloud in one call."""
    lower, upper = domain.bounding_box()
    vol = float(np.prod(upper - lower))

    def masked(x):
        return domain.mask(x, np.asarray(func(x), dtype=float))

    if spec.kind == "tensor_grid":
        nodes, weights = _tensor_nodes_whole(lower, upper, spec.level)
        fine = float(np.dot(weights, masked(nodes)))
        c_level = max(2, spec.level // 2)
        cnodes, cweights = _tensor_nodes_whole(lower, upper, c_level)
        coarse = float(np.dot(cweights, masked(cnodes)))
        return ErrorReport(
            value=fine,
            error_bar=abs(fine - coarse),
            nodes_used=nodes.shape[0] + cnodes.shape[0],
        )

    # monte_carlo
    rng = np.random.default_rng(spec.seed)
    nodes, idx, per = _stratified_nodes_whole(lower, upper, spec.samples, rng)
    vals = masked(nodes)
    nstrata = idx[-1] + 1
    value = vol * float(np.mean(vals))
    if per >= 2:
        sums = np.bincount(idx, weights=vals, minlength=nstrata)
        sqs = np.bincount(idx, weights=vals * vals, minlength=nstrata)
        var_within = (sqs - sums ** 2 / per) / (per - 1)
        var_mean = float(np.sum(var_within / per)) / nstrata ** 2
        se = vol * np.sqrt(max(var_mean, 0.0))
    else:
        se = vol * float(np.std(vals)) / np.sqrt(len(vals))
    return ErrorReport(value=value, error_bar=float(se), nodes_used=len(vals))


@pytest.mark.parametrize("lower, upper, level, order", [
    ([0.0], [1.0], 8, None), ([-1.0, 0.5], [2.0, 0.75], 33, None),
    ([0.0, 0.0, 0.0], [1.0, 2.0, 3.0], 5, 3), ([0.0, 0.0], [1.0, 1.0], 4, 5)])
def test_tensor_nodes_match_meshgrid(lower, upper, level, order):
    got = tensor_nodes(lower, upper, level, order)
    want = _tensor_nodes_whole(lower, upper, level, order)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w, strict=True)


def test_stratified_blocks_match_one_draw():
    # blocks of whole strata from one stream join to the one draw, bit
    # for bit, including a short last block
    for lower, upper, samples in [([0.0], [1.0], 5000),
                                  ([-1.0, 0.0], [1.0, 3.0], 200_000),
                                  ([0.0] * 3, [1.0, 2.0, 0.5], 70_000)]:
        want, _, per_want = _stratified_nodes_whole(
            lower, upper, samples, np.random.default_rng(4))
        draw, total, per = stratified_sampler(lower, upper, samples,
                                              np.random.default_rng(4))
        step = per * 1365
        got = np.concatenate([draw(slice(s, min(s + step, total)))
                              for s in range(0, total, step)])
        assert per == per_want
        np.testing.assert_array_equal(got, want, strict=True)


_TRIANGLE = Domain.polytope([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]],
                            [0.0, 0.0, 1.0])
_DOMAINS_2D = {"box": Domain.box([-0.5, 0.0], [1.0, 1.0]),
               "ball": Domain.ball([0.1, -0.2], 0.9),
               "polytope": _TRIANGLE}
# every catalog function; quadratic carries a linear term, which goes
# through a BLAS product (x @ b), as do the polytope's contains and the
# affine weight
_FUNCTIONS_2D = [("quadratic", {"hessian": [[2.0, 0.5], [0.5, 1.0]],
                                "linear": [0.3, -0.7], "offset": 0.2}),
                 ("cosh_quadratic", {}), ("exp_sum", {"alpha": [0.7, -0.4]}),
                 ("quartic", {}), ("huber", {"delta": 0.4})]
_WEIGHTS = [WeightFunction.exp_neg_t(), WeightFunction.affine_x([0.2, -0.1],
                                                                offset=2.0)]


def _mass_integrand(f, omega, p):
    def integrand(x):
        return law_density(f.hessian_det(x), omega(x, f.value(x)), p, f.dim)
    return integrand


@pytest.mark.parametrize("spec", [
    # 196,608 samples: three blocks of 1,365 strata and a short one
    QuadratureSpec(kind="monte_carlo", samples=200_000, seed=7),
    # 160,000 fine nodes in three blocks, 40,000 coarse in one
    QuadratureSpec(kind="tensor_grid", level=200)], ids=lambda s: s.kind)
@pytest.mark.parametrize("dom", sorted(_DOMAINS_2D))
@pytest.mark.parametrize("cid, params", _FUNCTIONS_2D,
                         ids=[c for c, _ in _FUNCTIONS_2D])
def test_block_integrate_matches_whole_array(cid, params, dom, spec):
    domain = _DOMAINS_2D[dom]
    f = catalog_entry(cid, params, domain)
    for omega in _WEIGHTS:
        for p in (1.0, 1.5):
            func = _mass_integrand(f, omega, p)
            assert integrate(func, domain, spec) == _integrate_whole(
                func, domain, spec)


@pytest.mark.parametrize("spec", [
    QuadratureSpec(kind="monte_carlo", samples=300_000, seed=2),
    QuadratureSpec(kind="tensor_grid", level=20_000)], ids=lambda s: s.kind)
def test_block_integrate_matches_whole_array_1d(spec):
    domain = Domain.box([-1.0], [1.5])
    for cid, params in [("quadratic", {"hessian": [[1.0]], "linear": [0.4]}),
                        ("cosh_quadratic", {}), ("huber", {})]:
        f = catalog_entry(cid, params, domain)
        func = _mass_integrand(f, WeightFunction.affine_x([0.3]), 1.5)
        assert integrate(func, domain, spec) == _integrate_whole(
            func, domain, spec)


def test_block_integrate_matches_whole_array_3d():
    # 110,592 fine nodes: two blocks.  The catalog stops at two
    # dimensions, so the integrand is the p = 1 law density of
    # sum_k cosh(x_k) under the weight exp(-f), written out
    domain = Domain.ball([0.0, 0.0, 0.0], 1.0)

    def func(x):
        c = np.cosh(x)
        return law_density(np.prod(c, axis=1), np.exp(-c.sum(axis=1)), 1.0, 3)

    for spec in (QuadratureSpec(kind="tensor_grid", level=24),
                 QuadratureSpec(kind="monte_carlo", samples=100_000, seed=1)):
        assert integrate(func, domain, spec) == _integrate_whole(
            func, domain, spec)
