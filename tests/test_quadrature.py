"""Quadrature backends: tensor Gauss panels, stratified MC, dispatch."""

import numpy as np
import pytest

from maxaffine import Domain, QuadratureSpec, integrate
from maxaffine.quadrature import (_GW32, _panel_sums, stratified_nodes,
                                  tensor_nodes)
from conftest import rng_for


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
    nodes, idx, per = stratified_nodes([0.0, 0.0], [1.0, 1.0], 4096, rng)
    assert nodes.shape[0] == idx.size
    assert nodes.min() >= 0.0 and nodes.max() <= 1.0
    counts = np.bincount(idx)
    assert np.all(counts == per)
    # every stratum hits its own sub-box
    s = int(round(counts.size ** 0.5))
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
    # sin(256 pi x) nearly vanishes on the 257 probes, so a purely
    # relative tolerance would be about 3e-26 and split every panel to
    # depth 24; the 1e-14 floor accepts the first panel
    d = Domain.box([0.0], [1.0])
    rep = integrate(lambda x: np.sin(256 * np.pi * x[:, 0]), d,
                    QuadratureSpec(kind="exact_1d"))
    assert rep.nodes_used <= 96 * 64
    assert abs(rep.value) <= 1e-13


def test_exact_1d_kind_refines_at_a_kink():
    # |x - 1|^0.5 has an infinite slope at 1: panels split there, and the
    # report counts 96 nodes per panel and a bar that covers the error
    d = Domain.box([0.0], [2.0])
    rep = integrate(lambda x: np.sqrt(np.abs(x[:, 0] - 1.0)), d,
                    QuadratureSpec(kind="exact_1d"))
    exact = 4.0 / 3.0
    assert rep.nodes_used > 96 and rep.nodes_used % 96 == 0
    assert abs(rep.value - exact) <= rep.error_bar + 1e-15
    assert rep.value == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize("count", [1, 2, 3, 255, 256, 257, 768])
def test_panel_sums_match_one_dot_per_row(count):
    # up to 768 rows: one block of 256 panels, three sums each
    rng = rng_for("panel-sums", count)
    scaled = rng.normal(size=(count, 32)) * np.logspace(-200, 200, count)[:, None]
    mixed = rng.normal(size=(count, 32)) * 10.0 ** rng.uniform(-8, 8, (count, 32))
    for rows in (scaled, mixed):
        # the panel sums as adaptive_panels first took them, verbatim
        want = np.array([np.dot(_GW32, r) for r in rows])
        np.testing.assert_array_equal(_panel_sums(rows), want, strict=True)
