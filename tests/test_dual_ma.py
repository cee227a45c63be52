"""Duality layer: Legendre transforms, Monge-Ampere mass, dual sweeps."""

import math

import numpy as np
import pytest

from maxaffine import (
    Domain,
    DomainError,
    GridFunction,
    QuadratureSpec,
    SupportRestriction,
    WeightFunction,
    catalog_entry,
    dual_approximation_sweep,
    integrate,
    legendre_transform,
    monge_ampere_det,
    monge_ampere_subgradient,
    weighted_affine_surface,
    weighted_mass,
)
from conftest import rng_for


# ---------------------------------------------------------------------------
# grid functions


def test_grid_function_validation():
    with pytest.raises(ValueError):
        GridFunction([0.0], [1.0], np.zeros((3, 3)))  # rank mismatch
    with pytest.raises(ValueError):
        GridFunction([0.0], [1.0], np.zeros(1))  # one node
    with pytest.raises(ValueError):
        GridFunction([0.0], [0.0], np.zeros(5))  # empty box
    with pytest.raises(ValueError):
        GridFunction([0.0], [1.0], np.array([0.0, np.inf, 1.0]))


def test_grid_function_text_round_trip(tmp_path):
    rng = rng_for("gf-io", 0)
    gf = GridFunction([-1.0, 0.5], [2.0, 1.5], rng.normal(size=(7, 5)),
                      truncated=True)
    path = tmp_path / "grid.txt"
    gf.save_text(path)
    back = GridFunction.load_text(path)
    assert back.truncated is True
    np.testing.assert_array_equal(back.values, gf.values)
    np.testing.assert_array_equal(back.lower, gf.lower)
    np.testing.assert_array_equal(back.upper, gf.upper)


def test_grid_function_from_function_sampling(quad_2d):
    gf = GridFunction.from_function(quad_2d, [0.0, 0.0], [1.0, 1.0], [9, 9])
    assert gf.counts == (9, 9)
    assert gf.values[0, 0] == 0.0
    assert gf.values[-1, -1] == pytest.approx(1.0)  # |x|^2/2 at (1,1)
    assert gf.values[4, 0] == pytest.approx(0.125)


# ---------------------------------------------------------------------------
# Legendre transform


def test_legendre_of_quadratic_is_quadratic():
    # (x^2/2)* = y^2/2 once the dual box covers the gradient range
    gf = GridFunction.from_function(lambda x: 0.5 * x[:, 0] ** 2,
                                    [-2.0], [2.0], [513])
    dual = legendre_transform(gf, [-2.0], [2.0], [257])
    y = dual.axes()[0]
    np.testing.assert_allclose(dual.values, 0.5 * y ** 2, atol=5e-5)
    assert not dual.truncated


def test_involution_recovers_convex_function():
    gf = GridFunction.from_function(lambda x: np.cosh(x[:, 0]) - 1.0,
                                    [-1.5], [1.5], [513])
    dual = legendre_transform(gf, [-2.2], [2.2], [513])
    back = legendre_transform(dual, [-1.5], [1.5], [257])
    assert not back.truncated
    x = back.axes()[0]
    np.testing.assert_allclose(back.values, np.cosh(x) - 1.0, atol=1e-4)


def test_quartic_dual_closed_form():
    # (|x|^4/4)* = (3/4) |y|^{4/3}; gradient range of the window is ±1.3^3
    gf = GridFunction.from_function(lambda x: 0.25 * x[:, 0] ** 4,
                                    [-1.3], [1.3], [2001])
    dual = legendre_transform(gf, [-2.2], [2.2], [257])
    y = dual.axes()[0]
    assert not dual.truncated
    np.testing.assert_allclose(dual.values, 0.75 * np.abs(y) ** (4.0 / 3.0),
                               atol=1e-3)


def test_legendre_flags_truncation():
    # slopes reach +-3 but the dual box stops at +-1
    gf = GridFunction.from_function(lambda x: 0.5 * x[:, 0] ** 2,
                                    [-3.0], [3.0], [129])
    with pytest.warns(UserWarning):
        dual = legendre_transform(gf, [-1.0], [1.0], [65])
    assert dual.truncated


def test_fenchel_young_inequality():
    # x.y <= u(x) + u*(y) holds exactly for the discrete conjugate
    gf = GridFunction.from_function(lambda x: 0.5 * x[:, 0] ** 2,
                                    [-2.0], [2.0], [257])
    dual = legendre_transform(gf, [-2.0], [2.0], [129])
    x = gf.axes()[0]
    y = dual.axes()[0]
    lhs = x[:, None] * y[None, :]
    rhs = gf.values[:, None] + dual.values[None, :]
    assert np.all(lhs <= rhs + 1e-12)


def test_legendre_shift_anti_equivariance():
    base = GridFunction.from_function(lambda x: 0.5 * x[:, 0] ** 2,
                                      [-2.0], [2.0], [257])
    shifted = GridFunction(base.lower, base.upper, base.values - 0.7)
    d0 = legendre_transform(base, [-2.0], [2.0], [129])
    d1 = legendre_transform(shifted, [-2.0], [2.0], [129])
    np.testing.assert_allclose(d1.values, d0.values + 0.7, atol=1e-12)


def test_legendre_2d_quadratic():
    gf = GridFunction.from_function(lambda x: 0.5 * np.sum(x ** 2, axis=1),
                                    [-2.0, -2.0], [2.0, 2.0], [257, 257])
    dual = legendre_transform(gf, [-2.0, -2.0], [2.0, 2.0], [65, 65])
    assert not dual.truncated
    pts = dual.nodes()
    target = 0.5 * np.sum(pts ** 2, axis=1).reshape(dual.counts)
    np.testing.assert_allclose(dual.values, target, atol=1e-3)


# ---------------------------------------------------------------------------
# Monge-Ampere measures


@pytest.mark.parametrize("cid,params", [
    ("quadratic", {"hessian": [[2.0, 0.3], [0.3, 1.0]]}),
    ("cosh_quadratic", {"eps": 0.4, "freq": 1.5}),
    ("exp_sum", {}),
    ("quartic", {"eps": 0.5}),
    ("huber", {"delta": 0.25}),
])
def test_ma_det_matches_gradient_volume(cid, params):
    dom = Domain.box([-1.0, -1.0], [1.0, 1.0])
    f = catalog_entry(cid, params, dom)
    det = monge_ampere_det(f)
    grad = monge_ampere_subgradient(f, samples=400_000)
    assert grad == pytest.approx(det, rel=0.02)


def test_ma_subgradient_polytope_region():
    # linear gradient maps the triangle to an H-image of exact known area
    tri = Domain.polytope(np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]),
                          np.array([0.0, 0.0, 1.0]))
    f = catalog_entry("quadratic", {"hessian": [[2.0, 0.3], [0.3, 1.0]]}, tri)
    assert monge_ampere_subgradient(f) == pytest.approx(1.91 * 0.5, rel=1e-9)


def test_ma_subgradient_disc_region():
    # the disc's arcs, sampled as polylines, map to an ellipse of area
    # det H pi r^2 under the linear gradient
    disc = Domain.ball([0.3, -0.2], 0.7)
    f = catalog_entry("quadratic", {"hessian": [[2.0, 0.3], [0.3, 1.0]]},
                      disc)
    assert monge_ampere_subgradient(f) == pytest.approx(
        1.91 * math.pi * 0.49, rel=1e-6)


@pytest.mark.parametrize("cid,params,want", [
    ("quadratic", {"hessian": [[1.0]]}, 2.0),
    ("huber", {"delta": 0.3}, 0.6),
    ("cosh_quadratic", {}, 2.0 * math.sinh(1.0)),
])
def test_ma_subgradient_1d_interval(cid, params, want):
    # in one dimension the image is the interval between the end gradients
    f = catalog_entry(cid, params, Domain.box([-1.0], [1.0]))
    assert monge_ampere_subgradient(f) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("region", [
    Domain.box([0.5], [0.9]),
    Domain.box([0.5, 0.4], [0.9, 0.8]),
    Domain.ball([-0.6, 0.6], 0.2),
])
def test_ma_subgradient_flat_image_is_degenerate(region):
    # inside one arm of huber in every coordinate the gradient is constant,
    # so the image is a point: 0 with the degenerate warning
    dom = Domain.box([-1.0] * region.dim, [1.0] * region.dim)
    f = catalog_entry("huber", {"delta": 0.25}, dom)
    with pytest.warns(UserWarning, match="degenerate"):
        assert monge_ampere_subgradient(f, region=region) == 0.0


def test_ma_det_1d_interval():
    dom = Domain.box([-1.0], [1.0])
    f = catalog_entry("quadratic", {"hessian": [[1.0]]}, dom)
    assert monge_ampere_det(f) == pytest.approx(2.0, rel=1e-10)  # u'' = 1


def test_ma_det_on_subregion():
    dom = Domain.box([-1.0, -1.0], [1.0, 1.0])
    f = catalog_entry("quadratic", {"hessian": [[1.0, 0.0], [0.0, 1.0]]}, dom)
    sub = Domain.box([0.0, 0.0], [1.0, 1.0])
    assert monge_ampere_det(f, region=sub) == pytest.approx(1.0, rel=1e-10)


def test_huber_det_vanishes_outside_core():
    # per-coordinate huber: D^2 u = 0 wherever any |x_k| > delta
    dom = Domain.box([-1.0, -1.0], [1.0, 1.0])
    for delta in (0.25, 0.3, 0.5):
        f = catalog_entry("huber", {"delta": delta}, dom)
        full = monge_ampere_det(f)
        core = monge_ampere_det(f, region=Domain.box([-delta, -delta],
                                                     [delta, delta]))
        assert full == pytest.approx(core, rel=1e-6)


TRIANGLE = Domain.polytope(np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]),
                           np.array([0.0, 0.0, 1.0]))


@pytest.mark.parametrize("cid,dom,exact", [
    # det D^2 f = 1 on the unit disc
    ("quadratic", Domain.ball([0.0, 0.0], 1.0), np.pi),
    # det = cosh(x + y) on the standard triangle: sinh(1)/2
    ("cosh_quadratic", TRIANGLE, np.sinh(1.0) / 2.0),
], ids=["disc", "triangle"])
def test_ma_det_matches_closed_forms(cid, dom, exact):
    assert monge_ampere_det(catalog_entry(cid, {}, dom)) == pytest.approx(
        exact, rel=1e-12)


@pytest.mark.parametrize("delta", [0.123, 0.3])
def test_ma_det_of_huber_is_its_core(delta):
    # det D^2 f is 1 on [-delta, delta]^n and 0 off it; the rule cuts at
    # +-delta, where grid panels would not
    for dom, exact in ((Domain.box([-1.0, -1.0], [1.0, 1.0]), (2 * delta) ** 2),
                       (Domain.box([-1.0], [1.0]), 2 * delta)):
        f = catalog_entry("huber", {"delta": delta}, dom)
        assert monge_ampere_det(f) == pytest.approx(exact, rel=1e-12)


# ---------------------------------------------------------------------------
# surface integrals


def _surface_reference(v, region, quad):
    # the surface integrand as written before it became weighted_mass
    n = v.dim

    def integrand(x):
        det = np.maximum(v.hessian_det(x), 0.0)
        return det ** (1.0 / (n + 2.0)) * np.exp(-n * v.value(x) / (n + 2.0))

    return float(integrate(integrand, region, quad).value)


def test_surface_integral_is_weighted_mass(quad_2d, w_exp):
    # with v = u and supp = dom the surface functional is the p=1 mass,
    # under its default rule or a given one; on these cases it equals the
    # separately written integrand too under a grid (exp(-t)^(n/(n+2))
    # and exp(-n t/(n+2)) can round apart elsewhere)
    cases = [
        quad_2d,
        catalog_entry("quadratic", {"hessian": [[1.0]]},
                      Domain.box([-1.0], [1.0])),
        catalog_entry("huber", {"delta": 0.5},
                      Domain.box([-1.0, -1.0], [1.0, 1.0])),
        catalog_entry("cosh_quadratic", {}, Domain.ball([0.0, 0.0], 1.0)),
    ]
    for v in cases:
        supp = SupportRestriction(v.domain)
        assert weighted_affine_surface(v, supp) == weighted_mass(v, 1.0, w_exp)
        quad = QuadratureSpec(kind="tensor_grid",
                              level=256 if v.dim == 1 else 128)
        surf = weighted_affine_surface(v, supp, quad)
        assert surf == weighted_mass(v, 1.0, w_exp, v.domain, quad)
        assert surf == _surface_reference(v, v.domain, quad)


def test_surface_refuses_support_beyond_domain():
    v = catalog_entry("quadratic", {}, Domain.box([0.0, 0.0], [1.0, 1.0]))
    with pytest.raises(DomainError, match="exceeds"):
        weighted_affine_surface(
            v, SupportRestriction(Domain.box([0.0, 0.0], [2.0, 1.0])))


def test_surface_1d_frozen_value():
    # int_{-1}^{1} exp(-x^2/6) dx, frozen from an independent quadrature
    dom = Domain.box([-1.0], [1.0])
    v = catalog_entry("quadratic", {"hessian": [[1.0]]}, dom)
    surf = weighted_affine_surface(v, SupportRestriction(dom))
    assert surf == pytest.approx(1.8942309400180966, rel=1e-12)


def test_surface_matches_closed_forms():
    # quadratic on the unit disc: 2 pi int_0^1 r exp(-r^2/4) dr
    disc = Domain.ball([0.0, 0.0], 1.0)
    v = catalog_entry("quadratic", {}, disc)
    assert weighted_affine_surface(v, SupportRestriction(disc)) == \
        pytest.approx(4.0 * np.pi * (1.0 - np.exp(-0.25)), rel=1e-12)
    # 1-d huber: int_{-delta}^{delta} exp(-x^2/6) dx, cut at +-delta
    line = Domain.box([-1.0], [1.0])
    for delta in (0.123, 0.3):
        v = catalog_entry("huber", {"delta": delta}, line)
        exact = np.sqrt(6.0 * np.pi) * math.erf(delta / np.sqrt(6.0))
        assert weighted_affine_surface(v, SupportRestriction(line)) == \
            pytest.approx(exact, rel=1e-12)


def test_surface_enlargement_invariance():
    # enlarging the declared support beyond det D^2 v's true support is
    # free: the rule cuts at the det step wherever it lies
    dom_big = Domain.box([-1.0, -1.0], [1.0, 1.0])
    for delta in (0.3, 0.5):
        dom_small = Domain.box([-delta, -delta], [delta, delta])
        f_small = catalog_entry("huber", {"delta": delta}, dom_small)
        f_big = catalog_entry("huber", {"delta": delta}, dom_big)
        s_small = weighted_affine_surface(f_small,
                                          SupportRestriction(dom_small))
        s_big = weighted_affine_surface(f_big, SupportRestriction(dom_big))
        assert s_big == pytest.approx(s_small, rel=1e-9)


def test_dual_sweep_converges_to_theory(w_const):
    dom = Domain.box([-1.0], [1.0])
    v = catalog_entry("quadratic", {"hessian": [[1.0]]}, dom)
    supp = SupportRestriction(dom)
    out = dual_approximation_sweep(v, supp, 1.0, w_const, [64, 256], "exact_1d")
    assert not out.partial
    # MA(v) has density 1 on [-1,1]: mass 2, so the limit is (1/24) * 2^3
    assert out.theory == pytest.approx(1.0 / 3.0, rel=1e-9)
    assert out.records[-1].ratio == pytest.approx(1.0, abs=1e-6)
