"""Mass integrals, quantization constants, and the predicted limit.

Frozen targets below were produced by independent oracles: closed forms
for the 1-d constant, the polar-form hexagon moment recomputed here by a
triangle-decomposition quadrature, and high-level quadrature runs for the
weighted mass values.  Masses on balls and polytopes are checked against
64-node polar Gauss-Legendre and collapsed (Duffy) Gauss rules built
here from the closed-form density, and against closed-form areas.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from maxaffine import (
    Domain,
    DomainError,
    QuadratureSpec,
    WeightError,
    WeightFunction,
    catalog_entry,
    hexagonal_moment,
    theoretical_limit,
    weighted_mass,
    zador_closed_form_1d,
    zador_estimate,
    zador_reference,
)
from maxaffine.functionals import _mass_report

# oracle constants (see module docstring)
HEX_P1 = 0.16037507477489604       # = 5 sqrt(3) / 54, unit-area hexagon, p=1
HEX_P2 = 0.034567901234567905      # same hexagon, p=2
I1 = 0.9471154700090483            # int_0^1 exp(-x^2/6) dx


def hexagon_moment_oracle(p):
    """Triangle-decomposition oracle for the unit-area hexagon moment.

    The hexagon splits into 12 congruent right triangles with legs a
    (apothem) and a*tan(30deg); integrate |x|^{2p} over one of them on a
    fine barycentric grid and scale.  Deliberately a different method
    from the implementation's polar form.
    """
    a = (2.0 * np.sqrt(3.0)) ** -0.5
    b = a * np.tan(np.pi / 6.0)
    # map the unit square to the triangle (u, u*v) with jacobian u
    g = 2048
    u = (np.arange(g) + 0.5) / g
    v = (np.arange(g) + 0.5) / g
    uu, vv = np.meshgrid(u, v, indexing="ij")
    x = a * uu
    y = b * uu * vv
    r2 = x * x + y * y
    jac = a * b * uu
    return 12.0 * float(np.mean(r2 ** p * jac))


def test_zador_closed_form_1d_values():
    assert zador_closed_form_1d(1.0).value == pytest.approx(1.0 / 12.0, rel=1e-15)
    assert zador_closed_form_1d(2.0).value == pytest.approx(1.0 / 80.0, rel=1e-15)
    assert zador_closed_form_1d(0.5).value == pytest.approx(1.0 / 4.0, rel=1e-15)
    assert zador_closed_form_1d(1.0).provenance == "closed_form_1d"
    with pytest.raises(ValueError):
        zador_closed_form_1d(0.0)


def test_zador_closed_form_matches_midpoint_quadrature():
    # direct Riemann check of m^{2p} * int min_j |x - t_j|^{2p} on midpoints
    m, p = 16, 1.5
    t = (np.arange(m) + 0.5) / m
    x = (np.arange(200_000) + 0.5) / 200_000
    d = np.abs(x[:, None] - t[None, :]).min(axis=1)
    val = m ** (2 * p) * np.mean(d ** (2 * p))
    assert val == pytest.approx(zador_closed_form_1d(p).value, rel=1e-6)


def test_hexagonal_moment_against_triangle_oracle():
    assert hexagonal_moment(1) == pytest.approx(HEX_P1, rel=1e-12)
    assert hexagonal_moment(2) == pytest.approx(HEX_P2, rel=1e-12)
    assert hexagonal_moment(1) == pytest.approx(hexagon_moment_oracle(1), rel=1e-6)
    assert hexagonal_moment(2) == pytest.approx(hexagon_moment_oracle(2), rel=1e-6)
    # hexagons beat squares (uniform-grid moment is 1/6 for p=1)
    assert hexagonal_moment(1) < 1.0 / 6.0


def test_hexagonal_moment_is_pinned():
    # the values of the former scipy quad evaluation
    assert hexagonal_moment(1) == 0.16037507477489604
    assert hexagonal_moment(1.5) == 0.07287862509141316
    assert hexagonal_moment(2) == 0.034567901234567905
    for p, old in ((0.5, 0.3771967354844369), (3, 0.008451511877026273)):
        assert abs(hexagonal_moment(p) - old) <= np.spacing(old)


def test_zador_reference_dispatch():
    assert zador_reference(1, 2.0).value == pytest.approx(1.0 / 80.0)
    ref2 = zador_reference(2, 1.0)
    assert ref2.value == pytest.approx(HEX_P1, rel=1e-12)
    assert ref2.provenance == "hexagonal_2d"
    assert ref2.half_width == 0.0
    with pytest.raises(ValueError):
        zador_reference(3, 1.0)


def test_theoretical_limit_formula_and_guards():
    delta = zador_closed_form_1d(1.0)
    # (delta / 2^p) * mass^{(n+2p)/n} with n=1, p=1
    assert theoretical_limit(1.0, 1.0, 1, delta) == pytest.approx(1.0 / 24.0)
    assert theoretical_limit(2.0, 1.0, 1, delta) == pytest.approx(8.0 / 24.0)
    with pytest.raises(ValueError):
        theoretical_limit(1.0, 1.0, 2, delta)      # wrong dimension
    with pytest.raises(ValueError):
        theoretical_limit(1.0, 2.0, 1, delta)      # wrong exponent
    with pytest.raises(ValueError):
        theoretical_limit(-1.0, 1.0, 1, delta)


def test_weighted_mass_unit_cases(quad_1d, quad_2d, w_const):
    # det D^2 f = 1 and omega = 1 leave the plain volume
    assert weighted_mass(quad_1d, 1.0, w_const) == pytest.approx(1.0, rel=1e-12)
    assert weighted_mass(quad_2d, 1.0, w_const) == pytest.approx(1.0, rel=1e-12)
    assert weighted_mass(quad_2d, 2.0, w_const) == pytest.approx(1.0, rel=1e-12)


def test_weighted_mass_exponential_weight(quad_1d, w_exp):
    # (f'')^{1/3} * exp(-f/3) integrates to I1 for f = x^2/2 on [0,1]
    val = weighted_mass(quad_1d, 1.0, w_exp)
    assert val == pytest.approx(I1, rel=1e-11)
    # criterion constant: theory = (1/24) * I1^3
    delta = zador_closed_form_1d(1.0)
    assert theoretical_limit(val, 1.0, 1, delta) == pytest.approx(
        I1 ** 3 / 24.0, rel=1e-10)


def test_weighted_mass_region_and_weight_guards(quad_1d):
    sub = Domain.box([0.25], [0.75])
    v = weighted_mass(quad_1d, 1.0, WeightFunction.constant(1.0), region=sub)
    assert v == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(DomainError):
        weighted_mass(quad_1d, 1.0, WeightFunction.constant(1.0),
                      region=Domain.box([0.0], [2.0]))
    with pytest.raises(DomainError):
        weighted_mass(quad_1d, 1.0, WeightFunction.constant(1.0),
                      region=Domain.box([0.0, 0.0], [1.0, 1.0]))


def test_weighted_mass_scales_with_hessian(w_const):
    # f = c x^2/2 has mass int c^{1/3} dx on [0,1] for p=1
    dom = Domain.box([0.0], [1.0])
    f = catalog_entry("quadratic", {"hessian": [[8.0]]}, dom)
    assert weighted_mass(f, 1.0, w_const) == pytest.approx(2.0, rel=1e-12)


def test_zador_estimate_smoke_and_upper_bound_contract():
    est = zador_estimate(1, 1.0, [16], trials=3, seed=1, eval_samples=50_000)
    ref = zador_closed_form_1d(1.0).value
    assert abs(est.value - ref) / ref < 0.05
    assert est.provenance == "empirical"
    # Lloyd gives feasible points: empirical value upper-bounds the true
    # constant up to its own confidence half-width
    assert est.value >= ref - 3.0 * est.half_width - 0.01 * ref
    # determinism
    est2 = zador_estimate(1, 1.0, [16], trials=3, seed=1, eval_samples=50_000)
    assert est.value == est2.value
    with pytest.raises(ValueError):
        zador_estimate(1, 1.0, [], trials=2)


def test_disc_mass_memory_stays_bounded():
    # the default disc mass is a fan of sectors evaluated at most 1,024
    # sectors (36,864 nodes) a call; the 1,000,000-sample Monte Carlo it
    # replaced raised maxrss by about 108 MB in one whole-cloud call
    # (ru_maxrss counts KiB on Linux)
    import maxaffine

    src = os.path.dirname(os.path.dirname(maxaffine.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = (
        "import resource, maxaffine as mx\n"
        "f = mx.catalog_entry('cosh_quadratic', {},"
        " mx.Domain.ball([0.0, 0.0], 1.0))\n"
        "w = mx.WeightFunction.exp_neg_t()\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "mx.weighted_mass(f, 1.5, w)\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print((after - before) / 1024)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 40.0


# ---------------------------------------------------------------------------
# masses on balls and polytopes: the cell fan against independent rules


def _density(f, omega, p, x):
    det = f.hessian_det(x)
    return det ** (p / (2 + 2 * p)) * omega(x, f.value(x)) ** (1 / (1 + p))


def _polar_mass(f, omega, p, centre, radius, order=64):
    """Polar Gauss-Legendre over a disc."""
    x, w = np.polynomial.legendre.leggauss(order)
    r, wr = radius * (x + 1) / 2, radius * w / 2
    t, wt = np.pi * (x + 1), np.pi * w
    rr, tt = np.meshgrid(r, t, indexing="ij")
    pts = np.column_stack([centre[0] + (rr * np.cos(tt)).ravel(),
                           centre[1] + (rr * np.sin(tt)).ravel()])
    vals = _density(f, omega, p, pts).reshape(rr.shape) * rr
    return float(wr @ vals @ wt)


def _collapsed_mass(f, omega, p, vertices, order=64):
    """Collapsed Gauss over the fan of a convex polygon from its first
    vertex: triangle (a, b, c) is a + u (b - a) + u v (c - b)."""
    x, w = np.polynomial.legendre.leggauss(order)
    u, wu = (x + 1) / 2, w / 2
    uu, vv = (g.ravel() for g in np.meshgrid(u, u, indexing="ij"))
    a = np.asarray(vertices[0], dtype=float)
    total = 0.0
    for b, c in zip(vertices[1:-1], vertices[2:]):
        b, c = np.asarray(b, dtype=float), np.asarray(c, dtype=float)
        pts = a + uu[:, None] * (b - a) + (uu * vv)[:, None] * (c - b)
        jac = abs((b - a)[0] * (c - b)[1] - (b - a)[1] * (c - b)[0])
        vals = (_density(f, omega, p, pts) * uu * jac).reshape(u.size, -1)
        total += float(wu @ vals @ wu)
    return total


TRIANGLE = ([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, 1.0])
TRIANGLE_VERTICES = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]


def _check_fan(f, omega, p, ref, region=None, rel=1e-13):
    rep = _mass_report(f, p, omega, region)
    assert abs(rep.value - ref) <= rel * ref
    assert abs(rep.value - ref) <= rep.error_bar
    assert weighted_mass(f, p, omega, region) == rep.value
    return rep


def test_fan_mass_disc_and_triangle_match_independent_rules(w_exp):
    disc = Domain.ball([0.0, 0.0], 1.0)
    f = catalog_entry("cosh_quadratic", {}, disc)
    _check_fan(f, w_exp, 1.5, _polar_mass(f, w_exp, 1.5, (0.0, 0.0), 1.0))
    f = catalog_entry("cosh_quadratic", {}, Domain.polytope(*TRIANGLE))
    _check_fan(f, w_exp, 2.0, _collapsed_mass(f, w_exp, 2.0,
                                               TRIANGLE_VERTICES))


def test_fan_mass_off_centre_ball_hexagon_and_inner_region(w_exp):
    # To the 2-d error's own target, 1e-9: the polygons start from 4 and
    # 6 sectors, and refinement stops at 16 times that with the values
    # 4e-10 (quadrilateral) and 1.8e-12 (hexagon) of the value off, and
    # bars of 1.3e-7 and 3e-8 of it.
    f = catalog_entry("exp_sum", {}, Domain.ball([0.4, -0.3], 0.7))
    _check_fan(f, w_exp, 1.0, _polar_mass(f, w_exp, 1.0, (0.4, -0.3), 0.7),
               rel=1e-9)
    angle = np.pi / 3 * np.arange(6)
    hexagon = np.column_stack([np.cos(angle), np.sin(angle)]) + [0.2, 0.1]
    normals = np.column_stack([np.cos(angle + np.pi / 6),
                               np.sin(angle + np.pi / 6)])
    dom = Domain.polytope(normals, np.cos(np.pi / 6) + normals @ [0.2, 0.1])
    f = catalog_entry("quartic", {}, dom)
    _check_fan(f, w_exp, 2.0, _collapsed_mass(f, w_exp, 2.0, hexagon),
               rel=1e-9)
    # a quadrilateral strictly inside the function's larger domain
    f = catalog_entry("cosh_quadratic", {"freq": 2.0},
                      Domain.ball([0.0, 0.0], 2.0))
    quad = [(-0.5, -0.75), (1.0, -0.25), (0.75, 1.0), (-1.0, 0.5)]
    rows = [(q[1] - p[1], p[0] - q[0]) for p, q in zip(quad, quad[1:] + quad[:1])]
    region = Domain.polytope(rows, [r[0] * p[0] + r[1] * p[1]
                                    for r, p in zip(rows, quad)])
    _check_fan(f, w_exp, 1.5, _collapsed_mass(f, w_exp, 1.5, quad), region,
               rel=1e-9)


@pytest.mark.parametrize("delta", [0.123, 0.3, 0.5])
def test_fan_mass_cuts_huber_at_its_hessian_jumps(delta, w_const):
    # the density is 1 on [-delta, delta]^n and 0 off it; at 0.5 the
    # square's corner sits on the triangle's hypotenuse.  Boxes and
    # intervals are cut at the jumps too, where a grid's panels are not
    # (level 128 reads 0.3525 for the exact 0.36 at delta = 0.3, with a
    # bar of 0; level 64 reads 0.25 for the exact 0.246 at 0.123)
    for dom, area in ((Domain.ball([0.0, 0.0], 1.0), 4 * delta ** 2),
                      (Domain.polytope(*TRIANGLE), delta ** 2),
                      (Domain.box([-1.0, -1.0], [1.0, 1.0]), 4 * delta ** 2),
                      (Domain.box([-1.0], [1.0]), 2 * delta)):
        f = catalog_entry("huber", {"delta": delta}, dom)
        rep = _mass_report(f, 2.0, w_const)
        assert abs(rep.value - area) <= rep.error_bar + 1e-11 * area


def test_hessian_jumps_come_from_the_catalog():
    dom = Domain.ball([0.0, 0.0], 1.0)
    f = catalog_entry("huber", {"delta": 0.25}, dom)
    inner = Domain.ball([0.1, 0.0], 0.5)
    for g in (f, f.restricted_to(inner), f.with_offset(2.0)):
        assert g.hessian_jumps == ((-0.25, 0.25), (-0.25, 0.25))
    for cid in ("quadratic", "cosh_quadratic", "exp_sum", "quartic"):
        assert catalog_entry(cid, {}, dom).hessian_jumps == ((), ())


def test_fan_mass_refuses_a_weight_that_is_not_positive():
    f = catalog_entry("cosh_quadratic", {}, Domain.ball([0.0, 0.0], 1.0))
    # 0.5 + x is negative on the disc's left part
    with pytest.raises(WeightError):
        weighted_mass(f, 1.0, WeightFunction.affine_x([1.0, 0.0], 0.5))


def test_box_and_1d_masses_keep_their_grids(w_exp):
    # values of the level-128 and level-64 tensor grids, which the cell
    # fan leaves to boxes and intervals without jumps, and the fan masses
    # of the disc and triangle benchmark workloads
    disc = Domain.ball([0.0, 0.0], 1.0)
    assert weighted_mass(catalog_entry("cosh_quadratic", {}, disc), 1.5,
                         w_exp) == 1.363903320518784
    tri = Domain.polytope(*TRIANGLE)
    assert weighted_mass(catalog_entry("cosh_quadratic", {}, tri), 2.0,
                         w_exp) == 0.25539680489566
    sq = Domain.box([0.0, 0.0], [1.0, 1.0])
    assert weighted_mass(catalog_entry("cosh_quadratic", {}, sq), 1.5,
                         w_exp) == 0.42826723640036213
    line = Domain.box([-1.0], [1.0])
    assert weighted_mass(catalog_entry("exp_sum", {}, line), 1.5,
                         w_exp) == 1.6150979154026568
    assert weighted_mass(catalog_entry("cosh_quadratic", {}, line), 2.0,
                         WeightFunction.constant()) == 2.128842620819285
