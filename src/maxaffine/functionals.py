"""Determinant functionals and the constants of the convergence law.

The central quantity is the weighted mass

    M(f) = integral of (det D^2 f)^(p/(n+2p)) * omega(x, f(x))^(n/(n+2p))

over a region; the rescaled approximation errors m^(2p/n) * Delta_p
converge to  (delta(n, p) / 2^p) * M(f)^((n+2p)/n),  where delta(n, p) is
the quantization coefficient of the exponent-2p power distortion in n
dimensions.  delta is closed form in one dimension; in the plane the
optimal quantizer is asymptotically the hexagonal lattice, so the
coefficient is the corresponding moment of a unit-area regular hexagon
(0.1603750747... for p = 1, i.e. twice the per-dimension normalized
second moment 5/(36 sqrt 3) quoted in coding tables).  An empirical
estimator backed by the Lloyd quantizer is provided for cross-checks.

The mass, the Monge-Ampere measure and the affine surface integrate an
integrand that is smooth except where D^2 f jumps; :func:`region_integral`
chooses their rule.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .convex_core import Domain, DomainError, WeightError
from .error_eval import fan_integral
from .quadrature import QuadratureSpec, integrate, segment_integral


@dataclass(frozen=True)
class ZadorConstant:
    """Quantization coefficient delta(n, p) with its provenance.

    provenance is one of ``closed_form_1d``, ``hexagonal_2d``,
    ``empirical``; half_width is a confidence half-width for empirical
    values (0 for exact ones).
    """

    n: int
    p: float
    value: float
    provenance: str
    half_width: float = 0.0


def law_exponents(p, n):
    """Exponents of det D^2 f and of omega in the law density:
    p/(n+2p) and n/(n+2p)."""
    return p / (n + 2.0 * p), n / (n + 2.0 * p)


def law_density(det, w, p, n):
    """The law density max(det, 0)^(p/(n+2p)) * max(w, 0)^(n/(n+2p)),
    from already computed values of det D^2 f and of omega."""
    a, b = law_exponents(p, n)
    # in place, one temporary fewer; the mass integral passes at most
    # 65,536 rows at a time
    dens = np.maximum(det, 0.0) ** a
    dens *= np.maximum(w, 0.0) ** b
    return dens


def quantizer_weight(det, w, p, n):
    """max(det, 0)^(p/n) * max(w, 0), the law density to the power (n+2p)/n:
    a quantizer of  integral min_s q(x - s)^p rho  puts its points at
    rho^(n/(n+2p)) (Zador's rule), so with this rho they follow the law."""
    dens = np.maximum(det, 0.0) ** (p / n)
    dens *= np.maximum(w, 0.0)
    return dens


def region_integral(func, region, jumps, quad=None):
    """``ErrorReport`` of ``func`` over the interval or planar ``region``,
    smooth except across the lines x_k = c, c in ``jumps[k]``; the rule of
    the mass, the Monge-Ampere measure and the surface.  An explicit
    ``quad`` goes to ``quadrature.integrate``.  Otherwise an interval is
    cut at the jumps inside it (``quadrature.segment_integral``), and a
    ball or polytope, or a box with jumps, along the lines into fans
    (``error_eval.fan_integral``).  Other intervals take a level-64 tensor
    grid and other boxes a level-128 one.
    """
    if quad is None:
        lo, hi = region.bounding_box()
        cuts = np.unique(jumps[0])
        cuts = cuts[(cuts > lo[0]) & (cuts < hi[0])]
        if region.dim == 1 and cuts.size:
            return segment_integral(func, [lo[0], *cuts, hi[0]])
        if region.dim == 2 and (region.kind != "box" or any(jumps)):
            return fan_integral(func, region, jumps)
        quad = QuadratureSpec(level=64 if region.dim == 1 else 128)
    return integrate(func, region, quad)


def weighted_mass(f, p, omega, region=None, quad=None):
    """The mass integral M(f) driving the convergence law (see module docs).

    ``region`` defaults to the domain of f and must lie inside it; the rule
    is :func:`region_integral`'s at ``f.hessian_jumps``.  Raises
    ``WeightError`` where the weight is not positive at a node.
    """
    return _mass_report(f, p, omega, region, quad).value


def _mass_report(f, p, omega, region=None, quad=None):
    """:func:`weighted_mass` as an ``ErrorReport``: value, bar and nodes."""
    region = region or f.domain
    if region.dim != f.dim:
        raise DomainError("region dimension does not match the function")
    _check_region_inside(region, f.domain)

    def integrand(x):
        det = f.hessian_det(x)
        w = np.asarray(omega(x, f.value(x)), dtype=float)
        if np.any(w <= 0):
            raise WeightError("weight must be positive on the region")
        return law_density(det, w, p, f.dim)

    return region_integral(integrand, region, f.hessian_jumps, quad)


def _check_region_inside(region, domain):
    lo, hi = region.bounding_box()
    dlo, dhi = domain.bounding_box()
    if np.any(lo < dlo - 1e-12) or np.any(hi > dhi + 1e-12):
        raise DomainError("integration region exceeds the function domain")


def theoretical_limit(mass, p, n, delta):
    """Limit of m^(2p/n) * Delta_p:  (delta/2^p) * mass^((n+2p)/n)."""
    if mass < 0:
        raise ValueError("mass must be nonnegative")
    if delta.n != n or abs(delta.p - p) > 1e-12:
        raise ValueError(
            f"constant is for (n={delta.n}, p={delta.p}), not (n={n}, p={p})")
    return delta.value / 2.0 ** p * mass ** ((n + 2.0 * p) / n)


def zador_closed_form_1d(p):
    """delta(1, p) = 1 / (2^{2p} (2p+1)): optimal 1-d cells are equal intervals."""
    if p <= 0:
        raise ValueError("p must be positive")
    return ZadorConstant(n=1, p=float(p), value=1.0 / (2.0 ** (2 * p) * (2 * p + 1)),
                         provenance="closed_form_1d")


def hexagonal_moment(p):
    """Moment of order 2p of a unit-area regular hexagon about its center.

    Computed in polar form: 12 * int_0^{pi/6} a^{2p+2} / ((2p+2) cos^{2p+2})
    with apothem a = (2 sqrt 3)^{-1/2}, by Gauss-Legendre with 32 nodes on
    each half of [0, pi/6] (the integrand is smooth there).  For p = 1
    this equals 5 sqrt(3)/54 = 0.16037507477...
    """
    a = (2.0 * np.sqrt(3.0)) ** -0.5
    e = 2.0 * p + 2.0
    x, w = leggauss(32)
    h = np.pi / 24.0
    halves = (h * float(np.dot(w, a ** e / np.cos(c + h * x) ** e))
              for c in (h, 3.0 * h))
    return 6.0 / (p + 1.0) * sum(halves)


def zador_reference(n, p):
    """Best known exact/lattice value of delta(n, p).

    n = 1: closed form.  n = 2: hexagonal-lattice moment (the asymptotically
    optimal planar quantizer).  Higher dimensions have no exact value; use
    :func:`zador_estimate`.
    """
    if n == 1:
        return zador_closed_form_1d(p)
    if n == 2:
        return ZadorConstant(n=2, p=float(p), value=hexagonal_moment(p),
                             provenance="hexagonal_2d")
    raise ValueError(f"no reference constant in dimension {n}; estimate it")


def zador_estimate(n, p, m_list, trials=8, seed=0, max_iterations=200,
                   eval_samples=200_000):
    """Empirical delta(n, p) from Lloyd runs on the unit cube.

    For each m the quantizer runs ``trials`` times with independent seeds;
    the rescaled distortion m^(2p/n) * distortion is evaluated on a fresh
    cloud (so the training cloud's optimism does not leak in).  Reported
    value: minimum over trials at the largest m; half_width: a bootstrap
    of that minimum.  Being a feasible-point estimate it upper-bounds the
    true coefficient up to sampling error.

    On a line the quantizer is exact: the value is m^(2p) times its
    objective at the largest m, with half_width 0, and ``trials``,
    ``seed``, ``max_iterations`` and ``eval_samples`` have no effect.
    """
    from .quantizer import QuantizerConfig, quantize, quantizer_objective

    cube = Domain.box(np.zeros(n), np.ones(n))
    m_list = sorted(set(int(m) for m in m_list))
    if not m_list:
        raise ValueError("m_list must be non-empty")
    m_top = m_list[-1]
    if n == 1:
        ps = quantize(cube, None, QuantizerConfig(m=m_top, p=p))
        return ZadorConstant(n=1, p=float(p), value=m_top ** (2.0 * p)
                             * ps.objective, provenance="empirical")
    per_trial = []
    for m in m_list:
        vals = []
        for t in range(trials):
            cfg = QuantizerConfig(m=m, p=p, seed=(seed * 1000003 + 7919 * t + m),
                                  max_iterations=max_iterations)
            ps = quantize(cube, None, cfg)
            rep = quantizer_objective(
                cube, None, np.eye(n), p, ps.points,
                QuadratureSpec(kind="monte_carlo", samples=eval_samples,
                               seed=(seed, m, t)))
            vals.append(m ** (2.0 * p / n) * rep.value)
        if m == m_top:
            per_trial = vals
    arr = np.asarray(per_trial)
    est = float(arr.min())
    rng = np.random.default_rng(seed + 17)
    boots = np.min(rng.choice(arr, size=(1000, arr.size), replace=True), axis=1)
    half = float(1.96 * np.std(boots))
    return ZadorConstant(n=n, p=float(p), value=est, provenance="empirical",
                         half_width=half)
