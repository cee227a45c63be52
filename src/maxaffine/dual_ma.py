"""Dual-side machinery: Legendre transforms on grids, the Monge-Ampere
measure computed two independent ways, the weighted affine surface
functional, and the dual approximation sweep over a declared support
region.

The discrete Legendre transform is the direct maximum over primal nodes,

    u*(y) = max_x (x . y - u(x)),

which is exact for the convex piecewise-affine interpolant of the samples
(the maximum of an affine function of x over a polytope sits at a vertex).
Grids here stay small (<= 10^3 nodes per axis), so the quadratic cost is a
non-issue and there is no approximation beyond the sampling itself.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .convex_core import Domain, WeightFunction
from .error_eval import _cell_boundaries, _cross, _Sectors
from .functionals import region_integral, weighted_mass
from .sweep import run_sweep

__all__ = [
    "GridFunction", "SupportRestriction", "legendre_transform",
    "monge_ampere_det", "monge_ampere_subgradient",
    "weighted_affine_surface", "dual_approximation_sweep",
]


@dataclass
class GridFunction:
    """Samples of a function on a regular box grid (row-major values)."""

    lower: np.ndarray
    upper: np.ndarray
    values: np.ndarray          # shape = per-axis node counts
    truncated: bool = False     # set when a transform could not see the
                                # full gradient range of its input

    def __post_init__(self):
        self.lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != self.lower.size:
            raise ValueError("values array rank must match the box dimension")
        if any(c < 2 for c in self.values.shape):
            raise ValueError("need at least two nodes per axis")
        if np.any(self.upper <= self.lower):
            raise ValueError("grid box must have positive side lengths")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")

    @property
    def dim(self):
        return self.lower.size

    @property
    def counts(self):
        return self.values.shape

    @property
    def spacing(self):
        return (self.upper - self.lower) / (np.array(self.counts) - 1.0)

    def axes(self):
        return [np.linspace(self.lower[k], self.upper[k], self.counts[k])
                for k in range(self.dim)]

    def nodes(self):
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack(mesh, axis=-1).reshape(-1, self.dim)

    @classmethod
    def from_function(cls, fn, lower, upper, counts):
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        counts = [int(c) for c in np.atleast_1d(counts)]
        axes = [np.linspace(lower[k], upper[k], counts[k])
                for k in range(lower.size)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack(mesh, axis=-1).reshape(-1, lower.size)
        vals = fn.value(pts) if hasattr(fn, "value") else fn(pts)
        return cls(lower, upper, np.asarray(vals, dtype=float).reshape(counts))

    def save_text(self, path):
        with open(path, "w") as fh:
            fh.write(f"dim {self.dim}\n")
            for k in range(self.dim):
                fh.write(f"axis {self.counts[k]} {self.lower[k]:.17g} "
                         f"{self.upper[k]:.17g}\n")
            fh.write(f"truncated {int(self.truncated)}\n")
            for v in self.values.reshape(-1):
                fh.write(f"{v:.17g}\n")

    @classmethod
    def load_text(cls, path):
        with open(path) as fh:
            tokens = fh.read().split()
        it = iter(tokens)
        if next(it) != "dim":
            raise ValueError("not a grid-function file")
        dim = int(next(it))
        counts, lower, upper = [], [], []
        for _ in range(dim):
            if next(it) != "axis":
                raise ValueError("malformed axis record")
            counts.append(int(next(it)))
            lower.append(float(next(it)))
            upper.append(float(next(it)))
        if next(it) != "truncated":
            raise ValueError("malformed truncation record")
        trunc = bool(int(next(it)))
        vals = np.array([float(tok) for tok in it])
        return cls(np.array(lower), np.array(upper), vals.reshape(counts),
                   truncated=trunc)


@dataclass
class SupportRestriction:
    """Compact region declared as the support of the Monge-Ampere measure."""

    region: Domain

    @property
    def dim(self):
        return self.region.dim


def _fd_slope_range(gf):
    """Per-axis range of finite-difference slopes of the samples."""
    lo, hi = np.empty(gf.dim), np.empty(gf.dim)
    for k in range(gf.dim):
        d = np.diff(gf.values, axis=k) / gf.spacing[k]
        lo[k], hi[k] = float(d.min()), float(d.max())
    return lo, hi


def legendre_transform(gf, dual_lower, dual_upper, dual_counts=None):
    """Discrete Legendre transform onto a dual grid.

    The result is flagged ``truncated`` when the dual box does not cover
    the gradient range of the input samples (estimated from forward
    differences), since then the transform cannot represent u* far enough
    out to invert back to u.
    """
    dual_lower = np.atleast_1d(np.asarray(dual_lower, dtype=float))
    dual_upper = np.atleast_1d(np.asarray(dual_upper, dtype=float))
    if dual_counts is None:
        dual_counts = gf.counts
    dual_counts = [int(c) for c in np.atleast_1d(dual_counts)]

    slope_lo, slope_hi = _fd_slope_range(gf)
    pad = 1e-9 * np.maximum(1.0, np.abs(slope_hi) + np.abs(slope_lo))
    truncated = bool(np.any(dual_lower > slope_lo + pad)
                     or np.any(dual_upper < slope_hi - pad))
    if truncated:
        warnings.warn("dual grid does not cover the gradient range; "
                      "transform is truncated", stacklevel=2)

    x = gf.nodes()
    u = gf.values.reshape(-1)
    axes = [np.linspace(dual_lower[k], dual_upper[k], dual_counts[k])
            for k in range(gf.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    y = np.stack(mesh, axis=-1).reshape(-1, gf.dim)

    out = np.empty(y.shape[0])
    block = max(1, int(4_000_000 // max(x.shape[0], 1)))
    for start in range(0, y.shape[0], block):
        yb = y[start:start + block]
        scores = x @ yb.T
        scores -= u[:, None]
        out[start:start + block] = scores.max(axis=0)
    return GridFunction(dual_lower, dual_upper, out.reshape(dual_counts),
                        truncated=truncated)


def monge_ampere_det(f, region=None, quad=None):
    """Integral of det D^2 f over the region, by ``region_integral``."""
    region = getattr(region, "region", region) or f.domain
    rep = region_integral(lambda x: np.maximum(f.hessian_det(x), 0.0),
                          region, f.hessian_jumps, quad)
    return float(max(rep.value, 0.0))


def monge_ampere_subgradient(f, region=None, samples=200_000):
    """Monge-Ampere measure as the volume of the gradient image.

    A monotone gradient carries the region boundary onto the image
    boundary, so in one dimension the image is the interval between the
    gradients at the region's ends, and in two the volume is the
    circulation (shoelace) integral of the mapped boundary -- by Stokes
    that signed area equals the enclosed volume even when the image
    bulges and stops being convex, as gradient images of boxes routinely
    do.  The boundary is the region's exact sides and arcs, those of the
    one cell of the zero piece (``error_eval._cell_boundaries``), sampled
    at about ``samples / 8`` points.  Only first derivatives enter, which
    keeps this estimate independent of the Hessian route in
    ``monge_ampere_det``.  A degenerate image returns 0 with a warning.
    """
    region = getattr(region, "region", region) or f.domain
    if f.dim == 1:
        g = f.gradient(np.vstack(region.bounding_box()))
        vol, scale = float(g.max() - g.min()), 0.0
    else:
        _, s, d, arc, centre, radius = _cell_boundaries(
            np.zeros((1, 2)), np.zeros(1), region)
        n = s.shape[0]
        v = np.linspace(0.0, 1.0, max(int(samples) // (8 * n), 64) + 1)
        pts, _ = _Sectors(s=s, d=d, arc=arc).curve(np.tile(v, (n, 1)),
                                                   centre, radius)
        g = f.gradient(pts.reshape(-1, 2)).reshape(pts.shape)
        vol = 0.5 * abs(float(np.sum(_cross(g[:, :-1], g[:, 1:]))))
        scale = float(np.max(np.abs(g))) ** 2
    if vol <= 1e-12 * max(scale, 1.0):
        warnings.warn("gradient image is degenerate", stacklevel=2)
        return 0.0
    return vol


def weighted_affine_surface(v, supp, quad=None):
    """Weighted affine surface integral over the declared support:

        int_supp (det D^2 v)^(1/(n+2)) exp(-n v / (n+2)) dx,

    the mass integral at p = 1 with weight e^{-t}, by its rule.  Outside
    the support det D^2 v vanishes, so enlarging the region (within v's
    domain) does not change the value up to quadrature tolerance.
    """
    region = getattr(supp, "region", supp)
    return weighted_mass(v, 1.0, WeightFunction.exp_neg_t(), region, quad)


def dual_approximation_sweep(v, supp, p, omega, m_list, strategy, seed=0,
                             quad=None, **strategy_opts):
    """Primal machinery applied on the declared support of MA(v; .).

    Restricts v to the support region, then sweeps the budget exactly as
    the primal pipeline does; the comparison limit uses the mass integral
    over the support.
    """
    region = getattr(supp, "region", supp)
    v_on_supp = v.restricted_to(region)
    return run_sweep(v_on_supp, omega, p, m_list, strategy, quad=quad,
                     seed=seed, **strategy_opts)
