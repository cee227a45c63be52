"""Weighted L^p error of a circumscribed envelope.

The headline quantity is

    Delta_p = integral over the domain of (f - l)^p omega(x, f(x)) dx,

where l is a max of tangent planes kept below f.  One dimension has an
exact path that decomposes the envelope into its cells (sort the pieces
by slope, prune the ones that never attain the maximum, cut at the
crossing abscissas) and integrates each cell by adaptive Gauss-32 panels
(``quadrature.adaptive_panels``).  The panels of all cells are processed
breadth first, one bisection level at a time, with the integrand
evaluated in blocks of at most 256 panels (96 nodes each) so the working
set stays small.  The result is the one a cell-by-cell recursion gives,
bit for bit: every 32-node panel sum is its own BLAS ddot, a split
panel's value is rebuilt as left + right, and the cell totals are added
in cell order.  When every piece attains the maximum (tangent envelopes
of a strictly convex f), the cells come from one vectorised pass; the
upper-envelope stack runs only when some piece must be pruned.  Higher
dimensions evaluate the integrand pointwise under tensor-grid or
stratified Monte Carlo quadrature; no cell decomposition is attempted
there.

Every evaluation first verifies circumscription on a probe cloud and
refuses (``CircumscriptionError``) when l pokes above f by more than
1e-9: tangent-built envelopes violate only at rounding level, so anything
larger is a corrupted envelope, not data.  In one dimension the probe
(4,096 points) and the exact path's scale probe (257 points) score each
point only against the pieces that can be largest near it
(``PiecewiseAffineMax.evaluate``); the values are those of a scan over
every piece, bit for bit, because a dropped piece is provably below a
kept one after rounding and a one-coordinate product rounds once however
it is formed.  In two or more dimensions the BLAS product's summation
order depends on the shape of the call, so envelopes are scanned whole.
"""

import numpy as np

from .convex_core import (CircumscriptionError, WeightError, as_points,
                          max_violation, sup_gap)
from .quadrature import (ErrorReport, QuadratureSpec, adaptive_panels,
                         integrate, panel_tolerance)

__all__ = [
    "QuadratureSpec", "ErrorReport", "weighted_lp_error",
    "exact_1d_piecewise_integral", "max_violation", "sup_gap",
    "envelope_cells_1d",
]

_CIRC_TOL = 1e-9


def _probe_cloud(domain, count=4096, seed=202):
    rng = np.random.default_rng((seed, domain.dim))
    return domain.sample(rng, count)


def envelope_cells_1d(l, interval):
    """Active pieces and cell edges of a 1-d envelope on [a, b].

    Pieces are sorted by slope; among equal slopes only the highest offset
    can win, and a piece whose crossing with its left neighbor does not
    advance past the neighbor's own crossing never attains the maximum and
    is pruned (standard upper-envelope stack).  Returns (indices, edges)
    with edges[0] = a, edges[-1] = b, piece indices[j] active on
    [edges[j], edges[j+1]].  Cells clipped away by the interval are
    dropped.
    """
    a, b = float(interval[0]), float(interval[1])
    slopes = np.asarray(l.slopes, dtype=float).reshape(-1)
    offsets = np.asarray(l.offsets, dtype=float)
    order = np.lexsort((offsets, slopes))
    s, o = slopes[order], offsets[order]
    if np.all(s[1:] > s[:-1]):
        cross = (o[:-1] - o[1:]) / (s[1:] - s[:-1])
        if np.all(cross[1:] > cross[:-1]):
            # every piece wins somewhere: the stack below would pop nothing
            return _clip_cells(order, cross, slopes, offsets, a, b)
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
    return _clip_cells(np.asarray(stack), np.asarray(cross, dtype=float),
                       slopes, offsets, a, b)


def _clip_cells(stack, cross, slopes, offsets, a, b):
    """Cells of the envelope pieces ``stack`` (crossings ``cross``) on [a, b]."""
    edges = np.concatenate([[a], cross, [b]])
    edges = np.clip(edges, a, b)
    keep = np.flatnonzero(np.diff(edges) > 0)
    if keep.size == 0:
        # a single piece dominates the whole interval
        vals = slopes[stack] * a + offsets[stack]
        return np.array([stack[int(np.argmax(vals))]]), np.array([a, b])
    idxs = stack[keep]
    edges = np.concatenate([[edges[keep[0]]], edges[keep + 1]])
    return idxs, edges


def exact_1d_piecewise_integral(f, l, p, omega, rel_tol=1e-12):
    """Cell-by-cell integral of (f - l)^p omega in one dimension.

    Exact up to the adaptive tolerance for any positive p: integer p gives
    polynomial-in-smooth integrands that the Gauss panels capture at
    machine precision; non-integer p falls back on the same adaptive
    bisection, which keeps refining where gap^p loses smoothness.

    All cells go through :func:`quadrature.adaptive_panels` together, one
    level of panels at a time, each cell's panels with that cell's own
    tangent.  The value is that of integrating the cells one by one: each
    32-node panel sum is its own ddot, a split panel's value is rebuilt as
    left + right, and the cell totals are added in cell order.

    Returns an :class:`ErrorReport` with the panels' node count (96 per
    panel) and, as its error bar, the sum over accepted panels of
    ``|left + right - whole|``.
    """
    if f.dim != 1:
        raise ValueError("exact integration path requires one dimension")
    if p <= 0:
        raise ValueError("p must be positive")
    lo, hi = f.domain.bounding_box()
    idxs, edges = envelope_cells_1d(l, (float(lo[0]), float(hi[0])))
    slopes = np.asarray(l.slopes, dtype=float).reshape(-1)[idxs, None]
    offsets = np.asarray(l.offsets, dtype=float)[idxs, None]

    # overall scale for the relative acceptance test
    probe = np.linspace(float(lo[0]), float(hi[0]), 257)
    fx = f.value(probe.reshape(-1, 1))
    gap = np.maximum(fx - l.evaluate(probe.reshape(-1, 1)), 0.0)
    wpx = np.asarray(omega(probe.reshape(-1, 1), fx), dtype=float)
    tol = panel_tolerance(gap ** p * wpx, float(hi[0]) - float(lo[0]), rel_tol)

    def integrand(xs, cell):
        pts = xs.reshape(-1, 1)
        vals = f.value(pts)
        g = np.maximum(vals - (slopes[cell] * xs + offsets[cell]).ravel(), 0.0)
        w = np.asarray(omega(pts, vals), dtype=float)
        return g ** p * w

    vals, nodes, bar = adaptive_panels(integrand, edges[:-1], edges[1:], tol)
    # a running sum in cell order, not numpy's pairwise np.sum
    total = float(max(np.cumsum(np.concatenate(([0.0], vals)))[-1], 0.0))
    return ErrorReport(value=total, error_bar=bar, nodes_used=nodes)


def weighted_lp_error(f, l, p, omega, quad=None):
    """Weighted L^p error report for a circumscribed envelope.

    Verifies l <= f + 1e-9 on a fixed probe cloud first.  The quadrature
    default is the exact path in one dimension and a level-128 tensor grid
    otherwise; pass a QuadratureSpec to override.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    omega_fn = omega
    validate = getattr(omega, "validate_positive", None)
    if validate is not None:
        validate(f.domain)
    cloud = _probe_cloud(f.domain)
    worst = max_violation(f, l, cloud)
    if worst > _CIRC_TOL:
        raise CircumscriptionError(
            f"envelope exceeds the function by {worst:.3e} on the probe cloud")

    if quad is None:
        quad = QuadratureSpec(kind="exact_1d" if f.dim == 1 else "tensor_grid",
                              level=128)

    if quad.kind == "exact_1d":
        return exact_1d_piecewise_integral(f, l, p, omega_fn,
                                           rel_tol=quad.rel_tol)

    def integrand(x):
        pts = as_points(x, f.dim)
        vals = f.value(pts)
        gap = np.maximum(vals - l.evaluate(pts), 0.0)
        w = np.asarray(omega_fn(pts, vals), dtype=float)
        if np.any(w < 0):
            raise WeightError("weight is negative on quadrature nodes")
        return gap ** p * w

    return integrate(integrand, f.domain, quad)
