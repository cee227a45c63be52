"""Quadrature engines shared by the functional and error integrals.

Three kinds are supported, selected by :class:`QuadratureSpec`:

``tensor_grid``
    Composite tensor-product Gauss-Legendre over the bounding box of the
    region (panels per axis = ``level``).  Non-box regions are handled by
    multiplying the integrand with the region indicator.  The error bar is
    a panel-refinement delta (recompute at half the panel count).

``monte_carlo``
    Stratified jittered sampling over the bounding box on a 2^k per-axis
    panel grid, with the usual stratified standard error.

``exact_1d``
    Adaptive Gauss-Legendre bisection on an interval
    (:func:`adaptive_panels`, the same integrator the exact 1-d error path
    runs over the cells of an envelope).  The error bar is the sum of the
    accepted panels' refinement deltas.

The grid and Monte Carlo kinds build and evaluate their nodes in blocks
of 65,536 rows (:func:`evaluate_rows`), so their memory is bounded by
the block, plus one value array (and, for the grid, one weight array) of
8 bytes a node.  All reductions run single threaded (numpy pairwise
summation over the whole value array, one ``bincount`` per block of whole
strata, or one BLAS ddot per Gauss panel), so a fixed spec and seed give
bit-stable results, whatever the block size.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

_VALID_KINDS = ("exact_1d", "tensor_grid", "monte_carlo")
_GX32, _GW32 = leggauss(32)
_PANEL_BLOCK = 256      # panels per integrand call: 24,576 nodes, 192 KB
_SPLIT_BLOCK = 2048     # split panels whose halves are refined together
_MAX_DEPTH = 24         # bisection levels before a panel is taken as is
_ROW_BLOCK = 65_536     # rows per whole-cloud integrand call: 1 MB in 2-d


@dataclass(frozen=True)
class QuadratureSpec:
    """How an integral should be evaluated.

    Parameters
    ----------
    kind : str
        One of ``exact_1d``, ``tensor_grid``, ``monte_carlo``.
    level : int
        Panels per axis for ``tensor_grid`` (>= 2).
    samples : int
        Sample budget for ``monte_carlo`` (>= 1000).
    seed : int
        Seed for the stochastic kinds.
    rel_tol : float
        Target relative tolerance; when the achieved error bar exceeds it
        the result is still returned (with the honest error bar).
    """

    kind: str = "tensor_grid"
    level: int = 64
    samples: int = 1_000_000
    seed: int = 0
    rel_tol: float = 1e-9

    def __post_init__(self):
        if self.kind not in _VALID_KINDS:
            raise ValueError(
                f"unknown quadrature kind {self.kind!r}; expected one of {_VALID_KINDS}"
            )
        if self.level < 2:
            raise ValueError("tensor_grid level must be >= 2")
        if self.samples < 1000:
            raise ValueError("monte_carlo samples must be >= 1000")


@dataclass(frozen=True)
class ErrorReport:
    """Integral estimate with an honest uncertainty.

    ``error_bar`` is a standard error for stochastic kinds and a
    panel-refinement delta for deterministic ones.
    """

    value: float
    error_bar: float
    nodes_used: int


def _composite_gl_axis(lo, hi, panels, order):
    """Composite Gauss-Legendre nodes/weights on [lo, hi] with `panels` panels."""
    x, w = leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    h = (edges[1:] - edges[:-1]) / 2.0
    mid = (edges[1:] + edges[:-1]) / 2.0
    nodes = (mid[:, None] + h[:, None] * x[None, :]).ravel()
    weights = (h[:, None] * w[None, :]).ravel()
    return nodes, weights


def _tensor_axes(lower, upper, level, order=None):
    """Per-axis composite Gauss-Legendre (nodes, weights) on a box."""
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    n = lower.size
    if order is None:
        order = 4 if n == 1 else 2
    return [_composite_gl_axis(lower[k], upper[k], level, order)
            for k in range(n)]


def _tensor_rows(axes, block):
    """Nodes and weights of the tensor grid's rows in the slice ``block``,
    numbered in C order over the axes."""
    shape = tuple(x.size for x, _ in axes)
    index = np.unravel_index(np.arange(block.start, block.stop), shape)
    nodes = np.stack([x[i] for (x, _), i in zip(axes, index)], axis=-1)
    weights = np.ones(nodes.shape[0])
    for (_, w), i in zip(axes, index):
        weights = weights * w[i]
    return nodes, weights


def tensor_nodes(lower, upper, level, order=None):
    """Tensor-product composite Gauss-Legendre nodes on a box.

    Returns (nodes, weights) with nodes of shape (N, n).  The per-panel
    order defaults to 4 in one dimension and 2 otherwise, which keeps the
    node count at ``(order*level)**n``.
    """
    axes = _tensor_axes(lower, upper, level, order)
    return _tensor_rows(axes, slice(0, math.prod(x.size for x, _ in axes)))


def stratified_sampler(lower, upper, samples, rng):
    """Jittered stratified sample of a box over a 2^k per-axis panel grid.

    Returns (draw, total, per): ``per`` samples in each of the
    ``total // per`` strata, numbered in C order over the panel grid.
    ``draw(block)`` returns the samples of the rows in the slice
    ``block``, which must hold whole strata; called on consecutive blocks
    from row 0, it draws the same numbers from ``rng`` as one draw of all
    ``total`` rows.
    """
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

    def draw(block):
        base = np.repeat(cells[block.start // per:block.stop // per], per,
                         axis=0).astype(float)
        u = rng.random(base.shape)
        unit = (base + u) / s
        return lower + unit * (upper - lower)

    return draw, s ** n * per, per


def evaluate_rows(func, rows, total, step=_ROW_BLOCK):
    """``func`` at ``total`` rows, called on at most ``step`` rows at a time.

    ``rows(block)`` builds the rows of the slice ``block``.  The blocks
    go in order, so a random stream drawn inside ``rows`` gives the same
    numbers as one draw of every row, and no temporary of ``func`` grows
    with ``total``.  Returns the values as one float array.
    """
    out = np.empty(total)
    for start in range(0, total, step):
        block = slice(start, min(start + step, total))
        out[block] = func(rows(block))
    return out


def panel_tolerance(probe, width, rel_tol, floor=0.0):
    """Acceptance bound for :func:`adaptive_panels`.

    ``rel_tol`` times the scale of the integral, read as the largest
    ``|probe|`` value times ``width`` (at least 1e-300), and never below
    ``floor``.
    """
    scale = max(float(np.max(np.abs(probe))) * width, 1e-300)
    return max(rel_tol * scale, floor)


def adaptive_panels(func, lo, hi, tol):
    """Adaptive Gauss-32 bisection over many intervals at once.

    Integrates interval ``i`` = [lo[i], hi[i]].  ``func(xs, cell)`` returns
    the integrand of interval ``cell[k]`` at the nodes ``xs[k]``, with xs
    of shape (panels, nodes).  A panel is integrated whole and as two
    halves; it is accepted when ``|left + right - whole| <= tol`` or at
    depth 24, and its value is then ``left + right``; otherwise both
    halves become panels of the next level.  A panel whose 96 nodes all
    read zero is accepted only if ``func`` is also zero at both of its
    ends (below depth 24); for the gap of a convex function this catches
    a sliver of nonzero gap that falls between the nodes.

    The work is breadth first: each level's panels are evaluated in
    blocks of at most 256, and a split panel's value is rebuilt bottom up
    as left child + right child.  The halves of at most 2048 split panels
    go down at a time, so memory stays bounded however deep the splits
    go.  Every panel sum is one BLAS ddot of its 32 terms, whatever the
    block, so the values equal those of a recursion that integrates one
    interval at a time, bit for bit.

    Returns (values per interval, nodes used, error bar), counting 96
    nodes per panel (the end checks are not counted); the bar is the sum
    of the accepted panels' deltas.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    return _refine(func, lo, hi, np.arange(lo.size), tol, 0)


def _panel_sums(rows):
    """Gauss-32 sum of each row, each its own BLAS ddot.

    A stack of row-by-column products: numpy takes one ddot per row, as
    ``np.dot(_GW32, row)`` does, while ``rows @ _GW32`` sums in another
    order.
    """
    return np.matmul(rows[:, None, :], _GW32[:, None]).reshape(-1)


def _refine(func, lo, hi, cell, tol, depth):
    """Values, nodes and bar of the panels [lo, hi] at ``depth``."""
    h = (hi - lo) / 2.0
    mid = (hi + lo) / 2.0
    h2 = h / 2.0
    sums = np.empty((lo.size, 3))
    blind = np.empty(lo.size, dtype=bool)
    for s in range(0, lo.size, _PANEL_BLOCK):
        b = slice(s, s + _PANEL_BLOCK)
        xs = np.concatenate(
            [mid[b, None] + h[b, None] * _GX32,
             lo[b, None] + h2[b, None] + h2[b, None] * _GX32,
             mid[b, None] + h2[b, None] + h2[b, None] * _GX32], axis=1)
        rows = np.asarray(func(xs, cell[b]), dtype=float).reshape(-1, 32)
        sums[b] = _panel_sums(rows).reshape(-1, 3)
        blind[b] = ~rows.reshape(-1, 96).any(axis=1)
    val = h2 * sums[:, 1] + h2 * sums[:, 2]
    delta = np.abs(val - h * sums[:, 0])
    accept = (delta <= tol) | (depth >= _MAX_DEPTH)
    # a panel whose nodes all read zero can hide a sliver where the
    # integrand rises between them; a convex gap that is also zero at
    # both ends of the panel is zero all over it
    check = np.flatnonzero(accept & blind & (depth < _MAX_DEPTH))
    if check.size:
        ends = np.asarray(func(np.stack([lo[check], hi[check]], axis=1),
                               cell[check]), dtype=float).reshape(-1, 2)
        accept[check[ends.any(axis=1)]] = False
    nodes, bar = 96 * lo.size, float(np.sum(delta[accept]))
    split = np.flatnonzero(~accept)
    for s in range(0, split.size, _SPLIT_BLOCK):
        k = split[s:s + _SPLIT_BLOCK]
        child, cnodes, cbar = _refine(
            func, np.stack([lo[k], mid[k]], axis=1).ravel(),
            np.stack([mid[k], hi[k]], axis=1).ravel(),
            np.repeat(cell[k], 2), tol, depth + 1)
        val[k] = child[0::2] + child[1::2]
        nodes, bar = nodes + cnodes, bar + cbar
    return val, nodes, bar


def integrate(func, domain, spec):
    """Integrate ``func`` (vectorized over (N, n) points) over ``domain``.

    ``domain`` is a :class:`maxaffine.convex_core.Domain`.  Points outside
    non-box domains contribute zero through the indicator.
    """
    lower, upper = domain.bounding_box()
    n = lower.size
    vol = float(np.prod(upper - lower))

    def masked(x):
        return domain.mask(x, np.asarray(func(x), dtype=float))

    if spec.kind == "exact_1d":
        if n != 1:
            raise ValueError("exact_1d quadrature is only defined in one dimension")
        a, b = float(lower[0]), float(upper[0])
        # the absolute floor stops an integrand that nearly vanishes on
        # the probes (sin(256 pi x) on [0, 1]) from splitting to depth 24
        tol = panel_tolerance(masked(np.linspace(a, b, 257).reshape(-1, 1)),
                              b - a, min(spec.rel_tol, 1e-12), floor=1e-14)
        vals, nodes_used, bar = adaptive_panels(
            lambda xs, _: masked(xs.reshape(-1, 1)), [a], [b], tol)
        return ErrorReport(value=float(vals[0]), error_bar=bar,
                           nodes_used=nodes_used)

    if spec.kind == "tensor_grid":
        fine, fine_nodes = _tensor_sum(masked, lower, upper, spec.level)
        coarse, coarse_nodes = _tensor_sum(masked, lower, upper,
                                           max(2, spec.level // 2))
        return ErrorReport(value=fine, error_bar=abs(fine - coarse),
                           nodes_used=fine_nodes + coarse_nodes)

    # monte_carlo: per >= 4, as samples >= 1000; the stratum sums come
    # from one bincount per block of whole strata
    rng = np.random.default_rng(spec.seed)
    draw, total, per = stratified_sampler(lower, upper, spec.samples, rng)
    step = per * max(1, _ROW_BLOCK // per)
    vals = evaluate_rows(masked, draw, total, step)
    nstrata = total // per
    idx = np.repeat(np.arange(step // per), per)
    sums, sqs = np.empty(nstrata), np.empty(nstrata)
    for start in range(0, total, step):
        v = vals[start:start + step]
        strata = slice(start // per, (start + v.size) // per)
        sums[strata] = np.bincount(idx[:v.size], weights=v)
        sqs[strata] = np.bincount(idx[:v.size], weights=v * v)
    var_within = (sqs - sums ** 2 / per) / (per - 1)
    var_mean = float(np.sum(var_within / per)) / nstrata ** 2
    se = vol * np.sqrt(max(var_mean, 0.0))
    return ErrorReport(value=vol * float(np.mean(vals)), error_bar=float(se),
                       nodes_used=total)


def _tensor_sum(func, lower, upper, level):
    """Tensor-grid sum of ``func`` at ``level``, with its node count."""
    axes = _tensor_axes(lower, upper, level)
    total = math.prod(x.size for x, _ in axes)
    weights = np.empty(total)

    def rows(block):
        nodes, weights[block] = _tensor_rows(axes, block)
        return nodes

    vals = evaluate_rows(func, rows, total)
    return float(np.dot(weights, vals)), total
