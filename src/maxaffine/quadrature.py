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
    Gauss-Legendre segments on an interval, halved where their bars are
    largest (:func:`segment_integral`).  A segment's bar is its 12-node
    minus its 8-node value; the error bar is their sum.

The grid and Monte Carlo kinds build and evaluate their nodes in blocks
of 65,536 rows (:func:`evaluate_rows`), so their memory is bounded by
the block, plus one value array (and, for the grid, one weight array) of
8 bytes a node.  All reductions run single threaded (numpy pairwise
summation over the whole value array, one ``bincount`` per block of whole
strata, or one product per Gauss segment), so a fixed spec and seed give
bit-stable results, whatever the block size.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi

_VALID_KINDS = ("exact_1d", "tensor_grid", "monte_carlo")
_ROW_BLOCK = 65_536     # rows per whole-cloud integrand call: 1 MB in 2-d
_SEGMENT_RULES = (12, 8)    # nodes of a segment's fine and coarse rule
_MAX_SEGMENTS = 1024        # segments of an ``exact_1d`` integral, at most
_MAX_ROUNDS = 40            # refinement rounds before the bar is taken as is


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
    fine-minus-coarse rule difference for deterministic ones.
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


def evaluate_rows(func, rows, total, step=_ROW_BLOCK, dtype=float):
    """``func`` at ``total`` rows, called on at most ``step`` rows at a time.

    ``rows(block)`` builds the rows of the slice ``block``.  The blocks
    go in order, so a random stream drawn inside ``rows`` gives the same
    numbers as one draw of every row, and no temporary of ``func`` grows
    with ``total``.  Returns the values as one array of ``dtype``.
    """
    out = np.empty(total, dtype=dtype)
    for start in range(0, total, step):
        block = slice(start, min(start + step, total))
        out[block] = func(rows(block))
    return out


@lru_cache(maxsize=None)
def _jacobi01(order, beta):
    """Gauss-Jacobi rule for the integral over [0, 1] of s^beta g(s) ds."""
    x, w = roots_jacobi(order, 0.0, beta)
    return (1.0 + x) / 2.0, w / 2.0 ** (beta + 1.0)


@lru_cache(maxsize=None)
def _gauss01(order):
    """Gauss-Legendre rule on [0, 1]."""
    x, w = leggauss(order)
    return (1.0 + x) / 2.0, w / 2.0


class Pieces:
    """Pieces of an integral: row k of each named array describes piece k."""

    def __init__(self, **rows):
        self.names = tuple(rows)
        self.__dict__.update(rows)

    @property
    def size(self):
        return len(getattr(self, self.names[0]))

    def take(self, idx):
        return type(self)(**{n: getattr(self, n)[idx] for n in self.names})

    def join(self, parts):
        return type(self)(**{n: np.concatenate([getattr(p, n) for p in parts])
                             for n in self.names})

    def halves(self, **cuts):
        """Each piece cut in two at the middle of an interval: ``cuts``
        maps the name of a (pieces, 2) array to the pieces cut in it.
        The first halves of all pieces come first, then the second ones."""
        first, second = (self.take(np.arange(self.size)) for _ in range(2))
        for name, cut in cuts.items():
            mid = getattr(self, name)[cut].mean(axis=1)
            getattr(first, name)[cut, 1] = mid
            getattr(second, name)[cut, 0] = mid
        return self.join([first, second])


def refine(sums, split, pieces, nodes, rel_tol, max_pieces, abs_tol=0.0):
    """Integral over ``pieces``, cutting those with the largest bars.

    ``sums(pieces)`` gives each piece's value, bar and rounding floor
    from ``nodes`` integrand values; ``split(pieces, idx)`` cuts the
    pieces ``idx`` in two, ordered as :meth:`Pieces.halves` does.  Each
    round cuts the largest bars above their floors until what is left is
    within half the target, max(rel_tol |value|, abs_tol).  Halves take
    at least half of how far they moved their parent's value as their
    bar: where the integrand vanishes on part of a piece, or has a kink,
    both rules can miss a sliver of it and agree by chance.  Stops at the
    target, when no bar is above its floor, at ``max_pieces`` pieces or
    after 40 rounds.  Returns (value, summed bar, integrand values used).
    """
    val, bar, floor = sums(pieces)
    used = pieces.size * nodes
    for _ in range(_MAX_ROUNDS):
        target = max(rel_tol * abs(float(np.sum(val))), abs_tol)
        over = np.flatnonzero(bar > floor)
        if (float(np.sum(bar)) <= target or over.size == 0
                or pieces.size >= max_pieces):
            break
        order = over[np.argsort(-bar[over], kind="stable")]
        count = np.searchsorted(np.cumsum(bar[order]),
                                float(np.sum(bar)) - target / 2.0) + 1
        idx = order[:count]
        children = split(pieces, idx)
        new_val, new_bar, new_floor = sums(children)
        used += children.size * nodes
        moved = np.abs(new_val[:idx.size] + new_val[idx.size:] - val[idx])
        rest = np.ones(pieces.size, dtype=bool)
        rest[idx] = False
        pieces = pieces.join([pieces.take(rest), children])
        val = np.concatenate([val[rest], new_val])
        bar = np.concatenate([bar[rest],
                              np.maximum(new_bar, np.tile(moved / 2.0, 2))])
        floor = np.concatenate([floor[rest], new_floor])
    return float(np.sum(val)), float(np.sum(bar)), used


def segment_integral(func, edges, rel_tol=1e-12):
    """Integral of ``func`` (an array at (N, 1) points) over the segments
    between increasing ``edges``, halved where their bars are largest
    (:func:`refine`) until the summed bar is at most ``rel_tol`` of the
    value or 1e-14, or at 1024 segments.  Returns an :class:`ErrorReport`.
    """
    xs = [_gauss01(k) for k in _SEGMENT_RULES]

    def segment_sums(seg):
        lo, width = seg.u[:, :1], seg.u[:, 1:] - seg.u[:, :1]
        fine, coarse = (
            width[:, 0] * (func((lo + width * x).reshape(-1, 1))
                           .reshape(seg.size, -1) @ w) for x, w in xs)
        return fine, np.abs(fine - coarse), np.zeros(seg.size)

    # the absolute floor stops an integrand that nearly vanishes on the
    # nodes (sin(256 pi x) on [0, 1]) from splitting to the cap
    value, bar, nodes_used = refine(
        segment_sums, lambda seg, idx: seg.take(idx).halves(u=slice(None)),
        Pieces(u=np.column_stack([edges[:-1], edges[1:]])),
        sum(_SEGMENT_RULES), rel_tol, _MAX_SEGMENTS, abs_tol=1e-14)
    return ErrorReport(value=value, error_bar=bar, nodes_used=nodes_used)


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
        return segment_integral(masked, [lower[0], upper[0]],
                                min(spec.rel_tol, 1e-12))

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
