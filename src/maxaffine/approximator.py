"""Construction of circumscribed max-of-tangent-plane approximations.

Strategies
----------
``paper_partition``
    Two-scale construction: split the domain into an axis-aligned grid of
    pieces, freeze the Hessian metric and the weight at each piece anchor,
    give each piece a budget proportional to its share of the weighted
    mass (floors, so the total never exceeds m), and run the metric
    quantizer piece by piece.  Tangent planes are taken at every placed
    point, giving exactly m pieces.

``global_density``
    One quantizer run over the whole domain with the Hessian frozen at the
    domain centroid and weight (det D^2 f)^(p/n) * omega: the law density
    to the power (n+2p)/n, as a quantizer puts its points at its weight to
    the power n/(n+2p).  On a line the quantizer is exact_1d's solve.

``greedy_insertion``
    Start from the tangent at the centroid and repeatedly add the tangent
    at the sample point with the largest weighted gap (f - l)^p * omega
    over a fixed cloud.  Nested by construction, so errors are monotone
    in m.  The cloud sits in buckets of about 64 rows, each with a
    reference plane (the piece active at its box centre); a new tangent
    that stays below the reference over the bucket's box, by a margin of
    ``_SLACK`` times the size of the planes' terms, cannot raise l there,
    and only the other buckets are rescored.  The picks, ties included,
    are those of a full rescan of the cloud.

``uniform_grid``
    Tangents at the centers of a near-isotropic lattice with at most m
    points.  Baseline.

``exact_1d``
    One dimension only: tangent abscissas solving the first-order
    optimality system

        integral over cell_j of (f - tangent_j)^(p-1) (x - t_j) omega = 0,

    where cell_j is bounded by the crossings of consecutive tangents.
    Each cell is split at its tangency point t_j, where the integrand
    behaves like |x - t_j|^(2p-1); each half gets a 12-node Gauss-Jacobi
    rule with that weight, so what it sees, ((f - tangent_j)/(x - t_j)^2)
    ^(p-1) omega, is smooth for every p > 0; where omega jumps inside a
    half (``omega.jumps``, which the 1-d quantizer finds in its density),
    the half is cut there too.  Initialized at quantiles of
    the asymptotically optimal density (f'')^(p/(1+2p)) *
    omega^(1/(1+2p)), then polished by one damped Newton method with a
    tridiagonal finite-difference Jacobian, for every p > 0, which stops
    at 1e-12 of the residual's scale or at its rounding floor.  One tangent
    (m = 1) minimizes the exact 1-d error instead.
    A merely convex f may want a tangent at the edge of an affine piece,
    where the residual jumps (p < 1) or its slope is singular (p < 2), and
    Newton stops short there; red-black bisection sweeps from the start
    then put those tangents on the piece's line and hold them while Newton
    solves for the rest.  A solve that still stops far from a root raises
    ArithmeticError, so a sweep records a failure, not a wrong envelope.
    For a quadratic with constant weight the quantile initialization is
    already stationary (uniform midpoints) and the result is exact to
    machine precision.
"""

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .convex_core import (Domain, QuadraticForm, MetricError,
                          below_reference, rowdot, tangent_planes)
from .error_eval import exact_1d_piecewise_integral
from .functionals import law_density, law_exponents, quantizer_weight
from .quadrature import _gauss01, _jacobi01, tensor_nodes
from .quantizer import QuantizerConfig, _BucketArgmax, quantize, quantize_many

log = logging.getLogger(__name__)

STRATEGIES = ("paper_partition", "global_density", "greedy_insertion",
              "uniform_grid", "exact_1d")


@dataclass
class Partition:
    """Axis-aligned pieces with frozen anchor data."""

    cells: list              # list of (lower, upper) arrays
    anchors: np.ndarray      # (l, n)
    anchor_forms: list       # QuadraticForm per piece


@dataclass
class Allocation:
    masses: np.ndarray       # normalized mass fractions, sum 1
    budgets: np.ndarray      # integer budgets, sum == m, >= 1 on positive mass


def _safe_form(matrix, dim):
    """SPD form from a Hessian, falling back to identity when degenerate."""
    try:
        return QuadraticForm.from_matrix(matrix)
    except MetricError:
        log.debug("degenerate anchor Hessian; falling back to identity metric")
        return QuadraticForm.from_matrix(np.eye(dim))


def partition_domain(f, l_pieces):
    """Grid partition of the domain with per-piece frozen anchor data.

    The longest axis gets ``l_pieces`` cells; the other axes get counts
    scaled by their relative side length (aspect-balanced, at least 1).
    Non-box domains are partitioned through their bounding box; cells
    that miss the domain are dropped and the rest are anchored at the
    mean of their probes inside it.
    """
    if l_pieces < 1:
        raise ValueError("need at least one piece")
    lo, hi = f.domain.bounding_box()
    sides = hi - lo
    counts = np.maximum(1, np.round(l_pieces * sides / sides.max()).astype(int))
    counts[np.argmax(sides)] = l_pieces
    edges = [np.linspace(lo[k], hi[k], counts[k] + 1) for k in range(f.dim)]

    cells = [(np.array([edges[k][idx[k]] for k in range(f.dim)]),
              np.array([edges[k][idx[k] + 1] for k in range(f.dim)]))
             for idx in np.ndindex(*counts)]
    anchors = [(cl + cu) / 2.0 for cl, cu in cells]
    if f.domain.kind != "box":
        # keep cells that meet the domain; anchor at a contained probe
        lows, highs = (np.array(side) for side in zip(*cells))
        lattice = _probe_lattice(f.dim)
        probes = lows[:, None] + lattice * (highs - lows)[:, None]
        inside = f.domain.contains(probes.reshape(-1, f.dim)).reshape(
            len(cells), -1)
        hit = np.flatnonzero(inside.any(axis=1))
        cells = [cells[i] for i in hit]
        anchors = [probes[i][inside[i]].mean(axis=0) for i in hit]

    anchors = np.asarray(anchors)
    forms = [_safe_form(f.hessian(a)[0], f.dim) for a in anchors]
    return Partition(cells=cells, anchors=anchors, anchor_forms=forms)


def _probe_lattice(dim, per_axis=8):
    axes = [np.linspace(0.5 / per_axis, 1 - 0.5 / per_axis, per_axis)] * dim
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)


def _cell_mass(f, omega, p, cell, level=16):
    """Weighted-mass integrand integrated over one (possibly clipped) cell."""
    nodes, wts = tensor_nodes(cell[0], cell[1], level)
    return float(np.dot(wts, _law_density(f, omega, p)(nodes)))


def allocate_budget(partition, f, omega, p, m):
    """Floor-based proportional budgets: d_i = floor(tau_i m), remainder by
    largest fractional part, then every positive-mass piece is topped up to
    at least one point.  The floor stage never exceeds m; the final budgets
    sum to exactly m."""
    masses = np.array([_cell_mass(f, omega, p, c) for c in partition.cells])
    total = masses.sum()
    if total <= 0:
        raise ValueError("partition carries no weighted mass")
    tau = masses / total
    positive = np.flatnonzero(tau > 1e-15)
    if positive.size > m:
        raise ValueError(
            f"budget m={m} is below the number of positive-mass pieces "
            f"({positive.size}); use fewer pieces")
    budgets = np.floor(tau * m).astype(int)
    assert budgets.sum() <= m, "floor allocation exceeded the budget"
    frac = tau * m - budgets
    order = np.argsort(-frac, kind="stable")
    for i in order[: m - budgets.sum()]:
        budgets[i] += 1
    # top up zero-budget pieces that carry mass, richest donors first
    for i in positive[budgets[positive] == 0]:
        donor = np.argmax(budgets)
        if budgets[donor] <= 1:
            raise ValueError("cannot give every positive-mass piece a point")
        budgets[donor] -= 1
        budgets[i] += 1
    assert budgets.sum() == m
    return Allocation(masses=tau, budgets=budgets)


# ---------------------------------------------------------------------------
# exact one-dimensional construction

_HALF_ORDER = 12                    # nodes per half-cell of the split rule
_FD_STEP = 1e-7                     # Jacobian difference step, per unit length
_MAX_NEWTON = 60                    # damped Newton steps per solve
_QUANTILE_GRID = 4097               # trapezoid nodes of the quantile start
_EPS = np.finfo(float).eps


def _interval(f):
    lo, hi = f.domain.bounding_box()
    if f.dim != 1:
        raise ValueError("this construction is one-dimensional only")
    return float(lo[0]), float(hi[0])


def _crossings(t, v, g):
    """Crossings of the tangents with values v and slopes g at sorted t."""
    num = v[1:] - v[:-1] + t[:-1] * g[:-1] - t[1:] * g[1:]
    den = g[:-1] - g[1:]
    if np.any(den >= 0):
        raise ValueError("tangent slopes must strictly increase")
    return num / den


def _split_cell_halves(f, omega, p, t, interval, bound=False):
    """Per-cell integrals of (f - l_j)^(p-1) |x - t_j| omega for the
    tangents at sorted t, split at t_j.

    Cell j is cut at its tangency point t_j into a left and a right half.
    With the gap f - l_j = (x - t_j)^2 q_j(x) and q_j smooth, each half is
    integrated with a Gauss-Jacobi rule of weight |x - t_j|^(2p-1), and
    q_j^(p-1) omega is what the rule sees.

    Returns shape (cells, 2): the left and right halves.  A half of zero
    width adds 0; where the gap vanishes the term is 0.  With ``bound``,
    also the bound on the gap's rounding (``_halves``).
    """
    ft = f.value(t.reshape(-1, 1))
    gt = f.gradient(t.reshape(-1, 1))[:, 0]
    return _halves(f, omega, p, t, ft, gt, _half_widths(t, ft, gt, interval),
                   bound)


def _half_widths(t, ft, gt, interval):
    """Widths of the cells' left and right halves, shape (cells, 2)."""
    a, b = interval
    inner = _crossings(t, ft, gt) if len(t) > 1 else np.empty(0)
    return np.stack([t - np.concatenate([[a], inner]),
                     np.concatenate([inner, [b]]) - t], axis=1)


def _residual_floor(f, p, t, halves, interval, gap):
    """Each cell's rounding floor: how far one ulp of rounding in each
    crossing of the tangents at sorted t moves its residual, plus ``gap``,
    the bound on the rounding of the gap f - l_j inside it that
    ``_split_cell_halves(..., bound=True)`` returns with the halves.

    The crossing of tangents j and j + 1 rounds by eps (|f(t_j)| +
    |f(t_{j+1})| + |t_j f'(t_j)| + |t_{j+1} f'(t_{j+1})|) / (f'(t_{j+1}) -
    f'(t_j)).  A half of width w whose integral H goes like w^(2p) moves
    by 2p H / w per unit of its edge; ``halves`` gives H, the cells'
    halves at the solve's start.
    """
    ft = f.value(t.reshape(-1, 1))
    gt = f.gradient(t.reshape(-1, 1))[:, 0]
    h = _half_widths(t, ft, gt, interval)
    size = np.abs(ft) + np.abs(t * gt)
    slip = _EPS * (size[:-1] + size[1:]) / (gt[1:] - gt[:-1])
    shift = np.stack([np.concatenate([[0.0], slip]),
                      np.concatenate([slip, [0.0]])], axis=1)
    rate = np.divide(2.0 * p * halves, h, out=np.zeros_like(h), where=h > 0)
    return np.sum(rate * shift, axis=1) + gap


def _halves(f, omega, p, t, ft, gt, h, bound=False):
    """The split-cell rule for tangents (t, ft, gt) whose halves have
    widths h, shape (cells, 2); a negative width counts as 0.  With
    ``bound``, also returns per cell how far the rounding of the gap can
    move its residual (0 for p = 1).

    For p != 1 the kernel raises the gap f(x) - f(t_j) - f'(t_j) dx to
    the power p - 1, and next to t_j the gap cancels.  It is formed with
    dx = x - t_j at the node x where f was evaluated.  Take f(x), f(t_j)
    and f'(t_j) within one ulp (eps relative) and each operation within
    half of one.  At one node, the rounding of f(x), of the product, of
    the two subtractions and of dx and dx^2 moves the kernel by at most
    |p - 1| eps (|f(t_j)| + 2.5 |f'(t_j) dx| + 3.5 gap) / gap of itself,
    to first order, as |f(x)| <= |f(t_j)| + |f'(t_j) dx| + gap; the nodes
    add up with the rule's weights.  f(t_j) and f'(t_j) are shared by the cell's
    nodes.  One slip of f(t_j) moves each half by |p - 1| eps |f(t_j)|
    times its sum of kernel / gap, and so the residual, right minus left,
    by their difference.  One slip of f'(t_j) goes with dx, whose sign
    differs between the halves, and adds up over both.

    An omega that jumps lists where in ``omega.jumps``.  A half with jumps
    inside takes the rule only up to the one nearest t_j; the rest is cut
    at the others and at t_j + 2^k (that distance), and each of its
    segments, no wider than its distance from t_j, takes Gauss-Legendre."""
    beta, e = 2.0 * p - 1.0, p - 1.0
    h = np.maximum(h, 0.0)

    def kernel(tj, fj, gj, dx):
        # ((f - l_j) / (x - t_j)^2)^(p-1) omega at x = t_j + dx and, with
        # bound, that over the gap, alone and times |x - t_j|
        nodes = tj + dx
        fx = f.value(nodes.reshape(-1, 1)).reshape(nodes.shape)
        w = np.asarray(omega(nodes.reshape(-1, 1), fx.reshape(-1)),
                       dtype=float).reshape(nodes.shape)
        if e == 0.0:
            return w, ()
        dx = nodes - tj
        gap = fx - fj - gj * dx
        pos = gap > 0
        gap = np.where(pos, gap, 1.0)
        w = np.where(pos, (gap / np.where(pos, dx * dx, 1.0)) ** e * w, 0.0)
        return w, ((w / gap, w / gap * np.abs(dx)) if bound else ())

    near, seg = _jump_segments(t, h, getattr(omega, "jumps", ()))
    u, wts = _jacobi01(_HALF_ORDER, beta)
    dx = np.array([-1.0, 1.0])[:, None] * near[:, :, None] * u
    scale = near ** (beta + 1.0)
    w, extra = kernel(t[:, None, None], ft[:, None, None], gt[:, None, None],
                      dx)
    out = w @ wts * scale
    # numpy's own loops: a BLAS product this long would wake OpenBLAS's
    # worker threads
    sums = [np.einsum("...k,k->...", v, wts) * scale for v in extra]
    if seg is not None:
        half, lo, hi = seg
        x, wl = _gauss01(_HALF_ORDER)
        dist = lo[:, None] + (hi - lo)[:, None] * x
        j = half // 2
        dx = np.where(half % 2, 1.0, -1.0)[:, None] * dist
        w, extra = kernel(t[j, None], ft[j, None], gt[j, None], dx)
        for total, vals in zip([out, *sums], [w, *extra]):
            total += np.bincount(half, ((vals * dist ** beta) @ wl)
                                 * (hi - lo),
                                 minlength=out.size).reshape(out.shape)
    if not bound:
        return out
    if e == 0.0:
        return out, np.zeros(t.size)
    lean, lever = sums
    return out, abs(e) * _EPS * (
        2.0 * np.abs(ft) * lean.max(axis=1)
        + 3.5 * (np.abs(gt) * lever.sum(axis=1) + out.sum(axis=1)))


def _jump_segments(t, h, jumps):
    """Where the halves (t, widths h) meet the sorted ``jumps``: the
    widths each half's Gauss-Jacobi rule covers, and (half, lo, hi), the
    segments beyond, as distances from t_j, with half = 2 j + side; None
    when no jump lies inside a half."""
    jumps = np.asarray(jumps, dtype=float)
    if not jumps.size:
        return h, None
    # the halves in x order start at t_j - h_j0 and at t_j
    k = np.searchsorted(np.column_stack([t - h[:, 0], t]).ravel(), jumps,
                        side="right") - 1
    d = np.abs(jumps - t[k // 2])
    inside = (k >= 0) & (d > 0) & (d < h.ravel()[k])
    if not np.any(inside):
        return h, None
    k, d = k[inside], d[inside]
    near = h.ravel().copy()
    np.minimum.at(near, k, d)
    half, cuts = [], []
    for q in np.unique(k):
        steps = near[q] * 2.0 ** np.arange(np.ceil(np.log2(h.flat[q]
                                                           / near[q])))
        edges = np.union1d(np.append(steps, h.flat[q]), d[k == q])
        half.append(np.full(edges.size - 1, q))
        cuts.append(np.column_stack([edges[:-1], edges[1:]]))
    cuts = np.concatenate(cuts)
    return near.reshape(h.shape), (np.concatenate(half), cuts[:, 0],
                                   cuts[:, 1])


def stationarity_residual_1d(f, omega, p, t, interval, bound=False):
    """Vector of per-cell optimality residuals (zero at a local optimum):
    the integral over cell j of (f - l_j)^(p-1) (x - t_j) omega.  With
    ``bound``, also the bound on their rounding through the gap
    (``_halves``)."""
    halves = _split_cell_halves(f, omega, p, t, interval, bound)
    if bound:
        halves, gap = halves
        return halves[:, 1] - halves[:, 0], gap
    return halves[:, 1] - halves[:, 0]


def quantile_abscissas(f, omega, p, m):
    """Quantiles of the asymptotically optimal tangency density."""
    a, b = _interval(f)
    xs = np.linspace(a, b, _QUANTILE_GRID)
    x = xs.reshape(-1, 1)
    phi = law_density(f.hessian_det(x), omega(x, f.value(x)), p, 1)
    steps = (phi[1:] + phi[:-1]) / 2.0 * np.diff(xs)
    cum = np.concatenate([[0.0], np.cumsum(steps)])
    if cum[-1] <= 0:
        return a + (np.arange(m) + 0.5) / m * (b - a)
    targets = (np.arange(m) + 0.5) / m * cum[-1]
    return np.interp(targets, cum, xs)


def optimal_tangent_abscissas_1d(f, omega, p, m):
    """Solve the 1-d first-order system for the optimal tangency points."""
    return _solve_1d(f, omega, p, m)[0]


def _solve_1d(f, omega, p, m):
    """The optimal tangency points, and whether the solve met its stop
    test (``_newton``; for m = 1, the scalar minimizer's)."""
    a, b = _interval(f)
    if m == 1:
        # Newton's root need not be the minimum here: for huber (delta =
        # 0.5) on [-1, 1] at p = 0.1 and 0.25 the symmetric root t = 0 has
        # errors 22% and 7% above a tangent on an arm with constant
        # weight, and 17% and 2.3% above with exp_neg_t
        from scipy.optimize import minimize_scalar

        res = minimize_scalar(
            lambda t: exact_1d_piecewise_integral(
                f, tangent_planes(f, [t]), p, omega).value,
            bounds=(a + 1e-12 * (b - a), b - 1e-12 * (b - a)), method="bounded",
            options={"xatol": 1e-14 * (b - a)})
        return np.array([res.x]), bool(res.success)

    t = np.clip(quantile_abscissas(f, omega, p, m),
                a + 1e-12 * (b - a), b - 1e-12 * (b - a))
    return _newton_polish(f, omega, p, t, (a, b))


def _newton_polish(f, omega, p, t, interval):
    """Damped Newton on the residual.  A merely convex f may want a tangent
    at the edge of an affine piece, where the residual jumps or its slope
    is singular, and there Newton stops short: bisection sweeps from the
    start then move every point to a sign change, and Newton resumes with
    the points at such an edge held.  Returns the points and whether the
    last solve met its stop test."""
    held = np.zeros(t.size, dtype=bool)
    start = t
    t, res, ref, met = _newton(f, omega, p, t, held, interval)
    if not f.strictly_convex and np.max(np.abs(res)) > 1e-12 * ref:
        t, held = _bisection_sweeps(f, omega, p, start, interval)
        t, res, ref, met = _newton(f, omega, p, t, held, interval)
    # rounding floors stay below 1e-3 * ref (p = 0.1, m = 2048)
    worst = float(np.max(np.abs(res[~held]), initial=0.0))
    if worst > 1e-2 * ref:
        raise ArithmeticError(
            f"exact_1d: Newton stopped at residual {worst / ref:.2e} of its "
            "scale; the abscissas are not stationary")
    return t, met


def _newton(f, omega, p, t, held, interval):
    """Damped Newton on the residuals of the points not held.

    Each free cell j has its own threshold thr_j: its rounding floor
    (``_residual_floor``: the rounding of the crossings and of the gap
    inside the cell), below which no step can be told from noise, or
    1e-12 of the solve's scale if that is larger.  The scale is the
    largest free cell's integral of (f - l_j)^(p-1) |x - t_j| omega at the
    start.  Progress is measured in one norm, max_j |res_j| / thr_j: the
    solve stops once it is at most 1, every free residual within its
    threshold, and a line search takes the first step that lowers it
    enough.  A line search that finds none ends the solve too.  Returns
    the points, their residuals, the scale and whether the stop test was
    met."""
    halves, gap = _split_cell_halves(f, omega, p, t, interval, bound=True)
    res = halves[:, 1] - halves[:, 0]
    free = ~held
    ref = max(float(np.max(np.sum(halves[free], axis=1), initial=0.0)),
              1e-300)
    a, b = interval
    fixed = np.flatnonzero(held)
    met = False
    for _ in range(_MAX_NEWTON):
        thr = np.maximum(_residual_floor(f, p, t, halves, interval, gap),
                         1e-12 * ref)[free]
        rnorm = float(np.max(np.abs(res[free]) / thr, initial=0.0))
        met = rnorm <= 1.0
        if met:
            break
        try:
            jac = _fd_tridiag_jacobian(f, omega, p, t, interval, res)
            # a held point's row becomes t_j' = t_j
            jac[1, fixed] = 1.0
            jac[0, fixed[fixed < t.size - 1] + 1] = 0.0
            jac[2, fixed[fixed > 0] - 1] = 0.0
            step = solve_banded((1, 1), jac, np.where(held, 0.0, res))
        except (ValueError, np.linalg.LinAlgError):
            break
        if not np.all(np.isfinite(step)):
            break
        lam = 1.0
        for _ in range(25):
            trial = t - lam * step
            if _ordered(trial, a, b):
                try:
                    tres, tgap = stationarity_residual_1d(
                        f, omega, p, trial, interval, bound=True)
                except ValueError:
                    tres = None
                if tres is not None and np.max(np.abs(tres[free]) / thr) <= \
                        (1 - 1e-4 * lam) * rnorm:
                    t, res, gap = trial, tres, tgap
                    break
            lam /= 2.0
        else:
            break
    return t, res, ref, met


def _bisection_sweeps(f, omega, p, t, interval, sweeps=8):
    """Red-black per-point re-solve.  With its neighbours fixed, a point's
    residual is positive next to the left one and negative next to the
    right one, so bisection between them finds a sign change: a root, or
    the edge of an affine piece of f, where the residual jumps.  A point
    there takes that piece's line and is held.  The points of one colour
    share no cell and are bisected together.  Returns the points and the
    mask of those held."""
    a, b = interval
    m = t.size
    t = t.copy()
    held = np.zeros(m, dtype=bool)
    margin, eps = 1e-13 * (b - a), _FD_STEP * (b - a)
    for _ in range(sweeps):
        for colour in (0, 1):
            j = np.arange(colour, m, 2)
            first, last = j == 0, j == m - 1
            tl, tr = t[np.maximum(j - 1, 0)], t[np.minimum(j + 1, m - 1)]
            vl, vr = f.value(tl[:, None]), f.value(tr[:, None])
            gl = f.gradient(tl[:, None])[:, 0]
            gr = f.gradient(tr[:, None])[:, 0]
            lo = np.where(first, a, tl) + margin
            hi = np.where(last, b, tr) - margin
            move = lo < hi
            for _ in range(60):
                s = (lo + hi) / 2.0
                vs, gs = f.value(s[:, None]), f.gradient(s[:, None])[:, 0]
                # a neighbour on the same affine piece is the same line,
                # and the half towards it has no width
                with np.errstate(divide="ignore", invalid="ignore"):
                    left = np.where(first, a, np.where(
                        gl < gs, (vs - vl + tl * gl - s * gs) / (gl - gs), s))
                    right = np.where(last, b, np.where(
                        gs < gr, (vr - vs + s * gs - tr * gr) / (gs - gr), s))
                r = _halves(f, omega, p, s, vs, gs,
                            np.stack([s - left, right - s], axis=1))
                up = r[:, 1] > r[:, 0]
                lo, hi = np.where(up, s, lo), np.where(up, hi, s)
            # a sign change within the Jacobian's difference step of an
            # affine piece is held too: the residual's slope is singular
            # at the piece's edge (p < 2), and Newton's model fails there
            flat = [f.hessian_det(x[:, None]) == 0
                    for x in (lo, hi, lo - eps, hi + eps)]
            t[j[move]] = np.where(flat[1], hi, np.where(
                flat[0], lo, (lo + hi) / 2.0))[move]
            held[j] = move & (flat[2] | flat[3])
    return t, held


def _ordered(t, a, b):
    return bool(t[0] > a and t[-1] < b and np.all(np.diff(t) > 0))


def _fd_tridiag_jacobian(f, omega, p, t, interval, base):
    """Tridiagonal Jacobian of the residual by 3-coloring finite differences;
    returned in solve_banded's (1, 1) layout."""
    m = t.size
    eps = _FD_STEP * (interval[1] - interval[0])
    jac = np.zeros((3, m))
    # solve_banded layout: jac[0, j] = dR_{j-1}/dt_j (superdiagonal),
    # jac[1, j] = dR_j/dt_j, jac[2, j] = dR_{j+1}/dt_j (subdiagonal).
    # Perturbing every third abscissa keeps the affected residuals disjoint,
    # so three residual evaluations give the whole tridiagonal matrix.
    for color in range(3):
        mask = np.zeros(m)
        mask[color::3] = eps
        shifted = stationarity_residual_1d(f, omega, p, t + mask, interval)
        col = (shifted - base) / eps
        first = color or 3      # the first perturbed j > 0
        jac[0, first::3] = col[first - 1:m - 1:3]
        jac[1, color::3] = col[color::3]
        jac[2, color:m - 1:3] = col[color + 1::3]
    return jac


def exact_1d_optimal(f, omega, p, m):
    """Optimal m-tangent envelope in one dimension (see module docstring)."""
    if f.dim != 1:
        raise ValueError("exact_1d strategy requires a one-dimensional function")
    t = optimal_tangent_abscissas_1d(f, omega, p, m)
    env = tangent_planes(f, t[:, None])
    # tangents taken inside the same affine piece of a merely convex f are
    # identical lines; keep one representative of each
    rows = np.column_stack([env.slopes, env.offsets])
    _, keep = np.unique(np.round(rows, 12), axis=0, return_index=True)
    return tangent_planes(f, t[np.sort(keep), None])


# ---------------------------------------------------------------------------
# strategy dispatch


def build_approximation(f, omega, p, m, strategy, seed=0, *, l_pieces=None,
                        restarts=1, max_iterations=200, tol=1e-8,
                        cloud_size=None):
    """Build a circumscribed envelope with at most m tangent pieces."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; pick from {STRATEGIES}")
    if m < 1:
        raise ValueError("need at least one tangent plane")
    if not 0 < p < np.inf:
        raise ValueError(f"p must be positive and finite, got {p!r}")
    n = f.dim

    if strategy == "exact_1d":
        return exact_1d_optimal(f, omega, p, m)

    if strategy == "uniform_grid":
        counts = _lattice_counts(f.domain, m)
        lo, hi = f.domain.bounding_box()
        axes = [lo[k] + (np.arange(counts[k]) + 0.5) / counts[k] * (hi[k] - lo[k])
                for k in range(n)]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        pts = pts[f.domain.contains(pts)]
        if pts.shape[0] == 0:
            pts = f.domain.centroid().reshape(1, -1)
        return tangent_planes(f, pts)

    if strategy == "greedy_insertion":
        rng = np.random.default_rng((seed, 71))
        cloud = f.domain.sample(rng, cloud_size or max(20_000, 200 * m))
        fx = f.value(cloud)
        wx = np.asarray(omega(cloud, fx), dtype=float)
        picks = [f.domain.centroid()]
        slope, offset = _plane(f, picks[0])
        lx = rowdot(cloud, slope) + offset
        gaps = _BucketArgmax(cloud, np.maximum(fx - lx, 0.0) ** p * wx)
        fx, wx, lx = fx[gaps.order], wx[gaps.order], lx[gaps.order]
        # Each bucket keeps a reference plane, the piece active at its box
        # centre; lx >= that plane on every row of the bucket.  A new plane
        # cannot raise lx in the bucket where below_reference holds, with
        # size bounding every term of every plane so far on the cloud.
        centre, half = (gaps.hi + gaps.lo) / 2.0, (gaps.hi - gaps.lo) / 2.0
        reach = np.abs(cloud).max(axis=0)
        size = reach @ np.abs(slope) + abs(offset)
        ref_slope = np.tile(slope, (centre.shape[0], 1))
        ref_at_centre = rowdot(centre, slope) + offset

        def rescore(rows):
            vals = np.maximum(lx[rows], rowdot(gaps.points[rows], slope)
                              + offset)
            lx[rows] = vals
            return np.maximum(fx[rows] - vals, 0.0) ** p * wx[rows]

        for _ in range(m - 1):
            picks.append(cloud[gaps.argmax()])
            slope, offset = _plane(f, picks[-1])
            size = max(size, reach @ np.abs(slope) + abs(offset))
            at_centre = rowdot(centre, slope) + offset
            hit = np.flatnonzero(~below_reference(
                slope, at_centre, ref_slope, ref_at_centre, half, size))
            gaps.update(hit, rescore)
            new = hit[at_centre[hit] > ref_at_centre[hit]]
            ref_slope[new] = slope
            ref_at_centre[new] = at_centre[new]
        # each row of a batch is its pick's plane, bit for bit
        return tangent_planes(f, np.vstack(picks))

    if strategy == "global_density":
        centroid = f.domain.centroid()
        metric = _safe_form(f.hessian(centroid)[0], n)
        dens = _law_density(f, omega, p, quantizer_weight)
        cfg = QuantizerConfig(m=m, p=p, metric=metric, seed=seed,
                              restarts=restarts, max_iterations=max_iterations,
                              tol=tol, cloud_size=cloud_size)
        ps = quantize(f.domain, dens, cfg)
        return tangent_planes(f, ps.points)

    # paper_partition
    pieces = l_pieces or max(1, int(round(m ** (1.0 / (n + 1)))))
    part = partition_domain(f, pieces)
    while len(part.cells) > m and pieces > 1:
        pieces -= 1
        part = partition_domain(f, pieces)
    alloc = allocate_budget(part, f, omega, p, m)
    nb = law_exponents(p, n)[1]

    def dens(x):
        # the metric is frozen per cell, so only the weight varies
        w = np.asarray(omega(x, f.value(x)), dtype=float) ** nb
        return f.domain.mask(x, w)

    # every cell's quantizer in one call, which runs them in lockstep
    problems = [(Domain.box(cell[0], cell[1]), dens,
                 QuantizerConfig(m=int(d), p=p, metric=part.anchor_forms[i],
                                 seed=(seed * 1009 + i), restarts=restarts,
                                 max_iterations=max_iterations, tol=tol,
                                 cloud_size=cloud_size or max(2000, 200 * int(d))))
                for i, (cell, d) in enumerate(zip(part.cells, alloc.budgets))
                if d > 0]
    pts = np.vstack([ps.points for ps in quantize_many(problems)])
    return tangent_planes(f, pts[f.domain.contains(pts)])


def _plane(f, x):
    """Slope and offset of f's tangent plane at the point x."""
    env = tangent_planes(f, x)
    return env.slopes[0], env.offsets[0]


def _law_density(f, omega, p, formula=law_density):
    def dens(x):
        vals = formula(f.hessian_det(x), omega(x, f.value(x)), p, f.dim)
        return f.domain.mask(x, vals)

    return dens


def _lattice_counts(domain, m):
    lo, hi = domain.bounding_box()
    sides = hi - lo
    n = sides.size
    base = max(1, int(np.floor((m / np.prod(sides / sides.max())) ** (1.0 / n))))
    counts = np.maximum(1, np.floor(base * sides / sides.max()).astype(int))
    # greedily grow axes while the lattice still fits in the budget
    improved = True
    while improved:
        improved = False
        for k in np.argsort(-sides):
            trial = counts.copy()
            trial[k] += 1
            if np.prod(trial) <= m:
                counts = trial
                improved = True
    assert np.prod(counts) <= m
    return counts
