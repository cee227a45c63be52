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
    domain centroid and sampling density (det D^2 f)^(p/(n+2p)) *
    omega^(n/(n+2p)).

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
    Initialized at quantiles of the asymptotically optimal density
    (f'')^(p/(1+2p)) * omega^(1/(1+2p)) (for p = 1 and small m a dynamic
    program over a breakpoint grid is used instead), then polished by a
    damped Newton method with a tridiagonal finite-difference Jacobian; a
    monotone per-cell bisection sweep is the fallback when Newton stalls.
    For a quadratic with constant weight the quantile initialization is
    already stationary (uniform midpoints) and the result is exact to
    machine precision.
"""

import logging
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import solve_banded

from .convex_core import (DomainError, Domain, PiecewiseAffineMax,
                          QuadraticForm, MetricError, below_reference,
                          tangent_plane)
from .functionals import law_density, law_exponents
from .quadrature import tensor_nodes
from .quantizer import QuantizerConfig, _BucketArgmax, interval_dp, quantize

log = logging.getLogger(__name__)

STRATEGIES = ("paper_partition", "global_density", "greedy_insertion",
              "uniform_grid", "exact_1d")


@dataclass
class Partition:
    """Axis-aligned pieces with frozen anchor data."""

    cells: list              # list of (lower, upper) arrays
    anchors: np.ndarray      # (l, n)
    anchor_forms: list       # QuadraticForm per piece
    anchor_weights: np.ndarray
    volumes: np.ndarray
    clipped: bool = False    # True when cells were clipped by a non-box domain


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


def partition_domain(f, omega, p, l_pieces):
    """Grid partition of the domain with per-piece frozen anchor data.

    The longest axis gets ``l_pieces`` cells; the other axes get counts
    scaled by their relative side length (aspect-balanced, at least 1).
    Non-box domains are partitioned through their bounding box and the
    cells are flagged as clipped.
    """
    if l_pieces < 1:
        raise ValueError("need at least one piece")
    lo, hi = f.domain.bounding_box()
    sides = hi - lo
    counts = np.maximum(1, np.round(l_pieces * sides / sides.max()).astype(int))
    counts[np.argmax(sides)] = l_pieces
    edges = [np.linspace(lo[k], hi[k], counts[k] + 1) for k in range(f.dim)]

    cells, anchors = [], []
    for idx in np.ndindex(*counts):
        cl = np.array([edges[k][idx[k]] for k in range(f.dim)])
        cu = np.array([edges[k][idx[k] + 1] for k in range(f.dim)])
        center = (cl + cu) / 2.0
        if f.domain.kind != "box":
            # keep cells that meet the domain; anchor at a contained probe
            probes = cl + _probe_lattice(f.dim) * (cu - cl)
            inside = f.domain.contains(probes)
            if not inside.any():
                continue
            center = probes[inside].mean(axis=0)
        cells.append((cl, cu))
        anchors.append(center)

    anchors = np.asarray(anchors)
    forms = [_safe_form(f.hessian(a)[0], f.dim) for a in anchors]
    weights = np.array([float(omega(a, f.value(a))[0]) for a in anchors])
    volumes = np.array([float(np.prod(cu - cl)) for cl, cu in cells])
    clipped = f.domain.kind != "box"
    if clipped:
        log.debug("partition cells clipped by %r", f.domain)
    return Partition(cells=cells, anchors=anchors, anchor_forms=forms,
                     anchor_weights=weights, volumes=volumes, clipped=clipped)


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

_GAUSS_ORDER = 24
_GX, _GW = leggauss(_GAUSS_ORDER)


def _interval(f):
    lo, hi = f.domain.bounding_box()
    if f.dim != 1:
        raise ValueError("this construction is one-dimensional only")
    return float(lo[0]), float(hi[0])


def tangent_crossings_1d(f, t):
    """Crossing abscissas of consecutive tangents at sorted points t."""
    t = np.asarray(t, dtype=float).reshape(-1)
    return _crossings(t, f.value(t.reshape(-1, 1)),
                      f.gradient(t.reshape(-1, 1))[:, 0])


def _crossings(t, v, g):
    """Crossings of the tangents with values v and slopes g at sorted t."""
    num = v[1:] - v[:-1] + t[:-1] * g[:-1] - t[1:] * g[1:]
    den = g[:-1] - g[1:]
    if np.any(den >= 0):
        raise ValueError("tangent slopes must strictly increase")
    return num / den


def _cell_gauss(edges):
    """Gauss nodes/weights per cell: arrays of shape (cells, order)."""
    h = (edges[1:] - edges[:-1]) / 2.0
    mid = (edges[1:] + edges[:-1]) / 2.0
    nodes = mid[:, None] + h[:, None] * _GX[None, :]
    weights = h[:, None] * _GW[None, :]
    return nodes, weights


def _cell_terms(f, omega, t, interval):
    """Per-cell Gauss terms of the tangents at sorted t on the interval.

    Returns (gap, dx, w, wts), each of shape (cells, order): the clipped
    gap f(x) - tangent_j(x) on cell j's nodes, x - t_j, the weight there
    and the Gauss weights.  The tangents' values and slopes are evaluated
    once and serve both the cell edges and the gaps.
    """
    a, b = interval
    ft = f.value(t.reshape(-1, 1))
    gt = f.gradient(t.reshape(-1, 1))[:, 0]
    inner = _crossings(t, ft, gt) if len(t) > 1 else np.empty(0)
    nodes, wts = _cell_gauss(np.concatenate([[a], inner, [b]]))
    fx = f.value(nodes.reshape(-1, 1)).reshape(nodes.shape)
    dx = nodes - t[:, None]
    gap = np.maximum(fx - ft[:, None] - gt[:, None] * dx, 0.0)
    w = np.asarray(omega(nodes.reshape(-1, 1), fx.reshape(-1)),
                   dtype=float).reshape(nodes.shape)
    return gap, dx, w, wts


def stationarity_residual_1d(f, omega, p, t, interval):
    """Vector of per-cell optimality residuals (zero at a local optimum)."""
    gap, dx, w, wts = _cell_terms(f, omega, t, interval)
    if p == 1.0:
        integrand = dx * w
    else:
        safe = np.where(gap > 0, gap, 1.0)
        integrand = np.where(gap > 0, safe ** (p - 1.0) * dx * w, 0.0)
    return np.sum(integrand * wts, axis=1)


def envelope_error_1d(f, omega, p, t, interval):
    """Objective: integral of (f - envelope)^p omega with the given abscissas."""
    gap, _, w, wts = _cell_terms(f, omega, t, interval)
    return float(np.sum(gap ** p * w * wts))


def quantile_abscissas(f, omega, p, m, grid=4097):
    """Quantiles of the asymptotically optimal tangency density."""
    a, b = _interval(f)
    xs = np.linspace(a, b, grid)
    x = xs.reshape(-1, 1)
    phi = law_density(f.hessian_det(x), omega(x, f.value(x)), p, 1)
    steps = (phi[1:] + phi[:-1]) / 2.0 * np.diff(xs)
    cum = np.concatenate([[0.0], np.cumsum(steps)])
    if cum[-1] <= 0:
        return a + (np.arange(m) + 0.5) / m * (b - a)
    targets = (np.arange(m) + 0.5) / m * cum[-1]
    return np.interp(targets, cum, xs)


def dp_1d_abscissas(f, omega, m, grid_size=257):
    """Dynamic program over a breakpoint grid (p = 1).

    For p = 1 the best tangent inside a fixed cell touches the cell's
    omega-centroid, and the cell cost has the closed form
    int f w - f(centroid) int w - f'(centroid) (int x w - centroid int w),
    so prefix moments make every cell cost O(1) and the DP is exact on the
    grid.  Used to initialize (and, in tests, to corroborate) the Newton
    solve at small m.
    """
    a, b = _interval(f)
    es = np.linspace(a, b, grid_size)
    nodes, wts = _cell_gauss(es)
    fx = f.value(nodes.reshape(-1, 1)).reshape(nodes.shape)
    w = np.asarray(omega(nodes.reshape(-1, 1), fx.reshape(-1)),
                   dtype=float).reshape(nodes.shape)
    seg_w = np.concatenate([[0.0], np.cumsum(np.sum(w * wts, axis=1))])
    seg_xw = np.concatenate([[0.0], np.cumsum(np.sum(nodes * w * wts, axis=1))])
    seg_fw = np.concatenate([[0.0], np.cumsum(np.sum(fx * w * wts, axis=1))])

    npts = grid_size
    ww = seg_w[None, :] - seg_w[:, None]           # (i, k) cell weight masses
    xw = seg_xw[None, :] - seg_xw[:, None]
    fw = seg_fw[None, :] - seg_fw[:, None]
    mid = (es[:, None] + es[None, :]) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        centroids = np.where(ww > 0, xw / np.where(ww > 0, ww, 1.0), mid.T)
    centroids = np.clip(centroids, es[:, None], es[None, :])
    fv = f.value(centroids.reshape(-1, 1)).reshape(npts, npts)
    gv = f.gradient(centroids.reshape(-1, 1))[:, 0].reshape(npts, npts)
    cmat = np.maximum(fw - fv * ww - gv * (xw - centroids * ww), 0.0)
    cmat[ww <= 0] = 0.0
    cmat[np.tril_indices(npts)] = np.inf           # only i < k is a valid cell
    chain = interval_dp(cmat, m)
    return centroids[chain[:-1], chain[1:]]


def optimal_tangent_abscissas_1d(f, omega, p, m, max_newton=60):
    """Solve the 1-d first-order system for the optimal tangency points."""
    a, b = _interval(f)
    if m == 1:
        from scipy.optimize import minimize_scalar

        res = minimize_scalar(
            lambda t: envelope_error_1d(f, omega, p, np.array([t]), (a, b)),
            bounds=(a + 1e-12 * (b - a), b - 1e-12 * (b - a)), method="bounded",
            options={"xatol": 1e-14 * (b - a)})
        return np.array([res.x])

    if p == 1.0 and m <= 24:
        t = dp_1d_abscissas(f, omega, m)
    else:
        t = quantile_abscissas(f, omega, p, m)
    t = np.clip(t, a + 1e-12 * (b - a), b - 1e-12 * (b - a))
    t = _newton_polish(f, omega, p, t, (a, b), max_newton)
    return t


def _residual_scale(f, omega, p, t, interval):
    """Positive reference magnitude for the residual components."""
    gap, dx, w, wts = _cell_terms(f, omega, t, interval)
    safe = np.where(gap > 0, gap, 1.0)
    mag = np.where(gap > 0, safe ** (p - 1.0) * np.abs(dx) * w, 0.0)
    ref = float(np.max(np.sum(mag * np.abs(wts), axis=1)))
    return max(ref, 1e-300)


def _newton_polish(f, omega, p, t, interval, max_newton):
    a, b = interval
    if p < 1.0:
        # the residual integrand is singular at the tangency point, so the
        # Newton model is poor; the monotone per-cell solve is robust
        return _bisection_sweeps(f, omega, p, t, interval, sweeps=200)
    res = stationarity_residual_1d(f, omega, p, t, interval)
    ref = _residual_scale(f, omega, p, t, interval)
    tol = 1e-12 * ref
    rescued = False
    for _ in range(max_newton):
        rnorm = float(np.max(np.abs(res)))
        if rnorm <= tol:
            break
        try:
            jac = _fd_tridiag_jacobian(f, omega, p, t, interval, res)
            step = solve_banded((1, 1), jac, res)
        except (ValueError, np.linalg.LinAlgError):
            step = None
        ok = False
        if step is not None and np.all(np.isfinite(step)):
            lam = 1.0
            for _ in range(25):
                trial = t - lam * step
                if _ordered(trial, a, b):
                    try:
                        tres = stationarity_residual_1d(f, omega, p, trial,
                                                        interval)
                    except ValueError:
                        tres = None
                    if tres is not None and \
                            np.max(np.abs(tres)) <= (1 - 1e-4 * lam) * rnorm:
                        t, res, ok = trial, tres, True
                        break
                lam /= 2.0
        if ok:
            continue
        # a stall with a residual this small is the floating-point floor,
        # not a basin problem; accept the point
        if rnorm <= 1e-6 * ref or rescued:
            break
        rescued = True
        t = _bisection_sweeps(f, omega, p, t, interval, sweeps=4)
        res = stationarity_residual_1d(f, omega, p, t, interval)
    return t


def _ordered(t, a, b):
    return bool(t[0] > a and t[-1] < b and np.all(np.diff(t) > 0))


def _fd_tridiag_jacobian(f, omega, p, t, interval, base):
    """Tridiagonal Jacobian of the residual by 3-coloring finite differences;
    returned in solve_banded's (1, 1) layout."""
    m = t.size
    eps = 1e-7 * (interval[1] - interval[0])
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


def _local_residual(f, omega, p, tau, left, right, interval):
    """Residual of one abscissa with its neighbors frozen.

    ``left``/``right`` are the neighboring abscissas (None at the ends).
    Only the single cell around tau is integrated, so a sweep over all
    abscissas costs O(m) function batches rather than O(m^2).
    """
    a, b = interval
    v_t = f.value_at(np.array([tau]))
    g_t = float(f.gradient(np.array([[tau]]))[0, 0])
    lo, hi = a, b
    if left is not None:
        v_l = f.value_at(np.array([left]))
        g_l = float(f.gradient(np.array([[left]]))[0, 0])
        den = g_l - g_t
        if den >= 0:
            raise ValueError("tangent slopes must strictly increase")
        lo = (v_t - v_l + left * g_l - tau * g_t) / den
    if right is not None:
        v_r = f.value_at(np.array([right]))
        g_r = float(f.gradient(np.array([[right]]))[0, 0])
        den = g_t - g_r
        if den >= 0:
            raise ValueError("tangent slopes must strictly increase")
        hi = (v_r - v_t + tau * g_t - right * g_r) / den
    if hi <= lo:
        return 0.0
    h = (hi - lo) / 2.0
    nodes = (hi + lo) / 2.0 + h * _GX
    wts = h * _GW
    fx = f.value(nodes.reshape(-1, 1))
    gap = np.maximum(fx - v_t - g_t * (nodes - tau), 0.0)
    w = np.asarray(omega(nodes.reshape(-1, 1), fx), dtype=float)
    if p == 1.0:
        integrand = (nodes - tau) * w
    else:
        safe = np.where(gap > 0, gap, 1.0)
        integrand = np.where(gap > 0, safe ** (p - 1.0) * (nodes - tau) * w, 0.0)
    return float(np.dot(integrand, wts))


def _bisection_sweeps(f, omega, p, t, interval, sweeps=200):
    """Cyclic per-point re-solve: with its neighbors fixed, each residual
    component is strictly decreasing in its own abscissa, so bisection on
    the bracket between the neighboring abscissas is safe.  Globally
    convergent but linear; used as the Newton rescue and for p < 1."""
    a, b = interval
    t = t.copy()
    margin = 1e-13 * (b - a)
    for _ in range(sweeps):
        moved = 0.0
        for j in range(t.size):
            lo = a + margin if j == 0 else t[j - 1] + margin
            hi = b - margin if j == t.size - 1 else t[j + 1] - margin
            if hi <= lo:
                continue
            left = None if j == 0 else t[j - 1]
            right = None if j == t.size - 1 else t[j + 1]
            tj = _cell_bisect(f, omega, p, left, right, lo, hi, interval)
            moved = max(moved, abs(tj - t[j]))
            t[j] = tj
        if moved < 1e-14 * (b - a):
            break
    return t


def _cell_bisect(f, omega, p, left, right, lo, hi, interval, iters=60):
    def rj(val):
        try:
            return _local_residual(f, omega, p, val, left, right, interval)
        except ValueError:
            # same flat piece as a neighbor: push back toward the interior
            return 0.0

    rlo, rhi = rj(lo), rj(hi)
    if rlo <= 0:
        return lo
    if rhi >= 0:
        return hi
    for _ in range(iters):
        mid = (lo + hi) / 2.0
        if rj(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def exact_1d_optimal(f, omega, p, m):
    """Optimal m-tangent envelope in one dimension (see module docstring)."""
    if f.dim != 1:
        raise ValueError("exact_1d strategy requires a one-dimensional function")
    t = optimal_tangent_abscissas_1d(f, omega, p, m)
    env = _envelope_at(f, t.reshape(-1, 1))
    # tangents taken inside the same affine piece of a merely convex f are
    # identical lines; keep one representative of each
    rows = np.column_stack([env.slopes, env.offsets])
    _, keep = np.unique(np.round(rows, 12), axis=0, return_index=True)
    if keep.size < len(t):
        env = PiecewiseAffineMax(env.slopes[np.sort(keep)],
                                 env.offsets[np.sort(keep)])
    return env


def _envelope_at(f, points):
    points = np.atleast_2d(points)
    if f.dim == 1:
        # tangent_plane's arithmetic in three batched calls: g * t rounds
        # exactly as the one-term dot product g @ t does
        if not np.all(f.domain.contains(points)):
            raise DomainError("tangency point lies outside the domain")
        g = f.gradient(points)
        return PiecewiseAffineMax(g, f.value(points) - g[:, 0] * points[:, 0])
    # in n >= 2 a batched f.value rounds x @ b differently from one row
    pieces = [tangent_plane(f, pt) for pt in points]
    return PiecewiseAffineMax.from_pieces(pieces)


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
        return _envelope_at(f, pts)

    if strategy == "greedy_insertion":
        rng = np.random.default_rng((seed, 71))
        cloud = f.domain.sample(rng, cloud_size or max(20_000, 200 * m))
        fx = f.value(cloud)
        wx = np.asarray(omega(cloud, fx), dtype=float)
        psi = tangent_plane(f, f.domain.centroid())
        planes = [psi]
        lx = psi(cloud)
        gaps = _BucketArgmax(cloud, np.maximum(fx - lx, 0.0) ** p * wx)
        fx, wx, lx = fx[gaps.order], wx[gaps.order], lx[gaps.order]
        # Each bucket keeps a reference plane, the piece active at its box
        # centre; lx >= that plane on every row of the bucket.  A new plane
        # psi cannot raise lx in the bucket where below_reference holds,
        # with size bounding every term of every plane so far on the cloud.
        centre, half = (gaps.hi + gaps.lo) / 2.0, (gaps.hi - gaps.lo) / 2.0
        reach = np.abs(cloud).max(axis=0)
        size = reach @ np.abs(psi.slope) + abs(psi.offset)
        ref_slope = np.tile(psi.slope, (centre.shape[0], 1))
        ref_at_centre = centre @ psi.slope + psi.offset

        def rescore(rows):
            # rows of hit buckets get the full pass's arithmetic; a one-row
            # product goes through another BLAS kernel and rounds
            # differently, so a lone row is evaluated as two copies
            pts = gaps.points[rows]
            vals = psi(pts if rows.size > 1 else np.repeat(pts, 2, axis=0))
            vals = np.maximum(lx[rows], vals[:rows.size])
            lx[rows] = vals
            return np.maximum(fx[rows] - vals, 0.0) ** p * wx[rows]

        for _ in range(m - 1):
            psi = tangent_plane(f, cloud[gaps.argmax()])
            planes.append(psi)
            size = max(size, reach @ np.abs(psi.slope) + abs(psi.offset))
            at_centre = centre @ psi.slope + psi.offset
            hit = np.flatnonzero(~below_reference(
                psi.slope, at_centre, ref_slope, ref_at_centre, half, size))
            gaps.update(hit, rescore)
            new = hit[at_centre[hit] > ref_at_centre[hit]]
            ref_slope[new] = psi.slope
            ref_at_centre[new] = at_centre[new]
        # _envelope_at would build these same planes again
        return PiecewiseAffineMax.from_pieces(planes)

    if strategy == "global_density":
        centroid = f.domain.centroid()
        metric = _safe_form(f.hessian(centroid)[0], n)
        dens = _law_density(f, omega, p)
        cfg = QuantizerConfig(m=m, p=p, metric=metric, seed=seed,
                              restarts=restarts, max_iterations=max_iterations,
                              tol=tol, cloud_size=cloud_size)
        ps = quantize(f.domain, dens, cfg)
        return _envelope_at(f, ps.points)

    # paper_partition
    pieces = l_pieces or max(1, int(round(m ** (1.0 / (n + 1)))))
    part = partition_domain(f, omega, p, pieces)
    while len(part.cells) > m and pieces > 1:
        pieces -= 1
        part = partition_domain(f, omega, p, pieces)
    alloc = allocate_budget(part, f, omega, p, m)
    all_points = []
    nb = law_exponents(p, n)[1]
    for i, (cell, d) in enumerate(zip(part.cells, alloc.budgets)):
        if d == 0:
            continue
        region = Domain.box(cell[0], cell[1])

        def dens(x):
            # the metric is frozen per cell, so only the weight varies
            w = np.asarray(omega(x, f.value(x)), dtype=float) ** nb
            return f.domain.mask(x, w)

        cfg = QuantizerConfig(m=int(d), p=p, metric=part.anchor_forms[i],
                              seed=(seed * 1009 + i), restarts=restarts,
                              max_iterations=max_iterations, tol=tol,
                              cloud_size=cloud_size or max(2000, 200 * int(d)))
        pts = quantize(region, dens, cfg).points
        all_points.append(pts[f.domain.contains(pts)])
    stacked = np.vstack(all_points)
    return _envelope_at(f, stacked)


def _law_density(f, omega, p):
    def dens(x):
        vals = law_density(f.hessian_det(x), omega(x, f.value(x)), p, f.dim)
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
