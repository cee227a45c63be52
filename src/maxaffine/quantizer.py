"""Weighted point quantization under a quadratic-form metric.

quantize() minimizes, over point sets S of size m,

    integral over the region of  min_{s in S} q(x - s)^p  rho(x) dx

with q a fixed SPD quadratic form.  The integral is represented by a fixed
Monte Carlo cloud drawn from rho once per restart; Lloyd iterations then
alternate nearest-point assignment (in the whitened metric, where q is the
squared Euclidean norm) with per-cell minimization.  For p = 1 the cell
minimizer is the mean; for p = 2 it is found by damped Newton steps on the
quartic cell objective, assembled from cell moments so no extra passes
over the cloud are needed.  Other exponents run a damped Newton per cell
on the cell objective, convex for p >= 1/2, whose minimizer is the
generalized centroid (Du, Faber and Gunzburger, SIAM Review 1999); each
cell takes its own step, with its own line search, and stops once its
predicted decrease is below 1e-15 of its objective, so a call costs about
three passes for the cell sums and two trial evaluations.  The empirical
objective is monotone across iterations by construction and this is
asserted.

Assignment reuses distance bounds across iterations (Hamerly, "Making
k-means even faster", SDM 2010): each cloud point keeps its label, its
distance to its own center and a lower bound on its distance to every
other center.  Hamerly lowers every bound by the largest center shift
smax; here a point in cell a is lowered only by the largest shift among
the centers that were within reach[a] + smax of c_a, where reach[a] is the
largest distance plus bound over the points of cell a.  This is exact: a
center that moves by s_j and ends up nearer than the bound b to a point
at distance d from c_a was within b + s_j of that point, hence within
d + b + s_j <= reach[a] + s_j of c_a, before the move; every center
outside that radius stays at or above b.  A center that moved further
than every cell's reach, as an empty-cell re-seed does, is counted
against every cell instead, so the radius needs smax only up to the
largest reach and the pair search never grows with the jump.  Late in a
run most centers barely move, so most bounds barely drop.  The
neighbourhoods come from one kd-tree pair search over the previous
centers, so the extra state is O(m).  Each iteration then recomputes the
exact distance to the point's own center; only points whose distance is
not below the bound by a relative slack of ``_SLACK`` are queried again.
The slack, also added to the neighbourhood radius, exceeds the rounding
of the distance, bound and radius arithmetic, so every skipped point has
a unique nearest center and every tie goes back to the kd-tree: labels
and distances are bit-identical to a full query.
On a line there are no bounds: the cloud is sorted once per restart, and
each call cuts it at the sorted midpoints, with the labels of a
``searchsorted`` of the unsorted cloud.

Farthest-point seeding keeps each row's squared distance to the nearest
pick in ``_BucketArgmax``, a running argmax over a grid of buckets of
about 64 rows (the ``greedy_insertion`` strategy uses the same engine).
A new pick can lower only distances that exceed the distance to it, so a
bucket is skipped when the squared distance from the pick to the tight
box of its rows exceeds the bucket's largest distance by the factor
1 + ``_SLACK``.  The other buckets are rescored with the full pass's
arithmetic, and ties go to the smallest cloud index, so the picks are
those of ``np.argmax`` over a full pass at every step.

A weighted cloud is drawn by rejection from the bounding box, in batches
of ``4 * count`` proposals (at least 4,096).  The stream order is that of
one draw per batch: all proposals of a batch, then its keep draws (see
``_draw_cloud``).  The draw, the first score and bucket keys of seeding,
and the assignment's kd-tree queries and own-center distances go
``quadrature._ROW_BLOCK`` rows at a time, so no temporary but the cloud
and its per-point state grows with the cloud.

Everything is deterministic for a fixed seed; restarts use independent,
reproducible substreams.
"""

import copy
import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .convex_core import (_SLACK, DomainError, MetricError, QuadraticForm,
                          rowdot)
from .quadrature import _ROW_BLOCK, ErrorReport, evaluate_rows, integrate

log = logging.getLogger(__name__)


@dataclass
class QuantizerConfig:
    m: int
    p: float = 1.0
    metric: QuadraticForm | None = None  # None = identity
    max_iterations: int = 200
    tol: float = 1e-8
    restarts: int = 1
    seed: int = 0
    cloud_size: int | None = None  # None = max(20000, 200 m)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("need at least one point")
        if self.p <= 0:
            raise ValueError("exponent p must be positive")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass
class PointSet:
    points: np.ndarray
    objective: float
    iterations_used: int
    converged: bool
    objective_history: list = field(default_factory=list, repr=False)


def whiten(q):
    """Return W = L^t with q(y) = |W y|^2, from the Cholesky factor of q."""
    if not isinstance(q, QuadraticForm):
        q = QuadraticForm.from_matrix(q)
    return q.factor.T.copy()


def _draw_cloud(region, density, count, rng):
    """Cloud distributed as rho plus the exact/estimated total mass of rho.

    density=None means uniform on the region; then the mass is the exact
    region volume (for boxes/balls) so the objective has no normalization
    noise.  Otherwise rejection sampling against the bounding box is used
    and the mass is estimated from the acceptance rate.

    The stream order is that of one draw per batch: all proposals of a
    batch, then one keep draw per proposal.  The batch is worked through
    ``_ROW_BLOCK`` rows at a time all the same: the proposals come from
    ``rng``, and the keep draws from a copy of its bit generator (a PCG64,
    as ``default_rng`` makes) advanced past the batch's proposals.  A
    batch that is kept hands the copy's state to ``rng``; a batch that
    restarts the draw leaves ``rng`` after its proposals, where the one
    draw per batch, which took no keep draws then, left it.
    """
    lo, hi = region.bounding_box()
    box_vol = float(np.prod(hi - lo))
    if density is None:
        pts = region.sample(rng, count)
        try:
            return pts, region.volume()
        except DomainError:  # no closed form (polytopes)
            return pts, None

    # envelope constant from a probe lattice, with headroom
    probe = lo + rng.random((4096, region.dim)) * (hi - lo)
    pvals = np.asarray(density(probe), dtype=float)
    if np.any(pvals < 0):
        raise ValueError("density must be nonnegative")
    bound = float(pvals.max())
    if bound <= 0:
        raise ValueError("density is zero over the probe sample; region carries no mass")
    bound *= 1.5

    pts = np.empty((count, region.dim))
    got = proposed = accepted = 0
    while got < count:
        rows = max(4 * count, 4096)
        keeps = copy.deepcopy(rng)
        keeps.bit_generator.advance(rows * region.dim)
        vmax, kept = 0.0, 0
        for start in range(0, rows, _ROW_BLOCK):
            block = lo + rng.random(
                (min(_ROW_BLOCK, rows - start), region.dim)) * (hi - lo)
            vals = region.mask(block, np.asarray(density(block), dtype=float))
            # np.maximum keeps a NaN, as the whole batch's max does
            vmax = np.maximum(vmax, vals.max())
            keep = keeps.random(len(block)) * bound < vals
            kept += int(keep.sum())
            sel = block[keep]
            take = min(count - got, sel.shape[0])
            pts[got:got + take] = sel[:take]
            got += take
        if vmax > bound:  # envelope was too low; restart with more headroom
            bound = 1.5 * vmax
            got = proposed = accepted = 0
            continue
        rng.bit_generator.state = keeps.bit_generator.state
        proposed += rows
        accepted += kept
        if got < count and proposed > 1000 * count:
            raise ValueError("density appears to be (almost) everywhere zero")
    mass = box_vol * bound * accepted / proposed
    return pts, mass


class _BucketArgmax:
    """Running ``np.argmax`` of a per-row score that changes near each pick.

    The rows are sorted once, stably, into a grid of buckets over their
    bounding box, about 64 rows to a bucket (a flat axis gets one slab),
    so each bucket keeps its rows in cloud order.  Per bucket it keeps the
    tight box of its rows (``lo``, ``hi``), its largest score (``best``)
    and the cloud index of the first row holding it (``first``).  The pick
    is the largest bucket maximum, ties going to the smallest cloud index:
    exactly ``np.argmax`` over the whole score.  The caller rescores only
    the buckets its own exact skip test cannot rule out, with the same
    arithmetic as a full pass, and those buckets' maxima are refreshed.
    ``points`` and ``score`` hold the rows in bucket order and ``order``
    maps that order back to the cloud.
    """

    def __init__(self, points, score):
        count, dim = points.shape
        per_axis = max(1, int(np.floor((count / 64) ** (1.0 / dim))))
        lo, hi = points.min(axis=0), points.max(axis=0)

        def keys(rows):
            cell = np.zeros(rows.shape[0], dtype=np.intp)
            for k in range(dim):
                cell *= per_axis
                if hi[k] > lo[k]:
                    step = per_axis / (hi[k] - lo[k])
                    cell += np.minimum(((rows[:, k] - lo[k]) * step)
                                       .astype(np.intp), per_axis - 1)
            return cell

        cell = evaluate_rows(keys, lambda block: points[block], count,
                             dtype=np.intp)
        self.order = np.argsort(cell, kind="stable")
        sizes = np.bincount(cell)
        del cell
        self.sizes = sizes[sizes > 0]
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.points = points[self.order]
        self.lo = np.minimum.reduceat(self.points, self.starts)
        self.hi = np.maximum.reduceat(self.points, self.starts)
        self.score = score[self.order]
        self.best = np.empty(self.sizes.size)
        self.first = np.empty(self.sizes.size, dtype=np.intp)
        # the first refresh goes about _ROW_BLOCK rows at a time
        cuts = np.searchsorted(self.starts, np.arange(0, count, _ROW_BLOCK))
        for hit in np.split(np.arange(self.sizes.size), cuts[1:]):
            self.update(hit)

    def argmax(self):
        """Cloud index of the first row holding the largest score."""
        return int(self.first[self.best == self.best.max()].min())

    def update(self, hit, rescore=None):
        """Rescore every row of the buckets ``hit``; refresh their maxima.

        ``rescore(rows)`` gets the rows' positions in bucket order, whole
        buckets at a time, and returns their new scores.
        """
        sizes = self.sizes[hit]
        if not sizes.size:
            return
        ends = np.cumsum(sizes)
        seg = ends - sizes
        rows = np.arange(ends[-1]) + np.repeat(self.starts[hit] - seg, sizes)
        if rescore is not None:
            self.score[rows] = rescore(rows)
        vals = self.score[rows]
        top = np.maximum.reduceat(vals, seg)
        at = np.where(vals == np.repeat(top, sizes), np.arange(rows.size),
                      rows.size)
        self.best[hit] = top
        self.first[hit] = self.order[rows[np.minimum.reduceat(at, seg)]]


def _fps_select(cloud_w, m, rng):
    """Greedy farthest-point selection of m rows of the whitened cloud.

    A new pick can only lower a row's running distance if the row is
    nearer to it, so a bucket whose box lies further from the pick than
    the bucket's largest running distance (by the relative slack
    ``_SLACK``) keeps all of its distances; the picks equal those of the
    full pass.
    """
    chosen = np.empty(m, dtype=int)
    chosen[0] = rng.integers(cloud_w.shape[0])
    runs = _BucketArgmax(cloud_w, evaluate_rows(
        lambda diff: np.einsum("ij,ij->i", diff, diff),
        lambda block: cloud_w[block] - cloud_w[chosen[0]], cloud_w.shape[0]))

    def rescore(rows):
        diff = runs.points[rows] - center
        return np.minimum(runs.score[rows], np.einsum("ij,ij->i", diff, diff))

    for k in range(1, m):
        chosen[k] = runs.argmax()
        center = cloud_w[chosen[k]]
        gap = np.maximum(runs.lo - center, center - runs.hi)
        np.maximum(gap, 0.0, out=gap)
        near = np.einsum("ij,ij->i", gap, gap) <= runs.best * (1.0 + _SLACK)
        runs.update(np.flatnonzero(near), rescore)
    return cloud_w[chosen].copy()


def _cell_stats_p2(cloud_w, idx, m, dim):
    """Moments per cell needed for the quartic (p=2) cell objective."""
    ones = np.ones(cloud_w.shape[0])
    r2 = np.einsum("ij,ij->i", cloud_w, cloud_w)
    count = np.bincount(idx, weights=ones, minlength=m)
    s1 = np.stack([np.bincount(idx, weights=cloud_w[:, k], minlength=m)
                   for k in range(dim)], axis=1)
    s2 = np.empty((m, dim, dim))
    for a in range(dim):
        for b in range(a, dim):
            mom = np.bincount(idx, weights=cloud_w[:, a] * cloud_w[:, b], minlength=m)
            s2[:, a, b] = s2[:, b, a] = mom
    s3 = np.stack([np.bincount(idx, weights=r2 * cloud_w[:, k], minlength=m)
                   for k in range(dim)], axis=1)
    s2tr = np.bincount(idx, weights=r2, minlength=m)
    s4 = np.bincount(idx, weights=r2 * r2, minlength=m)
    return count, s1, s2, s3, s2tr, s4


def _p2_value(s, count, s1, s2, s3, s2tr, s4):
    """Sum over the cell of |z - s|^4, from moments (vectorized over cells)."""
    ss = np.einsum("ij,ij->i", s, s)
    return (s4
            - 4.0 * np.einsum("ij,ij->i", s3, s)
            + 2.0 * s2tr * ss
            + 4.0 * np.einsum("ij,ijk,ik->i", s, s2, s)
            - 4.0 * ss * np.einsum("ij,ij->i", s1, s)
            + count * ss * ss)


def _p2_cell_update(start, count, s1, s2, s3, s2tr, s4, steps=20):
    """Damped Newton on the per-cell quartic objective, vectorized over cells."""
    m, dim = start.shape
    s = start.copy()
    val = _p2_value(s, count, s1, s2, s3, s2tr, s4)
    eye = np.eye(dim)
    for _ in range(steps):
        ss = np.einsum("ij,ij->i", s, s)
        s1s = np.einsum("ij,ij->i", s1, s)
        grad = (8.0 * np.einsum("ijk,ik->ij", s2, s)
                + 4.0 * count[:, None] * ss[:, None] * s
                - 4.0 * s3
                + 4.0 * s2tr[:, None] * s
                - 8.0 * s1s[:, None] * s
                - 4.0 * ss[:, None] * s1)
        hess = (8.0 * s2
                + 4.0 * count[:, None, None]
                * (ss[:, None, None] * eye + 2.0 * np.einsum("ij,ik->ijk", s, s))
                + 4.0 * s2tr[:, None, None] * eye
                - 8.0 * (np.einsum("ij,ik->ijk", s1, s)
                         + np.einsum("ij,ik->ijk", s, s1)
                         + s1s[:, None, None] * eye))
        # regularize any non-PD cell Hessian toward gradient descent
        tr = np.trace(hess, axis1=1, axis2=2) / dim
        hess = hess + 1e-12 * np.maximum(tr, 1.0)[:, None, None] * eye
        try:
            step = np.linalg.solve(hess, grad[..., None])[..., 0]
        except np.linalg.LinAlgError:
            step = grad / np.maximum(tr, 1e-30)[:, None]
        improved = np.zeros(m, dtype=bool)
        for alpha in (1.0, 0.5, 0.25, 0.05):
            trial = np.where(improved[:, None], s, s - alpha * step)
            tval = _p2_value(trial, count, s1, s2, s3, s2tr, s4)
            better = (~improved) & (tval < val - 1e-15 * np.abs(val))
            s = np.where(better[:, None], trial, s)
            val = np.where(better, tval, val)
            improved |= better
        if not improved.any():
            break
    return s, val


def _assign(cloud_w, centers_w):
    if centers_w.shape[1] == 1:
        # on a line the Voronoi cells are intervals between midpoints
        order = np.argsort(centers_w[:, 0], kind="stable")
        c = centers_w[order, 0]
        idx = order[np.searchsorted(0.5 * (c[1:] + c[:-1]), cloud_w[:, 0])]
        return np.abs(cloud_w[:, 0] - centers_w[idx, 0]), idx
    tree = cKDTree(centers_w)
    dist, idx = tree.query(cloud_w, k=1)
    return np.asarray(dist), np.asarray(idx)


class _BoundedAssigner:
    """Nearest-center assignment of a fixed cloud to moving centers.

    Calls return what ``_assign`` returns, bit for bit, but after the first
    call only the points whose label might have changed are queried.
    Between calls it keeps, per point, the label, the own-center distance
    and the lower bound on every other center's distance; per cell, the
    reach (largest distance plus bound over its points); and a kd-tree of
    the centers, whose pair search finds each cell's neighbourhood for the
    next bound update (see the module docstring).  The own-center distance
    is summed coordinate by coordinate, as the kd-tree sums fewer than
    eight coordinates, so eight or more dimensions fall back to ``_assign``.
    On a line the cloud is sorted once instead, so each cell is one run of
    the sorted cloud, cut where the sorted midpoints fall.
    """

    def __init__(self, cloud_w):
        self.cloud_w = cloud_w
        self.bounded = 1 < cloud_w.shape[1] < 8
        self.centers = None
        if cloud_w.shape[1] == 1:
            self.order = np.argsort(cloud_w[:, 0], kind="stable")
            self.line = cloud_w[self.order, 0]

    def _assign_line(self, centers_w):
        order = np.argsort(centers_w[:, 0], kind="stable")
        c = centers_w[order, 0]
        # a point on a midpoint goes to the left cell, as in _assign
        ends = np.searchsorted(self.line, 0.5 * (c[1:] + c[:-1]), side="right")
        idx = np.empty(self.line.size, dtype=np.intp)
        idx[self.order] = np.repeat(order, np.diff(ends, prepend=0,
                                                   append=self.line.size))
        return np.abs(self.cloud_w[:, 0] - centers_w[idx, 0]), idx

    def __call__(self, centers_w):
        if self.cloud_w.shape[1] == 1:
            return self._assign_line(centers_w)
        if not self.bounded:
            return _assign(self.cloud_w, centers_w)
        cloud_w = self.cloud_w
        if self.centers is None:
            self.idx = np.empty(cloud_w.shape[0], dtype=np.intp)
            self.bound = np.empty(cloud_w.shape[0])
            dist = np.empty(cloud_w.shape[0])
            stale = np.arange(cloud_w.shape[0])
        else:
            step = centers_w - self.centers
            shift = np.sqrt(np.einsum("ij,ij->i", step, step))
            # a center that moved further than every cell's reach (an
            # empty-cell re-seed) counts against every cell, which keeps
            # the pair search local
            far = self.reach.max()
            # slack on the radius absorbs the rounding of reach, shifts and
            # pair distances, and on the tree's search radius its own
            radius = (self.reach + min(shift.max(), far)) * (1.0 + _SLACK)
            pairs = self.tree.sparse_distance_matrix(
                self.tree, radius.max() * (1.0 + _SLACK),
                output_type="ndarray")
            pairs = pairs[pairs["v"] <= radius[pairs["i"]]]
            # far movers count for every cell, the rest through the pairs,
            # where each center also pairs with itself
            local = np.full_like(shift, shift[shift > far].max(initial=0.0))
            np.maximum.at(local, pairs["i"], shift[pairs["j"]])
            # the (1 - slack) factor absorbs the rounding of this update
            lower = np.take(local, self.idx)
            lower *= 1.0 + _SLACK
            self.bound *= 1.0 - _SLACK
            self.bound -= lower
            del lower
            dist = evaluate_rows(
                lambda d: np.sqrt(rowdot(d, d)),
                lambda block: cloud_w[block]
                - np.take(centers_w, self.idx[block], axis=0),
                cloud_w.shape[0])
            stale = np.flatnonzero(dist * (1.0 + _SLACK) >= self.bound)
        # the tree is built on a copy: it does not copy its data, and the
        # empty-cell branch of quantize edits centers in place
        self.centers = centers_w.copy()
        self.tree = cKDTree(self.centers)
        idx = self.idx
        for start in range(0, stale.size, _ROW_BLOCK):
            rows = stale[start:start + _ROW_BLOCK]
            d, i = self.tree.query(cloud_w[rows], k=2)
            dist[rows], idx[rows], self.bound[rows] = d[:, 0], i[:, 0], d[:, 1]
            tie = rows[d[:, 0] == d[:, 1]]
            if tie.size:
                # a two-neighbour query breaks exact ties unlike a
                # one-neighbour query; keep the latter's choice
                dist[tie], idx[tie] = self.tree.query(cloud_w[tie], k=1)
        self.reach = np.full(self.centers.shape[0], -np.inf)
        np.maximum.at(self.reach, idx, dist + self.bound)
        return dist, idx.copy()


def quantize(region, density, config, _cloud=None):
    """Place config.m points minimizing the weighted q^p distortion.

    ``density`` is a vectorized callable (or None for uniform).  Returns
    the best :class:`PointSet` over ``config.restarts`` independent runs.
    All returned points lie inside the closed region.
    """
    if config.m >= 1 and region.dim < 1:
        raise ValueError("region must have positive dimension")
    metric = config.metric or QuadraticForm.from_matrix(np.eye(region.dim))
    if metric.dim != region.dim:
        raise MetricError("metric dimension does not match the region")
    w = whiten(metric)
    w_inv = np.linalg.inv(w)
    if config.cloud_size:
        cloud_size = config.cloud_size
    elif region.dim == 1:
        # 1D assignment is cheap, and interval Lloyd needs the extra
        # resolution: the converged points inherit the cloud's sampling
        # noise, which enters the distortion at second order per cell
        cloud_size = max(100_000, 1_000 * config.m)
    else:
        cloud_size = max(20_000, 200 * config.m)

    best = None
    for restart in range(config.restarts):
        rng = np.random.default_rng((config.seed, restart))
        if _cloud is not None:
            cloud, mass = np.asarray(_cloud, dtype=float), None
        else:
            cloud, mass = _draw_cloud(region, density, cloud_size, rng)
        if mass is None:
            mass = 1.0  # report the cloud average when no exact mass exists
            norm = 1.0 / cloud.shape[0]
        else:
            norm = mass / cloud.shape[0]
        cloud_w = cloud @ w.T
        del cloud
        assign = _BoundedAssigner(cloud_w)

        if config.m == 1:
            centers = cloud_w.mean(axis=0, keepdims=True).copy()
        elif region.dim == 1:
            # Lloyd-Max companding start: equal-mass quantiles of the cloud.
            # On a line this is already near-optimal and sidesteps the very
            # slow one-cell-per-iteration information flow of plain Lloyd.
            qs = (np.arange(config.m) + 0.5) / config.m
            centers = np.quantile(cloud_w[:, 0], qs)[:, None]
        else:
            centers = _fps_select(cloud_w, config.m, rng)
        history = []
        converged = False
        it = 0
        prev = np.inf
        for it in range(1, config.max_iterations + 1):
            dist, idx = assign(centers)
            cost = dist ** (2.0 * config.p)
            obj = float(np.sum(cost)) * norm
            if obj > prev * (1 + 1e-12) + 1e-300:
                raise RuntimeError(
                    "Lloyd objective increased; monotonicity contract broken")
            history.append(obj)
            scored = centers
            counts = np.bincount(idx, minlength=config.m)
            empty = np.flatnonzero(counts == 0)
            if empty.size:
                # re-seed each empty cell at a currently expensive sample
                log.debug("re-seeding %d empty cells", empty.size)
                order = np.argsort(cost)[::-1]
                centers[empty] = cloud_w[order[: empty.size]]
                prev = obj
                continue
            if prev - obj <= config.tol * max(abs(obj), 1e-300) and it > 1:
                converged = True
                break
            prev = obj

            if config.p == 1.0:
                sums = np.stack(
                    [np.bincount(idx, weights=cloud_w[:, k], minlength=config.m)
                     for k in range(region.dim)], axis=1)
                centers = sums / counts[:, None]
            elif config.p == 2.0:
                # work in cell-centered coordinates: raw moments of far-from-
                # origin cells cancel catastrophically (moments are O(1) while
                # the cell objective is O(width^4))
                sums = np.stack(
                    [np.bincount(idx, weights=cloud_w[:, k], minlength=config.m)
                     for k in range(region.dim)], axis=1)
                means = sums / counts[:, None]
                count, s1, s2, s3, s2tr, s4 = _cell_stats_p2(
                    cloud_w - np.take(means, idx, axis=0), idx, config.m,
                    region.dim)
                shift, _ = _p2_cell_update(
                    np.zeros_like(means), count, s1, s2, s3, s2tr, s4)
                centers = means + shift
            else:
                centers = _generic_cell_update(cloud_w, idx, centers,
                                               config.p)
            # keep iterates inside the closed region (in original coordinates)
            centers = region.project(centers @ w_inv.T) @ w.T

        if not converged:
            # score the final update so PointSet.objective always matches the
            # distortion of the returned points on the training cloud
            dist, _ = assign(centers)
            obj = float(np.sum(dist ** (2.0 * config.p))) * norm
            if obj <= history[-1]:
                history.append(obj)
            else:  # round-off made the last step a wash; keep the scored one
                centers = scored

        result = PointSet(points=centers @ w_inv.T, objective=history[-1],
                          iterations_used=it, converged=converged,
                          objective_history=history)
        if best is None or result.objective < best.objective:
            best = result
    return best


def _generic_cell_update(cloud_w, idx, centers, p, steps=20):
    """Per-cell damped Newton for exponents other than 1 and 2.

    Cell j's objective is F_j(c), the sum of |x - c|^(2p) over its points.
    With d = x - c and r^2 = |d|^2 the cell sums are S = sum r^(2p-2),
    g = sum r^(2p-2) d and K = sum r^(2p-4) d d^T: the gradient of F_j is
    -2p g and its Hessian 2p H, with H = S I + 2(p - 1) K.  As 0 <= K <= S I,
    H >= S I for p > 1, and the step is H^-1 g.  For p < 1 the Hessian is
    unbounded near the points and need not be positive definite, so H = S I
    there, a step to the reweighted mean, and r^2 is floored.  Such a step
    barely moves a center that sits on a point, as farthest-point seeding
    puts them, so for p < 1 a cell first moves to its mean where that is
    better.

    A cell stops once its predicted decrease p g^T H^-1 g is at most 1e-15
    of |F_j|.  Its line search halves the step from 1 until F_j falls, and
    the cell stops when the halved step predicts no decrease above that
    threshold.  Each cell accepts its own step, so no cell objective
    increases.
    """
    m, dim = centers.shape
    curved = p > 1.0
    # points by column: d is (dim, N), so every pass below is contiguous.
    # One bincount over (column, cell) keys gives S, g and, for p > 1, K
    cloud_t = np.ascontiguousarray(cloud_w.T)
    ncol = 1 + dim + (dim * dim if curved else 0)
    keys = (np.arange(ncol)[:, None] * m + idx).ravel()
    terms = np.empty((ncol, idx.size))

    def evaluate(c):
        # one power per center gives both the weights and the value
        d = cloud_t - np.take(c.T, idx, axis=1)
        r2 = rowdot(d.T, d.T)
        wgt = (r2 if curved else np.maximum(r2, 1e-300)) ** (p - 1.0)
        return d, r2, wgt, np.bincount(idx, weights=r2 * wgt, minlength=m)

    if not curved:
        sums = np.stack([np.bincount(idx, weights=x, minlength=m)
                         for x in cloud_t], axis=1)
        means = sums / np.maximum(np.bincount(idx, minlength=m), 1)[:, None]
        take = evaluate(means)[3] < evaluate(centers)[3]
        centers = np.where(take[:, None], means, centers)
    d, r2, wgt, val = evaluate(centers)
    active = np.ones(m, dtype=bool)
    eye = np.eye(dim)
    for _ in range(steps):
        terms[0] = wgt
        np.multiply(wgt, d, out=terms[1:1 + dim])
        if curved:
            # r^(2p-4) d d^T, where a point on its center adds nothing
            kd = (wgt / np.where(r2 > 0.0, r2, 1.0)) * d
            np.multiply(kd[:, None], d,
                        out=terms[1 + dim:].reshape(dim, dim, -1))
        sums = np.bincount(keys, weights=terms.ravel(),
                           minlength=ncol * m).reshape(ncol, m).T
        # divided by S: H / S = I + 2(p - 1) K / S is well conditioned, and
        # a cell with S = 0 has g = 0
        wsum = np.where(sums[:, 0] > 0.0, sums[:, 0], 1.0)
        scaled = sums[:, 1:] / wsum[:, None]
        grad = step = scaled[:, :dim]
        if curved:
            hess = scaled[:, dim:].reshape(m, dim, dim) * (2.0 * (p - 1.0))
            hess += eye
            step = np.linalg.solve(hess, grad[..., None])[..., 0]
        decrease = p * wsum * np.einsum("ij,ij->i", grad, step)
        active &= decrease > 1e-15 * np.abs(val)
        tried, alpha = active.copy(), 1.0
        while tried.any():
            trial = np.where(tried[:, None], centers + alpha * step, centers)
            # the trial's state is exact for every cell that kept or took
            # its center; a rejected cell is tried again or stops
            d, r2, wgt, tval = evaluate(trial)
            better = tried & (tval < val)
            rejected = tried & ~better
            centers = np.where(better[:, None], trial, centers)
            val = np.where(better, tval, val)
            # a rejected cell halves its step while the step still promises
            # a decrease above the stop threshold, and stops after that
            alpha *= 0.5
            tried = rejected & (alpha * decrease > 1e-15 * np.abs(val))
            active &= ~rejected | tried
        if not active.any():
            break
    return centers


def quantizer_objective(region, density, q, p, points, sample_spec):
    """Independent estimate of the distortion of a fixed point set.

    ``sample_spec`` is a QuadratureSpec; monte_carlo draws a fresh cloud
    from rho (standard error reported), and the other kinds integrate the
    cost times rho by ``quadrature.integrate``.
    """
    if not isinstance(q, QuadraticForm):
        q = QuadraticForm.from_matrix(q)
    w = whiten(q)
    pts_w = np.asarray(points, dtype=float) @ w.T

    def min_cost(x):
        dist, _ = _assign(x @ w.T, pts_w)
        return dist ** (2.0 * p)

    if sample_spec.kind == "monte_carlo":
        rng = np.random.default_rng(sample_spec.seed)
        cloud, mass = _draw_cloud(region, density, sample_spec.samples, rng)
        vals = min_cost(cloud)
        if mass is None:
            mass, scale = 1.0, 1.0
        else:
            scale = mass
        value = scale * float(np.mean(vals))
        se = scale * float(np.std(vals)) / np.sqrt(len(vals))
        return ErrorReport(value=value, error_bar=se, nodes_used=len(vals))

    rho = density or (lambda x: 1.0)
    return integrate(lambda x: min_cost(x) * rho(x), region, sample_spec)


def brute_force_1d(m, p, grid_resolution=1e-4, interval=(0.0, 1.0)):
    """Globally optimal 1-d quantizer of the uniform density, by nested search.

    Points live on a grid that is refined around the incumbent until the
    spacing drops below ``grid_resolution``; within each stage the sorted
    point tuple is optimized exactly by dynamic programming over cell
    boundaries (cells of an optimal 1-d quantizer are intervals and the
    in-cell optimum is the midpoint).  Guarantees the global optimum to
    O(grid spacing).  Only small m is supported.
    """
    if m > 4:
        raise ValueError("brute force quantizer is limited to m <= 4")
    if m < 1:
        raise ValueError("need at least one point")
    a, b = float(interval[0]), float(interval[1])

    def cell_cost(width):
        # integral over a cell of |x - midpoint|^{2p}
        return (width / 2.0) ** (2 * p + 1) * 2.0 / (2 * p + 1)

    # boundaries on a 513-point grid, optimal by dynamic programming over
    # m cells; widths[i, k] = e_k - e_i
    edges = np.linspace(a, b, 513)
    widths = edges[None, :] - edges[:, None]
    bounds = edges[interval_dp(
        np.where(widths > 0, cell_cost(np.abs(widths)), np.inf), m)]
    pts = (bounds[:-1] + bounds[1:]) / 2.0
    # nested refinement: the objective is a convex function of the sorted
    # cell boundaries (cell costs are convex in the width), so coordinate
    # sweeps over progressively finer local grids reach the global optimum
    # to within the final spacing
    bounds = np.concatenate([[a], (pts[:-1] + pts[1:]) / 2.0, [b]])
    spacing = (b - a) / 512
    while spacing > grid_resolution / 4 and m > 1:
        for _ in range(4):  # sweeps at this resolution
            for i in range(1, m):
                lo = max(bounds[i - 1], bounds[i] - 16 * spacing)
                hi = min(bounds[i + 1], bounds[i] + 16 * spacing)
                cand = np.linspace(lo, hi, 33)
                tot = cell_cost(cand - bounds[i - 1]) + cell_cost(bounds[i + 1] - cand)
                bounds[i] = cand[np.argmin(tot)]
        spacing /= 8.0
    pts = (bounds[:-1] + bounds[1:]) / 2.0
    obj = float(np.sum(cell_cost(np.diff(bounds))))
    return PointSet(points=pts.reshape(-1, 1), objective=obj,
                    iterations_used=0, converged=True)


def interval_dp(cost, m):
    """Cheapest split of a grid into m consecutive cells.

    ``cost[i, k]`` is the cost of the cell from grid point i to grid point
    k (inf where i >= k).  Runs the min-plus recursion over the number of
    cells and returns the m + 1 boundary indices, from 0 to the last grid
    point; ties go to the smallest boundary.
    """
    npts = cost.shape[0]
    best = np.full(npts, np.inf)
    best[0] = 0.0
    arg = np.zeros((m + 1, npts), dtype=int)
    for j in range(1, m + 1):
        tot = best[:, None] + cost
        arg[j] = np.argmin(tot, axis=0)
        best = tot[arg[j], np.arange(npts)]
    chain = [npts - 1]
    for j in range(m, 0, -1):
        chain.append(arg[j, chain[-1]])
    return np.array(chain[::-1])
