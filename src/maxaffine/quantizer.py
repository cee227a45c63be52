"""Weighted point quantization under a quadratic-form metric.

quantize() minimizes, over point sets S of size m,

    integral over the region of  min_{s in S} q(x - s)^p  rho(x) dx

with q a fixed SPD quadratic form.  In two or more dimensions the integral
is represented by a fixed Monte Carlo cloud drawn from rho once per
restart; Lloyd iterations then alternate nearest-point assignment (in the
whitened metric, where q is the squared Euclidean norm) with per-cell
minimization.  For p = 1 the cell minimizer is the mean; for p = 2 it is
found by damped Newton steps on the quartic cell objective, assembled from
cell moments so no extra passes over the cloud are needed.  Other exponents
run a damped Newton per cell on the cell objective, convex for p >= 1/2,
whose minimizer is the generalized centroid (Du, Faber and Gunzburger, SIAM
Review 1999); each cell takes its own step, with its own line search, and
stops once its predicted decrease is below 1e-15 of its objective.  Its
sums go one bincount per column, and the rows of the cells that have
stopped drop out of the passes once they are half of the rows, so no
temporary holds more than a few columns.  The empirical objective is
monotone across iterations by construction and this is asserted.  On a line
the solve is exact instead, its cells cut where rho jumps
(``_quantize_line``).

Independent problems run in lockstep (``quantize_many``; ``quantize`` is
a batch of one, and ``paper_partition`` hands over all of its cells at
once).  Each restart is a problem of its own.  A group takes problems in
order, of one dimension, while their clouds fit in ``quadrature._ROW_BLOCK``
rows; a larger problem runs alone.  A group's clouds are drawn when it
starts, stacked in order, with each problem's labels offset by the centers
of the problems before it, and a problem that has converged (or scored its
last update) leaves the group.  Per problem stay the cloud draw and its
random stream, whitening, seeding, the kd-tree, its pair search and its
queries, the objective's sum over the problem's own rows, the empty-cell
re-seed, the projection into the region and the convergence test.  Once
over the group go the own-center distances, the bound update and the
stale test, the reach and the cell updates.  This is bit-identical to
running the problems one by one: every per-row pass computes each row as
it would alone, a bincount adds each cell's rows in the same order, and
batched solves and dot products treat each cell on its own.  A cell
update loop that runs on for another problem's cells leaves a stopped
cell where it was: the Newton steps of a cell that has stopped, or whose
problem has, do not move it.  What a group saves is the per-call cost of
numpy on clouds of a few thousand rows, not arithmetic.

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
import itertools
import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .convex_core import (_SLACK, MetricError, QuadraticForm, catalog_entry,
                          rowdot, tangent_planes)
from .error_eval import exact_1d_piecewise_integral
from .quadrature import _ROW_BLOCK, ErrorReport, evaluate_rows, integrate

log = logging.getLogger(__name__)


@dataclass
class QuantizerConfig:
    """On a line the solve is exact, and ``max_iterations``, ``tol``,
    ``restarts``, ``seed`` and ``cloud_size`` are not used."""
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
    """On a line ``converged`` says whether the exact solve met its stop
    test: every residual within 1e-12 of its scale or within its rounding
    floor (a solve that stops far short raises ArithmeticError).  For
    p != 1 the rounding of the gap next to a point can hold residuals above
    that floor, and it reads False.  ``iterations_used`` is 0 and
    ``objective_history`` is ``[objective]`` there."""
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
    region volume, so the objective has no normalization noise.  Otherwise
    rejection sampling against the bounding box is used and the mass is
    estimated from the acceptance rate.

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
        return region.sample(rng, count), region.volume()

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


def _p2_cell_update(start, count, s1, s2, s3, s2tr, s4, steps=20, cells=None):
    """Damped Newton on the per-cell quartic objective, vectorized over cells.

    ``cells`` cuts the cells into problems (default: one).  A problem with
    a singular cell Hessian takes gradient steps in all its cells, as a call
    on that problem alone would.
    """
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
            for a, b in itertools.pairwise((0, m) if cells is None else cells):
                try:
                    step[a:b] = np.linalg.solve(hess[a:b],
                                                grad[a:b, :, None])[..., 0]
                except np.linalg.LinAlgError:
                    pass
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
    tree = cKDTree(centers_w)
    dist, idx = tree.query(cloud_w, k=1)
    return np.asarray(dist), np.asarray(idx)


def _select(keep, rows, cells):
    """Rows and cells of the problems ``keep`` (a mask over the problems
    whose rows and cells start at the cuts ``rows`` and ``cells``): the row
    and cell masks, the amount each kept row's label drops by, and the
    kept problems' cuts."""
    nrows, ncells = np.diff(rows)[keep], np.diff(cells)[keep]
    new_cells = np.concatenate([[0], np.cumsum(ncells)])
    drop = np.repeat(cells[:-1][keep] - new_cells[:-1], nrows)
    return (np.repeat(keep, np.diff(rows)), np.repeat(keep, np.diff(cells)),
            drop, np.concatenate([[0], np.cumsum(nrows)]), new_cells)


class _BoundedAssigner:
    """Nearest-center assignment of fixed clouds to moving centers, for a
    group of independent problems at once.

    ``cloud_w`` stacks the whitened clouds of the problems, problem k's
    rows from ``rows[k]`` to ``rows[k + 1]`` (default: one problem).  A
    call takes one center array per problem and returns the distances and
    labels of every cloud row, each problem's labels offset by the centers
    of the problems before it.  Each problem's rows and labels are those
    of ``_assign`` on its own cloud and centers, bit for bit, but after
    the first call only the points whose label might have changed are
    queried.  Between calls it keeps, per point, the
    label, the own-center distance and the lower bound on every other
    center's distance; per cell, the reach (largest distance plus bound
    over its points); and per problem a kd-tree of its centers, whose pair
    search finds each cell's neighbourhood for the next bound update (see
    the module docstring).  The own-center distance is summed coordinate
    by coordinate, as the kd-tree sums fewer than eight coordinates, so
    eight or more dimensions fall back to ``_assign``.  The returned
    arrays are the assigner's own and hold until the next call; ``keep``
    drops finished problems.
    """

    def __init__(self, cloud_w, rows=None):
        self.cloud_w = cloud_w
        self.rows = np.array([0, cloud_w.shape[0]] if rows is None else rows)
        self.cells = None
        self.centers = None
        self.bounded = cloud_w.shape[1] < 8

    def keep(self, mask):
        """Forget the problems where ``mask`` is False."""
        rows, cells, drop, self.rows, self.cells = _select(
            mask, self.rows, self.cells)
        self.cloud_w = self.cloud_w[rows]
        self.centers = self.centers[cells]
        self.idx = self.idx[rows] - drop
        if self.bounded:
            self.bound, self.reach = self.bound[rows], self.reach[cells]
            self.trees = [t for t, k in zip(self.trees, mask) if k]

    def __call__(self, centers):
        first = self.centers is None
        sizes = [c.shape[0] for c in centers]
        cells = np.cumsum([0] + sizes)
        # the trees are built on this copy: a tree does not copy its data,
        # and the empty-cell branch of quantize edits centers in place
        stacked = np.concatenate(centers)
        cloud_w, rows = self.cloud_w, self.rows
        if not self.bounded:
            self.centers, self.cells = stacked, cells
            self.idx = np.empty(cloud_w.shape[0], dtype=np.intp)
            dist = np.empty(cloud_w.shape[0])
            for k in range(len(centers)):
                r = slice(rows[k], rows[k + 1])
                dist[r], idx = _assign(cloud_w[r], centers[k])
                self.idx[r] = idx + cells[k]
            return dist, self.idx
        if first:
            self.idx = np.empty(cloud_w.shape[0], dtype=np.intp)
            self.bound = np.empty(cloud_w.shape[0])
            dist = np.empty(cloud_w.shape[0])
            stale = np.arange(cloud_w.shape[0])
        else:
            step = stacked - self.centers
            shift = np.sqrt(np.einsum("ij,ij->i", step, step))
            # a center that moved further than every cell's reach of its
            # problem (an empty-cell re-seed) counts against every cell,
            # which keeps the pair search local
            starts = cells[:-1]
            far = np.maximum.reduceat(self.reach, starts)
            spread = np.repeat(np.minimum(np.maximum.reduceat(shift, starts),
                                          far), sizes)
            # slack on the radius absorbs the rounding of reach, shifts and
            # pair distances, and on the tree's search radius its own
            radius = (self.reach + spread) * (1.0 + _SLACK)
            search = np.maximum.reduceat(radius, starts) * (1.0 + _SLACK)
            pairs = [self.trees[k].sparse_distance_matrix(
                self.trees[k], search[k], output_type="ndarray")
                for k in range(len(centers))]
            pi = np.concatenate([q["i"] + cells[k] for k, q in enumerate(pairs)])
            pj = np.concatenate([q["j"] + cells[k] for k, q in enumerate(pairs)])
            near = np.concatenate([q["v"] for q in pairs]) <= radius[pi]
            # far movers count for every cell, the rest through the pairs,
            # where each center also pairs with itself
            movers = np.where(shift > np.repeat(far, sizes), shift, 0.0)
            local = np.repeat(np.maximum.reduceat(movers, starts), sizes)
            np.maximum.at(local, pi[near], shift[pj[near]])
            # the (1 - slack) factor absorbs the rounding of this update
            lower = np.take(local, self.idx)
            lower *= 1.0 + _SLACK
            self.bound *= 1.0 - _SLACK
            self.bound -= lower
            del lower
            dist = evaluate_rows(
                lambda d: np.sqrt(rowdot(d, d)),
                lambda block: cloud_w[block]
                - np.take(stacked, self.idx[block], axis=0),
                cloud_w.shape[0])
            stale = np.flatnonzero(dist * (1.0 + _SLACK) >= self.bound)
        self.centers, self.cells = stacked, cells
        self.trees = [cKDTree(stacked[cells[k]:cells[k + 1]])
                      for k in range(len(centers))]
        idx = self.idx
        ends = np.searchsorted(stale, rows)
        for k, tree in enumerate(self.trees):
            for start in range(ends[k], ends[k + 1], _ROW_BLOCK):
                rows_k = stale[start:min(start + _ROW_BLOCK, ends[k + 1])]
                d, i = tree.query(cloud_w[rows_k], k=2)
                dist[rows_k], idx[rows_k] = d[:, 0], i[:, 0] + cells[k]
                self.bound[rows_k] = d[:, 1]
                tie = rows_k[d[:, 0] == d[:, 1]]
                if tie.size:
                    # a two-neighbour query breaks exact ties unlike a
                    # one-neighbour query; keep the latter's choice
                    dist[tie], i = tree.query(cloud_w[tie], k=1)
                    idx[tie] = i + cells[k]
        self.reach = np.full(stacked.shape[0], -np.inf)
        np.maximum.at(self.reach, idx, dist + self.bound)
        return dist, idx


class _Run:
    """One restart of one problem: its cloud and its Lloyd state."""

    def __init__(self, region, density, config, w, w_inv, rows, restart,
                 cloud):
        self.region, self.density, self.config = region, density, config
        self.w, self.w_inv = w, w_inv
        self.rows, self.restart, self.cloud = rows, restart, cloud
        self.result = None

    def begin(self, cloud_w):
        """Draw the cloud, whitened into ``cloud_w``, and seed the centers."""
        config = self.config
        rng = np.random.default_rng((config.seed, self.restart))
        if self.cloud is not None:
            # a fixed cloud reports its average
            cloud, mass = np.asarray(self.cloud, dtype=float), 1.0
        else:
            cloud, mass = _draw_cloud(self.region, self.density, self.rows,
                                      rng)
        self.norm = mass / cloud.shape[0]
        np.matmul(cloud, self.w.T, out=cloud_w)
        del cloud
        if config.m == 1:
            self.centers = cloud_w.mean(axis=0, keepdims=True).copy()
        else:
            self.centers = _fps_select(cloud_w, config.m, rng)
        self.history, self.it, self.prev = [], 0, np.inf

    def score(self, cost, counts, cloud_w):
        """Take one assignment's costs, cell counts and cloud rows; return
        whether the cells are to be updated now."""
        config = self.config
        obj = float(np.sum(cost)) * self.norm
        if self.it == config.max_iterations:
            # score the final update so PointSet.objective always matches
            # the distortion of the returned points on the training cloud
            if obj <= self.history[-1]:
                self.history.append(obj)
            else:  # round-off made the last step a wash; keep the scored one
                self.centers = self.scored
            return self._finish(False)
        self.it += 1
        if obj > self.prev * (1 + 1e-12) + 1e-300:
            raise RuntimeError(
                "Lloyd objective increased; monotonicity contract broken")
        self.history.append(obj)
        self.scored = self.centers
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            # re-seed each empty cell at a currently expensive sample
            log.debug("re-seeding %d empty cells", empty.size)
            order = np.argsort(cost)[::-1]
            self.centers[empty] = cloud_w[order[: empty.size]]
            self.prev = obj
            return False
        if self.prev - obj <= config.tol * max(abs(obj), 1e-300) and self.it > 1:
            return self._finish(True)
        self.prev = obj
        return True

    def _finish(self, converged):
        self.result = PointSet(points=self.centers @ self.w_inv.T,
                               objective=self.history[-1],
                               iterations_used=self.it, converged=converged,
                               objective_history=self.history)
        return False

    def project(self, centers):
        """Take updated centers, kept inside the closed region."""
        self.centers = self.region.project(centers @ self.w_inv.T) @ self.w.T


def _cell_update(cloud_w, idx, centers, counts, p, cells):
    """Every cell's next center at exponent p; ``cells`` cuts the cells
    into their problems."""
    m, dim = centers.shape
    if p == 2.0:
        # work in cell-centered coordinates: raw moments of far-from-
        # origin cells cancel catastrophically (moments are O(1) while
        # the cell objective is O(width^4))
        sums = np.stack([np.bincount(idx, weights=cloud_w[:, k], minlength=m)
                         for k in range(dim)], axis=1)
        means = sums / counts[:, None]
        stats = _cell_stats_p2(cloud_w - np.take(means, idx, axis=0), idx, m,
                               dim)
        shift, _ = _p2_cell_update(np.zeros_like(means), *stats, cells=cells)
        return means + shift
    if p == 1.0:
        sums = np.stack([np.bincount(idx, weights=cloud_w[:, k], minlength=m)
                         for k in range(dim)], axis=1)
        return sums / counts[:, None]
    return _generic_cell_update(cloud_w, idx, centers, p)


def _lloyd(runs):
    """Run a group of restarts to the end of their Lloyd iterations, in
    lockstep: every per-row pass goes once over the group's rows."""
    rows = np.cumsum([0] + [run.rows for run in runs])
    cloud_w = np.empty((rows[-1], runs[0].region.dim))
    for run, a, b in zip(runs, rows[:-1], rows[1:]):
        run.begin(cloud_w[a:b])
    assign = _BoundedAssigner(cloud_w, rows)
    del cloud_w
    live = runs
    while live:
        dist, idx = assign([run.centers for run in live])
        p = np.array([run.config.p for run in live])
        if np.all(p == p[0]):
            cost = dist ** (2.0 * p[0])
        else:
            cost = np.concatenate([
                dist[assign.rows[k]:assign.rows[k + 1]] ** (2.0 * run.config.p)
                for k, run in enumerate(live)])
        counts = np.bincount(idx, minlength=assign.cells[-1])
        update = np.array([run.score(
            cost[assign.rows[k]:assign.rows[k + 1]],
            counts[assign.cells[k]:assign.cells[k + 1]],
            assign.cloud_w[assign.rows[k]:assign.rows[k + 1]])
            for k, run in enumerate(live)])
        del dist, cost
        done = np.array([run.result is not None for run in live])
        if done.any():
            counts = counts[np.repeat(~done, np.diff(assign.cells))]
            update, p = update[~done], p[~done]
            live = [run for run, gone in zip(live, done) if not gone]
            if not live:
                break
            assign.keep(~done)
        # one update per exponent, over the rows of the problems that take
        # it; the others (re-seeded this step) keep their centers
        for value in dict.fromkeys(p[update]):
            take = update & (p == value)
            if take.all():
                cells = assign.cells
                new = _cell_update(assign.cloud_w, assign.idx, assign.centers,
                                   counts, value, cells)
            else:
                rowmask, cellmask, drop, _, cells = _select(
                    take, assign.rows, assign.cells)
                new = _cell_update(assign.cloud_w[rowmask],
                                   assign.idx[rowmask] - drop,
                                   assign.centers[cellmask], counts[cellmask],
                                   value, cells)
            for k, run in enumerate(r for r, t in zip(live, take) if t):
                run.project(new[cells[k]:cells[k + 1]])


def quantize_many(problems, _clouds=None):
    """The best :class:`PointSet` of each ``(region, density, config)``
    problem, as :func:`quantize` finds it, with the Lloyd iterations of
    several problems run in lockstep (see the module docstring).

    ``_clouds`` optionally gives each problem a fixed cloud (None for a
    drawn one).  A problem on a line is solved exactly instead
    (:func:`_quantize_line`), and a fixed cloud there raises ``ValueError``.
    """
    runs, lines = [], {}
    for i, (region, density, config) in enumerate(problems):
        if config.m >= 1 and region.dim < 1:
            raise ValueError("region must have positive dimension")
        metric = config.metric or QuadraticForm.from_matrix(np.eye(region.dim))
        if metric.dim != region.dim:
            raise MetricError("metric dimension does not match the region")
        cloud = None if _clouds is None else _clouds[i]
        if region.dim == 1:
            if cloud is not None:
                raise ValueError("a fixed cloud has no meaning on a line")
            lines[i] = _quantize_line(region, density, config, metric)
            runs.append([])
            continue
        w = whiten(metric)
        w_inv = np.linalg.inv(w)
        if cloud is not None:
            rows = np.shape(cloud)[0]
        elif config.cloud_size:
            rows = config.cloud_size
        else:
            rows = max(20_000, 200 * config.m)
        runs.append([_Run(region, density, config, w, w_inv, rows, restart,
                          cloud) for restart in range(config.restarts)])
    # a group takes runs of one dimension in order while its rows fit in
    # one block; a larger run goes alone
    group = []
    for run in (run for restarts in runs for run in restarts):
        if group and (sum(r.rows for r in group) + run.rows > _ROW_BLOCK
                      or run.region.dim != group[0].region.dim):
            _lloyd(group)
            group = []
        group.append(run)
    if group:
        _lloyd(group)
    # the first restart with the least objective
    return [lines[i] if i in lines else
            min((run.result for run in restarts), key=lambda ps: ps.objective)
            for i, restarts in enumerate(runs)]


def _quantize_line(region, density, config, metric):
    """The exact quantizer of an interval.  With q(y) = a y^2, q(x - s) is
    twice the gap between g = a x^2 / 2 and its tangent at s, so the best
    points are ``exact_1d``'s optimal tangency points of g under the weight
    rho, and the objective is 2^p times the exact integral of gap^p rho.
    The solve cuts its cells where rho jumps (``_density_jumps``)."""
    from .approximator import _solve_1d

    g = catalog_entry("quadratic", {"hessian": metric.matrix}, region)

    def omega(x, _):
        if density is None:
            return np.ones(len(x))
        vals = np.asarray(density(x), dtype=float)
        if np.any(vals < 0):
            raise ValueError("density must be nonnegative")
        return vals

    if density is not None:
        omega.jumps = _density_jumps(omega, *g.domain.bounding_box())
    t, met = _solve_1d(g, omega, config.p, config.m)
    obj = 2.0 ** config.p * exact_1d_piecewise_integral(
        g, tangent_planes(g, t[:, None]), config.p, omega).value
    if not obj > 0.0:
        raise ValueError("density carries no mass on the interval")
    return PointSet(t[:, None], obj, iterations_used=0, converged=met,
                    objective_history=[obj])


def _density_jumps(rho, lo, hi, grid=4097):
    """Where ``rho(x, None)`` jumps on the interval [lo, hi]: the steps of
    a uniform grid that change it by more than 8 times either neighbouring
    step, and by more than 1e-9 of its largest value there, each bisected
    60 times towards the side that changes more.  A jump between two
    others on one grid step is not seen; a steep smooth stretch taken for
    one costs only a cut."""
    x = np.linspace(float(lo[0]), float(hi[0]), grid)
    v = rho(x[:, None], None)
    step = np.abs(np.diff(v))
    nb = np.maximum(np.append(step[1:], 0.0), np.insert(step[:-1], 0, 0.0))
    k = np.flatnonzero((step > 8.0 * nb) & (step > 1e-9 * np.max(v)))
    a, b, va, vb = x[k], x[k + 1], v[k], v[k + 1]
    for _ in range(60):
        mid = (a + b) / 2.0
        vm = rho(mid[:, None], None)
        left = np.abs(vm - va) >= np.abs(vb - vm)
        b, vb = np.where(left, mid, b), np.where(left, vm, vb)
        a, va = np.where(left, a, mid), np.where(left, va, vm)
    return b


def quantize(region, density, config, _cloud=None):
    """Place config.m points minimizing the weighted q^p distortion.

    ``density`` is a vectorized callable (or None for uniform).  Returns
    the best :class:`PointSet` over ``config.restarts`` independent runs.
    All returned points lie inside the closed region.
    """
    return quantize_many([(region, density, config)], [_cloud])[0]


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
    increases, and a stopped cell keeps its center through further steps.
    """
    m, dim = centers.shape
    curved = p > 1.0
    # points by column: d is (dim, N), so every pass over it is contiguous
    pts, lab = cloud_w.T, idx

    def evaluate(c, pts, lab):
        # one power per center gives both the weights and the value
        d = np.take(c.T, lab, axis=1)
        np.subtract(pts, d, out=d)
        r2 = rowdot(d.T, d.T)
        wgt = (r2 if curved else np.maximum(r2, 1e-300)) ** (p - 1.0)
        return d, r2, wgt, np.bincount(lab, weights=r2 * wgt, minlength=m)

    if not curved:
        sums = np.stack([np.bincount(idx, weights=x, minlength=m)
                         for x in pts], axis=1)
        means = sums / np.maximum(np.bincount(idx, minlength=m), 1)[:, None]
        take = evaluate(means, pts, lab)[3] < evaluate(centers, pts, lab)[3]
        centers = np.where(take[:, None], means, centers)
    # the passes go over the rows of the cells still in play: a cell's
    # sums take its rows in the same order whichever other rows are there
    d, r2, wgt, val = evaluate(centers, pts, lab)
    active = np.ones(m, dtype=bool)
    eye = np.eye(dim)
    for _ in range(steps):
        live = np.flatnonzero(active[lab])
        if 2 * live.size < lab.size:
            # drop the stopped cells' rows once they are half of them
            pts, d = pts.take(live, axis=1), d.take(live, axis=1)
            lab, r2, wgt = lab.take(live), r2.take(live), wgt.take(live)

        def column(weights):
            return np.bincount(lab, weights=weights, minlength=m)

        # S, g and, for p > 1, K: one bincount per column
        wsum = column(wgt)
        grad = np.stack([column(wgt * x) for x in d], axis=1)
        # divided by S: H / S = I + 2(p - 1) K / S is well conditioned, and
        # a cell with S = 0 has g = 0
        wsum = np.where(wsum > 0.0, wsum, 1.0)
        grad /= wsum[:, None]
        step = grad
        if curved:
            # r^(2p-4) d d^T, where a point on its center adds nothing
            q = wgt / np.where(r2 > 0.0, r2, 1.0)
            hess = np.stack([column(qa * b) for qa in map(q.__mul__, d)
                             for b in d], axis=1)
            del q
            hess = hess.reshape(m, dim, dim) / wsum[:, None, None]
            hess *= 2.0 * (p - 1.0)
            hess += eye
            step = np.linalg.solve(hess, grad[..., None])[..., 0]
        decrease = p * wsum * np.einsum("ij,ij->i", grad, step)
        active &= decrease > 1e-15 * np.abs(val)
        tried, alpha = active.copy(), 1.0
        while tried.any():
            trial = np.where(tried[:, None], centers + alpha * step, centers)
            # the trial's state is exact for every cell that kept or took
            # its center; a rejected cell is tried again or stops
            sel = np.flatnonzero(tried[lab])
            if 2 * sel.size < lab.size:
                # only the tried cells' rows, when they are under half
                d[:, sel], r2[sel], wgt[sel], tval = evaluate(
                    trial, pts.take(sel, axis=1), lab.take(sel))
            else:
                d = r2 = wgt = None
                d, r2, wgt, tval = evaluate(trial, pts, lab)
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
        value = mass * float(np.mean(vals))
        se = mass * float(np.std(vals)) / np.sqrt(len(vals))
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
