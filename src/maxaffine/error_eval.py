"""Weighted L^p error of a circumscribed envelope.

The headline quantity is

    Delta_p = integral over the domain of (f - l)^p omega(x, f(x)) dx,

where l is a max of tangent planes kept below f.  In one and two
dimensions the default path decomposes the envelope into the cells where
one piece attains the maximum and integrates f - l_j over cell j.

One dimension sorts the pieces by slope, prunes the ones that never
attain the maximum and cuts at the crossing abscissas
(:func:`envelope_cells_1d`).  When every piece attains the maximum
(tangent envelopes of a strictly convex f), the cells come from one
vectorised pass; the upper-envelope stack runs only when some piece must
be pruned.  Each cell is cut at the tangency point of its piece into two
segments, where the gap vanishes to second order, so a Gauss-Jacobi rule
sees a smooth integrand for every p > 0 (:func:`exact_1d_piecewise_integral`).

Two dimensions take the cells from the lower convex hull of the lifted
points (slope_j, -offset_j): they form a power diagram (Aurenhammer, SIAM
J. Comput. 1987).  The cells are clipped to the domain by its sides
(``Domain.sides``) or its circle, and those sides are cut into cells by
:func:`envelope_cells_1d`, so one cell routine serves both dimensions.
Each cell is a fan of collapsed sectors (Duffy, SIAM J. Numer. Anal. 1982)
from the tangency point of its piece, where the gap vanishes to second
order, so a Gauss-Jacobi rule sees a smooth integrand for every p > 0:
the 2-d form of the 1-d segments (:func:`exact_2d_cell_integral`).

In both dimensions the cells are first cut where D^2 f jumps
(``f.hessian_jumps``, ``huber``'s x_k = +-delta), so that f is smooth on
every part and no rule has to find a kink between its nodes.  Both halve
the pieces with the largest bars until their sum is met
(``quadrature.refine``).  The same sectors, from the mean of each cell's
boundary points, integrate a smooth integrand over a planar region cut
along lines where it may jump (:func:`fan_integral`, which gives the
law's mass).  An explicit ``QuadratureSpec`` evaluates the integrand
pointwise under tensor-grid or stratified Monte Carlo quadrature
instead.  Functions live in one or two dimensions only
(``convex_core.catalog_entry``).

Every evaluation first verifies circumscription on a probe cloud and
refuses (``CircumscriptionError``) when l pokes above f by more than
1e-9: tangent-built envelopes violate only at rounding level, so anything
larger is a corrupted envelope, not data.  In one dimension the probe
(4,096 points) scores each point only against the pieces that can be
largest near it (``PiecewiseAffineMax.evaluate``); the values are those
of a scan over every piece, bit for bit, because a dropped piece is
provably below a kept one after rounding and a one-coordinate product
rounds once however it is formed.  In two dimensions the BLAS
product's summation order depends on the shape of the call, so the probe
scans envelopes whole.  The cell paths evaluate no envelope beyond the
probe: each piece is evaluated only on its own cell.
"""

import numpy as np
from scipy.spatial import ConvexHull

from .convex_core import (CircumscriptionError, PiecewiseAffineMax,
                          WeightError, _clip_halfspaces, as_points,
                          max_violation, rowdot, sup_gap)
from .quadrature import (_SEGMENT_RULES, ErrorReport, Pieces, QuadratureSpec,
                         _gauss01, _jacobi01, integrate, refine)

__all__ = [
    "QuadratureSpec", "ErrorReport", "weighted_lp_error",
    "exact_1d_piecewise_integral", "max_violation", "sup_gap",
    "envelope_cells_1d",
]

_CIRC_TOL = 1e-9
_SEGMENT_BLOCK = 2048       # 1-d segments per integrand call: 40,960 nodes
_MAX_GROWTH = 16            # pieces, at most, per initial piece
_NEWTON_STEPS = 30
_EPS = np.finfo(float).eps


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
    # among equal slopes the sort puts the largest offset last: keep it
    s = slopes[order]
    order = order[np.append(s[1:] != s[:-1], True)]
    s, o = slopes[order], offsets[order]
    cross = (o[:-1] - o[1:]) / (s[1:] - s[:-1])
    if np.all(cross[1:] > cross[:-1]):
        # every piece wins somewhere: the stack below would pop nothing
        return _clip_cells(order, cross, slopes, offsets, a, b)
    stack = []          # indices into the original piece list
    cross = []          # cross[k] = where stack[k] overtakes stack[k-1]

    def crossing(i, j):
        return (offsets[i] - offsets[j]) / (slopes[j] - slopes[i])

    for idx in order:
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


def _tangency_points(f, slope, offset, start, scale, inside):
    """Apexes of the pieces (slope, offset): Newton on grad f(z) = slope
    from ``start``.

    Returns (apex, found): z where Newton converged to a point where
    ``inside(z)`` holds with the gap at rounding level, ``start`` elsewhere
    (a singular Hessian, iterates that leave the finite numbers, or a
    tangency point outside).
    """
    z = start.copy()
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for _ in range(_NEWTON_STEPS):
            g = f.gradient(z) - slope
            h = f.hessian(z)
            if z.shape[1] == 1:
                det = h[:, 0, 0]
                step = g / det[:, None]
            else:
                det = h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] * h[:, 1, 0]
                step = np.column_stack([
                    h[:, 1, 1] * g[:, 0] - h[:, 0, 1] * g[:, 1],
                    h[:, 0, 0] * g[:, 1] - h[:, 1, 0] * g[:, 0]]) / det[:, None]
            step[~(np.abs(det) > 1e-12 * np.einsum("ijk,ijk->i", h, h))] = np.nan
            z = z - step
            if not np.any(np.abs(step) > 4 * _EPS * scale):
                break
        fz = f.value(z)
        pz = np.einsum("ij,ij->i", z, slope)
        found = (inside(z) & np.isfinite(fz)
                 & (np.abs(fz - pz - offset)
                    <= 64 * _EPS * (np.abs(fz) + np.abs(pz) + np.abs(offset))))
    return np.where(found[:, None], z, start), found


def _segment_sums(f, omega, p, seg, slope, offset):
    """Value, bar and rounding floor of each 1-d segment z + u (g - z),
    u in [u0, u1], as :func:`_sector_sums` gives them for sectors.

    The gap vanishes like (x - z)^2 at a tangency point, so a segment
    from there (u0 = 0) takes a Gauss-Jacobi rule of weight u^(2p) and
    sees a smooth integrand for every p > 0; others take Gauss-Legendre.
    """
    out = np.empty((3, seg.size))
    jacobi = [_jacobi01(k, 2.0 * p) for k in _SEGMENT_RULES]
    legendre = [_gauss01(k) for k in _SEGMENT_RULES]
    jx = np.concatenate([x for x, _ in jacobi])
    jw = np.concatenate([w / x ** (2.0 * p) for x, w in jacobi])
    gx, gw = (np.concatenate(r) for r in zip(*legendre))
    fine_nodes = _SEGMENT_RULES[0]
    for s in range(0, seg.size, _SEGMENT_BLOCK):
        blk = seg.take(slice(s, s + _SEGMENT_BLOCK))
        n = blk.size
        u0, du = blk.u[:, :1], blk.u[:, 1:] - blk.u[:, :1]
        singular = (blk.tangent & (blk.u[:, 0] == 0))[:, None]
        span = blk.g - blk.z
        length = np.abs(span) * du[:, 0]
        wt = np.where(singular, jw, gw)
        x = (blk.z[:, None]
             + (u0 + du * np.where(singular, jx, gx)) * span[:, None])
        fx = f.value(x.reshape(-1, 1)).reshape(n, -1)
        w = np.asarray(omega(x.reshape(-1, 1), fx.reshape(-1)),
                       dtype=float).reshape(n, -1)
        if np.any(w < 0):
            raise WeightError("weight is negative on quadrature nodes")
        plane = x * slope[blk.piece, None]
        off = offset[blk.piece, None]
        # l_j(x) rounds as the envelope's evaluation does, so where f is
        # affine and formed the same way (huber's arms) the gap reads 0
        gap = np.maximum(fx - (plane + off), 0.0)
        vals = gap ** p * w
        fine, coarse = (length * np.einsum("ij,ij->i", vals[:, r], wt[:, r])
                        for r in (slice(fine_nodes), slice(fine_nodes, None)))
        # how far a few ulps of the gap's terms can move the fine rule's
        # value, at nodes that see the gap: one that reads it as zero
        # reads the same in both rules, and on an affine stretch of f
        # (huber's arms) ulps^p would swamp the bar for p < 1
        part = (slice(None), slice(fine_nodes))
        g = gap[part]
        ulps = 16 * _EPS * (np.abs(fx[part]) + np.abs(plane[part])
                            + np.abs(off))
        fuzz = np.where(g > 0, (g + ulps) ** p
                        - np.maximum(g - ulps, 0.0) ** p, 0.0) * w[part]
        floor = length * np.einsum("ij,ij->i", fuzz, wt[part])
        bar = np.abs(fine - coarse)
        if p < 1:
            bar = np.maximum(bar, floor)
        out[:, s:s + n] = fine, bar, floor
    return out


def exact_1d_piecewise_integral(f, l, p, omega, rel_tol=1e-12):
    """Cell-by-cell integral of (f - l)^p omega in one dimension.

    The 1-d case of :func:`exact_2d_cell_integral`: each cell of l
    (:func:`envelope_cells_1d`), cut where f'' jumps
    (``f.hessian_jumps``, ``huber``'s +-delta) so that f is smooth on
    each part, is two segments from the tangency point of its piece
    (:func:`_tangency_points`, inside the part), or from the part's
    middle where there is none (``huber``'s arms, a tangent clipped away
    or lying in another part), under :func:`_segment_sums`.  For p < 1,
    where rounding the gap near z moves the integral more than the rules
    can show, a bar is at least its rounding floor.  ``quadrature.refine``
    halves the largest bars until their sum is at most ``rel_tol`` of the
    value, or 16 times the first segment count.  Returns an
    :class:`ErrorReport` with that sum as its bar and 20 nodes a segment.
    """
    if f.dim != 1:
        raise ValueError("exact integration path requires one dimension")
    if p <= 0:
        raise ValueError("p must be positive")
    lo, hi = f.domain.bounding_box()
    idxs, edges = envelope_cells_1d(l, (float(lo[0]), float(hi[0])))
    jumps = np.asarray(f.hessian_jumps[0], dtype=float)
    cuts = np.union1d(edges, jumps[(jumps > edges[0]) & (jumps < edges[-1])])
    idxs = idxs[np.searchsorted(edges, cuts[:-1], side="right") - 1]
    edges = cuts
    slopes = np.asarray(l.slopes, dtype=float).reshape(-1)
    offsets = np.asarray(l.offsets, dtype=float)
    left, right = edges[:-1, None], edges[1:, None]
    z, found = _tangency_points(
        f, slopes[idxs, None], offsets[idxs], (left + right) / 2.0,
        float(np.max(np.abs(edges))),
        lambda z: ((left <= z) & (z <= right))[:, 0])
    seg = Pieces(piece=np.repeat(idxs, 2), z=np.repeat(z[:, 0], 2),
                 tangent=np.repeat(found, 2),
                 g=np.column_stack([left, right]).reshape(-1),
                 u=np.tile([0.0, 1.0], (2 * idxs.size, 1)))
    value, bar, nodes = refine(
        lambda part: _segment_sums(f, omega, p, part, slopes, offsets),
        lambda part, idx: part.take(idx).halves(u=slice(None)),
        seg, sum(_SEGMENT_RULES), rel_tol, _MAX_GROWTH * seg.size)
    return ErrorReport(value=max(value, 0.0), error_bar=bar, nodes_used=nodes)


# ---------------------------------------------------------------------------
# two dimensions: power-diagram cells

_RULES = ((4, 6), (3, 4))   # (ray, edge) nodes of the fine and coarse rule
_NODES = sum(nu * nv for nu, nv in _RULES)
_SECTOR_BLOCK = 1024        # sectors per integrand call: 36,864 nodes
_ARC_STEP = np.pi / 8       # widest arc of a ball's boundary in one sector
_REL_TOL = 1e-9             # summed bar sought, relative to the value
_FAN_REL_TOL = 1e-12        # the same for fan_integral's smooth integrands


def _cross(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _power_diagram(a, b, centre, radius):
    """Pieces that can win on a disc, and the edges between their cells.

    The cells of max_j (a_j . x + b_j) form a power diagram: its vertices
    are the lower facets of the hull of the lifted points (a_j, -b_j), and
    two lower facets that share a hull edge (i, j) bound the edge between
    cells i and j.  Duplicate pieces, and pieces below another one all
    over the disc, are dropped first.  Three sentinel pieces, steeper than
    every piece and below the envelope all over the disc, close every
    cell; edges of a sentinel cell lie outside the disc and are dropped.
    The hull works in the disc's unit coordinates, with the mean slope and
    the top offset taken out, so its points are of the size of the
    envelope's variation over the disc.

    Returns (owners, i, j, start, end): the pieces that own a cell, and
    per edge its two pieces and end points.
    """
    _, first = np.unique(np.column_stack([a, b]), axis=0, return_index=True)
    first = np.sort(first)
    sa = (a[first] - a[first].mean(axis=0)) * radius
    sb = a[first] @ centre + b[first]
    sb -= sb.max()
    reach = np.hypot(sa[:, 0], sa[:, 1])
    floor = np.max(sb - reach)          # the envelope is above it on the disc
    slack = 1e-12 * (reach.max() + np.abs(sb).max())
    keep = sb + reach >= floor - slack
    kept, sa, sb = first[keep], sa[keep], sb[keep]
    rho = float(reach[keep].max()) or 1.0
    angle = np.pi / 2 + 2 * np.pi / 3 * np.arange(3)
    sentinels = np.column_stack([4 * rho * np.cos(angle),
                                 4 * rho * np.sin(angle),
                                 np.full(3, 5 * rho - floor)])
    hull = ConvexHull(np.vstack([np.column_stack([sa, -sb]), sentinels]))
    eq, simplex, nb = hull.equations, hull.simplices, hull.neighbors
    lower = eq[:, 2] < 0
    with np.errstate(divide="ignore", invalid="ignore"):
        vert = centre - radius * eq[:, :2] / eq[:, 2:3]
    facet, slot = np.nonzero(lower[:, None] & lower[nb]
                             & (np.arange(len(eq))[:, None] < nb))
    i = simplex[facet, (slot + 1) % 3]
    j = simplex[facet, (slot + 2) % 3]
    real = (i < kept.size) & (j < kept.size)
    facet, i, j = facet[real], i[real], j[real]
    # the domain's sides are cut among the pieces the hull gives a cell,
    # so a piece that ties another up to rounding (huber's arms give
    # tangents whose offsets differ by an ulp) sits on the same side of
    # both decisions
    owners = np.unique(simplex[lower])
    owners = kept[owners[owners < kept.size]]
    return owners, kept[i], kept[j], vert[facet], vert[nb[facet, slot[real]]]


def _polygon_boundary(sides, a, b, kept, inset):
    """The domain's ``sides``, cut where the winning piece changes.

    Along each side the envelope restricted to the side's line is a 1-d
    envelope, and :func:`envelope_cells_1d` labels its cells.  It is read
    ``inset`` inside the side, so of two pieces tied along the side the
    one that wins inside takes it.  Each cut then moves to where its two
    pieces cross on the side itself, the point where the edge between
    their cells meets the side, so every cell's boundary closes.  Sides
    run counterclockwise, so each lies with its cell on the left.
    """
    piece, start, vec = [], [], []
    for normal, base, along, lo, hi in sides:
        inside = base - inset * normal / np.sqrt(normal @ normal)
        slope = a[kept] @ along
        idx, edges = envelope_cells_1d(
            PiecewiseAffineMax(slope[:, None], a[kept] @ inside + b[kept]),
            (lo, hi))
        level = a[kept] @ base + b[kept]
        left, right = idx[:-1], idx[1:]
        cross = (level[left] - level[right]) / (slope[right] - slope[left])
        edges[1:-1] = np.maximum.accumulate(np.clip(cross, lo, hi))
        piece.append(kept[idx])
        start.append(base + edges[:-1, None] * along)
        vec.append(np.diff(edges)[:, None] * along)
    return (np.concatenate(piece), np.concatenate(start),
            np.concatenate(vec))


def _clip_ball(start, vec, centre, radius):
    """Parameter range within [0, 1] of start + t vec inside the ball, and
    which ends were cut by its circle."""
    rel = start - centre
    qa = np.einsum("ij,ij->i", vec, vec)
    qb = np.einsum("ij,ij->i", rel, vec)
    qc = np.einsum("ij,ij->i", rel, rel) - radius * radius
    disc = qb * qb - qa * qc
    root = np.sqrt(np.maximum(disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t0, t1 = (-qb - root) / qa, (-qb + root) / qa
    ok = (qa > 0) & (disc > 0)
    lo = np.where(ok, np.maximum(t0, 0.0), 0.0)
    hi = np.where(ok, np.minimum(t1, 1.0), 0.0)
    return lo, hi, ok & (t0 > 0) & (t0 < hi), ok & (t1 < 1) & (t1 > lo)


def _arcs(exits, a, b, kept, centre, radius):
    """The circle cut at the angles ``exits``, each arc labelled by the
    piece that wins at its middle and split into arcs of at most
    ``_ARC_STEP``.  Returns (piece, first angle, angle swept)."""
    cuts = np.unique(np.mod(exits, 2 * np.pi))
    if cuts.size == 0:
        cuts = np.zeros(1)
    sweep = np.diff(np.append(cuts, cuts[0] + 2 * np.pi))
    parts = np.maximum(np.ceil(sweep / _ARC_STEP), 1).astype(int)
    first = np.repeat(cuts, parts)
    step = np.repeat(sweep / parts, parts)
    first = first + step * (np.arange(parts.sum())
                            - np.repeat(np.cumsum(parts) - parts, parts))
    mid = first + step / 2
    pts = centre + radius * np.column_stack([np.cos(mid), np.sin(mid)])
    win = np.argmax(pts @ a[kept].T + b[kept], axis=1)
    return kept[win], first, step


class _Sectors(Pieces):
    """Sectors x = z + u (g(v) - z) of cells, for u in [u0, u1] and v in
    [v0, v1], where g is a segment s + v d or an arc of the domain's
    circle (``arc``; s holds the first angle and the angle swept)."""

    def curve(self, v, centre, radius):
        """Points g(v) and tangents g'(v), v of shape (sectors, nodes)."""
        pt = self.s[:, None, :] + v[..., None] * self.d[:, None, :]
        tan = np.broadcast_to(self.d[:, None, :], pt.shape).copy()
        if self.arc.any():
            k = self.arc
            ang = self.s[k, 0, None] + v[k] * self.s[k, 1, None]
            unit = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
            pt[k] = centre + radius * unit
            tan[k] = (radius * self.s[k, 1, None, None]
                      * np.stack([-unit[..., 1], unit[..., 0]], axis=-1))
        return pt, tan

    def longer_rays(self, centre, radius):
        """Where a sector is longer along its rays than across them, both
        measured through the middle of its edge."""
        g, dg = self.curve(self.v.mean(axis=1, keepdims=True), centre,
                           radius)
        ray = (self.u[:, 1] - self.u[:, 0]) * np.hypot(*(g[:, 0] - self.z).T)
        edge = (self.u[:, 1] * (self.v[:, 1] - self.v[:, 0])
                * np.hypot(*dg[:, 0].T))
        return ray > edge


def _sector_nodes(blk, beta, centre, radius):
    """Nodes, weights and Jacobian cross products of a block of sectors.

    Sectors from a tangency point (``tangent``) take a Gauss-Jacobi rule
    of weight u^beta along their rays, sectors from any other apex one of
    weight u (the Jacobian's), and sectors that start past the apex
    (u0 > 0) Gauss-Legendre; the edge takes Gauss-Legendre.  Returns the
    nodes of every rule of ``_RULES`` in turn, shape (sectors, nodes, 2),
    and per rule the (sectors, ray, edge) weights and the (sectors, edge)
    cross products cross(g - z, g'), as :func:`_rule_sums` takes them.
    """
    n = blk.size
    u0, u1 = blk.u[:, :1], blk.u[:, 1:]
    v0, v1 = blk.v[:, :1], blk.v[:, 1:]
    singular = u0 == 0
    tangent = blk.tangent[:, None]
    ray = np.where(tangent, beta, 1.0)
    pts, weights, crosses = [], [], []
    for nu, nv in _RULES:
        xu, wu = _gauss01(nu)
        xv, wv = _gauss01(nv)
        ts, tw = _jacobi01(nu, beta)
        fs, fw = _jacobi01(nu, 1.0)
        js, jw = np.where(tangent, ts, fs), np.where(tangent, tw, fw)
        uu = np.where(singular, u1 * js, u0 + (u1 - u0) * xu)
        wuu = np.where(singular, u1 * jw / js ** ray, (u1 - u0) * wu)
        g, dg = blk.curve(v0 + (v1 - v0) * xv, centre, radius)
        rel = g - blk.z[:, None, :]
        x = blk.z[:, None, None, :] + uu[:, :, None, None] * rel[:, None]
        pts.append(x.reshape(n, -1, 2))
        weights.append((wuu * uu)[:, :, None] * ((v1 - v0) * wv)[:, None, :])
        crosses.append(_cross(rel, dg))
    return np.concatenate(pts, axis=1), weights, crosses


def _rule_sums(vals, weights, crosses):
    """Each rule's value from integrand values at the nodes of
    :func:`_sector_nodes`, shape (rules, sectors); given the weights and
    cross products of the first rules only, it sums those."""
    n, at, out = vals.shape[0], 0, []
    for (nu, nv), wt, cr in zip(_RULES, weights, crosses):
        out.append(np.einsum("iuv,iuv,iv->i",
                             vals[:, at:at + nu * nv].reshape(n, nu, nv),
                             wt, cr))
        at += nu * nv
    return np.array(out)


def _sector_sums(f, omega, p, sec, a, b, centre, radius):
    """Value, bar and rounding floor of each sector.

    Along a ray from a tangency point the gap f - l_j vanishes like u^2,
    so (gap / u^2)^p is smooth and a Gauss-Jacobi rule of weight u^(2p+1)
    takes the rest of the integrand (:func:`_sector_nodes`).  The value
    is the fine rule's, the bar its distance to the coarse one, and the
    floor what rounding the gap by a few ulps of its terms could put into
    the bar.
    """
    out = np.empty((len(_RULES) + 1, sec.size))
    for s in range(0, sec.size, _SECTOR_BLOCK):
        blk = sec.take(slice(s, s + _SECTOR_BLOCK))
        n = blk.size
        x, weights, crosses = _sector_nodes(blk, 2.0 * p + 1.0, centre,
                                            radius)
        fx = f.value(x.reshape(-1, 2))
        w = np.asarray(omega(x.reshape(-1, 2), fx), dtype=float).reshape(n, -1)
        if np.any(w < 0):
            raise WeightError("weight is negative on quadrature nodes")
        fx = fx.reshape(n, -1)
        plane = rowdot(x, a[blk.piece, None])
        offset = b[blk.piece, None]
        gap = np.maximum(fx - plane - offset, 0.0)
        vals = gap ** p * w
        # what a few ulps of the gap's terms move each value by
        ulps = 16 * _EPS * (np.abs(fx) + np.abs(plane) + np.abs(offset))
        fuzz = (gap + ulps) ** p * w - vals
        out[:-1, s:s + n] = _rule_sums(vals, weights, crosses)
        out[-1, s:s + n] = 2 * _rule_sums(fuzz, [np.abs(weights[0])],
                                          [np.abs(crosses[0])])[0]
    fine, coarse, floor = out
    return fine, np.abs(fine - coarse), floor


def _cell_boundaries(a, b, domain):
    """The boundary of every cell of max_j (a_j . x + b_j) in ``domain``,
    as counterclockwise pieces: (piece, s, d, arc, centre, radius).

    A cell's edges are clipped by the domain's half-spaces, or by its
    circle, and the domain's own boundary is cut where the winning piece
    changes.  Row k is the segment s_k + v d_k, v in [0, 1], or, where
    ``arc``, the arc of the circle (centre, radius) from angle s_k[0]
    over s_k[1].  Each edge between cells i and j lies with cell i on the
    left when its direction turns counterclockwise to a_i - a_j, since
    l_i - l_j grows along a_i - a_j.
    """
    lo, hi = domain.bounding_box()
    centre = (lo + hi) / 2.0
    reach = float(np.hypot(*(hi - lo))) / 2.0
    kept, i, j, start, end = _power_diagram(a, b, centre, reach)
    vec = end - start
    radius = float(hi[0] - lo[0]) / 2.0
    if domain.kind == "ball":
        t0, t1, cut0, cut1 = _clip_ball(start, vec, centre, radius)
        rim = np.vstack([(start + t0[:, None] * vec)[cut0],
                         (start + t1[:, None] * vec)[cut1]]) - centre
        rim_piece, first, sweep = _arcs(np.arctan2(rim[:, 1], rim[:, 0]),
                                        a, b, kept, centre, radius)
        rim_s = np.column_stack([first, sweep])
        rim_d = np.zeros_like(rim_s)
    else:
        ha, hb = domain.halfspaces()
        t0, t1 = _clip_halfspaces(start, vec, ha, hb, 0.0, 1.0)
        # An edge along a side, to rounding, parts the cell inside from one
        # with no area in the domain; it is dropped, and the side, read a
        # hair inside, goes to the inner cell.
        hair = 1e-13 * (np.abs(centre).max() + reach)
        room = [hb - (start + t[:, None] * vec) @ ha.T for t in (t0, t1)]
        flat = np.linalg.norm(ha, axis=1) * hair
        t1 = np.where(np.any((room[0] <= flat) & (room[1] <= flat), axis=1),
                      t0, t1)
        rim_piece, rim_s, rim_d = _polygon_boundary(domain.sides(), a, b,
                                                    kept, 10 * hair)
    cut = t1 > t0
    i, j = i[cut], j[cut]
    s = start[cut] + t0[cut, None] * vec[cut]
    d = (t1 - t0)[cut, None] * vec[cut]
    turn = _cross(d, a[i] - a[j])
    fwd = (turn > 0)[:, None]
    keep = turn != 0
    piece = np.concatenate([i[keep], j[keep], rim_piece])
    s = np.vstack([np.where(fwd, s, s + d)[keep],
                   np.where(fwd, s + d, s)[keep], rim_s])
    d = np.vstack([np.where(fwd, d, -d)[keep], np.where(fwd, -d, d)[keep],
                   rim_d])
    arc = np.zeros(piece.size, dtype=bool)
    if domain.kind == "ball":
        arc[piece.size - rim_piece.size:] = True
    return piece, s, d, arc, centre, radius


def _cell_means(sec, centre, radius):
    """The mean of the boundary points of each sector's cell, which lies
    in the (convex) clipped cell, as (cells, inverse, means): cell
    ``cells[k]`` has mean ``means[k]``, and sector i is in cell
    ``cells[inverse[i]]``."""
    ends, _ = sec.curve(np.tile([0.0, 0.5, 1.0], (sec.size, 1)), centre,
                        radius)
    cells, inv = np.unique(sec.piece, return_inverse=True)
    count = 3 * np.bincount(inv, minlength=cells.size)
    mean = np.column_stack([np.bincount(inv, weights=ends[..., k].sum(axis=1),
                                        minlength=cells.size) / count
                            for k in range(2)])
    return cells, inv, mean


def exact_2d_cell_integral(f, l, p, omega):
    """Cell-by-cell integral of (f - l)^p omega over a planar domain.

    The cells of l (:func:`_power_diagram`) are cut along the lines where
    D^2 f jumps (``f.hessian_jumps``, ``huber``'s |x_k| = delta), so that
    f is smooth on each part: the pieces l_j + s_k, for the pieces s_k of
    :func:`_slab_pieces`, have the parts cell j x slab k as their cells,
    which :func:`_cell_boundaries` clips to the domain.  Each part is the
    fan of sectors z + u (g(v) - z) over its boundary pieces g, with the
    signed Jacobian u cross(g - z, g'), and integrates f - l_j.  Signed
    areas make the fan exact for any apex z.  The apex is the tangency
    point of l_j, so the integrand is smooth for every p > 0 once a
    Gauss-Jacobi rule takes u^(2p+1); where Newton finds none (a singular
    Hessian), or the gap there is not at rounding level, or it lies
    outside the domain or the slab, the apex is the mean of the part's
    boundary points (:func:`_cell_means`) and the weight is u.

    A sector's bar is its fine (4 x 6) minus its coarse (3 x 4) rule; for
    the halves of a cut sector it is also half of how far they moved
    their parent's value.  ``quadrature.refine`` cuts the largest bars
    until the summed bar is at most 1e-9 of the total, or 16 times the
    first sector count: across the edge from a tangency point, where the
    integrand is slow along the edge, and across the longer side
    elsewhere.  Returns an :class:`ErrorReport` with that sum as its bar
    and the nodes evaluated.
    """
    if f.dim != 2:
        raise ValueError("cell integration is planar")
    if p <= 0:
        raise ValueError("p must be positive")
    a = np.asarray(l.slopes, dtype=float)
    b = np.asarray(l.offsets, dtype=float)
    sa, sb = _slab_pieces(f.hessian_jumps)
    piece, s, d, arc, centre, radius = _cell_boundaries(
        (a[:, None] + sa).reshape(-1, 2), (b[:, None] + sb).reshape(-1),
        f.domain)
    n = piece.size
    sec = _Sectors(piece=piece, z=None, tangent=None, arc=arc, s=s, d=d,
                   u=np.tile([0.0, 1.0], (n, 1)), v=np.tile([0.0, 1.0], (n, 1)))
    cells, inv, mean = _cell_means(sec, centre, radius)
    j, k = np.divmod(cells, sb.size)

    def inside(z):
        level = z @ sa.T + sb
        return (f.domain.contains(z)
                & (level[np.arange(k.size), k] >= level.max(axis=1)))

    z, found = _tangency_points(f, a[j], b[j], mean,
                                np.abs(centre).max() + radius, inside)
    sec.piece, sec.z, sec.tangent = j[inv], z[inv], found[inv]

    def split(part, idx):
        part = part.take(idx)
        cut = part.longer_rays(centre, radius) & ~part.tangent
        return part.halves(u=cut, v=~cut)

    value, bar, nodes = refine(
        lambda part: _sector_sums(f, omega, p, part, a, b, centre, radius),
        split, sec, _NODES, _REL_TOL, _MAX_GROWTH * n)
    return ErrorReport(value=max(value, 0.0), error_bar=bar, nodes_used=nodes)


def _slab_pieces(jumps):
    """Slopes and offsets of sum_k max_i (i x_k - sum_{j<=i} c_{k,j}),
    c_k the sorted lines ``jumps[k]`` and i = 0 the zero piece: its
    power-diagram cells are the products of the slabs between the lines
    of each axis.  With no lines it is the one piece 0."""
    offsets = [np.concatenate([[0.0], -np.cumsum(np.sort(c))]) for c in jumps]
    index = np.meshgrid(*(np.arange(o.size) for o in offsets), indexing="ij")
    a = np.column_stack([i.ravel() for i in index]).astype(float)
    return a, sum(o[i.ravel()] for o, i in zip(offsets, index))


def _density_sums(func, sec, centre, radius):
    """Value, bar and floor of each sector for the integrand ``func``: the
    fine rule's value, its distance to the coarse one, and 0."""
    out = np.empty((len(_RULES), sec.size))
    for s in range(0, sec.size, _SECTOR_BLOCK):
        blk = sec.take(slice(s, s + _SECTOR_BLOCK))
        x, weights, crosses = _sector_nodes(blk, 1.0, centre, radius)
        vals = np.asarray(func(x.reshape(-1, 2)), dtype=float)
        out[:, s:s + blk.size] = _rule_sums(vals.reshape(blk.size, -1),
                                            weights, crosses)
    fine, coarse = out
    return fine, np.abs(fine - coarse), np.zeros(sec.size)


def fan_integral(func, region, jumps):
    """Integral of ``func`` over a planar box, ball or polytope ``region``.

    ``func``, vectorised over (N, 2) points, is smooth except across the
    lines x_k = c, c in ``jumps[k]``.  Those lines are the cell edges of
    the pieces of :func:`_slab_pieces`, so :func:`_cell_boundaries` cuts
    the region along them; with no lines the region is one cell.  Each
    cell is a fan of sectors from the mean of its boundary points
    (:func:`_cell_means`), under the rules of the error's sectors with
    the Jacobian's weight u along the rays (:func:`_sector_nodes`).
    ``quadrature.refine`` cuts the largest fine-minus-coarse bars, across
    the longer side, until their sum is at most 1e-12 of the value or the
    count reaches 16 times the first.  Returns an :class:`ErrorReport`
    with that sum as its bar and the nodes evaluated.
    """
    a, b = _slab_pieces(jumps)
    piece, s, d, arc, centre, radius = _cell_boundaries(a, b, region)
    n = piece.size
    sec = _Sectors(piece=piece, z=None, tangent=np.zeros(n, dtype=bool),
                   arc=arc, s=s, d=d, u=np.tile([0.0, 1.0], (n, 1)),
                   v=np.tile([0.0, 1.0], (n, 1)))
    _, inv, mean = _cell_means(sec, centre, radius)
    sec.z = mean[inv]

    def split(part, idx):
        cut = part.take(idx).longer_rays(centre, radius)
        return part.take(idx).halves(u=cut, v=~cut)

    value, bar, nodes = refine(
        lambda part: _density_sums(func, part, centre, radius), split, sec,
        _NODES, _FAN_REL_TOL, _MAX_GROWTH * n)
    return ErrorReport(value=value, error_bar=bar, nodes_used=nodes)


def weighted_lp_error(f, l, p, omega, quad=None):
    """Weighted L^p error report for a circumscribed envelope.

    Verifies l <= f + 1e-9 on a fixed probe cloud first.  The default
    (``quad=None``) integrates cell by cell, to a summed bar of 1e-9 of
    the value: the exact 1-d path (:func:`exact_1d_piecewise_integral`)
    on an interval, power-diagram cells (:func:`exact_2d_cell_integral`)
    on a planar region.  An explicit ``QuadratureSpec`` selects
    ``tensor_grid`` or ``monte_carlo`` (or ``exact_1d`` in one dimension)
    instead.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    validate = getattr(omega, "validate_positive", None)
    if validate is not None:
        validate(f.domain)
    cloud = _probe_cloud(f.domain)
    worst = max_violation(f, l, cloud)
    if worst > _CIRC_TOL:
        raise CircumscriptionError(
            f"envelope exceeds the function by {worst:.3e} on the probe cloud")

    if quad is None and f.dim == 2:
        return exact_2d_cell_integral(f, l, p, omega)
    quad = quad or QuadratureSpec(kind="exact_1d")
    if quad.kind == "exact_1d":
        return exact_1d_piecewise_integral(f, l, p, omega,
                                           rel_tol=quad.rel_tol)

    def integrand(x):
        pts = as_points(x, f.dim)
        vals = f.value(pts)
        gap = np.maximum(vals - l.evaluate(pts), 0.0)
        w = np.asarray(omega(pts, vals), dtype=float)
        if np.any(w < 0):
            raise WeightError("weight is negative on quadrature nodes")
        return gap ** p * w

    return integrate(integrand, f.domain, quad)
