"""Core geometry: domains, smooth convex test functions, tangent planes,
and max-of-affine (circumscribed piecewise-affine) envelopes.

The function catalog is closed and serializable: every entry is named by a
``catalog_id`` plus a parameter dict, so configurations round-trip through
plain JSON.  Catalog entries supply exact gradients and Hessians; a finite
difference cross-check (:func:`hessian_fd_check`) guards against drift
between the value and derivative implementations.

Points are numpy arrays: a single point has shape (n,), a batch (N, n).
All catalog callables are vectorized over batches, and each row's result
is the one a call on that row alone gives (:func:`rowdot`).
"""

import json
from dataclasses import dataclass

import numpy as np

from .quadrature import _ROW_BLOCK


class DomainError(ValueError):
    """A point or region fell outside the domain of definition."""


class NumericsError(RuntimeError):
    """A numeric contract was violated (non-PD metric, bad weight, ...)."""


class MetricError(NumericsError):
    """Quadratic form is not symmetric positive definite."""


class WeightError(NumericsError):
    """Weight function evaluated non-positive where positivity is required."""


class CircumscriptionError(NumericsError):
    """An alleged lower envelope exceeded the function it should support."""


def as_points(x, dim):
    """Coerce ``x`` to a (N, dim) float array; scalars allowed when dim==1."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        if dim != 1:
            raise ValueError("scalar point only valid in one dimension")
        return a.reshape(1, 1)
    if a.ndim == 1:
        if a.size == dim:
            return a.reshape(1, dim)
        if dim == 1:
            return a.reshape(-1, 1)
        raise ValueError(f"point of length {a.size} does not match dimension {dim}")
    if a.ndim == 2 and a.shape[1] == dim:
        return a
    raise ValueError(f"cannot interpret array of shape {a.shape} as points in R^{dim}")


# ---------------------------------------------------------------------------
# domains


def _clip_halfspaces(start, vec, a, b, lo, hi):
    """Parameter range [lo, hi] of start + t vec inside {a x <= b}."""
    num = b - start @ a.T
    den = vec @ a.T
    with np.errstate(divide="ignore", invalid="ignore"):
        t = num / den
    lo = np.maximum(lo, np.max(np.where(den < 0, t, -np.inf), axis=1))
    hi = np.minimum(hi, np.min(np.where(den > 0, t, np.inf), axis=1))
    blocked = np.any((den == 0) & (num < 0), axis=1)
    return lo, np.where(blocked, lo, hi)


def _polygon_sides(a, b):
    """The rows of {a x <= b} whose side has positive length, and per side
    (normal, base, along, lo, hi): base + t along, t in [lo, hi] (maybe
    infinite), is its line clipped by the other rows, run counterclockwise.
    Rows on one line to rounding (a repeated row, maybe scaled) count as
    the first, since clipping one by another could cut the side anywhere."""
    line = np.column_stack([a, b]) / np.linalg.norm(a, axis=1)[:, None]
    near = np.all(np.abs(line[:, None] - line)
                  <= 1e-12 * np.abs(line).max(axis=0), axis=2)
    rows = np.flatnonzero(np.argmax(near, axis=1) == np.arange(b.size))
    kept, sides = [], []
    for k, normal in zip(rows, a[rows]):
        base = normal * b[k] / (normal @ normal)
        along = np.array([-normal[1], normal[0]])
        other = rows[rows != k]
        lo, hi = _clip_halfspaces(base[None], along[None], a[other], b[other],
                                  -np.inf, np.inf)
        if hi[0] > lo[0]:
            kept.append(k)
            sides.append((normal, base, along, lo[0], hi[0]))
    return np.array(kept, dtype=int), sides


class Domain:
    """Compact region: axis-aligned box, closed ball, or bounded polygon.

    A polygon (``polytope``) is ``A x <= b`` in the plane, kept with its
    sides (:meth:`sides`), which give its bounding box, Chebyshev center,
    volume and least linear value exactly.  A non-box samples by
    rejection from its bounding box.
    """

    def __init__(self, kind, dim, **data):
        self.kind = kind
        self.dim = dim
        self._data = data

    # -- constructors -------------------------------------------------
    @classmethod
    def box(cls, lower, upper):
        lower = np.atleast_1d(np.asarray(lower, dtype=float)).copy()
        upper = np.atleast_1d(np.asarray(upper, dtype=float)).copy()
        if lower.shape != upper.shape or lower.ndim != 1:
            raise DomainError("box bounds must be 1-d arrays of equal length")
        if not np.all(lower < upper):
            raise DomainError("box must be full dimensional (lower < upper)")
        lower.flags.writeable = False
        upper.flags.writeable = False
        return cls("box", lower.size, lower=lower, upper=upper)

    @classmethod
    def ball(cls, center, radius):
        center = np.atleast_1d(np.asarray(center, dtype=float)).copy()
        radius = float(radius)
        if radius <= 0:
            raise DomainError("ball must be full dimensional (radius > 0)")
        center.flags.writeable = False
        return cls("ball", center.size, center=center, radius=radius)

    @classmethod
    def polytope(cls, a, b):
        """The polygon ``{x : a x <= b}`` of the plane (an interval is a
        box), refused when unbounded or without interior.  Its Chebyshev
        center, where the largest inscribed circle touches three sides,
        solves ``a_i . x + |a_i| r = b_i`` on their rows."""
        a, b = np.array(a, dtype=float), np.atleast_1d(np.array(b, dtype=float))
        if (a.shape != (b.size, 2) or not np.any(a, axis=1).all()
                or not np.isfinite(np.column_stack([a, b])).all()):
            raise DomainError("polytope rows must be planar, finite and nonzero")
        kept, sides = _polygon_sides(a, b)
        if len(sides) < 3 or not np.all(np.isfinite([s[3:] for s in sides])):
            raise DomainError("polytope must be bounded, with an interior")
        ends = np.array([[base + lo * along, base + hi * along]
                         for _, base, along, lo, hi in sides])
        # Solved with its two neighbours (sides sorted by normal angle), a
        # row gives the r at which its side of {a x + |a| r <= b} shrinks
        # away for good; the last three sides touch the inscribed circle.
        rows = np.column_stack([a, np.linalg.norm(a, axis=1)])
        ring = kept[np.argsort(np.arctan2(a[kept, 1], a[kept, 0]))]
        for _ in range(ring.size - 2):
            trio = np.sort([np.roll(ring, 1), ring, np.roll(ring, -1)], axis=0).T
            sol = np.linalg.solve(rows[trio], b[trio][..., None])[..., 0]
            ring = np.delete(ring, np.argmin(sol[:, 2]))
        if not sol[0, 2] > 1e-12:
            raise DomainError("polytope must have non-empty interior")
        lower, upper = ends.min(axis=(0, 1)), ends.max(axis=(0, 1))
        for arr in (a, b, lower, upper):
            arr.flags.writeable = False
        return cls("polytope", 2, a=a, b=b, sides=sides, ends=ends,
                   lower=lower, upper=upper, center=sol[0, :2])

    @classmethod
    def from_config(cls, cfg):
        kind = cfg.get("kind")
        if kind == "box":
            return cls.box(cfg["lower"], cfg["upper"])
        if kind == "ball":
            return cls.ball(cfg["center"], cfg["radius"])
        if kind == "polytope":
            return cls.polytope(cfg["a"], cfg["b"])
        raise DomainError(f"unknown domain kind {kind!r}")

    def to_config(self):
        if self.kind == "box":
            return {"kind": "box", "lower": self._data["lower"].tolist(),
                    "upper": self._data["upper"].tolist()}
        if self.kind == "ball":
            return {"kind": "ball", "center": self._data["center"].tolist(),
                    "radius": self._data["radius"]}
        return {"kind": "polytope", "a": self._data["a"].tolist(),
                "b": self._data["b"].tolist()}

    # -- geometry ------------------------------------------------------
    def bounding_box(self):
        if self.kind == "ball":
            c, r = self._data["center"], self._data["radius"]
            return c - r, c + r
        return self._data["lower"], self._data["upper"]

    def halfspaces(self):
        """``(A, b)`` with the region ``{x : A x <= b}``: a box's upper
        faces then its lower ones, a polytope's own rows.  A ball is no
        finite intersection of half-spaces and raises ``DomainError``."""
        if self.kind == "box":
            eye = np.eye(self.dim)
            return (np.vstack([eye, -eye]),
                    np.concatenate([self._data["upper"], -self._data["lower"]]))
        if self.kind == "ball":
            raise DomainError("a ball has no half-space description")
        return self._data["a"], self._data["b"]

    def sides(self):
        """The sides of a planar box or polygon (:func:`_polygon_sides`);
        a ball, or a region off the plane, raises ``DomainError``."""
        if self.dim != 2:
            raise DomainError("only a planar region has sides")
        return self._data.get("sides") or _polygon_sides(*self.halfspaces())[1]

    def contains(self, x):
        pts = as_points(x, self.dim)
        if self.kind == "box":
            lo, hi = self._data["lower"], self._data["upper"]
            return np.all((pts >= lo) & (pts <= hi), axis=1)
        if self.kind == "ball":
            c, r = self._data["center"], self._data["radius"]
            return np.einsum("ij,ij->i", pts - c, pts - c) <= r * r
        a, b = self._data["a"], self._data["b"]
        return np.all(pts @ a.T <= b + 1e-12, axis=1)

    def volume(self):
        if self.kind == "box":
            return float(np.prod(self._data["upper"] - self._data["lower"]))
        if self.kind == "ball":
            r, n = self._data["radius"], self.dim
            from scipy.special import gamma

            return float(np.pi ** (n / 2) / gamma(n / 2 + 1) * r ** n)
        # half the sum of cross(start, end) over the sides
        return 0.5 * float(np.sum(np.linalg.det(self._data["ends"])))

    def least(self, c):
        """The least value of c . x, c an array, over the region: at a box
        corner or a polygon vertex, and c . center - |c| r on a ball."""
        if self.kind == "box":
            lo, hi = self._data["lower"], self._data["upper"]
            return float(np.sum(np.minimum(c * lo, c * hi)))
        if self.kind == "ball":
            return float(c @ self._data["center"]
                         - np.linalg.norm(c) * self._data["radius"])
        return float(np.min(self._data["ends"] @ c))

    def centroid(self):
        if self.kind == "box":
            return (self._data["lower"] + self._data["upper"]) / 2.0
        return self._data["center"].copy()

    def sample(self, rng, count):
        """Uniform sample of the region (rejection for non-boxes).

        A non-box draws batches of ``max(count, 1024)`` rows from its
        bounding box and keeps the rows inside, in order, until it has
        ``count``.  Each batch is drawn ``_ROW_BLOCK`` rows at a time, and
        the rest of the last batch is drawn and dropped, so ``rng`` ends
        where one draw of every whole batch leaves it.
        """
        lo, hi = self.bounding_box()
        if self.kind == "box":
            # in place, with the sums of lo + u * (hi - lo)
            out = rng.random((count, self.dim))
            out *= hi - lo
            out += lo
            return out
        out = np.empty((count, self.dim))
        got = 0
        while got < count:
            rows = max(count, 1024)
            for start in range(0, rows, _ROW_BLOCK):
                unit = rng.random((min(_ROW_BLOCK, rows - start), self.dim))
                if got < count:
                    block = lo + unit * (hi - lo)
                    keep = block[self.contains(block)]
                    take = min(count - got, keep.shape[0])
                    out[got:got + take] = keep[:take]
                    got += take
        return out

    def mask(self, x, vals):
        """``vals`` at the points ``x`` inside the region, 0 elsewhere.

        A box returns ``vals`` as they are: a node ``lo + r * (hi - lo)``
        can round past ``hi``, and masking would zero it.
        """
        if self.kind == "box":
            return vals
        return np.where(self.contains(x), vals, 0.0)

    def project(self, pts):
        """Points (N, n) moved into the closed region: ``contains`` holds
        for every finite returned point.

        A box clips.  A ball pulls each outside point onto its sphere, and
        a polytope onto the first face it crosses, along the ray from the
        center (the Chebyshev center of a polytope); a point that rounding
        leaves outside steps each coordinate an ulp toward the center until
        it is inside.
        """
        if self.kind == "box":
            return np.clip(pts, self._data["lower"], self._data["upper"])
        c = self.centroid()
        if self.kind == "ball":
            # inside points go through the ray arithmetic too (scale 1), so
            # iterates that never leave the ball round as they always have
            out = np.arange(len(pts))
            d = pts - c
            norms = np.linalg.norm(d, axis=1)
            r = self._data["radius"]
            scale = np.where(norms > r, r / np.maximum(norms, 1e-300), 1.0)
        else:
            out = np.flatnonzero(~self.contains(pts))
            d = pts[out] - c
            _, scale = _clip_halfspaces(c, d, *self.halfspaces(), 0.0, np.inf)
        moved = np.array(pts, dtype=float)
        moved[out] = c + d * scale[:, None]
        while out.size:
            bad = ~self.contains(moved[out]) \
                & np.all(np.isfinite(moved[out]), axis=1)
            out = out[bad]
            moved[out] = np.nextafter(moved[out], c)
        return moved

    def __repr__(self):
        return f"Domain({self.kind}, dim={self.dim})"


# ---------------------------------------------------------------------------
# affine pieces and envelopes


def rowdot(u, v):
    """Dot products along the last axis, summed coordinate by coordinate:
    unlike a BLAS product's (see :meth:`PiecewiseAffineMax.evaluate`), each
    entry rounds as in a call of its own."""
    out = u[..., 0] * v[..., 0]
    for k in range(1, u.shape[-1]):
        out += u[..., k] * v[..., k]
    return out


# relative slack of the pruning tests: orders of magnitude above the
# rounding of one distance or plane value (a few ulps), far below any
# margin worth pruning
_SLACK = 1e-12
_SCORE_BLOCK = 1 << 18  # doubles per score block of evaluate: 2 MB
_BLOCK = 64             # points per block of the 1-d evaluate


def below_reference(slope, at_centre, ref_slope, ref_at_centre, half, size):
    """Where an affine piece stays below a reference piece over a box.

    The box has half-widths ``half`` (last axis the coordinates) about a
    centre where the piece is worth ``at_centre`` and the reference
    ``ref_at_centre``; the arrays broadcast.  True means the piece, maxed
    over the box, stays below the reference by more than ``2 * _SLACK *
    size``, where ``size`` bounds every term ``|x_k * slope_k|`` and
    ``|offset|`` of both pieces on the box.  That margin covers the
    rounding of both pieces' values, of the box and of this test (a few
    ulps of ``size`` in all), so wherever it holds
    the piece's computed value is below the reference's at every point of
    the box and cannot raise (or tie) a max that includes the reference.
    NaN anywhere gives False.
    """
    top = np.subtract(slope, ref_slope)
    np.abs(top, out=top)
    top *= half
    top = top.sum(axis=-1)
    top += at_centre - ref_at_centre
    top += 2.0 * _SLACK * size
    return top < 0.0


class PiecewiseAffineMax:
    """Finite max of affine functions l(x) = max_j (slope_j . x + offset_j)."""

    def __init__(self, slopes, offsets):
        slopes = np.atleast_2d(np.asarray(slopes, dtype=float)).copy()
        offsets = np.atleast_1d(np.asarray(offsets, dtype=float)).copy()
        if slopes.shape[0] != offsets.size or slopes.shape[0] == 0:
            raise ValueError("need one offset per slope row and at least one piece")
        slopes.flags.writeable = False
        offsets.flags.writeable = False
        self.slopes = slopes
        self.offsets = offsets

    @property
    def npieces(self):
        return self.slopes.shape[0]

    @property
    def dim(self):
        return self.slopes.shape[1]

    def evaluate(self, x, chunk=None):
        """Envelope values at points, the max over pieces of slope . x + offset.

        In n >= 2 every point is scored against every piece, ``chunk`` rows
        at a time (by default about 2 MB of scores per block).

        In one dimension only the pieces that can win are scored.  The
        points are sorted once, stably, into blocks of 64; a block's
        reference is the piece largest at its centre, and a piece that
        stays below the reference over the block's span by a rounding
        margin (:func:`below_reference`, the greedy skip test) is dropped
        there.  The values equal those of the full scan: a dropped piece's
        rounded score is below the reference's at every point of the block,
        so it can neither tie nor beat the max, and a kept piece's score is
        ``fl(fl(x * a) + b)`` either way, because a product with one
        coordinate is rounded once whatever kernel forms it.  With two or
        more coordinates the BLAS product's FMA order depends on the shape
        of the call (one entry of a 1026 x 2 by 2 x 679 product rounds
        differently from its 256-row block), so a scan over a subset of
        pieces could round otherwise and n >= 2 is not pruned.  Coordinate
        passes (:func:`rowdot`) would round each entry alone, but scan
        about 3.3 times slower.
        """
        pts = as_points(x, self.dim)
        if self.dim == 1:
            return self._evaluate_1d(pts[:, 0])
        if chunk is None:
            # keep the (chunk x npieces) score block around 2 MB: it stays
            # in cache, and resident memory does not hinge on whether the
            # allocator finds a block-sized hole in its heap
            chunk = max(64, _SCORE_BLOCK // max(self.npieces, 1))
        out = np.empty(pts.shape[0])
        for s in range(0, pts.shape[0], chunk):
            scores = pts[s:s + chunk] @ self.slopes.T
            scores += self.offsets
            out[s:s + scores.shape[0]] = scores.max(axis=1)
        return out

    def _evaluate_1d(self, x):
        """Pruned one-dimensional :meth:`evaluate` (see there)."""
        count = x.size
        if count == 0:
            return np.empty(0)
        a, b = self.slopes[:, 0], self.offsets
        order = np.argsort(x, kind="stable")
        nblocks = -(-count // _BLOCK)
        # pad the last block with copies of its last point
        xs = np.empty(nblocks * _BLOCK)
        np.take(x, order, out=xs[:count])
        xs[count:] = xs[count - 1]
        xs = xs.reshape(nblocks, _BLOCK)
        centre = (xs[:, -1] + xs[:, 0]) / 2.0
        half = (xs[:, -1] - xs[:, 0]) / 2.0
        size = np.abs(xs).max() * np.abs(a).max() + np.abs(b).max()
        out = np.empty(nblocks * _BLOCK)
        # the skip test holds three (group x npieces) arrays at once: at
        # 1 MB each they take about what the full scan's score block does
        group = max(1, _SCORE_BLOCK // (2 * a.size))
        for s in range(0, nblocks, group):
            at_centre = centre[s:s + group, None] * a + b
            ref = at_centre.argmax(axis=1)
            keep = ~below_reference(
                self.slopes, at_centre, a[ref, None, None],
                np.take_along_axis(at_centre, ref[:, None], axis=1),
                half[s:s + group, None, None], size)
            # the kept pieces of each block, padded with its reference
            kept = keep.sum(axis=1)
            width = int(kept.max())
            idx = np.repeat(ref[:, None], width, axis=1)
            hit_row, hit_col = np.nonzero(keep)
            slot = np.arange(hit_row.size) - np.repeat(np.cumsum(kept) - kept, kept)
            idx[hit_row, slot] = hit_col
            step = max(1, _SCORE_BLOCK // (_BLOCK * width))
            for t in range(0, ref.size, step):
                pick = idx[t:t + step, None, :]
                scores = xs[s + t:s + t + pick.shape[0], :, None] * a[pick]
                scores += b[pick]
                out[(s + t) * _BLOCK:(s + t + pick.shape[0]) * _BLOCK] = (
                    scores.max(axis=2).ravel())
        values = np.empty(count)
        values[order] = out[:count]
        return values

    def __call__(self, x):
        return self.evaluate(x)

    def compose_linear(self, t):
        """Envelope of x -> l(T x): slopes become T^t slope."""
        t = np.asarray(t, dtype=float)
        return PiecewiseAffineMax(self.slopes @ t, self.offsets.copy())

    def shifted(self, c):
        return PiecewiseAffineMax(self.slopes.copy(), self.offsets + float(c))

    # plain numeric text serialization: one row per piece, slope then offset
    def save_text(self, path):
        with open(path, "w") as fh:
            fh.write(f"# maxaffine pieces dim={self.dim} count={self.npieces}\n")
            for j in range(self.npieces):
                row = " ".join(f"{v:.17g}" for v in self.slopes[j])
                fh.write(f"{row} {self.offsets[j]:.17g}\n")

    @classmethod
    def load_text(cls, path):
        rows = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                rows.append([float(v) for v in line.split()])
        arr = np.asarray(rows, dtype=float)
        return cls(arr[:, :-1], arr[:, -1])


@dataclass(frozen=True)
class QuadraticForm:
    """Positive definite form q(y) = y . A y with cached Cholesky factor."""

    matrix: np.ndarray
    factor: np.ndarray  # lower-triangular L with A = L L^t
    det: float

    @classmethod
    def from_matrix(cls, a):
        a = np.atleast_2d(np.asarray(a, dtype=float))
        if a.shape[0] != a.shape[1]:
            raise MetricError("quadratic form matrix must be square")
        if not np.allclose(a, a.T, rtol=0, atol=1e-10 * max(1.0, np.abs(a).max())):
            raise MetricError("quadratic form matrix must be symmetric")
        sym = (a + a.T) / 2.0
        try:
            factor = np.linalg.cholesky(sym)
        except np.linalg.LinAlgError as exc:
            raise MetricError("quadratic form must be positive definite") from exc
        det = float(np.prod(np.diag(factor)) ** 2)
        sym.flags.writeable = False
        factor.flags.writeable = False
        return cls(matrix=sym, factor=factor, det=det)

    @property
    def dim(self):
        return self.matrix.shape[0]

    def __call__(self, y):
        pts = as_points(y, self.dim)
        z = pts @ self.factor  # rows are L^t y
        return np.einsum("ij,ij->i", z, z)


# ---------------------------------------------------------------------------
# weights


class WeightFunction:
    """Positive weight omega(x, t) from a small serializable catalog.

    ``constant``   omega = value
    ``exp_neg_t``  omega = exp(-t)          (t is the function value)
    ``affine_x``   omega = offset + coeffs . x   (validated positive)
    """

    def __init__(self, catalog_id, params):
        self.catalog_id = catalog_id
        self.params = dict(params)
        if catalog_id == "constant":
            v = float(self.params.get("value", 1.0))
            if v <= 0:
                raise WeightError("constant weight must be positive")
            self.params = {"value": v}
        elif catalog_id == "exp_neg_t":
            self.params = {}
        elif catalog_id == "affine_x":
            coeffs = np.atleast_1d(np.asarray(self.params["coeffs"], dtype=float))
            offset = float(self.params.get("offset", 1.0))
            self.params = {"coeffs": coeffs.tolist(), "offset": offset}
        else:
            raise WeightError(f"unknown weight catalog id {catalog_id!r}")

    @classmethod
    def constant(cls, value=1.0):
        return cls("constant", {"value": value})

    @classmethod
    def exp_neg_t(cls):
        return cls("exp_neg_t", {})

    @classmethod
    def affine_x(cls, coeffs, offset=1.0):
        return cls("affine_x", {"coeffs": np.atleast_1d(coeffs).tolist(),
                                "offset": offset})

    @classmethod
    def from_config(cls, cfg):
        return cls(cfg["catalog_id"], cfg.get("parameters", {}))

    def to_config(self):
        return {"catalog_id": self.catalog_id, "parameters": dict(self.params)}

    def __call__(self, x, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if self.catalog_id == "constant":
            return np.full(t.shape, self.params["value"])
        if self.catalog_id == "exp_neg_t":
            return np.exp(-t)
        coeffs = np.asarray(self.params["coeffs"], dtype=float)
        pts = as_points(x, coeffs.size)
        return self.params["offset"] + pts @ coeffs

    def validate_positive(self, domain):
        """Raise WeightError when the weight can reach <= 0 on the domain."""
        if self.catalog_id in ("constant", "exp_neg_t"):
            return
        if self.params["offset"] + domain.least(np.array(self.params["coeffs"])) <= 0:
            raise WeightError("affine weight is non-positive somewhere on the domain")


# ---------------------------------------------------------------------------
# smooth convex function catalog


class SmoothConvexFunction:
    """Convex function on a compact domain with exact derivatives.

    Instances come from :func:`catalog_entry`; they carry their catalog id
    and parameters so they serialize, plus a sound (not tight) upper bound
    on the gradient norm over the domain.  ``hessian_jumps[k]`` lists the
    lines x_k = c where D^2 f jumps (``huber``'s +-delta); it is empty on
    every axis of a function with a continuous Hessian.
    """

    def __init__(self, catalog_id, params, domain, value_fn, grad_fn, hess_fn,
                 lipschitz_bound, strictly_convex=True):
        self.catalog_id = catalog_id
        self.params = params
        self.domain = domain
        self._value = value_fn
        self._grad = grad_fn
        self._hess = hess_fn
        self.lipschitz_bound = float(lipschitz_bound)
        self.strictly_convex = bool(strictly_convex)
        self.hessian_jumps = ((),) * domain.dim

    @property
    def dim(self):
        return self.domain.dim

    def value(self, x):
        return self._value(as_points(x, self.dim))

    def gradient(self, x):
        return self._grad(as_points(x, self.dim))

    def hessian(self, x):
        return self._hess(as_points(x, self.dim))

    def value_at(self, x):
        return float(self.value(x)[0])

    def hessian_det(self, x):
        h = self.hessian(x)
        if self.dim == 1:
            return h[:, 0, 0]
        return h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] * h[:, 1, 0]

    def restricted_to(self, domain):
        if domain.dim != self.dim:
            raise DomainError("restriction must preserve dimension")
        return catalog_entry(self.catalog_id, self.params, domain)

    def with_offset(self, c):
        params = dict(self.params)
        params["offset"] = params.get("offset", 0.0) + float(c)
        return catalog_entry(self.catalog_id, params, self.domain)

    def to_config(self):
        return {"catalog_id": self.catalog_id,
                "parameters": json.loads(json.dumps(self.params)),
                "domain": self.domain.to_config()}

    @classmethod
    def from_config(cls, cfg):
        return catalog_entry(cfg["catalog_id"], cfg.get("parameters", {}),
                             Domain.from_config(cfg["domain"]))

    def __repr__(self):
        return f"SmoothConvexFunction({self.catalog_id}, dim={self.dim})"


def _corner_max(domain, fn):
    lo, hi = domain.bounding_box()
    corners = np.stack(np.meshgrid(*zip(lo, hi), indexing="ij"), axis=-1)
    return float(np.max(fn(corners.reshape(-1, lo.size))))


def _quad_form(x, h):
    """x . H x for each row of x, in coordinate passes like :func:`rowdot`,
    with no temporary as large as x."""
    out = x[:, 0] * rowdot(x, h[0])
    for k in range(1, x.shape[1]):
        out += x[:, k] * rowdot(x, h[k])
    return out


def catalog_entry(catalog_id, params, domain):
    """Build a catalog function on ``domain``.

    ids and parameters (all optional keys have defaults):

    ``quadratic``   hessian H (n x n SPD or zero), linear b, offset c:
                    f = x.Hx/2 + b.x + c
    ``cosh_quadratic``  hessian H, eps, freq: f = x.Hx/2 + eps*sum cosh(freq*x_i)
    ``exp_sum``     alpha (n,), mu: f = sum exp(alpha_i x_i) + mu |x|^2
    ``quartic``     eps: f = |x|^4/4 + eps |x|^2/2  (eps=0 degenerates at 0)
    ``huber``       delta: f = sum of per-coordinate quadratic/linear glue;
                    C^{1,1} stress entry, Hessian flattens to 0 outside a box

    The law's delta(n, p) is known for n <= 2 only, so a ``domain`` of
    higher dimension raises ``DomainError``.
    """
    n = domain.dim
    if n > 2:
        raise DomainError(f"catalog functions live in dimensions 1-2, not {n}")
    params = dict(params)
    offset = float(params.get("offset", 0.0))

    if catalog_id == "quadratic":
        h = np.atleast_2d(np.asarray(params.get("hessian",
                                                np.eye(n)), dtype=float))
        b = np.atleast_1d(np.asarray(params.get("linear",
                                                np.zeros(n)), dtype=float))
        if h.shape != (n, n) or b.shape != (n,):
            raise ValueError("quadratic catalog entry has mismatched shapes")
        h = (h + h.T) / 2.0
        eig = np.linalg.eigvalsh(h)
        strictly = bool(eig.min() > 0)

        def value(x):
            return 0.5 * _quad_form(x, h) + rowdot(x, b) + offset

        def grad(x):
            return rowdot(x[:, None, :], h) + b

        def hess(x):
            return np.broadcast_to(h, (x.shape[0], n, n)).copy()

        lip = _corner_max(domain, lambda x: np.linalg.norm(x @ h + b, axis=1))
        stored = {"hessian": h.tolist(), "linear": b.tolist(), "offset": offset}
        return SmoothConvexFunction("quadratic", stored, domain, value, grad,
                                    hess, lip, strictly)

    if catalog_id == "cosh_quadratic":
        h = np.atleast_2d(np.asarray(params.get("hessian",
                                                np.zeros((n, n))), dtype=float))
        eps = float(params.get("eps", 1.0))
        freq = float(params.get("freq", 1.0))
        if eps < 0:
            raise ValueError("cosh_quadratic needs eps >= 0")
        h = (h + h.T) / 2.0
        base_eig = np.linalg.eigvalsh(h).min()
        strictly = bool(base_eig > 0 or eps > 0)

        def value(x):
            quad = 0.5 * _quad_form(x, h)
            return quad + eps * np.sum(np.cosh(freq * x), axis=1) + offset

        def grad(x):
            return rowdot(x[:, None, :], h) + eps * freq * np.sinh(freq * x)

        def hess(x):
            out = np.broadcast_to(h, (x.shape[0], n, n)).copy()
            idx = np.arange(n)
            out[:, idx, idx] += eps * freq ** 2 * np.cosh(freq * x)
            return out

        lip = _corner_max(
            domain,
            lambda x: np.linalg.norm(x @ h, axis=1)
            + eps * freq * np.linalg.norm(np.sinh(freq * x), axis=1),
        )
        stored = {"hessian": h.tolist(), "eps": eps, "freq": freq, "offset": offset}
        return SmoothConvexFunction("cosh_quadratic", stored, domain, value,
                                    grad, hess, lip, strictly)

    if catalog_id == "exp_sum":
        alpha = np.atleast_1d(np.asarray(params.get("alpha",
                                                    np.full(n, 0.5)), dtype=float))
        mu = float(params.get("mu", 0.5))
        if alpha.shape != (n,):
            raise ValueError("exp_sum alpha must have one entry per axis")
        if mu < 0:
            raise ValueError("exp_sum needs mu >= 0")
        strictly = bool(mu > 0 or np.all(alpha != 0))

        def value(x):
            return (np.sum(np.exp(alpha * x), axis=1)
                    + mu * np.einsum("ij,ij->i", x, x) + offset)

        def grad(x):
            return alpha * np.exp(alpha * x) + 2.0 * mu * x

        def hess(x):
            out = np.zeros((x.shape[0], n, n))
            idx = np.arange(n)
            out[:, idx, idx] = alpha ** 2 * np.exp(alpha * x) + 2.0 * mu
            return out

        lip = _corner_max(
            domain,
            lambda x: np.linalg.norm(alpha * np.exp(alpha * x) + 2 * mu * x, axis=1),
        )
        stored = {"alpha": alpha.tolist(), "mu": mu, "offset": offset}
        return SmoothConvexFunction("exp_sum", stored, domain, value, grad,
                                    hess, lip, strictly)

    if catalog_id == "quartic":
        eps = float(params.get("eps", 0.5))
        if eps < 0:
            raise ValueError("quartic needs eps >= 0")

        def value(x):
            r2 = np.einsum("ij,ij->i", x, x)
            return 0.25 * r2 ** 2 + 0.5 * eps * r2 + offset

        def grad(x):
            r2 = np.einsum("ij,ij->i", x, x)
            return (r2 + eps)[:, None] * x

        def hess(x):
            r2 = np.einsum("ij,ij->i", x, x)
            eye = np.broadcast_to(np.eye(n), (x.shape[0], n, n))
            return ((r2 + eps)[:, None, None] * eye
                    + 2.0 * np.einsum("ij,ik->ijk", x, x))

        lip = _corner_max(
            domain,
            lambda x: (np.einsum("ij,ij->i", x, x) + eps)
            * np.sqrt(np.einsum("ij,ij->i", x, x)),
        )
        stored = {"eps": eps, "offset": offset}
        return SmoothConvexFunction("quartic", stored, domain, value, grad,
                                    hess, lip, strictly_convex=eps > 0)

    if catalog_id == "huber":
        delta = float(params.get("delta", 0.5))
        if delta <= 0:
            raise ValueError("huber needs delta > 0")

        def value(x):
            a = np.abs(x)
            per = np.where(a <= delta, 0.5 * x * x,
                           delta * a - 0.5 * delta * delta)
            return np.sum(per, axis=1) + offset

        def grad(x):
            return np.clip(x, -delta, delta)

        def hess(x):
            out = np.zeros((x.shape[0], n, n))
            idx = np.arange(n)
            out[:, idx, idx] = (np.abs(x) < delta).astype(float)
            return out

        lip = delta * np.sqrt(n)
        stored = {"delta": delta, "offset": offset}
        fn = SmoothConvexFunction("huber", stored, domain, value, grad, hess,
                                  lip, strictly_convex=False)
        fn.hessian_jumps = ((-delta, delta),) * n
        return fn

    raise ValueError(f"unknown catalog id {catalog_id!r}")


# ---------------------------------------------------------------------------
# operations


def tangent_planes(f, points):
    """Envelope of the supporting tangent planes of f at interior points;
    each plane is, bit for bit, the one a call on its point alone gives,
    because f's arithmetic rounds each row on its own (:func:`rowdot`)."""
    pts = as_points(points, f.dim)
    if not np.all(f.domain.contains(pts)):
        raise DomainError("tangency point lies outside the domain")
    g = f.gradient(pts)
    return PiecewiseAffineMax(g, f.value(pts) - rowdot(g, pts))


def is_circumscribed(f, l, samples, tol=1e-12):
    """Check l <= f on the samples.  Returns (ok, max violation)."""
    pts = as_points(samples, f.dim)
    viol = l.evaluate(pts) - f.value(pts)
    worst = float(np.max(viol)) if viol.size else 0.0
    return (worst <= tol, max(worst, 0.0))


def max_violation(f, l, samples):
    """Signed max of l - f over the samples (negative = strictly below)."""
    pts = as_points(samples, f.dim)
    if pts.shape[0] == 0:
        raise ValueError("need at least one sample point")
    return float(np.max(l.evaluate(pts) - f.value(pts)))


def sup_gap(f, l, samples):
    """Max of f - l over the samples (sup-norm gap on the probe set)."""
    pts = as_points(samples, f.dim)
    if pts.shape[0] == 0:
        raise ValueError("need at least one sample point")
    return float(np.max(f.value(pts) - l.evaluate(pts)))


def hessian_fd_check(f, x, h=1e-5):
    """Max abs difference between the analytic Hessian and central differences.

    Raises DomainError when the stencil exits the domain.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = x.size
    stencil = [x]
    for i in range(n):
        for j in range(n):
            if i == j:
                stencil += [x + h * _e(i, n), x - h * _e(i, n)]
            else:
                for si in (1, -1):
                    for sj in (1, -1):
                        stencil.append(x + h * si * _e(i, n) + h * sj * _e(j, n))
    if not np.all(f.domain.contains(np.stack(stencil))):
        raise DomainError("finite difference stencil exits the domain")

    fd = np.empty((n, n))
    f0 = f.value_at(x)
    for i in range(n):
        ei = _e(i, n)
        fd[i, i] = (f.value_at(x + h * ei) - 2 * f0 + f.value_at(x - h * ei)) / h ** 2
        for j in range(i + 1, n):
            ej = _e(j, n)
            fd[i, j] = fd[j, i] = (
                f.value_at(x + h * ei + h * ej)
                - f.value_at(x + h * ei - h * ej)
                - f.value_at(x - h * ei + h * ej)
                + f.value_at(x - h * ei - h * ej)
            ) / (4 * h ** 2)
    return float(np.max(np.abs(fd - f.hessian(x)[0])))


def _e(i, n):
    v = np.zeros(n)
    v[i] = 1.0
    return v
