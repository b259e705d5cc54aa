"""Closed-set oracles: membership, distance, best-approximation projection.

Sets are represented by oracles rather than meshes; every construction
downstream consumes only membership, distance, and projection.  A kind
implements the ``*_many`` rules on ``(m, dim)`` rows, the scalar rules
lift one state to one row, and every kind's membership is margin <= 0.
The primitive kinds (box, ball, halfspace, point cloud) have exact
analytic rules; composites are built on top:

  * product       - exact (per-factor slices)
  * union         - exact (min of member distances, argmin projection)
  * intersection  - distance() is a certified lower bound (max of member
                    distances); projection runs alternating projections
                    (<= 50 sweeps) and gives the matching upper bound
  * complement    - closure of the complement; projection from inside the
                    hole needs the base primitive's analytic boundary
                    rule and raises Unsupported otherwise
  * sublevel      - membership is exact; distance is the positive residual
                    divided by a declared Lipschitz constant (a lower
                    bound), projection is Unsupported

A composite folds its members' results with np.minimum or np.maximum in
member order, so each one-row rule has the bits of its batch row (a NaN
keeps its member's sign).  ``PointCloudSet`` is the one finite-point-set
type: ``set_limit`` takes point arrays and returns one.

Also here: the contingent-direction residual test (a finite-ladder proxy
for liminf_{h->0+} d(x+hv, K)/h) and finite Painleve-Kuratowski limits
of sequences of point arrays.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .common import INF, _ladder, _one_row, _row_norms
from .errors import Unsupported


class SetOracle:
    """A closed subset of R^dim described by membership/distance/projection.

    A kind implements the ``*_many`` rules on ``(m, dim)`` rows; ``margin``,
    ``contains``, ``distance`` and ``boundary_distance`` lift one state to
    one row of them.  Membership is ``margin_many(X) <= 0`` for every kind.
    """

    kind = "abstract"

    def __init__(self, dim: int):
        self.dim = int(dim)

    # -- membership --------------------------------------------------------
    def margin_many(self, X) -> np.ndarray:
        """Signed residuals of (m, dim) rows: <= 0 inside, > 0 outside."""
        raise NotImplementedError

    def contains_many(self, X) -> np.ndarray:
        return self.margin_many(X) <= 0.0

    def margin(self, x) -> float:
        return float(self.margin_many(x)[0])

    def contains(self, x) -> bool:
        return bool(self.contains_many(x)[0])

    # -- metric -------------------------------------------------------------
    def distance_many(self, X) -> np.ndarray:
        """Euclidean distances of (m, dim) rows to the set (exact for primitive kinds);
        by default the positive margin, exact where the margin is a signed distance."""
        return np.maximum(self.margin_many(X), 0.0)

    def distance(self, x) -> float:
        return float(self.distance_many(x)[0])

    def project(self, y) -> np.ndarray:
        """A best approximation of y in the set."""
        raise NotImplementedError

    # -- boundary helpers (used by characteristics) -------------------------
    def boundary_distance_many(self, X) -> np.ndarray:
        """Distances of (m, dim) rows to the topological boundary of the set."""
        raise Unsupported(f"boundary_distance not available for kind {self.kind!r}")

    def boundary_distance(self, x) -> float:
        return float(self.boundary_distance_many(x)[0])

    def _outside_or(self, X, inside):
        """distance_many on the rows of X off the set, inside on the others."""
        return np.where(self.margin_many(X) > 0.0, self.distance_many(X), inside)

    def _project_to_boundary_from_inside(self, y) -> np.ndarray:
        raise Unsupported(f"no analytic interior boundary projection for kind {self.kind!r}")


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


class Box(SetOracle):
    """Axis-aligned box [lo, hi]; infinite bounds allowed (halfspaces/slabs), NaN refused."""

    kind = "box"

    def __init__(self, lo, hi):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.shape != hi.shape or not np.all(lo <= hi):  # a NaN bound is not <= either
            raise ValueError("box needs lo <= hi componentwise")
        super().__init__(len(lo))
        self.lo, self.hi = lo, hi

    def margin_many(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.max(np.maximum(self.lo - X, X - self.hi), axis=1)

    def distance_many(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        D = np.ascontiguousarray(np.maximum(np.maximum(self.lo - X, X - self.hi), 0.0))
        return np.sqrt(np.vecdot(D, D))  # per row, the bits of the 1-D norm (see Halfspace)

    def project(self, y):
        return np.clip(np.asarray(y, dtype=float), self.lo, self.hi)

    def boundary_distance_many(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        gaps = np.minimum(X - self.lo, self.hi - X)
        gaps = np.where(np.isfinite(gaps), gaps, np.inf).min(axis=1)  # the nearest finite face
        return self._outside_or(X, np.where(np.isinf(gaps), INF, gaps))

    def _project_to_boundary_from_inside(self, y):
        y = np.asarray(y, dtype=float).copy()
        gap_lo = y - self.lo
        gap_hi = self.hi - y
        cands = np.concatenate([gap_lo, gap_hi])
        k = int(np.argmin(np.where(np.isfinite(cands), cands, np.inf)))
        if not np.isfinite(cands[k]):
            raise Unsupported("box has no finite face to project onto")
        if k < self.dim:
            y[k] = self.lo[k]
        else:
            y[k - self.dim] = self.hi[k - self.dim]
        return y


class Ball(SetOracle):
    """Closed Euclidean ball."""

    kind = "ball"

    def __init__(self, center, radius: float):
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if np.isnan(center).any():
            raise ValueError("center must not be NaN")
        if not radius >= 0:  # NaN too
            raise ValueError("radius must be nonnegative")
        super().__init__(len(center))
        self.center, self.radius = center, float(radius)

    def margin_many(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return _row_norms(X - self.center) - self.radius

    def project(self, y):
        y = np.asarray(y, dtype=float)
        r = np.linalg.norm(y - self.center)
        if r <= self.radius:
            return y.copy()
        return self.center + (self.radius / r) * (y - self.center)

    def boundary_distance_many(self, X):
        return np.abs(self.margin_many(X))

    def _project_to_boundary_from_inside(self, y):
        y = np.asarray(y, dtype=float)
        d = y - self.center
        r = np.linalg.norm(d)
        if r == 0.0:
            d = np.zeros(self.dim)
            d[0] = 1.0
            r = 1.0
        return self.center + (self.radius / r) * d


class Halfspace(SetOracle):
    """{x : <normal, x> <= offset}."""

    kind = "halfspace"

    def __init__(self, normal, offset: float):
        normal = np.atleast_1d(np.asarray(normal, dtype=float))
        nn = np.linalg.norm(normal)
        if np.isnan(normal).any() or np.isnan(offset):
            raise ValueError("normal and offset must not be NaN")
        if nn == 0:
            raise ValueError("normal must be nonzero")
        super().__init__(len(normal))
        self.normal, self.offset = normal, float(offset)
        self._unit = normal / nn
        self._scaled_offset = offset / nn

    def margin_many(self, X):
        # vecdot over C-ordered rows gives each row the bits of its own 1-D dot
        # product, whatever its batch; a matrix product does not
        X = np.ascontiguousarray(np.atleast_2d(np.asarray(X, dtype=float)))
        return np.vecdot(X, self._unit) - self._scaled_offset

    def project(self, y):
        y = np.asarray(y, dtype=float)
        m = self.margin(y)
        return y - max(m, 0.0) * self._unit

    def boundary_distance_many(self, X):
        return np.abs(self.margin_many(X))

    def _project_to_boundary_from_inside(self, y):
        y = np.asarray(y, dtype=float)
        return y - self.margin(y) * self._unit


class PointCloudSet(SetOracle):
    """The union of closed 1e-9 balls (for round-off) around finite points: the margin
    is the KD distance less 1e-9.  Projection ties break to the lowest index."""

    kind = "point-cloud"

    def __init__(self, points):
        from scipy.spatial import cKDTree

        points = np.atleast_2d(np.asarray(points, dtype=float))
        super().__init__(points.shape[1])
        self.points = points
        self._tree = cKDTree(points) if points.size else None

    def margin_many(self, X):
        return self.distance_many(X) - 1e-9

    def distance_many(self, X):
        """Exact distances of (m, dim) rows to the nearest point (INF for no point)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self._tree is None:
            return np.full(len(X), INF)
        d, _ = self._tree.query(X)
        return np.asarray(d, dtype=float)

    def project(self, y):
        if self._tree is None:
            raise Unsupported("cannot project onto the empty set")
        y = np.asarray(y, dtype=float)
        d = _row_norms(self.points - y)
        best = d.min()
        idx = int(np.flatnonzero(d <= best + 1e-12 * (1.0 + best))[0])
        return self.points[idx].copy()


# ---------------------------------------------------------------------------
# Composites
# ---------------------------------------------------------------------------


def _square(d: float) -> float:
    """d ** 2 by libm's pow, the one-row product rule's bits; inf where it overflows."""
    try:
        return d ** 2
    except OverflowError:
        return np.inf


class Product(SetOracle):
    """Cartesian product of factor oracles over consecutive coordinate blocks."""

    kind = "product"

    def __init__(self, *factors: SetOracle):
        if not factors:
            raise ValueError("product needs at least one factor")
        super().__init__(sum(f.dim for f in factors))
        self.factors = factors
        self._slices = []
        start = 0
        for f in factors:
            self._slices.append(slice(start, start + f.dim))
            start += f.dim

    def margin_many(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        # a fold, as in every composite rule: an axis-0 reduction of the stacked
        # margins takes one row in one contiguous pass, which drops a member's NaN sign
        return reduce(np.maximum, [f.margin_many(X[:, s])
                                   for f, s in zip(self.factors, self._slices)])

    def distance_many(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.sqrt(sum(np.array([_square(d) for d in f.distance_many(X[:, s]).tolist()])
                           for f, s in zip(self.factors, self._slices)))

    def project(self, y):
        y = np.asarray(y)
        return np.concatenate([f.project(y[s]) for f, s in zip(self.factors, self._slices)])

    def boundary_distance_many(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self._outside_or(X, reduce(np.minimum, [
            f.boundary_distance_many(X[:, s]) for f, s in zip(self.factors, self._slices)]))


class _Members(SetOracle):
    """A composite of one or more members of one dimension."""

    def __init__(self, *members: SetOracle):
        if len({m.dim for m in members}) != 1:
            raise ValueError(f"{self.kind} needs one or more members of one dimension")
        super().__init__(members[0].dim)
        self.members = members


class Union(_Members):
    kind = "union"

    def margin_many(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return reduce(np.minimum, [m.margin_many(X) for m in self.members])

    def distance_many(self, X):
        return reduce(np.minimum, [m.distance_many(X) for m in self.members])

    def project(self, y):
        dists = [m.distance(y) for m in self.members]
        return self.members[int(np.argmin(dists))].project(y)

    def boundary_distance_many(self, X):
        # valid for disjoint members; good enough for boundary-data dispatch
        return reduce(np.minimum, [m.boundary_distance_many(X) for m in self.members])


class Intersection(_Members):
    """Intersection; distance() is a certified lower bound (max of members)."""

    kind = "intersection"

    def margin_many(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return reduce(np.maximum, [m.margin_many(X) for m in self.members])

    def distance_many(self, X):
        return reduce(np.maximum, [m.distance_many(X) for m in self.members])

    def project(self, y):
        """Alternating projections (at most 50 sweeps); the result certifies the upper bound."""
        z = np.asarray(y, dtype=float).copy()
        for _ in range(50):
            moved = 0.0
            for m in self.members:
                zn = m.project(z)
                moved = max(moved, float(np.linalg.norm(zn - z)))
                z = zn
            if moved <= 1e-12:
                break
        return z

    def boundary_distance_many(self, X):
        return self._outside_or(X, reduce(np.minimum, [np.abs(m.margin_many(X))
                                                       for m in self.members]))


class Complement(SetOracle):
    """Closure of the complement of a primitive with a signed margin; its distance,
    the positive margin, is exact where the base margin is a signed distance."""

    kind = "complement"

    def __init__(self, base: SetOracle):
        super().__init__(base.dim)
        self.base = base

    def margin_many(self, X):
        return -self.base.margin_many(X)

    def project(self, y):
        y = np.asarray(y, dtype=float)
        if self.contains(y):
            return y.copy()
        return self.base._project_to_boundary_from_inside(y)

    def boundary_distance_many(self, X):
        return self.base.boundary_distance_many(X)  # the set and its complement share it


class Sublevel(SetOracle):
    """{x : fn(x) <= 0}; membership exact, distance a Lipschitz lower bound.

    ``fn`` is batch-only: it receives ``(m, dim)`` rows, returns ``m`` values.
    """

    kind = "sublevel"

    def __init__(self, fn, dim: int, lipschitz: float = 1.0):
        super().__init__(dim)
        self.fn = fn
        self.lipschitz = float(lipschitz)

    def margin_many(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.asarray(self.fn(X), dtype=float).reshape(len(X))

    def distance_many(self, X):
        return super().distance_many(X) / self.lipschitz

    def project(self, y):
        raise Unsupported("sublevel sets have no analytic projection")


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


# The primitive, composite and sublevel builders are the classes themselves.
box, ball, halfspace, point_cloud_set = Box, Ball, Halfspace, PointCloudSet
product, union, intersection, complement = Product, Union, Intersection, Complement
sublevel = Sublevel


def sphere(center, radius: float) -> Intersection:
    """The sphere {|x - c| = r} as ball-intersect-complement; all rules exact."""
    return Intersection(Ball(center, radius), Complement(Ball(center, radius)))


def whole_space(dim: int) -> Box:
    return Box([-np.inf] * dim, [np.inf] * dim)


def empty_set(dim: int) -> PointCloudSet:
    return PointCloudSet(np.zeros((0, dim)))


# ---------------------------------------------------------------------------
# Point-cloud dedup and Painleve-Kuratowski limits
# ---------------------------------------------------------------------------


_MERGE_SAMPLE = 1024  # about this many rows decide the dedup route
_MERGE_SLAB = 1024    # fewest rows a slab of the dedup holds


def _merge_points(points: np.ndarray, radius: float) -> np.ndarray:
    """Greedy dedup keeping the earliest representative of each cluster.

    Returns the keep mask over the rows of points.  The rows are sorted by
    their first coordinate and cut into slabs wherever consecutive values
    differ by more than 1.5 radius.  No close pair crosses a cut: a computed
    distance is never below its |first-coordinate difference|, and the
    margin over the radius leaves room for rounding.  Cuts that would leave
    a slab of fewer than 1024 rows are skipped, so small gaps are grouped
    rather than each paying for a tree.  Each slab lists its rows in
    ascending order and is merged on its own, so the keep mask is the
    greedy loop's over the whole cloud.

    Each slab's KD-tree splits its cells at their midpoints
    (``balanced_tree=False``), which builds faster than median splits and
    queries no slower on time-level clouds and tight clusters alike.
    Within a slab, a sparse slab's close pairs (i < j) are put in (i, j)
    order by one in-place sort of the keys i * n + j and scanned once, so
    keep[i] is final when i's pairs come up; the order of the js of one i
    does not matter.  A tight cluster
    of c rows has c^2/2 pairs, so when the slab's rows average more than 12
    neighbours (on every (len(points) // 1024)-th row of the slab; a full
    count costs as much as the pair query) each kept row's neighbours are
    queried instead, in memory linear in the rows.

    Raises:
        ValueError: if a row is not finite (for radius > 0 and two or more
            rows), wherever it sits.
    """
    keep = np.ones(len(points), dtype=bool)
    if radius <= 0 or len(points) < 2:
        return keep
    if not np.isfinite(points).all():
        raise ValueError("_merge_points requires finite points")
    order = np.argsort(points[:, 0], kind="stable")
    cuts = np.flatnonzero(np.diff(points[order, 0]) > 1.5 * radius) + 1
    bounds = []
    while True:
        i = np.searchsorted(cuts, (bounds[-1] if bounds else 0) + _MERGE_SLAB)
        if i == len(cuts) or len(points) - cuts[i] < _MERGE_SLAB:
            break
        bounds.append(int(cuts[i]))
    stride = max(1, len(points) // _MERGE_SAMPLE)
    for rows in np.split(order, bounds):
        rows.sort()
        keep[rows] = _merge_slab(points[rows], radius, stride)
    return keep


def _merge_slab(points: np.ndarray, radius: float, stride: int) -> np.ndarray:
    """:func:`_merge_points`' greedy keep mask over one slab's rows.

    The slab's tree splits at midpoints; a sparse slab's pairs come in
    (i, j) order from one in-place sort of the int64 keys i * n + j.
    """
    from scipy.spatial import cKDTree

    tree = cKDTree(points, balanced_tree=False)
    if tree.query_ball_point(points[::stride], radius, return_length=True).mean() > 12:
        keep = np.ones(len(points), dtype=bool)
        for i in range(len(points)):
            if keep[i]:
                js = np.asarray(tree.query_ball_point(points[i], radius), dtype=np.intp)
                keep[js[js > i]] = False
        return keep
    pairs = tree.query_pairs(radius, output_type="ndarray")
    del tree  # its copy of the points would otherwise add to the pair arrays' peak
    n = len(points)
    keys = pairs[:, 0] * n + pairs[:, 1]
    del pairs
    keys.sort()
    first, second = np.divmod(keys, n)
    keep = [True] * n
    for i, j in zip(first.tolist(), second.tolist()):
        if keep[i]:
            keep[j] = False
    return np.array(keep)


def _ladder_min(distance_many, X, V, hs) -> np.ndarray:
    """Per row of X, min over the rungs h of distance_many(X + h V) / h.

    Every rung's probes go through one distance_many call; the minimum is
    Python's min from +inf, rung by rung, so a NaN quotient never wins.
    """
    q = distance_many((X + hs[:, None, None] * V).reshape(-1, X.shape[1]))
    best = np.full(len(X), np.inf)
    for row in np.reshape(q, (len(hs), len(X))) / hs[:, None]:
        best = np.where(row < best, row, best)
    return best


def _tangent_residuals(K: SetOracle, X, V, h_min: float, h_max: float) -> np.ndarray:
    """:func:`tangent_residual` at the row pairs of the (m, dim) arrays X and V."""
    if not K.contains_many(X).all():
        raise ValueError("tangent_residual requires x in K")
    if not np.isfinite(V).all():
        raise ValueError("tangent_residual requires a finite direction v")
    if not (0.0 < h_min < h_max):
        raise ValueError("need 0 < h_min < h_max")
    return _ladder_min(K.distance_many, X, V, _ladder(h_max, h_min))


def tangent_residual(K: SetOracle, x, v, h_min: float = 1e-6, h_max: float = 1e-2) -> float:
    """Finite-ladder proxy for liminf_{h->0+} d(x + h v, K) / h.

    A value near zero certifies v as a contingent direction to K at x;
    for a unit v pointing at angle theta off the set it is about
    sin(theta).  The ladder runs from h_max down to h_min with ratio 1/2.
    A one-row lift of :func:`_tangent_residuals`.
    """
    return float(_tangent_residuals(K, _one_row(x), _one_row(v), h_min, h_max)[0])


def set_limit(clouds, mode: str, eps: float) -> PointCloudSet:
    """Finite proxy for the upper/lower limit of a sequence of point clouds.

    The clouds are (m_i, dim) point arrays; m_i may be 0.  "Infinitely
    many" is approximated by the tail (the last half of the sequence):
    upper mode keeps candidates within eps of at least half of the tail
    clouds, lower mode requires all tail clouds (an empty one, whose
    distance is INF, admits none).  Candidates are drawn from the union of
    all cloud points, and the kept ones are merged greedily at radius
    eps / 2 (see :func:`_merge_points`).
    """
    clouds = list(clouds)
    if len(clouds) < 2:
        raise ValueError("set_limit needs at least two clouds")
    if mode not in ("upper", "lower"):
        raise ValueError("mode must be 'upper' or 'lower'")
    tail = [PointCloudSet(c) for c in clouds[len(clouds) // 2:]]
    candidates = np.vstack(clouds)
    counts = sum(K.distance_many(candidates) <= eps for K in tail)
    selected = candidates[counts * 2 >= len(tail) if mode == "upper" else counts == len(tail)]
    return PointCloudSet(selected[_merge_points(selected, eps / 2.0)])
