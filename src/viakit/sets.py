"""Closed-set oracles: membership, distance, best-approximation projection.

Sets are represented by oracles rather than meshes; every construction
downstream consumes only membership, distance, and projection.  A kind
implements the ``*_many`` rules on ``(m, dim)`` rows, and the scalar
rules lift one state to one row (point clouds: 1e-9 membership
tolerance).  The primitive kinds (box, ball, halfspace, point cloud) have
exact analytic rules; composites are built on top:

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

Also here: the contingent-direction residual test (a finite-ladder proxy
for liminf_{h->0+} d(x+hv, K)/h) and finite Painleve-Kuratowski limits
of point-cloud sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .common import INF, _ladder
from .errors import Unsupported


class SetOracle:
    """A closed subset of R^dim described by membership/distance/projection.

    A kind implements the ``*_many`` rules on ``(m, dim)`` rows; ``margin``,
    ``contains``, ``distance`` and ``boundary_distance`` lift one state to
    one row of them, and point clouds use a 1e-9 membership tolerance.
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
    """Axis-aligned box [lo, hi]; infinite bounds allowed (halfspaces/slabs)."""

    kind = "box"

    def __init__(self, lo, hi):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.shape != hi.shape or np.any(lo > hi):
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
        if not radius >= 0:  # NaN too
            raise ValueError("radius must be nonnegative")
        super().__init__(len(center))
        self.center, self.radius = center, float(radius)

    def margin_many(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.linalg.norm(X - self.center, axis=1) - self.radius

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
    """A finite set of points; projection ties break to the lowest index."""

    kind = "point-cloud"

    def __init__(self, points):
        from scipy.spatial import cKDTree

        points = np.atleast_2d(np.asarray(points, dtype=float))
        super().__init__(points.shape[1] if points.size else 1)
        self.points = points
        self._tree = cKDTree(points) if points.size else None

    def margin_many(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self._tree is None:
            return np.full(len(X), INF)
        d, _ = self._tree.query(X)
        return np.asarray(d, dtype=float)

    def contains_many(self, X):
        # membership tolerance for float round-off on exact points
        return self.margin_many(X) <= 1e-9

    def project(self, y):
        if self._tree is None:
            raise Unsupported("cannot project onto the empty set")
        y = np.asarray(y, dtype=float)
        d = np.linalg.norm(self.points - y, axis=1)
        best = d.min()
        idx = int(np.flatnonzero(d <= best + 1e-12 * (1.0 + best))[0])
        return self.points[idx].copy()


# ---------------------------------------------------------------------------
# Composites
# ---------------------------------------------------------------------------


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
        out = np.full(len(X), -np.inf)
        for f, s in zip(self.factors, self._slices):
            out = np.maximum(out, f.margin_many(X[:, s]))
        return out

    def distance_many(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        # squared as Python floats, by libm's pow, as the one-row rule did
        return np.sqrt(sum(np.array([d ** 2 for d in f.distance_many(X[:, s]).tolist()])
                           for f, s in zip(self.factors, self._slices)))

    def project(self, y):
        y = np.asarray(y)
        return np.concatenate([f.project(y[s]) for f, s in zip(self.factors, self._slices)])

    def boundary_distance_many(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self._outside_or(X, np.min([f.boundary_distance_many(X[:, s])
                                           for f, s in zip(self.factors, self._slices)], axis=0))


class Union(SetOracle):
    kind = "union"

    def __init__(self, *members: SetOracle):
        if len({m.dim for m in members}) != 1:
            raise ValueError("union needs one or more members of one dimension")
        super().__init__(members[0].dim)
        self.members = members

    def margin_many(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.full(len(X), np.inf)
        for m in self.members:
            out = np.minimum(out, m.margin_many(X))
        return out

    def distance_many(self, X):
        return np.min([m.distance_many(X) for m in self.members], axis=0)

    def project(self, y):
        dists = [m.distance(y) for m in self.members]
        return self.members[int(np.argmin(dists))].project(y)

    def boundary_distance_many(self, X):
        # valid for disjoint members; good enough for boundary-data dispatch
        return np.min([m.boundary_distance_many(X) for m in self.members], axis=0)


class Intersection(SetOracle):
    """Intersection; distance() is a certified lower bound (max of members)."""

    kind = "intersection"

    def __init__(self, *members: SetOracle):
        if len({m.dim for m in members}) != 1:
            raise ValueError("intersection needs one or more members of one dimension")
        super().__init__(members[0].dim)
        self.members = members

    def margin_many(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.full(len(X), -np.inf)
        for m in self.members:
            out = np.maximum(out, m.margin_many(X))
        return out

    def distance_many(self, X):
        return np.max([m.distance_many(X) for m in self.members], axis=0)

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
        return self._outside_or(X, np.min([np.abs(m.margin_many(X)) for m in self.members],
                                          axis=0))


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


# The primitive and composite builders are the classes themselves.
box, ball, halfspace, point_cloud_set = Box, Ball, Halfspace, PointCloudSet
product, union, intersection, complement = Product, Union, Intersection, Complement


def sublevel(fn, dim: int, lipschitz: float = 1.0) -> Sublevel:
    """{x : fn(x) <= 0} for a batch-only fn: (m, dim) rows -> (m,) values."""
    return Sublevel(fn, dim, lipschitz)


def sphere(center, radius: float) -> Intersection:
    """The sphere {|x - c| = r} as ball-intersect-complement; all rules exact."""
    return Intersection(Ball(center, radius), Complement(Ball(center, radius)))


def whole_space(dim: int) -> Box:
    return Box([-np.inf] * dim, [np.inf] * dim)


def empty_set(dim: int) -> PointCloudSet:
    return PointCloudSet(np.zeros((0, dim)))


# ---------------------------------------------------------------------------
# Point clouds and Painleve-Kuratowski limits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointCloud:
    """A finite point list with a merge radius; points >= tol/2 apart."""

    points: np.ndarray
    tol: float = 0.0

    def __post_init__(self):
        points = np.atleast_2d(np.asarray(self.points, dtype=float))
        points = points[_merge_points(points, self.tol / 2.0)]
        points.flags.writeable = False
        object.__setattr__(self, "points", points)

    def __len__(self):
        return len(self.points)

    def as_oracle(self) -> PointCloudSet:
        return PointCloudSet(self.points)


def _merge_points(points: np.ndarray, radius: float) -> np.ndarray:
    """Greedy dedup keeping the earliest representative of each cluster.

    Returns the keep mask over the rows of points.  A sparse cloud's close
    pairs (i < j) are scanned once in order of i, so keep[i] is final when
    i's pairs come up.  A tight cluster of c rows has c^2/2 pairs, so when
    rows average more than 12 neighbours (on about 1024 evenly spaced rows;
    a full count costs as much as the pair query) each kept row's neighbours
    are queried instead, in memory linear in the rows.
    """
    keep = np.ones(len(points), dtype=bool)
    if radius <= 0 or len(points) < 2:
        return keep
    from scipy.spatial import cKDTree

    tree = cKDTree(points)
    sample = points[::max(1, len(points) // 1024)]
    if tree.query_ball_point(sample, radius, return_length=True).mean() > 12:
        for i in range(len(points)):
            if keep[i]:
                js = np.asarray(tree.query_ball_point(points[i], radius), dtype=np.intp)
                keep[js[js > i]] = False
        return keep
    pairs = tree.query_pairs(radius, output_type="ndarray")
    del tree  # its copy of the points would otherwise add to the pair arrays' peak
    pairs = pairs[np.argsort(pairs[:, 0], kind="stable")]
    for i, j in zip(pairs[:, 0], pairs[:, 1]):
        if keep[i]:
            keep[j] = False
    return keep


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
    X, V = (np.asarray(z, dtype=float).reshape(1, -1) for z in (x, v))
    return float(_tangent_residuals(K, X, V, h_min, h_max)[0])


def set_limit(clouds, mode: str, eps: float) -> PointCloud:
    """Finite proxy for the upper/lower limit of a sequence of point clouds.

    "Infinitely many" is approximated by the tail (the last half of the
    sequence): upper mode keeps candidates within eps of at least half
    of the tail clouds, lower mode requires all tail clouds.  Candidates
    are drawn from the union of all cloud points.
    """
    clouds = list(clouds)
    if len(clouds) < 2:
        raise ValueError("set_limit needs at least two clouds")
    if mode not in ("upper", "lower"):
        raise ValueError("mode must be 'upper' or 'lower'")
    from scipy.spatial import cKDTree

    tail = clouds[len(clouds) // 2:]
    trees = [cKDTree(np.atleast_2d(c.points)) for c in tail if len(c.points)]
    candidates = np.vstack([np.atleast_2d(c.points) for c in clouds if len(c.points)])
    counts = np.zeros(len(candidates), dtype=int)
    for tree in trees:
        d, _ = tree.query(candidates)
        counts += (d <= eps)
    if mode == "upper":
        selected = candidates[counts * 2 >= len(tail)]
    elif len(trees) < len(tail):
        selected = candidates[:0]  # an empty tail cloud defeats the lower limit
    else:
        selected = candidates[counts == len(tail)]
    return PointCloud(selected, tol=eps)
