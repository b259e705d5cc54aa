"""Reference copies of the per-element point-cloud and CSV loops.

``merge_points`` (one ``query_ball_point`` call per kept row),
``query_graph`` (union-find over an O(n^2) pair loop) and ``write_rows``
(one ``fmt17`` call per value) as they were before the pair query, the
connected-components clustering and the table writer.  ``PointCloud``
and ``set_limit`` are the point-list type and the limit as they were
before ``set_limit`` took point arrays and returned a ``PointCloudSet``;
their dedup is ``merge_points``.
The tests require the library to agree with them bit for bit.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from viakit.common import INF
from viakit.sets import PointCloudSet


def merge_points(points: np.ndarray, radius: float) -> np.ndarray:
    keep = np.ones(len(points), dtype=bool)
    if radius <= 0 or len(points) < 2:
        return keep
    tree = cKDTree(points)
    for i in range(len(points)):
        if not keep[i]:
            continue
        for j in tree.query_ball_point(points[i], radius):
            if j > i:
                keep[j] = False
    return keep


def query_graph(cloud, t: float, x, radius: float):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    mask = (np.abs(cloud.times - t) <= radius) & \
        (np.linalg.norm(cloud.states - x, axis=1) <= radius)
    ys = cloud.outputs[mask]
    if len(ys) == 0:
        return []
    parent = list(range(len(ys)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(ys)):
        for j in range(i + 1, len(ys)):
            if np.linalg.norm(ys[i] - ys[j]) <= cloud.step:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(len(ys)):
        groups.setdefault(find(i), []).append(ys[i])
    means = [np.mean(g, axis=0) for g in groups.values()]
    return sorted(means, key=lambda v: tuple(v))


def fmt17(v):
    v = float(v)
    if v >= INF:
        return "inf"
    if v <= -INF:
        return "-inf"
    return "%.17g" % v


def write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt17(v) for v in row) + "\n")


@dataclass(frozen=True)
class PointCloud:
    """A finite point list with a merge radius; points >= tol/2 apart."""

    points: np.ndarray
    tol: float = 0.0

    def __post_init__(self):
        points = np.atleast_2d(np.asarray(self.points, dtype=float))
        points = points[merge_points(points, self.tol / 2.0)]
        points.flags.writeable = False
        object.__setattr__(self, "points", points)

    def __len__(self):
        return len(self.points)

    def as_oracle(self) -> PointCloudSet:
        return PointCloudSet(self.points)


def set_limit(clouds, mode: str, eps: float) -> PointCloud:
    clouds = list(clouds)
    if len(clouds) < 2:
        raise ValueError("set_limit needs at least two clouds")
    if mode not in ("upper", "lower"):
        raise ValueError("mode must be 'upper' or 'lower'")
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
