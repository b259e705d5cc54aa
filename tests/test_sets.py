import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.testing import assert_allclose

import cloud_reference
import residual_reference
import trace_reference
import viakit as vk
from viakit.common import INF
from viakit.kernels import lattice_points
from viakit.sets import PointCloud, _merge_points, _tangent_residuals


unit_ball = vk.ball([0.0, 0.0], 1.0)
unit_box = vk.box([0.0, 0.0], [1.0, 1.0])
circle = vk.sphere([0.0, 0.0], 1.0)


def test_distance_box_face():
    assert unit_box.distance([2.0, 0.5]) == pytest.approx(1.0)


def test_distance_ball_interior():
    assert unit_ball.distance([0.0, 0.0]) == 0.0


def test_distance_ball_radial():
    assert unit_ball.distance([2.0, 0.0]) == pytest.approx(1.0)


def test_project_ball():
    assert_allclose(unit_ball.project([2.0, 0.0]), [1.0, 0.0])


def test_project_box_clamp():
    assert_allclose(unit_box.project([-1.0, 2.0]), [0.0, 1.0])


def test_project_point_cloud_lowest_index_tie():
    pc = vk.point_cloud_set([[0.0, 0.0], [1.0, 0.0]])
    assert_allclose(pc.project([0.5, 0.0]), [0.0, 0.0])


def test_distance_zero_iff_contains():
    for K in (unit_ball, unit_box, circle, vk.halfspace([1.0, 0.0], 0.5)):
        for x in ([0.3, 0.2], [1.5, 0.0], [1.0, 0.0], [0.5, 0.5]):
            x = np.asarray(x, dtype=float)
            assert (K.distance(x) == 0.0) == K.contains(x)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=2, max_size=2))
def test_projection_is_best_approximation(vals):
    y = np.array(vals)
    for K in (unit_ball, unit_box, vk.halfspace([1.0, -2.0], 0.3), circle):
        p = K.project(y)
        assert K.distance(p) <= 1e-9
        assert abs(np.linalg.norm(p - y) - K.distance(y)) <= 1e-9


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=4, max_size=4))
def test_distance_one_lipschitz(vals):
    x = np.array(vals[:2])
    y = np.array(vals[2:])
    for K in (unit_ball, unit_box, vk.halfspace([1.0, 2.0], 1.0)):
        assert abs(K.distance(x) - K.distance(y)) <= np.linalg.norm(x - y) + 1e-12


def _all_kinds(dim, v):
    """One oracle of every kind in R^dim, all with boundaries near the unit sphere."""
    zero = np.zeros(dim)
    unit = v / np.linalg.norm(v)
    ball = vk.ball(zero, 1.0)
    cube = vk.box(-np.ones(dim), np.ones(dim))
    half = vk.halfspace(v, 1.0)
    factors = (vk.box([-1.0], [1.0]),) if dim == 1 else \
        (vk.ball(np.zeros(dim - 1), 1.0), vk.box([-1.0], [1.0]))
    return [ball, cube, half, vk.point_cloud_set([unit, -unit, zero]),
            vk.product(*factors), vk.union(ball, half), vk.intersection(ball, cube),
            vk.complement(ball), vk.sphere(zero, 1.0),
            vk.sublevel(lambda X: np.sum(X * X, axis=1) - 1.0, dim)]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
       st.integers(-2, 2))
@example(2, [0.8726843189280901, -0.48828483439178805, 0.0, 0.0], 0)
def test_scalar_and_batch_membership_agree(dim, vals, ulps):
    # points on or a few ulps off the boundaries of every kind
    v = np.array(vals[:dim])
    assume(np.linalg.norm(v) > 1e-3)
    s = 1.0 + ulps * 2.0 ** -52
    unit = v / np.linalg.norm(v)
    head = v[:-1] / max(np.linalg.norm(v[:-1]), 1e-3)  # on the product's ball factor
    points = [v, s * unit, s * unit / np.max(np.abs(unit)), s * v / (v @ v),
              (1.0 + 1e-9) * unit, np.concatenate([s * head, [0.5]])]
    for K in _all_kinds(dim, v):
        for x in points:
            assert K.margin(x) == K.margin_many(x[None])[0]
            assert K.contains(x) == bool(K.contains_many(x[None])[0])


def _boundary_kinds(dim):
    """One set of each kind with a boundary rule, with infinite box bounds among them."""
    lo, hi = -np.ones(dim), np.ones(dim)
    slab = vk.box(np.r_[-np.inf, lo[1:]], np.r_[0.5, hi[1:]])
    ball = vk.ball(0.2 * np.ones(dim), 1.0)
    half = vk.halfspace(np.arange(1.0, dim + 1.0) - 0.3, 0.4)
    factors = (vk.box([0.0], [np.inf]),) if dim == 1 else \
        (vk.ball(np.zeros(dim - 1), 1.0), vk.box([0.0], [np.inf]))
    return [vk.box(lo, hi), slab, vk.whole_space(dim), ball, half,
            vk.product(*factors), vk.product(*(vk.box([-1.0], [2.0]),) * dim),
            vk.union(vk.box(lo, lo + 0.5), vk.ball(2.0 * hi, 0.5)),
            vk.intersection(ball, half, vk.box(lo, hi)),
            vk.complement(vk.box(lo, hi)), vk.complement(ball), vk.sphere(lo, 1.0)]


@settings(max_examples=25, deadline=None)
@given(dim=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([1e-7, 1e-3, 1.0, 3.0]))
def test_batched_distances_match_the_per_row_rules(dim, seed, scale):
    """distance_many and boundary_distance_many give every row the per-row
    rule's value, in one batch of rows inside, outside and near each set."""
    rng = np.random.default_rng(seed)
    near = np.round(rng.uniform(-1, 1, (20, dim))) + scale * rng.standard_normal((20, dim))
    X = np.concatenate([rng.uniform(-2.5, 2.5, (40, dim)), near])
    for K in _boundary_kinds(dim) + _all_kinds(dim, rng.uniform(-1, 1, dim) + 0.1):
        want = [trace_reference.distance(K, x) for x in X]
        assert np.array_equal(K.distance_many(X), want), K.kind
        assert [K.distance(x) for x in X] == want, K.kind
    for K in _boundary_kinds(dim):
        want = [trace_reference.boundary_distance(K, x) for x in X]
        assert np.array_equal(K.boundary_distance_many(X), want), K.kind
        assert [K.boundary_distance(x) for x in X] == want, K.kind


def test_boundary_distance_unsupported_kinds():
    inside = np.array([[0.0, 0.0]])
    for K in (vk.point_cloud_set([[0.0, 0.0]]), vk.sublevel(lambda X: X[:, 0], 2),
              vk.complement(vk.sublevel(lambda X: X[:, 0], 2)),
              vk.product(vk.point_cloud_set([[0.0]]), vk.box([-1.0], [1.0]))):
        with pytest.raises(vk.Unsupported):
            K.boundary_distance_many(inside)
        with pytest.raises(vk.Unsupported):
            K.boundary_distance(inside[0])


def test_complement_boundary_distance_is_its_base_rule():
    # off a box corner the distance is Euclidean, not the L-infinity excess
    x = [1.0 + 7e-7, 1.0 + 7e-7]
    C = vk.complement(unit_box)
    assert C.boundary_distance(x) == unit_box.boundary_distance(x)
    assert C.boundary_distance(x) == pytest.approx(7e-7 * math.sqrt(2))
    assert abs(unit_box.margin(x)) == pytest.approx(7e-7)
    # ball and halfspace bases keep |margin|, so the sphere does too
    for base in (unit_ball, vk.halfspace([1.0, 2.0], 0.5)):
        for y in ([0.3, 0.1], [2.0, -1.0]):
            assert vk.complement(base).boundary_distance(y) == abs(base.margin(y))
    assert circle.boundary_distance([0.3, 0.4]) == pytest.approx(0.5)


def test_halfspace_margin_rows_do_not_depend_on_their_batch():
    rng = np.random.default_rng(5)
    for dim in (2, 3, 5):
        K = vk.halfspace(rng.standard_normal(dim), 0.3)
        X = rng.standard_normal((500, dim))
        want = [K.margin(x) for x in X]
        assert np.array_equal(K.margin_many(X), want)
        assert np.array_equal(K.margin_many(np.asfortranarray(X)), want)


def test_tangent_residual_circle_tangent_direction():
    r = vk.tangent_residual(circle, [1.0, 0.0], [0.0, 1.0], h_min=1e-6, h_max=1e-2)
    assert r <= 1e-6  # d((1, h), circle) ~ h^2 / 2


def test_tangent_residual_circle_normal_direction():
    r = vk.tangent_residual(circle, [1.0, 0.0], [1.0, 0.0], h_min=1e-6, h_max=1e-2)
    assert r == pytest.approx(1.0, abs=1e-6)


def test_tangent_residual_whole_space():
    K = vk.whole_space(2)
    assert vk.tangent_residual(K, [3.0, -4.0], [1.0, 7.0]) == 0.0


def test_tangent_residual_requires_membership():
    with pytest.raises(ValueError):
        vk.tangent_residual(unit_ball, [2.0, 0.0], [1.0, 0.0])


def test_tangent_residual_refuses_an_endless_ladder():
    with pytest.raises(ValueError, match="step ladder"):
        vk.tangent_residual(unit_ball, [0.0, 0.0], [1.0, 0.0], h_max=np.inf)


def test_tangent_residual_refuses_non_finite_direction():
    # a NaN quotient never wins the minimum, so a NaN direction would read as inf
    for v in ([np.nan, 0.0], [0.0, np.inf]):
        with pytest.raises(ValueError, match="finite direction"):
            vk.tangent_residual(unit_ball, [0.0, 0.0], v)


@pytest.mark.parametrize("kind", ["ball", "box", "sphere", "cloud"])
def test_batched_ladder_matches_scalar_loop(kind):
    rng = np.random.default_rng(7)
    Y = rng.uniform(-1.5, 1.5, (300, 2))
    K = {"ball": unit_ball, "box": vk.box([-0.5, -np.inf], [np.inf, 0.5]),
         "sphere": circle, "cloud": vk.point_cloud_set(Y[:60])}[kind]
    X = np.array([K.project(y) for y in Y])  # on the boundary or inside
    X = X[K.contains_many(X)]
    V = rng.standard_normal(X.shape)
    for h_min, h_max in ((1e-6, 1e-2), (0.01, 0.3)):
        got = _tangent_residuals(K, X, V, h_min, h_max)
        want = [residual_reference.tangent_residual(K, x, v, h_min, h_max) for x, v in zip(X, V)]
        assert len(X) >= 50 and got.tobytes() == np.array(want).tobytes()
        assert vk.tangent_residual(K, X[0], V[0], h_min, h_max) == want[0]


def test_projection_normality():
    # y - project(y) is a normal direction: it makes a nonnegative-obtuse
    # angle with every certified tangent direction at the foot point.
    for K, y in ((unit_ball, np.array([2.0, 1.0])),
                 (unit_box, np.array([1.5, 0.5]))):
        x = K.project(y)
        normal = y - x
        # the normal direction itself is far from tangent
        assert vk.tangent_residual(K, x, normal / np.linalg.norm(normal)) > 0.3
        # certified tangents: for the ball the orthogonal, for the box the face
        tangents = [np.array([-normal[1], normal[0]])] if K is unit_ball \
            else [np.array([0.0, 1.0]), np.array([0.0, -1.0])]
        for w in tangents:
            assert vk.tangent_residual(K, x, w) <= 1e-6
            assert normal @ w <= 1e-9 * np.linalg.norm(normal) * np.linalg.norm(w)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(0.05, 0.95), st.floats(0.1, 3.0))
def test_convex_cone_directions_vanish(kx, ky, lam):
    # for convex sets every direction lambda (k - x), k in K, is contingent
    x = np.array([1.0, 0.0])
    k = np.array([kx, ky])
    for K in (unit_box, unit_ball):
        if not K.contains(x):
            continue
        v = lam * (k - x)
        assert vk.tangent_residual(K, x, v, h_min=1e-6, h_max=1e-2) <= 1e-9


def test_sphere_composite_exact():
    assert circle.distance([0.5, 0.0]) == pytest.approx(0.5)
    assert circle.distance([0.0, 2.0]) == pytest.approx(1.0)
    p = circle.project([0.3, 0.4])   # radius 0.5 -> radial out
    assert_allclose(p, [0.6, 0.8], atol=1e-12)
    assert circle.contains([1.0, 0.0])
    assert not circle.contains([0.99, 0.0])


def test_intersection_bounds_and_projection():
    K = vk.intersection(vk.ball([0.0, 0.0], 1.0), vk.halfspace([-1.0, 0.0], -0.5))
    y = np.array([2.0, 0.0])  # true projection (1, 0)
    z = K.project(y)
    gap = float(np.linalg.norm(z - y))
    assert K.distance(y) <= gap + 1e-12  # distance is a certified lower bound
    assert K.contains(z) or K.distance(z) <= 1e-9
    assert gap == pytest.approx(1.0, abs=1e-9)


def test_union_min_rule():
    U = vk.union(vk.box([0.0], [1.0]), vk.box([3.0], [4.0]))
    assert U.distance([2.0]) == pytest.approx(1.0)
    assert U.distance([2.9]) == pytest.approx(0.1)
    assert_allclose(U.project([1.4]), [1.0])
    assert U.contains([3.5]) and not U.contains([2.0])


@pytest.mark.parametrize("make, message", [
    (lambda: vk.union(vk.box([0.0], [1.0]), vk.ball([0.0, 0.0], 1.0)),
     "union needs one or more members of one dimension"),
    (lambda: vk.intersection(vk.ball([0.0, 0.0], 1.0), vk.halfspace([1.0], 0.0)),
     "intersection needs one or more members of one dimension"),
    (lambda: vk.union(), "union needs one or more members of one dimension"),
    (lambda: vk.ball([0.0], float("nan")), "radius must be nonnegative"),
    (lambda: vk.ball([0.0], -1.0), "radius must be nonnegative"),
    (lambda: vk.sphere([0.0, 0.0], float("nan")), "radius must be nonnegative"),
], ids=["union-dims", "intersection-dims", "union-empty", "ball-nan", "ball-negative",
        "sphere-nan"])
def test_set_constructors_reject_bad_parts(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


def test_complement_projection_and_unsupported():
    C = vk.complement(vk.ball([0.0, 0.0], 1.0))
    assert C.contains([2.0, 0.0]) and not C.contains([0.2, 0.0])
    assert C.distance([0.6, 0.0]) == pytest.approx(0.4)
    assert_allclose(C.project([0.6, 0.0]), [1.0, 0.0])
    # complements of oracles without an analytic interior rule refuse
    S = vk.complement(vk.sublevel(lambda z: np.atleast_2d(z)[:, 0] - 1.0, 1))
    with pytest.raises(vk.Unsupported):
        S.project([0.0])


def test_product_rules():
    P = vk.product(vk.box([0.0], [1.0]), vk.ball([0.0], 1.0))
    assert P.contains([0.5, -0.5])
    assert P.distance([2.0, 2.0]) == pytest.approx(math.sqrt(2.0))
    assert_allclose(P.project([2.0, 2.0]), [1.0, 1.0])
    assert P.boundary_distance([0.5, 0.0]) == pytest.approx(0.5)


def test_sublevel_membership():
    S = vk.sublevel(lambda z: np.atleast_2d(z)[:, 0] ** 2 - 1.0, 1, lipschitz=2.0)
    assert S.contains([0.5]) and not S.contains([1.5])
    assert S.distance([1.5]) == pytest.approx((1.5 ** 2 - 1.0) / 2.0)


def test_point_cloud_merge_invariant():
    pc = PointCloud(np.array([[0.0], [0.04], [1.0]]), tol=0.1)
    d = np.abs(pc.points - pc.points.T)
    np.fill_diagonal(d, 1.0)
    assert d.min() >= 0.05


@settings(max_examples=150, deadline=None)
@given(dim=st.integers(1, 3), count=st.integers(1, 6), spacing=st.sampled_from([0.5, 0.1, 1 / 3]),
       reach=st.sampled_from([0.5, 1.0, math.sqrt(2.0), 2.0]), repeats=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1), jitter=st.booleans())
def test_merge_points_matches_per_row_loop(dim, count, spacing, reach, repeats, seed, jitter):
    """The pair scan keeps exactly the rows the per-row query_ball_point loop keeps,
    on shuffled lattices whose neighbours sit at exactly the merge radius."""
    rng = np.random.default_rng(seed)
    axis = spacing * np.arange(count)
    points = np.repeat(lattice_points([axis] * dim), repeats, axis=0)
    points = points[rng.permutation(len(points))]
    if jitter:
        points = points + 1e-17 * rng.integers(-1, 2, points.shape)
    radius = spacing * reach
    assert np.array_equal(_merge_points(points, radius),
                          cloud_reference.merge_points(points, radius))


@pytest.mark.parametrize("points", [np.empty((0, 2)), np.array([[0.3, -1.0]]),
                                    np.array([[0.0], [0.0]]), np.zeros((4, 3))])
@pytest.mark.parametrize("radius", [0.0, 0.5])
def test_merge_points_small_clouds(points, radius):
    assert np.array_equal(_merge_points(points, radius),
                          cloud_reference.merge_points(points, radius))


def test_merge_points_dense_cluster_keeps_memory_linear():
    """A tight cluster of c rows has c^2/2 close pairs: 3000 rows give 4.5M, a
    72 MB pair list.  The dedup queries each kept row's neighbours there
    instead, holding memory linear in the rows, and keeps what the per-row
    loop keeps; so does a PointCloud of the same rows."""
    rng = np.random.default_rng(5)
    points = np.concatenate([1e-3 * rng.uniform(-1.0, 1.0, (3000, 2)),
                             rng.uniform(2.0, 50.0, (500, 2))])
    tracemalloc.start()
    try:
        keep = _merge_points(points, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert np.array_equal(keep, cloud_reference.merge_points(points, 0.5))
    assert np.array_equal(PointCloud(points, tol=1.0).points, points[keep])


@pytest.mark.parametrize("per_row", [0.5, 3.0, 20.0])
def test_merge_points_sampled_density_matches_per_row_loop(per_row):
    """Both dedup routes keep the per-row loop's rows on 5000 uniform 2-D rows
    with about per_row neighbours each (the route is chosen from every 4th row)."""
    points = np.random.default_rng(7).uniform(0.0, 1.0, (5000, 2))
    radius = math.sqrt(per_row / (5000 * math.pi))
    assert np.array_equal(_merge_points(points, radius),
                          cloud_reference.merge_points(points, radius))


def _level(rng, t, rows, dim, spacing):
    """rows points at first coordinate t, on a lattice of the given spacing
    with about one row per node."""
    width = math.ceil(rows ** (1.0 / dim))
    return np.column_stack([np.full(rows, t), spacing * rng.integers(0, width, (rows, dim))])


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 2), h=st.sampled_from([0.01, 0.02, 1 / 30]),
       t0=st.sampled_from([0.0, 0.37, -1.1]),
       sizes=st.lists(st.integers(350, 700), min_size=3, max_size=6),
       spacing=st.sampled_from([2 / 3, 1.0, 1.5]), close=st.integers(0, 6),
       offset=st.sampled_from([0.3, 0.49]), tail=st.booleans(),
       near_cut=st.sampled_from([None, 1.0 - 1e-12, 1.0 + 1e-12]),
       cluster=st.booleans(), shuffle=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(dim=1, h=0.01, t0=0.0, sizes=[500] * 5, spacing=1.0, close=2, offset=0.49, tail=True,
         near_cut=1.0 - 1e-12, cluster=True, shuffle=True, seed=0)
def test_merge_points_slabs_match_per_row_loop(dim, h, t0, sizes, spacing, close, offset, tail,
                                               near_cut, cluster, shuffle, seed):
    """The slab dedup keeps the per-row loop's rows on time-level clouds of
    more than 1024 rows: levels t0 + j h merged at r = h/2 (some computed
    gaps fall below 2r), a level 0.3 h or 0.49 h after level `close`, a tail
    level 0.3 h after the last, a level 1.5 r (1 +- 1e-12) past it, and a
    tight cluster level whose slab takes the per-kept-row route while the
    others scan pairs; rows shuffled or not."""
    rng = np.random.default_rng(seed)
    radius = h / 2.0
    times = [t0 + j * h for j in range(len(sizes))]
    levels = [_level(rng, t, m, dim, spacing * radius) for t, m in zip(times, sizes)]
    if close < len(sizes):
        levels.append(_level(rng, times[close] + offset * h, sizes[close], dim, spacing * radius))
    last = times[-1]
    if tail:
        last += 0.3 * h
        levels.append(_level(rng, last, 400, dim, spacing * radius))
    if near_cut is not None:
        levels.append(_level(rng, last + 1.5 * radius * near_cut, 300, dim, spacing * radius))
    if cluster:
        levels.append(np.column_stack([np.full(1100, t0 - 3 * h),
                                       1e-3 * radius * rng.uniform(-1.0, 1.0, (1100, dim))]))
    points = np.concatenate(levels)
    if shuffle:
        points = points[rng.permutation(len(points))]
    assert np.array_equal(_merge_points(points, radius),
                          cloud_reference.merge_points(points, radius))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", [0, 1])
@pytest.mark.parametrize("row", [0, -1])
def test_merge_points_rejects_non_finite_rows_anywhere(value, column, row):
    """A non-finite row is refused wherever it sits in a cloud of gapped levels,
    as when every row went through one KD-tree; radius 0 or one row still
    returns the all-keep mask."""
    rng = np.random.default_rng(3)
    points = np.concatenate([_level(rng, 0.1 * j, 600, 1, 0.004) for j in range(4)])
    points[row, column] = value
    with pytest.raises(ValueError):
        _merge_points(points, 0.005)
    assert _merge_points(points, 0.0).all()
    assert _merge_points(points[row:][:1], 0.005).all()


def test_set_limit_singletons():
    # K_n = {1/n}: the limit {0} is recovered within eps (plus the tail offset)
    clouds = [PointCloud(np.array([[1.0 / n]])) for n in range(1, 101)]
    out = vk.set_limit(clouds, "upper", 0.05)
    assert len(out) >= 1
    assert out.as_oracle().distance([0.0]) <= 0.05
    assert np.all(np.abs(out.points) <= 2 * 0.05)


def test_set_limit_decreasing_boxes():
    # samples of [0, 1 + 1/n]: the limit is [0, 1]; the finite proxy
    # overshoots by at most eps plus the widest tail box
    clouds = [PointCloud(np.linspace(0.0, 1.0 + 1.0 / n, 30)[:, None])
              for n in range(1, 60)]
    up = vk.set_limit(clouds, "upper", 0.05)
    low = vk.set_limit(clouds, "lower", 0.05)
    slack = 0.05 + 1.0 / 30
    assert np.all(up.points <= 1.0 + slack + 1e-9)
    assert np.all(low.points <= 1.0 + slack + 1e-9)
    assert len(low) >= 1
    # samples well inside [0, 1] survive in the lower limit
    for probe in (0.0, 0.5, 0.95):
        assert low.as_oracle().distance([probe]) <= 0.05


def test_set_limit_alternating():
    clouds = [PointCloud(np.array([[float(n % 2)]])) for n in range(100)]
    up = vk.set_limit(clouds, "upper", 0.01)
    low = vk.set_limit(clouds, "lower", 0.01)
    vals = sorted(float(p[0]) for p in up.points)
    assert vals == [0.0, 1.0]
    assert len(low) == 0


def test_set_limit_lower_subset_of_upper():
    rng = np.random.default_rng(3)
    clouds = [PointCloud(rng.uniform(-1, 1, size=(8, 1))) for _ in range(20)]
    up = vk.set_limit(clouds, "upper", 0.3)
    low = vk.set_limit(clouds, "lower", 0.3)
    if len(low) and len(up):
        oracle = up.as_oracle()
        for pnt in low.points:
            assert oracle.distance(pnt) <= 0.3 + 1e-9


def test_empty_set():
    E = vk.empty_set(2)
    assert not E.contains([0.0, 0.0])
    assert E.distance([0.0, 0.0]) >= INF
