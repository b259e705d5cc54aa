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
from viakit.sets import _merge_points, _tangent_residuals


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


@pytest.mark.parametrize("K, message", [
    (vk.empty_set(2), "cannot project onto the empty set"),
    (vk.sublevel(lambda X: X[:, 0], 2), "sublevel sets have no analytic projection"),
], ids=["empty-cloud", "sublevel"])
def test_projection_unsupported_kinds(K, message):
    with pytest.raises(vk.Unsupported, match=message):
        K.project([0.0, 0.0])


def test_product_distance_overflow_reads_inf():
    """A factor distance whose square overflows reads inf, as Box and Ball
    distances there do; it raised a bare OverflowError."""
    P = vk.product(vk.halfspace([1.0], 0.0), vk.box([0.0], [1.0]))
    assert P.distance([1e200, 0.5]) == np.inf
    assert P.distance_many([[1e200, 0.5], [3.0, 2.0]]).tolist() == [np.inf, math.sqrt(10.0)]
    assert vk.tangent_residual(P, [0.0, 0.5], [1e205, 0.0]) == np.inf


def test_box_distance_overflow_reads_inf_without_a_warning():
    """A row whose squared distance overflows reads inf; it warned "overflow
    encountered in vecdot", an error under the suite's RuntimeWarning filter."""
    B = vk.box([0.0], [1.0])
    assert B.distance([1e200]) == np.inf
    assert B.distance_many([[1e200], [3.0]]).tolist() == [np.inf, 2.0]


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
    # a NaN parameter would make a set that contains no point
    (lambda: vk.box([float("nan")], [1.0]), "box needs lo <= hi componentwise"),
    (lambda: vk.box([0.0, -np.inf], [1.0, float("nan")]), "box needs lo <= hi componentwise"),
    (lambda: vk.ball([float("nan")], 1.0), "center must not be NaN"),
    (lambda: vk.halfspace([float("nan")], 0.0), "normal and offset must not be NaN"),
    (lambda: vk.halfspace([1.0], float("nan")), "normal and offset must not be NaN"),
    (lambda: vk.halfspace([0.0, 0.0], 1.0), "normal must be nonzero"),
    (lambda: vk.product(), "product needs at least one factor"),
], ids=["union-dims", "intersection-dims", "union-empty", "ball-nan", "ball-negative",
        "sphere-nan", "box-nan-lo", "box-nan-hi", "ball-nan-center", "halfspace-nan-normal",
        "halfspace-nan-offset", "halfspace-zero-normal", "product-empty"])
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


def _member_loop_margin(K, X):
    """A composite's margins as its member loop folded them, from a +-inf start."""
    if isinstance(K, vk.product):
        parts, fold, start = [f.margin_many(X[:, s]) for f, s in zip(K.factors, K._slices)], \
            np.maximum, -np.inf
    else:
        parts = [m.margin_many(X) for m in K.members]
        fold, start = (np.minimum, np.inf) if isinstance(K, vk.union) else (np.maximum, -np.inf)
    out = np.full(len(X), start)
    for part in parts:
        out = fold(out, part)
    return out


_PRIMITIVES = (vk.box([0.0, -1.0], [1.0, 1.0]), vk.ball([0.5, 0.0], 1.0),
               vk.halfspace([1.0, -1.0], 0.25))
_CLOUD = vk.point_cloud_set([[0.0, 0.0], [1.0, -0.5], [-0.0, 2.0]])
_EDGES = [0.0, -0.0, INF, -INF, 0.5, -1.25, 3.0]
# (composite, whether a member is a point cloud, whose KD-tree refuses non-finite rows)
_COMPOSITES = {
    "union": (vk.union(*_PRIMITIVES), False),
    "intersection": (vk.intersection(*_PRIMITIVES), False),
    "product": (vk.product(vk.box([0.0], [1.0]), vk.ball([0.5], 1.0)), False),
    "union-cloud": (vk.union(_PRIMITIVES[0], _CLOUD), True),
    "intersection-cloud": (vk.intersection(_CLOUD, _PRIMITIVES[2]), True),
    "product-cloud": (vk.product(vk.halfspace([-1.0], 0.0), vk.point_cloud_set([[0.0], [1.0]])),
                      True),
}


def _edge_rows(finite):
    """The lattice of edge values in 2-D: signed zeros, +-INF and, unless finite, +-NaN
    and +-inf."""
    edges = _EDGES if finite else _EDGES + [np.nan, -np.nan, np.inf, -np.inf]
    return lattice_points([np.array(edges)] * 2)


@pytest.mark.parametrize("K, finite", _COMPOSITES.values(), ids=_COMPOSITES.keys())
def test_composite_margins_have_the_bits_of_the_member_loop(K, finite):
    """The composite margins have the bits of the old fold from +-inf, NaN signs and
    signed zeros included, in margin_many and in the one-row margin (where
    np.max(..., axis=0) gives a NaN of its own); a point cloud's KD-tree refuses
    non-finite rows, so its composites take finite ones."""
    X = _edge_rows(finite)
    with np.errstate(invalid="ignore"):  # the halfspace's dot product of (inf, -inf) rows
        want = _member_loop_margin(K, X)
        assert K.margin_many(X).tobytes() == want.tobytes()
        assert np.array([K.margin(x) for x in X]).tobytes() == \
            np.concatenate([_member_loop_margin(K, x[None]) for x in X]).tobytes()


# (composite, rule): every distance rule, and the boundary rules of the composites
# whose members are primitives (a point cloud has no boundary rule)
_DISTANCE_RULES = [(name, "distance") for name in _COMPOSITES] + \
    [(name, "boundary_distance") for name, (_, cloud) in _COMPOSITES.items() if not cloud]


@pytest.mark.parametrize("name, rule", _DISTANCE_RULES,
                         ids=[f"{name}-{rule}" for name, rule in _DISTANCE_RULES])
def test_composite_distances_have_the_bits_of_their_one_row_lifts(name, rule):
    """Row i of distance_many and boundary_distance_many has the bits of the one-row
    distance(x_i) and boundary_distance(x_i), NaN signs and signed zeros included:
    the composite rules fold their members in order, where np.min/np.max(..., axis=0)
    over a one-row stack gave a NaN of its own."""
    K, finite = _COMPOSITES[name]
    X = _edge_rows(finite)
    with np.errstate(invalid="ignore"):  # the halfspace's dot product of (inf, -inf) rows
        rows = np.array([getattr(K, rule)(x) for x in X])
        assert getattr(K, rule + "_many")(X).tobytes() == rows.tobytes()


def _stacked_rule(K, X, rule):
    """A union or intersection distance, or a composite boundary distance, as the
    np.min/np.max(..., axis=0) over the stacked member results gave it."""
    if rule == "distance":
        stack = np.min if isinstance(K, vk.union) else np.max
        return stack([m.distance_many(X) for m in K.members], axis=0)
    if isinstance(K, vk.product):
        return K._outside_or(X, np.min([f.boundary_distance_many(X[:, s])
                                        for f, s in zip(K.factors, K._slices)], axis=0))
    if isinstance(K, vk.union):
        return np.min([m.boundary_distance_many(X) for m in K.members], axis=0)
    return K._outside_or(X, np.min([np.abs(m.margin_many(X)) for m in K.members], axis=0))


_FOLDED_RULES = [(name, rule) for name, rule in _DISTANCE_RULES
                 if not (name.startswith("product") and rule == "distance")]


@pytest.mark.parametrize("name, rule", _FOLDED_RULES,
                         ids=[f"{name}-{rule}" for name, rule in _FOLDED_RULES])
def test_composite_distance_folds_match_the_stacked_reduction_on_batches(name, rule):
    """On two or more rows, the folds have the bits of the stacked axis-0 reduction
    they replaced: on the whole edge lattice and on each pair of its rows."""
    K, finite = _COMPOSITES[name]
    X = _edge_rows(finite)
    with np.errstate(invalid="ignore"):
        for rows in [X] + [X[i:i + 2] for i in range(len(X) - 1)]:
            assert getattr(K, rule + "_many")(rows).tobytes() == \
                _stacked_rule(K, rows, rule).tobytes()


def test_complement_projects_onto_box_and_halfspace_faces():
    """From inside a box or halfspace, the complement projects onto the nearest
    face, a lo or a hi one; a box with no finite face has none to project onto."""
    assert vk.complement(unit_box).project([0.3, 0.5]).tolist() == [0.0, 0.5]
    assert vk.complement(unit_box).project([0.3, 0.9]).tolist() == [0.3, 1.0]
    with pytest.raises(vk.Unsupported, match="box has no finite face"):
        vk.complement(vk.whole_space(2)).project([0.3, 0.5])
    assert vk.complement(vk.halfspace([1.0, 0.0], 0.5)).project([0.0, 1.0]).tolist() == \
        [0.5, 1.0]


def test_sublevel_membership():
    S = vk.sublevel(lambda z: np.atleast_2d(z)[:, 0] ** 2 - 1.0, 1, lipschitz=2.0)
    assert S.contains([0.5]) and not S.contains([1.5])
    assert S.distance([1.5]) == pytest.approx((1.5 ** 2 - 1.0) / 2.0)


def test_point_cloud_merge_invariant():
    points = np.array([[0.0], [0.04], [1.0]])
    points = points[_merge_points(points, 0.05)]
    d = np.abs(points - points.T)
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
    loop keeps; so does set_limit on two copies of the rows."""
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
    assert np.array_equal(vk.set_limit([points, points], "upper", 1.0).points, points[keep])


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


@pytest.mark.parametrize("factor", [1.0 - 2.0 ** -20, 1.0, 1.0 + 2.0 ** -20])
@pytest.mark.parametrize("diagonal", [False, True])
@pytest.mark.parametrize("shuffle", [False, True])
def test_merge_points_chained_levels_match_per_row_loop(factor, diagonal, shuffle):
    """Levels 2r apart in t of 801 rows on a line, each row's only earlier
    neighbour the previous row of its level (the shape of a shock graph,
    where the greedy keep alternates along each level), spaced factor * r:
    just under the radius, at it (exact binary steps along one axis, or a
    diagonal step whose computed length sits at r within rounding) and just
    over it.  The dedup keeps the per-row loop's rows."""
    radius, levels, per_level = 2.0 ** -8, 12, 801
    k = np.arange(per_level) - per_level // 2
    step = factor * radius / (math.sqrt(2.0) if diagonal else 1.0)
    line = np.column_stack([k * step, k * step if diagonal else np.zeros(per_level)])
    rows = [np.column_stack([np.full(per_level, 2 * radius * j), line]) for j in range(levels)]
    points = np.concatenate(rows)
    order = np.random.default_rng(8).permutation(len(points)) if shuffle else np.arange(len(points))
    keep = _merge_points(points[order], radius)
    assert np.array_equal(keep, cloud_reference.merge_points(points[order], radius))
    if not shuffle and not (diagonal and factor == 1.0):
        want = k % 2 == 0 if factor <= 1.0 else np.ones(per_level, dtype=bool)
        assert np.array_equal(keep, np.tile(want, levels))


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
    clouds = [np.array([[1.0 / n]]) for n in range(1, 101)]
    out = vk.set_limit(clouds, "upper", 0.05)
    assert len(out.points) >= 1
    assert out.distance([0.0]) <= 0.05
    assert np.all(np.abs(out.points) <= 2 * 0.05)


def test_set_limit_decreasing_boxes():
    # samples of [0, 1 + 1/n]: the limit is [0, 1]; the finite proxy
    # overshoots by at most eps plus the widest tail box
    clouds = [np.linspace(0.0, 1.0 + 1.0 / n, 30)[:, None] for n in range(1, 60)]
    up = vk.set_limit(clouds, "upper", 0.05)
    low = vk.set_limit(clouds, "lower", 0.05)
    slack = 0.05 + 1.0 / 30
    assert np.all(up.points <= 1.0 + slack + 1e-9)
    assert np.all(low.points <= 1.0 + slack + 1e-9)
    assert len(low.points) >= 1
    # samples well inside [0, 1] survive in the lower limit
    for probe in (0.0, 0.5, 0.95):
        assert low.distance([probe]) <= 0.05


def test_set_limit_alternating():
    clouds = [np.array([[float(n % 2)]]) for n in range(100)]
    up = vk.set_limit(clouds, "upper", 0.01)
    low = vk.set_limit(clouds, "lower", 0.01)
    vals = sorted(float(p[0]) for p in up.points)
    assert vals == [0.0, 1.0]
    assert len(low.points) == 0 and low.dim == 1


def test_set_limit_lower_subset_of_upper():
    rng = np.random.default_rng(3)
    clouds = [rng.uniform(-1, 1, size=(8, 1)) for _ in range(20)]
    up = vk.set_limit(clouds, "upper", 0.3)
    low = vk.set_limit(clouds, "lower", 0.3)
    if len(low.points) and len(up.points):
        for pnt in low.points:
            assert up.distance(pnt) <= 0.3 + 1e-9


def test_set_oracle_is_the_one_membership_rule():
    """Only SetOracle defines the public *_many rules: membership is margin_many(X)
    <= 0, and every kind implements private rules on width-checked rows."""
    kinds = [c for c in vars(vk.sets).values()
             if isinstance(c, type) and issubclass(c, vk.SetOracle)]
    assert len(kinds) > 5
    assert [c for c in kinds if any(n.endswith("_many") for n in vars(c))] == [vk.SetOracle]


_BOX_2D = vk.box([0.0, 0.0], [1.0, 1.0])


@pytest.mark.parametrize("K", [
    _BOX_2D, vk.ball([0.0, 0.0], 1.0), vk.halfspace([1.0, 0.0], 0.0),
    vk.point_cloud_set([[0.0, 0.0]]), vk.product(vk.box([0.0], [1.0]), vk.box([0.0], [1.0])),
    vk.union(_BOX_2D, vk.ball([3.0, 0.0], 1.0)),
    vk.intersection(_BOX_2D, vk.ball([0.0, 0.0], 1.0)),
    vk.complement(_BOX_2D), vk.sublevel(lambda X: X[:, 0], 2),
], ids=lambda K: K.kind)
@pytest.mark.parametrize("rows", [[0.5], [[0.5, 0.5, 0.5]], np.zeros((2, 3))],
                         ids=["short-row", "long-row", "long-rows"])
def test_every_rule_refuses_rows_of_another_width(K, rows):
    """Rows whose width is not the set's dimension broadcast into a wrong answer;
    every public rule refuses them, naming the kind, the dimension and the width."""
    width = np.atleast_2d(rows).shape[1]
    for rule in (K.margin_many, K.contains_many, K.distance_many, K.boundary_distance_many,
                 K.margin, K.contains, K.distance, K.boundary_distance):
        with pytest.raises(ValueError, match=f"{K.kind} of dimension 2: rows of width {width}"):
            rule(rows)


class _Slab(vk.SetOracle):
    """A custom kind by its private margin alone: the slab 1 <= x <= 2."""

    kind = "slab"

    def _margin(self, X):
        return np.abs(X[:, 0] - 1.5) - 0.5


class _Fixed(vk.SetOracle):
    """A custom kind that overrides a public rule, as residual_reference._Fiber does."""

    def distance_many(self, X):
        return np.full(len(np.atleast_2d(X)), 7.0)


def test_custom_kinds_implement_private_rules_and_compose():
    """A custom kind implements _margin on checked rows and gets every public rule;
    one that overrides a public rule still composes: composites call their members'
    public rules."""
    S, X = _Slab(1), [[1.5], [3.0], [-1.0]]
    assert S.margin_many(X).tolist() == [-0.5, 1.0, 2.0]
    assert S.contains_many(X).tolist() == [True, False, False]
    assert S.distance_many(X).tolist() == [0.0, 1.0, 2.0] and S.distance([0.0]) == 1.0
    with pytest.raises(vk.Unsupported):
        S.boundary_distance_many(X)
    with pytest.raises(ValueError, match="slab of dimension 1: rows of width 2"):
        S.margin([1.0, 2.0])
    far = vk.box([10.0], [11.0])
    assert vk.union(S, far).distance_many(X).tolist() == [0.0, 1.0, 2.0]
    assert vk.union(_Fixed(1), far).distance_many(X).tolist() == [7.0, 7.0, 7.0]
    assert vk.product(S, far).contains([1.5, 10.5])


_TWO_POINTS = vk.point_cloud_set([[0.1], [0.3]])
_FAR_BOX = vk.box([5.0], [6.0])


@pytest.mark.parametrize("K, x", [
    (vk.union(_TWO_POINTS, _FAR_BOX), [0.1 + 1e-12]),
    (vk.intersection(_TWO_POINTS, vk.box([0.0], [1.0])), [0.1 + 1e-12]),
    (vk.product(_TWO_POINTS, vk.box([0.0], [1.0])), [0.1 + 1e-12, 0.5]),
    # the node 0.10000000000000009 of GridSpec([-1], [1], [20])
    (vk.union(_TWO_POINTS, _FAR_BOX), vk.GridSpec([-1.0], [1.0], [20]).nodes()[11]),
], ids=["union", "intersection", "product", "union-grid-node"])
def test_composites_keep_the_clouds_tolerance(K, x):
    """A point within 1e-9 of a cloud point is in the cloud, and so in every
    composite that folds the cloud's margin."""
    assert 0.0 < abs(x[0] - 0.1) <= 1e-9
    assert _TWO_POINTS.contains(x[:1])
    assert K.contains(x) and K.contains_many(np.array([x]))[0]


def test_point_cloud_is_the_union_of_its_1e9_balls():
    """The margin is the exact KD distance less 1e-9; the complement of a cloud
    is the closure of the complement of those balls."""
    x = np.array([[0.1], [0.1 + 5e-10], [0.1 + 2e-9], [0.15]])
    d = np.abs(x[:, 0] - 0.1)
    assert _TWO_POINTS.distance_many(x).tolist() == d.tolist()
    assert _TWO_POINTS.margin_many(x).tolist() == (d - 1e-9).tolist()
    assert _TWO_POINTS.contains_many(x).tolist() == [True, True, False, False]
    C = vk.complement(_TWO_POINTS)
    assert C.contains_many(x).tolist() == [False, False, True, True]
    assert C.distance([0.1]) == 1e-9


@pytest.mark.parametrize("mode", ["upper", "lower"])
def test_set_limit_counts_exact_distances(mode):
    """A candidate 1e-10 farther than eps from a tail cloud is not within eps of it,
    as in the reference; the cloud's 1e-9 margin slack is not counted."""
    near, far = np.array([[0.0]]), np.array([[0.2 + 1e-10]])
    clouds = [near, far, near, far, far]  # the tail is near, far, far
    got = vk.set_limit(clouds, mode, 0.2)
    want = cloud_reference.set_limit(map(cloud_reference.PointCloud, clouds), mode, 0.2)
    assert got.points.shape == want.points.shape
    assert got.points.tobytes() == want.points.tobytes()


def test_empty_set():
    E = vk.empty_set(2)
    assert not E.contains([0.0, 0.0])
    assert E.distance([0.0, 0.0]) >= INF


@pytest.mark.parametrize("k", [1, 2, 3])
def test_empty_set_has_its_dimension(k):
    """A zero-row point cloud takes its dimension from its columns, so it joins a
    union of that dimension and leaves the other member's margins as they are."""
    E = vk.empty_set(k)
    assert E.dim == k
    B = vk.ball(np.zeros(k), 1.0)
    U = vk.union(B, E)
    X = np.linspace(-2.0, 2.0, 5 * k).reshape(5, k)
    assert U.dim == k
    assert U.margin_many(X).tobytes() == B.margin_many(X).tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("mode", ["upper", "lower"])
def test_set_limit_matches_the_point_cloud_reference(dim, mode):
    """set_limit's points have the bits of the reference PointCloud route's on 50
    random sequences of clouds near a coarse lattice, empty clouds included; where
    every cloud is empty, the reference finds no candidates and raises, and
    set_limit returns the empty set of the clouds' dimension."""
    rng = np.random.default_rng(7 * dim + (mode == "upper"))
    for _ in range(50):
        clouds = []
        for m in rng.integers(0, 6, int(rng.integers(2, 7))):
            jitter = rng.choice([0.0, 1e-3, 0.1])
            clouds.append(0.25 * rng.integers(0, 4, (m, dim)) +
                          jitter * rng.standard_normal((m, dim)))
        eps = float(rng.choice([0.05, 0.2, 0.5]))
        got = vk.set_limit(clouds, mode, eps)
        assert got.dim == dim
        if not any(len(c) for c in clouds):
            with pytest.raises(ValueError):
                cloud_reference.set_limit(map(cloud_reference.PointCloud, clouds), mode, eps)
            assert got.points.shape == (0, dim)
            continue
        want = cloud_reference.set_limit(map(cloud_reference.PointCloud, clouds), mode, eps)
        assert got.points.shape == want.points.shape
        assert got.points.tobytes() == want.points.tobytes()
