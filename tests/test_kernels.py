import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import viakit as vk
from viakit import kernels
from viakit.common import INF
from viakit.dynamics import _march, rk4_step
from viakit.kernels import REFINE_FRAC, _event_sweep, _margin_of

one = vk.transport_field([1.0])
grow = vk.linear_field(1.0)
decay = vk.linear_field(-1.0)


def test_exit_time_transport():
    K = vk.box([0.0], [1.0])
    assert vk.exit_time(one, K, [0.3], 10.0, 1e-3) == pytest.approx(0.7, abs=1e-6)


def test_exit_time_exponential():
    K = vk.box([-1.0], [1.0])
    assert vk.exit_time(grow, K, [0.5], 10.0, 1e-3) == pytest.approx(math.log(2.0), abs=1e-6)


def test_exit_time_equilibrium_infinite():
    K = vk.box([-1.0], [1.0])
    assert vk.exit_time(grow, K, [0.0], 50.0, 1e-2) >= INF


def test_hitting_time_immediate():
    C = vk.ball([0.0], 0.5)
    assert vk.hitting_time(decay, C, [0.2], 10.0, 1e-3) == 0.0


def test_hitting_time_decay():
    C = vk.ball([0.0], 0.1)
    assert vk.hitting_time(decay, C, [1.0], 10.0, 1e-3) == pytest.approx(math.log(10.0), abs=1e-6)


def test_hitting_time_exact_point_never():
    C = vk.point_cloud_set([[0.0]])
    assert vk.hitting_time(decay, C, [1.0], 10.0, 1e-2) >= INF


def test_margin_equals_minus_exit_when_target_is_K():
    K = vk.box([-1.0], [1.0])
    g = vk.capture_margin(grow, K, K, [0.5], 10.0, 1e-3)
    assert g == -vk.exit_time(grow, K, [0.5], 10.0, 1e-3)  # identical sweep, bit-equal


def test_margin_transport_example():
    K, C = vk.box([0.0], [2.0]), vk.box([1.0], [2.0])
    g = vk.capture_margin(one, K, C, [0.5], 10.0, 1e-3)
    assert g == pytest.approx(-1.0, abs=1e-6)


def test_margin_nonpositive_when_already_captured():
    K, C = vk.box([0.0], [2.0]), vk.box([0.0], [1.0])
    assert vk.capture_margin(one, K, C, [0.5], 10.0, 1e-3) <= 0.0


def test_viab_field_exponential_kernel_is_origin():
    K = vk.box([-1.0], [1.0])
    grid = vk.GridSpec([-1.0], [1.0], [400])
    tf = vk.viab_field(grow, K, grid, 20.0, 1e-2)
    kernel = tf.superlevel(20.0)
    assert_allclose(grid.nodes()[kernel], [[0.0]])


def test_viab_field_rotation_disk_all_survive():
    disk = vk.ball([0.0, 0.0], 1.0)
    grid = vk.GridSpec([-1.0, -1.0], [1.0, 1.0], [40, 40])
    tf = vk.viab_field(vk.rotation_field(), disk, grid, 5.0, 1e-2)
    assert np.all(tf.values[tf.inside] >= INF)


def test_viab_field_transport_values():
    K = vk.box([0.0], [1.0])
    grid = vk.GridSpec([0.0], [1.0], [50])
    tf = vk.viab_field(one, K, grid, 5.0, 1e-3)
    xs = grid.nodes().ravel()
    assert np.max(np.abs(tf.values - (1.0 - xs))) <= 1e-6


def test_capt_field_transport_values():
    C = vk.ball([1.0], 0.01)
    grid = vk.GridSpec([0.0], [1.0], [50])
    tf = vk.capt_field(one, C, grid, 5.0, 1e-3)
    xs = grid.nodes().ravel()
    expect = np.maximum(1.0 - 0.01 - xs, 0.0)
    assert np.max(np.abs(tf.values - expect)) <= 1e-6


def test_capt_field_2d_radial():
    f = vk.linear_field(-1.0, dim=2)
    C = vk.ball([0.0, 0.0], 0.5)
    grid = vk.GridSpec([-1.5, -1.5], [1.5, 1.5], [30, 30])
    tf = vk.capt_field(f, C, grid, 5.0, 1e-2)
    r = np.linalg.norm(grid.nodes(), axis=1)
    expect = np.where(r <= 0.5, 0.0, np.log(np.maximum(r, 0.5) / 0.5))
    assert np.max(np.abs(tf.values - expect)) <= 1e-6


def test_capt_field_supset_zero():
    C = vk.box([-5.0], [5.0])
    grid = vk.GridSpec([0.0], [1.0], [10])
    tf = vk.capt_field(one, C, grid, 2.0, 1e-2)
    assert np.all(tf.values == 0.0)


def test_capt_field_union_law_exact():
    C1 = vk.box([1.0], [1.2])
    C2 = vk.box([1.5], [1.7])
    grid = vk.GridSpec([0.0], [2.0], [80])
    kw = dict(grid=grid, T_max=5.0, h=1e-2)
    u = vk.capt_field(one, vk.union(C1, C2), **kw)
    a = vk.capt_field(one, C1, **kw)
    b = vk.capt_field(one, C2, **kw)
    assert np.array_equal(u.values, np.minimum(a.values, b.values))


def test_viable_capt_target_equals_K():
    K = vk.box([0.0], [2.0])
    grid = vk.GridSpec([0.0], [2.0], [20])
    tf = vk.viable_capt_field(one, K, K, grid, 5.0, 1e-2)
    assert np.all(tf.values[tf.inside] <= 0.0)


def test_viable_capt_whole_interval_captured():
    K, C = vk.box([0.0], [2.0]), vk.box([1.0], [2.0])
    grid = vk.GridSpec([0.0], [2.0], [40])
    tf = vk.viable_capt_field(one, K, C, grid, 5.0, 1e-3)
    inside = tf.inside
    assert np.all(tf.values[inside] <= 0.0)
    xs = grid.nodes().ravel()
    pre = inside & (xs < 1.0)
    assert np.max(np.abs(tf.values[pre] - (-1.0))) <= 1e-6


def test_viable_capt_unreachable_target():
    K, C = vk.box([0.0], [2.0]), vk.point_cloud_set([[0.0]])
    grid = vk.GridSpec([0.0], [2.0], [40])
    tf = vk.viable_capt_field(one, K, C, grid, 5.0, 1e-2)
    basin = tf.inside & (tf.values <= 0.0)
    assert_allclose(grid.nodes()[basin], [[0.0]])


def test_discrete_kernel_exponential():
    K = vk.box([-1.0], [1.0])
    grid = vk.GridSpec([-1.0], [1.0], [400])
    alive, iters = vk.discrete_kernel(grow, K, grid, 1.0, flow_step=1e-2)
    xs = grid.nodes().ravel()
    cell = grid.spacing[0]
    assert alive.any()
    assert np.all(np.abs(xs[alive]) <= 2 * cell + 1e-12)
    assert iters <= 401


def test_discrete_kernel_rotation_disk():
    disk = vk.ball([0.0, 0.0], 1.0)
    grid = vk.GridSpec([-1.0, -1.0], [1.0, 1.0], [40, 40])
    alive, _ = vk.discrete_kernel(vk.rotation_field(), disk, grid, 1.0, flow_step=1e-2)
    inside = disk.contains_many(grid.nodes())
    assert np.array_equal(alive, inside)


@pytest.mark.parametrize("field", [decay, grow], ids=["contracting", "expanding"])
def test_discrete_kernel_sweeps_at_most_the_in_k_nodes_plus_one(field):
    """Each sweep but the last deletes at least one in-K node, so the sweep count
    is at most the in-K node count plus 1."""
    K = vk.box([-1.0], [1.0])
    grid = vk.GridSpec([-1.5], [1.5], [61])
    alive, iters = vk.discrete_kernel(field, K, grid, 0.5, flow_step=1e-2)
    in_k = int(K.contains_many(grid.nodes()).sum())
    assert 1 <= iters <= in_k + 1
    # the contracting field keeps every in-K node in one sweep; the expanding one deletes
    assert (alive.sum() == in_k) == (iters == 1) == (field is decay)


def test_discrete_kernel_default_flow_step_is_a_hundredth_of_h():
    K = vk.box([-1.0], [1.0])
    grid = vk.GridSpec([-1.0], [1.0], [41])
    alive, iters = vk.discrete_kernel(grow, K, grid, 0.5)
    want_alive, want_iters = vk.discrete_kernel(grow, K, grid, 0.5, flow_step=0.5 / 100)
    assert np.array_equal(alive, want_alive) and iters == want_iters


def test_discrete_kernel_empty_set():
    grid = vk.GridSpec([0.0], [1.0], [10])
    alive, iters = vk.discrete_kernel(one, vk.empty_set(1), grid, 1.0)
    assert not alive.any() and iters == 0


def test_discrete_kernel_every_image_blows_up():
    """No in-K node has a finite one-step image, so none survives the first sweep."""
    nan = vk.VectorField(1, lambda t, x: np.full_like(x, np.nan), name="nan")
    alive, iters = vk.discrete_kernel(nan, vk.box([0.0], [1.0]), vk.GridSpec([0.0], [1.0], [4]),
                                      0.1)
    assert not alive.any() and iters == 1


def test_grid_fields_are_grid_functions():
    """The grid fields return the one grid-valued type, whose inside marks the nodes
    of K; built from values alone, a GridFunction is inside at every node."""
    assert vk.GridFunction is kernels.GridFunction is vk.epi_hj.GridFunction
    K = vk.box([0.0], [1.0])
    grid = vk.GridSpec([-0.5], [1.5], [8])
    tf = vk.viab_field(one, K, grid, 5.0, 1e-2)
    assert isinstance(tf, vk.GridFunction)
    assert tf.inside.tolist() == K.contains_many(grid.nodes()).tolist()
    assert tf.interp([0.375]) == pytest.approx(0.625, abs=1e-6)
    assert vk.GridFunction(grid, tf.values).inside.tolist() == [True] * 9


def test_repeller_transport():
    K = vk.box([0.0], [1.0])
    grid = vk.GridSpec([0.0], [1.0], [50])
    rep = vk.repeller_check(one, K, grid, 3.0, 1e-3)
    assert rep.is_repeller
    assert rep.t_bar == pytest.approx(1.0, abs=1e-6)


def test_repeller_rotation_disk_false():
    disk = vk.ball([0.0, 0.0], 1.0)
    grid = vk.GridSpec([-1.0, -1.0], [1.0, 1.0], [20, 20])
    rep = vk.repeller_check(vk.rotation_field(), disk, grid, 3.0, 1e-2)
    assert not rep.is_repeller


def test_repeller_empty_vacuous():
    grid = vk.GridSpec([0.0], [1.0], [10])
    rep = vk.repeller_check(one, vk.empty_set(1), grid, 3.0, 1e-2)
    assert rep.is_repeller and rep.t_bar == 0.0


def test_nesting_in_horizon():
    K = vk.box([-1.0], [1.0])
    grid = vk.GridSpec([-1.0], [1.0], [100])
    tf = vk.viab_field(grow, K, grid, 10.0, 1e-2)
    viab_2, viab_5 = tf.superlevel(2.0), tf.superlevel(5.0)
    assert np.all(viab_5 <= viab_2)  # {tau >= 5} inside {tau >= 2}
    C = vk.ball([0.0], 0.1)
    cf = vk.capt_field(decay, C, grid, 10.0, 1e-2)
    capt_1, capt_3 = cf.sublevel(1.0), cf.sublevel(3.0)
    assert np.all(capt_1 <= capt_3)


def test_backward_reachable_consistency():
    # points flowed backward from C have capture value <= t (+ node snap)
    C = vk.ball([1.0], 0.005)
    grid = vk.GridSpec([0.0], [1.0], [100])
    tf = vk.capt_field(one, C, grid, 3.0, 1e-3)
    cell = grid.spacing[0]
    xs = grid.nodes().ravel()
    for t in (0.2, 0.5, 0.8):
        pts, ok = vk.reach_set(one.negated(), t, [[1.0]], 1e-3)
        assert ok.all()
        node = int(np.argmin(np.abs(xs - pts[0][0])))
        assert tf.values[node] <= t + cell


def test_cross_method_agreement():
    K = vk.box([-1.0], [1.0])
    grid = vk.GridSpec([-1.0], [1.0], [400])
    tf = vk.viab_field(grow, K, grid, 20.0, 1e-2)
    alive, _ = vk.discrete_kernel(grow, K, grid, 1.0, flow_step=1e-2)
    xs = grid.nodes().ravel()
    a = xs[tf.superlevel(20.0)]
    b = xs[alive]
    # Hausdorff gap between the two kernel approximations <= 2 cells
    gap = max(np.abs(b[:, None] - a[None, :]).min(axis=1).max(),
              np.abs(a[:, None] - b[None, :]).min(axis=1).max())
    assert gap <= 2 * grid.spacing[0] + 1e-12


def test_refinement_monotonicity():
    # halving h and doubling density grows the kernel by at most 1 cell-shell
    K = vk.box([-1.0], [1.0])
    coarse = vk.GridSpec([-1.0], [1.0], [100])
    fine = vk.GridSpec([-1.0], [1.0], [200])
    t_c = vk.viab_field(grow, K, coarse, 8.0, 2e-2)
    t_f = vk.viab_field(grow, K, fine, 8.0, 1e-2)
    a = coarse.nodes().ravel()[t_c.superlevel(8.0)]
    b = fine.nodes().ravel()[t_f.superlevel(8.0)]
    if len(b):
        worst = np.abs(b[:, None] - a[None, :]).min(axis=1).max() if len(a) else np.inf
        assert worst <= coarse.spacing[0] + 1e-12


def test_workers_bit_identical(monkeypatch):
    # lower the chunk floor so that 201 rows split, and record each sweep's rows
    monkeypatch.setattr(kernels, "CHUNK_ROWS", 16)
    sweep, sweeps = kernels._event_sweep, []
    monkeypatch.setattr(kernels, "_event_sweep",
                        lambda *a, **kw: sweeps.append(len(a[1])) or sweep(*a, **kw))
    K = vk.box([-1.0], [1.0])
    grid = vk.GridSpec([-1.0], [1.0], [200])
    tf1 = vk.viab_field(grow, K, grid, 5.0, 1e-2, workers=1)
    tf8 = vk.viab_field(grow, K, grid, 5.0, 1e-2, workers=8)
    assert np.array_equal(tf1.values, tf8.values)
    c1 = vk.capt_field(decay, vk.ball([0.0], 0.1), grid, 5.0, 1e-2, workers=1)
    c5 = vk.capt_field(decay, vk.ball([0.0], 0.1), grid, 5.0, 1e-2, workers=5)
    assert np.array_equal(c1.values, c5.values)
    # one sweep per chunk, in whatever order the threads finish
    assert sorted(sweeps) == sorted([201, 201] + [26] * 7 + [19] + [41] * 4 + [37])


@pytest.mark.parametrize("n, workers", [(40401, 10 ** 6), (40401, 2), (40401, 1),
                                        (78961, 8), (2 * kernels.CHUNK_ROWS - 1, 8),
                                        (2 * kernels.CHUNK_ROWS, 8), (100, 4), (1, 8)])
def test_chunks_floor_and_cover(n, workers):
    spans = kernels._chunks(n, workers)
    assert 1 <= len(spans) <= max(1, min(workers, n // kernels.CHUNK_ROWS))
    assert spans[0][0] == 0 and spans[-1][1] == n
    assert all(e == s for (_, e), (s, _) in zip(spans, spans[1:]))
    assert all(e - s >= kernels.CHUNK_ROWS for s, e in spans[:-1])
    assert all(e > s for s, e in spans)


def test_timefield_csv_sentinel(tmp_path):
    from viakit.csvio import write_table
    K = vk.box([-1.0], [1.0])
    grid = vk.GridSpec([-1.0], [1.0], [4])
    tf = vk.viab_field(grow, K, grid, 5.0, 1e-2)
    path = tmp_path / "tf.csv"
    write_table(path, x=grid.nodes(), value=tf.values)
    text = path.read_text()
    assert text.splitlines()[0] == "x1,value"
    assert ",inf" in text  # the node at 0 never exits


def test_exit_time_requires_membership():
    K = vk.box([0.0], [1.0])
    with pytest.raises(ValueError):
        vk.exit_time(one, K, [2.0], 1.0, 1e-2)
    with pytest.raises(ValueError, match="requires x in K"):
        vk.capture_margin(one, K, vk.box([3.0], [4.0]), [2.0], 2.0, 1e-2)


def test_event_sweep_returns_start_membership():
    # a row outside K is not looked at for an exit: it reads 0 and never fails
    K = vk.box([-1.0], [1.0])
    x0 = np.array([[0.5], [2.0], [-0.5], [-3.0]])
    inside, ex, ht, failed, _, _ = _event_sweep(grow, x0, 2.0, 0.05, K=K)
    assert inside.dtype == bool and inside.tolist() == [True, False, True, False]
    assert ex[1] == ex[3] == 0.0 and abs(ex[0] - math.log(2.0)) <= 1e-6
    assert (ht >= INF).all() and not failed.any()
    # without K every row counts as inside
    inside, ex, ht, _, _, exits = _event_sweep(grow, x0, 2.0, 0.05, C=vk.box([1.5], [5.0]))
    assert exits is None
    assert inside.dtype == bool and inside.all() and (ex >= INF).all()
    assert ht[1] == 0.0 and abs(ht[0] - math.log(3.0)) <= 1e-6


@pytest.mark.parametrize("per_row", [False, True])
def test_two_kind_sweep_has_the_bits_of_one_kind_sweeps(per_row):
    # x' = x^2 - 1: rows in (-0.9, 1) fall to -1 and leave K at -0.9, those above
    # 0 hit C on the way; the row from 1.5 blows up (norm past 1e12) inside K
    field = vk.VectorField(1, lambda t, x: x * x - 1.0, name="riccati")
    K, C = vk.box([-0.9], [1e13]), vk.box([-0.5], [0.0])
    x0 = np.array([[0.95], [0.6], [0.2], [-0.3], [-0.85], [1.5], [-0.7], [0.0], [0.8]])
    T = np.linspace(1.0, 3.0, len(x0)) if per_row else 3.0
    _, ex, ht, failed, _, _ = _event_sweep(field, x0, T, 0.05, K=K, C=C)
    _, ex_k, _, failed_k, _, _ = _event_sweep(field, x0, T, 0.05, K=K)
    _, _, ht_c, failed_c, _, _ = _event_sweep(field, x0, T, 0.05, C=C)
    assert ex.tobytes() == ex_k.tobytes() and ht.tobytes() == ht_c.tobytes()
    assert (failed == (failed_k | failed_c)).all() and np.flatnonzero(failed).tolist() == [5]
    # rows 1, 2 and 8 hit C while looking for their exit; -0.3 and 0.0 start in C
    assert (ex < INF).sum() >= 5 and ((0.0 < ht) & (ht < INF)).sum() >= 3


def test_exit_time_blowup_propagates():
    quad = vk.VectorField(1, lambda t, x: x * x, name="quadratic")
    huge = vk.box([-1e11], [1e11])  # blow-up hits before the boundary does
    with pytest.raises(vk.NonFinite):
        vk.exit_time(quad, huge, [3.0], 5.0, 1e-3)
    # hitting a reachable target before the blow-up still succeeds
    C = vk.box([10.0], [1e11])
    assert vk.hitting_time(quad, C, [3.0], 5.0, 1e-3) < INF


def test_grid_node_count_is_exact_and_indexable():
    assert vk.GridSpec([0.0], [1.0], [10 ** 17]).node_count == 10 ** 17 + 1
    with pytest.raises(ValueError, match="too large to index"):  # (2^32 + 1)^2 passes int64
        vk.GridSpec([0.0, 0.0], [1.0, 1.0], [2 ** 32, 2 ** 32])


def test_grid_nodes_row_major():
    grid = vk.GridSpec([0.0, 10.0], [1.0, 11.0], [2, 2])
    nodes = grid.nodes()
    assert_allclose(nodes[0], [0.0, 10.0])
    assert_allclose(nodes[1], [0.0, 10.5])  # last axis varies fastest
    assert_allclose(nodes[3], [0.5, 10.0])


# ---------------------------------------------------------------------------
# Batched event refinement against the one-row scalar bisection
# ---------------------------------------------------------------------------


def _bisect_crossing_ref(field, t0, x0, h, crossed, tol):
    """The scalar refinement loop: one-row RK4 sub-steps, one crossing at a time."""
    lo, hi = 0.0, h
    for _ in range(80):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if crossed(rk4_step(field, t0, x0, mid)[None, :])[0]:
            hi = mid
        else:
            lo = mid
    return hi


def _events_ref(field, X0, T_max, h, K=None, C=None):
    """(exit, hit, failed) with each crossing refined alone as the march finds it."""
    n = len(X0)
    tol = REFINE_FRAC * max(T_max, 1.0)
    exit_t, hit_t = np.full(n, INF), np.full(n, INF)
    need_exit, need_hit = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    events = []
    if K is not None:
        need_exit = K.contains_many(X0)
        exit_t[~need_exit] = 0.0
        events.append((need_exit, exit_t, lambda X: ~K.contains_many(X)))
    if C is not None:
        need_hit = ~C.contains_many(X0)
        hit_t[~need_hit] = 0.0
        events.append((need_hit, hit_t, C.contains_many))
    x = X0.copy()
    live = need_exit | need_hit
    for rows, t, hj, prev, new in _march(field, x, 0.0, T_max, h, live):
        for need, times, crossed in events:
            for row, xprev, xnew in zip(rows, prev, new):
                if need[row] and crossed(xnew[None, :])[0]:
                    times[row] = t + _bisect_crossing_ref(field, t, xprev, hj, crossed, tol)
                    need[row] = False
        live &= need_exit | need_hit
    return exit_t, hit_t, ~live & (need_exit | need_hit)


def _wobble(t, x):
    """x' = (cos 3t - 0.2 x1, 0.7 sin t x1 + 0.1 x2); t scalar or an (m, 1) column."""
    return np.concatenate([np.cos(3 * t) - 0.2 * x[:, :1],
                           0.7 * np.sin(t) * x[:, :1] + 0.1 * x[:, 1:]], axis=1)


FIELDS = {
    (1, False): vk.VectorField(1, lambda t, x: 0.8 * x + 0.3),
    (1, True): vk.VectorField(1, lambda t, x: np.cos(3 * t) - 0.2 * x),
    (2, False): vk.linear_field([[0.3, -1.0], [1.0, 0.2]]),
    (2, True): vk.VectorField(2, _wobble),
}


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 2), st.booleans(), st.integers(2, 7), st.floats(-1.4, -0.6),
       st.floats(0.6, 1.4), st.floats(0.02, 0.3), st.floats(0.3, 4.0),
       st.floats(0.5, 1.1), st.floats(-0.6, 0.6), st.sampled_from([1, 3]))
def test_batched_refinement_matches_scalar(dim, timed, count, lo, hi, h, T, radius,
                                           centre, workers):
    field = FIELDS[dim, timed]
    K = vk.ball(np.zeros(dim), radius)
    C = vk.ball(np.full(dim, centre), 0.3)
    grid = vk.GridSpec([lo] * dim, [hi] * dim, [count] * dim)
    nodes = grid.nodes()
    inside = K.contains_many(nodes)
    ex, _, failed = _events_ref(field, nodes, T, h, K=K)
    viab_ref = np.where(failed & (ex >= INF), 0.0, ex)
    viab_ref[~inside] = 0.0
    capt_ref = _events_ref(field, nodes, T, h, C=C)[1]
    margin_ref = _margin_of(*_events_ref(field, nodes, T, h, K=K, C=C)[:2])
    margin_ref[~inside] = INF

    with mock.patch.object(kernels, "CHUNK_ROWS", 1):   # small grids split too
        viab = vk.viab_field(field, K, grid, T, h, workers=workers).values
        capt = vk.capt_field(field, C, grid, T, h, workers=workers).values
        margin = vk.viable_capt_field(field, K, C, grid, T, h, workers=workers).values
    assert np.array_equal(viab, viab_ref)
    assert np.array_equal(capt, capt_ref)
    assert np.array_equal(margin, margin_ref)
    # a row's time does not depend on the rows refined with it
    for i in np.flatnonzero(inside)[::3]:
        assert vk.exit_time(field, K, nodes[i], T, h) == viab[i]
    for i in range(0, len(nodes), 5):
        assert vk.hitting_time(field, C, nodes[i], T, h) == capt[i]


ramp = vk.VectorField(1, lambda t, x: np.zeros_like(x) + t, name="ramp")


def test_time_dependent_events_closed_form():
    # x' = t from x0: x0 + t^2/2, so K = [-1, 1] is left at sqrt(2 (1 - x0));
    # RK4 integrates this polynomial exactly, and the bisection's sub-steps
    # see their per-row stage times.
    K = vk.box([-1.0], [1.0])
    grid = vk.GridSpec([-1.0], [1.0], [40])
    T, h = 3.0, 0.05
    xs = grid.nodes().ravel()
    expect = np.sqrt(2.0 * (1.0 - xs))
    tf = vk.viab_field(ramp, K, grid, T, h)
    assert np.max(np.abs(tf.values - expect)) <= REFINE_FRAC * T
    assert len(np.unique(np.floor(tf.values / h))) > 10  # rows cross in different steps
    for i in (0, 7, 23, 39):
        assert vk.exit_time(ramp, K, [xs[i]], T, h) == tf.values[i]

    C = vk.box([1.0], [2.0])
    wide = vk.GridSpec([-1.0], [1.5], [50])
    xw = wide.nodes().ravel()
    cf = vk.capt_field(ramp, C, wide, T, h)
    expect = np.where(xw >= 1.0, 0.0, np.sqrt(2.0 * np.maximum(1.0 - xw, 0.0)))
    assert np.max(np.abs(cf.values - expect)) <= REFINE_FRAC * T


def test_per_row_horizons_match_scalar_sweeps():
    # each row of an (m,) horizon marches on its own step_schedule(0, T_i, h)
    # nodes: an exit inside a row's shorter last step is bracketed there, and
    # the default tolerance is REFINE_FRAC * max(T_i, 1) per row
    K = vk.box([-1.0], [1.0])
    h = 0.05
    x0 = np.array([[0.9], [0.0], [-0.5], [0.99], [0.3]])
    T = np.array([0.4375, 2.0, 0.0, 0.13, 1.19])
    for tol in (None, 1e-8):
        _, ex, _, failed, _, _ = _event_sweep(ramp, x0, T, h, K=K, refine_tol=tol)
        assert not failed.any()
        for i in range(len(x0)):
            assert ex[i] == vk.exit_time(ramp, K, x0[i], T[i], h, refine_tol=tol)
    # x0 + t^2/2 leaves K at sqrt(2 (1 - x0)): after the horizon for rows 0
    # and 3, never for the t = 0 row, in a full step for row 1 and in the
    # tail step [1.15, 1.19] for row 4 (sqrt(1.4) = 1.1832)
    assert ex[0] >= INF and ex[2] >= INF and ex[3] >= INF
    assert abs(ex[1] - math.sqrt(2.0)) <= REFINE_FRAC * 2.0
    assert 1.15 < ex[4] < 1.19
    assert abs(ex[4] - math.sqrt(1.4)) <= REFINE_FRAC
