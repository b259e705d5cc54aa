import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import viakit as vk
from viakit.dynamics import _bisect, _march, _record, rk4_step, step_schedule


def test_zero_field_constant():
    f = vk.VectorField(1, lambda t, x: np.zeros_like(x), name="zero")
    traj = vk.integrate(f, [5.0], 0.0, 3.0, 0.01)
    assert_allclose(traj.states, 5.0)
    assert traj.times[0] == 0.0 and traj.times[-1] == 3.0


def test_exponential_growth():
    traj = vk.integrate(vk.linear_field(1.0), [1.0], 0.0, 1.0, 1e-3)
    assert abs(traj.states[-1][0] - math.e) <= 1e-6


def test_logistic_closed_form():
    traj = vk.integrate(vk.logistic_field(1.0, 2.0), [1.0], 0.0, 1.0, 1e-3)
    exact = vk.logistic_closed_form(1.0, 2.0, 1.0, 1.0)
    assert abs(exact - 2.0 / (1.0 + math.exp(-2.0))) < 1e-12
    assert abs(traj.states[-1][0] - exact) <= 1e-6


def test_flow_forward_backward_inverse():
    f = vk.linear_field(1.0)
    assert abs(vk.flow(f, 1.0, [1.0], 1e-3)[0] - math.e) <= 1e-6
    assert abs(vk.flow(f, -1.0, [math.e], 1e-3)[0] - 1.0) <= 1e-6


def test_flow_zero_time_exact():
    f = vk.rotation_field()
    x = np.array([0.3, -0.0])
    out = vk.flow(f, 0.0, x, 1e-2)
    assert out.tobytes() == x.tobytes() and out is not x
    # t = 0 checks the start like any other t
    with pytest.raises(vk.NonFinite):
        vk.flow(vk.linear_field(1.0), 0.0, [np.nan], 1e-2)


def test_flow_decay():
    assert abs(vk.flow(vk.linear_field(-1.0), math.log(2.0), [1.0], 1e-3)[0] - 0.5) <= 1e-6


def test_reach_set_zero_time():
    seeds = [[1.0], [2.0]]
    pts, ok = vk.reach_set(vk.linear_field(-1.0), 0.0, seeds, 1e-3)
    assert ok.all()
    assert_allclose(pts, seeds)


def test_reach_set_decay():
    pts, ok = vk.reach_set(vk.linear_field(-1.0), math.log(2.0), [[1.0], [2.0]], 1e-3)
    assert ok.all()
    assert_allclose(pts.ravel(), [0.5, 1.0], atol=1e-6)


def test_reach_set_equilibrium():
    pts, ok = vk.reach_set(vk.linear_field(1.0), 1.0, [[0.0]], 1e-3)
    assert ok.all() and pts[0][0] == 0.0


@settings(max_examples=25, deadline=None)
@given(t=st.floats(0.0, 2.0), s=st.floats(0.0, 2.0))
def test_semigroup_property(t, s):
    f = vk.rotation_field()
    x = np.array([0.8, -0.4])
    step = 1e-2
    a = vk.flow(f, t + s, x, step)
    b = vk.flow(f, t, vk.flow(f, s, x, step), step)
    assert np.linalg.norm(a - b) <= 10.0 * step


@settings(max_examples=25, deadline=None)
@given(t=st.floats(0.1, 2.0))
def test_flow_inverse_property(t):
    f = vk.logistic_field(1.0, 2.0)
    step = 1e-2
    x = np.array([0.7])
    back = vk.flow(f, -t, vk.flow(f, t, x, step), step)
    assert np.linalg.norm(back - x) <= 10.0 * step


@pytest.mark.parametrize("field,window", [
    (vk.linear_field(1.0), (-2.0, 2.0)),
    (vk.linear_field(-1.0), (-2.0, 2.0)),
    (vk.logistic_field(1.0, 2.0), (0.05, 1.95)),
    (vk.transport_field([0.5]), (-2.0, 2.0)),
])
def test_growth_bound_along_trajectories(field, window):
    rng = np.random.default_rng(7)
    c = field.growth_c
    for _ in range(5):
        x0 = rng.uniform(*window, size=field.dim)
        traj = vk.integrate(field, x0, 0.0, 3.0, 1e-2)
        bound = (np.linalg.norm(x0) + 1.0) * np.exp(c * traj.times) - 1.0 + 1e-6
        assert np.all(np.linalg.norm(traj.states, axis=1) <= bound)


def test_monotone_contraction():
    f = vk.linear_field(-2.0)
    assert f.monotone_mu == 2.0
    t1 = vk.integrate(f, [1.0], 0.0, 2.0, 1e-3)
    t2 = vk.integrate(f, [-0.5], 0.0, 2.0, 1e-3)
    gap = np.abs(t1.states - t2.states).ravel()
    bound = np.exp(-2.0 * t1.times) * 1.5 * (1.0 + 1e-6)
    assert np.all(gap <= bound)


def test_blowup_raises_nonfinite():
    quad = vk.VectorField(1, lambda t, x: x * x, name="quadratic")
    with pytest.raises(vk.NonFinite):
        vk.integrate(quad, [3.0], 0.0, 5.0, 1e-3)
    # a batched sweep retires and flags the blown-up row, the other finishes
    pts, ok = vk.reach_set(quad, 5.0, [[3.0], [-1.0]], 1e-3)
    assert list(ok) == [False, True]
    assert np.isnan(pts[0, 0])
    assert pts[1, 0] == pytest.approx(-1.0 / 6.0, abs=1e-9)


def _ref_integrate(field, x0, t0, t1, step):
    """The scalar RK4 loop integrate replaced: one 1-D rk4_step per node."""
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    times, states = [t0], [x]
    for t, h in step_schedule(t0, t1, step):
        x = rk4_step(field, t, x, h)
        times.append(t + h)
        states.append(x)
    return np.array(times), np.array(states)


@pytest.mark.parametrize("field, x0, t0, t1, step", [
    (vk.linear_field(-1.0), [1.0], 0.0, 2.0, 0.01),
    (vk.rotation_field(1.3), [1.0, 0.2], 0.4, 3.33, 0.07),
    (vk.logistic_field(1.0, 2.0), [0.3], 0.0, 5.0, 0.013),
    (vk.demographic_field(1.0, 0.5, 0.3, 2.0), [0.1, 1.0, 0.5, 1.0], 0.2, 1.7, 0.01),
    (vk.VectorField(1, lambda t, x: np.cos(3.0 * t) * x, name="pulse"), [0.7], -1.0, 1.0, 0.3),
    (vk.linear_field(0.5), [2.0], 1.0, 1.0, 0.1),
], ids=["linear", "rotation-tail", "logistic", "demographic", "time-dependent", "empty-span"])
def test_integrate_matches_scalar_rk4_loop(field, x0, t0, t1, step):
    """integrate, a one-row lift of the batched core, == the scalar loop bit for bit."""
    times, states = _ref_integrate(field, x0, t0, t1, step)
    traj = vk.integrate(field, x0, t0, t1, step)
    assert traj.times.tobytes() == times.tobytes()
    assert traj.states.tobytes() == states.reshape(len(times), -1).tobytes()
    if t0 == 0.0:
        assert vk.flow(field, t1, x0, step).tobytes() == states[-1].tobytes()


def test_integrate_rejects_non_finite_start():
    for x0 in ([np.nan], [np.inf, 0.0], [2e12]):
        with pytest.raises(vk.NonFinite):
            vk.integrate(vk.linear_field(-1.0, dim=len(x0)), x0, 0.0, 1.0, 0.1)


def test_time_dependent_field():
    f = vk.VectorField(1, lambda t, x: np.full_like(x, t), name="ramp")
    traj = vk.integrate(f, [0.0], 0.0, 2.0, 1e-3)
    assert abs(traj.states[-1][0] - 2.0) <= 1e-9
    # x' = t adds t1^2 / 2 to every row of a batched sweep
    pts, ok = vk.reach_set(f, 2.0, [[0.0], [1.0]], 1e-3)
    assert np.all(ok)
    assert_allclose(pts[:, 0], [2.0, 3.0], atol=1e-9)
    # x(t) = t^2 / 2 leaves (-inf, 1] at sqrt(2)
    tau = vk.exit_time(f, vk.box([-np.inf], [1.0]), [0.0], 3.0, 1e-3)
    assert abs(tau - np.sqrt(2.0)) <= 1e-7


def test_trajectory_spacing_and_partial_last_step():
    traj = vk.integrate(vk.linear_field(0.0), [1.0], 0.0, 1.05, 0.1)
    gaps = np.diff(traj.times)
    assert_allclose(gaps[:-1], 0.1)
    assert gaps[-1] == pytest.approx(0.05)
    assert traj.times[-1] == pytest.approx(1.05)


def test_trajectory_immutable():
    traj = vk.integrate(vk.linear_field(0.0), [1.0], 0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        traj.states[0] = 99.0


def test_eval_dimension():
    f = vk.demographic_field(1.0, 0.5, 0.3, 2.0)
    v = f(0.0, np.array([1.0, 1.0, 1.0, 1.0]))
    assert v.shape == (4,)
    batch = f(0.0, np.ones((7, 4)))
    assert batch.shape == (7, 4)


def test_verify_growth_helper():
    f = vk.linear_field(1.0)
    lattice = np.linspace(-3, 3, 31)[:, None]
    assert vk.verify_growth(f, lattice) <= f.growth_c + 1e-12


def test_trajectory_csv_roundtrip(tmp_path):
    from viakit.csvio import write_trajectory
    traj = vk.integrate(vk.rotation_field(), [1.0, 0.0], 0.0, 0.5, 0.1)
    path = tmp_path / "traj.csv"
    write_trajectory(path, traj)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x1,x2"
    vals = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.array_equal(vals[:, 0], traj.times)   # 17 digits reproduce exactly
    assert np.array_equal(vals[:, 1:], traj.states)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_times_raise(bad):
    # floor(inf) cast to int is negative: without the check a non-finite
    # horizon read as zero steps and came back as a value
    one = vk.transport_field([1.0])
    x = np.array([[0.0]])
    with pytest.raises(ValueError, match="finite"):
        list(step_schedule(0.0, bad, 0.1))
    with pytest.raises(ValueError, match="finite"):
        list(step_schedule(bad, 1.0, 0.1))
    with pytest.raises(ValueError, match="finite"):
        list(step_schedule(0.0, 1.0, bad))
    with pytest.raises(ValueError, match="finite"):
        list(_march(one, x.copy(), 0.0, bad, 0.1, np.ones(1, dtype=bool)))
    with pytest.raises(ValueError, match="finite"):
        list(_march(one, x.copy(), 0.0, np.array([1.0]), bad, np.ones(1, dtype=bool)))
    with pytest.raises(ValueError, match="finite"):
        list(_march(one, np.zeros((2, 1)), np.array([0.0, bad]), 1.0, 0.1,
                    np.ones(2, dtype=bool)))
    with pytest.raises(ValueError, match="finite"):
        vk.integrate(one, [0.0], 0.0, bad, 0.1)
    with pytest.raises(ValueError, match="finite"):
        vk.flow(one, bad, [0.0], 0.1)
    with pytest.raises(ValueError, match="finite"):
        vk.reach_set(one, abs(bad), [[0.0]], 0.1)
    with pytest.raises(ValueError, match="finite"):
        vk.reach_set(one, 1.0, [[0.0]], bad)
    with pytest.raises(ValueError, match="finite"):
        vk.exit_time(one, vk.box([-1.0], [1.0]), [0.0], bad, 0.1)
    with pytest.raises(ValueError, match="finite"):
        vk.hitting_time(one, vk.box([5.0], [6.0]), [0.0], bad, 0.1)


@pytest.mark.parametrize("t1, step", [(1e300, 0.01), (1e20, 0.01), (1.0, 1e-300)])
def test_step_counts_beyond_int64_raise(t1, step):
    # cast to int, a floor(span / step) past 2^63 wraps to a negative count:
    # without the check the march takes no step and a sweep reports a value
    one = vk.transport_field([1.0])
    with pytest.raises(ValueError, match="2\\^63"):
        list(step_schedule(0.0, t1, step))
    with pytest.raises(ValueError, match="2\\^63"):
        list(_march(one, np.zeros((2, 1)), 0.0, np.array([1.0, t1]), step,
                    np.ones(2, dtype=bool)))
    with pytest.raises(ValueError, match="2\\^63"):
        vk.exit_time(one, vk.box([0.0], [1.0]), [0.3], t1, step)
    with pytest.raises(ValueError, match="2\\^63"):
        vk.viab_field(vk.linear_field(1.0), vk.box([-1.0], [1.0]),
                      vk.GridSpec([-1.0], [1.0], [4]), t1, step)
    # the largest count that fits is still a schedule
    n_full, _, n_steps = vk.dynamics._schedule(0.0, 2.0 ** 62, 1.0)
    assert n_full == n_steps == 2 ** 62


# a span's offset from a multiple of the step, in steps: exact, within the
# 1e-9 rule on either side, tails just above and below step * 1e-9, any tail
_OFFSETS = st.one_of(
    st.sampled_from([0.0, 0.5e-9, -0.5e-9, 0.99e-9, 1.01e-9, 2e-9]),
    st.floats(-1e-9, 1e-9), st.floats(0.0, 1.0, exclude_max=True))


@settings(max_examples=200, deadline=None)
@given(t0=st.floats(-10.0, 10.0), step=st.floats(1e-3, 1.0), n=st.integers(0, 40),
       offset=_OFFSETS, offset2=_OFFSETS)
def test_step_schedule_is_one_rule(t0, step, n, offset, offset2):
    """step_schedule, _march on scalar and (m,) horizons and _record give the same nodes."""
    t1, t1b = (t0 + max(n * step + off * step, 0.0) for off in (offset, offset2))
    want = np.array([t + h for t, h in step_schedule(t0, t1, step)])
    want_b = np.array([t + h for t, h in step_schedule(t0, t1b, step)])
    one = vk.transport_field([1.0])

    def nodes(t0_, t1_, m):
        x, live = np.zeros((m, 1)), np.ones(m, dtype=bool)
        out = [[] for _ in range(m)]
        for rows, t, h, _, _ in _march(one, x, t0_, t1_, step, live):
            for i, v in zip(rows, np.broadcast_to(t + h, (len(rows), 1))[:, 0]):
                out[i].append(v)
        return [np.array(o, dtype=float) for o in out]

    scalar = nodes(t0, t1, 1)[0]
    per_row = nodes(np.array([t0, t0]), np.array([t1, t1b]), 2)
    recorded = _record(one, np.zeros((1, 1)), t0, t1, step, "test")[0][1:]
    for got in (scalar, per_row[0], recorded):
        assert got.tobytes() == want.tobytes()
    assert per_row[1].tobytes() == want_b.tobytes()
    last = want[-1] if len(want) else t0
    assert abs(last - t1) <= 2e-9 * step + 1e-14


def test_bisect_skips_narrow_entries_and_stops_after_80_rounds():
    calls = []

    def test(idx, mid):
        calls.append(idx.copy())
        return np.where(idx == 3, mid <= 0.3, mid >= 0.3)

    # entries 1 and 2 start no wider than their tol; entry 3 runs backwards
    t_false = np.array([0.0, 0.5, 0.2, 1.0])
    t_true = np.array([1.0, 0.5 + 1e-9, 0.2, 0.0])
    out = _bisect(test, t_false, t_true, np.array([0.0, 2e-9, 0.0, 0.0]))
    assert out[1] == 0.5 + 1e-9 and out[2] == 0.2
    assert all(set(idx) == {0, 3} for idx in calls)
    assert len(calls) == 80   # tol 0 never stops entries 0 and 3 early
    assert 0.3 <= out[0] <= 0.3 + 2.0 ** -80
    assert 0.3 - 2.0 ** -80 <= out[3] <= 0.3
    assert t_true[0] == 1.0   # the inputs are not written to


def _blowup_rows(dim):
    """Rows on both sides of every edge of the blow-up rule, at one dimension."""
    B = vk.BLOWUP_NORM
    up, down = (lambda v: np.nextafter(v, np.inf)), (lambda v: np.nextafter(v, -np.inf))
    unit = np.zeros(dim)
    unit[-1] = 1.0
    rows = [np.zeros(dim), unit * B, unit * up(B), unit * down(B), -unit * up(B),
            unit * 1e200, unit * -1e200]
    for bad in (np.nan, np.inf, -np.inf):
        row = np.full(dim, 0.5)
        row[0] = bad
        rows.append(row)
    # spread rows: the computed norm exactly B, and the next doubles around it
    v = np.full(dim, B / math.sqrt(dim))
    while np.linalg.norm(v) > B:
        v = down(v)
    while np.linalg.norm(up(v)) <= B:
        v = up(v)
    rows += [v, up(v), down(v)]
    # the cheap bound's own edge, where it stops deciding
    edge = np.full(dim, B / (math.sqrt(dim) * (1.0 + 1e-12 + dim * 2.0 ** -52)))
    rows += [edge, up(edge), down(edge)]
    big = np.full(dim, 0.5)
    big[0] = 1e200   # its square overflows; the norm reads inf
    rows.append(big)
    return np.array(rows)


@pytest.mark.parametrize("dim", [1, 2, 4])
@pytest.mark.parametrize("per_row", [False, True])
def test_march_retires_exactly_the_rows_finite_rows_retires(dim, per_row):
    # a zero field's RK4 step returns its start bit for bit, so the rows
    # the first step retires are the rows the blow-up rule rejects
    zero = vk.VectorField(dim, lambda t, x: np.zeros_like(x))
    rows = _blowup_rows(dim)
    t1 = np.full(len(rows), 0.1) if per_row else 0.1
    with np.errstate(over="ignore"):
        keep = vk.dynamics._finite_rows(rows)
    assert 0 < keep.sum() < len(rows)
    # all rows in one batch, then each row alone, where the cheap bound decides
    for batch in [np.arange(len(rows))] + [[i] for i in range(len(rows))]:
        x, live = rows[batch].copy(), np.ones(len(batch), dtype=bool)
        span = t1[batch] if per_row else t1
        with np.errstate(over="ignore"):
            (stepped, _, _, prev, _), = _march(zero, x, 0.0, span, 0.1, live)
        assert np.array_equal(live, keep[batch])
        assert np.array_equal(np.asarray(batch)[stepped], np.asarray(batch)[keep[batch]])
        assert np.array_equal(prev, rows[batch][keep[batch]])
        assert np.array_equal(x[live], rows[batch][live])
        assert np.isnan(x[~live]).all()


def test_linear_matrix_field_rows_do_not_depend_on_batch():
    # x @ A.T went through gemv for one row and gemm for a batch, and the two
    # rounded differently: reach_set and the one-row flow disagreed
    rng = np.random.default_rng(5)
    A = rng.normal(size=(3, 3))
    X = rng.normal(size=(50, 3))
    f = vk.linear_field(A)
    assert_allclose(f(0.0, X), X @ A.T, rtol=1e-14, atol=1e-14)
    batch = rk4_step(f, 0.0, X, 0.1)
    for x, row in zip(X, batch):
        assert f(0.0, x).tobytes() == f(0.0, x[None, :])[0].tobytes()
        assert rk4_step(f, 0.0, x[None, :], 0.1)[0].tobytes() == row.tobytes()
    states, ok = vk.reach_set(f, 1.0, X, 0.01)
    assert ok.all()
    assert np.array([vk.flow(f, 1.0, x, 0.01) for x in X]).tobytes() == states.tobytes()


def _march_fields():
    """The three kinds of field the core steps: a matrix, a lifted cost, a characteristic system.

    Each blows up from some of the starts :func:`_march_starts` draws.
    """
    rng = np.random.default_rng(11)
    A = rng.normal(size=(3, 3))
    A[0, 0] += 40.0
    lifted = vk.LagrangianProblem(vk.VectorField(1, lambda t, x: x * x + np.sin(3.0 * t)),
                                  vk.speed_lagrangian, 0.5, vk.abs_obstacle)
    char = vk.CharProblem(lambda t, X, Y: 0.5 * Y * Y - np.cos(t) * X, vk.whole_space(1),
                          vk.BoundaryData(lambda X: X), 1,
                          f=lambda t, X, Y: np.sin(Y) + t)
    return {"matrix": vk.linear_field(A), "lift": vk.epi_hj.lift(lifted),
            "characteristic": vk.characteristics._coupled_field(char)}


def _march_starts(field, rng, m):
    if field.dim == 3:
        return rng.normal(size=(m, 3)) * 10.0 ** rng.uniform(-3.0, 1.0, (m, 1))
    return rng.uniform(-1.0, 5.0, (m, field.dim))


def _march_ref(field, x0, t0, t1, step, live0, retire_at, per_row):
    """Each live row stepped alone on its own step_schedule.

    Returns the per-step {row: (prev, new)} maps, x at the end, live at
    the end, and how many rows blew up and how many the caller retired.
    """
    m = len(x0)
    x, live = x0.copy(), live0.copy()
    t0, t1 = np.broadcast_to(t0, (m,)), np.broadcast_to(t1, (m,))
    steps = {}
    blown = retired = 0
    for i in np.flatnonzero(live0):
        for j, (t, h) in enumerate(step_schedule(t0[i], t1[i], step)):
            if per_row:  # the core hands per-row times to the field as columns
                t, h = np.array([[t]]), np.array([[h]])
            new = rk4_step(field, t, x[i:i + 1], h)
            if not vk.dynamics._finite_rows(new)[0]:
                x[i], live[i] = np.nan, False
                blown += 1
                break
            steps.setdefault(j, {})[i] = (x[i].copy(), new[0])
            x[i] = new[0]
            if retire_at[i] == j:
                live[i] = False
                retired += 1
                break
    return [steps.get(j, {}) for j in range(max(steps, default=-1) + 1)], x, live, blown, retired


@pytest.mark.parametrize("kind", ["matrix", "lift", "characteristic"])
@pytest.mark.parametrize("per_row", [False, True])
@pytest.mark.parametrize("survivors", ["many", "one"])
def test_march_matches_rows_stepped_alone(kind, per_row, survivors):
    """The compacted core yields, and leaves in x, the bits of each row stepped alone.

    Rows not live at the start, rows the caller retires mid-march, rows
    that blow up and rows that finish early (per-row schedules) all leave
    the work set; with survivors="one" the march ends on a single row.
    On the shared schedule with many survivors every row starts live, so
    x itself is the first work array.
    """
    field = _march_fields()[kind]
    rng = np.random.default_rng(["matrix", "lift", "characteristic"].index(kind))
    m, step = 40, 0.07
    x0 = _march_starts(field, rng, m)
    live0 = rng.random(m) < 0.8
    if not per_row and survivors == "many":
        live0[:] = True
    if per_row:
        t0 = rng.uniform(0.0, 0.4, m)
        t1 = t0 + rng.uniform(0.0, 1.0, m) * (rng.random(m) < 0.9)  # some spans are empty
    else:
        t0, t1 = 0.2, 1.1
    if survivors == "one":
        retire_at = np.full(m, 1)
        retire_at[np.flatnonzero(live0)[0]] = 10 ** 6
        x0[np.flatnonzero(live0)[0]] = 0.01  # far from blowing up
        if per_row:
            t1[np.flatnonzero(live0)[0]] = 1.3
    else:
        retire_at = np.where(rng.random(m) < 0.4, rng.integers(0, 12, m), 10 ** 6)
    want, x_want, live_want, blown, retired = _march_ref(field, x0, t0, t1, step, live0,
                                                         retire_at, per_row)
    if survivors == "many":
        assert blown and retired   # both ways out are taken
    else:
        assert len(want[-1]) == 1 and len(want) > 3

    x, live = x0.copy(), live0.copy()
    got = []
    with np.errstate(over="ignore", invalid="ignore"):
        for j, (rows, t, h, prev, new) in enumerate(_march(field, x, t0, t1, step, live)):
            if not per_row:
                assert np.all(np.diff(rows) > 0)
            got.append({int(r): (p.copy(), n.copy()) for r, p, n in zip(rows, prev, new)})
            live[rows[retire_at[rows] == j]] = False
    while got and not got[-1]:  # the step on which the last rows blew up
        got.pop()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert sorted(g) == sorted(w)
        for r in w:
            assert g[r][0].tobytes() == w[r][0].tobytes()
            assert g[r][1].tobytes() == w[r][1].tobytes()
    assert x.tobytes() == x_want.tobytes()
    assert np.array_equal(live, live_want)
