import inspect
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import viakit as vk
from viakit import epi_hj
from viakit.common import _row_norms
from viakit.dynamics import _bisect, _march, _record, rk4_step, step_schedule

import rk4_reference


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


def test_flow_keeps_no_history():
    """flow steps one row through reach_set's march: its traced peak over 200,000
    steps stays under 64 KB, where integrate's times and states take megabytes."""
    import tracemalloc

    f = vk.linear_field(-1.0)
    vk.flow(f, 0.01, [1.0], 1e-3)  # first-call allocations are not the march's
    tracemalloc.start()
    try:
        out = vk.flow(f, 200.0, [1.0], 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert out.shape == (1,) and 0.0 < out[0] < 1e-80


@pytest.mark.parametrize("t, x0", [(10.0, 5.0), (-10.0, -5.0)])
def test_flow_blowup_raises(t, x0):
    """x' = x^2 from 5, and its reversed field from -5, blow up at |t| = 0.2."""
    square = vk.VectorField(1, lambda t, x: x * x, name="square")
    with pytest.raises(vk.NonFinite, match="blew up during flow"):
        vk.flow(square, t, [x0], 1e-2)


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


def test_trajectory_checks_its_samples():
    """1-D states are one column; times and states of unequal length, or times that
    do not increase, are refused."""
    traj = vk.Trajectory([0.0, 0.5, 1.0], [1.0, 2.0, 3.0], 0.5)
    assert traj.states.shape == (3, 1) and len(traj) == 3 and traj.dim == 1
    with pytest.raises(ValueError, match="times and states must have equal length"):
        vk.Trajectory([0.0, 0.5], [[1.0]], 0.5)
    with pytest.raises(ValueError, match="times must be strictly increasing"):
        vk.Trajectory([0.0, 0.5, 0.5], [1.0, 2.0, 3.0], 0.5)


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
    with pytest.raises(ValueError, match="at least one sample"):  # not numpy's reduction error
        vk.verify_growth(f, np.zeros((0, 1)))


def test_trajectory_csv_roundtrip(tmp_path):
    from viakit.csvio import write_table
    traj = vk.integrate(vk.rotation_field(), [1.0, 0.0], 0.0, 0.5, 0.1)
    path = tmp_path / "traj.csv"
    write_table(path, t=traj.times, x=traj.states)
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


def test_record_steps_a_strided_start_as_its_contiguous_copy():
    """A matrix field's row products can round by memory layout, so _record steps
    C-ordered rows, as a gathered work array is: a column of a wide array as the
    start gives the bits of its contiguous copy."""
    rng = np.random.default_rng(0)
    field = vk.linear_field(-np.eye(40) + 0.1 * rng.standard_normal((40, 40)))
    B = rng.standard_normal((40, 400))
    got = vk.integrate(field, B[:, 0], 0.0, 0.3, 0.1).states
    assert got.tobytes() == vk.integrate(field, B[:, 0].copy(), 0.0, 0.3, 0.1).states.tobytes()


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


@pytest.mark.parametrize("per_row", ["t0", "t1", "both"])
@pytest.mark.parametrize("m", [1, 5])
def test_march_takes_equal_per_row_times_as_one_schedule(per_row, m):
    """Per-row times whose entries all agree march as that one scalar schedule:
    the yields carry scalar t and h, and every state has the scalar call's bits,
    which are also those of the same rows on a per-row schedule."""
    field = vk.VectorField(2, lambda t, x: np.sin(3.0 * t) * x[:, ::-1] - 0.2 * x)
    x0 = np.random.default_rng(m).uniform(-1.0, 1.0, (m + 1, 2))
    step, a, b = 0.07, 0.2, 1.1  # 12 full steps and a shorter tail

    def march(t0, t1, rows):
        x, live = x0[:rows].copy(), np.ones(rows, dtype=bool)
        return [(t, h, new.copy()) for _, t, h, _, new in
                _march(field, x, t0, t1, step, live)], x

    def times(v, name):
        return np.full(m, v) if per_row in (name, "both") else v

    got, x_got = march(times(a, "t0"), times(b, "t1"), m)
    want, x_want = march(a, b, m)
    assert len(got) == len(want) == 13
    for (t, h, new), (t_w, h_w, new_w) in zip(got, want):
        assert np.ndim(t) == np.ndim(h) == 0 and (t, h) == (t_w, h_w)
        assert new.tobytes() == new_w.tobytes()
    assert x_got.tobytes() == x_want.tobytes()
    # one more row with a later end keeps the schedule per row
    _, x_per_row = march(np.full(m + 1, a), np.append(np.full(m, b), b + 0.05), m + 1)
    assert x_per_row[:m].tobytes() == x_want.tobytes()


@pytest.mark.parametrize("dim", [1, 2, 4])
@pytest.mark.parametrize("per_row", [False, True])
def test_march_retires_exactly_the_rows_finite_rows_retires(dim, per_row):
    # a zero field's RK4 step returns its start bit for bit, so the rows
    # the first step retires are the rows the blow-up rule rejects
    zero = vk.VectorField(dim, lambda t, x: np.zeros_like(x))
    rows = _blowup_rows(dim)
    # unequal ends keep the schedule per row; every row takes one step
    t1 = np.linspace(0.05, 0.1, len(rows)) if per_row else 0.1
    keep = vk.dynamics._finite_rows(rows)
    assert 0 < keep.sum() < len(rows)
    # all rows in one batch, then each row alone, where the cheap bound decides
    for batch in [np.arange(len(rows))] + [[i] for i in range(len(rows))]:
        x, live = rows[batch].copy(), np.ones(len(batch), dtype=bool)
        span = t1[batch] if per_row else t1
        (stepped, _, _, prev, _), = _march(zero, x, 0.0, span, 0.1, live)
        assert np.array_equal(live, keep[batch])
        assert np.array_equal(np.asarray(batch)[stepped], np.asarray(batch)[keep[batch]])
        assert np.array_equal(prev, rows[batch][keep[batch]])
        assert np.array_equal(x[live], rows[batch][live])
        assert np.isnan(x[~live]).all()


def test_finite_rows_refuses_a_huge_row_without_warning():
    # 1e200 squared overflows inside the norm; the row is refused, silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        keep = vk.dynamics._finite_rows(np.array([[1e200, 0.0], [1.0, 2.0]]))
    assert keep.tolist() == [False, True]


_NORM_ENTRIES = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e-160, -3e-170, 1e-300, 1.0, -2.5,
                          3.7e10, 1e154, -1.4e154, 1e170, 1e200, -1e200, np.inf, -np.inf,
                          np.nan, -np.nan])


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_row_norms_have_the_bits_of_linalg_norm(k):
    # subnormal and 1e-160 squares underflow, 1e154-1e200 squares overflow to inf
    rng = np.random.default_rng(k)
    with np.errstate(over="ignore"):
        for _ in range(50):
            z = rng.choice(_NORM_ENTRIES, size=(40, 7))
            z[rng.random(z.shape) < 0.3] = rng.normal(size=1)
            for x in (np.ascontiguousarray(z[:, :k]), z[:, :k]):  # C-ordered and strided
                assert _row_norms(x).tobytes() == np.linalg.norm(x, axis=1).tobytes()
    assert _row_norms(np.zeros((0, k))).shape == (0,)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_clears_blowup_matches_the_abs_form(dim):
    # against np.abs(x).max(), with NaN, +-inf and entries on the bound's edge
    # scattered in; passing it must still imply _finite_rows
    c = math.sqrt(dim) * (1.0 + 1e-12 + dim * 2.0 ** -52)
    edge = vk.BLOWUP_NORM / c
    near = [np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf),
            vk.BLOWUP_NORM / math.sqrt(dim), np.nan, np.inf, -np.inf]
    rng = np.random.default_rng(dim)
    seen = set()
    for _ in range(400):
        x = rng.normal(size=(int(rng.integers(1, 6)), dim)) * 10.0 ** rng.uniform(0, 11)
        for _ in range(int(rng.integers(0, 3))):
            x[rng.integers(len(x)), rng.integers(dim)] = rng.choice([-1, 1]) * rng.choice(near)
        got = vk.dynamics._clears_blowup(x)
        with np.errstate(invalid="ignore"):
            assert got == bool(np.abs(x).max() * c < vk.BLOWUP_NORM)
        assert not got or vk.dynamics._finite_rows(x).all()
        seen.add(got)
    assert seen == {True, False}


def test_transport_growth_of_a_huge_velocity_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert vk.transport_field([1e200, 0.0]).growth_c == math.inf


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


def _rk4_fields():
    """Every built-in field, a lifted cost, and fields whose velocity is not x's dtype or shape."""
    A = np.random.default_rng(3).normal(size=(3, 3))
    lifted = vk.LagrangianProblem(vk.logistic_field(1.0, 2.0), vk.speed_lagrangian, 0.5,
                                  vk.abs_obstacle)
    return {"linear": vk.linear_field(-0.7, 2), "matrix": vk.linear_field(A),
            "rotation": vk.rotation_field(1.3), "logistic": vk.logistic_field(1.0, 2.0),
            "transport": vk.transport_field([1.0, -0.5]),
            "demographic": vk.demographic_field(0.3, 0.2, 1.0, 2.0),
            "negated": vk.rotation_field(1.3).negated(), "lift": epi_hj.lift(lifted),
            "float32": vk.VectorField(2, lambda t, x: (np.cos(x) * (1.0 + t)).astype(np.float32)),
            "column": vk.VectorField(2, lambda t, x: x[:, :1] * x[:, 1:] - t)}


@pytest.mark.parametrize("name", list(_rk4_fields()))
def test_rk4_step_has_the_plain_expressions_bits(name):
    """Scalar and (m, 1) t and h, and a (dim,) state: the reference's bits, dtype and shape.

    The rows include a -nan, an inf and a row of 1e200, on which the
    nonlinear fields overflow, so NaN signs are compared too.
    """
    field = _rk4_fields()[name]
    rng = np.random.default_rng(9)
    x = rng.uniform(-2.0, 2.0, (9, field.dim))
    x[1, 0], x[2, -1], x[3] = -np.nan, np.inf, 1e200
    t_col, h_col = rng.uniform(0.0, 1.0, (9, 1)), rng.uniform(0.01, 0.2, (9, 1))
    with np.errstate(all="ignore"):
        for t, state, h in ((0.3, x, 0.05), (t_col, x, h_col), (0.3, x[0], 0.05)):
            new, ref = rk4_step(field, t, state, h), rk4_reference.rk4_step(field, t, state, h)
            assert (new.dtype, new.shape) == (ref.dtype, ref.shape)
            assert new.tobytes() == ref.tobytes()


def test_rk4_step_writes_no_array_a_field_saw():
    """A field that returns its input, or one cached array, finds it unchanged after the step."""
    seen = []

    def echo(t, x):
        seen.append((x, x.copy()))
        return x

    x = np.random.default_rng(4).normal(size=(6, 2))
    cache = x[::-1] * 3.0
    kept = x.copy(), cache.copy()
    for field in (vk.VectorField(2, echo), vk.VectorField(2, lambda t, x: cache)):
        for t, h in ((0.3, 0.05), (np.full((6, 1), 0.3), np.full((6, 1), 0.05))):
            assert rk4_step(field, t, x, h).tobytes() == \
                rk4_reference.rk4_step(field, t, x, h).tobytes()
    assert len(seen) == 16 and all(a.tobytes() == b.tobytes() for a, b in seen)
    assert x.tobytes() == kept[0].tobytes() and cache.tobytes() == kept[1].tobytes()


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


def _march_cases():
    """(kind, per_row, survivors), with ids survivors-per_row-kind.

    ROADMAP item 6: on [many-True-lift] the reference's stepping of a row that
    blows up squares a speed past about 1.3e154 in ``_row_norms``, and numpy
    warns of the overflow, so that one case ignores RuntimeWarning.
    """
    for survivors in ("many", "one"):
        for per_row in (False, True):
            for kind in ("matrix", "lift", "characteristic"):
                marks = pytest.mark.filterwarnings("ignore::RuntimeWarning") \
                    if (survivors, per_row, kind) == ("many", True, "lift") else ()
                yield pytest.param(kind, per_row, survivors, marks=marks,
                                   id=f"{survivors}-{per_row}-{kind}")


@pytest.mark.parametrize("kind, per_row, survivors", list(_march_cases()))
def test_march_matches_rows_stepped_alone(kind, per_row, survivors):
    """The compacted core yields, and leaves in x, the bits of each row stepped alone.

    Rows not live at the start, rows the caller retires mid-march, rows
    that blow up and rows that finish early (per-row schedules) all leave
    the work set; with survivors="one" the march ends on a single row.
    On the shared schedule with many survivors every row starts live.
    Every yield lists its rows in ascending order, on either schedule.
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


@pytest.mark.parametrize("per_row", [False, True])
def test_march_drops_a_row_retired_mid_march_at_once(per_row):
    """A row whose live entry the caller clears is out of the next step, and x
    holds its state at retirement from then on: on a shared schedule, and on a
    per-row one at a step where no row takes its last step."""
    field = vk.VectorField(1, lambda t, x: np.cos(t) - 0.3 * x)
    x0 = np.linspace(-1.0, 1.0, 4)[:, None]
    # per row, 10, 20, 16 and 30 steps of 0.1: none ends at step 4
    t1 = np.array([1.0, 2.0, 1.55, 3.0]) if per_row else 1.0
    x, live = x0.copy(), np.ones(4, dtype=bool)
    seen, at_retirement = [], None
    for j, (rows, _, _, _, new) in enumerate(_march(field, x, 0.0, t1, 0.1, live)):
        seen.append(rows.tolist())
        if at_retirement is not None:
            assert x[2].tobytes() == at_retirement
        if j == 4:
            at_retirement = new[list(rows).index(2)].tobytes()
            live[2] = False
    assert [2 in r for r in seen] == [True] * 5 + [False] * (len(seen) - 5)
    assert seen[5] == [0, 1, 3]
    assert x[2].tobytes() == at_retirement


def _nan_from(t_bad):
    """A 1-D field that reads NaN from time t_bad on, and 1 before it."""
    return vk.VectorField(1, lambda t, x: np.where(np.asarray(t) >= t_bad, np.nan, 1.0)
                          * np.ones_like(x), name="nan")


_REPELLER = vk.LagrangianProblem(vk.linear_field(1.0, dim=2), vk.unit_lagrangian, 0.0,
                                 vk.zero_obstacle)
_CHAR = dict(g=lambda t, x, y: np.zeros_like(y), domain=vk.box([0.0], [1.0]),
             data=vk.BoundaryData(lambda X: np.zeros((len(X), 1))), out_dim=1)
_NAN_FIELD = vk.VectorField(1, lambda t, x: np.full_like(x, np.nan), name="nan")
_RAMP = vk.GridFunction(vk.GridSpec([0.0], [1.0], [4]), np.linspace(0.0, 1.0, 5))


def _transport_char(g=lambda t, x, y: np.zeros_like(y), u0=lambda X: np.ones((len(X), 1))):
    """x' = 1 on [0, 10] from y = u0(x), with the output field g."""
    return vk.CharProblem(g, vk.box([0.0], [10.0]), vk.BoundaryData(u0), 1,
                          phi=vk.transport_field([1.0]))


#: y = 1e300 from x > 0.6: past the blow-up norm
_HUGE_PAST = _transport_char(u0=lambda X: np.where(X[:, :1] > 0.6, 1e300, 1.0))


def _cloud():
    return vk.graph_sample(_transport_char(), 1.0, 0.1, 5, [0.0], [1.0])


def _replay_blowup():
    """A cloud of x' = 1, y' = 0 from y = 1, replayed with y' = 1e3 y^2."""
    return vk.replay_check(_cloud(), _transport_char(lambda t, x, y: 1e3 * y * y), 0.05)


_UNIT_T = vk.transport_field([1.0])
_UNIT_K = vk.box([0.0], [1.0])
_COST = vk.LagrangianProblem(vk.linear_field(-1.0), vk.unit_lagrangian, 0.0, vk.abs_obstacle)
_PHI_CHAR = vk.CharProblem(**_CHAR, phi=_UNIT_T, phi_constraint=lambda T, X, Y: np.zeros(len(X)))

#: NaN past x = 0.3 on x' = 1: from -0.55 at t = 0.9, from 0.25 at t = 0.1
_NAN_PAST = vk.LagrangianProblem(_UNIT_T, lambda X, F: np.where(X[:, 0] > 0.3, np.nan, 1.0),
                                 0.0, vk.abs_obstacle)
#: x' = x^2: the row from 2 blows up near t = 0.5, the row from -1 (x = -1/(1 + t))
#: reads a NaN lagrangian from t = 0.3
_NAN_THEN_BLOWUP = vk.LagrangianProblem(
    vk.VectorField(1, lambda t, x: x * x, name="square"),
    lambda X, F: np.where((X[:, 0] > -0.8) & (X[:, 0] < 0.0), np.nan, 1.0), 0.0, vk.abs_obstacle)


#: x' = 1 with l = 1 on (0.3, 0.5) and a zero obstacle
_PULSE = vk.LagrangianProblem(_UNIT_T, lambda X, F: ((X[:, 0] > 0.3) & (X[:, 0] < 0.5)) * 1.0,
                              0.0, vk.zero_obstacle)


def _one_node_blocks(call):
    """call() with the value engine marching one node per block."""
    with mock.patch.object(epi_hj, "BLOCK_FLOATS", 1):
        return call()


#: (id, the public name called, call, error, match): each row poisons one
#: argument, and the call must refuse it, naming the row where there is one.
_BAD_INPUT = [
    # one NaN sample hid the others: max(0.0, nan) keeps 0.0 (the valid row reads 0.5)
    ("growth-nan-sample", "verify_growth",
     lambda: vk.verify_growth(vk.linear_field(-1.0), [[1.0], [np.nan]]), ValueError,
     r"sample 1 \[nan\] is not finite"),
    ("growth-nan-velocity", "verify_growth",
     lambda: vk.verify_growth(_nan_from(2.0), [[1.0], [3.0]], times=(0.0, 2.0)), ValueError,
     "velocity at sample 0 and t = 2.0"),
    # a NaN field gave NaN states with both error diagnostics 0.0
    ("viable-step", "viable_step",
     lambda: vk.viable_step(_nan_from(0.0), vk.box([0.0], [1.0]), 0.0, [0.5], 0.1),
     vk.NonFinite, "t = 0.0 in viable_step"),
    ("viable-trajectory", "viable_trajectory",
     lambda: vk.viable_trajectory(_nan_from(0.25), vk.box([0.0], [9.0]), [0.5], 1.0, 0.1),
     vk.NonFinite, "in step 3 of viable_trajectory"),
    # nothing left after the zero rows are dropped ended in a numpy reduction error
    ("repeller-all-zero", "repeller_condition",
     lambda: vk.repeller_condition(_REPELLER, np.zeros((3, 2))), ValueError,
     "no nonzero sample"),
    ("repeller-all-nan", "repeller_condition",
     lambda: vk.repeller_condition(_REPELLER, np.full((2, 2), np.nan)), ValueError,
     "sample 0 .* is not finite"),
    ("repeller-nan-row", "repeller_condition",
     lambda: vk.repeller_condition(_REPELLER, [[1.0, 0.0], [np.nan, 1.0]]), ValueError,
     "sample 1 .* is not finite"),
    # a NaN velocity or lagrangian read as gamma_minus or delta_minus = nan
    ("repeller-nan-field", "repeller_condition",
     lambda: vk.repeller_condition(vk.LagrangianProblem(_NAN_FIELD, vk.unit_lagrangian, 0.0,
                                                        vk.zero_obstacle), [[1.0], [2.0]]),
     ValueError, "velocity at sample 0 is not finite"),
    ("repeller-nan-lagrangian", "repeller_condition",
     lambda: vk.repeller_condition(vk.LagrangianProblem(
         vk.linear_field(1.0), lambda X, F: np.where(X[:, 0] > 1.5, np.nan, 1.0), 0.0,
         vk.zero_obstacle), [[0.0], [1.0], [2.0]]), ValueError, "lagrangian at sample 2 is NaN"),
    # no times: a passing 0.0 where the ratio is 2.5
    ("growth-no-times", "verify_growth",
     lambda: vk.verify_growth(vk.linear_field(5.0), [[1.0]], times=()), ValueError,
     "at least one sample and one time"),
    # a blow-up on replay gave a nan defect
    ("replay-blowup", "replay_check", _replay_blowup, vk.NonFinite,
     "during replay_check of cloud point"),
    # a NaN point or direction read as outside the grid: 1e18
    ("interp-nan-row", "GridFunction",
     lambda: _RAMP.interp_many([[0.5], [np.nan]]), ValueError, r"row 1 \[nan\] holds a NaN"),
    ("interp-nan-point", "GridFunction",
     lambda: _RAMP.interp([np.nan]), ValueError, "row 0 .* holds a NaN"),
    ("epiderivative-nan-v", "epiderivative",
     lambda: vk.epiderivative(_RAMP, [0.5], [np.nan]), ValueError, r"v = \[nan\] holds a NaN"),
    ("epiderivative-nan-x", "epiderivative",
     lambda: vk.epiderivative(_RAMP, [np.nan], [1.0]), ValueError, r"x = \[nan\] holds a NaN"),
    # a NaN velocity was an INF "forward" violation, an infinite one 1e18 violations
    ("hj-nan-velocity", "hj_check_sup",
     lambda: vk.hj_check_sup(vk.LagrangianProblem(_NAN_FIELD, vk.unit_lagrangian, 0.0,
                                                  vk.zero_obstacle), _RAMP, [[0.2], [0.5]]),
     vk.NonFinite, "velocity at sample 0 is not finite"),
    ("hj-inf-velocity", "hj_check_inf",
     lambda: vk.hj_check_inf(vk.LagrangianProblem(
         vk.VectorField(1, lambda t, x: np.where(x > 0.3, np.inf, 1.0), name="inf"),
         vk.unit_lagrangian, 0.0, vk.zero_obstacle), _RAMP, [[0.2], [0.5]]),
     vk.NonFinite, "velocity at sample 1 is not finite"),
    # no speed failed later in _char_rhs; both let solve_char follow phi and
    # graph_sample follow f
    ("char-no-speed", "CharProblem", lambda: vk.CharProblem(**_CHAR), ValueError,
     "exactly one speed"),
    ("char-two-speeds", "CharProblem",
     lambda: vk.CharProblem(**_CHAR, phi=_UNIT_T, f=lambda t, x, y: -np.ones_like(x)),
     ValueError, "exactly one speed"),
    # a NaN x read as outside a factor: 0.0
    ("product-exit-nan-x", "product_exit_time",
     lambda: vk.product_exit_time([_UNIT_T], [_UNIT_K], [np.nan], 0.1), ValueError,
     r"product_exit_time: x = \[nan\] holds a NaN"),
    # a NaN c read the initial datum, a NaN s gave None
    ("boundary-trace-nan-c", "boundary_trace",
     lambda: vk.boundary_trace(_CHAR["data"], 0.0, [np.nan], _UNIT_K), ValueError,
     r"boundary_trace: c = \[nan\] holds a NaN"),
    ("boundary-trace-nan-s", "boundary_trace",
     lambda: vk.boundary_trace(_CHAR["data"], np.nan, [0.5], _UNIT_K), ValueError,
     "boundary_trace: s = nan holds a NaN"),
    # a NaN t or x found no point near it: []
    ("query-graph-nan-t", "query_graph",
     lambda: vk.query_graph(_cloud(), np.nan, [0.5], 0.2), ValueError,
     "query_graph: t = nan holds a NaN"),
    ("query-graph-nan-x", "query_graph",
     lambda: vk.query_graph(_cloud(), 0.5, [np.nan], 0.2), ValueError,
     r"query_graph: x = \[nan\] holds a NaN"),
    # the NaN lattice seeds dropped out of K unseen
    ("graph-sample-nan-seed-lo", "graph_sample",
     lambda: vk.graph_sample(_transport_char(), 1.0, 0.1, 5, [np.nan], [1.0]), ValueError,
     r"graph_sample: seed_lo = \[nan\] holds a NaN"),
    # the three refusals below named no row
    ("graph-sample-huge-seed", "graph_sample",
     lambda: vk.graph_sample(_HUGE_PAST, 1.0, 0.1, 5, [0.0], [1.0]), vk.NonFinite,
     r"seed 3 \[0\.0, 0\.75, 1e\+300\] is not finite or passes the blow-up norm in graph_sample"),
    ("solve-char-many-huge-foot", "solve_char_many",
     lambda: vk.solve_char_many(_HUGE_PAST, [0.5, 0.5, 0.5], [[0.5], [3.0], [4.0]], 0.1),
     vk.NonFinite, "state blew up at the data manifold of row 1$"),
    # row 0 takes no forward step (t = s = 0), so row 1 is the first stepped one
    ("solve-char-many-blowup", "solve_char_many",
     lambda: vk.solve_char_many(_transport_char(lambda t, x, y: 1e3 * y * y), [0.0, 0.5],
                                [[0.5], [0.5]], 0.1),
     vk.NonFinite, "state blew up along the characteristic of row 1$"),
    ("integrate-nan-x0", "integrate", lambda: vk.integrate(_UNIT_T, [np.nan], 0.0, 1.0, 0.1),
     vk.NonFinite, "initial state is not finite in integrate"),
    ("tabulate-nan-row", "tabulate_values",
     lambda: vk.tabulate_values(_COST, [[0.5], [np.nan]], "sup", 1.0, 0.1), vk.NonFinite,
     "initial state is not finite in tabulate_values"),
    # a NaN lagrangian or obstacle past x = 0.3 gave [nan nan] in both modes
    ("tabulate-nan-lagrangian", "tabulate_values",
     lambda: vk.tabulate_values(vk.LagrangianProblem(
         _UNIT_T, lambda X, F: np.where(X[:, 0] > 0.3, np.nan, 1.0), 0.0, vk.abs_obstacle),
         [[-5.0], [0.25]], "inf", 1.0, 0.1), vk.NonFinite,
     r"cost is NaN at row 1 and t = 0.1 in tabulate_values"),
    ("tabulate-nan-obstacle", "tabulate_values",
     lambda: vk.tabulate_values(vk.LagrangianProblem(
         _UNIT_T, vk.unit_lagrangian, 0.0, lambda X: np.where(X[:, 0] > 0.3, np.nan, 0.0)),
         [[-5.0], [0.25]], "sup", 1.0, 0.1), vk.NonFinite,
     r"cost is NaN at row 1 and t = 0.1 in tabulate_values"),
    # the first node that holds a NaN is named, and its lowest row, whatever the block
    ("tabulate-nan-first-node", "tabulate_values",
     lambda: vk.tabulate_values(_NAN_PAST, [[-0.55], [0.25]], "inf", 1.0, 0.1), vk.NonFinite,
     r"cost is NaN at row 1 and t = 0.1 in tabulate_values"),
    ("tabulate-nan-first-node-one-node-blocks", "tabulate_values",
     lambda: _one_node_blocks(lambda: vk.tabulate_values(
         _NAN_PAST, [[-0.55], [0.25]], "sup", 1.0, 0.1)), vk.NonFinite,
     r"cost is NaN at row 1 and t = 0.1 in tabulate_values"),
    # a NaN cost before a blow-up in the same block is named first, as across blocks
    ("tabulate-nan-before-blow-up", "tabulate_values",
     lambda: vk.tabulate_values(_NAN_THEN_BLOWUP, [[2.0], [-1.0]], "inf", 1.0, 0.1),
     vk.NonFinite, r"cost is NaN at row 1 and t = 0.3\d* in tabulate_values"),
    ("tabulate-nan-before-blow-up-one-node-blocks", "tabulate_values",
     lambda: _one_node_blocks(lambda: vk.tabulate_values(
         _NAN_THEN_BLOWUP, [[2.0], [-1.0]], "inf", 1.0, 0.1)),
     vk.NonFinite, r"cost is NaN at row 1 and t = 0.3\d* in tabulate_values"),
    # l was tested at the start rows only: a path through l = 1 on (0.3, 0.5) read 0.2
    ("lyapunov-nonzero-along-the-path", "lyapunov",
     lambda: vk.lyapunov(_PULSE, [0.0], 1.0, 0.1), vk.NonzeroLagrangian,
     r"0 at every point: l = 1.0 at row 0 and t = 0.3\d*$"),
    ("lyapunov-nonzero-first-node-one-node-blocks", "tabulate_values",
     lambda: _one_node_blocks(lambda: vk.tabulate_values(
         _PULSE, [[-0.2], [0.0]], "lyapunov", 1.0, 0.1)), vk.NonzeroLagrangian,
     r"0 at every point: l = 1.0 at row 1 and t = 0.3\d*$"),
    ("solve-char-many-nan-row", "solve_char_many",
     lambda: vk.solve_char_many(_transport_char(), [0.5, 0.5], [[0.5], [np.nan]], 0.1),
     ValueError, r"an exit time requires x in K: row 1 \[nan\] is not finite"),
    # a start outside K was refused without its row
    ("solve-char-many-outside-row", "solve_char_many",
     lambda: vk.solve_char_many(_transport_char(), [0.5, 0.5], [[0.5], [11.0]], 0.1),
     ValueError, r"an exit time requires x in K: row 1 \[11.0\] is outside K"),
    ("exit-time-nan-x", "exit_time",
     lambda: vk.exit_time(_UNIT_T, _UNIT_K, [np.nan], 1.0, 0.1), ValueError,
     r"an exit time requires x in K: row 0 \[nan\]"),
    # a NaN start was stepped and reported as a blow-up
    ("hitting-time-nan-x", "hitting_time",
     lambda: vk.hitting_time(_UNIT_T, _UNIT_K, [np.nan], 1.0, 0.1), ValueError,
     r"a hitting time requires a finite x: row 0 \[nan\] is not finite"),
    ("capture-margin-nan-x", "capture_margin",
     lambda: vk.capture_margin(_UNIT_T, _UNIT_K, vk.box([0.8], [0.9]), [np.nan], 1.0, 0.1),
     ValueError, r"an exit time requires x in K: row 0 \[nan\]"),
    ("tangent-residual-nan-x", "tangent_residual",
     lambda: vk.tangent_residual(_UNIT_K, [np.nan], [1.0]), ValueError,
     "tangent_residual requires x in K"),
    ("phi-invariance-nan-sample", "phi_invariance_check",
     lambda: vk.phi_invariance_check(_PHI_CHAR, [[0.1, 0.5, 1.0], [0.1, np.nan, 1.0]], 0.1),
     ValueError, r"sample 1 \[0.1, nan, 1.0\] is not finite"),
    ("viable-trajectory-nan-x0", "viable_trajectory",
     lambda: vk.viable_trajectory(_UNIT_T, vk.box([0.0], [9.0]), [np.nan], 1.0, 0.1),
     ValueError, "viable_trajectory requires x0 in K"),
    # a NaN radius found no point near (t, x): []
    ("query-graph-nan-radius", "query_graph",
     lambda: vk.query_graph(_cloud(), 0.5, [0.5], np.nan), ValueError,
     "query_graph: radius = nan holds a NaN"),
    # no sample ended in numpy's "zero-size array to reduction operation maximum"
    ("frankowska-zero-samples", "frankowska_residual",
     lambda: vk.frankowska_residual(_cloud(), _transport_char(), 0), ValueError,
     "n_samples must be positive, not 0"),
    ("frankowska-negative-samples", "frankowska_residual",
     lambda: vk.frankowska_residual(_cloud(), _transport_char(), -3), ValueError,
     "n_samples must be positive, not -3"),
    ("frankowska-no-interior-point", "frankowska_residual",
     lambda: vk.frankowska_residual(_cloud(), _transport_char(), 5, interior_margin=1.0),
     ValueError, "no interior cloud points to sample"),
    ("backward-exit-negative-t", "backward_exit_time",
     lambda: vk.backward_exit_time(_UNIT_T, _UNIT_K, -0.5, [0.5], 0.1), ValueError,
     "backward_exit_time requires t >= 0"),
    ("solve-char-many-no-phi", "solve_char_many",
     lambda: vk.solve_char_many(vk.CharProblem(**_CHAR, f=lambda t, x, y: np.ones_like(x)),
                                [0.5], [[0.5]], 0.1),
     ValueError, r"solve_char needs a y-independent speed \(phi\)"),
    ("demo4d-nonpositive-parameter", "Demo4D",
     lambda: vk.Demo4D(1.0, 1.0, 0.0, 2.0, 2.0, 0.4, *[lambda *a: None] * 3), vk.ParamDomain,
     "rho, sigma, beta, b, r2 must be positive"),
    ("graph-sample-negative-T", "graph_sample",
     lambda: vk.graph_sample(_transport_char(), -1.0, 0.1, 5, [0.0], [1.0]), ValueError,
     "T must be nonnegative"),
    ("phi-invariance-no-constraint", "phi_invariance_check",
     lambda: vk.phi_invariance_check(_transport_char(), [[0.1, 0.5, 1.0]], 0.1), ValueError,
     "problem has no output constraint"),
    ("capture-crosscheck-2d-grid", "graph_capture_crosscheck",
     lambda: vk.graph_capture_crosscheck(_transport_char(), _cloud(),
                                         vk.GridSpec([0.0, 0.0], [1.0, 1.0], [4, 4]), 0.1),
     ValueError, r"need a \(tau, x, y\) grid"),
    # a NaN seed is not refused: reach_set flags it with ok False, as a blow-up
    ("reach-set-negative-t", "reach_set",
     lambda: vk.reach_set(_UNIT_T, -1.0, [[0.5]], 0.1), ValueError,
     "reach_set requires t >= 0"),
    ("integrate-zero-step", "integrate", lambda: vk.integrate(_UNIT_T, [0.5], 0.0, 1.0, 0.0),
     ValueError, "step must be positive"),
    ("viable-step-zero-h", "viable_step",
     lambda: vk.viable_step(_UNIT_T, _UNIT_K, 0.0, [0.5], 0.0), ValueError,
     "h must be positive"),
    ("tabulate-bad-mode", "tabulate_values",
     lambda: vk.tabulate_values(_COST, [[0.5]], "max", 1.0, 0.1), ValueError,
     "mode must be 'sup', 'inf' or 'lyapunov'"),
    ("epigraph-bad-mode", "epigraph_value_field",
     lambda: vk.epigraph_value_field(_COST, vk.GridSpec([0.0, 0.0], [1.0, 1.0], [2, 2]), "max",
                                     1.0, 0.1), ValueError, "mode must be 'sup' or 'inf'"),
    ("grid-function-short-values", "GridFunction",
     lambda: vk.GridFunction(_RAMP.grid, np.zeros(4)), ValueError,
     "values and inside need one entry per grid node"),
    ("grid-function-short-inside", "GridFunction",
     lambda: vk.GridFunction(_RAMP.grid, np.zeros(5), np.ones(4, dtype=bool)), ValueError,
     "values and inside need one entry per grid node"),
    ("tangent-residual-flat-ladder", "tangent_residual",
     lambda: vk.tangent_residual(_UNIT_K, [0.5], [1.0], h_min=0.1, h_max=0.1), ValueError,
     "need 0 < h_min < h_max"),
    ("set-limit-one-cloud", "set_limit",
     lambda: vk.set_limit([np.zeros((1, 1))], "upper", 0.1), ValueError,
     "set_limit needs at least two clouds"),
    ("set-limit-bad-mode", "set_limit",
     lambda: vk.set_limit([np.zeros((1, 1))] * 2, "middle", 0.1), ValueError,
     "mode must be 'upper' or 'lower'"),
]


@pytest.mark.parametrize("call, error, match", [row[2:] for row in _BAD_INPUT],
                         ids=[row[0] for row in _BAD_INPUT])
def test_bad_input_raises_naming_its_row_or_step(call, error, match):
    with pytest.raises(error, match=match):
        call()


#: The arguments that carry rows or points of the caller's data.
_ROW_ARGS = {"x", "x0", "xs", "c", "t", "seeds", "states", "samples", "sample_points",
             "seed_lo"}
#: The public callables taking such an argument that have no _BAD_INPUT row, and why.
_NO_BAD_INPUT_ROW = {
    "flow": "a one-row lift of reach_set, reversed for t < 0; a non-finite start or "
            "a blow-up raises NonFinite",
    "value_sup": "a one-row lift of tabulate_values",
    "value_inf": "a one-row lift of tabulate_values",
    "minimal_time": "a one-row lift of tabulate_values",
    "minimal_length": "a one-row lift of tabulate_values",
    "running_cost_path": "one row's history from tabulate_values' value engine",
    "solve_char": "a one-row lift of solve_char_many",
    "exitor": "a one-row lift of solve_char_many's backward exit sweep and its feet",
    "abs_obstacle": "an obstacle: a callable the toolkit takes, not an entry point",
    "zero_obstacle": "an obstacle: a callable the toolkit takes, not an entry point",
    "zero_lagrangian": "a lagrangian: a callable the toolkit takes, not an entry point",
    "unit_lagrangian": "a lagrangian: a callable the toolkit takes, not an entry point",
    "speed_lagrangian": "a lagrangian: a callable the toolkit takes, not an entry point",
    "const_lagrangian": "builds a lagrangian the toolkit takes; c is its value",
    "logistic_closed_form": "a closed form, elementwise as numpy: a NaN t gives NaN",
    "Trajectory": "a result record the toolkit builds",
    "GraphCloud": "a result record the toolkit builds",
    "HJReport": "a result record the toolkit builds",
}


def test_every_public_callable_of_rows_has_a_bad_input_row_or_a_reason():
    """A public name with an argument in _ROW_ARGS has a _BAD_INPUT row or an
    exemption, and every exemption names such a callable that has no row."""
    takes_rows = set()
    for name, obj in vars(vk).items():
        if name.startswith("_") or not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):  # no signature to read
            continue
        if _ROW_ARGS & set(params):
            takes_rows.add(name)
    has_row = {row[1] for row in _BAD_INPUT}
    assert takes_rows - has_row - set(_NO_BAD_INPUT_ROW) == set()
    assert set(_NO_BAD_INPUT_ROW) <= takes_rows - has_row
