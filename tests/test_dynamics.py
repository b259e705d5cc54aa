import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import viakit as vk
from viakit.dynamics import _march, step_schedule


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
    x = np.array([0.3, -0.7])
    out = vk.flow(f, 0.0, x, 1e-2)
    assert np.array_equal(out, x)


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
