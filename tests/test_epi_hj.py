import itertools
import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

import viakit as vk
from viakit.common import INF
from viakit.dynamics import rk4_step
from viakit import epi_hj
from viakit.epi_hj import CostPath, _epiderivatives, _values_at

import hj_reference
import value_reference

decay = vk.linear_field(-1.0)
grow = vk.linear_field(1.0)
one = vk.transport_field([1.0])

# the two workhorse problems (also acceptance criteria 6-8)
P_SUP = vk.LagrangianProblem(decay, vk.zero_lagrangian, 0.0, vk.abs_obstacle)
P_INF = vk.LagrangianProblem(decay, vk.unit_lagrangian, 0.0, vk.abs_obstacle)


def test_running_cost_tracks_obstacle_when_costless():
    path = vk.running_cost_path(P_SUP, [0.8], 3.0, 1e-3)
    u_along = np.abs(path.states).ravel()
    assert_allclose(path.values, u_along, atol=1e-12)


def test_running_cost_discount_cancels_decay():
    p = vk.LagrangianProblem(decay, vk.zero_lagrangian, 1.0, vk.abs_obstacle)
    path = vk.running_cost_path(p, [0.8], 3.0, 1e-3)
    assert np.max(np.abs(path.values - 0.8)) <= 1e-6  # e^t |x| e^{-t} constant


def test_running_cost_pure_clock():
    zero = vk.VectorField(1, lambda t, x: np.zeros_like(x))
    p = vk.LagrangianProblem(zero, vk.unit_lagrangian, 0.0, vk.zero_obstacle)
    path = vk.running_cost_path(p, [0.3], 2.0, 1e-3)
    assert_allclose(path.values, path.times, atol=1e-9)


def test_value_sup_examples():
    assert vk.value_sup(P_SUP, [0.7], 15.0, 1e-3) == pytest.approx(0.7)
    # a = 2 makes e^{2t} |x| e^{-t} blow up
    p = vk.LagrangianProblem(decay, vk.zero_lagrangian, 2.0, vk.abs_obstacle)
    assert vk.value_sup(p, [0.5], 15.0, 1e-3) >= INF
    assert vk.value_sup(p, [0.0], 15.0, 1e-3) == 0.0
    # divergent integral: u = 0, l = 1
    p2 = vk.LagrangianProblem(decay, vk.unit_lagrangian, 0.0, vk.zero_obstacle)
    assert vk.value_sup(p2, [1.0], 15.0, 1e-3) >= INF


def test_value_inf_examples():
    p0 = vk.LagrangianProblem(decay, vk.unit_lagrangian, 0.0, vk.zero_obstacle)
    assert vk.value_inf(p0, [2.0], 15.0, 1e-3) == 0.0  # stop immediately
    assert vk.value_inf(P_INF, [math.e], 15.0, 1e-3) == pytest.approx(2.0, abs=1e-6)
    # psi-target cost equals the hitting time
    C = vk.ball([0.0], 0.1)
    p1 = vk.LagrangianProblem(decay, vk.unit_lagrangian, 0.0, vk.indicator_obstacle(C))
    vi = vk.value_inf(p1, [1.0], 15.0, 1e-3)
    ht = vk.hitting_time(decay, C, [1.0], 15.0, 1e-3)
    assert vi == pytest.approx(ht, abs=1e-6)


def test_lyapunov_examples():
    p = vk.LagrangianProblem(decay, vk.zero_lagrangian, 0.5, vk.abs_obstacle)
    assert vk.lyapunov(p, [0.7], 15.0, 1e-3) == pytest.approx(0.7)
    p0 = vk.LagrangianProblem(decay, vk.zero_lagrangian, 0.5, vk.zero_obstacle)
    assert vk.lyapunov(p0, [0.7], 15.0, 1e-3) == 0.0
    pg = vk.LagrangianProblem(grow, vk.zero_lagrangian, 0.0, vk.abs_obstacle)
    assert vk.lyapunov(pg, [0.5], 15.0, 1e-3) >= INF


def test_lyapunov_rejects_nonzero_lagrangian():
    with pytest.raises(vk.NonzeroLagrangian):
        vk.lyapunov(P_INF, [1.0], 5.0, 1e-2)


def test_lyapunov_descent_inequality():
    p = vk.LagrangianProblem(decay, vk.zero_lagrangian, 0.5, vk.abs_obstacle)
    val = vk.lyapunov(p, [0.7], 10.0, 1e-3)
    traj = vk.integrate(decay, [0.7], 0.0, 10.0, 1e-3)
    u = np.abs(traj.states).ravel()
    assert np.all(u <= np.exp(-0.5 * traj.times) * val + 1e-6)


def test_minimal_time_examples():
    K = vk.ball([1.0], 1e-6)
    assert vk.minimal_time(one, K, [0.0], 5.0, 1e-3) == pytest.approx(1.0, abs=1e-5)
    assert vk.minimal_time(one, vk.box([0.0], [2.0]), [0.5], 5.0, 1e-3) == 0.0
    assert vk.minimal_time(decay, vk.point_cloud_set([[0.0]]), [1.0], 5.0, 1e-2) >= INF


def test_minimal_time_equals_hitting_time():
    cases = [
        (one, vk.ball([1.0], 1e-6), [0.0]),
        (decay, vk.ball([0.0], 0.1), [1.0]),
        (vk.rotation_field(), vk.ball([1.0, 0.0], 1e-3), [0.0, 1.0]),
    ]
    for f, K, x in cases:
        mt = vk.minimal_time(f, K, x, 10.0, 1e-3)
        ht = vk.hitting_time(f, K, x, 10.0, 1e-3)
        assert mt == pytest.approx(ht, abs=1e-6)


def test_minimal_length_examples():
    assert vk.minimal_length(decay, vk.ball([0.0], 0.1), [1.0], 15.0, 1e-3) == \
        pytest.approx(0.9, abs=1e-4)
    assert vk.minimal_length(one, vk.box([0.0], [2.0]), [0.5], 5.0, 1e-3) == 0.0
    # target radius must stay above the sampling step so the narrow
    # in-target window contains trajectory nodes
    arc = vk.minimal_length(vk.rotation_field(), vk.ball([1.0, 0.0], 5e-4),
                            [0.0, 1.0], 10.0, 2.5e-4)
    assert arc == pytest.approx(3 * math.pi / 2, abs=1e-3)


def test_lifted_field_cost_slope():
    lf = vk.lift(P_INF)
    v = lf(0.0, np.array([0.7, 0.0]))
    assert v[1] == pytest.approx(-1.0)  # at y = 0: -l(x, f(x)) <= 0
    assert v[0] == pytest.approx(-0.7)


def _lift_eval_written_out(p, t, z):
    """The lifted field as the expression it replaced: per call lookups, an assigned column."""
    n = p.field.dim
    x, out = z[:, :n], np.empty(z.shape)
    out[:, :n] = fx = p.field.eval(t, x)
    out[:, n] = -p.discount * z[:, n] - np.asarray(p.lagrangian(x, fx), dtype=float)
    return out


@pytest.mark.parametrize("discount", [0.0, 0.7])
@pytest.mark.parametrize("n", [1, 2])
def test_lift_has_the_bits_of_the_written_out_expression(discount, n):
    # a zero cost entry keeps its sign: -0.0 * y - 0.0 is -0.0 for y >= +0.0
    def as_list(x, p):  # a lagrangian returning a Python list, with -0.0 entries
        return [-0.0 if v < 0 else v for v in x[:, 0].tolist()]

    rng = np.random.default_rng(n)
    field = vk.linear_field(-1.0, dim=n) if n == 1 else vk.rotation_field(0.8)
    y = np.array([0.0, -0.0, -1.5, 2.25, -0.0, 0.0, -3e-310, 7.0])
    z = np.column_stack([rng.normal(size=(len(y), n)), y])
    z[::3, :n] = 0.0
    for lagrangian in (vk.zero_lagrangian, vk.unit_lagrangian, vk.speed_lagrangian,
                       vk.const_lagrangian(-0.0), as_list):
        p = vk.LagrangianProblem(field, lagrangian, discount, vk.abs_obstacle)
        for t in (0.0, np.full((len(y), 1), 0.3)):
            got = epi_hj.lift(p).eval(t, z)
            assert got.tobytes() == _lift_eval_written_out(p, t, z).tobytes()
    zero = epi_hj.lift(vk.LagrangianProblem(field, vk.zero_lagrangian, 0.0, vk.abs_obstacle))
    assert (np.signbit(zero.eval(0.0, z)[:, n]) == ~np.signbit(y)).all()


def test_epigraph_envelope_matches_abs(tmp_path):
    grid = vk.GridSpec([-2.0, 0.0], [2.0, 3.0], [100, 100])
    res = vk.epigraph_value_field(P_SUP, grid, "sup", 8.0, 2e-2)
    xs = res.envelope.grid.nodes().ravel()
    cell = 3.0 / 100
    assert np.max(np.abs(res.envelope.values - np.abs(xs))) <= 2 * cell


def test_epigraph_envelope_zero_obstacle_inf_mode():
    p = vk.LagrangianProblem(decay, vk.zero_lagrangian, 0.0, vk.zero_obstacle)
    grid = vk.GridSpec([-1.0, 0.0], [1.0, 2.0], [40, 40])
    res = vk.epigraph_value_field(p, grid, "inf", 4.0, 2e-2)
    assert np.all(res.envelope.values == 0.0)


def test_epigraph_envelope_inf_matches_value():
    grid = vk.GridSpec([2.0, 0.0], [3.0, 3.0], [40, 120])
    res = vk.epigraph_value_field(P_INF, grid, "inf", 8.0, 1e-2)
    xs = res.envelope.grid.nodes().ravel()
    node = int(np.argmin(np.abs(xs - math.e)))
    direct = vk.value_inf(P_INF, [xs[node]], 8.0, 1e-2)
    assert abs(res.envelope.values[node] - direct) <= 2 * (3.0 / 120)


# x' = t: the running cost is read at each history node's own time
clock = vk.VectorField(1, lambda t, x: np.broadcast_to(np.asarray(t, dtype=float), x.shape).copy())


def test_minimal_length_on_a_time_dependent_field():
    # x(t) = t^2 / 2 meets the ball around 0.5 at t ~ 1; the arc length is ~0.5
    target = vk.ball([0.5], 1e-3)
    assert vk.minimal_time(clock, target, [0.0], 2.0, 1e-3) == pytest.approx(1.0, abs=2e-3)
    assert vk.minimal_length(clock, target, [0.0], 2.0, 1e-3) == pytest.approx(0.5, abs=2e-3)


def test_direct_route_matches_epigraph_on_a_time_dependent_field():
    # x' = -t, l = |x'|, u = |x|: J(t) = |x0 - t^2/2| + t^2/2, so the value is x0;
    # a running cost read at t = 0 would be zero and give 0 instead
    p = vk.LagrangianProblem(vk.VectorField(1, lambda t, x: -clock.eval(t, x)),
                             vk.speed_lagrangian, 0.0, vk.abs_obstacle)
    grid = vk.GridSpec([0.5, 0.0], [1.5, 3.0], [40, 120])
    res = vk.epigraph_value_field(p, grid, "inf", 3.0, 1e-2)
    xs = res.envelope.grid.nodes()
    direct = vk.tabulate_values(p, xs, "inf", 3.0, 1e-2)
    assert np.max(np.abs(direct - xs[:, 0])) <= 1e-3
    assert np.max(np.abs(res.envelope.values - direct)) <= 2 * (3.0 / 120)


def test_epigraph_cap_too_small():
    grid = vk.GridSpec([-2.0, 0.0], [2.0, 1.0], [40, 20])  # roof below |x| max
    with pytest.raises(vk.CapTooSmall):
        vk.epigraph_value_field(P_SUP, grid, "sup", 5.0, 2e-2)


def test_repeller_condition_examples():
    samples = np.linspace(1.0, 3.0, 9)[:, None]
    p = vk.LagrangianProblem(grow, vk.unit_lagrangian, 0.0, vk.zero_obstacle)
    rep = vk.repeller_condition(p, samples)
    assert rep.ok and rep.gamma_minus >= 0.5 and rep.delta_minus > 0.0
    p0 = vk.LagrangianProblem(grow, vk.zero_lagrangian, 0.0, vk.zero_obstacle)
    assert not vk.repeller_condition(p0, samples).ok  # delta = 0
    pd = vk.LagrangianProblem(decay, vk.unit_lagrangian, 0.0, vk.zero_obstacle)
    rep2 = vk.repeller_condition(pd, samples)
    assert not rep2.ok and rep2.gamma_minus <= -0.5


def _tabulated(fn, lo, hi, n):
    grid = vk.GridSpec([lo], [hi], [n])
    xs = grid.nodes().ravel()
    return vk.GridFunction(grid, fn(xs))


def test_epiderivative_smooth_quadratic():
    gf = _tabulated(lambda x: x * x, -2.0, 2.0, 200)
    assert vk.epiderivative(gf, [1.0], [1.0]) == pytest.approx(2.0, abs=5e-2)


def test_epiderivative_abs_kink():
    gf = _tabulated(np.abs, -2.0, 2.0, 200)
    assert vk.epiderivative(gf, [0.0], [1.0]) == pytest.approx(1.0, abs=5e-2)


def test_epiderivative_refuses_an_endless_ladder():
    # halving never passes a floor <= 0 and never leaves h_max = inf, so the
    # ladder would never end; a NaN bound would give no rung at all
    gf = _tabulated(np.abs, -2.0, 2.0, 200)
    for h_min, h_max in ((0.0, None), (-1e-3, None), (np.nan, None), (None, np.inf),
                         (None, np.nan)):
        with pytest.raises(ValueError, match="step ladder"):
            vk.epiderivative(gf, [0.0], [1.0], h_min=h_min, h_max=h_max)


def test_gridfunction_and_epiderivative_2d():
    grid = vk.GridSpec([-1.0, -1.0], [1.0, 1.0], [100, 100])
    pts = grid.nodes()
    gf = vk.GridFunction(grid, pts[:, 0] ** 2 + 2.0 * pts[:, 1] ** 2)
    assert gf.interp([0.31, -0.47]) == pytest.approx(0.31 ** 2 + 2 * 0.47 ** 2, abs=1e-3)
    assert vk.epiderivative(gf, [0.5, 0.5], [1.0, 0.0]) == pytest.approx(1.0, abs=5e-2)


def test_epiderivative_indicator_infinite():
    grid = vk.GridSpec([-0.5], [1.5], [100])
    xs = grid.nodes().ravel()
    vals = np.where((xs >= 0.0) & (xs <= 1.0), 0.0, INF)
    gf = vk.GridFunction(grid, vals)
    assert vk.epiderivative(gf, [1.0], [1.0]) >= INF


def test_hj_check_sup_computed_solution_clean():
    grid = vk.GridSpec([-2.0], [2.0], [200])
    vals = vk.tabulate_values(P_SUP, grid.nodes(), "sup", 10.0, 1e-2)
    gf = vk.GridFunction(grid, vals)
    samples = np.linspace(-1.5, 1.5, 61)[:, None]
    report = vk.hj_check_sup(P_SUP, gf, samples, tol=0.05)
    assert report.ok


def test_hj_check_sup_shifted_flags_complementarity():
    grid = vk.GridSpec([-2.0], [2.0], [200])
    vals = vk.tabulate_values(P_SUP, grid.nodes(), "sup", 10.0, 1e-2) + 1.0
    gf = vk.GridFunction(grid, vals)
    samples = np.linspace(-1.5, 1.5, 61)[:, None]
    report = vk.hj_check_sup(P_SUP, gf, samples, tol=0.05)
    kinds = {k for k, _, _ in report.violations}
    assert "complementarity" in kinds
    assert np.nanmax(report.complementarity) > 0.05


def test_hj_check_sup_constant_field_flat():
    gf = _tabulated(lambda x: np.full_like(x, 3.0), -2.0, 2.0, 100)
    p = vk.LagrangianProblem(decay, vk.zero_lagrangian, 0.0, vk.zero_obstacle)
    report = vk.hj_check_sup(p, gf, np.linspace(-1, 1, 21)[:, None], tol=0.05)
    assert np.nanmax(np.abs(report.residual_fwd)) <= 1e-9
    assert np.nanmax(np.abs(report.residual_bwd)) <= 1e-9


def test_hj_check_inf_minimal_time_clean():
    K = vk.ball([1.0], 0.005)
    p = vk.LagrangianProblem(one, vk.unit_lagrangian, 0.0, vk.indicator_obstacle(K))
    grid = vk.GridSpec([0.0], [1.0], [200])
    vals = vk.tabulate_values(p, grid.nodes(), "inf", 3.0, 1e-3)
    gf = vk.GridFunction(grid, vals)
    samples = np.linspace(0.05, 0.9, 35)[:, None]
    report = vk.hj_check_inf(p, gf, samples, tol=0.05)
    assert report.ok


def test_hj_check_inf_zero_field_flags_forward():
    p = vk.LagrangianProblem(decay, vk.unit_lagrangian, 0.0, vk.abs_obstacle)
    gf = _tabulated(np.zeros_like, -2.0, 2.0, 100)
    samples = np.linspace(0.5, 1.5, 11)[:, None]
    report = vk.hj_check_inf(p, gf, samples, tol=0.05)
    kinds = {k for k, _, _ in report.violations}
    assert "forward" in kinds  # v = 0 is not the stopping value when l > 0


def test_hj_check_inf_field_equal_obstacle_vacuous():
    gf = _tabulated(np.abs, -2.0, 2.0, 100)
    p = vk.LagrangianProblem(decay, vk.unit_lagrangian, 0.0, vk.abs_obstacle)
    samples = np.array([[0.7], [-0.3]])
    report = vk.hj_check_inf(p, gf, samples, tol=0.05)
    # forward clause vacuous (v = u), bounds hold; backward may bind but holds
    assert not any(k in ("lower-bound", "upper-bound", "forward")
                   for k, _, _ in report.violations)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_hj_check_rejects_non_finite_sample(bad):
    """A non-finite sample's residuals would be NaN, which reads as "clause does
    not apply", so both checks refuse it rather than count it as no violation."""
    gf = _tabulated(np.abs, -2.0, 2.0, 100)
    p = vk.LagrangianProblem(decay, vk.unit_lagrangian, 0.0, vk.abs_obstacle)
    for check in (vk.hj_check_sup, vk.hj_check_inf):
        with pytest.raises(ValueError, match="sample 1"):
            check(p, gf, np.array([[0.1], [bad], [0.2]]), tol=0.05)


def test_obstacle_bounds():
    rng = np.random.default_rng(11)
    for x in rng.uniform(-2, 2, size=(10, 1)):
        u = float(vk.abs_obstacle(x[None, :])[0])
        vs = vk.value_sup(P_SUP, x, 10.0, 1e-2)
        vi = vk.value_inf(P_INF, x, 10.0, 1e-2)
        assert vs >= u - 1e-9
        assert -1e-9 <= vi <= u + 1e-9


def test_monotone_refinement_in_horizon():
    x = [1.3]
    sups = [vk.value_sup(P_INF, x, T, 1e-2) for T in (2.0, 4.0, 8.0)]
    assert sups[0] <= sups[1] <= sups[2]
    infs = [vk.value_inf(P_INF, x, T, 1e-2) for T in (0.5, 2.0, 8.0)]
    assert infs[0] >= infs[1] >= infs[2]


def test_tabulate_matches_scalar_ops():
    """Every scalar value op equals (on bytes) its row of tabulate_values: 1-D and
    2-D, time-dependent or not, discounted or not."""
    xs = np.linspace(-1.5, 1.5, 7)[:, None]
    tab = vk.tabulate_values(P_SUP, xs, "sup", 10.0, 1e-2)
    direct = [vk.value_sup(P_SUP, x, 10.0, 1e-2) for x in xs]
    assert np.array_equal(tab, direct)
    tab_i = vk.tabulate_values(P_INF, xs, "inf", 10.0, 1e-2)
    direct_i = [vk.value_inf(P_INF, x, 10.0, 1e-2) for x in xs]
    assert np.array_equal(tab_i, direct_i)
    T, h = 1.5, 0.01

    def rows_equal(op, mode, p, xs, *lead):
        tab = vk.tabulate_values(p, xs, mode, T, h)
        assert np.array([op(*lead, x, T, h) for x in xs]).tobytes() == tab.tobytes()
        return tab

    for dim, timedep, discount in [(1, False, 0.0), (1, True, 0.3), (2, False, 0.2),
                                   (2, True, 0.0)]:
        cases, xs = _inf_cases(dim, timedep, "unit", discount, 0.05)
        for p in cases:
            rows_equal(lambda *a: vk.value_inf(p, *a), "inf", p, xs)
            rows_equal(lambda *a: vk.value_sup(p, *a), "sup", p, xs)
        field, K = cases[0].field, vk.box(np.full(dim, 0.7), np.full(dim, 0.9))
        rows_equal(vk.minimal_time, "inf", vk.minimal_time_problem(field, K), xs, field, K)
        rows_equal(vk.minimal_length, "inf", vk.minimal_length_problem(field, K), xs, field, K)
        p = vk.LagrangianProblem(field, vk.zero_lagrangian, discount, vk.abs_obstacle)
        tab = rows_equal(lambda *a: vk.lyapunov(p, *a), "lyapunov", p, xs)
        assert tab.tobytes() == vk.tabulate_values(p, xs, "sup", T, h).tobytes()


# -- the batched inf finishing against the per-row loop it replaced ------------


def _ref_value_at(path, t):
    """The per-row J(t) sub-step (copy of the scalar CostPath.value_at)."""
    p, times = path.problem, path.times
    t = min(max(t, times[0]), times[-1])
    j = min(int(np.searchsorted(times, t, side="right")) - 1, len(times) - 2)
    dt = t - times[j]
    xj = path.states[j]
    xt = rk4_step(p.field, times[j], xj, dt) if dt > 0 else xj
    x2 = np.vstack([xj, xt])
    f2 = p.field(times[j], x2)
    lw = p.lagrangian(x2, f2) * np.exp(p.discount * np.array([times[j], t]))
    cum = path.cumulative[j] + 0.5 * (lw[0] + lw[1]) * dt
    ut = float(p.obstacle(xt[None, :])[0])
    if ut >= INF:
        return INF
    J = math.exp(p.discount * t) * ut + cum
    return INF if J > p.value_cap else J


def _ref_golden_min(fn, a, b, tol):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    best = min(fn(a), fn(b), fc, fd)
    for _ in range(200):
        if b - a <= tol:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
            best = min(best, fc)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
            best = min(best, fd)
    return best


def _ref_bisect_finite(fn, t_bad, t_good, tol):
    for _ in range(80):
        if abs(t_good - t_bad) <= tol:
            break
        mid = 0.5 * (t_bad + t_good)
        if fn(mid) < INF:
            t_good = mid
        else:
            t_bad = mid
    return t_good


def _ref_finish_inf(path, t_tol=1e-8):
    """The per-row inf finishing rule (copy of the scalar loop), with its
    events: which edges were bisected and where the arg-min node sits."""
    values = path.values
    if np.all(values >= INF):
        return INF, "empty"
    i = int(np.argmin(values))
    best = float(values[i])
    k = len(values)
    kind = {0: "first", k - 1: "last"}.get(i, "inner")
    fn = lambda t: _ref_value_at(path, t)
    a = path.times[max(i - 1, 0)]
    b = path.times[min(i + 1, k - 1)]
    if i > 0 and values[i - 1] >= INF:
        a = _ref_bisect_finite(fn, a, path.times[i], t_tol)
        kind += "+left"
    if i < k - 1 and values[i + 1] >= INF:
        b = _ref_bisect_finite(fn, b, path.times[i], t_tol)
        kind += "+right"
    best = min(best, fn(a), fn(b))
    if b > a:
        best = min(best, _ref_golden_min(fn, a, b, t_tol))
    return best, kind


def _swirl(dim, timedep):
    """Drift +1 along x1 plus a coupling; with timedep, a cos(2t) pulse on x1."""

    def ev(t, x):
        out = np.ones_like(x)
        if dim == 2:
            out[:, 1:] = 0.3 * x[:, :1] - 0.2 * x[:, 1:]
        if timedep:
            out[:, :1] += 0.8 * np.cos(2.0 * t)
        return out

    return vk.VectorField(dim, ev, name="swirl")


_LAGRANGIANS = {"unit": vk.unit_lagrangian, "speed": vk.speed_lagrangian,
                "half": vk.const_lagrangian(0.5)}


def _well(x):
    """A smooth obstacle with its bottom at x1 = 0.8: J has interior minima."""
    return (x[:, 0] - 0.8) ** 2 + 0.5 * np.sum(x[:, 1:] ** 2, axis=1)


def _inf_cases(dim, timedep, lag, discount, radius):
    """Problems whose rows start inside a target, reach it, miss it, pass
    the bottom of a well, or (abs obstacle, cost 1/2) still descend at the
    horizon."""
    field = _swirl(dim, timedep)
    centre = np.zeros(dim)
    centre[0] = 0.8
    targets = [vk.box(centre - radius, centre + radius), vk.ball(centre, radius)]
    rows = np.zeros((6, dim))
    rows[:, 0] = [0.8, 0.8 - 0.4 * radius, 0.3, -0.4, 2.5, -1.9]
    if dim == 2:
        rows[4:, 1] = [0.1, 3.0]
    cases = [vk.LagrangianProblem(field, _LAGRANGIANS[lag], discount,
                                  vk.indicator_obstacle(K)) for K in targets]
    cases += [vk.LagrangianProblem(field, _LAGRANGIANS[lag], discount, u)
              for u in (vk.abs_obstacle, _well)]
    return cases, rows


def _check_inf_finishing(dim, timedep, lag, discount, radius, h):
    """tabulate_values(..., "inf") == the per-row loop, bytewise; returns the
    finishing branches the rows took."""
    T, kinds = 1.5, set()
    cases, xs = _inf_cases(dim, timedep, lag, discount, radius)
    for p in cases:
        times, states, _, cum, J = value_reference.cost_history(p, xs, T, h)
        ref = [_ref_finish_inf(CostPath(times, states[:, i], J[:, i], cum[:, i], p))
               for i in range(len(xs))]
        got = vk.tabulate_values(p, xs, "inf", T, h)
        assert got.tobytes() == np.array([v for v, _ in ref]).tobytes()
        kinds.update(kind for _, kind in ref)
        # one batched sub-step per entry == the scalar sub-step, and
        # CostPath.value_at is a one-row lift of it
        ts = np.linspace(0.0, T, 97) + 0.37 * h
        rows = np.repeat(np.arange(len(xs)), len(ts))
        got = _values_at(p, times, states, cum, 0, rows, np.tile(ts, len(xs)))
        paths = [vk.running_cost_path(p, x, T, h) for x in xs]
        ref = [_ref_value_at(paths[r], t) for r, t in zip(rows, np.tile(ts, len(xs)))]
        assert got.tobytes() == np.array(ref).tobytes()
        for t in ts[::20]:
            assert np.float64(paths[1].value_at(t)).tobytes() == \
                np.float64(_ref_value_at(paths[1], t)).tobytes()
    return kinds


@settings(max_examples=15, deadline=None)
@given(dim=st.sampled_from([1, 2]), timedep=st.booleans(),
       lag=st.sampled_from(sorted(_LAGRANGIANS)),
       discount=st.sampled_from([0.0, 0.35]) | st.floats(0.0, 0.6),
       radius=st.floats(0.004, 0.2), h=st.sampled_from([0.01, 0.023, 0.05]))
def test_batched_inf_finishing_matches_per_row_loop(dim, timedep, lag, discount, radius, h):
    _check_inf_finishing(dim, timedep, lag, discount, radius, h)


def test_inf_finishing_branches_covered():
    """Two fixed cases (one 2-D, time-dependent and discounted) take every
    branch: an all-INF row, arg-min at the first and the last node, and
    left and left+right edge bisection."""
    kinds = _check_inf_finishing(1, False, "half", 0.0, 0.01, 0.05)
    kinds |= _check_inf_finishing(2, True, "speed", 0.35, 0.1, 0.023)
    for kind in ("empty", "first", "last", "inner+left", "inner+left+right"):
        assert kind in kinds, sorted(kinds)


# -- the block-wise value engine against the whole-history engine it replaced -


def _stairs(x):
    """A staircase obstacle in {0, ..., 4}: J ties on its plateaus, in many blocks."""
    return np.round(2.0 * np.cos(3.0 * x[:, 0])) + 2.0


def _block_cases(dim, timedep, lag, discount, radius):
    """(problem, rows, modes): _inf_cases' problems in every mode, a steep
    ramp inside their box (J falls toward the far edge, so the minimum sits
    beside an INF node i + 1), the staircase, and a lagrangian of -2 past
    x1 = 0.9 (J falls while u climbs; 'lyapunov' refuses it as nonzero
    where a row crosses it, at the node the whole history names)."""
    cases, xs = _inf_cases(dim, timedep, lag, discount, radius)
    field = cases[0].field
    modes = ("sup", "inf", "lyapunov")
    box = cases[0].obstacle
    ramp = vk.LagrangianProblem(field, _LAGRANGIANS[lag], discount,
                                lambda X: box(X) + 10.0 * (1.0 - X[:, 0]))
    out = [(p, xs, modes[:2]) for p in cases + [ramp]]
    out.append((vk.LagrangianProblem(field, vk.zero_lagrangian, discount, _stairs), xs, modes))
    drop = vk.LagrangianProblem(field, lambda X, F: np.where(X[:, 0] > 0.9, -2.0, 0.0),
                                discount, vk.abs_obstacle)
    out.append((drop, xs[xs[:, 0] < 0.9], modes))
    return out


def _check_blocks(cases, T, h):
    """tabulate_values == value_reference's, bytewise or with the same error, at
    blocks of 1, 2 and 3 nodes and the default; returns the cases' kinds."""
    kinds = set()
    for p, xs, modes in cases:
        m, dim = xs.shape
        try:
            times, _, _, _, J = value_reference.cost_history(p, xs, T, h)
        except vk.NonFinite:
            kinds.add("blow-up")
        else:
            kinds |= _extremum_kinds(J)
        for mode in modes:
            try:
                want = value_reference.tabulate_values(p, xs, mode, T, h)
            except (vk.NonFinite, vk.NonzeroLagrangian) as e:
                want = e
                kinds.add(type(e).__name__)
            for nodes in (1, 2, 3, None):
                budget = epi_hj.BLOCK_FLOATS if nodes is None else nodes * m * dim
                with mock.patch.object(epi_hj, "BLOCK_FLOATS", budget):
                    if isinstance(want, Exception):
                        with pytest.raises(type(want), match=re.escape(str(want))):
                            vk.tabulate_values(p, xs, mode, T, h)
                    else:
                        got = vk.tabulate_values(p, xs, mode, T, h)
                        assert got.tobytes() == want.tobytes(), (mode, nodes)
    return kinds


def _extremum_kinds(J):
    """Where the rows' first minimum and maximum of J fall against blocks of 2
    and 3 nodes, and whether they tie, peak at the horizon or are all INF."""
    k, kinds = len(J), set()
    finite = ~np.all(J >= INF, axis=0)
    if not finite.all():
        kinds.add("all-INF")
    for name, arg, ext in (("min", np.argmin, np.min), ("max", np.argmax, np.max)):
        i = arg(J, axis=0)[finite]
        for b in (2, 3):
            if np.any((i % b == 0) & (i > 0)):
                kinds.add(f"{name} first in block")
            if np.any((i % b == b - 1) & (i < k - 1)):
                kinds.add(f"{name} last in block")
        if np.any(np.sum(J == ext(J, axis=0), axis=0)[finite] > 1):
            kinds.add(f"{name} tie")
    if np.any(np.argmax(J, axis=0)[finite] == k - 1):
        kinds.add("peak at the horizon")
    return kinds


@settings(max_examples=12, deadline=None)
@given(dim=st.sampled_from([1, 2]), timedep=st.booleans(),
       lag=st.sampled_from(sorted(_LAGRANGIANS)),
       discount=st.sampled_from([0.0, 0.35]) | st.floats(0.0, 0.6),
       radius=st.floats(0.004, 0.2), h=st.sampled_from([0.023, 0.05, 0.1]))
def test_value_blocks_match_the_whole_history(dim, timedep, lag, discount, radius, h):
    _check_blocks(_block_cases(dim, timedep, lag, discount, radius), 1.5, h)


#: x' = 50 x^2: the row from 0.5 overflows to inf within a few steps of 0.05
_BLOW = vk.LagrangianProblem(vk.VectorField(1, lambda t, x: 50.0 * x * x, name="blow"),
                             vk.zero_lagrangian, 0.0, vk.abs_obstacle)


def test_value_blocks_cover_their_edges():
    """Fixed cases (one 2-D, time-dependent and discounted) put the first
    minimum and maximum on the first and the last node of a block, tie them,
    peak at the horizon, leave rows all INF, hold a nonzero lagrangian in
    mode 'lyapunov', blow up and have no rows."""
    none = np.zeros((0, 1))
    kinds = _check_blocks(_block_cases(1, False, "half", 0.0, 0.01)
                          + [(_BLOW, np.array([[-0.5], [0.5]]), ("sup", "inf")),
                             (P_INF, none, ("sup", "inf")),
                             (P_SUP, none, ("lyapunov",))], 1.5, 0.05)
    kinds |= _check_blocks(_block_cases(2, True, "speed", 0.35, 0.1), 1.5, 0.023)
    assert kinds >= {"min first in block", "min last in block", "max first in block",
                     "max last in block", "min tie", "max tie", "peak at the horizon",
                     "all-INF", "NonzeroLagrangian", "NonFinite", "blow-up"}, sorted(kinds)


def test_blow_up_is_found_per_block_without_warnings():
    """The march tests each filled block, not each step: a blown-up row is
    stepped on to the block's end, yet every block size (1, 2, 3, k - 1, k and
    whole, for k nodes), and the one-block histories of integrate and
    running_cost_path, raise the same NonFinite with no RuntimeWarning; so does
    a field that fails on the blown-up row, whose error is the NonFinite's
    cause where it fails mid-block, while a field failing on finite rows keeps
    its own error."""
    def problem(name, f):
        return vk.LagrangianProblem(vk.VectorField(1, f, name=name), vk.zero_lagrangian, 0.0,
                                    vk.abs_obstacle)

    def strict(t, x):  # _BLOW's field, raising its own error on a row that is not finite
        if not np.isfinite(x).all():
            raise ZeroDivisionError("the field got a row that is not finite")
        return 50.0 * x * x

    def picky(t, x):
        if np.any(x > 0.3):
            raise ZeroDivisionError("past 0.3")
        return np.ones_like(x)

    # x' = x^2 from 0.5 passes nodes near 1e162, whose squares overflow in a norm
    cases = [(_BLOW, 0.05), (problem("strict", strict), 0.05),
             (problem("square", lambda t, x: x * x), 0.01)]
    xs = np.array([[-0.5], [0.5]])
    # an error filter turns a warning into an exception; always records it
    for action, (p, h) in itertools.product(("error", "always"), cases):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            k = round(3.0 / h) + 1
            for nodes in (1, 2, 3, k - 1, k, None):
                budget = epi_hj.BLOCK_FLOATS if nodes is None else nodes * len(xs)
                with mock.patch.object(epi_hj, "BLOCK_FLOATS", budget):
                    for mode in ("sup", "inf"):
                        with pytest.raises(vk.NonFinite,
                                           match="^state blew up during tabulate_values$") as e:
                            vk.tabulate_values(p, xs, mode, 3.0, h)
                        if p.field.name == "strict":  # node 2 is inf: the step to node 3 fails
                            assert isinstance(e.value.__cause__, ZeroDivisionError) == \
                                (nodes is None or nodes > 3), nodes
            with pytest.raises(vk.NonFinite, match="^state blew up during integrate$"):
                vk.integrate(p.field, [0.5], 0.0, 3.0, h)
            with pytest.raises(vk.NonFinite, match="^state blew up during tabulate_values$"):
                vk.running_cost_path(p, [0.5], 3.0, h)
        assert caught == [], (action, p.field.name, [str(w.message) for w in caught])
    for nodes in (1, 2, 3, 10, 11):  # 11 nodes: the whole history
        with mock.patch.object(epi_hj, "BLOCK_FLOATS", nodes), \
                pytest.raises(ZeroDivisionError, match="past 0.3"):
            vk.tabulate_values(problem("picky", picky), [[0.0]], "sup", 1.0, 0.1)


def test_tabulate_values_bounds_its_history():
    """In blocks of 10 nodes the traced peak stays below one (k, rows) float
    array, which the whole-history reference exceeds, and every value is
    bitwise the reference's."""
    p = vk.minimal_time_problem(decay, vk.ball([0.0], 0.1))
    xs = np.linspace(-2.0, 2.0, 200)[:, None]
    T, h = 3.0, 0.01
    history = (int(round(T / h)) + 1) * len(xs) * 8

    def traced(tabulate, mode):
        tracemalloc.start()
        try:
            vals = tabulate(p, xs, mode, T, h)
            return vals, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for mode in ("sup", "inf"):
        want, whole_peak = traced(value_reference.tabulate_values, mode)
        with mock.patch.object(epi_hj, "BLOCK_FLOATS", 10 * len(xs)):
            got, peak = traced(vk.tabulate_values, mode)
        assert peak < history < whole_peak
        assert got.tobytes() == want.tobytes()
    assert np.all(got[np.abs(xs[:, 0]) <= 0.1] == 0.0)
    assert np.all(np.isfinite(got) & (got < INF))


def test_epigraph_distance_is_a_lower_bound():
    """The epigraph oracle's distance never exceeds the Euclidean distance to
    {y >= |x|} (a cone of half-angle pi/4) or to {y >= 0}."""

    def cone(z):
        r, y = np.linalg.norm(z[:-1]), z[-1]
        return 0.0 if y >= r else math.hypot(r, y) if y <= -r else (r - y) / math.sqrt(2.0)

    cases = [(vk.abs_obstacle, cone, [[1.0, 0.0], [-2.0, 1.0], [0.5, -2.0], [0.0, 1.0],
                                      [3.0, 4.0, 0.0], [1.0, -1.0, 0.5]]),
             (vk.zero_obstacle, lambda z: max(-z[-1], 0.0), [[1.0, -0.5], [3.0, 4.0, -2.0]])]
    for obstacle, true_distance, points in cases:
        for z in map(np.array, points):
            d = vk.epigraph_oracle(obstacle, len(z) - 1).distance(z)
            assert d <= true_distance(z) + 1e-12, (z, d)
    assert vk.epigraph_oracle(vk.abs_obstacle, 1).distance([1.0, 0.0]) == \
        pytest.approx(1.0 / math.sqrt(2.0))


def test_tabulate_rejects_non_finite_start():
    with pytest.raises(vk.NonFinite):
        vk.tabulate_values(P_SUP, [[0.5], [np.nan]], "sup", 0.0, 1e-2)
    with pytest.raises(vk.NonFinite):
        vk.value_inf(P_INF, [np.inf], 1.0, 1e-2)


# -- the batched HJ residual pass against the per-sample loops it replaced ----


def _hj_case(dim, counts, seed, slab):
    """A value field with an INF slab (x1 > slab) and samples at random,
    on nodes, on cell faces, just off a finite node toward an INF one
    (a corner of weight < 1e-12), near and beyond the grid's edge."""
    rng = np.random.default_rng(seed)
    grid = vk.GridSpec(np.full(dim, -1.0), 1.0 + 0.5 * np.arange(dim), counts[:dim])
    nodes, sp = grid.nodes(), grid.spacing
    vals = rng.uniform(0.0, 2.0, len(nodes)) + np.abs(nodes).sum(axis=1)
    vals[nodes[:, 0] > slab] = INF
    gf = vk.GridFunction(grid, vals)
    a0 = grid.axes()[0]
    edge = nodes[np.isin(nodes[:, 0], a0[:-1][(a0[:-1] <= slab) & (a0[1:] > slab)])]
    lo, hi = grid.lo, grid.hi
    faces = rng.uniform(lo, hi, (6, dim))
    faces[:, 0] = nodes[rng.integers(0, len(nodes), 6), 0]
    X = np.vstack([
        rng.uniform(lo, hi, (12, dim)),
        nodes[rng.integers(0, len(nodes), 6)],
        faces,
        edge[:3] + np.eye(dim)[0] * 1e-13 * sp[0],   # the INF corner weighs < 1e-12
        edge[:3] - np.eye(dim)[0] * 1e-13 * sp[0],
        [lo - 0.5e-9 * sp, hi + 0.5e-9 * sp],         # inside the edge tolerance
        [lo - 2e-9 * sp, hi + 0.3, np.full(dim, -0.0)],
    ])
    return gf, X, edge


@settings(max_examples=20, deadline=None)
@given(dim=st.sampled_from([1, 2]), counts=st.tuples(st.integers(2, 9), st.integers(2, 7)),
       seed=st.integers(0, 2 ** 32 - 1), slab=st.floats(-0.5, 0.9),
       discount=st.sampled_from([0.0, 0.35]) | st.floats(0.0, 0.6),
       lag=st.sampled_from(["zero", "unit", "speed"]), indicator=st.booleans(),
       tol=st.sampled_from([0.05, 0.5]), comp_tol=st.sampled_from([None, 0.0, 0.3]))
def test_batched_hj_pass_matches_per_sample_loop(dim, counts, seed, slab, discount, lag,
                                                 indicator, tol, comp_tol):
    """interp_many, the epiderivatives and both HJ reports == the scalar loops,
    bit for bit (NaN where NaN), violations in the same order."""
    gf, X, edge = _hj_case(dim, counts, seed, slab)
    assert len(edge)
    ref_v = np.array([hj_reference.interp(gf, x) for x in X])
    assert gf.interp_many(X).tobytes() == ref_v.tobytes()
    assert np.array([gf.interp(x) for x in X]).tobytes() == ref_v.tobytes()
    assert (ref_v >= INF).any() and (ref_v < INF).any()
    V = np.random.default_rng(seed + 1).normal(size=X.shape)
    V[::5] = 0.0
    V[1::5, 0] = -0.0
    ref_d = np.array([hj_reference.epiderivative(gf, x, v) for x, v in zip(X, V)])
    assert _epiderivatives(gf, X, V)[1].tobytes() == ref_d.tobytes()
    assert np.array([vk.epiderivative(gf, x, v) for x, v in zip(X, V)]).tobytes() == \
        ref_d.tobytes()
    A = np.random.default_rng(seed + 2).normal(size=(dim, dim))
    obstacle = vk.indicator_obstacle(vk.ball(np.zeros(dim), 0.6)) if indicator \
        else vk.abs_obstacle
    lagrangian = {"zero": vk.zero_lagrangian, "unit": vk.unit_lagrangian,
                  "speed": vk.speed_lagrangian}[lag]
    p = vk.LagrangianProblem(vk.linear_field(A), lagrangian, discount, obstacle)
    for check, ref in ((vk.hj_check_sup, hj_reference.hj_check_sup),
                       (vk.hj_check_inf, hj_reference.hj_check_inf)):
        got = check(p, gf, X, tol=tol, comp_tol=comp_tol)
        assert hj_reference.same_report(got, ref(p, gf, X, tol=tol, comp_tol=comp_tol))


def test_interp_skips_inf_corner_of_tiny_weight():
    """A point 1e-13 cells off a finite node toward an INF node reads the
    finite node; a point beyond the edge tolerance reads INF."""
    gf = vk.GridFunction(vk.GridSpec([0.0], [1.0], [4]), [1.0, 2.0, 3.0, INF, INF])
    x = np.array([[0.5 + 1e-13 * 0.25], [0.5 + 1e-6], [1.0 + 0.5e-9 * 0.25], [1.0 + 1e-6]])
    got = gf.interp_many(x)
    assert got[0] == 3.0 and got[1] >= INF and got[2] >= INF and got[3] >= INF
    gf = vk.GridFunction(vk.GridSpec([0.0], [1.0], [4]), [1.0, 2.0, 3.0, 4.0, 5.0])
    assert gf.interp_many([[1.0 + 0.5e-9 * 0.25], [1.0 + 1e-6], [-1e-6]]).tolist() == \
        [5.0, INF, INF]
