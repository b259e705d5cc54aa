import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import cloud_reference
import residual_reference
import trace_reference
import viakit as vk
from viakit import characteristics
from viakit.characteristics import GraphCloud
from viakit.common import INF
from viakit.kernels import lattice_points

one = vk.transport_field([1.0])
halfline = vk.box([0.0], [np.inf])

RHO, SIGMA, BETA, B, R2 = 1.0, 0.5, 0.3, 2.0, math.e
PHI4 = vk.demographic_field(RHO, SIGMA, BETA, B)
K4 = vk.product(vk.box([0.0], [np.inf]), vk.box([0.0], [R2]),
                vk.box([0.0], [np.inf]), vk.box([0.0], [B]))


def _u0_4(X):
    return np.sin(X[:, :1]) + 0.5 * X[:, 1:2] + 0.2 * X[:, 2:3] * X[:, 3:]


def _v1(S, Z):  # Z = (x2, x3, x4)
    return np.cos(S) + 0.1 * Z[:, :1] + 0.05 * Z[:, 1:2] * Z[:, 2:]


def _vr2(S, Z):  # Z = (x1, x3, x4)
    return 0.3 * S + 0.2 * Z[:, :1] + 0.1 * Z[:, 1:2] - 0.05 * Z[:, 2:]


def _vgamma4(S, X):
    return np.where(X[:, :1] <= 1e-6, _v1(S, X[:, 1:]), _vr2(S, X[:, [0, 2, 3]]))


def _demo_oracle(A=0.4):
    return vk.demo4d(RHO, SIGMA, BETA, B, R2, A, _u0_4, _v1, _vr2)


def _demo_problem(A=0.4):
    data = vk.BoundaryData(_u0_4, _vgamma4)
    return vk.CharProblem(lambda t, x, y: -A * y, K4, data, 1, phi=PHI4)


def _transport_problem(g=None, v=None):
    u0 = lambda X: np.sin(X[:, :1])
    vb = v if v is not None else (lambda S, X: np.cos(3.0 * S))
    data = vk.BoundaryData(u0, vb)
    gg = g if g is not None else (lambda t, x, y: np.zeros_like(y))
    return vk.CharProblem(gg, halfline, data, 1, phi=one)


# -- backward exit times and exitors ----------------------------------------


def test_backward_exit_time_4d_formula():
    tau = vk.backward_exit_time(PHI4, K4, 5.0, [2.0, 1.0, 1.0, 1.0], 1e-3)
    assert tau == pytest.approx(1.0, abs=1e-6)  # min(5, x1=2, log(e/1)=1)


def test_backward_exit_time_zero_cap():
    assert vk.backward_exit_time(PHI4, K4, 0.0, [2.0, 1.0, 1.0, 1.0], 1e-3) == 0.0


def test_backward_exit_time_invariant_axes():
    # the x3 and x4 coordinates alone never exit backward
    f3 = vk.VectorField(1, lambda t, x: SIGMA * x)
    assert vk.exit_time(f3.negated(), vk.box([0.0], [np.inf]), [1.0], 50.0, 1e-2) >= INF
    f4 = vk.VectorField(1, lambda t, x: BETA * (B - x) * x)
    assert vk.exit_time(f4.negated(), vk.box([0.0], [B]), [1.0], 50.0, 1e-2) >= INF


def test_exitor_transport_initial_regime():
    s, c = vk.exitor(one, halfline, 3.0, [5.0], 1e-3)
    assert s == 0.0
    assert c[0] == pytest.approx(2.0, abs=1e-9)


def test_exitor_transport_boundary_regime():
    s, c = vk.exitor(one, halfline, 5.0, [2.0], 1e-3)
    assert s == pytest.approx(3.0, abs=1e-6)
    assert abs(c[0]) <= 1e-6


def test_exitor_4d_regime_one_matches_closed_form():
    oracle = _demo_oracle()
    t, x = 0.5, np.array([2.0, 1.0, 1.0, 1.0])
    s_ref, c_ref = oracle.exitor(t, x)
    s, c = vk.exitor(PHI4, K4, t, x, 1e-3)
    assert s == pytest.approx(s_ref, abs=1e-8)
    assert_allclose(c, c_ref, atol=1e-8)
    # spelled out: (0, x1 - t, e^{rho t} x2, e^{-sigma t} x3, logistic backtrack)
    assert s_ref == 0.0
    assert_allclose(c_ref, [1.5, math.exp(RHO * 0.5), math.exp(-SIGMA * 0.5),
                            B / (1 + (B / 1.0 - 1) * math.exp(BETA * B * 0.5))])


def test_exitor_4d_regime_three_matches_backward_flow():
    oracle = _demo_oracle()
    t, x = 3.0, np.array([2.5, 2.0, 1.3, 0.9])
    assert oracle.regime(t, x) == 3
    tau2 = math.log(R2 / x[1]) / RHO
    s, c = oracle.exitor(t, x)
    assert s == pytest.approx(t - tau2)
    # closed form: exit through the x2 = r2 face
    assert_allclose(c, [x[0] - tau2, R2,
                        (x[1] / R2) ** (SIGMA / RHO) * x[2],
                        B / (1 + (B / x[3] - 1) * (R2 / x[1]) ** (BETA * B / RHO))],
                    atol=1e-12)
    # and it agrees with the numerically reversed characteristic flow
    assert_allclose(c, vk.flow(PHI4, -tau2, x, 1e-4), atol=1e-9)


def test_product_exit_time_min_rule():
    fields = [one, vk.transport_field([1.0]), vk.VectorField(1, lambda t, x: SIGMA * x)]
    sets = [vk.box([0.0], [np.inf])] * 3
    # backward exits: 0.7, 2.0, never
    tau = vk.product_exit_time(fields, sets, [0.7, 2.0, 1.0], 1e-2, t_scan=10.0)
    assert tau == pytest.approx(0.7, abs=1e-6)


def test_product_exit_time_matches_oracle():
    fields = [vk.transport_field([1.0]),
              vk.VectorField(1, lambda t, x: -RHO * x),
              vk.VectorField(1, lambda t, x: SIGMA * x),
              vk.VectorField(1, lambda t, x: BETA * (B - x) * x)]
    sets = [vk.box([0.0], [np.inf]), vk.box([0.0], [R2]),
            vk.box([0.0], [np.inf]), vk.box([0.0], [B])]
    x = np.array([2.0, 1.0, 1.0, 1.0])
    tau = vk.product_exit_time(fields, sets, x, 1e-2, t_scan=20.0)
    assert tau == pytest.approx(min(x[0], math.log(R2 / x[1]) / RHO), abs=1e-6)
    whole = vk.exit_time(PHI4.negated(), K4, x, 20.0, 1e-2)
    assert tau == pytest.approx(whole, abs=1e-6)


def test_product_exit_time_all_infinite():
    fields = [vk.VectorField(1, lambda t, x: SIGMA * x)]
    sets = [vk.box([0.0], [np.inf])]
    assert vk.product_exit_time(fields, sets, [1.0], 1e-2, t_scan=20.0) >= INF


# -- boundary traces ----------------------------------------------------------


def test_boundary_trace_initial():
    data = vk.BoundaryData(lambda X: np.full((len(X), 1), 7.0), lambda S, X: S)
    assert_allclose(vk.boundary_trace(data, 0.0, [3.0], halfline), [7.0])


def test_boundary_trace_boundary():
    data = vk.BoundaryData(lambda X: np.full((len(X), 1), 7.0), lambda S, X: S)
    assert_allclose(vk.boundary_trace(data, 2.0, [0.0], halfline), [2.0])
    assert vk.boundary_trace(data, 2.0, [0.5], halfline) is None  # interior


def test_boundary_trace_impulses():
    data = vk.BoundaryData(lambda X: np.full((len(X), 1), 7.0), lambda S, X: S,
                           impulse_times=(0.0, 1.0, 3.0))
    assert vk.boundary_trace(data, 2.0, [0.0], halfline) is None
    out = vk.boundary_trace(data, 1.0 + 1e-12, [0.0], halfline, s_tol=1e-9)
    assert_allclose(out, [1.0])  # snapped to the impulse time


_corner = vk.product(vk.box([0.0], [np.inf]), vk.box([0.0], [2.0]))


def _trace_many(data, S, C, K, s_tol=1e-9, x_tol=1e-6):
    """The batched manifold test and read on the feet (S, C): (values, reached)."""
    initial, bnd, times = characteristics._manifold(data, S, C, K, s_tol, x_tol)
    return characteristics._read(data, C, initial, bnd, times), initial | bnd


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), h=st.sampled_from([1e-9, 0.05, 0.25]),
       impulses=st.sampled_from([None, (0.0, 1.0, 3.0), (0.5, 1.0, 1.5, 2.0)]),
       with_boundary=st.booleans())
def test_batched_manifold_read_matches_per_row_reference(seed, h, impulses, with_boundary):
    """The batched manifold read gives each foot the per-row trace's datum bit
    for bit: s = 0 corners, impulse snapping and ties, feet between slices,
    in the interior, and off K within and beyond x_tol."""
    rng = np.random.default_rng(seed)
    data = vk.BoundaryData(lambda X: np.sin(X[:, :1]) + 0.3 * X[:, 1:] ** 2,
                           (lambda S, X: np.cos(3.0 * S) + X[:, :1] - 0.5 * X[:, 1:])
                           if with_boundary else None, impulses)
    faces = np.array([[0.0, 0.0], [0.0, 2.0], [0.0, 1.3], [0.7, 2.0], [1.1, 0.0]])
    m = 60
    C = faces[rng.integers(0, len(faces), m)] + \
        rng.choice([0.0, 3e-7, -3e-7, 2e-6, 0.4], (m, 2)) * rng.choice([0.0, 1.0], (m, 2))
    C[-10:] = rng.uniform(0.1, 1.9, (10, 2))  # interior feet
    S = rng.choice([0.0, 0.5 * h, 2.0 * h, 0.3, 1.0, 1.25, 1.75, 2.0 + 0.9 * h, 3.0 - h], m)
    values, reached = _trace_many(data, S, C, _corner, s_tol=h, x_tol=1e-6)
    assert values.shape == (m, 1)
    for i in range(m):
        want = trace_reference.boundary_trace(data, S[i], C[i], _corner, s_tol=h, x_tol=1e-6)
        one = vk.boundary_trace(data, S[i], C[i], _corner, s_tol=h, x_tol=1e-6)
        if want is None:
            assert not reached[i] and np.isnan(values[i]).all() and one is None
        else:
            assert reached[i] and values[i].tobytes() == want.tobytes() == one.tobytes()


def test_batched_manifold_read_calls_each_datum_once_on_its_rows():
    calls = []

    def initial(X):
        calls.append(("initial", len(X)))
        return X[:, :1]

    def boundary(S, X):
        calls.append(("boundary", len(X)))
        return S

    data = vk.BoundaryData(initial, boundary, impulse_times=(1.0, 2.0))
    S = np.array([0.0, 1.0, 1.5, 2.0, 0.0])
    C = np.array([[0.5], [0.0], [0.0], [0.0], [0.0]])
    values, reached = _trace_many(data, S, C, halfline)
    assert calls == [("initial", 2), ("boundary", 2)]
    assert reached.tolist() == [True, True, False, True, True]
    assert_allclose(values[reached, 0], [0.5, 1.0, 2.0, 0.0])


# -- single-valued solver ------------------------------------------------------


def test_solve_char_transport_exact():
    prob = _transport_problem()
    h = 1e-2  # RK4 is exact for constant speed; accuracy set by the bisection
    ts, xs = (a.ravel() for a in np.meshgrid(np.linspace(0.1, 3.0, 10),
                                             np.linspace(0.1, 5.0, 20), indexing="ij"))
    got, reached = vk.solve_char_many(prob, ts, xs[:, None], h)
    exact = np.where(ts <= xs, np.sin(xs - ts), np.cos(3.0 * (ts - xs)))
    assert reached.all() and np.max(np.abs(got[:, 0] - exact)) <= 1e-6
    # the one-row lift, with feet on the initial line (t < x) and on the boundary (t > x)
    below, above = np.flatnonzero(ts < xs), np.flatnonzero(ts > xs)
    for i in np.concatenate([below[[0, len(below) // 2, -1]], above[[0, len(above) // 2, -1]]]):
        assert np.array_equal(vk.solve_char(prob, float(ts[i]), [float(xs[i])], h), got[i])


def test_solve_char_scalar_decay():
    lam = 0.7
    prob = _transport_problem(g=lambda t, x, y: -lam * y)
    u = vk.solve_char(prob, 0.8, [2.0], 1e-3)
    assert u[0] == pytest.approx(math.exp(-lam * 0.8) * math.sin(2.0 - 0.8), abs=1e-6)


def test_solve_char_4d_regime_one():
    oracle = _demo_oracle()
    prob = _demo_problem()
    t, x = 0.5, np.array([2.0, 1.0, 1.0, 1.0])
    assert oracle.regime(t, x) == 1
    u = vk.solve_char(prob, t, x, 1e-3)
    assert abs(u[0] - oracle(t, x)[0]) <= 1e-5


def test_solve_char_none_between_impulses():
    u0 = lambda X: np.ones((len(X), 1))
    v = lambda S, X: 10.0 + S
    data = vk.BoundaryData(u0, v, impulse_times=(0.0, 1.0, 3.0))
    prob = vk.CharProblem(lambda t, x, y: np.zeros_like(y), halfline, data, 1, phi=one)
    # foot lands on the boundary at s = 2.0, which is not an impulse time
    assert vk.solve_char(prob, 4.0, [2.0], 1e-3) is None
    # landing on the s = 1.0 impulse slice carries its datum
    assert_allclose(vk.solve_char(prob, 3.0, [2.0], 1e-3), [11.0])


# -- batched solver ------------------------------------------------------------


def _pointwise_solve_char(prob, t, x, h):
    """Reference: the per-point solver the batched one replaced, step for step."""
    return trace_reference.solve_char(prob, t, x, h)


def _assert_matches_pointwise(prob, ts, xs, h):
    got, reached = vk.solve_char_many(prob, ts, xs, h)
    assert got.shape == (len(ts), prob.out_dim)
    for i, (t, x) in enumerate(zip(ts, xs)):
        want = _pointwise_solve_char(prob, float(t), x, h)
        one = vk.solve_char(prob, float(t), x, h)
        if want is None:
            assert not reached[i] and np.all(np.isnan(got[i])) and one is None
        else:
            assert reached[i]
            assert np.array_equal(got[i], want) and np.array_equal(one, want)
    return reached


_coord = st.floats(0.0, 3.0, allow_nan=False, allow_infinity=False)
_steps = st.sampled_from([0.1, 0.07, 0.03])


def _with_special_rows(pts, h, v):
    """pts plus a t = 0 row, a corner row (exit exactly at t) and a row whose
    exit falls in the shorter tail step of its horizon."""
    ts = [p[0] for p in pts] + [0.0, 1.0, 7.5 * h]
    xs = [[p[1]] for p in pts] + [[0.7], [v * 1.0], [v * 7.25 * h]]
    return np.array(ts), np.array(xs)


@settings(max_examples=25, deadline=None)
@given(v=st.floats(0.5, 1.5), lam=st.floats(0.0, 2.0), h=_steps,
       pts=st.lists(st.tuples(_coord, _coord), min_size=1, max_size=8))
def test_solve_char_many_matches_pointwise_transport(v, lam, h, pts):
    # time-dependent decay, so the forward march's per-row stage times count
    data = vk.BoundaryData(lambda X: np.sin(2.0 * X[:, :1]),
                           lambda S, X: 0.5 * S - 0.2)
    prob = vk.CharProblem(lambda t, x, y: -lam * y * (1.0 + 0.5 * t), halfline, data, 1,
                          phi=vk.transport_field([v]))
    ts, xs = _with_special_rows(pts, h, v)
    _assert_matches_pointwise(prob, ts, xs, h)


@settings(max_examples=25, deadline=None)
@given(h=_steps, pts=st.lists(st.tuples(_coord, _coord), min_size=1, max_size=8))
def test_solve_char_many_matches_pointwise_impulses(h, pts):
    data = vk.BoundaryData(lambda X: 1.0 + X[:, :1],
                           lambda S, X: 10.0 + S,
                           impulse_times=(0.5, 1.0, 2.0))
    prob = vk.CharProblem(lambda t, x, y: np.zeros_like(y), halfline, data, 1, phi=one)
    ts, xs = _with_special_rows(pts, h, 1.0)
    # feet on the s = 1.0 slice and between slices (s = 1.5)
    ts = np.concatenate([ts, [2.0, 2.5]])
    xs = np.concatenate([xs, [[1.0], [1.0]]])
    reached = _assert_matches_pointwise(prob, ts, xs, h)
    assert reached[-2] and not reached[-1]


@settings(max_examples=10, deadline=None)
@given(A=st.floats(0.0, 1.0), h=st.sampled_from([0.1, 0.05]),
       pts=st.lists(st.tuples(st.floats(0.0, 2.5), st.floats(0.0, 3.0),
                              st.floats(0.05, R2), st.floats(0.1, 1.9)),
                    min_size=1, max_size=6))
def test_solve_char_many_matches_pointwise_demo4d(A, h, pts):
    oracle = _demo_oracle(A)
    # one point of each regime, plus a t = 0 row
    rows = [(0.5, 2.0, 1.0, 1.0), (3.0, 0.4, 1.0, 1.0), (3.0, 2.5, 2.5, 0.8),
            (0.0, 1.0, 1.0, 1.0)]
    rows += [(t, x1, x2, x4) for t, x1, x2, x4 in pts]
    ts = np.array([r[0] for r in rows])
    xs = np.array([[x1, x2, 0.7, x4] for _, x1, x2, x4 in rows])
    assert [oracle.regime(t, x) for t, x in zip(ts[:3], xs[:3])] == [1, 2, 3]
    reached = _assert_matches_pointwise(_demo_problem(A), ts, xs, h)
    assert reached.all()


def test_solve_char_many_blowup_raises():
    # y' = y^2 from u0 = 1 blows up at time 1 along every characteristic
    data = vk.BoundaryData(lambda X: np.ones((len(X), 1)))
    prob = vk.CharProblem(lambda t, x, y: y * y, halfline, data, 1, phi=one)
    ts, xs = np.array([0.5, 2.0]), np.array([[5.0], [5.0]])
    with pytest.raises(vk.NonFinite):
        vk.solve_char_many(prob, ts, xs, 1e-2)
    got, reached = vk.solve_char_many(prob, ts[:1], xs[:1], 1e-2)
    assert reached[0] and got[0, 0] == pytest.approx(2.0, abs=1e-6)


# -- demo4d closed forms -------------------------------------------------------


def test_demo4d_regime_selector():
    oracle = _demo_oracle()
    assert oracle.regime(0.5, [2.0, 1.0, 1.0, 1.0]) == 1   # t smallest
    assert oracle.regime(3.0, [0.4, 1.0, 1.0, 1.0]) == 2   # x1 smallest
    assert oracle.regime(3.0, [2.5, 2.5, 1.0, 1.0]) == 3   # log(r2/x2)/rho smallest


def test_demo4d_logistic_backtrack():
    oracle = _demo_oracle()
    tau = 0.8
    c = oracle.backtrack([1.0, 1.0, 1.0, 0.5], tau)
    assert c[3] == pytest.approx(B / (1 + (B / 0.5 - 1) * math.exp(BETA * B * tau)))
    # backtrack then flow forward restores the point
    fwd = vk.flow(PHI4, tau, c, 1e-4)
    assert_allclose(fwd, [1.0, 1.0, 1.0, 0.5], atol=1e-9)


def test_demo4d_zero_decay_is_pure_composition():
    oracle = _demo_oracle(A=0.0)
    t, x = 0.5, np.array([2.0, 1.0, 1.0, 1.0])
    s, c = oracle.exitor(t, x)
    assert_allclose(oracle(t, x), _u0_4(c[None, :])[0])


def test_demo4d_param_domain():
    oracle = _demo_oracle()
    with pytest.raises(vk.ParamDomain):
        oracle(1.0, [1.0, 0.0, 1.0, 1.0])       # x2 = 0
    with pytest.raises(vk.ParamDomain):
        oracle(1.0, [1.0, 1.0, 1.0, B])         # x4 = b
    with pytest.raises(vk.ParamDomain):
        oracle(1.0, [1.0, 3.0, 1.0, 1.0])       # x2 > r2


@settings(max_examples=20, deadline=None)
@given(A=st.sampled_from([0.0, 0.4, "callable"]), seed=st.integers(0, 2 ** 32 - 1))
def test_demo4d_solve_many_matches_per_row_closed_form(A, seed):
    """The batched closed form and its one-row lifts give each row the per-row
    closed form's bits, in every regime, with constant and callable decay."""
    if A == "callable":
        A = lambda tau, states: 0.3 + 0.1 * np.sin(tau[:, 0]) * states[:, 3]
    oracle = _demo_oracle(A)
    rng = np.random.default_rng(seed)
    m = 30
    ts = np.concatenate([[0.5, 3.0, 3.0, 0.0], rng.uniform(0.0, 3.0, m)])
    xs = np.concatenate([[[2.0, 1.0, 1.0, 1.0], [0.4, 1.0, 1.0, 1.0], [2.5, 2.5, 1.0, 0.8],
                          [1.0, 1.0, 1.0, 1.0]],
                         np.column_stack([rng.uniform(0.0, 3.0, m), rng.uniform(0.05, R2, m),
                                          rng.uniform(0.1, 2.0, m), rng.uniform(0.1, 1.9, m)])])
    got = oracle.solve_many(ts, xs)
    assert sorted({oracle.regime(t, x) for t, x in zip(ts[:3], xs[:3])}) == [1, 2, 3]
    for t, x, u in zip(ts, xs, got):
        want = trace_reference.demo4d_value(oracle, float(t), x)
        assert u.tobytes() == want.tobytes() == oracle(float(t), x).tobytes()


def test_demo4d_param_domain_names_the_first_bad_row():
    oracle = _demo_oracle()
    good = [1.0, 1.0, 1.0, 1.0]
    with pytest.raises(vk.ParamDomain, match=r"^x2 = 0\.0 outside \(0, r2\]$"):
        oracle.solve_many([1.0, 1.0, 1.0], [good, [1.0, 0.0, 1.0, B], [1.0, 1.0, 1.0, B]])
    with pytest.raises(vk.ParamDomain, match=r"^x4 = 2\.0 outside \(0, b\)$"):
        oracle.solve_many([1.0, 1.0, 1.0], [good, [1.0, 1.0, 1.0, B], [1.0, 0.0, 1.0, 1.0]])
    with pytest.raises(vk.ParamDomain, match="state must be 4-dimensional"):
        oracle.solve_many([1.0], [[1.0, 1.0, 1.0]])


def test_demo4d_callable_decay_matches_constant():
    const = _demo_oracle(A=0.4)
    fn = _demo_oracle(A=lambda tau, states: np.full(len(states), 0.4))
    t, x = 1.2, np.array([2.0, 1.5, 0.7, 1.2])
    assert const(t, x)[0] == pytest.approx(fn(t, x)[0], abs=1e-10)


def test_demo4d_oracle_agreement_all_regimes():
    oracle = _demo_oracle()
    prob = _demo_problem()
    count = {1: 0, 2: 0, 3: 0}
    worst = 0.0
    for t in (0.3, 1.0, 2.2):
        for x1 in (0.2, 1.1, 3.0):
            for x2 in (0.4, 1.6, 2.6):
                x = np.array([x1, x2, 0.7, 1.2])
                count[oracle.regime(t, x)] += 1
                diff = abs(vk.solve_char(prob, t, x, 1e-3)[0] - oracle(t, x)[0])
                worst = max(worst, diff)
    assert min(count.values()) > 0
    assert worst <= 1e-4


# -- set-valued graphs ---------------------------------------------------------


def _shock_problem():
    data = vk.BoundaryData(lambda X: -X[:, :1])
    return vk.CharProblem(lambda t, x, y: np.zeros_like(y), vk.whole_space(1),
                          data, 1, f=lambda t, x, y: y)


def test_graph_sample_shock_clusters():
    cloud = vk.graph_sample(_shock_problem(), 1.2, 0.01, 41, [-1.0], [1.0])
    ys = vk.query_graph(cloud, 1.0, [0.0], 0.02)
    assert len(ys) >= 3


def test_graph_sample_y_independent_single_fiber():
    prob = _transport_problem()
    cloud = vk.graph_sample(prob, 1.0, 0.01, 41, [0.0], [4.0],
                            boundary_points=[[0.0]])
    ys = vk.query_graph(cloud, 0.5, [2.0], 0.02)
    u = vk.solve_char(prob, 0.5, [2.0], 0.01)
    assert len(ys) == 1
    assert abs(ys[0][0] - u[0]) <= 2 * cloud.tol


def test_graph_sample_zero_horizon_is_seeds():
    cloud = vk.graph_sample(_shock_problem(), 0.0, 0.01, 11, [-1.0], [1.0])
    assert np.array_equal(cloud.points, cloud.seeds)
    assert np.all(cloud.times == 0.0)


def test_query_graph_empty_neighborhood():
    cloud = vk.graph_sample(_shock_problem(), 1.0, 0.01, 11, [-1.0], [1.0])
    assert vk.query_graph(cloud, 0.5, [50.0], 0.02) == []


@settings(max_examples=150, deadline=None)
@given(out_dim=st.integers(1, 2), count=st.integers(1, 10), tol=st.sampled_from([0.5, 0.1, 1 / 3]),
       gap=st.sampled_from([0.5, 1.0, 1.5]), seed=st.integers(0, 2 ** 32 - 1),
       noise=st.sampled_from([0.0, 1e-17, 0.1]), far=st.booleans())
def test_query_graph_matches_union_find(out_dim, count, tol, gap, seed, noise, far):
    """Connected components give the union-find clusters bit for bit: the same
    groups, the same rows in each mean in the same order, and the same cluster
    order, with outputs spaced at exactly the merge radius, off it, with noise
    that makes each mean depend on its summation order, and with no point in
    the window."""
    rng = np.random.default_rng(seed)
    ys = lattice_points([tol * gap * np.arange(count)] * out_dim)
    ys = ys[rng.permutation(len(ys))][: max(1, len(ys) - int(rng.integers(0, 3)))]
    ys = ys + noise * tol * rng.uniform(-1.0, 1.0, ys.shape)
    m = len(ys)
    points = np.column_stack([rng.choice([1.0, 1.005, 1.02], m),
                              rng.choice([-0.01, 0.0, 0.03], m), ys])
    cloud = GraphCloud(points, 1, out_dim, tol, tol, np.zeros(m, dtype=int), points[:1])
    x = [5.0] if far else [0.0]
    got = vk.query_graph(cloud, 1.0, x, 0.01)
    want = cloud_reference.query_graph(cloud, 1.0, x, 0.01)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def test_query_graph_transport_value():
    prob = _transport_problem()
    cloud = vk.graph_sample(prob, 1.0, 0.01, 81, [0.0], [4.0])
    ys = vk.query_graph(cloud, 0.5, [2.0], 0.02)
    assert len(ys) == 1
    assert abs(ys[0][0] - math.sin(1.5)) <= 2 * cloud.tol


def test_frankowska_residual_transport():
    prob = _transport_problem()
    cloud = vk.graph_sample(prob, 1.0, 0.01, 41, [0.0], [4.0])
    rep = vk.frankowska_residual(cloud, prob, 100)
    assert rep.max_forward <= 5 * cloud.step
    assert rep.max_backward <= 5 * cloud.step


def test_frankowska_residual_psi_face_exemption():
    prob = _transport_problem()
    cloud = vk.graph_sample(prob, 1.0, 0.01, 41, [0.0], [4.0])
    # force samples right at the initial slice: backward leg must be exempt
    rep = vk.frankowska_residual(cloud, prob, 20, interior_margin=0.0)
    on_face = np.isnan(rep.backward)
    assert on_face.any()
    assert np.all(np.isfinite(rep.forward))


def test_frankowska_residual_corrupted_cloud():
    prob = _shock_problem()
    cloud = vk.graph_sample(prob, 1.2, 0.01, 41, [-1.0], [1.0])
    pts = cloud.points.copy()
    rng = np.random.default_rng(0)
    pts[:, -1] += 0.2 * rng.standard_normal(len(pts))
    bad = vk.GraphCloud(pts, 1, 1, cloud.tol, cloud.step,
                        cloud.seed_index, cloud.seeds)
    rep = vk.frankowska_residual(bad, prob, 50)
    assert rep.max_forward > 10 * 5 * cloud.step


def _same_report(got, want):
    for a, b in zip(vars(got).values(), vars(want).values()):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("margin", [None, 0.0])
def test_frankowska_residual_matches_per_sample_loop(margin):
    clouds = [(_transport_problem(), vk.graph_sample(_transport_problem(), 1.0, 0.01, 41,
                                                     [0.0], [4.0])),
              (_shock_problem(), vk.graph_sample(_shock_problem(), 1.2, 0.01, 41, [-1.0], [1.0]))]
    for prob, cloud in clouds:
        for n in (20, 100, 1000):
            _same_report(vk.frankowska_residual(cloud, prob, n, interior_margin=margin),
                         residual_reference.frankowska_residual(cloud, prob, n,
                                                                interior_margin=margin))


def test_frankowska_residual_impulse_slice_matches_per_sample_loop():
    data = vk.BoundaryData(lambda X: np.zeros((len(X), 1)), lambda S, X: S,
                           impulse_times=(0.5, 1.0))
    prob = vk.CharProblem(lambda t, x, y: np.zeros_like(y), halfline, data, 1, phi=one)
    cloud = vk.graph_sample(prob, 2.0, 0.01, 5, [0.0], [2.0], boundary_points=[[0.0]])
    rep = vk.frankowska_residual(cloud, prob, len(cloud), interior_margin=0.0)
    on_slice = np.isnan(rep.backward) & (cloud.times[rep.indices] > 0.0)
    assert on_slice.any() and not np.isnan(rep.backward).all()
    _same_report(rep, residual_reference.frankowska_residual(cloud, prob, len(cloud),
                                                             interior_margin=0.0))


def test_empty_cloud_checks_raise():
    # no seed of the window [-1, 1] lies in K, so graph_sample gives an empty cloud
    prob = vk.CharProblem(lambda t, x, y: np.zeros_like(y), vk.box([5.0], [6.0]),
                          vk.BoundaryData(lambda X: -X[:, :1]), 1, f=lambda t, x, y: y)
    cloud = vk.graph_sample(prob, 1.0, 0.01, 11, [-1.0], [1.0])
    assert len(cloud) == 0
    with pytest.raises(ValueError, match="cloud is empty"):
        vk.replay_check(cloud, prob)
    with pytest.raises(ValueError, match="cloud is empty"):
        vk.frankowska_residual(cloud, prob, 10)


def test_graph_capture_crosscheck_transport():
    # the forward sweep and a gridded backward capture basin describe the
    # same graph (1+1-D sanity route; the sweep is the scalable one)
    prob = _transport_problem()
    cloud = vk.graph_sample(prob, 1.0, 0.02, 41, [0.0], [3.0],
                            boundary_points=[[0.0]])
    grid = vk.GridSpec([0.0, 0.0, -1.1], [1.0, 3.0, 1.1], [12, 24, 24])
    eps = 1.5 * grid.cell_diagonal
    chk = vk.graph_capture_crosscheck(prob, cloud, grid, 0.05, eps=eps)
    assert chk.cloud_in_basin == 1.0
    assert chk.basin_to_cloud <= 2.0 * eps


def test_graph_capture_crosscheck_rejects_high_dim():
    prob = _demo_problem()
    cloud = vk.GraphCloud(np.zeros((1, 6)), 4, 1, 0.01, 0.01,
                          np.zeros(1, dtype=int), np.zeros((1, 6)))
    with pytest.raises(ValueError):
        vk.graph_capture_crosscheck(prob, cloud,
                                    vk.GridSpec([0.0], [1.0], [4]), 0.05)


def test_replay_check_consistency():
    prob = _shock_problem()
    cloud = vk.graph_sample(prob, 1.2, 0.01, 41, [-1.0], [1.0])
    assert vk.replay_check(cloud, prob, fraction=0.02) <= 1e-9


def test_time_dependent_characteristics():
    # x' = 1, y' = -t y from u0 = 1: y(t) = exp(-t^2 / 2) on every characteristic
    data = vk.BoundaryData(lambda X: np.ones((len(X), 1)))
    prob = vk.CharProblem(lambda t, x, y: -t * y, vk.whole_space(1), data, 1, phi=one)
    want = math.exp(-0.5)
    assert abs(vk.solve_char(prob, 1.0, [0.3], 0.01)[0] - want) <= 1e-8
    cloud = vk.graph_sample(prob, 1.0, 0.01, 11, [-1.0], [1.0])
    last = np.abs(cloud.times - 1.0) <= 1e-9
    assert np.count_nonzero(last) == 11
    assert_allclose(cloud.states[last, 0], np.linspace(-1.0, 1.0, 11) + 1.0, atol=1e-12)
    assert_allclose(cloud.outputs[last, 0], want, rtol=0.0, atol=1e-8)
    # the sweep and the replay step by one rule: the replay is exact
    assert vk.replay_check(cloud, prob, fraction=1.0) == 0.0


def test_graph_sample_impulse_slices():
    u0 = lambda X: np.zeros((len(X), 1))
    v = lambda S, X: S
    data = vk.BoundaryData(u0, v, impulse_times=(0.5, 1.0))
    prob = vk.CharProblem(lambda t, x, y: np.zeros_like(y), halfline, data, 1, phi=one)
    cloud = vk.graph_sample(prob, 2.0, 0.01, 5, [0.0], [2.0],
                            boundary_points=[[0.0]])
    seed_times = sorted(set(np.round(cloud.seeds[:, 0], 12)))
    assert seed_times == [0.0, 0.5, 1.0]


def test_graph_sample_lists_each_step_in_seed_order():
    # boundary seeds start late, xi-major and s-minor, so their step counts are
    # not sorted; the stepping core orders rows by step count, and the cloud
    # must still list the points step by step, each step in seed order
    K = vk.box([0.0, -np.inf], [np.inf, np.inf])
    data = vk.BoundaryData(lambda X: np.sin(X[:, :1]), lambda S, X: 0.3 * S + X[:, 1:])
    prob = vk.CharProblem(lambda t, x, y: -0.5 * y, K, data, 1,
                          phi=vk.transport_field([1.0, 0.0]))
    T, h = 1.2, 0.01   # the boundary seeds start at 0.4, 0.8 and 1.2: no tails
    cloud = vk.graph_sample(prob, T, h, 4, [0.0, 0.0], [2.0, 2.0],
                            boundary_points=[[0.0, 0.5], [0.0, 1.5]])
    steps = vk.dynamics._schedule(cloud.seeds[:, 0], T, h)[2]
    assert list(steps[-6:]) == [80, 40, 0, 80, 40, 0]
    assert len(cloud) == len(cloud.seeds) + steps.sum()   # no point was merged
    seen = np.zeros(len(cloud.seeds), dtype=int)
    step_of = np.empty(len(cloud), dtype=int)
    for i, s in enumerate(cloud.seed_index):
        step_of[i], seen[s] = seen[s], seen[s] + 1
    key = step_of * len(cloud.seeds) + cloud.seed_index
    assert np.all(np.diff(key) > 0)


def test_graph_sample_merges_levels_within_the_radius_as_the_per_row_loop(monkeypatch):
    """T = 1.203 leaves a tail step of 0.003 below the merge radius h/2, and the
    boundary seeds start at the impulse times on their own schedules; the dedup
    of the raw cloud still keeps the per-row loop's rows.  1100 seeds put more
    than 1024 rows on the tail level, so a wrong cut there would start a slab."""
    data = vk.BoundaryData(lambda X: np.sin(X[:, :1]), lambda S, X: np.full((len(S), 1), 0.25),
                           impulse_times=(0.4, 0.8))
    prob = vk.CharProblem(lambda t, x, y: -y, halfline, data, 1, phi=one)
    raw, merge = [], characteristics._merge_points

    def spy(points, radius):
        raw.append((points.copy(), radius))
        return merge(points, radius)

    monkeypatch.setattr(characteristics, "_merge_points", spy)
    T, h = 1.203, 0.01
    cloud = vk.graph_sample(prob, T, h, 1100, [0.0], [2.0], boundary_points=[[0.0]])
    [(points, radius)] = raw
    assert radius == h / 2.0 and len(points) > 2048
    keep = cloud_reference.merge_points(points, radius)
    assert np.array_equal(cloud.points, points[keep])
    assert keep.sum() < len(points)   # the tail level merges into the level at 1.2


# -- output constraints --------------------------------------------------------


def test_phi_invariance_whole_space_passes():
    prob = vk.CharProblem(lambda t, x, y: -y, halfline,
                          vk.BoundaryData(lambda X: np.ones((len(X), 1))), 1,
                          phi=one, phi_constraint=lambda T, X, Y: vk.whole_space(1).distance_many(Y))
    samples = [[0.5, 1.0, 0.3], [1.0, 2.0, 0.0]]
    rep = vk.phi_invariance_check(prob, samples, 1e-2)
    assert rep.ok(1e-6)


def test_phi_invariance_orthant_decay_passes():
    orthant = vk.box([0.0], [np.inf])
    prob = vk.CharProblem(lambda t, x, y: -y, halfline,
                          vk.BoundaryData(lambda X: np.ones((len(X), 1))), 1,
                          phi=one, phi_constraint=lambda T, X, Y: orthant.distance_many(Y))
    samples = [[0.5, 1.0, 0.5], [1.0, 2.0, 0.0]]
    rep = vk.phi_invariance_check(prob, samples, 1e-2)
    assert rep.ok(1e-6)


def test_phi_invariance_constant_drain_fails():
    orthant = vk.box([0.0], [np.inf])
    prob = vk.CharProblem(lambda t, x, y: -np.ones_like(y), halfline,
                          vk.BoundaryData(lambda X: np.ones((len(X), 1))), 1,
                          phi=one, phi_constraint=lambda T, X, Y: orthant.distance_many(Y))
    rep = vk.phi_invariance_check(prob, [[0.5, 1.0, 0.0]], 1e-2)
    assert rep.g_residual > 0.5


@pytest.mark.parametrize("boundary", [None, lambda S, X: np.cos(3.0 * S) + 0.2 * X])
@pytest.mark.parametrize("kind", ["orthant", "gappy", "tube"])
def test_phi_invariance_matches_per_sample_loop(kind, boundary):
    orthant = vk.box([0.0], [np.inf])
    constraint = {  # a constant orthant, one with NaN distances past t = 1.9 (they never
        # win), or |y - sin(x - t)| <= 0.1 + 0.05 t
        "orthant": lambda T, X, Y: orthant.distance_many(Y),
        "gappy": lambda T, X, Y: np.where(T[:, 0] > 1.9, np.nan, orthant.distance_many(Y)),
        "tube": lambda T, X, Y: np.maximum(np.abs(Y - np.sin(X - T)) - (0.1 + 0.05 * T), 0.0)[:, 0],
    }[kind]
    prob = vk.CharProblem(lambda t, x, y: np.cos(x - t) - 0.5 * y, halfline,
                          vk.BoundaryData(lambda X: np.sin(X[:, :1]) - 0.3, boundary), 1,
                          phi=one, phi_constraint=constraint)
    rng = np.random.default_rng(3)
    samples = np.column_stack([rng.uniform(0.0, 2.0, 60), rng.uniform(0.0, 3.0, 60),
                               rng.uniform(-1.2, 1.2, 60)])
    samples[::7, 1] = 0.0  # boundary samples
    rep = vk.phi_invariance_check(prob, samples, 1e-2)
    assert rep.g_residual > 0.0 and rep.initial_distance > 0.0
    assert (rep.boundary_distance > 0.0) == (boundary is not None)
    _same_report(rep, residual_reference.phi_invariance_check(prob, samples, 1e-2))


def test_phi_invariance_refuses_per_point_constraint():
    prob = vk.CharProblem(lambda t, x, y: -y, halfline,
                          vk.BoundaryData(lambda X: np.ones((len(X), 1))), 1,
                          phi=one, phi_constraint=lambda t, x: vk.whole_space(1))
    with pytest.raises(TypeError):
        vk.phi_invariance_check(prob, [[0.5, 1.0, 0.3]], 1e-2)


def test_phi_invariance_refuses_non_finite_samples():
    # a NaN y made every rung's quotient NaN, so the report read g_residual = inf
    orthant = vk.box([0.0], [np.inf])
    prob = vk.CharProblem(lambda t, x, y: -y, halfline,
                          vk.BoundaryData(lambda X: np.ones((len(X), 1))), 1,
                          phi=one, phi_constraint=lambda T, X, Y: orthant.distance_many(Y))
    samples = np.column_stack([np.linspace(0.1, 2.0, 60), np.linspace(0.5, 3.0, 60),
                               np.full(60, 0.5)])
    samples[5, 2] = np.nan
    samples[9, 1] = np.inf
    with pytest.raises(ValueError, match="sample 5 .* not finite"):
        vk.phi_invariance_check(prob, samples, 1e-2)


# -- operator properties -------------------------------------------------------


def test_data_locality_bitwise():
    h = 1e-3
    probs = [_transport_problem(v=lambda S, X: np.cos(3.0 * S)),
             _transport_problem(v=lambda S, X: 99.0 + S)]
    # initial regime t <= x: boundary perturbation is invisible, bit for bit
    for t, x in ((0.5, 2.0), (1.0, 4.0)):
        a = vk.solve_char(probs[0], t, [x], h)
        b = vk.solve_char(probs[1], t, [x], h)
        assert a[0] == b[0]
    u0s = [lambda X: np.sin(X[:, :1]), lambda X: np.full((len(X), 1), -50.0)]
    vb = lambda S, X: np.cos(3.0 * S)
    probs2 = [vk.CharProblem(lambda t, x, y: np.zeros_like(y), halfline,
                             vk.BoundaryData(u0, vb), 1, phi=one) for u0 in u0s]
    # boundary regime t > x: initial perturbation is invisible
    for t, x in ((3.0, 0.5), (2.0, 1.0)):
        a = vk.solve_char(probs2[0], t, [x], h)
        b = vk.solve_char(probs2[1], t, [x], h)
        assert a[0] == b[0]


def test_lipschitz_operator_bound():
    mu = 2.0
    g = lambda t, x, y: -mu * y
    vb = lambda S, X: 0.2 * S
    u0a = lambda X: np.sin(X[:, :1])
    u0b = lambda X: np.sin(X[:, :1]) + 1.0
    pa = vk.CharProblem(g, halfline, vk.BoundaryData(u0a, vb), 1, phi=one)
    pb = vk.CharProblem(g, halfline, vk.BoundaryData(u0b, vb), 1, phi=one)
    t, h = 1.0, 1e-2
    gap = 0.0
    for x in np.linspace(0.0, 3.0, 31):
        ua = vk.solve_char(pa, t, [float(x)], h)
        ub = vk.solve_char(pb, t, [float(x)], h)
        gap = max(gap, abs(ua[0] - ub[0]))
    assert gap <= math.exp(-mu * t) * 1.0 * (1.0 + 1e-4)


def test_solution_growth_bound():
    c = 0.8

    def g2(t, x, y):   # |g| <= c (1 + |y|)
        return c * y

    u0 = lambda X: np.cos(X[:, :1])
    vb = lambda S, X: np.sin(S)
    prob = vk.CharProblem(g2, halfline, vk.BoundaryData(u0, vb), 1, phi=one)
    sup_data = 1.0
    for t in (0.5, 1.5):
        worst = max(abs(vk.solve_char(prob, t, [float(x)], 1e-2)[0])
                    for x in np.linspace(0.0, 4.0, 17))
        assert worst <= math.exp(c * t) * sup_data * (1.0 + 1e-4)
