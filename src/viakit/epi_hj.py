"""Value functions via trajectory optimization and epigraph kernels/basins.

Two routes to the same objects, kept deliberately independent so they can
cross-validate:

  * direct route: sample J(t) = e^{at} u(x(t)) + int_0^t e^{a tau}
    l(x, x') dtau along the RK4 trajectory and take sup (value_sup) or
    inf (value_inf) over the finite horizon;
  * epigraph route: lift the dynamics to (x, y) with
    y' = -a y - l(x, f(x)) and compute the viability kernel (sup) or
    capture basin (inf) of the epigraph of u on an (x, y) grid; the
    lower envelope of the result is the value function.

The finite horizon T_max stands in for sup/inf over all t >= 0, so
value_sup is a lower approximation and value_inf an upper one, both
monotone in T_max.  A supremum attained at the horizon endpoint is
reported as +infinity (the sampled J is still climbing, which is how a
divergent integral shows up at desk scale).

Also here: contingent-epiderivative estimation on gridded value fields
and the variational-inequality residual checks built from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .common import INF, _ladder
from .dynamics import VectorField, _bisect, _record, _schedule, rk4_step
from .errors import CapTooSmall, DescentViolation, NonzeroLagrangian
from .kernels import GridSpec, TimeField, _one_row, capt_field, viab_field
from .sets import SetOracle, Sublevel


# ---------------------------------------------------------------------------
# Problem data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LagrangianProblem:
    """(f, l, a, u): dynamics, running cost, discount rate, obstacle.

    ``lagrangian(x, p)`` and ``obstacle(x)`` take (m, dim) batches and
    return (m,) arrays; the obstacle may return the +inf sentinel.  Both
    must be nonnegative wherever sampled.
    """

    field: VectorField
    lagrangian: Callable
    discount: float
    obstacle: Callable
    value_cap: float = 1e6


def lift(p: LagrangianProblem) -> VectorField:
    """State-cost dynamics (x, y) -> (f(x), -a y - l(x, f(x)))."""
    n = p.field.dim

    def ev(t, z):
        x, y = z[:, :n], z[:, n]
        fx = p.field(t, x)
        ly = np.asarray(p.lagrangian(x, fx), dtype=float)
        return np.concatenate([fx, (-p.discount * y - ly)[:, None]], axis=1)

    return VectorField(n + 1, ev, name=p.field.name + "+cost")


# common Lagrangians / obstacles (batched)


def zero_lagrangian(x, p):
    return np.zeros(len(np.atleast_2d(x)))


def unit_lagrangian(x, p):
    return np.ones(len(np.atleast_2d(x)))


def const_lagrangian(c: float):
    return lambda x, p: np.full(len(np.atleast_2d(x)), float(c))


def speed_lagrangian(x, p):
    """l(x, p) = |p|, evaluated along trajectories as |f(x)| (arc length)."""
    return np.linalg.norm(np.atleast_2d(p), axis=1)


def abs_obstacle(x):
    return np.linalg.norm(np.atleast_2d(x), axis=1)


def zero_obstacle(x):
    return np.zeros(len(np.atleast_2d(x)))


def indicator_obstacle(K: SetOracle):
    """psi_K: 0 on K, +inf off it."""

    def u(x):
        return np.where(K.contains_many(np.atleast_2d(x)), 0.0, INF)

    return u


# ---------------------------------------------------------------------------
# The direct route: one batched value engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostPath:
    """Sampled J(t) along one trajectory, with continuous re-evaluation."""

    times: np.ndarray
    states: np.ndarray
    values: np.ndarray       # J at sample times (INF-clamped)
    cumulative: np.ndarray   # int_0^{t_j} e^{a tau} l dtau
    problem: LagrangianProblem

    def value_at(self, t: float) -> float:
        """J(t) for arbitrary t in [0, T]; a one-row lift of :func:`_values_at`."""
        return float(_values_at(self.problem, self.times, self.states[:, None, :],
                                self.cumulative[:, None], np.zeros(1, dtype=int),
                                np.array([t], dtype=float))[0])


def _cost_history(p: LagrangianProblem, xs, T_max: float, h: float):
    """J sampled along the RK4 trajectory of every row of xs, in one sweep.

    Returns (times, states, U, cum, J): the (k,) sample times, the
    (k, m, dim) state history, and (k, m) arrays of the obstacle u, the
    running cost int_0^{t_j} e^{a tau} l dtau and J (INF-clamped).

    Raises:
        NonFinite: if a row starts non-finite or blows up before T_max.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    times, states = _record(p.field, xs, 0.0, T_max, h, "tabulate_values")
    k, m = states.shape[:2]
    flat = states.reshape(k * m, xs.shape[1])
    F = p.field(np.repeat(times, m)[:, None], flat)  # each node at its own time
    L = np.asarray(p.lagrangian(flat, F), dtype=float).reshape(k, m)
    U = np.asarray(p.obstacle(flat), dtype=float).reshape(k, m)
    w = np.exp(p.discount * times)[:, None]
    integrand = w * L
    cum = np.vstack([np.zeros((1, m)), np.cumsum(
        0.5 * (integrand[1:] + integrand[:-1]) * np.diff(times)[:, None], axis=0)])
    J = np.where(U >= INF, INF, w * U + cum)
    J = np.where(J > p.value_cap, INF, J)
    return times, states, U, cum, J


def _values_at(p: LagrangianProblem, times, states, cum, rows, t) -> np.ndarray:
    """J at per-entry times t along the history columns rows (which may repeat).

    times, states and cum are a :func:`_cost_history`.  Each entry takes
    one RK4 sub-step from the last node j at or before its t, adds one
    trapezoid of running cost with the field time held at times[j] for
    both ends, and weights the obstacle by ``math.exp`` per entry (an
    array ``np.exp`` can differ from it in the last ulp).
    """
    t = np.minimum(np.maximum(t, times[0]), times[-1])
    j = np.minimum(np.searchsorted(times, t, side="right") - 1, len(times) - 2)
    tj, dt = times[j], t - times[j]
    xj = states[j, rows]
    xt = np.where((dt > 0)[:, None], rk4_step(p.field, tj[:, None], xj, dt[:, None]), xj)
    x2 = np.concatenate([xj, xt])
    f2 = p.field(np.concatenate([tj, tj])[:, None], x2)
    lw = np.asarray(p.lagrangian(x2, f2), dtype=float) * \
        np.exp(p.discount * np.concatenate([tj, t]))
    n = len(t)
    run = cum[j, rows] + 0.5 * (lw[:n] + lw[n:]) * dt
    ut = np.asarray(p.obstacle(xt), dtype=float)
    J = np.fromiter(map(math.exp, p.discount * t), float, n) * ut + run
    return np.where((ut >= INF) | (J > p.value_cap), INF, J)


def _finish_sup(J: np.ndarray) -> np.ndarray:
    """Column maxima of J; INF where a column reaches INF or peaks at the horizon."""
    i = np.argmax(J, axis=0)  # first attainment
    # a peak at the horizon is still climbing: divergent at desk scale
    unbounded = np.any(J >= INF, axis=0) | (i == len(J) - 1)
    return np.where(unbounded, INF, J[i, np.arange(J.shape[1])])


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(values_at, rows, a, b, fa, fb, tol: float):
    """Per entry, the golden-section minimum value of J on [a, b] (fa, fb its ends)."""
    n, a, b = len(rows), a.copy(), b.copy()
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    f = values_at(np.concatenate([rows, rows]), np.concatenate([c, d]))
    fc, fd = f[:n], f[n:]
    best = fa
    for v in (fb, fc, fd):
        best = np.where(v < best, v, best)
    for _ in range(200):
        act = np.flatnonzero(~(b - a <= tol))
        if len(act) == 0:
            break
        fc_, fd_ = fc[act], fd[act]
        left = fc_ <= fd_  # the minimum lies in [a, d]: drop (d, b]
        na = np.where(left, a[act], c[act])
        nb = np.where(left, d[act], b[act])
        nc = np.where(left, nb - _INVPHI * (nb - na), d[act])
        nd = np.where(left, c[act], na + _INVPHI * (nb - na))
        fn = values_at(rows[act], np.where(left, nc, nd))
        a[act], b[act], c[act], d[act] = na, nb, nc, nd
        fc[act] = np.where(left, fn, fd_)
        fd[act] = np.where(left, fc_, fn)
        best[act] = np.where(fn < best[act], fn, best[act])
    return best


def _finish_inf(p: LagrangianProblem, times, states, cum, J,
                t_tol: float = 1e-8) -> np.ndarray:
    """Column minima of J, each refined between the nodes around its arg-min.

    Per row, refinement bisects the finite edge of J toward the arg-min
    node where a neighbouring node reads INF (indicator obstacles make J
    infinite off a narrow valley, so golden section needs a real
    bracket), then golden-section searches the bracket to t_tol in t.
    Every row keeps its own sequence of comparisons; each round serves
    all of its rows with one batched :func:`_values_at`.
    """
    k, m = J.shape
    i = np.argmin(J, axis=0)
    empty = np.all(J >= INF, axis=0)
    best = np.where(empty, INF, J[i, np.arange(m)])
    rows = np.flatnonzero(~empty)
    i = i[rows]
    prev, nxt = np.maximum(i - 1, 0), np.minimum(i + 1, k - 1)
    a, b = times[prev], times[nxt]
    left = (i > 0) & (J[prev, rows] >= INF)
    right = (i < k - 1) & (J[nxt, rows] >= INF)

    def values_at(r, t):
        return _values_at(p, times, states, cum, r, t)

    e_rows = np.concatenate([rows[left], rows[right]])
    edges = _bisect(lambda e, t: values_at(e_rows[e], t) < INF,
                    np.concatenate([a[left], b[right]]),
                    times[np.concatenate([i[left], i[right]])], t_tol)
    a[left], b[right] = np.split(edges, [np.count_nonzero(left)])
    fa, fb = np.split(values_at(np.concatenate([rows, rows]), np.concatenate([a, b])), 2)
    r_best = best[rows]
    for v in (fa, fb):
        r_best = np.where(v < r_best, v, r_best)
    g = b > a
    gold = _golden_min(values_at, rows[g], a[g], b[g], fa[g], fb[g], t_tol)
    r_best[g] = np.where(gold < r_best[g], gold, r_best[g])
    best[rows] = r_best
    return best


#: Float budget (8 MB) of the (steps, rows, dim) state history of one batched sweep.
#: On `mintime` over 4000 2-D points and 702 steps (2-core VM) it peaked at 113 MB RSS
#: in 1.9 s, against 306 MB in 1.65 s unchunked and 80 MB in 2.6 s at 2^18.
HISTORY_FLOATS = 1 << 20


def tabulate_values(p: LagrangianProblem, xs, mode: str, T_max: float, h: float) -> np.ndarray:
    """The direct-route value at every row of xs, from batched sweeps.

    mode 'sup' gives sup_t J(t) over [0, T_max] (INF if divergent),
    'inf' gives inf_t J(t) with the arg-min bracket golden-section
    refined to 1e-8 in t, and 'lyapunov' the 'sup' value of a problem
    with l = 0, with the descent inequality verified.  Each value is
    taken along the one RK4-selected solution from its row, so where
    solutions are not unique 'sup' is a lower and 'inf' an upper bound.
    The scalar operations are one-row lifts of this.  Rows are swept in
    chunks whose state history fits :data:`HISTORY_FLOATS`; no value
    depends on the chunking.

    Raises:
        NonFinite: if any row starts non-finite or blows up before T_max.
        NonzeroLagrangian: in mode 'lyapunov', if l is nonzero at a row.
        DescentViolation: in mode 'lyapunov', if u(x(t)) <= e^{-at} *
            value fails beyond 1e-6 along a row's path (T_max too small
            or sampling too coarse).
    """
    if mode not in ("sup", "inf", "lyapunov"):
        raise ValueError("mode must be 'sup', 'inf' or 'lyapunov'")
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if mode == "lyapunov" and np.any(np.asarray(p.lagrangian(xs, p.field(0.0, xs))) != 0.0):
        raise NonzeroLagrangian("lyapunov needs a lagrangian that is 0 at every point")
    chunk = max(1, HISTORY_FLOATS // ((_schedule(0.0, T_max, h)[2] + 1) * xs.shape[1]))
    if len(xs) > chunk:
        return np.concatenate([tabulate_values(p, xs[i:i + chunk], mode, T_max, h)
                               for i in range(0, len(xs), chunk)])
    times, states, U, cum, J = _cost_history(p, xs, T_max, h)
    if mode == "inf":
        return _finish_inf(p, times, states, cum, J)
    vals = _finish_sup(J)
    if mode == "lyapunov":
        ok = vals < INF
        bound = np.exp(-p.discount * times)[:, None] * vals[ok] + 1e-6
        if np.any(U[:, ok] > bound):
            raise DescentViolation("u(x(t)) exceeded e^{-at} * value along the path")
    return vals


def running_cost_path(p: LagrangianProblem, x, T_max: float, h: float) -> CostPath:
    """Sampled cost J along the trajectory from x; J(0) = u(x)."""
    times, states, _, cum, J = _cost_history(p, _one_row(x), T_max, h)
    return CostPath(times, states[:, 0], J[:, 0], cum[:, 0], p)


def value_sup(p: LagrangianProblem, x, T_max: float, h: float) -> float:
    """sup_t J(t) over [0, T_max] along the solution from x (INF if divergent)."""
    return float(tabulate_values(p, _one_row(x), "sup", T_max, h)[0])


def value_inf(p: LagrangianProblem, x, T_max: float, h: float) -> float:
    """inf_t J(t); the arg-min bracket is golden-section refined to 1e-8 in t."""
    return float(tabulate_values(p, _one_row(x), "inf", T_max, h)[0])


def lyapunov(p: LagrangianProblem, x, T_max: float, h: float) -> float:
    """value_sup specialization for l = 0, with the descent inequality verified.

    Raises:
        DescentViolation: if u(x(t)) <= e^{-at} * result fails beyond 1e-6
            along the trajectory (T_max too small or sampling too coarse).
    """
    return float(tabulate_values(p, _one_row(x), "lyapunov", T_max, h)[0])


def minimal_time_problem(field: VectorField, K: SetOracle) -> LagrangianProblem:
    """The first-arrival problem: u = psi_K, l = 1, a = 0."""
    return LagrangianProblem(field, unit_lagrangian, 0.0, indicator_obstacle(K))


def minimal_length_problem(field: VectorField, K: SetOracle) -> LagrangianProblem:
    """The arc-length-to-K problem: u = psi_K, l(x, p) = |p|, a = 0."""
    return LagrangianProblem(field, speed_lagrangian, 0.0, indicator_obstacle(K))


def minimal_time(field: VectorField, K: SetOracle, x, T_max: float, h: float) -> float:
    """First-arrival value: value_inf of :func:`minimal_time_problem`."""
    return value_inf(minimal_time_problem(field, K), x, T_max, h)


def minimal_length(field: VectorField, K: SetOracle, x, T_max: float, h: float) -> float:
    """Arc length to reach K: value_inf of :func:`minimal_length_problem`."""
    return value_inf(minimal_length_problem(field, K), x, T_max, h)


# ---------------------------------------------------------------------------
# Epigraph route
# ---------------------------------------------------------------------------


def epigraph_oracle(obstacle, state_dim: int, lipschitz: float = math.sqrt(2.0)) -> Sublevel:
    """{(x, y) : u(x) <= y} as a sublevel oracle (membership is exact).

    lipschitz bounds that of (x, y) -> u(x) - y, sqrt(L^2 + 1) for an
    L-Lipschitz u, so ``distance`` is a lower bound of the Euclidean one;
    the default covers 1-Lipschitz obstacles, such as ``abs_obstacle``.
    """

    def fn(Z):
        return np.asarray(obstacle(Z[:, :state_dim]), dtype=float) - Z[:, state_dim]

    return Sublevel(fn, state_dim + 1, lipschitz=lipschitz)


@dataclass(frozen=True)
class GridFunction:
    """Values on a state grid with multilinear interpolation (INF-aware)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if len(values) != self.grid.node_count:
            raise ValueError("values length must match the grid node count")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def interp(self, x) -> float:
        """The value at one point; a one-row lift of :meth:`interp_many`."""
        return float(self.interp_many(_one_row(x))[0])

    def interp_many(self, X) -> np.ndarray:
        """Multilinear interpolation at the (m, dim) rows of X (INF-aware).

        Corners of weight below 1e-12 are skipped; an INF value at any other
        corner, or lying outside the grid, makes a row INF.  Corners and axis
        factors go in one fixed order, so no value depends on the batch.
        """
        g = self.grid
        X = np.atleast_2d(np.asarray(X, dtype=float))
        sp = g.spacing
        inside = np.all((X >= g.lo - 1e-9 * sp) & (X <= g.hi + 1e-9 * sp), axis=1)
        pos = (np.where(inside[:, None], X, g.lo) - g.lo) / sp
        base = np.clip(np.floor(pos).astype(int), 0, g.counts - 1)
        frac = pos - base
        total, wsum, blocked = np.zeros(len(X)), np.zeros(len(X)), ~inside
        for corner in range(1 << g.dim):
            offs = np.array([(corner >> k) & 1 for k in range(g.dim)])
            w = np.prod(np.where(offs == 1, frac, 1.0 - frac), axis=1)
            use = w >= 1e-12
            v = self.values[np.ravel_multi_index(tuple((base + offs).T), g.shape)]
            blocked |= use & (v >= INF)
            total = np.where(use, total + w * v, total)
            wsum = np.where(use, wsum + w, wsum)
        return np.where(blocked | ~(wsum > 0), INF, total / wsum)


@dataclass(frozen=True)
class EpigraphResult:
    envelope: GridFunction   # least y in the kernel/basin per state node
    time_field: TimeField    # the raw (x, y)-grid exit/hitting field


def epigraph_value_field(p: LagrangianProblem, grid2d: GridSpec, mode: str,
                         T_max: float, h: float, workers: int = 1) -> EpigraphResult:
    """Value function as the lower envelope of an epigraph kernel or basin.

    The last grid axis is the cost coordinate y; it must cover
    [0, value_cap] of interest.  mode 'sup' runs the viability kernel of
    the epigraph of u under the lifted dynamics, mode 'inf' its capture
    basin.

    Raises:
        CapTooSmall: if some column's envelope sits on the top y row
            (the value got truncated by the grid roof).
    """
    if mode not in ("sup", "inf"):
        raise ValueError("mode must be 'sup' or 'inf'")
    n = grid2d.dim - 1
    ep = epigraph_oracle(p.obstacle, n)
    lf = lift(p)
    if mode == "sup":
        tf = viab_field(lf, ep, grid2d, T_max, h, workers=workers)
        qualified = tf.superlevel(T_max)
    else:
        tf = capt_field(lf, ep, grid2d, T_max, h, workers=workers)
        qualified = tf.values < INF

    shape = grid2d.shape
    ny = shape[-1]
    q = qualified.reshape(shape[:-1] + (ny,))
    y_axis = grid2d.axes()[-1]
    any_q = q.any(axis=-1)
    first = np.argmax(q, axis=-1)
    env = np.where(any_q, y_axis[np.minimum(first, ny - 1)], INF)
    if np.any(any_q & (first == ny - 1)):
        raise CapTooSmall("epigraph envelope touches the top of the y-range")
    state_grid = GridSpec(grid2d.lo[:n], grid2d.hi[:n], grid2d.counts[:n])
    return EpigraphResult(GridFunction(state_grid, env.reshape(-1)), tf)


# ---------------------------------------------------------------------------
# Repeller sufficient condition (advisory for mode-inf uniqueness claims)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RepellerCondition:
    ok: bool
    gamma_minus: float   # inf of <x, f(x)> / (|x| (|x|+1)) over the samples
    delta_minus: float   # inf of l(x, f(x)) / (|x|+1)
    discount: float


def repeller_condition(p: LagrangianProblem, samples) -> RepellerCondition:
    """Estimate the outward-drift and cost lower bounds; require a + gamma > 0.

    Together with delta > 0 this certifies (on the sampled region) that
    the state-cost half-space is a repeller, the hypothesis behind the
    uniqueness of the stopping-time value, for autonomous problems (f at t = 0).
    """
    X = np.atleast_2d(np.asarray(samples, dtype=float))
    norms = np.linalg.norm(X, axis=1)
    keep = norms > 0
    X, norms = X[keep], norms[keep]
    F = p.field(0.0, X)
    radial = np.einsum("ij,ij->i", X, F) / norms
    gamma = float(np.min(radial / (norms + 1.0)))
    delta = float(np.min(np.asarray(p.lagrangian(X, F)) / (norms + 1.0)))
    return RepellerCondition(bool(p.discount + gamma > 0 and delta > 0),
                             gamma, delta, p.discount)


# ---------------------------------------------------------------------------
# Contingent epiderivatives and variational-inequality residuals
# ---------------------------------------------------------------------------


def _epiderivatives(u_field: GridFunction, X, V, h_min: Optional[float] = None,
                    h_max: Optional[float] = None, perturb: Optional[float] = None):
    """(u(x), D_up u(x)(v)) at the row pairs of the (m, dim) arrays X and V.

    See :func:`epiderivative`; every base point and probe goes through
    one :meth:`GridFunction.interp_many` call.
    """
    cell = float(np.min(u_field.grid.spacing))
    hs = _ladder(4.0 * cell if h_max is None else h_max, 0.5 * cell if h_min is None else h_min)
    perturb = 0.5 * cell if perturb is None else perturb
    m, n = X.shape
    stencil = np.zeros((1 + 2 * n, n))  # v, v + delta e_0, v - delta e_0, v + delta e_1, ...
    stencil[1::2], stencil[2::2] = perturb * np.eye(n), -perturb * np.eye(n)
    hs = hs[:, None, None]
    probes = X[:, None, None] + hs * (V[:, None] + stencil)[:, None]
    u = u_field.interp_many(np.concatenate([X, probes.reshape(-1, n)]))
    u0, uv = u[:m], u[m:].reshape(probes.shape[:3])
    q = (uv - u0[:, None, None]) / hs[:, :, 0]
    # a NaN quotient never wins the scalar min, which starts at INF
    best = np.min(np.where((uv < INF) & (q < INF), q, INF), axis=(1, 2), initial=INF)
    return u0, np.where(u0 >= INF, INF, best)


def epiderivative(u_field: GridFunction, x, v, h_min: Optional[float] = None,
                  h_max: Optional[float] = None, perturb: Optional[float] = None) -> float:
    """Lower difference-quotient estimate of D_up u(x)(v) on a gridded field.

    Minimizes (u(x + h v') - u(x)) / h over a geometric h-ladder (ratio
    1/2) and a small direction stencil v' = v, v +- delta e_k, with
    multilinear interpolation of the field; +inf when every probe lands
    outside the finite domain.  Defaults scale with the grid cell.  A
    one-row lift of the batched estimate behind the HJ checks.
    """
    return float(_epiderivatives(u_field, _one_row(x), _one_row(v), h_min, h_max,
                                 perturb)[1][0])


@dataclass(frozen=True)
class HJReport:
    """Residuals of the variational-inequality characterization at samples.

    ``residual_fwd``/``residual_bwd`` are the forward/backward
    epiderivative residuals (NaN where the clause does not apply);
    ``complementarity`` is the positive slack of the clause that only
    binds where the solution sits strictly off the obstacle.
    """

    samples: np.ndarray
    residual_fwd: np.ndarray
    residual_bwd: np.ndarray
    complementarity: np.ndarray
    violations: list
    tol: float

    @property
    def ok(self) -> bool:
        return len(self.violations) == 0


def _hj_residuals(p: LagrangianProblem, u_field: GridFunction, sample_points):
    """The samples X, v = u_field(X), the obstacle U, the mask of finite v,
    and D_up v(x)(f) + l + a v and D_up v(x)(-f) - l - a v at every row, in
    one batched pass; each check keeps the rows its clauses apply to.  A
    non-finite sample raises ValueError: its NaN residuals would read as
    clauses that do not apply, so it would pass unchecked.  Autonomous: f at t = 0."""
    X = np.atleast_2d(np.asarray(sample_points, dtype=float))
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(f"sample {bad} {X[bad].tolist()} is not finite")
    m = len(X)
    F = p.field(0.0, X)
    L = np.asarray(p.lagrangian(X, F), dtype=float)
    U = np.asarray(p.obstacle(X), dtype=float)
    v, D = _epiderivatives(u_field, np.concatenate([X, X]), np.concatenate([F, -F]))
    av = p.discount * v[:m]
    return X, v[:m], U, ~(v[:m] >= INF), D[:m] + L + av, D[m:] - L - av


def _violations(*clauses) -> list:
    """(name, sample, value) wherever a (name, failed, value) clause fails,
    by sample, then by clause in the given order."""
    rows, kinds = np.nonzero(np.stack([bad for _, bad, _ in clauses], axis=1))
    values = np.stack([val for _, _, val in clauses], axis=1)[rows, kinds]
    return [(clauses[k][0], int(i), float(x)) for i, k, x in zip(rows, kinds, values)]


def hj_check_sup(p: LagrangianProblem, u_field: GridFunction, sample_points,
                 tol: float = 0.05, comp_tol: Optional[float] = None) -> HJReport:
    """Check the sup-value characterization at the samples.

    Clauses: v >= u (obstacle bound); D_up v(x)(f(x)) + l + a v <= 0
    everywhere; and where u(x) < v(x) - comp_tol additionally
    D_up v(x)(-f(x)) - l - a v <= 0 (the complementarity side).  The
    off-obstacle threshold comp_tol decouples from the residual
    tolerance; both default to 0.05 in grid units.  Samples where v is
    INF are skipped; a non-finite sample raises ValueError.
    """
    comp_tol = tol if comp_tol is None else comp_tol
    X, v, U, live, r_fwd, r_bwd = _hj_residuals(p, u_field, sample_points)
    off = live & (U < v - comp_tol)
    r_fwd, r_bwd = np.where(live, r_fwd, np.nan), np.where(off, r_bwd, np.nan)
    comp = np.where(off & ~(r_bwd < 0.0), r_bwd, 0.0)  # max(r, 0.0) as Python takes it
    violations = _violations(("obstacle", live & (v < U - comp_tol), U - v),
                             ("forward", r_fwd > tol, r_fwd),
                             ("complementarity", r_bwd > tol, r_bwd))
    return HJReport(X, r_fwd, r_bwd, comp, violations, tol)


def hj_check_inf(p: LagrangianProblem, u_field: GridFunction, sample_points,
                 tol: float = 0.05, comp_tol: Optional[float] = None) -> HJReport:
    """Check the stopping-time characterization at the samples.

    Clauses: 0 <= v <= u; where v(x) < u(x) - comp_tol the forward
    inequality D_up v(x)(f(x)) + l + a v <= 0; and the backward
    inequality D_up v(x)(-f(x)) - l - a v <= 0 everywhere on the domain.
    Samples where v is INF are skipped; a non-finite sample raises ValueError.
    """
    comp_tol = tol if comp_tol is None else comp_tol
    X, v, U, live, r_fwd, r_bwd = _hj_residuals(p, u_field, sample_points)
    on = live & (v < U - comp_tol)
    r_fwd, r_bwd = np.where(on, r_fwd, np.nan), np.where(live, r_bwd, np.nan)
    comp = np.where(on & ~(r_fwd < 0.0), r_fwd, 0.0)
    violations = _violations(("lower-bound", live & (v < -comp_tol), -v),
                             ("upper-bound", live & (v > U + comp_tol), v - U),
                             ("forward", r_fwd > tol, r_fwd),
                             ("backward", r_bwd > tol, r_bwd))
    return HJReport(X, r_fwd, r_bwd, comp, violations, tol)
