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

from .common import (INF, _exp, _Filled, _finite_samples, _ladder, _one_row, _refuse,
                     _refuse_nan, _row_norms)
from .dynamics import VectorField, _bisect, _record, rk4_step
from .errors import CapTooSmall, NonFinite, NonzeroLagrangian
from .kernels import GridFunction, GridSpec, capt_field, viab_field
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
    n, f, cost, a = p.field.dim, p.field.eval, p.lagrangian, -p.discount

    def ev(t, z):
        x, out = z[:, :n], np.empty(z.shape)
        out[:, :n] = fx = f(t, x)
        np.subtract(a * z[:, n], np.asarray(cost(x, fx), dtype=float), out=out[:, n])
        return out

    return VectorField(n + 1, ev, name=p.field.name + "+cost")


# common Lagrangians / obstacles (batched); the constant ones return a shared
# read-only (m,) block (see common._Filled): copy it before writing


_ZERO, _ONE = _Filled(0.0), _Filled(1.0)


def zero_lagrangian(x, p):
    return _ZERO((len(x),))


def unit_lagrangian(x, p):
    return _ONE((len(x),))


def const_lagrangian(c: float):
    fill = _Filled(float(c))
    return lambda x, p: fill((len(x),))


def speed_lagrangian(x, p):
    """l(x, p) = |p|, evaluated along trajectories as |f(x)| (arc length)."""
    return _row_norms(p)


def abs_obstacle(x):
    return _row_norms(x)


def zero_obstacle(x):
    return _ZERO((len(x),))


def indicator_obstacle(K: SetOracle):
    """psi_K: 0 on K, +inf off it."""

    def u(x):
        return np.where(K.contains_many(x), 0.0, INF)

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
                                self.cumulative[:, None], 0, np.zeros(1, dtype=int),
                                np.array([t], dtype=float))[0])


#: Float budget (128 KB) of one block of the value engine's march: a block holds
#: max(1, BLOCK_FLOATS // (rows * dim)) nodes of every row, so the engine's
#: arrays scale with the rows, not with the steps.  On 201 1-D rows and 4001
#: nodes (minimal time under unit transport, 2-core VM, medians of 31) `inf`
#: took 77.5 ms and traced 1.5 MB at 2^14, against 72.3 ms and 5.3 MB at 2^16,
#: 73.5 ms and 2.7 MB at 2^15, 77.9 ms at 2^13, 95.5 ms at 2^12, and 95.2 ms
#: and 44 MB whole: no other size wins by 7%.
#: The CLI's `mintime` (rotation to a ball, 700 steps) on 4000, 8200 and 20000
#: 2-D points, at 2, 1 and 1 nodes a block, ran in 0.30, 0.67 and 1.50 s at
#: 38-50 MB peak RSS, against 0.44, 0.94 and 2.2 s at 82-86 MB for whole
#: histories in row chunks of 2^20 floats.
BLOCK_FLOATS = 1 << 14


def _cost_blocks(p: LagrangianProblem, xs: np.ndarray, T_max: float, h: float, block=None,
                 zero_l: bool = False):
    """J along the RK4 trajectory of every row of xs, block by block as it marches.

    Returns (times, blocks): the (k,) node times, and an iterator over
    (j, states, cum, J) for the nodes j, ..., j + b - 1 (b at most block,
    by default all k): their (b, m, dim) states and (b, m) arrays of the
    running cost int_0^{t_j} e^{a tau} l dtau and J (INF-clamped).  A
    block is not to be written, nor kept past the next one.

    Raises:
        NonFinite: if a row starts non-finite, blows up before T_max, or
            meets a NaN lagrangian or obstacle (naming the first node that
            holds one, and its lowest row); whichever comes first in node
            order, whatever the block size.
        NonzeroLagrangian: with zero_l, at the first node where l is
            nonzero (naming its lowest such row), if that comes first.
    """
    times, blocks = _record(p.field, xs, 0.0, T_max, h, "tabulate_values", block)
    # over the whole of times once: a block's own np.exp could round apart
    w = np.exp(p.discount * times)[:, None]
    dt = np.diff(times)[:, None]
    m = len(xs)

    def costs():
        edge = cum = None  # the integrand and cum of the node before the block
        for j, states in blocks:
            b = len(states)
            flat = states.reshape(b * m, xs.shape[1])
            F = p.field(np.repeat(times[j:j + b], m)[:, None], flat)  # each node at its own time
            L = np.asarray(p.lagrangian(flat, F), dtype=float).reshape(b, m)
            U = np.asarray(p.obstacle(flat), dtype=float).reshape(b, m)
            integrand = w[j:j + b] * L
            ends = integrand if j == 0 else np.vstack([edge, integrand])
            trap = 0.5 * (ends[1:] + ends[:-1]) * dt[max(j - 1, 0):j + b - 1]
            # cumsum is a sequential running sum: carrying cum in gives the whole sum's bits
            cum = np.vstack([np.zeros((1, m)), np.cumsum(trap, axis=0)]) if j == 0 else \
                np.cumsum(np.vstack([cum[-1:], trap]), axis=0)[1:]
            edge = integrand[-1:]
            J = np.where(U >= INF, INF, w[j:j + b] * U + cum)
            J = np.where(J > p.value_cap, INF, J)
            bad = np.isnan(L) | np.isnan(J)  # a NaN obstacle reads NaN in J
            if zero_l:  # the nodes before the first one with a NaN
                off = (L != 0.0) & (np.cumsum(bad.any(axis=1)) == 0)[:, None]
                _refuse(off.any(axis=1), lambda i: "lyapunov needs a lagrangian that is 0 at "
                        f"every point: l = {L[i, np.argmax(off[i])]} at row "
                        f"{np.argmax(off[i])} and t = {times[j + i]}", NonzeroLagrangian)
            _refuse(bad.any(axis=1), lambda i: f"the cost is NaN at row {np.argmax(bad[i])} "
                    f"and t = {times[j + i]} in tabulate_values", NonFinite)
            yield j, states, cum, J

    return times, costs()


def _values_at(p: LagrangianProblem, times, states, cum, first, rows, t) -> np.ndarray:
    """J at per-entry times t along the history columns rows (which may repeat).

    states and cum hold the nodes first, first + 1, ... of every column
    (first is a scalar or per entry), from :func:`_cost_blocks`.  Each
    entry takes one RK4 sub-step from the last node j at or before its t,
    adds one trapezoid of running cost with the field time held at
    times[j] for both ends, and weights the obstacle by ``math.exp`` per
    entry.
    """
    t = np.minimum(np.maximum(t, times[0]), times[-1])
    j = np.minimum(np.searchsorted(times, t, side="right") - 1, len(times) - 2)
    tj, dt, s = times[j], t - times[j], j - first
    xj = states[s, rows]
    xt = np.where((dt > 0)[:, None], rk4_step(p.field, tj[:, None], xj, dt[:, None]), xj)
    x2 = np.concatenate([xj, xt])
    f2 = p.field(np.concatenate([tj, tj])[:, None], x2)
    lw = np.asarray(p.lagrangian(x2, f2), dtype=float) * \
        np.exp(p.discount * np.concatenate([tj, t]))
    n = len(t)
    run = cum[s, rows] + 0.5 * (lw[:n] + lw[n:]) * dt
    ut = np.asarray(p.obstacle(xt), dtype=float)
    J = _exp(p.discount * t) * ut + run
    return np.where((ut >= INF) | (J > p.value_cap), INF, J)


def _fold_sup(times, blocks, m: int) -> np.ndarray:
    """sup_t J per row from the blocks; INF where it reaches INF or peaks at the horizon.

    Keeps per row the running maximum and its first node: a block's
    maximum replaces it only when strictly larger, as ``np.argmax`` takes
    the first attainment.
    """
    top, at, cols = np.full(m, -np.inf), np.zeros(m, dtype=int), np.arange(m)
    for j, _, _, J in blocks:
        i = np.argmax(J, axis=0)
        v = J[i, cols]
        up = v > top
        top, at = np.where(up, v, top), np.where(up, j + i, at)
    # a peak at the horizon is still climbing: divergent at desk scale
    return np.where((top >= INF) | (at == len(times) - 1), INF, top)


def _fold_inf(times, blocks, m: int, dim: int):
    """(low, at, states, cum, J): what :func:`_finish_inf` reads, from the blocks.

    Per row: the running minimum of J and its first node i (a block's
    minimum replaces it only when strictly smaller, as ``np.argmin``
    takes the first), and (3, m, ...) windows of the states, cum and J at
    the nodes i - 1, i and i + 1, clipped to the history.  A node i + 1
    past the end of its block is filled from the next block.
    """
    k = len(times)
    low, at, cols = np.full(m, np.inf), np.zeros(m, dtype=int), np.arange(m)
    window = (np.zeros((3, m, dim)), np.zeros((3, m)), np.zeros((3, m)))
    edge = tuple(np.zeros_like(w[0]) for w in window)  # the node before the block
    for j, states, cum, J in blocks:
        block = (states, cum, J)
        late = np.flatnonzero(at == j - 1)  # minima on the previous block's last node
        for w, a in zip(window, block):
            w[2, late] = a[0, late]
        i = np.argmin(J, axis=0)
        v = J[i, cols]
        r = np.flatnonzero(v < low)
        low[r], at[r] = v[r], j + i[r]
        nodes = np.clip(at[r] + np.array([[-1], [0], [1]]), 0, k - 1) - j
        before = r[nodes[0] < 0]
        for w, a, e in zip(window, block, edge):
            w[:, r] = a[np.minimum(nodes, len(J) - 1), r]
            w[0, before] = e[before]
        edge = tuple(a[-1].copy() for a in block)
    return (low, at) + window


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


def _finish_inf(p: LagrangianProblem, times, low, at, states, cum, J) -> np.ndarray:
    """Row minima of J, each refined between the nodes around its arg-min.

    low, at and the windows states, cum and J are a :func:`_fold_inf`.
    Per row, refinement bisects the finite edge of J toward the arg-min
    node where a neighbouring node reads INF (indicator obstacles make J
    infinite off a narrow valley, so golden section needs a real
    bracket), then golden-section searches the bracket to 1e-8 in t.
    Every row keeps its own sequence of comparisons; each round serves
    all of its rows with one batched :func:`_values_at`.
    """
    k = len(times)
    empty = low >= INF
    best = np.where(empty, INF, low)
    rows = np.flatnonzero(~empty)
    first = at - 1  # the node in slot 0 of each row's window
    i = at[rows]
    a, b = times[np.maximum(i - 1, 0)], times[np.minimum(i + 1, k - 1)]
    left = (i > 0) & (J[0, rows] >= INF)
    right = (i < k - 1) & (J[2, rows] >= INF)

    def values_at(r, t):
        return _values_at(p, times, states, cum, first[r], r, t)

    e_rows = np.concatenate([rows[left], rows[right]])
    edges = _bisect(lambda e, t: values_at(e_rows[e], t) < INF,
                    np.concatenate([a[left], b[right]]),
                    times[np.concatenate([i[left], i[right]])], 1e-8)
    a[left], b[right] = np.split(edges, [np.count_nonzero(left)])
    fa, fb = np.split(values_at(np.concatenate([rows, rows]), np.concatenate([a, b])), 2)
    r_best = best[rows]
    for v in (fa, fb):
        r_best = np.where(v < r_best, v, r_best)
    g = b > a
    gold = _golden_min(values_at, rows[g], a[g], b[g], fa[g], fb[g], 1e-8)
    r_best[g] = np.where(gold < r_best[g], gold, r_best[g])
    best[rows] = r_best
    return best


def tabulate_values(p: LagrangianProblem, xs, mode: str, T_max: float, h: float) -> np.ndarray:
    """The direct-route value at every row of xs, from one batched sweep.

    mode 'sup' gives sup_t J(t) over [0, T_max] (INF if divergent),
    'inf' gives inf_t J(t) with the arg-min bracket golden-section
    refined to 1e-8 in t, and 'lyapunov' the 'sup' value of a problem
    whose l is 0 at every node of every path, so J = e^{at} u there and
    u(x(t)) <= e^{-at} * value holds at every node.  Each value is
    taken along the one RK4-selected solution from its row, so where
    solutions are not unique 'sup' is a lower and 'inf' an upper bound.
    The scalar operations are one-row lifts of this.  The sweep hands
    its costs over in blocks of :data:`BLOCK_FLOATS` floats of state, and
    each mode folds a block into a few running values per row before the
    next, so no mode keeps a (steps, rows) array; no value depends on the
    block size.

    Raises:
        NonFinite: if any row starts non-finite, blows up before T_max, or
            meets a NaN lagrangian or obstacle.
        NonzeroLagrangian: in mode 'lyapunov', if l is nonzero at any node
            of a row's path (naming the first such node and its lowest row).
    """
    if mode not in ("sup", "inf", "lyapunov"):
        raise ValueError("mode must be 'sup', 'inf' or 'lyapunov'")
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    m, dim = xs.shape
    times, blocks = _cost_blocks(p, xs, T_max, h, max(1, BLOCK_FLOATS // max(m * dim, 1)),
                                 zero_l=mode == "lyapunov")
    if mode == "inf":
        return _finish_inf(p, times, *_fold_inf(times, blocks, m, dim))
    return _fold_sup(times, blocks, m)


def running_cost_path(p: LagrangianProblem, x, T_max: float, h: float) -> CostPath:
    """Sampled cost J along the trajectory from x; J(0) = u(x).

    Raises:
        NonFinite: as :func:`tabulate_values` does.  The history is one
            block, so a blow-up is found once the march reaches T_max.
    """
    times, blocks = _cost_blocks(p, _one_row(x), T_max, h)
    (_, states, cum, J), = blocks  # the whole history is one block
    return CostPath(times, states[:, 0], J[:, 0], cum[:, 0], p)


def value_sup(p: LagrangianProblem, x, T_max: float, h: float) -> float:
    """sup_t J(t) over [0, T_max] along the solution from x (INF if divergent)."""
    return float(tabulate_values(p, _one_row(x), "sup", T_max, h)[0])


def value_inf(p: LagrangianProblem, x, T_max: float, h: float) -> float:
    """inf_t J(t); the arg-min bracket is golden-section refined to 1e-8 in t."""
    return float(tabulate_values(p, _one_row(x), "inf", T_max, h)[0])


def lyapunov(p: LagrangianProblem, x, T_max: float, h: float) -> float:
    """value_sup specialization for l = 0, which is checked at every node of the path.

    At every node u(x(t)) <= e^{-at} * result, as J = e^{at} u there.

    Raises:
        NonzeroLagrangian: if l is nonzero at a node of the path.
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
class EpigraphResult:
    envelope: GridFunction   # least y in the kernel/basin per state node
    time_field: GridFunction  # the raw (x, y)-grid exit/hitting field


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
    Zero samples are skipped; a non-finite sample, or no nonzero one,
    raises ValueError, and so does a non-finite velocity or a NaN
    lagrangian, naming the sample.
    """
    X = _finite_samples(np.atleast_2d(np.asarray(samples, dtype=float)))
    norms = _row_norms(X)
    keep = np.flatnonzero(norms > 0)
    if not len(keep):
        raise ValueError("repeller_condition: no nonzero sample is left")
    X, norms = X[keep], norms[keep]
    F = p.field(0.0, X)
    L = np.asarray(p.lagrangian(X, F), dtype=float)
    for what, bad, is_ in (("velocity", ~np.isfinite(F).all(axis=1), "not finite"),
                           ("lagrangian", np.isnan(L), "NaN")):
        _refuse(bad, lambda i: f"repeller_condition: the {what} at sample {keep[i]} is {is_}")
    radial = np.einsum("ij,ij->i", X, F) / norms
    gamma = float(np.min(radial / (norms + 1.0)))
    delta = float(np.min(L / (norms + 1.0)))
    return RepellerCondition(bool(p.discount + gamma > 0 and delta > 0),
                             gamma, delta, p.discount)


# ---------------------------------------------------------------------------
# Contingent epiderivatives and variational-inequality residuals
# ---------------------------------------------------------------------------


def _epiderivatives(u_field: GridFunction, X, V, h_min: Optional[float] = None,
                    h_max: Optional[float] = None):
    """(u(x), D_up u(x)(v)) at the row pairs of the (m, dim) arrays X and V.

    See :func:`epiderivative`; every base point and probe goes through
    one :meth:`GridFunction.interp_many` call.
    """
    cell = float(np.min(u_field.grid.spacing))
    hs = _ladder(4.0 * cell if h_max is None else h_max, 0.5 * cell if h_min is None else h_min)
    m, n = X.shape
    stencil = np.zeros((1 + 2 * n, n))  # v, v + delta e_0, v - delta e_0, ...; delta half a cell
    stencil[1::2], stencil[2::2] = 0.5 * cell * np.eye(n), -0.5 * cell * np.eye(n)
    hs = hs[:, None, None]
    probes = X[:, None, None] + hs * (V[:, None] + stencil)[:, None]
    u = u_field.interp_many(np.concatenate([X, probes.reshape(-1, n)]))
    u0, uv = u[:m], u[m:].reshape(probes.shape[:3])
    q = (uv - u0[:, None, None]) / hs[:, :, 0]
    # a NaN quotient never wins the scalar min, which starts at INF
    best = np.min(np.where((uv < INF) & (q < INF), q, INF), axis=(1, 2), initial=INF)
    return u0, np.where(u0 >= INF, INF, best)


def epiderivative(u_field: GridFunction, x, v, h_min: Optional[float] = None,
                  h_max: Optional[float] = None) -> float:
    """Lower difference-quotient estimate of D_up u(x)(v) on a gridded field.

    Minimizes (u(x + h v') - u(x)) / h over a geometric h-ladder (ratio
    1/2) and a small direction stencil v' = v, v +- delta e_k, with
    multilinear interpolation of the field; +inf when every probe lands
    outside the finite domain.  delta is half a grid cell, and the default
    ladder runs from 4 cells to half a cell.  A one-row lift of the batched
    estimate behind the HJ checks; a NaN x or v raises ValueError naming it.
    """
    x, v = _one_row(x), _one_row(v)
    _refuse_nan("epiderivative", x=x[0], v=v[0])
    return float(_epiderivatives(u_field, x, v, h_min, h_max)[1][0])


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
    clauses that do not apply, so it would pass unchecked.  A non-finite
    field velocity raises NonFinite naming the sample.  Autonomous: f at t = 0."""
    X = _finite_samples(np.atleast_2d(np.asarray(sample_points, dtype=float)))
    m = len(X)
    F = p.field(0.0, X)
    _refuse(~np.isfinite(F).all(axis=1),
            lambda i: f"the field velocity at sample {i} is not finite in the HJ check", NonFinite)
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
