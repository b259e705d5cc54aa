"""Reference copy of the value engine that stored every row's whole cost history.

``tabulate_values`` as it was before the engine folded its history block by
block: one march records the (k, m, dim) state history, ``cost_history``
builds the (k, m) obstacle, running cost and J arrays from it, and the modes
finish with ``np.argmax``/``np.argmin`` over the whole of J.  Its row chunks
are left out: they changed no value.  The tests require the block-wise engine
to agree with it bit for bit.  Its 'lyapunov' mode tests l at every node of
the history, as the engine does since it stopped taking a lagrangian that is
0 at the start rows only; after that check it is 'sup', as a descent test
on u is true by construction once l = 0.
"""

import math

import numpy as np

from viakit.common import INF, _exp
from viakit.dynamics import _bisect, _finite_rows, _march, _schedule, rk4_step
from viakit.errors import NonFinite, NonzeroLagrangian


def record(field, xs, t0, t1, step, what):
    if not _finite_rows(xs).all():
        raise NonFinite(f"initial state is not finite in {what}")
    k = _schedule(t0, t1, step)[2] + 1
    times, states = np.empty(k), np.empty((k,) + xs.shape)
    times[0], states[0] = t0, xs
    live = np.ones(len(xs), dtype=bool)
    for j, (rows, t, h, _, new) in enumerate(_march(field, xs.copy(), t0, t1, step, live),
                                             start=1):
        if len(rows) < len(xs):
            raise NonFinite(f"state blew up during {what}")
        times[j], states[j] = t + h, new
    return times, states


def cost_history(p, xs, T_max, h):
    """(times, states, U, cum, J) of every row of xs over the whole horizon."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    times, states = record(p.field, xs, 0.0, T_max, h, "tabulate_values")
    k, m = states.shape[:2]
    flat = states.reshape(k * m, xs.shape[1])
    F = p.field(np.repeat(times, m)[:, None], flat)
    L = np.asarray(p.lagrangian(flat, F), dtype=float).reshape(k, m)
    U = np.asarray(p.obstacle(flat), dtype=float).reshape(k, m)
    w = np.exp(p.discount * times)[:, None]
    integrand = w * L
    cum = np.vstack([np.zeros((1, m)), np.cumsum(
        0.5 * (integrand[1:] + integrand[:-1]) * np.diff(times)[:, None], axis=0)])
    J = np.where(U >= INF, INF, w * U + cum)
    J = np.where(J > p.value_cap, INF, J)
    return times, states, U, cum, J


def values_at(p, times, states, cum, rows, t):
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
    J = _exp(p.discount * t) * ut + run
    return np.where((ut >= INF) | (J > p.value_cap), INF, J)


def finish_sup(J):
    i = np.argmax(J, axis=0)
    unbounded = np.any(J >= INF, axis=0) | (i == len(J) - 1)
    return np.where(unbounded, INF, J[i, np.arange(J.shape[1])])


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_min(values_at, rows, a, b, fa, fb, tol):
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
        left = fc_ <= fd_
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


def finish_inf(p, times, states, cum, J):
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

    def at(r, t):
        return values_at(p, times, states, cum, r, t)

    e_rows = np.concatenate([rows[left], rows[right]])
    edges = _bisect(lambda e, t: at(e_rows[e], t) < INF,
                    np.concatenate([a[left], b[right]]),
                    times[np.concatenate([i[left], i[right]])], 1e-8)
    a[left], b[right] = np.split(edges, [np.count_nonzero(left)])
    fa, fb = np.split(at(np.concatenate([rows, rows]), np.concatenate([a, b])), 2)
    r_best = best[rows]
    for v in (fa, fb):
        r_best = np.where(v < r_best, v, r_best)
    g = b > a
    gold = golden_min(at, rows[g], a[g], b[g], fa[g], fb[g], 1e-8)
    r_best[g] = np.where(gold < r_best[g], gold, r_best[g])
    best[rows] = r_best
    return best


def tabulate_values(p, xs, mode, T_max, h):
    if mode not in ("sup", "inf", "lyapunov"):
        raise ValueError("mode must be 'sup', 'inf' or 'lyapunov'")
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    times, states, _, cum, J = cost_history(p, xs, T_max, h)
    if mode == "lyapunov":  # l at every node of the whole history, first node first
        k, m = states.shape[:2]
        flat = states.reshape(k * m, xs.shape[1])
        L = np.asarray(p.lagrangian(flat, p.field(np.repeat(times, m)[:, None], flat)),
                       dtype=float)
        if np.any(L != 0.0):
            node, row = divmod(int(np.argmax(L != 0.0)), m)
            raise NonzeroLagrangian("lyapunov needs a lagrangian that is 0 at every point: "
                                    f"l = {L[node * m + row]} at row {row} and t = {times[node]}")
    if mode == "inf":
        return finish_inf(p, times, states, cum, J)
    return finish_sup(J)
