"""Reference copies of the per-row data-manifold rules.

``boundary_trace`` (one foot at a time), the per-kind ``distance`` and
``boundary_distance`` rules of the set oracles, the per-point
characteristic solve and the ``Demo4D`` closed form, as they were before
the batched manifold read, the ``*_many`` set rules and the batched closed
form.  Only the complement's boundary distance differs: it is its base's,
where it used to be ``abs(base.margin)``.  Data functions are batch-only,
so each is called on one row.  The tests require the library to agree
with these bit for bit (distances up to the sign of a zero).
"""

import math

import numpy as np

import viakit as vk
from viakit import sets
from viakit.common import INF


def distance(K, x) -> float:
    x = np.asarray(x, dtype=float)
    if isinstance(K, sets.Box):
        return float(np.linalg.norm(np.maximum(np.maximum(K.lo - x, x - K.hi), 0.0)))
    if isinstance(K, (sets.Ball, sets.Halfspace)):
        return max(K.margin(x), 0.0)
    if isinstance(K, sets.PointCloudSet):
        return float(K._tree.query(x)[0]) if K._tree is not None else INF
    if isinstance(K, sets.Product):
        return float(np.sqrt(sum(distance(f, x[s]) ** 2 for f, s in zip(K.factors, K._slices))))
    if isinstance(K, sets.Union):
        return min(distance(m, x) for m in K.members)
    if isinstance(K, sets.Intersection):
        return max(distance(m, x) for m in K.members)
    if isinstance(K, sets.Complement):
        return max(-K.base.margin(x), 0.0)
    return max(K.margin(x), 0.0) / K.lipschitz  # sublevel


def boundary_distance(K, x) -> float:
    x = np.asarray(x, dtype=float)
    if isinstance(K, sets.Box):
        if K.margin(x) > 0.0:
            return distance(K, x)
        gaps = np.minimum(x - K.lo, K.hi - x)
        gaps = gaps[np.isfinite(gaps)]
        return float(gaps.min()) if len(gaps) else INF
    if isinstance(K, (sets.Ball, sets.Halfspace)):
        return abs(K.margin(x))
    if isinstance(K, sets.Product):
        if K.margin(x) > 0.0:
            return distance(K, x)
        return min(boundary_distance(f, x[s]) for f, s in zip(K.factors, K._slices))
    if isinstance(K, sets.Union):
        return min(boundary_distance(m, x) for m in K.members)
    if isinstance(K, sets.Intersection):
        if K.margin(x) > 0.0:
            return distance(K, x)
        return min(abs(m.margin(x)) for m in K.members)
    if isinstance(K, sets.Complement):
        return boundary_distance(K.base, x)
    raise vk.Unsupported(f"boundary_distance not available for kind {K.kind!r}")


def boundary_trace(data, s, c, K, s_tol=1e-9, x_tol=1e-6):
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if s <= s_tol:
        return np.asarray(data.initial(c[None, :]), dtype=float)[0]
    if data.boundary is None:
        return None
    if boundary_distance(K, c) > x_tol:
        return None
    if data.impulse_times is not None:
        ts = np.asarray(data.impulse_times, dtype=float)
        k = int(np.argmin(np.abs(ts - s)))
        if abs(ts[k] - s) > s_tol:
            return None
        s = float(ts[k])
    return np.asarray(data.boundary(np.array([[s]]), c[None, :]), dtype=float)[0]


def solve_char(prob, t, x, h):
    """The per-point solver the batched one replaced, step for step."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if t == 0.0:
        tau = 0.0
    else:
        ex = vk.exit_time(prob.phi.negated(), prob.domain, x, t, h, refine_tol=1e-8)
        tau = t if ex >= INF else min(ex, t)
    s = t - tau
    c = x.copy() if tau == 0.0 else vk.flow(prob.phi, -tau, x, h)
    y0 = boundary_trace(prob.data, s, c, prob.domain, s_tol=h, x_tol=prob.x_tol)
    if y0 is None or t - s <= 0.0:
        return y0
    n = prob.state_dim
    coupled = vk.VectorField(n + prob.out_dim, lambda tt, z: np.concatenate(
        [prob.phi(tt, z[:, :n]), prob.g(tt, z[:, :n], z[:, n:])], axis=1))
    return vk.integrate(coupled, np.concatenate([c, y0]), s, t, h).states[-1][n:]


def demo4d_value(o, t, x):
    """The closed form of the Demo4D o at one point (t, x), regime by regime."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    tau2 = math.log(o.r2 / x[1]) / o.rho
    tau = min(t, x[0], tau2)

    def backtrack(y, tau):
        return np.array([
            y[0] - tau,
            math.exp(o.rho * tau) * y[1],
            math.exp(-o.sigma * tau) * y[2],
            o.b / (1.0 + (o.b / y[3] - 1.0) * math.exp(o.beta * o.b * tau)),
        ])

    s, c = t - tau, backtrack(x, tau)
    if t <= min(x[0], tau2):
        data = o.u0(c[None, :])
    elif x[0] <= min(t, tau2):
        data = o.v1(np.array([[s]]), c[None, [1, 2, 3]])
    else:
        data = o.v_r2(np.array([[s]]), c[None, [0, 2, 3]])
    if t <= s:
        factor = 1.0
    elif not callable(o.A):
        factor = math.exp(-float(o.A) * (t - s))
    else:
        taus = np.linspace(s, t, 129)
        vals = np.array([o.A(np.array([[tau]]), backtrack(x, t - tau)[None, :])[0]
                         for tau in taus])
        hq = (t - s) / (len(taus) - 1)
        integral = hq / 3.0 * (vals[0] + vals[-1]
                               + 4.0 * vals[1:-1:2].sum() + 2.0 * vals[2:-2:2].sum())
        factor = math.exp(-integral)
    return factor * np.asarray(data, dtype=float)[0]
