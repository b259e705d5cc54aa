"""Reference copies of the per-sample residual loops the batched ladder replaced.

``tangent_residual``, ``frankowska_residual`` and ``phi_invariance_check`` as
they were before ``sets._tangent_residuals``: one scalar distance per rung
and one Python iteration per sample.  The output constraint was then a
``(t, x) -> SetOracle``; ``_Fiber`` builds that per-row oracle from a
batch-only ``phi_constraint(T, X, Y)``.  The tests require the batched
checks to agree with these bit for bit.
"""

import numpy as np

from viakit.characteristics import (FrankowskaReport, PhiInvarianceReport, _char_rhs,
                                    _manifold, _read)
from viakit.sets import PointCloudSet, SetOracle


def tangent_residual(K, x, v, h_min=1e-6, h_max=1e-2) -> float:
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if not K.contains(x):
        raise ValueError("tangent_residual requires x in K")
    if not (0.0 < h_min < h_max):
        raise ValueError("need 0 < h_min < h_max")
    best = np.inf
    h = h_max
    while h >= h_min * (1.0 - 1e-12):
        best = min(best, K.distance(x + h * v) / h)
        h *= 0.5
    return float(best)


def frankowska_residual(cloud, prob, n_samples, h_min=None, h_max=None,
                        interior_margin=None) -> FrankowskaReport:
    h = cloud.step
    if h_min is None:
        h_min = h
    if h_max is None:
        h_max = 8.0 * h
    if interior_margin is None:
        interior_margin = h_max + h
    oracle = PointCloudSet(cloud.points)
    tmax = float(cloud.times.max())
    seeds_t = cloud.seeds[cloud.seed_index, 0]
    eligible = np.flatnonzero(
        (cloud.times >= seeds_t + interior_margin)
        & (cloud.times <= tmax - interior_margin))
    if len(eligible) == 0:
        raise ValueError("no interior cloud points to sample")
    pick = eligible[np.linspace(0, len(eligible) - 1,
                                min(n_samples, len(eligible))).astype(int)]
    Z, n = cloud.points[pick], cloud.state_dim
    V = np.concatenate([np.ones((len(Z), 1)),
                        *_char_rhs(prob, Z[:, :1], Z[:, 1:1 + n], Z[:, 1 + n:])], axis=1)
    initial, bnd, _ = _manifold(prob.data, Z[:, 0], Z[:, 1:1 + n], prob.domain, h, prob.x_tol)
    fwd = np.array([tangent_residual(oracle, z, v, h_min=h_min, h_max=h_max)
                    for z, v in zip(Z, V)])
    bwd = np.array([np.nan if on else tangent_residual(oracle, z, -v, h_min=h_min, h_max=h_max)
                    for z, v, on in zip(Z, V, initial | bnd)])
    finite_bwd = bwd[~np.isnan(bwd)]
    return FrankowskaReport(pick, fwd, bwd, float(fwd.max()),
                            float(finite_bwd.max()) if len(finite_bwd) else 0.0)


class _Fiber(SetOracle):
    """Phi(t, x) as a set on outputs: its distances are phi_constraint's at (t, x)."""

    def __init__(self, phi_constraint, t, x, dim):
        super().__init__(dim)
        self.fn, self.t, self.x = phi_constraint, float(t), np.asarray(x, dtype=float)

    def distance_many(self, Y):
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        return self.fn(np.full((len(Y), 1), self.t), np.tile(self.x, (len(Y), 1)), Y)


def phi_invariance_check(prob, samples, h) -> PhiInvarianceReport:
    samples = [(z[0], z[1:1 + prob.state_dim], z[1 + prob.state_dim:])
               for z in np.asarray(samples, dtype=float)]

    def constraint(t, x):
        return _Fiber(prob.phi_constraint, t, x, prob.out_dim)

    T = np.array([t for t, _, _ in samples], dtype=float)
    X, Y = (np.array([np.atleast_1d(z[k]) for z in samples], dtype=float).reshape(len(T), d)
            for k, d in ((1, prob.state_dim), (2, prob.out_dim)))
    DX, DY = _char_rhs(prob, T[:, None], X, Y)
    on = np.zeros(len(X), dtype=bool) if prob.data.boundary is None else \
        prob.domain.boundary_distance_many(X) <= prob.x_tol
    U = np.asarray(prob.data.initial(X), dtype=float)
    V = _read(prob.data, X, np.zeros_like(on), on, T)
    g_res = v_dist = u_dist = 0.0
    for j, t in enumerate(T):
        best = np.inf
        eta = 8.0 * h
        while eta >= h * (1.0 - 1e-12):
            phi_set = constraint(t + eta, X[j] + eta * DX[j])
            best = min(best, phi_set.distance(Y[j] + eta * DY[j]) / eta)
            eta *= 0.5
        g_res = max(g_res, float(best))
        u_dist = max(u_dist, constraint(0.0, X[j]).distance(U[j]))
        if on[j]:
            v_dist = max(v_dist, constraint(t, X[j]).distance(V[j]))
    return PhiInvarianceReport(g_res, v_dist, u_dist)
