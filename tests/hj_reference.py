"""Reference copies of the per-sample HJ residual loops the batched pass replaced.

``interp``, ``epiderivative``, ``hj_check_sup`` and ``hj_check_inf`` as they
were before ``GridFunction.interp_many``: one scalar interpolation per probe
and one Python iteration per sample.  The tests require the batched pass to
agree with them bit for bit.
"""

from typing import Optional

import numpy as np

from viakit.common import INF
from viakit.epi_hj import HJReport


def interp(u_field, x) -> float:
    g = u_field.grid
    x = np.atleast_1d(np.asarray(x, dtype=float))
    sp = g.spacing
    if np.any(x < g.lo - 1e-9 * sp) or np.any(x > g.hi + 1e-9 * sp):
        return INF
    pos = (x - g.lo) / sp
    base = np.clip(np.floor(pos).astype(int), 0, g.counts - 1)
    frac = pos - base
    shape = g.shape
    total, wsum = 0.0, 0.0
    for corner in range(1 << g.dim):
        offs = np.array([(corner >> k) & 1 for k in range(g.dim)])
        w = float(np.prod(np.where(offs == 1, frac, 1.0 - frac)))
        if w < 1e-12:
            continue
        idx = np.ravel_multi_index(tuple(base + offs), shape)
        v = u_field.values[idx]
        if v >= INF:
            return INF
        total += w * v
        wsum += w
    return total / wsum if wsum > 0 else INF


def epiderivative(u_field, x, v, h_min: Optional[float] = None,
                  h_max: Optional[float] = None, perturb: Optional[float] = None) -> float:
    g = u_field.grid
    cell = float(np.min(g.spacing))
    if h_max is None:
        h_max = 4.0 * cell
    if h_min is None:
        h_min = 0.5 * cell
    if perturb is None:
        perturb = 0.5 * cell
    x = np.atleast_1d(np.asarray(x, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    u0 = interp(u_field, x)
    if u0 >= INF:
        return INF
    dirs = [v]
    for k in range(g.dim):
        e = np.zeros(g.dim)
        e[k] = perturb
        dirs.extend([v + e, v - e])
    best = INF
    h = h_max
    while h >= h_min * (1.0 - 1e-12):
        for d in dirs:
            uv = interp(u_field, x + h * d)
            if uv < INF:
                best = min(best, (uv - u0) / h)
        h *= 0.5
    return best


def hj_check_sup(p, u_field, sample_points, tol: float = 0.05,
                 comp_tol: Optional[float] = None) -> HJReport:
    if comp_tol is None:
        comp_tol = tol
    X = np.atleast_2d(np.asarray(sample_points, dtype=float))
    m = len(X)
    r_fwd = np.full(m, np.nan)
    r_bwd = np.full(m, np.nan)
    comp = np.zeros(m)
    violations = []
    F = p.field(0.0, X)
    L = np.asarray(p.lagrangian(X, F), dtype=float)
    U = np.asarray(p.obstacle(X), dtype=float)
    for i in range(m):
        v = interp(u_field, X[i])
        if v >= INF:
            continue
        if v < U[i] - comp_tol:
            violations.append(("obstacle", i, float(U[i] - v)))
        r_fwd[i] = epiderivative(u_field, X[i], F[i]) + L[i] + p.discount * v
        if r_fwd[i] > tol:
            violations.append(("forward", i, float(r_fwd[i])))
        if U[i] < v - comp_tol:
            r_bwd[i] = epiderivative(u_field, X[i], -F[i]) - L[i] - p.discount * v
            comp[i] = max(r_bwd[i], 0.0)
            if r_bwd[i] > tol:
                violations.append(("complementarity", i, float(r_bwd[i])))
    return HJReport(X, r_fwd, r_bwd, comp, violations, tol)


def hj_check_inf(p, u_field, sample_points, tol: float = 0.05,
                 comp_tol: Optional[float] = None) -> HJReport:
    if comp_tol is None:
        comp_tol = tol
    X = np.atleast_2d(np.asarray(sample_points, dtype=float))
    m = len(X)
    r_fwd = np.full(m, np.nan)
    r_bwd = np.full(m, np.nan)
    comp = np.zeros(m)
    violations = []
    F = p.field(0.0, X)
    L = np.asarray(p.lagrangian(X, F), dtype=float)
    U = np.asarray(p.obstacle(X), dtype=float)
    for i in range(m):
        v = interp(u_field, X[i])
        if v >= INF:
            continue
        if v < -comp_tol:
            violations.append(("lower-bound", i, float(-v)))
        if v > U[i] + comp_tol:
            violations.append(("upper-bound", i, float(v - U[i])))
        if v < U[i] - comp_tol:
            r_fwd[i] = epiderivative(u_field, X[i], F[i]) + L[i] + p.discount * v
            comp[i] = max(r_fwd[i], 0.0)
            if r_fwd[i] > tol:
                violations.append(("forward", i, float(r_fwd[i])))
        r_bwd[i] = epiderivative(u_field, X[i], -F[i]) - L[i] - p.discount * v
        if r_bwd[i] > tol:
            violations.append(("backward", i, float(r_bwd[i])))
    return HJReport(X, r_fwd, r_bwd, comp, violations, tol)


def same_report(got: HJReport, ref: HJReport) -> bool:
    """Every array bitwise equal (NaN where NaN) and the same violation list."""
    return all(a.tobytes() == b.tobytes() for a, b in (
        (got.samples, ref.samples), (got.residual_fwd, ref.residual_fwd),
        (got.residual_bwd, ref.residual_bwd), (got.complementarity, ref.complementarity))) \
        and got.violations == ref.violations and got.tol == ref.tol
