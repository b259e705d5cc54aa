"""Projected Euler steps that force trajectories to remain in a closed set.

Each step moves by the raw Euler increment and projects the result back
onto K, so the realized per-step velocity u_j = (x_{j+1} - x_j) / h is a
substitute for f(t_j, x_j); the gap max_j |f(t_j,x_j) - u_j| is reported
and vanishes with h wherever f is tangent to K.  Projection happens after
each full Euler step, not mid-step.

Where the tangency condition fails (e.g. an outward field at the edge of
an interval) the scheme sticks to the boundary; that behavior is
implementation-defined, not a convergence claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory, VectorField, step_schedule
from .errors import NonFinite
from .sets import SetOracle


@dataclass(frozen=True)
class ViableResult:
    """Projected-Euler output: nodes plus the scheme's error diagnostics."""

    trajectory: Trajectory
    substitution_error: float  # max_j |f(t_j, x_j) - u_j|
    max_set_distance: float    # max_j distance(K, x_j)


def _velocity(field: VectorField, t: float, x: np.ndarray, where: str) -> np.ndarray:
    """f(t, x); NonFinite naming where when an entry is not finite."""
    fx = field(t, x)
    if not np.isfinite(fx).all():
        raise NonFinite(f"the field is not finite at t = {t} in {where}")
    return fx


def viable_step(field: VectorField, K: SetOracle, t: float, x, h: float) -> np.ndarray:
    """One projected Euler step: project(K, x + h f(t, x))."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if h <= 0:
        raise ValueError("h must be positive")
    if not K.contains(x):
        raise ValueError("viable_step requires x in K")
    return K.project(x + h * _velocity(field, t, x, "viable_step"))


def viable_trajectory(field: VectorField, K: SetOracle, x0, T: float, h: float) -> ViableResult:
    """Projected-Euler nodes on [0, T]; every node lies in K."""
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    if not K.contains(x):
        raise ValueError("viable_trajectory requires x0 in K")
    times = [0.0]
    states = [x]
    sub_err = 0.0
    max_dist = K.distance(x)
    for j, (t, hj) in enumerate(step_schedule(0.0, T, h)):
        fx = _velocity(field, t, x, f"step {j} of viable_trajectory")
        x_next = K.project(x + hj * fx)
        u = (x_next - x) / hj
        sub_err = max(sub_err, float(np.linalg.norm(fx - u)))
        max_dist = max(max_dist, K.distance(x_next))
        times.append(t + hj)
        states.append(x_next)
        x = x_next
    traj = Trajectory(np.array(times), np.array(states), h)
    return ViableResult(traj, sub_err, max_dist)
