"""Time-dependent vector fields and fixed-step RK4 flows.

The integrator is classical fourth-order Runge-Kutta with a user-chosen
step; the last interval of a trajectory may be shorter so the final node
lands exactly on the requested end time.  Time-dependent right-hand
sides are supported directly: ``eval`` receives ``t``, no augmented
state is materialized.

Everything here is pure.  ``VectorField.eval`` must be safe to call
concurrently and is batch-only: it receives ``x`` as ``(m, dim)`` rows
and ``t`` as a scalar or an ``(m, 1)`` per-row column.  Single states
are lifted to one row by ``VectorField.__call__``.  Every row sweep
(reachable sets, event sweeps, graph sweeps, value tabulation) steps
through one batched RK4 core, :func:`_march`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .common import BLOWUP_NORM
from .errors import NonFinite


@dataclass(frozen=True)
class VectorField:
    """Right-hand side ``(t, x) -> dx/dt`` with declared constants.

    Attributes:
        dim: state dimension.
        eval: batch-only callable ``(t, x) -> velocity`` of shape
            ``(m, dim)``; ``x`` arrives as ``(m, dim)`` rows and ``t`` as
            a scalar or an ``(m, 1)`` per-row column.
        growth_c: optional c with ``|f(t,x)| <= c (|x| + 1)`` (checked on
            test lattices, see :func:`verify_growth`).
        lipschitz: optional Lipschitz constant in x.
        monotone_mu: optional mu with
            ``<f(t,x1) - f(t,x2), x1 - x2> <= -mu |x1 - x2|^2``.
    """

    dim: int
    eval: Callable
    growth_c: Optional[float] = None
    lipschitz: Optional[float] = None
    monotone_mu: Optional[float] = None
    name: str = "field"

    def __call__(self, t, x):
        """Velocity at ``(m, dim)`` rows, or at one ``(dim,)`` state lifted to a row."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return np.asarray(self.eval(t, x[None, :]), dtype=float)[0]
        return np.asarray(self.eval(t, x), dtype=float)

    def negated(self) -> "VectorField":
        """The reversed field -f (backward flow generator)."""
        f = self.eval
        mu = None if self.monotone_mu is None else -self.monotone_mu
        return replace(
            self,
            eval=lambda t, x: -np.asarray(f(t, x), dtype=float),
            monotone_mu=mu,
            name="-" + self.name,
        )


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution (t_i, x_i) with uniform step (last interval may be shorter)."""

    times: np.ndarray
    states: np.ndarray
    step: float

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        if states.ndim == 1:
            states = states[:, None]
        if len(times) != len(states):
            raise ValueError("times and states must have equal length")
        if len(times) > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        times.flags.writeable = False
        states.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    def __len__(self):
        return len(self.times)

    @property
    def dim(self):
        return self.states.shape[1]

    def state_at(self, t: float) -> np.ndarray:
        """Piecewise-linear interpolation between stored nodes."""
        times, states = self.times, self.states
        if t <= times[0]:
            return states[0].copy()
        if t >= times[-1]:
            return states[-1].copy()
        j = int(np.searchsorted(times, t, side="right")) - 1
        w = (t - times[j]) / (times[j + 1] - times[j])
        return (1.0 - w) * states[j] + w * states[j + 1]


def rk4_step(field: VectorField, t, x: np.ndarray, h) -> np.ndarray:
    """One classical RK4 step; broadcasts over a leading batch axis of x.

    t and h are scalars, or (m, 1) columns of per-row start times and
    step sizes for (m, dim) rows; each row's arithmetic is the same
    either way.
    """
    half = 0.5 * h
    k1 = field(t, x)
    k2 = field(t + half, x + half * k1)
    k3 = field(t + half, x + half * k2)
    k4 = field(t + h, x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step_schedule(t0: float, t1: float, step: float):
    """Yield (t, h) pairs covering [t0, t1] with uniform h and a shorter tail.

    Raises ValueError on a non-finite t0, t1 or step, a nonpositive step
    or t1 < t0.
    """
    if not (math.isfinite(t0) and math.isfinite(t1) and math.isfinite(step)):
        raise ValueError("t0, t1 and step must be finite")
    if step <= 0:
        raise ValueError("step must be positive")
    span = t1 - t0
    if span < 0:
        raise ValueError("t1 must be >= t0")
    n_full = int(np.floor(span / step + 1e-9))
    for j in range(n_full):
        yield t0 + j * step, step
    rem = span - n_full * step
    if rem > step * 1e-9:
        yield t0 + n_full * step, rem


def _check_finite(x: np.ndarray, context: str):
    if not np.all(np.isfinite(x)) or np.linalg.norm(np.atleast_1d(x)) > BLOWUP_NORM:
        raise NonFinite(f"state blew up during {context}")


def integrate(field: VectorField, x0, t0: float, t1: float, step: float) -> Trajectory:
    """Fixed-step RK4 samples of the solution of x' = f(t, x) on [t0, t1].

    Raises:
        NonFinite: if any state component becomes NaN/inf or the norm
            passes the blow-up guard before t1.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    _check_finite(x, "integrate (initial state)")
    times = [t0]
    states = [x]
    for t, h in step_schedule(t0, t1, step):
        x = rk4_step(field, t, x, h)
        _check_finite(x, "integrate")
        times.append(t + h)
        states.append(x)
    return Trajectory(np.array(times), np.array(states), step)


def flow(field: VectorField, t: float, x, step: float):
    """The reachable-map value at time t from x.

    Nonnegative t integrates f forward; negative t integrates the
    reversed field -f over |t| (the inverse flow).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if t == 0:
        return x.copy()
    if t < 0:
        return integrate(field.negated(), x, 0.0, -t, step).states[-1]
    return integrate(field, x, 0.0, t, step).states[-1]


def _march(field: VectorField, x: np.ndarray, t0, t1, step: float, live: np.ndarray):
    """The batched RK4 stepping core behind every row sweep; a generator.

    Advances the live rows of x (shape (m, dim), updated in place) from
    t0 to t1, each row on :func:`step_schedule`'s nodes: ``t0 + j*step``
    and a shorter tail.  t0 and t1 are scalars or (m,) per-row arrays;
    per-row times reach the field as (k, 1) columns.  Non-finite times or
    steps raise ValueError.  A stepped row whose norm is not finite or
    passes BLOWUP_NORM is retired (live cleared) and set to NaN.  Callers
    retire rows by clearing ``live`` in place.

    Yields (rows, t, h, prev) after each step: the indices of the rows
    just advanced, their start times and step sizes (scalars, or (k, 1)
    columns for per-row schedules) and their states before the step.
    """
    if not (np.isfinite(step) and np.all(np.isfinite(t0)) and np.all(np.isfinite(t1))):
        raise ValueError("t0, t1 and step must be finite")
    if step <= 0:
        raise ValueError("step must be positive")
    per_row = np.ndim(t0) > 0 or np.ndim(t1) > 0
    if per_row:
        t0 = np.broadcast_to(np.asarray(t0, dtype=float), live.shape)
    span = np.asarray(t1, dtype=float) - t0
    if np.any(span < 0):
        raise ValueError("t1 must be >= t0")
    n_full = np.floor(span / step + 1e-9).astype(int)
    rem = span - n_full * step
    n_steps = n_full + (rem > step * 1e-9)
    for j in range(int(np.max(n_steps, initial=0))):
        rows = np.flatnonzero(live & (n_steps > j) if per_row else live)
        if len(rows) == 0:
            break
        if per_row:
            t = (t0[rows] + j * step)[:, None]
            h = np.where(n_full[rows] > j, step, rem[rows])[:, None]
        else:
            t, h = t0 + j * step, (step if j < n_full else float(rem))
        prev = x[rows]
        xn = rk4_step(field, t, prev, h)
        norms = np.linalg.norm(xn, axis=1)
        good = np.isfinite(norms) & (norms <= BLOWUP_NORM)
        if not good.all():
            live[rows[~good]] = False
            x[rows[~good]] = np.nan
            rows, prev, xn = rows[good], prev[good], xn[good]
            if per_row:
                t, h = t[good], h[good]
        x[rows] = xn
        yield rows, t, h, prev


def reach_set(field: VectorField, t: float, seeds, step: float):
    """Pointwise image of the seed list at time t >= 0, order preserved.

    Returns:
        (states, ok): an (m, dim) array and a boolean mask; rows whose
        integration blew up are NaN with ok=False, the rest are exact
        flow values.
    """
    if t < 0:
        raise ValueError("reach_set requires t >= 0")
    x = np.atleast_2d(np.asarray(seeds, dtype=float)).copy()
    ok = np.ones(len(x), dtype=bool)
    for _ in _march(field, x, 0.0, t, step, ok):
        pass
    return x, ok


def verify_growth(field: VectorField, states, times=(0.0,)) -> float:
    """Max of |f(t,x)| / (|x|+1) over a test lattice (should be <= growth_c)."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    worst = 0.0
    for t in times:
        v = field(t, states)
        ratio = np.linalg.norm(v, axis=1) / (np.linalg.norm(states, axis=1) + 1.0)
        worst = max(worst, float(ratio.max()))
    return worst


# ---------------------------------------------------------------------------
# Built-in field library (also exposed through the batch front-end).
# ---------------------------------------------------------------------------


def linear_field(a, dim: int = 1) -> VectorField:
    """f(x) = a x for scalar a, or f(x) = A x for a square matrix A."""
    A = np.asarray(a, dtype=float)
    if A.ndim == 0:
        c = abs(float(A))
        return VectorField(dim, lambda t, x: float(A) * x, growth_c=c,
                           lipschitz=c, monotone_mu=-float(A), name="linear")
    n = A.shape[0]
    nrm = float(np.linalg.norm(A, 2))
    return VectorField(n, lambda t, x: x @ A.T, growth_c=nrm, lipschitz=nrm,
                       name="linear")


def rotation_field(omega: float = 1.0) -> VectorField:
    """Planar rotation f(x) = omega (-x2, x1); norm preserving."""

    def ev(t, x):
        out = np.empty_like(x)
        out[..., 0] = -omega * x[..., 1]
        out[..., 1] = omega * x[..., 0]
        return out

    return VectorField(2, ev, growth_c=abs(omega), lipschitz=abs(omega),
                       name="rotation")


def logistic_field(beta: float, b: float) -> VectorField:
    """Scalar logistic y' = beta (b - y) y."""

    def ev(t, x):
        return beta * (b - x) * x

    # growth bound valid on the invariant band [0, b]
    c = abs(beta) * abs(b)
    return VectorField(1, ev, growth_c=c, name="logistic")


def logistic_closed_form(beta: float, b: float, y0: float, t) -> float:
    """Closed-form logistic solution b / (1 + (b/y0 - 1) e^{-b beta t})."""
    return b / (1.0 + (b / y0 - 1.0) * np.exp(-b * beta * np.asarray(t)))


def transport_field(velocity) -> VectorField:
    """Constant-velocity field f(x) = v."""
    v = np.atleast_1d(np.asarray(velocity, dtype=float))

    def ev(t, x):
        return np.broadcast_to(v, x.shape).copy()

    return VectorField(len(v), ev, growth_c=float(np.linalg.norm(v)),
                       lipschitz=0.0, name="transport")


def demographic_field(rho: float, sigma: float, beta: float, b: float) -> VectorField:
    """The 4D demographic characteristic field (1, -rho x2, sigma x3, beta (b - x4) x4)."""

    def ev(t, x):
        out = np.empty_like(x)
        out[..., 0] = 1.0
        out[..., 1] = -rho * x[..., 1]
        out[..., 2] = sigma * x[..., 2]
        out[..., 3] = beta * (b - x[..., 3]) * x[..., 3]
        return out

    return VectorField(4, ev, name="demographic")
