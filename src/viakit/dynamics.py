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


def rk4_step(field: VectorField, t, x: np.ndarray, h) -> np.ndarray:
    """One classical RK4 step; broadcasts over a leading batch axis of x.

    (m, dim) rows go to ``field.eval`` as they are; one (dim,) state is
    lifted to a row by ``field(t, x)``.  t and h are scalars, or (m, 1)
    columns of per-row start times and step sizes for (m, dim) rows;
    each row's arithmetic is the same either way.
    """
    f = field.eval if np.ndim(x) == 2 else field
    half = 0.5 * h
    t_half = t + half
    k1 = f(t, x)
    k2 = f(t_half, x + half * k1)
    k3 = f(t_half, x + half * k2)
    k4 = f(t + h, x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _schedule(t0, t1, step):
    """(n_full, rem, n_steps) of the steps covering [t0, t1]: the one schedule rule.

    n_full steps of size step, then a shorter tail rem when it is longer
    than ``step * 1e-9`` (n_steps counts it); a span within ``1e-9``
    steps of a multiple takes no tail.  t0 and t1 are scalars or (m,)
    per-row arrays, and so are the results.

    Raises ValueError on a non-finite t0, t1 or step, a nonpositive step,
    t1 < t0, or a step count that does not fit in int64 (a cast would wrap
    it to a negative count, and the march would take no step).
    """
    if not (np.isfinite(step) and np.all(np.isfinite(t0)) and np.all(np.isfinite(t1))):
        raise ValueError("t0, t1 and step must be finite")
    if step <= 0:
        raise ValueError("step must be positive")
    span = np.asarray(t1, dtype=float) - np.asarray(t0, dtype=float)
    if np.any(span < 0):
        raise ValueError("t1 must be >= t0")
    n_full = np.floor(span / step + 1e-9)
    if np.any(n_full >= 2.0 ** 63):
        raise ValueError(f"more than 2^63 steps of {step!r}")
    n_full = n_full.astype(int)
    rem = span - n_full * step
    return n_full, rem, n_full + (rem > step * 1e-9)


def step_schedule(t0: float, t1: float, step: float):
    """Yield (t, h) pairs covering [t0, t1] with uniform h and a shorter tail.

    Raises ValueError on a non-finite t0, t1 or step, a nonpositive step
    or t1 < t0.
    """
    n_full, rem, n_steps = _schedule(t0, t1, step)
    for j in range(n_steps):
        yield t0 + j * step, (step if j < n_full else float(rem))


def _finite_rows(x: np.ndarray) -> np.ndarray:
    """Mask of the (m, dim) rows of x whose norm is finite and at most BLOWUP_NORM."""
    norms = np.linalg.norm(x, axis=1)
    return np.isfinite(norms) & (norms <= BLOWUP_NORM)


def _clears_blowup(x: np.ndarray) -> bool:
    """True only if every row of the (m, dim) array x, m >= 1, passes :func:`_finite_rows`.

    A cheap sufficient test, not a second rule: ``max|x| * sqrt(dim) *
    (1 + 1e-12 + dim * 2**-52) < BLOWUP_NORM``.  A NaN or infinite entry
    fails it.  Otherwise every computed norm, a square root of a sum of
    dim rounded squares in any order, is at most ``max|x| * sqrt(dim) *
    (1 + 2**-53)**(dim/2 + 1)``, which the slack covers together with this
    test's own rounding; no square overflows below BLOWUP_NORM.  When it
    fails, :func:`_finite_rows` decides.
    """
    dim = x.shape[1]
    return bool(np.abs(x).max() * (math.sqrt(dim) * (1.0 + 1e-12 + dim * 2.0 ** -52))
                < BLOWUP_NORM)


def _record(field: VectorField, xs: np.ndarray, t0: float, t1: float, step: float, what: str):
    """Node times and (k, m, dim) RK4 states of the rows of xs, from :func:`_march`.

    Raises:
        NonFinite: if a row starts non-finite or blows up before t1.
    """
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


def integrate(field: VectorField, x0, t0: float, t1: float, step: float) -> Trajectory:
    """Fixed-step RK4 samples of the solution of x' = f(t, x) on [t0, t1].

    A one-row lift of the batched stepping core.

    Raises:
        NonFinite: if any state component becomes NaN/inf or the norm
            passes the blow-up guard before t1.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float))[None, :]
    times, states = _record(field, x, t0, t1, step, "integrate")
    return Trajectory(times, states[:, 0], step)


def flow(field: VectorField, t: float, x, step: float):
    """The reachable-map value at time t from x.

    Nonnegative t integrates f forward; negative t integrates the
    reversed field -f over |t| (the inverse flow).  At t = 0 x comes
    back unchanged once it passes the start check.
    """
    return integrate(field.negated() if t < 0 else field, x, 0.0, abs(t), step).states[-1]


def _march(field: VectorField, x: np.ndarray, t0, t1, step: float, live: np.ndarray):
    """The batched RK4 stepping core behind every row sweep; a generator.

    Advances the live rows of x (shape (m, dim)) from t0 to t1, each row
    on :func:`_schedule`'s nodes: ``t0 + j*step`` and a shorter tail.  t0
    and t1 are scalars or (m,) per-row arrays; per-row times reach the
    field as (k, 1) columns.  Non-finite times or steps raise ValueError.
    A stepped row that fails :func:`_finite_rows` is retired (live
    cleared) and set to NaN.  Callers retire rows by clearing ``live`` in
    place, for the rows just yielded.

    Only the rows live at the start are stepped, held in one work array:
    on per-row schedules ordered by step count, descending, so the rows
    still stepping are a prefix.  Rows that finish their schedule, are
    retired or blow up leave it, and the rest are compacted.  x is
    written when rows leave and at the end, so when the march ends it
    holds each row's last state (a retired row's state at retirement,
    NaN for a blow-up); during the march it is stale.

    Yields (rows, t, h, prev, new) after each step: the indices of the
    rows just advanced, their start times and step sizes (scalars, or
    (k, 1) columns for per-row schedules), and their (k, dim) states
    before and after the step, in the order of rows.  That order is
    ascending except on per-row schedules.  None of them is to be
    written, nor kept past the next step.
    """
    n_full, rem, n_steps = _schedule(t0, t1, step)
    per_row = np.ndim(n_steps) > 0
    # every row live on a shared schedule: x itself is the first work array,
    # and no step takes an index array until a row leaves
    whole = not per_row and live.all()
    rows = np.arange(len(x)) if whole else np.flatnonzero(live)
    sched = ()
    if per_row:
        rows = rows[np.argsort(-n_steps[rows], kind="stable")]
        t0 = np.broadcast_to(np.asarray(t0, dtype=float), live.shape)
        sched = (t0[rows], n_full[rows], rem[rows], -n_steps[rows])
    w = x if whole else x[rows]
    for j in range(int(np.max(n_steps, initial=0))):
        if per_row:
            # the rows whose schedule has ended are the suffix past k
            k = int(np.searchsorted(sched[3], -j))
            if k < len(rows):
                x[rows[k:]] = w[k:]
                rows, w, sched = rows[:k], w[:k], tuple(a[:k] for a in sched)
            t = (sched[0] + j * step)[:, None]
            h = np.where(sched[1] > j, step, sched[2])[:, None]
        else:
            t, h = t0 + j * step, (step if j < n_full else float(rem))
        if len(rows) == 0:
            break
        prev, w = w, rk4_step(field, t, w, h)
        if not _clears_blowup(w):
            good = _finite_rows(w)
            if not good.all():
                live[rows[~good]] = False
                x[rows[~good]] = np.nan
                whole = False
                rows, prev, w = rows[good], prev[good], w[good]
                sched = tuple(a[good] for a in sched)
                if per_row:
                    t, h = t[good], h[good]
        yield rows, t, h, prev, w
        keep = live if whole else live[rows]
        if not keep.all():
            x[rows[~keep]] = w[~keep]
            whole = False
            rows, w, sched = rows[keep], w[keep], tuple(a[keep] for a in sched)
    x[slice(None) if whole else rows] = w


def _advance(field: VectorField, x: np.ndarray, t0, t1, step: float) -> np.ndarray:
    """March every row of x (in place) from t0 to t1; the live mask at the end.

    Rows that blew up are NaN with live False; times are as in :func:`_march`.
    """
    live = np.ones(len(x), dtype=bool)
    for _ in _march(field, x, t0, t1, step, live):
        pass
    return live


def _bisect(test, t_false, t_true, tol):
    """Per entry, shrink [t_false, t_true] (either order) to tol; the t_true ends.

    The one batched bisection behind event refinement and the value
    engine's finite-edge search.  tol is a scalar or per entry.  Each
    round bisects every entry still wider than tol at its midpoint and
    calls the batched predicate ``test(idx, mid)`` for the entries idx;
    where it holds the midpoint becomes the new t_true end, else the new
    t_false end.  Stops after 80 rounds.  An entry's result does not
    depend on the entries it is batched with.
    """
    t_false, t_true = np.array(t_false, dtype=float), np.array(t_true, dtype=float)
    tol = np.broadcast_to(tol, t_true.shape)
    idx = np.arange(len(t_true))
    for _ in range(80):
        idx = idx[np.abs(t_true[idx] - t_false[idx]) > tol[idx]]
        if len(idx) == 0:
            break
        mid = 0.5 * (t_false[idx] + t_true[idx])
        hit = test(idx, mid)
        t_true[idx] = np.where(hit, mid, t_true[idx])
        t_false[idx] = np.where(hit, t_false[idx], mid)
    return t_true


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
    return x, _advance(field, x, 0.0, t, step)


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
    # one 1-D dot product per entry: a matrix product rounds a row by its batch
    return VectorField(n, lambda t, x: np.vecdot(x[..., None, :], A), growth_c=nrm,
                       lipschitz=nrm, name="linear")


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
        out = np.empty_like(x)
        out[...] = v
        return out

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
