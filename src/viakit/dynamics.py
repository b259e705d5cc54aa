"""Time-dependent vector fields and fixed-step RK4 flows.

The integrator is classical fourth-order Runge-Kutta with a user-chosen
step; the last interval of a trajectory may be shorter so the final node
lands exactly on the requested end time.  Time-dependent right-hand
sides are supported directly: ``eval`` receives ``t``, no augmented
state is materialized.

Everything here is pure.  ``VectorField.eval`` must be safe to call
concurrently and is batch-only: it receives ``x`` as ``(m, dim)`` rows
and ``t`` as a scalar or an ``(m, 1)`` per-row column.  The toolkit
only reads what a field, lagrangian or obstacle returns, so it may be a
shared read-only array.  Single states are lifted to one row by
``VectorField.__call__``.  Every step is :func:`rk4_step` on
:func:`_schedule`'s nodes.  The sweeps that retire rows (reachable sets,
event sweeps, graph sweeps) march through one live-row core,
:func:`_march`, with one blow-up policy; value tabulation
(:func:`_record`) retires no row and steps every row itself.

A constant field (:func:`transport_field` and its :meth:`VectorField.negated`)
has a :class:`_Constant` evaluator, which holds the step's stage sum
``((v + 2 v) + 2 v) + v``: its four stages all see v.  :func:`rk4_step`
steps float64 rows of such a field in one add, with the operations of the
plain expression per entry and so with its bits.  ``replace(field,
eval=...)`` puts another evaluator in place, which leaves that path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .common import (BLOWUP_NORM, _FLOAT64, _Filled, _finite_samples, _frozen, _one_row,
                     _refuse, _row_norms)
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
        monotone_mu: optional mu with
            ``<f(t,x1) - f(t,x2), x1 - x2> <= -mu |x1 - x2|^2``.
    """

    dim: int
    eval: Callable
    growth_c: Optional[float] = None
    monotone_mu: Optional[float] = None
    name: str = "field"

    def __call__(self, t, x):
        """Velocity at ``(m, dim)`` rows, or at one ``(dim,)`` state lifted to a row.

        The rows' velocity is what ``eval`` returns, which may be shared and
        read-only; the one state's velocity is an array of its own.
        """
        x = np.asarray(x, dtype=float)
        v = np.asarray(self.eval(t, _one_row(x) if x.ndim == 1 else x), dtype=float)
        return v[0].copy() if x.ndim == 1 else v

    def negated(self) -> "VectorField":
        """The reversed field -f (backward flow generator)."""
        f = self.eval
        mu = None if self.monotone_mu is None else -self.monotone_mu
        return replace(
            self,
            # -v is exact, so a constant field stays one: a shared block and a one-add step
            eval=(_Constant(-f.velocity) if type(f) is _Constant
                  else lambda t, x: -np.asarray(f(t, x), dtype=float)),
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
        times, states = _frozen(self.times, float), _frozen(self.states, float)
        if states.ndim == 1:
            states = states[:, None]
        if len(times) != len(states):
            raise ValueError("times and states must have equal length")
        if len(times) > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    def __len__(self):
        return len(self.times)

    @property
    def dim(self):
        return self.states.shape[1]


def _add_into(x, y):
    """x + y, written into y when y can hold the sum exactly, else a fresh array.

    y must be an array the caller made and no one else has seen.  Under
    ``casting="safe"`` numpy refuses the write (TypeError) when the sum's
    dtype is wider than y's, and refuses it (ValueError) when x broadcasts
    y to a larger shape, so a write that goes through has the bits and the
    dtype of ``x + y``.
    """
    try:
        return np.add(x, y, out=y, casting="safe")
    except (TypeError, ValueError):
        return x + y


def rk4_step(field: VectorField, t, x: np.ndarray, h) -> np.ndarray:
    """One classical RK4 step; broadcasts over a leading batch axis of x.

    (m, dim) rows go to ``field.eval`` as they are; one (dim,) state is
    lifted to a row by ``field(t, x)``.  t and h are scalars, or (m, 1)
    columns of per-row start times and step sizes for (m, dim) rows;
    each row's arithmetic is the same either way.

    The result is ``x + (h / 6) * (k1 + 2 k2 + 2 k3 + k4)`` on the stage
    points ``x + (h / 2) k1``, ``x + (h / 2) k2`` and ``x + h k3``, with
    the operations of that plain expression in its order, bit for bit.  A
    step writes only into arrays it made itself: each stage point is
    summed into its own product (``(h / 2) k1``, ``(h / 2) k2``, ``h k3``)
    before the field sees it, and the weighted sum accumulates in
    ``2 k2``, which is returned.  It never writes into x, a field's output
    or a stage point the field has seen, so a field may return its input
    or a cached array.  Where a velocity is not x's dtype and shape (a
    float32 velocity for float64 rows, or an (m, 1) velocity for (m, 2)
    rows), a stage point that its product cannot hold exactly is left to
    numpy to allocate, and so is the whole weighted sum when ``2 k2``
    cannot hold it: the step returns the plain expression's bits, dtype
    and shape.

    A field whose evaluator is a :class:`_Constant` (:func:`transport_field`
    and its negation) steps plain native-float64 (m, dim) rows in one add,
    ``x + (h / 6) * s``, with the evaluator's stage sum s: the plain
    expression's operations per entry, so the same bits, dtype and shape,
    and no call of the evaluator.  It leaves out only the plain step's
    overflow warning for a velocity past about 3e307.  Other rows (float32,
    a (dim,) state, rows of another width than v, not an ndarray) and a
    field whose evaluator was replaced take the general step.
    """
    f = field.eval
    if (type(f) is _Constant and type(x) is np.ndarray and x.dtype is _FLOAT64
            and x.shape[1:] == f.s.shape):
        return x + (h / 6.0) * f.s
    if x.ndim != 2:
        f = field
    half = 0.5 * h
    t_half = t + half
    k1 = f(t, x)
    k2 = f(t_half, _add_into(x, half * k1))
    k3 = f(t_half, _add_into(x, half * k2))
    k4 = f(t + h, _add_into(x, h * k3))
    sixth = h / 6.0
    acc = 2.0 * k2
    try:
        np.add(k1, acc, out=acc, casting="safe")
        np.add(acc, 2.0 * k3, out=acc, casting="safe")
        np.add(acc, k4, out=acc, casting="safe")
        np.multiply(sixth, acc, out=acc, casting="safe")
        return np.add(x, acc, out=acc, casting="safe")
    except (TypeError, ValueError):  # acc cannot hold a sum exactly: see _add_into
        return x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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
    with np.errstate(over="ignore"):  # rows past about 1.3e154 overflow their squares
        norms = _row_norms(x)
    return np.isfinite(norms) & (norms <= BLOWUP_NORM)


def _clears_blowup(x: np.ndarray) -> bool:
    """True only if every row of the (m, dim) array x, m >= 1, passes :func:`_finite_rows`.

    A cheap sufficient test, not a second rule: ``max|x| * sqrt(dim) *
    (1 + 1e-12 + dim * 2**-52) < BLOWUP_NORM``.  A NaN or infinite entry
    fails it.  Otherwise every computed norm, a square root of a sum of
    dim rounded squares in any order, is at most ``max|x| * sqrt(dim) *
    (1 + 2**-53)**(dim/2 + 1)``, which the slack covers together with this
    test's own rounding; no square overflows below BLOWUP_NORM.  When it
    fails, :func:`_finite_rows` decides.  max|x| is one ``np.maximum``
    reduce of ``np.abs(x)``, called directly: below about 10^4 rows that
    costs less than ``x.max()`` and ``x.min()``, two reductions.
    """
    dim = x.shape[1]
    return bool(np.maximum.reduce(np.abs(x), None)
                * (math.sqrt(dim) * (1.0 + 1e-12 + dim * 2.0 ** -52)) < BLOWUP_NORM)


def _clear_nodes(states: np.ndarray) -> int:
    """How many leading nodes of the (b, m, dim) states pass :func:`_finite_rows` in every row."""
    flat = states.reshape(-1, states.shape[2])
    if len(flat) == 0 or _clears_blowup(flat):
        return len(states)
    good = _finite_rows(flat).reshape(states.shape[:2]).all(axis=1)
    return len(states) if good.all() else int(np.argmin(good))


def _record(field: VectorField, xs: np.ndarray, t0: float, t1: float, step: float, what: str,
            block=None):
    """Node times and the RK4 states of the rows of xs, block by block.

    Returns (times, blocks): the (k,) node times, and an iterator over
    (j, states) with the (b, m, dim) states of the nodes j, ..., j + b - 1
    in order, b at most block (by default all k nodes, in one block).  A
    block's array is reused for the next one: it is not to be written, nor
    kept past the next block.

    :func:`step_schedule` is walked once: node i > 0 is at t + h of its pair
    i - 1 and holds the :func:`rk4_step` of node i - 1 by that pair.  No row
    is retired and no step is tested for a blow-up: each block is tested
    once filled, and only its nodes before the first one with a row that
    fails :func:`_finite_rows` are drawn (no block is drawn empty).  Rows
    are stepped independently, so those nodes hold a per-step test's bits
    and the error is the same at every block size.  A field that raises on
    a row past a blow-up in the block being filled is that blow-up
    (``NonFinite`` from the field's error), and on clean rows its own error.
    Floating-point warnings are off while a block fills, in one scope that
    no yield crosses; a state they would warn of fails the test.

    Raises:
        NonFinite: if a row starts non-finite (at once) or blows up before
            t1 (once the nodes before the blow-up are drawn; with one
            block, after the march reaches t1).
    """
    if xs.shape[1] != field.dim:
        raise ValueError(f"{field.dim}-D field {field.name}: rows of width {xs.shape[1]}")
    if not _finite_rows(xs).all():
        raise NonFinite(f"initial state is not finite in {what}")
    steps = list(step_schedule(t0, t1, step))
    times = np.array([t0] + [t + h for t, h in steps], dtype=float)

    def blocks():
        buf = np.empty((min(block or len(times), len(times)),) + xs.shape)
        # C order, as a gathered work array: a field's row products may round by layout
        buf[0], x = xs, np.ascontiguousarray(xs)
        for first in range(0, len(times), len(buf)):  # node first + r is buf[r]
            n, cause = min(len(buf), len(times) - first), None
            # a blown-up row goes on being stepped to the block's end; its overflows are
            # silenced while the block fills, and never across a yield of the block
            with np.errstate(all="ignore"):
                for r in range(0 if first else 1, n):
                    t, h = steps[first + r - 1]
                    try:
                        buf[r] = x = rk4_step(field, t, x, h)
                    except Exception as e:
                        if _clear_nodes(buf[:r]) == r:
                            raise
                        n, cause = r, e  # the field failed on a row past a blow-up
                        break
            ok = _clear_nodes(buf[:n])
            if ok:  # the nodes before a blow-up first, so a fault there is named first
                yield first, buf[:ok]
            if ok < n:
                raise NonFinite(f"state blew up during {what}") from cause

    return times, blocks()


def integrate(field: VectorField, x0, t0: float, t1: float, step: float) -> Trajectory:
    """Fixed-step RK4 samples of the solution of x' = f(t, x) on [t0, t1].

    A one-row lift of the batched stepping core.

    Raises:
        NonFinite: if any state component becomes NaN/inf or the norm
            passes the blow-up guard before t1.  The history is tested as
            one block, so a blow-up is found once the march reaches t1.
    """
    times, blocks = _record(field, _one_row(x0), t0, t1, step, "integrate")
    (_, states), = blocks  # the whole history is one block
    return Trajectory(times, states[:, 0], step)


def _march(field: VectorField, x: np.ndarray, t0, t1, step: float, live: np.ndarray):
    """The batched RK4 stepping core behind every sweep that retires rows; a generator.

    Advances the live rows of x (shape (m, dim)) from t0 to t1, each row
    on :func:`_schedule`'s nodes: ``t0 + j*step`` and a shorter tail.  t0
    and t1 are scalars or (m,) per-row arrays; an array of equal entries is
    that one scalar (one shared schedule, cheaper per step, the same bits),
    and other per-row times reach the field as (k, 1) columns.  Non-finite
    times or steps raise ValueError.
    A stepped row that fails :func:`_finite_rows` is retired (live
    cleared) and set to NaN.  Callers retire rows by clearing ``live`` in
    place, for the rows just yielded.

    Only the rows live at the start (and, on per-row schedules, with at
    least one step) are stepped, held in one work array in ascending index
    order.  A row leaves it after its last step, when retired, or when it
    blows up, and the rest are compacted.  x is written when rows leave
    and at the end, so when the march ends it holds each row's last state
    (a retired row's state at retirement, NaN for a blow-up); during the
    march it is stale.  After a yield the work set is compacted only when
    the live count changed or a row took its last step.

    Yields (rows, t, h, prev, new) after each step: the ascending indices
    of the rows just advanced, their start times and step sizes (scalars,
    or (k, 1) columns for per-row schedules), and their (k, dim) states
    before and after the step, in the order of rows.  None of them is to
    be written, nor kept past the next step.
    """
    if x.shape[1] != field.dim:
        raise ValueError(f"{field.dim}-D field {field.name}: rows of width {x.shape[1]}")
    t0, t1 = (float(a[0]) if np.ndim(a) and len(a) and np.all(a == a[0]) else a
              for a in (t0, t1))
    n_full, rem, n_steps = _schedule(t0, t1, step)
    per_row = np.ndim(n_steps) > 0
    rows = np.flatnonzero(live & (n_steps > 0))
    sched = ()
    if per_row:
        t0 = np.broadcast_to(np.asarray(t0, dtype=float), live.shape)
        sched = (t0[rows], n_full[rows], rem[rows], n_steps[rows])
    n_max = int(np.max(n_steps, initial=0))
    # the fewest steps of a work row: the first step after which one leaves
    last = int(np.min(sched[3], initial=n_max)) if per_row else n_max
    w = x[rows]
    count = np.count_nonzero(live)  # every work row is live after each compaction
    for j in range(n_max):
        if len(rows) == 0:
            break
        if per_row:
            t = (sched[0] + j * step)[:, None]
            h = np.where(sched[1] > j, step, sched[2])[:, None]
        else:
            t, h = t0 + j * step, (step if j < n_full else float(rem))
        prev, w = w, rk4_step(field, t, w, h)
        if not _clears_blowup(w):
            good = _finite_rows(w)
            if not good.all():
                live[rows[~good]] = False
                count -= len(good) - np.count_nonzero(good)
                x[rows[~good]] = np.nan
                rows, prev, w = rows[good], prev[good], w[good]
                sched = tuple(a[good] for a in sched)
                if per_row:
                    t, h = t[good], h[good]
        yield rows, t, h, prev, w
        if np.count_nonzero(live) == count and j + 1 < last:
            continue  # every work row is still live and has a step left
        count = np.count_nonzero(live)
        keep = live[rows] & (sched[3] > j + 1) if per_row else live[rows]
        kept = np.flatnonzero(keep)
        if len(kept) < len(rows):  # integer takes: a boolean mask of 2-D rows copies slower
            gone = np.flatnonzero(~keep)
            x[rows[gone]] = w.take(gone, axis=0)
            rows, w, sched = rows[kept], w.take(kept, axis=0), tuple(a[kept] for a in sched)
        last = int(np.min(sched[3], initial=n_max)) if per_row else n_max
    x[rows] = w


def _advance(field: VectorField, x: np.ndarray, t0, t1, step: float) -> np.ndarray:
    """March every row of x (in place) from t0 to t1; the live mask at the end.

    Rows that fail :func:`_finite_rows` at the start or blow up are NaN with
    live False; times are as in :func:`_march`.  The march runs in one
    scope with floating-point warnings off: a state that would warn blows up.
    """
    live = _finite_rows(x)
    x[~live] = np.nan
    with np.errstate(all="ignore"):
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


def flow(field: VectorField, t: float, x, step: float):
    """The reachable-map value at time t from x: a one-row lift of :func:`reach_set`.

    Nonnegative t integrates f forward; negative t integrates the
    reversed field -f over |t| (the inverse flow).  At t = 0 x comes
    back unchanged once it passes the start check.  No history is kept.

    Raises:
        NonFinite: if x is not finite (at t = 0 too) or the state blows up.
    """
    x = _one_row(x)
    if not _finite_rows(x).all():
        raise NonFinite("initial state is not finite in flow")
    states, ok = reach_set(field.negated() if t < 0 else field, abs(t), x, step)
    if not ok[0]:
        raise NonFinite("state blew up during flow")
    return states[0]


def verify_growth(field: VectorField, states, times=(0.0,)) -> float:
    """Max of |f(t,x)| / (|x|+1) over a test lattice (should be <= growth_c).

    A non-finite sample or velocity, whose NaN ratio the maximum would
    drop, raises ValueError naming the sample (and the time); so do no
    samples or no times, which would leave nothing to check.
    """
    states = _finite_samples(np.atleast_2d(np.asarray(states, dtype=float)))
    if len(states) == 0 or len(times) == 0:
        raise ValueError("verify_growth needs at least one sample and one time")
    worst = 0.0
    for t in times:
        v = field(t, states)
        _refuse(~np.isfinite(v).all(axis=1),
                lambda i: f"the velocity at sample {i} and t = {t} is not finite")
        ratio = _row_norms(v) / (_row_norms(states) + 1.0)
        worst = max(worst, float(ratio.max()))
    return worst


# ---------------------------------------------------------------------------
# Built-in field library (also exposed through the batch front-end).
# ---------------------------------------------------------------------------


def linear_field(a, dim: int = 1) -> VectorField:
    """f(x) = a x for scalar a, or f(x) = A x for a square matrix A."""
    A = np.asarray(a, dtype=float)
    if A.ndim == 0:
        return VectorField(dim, lambda t, x: float(A) * x, growth_c=abs(float(A)),
                           monotone_mu=-float(A), name="linear")
    # one 1-D dot product per entry: a matrix product rounds a row by its batch
    return VectorField(A.shape[0], lambda t, x: np.vecdot(x[..., None, :], A),
                       growth_c=float(np.linalg.norm(A, 2)), name="linear")


def rotation_field(omega: float = 1.0) -> VectorField:
    """Planar rotation f(x) = omega (-x2, x1); norm preserving."""

    def ev(t, x):
        out = np.empty_like(x)
        out[..., 0] = -omega * x[..., 1]
        out[..., 1] = omega * x[..., 0]
        return out

    return VectorField(2, ev, growth_c=abs(omega), name="rotation")


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


class _Constant:
    """The evaluator of a constant field f(t, x) = v, which knows its RK4 stage sum.

    A call is ``fill.like(x)``: on float64 (m, k) rows a shared read-only
    block (see :class:`~viakit.common._Filled`), on rows of another dtype a
    fresh array of their dtype.  All four RK4 stages see v, so the plain
    step's weighted sum ``k1 + 2 k2 + 2 k3 + k4`` is, in every row,
    ``s = ((v + 2 v) + 2 v) + v``: the same operations in the same order.
    :func:`rk4_step` reads s instead of calling the evaluator.  s is
    computed once, with overflow silenced: past about 3e307 it is inf, as
    the plain step's sum (which warns) would be.
    """

    __slots__ = ("velocity", "fill", "s")

    def __init__(self, velocity):
        self.velocity = v = _frozen(velocity, float)
        self.fill = _Filled(v)
        with np.errstate(over="ignore"):
            self.s = _frozen(((v + 2.0 * v) + 2.0 * v) + v, float)

    def __call__(self, t, x):
        return self.fill.like(x)


def transport_field(velocity) -> VectorField:
    """Constant-velocity field f(x) = v.

    On float64 (m, k) rows the velocity is a shared read-only block (see
    :class:`~viakit.common._Filled`): copy it before writing.  Rows of
    another dtype get a fresh array of their dtype.  The evaluator is a
    :class:`_Constant`, so :func:`rk4_step` takes each step of float64
    (m, dim) rows in one add, with the plain step's bits; the negated
    field keeps it, and ``replace(field, eval=...)`` leaves it.
    """
    ev = _Constant(velocity)
    # |v| by the row-norm rule verify_growth reads, so it reads at most c; a v past
    # about 1.3e154 overflows its square: c = inf
    with np.errstate(over="ignore"):
        c = float(_row_norms(_one_row(ev.velocity))[0])
    return VectorField(len(ev.velocity), ev, growth_c=c, name="transport")


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
