"""Method of characteristics for first-order boundary-value systems.

The solution map is realized by sweeping characteristics from the data
manifold (the initial slice {0} x K plus R+ x boundary, or impulse
slices): forward sweeping traverses, in reverse, exactly the backward
capture basin of the data graph under the characteristic system, and it
scales to the 4-5 dimensional examples where gridding (t, x, y) does not.

Two regimes:

  * y-independent transport speed phi(x): the solution is single-valued;
    ``solve_char_many`` backtracks a batch of points to the data manifold
    (backward exit time, capped at t) and integrates the output ODE
    forward along their characteristics in one batched march;
    ``solve_char`` is its one-row lift.
  * general f(t, x, y): characteristics may cross in (t, x) and the
    solution is a set-valued graph; ``graph_sample`` accumulates an
    occupancy cloud and ``query_graph`` clusters the output fibers.

Corner rule: a foot point with s = 0 that also lies on the boundary
reads the initial datum (deterministic; the compatibility of the two
data pieces at the corner is the user's business and shows up in
``frankowska_residual`` when they disagree).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .common import (INF, _exp, _finite_samples, _ladder, _one_row, _refuse, _refuse_nan,
                     _row_norms)
from .dynamics import VectorField, _advance, _finite_rows, _march, _schedule, rk4_step
from .errors import NonFinite, ParamDomain
from .kernels import GridSpec, _first_events, capt_field, exit_time, lattice_points
from .sets import (PointCloudSet, SetOracle, Sublevel, _ladder_min, _merge_points,
                   _tangent_residuals)


# ---------------------------------------------------------------------------
# Problem data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryData:
    """Initial datum on K, boundary datum on R+ x dK, optional impulse times.

    Both are batch-only: ``initial(X)`` takes (m, n) rows (maybe none) and
    ``boundary(S, X)`` an (m, 1) time column with them, giving (m, p) values.
    With ``impulse_times``, the boundary datum is only defined at those
    instants (the data manifold is a union of slices).
    """

    initial: Callable                 # X -> (m, p) outputs
    boundary: Optional[Callable] = None   # (S, X) -> (m, p) outputs
    impulse_times: Optional[tuple] = None


@dataclass(frozen=True)
class CharProblem:
    """Boundary-value problem data for the characteristic solver.

    Exactly one of ``phi`` (y-independent speed, single-valued solutions)
    or ``f`` (general (t, x, y) speed, set-valued graphs) is set, else ValueError.
    ``g`` drives the output ODE y' = g(t, x, y).  ``f``, ``g`` and
    ``phi`` are batch-only: x and y arrive as (m, n) and (m, p) rows, t
    as a scalar or an (m, 1) per-row column.  So is ``phi_constraint``:
    ``phi_constraint(T, X, Y)`` takes an (m, 1) time column with the rows
    and gives the (m,) distances of each y to the output set Phi(t, x).
    """

    g: Callable
    domain: SetOracle
    data: BoundaryData
    out_dim: int
    phi: Optional[VectorField] = None
    f: Optional[Callable] = None
    phi_constraint: Optional[Callable] = None   # (T, X, Y) -> (m,) distances to Phi(t, x)
    x_tol: float = 1e-6

    def __post_init__(self):
        if (self.phi is None) == (self.f is None):
            raise ValueError("a CharProblem needs exactly one speed: phi or f")

    @property
    def state_dim(self) -> int:
        return self.domain.dim


# ---------------------------------------------------------------------------
# Backward exit times and exitors
# ---------------------------------------------------------------------------


def _backward_exits(back: VectorField, K: SetOracle, ts, xs, h: float):
    """Per row, tau = min(t, first time the backward flow from x leaves K).

    One event sweep of back (the field -phi) over all rows, each up to its
    own horizon t, with exits refined to a fixed 1e-8; rows with t = 0
    take no step and read 0.  Returns (tau, x, exits), x and exits as
    :func:`kernels._event_sweep` gives them.
    """
    if np.any(ts < 0):
        raise ValueError("backward_exit_time requires t >= 0")
    ex, _, x, exits = _first_events(back, xs, ts, h, K=K, refine_tol=1e-8)
    return np.where(ts == 0.0, 0.0, np.where(ex >= INF, ts, np.minimum(ex, ts))), x, exits


def _exitors(phi: VectorField, K: SetOracle, ts, xs, h: float):
    """Per-row feet (s, c) of the characteristics through the rows (t, x).

    c is where the backward flow from x reaches on ``step_schedule(0, tau,
    h)``'s nodes, as :func:`flow` gives it, read from the exit sweep's own
    states rather than marched a second time.  A row with no exit (tau =
    t) or no step (t = 0) stopped the sweep there.  An exit row's tau lies
    in its bracket step j, from node t_j, so the schedule has j or j + 1
    full steps (j + 1 when tau is within 1e-9 steps of t_{j+1}): c is the
    state before or after that step, and one RK4 sub-step of the schedule's
    tail from there when it has one.

    Raises:
        NonFinite: if the sweep blows up first, or a tail sub-step does.
    """
    back = phi.negated()
    tau, c, (rows, t_j, _, x_j) = _backward_exits(back, K, ts, xs, h)
    n_full, rem, n_steps = _schedule(0.0, tau[rows], h)
    start = np.where((n_full * h > t_j)[:, None], c[rows], x_j)  # after the step, or before
    tail = n_steps > n_full
    if tail.any():
        start[tail] = rk4_step(back, (n_full * h)[tail, None], start[tail], rem[tail, None])
        if not _finite_rows(start[tail]).all():
            raise NonFinite("state blew up during the backward flow")
    c[rows] = start
    return ts - tau, c


def _rows(t, x):
    """One evaluation point (t, x) as a (1,) time and a (1, dim) row."""
    return np.array([t], dtype=float), _one_row(x)


def backward_exit_time(phi: VectorField, K: SetOracle, t: float, x, h: float) -> float:
    """min(t, first time the backward flow from x leaves K), refined to 1e-8."""
    return float(_backward_exits(phi.negated(), K, *_rows(t, x), h)[0][0])


def exitor(phi: VectorField, K: SetOracle, t: float, x, h: float):
    """The foot of the characteristic through (t, x).

    Returns (s, c): the data-manifold time s = t - tau and the point c
    reached by flowing backward for tau = backward_exit_time(t, x).  When
    tau < t, c lies on the boundary (within integration tolerance);
    when tau = t, s = 0 exactly and c is the initial-slice point.
    """
    s, c = _exitors(phi, K, *_rows(t, x), h)
    return float(s[0]), c[0]


def product_exit_time(axis_fields: Sequence[VectorField],
                      axis_sets: Sequence[SetOracle], x, h: float,
                      t_scan: float = 100.0) -> float:
    """Backward exit time of a product set: the min of per-axis exit times.

    Each axis block evolves under its own field on its own factor set;
    axes that never exit within t_scan contribute +inf.  Equals the
    backward exit time computed on the assembled product oracle.  A NaN x raises ValueError.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    _refuse_nan("product_exit_time", x=x)
    best = INF
    start = 0
    for fj, Kj in zip(axis_fields, axis_sets):
        xj = x[start:start + fj.dim]
        start += fj.dim
        if not Kj.contains(xj):
            return 0.0
        tau = exit_time(fj.negated(), Kj, xj, t_scan, h)
        best = min(best, tau)
    return best


# ---------------------------------------------------------------------------
# Data traces and the single-valued solver
# ---------------------------------------------------------------------------


def _manifold(data: BoundaryData, S, C, K: SetOracle, s_tol: float, x_tol: float):
    """Which feet (S, C) are on the data manifold: (initial, boundary, times).
    s <= s_tol is an initial row (so is the corner s = 0, c on the boundary);
    another foot is a boundary row when c is within x_tol of the boundary and,
    with impulse times, s within s_tol of one, its time snapped to the first nearest."""
    initial = S <= s_tol
    bnd = np.zeros(len(S), dtype=bool) if data.boundary is None else ~initial
    if bnd.any():
        bnd[bnd] = ~(K.boundary_distance_many(C[bnd]) > x_tol)
    times = S
    if data.impulse_times is not None:
        imp = np.asarray(data.impulse_times, dtype=float)
        gap = np.abs(imp - S[:, None])
        bnd &= ~(gap.min(axis=1) > s_tol)
        times = imp[gap.argmin(axis=1)]
    return initial, bnd, times


def _read(data: BoundaryData, C, initial, bnd, times) -> np.ndarray:
    """(m, p) data at the points C: the initial datum on the initial rows, the
    boundary datum at times on the bnd rows, NaN on the others.  Each data
    function is called once, on its own rows only."""
    y = np.asarray(data.initial(C[initial]), dtype=float)
    Y = np.full((len(C), y.shape[1]), np.nan)
    Y[initial] = y
    if data.boundary is not None:
        Y[bnd] = data.boundary(times[bnd, None], C[bnd])
    return Y


def boundary_trace(data: BoundaryData, s: float, c, K: SetOracle,
                   s_tol: float = 1e-9, x_tol: float = 1e-6):
    """The datum carried by the foot point (s, c), or None off the manifold:
    one row of :func:`_manifold` and :func:`_read`.  A NaN s or c raises ValueError."""
    S, C = _rows(s, c)
    _refuse_nan("boundary_trace", s=S[0], c=C[0])
    initial, bnd, times = _manifold(data, S, C, K, s_tol, x_tol)
    return _read(data, C, initial, bnd, times)[0] if initial[0] or bnd[0] else None


def _coupled_field(prob: CharProblem) -> VectorField:
    """The characteristic system over z = (x, y): z' = (f or phi, g)."""
    n = prob.state_dim

    def ev(t, z):
        return np.concatenate(_char_rhs(prob, t, z[:, :n], z[:, n:]), axis=1)

    return VectorField(n + prob.out_dim, ev, name="characteristic")


def solve_char_many(prob: CharProblem, ts, xs, h: float):
    """Single-valued solution values at the rows (t, x), y-independent speed.

    Backtracks every row to the data manifold in one backward event
    sweep (per-row horizon t), whose own states give the feet (at most one
    RK4 sub-step per exit row, see :func:`_exitors`), reads the data at
    all feet in one batched read, then integrates
    y' = g(tau, x(tau), y) forward along all characteristics at once,
    each row from its own s to its own t.  The unique-solution caveat
    applies: each row follows the one RK4-selected characteristic.

    Returns:
        (values, reached): an (m, out_dim) array and an (m,) mask; rows
        whose foot misses the data manifold (e.g. between impulse slices)
        are NaN with reached=False.

    Raises:
        NonFinite: if any row blows up in any phase.
    """
    if prob.phi is None:
        raise ValueError("solve_char needs a y-independent speed (phi)")
    ts = np.asarray(ts, dtype=float).reshape(-1)
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    n = prob.state_dim
    s, c = _exitors(prob.phi, prob.domain, ts, xs, h)
    initial, bnd, times = _manifold(prob.data, s, c, prob.domain, h, prob.x_tol)
    values, reached = _read(prob.data, c, initial, bnd, times), initial | bnd
    fwd = np.flatnonzero(reached & (ts - s > 0.0))
    if len(fwd):
        z = np.concatenate([c[fwd], values[fwd]], axis=1)
        _refuse(~_finite_rows(z), lambda i: f"state blew up at the data manifold of row {fwd[i]}",
                NonFinite)
        _refuse(~_advance(_coupled_field(prob), z, s[fwd], ts[fwd], h),
                lambda i: f"state blew up along the characteristic of row {fwd[i]}", NonFinite)
        values[fwd] = z[:, n:]
    return values, reached


def solve_char(prob: CharProblem, t: float, x, h: float):
    """Single-valued solution value at (t, x): one row of :func:`solve_char_many`.

    Returns None when the data manifold is not reached.  The output
    depends on the initial datum alone when t <= the backward exit time,
    and on the boundary datum alone otherwise.
    """
    values, reached = solve_char_many(prob, *_rows(t, x), h)
    return values[0] if reached[0] else None


# ---------------------------------------------------------------------------
# The worked 4D demographic example (closed forms; the solver's oracle)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Demo4D:
    """Three-regime closed-form solution of the 4D demographic system.

    State (x1, x2, x3, x4) on R+ x [0, r2] x R+ x [0, b] with
    characteristic speeds (1, -rho x2, sigma x3, beta (b - x4) x4); the
    output ODE is y' = -A y, A a constant or a batch-only A(tau, states) of an
    (m, 1) time column and (m, 4) rows.  Data, batch-only: u0(X) on the initial
    slice, v1(s, z) on the x1 = 0 face (z = x2, x3, x4), v_r2(s, z) on the
    x2 = r2 face (z = x1, x3, x4).  ``solve_many`` is the closed form on rows.
    """

    rho: float
    sigma: float
    beta: float
    b: float
    r2: float
    A: object            # scalar constant or batch-only callable (tau, states) -> values
    u0: Callable
    v1: Callable
    v_r2: Callable

    def __post_init__(self):
        if min(self.rho, self.sigma, self.beta, self.b, self.r2) <= 0:
            raise ParamDomain("rho, sigma, beta, b, r2 must be positive")

    def _exits(self, ts, xs):
        """(ts, X, tau, regime): tau = min(t, x1, log(r2/x2)/rho) per row; regime 1
        reads the initial slice (t smallest), 2 the x1 = 0 face (x1 smallest), 3
        the x2 = r2 face.  ParamDomain names the first row off the domain."""
        X = np.atleast_2d(np.asarray(xs, dtype=float))
        if X.shape[1] != 4:
            raise ParamDomain("state must be 4-dimensional")
        bad2 = ~((0.0 < X[:, 1]) & (X[:, 1] <= self.r2))
        _refuse(bad2 | ~((0.0 < X[:, 3]) & (X[:, 3] < self.b)),
                lambda i: f"x2 = {X[i, 1]} outside (0, r2]" if bad2[i]
                else f"x4 = {X[i, 3]} outside (0, b)", ParamDomain)
        ts = np.asarray(ts, dtype=float).reshape(-1)
        tau2 = np.fromiter(map(math.log, self.r2 / X[:, 1]), float, len(X)) / self.rho
        regime = np.where(ts <= np.minimum(X[:, 0], tau2), 1,
                          np.where(X[:, 0] <= np.minimum(ts, tau2), 2, 3))
        return ts, X, np.minimum(np.minimum(ts, X[:, 0]), tau2), regime

    def _backtrack(self, X, tau) -> np.ndarray:
        return np.column_stack([
            X[:, 0] - tau,
            _exp(self.rho * tau) * X[:, 1],
            _exp(-self.sigma * tau) * X[:, 2],
            self.b / (1.0 + (self.b / X[:, 3] - 1.0) * _exp(self.beta * self.b * tau)),
        ])

    def _decay(self, ts, X, s) -> np.ndarray:
        """exp(-int_s^t A) per row; 1 where t = s (s = t - tau <= t)."""
        if not callable(self.A):
            return _exp(-float(self.A) * (ts - s))
        out, go = np.ones(len(X)), ts > s
        taus = np.linspace(s[go], ts[go], 129, axis=1)
        states = self._backtrack(np.repeat(X[go], 129, axis=0), (ts[go, None] - taus).ravel())
        vals = np.asarray(self.A(taus.reshape(-1, 1), states), dtype=float).reshape(taus.shape)
        # composite Simpson on the even refinement
        hq = (ts[go] - s[go]) / (taus.shape[1] - 1)
        integral = hq / 3.0 * (vals[:, 0] + vals[:, -1] + 4.0 * vals[:, 1:-1:2].sum(axis=1)
                               + 2.0 * vals[:, 2:-2:2].sum(axis=1))
        out[go] = _exp(-integral)
        return out

    def solve_many(self, ts, xs) -> np.ndarray:
        """The (m, p) closed form at the rows (t, x); each data function is
        called once, on the rows of its regime."""
        ts, X, tau, regime = self._exits(ts, xs)
        s, c = ts - tau, self._backtrack(X, tau)
        faces = [regime == r for r in (1, 2, 3)]
        data = [self.u0(c[faces[0]]), self.v1(s[faces[1], None], c[faces[1]][:, 1:]),
                self.v_r2(s[faces[2], None], c[faces[2]][:, [0, 2, 3]])]
        out = np.empty((len(X), np.shape(data[0])[1]))
        for face, y in zip(faces, data):
            out[face] = y
        return self._decay(ts, X, s)[:, None] * out

    def backward_exit_time(self, t: float, x) -> float:
        return float(self._exits(*_rows(t, x))[2][0])

    def regime(self, t: float, x) -> int:
        return int(self._exits(*_rows(t, x))[3][0])

    def backtrack(self, x, tau: float) -> np.ndarray:
        """State reached by flowing backward for tau from x."""
        return self._backtrack(_one_row(x), np.array([tau]))[0]

    def exitor(self, t: float, x):
        tau = self.backward_exit_time(t, x)
        return t - tau, self.backtrack(x, tau)

    def __call__(self, t: float, x) -> np.ndarray:
        return self.solve_many(*_rows(t, x))[0]


demo4d = Demo4D  # the builder is the class itself


# ---------------------------------------------------------------------------
# Set-valued graphs: forward sweeping, queries, residuals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GraphCloud:
    """Occupancy samples (tau, x, y) of a solution graph.

    Carries provenance: each point remembers its seed row, so any sample
    can be replayed back to the data manifold (``replay_check``).
    """

    points: np.ndarray       # (m, 1 + n + p)
    state_dim: int
    out_dim: int
    step: float              # the sweep's step h, also query_graph's merge radius
    seed_index: np.ndarray   # (m,) row into seeds
    seeds: np.ndarray        # (k, 1 + n + p): (s, c, y0)

    @property
    def times(self):
        return self.points[:, 0]

    @property
    def states(self):
        return self.points[:, 1:1 + self.state_dim]

    @property
    def outputs(self):
        return self.points[:, 1 + self.state_dim:]

    def __len__(self):
        return len(self.points)


def _char_rhs(prob: CharProblem, t, X, Y):
    """(dx, dy) of the characteristic system at rows (X, Y); t scalar or (m, 1)."""
    dx = prob.f(t, X, Y) if prob.f is not None else prob.phi(t, X)
    return dx, prob.g(t, X, Y)


def _graph_direction(prob: CharProblem, T, X, Y) -> np.ndarray:
    """The (m, 1 + n + p) rows (1, f, g) of the graph's direction at (T, X, Y); T is (m, 1)."""
    return np.concatenate([np.ones((len(X), 1)), *_char_rhs(prob, T, X, Y)], axis=1)


def graph_sample(prob: CharProblem, T: float, h: float, seeds_per_face: int,
                 seed_lo, seed_hi, boundary_points=None) -> GraphCloud:
    """Sweep characteristics from the data manifold; accumulate Graph(U).

    Seeds the initial slice on the window [seed_lo, seed_hi] (filtered
    by K), plus (s, xi) pairs for each xi in boundary_points at the
    impulse times or a uniform time grid.  Integrates the characteristic
    system forward from each seed's own start s to T (the nodes of
    ``step_schedule(s, T, h)``), recording every step while the state
    stays in K (by ``contains_many``, the seeds' own test); rows that blow
    up are skipped from there on.  Points closer than h/2 are merged, and
    the cloud's step is h.  No seed in K gives an empty cloud.

    Raises:
        ValueError: if T < 0, or seed_lo or seed_hi holds a NaN.
        NonFinite: if a seed's (state, output) row is not finite or
            passes the blow-up norm (naming the first such seed).
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    n, p = prob.state_dim, prob.out_dim

    lo, hi = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (seed_lo, seed_hi))
    _refuse_nan("graph_sample", seed_lo=lo, seed_hi=hi)
    C = lattice_points([np.linspace(lo[k], hi[k], seeds_per_face) for k in range(n)])
    C = C[prob.domain.contains_many(C)]
    S = np.zeros(len(C))
    if boundary_points is not None and prob.data.boundary is not None:
        times = np.linspace(0.0, T, max(seeds_per_face, 2)) if prob.data.impulse_times is None \
            else np.asarray(prob.data.impulse_times, dtype=float)
        times = times[(times > 0.0) & (times <= T)]
        xi = np.asarray(boundary_points, dtype=float).reshape(-1, n)
        S = np.concatenate([S, np.tile(times, len(xi))])   # xi-major, s-minor
        C = np.concatenate([C, np.repeat(xi, len(times), axis=0)])
    initial = S == 0.0  # boundary seeds start at s > 0
    seeds = np.column_stack([S, C, _read(prob.data, C, initial, ~initial, S)])
    _refuse(~_finite_rows(seeds[:, 1:]), lambda i: f"seed {i} {seeds[i].tolist()} is not finite"
            " or passes the blow-up norm in graph_sample", NonFinite)
    z = seeds[:, 1:].copy()
    pts = [seeds]
    idxs = [np.arange(len(seeds))]
    live = np.ones(len(seeds), dtype=bool)
    for sub, t, hs, _, zn in _march(_coupled_field(prob), z, seeds[:, 0], T, h, live):
        inside = prob.domain.contains_many(zn[:, :n])
        live[sub[~inside]] = False
        kept = np.flatnonzero(inside)  # integer takes: a boolean mask of 2-D rows copies slower
        tau = np.broadcast_to(t + hs, (len(sub), 1))  # a scalar on a shared schedule
        pts.append(np.concatenate([tau.take(kept, axis=0), zn.take(kept, axis=0)], axis=1))
        idxs.append(sub.take(kept))

    points = np.vstack(pts)
    keep = _merge_points(points, h / 2.0)
    return GraphCloud(points[keep], n, p, h, np.concatenate(idxs)[keep], seeds)


def query_graph(cloud: GraphCloud, t: float, x, radius: float):
    """Clustered output values of cloud points near (t, x).

    Single-linkage clustering with merge radius cloud.step (the connected
    components of the pairs within it); returns the cluster means, each
    over its rows in index order, sorted lexicographically (deterministic).
    A NaN t, x or radius raises ValueError.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    _refuse_nan("query_graph", t=t, x=x, radius=radius)
    mask = (np.abs(cloud.times - t) <= radius) & \
        (_row_norms(cloud.states - x) <= radius)
    ys = cloud.outputs[mask]
    if len(ys) == 0:
        return []
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial import cKDTree

    # Any candidate radius above the step works: cKDTree's squared-distance test may
    # round differently from norm <= step, and the norm filter fixes the edges.
    pairs = cKDTree(ys).query_pairs(2.0 * cloud.step, output_type="ndarray")
    pairs = pairs[_row_norms(ys[pairs[:, 0]] - ys[pairs[:, 1]]) <= cloud.step]
    edges = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                       shape=(len(ys), len(ys)))
    count, label = connected_components(edges, directed=False)
    means = [ys[label == c].mean(axis=0) for c in range(count)]
    return sorted(means, key=lambda v: tuple(v))


def _worst(d) -> float:
    """Python's max(0.0, *d): the largest entry of d above 0, NaN never winning."""
    top = np.max(d, initial=0.0, where=~np.isnan(d))
    return float(top) if top > 0.0 else 0.0


@dataclass(frozen=True)
class FrankowskaReport:
    """Cone residuals of the graph along +/- the characteristic direction."""

    indices: np.ndarray
    forward: np.ndarray
    backward: np.ndarray     # NaN where the sample sits on the data manifold
    max_forward: float
    max_backward: float


def frankowska_residual(cloud: GraphCloud, prob: CharProblem, n_samples: int,
                        interior_margin: Optional[float] = None) -> FrankowskaReport:
    """Tangency check of the sampled graph in (t, x, y)-space.

    At each sampled cloud point the direction (1, f, g) must be
    contingent to the cloud; away from the data manifold so must
    (-1, -f, -g).  Residuals are tangent residuals against the cloud as a
    point-cloud oracle, on the ladder from 8h down to its step h.  An
    n_samples below 1, an empty cloud or no interior point raises ValueError.
    """
    if not n_samples >= 1:
        raise ValueError(f"n_samples must be positive, not {n_samples}")
    if len(cloud) == 0:
        raise ValueError("the cloud is empty: no seed of graph_sample lay in K")
    h = cloud.step
    interior_margin = 8.0 * h + h if interior_margin is None else interior_margin
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
    V = _graph_direction(prob, Z[:, :1], Z[:, 1:1 + n], Z[:, 1 + n:])
    initial, bnd, _ = _manifold(prob.data, Z[:, 0], Z[:, 1:1 + n], prob.domain, h, prob.x_tol)
    fwd = _tangent_residuals(oracle, Z, V, h, 8.0 * h)
    off = ~(initial | bnd)
    bwd = np.full(len(Z), np.nan)
    bwd[off] = _tangent_residuals(oracle, Z[off], -V[off], h, 8.0 * h)
    return FrankowskaReport(pick, fwd, bwd, float(fwd.max()), _worst(bwd))


@dataclass(frozen=True)
class PhiInvarianceReport:
    """Residuals of the output-constraint compatibility conditions."""

    g_residual: float        # worst cone residual of g against the constraint
    boundary_distance: float  # worst membership defect of the boundary datum
    initial_distance: float   # worst membership defect of the initial datum

    def ok(self, tol: float = 1e-6) -> bool:
        return max(self.g_residual, self.boundary_distance,
                   self.initial_distance) <= tol


def phi_invariance_check(prob: CharProblem, samples, h: float) -> PhiInvarianceReport:
    """Verify the three compatibility conditions on (t, x, y) samples.

    (i) g points tangentially into the constraint along (1, phi(x));
    (ii) boundary data lie in the constraint on boundary samples;
    (iii) initial data lie in the constraint at t = 0.  Advisory for the
    claim that the solution stays inside the constraint.  ``samples`` are
    (m, 1 + n + p) rows (t, x, y), the layout of ``GraphCloud.points``; the
    constraint is called three times: on all rungs of (i) at once, for (iii),
    and for (ii) on the boundary samples (maybe none).  A non-finite sample
    raises ValueError, as in the HJ checks: its quotients would all be NaN,
    and condition (i) would read an infinite residual.
    """
    if prob.phi_constraint is None:
        raise ValueError("problem has no output constraint")
    n = prob.state_dim
    Z = _finite_samples(np.asarray(samples, dtype=float).reshape(-1, 1 + n + prob.out_dim))
    T, X, Y = Z[:, :1], Z[:, 1:1 + n], Z[:, 1 + n:]
    W = _graph_direction(prob, T, X, Y)
    on = np.zeros(len(X), dtype=bool) if prob.data.boundary is None else \
        prob.domain.boundary_distance_many(X) <= prob.x_tol
    U = np.asarray(prob.data.initial(X), dtype=float)
    V = _read(prob.data, X, np.zeros_like(on), on, T[:, 0])  # the boundary datum on boundary samples
    g_res = _ladder_min(lambda P: prob.phi_constraint(P[:, :1], P[:, 1:1 + n], P[:, 1 + n:]),
                        Z, W, _ladder(8.0 * h, h))
    u_dist = prob.phi_constraint(np.zeros_like(T), X, U)
    v_dist = prob.phi_constraint(T[on], X[on], V[on])
    return PhiInvarianceReport(_worst(g_res), _worst(v_dist), _worst(u_dist))


@dataclass(frozen=True)
class CaptureCrosscheck:
    """Agreement between the forward-swept graph and a gridded backward basin."""

    cloud_in_basin: float   # fraction of sampled cloud points whose node is captured
    basin_to_cloud: float   # worst distance from a captured node to the cloud


def graph_capture_crosscheck(prob: CharProblem, cloud: GraphCloud,
                             grid3d, h: float, eps: Optional[float] = None,
                             workers: int = 1) -> CaptureCrosscheck:
    """Cross-check the swept graph against the backward capture basin.

    Grids (tau, x, y) and marks the nodes from which the reversed
    characteristic system (-1, -f, -g) reaches the (eps-dilated) data
    manifold: that basin is the solution graph computed the other way
    around.  Only sized for 1+1-dimensional problems; the forward sweep
    is the scalable route.

    Raises:
        ValueError: for a problem that is not 1+1-D, a grid that is not
            (tau, x, y), or a grid that holds no cloud point.
    """
    from scipy.spatial import cKDTree

    if prob.state_dim != 1 or prob.out_dim != 1:
        raise ValueError("gridded cross-check is provided for 1+1-D problems only")
    if not isinstance(grid3d, GridSpec) or grid3d.dim != 3:
        raise ValueError("need a (tau, x, y) grid")
    inside = np.all((cloud.points >= grid3d.lo) & (cloud.points <= grid3d.hi), axis=1)
    if not inside.any():
        raise ValueError(f"no cloud point lies in the grid from {grid3d.lo.tolist()} "
                         f"to {grid3d.hi.tolist()}")
    if eps is None:
        eps = grid3d.cell_diagonal

    seed_tree = cKDTree(cloud.seeds)

    def data_margin(Z):
        d, _ = seed_tree.query(Z)
        return d - eps

    target = Sublevel(data_margin, 3)

    def ev(_, Z):
        return -_graph_direction(prob, Z[:, :1], Z[:, 1:2], Z[:, 2:])

    rev = VectorField(3, ev, name="reversed-characteristic")
    T_scan = float(grid3d.hi[0] - grid3d.lo[0]) + 4.0 * eps
    tf = capt_field(rev, target, grid3d, T_scan, h, workers=workers)
    captured = tf.values < INF
    nodes = grid3d.nodes()

    cloud_tree = cKDTree(cloud.points)
    pts = cloud.points[inside]
    pick = np.linspace(0, len(pts) - 1, min(500, len(pts))).astype(int)
    node_tree = cKDTree(nodes)
    _, nearest = node_tree.query(pts[pick])
    frac = float(np.mean(captured[nearest]))

    if captured.any():
        d, _ = cloud_tree.query(nodes[captured])
        worst = float(np.max(d))
    else:
        worst = np.inf
    return CaptureCrosscheck(frac, worst)


def replay_check(cloud: GraphCloud, prob: CharProblem, fraction: float = 0.01) -> float:
    """Re-integrate a sample of cloud points from their seeds; max defect.

    Every recorded point has, by construction, a characteristic path
    back to the data manifold; this replays that path for a deterministic
    sample of points and returns the worst reconstruction error.

    Raises:
        ValueError: if the cloud is empty (no seed of graph_sample lay in K).
        NonFinite: if a replayed path blows up.
    """
    if len(cloud) == 0:
        raise ValueError("the cloud is empty: no seed of graph_sample lay in K")
    m = len(cloud)
    count = max(1, int(math.ceil(fraction * m)))
    pick = np.linspace(0, m - 1, count).astype(int)
    seeds = cloud.seeds[cloud.seed_index[pick]]
    z = seeds[:, 1:].copy()
    live = _advance(_coupled_field(prob), z, seeds[:, 0], cloud.times[pick], cloud.step)
    _refuse(~live, lambda i: f"state blew up during replay_check of cloud point {pick[i]}",
            NonFinite)
    n = cloud.state_dim
    want = cloud.points[pick, 1:]
    err = _row_norms(z[:, :n] - want[:, :n]) + _row_norms(z[:, n:] - want[:, n:])
    return float(err.max())
