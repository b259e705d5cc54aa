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

from .common import INF
from .dynamics import VectorField, _advance, _finite_rows, _march
from .errors import NonFinite, ParamDomain
from .kernels import _first_events, exit_time, lattice_points
from .sets import PointCloudSet, SetOracle, _merge_points, tangent_residual


# ---------------------------------------------------------------------------
# Problem data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryData:
    """Initial datum on K, boundary datum on R+ x dK, optional impulse times.

    With ``impulse_times`` set, the boundary datum is only defined at
    those instants (the data manifold is a union of slices).
    """

    initial: Callable                 # x -> output vector
    boundary: Optional[Callable] = None   # (s, xi) -> output vector
    impulse_times: Optional[tuple] = None


@dataclass(frozen=True)
class CharProblem:
    """Boundary-value problem data for the characteristic solver.

    Exactly one of ``phi`` (y-independent speed, single-valued solutions)
    or ``f`` (general (t, x, y) speed, set-valued graphs) should be set.
    ``g`` drives the output ODE y' = g(t, x, y).  ``f``, ``g`` and
    ``phi`` are batch-only: x and y arrive as (m, n) and (m, p) rows, t
    as a scalar or an (m, 1) per-row column.
    """

    g: Callable
    domain: SetOracle
    data: BoundaryData
    out_dim: int
    phi: Optional[VectorField] = None
    f: Optional[Callable] = None
    phi_constraint: Optional[Callable] = None   # (t, x) -> SetOracle on outputs
    x_tol: float = 1e-6

    @property
    def state_dim(self) -> int:
        return self.domain.dim


# ---------------------------------------------------------------------------
# Backward exit times and exitors
# ---------------------------------------------------------------------------


def _shared(times: np.ndarray):
    """times as one scalar when every row holds the same value, else as is.

    Rows sharing a schedule step with scalar times, which costs less per
    step (one-row lifts, single-time lattices); the arithmetic per row is
    the same either way.
    """
    return float(times[0]) if len(times) and np.all(times == times[0]) else times


def _backward_exits(phi: VectorField, K: SetOracle, ts, xs, h: float) -> np.ndarray:
    """Per row, min(t, first time the backward flow from x leaves K).

    One event sweep of -phi over all rows, each up to its own horizon t,
    with exits refined to a fixed 1e-8; rows with t = 0 take no step and
    read 0.
    """
    if np.any(ts < 0):
        raise ValueError("backward_exit_time requires t >= 0")
    ex, _ = _first_events(phi.negated(), xs, _shared(ts), h, K=K, refine_tol=1e-8)
    return np.where(ts == 0.0, 0.0, np.where(ex >= INF, ts, np.minimum(ex, ts)))


def _exitors(phi: VectorField, K: SetOracle, ts, xs, h: float):
    """Per-row feet (s, c) of the characteristics through the rows (t, x).

    Each row flows back by its own tau on ``step_schedule(0, tau, h)``'s
    nodes, as :func:`flow` does; rows with tau = 0 keep x.
    """
    tau = _backward_exits(phi, K, ts, xs, h)
    c = xs.copy()
    if not _advance(phi.negated(), c, 0.0, _shared(tau), h).all():
        raise NonFinite("state blew up during the backward flow")
    return ts - tau, c


def _rows(t, x):
    """One evaluation point (t, x) as a (1,) time and a (1, dim) row."""
    return np.array([t], dtype=float), np.atleast_1d(np.asarray(x, dtype=float))[None, :]


def backward_exit_time(phi: VectorField, K: SetOracle, t: float, x, h: float) -> float:
    """min(t, first time the backward flow from x leaves K), refined to 1e-8."""
    return float(_backward_exits(phi, K, *_rows(t, x), h)[0])


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
    backward exit time computed on the assembled product oracle.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
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


def boundary_trace(data: BoundaryData, s: float, c, K: SetOracle,
                   s_tol: float = 1e-9, x_tol: float = 1e-6):
    """The datum carried by the foot point (s, c), or None off the manifold.

    s <= s_tol reads the initial datum (this also resolves the corner
    s = 0, c on the boundary).  Otherwise c must lie within x_tol of the
    boundary, and when impulse times are declared, s must sit within
    s_tol of one of them (the query snaps to it).
    """
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if s <= s_tol:
        return np.atleast_1d(np.asarray(data.initial(c), dtype=float))
    if data.boundary is None:
        return None
    if K.boundary_distance(c) > x_tol:
        return None
    if data.impulse_times is not None:
        ts = np.asarray(data.impulse_times, dtype=float)
        k = int(np.argmin(np.abs(ts - s)))
        if abs(ts[k] - s) > s_tol:
            return None
        s = float(ts[k])
    return np.atleast_1d(np.asarray(data.boundary(s, c), dtype=float))


def _coupled_field(prob: CharProblem) -> VectorField:
    """The characteristic system over z = (x, y): z' = (f or phi, g)."""
    n = prob.state_dim

    def ev(t, z):
        return np.concatenate(_char_rhs(prob, t, z[:, :n], z[:, n:]), axis=1)

    return VectorField(n + prob.out_dim, ev, name="characteristic")


def solve_char_many(prob: CharProblem, ts, xs, h: float):
    """Single-valued solution values at the rows (t, x), y-independent speed.

    Backtracks every row to the data manifold in one backward event
    sweep (per-row horizon t) and one backward flow (per-row tau), reads
    the datum at each foot with :func:`boundary_trace`, then integrates
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
    values = np.full((len(ts), prob.out_dim), np.nan)
    reached = np.zeros(len(ts), dtype=bool)
    z = np.empty((len(ts), n + prob.out_dim))
    for i in range(len(ts)):
        y0 = boundary_trace(prob.data, float(s[i]), c[i], prob.domain,
                            s_tol=h, x_tol=prob.x_tol)
        if y0 is not None:
            reached[i] = True
            values[i] = y0
            z[i, :n], z[i, n:] = c[i], y0
    fwd = np.flatnonzero(reached & (ts - s > 0.0))
    if len(fwd):
        z = z[fwd]
        if not _finite_rows(z).all():
            raise NonFinite("state blew up at the data manifold")
        if not _advance(_coupled_field(prob), z, _shared(s[fwd]), _shared(ts[fwd]), h).all():
            raise NonFinite("state blew up along a characteristic")
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
    output ODE is y' = -A y with scalar A (constant or A(tau, state)).
    Data: u0 on the initial slice, v1 on the x1 = 0 face (s, x2, x3, x4),
    v_r2 on the x2 = r2 face (s, x1, x3, x4).
    """

    rho: float
    sigma: float
    beta: float
    b: float
    r2: float
    A: object            # scalar constant or callable (tau, state4) -> scalar
    u0: Callable
    v1: Callable
    v_r2: Callable

    def _check(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if len(x) != 4:
            raise ParamDomain("state must be 4-dimensional")
        if not (0.0 < x[1] <= self.r2):
            raise ParamDomain(f"x2 = {x[1]} outside (0, r2]")
        if not (0.0 < x[3] < self.b):
            raise ParamDomain(f"x4 = {x[3]} outside (0, b)")
        return x

    def backward_exit_time(self, t: float, x) -> float:
        x = self._check(x)
        return min(t, x[0], math.log(self.r2 / x[1]) / self.rho)

    def regime(self, t: float, x) -> int:
        x = self._check(x)
        tau2 = math.log(self.r2 / x[1]) / self.rho
        if t <= min(x[0], tau2):
            return 1
        if x[0] <= min(t, tau2):
            return 2
        return 3

    def backtrack(self, x, tau: float) -> np.ndarray:
        """State reached by flowing backward for tau from x."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.array([
            x[0] - tau,
            math.exp(self.rho * tau) * x[1],
            math.exp(-self.sigma * tau) * x[2],
            self.b / (1.0 + (self.b / x[3] - 1.0) * math.exp(self.beta * self.b * tau)),
        ])

    def exitor(self, t: float, x):
        x = self._check(x)
        tau = self.backward_exit_time(t, x)
        return t - tau, self.backtrack(x, tau)

    def _decay_factor(self, t: float, x, s: float) -> float:
        if t <= s:
            return 1.0
        if not callable(self.A):
            return math.exp(-float(self.A) * (t - s))
        taus = np.linspace(s, t, 129)
        vals = np.array([self.A(tau, self.backtrack(x, t - tau)) for tau in taus])
        # composite Simpson on the even refinement
        hq = (t - s) / (len(taus) - 1)
        integral = hq / 3.0 * (vals[0] + vals[-1]
                               + 4.0 * vals[1:-1:2].sum() + 2.0 * vals[2:-2:2].sum())
        return math.exp(-integral)

    def __call__(self, t: float, x) -> np.ndarray:
        x = self._check(x)
        s, c = self.exitor(t, x)
        r = self.regime(t, x)
        if r == 1:
            data = self.u0(c)
        elif r == 2:
            data = self.v1(s, c[1], c[2], c[3])
        else:
            data = self.v_r2(s, c[0], c[2], c[3])
        return self._decay_factor(t, x, s) * np.atleast_1d(np.asarray(data, dtype=float))


def demo4d(rho: float, sigma: float, beta: float, b: float, r2: float,
           A, u0, v1, v_r2) -> Demo4D:
    if min(rho, sigma, beta, b, r2) <= 0:
        raise ParamDomain("rho, sigma, beta, b, r2 must be positive")
    return Demo4D(rho, sigma, beta, b, r2, A, u0, v1, v_r2)


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
    tol: float
    step: float
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


def _initial_seeds(prob: CharProblem, seeds_per_face: int, seed_lo, seed_hi):
    n = prob.state_dim
    lo = np.atleast_1d(np.asarray(seed_lo, dtype=float))
    hi = np.atleast_1d(np.asarray(seed_hi, dtype=float))
    pts = lattice_points([np.linspace(lo[k], hi[k], seeds_per_face) for k in range(n)])
    return pts[prob.domain.contains_many(pts)]


def graph_sample(prob: CharProblem, T: float, h: float, seeds_per_face: int,
                 seed_lo, seed_hi, boundary_points=None) -> GraphCloud:
    """Sweep characteristics from the data manifold; accumulate Graph(U).

    Seeds the initial slice on the window [seed_lo, seed_hi] (filtered
    by K), plus (s, xi) pairs for each xi in boundary_points at the
    impulse times or a uniform time grid.  Integrates the characteristic
    system forward from each seed's own start s to T (the nodes of
    ``step_schedule(s, T, h)``), recording every step while the state
    stays in K; rows that blow up are skipped from there on.  Points
    closer than h/2 are merged, and the cloud's tol is h.  No seed in K
    gives an empty cloud.

    Raises:
        NonFinite: if a seed's (state, output) row is not finite or
            passes the blow-up norm.
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    n, p = prob.state_dim, prob.out_dim

    rows = []
    init_pts = _initial_seeds(prob, seeds_per_face, seed_lo, seed_hi)
    for c in init_pts:
        rows.append((0.0, c, np.atleast_1d(np.asarray(prob.data.initial(c), dtype=float))))
    if boundary_points is not None and prob.data.boundary is not None:
        if prob.data.impulse_times is not None:
            times = [s for s in prob.data.impulse_times if 0.0 < s <= T]
        else:
            times = [s for s in np.linspace(0.0, T, max(seeds_per_face, 2)) if s > 0.0]
        for xi in boundary_points:
            xi = np.atleast_1d(np.asarray(xi, dtype=float))
            for s in times:
                rows.append((float(s), xi,
                             np.atleast_1d(np.asarray(prob.data.boundary(s, xi), dtype=float))))

    seeds = np.array([np.concatenate([[s], c, y]) for s, c, y in rows])
    seeds = seeds.reshape(len(rows), 1 + n + p)  # also with no seed in K
    if not _finite_rows(seeds[:, 1:]).all():
        raise NonFinite("a seed is not finite or passes the blow-up norm in graph_sample")
    z = seeds[:, 1:].copy()
    pts = [seeds]
    idxs = [np.arange(len(seeds))]
    live = np.ones(len(seeds), dtype=bool)
    for sub, t, hs, _ in _march(_coupled_field(prob), z, seeds[:, 0], T, h, live):
        zn = z[sub]
        inside = prob.domain.margin_many(zn[:, :n]) <= 0.0
        live[sub[~inside]] = False
        pts.append(np.concatenate([(t + hs)[inside], zn[inside]], axis=1))
        idxs.append(sub[inside])

    points = np.vstack(pts)
    keep = _merge_points(points, h / 2.0)
    return GraphCloud(points[keep], n, p, h, h, np.concatenate(idxs)[keep], seeds)


def query_graph(cloud: GraphCloud, t: float, x, radius: float):
    """Clustered output values of cloud points near (t, x).

    Single-linkage clustering with merge radius cloud.tol (the connected
    components of the pairs within it); returns the cluster means, each
    over its rows in index order, sorted lexicographically (deterministic).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    mask = (np.abs(cloud.times - t) <= radius) & \
        (np.linalg.norm(cloud.states - x, axis=1) <= radius)
    ys = cloud.outputs[mask]
    if len(ys) == 0:
        return []
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial import cKDTree

    # Any candidate radius above tol works: cKDTree's squared-distance test may
    # round differently from norm <= tol, and the norm filter fixes the edges.
    pairs = cKDTree(ys).query_pairs(2.0 * cloud.tol, output_type="ndarray")
    pairs = pairs[np.linalg.norm(ys[pairs[:, 0]] - ys[pairs[:, 1]], axis=1) <= cloud.tol]
    edges = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                       shape=(len(ys), len(ys)))
    count, label = connected_components(edges, directed=False)
    means = [ys[label == c].mean(axis=0) for c in range(count)]
    return sorted(means, key=lambda v: tuple(v))


@dataclass(frozen=True)
class FrankowskaReport:
    """Cone residuals of the graph along +/- the characteristic direction."""

    indices: np.ndarray
    forward: np.ndarray
    backward: np.ndarray     # NaN where the sample sits on the data manifold
    max_forward: float
    max_backward: float


def frankowska_residual(cloud: GraphCloud, prob: CharProblem, n_samples: int,
                        h_min: Optional[float] = None,
                        h_max: Optional[float] = None,
                        interior_margin: Optional[float] = None) -> FrankowskaReport:
    """Tangency check of the sampled graph in (t, x, y)-space.

    At each sampled cloud point the direction (1, f, g) must be
    contingent to the cloud; away from the data manifold so must
    (-1, -f, -g).  Residuals are finite-ladder tangent residuals against
    the cloud treated as a point-cloud oracle.
    """
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
    fwd = np.empty(len(pick))
    bwd = np.full(len(pick), np.nan)
    n = cloud.state_dim
    for j, i in enumerate(pick):
        z = cloud.points[i]
        tau, xs, ys = z[0], z[1:1 + n], z[1 + n:]
        dx, dy = _char_rhs(prob, tau, xs[None, :], ys[None, :])
        v = np.concatenate([[1.0], dx[0], dy[0]])
        fwd[j] = tangent_residual(oracle, z, v, h_min=h_min, h_max=h_max)
        on_psi = boundary_trace(prob.data, tau, xs, prob.domain,
                                s_tol=h, x_tol=prob.x_tol) is not None
        if not on_psi:
            bwd[j] = tangent_residual(oracle, z, -v, h_min=h_min, h_max=h_max)
    finite_bwd = bwd[~np.isnan(bwd)]
    return FrankowskaReport(pick, fwd, bwd, float(fwd.max()),
                            float(finite_bwd.max()) if len(finite_bwd) else 0.0)


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
    claim that the solution stays inside the constraint.
    """
    if prob.phi_constraint is None:
        raise ValueError("problem has no output constraint")
    g_res = 0.0
    v_dist = 0.0
    u_dist = 0.0
    for (t, xs, ys) in samples:
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        dx, dy = _char_rhs(prob, t, xs[None, :], ys[None, :])
        best = np.inf
        eta = 8.0 * h
        while eta >= h * (1.0 - 1e-12):
            phi_set = prob.phi_constraint(t + eta, xs + eta * dx[0])
            best = min(best, phi_set.distance(ys + eta * dy[0]) / eta)
            eta *= 0.5
        g_res = max(g_res, float(best))
        u_dist = max(u_dist, prob.phi_constraint(0.0, xs).distance(
            np.atleast_1d(np.asarray(prob.data.initial(xs), dtype=float))))
        if prob.data.boundary is not None and \
                prob.domain.boundary_distance(xs) <= prob.x_tol:
            v_dist = max(v_dist, prob.phi_constraint(t, xs).distance(
                np.atleast_1d(np.asarray(prob.data.boundary(t, xs), dtype=float))))
    return PhiInvarianceReport(g_res, v_dist, u_dist)


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
    """
    from scipy.spatial import cKDTree

    from .kernels import GridSpec, capt_field
    from .sets import Sublevel

    if prob.state_dim != 1 or prob.out_dim != 1:
        raise ValueError("gridded cross-check is provided for 1+1-D problems only")
    if not isinstance(grid3d, GridSpec) or grid3d.dim != 3:
        raise ValueError("need a (tau, x, y) grid")
    if eps is None:
        eps = grid3d.cell_diagonal

    seed_tree = cKDTree(cloud.seeds)

    def data_margin(Z):
        d, _ = seed_tree.query(Z)
        return d - eps

    target = Sublevel(data_margin, 3)

    def ev(_, Z):
        dx, dy = _char_rhs(prob, Z[:, :1], Z[:, 1:2], Z[:, 2:])
        return -np.concatenate([np.ones((len(Z), 1)), dx, dy], axis=1)

    rev = VectorField(3, ev, name="reversed-characteristic")
    T_scan = float(grid3d.hi[0] - grid3d.lo[0]) + 4.0 * eps
    tf = capt_field(rev, target, grid3d, T_scan, h, workers=workers)
    captured = tf.values < INF
    nodes = grid3d.nodes()

    cloud_tree = cKDTree(cloud.points)
    inside = np.all((cloud.points >= grid3d.lo) & (cloud.points <= grid3d.hi), axis=1)
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
    """
    m = len(cloud)
    count = max(1, int(math.ceil(fraction * m)))
    pick = np.linspace(0, m - 1, count).astype(int)
    seeds = cloud.seeds[cloud.seed_index[pick]]
    z = seeds[:, 1:].copy()
    _advance(_coupled_field(prob), z, seeds[:, 0], cloud.times[pick], cloud.step)
    n = cloud.state_dim
    want = cloud.points[pick, 1:]
    err = np.linalg.norm(z[:, :n] - want[:, :n], axis=1) + \
        np.linalg.norm(z[:, n:] - want[:, n:], axis=1)
    return float(err.max())
