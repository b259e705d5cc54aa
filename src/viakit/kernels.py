"""Exit/hitting times, capture margins, and grid fields of them.

Everything is evaluated along the RK4-selected solution: the toolkit
assumes the unique-solution regime, so the inf/sup over solution
bundles collapses to evaluation along one trajectory per start (stated
prominently in the README).  Exit and hitting events are bracketed by a
membership sign change between consecutive RK4 nodes while marching and
refined after the march by bisection on a single sub-step, one batched
bisection per event kind over all of a sweep's brackets; a grazing touch
that flips membership counts as the event (closed-set convention).
Detection and refinement test the same batched ``contains_many``
predicate, and a row's refined time does not depend on the rows it is
batched with.

Grid sweeps advance all nodes in one vectorized batch; per-node
arithmetic is elementwise, so splitting the node list across workers
changes nothing in the results (bit-identical gather).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .common import INF, _one_row, _refuse, _row_norms
from .dynamics import VectorField, _bisect, _march, reach_set, rk4_step
from .errors import NonFinite
from .sets import SetOracle

#: default exit-time refinement: |error| <= REFINE_FRAC * max(T_max, 1)
REFINE_FRAC = 1e-8

#: fewest grid rows per worker chunk, set where two threads began to beat
#: one; with the live-row stepping core that point is near 20000 rows
#: (see the README's Workers)
CHUNK_ROWS = 6144


# ---------------------------------------------------------------------------
# Grids and values on them
# ---------------------------------------------------------------------------


def lattice_points(axes) -> np.ndarray:
    """The product of the 1-D axes as (N, len(axes)) rows in row-major (C) order."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


@dataclass(frozen=True)
class GridSpec:
    """Uniform sampling lattice: counts[k] cells (counts[k]+1 nodes) per axis."""

    lo: np.ndarray
    hi: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        counts = np.atleast_1d(np.asarray(self.counts, dtype=int))
        if not np.all(np.isfinite(lo) & np.isfinite(hi) & (lo < hi)):
            raise ValueError("grid needs finite lo < hi componentwise")
        if np.any(counts < 2):
            raise ValueError("grid needs at least 2 cells per axis")
        for a in (lo, hi, counts):
            a.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "counts", counts)
        if self.node_count * self.dim * 8 > np.iinfo(np.intp).max:  # bytes of the float nodes
            raise ValueError(f"grid of {self.node_count} nodes is too large to index")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def shape(self) -> tuple:
        return tuple(int(c) + 1 for c in self.counts)

    @property
    def spacing(self) -> np.ndarray:
        return (self.hi - self.lo) / self.counts

    @property
    def cell_diagonal(self) -> float:
        return float(np.linalg.norm(self.spacing))

    @property
    def node_count(self) -> int:
        return math.prod(self.shape)

    def axes(self):
        return [np.linspace(self.lo[k], self.hi[k], int(self.counts[k]) + 1)
                for k in range(self.dim)]

    def nodes(self) -> np.ndarray:
        """All nodes as an (N, dim) array in row-major (C) order."""
        return lattice_points(self.axes())


@dataclass(frozen=True)
class GridFunction:
    """One value per grid node (INF sentinel for +infinity), with multilinear interpolation.

    ``inside`` (all True by default) marks the nodes that met the producing
    operation's membership precondition (e.g. nodes of K for an exit field);
    values at the other nodes are the convention that operation states.
    """

    grid: GridSpec
    values: np.ndarray
    inside: np.ndarray = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        inside = np.ones(len(values)) if self.inside is None else self.inside
        inside = np.asarray(inside, dtype=bool)
        if len(values) != self.grid.node_count or len(inside) != len(values):
            raise ValueError("values and inside need one entry per grid node")
        values.flags.writeable = False
        inside.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "inside", inside)

    def superlevel(self, T: float) -> np.ndarray:
        """Mask of inside nodes with value >= T (e.g. the T-viability kernel)."""
        return self.inside & (self.values >= T)

    def sublevel(self, T: float) -> np.ndarray:
        """Mask of nodes with value <= T (e.g. the T-capture basin)."""
        return self.values <= T

    def interp(self, x) -> float:
        """The value at one point; a one-row lift of :meth:`interp_many`."""
        return float(self.interp_many(_one_row(x))[0])

    def interp_many(self, X) -> np.ndarray:
        """Multilinear interpolation at the (m, dim) rows of X (INF-aware).

        Corners of weight below 1e-12 are skipped; an INF value at any other
        corner, or lying outside the grid (an infinite entry included), makes
        a row INF.  A row that holds a NaN raises ValueError.  Corners and
        axis factors go in one fixed order, so no value depends on the batch.
        """
        g = self.grid
        X = np.atleast_2d(np.asarray(X, dtype=float))
        _refuse(np.isnan(X).any(axis=1),
                lambda i: f"interp_many: row {i} {X[i].tolist()} holds a NaN")
        sp = g.spacing
        inside = np.all((X >= g.lo - 1e-9 * sp) & (X <= g.hi + 1e-9 * sp), axis=1)
        pos = (np.where(inside[:, None], X, g.lo) - g.lo) / sp
        base = np.clip(np.floor(pos).astype(int), 0, g.counts - 1)
        frac = pos - base
        total, wsum, blocked = np.zeros(len(X)), np.zeros(len(X)), ~inside
        for corner in range(1 << g.dim):
            offs = np.array([(corner >> k) & 1 for k in range(g.dim)])
            w = np.prod(np.where(offs == 1, frac, 1.0 - frac), axis=1)
            use = w >= 1e-12
            v = self.values[np.ravel_multi_index(tuple((base + offs).T), g.shape)]
            blocked |= use & (v >= INF)
            total = np.where(use, total + w * v, total)
            wsum = np.where(use, wsum + w, wsum)
        return np.where(blocked | ~(wsum > 0), INF, total / wsum)


# ---------------------------------------------------------------------------
# Event detection along RK4 trajectories
# ---------------------------------------------------------------------------


def _refine_crossings(field, crossed, t0, x0, h, tol):
    """Per bracket, t0 + the first s in (0, h] with crossed(state at t0+s).

    t0 and h are (k,) start times and step sizes and x0 the (k, dim)
    states of k bracketed rows, with (k,) tolerances tol.  Runs
    :func:`_bisect` on s: each round steps the brackets still wider than
    tol by one batched RK4 sub-step of per-row size mid from (t0, x0)
    and tests the sweep's batched predicate ``crossed`` on the result;
    the sub-step's local error is far below the trajectory's own.  The
    "first true" ends are returned, so a grazing tie counts as the event.
    """
    def test(i, s):
        return crossed(rk4_step(field, t0[i, None], x0[i], s[:, None]))

    return t0 + _bisect(test, np.zeros_like(h), h, tol)


def _event_sweep(field, X0, T_max, h, K=None, C=None, refine_tol=None):
    """Batched RK4 sweep recording first-exit (from K) and first-hit (of C).

    While marching, the rows whose membership flips in a step are
    bracketed (row, step start, step size, state before the step) and
    retired from that event; after the march each event kind refines all
    of its brackets in one batched bisection.

    T_max is a scalar horizon or an (m,) per-row one; each row marches on
    its own ``step_schedule(0, T_max, h)`` nodes, so an event in a row's
    shorter last step is bracketed there.  refine_tol defaults to
    ``REFINE_FRAC * max(T_max, 1)`` per row.

    Returns (inside, exit_times, hit_times, failed, x, exits), inside the
    rows' start membership of K (all True without K); missing events are
    INF.  Rows whose integration blows up get failed=True and keep whatever
    events were already found.  x holds each row's state where it left the
    march: after its exit or hit step, at its horizon, its start for a row
    with no step, NaN for a blow-up.  exits (None without K) holds the exit
    brackets: (rows, step starts, step sizes, states before the step).
    """
    X0 = np.atleast_2d(np.asarray(X0, dtype=float))
    n = len(X0)
    if refine_tol is None:
        refine_tol = REFINE_FRAC * np.maximum(T_max, 1.0)

    exit_t = np.full(n, INF)
    hit_t = np.full(n, INF)
    inside = np.ones(n, dtype=bool) if K is None else np.asarray(K.contains_many(X0), dtype=bool)
    need_exit = np.zeros(n, dtype=bool)
    need_hit = np.zeros(n, dtype=bool)
    events = []  # (rows still looking, event times, crossed(rows), brackets)
    none = (np.zeros(0, dtype=int), np.zeros(0), np.zeros(0), np.zeros((0, X0.shape[1])))
    if K is not None:
        need_exit = inside.copy()
        exit_t[~need_exit] = 0.0
        events.append((need_exit, exit_t, lambda X: ~K.contains_many(X), [none]))
    if C is not None:
        need_hit = ~C.contains_many(X0)
        hit_t[~need_hit] = 0.0
        events.append((need_hit, hit_t, C.contains_many, [none]))

    x = X0.copy()
    live = need_exit | need_hit
    one = len(events) == 1
    for rows, t, hj, prev, new in _march(field, x, 0.0, T_max, h, live):
        if len(rows) == 0:
            continue  # every row blew up in this step
        for need, _, crossed, brackets in events:
            # with one kind every row yielded still looks for it: a row retires once it
            # needs nothing, so its mask need not be gathered
            sub = None if one else need[rows]
            if sub is None or sub.all():
                pick = np.flatnonzero(crossed(new))
            elif sub.any():
                pick = np.flatnonzero(sub)[crossed(new[sub])]
            else:
                continue
            if len(pick):
                # t and hj are scalars, or (k, 1) columns on per-row horizons
                t_f, h_f = (a[pick, 0] if np.ndim(a) else np.full(len(pick), a)
                            for a in (t, hj))
                done = rows[pick]
                brackets.append((done, t_f, h_f, prev[pick]))
                need[done] = False
                live[done] = need_exit[done] | need_hit[done]  # retired once it needs nothing
    refine_tol = np.broadcast_to(refine_tol, (n,))
    brackets = [tuple(np.concatenate(a) for a in zip(*b)) for *_, b in events]
    for (_, times, crossed, _), (found, t0, hs, x0) in zip(events, brackets):
        times[found] = _refine_crossings(field, crossed, t0, x0, hs, refine_tol[found])
    failed = ~live & (need_exit | need_hit)
    return inside, exit_t, hit_t, failed, x, brackets[0] if K is not None else None


# ---------------------------------------------------------------------------
# Time functionals
# ---------------------------------------------------------------------------


def _first_events(field, X0, T_max, h, K=None, C=None, refine_tol=None):
    """Exit times of K and hitting times of C of the rows X0, from one :func:`_event_sweep`.

    Returns (exit_times, hit_times, x, exits), the last two as the sweep
    gives them.  A missing event reads INF.

    Raises:
        ValueError: naming the first row that is not finite or, with K,
            starts outside K.
        NonFinite: if a row blows up before every event it looks for.
    """
    X0 = np.atleast_2d(np.asarray(X0, dtype=float))
    need = "an exit time requires x in K" if K is not None else \
        "a hitting time requires a finite x"
    _refuse(~np.isfinite(X0).all(axis=1),
            lambda i: f"{need}: row {i} {X0[i].tolist()} is not finite")
    inside, ex, ht, failed, x, exits = _event_sweep(field, X0, T_max, h, K=K, C=C,
                                                   refine_tol=refine_tol)
    _refuse(~inside, lambda i: f"{need}: row {i} {X0[i].tolist()} is outside K")
    if np.any(failed & (ex >= INF) & (ht >= INF)):  # an event not looked for reads INF
        what = "either event" if K is not None and C is not None else \
            "exiting K" if K is not None else "hitting C"
        raise NonFinite(f"trajectory blew up before {what}")
    return ex, ht, x, exits


def exit_time(field: VectorField, K: SetOracle, x, T_max: float, h: float,
              refine_tol=None) -> float:
    """First time the RK4 trajectory from x leaves K (INF if none by T_max)."""
    return float(_first_events(field, _one_row(x), T_max, h, K=K, refine_tol=refine_tol)[0][0])


def hitting_time(field: VectorField, C: SetOracle, x, T_max: float, h: float) -> float:
    """First time the RK4 trajectory from x enters C (0 if already there)."""
    return float(_first_events(field, _one_row(x), T_max, h, C=C)[1][0])


def capture_margin(field: VectorField, K: SetOracle, C: SetOracle, x,
                   T_max: float, h: float) -> float:
    """Hitting time of C minus exit time of K along the same solution.

    With C = K this is exactly -exit_time (the hitting term is zero).
    Nonpositive margins mean the trajectory reaches C no later than it
    leaves K.  Conventions: hit never found -> +INF; hit found but no
    exit by T_max -> -INF.
    """
    ex, ht, _, _ = _first_events(field, _one_row(x), T_max, h, K=K, C=C)
    return float(_margin_of(ex, ht)[0])


def _margin_of(exit_t: np.ndarray, hit_t: np.ndarray) -> np.ndarray:
    """hit - exit per row; +INF where no hit, -INF where a hit but no exit."""
    return np.where(hit_t >= INF, INF, np.where(exit_t >= INF, -INF, hit_t - exit_t))


# ---------------------------------------------------------------------------
# Grid fields (worker-pool dispatchable)
# ---------------------------------------------------------------------------


def _chunks(n: int, workers: int):
    """Row spans [s, e) covering [0, n) in order: at most workers of them.

    Each span but the last has at least CHUNK_ROWS rows, so a sweep is
    split only where a second thread pays for itself; below 2 *
    CHUNK_ROWS rows there is one span whatever the worker count.
    """
    spans = max(1, min(int(workers), n // CHUNK_ROWS))
    size = max(1, -(-n // spans))
    return [(s, min(s + size, n)) for s in range(0, n, size)]


def _run_chunks(fn, n: int, workers: int):
    """[fn(s, e) for each span of :func:`_chunks`], on one thread per span."""
    spans = _chunks(n, workers)
    if len(spans) <= 1:
        return [fn(s, e) for s, e in spans]
    # imported here: with the logging module it loads, it is ~6 ms of importing the CLI
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=len(spans)) as pool:
        return list(pool.map(lambda se: fn(*se), spans))


def _grid_events(field, grid: GridSpec, T_max, h, workers, K=None, C=None):
    """One :func:`_event_sweep` over every grid node, in row chunks across workers.

    Returns (inside, exit_t, hit_t, failed) per node, with inside the
    nodes' membership of K (all True without K).
    """
    nodes = grid.nodes()
    parts = _run_chunks(lambda s, e: _event_sweep(field, nodes[s:e], T_max, h, K=K, C=C),
                        len(nodes), workers)
    return tuple(np.concatenate(a) for a in zip(*(part[:4] for part in parts)))


def viab_field(field: VectorField, K: SetOracle, grid: GridSpec, T_max: float,
               h: float, workers: int = 1) -> GridFunction:
    """Exit time of K at every grid node; {value >= T} is the T-viability kernel.

    Nodes outside K are marked inside=False and get value 0 (they are
    already out).  Per-node integration failures are recorded as 0.
    """
    inside, ex, _, failed = _grid_events(field, grid, T_max, h, workers, K=K)
    return GridFunction(grid, np.where(~inside | (failed & (ex >= INF)), 0.0, ex), inside)


def capt_field(field: VectorField, C: SetOracle, grid: GridSpec, T_max: float,
               h: float, workers: int = 1) -> GridFunction:
    """Hitting time of C at every grid node; {value <= T} is the T-capture basin.

    Nodes already in C get 0. A node whose integration blows up without
    hitting keeps INF (it never reached C).
    """
    inside, _, ht, _ = _grid_events(field, grid, T_max, h, workers, C=C)
    return GridFunction(grid, ht, inside)


def viable_capt_field(field: VectorField, K: SetOracle, C: SetOracle,
                      grid: GridSpec, T_max: float, h: float,
                      workers: int = 1) -> GridFunction:
    """Capture margin at every in-K node; {value <= 0} is the viable-capture basin."""
    inside, ex, ht, _ = _grid_events(field, grid, T_max, h, workers, K=K, C=C)
    return GridFunction(grid, np.where(inside, _margin_of(ex, ht), INF), inside)


def discrete_kernel(field: VectorField, K: SetOracle, grid: GridSpec,
                    h: float, flow_step=None, workers: int = 1):
    """Fixed-point node deletion: an outer approximation of the viability kernel.

    Start with all in-K nodes; repeatedly delete nodes whose one-step
    image flow(h, .) falls farther than (cell diagonal + h * local
    speed) from every surviving node; iterate to the fixed point.

    Returns:
        (alive, iterations): boolean node mask and the sweep count, at most
        the in-K node count plus 1 (each sweep but the last deletes a node).
    """
    nodes = grid.nodes()
    inside = K.contains_many(nodes)
    alive = inside.copy()
    if not alive.any():
        return alive, 0
    if flow_step is None:
        flow_step = h / 100.0

    idx = np.flatnonzero(alive)
    pts = nodes[idx]
    speed = _row_norms(field(0.0, pts))
    radius = grid.cell_diagonal + h * speed

    parts = _run_chunks(lambda s, e: reach_set(field, h, pts[s:e], flow_step),
                        len(pts), workers)
    images = np.vstack([p for p, _ in parts])
    img_ok = np.concatenate([o for _, o in parts])

    from scipy.spatial import cKDTree

    live = img_ok.copy()  # rows of pts still alive
    iterations = 0
    while True:
        iterations += 1
        survivors = pts[live]
        if len(survivors) == 0:
            break
        tree = cKDTree(survivors)
        d, _ = tree.query(images[live])
        kill = d > radius[live]
        if not kill.any():
            break
        sub = np.flatnonzero(live)
        live[sub[kill]] = False
    alive[:] = False
    alive[idx[live]] = True
    return alive, iterations


@dataclass(frozen=True)
class RepellerReport:
    is_repeller: bool
    t_bar: float  # sup of finite exit times over in-K nodes


def repeller_check(field: VectorField, K: SetOracle, grid: GridSpec,
                   T_max: float, h: float, workers: int = 1) -> RepellerReport:
    """True iff every in-K node exits before T_max; also the sup exit time."""
    tf = viab_field(field, K, grid, T_max, h, workers=workers)
    vals = tf.values[tf.inside]
    if len(vals) == 0:
        return RepellerReport(True, 0.0)
    finite = vals[vals < INF]
    t_bar = float(finite.max()) if len(finite) else 0.0
    return RepellerReport(bool(np.all(vals < INF)), t_bar)
