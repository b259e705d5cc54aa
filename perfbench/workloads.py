"""The seeded viakit workloads: CLI configs and closed-form checks.

A workload is a fixed list of CLI invocations whose configs are drawn from
one seed.  The seed moves only problem parameters (grid offsets, data
coefficients, evaluation points, target centres) inside ranges that keep
the work per run fixed and the closed forms valid; node, point and seed
counts never change with it.

Every check reads the CSVs an invocation wrote and raises ``CheckFailed``
on a missing or malformed file, a wrong row count or any value outside its
tolerance.  Otherwise it returns the worst absolute error against the
closed form.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.spatial import cKDTree


class CheckFailed(Exception):
    """An output is missing, malformed or outside its tolerance."""


@dataclass(frozen=True)
class Invocation:
    """One ``viakit SUBCOMMAND CONFIG -o OUTDIR --workers N`` call."""

    tag: str
    subcommand: str
    config: dict
    workers: int
    check: Callable  # (outdir, captured stdout) -> worst absolute error
    corrupt: tuple   # (csv name, column) the negative control alters


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple
    items: int             # work items per run, the base of items_per_s
    item_unit: str
    compare_workers1: bool  # byte-compare the CSVs against a --workers 1 run


# ---------------------------------------------------------------------------
# CSV helpers
# ---------------------------------------------------------------------------


def read_csv(outdir, name, header):
    """Rows of a CLI CSV as floats (``inf`` parses to infinity)."""
    path = os.path.join(outdir, name)
    if not os.path.isfile(path):
        raise CheckFailed(f"{name} missing")
    with open(path, encoding="utf-8") as fh:
        head = fh.readline().rstrip("\n").split(",")
        if head != header:
            raise CheckFailed(f"{name}: header {head} != {header}")
        try:
            return np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise CheckFailed(f"{name}: unreadable row ({exc})") from exc


def _rows(rows, count, name):
    if len(rows) != count:
        raise CheckFailed(f"{name}: {len(rows)} rows, expected {count}")
    return rows


def _same_coords(got, want, name):
    if got.shape != want.shape or not np.array_equal(got, want):
        raise CheckFailed(f"{name}: coordinates differ from the requested lattice")


def _max_err(got, want, tol, name):
    """Worst |got - want|; infinite entries must match exactly."""
    inf_want = np.isinf(want)
    if np.any(np.isinf(got) != inf_want):
        raise CheckFailed(f"{name}: {int(np.sum(np.isinf(got) != inf_want))} "
                          "row(s) disagree on +inf")
    err = np.abs(got[~inf_want] - want[~inf_want])
    worst = float(err.max()) if err.size else 0.0
    if not worst <= tol:  # also catches NaN
        raise CheckFailed(f"{name}: error {worst:.3g} above tolerance {tol:g}")
    return worst


def _grid_nodes(lo, hi, counts):
    axes = [np.linspace(a, b, int(n) + 1) for a, b, n in zip(lo, hi, counts)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


# ---------------------------------------------------------------------------
# epigraph-sweep
# ---------------------------------------------------------------------------

EPI_T, EPI_H = 8.0, 0.02
EPI_COUNTS = {"viab-unit": 25, "capt-zero": 32, "viab-zero": 64}
EPI_TOL = 1e-6  # event refinement stops at 1e-8 * T


def _exit_root(a, y):
    """First root of y - t = a e^{-t}, for 0 <= a < 1 and y >= a.

    The left side minus the right is concave and strictly decreasing for
    a < 1, so Newton's method from t = y converges from above.
    """
    t = y.copy()
    for _ in range(60):
        e = a * np.exp(-t)
        t = t - (y - t - e) / (-1.0 + e)
    return t


def _epigraph_check(tag, grid):
    counts = [EPI_COUNTS[tag]] * 2
    nodes = _grid_nodes(grid["lo"], grid["hi"], counts)
    name = ("capt" if tag.startswith("capt") else "viab") + ".csv"

    def check(outdir, _stdout):
        rows = _rows(read_csv(outdir, name, ["x1", "x2", "value"]), len(nodes), name)
        _same_coords(rows[:, :2], nodes, name)
        x, y, got = rows[:, 0], rows[:, 1], rows[:, 2]
        a = np.abs(x)
        on_epi = a - y <= 0.0
        if tag == "viab-unit":  # every node of K leaves: the kernel is empty
            want = np.where(on_epi, _exit_root(a, np.maximum(y, a)), 0.0)
        elif tag == "viab-zero":  # no node of K ever leaves
            want = np.where(on_epi, np.inf, 0.0)
        else:  # hit at ln(|x|/y); y = 0 off the epigraph never enters
            with np.errstate(divide="ignore"):
                t_hit = np.log(a / np.where(y > 0.0, y, 1.0))
            want = np.where(on_epi, 0.0,
                            np.where((y > 0.0) & (t_hit <= EPI_T), t_hit, np.inf))
        return _max_err(got, want, EPI_TOL, name)

    return check


def epigraph_sweep(rng):
    shift = rng.uniform(-0.05, 0.05)  # x-window offset; keeps |x| < 1
    y_top = rng.uniform(1.58, 1.62)
    grid = {"lo": [-0.8 + shift, 0.0], "hi": [0.8 + shift, y_top]}
    epi = {"kind": "epigraph", "obstacle": {"kind": "abs"}, "state_dim": 1}

    def lifted(lagrangian):
        return {"kind": "lifted", "field": {"kind": "linear", "a": -1.0},
                "lagrangian": {"kind": lagrangian}, "obstacle": {"kind": "abs"},
                "discount": 0.0}

    invs = []
    for tag, sub, lag in (("viab-unit", "viab", "unit"), ("capt-zero", "capt", "zero"),
                          ("viab-zero", "viab", "zero")):
        g = dict(grid, counts=[EPI_COUNTS[tag]] * 2)
        cfg = {"field": lifted(lag), "set": epi, "grid": g,
               "horizon": EPI_T, "step": EPI_H}
        csv = ("capt" if sub == "capt" else "viab") + ".csv"
        invs.append(Invocation(tag, sub, cfg, 2, _epigraph_check(tag, g), (csv, 2)))
    nodes = sum((n + 1) ** 2 for n in EPI_COUNTS.values())
    return Workload("epigraph-sweep", tuple(invs), nodes, "nodes", True)


# ---------------------------------------------------------------------------
# char-lattice
# ---------------------------------------------------------------------------

PDE_POINTS, PDE_H, PDE_DECAY = 100, 1e-2, 2.0
DEMO_POINTS, DEMO_H = 64, 1e-2
DEMO_PARAMS = {"rho": 1.0, "sigma": 0.5, "beta": 0.3, "b": 2.0, "r2": math.e, "A": 0.4}
HJ_COUNTS, HJ_SAMPLES, HJ_H, HJ_T = 200, 41, 1e-3, 4.0
CORNER_GAP = 5  # lattice points stay this many steps off a regime switch
CHAR_TOL = 1e-6
DEMO_TOL = 1e-4


def _pde_check(ts, xs, w, phase, slope, offset):
    def check(outdir, _stdout):
        name = "pde_solution.csv"
        rows = _rows(read_csv(outdir, name, ["t", "x1", "u1"]), len(ts), name)
        _same_coords(rows[:, :2], np.stack([ts, xs], axis=1), name)
        # initial datum sin(w x + phase) carried with decay e^{-2t} for t <= x;
        # otherwise the boundary datum slope * s + offset, s = t - x, decayed over x
        want = np.where(ts <= xs,
                        np.exp(-PDE_DECAY * ts) * np.sin(w * (xs - ts) + phase),
                        np.exp(-PDE_DECAY * xs) * (slope * (ts - xs) + offset))
        return _max_err(rows[:, 2], want, CHAR_TOL, name)

    return check


def _demo_check(ts, xs):
    def check(outdir, _stdout):
        header = ["t", "x1", "x2", "x3", "x4", "u1"]
        _rows(read_csv(outdir, "demo4d_solution.csv", header), len(ts), "demo4d_solution.csv")
        rows = _rows(read_csv(outdir, "demo4d_diff.csv", header), len(ts), "demo4d_diff.csv")
        _same_coords(rows[:, :5], np.column_stack([ts, xs]), "demo4d_diff.csv")
        return _max_err(rows[:, 5], np.zeros(len(ts)), DEMO_TOL, "demo4d_diff.csv")

    return check


def _hj_check(grid, center, radius, n_samples):
    nodes = _grid_nodes(grid["lo"], grid["hi"], grid["counts"])[:, 0]

    def check(outdir, stdout):
        found = re.search(r"hj-check inf: (\d+) violation", stdout)
        if found is None or int(found.group(1)) != 0:
            raise CheckFailed(f"hj-check reported: {stdout.strip()!r}")
        _rows(read_csv(outdir, "hj_residuals.csv",
                       ["x1", "residual_fwd", "residual_bwd", "complementarity"]),
              n_samples, "hj_residuals.csv")
        name = "value_field.csv"
        rows = _rows(read_csv(outdir, name, ["x1", "value"]), len(nodes), name)
        _same_coords(rows[:, 0], nodes, name)
        # unit speed to the right: the minimal time is the distance to the ball,
        # and nodes right of it never arrive
        x = rows[:, 0]
        want = np.where(np.abs(x - center) - radius <= 0.0, 0.0,
                        np.where(x < center, center - radius - x, np.inf))
        return _max_err(rows[:, 1], want, CHAR_TOL, name)

    return check


def _stratified(rng, n, lo, hi):
    """One uniform draw in each of n equal slices of [lo, hi], shuffled.

    Each lattice point costs steps in proportion to how far its
    characteristic runs back, so stratifying that time keeps the work per
    run nearly the same for every seed.
    """
    return rng.permutation(lo + (hi - lo) * (np.arange(n) + rng.uniform(0.0, 1.0, n)) / n)


def _two_gaps(rng, min_gap):
    """Two offsets above the backtracking time that also differ by min_gap."""
    while True:
        g = rng.uniform(min_gap, 1.0, 2)
        if abs(g[0] - g[1]) >= min_gap:
            return g


def char_lattice(rng):
    invs = []

    # pde-char: transport x' = 1 on the half-line x >= 0 with y' = -2 y
    w, phase = rng.uniform(0.8, 1.2), rng.uniform(-0.5, 0.5)
    slope, offset = rng.uniform(-0.5, 0.5), rng.uniform(-1.0, 1.0)
    # the characteristic through (t, x) runs back min(t, x); the other
    # coordinate sits at least CORNER_GAP steps beyond it
    tau = _stratified(rng, PDE_POINTS, 0.05, 1.0)
    beyond = tau + rng.uniform(CORNER_GAP * PDE_H, 1.0, PDE_POINTS)
    initial = rng.uniform(size=PDE_POINTS) < 0.5
    ts, xs = np.where(initial, tau, beyond), np.where(initial, beyond, tau)
    pde = {"pde": {"phi": {"kind": "transport", "velocity": [1.0]},
                   "g": {"kind": "decay", "rate": PDE_DECAY},
                   "K": {"kind": "box", "lo": [0.0], "hi": [None]},
                   "u0": {"kind": "sin", "weights": [w], "offset": phase},
                   "v": {"kind": "affine", "weights": [slope, 0.0], "offset": offset},
                   "out_dim": 1},
           "step": PDE_H, "eval": {"ts": ts.tolist(), "xs": xs[:, None].tolist()}}
    invs.append(Invocation("pde-char", "pde-char", pde, 1,
                           _pde_check(ts, xs, w, phase, slope, offset),
                           ("pde_solution.csv", 2)))

    # demo4d: closed-form 4-D demographic system against the numeric solver
    def weights(lo, hi):
        return [round(float(v), 6) for v in rng.uniform(lo, hi, 4)]

    # the backtracking time min(t, x1, tau2), tau2 = ln(r2 / x2) / rho, is
    # stratified; the other two sit CORNER_GAP steps beyond it and apart
    rho, r2 = DEMO_PARAMS["rho"], DEMO_PARAMS["r2"]
    dts, dxs = [], []
    for tau in _stratified(rng, DEMO_POINTS, 0.2, 1.2):
        g = tau + _two_gaps(rng, CORNER_GAP * DEMO_H)
        t, x1, tau2 = np.roll([tau, g[0], g[1]], int(rng.integers(3)))
        dts.append(float(t))
        dxs.append([float(x1), float(r2 * math.exp(-rho * tau2)),
                    float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.5, 1.5))])
    demo = {"demo4d": dict(DEMO_PARAMS,
                           u0={"kind": "affine", "weights": weights(0.0, 0.5), "offset": 1.0},
                           v1={"kind": "affine", "weights": weights(0.0, 1.0)},
                           v_r2={"kind": "affine", "weights": weights(-0.1, 0.3)}),
            "step": DEMO_H, "eval": {"ts": dts, "xs": dxs}}
    invs.append(Invocation("demo4d", "demo4d", demo, 1,
                           _demo_check(np.array(dts), np.array(dxs)),
                           ("demo4d_diff.csv", 5)))

    # hj-check inf: minimal time to a small ball under unit transport
    center, radius = rng.uniform(0.95, 1.05), rng.uniform(0.04, 0.06)
    lo = -2.0 + rng.uniform(-0.05, 0.05)
    grid = {"lo": [lo], "hi": [lo + 4.0], "counts": [HJ_COUNTS]}
    # samples keep 8 cells clear of the grid's left end and of the ball's
    # edge: the epiderivative probes reach 6 cells out, and the gridded value
    # is not the distance inside the cell that holds the edge
    cell = 4.0 / HJ_COUNTS
    samples = np.linspace(lo + 8 * cell, center - radius - 8 * cell, HJ_SAMPLES)
    hj = {"field": {"kind": "transport", "velocity": [1.0]},
          "lagrangian": {"kind": "unit"},
          "obstacle": {"kind": "indicator",
                       "set": {"kind": "ball", "center": [center], "radius": radius}},
          "grid": grid, "mode": "inf", "horizon": HJ_T, "step": HJ_H,
          "points": samples[:, None].tolist()}
    invs.append(Invocation("hj-check", "hj-check", hj, 1,
                           _hj_check(grid, center, radius, HJ_SAMPLES),
                           ("value_field.csv", 1)))
    items = PDE_POINTS + DEMO_POINTS + HJ_COUNTS + 1
    return Workload("char-lattice", tuple(invs), items, "points+nodes", False)


# ---------------------------------------------------------------------------
# shock-graph
# ---------------------------------------------------------------------------

SHOCK_SEEDS, SHOCK_T, SHOCK_H = 801, 1.2, 0.01
SHOCK_TOL = 1e-9
SHOCK_RADIUS = 0.02  # query window around the crossing, as in criterion 12


def _shock_check(k):
    def check(outdir, _stdout):
        name = "graph_cloud.csv"
        rows = read_csv(outdir, name, ["t", "x1", "y1"])
        if len(rows) < 2:
            raise CheckFailed(f"{name}: {len(rows)} rows")
        t, x, y = rows[:, 0], rows[:, 1], rows[:, 2]
        # y = -k x0 is carried unchanged along x = x0 + y t
        err = _max_err(x, -(y / k) * (1.0 - k * t), SHOCK_TOL, name)
        close = cKDTree(rows).query_pairs(SHOCK_H / 2.0, output_type="ndarray")
        if len(close):
            raise CheckFailed(f"{name}: {len(close)} kept pair(s) within tol/2")
        near = (np.abs(t - 1.0 / k) <= SHOCK_RADIUS) & (np.abs(x) <= SHOCK_RADIUS)
        outputs, last = 0, -np.inf
        for v in np.sort(y[near]):
            if v - last > SHOCK_H:
                outputs, last = outputs + 1, v
        if outputs < 3:
            raise CheckFailed(f"{name}: {outputs} output(s) more than tol apart "
                              "at the crossing, expected >= 3")
        return err

    return check


def shock_graph(rng):
    # u0 = -k x: characteristics meet at t = 1/k.  Slopes below 1 keep about
    # 10% fewer rows after the dedup, so k stays on one side of 1.
    k = rng.uniform(1.0, 1.03)
    shift = rng.uniform(-0.02, 0.02)
    cfg = {"pde": {"f": {"kind": "output"}, "g": {"kind": "zero"},
                   "K": {"kind": "box", "lo": [None], "hi": [None]},
                   "u0": {"kind": "affine", "weights": [-k]}, "out_dim": 1},
           "step": SHOCK_H,
           "graph": {"T": SHOCK_T, "seeds_per_face": SHOCK_SEEDS,
                     "seed_lo": [-1.0 + shift], "seed_hi": [1.0 + shift]}}
    inv = Invocation("pde-graph", "pde-graph", cfg, 1, _shock_check(k),
                     ("graph_cloud.csv", 1))
    steps = math.ceil(SHOCK_T / SHOCK_H - 1e-9)
    return Workload("shock-graph", (inv,), SHOCK_SEEDS * steps, "row-steps", False)


WORKLOADS = {
    "epigraph-sweep": epigraph_sweep,
    "char-lattice": char_lattice,
    "shock-graph": shock_graph,
}


def make(name, seed):
    return WORKLOADS[name](np.random.default_rng(seed))


def corrupt_csv(path, column):
    """Alter one value of the middle data row: the negative control."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    row = 1 + (len(lines) - 1) // 2
    fields = lines[row].split(",")
    old = fields[column]
    fields[column] = "0.5" if old == "inf" else repr(float(old) + 0.01 + 0.01 * abs(float(old)))
    lines[row] = ",".join(fields)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
