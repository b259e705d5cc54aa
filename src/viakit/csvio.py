"""CSV export with a fixed, diffable format.

All floats are written with 17 significant digits; the +/-INF sentinels
are emitted literally as ``inf`` and ``-inf``.  Node ordering is the
producing grid's row-major order, so repeated runs are byte-identical.
"""

from __future__ import annotations

import numpy as np

from .common import INF
from .dynamics import Trajectory
from .epi_hj import GridFunction, HJReport
from .kernels import GridSpec, TimeField

# Rows formatted by one ``%`` and written by one ``write``: about 0.25 MB
# of text at three columns, whatever the table's length.
BLOCK = 4096


def _write_rows(path, header, *columns):
    """Write the columns side by side under header, one ``%.17g`` table row per line.

    Each column is an (N,) or (N, k) array; values >= INF read ``inf`` and
    values <= -INF read ``-inf``.  Rows are formatted BLOCK at a time from
    Python floats, whose ``%.17g`` text is that of the float64 they came from.
    """
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    table[table >= INF] = np.inf
    table[table <= -INF] = -np.inf
    fmt = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(table), BLOCK):
            block = table[start:start + BLOCK]
            fh.write((fmt * len(block)) % tuple(block.ravel().tolist()))


def write_trajectory(path, traj: Trajectory):
    header = ["t"] + [f"x{i+1}" for i in range(traj.dim)]
    _write_rows(path, header, traj.times, traj.states)


def write_timefield(path, tf: TimeField):
    write_values(path, tf.grid.nodes(), tf.values)


def write_boolfield(path, grid: GridSpec, mask):
    write_values(path, grid.nodes(), np.asarray(mask, dtype=bool), label="member")


def write_points(path, points):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    header = [f"x{i+1}" for i in range(points.shape[1])]
    _write_rows(path, header, points)


def write_values(path, xs, values, label: str = "value"):
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    header = [f"x{i+1}" for i in range(xs.shape[1])] + [label]
    _write_rows(path, header, xs, values)


def write_gridfunction(path, gf: GridFunction):
    write_values(path, gf.grid.nodes(), gf.values)


def write_hj_report(path, report: HJReport):
    dim = report.samples.shape[1]
    header = [f"x{i+1}" for i in range(dim)] + \
        ["residual_fwd", "residual_bwd", "complementarity"]
    _write_rows(path, header, report.samples, report.residual_fwd, report.residual_bwd,
                report.complementarity)


def write_graphcloud(path, cloud):
    n, p = cloud.state_dim, cloud.out_dim
    header = ["t"] + [f"x{i+1}" for i in range(n)] + [f"y{i+1}" for i in range(p)]
    _write_rows(path, header, cloud.points)


def write_solution_field(path, ts, xs, us):
    """Rows (t, x..., u...) of a solution sampled on an evaluation lattice."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    us = np.atleast_2d(np.asarray(us, dtype=float))
    header = ["t"] + [f"x{i+1}" for i in range(xs.shape[1])] + \
        [f"u{i+1}" for i in range(us.shape[1])]
    _write_rows(path, header, ts, xs, us)
