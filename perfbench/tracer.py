"""Per-layer counters and timers for viakit, gathered from outside the package.

``Tracer.install`` replaces public functions and methods at the names their
callers look up (``viakit.cli.viab_field``, ``viakit.kernels.rk4_step``,
``VectorField.__call__``, the membership methods of every set class, ...);
``uninstall`` puts the originals back.  Nothing under ``src/`` is edited.

Each call of a wrapped name is a span on its thread's stack; a span's self
time is its duration minus that of the spans it called.  Hot boundaries
(field evaluations, membership tests, RK4 steps) add to counters and timers
instead of keeping one record per call.  Every thread adds to its own
store, so the sweeps that ``--workers N`` spreads over a thread pool need
no lock on the hot path; the stores are summed when read.
"""

from __future__ import annotations

import math
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np
from viakit.common import INF


def _rows(x):
    return len(x) if np.ndim(x) > 1 else 1


class Tracer:
    def __init__(self):
        self._patches = []
        self._lock = threading.Lock()
        self._grid_depth = 0  # grid-field calls in progress, read by pool threads
        self.reset()

    # -- per-thread state ------------------------------------------------------
    def reset(self):
        """Drop every count and timer; call between traced passes."""
        with self._lock:
            self._local = threading.local()
            self._stores = []
        self.written = []  # CSV paths written while installed

    def _state(self):
        loc = self._local
        try:
            return loc.store, loc.stack, loc.depth
        except AttributeError:
            loc.store, loc.stack, loc.depth = defaultdict(float), [], defaultdict(int)
            with self._lock:
                self._stores.append(loc.store)
            return loc.store, loc.stack, loc.depth

    def totals(self):
        """Every counter and timer summed over threads, plus the CSV sizes."""
        out = defaultdict(float)
        with self._lock:
            for store in self._stores:
                for key, value in store.items():
                    out[key] += value
        for path in self.written:
            with open(path, "rb") as fh:
                data = fh.read()
            out["csvio.rows"] += data.count(b"\n") - 1
            out["csvio.bytes"] += len(data)
        return out

    # -- spans -------------------------------------------------------------------
    def _timed(self, key, fn, args, kwargs, self_key=None):
        store, stack, _ = self._state()
        stack.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - t0
            child = stack.pop()
            if stack:
                stack[-1] += dur
            store[key + "_s"] += dur
            if self_key:
                store[self_key] += dur - child

    def _span(self, key, fn, self_key=None, count=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if count is not None:
                tracer._state()[0][count] += 1
            return tracer._timed(key, fn, args, kwargs, self_key)

        return wrapper

    def _outermost(self, kind, key, calls, fn, row_arg):
        """Count and time only the outermost call of ``kind`` on a thread."""
        tracer = self

        def wrapper(*args, **kwargs):
            store, _, depth = tracer._state()
            if depth[kind]:
                return fn(*args, **kwargs)
            depth[kind] = 1
            try:
                store[calls] += 1
                store[key + "_rows"] += _rows(args[row_arg])
                return tracer._timed(key, fn, args, kwargs)
            finally:
                depth[kind] = 0

        return wrapper

    def _rk4_step(self, fn):
        tracer = self

        def rk4_step(field, t, x, h):
            store = tracer._state()[0]
            if np.ndim(x) > 1:
                store["dynamics.batched_steps"] += 1
                store["dynamics.batched_rows"] += len(x)
            else:
                store["dynamics.scalar_steps"] += 1
                if tracer._grid_depth:
                    store["kernels.refine_steps"] += 1
            return tracer._timed("dynamics.step", fn, (field, t, x, h), {})

        return rk4_step

    def _grid_field(self, fn):
        tracer = self

        def wrapper(field, K, grid, *args, **kwargs):
            store = tracer._state()[0]
            tracer._grid_depth += 1
            try:
                tf = tracer._timed("kernels.sweep", fn, (field, K, grid) + args, kwargs)
            finally:
                tracer._grid_depth -= 1
            store["kernels.nodes"] += grid.node_count
            store["kernels.events"] += int(np.count_nonzero((tf.values > 0.0)
                                                            & (tf.values < INF)))
            return tf

        return wrapper

    def _graph_sample(self, fn):
        tracer = self

        def wrapper(prob, T, h, *args, **kwargs):
            store = tracer._state()[0]
            cloud = tracer._timed("characteristics.graph", fn, (prob, T, h) + args,
                                  kwargs, self_key="characteristics.graph_self_s")
            store["characteristics.cloud_rows"] += len(cloud)
            # computed base: every seed recorded at t = s and after each step
            store["characteristics.keep_base"] += \
                len(cloud.seeds) * (math.ceil(T / h - 1e-9) + 1)
            return cloud

        return wrapper

    def _tabulate(self, fn):
        tracer = self

        def wrapper(p, xs, *args, **kwargs):
            tracer._state()[0]["epi_hj.tabulate_rows"] += _rows(xs)
            return tracer._timed("epi_hj.tabulate", fn, (p, xs) + args, kwargs)

        return wrapper

    def _csv_writer(self, fn):
        tracer = self

        def wrapper(path, *args, **kwargs):
            _, _, depth = tracer._state()
            if depth["csvio"]:
                return fn(path, *args, **kwargs)
            depth["csvio"] = 1
            try:
                return tracer._timed("csvio.write", fn, (path,) + args, kwargs)
            finally:
                depth["csvio"] = 0
                tracer.written.append(path)

        return wrapper

    # -- installation -------------------------------------------------------------
    def _patch(self, owner, name, wrapper):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def install(self):
        from viakit import characteristics, cli, csvio, dynamics, epi_hj, kernels, sets

        self._patch(cli, "main", self._span("cli.main", cli.main, self_key="cli.self_s"))
        for name in ("viab_field", "capt_field"):
            self._patch(cli, name, self._grid_field(getattr(cli, name)))
        for owner, name in ((cli, "exit_time"), (cli, "hitting_time"),
                            (characteristics, "exit_time")):
            self._patch(owner, name, self._span("kernels.point", getattr(owner, name),
                                                count="kernels.point_calls"))
        for owner in (dynamics, kernels, epi_hj):
            self._patch(owner, "rk4_step", self._rk4_step(owner.rk4_step))
        self._patch(dynamics.VectorField, "__call__",
                    self._outermost("field", "dynamics.field", "dynamics.field_evals",
                                    vars(dynamics.VectorField)["__call__"], 2))
        for cls in vars(sets).values():
            if isinstance(cls, type) and issubclass(cls, sets.SetOracle):
                for name in ("contains", "contains_many", "margin", "margin_many"):
                    if name in vars(cls):
                        self._patch(cls, name, self._outermost(
                            "sets", "sets.membership", "sets.membership_calls",
                            vars(cls)[name], 1))
        for name in list(vars(csvio)):
            if name.startswith("write_"):
                self._patch(csvio, name, self._csv_writer(getattr(csvio, name)))
        self._patch(cli, "tabulate_values", self._tabulate(cli.tabulate_values))
        for name in ("hj_check_inf", "hj_check_sup"):
            self._patch(cli, name, self._span("epi_hj.check", getattr(cli, name)))
        self._patch(epi_hj.GridFunction, "interp",
                    self._span("epi_hj.interp", epi_hj.GridFunction.interp,
                               count="epi_hj.interp_calls"))
        value_at = epi_hj.CostPath.value_at
        tracer = self

        def counted_value_at(path, t):
            tracer._state()[0]["epi_hj.refine_evals"] += 1
            return value_at(path, t)

        self._patch(epi_hj.CostPath, "value_at", counted_value_at)
        self._patch(cli, "solve_char",
                    self._span("characteristics.solve", cli.solve_char,
                               count="characteristics.solve_calls"))
        self._patch(characteristics.Demo4D, "__call__",
                    self._span("characteristics.oracle", characteristics.Demo4D.__call__))
        self._patch(cli, "graph_sample", self._graph_sample(cli.graph_sample))

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
