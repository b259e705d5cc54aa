"""Batch front-end: parse a problem-definition file, run one computation, write CSVs.

Usage: ``viakit SUBCOMMAND CONFIG.json [-o OUTDIR] [--workers N]``.

The config format is JSON (chosen over TOML so the stdlib covers it on
Python 3.10); sections are documented in the README.  A config is read
into typed values by its subcommand's schema entry before anything runs.
Output is deterministic: fixed row-major node ordering and
17-significant-digit floats, so runs are diffable, and ``--workers 1`` is
byte-identical to any other worker count.  ``--workers N`` is an upper
bound: a grid sweep (``viab``, ``capt``, ``viable-capt``, ``kernel``)
over n nodes runs on at most ``max(1, n // kernels.CHUNK_ROWS)`` threads
(``CHUNK_ROWS`` is 6144), so a grid of fewer than 12288 nodes runs on
one thread whatever N is.  The only environment override is
``VIAKIT_OUT`` for the output directory.

Exit codes: 0 success; 2 config error (with a field diagnostic), a grid
too large to index, a config file or output directory that cannot be
read or made, or a set kind with no rule for what the run asks of it
(Unsupported: the boundary distance of a point-cloud ``pde.K`` with a
datum ``v``); 3 numeric failure (NonFinite, CapTooSmall, ParamDomain,
float overflow, or a MemoryError), naming the operation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import csvio
from .common import _Filled, _refuse, _row_norms
# solve_char stays importable here: perfbench/tracer.py wraps cli.solve_char
from .characteristics import (BoundaryData, CharProblem, demo4d, graph_sample,
                              solve_char, solve_char_many)
from .dynamics import (VectorField, _schedule, demographic_field, flow, integrate,
                       linear_field, logistic_field, reach_set, rotation_field,
                       transport_field)
from .epi_hj import (LagrangianProblem, abs_obstacle,
                     const_lagrangian, epigraph_oracle, hj_check_inf,
                     hj_check_sup, indicator_obstacle, lift, minimal_length_problem,
                     minimal_time_problem, speed_lagrangian, tabulate_values,
                     unit_lagrangian, zero_lagrangian, zero_obstacle)
from .errors import (CapTooSmall, ConfigError, NonFinite, NonzeroLagrangian, ParamDomain,
                     Unsupported)
# exit_time and hitting_time stay importable here: perfbench/tracer.py wraps them
from .kernels import (CHUNK_ROWS, GridFunction, GridSpec, _first_events, capt_field,
                      discrete_kernel, exit_time, hitting_time, lattice_points,
                      viab_field, viable_capt_field)
from .sets import (ball, box, complement, halfspace, intersection,
                   point_cloud_set, product, sphere, union)

_REQUIRED = object()


def _floats(value) -> np.ndarray:
    """value as a float array; a null entry, which a float cast reads as NaN, is refused."""
    if np.equal(np.array(value, dtype=object), None).any():
        raise ValueError("null is not a number")
    return np.array(value, dtype=float)


def _rows(value) -> np.ndarray:
    """A list of rows, or one flat row, as an (m, n) array."""
    arr = _floats(value)
    return np.atleast_2d(arr) if arr.ndim else arr  # a number is no row


def _bounds(fill):
    """The form of box bounds: a list of numbers, null for no bound (read as fill)."""
    return ("numeric (null for no bound)",
            lambda value: np.array([fill if v is None else v for v in value], dtype=float),
            lambda a: a.ndim == 1 and not np.isnan(a).any())


#: Each leaf form: what the value must be (for the diagnostic), its conversion
#: (which raises TypeError, ValueError or OverflowError on other values), and a
#: test of the converted value (None: any).  Counts must fit in int64.
_FORMS = {
    "number": ("a number", float, None),
    "finite": ("a finite number", float, math.isfinite),
    "step": ("finite and > 0", float, lambda h: math.isfinite(h) and h > 0.0),
    "horizon": ("finite and >= 0", float, lambda T: math.isfinite(T) and T >= 0.0),
    "count": ("an integer >= 1", int, lambda n: 1 <= n < 2 ** 63),
    "counts": ("a 1-D list of integers", lambda v: np.array(v, dtype=np.int64),
               lambda a: a.ndim == 1),
    "vector": ("a 1-D numeric list", _floats, lambda a: a.ndim == 1),
    "finites": ("a 1-D list of finite numbers", lambda v: np.array(v, dtype=float),
                lambda a: a.ndim == 1 and np.isfinite(a).all()),
    "rows": ("a 2-D numeric list", _rows, lambda a: a.ndim == 2),
    "finite-rows": ("a 2-D list of finite numbers", _rows,
                    lambda a: a.ndim == 2 and np.isfinite(a).all()),
    "matrix": ("a square matrix of finite numbers", lambda v: np.array(v, dtype=float),
               lambda a: a.ndim == 2 and a.shape[0] == a.shape[1] and np.isfinite(a).all()),
    "lo": _bounds(-np.inf),
    "hi": _bounds(np.inf),
    "list": ("a list", lambda v: v, lambda v: isinstance(v, list)),
    "mode": ("'sup' or 'inf'", str, lambda m: m in ("sup", "inf")),
}


class _Section:
    """A JSON object of the config, named by its dotted path for diagnostics."""

    def __init__(self, value, where: str):
        if not isinstance(value, dict):
            raise ConfigError(f"section {where!r} must be a JSON object, got {value!r}")
        self.value, self.where = value, where

    def __contains__(self, key) -> bool:
        """Whether key is given: present, and neither null nor []."""
        return self.value.get(key) not in (None, [])

    def sub(self, key: str, default=_REQUIRED) -> "_Section":
        """Subsection key (dotted keys nest), or default when given and key is not."""
        s = self
        for name in key.split("."):
            where = name if s.where == "config" else f"{s.where}.{name}"
            s = _Section(s.read(name, default=default), where)
        return s

    def read(self, key: str, form=None, default=_REQUIRED, length=None):
        """Leaf key (dotted keys nest) in form, raw when None, or default when given
        and key is not; with length, a vector of that many numbers."""
        section, _, key = key.rpartition(".")
        s = self.sub(section) if section else self
        if default is not _REQUIRED and key not in s:
            return default
        if key not in s.value:
            raise ConfigError(f"missing {key!r} in section {s.where!r}")
        value = s.value[key]
        if form is None:
            return value
        what, convert, test = _FORMS[form]
        try:
            x = convert(value)
            ok = test is None or test(x)
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            raise ConfigError(f"{key!r} in section {s.where!r} must be {what}, got {value!r}")
        if length is not None and x.shape != (length,):
            raise ConfigError(f"{key!r} in section {s.where!r} must be a vector of length "
                              f"{length}, got shape {x.shape}")
        return x


def _kind(s: _Section, table: dict, what: str):
    """The entry of table under s's kind."""
    kind = s.read("kind")
    if not isinstance(kind, str) or kind not in table:
        raise ConfigError(f"unknown {what} kind {kind!r} in section {s.where!r}")
    return table[kind]


def _check_dims(dim: int, where: str, d: int):
    """ConfigError unless the dimension d of section where is dim."""
    if d != dim:
        raise ConfigError(f"section {where!r} has dimension {d}, but the field has "
                          f"dimension {dim}")


def _require_inside(K, rows, where: str, set_name: str):
    """ConfigError naming the first of ``rows`` outside ``K``."""
    _refuse(~K.contains_many(rows),
            lambda i: f"{where} row {i} {rows[i].tolist()} is outside {set_name}", ConfigError)


def _field(s: _Section, dim: int) -> VectorField:
    """The field of s; dim is the dimension of the data it runs on.

    Fields that act component by component (a scalar ``linear`` without
    ``dim``, ``logistic``, ``polynomial``, a one-element ``transport``)
    take that dimension (at least 1); the others fix their own.
    """
    return _kind(s, _FIELDS, "field")(s, max(dim, 1))


def _linear(s: _Section, dim: int) -> VectorField:
    if "matrix" in s:
        return linear_field(s.read("matrix", "matrix"))
    return linear_field(s.read("a", "finite"), dim=s.read("dim", "count", dim))


def _transport(s: _Section, dim: int) -> VectorField:
    v = s.read("velocity", "finites")
    # a one-element velocity acts on every column, so its speed, growth_c, is |v| sqrt(dim)
    return transport_field(np.full(dim, v[0]) if v.size == 1 else v)


def _polynomial(s: _Section, dim: int) -> VectorField:
    coeffs = s.read("coeffs", "finites")

    def ev(t, x):
        acc = np.zeros_like(x)
        for c in coeffs[::-1]:
            acc = acc * x + c
        return acc

    return VectorField(dim, ev, name="polynomial")


_FIELDS = {
    "linear": _linear,
    "rotation": lambda s, dim: rotation_field(s.read("omega", "finite", 1.0)),
    "logistic": lambda s, dim: replace(
        logistic_field(s.read("beta", "finite"), s.read("b", "finite")), dim=dim),
    "transport": _transport,
    "demographic": lambda s, dim: demographic_field(
        *(s.read(k, "finite") for k in ("rho", "sigma", "beta", "b"))),
    "polynomial": _polynomial,
    # state-cost dynamics of a value problem; pairs with an "epigraph" set
    "lifted": lambda s, dim: lift(_problem(s, dim - 1)),
}


def _set(s: _Section, dim=None):
    """The set of s; with dim, ConfigError unless it has that dimension."""
    try:
        K = _kind(s, _SETS, "set")(s)
    except ValueError as exc:  # a constructor's own check, e.g. box lo > hi
        raise ConfigError(f"{exc} in section {s.where!r}") from exc
    if dim is not None:
        _check_dims(dim, s.where, K.dim)
    return K


def _combination(key: str, combine):
    """The builder of a set that combines the JSON list of sets under key."""
    return lambda s: combine(*[_set(_Section(part, s.where)) for part in s.read(key, "list")])


_SETS = {
    "box": lambda s: box(s.read("lo", "lo"), s.read("hi", "hi")),
    "ball": lambda s: ball(s.read("center", "finites"), s.read("radius", "number")),
    "sphere": lambda s: sphere(s.read("center", "finites"), s.read("radius", "number")),
    "halfspace": lambda s: halfspace(s.read("normal", "finites"), s.read("offset", "finite")),
    "point-cloud": lambda s: point_cloud_set(s.read("points", "rows")),
    "product": _combination("factors", product),
    "union": _combination("members", union),
    "intersection": _combination("members", intersection),
    "complement": lambda s: complement(_set(s.sub("of"))),
    "epigraph": lambda s: epigraph_oracle(  # not of "indicator", a value-problem obstacle
        _kind(s.sub("obstacle"), {"zero": zero_obstacle, "abs": abs_obstacle}, "obstacle"),
        s.read("state_dim", "count", 1)),
}


_OBSTACLES = {"zero": lambda s, dim: zero_obstacle, "abs": lambda s, dim: abs_obstacle,
              "indicator": lambda s, dim: indicator_obstacle(_set(s.sub("set"), dim))}
_LAGRANGIANS = {"zero": lambda s: zero_lagrangian, "unit": lambda s: unit_lagrangian,
                "const": lambda s: const_lagrangian(s.read("value", "finite")),
                "speed": lambda s: speed_lagrangian}


def _problem(s: _Section, dim: int) -> LagrangianProblem:
    """The value problem of s's field, lagrangian, obstacle and discount; dim as in
    :func:`_field`."""
    field = _field(s.sub("field"), dim)
    lag, obs = s.sub("lagrangian", {"kind": "zero"}), s.sub("obstacle", {"kind": "zero"})
    return LagrangianProblem(field, _kind(lag, _LAGRANGIANS, "lagrangian")(lag),
                             s.read("discount", "finite", 0.0),
                             _kind(obs, _OBSTACLES, "obstacle")(obs, field.dim),
                             value_cap=s.read("value_cap", "number", 1e6))


#: Data functions of n numbers z by the map applied to w.z + c: affine, sin, or
#: None for const.  Each gives one number, so a boundary-value problem's output
#: dimension is 1.
_FUNCTIONS = {"const": None, "affine": lambda u: u, "sin": np.sin}


def _function(s: _Section, n: int):
    """The batch-only data function of s: its column-block arguments hold the rows z."""
    outer = _kind(s, _FUNCTIONS, "function")
    if outer is None:
        v = s.read("value", "finite")
        return lambda *args: np.full((len(args[-1]), 1), v)
    w, c = s.read("weights", "finites", length=n), s.read("offset", "finite", 0.0)
    # vecdot over C-ordered rows gives each row the bits of its own 1-D dot product
    return lambda *args: outer(np.vecdot(np.ascontiguousarray(np.concatenate(args, axis=1)), w)
                               + c)[:, None]


def _decay(s: _Section):
    lam = s.read("rate", "finite")
    return lambda t, x, y: -lam * y


_ZERO_OUTPUT = _Filled(0.0)  # g = 0 of y's shape: on float64 rows a shared read-only block
_OUTPUT_FIELDS = {"zero": lambda s: lambda t, x, y: _ZERO_OUTPUT.like(y), "decay": _decay}


def _grid(s: _Section):
    lo = s.read("lo", "vector")
    try:
        grid = GridSpec(lo, s.read("hi", "vector", length=len(lo)),
                        s.read("counts", "counts", length=len(lo)))
    except ValueError as exc:
        raise ConfigError(f"{exc} in section 'grid'") from exc
    return {"grid": grid}, grid.dim


def _pde(s: _Section):
    """The characteristic problem of s and its domain pde.K, whose dimension it has."""
    K = _set(s.sub("K"))
    n = K.dim
    if n == 0:  # a point cloud's "points": [] reads as one row of no numbers
        raise ConfigError("section 'pde.K' has dimension 0: the domain needs at least one "
                          "coordinate")
    data = BoundaryData(_function(s.sub("u0"), n),
                        _function(s.sub("v"), 1 + n) if "v" in s else None,
                        tuple(s.read("impulses", "vector").tolist()) if "impulses" in s else None)
    gs = s.sub("g", {"kind": "zero"})
    g = _kind(gs, _OUTPUT_FIELDS, "g")(gs)
    if s.read("out_dim", "count", 1) != 1:
        raise ConfigError("'out_dim' in section 'pde' must be 1: each data function gives "
                          "one number")
    if "f" in s:  # x' = y: the state has the output's dimension
        prob = CharProblem(g, K, data, 1, f=_kind(s.sub("f"), {"output": lambda t, x, y: y}, "f"))
    else:
        prob = CharProblem(g, K, data, 1, phi=_field(s.sub("phi"), n))
    _check_dims(prob.phi.dim if prob.phi else 1, "pde.K", n)
    return {"pde": prob, "domain": K}, n


def _demo4d(s: _Section):
    """The closed-form demographic oracle of s, and its domain R+ x [0, r2] x R+ x [0, b]."""
    oracle = demo4d(*(s.read(k, "finite") for k in ("rho", "sigma", "beta", "b", "r2", "A")),
                    *(_function(s.sub(k), 4) for k in ("u0", "v1", "v_r2")))
    domain = product(box([0.0], [np.inf]), box([0.0], [oracle.r2]),
                     box([0.0], [np.inf]), box([0.0], [oracle.b]))
    return {"oracle": oracle, "domain": domain}, 4


def _eval(c: _Section, domain, name: str):
    """The eval times and rows of c: finite rows of the domain's dimension inside it,
    times finite and >= 0."""
    ev = c.sub("eval")
    if "ts" in ev and "xs" in ev:
        ts, xs = ev.read("ts", "vector"), ev.read("xs", "rows")
        if len(ts) != len(xs):
            raise ConfigError("eval.ts and eval.xs must have equal length")
    else:
        try:
            spans = np.array([ev.read("t_range"), *ev.read("x_range")], dtype=float)
            ok = spans.ndim == 2 and spans.shape[1] == 3 and \
                np.all((spans[:, 2] >= 1) & (spans[:, 2] < 2.0 ** 63))
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            raise ConfigError("eval.t_range and each eval.x_range entry must be "
                              "[lo, hi, count] with a count >= 1")
        pts = lattice_points([np.linspace(a, b, int(n)) for a, b, n in spans])
        ts, xs = pts[:, 0], pts[:, 1:]
    _check_dims(domain.dim, "eval", xs.shape[1])
    _refuse(~np.isfinite(xs).all(axis=1), lambda i: f"eval row {i} {xs[i].tolist()} is not finite",
            ConfigError)
    _require_inside(domain, xs, "eval", name)
    for bad, rule in ((~np.isfinite(ts), "be finite"), (ts < 0.0, "be >= 0")):
        _refuse(bad, lambda i: f"eval time {i} ({ts[i]}) must {rule}", ConfigError)
    return ts, xs


# The bodies: each computes and writes.  They look their compute functions up on
# this module at call time, so perfbench/tracer.py can wrap them here.


def _integrate(field, x0, t0, horizon, step, out, **_):
    traj = integrate(field, x0, t0, horizon, step)
    csvio.write_table(out("trajectory.csv"), t=traj.times, x=traj.states)


def _flow(field, x0, t, step, out, **_):
    csvio.write_table(out("flow.csv"), x=flow(field, t, x0, step)[None, :])


def _reach(field, seeds, t, step, out, **_):
    pts, ok = reach_set(field, t, seeds, step)
    csvio.write_table(out("reach.csv"), x=pts, ok=ok)


def _first_time(op, field, K, x0, horizon, step, csv, **_):
    sets = {"K": K} if op == "exit-time" else {"C": K}  # the set is left, or entered
    exits, hits, _, _ = _first_events(field, x0, horizon, step, **sets)
    csvio.write_table(csv, x=x0, value=exits if op == "exit-time" else hits)


def _sweep(op, field, K, grid, horizon, step, csv, workers, C=None, **_):
    sweep = {"viab": viab_field, "capt": capt_field, "viable-capt": viable_capt_field}[op]
    sets = (K,) if C is None else (K, C)
    tf = sweep(field, *sets, grid, horizon, step, workers=workers)
    csvio.write_table(csv, x=grid.nodes(), value=tf.values)


def _kernel(field, K, grid, step, flow_step, out, workers, **_):
    alive, _ = discrete_kernel(field, K, grid, step, flow_step=flow_step, workers=workers)
    csvio.write_table(out("kernel.csv"), x=grid.nodes(), member=alive)


#: The tabulate_values mode behind each value subcommand.
VALUE_MODES = {"value-sup": "sup", "value-inf": "inf", "lyapunov": "lyapunov",
               "mintime": "inf", "minlength": "inf"}
#: The problem builders of the subcommands that take a field and a target set.
ARRIVAL_PROBLEMS = {"mintime": minimal_time_problem, "minlength": minimal_length_problem}


def _values(op, field, points, horizon, step, csv, problem=None, K=None, **_):
    p = ARRIVAL_PROBLEMS[op](field, K) if op in ARRIVAL_PROBLEMS else problem
    csvio.write_table(csv, x=points,
                      value=tabulate_values(p, points, VALUE_MODES[op], horizon, step))


def _hj_check(problem, grid, horizon, step, mode, points, tol, out, **_):
    nodes = grid.nodes()
    field_fn = GridFunction(grid, tabulate_values(problem, nodes, mode, horizon, step))
    check = hj_check_sup if mode == "sup" else hj_check_inf
    report = check(problem, field_fn, points, tol=tol)
    csvio.write_table(out("hj_residuals.csv"), x=report.samples,
                      residual_fwd=report.residual_fwd, residual_bwd=report.residual_bwd,
                      complementarity=report.complementarity)
    csvio.write_table(out("value_field.csv"), x=nodes, value=field_fn.values)
    print(f"hj-check {mode}: {len(report.violations)} violation(s)")


def _pde_char(pde, ts, xs, step, out, **_):
    us, _ = solve_char_many(pde, ts, xs, step)
    csvio.write_table(out("pde_solution.csv"), t=ts, x=xs, u=us)


def _pde_graph(pde, T, step, seeds_per_face, seed_lo, seed_hi, boundary_points, out, **_):
    cloud = graph_sample(pde, T, step, seeds_per_face, seed_lo, seed_hi,
                         boundary_points=boundary_points)
    csvio.write_table(out("graph_cloud.csv"), t=cloud.times, x=cloud.states, y=cloud.outputs)


def _demo4d_run(oracle, domain, ts, xs, step, out, **_):
    us = oracle.solve_many(ts, xs)
    csvio.write_table(out("demo4d_solution.csv"), t=ts, x=xs, u=us)
    if step is not None:
        prob = CharProblem(
            lambda t, x, y: -oracle.A * y, domain,
            BoundaryData(oracle.u0, lambda S, X: np.where(  # the x1 = 0 face, else x2 = r2
                X[:, :1] <= 1e-6, oracle.v1(S, X[:, 1:]), oracle.v_r2(S, X[:, [0, 2, 3]]))),
            1,
            phi=demographic_field(oracle.rho, oracle.sigma, oracle.beta, oracle.b))
        u_num, reached = solve_char_many(prob, ts, xs, step)
        diffs = np.where(reached, _row_norms(u_num - us), np.nan)
        csvio.write_table(out("demo4d_diff.csv"), t=ts, x=xs, u=diffs[:, None])


_HORIZON_STEP = ("horizon", "horizon", "step", _REQUIRED)
_SET = (("set", "set", _REQUIRED),)

#: Per subcommand: its body; the (key, form) that fixes the data dimension (a
#: section has its reader as the form); what is built at that dimension (a "field",
#: a value "problem", or None); the time span (key, form) and the step (key,
#: default: None makes it optional) that marches it, where an "eval" span is the
#: eval lattice's times; and further (key, form, default) parts.  Sets and rows
#: are checked against the dimension, and a "vector" or "finites" has it as its length.
_SCHEMA = {
    "integrate": (_integrate, ("x0", "vector"), "field", _HORIZON_STEP, (("t0", "finite", 0.0),)),
    "flow": (_flow, ("x0", "vector"), "field", ("t", "finite", "step", _REQUIRED), ()),
    "reach": (_reach, ("seeds", "rows"), "field", ("t", "horizon", "step", _REQUIRED), ()),
    "exit-time": (_first_time, ("x0", "finite-rows"), "field", _HORIZON_STEP, _SET),
    "hitting-time": (_first_time, ("x0", "finite-rows"), "field", _HORIZON_STEP, _SET),
    "viab": (_sweep, ("grid", _grid), "field", _HORIZON_STEP, _SET),
    "capt": (_sweep, ("grid", _grid), "field", _HORIZON_STEP, _SET),
    "viable-capt": (_sweep, ("grid", _grid), "field", _HORIZON_STEP,
                    (("sets.K", "set", _REQUIRED), ("sets.C", "set", _REQUIRED))),
    # each node flows over one step, in flow_step sub-steps (a hundredth by default)
    "kernel": (_kernel, ("grid", _grid), "field", ("step", "step", "flow_step", None), _SET),
    "value-sup": (_values, ("points", "rows"), "problem", _HORIZON_STEP, ()),
    "value-inf": (_values, ("points", "rows"), "problem", _HORIZON_STEP, ()),
    "lyapunov": (_values, ("points", "rows"), "problem", _HORIZON_STEP, ()),
    "mintime": (_values, ("points", "rows"), "field", _HORIZON_STEP, _SET),
    "minlength": (_values, ("points", "rows"), "field", _HORIZON_STEP, _SET),
    "hj-check": (_hj_check, ("grid", _grid), "problem", _HORIZON_STEP,
                 (("mode", "mode", "sup"), ("points", "finite-rows", _REQUIRED),
                  ("tol", "number", 0.05))),
    "pde-char": (_pde_char, ("pde", _pde), None, ("eval", "eval", "step", _REQUIRED), ()),
    "pde-graph": (_pde_graph, ("pde", _pde), None, ("graph.T", "horizon", "step", _REQUIRED),
                  (("graph.seeds_per_face", "count", _REQUIRED),
                   ("graph.seed_lo", "finites", _REQUIRED),
                   ("graph.seed_hi", "finites", _REQUIRED),
                   ("graph.boundary_points", "rows", None))),
    "demo4d": (_demo4d_run, ("demo4d", _demo4d), None, ("eval", "eval", "step", None), ()),
}
SUBCOMMANDS = list(_SCHEMA)


def _validate(op: str, cfg) -> dict:
    """op's config as the typed values its body takes, checked against op's schema."""
    _, (data, form), model, (span, span_form, step, step_default), parts = _SCHEMA[op]
    c = _Section(cfg, "config")
    if model:
        c.read("field")  # a missing field is reported before the data section
    if callable(form):  # a section, read into (values, dimension)
        v, dim = form(c.sub(data))
    else:
        v = {data: c.read(data, form)}
        dim = v[data].shape[-1]
    if model == "problem":
        v["problem"] = _problem(c, dim)
        v["field"] = v["problem"].field
    elif model == "field":
        v["field"] = _field(c.sub("field"), dim)
    field_dim = v["field"].dim if model else dim
    for key, part_form, default in parts:  # named by the key's last part, K for "set"
        x = _set(c.sub(key), field_dim) if part_form == "set" else \
            c.read(key, part_form, default,
                   length=dim if part_form in ("vector", "finites") else None)
        if part_form in ("rows", "finite-rows") and x is not None:
            _check_dims(field_dim, key, x.shape[1])
        v["K" if key == "set" else key.rpartition(".")[2]] = x
    _check_dims(field_dim, data, dim)
    if op == "exit-time":  # an exit time starts inside its set
        _require_inside(v["K"], v["x0"], "x0", "the set")
    if op == "pde-char" and v["pde"].phi is None:  # solve_char_many follows x' = phi(t, x)
        raise ConfigError("pde-char needs a y-independent speed: section 'pde.phi', "
                          "not 'pde.f'")
    if span_form == "eval":
        v["ts"], v["xs"] = _eval(c, v["domain"], "pde.K" if data == "pde" else "the demo4d domain")
        t0, t1 = 0.0, v["ts"]
    else:  # a negative flow time runs the reversed field
        v[span.rpartition(".")[2]] = T = c.read(span, span_form)
        t0, t1 = v.get("t0", 0.0), abs(T)
    v[step] = h = c.read(step, "step", step_default)
    if h is not None:  # the one step-count rule: _schedule's
        try:
            _schedule(t0, t1, h)
        except ValueError as exc:
            raise ConfigError(f"{span!r} from {t0!r}: {exc}") from None
    return v


def _read_config(op: str, path) -> dict:
    """op's typed values from the JSON file at path; ConfigError if it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _validate(op, json.load(fh))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path!r} is not UTF-8: {exc.reason} at byte {exc.start}") from None
    except RecursionError:
        raise ConfigError(f"{path!r} is nested too deeply to read") from None
    except OSError as exc:
        raise ConfigError(f"cannot read {path!r}: {exc.strerror or exc}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="viakit",
        description="Batch computations: viability kernels, capture basins, "
                    "value functions, characteristics.")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("config", help="problem-definition file (JSON)")
    parser.add_argument("-o", "--out", default=".",
                        help="output directory (env VIAKIT_OUT overrides)")
    parser.add_argument("--workers", type=int, default=1,
                        help="upper bound on the worker-pool width for grid sweeps: "
                             f"a sweep over n nodes uses at most max(1, n // {CHUNK_ROWS})")
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"argument --workers: must be at least 1, got {args.workers}")
    op = args.subcommand
    try:
        values = _read_config(op, args.config)
        outdir = os.environ.get("VIAKIT_OUT", args.out)
        try:
            os.makedirs(outdir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make output directory {outdir!r}: "
                              f"{exc.strerror or exc}") from None
        out = lambda name: os.path.join(outdir, name)  # noqa: E731
        _SCHEMA[op][0](op=op, out=out, csv=out(op.replace("-", "_") + ".csv"),
                       workers=args.workers, **values)
        return 0
    except (ConfigError, NonzeroLagrangian, Unsupported) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NonFinite, CapTooSmall, ParamDomain, OverflowError, MemoryError) as exc:
        print(f"numeric failure in {op!r}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
