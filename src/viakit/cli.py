"""Batch front-end: parse a problem-definition file, run one computation, write CSVs.

Usage: ``viakit SUBCOMMAND CONFIG.json [-o OUTDIR] [--workers N]``.

The config format is JSON (chosen over TOML so the stdlib covers it on
Python 3.10); sections are documented in the README.  Output is
deterministic: fixed row-major node ordering and 17-significant-digit
floats, so runs are diffable, and ``--workers 1`` is byte-identical to
any other worker count.  The only environment override is ``VIAKIT_OUT``
for the output directory.

Exit codes: 0 success; 2 config error (with a field diagnostic);
3 numeric failure (NonFinite, CapTooSmall, DescentViolation), naming the
operation.
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
# solve_char stays importable here: perfbench/tracer.py wraps cli.solve_char
from .characteristics import (BoundaryData, CharProblem, demo4d, graph_sample,
                              solve_char, solve_char_many)
from .dynamics import (VectorField, _schedule, demographic_field, flow, integrate,
                       linear_field, logistic_field, reach_set, rotation_field,
                       transport_field)
from .epi_hj import (GridFunction, LagrangianProblem, abs_obstacle,
                     const_lagrangian, epigraph_oracle, hj_check_inf,
                     hj_check_sup, indicator_obstacle, lift, minimal_length_problem,
                     minimal_time_problem, speed_lagrangian, tabulate_values,
                     unit_lagrangian, zero_lagrangian, zero_obstacle)
from .errors import (CapTooSmall, ConfigError, DescentViolation, NonFinite,
                     NonzeroLagrangian, ParamDomain)
from .kernels import (GridSpec, capt_field, discrete_kernel, exit_time,
                      hitting_time, lattice_points, viab_field, viable_capt_field)
from .sets import (ball, box, complement, halfspace, intersection,
                   point_cloud_set, product, sphere, union)

SUBCOMMANDS = [
    "integrate", "flow", "reach", "exit-time", "hitting-time", "viab", "capt",
    "viable-capt", "kernel", "value-sup", "value-inf", "lyapunov", "mintime",
    "minlength", "hj-check", "pde-char", "pde-graph", "demo4d",
]


def _need(cfg: dict, key: str, where: str):
    """``cfg[key]``; ConfigError naming section where if cfg is not a JSON object or lacks key."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"section {where!r} must be a JSON object, got {cfg!r}", section=where)
    if key not in cfg:
        raise ConfigError(f"missing {key!r} in section {where!r}", section=where)
    return cfg[key]


_REQUIRED = object()


def _num(spec: dict, key: str, where: str, default=_REQUIRED) -> float:
    """``spec[key]`` (or ``default`` when given and the key is absent) as a float."""
    value = _need(spec, key, where) if default is _REQUIRED else spec.get(key, default)
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key!r} in section {where!r} must be a number, got {value!r}",
                          section=where) from None


def _vec(spec: dict, key: str, where: str, none=None, ndim=None) -> np.ndarray:
    """``spec[key]`` as a float array, with ``ndim`` dimensions when given; with
    ``none``, null list entries read as it."""
    value = _need(spec, key, where)
    try:
        arr = np.array(value if none is None else [none if v is None else v for v in value],
                       dtype=float)
        if ndim in (None, arr.ndim):
            return arr
    except (TypeError, ValueError, OverflowError):
        pass
    what = "numeric" if ndim is None else f"a {ndim}-D numeric list"
    raise ConfigError(f"{key!r} in section {where!r} must be {what}, got {value!r}",
                      section=where)


def _int(spec: dict, key: str, where: str, default=_REQUIRED) -> int:
    """``spec[key]`` (or ``default`` when given and the key is absent) as an int >= 1."""
    value = _need(spec, key, where) if default is _REQUIRED else spec.get(key, default)
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = 0
    if n < 1:
        raise ConfigError(f"{key!r} in section {where!r} must be an integer >= 1, "
                          f"got {value!r}", section=where)
    return n


def _step(spec: dict, key: str = "step", where: str = "config") -> float:
    """``spec[key]`` as a finite, positive step."""
    h = _num(spec, key, where)
    if not (math.isfinite(h) and h > 0.0):
        raise ConfigError(f"{key!r} in section {where!r} must be finite and > 0, got {h!r}",
                          section=where)
    return h


def _horizon(spec: dict, key: str = "horizon", where: str = "config") -> float:
    """``spec[key]`` as a finite, nonnegative horizon."""
    T = _num(spec, key, where)
    if not (math.isfinite(T) and T >= 0.0):
        raise ConfigError(f"{key!r} in section {where!r} must be finite and >= 0, got {T!r}",
                          section=where)
    return T


def _check_dims(dim: int, *parts):
    """ConfigError naming the first ``(section, dimension)`` part whose dimension is not dim."""
    for where, d in parts:
        if d != dim:
            raise ConfigError(f"section {where!r} has dimension {d}, but the field has "
                              f"dimension {dim}", section=where)


def _build_field(spec: dict, where: str = "field", dim: int = 1) -> VectorField:
    """The field of spec; dim is the dimension of the data it runs on.

    Fields that act component by component (a scalar ``linear`` without
    ``dim``, ``logistic``, ``polynomial``, a one-element ``transport``)
    take that dimension (at least 1); the others fix their own.
    """
    kind = _need(spec, "kind", where)
    dim = max(dim, 1)
    if kind == "linear":
        if "matrix" in spec:
            A = _vec(spec, "matrix", where)
            if A.ndim and (A.ndim != 2 or A.shape[0] != A.shape[1]):
                raise ConfigError(f"'matrix' in section {where!r} must be a square matrix, "
                                  f"got shape {A.shape}", section=where)
            return linear_field(A)
        return linear_field(_num(spec, "a", where), dim=_int(spec, "dim", where, default=dim))
    if kind == "rotation":
        return rotation_field(_num(spec, "omega", where, default=1.0))
    if kind == "logistic":
        return replace(logistic_field(_num(spec, "beta", where), _num(spec, "b", where)),
                       dim=dim)
    if kind == "transport":
        v = _vec(spec, "velocity", where)
        return replace(transport_field(v), dim=dim) if v.size == 1 else transport_field(v)
    if kind == "demographic":
        return demographic_field(*(_num(spec, k, where)
                                   for k in ("rho", "sigma", "beta", "b")))
    if kind == "polynomial":
        coeffs = _vec(spec, "coeffs", where)

        def ev(t, x):
            acc = np.zeros_like(x)
            for c in coeffs[::-1]:
                acc = acc * x + c
            return acc

        return VectorField(dim, ev, name="polynomial")
    if kind == "lifted":
        # state-cost dynamics of a value problem; pairs with an "epigraph" set
        sub = {
            "field": _need(spec, "field", where),
            "lagrangian": spec.get("lagrangian", {"kind": "zero"}),
            "obstacle": spec.get("obstacle", {"kind": "zero"}),
            "discount": spec.get("discount", 0.0),
        }
        return lift(_build_problem(sub, dim - 1)).field
    raise ConfigError(f"unknown field kind {kind!r} in section {where!r}", section=where)


def _build_set(spec: dict, where: str = "set"):
    try:
        return _set_of_kind(spec, where)
    except ValueError as exc:  # a constructor's own check, e.g. box lo > hi
        raise ConfigError(f"{exc} in section {where!r}", section=where) from exc


# The set kinds built from a JSON list of sets: the key of the list and the constructor.
_COMBINATORS = {"product": ("factors", product), "union": ("members", union),
                "intersection": ("members", intersection)}


def _set_of_kind(spec: dict, where: str):
    kind = _need(spec, "kind", where)
    if kind == "box":
        return box(_vec(spec, "lo", where, none=-np.inf), _vec(spec, "hi", where, none=np.inf))
    if kind == "ball":
        return ball(_vec(spec, "center", where), _num(spec, "radius", where))
    if kind == "sphere":
        return sphere(_vec(spec, "center", where), _num(spec, "radius", where))
    if kind == "halfspace":
        return halfspace(_vec(spec, "normal", where), _num(spec, "offset", where))
    if kind == "point-cloud":
        return point_cloud_set(_vec(spec, "points", where))
    if kind in _COMBINATORS:
        key, combine = _COMBINATORS[kind]
        parts = _need(spec, key, where)
        if not isinstance(parts, list):
            raise ConfigError(f"{key!r} in section {where!r} must be a list, got {parts!r}",
                              section=where)
        return combine(*[_build_set(s, where) for s in parts])
    if kind == "complement":
        return complement(_build_set(_need(spec, "of", where), where))
    if kind == "epigraph":
        okind = _need(_need(spec, "obstacle", where), "kind", where)
        state_dim = _int(spec, "state_dim", where, default=1)
        if okind == "abs":
            return epigraph_oracle(abs_obstacle, state_dim)
        if okind == "zero":
            return epigraph_oracle(zero_obstacle, state_dim)
        raise ConfigError(f"unknown epigraph obstacle {okind!r}", section=where)
    raise ConfigError(f"unknown set kind {kind!r} in section {where!r}", section=where)


def _build_grid(spec: dict) -> GridSpec:
    try:
        return GridSpec(np.array(_need(spec, "lo", "grid"), dtype=float),
                        np.array(_need(spec, "hi", "grid"), dtype=float),
                        np.array(_need(spec, "counts", "grid"), dtype=int))
    except ValueError as exc:
        raise ConfigError(f"{exc} in section 'grid'", section="grid") from exc


def _build_func(spec: dict, where: str, n: int):
    """Small library for data of n numbers z: w.z + c, sin(w.z + c), const."""
    kind = _need(spec, "kind", where)
    if kind == "const":
        v = _num(spec, "value", where)
        return lambda *args: np.array([v])
    w = _vec(spec, "weights", where)
    if w.shape != (n,):
        raise ConfigError(f"'weights' in section {where!r} must be a vector of length {n}, "
                          f"got shape {w.shape}", section=where)
    c = _num(spec, "offset", where, default=0.0)

    def dot(args):
        z = np.concatenate([np.atleast_1d(np.asarray(a, dtype=float)) for a in args])
        return float(w @ z) + c

    if kind == "affine":
        return lambda *args: np.array([dot(args)])
    if kind == "sin":
        return lambda *args: np.array([np.sin(dot(args))])
    raise ConfigError(f"unknown function kind {kind!r} in section {where!r}", section=where)


def _build_problem(cfg: dict, dim: int = 1) -> LagrangianProblem:
    """The value problem of cfg; dim as in :func:`_build_field`."""
    field = _build_field(_need(cfg, "field", "config"), dim=dim)
    lspec = cfg.get("lagrangian", {"kind": "zero"})
    kind = _need(lspec, "kind", "lagrangian")
    if kind == "zero":
        lag = zero_lagrangian
    elif kind == "unit":
        lag = unit_lagrangian
    elif kind == "const":
        lag = const_lagrangian(_num(lspec, "value", "lagrangian"))
    elif kind == "speed":
        lag = speed_lagrangian
    else:
        raise ConfigError(f"unknown lagrangian kind {kind!r}", section="lagrangian")
    ospec = cfg.get("obstacle", {"kind": "zero"})
    okind = _need(ospec, "kind", "obstacle")
    if okind == "zero":
        obs = zero_obstacle
    elif okind == "abs":
        obs = abs_obstacle
    elif okind == "indicator":
        K = _build_set(_need(ospec, "set", "obstacle"), "obstacle.set")
        _check_dims(field.dim, ("obstacle.set", K.dim))
        obs = indicator_obstacle(K)
    else:
        raise ConfigError(f"unknown obstacle kind {okind!r}", section="obstacle")
    return LagrangianProblem(field, lag, _num(cfg, "discount", "config", default=0.0), obs,
                             value_cap=_num(cfg, "value_cap", "config", default=1e6))


def _build_pde(cfg: dict) -> CharProblem:
    pde = _need(cfg, "pde", "config")
    K = _build_set(_need(pde, "K", "pde"), "pde.K")
    u0 = _build_func(_need(pde, "u0", "pde"), "pde.u0", K.dim)
    v = _build_func(pde["v"], "pde.v", 1 + K.dim) if pde.get("v") else None
    impulses = tuple(_vec(pde, "impulses", "pde", ndim=1).tolist()) \
        if pde.get("impulses") else None
    data = BoundaryData(u0, v, impulses)
    gspec = pde.get("g", {"kind": "zero"})
    gkind = _need(gspec, "kind", "pde.g")
    if gkind == "zero":
        g = lambda t, x, y: np.zeros_like(y)
    elif gkind == "decay":
        lam = _num(gspec, "rate", "pde.g")
        g = lambda t, x, y: -lam * y
    else:
        raise ConfigError(f"unknown pde.g kind {gkind!r}", section="pde.g")
    out_dim = _int(pde, "out_dim", "pde", default=1)
    fspec = pde.get("f")
    if fspec and _need(fspec, "kind", "pde.f") == "output":
        return CharProblem(g, K, data, out_dim, f=lambda t, x, y: y)
    phi = _build_field(_need(pde, "phi", "pde"), "pde.phi", dim=K.dim)
    _check_dims(phi.dim, ("pde.K", K.dim))
    return CharProblem(g, K, data, out_dim, phi=phi)


def _eval_lattice(cfg: dict):
    ev = _need(cfg, "eval", "config")
    if isinstance(ev, dict) and "ts" in ev and "xs" in ev:
        ts = _vec(ev, "ts", "eval")
        xs = np.atleast_2d(_vec(ev, "xs", "eval"))
        if len(ts) != len(xs):
            raise ConfigError("eval.ts and eval.xs must have equal length", section="eval")
        return ts, xs
    try:
        spans = [(float(a), float(b), int(n))
                 for a, b, n in [_need(ev, "t_range", "eval"), *_need(ev, "x_range", "eval")]]
    except (TypeError, ValueError, OverflowError):
        spans = None
    if spans is None or any(n < 1 for _, _, n in spans):
        raise ConfigError("eval.t_range and each eval.x_range entry must be [lo, hi, count] "
                          "with a count >= 1", section="eval")
    pts = lattice_points([np.linspace(a, b, n) for a, b, n in spans])
    return pts[:, 0], pts[:, 1:]


def _require_inside(K, rows, where: str, set_name: str):
    """ConfigError naming the first of ``rows`` outside ``K``."""
    outside = np.flatnonzero(~K.contains_many(rows))
    if len(outside):
        raise ConfigError(f"{where} row {outside[0]} {rows[outside[0]].tolist()} is "
                          f"outside {set_name}", section=where)


def _check_eval(ts, xs, K, set_name: str):
    """ConfigError unless every row is in K, of K's dimension, and every time finite, >= 0."""
    _check_dims(K.dim, ("eval", xs.shape[1]))
    _require_inside(K, xs, "eval", set_name)
    for bad, rule in ((~np.isfinite(ts), "be finite"), (ts < 0.0, "be >= 0")):
        if bad.any():
            i = int(np.argmax(bad))
            raise ConfigError(f"eval time {i} ({ts[i]}) must {rule}", section="eval")


def _points(cfg: dict, key: str = "points"):
    return np.atleast_2d(_vec(cfg, key, "config"))


#: The tabulate_values mode behind each value subcommand.
VALUE_MODES = {"value-sup": "sup", "value-inf": "inf", "lyapunov": "lyapunov",
               "mintime": "inf", "minlength": "inf"}
#: The problem builders of the subcommands that take a field and a target set.
ARRIVAL_PROBLEMS = {"mintime": minimal_time_problem, "minlength": minimal_length_problem}

#: Float budget (8 MB) of one batched value call's (steps, rows, dim) state
#: history; larger point lists are tabulated in row chunks, which changes no
#: value.  The call holds a few more (steps, rows) arrays of the same order.
#: On `mintime` over 4000 2-D points and 702 steps (2-core VM) this budget
#: peaked at 113 MB RSS in 1.9 s, against 306 MB in 1.65 s unchunked and
#: 80 MB in 2.6 s at 2^18 (each chunk repeats the refinement rounds).
HISTORY_FLOATS = 1 << 20


def _tabulate_chunked(p: LagrangianProblem, rows, mode: str, T: float, h: float):
    nodes = _schedule(0.0, T, h)[2] + 1
    chunk = max(1, HISTORY_FLOATS // (nodes * rows.shape[1]))
    return np.concatenate([tabulate_values(p, rows[i:i + chunk], mode, T, h)
                           for i in range(0, len(rows), chunk)])


# ---------------------------------------------------------------------------


def _run(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    outdir = os.environ.get("VIAKIT_OUT", args.out)
    os.makedirs(outdir, exist_ok=True)
    out = lambda name: os.path.join(outdir, name)
    op = args.subcommand
    workers = args.workers

    if op == "integrate":
        fspec = _need(cfg, "field", "config")
        x0 = _vec(cfg, "x0", "config")
        field = _build_field(fspec, dim=x0.size)
        t0, t1 = _num(cfg, "t0", "config", default=0.0), _horizon(cfg)
        if not (math.isfinite(t0) and t0 <= t1):
            raise ConfigError(f"'t0' must be finite and <= the horizon, got {t0!r}",
                              section="config")
        _check_dims(field.dim, ("x0", x0.size))
        traj = integrate(field, x0, t0, t1, _step(cfg))
        csvio.write_trajectory(out("trajectory.csv"), traj)
    elif op == "flow":
        fspec = _need(cfg, "field", "config")
        x0 = _vec(cfg, "x0", "config")
        field = _build_field(fspec, dim=x0.size)
        t = _num(cfg, "t", "config")
        if not math.isfinite(t):
            raise ConfigError(f"'t' must be finite, got {t!r}", section="config")
        _check_dims(field.dim, ("x0", x0.size))
        x = flow(field, t, x0, _step(cfg))
        csvio.write_points(out("flow.csv"), x[None, :])
    elif op == "reach":
        fspec = _need(cfg, "field", "config")
        seeds = _points(cfg, "seeds")
        field = _build_field(fspec, dim=seeds.shape[1])
        _check_dims(field.dim, ("seeds", seeds.shape[1]))
        pts, ok = reach_set(field, _horizon(cfg, "t"), seeds, _step(cfg))
        csvio.write_values(out("reach.csv"), pts, ok.astype(float), label="ok")
    elif op in ("exit-time", "hitting-time"):
        fspec = _need(cfg, "field", "config")
        rows = _points(cfg, "x0")
        field = _build_field(fspec, dim=rows.shape[1])
        K = _build_set(_need(cfg, "set", "config"))
        fn = exit_time if op == "exit-time" else hitting_time
        _check_dims(field.dim, ("set", K.dim), ("x0", rows.shape[1]))
        if op == "exit-time":
            _require_inside(K, rows, "x0", "the set")
        T, h = _horizon(cfg), _step(cfg)
        vals = [fn(field, K, x, T, h) for x in rows]
        csvio.write_values(out(op.replace("-", "_") + ".csv"), rows, vals)
    elif op in ("viab", "capt", "viable-capt"):
        fspec = _need(cfg, "field", "config")
        grid = _build_grid(_need(cfg, "grid", "config"))
        field = _build_field(fspec, dim=grid.dim)
        T, h = _horizon(cfg), _step(cfg)
        if op == "viable-capt":
            sets_cfg = _need(cfg, "sets", "config")
            K = _build_set(_need(sets_cfg, "K", "sets"), "sets.K")
            C = _build_set(_need(sets_cfg, "C", "sets"), "sets.C")
            _check_dims(field.dim, ("sets.K", K.dim), ("sets.C", C.dim), ("grid", grid.dim))
            tf = viable_capt_field(field, K, C, grid, T, h, workers=workers)
        else:
            K = _build_set(_need(cfg, "set", "config"))
            _check_dims(field.dim, ("set", K.dim), ("grid", grid.dim))
            sweep = viab_field if op == "viab" else capt_field
            tf = sweep(field, K, grid, T, h, workers=workers)
        csvio.write_timefield(out(op.replace("-", "_") + ".csv"), tf)
    elif op == "kernel":
        fspec = _need(cfg, "field", "config")
        grid = _build_grid(_need(cfg, "grid", "config"))
        field = _build_field(fspec, dim=grid.dim)
        flow_step = _step(cfg, "flow_step") if cfg.get("flow_step") is not None else None
        K = _build_set(_need(cfg, "set", "config"))
        _check_dims(field.dim, ("set", K.dim), ("grid", grid.dim))
        alive, _ = discrete_kernel(field, K, grid, _step(cfg), flow_step=flow_step,
                                   workers=workers)
        csvio.write_boolfield(out("kernel.csv"), grid, alive)
    elif op in VALUE_MODES:
        fspec = _need(cfg, "field", "config")
        rows = _points(cfg)
        if op in ARRIVAL_PROBLEMS:
            field = _build_field(fspec, dim=rows.shape[1])
            K = _build_set(_need(cfg, "set", "config"))
            _check_dims(field.dim, ("set", K.dim))
            p = ARRIVAL_PROBLEMS[op](field, K)
        else:
            p = _build_problem(cfg, dim=rows.shape[1])
        T, h = _horizon(cfg), _step(cfg)
        _check_dims(p.field.dim, ("points", rows.shape[1]))
        vals = _tabulate_chunked(p, rows, VALUE_MODES[op], T, h)
        csvio.write_values(out(op.replace("-", "_") + ".csv"), rows, vals)
    elif op == "hj-check":
        _need(cfg, "field", "config")  # a missing field is reported before the grid
        grid = _build_grid(_need(cfg, "grid", "config"))
        p = _build_problem(cfg, dim=grid.dim)
        T, h = _horizon(cfg), _step(cfg)
        mode = cfg.get("mode", "sup")
        if mode not in ("sup", "inf"):
            raise ConfigError(f"'mode' in section 'config' must be 'sup' or 'inf', got {mode!r}",
                              section="config")
        samples = _points(cfg)
        _check_dims(p.field.dim, ("grid", grid.dim), ("points", samples.shape[1]))
        vals = tabulate_values(p, grid.nodes(), mode, T, h)
        field_fn = GridFunction(grid, vals)
        check = hj_check_sup if mode == "sup" else hj_check_inf
        report = check(p, field_fn, samples, tol=_num(cfg, "tol", "config", default=0.05))
        csvio.write_hj_report(out("hj_residuals.csv"), report)
        csvio.write_gridfunction(out("value_field.csv"), field_fn)
        print(f"hj-check {mode}: {len(report.violations)} violation(s)")
    elif op == "pde-char":
        prob = _build_pde(cfg)
        h = _step(cfg)
        ts, xs = _eval_lattice(cfg)
        _check_eval(ts, xs, prob.domain, "pde.K")
        us, _ = solve_char_many(prob, ts, xs, h)
        csvio.write_solution_field(out("pde_solution.csv"), ts, xs, us)
    elif op == "pde-graph":
        prob = _build_pde(cfg)
        gcfg = _need(cfg, "graph", "config")
        xis = None
        if gcfg.get("boundary_points"):
            xis = _vec(gcfg, "boundary_points", "graph", ndim=2)
            _check_dims(prob.domain.dim, ("graph.boundary_points", xis.shape[1]))
        cloud = graph_sample(prob, _horizon(gcfg, "T", "graph"), _step(cfg),
                             _int(gcfg, "seeds_per_face", "graph"),
                             _vec(gcfg, "seed_lo", "graph"), _vec(gcfg, "seed_hi", "graph"),
                             boundary_points=xis)
        csvio.write_graphcloud(out("graph_cloud.csv"), cloud)
    elif op == "demo4d":
        d = _need(cfg, "demo4d", "config")
        oracle = demo4d(*(_num(d, k, "demo4d")
                          for k in ("rho", "sigma", "beta", "b", "r2")),
                        _num(d, "A", "demo4d"),
                        *(_build_func(_need(d, k, "demo4d"), "demo4d." + k, 4)
                          for k in ("u0", "v1", "v_r2")))
        domain = product(box([0.0], [np.inf]), box([0.0], [oracle.r2]),
                         box([0.0], [np.inf]), box([0.0], [oracle.b]))
        ts, xs = _eval_lattice(cfg)
        _check_eval(ts, xs, domain, "the demo4d domain")
        us = np.array([oracle(float(t), x) for t, x in zip(ts, xs)])
        csvio.write_solution_field(out("demo4d_solution.csv"), ts, xs, us)
        if cfg.get("step"):
            prob = CharProblem(
                lambda t, x, y: -oracle.A * y, domain,
                BoundaryData(
                    oracle.u0,
                    lambda s, xi: oracle.v1(s, xi[1], xi[2], xi[3])
                    if xi[0] <= 1e-6 else oracle.v_r2(s, xi[0], xi[2], xi[3])),
                1,
                phi=demographic_field(oracle.rho, oracle.sigma, oracle.beta, oracle.b))
            u_num, reached = solve_char_many(prob, ts, xs, _step(cfg))
            diffs = [[float(np.linalg.norm(u - u_ref))] if ok else [np.nan]
                     for u, u_ref, ok in zip(u_num, us, reached)]
            csvio.write_solution_field(out("demo4d_diff.csv"), ts, xs, np.array(diffs))
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown subcommand {op!r}")
    return 0


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
                        help="worker-pool width for grid sweeps")
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (ConfigError, NonzeroLagrangian, json.JSONDecodeError) as exc:
        if isinstance(exc, json.JSONDecodeError):
            print(f"config error: invalid JSON at line {exc.lineno}: {exc.msg}",
                  file=sys.stderr)
        else:
            print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NonFinite, CapTooSmall, DescentViolation, ParamDomain) as exc:
        print(f"numeric failure in {args.subcommand!r}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
