"""Batch front-end: parse a problem-definition file, run one computation, write CSVs.

Usage: ``viakit SUBCOMMAND CONFIG.json [-o OUTDIR] [--workers N]``.

The config format is JSON (chosen over TOML so the stdlib covers it on
Python 3.10); sections are documented in the README.  Output is
deterministic: fixed row-major node ordering and 17-significant-digit
floats, so runs are diffable, and ``--workers 1`` is byte-identical to
any other worker count.  The only environment override is ``VIAKIT_OUT``
for the output directory.

Exit codes: 0 success; 2 config error (with a field diagnostic);
3 numeric failure (NonFinite, CapTooSmall), naming the operation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import csvio
# solve_char stays importable here: perfbench/tracer.py wraps cli.solve_char
from .characteristics import (BoundaryData, CharProblem, demo4d, graph_sample,
                              solve_char, solve_char_many)
from .dynamics import (VectorField, demographic_field, flow, integrate,
                       linear_field, logistic_field, reach_set, rotation_field,
                       transport_field)
from .epi_hj import (GridFunction, LagrangianProblem, abs_obstacle,
                     const_lagrangian, epigraph_oracle, hj_check_inf,
                     hj_check_sup, indicator_obstacle, lift, lyapunov,
                     minimal_length, minimal_time, speed_lagrangian,
                     tabulate_values, unit_lagrangian, value_inf, value_sup,
                     zero_lagrangian, zero_obstacle)
from .errors import CapTooSmall, ConfigError, NonFinite, ParamDomain
from .kernels import (GridSpec, capt_field, discrete_kernel, exit_time,
                      hitting_time, viab_field, viable_capt_field)
from .sets import (ball, box, complement, halfspace, intersection,
                   point_cloud_set, product, sphere, union)

SUBCOMMANDS = [
    "integrate", "flow", "reach", "exit-time", "hitting-time", "viab", "capt",
    "viable-capt", "kernel", "value-sup", "value-inf", "lyapunov", "mintime",
    "minlength", "hj-check", "pde-char", "pde-graph", "demo4d",
]


def _need(cfg: dict, key: str, where: str):
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


def _vec(spec: dict, key: str, where: str, none=None) -> np.ndarray:
    """``spec[key]`` as a float array; with ``none``, null list entries read as it."""
    value = _need(spec, key, where)
    try:
        if none is not None:
            return np.array([none if v is None else v for v in value], dtype=float)
        return np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{key!r} in section {where!r} must be numeric, got {value!r}",
                          section=where) from None


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


def _build_field(spec: dict, where: str = "field") -> VectorField:
    kind = _need(spec, "kind", where)
    if kind == "linear":
        if "matrix" in spec:
            return linear_field(_vec(spec, "matrix", where))
        return linear_field(_num(spec, "a", where), dim=int(spec.get("dim", 1)))
    if kind == "rotation":
        return rotation_field(_num(spec, "omega", where, default=1.0))
    if kind == "logistic":
        return logistic_field(_num(spec, "beta", where), _num(spec, "b", where))
    if kind == "transport":
        return transport_field(_vec(spec, "velocity", where))
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

        return VectorField(1, ev, name="polynomial")
    if kind == "lifted":
        # state-cost dynamics of a value problem; pairs with an "epigraph" set
        sub = {
            "field": _need(spec, "field", where),
            "lagrangian": spec.get("lagrangian", {"kind": "zero"}),
            "obstacle": spec.get("obstacle", {"kind": "zero"}),
            "discount": spec.get("discount", 0.0),
        }
        return lift(_build_problem(sub)).field
    raise ConfigError(f"unknown field kind {kind!r} in section {where!r}", section=where)


def _build_set(spec: dict, where: str = "set"):
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
    if kind == "product":
        return product(*[_build_set(s, where) for s in _need(spec, "factors", where)])
    if kind == "union":
        return union(*[_build_set(s, where) for s in _need(spec, "members", where)])
    if kind == "intersection":
        return intersection(*[_build_set(s, where) for s in _need(spec, "members", where)])
    if kind == "complement":
        return complement(_build_set(_need(spec, "of", where), where))
    if kind == "epigraph":
        okind = _need(_need(spec, "obstacle", where), "kind", where)
        state_dim = int(spec.get("state_dim", 1))
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


def _build_func(spec: dict, where: str):
    """Small scalar-function library for data: w.z + c, sin(w.z + c), const."""
    kind = _need(spec, "kind", where)
    if kind == "const":
        v = _num(spec, "value", where)
        return lambda *args: np.array([v])
    w = _vec(spec, "weights", where)
    c = _num(spec, "offset", where, default=0.0)

    def dot(args):
        z = np.concatenate([np.atleast_1d(np.asarray(a, dtype=float)) for a in args])
        return float(w @ z) + c

    if kind == "affine":
        return lambda *args: np.array([dot(args)])
    if kind == "sin":
        return lambda *args: np.array([np.sin(dot(args))])
    raise ConfigError(f"unknown function kind {kind!r} in section {where!r}", section=where)


def _build_problem(cfg: dict) -> LagrangianProblem:
    field = _build_field(_need(cfg, "field", "config"))
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
        obs = indicator_obstacle(_build_set(_need(ospec, "set", "obstacle"), "obstacle.set"))
    else:
        raise ConfigError(f"unknown obstacle kind {okind!r}", section="obstacle")
    return LagrangianProblem(field, lag, _num(cfg, "discount", "config", default=0.0), obs,
                             value_cap=_num(cfg, "value_cap", "config", default=1e6))


def _build_pde(cfg: dict) -> CharProblem:
    pde = _need(cfg, "pde", "config")
    K = _build_set(_need(pde, "K", "pde"), "pde.K")
    u0 = _build_func(_need(pde, "u0", "pde"), "pde.u0")
    v = _build_func(pde["v"], "pde.v") if pde.get("v") else None
    impulses = tuple(pde["impulses"]) if pde.get("impulses") else None
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
    out_dim = int(pde.get("out_dim", 1))
    fspec = pde.get("f")
    if fspec and _need(fspec, "kind", "pde.f") == "output":
        return CharProblem(g, K, data, out_dim, f=lambda t, x, y: y)
    phi = _build_field(_need(pde, "phi", "pde"), "pde.phi")
    return CharProblem(g, K, data, out_dim, phi=phi)


def _eval_lattice(cfg: dict):
    ev = _need(cfg, "eval", "config")
    if "ts" in ev and "xs" in ev:
        ts = _vec(ev, "ts", "eval")
        xs = np.atleast_2d(_vec(ev, "xs", "eval"))
        if len(ts) != len(xs):
            raise ConfigError("eval.ts and eval.xs must have equal length", section="eval")
        return ts, xs
    t0, t1, nt = _need(ev, "t_range", "eval")
    ranges = _need(ev, "x_range", "eval")
    axes = [np.linspace(a, b, int(n)) for a, b, n in ranges]
    mesh = np.meshgrid(np.linspace(t0, t1, int(nt)), *axes, indexing="ij")
    flat = [m.reshape(-1) for m in mesh]
    return flat[0], np.stack(flat[1:], axis=1)


def _require_inside(K, rows, where: str, set_name: str):
    """ConfigError naming the first of ``rows`` outside ``K``."""
    outside = np.flatnonzero(~K.contains_many(rows))
    if len(outside):
        raise ConfigError(f"{where} row {outside[0]} {rows[outside[0]].tolist()} is "
                          f"outside {set_name}", section=where)


def _check_eval(ts, xs, K, set_name: str):
    """ConfigError unless every eval time is finite and >= 0 and every row is in K."""
    _require_inside(K, xs, "eval", set_name)
    for bad, rule in ((~np.isfinite(ts), "be finite"), (ts < 0.0, "be >= 0")):
        if bad.any():
            i = int(np.argmax(bad))
            raise ConfigError(f"eval time {i} ({ts[i]}) must {rule}", section="eval")


def _points(cfg: dict, key: str = "points"):
    return np.atleast_2d(_vec(cfg, key, "config"))


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
        field = _build_field(_need(cfg, "field", "config"))
        t0, t1 = _num(cfg, "t0", "config", default=0.0), _horizon(cfg)
        if not (math.isfinite(t0) and t0 <= t1):
            raise ConfigError(f"'t0' must be finite and <= the horizon, got {t0!r}",
                              section="config")
        traj = integrate(field, _vec(cfg, "x0", "config"), t0, t1, _step(cfg))
        csvio.write_trajectory(out("trajectory.csv"), traj)
    elif op == "flow":
        field = _build_field(_need(cfg, "field", "config"))
        t = _num(cfg, "t", "config")
        if not math.isfinite(t):
            raise ConfigError(f"'t' must be finite, got {t!r}", section="config")
        x = flow(field, t, _vec(cfg, "x0", "config"), _step(cfg))
        csvio.write_points(out("flow.csv"), x[None, :])
    elif op == "reach":
        field = _build_field(_need(cfg, "field", "config"))
        pts, ok = reach_set(field, _horizon(cfg, "t"), _points(cfg, "seeds"), _step(cfg))
        csvio.write_values(out("reach.csv"), pts, ok.astype(float), label="ok")
    elif op in ("exit-time", "hitting-time"):
        field = _build_field(_need(cfg, "field", "config"))
        K = _build_set(_need(cfg, "set", "config"))
        fn = exit_time if op == "exit-time" else hitting_time
        rows = _points(cfg, "x0")
        if op == "exit-time":
            _require_inside(K, rows, "x0", "the set")
        T, h = _horizon(cfg), _step(cfg)
        vals = [fn(field, K, x, T, h) for x in rows]
        csvio.write_values(out(op.replace("-", "_") + ".csv"), rows, vals)
    elif op in ("viab", "capt", "viable-capt"):
        field = _build_field(_need(cfg, "field", "config"))
        grid = _build_grid(_need(cfg, "grid", "config"))
        T, h = _horizon(cfg), _step(cfg)
        if op == "viab":
            tf = viab_field(field, _build_set(_need(cfg, "set", "config")), grid, T, h,
                            workers=workers)
        elif op == "capt":
            tf = capt_field(field, _build_set(_need(cfg, "set", "config")), grid, T, h,
                            workers=workers)
        else:
            sets_cfg = _need(cfg, "sets", "config")
            tf = viable_capt_field(field, _build_set(_need(sets_cfg, "K", "sets"), "sets.K"),
                                   _build_set(_need(sets_cfg, "C", "sets"), "sets.C"),
                                   grid, T, h, workers=workers)
        csvio.write_timefield(out(op.replace("-", "_") + ".csv"), tf)
    elif op == "kernel":
        field = _build_field(_need(cfg, "field", "config"))
        grid = _build_grid(_need(cfg, "grid", "config"))
        flow_step = _step(cfg, "flow_step") if cfg.get("flow_step") is not None else None
        alive, _ = discrete_kernel(field, _build_set(_need(cfg, "set", "config")), grid,
                                   _step(cfg), flow_step=flow_step, workers=workers)
        csvio.write_boolfield(out("kernel.csv"), grid, alive)
    elif op in ("value-sup", "value-inf", "lyapunov"):
        p = _build_problem(cfg)
        T, h = _horizon(cfg), _step(cfg)
        rows = _points(cfg)
        fn = {"value-sup": value_sup, "value-inf": value_inf, "lyapunov": lyapunov}[op]
        vals = [fn(p, x, T, h) for x in rows]
        csvio.write_values(out(op.replace("-", "_") + ".csv"), rows, vals)
    elif op in ("mintime", "minlength"):
        field = _build_field(_need(cfg, "field", "config"))
        K = _build_set(_need(cfg, "set", "config"))
        T, h = _horizon(cfg), _step(cfg)
        rows = _points(cfg)
        fn = minimal_time if op == "mintime" else minimal_length
        vals = [fn(field, K, x, T, h) for x in rows]
        csvio.write_values(out(op + ".csv"), rows, vals)
    elif op == "hj-check":
        p = _build_problem(cfg)
        T, h = _horizon(cfg), _step(cfg)
        mode = cfg.get("mode", "sup")
        grid = _build_grid(_need(cfg, "grid", "config"))
        vals = tabulate_values(p, grid.nodes(), mode, T, h)
        field_fn = GridFunction(grid, vals)
        check = hj_check_sup if mode == "sup" else hj_check_inf
        report = check(p, field_fn, _points(cfg), tol=_num(cfg, "tol", "config", default=0.05))
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
        cloud = graph_sample(prob, _horizon(gcfg, "T", "graph"), _step(cfg),
                             int(_need(gcfg, "seeds_per_face", "graph")),
                             _vec(gcfg, "seed_lo", "graph"), _vec(gcfg, "seed_hi", "graph"),
                             boundary_points=gcfg.get("boundary_points"))
        csvio.write_graphcloud(out("graph_cloud.csv"), cloud)
    elif op == "demo4d":
        d = _need(cfg, "demo4d", "config")
        oracle = demo4d(*(_num(d, k, "demo4d")
                          for k in ("rho", "sigma", "beta", "b", "r2")),
                        _num(d, "A", "demo4d"),
                        _build_func(_need(d, "u0", "demo4d"), "demo4d.u0"),
                        _build_func(_need(d, "v1", "demo4d"), "demo4d.v1"),
                        _build_func(_need(d, "v_r2", "demo4d"), "demo4d.v_r2"))
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
    except (ConfigError, json.JSONDecodeError, KeyError) as exc:
        if isinstance(exc, json.JSONDecodeError):
            print(f"config error: invalid JSON at line {exc.lineno}: {exc.msg}",
                  file=sys.stderr)
        else:
            print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NonFinite, CapTooSmall, ParamDomain) as exc:
        print(f"numeric failure in {args.subcommand!r}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
