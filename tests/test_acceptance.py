"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Criterion 3's convergence-rate clause is expected to fail on
the stated benchmark: the projected scheme superconverges there (the
trajectory error is O(h^2), ratio ~0.25, not the demanded ~0.5); see
tests/test_viable_euler.py::test_first_order_convergence_generic_tangent_field
for the generic first-order behavior.
"""

import json
import math

import numpy as np
import pytest

import viakit as vk
from viakit.cli import main as cli_main
from viakit.common import INF

import hj_reference


def _report(num: int, ok: bool, detail: str):
    print(f"CRITERION {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


decay = vk.linear_field(-1.0)
grow = vk.linear_field(1.0)
one = vk.transport_field([1.0])

P_SUP = vk.LagrangianProblem(decay, vk.zero_lagrangian, 0.0, vk.abs_obstacle)
P_INF = vk.LagrangianProblem(decay, vk.unit_lagrangian, 0.0, vk.abs_obstacle)


# -- 1: growth bound ----------------------------------------------------------


def test_criterion_01_growth_bounds():
    fields = [
        (vk.linear_field(1.0), (-2.0, 2.0)),
        (vk.linear_field(-1.0), (-2.0, 2.0)),
        (vk.rotation_field(), (-1.5, 1.5)),
        (vk.logistic_field(1.0, 2.0), (0.05, 1.95)),
        (vk.transport_field([0.5]), (-2.0, 2.0)),
    ]
    rng = np.random.default_rng(42)
    worst = -np.inf
    for field, window in fields:
        assert field.growth_c is not None
        for _ in range(20):
            x0 = rng.uniform(*window, size=field.dim)
            traj = vk.integrate(field, x0, 0.0, 3.0, 1e-2)
            bound = (np.linalg.norm(x0) + 1.0) * np.exp(field.growth_c * traj.times) \
                - 1.0 + 1e-6
            slack = np.max(np.linalg.norm(traj.states, axis=1) - bound)
            worst = max(worst, slack)
    ok = worst <= 0.0
    _report(1, ok, f"5 fields x 20 starts, max bound excess {worst:.3e}")
    assert ok


# -- 2: monotone contraction ---------------------------------------------------


def test_criterion_02_monotone_contraction():
    f = vk.linear_field(-2.0)
    assert f.monotone_mu == 2.0
    rng = np.random.default_rng(7)
    worst = -np.inf
    for _ in range(10):
        a, b = rng.uniform(-3.0, 3.0, size=2)
        ta = vk.integrate(f, [a], 0.0, 2.0, 1e-3)
        tb = vk.integrate(f, [b], 0.0, 2.0, 1e-3)
        gap = np.abs(ta.states - tb.states).ravel()
        bound = np.exp(-2.0 * ta.times) * abs(a - b) * (1.0 + 1e-6)
        worst = max(worst, np.max(gap - bound))
    ok = worst <= 0.0
    _report(2, ok, f"10 start pairs, max contraction excess {worst:.3e}")
    assert ok


# -- 3: viable Euler convergence -----------------------------------------------


def test_criterion_03_viable_euler_convergence():
    circle = vk.sphere([0.0, 0.0], 1.0)
    f = vk.rotation_field()
    errs, dists, sub = [], [], []
    for h in (1e-2, 5e-3, 2.5e-3):
        res = vk.viable_trajectory(f, circle, [1.0, 0.0], 2 * math.pi, h)
        t = res.trajectory.times
        exact = np.stack([np.cos(t), np.sin(t)], axis=1)
        errs.append(float(np.linalg.norm(res.trajectory.states - exact, axis=1).max()))
        dists.append(res.max_set_distance)
        sub.append(res.substitution_error)
    ratios = (errs[1] / errs[0], errs[2] / errs[1])
    dist_ok = max(dists) <= 1e-9
    ratio_ok = all(0.4 <= r <= 0.6 for r in ratios)
    ok = dist_ok and ratio_ok
    _report(3, ok,
            f"sup dist to K {max(dists):.1e}; trajectory-error ratios "
            f"{ratios[0]:.3f}/{ratios[1]:.3f} (required [0.4,0.6]; scheme "
            f"superconverges here, substitution-error ratios "
            f"{sub[1]/sub[0]:.3f}/{sub[2]/sub[1]:.3f})")
    assert dist_ok
    assert ratio_ok, (
        "on the exactly tangent constant-speed circle benchmark the projected "
        "Euler nodes land on the true orbit at a retarded phase, so the "
        f"trajectory error is O(h^2) and the ratios are {ratios}, below the "
        "[0.4, 0.6] window that presumes the generic first-order rate")


# -- 4: kernel oracle ------------------------------------------------------------


def test_criterion_04_kernel_oracle():
    K = vk.box([-1.0], [1.0])
    grid = vk.GridSpec([-1.0], [1.0], [400])
    tf = vk.viab_field(grow, K, grid, 20.0, 1e-2)
    xs = grid.nodes().ravel()
    kernel_nodes = xs[tf.superlevel(20.0)]
    viab_ok = np.array_equal(kernel_nodes, [0.0])

    alive, _ = vk.discrete_kernel(grow, K, grid, 1.0, flow_step=1e-2)
    cell = grid.spacing[0]
    disc_ok = alive.any() and np.all(np.abs(xs[alive]) <= 2 * cell + 1e-12)

    disk = vk.ball([0.0, 0.0], 1.0)
    g2 = vk.GridSpec([-1.0, -1.0], [1.0, 1.0], [100, 100])
    tf2 = vk.viab_field(vk.rotation_field(), disk, g2, 5.0, 1e-2)
    rot_viab_ok = bool(np.all(tf2.values[tf2.inside] >= INF))
    alive2, _ = vk.discrete_kernel(vk.rotation_field(), disk, g2, 1.0, flow_step=1e-2)
    rot_disc_ok = np.array_equal(alive2, tf2.inside)

    ok = viab_ok and disc_ok and rot_viab_ok and rot_disc_ok
    _report(4, ok,
            f"expanding kernel {kernel_nodes.tolist()} (discrete within "
            f"{np.abs(xs[alive]).max()/cell:.1f} cells); rotation disk survives "
            f"{int(tf2.superlevel(5.0).sum())}/{int(tf2.inside.sum())} nodes both methods")
    assert ok


# -- 5: capture identities -------------------------------------------------------


def test_criterion_05_capture_identities():
    grid = vk.GridSpec([0.0], [2.0], [80])
    C1, C2 = vk.box([1.0], [1.2]), vk.box([1.5], [1.7])
    kw = dict(grid=grid, T_max=5.0, h=1e-2)
    u = vk.capt_field(one, vk.union(C1, C2), **kw)
    a = vk.capt_field(one, C1, **kw)
    b = vk.capt_field(one, C2, **kw)
    union_ok = np.array_equal(u.values, np.minimum(a.values, b.values))

    C = vk.ball([1.0], 0.005)
    g1 = vk.GridSpec([0.0], [1.0], [100])
    cf = vk.capt_field(one, C, g1, 3.0, 1e-3)
    cell = g1.spacing[0]
    xs = g1.nodes().ravel()
    back_ok = True
    for t in (0.2, 0.4, 0.6, 0.8):
        pts, all_ok = vk.reach_set(one.negated(), t, [[1.0]], 1e-3)
        node = int(np.argmin(np.abs(xs - pts[0][0])))
        back_ok &= bool(all_ok.all()) and cf.values[node] <= t + cell

    K = vk.box([-1.0], [1.0])
    gamma_gap = max(
        abs(vk.capture_margin(grow, K, K, [x], 10.0, 1e-3)
            - (-vk.exit_time(grow, K, [x], 10.0, 1e-3)))
        for x in (0.2, 0.5, -0.7))
    gamma_ok = gamma_gap <= 1e-9

    ok = union_ok and back_ok and gamma_ok
    _report(5, ok, f"union law exact {union_ok}; backward-reach within 1 cell "
                   f"{back_ok}; gamma(C=K)=-tau gap {gamma_gap:.1e}")
    assert ok


# -- 6: value-function oracles -----------------------------------------------------


def test_criterion_06_value_oracles():
    xs = np.linspace(-2.0, 2.0, 50)[:, None]
    sup_vals = vk.tabulate_values(P_SUP, xs, "sup", 10.0, 1e-3)
    sup_err = float(np.max(np.abs(sup_vals - np.abs(xs.ravel()))))

    inf_err = abs(vk.value_inf(P_INF, [math.e], 15.0, 1e-3) - 2.0)

    cases = [
        (one, vk.ball([1.0], 1e-6), [0.0]),
        (decay, vk.ball([0.0], 0.1), [1.0]),
        (vk.rotation_field(), vk.ball([1.0, 0.0], 1e-3), [0.0, 1.0]),
    ]
    mt_gap = max(abs(vk.minimal_time(f, K, x, 10.0, 1e-3)
                     - vk.hitting_time(f, K, x, 10.0, 1e-3))
                 for f, K, x in cases)

    len_err = abs(vk.minimal_length(decay, vk.ball([0.0], 0.1), [1.0], 15.0, 1e-3) - 0.9)

    ok = sup_err <= 1e-4 and inf_err <= 1e-4 and mt_gap <= 1e-6 and len_err <= 1e-4
    _report(6, ok, f"sup err {sup_err:.1e}; inf err {inf_err:.1e}; "
                   f"mintime-vs-hitting gap {mt_gap:.1e}; length err {len_err:.1e}")
    assert ok


# -- 7: epigraph equivalence ---------------------------------------------------------


def _envelope_agrees(problem, mode, grid2d, T, h):
    res = vk.epigraph_value_field(problem, grid2d, mode, T, h)
    xs = res.envelope.grid.nodes()
    direct = vk.tabulate_values(problem, xs, mode, T, h)
    y_cell = (grid2d.hi[-1] - grid2d.lo[-1]) / grid2d.counts[-1]
    env = res.envelope.values
    both_inf = (env >= INF) & (direct >= INF)
    both_fin = (env < INF) & (direct < INF)
    agree = both_inf | (both_fin & (np.abs(env - direct) <= 2 * y_cell))
    return bool(np.all(agree)), float(np.max(np.where(both_fin, np.abs(env - direct), 0.0)))


def test_criterion_07_epigraph_equivalence():
    grid = vk.GridSpec([-2.0, 0.0], [2.0, 4.0], [200, 200])
    results = {}
    for name, prob in (("A", P_SUP), ("B", P_INF)):
        for mode in ("sup", "inf"):
            results[f"{name}-{mode}"] = _envelope_agrees(prob, mode, grid, 8.0, 2e-2)
    ok = all(v[0] for v in results.values())
    gaps = ", ".join(f"{k} {v[1]:.3f}" for k, v in results.items())
    _report(7, ok, f"201x201 grids, both modes, both problems; max finite gaps: {gaps}")
    assert ok


# -- 8: HJ residuals ------------------------------------------------------------------


def test_criterion_08_hj_residuals():
    grid = vk.GridSpec([-2.0], [2.0], [200])
    sup_vals = vk.tabulate_values(P_SUP, grid.nodes(), "sup", 10.0, 1e-2)
    sup_field = vk.GridFunction(grid, sup_vals)
    samples = np.linspace(-1.5, 1.5, 61)[:, None]
    rep_sup = vk.hj_check_sup(P_SUP, sup_field, samples, tol=0.05)

    K = vk.ball([1.0], 0.005)
    p_mt = vk.LagrangianProblem(one, vk.unit_lagrangian, 0.0, vk.indicator_obstacle(K))
    g_mt = vk.GridSpec([0.0], [1.0], [200])
    mt_vals = vk.tabulate_values(p_mt, g_mt.nodes(), "inf", 3.0, 1e-3)
    mt_field = vk.GridFunction(g_mt, mt_vals)
    s_mt = np.linspace(0.05, 0.9, 35)[:, None]
    rep_inf = vk.hj_check_inf(p_mt, mt_field, s_mt, tol=0.05)

    shifted = vk.GridFunction(grid, sup_vals + 1.0)
    rep_shift = vk.hj_check_sup(P_SUP, shifted, samples, tol=0.05)

    zero_field = vk.GridFunction(grid, np.zeros(grid.node_count))
    rep_zero = vk.hj_check_inf(P_INF, zero_field, samples, tol=0.05)

    # the batched residual pass == the per-sample loops, bit for bit
    ref_sup, ref_inf = hj_reference.hj_check_sup, hj_reference.hj_check_inf
    same = [hj_reference.same_report(rep, ref(p, field, s, tol=0.05))
            for rep, ref, p, field, s in ((rep_sup, ref_sup, P_SUP, sup_field, samples),
                                          (rep_inf, ref_inf, p_mt, mt_field, s_mt),
                                          (rep_shift, ref_sup, P_SUP, shifted, samples),
                                          (rep_zero, ref_inf, P_INF, zero_field, samples))]
    ok = rep_sup.ok and rep_inf.ok and len(rep_shift.violations) >= 1 \
        and len(rep_zero.violations) >= 1 and all(same)
    _report(8, ok,
            f"clean checks: sup {len(rep_sup.violations)}, inf {len(rep_inf.violations)} "
            f"violations; negative controls flag {len(rep_shift.violations)} "
            f"(shifted) and {len(rep_zero.violations)} (zero) violations; "
            f"{sum(same)}/4 reports equal the per-sample loops")
    assert ok


# -- 9: characteristics oracle ---------------------------------------------------------


RHO, SIGMA, BETA, B, R2 = 1.0, 0.5, 0.3, 2.0, math.e


def _demo_data():
    u0 = lambda C: np.sin(C[:, :1]) + 0.5 * C[:, 1:2] + 0.2 * C[:, 2:3] * C[:, 3:]
    v1 = lambda S, Z: np.cos(S) + 0.1 * Z[:, :1] + 0.05 * Z[:, 1:2] * Z[:, 2:]  # (x2, x3, x4)
    vr2 = lambda S, Z: 0.3 * S + 0.2 * Z[:, :1] + 0.1 * Z[:, 1:2] - 0.05 * Z[:, 2:]  # (x1, x3, x4)
    return u0, v1, vr2


def test_criterion_09_characteristics_oracle():
    u0, v1, vr2 = _demo_data()
    oracle = vk.demo4d(RHO, SIGMA, BETA, B, R2, 0.4, u0, v1, vr2)
    K4 = vk.product(vk.box([0.0], [np.inf]), vk.box([0.0], [R2]),
                    vk.box([0.0], [np.inf]), vk.box([0.0], [B]))

    def vgamma(S, X):
        return np.where(X[:, :1] <= 1e-6, v1(S, X[:, 1:]), vr2(S, X[:, [0, 2, 3]]))

    prob = vk.CharProblem(lambda t, x, y: -0.4 * y, K4,
                          vk.BoundaryData(u0, vgamma), 1,
                          phi=vk.demographic_field(RHO, SIGMA, BETA, B))
    pts = [(t, np.array([x1, x2, *x34])) for t in (0.3, 0.8, 1.5, 2.2, 3.0)
           for x1 in (0.2, 0.9, 1.8, 3.2, 4.5) for x2 in (0.35, 1.1, 1.9, 2.55)
           for x34 in ((0.7, 1.2), (1.4, 0.6))]
    regimes = [oracle.regime(t, x) for t, x in pts]
    count = {r: regimes.count(r) for r in (1, 2, 3)}
    n_pts = len(pts)
    ts, xs = np.array([t for t, _ in pts]), np.array([x for _, x in pts])
    u, _ = vk.solve_char_many(prob, ts, xs, 1e-2)  # an unreached row is NaN and fails
    worst4d = np.max(np.abs(u[:, 0] - [oracle(t, x)[0] for t, x in pts]))
    # solve_char is a one-row lift of the batched solve, bit for bit, in every regime
    for i in (regimes.index(r) for r in count if count[r]):
        assert vk.solve_char(prob, ts[i], xs[i], 1e-2).tobytes() == u[i].tobytes()

    tprob = vk.CharProblem(lambda t, x, y: np.zeros_like(y), vk.box([0.0], [np.inf]),
                           vk.BoundaryData(lambda X: np.sin(X[:, :1]),
                                           lambda S, X: np.cos(3.0 * S)),
                           1, phi=one)
    ts, xs = (a.ravel() for a in np.meshgrid(np.linspace(0.1, 3.0, 10),
                                             np.linspace(0.1, 5.0, 20), indexing="ij"))
    u, _ = vk.solve_char_many(tprob, ts, xs[:, None], 1e-2)
    exact = np.where(ts <= xs, np.sin(xs - ts), np.cos(3.0 * (ts - xs)))
    worst_t = np.max(np.abs(u[:, 0] - exact))

    ok = worst4d <= 1e-4 and worst_t <= 1e-6 and min(count.values()) > 0
    _report(9, ok, f"{n_pts} demographic samples, regimes {dict(count)}, "
                   f"max diff {worst4d:.2e}; transport max err {worst_t:.2e}")
    assert ok


# -- 10: data locality -------------------------------------------------------------------


def test_criterion_10_data_locality():
    halfline = vk.box([0.0], [np.inf])
    g0 = lambda t, x, y: np.zeros_like(y)
    u0 = lambda X: np.sin(X[:, :1])
    v_a = lambda S, X: np.cos(3.0 * S)
    v_b = lambda S, X: 1e6 + S
    u0_b = lambda X: np.full((len(X), 1), -1e6)
    h = 1e-3
    pa = vk.CharProblem(g0, halfline, vk.BoundaryData(u0, v_a), 1, phi=one)
    ok = True
    # initial regime (t <= x) against a changed boundary datum, then the boundary
    # regime against a changed initial datum
    for (ts, xs), data in ((((0.5, 1.0, 2.0), (2.0, 4.0, 2.0)), vk.BoundaryData(u0, v_b)),
                           (((3.0, 2.0, 5.0), (0.5, 1.0, 0.2)), vk.BoundaryData(u0_b, v_a))):
        pb = vk.CharProblem(g0, halfline, data, 1, phi=one)
        xs = np.array(xs)[:, None]
        ok &= bool((vk.solve_char_many(pa, ts, xs, h)[0]
                    == vk.solve_char_many(pb, ts, xs, h)[0]).all())
    _report(10, ok, "bit-identical outputs under off-regime data perturbations")
    assert ok


# -- 11: Lipschitz operator bound ----------------------------------------------------------


def test_criterion_11_lipschitz_operator():
    mu = 2.0
    halfline = vk.box([0.0], [np.inf])
    g = lambda t, x, y: -mu * y
    vb = lambda S, X: 0.2 * S
    pa = vk.CharProblem(g, halfline,
                        vk.BoundaryData(lambda X: np.sin(X[:, :1]), vb),
                        1, phi=one)
    pb = vk.CharProblem(g, halfline,
                        vk.BoundaryData(lambda X: np.sin(X[:, :1]) + 1.0, vb),
                        1, phi=one)
    t, h = 1.0, 1e-3
    xs = np.linspace(0.0, 3.0, 31)[:, None]
    ts = np.full(len(xs), t)
    gap = np.max(np.abs(vk.solve_char_many(pa, ts, xs, h)[0]
                        - vk.solve_char_many(pb, ts, xs, h)[0]))
    bound = math.exp(-mu * t) * (1.0 + 1e-4)
    ok = gap <= bound
    _report(11, ok, f"sup output gap {gap:.8f} <= e^-2 (1+1e-4) = {bound:.8f}")
    assert ok


# -- 12: shock detection ----------------------------------------------------------------------


def test_criterion_12_shock_detection():
    data = vk.BoundaryData(lambda X: -X[:, :1])
    prob = vk.CharProblem(lambda t, x, y: np.zeros_like(y), vk.whole_space(1),
                          data, 1, f=lambda t, x, y: y)
    h = 0.01
    cloud = vk.graph_sample(prob, 1.2, h, 41, [-1.0], [1.0])
    clusters = vk.query_graph(cloud, 1.0, [0.0], 0.02)
    rep = vk.frankowska_residual(cloud, prob, 100)
    ok = len(clusters) >= 3 and rep.max_forward <= 5 * h and rep.max_backward <= 5 * h
    _report(12, ok, f"{len(clusters)} output clusters at the crossing; "
                    f"residuals fwd {rep.max_forward:.1e} bwd {rep.max_backward:.1e} "
                    f"(tol {5*h})")
    assert ok


# -- 13: CLI determinism ------------------------------------------------------------------------


def _run_twice(tmp_path, tag, subcommand, cfg):
    cfg_path = tmp_path / f"{tag}.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for workers, sub in (("1", "w1"), ("8", "w8")):
        out = tmp_path / f"{tag}-{sub}"
        out.mkdir()
        assert cli_main([subcommand, str(cfg_path), "-o", str(out),
                         "--workers", workers]) == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    return all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names)


def test_criterion_13_cli_determinism(tmp_path):
    ok4 = _run_twice(tmp_path, "c4", "viab", {
        "field": {"kind": "linear", "a": 1.0},
        "set": {"kind": "box", "lo": [-1.0], "hi": [1.0]},
        "grid": {"lo": [-1.0], "hi": [1.0], "counts": [400]},
        "horizon": 20.0, "step": 0.01,
    })
    ok7 = _run_twice(tmp_path, "c7", "viab", {
        "field": {"kind": "lifted", "field": {"kind": "linear", "a": -1.0},
                  "lagrangian": {"kind": "zero"}, "obstacle": {"kind": "abs"},
                  "discount": 0.0},
        "set": {"kind": "epigraph", "obstacle": {"kind": "abs"}, "state_dim": 1},
        "grid": {"lo": [-2.0, 0.0], "hi": [2.0, 4.0], "counts": [200, 200]},
        "horizon": 8.0, "step": 0.02,
    })
    ts, xs = [], []
    for t in (0.3, 0.8, 1.5, 2.2, 3.0):
        for x1 in (0.2, 0.9, 1.8, 3.2):
            for x2 in (0.35, 1.1, 1.9, 2.55):
                ts.append(t)
                xs.append([x1, x2, 0.7, 1.2])
    ok9 = _run_twice(tmp_path, "c9", "demo4d", {
        "demo4d": {
            "rho": 1.0, "sigma": 0.5, "beta": 0.3, "b": 2.0, "r2": math.e,
            "A": 0.4,
            "u0": {"kind": "affine", "weights": [0.3, 0.5, 0.1, 0.2], "offset": 1.0},
            "v1": {"kind": "affine", "weights": [1.0, 0.1, 0.05, 0.0]},
            "v_r2": {"kind": "affine", "weights": [0.3, 0.2, 0.1, -0.05]},
        },
        "step": 0.01,
        "eval": {"ts": ts, "xs": xs},
    })
    ok = ok4 and ok7 and ok9
    _report(13, ok, f"byte-identical CSVs workers 1 vs 8: "
                    f"criterion-4 run {ok4}, criterion-7 run {ok7}, criterion-9 run {ok9}")
    assert ok
