import json
import math

import numpy as np
import pytest

from viakit.cli import main


def _write(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return header, np.array(rows)


VIAB_CFG = {
    "field": {"kind": "linear", "a": 1.0},
    "set": {"kind": "box", "lo": [-1.0], "hi": [1.0]},
    "grid": {"lo": [-1.0], "hi": [1.0], "counts": [400]},
    "horizon": 20.0,
    "step": 0.01,
}


def test_viab_run_kernel_is_origin(tmp_path):
    cfg = _write(tmp_path, "viab.json", VIAB_CFG)
    assert main(["viab", cfg, "-o", str(tmp_path)]) == 0
    text = (tmp_path / "viab.csv").read_text()
    inf_rows = [ln for ln in text.splitlines() if ln.endswith(",inf")]
    assert inf_rows == ["0,inf"]


def test_workers_byte_identical(tmp_path):
    cfg = _write(tmp_path, "viab.json", VIAB_CFG)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert main(["viab", cfg, "-o", str(tmp_path / "a"), "--workers", "1"]) == 0
    assert main(["viab", cfg, "-o", str(tmp_path / "b"), "--workers", "8"]) == 0
    assert (tmp_path / "a" / "viab.csv").read_bytes() == \
        (tmp_path / "b" / "viab.csv").read_bytes()


def test_missing_section_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.json", {"set": VIAB_CFG["set"]})
    assert main(["viab", cfg, "-o", str(tmp_path)]) == 2
    assert "field" in capsys.readouterr().err


def test_invalid_json_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"field": }')
    assert main(["viab", str(path), "-o", str(tmp_path)]) == 2
    assert "line" in capsys.readouterr().err


def test_numeric_failure_exit_3(tmp_path, capsys):
    cfg = _write(tmp_path, "blow.json", {
        "field": {"kind": "polynomial", "coeffs": [0.0, 0.0, 1.0]},
        "x0": [5.0], "horizon": 10.0, "step": 0.01,
    })
    assert main(["integrate", cfg, "-o", str(tmp_path)]) == 3
    assert "integrate" in capsys.readouterr().err


def test_hj_check_blowup_exit_3(tmp_path, capsys):
    cfg = _write(tmp_path, "hjblow.json", {
        "field": {"kind": "polynomial", "coeffs": [0, 0, 1]},
        "lagrangian": {"kind": "zero"}, "obstacle": {"kind": "abs"},
        "grid": {"lo": [-1.0], "hi": [3.0], "counts": [8]},
        "mode": "sup", "points": [[0.1]], "horizon": 5.0, "step": 0.01,
    })
    assert main(["hj-check", cfg, "-o", str(tmp_path)]) == 3
    assert "hj-check" in capsys.readouterr().err
    assert not (tmp_path / "value_field.csv").exists()


@pytest.mark.parametrize("grid", [
    {"lo": [1.0], "hi": [-1.0], "counts": [10]},
    {"lo": [-1.0], "hi": [1.0], "counts": [1]},
    {"lo": [float("nan")], "hi": [1.0], "counts": [4]},
])
def test_bad_grid_exit_2(tmp_path, capsys, grid):
    cfg = _write(tmp_path, "badgrid.json", dict(VIAB_CFG, grid=grid))
    assert main(["viab", cfg, "-o", str(tmp_path)]) == 2
    assert "grid" in capsys.readouterr().err


def test_flow_and_exit_time(tmp_path):
    cfg = _write(tmp_path, "flow.json", {
        "field": {"kind": "linear", "a": 1.0}, "t": 1.0, "x0": [1.0], "step": 1e-3,
    })
    assert main(["flow", cfg, "-o", str(tmp_path)]) == 0
    _, rows = _read_csv(tmp_path / "flow.csv")
    assert rows[0][0] == pytest.approx(math.e, abs=1e-6)

    cfg2 = _write(tmp_path, "et.json", {
        "field": {"kind": "transport", "velocity": [1.0]},
        "set": {"kind": "box", "lo": [0.0], "hi": [1.0]},
        "x0": [[0.3]], "horizon": 5.0, "step": 1e-3,
    })
    assert main(["exit-time", cfg2, "-o", str(tmp_path)]) == 0
    _, rows = _read_csv(tmp_path / "exit_time.csv")
    assert rows[0][-1] == pytest.approx(0.7, abs=1e-6)


def test_exit_time_start_outside_set_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, "et_out.json", {
        "field": {"kind": "transport", "velocity": [1.0]},
        "set": {"kind": "box", "lo": [-1.0], "hi": [1.0]},
        "x0": [[0.0], [3.0]], "horizon": 5.0, "step": 1e-3,
    })
    assert main(["exit-time", cfg, "-o", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "x0 row 1" in err
    assert not (tmp_path / "exit_time.csv").exists()


@pytest.mark.parametrize("edit, key", [
    ({"field": {"kind": "linear", "a": "abc"}}, "'a' in section 'field'"),
    ({"set": {"kind": "ball", "center": [0.0], "radius": [1.0]}}, "'radius' in section 'set'"),
    ({"horizon": None}, "'horizon' in section 'config'"),
])
def test_non_numeric_parameter_exit_2(tmp_path, capsys, edit, key):
    cfg = _write(tmp_path, "nan.json", dict(VIAB_CFG, **edit))
    assert main(["viab", cfg, "-o", str(tmp_path)]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "viab.csv").exists()


def test_env_var_output_override(tmp_path, monkeypatch):
    cfg = _write(tmp_path, "flow.json", {
        "field": {"kind": "linear", "a": -1.0}, "t": math.log(2.0),
        "x0": [1.0], "step": 1e-3,
    })
    target = tmp_path / "redirected"
    target.mkdir()
    monkeypatch.setenv("VIAKIT_OUT", str(target))
    assert main(["flow", cfg, "-o", str(tmp_path)]) == 0
    assert (target / "flow.csv").exists()
    assert not (tmp_path / "flow.csv").exists()


def test_epigraph_via_lifted_viab(tmp_path):
    cfg = _write(tmp_path, "epi.json", {
        "field": {"kind": "lifted", "field": {"kind": "linear", "a": -1.0},
                  "lagrangian": {"kind": "zero"}, "obstacle": {"kind": "abs"},
                  "discount": 0.0},
        "set": {"kind": "epigraph", "obstacle": {"kind": "abs"}, "state_dim": 1},
        "grid": {"lo": [-1.0, 0.0], "hi": [1.0, 1.5], "counts": [40, 40]},
        "horizon": 6.0,
        "step": 0.02,
    })
    assert main(["viab", cfg, "-o", str(tmp_path)]) == 0
    _, rows = _read_csv(tmp_path / "viab.csv")
    # kernel = epigraph of |x|: at x=0.5 the first surviving y ~ 0.5
    sub = rows[np.isclose(rows[:, 0], 0.5)]
    alive_y = sub[sub[:, 2] >= 6.0][:, 1]
    assert alive_y.min() == pytest.approx(0.525, abs=0.04)


def test_value_and_mintime(tmp_path):
    cfg = _write(tmp_path, "vs.json", {
        "field": {"kind": "linear", "a": -1.0},
        "lagrangian": {"kind": "zero"}, "obstacle": {"kind": "abs"},
        "points": [[0.7], [-1.2]], "horizon": 10.0, "step": 0.01,
    })
    assert main(["value-sup", cfg, "-o", str(tmp_path)]) == 0
    _, rows = _read_csv(tmp_path / "value_sup.csv")
    assert rows[0][-1] == pytest.approx(0.7)
    assert rows[1][-1] == pytest.approx(1.2)

    cfg2 = _write(tmp_path, "mt.json", {
        "field": {"kind": "transport", "velocity": [1.0]},
        "set": {"kind": "ball", "center": [1.0], "radius": 1e-4},
        "points": [[0.0]], "horizon": 5.0, "step": 0.001,
    })
    assert main(["mintime", cfg2, "-o", str(tmp_path)]) == 0
    _, rows = _read_csv(tmp_path / "mintime.csv")
    assert rows[0][-1] == pytest.approx(1.0, abs=1e-3)


def test_hj_check_runs_clean(tmp_path, capsys):
    cfg = _write(tmp_path, "hj.json", {
        "field": {"kind": "linear", "a": -1.0},
        "lagrangian": {"kind": "zero"}, "obstacle": {"kind": "abs"},
        "grid": {"lo": [-2.0], "hi": [2.0], "counts": [200]},
        "mode": "sup", "horizon": 10.0, "step": 0.01,
        "points": [[x] for x in np.linspace(-1.5, 1.5, 31)],
    })
    assert main(["hj-check", cfg, "-o", str(tmp_path)]) == 0
    assert "0 violation(s)" in capsys.readouterr().out
    header, _ = _read_csv(tmp_path / "hj_residuals.csv")
    assert header == ["x1", "residual_fwd", "residual_bwd", "complementarity"]


def test_pde_char_lattice(tmp_path):
    cfg = _write(tmp_path, "pde.json", {
        "pde": {
            "phi": {"kind": "transport", "velocity": [1.0]},
            "g": {"kind": "zero"},
            "K": {"kind": "box", "lo": [0.0], "hi": [None]},
            "u0": {"kind": "sin", "weights": [1.0]},
            "v": {"kind": "const", "value": 0.25},
            "out_dim": 1,
        },
        "step": 0.01,
        "eval": {"ts": [0.5, 2.0], "xs": [[2.0], [0.5]]},
    })
    assert main(["pde-char", cfg, "-o", str(tmp_path)]) == 0
    _, rows = _read_csv(tmp_path / "pde_solution.csv")
    assert rows[0][-1] == pytest.approx(math.sin(1.5), abs=1e-6)
    assert rows[1][-1] == pytest.approx(0.25, abs=1e-9)


@pytest.mark.parametrize("ev, message", [
    ({"ts": [0.5, 0.5], "xs": [[1.0], [-1.0]]}, "eval row 1 [-1.0] is outside pde.K"),
    ({"ts": [0.5, -0.5], "xs": [[1.0], [1.0]]}, "eval time 1 (-0.5) must be >= 0"),
])
def test_pde_char_eval_outside_domain_exit_2(tmp_path, capsys, ev, message):
    cfg = _write(tmp_path, "pde_out.json", {
        "pde": {
            "phi": {"kind": "transport", "velocity": [1.0]},
            "K": {"kind": "box", "lo": [0.0], "hi": [None]},
            "u0": {"kind": "sin", "weights": [1.0]},
        },
        "step": 0.01,
        "eval": ev,
    })
    assert main(["pde-char", cfg, "-o", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "pde_solution.csv").exists()


PDE_CFG = {
    "pde": {
        "phi": {"kind": "transport", "velocity": [1.0]},
        "g": {"kind": "decay", "rate": 1.0},
        "K": {"kind": "box", "lo": [0.0], "hi": [None]},
        "u0": {"kind": "sin", "weights": [1.0]},
        "v": {"kind": "const", "value": 0.25},
    },
    "step": 0.01,
    "eval": {"ts": [0.5, 2.0], "xs": [[2.0], [0.5]]},
}

DEMO_CFG = {
    "demo4d": {
        "rho": 1.0, "sigma": 0.5, "beta": 0.3, "b": 2.0, "r2": math.e, "A": 0.4,
        "u0": {"kind": "affine", "weights": [0.3, 0.5, 0.1, 0.2], "offset": 1.0},
        "v1": {"kind": "affine", "weights": [1.0, 0.1, 0.05, 0.0]},
        "v_r2": {"kind": "affine", "weights": [0.3, 0.2, 0.1, -0.05]},
    },
    "step": 0.01,
    "eval": {"ts": [0.4, 1.5], "xs": [[2.0, 1.0, 1.0, 1.0], [0.4, 1.0, 0.5, 1.5]]},
}


@pytest.mark.parametrize("op, base", [("pde-char", PDE_CFG), ("demo4d", DEMO_CFG)],
                         ids=["pde-char", "demo4d"])
@pytest.mark.parametrize("bad, message", [
    ({"t": -0.5}, "eval time 1 (-0.5) must be >= 0"),
    ({"t": float("inf")}, "eval time 1 (inf) must be finite"),
    ({"t": float("nan")}, "eval time 1 (nan) must be finite"),
    ({"x1": -1.0}, "eval row 1"),
], ids=["negative-time", "inf-time", "nan-time", "outside"])
def test_eval_lattice_checked_exit_2(tmp_path, capsys, op, base, bad, message):
    ev = {"ts": list(base["eval"]["ts"]), "xs": [list(x) for x in base["eval"]["xs"]]}
    if "t" in bad:
        ev["ts"][1] = bad["t"]
    else:
        ev["xs"][1][0] = bad["x1"]
    cfg = _write(tmp_path, "ev.json", dict(base, eval=ev))
    assert main([op, cfg, "-o", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv"))


def test_pde_char_blowup_exit_3(tmp_path, capsys):
    # a negative decay rate grows y like e^{100 t}: the t = 1 row passes the
    # blow-up guard while the t = 0.1 row finishes
    pde = dict(PDE_CFG["pde"], g={"kind": "decay", "rate": -100.0})
    cfg = _write(tmp_path, "blow.json", dict(PDE_CFG, pde=pde,
                                              eval={"ts": [0.1, 1.0], "xs": [[5.0], [5.0]]}))
    assert main(["pde-char", cfg, "-o", str(tmp_path)]) == 3
    assert "pde-char" in capsys.readouterr().err
    assert not (tmp_path / "pde_solution.csv").exists()


@pytest.mark.parametrize("op, base, edit, key", [
    ("viab", VIAB_CFG, {"field": {"kind": "transport", "velocity": "abc"}},
     "'velocity' in section 'field'"),
    ("viab", VIAB_CFG, {"set": {"kind": "ball", "center": "abc", "radius": 1.0}},
     "'center' in section 'set'"),
    ("viab", VIAB_CFG, {"set": {"kind": "box", "lo": ["abc"], "hi": [None]}},
     "'lo' in section 'set'"),
    ("pde-char", PDE_CFG, {"eval": {"ts": ["x", 1.0], "xs": [[1.0], [1.0]]}},
     "'ts' in section 'eval'"),
], ids=["velocity", "center", "box-lo", "eval-ts"])
def test_non_numeric_array_parameter_exit_2(tmp_path, capsys, op, base, edit, key):
    cfg = _write(tmp_path, "arr.json", dict(base, **edit))
    assert main([op, cfg, "-o", str(tmp_path)]) == 2
    assert key in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv"))


ET_CFG = {
    "field": {"kind": "transport", "velocity": [1.0]},
    "set": {"kind": "box", "lo": [0.0], "hi": [1.0]},
    "x0": [[0.3]], "horizon": 5.0, "step": 1e-3,
}


@pytest.mark.parametrize("op, base, edit, key", [
    ("viab", VIAB_CFG, {"step": 0}, "'step' in section 'config' must be finite and > 0"),
    ("pde-char", PDE_CFG, {"step": 0}, "'step' in section 'config' must be finite and > 0"),
    ("exit-time", ET_CFG, {"step": float("inf")}, "'step' in section 'config'"),
    ("exit-time", ET_CFG, {"horizon": -1.0},
     "'horizon' in section 'config' must be finite and >= 0"),
    ("exit-time", ET_CFG, {"horizon": float("inf")}, "'horizon' in section 'config'"),
    ("viab", VIAB_CFG, {"horizon": float("nan")}, "'horizon' in section 'config'"),
], ids=["viab-step-0", "pde-char-step-0", "exit-time-step-inf", "exit-time-horizon-negative",
        "exit-time-horizon-inf", "viab-horizon-nan"])
def test_bad_step_or_horizon_exit_2(tmp_path, capsys, op, base, edit, key):
    cfg = _write(tmp_path, "sh.json", dict(base, **edit))
    assert main([op, cfg, "-o", str(tmp_path)]) == 2
    assert key in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv"))


def test_pde_graph_shock(tmp_path):
    cfg = _write(tmp_path, "graph.json", {
        "pde": {
            "f": {"kind": "output"},
            "g": {"kind": "zero"},
            "K": {"kind": "box", "lo": [None], "hi": [None]},
            "u0": {"kind": "affine", "weights": [-1.0]},
            "out_dim": 1,
        },
        "step": 0.01,
        "graph": {"T": 1.2, "seeds_per_face": 21, "seed_lo": [-1.0], "seed_hi": [1.0]},
    })
    assert main(["pde-graph", cfg, "-o", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "graph_cloud.csv")
    assert header == ["t", "x1", "y1"]
    near = rows[(np.abs(rows[:, 0] - 1.0) < 1e-9) & (np.abs(rows[:, 1]) < 1e-9)]
    assert len(np.unique(np.round(near[:, 2], 6))) >= 3


def test_demo4d_with_diff(tmp_path):
    cfg = _write(tmp_path, "demo.json", {
        "demo4d": {
            "rho": 1.0, "sigma": 0.5, "beta": 0.3, "b": 2.0, "r2": math.e,
            "A": 0.4,
            "u0": {"kind": "affine", "weights": [0.3, 0.5, 0.1, 0.2], "offset": 1.0},
            "v1": {"kind": "affine", "weights": [1.0, 0.1, 0.05, 0.0]},
            "v_r2": {"kind": "affine", "weights": [0.3, 0.2, 0.1, -0.05]},
        },
        "step": 0.01,
        "eval": {"ts": [0.4, 1.5, 2.5], "xs": [[2.0, 1.0, 1.0, 1.0],
                                               [0.4, 1.0, 0.5, 1.5],
                                               [1.5, 2.5, 1.0, 0.8]]},
    })
    assert main(["demo4d", cfg, "-o", str(tmp_path)]) == 0
    _, diff = _read_csv(tmp_path / "demo4d_diff.csv")
    assert np.nanmax(diff[:, -1]) <= 1e-4


def test_reach_and_hitting(tmp_path):
    cfg = _write(tmp_path, "reach.json", {
        "field": {"kind": "linear", "a": -1.0}, "t": math.log(2.0),
        "seeds": [[1.0], [2.0]], "step": 1e-3,
    })
    assert main(["reach", cfg, "-o", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "reach.csv")
    assert header == ["x1", "ok"]
    assert rows[:, 0] == pytest.approx([0.5, 1.0], abs=1e-6)
    assert np.all(rows[:, 1] == 1.0)

    cfg2 = _write(tmp_path, "ht.json", {
        "field": {"kind": "linear", "a": -1.0},
        "set": {"kind": "ball", "center": [0.0], "radius": 0.1},
        "x0": [[1.0]], "horizon": 5.0, "step": 1e-3,
    })
    assert main(["hitting-time", cfg2, "-o", str(tmp_path)]) == 0
    _, rows = _read_csv(tmp_path / "hitting_time.csv")
    assert rows[0][-1] == pytest.approx(math.log(10.0), abs=1e-6)


def test_capt_and_viable_capt(tmp_path):
    cfg = _write(tmp_path, "capt.json", {
        "field": {"kind": "transport", "velocity": [1.0]},
        "set": {"kind": "ball", "center": [1.0], "radius": 0.01},
        "grid": {"lo": [0.0], "hi": [1.0], "counts": [50]},
        "horizon": 3.0, "step": 1e-3,
    })
    assert main(["capt", cfg, "-o", str(tmp_path)]) == 0
    _, rows = _read_csv(tmp_path / "capt.csv")
    assert rows[0][-1] == pytest.approx(0.99, abs=1e-6)  # node x = 0

    cfg2 = _write(tmp_path, "vc.json", {
        "field": {"kind": "transport", "velocity": [1.0]},
        "sets": {"K": {"kind": "box", "lo": [0.0], "hi": [2.0]},
                 "C": {"kind": "box", "lo": [1.0], "hi": [2.0]}},
        "grid": {"lo": [0.0], "hi": [2.0], "counts": [40]},
        "horizon": 5.0, "step": 1e-3,
    })
    assert main(["viable-capt", cfg2, "-o", str(tmp_path)]) == 0
    _, rows = _read_csv(tmp_path / "viable_capt.csv")
    assert rows[0][-1] == pytest.approx(-1.0, abs=1e-6)  # margin at x = 0


def test_kernel_subcommand(tmp_path):
    cfg = _write(tmp_path, "kernel.json", {
        "field": {"kind": "linear", "a": 1.0},
        "set": {"kind": "box", "lo": [-1.0], "hi": [1.0]},
        "grid": {"lo": [-1.0], "hi": [1.0], "counts": [100]},
        "step": 1.0, "flow_step": 0.01,
    })
    assert main(["kernel", cfg, "-o", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "kernel.csv")
    assert header == ["x1", "member"]
    alive = rows[rows[:, 1] == 1.0][:, 0]
    assert len(alive) >= 1 and np.max(np.abs(alive)) <= 2 * 0.02 + 1e-12


def test_value_inf_lyapunov_minlength(tmp_path):
    cfg = _write(tmp_path, "vi.json", {
        "field": {"kind": "linear", "a": -1.0},
        "lagrangian": {"kind": "unit"}, "obstacle": {"kind": "abs"},
        "points": [[math.e]], "horizon": 15.0, "step": 1e-3,
    })
    assert main(["value-inf", cfg, "-o", str(tmp_path)]) == 0
    _, rows = _read_csv(tmp_path / "value_inf.csv")
    assert rows[0][-1] == pytest.approx(2.0, abs=1e-6)

    cfg2 = _write(tmp_path, "ly.json", {
        "field": {"kind": "linear", "a": -1.0},
        "lagrangian": {"kind": "zero"}, "obstacle": {"kind": "abs"},
        "discount": 0.5, "points": [[0.7]], "horizon": 10.0, "step": 1e-3,
    })
    assert main(["lyapunov", cfg2, "-o", str(tmp_path)]) == 0
    _, rows = _read_csv(tmp_path / "lyapunov.csv")
    assert rows[0][-1] == pytest.approx(0.7, abs=1e-9)

    cfg3 = _write(tmp_path, "ml.json", {
        "field": {"kind": "linear", "a": -1.0},
        "set": {"kind": "ball", "center": [0.0], "radius": 0.1},
        "points": [[1.0]], "horizon": 15.0, "step": 1e-3,
    })
    assert main(["minlength", cfg3, "-o", str(tmp_path)]) == 0
    _, rows = _read_csv(tmp_path / "minlength.csv")
    assert rows[0][-1] == pytest.approx(0.9, abs=1e-4)


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for name in ("viab", "capt", "demo4d", "pde-char", "hj-check"):
        assert name in out
