import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import trace_reference
import viakit
import viakit as vk
from viakit import cli, csvio
from viakit.cli import SUBCOMMANDS, main


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


def test_workers_byte_identical(tmp_path, monkeypatch):
    monkeypatch.setattr("viakit.kernels.CHUNK_ROWS", 16)   # 401 rows split too
    chunks, spans = [], viakit.kernels._chunks
    monkeypatch.setattr("viakit.kernels._chunks",
                        lambda n, workers: chunks.append(spans(n, workers)) or chunks[-1])
    cfg = _write(tmp_path, "viab.json", VIAB_CFG)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert main(["viab", cfg, "-o", str(tmp_path / "a"), "--workers", "1"]) == 0
    assert main(["viab", cfg, "-o", str(tmp_path / "b"), "--workers", "8"]) == 0
    assert [len(c) for c in chunks] == [1, 8]
    assert (tmp_path / "a" / "viab.csv").read_bytes() == \
        (tmp_path / "b" / "viab.csv").read_bytes()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exit_2(tmp_path, capsys, workers):
    cfg = _write(tmp_path, "viab.json", VIAB_CFG)
    with pytest.raises(SystemExit) as exc:
        main(["viab", cfg, "-o", str(tmp_path), "--workers", workers])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "viab.csv").exists()


def test_missing_section_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.json", {"set": VIAB_CFG["set"]})
    assert main(["viab", cfg, "-o", str(tmp_path)]) == 2
    assert "field" in capsys.readouterr().err


def test_invalid_json_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"field": }')
    assert main(["viab", str(path), "-o", str(tmp_path)]) == 2
    assert "line" in capsys.readouterr().err


EXIT_TIME_CFG = {
    "field": {"kind": "transport", "velocity": [1.0]},
    "set": {"kind": "box", "lo": [0.0], "hi": [1.0]},
    "x0": [[0.3]], "horizon": 5.0, "step": 1e-3,
}


def _not_utf8(path):
    path.write_bytes(b"\xff\xfe" + json.dumps(EXIT_TIME_CFG).encode())


def _deep_json(path):
    path.write_text("[" * 100_000 + "]" * 100_000)


def _deep_union(path):
    s = EXIT_TIME_CFG["set"]
    for _ in range(400):
        s = {"kind": "union", "members": [s]}
    path.write_text(json.dumps({**EXIT_TIME_CFG, "set": s}))


def _missing(path):
    pass


def _directory(path):
    path.mkdir()


@pytest.mark.parametrize("make, message", [
    (_not_utf8, "is not UTF-8"),
    (_deep_json, "nested too deeply"),
    (_deep_union, "nested too deeply"),
    (_missing, "No such file or directory"),
    (_directory, "Is a directory"),
])
def test_unreadable_config_exit_2(tmp_path, capsys, make, message):
    """A config that cannot be opened, decoded or walked exits 2 with one
    line naming the file, and writes no CSV."""
    path = tmp_path / "cfg.json"
    make(path)
    out = tmp_path / "out"
    assert main(["exit-time", str(path), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err and str(path) in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_output_path_naming_a_file_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, "et.json", EXIT_TIME_CFG)
    out = tmp_path / "taken"
    out.write_text("not a directory")
    assert main(["exit-time", cfg, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot make output directory ")
    assert str(out) in err and err.count("\n") == 1
    assert out.read_text() == "not a directory"
    assert not list(tmp_path.glob("**/*.csv"))


def test_failed_csv_write_is_not_a_config_error(tmp_path, monkeypatch):
    """Only reading the config and making the output directory map OSError
    to exit 2; an error while a subcommand writes its CSV propagates."""
    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(csvio, "_write_rows", refuse)
    cfg = _write(tmp_path, "et.json", EXIT_TIME_CFG)
    with pytest.raises(PermissionError):
        main(["exit-time", cfg, "-o", str(tmp_path)])


def test_numeric_failure_exit_3(tmp_path, capsys):
    cfg = _write(tmp_path, "blow.json", {
        "field": {"kind": "polynomial", "coeffs": [0.0, 0.0, 1.0]},
        "x0": [5.0], "horizon": 10.0, "step": 0.01,
    })
    assert main(["integrate", cfg, "-o", str(tmp_path)]) == 3
    assert "integrate" in capsys.readouterr().err


def test_flow_checks_its_start_at_t0(tmp_path, capsys):
    cfg = _write(tmp_path, "nan.json", {"field": {"kind": "linear", "a": 1.0},
                                        "x0": [math.nan], "t": 0.0, "step": 0.01})
    assert main(["flow", cfg, "-o", str(tmp_path)]) == 3
    assert "flow" in capsys.readouterr().err
    assert not (tmp_path / "flow.csv").exists()


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
    # node arrays too large to index, one of them past int64 in its node count
    {"lo": [-1.0], "hi": [1.0], "counts": [2 ** 62]},
    {"lo": [-1.0, -1.0], "hi": [1.0, 1.0], "counts": [2 ** 32, 2 ** 32]},
])
def test_bad_grid_exit_2(tmp_path, capsys, grid):
    cfg = _write(tmp_path, "badgrid.json", dict(VIAB_CFG, grid=grid))
    assert main(["viab", cfg, "-o", str(tmp_path)]) == 2
    assert "grid" in capsys.readouterr().err


def test_grid_too_large_to_hold_exit_3(tmp_path, capsys):
    """8e17 bytes of nodes: indexable, but more than any address space holds, so
    the allocation fails at once and nothing is written."""
    cfg = _write(tmp_path, "huge.json",
                 dict(VIAB_CFG, grid=dict(VIAB_CFG["grid"], counts=[10 ** 17])))
    assert main(["viab", cfg, "-o", str(tmp_path)]) == 3
    assert "numeric failure in 'viab'" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv"))


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


def test_hj_check_non_finite_point_exit_2(tmp_path, capsys):
    """A NaN sample is refused before anything runs, not reported as no violation."""
    cfg = _write(tmp_path, "hj.json", {
        "field": {"kind": "linear", "a": -1.0}, "lagrangian": {"kind": "zero"},
        "obstacle": {"kind": "abs"}, "grid": {"lo": [-1.0], "hi": [1.0], "counts": [4]},
        "mode": "inf", "horizon": 0.3, "step": 0.1, "points": [[math.nan], [0.1]],
    })
    assert main(["hj-check", cfg, "-o", str(tmp_path)]) == 2
    assert "'points' in section 'config' must be a 2-D list of finite numbers" in \
        capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv"))


def test_reach_keeps_reporting_a_nan_seed_as_not_ok(tmp_path):
    """Other row lists still take non-finite rows: reach reports them as ok = 0."""
    cfg = _write(tmp_path, "reach.json", {"field": {"kind": "linear", "a": 1.0},
                                          "seeds": [[math.nan], [0.2]], "t": 0.2, "step": 0.05})
    assert main(["reach", cfg, "-o", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "reach.csv")
    assert [row[header.index("ok")] for row in rows] == [0.0, 1.0]


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


VALUE_CFG = {
    "field": {"kind": "linear", "a": -1.0},
    "lagrangian": {"kind": "zero"}, "obstacle": {"kind": "abs"},
    "points": [[0.7]], "horizon": 1.0, "step": 0.01,
}
HJ_CFG = dict(VALUE_CFG, grid={"lo": [-1.0], "hi": [1.0], "counts": [8]}, mode="inf")
BOX_2D = {"kind": "box", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]}
FLOW_CFG = {"field": {"kind": "linear", "a": 1.0}, "x0": [1.0], "t": 1.0, "step": 0.01}
GRAPH_CFG = {
    "pde": dict(PDE_CFG["pde"], v={"kind": "const", "value": 0.25}),
    "step": 0.05,
    "graph": {"T": 0.5, "seeds_per_face": 5, "seed_lo": [0.0], "seed_hi": [1.0],
              "boundary_points": [[0.0]]},
}
# x' = y on a 2-D K: the data functions give one output, so the state cannot be 2-D
OUTPUT_PDE_2D = {"f": {"kind": "output"}, "g": {"kind": "zero"},
                 "K": {"kind": "box", "lo": [None, None], "hi": [None, None]},
                 "u0": {"kind": "affine", "weights": [-1.0, 0.0]}}
GRAPH_2D = {"T": 0.5, "seeds_per_face": 3, "seed_lo": [-1.0, -1.0], "seed_hi": [1.0, 1.0]}


@pytest.mark.parametrize("op, base, edit, key", [
    ("viab", VIAB_CFG, {"set": {"kind": "box", "lo": [1.0], "hi": [-1.0]}},
     "box needs lo <= hi componentwise in section 'set'"),
    ("viab", VIAB_CFG, {"set": {"kind": "ball", "center": [0.0], "radius": -1}},
     "radius must be nonnegative in section 'set'"),
    ("viab", VIAB_CFG, {"field": {"kind": "rotation"}},
     "section 'set' has dimension 1, but the field has dimension 2"),
    ("viab", VIAB_CFG, {"field": {"kind": "rotation"}, "set": BOX_2D},
     "section 'grid' has dimension 1, but the field has dimension 2"),
    ("viab", VIAB_CFG, {"field": {"kind": "linear", "a": 1.0, "dim": "x"}},
     "'dim' in section 'field' must be an integer >= 1"),
    ("viab", VIAB_CFG, {"field": {"kind": "linear", "a": 1.0, "dim": 2}},
     "section 'set' has dimension 1, but the field has dimension 2"),
    ("viab", VIAB_CFG, {"field": {"kind": "linear", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
                        "set": BOX_2D},
     "section 'grid' has dimension 1, but the field has dimension 2"),
    ("viab", VIAB_CFG, {"field": {"kind": "linear", "matrix": [[1.0, 0.0]]}},
     "'matrix' in section 'field' must be a square matrix"),
    ("exit-time", ET_CFG, {"x0": [[0.3, 0.0]]},
     "section 'set' has dimension 1, but the field has dimension 2"),
    ("exit-time", ET_CFG, {"field": {"kind": "transport", "velocity": [1.0, 0.0]}},
     "section 'set' has dimension 1, but the field has dimension 2"),
    ("value-sup", VALUE_CFG, {"points": []},
     "section 'points' has dimension 0, but the field has dimension 1"),
    ("value-inf", VALUE_CFG, {"obstacle": {"kind": "indicator", "set": BOX_2D}},
     "section 'obstacle.set' has dimension 2"),
    ("mintime", VALUE_CFG, {"field": {"kind": "rotation"},
                            "set": {"kind": "ball", "center": [0.0], "radius": 0.1}},
     "section 'set' has dimension 1, but the field has dimension 2"),
    ("lyapunov", VALUE_CFG, {"lagrangian": {"kind": "unit"}},
     "lyapunov needs a lagrangian that is 0 at every point"),
    ("hj-check", HJ_CFG, {"mode": "lyapunov"}, "'mode' in section 'config' must be"),
    ("pde-char", PDE_CFG, {"eval": {"t_range": "abc", "x_range": []}},
     "eval.t_range and each eval.x_range entry must be [lo, hi, count]"),
    ("pde-char", PDE_CFG, {"eval": {"t_range": [0.0, 1.0, -3], "x_range": [[0.0, 1.0, 2]]}},
     "eval.t_range and each eval.x_range entry must be [lo, hi, count]"),
    ("viab", VIAB_CFG, {"set": {"kind": "union", "members": [
        {"kind": "box", "lo": [-1.0], "hi": [1.0]},
        {"kind": "ball", "center": [0.0, 0.0], "radius": 0.5}]}},
     "union needs one or more members of one dimension in section 'set'"),
    ("viab", VIAB_CFG, {"set": {"kind": "ball", "center": [0.0], "radius": math.nan}},
     "radius must be nonnegative in section 'set'"),
    ("pde-char", PDE_CFG, {"pde": dict(PDE_CFG["pde"], phi={"kind": "rotation"})},
     "section 'pde.K' has dimension 1, but the field has dimension 2"),
    ("pde-char", PDE_CFG, {"pde": dict(PDE_CFG["pde"], u0={"kind": "affine",
                                                           "weights": [1.0, 2.0, 3.0]})},
     "'weights' in section 'pde.u0' must be a vector of length 1, got shape (3,)"),
    ("pde-char", PDE_CFG, {"pde": dict(PDE_CFG["pde"], v={"kind": "sin", "weights": [1.0]})},
     "'weights' in section 'pde.v' must be a vector of length 2, got shape (1,)"),
    ("demo4d", DEMO_CFG, {"demo4d": dict(DEMO_CFG["demo4d"],
                                         v1={"kind": "affine", "weights": [1.0, 0.1]})},
     "'weights' in section 'demo4d.v1' must be a vector of length 4, got shape (2,)"),
    ("flow", FLOW_CFG, {"field": ["kind"]}, "section 'field' must be a JSON object"),
    ("flow", FLOW_CFG, {"field": "kind"}, "section 'field' must be a JSON object"),
    ("viab", VIAB_CFG, {"grid": ["lo", "hi", "counts"]}, "section 'grid' must be a JSON object"),
    ("pde-char", PDE_CFG, {"eval": 5}, "section 'eval' must be a JSON object"),
    ("viab", VIAB_CFG, {"set": {"kind": "union", "members": 5}},
     "'members' in section 'set' must be a list, got 5"),
    ("viab", VIAB_CFG, {"set": {"kind": "product", "factors": 5}},
     "'factors' in section 'set' must be a list, got 5"),
    ("viab", VIAB_CFG, {"set": {"kind": "box", "lo": [10 ** 400], "hi": [1.0]}},
     "'lo' in section 'set' must be numeric"),
    ("pde-char", PDE_CFG, {"pde": dict(PDE_CFG["pde"], impulses=5)},
     "'impulses' in section 'pde' must be a 1-D numeric list, got 5"),
    ("pde-char", PDE_CFG, {"pde": dict(PDE_CFG["pde"], impulses=["a"])},
     "'impulses' in section 'pde' must be a 1-D numeric list, got ['a']"),
    ("pde-graph", GRAPH_CFG, {"graph": dict(GRAPH_CFG["graph"], boundary_points=5)},
     "'boundary_points' in section 'graph' must be a 2-D numeric list, got 5"),
    ("pde-graph", GRAPH_CFG, {"graph": dict(GRAPH_CFG["graph"], boundary_points=[["a"]])},
     "'boundary_points' in section 'graph' must be a 2-D numeric list"),
    ("pde-graph", GRAPH_CFG, {"graph": dict(GRAPH_CFG["graph"], boundary_points=[[1.0, 2.0]])},
     "section 'graph.boundary_points' has dimension 2, but the field has dimension 1"),
    ("pde-char", PDE_CFG, {"eval": {"ts": [0.5], "xs": [[0.2, 0.3]]}},
     "section 'eval' has dimension 2, but the field has dimension 1"),
    ("demo4d", DEMO_CFG, {"eval": {"ts": [0.4], "xs": [[2.0, 1.0, 1.0]]}},
     "section 'eval' has dimension 3, but the field has dimension 4"),
    ("demo4d", DEMO_CFG, {"eval": {"ts": [0.4], "xs": [[2.0, 1.0, 1.0, 1.0, 1.0]]}},
     "section 'eval' has dimension 5, but the field has dimension 4"),
    ("pde-graph", GRAPH_CFG, {"pde": dict(OUTPUT_PDE_2D, out_dim=2), "graph": GRAPH_2D},
     "'out_dim' in section 'pde' must be 1"),
    ("pde-graph", GRAPH_CFG, {"pde": OUTPUT_PDE_2D, "graph": GRAPH_2D},
     "section 'pde.K' has dimension 2, but the field has dimension 1"),
    # "points": [] reads as one row of no numbers: a point cloud of dimension 0
    ("viab", VIAB_CFG, {"set": {"kind": "point-cloud", "points": []}},
     "section 'set' has dimension 0, but the field has dimension 1"),
    ("viab", VIAB_CFG, {"field": {"kind": "rotation"}, "set": {"kind": "point-cloud",
                                                               "points": []}},
     "section 'set' has dimension 0, but the field has dimension 2"),
    ("pde-char", PDE_CFG, {"pde": dict(PDE_CFG["pde"], K={"kind": "point-cloud", "points": []})},
     "section 'pde.K' has dimension 0: the domain needs at least one coordinate"),
    ("pde-graph", GRAPH_CFG, {"pde": dict(GRAPH_CFG["pde"], K={"kind": "point-cloud",
                                                               "points": []})},
     "section 'pde.K' has dimension 0: the domain needs at least one coordinate"),
    # solve_char_many follows x' = phi(t, x); pde-graph still takes f
    ("pde-char", PDE_CFG, {"pde": {**{k: v for k, v in PDE_CFG["pde"].items() if k != "phi"},
                                   "f": {"kind": "output"}}},
     "pde-char needs a y-independent speed: section 'pde.phi'"),
    # a datum v needs the domain's boundary distance, which a point cloud has no rule for
    ("pde-char", PDE_CFG, {"pde": {"K": {"kind": "point-cloud", "points": [[0.0], [0.5], [1.0]]},
                                   "phi": {"kind": "transport", "velocity": [1.0]},
                                   "u0": {"kind": "affine", "weights": [1.0]},
                                   "v": {"kind": "affine", "weights": [1.0, 0.0]}},
                           "eval": {"ts": [0.5], "xs": [[0.5]]}},
     "boundary_distance not available for kind 'point-cloud'"),
], ids=["box-lo-above-hi", "ball-negative-radius", "rotation-on-1d-set",
        "rotation-on-1d-grid", "dim-not-int", "explicit-dim-on-1d-set", "matrix-on-1d-grid",
        "matrix-not-square", "exit-time-x0-dim", "transport-on-1d-set", "empty-points", "obstacle-set-dim", "mintime-set-dim",
        "lyapunov-nonzero-lagrangian", "hj-check-mode", "eval-t-range-text",
        "eval-negative-count", "union-mixed-dims", "ball-nan-radius", "pde-rotation-on-1d-k",
        "pde-u0-weights-length", "pde-v-weights-length", "demo4d-v1-weights-length",
        "field-list", "field-string", "grid-list", "eval-number", "union-members-number",
        "product-factors-number", "box-lo-overflow", "impulses-number", "impulses-text",
        "boundary-points-number", "boundary-points-text", "boundary-points-dim",
        "pde-char-eval-dim", "demo4d-eval-3-columns", "demo4d-eval-5-columns",
        "pde-out-dim-2", "pde-output-field-on-2d-k", "point-cloud-no-points-1d",
        "point-cloud-no-points-2d", "pde-char-point-cloud-no-points",
        "pde-graph-point-cloud-no-points", "pde-char-output-speed",
        "pde-char-point-cloud-boundary-datum"])
def test_config_constructor_and_dimension_errors_exit_2(tmp_path, capsys, op, base, edit, key):
    cfg = _write(tmp_path, "dims.json", dict(base, **edit))
    assert main([op, cfg, "-o", str(tmp_path)]) == 2
    assert key in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv"))


BOX_2D_GRID = {"lo": [-1.0, -1.0], "hi": [1.0, 1.0], "counts": [12, 12]}
TARGET_2D = {"kind": "ball", "center": [1.0, 1.0], "radius": 0.1}


@pytest.mark.parametrize("op, cfg, field, same", [
    ("viab", dict(VIAB_CFG, set=BOX_2D, grid=BOX_2D_GRID, horizon=2.0),
     {"kind": "linear", "a": 1.0}, {"kind": "linear", "matrix": [[1.0, 0.0], [0.0, 1.0]]}),
    ("value-sup", dict(VALUE_CFG, points=[[0.7, -0.2], [0.1, 0.4]]),
     {"kind": "polynomial", "coeffs": [0.0, -1.0]},
     {"kind": "linear", "matrix": [[-1.0, 0.0], [0.0, -1.0]]}),
    ("mintime", {"set": TARGET_2D, "points": [[0.0, 0.0], [0.5, 0.3]], "horizon": 3.0,
                 "step": 0.01},
     {"kind": "transport", "velocity": [1.0]}, {"kind": "transport", "velocity": [1.0, 1.0]}),
    ("hj-check", dict(HJ_CFG, grid=BOX_2D_GRID, points=[[0.2, 0.3]]),
     {"kind": "linear", "a": -1.0}, {"kind": "linear", "matrix": [[-1.0, 0.0], [0.0, -1.0]]}),
], ids=["viab-scalar-linear", "value-sup-polynomial", "mintime-transport", "hj-check-linear"])
def test_componentwise_fields_take_the_data_dimension(tmp_path, op, cfg, field, same):
    """Scalar linear, polynomial and one-element transport fields run on 2-D data
    and agree with the fixed-layout field that acts the same way."""
    values = []
    for f in (field, same):
        out = tmp_path / f"out{len(values)}"
        assert main([op, _write(tmp_path, "cw.json", dict(cfg, field=f)), "-o", str(out)]) == 0
        name = "value_field.csv" if op == "hj-check" else op.replace("-", "_") + ".csv"
        header, rows = _read_csv(out / name)
        assert header[:2] == ["x1", "x2"]
        values.append(rows)
    assert np.allclose(values[0], values[1], rtol=1e-12, atol=0.0)


def test_logistic_field_runs_per_component(tmp_path):
    cfg = {"field": {"kind": "logistic", "beta": 1.0, "b": 1.0}, "x0": [0.5, 0.2],
           "horizon": 1.0, "step": 0.01}
    assert main(["flow", _write(tmp_path, "lg.json", dict(cfg, t=1.0)), "-o", str(tmp_path)]) == 0
    _, rows = _read_csv(tmp_path / "flow.csv")
    expect = [1.0 / (1.0 + (1.0 / y0 - 1.0) * math.exp(-1.0)) for y0 in cfg["x0"]]
    assert np.allclose(rows[0], expect, rtol=1e-8)


@pytest.mark.parametrize("op, cfg", [
    ("value-inf", dict(VALUE_CFG, lagrangian={"kind": "unit"}, discount=0.2, horizon=3.0)),
    ("lyapunov", dict(VALUE_CFG, discount=0.5)),
    ("mintime", {"field": {"kind": "rotation"}, "set": {"kind": "ball", "center": [1.0, 0.0],
                                                        "radius": 0.05},
                 "horizon": 7.0, "step": 0.01}),
    ("hj-check", HJ_CFG),
])
def test_value_subcommands_chunk_rows(tmp_path, monkeypatch, op, cfg):
    """The value engine's history, folded in chunks of 1 and 3 nodes of every
    point (for hj-check, of its 9 grid nodes), gives the CSV bytes of its
    default chunk."""
    dim = 2 if op == "mintime" else 1
    rng = np.random.default_rng(3)
    cfg = dict(cfg, points=rng.uniform(-1.5, 1.5, (9, dim)).tolist())
    path = _write(tmp_path, "chunk.json", cfg)
    names = ["hj_residuals.csv", "value_field.csv"] if op == "hj-check" else \
        [op.replace("-", "_") + ".csv"]
    outputs = []
    for budget in (None, 9 * dim, 3 * 9 * dim):
        if budget is not None:
            monkeypatch.setattr("viakit.epi_hj.BLOCK_FLOATS", budget)
        out = tmp_path / f"out{len(outputs)}"
        assert main([op, path, "-o", str(out)]) == 0
        outputs.append([(out / name).read_bytes() for name in names])
    assert outputs[0] == outputs[1] == outputs[2]
    for name in names:
        _, rows = _read_csv(tmp_path / "out0" / name)
        assert len(rows) == 9


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


def _row_function(spec, n):
    """The per-row form of the data function spec: one 1-D dot product per row."""
    if spec["kind"] == "const":
        return lambda *args: np.full((len(args[-1]), 1), spec["value"])
    w, c = np.array(spec["weights"], dtype=float), spec.get("offset", 0.0)
    outer = {"affine": lambda u: u, "sin": np.sin}[spec["kind"]]
    return lambda *args: np.array(
        [[outer(float(w @ np.concatenate([a[i] for a in args])) + c)]
         for i in range(len(args[-1]))]).reshape(-1, 1)


@pytest.mark.parametrize("kind", ["affine", "sin", "const"])
def test_data_functions_match_their_per_row_form(kind):
    """A data function gives each row the bits of its per-row form, also on
    column blocks that are views in either memory order."""
    rng = np.random.default_rng(3)
    for n in range(1, 6):
        spec = {"kind": kind, "weights": rng.standard_normal(n).tolist(),
                "offset": float(rng.standard_normal()), "value": 0.7}
        fn, ref = cli._function(cli._Section(spec, "f"), n), _row_function(spec, n)
        Z = rng.standard_normal((400, n + 2)) * np.exp(rng.uniform(-5, 5, (400, 1)))
        # a row block, and a time column with a fancy-indexed (column-major) block
        for args in ([Z[:, :n]], [Z[:, :1], Z[:, list(range(3, n + 2))]]):
            assert fn(*args).tobytes() == ref(*args).tobytes()


def test_characteristic_csvs_match_per_row_references(tmp_path):
    """pde-char (with v and impulses), pde-graph (with boundary points) and demo4d
    (with its diff) write the bytes of the tables built by the per-row references."""
    pde = {"phi": {"kind": "transport", "velocity": [1.0]},
           "g": {"kind": "decay", "rate": 0.7},
           "K": {"kind": "box", "lo": [0.0], "hi": [None]},
           "u0": {"kind": "sin", "weights": [1.3], "offset": 0.2},
           "v": {"kind": "affine", "weights": [0.8, 0.5], "offset": -0.3},
           "impulses": [0.3, 0.8]}
    char_cfg = {"pde": pde, "step": 0.05,
                "eval": {"t_range": [0.0, 1.5, 7], "x_range": [[0.0, 1.2, 6]]}}
    graph_pde = dict(pde, f={"kind": "output"}, impulses=None,
                     u0={"kind": "affine", "weights": [-0.9], "offset": 0.4})
    del graph_pde["phi"]
    graph_cfg = {"pde": graph_pde, "step": 0.05,
                 "graph": {"T": 0.6, "seeds_per_face": 9, "seed_lo": [0.0], "seed_hi": [1.0],
                           "boundary_points": [[0.0]]}}
    demo = dict(DEMO_CFG["demo4d"], u0={"kind": "sin", "weights": [0.3, 0.5, 0.1, 0.2]})
    demo_cfg = {"demo4d": demo, "step": 0.05,
                "eval": {"ts": [0.4, 1.5, 2.5, 0.0, 3.0, 0.3],
                         "xs": [[2.0, 1.0, 1.0, 1.0], [0.4, 1.0, 0.5, 1.5],
                                [1.5, 2.5, 1.0, 0.8], [1.0, 1.0, 1.0, 1.0],
                                [0.2, 2.55, 0.7, 1.2], [1.8, 2.55, 0.7, 1.2]]}}
    for op, cfg in (("pde-char", char_cfg), ("pde-graph", graph_cfg), ("demo4d", demo_cfg)):
        assert main([op, _write(tmp_path, f"{op}.json", cfg), "-o", str(tmp_path / op)]) == 0

    def problem(p, **speed):
        data = vk.BoundaryData(_row_function(p["u0"], 1), _row_function(p["v"], 2),
                               tuple(p["impulses"]) if p.get("impulses") else None)
        return vk.CharProblem(lambda t, x, y: -0.7 * y, vk.box([0.0], [np.inf]), data, 1, **speed)

    def same(path, **columns):
        csvio.write_table(str(tmp_path / "want.csv"), **columns)
        assert (tmp_path / path).read_bytes() == (tmp_path / "want.csv").read_bytes(), path

    def solve(prob, ts, xs, h):
        us = [trace_reference.solve_char(prob, float(t), x, h) for t, x in zip(ts, xs)]
        return np.array([[np.nan] if u is None else u for u in us])

    prob = problem(pde, phi=vk.transport_field([1.0]))
    grid = np.array([(t, x) for t in np.linspace(0.0, 1.5, 7) for x in np.linspace(0.0, 1.2, 6)])
    ts, xs = grid[:, 0], grid[:, 1:]
    us = solve(prob, ts, xs, 0.05)
    assert np.isnan(us).any() and not np.isnan(us).all()  # feet on and between the slices
    same("pde-char/pde_solution.csv", t=ts, x=xs, u=us)

    gprob = problem(graph_pde, f=lambda t, x, y: y)
    cloud = vk.graph_sample(gprob, 0.6, 0.05, 9, [0.0], [1.0], boundary_points=[[0.0]])
    same("pde-graph/graph_cloud.csv", t=cloud.times, x=cloud.states, y=cloud.outputs)

    o = vk.demo4d(*(demo[k] for k in ("rho", "sigma", "beta", "b", "r2", "A")),
                  *(_row_function(demo[k], 4) for k in ("u0", "v1", "v_r2")))
    ts, xs = np.array(demo_cfg["eval"]["ts"]), np.array(demo_cfg["eval"]["xs"])
    exact = np.array([trace_reference.demo4d_value(o, t, x) for t, x in zip(ts, xs)])
    same("demo4d/demo4d_solution.csv", t=ts, x=xs, u=exact)
    K4 = vk.product(vk.box([0.0], [np.inf]), vk.box([0.0], [o.r2]),
                    vk.box([0.0], [np.inf]), vk.box([0.0], [o.b]))
    face = lambda S, X: o.v1(S, X[:, 1:]) if X[0, 0] <= 1e-6 else o.v_r2(S, X[:, [0, 2, 3]])
    dprob = vk.CharProblem(lambda t, x, y: -o.A * y, K4, vk.BoundaryData(o.u0, face), 1,
                           phi=vk.demographic_field(o.rho, o.sigma, o.beta, o.b))
    diffs = [[float(np.linalg.norm(u - e))] for u, e in zip(solve(dprob, ts, xs, 0.05), exact)]
    same("demo4d/demo4d_diff.csv", t=ts, x=xs, u=np.array(diffs))


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


def test_first_times_equal_the_scalar_lifts(tmp_path):
    """exit-time and hitting-time make one batched sweep whose every row is bitwise
    the scalar exit_time/hitting_time: rows that exit or hit, never do, start
    on the boundary, or already sit in C."""
    field = viakit.linear_field(1.0)
    base = {"field": {"kind": "linear", "a": 1.0}, "horizon": 5.0, "step": 0.01}
    cases = [("exit-time", viakit.exit_time, {"kind": "box", "lo": [-1.0], "hi": [1.0]},
              [0.5, -0.3, 0.0, 1.0, -1.0]),
             ("hitting-time", viakit.hitting_time, {"kind": "box", "lo": [2.0], "hi": [3.0]},
              [0.5, -0.5, 0.0, 2.0, 2.5, 3.0])]
    for op, scalar, S, x0 in cases:
        cfg = _write(tmp_path, "first.json", dict(base, set=S, x0=[[x] for x in x0]))
        assert main([op, cfg, "-o", str(tmp_path)]) == 0
        _, rows = _read_csv(tmp_path / (op.replace("-", "_") + ".csv"))
        S = viakit.box(S["lo"], S["hi"])
        expect = np.array([scalar(field, S, [x], 5.0, 0.01) for x in x0])
        assert rows[:, -1].tobytes() == np.where(expect >= viakit.INF, np.inf, expect).tobytes()
        assert expect[0] == pytest.approx(math.log(2.0 if op == "exit-time" else 4.0), abs=1e-6)
        assert expect[2] >= viakit.INF  # the equilibrium never exits, never hits
        assert expect[3] <= 1e-6  # a start on the boundary leaves K or sits in C at once


@pytest.mark.parametrize("op, S", [("exit-time", {"kind": "box", "lo": [None], "hi": [None]}),
                                   ("hitting-time", {"kind": "box", "lo": [-2.0], "hi": [-1.0]})])
def test_first_time_blowup_exit_3(tmp_path, capsys, op, S):
    """A row that blows up before its event fails the whole batch: exit 3, no CSV."""
    cfg = _write(tmp_path, "blow.json", {
        "field": {"kind": "polynomial", "coeffs": [0.0, 0.0, 1.0]}, "set": S,
        "x0": [[-0.5], [0.5]], "horizon": 5.0, "step": 0.01})
    assert main([op, cfg, "-o", str(tmp_path)]) == 3
    assert "blew up before" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv"))


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


def _python(*args):
    """Run a fresh interpreter that imports this checkout's viakit; its stdout."""
    src = os.path.dirname(os.path.dirname(viakit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_import_leaves_csgraph_unloaded():
    """The functions that build KD-trees or graphs import scipy themselves, so
    importing the CLI loads none of it."""
    probe = ("import sys, viakit.cli; "
             "print('scipy.sparse.csgraph' in sys.modules, 'scipy' in sys.modules)")
    assert _python("-c", probe).split() == ["False", "False"]


def test_cli_import_leaves_the_thread_pool_unloaded():
    """kernels imports concurrent.futures only when a sweep splits across threads."""
    probe = ("import sys, viakit.cli; "
             "print('concurrent.futures' in sys.modules, 'logging' in sys.modules)")
    assert _python("-c", probe).split() == ["False", "False"]


@pytest.mark.parametrize("op, base, edit, key", [
    ("viab", VIAB_CFG, {"grid": dict(VIAB_CFG["grid"], lo={"a": 1})},
     "'lo' in section 'grid' must be a 1-D numeric list"),
    ("viab", VIAB_CFG, {"set": dict(VIAB_CFG["set"], kind=["box"])},
     "unknown set kind ['box'] in section 'set'"),
    ("viab", VIAB_CFG, {"field": {"kind": {"a": 1}}}, "unknown field kind {'a': 1}"),
    ("viab", VIAB_CFG, {"grid": dict(VIAB_CFG["grid"], counts=[1e300])},
     "'counts' in section 'grid' must be a 1-D list of integers"),
    ("pde-char", PDE_CFG, {"eval": {"ts": math.nan, "xs": [[1.0]]}},
     "'ts' in section 'eval' must be a 1-D numeric list, got nan"),
    ("exit-time", ET_CFG, {"field": {"kind": "transport", "velocity": [[1, 2]]}},
     "'velocity' in section 'field' must be a 1-D list of finite numbers"),
    ("viab", VIAB_CFG, {"field": {"kind": "linear", "matrix": [[math.nan]]}},
     "'matrix' in section 'field' must be a square matrix of finite numbers"),
    ("value-sup", VALUE_CFG, {"points": [[[0.7]]]}, "'points' in section 'config' must be a 2-D"),
    ("pde-char", PDE_CFG, {"pde": dict(PDE_CFG["pde"], out_dim=1e300)},
     "'out_dim' in section 'pde' must be an integer >= 1"),
    ("pde-graph", GRAPH_CFG, {"graph": dict(GRAPH_CFG["graph"], seed_lo=[])},
     "'seed_lo' in section 'graph' must be a vector of length 1, got shape (0,)"),
    ("pde-graph", GRAPH_CFG, {"graph": dict(GRAPH_CFG["graph"], seeds_per_face=2 ** 63)},
     "'seeds_per_face' in section 'graph' must be an integer >= 1"),
    ("demo4d", DEMO_CFG, {"step": "abc"}, "'step' in section 'config' must be finite and > 0"),
    ("hitting-time", ET_CFG, {"set": {"kind": "ball", "center": [math.nan], "radius": 0.1}},
     "'center' in section 'set' must be a 1-D list of finite numbers"),
    ("viab", VIAB_CFG, {"set": {"kind": "box", "lo": [math.nan], "hi": [1.0]}},
     "'lo' in section 'set' must be numeric (null for no bound), got [nan]"),
    ("capt", VIAB_CFG, {"field": {"kind": "polynomial", "coeffs": [math.nan]}},
     "'coeffs' in section 'field' must be a 1-D list of finite numbers"),
    ("value-sup", VALUE_CFG, {"points": [[None]]},
     "'points' in section 'config' must be a 2-D numeric list, got [[None]]"),
    ("integrate", {"field": {"kind": "linear", "a": 1.0}, "horizon": 1.0, "step": 0.01},
     {"x0": [None]}, "'x0' in section 'config' must be a 1-D numeric list, got [None]"),
    ("reach", {"field": {"kind": "linear", "a": 1.0}, "t": 0.2, "step": 0.05},
     {"seeds": [[None], [0.2]]}, "'seeds' in section 'config' must be a 2-D numeric list"),
    ("pde-graph", GRAPH_CFG, {"graph": dict(GRAPH_CFG["graph"], seed_lo=[math.nan])},
     "'seed_lo' in section 'graph' must be a 1-D list of finite numbers"),
    ("hitting-time", ET_CFG, {"x0": [[math.nan]]},
     "'x0' in section 'config' must be a 2-D list of finite numbers, got [[nan]]"),
    ("exit-time", ET_CFG, {"set": {"kind": "halfspace", "normal": [1.0], "offset": 0.0},
                           "x0": [[-math.inf]]},
     "'x0' in section 'config' must be a 2-D list of finite numbers, got [[-inf]]"),
    ("pde-char", PDE_CFG, {"pde": dict(PDE_CFG["pde"], K={"kind": "halfspace", "normal": [1.0],
                                                          "offset": 0.0}),
                           "eval": {"ts": [0.5], "xs": [[-math.inf]]}},
     "eval row 0 [-inf] is not finite"),
], ids=["grid-lo-dict", "set-kind-list", "field-kind-dict", "grid-counts-overflow",
        "eval-ts-nan-scalar", "velocity-2d", "matrix-nan", "points-3d", "out-dim-overflow",
        "seed-lo-short", "seeds-per-face-overflow", "demo4d-step-text", "ball-nan-center",
        "box-nan-bound", "polynomial-nan-coefficient", "points-null", "x0-null",
        "seeds-null", "seed-lo-nan", "hitting-time-nan-x0", "exit-time-inf-x0-halfspace",
        "pde-char-inf-eval-halfspace"])
def test_malformed_leaf_exit_2(tmp_path, capsys, op, base, edit, key):
    """Each leaf is read into its declared form before anything runs: no CSV, no traceback."""
    cfg = _write(tmp_path, "leaf.json", dict(base, **edit))
    assert main([op, cfg, "-o", str(tmp_path)]) == 2
    assert key in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("op, base, edit, key", [
    ("viab", VIAB_CFG, {"horizon": 1e300}, "'horizon' from 0.0: more than 2^63 steps of 0.01"),
    ("viab", VIAB_CFG, {"horizon": 1e20}, "'horizon' from 0.0: more than 2^63 steps of 0.01"),
    ("exit-time", ET_CFG, {"horizon": 1e300}, "'horizon' from 0.0"),
    ("integrate", {"field": {"kind": "linear", "a": 1.0}, "x0": [1.0], "horizon": 1.0,
                   "step": 0.01}, {"t0": -1e300}, "'horizon' from -1e+300"),
    ("flow", FLOW_CFG, {"t": 1e300}, "'t' from 0.0"),
    ("flow", FLOW_CFG, {"t": -1e300}, "'t' from 0.0"),
    ("kernel", {"field": {"kind": "linear", "a": 1.0}, "set": VIAB_CFG["set"],
                "grid": {"lo": [-1.0], "hi": [1.0], "counts": [4]}, "flow_step": 0.01},
     {"step": 1e300}, "'step' from 0.0: more than 2^63 steps of 0.01"),
    ("pde-char", PDE_CFG, {"eval": {"ts": [0.5, 1e300], "xs": [[2.0], [0.5]]}}, "'eval' from 0.0"),
    ("pde-graph", GRAPH_CFG, {"graph": dict(GRAPH_CFG["graph"], T=1e300)}, "'graph.T' from 0.0"),
], ids=["viab-1e300", "viab-1e20", "exit-time-1e300", "integrate-t0", "flow-1e300",
        "flow-minus-1e300", "kernel-step", "pde-char-eval-time", "pde-graph-T"])
def test_horizon_beyond_int64_steps_exit_2(tmp_path, capsys, op, base, edit, key):
    """A span needing 2^63 steps or more is a config error, never a value from zero steps."""
    cfg = _write(tmp_path, "huge.json", dict(base, **edit))
    assert main([op, cfg, "-o", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert key in err and "more than 2^63 steps" in err
    assert not any(tmp_path.glob("*.csv"))


def test_pde_graph_with_no_seed_in_k_writes_an_empty_cloud(tmp_path):
    cfg = _write(tmp_path, "empty.json", dict(GRAPH_CFG, graph=dict(
        GRAPH_CFG["graph"], seed_lo=[-2.0], seed_hi=[-1.0], boundary_points=None)))
    assert main(["pde-graph", cfg, "-o", str(tmp_path)]) == 0
    assert (tmp_path / "graph_cloud.csv").read_text() == "t,x1,y1\n"


@pytest.mark.parametrize("edit", [{"u0": {"kind": "const", "value": 1e300}},
                                  {"v": {"kind": "affine", "weights": [1e300, 0.0]}}],
                         ids=["initial", "boundary"])
def test_pde_graph_seed_past_the_blowup_norm_exit_3(tmp_path, capsys, edit):
    """A huge seed fails loudly, as a blown-up start does, not in the KD-tree."""
    cfg = _write(tmp_path, "seed.json", dict(GRAPH_CFG, pde=dict(GRAPH_CFG["pde"], **edit)))
    assert main(["pde-graph", cfg, "-o", str(tmp_path)]) == 3
    assert "graph_sample" in capsys.readouterr().err


# A tiny working config for every subcommand, between them using every field,
# set, lagrangian, obstacle, g and data-function kind.  The fuzz test sets one
# of their leaves (any object value or list entry) to a malformed value.
FUZZ_CONFIGS = [
    ("integrate", {"field": {"kind": "linear", "a": 1.0}, "x0": [1.0], "t0": 0.0,
                   "horizon": 0.2, "step": 0.05}),
    ("flow", {"field": {"kind": "rotation", "omega": 1.0}, "x0": [1.0, 0.0], "t": 0.2,
              "step": 0.05}),
    ("reach", {"field": {"kind": "logistic", "beta": 1.0, "b": 1.0}, "seeds": [[0.5], [0.2]],
               "t": 0.2, "step": 0.05}),
    ("exit-time", {"field": {"kind": "transport", "velocity": [1.0]},
                   "set": {"kind": "box", "lo": [0.0], "hi": [1.0]},
                   "x0": [[0.3]], "horizon": 1.0, "step": 0.1}),
    ("hitting-time", {"field": {"kind": "linear", "matrix": [[-1.0, 0.0], [0.0, -1.0]]},
                      "set": {"kind": "union", "members": [
                          {"kind": "ball", "center": [0.0, 0.0], "radius": 0.5},
                          {"kind": "halfspace", "normal": [1.0, 0.0], "offset": -2.0}]},
                      "x0": [[1.0, 0.5]], "horizon": 1.0, "step": 0.1}),
    ("viab", {"field": {"kind": "lifted", "field": {"kind": "linear", "a": -1.0},
                        "lagrangian": {"kind": "zero"}, "obstacle": {"kind": "abs"},
                        "discount": 0.0},
              "set": {"kind": "epigraph", "obstacle": {"kind": "abs"}, "state_dim": 1},
              "grid": {"lo": [-1.0, 0.0], "hi": [1.0, 1.5], "counts": [3, 3]},
              "horizon": 0.3, "step": 0.1}),
    ("capt", {"field": {"kind": "polynomial", "coeffs": [1.0, 0.0]},
              "set": {"kind": "intersection", "members": [
                  {"kind": "ball", "center": [1.0], "radius": 0.1},
                  {"kind": "box", "lo": [None], "hi": [None]}]},
              "grid": {"lo": [0.0], "hi": [1.0], "counts": [4]}, "horizon": 0.5, "step": 0.1}),
    ("viable-capt", {"field": {"kind": "transport", "velocity": [1.0, 0.0]},
                     "sets": {"K": {"kind": "product", "factors": [
                                  {"kind": "box", "lo": [0.0], "hi": [2.0]},
                                  {"kind": "box", "lo": [-1.0], "hi": [1.0]}]},
                              "C": {"kind": "complement", "of": {
                                  "kind": "halfspace", "normal": [1.0, 0.0], "offset": 1.0}}},
                     "grid": {"lo": [0.0, -1.0], "hi": [2.0, 1.0], "counts": [2, 2]},
                     "horizon": 0.5, "step": 0.1}),
    ("kernel", {"field": {"kind": "linear", "a": 1.0},
                "set": {"kind": "box", "lo": [-1.0], "hi": [1.0]},
                "grid": {"lo": [-1.0], "hi": [1.0], "counts": [4]}, "step": 0.5,
                "flow_step": 0.1}),
    ("value-sup", {"field": {"kind": "linear", "a": -1.0}, "lagrangian": {"kind": "speed"},
                   "obstacle": {"kind": "abs"}, "discount": 0.1, "value_cap": 100.0,
                   "points": [[0.7]], "horizon": 0.3, "step": 0.1}),
    ("value-inf", {"field": {"kind": "linear", "a": -1.0},
                   "lagrangian": {"kind": "const", "value": 1.0},
                   "obstacle": {"kind": "indicator",
                                "set": {"kind": "sphere", "center": [0.0], "radius": 0.5}},
                   "points": [[0.7]], "horizon": 0.3, "step": 0.1}),
    ("lyapunov", {"field": {"kind": "linear", "a": -1.0}, "lagrangian": {"kind": "zero"},
                  "obstacle": {"kind": "zero"}, "discount": 0.5, "points": [[0.7]],
                  "horizon": 0.3, "step": 0.1}),
    ("mintime", {"field": {"kind": "transport", "velocity": [1.0]},
                 "set": {"kind": "point-cloud", "points": [[0.5], [1.0]]},
                 "points": [[0.0]], "horizon": 0.3, "step": 0.1}),
    ("minlength", {"field": {"kind": "demographic", "rho": 1.0, "sigma": 0.5, "beta": 0.3,
                             "b": 2.0},
                   "set": {"kind": "ball", "center": [1.0, 1.0, 1.0, 1.0], "radius": 0.5},
                   "points": [[1.0, 1.0, 1.0, 1.2]], "horizon": 0.3, "step": 0.1}),
    ("hj-check", {"field": {"kind": "linear", "a": -1.0}, "lagrangian": {"kind": "unit"},
                  "obstacle": {"kind": "abs"},
                  "grid": {"lo": [-1.0], "hi": [1.0], "counts": [4]},
                  "mode": "inf", "points": [[0.1]], "horizon": 0.3, "step": 0.1, "tol": 0.05}),
    ("pde-char", {"pde": {"phi": {"kind": "transport", "velocity": [1.0]},
                          "g": {"kind": "decay", "rate": 1.0},
                          "K": {"kind": "box", "lo": [0.0], "hi": [None]},
                          "u0": {"kind": "sin", "weights": [1.0], "offset": 0.5},
                          "v": {"kind": "affine", "weights": [1.0, 0.0]},
                          "impulses": [0.1], "out_dim": 1},
                  "step": 0.1, "eval": {"ts": [0.2, 0.3], "xs": [[0.5], [0.1]]}}),
    ("pde-char", {"pde": {"phi": {"kind": "transport", "velocity": [1.0]},
                          "K": {"kind": "box", "lo": [0.0], "hi": [None]},
                          "u0": {"kind": "const", "value": 1.0}},
                  "step": 0.1, "eval": {"t_range": [0.0, 0.2, 2], "x_range": [[0.0, 1.0, 2]]}}),
    ("pde-graph", {"pde": {"f": {"kind": "output"}, "g": {"kind": "zero"},
                           "K": {"kind": "box", "lo": [None], "hi": [None]},
                           "u0": {"kind": "affine", "weights": [-1.0]},
                           "v": {"kind": "const", "value": 0.25}, "out_dim": 1},
                   "step": 0.1, "graph": {"T": 0.3, "seeds_per_face": 3, "seed_lo": [-1.0],
                                          "seed_hi": [1.0], "boundary_points": [[0.0]]}}),
    ("demo4d", dict(DEMO_CFG, step=0.1, eval={"ts": [0.2], "xs": [[0.4, 1.0, 0.5, 1.5]]})),
]
# the malformed values: text, NaN, negative, zero, empty list, a 3-list, an
# object, null, a float overflowing every integer type, a nested list
BAD_LEAVES = ["abc", math.nan, -1, 0, [], [1.0, 2.0, 3.0], {"a": 1}, None, 1e300, [[1, 2]]]


def _leaf_paths(node, path=()):
    """Every path below node: each object value and each list entry."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _leaf_paths(value, path + (key,))


def _with_leaf(cfg, path, value):
    cfg = json.loads(json.dumps(cfg))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


def test_fuzz_configs_cover_every_subcommand_and_run(tmp_path):
    assert sorted({op for op, _ in FUZZ_CONFIGS}) == sorted(SUBCOMMANDS)
    for i, (op, cfg) in enumerate(FUZZ_CONFIGS):
        assert main([op, _write(tmp_path, f"{i}.json", cfg), "-o", str(tmp_path / str(i))]) == 0


def test_scipy_spatial_loads_only_where_a_tree_is_built(tmp_path):
    """kernel, pde-graph and a point-cloud set build KD-trees; no other config
    loads scipy.spatial.  Each child runs tree-free configs, then at most one
    that builds a tree, and reports whether scipy.spatial is loaded after each."""
    builds = [op in ("kernel", "pde-graph") or '"point-cloud"' in json.dumps(cfg)
              for op, cfg in FUZZ_CONFIGS]
    runs = [(op, _write(tmp_path, f"{i}.json", cfg), str(tmp_path / str(i)))
            for i, (op, cfg) in enumerate(FUZZ_CONFIGS)]
    trees = [i for i, b in enumerate(builds) if b]
    batches = [[i for i, b in enumerate(builds) if not b] + trees[:1]] + [[i] for i in trees[1:]]
    probe = ("import json, sys\n"
             "from viakit.cli import main\n"
             "print(json.dumps([(main([op, cfg, '-o', out]), 'scipy.spatial' in sys.modules)\n"
             "                  for op, cfg, out in json.loads(sys.argv[1])]))\n")
    seen = {}
    for batch in batches:
        out = _python("-c", probe, json.dumps([runs[i] for i in batch]))
        seen.update(zip(batch, json.loads(out.splitlines()[-1])))
    assert sum(builds) == 3
    assert [tuple(seen[i]) for i in range(len(FUZZ_CONFIGS))] == [(0, b) for b in builds]


# ROADMAP item 6: some malformed leaves overflow a field or a speed square on rows
# the march then refuses (exit 3), and numpy warns of it
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=600, derandomize=True, deadline=None)
@given(data=st.data())
def test_malformed_leaf_exits_0_2_or_3(tmp_path_factory, data):
    """Any one malformed leaf exits 0, 2 or 3, never with another exception, and
    a config error writes no CSV."""
    op, cfg = data.draw(st.sampled_from(FUZZ_CONFIGS))
    path = data.draw(st.sampled_from(list(_leaf_paths(cfg))))
    bad = data.draw(st.sampled_from(BAD_LEAVES))
    out = tmp_path_factory.mktemp("fuzz")
    code = main([op, _write(out, "cfg.json", _with_leaf(cfg, path, bad)), "-o", str(out)])
    assert code in (0, 2, 3)
    if code == 2:
        assert not any(out.glob("*.csv"))
