"""The benchmark's tracer patches viakit names and its workloads drive the CLI: a rename,
a broken config or a broken check must fail here, not in a benchmark run."""

import json
from pathlib import Path

import numpy as np
import pytest
from viakit import cli, dynamics, epi_hj, kernels, sets

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    before = (cli.main, kernels.rk4_step, epi_hj.CostPath.value_at,
              vars(dynamics.VectorField)["__call__"])
    tracer = Tracer()
    tracer.install()
    try:
        assert kernels.rk4_step is not before[1]
    finally:
        tracer.uninstall()
    assert (cli.main, kernels.rk4_step, epi_hj.CostPath.value_at,
            vars(dynamics.VectorField)["__call__"]) == before


def test_tracer_counts_every_march_step(monkeypatch):
    """Every batched march steps through the traced name: 10 steps of 3 rows."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        dynamics.reach_set(dynamics.linear_field(-1.0), 1.0, np.zeros((3, 1)), 0.1)
        totals = tracer.totals()
    finally:
        tracer.uninstall()
    assert (totals["dynamics.batched_steps"], totals["dynamics.batched_rows"]) == (10, 30)


def test_tracer_counts_one_membership_test_per_step(monkeypatch):
    """An event-free K-only sweep calls contains_many once on its start and once per step."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    grid = kernels.GridSpec([-1.0, -1.0], [1.0, 1.0], [4, 4])
    K = sets.box([-2.0, -2.0], [2.0, 2.0])
    tracer = Tracer()
    tracer.install()
    try:
        tf = kernels.viab_field(dynamics.linear_field(-1.0, dim=2), K, grid, 1.0, 0.1)
        totals = tracer.totals()
    finally:
        tracer.uninstall()
    assert (tf.values >= kernels.INF).all()  # no node leaves K
    assert totals["dynamics.batched_steps"] == 10
    assert totals["sets.membership_calls"] == totals["dynamics.batched_steps"] + 1
    assert totals["sets.membership_rows"] == 11 * 25


def test_tracer_counts_every_recorded_step(monkeypatch):
    """integrate and the value engine step every row through the traced rk4_step:
    one batched step per node after the first, in one block or one node per block."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    prob = epi_hj.LagrangianProblem(dynamics.linear_field(-1.0), epi_hj.unit_lagrangian, 0.0,
                                    epi_hj.abs_obstacle)
    tracer = Tracer()
    tracer.install()
    try:
        traj = dynamics.integrate(dynamics.linear_field(-1.0), [1.0], 0.0, 1.05, 0.1)
        integrated = tracer.totals()["dynamics.batched_steps"]
        monkeypatch.setattr(epi_hj, "BLOCK_FLOATS", 1)
        epi_hj.tabulate_values(prob, [[0.5], [-0.25]], "sup", 1.05, 0.1)
        tabulated = tracer.totals()["dynamics.batched_steps"] - integrated
    finally:
        tracer.uninstall()
    assert integrated == len(traj.times) - 1 == 11
    assert tabulated == 11


def test_every_workload_passes_its_check_and_fails_its_negative_control(monkeypatch, tmp_path,
                                                                         capsys):
    """Every benchmark invocation at seed 1 runs through cli.main, exits 0 and passes
    its own check, and fails that check once workloads.corrupt_csv alters its output:
    a broken config or check fails here, not in a benchmark run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delenv("VIAKIT_OUT", raising=False)  # it would redirect every output
    import workloads

    for name in workloads.WORKLOADS:
        for inv in workloads.make(name, 1).invocations:
            config, out = tmp_path / f"{name}-{inv.tag}.json", tmp_path / name / inv.tag
            config.write_text(json.dumps(inv.config))
            code = cli.main([inv.subcommand, str(config), "-o", str(out),
                             "--workers", str(inv.workers)])
            stdout = capsys.readouterr().out
            assert code == 0, (name, inv.tag)
            inv.check(str(out), stdout)
            csv, column = inv.corrupt
            workloads.corrupt_csv(out / csv, column)
            with pytest.raises(workloads.CheckFailed):
                inv.check(str(out), stdout)
