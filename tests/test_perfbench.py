"""The traced benchmark patches viakit names; a rename must fail here, not in ``--trace 1``."""

from pathlib import Path

from viakit import cli, dynamics, epi_hj, kernels

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
