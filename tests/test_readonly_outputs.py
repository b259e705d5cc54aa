"""The toolkit only reads what a callable returns, so constant built-ins may share one block.

The guard runs every consumer of fields, lagrangians and obstacles on
callables whose output is read-only, where any write into it raises.  The
contract tests hold each built-in that returns a shared block
(``common._Filled``) to the fresh array it replaced: the same bits, dtype
and shape, read-only, at any row count in any order.
"""

from dataclasses import replace

import numpy as np
import pytest

import viakit as vk
from viakit import cli
from viakit.characteristics import _coupled_field


def _read_only(fn):
    """fn with its output handed back as a read-only copy: a write into it raises."""

    def wrapped(*args):
        out = np.array(fn(*args))
        out.flags.writeable = False
        return out

    return wrapped


def _guarded(field: vk.VectorField) -> vk.VectorField:
    return replace(field, eval=_read_only(field.eval))


def _problem(guard, lagrangian, obstacle, field=vk.linear_field(-0.5), discount=0.3):
    wrap = _read_only if guard else (lambda fn: fn)
    return vk.LagrangianProblem(_guarded(field) if guard else field, wrap(lagrangian),
                                discount, wrap(obstacle))


def _char_problem(guard):
    """A transport problem with a boundary datum: every phase of solve_char_many runs."""
    wrap = _read_only if guard else (lambda fn: fn)
    phi = vk.transport_field([1.0])
    data = vk.BoundaryData(lambda X: np.sin(X[:, :1]), lambda S, X: np.cos(3.0 * S))
    return vk.CharProblem(wrap(lambda t, x, y: -0.5 * y), vk.box([0.0], [np.inf]), data, 1,
                          phi=_guarded(phi) if guard else phi)


def _field_of(guard, field):
    return _guarded(field) if guard else field


_BOX = vk.box([-1.0, -1.0], [1.0, 1.0])
_GRID2 = vk.GridSpec([-1.0, -1.0], [1.0, 1.0], [10, 10])
_ROT = vk.rotation_field(1.0)
_XS = np.linspace(-1.5, 1.5, 7)[:, None]
_BALL = vk.ball([1.0], 0.1)
_TRANSPORT = vk.transport_field([1.0])


def _epigraph(guard, mode):
    p = _problem(guard, vk.unit_lagrangian if mode == "sup" else vk.zero_lagrangian,
                 vk.abs_obstacle, field=vk.linear_field(-1.0), discount=0.0)
    grid = vk.GridSpec([-0.8, 0.0], [0.8, 1.6], [8, 8])
    r = vk.epigraph_value_field(p, grid, mode, 2.0, 0.05)
    return r.envelope.values, r.time_field.values


def _hj(guard, check):
    p = _problem(guard, vk.unit_lagrangian, vk.zero_obstacle, field=_TRANSPORT, discount=0.0)
    grid = vk.GridSpec([-2.0], [2.0], [80])
    u = vk.GridFunction(grid, np.abs(grid.nodes()[:, 0] - 1.0))
    rep = check(p, u, np.linspace(-1.5, 0.5, 9)[:, None])
    return rep.residual_fwd, rep.residual_bwd, rep.complementarity


#: Each consumer of a callable's output, on plain (guard False) or read-only
#: (guard True) callables; its results as arrays.
CONSUMERS = {
    "viab-events": lambda g: vk.viab_field(_field_of(g, _ROT), _BOX, _GRID2, 3.0, 0.05).values,
    "capt-events": lambda g: vk.capt_field(_field_of(g, _ROT), vk.ball([0.0, 1.0], 0.3),
                                           _GRID2, 3.0, 0.05).values,
    "viable-capt": lambda g: vk.viable_capt_field(_field_of(g, _ROT), _BOX,
                                                  vk.ball([0.0, 1.0], 0.3), _GRID2, 3.0,
                                                  0.05).values,
    "integrate": lambda g: vk.integrate(_field_of(g, _ROT), [0.5, 0.1], 0.0, 1.0, 0.1).states,
    "negated": lambda g: vk.flow(_field_of(g, _ROT), -1.0, [0.5, 0.1], 0.1),
    "reach-set-negated": lambda g: vk.reach_set(_field_of(g, _ROT).negated(), 1.0,
                                                _GRID2.nodes(), 0.1)[0],
    "verify-growth": lambda g: vk.verify_growth(_field_of(g, _ROT), _GRID2.nodes(),
                                                (0.0, 1.0)),
    "tabulate-sup": lambda g: vk.tabulate_values(
        _problem(g, vk.speed_lagrangian, vk.abs_obstacle), _XS, "sup", 2.0, 0.05),
    "tabulate-inf": lambda g: vk.tabulate_values(
        _problem(g, vk.unit_lagrangian, vk.indicator_obstacle(_BALL), field=_TRANSPORT,
                 discount=0.0), _XS, "inf", 3.0, 0.05),
    "tabulate-lyapunov": lambda g: vk.tabulate_values(
        _problem(g, vk.zero_lagrangian, vk.abs_obstacle), _XS, "lyapunov", 2.0, 0.05),
    "cost-path": lambda g: vk.running_cost_path(
        _problem(g, vk.const_lagrangian(0.5), vk.zero_obstacle), [0.7], 1.0, 0.1
    ).value_at(0.55),
    "lift-sup": lambda g: _epigraph(g, "sup"),
    "lift-inf": lambda g: _epigraph(g, "inf"),
    "solve-char-many": lambda g: vk.solve_char_many(_char_problem(g), [0.5, 2.0, 3.0],
                                                    [[2.0], [1.0], [0.5]], 0.01),
    "graph-sample": lambda g: vk.graph_sample(_char_problem(g), 1.0, 0.05, 11, [0.0], [2.0],
                                              boundary_points=[[0.0]]).points,
    "coupled-field": lambda g: vk.reach_set(_coupled_field(_char_problem(g)), 1.0,
                                            [[0.5, 0.2], [1.0, -0.3]], 0.1)[0],
    "hj-check-sup": lambda g: _hj(g, vk.hj_check_sup),
    "hj-check-inf": lambda g: _hj(g, vk.hj_check_inf),
}


def _bytes(result):
    if isinstance(result, tuple):
        return [_bytes(r) for r in result]
    return np.asarray(result).tobytes()


@pytest.mark.parametrize("name", list(CONSUMERS))
def test_no_consumer_writes_into_a_callables_output(name):
    """Read-only outputs raise on any write, and give the plain callables' bits."""
    assert _bytes(CONSUMERS[name](True)) == _bytes(CONSUMERS[name](False))


def test_the_guard_catches_a_write():
    out = _read_only(lambda x: np.zeros(len(x)))(np.ones((3, 1)))
    with pytest.raises(ValueError, match="read-only"):
        out[0] = 1.0


# ---------------------------------------------------------------------------
# Contract of the built-ins that return a shared block
# ---------------------------------------------------------------------------


def _fresh_transport(v):
    def ev(t, x):
        out = np.empty_like(x)
        out[...] = v
        return out

    return ev


#: name -> (built-in, the fresh array it replaced, the row width it takes)
BUILTINS = {
    "transport": (vk.transport_field([-0.0, 2.5]).eval, _fresh_transport(np.array([-0.0, 2.5])),
                  2),
    "transport-widened": (replace(vk.transport_field([-1.25]), dim=3).eval,
                          _fresh_transport(np.array([-1.25])), 3),
    # negated() negated the field's fresh array
    "transport-negated": (vk.transport_field([-0.0, 2.5]).negated().eval,
                          lambda t, x, f=_fresh_transport(np.array([-0.0, 2.5])):
                          -np.asarray(f(t, x), dtype=float), 2),
    "zero-lagrangian": (lambda t, x: vk.zero_lagrangian(x, x),
                        lambda t, x: np.zeros(len(x)), 2),
    "unit-lagrangian": (lambda t, x: vk.unit_lagrangian(x, x), lambda t, x: np.ones(len(x)), 2),
    "const-lagrangian": (lambda t, x, f=vk.const_lagrangian(-0.0): f(x, x),
                         lambda t, x: np.full(len(x), -0.0), 2),
    "const-lagrangian-2.5": (lambda t, x, f=vk.const_lagrangian(2.5): f(x, x),
                             lambda t, x: np.full(len(x), 2.5), 1),
    "zero-obstacle": (lambda t, x: vk.zero_obstacle(x), lambda t, x: np.zeros(len(x)), 1),
    "cli-zero-output": (lambda t, y, g=cli._OUTPUT_FIELDS["zero"](None): g(t, y[:, :1], y),
                        lambda t, y: np.zeros_like(y), 2),
}


@pytest.mark.parametrize("name", list(BUILTINS))
def test_builtin_is_its_fresh_array_read_only(name):
    """At 0, 1, 201 and 16281 rows, growing and shrinking: bits, dtype, shape; read-only."""
    new, old, k = BUILTINS[name]
    rng = np.random.default_rng(5)
    for m in (201, 16281, 201, 0, 1, 16281, 16282, 3):
        x = rng.normal(size=(m, k))
        got, want = new(0.0, x), old(0.0, x)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got[...] = 7.0


@pytest.mark.parametrize("name", ["transport", "transport-widened", "cli-zero-output"])
def test_builtin_field_keeps_a_fresh_array_for_rows_of_another_dtype(name):
    """float32 and big-endian rows keep a writable array of their own dtype; float64 rows
    of three axes or strided rows share the block."""
    new, old, k = BUILTINS[name]
    for x in (np.ones((5, k), dtype=np.float32), np.ones((5, k), dtype=">f8"),
              np.ones((2, 4, k)), np.ones((5, 2 * k))[:, ::2]):
        got, want = new(0.0, x), old(0.0, x)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
        assert got.flags.writeable != (x.dtype is np.dtype(float))


def test_negated_transport_hands_out_one_shared_block():
    """The negated field's velocity is the same read-only object on repeated calls."""
    ev = vk.transport_field([1.0]).negated().eval
    x = np.zeros((100, 1))
    first = ev(0.0, x)
    assert ev(0.5, x) is first and ev(0.0, x.copy()) is first
    assert not first.flags.writeable and first.tobytes() == np.full((100, 1), -1.0).tobytes()


def test_one_state_lift_returns_an_array_of_its_own():
    for field in (vk.transport_field([1.0, -2.0]), replace(vk.transport_field([3.0]), dim=2),
                  vk.transport_field([1.0, -2.0]).negated(), _guarded(vk.rotation_field(1.0))):
        v = field(0.0, np.array([0.5, 0.25]))
        assert v.shape == (2,) and v.flags.writeable
        before = field(0.0, np.array([0.5, 0.25]))
        v[...] = 9.0  # the next call is not changed by it
        assert field(0.0, np.array([0.5, 0.25])).tobytes() == before.tobytes()
