"""viakit: viability kernels, capture basins, and characteristic solvers.

A numerics toolkit for set-constrained dynamics: reachable sets,
viability kernels, capture basins, exit/hitting times, epigraphical
value functions with variational-inequality residual checks, and
method-of-characteristics solutions to first-order boundary-value
problems (single-valued and set-valued, shocks included).

Everything operates in the unique-solution regime: time functionals and
value functions are evaluated along the RK4-selected trajectory.
"""

from .common import BLOWUP_NORM, INF
from .dynamics import (
    Trajectory,
    VectorField,
    demographic_field,
    flow,
    integrate,
    linear_field,
    logistic_closed_form,
    logistic_field,
    reach_set,
    rotation_field,
    transport_field,
    verify_growth,
)
from .errors import (
    CapTooSmall,
    ConfigError,
    DescentViolation,
    NoConvergence,
    NonFinite,
    NonzeroLagrangian,
    ParamDomain,
    Unsupported,
    ViakitError,
)
from .sets import (
    PointCloud,
    SetOracle,
    ball,
    box,
    complement,
    empty_set,
    halfspace,
    intersection,
    point_cloud_set,
    product,
    set_limit,
    sphere,
    sublevel,
    tangent_residual,
    union,
    whole_space,
)
from .viable_euler import ViableResult, viable_step, viable_trajectory
from .kernels import (
    GridSpec,
    RepellerReport,
    TimeField,
    capt_field,
    capture_margin,
    discrete_kernel,
    exit_time,
    hitting_time,
    repeller_check,
    viab_field,
    viable_capt_field,
)
from .epi_hj import (
    EpigraphResult,
    GridFunction,
    HJReport,
    LagrangianProblem,
    LiftedField,
    abs_obstacle,
    const_lagrangian,
    epiderivative,
    epigraph_oracle,
    epigraph_value_field,
    hj_check_inf,
    hj_check_sup,
    indicator_obstacle,
    lift,
    lyapunov,
    minimal_length,
    minimal_length_problem,
    minimal_time,
    minimal_time_problem,
    repeller_condition,
    running_cost_path,
    speed_lagrangian,
    tabulate_values,
    unit_lagrangian,
    value_inf,
    value_sup,
    zero_lagrangian,
    zero_obstacle,
)
from .characteristics import (
    BoundaryData,
    CaptureCrosscheck,
    CharProblem,
    Demo4D,
    FrankowskaReport,
    GraphCloud,
    PhiInvarianceReport,
    backward_exit_time,
    boundary_trace,
    demo4d,
    exitor,
    frankowska_residual,
    graph_capture_crosscheck,
    graph_sample,
    phi_invariance_check,
    product_exit_time,
    query_graph,
    replay_check,
    solve_char,
    solve_char_many,
)

__version__ = "0.1.0"
