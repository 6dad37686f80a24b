"""Single-shooting NMPC with condensing: path following, airspeed
stabilization, soft angle-of-attack constraint, box-constrained controls.
The controls are the only decision variables. Every line search propagates
the horizon from the measured state; an embedded period linearizes at the
prediction before the measurement arrives (see `fwnmpc.nmpc.solver`)."""

from fwnmpc.nmpc.ocp import (
    OcpConfig,
    References,
    Weights,
    alpha_soft,
    default_weights,
    propagate_horizon,
    rk4_jacobians,
    shift_horizon,
)
from fwnmpc.nmpc.qp import prepare_box_qp, solve_box_qp
from fwnmpc.nmpc.solver import (
    AircraftShootingProblem,
    Linearization,
    NmpcController,
    OcpSolution,
    apply_throttle_failure_weight,
    linearize,
    sqp_iterate,
)

__all__ = [
    "OcpConfig",
    "References",
    "Weights",
    "alpha_soft",
    "default_weights",
    "propagate_horizon",
    "rk4_jacobians",
    "shift_horizon",
    "prepare_box_qp",
    "solve_box_qp",
    "AircraftShootingProblem",
    "Linearization",
    "NmpcController",
    "OcpSolution",
    "apply_throttle_failure_weight",
    "linearize",
    "sqp_iterate",
]
