"""Fixed-wing UAV guidance stack.

Library layers, bottom to top:

- :mod:`fwnmpc.model` -- control-augmented flight dynamics and integrator
- :mod:`fwnmpc.paths` -- 3D Dubins path primitives, the closest-point kernel
  over frozen segment contexts, and the float segment-switching step
- :mod:`fwnmpc.guidance` -- the look-ahead guidance kernel: lateral and
  longitudinal errors and the roll feed-forward
- :mod:`fwnmpc.nmpc` -- multiple-shooting NMPC with a projected-Newton
  box-QP core, whose outputs compose the closest-point and guidance kernels
- :mod:`fwnmpc.sysid` -- grey-box output-error parameter identification
- :mod:`fwnmpc.sim` -- deterministic closed-loop scenario harness, logging
  through the same kernels at one position
"""

from fwnmpc.model import (
    AircraftState,
    ClosedLoopParams,
    ControlInput,
    ModelParams,
    OpenLoopParams,
    PhysicalConstants,
    WindVector,
    default_params,
    solve_trim,
)
from fwnmpc.paths import ArcSegment, LineSegment, LoiterSegment, PathQueue, SwitchConfig
from fwnmpc.guidance import GuidanceConfig, GuidanceErrors

__all__ = [
    "AircraftState",
    "ClosedLoopParams",
    "ControlInput",
    "ModelParams",
    "OpenLoopParams",
    "PhysicalConstants",
    "WindVector",
    "default_params",
    "solve_trim",
    "ArcSegment",
    "LineSegment",
    "LoiterSegment",
    "PathQueue",
    "SwitchConfig",
    "GuidanceConfig",
    "GuidanceErrors",
]

__version__ = "0.1.0"
