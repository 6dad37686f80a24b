"""Per-layer tracing from outside the program.

`Tracer.install()` swaps public functions and methods of the fwnmpc modules
for timing wrappers and `Tracer.uninstall()` puts the originals back, so a
run without tracing executes the program's own code objects untouched.

Each wrapper records calls, busy time and the time covered by nested
wrapped calls, so a layer's self time is its busy time minus its children.
A child's time seen by its parent includes the child wrapper's own
bookkeeping, which keeps tracing cost out of the parent's self time. The
bookkeeping itself is timed and summed in `Tracer.overhead_s`; only the
call into the wrapper escapes it.
"""

from __future__ import annotations

import functools
import time
import weakref
from dataclasses import dataclass

from fwnmpc import guidance as gd
from fwnmpc import model as md
from fwnmpc import paths as pth
from fwnmpc import sysid
from fwnmpc.nmpc import ocp as nmpc_ocp
from fwnmpc.nmpc import solver as nmpc_solver

COLD = "cold"
WARM = "warm"


@dataclass
class Stat:
    calls: int = 0
    busy_s: float = 0.0
    child_s: float = 0.0
    units: float = 0.0      # work units summed over calls (columns, QP iterations, ...)
    extra: float = 0.0      # second per-call quantity (active bounds, accepted steps, ...)
    flags: int = 0          # calls with a noteworthy outcome (QP iteration limit, ...)

    @property
    def self_s(self) -> float:
        return self.busy_s - self.child_s

    def __sub__(self, other: "Stat") -> "Stat":
        return Stat(self.calls - other.calls, self.busy_s - other.busy_s,
                    self.child_s - other.child_s, self.units - other.units,
                    self.extra - other.extra, self.flags - other.flags)

    def __add__(self, other: "Stat") -> "Stat":
        return Stat(self.calls + other.calls, self.busy_s + other.busy_s,
                    self.child_s + other.child_s, self.units + other.units,
                    self.extra + other.extra, self.flags + other.flags)


class Stats(dict):
    """(bucket, span name) -> Stat."""

    def stat(self, name: str, bucket: str = WARM) -> Stat:
        return self.get((bucket, name), Stat())

    def both(self, name: str) -> Stat:
        return self.stat(name, WARM) + self.stat(name, COLD)

    def total_calls(self) -> int:
        return sum(s.calls for s in self.values())

    def copy(self) -> "Stats":
        return Stats({k: Stat(**vars(v)) for k, v in self.items()})

    def since(self, earlier: "Stats") -> "Stats":
        return Stats({k: v - earlier.get(k, Stat()) for k, v in self.items()})

    def __add__(self, other: "Stats") -> "Stats":
        return Stats({k: self.get(k, Stat()) + other.get(k, Stat())
                      for k in self.keys() | other.keys()})


def _rk4_name(args, kwargs) -> str:
    x = args[0] if args else kwargs["x"]
    return "model.rk4_scalar" if getattr(x, "ndim", 1) == 1 else "model.rk4_batch"


def _rk4_units(args, kwargs, result) -> tuple:
    return (1.0 if result.ndim == 1 else float(result.shape[1])), 0.0, 0


def _raw_outputs_units(args, kwargs, result) -> tuple:
    return float(result.shape[1]), 0.0, 0


def _qp_units(args, kwargs, result) -> tuple:
    return float(result.n_iter), float(result.n_active), int(result.status == "iteration_limit")


def _sqp_units(args, kwargs, result) -> tuple:
    full_step = result.accepted and result.halvings == 0
    return float(result.halvings), float(full_step), 0


def _residual_name(args, kwargs) -> str:
    params = args[1] if len(args) > 1 else kwargs["params"]
    batch = getattr(params, "ndim", 1) == 2 and params.shape[1] > 1
    return "sysid.residual_batch" if batch else "sysid.residual_single"


# (owner, attribute, span name or name function, unit function)
def _targets() -> list:
    return [
        (md, "rk4_step_array", _rk4_name, _rk4_units),
        (md, "solve_trim", "model.trim", None),
        (pth, "closest_point_line", "paths.closest_point", None),
        (pth, "closest_point_arc", "paths.closest_point", None),
        (pth, "switching_conditions", "paths.switch", None),
        (pth, "advance_switch_state", "paths.switch", None),
        (gd, "guidance_errors", "guidance.errors", None),
        (nmpc_solver.NmpcController, "step", "nmpc.step", None),
        (nmpc_solver, "sqp_iterate", "nmpc.sqp", _sqp_units),
        (nmpc_ocp, "propagate_horizon", "nmpc.rollout", None),
        (nmpc_solver.AircraftShootingProblem, "residuals", "nmpc.residuals", None),
        (nmpc_ocp, "raw_outputs", "nmpc.raw_outputs", _raw_outputs_units),
        (nmpc_ocp, "rk4_jacobians", "nmpc.dyn_jac", None),
        (nmpc_solver.AircraftShootingProblem, "residual_jacobians", "nmpc.out_jac", None),
        (nmpc_solver, "solve_box_qp", "nmpc.qp", _qp_units),
        (sysid, "residual_vector", _residual_name, None),
        (sysid, "validate", "sysid.validate", None),
    ]


class Tracer:
    """Timing wrappers around the public calls into each layer.

    Stats are kept per bucket: calls made inside the first step of each
    controller (its cold start) go to `COLD`, everything else to `WARM`.
    """

    def __init__(self):
        self.stats = Stats()
        self.bucket = WARM
        self._stack: list = []
        self._originals: list = []
        self._stepped = weakref.WeakSet()
        self.overhead_s = 0.0

    @property
    def installed(self) -> bool:
        return bool(self._originals)

    def _record(self, name, bucket, elapsed, child, units):
        key = (bucket, name)
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = Stat()
        stat.calls += 1
        stat.busy_s += elapsed
        stat.child_s += child
        if units is not None:
            stat.units += units[0]
            stat.extra += units[1]
            stat.flags += units[2]

    def wrap(self, fn, name, unit_fn=None):
        tracer = self
        is_step = name == "nmpc.step"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = time.perf_counter()
            span_name = name(args, kwargs) if callable(name) else name
            outer_bucket = tracer.bucket
            if is_step and args[0] not in tracer._stepped:
                tracer._stepped.add(args[0])
                tracer.bucket = COLD
            frame = [0.0]
            stack = tracer._stack
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                bucket = tracer.bucket
                tracer.bucket = outer_bucket
            units = unit_fn(args, kwargs, result) if unit_fn else None
            tracer._record(span_name, bucket, t1 - t0, frame[0], units)
            t_out = time.perf_counter()
            tracer.overhead_s += (t0 - t_in) + (t_out - t1)
            if stack:
                stack[-1][0] += t_out - t_in
            return result

        return wrapper

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, unit_fn in _targets():
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, unit_fn))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def all_patched_attributes() -> list:
    """(owner, attribute) pairs a tracer replaces while installed."""
    return [(owner, attr) for owner, attr, _, _ in _targets()]
