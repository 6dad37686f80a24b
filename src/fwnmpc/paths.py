"""Time-independent 3D path primitives and segment switching.

Three segment kinds cover typical fixed-wing missions: straight lines,
constant-radius arcs extended into helices by an elevation angle, and
unlimited loiter circles. Everything is defined spatially; no segment is
parameterized by time, so tracking is invariant to ground speed.

Arc direction convention: positive signed radius means clockwise when viewed
from above (heading increasing), negative means counter-clockwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Union

import numpy as np

from fwnmpc.model import TWO_PI, wrap_angle

# Degenerate-geometry guard: queries closer than this to a helix axis have no
# well-defined lateral projection.
AXIS_EPS = 0.1  # m

# Helix pitch below this is treated as a flat circle.
FLAT_SLOPE_EPS = 1e-12


@dataclass(frozen=True, eq=False)
class LineSegment:
    """Straight 3D segment through terminal point `b` with exit course/elevation."""

    b: np.ndarray          # terminal point, NED (m)
    chi_p: float           # exit course (rad)
    gamma_p: float         # elevation angle (rad), |gamma_p| < pi/2

    def __post_init__(self):
        object.__setattr__(self, "b", _point(self.b, "terminal point b"))
        _check_elevation(self.gamma_p)


@dataclass(frozen=True, eq=False)
class ArcSegment:
    """Constant-radius arc/helix about center `c` placed at the terminal altitude."""

    c: np.ndarray          # center at terminal altitude, NED (m)
    r_signed: float        # radius (m); sign sets direction (+ clockwise)
    chi_p: float           # exit course (rad)
    gamma_p: float         # elevation angle (rad), |gamma_p| < pi/2

    def __post_init__(self):
        object.__setattr__(self, "c", _point(self.c, "center c"))
        if self.r_signed == 0.0:
            raise ValueError("arc radius must be nonzero")
        _check_elevation(self.gamma_p)


@dataclass(frozen=True, eq=False)
class LoiterSegment:
    """Unlimited loiter circle; never terminates."""

    c: np.ndarray          # center, NED (m)
    r_signed: float        # radius (m); sign sets direction (+ clockwise)

    def __post_init__(self):
        object.__setattr__(self, "c", _point(self.c, "center c"))
        if self.r_signed == 0.0:
            raise ValueError("loiter radius must be nonzero")


PathSegment = Union[LineSegment, ArcSegment, LoiterSegment]


def _point(value, name: str) -> np.ndarray:
    point = np.asarray(value, dtype=float)
    if point.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector (NED), got shape {point.shape}")
    return point


def _check_elevation(gamma_p: float) -> None:
    if not abs(gamma_p) < np.pi / 2:
        raise ValueError("segment elevation angle must satisfy |gamma_p| < pi/2")


@dataclass(frozen=True)
class ClosestPoint:
    """Closest point on a segment plus the unit path tangent there.

    For arc segments `delta_chi` is the angular distance from the exit point
    measured against the travel direction, and `leg` counts whole helix turns
    between the chosen leg and the terminal one.
    """

    p: np.ndarray
    t_hat: np.ndarray
    valid: bool = True
    delta_chi: float = 0.0
    leg: int = 0

    def __post_init__(self):
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        object.__setattr__(self, "t_hat", np.asarray(self.t_hat, dtype=float))


@dataclass(frozen=True)
class SwitchConfig:
    """Terminal acceptance parameters and switch-state dynamics.

    The growth rate is arbitrary as long as it is fast enough that the
    reference hand-off completes promptly after the terminal conditions are
    met; 5/s crosses a segment boundary within 0.2 s.
    """

    r_acpt: float = 30.0                     # acceptance radius (m)
    eta_acpt: float = np.radians(15.0)       # acceptance bearing angle (rad)
    rho_sw: float = 5.0                      # switch-state growth rate (1/s)
    sw_threshold: float = 0.5                # latch threshold within a segment

    def __post_init__(self):
        if self.r_acpt <= 0.0:
            raise ValueError("acceptance radius must be > 0")
        if not (0.0 < self.eta_acpt < np.pi / 2):
            raise ValueError("acceptance bearing angle must lie in (0, pi/2)")
        if not 0.0 < self.rho_sw < np.inf:
            raise ValueError(f"switch-state growth rate rho_sw must be finite and > 0, "
                             f"got {self.rho_sw!r}")
        if not 0.0 <= self.sw_threshold < 1.0:
            raise ValueError(f"latch threshold sw_threshold must lie in [0, 1), "
                             f"got {self.sw_threshold!r}")


class SwitchingConditions(NamedTuple):
    proximity: bool
    bearing: bool
    travel: bool


@dataclass(frozen=True)
class PathQueue:
    """Ordered segment queue with a continuous switching state.

    Segment i is active while x_sw is in [i, i+1); crossing i+1 advances the
    index. The index never decreases and the queue holds its last segment
    once exhausted.
    """

    segments: tuple
    x_sw: float = 0.0
    current_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise ValueError("path queue needs at least one segment")
        if not 0 <= self.current_index < len(self.segments):
            raise ValueError("current_index out of range")
        if self.x_sw < 0.0:
            raise ValueError("switching state must be non-negative")

    @property
    def current_segment(self) -> PathSegment:
        return self.segments[self.current_index]


def tangent_from_course(chi: float, gamma_p: float) -> np.ndarray:
    """Unit tangent for a course angle and elevation angle (NED)."""
    cg = np.cos(gamma_p)
    return np.array([cg * np.cos(chi), cg * np.sin(chi), -np.sin(gamma_p)])


def arc_direction(seg) -> float:
    """+1 for clockwise (viewed from above), -1 for counter-clockwise."""
    return 1.0 if seg.r_signed > 0.0 else -1.0


# Segment kind codes of a `HorizonContext` column.
KIND_LINE, KIND_ARC, KIND_LOITER = 0, 1, 2


@dataclass
class HorizonContext:
    """Frozen per-column segment data in structure-of-arrays form, so the
    closest point vectorizes over horizon nodes and finite-difference
    columns."""

    kind: np.ndarray        # (M,) segment kind code
    anchor_n: np.ndarray    # (M,) line terminal b / arc center c
    anchor_e: np.ndarray
    anchor_d: np.ndarray
    chi_p: np.ndarray       # (M,)
    gamma_p: np.ndarray     # (M,) elevation (0 for loiter)
    r_signed: np.ndarray    # (M,) signed radius (0 for line)
    leg: np.ndarray         # (M,) frozen helix leg
    delta_chi: np.ndarray   # (M,) backward angle at the node
    lam: np.ndarray         # (M,) azimuth at the node
    seg_index: np.ndarray   # (M,) queue index

    @classmethod
    def allocate(cls, m: int) -> "HorizonContext":
        z = lambda: np.zeros(m)
        return cls(kind=np.zeros(m, dtype=np.int8), anchor_n=z(), anchor_e=z(),
                   anchor_d=z(), chi_p=z(), gamma_p=z(), r_signed=z(), leg=z(),
                   delta_chi=z(), lam=z(), seg_index=np.zeros(m, dtype=int))

    def fill_run(self, run: slice, seg, pos: np.ndarray) -> int:
        """Record the frozen data of the nodes in `run`, all on segment `seg`,
        from their (M, 3) positions `pos`.

        Nodes of an arc choose their helix leg under a cap: the lowest leg
        chosen so far in the run, so legs already passed are refused. A node
        within AXIS_EPS of an arc or loiter axis has no closest point; it
        gets delta_chi = 0 and leg 0 and carries the cap across unchanged.
        Returns the number of such near-axis nodes.
        """
        if isinstance(seg, LineSegment):
            self.kind[run] = KIND_LINE
            self.anchor_n[run], self.anchor_e[run], self.anchor_d[run] = seg.b
            self.chi_p[run] = seg.chi_p
            self.gamma_p[run] = seg.gamma_p
            return 0
        is_loiter = isinstance(seg, LoiterSegment)
        self.kind[run] = KIND_LOITER if is_loiter else KIND_ARC
        self.anchor_n[run], self.anchor_e[run], self.anchor_d[run] = seg.c
        self.r_signed[run] = seg.r_signed
        d_n, d_e = pos[:, 0] - seg.c[0], pos[:, 1] - seg.c[1]
        lam = np.arctan2(d_e, d_n)
        self.lam[run] = lam
        on_axis = np.hypot(d_n, d_e) < AXIS_EPS
        if is_loiter:
            return int(np.count_nonzero(on_axis))

        self.chi_p[run] = seg.chi_p
        self.gamma_p[run] = seg.gamma_p
        direction = arc_direction(seg)
        radius = abs(seg.r_signed)
        lam_b = seg.chi_p - direction * np.pi / 2
        delta_chi = np.mod(direction * (lam_b - lam), TWO_PI)
        slope = np.tan(seg.gamma_p)
        if abs(slope) < FLAT_SLOPE_EPS:
            leg = np.zeros(lam.shape)
        else:
            pitch = TWO_PI * radius * slope
            # + 0.0 turns a rounded -0.0 into the 0.0 of an integer leg
            leg = np.round((pos[:, 2] - (seg.c[2] + delta_chi * radius * slope))
                           / pitch) + 0.0
            leg[on_axis] = np.inf
            leg = np.minimum.accumulate(leg)
        delta_chi[on_axis] = 0.0
        leg[on_axis] = 0.0
        self.delta_chi[run] = delta_chi
        self.leg[run] = leg
        return int(np.count_nonzero(on_axis))

    def repeat(self, k: int) -> "HorizonContext":
        return HorizonContext(*[np.repeat(getattr(self, f), k) for f in _CTX_FIELDS])


_CTX_FIELDS = ("kind", "anchor_n", "anchor_e", "anchor_d", "chi_p", "gamma_p",
               "r_signed", "leg", "delta_chi", "lam", "seg_index")


def closest_point_columns(r, ctx: HorizonContext) -> tuple:
    """Closest point and unit path tangent of position columns `r` (3, M)
    on their frozen contexts, as ((p_n, p_e, p_d), (t_n, t_e, t_d)).

    Both the line and the arc formulas run on every column; the kind picks
    one. Lateral arc part: radial projection onto the circle. Vertical arc
    part: the frozen leg plus a wrap-free angular offset around the context
    azimuth, so the point stays smooth for finite-difference columns near
    the exit azimuth.
    """
    r_n, r_e, r_d = r
    line = ctx.kind == KIND_LINE
    arc_like = ~line
    cos_g, sin_g = np.cos(ctx.gamma_p), np.sin(ctx.gamma_p)

    t_line_n = cos_g * np.cos(ctx.chi_p)
    t_line_e = cos_g * np.sin(ctx.chi_p)
    t_line_d = -sin_g
    dn, de, dd = r_n - ctx.anchor_n, r_e - ctx.anchor_e, r_d - ctx.anchor_d
    proj = dn * t_line_n + de * t_line_e + dd * t_line_d
    p_line_n = ctx.anchor_n + proj * t_line_n
    p_line_e = ctx.anchor_e + proj * t_line_e
    p_line_d = ctx.anchor_d + proj * t_line_d

    direction = np.where(ctx.r_signed >= 0.0, 1.0, -1.0)
    radius = np.abs(ctx.r_signed)
    rho = np.maximum(np.hypot(dn, de), 1e-9)
    lam = np.arctan2(de, dn)
    safe_radius = np.where(arc_like, radius, 1.0)
    p_arc_n = ctx.anchor_n + safe_radius * dn / rho
    p_arc_e = ctx.anchor_e + safe_radius * de / rho
    delta_chi = ctx.delta_chi - direction * wrap_angle(lam - ctx.lam)
    slope = np.tan(ctx.gamma_p)
    pitch = 2.0 * np.pi * safe_radius * slope
    p_arc_d = ctx.anchor_d + delta_chi * safe_radius * slope + ctx.leg * pitch
    course = lam + direction * np.pi / 2
    t_arc_n = cos_g * np.cos(course)
    t_arc_e = cos_g * np.sin(course)

    return ((np.where(line, p_line_n, p_arc_n), np.where(line, p_line_e, p_arc_e),
             np.where(line, p_line_d, p_arc_d)),
            (np.where(line, t_line_n, t_arc_n), np.where(line, t_line_e, t_arc_e),
             np.where(line, t_line_d, -sin_g)))


def _closest_point_one(seg: PathSegment, r) -> ClosestPoint:
    """`closest_point_columns` at one position through a one-node context."""
    r = np.asarray(r, dtype=float)
    ctx = HorizonContext.allocate(1)
    near_axis = ctx.fill_run(slice(None), seg, r[None, :])
    p, t_hat = closest_point_columns(r[:, None], ctx)
    return ClosestPoint(p=np.concatenate(p), t_hat=np.concatenate(t_hat),
                        valid=not near_axis, delta_chi=float(ctx.delta_chi[0]),
                        leg=int(ctx.leg[0]))


def closest_point_line(seg: LineSegment, r) -> ClosestPoint:
    """Orthogonal projection onto the infinite line through `b`."""
    return _closest_point_one(seg, r)


def closest_point_arc(seg, r) -> ClosestPoint:
    """Decoupled closest point on an arc, helix, or loiter circle.

    The helix leg is the nearest one in altitude, found from the backward
    angular distance to the exit point plus a rounded whole number of
    turns. A query within AXIS_EPS of the axis is flagged invalid.
    """
    return _closest_point_one(seg, r)


def closest_point(seg: PathSegment, r) -> ClosestPoint:
    """Dispatch to the line or arc closest-point computation."""
    if isinstance(seg, LineSegment):
        return closest_point_line(seg, r)
    return closest_point_arc(seg, r)


def terminal_point(seg) -> np.ndarray:
    """Terminal point of a line or arc; loiter circles have none."""
    if isinstance(seg, LineSegment):
        return seg.b.copy()
    if isinstance(seg, ArcSegment):
        direction = arc_direction(seg)
        lam_b = seg.chi_p - direction * np.pi / 2
        radius = abs(seg.r_signed)
        return np.array([seg.c[0] + radius * np.cos(lam_b),
                         seg.c[1] + radius * np.sin(lam_b),
                         seg.c[2]])
    raise TypeError("loiter segments do not terminate")


def terminal_tangent(seg) -> np.ndarray:
    """Unit path tangent at the terminal point."""
    if isinstance(seg, LoiterSegment):
        raise TypeError("loiter segments do not terminate")
    return tangent_from_course(seg.chi_p, seg.gamma_p)


def terminal_data(seg: PathSegment) -> tuple | None:
    """Terminal point and unit tangent as six plain floats, plus whether the
    segment is a line: the input of `terminal_conditions`. None for a
    loiter, which never terminates."""
    if isinstance(seg, LoiterSegment):
        return None
    return (*map(float, terminal_point(seg)), *map(float, terminal_tangent(seg)),
            isinstance(seg, LineSegment))


def terminal_conditions(term: tuple | None, r, v_g, cfg: SwitchConfig) -> tuple:
    """(proximity, bearing, travel) tests of position `r` against
    `term = terminal_data(seg)`, on plain floats; a loiter meets none.

    The bearing test uses the normalized ground velocity; zero ground speed
    fails it. `v_g` is the ground velocity, or a function returning it. A
    function is called only where the bearing can decide a switch, on an
    arc whose travel and proximity tests pass; elsewhere the bearing reads
    False.
    """
    if term is None:
        return False, False, False
    b_n, b_e, b_d, t_n, t_e, t_d, is_line = term
    dn, de, dd = r[0] - b_n, r[1] - b_e, r[2] - b_d
    travel = dn * t_n + de * t_e + dd * t_d > 0.0
    proximity = dn * dn + de * de + dd * dd < cfg.r_acpt ** 2
    if callable(v_g):
        if is_line or not (travel and proximity):
            return proximity, False, travel
        v_g = v_g()
    v_n, v_e, v_d = v_g
    speed = math.sqrt(v_n * v_n + v_e * v_e + v_d * v_d)
    bearing = speed > 0.0 and (v_n * t_n + v_e * t_e + v_d * t_d) / speed \
        > float(np.cos(cfg.eta_acpt))
    return proximity, bearing, travel


def switching_conditions(seg: PathSegment, r, v_g, cfg: SwitchConfig) -> SwitchingConditions:
    """`terminal_conditions` of one segment at position `r` and ground
    velocity `v_g`."""
    return SwitchingConditions(*terminal_conditions(
        terminal_data(seg), np.asarray(r, dtype=float).tolist(),
        np.asarray(v_g, dtype=float).tolist(), cfg))


def terminal_conditions_met(seg: PathSegment, conds) -> bool:
    """Combine (proximity, bearing, travel) per segment kind: lines use
    travel only."""
    if isinstance(seg, LoiterSegment):
        return False
    proximity, bearing, travel = conds
    if isinstance(seg, LineSegment):
        return travel
    return proximity and bearing and travel


def advance_switch(x_sw: float, index: int, n_seg: int, met: bool,
                   cfg: SwitchConfig, dt: float) -> tuple[float, int]:
    """One Euler step of the switching state `x_sw` and the segment index
    `index` of an `n_seg`-segment queue, on plain floats.

    The state grows while the terminal conditions are `met` or once it has
    latched past the threshold within the current segment; it stops at the
    end of the queue. The index never decreases.
    """
    if met or (x_sw - index) > cfg.sw_threshold:
        x_sw = min(x_sw + cfg.rho_sw * dt, float(n_seg))
    return x_sw, max(min(math.floor(x_sw), n_seg - 1), index)


def advance_switch_state(queue: PathQueue, conds: SwitchingConditions,
                         cfg: SwitchConfig, dt: float) -> PathQueue:
    """`advance_switch` of the queue's state under the conditions `conds`."""
    x_sw, index = advance_switch(queue.x_sw, queue.current_index, len(queue.segments),
                                 terminal_conditions_met(queue.current_segment, conds),
                                 cfg, dt)
    return replace(queue, x_sw=x_sw, current_index=index)
