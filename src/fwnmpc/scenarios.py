"""Built-in closed-loop scenarios: helix climb/descent, a connected Dubins
course with right-angle corners in wind, and a motor-failure glide.

Course geometry is chained so consecutive segments join tangent-continuously:
each builder walks a virtual aircraft along the course, placing arc centers
perpendicular to the current course and terminal points down-track.
"""

from __future__ import annotations

import numpy as np

from fwnmpc import model as md
from fwnmpc import paths as pth
from fwnmpc.nmpc import ocp as nmpc_ocp
from fwnmpc.sim import Event, Scenario


def chain_line(start: np.ndarray, course: float, gamma_p: float,
               length: float) -> tuple[pth.LineSegment, np.ndarray, float]:
    """Straight segment of given length from `start`; returns (seg, end, course)."""
    t_hat = pth.tangent_from_course(course, gamma_p)
    end = np.asarray(start, dtype=float) + length * t_hat
    return pth.LineSegment(b=end, chi_p=course, gamma_p=gamma_p), end, course


def chain_arc(start: np.ndarray, course: float, r_signed: float, gamma_p: float,
              turn_angle: float) -> tuple[pth.ArcSegment, np.ndarray, float]:
    """Arc/helix of given turn angle starting tangent at `start`.

    Positive signed radius turns clockwise (course increases). The center is
    placed at the segment's terminal altitude.
    """
    start = np.asarray(start, dtype=float)
    direction = 1.0 if r_signed > 0 else -1.0
    radius = abs(r_signed)
    center_ne = start[:2] + radius * np.array([np.cos(course + direction * np.pi / 2),
                                               np.sin(course + direction * np.pi / 2)])
    exit_course = md.wrap_angle(course + direction * turn_angle)
    terminal_d = start[2] - turn_angle * radius * np.tan(gamma_p)
    seg = pth.ArcSegment(c=np.array([center_ne[0], center_ne[1], terminal_d]),
                         r_signed=r_signed, chi_p=exit_course, gamma_p=gamma_p)
    end = pth.terminal_point(seg)
    return seg, end, exit_course


def _turning_state(params: md.ModelParams, pos: np.ndarray, course: float,
                   gamma: float, v_a: float, r_signed: float | None) -> md.AircraftState:
    """Steady-state-ish initial condition on a segment (bank and turn rate set)."""
    trim = md.solve_trim(params, v_a, gamma)
    if r_signed is None:
        phi, r_rate = 0.0, 0.0
    else:
        phi = float(np.arctan((v_a * np.cos(gamma)) ** 2 / (params.constants.g * r_signed)))
        r_rate = v_a * np.cos(gamma) / r_signed
    return md.AircraftState(n=pos[0], e=pos[1], d=pos[2], v_a=v_a, gamma=gamma,
                            xi=md.wrap_angle(course), phi=phi, theta=trim.theta,
                            p=0.0, q=0.0, r=r_rate, delta_t=trim.delta_t)


def scenario_helix(wind: md.WindVector | None = None, duration: float = 70.0) -> Scenario:
    """Steep ascending helix, constant-altitude summit arc, shallow gliding
    descent: 35 m radii, 8 degree climb and 3 degree glide, 13.5 m/s."""
    params = md.default_params()
    v_ref = 13.5
    climb = np.radians(8.0)
    glide = np.radians(-3.0)

    start = np.array([35.0, 0.0, -60.0])
    course0 = np.pi / 2
    asc, p1, c1 = chain_arc(start, course0, 35.0, climb, 3.5 * np.pi)
    summit, p2, c2 = chain_arc(p1, c1, 60.0, 0.0, np.pi)
    desc, _, _ = chain_arc(p2, c2, 35.0, glide, 3.0 * np.pi)

    initial = _turning_state(params, start, course0, climb, v_ref, 35.0)
    return Scenario(
        name="helix",
        initial_state=initial,
        segments=(asc, summit, desc),
        duration=duration,
        v_a_ref=v_ref,
        wind=wind or md.WindVector(),
        plant_params=params,
        ocp=nmpc_ocp.OcpConfig(n_steps=70, t_step=0.1),
    )


def scenario_dubins_course(wind: md.WindVector | None = None,
                           duration: float = 150.0) -> Scenario:
    """Connected lines and tight arcs with 90 degree corners at constant
    altitude, by default in a 5 m/s westerly wind.

    Down-wind corners exceed the bank the roll limit allows at the boosted
    ground speed, so the optimizer trades corner-adjacent line tracking for
    reduced overshoot; the legs are long enough to leave a clean mid-leg
    stretch outside the horizon's corner preview.
    """
    params = md.default_params()
    v_ref = 13.5
    if wind is None:
        wind = md.WindVector(w_n=0.0, w_e=5.0, w_d=0.0)

    pos = np.array([0.0, 0.0, -60.0])
    course = 0.0
    segs = []
    for _ in range(4):  # rounded rectangle: N, E, S, W legs
        line, pos, course = chain_line(pos, course, 0.0, 350.0)
        segs.append(line)
        corner, pos, course = chain_arc(pos, course, 45.0, 0.0, np.pi / 2)
        segs.append(corner)
    closing, pos, course = chain_line(pos, course, 0.0, 250.0)
    segs.append(closing)

    initial = _turning_state(params, np.array([0.0, 0.0, -60.0]), 0.0, 0.0, v_ref, None)
    return Scenario(
        name="dubins_course",
        initial_state=initial,
        segments=tuple(segs),
        duration=duration,
        v_a_ref=v_ref,
        wind=wind,
        plant_params=params,
        ocp=nmpc_ocp.OcpConfig(n_steps=70, t_step=0.1),
    )


def scenario_motor_failure(duration: float = 55.0) -> Scenario:
    """Climbing turn to a loiter circle with a motor cut at t=15.5 s and
    restore at t=34 s; a shorter horizon (N=40 over 4 s), and the huge
    throttle weight applied while the motor is out."""
    params = md.default_params()
    v_ref = 13.5
    climb = np.radians(6.0)

    start = np.array([45.0, 0.0, -50.0])
    course0 = np.pi / 2
    climb_arc, top, _ = chain_arc(start, course0, 45.0, climb, 4.0 * np.pi)
    loiter = pth.LoiterSegment(c=np.array([0.0, 0.0, climb_arc.c[2]]), r_signed=45.0)

    initial = _turning_state(params, start, course0, climb, v_ref, 45.0)
    return Scenario(
        name="motor_failure",
        initial_state=initial,
        segments=(climb_arc, loiter),
        duration=duration,
        v_a_ref=v_ref,
        plant_params=params,
        ocp=nmpc_ocp.OcpConfig(n_steps=40, t_step=0.1),
        events=(Event(time=15.5, kind="motor_fail"),
                Event(time=34.0, kind="motor_restore")),
    )


BUILTIN_SCENARIOS = {
    "helix": scenario_helix,
    "dubins_course": scenario_dubins_course,
    "motor_failure": scenario_motor_failure,
}
