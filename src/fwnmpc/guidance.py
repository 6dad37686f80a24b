"""Look-ahead guidance errors for lateral-directional and longitudinal tracking.

The lateral error is the angle between the ground velocity and a look-ahead
vector blended from the path tangent and the direction back to the path. The
longitudinal error is a vertical-rate offset normalized by the climb/sink
envelope, which stays meaningful even at near-zero horizontal ground speed.

`guidance_columns` evaluates the errors for columns, the form the NMPC
outputs use; `guidance_errors` is its one-position call for the closed-loop
log and is the only entry point that raises on degenerate inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fwnmpc.model import PhysicalConstants, wrap_angle
from fwnmpc.paths import ClosestPoint, LineSegment


class ZeroGroundSpeedError(ValueError):
    """Lateral guidance is undefined at zero horizontal ground speed.

    Callers hold the previous error value when this is raised.
    """


@dataclass(frozen=True)
class GuidanceConfig:
    """Track-error-bound time constants and the vertical rate envelope.

    Climb and sink rates are stored as positive magnitudes; in the NED sign
    convention climbing means d_dot < 0.
    """

    t_b_lat: float = 1.0       # s
    t_b_lon: float = 1.0       # s
    d_dot_clmb: float = 3.5    # m/s, maximum climb rate (magnitude)
    d_dot_sink: float = 1.5    # m/s, maximum sink rate (magnitude)

    def __post_init__(self):
        for name in ("t_b_lat", "t_b_lon", "d_dot_clmb", "d_dot_sink"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"guidance parameter {name} must be > 0")


@dataclass(frozen=True)
class GuidanceErrors:
    """Guidance errors plus the intermediate tracking quantities: floats at
    one position, (M,) arrays for columns."""

    eta_lat: float         # rad, wrapped to (-pi, pi]
    eta_lon: float         # dimensionless vertical-rate error
    e_lat: float           # m, signed lateral track error
    e_lon: float           # m, signed vertical track error
    d_dot_sp: float        # m/s, vertical velocity setpoint
    e_prime: float         # lateral track error over its bound, in [0, 1]
    phi_ff: float          # rad, roll feed-forward of the turn


def track_error_bound(speed, t_b):
    """Adaptive track-error boundary with a smooth floor below unit speed.

    Both branches agree in value and first derivative at speed 1.
    """
    speed = np.asarray(speed, dtype=float)
    bound = np.where(speed > 1.0, speed * t_b, 0.5 * t_b * (1.0 + speed ** 2))
    if bound.ndim == 0:
        return float(bound)
    return bound


def lookahead_mapping(e_prime):
    """Quadratic map from normalized track error to the tangent/error blend.

    Saturates the input to [0, 1]; returns 0 on the track and 1 at or beyond
    the track-error boundary.
    """
    e_prime = np.clip(np.asarray(e_prime, dtype=float), 0.0, 1.0)
    theta = -e_prime * (e_prime - 2.0)
    if theta.ndim == 0:
        return float(theta)
    return theta


def guidance_columns(r, v_g, p, t, r_signed, g: float, cfg: GuidanceConfig) -> GuidanceErrors:
    """Guidance errors for columns of positions `r`, ground velocities
    `v_g`, closest points `p` and unit path tangents `t`, each a (3, M)
    array or three (M,) rows. `r_signed` (M,) is the signed radius of each
    column's turn, 0 on lines; `g` is the gravity of the feed-forward bank.

    Lateral: the look-ahead direction blends the horizontal unit tangent
    with the unit direction back to the path by `lookahead_mapping` of the
    normalized track error e_prime; an anti-parallel blend falls back to
    the tangent. Only its direction enters eta_lat, so it is not
    normalized. At zero horizontal ground speed the velocity course reads 0.

    Longitudinal: the on-track vertical rate is the ground speed projected
    on the tangent's down component, clamped to the climb/sink envelope,
    and blended toward the envelope limit by the normalized vertical error.

    Feed-forward: the coordinated-turn bank for the horizontal ground speed
    (zero on lines), faded out smoothly as e_prime approaches 1.
    """
    r_n, r_e, r_d = r
    v_gn, v_ge, v_gd = v_g
    p_n, p_e, p_d = p
    t_n, t_e, t_d = t

    t_norm = np.maximum(np.hypot(t_n, t_e), 1e-12)
    tb_n, tb_e = t_n / t_norm, t_e / t_norm
    err_n, err_e = p_n - r_n, p_e - r_e
    # positive when the aircraft is left of the path looking along the tangent
    e_lat = tb_n * err_e - tb_e * err_n
    speed_lat = np.hypot(v_gn, v_ge)
    e_prime = np.clip(np.abs(e_lat) / track_error_bound(speed_lat, cfg.t_b_lat), 0.0, 1.0)
    theta_l = lookahead_mapping(e_prime)

    err_norm = np.hypot(err_n, err_e)
    safe_err = np.maximum(err_norm, 1e-12)
    eb_n = np.where(err_norm > 1e-12, err_n / safe_err, 0.0)
    eb_e = np.where(err_norm > 1e-12, err_e / safe_err, 0.0)
    l_n = (1.0 - theta_l) * tb_n + theta_l * eb_n
    l_e = (1.0 - theta_l) * tb_e + theta_l * eb_e
    degenerate = np.hypot(l_n, l_e) < 1e-12
    l_n = np.where(degenerate, tb_n, l_n)
    l_e = np.where(degenerate, tb_e, l_e)
    moving = speed_lat > 1e-9
    eta_lat = wrap_angle(np.arctan2(l_e, l_n) - np.arctan2(np.where(moving, v_ge, 0.0),
                                                           np.where(moving, v_gn, 1.0)))

    e_lon = p_d - r_d
    speed = np.sqrt(v_gn ** 2 + v_ge ** 2 + v_gd ** 2)
    d_dot_p = np.clip(speed * t_d, -cfg.d_dot_clmb, cfg.d_dot_sink)
    delta_dd = np.where(e_lon < 0.0, -cfg.d_dot_clmb - d_dot_p, cfg.d_dot_sink - d_dot_p)
    theta_lon = lookahead_mapping(np.abs(e_lon / track_error_bound(np.abs(delta_dd),
                                                                   cfg.t_b_lon)))
    d_dot_sp = delta_dd * theta_lon + d_dot_p
    eta_lon = (d_dot_sp - v_gd) / (cfg.d_dot_clmb + cfg.d_dot_sink)

    turning = r_signed != 0.0
    bank = np.arctan(speed_lat ** 2 / (g * np.where(turning, r_signed, 1.0)))
    phi_ff = np.where(turning, bank * (0.5 * (1.0 + np.cos(np.pi * e_prime))), 0.0)
    return GuidanceErrors(eta_lat=eta_lat, eta_lon=eta_lon, e_lat=e_lat, e_lon=e_lon,
                          d_dot_sp=d_dot_sp, e_prime=e_prime, phi_ff=phi_ff)


def guidance_errors(r, v_g, seg, cp: ClosestPoint, cfg: GuidanceConfig) -> GuidanceErrors:
    """`guidance_columns` at one aircraft position, with phi_ff at standard
    gravity.

    Raises ZeroGroundSpeedError when the horizontal ground speed vanishes;
    the caller holds the previous value in that case.
    """
    v_g = np.asarray(v_g, dtype=float)
    if np.hypot(v_g[0], v_g[1]) <= 0.0:
        raise ZeroGroundSpeedError("lateral guidance undefined at zero ground speed")
    r_signed = 0.0 if isinstance(seg, LineSegment) else seg.r_signed
    errs = guidance_columns(np.asarray(r, dtype=float)[:, None], v_g[:, None],
                            cp.p[:, None], cp.t_hat[:, None], np.array([r_signed]),
                            PhysicalConstants.g, cfg)
    return GuidanceErrors(*(float(v[0]) for v in vars(errs).values()))
