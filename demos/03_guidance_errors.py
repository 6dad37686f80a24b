"""Tour of the look-ahead guidance errors.

Shows the lateral error angle during an offset approach to a line and the
longitudinal setpoint shaping on a climb, plus the turn feed-forward bank.
"""

import numpy as np

from fwnmpc import guidance as gd
from fwnmpc import paths

cfg = gd.GuidanceConfig()
print(f"guidance config: T_b_lat={cfg.t_b_lat} s, T_b_lon={cfg.t_b_lon} s, "
      f"climb {cfg.d_dot_clmb} m/s, sink {cfg.d_dot_sink} m/s")

line = paths.LineSegment(b=np.array([1000.0, 0.0, -60.0]), chi_p=0.0, gamma_p=0.0)
print("\n=== lateral approach: flying north, offset east of a northbound line ===")
print(f"{'offset':>7} {'e_lat':>8} {'eta_lat':>9}")
for offset in (50.0, 20.0, 10.0, 5.0, 1.0, 0.0):
    pos = np.array([0.0, offset, -60.0])
    cp = paths.closest_point_line(line, pos)
    errs = gd.guidance_errors(pos, np.array([13.5, 0.0, 0.0]), line, cp, cfg)
    print(f"{offset:7.1f} {errs.e_lat:8.2f} {np.degrees(errs.eta_lat):8.2f}d")

print("\n=== longitudinal shaping: below a climbing path ===")
print(f"{'e_lon':>7} {'d_dot_sp':>9} {'eta_lon':>8}")
climb = paths.LineSegment(b=np.array([1000.0, 0.0, -60.0]), chi_p=0.0,
                          gamma_p=np.radians(8.0))
v_g = np.array([13.4, 0.0, -1.0])
for e_lon in (-30.0, -10.0, -3.0, -1.0, 0.0, 5.0):
    # the closest point lies e_lon below (+) or above (-) the aircraft
    cp = paths.closest_point_line(climb, np.zeros(3))
    pos = cp.p - np.array([0.0, 0.0, e_lon])
    errs = gd.guidance_errors(pos, v_g, climb, cp, cfg)
    print(f"{errs.e_lon:7.1f} {errs.d_dot_sp:9.2f} {errs.eta_lon:8.3f}")

print("\n=== feed-forward bank on a 35 m clockwise arc at 13.5 m/s ===")
arc = paths.ArcSegment(c=np.zeros(3), r_signed=35.0, chi_p=0.0, gamma_p=0.0)
for offset in (0.0, 1.0, 3.0, 6.0, 13.5):
    # offset outward from the circle, across the eastbound track at the north point
    pos = np.array([35.0 + offset, 0.0, 0.0])
    cp = paths.closest_point_arc(arc, pos)
    errs = gd.guidance_errors(pos, np.array([0.0, 13.5, 0.0]), arc, cp, cfg)
    print(f"  normalized error {errs.e_prime:4.2f} -> {np.degrees(errs.phi_ff):5.1f} deg bank")
