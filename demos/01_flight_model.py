"""Tour of the control-augmented flight model.

Solves wings-level trims across the speed envelope, prints the static force
and power curves, and steps the stabilized attitude loop.
"""

import numpy as np

from fwnmpc import model as md

params = md.default_params()

print("=== trim sweep (wings level) ===")
print(f"{'v_a':>6} {'gamma':>7} {'alpha':>7} {'throttle':>9} {'theta_ref':>10}")
for v_a in (11.0, 13.5, 16.0, 18.0):
    trim = md.solve_trim(params, v_a, 0.0)
    print(f"{v_a:6.1f} {np.degrees(trim.gamma):6.1f}d {np.degrees(trim.alpha):6.2f}d"
          f" {trim.u_t:9.3f} {np.degrees(trim.theta_ref):9.2f}d")

print("\n=== static curves at 13.5 m/s ===")
print(f"{'alpha':>7} {'lift N':>8} {'drag N':>8} {'L/D':>6}")
for alpha_deg in (-3.0, 0.0, 2.0, 4.0, 6.0, 8.0):
    alpha = np.radians(alpha_deg)
    _, drag, lift = md.forces_array(13.5, alpha, 0.0, params.open_loop, params.constants)
    print(f"{alpha_deg:6.1f}d {lift:8.2f} {drag:8.3f} {lift / drag:6.1f}")

print("\n=== power curve ===")
for delta_t in (0.0, 0.25, 0.5, 0.75, 1.0):
    print(f"  throttle state {delta_t:4.2f} -> {md.power_curve(delta_t, params.open_loop):6.1f} W")

print("\n=== 10 deg roll reference step at trim ===")
trim = md.solve_trim(params, 13.5, 0.0)
state = trim.state()
control = md.ControlInput(u_t=trim.u_t, phi_ref=np.radians(10.0),
                          theta_ref=trim.theta_ref)
wind = md.WindVector()
for step in range(200):
    state = md.AircraftState.from_array(
        md.rk4_step_array(state.as_array(), control.as_array(), wind, params, 0.01))
    if step % 40 == 39:
        print(f"  t={0.01 * (step + 1):4.2f} s  phi={np.degrees(state.phi):6.2f} deg"
              f"  p={np.degrees(state.p):7.2f} deg/s")
