# Event location machinery
# ========================
#
# Everything in this package reduces to one numerical primitive: integrate a
# smooth flow with fixed-step RK4 and find the earliest time a scalar monitor
# crosses zero downward.  This script shows the pieces in isolation:
# integrator order, bracketed bisection, in-step refinement against a brute
# force scan, and the disturbance bound that the robust margins rely on.

import numpy as np

from etsafe import (
    DisturbanceModel,
    EventLocatorConfig,
    GravityModel,
    IntegratorConfig,
    locate_zero_crossing,
    orbital_range_barrier,
    propagate_until,
    rk4_step,
    two_body_field,
)
from etsafe.barrier import barrier_condition_margin

# --- RK4 is 4th order: halving the step divides the error by ~16 ---
def endpoint_error(dt):
    x, t = np.array([1.0]), 0.0
    for _ in range(round(1.0 / dt)):
        x = rk4_step(lambda t_, y: -np.asarray(y), x, t, dt)
        t += dt
    return abs(x[0] - np.exp(-1.0))

e1, e2 = endpoint_error(0.1), endpoint_error(0.05)
print(f"RK4 endpoint error, dt=0.1 : {e1:.3e}")
print(f"RK4 endpoint error, dt=0.05: {e2:.3e}   ratio {e1 / e2:.1f} (asymptotic 16)")
print()

# --- bisection keeps the left-most bracket ---
cfg = EventLocatorConfig(time_tolerance=1e-12, value_tolerance=1e-12)
res = locate_zero_crossing(np.cos, 0.0, 3.0, cfg)
print(f"cos crosses zero at {res.time:.12f} (pi/2 = {np.pi / 2:.12f})")
print()

# --- monitored propagation refines in-step crossings on interpolated states ---
gravity = GravityModel()
barrier = orbital_range_barrier(gravity, gamma=0.1, d_bar=1e-3)
flow = lambda x: two_body_field(gravity, x)
monitor = lambda x: barrier_condition_margin(barrier, flow, x)

# a slightly hot orbit at r = 2.3: its apoapsis would overshoot the outer
# boundary, so the margin decays and crosses zero on the outbound leg
x0 = np.array([2.3, 0.0, 0.0, 0.0, 1.02 * np.sqrt(1.0 / 2.3), 0.0])
field = lambda t, x: two_body_field(gravity, x)
times, states, vals, crossing = propagate_until(
    field, x0, 0.0, 40.0, [monitor], IntegratorConfig(step_size=0.05), cfg
)
print(f"margin crossing located at t = {crossing.time:.6f}, value {crossing.value:.1e}")

# brute-force oracle: scan with a 10x finer step and find the sign change
fine = 0.005
t, x, prev = 0.0, x0.copy(), monitor(x0)
while t < 40.0:
    x = np.array(rk4_step(field, x, t, fine))  # the step returns Python floats
    t += fine
    val = monitor(x)
    if prev > 0.0 >= val:
        break
    prev = val
print(f"10x finer scan brackets it at t = {t:.6f} (agreement within one fine step)")
print()

# --- every disturbance sample respects its declared bound ---
model = DisturbanceModel(kind="seeded-piecewise-constant", d_bar=1e-3, seed=5)
worst = max(float(np.linalg.norm(model.sample(t))) for t in np.linspace(0, 500, 2000))
print(f"max |d| over 2000 held intervals: {worst:.6e}  (bound {model.d_bar})")
