# Orbit keeping with greedy event-triggered impulses
# ===================================================
#
# A satellite coasts around a normalized central body (mu = R = 1) under a
# bounded random disturbance.  Safety means staying in the radial band
# 1.6 <= r <= 2.4 body radii, encoded by the barrier h = 0.4^2 - (r - 2)^2.
# Nothing happens until the robust barrier-condition margin
#
#     dh/dt - |grad h| d_bar + gamma h
#
# decays to zero; at that instant a single velocity impulse re-injects the
# craft onto a plane-preserving ellipse headed back toward the band center,
# and the coast resumes.  This script runs a medium horizon and prints what
# fired, when, and how safe the trajectory stayed.

import numpy as np

from etsafe import (
    DisturbanceModel,
    IntegratorConfig,
    StationKeepingConfig,
    orbital_range_barrier,
)
from etsafe.engine import run_greedy_impulsive
from etsafe.scenarios import SatelliteScenario

d_bar = 1e-3

scenario = SatelliteScenario(
    barrier=orbital_range_barrier(gamma=0.1, d_bar=d_bar),
    controller=StationKeepingConfig(post_jump_margin=0.01, retarget_gain=0.5),
    disturbance=DisturbanceModel(
        kind="seeded-piecewise-constant", d_bar=d_bar, seed=1, hold_time=1.0
    ),
    integrator=IntegratorConfig(step_size=0.05),
)

# Near-circular start a bit above the band center.
x0 = np.array([2.2, 0.0, 0.0, 0.0, np.sqrt(1.0 / 2.2), 0.0])
horizon = 3000.0

result = run_greedy_impulsive(scenario, x0, horizon)
s = result.summary

print(f"horizon {horizon}: {s.jump_count} impulses")
print(f"  min h over the run     : {s.min_h:.5f}  (safe iff >= 0)")
print(f"  min margin on flow     : {s.min_xi_flow:.2e}  (grazes zero only at firings)")
print(f"  analytic dwell bound   : {s.miet_lower_bound:.4f}")
print(f"  min observed gap       : {s.min_inter_event_time}")
print()
print("event log:")
for e in result.events:
    print(
        f"  t={e.time:8.2f}  fired={e.trigger_id:8s} at h={e.h_before:.4f}  "
        f"|dv|={e.impulse_magnitude:.4f}  margin after={e.xi_after:.4f}"
    )

# The trajectory is dense enough to audit offline; radius excursions show the
# drift-and-correct pattern.
radii = np.linalg.norm(result.trajectory.states[:, :3], axis=1)
print()
print(f"radius range visited: [{radii.min():.4f}, {radii.max():.4f}] (band [1.6, 2.4])")
