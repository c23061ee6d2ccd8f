# Event-triggered intermittent safety filtering
# ==============================================
#
# A planar single integrator tracks a goal that sits just OUTSIDE the unit
# safe disk, so left alone the nominal controller would drive the state out.
# Instead of filtering continuously, a safety filter toggles:
#
#   off:  pure nominal control, while the barrier-condition margin under the
#         nominal loop stays positive;
#   on:   a rate-promoting filter (minimum-deviation projection onto
#         dh/dt >= promote_rate despite the disturbance bound), until the
#         margin recovers past a hysteresis gap.
#
# A pre-run sampled check guarantees the off trigger can always fire: above
# the recovery level h_bar the nominal loop already satisfies the margin with
# the gap to spare, and during on periods h rises at >= promote_rate, so each
# on period lasts at most (h_bar - h_on) / promote_rate.

import numpy as np

from etsafe import DisturbanceModel, IntegratorConfig, planar_disk_barrier
from etsafe.engine import run_intermittent_filter
from etsafe.scenarios import FilterConfig, PlanarScenario

scenario = PlanarScenario(
    barrier=planar_disk_barrier(rho=1.0, gamma=2.0, d_bar=0.01),
    disturbance=DisturbanceModel(
        kind="seeded-piecewise-constant", d_bar=0.01, seed=2, hold_time=0.5, dim=2
    ),
    # an unsafe nominal objective; rate, gap and recovery level at their
    # defaults 0.05, 0.05 and 0.2
    filter=FilterConfig(goal=(1.05, 0.0)),
    integrator=IntegratorConfig(step_size=0.01),
)

result = run_intermittent_filter(scenario, np.zeros(2), 40.0)
s = result.summary

print(f"pre-run nominal-safety check sampled {s.assumption_check_samples} states: ok")
print(f"cycles: {s.filter_on_count} on / {s.filter_off_count} off over horizon 40")
print(f"min h: {s.min_h:.4f} (the filter holds the state short of the boundary)")
print(f"max on duration: {s.max_on_duration:.3f}")
print()

print("first cycles (on at margin 0, off once it recovers to the 0.05 gap):")
events = result.events
for i, e in enumerate(events[:10]):
    line = f"  t={e.time:7.3f}  {e.kind:10s} h={e.h_before:.4f} margin={e.xi_after:+.4f}"
    if e.kind == "filter_off":
        on = events[i - 1]
        bound = (scenario.filter.recovery_level - on.h_before) / scenario.filter.promote_rate
        line += f"   (on lasted {e.time - on.time:.3f}, bound {bound:.3f})"
    print(line)

# During on periods h must rise at the promoted rate or faster, disturbance
# included; check it from the dense samples.
traj = result.trajectory
on = traj.filter_on.astype(bool)
dt = np.diff(traj.times)
dh = np.diff(traj.h)
inside = on[:-1] & on[1:] & (dt > 1e-12)
print()
print(f"min dh/dt across all on-period samples: {np.min(dh[inside] / dt[inside]):.4f}"
      f" (promoted rate {scenario.filter.promote_rate})")
