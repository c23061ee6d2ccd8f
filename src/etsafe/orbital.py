"""The impulsive station-keeping controller and its post-jump checks.

The controller keeps the orbital radius inside the barrier's annular band
around its center radius c (``2R`` for the shipped barrier) by firing
velocity impulses.  Each impulse re-shapes the osculating orbit in place
(position is unchanged, the orbital plane is preserved) so that:

* one apsis of the new ellipse sits at the blended target radius
  ``r_target(r) = c + retarget_gain * (r - c)``, halfway back toward the
  band center by default, and
* the craft sits at a prescribed true anomaly whose magnitude grows linearly
  from 0 at the band center to pi/2 at either boundary, on the branch that
  moves the craft back toward the center: outbound (anomaly in (0, pi/2])
  when inside the center radius, inbound (anomaly in [-pi, -pi/2)) when
  outside it.

Near a boundary this maximizes the corrective radial rate; near the center
the new orbit degenerates to a circle at the current radius.  Both choices
make the post-impulse barrier-condition margin large, which is what the
post-jump buffer check requires.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .barrier import BarrierSpec, barrier_condition_margin
from .dynamics import GravityModel, apply_impulse, two_body_field
from .numerics import span_problems


class ControllerInfeasibleError(RuntimeError):
    """No plane-preserving elliptic retarget satisfies the jump conditions."""

    def __init__(self, message: str, state: np.ndarray | None = None):
        super().__init__(message)
        self.state = None if state is None else np.array(state, dtype=float)


@dataclass(frozen=True)
class StationKeepingConfig:
    """Impulse controller parameters.

    post_jump_margin is the required barrier-condition margin immediately
    after each jump; it buys the guaranteed dwell time between events.
    """

    post_jump_margin: float = 0.01
    retarget_gain: float = 0.5

    def __post_init__(self) -> None:
        if problems := span_problems("post_jump_margin", self.post_jump_margin):
            raise ValueError(problems[0])
        if not 0.0 <= self.retarget_gain < 1.0:
            raise ValueError("retarget_gain must be in [0, 1)")


@dataclass(frozen=True)
class JumpCheck:
    """Verdict of the post-jump conditions: in-set and margin-buffered."""

    ok: bool
    h_value: float
    xi_value: float


_ANGULAR_MOMENTUM_FLOOR = 1e-9


def _placed_anomaly(r: float, center: float, half_width: float) -> float:
    """Post-jump true anomaly from the placement rule (see module docstring)."""
    frac = min(abs(r - center) / half_width, 1.0)
    if r >= center:
        return -np.pi + frac * (np.pi / 2.0)
    return frac * (np.pi / 2.0)


def _transfer_ellipse(r: float, nu: float, r_target: float) -> tuple[float, float]:
    """Eccentricity and semi-latus rectum of the plane-fixed retarget ellipse.

    The ellipse passes through radius r at true anomaly nu and has an apsis at
    r_target: the periapsis when the craft is outside the target, the apoapsis
    when inside.  Both branches keep e in [0, 1) for any anomaly produced by
    the placement rule.
    """
    cos_nu = np.cos(nu)
    if r >= r_target:
        denom = r * cos_nu - r_target  # periapsis branch
    else:
        denom = r * cos_nu + r_target  # apoapsis branch
    if abs(denom) < 1e-14:
        raise ControllerInfeasibleError(
            f"degenerate conic: r={r!r}, nu={nu!r}, r_target={r_target!r}"
        )
    e = (r_target - r) / denom
    p = r * (1.0 + e * cos_nu)
    if not (0.0 <= e < 1.0) or not p > 0.0:
        raise ControllerInfeasibleError(
            f"no elliptic retarget: e={e!r}, p={p!r} for r={r!r}, r_target={r_target!r}"
        )
    return float(e), float(p)


def station_keeping_impulse(
    cfg: StationKeepingConfig,
    b: BarrierSpec,
    g: GravityModel,
    s: np.ndarray,
) -> np.ndarray:
    """Velocity impulse that re-injects the craft on a safe, buffered orbit.

    Solves for the post-impulse velocity (same position, same orbital plane
    and rotation sense) realizing the retarget ellipse and placement rule
    described at module level, then verifies the post-jump buffer: the
    barrier-condition margin after the jump must be at least
    ``cfg.post_jump_margin``.  If the blended target radius fails that check,
    the impulse is re-solved targeting the band center exactly
    (retarget_gain of 0 for this jump only), which maximizes the buffer.

    Raises ControllerInfeasibleError when the craft is outside the safe band,
    the plane is undefined, or neither target satisfies the buffer.
    """
    s = np.asarray(s, dtype=float)
    pos = s[:3]
    vel = s[3:6]
    r = float(np.linalg.norm(pos))
    if b.h(s) < 0.0:
        raise ControllerInfeasibleError(
            f"state outside safe band: r={r!r}", state=s
        )
    h_vec = np.cross(pos, vel)
    h_norm = float(np.linalg.norm(h_vec))
    if h_norm < _ANGULAR_MOMENTUM_FLOOR:
        raise ControllerInfeasibleError(
            "orbital plane undefined: angular momentum near zero", state=s
        )
    n_hat = h_vec / h_norm
    r_hat = pos / r
    t_hat = np.cross(n_hat, r_hat)

    flow = lambda x: two_body_field(g, x)
    c = b.center
    nu = _placed_anomaly(r, c, b.half_width)
    for gain in (cfg.retarget_gain, 0.0):
        r_target = c + gain * (r - c)
        e, p = _transfer_ellipse(r, nu, r_target)
        h_new = np.sqrt(g.mu * p)
        v_radial = (g.mu / h_new) * e * np.sin(nu)
        v_tangential = h_new / r
        v_new = v_radial * r_hat + v_tangential * t_hat
        dv = v_new - vel
        post = apply_impulse(s, dv)
        if barrier_condition_margin(b, flow, post) >= cfg.post_jump_margin:
            return dv
        if gain == 0.0:
            break
    raise ControllerInfeasibleError(
        f"post-jump margin below {cfg.post_jump_margin!r} even when retargeting "
        f"the band center from r={r!r}",
        state=s,
    )


def verify_jump_conditions(
    b: BarrierSpec, g: GravityModel, s_post: np.ndarray, margin: float
) -> JumpCheck:
    """Audit a post-jump state: h >= 0 and barrier-condition margin >= margin.

    With margin = 0 this reduces to the plain barrier-condition check.
    """
    h_val = b.h(s_post)
    xi_val = barrier_condition_margin(b, lambda x: two_body_field(g, x), s_post)
    return JumpCheck(ok=(h_val >= 0.0 and xi_val >= margin), h_value=h_val, xi_value=xi_val)
