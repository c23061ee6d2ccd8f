"""Minimally invasive safety filtering via closed-form halfspace projection.

For the planar single integrator ``dx/dt = u + d`` (as for any
control-affine system) the robust barrier condition is linear in the input,
so the filter

    argmin_u |u - u_nom|^2   s.t.  a . u >= rhs

has the exact solution: return u_nom unchanged when it is feasible, otherwise
project orthogonally onto the constraint boundary.  One linear constraint and
no input box means no iterative QP solver is needed, and exactness removes
solver tolerance as a confound in the safety audits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .barrier import BarrierSpec
from .numerics import _dot, _dot2


class InfeasibleFilterError(RuntimeError):
    """The halfspace constraint is unsatisfiable (zero row, positive rhs), or
    its projection leaves the float range: a row so small that the projection
    step overflows, or a finite row so large that its square does.

    Feasibility of the filter is assumed, not guaranteed; this error is the
    honest surface for that assumption's failure, never silently clamped.
    """


@dataclass(frozen=True)
class HalfspaceConstraint:
    """Affine input constraint ``a . u >= rhs``."""

    a: np.ndarray
    rhs: float


def build_constraint(
    b: BarrierSpec,
    x: Sequence[float],
    mode: str = "standard",
    promote_rate: float | None = None,
) -> HalfspaceConstraint:
    """Assemble the barrier-condition halfspace of the planar single
    integrator at state x.

    ``standard`` enforces the robust barrier condition,
        grad_h . u - |grad_h| d_bar >= -gamma h,
    which keeps the safe set invariant while deviating minimally.

    ``promoting`` replaces the class-K right side with a positive floor on the
    barrier rate,
        grad_h . u - |grad_h| d_bar >= promote_rate,
    so dh/dt >= promote_rate despite the disturbance; the intermittent engine
    uses this to drive the state to a level where filtering can stop.

    The single integrator's identity input makes the row ``a = 0.0 + grad``
    and its zero drift makes the drift term ``+0.0``.
    """
    grad = b.grad_h(x)
    a = [0.0 + g for g in grad]
    # math.sqrt of the dot is bitwise np.linalg.norm of a 1-D float array
    robust = math.sqrt(_dot(grad, grad)) * b.d_bar
    if mode == "standard":
        rhs = -b.gamma * b.h(x) + robust - 0.0
    elif mode == "promoting":
        if promote_rate is None or not promote_rate > 0.0:
            raise ValueError("promoting mode requires promote_rate > 0")
        rhs = promote_rate + robust - 0.0
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return HalfspaceConstraint(a=np.array(a), rhs=float(rhs))


def filter_active(u_nom: Sequence[float], con: HalfspaceConstraint) -> bool:
    """True iff the nominal input violates the constraint (strict inequality).

    Exactly on the boundary the filter is reported inactive, so the projected
    output is the nominal input bit-exactly there.
    """
    return _dot(con.a.tolist(), _floats(u_nom)) < con.rhs


def project(u_nom: Sequence[float], con: HalfspaceConstraint) -> np.ndarray:
    """Closest point to u_nom satisfying ``a . u >= rhs``, as an ndarray.

    Feasible nominal inputs are returned unchanged (the same values,
    bit-exactly).  Otherwise the orthogonal projection onto the hyperplane
    ``a . u = rhs`` is returned, which satisfies the constraint with equality.
    Raises InfeasibleFilterError where the row is zero, where a finite
    row's square ``a . a`` overflows, or where the projection step
    ``(rhs - a . u) / (a . a)`` does.  A non-finite row (a non-finite state)
    gives a NaN step and input, left for the integrator's finiteness check.
    """
    u = _floats(u_nom)
    a = con.a.tolist()
    dot = _dot(a, u)
    if dot >= con.rhs:
        return np.array(u)
    a_sq = _dot(a, a)
    if a_sq == 0.0:
        raise _zero_row(con.rhs)
    if a_sq == math.inf and all(map(math.isfinite, a)):
        raise _square_overflow()
    step = (con.rhs - dot) / a_sq
    if math.isinf(step):
        raise _step_overflow(a_sq)
    return np.array([v + step * w for v, w in zip(u, a)])


def _zero_row(rhs: float) -> InfeasibleFilterError:
    return InfeasibleFilterError(
        f"constraint row is zero with rhs={rhs!r} > 0: no input can satisfy it"
    )


def _square_overflow() -> InfeasibleFilterError:
    return InfeasibleFilterError(
        "the constraint row's square overflows: the projection is out of float range"
    )


def _step_overflow(a_sq: float) -> InfeasibleFilterError:
    return InfeasibleFilterError(
        f"projection step overflows with row square {a_sq!r}: "
        "no finite input satisfies the constraint"
    )


def _promoting_filter(b: BarrierSpec, promote_rate: float):
    """``promote(x0, x1, u0, u1) -> (u0, u1)``: the input the promoting
    filter passes for the nominal input ``(u0, u1)`` at the planar state
    ``(x0, x1)`` of the single integrator, on named Python floats, bit for
    bit ``project(u, build_constraint(b, x, "promoting", promote_rate))``,
    its errors included.

    As there, the row is ``a = 0.0 + grad`` and the drift term ``+0.0``.
    ``a . a`` is bitwise ``grad . grad``: the two differ only in
    the sign of a zero, whose square is +0.0 either way, so the robust
    term's dot serves as the projection's denominator.
    """
    grad_h, d_bar = b.grad_h, b.d_bar
    sqrt = math.sqrt

    def promote(x0: float, x1: float, u0: float, u1: float) -> tuple[float, float]:
        g0, g1 = grad_h((x0, x1))
        a0, a1 = 0.0 + g0, 0.0 + g1
        grad_sq = _dot2(g0, g1, g0, g1)
        rhs = promote_rate + sqrt(grad_sq) * d_bar - 0.0
        dot = _dot2(a0, a1, u0, u1)
        if dot >= rhs:
            return u0, u1
        if grad_sq == 0.0:
            raise _zero_row(rhs)
        if grad_sq == math.inf and math.isfinite(a0) and math.isfinite(a1):
            raise _square_overflow()
        step = (rhs - dot) / grad_sq
        if math.isinf(step):
            raise _step_overflow(grad_sq)
        return u0 + step * a0, u1 + step * a1

    return promote


def _floats(u: Sequence[float]) -> Sequence[float]:
    return u.tolist() if isinstance(u, np.ndarray) else u
