"""Minimally invasive safety filtering via closed-form halfspace projection.

For control-affine dynamics the robust barrier condition is linear in the
input, so the filter

    argmin_u |u - u_nom|^2   s.t.  a . u >= rhs

has the exact solution: return u_nom unchanged when it is feasible, otherwise
project orthogonally onto the constraint boundary.  One linear constraint and
no input box means no iterative QP solver is needed, and exactness removes
solver tolerance as a confound in the safety audits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .barrier import BarrierSpec
from .dynamics import ControlAffineSystem


class InfeasibleFilterError(RuntimeError):
    """The halfspace constraint is unsatisfiable (zero row, positive rhs).

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
    sys: ControlAffineSystem,
    x: np.ndarray,
    mode: str = "standard",
    promote_rate: float | None = None,
) -> HalfspaceConstraint:
    """Assemble the barrier-condition halfspace at state x.

    ``standard`` enforces the robust barrier condition,
        grad_h . (drift + G u) - |grad_h| d_bar >= -gamma h,
    which keeps the safe set invariant while deviating minimally.

    ``promoting`` replaces the class-K right side with a positive floor on the
    barrier rate,
        grad_h . (drift + G u) - |grad_h| d_bar >= promote_rate,
    so dh/dt >= promote_rate despite the disturbance; the intermittent engine
    uses this to drive the state to a level where filtering can stop.
    """
    grad = np.asarray(b.grad_h(x), dtype=float)
    drift = np.asarray(sys.drift(x), dtype=float)
    g_mat = np.asarray(sys.input_matrix(x), dtype=float)
    a = grad @ g_mat
    robust = float(np.linalg.norm(grad)) * b.d_bar
    lfh_drift = float(grad @ drift)
    if mode == "standard":
        rhs = -b.gamma * b.h(x) + robust - lfh_drift
    elif mode == "promoting":
        if promote_rate is None or not promote_rate > 0.0:
            raise ValueError("promoting mode requires promote_rate > 0")
        rhs = promote_rate + robust - lfh_drift
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return HalfspaceConstraint(a=np.asarray(a, dtype=float), rhs=float(rhs))


def filter_active(u_nom: np.ndarray, con: HalfspaceConstraint) -> bool:
    """True iff the nominal input violates the constraint (strict inequality).

    Exactly on the boundary the filter is reported inactive, so the projected
    output is the nominal input bit-exactly there.
    """
    return float(con.a @ u_nom) < con.rhs


def project(u_nom: np.ndarray, con: HalfspaceConstraint) -> np.ndarray:
    """Closest point to u_nom satisfying ``a . u >= rhs``.

    Feasible nominal inputs are returned unchanged (the same array contents,
    bit-exactly).  Otherwise the orthogonal projection onto the hyperplane
    ``a . u = rhs`` is returned, which satisfies the constraint with equality.
    """
    u_nom = np.asarray(u_nom, dtype=float)
    a = con.a
    dot = float(a @ u_nom)
    if dot >= con.rhs:
        return u_nom.copy()
    a_sq = float(a @ a)
    if a_sq == 0.0:
        raise InfeasibleFilterError(
            f"constraint row is zero with rhs={con.rhs!r} > 0: no input can satisfy it"
        )
    return u_nom + ((con.rhs - dot) / a_sq) * a
