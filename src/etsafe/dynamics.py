"""Vector fields, jump maps, and bounded disturbance models.

Units are normalized: the central body has gravitational parameter mu = 1 and
mean radius R = 1, so all lengths are in body radii and time is the
corresponding dynamical unit.  Satellite states are flat 6-vectors
``[rx, ry, rz, vx, vy, vz]`` in a body-centered inertial frame.

A disturbance is a function of time alone, ``d(t)`` on one stream of one
seed; the trigger margins use only its bound d_bar, never its form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .numerics import SingularityError, span_problems


@dataclass(frozen=True)
class GravityModel:
    """Point-mass central body."""

    mu: float = 1.0
    R: float = 1.0

    def __post_init__(self) -> None:
        for name in ("mu", "R"):
            if problems := span_problems(name, getattr(self, name)):
                raise ValueError(problems[0])

    @property
    def singularity_floor(self) -> float:
        """Default radius below which the two-body field raises, 0.1 R."""
        return 0.1 * self.R


def two_body_field(
    g: GravityModel, s: Sequence[float], accel: Optional[Sequence[float]] = None
) -> tuple[float, ...]:
    """Two-body derivative ``d/dt [r, v] = [v, -mu r / |r|^3 + accel]``.

    ``s`` is any sequence of six floats (a list, a tuple or an ndarray); the
    derivative is a tuple of floats.  ``accel`` is an extra acceleration (the
    disturbance), added to each gravity component with one IEEE addition.
    The singularity floor only guards pathological configurations; the safe
    set keeps the radius well above it.
    """
    floor = g.singularity_floor
    # Python floats run the same IEEE operations as numpy scalars, faster.
    x0, x1, x2, v0, v1, v2 = s.tolist() if isinstance(s, np.ndarray) else s
    r = math.sqrt(x0 * x0 + x1 * x1 + x2 * x2)
    if r < floor:
        raise _below_floor(r, floor)
    k = -g.mu / (r * r * r)
    if accel is None:
        return (v0, v1, v2, k * x0, k * x1, k * x2)
    a0, a1, a2 = accel
    return (v0, v1, v2, k * x0 + a0, k * x1 + a1, k * x2 + a2)


def _below_floor(r: float, floor: float) -> SingularityError:
    return SingularityError(f"radius {r!r} below singularity floor {floor!r}")


def _two_body_rk4(mu: float, floor: float, accel):
    """``step(t, dt, x) -> new state``: one RK4 step of the two-body flow
    plus the disturbance ``accel(t)`` on Python floats, bit for bit the
    generic step of :func:`etsafe.numerics.rk4_step` on
    ``two_body_field(g, s, accel=accel(t))``.

    The disturbance is taken once for stages 2 and 3, which share a time.  A
    stage radius below ``floor`` raises SingularityError; a floor of 0.0
    never does, and a zero radius then raises ZeroDivisionError.  Stage
    derivatives are not checked: a non-finite one leaves the new state
    non-finite, for the caller to check.
    """

    def step(t: float, dt: float, x: Sequence[float]):
        x0, x1, x2, v0, v1, v2 = x
        half = 0.5 * dt
        th = t + half
        sqrt = math.sqrt
        # stage 1 at (t, x); each stage's velocity block is its state's velocity
        d0, d1, d2 = accel(t)
        r = sqrt(x0 * x0 + x1 * x1 + x2 * x2)
        if r < floor:
            raise _below_floor(r, floor)
        q = -mu / (r * r * r)
        a0, a1, a2 = q * x0 + d0, q * x1 + d1, q * x2 + d2
        # stage 2 at x + half k1
        p0, p1, p2 = x0 + half * v0, x1 + half * v1, x2 + half * v2
        u0, u1, u2 = v0 + half * a0, v1 + half * a1, v2 + half * a2
        d0, d1, d2 = accel(th)
        r = sqrt(p0 * p0 + p1 * p1 + p2 * p2)
        if r < floor:
            raise _below_floor(r, floor)
        q = -mu / (r * r * r)
        b0, b1, b2 = q * p0 + d0, q * p1 + d1, q * p2 + d2
        # stage 3 at x + half k2, with stage 2's disturbance
        p0, p1, p2 = x0 + half * u0, x1 + half * u1, x2 + half * u2
        w0, w1, w2 = v0 + half * b0, v1 + half * b1, v2 + half * b2
        r = sqrt(p0 * p0 + p1 * p1 + p2 * p2)
        if r < floor:
            raise _below_floor(r, floor)
        q = -mu / (r * r * r)
        c0, c1, c2 = q * p0 + d0, q * p1 + d1, q * p2 + d2
        # stage 4 at x + dt k3
        p0, p1, p2 = x0 + dt * w0, x1 + dt * w1, x2 + dt * w2
        z0, z1, z2 = v0 + dt * c0, v1 + dt * c1, v2 + dt * c2
        d0, d1, d2 = accel(t + dt)
        r = sqrt(p0 * p0 + p1 * p1 + p2 * p2)
        if r < floor:
            raise _below_floor(r, floor)
        q = -mu / (r * r * r)
        e0, e1, e2 = q * p0 + d0, q * p1 + d1, q * p2 + d2
        # x + (dt/6) (((k1 + 2 k2) + 2 k3) + k4)
        sixth = dt / 6.0
        n0 = x0 + sixth * (((v0 + 2.0 * u0) + 2.0 * w0) + z0)
        n1 = x1 + sixth * (((v1 + 2.0 * u1) + 2.0 * w1) + z1)
        n2 = x2 + sixth * (((v2 + 2.0 * u2) + 2.0 * w2) + z2)
        m0 = v0 + sixth * (((a0 + 2.0 * b0) + 2.0 * c0) + e0)
        m1 = v1 + sixth * (((a1 + 2.0 * b1) + 2.0 * c1) + e1)
        m2 = v2 + sixth * (((a2 + 2.0 * b2) + 2.0 * c2) + e2)
        return n0, n1, n2, m0, m1, m2

    return step


def _single_integrator_rk4(control, accel):
    """``step(t, dt, x) -> new state``: one RK4 step of the planar single
    integrator under the input ``control(x0, x1) -> (u0, u1)`` plus the
    disturbance ``accel(t)``, on Python floats, bit for bit the generic step
    of :func:`etsafe.numerics.rk4_step` on the field whose stage derivative
    is ``(0.0 + u) + d``: the closed loop of
    :meth:`etsafe.scenarios.PlanarScenario.nominal_flow` plus the
    disturbance.

    The disturbance is taken once for stages 2 and 3, which share a time.
    Stage derivatives are not checked: a non-finite one leaves every later
    stage state, and the new state, non-finite, for the caller to check.
    """

    def step(t: float, dt: float, x: Sequence[float]):
        x0, x1 = x
        half = 0.5 * dt
        # stage 1 at (t, x)
        u0, u1 = control(x0, x1)
        d0, d1 = accel(t)
        a0, a1 = (0.0 + u0) + d0, (0.0 + u1) + d1
        # stage 2 at x + half k1
        u0, u1 = control(x0 + half * a0, x1 + half * a1)
        d0, d1 = accel(t + half)
        b0, b1 = (0.0 + u0) + d0, (0.0 + u1) + d1
        # stage 3 at x + half k2, with stage 2's disturbance
        u0, u1 = control(x0 + half * b0, x1 + half * b1)
        c0, c1 = (0.0 + u0) + d0, (0.0 + u1) + d1
        # stage 4 at x + dt k3
        u0, u1 = control(x0 + dt * c0, x1 + dt * c1)
        d0, d1 = accel(t + dt)
        e0, e1 = (0.0 + u0) + d0, (0.0 + u1) + d1
        # x + (dt/6) (((k1 + 2 k2) + 2 k3) + k4)
        sixth = dt / 6.0
        return (
            x0 + sixth * (((a0 + 2.0 * b0) + 2.0 * c0) + e0),
            x1 + sixth * (((a1 + 2.0 * b1) + 2.0 * c1) + e1),
        )

    return step


def apply_impulse(s: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """Instantaneous velocity change: position unchanged, velocity += dv."""
    out = np.array(s, dtype=float)
    out[3:] += dv
    return out


# --- Seeded disturbance models ---
#
# The piecewise-constant kind draws its held vectors from a counter-based
# integer hash instead of a stateful RNG: the value on interval k of stream s
# is a pure function of (seed, s, k), so scalar simulation, batched sampling
# campaigns, and parallel sub-runs all see identical realizations.  Every
# sampler reads them from DisturbanceModel.held (the keyed draws of Salmon et
# al., "Parallel random numbers: as easy as 1, 2, 3", SC'11).

_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_MUL2 = np.uint64(0x94D049BB133111EB)
_STREAM_SALT = np.uint64(0xD1342543DE82EF95)
_INTERVAL_SALT = np.uint64(0xAF251AF3B0F025B5)


def _splitmix64(z: np.ndarray) -> np.ndarray:
    z = (z + _SM_GAMMA).astype(np.uint64)
    z = ((z ^ (z >> np.uint64(30))) * _SM_MUL1).astype(np.uint64)
    z = ((z ^ (z >> np.uint64(27))) * _SM_MUL2).astype(np.uint64)
    return (z ^ (z >> np.uint64(31))).astype(np.uint64)


def seed_problems(name: str, seed: Optional[int]) -> list[str]:
    """The rule for a seed, the 64-bit key of every hashed draw: an integer
    in [0, 2**64).  One message naming ``name`` if ``seed`` breaks it, else
    none; None goes unchecked."""
    if seed is None or 0 <= seed < 2**64:
        return []
    return [f"{name} must be >= 0" if seed < 0 else f"{name} must be < 2**64"]


def _hash_uniforms(
    seed: int, streams: np.ndarray, intervals: np.ndarray, count: int
) -> np.ndarray:
    """(N, count) uniforms in (0, 1], deterministic in all keys.

    ``streams`` and ``intervals`` are broadcast against each other.
    """
    base = _splitmix64(np.uint64(seed) * np.ones(1, dtype=np.uint64))[0]
    z = _splitmix64(base ^ (np.asarray(streams, dtype=np.uint64) * _STREAM_SALT))
    z = _splitmix64(z ^ (np.asarray(intervals, dtype=np.uint64) * _INTERVAL_SALT))
    cols = []
    for _ in range(count):
        z = _splitmix64(z)
        cols.append(((z >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53)
    return np.stack(cols, axis=-1)


def _hash_unit_vectors(
    seed: int, streams: np.ndarray, intervals: np.ndarray, dim: int
) -> np.ndarray:
    """(N, dim) unit vectors, uniform on the sphere, via Box-Muller."""
    n_pairs = (dim + 1) // 2
    u = _hash_uniforms(seed, streams, intervals, 2 * n_pairs)
    radius = np.sqrt(-2.0 * np.log(u[..., 0::2]))
    angle = 2.0 * np.pi * u[..., 1::2]
    normals = np.empty(u.shape)
    normals[..., 0::2] = radius * np.cos(angle)
    normals[..., 1::2] = radius * np.sin(angle)
    vecs = normals[..., :dim]
    norms = np.linalg.norm(vecs, axis=-1, keepdims=True)
    norms[norms < 1e-300] = 1.0
    return vecs / norms


_DISTURBANCE_KINDS = ("none", "seeded-piecewise-constant")


@dataclass(frozen=True)
class DisturbanceModel:
    """Bounded disturbance acceleration ``d(t)``, a function of time alone.

    Kinds:

    * ``none``: identically zero.
    * ``seeded-piecewise-constant``: a vector of magnitude d_bar with a fresh
      hash-derived direction every ``hold_time``, per (seed, stream).

    A held vector is d_bar times a unit vector, each rounded, so ``|d|`` may
    exceed d_bar by rounding: at seed 1, streams 1-200 and intervals 0-1999
    with d_bar = 1e-3, 23,986 of the 400,000 vectors do, by at most 4.3e-19
    (2 ulps of d_bar).  Samples are not clamped.
    """

    kind: str = "none"
    d_bar: float = 0.0
    seed: int = 0
    hold_time: float = 1.0
    dim: int = 3

    def __post_init__(self) -> None:
        if self.kind not in _DISTURBANCE_KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if not self.d_bar >= 0.0:
            raise ValueError("d_bar must be >= 0")
        if self.d_bar == math.inf:
            raise ValueError("d_bar must be finite")
        if self.kind != "none" and not self.d_bar > 0.0:
            raise ValueError(f"kind {self.kind!r} requires d_bar > 0")
        if problems := span_problems("hold_time", self.hold_time):
            raise ValueError(problems[0])
        if self.dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        if problems := seed_problems("seed", self.seed):
            raise ValueError(problems[0])

    def sample(self, t: float, stream: int = 0) -> np.ndarray:
        """Disturbance vector at time t on stream ``stream``: the reference
        that every sampler matches bit for bit."""
        if self.kind == "none":
            return np.zeros(self.dim)
        interval = int(np.floor(t / self.hold_time))
        return self.held(np.array([stream], dtype=np.uint64), interval, 1)[0, 0]

    def held(self, streams: np.ndarray, first: int, count: int) -> np.ndarray:
        """Held vectors of the piecewise-constant kind: ``streams`` (uint64)
        on hold intervals ``first .. first+count-1``, as
        ``(n_streams, count, dim)``; each row depends only on
        (seed, stream, interval)."""
        intervals = np.arange(first, first + count, dtype=np.uint64)
        return self.d_bar * _hash_unit_vectors(
            self.seed, streams[:, None], intervals[None, :], self.dim
        )

    def realize(self, stream: int = 0) -> Callable[[float], Sequence[float]]:
        """Per-run sampler ``d(t)`` of stream ``stream``, for any ``t >= 0``.

        The sampler returns a sequence of Python floats, bit for bit
        :meth:`sample`; the caller reads it before the next call.  The
        piecewise-constant kind hashes ``_LANE_BLOCK`` hold intervals at a
        time, starting at the interval that needs them, into one block of
        Python floats that it refills in place.
        """
        if self.kind == "none":
            zero = (0.0,) * self.dim
            return lambda t: zero
        hold = self.hold_time
        floor = math.floor
        key = np.array([stream], dtype=np.uint64)
        # one list per interval, made once: fresh lists at every refill,
        # interleaved with the step loop's objects, fragmented the heap
        block = [[0.0] * self.dim for _ in range(_LANE_BLOCK)]
        start = end = 0  # the intervals block holds, start .. end-1

        def sampler(t: float) -> list[float]:
            nonlocal start, end
            k = floor(t / hold)
            if start <= k < end:
                return block[k - start]
            start, end = k, k + _LANE_BLOCK
            for row, vec in zip(block, self.held(key, k, _LANE_BLOCK)[0].tolist()):
                row[:] = vec
            return block[0]

        return sampler


# Hold intervals hashed per call of :meth:`DisturbanceModel.held`: for all
# live campaign lanes at once (:class:`_LaneDisturbance`), and for one stream
# (:meth:`DisturbanceModel.realize`, the scalar engine and the campaign's
# float tail).  A call costs ≈0.2 ms almost whatever its length (one stream:
# 184 µs for 16 intervals, 256 µs for 256), so a single stream takes a long
# block, ≈40 KB of floats, and the lanes a short one, as their block grows
# with the width.
_HELD_BLOCK = 16
_LANE_BLOCK = 256


class _LaneDisturbance:
    """Disturbance acceleration ``d(t)`` of the campaign's live lanes, as
    ``(dim, n_live)`` or 0.0, each column bit for bit
    :meth:`DisturbanceModel.sample` of its lane's stream.

    The held vectors of the live lanes are hashed ``_HELD_BLOCK`` intervals
    per call and kept as a ``(block, dim, n_live)`` table.  A row it returns
    is a view of that table, which a refill or :meth:`keep` replaces and
    never writes in place, so the campaign keeps the rows it read over a
    block of steps and hands a fired lane's column of them to the crossing's
    refinement.
    """

    def __init__(self, model: DisturbanceModel, streams: np.ndarray) -> None:
        self.model = model
        self.streams = streams
        self.block = np.empty((0, model.dim, len(streams)))
        self.start = 0

    def __call__(self, t: float):
        dist = self.model
        if dist.kind == "none":
            return 0.0
        k = math.floor(t / dist.hold_time)
        if not self.start <= k < self.start + len(self.block):
            self.block = np.ascontiguousarray(
                dist.held(self.streams, k, _HELD_BLOCK).transpose(1, 2, 0)
            )
            self.start = k
        return self.block[k - self.start]

    def keep(self, mask: np.ndarray) -> None:
        """Drop the lanes where ``mask`` is False."""
        self.streams = self.streams[mask]
        self.block = self.block.compress(mask, axis=2)
