"""Constant-velocity Kalman filter over (cx, cy, w, h) box states.

State layout is the usual tracker convention: four box components followed
by their per-frame velocities. All noise magnitudes scale with the current
box height. The initial velocity variance is deliberately enormous (a flat
prior): with exact constant-velocity input the filter then locks onto the
true velocity within two updates instead of dragging a damped transient.

The transition, the noise and the prior treat the four box components alike,
so the 8x8 covariance is always kron([[pp, pv], [pv, vv]], I4). The state
keeps only that 2x2 block, and predict and update are scalar arithmetic on
it. Each block entry is computed with the same products, in the same order,
as the 8x8 Joseph-form recursion, so both give bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BoundingBox, from_center, to_center

__all__ = ["MotionNoise", "KalmanState", "kf_init", "kf_predict", "kf_update", "state_to_bbox"]

_MIN_SIZE = 1e-3


@dataclass(frozen=True)
class MotionNoise:
    """Noise std multipliers, each applied to the current box height.

    The init multipliers are huge on purpose: a freshly spawned track starts
    from a flat prior, so its state is pinned by the first two measurements
    instead of being dragged toward the spawn box and a zero velocity.
    """

    pos: float = 1.0 / 20.0
    vel: float = 1.0 / 160.0
    meas: float = 1.0 / 20.0
    init_pos: float = 1e4
    init_vel: float = 1e4

    def __post_init__(self):
        if min(self.pos, self.vel, self.meas, self.init_pos, self.init_vel) <= 0:
            raise ValueError("noise multipliers must be positive")


DEFAULT_NOISE = MotionNoise()


class KalmanState:
    """Immutable filter state: 8-vector mean and the covariance block (pp, pv, vv)."""

    __slots__ = ("mean", "block")

    def __init__(self, mean, block):
        mean = np.array(mean, dtype=np.float64)
        block = tuple(block)
        if mean.shape != (8,) or len(block) != 3:
            raise ValueError("state needs an 8-vector mean and a (pp, pv, vv) covariance block")
        mean.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "block", block)

    def __setattr__(self, name, value):
        raise AttributeError("KalmanState is immutable")

    @property
    def covariance(self) -> np.ndarray:
        """Read-only 8x8 covariance kron([[pp, pv], [pv, vv]], I4)."""
        pp, pv, vv = self.block
        covariance = np.kron([[pp, pv], [pv, vv]], np.eye(4))
        covariance.flags.writeable = False
        return covariance


def _scale_height(mean) -> float:
    return max(abs(float(mean[3])), _MIN_SIZE)


def kf_init(b: BoundingBox, noise: MotionNoise = DEFAULT_NOISE) -> KalmanState:
    """Start a filter at a measured box with zero velocity and a flat velocity prior."""
    cx, cy, w, h = to_center(b)
    return KalmanState([cx, cy, w, h, 0.0, 0.0, 0.0, 0.0], ((noise.init_pos * h) ** 2, 0.0, (noise.init_vel * h) ** 2))


def kf_predict(s: KalmanState, noise: MotionNoise = DEFAULT_NOISE) -> KalmanState:
    """Advance the state one frame under constant velocity, inflating uncertainty."""
    m = s.mean.tolist()
    h = _scale_height(m)
    pp, pv, vv = s.block
    # F m and F P F^T + Q, with F = [[1, 1], [0, 1]] per box component
    mean = [x + v for x, v in zip(m[:4], m[4:])] + m[4:]
    return KalmanState(mean, ((pp + pv) + (pv + vv) + (noise.pos * h) ** 2, pv + vv, vv + (noise.vel * h) ** 2))


def kf_update(s: KalmanState, measurement: BoundingBox, noise: MotionNoise = DEFAULT_NOISE) -> KalmanState:
    """Correct the state against a measured box (Joseph-form covariance update)."""
    m = s.mean.tolist()
    h = _scale_height(m)
    r = (noise.meas * h) ** 2
    pp, pv, vv = s.block
    inv_s = 1.0 / (pp + r)
    kp, kv = pp * inv_s, pv * inv_s
    innovation = [z - x for z, x in zip(to_center(measurement), m)]
    mean = [x + kp * e for x, e in zip(m, innovation)] + [v + kv * e for v, e in zip(m[4:], innovation)]
    # (I - KH) P (I - KH)^T + K R K^T with I - KH = [[a, 0], [-kv, 1]]; the two
    # off-diagonal terms are averaged as the symmetrisation (C + C^T) / 2 does.
    a = 1.0 - kp
    m00, m01 = a * pp, a * pv
    m10, m11 = -kv * pp + pv, -kv * pv + vv
    pv_upper = (-kv * m00 + m01) + kp * r * kv
    pv_lower = m10 * a + kv * r * kp
    return KalmanState(mean, (m00 * a + kp * r * kp, (pv_upper + pv_lower) / 2.0, (-kv * m10 + m11) + kv * r * kv))


def state_to_bbox(s: KalmanState) -> BoundingBox:
    """Mean state as a box; degenerate sizes clamp to a tiny positive floor."""
    cx, cy, w, h = s.mean[:4]
    return from_center(cx, cy, max(float(w), _MIN_SIZE), max(float(h), _MIN_SIZE))
