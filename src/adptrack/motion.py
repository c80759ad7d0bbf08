"""Constant-velocity Kalman filter over (cx, cy, w, h) box states.

State layout is the usual tracker convention: four box components followed
by their per-frame velocities. Every noise std is a fixed multiplier times
the current box height: the DeepSORT values 1/20 for position and 1/160 for
velocity process noise, 1/20 for the measurement, and 1e4 for the initial
position and velocity (a flat prior, see below).

The transition, the noise and the prior treat the four box components alike,
so the 8x8 covariance is always kron([[pp, pv], [pv, vv]], I4). The state
keeps only that 2x2 block, and predict and update are scalar arithmetic on
it. Each block entry is computed with the same products, in the same order,
as the 8x8 Joseph-form recursion, so both give bit-identical results. The
batched forms run the same block arithmetic on forecast rows, (..., 11)
arrays of the 8-vector mean followed by (pp, pv, vv), in which the base
tracker holds its tracks and the rollout walks its clones; only this module
reads their columns. A new track's forecast has a closed form
(`kf_prior_batch`), and a walk step is one fused correction and prediction
(`kf_correct_predict_batch`). The batched forms take measured boxes as
their `batch_centers` rows.
"""

from __future__ import annotations

import numpy as np

from .core import BoundingBox, from_center, to_center

__all__ = [
    "KalmanState", "kf_init", "kf_predict", "kf_update", "state_to_bbox",
    "batch_centers", "kf_prior_batch", "kf_predict_batch", "kf_update_batch",
    "kf_correct_predict_batch", "batch_boxes",
]

_MIN_SIZE = 1e-3


# Noise std multipliers, each applied to the current box height. The init
# multipliers are huge on purpose: a freshly spawned track starts from a flat
# prior, so its state is pinned by the first two measurements instead of being
# dragged toward the spawn box and a zero velocity; with exact constant-
# velocity input the filter locks onto the true velocity within two updates.
_POS = 1.0 / 20.0
_VEL = 1.0 / 160.0
_MEAS = 1.0 / 20.0
_INIT_POS = 1e4
_INIT_VEL = 1e4


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


def _square(c, h):
    """(c * h) squared as one product, elementwise when h is an array."""
    x = c * h
    return x * x


def _predicted_block(pp, pv, vv, h):
    # F P F^T + Q, with F = [[1, 1], [0, 1]] per box component
    return (pp + pv) + (pv + vv) + _square(_POS, h), pv + vv, vv + _square(_VEL, h)


def _corrected_block(pp, pv, vv, h):
    """Gains (kp, kv) and the Joseph-form corrected block; floats or arrays alike."""
    r = _square(_MEAS, h)
    inv_s = 1.0 / (pp + r)
    kp, kv = pp * inv_s, pv * inv_s
    # (I - KH) P (I - KH)^T + K R K^T with I - KH = [[a, 0], [-kv, 1]]; the two
    # off-diagonal terms are averaged as the symmetrisation (C + C^T) / 2 does.
    a, nkv, kpr, kvr = 1.0 - kp, -kv, kp * r, kv * r
    m00, m01 = a * pp, a * pv
    m10, m11 = nkv * pp + pv, nkv * pv + vv
    pv_upper = (nkv * m00 + m01) + kpr * kv
    pv_lower = m10 * a + kvr * kp
    return kp, kv, (m00 * a + kpr * kp, (pv_upper + pv_lower) / 2.0, (nkv * m10 + m11) + kvr * kv)


def kf_init(b: BoundingBox) -> KalmanState:
    """Start a filter at a measured box with zero velocity and a flat velocity prior."""
    cx, cy, w, h = to_center(b)
    return KalmanState([cx, cy, w, h, 0.0, 0.0, 0.0, 0.0], (_square(_INIT_POS, h), 0.0, _square(_INIT_VEL, h)))


def kf_predict(s: KalmanState) -> KalmanState:
    """Advance the state one frame under constant velocity, inflating uncertainty."""
    m = s.mean.tolist()
    mean = [x + v for x, v in zip(m[:4], m[4:])] + m[4:]
    return KalmanState(mean, _predicted_block(*s.block, max(abs(m[3]), _MIN_SIZE)))


def kf_update(s: KalmanState, measurement: BoundingBox) -> KalmanState:
    """Correct the state against a measured box (Joseph-form covariance update)."""
    m = s.mean.tolist()
    kp, kv, block = _corrected_block(*s.block, max(abs(m[3]), _MIN_SIZE))
    innovation = [z - x for z, x in zip(to_center(measurement), m)]
    mean = [x + kp * e for x, e in zip(m, innovation)] + [v + kv * e for v, e in zip(m[4:], innovation)]
    return KalmanState(mean, block)


def state_to_bbox(s: KalmanState) -> BoundingBox:
    """Mean state as a box; degenerate sizes clamp to a tiny positive floor."""
    cx, cy, w, h = s.mean[:4]
    return from_center(cx, cy, max(float(w), _MIN_SIZE), max(float(h), _MIN_SIZE))


# Batched forms: a batch of states is an (..., 11) array of forecast rows
# (mean, pp, pv, vv), and boxes are (..., 4) arrays of (left, top, width,
# height) rows. Every entry takes the operations of the scalar function in
# the same order, so it equals it bit for bit.


def _rows(pos: np.ndarray, vel: np.ndarray, block) -> np.ndarray:
    """Forecast rows of (..., 4) positions and velocities and a (pp, pv, vv) block of (...) arrays."""
    return np.concatenate([pos, vel, *(b[..., None] for b in block)], axis=-1)


def _split(x: np.ndarray):
    """(positions, velocities, (pp, pv, vv)) of forecast rows, as views."""
    return x[..., :4], x[..., 4:8], (x[..., 8], x[..., 9], x[..., 10])


def batch_centers(boxes: np.ndarray) -> np.ndarray:
    """`to_center` of every box row."""
    return np.concatenate([boxes[..., :2] + boxes[..., 2:] / 2.0, boxes[..., 2:]], axis=-1)


def kf_prior_batch(centers: np.ndarray) -> np.ndarray:
    """`kf_predict(kf_init(b))` of every box's `batch_centers` row in closed form (the prediction adds exact zeros)."""
    h = centers[..., 3]
    pp, vv, q_h = _square(_INIT_POS, h), _square(_INIT_VEL, h), np.maximum(h, _MIN_SIZE)
    return _rows(centers, np.zeros_like(centers), ((pp + vv) + _square(_POS, q_h), vv, vv + _square(_VEL, q_h)))


def _predicted(pos: np.ndarray, vel: np.ndarray, block) -> np.ndarray:
    """Forecast rows of the states (pos, vel, block) predicted one frame ahead."""
    return _rows(pos + vel, vel, _predicted_block(*block, np.maximum(np.abs(pos[..., 3]), _MIN_SIZE)))


def kf_predict_batch(x: np.ndarray) -> np.ndarray:
    """`kf_predict` of every forecast row."""
    return _predicted(*_split(x))


def _correct(x: np.ndarray, centers: np.ndarray):
    """`kf_update` of every forecast row against its measured (cx, cy, w, h), as (positions, velocities, block)."""
    pos, vel, block = _split(x)
    kp, kv, block = _corrected_block(*block, np.maximum(np.abs(pos[..., 3]), _MIN_SIZE))
    innovation = centers - pos
    return pos + kp[..., None] * innovation, vel + kv[..., None] * innovation, block


def kf_update_batch(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """`kf_update` of every forecast row against its measured box, given `batch_centers` of the boxes."""
    return _rows(*_correct(x, centers))


def kf_correct_predict_batch(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """`kf_predict_batch(kf_update_batch(x, centers))` in one pass."""
    return _predicted(*_correct(x, centers))


def batch_boxes(x: np.ndarray) -> np.ndarray:
    """`state_to_bbox` of every forecast row, as (..., 4) box rows.

    A non-finite state raises ValueError, as the box constructor does there.
    """
    wh = np.maximum(x[..., 2:4], _MIN_SIZE)
    boxes = np.concatenate([x[..., :2] - wh / 2.0, wh], axis=-1)
    if not np.isfinite(boxes).all():
        raise ValueError("filter state is not finite")
    return boxes
