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
batched forms run the same arithmetic on (11, ...) arrays of contiguous
component planes: box components x[:4], velocities x[4:8], pp, pv and vv
x[8:11]. The tracker holds its tracks as (11, T) planes, the rollout walks
its clones in (11, T, D) ones; only this module tells the planes apart. A
step writes into `out`, which may be its input; boxes enter as
`batch_centers` planes. A new track's forecast has a closed form
(`kf_prior_batch`), and a walk step is `kf_correct_predict_batch`.
"""

from __future__ import annotations

import numpy as np

from .core import BoundingBox, batch_centers, from_center, to_center

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


# Batched forms: each element takes the scalar function's operations in the same order, so it equals it bit for bit.


def kf_prior_batch(centers: np.ndarray) -> np.ndarray:
    """`kf_predict(kf_init(b))` of every box's `batch_centers` planes in closed form (the prediction adds exact zeros)."""
    h = centers[3]
    pp, vv, q_h = _square(_INIT_POS, h), _square(_INIT_VEL, h), np.maximum(h, _MIN_SIZE)
    out = np.zeros((11, *centers.shape[1:]))
    out[:4], out[8], out[9], out[10] = centers, (pp + vv) + _square(_POS, q_h), vv, vv + _square(_VEL, q_h)
    return out


def kf_predict_batch(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """`kf_predict` of every forecast."""
    if out is not x:
        out = np.empty_like(x) if out is None else out
        out[4:8] = x[4:8]
    out[8], out[9], out[10] = _predicted_block(*x[8:11], np.maximum(np.abs(x[3]), _MIN_SIZE))
    np.add(x[:4], out[4:8], out=out[:4])
    return out


def _correct_into(out: np.ndarray, x: np.ndarray, centers: np.ndarray):
    """`kf_update` of every forecast against its measured centers: velocities into `out[4:8]`, (positions, block) back."""
    kp, kv, block = _corrected_block(*x[8:11], np.maximum(np.abs(x[3]), _MIN_SIZE))
    innovation = centers - x[:4]
    np.add(x[4:8], kv * innovation, out=out[4:8])
    return x[:4] + kp * innovation, block


def kf_update_batch(x: np.ndarray, centers: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """`kf_update` of every forecast against its measured box, given `batch_centers` of the boxes."""
    out = np.empty_like(x) if out is None else out
    out[:4], (out[8], out[9], out[10]) = _correct_into(out, x, centers)
    return out


def kf_correct_predict_batch(x: np.ndarray, centers: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """`kf_predict_batch(kf_update_batch(x, centers))` in one pass: the corrected positions and block are not stored."""
    out = np.empty_like(x) if out is None else out
    pos, block = _correct_into(out, x, centers)
    out[8], out[9], out[10] = _predicted_block(*block, np.maximum(np.abs(pos[3]), _MIN_SIZE))
    np.add(pos, out[4:8], out=out[:4])
    return out


def batch_boxes(x: np.ndarray) -> np.ndarray:
    """`state_to_bbox` of every forecast, as (..., 4) box rows whose four columns are contiguous planes.

    A non-finite state raises ValueError, as the box constructor does there.
    """
    wh = np.maximum(x[2:4], _MIN_SIZE)
    boxes = np.concatenate([x[:2] - wh / 2.0, wh])
    if not np.isfinite(boxes).all():
        raise ValueError("filter state is not finite")
    return boxes.transpose(*range(1, boxes.ndim), 0)
