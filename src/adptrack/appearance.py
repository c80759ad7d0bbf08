"""Appearance model: cosine scores, EMA representative features, quality windows.

A track records one quality value per association: the appearance score the
matcher saw when the detection was assigned. Low values flag frames where the
object was visually unreliable (occluded, blended with a neighbor). The
quality window walks back to the most recent reliable frame and selects the
last few detections ending there as the track's trusted visual history.

Every dot product of features, here and in the rollout layer, is taken by
`feature_dots`, a multiply-sum, rather than by ``np.dot`` or ``@``. BLAS picks
its kernel, and so its summation order, by the shape of the operands, so a
row of a matrix product can differ in the last bit from the same row computed
alone. The multiply-sum adds each vector's products in one fixed order
whatever the array around it, so a batched score equals the per-pair score
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FeatureVec

__all__ = ["QualityVector", "QualityWindow", "cosine_sim", "feature_dots", "ema_update", "select_quality_window"]


class QualityVector:
    """Append-only per-association appearance scores, each in [-1, 1]."""

    __slots__ = ("_values",)

    def __init__(self, values=()):
        self._values: list[float] = []
        for v in values:
            self.append(v)

    def append(self, value: float):
        value = float(value)
        if not (-1.0 <= value <= 1.0):
            raise ValueError(f"quality value must lie in [-1, 1], got {value}")
        self._values.append(value)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, idx):
        return self._values[idx]

    def fraction_below(self, threshold: float) -> float:
        if not self._values:
            return 0.0
        return sum(1 for v in self._values if v < threshold) / len(self._values)


@dataclass(frozen=True)
class QualityWindow:
    """Inclusive 1-based position range into a track's matched-detection history."""

    start: int
    end: int

    def __post_init__(self):
        if not (1 <= self.start <= self.end):
            raise ValueError(f"invalid window [{self.start}, {self.end}]")

    def positions(self) -> range:
        return range(self.start, self.end + 1)


def feature_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis of two broadcast feature arrays, in one fixed order."""
    return np.multiply(a, b).sum(-1)


def cosine_sim(u: FeatureVec, v: FeatureVec) -> float:
    """Dot product of unit vectors, clamped to [-1, 1] against rounding."""
    if u.dim != v.dim:
        raise ValueError(f"feature dimensions differ: {u.dim} vs {v.dim}")
    return min(1.0, max(-1.0, float(feature_dots(u.values, v.values))))


def ema_update(rep: FeatureVec, obs: FeatureVec, momentum: float) -> FeatureVec:
    """Blend a new observation into the representative feature and re-normalize."""
    if not (0.0 <= momentum <= 1.0):
        raise ValueError(f"momentum must lie in [0, 1], got {momentum}")
    blended = momentum * rep.values + (1.0 - momentum) * obs.values
    if np.linalg.norm(blended) < 1e-12:
        raise ValueError("EMA blend collapsed to zero (antipodal inputs)")
    return FeatureVec(blended)


def select_quality_window(q: QualityVector, beta: float, s: int) -> QualityWindow:
    """Window of up to s positions ending at the last quality entry >= beta.

    Falls back to the most recent position when no entry reaches beta, so a
    window always exists for a track with at least one association.
    """
    if len(q) == 0:
        raise ValueError("cannot select a window from an empty quality vector")
    if s < 1:
        raise ValueError(f"window size must be >= 1, got {s}")
    q_pos = len(q)
    for pos in range(len(q), 0, -1):
        if q[pos - 1] >= beta:
            q_pos = pos
            break
    return QualityWindow(start=max(1, q_pos - s + 1), end=q_pos)
