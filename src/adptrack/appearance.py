"""Appearance model: cosine scores, EMA representative features, quality windows.

A track's quality record holds 1.0 for its spawn detection, then the
appearance score the matcher saw at each association; low values flag frames
where the object was visually unreliable (occluded, blended with a neighbor).
`select_quality_window` defines the trusted visual history on the record as
a list: the 1-based positions of the last few matches ending at the most
recent reliable one. `rollout.TrustedRecord` keeps the same window as arrays.

Every sum of feature products, here and in the tracker and rollout layers,
dot products and norms alike, is taken by `core.feature_dots`, a
multiply-sum, rather than by a BLAS product or norm (`ddot`, `dgemm`). BLAS
picks its kernel, and so its summation order, by the operands' shape,
their alignment and the host's CPU, so a row of a matrix product can differ
in the last bit from the same row computed alone, or on another host. The
multiply-sum adds each vector's products in numpy's pairwise order whatever
the array around it, and the rollout layer averages those products left to
right, so a batched score equals the per-pair score bit for bit.
"""

from __future__ import annotations

from .core import FeatureVec, feature_dots, unit_rows

__all__ = ["cosine_sim", "feature_dots", "ema_update", "select_quality_window"]


def cosine_sim(u: FeatureVec, v: FeatureVec) -> float:
    """Dot product of unit vectors, clamped to [-1, 1] against rounding."""
    if u.dim != v.dim:
        raise ValueError(f"feature dimensions differ: {u.dim} vs {v.dim}")
    return min(1.0, max(-1.0, float(feature_dots(u.values, v.values))))


def ema_update(rep: FeatureVec, obs: FeatureVec, momentum: float) -> FeatureVec:
    """Blend a new observation into the representative feature and re-normalize."""
    if not (0.0 <= momentum <= 1.0):
        raise ValueError(f"momentum must lie in [0, 1], got {momentum}")
    unit, failed, _ = unit_rows([momentum * rep.values + (1.0 - momentum) * obs.values])
    if failed:
        raise ValueError("EMA blend collapsed to zero (antipodal inputs)")
    return FeatureVec.of_unit_rows(unit)[0]


def select_quality_window(quality: list[float], beta: float, s: int) -> range:
    """1-based positions of up to s entries ending at the last quality entry >= beta.

    Falls back to the most recent position when no entry reaches beta, so a
    window always exists for a track with at least one association.
    """
    if not quality:
        raise ValueError("cannot select a window from an empty quality record")
    if s < 1:
        raise ValueError(f"window size must be >= 1, got {s}")
    end = next((pos for pos in range(len(quality), 0, -1) if quality[pos - 1] >= beta), len(quality))
    return range(max(1, end - s + 1), end + 1)
