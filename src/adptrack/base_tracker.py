"""Online base tracker: gated similarity weights, matching, track lifecycle.

`TrackerState` holds the live tracks and, in arrays that share their row
order, each track's one-step forecast (the filter state predicted for the
next frame, as a `motion` forecast row whose columns only that module reads),
its representative feature and the frame of its last match. Per frame the
tracker scores each track/detection pair by the minimum of forecast-box
overlap and gated appearance similarity, solves a thresholded max-weight
matching and applies the usual lifecycle to all rows at once: matched rows
take the weights pass's gated appearance score and are corrected and
refreshed, a track whose last match lies more than `max_age` frames back is
removed (SORT, Bewley et al., ICIP 2016), every surviving row is predicted
one frame ahead and confident unmatched detections (rows of the frame's
cached arrays) spawn at the filter's closed-form prior.

The gates and rates are fixed, DeepSORT-style (Wojke, Bewley & Paulus, ICIP
2017): a pair's appearance counts only when its forecast IOU reaches 0.1 and
its cosine 0.25, the representative feature is an EMA with momentum 0.9, and
detections below confidence 0.1 are ignored. `TrackerParams` holds the two
settings callers vary: the match threshold and the maximum age.

Each row equals the scalar recursion (`kf_init`, `kf_predict`, `kf_update`,
`ema_update`) bit for bit. Everything is deterministic; the near-online layer
reuses `apply_matching`, so both trackers share one lifecycle code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .appearance import cosine_sim, feature_dots
from .assignment import Matching, WeightMatrix, hungarian_max
from .core import Detection, FeatureVec, FrameData, iou, iou_matrix, unit_rows
from .motion import KalmanState, batch_boxes, kf_predict_batch, kf_prior_batch, kf_update_batch, state_to_bbox
from .motion import kf_predict, kf_update  # noqa: F401  (the rows' oracles, wrapped here by perfbench/probes.py)

__all__ = [
    "Track",
    "TrackerParams",
    "TrackerState",
    "fused_similarity",
    "compute_base_weights",
    "step",
    "fork_at",
    "apply_matching",
    "collect_frame_rows",
    "run",
]


# Fixed gates and rates; the module docstring gives their source.
_APPEARANCE_GATE = 0.25
_IOU_GATE = 0.1
_EMA_MOMENTUM = 0.9
_MIN_CONFIDENCE = 0.1


@dataclass(frozen=True)
class TrackerParams:
    match_threshold: float = 0.2
    max_age: int = 30

    def __post_init__(self):
        if not (0.0 <= self.match_threshold <= 1.0):
            raise ValueError(f"match_threshold must lie in [0, 1], got {self.match_threshold}")
        if self.max_age < 1:
            raise ValueError(f"max_age must be >= 1, got {self.max_age}")


class Track:
    """Mutable per-object record: id, matched history and quality record.

    The track's filter and appearance state and the frame of its last match
    are its row of the `TrackerState` arrays.
    """

    __slots__ = ("id", "history", "quality")

    def __init__(self, track_id: int, frame: int, det: Detection):
        self.id = track_id
        self.history: list[tuple[int, Detection]] = [(frame, det)]
        # The spawn detection seeds the quality record with a perfect score so
        # quality windows are defined from birth.
        self.quality: list[float] = [1.0]


class TrackerState:
    """The live tracks, in spawn order, their state arrays, the id counter and the frame cursor.

    Row i of the three row arrays belongs to `tracks[i]`: `forecast` (T, 11)
    holds its one-step forecast as a `motion` forecast row, `rep` (T, d) its
    representative feature and `last` (T,) int64 the frame of its last match,
    `tracks[i].history[-1][0]`. A track lives while that frame lies at most
    `max_age` frames back. Removed tracks leave the list and the arrays; their
    ids are never reused. `weighed` is the last weights pass of these rows:
    (frame, confident detections, gated appearance scores).
    """

    __slots__ = ("tracks", "forecast", "rep", "last", "next_id", "params", "frame_cursor", "weighed")

    def __init__(self, params: TrackerParams, frame_cursor: int = 0):
        self.tracks: list[Track] = []
        self.forecast = kf_prior_batch(np.zeros((0, 4)))
        self.rep = np.zeros((0, 0))
        self.last = np.zeros(0, dtype=np.int64)
        self.next_id = 1
        self.params = params
        self.frame_cursor = frame_cursor
        self.weighed = None

    def spawn(self, frame: FrameData, idx: np.ndarray) -> None:
        """New tracks for the detections `idx` of a frame after the live ones, at the prior, from the frame's rows."""
        if not len(idx):
            return
        feats = frame.features[idx]
        self.tracks += [Track(self.next_id + k, frame.index, frame.detections[j]) for k, j in enumerate(idx.tolist())]
        self.next_id += len(idx)
        self.forecast = np.concatenate([self.forecast, kf_prior_batch(frame.boxes[idx])])
        self.rep = np.concatenate([self.rep, feats]) if len(self.rep) else feats
        self.last = np.concatenate([self.last, np.full(len(idx), frame.index)])
        self.weighed = None


def _gate(overlap: np.ndarray, dots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(fused weights, gated appearance scores) of pairs, from their overlaps and feature dot products."""
    cos = np.minimum(np.maximum(dots, -1.0), 1.0)
    gated = np.where((cos >= _APPEARANCE_GATE) & (overlap >= _IOU_GATE), np.maximum(cos, 0.0), 0.0)
    return np.minimum(overlap, gated), gated


def fused_similarity(forecast: KalmanState, rep: FeatureVec, det: Detection) -> float:
    """min(IOU of a track's forecast box, gated cosine of its representative feature) for one pair."""
    overlap, cos = iou(state_to_bbox(forecast), det.bbox), cosine_sim(rep, det.feature)
    gated = max(cos, 0.0) if (cos >= _APPEARANCE_GATE and overlap >= _IOU_GATE) else 0.0
    return min(overlap, gated)


def _ema(rep: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """`ema_update` of each row of `rep` with the same row of `obs`.

    The blends are normalised as one `unit_rows` block, each by its own
    row's `ddot` norm, as `ema_update` normalises one; a sum of squares over
    all rows at once, such as `einsum`'s, can round differently.
    """
    unit, failed, _ = unit_rows(_EMA_MOMENTUM * rep + (1.0 - _EMA_MOMENTUM) * obs)
    if failed:
        raise ValueError("EMA blend collapsed to zero (antipodal inputs)")
    return unit


def eligible_detections(frame: FrameData) -> np.ndarray:
    """Indices of detections that clear the confidence floor, in frame order."""
    return np.flatnonzero(frame.confidences >= _MIN_CONFIDENCE)


def compute_base_weights(state: TrackerState, frame: FrameData) -> WeightMatrix:
    """Pairwise fused weights: live tracks x confident detections.

    Equal, entry by entry, to `fused_similarity`. A pair whose forecast
    overlap misses the IOU gate weighs 0 whatever its appearance, so the
    feature products are taken only inside the gate. The gated appearance
    scores (0 outside the IOU gate) stay on the state for `apply_matching`.
    """
    if frame.index != state.frame_cursor + 1:
        raise ValueError(f"out-of-order frame {frame.index}, expected {state.frame_cursor + 1}")
    det_idx = eligible_detections(frame)
    overlap = iou_matrix(batch_boxes(state.forecast), frame.boxes[det_idx])
    rows, cols = np.nonzero(overlap >= _IOU_GATE)
    weights, gated = np.zeros(overlap.shape), np.zeros(overlap.shape)
    if rows.size:
        weights[rows, cols], gated[rows, cols] = _gate(overlap[rows, cols], feature_dots(state.rep[rows], frame.features[det_idx[cols]]))
    state.weighed = (frame, det_idx, gated)
    return WeightMatrix(weights)


def apply_matching(state: TrackerState, frame: FrameData, matching: Matching) -> None:
    """Advance one frame applying the lifecycle implied by a matching.

    Matching rows index `state.tracks`, columns index `eligible_detections`.
    It consumes the `compute_base_weights` pass of this state and frame. The
    matched rows are taken together: each records its pair's gated appearance
    score from that pass as quality, its forecast is corrected with the
    detection and its representative feature blended with the detection's.
    The tracks whose last match lies at most `max_age` frames back are kept
    and predicted; unmatched confident detections spawn after them.
    """
    if state.weighed is None or state.weighed[0] is not frame:
        raise ValueError(f"apply_matching needs a compute_base_weights pass of this state for frame {frame.index}")
    (_, det_idx, gated), state.weighed = state.weighed, None
    rows, cols = np.array(matching.pairs, dtype=np.intp).reshape(-1, 2).T
    if rows.size:
        matched = det_idx[cols]
        for i, j, quality in zip(rows, matched.tolist(), gated[rows, cols].tolist()):
            state.tracks[i].quality.append(quality)
            state.tracks[i].history.append((frame.index, frame.detections[j]))
        state.forecast[rows] = kf_update_batch(state.forecast[rows], frame.boxes[matched])
        state.rep[rows] = _ema(state.rep[rows], frame.features[matched])
        state.last[rows] = frame.index

    keep = state.last >= frame.index - state.params.max_age
    if not keep.all():
        keep = np.flatnonzero(keep)
        state.tracks = [state.tracks[i] for i in keep.tolist()]
        state.forecast, state.rep, state.last = state.forecast[keep], state.rep[keep], state.last[keep]
    state.forecast = kf_predict_batch(state.forecast)
    state.spawn(frame, np.delete(det_idx, cols))
    state.frame_cursor = frame.index


def step(state: TrackerState, frame: FrameData) -> tuple[TrackerState, Matching]:
    """One online tracking step: weights, gated matching, lifecycle."""
    weights = compute_base_weights(state, frame)
    matching = hungarian_max(weights, state.params.match_threshold)
    apply_matching(state, frame, matching)
    return state, matching


def fork_at(frame: FrameData, params: TrackerParams) -> TrackerState:
    """Fresh tracker seeded with one track per detection of this frame.

    Used by the near-online simulation, which treats this frame as the first
    frame of a new sequence and carries no earlier information.
    """
    state = TrackerState(params, frame_cursor=frame.index)
    state.spawn(frame, np.arange(len(frame.detections)))
    return state


def collect_frame_rows(state: TrackerState, frame_index: int) -> list[tuple[int, int, Detection]]:
    """(frame, track id, detection) rows for tracks whose last match is this frame."""
    tracks = state.tracks
    return [(frame_index, tracks[i].id, tracks[i].history[-1][1]) for i in np.flatnonzero(state.last == frame_index).tolist()]


def run(frames: list[FrameData], params: TrackerParams) -> list[tuple[int, int, Detection]]:
    """Track a whole sequence online; returns per-frame result rows."""
    if not frames:
        raise ValueError("cannot track an empty sequence")
    state = TrackerState(params, frame_cursor=frames[0].index - 1)
    rows: list[tuple[int, int, Detection]] = []
    for frame in frames:
        step(state, frame)
        rows.extend(collect_frame_rows(state, frame.index))
    return rows
