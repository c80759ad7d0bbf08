"""Online base tracker: gated similarity weights, matching, track lifecycle.

Each live track carries its one-step forecast. Per frame the tracker scores
each track/detection pair by the minimum of forecast-box overlap and gated
appearance similarity, solves a thresholded max-weight matching and applies
the usual lifecycle: matched tracks are corrected and refreshed, a track
whose last match lies more than `max_age` frames back is removed (SORT,
Bewley et al., ICIP 2016), confident unmatched detections spawn new tracks,
and every surviving track is predicted one frame ahead.

The gates and rates are fixed, DeepSORT-style (Wojke, Bewley & Paulus, ICIP
2017): a pair's appearance counts only when its forecast IOU reaches 0.1 and
its cosine 0.25, the representative feature is an EMA with momentum 0.9, and
detections below confidence 0.1 are ignored. `TrackerParams` holds the two
settings callers vary: the match threshold and the maximum age.

Everything is deterministic; the near-online layer reuses `apply_matching`
so that both trackers share one lifecycle code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .appearance import QualityVector, cosine_sim, ema_update
from .assignment import Matching, WeightMatrix, hungarian_max
from .core import BoundingBox, Detection, FeatureVec, FrameData, box_array, iou, iou_matrix
from .motion import KalmanState, kf_init, kf_predict, kf_update, state_to_bbox

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
    """Mutable per-object record: matched history, motion/appearance state.

    `kalman` is the track's one-step forecast: the filter state predicted for
    the next frame, not the last posterior. The track lives while its last
    match, `last_frame`, lies at most `max_age` frames back.
    """

    __slots__ = ("id", "history", "kalman", "rep_feature", "quality", "age")

    def __init__(self, track_id: int, frame: int, det: Detection):
        if det.feature is None:
            raise ValueError("tracking requires detections with appearance features")
        self.id = track_id
        self.history: list[tuple[int, Detection]] = [(frame, det)]
        self.kalman: KalmanState = kf_predict(kf_init(det.bbox))
        self.rep_feature: FeatureVec = det.feature
        # The spawn detection seeds the quality record with a perfect score so
        # quality windows are defined from birth.
        self.quality = QualityVector([1.0])
        self.age = 1

    @property
    def last_frame(self) -> int:
        return self.history[-1][0]


class TrackerState:
    """The live tracks, in spawn order, plus the id counter and frame cursor.

    Removed tracks leave `tracks`; their ids are never reused.
    """

    __slots__ = ("tracks", "next_id", "params", "frame_cursor")

    def __init__(self, params: TrackerParams, frame_cursor: int = 0):
        self.tracks: list[Track] = []
        self.next_id = 1
        self.params = params
        self.frame_cursor = frame_cursor

    def spawn(self, frame: int, det: Detection) -> Track:
        track = Track(self.next_id, frame, det)
        self.next_id += 1
        self.tracks.append(track)
        return track


def _gate(overlap: float, cos: float) -> tuple[float, float]:
    """(fused weight, gated appearance score) from a pair's overlap and cosine."""
    gated = cos if (cos >= _APPEARANCE_GATE and overlap >= _IOU_GATE) else 0.0
    gated = max(gated, 0.0)
    return min(overlap, gated), gated


def _pair_scores(pred_box: BoundingBox, rep: FeatureVec, det: Detection) -> tuple[float, float]:
    """(fused weight, gated appearance score) for one track/detection pair."""
    return _gate(iou(pred_box, det.bbox), cosine_sim(rep, det.feature))


def fused_similarity(track: Track, det: Detection) -> float:
    """min(IOU of the track's one-step forecast box, gated appearance similarity) for one pair."""
    fused, _ = _pair_scores(state_to_bbox(track.kalman), track.rep_feature, det)
    return fused


def eligible_detections(frame: FrameData) -> list[int]:
    """Indices of detections that clear the confidence floor, in frame order."""
    return [j for j, d in enumerate(frame.detections) if d.confidence >= _MIN_CONFIDENCE]


def compute_base_weights(state: TrackerState, frame: FrameData) -> WeightMatrix:
    """Pairwise fused weights: live tracks x confident detections.

    Equal, entry by entry, to `fused_similarity`. A pair whose forecast
    overlap misses the IOU gate weighs 0 whatever its appearance, so the
    cosine is taken only inside the gate.
    """
    if frame.index != state.frame_cursor + 1:
        raise ValueError(f"out-of-order frame {frame.index}, expected {state.frame_cursor + 1}")
    tracks = state.tracks
    dets = [frame.detections[j] for j in eligible_detections(frame)]
    overlap = iou_matrix(
        box_array([state_to_bbox(track.kalman) for track in tracks]),
        box_array([det.bbox for det in dets]),
    )
    weights = np.zeros(overlap.shape)
    for i, jj in zip(*np.nonzero(overlap >= _IOU_GATE)):
        cos = cosine_sim(tracks[i].rep_feature, dets[jj].feature)
        weights[i, jj], _ = _gate(float(overlap[i, jj]), cos)
    return WeightMatrix(weights)


def apply_matching(state: TrackerState, frame: FrameData, matching: Matching) -> None:
    """Advance one frame applying the lifecycle implied by a matching.

    Matching rows index `state.tracks`, columns index `eligible_detections`.
    Matched tracks are corrected. `state.tracks` then keeps only the tracks
    whose last match lies at most `max_age` frames back, and each of them is
    predicted; unmatched confident detections spawn after them.
    """
    det_idx = eligible_detections(frame)
    matched_cols = {j for _, j in matching.pairs}

    for i, jj in matching.pairs:
        track = state.tracks[i]
        det = frame.detections[det_idx[jj]]
        _, gated = _pair_scores(state_to_bbox(track.kalman), track.rep_feature, det)
        track.quality.append(gated)
        track.kalman = kf_update(track.kalman, det.bbox)
        track.rep_feature = ema_update(track.rep_feature, det.feature, _EMA_MOMENTUM)
        track.history.append((frame.index, det))

    state.tracks = [t for t in state.tracks if frame.index - t.last_frame <= state.params.max_age]
    for track in state.tracks:
        track.age += 1
        track.kalman = kf_predict(track.kalman)

    for jj, j in enumerate(det_idx):
        if jj not in matched_cols:
            state.spawn(frame.index, frame.detections[j])

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
    for det in frame.detections:
        state.spawn(frame.index, det)
    return state


def collect_frame_rows(state: TrackerState, frame_index: int) -> list[tuple[int, int, Detection]]:
    """(frame, track id, detection) rows for tracks whose last match is this frame."""
    return [(frame_index, t.id, t.history[-1][1]) for t in state.tracks if t.last_frame == frame_index]


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
