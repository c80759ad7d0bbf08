"""Online base tracker: gated similarity weights, matching, track lifecycle.

`TrackerState` holds the live tracks and, in arrays that share their row
order, each track's one-step forecast (the filter state predicted for the
next frame) and its representative feature. Per frame the tracker scores
each track/detection pair by the minimum of forecast-box overlap and gated
appearance similarity, solves a thresholded max-weight matching and applies
the usual lifecycle to all rows at once: matched rows are corrected and
refreshed, a track whose last match lies more than `max_age` frames back is
removed (SORT, Bewley et al., ICIP 2016), confident unmatched detections
spawn new tracks, and every surviving row is predicted one frame ahead.

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

from .appearance import QualityVector, cosine_sim, feature_dots
from .assignment import Matching, WeightMatrix, hungarian_max
from .core import Detection, FeatureVec, FrameData, box_array, iou, iou_array, iou_matrix
from .motion import KalmanState, batch_boxes, kf_init_batch, kf_predict_batch, kf_update_batch, state_to_bbox
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

    The track's filter and appearance state is its row of the `TrackerState`
    arrays. The track lives while its last match, `last_frame`, lies at most
    `max_age` frames back.
    """

    __slots__ = ("id", "history", "quality")

    def __init__(self, track_id: int, frame: int, det: Detection):
        if det.feature is None:
            raise ValueError("tracking requires detections with appearance features")
        self.id = track_id
        self.history: list[tuple[int, Detection]] = [(frame, det)]
        # The spawn detection seeds the quality record with a perfect score so
        # quality windows are defined from birth.
        self.quality = QualityVector([1.0])

    @property
    def last_frame(self) -> int:
        return self.history[-1][0]


class TrackerState:
    """The live tracks, in spawn order, their state arrays, the id counter and the frame cursor.

    Row i of `mean` (T, 8), of each (T,) array of the covariance `block`
    (pp, pv, vv) and of `rep` (T, d) is the one-step forecast and the
    representative feature of `tracks[i]`. Removed tracks leave the list and
    the arrays; their ids are never reused.
    """

    __slots__ = ("tracks", "mean", "block", "rep", "next_id", "params", "frame_cursor")

    def __init__(self, params: TrackerParams, frame_cursor: int = 0):
        self.tracks: list[Track] = []
        self.mean = np.zeros((0, 8))
        self.block = (np.zeros(0), np.zeros(0), np.zeros(0))
        self.rep = np.zeros((0, 0))
        self.next_id = 1
        self.params = params
        self.frame_cursor = frame_cursor

    def spawn(self, frame: int, dets: list[Detection]) -> None:
        """One new track per detection, after the live ones, at the filter's prior predicted one frame ahead."""
        if not dets:
            return
        for det in dets:
            self.tracks.append(Track(self.next_id, frame, det))
            self.next_id += 1
        mean, block = kf_predict_batch(*kf_init_batch(box_array(det.bbox for det in dets)))
        feats = np.stack([det.feature.values for det in dets])
        self.mean = np.concatenate([self.mean, mean])
        self.block = tuple(np.concatenate(pair) for pair in zip(self.block, block))
        self.rep = np.concatenate([self.rep, feats]) if len(self.rep) else feats

    def keep(self, rows: list[int]) -> None:
        """Keep only the tracks of the given rows, in that order."""
        self.tracks = [self.tracks[i] for i in rows]
        self.mean, self.rep = self.mean[rows], self.rep[rows]
        self.block = tuple(b[rows] for b in self.block)


def _gate(overlap: np.ndarray, dots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(fused weights, gated appearance scores) of pairs, from their overlaps and feature dot products."""
    cos = np.clip(dots, -1.0, 1.0)
    gated = np.where((cos >= _APPEARANCE_GATE) & (overlap >= _IOU_GATE), np.maximum(cos, 0.0), 0.0)
    return np.minimum(overlap, gated), gated


def fused_similarity(forecast: KalmanState, rep: FeatureVec, det: Detection) -> float:
    """min(IOU of a track's forecast box, gated cosine of its representative feature) for one pair."""
    overlap, cos = iou(state_to_bbox(forecast), det.bbox), cosine_sim(rep, det.feature)
    gated = max(cos, 0.0) if (cos >= _APPEARANCE_GATE and overlap >= _IOU_GATE) else 0.0
    return min(overlap, gated)


def _ema(rep: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """`ema_update` of each row of `rep` with the same row of `obs`.

    Each blend is divided by its norm taken as `np.linalg.norm` takes it, as a
    dot product of the row with itself; a norm over all rows at once rounds
    differently.
    """
    blended = _EMA_MOMENTUM * rep + (1.0 - _EMA_MOMENTUM) * obs
    norms = np.sqrt([row.dot(row) for row in blended])
    if (norms < 1e-12).any():
        raise ValueError("EMA blend collapsed to zero (antipodal inputs)")
    return blended / norms[:, None]


def eligible_detections(frame: FrameData) -> list[int]:
    """Indices of detections that clear the confidence floor, in frame order."""
    return [j for j, d in enumerate(frame.detections) if d.confidence >= _MIN_CONFIDENCE]


def compute_base_weights(state: TrackerState, frame: FrameData) -> WeightMatrix:
    """Pairwise fused weights: live tracks x confident detections.

    Equal, entry by entry, to `fused_similarity`. A pair whose forecast
    overlap misses the IOU gate weighs 0 whatever its appearance, so the
    feature products are taken only inside the gate.
    """
    if frame.index != state.frame_cursor + 1:
        raise ValueError(f"out-of-order frame {frame.index}, expected {state.frame_cursor + 1}")
    dets = [frame.detections[j] for j in eligible_detections(frame)]
    overlap = iou_matrix(batch_boxes(state.mean), box_array(det.bbox for det in dets))
    rows, cols = np.nonzero(overlap >= _IOU_GATE)
    weights = np.zeros(overlap.shape)
    if rows.size:
        feats = np.stack([det.feature.values for det in dets])
        weights[rows, cols], _ = _gate(overlap[rows, cols], feature_dots(state.rep[rows], feats[cols]))
    return WeightMatrix(weights)


def apply_matching(state: TrackerState, frame: FrameData, matching: Matching) -> None:
    """Advance one frame applying the lifecycle implied by a matching.

    Matching rows index `state.tracks`, columns index `eligible_detections`.
    The matched rows are taken together: each records its pair's gated
    appearance score as quality, its forecast is corrected with the detection
    and its representative feature blended with the detection's. The tracks
    whose last match lies at most `max_age` frames back are kept and
    predicted; unmatched confident detections spawn after them.
    """
    det_idx = eligible_detections(frame)
    rows = [i for i, _ in matching.pairs]
    dets = [frame.detections[det_idx[jj]] for _, jj in matching.pairs]
    if rows:
        boxes = box_array(det.bbox for det in dets)
        feats = np.stack([det.feature.values for det in dets])
        _, gated = _gate(iou_array(batch_boxes(state.mean[rows]), boxes), feature_dots(state.rep[rows], feats))
        for i, det, quality in zip(rows, dets, gated.tolist()):
            state.tracks[i].quality.append(quality)
            state.tracks[i].history.append((frame.index, det))
        state.mean[rows], block = kf_update_batch(state.mean[rows], tuple(b[rows] for b in state.block), boxes)
        for b, new in zip(state.block, block):
            b[rows] = new
        state.rep[rows] = _ema(state.rep[rows], feats)

    state.keep([i for i, t in enumerate(state.tracks) if frame.index - t.last_frame <= state.params.max_age])
    state.mean, state.block = kf_predict_batch(state.mean, state.block)
    matched = {jj for _, jj in matching.pairs}
    state.spawn(frame.index, [frame.detections[j] for jj, j in enumerate(det_idx) if jj not in matched])
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
    state.spawn(frame.index, list(frame.detections))
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
