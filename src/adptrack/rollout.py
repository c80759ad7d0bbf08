"""Near-online tracking layer: rollout of the base tracker over future frames.

For each target frame the layer simulates the base tracker forward over a
truncated horizon, starting fresh at the target frame, which yields one
tentative track per target detection. Tracks are then matched to detections
with a convex combination of the base weight matrix and a similarity matrix
built from track-versus-tentative-track comparisons. Several similarity
variants are provided: the main score compares a track's trusted past
features against the tentative track's future features; the others isolate
the motion-only, no-simulation and representative-feature versions of the
same idea.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .appearance import cosine_sim, select_quality_window
from .assignment import Matching, WeightMatrix, hungarian_max
from .base_tracker import (
    Track,
    TrackerParams,
    TrackerState,
    apply_matching,
    collect_frame_rows,
    compute_base_weights,
    eligible_detections,
    fork_at,
    step,
)
from .core import Detection, FrameData, iou
from .motion import kf_predict, kf_update, state_to_bbox

__all__ = [
    "Variant",
    "AdpConfig",
    "TentativeTrack",
    "simulate_tentative",
    "score_main",
    "score_f1",
    "score_f2",
    "score_f3",
    "candidate_filter",
    "crowd_check",
    "combine_costs",
    "adp_step",
    "run",
]


class Variant(enum.Enum):
    MAIN = "main"
    F1 = "f1"
    F2 = "f2"
    F3 = "f3"


@dataclass(frozen=True)
class AdpConfig:
    """Tuning knobs for the rollout layer.

    alpha weighs the future-information matrix against the base weights,
    horizon bounds the simulation length, window/beta shape the trusted-past
    selection. The candidate filter drops tentative-track entries that are
    geometrically or visually implausible for the track under comparison;
    the crowd heuristic falls back to base weights for tracks that have been
    occluded for most of their life.
    """

    alpha: float = 0.25
    horizon: int = 15
    window: int = 5
    beta: float = 0.15
    variant: Variant = Variant.MAIN
    cand_iou: float = 0.3
    cand_app: float = 0.25
    crowd_ratio: float = 0.5
    crowd_min_age: int = 10
    enable_candidate_filter: bool = True
    enable_crowd_heuristic: bool = True

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.crowd_min_age < 1:
            raise ValueError(f"crowd_min_age must be >= 1, got {self.crowd_min_age}")


@dataclass(frozen=True)
class TentativeTrack:
    """Simulated continuation of one target-frame detection."""

    origin_det: int
    entries: tuple[tuple[int, Detection], ...]


def simulate_tentative(frames: list[FrameData], params: TrackerParams) -> list[TentativeTrack]:
    """Roll the base tracker forward from the first supplied frame.

    One tentative track per detection of the first frame, in detection
    order; tracks that die during the simulation come back shorter. Only the
    supplied frames are read, so the horizon truncates silently at the end
    of a sequence.
    """
    if not frames:
        raise ValueError("simulation needs at least one frame")
    sim = fork_at(frames[0], params)
    origin_ids = [t.id for t in sim.tracks]
    for frame in frames[1:]:
        step(sim, frame)
    by_id = {t.id: t for t in sim.tracks}
    return [
        TentativeTrack(origin_det=j, entries=tuple(by_id[tid].history))
        for j, tid in enumerate(origin_ids)
    ]


def _window_features(track: Track, cfg: AdpConfig):
    """Detection features at the track's quality-window positions."""
    win = select_quality_window(track.quality, cfg.beta, cfg.window)
    return [track.history[pos - 1][1].feature for pos in win.positions()]


def _mean_pairwise_cos(window_feats, entry_feats) -> float:
    if not window_feats or not entry_feats:
        return 0.0
    w = np.stack([f.values for f in window_feats])
    e = np.stack([f.values for f in entry_feats])
    return float(np.clip((w @ e.T).mean(), -1.0, 1.0))


def score_main(track: Track, tent: TentativeTrack, cfg: AdpConfig) -> float:
    """Past-versus-future appearance score, averaged over compared pairs.

    Quality windows clamp at the track start and tentative tracks may be
    short, so the average runs over the pairs actually compared rather than
    a fixed window-times-horizon count. An empty candidate set is neutral.
    """
    window_feats = _window_features(track, cfg)
    if cfg.enable_candidate_filter:
        entries = candidate_filter(track, tent, cfg)
    else:
        entries = list(tent.entries)
    return _mean_pairwise_cos(window_feats, [det.feature for _, det in entries])


def _walk(track: Track, tent: TentativeTrack):
    """Walk a clone of the track's filter along the tentative track.

    Yields (frame, det, walk_iou) per entry, where walk_iou is the IOU of the
    clone's prediction with the entry. The clone starts from the track's own
    state, so the first prediction is the track's one-step forecast; after
    each entry the clone is corrected with it.
    """
    state = track.kalman
    for frame_idx, det in tent.entries:
        state = kf_predict(state)
        yield frame_idx, det, iou(state_to_bbox(state), det.bbox)
        state = kf_update(state, det.bbox)


def _mean(values: list[float]) -> float:
    """Left-to-right mean, 0 when empty (sum() rounds differently from Python 3.12 on)."""
    total = 0.0
    for v in values:
        total += v
    return total / len(values) if values else 0.0


def score_f1(track: Track, tent: TentativeTrack) -> float:
    """Motion-only score: mean IOU of the filter-clone walk along the tentative track."""
    return _mean([walk_iou for _, _, walk_iou in _walk(track, tent)])


def score_f2(track: Track, target_det: Detection, cfg: AdpConfig) -> float:
    """No-simulation score: trusted past features against the target detection only."""
    return _mean_pairwise_cos(_window_features(track, cfg), [target_det.feature])


def score_f3(track: Track, tent: TentativeTrack) -> float:
    """Blend of the motion walk and the representative feature, per entry.

    Each tentative entry scores min(walk IOU, cos(representative, entry));
    the representative feature is never updated during the walk. Negative
    cosines clamp to zero so the score stays in [0, 1].
    """
    return _mean([min(w, max(0.0, cosine_sim(track.rep_feature, det.feature))) for _, det, w in _walk(track, tent)])


def candidate_filter(track: Track, tent: TentativeTrack, cfg: AdpConfig) -> list[tuple[int, Detection]]:
    """Keep tentative entries that stay plausible for this track.

    An entry survives when the filter-clone walk still overlaps it and its
    feature resembles the track's representative feature.
    """
    return [
        (frame_idx, det)
        for frame_idx, det, walk_iou in _walk(track, tent)
        if walk_iou >= cfg.cand_iou and cosine_sim(track.rep_feature, det.feature) >= cfg.cand_app
    ]


def crowd_check(track: Track, cfg: AdpConfig) -> bool:
    """True when an old track has spent most of its life visually unreliable."""
    if track.age < cfg.crowd_min_age or len(track.quality) == 0:
        return False
    return track.quality.fraction_below(cfg.beta) >= cfg.crowd_ratio


def combine_costs(w: WeightMatrix, z: WeightMatrix, alpha: float, crowd_rows=()) -> WeightMatrix:
    """Elementwise alpha*z + (1-alpha)*w; crowd rows copy w verbatim."""
    if (w.rows, w.cols) != (z.rows, z.cols):
        raise ValueError(f"shape mismatch: {w.rows}x{w.cols} vs {z.rows}x{z.cols}")
    combined = alpha * z.array + (1.0 - alpha) * w.array
    for i in crowd_rows:
        combined[i, :] = w.array[i, :]
    return WeightMatrix(combined)


def adp_step(state: TrackerState, window: list[FrameData], cfg: AdpConfig) -> tuple[TrackerState, Matching]:
    """Match the next frame using base weights blended with rollout scores.

    `window` holds the target frame followed by up to `horizon` future
    frames. Lifecycle updates are shared with the base tracker, so with
    alpha = 0 the step reproduces the base step exactly.
    """
    if not window:
        raise ValueError("window must contain at least the target frame")
    frame = window[0]
    weights = compute_base_weights(state, frame)  # validates frame order

    tracks = state.alive_tracks()
    det_idx = eligible_detections(frame, state.params)
    # The no-simulation variant never reads the future frames.
    tentatives = None if cfg.variant is Variant.F2 else simulate_tentative(window, state.params)

    z = np.zeros((len(tracks), len(det_idx)))
    crowd_rows = []
    for i, track in enumerate(tracks):
        if cfg.enable_crowd_heuristic and crowd_check(track, cfg):
            crowd_rows.append(i)
            continue
        for jj, j in enumerate(det_idx):
            if cfg.variant is Variant.MAIN:
                z[i, jj] = score_main(track, tentatives[j], cfg)
            elif cfg.variant is Variant.F1:
                z[i, jj] = score_f1(track, tentatives[j])
            elif cfg.variant is Variant.F2:
                z[i, jj] = score_f2(track, frame.detections[j], cfg)
            else:
                z[i, jj] = score_f3(track, tentatives[j])

    combined = combine_costs(weights, WeightMatrix(z), cfg.alpha, crowd_rows)
    matching = hungarian_max(combined, state.params.match_threshold)
    apply_matching(state, frame, matching)
    return state, matching


def run(frames: list[FrameData], params: TrackerParams, cfg: AdpConfig) -> list[tuple[int, int, Detection]]:
    """Track a whole sequence with a sliding rollout window.

    The first frame cold-starts the tracker (every confident detection
    spawns a track); each later frame is matched by `adp_step` with the
    window sliding one frame at a time and truncating at the sequence end.
    """
    if not frames:
        raise ValueError("cannot track an empty sequence")
    state = TrackerState(params, frame_cursor=frames[0].index - 1)
    rows: list[tuple[int, int, Detection]] = []
    step(state, frames[0])
    rows.extend(collect_frame_rows(state, frames[0].index))
    for i in range(1, len(frames)):
        window = frames[i : i + cfg.horizon + 1]
        adp_step(state, window, cfg)
        rows.extend(collect_frame_rows(state, frames[i].index))
    return rows
