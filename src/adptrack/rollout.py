"""Near-online tracking layer: rollout of the base tracker over future frames.

For each target frame the layer simulates the base tracker forward over a
truncated horizon, starting fresh at the target frame, which yields one
tentative track per target detection; every simulation reads the cached
detection rows of the frames it steps, so each frame builds them once.
Tracks are then matched to detections with a convex combination of the base
weight matrix and a similarity matrix built from track-versus-tentative-track
comparisons. Several similarity variants are provided: the main score
compares a track's trusted past features against the tentative track's
future features; the others isolate the motion-only, no-simulation and
representative-feature versions of the same idea.

The per-pair functions (`score_main`, `score_f1`, `score_f2`, `score_f3`,
`candidate_filter`) define the scores from a track's forecast and
representative feature; each is a mean whose terms `_mean` adds left to
right. `score_frame`, which `adp_step` uses, reads those from the tracker
state's rows, packs the frame's tentatives (for f2, each target detection
alone) into one entry table, walks the forecast rows with the batched
`motion` forms and scores all pairs of a frame as one masked mean that adds
the same terms in the same order, so it equals the per-pair functions bit
for bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .appearance import cosine_sim, feature_dots, select_quality_window
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
from .core import Detection, FeatureVec, FrameData, box_array, iou, iou_array
from .motion import KalmanState, batch_boxes, batch_centers, kf_correct_predict_batch, kf_predict, kf_update, state_to_bbox

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
    "score_frame",
    "combine_costs",
    "adp_step",
    "run",
]


# Tracks younger than this (in frames) never take the crowd fallback.
_CROWD_MIN_AGE = 10


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
    the crowd heuristic falls back to base weights for tracks at least 10
    frames old that have been occluded for most of their life. At these
    defaults it rarely fires: in traced `perfbench` runs it takes 0 track
    rows of `occ-adp` and about 0.9% of those of `crowd-f2`.
    """

    alpha: float = 0.25
    horizon: int = 15
    window: int = 5
    beta: float = 0.15
    variant: Variant = Variant.MAIN
    cand_iou: float = 0.3
    cand_app: float = 0.25
    crowd_ratio: float = 0.5
    enable_candidate_filter: bool = True
    enable_crowd_heuristic: bool = True

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        for name in ("beta", "cand_iou", "cand_app", "crowd_ratio"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class TentativeTrack:
    """Simulated continuation of one target-frame detection."""

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
    origins = list(sim.tracks)
    for frame in frames[1:]:
        step(sim, frame)
    return [TentativeTrack(tuple(track.history)) for track in origins]


def _window_features(track: Track, cfg: AdpConfig) -> np.ndarray:
    """The track's trusted past: detection features at its quality-window positions, as a (k, d) array."""
    positions = select_quality_window(track.quality, cfg.beta, cfg.window)
    return np.stack([track.history[pos - 1][1].feature.values for pos in positions])


def _mean_pairwise_cos(past: np.ndarray, entry_feats) -> float:
    """`_mean` of the products of every window row with every entry: row by row, entry by entry within a row."""
    if not entry_feats:
        return 0.0
    e = np.stack([f.values for f in entry_feats])
    return min(1.0, max(-1.0, _mean(feature_dots(past[:, None, :], e[None, :, :]).ravel().tolist())))


def score_main(forecast: KalmanState, tent: TentativeTrack, rep: FeatureVec, past: np.ndarray, cfg: AdpConfig) -> float:
    """Past-versus-future appearance score, averaged over compared pairs.

    `past` is the track's trusted window from `_window_features`. Windows
    clamp at the track start and tentative tracks may be short, so the mean
    runs over the pairs actually compared. An empty candidate set is neutral.
    """
    if cfg.enable_candidate_filter:
        entries = candidate_filter(forecast, tent, rep, cfg)
    else:
        entries = list(tent.entries)
    return _mean_pairwise_cos(past, [det.feature for _, det in entries])


def _walk(forecast: KalmanState, tent: TentativeTrack):
    """Walk a clone of a track's filter along the tentative track.

    Yields (frame, det, walk_iou) per entry, where walk_iou is the IOU of the
    clone's prediction with the entry. The clone starts from the track's
    one-step forecast; between entries it is corrected with the previous
    entry and predicted again, so no correction follows the last entry.
    """
    state, prev = forecast, None
    for frame_idx, det in tent.entries:
        if prev is not None:
            state = kf_predict(kf_update(state, prev.bbox))
        yield frame_idx, det, iou(state_to_bbox(state), det.bbox)
        prev = det


def _mean(values: list[float]) -> float:
    """Left-to-right mean, 0 when empty (sum() rounds differently from Python 3.12 on)."""
    total = 0.0
    for v in values:
        total += v
    return total / len(values) if values else 0.0


def score_f1(forecast: KalmanState, tent: TentativeTrack) -> float:
    """Motion-only score: mean IOU of the filter-clone walk along the tentative track."""
    return _mean([walk_iou for _, _, walk_iou in _walk(forecast, tent)])


def score_f2(past: np.ndarray, target_det: Detection) -> float:
    """No-simulation score: the trusted window `past` against the target detection only."""
    return _mean_pairwise_cos(past, [target_det.feature])


def score_f3(forecast: KalmanState, tent: TentativeTrack, rep: FeatureVec) -> float:
    """Blend of the motion walk and the representative feature, per entry.

    Each tentative entry scores min(walk IOU, cos(representative, entry));
    the representative feature is never updated during the walk. Negative
    cosines clamp to zero so the score stays in [0, 1].
    """
    return _mean([min(w, max(0.0, cosine_sim(rep, det.feature))) for _, det, w in _walk(forecast, tent)])


def candidate_filter(
    forecast: KalmanState, tent: TentativeTrack, rep: FeatureVec, cfg: AdpConfig
) -> list[tuple[int, Detection]]:
    """Keep tentative entries that stay plausible for this track.

    An entry survives when the filter-clone walk still overlaps it and its
    feature resembles the track's representative feature.
    """
    return [
        (frame_idx, det)
        for frame_idx, det, walk_iou in _walk(forecast, tent)
        if walk_iou >= cfg.cand_iou and cosine_sim(rep, det.feature) >= cfg.cand_app
    ]


def crowd_check(track: Track, frame_cursor: int, cfg: AdpConfig) -> bool:
    """True when an old track has spent most of its life visually unreliable; its spawn frame is age 1."""
    if frame_cursor - track.history[0][0] + 1 < _CROWD_MIN_AGE or not track.quality:
        return False
    return sum(1 for v in track.quality if v < cfg.beta) / len(track.quality) >= cfg.crowd_ratio


def _frame_walk(forecast: np.ndarray, boxes: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """`_walk` of T forecast rows along every tentative at once, as (T, D, L) walk IOUs.

    `boxes` (D, L, 4) holds the entry boxes of D tentatives and `lengths`
    their entry counts. From step l on only the tentatives longer than l are
    walked, so no state past a tentative's end is computed and its IOUs stay 0.
    """
    x = forecast[:, None].repeat(len(lengths), axis=1)
    centers = batch_centers(boxes)
    out = np.zeros((len(forecast), *boxes.shape[:2]))
    cols, ends = np.arange(len(lengths)), set(lengths.tolist())
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite state raises in batch_boxes
        for step_idx in range(boxes.shape[1]):
            if step_idx in ends:
                live = lengths[cols] > step_idx
                cols, x = cols[live], x[:, live]
            if step_idx:
                x = kf_correct_predict_batch(x, centers[cols, step_idx - 1])
            out[:, cols, step_idx] = iou_array(batch_boxes(x), boxes[cols, step_idx])
    return out


def score_frame(state: TrackerState, tents, cfg: AdpConfig) -> tuple[np.ndarray, list[int]]:
    """Rollout scores z of the state's tracks against the tentatives' detections, and the crowd rows.

    `tents` holds each detection's tentative track; f2's is the detection
    alone. Every variant is one masked mean of (R, K, D, L) terms: R scored
    tracks, K window rows, D detections, L entries. Each pair adds its terms
    left to right, entry by entry within a window row and then row by row, as
    `_mean` adds them, so z equals the per-pair `score_*` functions bit for
    bit. Masked and padded terms are exact zeros and change no sum.

    - the walk IOUs and representative cosines come from one array walk over
      all pairs, and the candidate filter is a mask over them;
    - f1 and f3 take one term per entry (K = 1) from them;
    - main takes, track by track, the products of its trusted window with
      every entry the filter keeps, and K is the longest scored window;
    - f2 is main without the filter.

    Crowd rows score 0; `combine_costs` gives them the base weights.
    """
    tracks = state.tracks
    z = np.zeros((len(tracks), len(tents)))
    crowded = [cfg.enable_crowd_heuristic and crowd_check(t, state.frame_cursor, cfg) for t in tracks]
    crowd = [i for i, c in enumerate(crowded) if c]
    rows = [i for i, c in enumerate(crowded) if not c]
    if not rows or not tents:
        return z, crowd
    lengths = np.array([len(t.entries) for t in tents])
    present = np.arange(lengths.max()) < lengths[:, None]
    entries = [det for tent in tents for _, det in tent.entries]
    feats = np.zeros((*present.shape, entries[0].feature.dim))
    feats[present] = [det.feature.values for det in entries]
    kept = np.broadcast_to(present, (len(rows), *present.shape))
    per_entry = cfg.variant in (Variant.F1, Variant.F3)
    filtered = cfg.variant is Variant.MAIN and cfg.enable_candidate_filter
    if per_entry or filtered:
        boxes = np.zeros((*present.shape, 4))
        boxes[present] = box_array(det.bbox for det in entries)
        walk = _frame_walk(state.forecast[rows], boxes, lengths)
        cos = np.clip(feature_dots(state.rep[rows][:, None, None], feats), -1.0, 1.0)
    if per_entry:
        # 0 past a tentative's end, where the walk IOU is 0
        terms = (walk if cfg.variant is Variant.F1 else np.minimum(walk, np.maximum(0.0, cos)))[:, None]
        sizes = np.ones(len(rows), dtype=int)
    else:
        if filtered:
            kept = kept & (walk >= cfg.cand_iou) & (cos >= cfg.cand_app)
        windows = [_window_features(tracks[i], cfg) for i in rows]
        sizes = np.array([len(win) for win in windows])
        terms = np.zeros((len(rows), sizes.max(), *kept.shape[1:]))
        for r, win in enumerate(windows):
            terms[r, : sizes[r]] = np.where(kept[r], feature_dots(win[:, None, None], feats), 0.0)
    total = np.zeros(kept.shape[:2])
    for k, step_idx in np.ndindex(terms.shape[1], terms.shape[3]):
        total += terms[:, k, :, step_idx]
    counts = kept.sum(axis=2) * sizes[:, None]
    z[rows] = np.clip(np.divide(total, counts, out=np.zeros_like(total), where=counts > 0), -1.0, 1.0)
    return z, crowd


def combine_costs(w: WeightMatrix, z: np.ndarray, alpha: float, crowd_rows=()) -> WeightMatrix:
    """Elementwise alpha*z + (1-alpha)*w; crowd rows copy w verbatim, other non-finite entries raise."""
    if z.shape != (w.rows, w.cols):
        raise ValueError(f"shape mismatch: {w.rows}x{w.cols} vs {z.shape}")
    combined = alpha * z + (1.0 - alpha) * w.array
    rows = list(crowd_rows)
    combined[rows] = w.array[rows]
    return WeightMatrix(combined)


def adp_step(state: TrackerState, window: list[FrameData], cfg: AdpConfig) -> tuple[TrackerState, Matching]:
    """Match the next frame using base weights blended with rollout scores.

    `window` holds the target frame followed by up to `horizon` future
    frames. Each eligible detection gets a tentative track: its simulated
    continuation, or for f2, which never simulates, the detection alone. The
    scores come from `score_frame`: one array walk of every non-crowd track
    along those tentatives, one product of each track's trusted window with
    their entries, and one masked mean. Lifecycle updates are shared with the
    base tracker, so with alpha = 0 the step reproduces the base step exactly.
    """
    if not window:
        raise ValueError("window must contain at least the target frame")
    frame = window[0]
    weights = compute_base_weights(state, frame)  # validates frame order

    det_idx = eligible_detections(frame).tolist()
    if cfg.variant is Variant.F2:
        # The no-simulation variant never reads the future frames.
        tents = [TentativeTrack(((frame.index, frame.detections[j]),)) for j in det_idx]
    else:
        tentatives = simulate_tentative(window, state.params)
        tents = [tentatives[j] for j in det_idx]
    z, crowd_rows = score_frame(state, tents, cfg)

    combined = combine_costs(weights, z, cfg.alpha, crowd_rows)
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
