"""Near-online tracking layer: rollout of the base tracker over future frames.

For each target frame the layer simulates the base tracker forward over a
truncated horizon, starting fresh at the target frame, which yields one
tentative track per target detection as rows of the `core.Sequence`.
Tracks are then matched to detections with a convex combination of the base
weight matrix and a similarity matrix from track-versus-tentative-track
comparisons: the main score compares a track's trusted past features with
the tentative track's future features; the other variants isolate its
motion-only, no-simulation and representative-feature versions.

The per-pair functions (`score_main`, `score_f1`, `score_f2`, `score_f3`,
`candidate_filter`, `crowd_check`) define the scores from a track's forecast,
representative feature and quality record, each a mean that `_mean` adds
left to right. `score_frame` scores a whole frame from the state's rows, the
`TrustedRecord` that follows them and the sequence's rows as one masked
mean that adds the same terms in the same order, equal bit for bit. Real and
simulated steps, tentatives and records hold the sequence's global rows.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .appearance import cosine_sim, feature_dots
from .appearance import select_quality_window  # noqa: F401  (the record's oracle, wrapped by perfbench/probes.py)
from .assignment import Matching, WeightMatrix, hungarian_max
from .base_tracker import (
    TrackerParams,
    TrackerState,
    apply_matching,
    compute_base_weights,
    fork_at,
    step,
    track,
)
from .core import Detection, FeatureVec, Sequence, batch_centers, iou, iou_array
from .motion import KalmanState, batch_boxes, kf_correct_predict_batch, kf_predict, kf_update, state_to_bbox

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
    "TrustedRecord",
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
    selection. Main's candidate filter keeps the entries whose walk IOU and
    representative cosine reach cand_iou and cand_app: cand_iou <= 0 takes no
    walk, and with cand_app <= -1 keeps every entry. Tracks at least 10 frames
    old whose share of qualities below beta reaches crowd_ratio score base
    weights alone: crowd_ratio > 1 switches that crowd fallback off.
    """

    alpha: float = 0.25
    horizon: int = 15
    window: int = 5
    beta: float = 0.15
    variant: Variant = Variant.MAIN
    cand_iou: float = 0.3
    cand_app: float = 0.25
    crowd_ratio: float = 0.5

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
    """Simulated continuation of one target-frame detection, as the per-pair scores read it."""

    entries: tuple[tuple[int, Detection], ...]


def simulate_tentative(seq: Sequence, window: range, params: TrackerParams) -> np.ndarray:
    """Roll the base tracker forward over the frames of `window`, treating its first as a sequence start.

    One tentative track per row of the first frame, in row order, as a (N, L) array: row j holds the sequence rows
    of tentative j's spawn and matches, then -1. Only the window's frames are read.
    """
    if not window:
        raise ValueError("simulation needs at least one frame")
    sim = fork_at(seq, window[0], params)
    n = len(sim.ids)
    log = np.full((n, len(window)), -1)  # the row each origin track matched at each frame
    log[:, 0] = sim.matched
    for k, frame in enumerate(window[1:], start=1):
        step(sim, frame)
        m = np.searchsorted(sim.ids, n, side="right")  # the origin rows lead, with ids 1 to n
        log[sim.ids[:m] - 1, k] = np.where(sim.matched[:m] >= seq.offsets[frame - 1], sim.matched[:m], -1)
    order = np.argsort(log < 0, axis=1, kind="stable")[:, : (log >= 0).sum(axis=1).max(initial=0)]
    return np.take_along_axis(log, order, axis=1)  # each origin's entries first, in frame order


def _mean_pairwise_cos(past: np.ndarray, entry_feats) -> float:
    """`_mean` of the products of every window row with every entry: row by row, entry by entry within a row."""
    if not entry_feats:
        return 0.0
    e = np.stack([f.values for f in entry_feats])
    return min(1.0, max(-1.0, _mean(feature_dots(past[:, None, :], e[None, :, :]).ravel().tolist())))


def score_main(forecast: KalmanState, tent: TentativeTrack, rep: FeatureVec, past: np.ndarray, cfg: AdpConfig) -> float:
    """Past-versus-future appearance score: the mean over the pairs compared, 0 without candidates.

    `past` is the track's trusted window, its (k, d) features at its `select_quality_window` positions.
    """
    return _mean_pairwise_cos(past, [det.feature for _, det in candidate_filter(forecast, tent, rep, cfg)])


def _walk(forecast: KalmanState, tent: TentativeTrack):
    """Yield (frame, det, IOU of a clone of the track's filter with the entry) along the tentative track.

    The clone starts from the track's one-step forecast; between entries it is
    corrected with the previous entry and predicted again, so no correction
    follows the last entry.
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
    """Mean over the walk of min(walk IOU, cos(representative, entry)), the cosine clamped at 0.

    The representative feature is never updated during the walk.
    """
    return _mean([min(w, max(0.0, cosine_sim(rep, det.feature))) for _, det, w in _walk(forecast, tent)])


def candidate_filter(
    forecast: KalmanState, tent: TentativeTrack, rep: FeatureVec, cfg: AdpConfig
) -> list[tuple[int, Detection]]:
    """The tentative entries the filter-clone walk still overlaps and whose feature resembles the representative."""
    return [
        (frame_idx, det)
        for frame_idx, det, walk_iou in _walk(forecast, tent)
        if walk_iou >= cfg.cand_iou and cosine_sim(rep, det.feature) >= cfg.cand_app
    ]


def crowd_check(quality: list[float], spawn: int, frame_cursor: int, cfg: AdpConfig) -> bool:
    """True when an old track has spent most of its life visually unreliable; its spawn frame is age 1."""
    if frame_cursor - spawn + 1 < _CROWD_MIN_AGE or not quality:
        return False
    return sum(1 for v in quality if v < cfg.beta) / len(quality) >= cfg.crowd_ratio


class TrustedRecord:
    """Each tracker row's quality record for one `window` and `beta`, as the state's hook from its first row.

    A row's spawn is its first match, of quality 1.0. `table` row i holds its
    number of qualities, how many lie below `beta`, its spawn frame and its
    trusted window's size. `slots[i, 0]` holds the sequence rows of its last
    `window` matches, oldest first and right-aligned in C slots; `slots[i, 1]`
    their copy at its latest match of quality >= `beta`, or at every match
    while it has none: the rows at its `select_quality_window` positions. C
    grows to min(window, the longest record) and no further; empty slots hold
    row 0.
    """

    __slots__ = ("window", "beta", "table", "slots")

    def __init__(self, window: int, beta: float):
        self.window, self.beta = window, beta
        self.table = np.zeros((0, 4), dtype=np.int64)
        self.slots = np.zeros((0, 2, 0), dtype=np.intp)

    def __call__(self, state: TrackerState, frame: int, keep: np.ndarray, quality: np.ndarray) -> None:
        n, spawned = len(keep), len(state.ids) - len(keep)
        if n < len(self.table) or spawned:
            table = np.zeros((n + spawned, 4), dtype=np.int64)
            table[:n], table[n:, 2] = self.table[keep], frame
            slots = np.zeros((n + spawned, 2, self.slots.shape[2]), dtype=np.intp)
            slots[:n] = self.slots[keep]
            self.table, self.slots = table, slots
            quality = np.concatenate([quality, np.ones(spawned)])
        hit = quality == quality  # not NaN: matched or spawned at this frame
        self.table[:, :2] += np.stack([hit, quality < self.beta], axis=1)
        count, below, _, sizes = self.table.T
        if self.slots.shape[2] < min(self.window, count.max(initial=0)):  # by one slot, as counts grow by one
            self.slots = np.pad(self.slots, ((0, 0), (0, 0), (1, 0)))
        rows, slots = np.flatnonzero(hit), self.slots
        if rows.size:
            slots[rows, 0, :-1] = slots[rows, 0, 1:]
            slots[rows, 0, -1] = state.matched[rows]
            frozen = np.flatnonzero(hit & ((quality >= self.beta) | (below == count)))
            slots[frozen, 1] = slots[frozen, 0]
            sizes[frozen] = np.minimum(count[frozen], self.window)


def _frame_walk(forecast: np.ndarray, boxes: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """`_walk` of T forecasts (11, T) along every tentative at once, as (T, D, L) walk IOUs.

    `boxes` (D, L, 4) holds the entry boxes of D tentatives, any box past
    each end, and `lengths` their entry counts. The pairs step to the
    longest tentative's end, step k writing plane k of one (L, 11, T, D)
    block; one IOU pass over the walked cells follows. Cells past an end stay
    +0.0, their states never read.
    """
    walked = np.arange(boxes.shape[1]) < lengths[:, None]
    centers = batch_centers(boxes)[..., None, :]  # (4, L, 1, D)
    states = np.empty((boxes.shape[1], *forecast.shape, len(lengths)))
    states[0] = forecast[..., None]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite state raises in batch_boxes
        for k in range(1, boxes.shape[1]):
            kf_correct_predict_batch(states[k - 1], centers[:, k - 1], out=states[k])
        out = np.zeros((forecast.shape[1], *boxes.shape[:2]))
        out[:, walked] = iou_array(batch_boxes(states.transpose(1, 2, 3, 0)[:, :, walked]), boxes[walked])
    return out


def score_frame(state: TrackerState, tents: np.ndarray, cfg: AdpConfig) -> tuple[np.ndarray, np.ndarray]:
    """Rollout scores z of the state's tracks against the tentatives' detections, and the crowd rows.

    `tents` (D, L) holds each detection's tentative as rows of the state's sequence, then -1; f2's is the
    detection alone. The crowd rows, which score 0, are one comparison of the counts of the state's hook, which
    must be its `TrustedRecord` for `cfg.window` and `cfg.beta`; the trusted windows are the sequence's features
    at the record's rows, and the entries' features and boxes those at `tents`. Each variant is one masked mean of
    (R, D, K, L) terms (scored tracks, detections, window rows, entries) that each pair adds as `_mean` adds
    them, so z equals the per-pair `score_*` functions bit for bit; masked and padded terms are exact zeros.
    One array walk gives the walk IOUs, which f1 and f3 take per entry; the candidate filter and f3 also read
    the representative cosines. Main walks only at cand_iou > 0, where its filter reads the walk. Main multiplies
    the trusted windows, padded to the longest scored one, with the entries the filter keeps, in one product over
    those cells alone; f2, and main at thresholds that keep every entry, take every cell.
    """
    record, key = state.hook, (cfg.window, cfg.beta, len(state.ids))
    if not isinstance(record, TrustedRecord) or (record.window, record.beta, len(record.table)) != key:
        raise ValueError(f"the state's hook must be the TrustedRecord of its rows for (window, beta) {key[:2]}")
    z = np.zeros((len(state.ids), len(tents)))
    count, below, spawn, sizes = record.table.T
    old = spawn <= state.frame_cursor + 1 - _CROWD_MIN_AGE  # the spawn frame is age 1
    crowded = old & (below / count >= cfg.crowd_ratio)
    rows, crowd = np.flatnonzero(~crowded), np.flatnonzero(crowded)
    if not rows.size or not len(tents):
        return z, crowd
    lengths = (tents >= 0).sum(axis=1)
    tents = tents[:, : lengths.max()]  # a -1 past an end reads the last row, seen by masked terms and unread states
    kept, feats = tents >= 0, state.seq.features[tents]
    per_entry = cfg.variant in (Variant.F1, Variant.F3)
    filtered = cfg.variant is Variant.MAIN and (cfg.cand_iou > 0 or cfg.cand_app > -1)
    walked = per_entry or filtered and cfg.cand_iou > 0
    if walked:
        walk = _frame_walk(state.forecast.take(rows, axis=1), state.seq.boxes[tents], lengths)
    if cfg.variant is Variant.F3 or filtered:  # f1 reads only the walk IOUs
        cos = np.clip(feature_dots(state.rep[rows][:, None, None], feats), -1.0, 1.0)
    if per_entry:
        # 0 past a tentative's end, where the walk IOU is 0
        terms = (walk if cfg.variant is Variant.F1 else np.minimum(walk, np.maximum(0.0, cos)))[:, :, None]
        sizes = np.ones(len(rows), dtype=int)
    else:
        sizes = sizes[rows]
        slots = np.arange(-sizes.max(), 0) >= -sizes[:, None]
        past = record.slots[rows, 1, -sizes.max() :]  # the trusted windows' sequence rows
        if filtered:  # the products of the kept cells alone, scattered into zero terms
            kept = kept & (cos >= cfg.cand_app)
            if walked:
                kept &= walk >= cfg.cand_iou
            r, j, e = np.nonzero(kept)
            terms = np.zeros((*kept.shape[:2], slots.shape[1], kept.shape[2]))
            terms[r, j, :, e] = np.where(slots[r], feature_dots(state.seq.features[past[r]], feats[j, e, None]), 0.0)
        else:  # every cell is kept: one broadcast product beats the gather (6% of a `crowd-f2` frame)
            dots = feature_dots(state.seq.features[past[:, :, None, None]], feats).transpose(0, 2, 1, 3)
            terms = np.where(kept[..., None, :] & slots[:, None, :, None], dots, 0.0)
    # Each pair's (K, L) terms in `_mean`'s order; no term is -0.0, so starting at the first adds as 0.0 + does.
    total = np.add.accumulate(terms.reshape(*terms.shape[:2], -1), axis=2)[..., -1]
    counts = kept.sum(axis=-1) * sizes[:, None]
    z[rows] = np.clip(np.divide(total, counts, out=np.zeros_like(total), where=counts > 0), -1.0, 1.0)
    return z, crowd


def combine_costs(w: WeightMatrix, z: np.ndarray, alpha: float, crowd_rows=()) -> WeightMatrix:
    """Elementwise alpha*z + (1-alpha)*w; crowd rows copy w verbatim, other non-finite entries raise."""
    if z.shape != (w.rows, w.cols):
        raise ValueError(f"shape mismatch: {w.rows}x{w.cols} vs {z.shape}")
    combined = alpha * z + (1.0 - alpha) * w.array
    if len(crowd_rows):
        combined[crowd_rows] = w.array[crowd_rows]
    return WeightMatrix(combined)


def adp_step(state: TrackerState, window: range, cfg: AdpConfig) -> tuple[TrackerState, Matching]:
    """Match the next frame using base weights blended with rollout scores.

    `window` holds the target frame followed by up to `horizon` future
    frames. Each eligible detection gets a tentative track: its simulated
    continuation, or for f2, which never simulates, the detection alone;
    `score_frame` scores them. Lifecycle updates are shared with the base
    tracker, so with alpha = 0 the step reproduces the base step exactly.
    """
    if not window:
        raise ValueError("window must contain at least the target frame")
    frame = window[0]
    weights = compute_base_weights(state, frame)  # validates frame order

    dets = state.seq.confident(frame)[0]
    if cfg.variant is Variant.F2 or not dets.size:
        tents = dets[:, None]  # f2, which never reads the future frames, or no tentative at all
    else:
        tents = simulate_tentative(state.seq, window, state.params)[dets - state.seq.rows(frame).start]
    z, crowd_rows = score_frame(state, tents, cfg)

    combined = combine_costs(weights, z, cfg.alpha, crowd_rows)
    matching = hungarian_max(combined, state.params.match_threshold)
    apply_matching(state, frame, matching)
    return state, matching


def run(seq: Sequence, params: TrackerParams, cfg: AdpConfig) -> np.ndarray:
    """Track a whole sequence with a sliding rollout window, over the frames that `base_tracker.track` walks: a
    frame entered without tracks is a cold start, a base `step`; every other is matched by `adp_step`, with the
    window truncating at the sequence end."""
    state = TrackerState(params, seq)
    state.hook = TrustedRecord(cfg.window, cfg.beta)

    def step_frame(state, frame):
        if len(state.ids):
            adp_step(state, range(frame, min(frame + cfg.horizon, seq.last) + 1), cfg)
        else:
            step(state, frame)

    return track(state, step_frame)
