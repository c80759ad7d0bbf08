"""Online base tracker: gated similarity weights, matching, track lifecycle.

`TrackerState` holds the live tracks as rows of arrays: each track's id,
one-step forecast (the filter state predicted for the next frame, a column
of `motion`'s (11, T) component planes), representative feature and the
`core.Sequence` row it last matched, whose frame is its last-match frame.
Per frame the tracker scores each track/detection pair by the minimum of
forecast-box overlap and gated appearance similarity, solves a thresholded
max-weight matching and applies the usual lifecycle to all rows at once:
matched rows are corrected and refreshed, a track whose last match lies
more than `max_age` frames back (its row before that frame's first row) is
removed (SORT, Bewley et al., ICIP 2016), every surviving row is predicted
one frame ahead and confident unmatched detections spawn at the filter's
closed-form prior. A step names the frame by its index and reads the
sequence's confident rows and box centers, taken once per sequence; a run
starts at the first frame with rows and jumps over frames without rows
while it holds no track. A state's `hook` sees each match's gated
appearance score.

The gates and rates are fixed, DeepSORT-style (Wojke, Bewley & Paulus, ICIP
2017): a pair's appearance counts only when its forecast IOU reaches 0.1 and
its cosine 0.25, the representative feature is an EMA with momentum 0.9, and
detections below confidence 0.1 (`core.MIN_CONFIDENCE`) are ignored.
`TrackerParams` holds the two settings callers vary: the match threshold and
the maximum age.

Each row equals the scalar recursion (`kf_init`, `kf_predict`, `kf_update`,
`ema_update`) bit for bit. Everything is deterministic; the near-online layer
reuses `apply_matching`, so both trackers share one lifecycle code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# cosine_sim, iou, kf_predict and kf_update are the rows' scalar oracles, imported for perfbench/probes.py to wrap.
from .appearance import cosine_sim, feature_dots  # noqa: F401
from .assignment import Matching, WeightMatrix, hungarian_max
from .core import Sequence, iou, iou_matrix, unit_rows  # noqa: F401
from .motion import batch_boxes, kf_predict, kf_predict_batch, kf_prior_batch, kf_update, kf_update_batch  # noqa: F401

__all__ = [
    "TrackerParams",
    "TrackerState",
    "compute_base_weights",
    "step",
    "fork_at",
    "apply_matching",
    "collect_frame_rows",
    "track",
    "run",
]


# Fixed gates and rates; the module docstring gives their source.
_APPEARANCE_GATE = 0.25
_IOU_GATE = 0.1
_EMA_MOMENTUM = 0.9


@dataclass(frozen=True)
class TrackerParams:
    match_threshold: float = 0.2
    max_age: int = 30

    def __post_init__(self):
        if not (0.0 <= self.match_threshold <= 1.0):
            raise ValueError(f"match_threshold must lie in [0, 1], got {self.match_threshold}")
        if self.max_age < 1:
            raise ValueError(f"max_age must be >= 1, got {self.max_age}")


class TrackerState:
    """The live tracks over the sequence `seq` as rows, in spawn order, the id counter and the frame cursor.

    Row i of `ids` (T,), `rep` (T, d) and `matched` (T,), and column i of `forecast`, hold one track's id,
    representative feature, the row of `seq` it last matched (or spawned from) and one-step forecast. `forecast` is
    `motion`'s (11, T) component planes, one C-ordered block. A track lives while the frame of its `matched` row
    lies at most `max_age` frames back; removed tracks leave the arrays, and their ids are never reused. `weighed`
    is the last weights pass of these rows: (frame, gated appearance scores). `hook`, if set, is called after each
    `apply_matching` as ``hook(state, frame, keep, quality)``: the rows now start with the old rows `keep`, whose
    gated appearance scores at `frame` are `quality` (NaN where not matched), then the ones spawned there.
    """

    __slots__ = ("seq", "ids", "forecast", "rep", "matched", "next_id", "params", "frame_cursor", "weighed", "hook")

    def __init__(self, params: TrackerParams, seq: Sequence, frame_cursor: int = 0):
        self.seq = seq
        self.ids = np.zeros(0, dtype=np.int64)
        self.forecast = kf_prior_batch(np.zeros((4, 0)))
        self.rep = np.zeros((0, 0))
        self.matched = np.zeros(0, dtype=np.intp)
        self.next_id = 1
        self.params = params
        self.frame_cursor = frame_cursor
        self.weighed = None
        self.hook = None

    def spawn(self, rows: np.ndarray) -> None:
        """New tracks for the sequence rows `rows` after the live ones, at the prior of their centers."""
        if not len(rows):
            return
        self.ids = np.concatenate([self.ids, np.arange(self.next_id, self.next_id + len(rows))])
        self.next_id += len(rows)
        self.forecast = np.concatenate([self.forecast, kf_prior_batch(self.seq.centers[:, rows])], axis=1)
        self.rep = np.concatenate([self.rep, self.seq.features[rows]]) if len(self.rep) else self.seq.features[rows]
        self.matched = np.concatenate([self.matched, rows])
        self.weighed = None


def _gate(overlap: np.ndarray, dots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(fused weights, gated appearance scores) of pairs, from their overlaps and feature dot products."""
    cos = np.minimum(np.maximum(dots, -1.0), 1.0)
    gated = np.where((cos >= _APPEARANCE_GATE) & (overlap >= _IOU_GATE), np.maximum(cos, 0.0), 0.0)
    return np.minimum(overlap, gated), gated


def _ema(rep: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """`ema_update` of each row of `rep` with the same row of `obs`.

    The blends are normalised as one `unit_rows` block, as `ema_update`
    normalises one: each norm is the row's own `feature_dots` multiply-sum,
    which no other row and no BLAS kernel changes, so each row equals the
    blend normalised alone bit for bit.
    """
    unit, failed, _ = unit_rows(_EMA_MOMENTUM * rep + (1.0 - _EMA_MOMENTUM) * obs)
    if failed:
        raise ValueError("EMA blend collapsed to zero (antipodal inputs)")
    return unit


def compute_base_weights(state: TrackerState, frame: int) -> WeightMatrix:
    """Pairwise fused weights: live tracks x confident detections.

    Each entry is min(forecast IOU, gated cosine) of its pair; a pair whose
    overlap misses the IOU gate weighs 0 whatever its appearance, so the
    feature products are taken only inside the gate. The gated appearance
    scores (0 outside the IOU gate) stay on the state for `apply_matching`.
    """
    if frame != state.frame_cursor + 1:
        raise ValueError(f"out-of-order frame {frame}, expected {state.frame_cursor + 1}")
    dets, boxes = state.seq.confident(frame)
    overlap = iou_matrix(batch_boxes(state.forecast), boxes)
    rows, cols = np.nonzero(overlap >= _IOU_GATE)
    weights, gated = np.zeros(overlap.shape), np.zeros(overlap.shape)
    if rows.size:
        weights[rows, cols], gated[rows, cols] = _gate(overlap[rows, cols], feature_dots(state.rep[rows], state.seq.features[dets[cols]]))
    state.weighed = (frame, gated)
    return WeightMatrix(weights)


def apply_matching(state: TrackerState, frame: int, matching: Matching) -> None:
    """Advance one frame applying the lifecycle implied by a matching.

    Matching rows index the state's rows, columns the frame's confident rows (`Sequence.confident`).
    It consumes the `compute_base_weights` pass of this state and frame. The
    matched rows are taken together: each forecast is corrected with its
    detection and each representative feature blended with the detection's.
    The tracks whose last match lies at most `max_age` frames back are kept
    and predicted; unmatched confident detections spawn after them. The hook
    then sees the kept rows and the pass's gated appearance scores.
    """
    if state.weighed is None or state.weighed[0] != frame:
        raise ValueError(f"apply_matching needs a compute_base_weights pass of this state for frame {frame}")
    (_, gated), state.weighed = state.weighed, None
    dets = state.seq.confident(frame)[0]
    rows, cols = np.array(matching.pairs, dtype=np.intp).reshape(-1, 2).T
    matched = dets[cols]
    if rows.size:
        state.forecast[:, rows] = kf_update_batch(state.forecast.take(rows, axis=1), state.seq.centers[:, matched])
        state.rep[rows] = _ema(state.rep[rows], state.seq.features[matched])
        state.matched[rows] = matched
    if state.hook is not None:
        quality = np.full(len(state.ids), np.nan)
        quality[rows] = gated[rows, cols]

    keep = np.flatnonzero(state.matched >= state.seq.offsets[max(frame - state.params.max_age, 1) - 1])
    if len(keep) < len(state.ids):
        state.ids, state.rep, state.matched = (a[keep] for a in (state.ids, state.rep, state.matched))
        state.forecast = state.forecast.take(keep, axis=1)
    kf_predict_batch(state.forecast, out=state.forecast)
    free = np.ones(len(dets), dtype=bool)
    free[cols] = False
    state.spawn(dets[free])
    state.frame_cursor = frame
    if state.hook is not None:
        state.hook(state, frame, keep, quality[keep])


def step(state: TrackerState, frame: int) -> tuple[TrackerState, Matching]:
    """One online tracking step: weights, gated matching, lifecycle."""
    weights = compute_base_weights(state, frame)
    matching = hungarian_max(weights, state.params.match_threshold)
    apply_matching(state, frame, matching)
    return state, matching


def fork_at(seq: Sequence, frame: int, params: TrackerParams) -> TrackerState:
    """Fresh tracker seeded with one track per row of this frame.

    Used by the near-online simulation, which treats this frame as the first
    frame of a new sequence and carries no earlier information.
    """
    rows = seq.rows(frame)
    state = TrackerState(params, seq, frame_cursor=frame)
    state.spawn(np.arange(rows.start, rows.stop))
    return state


def collect_frame_rows(state: TrackerState, frame: int) -> np.ndarray:
    """(frame, track id, sequence row) rows, as a (k, 3) array, of the tracks whose last match lies at or after
    `frame`: after a step at `frame`, those matched or spawned there."""
    rows = np.flatnonzero(state.matched >= state.seq.offsets[frame - 1])
    return np.stack([np.full(len(rows), frame), state.ids[rows], state.matched[rows]], axis=1)


def track(state: TrackerState, step_frame) -> np.ndarray:
    """Step the state through its sequence by ``step_frame(state, frame)`` and stack the `collect_frame_rows` of
    each frame, from the first with rows on; while the state holds no track, a step over a frame without rows would
    change nothing but the cursor, so the walk jumps to the next frame with rows."""
    seq, frame, rows = state.seq, 1, [np.zeros((0, 3), dtype=np.int64)]
    if not seq.last:
        raise ValueError("cannot track an empty sequence")
    while (frame := frame if len(state.ids) else seq.next_busy(frame)) <= seq.last:
        state.frame_cursor = frame - 1
        step_frame(state, frame)
        rows.append(collect_frame_rows(state, frame))
        frame += 1
    return np.concatenate(rows)


def run(seq: Sequence, params: TrackerParams) -> np.ndarray:
    """Track a whole sequence online, one `step` per frame that `track` walks."""
    return track(TrackerState(params, seq), step)
