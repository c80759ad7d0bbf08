"""CLEAR tracking metrics (MOTA, FP, FN, IDSW, Frag) and IDF1.

Per-frame correspondences follow the CLEAR protocol: an existing gt-to-
prediction pair persists while both members are present and still overlap
enough, and only the remainder is re-matched each frame. Identifier switches
compare against the last prediction id a ground-truth trajectory was ever
matched to; fragmentations count matched-unmatched-matched transitions over
the frames where the trajectory exists. IDF1 comes from one global maximum
matching between gt and prediction identities weighted by the number of
frames in which their boxes are compatible. Both read one IOU matrix per frame.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .assignment import WeightMatrix, hungarian_max
from .core import BoundingBox, box_array, iou_matrix
from .core import iou  # noqa: F401  (the benchmark's probe wraps metrics.iou by name)

__all__ = ["DEFAULT_IOU_THRESHOLD", "LabeledBox", "MetricsReport", "clear_match", "evaluate"]

# Overlap a prediction needs to count as a detection of a gt box (the CLEAR convention).
DEFAULT_IOU_THRESHOLD = 0.5


@dataclass(frozen=True)
class LabeledBox:
    """One annotated box: frame, trajectory id, geometry."""

    frame: int
    id: int
    bbox: BoundingBox


@dataclass(frozen=True)
class MetricsReport:
    idf1: float
    mota: float
    fp: int
    fn: int
    idsw: int
    frag: int
    gt_total: int

    def __post_init__(self):
        if self.gt_total <= 0:
            raise ValueError("report needs a positive ground-truth box count")
        expected = 1.0 - (self.fp + self.fn + self.idsw) / self.gt_total
        if abs(self.mota - expected) > 1e-9:
            raise ValueError(f"inconsistent MOTA {self.mota}, expected {expected}")
        if not (0.0 <= self.idf1 <= 1.0):
            raise ValueError(f"IDF1 must lie in [0, 1], got {self.idf1}")


def clear_match(
    overlap: np.ndarray,
    gt_ids: list[int],
    pred_ids: list[int],
    last_matched: dict[int, int],
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
) -> dict[int, int]:
    """Frame correspondence map gt id -> pred id.

    `overlap` holds the frame's IOUs, rows for `gt_ids` and columns for
    `pred_ids` (a repeated pred id stands for its last column). `last_matched`
    maps each gt id to the pred id of its last match. Those pairs that are
    co-present with IOU >= threshold are kept first; everything else is
    matched by maximum total IOU over pairs at or above the threshold.
    """
    if not (0.0 < iou_threshold <= 1.0):
        raise ValueError(f"iou threshold must lie in (0, 1], got {iou_threshold}")
    pred_col = {pid: j for j, pid in enumerate(pred_ids)}
    corr: dict[int, int] = {}
    used_preds: set[int] = set()
    for i, gid in enumerate(gt_ids):
        pid = last_matched.get(gid)
        if pid is None or pid in used_preds or pid not in pred_col:
            continue
        if overlap[i, pred_col[pid]] >= iou_threshold:
            corr[gid] = pid
            used_preds.add(pid)

    rest_gt = [i for i, gid in enumerate(gt_ids) if gid not in corr]
    rest_pred = [j for j, pid in enumerate(pred_ids) if pid not in used_preds]
    if rest_gt and rest_pred:
        matching = hungarian_max(WeightMatrix(overlap[np.ix_(rest_gt, rest_pred)]), iou_threshold)
        for i, j in matching.pairs:
            corr[gt_ids[rest_gt[i]]] = pred_ids[rest_pred[j]]
    return corr


def _by_frame(boxes) -> dict[int, list[LabeledBox]]:
    grouped = defaultdict(list)
    for b in boxes:
        grouped[b.frame].append(b)
    for frame in grouped:
        grouped[frame].sort(key=lambda b: b.id)
    return grouped


def evaluate(gt, pred, iou_threshold: float = DEFAULT_IOU_THRESHOLD) -> MetricsReport:
    """Score a prediction set against ground truth."""
    gt = list(gt)
    pred = list(pred)
    if not gt:
        raise ValueError("ground truth must not be empty")

    gt_frames = _by_frame(gt)
    pred_frames = _by_frame(pred)
    frames = sorted(set(gt_frames) | set(pred_frames))

    gt_pos = {gid: i for i, gid in enumerate(sorted({g.id for g in gt}))}
    pred_pos = {pid: j for j, pid in enumerate(sorted({p.id for p in pred}))}
    counts = np.zeros((len(gt_pos), len(pred_pos)))

    fp = fn = idsw = frag = 0
    last_matched: dict[int, int] = {}  # gt id -> pred id of its last match
    interrupted: set[int] = set()  # gt ids unmatched since their last match

    for frame in frames:
        gts = gt_frames.get(frame, [])
        preds = pred_frames.get(frame, [])
        overlap = iou_matrix(box_array([g.bbox for g in gts]), box_array([p.bbox for p in preds]))
        corr = clear_match(overlap, [g.id for g in gts], [p.id for p in preds], last_matched, iou_threshold)

        matched = set(corr.values())
        fp += sum(1 for p in preds if p.id not in matched)
        fn += sum(1 for g in gts if g.id not in corr)

        for g in gts:
            pid = corr.get(g.id)
            if pid is None:
                if g.id in last_matched:
                    interrupted.add(g.id)
                continue
            if g.id in last_matched and last_matched[g.id] != pid:
                idsw += 1
            last_matched[g.id] = pid
            if g.id in interrupted:
                frag += 1
                interrupted.remove(g.id)

        i, j = np.nonzero(overlap >= iou_threshold)
        gt_idx = np.array([gt_pos[g.id] for g in gts], dtype=np.intp)
        pred_idx = np.array([pred_pos[p.id] for p in preds], dtype=np.intp)
        np.add.at(counts, (gt_idx[i], pred_idx[j]), 1.0)

    gt_total = len(gt)
    pred_total = len(pred)

    # Every maximum matching of the integer counts has the same total, so one
    # solve gives IDTP and no tie-break between optimal pairings is needed.
    rows, cols = linear_sum_assignment(counts, maximize=True)
    idtp = counts[rows, cols].sum()
    idf1 = 2.0 * idtp / (gt_total + pred_total)

    mota = 1.0 - (fp + fn + idsw) / gt_total
    return MetricsReport(
        idf1=float(idf1), mota=float(mota), fp=fp, fn=fn, idsw=idsw, frag=frag, gt_total=gt_total
    )
