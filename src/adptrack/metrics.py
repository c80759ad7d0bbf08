"""CLEAR tracking metrics (MOTA, FP, FN, IDSW, Frag) and IDF1.

Per-frame correspondences follow the CLEAR protocol: an existing gt-to-
prediction pair persists while both members are present and still overlap
enough, and only the remainder is re-matched each frame. Identifier switches
compare against the last prediction id a ground-truth trajectory was ever
matched to; fragmentations count matched-unmatched-matched transitions over
the frames where the trajectory exists. IDF1 comes from one global maximum
matching between gt and prediction identities weighted by the number of
frames in which their boxes are compatible.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .assignment import WeightMatrix, hungarian_max
from .core import BoundingBox, box_array, iou, iou_matrix

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
    gt_frame: list[LabeledBox],
    pred_frame: list[LabeledBox],
    prev_map: dict[int, int],
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
) -> dict[int, int]:
    """Frame correspondence map gt id -> pred id.

    Pairs from `prev_map` that are co-present with IOU >= threshold are kept
    first; everything else is matched by maximum total IOU over pairs at or
    above the threshold.
    """
    if not (0.0 < iou_threshold <= 1.0):
        raise ValueError(f"iou threshold must lie in (0, 1], got {iou_threshold}")
    preds_by_id = {p.id: p for p in pred_frame}
    corr: dict[int, int] = {}
    used_preds: set[int] = set()
    for g in gt_frame:
        pid = prev_map.get(g.id)
        if pid is None or pid in used_preds or pid not in preds_by_id:
            continue
        if iou(g.bbox, preds_by_id[pid].bbox) >= iou_threshold:
            corr[g.id] = pid
            used_preds.add(pid)

    rest_gt = [g for g in gt_frame if g.id not in corr]
    rest_pred = [p for p in pred_frame if p.id not in used_preds]
    if rest_gt and rest_pred:
        weights = iou_matrix(box_array([g.bbox for g in rest_gt]), box_array([p.bbox for p in rest_pred]))
        matching = hungarian_max(WeightMatrix(weights), iou_threshold)
        for i, j in matching.pairs:
            corr[rest_gt[i].id] = rest_pred[j].id
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
    prev_map: dict[int, int] = {}
    last_matched: dict[int, int] = {}
    frag_state: dict[int, str] = {}  # "tracked" or "interrupted"

    for frame in frames:
        gts = gt_frames.get(frame, [])
        preds = pred_frames.get(frame, [])
        corr = clear_match(gts, preds, prev_map, iou_threshold)

        fp += sum(1 for p in preds if p.id not in corr.values())
        fn += sum(1 for g in gts if g.id not in corr)

        for g in gts:
            pid = corr.get(g.id)
            if pid is None:
                if frag_state.get(g.id) == "tracked":
                    frag_state[g.id] = "interrupted"
                continue
            if g.id in last_matched and last_matched[g.id] != pid:
                idsw += 1
            last_matched[g.id] = pid
            prev_map[g.id] = pid
            if frag_state.get(g.id) == "interrupted":
                frag += 1
            frag_state[g.id] = "tracked"

        overlap = iou_matrix(box_array([g.bbox for g in gts]), box_array([p.bbox for p in preds]))
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
