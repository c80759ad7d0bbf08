"""CLEAR tracking metrics (MOTA, FP, FN, IDSW, Frag) and IDF1.

Per-frame correspondences follow the CLEAR protocol: an existing gt-to-
prediction pair persists while both members are present and still overlap
enough, and only the remainder is re-matched each frame. Identifier switches
compare against the last prediction id a ground-truth trajectory was ever
matched to; fragmentations count matched-unmatched-matched transitions over
the frames where the trajectory exists. IDF1 comes from one global maximum
matching between gt and prediction identities weighted by the number of
frames in which their boxes are compatible. Both read one IOU matrix per frame,
sliced from two `BoxTable`s of rows sorted by (frame, id), as `motio.read_gt` reads them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .assignment import WeightMatrix, hungarian_max
from .core import BoundingBox, box_array, iou_matrix
from .core import iou  # noqa: F401  (the benchmark's probe wraps metrics.iou by name)

__all__ = ["DEFAULT_IOU_THRESHOLD", "BoxTable", "LabeledBox", "MetricsReport", "clear_match", "evaluate"]

# Overlap a prediction needs to count as a detection of a gt box (the CLEAR convention).
DEFAULT_IOU_THRESHOLD = 0.5


@dataclass(frozen=True)
class LabeledBox:
    """One annotated box: frame, trajectory id, geometry."""

    frame: int
    id: int
    bbox: BoundingBox


@dataclass(frozen=True, eq=False)
class BoxTable:
    """Labeled boxes as read-only rows sorted by (frame, id), ties kept in given order; not validated.

    `frames` and `ids` are (n,) int64, `boxes` (n, 4) float64 of (left, top, width, height)."""

    frames: np.ndarray
    ids: np.ndarray
    boxes: np.ndarray

    def __post_init__(self):
        order = np.lexsort((self.ids, self.frames))
        for name, dtype, row in (("frames", np.int64, ()), ("ids", np.int64, ()), ("boxes", np.float64, (4,))):
            column = np.asarray(getattr(self, name), dtype=dtype).reshape(-1, *row)[order]
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @classmethod
    def from_boxes(cls, boxes) -> BoxTable:
        boxes = list(boxes)
        return cls([b.frame for b in boxes], [b.id for b in boxes], box_array(b.bbox for b in boxes))


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


def evaluate(gt, pred, iou_threshold: float = DEFAULT_IOU_THRESHOLD) -> MetricsReport:
    """Score a prediction set against ground truth, each a `BoxTable` or an iterable of `LabeledBox`."""
    gt, pred = (t if isinstance(t, BoxTable) else BoxTable.from_boxes(t) for t in (gt, pred))
    if not len(gt.frames):
        raise ValueError("ground truth must not be empty")

    # Each frame's rows of either table, as [start, stop) slices of the sorted frames.
    frames = np.union1d(gt.frames, pred.frames)
    cuts = [np.searchsorted(t.frames, frames, side=side).tolist() for t in (gt, pred) for side in ("left", "right")]
    gt_ids, pred_ids = gt.ids.tolist(), pred.ids.tolist()
    # Row -> count-matrix index of its id, ids in sorted order.
    gt_uniq, gt_pos = np.unique(gt.ids, return_inverse=True)
    pred_uniq, pred_pos = np.unique(pred.ids, return_inverse=True)
    counts = np.zeros((len(gt_uniq), len(pred_uniq)))

    fp = fn = idsw = frag = 0
    last_matched: dict[int, int] = {}  # gt id -> pred id of its last match
    interrupted: set[int] = set()  # gt ids unmatched since their last match

    for g0, g1, p0, p1 in zip(*cuts):
        gts, preds = gt_ids[g0:g1], pred_ids[p0:p1]
        overlap = iou_matrix(gt.boxes[g0:g1], pred.boxes[p0:p1])
        corr = clear_match(overlap, gts, preds, last_matched, iou_threshold)

        matched = set(corr.values())
        fp += sum(1 for pid in preds if pid not in matched)
        fn += sum(1 for gid in gts if gid not in corr)

        for gid in gts:
            pid = corr.get(gid)
            if pid is None:
                if gid in last_matched:
                    interrupted.add(gid)
                continue
            if gid in last_matched and last_matched[gid] != pid:
                idsw += 1
            last_matched[gid] = pid
            if gid in interrupted:
                frag += 1
                interrupted.remove(gid)

        i, j = np.nonzero(overlap >= iou_threshold)
        np.add.at(counts, (gt_pos[g0:g1][i], pred_pos[p0:p1][j]), 1.0)

    gt_total = len(gt.frames)
    pred_total = len(pred.frames)

    # Every maximum matching of the integer counts has the same total, so one
    # solve gives IDTP and no tie-break between optimal pairings is needed.
    rows, cols = linear_sum_assignment(counts, maximize=True)
    idtp = counts[rows, cols].sum()
    idf1 = 2.0 * idtp / (gt_total + pred_total)

    mota = 1.0 - (fp + fn + idsw) / gt_total
    return MetricsReport(
        idf1=float(idf1), mota=float(mota), fp=fp, fn=fn, idsw=idsw, frag=frag, gt_total=gt_total
    )
