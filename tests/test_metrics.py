import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adptrack import metrics
from adptrack.assignment import WeightMatrix, brute_force_match, hungarian_max
from adptrack.core import BoundingBox, box_array, iou, iou_matrix
from adptrack.metrics import BoxTable, LabeledBox, MetricsReport, clear_match, evaluate
from adptrack.motio import read_gt, write_gt, write_results

from conftest import count_calls, oracle_read_gt, table_rows


def box(left, top=0.0, size=10.0):
    return BoundingBox(left, top, size, size)


def lb(frame, obj_id, left, top=0.0):
    return LabeledBox(frame=frame, id=obj_id, bbox=box(left, top))


def reference_clear_match(gt_frame, pred_frame, last_matched, iou_threshold):
    """The CLEAR frame correspondence on LabeledBox lists with the scalar `iou`, one pair at a time."""
    preds_by_id = {p.id: p for p in pred_frame}
    corr = {}
    used_preds = set()
    for g in gt_frame:
        pid = last_matched.get(g.id)
        if pid is None or pid in used_preds or pid not in preds_by_id:
            continue
        if iou(g.bbox, preds_by_id[pid].bbox) >= iou_threshold:
            corr[g.id] = pid
            used_preds.add(pid)

    rest_gt = [g for g in gt_frame if g.id not in corr]
    rest_pred = [p for p in pred_frame if p.id not in used_preds]
    if rest_gt and rest_pred:
        weights = [[iou(g.bbox, p.bbox) for p in rest_pred] for g in rest_gt]
        matching = hungarian_max(WeightMatrix(weights), iou_threshold)
        for i, j in matching.pairs:
            corr[rest_gt[i].id] = rest_pred[j].id
    return corr


def match_boxes(gt_frame, pred_frame, last_matched, iou_threshold):
    """`clear_match` on the overlap matrix and ids of two LabeledBox lists."""
    overlap = iou_matrix(box_array([g.bbox for g in gt_frame]), box_array([p.bbox for p in pred_frame]))
    return clear_match(overlap, [g.id for g in gt_frame], [p.id for p in pred_frame], last_matched, iou_threshold)


def test_clear_match_identical_boxes():
    gt = [lb(1, 1, 0), lb(1, 2, 100)]
    pred = [lb(1, 11, 0), lb(1, 12, 100)]
    assert match_boxes(gt, pred, {}, 0.5) == {1: 11, 2: 12}


def test_clear_match_below_threshold_everywhere():
    gt = [lb(1, 1, 0)]
    pred = [lb(1, 11, 9.0)]  # iou = 1/19 < 0.5
    assert match_boxes(gt, pred, {}, 0.5) == {}


def test_clear_match_persistence_beats_better_candidate():
    # previous pair at iou 0.55 is kept although a 0.6 competitor exists
    d_55 = 10 * 0.45 / 1.55
    d_60 = 10 * 0.40 / 1.60
    gt = [lb(1, 1, 0)]
    pred = [lb(1, 11, d_55), lb(1, 12, -d_60)]
    assert match_boxes(gt, pred, {1: 11}, 0.5) == {1: 11}
    # without the previous mapping the better overlap wins
    assert match_boxes(gt, pred, {}, 0.5) == {1: 12}


# Pairwise IoUs of the pool hit the thresholds below exactly: 1/2 and 1/4 (the
# 10x10, 10x20 and 20x20 boxes share a corner) and 1/3. The last box overlaps
# itself by 0.9999999999999991 in box arithmetic, so only the equality
# override gives it IoU 1.
_CLEAR_POOL = [
    BoundingBox(0.0, 0.0, 10.0, 10.0),
    BoundingBox(0.0, 0.0, 10.0, 20.0),
    BoundingBox(0.0, 0.0, 20.0, 20.0),
    BoundingBox(5.0, 0.0, 10.0, 10.0),
    BoundingBox(40.0, 0.0, 10.0, 10.0),
    BoundingBox(0.3, 0.3, 0.6, 0.6),
]
_CLEAR_THRESHOLDS = [0.25, 50.0 / 150.0, 0.5, 1.0]


def _clear_boxes(ids, pool):
    return [LabeledBox(1, obj_id, _CLEAR_POOL[k]) for obj_id, k in zip(ids, pool)]


# (gt ids and pool boxes, pred ids and pool boxes, last matches, threshold, expected map)
_CLEAR_CASES = {
    # both last pairs (IoU 1/2) are kept although the swapped pairs overlap fully
    "kept-from-last-frame": (([1, 2], [0, 1]), ([11, 12], [1, 0]), {1: 11, 2: 12}, 0.5, {1: 11, 2: 12}),
    # the second gt finds its last prediction taken and is re-matched
    "two-gts-one-last-prediction": (([1, 2], [0, 0]), ([11, 12], [0, 0]), {1: 11, 2: 11}, 0.5, {1: 11, 2: 12}),
    # equal boxes reach the threshold 1 through the equality override only
    "identical-boxes": (([1, 2], [5, 4]), ([11, 12], [4, 5]), {}, 1.0, {1: 12, 2: 11}),
    "at-threshold": (([1, 2], [0, 1]), ([11, 12], [1, 2]), {1: 11}, 0.5, {1: 11, 2: 12}),
    "below-threshold": (([1], [0]), ([11], [3]), {}, 0.5, {}),
}


@pytest.mark.parametrize("name", sorted(_CLEAR_CASES))
def test_clear_match_cases(name):
    (gt_ids, gt_pool), (pred_ids, pred_pool), last, threshold, expected = _CLEAR_CASES[name]
    gt, pred = _clear_boxes(gt_ids, gt_pool), _clear_boxes(pred_ids, pred_pool)
    assert reference_clear_match(gt, pred, last, threshold) == expected
    assert match_boxes(gt, pred, last, threshold) == expected


@st.composite
def _clear_frames(draw):
    """One frame of up to 6 gt and 6 predicted boxes from the pool, ids possibly repeated, and last matches."""
    gt_ids = draw(st.lists(st.integers(1, 5), max_size=6))
    pred_ids = draw(st.lists(st.integers(11, 15), max_size=6))
    index = st.integers(0, len(_CLEAR_POOL) - 1)
    gt = _clear_boxes(gt_ids, draw(st.lists(index, min_size=len(gt_ids), max_size=len(gt_ids))))
    pred = _clear_boxes(pred_ids, draw(st.lists(index, min_size=len(pred_ids), max_size=len(pred_ids))))
    # id 16 is never present; several gts may share a last prediction
    last = draw(st.dictionaries(st.integers(1, 5), st.integers(11, 16)))
    return gt, pred, last, draw(st.sampled_from(_CLEAR_THRESHOLDS))


@settings(max_examples=400, deadline=None)
@given(_clear_frames())
def test_clear_match_on_the_overlap_matrix_equals_the_reference(frame):
    gt, pred, last, threshold = frame
    assert match_boxes(gt, pred, last, threshold) == reference_clear_match(gt, pred, last, threshold)


def test_evaluate_builds_one_overlap_matrix_per_frame(monkeypatch):
    # frames 1-3 hold both sides, frame 4 only gt and frame 5 only predictions
    gt, pred = _swap_scenario()
    gt.append(lb(4, 1, 0))
    pred.append(lb(5, 21, 0))
    calls = count_calls(monkeypatch, metrics, "iou_matrix")

    def no_scalar_iou(*args):
        raise AssertionError("evaluate reads every overlap from the frame's matrix")

    monkeypatch.setattr(metrics, "iou", no_scalar_iou)
    report = evaluate(gt, pred, 0.5)
    assert len(calls) == 5
    assert (report.fp, report.fn, report.idsw) == (1, 1, 2)


def _swap_scenario():
    gt, pred = [], []
    for frame in (1, 2, 3):
        gt += [lb(frame, 1, 0), lb(frame, 2, 100)]
    for frame in (1, 2):
        pred += [lb(frame, 21, 0), lb(frame, 22, 100)]
    pred += [lb(3, 22, 0), lb(3, 21, 100)]  # ids exchanged on the last frame
    return gt, pred


def test_hand_swap_scenario():
    gt, pred = _swap_scenario()
    report = evaluate(gt, pred, 0.5)
    assert report.fp == 0
    assert report.fn == 0
    assert report.idsw == 2
    assert report.frag == 0
    assert report.mota == pytest.approx(1 - 2 / 6, abs=1e-6)
    assert report.idf1 == pytest.approx(8 / 12, abs=1e-6)


def test_perfect_prediction():
    gt, _ = _swap_scenario()
    report = evaluate(gt, gt, 0.5)
    assert report.idf1 == 1.0
    assert report.mota == 1.0
    assert (report.fp, report.fn, report.idsw, report.frag) == (0, 0, 0, 0)


def test_empty_prediction():
    gt, _ = _swap_scenario()
    report = evaluate(gt, [], 0.5)
    assert report.fn == report.gt_total == 6
    assert report.fp == 0 and report.idsw == 0
    assert report.mota == pytest.approx(0.0)
    assert report.idf1 == 0.0


def _preset_files(tmp_path, scenario, rows):
    """The gt file of a preset scene and the result file of its base run."""
    gt, res = tmp_path / "gt.txt", tmp_path / "res.txt"
    write_gt(gt, list(scenario.gt))
    write_results(res, scenario.det_frames, rows)
    return gt, res


def test_evaluate_on_tables_equals_evaluate_on_box_lists_on_the_presets(tmp_path, preset_base_runs):
    for scenario, rows in preset_base_runs:
        gt, res = _preset_files(tmp_path, scenario, rows)
        assert evaluate(read_gt(gt), read_gt(res)) == evaluate(oracle_read_gt(gt), oracle_read_gt(res))


def test_row_order_in_the_files_leaves_the_report_unchanged(tmp_path, preset_base_runs):
    gt, res = _preset_files(tmp_path, *preset_base_runs[3])
    expected = evaluate(read_gt(gt), read_gt(res))
    for name, reorder in (("reversed", lambda lines: lines[::-1]), ("shuffled", lambda lines: random.Random(5).sample(lines, len(lines)))):
        paths = []
        for path in (gt, res):
            moved = tmp_path / f"{name}-{path.name}"
            moved.write_text("\n".join(reorder(path.read_text().splitlines())) + "\n")
            assert table_rows(read_gt(moved)) == table_rows(read_gt(path))
            paths.append(moved)
        assert evaluate(*map(read_gt, paths)) == expected


def test_empty_result_file_misses_every_gt_box(tmp_path, preset_base_runs):
    gt, res = _preset_files(tmp_path, *preset_base_runs[0])
    res.write_text("")
    report = evaluate(read_gt(gt), read_gt(res))
    assert report.fn == report.gt_total == len(read_gt(gt).frames) > 0
    assert (report.fp, report.idsw, report.frag, report.idf1, report.mota) == (0, 0, 0, 0.0, 0.0)


def test_frames_held_by_one_side_only():
    # frame 1 holds gt only and frame 3 predictions only; the rows are given out of order
    rows = [(4, 1), (1, 1), (2, 1)], [(3, 9), (4, 9), (2, 9)]
    gt, pred = (BoxTable([f for f, _ in side], [i for _, i in side], [(0.0, 0.0, 10.0, 10.0)] * 3) for side in rows)
    assert gt.frames.tolist() == [1, 2, 4] and pred.frames.tolist() == [2, 3, 4]
    report = evaluate(gt, pred, 0.5)
    assert (report.fp, report.fn, report.idsw, report.frag, report.gt_total) == (1, 1, 0, 0, 3)
    assert report.idf1 == 2.0 * 2 / 6
    assert report == evaluate([LabeledBox(f, i, box(0)) for f, i in rows[0]], [LabeledBox(f, i, box(0)) for f, i in rows[1]])


def test_box_table_is_read_only_and_keeps_the_order_of_equal_keys():
    table = BoxTable.from_boxes([lb(2, 1, 0), lb(1, 1, 5), lb(1, 1, 3)])
    assert table_rows(table) == [(1, 1, 5.0, 0.0, 10.0, 10.0), (1, 1, 3.0, 0.0, 10.0, 10.0), (2, 1, 0.0, 0.0, 10.0, 10.0)]
    for column in (table.frames, table.ids, table.boxes):
        with pytest.raises(ValueError):
            column[0] = 0


def test_empty_gt_rejected():
    with pytest.raises(ValueError):
        evaluate([], [lb(1, 1, 0)], 0.5)


def test_fragmentation_counts_gaps():
    gt = [lb(f, 1, 0) for f in range(1, 6)]
    pred = [lb(1, 9, 0), lb(2, 9, 0), lb(4, 9, 0), lb(5, 9, 0)]  # hole at frame 3
    report = evaluate(gt, pred, 0.5)
    assert report.frag == 1
    assert report.fn == 1
    assert report.idsw == 0


def test_fragmentation_ignores_gt_absence():
    gt = [lb(1, 1, 0), lb(2, 1, 0), lb(5, 1, 0)]  # trajectory absent frames 3-4
    pred = [lb(1, 9, 0), lb(2, 9, 0), lb(5, 9, 0)]
    report = evaluate(gt, pred, 0.5)
    assert report.frag == 0
    assert report.fn == 0


def test_idsw_after_gap_compares_last_match():
    gt = [lb(f, 1, 0) for f in range(1, 5)]
    pred = [lb(1, 9, 0), lb(2, 9, 0), lb(4, 8, 0)]  # different id after a gap
    report = evaluate(gt, pred, 0.5)
    assert report.idsw == 1
    assert report.frag == 1


def test_mota_identity_holds():
    gt, pred = _swap_scenario()
    report = evaluate(gt, pred, 0.5)
    assert report.mota == pytest.approx(1 - (report.fp + report.fn + report.idsw) / report.gt_total, abs=1e-12)
    with pytest.raises(ValueError):
        MetricsReport(idf1=0.5, mota=0.1, fp=0, fn=0, idsw=0, frag=0, gt_total=10)


def test_prediction_id_bijection_invariance():
    gt, pred = _swap_scenario()
    before = evaluate(gt, pred, 0.5)
    renamed = [LabeledBox(frame=p.frame, id=1000 - p.id * 7, bbox=p.bbox) for p in pred]
    after = evaluate(gt, renamed, 0.5)
    assert before == after


def test_idf1_symmetric_for_equal_box_sets():
    gt, pred = _swap_scenario()
    forward = evaluate(gt, pred, 0.5)
    backward = evaluate(pred, gt, 0.5)
    assert forward.idf1 == pytest.approx(backward.idf1, abs=1e-12)


# Boxes 0-2 overlap pairwise with IoU 8/12 and 5/15; the last is disjoint from all.
_IDF1_POOL = [box(0), box(2), box(5), box(40)]


@st.composite
def _tied_sequences(draw):
    """Up to 4 frames of up to 6 gt and 6 predicted ids, boxes from a small pool.

    Few distinct boxes make equal co-occurrence counts (and all-zero rows and
    columns) common, so the count matrix often has several optimal matchings.
    """
    pool = draw(st.lists(st.sampled_from(_IDF1_POOL), min_size=1, max_size=3))
    frames = draw(st.integers(1, 4))

    def labeled(frame, ids):
        return [LabeledBox(frame, i, draw(st.sampled_from(pool))) for i in ids]

    gt, pred = [], []
    for frame in range(1, frames + 1):
        gt += labeled(frame, draw(st.sets(st.integers(1, 6), max_size=6)))
        pred += labeled(frame, draw(st.sets(st.integers(11, 16), max_size=6)))
    if not gt:
        gt = labeled(1, [1])
    return gt, pred


@settings(max_examples=300, deadline=None)
@given(_tied_sequences())
def test_idf1_equals_brute_force_on_tied_counts(seq):
    gt, pred = seq
    gt_ids = sorted({g.id for g in gt})
    pred_ids = sorted({p.id for p in pred})
    counts = np.zeros((len(gt_ids), len(pred_ids)))
    for g in gt:
        for p in pred:
            if g.frame == p.frame and iou(g.bbox, p.bbox) >= 0.5:
                counts[gt_ids.index(g.id), pred_ids.index(p.id)] += 1
    idtp = brute_force_match(WeightMatrix(counts), 1.0).total_weight
    assert evaluate(gt, pred, 0.5).idf1 == 2.0 * idtp / (len(gt) + len(pred))
