import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adptrack.assignment import WeightMatrix, brute_force_match
from adptrack.core import BoundingBox, iou
from adptrack.metrics import LabeledBox, MetricsReport, clear_match, evaluate


def box(left, top=0.0, size=10.0):
    return BoundingBox(left, top, size, size)


def lb(frame, obj_id, left, top=0.0):
    return LabeledBox(frame=frame, id=obj_id, bbox=box(left, top))


def test_clear_match_identical_boxes():
    gt = [lb(1, 1, 0), lb(1, 2, 100)]
    pred = [lb(1, 11, 0), lb(1, 12, 100)]
    assert clear_match(gt, pred, {}, 0.5) == {1: 11, 2: 12}


def test_clear_match_below_threshold_everywhere():
    gt = [lb(1, 1, 0)]
    pred = [lb(1, 11, 9.0)]  # iou = 1/19 < 0.5
    assert clear_match(gt, pred, {}, 0.5) == {}


def test_clear_match_persistence_beats_better_candidate():
    # previous pair at iou 0.55 is kept although a 0.6 competitor exists
    d_55 = 10 * 0.45 / 1.55
    d_60 = 10 * 0.40 / 1.60
    gt = [lb(1, 1, 0)]
    pred = [lb(1, 11, d_55), lb(1, 12, -d_60)]
    assert clear_match(gt, pred, {1: 11}, 0.5) == {1: 11}
    # without the previous mapping the better overlap wins
    assert clear_match(gt, pred, {}, 0.5) == {1: 12}


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
