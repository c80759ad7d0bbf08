import numpy as np
import pytest

from conftest import count_calls, make_det, make_frame, rows_to_boxes, state_row

from adptrack import base_tracker
from adptrack.base_tracker import (
    TrackerParams,
    TrackerState,
    compute_base_weights,
    eligible_detections,
    fork_at,
    fused_similarity,
    run,
    step,
)
from adptrack.core import FeatureVec, iou
from adptrack.metrics import evaluate
from adptrack.motion import state_to_bbox
from adptrack.synthworld import ScenarioConfig, generate

PARAMS = TrackerParams()


def _single_track_state(left=0.0, top=0.0, feature=(1.0, 0.0)):
    state = TrackerState(PARAMS, frame_cursor=1)
    state.spawn(1, [make_det(1, left, top, feature=feature)])
    return state


def test_fused_similarity_perfect_pair():
    state = _single_track_state()
    det = make_det(2, 0, 0)
    assert fused_similarity(*state_row(state, 0), det) == pytest.approx(1.0)


def test_fused_similarity_disjoint_boxes():
    state = _single_track_state()
    det = make_det(2, 500, 500)  # identical feature, no overlap
    assert fused_similarity(*state_row(state, 0), det) == 0.0


def test_fused_similarity_takes_min_of_terms():
    # iou = 0.6, cos = 0.8, gates pass -> min rule gives the iou
    state = TrackerState(PARAMS, frame_cursor=1)
    state.spawn(1, [make_det(1, 0, 0, width=10, height=10)])
    state.rep[0] = FeatureVec([1.0, 0.0]).values
    d = 10 * 0.4 / 1.6  # horizontal shift giving iou = (10-d)/(10+d) = 0.6
    cos = 0.8
    det = make_det(2, d, 0, feature=(cos, np.sqrt(1 - cos**2)))
    assert fused_similarity(*state_row(state, 0), det) == pytest.approx(0.6, abs=1e-9)


def test_fused_similarity_gates_zero_appearance():
    # cosine below the gate zeroes the appearance term, and the min follows it
    state = _single_track_state(feature=(1.0, 0.0))
    det = make_det(2, 0, 0, feature=(0.1, np.sqrt(1 - 0.01)))
    assert fused_similarity(*state_row(state, 0), det) == 0.0


def test_compute_base_weights_empty_and_single():
    state = TrackerState(PARAMS, frame_cursor=0)
    w = compute_base_weights(state, make_frame(1, [make_det(1, 0, 0), make_det(1, 30, 0)]))
    assert (w.rows, w.cols) == (0, 2)

    state = _single_track_state()
    w = compute_base_weights(state, make_frame(2, [make_det(2, 0, 0)]))
    assert w.array[0, 0] == pytest.approx(1.0)


def test_compute_base_weights_matches_fused_similarity():
    state = TrackerState(PARAMS, frame_cursor=1)
    state.spawn(1, [make_det(1, 0, 0, feature=(1.0, 0.0)), make_det(1, 30, 0, feature=(0.0, 1.0))])
    frame = make_frame(2, [make_det(2, 4, 0, feature=(1.0, 0.0)), make_det(2, 26, 0, feature=(0.0, 1.0))])
    w = compute_base_weights(state, frame)
    for i in range(len(state.tracks)):
        for j, det in enumerate(frame.detections):
            assert w.array[i, j] == fused_similarity(*state_row(state, i), det)


def _crowd_frames():
    sc = generate(ScenarioConfig(seed=9003, frames=30, identities=8, crossings=3, det_noise_px=0.5, feature_noise=0.2, drop_prob_occluded=0.5))
    return list(sc.det_frames)


@pytest.mark.parametrize("open_gates", [False, True], ids=["default", "gates-open"])
def test_compute_base_weights_equals_pairwise_fused_similarity(monkeypatch, open_gates):
    if open_gates:
        monkeypatch.setattr(base_tracker, "_IOU_GATE", 0.0)
        monkeypatch.setattr(base_tracker, "_APPEARANCE_GATE", 0.0)
    frames = _crowd_frames()
    state = TrackerState(PARAMS, frame_cursor=frames[0].index - 1)
    for frame in frames:
        dets = [frame.detections[j] for j in eligible_detections(frame)]
        expected = [[fused_similarity(*state_row(state, i), det) for det in dets] for i in range(len(state.tracks))]
        w = compute_base_weights(state, frame)
        assert np.array_equal(w.array, np.array(expected).reshape(w.rows, w.cols))
        step(state, frame)


def test_compute_base_weights_takes_cosines_inside_iou_gate_only(monkeypatch):
    frames = _crowd_frames()
    state = TrackerState(PARAMS, frame_cursor=frames[0].index - 1)
    dots = count_calls(monkeypatch, base_tracker, "feature_dots")
    pairs = 0
    inside = 0
    for frame in frames:
        dets = [frame.detections[j] for j in eligible_detections(frame)]
        rows = [state_row(state, i) for i in range(len(state.tracks))]
        expected = [
            (rep.values, det.feature.values)
            for forecast, rep in rows
            for det in dets
            if iou(state_to_bbox(forecast), det.bbox) >= base_tracker._IOU_GATE
        ]
        del dots[:]
        compute_base_weights(state, frame)
        # one product over the gated pairs, in row-major order
        got = [pair for reps, feats in dots for pair in zip(reps, feats)]
        assert len(dots) == (1 if expected else 0) and len(got) == len(expected)
        assert all(np.array_equal(g, e) for got_pair, pair in zip(got, expected) for g, e in zip(got_pair, pair))
        pairs += len(rows) * len(dets)
        inside += len(expected)
        step(state, frame)
    assert 0 < inside < pairs / 2


def test_compute_base_weights_rejects_out_of_order():
    state = _single_track_state()
    with pytest.raises(ValueError):
        compute_base_weights(state, make_frame(5, [make_det(5, 0, 0)]))


def test_step_cold_start_spawns():
    state = TrackerState(PARAMS, frame_cursor=0)
    _, matching = step(state, make_frame(1, [make_det(1, 0, 0), make_det(1, 30, 0)]))
    assert matching.pairs == ()
    assert [t.id for t in state.tracks] == [1, 2]
    assert all(t.last_frame == 1 for t in state.tracks)


def test_step_stationary_rematches():
    state = TrackerState(PARAMS, frame_cursor=0)
    step(state, make_frame(1, [make_det(1, 0, 0), make_det(1, 30, 0)]))
    _, matching = step(state, make_frame(2, [make_det(2, 0, 0), make_det(2, 30, 0)]))
    assert matching.pairs == ((0, 0), (1, 1))
    assert len(state.tracks) == 2
    assert all(len(t.history) == 2 for t in state.tracks)


def test_step_low_confidence_detections_ignored():
    state = TrackerState(PARAMS, frame_cursor=0)
    step(state, make_frame(1, [make_det(1, 0, 0, conf=0.05)]))
    assert state.tracks == []


def test_lifecycle_removal_after_max_age():
    params = TrackerParams(max_age=2)
    state = TrackerState(params, frame_cursor=0)
    step(state, make_frame(1, [make_det(1, 0, 0)]))
    track = state.tracks[0]
    for idx in range(2, 4):
        step(state, make_frame(idx, []))
        assert state.tracks == [track]
    step(state, make_frame(4, []))  # last match 3 frames back
    assert state.tracks == []
    assert track.last_frame == 1


def test_lost_track_keeps_predicting_and_reacquires():
    state = TrackerState(PARAMS, frame_cursor=0)
    step(state, make_frame(1, [make_det(1, 0, 0)]))
    step(state, make_frame(2, [make_det(2, 4, 0)]))
    step(state, make_frame(3, []))  # lost for one frame, velocity (4, 0)
    track = state.tracks[0]
    assert state.tracks == [track] and track.last_frame == 2
    _, matching = step(state, make_frame(4, [make_det(4, 12, 0)]))
    assert matching.pairs == ((0, 0),)
    assert state.tracks == [track] and track.last_frame == 4


def test_no_id_reuse():
    params = TrackerParams(max_age=1)
    state = TrackerState(params, frame_cursor=0)
    step(state, make_frame(1, [make_det(1, 0, 0)]))
    step(state, make_frame(2, []))
    step(state, make_frame(3, []))
    assert state.tracks == []
    step(state, make_frame(4, [make_det(4, 0, 0)]))
    assert [t.id for t in state.tracks] == [2]


def test_matching_never_pairs_subthreshold():
    state = TrackerState(PARAMS, frame_cursor=0)
    step(state, make_frame(1, [make_det(1, 0, 0)]))
    _, matching = step(state, make_frame(2, [make_det(2, 9.0, 0, feature=(0.0, 1.0))]))
    # orthogonal feature zeroes the appearance term; fused weight 0 < threshold
    assert matching.pairs == ()
    assert len(state.tracks) == 2


def test_fork_at_binds_detection_order():
    frame = make_frame(7, [make_det(7, x, 0, conf=c) for x, c in ((0, 0.9), (30, 0.05), (60, 0.5))])
    forked = fork_at(frame, PARAMS)
    assert [t.id for t in forked.tracks] == [1, 2, 3]  # every detection, low confidence included
    assert [t.history[0][1].bbox.left for t in forked.tracks] == [0, 30, 60]
    assert forked.frame_cursor == 7

    assert fork_at(make_frame(3, []), PARAMS).tracks == []


def test_fork_then_step_rematches_everything():
    frame = make_frame(7, [make_det(7, 0, 0), make_det(7, 30, 0, feature=(0.0, 1.0))])
    forked = fork_at(frame, PARAMS)
    nxt = make_frame(8, [make_det(8, 0, 0), make_det(8, 30, 0, feature=(0.0, 1.0))])
    _, matching = step(forked, nxt)
    assert matching.pairs == ((0, 0), (1, 1))


def test_run_is_deterministic():
    sc = generate(ScenarioConfig(seed=3, frames=25, identities=4, crossings=1, det_noise_px=0.3, feature_noise=0.1, drop_prob_occluded=0.5))
    frames = list(sc.det_frames)
    rows1 = run(frames, PARAMS)
    rows2 = run(frames, PARAMS)
    assert rows1 == rows2


def test_clean_scenario_zero_id_switches():
    sc = generate(ScenarioConfig(seed=11, frames=30, identities=5, crossings=0))
    report = evaluate(sc.gt, rows_to_boxes(run(list(sc.det_frames), PARAMS)))
    assert report.idsw == 0
    assert report.idf1 == 1.0


def test_step_predicts_each_surviving_track_once(monkeypatch):
    # Lost tracks, removals after max_age and spawns all occur in this scene.
    params = TrackerParams(max_age=2)
    sc = generate(ScenarioConfig(seed=5, frames=30, identities=4, crossings=2, det_noise_px=0.4, feature_noise=0.1, drop_prob_occluded=0.8))
    frames = list(sc.det_frames)
    state = TrackerState(params, frame_cursor=frames[0].index - 1)
    predicts = count_calls(monkeypatch, base_tracker, "kf_predict_batch")
    seen = {}  # every track held so far, by id
    for frame in frames:
        del predicts[:]
        compute_base_weights(state, frame)
        assert predicts == []
        step(state, frame)
        # the surviving rows in one batch, then the spawned ones in another
        assert sum(len(mean) for mean, _ in predicts) == len(state.tracks)
        assert len(state.mean) == len(state.rep) == len(state.tracks)
        # the tracks are exactly those whose last match lies at most max_age frames back
        seen.update((t.id, t) for t in state.tracks)
        assert state.tracks == [t for t in seen.values() if frame.index - t.last_frame <= params.max_age]
    assert len(state.tracks) < len(seen) == state.next_id - 1


def test_run_rejects_empty():
    with pytest.raises(ValueError):
        run([], PARAMS)
