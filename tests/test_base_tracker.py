from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import count_calls, fused_similarity, make_det, make_frame, rows_to_boxes, state_row

from adptrack import base_tracker, rollout
from adptrack.assignment import Matching, hungarian_max
from adptrack.base_tracker import (
    FrameTable,
    TrackerParams,
    TrackerState,
    apply_matching,
    compute_base_weights,
    fork_at,
    run,
    step,
)
from adptrack.appearance import ema_update
from adptrack.core import FeatureVec, iou, unit_rows
from adptrack.metrics import evaluate
from adptrack.motion import batch_centers, kf_prior_batch, state_to_bbox
from adptrack.rollout import AdpConfig, run as run_adp
from adptrack.synthworld import ScenarioConfig, generate, occlusion_preset

PARAMS = TrackerParams()


def _single_track_state(left=0.0, top=0.0, feature=(1.0, 0.0)):
    state = TrackerState(PARAMS, frame_cursor=1)
    state.spawn(make_frame(1, [make_det(left, top, feature=feature)]), np.arange(1))
    return state


def test_fused_similarity_perfect_pair():
    state = _single_track_state()
    det = make_det(0, 0)
    assert fused_similarity(*state_row(state, 0), det) == pytest.approx(1.0)


def test_fused_similarity_disjoint_boxes():
    state = _single_track_state()
    det = make_det(500, 500)  # identical feature, no overlap
    assert fused_similarity(*state_row(state, 0), det) == 0.0


def test_fused_similarity_takes_min_of_terms():
    # iou = 0.6, cos = 0.8, gates pass -> min rule gives the iou
    state = TrackerState(PARAMS, frame_cursor=1)
    state.spawn(make_frame(1, [make_det(0, 0, width=10, height=10)]), np.arange(1))
    state.rep[0] = FeatureVec([1.0, 0.0]).values
    d = 10 * 0.4 / 1.6  # horizontal shift giving iou = (10-d)/(10+d) = 0.6
    cos = 0.8
    det = make_det(d, 0, feature=(cos, np.sqrt(1 - cos**2)))
    assert fused_similarity(*state_row(state, 0), det) == pytest.approx(0.6, abs=1e-9)


def test_fused_similarity_gates_zero_appearance():
    # cosine below the gate zeroes the appearance term, and the min follows it
    state = _single_track_state(feature=(1.0, 0.0))
    det = make_det(0, 0, feature=(0.1, np.sqrt(1 - 0.01)))
    assert fused_similarity(*state_row(state, 0), det) == 0.0


@given(st.integers(1, 8), st.integers(2, 24), st.integers(0, 2**32 - 1))
def test_ema_equals_per_row_ema_update_as_bytes(n, d, seed):
    """Two blocks of n unit rows, each normalised from normal values scaled by a power of ten from 1e-5 to 1e150."""
    rng = np.random.default_rng(seed)
    rep, obs = (unit_rows(rng.normal(size=(n, d)) * 10.0 ** rng.choice([-5, -2, 0, 2, 5, 150], size=(n, 1)))[0] for _ in range(2))
    expected = [
        ema_update(r, o, 0.9).values for r, o in zip(FeatureVec.of_unit_rows(rep.copy()), FeatureVec.of_unit_rows(obs.copy()))
    ]
    assert base_tracker._ema(rep, obs).tobytes() == b"".join(row.tobytes() for row in expected)


def test_ema_rejects_a_blend_that_collapses():
    with pytest.raises(ValueError, match="EMA blend collapsed to zero"):
        base_tracker._ema(np.array([[0.6, 0.8], [0.0, 0.0]]), np.array([[0.6, 0.8], [0.0, 0.0]]))


def test_compute_base_weights_empty_and_single():
    state = TrackerState(PARAMS, frame_cursor=0)
    w = compute_base_weights(state, make_frame(1, [make_det(0, 0), make_det(30, 0)]))
    assert (w.rows, w.cols) == (0, 2)

    state = _single_track_state()
    w = compute_base_weights(state, make_frame(2, [make_det(0, 0)]))
    assert w.array[0, 0] == pytest.approx(1.0)


def test_compute_base_weights_matches_fused_similarity():
    state = TrackerState(PARAMS, frame_cursor=1)
    state.spawn(make_frame(1, [make_det(0, 0, feature=(1.0, 0.0)), make_det(30, 0, feature=(0.0, 1.0))]), np.arange(2))
    frame = make_frame(2, [make_det(4, 0, feature=(1.0, 0.0)), make_det(26, 0, feature=(0.0, 1.0))])
    w = compute_base_weights(state, frame)
    for i in range(len(state.ids)):
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
        dets = [frame.detections[j] for j in FrameTable(frame).det_idx]
        expected = [[fused_similarity(*state_row(state, i), det) for det in dets] for i in range(len(state.ids))]
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
        dets = [frame.detections[j] for j in FrameTable(frame).det_idx]
        rows = [state_row(state, i) for i in range(len(state.ids))]
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
        compute_base_weights(state, make_frame(5, [make_det(0, 0)]))


def test_apply_matching_reads_only_the_fresh_weights_pass_of_its_state_and_frame():
    state = TrackerState(PARAMS, frame_cursor=0)
    step(state, make_frame(1, [make_det(0, 0), make_det(30, 0)]))
    frame = make_frame(2, [make_det(1, 0, feature=(0.8, 0.6)), make_det(30, 0)])
    unmatched = Matching(pairs=(), total_weight=0.0)
    with pytest.raises(ValueError, match="compute_base_weights"):
        apply_matching(state, frame, unmatched)  # step consumed the last pass
    compute_base_weights(TrackerState(PARAMS, frame_cursor=1), frame)
    with pytest.raises(ValueError, match="compute_base_weights"):
        apply_matching(state, frame, unmatched)  # the pass of another state
    weights = compute_base_weights(state, frame)
    with pytest.raises(ValueError, match="compute_base_weights"):
        apply_matching(state, make_frame(2, list(frame.detections)), unmatched)  # the pass of another frame

    # the failed calls left the pass in place; the hook sees its gated cosines as the quality of each match
    matching = hungarian_max(weights, PARAMS.match_threshold)
    assert matching.pairs == ((0, 0), (1, 1))
    seen = []
    state.hook = lambda *args: seen.append(args)
    apply_matching(state, frame, matching)
    (hooked, at, keep, quality), = seen
    assert hooked is state and at is frame and keep.tolist() == [0, 1] and quality.tolist() == [0.8, 1.0]
    with pytest.raises(ValueError, match="compute_base_weights"):
        apply_matching(state, frame, matching)  # never twice from one pass

    frame = make_frame(3, [make_det(1, 0)])
    compute_base_weights(state, frame)
    state.spawn(make_frame(3, [make_det(60, 0)]), np.arange(1))  # the rows changed after the pass
    with pytest.raises(ValueError, match="compute_base_weights"):
        apply_matching(state, frame, unmatched)


def test_step_cold_start_spawns():
    state = TrackerState(PARAMS, frame_cursor=0)
    _, matching = step(state, make_frame(1, [make_det(0, 0), make_det(30, 0)]))
    assert matching.pairs == ()
    assert state.ids.tolist() == [1, 2]
    assert state.last.tolist() == [1, 1] and state.matched.tolist() == [0, 1]


def test_step_stationary_rematches():
    state = TrackerState(PARAMS, frame_cursor=0)
    step(state, make_frame(1, [make_det(0, 0), make_det(30, 0)]))
    _, matching = step(state, make_frame(2, [make_det(0, 0), make_det(30, 0)]))
    assert matching.pairs == ((0, 0), (1, 1))
    assert state.ids.tolist() == [1, 2]
    assert state.last.tolist() == [2, 2] and state.matched.tolist() == [0, 1]


def test_step_low_confidence_detections_ignored():
    state = TrackerState(PARAMS, frame_cursor=0)
    step(state, make_frame(1, [make_det(0, 0, conf=0.05)]))
    assert len(state.ids) == 0


def test_lifecycle_removal_after_max_age():
    params = TrackerParams(max_age=2)
    state = TrackerState(params, frame_cursor=0)
    step(state, make_frame(1, [make_det(0, 0)]))
    for idx in range(2, 4):
        step(state, make_frame(idx, []))
        assert state.ids.tolist() == [1] and state.last.tolist() == [1]
    step(state, make_frame(4, []))  # last match 3 frames back
    assert len(state.ids) == state.forecast.shape[1] == len(state.rep) == len(state.last) == len(state.matched) == 0


def test_lost_track_keeps_predicting_and_reacquires():
    state = TrackerState(PARAMS, frame_cursor=0)
    step(state, make_frame(1, [make_det(0, 0)]))
    step(state, make_frame(2, [make_det(4, 0)]))
    step(state, make_frame(3, []))  # lost for one frame, velocity (4, 0)
    assert state.ids.tolist() == [1] and state.last.tolist() == [2]
    _, matching = step(state, make_frame(4, [make_det(12, 0)]))
    assert matching.pairs == ((0, 0),)
    assert state.ids.tolist() == [1] and state.last.tolist() == [4]


def test_no_id_reuse():
    params = TrackerParams(max_age=1)
    state = TrackerState(params, frame_cursor=0)
    step(state, make_frame(1, [make_det(0, 0)]))
    step(state, make_frame(2, []))
    step(state, make_frame(3, []))
    assert len(state.ids) == 0
    step(state, make_frame(4, [make_det(0, 0)]))
    assert state.ids.tolist() == [2]


def test_matching_never_pairs_subthreshold():
    state = TrackerState(PARAMS, frame_cursor=0)
    step(state, make_frame(1, [make_det(0, 0)]))
    _, matching = step(state, make_frame(2, [make_det(9.0, 0, feature=(0.0, 1.0))]))
    # orthogonal feature zeroes the appearance term; fused weight 0 < threshold
    assert matching.pairs == ()
    assert len(state.ids) == 2


def test_fork_at_binds_detection_order():
    frame = make_frame(7, [make_det(x, 0, conf=c) for x, c in ((0, 0.9), (30, 0.05), (60, 0.5))])
    forked = fork_at(frame, PARAMS)
    assert forked.ids.tolist() == [1, 2, 3]  # every detection, low confidence included
    assert forked.matched.tolist() == [0, 1, 2] and forked.last.tolist() == [7, 7, 7]
    assert forked.frame_cursor == 7

    assert len(fork_at(make_frame(3, []), PARAMS).ids) == 0


def test_fork_then_step_rematches_everything():
    frame = make_frame(7, [make_det(0, 0), make_det(30, 0, feature=(0.0, 1.0))])
    forked = fork_at(frame, PARAMS)
    nxt = make_frame(8, [make_det(0, 0), make_det(30, 0, feature=(0.0, 1.0))])
    _, matching = step(forked, nxt)
    assert matching.pairs == ((0, 0), (1, 1))


def test_run_is_deterministic():
    sc = generate(ScenarioConfig(seed=3, frames=25, identities=4, crossings=1, det_noise_px=0.3, feature_noise=0.1, drop_prob_occluded=0.5))
    frames = list(sc.det_frames)
    rows1 = run(frames, PARAMS)
    rows2 = run(frames, PARAMS)
    assert np.array_equal(rows1, rows2)


def test_clean_scenario_zero_id_switches():
    sc = generate(ScenarioConfig(seed=11, frames=30, identities=5, crossings=0))
    report = evaluate(sc.gt, rows_to_boxes(sc.det_frames, run(list(sc.det_frames), PARAMS)))
    assert report.idsw == 0
    assert report.idf1 == 1.0


def test_step_predicts_each_surviving_track_once(monkeypatch):
    # Lost tracks, removals after max_age and spawns all occur in this scene.
    params = TrackerParams(max_age=2)
    sc = generate(ScenarioConfig(seed=5, frames=30, identities=4, crossings=2, det_noise_px=0.4, feature_noise=0.1, drop_prob_occluded=0.8))
    frames = list(sc.det_frames)
    state = TrackerState(params, frame_cursor=frames[0].index - 1)
    predicts = count_calls(monkeypatch, base_tracker, "kf_predict_batch")
    seen = {}  # the frame of the last match of every track held so far, by id
    for frame in frames:
        del predicts[:]
        compute_base_weights(state, frame)
        assert predicts == []
        spawned_from = state.next_id
        step(state, frame)
        # the surviving rows in one batch; the spawned rows take the closed-form prior
        assert [x.shape[1] for x, in predicts] == [np.count_nonzero(state.ids < spawned_from)]
        assert state.forecast.shape[1] == len(state.rep) == len(state.last) == len(state.matched) == len(state.ids)
        # the tracks are exactly those whose last match lies at most max_age frames back
        seen.update(zip(state.ids.tolist(), state.last.tolist()))
        assert state.ids.tolist() == [i for i, last in seen.items() if frame.index - last <= params.max_age]
    assert len(state.ids) < len(seen) == state.next_id - 1


def test_forecast_planes_stay_c_contiguous():
    """The forecast is (11, T) component planes in one C-ordered block after every spawn, keep, correction and
    in-place prediction, so that each plane is a contiguous (T,) row."""
    params = TrackerParams(max_age=2)
    sc = generate(ScenarioConfig(seed=5, frames=30, identities=4, crossings=2, det_noise_px=0.4, feature_noise=0.1, drop_prob_occluded=0.8))
    frames = list(sc.det_frames)
    state = TrackerState(params, frame_cursor=frames[0].index - 1)
    events = Counter()
    for frame in frames:
        held = state.ids
        _, matching = step(state, frame)
        events.update(matched=bool(matching.pairs), removed=not np.isin(held, state.ids).all(), spawned=state.next_id - 1 > held.max(initial=0))
        assert state.forecast.shape == (11, len(state.ids)) and state.forecast.flags.c_contiguous
    assert min(events.values()) > 0 and len(events) == 3
    forked = base_tracker.fork_at(frames[0], params)
    assert forked.forecast.shape == (11, len(frames[0].boxes)) and forked.forecast.flags.c_contiguous


def test_frame_table_rows_equal_the_rows_of_any_subset():
    """A frame's table takes its confident detections' centers in one block; each center, and the prior a spawn
    takes from it, equals, as bytes, that of any subset of those boxes and of the box alone, on whatever kernel
    runs them."""
    rng = np.random.default_rng(2468)
    frames = list(generate(occlusion_preset()[0]).det_frames)
    # heights and widths below the filter's 1e-3 size floor, and boxes far out, next to the scene's
    dets = [make_det(*rng.uniform(-1e4, 1e4, 2), *rng.choice([1e-5, 5e-4, 2.0, 300.0, 1e6], 2), conf=rng.uniform()) for _ in range(40)]
    for frame in frames + [make_frame(1, dets)]:
        table = FrameTable(frame)
        assert np.array_equal(table.det_idx, np.flatnonzero(frame.confidences >= 0.1))
        assert table.boxes.tobytes() == frame.boxes[table.det_idx].tobytes()
        assert table.centers.tobytes() == batch_centers(table.boxes).tobytes()
        priors = kf_prior_batch(table.centers)
        for subset in [rng.permutation(len(table.boxes))[: rng.integers(len(table.boxes) + 1)], *np.arange(len(table.boxes))[:, None]]:
            centers = batch_centers(table.boxes[subset])
            assert table.centers[:, subset].tobytes() == centers.tobytes()
            assert priors[:, subset].tobytes() == kf_prior_batch(centers).tobytes()


def test_adp_run_builds_each_frame_table_once(monkeypatch):
    """The real step and every simulation that steps a frame share its one table, which lives until the real step."""
    frames = list(generate(occlusion_preset()[1]).det_frames)
    built = count_calls(monkeypatch, base_tracker, "FrameTable")
    weighed = count_calls(monkeypatch, base_tracker, "compute_base_weights")  # the simulated steps'
    alive, adp_step = [], rollout.adp_step

    def step_with_tables(state, window, cfg):
        alive.append((window[0].index, sorted(state.tables)))
        return adp_step(state, window, cfg)

    monkeypatch.setattr(rollout, "adp_step", step_with_tables)
    run_adp(frames, PARAMS, AdpConfig(horizon=10))
    assert [frame.index for frame, in built] == [frame.index for frame in frames]
    assert Counter(frame.index for _, frame in weighed).most_common(1)[0][1] == 10
    assert all(set(tables) <= set(range(g, g + 10)) for g, tables in alive)


def test_run_rejects_empty():
    with pytest.raises(ValueError):
        run([], PARAMS)
