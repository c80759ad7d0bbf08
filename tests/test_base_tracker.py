from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import count_calls, fused_similarity, last_match, make_det, make_seq, rows_to_boxes, state_row

from adptrack import base_tracker, core, rollout
from adptrack.assignment import Matching, hungarian_max
from adptrack.base_tracker import (
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


def _single_track_state(left=0.0, top=0.0, feature=(1.0, 0.0), later=None):
    """A state at frame 1 holding one track spawned there, over a sequence whose later frames hold `later`."""
    return fork_at(make_seq({1: [make_det(left, top, feature=feature)], **(later or {})}), 1, PARAMS)


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
    state = _single_track_state()
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
    w = compute_base_weights(TrackerState(PARAMS, make_seq({1: [make_det(0, 0), make_det(30, 0)]})), 1)
    assert (w.rows, w.cols) == (0, 2)

    state = _single_track_state(later={2: [make_det(0, 0)]})
    w = compute_base_weights(state, 2)
    assert w.array[0, 0] == pytest.approx(1.0)


def test_compute_base_weights_matches_fused_similarity():
    seq = make_seq({
        1: [make_det(0, 0, feature=(1.0, 0.0)), make_det(30, 0, feature=(0.0, 1.0))],
        2: [make_det(4, 0, feature=(1.0, 0.0)), make_det(26, 0, feature=(0.0, 1.0))],
    })
    state = fork_at(seq, 1, PARAMS)
    w = compute_base_weights(state, 2)
    for i in range(len(state.ids)):
        for j, det in enumerate(seq.detections[seq.rows(2)]):
            assert w.array[i, j] == fused_similarity(*state_row(state, i), det)


def _crowd_seq():
    return generate(ScenarioConfig(seed=9003, frames=30, identities=8, crossings=3, det_noise_px=0.5, feature_noise=0.2, drop_prob_occluded=0.5)).det_frames


@pytest.mark.parametrize("open_gates", [False, True], ids=["default", "gates-open"])
def test_compute_base_weights_equals_pairwise_fused_similarity(monkeypatch, open_gates):
    if open_gates:
        monkeypatch.setattr(base_tracker, "_IOU_GATE", 0.0)
        monkeypatch.setattr(base_tracker, "_APPEARANCE_GATE", 0.0)
    seq = _crowd_seq()
    state = TrackerState(PARAMS, seq)
    for frame in range(1, seq.last + 1):
        dets = [seq.detections[j] for j in seq.confident(frame)[0]]
        expected = [[fused_similarity(*state_row(state, i), det) for det in dets] for i in range(len(state.ids))]
        w = compute_base_weights(state, frame)
        assert np.array_equal(w.array, np.array(expected).reshape(w.rows, w.cols))
        step(state, frame)


def test_compute_base_weights_takes_cosines_inside_iou_gate_only(monkeypatch):
    seq = _crowd_seq()
    state = TrackerState(PARAMS, seq)
    dots = count_calls(monkeypatch, base_tracker, "feature_dots")
    pairs = 0
    inside = 0
    for frame in range(1, seq.last + 1):
        dets = [seq.detections[j] for j in seq.confident(frame)[0]]
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
    state = _single_track_state(later={5: [make_det(0, 0)]})
    with pytest.raises(ValueError):
        compute_base_weights(state, 5)


def test_apply_matching_reads_only_the_fresh_weights_pass_of_its_state_and_frame():
    seq = make_seq({
        1: [make_det(0, 0), make_det(30, 0)],
        2: [make_det(1, 0, feature=(0.8, 0.6)), make_det(30, 0)],
        3: [make_det(1, 0), make_det(60, 0)],
    })
    state = TrackerState(PARAMS, seq)
    step(state, 1)
    unmatched = Matching(pairs=(), total_weight=0.0)
    with pytest.raises(ValueError, match="compute_base_weights"):
        apply_matching(state, 2, unmatched)  # step consumed the last pass
    compute_base_weights(TrackerState(PARAMS, seq, frame_cursor=1), 2)
    with pytest.raises(ValueError, match="compute_base_weights"):
        apply_matching(state, 2, unmatched)  # the pass of another state
    weights = compute_base_weights(state, 2)
    with pytest.raises(ValueError, match="compute_base_weights"):
        apply_matching(state, 3, unmatched)  # the pass of another frame

    # the failed calls left the pass in place; the hook sees its gated cosines as the quality of each match
    matching = hungarian_max(weights, PARAMS.match_threshold)
    assert matching.pairs == ((0, 0), (1, 1))
    seen = []
    state.hook = lambda *args: seen.append(args)
    apply_matching(state, 2, matching)
    (hooked, at, keep, quality), = seen
    assert hooked is state and at == 2 and keep.tolist() == [0, 1] and quality.tolist() == [0.8, 1.0]
    with pytest.raises(ValueError, match="compute_base_weights"):
        apply_matching(state, 2, matching)  # never twice from one pass

    compute_base_weights(state, 3)
    state.spawn(np.arange(5, 6))  # the rows changed after the pass
    with pytest.raises(ValueError, match="compute_base_weights"):
        apply_matching(state, 3, unmatched)


def test_step_cold_start_spawns():
    state = TrackerState(PARAMS, make_seq({1: [make_det(0, 0), make_det(30, 0)]}))
    _, matching = step(state, 1)
    assert matching.pairs == ()
    assert state.ids.tolist() == [1, 2]
    assert last_match(state).tolist() == [1, 1] and state.matched.tolist() == [0, 1]


def test_step_stationary_rematches():
    state = TrackerState(PARAMS, make_seq({f: [make_det(0, 0), make_det(30, 0)] for f in (1, 2)}))
    step(state, 1)
    _, matching = step(state, 2)
    assert matching.pairs == ((0, 0), (1, 1))
    assert state.ids.tolist() == [1, 2]
    assert last_match(state).tolist() == [2, 2] and state.matched.tolist() == [2, 3]  # frame 2's rows


def test_step_low_confidence_detections_ignored():
    state = TrackerState(PARAMS, make_seq({1: [make_det(0, 0, conf=0.05)]}))
    step(state, 1)
    assert len(state.ids) == 0


def test_lifecycle_removal_after_max_age():
    params = TrackerParams(max_age=2)
    state = TrackerState(params, make_seq({1: [make_det(0, 0)], 4: []}))
    step(state, 1)
    for idx in range(2, 4):
        step(state, idx)
        assert state.ids.tolist() == [1] and last_match(state).tolist() == [1]
    step(state, 4)  # last match 3 frames back
    assert len(state.ids) == state.forecast.shape[1] == len(state.rep) == len(state.matched) == 0


def test_lost_track_keeps_predicting_and_reacquires():
    state = TrackerState(PARAMS, make_seq({1: [make_det(0, 0)], 2: [make_det(4, 0)], 4: [make_det(12, 0)]}))
    step(state, 1)
    step(state, 2)
    step(state, 3)  # lost for one frame, velocity (4, 0)
    assert state.ids.tolist() == [1] and last_match(state).tolist() == [2]
    _, matching = step(state, 4)
    assert matching.pairs == ((0, 0),)
    assert state.ids.tolist() == [1] and last_match(state).tolist() == [4]


def test_no_id_reuse():
    params = TrackerParams(max_age=1)
    state = TrackerState(params, make_seq({1: [make_det(0, 0)], 4: [make_det(0, 0)]}))
    for frame in (1, 2, 3):
        step(state, frame)
    assert len(state.ids) == 0
    step(state, 4)
    assert state.ids.tolist() == [2]


def test_matching_never_pairs_subthreshold():
    state = TrackerState(PARAMS, make_seq({1: [make_det(0, 0)], 2: [make_det(9.0, 0, feature=(0.0, 1.0))]}))
    step(state, 1)
    _, matching = step(state, 2)
    # orthogonal feature zeroes the appearance term; fused weight 0 < threshold
    assert matching.pairs == ()
    assert len(state.ids) == 2


def test_fork_at_binds_detection_order():
    seq = make_seq({3: [make_det(0, 0)], 7: [make_det(x, 0, conf=c) for x, c in ((0, 0.9), (30, 0.05), (60, 0.5))]})
    forked = fork_at(seq, 7, PARAMS)
    assert forked.ids.tolist() == [1, 2, 3]  # every detection, low confidence included
    assert forked.matched.tolist() == [1, 2, 3] and last_match(forked).tolist() == [7, 7, 7]  # frame 7's rows
    assert forked.frame_cursor == 7

    assert len(fork_at(seq, 5, PARAMS).ids) == 0


def test_fork_then_step_rematches_everything():
    seq = make_seq({f: [make_det(0, 0), make_det(30, 0, feature=(0.0, 1.0))] for f in (7, 8)})
    _, matching = step(fork_at(seq, 7, PARAMS), 8)
    assert matching.pairs == ((0, 0), (1, 1))


def test_run_is_deterministic():
    sc = generate(ScenarioConfig(seed=3, frames=25, identities=4, crossings=1, det_noise_px=0.3, feature_noise=0.1, drop_prob_occluded=0.5))
    rows1 = run(sc.det_frames, PARAMS)
    rows2 = run(sc.det_frames, PARAMS)
    assert np.array_equal(rows1, rows2)


def test_clean_scenario_zero_id_switches():
    sc = generate(ScenarioConfig(seed=11, frames=30, identities=5, crossings=0))
    report = evaluate(sc.gt, rows_to_boxes(sc.det_frames, run(sc.det_frames, PARAMS)))
    assert report.idsw == 0
    assert report.idf1 == 1.0


def test_step_predicts_each_surviving_track_once(monkeypatch):
    # Lost tracks, removals after max_age and spawns all occur in this scene.
    params = TrackerParams(max_age=2)
    sc = generate(ScenarioConfig(seed=5, frames=30, identities=4, crossings=2, det_noise_px=0.4, feature_noise=0.1, drop_prob_occluded=0.8))
    state = TrackerState(params, sc.det_frames)
    predicts = count_calls(monkeypatch, base_tracker, "kf_predict_batch")
    seen = {}  # the frame of the last match of every track held so far, by id
    for frame in range(1, sc.det_frames.last + 1):
        del predicts[:]
        compute_base_weights(state, frame)
        assert predicts == []
        spawned_from = state.next_id
        step(state, frame)
        # the surviving rows in one batch; the spawned rows take the closed-form prior
        assert [x.shape[1] for x, in predicts] == [np.count_nonzero(state.ids < spawned_from)]
        assert state.forecast.shape[1] == len(state.rep) == len(state.matched) == len(state.ids)
        # the tracks are exactly those whose last match lies at most max_age frames back
        seen.update(zip(state.ids.tolist(), last_match(state).tolist()))
        assert state.ids.tolist() == [i for i, last in seen.items() if frame - last <= params.max_age]
    assert len(state.ids) < len(seen) == state.next_id - 1


def test_forecast_planes_stay_c_contiguous():
    """The forecast is (11, T) component planes in one C-ordered block after every spawn, keep, correction and
    in-place prediction, so that each plane is a contiguous (T,) row."""
    params = TrackerParams(max_age=2)
    sc = generate(ScenarioConfig(seed=5, frames=30, identities=4, crossings=2, det_noise_px=0.4, feature_noise=0.1, drop_prob_occluded=0.8))
    seq = sc.det_frames
    state = TrackerState(params, seq)
    events = Counter()
    for frame in range(1, seq.last + 1):
        held = state.ids
        _, matching = step(state, frame)
        events.update(matched=bool(matching.pairs), removed=not np.isin(held, state.ids).all(), spawned=state.next_id - 1 > held.max(initial=0))
        assert state.forecast.shape == (11, len(state.ids)) and state.forecast.flags.c_contiguous
    assert min(events.values()) > 0 and len(events) == 3
    forked = fork_at(seq, 1, params)
    assert forked.forecast.shape == (11, len(seq.boxes[seq.rows(1)])) and forked.forecast.flags.c_contiguous


def test_frame_table_rows_equal_the_rows_of_any_subset():
    """A sequence takes its rows' centers in one block and its confident rows and their boxes in one table, of which
    each frame's are read-only views; each center of a frame's confident rows, and the prior a spawn takes from it,
    equals, as bytes, that of any subset of those boxes and of the box alone, on whatever kernel runs them."""
    rng = np.random.default_rng(2468)
    scene = generate(occlusion_preset()[0]).det_frames
    # heights and widths below the filter's 1e-3 size floor, and boxes far out, next to the scene's
    dets = [make_det(*rng.uniform(-1e4, 1e4, 2), *rng.choice([1e-5, 5e-4, 2.0, 300.0, 1e6], 2), conf=rng.uniform()) for _ in range(40)]
    for seq in (scene, make_seq({1: dets[:15], 3: dets[15:]})):
        assert seq.centers.tobytes() == batch_centers(seq.boxes).tobytes()
        for frame in range(1, seq.last + 1):
            rows, boxes = seq.confident(frame)
            centers = seq.centers[:, rows]
            start = seq.offsets[frame - 1]
            assert np.array_equal(rows, start + np.flatnonzero(seq.confidences[seq.rows(frame)] >= 0.1))
            assert not (rows.flags.writeable or boxes.flags.writeable or seq.centers.flags.writeable)
            assert boxes.tobytes() == seq.boxes[rows].tobytes()
            assert centers.tobytes() == batch_centers(boxes).tobytes()
            priors = kf_prior_batch(centers)
            for subset in [rng.permutation(len(boxes))[: rng.integers(len(boxes) + 1)], *np.arange(len(boxes))[:, None]]:
                alone = batch_centers(boxes[subset])
                assert centers[:, subset].tobytes() == alone.tobytes()
                assert priors[:, subset].tobytes() == kf_prior_batch(alone).tobytes()


def test_adp_run_builds_each_frame_table_once(monkeypatch):
    """The real step and every simulation that steps a frame share the sequence's one table, whose centers are
    taken once per sequence; a run builds no per-frame object, one real and at most ten simulated passes a frame."""
    seq = generate(occlusion_preset()[1]).det_frames
    centers = count_calls(monkeypatch, core, "batch_centers")  # the sequence's, taken once
    monkeypatch.setattr(core.Sequence, "__iter__", lambda seq: pytest.fail("a run iterates the sequence's frames"))
    reads = {module: Counter() for module in (base_tracker, rollout)}  # weights passes by frame: simulated, real

    def recording(module, weights):
        def recorded(state, frame):
            out = weights(state, frame)
            reads[module][frame] += 1
            return out

        return recorded

    for module in reads:
        monkeypatch.setattr(module, "compute_base_weights", recording(module, module.compute_base_weights))
    run_adp(seq, PARAMS, AdpConfig(horizon=10))

    assert len(centers) == 1
    real, simulated = reads[rollout], reads[base_tracker]
    assert sorted(real) == list(range(2, seq.last + 1)) and set(real.values()) == {1}  # frame 1 is the cold start
    assert max(simulated.values()) == 10


def test_run_rejects_empty():
    with pytest.raises(ValueError):
        run(make_seq({}), PARAMS)
