from dataclasses import replace

import numpy as np
import pytest

from conftest import count_calls, forecast_row, make_det, make_frame, state_row

from adptrack import base_tracker, core, rollout
from adptrack.appearance import cosine_sim, ema_update
from adptrack.assignment import WeightMatrix
from adptrack.base_tracker import Track, TrackerParams, TrackerState, eligible_detections, run as run_base, step
from adptrack.core import FeatureVec, box_array, iou
from adptrack.motion import KalmanState, kf_init, kf_predict, kf_update, state_to_bbox
from adptrack.rollout import (
    AdpConfig,
    TentativeTrack,
    Variant,
    _window_features,
    adp_step,
    candidate_filter,
    combine_costs,
    crowd_check,
    run as run_adp,
    score_f1,
    score_f2,
    score_f3,
    score_frame,
    score_main,
    simulate_tentative,
)
from adptrack.synthworld import ScenarioConfig, generate, occlusion_preset

PARAMS = TrackerParams()
NO_FILTERS = AdpConfig(enable_candidate_filter=False, enable_crowd_heuristic=False)

E1 = (1.0, 0.0)
E2 = (0.0, 1.0)


def _track_with_features(features, qualities=None):
    """Track whose matched history carries the given features, in order."""
    track = Track(1, 1, make_det(1, 0, 0, feature=features[0]))
    for i, feat in enumerate(features[1:], start=2):
        det = make_det(i, 0, 0, feature=feat)
        track.history.append((i, det))
        track.quality.append(0.9)
    if qualities is not None:
        track.quality = list(qualities)
    return track


def _spawn_row(track):
    """The forecast and representative feature a track has right after its spawn."""
    det = track.history[0][1]
    return kf_predict(kf_init(det.bbox)), det.feature


def _tentative(features, start_frame=3, left=0.0):
    entries = tuple(
        (start_frame + i, make_det(start_frame + i, left, 0, feature=f)) for i, f in enumerate(features)
    )
    return TentativeTrack(entries=entries)


def _converged_track(positions, start=1):
    """Forecast and representative feature of a track stepped through the given x positions (constant box size)."""
    forecast, rep = _spawn_row(Track(1, start, make_det(start, positions[0], 0)))
    for i, x in enumerate(positions[1:], start=start + 1):
        forecast = kf_predict(kf_update(forecast, make_det(i, x, 0).bbox))
    return forecast, rep


def test_simulate_tentative_stationary():
    frames = [
        make_frame(5, [make_det(5, 0, 0), make_det(5, 30, 0, feature=E2)]),
        make_frame(6, [make_det(6, 0, 0), make_det(6, 30, 0, feature=E2)]),
    ]
    tents = simulate_tentative(frames, PARAMS)
    assert [t.entries[0] for t in tents] == [(5, det) for det in frames[0].detections]
    assert all(len(t.entries) == 2 for t in tents)
    assert all(t.entries[0][0] == 5 for t in tents)


def test_simulate_tentative_empty_frame():
    assert simulate_tentative([make_frame(5, [])], PARAMS) == []


def test_simulate_tentative_truncates():
    frames = [make_frame(i, [make_det(i, 4.0 * (i - 5), 0)]) for i in range(5, 9)]
    tents = simulate_tentative(frames, PARAMS)
    assert len(tents) == 1
    assert len(tents[0].entries) <= 4
    frames_read = [f for f, _ in tents[0].entries]
    assert min(frames_read) >= 5 and max(frames_read) <= 8


def test_simulate_tentative_rejects_empty_window():
    with pytest.raises(ValueError):
        simulate_tentative([], PARAMS)


def test_score_main_examples():
    cfg = AdpConfig(window=2, enable_candidate_filter=False)

    def score(track, tent):
        forecast, rep = _spawn_row(track)
        return score_main(forecast, tent, rep, _window_features(track, cfg), cfg)

    assert score(_track_with_features([E1, E1]), _tentative([E1, E1])) == pytest.approx(1.0)
    assert score(_track_with_features([E1, E1]), _tentative([E2])) == pytest.approx(0.0)
    assert score(_track_with_features([E1, E2]), _tentative([E1])) == pytest.approx(0.5)


def test_score_main_filter_disabled_equals_all_pairs_mean():
    rng = np.random.default_rng(0)
    cfg = AdpConfig(window=3, enable_candidate_filter=False)
    feats = [tuple(rng.normal(size=4)) for _ in range(3)]
    track = _track_with_features(feats)
    tent_feats = [tuple(rng.normal(size=4)) for _ in range(4)]
    tent = _tentative(tent_feats, start_frame=4)
    forecast, rep = _spawn_row(track)
    got = score_main(forecast, tent, rep, _window_features(track, cfg), cfg)
    wf = [FeatureVec(f).values for f in feats]
    tf = [FeatureVec(f).values for f in tent_feats]
    expected = np.mean([np.dot(a, b) for a in wf for b in tf])
    assert got == pytest.approx(expected, abs=1e-12)


def test_score_f1_follows_converged_extrapolation():
    forecast, _ = _converged_track([0, 4, 8, 12, 16])
    tent = TentativeTrack(
        entries=tuple((6 + i, make_det(6 + i, 20 + 4 * i, 0)) for i in range(4)),
    )
    assert score_f1(forecast, tent) > 0.99


def test_score_f1_disjoint_is_zero():
    forecast, _ = _converged_track([0, 4])
    tent = _tentative([E1, E1], start_frame=3, left=900.0)
    assert score_f1(forecast, tent) == 0.0


def test_score_f1_single_entry_is_one_step_iou():
    forecast, _ = _converged_track([0, 4, 8])
    box = make_det(4, 14, 0)
    tent = TentativeTrack(entries=((4, box),))
    expected = iou(state_to_bbox(forecast), box.bbox)
    assert score_f1(forecast, tent) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_walk_corrects_between_entries_only(monkeypatch, n):
    # n entries: one forecast read per entry, n - 1 corrections (none after the last)
    forecast, rep = _converged_track([0, 4, 8])
    tent = TentativeTrack(entries=tuple((4 + i, make_det(4 + i, 12 + 4 * i, 0)) for i in range(n)))
    updates = count_calls(monkeypatch, rollout, "kf_update")
    predicts = count_calls(monkeypatch, rollout, "kf_predict")
    for walk in (score_f1, lambda f, e: score_f3(f, e, rep), lambda f, e: candidate_filter(f, e, rep, AdpConfig())):
        del updates[:], predicts[:]
        walk(forecast, tent)
        assert [u[1] for u in updates] == [det.bbox for _, det in tent.entries[:-1]]
        assert len(predicts) == n - 1


def test_score_f2_examples():
    cfg = AdpConfig(window=2)
    track = _track_with_features([E1, E1])
    past = _window_features(track, cfg)
    assert score_f2(past, make_det(3, 0, 0, feature=E1)) == pytest.approx(1.0)
    assert score_f2(past, make_det(3, 0, 0, feature=E2)) == pytest.approx(0.0)

    track = _track_with_features([E1, (1.0, 1.0)])
    got = score_f2(_window_features(track, cfg), make_det(3, 0, 0, feature=E1))
    assert got == pytest.approx(0.8535533905932737, abs=1e-6)


def test_score_f3_perfect_and_orthogonal():
    forecast, rep = _converged_track([0, 0, 0])
    tent = _tentative([E1, E1], start_frame=4)
    assert score_f3(forecast, tent, rep) == pytest.approx(1.0, abs=1e-6)
    tent = _tentative([E2, E2], start_frame=4)
    assert score_f3(forecast, tent, rep) == pytest.approx(0.0)


def test_score_f3_matches_scripted_walk():
    # independent recomputation of the min(iou, cos) walk
    forecast, rep = _converged_track([0, 3, 6])
    feats = [(0.7, np.sqrt(1 - 0.49)), (0.9, np.sqrt(1 - 0.81))]
    tent = TentativeTrack(
        entries=tuple((4 + i, make_det(4 + i, 9 + 3 * i + i, 0, feature=f)) for i, f in enumerate(feats)),
    )
    state = forecast
    expected = []
    for _, det in tent.entries:
        overlap = iou(state_to_bbox(state), det.bbox)
        cos = float(np.dot(rep.values, det.feature.values))
        expected.append(min(overlap, max(cos, 0.0)))
        state = kf_predict(kf_update(state, det.bbox))
    assert score_f3(forecast, tent, rep) == pytest.approx(np.mean(expected), abs=1e-12)


def test_score_f3_cosine_caps_score():
    # geometry is perfect, so the constant cosine is the score
    forecast, rep = _converged_track([0, 0, 0])
    cos = 0.7
    tent = _tentative([(cos, np.sqrt(1 - cos**2))] * 2, start_frame=4)
    assert score_f3(forecast, tent, rep) == pytest.approx(cos, abs=1e-6)


def test_candidate_filter_examples():
    cfg = AdpConfig()
    forecast, rep = _converged_track([0, 0, 0])
    tent = _tentative([E1, E1], start_frame=4)
    assert candidate_filter(forecast, tent, rep, cfg) == list(tent.entries)

    impossible = AdpConfig(cand_iou=1.1)
    assert candidate_filter(forecast, tent, rep, impossible) == []
    past = _window_features(_track_with_features([E1, E1, E1]), impossible)
    assert score_main(forecast, tent, rep, past, impossible) == 0.0

    near = make_det(4, 0, 0)
    far = make_det(5, 500, 0)
    tent = TentativeTrack(entries=((4, near), (5, far)))
    kept = candidate_filter(forecast, tent, rep, cfg)
    assert kept == [(4, near)]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["beta", "cand_iou", "cand_app", "crowd_ratio"])
def test_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        AdpConfig(**{field: value})


def test_crowd_check_rules():
    # The tracks spawn at frame 1 and hold matches at frames 1-6; at frame
    # cursor c a track's age is c, its spawn frame counting as 1.
    cfg = AdpConfig(crowd_ratio=0.5, beta=0.15)
    track = _track_with_features([E1] * 6, qualities=[0.9] * 6)
    assert crowd_check(track, 20, cfg) is False

    track = _track_with_features([E1] * 6, qualities=[0.01] * 6)
    assert crowd_check(track, 20, cfg) is True
    assert crowd_check(track, 10, cfg) is True  # at the minimum age
    assert crowd_check(track, 9, cfg) is False
    assert crowd_check(track, 6, cfg) is False  # young, however unreliable

    track = _track_with_features([E1] * 6, qualities=[0.01, 0.01, 0.01, 0.9, 0.9, 0.9])
    assert crowd_check(track, 20, cfg) is True  # 3 of 6 below beta, inclusive boundary


def test_combine_costs_endpoints_and_blend():
    w = WeightMatrix([[0.4, 0.2], [0.1, 0.9]])
    z = np.array([[0.8, 0.6], [0.5, 0.3]])
    assert np.array_equal(combine_costs(w, z, 0.0).array, w.array)
    assert np.array_equal(combine_costs(w, z, 1.0).array, z)
    blended = combine_costs(w, z, 0.25)
    assert blended.array[0, 0] == pytest.approx(0.5)
    crowd = combine_costs(w, z, 0.25, crowd_rows=[1])
    assert np.array_equal(crowd.array[1], w.array[1])
    with pytest.raises(ValueError):
        combine_costs(w, np.array([[1.0]]), 0.5)
    # a non-finite score outside the crowd rows is rejected, at alpha = 0 too
    z[0, 1] = np.nan
    for alpha in (0.0, 0.25):
        with pytest.raises(ValueError, match="finite"):
            combine_costs(w, z, alpha)
        with pytest.raises(ValueError, match="finite"):
            combine_costs(w, z, alpha, crowd_rows=[1])


def _crossing_frames(seed=21, frames=24):
    sc = generate(
        ScenarioConfig(
            seed=seed,
            frames=frames,
            identities=4,
            crossings=1,
            det_noise_px=0.4,
            feature_noise=0.1,
            drop_prob_occluded=0.7,
        )
    )
    return list(sc.det_frames)


def test_adp_step_alpha_zero_matches_base_step():
    frames = _crossing_frames()
    cfg = AdpConfig(alpha=0.0, horizon=4, enable_candidate_filter=False, enable_crowd_heuristic=False)
    state_a = TrackerState(PARAMS, frame_cursor=0)
    state_b = TrackerState(PARAMS, frame_cursor=0)
    step(state_a, frames[0])
    step(state_b, frames[0])
    for i in range(1, len(frames)):
        _, m_base = step(state_a, frames[i])
        _, m_adp = adp_step(state_b, frames[i : i + cfg.horizon + 1], cfg)
        assert m_base == m_adp


def test_adp_step_truncated_window_still_matches():
    frames = _crossing_frames(frames=6)
    state = TrackerState(PARAMS, frame_cursor=0)
    step(state, frames[0])
    cfg = AdpConfig(horizon=15)
    _, matching = adp_step(state, frames[1:], cfg)  # only 5 future frames exist
    assert isinstance(matching.pairs, tuple)
    assert state.frame_cursor == frames[1].index


def test_adp_step_scores_each_eligible_detection_with_its_own_tentative(monkeypatch):
    # The target frame's first detection is below the confidence floor and lies
    # elsewhere with another feature, so the eligible detections are not a
    # prefix of the frame's detections.
    def tracked_state():
        state = TrackerState(PARAMS, frame_cursor=0)
        step(state, make_frame(1, [make_det(1, 0, 0), make_det(1, 40, 0, feature=E2)]))
        return state

    window = [
        make_frame(f, [make_det(f, 100, 50, feature=(0.6, 0.8), conf=0.05), make_det(f, 0, 0), make_det(f, 40, 0, feature=E2)])
        for f in (2, 3, 4)
    ]
    eligible = list(window[0].detections[1:])
    calls = count_calls(monkeypatch, rollout, "score_frame")
    adp_step(tracked_state(), window, AdpConfig())
    (_, tents, _), = calls
    assert [tent.entries[0] for tent in tents] == [(2, det) for det in eligible]
    assert all(len(tent.entries) == 3 for tent in tents)

    # f2 scores each eligible detection alone and never simulates
    def no_simulation(*args):
        raise AssertionError("f2 never simulates")

    monkeypatch.setattr(rollout, "simulate_tentative", no_simulation)
    calls.clear()
    adp_step(tracked_state(), window, AdpConfig(variant=Variant.F2))
    (_, tents, _), = calls
    assert tents == [TentativeTrack(((2, det),)) for det in eligible]


def test_adp_step_rejects_empty_window():
    state = TrackerState(PARAMS, frame_cursor=0)
    with pytest.raises(ValueError):
        adp_step(state, [], AdpConfig())


def test_run_single_frame_spawns_without_matching():
    frames = [make_frame(1, [make_det(1, 0, 0), make_det(1, 40, 0)])]
    rows = run_adp(frames, PARAMS, AdpConfig())
    assert [(f, tid) for f, tid, _ in rows] == [(1, 1), (1, 2)]


def test_run_alpha_zero_equals_base_run():
    frames = _crossing_frames(seed=33, frames=30)
    cfg = AdpConfig(alpha=0.0, horizon=5, enable_candidate_filter=False, enable_crowd_heuristic=False)
    assert run_adp(frames, PARAMS, cfg) == run_base(frames, PARAMS)


def test_run_deterministic():
    frames = _crossing_frames(seed=34, frames=25)
    cfg = AdpConfig(horizon=5)
    assert run_adp(frames, PARAMS, cfg) == run_adp(frames, PARAMS, cfg)


def test_variant_scores_stay_in_range():
    rng = np.random.default_rng(8)
    cfg_main = AdpConfig(enable_candidate_filter=False)
    for _ in range(20):
        feats = [tuple(rng.normal(size=6)) for _ in range(4)]
        track = _track_with_features(feats, qualities=list(rng.uniform(-1, 1, size=4)))
        forecast, rep = _spawn_row(track)
        tent = _tentative([tuple(rng.normal(size=6)) for _ in range(3)], start_frame=6)
        past = _window_features(track, cfg_main)
        assert -1.0 <= score_main(forecast, tent, rep, past, cfg_main) <= 1.0
        assert -1.0 <= score_f2(past, tent.entries[0][1]) <= 1.0
        assert 0.0 <= score_f1(forecast, tent) <= 1.0
        assert 0.0 <= score_f3(forecast, tent, rep) <= 1.0


def test_all_variants_run_end_to_end():
    frames = _crossing_frames(seed=40, frames=18)
    for variant in Variant:
        cfg = AdpConfig(horizon=3, variant=variant)
        rows = run_adp(frames, PARAMS, cfg)
        assert rows, variant


def _per_pair_scores(state, dets, tents, cfg):
    """The frame's rollout scores and crowd rows, one `score_*` call per pair."""
    z = np.zeros((len(state.tracks), len(dets)))
    crowd = []
    for i, track in enumerate(state.tracks):
        if cfg.enable_crowd_heuristic and crowd_check(track, state.frame_cursor, cfg):
            crowd.append(i)
            continue
        forecast, rep = state_row(state, i)
        past = _window_features(track, cfg)
        for jj, det in enumerate(dets):
            if cfg.variant is Variant.MAIN:
                z[i, jj] = score_main(forecast, tents[jj], rep, past, cfg)
            elif cfg.variant is Variant.F1:
                z[i, jj] = score_f1(forecast, tents[jj])
            elif cfg.variant is Variant.F2:
                z[i, jj] = score_f2(past, det)
            else:
                z[i, jj] = score_f3(forecast, tents[jj], rep)
    return z, crowd


def _scored_tentatives(cfg, dets, tents):
    """The tentatives `adp_step` passes to `score_frame`: for f2, each target detection alone."""
    return [TentativeTrack(((det.frame, det),)) for det in dets] if cfg.variant is Variant.F2 else tents


def _crowd_windows(targets=(15, 35, 55), horizon=10):
    """(tracker state, eligible detections, their tentatives) at a few frames of a crowd scene.

    12 identities with 4 crossing pairs fragment into dozens of live tracks,
    with tentatives of several lengths. The tracks come from f2 steps, whose
    blend also matches pairs of zero overlap and low appearance score, so some
    tracks are crowd rows.
    """
    sc_cfg = replace(occlusion_preset()[0], identities=20, crossings=6, seed=9003)
    frames = list(generate(sc_cfg).det_frames)
    out = []
    for t in targets:
        state = TrackerState(PARAMS, frame_cursor=frames[0].index - 1)
        step(state, frames[0])
        for frame in frames[1:t]:
            adp_step(state, [frame], AdpConfig(variant=Variant.F2))
        tents = simulate_tentative(frames[t : t + horizon + 1], PARAMS)
        det_idx = eligible_detections(frames[t])
        out.append((state, [frames[t].detections[j] for j in det_idx], [tents[j] for j in det_idx]))
    return out


# crowd_ratio=0.1 makes a few tracks of each crowd window crowd rows. window=9
# gives trusted windows of 9 features next to shorter ones, so the batched
# terms are padded, and a main or f2 pair averages 9 or more products: past 8
# terms, a numpy sum would no longer add left to right as the scores must.
BATCH_CONFIGS = {
    "main": AdpConfig(window=9, crowd_ratio=0.1),
    "main-nofilter": AdpConfig(window=9, crowd_ratio=0.1, enable_candidate_filter=False),
    "main-defaults": AdpConfig(),
    "f1": AdpConfig(variant=Variant.F1, crowd_ratio=0.1),
    "f2": AdpConfig(window=9, crowd_ratio=0.1, variant=Variant.F2),
    "f3": AdpConfig(variant=Variant.F3, crowd_ratio=0.1),
}


@pytest.fixture(scope="module")
def crowd_windows():
    return _crowd_windows()


def test_crowd_windows_cover_the_batched_cases(crowd_windows):
    cfg = BATCH_CONFIGS["main"]
    for state, _, tents in crowd_windows:
        assert len({len(t.entries) for t in tents}) > 1
        crowded = [crowd_check(t, state.frame_cursor, cfg) for t in state.tracks]
        assert any(crowded) and not all(crowded)
        assert any(len(_window_features(t, cfg)) == 9 for t in state.tracks)


@pytest.mark.parametrize("name", sorted(BATCH_CONFIGS))
def test_score_frame_equals_per_pair_scores(crowd_windows, name):
    cfg = BATCH_CONFIGS[name]
    for state, dets, tents in crowd_windows:
        z, crowd = score_frame(state, _scored_tentatives(cfg, dets, tents), cfg)
        z_ref, crowd_ref = _per_pair_scores(state, dets, tents, cfg)
        assert crowd == crowd_ref
        assert np.array_equal(z, z_ref)
        assert np.count_nonzero(z) > 0


@pytest.mark.parametrize("variant", [Variant.MAIN, Variant.F2])
def test_huge_window_scores_like_the_longest_history(crowd_windows, variant):
    # The batched terms pad to the longest trusted window, not to cfg.window.
    huge = AdpConfig(window=10**9, crowd_ratio=0.1, variant=variant)
    for state, dets, tents in crowd_windows:
        longest = replace(huge, window=max(len(t.history) for t in state.tracks))
        tents = _scored_tentatives(huge, dets, tents)
        z, crowd = score_frame(state, tents, huge)
        z_ref, crowd_ref = score_frame(state, tents, longest)
        assert crowd == crowd_ref
        assert np.array_equal(z, z_ref)
        assert np.count_nonzero(z) > 0


@pytest.mark.parametrize("name", sorted(BATCH_CONFIGS))
def test_score_frame_without_tracks_or_detections(crowd_windows, name):
    cfg = BATCH_CONFIGS[name]
    state, dets, tents = crowd_windows[0]
    empty = TrackerState(PARAMS, frame_cursor=state.frame_cursor)
    z, crowd = score_frame(empty, _scored_tentatives(cfg, dets, tents), cfg)
    assert z.shape == (0, len(dets)) and crowd == []
    z, _ = score_frame(state, [], cfg)
    assert z.shape == (len(state.tracks), 0)


def test_walk_raises_when_the_forecast_overflows():
    # Position and velocity near the float maximum: the first correct-and-predict
    # step of the walk overflows to inf, which no box may hold.
    state = TrackerState(PARAMS, frame_cursor=3)
    state.spawn(make_frame(3, [make_det(3, 8, 0)]), np.arange(1))
    state.forecast[0] = forecast_row(KalmanState([1.7e308, 5.0, 10.0, 10.0, 1.7e308, 0.0, 0.0, 0.0], (1.0, 0.0, 1.0)))
    tent = TentativeTrack(entries=((4, make_det(4, 0, 0)), (5, make_det(5, 4, 0))))
    dets = [tent.entries[0][1]]
    for variant in (Variant.MAIN, Variant.F1, Variant.F3):
        cfg = AdpConfig(variant=variant, enable_crowd_heuristic=False)
        with pytest.raises(ValueError):
            _per_pair_scores(state, dets, [tent], cfg)
        with pytest.raises(ValueError):
            score_frame(state, [tent], cfg)
    # main without the candidate filter never walks
    cfg = AdpConfig(enable_candidate_filter=False, enable_crowd_heuristic=False)
    assert np.array_equal(score_frame(state, [tent], cfg)[0], _per_pair_scores(state, dets, [tent], cfg)[0])


def test_array_state_equals_the_scalar_recursion(monkeypatch):
    """Every row of every tracker state, real and simulated, equals the scalar filter and EMA replayed on its track.

    The replay runs `kf_init`, `kf_predict`, `kf_update` and `ema_update` on
    each track's matched detections; the quality score of each match is
    replayed from `iou` and `cosine_sim` too.
    """
    expected = {}  # track -> (forecast, representative feature) by the scalar recursion
    apply_matching = base_tracker.apply_matching
    calls = []

    def check(state):
        assert len(state.forecast) == len(state.rep) == len(state.tracks)
        for i, track in enumerate(state.tracks):
            if track not in expected:
                det = track.history[0][1]
                expected[track] = (kf_predict(kf_init(det.bbox)), det.feature)
            forecast, rep = expected[track]
            assert np.array_equal(state.forecast[i], forecast_row(forecast))
            assert np.array_equal(state.rep[i], rep.values)

    def replayed(state, frame, matching):
        check(state)
        det_idx = eligible_detections(frame)
        matched = {i: frame.detections[det_idx[jj]] for i, jj in matching.pairs}
        after, quality = {}, {}
        for i, track in enumerate(state.tracks):
            forecast, rep = expected[track]
            if i in matched:
                det = matched[i]
                overlap, cos = iou(state_to_bbox(forecast), det.bbox), cosine_sim(rep, det.feature)
                quality[track] = max(cos, 0.0) if cos >= 0.25 and overlap >= 0.1 else 0.0
                forecast, rep = kf_update(forecast, det.bbox), ema_update(rep, det.feature, 0.9)
            after[track] = (kf_predict(forecast), rep)
        apply_matching(state, frame, matching)
        calls.append(len(matching.pairs))
        assert all(track.quality[-1] == q for track, q in quality.items())
        expected.update(after)
        check(state)

    monkeypatch.setattr(base_tracker, "apply_matching", replayed)
    monkeypatch.setattr(rollout, "apply_matching", replayed)
    frames = list(generate(occlusion_preset()[0]).det_frames)
    run_adp(frames, PARAMS, AdpConfig(horizon=10))
    assert len(calls) > 5 * len(frames)  # the simulated steps are checked too
    assert sum(calls) > 1000


def test_frame_rows_are_built_once_shared_and_never_written(monkeypatch):
    """Every step over a frame, the real one and those of the simulations, reads one read-only copy of its rows."""
    frames = list(generate(occlusion_preset()[0]).det_frames)

    def fresh(frame):
        dets = frame.detections
        return box_array(d.bbox for d in dets), np.stack([d.feature.values for d in dets]), np.array([d.confidence for d in dets])

    before = {frame: fresh(frame) for frame in frames}
    builds = count_calls(monkeypatch, core, "box_array")
    reads = {frame: [] for frame in frames}  # the row arrays each weights pass over the frame read

    def recording(weights):
        def recorded(state, frame):
            out = weights(state, frame)
            reads[frame].append((frame.boxes, frame.features, frame.confidences))
            return out

        return recorded

    for module in (base_tracker, rollout):
        monkeypatch.setattr(module, "compute_base_weights", recording(module.compute_base_weights))
    run_adp(frames, PARAMS, AdpConfig(horizon=10))

    assert len(builds) == len(frames)  # each frame's boxes built once
    assert sum(len(r) > 10 for r in reads.values()) > len(frames) / 2  # the real step and ten simulated ones
    for frame in frames:
        first = reads[frame][0]
        assert all(array is cached for read in reads[frame] for array, cached in zip(read, first))
        for cached, old, new in zip(first, before[frame], fresh(frame)):
            assert not cached.flags.writeable
            assert np.array_equal(cached, old) and np.array_equal(cached, new)
