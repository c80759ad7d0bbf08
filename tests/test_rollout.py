from collections import Counter
from copy import copy
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import count_calls, forecast_row, frame_of, last_match, make_det, make_seq, state_row

from adptrack import base_tracker, core, rollout
from adptrack.appearance import cosine_sim, ema_update, select_quality_window
from adptrack.assignment import WeightMatrix
from adptrack.base_tracker import TrackerParams, TrackerState, run as run_base, step
from adptrack.core import BoundingBox, FeatureVec, box_array, iou
from adptrack.motion import KalmanState, batch_centers, kf_init, kf_predict, kf_prior_batch, kf_update, state_to_bbox
from adptrack.rollout import (
    AdpConfig,
    TentativeTrack,
    TrustedRecord,
    Variant,
    _walk,
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
# Thresholds at which the candidate filter keeps every entry and the crowd fallback takes no row.
NO_FILTERS = AdpConfig(cand_iou=0.0, cand_app=-1.0, crowd_ratio=2.0)

E1 = (1.0, 0.0)
E2 = (0.0, 1.0)


def _track_with_features(features, qualities=None):
    """(matched detections, quality record) of a track whose matches carry the given features, in order."""
    dets = [make_det(0, 0, feature=feat) for feat in features]
    return dets, ([1.0] + [0.9] * (len(dets) - 1) if qualities is None else list(qualities))


def _window_features(dets, quality, cfg):
    """A track's trusted past: the features of its detections at its quality-window positions, as a (k, d) array."""
    return np.stack([dets[pos - 1].feature.values for pos in select_quality_window(quality, cfg.beta, cfg.window)])


def _spawn_row(det):
    """The forecast and representative feature a track has right after it spawns from a detection."""
    return kf_predict(kf_init(det.bbox)), det.feature


def _tentative(features, start_frame=3, left=0.0):
    entries = tuple(
        (start_frame + i, make_det(left, 0, feature=f)) for i, f in enumerate(features)
    )
    return TentativeTrack(entries=entries)


def _tentative_tracks(seq, tents):
    """Tentatives as rows of `seq` turned into the `TentativeTrack`s the per-pair scores read."""
    return [TentativeTrack(tuple((int(frame_of(seq, j)), seq.detections[j]) for j in tent[tent >= 0].tolist())) for tent in tents]


class _Logged(TrustedRecord):
    """A record that also logs the rows it follows, so that records of other keys and the scalar oracles can replay them."""

    __slots__ = ("calls",)

    def __init__(self, window, beta):
        super().__init__(window, beta)
        self.calls = []

    def __call__(self, state, frame, keep, quality):
        rows = SimpleNamespace(ids=state.ids.copy(), matched=state.matched.copy(), seq=state.seq)
        self.calls.append((rows, frame, keep, quality))
        super().__call__(state, frame, keep, quality)


def _keyed(state, cfg):
    """A copy of a state tracked under a `_Logged` record, whose record is one for cfg's window and beta."""
    view = copy(state)
    view.hook = _Logged(cfg.window, cfg.beta)
    for call in state.hook.calls:
        view.hook(*call)
    return view


def _histories(state):
    """Each track's matched (frame, detection) entries and quality record, by id, replayed from its `_Logged` record."""
    history, quality = {}, {}
    for rows, frame, keep, q in state.hook.calls:
        q = np.concatenate([q, np.ones(len(rows.ids) - len(keep))])  # a spawn is a perfect first match
        for tid, j, value in zip(rows.ids.tolist(), rows.matched.tolist(), q.tolist()):
            if value == value:
                history.setdefault(tid, []).append((frame, rows.seq.detections[j]))
                quality.setdefault(tid, []).append(value)
    return history, quality


def _converged_track(positions, start=1):
    """Forecast and representative feature of a track stepped through the given x positions (constant box size)."""
    forecast, rep = _spawn_row(make_det(positions[0], 0))
    for x in positions[1:]:
        forecast = kf_predict(kf_update(forecast, make_det(x, 0).bbox))
    return forecast, rep


def test_simulate_tentative_stationary():
    seq = make_seq({f: [make_det(0, 0), make_det(30, 0, feature=E2)] for f in (5, 6)})
    tents = simulate_tentative(seq, range(5, 7), PARAMS)
    assert tents.tolist() == [[0, 2], [1, 3]]  # the rows of frames 5 and 6


def test_simulate_tentative_empty_frame():
    assert simulate_tentative(make_seq({5: []}), range(5, 6), PARAMS).shape == (0, 0)


def test_simulate_tentative_truncates():
    seq = make_seq({i: [make_det(4.0 * (i - 5), 0)] for i in range(5, 10)})
    tents = simulate_tentative(seq, range(5, 9), PARAMS)
    assert len(tents) == 1
    entries = frame_of(seq, tents[0][tents[0] >= 0])
    assert len(entries) <= 4
    assert entries.min() >= 5 and entries.max() <= 8


def test_simulate_tentative_rejects_empty_window():
    with pytest.raises(ValueError):
        simulate_tentative(make_seq({5: []}), range(5, 5), PARAMS)


def test_score_main_examples():
    cfg = replace(NO_FILTERS, window=2)

    def score(track, tent):
        forecast, rep = _spawn_row(track[0][0])
        return score_main(forecast, tent, rep, _window_features(*track, cfg), cfg)

    assert score(_track_with_features([E1, E1]), _tentative([E1, E1])) == pytest.approx(1.0)
    assert score(_track_with_features([E1, E1]), _tentative([E2])) == pytest.approx(0.0)
    assert score(_track_with_features([E1, E2]), _tentative([E1])) == pytest.approx(0.5)


def test_score_main_filter_disabled_equals_all_pairs_mean():
    rng = np.random.default_rng(0)
    cfg = replace(NO_FILTERS, window=3)
    feats = [tuple(rng.normal(size=4)) for _ in range(3)]
    track = _track_with_features(feats)
    tent_feats = [tuple(rng.normal(size=4)) for _ in range(4)]
    tent = _tentative(tent_feats, start_frame=4)
    forecast, rep = _spawn_row(track[0][0])
    got = score_main(forecast, tent, rep, _window_features(*track, cfg), cfg)
    wf = [FeatureVec(f).values for f in feats]
    tf = [FeatureVec(f).values for f in tent_feats]
    expected = np.mean([np.dot(a, b) for a in wf for b in tf])
    assert got == pytest.approx(expected, abs=1e-12)


def test_score_f1_follows_converged_extrapolation():
    forecast, _ = _converged_track([0, 4, 8, 12, 16])
    tent = TentativeTrack(
        entries=tuple((6 + i, make_det(20 + 4 * i, 0)) for i in range(4)),
    )
    assert score_f1(forecast, tent) > 0.99


def test_score_f1_disjoint_is_zero():
    forecast, _ = _converged_track([0, 4])
    tent = _tentative([E1, E1], start_frame=3, left=900.0)
    assert score_f1(forecast, tent) == 0.0


def test_score_f1_single_entry_is_one_step_iou():
    forecast, _ = _converged_track([0, 4, 8])
    box = make_det(14, 0)
    tent = TentativeTrack(entries=((4, box),))
    expected = iou(state_to_bbox(forecast), box.bbox)
    assert score_f1(forecast, tent) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_walk_corrects_between_entries_only(monkeypatch, n):
    # n entries: one forecast read per entry, n - 1 corrections (none after the last)
    forecast, rep = _converged_track([0, 4, 8])
    tent = TentativeTrack(entries=tuple((4 + i, make_det(12 + 4 * i, 0)) for i in range(n)))
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
    past = _window_features(*track, cfg)
    assert score_f2(past, make_det(0, 0, feature=E1)) == pytest.approx(1.0)
    assert score_f2(past, make_det(0, 0, feature=E2)) == pytest.approx(0.0)

    track = _track_with_features([E1, (1.0, 1.0)])
    got = score_f2(_window_features(*track, cfg), make_det(0, 0, feature=E1))
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
        entries=tuple((4 + i, make_det(9 + 3 * i + i, 0, feature=f)) for i, f in enumerate(feats)),
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
    past = _window_features(*_track_with_features([E1, E1, E1]), impossible)
    assert score_main(forecast, tent, rep, past, impossible) == 0.0

    near = make_det(0, 0)
    far = make_det(500, 0)
    tent = TentativeTrack(entries=((4, near), (5, far)))
    kept = candidate_filter(forecast, tent, rep, cfg)
    assert kept == [(4, near)]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["beta", "cand_iou", "cand_app", "crowd_ratio"])
def test_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        AdpConfig(**{field: value})


def test_crowd_check_rules():
    # The tracks spawn at frame 1 and hold six qualities; at frame cursor c a
    # track's age is c, its spawn frame counting as 1.
    cfg = AdpConfig(crowd_ratio=0.5, beta=0.15)
    assert crowd_check([0.9] * 6, 1, 20, cfg) is False

    unreliable = [0.01] * 6
    assert crowd_check(unreliable, 1, 20, cfg) is True
    assert crowd_check(unreliable, 1, 10, cfg) is True  # at the minimum age
    assert crowd_check(unreliable, 1, 9, cfg) is False
    assert crowd_check(unreliable, 1, 6, cfg) is False  # young, however unreliable

    assert crowd_check([0.01, 0.01, 0.01, 0.9, 0.9, 0.9], 1, 20, cfg) is True  # 3 of 6 below beta, inclusive boundary


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


def _crossing_seq(seed=21, frames=24):
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
    return sc.det_frames


def test_adp_step_alpha_zero_matches_base_step():
    seq = _crossing_seq()
    cfg = replace(NO_FILTERS, alpha=0.0, horizon=4)
    state_a = TrackerState(PARAMS, seq)
    state_b = TrackerState(PARAMS, seq)
    state_b.hook = TrustedRecord(cfg.window, cfg.beta)
    step(state_a, 1)
    step(state_b, 1)
    for f in range(2, seq.last + 1):
        _, m_base = step(state_a, f)
        _, m_adp = adp_step(state_b, range(f, min(f + cfg.horizon, seq.last) + 1), cfg)
        assert m_base == m_adp


def test_adp_step_truncated_window_still_matches():
    seq = _crossing_seq(frames=6)
    state = TrackerState(PARAMS, seq)
    cfg = AdpConfig(horizon=15)
    state.hook = TrustedRecord(cfg.window, cfg.beta)
    step(state, 1)
    _, matching = adp_step(state, range(2, 7), cfg)  # only 5 future frames exist
    assert isinstance(matching.pairs, tuple)
    assert state.frame_cursor == 2


def test_adp_step_scores_each_eligible_detection_with_its_own_tentative(monkeypatch):
    # The target frame's first detection is below the confidence floor and lies
    # elsewhere with another feature, so the eligible detections are not a
    # prefix of the frame's detections.
    seq = make_seq({
        1: [make_det(0, 0), make_det(40, 0, feature=E2)],
        **{f: [make_det(100, 50, feature=(0.6, 0.8), conf=0.05), make_det(0, 0), make_det(40, 0, feature=E2)] for f in (2, 3, 4)},
    })

    def tracked_state():
        state = TrackerState(PARAMS, seq)
        state.hook = TrustedRecord(AdpConfig().window, AdpConfig().beta)
        step(state, 1)
        return state

    calls = count_calls(monkeypatch, rollout, "score_frame")
    adp_step(tracked_state(), range(2, 5), AdpConfig())
    (_, tents, _), = calls
    assert tents.tolist() == [[3, 6, 9], [4, 7, 10]]  # detections 1 and 2 of frames 2, 3 and 4

    # f2 scores each eligible detection alone and never simulates
    def no_simulation(*args):
        raise AssertionError("f2 never simulates")

    monkeypatch.setattr(rollout, "simulate_tentative", no_simulation)
    calls.clear()
    adp_step(tracked_state(), range(2, 5), AdpConfig(variant=Variant.F2))
    (_, tents, _), = calls
    assert tents.tolist() == [[3], [4]]


def test_adp_step_rejects_empty_window():
    state = TrackerState(PARAMS, make_seq({1: []}))
    with pytest.raises(ValueError):
        adp_step(state, range(1, 1), AdpConfig())


def test_run_single_frame_spawns_without_matching():
    rows = run_adp(make_seq({1: [make_det(0, 0), make_det(40, 0)]}), PARAMS, AdpConfig())
    assert [(f, tid) for f, tid, _ in rows] == [(1, 1), (1, 2)]


def test_run_alpha_zero_equals_base_run():
    seq = _crossing_seq(seed=33, frames=30)
    cfg = replace(NO_FILTERS, alpha=0.0, horizon=5)
    assert np.array_equal(run_adp(seq, PARAMS, cfg), run_base(seq, PARAMS))


def test_run_deterministic():
    seq = _crossing_seq(seed=34, frames=25)
    cfg = AdpConfig(horizon=5)
    assert np.array_equal(run_adp(seq, PARAMS, cfg), run_adp(seq, PARAMS, cfg))


def test_variant_scores_stay_in_range():
    rng = np.random.default_rng(8)
    cfg_main = NO_FILTERS
    for _ in range(20):
        feats = [tuple(rng.normal(size=6)) for _ in range(4)]
        track = _track_with_features(feats, qualities=list(rng.uniform(-1, 1, size=4)))
        forecast, rep = _spawn_row(track[0][0])
        tent = _tentative([tuple(rng.normal(size=6)) for _ in range(3)], start_frame=6)
        past = _window_features(*track, cfg_main)
        assert -1.0 <= score_main(forecast, tent, rep, past, cfg_main) <= 1.0
        assert -1.0 <= score_f2(past, tent.entries[0][1]) <= 1.0
        assert 0.0 <= score_f1(forecast, tent) <= 1.0
        assert 0.0 <= score_f3(forecast, tent, rep) <= 1.0


def test_all_variants_run_end_to_end():
    seq = _crossing_seq(seed=40, frames=18)
    for variant in Variant:
        cfg = AdpConfig(horizon=3, variant=variant)
        rows = run_adp(seq, PARAMS, cfg)
        assert len(rows), variant


def _per_pair_scores(state, dets, tents, cfg):
    """The frame's rollout scores and crowd rows, one `score_*` call per pair, from the tracks' replayed histories."""
    history, quality = _histories(state)
    z = np.zeros((len(state.ids), len(dets)))
    crowd = []
    for i, tid in enumerate(state.ids.tolist()):
        if crowd_check(quality[tid], history[tid][0][0], state.frame_cursor, cfg):
            crowd.append(i)
            continue
        forecast, rep = state_row(state, i)
        past = _window_features([det for _, det in history[tid]], quality[tid], cfg)
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


def _scored(cfg, tents):
    """The tentatives `adp_step` passes to `score_frame`: for f2, each target detection alone."""
    return tents[:, :1] if cfg.variant is Variant.F2 else tents


def _crowd_windows(targets=(15, 35, 55), horizon=10):
    """A few frames of a crowd scene, each with its tracker state, eligible detections and their tentatives.

    12 identities with 4 crossing pairs fragment into dozens of live tracks,
    with tentatives of several lengths. The tracks come from f2 steps, whose
    blend also matches pairs of zero overlap and low appearance score, so some
    tracks are crowd rows. Each state's `_Logged` record lets `_keyed` give it
    a record of any window and beta.
    """
    seq = generate(replace(occlusion_preset()[0], identities=20, crossings=6, seed=9003)).det_frames
    f2 = AdpConfig(variant=Variant.F2)
    out = []
    for t in targets:
        state = TrackerState(PARAMS, seq)
        state.hook = _Logged(f2.window, f2.beta)
        step(state, 1)
        for frame in range(2, t + 1):
            adp_step(state, range(frame, frame + 1), f2)
        rows = seq.confident(t + 1)[0]
        tents = simulate_tentative(seq, range(t + 1, t + horizon + 2), PARAMS)[rows - seq.offsets[t]]
        dets = [seq.detections[j] for j in rows]
        out.append(SimpleNamespace(state=state, dets=dets, tents=tents, tracks=_tentative_tracks(seq, tents)))
    return out


# crowd_ratio=0.1 makes a few tracks of each crowd window crowd rows. At cand_iou=0 main filters by the cosine
# alone and walks no clone; with cand_app=-1 it keeps every entry and takes the dense product. window=9
# gives trusted windows of 9 features next to shorter ones, so the batched
# terms are padded, and a main or f2 pair averages 9 or more products: past 8
# terms, a numpy sum would no longer add left to right as the scores must.
BATCH_CONFIGS = {
    "main": AdpConfig(window=9, crowd_ratio=0.1),
    "main-iou0": AdpConfig(window=9, crowd_ratio=0.1, cand_iou=0.0),
    "main-nofilter": AdpConfig(window=9, crowd_ratio=0.1, cand_iou=0.0, cand_app=-1.0),
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
    for case in crowd_windows:
        assert len({len(t.entries) for t in case.tracks}) > 1
        history, quality = _histories(case.state)
        live = case.state.ids.tolist()
        crowded = [crowd_check(quality[i], history[i][0][0], case.state.frame_cursor, cfg) for i in live]
        assert any(crowded) and not all(crowded)
        assert any(len(_window_features([det for _, det in history[i]], quality[i], cfg)) == 9 for i in live)


@pytest.mark.parametrize("name", sorted(BATCH_CONFIGS))
def test_score_frame_equals_per_pair_scores(crowd_windows, name):
    cfg = BATCH_CONFIGS[name]
    for case in crowd_windows:
        state = _keyed(case.state, cfg)
        z, crowd = score_frame(state, _scored(cfg, case.tents), cfg)
        z_ref, crowd_ref = _per_pair_scores(state, case.dets, case.tracks, cfg)
        assert crowd.tolist() == crowd_ref
        assert np.array_equal(z, z_ref)
        assert np.count_nonzero(z) > 0


@pytest.mark.parametrize("variant", [Variant.MAIN, Variant.F2])
def test_huge_window_scores_like_the_longest_history(crowd_windows, variant):
    # The record holds, and the batched terms pad to, the longest record, not cfg.window.
    huge = AdpConfig(window=10**9, crowd_ratio=0.1, variant=variant)
    for case in crowd_windows:
        history, _ = _histories(case.state)
        longest = replace(huge, window=max(map(len, history.values())))
        state = _keyed(case.state, huge)
        assert state.hook.slots.shape == (len(state.ids), 2, longest.window)
        z, crowd = score_frame(state, _scored(huge, case.tents), huge)
        z_ref, crowd_ref = score_frame(_keyed(case.state, longest), _scored(huge, case.tents), longest)
        assert np.array_equal(crowd, crowd_ref)
        assert np.array_equal(z, z_ref)
        assert np.count_nonzero(z) > 0


def test_score_frame_needs_the_record_of_its_window_and_beta(crowd_windows):
    case = crowd_windows[0]
    cfg = AdpConfig(window=9)
    state = _keyed(case.state, cfg)
    score_frame(state, case.tents, cfg)
    for other in (AdpConfig(), AdpConfig(window=9, beta=0.2)):
        with pytest.raises(ValueError, match="TrustedRecord"):
            score_frame(state, case.tents, other)
    state.hook = TrustedRecord(cfg.window, cfg.beta)  # set after the rows spawned: it follows none of them
    with pytest.raises(ValueError, match="TrustedRecord"):
        score_frame(state, case.tents, cfg)
    state.hook = None
    with pytest.raises(ValueError, match="TrustedRecord"):
        score_frame(state, case.tents, cfg)


@pytest.mark.parametrize("name", sorted(BATCH_CONFIGS))
def test_score_frame_without_tracks_or_detections(crowd_windows, name):
    cfg = BATCH_CONFIGS[name]
    case = crowd_windows[0]
    empty = TrackerState(PARAMS, case.state.seq, frame_cursor=case.state.frame_cursor)
    empty.hook = TrustedRecord(cfg.window, cfg.beta)
    z, crowd = score_frame(empty, _scored(cfg, case.tents), cfg)
    assert z.shape == (0, len(case.dets)) and crowd.size == 0
    state = _keyed(case.state, cfg)
    z, _ = score_frame(state, _scored(cfg, case.tents[:0]), cfg)
    assert z.shape == (len(state.ids), 0)


def test_frame_walk_equals_the_scalar_walk(crowd_windows):
    """One `_frame_walk` call gives every (track, tentative) pair's `_walk` IOUs bit for bit, and +0.0 past its end."""
    for case in crowd_windows:
        state = case.state
        longest = max(case.tracks, key=lambda t: len(t.entries))
        tents = [*case.tracks, TentativeTrack(longest.entries[:1]), TentativeTrack(longest.entries[:2])]
        lengths = np.array([len(t.entries) for t in tents])
        assert {1, 2, 11} <= set(lengths.tolist())
        boxes = np.zeros((len(tents), lengths.max(), 4))
        for j, tent in enumerate(tents):
            boxes[j, : lengths[j]] = box_array(det.bbox for _, det in tent.entries)
        walk = rollout._frame_walk(state.forecast, boxes, lengths)
        assert walk.shape == (len(state.ids), *boxes.shape[:2])
        for i in range(len(state.ids)):
            forecast, _ = state_row(state, i)
            for j, tent in enumerate(tents):
                padding = [0.0] * (lengths.max() - lengths[j])
                expected = np.array([walk_iou for _, _, walk_iou in _walk(forecast, tent)] + padding)
                assert walk[i, j].tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", sorted(BATCH_CONFIGS))
def test_score_frame_walks_once_and_multiplies_once_per_window_slot(crowd_windows, monkeypatch, name):
    """One IOU pass per walked frame and none without a walk; at most window + 1 feature products, whatever the rows.

    In fact every window slot of every row is multiplied in one product, and the representative cosines in one
    more where the filter or f3 reads them; f1 reads only the walk IOUs and takes no feature product at all.
    """
    cfg = BATCH_CONFIGS[name]
    main = cfg.variant is Variant.MAIN
    walked = cfg.variant in (Variant.F1, Variant.F3) or main and cfg.cand_iou > 0
    cosines = cfg.variant is Variant.F3 or main and name != "main-nofilter"
    ious = count_calls(monkeypatch, rollout, "iou_array")
    boxes = count_calls(monkeypatch, rollout, "batch_boxes")
    dots = count_calls(monkeypatch, rollout, "feature_dots")
    for case in crowd_windows:
        state = _keyed(case.state, cfg)
        del ious[:], boxes[:], dots[:]
        _, crowd = score_frame(state, _scored(cfg, case.tents), cfg)
        assert len(state.ids) - len(crowd) > cfg.window + 1
        assert len(ious) == len(boxes) == int(walked)
        assert len(dots) == 0 if cfg.variant is Variant.F1 else 1 <= len(dots) <= cfg.window + 1
        assert len(dots) == cosines + (cfg.variant in (Variant.MAIN, Variant.F2))


@pytest.mark.parametrize("cand_iou", [AdpConfig().cand_iou, 1.5], ids=["default", "keeps-none"])
def test_main_multiplies_only_the_cells_the_filter_keeps(crowd_windows, monkeypatch, cand_iou):
    """Main's window product takes one operand row per kept (track, detection, entry) cell, as many as the per-pair
    `candidate_filter` keeps over the scored rows; no walk IOU reaches 1.5, so there it takes none and scores 0."""
    cfg = replace(BATCH_CONFIGS["main"], cand_iou=cand_iou)
    dots = count_calls(monkeypatch, rollout, "feature_dots")
    for case in crowd_windows:
        state = _keyed(case.state, cfg)
        del dots[:]
        z, crowd = score_frame(state, case.tents, cfg)
        kept = 0
        for i in sorted(set(range(len(state.ids))) - set(crowd.tolist())):
            forecast, rep = state_row(state, i)
            kept += sum(len(candidate_filter(forecast, tent, rep, cfg)) for tent in case.tracks)
        assert len(dots) == 2  # the representative cosines, then the window product
        assert [len(operand) for operand in dots[1]] == [kept, kept]
        assert (kept > 0) == (cand_iou < 1) == bool(np.count_nonzero(z))


def _one_track_state(cfg, later, feature=(1.0, 0.0)):
    """A state under a `_Logged` record for cfg, holding one track spawned at frame 3 at x = 8 (row 0), over a
    sequence whose frames 4 and 5 hold one detection each (rows 1 and 2) of `later`."""
    state = TrackerState(PARAMS, make_seq({3: [make_det(8, 0, feature=feature)], 4: later[:1], 5: later[1:]}), frame_cursor=2)
    state.hook = _Logged(cfg.window, cfg.beta)
    step(state, 3)
    return state


@pytest.mark.parametrize("name", ["main-nofilter", "f2", "f3"])
def test_score_frame_sums_negative_zero_products_as_the_mean_does(name):
    # (-1, 0) * (0, -1) is (-0.0, -0.0). `_mean` adds its terms to 0.0, so the score is +0.0; score_frame's
    # running sum starts at its first term and relies on `feature_dots` summing such products to +0.0.
    cfg = replace(BATCH_CONFIGS[name], crowd_ratio=2.0)
    state = _one_track_state(cfg, [make_det(0, 0, feature=(0.0, -1.0)), make_det(4, 0, feature=(0.0, -1.0))], feature=(-1.0, 0.0))
    tents = np.array([[1, 2]])
    z, _ = score_frame(state, _scored(cfg, tents), cfg)
    z_ref, _ = _per_pair_scores(state, state.seq.detections[1:2], _tentative_tracks(state.seq, tents), cfg)
    assert z.tobytes() == z_ref.tobytes() == np.zeros((1, 1)).tobytes()


@pytest.mark.parametrize("variant", list(Variant))
def test_main_walks_only_where_its_filter_reads_the_walk(crowd_windows, monkeypatch, variant):
    """Main takes one `_frame_walk` per frame at cand_iou > 0 and none at cand_iou <= 0, whose filter keeps every walked
    entry; f1 and f3 take one at any cand_iou, as they score the walk itself, and f2 never walks."""
    walks = count_calls(monkeypatch, rollout, "_frame_walk")
    for cand_iou in (AdpConfig().cand_iou, 0.0, -0.5):
        cfg = AdpConfig(variant=variant, cand_iou=cand_iou)
        for case in crowd_windows:
            del walks[:]
            score_frame(_keyed(case.state, cfg), _scored(cfg, case.tents), cfg)
            assert len(walks) == (variant in (Variant.F1, Variant.F3) or variant is Variant.MAIN and cand_iou > 0)


def test_frame_walk_checks_only_the_walked_states():
    """A pair's states past its tentative's end may turn non-finite without a raise, and leave the walked cells' IOUs
    as they are; a non-finite state on a walked cell raises, as `batch_boxes` does."""
    forecast = kf_prior_batch(batch_centers(box_array([BoundingBox(0, 0, 10, 20), BoundingBox(30, 5, 12, 24)])))
    boxes = np.array([[[1, 1, 10, 20], [0, 0, 0, 0], [0, 0, 0, 0]], [[31, 6, 12, 24], [33, 7, 12, 24], [35, 8, 12, 24]]], dtype=float)
    lengths = np.array([1, 3])
    walk = rollout._frame_walk(forecast, boxes, lengths)
    assert walk[:, 0, 1:].tobytes() == np.zeros((2, 2)).tobytes() and np.count_nonzero(walk[:, 1])
    # the first tentative's padding as infinite boxes: its states from step 2 on are inf or nan
    padded = boxes.copy()
    padded[0, 1:] = np.inf
    assert rollout._frame_walk(forecast, padded, lengths).tobytes() == walk.tobytes()
    # an infinite entry inside the second tentative: its state at step 2 is walked
    padded[1, 1] = np.inf
    with pytest.raises(ValueError, match="filter state is not finite"):
        rollout._frame_walk(forecast, padded, lengths)


def test_walk_raises_when_the_forecast_overflows():
    # Position and velocity near the float maximum: the first correct-and-predict
    # step of the walk overflows to inf, which no box may hold.
    state = _one_track_state(AdpConfig(), [make_det(0, 0), make_det(4, 0)])
    finite = _one_track_state(AdpConfig(), [make_det(0, 0), make_det(4, 0)])
    state.forecast[:, 0] = forecast_row(KalmanState([1.7e308, 5.0, 10.0, 10.0, 1.7e308, 0.0, 0.0, 0.0], (1.0, 0.0, 1.0)))
    tents = np.array([[1, 2]])
    dets, tracks = state.seq.detections[1:2], _tentative_tracks(state.seq, tents)
    for variant in (Variant.MAIN, Variant.F1, Variant.F3):
        cfg = AdpConfig(variant=variant, crowd_ratio=2.0)
        with pytest.raises(ValueError):
            _per_pair_scores(state, dets, tracks, cfg)
        with pytest.raises(ValueError):
            score_frame(state, tents, cfg)
    # main at cand_iou <= 0 reads no walk: the overflowing forecast raises nothing and changes no score
    for cfg in (AdpConfig(cand_iou=0.0, crowd_ratio=2.0), NO_FILTERS):
        z, _ = score_frame(state, tents, cfg)
        assert z.tobytes() == _per_pair_scores(finite, dets, tracks, cfg)[0].tobytes() and np.count_nonzero(z)


@settings(max_examples=50, deadline=None)
@given(
    window=st.integers(1, 30),
    beta=st.floats(-1.0, 1.5),
    crowd_ratio=st.floats(0.0, 1.0),
    frames=st.integers(1, 25),
    seed=st.integers(0, 2**32 - 1),
)
def test_trusted_record_equals_the_quality_window_and_crowd_check(window, beta, crowd_ratio, frames, seed):
    """Random matches, removals and spawns through a record give each row the sequence rows at its
    `select_quality_window` positions, and `score_frame` the crowd rows of the scalar `crowd_check`.

    Qualities lie in [-1, 1], some equal to beta, and beta reaches past 1, where no entry is trusted and every
    window takes the fallback; windows reach past the longest record.
    """
    rng = np.random.default_rng(seed)
    cfg = AdpConfig(window=window, beta=beta, crowd_ratio=crowd_ratio)
    record = TrustedRecord(window, beta)
    ids, next_id, tracks = np.zeros(0, dtype=np.int64), 1, {}  # id -> (sequence rows, qualities, spawn frame)
    for f in range(1, frames + 1):
        dets = 6 * (f - 1) + rng.permutation(6)  # the frame's six rows, in a random order
        rows = rng.permutation(len(ids))[: rng.integers(0, min(len(ids), 6) + 1)]
        quality = np.full(len(ids), np.nan)
        quality[rows] = np.where(rng.random(len(rows)) < 0.2, beta, rng.uniform(-1.0, 1.0, len(rows)))
        matched = np.full(len(ids), -1)
        matched[rows] = dets[: len(rows)]
        keep = np.flatnonzero((quality == quality) | (rng.random(len(ids)) < 0.8))
        spawn = dets[len(rows) :][rng.random(6 - len(rows)) < 0.5]
        ids = np.concatenate([ids[keep], np.arange(next_id, next_id + len(spawn))])
        state = SimpleNamespace(ids=ids, matched=np.concatenate([matched[keep], spawn]))
        record(state, f, keep, quality[keep])
        for tid, j, q in zip(ids.tolist(), state.matched.tolist(), quality[keep].tolist()):
            if q == q:
                tracks[tid][0].append(j)
                tracks[tid][1].append(q)
        for tid, j in zip(range(next_id, next_id + len(spawn)), spawn.tolist()):
            tracks[tid] = ([j], [1.0], f)
        next_id += len(spawn)

        longest = max((len(t[1]) for t in tracks.values()), default=0)
        assert record.slots.shape == (len(ids), 2, min(window, longest)) and record.slots.dtype == np.intp
        sizes = record.table[:, 3]
        for i, tid in enumerate(ids.tolist()):
            matches, qualities, _ = tracks[tid]
            expected = [matches[pos - 1] for pos in select_quality_window(qualities, beta, window)]
            assert record.slots[i, 1, record.slots.shape[2] - sizes[i] :].tolist() == expected
        state.frame_cursor, state.hook = f + int(rng.integers(0, 15)), record
        _, crowd = score_frame(state, np.zeros((0, 1), dtype=np.int64), cfg)
        expected = [i for i, tid in enumerate(ids.tolist()) if crowd_check(tracks[tid][1], tracks[tid][2], state.frame_cursor, cfg)]
        assert crowd.tolist() == expected


def test_crowd_work_per_frame_does_not_grow_with_track_age():
    """One object tracked for 320 frames: the record keeps one row of fixed size, and no per-track list grows."""
    seq = make_seq({i: [make_det(0.5 * i, 0)] for i in range(1, 321)})
    cfg = AdpConfig(variant=Variant.F2)  # scores the trusted window and checks the crowd rule at every frame
    state = TrackerState(PARAMS, seq)
    state.hook = record = TrustedRecord(cfg.window, cfg.beta)
    step(state, 1)
    sizes = {}
    for i in range(1, seq.last):
        adp_step(state, range(i + 1, i + 2), cfg)
        assert state.ids.tolist() == [1]
        shapes = {name: np.shape(getattr(obj, name)) for obj in (state, record) for name in obj.__slots__}
        if i == cfg.window:
            sizes = shapes
        elif i > cfg.window:
            assert shapes == sizes
    assert record.table.shape == (1, 4) and record.slots.shape == (1, 2, cfg.window)
    assert record.table[0, :3].tolist() == [320, 0, 1]  # 320 qualities on record, none below beta, spawned at frame 1
    assert not any(isinstance(getattr(obj, name), list) for obj in (state, record) for name in obj.__slots__)


def test_trusted_record_size_does_not_depend_on_the_feature_width():
    """The record holds sequence rows, not feature copies: the same boxes with 2- and 64-wide features give one
    record of intp rows, of the same bytes."""
    cfg = AdpConfig()
    records = []
    for dim in (2, 64):
        seq = make_seq({f: [make_det(0.5 * f + 40 * k, 0, feature=np.eye(dim)[k]) for k in range(2)] for f in range(1, 13)})
        state = TrackerState(PARAMS, seq)
        state.hook = TrustedRecord(cfg.window, cfg.beta)
        step(state, 1)
        for f in range(2, seq.last + 1):
            adp_step(state, range(f, min(f + cfg.horizon, seq.last) + 1), cfg)
        records.append(state.hook.slots)
    assert all(slots.dtype == np.intp and slots.shape == (2, 2, cfg.window) for slots in records)
    assert records[0].nbytes == records[1].nbytes and np.array_equal(*records)


def test_array_state_equals_the_scalar_recursion(monkeypatch):
    """Every row of every tracker state, real and simulated, equals the scalar filter and EMA replayed on its track.

    The replay runs `kf_init`, `kf_predict`, `kf_update` and `ema_update` on
    each track's matched detections; the quality score the hook sees for each
    match is replayed from `iou` and `cosine_sim` too.
    """
    expected = {}  # (state, track id) -> (forecast, representative feature) by the scalar recursion
    apply_matching, fork_at = base_tracker.apply_matching, rollout.fork_at
    calls = []

    def spawned(state, rows):
        for i in rows:
            det = state.seq.detections[state.matched[i]]
            expected[state, int(state.ids[i])] = (kf_predict(kf_init(det.bbox)), det.feature)

    def check(state):
        assert state.forecast.shape[1] == len(state.rep) == len(state.matched) == len(state.ids)
        for i, tid in enumerate(state.ids.tolist()):
            forecast, rep = expected[state, tid]
            assert np.array_equal(state.forecast[:, i], forecast_row(forecast))
            assert np.array_equal(state.rep[i], rep.values)

    def forked(seq, frame, params):
        state = fork_at(seq, frame, params)
        spawned(state, range(len(state.ids)))
        return state

    def replayed(state, frame, matching):
        check(state)
        det_idx = state.seq.confident(frame)[0]
        ids = state.ids.tolist()
        matched = {ids[i]: state.seq.detections[det_idx[jj]] for i, jj in matching.pairs}
        after, quality = {}, {}
        for tid in ids:
            forecast, rep = expected[state, tid]
            if tid in matched:
                det = matched[tid]
                overlap, cos = iou(state_to_bbox(forecast), det.bbox), cosine_sim(rep, det.feature)
                quality[tid] = max(cos, 0.0) if cos >= 0.25 and overlap >= 0.1 else 0.0
                forecast, rep = kf_update(forecast, det.bbox), ema_update(rep, det.feature, 0.9)
            after[state, tid] = (kf_predict(forecast), rep)
        hook, seen = state.hook, []
        state.hook = lambda *args: seen.append(args)
        apply_matching(state, frame, matching)
        state.hook = hook
        (_, _, keep, got), = seen
        if hook is not None:
            hook(*seen[0])
        calls.append(len(matching.pairs))
        assert {tid: q for tid, q in zip(state.ids.tolist(), got.tolist()) if q == q} == quality
        expected.update(after)
        spawned(state, range(len(keep), len(state.ids)))
        check(state)

    monkeypatch.setattr(base_tracker, "apply_matching", replayed)
    monkeypatch.setattr(rollout, "apply_matching", replayed)
    monkeypatch.setattr(rollout, "fork_at", forked)
    seq = generate(occlusion_preset()[0]).det_frames
    run_adp(seq, PARAMS, AdpConfig(horizon=10))
    assert len(calls) > 5 * seq.last  # the simulated steps are checked too
    assert sum(calls) > 1000


_CROWD = replace(occlusion_preset()[0], identities=20, crossings=6, seed=9003)


@pytest.mark.parametrize("workload", ["crowd-base", "crowd-f2", "presets-base"])
def test_last_match_rows_follow_the_histories(monkeypatch, preset_base_runs, workload):
    """After every step the rows hold the live tracks in order, `matched` the row of each one's last match, and
    `collect_frame_rows` at this and the previous step's frame returns what a scan of their matches, replayed from
    the matchings, finds; the steps spawn, match, lose and remove tracks. The scalar recursion test above checks
    the simulated steps too."""
    if workload == "presets-base":
        sequences = [scenario.det_frames for scenario, _ in preset_base_runs]
    else:
        sequences = [generate(_CROWD).det_frames]
    apply_matching = base_tracker.apply_matching
    history = {}  # state -> track id -> its spawn and matched (frame, detection index) entries
    previous = {}  # state -> the frame of its previous step
    removed = []

    def checked(state, frame, matching):
        det_idx = state.seq.confident(frame)[0].tolist()
        ids, first, tracks = state.ids.tolist(), state.next_id, history.setdefault(state, {})
        for i, jj in matching.pairs:
            tracks[ids[i]].append((frame, det_idx[jj]))
        taken = {jj for _, jj in matching.pairs}
        unmatched = [j for jj, j in enumerate(det_idx) if jj not in taken]
        apply_matching(state, frame, matching)
        for tid, j in enumerate(unmatched, start=first):
            tracks[tid] = [(frame, j)]
        kept = [tid for tid in ids if tracks[tid][-1][0] >= frame - PARAMS.max_age]
        live = state.ids.tolist()
        assert live == kept + list(range(first, first + len(unmatched)))
        assert state.matched.dtype == np.intp
        assert state.matched.tolist() == [tracks[tid][-1][1] for tid in live]
        assert last_match(state).tolist() == [tracks[tid][-1][0] for tid in live]
        for at in (frame, previous.get(state)):
            if at is not None:
                scan = [[at, tid, tracks[tid][-1][1]] for tid in live if tracks[tid][-1][0] >= at]
                assert base_tracker.collect_frame_rows(state, at).tolist() == scan
        previous[state] = frame
        removed.append(len(ids) - len(kept))

    monkeypatch.setattr(base_tracker, "apply_matching", checked)
    monkeypatch.setattr(rollout, "apply_matching", checked)
    for seq in sequences:
        if workload == "crowd-f2":
            run_adp(seq, PARAMS, AdpConfig(variant=Variant.F2, horizon=10))
        else:
            run_base(seq, PARAMS)
    assert sum(removed) > 0


def test_frame_rows_are_built_once_shared_and_never_written(monkeypatch):
    """Every step over a frame, the real one and those of the simulations, reads the read-only arrays the sequence
    was built with, and the confident rows of its one table; a run builds no row array and writes no array."""
    seq = generate(occlusion_preset()[0]).det_frames
    held = (seq.boxes, seq.features, seq.confidences, seq.offsets)
    before = [array.copy() for array in held]
    builds = count_calls(monkeypatch, core, "box_array")
    reads = Counter()  # weights passes by frame, real and simulated

    def recording(weights):
        def recorded(state, frame):
            out = weights(state, frame)
            assert state.seq is seq
            reads[frame] += 1
            return out

        return recorded

    for module in (base_tracker, rollout):
        monkeypatch.setattr(module, "compute_base_weights", recording(module.compute_base_weights))
    run_adp(seq, PARAMS, AdpConfig(horizon=10))

    assert builds == []
    assert sum(n > 10 for n in reads.values()) > seq.last / 2  # the real step and ten simulated ones
    table = seq._confident
    for frame in range(1, seq.last + 1):
        rows, boxes = seq.confident(frame)
        assert np.shares_memory(rows, table[0]) and np.shares_memory(boxes, table[2])
    for kept, old in zip([*held, *table, seq.centers], [*before, *table, seq.centers]):
        assert not kept.flags.writeable and np.array_equal(kept, old)
