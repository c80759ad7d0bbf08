"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line with its runtime and asserting the stated budget."""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import covariance, rows_to_boxes

from adptrack.appearance import cosine_sim, ema_update, select_quality_window
from adptrack.assignment import WeightMatrix, brute_force_match, hungarian_max
from adptrack.base_tracker import TrackerParams, run as run_base
from adptrack.cli import main
from adptrack.core import BoundingBox, FeatureVec, from_center, iou
from adptrack.mda_dp import MdaInstance, avs_solve, exact_solve
from adptrack.metrics import LabeledBox, evaluate
from adptrack.motion import kf_init, kf_predict, kf_update
from adptrack.rollout import AdpConfig, run as run_adp
from adptrack.synthworld import ScenarioConfig, generate, occlusion_preset

PARAMS = TrackerParams()


@contextmanager
def criterion(name, budget_s, spent_s=0.0):
    """Time the block against `budget_s`, counting `spent_s` seconds already spent on it in a shared fixture."""
    start = time.perf_counter() - spent_s
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}: {time.perf_counter() - start:.2f}s (budget {budget_s:g}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"[PASS] {name}: {elapsed:.2f}s (budget {budget_s:g}s)")
    assert elapsed < budget_s, f"{name} exceeded its runtime budget"


def test_base_equivalence(equivalence_runs):
    runs, spent_s = equivalence_runs
    with criterion("base-equivalence (100 scenarios, alpha=0)", 60, spent_s):
        for i, (base, adp) in enumerate(runs):
            assert base == adp, f"scenario {i} diverged"


def test_matching_oracle():
    # Half the matrices, at both gates, draw their entries from {0, 0.25, 0.5, 1}, so tied optima are
    # common and the canonical pair lists, not only the totals, must agree.
    with criterion("matching oracle (500 seeded matrices, half of them tie-heavy)", 10):
        rng = np.random.default_rng(20240917)
        for i in range(500):
            r, c = rng.integers(1, 7), rng.integers(1, 7)
            entries = rng.uniform(0, 1, size=(r, c)) if i % 4 < 2 else rng.choice([0.0, 0.25, 0.5, 1.0], size=(r, c))
            w = WeightMatrix(entries)
            min_weight = 0.0 if i % 2 == 0 else 0.3
            h = hungarian_max(w, min_weight)
            b = brute_force_match(w, min_weight)
            assert abs(h.total_weight - b.total_weight) < 1e-9
            assert h.pairs == b.pairs


def test_dp_oracle():
    with criterion("DP oracle (50 additive + 50 bonus instances)", 30):
        rng = np.random.default_rng(777)
        for _ in range(50):
            m = int(rng.integers(1, 5))
            stages = int(rng.integers(1, 5))
            inst = MdaInstance([rng.uniform(0, 1, (m, m)) for _ in range(stages)])
            _, exact_value = exact_solve(inst)
            _, avs_value = avs_solve(inst, lambda k, h, a=inst.arc_values: a[k])
            assert abs(exact_value - avs_value) < 1e-9
        for _ in range(50):
            m = int(rng.integers(1, 5))
            stages = int(rng.integers(1, 5))
            arcs = [rng.uniform(0, 1, (m, m)) for _ in range(stages)]
            bonus = rng.uniform(0, 2, (m, m))
            inst = MdaInstance(arcs, grouping_bonus=lambda ch, b=bonus: float(b[ch[0], ch[-1]]))
            _, exact_value = exact_solve(inst)
            _, avs_value = avs_solve(inst, lambda k, h, a=arcs: a[k])
            assert avs_value <= exact_value + 1e-9


def test_kalman_convergence():
    with criterion("Kalman convergence (20 seeded tracks)", 1):
        rng = np.random.default_rng(31337)
        for _ in range(20):
            h = rng.uniform(10, 150)
            w = h * rng.uniform(0.3, 0.6)
            c0 = rng.uniform(0, 500, size=2)
            v = rng.uniform(-20, 20, size=2)
            state = kf_init(from_center(c0[0], c0[1], w, h))
            for k in range(1, 4):
                state = kf_predict(state)
                state = kf_update(state, from_center(c0[0] + k * v[0], c0[1] + k * v[1], w, h))
            pred = kf_predict(state)
            assert np.max(np.abs(pred.mean[:2] - (c0 + 4 * v))) < 1e-6


def test_metric_correctness():
    with criterion("metric correctness (hand scenario + gt-vs-gt on preset)", 5):
        def box(left):
            return BoundingBox(left, 0, 10, 10)

        gt, pred = [], []
        for frame in (1, 2, 3):
            gt += [LabeledBox(frame, 1, box(0)), LabeledBox(frame, 2, box(100))]
        for frame in (1, 2):
            pred += [LabeledBox(frame, 21, box(0)), LabeledBox(frame, 22, box(100))]
        pred += [LabeledBox(3, 22, box(0)), LabeledBox(3, 21, box(100))]
        report = evaluate(gt, pred, 0.5)
        assert report.mota == pytest.approx(0.666667, abs=1e-6)
        assert report.idf1 == pytest.approx(0.666667, abs=1e-6)
        assert report.idsw == 2
        assert report.fp == 0 and report.fn == 0 and report.frag == 0

        for sc_cfg in occlusion_preset():
            sc = generate(sc_cfg)
            perfect = evaluate(sc.gt, list(sc.gt), 0.5)
            assert perfect.idf1 == 1.0 and perfect.mota == 1.0
            assert (perfect.fp, perfect.fn, perfect.idsw, perfect.frag) == (0, 0, 0, 0)


def test_end_to_end_sanity():
    with criterion("end-to-end sanity (noiseless scenario, IDF1 = 1)", 5):
        sc = generate(
            ScenarioConfig(seed=1234, frames=40, identities=5, crossings=0, det_noise_px=0.0, feature_noise=0.0, drop_prob_occluded=0.0)
        )
        report = evaluate(sc.gt, rows_to_boxes(run_base(list(sc.det_frames), PARAMS)))
        assert report.idf1 == 1.0
        assert report.idsw == 0


def test_occlusion_benchmark(preset_adp_main_runs):
    runs, spent_s = preset_adp_main_runs
    with criterion("occlusion benchmark (20 preset scenarios)", 120, spent_s):
        base_idsw = adp_idsw = 0
        base_idf1 = []
        adp_idf1 = []
        improved = 0
        base_swap_scenarios = 0
        for sc, adp_rows in runs:
            rb = evaluate(sc.gt, rows_to_boxes(run_base(list(sc.det_frames), PARAMS)))
            ra = evaluate(sc.gt, rows_to_boxes(adp_rows))
            base_idsw += rb.idsw
            adp_idsw += ra.idsw
            base_idf1.append(rb.idf1)
            adp_idf1.append(ra.idf1)
            improved += 1 if ra.idf1 > rb.idf1 else 0
            base_swap_scenarios += 1 if rb.idsw > 0 else 0
        assert base_swap_scenarios >= 15, "preset no longer induces base-tracker swaps"
        assert adp_idsw <= base_idsw
        assert np.mean(adp_idf1) >= np.mean(base_idf1)
        assert improved >= 6
        print(
            f"  benchmark: IDSW {base_idsw} -> {adp_idsw}, "
            f"mean IDF1 {np.mean(base_idf1):.4f} -> {np.mean(adp_idf1):.4f}, "
            f"improved on {improved}/20"
        )


def test_sweep_smoke(tmp_path):
    with criterion("sweep smoke (horizon 1,3,5,10)", 180):
        scene = tmp_path / "scene"
        assert main([
            "synth", "--out-dir", str(scene), "--seed", "77", "--frames", "25",
            "--objects", "4", "--crossings", "1", "--noise", "0.4",
            "--feature-dim", "8", "--drop-prob", "0.7",
        ]) == 0
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--param", "horizon", "--values", "1,3,5,10",
            "--dets", str(scene / "det.txt"), "--features", str(scene / "features.csv"),
            "--gt", str(scene / "gt.txt"), "--out", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "param,value,IDF1,MOTA,FP,FN,IDSW,Frag,runtime_s"
        assert len(lines) == 5
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[0] == "horizon"
            assert float(fields[8]) > 0.0


def test_module_invariants():
    with criterion("module invariant suite", 30):
        rng = np.random.default_rng(5150)

        # iou symmetry and bounds
        for _ in range(200):
            a = BoundingBox(*rng.uniform(0, 50, 2), *rng.uniform(1, 30, 2))
            b = BoundingBox(*rng.uniform(0, 50, 2), *rng.uniform(1, 30, 2))
            assert iou(a, b) == iou(b, a)
            assert 0.0 <= iou(a, b) <= 1.0
            assert iou(a, a) == pytest.approx(1.0, abs=1e-12)

        # cosine bounds and EMA normalization
        for _ in range(200):
            u = FeatureVec(rng.normal(size=8))
            v = FeatureVec(rng.normal(size=8))
            assert -1.0 <= cosine_sim(u, v) <= 1.0
            out = ema_update(u, v, float(rng.uniform(0, 1)))
            assert abs(np.linalg.norm(out.values) - 1.0) < 1e-9

        # covariance PSD through random cycles
        state = kf_init(BoundingBox(0, 0, 12, 30))
        for _ in range(50):
            state = kf_predict(state)
            cov = covariance(state)
            assert np.max(np.abs(cov - cov.T)) < 1e-8
            assert np.linalg.eigvalsh(cov).min() >= -1e-8
            state = kf_update(
                state, from_center(rng.uniform(0, 99), rng.uniform(0, 99), rng.uniform(4, 40), rng.uniform(4, 40))
            )

        # quality window bounds
        for _ in range(200):
            n = int(rng.integers(1, 25))
            q = rng.uniform(-1, 1, size=n).tolist()
            s = int(rng.integers(1, 9))
            win = select_quality_window(q, float(rng.uniform(-1, 1)), s)
            assert 1 <= win[0] <= win[-1] <= n
            assert len(win) <= s

        # id non-reuse and determinism on a drop-heavy scenario
        sc = generate(
            ScenarioConfig(seed=4242, frames=40, identities=5, crossings=2, det_noise_px=0.5, feature_noise=0.15, drop_prob_occluded=0.9)
        )
        frames = list(sc.det_frames)
        from adptrack.base_tracker import TrackerState, step

        state = TrackerState(PARAMS, frame_cursor=0)
        params_short = TrackerParams(max_age=3)
        churn = TrackerState(params_short, frame_cursor=0)
        seen = ({}, {})  # every track each tracker held, by object identity, in first-seen order
        for f in frames:
            for tracker, tracks in zip((state, churn), seen):
                step(tracker, f)
                tracks.update((id(t), t) for t in tracker.tracks)
        for tracker, tracks in zip((state, churn), seen):
            ids = [t.id for t in tracks.values()]
            assert len(ids) == len(set(ids))
            assert ids == sorted(ids)
            assert max(ids) < tracker.next_id
        assert len(churn.tracks) < len(seen[1])  # removed ids are covered too

        rows1 = run_adp(frames, PARAMS, AdpConfig(horizon=5))
        rows2 = run_adp(frames, PARAMS, AdpConfig(horizon=5))
        assert rows1 == rows2
        assert run_base(frames, PARAMS) == run_base(frames, PARAMS)

        # metric invariance under prediction-id bijection
        pred = rows_to_boxes(rows1)
        renamed = [LabeledBox(frame=p.frame, id=p.id * 13 + 5, bbox=p.bbox) for p in pred]
        assert evaluate(sc.gt, pred) == evaluate(sc.gt, renamed)
