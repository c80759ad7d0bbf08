import hashlib

import numpy as np
import pytest

from conftest import rows_to_boxes

from adptrack.base_tracker import TrackerParams, run as run_base
from adptrack.metrics import evaluate
from adptrack.motio import write_detections, write_features, write_gt
from adptrack.synthworld import OCCLUSION_PRESET_SEEDS, ScenarioConfig, generate, occlusion_preset


def _digest(tmp_path, scenario, tag):
    gt_path = tmp_path / f"gt_{tag}.txt"
    det_path = tmp_path / f"det_{tag}.txt"
    feat_path = tmp_path / f"feat_{tag}.csv"
    write_gt(gt_path, list(scenario.gt))
    write_detections(det_path, list(scenario.det_frames))
    write_features(feat_path, list(scenario.det_frames))
    h = hashlib.sha256()
    for p in (gt_path, det_path, feat_path):
        h.update(p.read_bytes())
    return h.hexdigest()


def test_generation_is_deterministic(tmp_path):
    cfg = ScenarioConfig(seed=42, frames=30, identities=5, crossings=2, det_noise_px=0.5, feature_noise=0.1, drop_prob_occluded=0.8)
    a = _digest(tmp_path, generate(cfg), "a")
    b = _digest(tmp_path, generate(cfg), "b")
    assert a == b

    different = ScenarioConfig(seed=43, frames=30, identities=5, crossings=2, det_noise_px=0.5, feature_noise=0.1, drop_prob_occluded=0.8)
    assert _digest(tmp_path, generate(different), "c") != a


def test_no_crossings_means_no_interactions():
    cfg = ScenarioConfig(seed=5, frames=40, identities=3, crossings=0)
    sc = generate(cfg)
    assert {b.id for b in sc.gt} == {1, 2, 3}
    # nothing is occluded, so nothing is dropped
    assert all(len(f.detections) == 3 for f in sc.det_frames)


def test_crossing_with_certain_drop_loses_detections():
    cfg = ScenarioConfig(seed=42, frames=60, identities=2, crossings=1, drop_prob_occluded=1.0)
    sc = generate(cfg)
    short_frames = [f.index for f in sc.det_frames if len(f.detections) < 2]
    assert short_frames, "expected at least one frame with a dropped detection"
    # ground truth still covers every identity in every frame
    assert len(sc.gt) == 60 * 2


def test_features_unit_norm_and_identity_map():
    cfg = ScenarioConfig(seed=9, frames=10, identities=4, crossings=1, feature_noise=0.3, drop_prob_occluded=0.2)
    sc = generate(cfg)
    for f in sc.det_frames:
        for det in f.detections:
            assert abs(np.linalg.norm(det.feature.values) - 1.0) < 1e-9
    assert set(sc.identity_features) == {1, 2, 3, 4}


def test_noiseless_detections_equal_gt_and_track_perfectly():
    cfg = ScenarioConfig(seed=12, frames=30, identities=4, crossings=0, det_noise_px=0.0, feature_noise=0.0, drop_prob_occluded=0.0)
    sc = generate(cfg)
    gt_by_frame = {}
    for b in sc.gt:
        gt_by_frame.setdefault(b.frame, []).append(b.bbox)
    for f in sc.det_frames:
        assert [d.bbox for d in f.detections] == gt_by_frame[f.index]
    report = evaluate(sc.gt, rows_to_boxes(sc.det_frames, run_base(list(sc.det_frames), TrackerParams())))
    assert report.idf1 == 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(seed=1, identities=3, crossings=2)
    with pytest.raises(ValueError):
        ScenarioConfig(seed=1, frames=0)
    with pytest.raises(ValueError):
        ScenarioConfig(seed=1, drop_prob_occluded=1.5)


def test_occlusion_preset_shape():
    preset = occlusion_preset()
    assert len(preset) == 20
    assert tuple(cfg.seed for cfg in preset) == OCCLUSION_PRESET_SEEDS
    assert all(cfg.crossings >= 1 and cfg.mix_features for cfg in preset)
