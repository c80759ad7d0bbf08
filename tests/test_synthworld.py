import hashlib
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import equivalence_scenarios, rows_to_boxes

from adptrack import synthworld
from adptrack.base_tracker import TrackerParams, run as run_base
from adptrack.core import box_array
from adptrack.metrics import evaluate
from adptrack.motio import write_detections, write_features, write_gt
from adptrack.synthworld import OCCLUSION_PRESET_SEEDS, ScenarioConfig, generate, occlusion_preset


def _digest(tmp_path, scenario, tag):
    gt_path = tmp_path / f"gt_{tag}.txt"
    det_path = tmp_path / f"det_{tag}.txt"
    feat_path = tmp_path / f"feat_{tag}.csv"
    write_gt(gt_path, list(scenario.gt))
    write_detections(det_path, scenario.det_frames)
    write_features(feat_path, scenario.det_frames)
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
    assert np.diff(sc.det_frames.offsets).tolist() == [3] * 40


def test_crossing_with_certain_drop_loses_detections():
    cfg = ScenarioConfig(seed=42, frames=60, identities=2, crossings=1, drop_prob_occluded=1.0)
    sc = generate(cfg)
    short_frames = [f.index for f in sc.det_frames if len(f.boxes) < 2]
    assert short_frames, "expected at least one frame with a dropped detection"
    # ground truth still covers every identity in every frame
    assert len(sc.gt) == 60 * 2


def test_features_unit_norm_and_identity_map():
    cfg = ScenarioConfig(seed=9, frames=10, identities=4, crossings=1, feature_noise=0.3, drop_prob_occluded=0.2)
    sc = generate(cfg)
    for det in sc.det_frames.detections:
        assert abs(np.linalg.norm(det.feature.values) - 1.0) < 1e-9
    assert set(sc.identity_features) == {1, 2, 3, 4}


def test_noiseless_detections_equal_gt_and_track_perfectly():
    cfg = ScenarioConfig(seed=12, frames=30, identities=4, crossings=0, det_noise_px=0.0, feature_noise=0.0, drop_prob_occluded=0.0)
    sc = generate(cfg)
    gt_by_frame = {}
    for b in sc.gt:
        gt_by_frame.setdefault(b.frame, []).append(b.bbox)
    seq = sc.det_frames
    for f in range(1, seq.last + 1):
        assert [d.bbox for d in seq.detections[seq.rows(f)]] == gt_by_frame[f]
    report = evaluate(sc.gt, rows_to_boxes(seq, run_base(seq, TrackerParams())))
    assert report.idf1 == 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(seed=1, identities=3, crossings=2)
    with pytest.raises(ValueError):
        ScenarioConfig(seed=1, frames=0)
    with pytest.raises(ValueError):
        ScenarioConfig(seed=1, drop_prob_occluded=1.5)


def test_a_free_runner_needs_a_world_two_margins_wide():
    """A free runner reflects between margins of half its box width plus 8 px: a world exactly two margins wide
    holds it still, and a narrower one is a ValueError naming the identity, its box width and the world width. A
    crossing pair does not reflect, so it generates in any world."""
    # a box's size does not depend on the world's width
    width = generate(ScenarioConfig(identities=1, frames=1)).gt[0].bbox.width
    still = generate(ScenarioConfig(world=(width + 16.0, 360.0), identities=1, frames=10))
    assert len({b.bbox for b in still.gt}) == 1
    narrow = float(np.nextafter(width + 16.0, 0.0))
    message = f"identity 1's box is {width:.6g} px wide, too wide to run in a world {narrow:.6g} px wide"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        generate(ScenarioConfig(world=(narrow, 360.0), identities=1, frames=10))
    with pytest.raises(ValueError, match="^identity 1's box is .* px wide, too wide to run in a world 20 px wide$"):
        generate(ScenarioConfig(world=(20.0, 400.0), identities=1))
    assert len(generate(ScenarioConfig(world=(20.0, 400.0), identities=2, crossings=1)).gt) == 2 * 64


def test_occlusion_preset_shape():
    preset = occlusion_preset()
    assert len(preset) == 20
    assert tuple(cfg.seed for cfg in preset) == OCCLUSION_PRESET_SEEDS
    assert all(cfg.crossings >= 1 and cfg.mix_features for cfg in preset)


# sha256 of the raw arrays, and of the written files, of every scene in `_PINNED_SCENES`, taken from the
# object-per-box generator before scenes were built as arrays. The files round to `%.6g` and `%.9g`, and result
# digests move only when an association flips, so only the arrays pin a scene's last bits.
SCENE_BITS = "8dfa1533ce7330aa41a9f28857b7a379e1276540736da3d65c7e695734c8e19a"
SCENE_FILES = "9215d433de3b8ea98fa275c12f78627df87cfa404bc035926eef1713a6062f19"
_PINNED_SCENES = [
    *occlusion_preset(),
    *equivalence_scenarios(),
    replace(occlusion_preset()[0], identities=12, crossings=4, seed=9003),
    replace(occlusion_preset()[0], identities=20, crossings=6, seed=9003),
]


def test_scene_bits_are_pinned(tmp_path):
    """The gt (frame, id, box) rows, each frame's box, feature and confidence bytes and the identity features of
    the 20 presets, the 100 equivalence scenes and the 12- and 20-identity crowds at seed 9003, hashed as raw
    arrays and as the gt, det and feature files that `motio` writes."""
    bits, files = hashlib.sha256(), hashlib.sha256()
    for cfg in _PINNED_SCENES:
        sc = generate(cfg)
        bits.update(np.array([(b.frame, b.id) for b in sc.gt], dtype=np.int64).tobytes())
        bits.update(box_array(b.bbox for b in sc.gt).tobytes())
        for f in sc.det_frames:
            bits.update(np.array([f.index, len(f.boxes)], dtype=np.int64).tobytes())
            for column in (f.boxes, f.features, f.confidences):
                bits.update(column.tobytes())
        for identity, vec in sorted(sc.identity_features.items()):
            bits.update(np.int64(identity).tobytes() + vec.values.tobytes())
        files.update(_digest(tmp_path, sc, "pin").encode())
    assert (bits.hexdigest(), files.hexdigest()) == (SCENE_BITS, SCENE_FILES)


def test_occluder_search_takes_chunks_of_frames(monkeypatch):
    """The occluder search takes the (frames, identities, identities) block a chunk of frames at a time, under a fixed
    cell budget: a 300-frame, 60-identity scene peaks under 30 MB (69 MB as one block), and chunks of any size give
    the scene bits of one block."""
    tracemalloc.start()
    try:
        generate(ScenarioConfig(seed=3, frames=300, identities=60, crossings=10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6

    def bits(scene):
        return [scene.gt, *([f.boxes.tobytes(), f.features.tobytes(), f.confidences.tobytes()] for f in scene.det_frames)]

    cfg = ScenarioConfig(seed=7, frames=40, identities=8, crossings=3, det_noise_px=0.4, feature_noise=0.1, drop_prob_occluded=0.7)
    one_block = bits(generate(cfg))
    assert 40 * 8 * 8 <= synthworld._OCCLUDER_CELLS
    # chunks of 5 frames, then of one frame each: a budget below one frame's cells still takes a frame per chunk
    for cells in (5 * 8 * 8 + 3, 1):
        monkeypatch.setattr(synthworld, "_OCCLUDER_CELLS", cells)
        assert bits(generate(cfg)) == one_block
