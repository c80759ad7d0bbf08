import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_det, oracle_read_gt, table_rows

from adptrack.base_tracker import TrackerParams, run as run_base
from adptrack.core import BoundingBox, Detection, FrameData
from adptrack.motio import (
    DataError,
    attach_features,
    read_detections,
    read_features,
    read_gt,
    write_detections,
    write_features,
    write_gt,
    write_results,
)
from adptrack.synthworld import ScenarioConfig, generate


def test_read_detections_single_line(tmp_path):
    p = tmp_path / "det.txt"
    p.write_text("1,-1,10,20,30,40,0.9,-1,-1,-1\n")
    frames = read_detections(p)
    assert len(frames) == 1
    det = frames[0].detections[0]
    assert det.bbox == BoundingBox(10, 20, 30, 40)
    assert det.confidence == 0.9
    assert det.feature is None


def test_read_detections_empty_file(tmp_path):
    p = tmp_path / "det.txt"
    p.write_text("")
    assert read_detections(p) == []


def test_read_detections_regroups_out_of_order(tmp_path):
    p = tmp_path / "det.txt"
    p.write_text("2,-1,0,0,5,5,0.5\n1,-1,1,0,5,5,0.6\n2,-1,2,0,5,5,0.7\n")
    frames = read_detections(p)
    assert [f.index for f in frames] == [1, 2]
    assert [d.bbox.left for d in frames[1].detections] == [0, 2]
    assert frames[0].detections[0].bbox.left == 1


def test_read_detections_fills_missing_frames(tmp_path):
    p = tmp_path / "det.txt"
    p.write_text("3,-1,0,0,5,5,0.5\n")
    frames = read_detections(p)
    assert [f.index for f in frames] == [1, 2, 3]
    assert frames[0].detections == () and frames[1].detections == ()


def test_read_detections_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "det.txt"
    p.write_text("1,-1,10,20,30,40,0.9\n1,-1,botched,20,30,40,0.9\n")
    with pytest.raises(DataError, match="det.txt:2"):
        read_detections(p)
    p.write_text("1,-1,10,20,-3,40,0.9\n")
    with pytest.raises(DataError, match="non-positive"):
        read_detections(p)


def test_read_gt_variants(tmp_path):
    p = tmp_path / "gt.txt"
    p.write_text("1,7,0,0,10,10,1,1,1\n2,7,0,0,10,10,1,1,1,0.5\n")
    table = read_gt(p)
    assert table_rows(table) == [(1, 7, 0.0, 0.0, 10.0, 10.0), (2, 7, 0.0, 0.0, 10.0, 10.0)]


def test_read_gt_rejects_duplicates_and_bad_ids(tmp_path):
    p = tmp_path / "gt.txt"
    p.write_text("1,7,0,0,10,10,1\n1,7,5,5,10,10,1\n")
    with pytest.raises(DataError, match="duplicate"):
        read_gt(p)
    p.write_text("1,0,0,0,10,10,1\n")
    with pytest.raises(DataError, match="id must be >= 1"):
        read_gt(p)


def test_read_features_normalizes(tmp_path):
    det_path = tmp_path / "det.txt"
    det_path.write_text("1,-1,0,0,5,5,0.9\n1,-1,10,0,5,5,0.9\n")
    frames = read_detections(det_path)
    feat_path = tmp_path / "features.csv"
    feat_path.write_text("frame,det,dim=2\n1,0,1,0\n1,1,3,4\n")
    table = read_features(feat_path, frames)
    assert table.dim == 2
    assert np.allclose(table.rows[(1, 0)].values, [1.0, 0.0])
    assert np.allclose(table.rows[(1, 1)].values, [0.6, 0.8])
    enriched = attach_features(frames, table)
    assert np.allclose(enriched[0].detections[1].feature.values, [0.6, 0.8])


def test_read_features_coverage_and_dim_errors(tmp_path):
    det_path = tmp_path / "det.txt"
    det_path.write_text("1,-1,0,0,5,5,0.9\n1,-1,10,0,5,5,0.9\n")
    frames = read_detections(det_path)
    feat_path = tmp_path / "features.csv"

    feat_path.write_text("frame,det,dim=2\n1,0,1,0\n")
    with pytest.raises(DataError, match=r"missing feature row for frame 1, detection 1"):
        read_features(feat_path, frames)

    feat_path.write_text("frame,det,dim=2\n1,0,1,0\n1,1,1,0\n2,0,1,0\n")
    with pytest.raises(DataError, match="nonexistent"):
        read_features(feat_path, frames)

    feat_path.write_text("frame,det,dim=3\n1,0,1,0\n")
    with pytest.raises(DataError, match="expected 5 fields"):
        read_features(feat_path, frames)

    feat_path.write_text("frames,det,dim=2\n")
    with pytest.raises(DataError, match="bad header"):
        read_features(feat_path, frames)


def test_write_results_sorting_and_roundtrip(tmp_path):
    rows = [
        (2, 1, make_det(2, 0.123456789, 4, width=11.5, height=20.25, conf=0.875)),
        (1, 2, make_det(1, 5, 5)),
        (1, 1, make_det(1, 0, 0)),
    ]
    out = tmp_path / "res.txt"
    write_results(out, rows)
    lines = out.read_text().splitlines()
    assert [l.split(",")[:2] for l in lines] == [["1", "1"], ["1", "2"], ["2", "1"]]

    parsed = read_gt(out)
    assert parsed.boxes[2, 0] == pytest.approx(0.123456789, abs=1e-6)
    assert parsed.boxes[2, 3] == 20.25


def test_write_results_empty(tmp_path):
    out = tmp_path / "res.txt"
    write_results(out, [])
    assert out.read_text() == ""


def test_gt_roundtrip(tmp_path):
    sc = generate(ScenarioConfig(seed=3, frames=8, identities=3))
    path = tmp_path / "gt.txt"
    write_gt(path, list(sc.gt))
    parsed = read_gt(path)
    assert len(parsed.frames) == len(sc.gt)
    originals = {(b.frame, b.id): b.bbox for b in sc.gt}
    for frame, obj_id, left, *_ in table_rows(parsed):
        assert left == pytest.approx(originals[(frame, obj_id)].left, rel=1e-5, abs=1e-4)


def test_detection_feature_roundtrip(tmp_path):
    sc = generate(ScenarioConfig(seed=4, frames=6, identities=3, feature_noise=0.2))
    det_path = tmp_path / "det.txt"
    feat_path = tmp_path / "features.csv"
    write_detections(det_path, list(sc.det_frames))
    write_features(feat_path, list(sc.det_frames))
    frames = attach_features(read_detections(det_path), read_features(feat_path, read_detections(det_path)))
    assert len(frames) == 6
    for orig_frame, parsed_frame in zip(sc.det_frames, frames):
        assert len(orig_frame.detections) == len(parsed_frame.detections)
        for od, pd in zip(orig_frame.detections, parsed_frame.detections):
            assert np.allclose(od.feature.values, pd.feature.values, atol=1e-8)


def test_feature_scaling_leaves_tracker_output_identical(tmp_path):
    # power-of-two scaling is exact in floating point, so normalization on
    # load makes the tracker output bit-identical
    sc = generate(ScenarioConfig(seed=6, frames=15, identities=3, crossings=1, feature_noise=0.1, drop_prob_occluded=0.4))
    det_path = tmp_path / "det.txt"
    feat_path = tmp_path / "features.csv"
    write_detections(det_path, list(sc.det_frames))
    write_features(feat_path, list(sc.det_frames))

    scaled_path = tmp_path / "features_scaled.csv"
    lines = feat_path.read_text().splitlines()
    out_lines = [lines[0]]
    for line in lines[1:]:
        parts = line.split(",")
        scaled = [repr(float(x) * 4.0) for x in parts[2:]]
        out_lines.append(",".join(parts[:2] + scaled))
    scaled_path.write_text("\n".join(out_lines) + "\n")

    params = TrackerParams()

    def run_from(feat_file):
        dets = read_detections(det_path)
        frames = attach_features(dets, read_features(feat_file, dets))
        out = tmp_path / f"res_{feat_file.stem}.txt"
        write_results(out, run_base(frames, params))
        return out.read_bytes()

    assert run_from(feat_path) == run_from(scaled_path)


# Reader fuzzing: any input either parses or raises DataError, never another exception.

_token = st.one_of(
    st.integers(-3, 40).map(str),
    st.floats().map(repr),
    st.sampled_from(["", " ", "nan", "-inf", "1e400", "0x10", "1_0", "-1", "0.9", "१", "1000001", "1000000000"]),
    st.text(max_size=4),
)
_row = st.lists(_token, max_size=11).map(",".join)
_line = st.one_of(_row, st.text(max_size=40))
_text_file = st.lists(_line, max_size=6).map("\n".join).map(lambda t: t.encode("utf-8"))
_any_file = st.one_of(_text_file, st.binary(max_size=200), _text_file.map(lambda b: b + b"\xff\n"))


def _parses_or_data_error(data, read):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.txt")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            read(path)
        except DataError as exc:
            assert str(exc).startswith(path)


@settings(max_examples=150, deadline=None)
@given(_any_file)
def test_fuzz_read_detections(data):
    _parses_or_data_error(data, read_detections)


@settings(max_examples=150, deadline=None)
@given(_any_file)
def test_fuzz_read_gt(data):
    _parses_or_data_error(data, read_gt)


def test_read_gt_sorts_rows_and_reports_the_first_bad_line(tmp_path):
    p = tmp_path / "gt.txt"
    p.write_text("2,1,0,0,5,5\n1,3,1,0,5,5\n\n1,2,2,0,5,5\n")
    assert table_rows(read_gt(p)) == [(1, 2, 2.0, 0.0, 5.0, 5.0), (1, 3, 1.0, 0.0, 5.0, 5.0), (2, 1, 0.0, 0.0, 5.0, 5.0)]
    # line 2 fails three checks and reports the first; line 3 would fail an earlier check than line 2's
    p.write_text("1,1,0,0,5,5\n0,0,0,0,-5,5\n1,1,x,0,5,5\n")
    with pytest.raises(DataError, match=r"gt.txt:2: frame index must be >= 1, got 0$"):
        read_gt(p)
    # a duplicate is reported at its second line, after the checks of the lines before it
    p.write_text("1,1,0,0,5,5\n2,1,0,0,5,5\n1,1,0,0,5,5\n2,1,0,0,5,5\n1,1,0,0,5\n")
    with pytest.raises(DataError, match=r"gt.txt:3: duplicate \(frame, id\) = \(1, 1\)$"):
        read_gt(p)


def test_read_gt_rejects_integers_beyond_64_bits(tmp_path):
    p = tmp_path / "gt.txt"
    p.write_text(f"1,1,0,0,5,5\n{2**63},1,0,0,5,5\n")
    with pytest.raises(DataError, match=f"gt.txt:2: integer {2**63} does not fit in 64 bits"):
        read_gt(p)


# Reader oracle: `read_gt` returns the per-line reader's rows sorted by (frame, id), or raises its DataError.

# Valid fields, some in spellings that Python's int and float accept; then edge values, most of which fail a check.
_key = st.one_of(st.integers(1, 5).map(str), st.sampled_from([" 2", "+3", "0_1", "１"]))
_position = st.one_of(st.floats(-50, 50).map(repr), st.sampled_from(["-0", " 7.5", "2_0", "1e-300"]))
_side = st.one_of(st.floats(0.5, 50).map(repr), st.sampled_from(["1e-170", "1e200", "4_0"]))
_edge = st.sampled_from(["0", "-1", "-0.0", "1e-200", "1e400", "-inf", "nan", "5.5", "1e200"])
_edge_key = st.sampled_from(["0", "-1", "-0", "1.0"])
_gt_row = st.builds(
    lambda keys, position, size, extra: keys + position + size + extra,
    st.lists(_key, min_size=2, max_size=2),
    st.lists(_position, min_size=2, max_size=2),
    st.lists(_side, min_size=2, max_size=2),
    st.lists(_token, max_size=4),
)


@st.composite
def _mostly_valid_file(draw):
    """Valid rows over 25 (frame, id) keys, so duplicates are common; one row may lose fields, be repeated or
    have one or two fields replaced, so that a line can fail two checks at once."""
    rows = draw(st.lists(_gt_row, min_size=1, max_size=8))
    k = draw(st.integers(0, len(rows) - 1))
    action = draw(st.sampled_from(["none", "edge-value", "bad-token", "edge-keys", "drop-fields", "repeat"]))
    if action == "edge-keys":
        rows[k][:2] = draw(st.lists(_edge_key, min_size=2, max_size=2))
    elif action in ("edge-value", "bad-token"):
        for field in draw(st.sets(st.integers(0, 5), min_size=1, max_size=2)):
            rows[k][field] = draw(_edge if action == "edge-value" else _token)
    elif action == "drop-fields":
        rows[k] = rows[k][: draw(st.integers(0, 5))]
    elif action == "repeat":
        rows.insert(draw(st.integers(k + 1, len(rows))), list(rows[k]))
    return "\n".join(",".join(row) for row in rows).encode("utf-8")


@settings(max_examples=400, deadline=None)
@given(st.one_of(_any_file, _mostly_valid_file()))
def test_read_gt_equals_the_per_line_oracle(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "gt.txt")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            expected = oracle_read_gt(path)
        except DataError as exc:
            with pytest.raises(DataError) as got:
                read_gt(path)
            assert str(got.value) == str(exc)
            return
        table = read_gt(path)
    rows = sorted((b.frame, b.id, b.bbox.left, b.bbox.top, b.bbox.width, b.bbox.height) for b in expected)
    assert table_rows(table) == rows
    assert table.boxes.tobytes() == np.array([row[2:] for row in rows], dtype=np.float64).reshape(-1, 4).tobytes()


_FUZZ_DETS = [FrameData(index=1, detections=(Detection(frame=1, bbox=BoundingBox(0, 0, 5, 5), feature=None, confidence=0.9),))]
_header = st.one_of(
    st.integers(-2, 5).map("frame,det,dim={}".format),
    st.sampled_from(["frame,det,dim=", "frame,det,dim=x", "frame,det", ""]),
    st.text(max_size=20),
)


@settings(max_examples=150, deadline=None)
@given(_header, _any_file)
def test_fuzz_read_features(header, body):
    _parses_or_data_error(header.encode("utf-8") + b"\n" + body, lambda path: read_features(path, _FUZZ_DETS))
