import contextlib
import io
import random
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import count_calls, count_constructions, detection_rows, make_det, make_seq, oracle_read_detections, oracle_read_features, oracle_read_gt, table_rows

from adptrack import cli, core, motio
from adptrack.base_tracker import TrackerParams, run as run_base
from adptrack.core import BoundingBox, Detection
from adptrack.motio import (
    MAX_FRAME_INDEX,
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
from adptrack.synthworld import ScenarioConfig, generate, occlusion_preset


def test_read_detections_single_line(tmp_path):
    p = tmp_path / "det.txt"
    p.write_text("1,-1,10,20,30,40,0.9,-1,-1,-1\n")
    rows = read_detections(p)
    assert rows.offsets.tolist() == [0, 1]
    assert rows.boxes.tolist() == [[10, 20, 30, 40]]
    assert rows.confidences.tolist() == [0.9] and rows.features.shape == (1, 0)
    for column in (rows.offsets, rows.boxes, rows.features, rows.confidences):
        assert not column.flags.writeable


def test_read_detections_empty_file(tmp_path):
    p = tmp_path / "det.txt"
    p.write_text("")
    rows = read_detections(p)
    assert (rows.offsets.tolist(), rows.boxes.shape, rows.confidences.shape) == ([0], (0, 4), (0,))
    seq = attach_features(rows, np.zeros((0, 2)))
    assert seq.last == 0 and list(seq) == []


def test_read_detections_regroups_out_of_order(tmp_path):
    p = tmp_path / "det.txt"
    p.write_text("2,-1,0,0,5,5,0.5\n1,-1,1,0,5,5,0.6\n2,-1,2,0,5,5,0.7\n")
    rows = read_detections(p)
    assert rows.offsets.tolist() == [0, 1, 3]
    assert rows.boxes[:, 0].tolist() == [1, 0, 2]
    assert rows.confidences.tolist() == [0.6, 0.5, 0.7]
    features = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
    seq = attach_features(rows, features)
    frames = list(seq)
    assert [f.index for f in frames] == [1, 2] and seq.offsets is rows.offsets
    assert frames[1].boxes[:, 0].tolist() == [0, 2] and frames[0].boxes[:, 0].tolist() == [1]
    assert frames[1].features.tolist() == [[0.0, 1.0], [0.6, 0.8]] and frames[1].confidences.tolist() == [0.5, 0.7]
    assert [d.bbox.left for d in seq.detections[seq.rows(2)]] == [0, 2]


def test_read_detections_fills_missing_frames(tmp_path):
    p = tmp_path / "det.txt"
    p.write_text("3,-1,0,0,5,5,0.5\n")
    seq = attach_features(read_detections(p), np.array([[1.0, 0.0]]))
    assert [f.index for f in seq] == [1, 2, 3] and seq.offsets.tolist() == [0, 0, 0, 1]
    assert seq.detections[seq.rows(1)] == () and seq.detections[seq.rows(2)] == ()
    assert len(seq.detections[seq.rows(3)]) == 1 and seq.next_busy(1) == 3


def test_empty_frames_share_zero_length_read_only_rows(tmp_path):
    """Rows at frames 1 and 4 leave frames 2 and 3 empty: zero-length, read-only views of the rows' widths, which
    a run jumps over while it holds no track."""
    p, feat = tmp_path / "det.txt", tmp_path / "features.csv"
    p.write_text("4,-1,0,0,5,5,0.5\n1,-1,1,0,5,5,0.6\n")
    feat.write_text("frame,det,dim=3\n4,0,1,0,0\n1,0,0,1,0\n")
    dets = read_detections(p)
    seq = attach_features(dets, read_features(feat, dets))
    frames = list(seq)
    assert [f.index for f in frames] == [1, 2, 3, 4] and seq.offsets.tolist() == [0, 1, 1, 1, 2]
    assert frames[0].features.tolist() == [[0.0, 1.0, 0.0]] and frames[3].features.tolist() == [[1.0, 0.0, 0.0]]
    for frame in frames[1:3]:
        assert (frame.boxes.shape, frame.features.shape, frame.confidences.shape) == ((0, 4), (0, 3), (0,))
        assert seq.detections[seq.rows(frame.index)] == ()
    for frame in frames:
        assert not any(a.flags.writeable for a in (frame.boxes, frame.features, frame.confidences))
    assert [seq.next_busy(f) for f in (1, 2, 3, 4, 5)] == [1, 4, 4, 4, 5]


def test_read_detections_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "det.txt"
    p.write_text("1,-1,10,20,30,40,0.9\n1,-1,botched,20,30,40,0.9\n")
    with pytest.raises(DataError, match="det.txt:2"):
        read_detections(p)
    p.write_text("1,-1,10,20,-3,40,0.9\n")
    with pytest.raises(DataError, match="non-positive"):
        read_detections(p)
    # the largest frame index passes its check, so the error is the next line's
    p.write_text(f"{MAX_FRAME_INDEX},-1,0,0,5,5,0.9\n1,-1,0,0,5,5,1.5\n")
    with pytest.raises(DataError, match=r"det.txt:2: confidence 1.5 outside \[0, 1\]$"):
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
    block = read_features(feat_path, frames)
    assert block.shape == (2, 2) and not block.flags.writeable
    assert np.allclose(block, [[1.0, 0.0], [0.6, 0.8]])
    enriched = attach_features(frames, block)
    assert np.allclose(enriched.detections[1].feature.values, [0.6, 0.8])


def test_read_features_coverage_and_dim_errors(tmp_path):
    det_path = tmp_path / "det.txt"
    det_path.write_text("1,-1,0,0,5,5,0.9\n1,-1,10,0,5,5,0.9\n")
    frames = read_detections(det_path)
    feat_path = tmp_path / "features.csv"

    feat_path.write_text("frame,det,dim=2\n1,0,1,0\n")
    with pytest.raises(DataError, match=r"missing feature row for frame 1, detection 1"):
        read_features(feat_path, frames)

    feat_path.write_text("frame,det,dim=2\n1,0,1,0\n1,1,1,0\n2,0,1,0\n")
    with pytest.raises(DataError, match=r"features.csv:4: feature row for nonexistent detection \(frame 2, index 0\)$"):
        read_features(feat_path, frames)
    # the first extra row in file order is named, not the smallest extra key
    feat_path.write_text("frame,det,dim=2\n3,0,1,0\n1,0,1,0\n\n2,5,1,0\n1,1,1,0\n")
    with pytest.raises(DataError, match=r"features.csv:2: feature row for nonexistent detection \(frame 3, index 0\)$"):
        read_features(feat_path, frames)

    feat_path.write_text("frame,det,dim=3\n1,0,1,0\n")
    with pytest.raises(DataError, match="expected 5 fields"):
        read_features(feat_path, frames)

    feat_path.write_text("frames,det,dim=2\n")
    with pytest.raises(DataError, match="bad header"):
        read_features(feat_path, frames)


@pytest.mark.parametrize("dim", [10**9, 10**20])
def test_read_features_huge_header_dim_is_a_field_count_error(tmp_path, dim):
    """The declared dimension only sets the field count; no per-dimension work is done before it is checked."""
    feat_path = tmp_path / "features.csv"
    feat_path.write_text(f"frame,det,dim={dim}\n1,0,1,0\n")
    with pytest.raises(DataError, match=rf"features.csv:2: expected {2 + dim} fields, got 4$"):
        read_features(feat_path, _FUZZ_DETS)
    feat_path.write_text(f"frame,det,dim={dim}\n")
    assert read_features(feat_path, detection_rows([])).shape == (0, 0)


def test_read_features_rejects_a_norm_beyond_float64(tmp_path):
    """Every value is finite, but the sum of squares is not: the line is named, with no warning on the way."""
    feat_path = tmp_path / "features.csv"
    feat_path.write_text("frame,det,dim=2\n1,0,1.7976931348623157e+308,9.5\n")
    with pytest.raises(DataError, match=r"features.csv:2: feature vector norm overflows float64$"):
        read_features(feat_path, _FUZZ_DETS)


def test_read_features_reports_a_lines_first_failing_field(tmp_path):
    feat_path = tmp_path / "features.csv"
    # line 3 fails at its detection index before its values; line 4 fails only at a value
    feat_path.write_text("frame,det,dim=2\n1,0,1,0\n1,x,y,0\n1,1,z,0\n")
    with pytest.raises(DataError, match=r"features.csv:3: invalid literal for int\(\) with base 10: 'x'$"):
        read_features(feat_path, _FUZZ_DETS)
    feat_path.write_text("frame,det,dim=2\n1,0,1,0\n1,1,1,y\n1,x,0,0\n")
    with pytest.raises(DataError, match=r"features.csv:3: could not convert string to float: 'y'$"):
        read_features(feat_path, _FUZZ_DETS)


@pytest.fixture(scope="module")
def crowd_files(tmp_path_factory):
    """The det and feature files of the crowd scene at seed 9003: 1 435 rows over 72 frames."""
    scenario = generate(replace(occlusion_preset()[0], identities=20, crossings=6, seed=9003))
    crowd = tmp_path_factory.mktemp("crowd")
    det_path, feat_path = crowd / "det.txt", crowd / "features.csv"
    write_detections(det_path, scenario.det_frames)
    write_features(feat_path, scenario.det_frames)
    return det_path, feat_path


def test_loading_builds_no_frame_and_no_detection(crowd_files, monkeypatch):
    """Loading the crowd scene of 1 435 rows builds no per-frame object and no `Detection` or `BoundingBox`: the
    sequence holds the reader's checked row arrays themselves and one offset per frame."""
    det_path, feat_path = crowd_files
    built = count_constructions(monkeypatch, (Detection, BoundingBox))
    monkeypatch.setattr(core.Sequence, "__iter__", lambda seq: pytest.fail("loading iterates the sequence's frames"))
    read = []

    def read_detections(path, _read=cli.read_detections):
        read.append(_read(path))
        return read[-1]

    monkeypatch.setattr(cli, "read_detections", read_detections)
    seq = cli._load_sequence(det_path, feat_path)
    assert built == {Detection: 0, BoundingBox: 0}
    assert seq.boxes is read[0].boxes and seq.confidences is read[0].confidences
    assert len(seq.boxes) == 1435 and seq.last == 72 and seq.offsets.shape == (73,)


def test_loading_normalises_every_feature_in_one_block(crowd_files, monkeypatch):
    """Loading the crowd scene normalises its 1 435 feature rows in one `unit_rows` call and builds no
    `FeatureVec` through its per-vector constructor; the frames slice that one block."""
    blocks = count_calls(monkeypatch, motio, "unit_rows")
    vectors = count_calls(monkeypatch, core, "unit_rows")  # `FeatureVec.__init__` normalises through it
    seq = cli._load_sequence(*crowd_files)
    assert [block.shape for block, in blocks] == [(1435, 16)]
    assert vectors == []
    assert len({id(f.features.base) for f in seq}) == 1


def test_frame_detections_view_equals_the_frame_rows(tmp_path):
    """A preset scene written to files and read back: each frame's `detections` view holds row j of the frame's
    arrays bit for bit, so the scalar oracles read the numbers the array path reads."""
    scenario = generate(occlusion_preset()[0])
    det_path, feat_path = tmp_path / "det.txt", tmp_path / "features.csv"
    write_detections(det_path, scenario.det_frames)
    write_features(feat_path, scenario.det_frames)
    seq = cli._load_sequence(det_path, feat_path)
    assert seq.last == 72 and len(seq.boxes) > 300 and seq.detections is seq.detections
    for frame in seq:
        dets = seq.detections[seq.rows(frame.index)]
        assert len(dets) == len(frame.boxes)
        for j, det in enumerate(dets):
            b = det.bbox
            assert np.array([b.left, b.top, b.width, b.height]).tobytes() == frame.boxes[j].tobytes()
            assert det.feature.values.tobytes() == frame.features[j].tobytes()
            assert np.float64(det.confidence).tobytes() == frame.confidences[j].tobytes()
        overlaps = [[core.iou(a.bbox, b.bbox) for b in dets] for a in dets]
        assert np.array_equal(core.iou_matrix(frame.boxes, frame.boxes), np.reshape(overlaps, (len(dets), len(dets))))


def test_write_results_sorting_and_roundtrip(tmp_path):
    seq = make_seq({
        1: [make_det(0, 0), make_det(5, 5)],
        2: [make_det(0.123456789, 4, width=11.5, height=20.25, conf=0.875)],
    })
    rows = [(2, 1, 2), (1, 2, 1), (1, 1, 0)]
    out = tmp_path / "res.txt"
    write_results(out, seq, rows)
    lines = out.read_text().splitlines()
    assert [l.split(",")[:2] for l in lines] == [["1", "1"], ["1", "2"], ["2", "1"]]

    parsed = read_gt(out)
    assert parsed.boxes[2, 0] == pytest.approx(0.123456789, abs=1e-6)
    assert parsed.boxes[2, 3] == 20.25


def test_write_results_empty(tmp_path):
    out = tmp_path / "res.txt"
    write_results(out, make_seq({1: []}), [])
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
    write_detections(det_path, sc.det_frames)
    write_features(feat_path, sc.det_frames)
    seq = attach_features(read_detections(det_path), read_features(feat_path, read_detections(det_path)))
    assert seq.last == 6 and np.array_equal(seq.offsets, sc.det_frames.offsets)
    for od, pd in zip(sc.det_frames.detections, seq.detections, strict=True):
        assert np.allclose(od.feature.values, pd.feature.values, atol=1e-8)


def test_feature_scaling_leaves_tracker_output_identical(tmp_path):
    # power-of-two scaling is exact in floating point, so normalization on
    # load makes the tracker output bit-identical
    sc = generate(ScenarioConfig(seed=6, frames=15, identities=3, crossings=1, feature_noise=0.1, drop_prob_occluded=0.4))
    det_path = tmp_path / "det.txt"
    feat_path = tmp_path / "features.csv"
    write_detections(det_path, sc.det_frames)
    write_features(feat_path, sc.det_frames)

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
        seq = attach_features(dets, read_features(feat_file, dets))
        out = tmp_path / f"res_{feat_file.stem}.txt"
        write_results(out, seq, run_base(seq, params))
        return out.read_bytes()

    assert run_from(feat_path) == run_from(scaled_path)


# Reader fuzzing: any input either parses or raises DataError, never another exception.

# Rows and fields come from fixed pools of texts, so that each is one choice, and every strategy is built once,
# here: drawing the examples, not reading the files, is most of these tests' time.
_TOKENS = [str(i) for i in range(-3, 41)] + [
    "", " ", "nan", "-inf", "inf", "1e400", "0x10", "1_0", "0.9", "0.5", "-0.0", "0.1", "-2.5", "1e-05",
    "3.141592653589793", "5e-324", "1e-170", "2.2250738585072014e-308", "1.7976931348623157e+308", "1000000", "1000001",
    "1000000000", "9223372036854775808", "१", "１", "x", "\x00", "\x1c", "\u2028", "\r", "é", "1 2", "+", ".",
]
_token = st.sampled_from(_TOKENS)


def _token_rows(count):
    """`count` fixed rows of 0 to 11 tokens each."""
    rnd = random.Random(0)
    return [",".join(rnd.choices(_TOKENS, k=rnd.randint(0, 11))) for _ in range(count)]


_row = st.sampled_from(_token_rows(4096))
_line = st.one_of(_row, st.text(max_size=40))
_text_file = st.lists(_line, max_size=6).map("\n".join).map(lambda t: t.encode("utf-8"))
_any_file = st.one_of(_text_file, st.binary(max_size=200), _text_file.map(lambda b: b + b"\xff\n"))


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    """One file that the fuzz and oracle tests rewrite for each example."""
    return str(tmp_path_factory.mktemp("readers") / "input.txt")


def _parses_or_data_error(path, data, read):
    with open(path, "wb") as fh:
        fh.write(data)
    try:
        read(path)
    except DataError as exc:
        assert str(exc).startswith(path)


@settings(max_examples=150, deadline=None)
@given(_any_file)
def test_fuzz_read_detections(input_path, data):
    _parses_or_data_error(input_path, data, read_detections)


@settings(max_examples=150, deadline=None)
@given(_any_file)
def test_fuzz_read_gt(input_path, data):
    _parses_or_data_error(input_path, data, read_gt)


_FUZZ_DETS = detection_rows([1])
_header = st.one_of(
    st.integers(-2, 5).map("frame,det,dim={}".format),
    st.sampled_from(["frame,det,dim=", "frame,det,dim=x", "frame,det", "", "frame,det,dim=1000000000", f"frame,det,dim={10**20}"]),
    st.text(max_size=20),
)
_any_features = st.builds(lambda header, body: header.encode("utf-8") + b"\n" + body, _header, _any_file)


@settings(max_examples=150, deadline=None)
@given(_any_features)
def test_fuzz_read_features(input_path, data):
    _parses_or_data_error(input_path, data, lambda path: read_features(path, _FUZZ_DETS))


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


# Reader oracles: each column reader returns what its per-line reader in conftest.py does, or raises its
# DataError. The one difference allowed: a frame, id or detection index beyond 64 bits is rejected at its
# line, where the per-line readers keep Python ints of any size. The files are mostly valid: rows of valid
# fields, two of them varied, most often into rows of which several fields fail a check.


def _numbers(low, high, *spellings):
    """Twenty fixed floats in [low, high], then `spellings`, as one-text entries for `_row_pool`."""
    rnd = random.Random(f"{low},{high}")
    return [(x,) for x in [repr(rnd.uniform(low, high)) for _ in range(20)] + list(spellings)]


def _texts(*texts):
    return [(x,) for x in texts]


def _row_pool(*fields, edges=()):
    """Rows that take one entry, a tuple of texts, from each of `fields`, or one time in three from the field's
    `edges` if it has any; 512 are chosen with a fixed seed."""
    rnd = random.Random(0)
    edges = list(edges) + [[]] * (len(fields) - len(edges))

    def entry(field, edge):
        return rnd.choice(edge if edge and rnd.random() < 1 / 3 else field)

    return st.sampled_from([tuple(x for f, e in zip(fields, edges) for x in entry(f, e)) for _ in range(512)])


# Valid fields, some in spellings that Python's int and float accept; then edge values, most of which fail a check.
_KEY = _texts("1", "2", "3", "4", "5", " 2", "+3", "0_1", "１")
_POSITION = _numbers(-50, 50, "-0", "0.0", " 7.5", "2_0", "1e-300", "-50.0")
_SIDE = _numbers(0.5, 50, "0.5", "50.0", "1e-170", "1e200", "4_0")
_CONF = _numbers(0, 1, "1", "0", " 0.5", "1e-300")
_VALUE = _numbers(-10, 10, "-0", " 1.5", "1_0", "1e-300")
_TAIL = [(), ("-1", "-1", "-1"), ("1", "1", "1"), ("0.5",), ("x", ""), ("nan",)]
_WIDE_INTS = ["9223372036854775807", "9223372036854775808", "-9223372036854775809", "18446744073709551616"]
_EDGE_KEY = _texts("0", "-1", "-0", "1.0", "x", "1000001", *_WIDE_INTS)
_GT_EDGE = _texts("0", "-1", "-0.0", "1e-200", "1e400", "-inf", "nan", "5.5", "1e200")
_DET_EDGE = _texts("0", "-1", "-0.0", "1e-200", "1e400", "-inf", "nan", "1.5", "-0.1", "1.0000001", "-1e-300")
_FEATURE_EDGE = _texts("nan", "inf", "1e400", "-inf", "0", "x", "", "1e", "0x1")
_action = st.sampled_from(["none", "edge-row", "bad-token", "drop-fields", "repeat", "repeat-edge"])
_index = st.integers(0, 11)  # taken modulo a row count or width
_two = st.tuples(_index, _index)  # two fields, or one if they coincide


def _vary(draw, rows, edge_rows, width):
    """One row of `rows` (lists of `width` fields and a tail) may be replaced by one of `edge_rows`, get bad
    tokens, lose fields or be repeated; a repeat may take the edge row's values, keeping its keys, so that a
    duplicate fails a check of its own as well."""
    k = draw(_index) % len(rows)
    action = draw(_action)
    if action.startswith("repeat"):  # the copy goes after the row and is the one varied
        copy = k + 1 + draw(_index) % (len(rows) - k)
        rows.insert(copy, list(rows[k]))
        k = copy
    if action == "edge-row":
        rows[k] = list(draw(edge_rows))
    elif action == "repeat-edge":
        rows[k][2:] = draw(edge_rows)[2:]
    elif action == "bad-token":
        for field in {i % width for i in draw(_two)} & set(range(len(rows[k]))):  # a row may have lost fields
            rows[k][field] = draw(_token)
    elif action == "drop-fields":
        rows[k] = rows[k][: draw(_index) % width]


_GT_FIELDS = (_KEY, _KEY, _POSITION, _POSITION, _SIDE, _SIDE, _TAIL)
_gt_rows = st.lists(_row_pool(*_GT_FIELDS), min_size=1, max_size=8)
_gt_edge_rows = _row_pool(*_GT_FIELDS, edges=[_EDGE_KEY] * 2 + [_GT_EDGE] * 4)
_DET_FIELDS = (_KEY, _texts("-1", "3", " 2"), _POSITION, _POSITION, _SIDE, _SIDE, _CONF, _TAIL)
_det_rows = st.lists(_row_pool(*_DET_FIELDS), min_size=1, max_size=6)
_det_edge_rows = _row_pool(*_DET_FIELDS, edges=[_EDGE_KEY] * 2 + [_DET_EDGE] * 5)


def _text(rows):
    return "\n".join(",".join(row) for row in rows).encode("utf-8")


@st.composite
def _mostly_valid_gt(draw):
    """Valid rows over 25 (frame, id) keys, so duplicates are common; then two rows varied."""
    rows = list(map(list, draw(_gt_rows)))
    for _ in range(2):
        _vary(draw, rows, _gt_edge_rows, 6)
    return _text(rows)


@st.composite
def _mostly_valid_dets(draw):
    """Valid rows, then two varied."""
    rows = list(map(list, draw(_det_rows)))
    for _ in range(2):
        _vary(draw, rows, _det_edge_rows, 7)
    return _text(rows)


_counts = st.lists(st.integers(0, 3), min_size=1, max_size=3)
_dim = st.sampled_from([2, 3, 4])
_vectors = {dim: _row_pool(*[_VALUE] * dim) for dim in (2, 3, 4)}
_FEATURE_KEY = _texts("0", "1", "2", "3")
_feature_edge_rows = {
    dim: _row_pool(_FEATURE_KEY, _FEATURE_KEY, *[_VALUE] * dim, edges=[_EDGE_KEY] * 2 + [_FEATURE_EDGE] * dim)
    for dim in (2, 3, 4)
}
_coverage = st.sampled_from(["none", "none", "drop-row", "extra-rows"])
_extra_keys = st.lists(st.tuples(st.integers(-1, 4), st.integers(-1, 4)), min_size=1, max_size=2)
_shape = st.sampled_from(["none", "vary", "vary", "vary", "zero", "extra-field"])


@st.composite
def _mostly_valid_features(draw):
    """A feature file over the detections of up to 3 frames, rows in any order, and the detections.

    One row may be dropped, or one or two with random keys (mostly for no detection) added; then two rows may
    be varied as in `_vary`, or one have all its values zeroed or get one field too many."""
    counts = draw(_counts)
    dets = detection_rows([f for f, n in enumerate(counts, start=1) for _ in range(n)])
    dim = draw(_dim)
    keys = draw(st.permutations([(f, j) for f, n in enumerate(counts, start=1) for j in range(n)]))
    rows = [[str(f), str(j), *draw(_vectors[dim])] for f, j in keys]
    coverage = draw(_coverage)
    if coverage == "drop-row" and rows:
        rows.pop(draw(_index) % len(rows))
    elif coverage == "extra-rows":
        for frame, det in draw(_extra_keys):
            rows.insert(draw(_index) % (len(rows) + 1), [str(frame), str(det)] + ["1"] * dim)
    if rows:
        shape = draw(_shape)
        if shape == "zero":
            rows[draw(_index) % len(rows)][2:] = ["0.0"] * dim
        elif shape == "extra-field":
            rows[draw(_index) % len(rows)].append("1")
        elif shape == "vary":
            for _ in range(2):
                _vary(draw, rows, _feature_edge_rows[dim], 2 + dim)
    return f"frame,det,dim={dim}\n".encode("utf-8") + _text(rows), dets


def _rows_content(rows):
    """Each array of a `Sequence` as its dtype, shape, writeable flag and bytes."""
    return [(c.dtype.str, c.shape, c.flags.writeable, c.tobytes()) for c in (rows.offsets, rows.boxes, rows.features, rows.confidences)]


def _outcome(read, path):
    try:
        return read(path)
    except DataError as exc:
        return exc


def _ints(texts):
    values = []
    for text in texts:
        with contextlib.suppress(ValueError):
            values.append(int(text))
    return values


def _assert_matches_oracle(path, data, read, oracle, content, may_fail_after_rows=None):
    """`read` of `data`, written to `path`, returns what `oracle` does (compared by `content`) or raises its DataError.

    The exception: `read` rejects an integer beyond 64 bits at its line. That line must hold the integer as
    its frame, id or detection index, and `oracle` must accept every line before it, failing at most with a
    message `may_fail_after_rows` matches (the checks that run once all rows are read).
    """
    with open(path, "wb") as fh:
        fh.write(data)
    got, expected = _outcome(read, path), _outcome(oracle, path)
    wide = re.fullmatch(r"(.*):(\d+): integer (-?\d+) does not fit in 64 bits", str(got), re.DOTALL)
    if isinstance(got, DataError) and wide:
        assert wide[1] == path
        lineno, value = int(wide[2]), int(wide[3])
        assert not -(2**63) <= value < 2**63
        lines = io.StringIO(data.decode("utf-8"), newline=None).readlines()
        assert value in _ints(lines[lineno - 1].strip().split(",")[:2])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(lines[: lineno - 1]))
        before = _outcome(oracle, path)
        if isinstance(before, DataError):
            assert may_fail_after_rows and re.search(may_fail_after_rows, str(before)), before
        return
    if isinstance(expected, DataError):
        assert isinstance(got, DataError) and str(got) == str(expected)
    else:
        assert not isinstance(got, DataError), got
        assert content(got) == content(expected)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_any_file, _mostly_valid_gt()))
def test_read_gt_equals_the_per_line_oracle(input_path, data):
    """`read_gt` returns the per-line reader's rows sorted by (frame, id); `repr` tells -0.0 from 0.0."""
    _assert_matches_oracle(
        input_path,
        data,
        lambda path: table_rows(read_gt(path)),
        lambda path: sorted((b.frame, b.id, b.bbox.left, b.bbox.top, b.bbox.width, b.bbox.height) for b in oracle_read_gt(path)),
        repr,
    )


@settings(max_examples=400, deadline=None)
@given(st.one_of(_any_file, _mostly_valid_dets()))
def test_read_detections_equals_the_per_line_oracle(input_path, data):
    _assert_matches_oracle(input_path, data, read_detections, oracle_read_detections, _rows_content)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.tuples(_any_features, st.just(_FUZZ_DETS)), _mostly_valid_features()))
def test_read_features_equals_the_per_line_oracle(input_path, case):
    data, dets = case
    _assert_matches_oracle(
        input_path,
        data,
        lambda path: read_features(path, dets),
        lambda path: oracle_read_features(path, dets),
        lambda block: (block.shape, block.tobytes()),
        may_fail_after_rows="missing feature row|nonexistent detection",
    )


def test_integers_beyond_64_bits_are_the_one_difference_from_the_oracles(tmp_path):
    """The per-line readers accept such a key; the column readers reject its line, and the oracle check allows it."""
    det = tmp_path / "det.txt"
    det.write_text(f"1,-1,0,0,5,5,0.9\n2,{2**64},0,0,5,5,0.9\n")
    assert len(oracle_read_detections(det).boxes) == 2
    with pytest.raises(DataError, match=rf"det.txt:2: integer {2**64} does not fit in 64 bits$"):
        read_detections(det)
    path = str(tmp_path / "input.txt")
    _assert_matches_oracle(path, det.read_bytes(), read_detections, oracle_read_detections, _rows_content)
    features = tmp_path / "features.csv"
    features.write_text(f"frame,det,dim=2\n1,0,1,0\n{-(2**63) - 1},0,1,0\n")
    with pytest.raises(DataError, match=r"features.csv:3: feature row for nonexistent detection"):
        oracle_read_features(features, _FUZZ_DETS)
    with pytest.raises(DataError, match=rf"features.csv:3: integer {-(2**63) - 1} does not fit in 64 bits$"):
        read_features(features, _FUZZ_DETS)
    _assert_matches_oracle(
        path,
        features.read_bytes(),
        lambda path: read_features(path, _FUZZ_DETS),
        lambda path: oracle_read_features(path, _FUZZ_DETS),
        None,
        may_fail_after_rows="nonexistent detection",
    )


# The one-pass parse: plain ASCII files are parsed by `np.loadtxt`; any other file, or one it rejects, takes the
# per-field reader (`motio._column`). Either way a reader returns what its per-line oracle does.


def _gt_table_rows(path):
    return table_rows(read_gt(path))


def _oracle_gt_rows(path):
    return sorted((b.frame, b.id, b.bbox.left, b.bbox.top, b.bbox.width, b.bbox.height) for b in oracle_read_gt(path))


_TWO_FRAMES = detection_rows([1, 2])
_CLEAN = {  # per reader: a clean file's lines, the reader, its oracle and how their results compare
    "det": (["1,-1,10,20,30,40,0.9,-1,-1,-1", "2,-1,11,20,30,40,0.8"], read_detections, oracle_read_detections, _rows_content),
    "gt": (["1,1,10,20,30,40,1,1,1", "2,1,11,20,30,40,1,1,1"], _gt_table_rows, _oracle_gt_rows, repr),
    "features": (
        ["frame,det,dim=2", "1,0,1,0", "2,0,0.6,0.8"],
        lambda path: read_features(path, _TWO_FRAMES),
        lambda path: oracle_read_features(path, _TWO_FRAMES),
        lambda block: (block.shape, block.tobytes()),
    ),
}


def _spell_first_key(lines, key):
    """`lines` with the first data line's first field, frame 1, spelt `key`."""
    at = 1 if lines[0].startswith("frame,") else 0
    return lines[:at] + [key + lines[at][1:]] + lines[at + 1 :]


_VARIANTS = {  # a clean file's text from its lines, and whether the per-field reader parses it
    "lf": (lambda lines: "\n".join(lines) + "\n", False),
    "crlf": (lambda lines: "\r\n".join(lines) + "\r\n", False),
    "underscore key": (lambda lines: "\n".join(_spell_first_key(lines, "0_1")), True),
    "fullwidth key": (lambda lines: "\n".join(_spell_first_key(lines, "１")), True),
    "whitespace-only line": (lambda lines: "\n".join(lines[:-1] + [" \t", lines[-1]]), True),
    # Python's `int` rejects the field, where numpy's parser would skip the separator as whitespace.
    "separator in a field": (lambda lines: "\n".join(lines[:-1] + [lines[-1].replace(",", ",\x1c", 1)]), True),
}


@pytest.mark.parametrize("reader", sorted(_CLEAN))
@pytest.mark.parametrize("variant", list(_VARIANTS))
def test_only_files_the_one_pass_parse_rejects_take_the_per_field_reader(tmp_path, monkeypatch, reader, variant):
    """A clean ASCII file, with either line ending, is parsed without the per-field reader. A key spelt as only
    Python's `int` accepts it (`0_1`, a fullwidth `１`), a whitespace-only line or an ASCII separator inside a
    field sends the file to it. Either way the reader returns what its oracle does, or raises its DataError."""
    lines, read, oracle, content = _CLEAN[reader]
    text, per_field = _VARIANTS[variant]
    columns = count_calls(monkeypatch, motio, "_column")
    _assert_matches_oracle(str(tmp_path / f"{reader}.txt"), text(lines).encode("utf-8"), read, oracle, content)
    assert bool(columns) == per_field


@pytest.mark.parametrize("reader", sorted(_CLEAN))
def test_a_code_point_past_ascii_in_an_int_field_is_a_data_error(tmp_path, reader):
    """numpy 2.4's `loadtxt` crashes the process on such a code point in an int64 field; only ASCII files reach
    it, so the per-field reader names the line, the first data line (the header is the sidecar's line 1)."""
    lines, read, _, _ = _CLEAN[reader]
    path = tmp_path / f"{reader}.txt"
    path.write_text("\n".join(_spell_first_key(lines, "\U000f0000")) + "\n", encoding="utf-8")
    lineno = 2 if reader == "features" else 1
    with pytest.raises(DataError, match=rf"{reader}.txt:{lineno}: invalid literal for int\(\) with base 10: '\\U000f0000'$"):
        read(path)


def test_a_wide_sidecar_is_read_within_six_times_its_block(tmp_path):
    """3 000 rows of 512 values: the one-pass parse holds the file's bytes and a few blocks at once, not a Python
    float per value. `tracemalloc` counts allocations, not time, so the bound does not depend on the host."""
    rows, dim = 3000, 512
    features = np.random.default_rng(5).standard_normal((rows, dim))
    dets = detection_rows(np.repeat(np.arange(1, rows // 20 + 1), 20))
    path = tmp_path / "features.csv"
    write_features(path, attach_features(dets, features))
    tracemalloc.start()
    try:
        block = read_features(path, dets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block.shape == (rows, dim)
    assert peak <= 6 * block.nbytes, f"peak {peak / block.nbytes:.1f}x the block"
