import math
import time

import numpy as np
import pytest

from adptrack import base_tracker
from adptrack.appearance import cosine_sim
from adptrack.base_tracker import TrackerParams, run as run_base
from adptrack.core import BoundingBox, Detection, FeatureVec, Sequence, box_array, iou
from adptrack.metrics import LabeledBox
from adptrack.motio import MAX_FRAME_INDEX, DataError, _numbered_lines, _read, write_results
from adptrack.motion import KalmanState, state_to_bbox
from adptrack.rollout import AdpConfig, run as run_adp
from adptrack.synthworld import ScenarioConfig, generate, occlusion_preset


def make_det(left, top, width=10.0, height=10.0, feature=(1.0, 0.0), conf=0.9):
    return Detection(BoundingBox(left, top, width, height), FeatureVec(feature), conf)


def make_seq(frames):
    """A sequence of a {frame index: `Detection`s} dict, whose detections checked each row as they were built,
    stacked once; the frames up to the largest index that the dict leaves out hold no rows."""
    index = sorted(frames)
    dets = [det for f in index for det in frames[f]]
    features = np.array([det.feature.values for det in dets]) if dets else np.zeros((0, 0))
    return Sequence.of_rows(
        np.array([f for f in index for _ in frames[f]], dtype=np.int64),
        box_array(det.bbox for det in dets),
        features,
        np.array([det.confidence for det in dets], dtype=np.float64),
        last=max(index, default=0),
    )


def frame_of(seq, rows):
    """The frame of each of the sequence's `rows`."""
    return np.searchsorted(seq.offsets, rows, side="right")


def last_match(state):
    """The frame of each tracker row's last match: the frame of its `matched` row."""
    return frame_of(state.seq, state.matched)


@pytest.fixture(scope="session")
def preset_base_runs():
    """Each preset scene with its base-mode result rows, tracked once for every test that reads them."""
    scenarios = map(generate, occlusion_preset())
    return [(scenario, run_base(scenario.det_frames, TrackerParams())) for scenario in scenarios]


def equivalence_scenarios():
    """The 100 small scenes on which adp at alpha 0 must write what base mode does."""
    for seed in range(100):
        yield ScenarioConfig(
            seed=seed,
            frames=30,
            identities=4,
            crossings=seed % 3,
            det_noise_px=0.5 if seed % 2 else 0.0,
            feature_noise=0.1,
            drop_prob_occluded=0.6,
            mix_features=True,
        )


@pytest.fixture(scope="session")
def preset_adp_main_runs():
    """Each preset scene with its rows from adp main at horizon 10, and the seconds spent making them.

    Tracked once for the `PRESET_ADP["main"]` digests and the occlusion
    benchmark, which counts those seconds against its budget.
    """
    start = time.perf_counter()
    cfg = AdpConfig(horizon=10)
    runs = [(scenario, run_adp(scenario.det_frames, TrackerParams(), cfg)) for scenario in map(generate, occlusion_preset())]
    return runs, time.perf_counter() - start


@pytest.fixture(scope="session")
def equivalence_runs(tmp_path_factory):
    """The base and adp-at-alpha-0 result file bytes of each equivalence scene, and the seconds spent making them.

    Tracked once for the `EQUIVALENCE_BASE` digest and the base-equivalence
    criterion, which counts those seconds against its budget.
    """
    start = time.perf_counter()
    cfg = AdpConfig(alpha=0.0, horizon=5, cand_iou=0.0, cand_app=-1.0, crowd_ratio=2.0)
    path = tmp_path_factory.mktemp("equivalence") / "res.txt"
    runs = []
    for sc_cfg in equivalence_scenarios():
        seq = generate(sc_cfg).det_frames
        write_results(path, seq, run_base(seq, TrackerParams()))
        base = path.read_bytes()
        write_results(path, seq, run_adp(seq, TrackerParams(), cfg))
        runs.append((base, path.read_bytes()))
    return runs, time.perf_counter() - start


def unit_feature(dim, axis):
    v = np.zeros(dim)
    v[axis] = 1.0
    return FeatureVec(v)


def covariance(state):
    """The 8x8 covariance kron([[pp, pv], [pv, vv]], I4) of a filter state's block."""
    pp, pv, vv = state.block
    return np.kron([[pp, pv], [pv, vv]], np.eye(4))


def forecast_row(state):
    """A scalar filter state as a batched forecast row: its mean followed by its (pp, pv, vv) block."""
    return np.concatenate([state.mean, state.block])


def state_row(state, i):
    """Row i of a tracker state as (forecast, representative feature), the arguments of the scalar oracles.

    The feature holds the row's values as they are: building a FeatureVec from
    them would normalize them again, which can change the last bit.
    """
    rep = object.__new__(FeatureVec)
    object.__setattr__(rep, "values", state.rep[i].copy())
    row = state.forecast[:, i]
    return KalmanState(row[:8], row[8:].tolist()), rep


def fused_similarity(forecast, rep, det):
    """min(IOU of a track's forecast box, gated cosine of its representative feature) for one pair.

    The scalar oracle of `compute_base_weights`, at the gates `base_tracker` holds when it is called.
    """
    overlap, cos = iou(state_to_bbox(forecast), det.bbox), cosine_sim(rep, det.feature)
    gated = max(cos, 0.0) if (cos >= base_tracker._APPEARANCE_GATE and overlap >= base_tracker._IOU_GATE) else 0.0
    return min(overlap, gated)


def rows_to_boxes(seq, rows):
    """A run's (frame, track id, sequence row) rows as `LabeledBox`es of their detections' boxes."""
    boxes = seq.boxes[rows[:, 2]].tolist()
    return [LabeledBox(frame=f, id=tid, bbox=BoundingBox(*box)) for (f, tid, _), box in zip(rows.tolist(), boxes)]


def _data_lines(path):
    for lineno, raw in _numbered_lines(_read(path)):
        line = raw.strip()
        if line:
            yield lineno, line


def detection_rows(frames):
    """A `Sequence` of one 5x5 box per given frame without features, as `read_detections` reads; row j's box has
    left edge j."""
    frames = np.sort(np.asarray(frames, dtype=np.int64))
    boxes = np.array([(j, 0.0, 5.0, 5.0) for j in range(frames.size)]).reshape(-1, 4)
    return Sequence.of_rows(frames, boxes, np.zeros((frames.size, 0)), np.full(frames.size, 0.9))


def oracle_read_detections(path):
    """A detection file as checked rows grouped by frame, read and checked one line at a time.

    The reference for `motio.read_detections`: each line's checks run in order
    (field count, int and float parsing, finiteness, frame range, positive
    size, area underflow, confidence range) and the first failure raises.
    Frame and id are Python ints of any size. The rows come back as a
    `Sequence` without features, frame by frame in increasing order, each
    frame's rows in file order.
    """
    per_frame = {}
    for lineno, line in _data_lines(path):
        def fail(message):
            raise DataError(f"{path}:{lineno}: {message}")

        fields = line.split(",")
        if len(fields) < 7:
            fail(f"expected at least 7 fields, got {len(fields)}")
        try:
            frame = int(fields[0])
            int(fields[1])
            left, top, width, height, conf = [float(x) for x in fields[2:7]]
        except ValueError as exc:
            fail(exc)
        if not all(math.isfinite(x) for x in (left, top, width, height, conf)):
            fail(f"non-finite number in {','.join(fields[2:7])}")
        if not (1 <= frame <= MAX_FRAME_INDEX):
            fail(f"frame index must lie in [1, {MAX_FRAME_INDEX}], got {frame}")
        if width <= 0 or height <= 0:
            fail(f"non-positive box size {width}x{height}")
        if not width * height > 0:
            fail(f"box area {width}x{height} underflows to 0")
        if not (0.0 <= conf <= 1.0):
            fail(f"confidence {conf} outside [0, 1]")
        per_frame.setdefault(frame, []).append((left, top, width, height, conf))
    rows = [(f, row) for f in sorted(per_frame) for row in per_frame[f]]
    return Sequence.of_rows(
        np.array([f for f, _ in rows], dtype=np.int64),
        np.array([row[:4] for _, row in rows], dtype=np.float64).reshape(-1, 4),
        np.zeros((len(rows), 0)),
        np.array([row[4] for _, row in rows], dtype=np.float64),
    )


def oracle_read_features(path, dets):
    """A feature sidecar as a block of unit rows in detection-row order, read and checked one line at a time.

    The reference for `motio.read_features`: the header, then each line's
    checks in order (field count, int and float parsing, duplicate key, the
    FeatureVec checks), then coverage: the smallest missing key, else the
    first row in file order that has no detection, named by its line.
    Frame and detection index are Python ints of any size.
    """
    rows, line_of = {}, {}
    lines = _numbered_lines(_read(path))
    header = next(lines, (1, ""))[1].strip()
    parts = header.split(",")
    if len(parts) != 3 or parts[0] != "frame" or parts[1] != "det" or not parts[2].startswith("dim="):
        raise DataError(f"{path}:1: bad header {header!r}, expected 'frame,det,dim=D'")
    try:
        dim = int(parts[2][4:])
    except ValueError:
        raise DataError(f"{path}:1: bad dimension in header {header!r}") from None
    if dim < 2:
        raise DataError(f"{path}:1: feature dimension must be >= 2, got {dim}")
    for lineno, raw in lines:
        line = raw.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 2 + dim:
            raise DataError(f"{path}:{lineno}: expected {2 + dim} fields, got {len(fields)}")
        try:
            key = (int(fields[0]), int(fields[1]))
            values = [float(x) for x in fields[2:]]
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        if key in rows:
            raise DataError(f"{path}:{lineno}: duplicate feature row for {key}")
        try:
            with np.errstate(over="ignore"):
                rows[key] = FeatureVec(values)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        line_of[key] = lineno

    counts = np.diff(dets.offsets)
    order = [(int(frame) + 1, j) for frame in np.flatnonzero(counts) for j in range(counts[frame])]
    expected = set(order)
    missing = expected - rows.keys()
    if missing:
        frame, det_idx = sorted(missing)[0]
        raise DataError(f"{path}: missing feature row for frame {frame}, detection {det_idx}")
    for (frame, det_idx), lineno in line_of.items():
        if (frame, det_idx) not in expected:
            raise DataError(f"{path}:{lineno}: feature row for nonexistent detection (frame {frame}, index {det_idx})")
    return np.array([rows[key].values for key in order]).reshape(len(order), dim if order else 0)


def oracle_read_gt(path):
    """A ground-truth file as LabeledBoxes in file order, read and checked one line at a time.

    The reference for `motio.read_gt`: each line's checks run in order (field
    count, int and float parsing, finiteness, frame >= 1, id >= 1, positive
    size, area underflow, duplicate (frame, id)) and the first failure raises.
    """
    boxes, seen = [], set()
    for lineno, line in _data_lines(path):
        def fail(message):
            raise DataError(f"{path}:{lineno}: {message}")

        fields = line.split(",")
        if len(fields) < 6:
            fail(f"expected at least 6 fields, got {len(fields)}")
        try:
            frame = int(fields[0])
            obj_id = int(fields[1])
            left, top, width, height = [float(x) for x in fields[2:6]]
        except ValueError as exc:
            fail(exc)
        if not all(math.isfinite(x) for x in (left, top, width, height)):
            fail(f"non-finite number in {','.join(fields[2:6])}")
        if frame < 1:
            fail(f"frame index must be >= 1, got {frame}")
        if obj_id < 1:
            fail(f"object id must be >= 1, got {obj_id}")
        if width <= 0 or height <= 0:
            fail(f"non-positive box size {width}x{height}")
        if not width * height > 0:
            fail(f"box area {width}x{height} underflows to 0")
        if (frame, obj_id) in seen:
            fail(f"duplicate (frame, id) = {(frame, obj_id)}")
        seen.add((frame, obj_id))
        boxes.append(LabeledBox(frame=frame, id=obj_id, bbox=BoundingBox(left, top, width, height)))
    return boxes


def table_rows(table):
    """A BoxTable's rows as (frame, id, left, top, width, height) tuples of Python numbers."""
    return list(zip(table.frames.tolist(), table.ids.tolist(), *table.boxes.T.tolist()))


def count_constructions(monkeypatch, classes):
    """Count, per class, the objects built from here on: by `__init__`, and for `FeatureVec` also by `of_unit_rows`."""
    built = dict.fromkeys(classes, 0)
    for cls in classes:
        def counted(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            built[_cls] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    if FeatureVec in built:
        def of_unit_rows(unit, _wrap=FeatureVec.of_unit_rows):
            vecs = _wrap(unit)
            built[FeatureVec] += len(vecs)
            return vecs

        monkeypatch.setattr(FeatureVec, "of_unit_rows", staticmethod(of_unit_rows))
    return built


def count_calls(monkeypatch, module, name):
    """Route `module.name` through a wrapper that records each call's arguments."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls
