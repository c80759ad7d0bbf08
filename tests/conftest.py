import math

import numpy as np

from adptrack.core import BoundingBox, Detection, FeatureVec, FrameData
from adptrack.metrics import LabeledBox
from adptrack.motio import MAX_FRAME_INDEX, DataError, FeatureTable, _numbered_lines
from adptrack.motion import KalmanState


def make_det(frame, left, top, width=10.0, height=10.0, feature=(1.0, 0.0), conf=0.9):
    return Detection(
        frame=frame,
        bbox=BoundingBox(left, top, width, height),
        feature=FeatureVec(feature),
        confidence=conf,
    )


def make_frame(index, dets):
    return FrameData(index=index, detections=tuple(dets))


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
    row = state.forecast[i]
    return KalmanState(row[:8], row[8:].tolist()), rep


def rows_to_boxes(rows):
    return [LabeledBox(frame=f, id=tid, bbox=det.bbox) for f, tid, det in rows]


def _data_lines(path):
    for lineno, raw in _numbered_lines(path):
        line = raw.strip()
        if line:
            yield lineno, line


def oracle_read_detections(path):
    """A detection file as per-frame data, read and checked one line at a time.

    The reference for `motio.read_detections`: each line's checks run in order
    (field count, int and float parsing, finiteness, frame range, positive
    size, area underflow, confidence range) and the first failure raises.
    Frame and id are Python ints of any size.
    """
    per_frame, max_frame = {}, 0
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
        det = Detection(frame=frame, bbox=BoundingBox(left, top, width, height), feature=None, confidence=conf)
        per_frame.setdefault(frame, []).append(det)
        max_frame = max(max_frame, frame)
    return [FrameData(index=f, detections=tuple(per_frame.get(f, ()))) for f in range(1, max_frame + 1)]


def oracle_read_features(path, dets):
    """A feature sidecar as a FeatureTable, read and checked one line at a time.

    The reference for `motio.read_features`: the header, then each line's
    checks in order (field count, int and float parsing, duplicate key, the
    FeatureVec checks), then coverage: the smallest missing key, else the
    first row in file order that has no detection, named by its line.
    Frame and detection index are Python ints of any size.
    """
    rows, line_of = {}, {}
    lines = _numbered_lines(path)
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

    expected = {(f.index, j) for f in dets for j in range(len(f.detections))}
    missing = expected - rows.keys()
    if missing:
        frame, det_idx = sorted(missing)[0]
        raise DataError(f"{path}: missing feature row for frame {frame}, detection {det_idx}")
    for (frame, det_idx), lineno in line_of.items():
        if (frame, det_idx) not in expected:
            raise DataError(f"{path}:{lineno}: feature row for nonexistent detection (frame {frame}, index {det_idx})")
    return FeatureTable(dim=dim, rows=rows)


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


def count_calls(monkeypatch, module, name):
    """Route `module.name` through a wrapper that records each call's arguments."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls
