"""MOTChallenge-style text I/O plus a CSV sidecar for appearance features.

Detection and ground-truth files use the usual comma-separated rows
``frame,id,left,top,width,height,conf[,...]``. Features travel in a separate
CSV keyed by (frame, detection index within frame); vectors are normalized on
load, so any positive rescaling of the raw file leaves downstream cosine
computations unchanged. A ground-truth or result file is read once into a
`metrics.BoxTable`. Result files are written with 6 significant digits and
a fixed sort order so reruns are byte-comparable.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .core import BoundingBox, Detection, FeatureVec, FrameData
from .metrics import BoxTable, LabeledBox

__all__ = [
    "DataError",
    "MAX_FRAME_INDEX",
    "FeatureTable",
    "read_detections",
    "read_gt",
    "read_features",
    "attach_features",
    "write_results",
    "write_detections",
    "write_gt",
    "write_features",
]


# `read_detections` returns one frame per index up to the largest, so an
# index this far past any real sequence (over 9 hours at 30 fps) would only
# build empty frames; it is rejected instead.
MAX_FRAME_INDEX = 1_000_000


class DataError(ValueError):
    """Malformed or inconsistent input data."""


@dataclass(frozen=True, eq=False)
class FeatureTable:
    """Feature vectors keyed by (frame, detection index within frame)."""

    dim: int
    rows: dict[tuple[int, int], FeatureVec]


def _parse_fields(path, lineno, line, minimum):
    fields = line.split(",")
    if len(fields) < minimum:
        raise DataError(f"{path}:{lineno}: expected at least {minimum} fields, got {len(fields)}")
    try:
        frame = int(fields[0])
        obj_id = int(fields[1])
        numbers = [float(x) for x in fields[2:minimum]]
    except ValueError as exc:
        raise DataError(f"{path}:{lineno}: {exc}") from None
    if not all(math.isfinite(x) for x in numbers):
        raise DataError(f"{path}:{lineno}: non-finite number in {','.join(fields[2:minimum])}")
    return frame, obj_id, numbers


def _box_size_error(width, height):
    if width <= 0 or height <= 0:
        return f"non-positive box size {width}x{height}"
    # Overlap divides by areas; sides too small for their product to be a
    # positive float would divide by zero there.
    if not width * height > 0:
        return f"box area {width}x{height} underflows to 0"


def _numbered_lines(path):
    """(line number, line) pairs of a UTF-8 text file; undecodable bytes raise a DataError naming their line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The bytes before the bad one decode; count the lines they start.
        lineno = len(io.StringIO(data[: exc.start].decode("utf-8") + "x", newline=None).readlines())
        raise DataError(f"{path}:{lineno}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return enumerate(io.StringIO(text, newline=None), start=1)


def _data_lines(path):
    for lineno, raw in _numbered_lines(path):
        line = raw.strip()
        if line:
            yield lineno, line


def read_detections(path) -> list[FrameData]:
    """Parse a detection file into per-frame data (features not yet attached).

    Rows are grouped by frame preserving file order within each frame; frames
    absent from the file come back empty so indices stay contiguous from 1.
    Frame indices above `MAX_FRAME_INDEX`, and boxes whose area is not a
    positive float, raise a `DataError`.
    """
    per_frame: dict[int, list[Detection]] = {}
    max_frame = 0
    for lineno, line in _data_lines(path):
        frame, _, nums = _parse_fields(path, lineno, line, 7)
        left, top, width, height, conf = nums[0], nums[1], nums[2], nums[3], nums[4]
        if not (1 <= frame <= MAX_FRAME_INDEX):
            raise DataError(f"{path}:{lineno}: frame index must lie in [1, {MAX_FRAME_INDEX}], got {frame}")
        if (error := _box_size_error(width, height)) is not None:
            raise DataError(f"{path}:{lineno}: {error}")
        if not (0.0 <= conf <= 1.0):
            raise DataError(f"{path}:{lineno}: confidence {conf} outside [0, 1]")
        det = Detection(frame=frame, bbox=BoundingBox(left, top, width, height), feature=None, confidence=conf)
        per_frame.setdefault(frame, []).append(det)
        max_frame = max(max_frame, frame)
    return [
        FrameData(index=f, detections=tuple(per_frame.get(f, ())))
        for f in range(1, max_frame + 1)
    ]


def _column(texts, kind):
    """`kind` (int or float) of each text as an array up to the first failure, its row (none or one) and message."""
    dtype = np.int64 if kind is int else np.float64
    try:
        return np.array(list(map(kind, texts)), dtype=dtype), [], None
    except (ValueError, OverflowError):  # a text `kind` rejects, or an int beyond int64
        for row, text in enumerate(texts):
            try:
                np.array(kind(text), dtype=dtype)
            except (ValueError, OverflowError) as exc:
                message = str(exc) if isinstance(exc, ValueError) else f"integer {kind(text)} does not fit in 64 bits"
                return np.array(list(map(kind, texts[:row])), dtype=dtype), [row], message


def read_gt(path) -> BoxTable:
    """Read a ground-truth (or result) file in one pass into a `BoxTable`; columns past the box are ignored.

    A line needs at least 6 fields, parsed by Python's `int` (frame, id) and `float` (box), all finite, frame
    and id >= 1, a box whose area is a positive float, and a (frame, id) no earlier line has. Each check runs
    on all rows at once; the first bad line (a duplicate's second) raises for its first failing check.
    """
    lines = list(_data_lines(path))
    rows = [line.split(",", 6) for _, line in lines]  # the six fields read, then the rest of the line
    stop, error = len(rows), None  # the first bad row so far, and its message

    def check(failing, message):
        nonlocal stop, error
        first = min(map(int, failing), default=stop)
        if first < stop:
            stop, error = first, message(first)

    check(np.flatnonzero([len(r) < 6 for r in rows]), lambda i: f"expected at least 6 fields, got {len(rows[i])}")
    columns = [_column([r[k] for r in rows[:stop]], int if k < 2 else float) for k in range(6)]
    for _, failed, message in columns:
        check(failed, lambda i: message)
    frames, ids, left, top, width, height = (values[:stop] for values, _, _ in columns)
    boxes = np.stack([left, top, width, height], axis=1)
    check(np.flatnonzero(~np.isfinite(boxes).all(axis=1)), lambda i: f"non-finite number in {','.join(rows[i][2:6])}")
    check(np.flatnonzero(frames < 1), lambda i: f"frame index must be >= 1, got {int(frames[i])}")
    check(np.flatnonzero(ids < 1), lambda i: f"object id must be >= 1, got {int(ids[i])}")
    with np.errstate(over="ignore", invalid="ignore"):
        small = ~((width > 0) & (height > 0) & (width * height > 0))
    check(np.flatnonzero(small), lambda i: _box_size_error(float(width[i]), float(height[i])))
    order = np.lexsort((ids[:stop], frames[:stop]))
    again = (frames[order][1:] == frames[order][:-1]) & (ids[order][1:] == ids[order][:-1])
    check(order[1:][again], lambda i: f"duplicate (frame, id) = {(int(frames[i]), int(ids[i]))}")
    if error is not None:
        raise DataError(f"{path}:{lines[stop][0]}: {error}")
    return BoxTable(frames, ids, boxes)


def read_features(path, dets: list[FrameData]) -> FeatureTable:
    """Parse the feature sidecar and validate coverage against detections."""
    rows: dict[tuple[int, int], FeatureVec] = {}
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
            frame = int(fields[0])
            det_idx = int(fields[1])
            values = [float(x) for x in fields[2:]]
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        key = (frame, det_idx)
        if key in rows:
            raise DataError(f"{path}:{lineno}: duplicate feature row for {key}")
        try:
            rows[key] = FeatureVec(values)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None

    expected = {(f.index, j) for f in dets for j in range(len(f.detections))}
    missing = expected - rows.keys()
    if missing:
        frame, det_idx = sorted(missing)[0]
        raise DataError(f"{path}: missing feature row for frame {frame}, detection {det_idx}")
    extra = rows.keys() - expected
    if extra:
        frame, det_idx = sorted(extra)[0]
        raise DataError(f"{path}: feature row for nonexistent detection (frame {frame}, index {det_idx})")
    return FeatureTable(dim=dim, rows=rows)


def attach_features(dets: list[FrameData], table: FeatureTable) -> list[FrameData]:
    """Detections re-built with their sidecar features attached."""
    frames = []
    for f in dets:
        enriched = tuple(
            Detection(frame=d.frame, bbox=d.bbox, feature=table.rows[(f.index, j)], confidence=d.confidence)
            for j, d in enumerate(f.detections)
        )
        frames.append(FrameData(index=f.index, detections=enriched))
    return frames


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def write_results(path, assignments) -> None:
    """Write tracker output rows (frame, track id, detection), MOT result format."""
    rows = sorted(assignments, key=lambda r: (r[0], r[1]))
    with open(path, "w", encoding="utf-8") as fh:
        for frame, track_id, det in rows:
            b = det.bbox
            fh.write(
                f"{frame},{track_id},{_fmt(b.left)},{_fmt(b.top)},{_fmt(b.width)},"
                f"{_fmt(b.height)},{_fmt(det.confidence)},-1,-1,-1\n"
            )


def write_detections(path, frames: list[FrameData]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for f in frames:
            for det in f.detections:
                b = det.bbox
                fh.write(
                    f"{f.index},-1,{_fmt(b.left)},{_fmt(b.top)},{_fmt(b.width)},"
                    f"{_fmt(b.height)},{_fmt(det.confidence)},-1,-1,-1\n"
                )


def write_gt(path, boxes: list[LabeledBox]) -> None:
    rows = sorted(boxes, key=lambda b: (b.frame, b.id))
    with open(path, "w", encoding="utf-8") as fh:
        for box in rows:
            b = box.bbox
            fh.write(
                f"{box.frame},{box.id},{_fmt(b.left)},{_fmt(b.top)},{_fmt(b.width)},"
                f"{_fmt(b.height)},1,1,1\n"
            )


def write_features(path, frames: list[FrameData]) -> None:
    dims = {d.feature.dim for f in frames for d in f.detections if d.feature is not None}
    if len(dims) > 1:
        raise DataError(f"mixed feature dimensions {sorted(dims)}")
    dim = dims.pop() if dims else 2
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"frame,det,dim={dim}\n")
        for f in frames:
            for j, det in enumerate(f.detections):
                if det.feature is None:
                    raise DataError(f"frame {f.index} detection {j} has no feature to write")
                values = ",".join(f"{v:.9g}" for v in det.feature.values)
                fh.write(f"{f.index},{j},{values}\n")
