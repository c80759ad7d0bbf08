"""MOTChallenge-style text I/O plus a CSV sidecar for appearance features.

Detection and ground-truth files use the usual comma-separated rows
``frame,id,left,top,width,height,conf[,...]``. Features travel in a separate
CSV keyed by (frame, detection index within frame); vectors are normalized on
load, so any positive rescaling of the raw file leaves downstream cosine
computations unchanged. Result files are written with 6 significant digits
and a fixed sort order so reruns are byte-comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import BoundingBox, Detection, FeatureVec, FrameData
from .metrics import LabeledBox

__all__ = [
    "DataError",
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


def _data_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line:
                yield lineno, line


def read_detections(path) -> list[FrameData]:
    """Parse a detection file into per-frame data (features not yet attached).

    Rows are grouped by frame preserving file order within each frame; frames
    absent from the file come back empty so indices stay contiguous from 1.
    """
    per_frame: dict[int, list[Detection]] = {}
    max_frame = 0
    for lineno, line in _data_lines(path):
        frame, _, nums = _parse_fields(path, lineno, line, 7)
        left, top, width, height, conf = nums[0], nums[1], nums[2], nums[3], nums[4]
        if frame < 1:
            raise DataError(f"{path}:{lineno}: frame index must be >= 1, got {frame}")
        if width <= 0 or height <= 0:
            raise DataError(f"{path}:{lineno}: non-positive box size {width}x{height}")
        if not (0.0 <= conf <= 1.0):
            raise DataError(f"{path}:{lineno}: confidence {conf} outside [0, 1]")
        det = Detection(frame=frame, bbox=BoundingBox(left, top, width, height), feature=None, confidence=conf)
        per_frame.setdefault(frame, []).append(det)
        max_frame = max(max_frame, frame)
    return [
        FrameData(index=f, detections=tuple(per_frame.get(f, ())))
        for f in range(1, max_frame + 1)
    ]


def read_gt(path) -> list[LabeledBox]:
    """Parse a ground-truth (or result) file into labeled boxes.

    Requires ids >= 1 and unique (frame, id) pairs; columns beyond the box
    are accepted and ignored, so 9- and 10-column variants both parse.
    """
    boxes: list[LabeledBox] = []
    seen: set[tuple[int, int]] = set()
    for lineno, line in _data_lines(path):
        frame, obj_id, nums = _parse_fields(path, lineno, line, 6)
        left, top, width, height = nums
        if frame < 1:
            raise DataError(f"{path}:{lineno}: frame index must be >= 1, got {frame}")
        if obj_id < 1:
            raise DataError(f"{path}:{lineno}: object id must be >= 1, got {obj_id}")
        if width <= 0 or height <= 0:
            raise DataError(f"{path}:{lineno}: non-positive box size {width}x{height}")
        key = (frame, obj_id)
        if key in seen:
            raise DataError(f"{path}:{lineno}: duplicate (frame, id) = {key}")
        seen.add(key)
        boxes.append(LabeledBox(frame=frame, id=obj_id, bbox=BoundingBox(left, top, width, height)))
    return boxes


def read_features(path, dets: list[FrameData]) -> FeatureTable:
    """Parse the feature sidecar and validate coverage against detections."""
    rows: dict[tuple[int, int], FeatureVec] = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        parts = header.split(",")
        if len(parts) != 3 or parts[0] != "frame" or parts[1] != "det" or not parts[2].startswith("dim="):
            raise DataError(f"{path}:1: bad header {header!r}, expected 'frame,det,dim=D'")
        try:
            dim = int(parts[2][4:])
        except ValueError:
            raise DataError(f"{path}:1: bad dimension in header {header!r}") from None
        if dim < 2:
            raise DataError(f"{path}:1: feature dimension must be >= 2, got {dim}")
        for lineno, raw in enumerate(fh, start=2):
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
