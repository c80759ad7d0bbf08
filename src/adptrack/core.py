"""Shared domain types and bounding-box geometry.

Boxes use the MOTChallenge-native top-left/width/height convention so that
file values round-trip without coordinate conversion. A `Sequence` holds a
sequence's detections as read-only array rows sorted by frame, checked in
bulk where they enter, with one offset per frame: a frame is a slice of the
rows and a detection is a global row index. A `Detection` (box, appearance
feature, confidence) is one row as objects, which only the scalar oracles
read. Frame indices are 1-based in files and stored as-is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple

import numpy as np

__all__ = [
    "BoundingBox",
    "FeatureVec",
    "feature_dots",
    "unit_rows",
    "Detection",
    "FrameData",
    "MIN_CONFIDENCE",
    "Sequence",
    "iou",
    "box_array",
    "iou_matrix",
    "iou_array",
    "to_center",
    "from_center",
    "batch_centers",
]

# Rows below this confidence are never tracked: every tracker step ignores them (DeepSORT-style; see `base_tracker`).
MIN_CONFIDENCE = 0.1


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned pixel box: top-left corner plus positive width/height."""

    left: float
    top: float
    width: float
    height: float

    def __post_init__(self):
        for name in ("left", "top", "width", "height"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"bounding box field {name} must be finite, got {value!r}")
        if self.width <= 0 or self.height <= 0:
            raise ValueError(
                f"bounding box needs positive size, got {self.width}x{self.height}"
            )

    @property
    def right(self) -> float:
        return self.left + self.width

    @property
    def bottom(self) -> float:
        return self.top + self.height

    @property
    def area(self) -> float:
        return self.width * self.height


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection-over-union overlap of two boxes, in [0, 1]."""
    if a == b:
        return 1.0
    iw = min(a.right, b.right) - max(a.left, b.left)
    ih = min(a.bottom, b.bottom) - max(a.top, b.top)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    # Rounding in right/bottom can push inter a hair past the union. The union's
    # floor, as in `iou_array`, keeps 0 / 0 out where both areas underflow.
    return min(1.0, inter / max(a.area + b.area - inter, 5e-324))


def box_array(boxes) -> np.ndarray:
    """Boxes as an (N, 4) float array of (left, top, width, height) rows."""
    return np.array([(b.left, b.top, b.width, b.height) for b in boxes], dtype=np.float64).reshape(-1, 4)


def iou_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`iou` of (..., 4) box arrays broadcast against each other, one value per box pair.

    Each entry is computed with the operations of the scalar function in the
    same order, so it equals ``iou`` bit for bit: intersection sides clamp at
    +0.0, and the exact-equality override is tested where left edges agree.
    """
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    al, at, aw, ah = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bl, bt, bw, bh = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    iw = np.maximum(np.minimum(al + aw, bl + bw) - np.maximum(al, bl), 0.0)
    ih = np.maximum(np.minimum(at + ah, bt + bh) - np.maximum(at, bt), 0.0)
    inter = iw * ih
    # The smallest positive double as the union's floor keeps 0 / 0 out where both areas underflow.
    out = np.minimum(1.0, inter / np.maximum((aw * ah + bw * bh) - inter, 5e-324))
    same = al == bl
    if same.any():
        out = np.where(same & (at == bt) & (aw == bw) & (ah == bh), 1.0, out)
    return out


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`iou` of every pair of rows of an (N, 4) and an (M, 4) box array, as (N, M)."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    return iou_array(a[:, None, :], b[None, :, :])


def to_center(b: BoundingBox) -> tuple[float, float, float, float]:
    """Convert a box to (cx, cy, w, h) center form."""
    return (b.left + b.width / 2.0, b.top + b.height / 2.0, b.width, b.height)


def from_center(cx: float, cy: float, w: float, h: float) -> BoundingBox:
    """Inverse of :func:`to_center`; rejects non-positive sizes."""
    if w <= 0 or h <= 0:
        raise ValueError(f"center box needs positive size, got {w}x{h}")
    return BoundingBox(cx - w / 2.0, cy - h / 2.0, w, h)


def batch_centers(boxes: np.ndarray) -> np.ndarray:
    """`to_center` of every box row, as the planes of `boxes.T`: (4, n) of (n, 4) rows, (4, L, D) of (D, L, 4)."""
    centers = boxes.T.copy()
    centers[:2] += centers[2:] / 2.0
    return centers


def feature_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis of two broadcast feature arrays: each a C-ordered product vector added in
    numpy's pairwise order, so it equals the same two vectors' multiply-sum taken alone, whatever their layout."""
    return np.multiply(a, b, order="C").sum(-1)


@np.errstate(over="ignore", invalid="ignore")  # a norm that is not finite fails its row; it is no warning
def unit_rows(block) -> tuple[np.ndarray, list[int], str | None]:
    """Each row of an (n, d) block divided by its L2 norm up to the first row that fails, its row (none or one)
    and the message of the first check that row fails.

    A row's norm is the square root of its `feature_dots` with itself, so a row normalised in a block equals
    the row normalised alone bit for bit, on any host. A row fails, checked in this order, when it holds a
    non-finite value, when its norm overflows float64 and when its norm is below 1e-12.
    """
    block = np.asarray(block, dtype=np.float64)
    norms = np.sqrt(feature_dots(block, block))
    # A non-finite value makes its row's norm inf or nan, and min and max pass a nan on: every bad row fails these.
    if norms.min(initial=math.inf) >= 1e-12 and norms.max(initial=0.0) < math.inf:
        return block / norms[:, None], [], None
    first = int(np.flatnonzero(~((norms >= 1e-12) & (norms < math.inf)))[0])
    if not np.isfinite(block[first]).all():
        message = "feature values must be finite"
    elif not norms[first] < math.inf:
        message = "feature vector norm overflows float64"
    else:
        message = "zero feature vector cannot be normalized"
    return block[:first] / norms[:first, None], [first], message


class FeatureVec:
    """Unit-norm appearance embedding.

    Raw input is L2-normalized at construction, as a one-row block of
    `unit_rows`; zero vectors are rejected because cosine similarity is
    undefined for them. `of_unit_rows` wraps rows that block already
    normalised. The norm is a `feature_dots` multiply-sum, as every feature
    sum is, not BLAS `ddot`, whose last bit depends on the host's kernel.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError(f"feature must be a 1-D vector of dimension >= 2, got shape {arr.shape}")
        unit, failed, message = unit_rows(arr[None])
        if failed:
            raise ValueError(message)
        unit.flags.writeable = False
        object.__setattr__(self, "values", unit[0])

    @classmethod
    def of_unit_rows(cls, unit: np.ndarray) -> list[FeatureVec]:
        """One vector per row of a `unit_rows` block of dimension >= 2, each holding its row as it is; the block
        becomes read-only."""
        unit.flags.writeable = False
        vecs = [object.__new__(cls) for _ in range(len(unit))]
        for vec, row in zip(vecs, unit):
            object.__setattr__(vec, "values", row)
        return vecs

    def __setattr__(self, name, value):
        raise AttributeError("FeatureVec is immutable")

    @property
    def dim(self) -> int:
        return self.values.size

    def __repr__(self) -> str:
        return f"FeatureVec(dim={self.dim})"


@dataclass(frozen=True, eq=False)
class Detection:
    """One detected object: its box, appearance feature and confidence, built once and never without a feature."""

    bbox: BoundingBox
    feature: FeatureVec
    confidence: float

    def __post_init__(self):
        if not isinstance(self.feature, FeatureVec):
            raise ValueError(f"a detection needs a FeatureVec feature, got {type(self.feature).__name__}")
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence must lie in [0, 1], got {self.confidence}")


class FrameData(NamedTuple):
    """One frame of a `Sequence`: its index and views of its rows' `boxes`, `features` and `confidences`."""

    index: int
    boxes: np.ndarray
    features: np.ndarray
    confidences: np.ndarray


@dataclass(frozen=True, eq=False)
class Sequence:
    """A sequence's detections as read-only rows, checked in bulk where they enter, sorted by frame and each frame's
    in stable file order: `boxes` (n, 4) of (left, top, width, height), unit-norm `features` (n, d) and `confidences`
    (n,). Frame f, from 1 to `last`, holds rows `offsets[f - 1]` to `offsets[f]`. Every tracker step reads these
    arrays by row index; iterating gives each frame as a `FrameData` of views, for the writers and the tests, and
    `detections` is the rows as `Detection`s, derived on first use for the scalar oracles and the tests.
    """

    boxes: np.ndarray
    features: np.ndarray
    confidences: np.ndarray
    offsets: np.ndarray

    @classmethod
    def of_rows(cls, frames: np.ndarray, boxes, features, confidences, last: int | None = None) -> Sequence:
        """Checked rows with their sorted (n,) frame indices, as frames 1 to `last` (the largest by default), read-only."""
        last = int(frames.max(initial=0)) if last is None else last
        seq = cls(boxes, features, confidences, np.searchsorted(frames, np.arange(last + 1), side="right"))
        for column in (boxes, features, confidences, seq.offsets):
            column.flags.writeable = False
        return seq

    @property
    def last(self) -> int:
        return len(self.offsets) - 1

    def rows(self, f: int) -> slice:
        """Frame f's rows."""
        return slice(self.offsets[f - 1], self.offsets[f])

    def next_busy(self, f: int) -> int:
        """The first frame from f on that holds rows, or `last` + 1."""
        return int(np.searchsorted(self.offsets, self.offsets[f - 1], side="right"))

    def __iter__(self) -> Iterator[FrameData]:
        for f, lo, hi in zip(range(1, self.last + 1), self.offsets.tolist(), self.offsets[1:].tolist()):
            yield FrameData(f, self.boxes[lo:hi], self.features[lo:hi], self.confidences[lo:hi])

    @cached_property
    def centers(self) -> np.ndarray:
        """The rows' (4, n) `batch_centers` planes, read-only; elementwise, so any subset's equal its columns."""
        centers = batch_centers(self.boxes)
        centers.flags.writeable = False
        return centers

    @cached_property
    def _confident(self) -> tuple[np.ndarray, ...]:
        rows = np.flatnonzero(self.confidences >= MIN_CONFIDENCE)
        table = rows, np.searchsorted(rows, self.offsets), self.boxes[rows]
        for column in table:
            column.flags.writeable = False
        return table

    def confident(self, f: int) -> tuple[np.ndarray, np.ndarray]:
        """Frame f's rows of confidence >= `MIN_CONFIDENCE` and their (k, 4) boxes: views of one read-only table,
        taken once per sequence, that every tracker step reads."""
        rows, starts, boxes = self._confident
        return rows[starts[f - 1] : starts[f]], boxes[starts[f - 1] : starts[f]]

    @cached_property
    def detections(self) -> tuple[Detection, ...]:
        vecs = FeatureVec.of_unit_rows(self.features)
        return tuple(map(Detection, map(BoundingBox, *self.boxes.T.tolist()), vecs, self.confidences.tolist()))
