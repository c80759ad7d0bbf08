"""MOTChallenge-style text I/O plus a CSV sidecar for appearance features.

Detection and ground-truth files use the usual comma-separated rows
``frame,id,left,top,width,height,conf[,...]``. Features travel in a separate
CSV keyed by (frame, detection index within frame); vectors are normalized on
load, so any positive rescaling of the raw file leaves downstream cosine
computations unchanged. A detection file is read into the checked rows of a
`core.Sequence`, with an offset per frame, its sidecar into one block of
unit rows in row order, which `attach_features` puts into the sequence: no
per-frame or per-detection object is built between reading the files and
writing the result file, whose rows name sequence rows. A ground-truth or
result file is read once into a
`metrics.BoxTable`. All three readers share one row reader and one error
rule: a file of plain ASCII lines is parsed in one `np.loadtxt` pass, any
other file, or one that pass rejects, by Python's `int` and `float` field by
field, and a bad file raises a `DataError` for its first bad line and that
line's first failing check. Result files are written with 6 significant
digits and a fixed sort order so reruns are byte-comparable.
"""

from __future__ import annotations

import io
import re
import warnings
from dataclasses import replace
from functools import cached_property
from itertools import islice

import numpy as np

from .core import FrameData, Sequence, unit_rows
from .metrics import BoxTable, LabeledBox

__all__ = [
    "DataError",
    "MAX_FRAME_INDEX",
    "read_detections",
    "read_gt",
    "read_features",
    "attach_features",
    "write_results",
    "write_detections",
    "write_gt",
    "write_features",
]


# A `Sequence` holds one offset per frame index up to the largest, so an index far past any real sequence
# (this one is over 9 hours at 30 fps) would only grow that array; it is rejected instead.
MAX_FRAME_INDEX = 1_000_000


class DataError(ValueError):
    """Malformed or inconsistent input data."""


# Of the control characters, these four alone are whitespace to numpy's number parsers, which skip them
# anywhere in a field, but not to Python's `int` and `float`, which reject them there.
_SEPARATORS = b"\x1c\x1d\x1e\x1f"

# The first line of a file and its end, as universal newlines read it.
_FIRST_LINE = re.compile(rb"[^\r\n]*(?:\r\n|\r|\n)?")


def _read(path) -> bytes:
    """The bytes of a UTF-8 text file; undecodable bytes raise a DataError naming their line."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # The bytes before the bad one decode; count the lines they start.
            lineno = len(io.StringIO(data[: exc.start].decode("utf-8") + "x", newline=None).readlines())
            raise DataError(f"{path}:{lineno}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return data


def _numbered_lines(data):
    """(line number, line) pairs of the UTF-8 text `data`, split as universal newlines split it."""
    return enumerate(io.StringIO(data.decode("utf-8"), newline=None), start=1)


def _loadtxt(data, start, kinds, dim):
    """The rows of `data` from byte `start` on as one structured array, parsed in one C pass: the fields `f0`,
    `f1`, ... of `kinds` (int64 or float64), then with `dim` the (dim,) float64 field `block`, else only the
    first `len(kinds)` columns. None if the parse fails, or might read a field as Python's `int` or `float`
    would not.

    Where it returns rows, the per-field parse would pass its field-count and parse checks with the same values,
    and row i is the i-th non-blank line: `np.loadtxt` skips empty lines and fails on whitespace-only ones.
    """
    # Only ASCII reaches numpy's parser: numpy 2.4's crashes the process on an int64 field that holds a code point
    # past about U+4FECA. (The ASCII decoding below would reject such a byte too, but only when it reached it.)
    if not data.isascii() or any(c in data for c in _SEPARATORS):
        return None
    # A row of 2 + dim fields takes 2 * dim bytes or more; a larger declared dim need not even make a dtype.
    if 2 * dim > len(data):
        return None
    dtype = [(f"f{k}", np.int64 if kind is int else np.float64) for k, kind in enumerate(kinds)]
    fh = io.BytesIO(data)  # shares the bytes, where a slice or a decoded str would copy them
    fh.seek(start)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as for input with no rows: the per-field parse handles it
            return np.loadtxt(
                fh,
                dtype=dtype + [("block", np.float64, (dim,))] if dim else dtype,
                delimiter=",",
                comments=None,
                usecols=None if dim else range(len(kinds)),
                ndmin=1,
                encoding="ascii",
            )
    except (ValueError, Warning):
        return None


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


class _Rows:
    """The non-blank lines of the text `data` past a header line of `start` bytes (or none), parsed column by
    column, with their checks.

    A line needs a field per kind, then with `dim` exactly `dim` floats more, which make row i of the
    (rows, dim) `block`. A file of plain ASCII lines that all parse is read in one `np.loadtxt` pass;
    otherwise, or if that parse fails, the lines are split at commas, field counts checked and each column
    parsed by Python's `int` or `float`. The lines are numbered and split only on that path, or when a check
    fails and its message needs them: on either parse, row i is `lines[i]`.

    Each check passes `check` the rows it fails, all at once, in the order one line's checks would run; the
    earliest failing row is kept, so `raise_first` raises for the first bad line and its first failing check.
    """

    def __init__(self, path, data, kinds, dim=0, start=0):
        self.path, self.data, self.start = path, data, start
        n = len(kinds)
        self.split = -1 if dim else n  # past the fields read, the rest of a line stays in one last field
        table = _loadtxt(data, start, kinds, dim)
        if table is not None:
            self.stop, self.error = len(table), None
            self.columns = [table[f"f{k}"] for k in range(n)]
            self.block = table["block"] if dim else None
            return
        self.stop, self.error = len(self.lines), None
        bad = [len(f) != n + dim if dim else len(f) < n for f in self.fields]
        expected = f"{n + dim}" if dim else f"at least {n}"
        self.check(np.flatnonzero(bad), lambda i: f"expected {expected} fields, got {len(self.fields[i])}")
        parsed = [_column([f[k] for f in self.fields[: self.stop]], kind) for k, kind in enumerate(kinds)]
        for _, failed, message in parsed:
            self.check(failed, lambda i: message)
        self.columns = [values[: self.stop] for values, _, _ in parsed]
        self.block = None
        if dim:
            values, failed, message = _column([x for f in self.fields[: self.stop] for x in f[n:]], float)
            self.check([i // dim for i in failed], lambda i: message)
            # Only a file with no good row can declare a dimension beyond numpy's largest: its lines fail the field count.
            self.block = values[: self.stop * dim].reshape(self.stop, dim if self.stop else 0)

    @cached_property
    def lines(self):
        """(line number, stripped line) of each non-blank line."""
        numbered = islice(_numbered_lines(self.data), 1 if self.start else 0, None)  # a header is one line
        return [(lineno, line) for lineno, raw in numbered if (line := raw.strip())]

    @cached_property
    def fields(self):
        return [line.split(",", self.split) for _, line in self.lines]

    def check(self, failing, message):
        first = min(map(int, failing), default=self.stop)
        if first < self.stop:
            self.stop, self.error = first, message(first)

    def check_finite(self, numbers):
        """Rows of `numbers`, the float columns from the third field on, that hold a non-finite value."""
        bad = np.flatnonzero(~np.isfinite(numbers).all(axis=1))
        self.check(bad, lambda i: f"non-finite number in {','.join(self.fields[i][2 : 2 + numbers.shape[1]])}")

    def check_box_size(self, width, height):
        def size(i):
            return f"{float(width[i])}x{float(height[i])}"

        self.check(np.flatnonzero(~((width > 0) & (height > 0))), lambda i: f"non-positive box size {size(i)}")
        # Overlap divides by areas; sides too small for their product to be a positive float would divide by 0.
        with np.errstate(over="ignore", invalid="ignore"):
            self.check(np.flatnonzero(~(width * height > 0)), lambda i: f"box area {size(i)} underflows to 0")

    def check_unique(self, a, b, message):
        """Rows whose (a, b) pair an earlier row has; `message` takes the pair as a tuple of ints."""
        order = np.lexsort((b[: self.stop], a[: self.stop]))  # stable: equal pairs stay in file order
        again = (a[order][1:] == a[order][:-1]) & (b[order][1:] == b[order][:-1])
        self.check(order[1:][again], lambda i: message((int(a[i]), int(b[i]))))

    def raise_first(self):
        if self.error is not None:
            raise DataError(f"{self.path}:{self.lines[self.stop][0]}: {self.error}")


def read_detections(path) -> Sequence:
    """Read and check a detection file into a `Sequence` of its rows, with (n, 0) features until `attach_features`.

    A line needs at least 7 fields: `int` frame and id, finite `float` box and confidence, a frame in
    [1, `MAX_FRAME_INDEX`], a box whose area is a positive float and a confidence in [0, 1].
    """
    rows = _Rows(path, _read(path), (int, int, float, float, float, float, float))
    frames, _, left, top, width, height, conf = rows.columns
    rows.check_finite(np.stack([left, top, width, height, conf], axis=1))
    outside = np.flatnonzero((frames < 1) | (frames > MAX_FRAME_INDEX))
    rows.check(outside, lambda i: f"frame index must lie in [1, {MAX_FRAME_INDEX}], got {int(frames[i])}")
    rows.check_box_size(width, height)
    rows.check(np.flatnonzero(~((conf >= 0.0) & (conf <= 1.0))), lambda i: f"confidence {float(conf[i])} outside [0, 1]")
    rows.raise_first()
    order = np.argsort(frames, kind="stable")
    return Sequence.of_rows(frames[order], np.stack([left, top, width, height], axis=1)[order], np.zeros((len(order), 0)), conf[order])


def read_gt(path) -> BoxTable:
    """Read a ground-truth (or result) file in one pass into a `BoxTable`; columns past the box are ignored.

    A line needs at least 6 fields: `int` frame and id, both >= 1, a finite `float` box whose area is a
    positive float, and a (frame, id) no earlier line has.
    """
    rows = _Rows(path, _read(path), (int, int, float, float, float, float))
    frames, ids, left, top, width, height = rows.columns
    boxes = np.stack([left, top, width, height], axis=1)
    rows.check_finite(boxes)
    rows.check(np.flatnonzero(frames < 1), lambda i: f"frame index must be >= 1, got {int(frames[i])}")
    rows.check(np.flatnonzero(ids < 1), lambda i: f"object id must be >= 1, got {int(ids[i])}")
    rows.check_box_size(width, height)
    rows.check_unique(frames, ids, lambda key: f"duplicate (frame, id) = {key}")
    rows.raise_first()
    return BoxTable(frames, ids, boxes)


def read_features(path, dets: Sequence) -> np.ndarray:
    """Parse the feature sidecar into a read-only (n, dim) block of unit rows, row i the feature of row i of `dets`.

    After the header a line needs exactly 2 + dim fields: `int` frame and detection index (within its frame), a
    (frame, det) no earlier line has, and `float` values that make a `FeatureVec`: all rows are normalised as one
    `unit_rows` block. Then a detection without a row is named by its key, and the first row without a detection
    by its line.
    """
    data = _read(path)
    first = _FIRST_LINE.match(data)
    header = first[0].decode("utf-8").strip()
    parts = header.split(",")
    if len(parts) != 3 or parts[0] != "frame" or parts[1] != "det" or not parts[2].startswith("dim="):
        raise DataError(f"{path}:1: bad header {header!r}, expected 'frame,det,dim=D'")
    try:
        dim = int(parts[2][4:])
    except ValueError:
        raise DataError(f"{path}:1: bad dimension in header {header!r}") from None
    if dim < 2:
        raise DataError(f"{path}:1: feature dimension must be >= 2, got {dim}")
    rows = _Rows(path, data, (int, int), dim, start=first.end())
    frames, det_idx = rows.columns
    rows.check_unique(frames, det_idx, lambda key: f"duplicate feature row for {key}")
    unit, failed, message = unit_rows(rows.block[: rows.stop])
    rows.check(failed, lambda i: message)
    rows.raise_first()

    # The first row and the end of each key's frame; a frame outside the sequence's gets no rows.
    first, end = dets.offsets[np.clip([frames - 1, frames], 0, dets.last)]
    named = (det_idx >= 0) & (det_idx < end - first)
    at = first[named] + det_idx[named]  # keys are unique, so no two rows name one detection
    if len(at) < len(dets.boxes):  # the first uncovered row in row order has the smallest missing key
        i = int(np.argmin(np.isin(np.arange(len(dets.boxes)), at)))
        frame = int(np.searchsorted(dets.offsets, i, side="right"))
        raise DataError(f"{path}: missing feature row for frame {frame}, detection {i - dets.offsets[frame - 1]}")
    if not named.all():
        i = int(np.argmin(named))
        raise DataError(f"{path}:{rows.lines[i][0]}: feature row for nonexistent detection (frame {frames[i]}, index {det_idx[i]})")
    block = unit[np.argsort(at)]
    block.flags.writeable = False
    return block


def attach_features(dets: Sequence, features: np.ndarray) -> Sequence:
    """The sequence of `read_detections` with its `read_features` block; frames absent from the file hold no rows."""
    return replace(dets, features=features)


def _mot_rows(frames: list, ids: list, boxes: np.ndarray, confidences: np.ndarray) -> str:
    """MOT rows of frame, id, box and confidence with 6 significant digits, then three unused columns."""
    rows = zip(frames, ids, *boxes.T.tolist(), confidences.tolist())
    return "".join(map("%d,%d,%.6g,%.6g,%.6g,%.6g,%.6g,-1,-1,-1\n".__mod__, rows))


def write_results(path, seq: Sequence, rows) -> None:
    """Write tracker result rows (frame, track id, row of `seq`), MOT result format."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, 3)
    rows = rows[np.lexsort((rows[:, 1], rows[:, 0]))]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_mot_rows(rows[:, 0].tolist(), rows[:, 1].tolist(), seq.boxes[rows[:, 2]], seq.confidences[rows[:, 2]]))


def write_detections(path, frames: Sequence | list[FrameData]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for f in frames:
            fh.write(_mot_rows([f.index] * len(f.boxes), [-1] * len(f.boxes), f.boxes, f.confidences))


def write_gt(path, boxes: list[LabeledBox]) -> None:
    rows = ((b.frame, b.id, b.bbox.left, b.bbox.top, b.bbox.width, b.bbox.height) for b in sorted(boxes, key=lambda b: (b.frame, b.id)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(map("%d,%d,%.6g,%.6g,%.6g,%.6g,1,1,1\n".__mod__, rows)))


def write_features(path, frames: Sequence | list[FrameData]) -> None:
    dims = {f.features.shape[1] for f in frames if len(f.boxes)}
    if len(dims) > 1:
        raise DataError(f"mixed feature dimensions {sorted(dims)}")
    dim = dims.pop() if dims else 2
    row = "%d,%d," + ",".join(["%.9g"] * dim) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"frame,det,dim={dim}\n")
        for f in frames:
            fh.write("".join(row % (f.index, j, *values) for j, values in enumerate(f.features.tolist())))
