import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import make_seq

from adptrack.core import (
    BoundingBox,
    Detection,
    FeatureVec,
    box_array,
    feature_dots,
    from_center,
    iou,
    iou_matrix,
    to_center,
    unit_rows,
)

finite_coord = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)
positive_size = st.floats(0.1, 1e3, allow_nan=False, allow_infinity=False)

boxes = st.builds(BoundingBox, left=finite_coord, top=finite_coord, width=positive_size, height=positive_size)


def test_iou_identity():
    b = BoundingBox(0, 0, 10, 10)
    assert iou(b, b) == 1.0


def test_iou_disjoint():
    assert iou(BoundingBox(0, 0, 5, 5), BoundingBox(10, 10, 5, 5)) == 0.0


def test_iou_partial_overlap():
    # inter = 1, union = 4 + 4 - 1
    assert iou(BoundingBox(0, 0, 2, 2), BoundingBox(1, 1, 2, 2)) == pytest.approx(1 / 7, abs=1e-12)


@given(boxes, boxes)
def test_iou_symmetric_and_bounded(a, b):
    ab = iou(a, b)
    assert ab == iou(b, a)
    assert 0.0 <= ab <= 1.0


@given(boxes)
def test_iou_self_is_one(b):
    assert iou(b, b) == pytest.approx(1.0, abs=1e-12)


# Grid values make shared edges, containment and exact duplicates common;
# the tiny sizes stay well above the range where an area underflows.
_grid_coord = st.one_of(st.sampled_from([-1.0, 0.0, 0.1, 0.2, 0.3, 1.0, 3.0]), finite_coord)
_grid_size = st.one_of(st.sampled_from([1e-6, 1e-3, 0.1, 0.2, 1.0, 2.0, 4.0]), positive_size)
_grid_boxes = st.builds(BoundingBox, _grid_coord, _grid_coord, _grid_size, _grid_size)


@given(st.data())
def test_iou_matrix_equals_scalar_iou(data):
    pool = data.draw(st.lists(_grid_boxes, min_size=1, max_size=8))
    a = data.draw(st.lists(st.sampled_from(pool), max_size=6))
    b = data.draw(st.lists(st.sampled_from(pool), max_size=6))
    expected = np.array([[iou(x, y) for y in b] for x in a]).reshape(len(a), len(b))
    assert iou_matrix(box_array(a), box_array(b)).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "a, b, expected",
    [
        (BoundingBox(0.1, 0.2, 0.3, 0.7), BoundingBox(0.1, 0.2, 0.3, 0.7), 1.0),  # identical
        (BoundingBox(0, 0, 1, 1), BoundingBox(1, 0, 1, 1), 0.0),  # shared edge
        (BoundingBox(0, 0, 4, 4), BoundingBox(1, 1, 2, 2), 0.25),  # containment
        (BoundingBox(0, 0, 1, 1), BoundingBox(5, 5, 1, 1), 0.0),  # disjoint
        (BoundingBox(0, 0, 2**-20, 2**-20), BoundingBox(0, 0, 2**-20, 2**-19), 0.5),  # tiny, exact in binary
        # (0.1 + 0.2) - 0.1 != 0.2: the intersection's sides are not the box's
        (BoundingBox(0.1, 0.1, 0.2, 0.2), BoundingBox(0.1, 0.1, 0.2, 0.2), 1.0),
        # far from the origin the right edge loses most of the width; only the equality override gives 1
        (BoundingBox(1e15, 1e15, 0.3, 0.7), BoundingBox(1e15, 1e15, 0.3, 0.7), 1.0),
        (BoundingBox(0, 0.25, 1, 0.5), BoundingBox(0, 0.75, 1, 0.5), 0.0),  # shared edge, equal left edges
        (BoundingBox(0, 0, 1, 1), BoundingBox(0, 5, 1, 1), 0.0),  # disjoint, equal left edges
        (BoundingBox(0, 0, 1e-200, 1e-200), BoundingBox(5, 5, 1e-200, 1e-200), 0.0),  # disjoint, areas underflow
        # overlapping, but the intersection and both areas underflow: 0 over the union's floor
        (BoundingBox(0, 0, 1e-200, 1e-200), BoundingBox(0.5e-200, 0, 1e-200, 1e-200), 0.0),
    ],
)
def test_iou_matrix_examples(a, b, expected):
    # bytes are compared, so a -0.0 cannot pass for +0.0
    m = iou_matrix(box_array([a, b]), box_array([b]))
    assert m.shape == (2, 1)
    assert m[0, 0].tobytes() == np.float64(expected).tobytes() == np.float64(iou(a, b)).tobytes()
    assert m[1, 0] == 1.0


def test_iou_matrix_empty_inputs():
    some = box_array([BoundingBox(0, 0, 1, 1), BoundingBox(2, 2, 1, 1)])
    assert box_array([]).shape == (0, 4)
    assert iou_matrix(box_array([]), some).shape == (0, 2)
    assert iou_matrix(some, np.zeros((0, 4))).shape == (2, 0)
    assert iou_matrix(np.zeros((0, 4)), np.zeros((0, 4))).shape == (0, 0)


def test_center_conversion():
    assert to_center(BoundingBox(0, 0, 2, 4)) == (1, 2, 2, 4)
    assert from_center(1, 2, 2, 4) == BoundingBox(0, 0, 2, 4)


def test_center_roundtrip_exact():
    b = BoundingBox(3.5, -1.0, 7.0, 2.5)
    cx, cy, w, h = to_center(b)
    back = from_center(cx, cy, w, h)
    for field in ("left", "top", "width", "height"):
        assert getattr(back, field) == pytest.approx(getattr(b, field), abs=1e-12)


@given(boxes)
def test_center_roundtrip_property(b):
    back = from_center(*to_center(b))
    assert math.isclose(back.left, b.left, abs_tol=1e-9)
    assert math.isclose(back.top, b.top, abs_tol=1e-9)


def test_bbox_rejects_bad_sizes():
    with pytest.raises(ValueError):
        BoundingBox(0, 0, 0, 5)
    with pytest.raises(ValueError):
        BoundingBox(0, 0, 5, -1)
    with pytest.raises(ValueError):
        BoundingBox(float("nan"), 0, 5, 5)
    with pytest.raises(ValueError):
        from_center(0, 0, -2, 2)


@given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=2, max_size=32))
def test_feature_normalization(raw):
    arr = np.asarray(raw)
    if np.linalg.norm(arr) < 1e-6:
        arr = arr + 1.0
    f = FeatureVec(arr)
    assert abs(np.linalg.norm(f.values) - 1.0) < 1e-9


# Values m * 10**e: half of them of similar magnitudes, where the order of the sum decides the last bit, and
# half as wide as 1e+-150. The exponent is one choice from a fixed list, which keeps 300 examples cheap to draw.
_EXPONENTS = [-2, -1, 0, 1, 2] * 10 + list(range(-150, 151, 6))
_wide_values = st.lists(st.tuples(st.floats(-1, 1), st.sampled_from(_EXPONENTS)), min_size=2, max_size=40)


@settings(max_examples=300)
@given(_wide_values, st.sampled_from(["contiguous", "strided", "reversed"]))
def test_feature_normalization_equals_multiply_sum_norm_bit_for_bit(raw, layout):
    """`FeatureVec` divides by the square root of the multiply-sum of a fresh contiguous copy, whatever the layout."""
    x = np.array([m * 10.0**e for m, e in raw])
    flat = x.copy()
    if layout == "strided":  # every other element of a buffer twice as long
        x = np.stack([x, np.full_like(x, 7.0)], axis=1).ravel()[::2]
    elif layout == "reversed":  # the same order through a negative stride
        x = x[::-1].copy()[::-1]
    norm = math.sqrt(np.multiply(flat, flat).sum())
    if norm < 1e-12:
        with pytest.raises(ValueError, match="zero feature vector"):
            FeatureVec(x)
        return
    assert FeatureVec(x).values.tobytes() == (x / norm).tobytes()


def _normalized_alone(row):
    """A fresh contiguous copy of one row normalised on its own by its multiply-sum norm: (unit row, None) or
    (None, message)."""
    if not np.isfinite(row).all():
        return None, "feature values must be finite"
    flat = np.array(row)
    with np.errstate(over="ignore"):
        norm = math.sqrt(np.multiply(flat, flat).sum())
    if not norm < math.inf:
        return None, "feature vector norm overflows float64"
    if norm < 1e-12:
        return None, "zero feature vector cannot be normalized"
    return row / norm, None


@st.composite
def _feature_blocks(draw, d=None):
    """(n, d) blocks of values m * 10**e, m uniform in [-1, 1] and e from `_EXPONENTS` or 0, whose sum's last bit
    depends on its order, some rows made to fail one check, in C or Fortran layout, as every other column of a wider
    buffer, through negative strides, in C layout one value past an allocation's start, or as one row broadcast to
    every row: layouts whose rows a reduction could add in another order. The values come from a generator seeded
    by one drawn integer, so a failing example shrinks in a few draws, not in n * d of them."""
    d, n = d or draw(st.integers(2, 64)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    exponents = draw(st.sampled_from([_EXPONENTS, [0]]))
    block = rng.uniform(-1, 1, size=(n, d)) * 10.0 ** rng.choice(exponents, size=(n, d))
    for row in block:
        kind = draw(st.sampled_from(["good"] * 5 + ["zero", "non-finite", "overflow"]))
        if kind == "zero":
            row[:] = 0.0
        elif kind != "good":
            bad = [math.nan, math.inf, -math.inf] if kind == "non-finite" else [1.7976931348623157e308]
            row[draw(st.integers(0, d - 1))] = draw(st.sampled_from(bad))
    layout = draw(st.sampled_from(["C", "F", "strided", "reversed", "offset", "broadcast"]))
    if layout in ("C", "F"):
        return np.array(block, order=layout)
    if layout == "strided":
        return np.repeat(block, 2, axis=1)[:, ::2]
    if layout == "reversed":
        return np.array(block)[::-1, ::-1].copy()[::-1, ::-1]
    if layout == "broadcast":
        return np.broadcast_to(np.array(block[0]), (n, d))
    buffer = np.empty(n * d + 1)
    buffer[1:] = np.ravel(block)
    return buffer[1:].reshape(n, d)


_rng = np.random.default_rng(23)


# a Fortran-order block broadcast against C rows: a product in the operands' order sums each vector down a stride
@example((np.asfortranarray(_rng.normal(size=(50, 16))), _rng.normal(size=(5, 16))))
@given(st.integers(2, 64).flatmap(lambda d: st.tuples(_feature_blocks(d), _feature_blocks(d))))
def test_feature_dots_equals_each_pair_summed_alone(blocks):
    """`feature_dots` of two blocks broadcast against each other, and of a block with itself row by row, equals
    as bytes the multiply-sum of each pair of rows taken alone as fresh copies, whatever the blocks' layouts."""
    a, b = blocks
    with np.errstate(over="ignore", invalid="ignore"):
        alone = np.array([[np.multiply(np.array(u), np.array(v)).sum() for v in b] for u in a])
        assert feature_dots(a[:, None], b[None]).tobytes() == alone.tobytes()
        assert feature_dots(a, a).tobytes() == np.array([np.multiply(np.array(u), np.array(u)).sum() for u in a]).tobytes()


@given(_feature_blocks())
def test_unit_rows_equals_each_row_normalised_alone(block):
    """The block's rows equal, as bytes, a fresh copy of each row normalised alone and the row's `FeatureVec`, up
    to the first row that cannot be normalised, which is reported with the message of its first failing check."""
    alone = [_normalized_alone(row) for row in block]
    first = next((i for i, (_, message) in enumerate(alone) if message), len(block))
    unit, failed, message = unit_rows(block)
    assert failed == ([first] if first < len(block) else [])
    assert message == (alone[first][1] if failed else None)
    assert unit.shape == (first, block.shape[1])
    assert unit.tobytes() == b"".join(row.tobytes() for row, _ in alone[:first])
    assert unit.tobytes() == b"".join(FeatureVec(row).values.tobytes() for row in block[:first])
    if failed:
        with pytest.raises(ValueError, match=f"^{message}$"):
            FeatureVec(block[first])


def test_unit_rows_reports_the_first_bad_row_and_its_first_failing_check():
    good, zero, huge = [3.0, 4.0], [0.0, 0.0], [1.7976931348623157e308, 1.0]
    cases = [
        ([good, [math.nan, 1.0], zero], 1, "feature values must be finite"),
        ([huge, [math.inf, 0.0]], 0, "feature vector norm overflows float64"),
        ([good, good, zero, huge], 2, "zero feature vector cannot be normalized"),
        ([[math.inf, 1.7976931348623157e308]], 0, "feature values must be finite"),
    ]
    for block, first, message in cases:
        unit, failed, got = unit_rows(np.array(block))
        assert (failed, got) == ([first], message)
        assert unit.tolist() == [[0.6, 0.8]] * first
    assert unit_rows(np.zeros((0, 3)))[0].shape == (0, 3)


def test_feature_rejects_zero_and_bad_shapes():
    with pytest.raises(ValueError):
        FeatureVec([0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        FeatureVec([1.0])
    with pytest.raises(ValueError):
        FeatureVec([[1.0, 0.0]])
    # finite values whose sum of squares is not: a ValueError, with no overflow warning on the way
    with pytest.raises(ValueError, match="norm overflows float64"):
        FeatureVec([1.7976931348623157e308, 1.0])
    with pytest.raises(ValueError):
        FeatureVec([1.0, float("inf")])


def test_feature_is_immutable():
    f = FeatureVec([3.0, 4.0])
    with pytest.raises(AttributeError):
        f.values = np.zeros(2)
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_detection_confidence_validated():
    b = BoundingBox(0, 0, 2, 2)
    f = FeatureVec([1.0, 0.0])
    with pytest.raises(ValueError):
        Detection(bbox=b, feature=f, confidence=1.5)


def test_detection_needs_a_feature():
    """A detection fails where it is built without a `FeatureVec`, so no tracker ever sees one."""
    b = BoundingBox(0, 0, 2, 2)
    for feature in (None, np.array([1.0, 0.0]), (1.0, 0.0)):
        with pytest.raises(ValueError, match="needs a FeatureVec feature"):
            Detection(b, feature, 0.5)
    det = Detection(b, FeatureVec([3.0, 4.0]), 0.5)
    (view,) = make_seq({2: [det]}).detections
    assert (view.bbox, view.feature.values.tolist(), view.confidence) == (b, [0.6, 0.8], 0.5)
