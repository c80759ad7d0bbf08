import numpy as np

from adptrack.core import BoundingBox, Detection, FeatureVec, FrameData
from adptrack.metrics import LabeledBox
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


def count_calls(monkeypatch, module, name):
    """Route `module.name` through a wrapper that records each call's arguments."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls
