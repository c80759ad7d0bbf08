import numpy as np
import pytest
from hypothesis import given, strategies as st

from adptrack.appearance import cosine_sim, ema_update, select_quality_window
from adptrack.core import FeatureVec

E1 = FeatureVec([1.0, 0.0])
E2 = FeatureVec([0.0, 1.0])

unit_vectors = st.lists(st.floats(-1, 1, allow_nan=False), min_size=4, max_size=4).filter(
    lambda v: np.linalg.norm(v) > 1e-3
).map(FeatureVec)


def test_cosine_examples():
    assert cosine_sim(E1, E1) == 1.0
    assert cosine_sim(E1, E2) == 0.0
    diag = FeatureVec([1.0, 1.0])
    assert cosine_sim(diag, E1) == pytest.approx(0.7071067811865475, abs=1e-6)


def test_cosine_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        cosine_sim(E1, FeatureVec([1.0, 0.0, 0.0]))


@given(unit_vectors, unit_vectors)
def test_cosine_symmetric_and_bounded(u, v):
    assert cosine_sim(u, v) == cosine_sim(v, u)
    assert -1.0 <= cosine_sim(u, v) <= 1.0
    assert cosine_sim(u, u) == pytest.approx(1.0, abs=1e-9)


def test_ema_endpoints():
    assert np.allclose(ema_update(E1, E2, 1.0).values, E1.values)
    assert np.allclose(ema_update(E1, E2, 0.0).values, E2.values)


def test_ema_blend_value():
    out = ema_update(E1, E2, 0.9)
    assert out.values[0] == pytest.approx(0.993884, abs=1e-6)
    assert out.values[1] == pytest.approx(0.110432, abs=1e-6)


@given(unit_vectors, unit_vectors, st.floats(0, 1, allow_nan=False))
def test_ema_output_unit_norm(rep, obs, momentum):
    try:
        out = ema_update(rep, obs, momentum)
    except ValueError:
        return  # antipodal degenerate blend is rejected, not normalized
    assert abs(np.linalg.norm(out.values) - 1.0) < 1e-9


def test_ema_rejects_degenerate_blend():
    anti = FeatureVec([-1.0, 0.0])
    with pytest.raises(ValueError):
        ema_update(E1, anti, 0.5)
    with pytest.raises(ValueError):
        ema_update(E1, E2, 1.5)


def test_window_examples():
    assert select_quality_window([0.9, 0.05, 0.8], 0.15, 2) == range(2, 4)
    # no entry reaches beta: fall back to the latest position
    assert select_quality_window([0.05, 0.1], 0.15, 2) == range(1, 3)
    assert select_quality_window([0.5], 0.15, 4) == range(1, 2)


def test_window_rejects_empty_and_bad_size():
    with pytest.raises(ValueError):
        select_quality_window([], 0.15, 2)
    with pytest.raises(ValueError):
        select_quality_window([0.5], 0.15, 0)


@given(
    st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=30),
    st.floats(-1, 1, allow_nan=False),
    st.integers(1, 8),
)
def test_window_bounds_property(values, beta, s):
    win = select_quality_window(values, beta, s)
    assert win.step == 1
    assert 1 <= win[0] <= win[-1] <= len(values)
    assert len(win) <= s


@given(
    st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=30),
    st.floats(-1, 0.9, allow_nan=False),
    st.floats(0, 0.1, allow_nan=False),
    st.integers(1, 8),
)
def test_window_beta_monotone_outside_fallback(values, beta_lo, bump, s):
    # Raising beta never selects a later anchor, as long as the higher beta
    # still has a qualifying entry (the fallback rule re-anchors at the end).
    beta_hi = beta_lo + bump
    if not any(v >= beta_hi for v in values):
        return
    lo = select_quality_window(values, beta_lo, s)
    hi = select_quality_window(values, beta_hi, s)
    assert hi[-1] <= lo[-1]
