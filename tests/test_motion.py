import numpy as np
import pytest

from conftest import covariance, forecast_row

from adptrack.core import BoundingBox, box_array, from_center, to_center
from adptrack.motion import (
    KalmanState,
    batch_boxes,
    batch_centers,
    kf_correct_predict_batch,
    kf_init,
    kf_predict,
    kf_predict_batch,
    kf_prior_batch,
    kf_update,
    kf_update_batch,
    state_to_bbox,
)

# DeepSORT noise std multipliers (applied to the box height), spelled out so
# the oracles below do not read them from the code under test.
POS, VEL, MEAS, INIT_POS, INIT_VEL = 1.0 / 20.0, 1.0 / 160.0, 1.0 / 20.0, 1e4, 1e4


def _scripted_filter_prediction(init_box, measurements):
    """Independent plain-equations filter recursion used as the test oracle."""
    cx = init_box[0] + init_box[2] / 2.0
    cy = init_box[1] + init_box[3] / 2.0
    mean = np.array([cx, cy, init_box[2], init_box[3], 0, 0, 0, 0.0])
    cov = np.diag([(INIT_POS * init_box[3]) ** 2] * 4 + [(INIT_VEL * init_box[3]) ** 2] * 4)
    F = np.eye(8)
    F[:4, 4:] = np.eye(4)
    H = np.eye(4, 8)
    for z in measurements:
        h = max(abs(mean[3]), 1e-3)
        q = np.diag([(POS * h) ** 2] * 4 + [(VEL * h) ** 2] * 4)
        mean = F @ mean
        cov = F @ cov @ F.T + q
        h = max(abs(mean[3]), 1e-3)
        r = np.diag([(MEAS * h) ** 2] * 4)
        s = H @ cov @ H.T + r
        k = cov @ H.T @ np.linalg.inv(s)
        mean = mean + k @ (np.asarray(z, dtype=float) - H @ mean)
        ikh = np.eye(8) - k @ H
        cov = ikh @ cov @ ikh.T + k @ r @ k.T
    return (F @ mean)[:4]


def _assert_psd_symmetric(state):
    cov = covariance(state)
    assert np.max(np.abs(cov - cov.T)) < 1e-8
    assert np.linalg.eigvalsh(cov).min() >= -1e-8


def test_init_mean_and_determinism():
    s = kf_init(BoundingBox(0, 0, 2, 4))
    assert np.allclose(s.mean, [1, 2, 2, 4, 0, 0, 0, 0])
    _assert_psd_symmetric(s)
    s2 = kf_init(BoundingBox(0, 0, 2, 4))
    assert np.array_equal(s.mean, s2.mean)
    assert np.array_equal(covariance(s), covariance(s2))


def test_predict_moves_center_by_velocity():
    base = kf_init(BoundingBox(0, 0, 2, 4))
    s = KalmanState(np.array([1, 2, 2, 4, 1, 0, 0, 0.0]), base.block)
    pred = kf_predict(s)
    assert pred.mean[0] == pytest.approx(2.0)
    assert pred.mean[1] == pytest.approx(2.0)


def test_zero_velocity_prediction_is_stationary():
    s = kf_init(BoundingBox(5, 5, 3, 3))
    pred = kf_predict(s)
    assert np.allclose(pred.mean[:4], s.mean[:4])


def test_predict_inflates_covariance_trace():
    s = kf_init(BoundingBox(0, 0, 4, 8))
    for _ in range(5):
        before = np.trace(covariance(s))
        s = kf_predict(s)
        assert np.trace(covariance(s)) > before
        s = kf_update(s, state_to_bbox(s))


def test_update_with_predicted_box_keeps_position():
    s = kf_init(BoundingBox(0, 0, 2, 2))
    s = kf_predict(s)
    updated = kf_update(s, state_to_bbox(s))
    assert np.allclose(updated.mean[:4], s.mean[:4], atol=1e-9)
    assert np.trace(covariance(updated)) <= np.trace(covariance(s)) + 1e-9


def test_three_cycle_convergence_matches_scripted_oracle():
    # Constant-velocity measurements: centers (1,0), (2,0), (3,0) at size 2x2.
    s = kf_init(BoundingBox(0, 0, 2, 2))
    measurements = [(1.0, 0.0, 2.0, 2.0), (2.0, 0.0, 2.0, 2.0), (3.0, 0.0, 2.0, 2.0)]
    for cx, cy, w, h in measurements:
        s = kf_predict(s)
        s = kf_update(s, from_center(cx, cy, w, h))
    pred = kf_predict(s)
    assert pred.mean[0] == pytest.approx(4.0, abs=1e-6)
    assert pred.mean[1] == pytest.approx(0.0, abs=1e-6)
    oracle = _scripted_filter_prediction((0, 0, 2, 2), measurements)
    assert np.allclose(pred.mean[:4], oracle, atol=1e-9)


def test_noiseless_constant_velocity_convergence_seeded():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        h = rng.uniform(10, 150)
        w = h * rng.uniform(0.3, 0.6)
        c0 = rng.uniform(0, 500, size=2)
        v = rng.uniform(-20, 20, size=2)
        s = kf_init(from_center(c0[0], c0[1], w, h))
        for k in range(1, 4):
            s = kf_predict(s)
            s = kf_update(s, from_center(c0[0] + k * v[0], c0[1] + k * v[1], w, h))
        pred = kf_predict(s)
        truth = c0 + 4 * v
        assert np.max(np.abs(pred.mean[:2] - truth)) < 1e-6


def test_covariance_stays_psd_over_random_cycles():
    rng = np.random.default_rng(99)
    s = kf_init(BoundingBox(0, 0, 20, 40))
    for _ in range(100):
        s = kf_predict(s)
        _assert_psd_symmetric(s)
        box = from_center(rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(5, 50), rng.uniform(5, 50))
        s = kf_update(s, box)
        _assert_psd_symmetric(s)


def test_operations_are_pure():
    s = kf_init(BoundingBox(0, 0, 2, 2))
    p1 = kf_predict(s)
    p2 = kf_predict(s)
    assert np.array_equal(p1.mean, p2.mean)
    assert np.array_equal(covariance(p1), covariance(p2))
    box = BoundingBox(1, 1, 2, 2)
    u1 = kf_update(p1, box)
    u2 = kf_update(p1, box)
    assert np.array_equal(u1.mean, u2.mean)


def test_state_to_bbox_roundtrip_and_clamp():
    s = kf_init(BoundingBox(0, 0, 2, 4))
    assert state_to_bbox(s) == BoundingBox(0, 0, 2, 4)
    degenerate = KalmanState(np.array([1, 2, -5, 4, 0, 0, 0, 0.0]), s.block)
    box = state_to_bbox(degenerate)
    assert box.width == pytest.approx(1e-3)


def test_state_validation():
    with pytest.raises(ValueError):
        KalmanState(np.zeros(7), (1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        KalmanState(np.zeros(8), (1.0, 0.0))
    with pytest.raises(ValueError):
        KalmanState(np.zeros(8), np.eye(8))
    s = KalmanState(np.zeros(8), (4.0, 1.0, 2.0))
    assert np.array_equal(covariance(s), np.kron([[4.0, 1.0], [1.0, 2.0]], np.eye(4)))


def test_block_filter_matches_8x8_recursion_exactly():
    # the plain 8x8 recursion: F P F^T + Q, Joseph form with an inverse, symmetrisation;
    # every noise std is squared as one product, x * x, as the filter squares it
    def sq(x):
        return x * x

    F = np.eye(8)
    F[:4, 4:] = np.eye(4)
    H = np.eye(4, 8)
    rng = np.random.default_rng(1357)
    cycles = 0
    for _ in range(10):
        s = kf_init(from_center(*rng.uniform(0, 500, 2), *rng.uniform(5, 150, 2)))
        mean = s.mean.copy()
        h0 = mean[3]
        cov = np.diag([sq(INIT_POS * h0)] * 4 + [sq(INIT_VEL * h0)] * 4)
        for _ in range(25):
            h = max(abs(float(mean[3])), 1e-3)
            mean = F @ mean
            cov = F @ cov @ F.T + np.diag([sq(POS * h)] * 4 + [sq(VEL * h)] * 4)
            cov = (cov + cov.T) / 2.0
            s = kf_predict(s)
            assert np.array_equal(s.mean, mean) and np.array_equal(covariance(s), cov)

            box = from_center(*(mean[:2] + rng.normal(0, 15, 2)), *(np.abs(mean[2:4] + rng.normal(0, 4, 2)) + 1))
            h = max(abs(float(mean[3])), 1e-3)
            r = np.diag([sq(MEAS * h)] * 4)
            gain = cov @ H.T @ np.linalg.inv(H @ cov @ H.T + r)
            mean = mean + gain @ (np.array(to_center(box)) - H @ mean)
            ikh = np.eye(8) - gain @ H
            cov = ikh @ cov @ ikh.T + gain @ r @ gain.T
            cov = (cov + cov.T) / 2.0
            s = kf_update(s, box)
            assert np.array_equal(s.mean, mean) and np.array_equal(covariance(s), cov)
            cycles += 1
    assert cycles >= 200


def _random_box(rng):
    return from_center(*rng.uniform(0, 500, 2), *rng.uniform(5, 150, 2))


def _planes(states, shape=(-1,)):
    """Scalar filter states as batched forecast planes, (11, *shape)."""
    return np.stack([forecast_row(s) for s in states], axis=1).reshape(11, *shape)


def test_batch_filter_equals_scalar_filter():
    # A squaring or an operation order that differs from the scalar filter's
    # rounds differently for only a few heights in a thousand, so it takes
    # thousands of states, with a block no larger than the noise terms, to see it.
    rng = np.random.default_rng(2468)
    states = [
        KalmanState(np.concatenate([rng.uniform(0, 500, 2), rng.uniform(5, 150, 2), rng.normal(0, 3, 4)]),
                    (rng.uniform(0.1, 20), rng.uniform(0, 2), rng.uniform(0.01, 2)))
        for _ in range(9997)
    ]
    # negative and tiny heights and widths: the noise scale and the box size clamp
    states += [KalmanState([10.0, 10.0, w, h, 1.0, -1.0, 0.5, -2.0], (3.0, 1.0, 2.0)) for w, h in ((-4.0, -20.0), (1e-5, 1e-5), (0.0, 0.0))]
    boxes = [_random_box(rng) for _ in states]
    # the component planes lead, (T, D) axes follow, as in the tracker and the clone walk
    x = _planes(states, (100, 100))
    centers = batch_centers(box_array(boxes)).reshape(4, 100, 100)
    assert np.array_equal(centers, np.array([to_center(b) for b in boxes]).T.reshape(4, 100, 100))

    def assert_equal(batch, expected):
        assert batch.shape == x.shape and np.array_equal(batch, _planes(expected, x.shape[1:]))

    for batch_step, expected in [
        (kf_predict_batch, [kf_predict(s) for s in states]),
        (lambda x, **out: kf_update_batch(x, centers, **out), [kf_update(s, b) for s, b in zip(states, boxes)]),
    ]:
        assert_equal(batch_step(x), expected)
        # written in place, `out` aliasing the input, as the tracker's predict is
        inplace = x.copy()
        assert batch_step(inplace, out=inplace) is inplace
        assert_equal(inplace, expected)
    assert np.array_equal(batch_boxes(x).reshape(-1, 4), box_array(state_to_bbox(s) for s in states))


def test_prior_and_walk_step_equal_the_scalar_filter():
    rng = np.random.default_rng(97531)
    # heights below the noise scale's 1e-3 floor included
    boxes = [_random_box(rng) for _ in range(4000)] + [BoundingBox(5.0, 5.0, 2.0, h) for h in (1e-5, 1e-3, 2e-3)]
    expected = [kf_predict(kf_init(b)) for b in boxes]
    x = kf_prior_batch(batch_centers(box_array(boxes)))
    assert np.array_equal(x, _planes(expected))

    # one step of the clone walk: correct with a box, then predict
    measured = [_random_box(rng) for _ in boxes]
    walked = [kf_predict(kf_update(s, b)) for s, b in zip(expected, measured)]
    assert np.array_equal(kf_correct_predict_batch(x, batch_centers(box_array(measured))), _planes(walked))

    # as the walk steps: forecasts (11, T, D) of T tracks against D tentatives, each tentative's entry centers
    # (4, 1, D) shared by every track, written into a further plane
    t, d = 40, 100
    x = x[:, : t * d].reshape(11, t, d)
    centers = batch_centers(box_array(measured[:d]))[:, None]
    walked = [kf_predict(kf_update(s, measured[i % d])) for i, s in enumerate(expected[: t * d])]
    block = np.empty((2, *x.shape))
    block[0] = x
    plane = block[1]
    assert kf_correct_predict_batch(block[0], centers, out=plane) is plane
    assert np.array_equal(block[1], _planes(walked, (t, d))) and np.array_equal(block[0], x)
    assert np.array_equal(kf_correct_predict_batch(x, centers, out=x), _planes(walked, (t, d)))


def test_batch_boxes_rejects_non_finite_states():
    states = [KalmanState([x, 0.0, 10.0, 10.0, 0.0, 0.0, 0.0, 0.0], (1.0, 0.0, 1.0)) for x in (0.0, np.inf)]
    with pytest.raises(ValueError):
        state_to_bbox(states[1])
    with pytest.raises(ValueError):
        batch_boxes(_planes(states))
