"""Deterministic synthetic occlusion scenarios: ground truth, detections, features.

Identities move in horizontal lanes. A crossing pair shares one lane and
walks into a head-on meeting where the two boxes overlap heavily; at the
meeting the pair bounces (velocities swap), which is exactly the case a
constant-velocity extrapolation gets wrong. While an identity is covered by
a lower-indexed one its detection is dropped with a configurable probability
and, when emitted, its feature is a normalized blend of both identities'
base features. Non-crossing identities keep their own lane and never touch.

A scene is built as arrays: each identity's path parameters are drawn into
per-identity arrays, one expression gives the (frames, identities, 4) ground
truth box grid, `iou_array` blocks over chunks of frames' (frame, identity,
identity) cells find the occluders, and an emit mask keeps the detections,
which become the rows of one `core.Sequence`.

All randomness comes from counter-based streams keyed by (seed, frame,
identity), so output is a pure function of the configuration and frames can
be generated independently; each (frame, identity) stream fills one row of a
(frames, identities, 5 + feature_dim) draw array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BoundingBox, FeatureVec, Sequence, iou_array, unit_rows
from .metrics import LabeledBox

__all__ = ["ScenarioConfig", "Scenario", "generate", "occlusion_preset"]
_OCCLUDER_CELLS = 2**18  # at most this many (frame, identity, identity) cells per chunk of the occluder search


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 1
    frames: int = 64
    world: tuple[float, float] = (640.0, 360.0)
    identities: int = 4
    feature_dim: int = 16
    det_noise_px: float = 0.0
    feature_noise: float = 0.0
    occlusion_iou: float = 0.25
    drop_prob_occluded: float = 0.0
    mix_features: bool = True
    crossings: int = 0

    def __post_init__(self):
        if self.frames < 1 or self.identities < 1 or self.feature_dim < 2:
            raise ValueError("frames, identities and feature_dim must be positive (dim >= 2)")
        if self.world[0] <= 0 or self.world[1] <= 0:
            raise ValueError("world size must be positive")
        if not (0.0 <= self.drop_prob_occluded <= 1.0):
            raise ValueError("drop probability must lie in [0, 1]")
        if not (0.0 < self.occlusion_iou <= 1.0):
            raise ValueError("occlusion threshold must lie in (0, 1]")
        if self.crossings < 0 or 2 * self.crossings > self.identities:
            raise ValueError("crossings need two identities each")
        if self.det_noise_px < 0 or self.feature_noise < 0:
            raise ValueError("noise magnitudes must be non-negative")


@dataclass(frozen=True, eq=False)
class Scenario:
    gt: tuple[LabeledBox, ...]
    det_frames: Sequence  # frames 1 to `frames` of the configuration
    identity_features: dict[int, FeatureVec]


def _streams(seed: int, keys):
    """The stream of each (frame, identity) of `keys` in turn, as one `Generator` whose `Philox` state is set to the
    seed's key and the (0, 0, frame, identity) counter: each stream must be drawn before the next is taken."""
    bits = np.random.Philox(key=np.array([seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64))
    rng, state = np.random.Generator(bits), bits.state  # at counter 0, its buffer empty
    for key in keys:
        state["state"]["counter"][2:] = key
        bits.state = state
        yield rng


def _build_paths(cfg: ScenarioConfig) -> np.ndarray:
    """Each identity's path as nine (identities,) rows: box width, box height, cy, x0, vx, bounce frame, bounce vx,
    and the lo and hi between which a free runner reflects. A free runner never bounces (bounce frame inf, bounce
    vx 0); a crossing pair meets at its bounce frame and swaps velocities."""
    world_w, world_h = cfg.world
    n_lanes = cfg.identities - cfg.crossings
    lane_h = world_h / n_lanes
    paths = []
    for i in range(cfg.identities):
        rng = next(_streams(cfg.seed, [(0, i)]))
        height = lane_h * rng.uniform(0.6, 0.85)
        width = height * rng.uniform(0.35, 0.5)
        pair = i // 2 if i < 2 * cfg.crossings else None
        lane = pair if pair is not None else cfg.crossings + (i - 2 * cfg.crossings)
        cy = (lane + 0.5) * lane_h + rng.uniform(-0.06, 0.06) * lane_h
        margin = width / 2.0 + 8.0
        if pair is None:
            # numpy's uniform(low, high) below fails on this same test of high - low
            if (world_w - margin) - margin < 0:
                raise ValueError(f"identity {i + 1}'s box is {width:.6g} px wide, too wide to run in a world {world_w:.6g} px wide")
            x0 = rng.uniform(margin, world_w - margin)
            speed = rng.uniform(1.5, 3.5)
            path = (x0, speed if rng.uniform() < 0.5 else -speed, np.inf, 0.0)
        else:
            # Crossing pairs: member 0 starts left, member 1 right; the pair
            # meets mid-sequence and swaps velocities (a bounce).
            pair_rng = next(_streams(cfg.seed, [(0, 2**32 + pair)]))
            t_meet = cfg.frames * pair_rng.uniform(0.40, 0.60)
            start_l = pair_rng.uniform(margin, margin + 40.0)
            start_r = world_w - pair_rng.uniform(margin, margin + 40.0)
            closing = (start_r - start_l) / t_meet
            v_left = closing * pair_rng.uniform(0.45, 0.55)
            v_right = -(closing - v_left)
            path = (start_l, v_left, t_meet, v_right) if i % 2 == 0 else (start_r, v_right, t_meet, v_left)
        paths.append((width, height, cy, *path, margin, world_w - margin))
    return np.array(paths).T


def generate(cfg: ScenarioConfig) -> Scenario:
    """Build a scenario; a pure, deterministic function of the configuration.

    The detections of all frames are checked in bulk as `Detection` checks one: finite boxes of positive size,
    confidences in [0, 1] and features normalised as one `unit_rows` block.
    """
    w, h, cy, x0, vx, bounce_t, bounce_vx, lo, hi = _build_paths(cfg)
    n, d = cfg.identities, cfg.feature_dim
    t = np.arange(cfg.frames, dtype=np.float64)[:, None]
    x = x0 + vx * np.minimum(t, bounce_t) + bounce_vx * np.maximum(0.0, t - bounce_t)
    # Free runners reflect between lo and hi (np.mod rounds as Python's % does); a zero span holds one at lo.
    span = hi - lo
    with np.errstate(invalid="ignore"):  # the nan that a zero span's mod gives is not kept
        reflected = np.where(span > 0, lo + (span - np.abs(np.mod(x - lo, 2.0 * span) - span)), lo)
    cx = np.where(np.isinf(bounce_t), reflected, x)
    grid = np.stack(np.broadcast_arrays(cx - w / 2.0, cy - h / 2.0, w, h), axis=-1)  # (frames, identities, 4)
    gt = tuple(LabeledBox(f, i, BoundingBox(*box)) for f, row in enumerate(grid.tolist(), 1) for i, box in enumerate(row, 1))

    # [f, i, j] pairs identity i with identity j at frame f. Identity i is covered by the lower-indexed j of the
    # first largest intersection among those whose IOU with it passes the threshold.
    occluder, best = np.zeros((cfg.frames, n), dtype=np.intp), np.zeros((cfg.frames, n))
    for f in range(0, cfg.frames, step := max(1, _OCCLUDER_CELLS // n**2)):
        g = grid[f : f + step]
        right, bottom = g[..., 0] + g[..., 2], g[..., 1] + g[..., 3]
        iw = np.minimum(right[..., :, None], right[..., None, :]) - np.maximum(g[:, :, None, 0], g[:, None, :, 0])
        ih = np.minimum(bottom[..., :, None], bottom[..., None, :]) - np.maximum(g[:, :, None, 1], g[:, None, :, 1])
        covers = (iou_array(g[:, :, None], g[:, None, :]) > cfg.occlusion_iou) & np.tri(n, k=-1, dtype=bool)
        inter = np.where(covers, np.maximum(iw, 0.0) * np.maximum(ih, 0.0), 0.0)
        occluder[f : f + step], best[f : f + step] = inter.argmax(-1), inter.max(-1)
    occluded = best > 0.0
    lam = best / (w * h)

    # Base features live on their own streams so path-parameter draws and
    # feature draws cannot interfere. A Gaussian draw of dimension >= 2 passes every `unit_rows` check.
    base_feats = unit_rows([r.normal(size=d) for r in _streams(cfg.seed, ((0, 2**33 + i) for i in range(n)))])[0]
    identity_features = dict(enumerate(FeatureVec.of_unit_rows(base_feats), start=1))
    # Each (frame, identity) draws from its own stream, in this order: box jitter, drop, feature noise.
    streams = _streams(cfg.seed, ((f, i) for f in range(1, cfg.frames + 1) for i in range(n)))
    draws = np.array([np.concatenate([r.normal(size=4), [r.uniform()], r.normal(size=d)]) for r in streams])
    draws = draws.reshape(cfg.frames, n, 5 + d)

    emit = ~(occluded & (draws[..., 4] < cfg.drop_prob_occluded))
    boxes = grid + draws[..., :4] * cfg.det_noise_px
    boxes[..., 2:] = np.maximum(boxes[..., 2:], 2.0)
    mixed = (1.0 - lam)[..., None] * base_feats + lam[..., None] * base_feats[occluder]
    feats = np.where((occluded & cfg.mix_features)[..., None], mixed, base_feats) + cfg.feature_noise * draws[..., 5:]
    conf = np.where(occluded, np.maximum(0.2, 0.95 - 0.6 * lam), 0.95)

    boxes, conf = boxes[emit], conf[emit]
    unit, failed, message = unit_rows(feats[emit])
    if failed or not (np.isfinite(boxes).all() and (boxes[:, 2:] > 0).all() and ((conf >= 0) & (conf <= 1)).all()):
        raise ValueError(message or "detections need finite boxes of positive size and confidences in [0, 1]")
    return Scenario(gt, Sequence.of_rows(np.nonzero(emit)[0] + 1, boxes, unit, conf, last=cfg.frames), identity_features)


# Frozen benchmark: 20 crossing scenarios with feature mixing and detection
# drops, verified to make the online base tracker lose identities.
OCCLUSION_PRESET_SEEDS = tuple(range(9001, 9021))


def occlusion_preset() -> list[ScenarioConfig]:
    return [
        ScenarioConfig(
            seed=seed,
            frames=72,
            world=(640.0, 360.0),
            identities=6,
            feature_dim=16,
            det_noise_px=0.4,
            feature_noise=0.12,
            occlusion_iou=0.2,
            drop_prob_occluded=0.9,
            mix_features=True,
            crossings=2,
        )
        for seed in OCCLUSION_PRESET_SEEDS
    ]
