"""Deterministic synthetic occlusion scenarios: ground truth, detections, features.

Identities move in horizontal lanes. A crossing pair shares one lane and
walks into a head-on meeting where the two boxes overlap heavily; at the
meeting the pair bounces (velocities swap), which is exactly the case a
constant-velocity extrapolation gets wrong. While an identity is covered by
a lower-indexed one its detection is dropped with a configurable probability
and, when emitted, its feature is a normalized blend of both identities'
base features. Non-crossing identities keep their own lane and never touch.

All randomness comes from counter-based streams keyed by (seed, frame,
identity), so output is a pure function of the configuration and frames can
be generated independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BoundingBox, FeatureVec, FrameData, iou, split_frames, unit_rows
from .metrics import LabeledBox

__all__ = ["ScenarioConfig", "Scenario", "generate", "occlusion_preset"]


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
    det_frames: tuple[FrameData, ...]
    identity_features: dict[int, FeatureVec]


def _stream(seed: int, frame: int, identity: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64)
    counter = np.array([0, 0, frame, identity], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def _reflect(x: float, lo: float, hi: float) -> float:
    span = hi - lo
    if span <= 0:
        return lo
    z = (x - lo) % (2.0 * span)
    return lo + (span - abs(z - span))


@dataclass(frozen=True)
class _IdentityPath:
    width: float
    height: float
    cy: float
    x0: float
    vx: float
    # Bounce partner kinematics; None for free-running identities.
    bounce_t: float | None
    bounce_vx: float | None
    lo: float
    hi: float

    def center_x(self, t: float) -> float:
        if self.bounce_t is None:
            return _reflect(self.x0 + self.vx * t, self.lo, self.hi)
        head = self.vx * min(t, self.bounce_t)
        tail = self.bounce_vx * max(0.0, t - self.bounce_t)
        return self.x0 + head + tail

    def box(self, t: float) -> BoundingBox:
        cx = self.center_x(t)
        return BoundingBox(cx - self.width / 2.0, self.cy - self.height / 2.0, self.width, self.height)


def _build_paths(cfg: ScenarioConfig) -> list[_IdentityPath]:
    world_w, world_h = cfg.world
    n_lanes = cfg.identities - cfg.crossings
    lane_h = world_h / n_lanes
    paths: list[_IdentityPath] = []
    for i in range(cfg.identities):
        rng = _stream(cfg.seed, 0, i)
        height = lane_h * rng.uniform(0.6, 0.85)
        width = height * rng.uniform(0.35, 0.5)
        pair = i // 2 if i < 2 * cfg.crossings else None
        lane = pair if pair is not None else cfg.crossings + (i - 2 * cfg.crossings)
        cy = (lane + 0.5) * lane_h + rng.uniform(-0.06, 0.06) * lane_h
        margin = width / 2.0 + 8.0
        if pair is None:
            x0 = rng.uniform(margin, world_w - margin)
            speed = rng.uniform(1.5, 3.5)
            vx = speed if rng.uniform() < 0.5 else -speed
            paths.append(_IdentityPath(width, height, cy, x0, vx, None, None, margin, world_w - margin))
        else:
            # Crossing pairs: member 0 starts left, member 1 right; the pair
            # meets mid-sequence and swaps velocities (a bounce).
            pair_rng = _stream(cfg.seed, 0, 2**32 + pair)
            t_meet = cfg.frames * pair_rng.uniform(0.40, 0.60)
            start_l = pair_rng.uniform(margin, margin + 40.0)
            start_r = world_w - pair_rng.uniform(margin, margin + 40.0)
            closing = (start_r - start_l) / t_meet
            v_left = closing * pair_rng.uniform(0.45, 0.55)
            v_right = -(closing - v_left)
            if i % 2 == 0:
                paths.append(_IdentityPath(width, height, cy, start_l, v_left, t_meet, v_right, margin, world_w - margin))
            else:
                paths.append(_IdentityPath(width, height, cy, start_r, v_right, t_meet, v_left, margin, world_w - margin))
    return paths


def generate(cfg: ScenarioConfig) -> Scenario:
    """Build a scenario; a pure, deterministic function of the configuration.

    The detections of all frames are checked in bulk as `Detection` checks one: finite boxes of positive size,
    confidences in [0, 1] and features normalised as one `unit_rows` block.
    """
    paths = _build_paths(cfg)
    gt: list[LabeledBox] = []
    # each emitted detection's frame, box and confidence, and its feature before normalisation
    at, kept, feats = [], [], []
    # Base features live on their own streams so path-parameter draws and
    # feature draws cannot interfere. A Gaussian draw of dimension >= 2 passes every `unit_rows` check.
    base_feats = unit_rows([_stream(cfg.seed, 0, 2**33 + i).normal(size=cfg.feature_dim) for i in range(cfg.identities)])[0]
    identity_features = dict(enumerate(FeatureVec.of_unit_rows(base_feats), start=1))

    for frame in range(1, cfg.frames + 1):
        t = float(frame - 1)
        boxes = [p.box(t) for p in paths]
        for i, box in enumerate(boxes):
            gt.append(LabeledBox(frame=frame, id=i + 1, bbox=box))
        for i, box in enumerate(boxes):
            occluder = None
            best_inter = 0.0
            for j in range(i):
                if iou(box, boxes[j]) > cfg.occlusion_iou:
                    iw = min(box.right, boxes[j].right) - max(box.left, boxes[j].left)
                    ih = min(box.bottom, boxes[j].bottom) - max(box.top, boxes[j].top)
                    inter = max(iw, 0.0) * max(ih, 0.0)
                    if inter > best_inter:
                        best_inter = inter
                        occluder = j
            lam = best_inter / box.area if occluder is not None else 0.0

            rng = _stream(cfg.seed, frame, i)
            jitter = rng.normal(size=4)
            u_drop = rng.uniform()
            feat_noise = rng.normal(size=cfg.feature_dim)

            if occluder is not None and u_drop < cfg.drop_prob_occluded:
                continue
            left = box.left + jitter[0] * cfg.det_noise_px
            top = box.top + jitter[1] * cfg.det_noise_px
            width = max(box.width + jitter[2] * cfg.det_noise_px, 2.0)
            height = max(box.height + jitter[3] * cfg.det_noise_px, 2.0)
            if occluder is not None and cfg.mix_features:
                base = (1.0 - lam) * base_feats[i] + lam * base_feats[occluder]
            else:
                base = base_feats[i]
            feats.append(base + cfg.feature_noise * feat_noise)
            at.append(frame)
            kept.append((left, top, width, height, 0.95 if occluder is None else max(0.2, 0.95 - 0.6 * lam)))

    rows = np.array(kept, dtype=np.float64).reshape(-1, 5)
    boxes, conf = rows[:, :4].copy(), rows[:, 4].copy()
    unit, failed, message = unit_rows(np.reshape(feats, (-1, cfg.feature_dim)))
    if failed or not (np.isfinite(boxes).all() and (boxes[:, 2:] > 0).all() and ((conf >= 0) & (conf <= 1)).all()):
        raise ValueError(message or "detections need finite boxes of positive size and confidences in [0, 1]")
    det_frames = split_frames(cfg.frames, np.array(at, dtype=np.int64), boxes, unit, conf)
    return Scenario(gt=tuple(gt), det_frames=tuple(det_frames), identity_features=identity_features)


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
