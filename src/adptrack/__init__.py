"""Near-online multi-object tracking via rollout over an online base tracker."""

__version__ = "0.1.0"

from .core import BoundingBox, Detection, FeatureVec, FrameData, Sequence, from_center, iou, to_center  # noqa: F401
from .assignment import Matching, WeightMatrix, brute_force_match, hungarian_max  # noqa: F401
from .base_tracker import TrackerParams, TrackerState  # noqa: F401
from .rollout import AdpConfig, Variant  # noqa: F401
from .metrics import BoxTable, LabeledBox, MetricsReport, evaluate  # noqa: F401
from .synthworld import Scenario, ScenarioConfig, generate  # noqa: F401
