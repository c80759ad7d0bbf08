"""The benchmark's probes wrap adptrack functions by module attribute name; every name must exist."""

import importlib
import types
from pathlib import Path

PROBES = Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"


def _load_probes():
    """perfbench/probes.py executed from its source, so that nothing is written beside it."""
    module = types.ModuleType("perfbench_probes")
    exec(compile(PROBES.read_text(), str(PROBES), "exec"), module.__dict__)
    return module


def test_probe_names_resolve():
    probes = _load_probes()
    mods = {name: importlib.import_module(f"adptrack.{name}") for name in ("assignment", "base_tracker", "cli", "metrics", "rollout")}
    replacements = probes.Tracer().replacements(mods) + probes.FrameClock().replacements(mods)
    assert len(replacements) > 30
    missing = [f"{module.__name__}.{name}" for module, name, _ in replacements if not hasattr(module, name)]
    assert missing == []
