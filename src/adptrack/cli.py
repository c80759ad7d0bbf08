"""Command-line front end: track, eval, synth, sweep, mda-oracle.

Every command resolves its parameters, runs deterministically and writes a
JSON run manifest next to its primary output, so any run can be reproduced
from the manifest alone. Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .base_tracker import TrackerParams
from .base_tracker import run as run_base
from .mda_dp import MdaInstance, avs_solve, exact_solve
from .metrics import DEFAULT_IOU_THRESHOLD, LabeledBox, evaluate
from .motio import (
    DataError,
    attach_features,
    read_detections,
    read_features,
    read_gt,
    write_detections,
    write_features,
    write_gt,
    write_results,
)
from .rollout import AdpConfig, Variant
from .rollout import run as run_adp
from .synthworld import ScenarioConfig, generate, occlusion_preset

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

# (column, MetricsReport field, format) of each reported metric, in column order
_METRICS = (
    ("IDF1", "idf1", ".6f"),
    ("MOTA", "mota", ".6f"),
    ("FP", "fp", "d"),
    ("FN", "fn", "d"),
    ("IDSW", "idsw", "d"),
    ("Frag", "frag", "d"),
)
_COLUMNS = ",".join(column for column, _, _ in _METRICS)
_EVAL_HEADER = f"sequence,{_COLUMNS}"
_SWEEP_HEADER = f"param,value,{_COLUMNS},runtime_s"

# Flags that set the config field of their name, with the field's type and default.
_PARAM_FLAGS = ("match_threshold", "max_age")
_ADP_FLAGS = ("alpha", "horizon", "window", "beta", "cand_iou", "cand_app", "crowd_ratio")
_SWEEP_PARAMS = ("alpha", "horizon", "window", "beta")

# synth flags (by dest) that set one ScenarioConfig field each; unset, they leave its default.
_SCENARIO_FLAGS = {
    "seed": "seed",
    "frames": "frames",
    "objects": "identities",
    "crossings": "crossings",
    "noise": "det_noise_px",
    "feature_dim": "feature_dim",
    "drop_prob": "drop_prob_occluded",
    "feature_noise": "feature_noise",
    "occlusion_iou": "occlusion_iou",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _write_manifest(out_path: Path, command: str, args: dict, inputs: list, outputs: list) -> None:
    manifest = {
        "tool": "adptrack",
        "version": __version__,
        "command": command,
        "args": args,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
    }
    out_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _load_sequence(dets_path, features_path):
    frames = read_detections(dets_path)
    table = read_features(features_path, frames)
    return attach_features(frames, table)


def _tracker_params(ns) -> TrackerParams:
    return TrackerParams(**{name: getattr(ns, name) for name in _PARAM_FLAGS})


def _adp_config(ns) -> AdpConfig:
    return AdpConfig(
        variant=Variant(ns.variant),
        enable_candidate_filter=not ns.no_candidate_filter,
        enable_crowd_heuristic=not ns.no_crowd,
        **{name: getattr(ns, name) for name in _ADP_FLAGS},
    )


def _metric_cells(report) -> str:
    return ",".join(format(getattr(report, field), fmt) for _, field, fmt in _METRICS)


def cmd_track(ns) -> int:
    frames = _load_sequence(ns.dets, ns.features)
    if not frames:
        raise DataError(f"{ns.dets}: no frames to track")
    params = _tracker_params(ns)
    if ns.mode == "base":
        rows = run_base(frames, params)
    else:
        rows = run_adp(frames, params, _adp_config(ns))
    write_results(ns.out, rows)
    _write_manifest(Path(str(ns.out) + ".manifest.json"), "track", vars(ns), [ns.dets, ns.features], [ns.out])
    print(f"wrote {ns.out}: {len(rows)} rows")
    return EXIT_OK


def cmd_eval(ns) -> int:
    gt = read_gt(ns.gt)
    res = read_gt(ns.res)
    report = evaluate(gt, res, ns.iou_thresh)
    name = ns.name if ns.name else Path(ns.res).stem
    line = f"{name},{_metric_cells(report)}"
    Path(ns.out).write_text(_EVAL_HEADER + "\n" + line + "\n", encoding="utf-8")
    if ns.json_out:
        payload = {"sequence": name, **{column: getattr(report, field) for column, field, _ in _METRICS}}
        Path(ns.json_out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    _write_manifest(
        Path(str(ns.out) + ".manifest.json"),
        "eval",
        vars(ns),
        [ns.gt, ns.res],
        [ns.out] + ([ns.json_out] if ns.json_out else []),
    )
    print(_EVAL_HEADER)
    print(line)
    return EXIT_OK


def _emit_scenario(cfg: ScenarioConfig, out_dir: Path) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    scenario = generate(cfg)
    gt_path = out_dir / "gt.txt"
    det_path = out_dir / "det.txt"
    feat_path = out_dir / "features.csv"
    write_gt(gt_path, list(scenario.gt))
    write_detections(det_path, list(scenario.det_frames))
    write_features(feat_path, list(scenario.det_frames))
    return [gt_path, det_path, feat_path]


def cmd_synth(ns) -> int:
    out_dir = Path(ns.out_dir)
    given = {name: getattr(ns, dest) for dest, name in _SCENARIO_FLAGS.items() if getattr(ns, dest) is not None}
    if ns.no_mix:
        given["mix_features"] = False
    if ns.preset:
        if given:
            raise DataError("--preset cannot be combined with explicit scenario flags")
        if ns.preset != "occlusion-20":
            raise DataError(f"unknown preset {ns.preset!r}")
        outputs = []
        for i, cfg in enumerate(occlusion_preset()):
            outputs.extend(_emit_scenario(cfg, out_dir / f"occ_{i:02d}"))
        _write_manifest(out_dir / "manifest.json", "synth", vars(ns), [], outputs)
        print(f"wrote {len(outputs)} files under {out_dir}")
        return EXIT_OK

    outputs = _emit_scenario(ScenarioConfig(**given), out_dir)
    _write_manifest(out_dir / "manifest.json", "synth", vars(ns), [], outputs)
    print(f"wrote scenario under {out_dir}")
    return EXIT_OK


def _sweep_worker(task):
    """(report, tracking seconds) of one sweep value."""
    dets_path, features_path, gt_path, ns_dict, param, value = task
    ns = argparse.Namespace(**ns_dict)
    frames = _load_sequence(dets_path, features_path)
    setattr(ns, param, type(getattr(AdpConfig, param))(value))
    params, cfg = _tracker_params(ns), _adp_config(ns)
    start = time.perf_counter()
    rows = run_adp(frames, params, cfg)
    runtime = time.perf_counter() - start
    pred_boxes = [LabeledBox(frame=f, id=tid, bbox=det.bbox) for f, tid, det in rows]
    return evaluate(read_gt(gt_path), pred_boxes), runtime


def cmd_sweep(ns) -> int:
    if ns.param not in _SWEEP_PARAMS:
        raise DataError(f"unknown sweep parameter {ns.param!r}, expected one of {_SWEEP_PARAMS}")
    try:
        values = [float(v) for v in ns.values.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise DataError(f"bad --values list: {exc}") from None
    if not values:
        raise DataError("--values must list at least one value")
    if isinstance(getattr(AdpConfig, ns.param), int):
        for v in values:
            if v != int(v) or v < 1:
                raise DataError(f"{ns.param} values must be positive integers, got {v}")

    tasks = [(ns.dets, ns.features, ns.gt, vars(ns), ns.param, v) for v in values]
    if len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(4, len(tasks))) as pool:
            results = list(pool.map(_sweep_worker, tasks))
    else:
        results = [_sweep_worker(tasks[0])]

    lines = [_SWEEP_HEADER]
    for value, (report, runtime) in zip(values, results):
        lines.append(f"{ns.param},{value:g},{_metric_cells(report)},{runtime:.3f}")
    Path(ns.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_manifest(Path(str(ns.out) + ".manifest.json"), "sweep", vars(ns), [ns.dets, ns.features, ns.gt], [ns.out])
    print("\n".join(lines))
    return EXIT_OK


def cmd_mda_oracle(ns) -> int:
    if ns.m < 1 or ns.m > 4:
        raise DataError(f"--m must lie in 1..4, got {ns.m}")
    if ns.n_layers < 2 or ns.n_layers > 5:
        raise DataError(f"--n-layers must lie in 2..5, got {ns.n_layers}")
    if ns.instances < 1:
        raise DataError(f"--instances must be >= 1, got {ns.instances}")

    rng = np.random.default_rng(ns.seed)
    stages = ns.n_layers - 1
    lines = ["instance,exact,avs,gap"]
    max_gap = 0.0
    for idx in range(ns.instances):
        arcs = [rng.uniform(0.0, 1.0, size=(ns.m, ns.m)) for _ in range(stages)]
        if ns.bonus:
            bonus_mat = rng.uniform(0.0, 2.0, size=(ns.m, ns.m))
            inst = MdaInstance(arcs, grouping_bonus=lambda chain, b=bonus_mat: float(b[chain[0], chain[-1]]))
        else:
            inst = MdaInstance(arcs)
        _, exact_value = exact_solve(inst)
        _, avs_value = avs_solve(inst, lambda k, hist, a=arcs: a[k])
        gap = exact_value - avs_value
        max_gap = max(max_gap, gap)
        if gap < -1e-9:
            raise DataError(f"instance {idx}: forward pass beat the exact optimum (gap {gap})")
        if not ns.bonus and abs(gap) > 1e-9:
            raise DataError(f"instance {idx}: additive instance has nonzero gap {gap}")
        lines.append(f"{idx},{exact_value:.9g},{avs_value:.9g},{gap:.9g}")
    lines.append(f"# instances={ns.instances} family={'bonus' if ns.bonus else 'additive'} max_gap={max_gap:.9g}")

    text = "\n".join(lines) + "\n"
    if ns.out:
        Path(ns.out).write_text(text, encoding="utf-8")
        _write_manifest(Path(str(ns.out) + ".manifest.json"), "mda-oracle", vars(ns), [], [ns.out])
    print(text, end="")
    return EXIT_OK


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def build_parser() -> _Parser:
    parser = _Parser(prog="adptrack", description=__doc__)
    parser.add_argument("--version", action="version", version=f"adptrack {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # tracker and rollout flags shared by track and sweep
    tracker = argparse.ArgumentParser(add_help=False)
    tracker.add_argument("--variant", choices=[v.value for v in Variant], default=AdpConfig.variant.value)
    for cls, names in ((AdpConfig, _ADP_FLAGS), (TrackerParams, _PARAM_FLAGS)):
        for name in names:
            default = getattr(cls, name)
            tracker.add_argument(_flag(name), type=type(default), default=default)
    tracker.add_argument("--no-candidate-filter", action="store_true")
    tracker.add_argument("--no-crowd", action="store_true")

    p_track = sub.add_parser("track", parents=[tracker], help="run the base or rollout tracker on a detection file")
    p_track.add_argument("--dets", required=True)
    p_track.add_argument("--features", required=True)
    p_track.add_argument("--out", required=True)
    p_track.add_argument("--mode", choices=("base", "adp"), default="adp")

    p_eval = sub.add_parser("eval", help="score a result file against ground truth")
    p_eval.add_argument("--gt", required=True)
    p_eval.add_argument("--res", required=True)
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--json-out", default=None)
    p_eval.add_argument("--iou-thresh", type=float, default=DEFAULT_IOU_THRESHOLD)
    p_eval.add_argument("--name", default=None)

    p_synth = sub.add_parser("synth", help="generate a synthetic scenario (or the occlusion-20 preset)")
    p_synth.add_argument("--out-dir", required=True)
    p_synth.add_argument("--preset", default=None)
    for dest, name in _SCENARIO_FLAGS.items():
        p_synth.add_argument(_flag(dest), type=type(getattr(ScenarioConfig, name)), default=None)
    p_synth.add_argument("--no-mix", action="store_true", default=None)

    p_sweep = sub.add_parser("sweep", parents=[tracker], help="evaluate the tracker over a list of parameter values")
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--values", required=True)
    p_sweep.add_argument("--dets", required=True)
    p_sweep.add_argument("--features", required=True)
    p_sweep.add_argument("--gt", required=True)
    p_sweep.add_argument("--out", required=True)

    p_mda = sub.add_parser("mda-oracle", help="compare the exact solver with the forward pass on random instances")
    p_mda.add_argument("--m", type=int, required=True)
    p_mda.add_argument("--n-layers", type=int, required=True)
    p_mda.add_argument("--instances", type=int, required=True)
    p_mda.add_argument("--seed", type=int, required=True)
    p_mda.add_argument("--bonus", action="store_true")
    p_mda.add_argument("--out", default=None)

    return parser


_COMMANDS = {
    "track": cmd_track,
    "eval": cmd_eval,
    "synth": cmd_synth,
    "sweep": cmd_sweep,
    "mda-oracle": cmd_mda_oracle,
}


def replay_manifest(path) -> int:
    """Re-run a command from its manifest; outputs are reproduced byte-exactly."""
    manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    func = _COMMANDS[manifest["command"]]
    return func(argparse.Namespace(**manifest["args"]))


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return _COMMANDS[ns.command](ns)
    except DataError as exc:
        print(f"adptrack: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, OSError) as exc:
        print(f"adptrack: error: {exc}", file=sys.stderr)
        return EXIT_DATA


def console_main() -> None:
    sys.exit(main())
