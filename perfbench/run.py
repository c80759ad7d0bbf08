"""End-to-end and per-layer benchmark of the adptrack tracker.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload occ-adp [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all

The benchmark follows a user's own path in one process: set-up generates the
scenes with `synthworld` and writes their input files with `motio`; then each
operation runs `adptrack track` and `adptrack eval` on one sequence in-process
through `adptrack.cli.main`, and checks the output. Scenes are a pure function
of ``--seed``; the tracker sees only the files.

With ``--trace 0`` it makes one pass over the scenes, then repeats operations
while the next one fits in ``--seconds``, and reports the end-to-end metrics.
With ``--trace 1`` it runs one untraced and one traced pass and reports the
per-layer metrics. End-to-end timings are reported at reference speed: each
is scaled by readings of a speed gauge taken next to it (gauge.py), because
the host's speed drifts. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. See NOTES.md for the
workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from gauge import NOMINAL_S, Gauge, at_reference_speed, windowed
from probes import LAYER_UNITS, SPAN_METRICS, FrameClock, Tracer, patched

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"
REFERENCE_FILE = BENCH_DIR / "reference_digests.json"

SETUP_ROUNDS = 3  # set-up is repeated and its median reported
GAUGE_READS = 3  # gauge readings taken before and after each timed command or set-up step
EVAL_MIN_S = 0.2  # `eval` repeats until its runs add up to this, so that a short one is not timed once
ADP_ARGS = ("--mode", "adp", "--horizon", "10")


@dataclass(frozen=True)
class Workload:
    default_seed: int
    crowd: bool  # 20 identities and 6 crossing pairs instead of the preset's 6 and 2
    track_args: tuple[str, ...]
    scenes: int  # 72 frames each: at least 200 tracked frames, and as many as one pass fits in a run


WORKLOADS = {
    "occ-adp": Workload(9001, False, ADP_ARGS + ("--variant", "main"), 8),
    "crowd-base": Workload(9003, True, ("--mode", "base"), 5),
    "crowd-f2": Workload(9003, True, ADP_ARGS + ("--variant", "f2"), 8),
}

END_TO_END_UNITS = {
    "frame_ms_p50": "ms",
    "frame_ms_p95": "ms",
    "track_fps": "1/s",
    "eval_ms_per_frame": "ms",
    "idf1": "ratio",
    "mota": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Scene:
    name: str
    dets: Path
    features: Path
    gt: Path
    gt_frames: int
    det_boxes: dict  # frame -> set of (left, top, width, height, conf) strings from det.txt


@dataclass
class Operation:
    """One sequence, tracked and then evaluated."""

    scene: str
    gt_frames: int
    frame_s: list = field(default_factory=list)  # wall time of each tracked frame
    track_s: float = 0.0  # wall time of the commands, gauge readings taken out
    eval_s: float = 0.0
    track_readings: list = field(default_factory=list)  # one gauge reading after each frame
    frame_ref_s: list = field(default_factory=list)  # the same times at reference speed (gauge.py)
    track_ref_s: float = 0.0
    eval_ref_s: float = 0.0
    digest: str = ""
    scores: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def import_adptrack():
    src = ROOT / "src"
    if not (src / "adptrack" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no adptrack sources under {src}")
    sys.path.insert(0, str(src))
    import adptrack.assignment
    import adptrack.base_tracker
    import adptrack.cli
    import adptrack.metrics
    import adptrack.motio
    import adptrack.rollout
    import adptrack.synthworld

    if Path(adptrack.cli.__file__).resolve().parent != (src / "adptrack").resolve():
        raise SystemExit(f"perfbench: imported adptrack from {adptrack.cli.__file__}, not from {src}")
    return {
        name: getattr(adptrack, name)
        for name in ("assignment", "base_tracker", "cli", "metrics", "motio", "rollout", "synthworld")
    }


def scene_configs(mods, workload: Workload, seed: int):
    preset = mods["synthworld"].occlusion_preset()[0]
    if workload.crowd:
        preset = replace(preset, identities=20, crossings=6)
    return [replace(preset, seed=seed + i) for i in range(workload.scenes)]


def _det_boxes(det_path: Path) -> dict:
    boxes: dict = {}
    for line in det_path.read_text(encoding="utf-8").splitlines():
        fields = line.split(",")
        boxes.setdefault(int(fields[0]), set()).add(tuple(fields[2:7]))
    return boxes


def set_up(mods, configs, scene_dir: Path, gauge: Gauge):
    """Generate and write every scene SETUP_ROUNDS times; returns the scenes and per-round timings.

    Round times are at reference speed; generation times are wall times.
    """
    sw, mo = mods["synthworld"], mods["motio"]
    round_s, generate_s = [], []
    for _ in range(SETUP_ROUNDS):
        first = len(gauge.readings)
        gauge.read(GAUGE_READS)
        start = time.perf_counter()
        gen = 0.0
        for cfg in configs:
            out = scene_dir / f"seq-{cfg.seed}"
            out.mkdir(parents=True, exist_ok=True)
            g = time.perf_counter()
            scenario = sw.generate(cfg)
            gen += time.perf_counter() - g
            mo.write_gt(out / "gt.txt", list(scenario.gt))
            mo.write_detections(out / "det.txt", list(scenario.det_frames))
            mo.write_features(out / "features.csv", list(scenario.det_frames))
        elapsed = time.perf_counter() - start
        gauge.read(GAUGE_READS)
        round_s.append(at_reference_speed(elapsed, gauge.readings[first:]))
        generate_s.append(gen)
    scenes = []
    for cfg in configs:
        out = scene_dir / f"seq-{cfg.seed}"
        scenes.append(Scene(f"seq-{cfg.seed}", out / "det.txt", out / "features.csv", out / "gt.txt",
                            cfg.frames, _det_boxes(out / "det.txt")))
    return scenes, round_s, generate_s


def check_result(path: Path, scene: Scene) -> list[str]:
    """Every row's box is one of its frame's input detections and (frame, id) is unique."""
    problems, seen = [], set()
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        fields = line.split(",")
        key = (int(fields[0]), int(fields[1]))
        if key in seen:
            problems.append(f"line {lineno}: duplicate (frame, id) {key}")
        seen.add(key)
        if tuple(fields[2:7]) not in scene.det_boxes.get(key[0], ()):
            problems.append(f"line {lineno}: box {fields[2:7]} is not an input detection of frame {key[0]}")
    return problems


def _command(cli_main, argv) -> int | str:
    """Exit code of one `adptrack` command; an exception escaping it would end a real run non-zero."""
    try:
        return cli_main(argv)
    except Exception as exc:  # the operation fails, the benchmark goes on
        return f"{type(exc).__name__}: {exc}"


def run_sequence(cli_main, scene: Scene, workload: Workload, out_dir: Path, clock: FrameClock) -> Operation:
    """Track and evaluate one scene; with a gauge on the clock, also give its timings at reference speed.

    During `track` the clock reads the gauge after every frame, outside the
    frame's time; the time those readings take is taken out of the command's
    time. Each frame is scaled by the readings next to it, and the rest of the
    command (file I/O, manifest) by the median of its readings. With a gauge,
    `eval` runs again until its runs add up to EVAL_MIN_S; its time is their
    median, and gauge readings bracket them all.
    """
    op = Operation(scene.name, scene.gt_frames)
    res = out_dir / f"{scene.name}.txt"
    scores = out_dir / f"{scene.name}.eval.json"
    track_argv = ["track", "--dets", str(scene.dets), "--features", str(scene.features), "--out", str(res),
                  *workload.track_args]
    eval_argv = ["eval", "--gt", str(scene.gt), "--res", str(res), "--out", str(out_dir / f"{scene.name}.eval.csv"),
                 "--json-out", str(scores), "--name", scene.name]
    gauge = clock.gauge or Gauge()  # an unread gauge when timings are not scaled
    with contextlib.redirect_stdout(io.StringIO()):  # the commands' own report lines
        frame, reading, spent = len(clock.samples), len(gauge.readings), gauge.spent_s
        start = time.perf_counter()
        code = _command(cli_main, track_argv)
        op.track_s = time.perf_counter() - start - (gauge.spent_s - spent)
        op.frame_s = clock.samples[frame:]
        op.track_readings = gauge.readings[reading:]
        if code != 0:
            op.problems.append(f"adptrack track failed: {code}")
            return op
        scaled = clock.gauge is not None and len(op.track_readings) == len(op.frame_s) > 0
        if scaled:
            op.frame_ref_s = windowed(op.frame_s, op.track_readings)
            rest_s = op.track_s - sum(op.frame_s)
            op.track_ref_s = sum(op.frame_ref_s) + at_reference_speed(rest_s, op.track_readings)
            reading = len(gauge.readings)
            gauge.read(GAUGE_READS)
        eval_s = []
        while not eval_s or (scaled and code == 0 and sum(eval_s) < EVAL_MIN_S):
            start = time.perf_counter()
            code = _command(cli_main, eval_argv)
            eval_s.append(time.perf_counter() - start)
        op.eval_s = statistics.median(eval_s)
        if scaled:
            gauge.read(GAUGE_READS)
            op.eval_ref_s = at_reference_speed(op.eval_s, gauge.readings[reading:])
    if code != 0:
        op.problems.append(f"adptrack eval failed: {code}")
        return op
    op.digest = hashlib.sha256(res.read_bytes()).hexdigest()
    op.scores = json.loads(scores.read_text(encoding="utf-8"))
    op.problems.extend(check_result(res, scene))
    return op


def run_ops(mods, scenes, workload, out_dir: Path, clock: FrameClock, tracer: Tracer | None = None):
    """Track and evaluate each scene in turn, with the frame clock (and the tracer, if given) installed."""
    out_dir.mkdir(parents=True, exist_ok=True)
    replacements = clock.replacements(mods) + (tracer.replacements(mods) if tracer else [])
    cli_main = tracer.span("cli.self_s")(mods["cli"].main) if tracer else mods["cli"].main
    with patched(replacements):
        return [run_sequence(cli_main, scene, workload, out_dir, clock) for scene in scenes]


def check_digests(ops, expected: dict, label: str) -> None:
    """Record a problem on each operation whose result digest differs from `expected`."""
    for op in ops:
        want = expected.get(op.scene)
        if want is not None and op.digest and op.digest != want:
            op.problems.append(f"result digest {op.digest[:12]} differs from {label} {want[:12]}")


def reference_digests(workload_name: str, seed: int) -> dict:
    reference = json.loads(REFERENCE_FILE.read_text(encoding="utf-8")).get(workload_name, {})
    return reference.get("sequences", {}) if reference.get("seed") == seed else {}


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(mods, args, seed, configs) -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": seed,
        "scene_seeds": [cfg.seed for cfg in configs],
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(ops, first, setup_s: float, wall: bool = False) -> dict:
    """Timings are medians over each scene's repeats, so how often a scene was repeated does not matter.

    They are at reference speed, or wall times with `wall`. Operations whose
    commands failed carry no timing or scores and are left out.
    """
    ops = [op for op in ops if op.scores]
    first = [op for op in first if op.scores]
    if not first:
        raise SystemExit("perfbench: every operation of the first pass failed; no metric can be computed")
    frames, track, evaluate = ("frame_s", "track_s", "eval_s") if wall else ("frame_ref_s", "track_ref_s", "eval_ref_s")
    by_scene: dict = {}
    for op in ops:
        by_scene.setdefault(op.scene, []).append(op)
    frame_s = [statistics.median(times) for runs in by_scene.values()
               for times in zip(*(getattr(op, frames) for op in runs))]
    track_s = sum(statistics.median(getattr(op, track) for op in runs) for runs in by_scene.values())
    eval_s = sum(statistics.median(getattr(op, evaluate) for op in runs) for runs in by_scene.values())
    return {
        "frame_ms_p50": statistics.median(frame_s) * 1e3,
        "frame_ms_p95": statistics.quantiles(frame_s, n=100)[94] * 1e3,
        "track_fps": len(frame_s) / track_s,
        "eval_ms_per_frame": eval_s / sum(op.gt_frames for op in first) * 1e3,
        "idf1": statistics.fmean(op.scores["IDF1"] for op in first),
        "mota": statistics.fmean(op.scores["MOTA"] for op in first),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def self_checks(workload_name: str, layer: dict, clock: FrameClock, tracer: Tracer) -> list[str]:
    """Invariants of the trace counts; a wrapper installed on the wrong name breaks one of them."""
    frames = len(clock.samples)
    sim_steps = layer["rollout.sim_steps"]
    simulated = 0 if "f2" in WORKLOADS[workload_name].track_args else sum(n - 1 for n in clock.adp_windows)
    failures = []
    if layer["assignment.match_calls.main"] != frames:
        failures.append(f"assignment.match_calls.main {layer['assignment.match_calls.main']:.0f} != frames {frames}")
    if sim_steps != simulated:
        failures.append(f"rollout.sim_steps {sim_steps:.0f} != {simulated}, the sum of (window length - 1)")
    weight_calls = tracer.values["base_tracker.weight_calls"]
    if weight_calls != frames + sim_steps:
        failures.append(f"compute_base_weights calls {weight_calls:.0f} != frames + sim steps {frames + sim_steps:.0f}")
    if workload_name == "crowd-base":
        busy = [name for name, value in layer.items() if name.startswith("rollout.") and value]
        if busy:
            failures.append(f"rollout metrics nonzero on a base-mode run: {busy}")
    return failures


def print_table(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    start = time.perf_counter()
    mods = import_adptrack()
    import_s = time.perf_counter() - start
    gauge = Gauge()  # its reference work needs numpy and scipy, so it is first read after the import
    import_s = at_reference_speed(import_s, [gauge.read(GAUGE_READS)])

    work = WORK_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    configs = scene_configs(mods, workload, seed)
    scenes, round_s, generate_s = set_up(mods, configs, work / "scenes", gauge)
    setup_s = import_s + statistics.median(round_s)
    reference = reference_digests(args.workload, seed)

    # The first pass over the scenes gives the quality scores and the digests
    # that every later operation must reproduce.
    clock = FrameClock(gauge)
    measure_start = time.perf_counter()
    ops = run_ops(mods, scenes, workload, work / "first", clock)
    first = list(ops)
    first_digests = {op.scene: op.digest for op in first}
    if args.trace:
        traced_clock, tracer = FrameClock(), Tracer()
        ops += run_ops(mods, scenes, workload, work / "traced", traced_clock, tracer)
        label = "the untraced run"
    else:
        # Repeat whole operations, cycling over the scenes, while the next one fits in --seconds.
        deadline = measure_start + args.seconds
        repeats = itertools.cycle(scenes)
        while time.perf_counter() + statistics.fmean(op.track_s + op.eval_s for op in ops) <= deadline:
            ops += run_ops(mods, [next(repeats)], workload, work / "repeat", clock)
        label = "the first pass"
    check_digests(ops[len(first):], first_digests, label)
    check_digests(ops, reference, "the reference")

    (work / "operations.json").write_text(json.dumps(
        [{"scene": op.scene, "track_s": op.track_s, "eval_s": op.eval_s, "frame_s": op.frame_s,
          "track_ref_s": op.track_ref_s, "eval_ref_s": op.eval_ref_s, "frame_ref_s": op.frame_ref_s,
          "track_readings": op.track_readings} for op in ops]))
    print(json.dumps({"provenance": provenance(mods, args, seed, configs)}))
    for i, op in enumerate(ops):
        status = "ok" if not op.problems else "FAILED"
        print(f"op {i} {op.scene}: {status} frames={len(op.frame_s)} track={op.track_s:.3f}s eval={op.eval_s:.3f}s "
              f"IDF1={op.scores.get('IDF1', float('nan')):.4f} MOTA={op.scores.get('MOTA', float('nan')):.4f} "
              f"IDSW={op.scores.get('IDSW', '-')} sha256={op.digest}")
        for problem in op.problems[:5]:
            print(f"    {op.scene}: {problem}")

    failed = sum(1 for op in ops if op.problems)
    checks_failed = []
    if args.trace:
        layer = tracer.report()
        layer["synthworld.generate_s"] = statistics.median(generate_s)
        layer["trace.overhead_ms"] = (statistics.median(traced_clock.samples) - statistics.median(clock.samples)) * 1e3
        checks_failed = self_checks(args.workload, layer, traced_clock, tracer)
        for failure in checks_failed:
            print(f"self-check failed: {failure}")
        spans = {name: layer[name] for name in SPAN_METRICS}
        total = sum(spans.values())
        print(f"self time by span, {total:.3f} s in all:")
        for name, value in sorted(spans.items(), key=lambda kv: -kv[1]):
            print(f"  {name:32s} {value:9.3f} s {value / total:6.1%}")
        print("per-layer metrics:")
        print_table(layer, LAYER_UNITS)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
    else:
        e2e = end_to_end(ops, first, setup_s)
        wall = end_to_end(ops, first, setup_s, wall=True)
        print(f"wall-clock timings, for reference (gauge median {statistics.median(gauge.readings) * 1e3:.4f} ms, "
              f"nominal {NOMINAL_S * 1e3:.4f} ms):")
        print_table({name: wall[name] for name in ("frame_ms_p50", "frame_ms_p95", "track_fps", "eval_ms_per_frame")},
                    END_TO_END_UNITS)
        print(f"end-to-end metrics, timings at reference speed ({len(clock.samples)} frame samples, "
              f"{len(ops)} operations, IDSW total {sum(op.scores.get('IDSW', 0) for op in first)}):")
        print_table(e2e, END_TO_END_UNITS)
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    print(json.dumps({"correct": failed == 0 and not checks_failed, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Run every workload serially, each in its own process, and print one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=None,
                        help="first scene seed (default: 9001 for occ-adp, 9003 for the crowd workloads)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
