"""Frame clock and layer tracer, installed from outside on adptrack's module attributes.

The adptrack modules bind the functions they import by name
(``from .assignment import hungarian_max``), so a wrapper has to replace the
attribute in every module that calls it: replacing ``assignment.hungarian_max``
alone would record nothing. `patched` installs the wrappers and restores the
originals afterwards.

Two kinds of wrapper exist:

- A *span* times a layer call. Its self time is its duration minus the time
  of the spans opened inside it, so the span metrics partition the time of a
  command (the ``*_s`` metrics other than ``motion.kf_s.*`` and
  ``synthworld.generate_s``, which is timed during set-up).
- A *probe* counts calls to a leaf function (Kalman predict/update, IoU,
  cosine, the scipy solver) and, for the Kalman calls, also times them. A probe
  is not subtracted from the span it runs in: ``motion.kf_s.walk`` is part of
  ``rollout.filter_s``, not taken out of it.

Metric names end in the context a call ran under: ``.main`` for the real
frame, ``.sim`` inside `simulate_tentative`, ``.walk`` inside a Kalman-clone
walk (`candidate_filter`, `score_f1`, `score_f3`) and ``.eval`` inside
`evaluate`.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

_perf = time.perf_counter

# Every per-layer metric the traced run reports, with its unit. Keep in step
# with the ``per_layer`` list of BENCHMARK.json.
LAYER_UNITS = {
    "synthworld.generate_s": "s",
    "motio.read_s": "s",
    "motio.write_s": "s",
    "cli.self_s": "s",
    "base_tracker.weights_s.main": "s",
    "base_tracker.weights_s.sim": "s",
    "base_tracker.weight_pairs": "count",
    "base_tracker.rows_mean": "count",
    "base_tracker.lifecycle_s": "s",
    "base_tracker.step_self_s": "s",
    "rollout.simulate_s": "s",
    "rollout.sim_steps": "count",
    "rollout.filter_s": "s",
    "rollout.filter_keep_ratio": "ratio",
    "rollout.score_s": "s",
    "rollout.score_pairs": "count",
    "rollout.crowd_fallback_ratio": "ratio",
    "rollout.step_self_s": "s",
    **{f"motion.{m}.{c}": u for m, u in (("predict_calls", "count"), ("update_calls", "count"), ("kf_s", "s"))
       for c in ("main", "sim", "walk")},
    "appearance.window_calls": "count",
    "appearance.cosine_calls": "count",
    "core.iou_calls": "count",
    "core.iou_calls.eval": "count",
    **{f"assignment.{m}.{c}": u for m, u in (("match_calls", "count"), ("match_s", "s"))
       for c in ("main", "sim", "eval")},
    "assignment.lsa_solves": "count",
    "assignment.lsa_per_match": "ratio",
    "assignment.cells_max": "count",
    "metrics.evaluate_s": "s",
    "metrics.clear_match_s": "s",
    "metrics.idf1_cells": "count",
    "trace.overhead_ms": "ms",
}

# Span metrics: each is self time, so together they partition command time.
SPAN_METRICS = tuple(
    name for name, unit in LAYER_UNITS.items()
    if unit == "s" and not name.startswith(("motion.", "synthworld."))
)


@contextmanager
def patched(replacements):
    """Install ``(module, name, make_wrapper)`` replacements; restore the originals on exit."""
    saved = []
    try:
        for module, name, make in replacements:
            original = getattr(module, name)
            saved.append((module, name, original))
            setattr(module, name, make(original))
        yield
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


class FrameClock:
    """Times each tracked frame around its public step call; simulated steps are not samples.

    A frame is a `base_tracker.step` call in base mode, and in adp mode the
    cold-start `step` of the first frame plus one `rollout.adp_step` per later
    frame. Steps made inside `simulate_tentative` are skipped.

    With a `gauge`, the clock reads it once after each frame, outside the
    frame's time: ``gauge.readings[i]`` then belongs to ``samples[i]``.
    """

    def __init__(self, gauge=None):
        self.samples: list[float] = []
        self.adp_windows: list[int] = []
        self.gauge = gauge
        self._sim_depth = 0

    def replacements(self, mods):
        bt, ro = mods["base_tracker"], mods["rollout"]
        return [
            (bt, "step", self._timed),
            (ro, "step", self._timed),
            (ro, "adp_step", self._timed_adp),
            (ro, "simulate_tentative", self._simulation),
        ]

    def _timed(self, fn):
        def wrapper(*args, **kwargs):
            if self._sim_depth:
                return fn(*args, **kwargs)
            start = _perf()
            out = fn(*args, **kwargs)
            self.samples.append(_perf() - start)
            if self.gauge is not None:
                self.gauge.read()
            return out

        return wrapper

    def _timed_adp(self, fn):
        timed = self._timed(fn)

        def wrapper(state, window, cfg):
            self.adp_windows.append(len(window))
            return timed(state, window, cfg)

        return wrapper

    def _simulation(self, fn):
        def wrapper(*args, **kwargs):
            self._sim_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._sim_depth -= 1

        return wrapper


def _metric_name(spec, ctx):
    return spec(ctx) if callable(spec) else spec.format(ctx=ctx)


def _iou_metric(ctx):
    return "core.iou_calls.eval" if ctx == "eval" else "core.iou_calls"


def _step_metric(ctx):
    """A step inside the simulation is simulation time; a real cold-start step is the frame's own."""
    return "rollout.simulate_s" if ctx == "sim" else "base_tracker.step_self_s"


class Tracer:
    """Per-layer spans, counts and ratios for one traced pass."""

    def __init__(self):
        self.values: dict[str, float] = defaultdict(float)
        self._open: list[list] = []  # open spans: [metric, seconds covered by child spans]
        self._ctx = ["main"]

    def span(self, spec, ctx=None, after=None):
        """Wrapper factory timing a layer call; `ctx`, if set, is the context of calls inside it."""

        def make(fn):
            def wrapper(*args, **kwargs):
                outer = self._ctx[-1]
                entry = [_metric_name(spec, outer), 0.0]
                self._open.append(entry)
                if ctx:
                    self._ctx.append(ctx)
                start = _perf()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    elapsed = _perf() - start
                    if ctx:
                        self._ctx.pop()
                    self._open.pop()
                    self.values[entry[0]] += elapsed - entry[1]
                    if self._open:
                        self._open[-1][1] += elapsed
                if after is not None:
                    after(args, out, outer)
                return out

            return wrapper

        return make

    def probe(self, count_spec, time_spec=None, after=None):
        """Wrapper factory counting (and optionally timing) a leaf call; never subtracted from a span."""

        def make(fn):
            def wrapper(*args, **kwargs):
                ctx = self._ctx[-1]
                self.values[_metric_name(count_spec, ctx)] += 1
                if time_spec is None:
                    out = fn(*args, **kwargs)
                else:
                    start = _perf()
                    try:
                        out = fn(*args, **kwargs)
                    finally:
                        self.values[_metric_name(time_spec, ctx)] += _perf() - start
                if after is not None:
                    after(args, out, ctx)
                return out

            return wrapper

        return make

    def replacements(self, mods):
        bt, ro, me = mods["base_tracker"], mods["rollout"], mods["metrics"]
        span, probe = self.span, self.probe
        reps = []
        for mod in (bt, ro):
            reps += [
                (mod, "compute_base_weights", span("base_tracker.weights_s.{ctx}", after=self._weights)),
                (mod, "apply_matching", span("base_tracker.lifecycle_s")),
                (mod, "kf_predict", probe("motion.predict_calls.{ctx}", "motion.kf_s.{ctx}")),
                (mod, "kf_update", probe("motion.update_calls.{ctx}", "motion.kf_s.{ctx}")),
                (mod, "cosine_sim", probe("appearance.cosine_calls")),
            ]
        for mod in (bt, ro, me):
            reps += [
                (mod, "hungarian_max", span("assignment.match_s.{ctx}", after=self._match)),
                (mod, "iou", probe(_iou_metric)),
            ]
        reps += [
            (mods["assignment"], "linear_sum_assignment", probe("assignment.lsa_solves")),
            (bt, "step", span("base_tracker.step_self_s")),
            (ro, "step", span(_step_metric, after=self._step)),
            (ro, "adp_step", span("rollout.step_self_s")),
            (ro, "simulate_tentative", span("rollout.simulate_s", ctx="sim")),
            (ro, "candidate_filter", span("rollout.filter_s", ctx="walk", after=self._filter)),
            (ro, "score_main", span("rollout.score_s", after=self._score)),
            (ro, "score_f1", span("rollout.score_s", ctx="walk", after=self._score)),
            (ro, "score_f2", span("rollout.score_s", after=self._score)),
            (ro, "score_f3", span("rollout.score_s", ctx="walk", after=self._score)),
            (ro, "crowd_check", probe("rollout.crowd_checks", after=self._crowd)),
            (ro, "select_quality_window", probe("appearance.window_calls")),
            (me, "clear_match", span("metrics.clear_match_s")),
        ]
        cli = mods["cli"]
        reps += [(cli, name, span("motio.read_s")) for name in ("read_detections", "read_features", "attach_features", "read_gt")]
        reps += [
            (cli, "write_results", span("motio.write_s")),
            (cli, "evaluate", span("metrics.evaluate_s", ctx="eval")),
        ]
        return reps

    # Hooks run after the wrapped call; `ctx` is the context of the caller.

    def _weights(self, args, weights, ctx):
        v = self.values
        v["base_tracker.weight_calls"] += 1
        v["base_tracker.weight_pairs"] += weights.rows * weights.cols
        if ctx == "main":
            v["base_tracker.rows_main"] += weights.rows
            v["base_tracker.weight_calls.main"] += 1

    def _match(self, args, matching, ctx):
        v = self.values
        cells = args[0].rows * args[0].cols
        v[f"assignment.match_calls.{ctx}"] += 1
        v["assignment.cells_max"] = max(v["assignment.cells_max"], cells)
        if self._open and self._open[-1][0] == "metrics.evaluate_s":
            v["metrics.idf1_cells"] += cells  # the global IDF1 matching, not a per-frame CLEAR one

    def _step(self, args, out, ctx):
        if ctx == "sim":
            self.values["rollout.sim_steps"] += 1

    def _filter(self, args, kept, ctx):
        self.values["rollout.filter_walked"] += len(args[1].entries)
        self.values["rollout.filter_kept"] += len(kept)

    def _score(self, args, out, ctx):
        self.values["rollout.score_pairs"] += 1

    def _crowd(self, args, crowded, ctx):
        self.values["rollout.crowd_fallbacks"] += bool(crowded)

    def report(self) -> dict[str, float]:
        """Every metric of `LAYER_UNITS` but set-up generation time and tracing overhead, which the caller measures."""
        v = self.values

        def ratio(num, den):
            return v[num] / v[den] if v[den] else 0.0

        out = {name: v[name] for name in LAYER_UNITS if name not in ("synthworld.generate_s", "trace.overhead_ms")}
        matches = sum(v[f"assignment.match_calls.{c}"] for c in ("main", "sim", "eval"))
        out.update({
            "base_tracker.rows_mean": ratio("base_tracker.rows_main", "base_tracker.weight_calls.main"),
            "rollout.filter_keep_ratio": ratio("rollout.filter_kept", "rollout.filter_walked"),
            "rollout.crowd_fallback_ratio": ratio("rollout.crowd_fallbacks", "rollout.crowd_checks"),
            "assignment.lsa_per_match": v["assignment.lsa_solves"] / matches if matches else 0.0,
        })
        return out
