"""In-memory spans around calls into policyvo layers, and per-layer metrics.

A span records (name, start, end, parent, n, phase).  ``name`` is
``<layer>.<function>``, so the layer is the text before the first dot.  ``n``
is the work the call did (frames, pairs, windows, records), set by the caller.
``phase`` says where the span was recorded: ``setup`` (input generation),
``pipeline`` (a traced pass) or ``probe`` (direct calls that split a layer's
cost or stand in for a stage the workload does not run).

A disabled tracer hands out one shared no-op span and records nothing, so the
untraced run and the traced run execute the same benchmark code.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    n: int
    phase: str

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class _NullSpan:
    """Stands in for a span when tracing is off; assignments are dropped."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    @property
    def n(self) -> int:
        return 0

    @n.setter
    def n(self, value: int) -> None:
        pass


_NULL = _NullSpan()


class _OpenSpan:
    __slots__ = ("tracer", "index", "n")

    def __init__(self, tracer: "Tracer", index: int, n: int):
        self.tracer, self.index, self.n = tracer, index, n

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        span = self.tracer.spans[self.index]
        span.end = time.perf_counter()
        span.n = self.n
        self.tracer._stack.pop()
        return False


class Tracer:
    """Collects spans in memory while enabled; ``phase`` tags new spans."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.phase = "pipeline"
        self._stack: list[int] = []

    def span(self, name: str, n: int = 1):
        if not self.enabled:
            return _NULL
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, n, self.phase))
        index = len(self.spans) - 1
        self._stack.append(index)
        return _OpenSpan(self, index, n)


def span_cost(spans: int = 20000, repeats: int = 5) -> float:
    """Seconds one enabled span costs more than a disabled one.

    Times ``spans`` empty spans through an enabled and through a disabled
    tracer, ``repeats`` times, and takes the median of the differences.  Times
    the spans a traced pass records, this is the tracing overhead of the pass:
    a difference of whole-pass times would be lost in the machine's noise.
    """
    costs = []
    for _ in range(repeats):
        elapsed = []
        for enabled in (True, False):
            tracer = Tracer(enabled)
            start = time.perf_counter()
            for _ in range(spans):
                with tracer.span("bench.noop") as sp:
                    sp.n = 1
            elapsed.append(time.perf_counter() - start)
        costs.append((elapsed[0] - elapsed[1]) / spans)
    return statistics.median(costs)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


# (metric name, unit, span name, statistic, scale).  Statistics:
#   per_call  sum(duration) / calls         per_n  sum(duration) / sum(n)
#   n_per_call sum(n) / calls               n_per_pass sum(n) / traced passes
#   first     duration of the first such span
LAYER_METRICS = [
    ("se3.compose.us", "us", "se3.compose", "per_n", 1e6),
    ("se3.Pose.us", "us", "se3.Pose", "per_n", 1e6),
    ("se3.exp.us", "us", "se3.exp", "per_n", 1e6),
    ("se3.log.us", "us", "se3.log", "per_n", 1e6),
    ("se3.geodesic_angle.us", "us", "se3.geodesic_angle", "per_n", 1e6),
    ("trajectory.pose_at.us", "us", "trajectory.pose_at", "per_n", 1e6),
    ("trajectory.extract_actions.us_per_window", "us", "trajectory.extract_actions",
     "per_call", 1e6),
    ("trajectory.anchor.ms", "ms", "trajectory.anchor", "per_call", 1e3),
    ("trajectory.read_trajectory_file.ms", "ms", "trajectory.read_trajectory_file",
     "per_call", 1e3),
    ("trajectory.write_trajectory_file.ms", "ms", "trajectory.write_trajectory_file",
     "per_call", 1e3),
    ("world.make_tube_scene.ms", "ms", "world.make_tube_scene", "per_call", 1e3),
    ("world.generate_trajectory.us_per_frame", "us", "world.generate_trajectory", "per_n", 1e6),
    ("world.render.ms_per_frame", "ms", "world.render", "per_call", 1e3),
    ("world.window_samples.us_per_window", "us", "world.window_samples", "per_n", 1e6),
    ("world.correspondences.ms_per_pair", "ms", "world.correspondences", "per_call", 1e3),
    ("world.correspondences.matches_per_pair", "count", "world.correspondences",
     "n_per_call", 1.0),
    ("world.write_dataset.ms_per_frame", "ms", "world.write_dataset", "per_n", 1e3),
    ("world.load_dataset.ms_per_frame", "ms", "world.load_dataset", "per_n", 1e3),
    ("evaluation.eight_point_vo.ms_per_pair", "ms", "evaluation.eight_point_vo", "per_n", 1e3),
    ("evaluation.eight_point_relative_pose.ms", "ms", "evaluation.eight_point_relative_pose",
     "per_call", 1e3),
    ("evaluation.eight_point_relative_pose.first_ms", "ms",
     "evaluation.eight_point_relative_pose.first", "first", 1e3),
    ("evaluation.eight_point_relative_pose.ok_ratio", "ratio",
     "evaluation.eight_point_relative_pose", "n_per_call", 1.0),
    ("evaluation.align_rows_to_gt.ms", "ms", "evaluation.align_rows_to_gt", "per_call", 1e3),
    ("evaluation.zero_motion_windows.us_per_window", "us", "evaluation.zero_motion_windows",
     "per_n", 1e6),
    ("evaluation.constant_velocity_windows.us_per_window", "us",
     "evaluation.constant_velocity_windows", "per_n", 1e6),
    ("evaluation.windows_from_rows.us_per_window", "us", "evaluation.windows_from_rows",
     "per_n", 1e6),
    ("evaluation.rpe.us_per_window", "us", "evaluation.rpe", "per_n", 1e6),
    ("evaluation.rpe.records", "count", "evaluation.rpe", "n_per_pass", 1.0),
    ("robustness.texture_score.ms_per_frame", "ms", "robustness.texture_score", "per_call", 1e3),
    ("robustness.score_window.ms", "ms", "robustness.score_window", "per_call", 1e3),
    ("robustness.stratify.ms", "ms", "robustness.stratify", "per_call", 1e3),
]

SELF_TIME_LAYERS = ("trajectory", "world", "evaluation", "robustness")


def _value(spans: list[Span], stat: str, passes: int) -> float:
    total = sum(s.duration for s in spans)
    work = sum(s.n for s in spans)
    if stat == "per_call":
        return total / len(spans)
    if stat == "per_n":
        return total / work
    if stat == "n_per_call":
        return work / len(spans)
    if stat == "n_per_pass":
        return work / passes
    if stat == "first":
        return spans[0].duration
    raise ValueError(f"unknown statistic {stat!r}")


def layer_metrics(spans: list[Span], passes: int) -> tuple[dict, dict]:
    """Per-layer metrics, and for each the phase its spans came from.

    Spans from traced passes and set-up come first; a name that only the
    probe recorded falls back to the probe's spans.  Self time per layer is
    per traced pass, or per probe run for a layer the pipeline never calls.
    """
    own = self_times(spans)
    metrics, sources = {}, {}
    for metric, unit, name, stat, scale in LAYER_METRICS:
        primary = [s for s in spans if s.name == name and s.phase != "probe"]
        chosen = primary or [s for s in spans if s.name == name and s.phase == "probe"]
        if not chosen:
            raise ValueError(f"no spans recorded for {name}")
        per = passes if primary else 1
        metrics[metric] = {"value": _value(chosen, stat, per) * scale, "unit": unit}
        sources[metric] = chosen[0].phase
    for layer in SELF_TIME_LAYERS:
        in_pipeline = [t for s, t in zip(spans, own) if s.layer == layer and s.phase == "pipeline"]
        if in_pipeline:
            value, source = sum(in_pipeline) / passes, "pipeline"
        else:
            value = sum(t for s, t in zip(spans, own) if s.layer == layer and s.phase == "probe")
            source = "probe"
        metrics[f"{layer}.self_s"] = {"value": value, "unit": "s"}
        sources[f"{layer}.self_s"] = source
    return metrics, sources
