"""Direct calls into each layer for the traced run.

The pipeline calls some public functions only from inside another layer
(``eight_point_vo`` calls ``world.correspondences`` and
``eight_point_relative_pose``; ``score_window`` calls ``texture_score``;
``write_dataset``/``load_dataset`` write and read trajectory files), and some
workloads skip whole stages (``long-eval`` renders nothing).  The probe calls
every function named in the per-layer metrics directly, on the workload's own
first sequence, so each metric is measured on every workload.  Per-layer
metrics prefer spans from the traced passes and fall back to these.

The SE(3) ops and ``pose_at`` run over the whole first sequence, so they see
the workload's poses and its length.  The image and VO stages run on its
first ``PROBE_FRAMES`` frames; the correspondences use the same noise draws
as the pipeline's ``eight_point_vo`` on those frame pairs.
"""

from __future__ import annotations

import inspect
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from policyvo import evaluation as ev
from policyvo import robustness as rb
from policyvo import se3
from policyvo import trajectory as trj
from policyvo import world

import workloads as wl

PROBE_FRAMES = 48
SE3_OPS = 2000          # poses per SE(3) op loop
POSE_AT_QUERIES = 400
MIN_ALBEDO = inspect.signature(ev.eight_point_vo).parameters["min_albedo"].default


@dataclass
class ProbeInputs:
    scene: world.Scene
    camera: world.Camera
    gt: trj.Trajectory          # the workload's first sequence, whole
    short: trj.Trajectory       # its first PROBE_FRAMES frames
    noise_px: float
    vo_seed: int


def probe_inputs(inputs: wl.Inputs, tracer) -> ProbeInputs:
    """The first unit, with a default scene and camera for a workload without one."""
    unit = inputs.units[0]
    scene, camera, noise = unit.scene, inputs.camera, inputs.config.noise_px
    if scene is None:
        with tracer.span("world.make_tube_scene"):
            scene = world.make_tube_scene(unit.vo_seed, 2500)
        camera = world.Camera.default(160)
    short = trj.Trajectory(unit.gt.frames[:PROBE_FRAMES], anchored=unit.gt.anchored)
    return ProbeInputs(scene, camera, unit.gt, short, noise, unit.vo_seed)


def _pairs(p: ProbeInputs):
    """Frame pairs of the short sequence with the pipeline's correspondence noise."""
    rng = np.random.default_rng(p.vo_seed)
    poses = p.short.poses
    for a, b in zip(poses, poses[1:]):
        yield a, b, rng


def _correspondences(p: ProbeInputs, a, b, rng):
    return world.correspondences(p.scene, p.camera, a, b, min_albedo=MIN_ALBEDO,
                                 noise_px=p.noise_px, rng=rng if p.noise_px > 0.0 else None)


def first_call(p: ProbeInputs, tracer) -> None:
    """Time the process's first eight-point solve, on the first frame pair."""
    a, b, rng = next(_pairs(p))
    _, pts_a, pts_b = _correspondences(p, a, b, rng)
    with tracer.span("evaluation.eight_point_relative_pose.first"):
        try:
            ev.eight_point_relative_pose(pts_a, pts_b, p.camera)
        except ev.BaselineFailure:
            pass


def _loop(tracer, name: str, fn, args: list) -> None:
    """Warm up on a few items, then time the whole loop as one span."""
    for item in args[:8]:
        fn(*item)
    with tracer.span(name, n=len(args)):
        for item in args:
            fn(*item)


def run(p: ProbeInputs, tracer, workdir: Path) -> None:
    poses = p.gt.poses[:SE3_OPS]
    vecs = [se3.log(q) for q in poses]
    consecutive = list(zip(poses, poses[1:]))
    _loop(tracer, "se3.compose", se3.compose, consecutive)
    _loop(tracer, "se3.Pose", se3.Pose, [(q.rotation, q.translation) for q in poses])
    _loop(tracer, "se3.exp", se3.exp, [(v,) for v in vecs])
    _loop(tracer, "se3.log", se3.log, [(q,) for q in poses])
    _loop(tracer, "se3.geodesic_angle", se3.geodesic_angle,
          [(a.rotation, b.rotation) for a, b in consecutive])
    indices = p.gt.indices
    queries = [(indices[j],) for j in np.linspace(0, len(indices) - 1, POSE_AT_QUERIES).astype(int)]
    _loop(tracer, "trajectory.pose_at", p.gt.pose_at, queries)

    with tracer.span("trajectory.anchor"):
        trj.anchor(p.gt)
    path = workdir / "probe_traj.csv"
    with tracer.span("trajectory.write_trajectory_file"):
        trj.write_trajectory_file(path, p.gt)
    with tracer.span("trajectory.read_trajectory_file"):
        trj.read_trajectory_file(path)
    for t in p.short.indices[:-wl.K]:
        with tracer.span("trajectory.extract_actions"):
            trj.extract_actions(p.short, t, wl.K)

    observations = {}
    for i, pose in p.short.frames:
        with tracer.span("world.render"):
            observations[i] = world.render(p.scene, p.camera, pose)
    with tracer.span("world.window_samples") as sp:
        sp.n = len(world.window_samples("probe", p.short, observations, wl.K))
    root = workdir / "probe_dataset"
    try:
        with tracer.span("world.write_dataset", n=len(observations)):
            world.write_dataset(root, [world.SequenceData("probe", p.short, observations)])
        with tracer.span("world.load_dataset", n=len(observations)):
            world.load_dataset(root)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    for a, b, rng in _pairs(p):
        with tracer.span("world.correspondences") as sp:
            ids, pts_a, pts_b = _correspondences(p, a, b, rng)
            sp.n = len(ids)
        if len(ids) < 8:       # eight_point_vo skips these pairs without solving
            continue
        with tracer.span("evaluation.eight_point_relative_pose") as sp:
            try:
                ev.eight_point_relative_pose(pts_a, pts_b, p.camera)
            except ev.BaselineFailure:
                sp.n = 0

    out = wl.UnitOutput("probe")
    unit = wl.Unit("probe", p.short, p.scene, p.vo_seed)
    rows = wl.vo_rows(unit, p.camera, p.short, p.noise_px, tracer)
    wl.align_and_score(out, "vo", rows, p.short, tracer)
    wl.baselines(out, p.short, tracer)
    for obs in observations.values():
        with tracer.span("robustness.texture_score"):
            rb.texture_score(obs)
    scores = wl.score_windows("probe", p.short, observations, tracer)
    # Zero-motion records cover every window, so stratify always has enough.
    with tracer.span("robustness.stratify"):
        rb.stratify(scores, out.records["zero"])
