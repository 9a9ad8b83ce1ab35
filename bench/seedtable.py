#!/usr/bin/env python3
"""First-call and steady-state cost of the ROADMAP seed-table rows.

    python3 bench/seedtable.py [--out FILE]

Each row times one public function in this process: ``first`` is the first
call the process makes to it, ``steady`` the median over ``repeats`` later
calls (or batches of calls, for the microsecond SE(3) ops).  The machine is
recorded with the result.  Runs in well under a minute on 2 CPUs.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import run  # noqa: E402

BATCH = 1000        # SE(3) calls per steady-state batch


def _time(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def _row(name: str, unit: str, scale: float, first: float, steady: list[float]) -> dict:
    return {"name": name, "unit": unit, "first": first * scale,
            "steady": statistics.median(steady) * scale, "repeats": len(steady)}


def _batch(fn, args: list) -> float:
    start = time.perf_counter()
    for item in args:
        fn(*item)
    return (time.perf_counter() - start) / len(args)


def se3_rows() -> list[dict]:
    import numpy as np

    from policyvo import se3

    rng = np.random.default_rng(0)
    poses = [se3.random_pose(rng, 1.0, 0.5) for _ in range(BATCH + 1)]
    vecs = [rng.normal(0.0, 0.5, 6) for _ in range(BATCH)]
    cases = [("se3.compose", se3.compose, list(zip(poses, poses[1:]))),
             ("se3.Pose", se3.Pose, [(p.rotation, p.translation) for p in poses[:BATCH]]),
             ("se3.exp", se3.exp, [(v,) for v in vecs]),
             ("se3.log", se3.log, [(p,) for p in poses[:BATCH]])]
    rows = []
    for name, fn, args in cases:
        first = _time(fn, *args[0])
        rows.append(_row(name, "us", 1e6, first, [_batch(fn, args) for _ in range(5)]))
    return rows


def world_rows() -> list[dict]:
    from policyvo import evaluation as ev
    from policyvo import world

    scene = world.make_tube_scene(0, 2500)
    camera = world.Camera.default(160)
    profile = world.MotionProfile("smooth-advance", 0.35, 0.008)
    gt = world.generate_trajectory(1, 200, profile)
    poses = gt.poses
    first = _time(world.render, scene, camera, poses[0])
    rows = [_row("world.render 160px 2500 landmarks", "ms/frame", 1e3, first,
                 [_time(world.render, scene, camera, p) for p in poses[1:21]])]

    pairs = [world.correspondences(scene, camera, a, b, min_albedo=0.25)[1:]
             for a, b in zip(poses[:11], poses[1:12])]
    first = _time(ev.eight_point_relative_pose, *pairs[0], camera)
    rows.append(_row("evaluation.eight_point_relative_pose", "ms/pair", 1e3, first,
                     [_time(ev.eight_point_relative_pose, a, b, camera) for a, b in pairs[1:]]))
    first = _time(ev.eight_point_vo, scene, camera, gt)
    rows.append(_row("evaluation.eight_point_vo 200 frames", "s", 1.0, first,
                     [_time(ev.eight_point_vo, scene, camera, gt) for _ in range(2)]))
    return rows


def rpe_rows() -> list[dict]:
    from policyvo import evaluation as ev
    from policyvo import world

    rows = []
    for frames in (500, 4000):
        gt = world.generate_trajectory(2, frames, world.MotionProfile("jitter"))
        windows = ev.zero_motion_windows(gt, "s", 8)
        per_window = 1.0 / len(windows)
        first = _time(ev.rpe, windows, {"s": gt}, 8) * per_window
        steady = [_time(ev.rpe, windows, {"s": gt}, 8) * per_window for _ in range(3)]
        rows.append(_row(f"evaluation.rpe {frames} frames", "us/window", 1e6, first, steady))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="also write the JSON to this file")
    args = parser.parse_args(argv)
    run.import_policyvo()
    import machine

    result = {"machine": machine.machine_info(),
              "rows": se3_rows() + world_rows() + rpe_rows()}
    text = json.dumps(result, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
