"""The library calls the benchmark harness in bench/ makes, at its smoke-test sizes.

The harness is kept unchanged so that its timings and reference figures stay
comparable across changes of the library; a refactor must keep every call it
makes working.  These tests make the same calls, with the same argument
shapes, without importing bench/, so a break shows in this fast tier and not
only in bench/tests.  Sizes are the harness's smoke-test ones: 2 sequences of
24 frames at 48 px with 500 landmarks, and a 160-frame estimate.  Two more tests
read bench/ without importing it: one parses it and resolves every name it reads
off a policyvo module, so that deleting a name the harness uses fails here; one
checks that bench/reference.json is still keyed on today's motion profiles.
"""

import ast
import dataclasses
import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from policyvo import evaluation as ev
from policyvo import robustness as rb
from policyvo import se3
from policyvo import trajectory as trj
from policyvo import world

K = W = 8
PROFILE = world.MotionProfile("smooth-advance", 0.35, 0.008)
JITTER = world.MotionProfile("jitter")
BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def sequences():
    """(name, scene, ground truth) of two smoke-test sequences."""
    return [(f"seq_{i:03d}", world.make_tube_scene(i, 500),
             world.generate_trajectory(i, 24, PROFILE)) for i in range(2)]


def check_windows(name, windows, gt):
    """The harness's RPE step and its oracle's view of the windows."""
    if not windows:
        return []
    records, _ = ev.rpe(windows, {name: gt}, W)
    assert len(records) == len(windows)
    matrices = {i: p.as_matrix() for i, p in gt.frames}
    for j in np.random.default_rng(0).choice(len(records), size=min(4, len(records)),
                                             replace=False):
        rec, win = records[j], windows[j]
        assert (rec.t, rec.w) == (win.t, win.w)
        want = np.linalg.inv(matrices[win.t]) @ matrices[win.t + win.w]
        trans = np.linalg.norm(win.delta.translation - want[:3, 3])
        assert rec.trans_err == pytest.approx(trans, abs=1e-9)
        assert win.delta.rotation.shape == (3, 3)
    for rec, win in zip(records, windows):
        assert rec.t == win.t
    return records


def test_full_pipeline_unit(sequences):
    camera = world.Camera.default(48)
    for name, scene, gt in sequences:
        observations = {i: world.render(scene, camera, pose) for i, pose in gt.frames}
        samples = world.window_samples(name, gt, observations, K)
        assert {s.t: s.actions for s in samples} and {s.t: s.state for s in samples}
        for windows in (ev.zero_motion_windows(gt, name, W),
                        ev.constant_velocity_windows(gt, name, W)):
            assert len(windows) == 24 - W
            check_windows(name, windows, gt)
        rows = ev.eight_point_vo(scene, camera, gt, noise_px=0.05, seed=3)
        aligned = ev.align_rows_to_gt(rows, gt)
        valid = sum(1 for _, p in aligned if p is not None)
        assert 0 < valid <= len(aligned) == len(gt)
        records = check_windows(name, ev.windows_from_rows(aligned, name, W), gt)
        scores = [rb.score_window(name, t, W, observations[t], observations[t + W])
                  for t in gt.indices if t + W in observations]
        assert rb.stratify(scores, records).texture_low.count > 0


def test_record_call_shapes(sequences):
    """The three shapes in which the harness hands records on: ``stratify`` gets
    ``rpe``'s own return (the probe) and one list flattened across sequences (a pass),
    and ``summarize`` a plain list with one record replaced (its checks' tests).  Every
    call the harness makes on ``rpe``'s return works on it: ``len``, truthiness, a numpy
    integer index (its oracle samples with ``rng.choice``), iteration, ``list`` and
    ``dataclasses.replace`` of a row, and ``summarize`` of the batch equals that of its
    list."""
    camera = world.Camera.default(48)
    all_scores, flat = [], []
    for name, scene, gt in sequences:
        observations = {i: world.render(scene, camera, pose) for i, pose in gt.frames}
        scores = [rb.score_window(name, t, W, observations[t], observations[t + W])
                  for t in gt.indices if t + W in observations]
        records, _ = ev.rpe(ev.zero_motion_windows(gt, name, W), {name: gt}, W)
        assert rb.stratify(scores, records).texture_low.count > 0
        assert records and len(records) == len(list(records)) == 24 - W
        j = np.random.default_rng(0).choice(len(records))
        row = records[np.int64(j)]
        assert row == list(records)[j]
        assert dataclasses.replace(row, trans_err=row.trans_err + 1.0).trans_err > row.trans_err
        assert ev.summarize(records) == ev.summarize(list(records))
        all_scores += scores
        flat += records
    assert rb.stratify(all_scores, flat).texture_low.count > 0
    perturbed = list(flat)
    perturbed[0] = dataclasses.replace(perturbed[0], trans_err=perturbed[0].trans_err + 1e-3)
    summary = ev.summarize(perturbed)
    assert summary.count == len(flat) and summary.trans_mean > ev.summarize(flat).trans_mean


def test_long_eval_unit(tmp_path):
    gt = world.generate_trajectory(5, 160, JITTER)
    rng = np.random.default_rng(0)
    estimate = []
    for n, (i, pose) in enumerate(gt.frames):
        if n > 0 and rng.random() < 0.05:
            estimate.append((i, None))
        else:
            estimate.append((i, se3.compose(pose, se3.random_pose(rng, 0.05, 0.002))))
    path = tmp_path / "seq_000.csv"
    trj.write_trajectory_file(path, estimate)
    rows = trj.read_trajectory_file(path)
    anchored = trj.anchor(trj.rows_to_trajectory(rows))
    present = set(anchored.indices)
    actions = {t: trj.extract_actions(anchored, t, K)
               for t in range(anchored.indices[0], anchored.indices[-1] - K + 1, K)
               if all(i in present for i in range(t, t + K + 1))}
    assert actions and all(len(a.as_array()) == K for a in actions.values())
    assert np.isfinite(np.sum([p.translation for p in anchored.poses]))
    frames = anchored.frames
    assert frames[0][0] == 0 and frames[int(np.int64(3))][1].rotation.shape == (3, 3)
    aligned = ev.align_rows_to_gt(rows, gt)
    missing = [i for i, p in estimate if p is None]
    assert missing and set(missing) <= {i for i, p in aligned if p is None}
    check_windows("seq_000", ev.windows_from_rows(aligned, "seq_000", W), gt)
    assert len(trj.rows_to_trajectory(estimate)) == len(gt) - len(missing)


def test_trajectory_views_and_list_rows(sequences, tmp_path):
    name, _, gt = sequences[0]
    short = trj.Trajectory(gt.frames[:12], anchored=gt.anchored)
    prefix = gt.frames[:12]
    assert [i for i, _ in prefix] == short.indices and type(short.indices) is list
    for (_, a), b in zip(prefix, short.poses[:12]):
        np.testing.assert_array_equal(a.translation, b.translation)
    assert gt.poses[:3] == [gt.pose_at(i) for i in gt.indices[:3]]
    trj.write_trajectory_file(tmp_path / "gt.csv", gt)
    assert len(trj.read_trajectory_file(tmp_path / "gt.csv")) == len(gt)
    assert trj.anchor(gt).anchored
    for t in short.indices[:-K]:
        assert len(trj.extract_actions(short, t, K)) == K
    windows = ev.windows_from_rows(list(gt.frames)[:16], name, W)
    records = check_windows(name, windows, gt)
    assert max(r.trans_err for r in records) < 1e-9


def test_dataset_round_trip_feeds_vo(sequences, tmp_path):
    name, scene, gt = sequences[1]
    camera = world.Camera.default(48)
    observations = {i: world.render(scene, camera, pose) for i, pose in gt.frames}
    world.write_dataset(tmp_path / "dataset", [world.SequenceData(name, gt, observations)])
    seq = {s.name: s for s in world.load_dataset(tmp_path / "dataset")}[name]
    rows = ev.eight_point_vo(scene, camera, seq.trajectory, noise_px=1.0, seed=1)
    aligned = ev.align_rows_to_gt(rows, seq.trajectory)
    assert len(aligned) == len(gt)
    check_windows(name, ev.windows_from_rows(aligned, name, W), seq.trajectory)


def bench_module_reads() -> set[tuple[str, tuple[str, ...]]]:
    """(policyvo module, attribute chain) of every read in bench/*.py and
    bench/tests/*.py off a name bound by ``from policyvo import <module> [as <alias>]``,
    in that file or in a bench module it imports (``wl.trj.X`` reads ``trajectory.X``);
    a chain such as ``world.Camera.default`` gives its prefixes too."""
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted([*BENCH.glob("*.py"), *BENCH.glob("tests/*.py")])}
    policyvo_names = {path: {alias.asname or alias.name: alias.name
                             for node in ast.walk(tree)
                             if isinstance(node, ast.ImportFrom) and node.module == "policyvo"
                             and node.level == 0 for alias in node.names}
                      for path, tree in trees.items()}
    bench_modules = {path.stem: names for path, names in policyvo_names.items()
                     if path.parent == BENCH}
    reads = set()
    for path, tree in trees.items():
        modules = policyvo_names[path]
        imported = {alias.asname or alias.name: bench_modules[alias.name]
                    for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names if alias.name in bench_modules}
        for node in ast.walk(tree):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.insert(0, node.attr)
                node = node.value
            if not (chain and isinstance(node, ast.Name)):
                continue
            if node.id in modules:
                reads.add((modules[node.id], tuple(chain)))
            elif len(chain) > 1 and chain[0] in imported.get(node.id, {}):
                reads.add((imported[node.id][chain[0]], tuple(chain[1:])))
    return reads


def test_every_name_bench_reads_resolves():
    reads = bench_module_reads()
    assert {("world", ("Camera", "default")), ("evaluation", ("eight_point_vo",)),
            ("trajectory", ("ActionSequence", "from_array"))} <= reads
    missing = []
    for module, chain in sorted(reads):
        value = importlib.import_module(f"policyvo.{module}")
        for name in chain:
            if not hasattr(value, name):
                missing.append(f"{module}.{'.'.join(chain)}")
                break
            value = getattr(value, name)
    assert missing == []


def test_stored_references_are_keyed_on_todays_profiles():
    """The harness compares a run with bench/reference.json only while the stored config
    string equals the repr of its config, and says nothing when it does not; each stored
    string must hold today's repr of its workload's profile, so that a change to
    ``MotionProfile`` fails here instead of switching that comparison off."""
    stored = json.loads((BENCH / "reference.json").read_text())
    profiles = {"full-pipeline": PROFILE, "long-eval": JITTER, "noisy-vo": JITTER}
    assert sorted(stored) == sorted(profiles)
    for name, profile in profiles.items():
        assert f"profile={profile!r}," in stored[name]["config"], name
