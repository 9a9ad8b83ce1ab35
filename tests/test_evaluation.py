import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from policyvo import evaluation as ev
from policyvo import se3
from policyvo.se3 import Pose
from policyvo.tables import write_table
from policyvo.trajectory import Trajectory, anchor, extract_actions
from policyvo.world import (
    Camera,
    MotionProfile,
    Scene,
    correspondences,
    generate_trajectory,
    landmark_projections,
    make_tube_scene,
)

from rotations import rot_x, rot_y, rot_z, unit_axes


def random_trajectory(seed, n, trans=0.8, rot=0.05):
    rng = np.random.default_rng(seed)
    pose = Pose.identity()
    poses = [pose]
    for _ in range(n - 1):
        pose = se3.compose(pose, se3.random_pose(rng, trans, rot))
        poses.append(pose)
    return Trajectory(enumerate(poses), anchored=True)


def batch(windows):
    """The PredictedWindows of a list of PredictedWindow of one sequence and length."""
    return ev.PredictedWindows(windows[0].sequence, windows[0].w, [pw.t for pw in windows],
                               *se3.stack([pw.delta for pw in windows]))


def one_sign_triangulate_depths(rotation_ba, t_ba, rays_a, rays_b):
    """Reference two-view linear depths for a single translation sign."""
    u = rays_a @ rotation_ba.T
    v = rays_b
    uu = (u * u).sum(axis=1)
    vv = (v * v).sum(axis=1)
    uv = (u * v).sum(axis=1)
    ut = u @ t_ba
    vt = v @ t_ba
    det = uu * vv - uv * uv
    safe = det > 1e-12 * uu * vv
    depth_a = np.where(safe, (-ut * vv + uv * vt) / np.where(safe, det, 1.0), -1.0)
    depth_b = np.where(safe, (uv * -ut + uu * vt) / np.where(safe, det, 1.0), -1.0)
    return depth_a, depth_b


def reference_rays(points_px, camera):
    x = (points_px[:, 0] - camera.cx) / camera.focal
    y = (points_px[:, 1] - camera.cy) / camera.focal
    return np.stack([x, y, np.ones_like(x)], axis=1)


def reference_hartley_normalize(rays):
    xy = rays[:, :2]
    centroid = xy.mean(axis=0)
    rms = float(np.sqrt(((xy - centroid) ** 2).sum(axis=1).mean()))
    scale = math.sqrt(2.0) / max(rms, 1e-12)
    transform = np.array([[scale, 0.0, -scale * centroid[0]],
                          [0.0, scale, -scale * centroid[1]],
                          [0.0, 0.0, 1.0]])
    return rays @ transform.T, transform


def four_call_relative_pose(pts_a, pts_b, camera):
    """Reference eight-point solver: one triangulation per cheirality candidate,
    with numpy's own row sums and ``np.where`` fills throughout."""
    n = len(pts_a)
    if n < 8:
        raise ev.BaselineFailure(f"fewer than 8 correspondences ({n})")
    rays_a = reference_rays(pts_a, camera)
    rays_b = reference_rays(pts_b, camera)
    norm_a, t_a = reference_hartley_normalize(rays_a)
    norm_b, t_b = reference_hartley_normalize(rays_b)
    a_mat = np.einsum("ni,nj->nij", norm_b, norm_a).reshape(n, 9)
    _, sva, vt = np.linalg.svd(a_mat, full_matrices=n < 9)
    if sva[7] < 1e-9 * sva[0]:
        raise ev.BaselineFailure("degenerate configuration: essential matrix not unique")
    u, _, vt_e = np.linalg.svd(t_b.T @ vt[-1].reshape(3, 3) @ t_a)
    if np.linalg.det(u) < 0.0:
        u = -u
    if np.linalg.det(vt_e) < 0.0:
        vt_e = -vt_e
    w_mat = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    candidates = []
    for rotation_ba in (u @ w_mat @ vt_e, u @ w_mat.T @ vt_e):
        for t_ba in (u[:, 2], -u[:, 2]):
            depth_a, depth_b = one_sign_triangulate_depths(rotation_ba, t_ba, rays_a, rays_b)
            front = int(np.sum((depth_a > 0.0) & (depth_b > 0.0)))
            candidates.append((front, rotation_ba, t_ba, depth_a, depth_b))
    front, rotation_ba, t_ba, depth_a, depth_b = max(candidates, key=lambda c: c[0])
    if front < ev.MIN_CHEIRALITY * n:
        raise ev.BaselineFailure(f"cheirality ambiguity ({front}/{n} points in front)")
    return Pose(rotation_ba.T, -(rotation_ba.T @ t_ba)), depth_a, depth_b


def reference_vo(scene, camera, gt_traj, noise_px, seed, min_albedo=0.25):
    """Reference VO chain built only from test-side parts: per-pair projections,
    ``np.intersect1d`` matches and scale links, and :func:`four_call_relative_pose`.

    Returns the rows and the counts of failed steps and broken scale chains."""
    rng = np.random.default_rng(seed)
    indices = gt_traj.indices
    chain, prev, failed, broken = {}, None, 0, 0
    for a, b in zip(indices, indices[1:]):
        (ids_a, uv_a), (ids_b, uv_b) = (
            landmark_projections(scene, camera, gt_traj.pose_at(i), min_albedo) for i in (a, b))
        ids, ia, ib = np.intersect1d(ids_a, ids_b, assume_unique=True, return_indices=True)
        pts_a, pts_b = uv_a[ia], uv_b[ib]
        if noise_px > 0.0:
            pts_a = pts_a + rng.normal(0.0, noise_px, pts_a.shape)
            pts_b = pts_b + rng.normal(0.0, noise_px, pts_b.shape)
        try:
            delta, depth_a, depth_b = four_call_relative_pose(pts_a, pts_b, camera)
        except ev.BaselineFailure:
            prev, failed = None, failed + 1
            continue
        if prev is None:
            chain[a], scale = (np.eye(3), np.zeros(3)), 1.0
        else:
            common, ip, ic = np.intersect1d(prev[0], ids, assume_unique=True,
                                            return_indices=True)
            prev_depth, cur_depth = prev[1][ip], depth_a[ic]
            ok = (prev_depth > 0.0) & (cur_depth > 0.0)
            ratio = (float(np.median(prev_depth[ok] / cur_depth[ok]))
                     if len(common) >= ev.MIN_SHARED and ok.sum() >= ev.MIN_SHARED else None)
            if ratio is None or not ratio > 0.0:
                prev, broken = None, broken + 1
                continue
            scale = scale * ratio
        chain[b] = se3.compose_rt(*chain[a], delta.rotation, scale * delta.translation)
        prev = ids, depth_b
    return [(i, chain.get(i)) for i in indices], failed, broken


def per_pair_vo(scene, camera, gt_traj, min_albedo, noise_px, seed):
    """Reference VO chain that calls ``correspondences`` on every frame pair."""
    rng = np.random.default_rng(seed)
    indices = gt_traj.indices
    chain, prev = {}, None
    for a, b in zip(indices, indices[1:]):
        ids, pts_a, pts_b = correspondences(
            scene, camera, gt_traj.pose_at(a), gt_traj.pose_at(b),
            min_albedo=min_albedo, noise_px=noise_px, rng=rng if noise_px > 0.0 else None)
        try:
            delta, depth_a, depth_b = ev.eight_point_relative_pose(pts_a, pts_b, camera)
            if prev is None:
                chain[a], scale = (np.eye(3), np.zeros(3)), 1.0
            else:
                scale = scale * ev._shared_depth_ratio(*prev, ids, depth_a)
        except ev.BaselineFailure:
            prev = None
            continue
        chain[b] = se3.compose_rt(*chain[a], delta.rotation, scale * delta.translation)
        prev = ids, depth_b
    return [(i, chain.get(i)) for i in indices]


class TestRPE:
    def test_records_equal_checked_records(self):
        traj = random_trajectory(3, 40)
        records, summary = ev.rpe(ev.constant_velocity_windows(traj, "s", 8), {"s": traj}, 8)
        checked = [ev.RPERecord(r.sequence, r.t, r.w, r.trans_err, r.rot_err) for r in records]
        assert list(records) == checked and len(records) == 32
        assert ({(type(r.sequence), type(r.t), type(r.w), type(r.trans_err), type(r.rot_err))
                 for r in records} == {(str, int, int, float, float)})
        assert summary == ev.summarize(checked)

    def test_non_finite_error_and_non_integer_length_rejected(self):
        traj = random_trajectory(3, 12)
        far = ev.PredictedWindows("s", 8, [0], np.eye(3)[None], [[1e308, 1e308, 0.0]])
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match=re.escape("errors must be finite and >= 0: inf, ")):
            ev.rpe(far, {"s": traj}, 8)
        with pytest.raises(ValueError, match="window length must be an integer >= 0, got 8.0"):
            ev.rpe(ev.zero_motion_windows(traj, "s", 8), {"s": traj}, 8.0)

    def test_perfect_prediction_zero_error(self):
        traj = random_trajectory(0, 12)
        windows = batch([ev.PredictedWindow("s", t, 8, se3.relative(traj.pose_at(t),
                                                                    traj.pose_at(t + 8)))
                         for t in range(4)])
        records, summary = ev.rpe(windows, {"s": traj}, 8)
        assert summary.trans_mean == pytest.approx(0.0, abs=1e-12)
        assert summary.rot_mean == pytest.approx(0.0, abs=1e-12)

    def test_known_translation_offset(self):
        traj = random_trajectory(1, 10)
        gt_delta = se3.relative(traj.pose_at(0), traj.pose_at(8))
        off = Pose(gt_delta.rotation, gt_delta.translation + np.array([1.0, 0, 0]))
        records, summary = ev.rpe(batch([ev.PredictedWindow("s", 0, 8, off)]), {"s": traj}, 8)
        assert summary.trans_mean == pytest.approx(1.0, abs=1e-12)
        assert summary.rot_mean == pytest.approx(0.0, abs=1e-9)

    def test_matches_matrix_composition_oracle(self):
        rng = np.random.default_rng(2)
        traj = random_trajectory(3, 60)
        windows = []
        for t in range(50):
            noise = se3.random_pose(rng, 0.5, 0.05)
            pred = se3.compose(se3.relative(traj.pose_at(t), traj.pose_at(t + 8)), noise)
            windows.append(ev.PredictedWindow("s", t, 8, pred))
        records, _ = ev.rpe(batch(windows), {"s": traj}, 8)

        for record, pw in zip(records, windows):
            gt_mat = np.linalg.inv(traj.pose_at(pw.t).as_matrix()) @ traj.pose_at(pw.t + 8).as_matrix()
            trans_err = np.linalg.norm(pw.delta.translation - gt_mat[:3, 3])
            cos_a = (np.trace(pw.delta.rotation.T @ gt_mat[:3, :3]) - 1.0) / 2.0
            rot_err = math.degrees(math.acos(np.clip(cos_a, -1.0, 1.0)))
            assert record.trans_err == pytest.approx(trans_err, abs=1e-9)
            assert record.rot_err == pytest.approx(rot_err, abs=1e-9)

    def test_negative_window_length_rejected(self):
        traj = random_trajectory(4, 12)
        rows = list(traj.frames)
        negative = "window length must be an integer >= 0, got -1"
        with pytest.raises(ValueError, match=negative):
            ev.windows_from_rows(rows, "s", -1)
        with pytest.raises(ValueError, match=negative):
            batch([ev.PredictedWindow("s", 5, -1, se3.relative(traj.pose_at(5), traj.pose_at(4)))])
        with pytest.raises(ValueError, match=negative):
            ev.rpe(ev.zero_motion_windows(traj, "s", 1), {"s": traj}, -1)

    def test_empty_evaluation_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ev.rpe([], {}, 8)

    def test_windows_of_another_length_rejected(self):
        traj = random_trajectory(4, 12)
        with pytest.raises(ValueError, match="windows span w=4, not w=8"):
            ev.rpe(ev.zero_motion_windows(traj, "s", 4), {"s": traj}, 8)

    def test_window_batch_checks_its_arrays_and_views_rows(self):
        traj = random_trajectory(5, 12)
        windows = ev.windows_from_rows(traj, "s", 8)
        assert len(windows) == 4 and not windows.rotations.flags.writeable
        assert windows[-1] == ev.PredictedWindow("s", 3, 8, se3.relative(traj.pose_at(3),
                                                                        traj.pose_at(11)))
        with pytest.raises(ValueError, match="window starts"):
            ev.PredictedWindows("s", 8, [0, 1], windows.rotations[:1], windows.translations[:1])
        with pytest.raises(ValueError, match="orthonormal"):
            ev.PredictedWindows("s", 8, [0], 2.0 * windows.rotations[:1], windows.translations[:1])

    @pytest.mark.parametrize("starts, message", [
        ([1.5], "frame index 1.5 is not an integer"), ([True], "frame index True is not an integer"),
        (["3"], "frame index '3' is not an integer"),
        ([2 ** 63], f"frame index {2 ** 63} is outside int64")])
    def test_window_starts_enter_by_the_frame_rule(self, starts, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ev.PredictedWindows("s", 8, starts, np.eye(3)[None], np.zeros((1, 3)))

    def test_window_starts_are_copied(self):
        starts = np.array([0, 1], np.int64)
        windows = ev.PredictedWindows("s", 8, starts, np.stack([np.eye(3)] * 2), np.zeros((2, 3)))
        starts[0] = 5
        assert windows.starts.tolist() == [0, 1] and not windows.starts.flags.writeable

    def test_anchoring_invariance(self):
        from policyvo.trajectory import anchor
        # Start the trajectory away from identity, then compare errors
        # computed against raw vs anchored ground truth.
        rng = np.random.default_rng(4)
        start = se3.random_pose(rng, 20.0, 1.0)
        poses = [start]
        for _ in range(11):
            poses.append(se3.compose(poses[-1], se3.random_pose(rng, 0.8, 0.05)))
        raw = Trajectory(enumerate(poses))
        anchored = anchor(raw)
        windows = batch([ev.PredictedWindow("s", t, 8, se3.compose(
            se3.relative(raw.pose_at(t), raw.pose_at(t + 8)), se3.random_pose(rng, 0.3, 0.02)))
            for t in range(3)])
        rec_raw, _ = ev.rpe(windows, {"s": raw}, 8)
        rec_anchored, _ = ev.rpe(windows, {"s": anchored}, 8)
        for a, b in zip(rec_raw, rec_anchored):
            assert a.trans_err == pytest.approx(b.trans_err, abs=1e-9)
            assert a.rot_err == pytest.approx(b.rot_err, abs=1e-9)

    def test_ranking_invariant_under_global_gt_transform(self):
        rng = np.random.default_rng(5)
        traj = random_trajectory(6, 20)
        good = batch([ev.PredictedWindow("s", t, 8, se3.compose(
            se3.relative(traj.pose_at(t), traj.pose_at(t + 8)), se3.random_pose(rng, 0.1, 0.01)))
            for t in range(10)])
        bad = batch([ev.PredictedWindow("s", t, 8, se3.compose(
            se3.relative(traj.pose_at(t), traj.pose_at(t + 8)), se3.random_pose(rng, 2.0, 0.2)))
            for t in range(10)])
        transform = se3.random_pose(rng, 50.0, 1.5)
        moved = Trajectory(enumerate(se3.compose(transform, p) for p in traj.poses))
        _, good_raw = ev.rpe(good, {"s": traj}, 8)
        _, good_moved = ev.rpe(good, {"s": moved}, 8)
        _, bad_raw = ev.rpe(bad, {"s": traj}, 8)
        _, bad_moved = ev.rpe(bad, {"s": moved}, 8)
        assert good_raw.trans_mean == pytest.approx(good_moved.trans_mean, abs=1e-9)
        assert bad_raw.trans_mean == pytest.approx(bad_moved.trans_mean, abs=1e-9)
        assert (good_raw.trans_mean < bad_raw.trans_mean) == \
               (good_moved.trans_mean < bad_moved.trans_mean)


NOT_A_LENGTH = "window length must be an integer >= 0, got {!r}"
PAST_INT64 = "window length {} is outside int64"


class TestWindowLength:
    """One rule for a window length w at every entry point: an integer, not a bool, >= 0
    and within int64.  A length past the frames gives no window, and an end frame never
    wraps."""

    @pytest.mark.parametrize("w, message", [
        (2.5, NOT_A_LENGTH), (True, NOT_A_LENGTH), (3.0, NOT_A_LENGTH), (-1, NOT_A_LENGTH),
        (2 ** 70, PAST_INT64), (2 ** 64 - 1, PAST_INT64), (2 ** 63 - 1, None)])
    @pytest.mark.parametrize("entry", ["windows_from_rows", "rpe", "PredictedWindows"])
    def test_every_entry_point(self, entry, w, message):
        traj = random_trajectory(25, 12)
        one = np.eye(3)[None], np.zeros((1, 3))
        call = {
            "windows_from_rows": lambda: ev.windows_from_rows(traj, "s", w),
            # Carries w unchecked, so that rpe's own check is the one tested.
            "rpe": lambda: ev.rpe(ev.PredictedWindows._trusted("s", w, [0], *one), {"s": traj}, w),
            "PredictedWindows": lambda: ev.PredictedWindows("s", w, [0], *one),
        }[entry]
        if message is not None:
            with pytest.raises(ValueError, match=re.escape(message.format(w))):
                call()
        elif entry == "windows_from_rows":
            assert len(call()) == 0
        elif entry == "rpe":
            with pytest.raises(ValueError, match=f"no pose at window end frame {w}$"):
                call()
        else:
            assert call().w == w

    def test_an_end_past_int64_does_not_wrap_onto_a_frame(self):
        # 5 + (2**63 - 1) wraps to -2**63 + 4 in int64, the first frame here.
        w = 2 ** 63 - 1
        traj = Trajectory([(-2 ** 63 + 4, Pose.identity()), (5, Pose.identity())])
        assert len(ev.windows_from_rows(traj, "s", w)) == 0
        wrapped = ev.PredictedWindows("s", w, [5], np.eye(3)[None], np.zeros((1, 3)))
        with pytest.raises(ValueError, match=f"no pose at window end frame {5 + w}$"):
            ev.rpe(wrapped, {"s": traj}, w)

    @pytest.mark.parametrize("first, w", [(-2 ** 63, 2 ** 63 - 1), (-1, 2 ** 63 - 1)])
    def test_an_end_within_int64_is_found_for_any_length(self, tmp_path, first, w):
        traj = Trajectory([(first, Pose.identity()), (first + w, Pose(rot_z(0.5), [1.0, 0, 0]))])
        windows = ev.windows_from_rows(traj, "s", w)
        assert windows.starts.tolist() == [first]
        records, _ = ev.rpe(windows, {"s": traj}, w)
        assert (records[0].t, records[0].w, records[0].trans_err, records[0].rot_err) == \
            (first, w, 0.0, 0.0)
        ev.write_records_csv(tmp_path / "records.csv", records)
        assert ev.read_records_csv(tmp_path / "records.csv") == list(records)

    @pytest.mark.parametrize("k", [2 ** 63, 2 ** 64 - 1])
    def test_a_horizon_past_int64_is_refused_by_name(self, k):
        traj = random_trajectory(26, 12)
        message = re.escape(f"{k} is outside int64")
        with pytest.raises(ValueError, match="horizon k " + message):
            extract_actions(traj, 0, k)
        with pytest.raises(ValueError, match="window length " + message):
            traj.window_starts(k)

    @pytest.mark.parametrize("w", [np.int8(2), np.uint8(2), np.int32(2), np.uint64(2)])
    def test_a_numpy_integer_length_counts_as_its_value(self, w):
        # 200 frames: a sum with the frame count overflows int8 if done in w's type.
        traj = random_trajectory(27, 200)
        windows = ev.windows_from_rows(traj, "s", w)
        assert windows.starts.tolist() == list(range(198))
        assert ev.constant_velocity_windows(traj, "s", w).starts.tolist() == list(range(198))
        assert len(ev.rpe(windows, {"s": traj}, w)[0]) == 198
        assert extract_actions(traj, 5, w) == extract_actions(traj, 5, 2)
        assert traj.window_starts(np.uint64(300)) == []


class TestInt64Edges:
    """Windows, their scores and the constant-velocity history at both ends of int64:
    a frame plus or minus a step past int64 is no frame, and never wraps onto one."""

    @pytest.mark.parametrize("first", [-2 ** 63, 2 ** 63 - 4])
    def test_windows_and_rpe_at_an_edge(self, first):
        poses = [se3.random_pose(i, 1.0, 0.1) for i in range(4)]
        gt = Trajectory([(first + i, pose) for i, pose in enumerate(poses)])
        windows = ev.windows_from_rows(gt, "s", 2)
        assert windows.starts.tolist() == [first, first + 1]
        records, _ = ev.rpe(windows, {"s": gt}, 2)
        assert [(r.t, r.trans_err, r.rot_err) for r in records] == [(first, 0.0, 0.0),
                                                                  (first + 1, 0.0, 0.0)]
        const = ev.constant_velocity_windows(gt, "s", 2)
        assert const.starts.tolist() == [first, first + 1]
        np.testing.assert_array_equal(const.rotations[0], np.eye(3))   # no history
        step = se3.relative(poses[0], poses[1])
        np.testing.assert_allclose(const.translations[1],
                                   se3.compose(step, step).translation, atol=1e-12)
        assert len(ev.rpe(const, {"s": gt}, 2)[0]) == 2
        late = ev.PredictedWindows("s", 2, [first + 2], np.eye(3)[None], np.zeros((1, 3)))
        with pytest.raises(ValueError, match=f"no pose at window end frame {first + 4}$"):
            ev.rpe(late, {"s": gt}, 2)

    def test_constant_velocity_history_does_not_wrap(self):
        # -2**63 - 1 wraps to 2**63 - 1 in int64, the last frame here, which has no next row.
        moved = Pose(rot_z(0.1), [1.0, 0.0, 0.0])
        gt = Trajectory([(-2 ** 63, Pose.identity()), (-2 ** 63 + 1, moved),
                         (2 ** 63 - 1, Pose.identity())])
        windows = ev.constant_velocity_windows(gt, "s", 1)
        assert windows.starts.tolist() == [-2 ** 63]
        np.testing.assert_array_equal(windows.rotations, np.eye(3)[None])
        np.testing.assert_array_equal(windows.translations, np.zeros((1, 3)))


class TestMissingGroundTruth:
    """A frame ground truth has no pose for is a ValueError naming it, not a KeyError."""

    def test_estimate_frame_without_ground_truth(self):
        gt = random_trajectory(21, 20)
        estimate = Trajectory(list(gt.frames) + [(100, Pose.identity())])
        with pytest.raises(ValueError, match="ground truth has no pose at estimate frame 100"):
            ev.align_rows_to_gt(estimate, gt)

    def test_window_end_without_ground_truth(self):
        gt = random_trajectory(22, 20)
        windows = ev.zero_motion_windows(gt, "s", 8)
        with pytest.raises(ValueError, match="sequence 's': ground truth has no pose at "
                                             "window end frame 15"):
            ev.rpe(windows, {"s": Trajectory(gt.frames[:15])}, 8)

    def test_window_start_without_ground_truth(self):
        gt = random_trajectory(23, 20)
        windows = ev.zero_motion_windows(gt, "s", 8)
        gapped = Trajectory((i, None if i == 3 else p) for i, p in gt.frames)
        with pytest.raises(ValueError, match="sequence 's': ground truth has no pose at "
                                             "window start frame 3"):
            ev.rpe(windows, {"s": gapped}, 8)

    def test_unknown_sequence(self):
        gt = random_trajectory(24, 20)
        with pytest.raises(ValueError, match="no ground truth for sequence 'x'"):
            ev.rpe(ev.zero_motion_windows(gt, "x", 8), {"s": gt}, 8)


def umeyama_one(pred, gt):
    """``_umeyama`` of one point set: (scale, rotation, translation, ok)."""
    scale, rotation, translation, ok = ev._umeyama([pred], [gt])
    return float(scale[0]), rotation[0], translation[0], bool(ok[0])


def similarity(scale, rotation, translation, points):
    """The points mapped by x -> scale * rotation @ x + translation."""
    return scale * points @ rotation.T + translation


def from_points(points):
    """A trajectory of identity rotations at the given positions, frames 0, 1, ..."""
    return Trajectory.from_stacks(np.arange(len(points)),
                                  np.broadcast_to(np.eye(3), (len(points), 3, 3)), points)


class TestUmeyama:
    def test_identity_for_equal_sets(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(20, 3)) * 10.0
        scale, rotation, translation, ok = umeyama_one(pts, pts)
        assert ok
        assert scale == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(translation, 0.0, atol=1e-10)

    def test_construct_and_recover(self):
        rng = np.random.default_rng(8)
        pred = rng.normal(size=(30, 3)) * 8.0
        rotation = se3.random_pose(rng, 0.0, 1.0).rotation
        translation = rng.normal(size=3) * 5.0
        gt = similarity(2.0, rotation, translation, pred)
        got_scale, got_rotation, got_translation, ok = umeyama_one(pred, gt)
        assert ok
        assert got_scale == pytest.approx(2.0, abs=1e-9)
        np.testing.assert_allclose(got_rotation, rotation, atol=1e-9)
        np.testing.assert_allclose(got_translation, translation, atol=1e-9)
        np.testing.assert_allclose(similarity(got_scale, got_rotation, got_translation, pred),
                                   gt, atol=1e-9)

    @given(scale=st.floats(0.1, 10.0), axis=unit_axes, angle=st.floats(0.0, math.pi),
           translation=st.tuples(*[st.floats(-100.0, 100.0)] * 3).map(np.array),
           n=st.integers(3, 40), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_alignment_recovers_a_random_similarity(self, scale, axis, angle, translation,
                                                    n, seed):
        points = np.random.default_rng(seed).normal(size=(n, 3)) * 10.0
        rotation = se3.so3_exp(angle * axis)
        gt = from_points(similarity(scale, rotation, translation, points))
        aligned = ev.align_rows_to_gt(from_points(points), gt)
        assert aligned.valid.all()
        np.testing.assert_allclose(aligned.translations, gt.translations, rtol=0, atol=1e-9)
        np.testing.assert_allclose(aligned.rotations, np.broadcast_to(rotation, (n, 3, 3)),
                                   rtol=0, atol=1e-9)

    def test_collinear_and_short_runs_lose_their_poses(self):
        rng = np.random.default_rng(12)
        gt = from_points(rng.normal(size=(30, 3)) * 10.0)
        points = similarity(0.5, rot_z(0.3), np.array([1.0, 2.0, 3.0]), gt.translations)
        points[14:21] = np.outer(np.arange(7.0), [1.0, -2.0, 0.5])       # collinear
        valid = np.ones(30, bool)
        valid[[10, 13, 21]] = False      # runs 0-9, 11-12 (too short), 14-20, 22-29
        estimate = Trajectory.from_stacks(np.arange(30), gt.rotations[valid], points[valid],
                                          valid)
        aligned = ev.align_rows_to_gt(estimate, gt)
        assert aligned.frame_array[aligned.valid].tolist() == [*range(10), *range(22, 30)]
        np.testing.assert_allclose(aligned.translations,
                                   gt.translations[aligned.frame_array[aligned.valid]], atol=1e-9)
        assert not umeyama_one(points[14:21], gt.translations[14:21])[3]
        assert not umeyama_one(points[11:13], gt.translations[11:13])[3]

    def test_local_optimality_probe(self):
        rng = np.random.default_rng(9)
        pred = rng.normal(size=(40, 3)) * 6.0
        gt = similarity(1.5, rot_z(0.4), np.array([1.0, -2.0, 3.0]), pred)
        gt = gt + rng.normal(size=gt.shape) * 0.2   # make the fit non-trivial
        scale, rotation, translation, ok = umeyama_one(pred, gt)
        assert ok
        base = float(((similarity(scale, rotation, translation, pred) - gt) ** 2).sum())
        for _ in range(100):
            ds = 1.0 + rng.normal(0.0, 1e-3)
            dr = se3.so3_exp(rng.normal(size=3) * 1e-3)
            dt = rng.normal(size=3) * 1e-3
            perturbed = similarity(scale * ds, dr @ rotation, translation + dt, pred)
            cost = float(((perturbed - gt) ** 2).sum())
            assert cost >= base - 1e-9 * max(base, 1.0)

    def test_reflection_gives_the_best_proper_rotation(self):
        # A mirror image has no proper fit: the rotation keeps det +1, and the
        # sign correction negates the smallest singular value in the scale.
        rng = np.random.default_rng(10)
        pred = rng.normal(size=(25, 3)) * np.array([9.0, 5.0, 2.0])
        gt = pred * np.array([1.0, 1.0, -1.0])
        scale, rotation, translation, ok = umeyama_one(pred, gt)
        assert ok
        assert np.linalg.det(rotation) == pytest.approx(1.0, abs=1e-12)
        pred_c, gt_c = pred - pred.mean(axis=0), gt - gt.mean(axis=0)
        d = np.linalg.svd(gt_c.T @ pred_c / len(pred), compute_uv=False)
        assert scale == pytest.approx((d[0] + d[1] - d[2]) / float((pred_c ** 2).mean(axis=0).sum()),
                                      rel=1e-12)
        base = float(((similarity(scale, rotation, translation, pred) - gt) ** 2).sum())
        for angle in (1e-3, -1e-3):
            nudged = similarity(scale, rot_x(angle) @ rotation, translation, pred)
            assert float(((nudged - gt) ** 2).sum()) >= base


class TestDerivedStacks:
    """Library code skips the rotation re-check on stacks it derives, not the
    finiteness check on translations: a difference of far poses overflows."""

    def test_overflowing_translations_rejected(self):
        far = Trajectory([(0, Pose(np.eye(3), [1e308, 0, 0])),
                          (1, Pose(np.eye(3), [-1e308, 0, 0]))])
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="translation has non-finite components"):
                ev.windows_from_rows(far, "s", 1)
            with pytest.raises(ValueError, match="translation has non-finite components"):
                anchor(far)
            with pytest.raises(ValueError, match="action delta has non-finite components"):
                extract_actions(far, 0, 1)


class TestCoverage:
    def test_all_valid(self):
        rows = [(i, Pose.identity()) for i in range(10)]
        report = ev.coverage(rows)
        assert report.percent == 100.0

    def test_51_of_100(self):
        rows = [(i, Pose.identity() if i < 51 else None) for i in range(100)]
        assert ev.coverage(rows).percent == pytest.approx(51.0)

    def test_none_valid(self):
        rows = [(i, None) for i in range(5)]
        assert ev.coverage(rows).percent == 0.0

    def test_zero_frames_rejected(self):
        with pytest.raises(ValueError, match="zero frames"):
            ev.coverage([])


class TestFloorBaselines:
    def test_static_trajectory_zero_error_for_both(self):
        traj = Trajectory(enumerate([Pose.identity()] * 12), anchored=True)
        for maker in (ev.zero_motion_windows, ev.constant_velocity_windows):
            windows = maker(traj, "s", 8)
            _, summary = ev.rpe(windows, {"s": traj}, 8)
            assert summary.trans_mean == pytest.approx(0.0, abs=1e-12)

    def test_constant_step_trajectory(self):
        step = 0.7
        poses = [Pose(np.eye(3), [step * i, 0, 0]) for i in range(14)]
        traj = Trajectory(enumerate(poses), anchored=True)
        w = 8
        cv = ev.constant_velocity_windows(traj, "s", w)
        moving = ev.PredictedWindows("s", w, cv.starts[1:], cv.rotations[1:], cv.translations[1:])
        _, cv_summary = ev.rpe(moving, {"s": traj}, w)   # skip the no-history start
        assert cv_summary.trans_mean == pytest.approx(0.0, abs=1e-9)
        zm = ev.zero_motion_windows(traj, "s", w)
        _, zm_summary = ev.rpe(zm, {"s": traj}, w)
        assert zm_summary.trans_mean == pytest.approx(w * step, abs=1e-9)

    def test_first_window_falls_back_to_zero_motion(self):
        traj = random_trajectory(10, 12)
        cv = ev.constant_velocity_windows(traj, "s", 8)
        assert cv[0].t == traj.indices[0]
        np.testing.assert_allclose(cv[0].delta.as_matrix(), np.eye(4), atol=1e-12)

    def test_random_walk_matches_brute_force(self):
        traj = random_trajectory(11, 20, trans=0.5, rot=0.03)
        w = 6
        zm = ev.zero_motion_windows(traj, "s", w)
        records, _ = ev.rpe(zm, {"s": traj}, w)
        for record in records:
            gt = se3.relative(traj.pose_at(record.t), traj.pose_at(record.t + w))
            assert record.trans_err == pytest.approx(np.linalg.norm(gt.translation), abs=1e-9)
        cv = ev.constant_velocity_windows(traj, "s", w)
        records, _ = ev.rpe(cv, {"s": traj}, w)
        for record, pw in zip(records[1:], list(cv)[1:]):
            step = se3.relative(traj.pose_at(pw.t - 1), traj.pose_at(pw.t))
            pred = Pose.identity()
            for _ in range(w):
                pred = se3.compose(pred, step)
            gt = se3.relative(traj.pose_at(pw.t), traj.pose_at(pw.t + w))
            expected = np.linalg.norm(pred.translation - gt.translation)
            assert record.trans_err == pytest.approx(expected, abs=1e-9)

    def test_window_count_stride_one(self):
        traj = random_trajectory(12, 30)
        assert len(ev.zero_motion_windows(traj, "s", 8)) == 30 - 8

    def test_constant_velocity_after_a_ground_truth_gap(self):
        poses = random_trajectory(14, 30).poses
        traj = Trajectory([(i, p) for i, p in enumerate(poses) if i not in (10, 11, 20)])
        w = 3
        cv = ev.constant_velocity_windows(traj, "s", w)
        assert list(cv.starts) == [t for t in traj.window_starts(w)]
        for window in cv:
            if window.t in (0, 12, 21):      # frame t-1 has no pose: no history
                assert window.delta == Pose.identity()
                continue
            step = se3.relative(traj.pose_at(window.t - 1), traj.pose_at(window.t))
            pred = Pose.identity()
            for _ in range(w):
                pred = se3.compose(pred, step)
            np.testing.assert_allclose(window.delta.as_matrix(), pred.as_matrix(), atol=1e-12)
        assert sum(window.delta == Pose.identity() for window in cv) == 3

    def test_empty_trajectory_gives_no_windows(self):
        empty = Trajectory(())
        assert len(ev.zero_motion_windows(empty, "s", 8)) == 0
        assert len(ev.constant_velocity_windows(empty, "s", 8)) == 0
        with pytest.raises(ValueError, match="empty evaluation"):
            ev.rpe(ev.zero_motion_windows(empty, "s", 8), {"s": empty}, 8)


class TestEightPoint:
    def setup_method(self):
        self.scene = make_tube_scene(42, n_landmarks=2500)
        self.camera = Camera.default(160)

    def test_noiseless_recovery(self):
        pose_a = Pose.identity()
        delta_true = Pose(rot_y(0.02) @ rot_x(-0.01), [0.4, 0.2, 1.0])
        pose_b = se3.compose(pose_a, delta_true)
        _, pts_a, pts_b = correspondences(self.scene, self.camera, pose_a, pose_b,
                                          min_albedo=0.25)
        delta, _, _ = ev.eight_point_relative_pose(pts_a, pts_b, self.camera)
        rot_err = math.degrees(se3.geodesic_angle(delta.rotation, delta_true.rotation))
        assert rot_err < 1e-3
        direction = delta_true.translation / np.linalg.norm(delta_true.translation)
        angle = math.acos(min(1.0, abs(float(np.dot(delta.translation, direction)))))
        assert angle < 1e-3
        assert np.linalg.norm(delta.translation) == pytest.approx(1.0, abs=1e-9)

    def test_pure_rotation_flagged_degenerate(self):
        pose_a = Pose.identity()
        pose_b = Pose(rot_y(0.05), np.zeros(3))
        _, pts_a, pts_b = correspondences(self.scene, self.camera, pose_a, pose_b,
                                          min_albedo=0.25)
        with pytest.raises(ev.BaselineFailure, match="degenerate"):
            ev.eight_point_relative_pose(pts_a, pts_b, self.camera)

    @pytest.mark.parametrize("n", [8, 9, None])
    @pytest.mark.parametrize("noise_px", [0.0, 0.3])
    def test_matches_full_matrices_svd(self, monkeypatch, n, noise_px):
        rng = np.random.default_rng(19)
        traj = generate_trajectory(19, 6, MotionProfile(trans_std=0.4, forward_speed=0.8))
        cases = []
        for pose_a, pose_b in zip(traj.poses, traj.poses[1:]):
            _, pts_a, pts_b = correspondences(self.scene, self.camera, pose_a, pose_b,
                                              min_albedo=0.25, noise_px=noise_px, rng=rng)
            cases.append((pts_a[:n], pts_b[:n]))

        def solve_all():
            out = []
            for pts_a, pts_b in cases:
                try:
                    delta, depth_a, depth_b = ev.eight_point_relative_pose(
                        pts_a, pts_b, self.camera)
                    out.append((delta.rotation, delta.translation, depth_a, depth_b))
                except ev.BaselineFailure as failure:
                    out.append(str(failure))
            return out

        reduced = solve_all()
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda a, full_matrices=True, **kw: svd(a, True, **kw))
        full = solve_all()
        assert any(not isinstance(r, str) for r in reduced)
        for got, want in zip(reduced, full):
            if isinstance(want, str):
                assert got == want
            else:
                for g, w in zip(got, want):
                    assert np.abs(g - w).max() == 0.0

    @pytest.mark.parametrize("tilt", [(0.0, 0.0), (0.3, -0.2)])
    def test_planar_scene_flagged_degenerate(self, tilt):
        xy = np.random.default_rng(23).uniform(-30.0, 30.0, (300, 2))
        depth = 50.0 + xy @ np.array(tilt)
        plane = Scene(np.column_stack([xy, depth]), np.full(300, 0.5))
        pose_b = Pose(rot_y(0.02) @ rot_x(-0.01), [0.4, 0.2, 1.0])
        _, pts_a, pts_b = correspondences(plane, self.camera, Pose.identity(), pose_b)
        assert len(pts_a) >= 100
        with pytest.raises(ev.BaselineFailure, match="degenerate"):
            ev.eight_point_relative_pose(pts_a, pts_b, self.camera)

    def test_non_finite_pixel_rejected(self):
        pts = np.random.default_rng(1).uniform(10, 150, (12, 2))
        bad = pts.copy()
        bad[5, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            ev.eight_point_relative_pose(pts, bad, self.camera)

    @pytest.mark.parametrize("size, noise_px", [(160, 0.3), (64, 1.0), (48, 2.0)])
    def test_two_triangulations_match_four(self, size, noise_px):
        camera = Camera.default(size)
        rng = np.random.default_rng(29)
        traj = generate_trajectory(29, 25, MotionProfile(trans_std=0.4, forward_speed=0.8))
        solved = 0
        for pose_a, pose_b in zip(traj.poses, traj.poses[1:]):
            _, pts_a, pts_b = correspondences(self.scene, camera, pose_a, pose_b,
                                              min_albedo=0.25, noise_px=noise_px, rng=rng)
            try:
                want = four_call_relative_pose(pts_a, pts_b, camera)
            except ev.BaselineFailure as failure:
                with pytest.raises(ev.BaselineFailure, match=re.escape(str(failure))):
                    ev.eight_point_relative_pose(pts_a, pts_b, camera)
                continue
            delta, depth_a, depth_b = ev.eight_point_relative_pose(pts_a, pts_b, camera)
            np.testing.assert_array_equal(delta.rotation, want[0].rotation)
            np.testing.assert_array_equal(delta.translation, want[0].translation)
            np.testing.assert_array_equal(depth_a, want[1])
            np.testing.assert_array_equal(depth_b, want[2])
            solved += 1
        assert solved > 0

    def test_flat_matches_stay_minus_one_whichever_sign_wins(self, monkeypatch):
        # The last two landmarks lie on the baseline beyond camera b, so they project
        # to both epipoles: zero parallax.  Their depths are -1 under +t and -t alike,
        # and every output equals the four-triangulation reference.
        triangulate, t_args = ev._triangulate_depths, []

        def recording(rotation_ba, t_ba, rays_a, rays_b):
            t_args.append(t_ba)
            return triangulate(rotation_ba, t_ba, rays_a, rays_b)

        monkeypatch.setattr(ev, "_triangulate_depths", recording)
        minus_t_won = []
        for seed in range(8):
            rng = np.random.default_rng(seed)
            centre_b = np.array([*rng.uniform(-0.3, 0.3, 2), 1.0])
            points = np.vstack([np.column_stack([rng.uniform(-20.0, 20.0, (60, 2)),
                                                 rng.uniform(20.0, 60.0, 60)]),
                                30.0 * centre_b, 45.0 * centre_b])
            pose_b = Pose(rot_y(rng.uniform(-0.05, 0.05)) @ rot_x(rng.uniform(-0.05, 0.05)),
                          centre_b)
            ids, pts_a, pts_b = correspondences(Scene(points, np.full(62, 0.5)), self.camera,
                                                Pose.identity(), pose_b)
            assert ids[-2:].tolist() == [60, 61]
            t_args.clear()
            delta, depth_a, depth_b = ev.eight_point_relative_pose(pts_a, pts_b, self.camera)
            want = four_call_relative_pose(pts_a, pts_b, self.camera)
            for got, expected in zip((delta.rotation, delta.translation, depth_a, depth_b),
                                     (want[0].rotation, want[0].translation, *want[1:])):
                np.testing.assert_array_equal(got, expected)
            assert (depth_a[-2:] == -1.0).all() and (depth_b[-2:] == -1.0).all()
            assert (depth_a[:-2] > 0.0).all() and (depth_b[:-2] > 0.0).all()
            minus_t_won.append(np.array_equal(delta.translation,
                                              delta.rotation @ t_args[0]))
        assert set(minus_t_won) == {True, False}

    def test_negated_translation_depths_are_exact(self):
        rng = np.random.default_rng(31)
        rays_a = np.column_stack([rng.normal(0.0, 0.4, (200, 2)), np.ones(200)])
        rays_b = np.column_stack([rng.normal(0.0, 0.4, (200, 2)), np.ones(200)])
        rays_b[:5] = rays_a[:5]     # zero parallax under the identity rotation
        t_ba = rng.normal(size=3)
        for rotation_ba in (np.eye(3), rot_y(0.1) @ rot_z(-0.2)):
            depths, flat = ev._triangulate_depths(rotation_ba, t_ba, rays_a, rays_b)
            # _eight_point's -t depths: every depth but the flat matches' -1 negated.
            negated = np.where(flat, -1.0, -depths)
            for got, want in zip((*depths, *negated), (
                    one_sign_triangulate_depths(rotation_ba, t_ba, rays_a, rays_b)
                    + one_sign_triangulate_depths(rotation_ba, -t_ba, rays_a, rays_b)),
                    strict=True):
                np.testing.assert_array_equal(got, want)
        depths, flat = ev._triangulate_depths(np.eye(3), t_ba, rays_a, rays_b)
        assert flat[:5].all() and not flat[5:].any()
        assert np.all(np.stack((*depths, *np.where(flat, -1.0, -depths)))[:, :5] == -1.0)

    @pytest.mark.parametrize("shape", [(12, 3), (24,), (12, 2, 1), (12, 1)])
    def test_pixel_arrays_not_n_by_2_rejected(self, shape):
        # A (12, 3) array was once read as 18 points and solved.
        bad = np.random.default_rng(2).uniform(10, 150, shape)
        good = np.random.default_rng(3).uniform(10, 150, (12, 2))
        for pts_a, pts_b in ((bad, good), (good, bad)):
            with pytest.raises(ValueError, match=re.escape("pixel arrays must be (n, 2)")):
                ev.eight_point_relative_pose(pts_a, pts_b, self.camera)

    def test_seven_correspondences_fail(self):
        pts = np.random.default_rng(0).uniform(10, 150, (7, 2))
        with pytest.raises(ev.BaselineFailure, match="fewer than 8"):
            ev.eight_point_relative_pose(pts, pts, self.camera)


class TestSharedDepthRatio:
    ids = np.arange(6)

    def test_ratio_is_median_of_positive_shared_depths(self):
        prev_depth_b = np.array([2.0, 4.0, -1.0, 6.0, 8.0, 10.0])
        assert ev._shared_depth_ratio(self.ids, prev_depth_b, np.arange(2, 9),
                                      np.full(7, 2.0)) == 4.0

    @pytest.mark.parametrize("prev_depth_b, ids, depth_a, message", [
        (np.ones(6), np.array([4, 5, 9]), np.ones(3), "fewer than 3 shared landmarks (2)"),
        (np.array([1.0, 1.0, -1.0, 0.0, -1.0, 1.0]), np.arange(6),
         np.array([1.0, 1.0, 1.0, 1.0, 1.0, -1.0]), "fewer than 3 positive shared depths (2)"),
        (np.full(6, 1e-300), np.arange(6), np.full(6, 1e300), "scale ratio 0.0 is not > 0"),
    ])
    def test_each_refusal_raises_baseline_failure(self, prev_depth_b, ids, depth_a, message):
        with pytest.raises(ev.BaselineFailure, match=re.escape(message)):
            ev._shared_depth_ratio(self.ids, prev_depth_b, ids, depth_a)


class TestEightPointVO:
    def setup_method(self):
        self.scene = make_tube_scene(42, n_landmarks=2500)
        self.profile = MotionProfile("smooth-advance", trans_std=0.35, rot_std=0.008,
                                     forward_speed=0.8)

    def test_noiseless_pipeline_near_exact_after_alignment(self):
        camera = Camera.default(160)
        traj = generate_trajectory(7, 40, self.profile)
        rows = ev.eight_point_vo(self.scene, camera, traj, min_albedo=0.25)
        assert ev.coverage(rows).percent == 100.0
        aligned = ev.align_rows_to_gt(rows, traj)
        windows = ev.windows_from_rows(aligned, "s", 8)
        records, summary = ev.rpe(windows, {"s": traj}, 8)
        assert max(r.trans_err for r in records) < 1e-6
        assert summary.rot_mean < 1e-6

    def test_noisy_low_res_loses_coverage(self):
        camera = Camera.default(40)
        traj = generate_trajectory(2, 100, self.profile)
        rows = ev.eight_point_vo(self.scene, camera, traj, min_albedo=0.25,
                                 noise_px=1.0, seed=2)
        assert ev.coverage(rows).percent < 100.0

    @pytest.mark.parametrize("size, landmarks, noise_px, frames", [
        (160, 2500, 0.05, 30),
        (64, 1500, 1.0, 60),
    ])
    def test_rows_equal_per_pair_correspondences(self, size, landmarks, noise_px, frames):
        scene = make_tube_scene(5, n_landmarks=landmarks)
        camera = Camera.default(size)
        traj = generate_trajectory(5, frames, self.profile)
        rows = ev.eight_point_vo(scene, camera, traj, noise_px=noise_px, seed=3)
        want = per_pair_vo(scene, camera, traj, 0.25, noise_px, seed=3)
        assert [i for i, _ in rows] == [i for i, _ in want]
        if noise_px == 1.0:
            assert 0 < sum(p is None for _, p in rows) < frames
        for (_, got), (_, expected) in zip(rows, want):
            if expected is None:
                assert got is None
            else:
                np.testing.assert_array_equal(got.rotation, expected[0])
                np.testing.assert_array_equal(got.translation, expected[1])

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_noisy_rows_equal_reference_solver(self, seed):
        # 64 px and 1 px noise make steps fail.  Every sixth frame the camera
        # turns by half its field of view twice in a row, so the middle frame
        # shares its two pairs' matches on opposite sides and the scale chain
        # breaks.  Every row, posed or not, equals the reference chain's bit for bit.
        scene = make_tube_scene(seed, n_landmarks=1500)
        camera = Camera.default(64)
        half_fov = math.atan(camera.mask_radius / camera.focal)
        turns = half_fov * np.cumsum(np.isin(np.arange(60), [k for j in range(5, 60, 6)
                                                              for k in (j, j + 1)]))
        traj = Trajectory([(i, se3.compose(pose, Pose(rot_y(turn), np.zeros(3))))
                           for (i, pose), turn in zip(
                               generate_trajectory(seed, 60, MotionProfile("jitter")).frames,
                               turns)])
        got = ev.eight_point_vo(scene, camera, traj, noise_px=1.0, seed=seed)
        rows, failed, broken = reference_vo(scene, camera, traj, 1.0, seed=seed)
        assert failed > 0 and broken > 0
        want = Trajectory.from_stacks(
            traj.indices, np.reshape([p[0] for _, p in rows if p is not None], (-1, 3, 3)),
            np.reshape([p[1] for _, p in rows if p is not None], (-1, 3)),
            [p is not None for _, p in rows])
        for name in ("frame_array", "valid", "rotations", "translations"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
            assert getattr(got, name).shape == getattr(want, name).shape

    def test_empty_and_one_frame_trajectories(self):
        camera = Camera.default(64)
        assert list(ev.eight_point_vo(self.scene, camera, Trajectory(()))) == []
        one = Trajectory(((4, Pose.identity()),))
        assert list(ev.eight_point_vo(self.scene, camera, one, noise_px=1.0)) == [(4, None)]

    @pytest.mark.parametrize("noise_px", [float("nan"), -1.0])
    def test_bad_noise_rejected(self, noise_px):
        camera = Camera.default(48)
        traj = generate_trajectory(0, 5, MotionProfile(forward_speed=1.0))
        with pytest.raises(ValueError, match="noise_px must be finite and >= 0"):
            ev.eight_point_vo(make_tube_scene(0), camera, traj, noise_px=noise_px)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_a_seed_that_is_not_an_integer_of_at_least_zero_is_named(self, seed):
        traj = Trajectory(((0, Pose.identity()), (1, Pose(np.eye(3), [0.0, 0.0, 1.0]))))
        with pytest.raises(ValueError, match=re.escape(
                f"seed must be an integer >= 0, got {seed!r}")):
            ev.eight_point_vo(self.scene, Camera.default(48), traj, seed=seed)

    def test_alignment_needs_three_frames(self):
        rows = [(0, Pose.identity()), (1, Pose(np.eye(3), [1, 0, 0])), (2, None)]
        traj = random_trajectory(13, 3)
        aligned = ev.align_rows_to_gt(rows, traj)
        assert all(p is None for _, p in aligned)


class TestRPERecord:
    @pytest.mark.parametrize("bad", [-1e-300, math.nan, math.inf, -math.inf])
    def test_negative_and_non_finite_errors_rejected(self, bad):
        for trans_err, rot_err in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(ValueError, match="errors must be finite and >= 0"):
                ev.RPERecord("s", 0, 8, trans_err, rot_err)

    def test_zero_and_large_errors_accepted(self):
        assert ev.summarize([ev.RPERecord("s", 0, 8, 0.0, 1e300)]).rot_mean == 1e300

    @pytest.mark.parametrize("t, w, message", [
        (1.5, 8, "window start t must be an integer, got 1.5"),
        (True, 8, "window start t must be an integer, got True"),
        (1, False, "window length must be an integer >= 0, got False"),
        (1, -3, "window length must be an integer >= 0, got -3"),
        ("1", 8, "window start t must be an integer, got '1'"),
        (np.float64(2.0), 8, "window start t must be an integer, got np.float64(2.0)"),
        (0, 8.0, "window length must be an integer >= 0, got 8.0"),
        (2 ** 70, 8, f"window start t {2 ** 70} is outside int64"),
        (-2 ** 63 - 1, 8, f"window start t {-2 ** 63 - 1} is outside int64"),
        (0, 2 ** 63, f"window length {2 ** 63} is outside int64")])
    def test_non_integer_key_or_negative_length_rejected(self, t, w, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ev.RPERecord("s", t, w, 0.1, 0.2)

    def test_numpy_integer_key_accepted(self):
        assert ev.RPERecord("s", np.int64(3), np.int32(8), 0.1, 0.2).t == 3
        assert ev.RPERecord("s", -2 ** 63, 2 ** 63 - 1, 0.1, 0.2).w == 2 ** 63 - 1


class TestRecordsCSV:
    def test_round_trip(self, tmp_path):
        records = [ev.RPERecord("seq_000", 3, 8, 1.25, 0.5),
                   ev.RPERecord("seq_001", 0, 8, 0.0, 0.0)]
        path = tmp_path / "records.csv"
        ev.write_records_csv(path, records)
        back = ev.read_records_csv(path)
        assert back == records

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            ev.read_records_csv(path)

    @pytest.mark.parametrize("name", ["a,b", "a\nb", "a\r\nb", "a\u2028b"])
    def test_separator_in_field_names_file(self, tmp_path, name):
        # The constructor refuses the name; the table writer's own scan still names a
        # separator in a row handed to it directly.
        with pytest.raises(ValueError, match=re.escape(
                f"sequence {name!r}: a name must be one plain path component")):
            ev.RPERecord(name, 3, 8, 1.25, 0.5)
        path = tmp_path / "records.csv"
        with pytest.raises(ValueError, match=re.escape(f"{path}: a field holds a comma")):
            write_table(path, ev.RECORDS_HEADER, ev.RECORDS_ROW, [(name, 3, 8, 1.25, 0.5)])
        assert not path.exists()

    def test_wrong_field_count_names_file(self, tmp_path):
        path = tmp_path / "records.csv"
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*does not have 5 fields"):
            write_table(path, ev.RECORDS_HEADER, ev.RECORDS_ROW, [("seq_000", 3, 8, 1.25)])
        assert not path.exists()

    def test_short_row_names_file(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text(ev.RECORDS_HEADER + "\nseq_000,3,8,1.25\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 2")):
            ev.read_records_csv(path)
