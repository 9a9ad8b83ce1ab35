import math
import re

import numpy as np
import pytest

from policyvo import evaluation as ev
from policyvo import se3
from policyvo.se3 import Pose
from policyvo.tables import write_table
from policyvo.trajectory import Trajectory
from policyvo.world import (
    Camera,
    MotionProfile,
    Scene,
    correspondences,
    generate_trajectory,
    make_tube_scene,
)

from rotations import rot_x, rot_y, rot_z


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


def four_call_relative_pose(pts_a, pts_b, camera):
    """Reference eight-point solver: one triangulation per cheirality candidate."""
    n = len(pts_a)
    if n < 8:
        raise ev.BaselineFailure(f"fewer than 8 correspondences ({n})")
    rays_a = ev._normalized_rays(pts_a, camera)
    rays_b = ev._normalized_rays(pts_b, camera)
    norm_a, t_a = ev._hartley_normalize(rays_a)
    norm_b, t_b = ev._hartley_normalize(rays_b)
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
        except ev.BaselineFailure:
            prev = None
            continue
        if prev is None:
            chain[a], scale = (np.eye(3), np.zeros(3)), 1.0
        else:
            ratio = ev._shared_depth_ratio(*prev, ids, depth_a)
            if ratio is None:
                prev = None
                continue
            scale = scale * ratio
        chain[b] = se3.compose_rt(*chain[a], delta.rotation, scale * delta.translation)
        prev = ids, depth_b
    return [(i, chain.get(i)) for i in indices]


class TestRPE:
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
        with pytest.raises(ValueError, match=re.escape("window length must be >= 0")):
            ev.windows_from_rows(rows, "s", -1)
        backward = batch([ev.PredictedWindow("s", 5, -1,
                                             se3.relative(traj.pose_at(5), traj.pose_at(4)))])
        with pytest.raises(ValueError, match=re.escape("window length must be >= 0")):
            ev.rpe(backward, {"s": traj}, -1)

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


class TestUmeyama:
    def test_identity_for_equal_sets(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(20, 3)) * 10.0
        sim = ev.umeyama_sim3(pts, pts)
        assert sim.scale == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(sim.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(sim.translation, 0.0, atol=1e-10)

    def test_construct_and_recover(self):
        rng = np.random.default_rng(8)
        pred = rng.normal(size=(30, 3)) * 8.0
        rotation = se3.random_pose(rng, 0.0, 1.0).rotation
        translation = rng.normal(size=3) * 5.0
        gt = 2.0 * pred @ rotation.T + translation
        sim = ev.umeyama_sim3(pred, gt)
        assert sim.scale == pytest.approx(2.0, abs=1e-9)
        np.testing.assert_allclose(sim.rotation, rotation, atol=1e-9)
        np.testing.assert_allclose(sim.translation, translation, atol=1e-9)
        np.testing.assert_allclose(sim.apply_points(pred), gt, atol=1e-9)

    def test_collinear_rejected(self):
        pts = np.stack([np.arange(5.0), np.zeros(5), np.zeros(5)], axis=1)
        with pytest.raises(ValueError, match="degenerate alignment"):
            ev.umeyama_sim3(pts, pts * 2.0)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="degenerate alignment"):
            ev.umeyama_sim3(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_local_optimality_probe(self):
        rng = np.random.default_rng(9)
        pred = rng.normal(size=(40, 3)) * 6.0
        gt = 1.5 * pred @ rot_z(0.4).T + np.array([1.0, -2.0, 3.0])
        gt = gt + rng.normal(size=gt.shape) * 0.2   # make the fit non-trivial
        sim = ev.umeyama_sim3(pred, gt)
        base = float(((sim.apply_points(pred) - gt) ** 2).sum())
        for _ in range(100):
            ds = 1.0 + rng.normal(0.0, 1e-3)
            dr = se3.so3_exp(rng.normal(size=3) * 1e-3)
            dt = rng.normal(size=3) * 1e-3
            perturbed = ev.Sim3(sim.scale * ds, dr @ sim.rotation, sim.translation + dt)
            cost = float(((perturbed.apply_points(pred) - gt) ** 2).sum())
            assert cost >= base - 1e-9 * max(base, 1.0)


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

    def test_negated_translation_depths_are_exact(self):
        rng = np.random.default_rng(31)
        rays_a = np.column_stack([rng.normal(0.0, 0.4, (200, 2)), np.ones(200)])
        rays_b = np.column_stack([rng.normal(0.0, 0.4, (200, 2)), np.ones(200)])
        rays_b[:5] = rays_a[:5]     # zero parallax under the identity rotation
        t_ba = rng.normal(size=3)
        for rotation_ba in (np.eye(3), rot_y(0.1) @ rot_z(-0.2)):
            plus, minus = ev._triangulate_depths(rotation_ba, t_ba, rays_a, rays_b)
            for got, want in zip(plus + minus, (
                    one_sign_triangulate_depths(rotation_ba, t_ba, rays_a, rays_b)
                    + one_sign_triangulate_depths(rotation_ba, -t_ba, rays_a, rays_b))):
                np.testing.assert_array_equal(got, want)
        plus, minus = ev._triangulate_depths(np.eye(3), t_ba, rays_a, rays_b)
        assert np.all(np.stack(plus + minus)[:, :5] == -1.0)

    def test_seven_correspondences_fail(self):
        pts = np.random.default_rng(0).uniform(10, 150, (7, 2))
        with pytest.raises(ev.BaselineFailure, match="fewer than 8"):
            ev.eight_point_relative_pose(pts, pts, self.camera)


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

    def test_alignment_needs_three_frames(self):
        rows = [(0, Pose.identity()), (1, Pose(np.eye(3), [1, 0, 0])), (2, None)]
        traj = random_trajectory(13, 3)
        aligned = ev.align_rows_to_gt(rows, traj)
        assert all(p is None for _, p in aligned)


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
        path = tmp_path / "records.csv"
        with pytest.raises(ValueError, match=re.escape(f"{path}: a field holds a comma")):
            ev.write_records_csv(path, [ev.RPERecord(name, 3, 8, 1.25, 0.5)])
        assert not path.exists()

    def test_wrong_field_count_names_file(self, tmp_path):
        path = tmp_path / "records.csv"
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*does not have 5 fields"):
            write_table(path, ev.RECORDS_HEADER, [("seq_000", 3, 8, 1.25)])
        assert not path.exists()

    def test_short_row_names_file(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text(ev.RECORDS_HEADER + "\nseq_000,3,8,1.25\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 2")):
            ev.read_records_csv(path)


class TestResultsTable:
    def test_format_contains_methods_and_units(self):
        summary = ev.RPESummary(1.5, 0.3, 2.0, 0.4, 10)
        table = ev.format_results_table(
            [ev.MethodResult("policy", summary, 100.0),
             ev.MethodResult("eight_point", summary, 62.0)], w=8)
        assert "policy" in table and "eight_point" in table
        assert "trans mm" in table and "coverage" in table
