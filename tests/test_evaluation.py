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
    correspondences,
    generate_trajectory,
    make_tube_scene,
)


def random_trajectory(seed, n, trans=0.8, rot=0.05):
    rng = np.random.default_rng(seed)
    pose = Pose.identity()
    poses = [pose]
    for _ in range(n - 1):
        pose = se3.compose(pose, se3.random_pose(rng, trans, rot))
        poses.append(pose)
    return Trajectory.from_poses(poses, anchored=True)


class TestRPE:
    def test_perfect_prediction_zero_error(self):
        traj = random_trajectory(0, 12)
        windows = [ev.PredictedWindow("s", t, 8, se3.relative(traj.pose_at(t), traj.pose_at(t + 8)))
                   for t in range(4)]
        records, summary = ev.rpe(windows, {"s": traj}, 8)
        assert summary.trans_mean == pytest.approx(0.0, abs=1e-12)
        assert summary.rot_mean == pytest.approx(0.0, abs=1e-12)

    def test_known_translation_offset(self):
        traj = random_trajectory(1, 10)
        gt_delta = se3.relative(traj.pose_at(0), traj.pose_at(8))
        off = Pose(gt_delta.rotation, gt_delta.translation + np.array([1.0, 0, 0]))
        records, summary = ev.rpe([ev.PredictedWindow("s", 0, 8, off)], {"s": traj}, 8)
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
        records, _ = ev.rpe(windows, {"s": traj}, 8)

        for record, pw in zip(records, windows):
            gt_mat = np.linalg.inv(traj.pose_at(pw.t).as_matrix()) @ traj.pose_at(pw.t + 8).as_matrix()
            trans_err = np.linalg.norm(pw.delta.translation - gt_mat[:3, 3])
            cos_a = (np.trace(pw.delta.rotation.T @ gt_mat[:3, :3]) - 1.0) / 2.0
            rot_err = math.degrees(math.acos(np.clip(cos_a, -1.0, 1.0)))
            assert record.trans_err == pytest.approx(trans_err, abs=1e-9)
            assert record.rot_err == pytest.approx(rot_err, abs=1e-9)

    def test_empty_evaluation_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ev.rpe([], {}, 8)

    def test_anchoring_invariance(self):
        from policyvo.trajectory import anchor
        # Start the trajectory away from identity, then compare errors
        # computed against raw vs anchored ground truth.
        rng = np.random.default_rng(4)
        start = se3.random_pose(rng, 20.0, 1.0)
        poses = [start]
        for _ in range(11):
            poses.append(se3.compose(poses[-1], se3.random_pose(rng, 0.8, 0.05)))
        raw = Trajectory.from_poses(poses)
        anchored = anchor(raw)
        windows = [ev.PredictedWindow("s", t, 8, se3.compose(
            se3.relative(raw.pose_at(t), raw.pose_at(t + 8)), se3.random_pose(rng, 0.3, 0.02)))
            for t in range(3)]
        rec_raw, _ = ev.rpe(windows, {"s": raw}, 8)
        rec_anchored, _ = ev.rpe(windows, {"s": anchored}, 8)
        for a, b in zip(rec_raw, rec_anchored):
            assert a.trans_err == pytest.approx(b.trans_err, abs=1e-9)
            assert a.rot_err == pytest.approx(b.rot_err, abs=1e-9)

    def test_ranking_invariant_under_global_gt_transform(self):
        rng = np.random.default_rng(5)
        traj = random_trajectory(6, 20)
        good = [ev.PredictedWindow("s", t, 8, se3.compose(
            se3.relative(traj.pose_at(t), traj.pose_at(t + 8)), se3.random_pose(rng, 0.1, 0.01)))
            for t in range(10)]
        bad = [ev.PredictedWindow("s", t, 8, se3.compose(
            se3.relative(traj.pose_at(t), traj.pose_at(t + 8)), se3.random_pose(rng, 2.0, 0.2)))
            for t in range(10)]
        transform = se3.random_pose(rng, 50.0, 1.5)
        moved = Trajectory.from_poses([se3.compose(transform, p) for p in traj.poses])
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
        gt = 1.5 * pred @ se3.rot_z(0.4).T + np.array([1.0, -2.0, 3.0])
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
        traj = Trajectory.from_poses([Pose.identity()] * 12, anchored=True)
        for maker in (ev.zero_motion_windows, ev.constant_velocity_windows):
            windows = maker(traj, "s", 8)
            _, summary = ev.rpe(windows, {"s": traj}, 8)
            assert summary.trans_mean == pytest.approx(0.0, abs=1e-12)

    def test_constant_step_trajectory(self):
        step = 0.7
        poses = [Pose(np.eye(3), [step * i, 0, 0]) for i in range(14)]
        traj = Trajectory.from_poses(poses, anchored=True)
        w = 8
        cv = ev.constant_velocity_windows(traj, "s", w)
        _, cv_summary = ev.rpe(cv[1:], {"s": traj}, w)   # skip the no-history start
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
        for record, pw in zip(records[1:], cv[1:]):
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

    def test_empty_trajectory_gives_no_windows(self):
        empty = Trajectory(())
        assert ev.zero_motion_windows(empty, "s", 8) == []
        assert ev.constant_velocity_windows(empty, "s", 8) == []
        with pytest.raises(ValueError, match="empty evaluation"):
            ev.rpe(ev.zero_motion_windows(empty, "s", 8), {"s": empty}, 8)


class TestEightPoint:
    def setup_method(self):
        self.scene = make_tube_scene(42, n_landmarks=2500)
        self.camera = Camera.default(160)

    def test_noiseless_recovery(self):
        pose_a = Pose.identity()
        delta_true = Pose(se3.rot_y(0.02) @ se3.rot_x(-0.01), [0.4, 0.2, 1.0])
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
        pose_b = Pose(se3.rot_y(0.05), np.zeros(3))
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
