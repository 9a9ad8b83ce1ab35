import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from policyvo import se3, trajectory
from policyvo.se3 import Pose
from policyvo.tables import read_table
from policyvo.trajectory import ActionSequence, Trajectory

# A pose as (axis-angle direction, angle, translation), or None for a nan row.
file_poses = st.one_of(st.none(), st.tuples(
    st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 1e-3),
    st.one_of(st.floats(0.0, math.pi), st.floats(math.pi - 1e-6, math.pi)),
    st.tuples(*[st.floats(-1e3, 1e3)] * 3)).map(
        lambda a: Pose(se3.so3_exp(np.array(a[0]) / np.linalg.norm(a[0]) * a[1]), a[2])))


# Trajectories with frame gaps (steps of 1 to 4) and frames without a pose.
gapped_trajectories = st.tuples(st.integers(-50, 50), st.lists(
    st.tuples(st.integers(1, 4), file_poses), max_size=12)).map(
        lambda a: Trajectory([(a[0] + gaps, pose) for gaps, pose in
                              zip(np.cumsum([g for g, _ in a[1]]).tolist(), [p for _, p in a[1]])]))
EMPTY = Trajectory(())
ALL_INVALID = Trajectory([(0, None), (1, None), (5, None)])


def random_trajectory(seed, n, trans_scale=2.0, rot_scale=0.3, start_index=0):
    rng = np.random.default_rng(seed)
    pose = se3.random_pose(rng, 10.0, 1.0)
    poses = [pose]
    for _ in range(n - 1):
        pose = se3.compose(pose, se3.random_pose(rng, trans_scale, rot_scale))
        poses.append(pose)
    return Trajectory(enumerate(poses, start_index))


class TestTrajectoryType:
    def test_indices_strictly_increasing(self):
        p = Pose.identity()
        with pytest.raises(ValueError):
            Trajectory(((0, p), (0, p)))
        with pytest.raises(ValueError):
            Trajectory(((2, p), (1, p)))

    @pytest.mark.parametrize("bad", [1.5, 2.0, np.float64(3.0), "4"])
    def test_non_integer_frame_index_rejected(self, bad):
        p = Pose.identity()
        with pytest.raises(ValueError, match=re.escape(f"frame index {bad!r} is not an integer")):
            Trajectory(((0, p), (bad, p)))

    def test_numpy_integer_frame_indices_accepted(self):
        p = Pose.identity()
        traj = Trajectory(((np.int64(1), p), (np.int32(2), p), (3, p)))
        assert traj.indices == [1, 2, 3]
        assert all(type(i) is int for i in traj.indices)

    def test_anchored_flag_requires_identity_start(self):
        with pytest.raises(ValueError):
            Trajectory(((0, Pose(np.eye(3), [1.0, 0, 0])),), anchored=True)

    def test_equality_compares_frames_and_anchoring(self):
        traj = random_trajectory(21, 3)
        copy = Trajectory(tuple((i, Pose(p.rotation.copy(), p.translation.copy()))
                                for i, p in traj.frames))
        assert traj == copy
        assert traj != random_trajectory(21, 3, start_index=1)
        assert traj != random_trajectory(22, 3)
        assert Trajectory([(0, Pose.identity())]) != Trajectory([(0, Pose.identity())],
                                                                anchored=True)

    def test_lookup_by_frame_index(self):
        traj = random_trajectory(16, 4, start_index=5)
        assert 5 in traj and 8 in traj and 4 not in traj and 9 not in traj
        assert traj.pose_at(7) == traj.poses[2]
        with pytest.raises(KeyError, match="no frame 9"):
            traj.pose_at(9)

    def test_frames_without_a_pose_are_masked(self):
        a, b = se3.random_pose(1, 2.0, 0.3), se3.random_pose(2, 2.0, 0.3)
        traj = Trajectory([(3, a), (4, None), (6, b)])
        assert len(traj) == 3 and traj.indices == [3, 4, 6]
        assert traj.valid.tolist() == [True, False, True] and traj.poses == [a, b]
        assert list(traj) == [(3, a), (4, None), (6, b)]
        assert 4 not in traj and traj.window_starts(0) == [3, 6]
        with pytest.raises(KeyError, match="no frame 4 with a pose"):
            traj.pose_at(4)

    def test_from_stacks_checks_its_arrays(self):
        rotations, translations = np.stack([np.eye(3)] * 2), np.zeros((2, 3))
        traj = Trajectory.from_stacks([2, 5, 7], rotations, translations, [True, False, True])
        assert traj == Trajectory([(2, Pose.identity()), (5, None), (7, Pose.identity())])
        assert not (traj.frame_array.flags.writeable or traj.valid.flags.writeable)
        with pytest.raises(ValueError, match="2 valid frames, 3 poses"):
            Trajectory.from_stacks([2, 5], np.stack([np.eye(3)] * 3), np.zeros((3, 3)))
        with pytest.raises(ValueError, match="frame 5 does not follow frame 7"):
            Trajectory.from_stacks([2, 7, 5], np.stack([np.eye(3)] * 3), np.zeros((3, 3)))
        with pytest.raises(ValueError, match="1-D arrays of one length"):
            Trajectory.from_stacks([2, 5], rotations, translations, [True, True, False])
        with pytest.raises(ValueError, match="orthonormal"):
            Trajectory.from_stacks([2, 5], 2.0 * rotations, translations)

    def test_immutable_and_unhashable(self):
        traj = random_trajectory(24, 3)
        with pytest.raises(AttributeError, match="immutable"):
            traj.anchored = True
        with pytest.raises(TypeError, match="unhashable"):
            hash(traj)

    @settings(max_examples=60, deadline=None)
    @given(gapped_trajectories)
    @example(EMPTY)
    @example(ALL_INVALID)
    def test_rows_round_trip(self, traj):
        assert Trajectory(traj.frames) == traj
        if len(traj.rotations):
            anchored = trajectory.anchor(traj)
            assert Trajectory(anchored.frames, anchored=True) == anchored != traj


class TestWindowStarts:
    @given(st.sets(st.integers(0, 60), max_size=40), st.integers(0, 10))
    def test_matches_brute_force(self, index_set, w):
        indices = sorted(index_set)
        pose = Pose.identity()
        traj = Trajectory(tuple((i, pose) for i in indices))
        present = set(indices)
        expected = [t for t in indices if all(i in present for i in range(t, t + w + 1))]
        assert traj.window_starts(w) == expected

    def test_empty_trajectory_has_no_windows(self):
        assert Trajectory(()).window_starts(8) == []

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="window length"):
            random_trajectory(17, 4).window_starts(-1)


class TestAnchor:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            trajectory.anchor(Trajectory(()))

    def test_single_frame_becomes_identity(self):
        traj = Trajectory(((5, se3.random_pose(0, 3.0, 0.5)),))
        out = trajectory.anchor(traj)
        np.testing.assert_allclose(out.frames[0][1].as_matrix(), np.eye(4), atol=1e-12)

    def test_idempotent(self):
        traj = trajectory.anchor(random_trajectory(1, 5))
        again = trajectory.anchor(traj)
        for (_, a), (_, b) in zip(traj.frames, again.frames):
            np.testing.assert_allclose(a.as_matrix(), b.as_matrix(), atol=1e-9)

    def test_relative_transforms_invariant(self):
        traj = random_trajectory(2, 3)
        anchored = trajectory.anchor(traj)
        before = se3.relative(traj.poses[1], traj.poses[2])
        after = se3.relative(anchored.poses[1], anchored.poses[2])
        np.testing.assert_allclose(before.as_matrix(), after.as_matrix(), atol=1e-9)

    def test_all_pairs_invariant(self):
        traj = random_trajectory(3, 6)
        anchored = trajectory.anchor(traj)
        for i in range(6):
            for j in range(6):
                before = se3.relative(traj.poses[i], traj.poses[j])
                after = se3.relative(anchored.poses[i], anchored.poses[j])
                np.testing.assert_allclose(before.as_matrix(), after.as_matrix(), atol=1e-9)


class TestExtractActions:
    def test_static_trajectory_gives_zero_deltas(self):
        pose = se3.random_pose(4, 2.0, 0.3)
        traj = Trajectory(enumerate([pose] * 5))
        actions = trajectory.extract_actions(traj, 0, 4)
        np.testing.assert_allclose(actions.as_array(), np.zeros((4, 6)), atol=1e-12)

    def test_constant_step_translation(self):
        poses = [Pose(np.eye(3), [float(i), 0.0, 0.0]) for i in range(6)]
        traj = Trajectory(enumerate(poses))
        actions = trajectory.extract_actions(traj, 1, 3)
        expected = np.tile([1.0, 0, 0, 0, 0, 0], (3, 1))
        np.testing.assert_allclose(actions.as_array(), expected, atol=1e-12)

    def test_missing_frames_error(self):
        traj = random_trajectory(5, 4)
        with pytest.raises(ValueError, match="window out of range"):
            trajectory.extract_actions(traj, 2, 4)

    def test_round_trip_reconstructs_end_pose(self):
        traj = random_trajectory(6, 12)
        actions = trajectory.extract_actions(traj, 3, 8)
        end = trajectory.compose_window(traj.pose_at(3), actions, 8)
        np.testing.assert_allclose(end.as_matrix(), traj.pose_at(11).as_matrix(), atol=1e-9)


class TestComposeWindow:
    def test_zero_actions_returns_start(self):
        start = se3.random_pose(7, 2.0, 0.4)
        actions = ActionSequence.from_array(np.zeros((4, 6)))
        out = trajectory.compose_window(start, actions, 4)
        np.testing.assert_allclose(out.as_matrix(), start.as_matrix(), atol=1e-12)

    def test_single_step_definition(self):
        start = se3.random_pose(8, 2.0, 0.4)
        actions = trajectory.extract_actions(random_trajectory(9, 4), 0, 3)
        out = trajectory.compose_window(start, actions, 1)
        expected = se3.compose(start, se3.exp(actions.as_array()[0]))
        np.testing.assert_allclose(out.as_matrix(), expected.as_matrix(), atol=1e-12)

    def test_w_longer_than_sequence_rejected(self):
        actions = ActionSequence.from_array(np.zeros((2, 6)))
        with pytest.raises(ValueError):
            trajectory.compose_window(Pose.identity(), actions, 3)

    def test_negative_w_rejected(self):
        # w = -1 would otherwise compose all but the last of three unit-x steps.
        actions = ActionSequence.from_array(np.tile([1.0, 0, 0, 0, 0, 0], (3, 1)))
        with pytest.raises(ValueError, match="window length must be >= 0"):
            trajectory.compose_window(Pose.identity(), actions, -1)

    def test_thousand_random_windows_round_trip(self):
        rng = np.random.default_rng(10)
        for case in range(100):
            traj = random_trajectory(1000 + case, 10)
            actions = trajectory.extract_actions(traj, 0, 8)
            for w in (1, 4, 8):
                end = trajectory.compose_window(traj.pose_at(0), actions, w)
                np.testing.assert_allclose(end.as_matrix(), traj.pose_at(w).as_matrix(),
                                           atol=1e-9)


class TestTrajectoryFile:
    def test_round_trip(self, tmp_path):
        traj = random_trajectory(14, 7, start_index=3)
        path = tmp_path / "traj.csv"
        trajectory.write_trajectory_file(path, traj)
        rows = trajectory.read_trajectory_file(path)
        assert [i for i, _ in rows] == traj.indices
        for (_, read_pose), pose in zip(rows, traj.poses):
            np.testing.assert_allclose(read_pose.as_matrix(), pose.as_matrix(), atol=1e-12)

    def test_invalid_rows_round_trip(self, tmp_path):
        rows = [(0, Pose.identity()), (1, None), (2, se3.random_pose(15, 1.0, 0.2))]
        path = tmp_path / "traj.csv"
        trajectory.write_trajectory_file(path, rows)
        back = trajectory.read_trajectory_file(path)
        assert back.frames[1][1] is None
        assert back.frames[0][1] is not None
        traj = trajectory.rows_to_trajectory(back)
        assert traj.indices == [0, 2]

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValueError, match="header"):
            trajectory.read_trajectory_file(path)

    def test_truncated_row_names_file(self, tmp_path):
        path = tmp_path / "traj.csv"
        trajectory.write_trajectory_file(path, random_trajectory(18, 3))
        text = path.read_text()
        path.write_text(text[:text.rstrip().rfind(",")])
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 4")):
            trajectory.read_trajectory_file(path)

    def test_empty_field_names_file(self, tmp_path):
        path = tmp_path / "traj.csv"
        trajectory.write_trajectory_file(path, random_trajectory(23, 3))
        text = path.read_text().rstrip()
        path.write_text(text[:text.rfind(",") + 1] + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 4: empty field")):
            trajectory.read_trajectory_file(path)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-50, 50), st.lists(st.tuples(st.integers(1, 4), file_poses), max_size=12))
    def test_round_trip_bit_for_bit(self, first, gaps_and_poses):
        frames = (first + np.cumsum([g for g, _ in gaps_and_poses])).tolist()
        rows = [(i, p) for i, (_, p) in zip(frames, gaps_and_poses)]
        valid = [p for _, p in rows if p is not None]
        written = se3.log_rt(*se3.stack(valid))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "traj.csv"
            trajectory.write_trajectory_file(path, rows)
            numbers = np.array(read_table(path, trajectory.TRAJECTORY_HEADER), dtype=float)
            back = trajectory.read_trajectory_file(path)
        assert [i for i, _ in back] == frames
        assert [p is None for _, p in back] == [p is None for _, p in rows]
        valid_rows = numbers.reshape(-1, 7)[[p is not None for _, p in rows], 1:]
        np.testing.assert_array_equal(valid_rows, written)
        assert [p for _, p in back if p is not None] == se3.poses(*se3.exp_rt(written))

    @settings(max_examples=60, deadline=None)
    @given(gapped_trajectories)
    @example(EMPTY)
    @example(ALL_INVALID)
    def test_trajectory_round_trip(self, traj):
        """A file holds the frames and mask exactly; rotations go through log and exp."""
        through_log = Trajectory.from_stacks(
            traj.frame_array, *se3.exp_rt(se3.log_rt(traj.rotations, traj.translations)),
            traj.valid)
        translated = Trajectory.from_stacks(
            traj.frame_array, np.broadcast_to(np.eye(3), traj.rotations.shape),
            traj.translations, traj.valid)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "traj.csv"
            trajectory.write_trajectory_file(path, traj)
            assert trajectory.read_trajectory_file(path) == through_log
            trajectory.write_trajectory_file(path, translated)
            assert trajectory.read_trajectory_file(path) == translated

    @pytest.mark.parametrize("frames, line, message", [
        ("0,1,1,3,2,4", 4, "frame 1 does not follow frame 1"),
        ("0,1,3,2,4", 5, "frame 2 does not follow frame 3"),
        ("0,1.5,2", 3, "frame '1.5' is not an integer"),
        ("0,x,2", 3, "frame 'x' is not an integer"),
    ])
    def test_bad_frame_names_file_and_line(self, tmp_path, frames, line, message):
        path = tmp_path / "traj.csv"
        path.write_text(trajectory.TRAJECTORY_HEADER + "\n"
                        + "".join(f"{i},0,0,0,0,0,0\n" for i in frames.split(",")))
        with pytest.raises(ValueError, match=re.escape(f"{path}, line {line}: {message}")):
            trajectory.read_trajectory_file(path)

    def test_non_numeric_field_names_file_and_line(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text(trajectory.TRAJECTORY_HEADER + "\n0,0,0,0,0,0,0\n1,0,0,abc,0,0,0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 3: ") + ".*'abc'"):
            trajectory.read_trajectory_file(path)

    @pytest.mark.parametrize("frames, message", [
        ([1, 0], "frame 0 does not follow frame 1"),
        ([0, 2, 2], "frame 2 does not follow frame 2"),
        ([1.5], "frame indices must be integers"),
        ([0, 1.0], "frame indices must be integers"),
    ])
    def test_writer_rejects_bad_frames_and_writes_nothing(self, tmp_path, frames, message):
        path = tmp_path / "traj.csv"
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            trajectory.write_trajectory_file(path, [(i, Pose.identity()) for i in frames])
        assert not path.exists()

    def test_precision_at_least_15_digits(self, tmp_path):
        value = 1.0 / 3.0
        traj = Trajectory(((0, Pose(np.eye(3), [value, 0, 0])),))
        path = tmp_path / "traj.csv"
        trajectory.write_trajectory_file(path, traj)
        rows = trajectory.read_trajectory_file(path)
        assert rows.frames[0][1].translation[0] == value
