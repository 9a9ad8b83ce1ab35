import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from policyvo import se3, trajectory, world
from policyvo.se3 import Pose
from policyvo.tables import read_table
from policyvo.trajectory import Trajectory

from test_array_core import compose_window_loop

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

    def test_equality_compares_the_four_arrays(self):
        traj = random_trajectory(21, 3)
        copy = Trajectory(tuple((i, Pose(p.rotation.copy(), p.translation.copy()))
                                for i, p in traj.frames))
        assert traj == copy
        assert traj != random_trajectory(21, 3, start_index=1)
        assert traj != random_trajectory(22, 3)
        assert Trajectory([(0, Pose.identity())]) == Trajectory([(0, Pose.identity())],
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
        with pytest.raises(ValueError, match="orthonormal"):    # a view skips Pose's check
            Trajectory([(0, se3.pose_view(2.0 * np.eye(3), np.zeros(3)))])

    def test_from_stacks_copies_an_int64_frame_array(self):
        base = np.arange(5, dtype=np.int64)
        traj = Trajectory.from_stacks(base[:3], *identity_stacks(3))
        base[1] = 100
        assert traj.indices == [0, 1, 2] and traj._posed.tolist() == [0, 1, 2]
        assert base.flags.writeable and not traj.frame_array.flags.writeable

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
            assert Trajectory(anchored.frames, anchored=True) == anchored
            assert anchored.anchored


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

    @pytest.mark.parametrize("w", [2.5, 2.0, True, np.float64(2.0)])
    def test_non_integer_length_rejected(self, w):
        with pytest.raises(ValueError, match=re.escape(f"window length must be an integer >= 0, "
                                                       f"got {w!r}")):
            random_trajectory(17, 4).window_starts(w)


def reference_rows(traj) -> dict:
    """Stack row of each frame with a pose, as a dict: the reference for every frame lookup."""
    posed = traj.frame_array[traj.valid].tolist()
    return dict(zip(posed, range(len(posed))))


class TestFrameIndex:
    @settings(max_examples=150, deadline=None)
    @given(gapped_trajectories, st.lists(st.integers(-60, 110), max_size=6), st.integers(1, 4))
    @example(EMPTY, [0, -1], 1)
    @example(ALL_INVALID, [0, 1, 5], 2)
    @example(Trajectory([(-3, Pose.identity()), (-2, None), (-1, Pose.identity()),
                         (0, Pose.identity()), (1, Pose.identity())]), [-3, -2, -1, 2], 2)
    def test_lookups_match_a_dict(self, traj, queries, k):
        """rows, in, pose_at, window_starts and extract_actions answer as a frame -> row dict."""
        row_of = reference_rows(traj)
        queries = queries + list(row_of)
        for frame in queries:
            assert (frame in traj) == (frame in row_of)
            if frame in row_of:
                row = row_of[frame]
                assert traj.pose_at(frame) == Pose(traj.rotations[row], traj.translations[row])
            else:
                with pytest.raises(KeyError, match=f"no frame {frame} with a pose in trajectory"):
                    traj.pose_at(frame)
        missing = [frame for frame in queries if frame not in row_of]
        if missing:
            with pytest.raises(KeyError, match=f"no frame {missing[0]} with a pose"):
                traj.rows(queries)
        else:
            rows = traj.rows(queries)
            assert rows.dtype == np.intp and rows.tolist() == [row_of[i] for i in queries]
        for w in range(5):
            starts = traj.window_starts(w)
            assert starts == [t for t in row_of if all(t + i in row_of for i in range(w + 1))]
            assert all(type(t) is int for t in starts)
        for t in queries:
            if all(t + i in row_of for i in range(k + 1)):
                row = row_of[t]
                rot, trans = traj.rotations[row:row + k + 1], traj.translations[row:row + k + 1]
                np.testing.assert_array_equal(
                    trajectory.extract_actions(traj, t, k).as_array(),
                    se3.log_rt(*se3.relative_rt(rot[:-1], trans[:-1], rot[1:], trans[1:])))
            else:
                with pytest.raises(ValueError, match=re.escape(
                        f"window out of range: frames {t}..{t + k} not all present")):
                    trajectory.extract_actions(traj, t, k)

    TRAJ = Trajectory([(-2, Pose.identity()), (0, None), (1, se3.random_pose(1, 2.0, 0.3)),
                       (5, se3.random_pose(2, 2.0, 0.3)), (6, Pose.identity())])

    @pytest.mark.parametrize("query, frame", [(np.int32(-2), -2)])
    def test_a_number_equal_to_a_frame_finds_it(self, query, frame):
        traj = self.TRAJ
        assert query in traj
        assert traj.rows([query]).tolist() == traj.rows([frame]).tolist()
        assert traj.pose_at(query) == traj.pose_at(frame)

    @pytest.mark.parametrize("query", [5.5, 1.5, -1.5, 5.999, math.nan, math.inf, "5", None,
                                       False, 0, 0.0, 2**70, 5.0, np.float64(5.0), True, -2.0])
    def test_anything_else_finds_no_frame(self, query):
        """A query is never truncated to an integer, and only integers name frames."""
        traj = self.TRAJ
        assert query not in traj
        with pytest.raises(KeyError, match=re.escape(f"no frame {query} with a pose")):
            traj.pose_at(query)
        with pytest.raises(KeyError, match=re.escape(f"no frame {query} with a pose")):
            traj.rows([1, query, 5])


TOP = 2 ** 63     # the first integer past int64


def near(frame):
    """Integers within 8 of ``frame``; past int64 at its edges."""
    return st.integers(frame - 8, frame + 8)


def identity_stacks(n):
    """n identity rotations, and translations [3i, 3i + 1, 3i + 2] for row i."""
    return np.broadcast_to(np.eye(3), (n, 3, 3)), np.arange(3.0 * n).reshape(n, 3)


@st.composite
def edge_trajectories(draw):
    """Sorted unique frames near -2**63, 0 and 2**63 - 1, with a random mask."""
    frames = sorted(draw(st.sets(st.one_of(near(-TOP), near(0), near(TOP - 1)).filter(
        lambda f: -TOP <= f < TOP), max_size=12)))
    valid = draw(st.lists(st.booleans(), min_size=len(frames), max_size=len(frames)))
    return Trajectory.from_stacks(frames, *identity_stacks(sum(valid)), valid)


# Lookups: lists of frames, numbers near them (past int64 too), numpy integers, floats,
# bools and strings; and uint64 and int64 arrays.
query_items = st.one_of(near(-TOP), near(0), near(TOP - 1), st.integers(),
                        near(0).map(np.int32), near(TOP - 1).filter(lambda f: f < TOP).map(np.int64),
                        st.floats(), st.booleans(), st.text("05-", max_size=2))
queries = st.one_of(st.lists(query_items, max_size=6),
                    st.lists(st.one_of(near(0), near(TOP)).filter(lambda f: f >= 0),
                             max_size=4).map(lambda v: np.array(v, np.uint64)),
                    st.lists(near(TOP - 9), max_size=4).map(lambda v: np.array(v, np.int64)))


class TestInt64Frames:
    """One rule for frames: a Python or numpy integer within int64, not a bool, is a
    frame; every other value, and a lookup plus an offset past int64, finds none."""

    @settings(max_examples=300, deadline=None)
    @given(edge_trajectories(), queries, st.sampled_from([-1, 0, 1, 8, 2 ** 62]))
    def test_lookups_match_a_dict(self, traj, query, offset):
        row_of = reference_rows(traj)
        values = query.tolist() if isinstance(query, np.ndarray) else query

        def expected(q, offset):
            """The row of frame q + offset, or None; only a non-bool integer is a frame."""
            is_int = isinstance(q, (int, np.integer)) and not isinstance(q, bool)
            return row_of.get(int(q) + offset) if is_int else None

        want = [expected(q, offset) for q in values]
        rows, found = traj._find(query, offset)
        assert found.tolist() == [row is not None for row in want]
        assert rows[found].tolist() == [row for row in want if row is not None]
        want = [expected(q, 0) for q in values]
        for q, row in zip(values, want):
            assert (q in traj) == (row is not None)
            if row is None:
                with pytest.raises(KeyError, match="no frame"):
                    traj.pose_at(q)
            else:
                assert traj.pose_at(q).translation.tolist() == [3.0 * row, 3.0 * row + 1,
                                                                3.0 * row + 2]
        if None in want:
            with pytest.raises(KeyError, match="no frame"):
                traj.rows(query)
        else:
            assert traj.rows(query).tolist() == want

    def test_frames_at_the_top_of_int64_are_found_exactly(self):
        traj = Trajectory.from_stacks([TOP - 10 + i for i in range(10)], *identity_stacks(10))
        assert TOP + 5 not in traj
        with pytest.raises(KeyError, match=f"no frame {TOP + 5} with a pose"):
            traj.pose_at(TOP + 5)
        assert traj.rows([TOP - 7]).tolist() == [3]
        with pytest.raises(KeyError, match=f"no frame {TOP} with a pose"):
            traj.rows([TOP - 7, TOP])
        assert traj.rows(np.array([TOP - 1], np.uint64)).tolist() == [9]
        assert traj.pose_at(np.uint64(TOP - 1)).translation.tolist() == [27.0, 28.0, 29.0]

    def test_a_float_never_finds_a_frame_it_rounds_onto(self):
        traj = Trajectory([(2 ** 60 + 1, Pose.identity())])
        assert float(2 ** 60 + 1) == float(2 ** 60)
        with pytest.raises(KeyError, match="no frame 1.152921504606847e"):
            traj.pose_at(float(2 ** 60))

    @pytest.mark.parametrize("frames", [
        np.array([-TOP, TOP - 1]), [-TOP, TOP - 1], np.array([0, TOP - 1], np.uint64),
        [np.int64(-TOP), np.uint64(TOP - 1)], np.array([-5, 7], np.int32)])
    def test_the_int64_edges_are_frames(self, frames):
        want = [int(f) for f in frames]
        assert Trajectory.from_stacks(frames, *identity_stacks(2)).indices == want
        assert Trajectory([(f, Pose.identity()) for f in frames]).indices == want

    @pytest.mark.parametrize("frames, bad", [
        (np.array([TOP], np.uint64), TOP), ([TOP], TOP), ([-TOP - 1], -TOP - 1),
        ([0, np.uint64(TOP)], TOP), (np.array([0, 2 ** 64 - 1], np.uint64), 2 ** 64 - 1)])
    def test_a_frame_past_int64_is_refused(self, frames, bad):
        message = re.escape(f"frame index {bad} is outside int64")
        with pytest.raises(ValueError, match=message):
            Trajectory.from_stacks(frames, *identity_stacks(len(frames)))
        with pytest.raises(ValueError, match=message):
            Trajectory([(f, Pose.identity()) for f in frames])

    @pytest.mark.parametrize("bad", [True, np.True_, False])
    def test_a_bool_is_not_a_frame(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"frame index {bad!r} is not an integer")):
            Trajectory([(bad, Pose.identity())])
        with pytest.raises(ValueError, match=re.escape(f"frame index {bad!r} is not an integer")):
            Trajectory.from_stacks([bad], *identity_stacks(1))

    def test_anchored_is_read_from_the_first_pose(self):
        still = Trajectory([(i, Pose.identity()) for i in range(4)])
        moved = Trajectory([(0, None), (1, Pose(np.eye(3), [1e-8, 0.0, 0.0]))])
        assert still.anchored and not moved.anchored and EMPTY.anchored and ALL_INVALID.anchored
        assert Trajectory([(0, Pose(np.eye(3), [1e-9, 0.0, 0.0]))], anchored=True).anchored
        assert trajectory.rows_to_trajectory(trajectory.anchor(moved)).anchored
        assert trajectory.anchor(random_trajectory(3, 4)).anchored


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
        end = compose_window_loop(traj.pose_at(3), actions, 8)
        np.testing.assert_allclose(end.as_matrix(), traj.pose_at(11).as_matrix(), atol=1e-9)

    def test_random_windows_round_trip(self):
        """The first w actions of a window compose back to the pose w frames later."""
        for case in range(100):
            traj = random_trajectory(1000 + case, 10)
            actions = trajectory.extract_actions(traj, 0, 8)
            for w in (1, 4, 8):
                end = compose_window_loop(traj.pose_at(0), actions, w)
                np.testing.assert_allclose(end.as_matrix(), traj.pose_at(w).as_matrix(),
                                           atol=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(gapped_trajectories, st.integers(1, 4))
    def test_slices_of_one_step_array_equal_per_window_steps(self, traj, k):
        """Each window's actions are a slice of the trajectory's one step array, equal
        to the steps computed from the window's own rows alone."""
        for t in traj.window_starts(k):
            actions = trajectory.extract_actions(traj, t, k).as_array()
            row = traj.rows([t])[0]
            rot, trans = traj.rotations[row:row + k + 1], traj.translations[row:row + k + 1]
            want = se3.log_rt(*se3.relative_rt(rot[:-1], trans[:-1], rot[1:], trans[1:]))
            np.testing.assert_array_equal(actions, want)
            assert actions.base is traj._steps

    def test_window_away_from_an_overflow_keeps_its_actions(self):
        near = random_trajectory(7, 11)
        far = [(11, Pose(np.eye(3), [1e308, 0.0, 0.0])), (12, Pose(np.eye(3), [-1e308, 0.0, 0.0]))]
        traj = Trajectory(list(near.frames) + far)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            actions = trajectory.extract_actions(traj, 0, 8)
            with pytest.raises(ValueError, match="action delta has non-finite components"):
                trajectory.extract_actions(traj, 4, 8)      # its last step is 11 -> 12
        np.testing.assert_array_equal(actions.as_array(),
                                      trajectory.extract_actions(near, 0, 8).as_array())

    @pytest.mark.parametrize("t, k, message", [
        (True, 3, "window start t must be an integer, got True"),
        (1.0, 3, "window start t must be an integer, got 1.0"),
        (np.float64(2.0), 3, "window start t must be an integer, got np.float64(2.0)"),
        (1, 2.0, "horizon k must be an integer >= 1, got 2.0"),
        (1, 0, "horizon k must be an integer >= 1, got 0"),
    ])
    def test_non_integer_keys_rejected(self, t, k, message):
        traj = random_trajectory(8, 6)
        with pytest.raises(ValueError, match=re.escape(message)):
            trajectory.extract_actions(traj, t, k)
        if message.startswith("horizon"):
            with pytest.raises(ValueError, match=re.escape(message)):
                world.window_samples("s", trajectory.anchor(traj), {}, k)


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

    def test_writer_bytes_are_one_format_per_row(self, tmp_path):
        """The column-list writer writes the bytes of one ``TRAJECTORY_ROW`` per row,
        nan rows and frames at both ends of int64 included."""
        poses = [se3.random_pose(seed, 5.0, 1.0) for seed in range(3)]
        traj = Trajectory([(-2 ** 63, poses[0]), (-7, None), (0, poses[1]), (5, None),
                           (2 ** 63 - 1, poses[2])])
        vectors = iter(se3.log_rt(traj.rotations, traj.translations).tolist())
        nan_row = [math.nan] * 6
        lines = [trajectory.TRAJECTORY_ROW % (i, *(nan_row if p is None else next(vectors)))
                 for i, p in traj]
        path = tmp_path / "traj.csv"
        trajectory.write_trajectory_file(path, traj)
        assert path.read_bytes() == "".join(
            f"{line}\n" for line in [trajectory.TRAJECTORY_HEADER, *lines]).encode()
        assert "nan" in lines[1] and lines[-1].startswith(f"{2 ** 63 - 1},")

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
        assert back.poses == list(map(se3.pose_view, *se3._validated(*se3.exp_rt(written))))

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
        (f"0,{2 ** 63}", 3, f"frame {2 ** 63} is outside int64"),
        (f"{-2 ** 63 - 1},0", 2, f"frame {-2 ** 63 - 1} is outside int64"),
    ])
    def test_bad_frame_names_file_and_line(self, tmp_path, frames, line, message):
        path = tmp_path / "traj.csv"
        path.write_text(trajectory.TRAJECTORY_HEADER + "\n"
                        + "".join(f"{i},0,0,0,0,0,0\n" for i in frames.split(",")))
        with pytest.raises(ValueError, match=re.escape(f"{path}, line {line}: {message}")):
            trajectory.read_trajectory_file(path)

    def test_the_int64_edges_round_trip(self, tmp_path):
        path = tmp_path / "traj.csv"
        traj = Trajectory([(-2 ** 63, Pose.identity()), (2 ** 63 - 1, Pose(np.eye(3), [1.0, 2, 3]))])
        trajectory.write_trajectory_file(path, traj)
        assert trajectory.read_trajectory_file(path) == traj

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
        ([0, 2 ** 63], f"frame index {2 ** 63} is outside int64"),
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
