"""The SE(3) stack functions against their one-pose forms, and the pipeline
functions built on them against the per-pose loops they replaced."""

import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from policyvo import evaluation as ev
from policyvo import se3
from policyvo import trajectory as trj
from policyvo import world
from policyvo.se3 import Pose
from policyvo.trajectory import Trajectory

from rotations import unit_axes

angles = st.one_of(st.floats(0.0, math.pi), st.floats(math.pi - 1e-6, math.pi),
                   st.floats(0.0, 1e-6))
translations = st.tuples(*[st.floats(-100.0, 100.0)] * 3).map(np.array)
pose_stacks = st.lists(st.tuples(unit_axes, angles, translations), max_size=6).map(
    lambda rows: (se3.so3_exp(np.array([a * x for a, x, _ in rows]).reshape(-1, 3)),
                  np.array([t for _, _, t in rows]).reshape(-1, 3)))


def pose_list(stack):
    return [Pose(r, t) for r, t in zip(*stack)]


class TestStackProperties:
    @settings(max_examples=200, deadline=None)
    @given(unit_axes, angles)
    def test_exp_log_round_trip(self, axis, angle):
        rotation = se3.so3_exp(axis * angle)
        vec = se3.so3_log(rotation)
        assert np.linalg.norm(vec) <= math.pi + 1e-12
        np.testing.assert_allclose(se3.so3_exp(vec), rotation, atol=1e-9)
        if angle < math.pi - 1e-6:    # a unique principal branch
            np.testing.assert_allclose(vec, axis * angle, atol=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(pose_stacks, pose_stacks, pose_stacks)
    def test_compose_associative_and_inverse(self, a, b, c):
        n = min(len(a[0]), len(b[0]), len(c[0]))
        a, b, c = [(r[:n], t[:n]) for r, t in (a, b, c)]
        left = se3.compose_rt(*se3.compose_rt(*a, *b), *c)
        right = se3.compose_rt(*a, *se3.compose_rt(*b, *c))
        for got, want in zip(left, right):
            np.testing.assert_allclose(got, want, atol=1e-9)
        rot, trans = se3.compose_rt(*a, *se3.inverse_rt(*a))
        np.testing.assert_allclose(rot, np.broadcast_to(np.eye(3), rot.shape), atol=1e-12)
        np.testing.assert_allclose(trans, 0.0, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(pose_stacks, pose_stacks)
    def test_stack_equals_each_row(self, a, b):
        n = min(len(a[0]), len(b[0]))
        a, b = (a[0][:n], a[1][:n]), (b[0][:n], b[1][:n])
        pa, pb = pose_list(a), pose_list(b)
        pairs = [(se3.compose_rt(*a, *b), [se3.compose(x, y) for x, y in zip(pa, pb)]),
                 (se3.inverse_rt(*a), [se3.inverse(x) for x in pa]),
                 (se3.relative_rt(*a, *b), [se3.relative(x, y) for x, y in zip(pa, pb)]),
                 (se3.exp_rt(se3.log_rt(*a)), [se3.exp(se3.log(x)) for x in pa])]
        for (rot, trans), scalar in pairs:
            assert rot.shape == (n, 3, 3) and trans.shape == (n, 3)
            for r, t, p in zip(rot, trans, scalar):
                np.testing.assert_allclose(r, p.rotation, rtol=0, atol=1e-12)
                np.testing.assert_allclose(t, p.translation, rtol=0, atol=1e-12)
        np.testing.assert_allclose(se3.log_rt(*a).reshape(n, 6),
                                   np.reshape([se3.log(p) for p in pa], (n, 6)), rtol=0, atol=1e-12)
        np.testing.assert_allclose(se3.geodesic_angle(a[0], b[0]),
                                   [se3.geodesic_angle(x, y) for x, y in zip(a[0], b[0])],
                                   rtol=0, atol=1e-12)

    def test_compose_reprojects_only_drifted_rows(self):
        clean = se3.so3_exp(np.array([[0.1, 0.2, 0.3], [-1.0, 0.5, 2.0], [0.0, 0.0, 3.0]]))
        drifted = clean.copy()
        drifted[1] *= 1.0 + 5e-11      # drift 1e-10: valid, but past RENORM_TRIGGER
        assert se3.orthonormality_drift(drifted)[1] > 10 * se3.RENORM_TRIGGER
        rot, _ = se3.compose_rt(np.eye(3), np.zeros(3), drifted, np.zeros((3, 3)))
        np.testing.assert_array_equal(rot[[0, 2]], np.eye(3) @ drifted[[0, 2]])
        assert se3.orthonormality_drift(rot[1]) < se3.RENORM_TRIGGER
        np.testing.assert_allclose(rot[1], clean[1], atol=1e-9)
        one = se3.compose(Pose.identity(), Pose(drifted[1], np.zeros(3)))
        np.testing.assert_array_equal(one.rotation, rot[1])


def checked_views(rotations, translations) -> list[Pose]:
    """Pose views of the rows of a stack that is checked once as a whole."""
    return list(map(se3.pose_view, *se3._validated(rotations, translations)))


class TestPoseStacks:
    def test_views_are_read_only_and_equal_to_checked_poses(self):
        rng = np.random.default_rng(0)
        poses = [se3.random_pose(rng, 2.0, 0.5) for _ in range(5)]
        views = checked_views(*se3.stack(poses))
        assert views == poses
        with pytest.raises(ValueError, match="read-only"):
            views[2].rotation[0, 0] = 1.0

    @pytest.mark.filterwarnings("ignore:invalid value encountered in det")
    @pytest.mark.parametrize("bad_row, message", [
        ((np.eye(3) * 1.1, np.zeros(3)), "orthonormal"),
        ((np.diag([1.0, 1.0, -1.0]), np.zeros(3)), "determinant"),
        ((np.eye(3), [0.0, np.inf, 0.0]), "non-finite"),
        ((np.full((3, 3), np.nan), np.zeros(3)), "orthonormal"),
    ])
    def test_one_bad_row_rejects_the_stack(self, bad_row, message):
        rotations = np.stack([np.eye(3), np.eye(3), bad_row[0]])
        translations = np.stack([np.zeros(3), np.ones(3), bad_row[1]])
        with pytest.raises(ValueError, match=message):
            checked_views(rotations, translations)
        with pytest.raises(ValueError, match=message):
            Pose(*bad_row)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="pose arrays"):
            checked_views(np.stack([np.eye(3)] * 2), np.zeros((3, 3)))

    def test_empty_stack(self):
        assert checked_views(*se3.stack([])) == []


# ---------------------------------------------------------------------------
# The per-pose loops the stack versions replaced, kept as references.

def rpe_loop(windows, gt, w):
    out = []
    for pw in windows:
        delta = se3.relative(gt.pose_at(pw.t), gt.pose_at(pw.t + w))
        out.append((float(np.linalg.norm(pw.delta.translation - delta.translation)),
                    math.degrees(se3.geodesic_angle(pw.delta.rotation, delta.rotation))))
    return out


def constant_velocity_loop(gt, w):
    out = []
    for t in gt.window_starts(w):
        delta = Pose.identity()
        if t - 1 in gt:
            step = se3.relative(gt.pose_at(t - 1), gt.pose_at(t))
            for _ in range(w):
                delta = se3.compose(delta, step)
        out.append((t, delta))
    return out


def windows_loop(rows, w):
    poses = dict(rows)
    out = []
    for t in range(rows[0][0], rows[-1][0] - w + 1):
        if poses.get(t) is not None and poses.get(t + w) is not None:
            out.append((t, se3.relative(poses[t], poses[t + w])))
    return out


def window_samples_loop(traj, k):
    """Per window: the steps of its own rows, and the log of its start pose."""
    out = []
    for t in traj.window_starts(k):
        rows = traj.rows(range(t, t + k + 1))
        rot, trans = traj.rotations[rows], traj.translations[rows]
        steps = se3.relative_rt(rot[:-1], trans[:-1], rot[1:], trans[1:])
        out.append((t, se3.log(traj.pose_at(t)), se3.log_rt(*steps)))
    return out


def compose_window_loop(start, actions, w):
    """start composed with exp of each of the first w actions, first action first."""
    pose = start
    for vector in actions.as_array()[:w]:
        pose = se3.compose(pose, se3.exp(vector))
    return pose


def gapped_estimate(seed, n):
    rng = np.random.default_rng(seed)
    pose, rows = se3.random_pose(rng, 20.0, 1.0), []
    for i in range(n):
        pose = se3.compose(pose, se3.random_pose(rng, 0.8, 0.05))
        rows.append((i, None if rng.random() < 0.1 else pose))
    return rows


def assert_poses_close(got, want, atol=1e-12):
    np.testing.assert_allclose(got.rotation, want.rotation, rtol=0, atol=atol)
    np.testing.assert_allclose(got.translation, want.translation, rtol=0, atol=atol)


class TestPipelineMatchesLoops:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rpe_and_floor_baselines(self, seed):
        rows = gapped_estimate(seed, 120)
        gt = trj.rows_to_trajectory(rows)
        const = ev.constant_velocity_windows(gt, "s", 8)
        want = constant_velocity_loop(gt, 8)
        assert [pw.t for pw in const] == [t for t, _ in want]
        for pw, (_, delta) in zip(const, want):
            assert_poses_close(pw.delta, delta)
        for windows in (const, ev.zero_motion_windows(gt, "s", 8)):
            records, _ = ev.rpe(windows, {"s": gt}, 8)
            for record, (trans, rot) in zip(records, rpe_loop(windows, gt, 8)):
                assert record.trans_err == pytest.approx(trans, rel=1e-12, abs=1e-12)
                assert record.rot_err == pytest.approx(rot, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("w", [1, 8])
    def test_windows_from_rows(self, w):
        rows = gapped_estimate(3, 60)
        got = ev.windows_from_rows(rows, "s", w)
        want = windows_loop(rows, w)
        assert [pw.t for pw in got] == [t for t, _ in want]
        for pw, (_, delta) in zip(got, want):
            assert_poses_close(pw.delta, delta)

    def test_anchor_and_extract_actions(self):
        traj = trj.rows_to_trajectory(gapped_estimate(4, 40))
        anchored = trj.anchor(traj)
        first_inv = se3.inverse(traj.frames[0][1])
        for (i, got), (j, pose) in zip(anchored.frames, traj.frames):
            assert i == j
            assert_poses_close(got, se3.compose(first_inv, pose))
        for t in traj.window_starts(4):
            got = trj.extract_actions(traj, t, 4).as_array()
            want = [se3.log(se3.relative(traj.pose_at(i), traj.pose_at(i + 1)))
                    for i in range(t, t + 4)]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_window_samples_bit_identical_and_recompose(self, seed):
        traj = trj.anchor(trj.rows_to_trajectory(gapped_estimate(seed, 150)))
        samples = world.window_samples("s", traj, dict.fromkeys(traj.indices), 8)
        want = window_samples_loop(traj, 8)
        assert len(samples) == len(want) and len(want) < len(traj) - 8   # gaps drop windows
        for sample, (t, state, actions) in zip(samples, want):
            assert sample.t == t
            np.testing.assert_array_equal(sample.state, state)
            np.testing.assert_array_equal(sample.actions.as_array(), actions)
            assert sample.actions == trj.extract_actions(traj, t, 8)
            start = traj.pose_at(t)
            for w in (0, 1, 5, 8):
                assert_poses_close(compose_window_loop(start, sample.actions, w),
                                   traj.pose_at(t + w), atol=1e-9)

    def test_align_rows_to_gt(self):
        gt = Trajectory(enumerate(se3.random_pose(k, 5.0, 0.3) for k in range(30)))
        rotation, translation = se3.so3_exp([0.3, -0.2, 0.1]), np.array([1.0, 2.0, 3.0])
        rows = [(i, None if i in (9, 10, 20) else
                 Pose(rotation.T @ p.rotation, rotation.T @ (p.translation - translation) / 2.5))
                for i, p in gt.frames]
        aligned = ev.align_rows_to_gt(rows, gt)
        assert [i for i, p in aligned if p is None] == [9, 10, 20]
        for (i, got), (_, want) in zip(aligned, gt.frames):
            if got is not None:
                assert_poses_close(got, want, atol=1e-9)


class TestRowsAndTrajectoryAgree:
    """Stage functions give identical results for rows and for the equivalent Trajectory."""

    @pytest.mark.parametrize("seed", [0, 8])
    def test_align_windows_coverage_and_file(self, seed, tmp_path):
        rows = gapped_estimate(seed, 80)
        traj = Trajectory(rows)
        assert sum(p is None for _, p in rows) > 0
        gt = trj.rows_to_trajectory(rows)
        assert ev.align_rows_to_gt(rows, gt) == ev.align_rows_to_gt(traj, gt)
        for w in (0, 1, 8):
            got, want = ev.windows_from_rows(rows, "s", w), ev.windows_from_rows(traj, "s", w)
            for name in ("starts", "rotations", "translations"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        assert ev.coverage(rows) == ev.coverage(traj)
        trj.write_trajectory_file(tmp_path / "rows.csv", rows)
        trj.write_trajectory_file(tmp_path / "traj.csv", traj)
        assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "traj.csv").read_bytes()


class TestTrajectoryArrays:
    def test_arrays_match_frames(self):
        rows = gapped_estimate(6, 20)
        traj = trj.rows_to_trajectory(rows)
        rows_of = traj.rows([i for i, p in rows if p is not None])
        np.testing.assert_array_equal(rows_of, np.arange(len(traj)))
        for n, (_, pose) in enumerate(traj.frames):
            np.testing.assert_array_equal(traj.rotations[n], pose.rotation)
            np.testing.assert_array_equal(traj.translations[n], pose.translation)
        assert not traj.rotations.flags.writeable
        with pytest.raises(KeyError, match="no frame 1000"):
            traj.rows([0, 1000])

    def test_action_array_checked_as_a_whole(self):
        actions = trj.ActionSequence.from_array(np.zeros((3, 6)))
        assert len(actions) == 3 and not actions.as_array().flags.writeable
        with pytest.raises(ValueError, match=r"\(k, 6\)"):
            trj.ActionSequence.from_array(np.zeros(6))
        bad = np.zeros((3, 6))
        bad[1, 4] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            trj.ActionSequence.from_array(bad)
        bad[1, 4] = 4.0
        with pytest.raises(ValueError, match="exceeds pi"):
            trj.ActionSequence.from_array(bad)

    def test_window_actions_are_read_only_slices_of_one_step_array(self):
        traj = trj.anchor(trj.rows_to_trajectory(gapped_estimate(7, 60)))
        samples = world.window_samples("s", traj, dict.fromkeys(traj.indices), 4)
        assert [s.t for s in samples] == traj.window_starts(4)
        first, second = (s.actions.as_array() for s in samples[:2])
        assert not (first.flags.writeable or samples[0].state.flags.writeable)
        assert first.base is second.base is traj._steps
        with pytest.raises(ValueError, match="horizon k must be an integer >= 1, got 0"):
            world.window_samples("s", traj, {}, 0)

    def test_action_sequence_equality_is_exact(self):
        zeros = trj.ActionSequence.from_array(np.zeros((3, 6)))
        assert zeros == trj.ActionSequence.from_array(np.zeros((3, 6)))
        nudged = np.zeros((3, 6))
        nudged[2, 0] = 1e-300
        assert zeros != trj.ActionSequence.from_array(nudged)
        assert zeros != trj.ActionSequence.from_array(np.zeros((2, 6)))
        assert zeros != np.zeros((3, 6))

    def test_empty_trajectory_arrays(self):
        traj = Trajectory(())
        assert traj.rotations.shape == (0, 3, 3) and traj.translations.shape == (0, 3)


# ---------------------------------------------------------------------------
# Stack-wide work done once, against the per-run and per-window code it replaced.

def umeyama_loop(pred, gt):
    """One unbatched Umeyama solve with the alignment's checks: (scale, rotation,
    translation), or None for a set that does not align."""
    n = len(pred)
    mu_pred, mu_gt = pred.mean(axis=0), gt.mean(axis=0)
    pred_c, gt_c = pred - mu_pred, gt - mu_gt
    cov = gt_c.T @ pred_c / n
    try:
        u, d, vt = np.linalg.svd(cov)
    except np.linalg.LinAlgError:     # moments that overflowed
        return None
    if d[1] < 1e-9 * max(d[0], 1e-300):
        return None
    sign = np.eye(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0.0:
        sign[2, 2] = -1.0
    rotation = u @ sign @ vt
    var_pred = float((pred_c ** 2).sum()) / n
    scale = float(np.trace(np.diag(d) @ sign)) / var_pred
    if scale <= 0.0 or se3.orthonormality_drift(rotation) > 1e-8:
        return None
    return scale, rotation, mu_gt - scale * rotation @ mu_pred


def align_loop(estimate, gt):
    """align_rows_to_gt as one Umeyama solve per run: aligned stacks and their frames."""
    posed = np.flatnonzero(estimate.valid)
    rotations, translations = estimate.rotations.copy(), estimate.translations.copy()
    aligned = np.zeros(len(posed), bool)
    for run in np.split(np.arange(len(posed)), np.flatnonzero(np.diff(posed) > 1) + 1):
        frames = estimate.frame_array[posed[run]].tolist()
        if len(run) < 3 or (sim := umeyama_loop(translations[run],
                                                 gt.translations[gt.rows(frames)])) is None:
            continue
        scale, rotation, translation = sim
        rotations[run] = rotation @ rotations[run]
        translations[run] = scale * (translations[run] @ rotation.T) + translation
        aligned[run] = True
    return rotations[aligned], translations[aligned], estimate.frame_array[posed[aligned]]


def constant_velocity_compose_loop(gt, w):
    """constant_velocity_windows composing the step onto the identity w times."""
    starts = np.array(gt.window_starts(w), dtype=np.int64)
    moving = np.isin(starts - 1, gt.frame_array[gt.valid])
    rows = gt.rows(starts[moving].tolist())
    rot, trans = gt.rotations, gt.translations
    step = se3.relative_rt(rot[rows - 1], trans[rows - 1], rot[rows], trans[rows])
    delta = np.broadcast_to(np.eye(3), step[0].shape), np.zeros_like(step[1])
    for _ in range(w):
        delta = se3.compose_rt(*delta, *step)
    rotations = np.tile(np.eye(3), (len(starts), 1, 1))
    translations = np.zeros((len(starts), 3))
    rotations[moving], translations[moving] = delta
    return starts, rotations, translations, moving


class TestStackWideWorkOnce:
    def test_align_equals_one_umeyama_per_run(self):
        rng = np.random.default_rng(11)
        gt = Trajectory.from_stacks(np.arange(80), se3.so3_exp(rng.normal(size=(80, 3))),
                                    np.cumsum(rng.normal(size=(80, 3)) * 5.0, axis=0))
        rotation, translation = se3.so3_exp([0.2, 0.1, -0.4]), np.array([3.0, -1.0, 2.0])
        translations = 0.7 * (gt.translations + rng.normal(size=(80, 3)) * 0.1) @ rotation.T \
            + translation
        valid = np.ones(80, bool)
        valid[[10, 12, 15, 26, 37, 48, 60]] = False     # runs of 1 (11) and 2 (13, 14) frames
        translations[16:26] = np.outer(np.arange(10.0), [1.0, 2.0, -1.0])      # collinear
        translations[27:37] = gt.translations[27:37] * [1.0, 1.0, -1.0]         # a mirror image
        translations[38:48] = rng.normal(size=(10, 3)) * 1e155     # variance overflows: scale 0
        translations[49:60] = rng.normal(size=(11, 3)) * 1e307     # mean overflows: no SVD
        estimate = Trajectory.from_stacks(np.arange(80), gt.rotations[valid],
                                          translations[valid], valid)
        mirror = gt.translations[27:37] - gt.translations[27:37].mean(axis=0)
        u, _, vt = np.linalg.svd(mirror.T @ (mirror * [1.0, 1.0, -1.0]))
        assert np.linalg.det(u) * np.linalg.det(vt) < 0.0      # the reflected case is reached
        with np.errstate(over="ignore", invalid="ignore"):
            want_rot, want_trans, want_frames = align_loop(estimate, gt)
        got = ev.align_rows_to_gt(estimate, gt)     # no overflow warning escapes
        assert got.frame_array[got.valid].tolist() == want_frames.tolist()
        with np.errstate(over="ignore", invalid="ignore"):
            assert umeyama_loop(translations[38:48], gt.translations[38:48]) is None
            assert umeyama_loop(translations[49:60], gt.translations[49:60]) is None
        assert want_frames.tolist() == [*range(10), *range(27, 37), *range(61, 80)]
        np.testing.assert_array_equal(got.rotations, want_rot)
        np.testing.assert_array_equal(got.translations, want_trans)
        runs = [slice(0, 10), slice(27, 37), slice(38, 48), slice(49, 60), slice(61, 80)]
        scale, rotation, translation, ok = ev._umeyama([translations[run] for run in runs],
                                                       [gt.translations[run] for run in runs])
        assert ok.tolist() == [True, True, False, False, True]
        for j in (0, 1, 4):
            want = umeyama_loop(translations[runs[j]], gt.translations[runs[j]])
            assert scale[j] == want[0]
            np.testing.assert_array_equal(rotation[j], want[1])
            np.testing.assert_array_equal(translation[j], want[2])

    @pytest.mark.parametrize("w", [0, 1, 8])
    def test_constant_velocity_equals_w_fold_compose(self, w):
        gt = trj.rows_to_trajectory(gapped_estimate(13, 120))
        got = ev.constant_velocity_windows(gt, "s", w)
        starts, rotations, translations, moving = constant_velocity_compose_loop(gt, w)
        assert 0 < np.count_nonzero(~moving) < len(moving)     # windows with no history, too
        np.testing.assert_array_equal(got.starts, starts)
        np.testing.assert_array_equal(got.rotations, rotations)
        np.testing.assert_array_equal(got.translations, translations)

    def test_drift_check_reprojects_the_same_rows(self):
        clean = se3.so3_exp(np.random.default_rng(14).normal(size=(6, 3)))
        drifted = clean.copy()
        drifted[1] *= 1.0 + 0.25 * se3.RENORM_TRIGGER      # drift 0.5x the trigger
        drifted[4] *= 1.0 + 1.0 * se3.RENORM_TRIGGER       # drift 2x the trigger
        strided = np.abs(drifted.swapaxes(-1, -2) @ drifted - np.eye(3))
        np.testing.assert_array_equal(se3._gram_residual(drifted), strided)
        past = strided.max(axis=(-2, -1)) > se3.RENORM_TRIGGER
        assert past.tolist() == [False, False, False, False, True, False]
        want = drifted.copy()
        want[past] = se3.project_rotation(drifted[past])
        np.testing.assert_array_equal(se3._renormalize(drifted.copy()), want)
        for rotation, fixed in zip(drifted, want):    # one rotation, as a generator step
            np.testing.assert_array_equal(se3._renormalize(rotation.copy()), fixed)


def tracked_objects_added(fn) -> int:
    """Objects the collector tracks that ``fn()`` adds and keeps alive, counted with
    the collector off."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        kept = fn()     # noqa: F841 - alive while the objects are counted
        return len(gc.get_objects()) - before
    finally:
        gc.enable()


class TestObjectBudgets:
    """A 4000-frame evaluation keeps no Python object per window or frame alive."""

    @pytest.fixture(scope="class")
    def path(self):
        rng = np.random.default_rng(19)
        return Trajectory.from_stacks(np.arange(4000), se3.so3_exp(rng.normal(size=(4000, 3))),
                                      np.cumsum(rng.normal(size=(4000, 3)), axis=0))

    def test_rpe_returns_one_batch_of_columns(self, path):
        windows = ev.constant_velocity_windows(path, "s", 8)
        assert len(windows) == 3992
        assert tracked_objects_added(lambda: ev.rpe(windows, {"s": path}, 8)) <= 10

    def test_iterating_a_trajectory_builds_no_row_up_front(self, path):
        assert tracked_objects_added(lambda: iter(path)) <= 20
