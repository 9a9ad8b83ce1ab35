import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from policyvo import se3, trajectory as trj, world
from policyvo.se3 import Pose
from policyvo.world import (
    Camera,
    MotionProfile,
    Observation,
    Scene,
    TubeGeometry,
    correspondences,
    generate_trajectory,
    make_tube_scene,
    render,
)

from rotations import rot_x, rot_y

BIG_TUBE = TubeGeometry(radius=5000.0, z_min=-5000.0, z_max=5000.0)


def blob_centroid(image):
    total = image.sum()
    yy, xx = np.mgrid[0:image.shape[0], 0:image.shape[1]]
    return np.array([(image * xx).sum() / total, (image * yy).sum() / total])


def single_landmark_scene(point, albedo=1.0):
    return Scene(np.array([point]), np.array([albedo]))


def add_at_render(scene, camera, pose, blob_sigma):
    """Reference renderer: one np.add.at scatter per pixel offset of a ``blob_sigma`` blob."""
    uv, _, in_front = world.project(camera, pose, scene.points)
    distance2 = np.sum((scene.points - pose.translation) ** 2, axis=1)
    visible = in_front & ((uv[:, 0] - camera.cx) ** 2 + (uv[:, 1] - camera.cy) ** 2
                          <= camera.mask_radius ** 2)
    centers = uv[visible]
    amps = scene.albedo[visible] * world.LIGHT_GAIN / distance2[visible]
    base = np.round(centers).astype(np.int64)
    frac = centers - base
    reach = int(math.ceil(3.0 * blob_sigma))
    inv_two_sigma2 = 1.0 / (2.0 * blob_sigma * blob_sigma)
    image = np.zeros((camera.size, camera.size))
    for dy in range(-reach, reach + 1):
        for dx in range(-reach, reach + 1):
            px, py = base[:, 0] + dx, base[:, 1] + dy
            ok = (px >= 0) & (px < camera.size) & (py >= 0) & (py < camera.size)
            w = np.exp(-((dx - frac[:, 0]) ** 2 + (dy - frac[:, 1]) ** 2) * inv_two_sigma2)
            np.add.at(image, (py[ok], px[ok]), amps[ok] * w[ok])
    np.clip(image, 0.0, 1.0, out=image)
    center = (camera.size - 1) / 2.0
    yy, xx = np.mgrid[0:camera.size, 0:camera.size]
    image[(xx - center) ** 2 + (yy - center) ** 2 > camera.mask_radius ** 2] = 0.0
    return image


class TestSceneGeneration:
    def test_minimum_landmark_count_enforced(self):
        with pytest.raises(ValueError):
            make_tube_scene(0, n_landmarks=100)

    def test_landmarks_on_tube_surface(self):
        scene = make_tube_scene(1, n_landmarks=800)
        lateral = np.hypot(scene.points[:, 0], scene.points[:, 1])
        np.testing.assert_allclose(lateral, world.DEFAULT_TUBE.radius, atol=1e-9)
        assert scene.albedo.min() >= 0.0 and scene.albedo.max() <= 1.0

    def test_texture_zones_present(self):
        scene = make_tube_scene(2, n_landmarks=3000)
        assert (scene.albedo < 0.25).sum() > 300   # smooth zones
        assert (scene.albedo > 0.5).sum() > 300    # speckled zones

    def test_deterministic(self):
        a = make_tube_scene(3)
        b = make_tube_scene(3)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.albedo, b.albedo)


class TestSceneType:
    def test_point_and_albedo_counts_must_agree(self):
        with pytest.raises(ValueError, match="5 points but 3 albedo values"):
            Scene(np.zeros((5, 3)), np.full(3, 0.5))

    def test_non_finite_point_rejected(self):
        points = np.zeros((2, 3))
        points[1, 2] = math.nan
        with pytest.raises(ValueError, match="landmark points must be finite"):
            Scene(points, np.full(2, 0.5))

    @pytest.mark.parametrize("bad", [math.nan, -0.1, 1.5])
    def test_albedo_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValueError, match=re.escape("albedo must lie in [0, 1]")):
            Scene(np.zeros((2, 3)), np.array([0.5, bad]))


class TestGenerateTrajectory:
    def test_zero_stds_give_identical_poses(self):
        profile = MotionProfile("smooth-advance", trans_std=0.0, rot_std=0.0)
        traj = generate_trajectory(0, 2, profile)
        np.testing.assert_allclose(traj.poses[0].as_matrix(), traj.poses[1].as_matrix(),
                                   atol=1e-12)

    def test_deterministic_per_seed(self):
        profile = MotionProfile("smooth-advance", trans_std=0.5, rot_std=0.01)
        a = generate_trajectory(7, 20, profile)
        b = generate_trajectory(7, 20, profile)
        for (_, pa), (_, pb) in zip(a.frames, b.frames):
            np.testing.assert_array_equal(pa.as_matrix(), pb.as_matrix())

    def test_step_norm_matches_folded_gaussian(self):
        # In an effectively unbounded tube the per-step translation is
        # N(0, s^2 I3); its norm has mean s * 2 * sqrt(2/pi).
        s = 0.5
        profile = MotionProfile("smooth-advance", trans_std=s, rot_std=0.0)
        traj = generate_trajectory(8, 10_001, profile, tube=BIG_TUBE)
        positions = np.stack([p.translation for p in traj.poses])
        steps = np.linalg.norm(np.diff(positions, axis=0), axis=1)
        expected = s * 2.0 * math.sqrt(2.0 / math.pi)
        assert abs(steps.mean() - expected) / expected < 0.2

    def test_smooth_advance_steps_are_correlated(self):
        profile = MotionProfile("smooth-advance", trans_std=0.5, rot_std=0.0)
        traj = generate_trajectory(9, 5000, profile, tube=BIG_TUBE)
        positions = np.stack([p.translation for p in traj.poses])
        deltas = np.diff(positions, axis=0)
        a, b = deltas[:-1].ravel(), deltas[1:].ravel()
        corr = np.corrcoef(a, b)[0, 1]
        assert corr > 0.5

    def test_jitter_steps_are_uncorrelated(self):
        profile = MotionProfile("jitter", trans_std=0.5, rot_std=0.0)
        traj = generate_trajectory(10, 5000, profile, tube=BIG_TUBE)
        deltas = np.diff(np.stack([p.translation for p in traj.poses]), axis=0)
        corr = np.corrcoef(deltas[:-1].ravel(), deltas[1:].ravel())[0, 1]
        assert abs(corr) < 0.1

    def test_camera_stays_inside_tube(self):
        tube = world.DEFAULT_TUBE
        profile = MotionProfile("smooth-advance", trans_std=1.5, rot_std=0.02,
                                forward_speed=0.5)
        traj = generate_trajectory(11, 300, profile, tube=tube)
        for pose in traj.poses:
            assert tube.contains_camera(pose.translation)

    def test_unreachable_constraints_error(self):
        profile = MotionProfile("smooth-advance", trans_std=0.0, rot_std=0.0,
                                forward_speed=500.0)
        with pytest.raises(RuntimeError, match="resamples"):
            generate_trajectory(12, 5, profile)

    def test_orbit_profile_runs_and_stays_inside(self):
        profile = MotionProfile("orbit", trans_std=0.6, rot_std=0.005)
        traj = generate_trajectory(13, 100, profile)
        assert len(traj) == 100
        for pose in traj.poses:
            assert world.DEFAULT_TUBE.contains_camera(pose.translation)

    @pytest.mark.parametrize("field, value", [("trans_std", math.nan), ("rot_std", math.nan),
                                              ("trans_std", math.inf), ("rot_std", -0.1)])
    def test_bad_motion_std_rejected(self, field, value):
        with pytest.raises(ValueError, match="motion stds must be finite and >= 0"):
            MotionProfile("jitter", **{field: value})

    @pytest.mark.parametrize("speed", [math.nan, math.inf, -math.inf])
    def test_non_finite_forward_speed_rejected(self, speed):
        with pytest.raises(ValueError, match="forward_speed must be finite"):
            MotionProfile(forward_speed=speed)

    def test_starts_at_identity(self):
        profile = MotionProfile("jitter", trans_std=0.3, rot_std=0.01)
        traj = generate_trajectory(14, 5, profile)
        assert traj.anchored
        np.testing.assert_allclose(traj.poses[0].as_matrix(), np.eye(4), atol=1e-12)


class TestRender:
    def test_empty_scene_all_zero(self):
        scene = Scene(np.zeros((0, 3)), np.zeros(0))
        obs = render(scene, Camera.default(40), Pose.identity())
        np.testing.assert_array_equal(obs.image, 0.0)

    def test_axis_landmark_blob_at_principal_point(self):
        camera = Camera.default(160)
        scene = single_landmark_scene([0.0, 0.0, 50.0])
        obs = render(scene, camera, Pose.identity())
        centroid = blob_centroid(obs.image)
        np.testing.assert_allclose(centroid, [camera.cx, camera.cy], atol=0.05)

    def test_pinhole_displacement_oracle(self):
        camera = Camera.default(160)
        depth, delta = 50.0, 2.0
        scene = single_landmark_scene([0.0, 0.0, depth])
        before = blob_centroid(render(scene, camera, Pose.identity()).image)
        after = blob_centroid(render(scene, camera, Pose(np.eye(3), [delta, 0, 0])).image)
        shift = after[0] - before[0]
        assert abs(shift - (-camera.focal * delta / depth)) < 0.5
        assert abs(after[1] - before[1]) < 0.05

    def test_centroid_tracking_within_ten_percent(self):
        camera = Camera.default(160)
        rng = np.random.default_rng(15)
        move = Pose(np.eye(3), [0.5, -0.3, 0.8])
        deviations = []
        for _ in range(20):
            point = np.array([rng.uniform(-8, 8), rng.uniform(-8, 8), rng.uniform(30, 80)])
            scene = single_landmark_scene(point)
            uv0, _, _ = world.project(camera, Pose.identity(), point[None])
            uv1, _, _ = world.project(camera, move, point[None])
            predicted = uv1[0] - uv0[0]
            c0 = blob_centroid(render(scene, camera, Pose.identity()).image)
            c1 = blob_centroid(render(scene, camera, move).image)
            measured = c1 - c0
            deviations.append(np.linalg.norm(measured - predicted) / np.linalg.norm(predicted))
        assert np.mean(deviations) < 0.10

    def test_behind_camera_culled(self):
        scene = single_landmark_scene([0.0, 0.0, -50.0])
        obs = render(scene, Camera.default(40), Pose.identity())
        np.testing.assert_array_equal(obs.image, 0.0)

    def test_inverse_square_light_falloff(self):
        camera = Camera.default(160)
        near = render(single_landmark_scene([0, 0, 40.0], 0.5), camera, Pose.identity())
        far = render(single_landmark_scene([0, 0, 80.0], 0.5), camera, Pose.identity())
        ratio = near.image.sum() / far.image.sum()
        assert ratio == pytest.approx(4.0, rel=0.05)

    def test_deterministic_bit_identical(self):
        scene = make_tube_scene(16, n_landmarks=1000)
        camera = Camera.default(40)
        pose = Pose(rot_y(0.05), [1.0, -0.5, 10.0])
        a = render(scene, camera, pose)
        b = render(scene, camera, pose)
        np.testing.assert_array_equal(a.image, b.image)
        np.testing.assert_array_equal(a.mask, b.mask)

    def test_mask_applied_and_outside_zero(self):
        scene = make_tube_scene(17, n_landmarks=1000)
        obs = render(scene, Camera.default(40), Pose.identity())
        assert np.all(obs.image[~obs.mask] == 0.0)
        assert obs.image.max() <= 1.0 and obs.image.min() >= 0.0

    def test_photometric_consistency_same_pose(self):
        scene = make_tube_scene(18, n_landmarks=1000)
        camera = Camera.default(40)
        pose = Pose(np.eye(3), [0.0, 0.0, 5.0])
        a = render(scene, camera, pose)
        b = render(scene, camera, pose)
        assert a.image[a.mask].mean() == b.image[b.mask].mean()


class TestRenderMatchesAddAtOracle:
    @pytest.mark.parametrize("seed", [3, 4, 5])
    @pytest.mark.parametrize("size", [160, 64, 48])
    @pytest.mark.parametrize("blob_sigma", [1.0])     # render's fixed BLOB_SIGMA_PX
    def test_bit_identical_on_seeded_scenes(self, seed, size, blob_sigma):
        scene = make_tube_scene(seed)
        camera = Camera.default(size)
        profile = MotionProfile(trans_std=0.5, rot_std=0.02, forward_speed=2.0)
        poses = generate_trajectory(seed, 4, profile).poses
        for pose in poses + [Pose(rot_x(0.4) @ rot_y(-0.3), [2.0, -3.0, 20.0])]:
            image = render(scene, camera, pose).image
            assert np.abs(image - add_at_render(scene, camera, pose, blob_sigma)).max() == 0.0

    def test_bit_identical_with_off_image_blob_centres(self):
        # The field of view centred off the image puts many blob centres far
        # outside it and some within a blob's reach of its left edge.
        camera = Camera(focal=40.0, cx=-30.0, cy=20.0, size=48, mask_radius=24.0)
        scene = make_tube_scene(6)
        pose = Pose(rot_y(0.3), [0.0, 0.0, 30.0])
        image = render(scene, camera, pose).image
        np.testing.assert_array_equal(image, add_at_render(scene, camera, pose, 1.0))

    def test_mask_is_cached_and_read_only(self):
        mask = world.circular_mask(40, 19.2)
        assert world.circular_mask(40, 19.2) is mask
        assert not mask.flags.writeable
        obs = render(make_tube_scene(7, n_landmarks=600), Camera.default(40), Pose.identity())
        np.testing.assert_array_equal(obs.mask, mask)


class TestObservationType:
    def test_outside_mask_nonzero_rejected(self):
        image = np.ones((8, 8)) * 0.5
        mask = world.circular_mask(8, 3.0)
        with pytest.raises(ValueError, match="outside the mask"):
            Observation(image, mask)

    def test_out_of_range_rejected(self):
        mask = np.ones((4, 4), dtype=bool)
        with pytest.raises(ValueError):
            Observation(np.full((4, 4), 1.5), mask)


class TestCameraType:
    @pytest.mark.parametrize("radius", [-3.0, 0.0, float("nan"), 4.5, float("inf")])
    def test_mask_radius_outside_half_size_rejected(self, radius):
        with pytest.raises(ValueError, match=re.escape("mask radius must lie in (0, size/2]")):
            Camera(10.0, 4, 4, 8, radius)

    def test_mask_radius_of_half_size_accepted(self):
        assert Camera(10.0, 4, 4, 8, 4.0).mask_radius == 4.0

    @pytest.mark.parametrize("focal", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_focal_rejected(self, focal):
        with pytest.raises(ValueError, match="focal length must be positive and finite"):
            Camera(focal, 4, 4, 8, 3.0)

    @pytest.mark.parametrize("cx, cy", [(math.nan, 4.0), (4.0, math.inf), (-math.inf, 4.0)])
    def test_non_finite_principal_point_rejected(self, cx, cy):
        with pytest.raises(ValueError, match="principal point must be finite"):
            Camera(10.0, cx, cy, 8, 3.0)


class TestLandmarkProjections:
    CAMERA = Camera.default(160)
    # in front and inside; behind; nearer than NEAR_MM; outside the mask; dim but inside
    SCENE = Scene(np.array([[0.0, 0.0, 50.0], [0.0, 0.0, -50.0], [0.0, 0.0, 0.5],
                            [60.0, 0.0, 50.0], [0.0, 5.0, 50.0]]),
                  np.array([0.5, 0.5, 0.5, 0.5, 0.1]))

    def test_in_front_and_inside_mask_filters(self):
        ids, uv = world.landmark_projections(self.SCENE, self.CAMERA, Pose.identity())
        np.testing.assert_array_equal(ids, [0, 4])
        expected, _, _ = world.project(self.CAMERA, Pose.identity(), self.SCENE.points[[0, 4]])
        np.testing.assert_array_equal(uv, expected)

    def test_min_albedo_filter(self):
        ids, uv = world.landmark_projections(self.SCENE, self.CAMERA, Pose.identity(),
                                             min_albedo=0.2)
        np.testing.assert_array_equal(ids, [0])
        np.testing.assert_array_equal(uv, [[self.CAMERA.cx, self.CAMERA.cy]])

    def test_moving_the_camera_changes_what_is_in_front(self):
        # Turned to look down -z, only the landmark at z = -50 is ahead, centred.
        turned = Pose(rot_y(math.pi), [0.0, 0.0, 0.0])
        ids, uv = world.landmark_projections(self.SCENE, self.CAMERA, turned)
        np.testing.assert_array_equal(ids, [1])
        np.testing.assert_allclose(uv, [[self.CAMERA.cx, self.CAMERA.cy]], atol=1e-9)


class TestCorrespondences:
    def test_shared_landmarks_match_projection(self):
        scene = make_tube_scene(19, n_landmarks=1500)
        camera = Camera.default(40)
        pose_a = Pose(np.eye(3), [0.0, 0.0, 0.0])
        pose_b = Pose(np.eye(3), [0.5, 0.0, 2.0])
        ids, pts_a, pts_b = correspondences(scene, camera, pose_a, pose_b, min_albedo=0.3)
        assert len(ids) == len(pts_a)
        assert len(pts_a) == len(pts_b) >= 8

    def test_albedo_threshold_filters(self):
        scene = make_tube_scene(20, n_landmarks=1500)
        camera = Camera.default(40)
        pose = Pose.identity()
        _, all_a, _ = correspondences(scene, camera, pose, pose, min_albedo=0.0)
        _, bright_a, _ = correspondences(scene, camera, pose, pose, min_albedo=0.5)
        assert len(bright_a) < len(all_a)

    def test_noise_drawn_after_the_match_for_a_then_b(self):
        scene = make_tube_scene(22, n_landmarks=1500)
        camera = Camera.default(64)
        pose_a, pose_b = Pose.identity(), Pose(rot_x(0.02), [0.3, -0.2, 1.5])
        ids, clean_a, clean_b = correspondences(scene, camera, pose_a, pose_b, min_albedo=0.3)
        noisy_ids, noisy_a, noisy_b = correspondences(scene, camera, pose_a, pose_b,
                                                      min_albedo=0.3, noise_px=0.5,
                                                      rng=np.random.default_rng(4))
        rng = np.random.default_rng(4)
        np.testing.assert_array_equal(noisy_ids, ids)
        np.testing.assert_array_equal(noisy_a, clean_a + rng.normal(0.0, 0.5, clean_a.shape))
        np.testing.assert_array_equal(noisy_b, clean_b + rng.normal(0.0, 0.5, clean_b.shape))

    def test_noise_requires_rng(self):
        scene = make_tube_scene(21, n_landmarks=1000)
        camera = Camera.default(40)
        with pytest.raises(ValueError, match="rng"):
            correspondences(scene, camera, Pose.identity(), Pose.identity(),
                            noise_px=1.0)

    @pytest.mark.parametrize("noise_px", [float("nan"), -1.0, float("inf")])
    def test_bad_noise_rejected(self, noise_px):
        scene = make_tube_scene(21, n_landmarks=1000)
        camera = Camera.default(40)
        with pytest.raises(ValueError, match="noise_px must be finite and >= 0"):
            correspondences(scene, camera, Pose.identity(), Pose.identity(),
                            noise_px=noise_px, rng=np.random.default_rng(0))


class TestBuildDataset:
    """Windows of rendered sequences, as ``window_samples`` emits them."""

    def _samples(self, scene_seed, lengths, k, seed=22):
        scene = make_tube_scene(scene_seed, n_landmarks=800)
        camera = Camera.default(40)
        profile = MotionProfile("smooth-advance", trans_std=0.4, rot_std=0.01,
                                forward_speed=0.5)
        trajs = [generate_trajectory(seed + i, n, profile) for i, n in enumerate(lengths)]
        samples = []
        for n, traj in enumerate(trajs):
            observations = {i: render(scene, camera, p) for i, p in traj.frames}
            samples.extend(world.window_samples(f"seq_{n:03d}", traj, observations, k))
        return samples, trajs

    def test_window_counts(self):
        k = 8
        samples, _ = self._samples(23, [k + 1, 20], k)
        per_seq = {}
        for s in samples:
            per_seq.setdefault(s.sequence, 0)
            per_seq[s.sequence] += 1
        assert per_seq["seq_000"] == 1
        assert per_seq["seq_001"] == 20 - k

    def test_short_trajectory_skipped(self):
        samples, _ = self._samples(24, [5, 12], 8)
        assert samples and all(s.sequence == "seq_001" for s in samples)

    def test_actions_recompose_to_end_pose(self):
        samples, trajs = self._samples(25, [14], 8)
        assert len(samples) == 14 - 8
        for sample in samples:
            start = se3.exp(sample.state)
            end = trj.compose_window(start, sample.actions, 8)
            expected = trajs[0].pose_at(sample.t + 8)
            np.testing.assert_allclose(end.as_matrix(), expected.as_matrix(), atol=1e-9)

    def test_deterministic_ordering(self):
        samples, _ = self._samples(26, [12, 12], 8)
        keys = [(s.sequence, s.t) for s in samples]
        assert keys == sorted(keys)

    def test_window_samples_skip_missing_frames(self):
        obs = Observation(np.zeros((4, 4)), np.ones((4, 4), dtype=bool))
        traj = trj.Trajectory(tuple((i, Pose.identity()) for i in range(12) if i != 9),
                              anchored=True)
        observations = {i: obs for i in range(12) if i != 3}
        samples = world.window_samples("s", traj, observations, 2)
        assert [s.t for s in samples] == [0, 4, 5, 6]


class TestDiskFormat:
    def test_pgm_round_trip(self, tmp_path):
        rng = np.random.default_rng(27)
        image = np.round(rng.uniform(0, 1, (16, 16)) * 255) / 255.0
        path = tmp_path / "img.pgm"
        world.write_pgm(path, image)
        back = world.read_pgm(path)
        np.testing.assert_allclose(back, image, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12)),
           st.booleans())
    def test_pgm_round_trip_exact(self, levels, as_mask):
        image = levels % 2 == 1 if as_mask else levels / 255.0
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "img.pgm"
            world.write_pgm(path, image.astype(np.float64))
            back = world.read_pgm(path)
        np.testing.assert_array_equal(back == 1.0 if as_mask else back, image)

    @pytest.mark.parametrize("bad", [2.0, -0.5, math.nan, math.inf])
    def test_write_pgm_rejects_values_outside_unit_interval(self, tmp_path, bad):
        path = tmp_path / "img.pgm"
        with pytest.raises(ValueError, match=re.escape(f"{path}: PGM values must be finite")):
            world.write_pgm(path, np.array([[0.5, bad], [0.0, 1.0]]))
        assert not path.exists()

    def test_truncated_pgm_names_file(self, tmp_path):
        path = tmp_path / "img.pgm"
        world.write_pgm(path, np.full((8, 8), 0.5))
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(ValueError, match=re.escape(f"truncated PGM {path}: 54 of 64")):
            world.read_pgm(path)

    def test_observation_round_trip(self, tmp_path):
        scene = make_tube_scene(28, n_landmarks=800)
        obs = render(scene, Camera.default(40), Pose(np.eye(3), [0, 0, 4.0]))
        world.write_observation(tmp_path / "a.pgm", tmp_path / "a.mask.pgm", obs)
        back = world.read_observation(tmp_path / "a.pgm", tmp_path / "a.mask.pgm")
        np.testing.assert_array_equal(back.mask, obs.mask)
        np.testing.assert_allclose(back.image, obs.image, atol=0.5 / 255.0)

    def test_dataset_round_trip(self, tmp_path):
        scene = make_tube_scene(29, n_landmarks=800)
        camera = Camera.default(40)
        profile = MotionProfile("smooth-advance", trans_std=0.4, rot_std=0.01,
                                forward_speed=0.5)
        traj = generate_trajectory(30, 10, profile)
        observations = {i: render(scene, camera, p) for i, p in traj.frames}
        seq = world.SequenceData("seq_000", traj, observations)
        world.write_dataset(tmp_path / "data", [seq])
        loaded = world.load_dataset(tmp_path / "data")
        assert len(loaded) == 1 and loaded[0].name == "seq_000"
        assert loaded[0].trajectory.indices == traj.indices
        for i, pose in traj.frames:
            np.testing.assert_allclose(loaded[0].trajectory.pose_at(i).as_matrix(),
                                       pose.as_matrix(), atol=1e-12)
            np.testing.assert_allclose(loaded[0].observations[i].image,
                                       observations[i].image, atol=0.5 / 255.0)

    def test_truncated_manifest_names_file(self, tmp_path):
        obs = Observation(np.zeros((4, 4)), np.ones((4, 4), dtype=bool))
        traj = trj.Trajectory(((0, Pose.identity()), (1, Pose.identity())), anchored=True)
        world.write_dataset(tmp_path, [world.SequenceData("s", traj, {0: obs, 1: obs})])
        path = tmp_path / "manifest.csv"
        text = path.read_text()
        path.write_text(text[:text.rstrip().rfind(",")])
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 3")):
            world.load_dataset(tmp_path)
