import math
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
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
from test_array_core import compose_window_loop

BIG_TUBE = TubeGeometry(radius=5000.0, z_min=-5000.0, z_max=5000.0)


def per_kind_generator(seed, n_frames, profile, tube=world.DEFAULT_TUBE):
    """(rotations, positions) of a step loop with one branch per kind, kept as the
    oracle that ``generate_trajectory``'s one AR(1) step must equal bit for bit."""
    rng = np.random.default_rng(seed)
    position = np.zeros(3)
    rotation = np.eye(3)
    rotations, positions = [rotation], [position]

    alpha = 0.8
    beta = math.sqrt(1.0 - alpha * alpha)
    velocity = rng.normal(0.0, profile.trans_std, 3)      # stationary AR(1) init
    omega = rng.normal(0.0, profile.rot_std, 3)

    for step in range(1, n_frames):
        for attempt in range(1000 + 1):
            if profile.kind == "smooth-advance":
                cand_velocity = alpha * velocity + beta * rng.normal(0.0, profile.trans_std, 3)
                move = cand_velocity + profile.forward_speed * rotation[:, 2]
                cand_position = position + move
                turn = cand_omega = alpha * omega + beta * rng.normal(0.0, profile.rot_std, 3)
            else:  # jitter
                cand_position = position + rng.normal(0.0, profile.trans_std, 3) \
                    + profile.forward_speed * rotation[:, 2]
                turn = rng.normal(0.0, profile.rot_std, 3)
                cand_velocity, cand_omega = velocity, omega

            if tube.contains_camera(cand_position):
                break
            if attempt == 1000:
                raise RuntimeError(
                    f"motion profile left the tube at step {step} after 1000 resamples")
        position, rotation = cand_position, se3._renormalize(rotation @ se3.so3_exp(turn))
        velocity, omega = cand_velocity, cand_omega
        rotations.append(rotation)
        positions.append(position)
    return np.array(rotations), np.array(positions)


def blob_centroid(image):
    total = image.sum()
    yy, xx = np.mgrid[0:image.shape[0], 0:image.shape[1]]
    return np.array([(image * xx).sum() / total, (image * yy).sum() / total])


def off_centre_camera(size):
    """A size-px camera whose principal point lies far off the image centre (at 48 px,
    (8, 23.5) with focal 24 and mask radius 23)."""
    return Camera(focal=size / 2.0, cx=size / 6.0, cy=(size - 1) / 2.0, size=size,
                  mask_radius=23.0 * size / 48.0)


def single_landmark_scene(point, albedo=1.0):
    return Scene(np.array([point]), np.array([albedo]))


def add_at_render(scene, camera, pose, blob_sigma):
    """Reference renderer: one np.add.at scatter per pixel offset of a ``blob_sigma`` blob
    of each landmark in front whose projection lies in the image mask's circle."""
    uv, _, in_front = world.project(camera, pose, scene.points)
    distance2 = np.sum((scene.points - pose.translation) ** 2, axis=1)
    center = (camera.size - 1) / 2.0
    visible = in_front & ((uv[:, 0] - center) ** 2 + (uv[:, 1] - center) ** 2
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
    yy, xx = np.mgrid[0:camera.size, 0:camera.size]
    image[(xx - center) ** 2 + (yy - center) ** 2 > camera.mask_radius ** 2] = 0.0
    return image


class TestSceneGeneration:
    def test_minimum_landmark_count_enforced(self):
        with pytest.raises(ValueError):
            make_tube_scene(0, n_landmarks=100)

    @pytest.mark.parametrize("count", [2500.0, True, "2500"])
    def test_non_integer_landmark_count_rejected(self, count):
        with pytest.raises(ValueError, match=re.escape(
                f"n_landmarks must be an integer >= 500, got {count!r}")):
            make_tube_scene(0, count)

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
    @pytest.mark.parametrize("frames", [2.5, 1, True, np.float64(3.0)])
    def test_frame_count_must_be_an_integer_of_at_least_two(self, frames):
        with pytest.raises(ValueError, match=re.escape(
                f"n_frames must be an integer >= 2, got {frames!r}")):
            generate_trajectory(0, frames, MotionProfile())

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

    def test_orbit_profile_is_refused_by_name(self):
        with pytest.raises(ValueError, match="unknown motion profile 'orbit'"):
            MotionProfile("orbit")

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("profile, n_frames", [
        (MotionProfile("jitter"), 4000),                                  # long-eval
        (MotionProfile("jitter"), 75),                                    # noisy-vo panel
        (MotionProfile("smooth-advance", 0.35, 0.008), 50),               # full-pipeline
        (MotionProfile("smooth-advance", trans_std=1.5, rot_std=0.02, forward_speed=0.5), 300),
    ], ids=["jitter-4000", "jitter-75", "smooth-advance-50", "forward-300"])
    def test_paths_equal_the_frozen_per_kind_loop(self, profile, n_frames, seed):
        """Bit for bit, including where the reference gives up at the wall (the forward
        path at seed 0, after many redraws)."""
        try:
            want = per_kind_generator(seed, n_frames, profile)
        except RuntimeError as exc:
            with pytest.raises(RuntimeError, match=f"^{re.escape(str(exc))}$"):
                generate_trajectory(seed, n_frames, profile)
            return
        got = generate_trajectory(seed, n_frames, profile)
        assert np.array_equal(got.rotations, want[0])
        assert np.array_equal(got.translations, want[1])

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

    @pytest.mark.parametrize("size", [160, 64, 48])
    def test_bit_identical_with_an_off_centre_principal_point(self, size):
        # The principal point far off the image centre projects many landmarks
        # off the image; only those in the image mask's circle are splatted, some
        # within a blob's reach of the image's edges.
        camera = off_centre_camera(size)
        scene = make_tube_scene(6)
        for pose in Pose.identity(), Pose(rot_y(0.3), [0.0, 0.0, 30.0]):
            image = render(scene, camera, pose).image
            np.testing.assert_array_equal(image, add_at_render(scene, camera, pose, 1.0))

    def test_mask_is_cached_and_read_only(self):
        mask = world.circular_mask(40, 19.2)
        assert world.circular_mask(40, 19.2) is mask
        assert not mask.flags.writeable
        obs = render(make_tube_scene(7, n_landmarks=600), Camera.default(40), Pose.identity())
        np.testing.assert_array_equal(obs.mask, mask)


class TestTubeGeometry:
    @pytest.mark.parametrize("fields, message", [
        (dict(radius=3.0), "tube radius must exceed 5.0 mm, got 3.0"),
        (dict(radius=5.0), "tube radius must exceed 5.0 mm, got 5.0"),
        (dict(radius=math.nan), "tube radius must be finite, got nan"),
        (dict(z_max=math.inf), "tube z_max must be finite, got inf"),
        (dict(z_min=10.0), "tube z_min must lie 8.0 mm or more beyond the start at z = 0, got 10.0"),
        (dict(z_min=-7.9), "tube z_min must lie 8.0 mm or more beyond the start at z = 0, got -7.9"),
        (dict(z_max=5.0), "tube z_max must lie 8.0 mm or more beyond the start at z = 0, got 5.0")])
    def test_a_tube_without_room_for_the_start_is_refused(self, fields, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            TubeGeometry(**fields)

    def test_tubes_that_hold_the_start_are_accepted(self):
        tight = TubeGeometry(radius=5.5, z_min=-8.0, z_max=8.0)
        for tube in world.DEFAULT_TUBE, BIG_TUBE, tight:
            assert tube.contains_camera(np.zeros(3))


class TestObservationType:
    def test_any_2d_shape_is_accepted_and_a_mismatch_named(self):
        assert Observation(np.zeros((3, 5)), np.ones((3, 5), bool)).image.shape == (3, 5)
        with pytest.raises(ValueError, match=re.escape(
                "image and mask must be 2-D arrays of one shape, got (3, 5) and (5, 3)")):
            Observation(np.zeros((3, 5)), np.ones((5, 3), bool))

    @pytest.mark.parametrize("shape", [(0, 0), (0, 4)])
    def test_an_empty_image_is_refused(self, shape):
        with pytest.raises(ValueError, match=re.escape(
                f"image must not be empty, got shape {shape}")):
            Observation(np.zeros(shape), np.zeros(shape, bool))

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
        assert Camera(10.0, 4, 4, np.int64(8), 4.0).size == 8

    @pytest.mark.parametrize("size", [8.5, 8.0, 0, True])
    def test_size_must_be_a_positive_integer(self, size):
        with pytest.raises(ValueError, match=re.escape(
                f"size must be an integer >= 1, got {size!r}")):
            Camera(10.0, 4, 4, size, 3.0)

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

    def test_an_off_centre_principal_point_detects_what_render_shows(self):
        # A circle about the principal point (8, 23.5) would take in landmarks
        # off the image; each detection lies in the image mask's circle, and
        # render splats a landmark exactly when it is detected.
        camera = off_centre_camera(48)
        scene = make_tube_scene(6)
        ids, uv = world.landmark_projections(scene, camera, Pose.identity())
        center = (camera.size - 1) / 2.0
        assert len(ids) > 1000
        assert ((uv[:, 0] - center) ** 2 + (uv[:, 1] - center) ** 2
                <= camera.mask_radius ** 2).all()
        shown = [render(Scene(point[None], albedo[None]), camera, Pose.identity()).image.any()
                 for point, albedo in zip(scene.points, scene.albedo)]
        np.testing.assert_array_equal(np.flatnonzero(shown), ids)

    def test_moving_the_camera_changes_what_is_in_front(self):
        # Turned to look down -z, only the landmark at z = -50 is ahead, centred.
        turned = Pose(rot_y(math.pi), [0.0, 0.0, 0.0])
        ids, uv = world.landmark_projections(self.SCENE, self.CAMERA, turned)
        np.testing.assert_array_equal(ids, [1])
        np.testing.assert_allclose(uv, [[self.CAMERA.cx, self.CAMERA.cy]], atol=1e-9)


class TestSharedIds:
    @settings(max_examples=200, deadline=None)
    @given(st.sets(st.integers(0, 3000), max_size=400), st.sets(st.integers(0, 3000), max_size=400))
    @example(set(), set())
    @example({0, 4, 9}, set())
    @example({1, 3, 5}, {0, 2, 4, 6})
    @example({7}, {7})
    def test_equals_intersect1d(self, a, b):
        ids_a, ids_b = np.array(sorted(a), dtype=np.int64), np.array(sorted(b), dtype=np.int64)
        got = world._shared_ids(ids_a, ids_b)
        want = np.intersect1d(ids_a, ids_b, assume_unique=True, return_indices=True)
        for g, w in zip(got, want, strict=True):
            np.testing.assert_array_equal(g, w)
            assert g.dtype == w.dtype


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
            end = compose_window_loop(start, sample.actions, 8)
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

    OBS = Observation(np.zeros((4, 4)), np.ones((4, 4), dtype=bool))

    def test_window_samples_refuse_a_start_away_from_identity(self):
        traj = trj.Trajectory([(0, Pose(np.eye(3), [1e-6, 0.0, 0.0]))]
                              + [(i, Pose.identity()) for i in range(1, 4)])
        with pytest.raises(ValueError, match="trajectory must be anchored"):
            world.window_samples("s", traj, dict.fromkeys(range(4), self.OBS), 2)

    def test_window_samples_take_an_identity_start_built_without_the_flag(self):
        traj = trj.Trajectory([(i, Pose.identity()) for i in range(4)])
        samples = world.window_samples("s", traj, dict.fromkeys(range(4), self.OBS), 2)
        assert [s.t for s in samples] == [0, 1]

    # Frames 0..12 at x = 0..10 mm, 1e308 and -1e308: the one non-finite step is 11 -> 12.
    FAR = trj.Trajectory([(i, Pose(rot_x(0.1 * i), [float(i), 0.0, 0.0])) for i in range(11)]
                         + [(11, Pose(np.eye(3), [1e308, 0.0, 0.0])),
                            (12, Pose(np.eye(3), [-1e308, 0.0, 0.0]))])

    def test_a_non_finite_step_outside_every_emitted_window_is_not_cut(self):
        samples = world.window_samples("s", self.FAR, dict.fromkeys(range(11), self.OBS), 2)
        assert [s.t for s in samples] == list(range(9))
        for s in samples:
            assert s.actions == trj.extract_actions(self.FAR, s.t, 2)

    def test_a_non_finite_step_in_an_emitted_window_raises(self):
        with pytest.raises(ValueError, match="action delta has non-finite components"):
            world.window_samples("s", self.FAR, dict.fromkeys(range(13), self.OBS), 2)

    def test_anchoring_survives_a_dataset_round_trip(self, tmp_path):
        traj = trj.Trajectory([(i, Pose(rot_x(0.1 * i), [float(i), 0.0, 0.0]))
                               for i in range(4)])
        world.write_dataset(tmp_path, [world.SequenceData("s", traj, dict.fromkeys(range(4),
                                                                                   self.OBS))])
        loaded = world.load_dataset(tmp_path)[0].trajectory
        assert traj.anchored and loaded.anchored and loaded.indices == traj.indices
        assert len(world.window_samples("s", loaded, dict.fromkeys(range(4), self.OBS), 2)) == 2


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

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2), ()])
    def test_write_pgm_rejects_an_image_that_is_not_2d(self, tmp_path, shape):
        path = tmp_path / "img.pgm"
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: a PGM image must be 2-D, got shape {shape}")):
            world.write_pgm(path, np.zeros(shape))
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

    def test_writer_refuses_what_the_loader_refuses(self, tmp_path):
        """A trajectory that does not start at the identity: the writer names the
        sequence and writes nothing; such a file on disk, the loader names."""
        obs = Observation(np.zeros((4, 4)), np.ones((4, 4), dtype=bool))
        moved = trj.Trajectory(((0, Pose(np.eye(3), [1.0, 0.0, 0.0])), (1, Pose.identity())))
        with pytest.raises(ValueError, match=re.escape(
                "sequence 'b': anchored trajectory must start at identity")):
            world.write_dataset(tmp_path / "data", [
                world.SequenceData("a", trj.Trajectory([(0, Pose.identity())]), {0: obs}),
                world.SequenceData("b", moved, {0: obs, 1: obs})])
        assert not (tmp_path / "data").exists()
        world.write_dataset(tmp_path / "data", [world.SequenceData("b", trj.Trajectory(
            ((0, Pose.identity()), (1, Pose.identity()))), {0: obs, 1: obs})])
        path = tmp_path / "data" / "b" / "traj.csv"
        trj.write_trajectory_file(path, moved)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: anchored trajectory must start at identity")):
            world.load_dataset(tmp_path / "data")

    def test_truncated_manifest_names_file(self, tmp_path):
        obs = Observation(np.zeros((4, 4)), np.ones((4, 4), dtype=bool))
        traj = trj.Trajectory(((0, Pose.identity()), (1, Pose.identity())), anchored=True)
        world.write_dataset(tmp_path, [world.SequenceData("s", traj, {0: obs, 1: obs})])
        path = tmp_path / "manifest.csv"
        text = path.read_text()
        path.write_text(text[:text.rstrip().rfind(",")])
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 3")):
            world.load_dataset(tmp_path)


def two_frame_sequence(name):
    """A sequence of two identity frames with blank 4 x 4 observations."""
    obs = Observation(np.zeros((4, 4)), np.ones((4, 4), dtype=bool))
    traj = trj.Trajectory(((0, Pose.identity()), (1, Pose.identity())))
    return world.SequenceData(name, traj, {0: obs, 1: obs})


class TestDatasetRoundTrips:
    def test_writer_refuses_a_repeated_name_and_writes_nothing(self, tmp_path):
        longer = two_frame_sequence("s")
        longer.trajectory = trj.Trajectory([(i, Pose.identity()) for i in range(6)])
        longer.observations = {5: longer.observations[0]}
        with pytest.raises(ValueError, match=re.escape("sequence 's': 2 sequences have this name")):
            world.write_dataset(tmp_path / "data", [two_frame_sequence("s"), longer])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("frame", [7, 1, 0.5])     # past the frames, posed-less, not a frame
    def test_writer_refuses_an_observation_without_a_pose(self, tmp_path, frame):
        seq = two_frame_sequence("s")
        seq.trajectory = trj.Trajectory(((0, Pose.identity()), (1, None), (2, Pose.identity())))
        seq.observations = {0: seq.observations[0], frame: seq.observations[0]}
        with pytest.raises(ValueError, match=re.escape(
                f"sequence 's': frame {frame!r} has an observation but no pose")):
            world.write_dataset(tmp_path / "data", [seq])
        assert list(tmp_path.iterdir()) == []

    def test_frames_without_a_pose_survive_a_round_trip(self, tmp_path):
        seq = two_frame_sequence("s")
        seq.trajectory = trj.Trajectory(((0, Pose.identity()), (1, None),
                                         (2, Pose(np.eye(3), [1.0, -2.0, 0.5]))))
        seq.observations = {0: seq.observations[0], 2: seq.observations[1]}
        world.write_dataset(tmp_path, [seq])
        loaded = world.load_dataset(tmp_path)[0].trajectory
        assert loaded.indices == [0, 1, 2] and loaded == seq.trajectory

    def test_loader_refuses_an_image_lit_outside_its_mask(self, tmp_path):
        """One byte outside the mask of a written frame: the loader names that image file
        rather than load the frame with the pixel zeroed."""
        seq = two_frame_sequence("s")
        mask = world.circular_mask(8, 3.5)
        seq.observations = {i: Observation(mask * 1.0, mask) for i in (0, 1)}
        world.write_dataset(tmp_path, [seq])
        loaded = world.load_dataset(tmp_path)[0].observations
        assert all(np.array_equal(loaded[i].image, seq.observations[i].image) for i in (0, 1))
        path = tmp_path / "s" / "frame_000001.pgm"
        raw = bytearray(path.read_bytes())
        assert not mask[0, 0] and raw[-64] == 0          # the first pixel, outside the mask
        raw[-64] = 1
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: pixels outside the mask must be exactly 0")):
            world.load_dataset(tmp_path)

    def test_loader_refuses_an_observation_without_a_pose(self, tmp_path):
        """A manifest row of a frame past the trajectory, its files copied in: the loader
        names the row, as the writer names such an observation."""
        world.write_dataset(tmp_path, [two_frame_sequence("s")])
        for suffix in ".pgm", ".mask.pgm":
            shutil.copy(tmp_path / "s" / f"frame_000001{suffix}",
                        tmp_path / "s" / f"frame_000007{suffix}")
        path = tmp_path / "manifest.csv"
        path.write_text(path.read_text() + "s,7\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}, line 4: sequence 's': frame 7 has an observation but no pose")):
            world.load_dataset(tmp_path)


class TestDatasetStaysInsideItsRoot:
    @pytest.mark.parametrize("name", ["../escaped", "", ".", "..", "a/b", "a\\b", "a,b",
                                      "a\nb", "a\rb", "a\u2028b", " a", "a ", "a\0b"])
    def test_writer_refuses_a_name_that_is_not_one_path_component(self, tmp_path, name):
        with pytest.raises(ValueError, match=re.escape(
                f"sequence {name!r}: a name must be one plain path component")):
            world.write_dataset(tmp_path / "data", [two_frame_sequence("ok"),
                                                    two_frame_sequence(name)])
        assert list(tmp_path.iterdir()) == []

    def test_names_with_dots_dashes_and_spaces_inside_round_trip(self, tmp_path):
        names = ["seq.v2", "-a_b", "a b", "...", "é"]
        world.write_dataset(tmp_path, [two_frame_sequence(name) for name in names])
        assert [seq.name for seq in world.load_dataset(tmp_path)] == names

    @pytest.mark.parametrize("row, message", [
        ("..,1", "sequence '..': a name must be one plain path component"),
        ("s,1_0", "frame '1_0' is not an integer"),
        ("s,+1", "frame '+1' is not an integer"),
        ("s,7", "sequence 's': frame 7 has an observation but no pose"),
        ("s,0", "sequence 's': frame 0 repeats an earlier row"),
    ])
    def test_loader_refuses_a_row_the_writer_would_not_write(self, tmp_path, row, message):
        world.write_dataset(tmp_path, [two_frame_sequence("s")])
        path = tmp_path / "manifest.csv"
        lines = path.read_text().splitlines()
        assert lines == [world.MANIFEST_HEADER, "s,0", "s,1"]     # paths are derived
        path.write_text("\n".join([*lines[:2], row]) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 3: {message}")):
            world.load_dataset(tmp_path)
