import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from policyvo import evaluation as ev
from policyvo import se3
from policyvo import trajectory as trj
from policyvo.se3 import Pose

from rotations import rot_x, rot_y, rot_z, unit_axes


def random_full_range_rotation(rng):
    """Uniform-axis rotation with angle uniform in [0, pi - 1e-3]."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, math.pi - 1e-3)
    return se3.so3_exp(axis * angle)


def quat_dot_angle(rot_a, rot_b):
    """Independent geodesic oracle: 2*arccos(|q_a . q_b|)."""
    qa = se3.rotation_to_quat(rot_a)
    qb = se3.rotation_to_quat(rot_b)
    return 2.0 * math.acos(min(1.0, abs(float(np.dot(qa, qb)))))


class TestSkew:
    def test_matches_cross_product_batched(self):
        rng = np.random.default_rng(0)
        v, u = rng.normal(size=(2, 5, 4, 3))
        hat = se3.skew(v)
        assert hat.shape == (5, 4, 3, 3)
        np.testing.assert_allclose((hat @ u[..., None])[..., 0], np.cross(v, u),
                                   rtol=0, atol=1e-15)
        np.testing.assert_array_equal(hat.swapaxes(-1, -2), -hat)


class TestCompose:
    def test_identity(self):
        t = se3.random_pose(3, 2.0, 0.4)
        out = se3.compose(Pose.identity(), t)
        np.testing.assert_allclose(out.as_matrix(), t.as_matrix(), atol=1e-12)

    def test_inverse_gives_identity(self):
        t = se3.random_pose(4, 2.0, 0.4)
        out = se3.compose(t, se3.inverse(t))
        np.testing.assert_allclose(out.as_matrix(), np.eye(4), atol=1e-9)

    def test_hand_matrix_oracle(self):
        # rotZ(pi/2) with t=(1,0,0) squared -> rotZ(pi) with t=(1,1,0)
        a = Pose(rot_z(math.pi / 2), [1.0, 0.0, 0.0])
        out = se3.compose(a, a)
        np.testing.assert_allclose(out.rotation, rot_z(math.pi), atol=1e-12)
        np.testing.assert_allclose(out.translation, [1.0, 1.0, 0.0], atol=1e-12)

    def test_matches_4x4_product(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = se3.random_pose(rng, 3.0, 0.8)
            b = se3.random_pose(rng, 3.0, 0.8)
            expected = a.as_matrix() @ b.as_matrix()
            np.testing.assert_allclose(se3.compose(a, b).as_matrix(), expected, atol=1e-12)

    def test_associativity(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            a, b, c = (se3.random_pose(rng, 3.0, 0.8) for _ in range(3))
            left = se3.compose(se3.compose(a, b), c)
            right = se3.compose(a, se3.compose(b, c))
            np.testing.assert_allclose(left.as_matrix(), right.as_matrix(), atol=1e-9)


class TestInverse:
    def test_identity(self):
        out = se3.inverse(Pose.identity())
        np.testing.assert_allclose(out.as_matrix(), np.eye(4), atol=1e-15)

    def test_pure_translation(self):
        out = se3.inverse(Pose(np.eye(3), [1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out.translation, [-1.0, -2.0, -3.0], atol=1e-15)

    def test_minus_rt_oracle(self):
        # inverse(rotZ(pi/2), t=(1,0,0)) -> rotZ(-pi/2), t=(0,1,0)
        out = se3.inverse(Pose(rot_z(math.pi / 2), [1.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.rotation, rot_z(-math.pi / 2), atol=1e-12)
        np.testing.assert_allclose(out.translation, [0.0, 1.0, 0.0], atol=1e-12)


    def test_pose_whose_transpose_drifts_more(self):
        # R = Q(I + e J/3), J all ones and Q taking (1, 1, 1)/sqrt(3) to x: R'R - I is
        # about 2e J/3 (drift 0.93e-9, a valid Pose), RR' - I about 2e x x' (2.8e-9).
        u = np.ones(3) / math.sqrt(3.0)
        v = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
        rotation = np.array([u, v, np.cross(u, v)]) @ (np.eye(3) + 1.4e-9 / 3.0)
        pose = Pose(rotation, [1.0, -2.0, 3.0])
        assert 0.9e-9 < se3.orthonormality_drift(rotation) <= se3.ORTHONORMAL_TOL
        assert se3.orthonormality_drift(rotation.T) > 2.5e-9
        inv = se3.inverse(pose)
        assert se3.orthonormality_drift(inv.rotation) < 1e-15
        np.testing.assert_array_equal(inv.translation, -(rotation.T @ pose.translation))
        np.testing.assert_allclose(se3.compose(pose, inv).as_matrix(), np.eye(4), atol=1e-8)


class TestExpLog:
    def test_log_identity(self):
        np.testing.assert_allclose(se3.log(Pose.identity()), np.zeros(6), atol=1e-15)

    def test_log_rotz_axis_angle(self):
        vec = se3.log(Pose(rot_z(math.pi / 2), np.zeros(3)))
        np.testing.assert_allclose(vec, [0, 0, 0, 0, 0, math.pi / 2], atol=1e-12)

    def test_round_trip_fixed_vector(self):
        v = np.array([1.0, 2.0, 3.0, 0.1, 0.2, 0.3])
        np.testing.assert_allclose(se3.log(se3.exp(v)), v, atol=1e-9)

    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            rotation = random_full_range_rotation(rng)
            pose = Pose(rotation, rng.normal(size=3) * 5.0)
            back = se3.exp(se3.log(pose))
            np.testing.assert_allclose(back.as_matrix(), pose.as_matrix(), atol=1e-9)

    def test_split_form_translation_is_raw(self):
        # The 6-vector pairs the raw translation with the axis-angle.
        pose = Pose(rot_x(0.7), [4.0, -1.0, 2.5])
        np.testing.assert_allclose(se3.log(pose)[:3], pose.translation, atol=0)

    def test_near_pi_angle_round_trips(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = math.pi - 1e-3
            rotation = se3.so3_exp(axis * angle)
            back = se3.so3_exp(se3.so3_log(rotation))
            np.testing.assert_allclose(back, rotation, atol=1e-9)

    def test_at_pi_returns_a_principal_branch(self):
        rotation = rot_x(math.pi)
        vec = se3.so3_log(rotation)
        assert abs(np.linalg.norm(vec) - math.pi) < 1e-9
        np.testing.assert_allclose(se3.so3_exp(vec), rotation, atol=1e-9)


class TestGeodesicAngle:
    def test_zero_for_equal(self):
        rotation = rot_y(0.9)
        assert se3.geodesic_angle(rotation, rotation) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("angle", [1e-10, 1e-7, 1e-4])
    def test_tiny_angle_keeps_relative_precision(self, angle):
        # arccos of the trace reads 0 (or ~1.5e-8) here; the atan2 form does not.
        base = rot_y(0.9)
        axis = np.array([1.0, -2.0, 0.5]) / math.sqrt(5.25)
        got = se3.geodesic_angle(base, base @ se3.so3_exp(axis * angle))
        assert got == pytest.approx(angle, rel=1e-6)

    @pytest.mark.parametrize("gap", [0.0, 1e-9, 1e-6, 1e-3])
    def test_near_pi(self, gap):
        axis = np.array([0.3, 0.4, -0.5]) / math.sqrt(0.5)
        rotation = se3.so3_exp(axis * (math.pi - gap))
        assert se3.geodesic_angle(np.eye(3), rotation) == pytest.approx(math.pi - gap, abs=1e-12)
        assert se3.geodesic_angle(rotation, np.eye(3)) == pytest.approx(math.pi - gap, abs=1e-12)

    def test_quarter_turn(self):
        assert se3.geodesic_angle(np.eye(3), rot_z(math.pi / 2)) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_quaternion_dot_oracle(self):
        a, b = rot_x(0.3), rot_y(0.4)
        assert se3.geodesic_angle(a, b) == pytest.approx(quat_dot_angle(a, b), abs=1e-9)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            a = random_full_range_rotation(rng)
            b = random_full_range_rotation(rng)
            c = random_full_range_rotation(rng)
            ab = se3.geodesic_angle(a, b)
            assert ab == pytest.approx(se3.geodesic_angle(b, a), abs=1e-12)
            assert ab <= se3.geodesic_angle(a, c) + se3.geodesic_angle(c, b) + 1e-9


class TestRandomPose:
    def test_zero_scales_give_identity(self):
        pose = se3.random_pose(11, 0.0, 0.0)
        np.testing.assert_allclose(pose.as_matrix(), np.eye(4), atol=1e-15)

    def test_deterministic_per_seed(self):
        a = se3.random_pose(12, 1.0, 0.2)
        b = se3.random_pose(12, 1.0, 0.2)
        np.testing.assert_array_equal(a.as_matrix(), b.as_matrix())

    def test_rotation_vector_std_monte_carlo(self):
        rng = np.random.default_rng(13)
        rotvecs = np.stack([se3.so3_log(se3.random_pose(rng, 0.0, 0.1).rotation)
                            for _ in range(10_000)])
        std = rotvecs.std(axis=0)
        np.testing.assert_allclose(std, 0.1, rtol=0.05)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("name", ["trans_scale", "rot_scale"])
    def test_negative_scale_rejected(self, name, bad):
        rng = np.random.default_rng(16)
        with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
            se3.random_pose(rng, **{"trans_scale": 1.0, "rot_scale": 0.1, name: bad})
        assert rng.random() == np.random.default_rng(16).random()   # refused before drawing


class TestPoseEquality:
    def test_equal_and_unequal_poses(self):
        assert Pose.identity() == Pose.identity()
        pose = se3.random_pose(20, 1.0, 0.2)
        assert pose == Pose(pose.rotation.copy(), pose.translation.copy())
        assert pose != Pose(pose.rotation, pose.translation + [0.0, 0.0, 1e-12])
        assert pose != Pose(rot_z(1e-9) @ pose.rotation, pose.translation)
        assert pose != pose.as_matrix()

    def test_unhashable(self):
        with pytest.raises(TypeError, match="unhashable"):
            hash(Pose.identity())

    def test_caller_arrays_stay_writable(self):
        rotation, translation = np.eye(3), np.zeros(3)
        pose = Pose(rotation, translation)
        rotations, translations = np.stack([np.eye(3)] * 2), np.zeros((2, 3))
        views = list(map(se3.pose_view, *se3._validated(rotations, translations)))
        rotation[0, 0] = translation[0] = rotations[1, 0, 0] = translations[1, 2] = 2.0
        assert pose == Pose.identity() and views[1] == Pose.identity()
        assert not pose.rotation.flags.writeable and not views[1].translation.flags.writeable


class TestNumericalHygiene:
    def test_long_composition_chain_stays_orthonormal(self):
        rng = np.random.default_rng(14)
        steps = [se3.random_pose(rng, 0.1, 0.01) for _ in range(1000)]
        pose = Pose.identity()
        for i in range(100_000):
            pose = se3.compose(pose, steps[i % 1000])
        assert se3.orthonormality_drift(pose.rotation) < 1e-6

    def test_invalid_rotation_rejected(self):
        with pytest.raises(ValueError):
            Pose(np.eye(3) * 1.1, np.zeros(3))
        with pytest.raises(ValueError):
            Pose(np.eye(3), [np.nan, 0.0, 0.0])
        reflection = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            Pose(reflection, np.zeros(3))

    def test_project_rotation_restores_orthonormality(self):
        rng = np.random.default_rng(15)
        noisy = rot_x(0.3) + rng.normal(size=(3, 3)) * 1e-6
        fixed = se3.project_rotation(noisy)
        assert se3.orthonormality_drift(fixed) < 1e-12
        assert np.linalg.det(fixed) > 0


def so3_exp_oracle(rotvec):
    """The Rodrigues formula as so3_exp wrote it with (..., 1, 1) coefficients."""
    omega_hat = se3.skew(rotvec)
    angle = np.maximum(np.sqrt((rotvec * rotvec).sum(axis=-1)), se3.SMALL_ANGLE)[..., None, None]
    half_sinc = np.sin(0.5 * angle) / angle
    return (np.eye(3) + (np.sin(angle) / angle) * omega_hat
            + (2.0 * half_sinc * half_sinc) * (omega_hat @ omega_hat))


class TestDerivedPoses:
    """Poses that se3 derives from checked ones are finite-tested read-only views."""

    NORMS = [0.0, 1e-9, 1e-6, math.pi - 1e-7, 10.0, 1e154, 1e200]

    def test_so3_exp_matches_the_formula_bit_for_bit(self):
        rng = np.random.default_rng(17)
        axes = rng.normal(size=(40, 3))
        axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
        vectors = (axes[:, None] * np.array(self.NORMS)[:, None]).reshape(-1, 3)
        with np.errstate(over="ignore", invalid="ignore"):    # the norm past overflow
            want = so3_exp_oracle(vectors)
            assert np.array_equal(se3.so3_exp(vectors), want, equal_nan=True)
            assert np.array_equal(se3.so3_exp(vectors.reshape(40, -1, 3)),
                                  want.reshape(40, -1, 3, 3), equal_nan=True)
            for vector, rotation in zip(vectors, want):
                assert np.array_equal(se3.so3_exp(vector), rotation, equal_nan=True)
        assert not np.isfinite(want[len(self.NORMS) - 1::len(self.NORMS)]).any()

    def test_each_op_equals_its_checked_pose_without_checking(self, monkeypatch):
        a, b = se3.random_pose(18, 2.0, 0.5), se3.random_pose(19, 2.0, 0.5)
        vec6 = se3.log(b)
        draws = np.random.default_rng(20).normal(0.0, 1.0, (2, 3))
        traj = trj.Trajectory.from_stacks([0, 1, 2], *se3.stack([a, b, Pose.identity()]))
        windows = ev.constant_velocity_windows(traj, "s", 1)
        ab = a.rotation, a.translation, b.rotation, b.translation
        want = {
            "compose": Pose(*se3.compose_rt(*ab)),
            "relative": Pose(*se3.relative_rt(*ab)),
            "inverse": Pose(*se3.inverse_rt(a.rotation, a.translation)),
            "exp": Pose(*se3.exp_rt(vec6)),
            "random_pose": Pose(se3.so3_exp(draws[1] * 0.5), draws[0] * 2.0),
            "identity": Pose(np.eye(3), np.zeros(3)),
            "window row": Pose(windows.rotations[0], windows.translations[0]),
        }

        def refuse(*args):
            raise AssertionError("a derived pose was checked again")

        monkeypatch.setattr(se3, "_validated", refuse)
        got = {
            "compose": se3.compose(a, b),
            "relative": se3.relative(a, b),
            "inverse": se3.inverse(a),
            "exp": se3.exp(vec6),
            "random_pose": se3.random_pose(20, 2.0, 0.5),
            "identity": Pose.identity(),
            "window row": windows[0].delta,
        }
        for name, pose in got.items():
            assert pose == want[name], name
            assert not (pose.rotation.flags.writeable or pose.translation.flags.writeable), name
            assert pose.rotation.flags.c_contiguous and pose.translation.shape == (3,), name

    # pytest turns warnings into errors, so each op must raise its ValueError with no
    # numpy overflow warning before it.
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_a_translation_past_overflow_is_refused(self, sign):
        far = Pose(rot_z(0.1), [sign * 1e308, 0.0, 0.0])
        with pytest.raises(ValueError, match="translation has non-finite components"):
            se3.compose(far, far)
        with pytest.raises(ValueError, match="translation has non-finite components"):
            se3.relative(se3.inverse(far), far)
        with pytest.raises(ValueError, match="translation has non-finite components"):
            se3.inverse(Pose(rot_z(0.1), [sign * 1.7e308, sign * 1.7e308, 0.0]))

    def test_exp_past_overflow_is_refused_like_pose(self):
        for norm in (1e155, 1e200, 1e300):
            with pytest.raises(ValueError, match="rotation is not orthonormal"):
                se3.exp([0.0, 0.0, 0.0, norm, 0.0, 0.0])
            with pytest.raises(ValueError, match="rotation is not orthonormal"):
                se3.random_pose(0, 0.0, norm)

    @settings(max_examples=300, deadline=None)
    @given(unit_axes, st.floats(-12.0, 154.0))
    def test_exp_stays_orthonormal_up_to_norm_1e154(self, axis, log10_norm):
        rotation = se3.exp(np.concatenate([np.zeros(3), axis * 10.0 ** log10_norm])).rotation
        assert se3.orthonormality_drift(rotation) <= se3.ORTHONORMAL_TOL
        assert np.linalg.det(rotation) > 0.0
