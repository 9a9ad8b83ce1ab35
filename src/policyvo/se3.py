"""Exact SO(3)/SE(3) pose algebra on float64 numpy arrays.

Conventions:
    - A pose maps points from its local frame to the parent frame:
      p_parent = R @ p_local + t.  Translations are in millimetres.
    - The canonical 6-vector form is the *split* parameterization
      (tx, ty, tz, rx, ry, rz): raw translation paired with the principal
      axis-angle (radians) of the rotation.  ``exp``/``log`` below use this
      form.
    - Rotations with angle within ~1e-6 of pi have two equivalent principal
      axis-angle vectors; ``log`` returns one of them (not an error).
    - Every array function works over leading batch axes (rotations
      (..., 3, 3), translations (..., 3), 6-vectors (..., 6)), so one pose and
      an (N, ...) stack run the same code; the ``Pose`` functions are thin
      calls into the ``*_rt`` ones.  A stack is validated once as a whole by
      :func:`poses`, whose rows are then read-only ``Pose`` views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Numerical-stability thresholds (computational path only, not model choices).
ORTHONORMAL_TOL = 1e-9      # how far R'R may be from I on a valid Rotation
RENORM_TRIGGER = 1e-12      # compose() re-orthonormalizes past this drift
SMALL_ANGLE = 1e-8          # below this angle exp/log use their small-angle limits

_EYE3 = np.eye(3)
_EYE4 = np.eye(4)
_ARANGE4 = np.arange(4)
# hat(v) = (v @ _HAT).reshape(3, 3): rows are the flattened hats of x, y, z.
_HAT = np.array([[0, 0, 0, 0, 0, -1, 0, 1, 0],
                 [0, 0, 1, 0, 0, 0, -1, 0, 0],
                 [0, -1, 0, 1, 0, 0, 0, 0, 0]], dtype=np.float64)
# 4 q q' - I = (R.flat @ _QUAT_OUTER).reshape(4, 4) for the unit quaternion q of R.
_r00, _r01, _r02, _r10, _r11, _r12, _r20, _r21, _r22 = np.eye(9)
_QUAT_OUTER = np.array([
    [_r00 + _r11 + _r22, _r21 - _r12, _r02 - _r20, _r10 - _r01],
    [_r21 - _r12, _r00 - _r11 - _r22, _r01 + _r10, _r02 + _r20],
    [_r02 - _r20, _r01 + _r10, _r11 - _r00 - _r22, _r12 + _r21],
    [_r10 - _r01, _r02 + _r20, _r12 + _r21, _r22 - _r00 - _r11]]).reshape(16, 9).T.copy()
for _constant in (_EYE3, _EYE4, _ARANGE4, _HAT, _QUAT_OUTER):
    _constant.setflags(write=False)


def skew(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric (hat) matrices of 3-vectors: (..., 3) -> (..., 3, 3)."""
    v = np.asarray(v, dtype=np.float64)
    return (v @ _HAT).reshape(v.shape[:-1] + (3, 3))


def rot_x(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _norm(vectors: np.ndarray) -> np.ndarray:
    return np.sqrt((vectors * vectors).sum(axis=-1))


def orthonormality_drift(rotation: np.ndarray) -> np.ndarray:
    """Max-abs deviation of R'R from the identity, per rotation."""
    return np.abs(rotation.swapaxes(-1, -2) @ rotation - _EYE3).max(axis=(-2, -1))


def project_rotation(matrix: np.ndarray) -> np.ndarray:
    """Nearest rotation matrices in the Frobenius sense (SVD projection)."""
    u, _, vt = np.linalg.svd(matrix)
    u[..., 2] *= np.sign(np.linalg.det(u @ vt))[..., None]   # no reflections
    return u @ vt


def _renormalize(rotation: np.ndarray) -> np.ndarray:
    """Re-project, in place, the rotations whose drift exceeds RENORM_TRIGGER."""
    # The stack's largest drift in one reduction; rows are picked only past it.
    if np.abs(rotation.swapaxes(-1, -2) @ rotation - _EYE3).max(initial=0.0) > RENORM_TRIGGER:
        drifted = orthonormality_drift(rotation) > RENORM_TRIGGER
        rotation[drifted] = project_rotation(rotation[drifted])
    return rotation


def so3_exp(rotvec: np.ndarray) -> np.ndarray:
    """Rodrigues exponential: axis-angle (..., 3) to rotation matrices (..., 3, 3).

    R = I + a K + b K^2, a = sin(x)/x, b = (1 - cos x)/x^2 = 2 (sin(x/2)/x)^2;
    below SMALL_ANGLE both are 1 and 1/2 to double precision, so x is floored.
    """
    omega_hat = skew(rotvec)
    angle = np.maximum(_norm(np.asarray(rotvec, dtype=np.float64)), SMALL_ANGLE)[..., None, None]
    half_sinc = np.sin(0.5 * angle) / angle
    return (_EYE3 + (np.sin(angle) / angle) * omega_hat
            + (2.0 * half_sinc * half_sinc) * (omega_hat @ omega_hat))


def rotation_to_quat(rotation: np.ndarray) -> np.ndarray:
    """Unit quaternions (w, x, y, z) with w >= 0, via Shepperd's method: the
    row of 4 q q' with the largest diagonal entry is 4 q_i q with |q_i| >= 1/2,
    so normalizing it gives q without cancellation at any angle."""
    m = np.asarray(rotation, dtype=np.float64)
    lead = m.shape[:-2]
    outer = (m.reshape(lead + (9,)) @ _QUAT_OUTER).reshape(lead + (4, 4)) + _EYE4
    pick = outer.diagonal(axis1=-2, axis2=-1).argmax(axis=-1)[..., None] == _ARANGE4
    row = (outer * pick[..., None]).sum(axis=-2)
    return row / np.copysign(_norm(row)[..., None], row[..., :1])


def so3_log(rotation: np.ndarray) -> np.ndarray:
    """Principal axis-angle vectors (norm <= pi) of rotation matrices.

    The quaternion form stays well conditioned over the whole angle range,
    including near pi (where either sign of the branch may be returned).
    """
    q = rotation_to_quat(rotation)
    vec_norm = np.maximum(_norm(q[..., 1:]), SMALL_ANGLE)[..., None]
    return (2.0 * np.arctan2(vec_norm, q[..., :1]) / vec_norm) * q[..., 1:]


def geodesic_angle(rotation_a: np.ndarray, rotation_b: np.ndarray) -> np.ndarray:
    """Geodesic distance on SO(3) in [0, pi], per pair of rotations:
    atan2(|vee(A'B - B'A)| / 2, (trace(A'B) - 1) / 2), precise near 0 and pi
    (arccos of the trace alone has a noise floor of about sqrt(eps) near 0)."""
    m = np.asarray(rotation_a, dtype=np.float64).swapaxes(-1, -2) @ rotation_b
    antisym = m - m.swapaxes(-1, -2)    # |antisym|_F = sqrt(2) |vee(antisym)|
    sin_angle = np.sqrt((antisym * antisym).sum(axis=(-2, -1)) / 8.0)
    return np.arctan2(sin_angle, 0.5 * (m.trace(axis1=-2, axis2=-1) - 1.0))


def compose_rt(rot_a, trans_a, rot_b, trans_b) -> tuple[np.ndarray, np.ndarray]:
    """Group products a∘b: rotation Ra Rb (re-projected past RENORM_TRIGGER), translation Ra tb + ta."""
    return _renormalize(rot_a @ rot_b), (rot_a @ trans_b[..., None])[..., 0] + trans_a


def inverse_rt(rotation, translation) -> tuple[np.ndarray, np.ndarray]:
    """Group inverses: (R', -R' t)."""
    rotation = rotation.swapaxes(-1, -2)
    return rotation, -(rotation @ translation[..., None])[..., 0]


def relative_rt(rot_a, trans_a, rot_b, trans_b) -> tuple[np.ndarray, np.ndarray]:
    """Transforms of b expressed in a's frame: a^-1 ∘ b."""
    return compose_rt(*inverse_rt(rot_a, trans_a), rot_b, trans_b)


def log_rt(rotation, translation) -> np.ndarray:
    """Split 6-vectors (..., 6) of poses."""
    return np.concatenate([translation, so3_log(rotation)], axis=-1)


def exp_rt(vec6) -> tuple[np.ndarray, np.ndarray]:
    """Poses of split 6-vectors (..., 6); inverse of :func:`log_rt`."""
    vec6 = np.asarray(vec6, dtype=np.float64)
    return so3_exp(vec6[..., 3:]), vec6[..., :3].copy()


def _validated(rotation, translation) -> tuple[np.ndarray, np.ndarray]:
    """One pose or a stack as read-only float64 copies, checked once as a whole.

    Every rotation must be orthonormal within ORTHONORMAL_TOL with a
    non-negative determinant and every translation finite (else ValueError).
    """
    rotation = np.array(rotation, dtype=np.float64)    # the caller's arrays stay writable
    translation = np.array(translation, dtype=np.float64)
    if rotation.shape[-2:] != (3, 3) or translation.shape != rotation.shape[:-2] + (3,):
        raise ValueError(f"pose arrays must be (..., 3, 3) and (..., 3), "
                         f"got {rotation.shape} and {translation.shape}")
    orthonormal = orthonormality_drift(rotation) <= ORTHONORMAL_TOL
    proper = orthonormal & (np.linalg.det(rotation) >= 0.0)
    if not (proper[..., None] & np.isfinite(translation)).all():   # one reduction when valid
        if not orthonormal.all():
            raise ValueError("rotation is not orthonormal within 1e-9")
        if not proper.all():
            raise ValueError("rotation has negative determinant")
        raise ValueError("translation has non-finite components")
    rotation.setflags(write=False)
    translation.setflags(write=False)
    return rotation, translation


@dataclass(frozen=True)
class Pose:
    """Rigid transform in SE(3): 3x3 rotation plus translation (mm)."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        translation = np.asarray(self.translation, dtype=np.float64).reshape(3)
        rotation, translation = _validated(self.rotation, translation)
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "translation", translation)

    def __eq__(self, other) -> bool:
        """Exact equality of rotation and translation, with no tolerance."""
        return (isinstance(other, Pose) and np.array_equal(self.rotation, other.rotation)
                and np.array_equal(self.translation, other.translation))

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))

    def as_matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m


def poses(rotations, translations) -> list[Pose]:
    """Read-only Pose views of the rows of a pose stack, validated once as a whole
    (the views skip Pose.__post_init__, which would check each row again)."""
    rotations, translations = _validated(rotations, translations)
    views = [object.__new__(Pose) for _ in range(len(rotations))]
    for view, rotation, translation in zip(views, rotations, translations):
        view.__dict__.update(rotation=rotation, translation=translation)
    return views


def stack(pose_list: list[Pose]) -> tuple[np.ndarray, np.ndarray]:
    """Rotation (N, 3, 3) and translation (N, 3) stacks of a list of poses."""
    return (np.array([p.rotation for p in pose_list]).reshape(-1, 3, 3),
            np.array([p.translation for p in pose_list]).reshape(-1, 3))


def compose(a: Pose, b: Pose) -> Pose:
    """Group product a∘b: rotation Ra Rb, translation Ra tb + ta."""
    return Pose(*compose_rt(a.rotation, a.translation, b.rotation, b.translation))


def inverse(a: Pose) -> Pose:
    """Group inverse: (R', -R' t)."""
    return Pose(*inverse_rt(a.rotation, a.translation))


def relative(a: Pose, b: Pose) -> Pose:
    """Transform of b expressed in a's frame: a^-1 ∘ b."""
    return Pose(*relative_rt(a.rotation, a.translation, b.rotation, b.translation))


def log(a: Pose) -> np.ndarray:
    """Split 6-vector (tx, ty, tz, rx, ry, rz) of a pose."""
    return log_rt(a.rotation, a.translation)


def exp(vec6: np.ndarray) -> Pose:
    """Pose from a split 6-vector; inverse of :func:`log`."""
    return Pose(*exp_rt(np.asarray(vec6, dtype=np.float64).reshape(6)))


def random_pose(seed_or_rng, trans_scale: float, rot_scale: float) -> Pose:
    """Deterministic random pose: Gaussian translation (std trans_scale per
    axis, mm) and exp of Gaussian axis-angle (std rot_scale, rad)."""
    if trans_scale < 0.0 or rot_scale < 0.0:
        raise ValueError("scales must be non-negative")
    rng = np.random.default_rng(seed_or_rng)   # a Generator is returned as is
    translation = rng.normal(0.0, 1.0, 3) * trans_scale
    rotation = so3_exp(rng.normal(0.0, 1.0, 3) * rot_scale)
    return Pose(rotation, translation)
