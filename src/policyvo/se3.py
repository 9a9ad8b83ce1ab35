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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Numerical-stability thresholds (computational path only, not model choices).
ORTHONORMAL_TOL = 1e-9      # how far R'R may be from I on a valid Rotation
RENORM_TRIGGER = 1e-12      # compose() re-orthonormalizes past this drift
SMALL_ANGLE = 1e-8          # switch to series expansions below this angle


def skew(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric (hat) matrix of a 3-vector."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def rot_x(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def orthonormality_drift(rotation: np.ndarray) -> float:
    """Max-abs deviation of R'R from the identity."""
    return float(np.abs(rotation.T @ rotation - np.eye(3)).max())


def project_rotation(matrix: np.ndarray) -> np.ndarray:
    """Nearest rotation matrix in the Frobenius sense (SVD projection)."""
    u, _, vt = np.linalg.svd(matrix)
    rotation = u @ vt
    if np.linalg.det(rotation) < 0.0:
        u = u.copy()
        u[:, -1] = -u[:, -1]
        rotation = u @ vt
    return rotation


def so3_exp(rotvec: np.ndarray) -> np.ndarray:
    """Rodrigues exponential: axis-angle 3-vector to rotation matrix."""
    rotvec = np.asarray(rotvec, dtype=np.float64)
    angle = float(np.linalg.norm(rotvec))
    omega_hat = skew(rotvec)
    if angle < SMALL_ANGLE:
        # Second-order series keeps the result orthonormal to O(angle^3).
        return np.eye(3) + omega_hat + 0.5 * (omega_hat @ omega_hat)
    a = math.sin(angle) / angle
    b = (1.0 - math.cos(angle)) / (angle * angle)
    return np.eye(3) + a * omega_hat + b * (omega_hat @ omega_hat)


def rotation_to_quat(rotation: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) with w >= 0, via Shepperd's method."""
    m = rotation
    trace = m[0, 0] + m[1, 1] + m[2, 2]
    if trace > 0.0:
        s = math.sqrt(trace + 1.0) * 2.0
        q = np.array([0.25 * s,
                      (m[2, 1] - m[1, 2]) / s,
                      (m[0, 2] - m[2, 0]) / s,
                      (m[1, 0] - m[0, 1]) / s])
    elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = np.array([(m[2, 1] - m[1, 2]) / s,
                      0.25 * s,
                      (m[0, 1] + m[1, 0]) / s,
                      (m[0, 2] + m[2, 0]) / s])
    elif m[1, 1] > m[2, 2]:
        s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        q = np.array([(m[0, 2] - m[2, 0]) / s,
                      (m[0, 1] + m[1, 0]) / s,
                      0.25 * s,
                      (m[1, 2] + m[2, 1]) / s])
    else:
        s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        q = np.array([(m[1, 0] - m[0, 1]) / s,
                      (m[0, 2] + m[2, 0]) / s,
                      (m[1, 2] + m[2, 1]) / s,
                      0.25 * s])
    q /= np.linalg.norm(q)
    if q[0] < 0.0:
        q = -q
    return q


def so3_log(rotation: np.ndarray) -> np.ndarray:
    """Principal axis-angle vector (norm <= pi) of a rotation matrix.

    Goes through the quaternion form, which stays well conditioned over the
    whole angle range including near pi (where the branch is non-unique and
    either sign may be returned).
    """
    q = rotation_to_quat(rotation)
    w = q[0]
    vec = q[1:]
    vec_norm = float(np.linalg.norm(vec))
    if vec_norm < SMALL_ANGLE:
        return 2.0 * vec  # first order: vec = sin(angle/2) * axis
    angle = 2.0 * math.atan2(vec_norm, w)
    return (angle / vec_norm) * vec


def geodesic_angle(rotation_a: np.ndarray, rotation_b: np.ndarray) -> float:
    """Geodesic distance on SO(3): arccos((trace(A'B) - 1) / 2) in [0, pi]."""
    cos_angle = 0.5 * (np.trace(rotation_a.T @ rotation_b) - 1.0)
    return math.acos(min(1.0, max(-1.0, cos_angle)))


@dataclass(frozen=True)
class Pose:
    """Rigid transform in SE(3): 3x3 rotation plus translation (mm)."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rotation = np.asarray(self.rotation, dtype=np.float64)
        translation = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if rotation.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {rotation.shape}")
        if orthonormality_drift(rotation) > ORTHONORMAL_TOL:
            raise ValueError("rotation is not orthonormal within 1e-9")
        if np.linalg.det(rotation) < 0.0:
            raise ValueError("rotation has negative determinant")
        if not np.all(np.isfinite(translation)):
            raise ValueError("translation has non-finite components")
        rotation.setflags(write=False)
        translation.setflags(write=False)
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

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Map local points (3,) or (N, 3) into the parent frame."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim == 1:
            return self.rotation @ points + self.translation
        return points @ self.rotation.T + self.translation


def compose(a: Pose, b: Pose) -> Pose:
    """Group product a∘b: rotation Ra Rb, translation Ra tb + ta."""
    rotation = a.rotation @ b.rotation
    if orthonormality_drift(rotation) > RENORM_TRIGGER:
        rotation = project_rotation(rotation)
    return Pose(rotation, a.rotation @ b.translation + a.translation)


def inverse(a: Pose) -> Pose:
    """Group inverse: (R', -R' t)."""
    rotation = a.rotation.T
    return Pose(rotation, -(rotation @ a.translation))


def relative(a: Pose, b: Pose) -> Pose:
    """Transform of b expressed in a's frame: a^-1 ∘ b."""
    return compose(inverse(a), b)


def log(a: Pose) -> np.ndarray:
    """Split 6-vector (tx, ty, tz, rx, ry, rz) of a pose."""
    return np.concatenate([a.translation, so3_log(a.rotation)])


def exp(vec6: np.ndarray) -> Pose:
    """Pose from a split 6-vector; inverse of :func:`log`."""
    vec6 = np.asarray(vec6, dtype=np.float64).reshape(6)
    return Pose(so3_exp(vec6[3:]), vec6[:3])


def _as_rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def random_pose(seed_or_rng, trans_scale: float, rot_scale: float) -> Pose:
    """Deterministic random pose: Gaussian translation (std trans_scale per
    axis, mm) and exp of Gaussian axis-angle (std rot_scale, rad)."""
    if trans_scale < 0.0 or rot_scale < 0.0:
        raise ValueError("scales must be non-negative")
    rng = _as_rng(seed_or_rng)
    translation = rng.normal(0.0, 1.0, 3) * trans_scale
    rotation = so3_exp(rng.normal(0.0, 1.0, 3) * rot_scale)
    return Pose(rotation, translation)
