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
      an (N, ...) stack run the same code.
    - Caller arrays are copied and checked in full once, a whole stack at a
      time, by :func:`_validated` (``Pose(...)``, ``Trajectory.from_stacks``).
      What this module's arithmetic derives from checked poses is not checked
      again: ``compose``, ``relative``, ``inverse``, ``exp``, ``random_pose``
      and ``Pose.identity`` return read-only :func:`pose_view` poses of
      :func:`_frozen` arrays, which are only tested finite (an overflow raises
      its ValueError and no numpy warning); the trajectory and window
      builders hold their derived stacks the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Numerical-stability thresholds (computational path only, not model choices).
ORTHONORMAL_TOL = 1e-9      # how far R'R may be from I on a valid Rotation
RENORM_TRIGGER = 1e-12      # compose() and inverse() re-orthonormalize past this drift
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


def _norm(vectors: np.ndarray) -> np.ndarray:
    return np.sqrt((vectors * vectors).sum(axis=-1))


def _gram_residual(rotation: np.ndarray) -> np.ndarray:
    """|R'R - I| per float64 rotation, made in one temporary.  A stack multiplies a
    contiguous copy of R', on numpy's fast matmul path (the strided R' view takes
    about twice as long); a single rotation is not worth the copy."""
    transpose = rotation.swapaxes(-1, -2)
    residual = (transpose.copy() if rotation.ndim > 2 else transpose) @ rotation
    residual -= _EYE3
    return np.abs(residual, out=residual)


def orthonormality_drift(rotation: np.ndarray) -> np.ndarray:
    """Max-abs deviation of R'R from the identity, per rotation."""
    return _gram_residual(np.asarray(rotation, dtype=np.float64)).max(axis=(-2, -1))


def project_rotation(matrix: np.ndarray) -> np.ndarray:
    """Nearest rotation matrices in the Frobenius sense (SVD projection)."""
    u, _, vt = np.linalg.svd(matrix)
    u[..., 2] *= np.sign(np.linalg.det(u @ vt))[..., None]   # no reflections
    return u @ vt


def _renormalize(rotation: np.ndarray) -> np.ndarray:
    """Re-project, in place, the rotations whose drift exceeds RENORM_TRIGGER."""
    residual = _gram_residual(rotation)
    # The stack's largest drift in one reduction; rows are picked only past it.
    if residual.max(initial=0.0) > RENORM_TRIGGER:
        drifted = residual.max(axis=(-2, -1)) > RENORM_TRIGGER
        rotation[drifted] = project_rotation(rotation[drifted])
    return rotation


def so3_exp(rotvec: np.ndarray) -> np.ndarray:
    """Rodrigues exponential: axis-angle (..., 3) to rotation matrices (..., 3, 3).

    R = I + a K + b K^2, a = sin(x)/x, b = (1 - cos x)/x^2 = 2 (sin(x/2)/x)^2;
    below SMALL_ANGLE both are 1 and 1/2 to double precision, so x is floored.
    a and b are computed per vector (numpy scalars for one) before broadcasting.
    """
    rotvec = np.asarray(rotvec, dtype=np.float64)
    omega_hat = (rotvec @ _HAT).reshape(rotvec.shape[:-1] + (3, 3))
    angle = np.maximum(np.sqrt((rotvec * rotvec).sum(axis=-1)), SMALL_ANGLE)
    half_sinc = np.sin(0.5 * angle) / angle
    return (_EYE3 + (np.sin(angle) / angle)[..., None, None] * omega_hat
            + (2.0 * half_sinc * half_sinc)[..., None, None] * (omega_hat @ omega_hat))


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


def _frozen(rotation, translation) -> tuple[np.ndarray, np.ndarray]:
    """Pose arrays derived from validated ones by this module's arithmetic, made read-only
    C-contiguous float64 (copied only if they are not) and tested finite alone: compose_rt
    re-projects past RENORM_TRIGGER, far inside ORTHONORMAL_TOL, and exp of a finite vector
    is a rotation (drift under 3e-15 in 200k draws up to norm 1e154, not finite past it).
    A non-finite array raises the ValueError that :func:`_validated` would."""
    rotation = np.ascontiguousarray(rotation, dtype=np.float64)
    translation = np.ascontiguousarray(translation, dtype=np.float64)
    if not np.isfinite(rotation).all():
        raise ValueError("rotation is not orthonormal within 1e-9")
    if not np.isfinite(translation).all():
        raise ValueError("translation has non-finite components")
    rotation.setflags(write=False)
    translation.setflags(write=False)
    return rotation, translation


# The derived ops run with overflow warnings off: a result past float64 raises _frozen's
# ValueError, under -W error too.  A decorator costs about 0.3 us, less than an input test.
_overflow_refused = np.errstate(over="ignore", invalid="ignore")


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
        """The identity transform: rotation I, translation 0 mm."""
        return pose_view(*_frozen(np.eye(3), np.zeros(3)))

    def as_matrix(self) -> np.ndarray:
        """The 4x4 homogeneous matrix [[R, t], [0, 1]], a new array (t in mm)."""
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m


def pose_view(rotation: np.ndarray, translation: np.ndarray) -> Pose:
    """A Pose on read-only arrays that are checked (:func:`_validated`) or derived from
    checked ones (:func:`_frozen`), neither copied nor checked again."""
    view = object.__new__(Pose)
    view.__dict__.update(rotation=rotation, translation=translation)
    return view


def stack(pose_list: list[Pose]) -> tuple[np.ndarray, np.ndarray]:
    """Rotation (N, 3, 3) and translation (N, 3) stacks of a list of poses."""
    return (np.array([p.rotation for p in pose_list]).reshape(-1, 3, 3),
            np.array([p.translation for p in pose_list]).reshape(-1, 3))


@_overflow_refused
def compose(a: Pose, b: Pose) -> Pose:
    """Group product a∘b: rotation Ra Rb, translation Ra tb + ta."""
    return pose_view(*_frozen(*compose_rt(a.rotation, a.translation, b.rotation, b.translation)))


@_overflow_refused
def inverse(a: Pose) -> Pose:
    """Group inverse: (R', -R' t), R' re-projected past RENORM_TRIGGER as in compose_rt
    (|RR' - I| can be 3x |R'R - I|, the one that Pose checks)."""
    rotation, translation = inverse_rt(a.rotation, a.translation)
    return pose_view(*_frozen(_renormalize(rotation.copy()), translation))


@_overflow_refused
def relative(a: Pose, b: Pose) -> Pose:
    """Transform of b expressed in a's frame: a^-1 ∘ b."""
    return pose_view(*_frozen(*relative_rt(a.rotation, a.translation, b.rotation, b.translation)))


def log(a: Pose) -> np.ndarray:
    """Split 6-vector (tx, ty, tz, rx, ry, rz) of a pose."""
    return log_rt(a.rotation, a.translation)


@_overflow_refused
def exp(vec6: np.ndarray) -> Pose:
    """Pose from a split 6-vector; inverse of :func:`log`."""
    return pose_view(*_frozen(*exp_rt(np.asarray(vec6, dtype=np.float64).reshape(6))))


@_overflow_refused
def random_pose(seed_or_rng, trans_scale: float, rot_scale: float) -> Pose:
    """Deterministic random pose, a :func:`pose_view` like ``exp``'s: Gaussian translation
    (std trans_scale per axis, mm) and exp of Gaussian axis-angle (std rot_scale, rad).
    ValueError, before any draw, names a scale that is not finite and >= 0."""
    for name, scale in ("trans_scale", trans_scale), ("rot_scale", rot_scale):
        if not 0.0 <= scale < np.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {scale}")
    # One draw of 6 is the stream's next two draws of 3; a Generator is used as is.
    draw = np.random.default_rng(seed_or_rng).normal(0.0, 1.0, 6)
    return pose_view(*_frozen(so3_exp(draw[3:] * rot_scale), draw[:3] * trans_scale))
