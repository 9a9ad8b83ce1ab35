"""Synthetic desk-scale camera world with exact ground-truth trajectories.

The scene is the interior of a tube around the +z axis, populated with
point landmarks whose albedo follows a seeded texture function (speckled and
smooth zones alternating along the tube, so some views are feature-rich and
others nearly uniform).  A camera-mounted light makes intensity fall off with
the inverse square of the landmark distance, so advancing or retreating
changes overall image brightness.  The world model is fixed: its settings are
the module constants below.

Cameras start at the world origin looking down +z, so generated trajectories
are born anchored (first pose = identity).  Rendering projects landmarks
through an ideal pinhole and splats each visible one as a Gaussian blob of
BLOB_SIGMA_PX; a circular field-of-view mask is applied last.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import se3, trajectory as trj
from .se3 import Pose
from .tables import read_table, write_table
from .trajectory import ActionSequence, Trajectory

MANIFEST_HEADER = "sequence,frame,image_path,mask_path"
NEAR_MM = 1.0           # points at camera depth <= this are not in front of it
MAX_RESAMPLES = 1000    # redraws of one trajectory step before generation gives up
BLOB_SIGMA_PX = 1.0     # blob std; its 3-sigma reach keeps a splat within a 7 x 7 patch
ZONE_PERIOD_MM = 60.0   # a 30 mm zone spans the brightly lit part of a view: low-texture windows
LIGHT_GAIN = 400.0      # mm^2; albedo 1 saturates nearer than 20 mm, so advancing brightens a view
KEEP_IN_MARGIN_MM = 5.0  # the camera stays this far inside the wall, well beyond NEAR_MM
SMOOTHING = 0.8         # smooth-advance's velocity AR(1) coefficient: successive steps correlate
# "P5", width, height and maxval, each after whitespace or comment lines, then one whitespace.
_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*\n)+(\d+)" * 3 + rb"\s")


@dataclass(frozen=True)
class TubeGeometry:
    """Cylinder around +z that landmarks sit on and the camera stays inside."""

    radius: float = 18.0       # mm, landmark surface
    z_min: float = -30.0       # mm
    z_max: float = 200.0       # mm

    @property
    def keep_in_radius(self) -> float:
        return self.radius - KEEP_IN_MARGIN_MM

    def contains_camera(self, position: np.ndarray) -> bool:
        lateral = math.hypot(position[0], position[1])
        return (lateral <= self.keep_in_radius
                and self.z_min + 8.0 <= position[2] <= self.z_max - 8.0)


DEFAULT_TUBE = TubeGeometry()


@dataclass(frozen=True)
class Scene:
    """Landmark cloud with per-point albedo."""

    points: np.ndarray          # (N, 3) mm
    albedo: np.ndarray          # (N,) in [0, 1]

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        albedo = np.asarray(self.albedo, dtype=np.float64).reshape(-1)
        if len(albedo) != len(points):
            raise ValueError(f"{len(points)} points but {len(albedo)} albedo values")
        if not np.isfinite(points).all():
            raise ValueError("landmark points must be finite")
        if not ((albedo >= 0.0) & (albedo <= 1.0)).all():     # false for nan
            raise ValueError("albedo must lie in [0, 1]")
        points.setflags(write=False)
        albedo.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "albedo", albedo)


def make_tube_scene(seed: int, n_landmarks: int = 2500) -> Scene:
    """Seeded landmark scene on the DEFAULT_TUBE interior.

    Texture alternates along z between speckled zones (albedo uniform in
    [0.3, 1.0], strong gradients) and smooth zones (albedo a gentle function
    of position in [0.12, 0.2], nearly featureless).
    """
    if n_landmarks < 500:
        raise ValueError("generated scenes need at least 500 landmarks")
    rng = np.random.default_rng(seed)
    tube = DEFAULT_TUBE
    phi = rng.uniform(0.0, 2.0 * math.pi, n_landmarks)
    z = rng.uniform(tube.z_min, tube.z_max, n_landmarks)
    points = np.stack([tube.radius * np.cos(phi), tube.radius * np.sin(phi), z], axis=1)

    zone_phase = rng.uniform(0.0, 2.0 * math.pi)
    speckled = np.sin(2.0 * math.pi * z / ZONE_PERIOD_MM + zone_phase) >= 0.0
    speckle_albedo = rng.uniform(0.3, 1.0, n_landmarks)
    smooth_phase = rng.uniform(0.0, 2.0 * math.pi)
    smooth_albedo = 0.12 + 0.08 * (0.5 + 0.5 * np.sin(3.0 * phi + 0.05 * z + smooth_phase))
    albedo = np.where(speckled, speckle_albedo, smooth_albedo)
    return Scene(points, albedo)


@dataclass(frozen=True)
class Camera:
    """Ideal pinhole with a circular field-of-view mask."""

    focal: float                # pixels
    cx: float
    cy: float
    size: int                   # image is size x size
    mask_radius: float          # pixels

    def __post_init__(self):
        if not 0.0 < self.focal < math.inf:     # false for nan
            raise ValueError(f"focal length must be positive and finite, got {self.focal}")
        if not (math.isfinite(self.cx) and math.isfinite(self.cy)):
            raise ValueError(f"principal point must be finite, got ({self.cx}, {self.cy})")
        if not 0.0 < self.mask_radius <= self.size / 2.0:     # false for nan
            raise ValueError("mask radius must lie in (0, size/2]")

    @staticmethod
    def default(size: int = 160) -> "Camera":
        center = (size - 1) / 2.0
        return Camera(focal=size * 0.5, cx=center, cy=center,
                      size=size, mask_radius=0.48 * size)


@dataclass(frozen=True)
class Observation:
    """Masked grayscale frame; pixels outside the mask are exactly zero."""

    image: np.ndarray   # (S, S) float64 in [0, 1]
    mask: np.ndarray    # (S, S) bool

    def __post_init__(self):
        image = np.asarray(self.image, dtype=np.float64)
        mask = np.asarray(self.mask, dtype=bool)
        if image.shape != mask.shape or image.ndim != 2:
            raise ValueError("image and mask must be equal square 2D arrays")
        if image.min() < 0.0 or image.max() > 1.0:
            raise ValueError("image values must lie in [0, 1]")
        if np.any(image[~mask] != 0.0):
            raise ValueError("pixels outside the mask must be exactly 0")
        image.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "image", image)
        object.__setattr__(self, "mask", mask)


@functools.lru_cache
def circular_mask(size: int, radius: float) -> np.ndarray:
    """Pixels within ``radius`` of the image centre; cached per (size, radius), read-only."""
    center = (size - 1) / 2.0
    yy, xx = np.mgrid[0:size, 0:size]
    mask = (xx - center) ** 2 + (yy - center) ** 2 <= radius ** 2
    mask.setflags(write=False)
    return mask


def project(camera: Camera, pose: Pose,
            points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pinhole projection of world points through a camera-to-world pose.

    Returns (uv pixel coords (N, 2), camera-frame depth z (N,), in_front
    bool mask).  uv rows for points behind the near plane are unusable.
    """
    local = (points - pose.translation) @ pose.rotation
    z = local[:, 2]
    in_front = z > NEAR_MM
    with np.errstate(divide="ignore", invalid="ignore"):
        u = camera.focal * local[:, 0] / z + camera.cx
        v = camera.focal * local[:, 1] / z + camera.cy
    return np.stack([u, v], axis=1), z, in_front


def _inside_mask(camera: Camera, uv: np.ndarray) -> np.ndarray:
    return ((uv[:, 0] - camera.cx) ** 2 + (uv[:, 1] - camera.cy) ** 2
            <= camera.mask_radius ** 2)


def render(scene: Scene, camera: Camera, pose: Pose) -> Observation:
    """Splat visible landmarks as BLOB_SIGMA_PX Gaussian blobs lit by the headlight.

    A landmark at distance d adds albedo * LIGHT_GAIN / d^2 at its blob centre.
    One ``np.bincount`` scatter sums every (pixel offset, landmark) term,
    offsets outermost and landmarks in order, into a padded canvas; the terms,
    built in place from 1-D x and y offsets, are bit-identical to a 2-D grid's.
    """
    uv, z, in_front = project(camera, pose, scene.points)
    distance2 = np.sum((scene.points - pose.translation) ** 2, axis=1)
    visible = in_front & _inside_mask(camera, uv)

    image = np.zeros((camera.size, camera.size))
    if np.any(visible):
        centers = uv[visible]
        amps = scene.albedo[visible] * LIGHT_GAIN / distance2[visible]
        base = np.round(centers).astype(np.int64)
        frac = centers - base
        reach = int(math.ceil(3.0 * BLOB_SIGMA_PX))
        inv_two_sigma2 = 1.0 / (2.0 * BLOB_SIGMA_PX * BLOB_SIGMA_PX)
        off = np.arange(-reach, reach + 1)[:, None]
        terms = ((off - frac[:, 0]) ** 2)[None, :, :] + ((off - frac[:, 1]) ** 2)[:, None, :]
        terms *= -inv_two_sigma2     # (-x) * c and x * (-c) round alike
        np.exp(terms, out=terms)
        terms *= amps
        # Blobs centred over reach pixels off the image miss it and stay off it
        # when clipped, so every index lies in a canvas padded by 2 * reach + 1.
        pad = 2 * reach + 1
        width = camera.size + 2 * pad
        cell = np.clip(base, -reach - 1, camera.size + reach) + pad
        index = ((cell[:, 1] + off) * width)[:, None, :] + (cell[:, 0] + off)[None, :, :]
        canvas = np.bincount(index.ravel(), terms.ravel(), width * width)
        image = np.clip(canvas.reshape(width, width)[pad:-pad, pad:-pad], 0.0, 1.0)

    mask = circular_mask(camera.size, camera.mask_radius)
    image[~mask] = 0.0
    return Observation(image, mask)


def landmark_projections(scene: Scene, camera: Camera, pose: Pose,
                         min_albedo: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Indices and pixel positions of detectable landmarks in this view.

    A landmark is detectable when it is in front of the camera, inside the
    circular field of view, and has albedo >= min_albedo (dim points do not
    count as trackable features).
    """
    uv, _, in_front = project(camera, pose, scene.points)
    ok = in_front & _inside_mask(camera, uv) & (scene.albedo >= min_albedo)
    return np.nonzero(ok)[0], uv[ok]


def correspondences(scene: Scene, camera: Camera, pose_a: Pose, pose_b: Pose,
                    min_albedo: float = 0.0, noise_px: float = 0.0,
                    rng: np.random.Generator | None = None
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Landmark ids and matched pixel coordinates detectable in both views."""
    return _match_views(*landmark_projections(scene, camera, pose_a, min_albedo),
                        *landmark_projections(scene, camera, pose_b, min_albedo), noise_px, rng)


def _match_views(ids_a, uv_a, ids_b, uv_b, noise_px: float, rng: np.random.Generator | None):
    """Match two :func:`landmark_projections` views; noise is drawn after, for a then b."""
    if not 0.0 <= noise_px < math.inf:      # false for nan
        raise ValueError(f"noise_px must be finite and >= 0, got {noise_px}")
    common, ia, ib = np.intersect1d(ids_a, ids_b, assume_unique=True, return_indices=True)
    pts_a, pts_b = uv_a[ia], uv_b[ib]
    if noise_px > 0.0:
        if rng is None:
            raise ValueError("noise_px > 0 requires an rng")
        pts_a = pts_a + rng.normal(0.0, noise_px, pts_a.shape)
        pts_b = pts_b + rng.normal(0.0, noise_px, pts_b.shape)
    return common, pts_a, pts_b


# ---------------------------------------------------------------------------
# Camera motion

PROFILE_KINDS = ("smooth-advance", "orbit", "jitter")


@dataclass(frozen=True)
class MotionProfile:
    """Per-step motion statistics for trajectory generation.

    trans_std / rot_std are per-step standard deviations (mm / rad).
    forward_speed adds a deterministic drift (mm per step) along the camera's +z.
    """

    kind: str = "smooth-advance"
    trans_std: float = 0.4
    rot_std: float = 0.01
    forward_speed: float = 0.0
    # Not settable; shown so that a profile's repr, which the benchmark's stored
    # reference outputs are keyed on, stays the same.
    smoothing: float = field(default=SMOOTHING, init=False)

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"unknown motion profile {self.kind!r}")
        if not (0.0 <= self.trans_std < math.inf and 0.0 <= self.rot_std < math.inf):
            raise ValueError(f"motion stds must be finite and >= 0: {self.trans_std}, {self.rot_std}")
        if not math.isfinite(self.forward_speed):
            raise ValueError(f"forward_speed must be finite, got {self.forward_speed}")


def generate_trajectory(seed: int, n_frames: int, profile: MotionProfile,
                        tube: TubeGeometry = DEFAULT_TUBE) -> Trajectory:
    """Seeded random camera path starting at the identity pose.

    Steps that would leave the tube's keep-in region are resampled (up to
    MAX_RESAMPLES times, then RuntimeError is raised).
    """
    if n_frames < 2:
        raise ValueError("n_frames must be >= 2")
    rng = np.random.default_rng(seed)
    position = np.zeros(3)
    rotation = np.eye(3)
    rotations, positions = [rotation], [position]

    alpha = SMOOTHING
    beta = math.sqrt(1.0 - alpha * alpha)
    velocity = rng.normal(0.0, profile.trans_std, 3)      # stationary AR(1) init
    omega = rng.normal(0.0, profile.rot_std, 3)
    orbit_radius = 0.45 * tube.keep_in_radius
    orbit_center = np.array([-orbit_radius, 0.0, 0.0])
    orbit_angle = 0.0

    for step in range(1, n_frames):
        for attempt in range(MAX_RESAMPLES + 1):
            if profile.kind == "smooth-advance":
                cand_velocity = alpha * velocity + beta * rng.normal(0.0, profile.trans_std, 3)
                move = cand_velocity + profile.forward_speed * rotation[:, 2]
                cand_position = position + move
                turn = cand_omega = alpha * omega + beta * rng.normal(0.0, profile.rot_std, 3)
            elif profile.kind == "orbit":
                arc = (profile.trans_std + abs(rng.normal(0.0, 0.3 * profile.trans_std))) / max(orbit_radius, 1e-9)
                cand_angle = orbit_angle + arc
                cand_position = orbit_center + orbit_radius * np.array(
                    [math.cos(cand_angle), math.sin(cand_angle), 0.0])
                cand_position[2] = position[2] + profile.forward_speed
                turn = np.array([0.0, 0.0, arc]) + rng.normal(0.0, profile.rot_std, 3)
                cand_velocity, cand_omega = velocity, omega
            else:  # jitter
                cand_position = position + rng.normal(0.0, profile.trans_std, 3) \
                    + profile.forward_speed * rotation[:, 2]
                turn = rng.normal(0.0, profile.rot_std, 3)
                cand_velocity, cand_omega = velocity, omega

            if tube.contains_camera(cand_position):
                break
            if attempt == MAX_RESAMPLES:
                raise RuntimeError(
                    f"motion profile left the tube at step {step} after "
                    f"{MAX_RESAMPLES} resamples")
        # Only the accepted candidate's rotation is needed: no step's
        # position depends on its own turn.
        position, rotation = cand_position, rotation @ se3.so3_exp(turn)
        velocity, omega = cand_velocity, cand_omega
        if profile.kind == "orbit":
            orbit_angle = cand_angle
        if se3.orthonormality_drift(rotation) > se3.RENORM_TRIGGER:
            rotation = se3.project_rotation(rotation)
        rotations.append(rotation)
        positions.append(position)
    return Trajectory.from_stacks(np.arange(n_frames), rotations, positions, anchored=True)


# ---------------------------------------------------------------------------
# Window samples

@dataclass(frozen=True)
class WindowSample:
    """One window: endpoint observations, anchored state, and action chunk."""

    sequence: str
    t: int
    obs_t: Observation
    obs_tk: Observation
    state: np.ndarray          # log of the anchored pose at frame t
    actions: ActionSequence

    def __post_init__(self):
        state = np.asarray(self.state, dtype=np.float64).reshape(6)
        state.setflags(write=False)
        object.__setattr__(self, "state", state)


def window_samples(sequence: str, traj: Trajectory,
                   observations: dict[int, Observation], k: int) -> list[WindowSample]:
    """All length-k windows of one anchored sequence, ordered by start frame.

    A window is emitted when its frames t..t+k all have a pose and an
    observation.
    """
    if not traj.anchored:
        raise ValueError("trajectory must be anchored")
    actions = trj.action_windows(traj, k)
    starts = [t for t in actions if all(i in observations for i in range(t, t + k + 1))]
    rows = traj.rows(starts)
    states = se3.log_rt(traj.rotations[rows], traj.translations[rows])
    return [WindowSample(sequence=sequence, t=t, obs_t=observations[t],
                         obs_tk=observations[t + k], state=state, actions=actions[t])
            for t, state in zip(starts, states)]


# ---------------------------------------------------------------------------
# Disk format: 8-bit PGM images + masks, CSV manifest, trajectory CSV

def write_pgm(path, image01: np.ndarray) -> None:
    """8-bit binary portable graymap of an image with values in [0, 1]; for any
    other value, raises ValueError naming the file and writes nothing."""
    image01 = np.asarray(image01)
    if not ((image01 >= 0.0) & (image01 <= 1.0)).all():    # false for nan
        raise ValueError(f"{path}: PGM values must be finite and lie in [0, 1]")
    data = np.round(image01 * 255.0).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read an 8-bit binary PGM back to float64 in [0, 1]."""
    raw = Path(path).read_bytes()
    header = _PGM_HEADER.match(raw)
    if header is None or header[3] != b"255":
        raise ValueError(f"unsupported PGM header in {path}")
    w, h = int(header[1]), int(header[2])
    pixels = raw[header.end():header.end() + w * h]
    if len(pixels) < w * h:
        raise ValueError(f"truncated PGM {path}: {len(pixels)} of {w * h} pixel bytes")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w) / 255.0


def write_observation(image_path, mask_path, obs: Observation) -> None:
    write_pgm(image_path, obs.image)
    write_pgm(mask_path, obs.mask.astype(np.float64))


def read_observation(image_path, mask_path) -> Observation:
    image = read_pgm(image_path)
    mask = read_pgm(mask_path) > 0.5
    image = image * mask  # defensive: enforce the outside-mask-zero invariant
    return Observation(image, mask)


@dataclass
class SequenceData:
    name: str
    trajectory: Trajectory
    observations: dict[int, Observation]


def write_dataset(root, sequences: list[SequenceData]) -> None:
    """Write manifest, per-sequence trajectory files, and PGM frames."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    manifest = []
    for seq in sequences:
        seq_dir = root / seq.name
        seq_dir.mkdir(exist_ok=True)
        trj.write_trajectory_file(seq_dir / "traj.csv", seq.trajectory)
        for frame, obs in sorted(seq.observations.items()):
            image_rel = f"{seq.name}/frame_{frame:06d}.pgm"
            mask_rel = f"{seq.name}/frame_{frame:06d}.mask.pgm"
            write_observation(root / image_rel, root / mask_rel, obs)
            manifest.append((seq.name, frame, image_rel, mask_rel))
    write_table(root / "manifest.csv", MANIFEST_HEADER, manifest)


def load_dataset(root) -> list[SequenceData]:
    """Load a dataset written by :func:`write_dataset`."""
    root = Path(root)
    frames_by_seq: dict[str, list[tuple[int, str, str]]] = {}
    for name, frame, image_rel, mask_rel in read_table(root / "manifest.csv", MANIFEST_HEADER):
        frames_by_seq.setdefault(name, []).append((int(frame), image_rel, mask_rel))
    sequences = []
    for name in frames_by_seq:
        rows = trj.read_trajectory_file(root / name / "traj.csv")
        traj = trj.rows_to_trajectory(rows, anchored=True)
        observations = {
            frame: read_observation(root / image_rel, root / mask_rel)
            for frame, image_rel, mask_rel in frames_by_seq[name]
        }
        sequences.append(SequenceData(name, traj, observations))
    return sequences
