"""Synthetic desk-scale camera world with exact ground-truth trajectories.

The scene is the interior of a tube around the +z axis, populated with
point landmarks whose albedo follows a seeded texture function (speckled and
smooth zones alternating along the tube, so some views are feature-rich and
others nearly uniform).  A camera-mounted light makes intensity fall off with
the inverse square of the landmark distance, so advancing or retreating
changes overall image brightness.  The world model is fixed: its settings are
the module constants below.

Cameras start at the world origin looking down +z, so generated trajectories
are born anchored (first pose = identity).  A camera sees the landmarks in front
of it whose ideal pinhole projection lies within the mask radius of the image centre,
in its rendered frame (each a BLOB_SIGMA_PX Gaussian blob) and its detections alike.
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
from .tables import _rewrite, check_name, parse_int, read_rows, write_table
from .trajectory import ActionSequence, Trajectory

MANIFEST_HEADER = "sequence,frame"
MANIFEST_ROW = "%s,%d"
NEAR_MM = 1.0           # points at camera depth <= this are not in front of it
MAX_RESAMPLES = 1000    # redraws of one trajectory step before generation gives up
BLOB_SIGMA_PX = 1.0     # blob std; its 3-sigma reach keeps a splat within a 7 x 7 patch
ZONE_PERIOD_MM = 60.0   # a 30 mm zone spans the brightly lit part of a view: low-texture windows
LIGHT_GAIN = 400.0      # mm^2; albedo 1 saturates nearer than 20 mm, so advancing brightens a view
KEEP_IN_MARGIN_MM = 5.0  # the camera stays this far inside the wall, well beyond NEAR_MM
END_MARGIN_MM = 8.0     # and this far inside both ends of the tube
SMOOTHING = 0.8         # smooth-advance's AR(1) momentum: successive steps correlate
# "P5", width, height and maxval, each after whitespace or comment lines, then one whitespace.
_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*\n)+(\d+)" * 3 + rb"\s")


@dataclass(frozen=True)
class TubeGeometry:
    """Cylinder around +z that landmarks sit on and the camera stays inside.  ValueError
    naming the field for one that is not finite, a radius of at most KEEP_IN_MARGIN_MM
    (no keep-in room) and an end less than END_MARGIN_MM beyond the camera's start at
    the origin: a tube must contain that start."""

    radius: float = 18.0       # mm, landmark surface
    z_min: float = -30.0       # mm
    z_max: float = 200.0       # mm

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"tube {name} must be finite, got {value}")
        if not self.keep_in_radius > 0.0:
            raise ValueError(f"tube radius must exceed {KEEP_IN_MARGIN_MM} mm, got {self.radius}")
        for name, room in (("z_min", self.z_min + END_MARGIN_MM <= 0.0),
                           ("z_max", 0.0 <= self.z_max - END_MARGIN_MM)):
            if not room:     # as contains_camera tests the origin
                raise ValueError(f"tube {name} must lie {END_MARGIN_MM} mm or more beyond "
                                 f"the start at z = 0, got {getattr(self, name)}")

    @property
    def keep_in_radius(self) -> float:
        """Largest distance (mm) of the camera from the tube axis: ``KEEP_IN_MARGIN_MM``
        inside the landmark surface."""
        return self.radius - KEEP_IN_MARGIN_MM

    def contains_camera(self, position: np.ndarray) -> bool:
        """Whether a camera position (mm) lies within the keep-in radius of the axis and
        at least END_MARGIN_MM inside both ends of the tube."""
        lateral = math.hypot(position[0], position[1])
        return (lateral <= self.keep_in_radius
                and self.z_min + END_MARGIN_MM <= position[2] <= self.z_max - END_MARGIN_MM)


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
    of position in [0.12, 0.2], nearly featureless).  ValueError unless
    n_landmarks is an integer >= 500.
    """
    trj._check_index("n_landmarks", n_landmarks, least=500)
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
    """Ideal pinhole; its field of view is the circle of ``mask_radius`` about the image
    centre, wherever (cx, cy) lies.  ValueError for a size that is not an integer >= 1,
    and for a focal length, principal point or mask radius out of range."""

    focal: float                # pixels
    cx: float
    cy: float
    size: int                   # image is size x size
    mask_radius: float          # pixels

    def __post_init__(self):
        trj._check_index("size", self.size, least=1)
        if not 0.0 < self.focal < math.inf:     # false for nan
            raise ValueError(f"focal length must be positive and finite, got {self.focal}")
        if not (math.isfinite(self.cx) and math.isfinite(self.cy)):
            raise ValueError(f"principal point must be finite, got ({self.cx}, {self.cy})")
        if not 0.0 < self.mask_radius <= self.size / 2.0:     # false for nan
            raise ValueError("mask radius must lie in (0, size/2]")

    @staticmethod
    def default(size: int = 160) -> "Camera":
        """Camera of ``size`` x ``size`` pixels: focal length size / 2 pixels (a field of
        view of about 90 degrees), principal point at the image center, mask radius
        0.48 size pixels."""
        center = (size - 1) / 2.0
        return Camera(focal=size * 0.5, cx=center, cy=center,
                      size=size, mask_radius=0.48 * size)


@dataclass(frozen=True)
class Observation:
    """Masked grayscale frame; pixels outside the mask are exactly zero."""

    image: np.ndarray   # (H, W) float64 in [0, 1]
    mask: np.ndarray    # (H, W) bool

    def __post_init__(self):
        image = np.asarray(self.image, dtype=np.float64)
        mask = np.asarray(self.mask, dtype=bool)
        if image.shape != mask.shape or image.ndim != 2:
            raise ValueError(f"image and mask must be 2-D arrays of one shape, "
                             f"got {image.shape} and {mask.shape}")
        if image.size == 0:
            raise ValueError(f"image must not be empty, got shape {image.shape}")
        if image.min() < 0.0 or image.max() > 1.0:
            raise ValueError("image values must lie in [0, 1]")
        if np.any(image[~mask] != 0.0):
            raise ValueError("pixels outside the mask must be exactly 0")
        image.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "image", image)
        object.__setattr__(self, "mask", mask)


def _in_view(size: int, radius: float, x, y) -> np.ndarray:
    """The field of view: whether pixels (x, y) lie within ``radius`` of the image centre."""
    center = (size - 1) / 2.0
    return (x - center) ** 2 + (y - center) ** 2 <= radius ** 2


@functools.lru_cache
def circular_mask(size: int, radius: float) -> np.ndarray:
    """Pixels within ``radius`` of the image centre; cached per (size, radius), read-only."""
    yy, xx = np.mgrid[0:size, 0:size]
    mask = _in_view(size, radius, xx, yy)
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


def _visible(scene: Scene, camera: Camera, pose: Pose) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the landmarks in front and in the field of view, and every landmark's uv."""
    uv, _, in_front = project(camera, pose, scene.points)
    return in_front & _in_view(camera.size, camera.mask_radius, uv[:, 0], uv[:, 1]), uv


def render(scene: Scene, camera: Camera, pose: Pose) -> Observation:
    """Splat visible landmarks as BLOB_SIGMA_PX Gaussian blobs lit by the headlight.

    A visible landmark at distance d adds albedo * LIGHT_GAIN / d^2 at its blob centre.
    One ``np.bincount`` scatter sums every (pixel offset, landmark) term, offsets
    outermost and landmarks in order, into a padded canvas; the terms, built in place
    from 1-D x and y offsets, are bit-identical to a 2-D grid's.
    """
    visible, uv = _visible(scene, camera, pose)
    centers = uv[visible]
    distance2 = np.sum((scene.points[visible] - pose.translation) ** 2, axis=1)
    amps = scene.albedo[visible] * LIGHT_GAIN / distance2
    base = np.round(centers).astype(np.int64)
    frac = centers - base
    reach = int(math.ceil(3.0 * BLOB_SIGMA_PX))
    inv_two_sigma2 = 1.0 / (2.0 * BLOB_SIGMA_PX * BLOB_SIGMA_PX)
    off = np.arange(-reach, reach + 1)[:, None]
    terms = ((off - frac[:, 0]) ** 2)[None, :, :] + ((off - frac[:, 1]) ** 2)[:, None, :]
    terms *= -inv_two_sigma2     # (-x) * c and x * (-c) round alike
    np.exp(terms, out=terms)
    terms *= amps
    # A visible centre lies within mask_radius <= size / 2 of the image centre, so in
    # [-0.5, size - 0.5] up to rounding, and rounds into [-1, size]: pad by reach + 1.
    pad = reach + 1
    width = camera.size + 2 * pad
    cell = base + pad
    index = ((cell[:, 1] + off) * width)[:, None, :] + (cell[:, 0] + off)[None, :, :]
    canvas = np.bincount(index.ravel(), terms.ravel(), width * width)
    image = np.clip(canvas.reshape(width, width)[pad:-pad, pad:-pad], 0.0, 1.0)
    mask = circular_mask(camera.size, camera.mask_radius)
    image[~mask] = 0.0
    return Observation(image, mask)


def landmark_projections(scene: Scene, camera: Camera, pose: Pose,
                         min_albedo: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Indices and pixel positions of detectable landmarks in this view.

    A landmark is detectable when :func:`render` shows it (see the module docstring)
    and has albedo >= min_albedo (dim points do not count as trackable features).
    """
    visible, uv = _visible(scene, camera, pose)
    ok = visible & (scene.albedo >= min_albedo)
    return np.flatnonzero(ok), uv.compress(ok, axis=0)     # faster than uv[ok]


def correspondences(scene: Scene, camera: Camera, pose_a: Pose, pose_b: Pose,
                    min_albedo: float = 0.0, noise_px: float = 0.0,
                    rng: np.random.Generator | None = None
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Landmark ids and matched pixel coordinates detectable in both views."""
    return _match_views(*landmark_projections(scene, camera, pose_a, min_albedo),
                        *landmark_projections(scene, camera, pose_b, min_albedo), noise_px, rng)


def _shared_ids(ids_a: np.ndarray, ids_b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ids in both sorted, unique, non-negative id arrays and their positions in each,
    as ``np.intersect1d(ids_a, ids_b, assume_unique=True, return_indices=True)``
    gives them, found with one boolean membership lookup per side."""
    size = max(ids_a[-1] if len(ids_a) else -1, ids_b[-1] if len(ids_b) else -1) + 1
    in_a, in_b = np.zeros(size, bool), np.zeros(size, bool)
    in_a[ids_a] = True
    in_b[ids_b] = True
    ia = np.flatnonzero(in_b[ids_a])
    return ids_a[ia], ia, np.flatnonzero(in_a[ids_b])


def _match_views(ids_a, uv_a, ids_b, uv_b, noise_px: float, rng: np.random.Generator | None):
    """Match two :func:`landmark_projections` views; noise is drawn after, for a then b."""
    if not 0.0 <= noise_px < math.inf:      # false for nan
        raise ValueError(f"noise_px must be finite and >= 0, got {noise_px}")
    common, ia, ib = _shared_ids(ids_a, ids_b)
    pts_a, pts_b = uv_a.take(ia, axis=0), uv_b.take(ib, axis=0)     # faster than uv_a[ia]
    if noise_px > 0.0:
        if rng is None:
            raise ValueError("noise_px > 0 requires an rng")
        pts_a = pts_a + rng.normal(0.0, noise_px, pts_a.shape)
        pts_b = pts_b + rng.normal(0.0, noise_px, pts_b.shape)
    return common, pts_a, pts_b


# ---------------------------------------------------------------------------
# Camera motion

PROFILE_KINDS = {"smooth-advance": SMOOTHING, "jitter": 0.0}    # kind -> AR(1) momentum


@dataclass(frozen=True)
class MotionProfile:
    """Per-step motion statistics of :func:`generate_trajectory`'s one AR(1) model.

    The kind sets the model's momentum (``PROFILE_KINDS``): SMOOTHING for
    smooth-advance, whose successive steps correlate, and 0 for jitter, whose
    steps are independent draws.  trans_std / rot_std are per-step standard
    deviations (mm / rad).  forward_speed adds a deterministic drift (mm per
    step) along the camera's +z.
    """

    kind: str = "smooth-advance"
    trans_std: float = 0.4
    rot_std: float = 0.01
    forward_speed: float = 0.0
    # smooth-advance's momentum, whatever the kind.  Not settable; shown so that a
    # profile's repr, which the benchmark's stored reference outputs are keyed on,
    # stays the same.
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

    One AR(1) step per frame for every kind, with the profile's momentum alpha
    and beta = sqrt(1 - alpha^2): velocity = alpha velocity + beta draw and
    omega = alpha omega + beta draw, from 3 translation then 3 rotation normals
    (std trans_std, rot_std) per attempt after one stationary draw of each.
    The camera moves by velocity + forward_speed along its +z, then turns by
    exp(omega).  Steps that would leave the tube's keep-in region are drawn
    again (up to MAX_RESAMPLES times, then RuntimeError is raised).
    ValueError unless n_frames is an integer >= 2.
    """
    trj._check_index("n_frames", n_frames, least=2)
    rng = np.random.default_rng(seed)
    trans_std, rot_std, speed = profile.trans_std, profile.rot_std, profile.forward_speed
    alpha = PROFILE_KINDS[profile.kind]
    beta = math.sqrt(1.0 - alpha * alpha)
    # Python floats, one component at a time: numpy's roundings without its per-call cost.
    vx, vy, vz = rng.normal(0.0, trans_std, 3).tolist()     # velocity: stationary AR(1) init
    wx, wy, wz = rng.normal(0.0, rot_std, 3).tolist()       # omega, the turn
    position, rotation = (0.0, 0.0, 0.0), np.eye(3)
    rotations, positions = [rotation], list(position)   # flat: no object per frame to collect
    for step in range(1, n_frames):
        x, y, z = position
        hx, hy, hz = rotation[:, 2].tolist()                # heading, the camera's +z
        for attempt in range(MAX_RESAMPLES + 1):
            dx, dy, dz = rng.normal(0.0, trans_std, 3).tolist()
            ex, ey, ez = rng.normal(0.0, rot_std, 3).tolist()
            ux, uy, uz = alpha * vx + beta * dx, alpha * vy + beta * dy, alpha * vz + beta * dz
            position = x + (ux + speed * hx), y + (uy + speed * hy), z + (uz + speed * hz)
            if tube.contains_camera(position):
                break
            if attempt == MAX_RESAMPLES:
                raise RuntimeError(
                    f"motion profile left the tube at step {step} after "
                    f"{MAX_RESAMPLES} resamples")
        vx, vy, vz = ux, uy, uz
        # Only the accepted attempt's turn is needed: no step's position
        # depends on its own turn.
        wx, wy, wz = alpha * wx + beta * ex, alpha * wy + beta * ey, alpha * wz + beta * ez
        rotation = se3._renormalize(rotation @ se3.so3_exp((wx, wy, wz)))
        rotations.append(rotation)
        positions += position
    return Trajectory._trusted(np.arange(n_frames), rotations, np.reshape(positions, (-1, 3)))


# ---------------------------------------------------------------------------
# Window samples

@dataclass(frozen=True)
class WindowSample:
    """One window: endpoint observations, anchored state, and action chunk, each
    array read-only as :func:`window_samples` builds them."""

    sequence: str
    t: int
    obs_t: Observation
    obs_tk: Observation
    state: np.ndarray          # log of the anchored pose at frame t
    actions: ActionSequence


def window_samples(sequence: str, traj: Trajectory,
                   observations: dict[int, Observation], k: int) -> list[WindowSample]:
    """All length-k windows of one anchored sequence, ordered by start frame.

    A window is emitted when its frames t..t+k all have a pose and an
    observation; only emitted windows are cut, so only their non-finite steps raise.
    """
    if not traj.anchored:
        raise ValueError("trajectory must be anchored")
    k = trj._check_index("horizon k", k, least=1)
    starts = [t for t in traj.window_starts(k)
              if all(i in observations for i in range(t, t + k + 1))]
    rows = traj.rows(starts)
    states = se3.log_rt(traj.rotations[rows], traj.translations[rows])
    states.setflags(write=False)
    return [WindowSample(sequence, t, observations[t], observations[t + k], state,
                         trj.extract_actions(traj, t, k))
            for t, state in zip(starts, states)]


# ---------------------------------------------------------------------------
# Disk format: 8-bit PGM images + masks, CSV manifest, trajectory CSV

def write_pgm(path, image01: np.ndarray) -> None:
    """8-bit binary portable graymap of a 2-D image with values in [0, 1]; for any
    other shape or value, raises ValueError naming the file and writes nothing."""
    image01 = np.asarray(image01)
    if image01.ndim != 2:
        raise ValueError(f"{path}: a PGM image must be 2-D, got shape {image01.shape}")
    if not ((image01 >= 0.0) & (image01 <= 1.0)).all():    # false for nan
        raise ValueError(f"{path}: PGM values must be finite and lie in [0, 1]")
    data = np.round(image01 * 255.0).astype(np.uint8)
    h, w = data.shape
    _rewrite(path, f"P5\n{w} {h}\n255\n".encode("ascii") + data.tobytes())


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
    """Write an observation as two 8-bit PGM files: the image, and the mask as 0 or 1."""
    write_pgm(image_path, obs.image)
    write_pgm(mask_path, obs.mask.astype(np.float64))


def read_observation(image_path, mask_path) -> Observation:
    """Read an observation back from its two PGM files; mask pixels above 0.5 are
    inside.  Raises ValueError for an unsupported or truncated file, and, naming the
    image file, for an image and mask of different shapes and for an image pixel
    outside the mask that is not 0."""
    image = read_pgm(image_path)
    mask = read_pgm(mask_path) > 0.5
    try:
        return Observation(image, mask)
    except ValueError as exc:
        raise ValueError(f"{image_path}: {exc}") from None


@dataclass
class SequenceData:
    """One sequence of a dataset: its name (a directory name), its anchored trajectory
    and its observation of each frame, by frame."""

    name: str
    trajectory: Trajectory
    observations: dict[int, Observation]


def write_dataset(root, sequences: list[SequenceData]) -> None:
    """Write under ``root`` a ``manifest.csv`` of (sequence, frame) rows and a directory
    per sequence with its ``traj.csv`` and the frames' PGM images and masks, at paths
    derived from the row.  Raises ValueError naming the sequence, and writes nothing,
    for a name that ``tables.check_name`` refuses or that two sequences share, for a
    trajectory that does not start at the identity, and, naming the frame too, for an
    observation of a frame without a pose; :func:`load_dataset` refuses them too."""
    names = [seq.name for seq in sequences]
    for seq in sequences:
        where = f"sequence {seq.name!r}"
        check_name(seq.name)
        if names.count(seq.name) > 1:
            raise ValueError(f"{where}: {names.count(seq.name)} sequences have this name")
        _check_posed(_anchored(seq.trajectory, where), dict.fromkeys(seq.observations, where))
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    manifest = []
    for seq in sequences:
        seq_dir = root / seq.name
        seq_dir.mkdir(exist_ok=True)
        trj.write_trajectory_file(seq_dir / "traj.csv", seq.trajectory)
        for frame, obs in sorted(seq.observations.items()):
            write_observation(*(root / f for f in _frame_files(seq.name, frame)), obs)
            manifest.append((seq.name, frame))
    write_table(root / "manifest.csv", MANIFEST_HEADER, MANIFEST_ROW, manifest)


def load_dataset(root) -> list[SequenceData]:
    """Load a dataset written by :func:`write_dataset`, refusing what it refuses: a
    manifest row with a name or frame that breaks its rule, that repeats an earlier row
    or whose frame has no pose raises ValueError naming the file and line, and a bad or
    unanchored trajectory file, or an image with a non-zero pixel outside its mask,
    raises one naming that file.  Each trajectory is the one written, frames without a
    pose included."""
    root = Path(root)
    manifest = root / "manifest.csv"
    places: dict[str, dict[int, str]] = {}      # sequence -> frame -> where its row is
    for line, (name, frame) in enumerate(read_rows(manifest, MANIFEST_HEADER, _manifest_row), 2):
        where = f"{manifest}, line {line}: sequence {name!r}"
        if frame in places.setdefault(name, {}):
            raise ValueError(f"{where}: frame {frame} repeats an earlier row")
        places[name][frame] = where
    sequences = []
    for name, frames in places.items():
        path = root / name / "traj.csv"
        traj = _anchored(trj.read_trajectory_file(path), path)
        _check_posed(traj, frames)
        observations = {frame: read_observation(*(root / f for f in _frame_files(name, frame)))
                        for frame in frames}
        sequences.append(SequenceData(name, traj, observations))
    return sequences


def _check_posed(traj: Trajectory, places: dict) -> None:
    """ValueError naming the first frame of ``places`` without a pose, after its place."""
    frames = list(places)
    posed = traj._find(frames)[1]
    if not posed.all():
        frame = frames[posed.argmin()]
        raise ValueError(f"{places[frame]}: frame {frame!r} has an observation but no pose")


def _frame_files(name: str, frame: int) -> tuple[str, str]:
    """Image and mask paths of a frame of a sequence, relative to the dataset root."""
    stem = f"{name}/frame_{frame:06d}"
    return f"{stem}.pgm", f"{stem}.mask.pgm"


def _manifest_row(name: str, frame: str) -> tuple[str, int]:
    """(name, frame) of a manifest row, by the name rule and :func:`parse_int`."""
    check_name(name)
    return name, parse_int("frame", frame)


def _anchored(traj: Trajectory, where) -> Trajectory:
    """``traj`` itself, frames without a pose kept; ValueError names ``where`` when the
    first pose is not the identity."""
    if not traj.anchored:
        raise ValueError(f"{where}: anchored trajectory must start at identity")
    return traj
