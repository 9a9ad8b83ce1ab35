"""Windowed relative pose error, Sim(3) alignment, and geometric baselines.

Per-window errors compare a predicted relative motion over w steps against
the ground-truth relative transform between the same frames: translation
error is the Euclidean distance between the relative translations (mm),
rotation error the geodesic angle between the relative rotations (degrees).

Scale-ambiguous estimates (the eight-point visual-odometry baseline) are
aligned to ground truth with a least-squares similarity transform before
windowed errors are computed; metric methods need no alignment.

Ground truth and estimates are :class:`~policyvo.trajectory.Trajectory` pose
stacks (an estimate masks the frames it has no pose for), and the windows of a
sequence are one :class:`PredictedWindows` batch, and their errors one
:class:`RPERecords` batch of columns.  Records files are :mod:`policyvo.tables` CSV
with the header ``sequence,t,w,trans_err_mm,rot_err_deg``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import se3
from .se3 import Pose, _check_index
from .tables import check_name, parse_int, read_rows, write_table
from .trajectory import Trajectory, _frame_keys, as_trajectory
from .world import Camera, Scene, _match_views, _shared_ids, landmark_projections

RECORDS_HEADER = "sequence,t,w,trans_err_mm,rot_err_deg"
RECORDS_ROW = "%s,%d,%d,%.17g,%.17g"
MIN_CHEIRALITY = 0.75   # share of matches that must triangulate in front of both views
MIN_SHARED = 3          # landmarks two VO steps must share to carry the scale across


class BaselineFailure(RuntimeError):
    """A geometric baseline could not produce a pose for this input."""


@dataclass(frozen=True)
class PredictedWindow:
    """Predicted relative motion from frame t to frame t+w of a sequence."""

    sequence: str
    t: int
    w: int
    delta: Pose


@dataclass(frozen=True, eq=False)
class PredictedWindows:
    """Predicted motions from frames ``starts`` to ``starts + w`` of a sequence, one row
    per window of read-only ``starts`` (M,), ``rotations`` (M, 3, 3) and ``translations``
    (M, 3); ``windows[j]`` is window j as a :class:`PredictedWindow` on a ``Pose`` view.
    The constructor checks w (an integer >= 0), copies the starts by the frame rule of
    :class:`~policyvo.trajectory.Trajectory` (all integers within int64, not bools) and
    checks the stacks in full; :func:`rpe` checks the name.  This module's window builders
    derive them from checked trajectories and use :meth:`_trusted` (see ``se3._frozen``)."""

    sequence: str
    w: int
    starts: np.ndarray
    rotations: np.ndarray
    translations: np.ndarray

    def __post_init__(self):
        _check_index("window length", self.w, least=0)
        starts = _frame_keys(self.starts)
        rotations, translations = se3._validated(self.rotations, self.translations)
        if rotations.shape[:-2] != starts.shape:
            raise ValueError(f"window starts {starts.shape} but pose stacks {rotations.shape}")
        self.__dict__.update(starts=starts, rotations=rotations, translations=translations)

    @classmethod
    def _trusted(cls, sequence: str, w: int, starts, rotations,
                 translations) -> "PredictedWindows":
        """Windows on stacks derived from checked ones; only translations are tested."""
        starts = np.asarray(starts, dtype=np.int64)
        starts.setflags(write=False)
        rotations, translations = se3._frozen(rotations, translations)
        windows = object.__new__(cls)
        windows.__dict__.update(sequence=sequence, w=w, starts=starts, rotations=rotations,
                                translations=translations)
        return windows

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, j) -> PredictedWindow:
        return PredictedWindow(self.sequence, int(self.starts[j]), self.w,
                               se3.pose_view(self.rotations[j], self.translations[j]))


@dataclass(frozen=True, slots=True)
class RPERecord:
    """Error of one window t..t+w of a sequence: translation error (mm) and rotation
    error (degrees).  ValueError for a field a records file would not read back as is:
    a name ``tables.check_name`` refuses, a t or w >= 0 that is not an integer within
    int64 (bools are not), or an error that is negative or not finite."""

    sequence: str
    t: int
    w: int
    trans_err: float   # mm
    rot_err: float     # degrees

    def __post_init__(self):
        _check_row("errors", self.sequence, self.t, self.w, self.trans_err, self.rot_err)


def _check_row(values: str, sequence, t, w, first, second) -> None:
    """ValueError naming a field of a record or score (``values``) its table cannot hold."""
    check_name(sequence)
    _check_index("window start t", t)
    _check_index("window length", w, least=0)
    if not (0.0 <= first < math.inf and 0.0 <= second < math.inf):    # nan fails
        raise ValueError(f"{values} must be finite and >= 0: {first}, {second}")


@dataclass(frozen=True, eq=False)
class RPERecords:
    """Errors of windows ``starts``..``starts + w`` of a sequence as the read-only columns
    ``starts`` (M,) int64, ``trans_err`` (M,) mm and ``rot_err`` (M,) degrees that
    :func:`rpe` checked.  ``records[j]`` (a Python or numpy integer) and each step of an
    iteration build one :class:`RPERecord` row; a slice is a batch."""

    sequence: str
    w: int
    starts: np.ndarray
    trans_err: np.ndarray
    rot_err: np.ndarray

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return RPERecords(self.sequence, self.w, self.starts[j], self.trans_err[j],
                              self.rot_err[j])
        return RPERecord(self.sequence, int(self.starts[j]), self.w,
                         float(self.trans_err[j]), float(self.rot_err[j]))

    def __iter__(self):
        return map(RPERecord, itertools.repeat(self.sequence), self.starts.tolist(),
                   itertools.repeat(self.w), self.trans_err.tolist(), self.rot_err.tolist())


@dataclass(frozen=True)
class RPESummary:
    """Mean and population standard deviation (ddof 0) of the translation errors (mm)
    and rotation errors (degrees) of ``count`` windows."""

    trans_mean: float
    trans_std: float
    rot_mean: float
    rot_std: float
    count: int


@dataclass(frozen=True)
class CoverageReport:
    """Of ``total`` frames of an estimate, the ``valid`` ones that have a pose."""

    total: int
    valid: int

    @property
    def percent(self) -> float:
        """Share of frames with a pose, in percent; ZeroDivisionError for no frames."""
        return 100.0 * self.valid / self.total


def summarize(records) -> RPESummary:
    """Mean and population std of the errors of an :class:`RPERecords` batch's columns,
    or of a list of records."""
    if not records:
        raise ValueError("empty evaluation")
    if isinstance(records, RPERecords):
        return _summary(records.trans_err, records.rot_err)
    return _summary(np.array([r.trans_err for r in records]),
                    np.array([r.rot_err for r in records]))


def _summary(trans: np.ndarray, rot: np.ndarray) -> RPESummary:
    return RPESummary(float(trans.mean()), float(trans.std()),
                      float(rot.mean()), float(rot.std()), len(trans))


def rpe(windows: PredictedWindows, gt_trajs: dict[str, Trajectory],
        w: int) -> tuple[RPERecords, RPESummary]:
    """Per-window relative pose error of a batch of windows of length w against ground
    truth, as one :class:`RPERecords` batch of error columns, and their summary;
    ValueError for a w or a sequence name that a records file could not hold."""
    w = _check_index("window length", w, least=0)
    if len(windows) == 0:
        raise ValueError("empty evaluation")
    if windows.w != w:
        raise ValueError(f"windows span w={windows.w}, not w={w}")
    check_name(windows.sequence)
    if windows.sequence not in gt_trajs:
        raise ValueError(f"no ground truth for sequence {windows.sequence!r}")
    gt = gt_trajs[windows.sequence]
    missing = f"sequence {windows.sequence!r}: ground truth has no pose at window"
    first = _gt_rows(gt, windows.starts, f"{missing} start")
    last = _gt_rows(gt, windows.starts, f"{missing} end", w)
    gt_rot, gt_trans = se3.relative_rt(gt.rotations[first], gt.translations[first],
                                       gt.rotations[last], gt.translations[last])
    trans_err = np.linalg.norm(windows.translations - gt_trans, axis=-1)
    rot_err = np.degrees(se3.geodesic_angle(windows.rotations, gt_rot))
    # Fields are checked once: the name and w above, int64 starts, the errors as arrays.
    ok = (trans_err >= 0.0) & (trans_err < math.inf) & (rot_err >= 0.0) & (rot_err < math.inf)
    if not ok.all():    # nan fails
        bad = ok.argmin()
        raise ValueError(f"errors must be finite and >= 0: {trans_err[bad]}, {rot_err[bad]}")
    trans_err.setflags(write=False)
    rot_err.setflags(write=False)
    records = RPERecords(windows.sequence, w, windows.starts, trans_err, rot_err)
    return records, _summary(trans_err, rot_err)


def _gt_rows(gt: Trajectory, starts: np.ndarray, missing: str, w: int = 0) -> np.ndarray:
    """Stack rows of frames ``starts + w``; the first without a pose raises ValueError
    ``missing`` + it."""
    rows, found = gt._find(starts, w)
    if not found.all():
        raise ValueError(f"{missing} frame {int(starts[found.argmin()]) + w}")
    return rows


def _umeyama(preds: list, gts: list):
    """Least-squares similarities mapping each (n >= 3, 3) point set of ``preds`` onto
    its partner in ``gts``: scale (R,), rotation (R, 3, 3), translation (R, 3) and a
    mask ``ok`` of the sets that align: not degenerate (collinear, or moments that
    overflow), with scale > 0 and a rotation orthonormal within 1e-8.  Cross-covariance
    SVD with reflection-sign correction: moments per set, then one batched SVD."""
    mu_pred, mu_gt = np.empty((len(preds), 3)), np.empty((len(preds), 3))
    cov, var_pred = np.empty((len(preds), 3, 3)), np.empty(len(preds))
    with np.errstate(over="ignore", invalid="ignore"):  # huge sets overflow; dropped below
        for i, (pred, gt) in enumerate(zip(preds, gts)):
            n = len(pred)
            mu_pred[i], mu_gt[i] = pred.mean(axis=0), gt.mean(axis=0)
            pred_c = pred - mu_pred[i]
            cov[i] = (gt - mu_gt[i]).T @ pred_c / n
            var_pred[i] = float((pred_c ** 2).sum()) / n
    finite = np.isfinite(cov).all(axis=(1, 2))
    cov[~finite] = 0.0          # such a set fails here, not the whole batched SVD
    u, d, vt = np.linalg.svd(cov)
    degenerate = ~finite | (d[:, 1] < 1e-9 * np.maximum(d[:, 0], 1e-300))
    sign = np.where(np.linalg.det(u) * np.linalg.det(vt) < 0.0, -1.0, 1.0)
    u[:, :, 2] *= sign[:, None]     # u @ diag(1, 1, sign), exactly
    d[:, 2] *= sign
    scale = np.divide(d.sum(axis=1), var_pred, out=np.zeros(len(d)), where=~degenerate)
    rotation = u @ vt
    translation = mu_gt - ((scale[:, None, None] * rotation) @ mu_pred[:, :, None])[:, :, 0]
    ok = ~degenerate & (scale > 0.0) & (se3.orthonormality_drift(rotation) <= 1e-8)
    return scale, rotation, translation, ok


def coverage(estimate) -> CoverageReport:
    """Fraction of the frames of an estimate (Trajectory or rows) that have a pose."""
    estimate = as_trajectory(estimate)
    if len(estimate) == 0:
        raise ValueError("zero frames")
    return CoverageReport(total=len(estimate), valid=int(np.count_nonzero(estimate.valid)))


# ---------------------------------------------------------------------------
# Floor baselines

def zero_motion_windows(gt_traj: Trajectory, sequence: str, w: int) -> PredictedWindows:
    """Predicts the identity relative motion for every full window."""
    starts = gt_traj.window_starts(w)
    return PredictedWindows._trusted(sequence, w, starts,
                                     np.broadcast_to(np.eye(3), (len(starts), 3, 3)),
                                     np.zeros((len(starts), 3)))


def constant_velocity_windows(gt_traj: Trajectory, sequence: str, w: int) -> PredictedWindows:
    """Repeats the last observed ground-truth per-step delta w times; a window
    whose frame t-1 has no pose (the first, and the first after each gap) has
    no history and falls back to zero motion, as does every window at w = 0."""
    starts = np.array(gt_traj.window_starts(w), dtype=np.int64)
    before, moving = gt_traj._find(starts, -1)
    rotations = np.tile(np.eye(3), (len(starts), 1, 1))
    translations = np.zeros((len(starts), 3))
    if w > 0:
        rows = before[moving]       # the row of t - 1; t has the next one
        rot, trans = gt_traj.rotations, gt_traj.translations
        step = se3.relative_rt(rot[rows], trans[rows], rot[rows + 1], trans[rows + 1])
        delta = step        # the identity composed with the step is the step, exactly
        for _ in range(w - 1):
            delta = se3.compose_rt(*delta, *step)
        rotations[moving], translations[moving] = delta
    return PredictedWindows._trusted(sequence, w, starts, rotations, translations)


# ---------------------------------------------------------------------------
# Eight-point essential-matrix baseline

def _normalized_rays(points_px: np.ndarray, camera: Camera) -> np.ndarray:
    """Pixel coordinates to homogeneous normalized camera rays (z = 1)."""
    x = (points_px[:, 0] - camera.cx) / camera.focal
    y = (points_px[:, 1] - camera.cy) / camera.focal
    return np.stack([x, y, np.ones_like(x)], axis=1)


def _hartley_normalize(rays: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Center and scale the xy part to RMS sqrt(2); returns (rays', T)."""
    xy = rays[:, :2]
    centroid = xy.mean(axis=0)
    d2 = (xy - centroid) ** 2
    rms = math.sqrt((d2[:, 0] + d2[:, 1]).mean())     # numpy's own row-sum order
    scale = math.sqrt(2.0) / max(rms, 1e-12)
    transform = np.array([[scale, 0.0, -scale * centroid[0]],
                          [0.0, scale, -scale * centroid[1]],
                          [0.0, 0.0, 1.0]])
    return rays @ transform.T, transform


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise x.y of (n, 3) arrays, added left to right like ``(x * y).sum(axis=1)``."""
    return x[:, 0] * y[:, 0] + x[:, 1] * y[:, 1] + x[:, 2] * y[:, 2]


def _triangulate_depths(rotation_ba, t_ba: np.ndarray, rays_a: np.ndarray, rays_b: np.ndarray):
    """Two-view linear depths: minimize ||u*da - v*db + t|| per match (u = R_ba a, v = b).

    Returns the (2, n) depths (depth_a, depth_b) for t_ba, and the zero-parallax
    mask, where both are -1; the other depths for -t_ba are exactly negated (so
    are u.t and v.t).  Rays have z = 1, so these are z-depths in each camera.
    """
    u = rays_a @ rotation_ba.T
    uu, vv, uv = _row_dots(u, u), _row_dots(rays_b, rays_b), _row_dots(u, rays_b)
    ut, vt = u @ t_ba, rays_b @ t_ba
    det = uu * vv - uv * uv
    flat = ~(det > 1e-12 * uu * vv)     # zero parallax
    det[flat] = 1.0
    depths = np.stack([-ut * vv + uv * vt, uv * -ut + uu * vt]) / det
    depths[:, flat] = -1.0
    return depths, flat


def _eight_point(pts_a, pts_b, camera: Camera):
    """:func:`eight_point_relative_pose` as arrays: (rotation, translation, depth_a, depth_b)."""
    pts_a = np.asarray(pts_a, dtype=np.float64)
    pts_b = np.asarray(pts_b, dtype=np.float64)
    if pts_a.shape[1:] != (2,) or pts_b.shape[1:] != (2,):
        raise ValueError(f"pixel arrays must be (n, 2), got {pts_a.shape} and {pts_b.shape}")
    n = len(pts_a)
    if n < 8 or len(pts_b) != n:
        raise BaselineFailure(f"fewer than 8 correspondences ({n})")
    if not (np.isfinite(pts_a).all() and np.isfinite(pts_b).all()):
        raise ValueError("correspondences have non-finite pixel coordinates")

    rays_a = _normalized_rays(pts_a, camera)
    rays_b = _normalized_rays(pts_b, camera)
    norm_a, t_a = _hartley_normalize(rays_a)
    norm_b, t_b = _hartley_normalize(rays_b)

    # Constraint rows: ray_b' E ray_a = 0, E flattened row-major.
    a_mat = np.einsum("ni,nj->nij", norm_b, norm_a).reshape(n, 9)
    # From 9 rows on, the reduced vt is the full 9x9 one; 8 rows lack the null vector.
    _, sva, vt = np.linalg.svd(a_mat, full_matrices=n < 9)
    # A rank deficit beyond the one-dimensional solution space means the
    # essential matrix is not unique (pure rotation leaves t free).
    if sva[7] < 1e-9 * sva[0]:
        raise BaselineFailure("degenerate configuration: essential matrix not unique")
    e_norm = vt[-1].reshape(3, 3)
    e_mat = t_b.T @ e_norm @ t_a

    u, _, vt_e = np.linalg.svd(e_mat)
    if np.linalg.det(u) < 0.0:
        u = -u
    if np.linalg.det(vt_e) < 0.0:
        vt_e = -vt_e
    w_mat = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    # Candidates (R1, +t), (R1, -t), (R2, +t), (R2, -t); the first maximum wins.
    best = (-1,)
    for rotation_ba in (u @ w_mat @ vt_e, u @ w_mat.T @ vt_e):
        depths, flat = _triangulate_depths(rotation_ba, u[:, 2], rays_a, rays_b)
        ahead = (depths > 0.0).all(0), (depths < 0.0).all(0) & ~flat
        for sign, front in zip((1.0, -1.0), map(np.count_nonzero, ahead)):
            if front > best[0]:
                best = front, sign, rotation_ba, depths, flat
    front, sign, rotation_ba, depths, flat = best
    if front < MIN_CHEIRALITY * n:
        raise BaselineFailure(f"cheirality ambiguity ({front}/{n} points in front)")
    if sign < 0.0:      # -t flips every depth but the flat matches' -1
        depths = np.where(flat, -1.0, -depths)
    # (R_ba, t_ba) maps frame-a coords to frame-b; the relative pose of
    # camera b in camera a's frame is the inverse.
    return rotation_ba.T, -(rotation_ba.T @ (sign * u[:, 2])), depths[0], depths[1]


def eight_point_relative_pose(pts_a: np.ndarray, pts_b: np.ndarray,
                              camera: Camera) -> tuple[Pose, np.ndarray, np.ndarray]:
    """Relative camera motion from >= 8 pixel correspondences.

    Normalized eight-point estimate of the essential matrix, projected to
    the essential manifold and decomposed with cheirality disambiguation.
    Returns (delta pose with unit-norm translation, depths in frame a,
    depths in frame b); the translation scale is unresolved by construction.

    Raises BaselineFailure on fewer than 8 correspondences, a degenerate
    configuration (e.g. pure rotation, where the constraint matrix loses
    rank), or an ambiguous cheirality vote; raises ValueError on arrays
    that are not (n, 2) or on a non-finite pixel coordinate.
    """
    rotation, translation, depth_a, depth_b = _eight_point(pts_a, pts_b, camera)
    return Pose(rotation, translation), depth_a, depth_b


def eight_point_vo(scene: Scene, camera: Camera, gt_traj: Trajectory,
                   min_albedo: float = 0.25, noise_px: float = 0.0,
                   seed: int = 0) -> Trajectory:
    """Chain frame-to-frame eight-point estimates into a trajectory.

    Correspondences come from the scene's known landmark projections
    (bright enough to count as detectable features), optionally perturbed
    by Gaussian pixel noise.  The translation scale of each step is fixed
    relative to the previous step by the depth ratios of shared landmarks,
    so each contiguous segment is consistent up to one global scale.

    A step fails on a BaselineFailure of its solve or of its scale link (one
    ``except`` for both), which leaves the next frame without a pose and
    restarts the chain in a fresh segment at the following pair.  Returns the
    estimate over the ground truth's posed frames; frames in no successful
    step have no pose.  Each frame is projected once, for both its pairs; the
    rows equal those of :func:`~policyvo.world.correspondences` on every pair.  ValueError,
    before any draw, unless seed is an integer >= 0.
    """
    rng = np.random.default_rng(_check_index("seed", seed, least=0))
    indices = gt_traj._posed.tolist()
    views = (landmark_projections(scene, camera, pose, min_albedo) for pose in gt_traj.poses)
    chain = {}      # frame -> (rotation, translation) of the rows that get a pose
    prev = None     # landmark ids and frame-b depths of the last chained step
    for (a, b), (view_a, view_b) in zip(itertools.pairwise(indices), itertools.pairwise(views)):
        ids, pts_a, pts_b = _match_views(*view_a, *view_b, noise_px, rng)
        try:
            rotation, translation, depth_a, depth_b = _eight_point(pts_a, pts_b, camera)
            if prev is None:    # new segment anchored at frame a
                chain[a], scale = (np.eye(3), np.zeros(3)), 1.0
            else:
                scale = scale * _shared_depth_ratio(*prev, ids, depth_a)
        except BaselineFailure:
            prev = None
            continue
        chain[b] = se3.compose_rt(*chain[a], rotation, scale * translation)
        prev = ids, depth_b
    # Frames enter the chain in increasing order, so its values are in frame order.
    return Trajectory._trusted(indices, np.reshape([r for r, _ in chain.values()], (-1, 3, 3)),
                               np.reshape([t for _, t in chain.values()], (-1, 3)),
                               [i in chain for i in indices])


def _shared_depth_ratio(prev_ids: np.ndarray, prev_depth_b: np.ndarray,
                        ids: np.ndarray, depth_a: np.ndarray) -> float:
    """Baseline-scale ratio: the median of the last step's frame-b depths over this
    step's frame-a depths of the landmarks both steps triangulated in front.  Raises
    BaselineFailure for fewer than MIN_SHARED shared landmarks, or shared ones with a
    positive depth in both steps, and for a ratio that is not > 0."""
    common, ip, ic = _shared_ids(prev_ids, ids)
    if len(common) < MIN_SHARED:
        raise BaselineFailure(f"fewer than {MIN_SHARED} shared landmarks ({len(common)})")
    prev_depth, cur_depth = prev_depth_b[ip], depth_a[ic]     # in the shared middle frame
    ok = (prev_depth > 0.0) & (cur_depth > 0.0)
    if np.count_nonzero(ok) < MIN_SHARED:
        raise BaselineFailure(f"fewer than {MIN_SHARED} positive shared depths ({ok.sum()})")
    ratio = float(np.median(prev_depth[ok] / cur_depth[ok]))
    if not ratio > 0.0:
        raise BaselineFailure(f"scale ratio {ratio} is not > 0")
    return ratio


def align_rows_to_gt(estimate, gt_traj: Trajectory) -> Trajectory:
    """Per-segment Sim(3) alignment of an estimate (Trajectory or rows) to ground truth:
    each run of consecutive frames with a pose is aligned on its own (a chained
    estimate restarts in a fresh frame after a failure), and runs too short (under 3
    poses) or that :func:`_umeyama` does not mark ``ok`` lose their poses.  All runs
    share one batched SVD, whose floats are those of a solve per run.  A posed estimate
    frame that ground truth has no pose for raises ValueError naming it."""
    estimate = as_trajectory(estimate)
    posed = np.flatnonzero(estimate.valid)      # frame positions of the stack rows
    gt_points = gt_traj.translations[_gt_rows(gt_traj, estimate._posed,
                                              "ground truth has no pose at estimate")]
    cuts = (np.flatnonzero(np.diff(posed) > 1) + 1).tolist()
    runs = [slice(a, b) for a, b in zip([0, *cuts], [*cuts, len(posed)]) if b - a >= 3]
    translations = estimate.translations.copy()
    scale, rotation, translation, ok = _umeyama(
        [translations[run] for run in runs], [gt_points[run] for run in runs])
    sim_of_row = np.full(len(posed), -1)
    for j in np.flatnonzero(ok).tolist():
        run = runs[j]
        translations[run] = scale[j] * (translations[run] @ rotation[j].T) + translation[j]
        sim_of_row[run] = j
    aligned = sim_of_row >= 0
    valid = estimate.valid.copy()
    valid[posed[~aligned]] = False
    return Trajectory._trusted(estimate.frame_array,
                               rotation[sim_of_row[aligned]] @ estimate.rotations[aligned],
                               translations[aligned], valid)


def windows_from_rows(estimate, sequence: str, w: int) -> PredictedWindows:
    """Relative-motion windows over an estimate (Trajectory or rows) whose endpoints both
    carry a pose; a length within int64 but past the frame span gives no window."""
    w = _check_index("window length", w, least=0)
    estimate = as_trajectory(estimate)
    ends, first = estimate._find(estimate._posed, w)    # first: a mask of window starts
    rot, trans = estimate.rotations, estimate.translations
    return PredictedWindows._trusted(sequence, w, estimate._posed[first],
                                     *se3.relative_rt(rot[first], trans[first],
                                                      rot[ends[first]], trans[ends[first]]))


def write_records_csv(path, records) -> None:
    """Write records, an :class:`RPERecords` batch or a list, as a CSV table with header
    ``RECORDS_HEADER``; floats keep 17 digits, and every record reads back equal."""
    write_table(path, RECORDS_HEADER, RECORDS_ROW,
                ((r.sequence, r.t, r.w, r.trans_err, r.rot_err) for r in records))


def read_records_csv(path) -> list[RPERecord]:
    """Records of a CSV file written by :func:`write_records_csv`, bit for bit.  Raises
    ValueError naming the file for a bad header, and the file and line for a row with
    a missing, extra or empty field, a field that does not parse, or values that fail
    the ``RPERecord`` checks."""
    return _read_window_rows(path, RECORDS_HEADER, RPERecord)


def _read_window_rows(path, header: str, record_type) -> list:
    """``record_type(sequence, int t, int w, float, float)`` of each row; a bad row
    raises ValueError naming the file and line."""
    return read_rows(path, header, lambda sequence, t, w, first, second: record_type(
        sequence, parse_int("t", t), parse_int("w", w), float(first), float(second)))
