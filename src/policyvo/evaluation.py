"""Windowed relative pose error, Sim(3) alignment, and geometric baselines.

Per-window errors compare a predicted relative motion over w steps against
the ground-truth relative transform between the same frames: translation
error is the Euclidean distance between the relative translations (mm),
rotation error the geodesic angle between the relative rotations (degrees).

Scale-ambiguous estimates (the eight-point visual-odometry baseline) are
aligned to ground truth with a least-squares similarity transform before
windowed errors are computed; metric methods need no alignment.

Ground-truth poses are looked up, and full windows listed, through
:class:`~policyvo.trajectory.Trajectory`.  Per-window records are stored as
:mod:`policyvo.tables` CSV with the header ``sequence,t,w,trans_err_mm,rot_err_deg``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import se3
from .se3 import Pose
from .tables import read_table, write_table
from .trajectory import Trajectory
from .world import Camera, Scene, correspondences

RECORDS_HEADER = "sequence,t,w,trans_err_mm,rot_err_deg"
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


@dataclass(frozen=True)
class RPERecord:
    sequence: str
    t: int
    w: int
    trans_err: float   # mm
    rot_err: float     # degrees

    def __post_init__(self):
        if self.trans_err < 0.0 or self.rot_err < 0.0:
            raise ValueError("errors must be non-negative")


@dataclass(frozen=True)
class RPESummary:
    trans_mean: float
    trans_std: float
    rot_mean: float
    rot_std: float
    count: int


@dataclass(frozen=True)
class Sim3:
    """Similarity transform x -> scale * rotation @ x + translation."""

    scale: float
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        if self.scale <= 0.0:
            raise ValueError("scale must be positive")
        rotation = np.asarray(self.rotation, dtype=np.float64)
        if se3.orthonormality_drift(rotation) > 1e-8:
            raise ValueError("rotation must be orthonormal")
        translation = np.asarray(self.translation, dtype=np.float64).reshape(3)
        rotation.setflags(write=False)
        translation.setflags(write=False)
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "translation", translation)

    @staticmethod
    def identity() -> "Sim3":
        return Sim3(1.0, np.eye(3), np.zeros(3))

    def apply_points(self, points: np.ndarray) -> np.ndarray:
        return self.scale * (np.asarray(points) @ self.rotation.T) + self.translation


@dataclass(frozen=True)
class CoverageReport:
    total: int
    valid: int

    @property
    def percent(self) -> float:
        return 100.0 * self.valid / self.total


def summarize(records: list[RPERecord]) -> RPESummary:
    """Mean and population std of the per-window errors."""
    if not records:
        raise ValueError("empty evaluation")
    trans = np.array([r.trans_err for r in records])
    rot = np.array([r.rot_err for r in records])
    return RPESummary(float(trans.mean()), float(trans.std()),
                      float(rot.mean()), float(rot.std()), len(records))


def rpe(pred_windows: list[PredictedWindow], gt_trajs: dict[str, Trajectory],
        w: int) -> tuple[list[RPERecord], RPESummary]:
    """Per-window relative pose error of predictions against ground truth."""
    windows = [pw for pw in pred_windows if pw.w == w]
    if not windows:
        raise ValueError("empty evaluation")
    starts = se3.stack([gt_trajs[pw.sequence].pose_at(pw.t) for pw in windows])
    ends = se3.stack([gt_trajs[pw.sequence].pose_at(pw.t + w) for pw in windows])
    gt_rot, gt_trans = se3.relative_rt(*starts, *ends)
    pred_rot, pred_trans = se3.stack([pw.delta for pw in windows])
    trans_err = np.linalg.norm(pred_trans - gt_trans, axis=-1)
    rot_err = np.degrees(se3.geodesic_angle(pred_rot, gt_rot))
    records = [RPERecord(pw.sequence, pw.t, w, e_trans, e_rot)
               for pw, e_trans, e_rot in zip(windows, trans_err.tolist(), rot_err.tolist())]
    return records, summarize(records)


def umeyama_sim3(pred_points: np.ndarray, gt_points: np.ndarray) -> Sim3:
    """Closed-form least-squares similarity mapping pred onto gt.

    Cross-covariance SVD with reflection-sign correction; raises on fewer
    than 3 correspondences or a collinear configuration.
    """
    pred = np.asarray(pred_points, dtype=np.float64).reshape(-1, 3)
    gt = np.asarray(gt_points, dtype=np.float64).reshape(-1, 3)
    if pred.shape != gt.shape:
        raise ValueError("point sets must have equal shapes")
    n = len(pred)
    if n < 3:
        raise ValueError("degenerate alignment: need at least 3 points")
    mu_pred = pred.mean(axis=0)
    mu_gt = gt.mean(axis=0)
    pred_c = pred - mu_pred
    gt_c = gt - mu_gt
    cov = gt_c.T @ pred_c / n
    u, d, vt = np.linalg.svd(cov)
    if d[1] < 1e-9 * max(d[0], 1e-300):
        raise ValueError("degenerate alignment: collinear points")
    sign = np.eye(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0.0:
        sign[2, 2] = -1.0
    rotation = u @ sign @ vt
    var_pred = float((pred_c ** 2).sum()) / n
    scale = float(np.trace(np.diag(d) @ sign)) / var_pred
    translation = mu_gt - scale * rotation @ mu_pred
    return Sim3(scale, rotation, translation)


def coverage(rows: list[tuple[int, Pose | None]]) -> CoverageReport:
    """Fraction of frames that carry a valid pose estimate."""
    if not rows:
        raise ValueError("zero frames")
    valid = sum(1 for _, pose in rows if pose is not None)
    return CoverageReport(total=len(rows), valid=valid)


# ---------------------------------------------------------------------------
# Floor baselines

def zero_motion_windows(gt_traj: Trajectory, sequence: str, w: int) -> list[PredictedWindow]:
    """Predicts the identity relative motion for every full window."""
    identity = Pose.identity()
    return [PredictedWindow(sequence, t, w, identity) for t in gt_traj.window_starts(w)]


def constant_velocity_windows(gt_traj: Trajectory, sequence: str,
                              w: int) -> list[PredictedWindow]:
    """Repeats the last observed ground-truth per-step delta w times.

    The first window has no history and falls back to zero motion.
    """
    starts = gt_traj.window_starts(w)
    moving = [t for t in starts if t - 1 in gt_traj]
    rows = gt_traj.rows(moving)
    rot, trans = gt_traj.rotations, gt_traj.translations
    step = se3.relative_rt(rot[rows - 1], trans[rows - 1], rot[rows], trans[rows])
    delta = np.broadcast_to(np.eye(3), step[0].shape), np.zeros_like(step[1])
    for _ in range(w):
        delta = se3.compose_rt(*delta, *step)
    predicted = dict(zip(moving, se3.poses(*delta)))
    identity = Pose.identity()
    return [PredictedWindow(sequence, t, w, predicted.get(t, identity)) for t in starts]


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
    rms = float(np.sqrt(((xy - centroid) ** 2).sum(axis=1).mean()))
    scale = math.sqrt(2.0) / max(rms, 1e-12)
    transform = np.array([[scale, 0.0, -scale * centroid[0]],
                          [0.0, scale, -scale * centroid[1]],
                          [0.0, 0.0, 1.0]])
    return rays @ transform.T, transform


def _triangulate_depths(rotation_ba: np.ndarray, t_ba: np.ndarray,
                        rays_a: np.ndarray, rays_b: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Two-view linear depths: minimize ||u*da - v*db + t|| per match.

    Rays have z = 1, so the returned values are z-depths in each camera.
    Zero-parallax pairs come back with non-positive depths.
    """
    u = rays_a @ rotation_ba.T
    v = rays_b
    uu = (u * u).sum(axis=1)
    vv = (v * v).sum(axis=1)
    uv = (u * v).sum(axis=1)
    ut = u @ t_ba
    vt = v @ t_ba
    det = uu * vv - uv * uv
    safe = det > 1e-12 * uu * vv
    depth_a = np.where(safe, (-ut * vv + uv * vt) / np.where(safe, det, 1.0), -1.0)
    depth_b = np.where(safe, (uv * -ut + uu * vt) / np.where(safe, det, 1.0), -1.0)
    return depth_a, depth_b


def eight_point_relative_pose(pts_a: np.ndarray, pts_b: np.ndarray,
                              camera: Camera) -> tuple[Pose, np.ndarray, np.ndarray]:
    """Relative camera motion from >= 8 pixel correspondences.

    Normalized eight-point estimate of the essential matrix, projected to
    the essential manifold and decomposed with cheirality disambiguation.
    Returns (delta pose with unit-norm translation, depths in frame a,
    depths in frame b); the translation scale is unresolved by construction.

    Raises BaselineFailure on fewer than 8 correspondences, a degenerate
    configuration (e.g. pure rotation, where the constraint matrix loses
    rank), or an ambiguous cheirality vote.
    """
    pts_a = np.asarray(pts_a, dtype=np.float64).reshape(-1, 2)
    pts_b = np.asarray(pts_b, dtype=np.float64).reshape(-1, 2)
    n = len(pts_a)
    if n < 8 or len(pts_b) != n:
        raise BaselineFailure(f"fewer than 8 correspondences ({n})")

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
    candidates = []
    for rotation_ba in (u @ w_mat @ vt_e, u @ w_mat.T @ vt_e):
        for t_ba in (u[:, 2], -u[:, 2]):
            depth_a, depth_b = _triangulate_depths(rotation_ba, t_ba, rays_a, rays_b)
            front = int(np.sum((depth_a > 0.0) & (depth_b > 0.0)))
            candidates.append((front, rotation_ba, t_ba, depth_a, depth_b))
    front, rotation_ba, t_ba, depth_a, depth_b = max(candidates, key=lambda c: c[0])
    if front < MIN_CHEIRALITY * n:
        raise BaselineFailure(f"cheirality ambiguity ({front}/{n} points in front)")

    # (R_ba, t_ba) maps frame-a coords to frame-b; the relative pose of
    # camera b in camera a's frame is the inverse.
    delta = Pose(rotation_ba.T, -(rotation_ba.T @ t_ba))
    return delta, depth_a, depth_b


def eight_point_vo(scene: Scene, camera: Camera, gt_traj: Trajectory,
                   min_albedo: float = 0.25, noise_px: float = 0.0,
                   seed: int = 0) -> list[tuple[int, Pose | None]]:
    """Chain frame-to-frame eight-point estimates into a trajectory.

    Correspondences come from the scene's known landmark projections
    (bright enough to count as detectable features), optionally perturbed
    by Gaussian pixel noise.  The translation scale of each step is fixed
    relative to the previous step by the depth ratios of shared landmarks,
    so each contiguous segment is consistent up to one global scale.

    A failed step leaves the next frame without a pose; estimation restarts
    from the following pair in a fresh segment.  Returns (frame, pose or
    None) rows; frames in no successful step have pose None.
    """
    rng = np.random.default_rng(seed)
    indices = gt_traj.indices
    chain = {}      # frame -> (rotation, translation) of the rows that get a pose
    prev = None     # landmark ids and frame-b depths of the last chained step
    for a, b in zip(indices, indices[1:]):
        ids, pts_a, pts_b = correspondences(
            scene, camera, gt_traj.pose_at(a), gt_traj.pose_at(b),
            min_albedo=min_albedo, noise_px=noise_px,
            rng=rng if noise_px > 0.0 else None)
        try:
            delta, depth_a, depth_b = eight_point_relative_pose(pts_a, pts_b, camera)
        except BaselineFailure:
            prev = None
            continue
        if prev is None:    # new segment anchored at frame a
            chain[a], scale = (np.eye(3), np.zeros(3)), 1.0
        else:
            ratio = _shared_depth_ratio(*prev, ids, depth_a)
            if ratio is None:
                prev = None
                continue
            scale = scale * ratio
        chain[b] = se3.compose_rt(*chain[a], delta.rotation, scale * delta.translation)
        prev = ids, depth_b
    posed = dict(zip(chain, se3.poses(np.reshape([r for r, _ in chain.values()], (-1, 3, 3)),
                                      np.reshape([t for _, t in chain.values()], (-1, 3)))))
    return [(i, posed.get(i)) for i in indices]


def _shared_depth_ratio(prev_ids: np.ndarray, prev_depth_b: np.ndarray,
                        ids: np.ndarray, depth_a: np.ndarray) -> float | None:
    """Baseline-scale ratio from landmarks triangulated by two consecutive steps."""
    common, ip, ic = np.intersect1d(prev_ids, ids, return_indices=True)
    if len(common) < MIN_SHARED:
        return None
    prev_depth = prev_depth_b[ip]   # in the shared middle frame
    cur_depth = depth_a[ic]
    ok = (prev_depth > 0.0) & (cur_depth > 0.0)
    if ok.sum() < MIN_SHARED:
        return None
    ratio = float(np.median(prev_depth[ok] / cur_depth[ok]))
    return ratio if ratio > 0.0 else None


def align_rows_to_gt(rows: list[tuple[int, Pose | None]],
                     gt_traj: Trajectory) -> list[tuple[int, Pose | None]]:
    """Per-segment Sim(3) alignment of an estimated trajectory to ground truth.

    Each contiguous run of valid rows is aligned independently (a chained
    estimate restarts in a fresh coordinate frame after a failure).
    Segments too short or too degenerate to align lose their poses.
    """
    aligned: dict[int, Pose | None] = {i: None for i, _ in rows}
    segment: list[tuple[int, Pose]] = []

    def flush(segment):
        if len(segment) < 3:
            return
        frames = [i for i, _ in segment]
        rot, trans = se3.stack([p for _, p in segment])
        try:
            sim = umeyama_sim3(trans, gt_traj.translations[gt_traj.rows(frames)])
        except ValueError:
            return
        aligned.update(zip(frames, se3.poses(sim.rotation @ rot, sim.apply_points(trans))))

    for i, pose in rows:
        if pose is None:
            flush(segment)
            segment = []
        else:
            segment.append((i, pose))
    flush(segment)
    return [(i, aligned[i]) for i, _ in rows]


def windows_from_rows(rows: list[tuple[int, Pose | None]], sequence: str,
                      w: int) -> list[PredictedWindow]:
    """Relative-motion windows over an estimated trajectory.

    Only windows whose endpoints both carry a valid pose are emitted.
    """
    if not rows:
        return []
    first, last = rows[0][0], rows[-1][0]
    valid = {i: p for i, p in dict(rows).items() if p is not None}
    starts = [t for t in sorted(valid) if first <= t <= last - w and t + w in valid]
    deltas = se3.relative_rt(*se3.stack([valid[t] for t in starts]),
                             *se3.stack([valid[t + w] for t in starts]))
    return [PredictedWindow(sequence, t, w, delta)
            for t, delta in zip(starts, se3.poses(*deltas))]


# ---------------------------------------------------------------------------
# Report formatting

@dataclass(frozen=True)
class MethodResult:
    name: str
    summary: RPESummary
    coverage_percent: float


def format_results_table(results: list[MethodResult], w: int) -> str:
    """Plain-text summary table: one row per method."""
    lines = [f"Windowed RPE at w={w}",
             f"{'method':<22} {'trans mm (mean±std)':>22} {'rot deg (mean±std)':>22} {'coverage %':>11}"]
    for r in results:
        lines.append(f"{r.name:<22} "
                     f"{r.summary.trans_mean:>11.4f} ± {r.summary.trans_std:<8.4f} "
                     f"{r.summary.rot_mean:>11.4f} ± {r.summary.rot_std:<8.4f} "
                     f"{r.coverage_percent:>10.1f}")
    return "\n".join(lines) + "\n"


def write_records_csv(path, records: list[RPERecord]) -> None:
    write_table(path, RECORDS_HEADER,
                ((r.sequence, r.t, r.w, r.trans_err, r.rot_err) for r in records))


def read_records_csv(path) -> list[RPERecord]:
    return [RPERecord(seq, int(t), int(w), float(trans_err), float(rot_err))
            for seq, t, w, trans_err, rot_err in read_table(path, RECORDS_HEADER)]
