"""Trajectory anchoring, incremental-action windows, and trajectory files.

A trajectory is an ordered list of (frame_index, Pose) with strictly
increasing frame indices.  ``Trajectory`` is the one place that knows how
frames are indexed: it looks poses up by frame index in constant time and
lists the windows t..t+w whose frames are all present.  Anchoring
re-expresses every pose relative to the first frame so the sequence starts
at the identity; relative transforms between frames are unchanged by
anchoring.

The actions of a window are the steps log(T_{i-1}^-1 T_i) between its
consecutive frames.  ``action_windows`` computes a trajectory's steps as one
(N-1, 6) array, checked once, and each window's ``ActionSequence`` is the
read-only slice of it from the window's start.

Trajectory files are :mod:`policyvo.tables` CSV with the header
``frame,tx,ty,tz,rx,ry,rz`` (translation mm, rotation axis-angle rad,
17 significant digits).  A row with any non-finite field marks an
invalid/missing pose and is kept for coverage accounting.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from . import se3
from .se3 import Pose
from .tables import read_table, write_table

TRAJECTORY_HEADER = "frame,tx,ty,tz,rx,ry,rz"


@dataclass(frozen=True)
class Trajectory:
    """(frame, Pose) rows, also held as read-only ``rotations`` (N, 3, 3) and
    ``translations`` (N, 3) stacks built once at construction."""

    frames: tuple[tuple[int, Pose], ...]
    anchored: bool = False
    rotations: np.ndarray = field(init=False, repr=False, compare=False)
    translations: np.ndarray = field(init=False, repr=False, compare=False)
    _row_of: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            frames = tuple((operator.index(i), p) for i, p in self.frames)
        except TypeError:
            bad = next(i for i, _ in self.frames if not hasattr(type(i), "__index__"))
            raise ValueError(f"frame index {bad!r} is not an integer") from None
        indices = [i for i, _ in frames]
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise ValueError("frame indices must be strictly increasing")
        rotations, translations = se3.stack([p for _, p in frames])
        if self.anchored and frames and max(np.abs(rotations[0] - np.eye(3)).max(),
                                            np.abs(translations[0]).max()) > 1e-9:
            raise ValueError("anchored trajectory must start at identity")
        rotations.setflags(write=False)
        translations.setflags(write=False)
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "rotations", rotations)
        object.__setattr__(self, "translations", translations)
        object.__setattr__(self, "_row_of", {i: n for n, i in enumerate(indices)})

    @staticmethod
    def from_poses(poses, start_index: int = 0, anchored: bool = False) -> "Trajectory":
        return Trajectory(tuple((start_index + i, p) for i, p in enumerate(poses)),
                          anchored=anchored)

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self):
        return iter(self.frames)

    def __contains__(self, frame_index) -> bool:
        return frame_index in self._row_of

    @property
    def indices(self) -> list[int]:
        return [i for i, _ in self.frames]

    @property
    def poses(self) -> list[Pose]:
        return [p for _, p in self.frames]

    def rows(self, frame_indices) -> np.ndarray:
        """Positions of the given frames in ``rotations``/``translations``."""
        try:
            return np.array([self._row_of[i] for i in frame_indices], dtype=np.intp)
        except KeyError as exc:
            raise KeyError(f"no frame {exc.args[0]} in trajectory") from None

    def pose_at(self, frame_index: int) -> Pose:
        try:
            return self.frames[self._row_of[frame_index]][1]
        except KeyError:
            raise KeyError(f"no frame {frame_index} in trajectory") from None

    def window_starts(self, w: int) -> list[int]:
        """Frames t, in order, for which every frame t..t+w is present.

        Indices strictly increase, so frames t..t+w are all present exactly
        when the index w positions after t is t + w.
        """
        if w < 0:
            raise ValueError("window length must be >= 0")
        indices = self.indices
        return [t for t, end in zip(indices, indices[w:]) if end == t + w]


@dataclass(frozen=True)
class ActionSequence:
    """k incremental motions: one read-only (k, 6) array of split 6-vectors (mm, rad).
    ``from_array`` copies and validates it; the plain constructor takes a checked array."""

    vectors: np.ndarray

    def __eq__(self, other) -> bool:
        """Exact equality of the action arrays, with no tolerance."""
        return isinstance(other, ActionSequence) and np.array_equal(self.vectors, other.vectors)

    def __len__(self) -> int:
        return len(self.vectors)

    def as_array(self) -> np.ndarray:
        return self.vectors

    @staticmethod
    def from_array(arr: np.ndarray) -> "ActionSequence":
        """Actions of the rows of a (k, 6) array, copied and validated once as a whole."""
        arr = np.array(arr, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 6:
            raise ValueError(f"actions must be a (k, 6) array, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("action delta has non-finite components")
        if (np.linalg.norm(arr[:, 3:], axis=-1) > np.pi + 1e-12).any():
            raise ValueError("rotation part exceeds pi")
        arr.setflags(write=False)
        return ActionSequence(arr)


def anchor(traj: Trajectory) -> Trajectory:
    """Re-express all poses relative to the first frame (T0 becomes identity)."""
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    first_inv = se3.inverse_rt(traj.rotations[0], traj.translations[0])
    anchored = se3.compose_rt(*first_inv, traj.rotations, traj.translations)
    return Trajectory(tuple(zip(traj.indices, se3.poses(*anchored))), anchored=True)


def _steps(rotations: np.ndarray, translations: np.ndarray) -> np.ndarray:
    """Split 6-vectors log(T_{i-1}^-1 T_i) between consecutive rows of a pose stack."""
    return se3.log_rt(*se3.relative_rt(rotations[:-1], translations[:-1],
                                       rotations[1:], translations[1:]))


def action_windows(traj: Trajectory, k: int) -> dict[int, ActionSequence]:
    """Actions of every full length-k window, by start frame in order.

    The steps between consecutive rows are computed and checked once; each
    window's actions are the read-only (k, 6) slice of them from its start.
    """
    if k < 1:
        raise ValueError("horizon k must be >= 1")
    steps = ActionSequence.from_array(_steps(traj.rotations, traj.translations)).vectors
    starts = traj.window_starts(k)
    return {t: ActionSequence(steps[row:row + k])
            for t, row in zip(starts, traj.rows(starts).tolist())}


def extract_actions(traj: Trajectory, t: int, k: int) -> ActionSequence:
    """Incremental actions log(T_{t+i-1}^-1 T_{t+i}) for i = 1..k.

    Requires frames t..t+k to be present with consecutive indices.
    """
    if k < 1:
        raise ValueError("horizon k must be >= 1")
    if any(i not in traj for i in range(t, t + k + 1)):
        raise ValueError(f"window out of range: frames {t}..{t + k} not all present")
    rows = traj.rows(range(t, t + k + 1))
    return ActionSequence.from_array(_steps(traj.rotations[rows], traj.translations[rows]))


def compose_window(start: Pose, actions: ActionSequence, w: int) -> Pose:
    """start ∘ exp(d1) ∘ ... ∘ exp(dw), first action applied first."""
    if w > len(actions):
        raise ValueError(f"w={w} exceeds action sequence length {len(actions)}")
    pose = start.rotation, start.translation
    for step in zip(*se3.exp_rt(actions.vectors[:w])):
        pose = se3.compose_rt(*pose, *step)
    return Pose(*pose)


def write_trajectory_file(path, rows) -> None:
    """Write trajectory rows to CSV.

    ``rows`` is a Trajectory or a list of (frame_index, Pose | None); a None
    pose is written as a nan row (invalid/missing pose marker).  Raises
    ValueError naming the file, and writes nothing, when the frames are not
    integers or do not strictly increase.
    """
    rows = list(rows.frames if isinstance(rows, Trajectory) else rows)
    frames = np.array([i for i, _ in rows])
    if rows and frames.dtype.kind not in "iu":
        raise ValueError(f"{path}: frame indices must be integers, not {frames.dtype}")
    behind = np.flatnonzero(frames[1:] <= frames[:-1])
    if len(behind):
        raise ValueError(f"{path}: frame {frames[behind[0] + 1]} does not follow "
                         f"frame {frames[behind[0]]}")
    valid = [n for n, (_, p) in enumerate(rows) if p is not None]
    vectors = np.full((len(rows), 6), np.nan)
    vectors[valid] = se3.log_rt(*se3.stack([rows[n][1] for n in valid]))
    write_table(path, TRAJECTORY_HEADER,
                ((i, *vec) for i, vec in zip(frames.tolist(), vectors.tolist())))


def read_trajectory_file(path) -> list[tuple[int, Pose | None]]:
    """Read trajectory rows; non-finite rows come back with pose None.

    Raises ValueError naming the file and line for a frame that is not an
    integer or does not strictly increase, and for a non-numeric field.
    """
    frames, vectors = [], []
    for number, (frame, *fields) in enumerate(read_table(path, TRAJECTORY_HEADER), start=2):
        where = f"{path}, line {number}"
        if not frame.removeprefix("-").isdecimal():
            raise ValueError(f"{where}: frame {frame!r} is not an integer")
        if frames and int(frame) <= frames[-1]:
            raise ValueError(f"{where}: frame {frame} does not follow frame {frames[-1]}")
        try:
            vectors.append([float(x) for x in fields])
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        frames.append(int(frame))
    vectors = np.array(vectors).reshape(-1, 6)
    valid = np.isfinite(vectors).all(axis=1)
    poses = iter(se3.poses(*se3.exp_rt(vectors[valid])))
    return [(frame, next(poses) if ok else None) for frame, ok in zip(frames, valid.tolist())]


def rows_to_trajectory(rows, anchored: bool = False) -> Trajectory:
    """Valid rows as a Trajectory (invalid rows dropped)."""
    return Trajectory(tuple((i, p) for i, p in rows if p is not None),
                      anchored=anchored)
