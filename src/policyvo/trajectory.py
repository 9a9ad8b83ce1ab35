"""Trajectories as pose stacks with a validity mask, action windows, and trajectory files.

A ``Trajectory`` is the one pose container of ground truth and estimates:
strictly increasing frames, a mask of those that carry a pose, and their
poses as read-only rotation and translation stacks, each pose stored once
(``Pose`` objects are only views of stack rows, built on demand).  It looks
poses up by frame in constant time and lists the windows t..t+w whose frames
all have a pose.  Anchoring re-expresses every pose relative to the first so
the sequence starts at the identity; relative transforms are unchanged.

The actions of a window are the steps log(T_{i-1}^-1 T_i) between its
consecutive frames.  ``action_windows`` computes a trajectory's steps as one
(N-1, 6) array, checked once, and each window's ``ActionSequence`` is the
read-only slice of it from the window's start.

Trajectory files are :mod:`policyvo.tables` CSV with the header
``frame,tx,ty,tz,rx,ry,rz`` (translation mm, rotation axis-angle rad,
17 significant digits).  A row with any non-finite field marks a frame
without a pose and is kept for coverage accounting.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import se3
from .se3 import Pose
from .tables import read_table, write_table

TRAJECTORY_HEADER = "frame,tx,ty,tz,rx,ry,rz"


class Trajectory:
    """Frames in strictly increasing order, each with a pose or without one, held in
    four read-only arrays: ``frame_array`` (N,) int64 and ``valid`` (N,) bool over
    every frame, ``rotations`` (V, 3, 3) and ``translations`` (V, 3) over the V
    frames with a pose.  ``Trajectory(rows)`` takes (frame, Pose | None) rows and
    :meth:`from_stacks` the arrays, either checking the stacks once; ``frames``,
    ``poses``, iteration and ``pose_at`` build ``Pose`` views of them.  Equality
    is exact; instances are immutable and unhashable."""

    def __init__(self, rows=(), anchored: bool = False):
        rows = tuple(rows)
        self.__dict__.update(vars(Trajectory.from_stacks(
            [i for i, _ in rows], *se3.stack([p for _, p in rows if p is not None]),
            [p is not None for _, p in rows], anchored)))

    @classmethod
    def from_stacks(cls, indices, rotations, translations, valid=None,
                    anchored: bool = False) -> "Trajectory":
        """Frames ``indices``; those ``valid`` marks (default all) have the stacks' poses."""
        frames = np.asarray(indices)
        if frames.dtype.kind not in "iu":
            try:
                frames = np.array([operator.index(i) for i in indices], dtype=np.int64)
            except TypeError:
                bad = next(i for i in indices if not hasattr(type(i), "__index__"))
                raise ValueError(f"frame indices must be integers; frame index {bad!r} "
                                 "is not an integer") from None
        frames = frames.astype(np.int64)
        valid = np.ones(frames.shape, bool) if valid is None else np.array(valid, dtype=bool)
        if frames.ndim != 1 or valid.shape != frames.shape:
            raise ValueError("frames and valid mask must be 1-D arrays of one length")
        if len(back := np.flatnonzero(frames[1:] <= frames[:-1])):
            raise ValueError(f"frame {frames[back[0] + 1]} does not follow frame {frames[back[0]]}")
        rotations, translations = se3._validated(rotations, translations)
        if rotations.shape[:-2] != (np.count_nonzero(valid),):
            raise ValueError(f"{np.count_nonzero(valid)} valid frames, {len(rotations)} poses")
        if anchored and len(rotations) and max(np.abs(rotations[0] - np.eye(3)).max(),
                                               np.abs(translations[0]).max()) > 1e-9:
            raise ValueError("anchored trajectory must start at identity")
        frames.setflags(write=False)
        valid.setflags(write=False)
        posed = frames[valid].tolist()
        traj = cls.__new__(cls)
        traj.__dict__.update(frame_array=frames, valid=valid, rotations=rotations,
                             translations=translations, anchored=bool(anchored),
                             _row_of=dict(zip(posed, range(len(posed)))))
        return traj

    def __setattr__(self, name, value):
        raise AttributeError(f"Trajectory is immutable; cannot set {name!r}")

    def __eq__(self, other) -> bool:
        """Exact equality of the four arrays and the anchoring flag, with no tolerance."""
        return (isinstance(other, Trajectory) and self.anchored == other.anchored
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name in ("frame_array", "valid", "rotations", "translations")))

    def __len__(self) -> int:
        return len(self.frame_array)

    def __iter__(self):
        return iter(self.frames)

    def __contains__(self, frame_index) -> bool:
        """Whether the frame has a pose."""
        return frame_index in self._row_of

    @property
    def indices(self) -> list[int]:
        return self.frame_array.tolist()

    @property
    def poses(self) -> list[Pose]:
        return list(map(se3.pose_view, self.rotations, self.translations))

    @property
    def frames(self) -> tuple[tuple[int, Pose | None], ...]:
        """(frame, Pose view or None) of every frame; ``poses`` has the V views alone."""
        poses = iter(self.poses)
        return tuple((i, next(poses) if ok else None)
                     for i, ok in zip(self.indices, self.valid.tolist()))

    def rows(self, frame_indices) -> np.ndarray:
        """Positions of the given frames in ``rotations``/``translations``."""
        try:
            return np.array([self._row_of[i] for i in frame_indices], dtype=np.intp)
        except KeyError as exc:
            raise KeyError(f"no frame {exc.args[0]} with a pose in trajectory") from None

    def pose_at(self, frame_index: int) -> Pose:
        row = self.rows([frame_index])[0]
        return se3.pose_view(self.rotations[row], self.translations[row])

    def window_starts(self, w: int) -> list[int]:
        """Frames t, in order, for which every frame t..t+w has a pose: those whose
        posed frame w positions later is t + w, as frames strictly increase."""
        if w < 0:
            raise ValueError("window length must be >= 0")
        posed = list(self._row_of)
        return [t for t, end in zip(posed, posed[w:]) if end == t + w]


def as_trajectory(rows) -> Trajectory:
    """``rows`` if it is a Trajectory, else the Trajectory of its (frame, Pose | None) rows."""
    return rows if isinstance(rows, Trajectory) else Trajectory(rows)


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
    """Re-express all poses relative to the first one (it becomes the identity)."""
    if len(traj.rotations) == 0:
        raise ValueError("empty trajectory: no frame has a pose")
    first_inv = se3.inverse_rt(traj.rotations[0], traj.translations[0])
    return Trajectory.from_stacks(traj.frame_array,
                                  *se3.compose_rt(*first_inv, traj.rotations, traj.translations),
                                  traj.valid, anchored=True)


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

    Requires frames t..t+k all to have a pose.
    """
    if k < 1:
        raise ValueError("horizon k must be >= 1")
    if any(i not in traj for i in range(t, t + k + 1)):
        raise ValueError(f"window out of range: frames {t}..{t + k} not all present")
    rows = traj.rows(range(t, t + k + 1))
    return ActionSequence.from_array(_steps(traj.rotations[rows], traj.translations[rows]))


def compose_window(start: Pose, actions: ActionSequence, w: int) -> Pose:
    """start ∘ exp(d1) ∘ ... ∘ exp(dw), first action applied first."""
    if w < 0:
        raise ValueError("window length must be >= 0")
    if w > len(actions):
        raise ValueError(f"w={w} exceeds action sequence length {len(actions)}")
    pose = start.rotation, start.translation
    for step in zip(*se3.exp_rt(actions.vectors[:w])):
        pose = se3.compose_rt(*pose, *step)
    return Pose(*pose)


def write_trajectory_file(path, rows) -> None:
    """Write a Trajectory, or (frame, Pose | None) rows, as CSV; a frame without
    a pose is a nan row.  Raises ValueError naming the file, and writes nothing,
    when the frames are not integers or do not strictly increase."""
    try:
        traj = as_trajectory(rows)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    vectors = np.full((len(traj), 6), np.nan)
    vectors[traj.valid] = se3.log_rt(traj.rotations, traj.translations)
    write_table(path, TRAJECTORY_HEADER,
                ((i, *vec) for i, vec in zip(traj.indices, vectors.tolist())))


def read_trajectory_file(path) -> Trajectory:
    """Read a trajectory file; frames of non-finite rows have no pose.

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
    return Trajectory.from_stacks(frames, *se3.exp_rt(vectors[valid]), valid)


def rows_to_trajectory(rows, anchored: bool = False) -> Trajectory:
    """The frames of a Trajectory, or of (frame, Pose | None) rows, that have a pose."""
    traj = as_trajectory(rows)
    return Trajectory.from_stacks(traj.frame_array[traj.valid], traj.rotations,
                                  traj.translations, anchored=anchored)
