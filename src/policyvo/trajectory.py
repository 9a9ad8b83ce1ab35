"""Trajectory anchoring, incremental-action windows, and normalization.

A trajectory is an ordered list of (frame_index, Pose) with strictly
increasing frame indices.  ``Trajectory`` is the one place that knows how
frames are indexed: it looks poses up by frame index in constant time and
lists the windows t..t+w whose frames are all present.  Anchoring
re-expresses every pose relative to the first frame so the sequence starts
at the identity; relative transforms between frames are unchanged by
anchoring.

Trajectory files are :mod:`policyvo.tables` CSV with the header
``frame,tx,ty,tz,rx,ry,rz`` (translation mm, rotation axis-angle rad,
17 significant digits).  A row with any non-finite field marks an
invalid/missing pose and is kept for coverage accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import se3
from .se3 import Pose
from .tables import read_table, write_table

TRAJECTORY_HEADER = "frame,tx,ty,tz,rx,ry,rz"


@dataclass(frozen=True)
class Trajectory:
    frames: tuple[tuple[int, Pose], ...]
    anchored: bool = False
    _pose_of: dict[int, Pose] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        frames = tuple((int(i), p) for i, p in self.frames)
        indices = [i for i, _ in frames]
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise ValueError("frame indices must be strictly increasing")
        if self.anchored and frames:
            first = frames[0][1]
            drift = max(np.abs(first.rotation - np.eye(3)).max(),
                        np.abs(first.translation).max())
            if drift > 1e-9:
                raise ValueError("anchored trajectory must start at identity")
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "_pose_of", dict(frames))

    @staticmethod
    def from_poses(poses, start_index: int = 0, anchored: bool = False) -> "Trajectory":
        return Trajectory(tuple((start_index + i, p) for i, p in enumerate(poses)),
                          anchored=anchored)

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self):
        return iter(self.frames)

    def __contains__(self, frame_index) -> bool:
        return frame_index in self._pose_of

    @property
    def indices(self) -> list[int]:
        return [i for i, _ in self.frames]

    @property
    def poses(self) -> list[Pose]:
        return [p for _, p in self.frames]

    def pose_at(self, frame_index: int) -> Pose:
        try:
            return self._pose_of[frame_index]
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
class ActionDelta:
    """One incremental motion as a split 6-vector (mm, rad)."""

    vector: np.ndarray

    def __post_init__(self):
        vector = np.asarray(self.vector, dtype=np.float64).reshape(6)
        if not np.all(np.isfinite(vector)):
            raise ValueError("action delta has non-finite components")
        if np.linalg.norm(vector[3:]) > np.pi + 1e-12:
            raise ValueError("rotation part exceeds pi")
        vector.setflags(write=False)
        object.__setattr__(self, "vector", vector)

    def as_pose(self) -> Pose:
        return se3.exp(self.vector)


@dataclass(frozen=True)
class ActionSequence:
    deltas: tuple[ActionDelta, ...]

    def __post_init__(self):
        object.__setattr__(self, "deltas", tuple(self.deltas))

    def __len__(self) -> int:
        return len(self.deltas)

    def as_array(self) -> np.ndarray:
        return np.stack([d.vector for d in self.deltas])

    @staticmethod
    def from_array(arr: np.ndarray) -> "ActionSequence":
        arr = np.asarray(arr, dtype=np.float64)
        return ActionSequence(tuple(ActionDelta(row) for row in arr))


@dataclass(frozen=True)
class NormStats:
    """Per-dimension mean/std for state and action 6-vectors."""

    state_mean: np.ndarray
    state_std: np.ndarray
    action_mean: np.ndarray
    action_std: np.ndarray
    epsilon: float = 1e-6

    def __post_init__(self):
        for name in ("state_mean", "state_std", "action_mean", "action_std"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).reshape(6)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if np.any(self.state_std < self.epsilon) or np.any(self.action_std < self.epsilon):
            raise ValueError("std components must be >= epsilon")


def anchor(traj: Trajectory) -> Trajectory:
    """Re-express all poses relative to the first frame (T0 becomes identity)."""
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    first_inv = se3.inverse(traj.frames[0][1])
    frames = tuple((i, se3.compose(first_inv, p)) for i, p in traj.frames)
    return Trajectory(frames, anchored=True)


def extract_actions(traj: Trajectory, t: int, k: int) -> ActionSequence:
    """Incremental actions log(T_{t+i-1}^-1 T_{t+i}) for i = 1..k.

    Requires frames t..t+k to be present with consecutive indices.
    """
    if k < 1:
        raise ValueError("horizon k must be >= 1")
    if any(i not in traj for i in range(t, t + k + 1)):
        raise ValueError(f"window out of range: frames {t}..{t + k} not all present")
    poses = [traj.pose_at(i) for i in range(t, t + k + 1)]
    return ActionSequence(tuple(ActionDelta(se3.log(se3.relative(a, b)))
                                for a, b in zip(poses, poses[1:])))


def compose_window(start: Pose, actions: ActionSequence, w: int) -> Pose:
    """start ∘ exp(d1) ∘ ... ∘ exp(dw), first action applied first."""
    if w > len(actions):
        raise ValueError(f"w={w} exceeds action sequence length {len(actions)}")
    pose = start
    for delta in actions.deltas[:w]:
        pose = se3.compose(pose, delta.as_pose())
    return pose


def fit_norm_stats(dataset, epsilon: float = 1e-6) -> NormStats:
    """Population mean/std over (state 6-vector, ActionSequence) samples.

    Action statistics are pooled over all horizon steps of all samples; std
    components are floored at epsilon.
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    states = np.stack([np.asarray(s, dtype=np.float64).reshape(6) for s, _ in dataset])
    actions = np.concatenate([a.as_array() for _, a in dataset], axis=0)
    state_mean = states.mean(axis=0)
    state_std = np.maximum(states.std(axis=0), epsilon)
    action_mean = actions.mean(axis=0)
    action_std = np.maximum(actions.std(axis=0), epsilon)
    return NormStats(state_mean, state_std, action_mean, action_std, epsilon)


def normalize(vec: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    return (np.asarray(vec, dtype=np.float64) - mean) / std


def denormalize(vec: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    return np.asarray(vec, dtype=np.float64) * std + mean


def write_trajectory_file(path, rows) -> None:
    """Write trajectory rows to CSV.

    ``rows`` is a Trajectory or a list of (frame_index, Pose | None); a None
    pose is written as a nan row (invalid/missing pose marker).
    """
    if isinstance(rows, Trajectory):
        rows = rows.frames
    write_table(path, TRAJECTORY_HEADER,
                ((int(i), *(se3.log(p) if p is not None else [float("nan")] * 6))
                 for i, p in rows))


def read_trajectory_file(path) -> list[tuple[int, Pose | None]]:
    """Read trajectory rows; non-finite rows come back with pose None."""
    rows: list[tuple[int, Pose | None]] = []
    for frame_index, *fields in read_table(path, TRAJECTORY_HEADER):
        vec = np.array([float(x) for x in fields])
        rows.append((int(frame_index), se3.exp(vec) if np.all(np.isfinite(vec)) else None))
    return rows


def rows_to_trajectory(rows, anchored: bool = False) -> Trajectory:
    """Valid rows as a Trajectory (invalid rows dropped)."""
    return Trajectory(tuple((i, p) for i, p in rows if p is not None),
                      anchored=anchored)
