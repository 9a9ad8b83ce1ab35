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
    """(frame, Pose) rows, also held as read-only ``rotations`` (N, 3, 3) and
    ``translations`` (N, 3) stacks built once at construction."""

    frames: tuple[tuple[int, Pose], ...]
    anchored: bool = False
    rotations: np.ndarray = field(init=False, repr=False, compare=False)
    translations: np.ndarray = field(init=False, repr=False, compare=False)
    _row_of: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        frames = tuple((int(i), p) for i, p in self.frames)
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


def _check_deltas(vectors: np.ndarray) -> None:
    """Raise ValueError unless every split 6-vector of the stack is a valid action."""
    if not np.isfinite(vectors).all():
        raise ValueError("action delta has non-finite components")
    if (np.linalg.norm(vectors[..., 3:], axis=-1) > np.pi + 1e-12).any():
        raise ValueError("rotation part exceeds pi")


@dataclass(frozen=True)
class ActionDelta:
    """One incremental motion as a split 6-vector (mm, rad)."""

    vector: np.ndarray

    def __post_init__(self):
        vector = np.asarray(self.vector, dtype=np.float64).reshape(6)
        _check_deltas(vector)
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
        """Actions of the rows of a (k, 6) array, validated once as a whole."""
        arr = np.array(arr, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 6:
            raise ValueError(f"actions must be a (k, 6) array, got {arr.shape}")
        _check_deltas(arr)
        arr.setflags(write=False)
        return ActionSequence(tuple(se3.unchecked(ActionDelta, vector=row) for row in arr))


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
    first_inv = se3.inverse_rt(traj.rotations[0], traj.translations[0])
    anchored = se3.compose_rt(*first_inv, traj.rotations, traj.translations)
    return Trajectory(tuple(zip(traj.indices, se3.poses(*anchored))), anchored=True)


def extract_actions(traj: Trajectory, t: int, k: int) -> ActionSequence:
    """Incremental actions log(T_{t+i-1}^-1 T_{t+i}) for i = 1..k.

    Requires frames t..t+k to be present with consecutive indices.
    """
    if k < 1:
        raise ValueError("horizon k must be >= 1")
    if any(i not in traj for i in range(t, t + k + 1)):
        raise ValueError(f"window out of range: frames {t}..{t + k} not all present")
    rows = traj.rows(range(t, t + k + 1))
    rot, trans = traj.rotations[rows], traj.translations[rows]
    steps = se3.relative_rt(rot[:-1], trans[:-1], rot[1:], trans[1:])
    return ActionSequence.from_array(se3.log_rt(*steps))


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
    rows = list(rows.frames if isinstance(rows, Trajectory) else rows)
    valid = [n for n, (_, p) in enumerate(rows) if p is not None]
    vectors = np.full((len(rows), 6), np.nan)
    vectors[valid] = se3.log_rt(*se3.stack([rows[n][1] for n in valid]))
    write_table(path, TRAJECTORY_HEADER,
                ((int(i), *vec) for (i, _), vec in zip(rows, vectors.tolist())))


def read_trajectory_file(path) -> list[tuple[int, Pose | None]]:
    """Read trajectory rows; non-finite rows come back with pose None."""
    table = read_table(path, TRAJECTORY_HEADER)
    vectors = np.array([[float(x) for x in fields] for _, *fields in table]).reshape(-1, 6)
    valid = np.isfinite(vectors).all(axis=1)
    poses = iter(se3.poses(*se3.exp_rt(vectors[valid])))
    return [(int(frame), next(poses) if ok else None)
            for (frame, *_), ok in zip(table, valid.tolist())]


def rows_to_trajectory(rows, anchored: bool = False) -> Trajectory:
    """Valid rows as a Trajectory (invalid rows dropped)."""
    return Trajectory(tuple((i, p) for i, p in rows if p is not None),
                      anchored=anchored)
