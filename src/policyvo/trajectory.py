"""Trajectories as pose stacks with a validity mask, action windows, and trajectory files.

A ``Trajectory`` is the one pose container of ground truth and estimates:
strictly increasing frames, a mask of those that carry a pose, and their
poses as read-only rotation and translation stacks, each pose stored once
(``Pose`` objects are only views of stack rows, built on demand).  A frame is
a Python or numpy integer within int64, not a bool: one rule admits frames and
finds every lookup's frame plus its offset, and no other value (nor a sum past
int64) finds one.  The posed frames, in order, are one sorted array, and the
stack row of a frame is its place there: a binary search finds where the frame
would stand, and a second one, past any equal entry, lands further on only if
the frame has a pose.  The windows t..t+w whose frames all have a pose are
those whose posed frame w places later is t + w.  Anchoring re-expresses every
pose relative to the first so the sequence starts at the identity (which is
what ``anchored`` reads); relative transforms are unchanged.

The actions of a window are the steps log(T_{i-1}^-1 T_i) between its
consecutive frames.  A trajectory computes the steps between all of its
consecutive poses once, as one read-only (V-1, 6) array, on first use;
``extract_actions`` hands out read-only slices of it and checks only the slice
it hands out, so a non-finite step shows only in the windows that hold it.

Trajectory files are :mod:`policyvo.tables` CSV with the header
``frame,tx,ty,tz,rx,ry,rz`` (translation mm, rotation axis-angle rad,
17 significant digits).  A row with any non-finite field marks a frame
without a pose and is kept for coverage accounting.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass

import numpy as np

from . import se3
from .se3 import Pose
from .tables import parse_int, read_table, write_table

TRAJECTORY_HEADER = "frame,tx,ty,tz,rx,ry,rz"
TRAJECTORY_ROW = "%d" + ",%.17g" * 6
_INTEGER_LINES = re.compile(r"(?:-?\d+\n)*")    # \d is str.isdecimal's set


class Trajectory:
    """Frames in strictly increasing order, each with a pose or without one, held in
    four read-only arrays: ``frame_array`` (N,) int64 and ``valid`` (N,) bool over
    every frame, ``rotations`` (V, 3, 3) and ``translations`` (V, 3) over the V
    frames with a pose; those frames, ``frame_array[valid]``, are the read-only (V,)
    posed-frame array ``_posed`` that every frame lookup searches.  ``Trajectory(rows)``
    takes (frame, Pose | None) rows and :meth:`from_stacks` the arrays, either checking
    them in full; anchoring, alignment, VO and generated paths derive their stacks from
    checked ones and use :meth:`_trusted` (see ``se3._frozen``).  ``frames``, ``poses``,
    iteration (a row at a time) and ``pose_at`` build ``Pose`` views.  Equality is exact
    (``anchored`` is derived from the arrays); instances are immutable and unhashable."""

    def __init__(self, rows=(), anchored: bool = False):
        rows = tuple(rows)
        self.__dict__.update(vars(Trajectory.from_stacks(
            [i for i, _ in rows], *se3.stack([p for _, p in rows if p is not None]),
            [p is not None for _, p in rows])))
        if anchored and not self.anchored:
            raise ValueError("anchored trajectory must start at identity")

    @classmethod
    def from_stacks(cls, indices, rotations, translations, valid=None) -> "Trajectory":
        """Frames ``indices``; those ``valid`` marks (default all) have the stacks' poses."""
        frames = _frame_keys(indices)
        valid = np.ones(frames.shape, bool) if valid is None else np.array(valid, dtype=bool)
        if frames.ndim != 1 or valid.shape != frames.shape:
            raise ValueError("frames and valid mask must be 1-D arrays of one length")
        if len(back := np.flatnonzero(frames[1:] <= frames[:-1])):
            raise ValueError(f"frame {frames[back[0] + 1]} does not follow frame {frames[back[0]]}")
        rotations, translations = se3._validated(rotations, translations)
        if rotations.shape[:-2] != (np.count_nonzero(valid),):
            raise ValueError(f"{np.count_nonzero(valid)} valid frames, {len(rotations)} poses")
        return cls._trusted(frames, rotations, translations, valid)

    @classmethod
    def _trusted(cls, frames, rotations, translations, valid=None) -> "Trajectory":
        """Strictly increasing int64 ``frames``, a mask of their length and stacks derived
        from checked ones; only translations are tested."""
        frames = np.asarray(frames, dtype=np.int64)
        valid = np.ones(frames.shape, bool) if valid is None else np.asarray(valid, dtype=bool)
        rotations, translations = se3._frozen(rotations, translations)
        posed = frames[valid]
        for array in frames, valid, posed:
            array.setflags(write=False)
        traj = cls.__new__(cls)
        traj.__dict__.update(frame_array=frames, valid=valid, rotations=rotations,
                             translations=translations, _posed=posed)
        return traj

    @property
    def anchored(self) -> bool:
        """Whether the first pose is within 1e-9 of the identity, or no frame has a pose."""
        return bool(max(np.abs(self.rotations[:1] - np.eye(3)).max(initial=0.0),
                        np.abs(self.translations[:1]).max(initial=0.0)) <= 1e-9)

    def __setattr__(self, name, value):
        raise AttributeError(f"Trajectory is immutable; cannot set {name!r}")

    def __eq__(self, other) -> bool:
        """Exact equality of the four arrays, with no tolerance."""
        return isinstance(other, Trajectory) and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("frame_array", "valid", "rotations", "translations"))

    def __len__(self) -> int:
        return len(self.frame_array)

    def __iter__(self):
        """(frame, Pose view or None) rows in frame order, each built as the loop reaches it."""
        poses = map(se3.pose_view, self.rotations, self.translations)
        return ((i, next(poses) if ok else None)
                for i, ok in zip(self.frame_array.tolist(), self.valid.tolist()))

    def __contains__(self, frame_index) -> bool:
        """Whether the frame has a pose."""
        return bool(self._find([frame_index])[1][0])

    @property
    def indices(self) -> list[int]:
        """Every frame, with a pose or not, in order, as Python ints."""
        return self.frame_array.tolist()

    @property
    def poses(self) -> list[Pose]:
        """Read-only ``Pose`` views of the V stack rows, in frame order."""
        return list(map(se3.pose_view, self.rotations, self.translations))

    @property
    def frames(self) -> tuple[tuple[int, Pose | None], ...]:
        """The (frame, Pose view or None) rows of an iteration; ``poses`` has the views."""
        return tuple(self)

    def rows(self, frame_indices) -> np.ndarray:
        """Positions of the given frames in ``rotations``/``translations``."""
        frames = list(frame_indices)
        rows, found = self._find(frames)
        if np.count_nonzero(found) < len(found):
            raise KeyError(f"no frame {frames[found.argmin()]} with a pose in trajectory")
        return rows

    def pose_at(self, frame_index: int) -> Pose:
        """Read-only ``Pose`` view of one frame; KeyError if the frame has no pose."""
        row = self.rows([frame_index])[0]
        return se3.pose_view(self.rotations[row], self.translations[row])

    @functools.cached_property     # stored in __dict__, past the immutability guard
    def _steps(self) -> np.ndarray:
        """Read-only split 6-vectors log(T_{i-1}^-1 T_i) between consecutive rows of the
        pose stacks, computed on first use.  Never raises: a step between far poses
        may overflow to a non-finite value, which only the slices that hold it show."""
        with np.errstate(over="ignore", invalid="ignore"):
            steps = se3.log_rt(*se3.relative_rt(self.rotations[:-1], self.translations[:-1],
                                                self.rotations[1:], self.translations[1:]))
        steps.setflags(write=False)
        return steps

    def window_starts(self, w: int) -> list[int]:
        """Frames t, in order, for which every frame t..t+w has a pose: those whose
        posed frame w positions later is t + w, as frames strictly increase."""
        w = _check_index("window length", w, least=0)
        starts = self._posed[:max(len(self._posed) - w, 0)]
        return starts[self._posed[w:] - starts == w].tolist()

    def _find(self, frames, offset: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Stack rows of the frames ``frames`` + ``offset``, and whether each has a pose
        (see the module docstring); what :func:`_frames` does not count finds nothing."""
        queries, ok = _frames(frames, offset)
        rows = np.searchsorted(self._posed, queries)
        found = np.searchsorted(self._posed, queries, side="right") > rows
        return rows, found if ok is True else found & ok


def _frames(values, offset: int = 0) -> tuple[np.ndarray, np.ndarray | bool]:
    """``values`` + ``offset`` (an int within int64) as int64, and a mask of the values
    that count: Python or numpy integers, not bools, whose sum lies within int64 (the
    others' sums are arbitrary); True when every value counts without elementwise test."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        if values.dtype == np.int64 and not offset:
            return values, True
        ok = (values >= -2 ** 63 - offset) & (values <= 2 ** 63 - 1 - offset)
        return values.astype(np.int64) + offset, ok     # wraps only where ok is False
    values = values.tolist() if isinstance(values, np.ndarray) else values
    kinds = set(map(type, values))
    if kinds == {int} or all(issubclass(kind, np.integer) for kind in kinds - {int}):
        try:
            return np.array([int(v) + offset for v in values] if offset else values, np.int64), True
        except OverflowError:   # a value past int64, masked below
            pass
    ok = np.array([_is_index(v) and -2 ** 63 <= int(v) + offset < 2 ** 63 for v in values], bool)
    return np.array([int(v) + offset if good else 0 for v, good in zip(values, ok)], np.int64), ok


def _frame_keys(values) -> np.ndarray:
    """A read-only int64 copy of the frames ``values``; ValueError naming the first value
    that :func:`_frames` does not count."""
    frames, ok = _frames(values)
    if not np.all(ok):
        bad = values[np.argmin(ok)]
        raise ValueError(f"frame index {bad} is outside int64" if _is_index(bad) else
                         f"frame indices must be integers; frame index {bad!r} "
                         "is not an integer")
    frames = frames.copy()
    frames.setflags(write=False)
    return frames


def _is_index(value) -> bool:
    """Whether ``value`` is an integer, Python or numpy, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_index(name: str, value, least: int | None = None) -> int:
    """``value`` as an int; ValueError naming it unless an integer (not bool) >= least in int64."""
    if not _is_index(value) or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    if not -2 ** 63 <= value < 2 ** 63:
        raise ValueError(f"{name} {value} is outside int64")
    return int(value)


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
        """The read-only (k, 6) action array itself, not a copy."""
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
    return Trajectory._trusted(traj.frame_array,
                               *se3.compose_rt(*first_inv, traj.rotations, traj.translations),
                               traj.valid)


def extract_actions(traj: Trajectory, t: int, k: int) -> ActionSequence:
    """Incremental actions log(T_{t+i-1}^-1 T_{t+i}) for i = 1..k: the read-only
    slice of the trajectory's steps from frame t, checked finite.

    Requires frames t..t+k all to have a pose, and integers t and k >= 1.
    """
    _check_index("window start t", t)
    k = _check_index("horizon k", k, least=1)
    rows, found = traj._find([t], k)    # t..t+k all have poses iff t + k has one
    end = rows[0]                       # and t has the one k rows before it
    if not found[0] or end < k or traj._posed[end - k] != t:
        raise ValueError(f"window out of range: frames {t}..{int(t) + k} not all present")
    steps = traj._steps[end - k:end]
    if not np.isfinite(steps).all():
        raise ValueError("action delta has non-finite components")
    return ActionSequence(steps)


def write_trajectory_file(path, rows) -> None:
    """Write a Trajectory, or (frame, Pose | None) rows, as CSV, formatted from one list
    per column; a frame without a pose is a nan row.  Raises ValueError naming the file,
    and writes nothing, when the frames are not integers within int64 or do not
    strictly increase."""
    try:
        traj = as_trajectory(rows)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    vectors = np.full((len(traj), 6), np.nan)
    vectors[traj.valid] = se3.log_rt(traj.rotations, traj.translations)
    write_table(path, TRAJECTORY_HEADER, TRAJECTORY_ROW, zip(traj.indices, *vectors.T.tolist()))


def _first_bad_row(path, rows) -> ValueError | None:
    """The error of the first row with a bad frame or field, or None if no row has one."""
    previous = None
    for number, (frame, *fields) in enumerate(rows, start=2):
        where = f"{path}, line {number}"
        try:
            value = parse_int("frame", frame)
        except ValueError as exc:
            return ValueError(f"{where}: {exc}")
        if previous is not None and value <= previous:
            return ValueError(f"{where}: frame {frame} does not follow frame {previous}")
        try:
            list(map(float, fields))
        except ValueError as exc:
            return ValueError(f"{where}: {exc}")
        previous = value


def read_trajectory_file(path) -> Trajectory:
    """Read a trajectory file; frames of non-finite rows have no pose.

    Raises ValueError naming the file and line for a frame that is not an
    integer, lies outside int64 or does not strictly increase, and for a
    non-numeric field (found by a second scan, made only when the checks of all
    rows at once fail); and naming the file for a pose that fails the full stack
    check.
    """
    rows = read_table(path, TRAJECTORY_HEADER)
    frames = [row[0] for row in rows]
    try:
        vectors = np.array(list(map(float, itertools.chain.from_iterable(rows))))
        indices = list(map(int, frames))
    except ValueError:
        raise _first_bad_row(path, rows) from None
    if not _INTEGER_LINES.fullmatch("\n".join(frames + [""])):
        raise _first_bad_row(path, rows)
    vectors = vectors.reshape(-1, 7)[:, 1:]     # the frame column parsed as a float, too
    valid = np.isfinite(vectors).all(axis=1)
    try:
        with np.errstate(over="ignore", invalid="ignore"):    # a huge angle overflows
            return Trajectory.from_stacks(indices, *se3.exp_rt(vectors[valid]), valid)
    except ValueError as exc:   # a bad frame has a line; a bad pose, only the file
        raise _first_bad_row(path, rows) or ValueError(f"{path}: {exc}") from None


def rows_to_trajectory(rows) -> Trajectory:
    """The frames of a Trajectory, or of (frame, Pose | None) rows, that have a pose."""
    traj = as_trajectory(rows)
    return Trajectory._trusted(traj._posed, traj.rotations, traj.translations)
