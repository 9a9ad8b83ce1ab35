"""Correctness checks on a pass's outputs.

Three kinds of check feed the failed-evaluation count:

* an independent oracle recomputes a sample of windows' RPE from 4x4
  homogeneous matrices, without ``policyvo.se3`` or ``Trajectory.pose_at``;
  from the same matrices it checks a sample of the action windows
  (``extract_actions``, ``window_samples``) and of the anchored poses;
* ground truth scored against itself must give zero error;
* a digest of each unit (per-method RPE summaries, record counts, coverage,
  sums of the action, state and anchored-pose values)
  and of the pass's stratified bins must match the stored reference at the
  default seed, and must repeat exactly on every later pass of the same run.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from policyvo import evaluation as ev

import workloads as wl

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Tolerances.  RPE values are compared to the oracle to 1e-6 mm and 1e-5 deg
# (the rotation error uses arccos, whose noise floor near zero is about
# sqrt(machine eps) = 1.5e-8 rad = 8.5e-7 deg).  Actions, window states and
# anchored poses are compared as 4x4 matrices, entry by entry, to 1e-9 (mm for
# the translation column).  Against the stored reference a float may differ by
# 1e-6 relative plus 1e-9 absolute; counts must be equal.
ORACLE_TRANS_MM = 1e-6
ORACLE_ROT_DEG = 1e-5
ORACLE_MATRIX = 1e-9
SELF_TRANS_MM = 1e-9
SELF_ROT_DEG = 1e-5
REF_RTOL = 1e-6
REF_ATOL = 1e-9
ORACLE_SAMPLE = 16


def _sums(vectors) -> list[float]:
    """Sums of the translation parts and of the rotation parts of split 6-vectors."""
    arr = np.asarray(list(vectors), dtype=np.float64).reshape(-1, 6)
    return [float(arr[:, :3].sum()), float(arr[:, 3:].sum())]


def unit_digest(out) -> dict:
    """Numbers that summarize one unit's evaluation, for exact comparison."""
    digest = {"valid": out.valid, "total": out.total, "actions": len(out.actions),
              "action_sums": _sums(row for a in out.actions.values() for row in a.as_array()),
              "state_sums": _sums(out.states.values()),
              "scores": len(out.scores), "methods": {}}
    if out.anchored is not None:
        poses = out.anchored.poses
        digest["anchored_sums"] = [float(np.sum([p.translation for p in poses])),
                                   float(np.sum([p.rotation for p in poses]))]
    for method, records in sorted(out.records.items()):
        entry = {"count": len(records)}
        if records:
            s = ev.summarize(records)
            entry.update(trans_mean=s.trans_mean, trans_std=s.trans_std,
                         rot_mean=s.rot_mean, rot_std=s.rot_std)
        digest["methods"][method] = entry
    return digest


def report_digest(report) -> dict | None:
    if report is None:
        return None
    bins = {}
    for name in ("texture_low", "texture_high", "dillum_low", "dillum_high"):
        b = getattr(report, name)
        bins[name] = {"mean": b.mean, "std": b.std, "count": b.count}
    return bins


def pass_digest(out) -> dict:
    return {"units": [unit_digest(u) for u in out.units], "stratified": report_digest(out.report)}


def _matrix(pose) -> np.ndarray:
    m = np.eye(4)
    m[:3, :3] = pose.rotation
    m[:3, 3] = pose.translation
    return m


def _angle_deg(rotation: np.ndarray) -> float:
    """Rotation angle from the skew part and the trace, via atan2."""
    skew = rotation - rotation.T
    sin_angle = 0.5 * math.sqrt(skew[2, 1] ** 2 + skew[0, 2] ** 2 + skew[1, 0] ** 2)
    return math.degrees(math.atan2(sin_angle, 0.5 * (np.trace(rotation) - 1.0)))


def _rodrigues(v: np.ndarray) -> np.ndarray:
    """Rotation matrix of a rotation vector."""
    angle = float(np.linalg.norm(v))
    k = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    if angle < 1e-8:
        return np.eye(3) + k + 0.5 * k @ k
    return np.eye(3) + math.sin(angle) / angle * k + (1.0 - math.cos(angle)) / angle ** 2 * k @ k


def _vector_matrix(vec6) -> np.ndarray:
    """4x4 matrix of a split 6-vector (translation, rotation vector)."""
    vec6 = np.asarray(vec6, dtype=np.float64)
    m = np.eye(4)
    m[:3, :3] = _rodrigues(vec6[3:])
    m[:3, 3] = vec6[:3]
    return m


def _off(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want)))


def check_actions(out, source: dict, rng: np.random.Generator) -> list[str]:
    """Sampled action windows, window states and anchored poses against 4x4 matrices.

    ``source`` maps frame -> 4x4 matrix of the poses the actions were cut
    from, before anchoring.  Action i of the window at t must be
    inv(T_{t+i-1}) T_{t+i}; a state or anchored pose at t must be
    inv(T_first) T_t.
    """
    problems = []
    first_inv = np.linalg.inv(source[min(source)])
    starts = sorted(out.actions)
    for t in rng.permutation(starts)[:ORACLE_SAMPLE] if starts else []:
        t = int(t)
        deltas = out.actions[t].as_array()
        if len(deltas) != wl.K:
            problems.append(f"{out.name}: window t={t} has {len(deltas)} actions, not {wl.K}")
            continue
        for i, delta in enumerate(deltas, start=1):
            want = np.linalg.inv(source[t + i - 1]) @ source[t + i]
            if _off(_vector_matrix(delta), want) > ORACLE_MATRIX:
                problems.append(f"{out.name}: action {i} of window t={t} differs from the oracle")
        if t in out.states and _off(_vector_matrix(out.states[t]),
                                    first_inv @ source[t]) > ORACLE_MATRIX:
            problems.append(f"{out.name}: state of window t={t} differs from the oracle")
    if out.anchored is not None:
        frames = out.anchored.frames
        if frames[0][0] != min(source):
            problems.append(f"{out.name}: anchored estimate starts at frame {frames[0][0]}")
        for j in rng.permutation(len(frames))[:ORACLE_SAMPLE]:
            i, pose = frames[int(j)]
            if _off(_matrix(pose), first_inv @ source[i]) > ORACLE_MATRIX:
                problems.append(f"{out.name}: anchored pose of frame {i} differs from the oracle")
    return problems


def oracle_errors(window, gt_matrices: dict) -> tuple[float, float]:
    """(trans mm, rot deg) of one predicted window from 4x4 matrices."""
    gt = np.linalg.inv(gt_matrices[window.t]) @ gt_matrices[window.t + window.w]
    pred = _matrix(window.delta)
    trans = float(np.linalg.norm(pred[:3, 3] - gt[:3, 3]))
    return trans, _angle_deg(pred[:3, :3].T @ gt[:3, :3])


def check_unit(out, unit, rng: np.random.Generator) -> list[str]:
    """Problems found in one unit's outputs; empty when it is correct.

    ``unit`` is the ``workloads.Unit`` the outputs were computed from.
    """
    if out.error:
        return [f"{out.name}: raised {out.error}"]
    problems = []
    if not 0 <= out.valid <= out.total:
        problems.append(f"{out.name}: coverage {out.valid}/{out.total} out of range")
    gt_matrices = {i: _matrix(p) for i, p in unit.gt.frames}
    if unit.estimate is None:
        problems += check_actions(out, gt_matrices, rng)
    else:
        problems += check_actions(out, {i: _matrix(p) for i, p in unit.estimate if p is not None},
                                  rng)
    for method, records in out.records.items():
        windows = out.windows[method]
        if len(records) != len(windows):
            problems.append(f"{out.name}/{method}: {len(records)} records "
                            f"for {len(windows)} windows")
            continue
        if not records:
            continue
        picks = rng.choice(len(records), size=min(ORACLE_SAMPLE, len(records)), replace=False)
        for j in picks:
            rec, win = records[j], windows[j]
            trans, rot = oracle_errors(win, gt_matrices)
            if (rec.t, rec.w) != (win.t, win.w) or not (
                    abs(rec.trans_err - trans) <= ORACLE_TRANS_MM
                    and abs(rec.rot_err - rot) <= ORACLE_ROT_DEG):
                problems.append(f"{out.name}/{method} t={rec.t}: rpe ({rec.trans_err:.9g}, "
                                f"{rec.rot_err:.9g}) != oracle ({trans:.9g}, {rot:.9g})")
    return problems


def check_self_zero(gt, name: str, frames: int = 64) -> list[str]:
    """Ground truth scored against itself must give zero error."""
    rows = list(gt.frames)[:frames]
    windows = ev.windows_from_rows(rows, name, 8)
    records, summary = ev.rpe(windows, {name: gt}, 8)
    worst_t = max(r.trans_err for r in records)
    worst_r = max(r.rot_err for r in records)
    if worst_t > SELF_TRANS_MM or worst_r > SELF_ROT_DEG:
        return [f"{name}: ground truth against itself gives ({worst_t:.3g} mm, {worst_r:.3g} deg)"]
    return []


def compare(actual, expected, path: str = "") -> list[str]:
    """Differences between two digests beyond the reference tolerance."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{path}: keys {sorted(actual or {})} != {sorted(expected)}"]
        return [p for k in expected for p in compare(actual[k], expected[k], f"{path}/{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: length differs"]
        return [p for i, (a, e) in enumerate(zip(actual, expected))
                for p in compare(a, e, f"{path}[{i}]")]
    if isinstance(expected, int) or expected is None:
        return [] if actual == expected else [f"{path}: {actual!r} != {expected!r}"]
    if abs(actual - expected) <= REF_ATOL + REF_RTOL * abs(expected):
        return []
    return [f"{path}: {actual!r} != {expected!r}"]


def load_reference() -> dict:
    if not REFERENCE_PATH.exists():
        return {}
    return json.loads(REFERENCE_PATH.read_text())
