"""Desk-scale policy-based camera pose recovery toolkit."""

__version__ = "0.1.0"

from .se3 import Pose, compose, exp, geodesic_angle, inverse, log, random_pose
from .trajectory import (
    ActionSequence,
    NormStats,
    Trajectory,
    anchor,
    compose_window,
    extract_actions,
    fit_norm_stats,
)

__all__ = [
    "Pose",
    "compose",
    "inverse",
    "exp",
    "log",
    "geodesic_angle",
    "random_pose",
    "Trajectory",
    "ActionSequence",
    "NormStats",
    "anchor",
    "extract_actions",
    "compose_window",
    "fit_norm_stats",
]
