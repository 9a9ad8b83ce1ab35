"""Desk-scale policy-based camera pose recovery toolkit."""

__version__ = "0.1.0"

from .se3 import Pose, compose, exp, geodesic_angle, inverse, log, random_pose
from .trajectory import ActionSequence, Trajectory, anchor, extract_actions

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
    "anchor",
    "extract_actions",
]
