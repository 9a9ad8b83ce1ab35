"""Rotation matrices about the coordinate axes, and a hypothesis strategy of unit
rotation axes, for building test poses."""

import math

import numpy as np
from hypothesis import strategies as st

unit_axes = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(np.array).filter(
    lambda v: np.linalg.norm(v) > 1e-3).map(lambda v: v / np.linalg.norm(v))


def rot_x(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
