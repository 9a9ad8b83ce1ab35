"""Image-condition difficulty scores and quartile-stratified error reporting.

Two per-window scores approximate imaging difficulty, both over the camera's
field of view: the mean Sobel gradient magnitude of the window's source frame
(texture richness) and the absolute change of mean intensity across the
window (illumination change).  Windows are then binned by the global
25th/75th percentiles of each score and translation RPE is reported per bin.

Intensities live in [0, 1], so scores are unitless fractions (per pixel for
the gradient score).

On the synthetic tube world the "texture" score tracks exposure more than
texture: under the headlight, a frame's gradient magnitude scales with its
brightness, and on the benchmark's frames the score correlates 0.996-0.998
with the frame's masked mean intensity.  Its bins therefore sort windows by
headlight exposure; eight-point VO, whose features come from an albedo gate
and not from the rendered image, does not see it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .evaluation import RPERecord, _check_row, _read_window_rows
from .tables import write_table
from .world import Observation, circular_mask

SCORES_HEADER = "sequence,t,w,s_texture,s_dillum"
SCORES_ROW = "%s,%d,%d,%.17g,%.17g"

@dataclass(frozen=True)
class WindowScore:
    """Difficulty scores of window t..t+w of a sequence: ``s_texture``, the texture
    score of frame t, and ``s_dillum``, the illumination change to frame t+w (both
    unitless).  ValueError for a field a scores file would not read back as is: a name
    ``tables.check_name`` refuses, a t or w >= 0 that is not an integer within int64
    (bools are not), or a score that is negative or not finite."""

    sequence: str
    t: int
    w: int
    s_texture: float
    s_dillum: float

    def __post_init__(self):
        _check_row("scores", self.sequence, self.t, self.w, self.s_texture, self.s_dillum)

    @property
    def key(self) -> tuple[str, int, int]:
        """(sequence, t, w), the key an ``RPERecord`` of the same window matches."""
        return (self.sequence, self.t, self.w)


@dataclass(frozen=True)
class BinStats:
    """Mean and population standard deviation (ddof 0) of the translation errors (mm)
    of the ``count`` windows in one score bin."""

    mean: float
    std: float
    count: int


@dataclass(frozen=True)
class StratifiedReport:
    """Low/high-quartile translation RPE per difficulty score."""

    texture_low: BinStats
    texture_high: BinStats
    dillum_low: BinStats
    dillum_high: BinStats
    degenerate_texture: bool
    degenerate_dillum: bool


@functools.lru_cache
def _sobel_region(width: int) -> np.ndarray:
    """Which elements of :func:`texture_score`'s tap slices of a ``width``-pixel frame are
    pixels whose whole 3x3 Sobel stencil lies in its field of view; cached, read-only."""
    mask = circular_mask(width)
    rows = mask[:, :-2] & mask[:, 1:-1] & mask[:, 2:]       # 3-wide erosion, then 3-tall
    valid = rows[:-2] & rows[1:-1] & rows[2:]
    if not np.any(valid):
        raise ValueError("empty mask interior for the Sobel stencil")
    # Element p = y * width + x of the slice that starts at dy * width + dx is
    # pixel (y + dy, x + dx): for x < width - 2 the slices are the stencil of
    # pixel (y + 1, x + 1), and the other p wrap across a row end and are dropped.
    keep = np.zeros((width - 2, width), bool)
    keep[:, :-2] = valid
    region = keep.ravel()[:(width - 2) * width - 2]
    region.setflags(write=False)
    return region


def texture_score(obs: Observation) -> float:
    """Mean Sobel gradient magnitude of one frame over the pixels whose whole 3x3
    stencil lies inside its field of view.

    Each gradient adds its six non-zero taps (+-1 and +-2, so every product is exact)
    as contiguous slices of the flat image, in the convolution's order.  ValueError
    ("empty mask interior") for a frame size where no pixel's stencil fits.
    """
    width = len(obs.image)
    region = _sobel_region(width)
    n = len(region)
    flat = obs.image.ravel()

    def tap(dy, dx):
        return flat[dy * width + dx:dy * width + dx + n]

    gx = tap(0, 0) - tap(0, 2)
    gx += 2.0 * tap(1, 0)
    gx -= 2.0 * tap(1, 2)
    gx += tap(2, 0)
    gx -= tap(2, 2)
    gy = tap(0, 0) + 2.0 * tap(0, 1)
    gy += tap(0, 2)
    gy -= tap(2, 0)
    gy -= 2.0 * tap(2, 1)
    gy -= tap(2, 2)
    gx *= gx
    gy *= gy
    gx += gy
    return float(np.sqrt(gx[region]).mean())


def illum_change_score(obs_t: Observation, obs_tk: Observation) -> float:
    """Absolute change of mean intensity over the field of view from the start frame to
    the end; ValueError for end frames of two different sizes."""
    if obs_t.image.shape != obs_tk.image.shape:
        raise ValueError(f"window endpoints differ in size: "
                         f"{obs_t.image.shape} and {obs_tk.image.shape}")
    mask = obs_t.mask
    return float(abs(obs_tk.image[mask].mean() - obs_t.image[mask].mean()))


def score_window(sequence: str, t: int, w: int, obs_t: Observation,
                 obs_tw: Observation) -> WindowScore:
    """Both scores of window t..t+w from its two end frames; raises ValueError for a
    frame size with no pixel whose Sobel stencil lies in the field of view, or for end
    frames of two different sizes."""
    return WindowScore(sequence, t, w,
                       texture_score(obs_t),
                       illum_change_score(obs_t, obs_tw))


def _bin_stats(errors: np.ndarray) -> BinStats:
    return BinStats(float(errors.mean()), float(errors.std()), len(errors))


def stratify(window_scores: list[WindowScore],
             rpe_records: list[RPERecord]) -> StratifiedReport:
    """Quartile-stratified translation RPE for both difficulty scores.

    Thresholds are the 25th/75th percentiles (linear interpolation) of the
    scores of the windows that carry an RPE record; scored windows without a
    record (e.g. where VO gave no pose) do not move them.  The low bin takes
    score <= P25, the high bin score >= P75 (ties included).  Every RPE
    record must have a matching score keyed by (sequence, t, w), and no key
    may be scored twice.
    """
    if len(window_scores) < 4:
        raise ValueError("insufficient windows: need at least 4")
    by_key = {}
    for s in window_scores:
        if s.key in by_key:
            raise ValueError("duplicate scores for window ({},{},{})".format(*s.key))
        by_key[s.key] = s
    keyed = [((r.sequence, r.t, r.w), r.trans_err) for r in rpe_records]   # the one pass over them
    missing = [key for key, _ in keyed if key not in by_key]
    if missing:
        head = ", ".join("({},{},{})".format(*key) for key in missing[:10])
        raise ValueError(f"records without matching scores: {head}")
    if len(keyed) < 4:
        raise ValueError("insufficient windows: need at least 4")

    errors = np.array([error for _, error in keyed])
    bins = {}
    degenerate = {}
    for attr in ("s_texture", "s_dillum"):
        scores = np.array([getattr(by_key[key], attr) for key, _ in keyed])
        low_thresh, high_thresh = np.percentile(scores, (25.0, 75.0), method="linear").tolist()
        low = scores <= low_thresh
        high = scores >= high_thresh
        degenerate[attr] = bool(low_thresh == high_thresh)
        bins[attr] = (_bin_stats(errors[low]), _bin_stats(errors[high]))

    return StratifiedReport(*bins["s_texture"], *bins["s_dillum"],
                            degenerate["s_texture"], degenerate["s_dillum"])


def write_scores_csv(path, scores: list[WindowScore]) -> None:
    """Write scores as a CSV table with header ``SCORES_HEADER``; floats keep 17
    digits, and every score reads back equal."""
    write_table(path, SCORES_HEADER, SCORES_ROW,
                ((s.sequence, s.t, s.w, s.s_texture, s.s_dillum) for s in scores))


def read_scores_csv(path) -> list[WindowScore]:
    """Scores of a CSV file written by :func:`write_scores_csv`, bit for bit.  Raises
    ValueError naming the file for a bad header, and the file and line for a row with
    a missing, extra or empty field, a field that does not parse, or values that fail
    the ``WindowScore`` checks."""
    return _read_window_rows(path, SCORES_HEADER, WindowScore)
