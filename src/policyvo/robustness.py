"""Image-condition difficulty scores and quartile-stratified error reporting.

Two per-window scores approximate imaging difficulty: the masked mean Sobel
gradient magnitude of the window's source frame (texture richness) and the
absolute change of masked mean intensity across the window (illumination
change).  Windows are then binned by the global 25th/75th percentiles of
each score and translation RPE is reported per bin.

Intensities live in [0, 1], so scores are unitless fractions (per pixel for
the gradient score).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evaluation import RPERecord
from .tables import read_table, write_table
from .world import Observation

SCORES_HEADER = "sequence,t,w,s_texture,s_dillum"

SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
SOBEL_Y = SOBEL_X.T


@dataclass(frozen=True)
class WindowScore:
    sequence: str
    t: int
    w: int
    s_texture: float
    s_dillum: float

    def __post_init__(self):
        if self.s_texture < 0.0 or self.s_dillum < 0.0:
            raise ValueError("scores must be non-negative")

    @property
    def key(self) -> tuple[str, int, int]:
        return (self.sequence, self.t, self.w)


@dataclass(frozen=True)
class BinStats:
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

    @property
    def texture_gap(self) -> float:
        return abs(self.texture_high.mean - self.texture_low.mean)

    @property
    def dillum_gap(self) -> float:
        return abs(self.dillum_high.mean - self.dillum_low.mean)


def _interior_valid(mask: np.ndarray) -> np.ndarray:
    """Pixels whose full 3x3 stencil lies inside the mask (and the image)."""
    h, w = mask.shape
    valid = np.zeros_like(mask)
    if h < 3 or w < 3:
        return valid
    core = np.ones((h - 2, w - 2), dtype=bool)
    for dy in range(3):
        for dx in range(3):
            core &= mask[dy:dy + h - 2, dx:dx + w - 2]
    valid[1:-1, 1:-1] = core
    return valid


def _convolve3(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """3x3 convolution, valid only on interior pixels (borders stay zero)."""
    out = np.zeros_like(image)
    acc = np.zeros((image.shape[0] - 2, image.shape[1] - 2))
    for dy in range(3):
        for dx in range(3):
            # Convolution flips the kernel relative to correlation.
            tap = kernel[2 - dy, 2 - dx]
            if tap != 0.0:      # adding 0 * x changes at most the sign of a zero
                acc += tap * image[dy:dy + image.shape[0] - 2, dx:dx + image.shape[1] - 2]
    out[1:-1, 1:-1] = acc
    return out


def texture_score(obs: Observation) -> float:
    """Masked mean Sobel gradient magnitude of one frame.

    Only pixels whose whole 3x3 Sobel stencil lies inside the mask count;
    pixels with stencil overhang are excluded from the average.
    """
    if not np.any(obs.mask):
        raise ValueError("empty mask")
    valid = _interior_valid(obs.mask)
    if not np.any(valid):
        raise ValueError("empty mask interior for the Sobel stencil")
    gx = _convolve3(obs.image, SOBEL_X)
    gy = _convolve3(obs.image, SOBEL_Y)
    magnitude = np.sqrt(gx * gx + gy * gy)
    return float(magnitude[valid].mean())


def illum_change_score(obs_t: Observation, obs_tk: Observation) -> float:
    """Absolute change of masked mean intensity from the start frame to the end."""
    if not np.array_equal(obs_t.mask, obs_tk.mask):
        raise ValueError("mask mismatch between window endpoints")
    if not np.any(obs_t.mask):
        raise ValueError("empty mask")
    return float(abs(obs_tk.image[obs_tk.mask].mean() - obs_t.image[obs_t.mask].mean()))


def score_window(sequence: str, t: int, w: int, obs_t: Observation,
                 obs_tw: Observation) -> WindowScore:
    return WindowScore(sequence, t, w,
                       texture_score(obs_t),
                       illum_change_score(obs_t, obs_tw))


def _percentile(values: np.ndarray, q: float) -> float:
    # Linear interpolation between closest ranks (numpy's default).
    return float(np.percentile(values, q, method="linear"))


def _bin_stats(errors: np.ndarray) -> BinStats:
    return BinStats(float(errors.mean()), float(errors.std()), len(errors))


def stratify(window_scores: list[WindowScore],
             rpe_records: list[RPERecord]) -> StratifiedReport:
    """Quartile-stratified translation RPE for both difficulty scores.

    Thresholds are the 25th/75th percentiles (linear interpolation) of the
    scores of the windows that carry an RPE record; scored windows without a
    record (e.g. where VO gave no pose) do not move them.  The low bin takes
    score <= P25, the high bin score >= P75 (ties included).  Every RPE
    record must have a matching score keyed by (sequence, t, w).
    """
    if len(window_scores) < 4:
        raise ValueError("insufficient windows: need at least 4")
    by_key = {s.key: s for s in window_scores}
    missing = [r for r in rpe_records if (r.sequence, r.t, r.w) not in by_key]
    if missing:
        head = ", ".join(f"({r.sequence},{r.t},{r.w})" for r in missing[:10])
        raise ValueError(f"records without matching scores: {head}")
    if len(rpe_records) < 4:
        raise ValueError("insufficient windows: need at least 4")

    errors = np.array([r.trans_err for r in rpe_records])
    bins = {}
    degenerate = {}
    for attr in ("s_texture", "s_dillum"):
        scores = np.array([getattr(by_key[(r.sequence, r.t, r.w)], attr)
                           for r in rpe_records])
        low_thresh = _percentile(scores, 25.0)
        high_thresh = _percentile(scores, 75.0)
        low = scores <= low_thresh
        high = scores >= high_thresh
        degenerate[attr] = bool(low_thresh == high_thresh)
        bins[attr] = (_bin_stats(errors[low]), _bin_stats(errors[high]))

    return StratifiedReport(
        texture_low=bins["s_texture"][0],
        texture_high=bins["s_texture"][1],
        dillum_low=bins["s_dillum"][0],
        dillum_high=bins["s_dillum"][1],
        degenerate_texture=degenerate["s_texture"],
        degenerate_dillum=degenerate["s_dillum"],
    )


def format_stratified_report(report: StratifiedReport) -> str:
    """Plain-text table: Low / High / |gap| per artifact."""
    def row(name, low, high, gap, degenerate):
        flag = "  [degenerate: all scores equal]" if degenerate else ""
        return (f"{name:<12} {low.mean:>8.4f} ± {low.std:<8.4f} (n={low.count:>4}) "
                f"{high.mean:>8.4f} ± {high.std:<8.4f} (n={high.count:>4}) "
                f"{gap:>8.4f}{flag}")

    lines = ["Stratified translation RPE (mm): low vs high difficulty quartiles",
             f"{'artifact':<12} {'low bin':>21}          {'high bin':>21}          {'|gap|':>8}",
             row("texture", report.texture_low, report.texture_high,
                 report.texture_gap, report.degenerate_texture),
             row("d_illum", report.dillum_low, report.dillum_high,
                 report.dillum_gap, report.degenerate_dillum)]
    return "\n".join(lines) + "\n"


def write_scores_csv(path, scores: list[WindowScore]) -> None:
    write_table(path, SCORES_HEADER,
                ((s.sequence, s.t, s.w, s.s_texture, s.s_dillum) for s in scores))


def read_scores_csv(path) -> list[WindowScore]:
    return [WindowScore(seq, int(t), int(w), float(s_texture), float(s_dillum))
            for seq, t, w, s_texture, s_dillum in read_table(path, SCORES_HEADER)]
