import math
import re

import numpy as np
import pytest

from policyvo import robustness as rb
from policyvo.evaluation import RPERecord
from policyvo.world import (
    Camera,
    MotionProfile,
    Observation,
    circular_mask,
    generate_trajectory,
    make_tube_scene,
    render,
)


class TestWindowScore:
    @pytest.mark.parametrize("bad", [-1e-300, math.nan, math.inf, -math.inf])
    def test_negative_and_non_finite_scores_rejected(self, bad):
        for s_texture, s_dillum in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(ValueError, match="scores must be finite and >= 0"):
                rb.WindowScore("s", 0, 8, s_texture, s_dillum)

    def test_zero_and_large_scores_accepted(self):
        assert rb.WindowScore("s", 0, 8, 0.0, 1e300).s_dillum == 1e300

    @pytest.mark.parametrize("t, w, message", [
        (1.5, 8, "window start t must be an integer, got 1.5"),
        (True, 8, "window start t must be an integer, got True"),
        (1, np.bool_(True), "window length must be an integer >= 0, got np.True_"),
        (1, -3, "window length must be an integer >= 0, got -3"),
        (2 ** 70, 8, f"window start t {2 ** 70} is outside int64"),
        (0, 2 ** 64, f"window length {2 ** 64} is outside int64")])
    def test_non_integer_key_or_negative_length_rejected(self, t, w, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            rb.WindowScore("s", t, w, 0.1, 0.2)


class TestScoresCSV:
    def test_round_trip(self, tmp_path):
        scores = [rb.WindowScore("seq_000", 3, 8, 0.1, 1.0 / 3.0),
                  rb.WindowScore("seq_001", 0, 8, 0.0, 0.0)]
        path = tmp_path / "scores.csv"
        rb.write_scores_csv(path, scores)
        assert path.read_text().splitlines()[0] == rb.SCORES_HEADER
        assert rb.read_scores_csv(path) == scores

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("sequence,t,w,s_texture\nseq_000,3,8,0.1\n")
        with pytest.raises(ValueError, match="header"):
            rb.read_scores_csv(path)

    def test_truncated_row_names_file(self, tmp_path):
        path = tmp_path / "scores.csv"
        rb.write_scores_csv(path, [rb.WindowScore("seq_000", 3, 8, 0.1, 0.2)])
        text = path.read_text()
        path.write_text(text[:text.rstrip().rfind(",")])
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 2")):
            rb.read_scores_csv(path)


def masked(values, mask):
    return Observation(np.where(mask, values, 0.0), mask)


SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
SOBEL_Y = SOBEL_X.T


def nine_and_interior_valid(mask):
    """Reference stencil mask: pixels whose 3x3 stencil lies inside the mask (and the image)."""
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


def nine_tap_texture_score(obs):
    gx = nine_tap_convolve3(obs.image, SOBEL_X)
    gy = nine_tap_convolve3(obs.image, SOBEL_Y)
    return float(np.sqrt(gx * gx + gy * gy)[nine_and_interior_valid(obs.mask)].mean())


def nine_tap_convolve3(image, kernel):
    """Reference 3x3 convolution that multiplies and adds every tap, zeros included."""
    acc = np.zeros((image.shape[0] - 2, image.shape[1] - 2))
    for dy in range(3):
        for dx in range(3):
            acc += kernel[2 - dy, 2 - dx] * image[dy:dy + image.shape[0] - 2,
                                                  dx:dx + image.shape[1] - 2]
    out = np.zeros_like(image)
    out[1:-1, 1:-1] = acc
    return out


def records_and_scores(texture, dillum, errors):
    scores = [rb.WindowScore("s", t, 8, x, y) for t, (x, y) in enumerate(zip(texture, dillum))]
    records = [RPERecord("s", t, 8, e, 0.0) for t, e in enumerate(errors)]
    return scores, records


class TestScores:
    def test_texture_score_of_a_linear_ramp(self):
        # I = a x + b y + c: every Sobel response on the interior is (8a, 8b)
        # up to the convolution's sign, so the masked mean magnitude is 8 |(a, b)|.
        mask = circular_mask(24, 10.0)
        yy, xx = np.mgrid[0:24, 0:24]
        obs = masked(0.01 * xx + 0.02 * yy + 0.1, mask)
        assert rb.texture_score(obs) == pytest.approx(8.0 * math.hypot(0.01, 0.02), rel=1e-12)

    def test_texture_ignores_pixels_outside_the_mask(self):
        mask = circular_mask(24, 10.0)
        yy, xx = np.mgrid[0:24, 0:24]
        ramp = masked(0.01 * xx + 0.1, mask)
        assert rb.texture_score(ramp) == pytest.approx(0.08, rel=1e-12)
        with pytest.raises(ValueError, match="empty mask"):
            rb.texture_score(Observation(np.zeros((8, 8)), np.zeros((8, 8), dtype=bool)))

    def test_texture_score_equals_nine_tap_convolution(self):
        # Rendered frames, plus frames with exact zeros and constant runs,
        # where skipped 0 * x terms could only have changed the sign of a zero.
        scene = make_tube_scene(11)
        camera = Camera.default(64)
        frames = [render(scene, camera, pose).image for pose in
                  generate_trajectory(11, 4, MotionProfile(forward_speed=2.0)).poses]
        rng = np.random.default_rng(12)
        frames += [rng.choice([0.0, 0.25, 1.0], (64, 64)), np.zeros((64, 64))]
        mask = circular_mask(64, camera.mask_radius)
        for image in frames:
            obs = masked(image, mask)
            assert rb.texture_score(obs) == nine_tap_texture_score(obs)

    @pytest.mark.parametrize("shape, keep", [((64, 64), 0.9), ((40, 57), 0.95), ((3, 9), 1.0),
                                             ((17, 3), 1.0), ((30, 30), 0.8)])
    def test_texture_score_equals_nine_tap_convolution_on_random_masks(self, shape, keep):
        # Holes, ragged edges and masks that reach the image border, so a stencil
        # that wraps across a row end or leaves the image would be counted.
        rng = np.random.default_rng(shape[0] * shape[1])
        for _ in range(5):
            mask = rng.random(shape) < keep
            obs = masked(rng.uniform(0.0, 1.0, shape), mask)
            if not nine_and_interior_valid(mask).any():
                with pytest.raises(ValueError, match="empty mask interior"):
                    rb.texture_score(obs)
                continue
            assert rb.texture_score(obs) == nine_tap_texture_score(obs)

    @pytest.mark.parametrize("shape", [(2, 8), (8, 2), (1, 1)])
    def test_texture_score_of_a_frame_too_small_for_the_stencil(self, shape):
        with pytest.raises(ValueError, match="empty mask interior"):
            rb.texture_score(Observation(np.zeros(shape), np.ones(shape, dtype=bool)))

    def test_illum_change_of_two_constant_frames(self):
        mask = circular_mask(16, 7.0)
        dark, bright = masked(np.full((16, 16), 0.3), mask), masked(np.full((16, 16), 0.55), mask)
        assert rb.illum_change_score(dark, bright) == pytest.approx(0.25, abs=1e-15)
        assert rb.illum_change_score(bright, dark) == pytest.approx(0.25, abs=1e-15)
        with pytest.raises(ValueError, match="mask mismatch"):
            rb.illum_change_score(dark, masked(np.full((16, 16), 0.3), circular_mask(16, 6.0)))


class TestStratify:
    def test_quartile_bins_with_ties(self):
        # texture scores 1,2,2,2,3,4,5,6: P25 = 2 and P75 = 4.25, so the low bin
        # takes all three tied 2s and the 1, the high bin the 5 and the 6.
        errors = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0]
        scores, records = records_and_scores([1, 2, 2, 2, 3, 4, 5, 6], [0.5] * 8, errors)
        report = rb.stratify(scores, records)
        assert report.texture_low == rb.BinStats(25.0, float(np.std([10, 20, 30, 40])), 4)
        assert report.texture_high == rb.BinStats(75.0, 5.0, 2)
        assert not report.degenerate_texture

    def test_equal_scores_are_degenerate(self):
        errors = [1.0, 2.0, 3.0, 4.0, 5.0]
        scores, records = records_and_scores([0.2] * 5, [0.0, 0.1, 0.2, 0.3, 0.4], errors)
        report = rb.stratify(scores, records)
        assert report.degenerate_texture and not report.degenerate_dillum
        assert report.texture_low == report.texture_high == rb.BinStats(3.0, float(np.std(errors)), 5)
        assert report.dillum_low == rb.BinStats(1.5, 0.5, 2)
        assert report.dillum_high == rb.BinStats(4.5, 0.5, 2)

    def test_windows_without_a_record_do_not_move_the_thresholds(self):
        scores, records = records_and_scores([1, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1],
                                             [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        unscored_extra = rb.WindowScore("s", 99, 8, 100.0, 100.0)
        assert rb.stratify(scores + [unscored_extra], records) == rb.stratify(scores, records)

    def test_records_without_scores_rejected(self):
        scores, records = records_and_scores([1, 2, 3, 4], [1, 2, 3, 4], [1.0] * 4)
        with pytest.raises(ValueError, match=r"records without matching scores: \(s,9,8\)"):
            rb.stratify(scores, records + [RPERecord("s", 9, 8, 1.0, 0.0)])

    def test_duplicate_score_keys_rejected(self):
        scores, records = records_and_scores([1, 2, 3, 4], [1, 2, 3, 4], [1.0] * 4)
        with pytest.raises(ValueError, match=re.escape("duplicate scores for window (s,2,8)")):
            rb.stratify(scores + [rb.WindowScore("s", 2, 8, 9.0, 9.0)], records)

    def test_records_are_read_in_one_pass(self):
        class CountingList(list):
            iterations = 0

            def __iter__(self):
                CountingList.iterations += 1
                return super().__iter__()

        scores, records = records_and_scores([1, 2, 2, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1, 0, 0],
                                             [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0])
        counted = CountingList(records)
        assert rb.stratify(scores, counted) == rb.stratify(scores, records)
        assert CountingList.iterations == 1
