import math
import re

import numpy as np
import pytest

from policyvo import robustness as rb
from policyvo.evaluation import RPERecord
from policyvo.world import Observation, circular_mask


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
        assert report.texture_gap == pytest.approx(50.0)

    def test_equal_scores_are_degenerate(self):
        errors = [1.0, 2.0, 3.0, 4.0, 5.0]
        scores, records = records_and_scores([0.2] * 5, [0.0, 0.1, 0.2, 0.3, 0.4], errors)
        report = rb.stratify(scores, records)
        assert report.degenerate_texture and not report.degenerate_dillum
        assert report.texture_low == report.texture_high == rb.BinStats(3.0, float(np.std(errors)), 5)
        assert report.texture_gap == 0.0
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

    def test_format_stratified_report(self):
        report = rb.StratifiedReport(rb.BinStats(1.0, 0.5, 3), rb.BinStats(3.25, 0.125, 4),
                                     rb.BinStats(2.0, 0.0, 10), rb.BinStats(2.0, 0.0, 10),
                                     degenerate_texture=False, degenerate_dillum=True)
        assert rb.format_stratified_report(report).splitlines() == [
            "Stratified translation RPE (mm): low vs high difficulty quartiles",
            "artifact                   low bin                       high bin             |gap|",
            "texture        1.0000 ± 0.5000   (n=   3)   3.2500 ± 0.1250   (n=   4)   2.2500",
            "d_illum        2.0000 ± 0.0000   (n=  10)   2.0000 ± 0.0000   (n=  10)   0.0000"
            "  [degenerate: all scores equal]",
        ]
