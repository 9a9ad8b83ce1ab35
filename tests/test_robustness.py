import re

import pytest

from policyvo import robustness as rb


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
