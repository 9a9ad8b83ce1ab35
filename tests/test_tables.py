"""The table writers' bytes, and the readers' errors, against reference copies of
the per-field formatter and per-row trajectory reader they replaced."""

import math
import numbers
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from policyvo import evaluation as ev
from policyvo import robustness as rb
from policyvo import se3, trajectory, world
from policyvo.se3 import Pose
from policyvo.tables import parse_int, read_table, write_table
from policyvo.trajectory import Trajectory

from test_trajectory import gapped_trajectories


def reference_field(value) -> str:
    """The per-field formatter the row formats replaced."""
    if not isinstance(value, float) and isinstance(value, (str, numbers.Integral)):
        return str(value)
    return f"{value:.17g}"


def reference_bytes(header, rows) -> bytes:
    return ("\n".join([header] + [",".join(map(reference_field, row)) for row in rows])
            + "\n").encode()


def reference_read(path) -> Trajectory:
    """The per-row trajectory reader the one-pass checks replaced."""
    frames, vectors = [], []
    for number, (frame, *fields) in enumerate(read_table(path, trajectory.TRAJECTORY_HEADER),
                                              start=2):
        where = f"{path}, line {number}"
        if not frame.removeprefix("-").isdecimal():
            raise ValueError(f"{where}: frame {frame!r} is not an integer")
        if frames and int(frame) <= frames[-1]:
            raise ValueError(f"{where}: frame {frame} does not follow frame {frames[-1]}")
        try:
            vectors.append([float(x) for x in fields])
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        frames.append(int(frame))
    vectors = np.array(vectors).reshape(-1, 6)
    valid = np.isfinite(vectors).all(axis=1)
    return Trajectory.from_stacks(frames, *se3.exp_rt(vectors[valid]), valid)


EDGE_POSES = [Pose(np.eye(3), [-0.0, 1e-300, -1e-300]),
              Pose(se3.so3_exp(np.array([0.0, -0.0, 1e-300])), [1.0 / 3.0, -2.5e17, 0.0]),
              se3.random_pose(3, 100.0, 3.0)]


class TestWritersMatchTheFieldFormatter:
    def test_trajectory(self, tmp_path):
        rows = [(-7, EDGE_POSES[0]), (-3, None), (0, EDGE_POSES[1]), (1, None), (4, EDGE_POSES[2])]
        path = tmp_path / "traj.csv"
        trajectory.write_trajectory_file(path, rows)
        vectors = [se3.log(p).tolist() if p is not None else [math.nan] * 6 for _, p in rows]
        assert path.read_bytes() == reference_bytes(
            trajectory.TRAJECTORY_HEADER, [(i, *vec) for (i, _), vec in zip(rows, vectors)])

    def test_records(self, tmp_path):
        records = [ev.RPERecord("seq_000", -2, 0, -0.0, 1e-300),
                   ev.RPERecord("seq_001", np.int64(5), 8, 1.0 / 3.0, 0),
                   ev.RPERecord("s", 7, 8, 5e-324, 1.7976931348623157e308)]
        path = tmp_path / "records.csv"
        ev.write_records_csv(path, records)
        assert path.read_bytes() == reference_bytes(
            ev.RECORDS_HEADER, [(r.sequence, r.t, r.w, r.trans_err, r.rot_err) for r in records])

    def test_scores(self, tmp_path):
        scores = [rb.WindowScore("seq_000", -1, 8, np.float32(0.1), 3),
                  rb.WindowScore("seq_001", 0, 8, -0.0, 1e-300)]
        path = tmp_path / "scores.csv"
        rb.write_scores_csv(path, scores)
        assert path.read_bytes() == reference_bytes(
            rb.SCORES_HEADER, [(s.sequence, s.t, s.w, s.s_texture, s.s_dillum) for s in scores])

    def test_manifest(self, tmp_path):
        obs = world.Observation(np.where(world.circular_mask(4), 0.5, 0.0))
        traj = Trajectory([(-1, Pose.identity()), (0, Pose.identity())])
        world.write_dataset(tmp_path, [world.SequenceData("seq_000", traj, {-1: obs, 0: obs})])
        rows = [("seq_000", i) for i in (-1, 0)]
        assert (tmp_path / "manifest.csv").read_bytes() == reference_bytes(
            world.MANIFEST_HEADER, rows)

    @pytest.mark.parametrize("row", [("seq_000", "x", 8, 1.0, 2.0),
                                     ("seq_000", 3, 8, "1.0", 2.0)])
    def test_field_of_the_wrong_type_names_file(self, tmp_path, row):
        path = tmp_path / "records.csv"
        with pytest.raises(ValueError, match=re.escape(f"{path}: a row does not have 5 fields")):
            write_table(path, ev.RECORDS_HEADER, ev.RECORDS_ROW, [row])
        assert not path.exists()


# A trajectory file as written (None) or with one field replaced by a bad or unusual token.
TOKENS = [None, "x", "1.5", "+1", " 1", "1_0", "nan", "-inf", "1e400", "007", "-0", "٣", "",
          "1e300"]


class TestTrajectoryReader:
    @settings(max_examples=150, deadline=None)
    @given(gapped_trajectories, st.integers(0, 100), st.integers(0, 6), st.sampled_from(TOKENS))
    def test_matches_the_per_row_reader(self, traj, row, column, token):
        """Same Trajectory, or the same ValueError message, as the per-row reader."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "traj.csv"
            trajectory.write_trajectory_file(path, traj)
            lines = path.read_text().splitlines()
            if token is not None and len(lines) > 1:
                fields = lines[1 + row % (len(lines) - 1)].split(",")
                fields[column] = token
                lines[1 + row % (len(lines) - 1)] = ",".join(fields)
            path.write_text("\n".join(lines) + "\n")
            try:
                with np.errstate(all="ignore"):     # a huge angle overflows
                    expected = reference_read(path)
            except ValueError as exc:
                # The per-row reader lets a pose failing the stack check go without the file.
                message = str(exc) if str(path) in str(exc) else f"{path}: {exc}"
                with pytest.raises(ValueError, match=re.escape(message)):
                    trajectory.read_trajectory_file(path)
            else:
                assert trajectory.read_trajectory_file(path) == expected

    def test_overflowing_pose_names_file(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text(trajectory.TRAJECTORY_HEADER + "\n0,0,0,0,1e300,0,0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: rotation is not orthonormal")):
            trajectory.read_trajectory_file(path)


def load_manifest(path):
    """``world.load_dataset`` of the directory that holds the manifest ``path``."""
    return world.load_dataset(path.parent)


class TestWindowKeyedReaders:
    @pytest.mark.parametrize("read, header, line, message", [
        (load_manifest, world.MANIFEST_HEADER, "s,x", "frame 'x' is not an integer"),
        (ev.read_records_csv, ev.RECORDS_HEADER, "s,x,8,0.1,0.2", "t 'x' is not an integer"),
        (ev.read_records_csv, ev.RECORDS_HEADER, "s,1,8,nan,0.2", "errors must be finite"),
        (ev.read_records_csv, ev.RECORDS_HEADER, "s,1,-3,0.1,0.2",
         "window length must be an integer >= 0, got -3"),
        (rb.read_scores_csv, rb.SCORES_HEADER, "s,1,8,0.1,y", "could not convert"),
        (rb.read_scores_csv, rb.SCORES_HEADER, "s,1.5,8,0.1,0.2", "t '1.5' is not an integer"),
        (rb.read_scores_csv, rb.SCORES_HEADER, "s,1,8,-1,0.2", "scores must be finite"),
    ])
    def test_bad_row_names_file_and_line(self, tmp_path, read, header, line, message):
        path = tmp_path / "manifest.csv"
        good = "s,0" if header == world.MANIFEST_HEADER else "s,0,8,0.1,0.2"  # a row that reads
        path.write_text(f"{header}\n{good}\n{line}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 3: ") + ".*"
                           + re.escape(message)):
            read(path)


class TestOneIntegerRule:
    @pytest.mark.parametrize("field, value", [
        ("0", 0), ("-0", 0), ("007", 7), ("-12", -12), (str(2 ** 63 - 1), 2 ** 63 - 1),
        (str(-2 ** 63), -2 ** 63), ("\u0663", 3)])   # an Arabic-Indic three is a decimal digit
    def test_decimal_digits_within_int64_parse(self, field, value):
        assert parse_int("t", field) == value

    @pytest.mark.parametrize("field", ["+5", " 6", "6 ", "1_0", "1.0", "1e3", "", "-", "--1",
                                       "0x1", "\u00b2"])    # a superscript two is no decimal
    def test_anything_else_is_not_an_integer(self, field):
        with pytest.raises(ValueError, match=re.escape(f"t {field!r} is not an integer")):
            parse_int("t", field)

    @pytest.mark.parametrize("field", [str(2 ** 63), str(-2 ** 63 - 1)])
    def test_past_int64_is_named(self, field):
        with pytest.raises(ValueError, match=re.escape(f"frame {field} is outside int64")):
            parse_int("frame", field)

    @pytest.mark.parametrize("field, message", [
        ("+5", "'+5' is not an integer"), ("6 ", "'6 ' is not an integer"),
        ("1_0", "'1_0' is not an integer"), (str(2 ** 63), f"{2 ** 63} is outside int64")])
    @pytest.mark.parametrize("read, column, row", [
        (load_manifest, "frame", "s,{}"),
        (ev.read_records_csv, "t", "s,{},8,0.1,0.2"),
        (ev.read_records_csv, "w", "s,1,{},0.1,0.2"),
        (rb.read_scores_csv, "t", "s,{},8,0.1,0.2"),
        (trajectory.read_trajectory_file, "frame", "{},0,0,0,0,0,0"),
    ])
    def test_every_table_reads_integers_by_it(self, tmp_path, read, column, row, field,
                                              message):
        header = {load_manifest: world.MANIFEST_HEADER, ev.read_records_csv: ev.RECORDS_HEADER,
                  rb.read_scores_csv: rb.SCORES_HEADER,
                  trajectory.read_trajectory_file: trajectory.TRAJECTORY_HEADER}[read]
        path = tmp_path / "manifest.csv"
        path.write_text(f"{header}\n{row.format(field)}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 2: {column} {message}")):
            read(path)


# Sequence names and integers a key may be offered: names the rule refuses (surrounding
# whitespace, empty, not a string, a separator) among any short text, and integers at
# and past both int64 edges.
NAMES = st.one_of(st.sampled_from([" a", "", 5, "a,b", "a\nb", "seq_000", "a b", "é"]),
                  st.text(max_size=8))
INT64_EDGES = [-2 ** 63 - 1, -2 ** 63, -1, 0, 1, 2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1]
INTEGERS = st.one_of(st.sampled_from(INT64_EDGES), st.integers(-2 ** 65, 2 ** 65))
VALUES = st.floats(min_value=-0.0, allow_infinity=False)


class TestKeysReadBackAsWritten:
    """Whatever a constructor or writer accepts reads back equal; what a table cannot
    hold as written is refused where it enters, with a ValueError."""

    @settings(max_examples=300, deadline=None)
    @given(NAMES, INTEGERS, INTEGERS, VALUES, VALUES)
    def test_records(self, name, t, w, trans_err, rot_err):
        try:
            record = ev.RPERecord(name, t, w, trans_err, rot_err)
        except ValueError:
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "records.csv"
            ev.write_records_csv(path, [record])
            assert ev.read_records_csv(path) == [record]

    @settings(max_examples=300, deadline=None)
    @given(NAMES, INTEGERS, INTEGERS, VALUES, VALUES)
    def test_scores(self, name, t, w, s_texture, s_dillum):
        try:
            score = rb.WindowScore(name, t, w, s_texture, s_dillum)
        except ValueError:
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scores.csv"
            rb.write_scores_csv(path, [score])
            assert rb.read_scores_csv(path) == [score]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(NAMES, st.sets(st.sampled_from(INT64_EDGES[1:-2]), min_size=1,
                                             max_size=3)), min_size=1, max_size=3))
    def test_dataset_manifest(self, sequences):
        obs = world.Observation(np.full((2, 2), 0.5))     # 2 x 2: all in the field of view
        data = [world.SequenceData(name, Trajectory([(f, Pose.identity()) for f in sorted(frames)]),
                                   dict.fromkeys(frames, obs))
                for name, frames in sequences]
        with tempfile.TemporaryDirectory() as tmp:
            try:
                world.write_dataset(tmp, data)
            except ValueError:
                assert list(Path(tmp).iterdir()) == []
                return
            rows = read_table(Path(tmp) / "manifest.csv", world.MANIFEST_HEADER)
            loaded = world.load_dataset(tmp)
        written = [(name, sorted(frames)) for name, frames in sequences]
        assert rows == [[name, str(frame)] for name, frames in written for frame in frames]
        assert [(seq.name, list(seq.observations)) for seq in loaded] == written
        assert [seq.trajectory.indices for seq in loaded] == [frames for _, frames in written]


# Writes and reads a trajectory file, a records file, a scores file and a dataset, each
# under a non-ASCII sequence name, and checks that each reads back equal.
ROUND_TRIPS = """
import sys
from pathlib import Path

import numpy as np

from policyvo import evaluation as ev, robustness as rb, se3, trajectory, world

root, name = Path(sys.argv[1]), "s\\u00e9q"
traj = trajectory.Trajectory([(0, se3.Pose.identity()), (1, se3.Pose(np.eye(3), [0.5, 2.0, -1.0]))])
trajectory.write_trajectory_file(root / "traj.csv", traj)
assert trajectory.read_trajectory_file(root / "traj.csv") == traj
records = [ev.RPERecord(name, 0, 1, 0.25, 0.5)]
ev.write_records_csv(root / "records.csv", records)
assert ev.read_records_csv(root / "records.csv") == records
scores = [rb.WindowScore(name, 0, 1, 0.125, 0.0625)]
rb.write_scores_csv(root / "scores.csv", scores)
assert rb.read_scores_csv(root / "scores.csv") == scores
obs = world.Observation(np.where(world.circular_mask(4), 0.5, 0.0))
world.write_dataset(root / "data", [world.SequenceData(name, traj, {0: obs, 1: obs})])
(seq,) = world.load_dataset(root / "data")
assert (seq.name, seq.trajectory, list(seq.observations)) == (name, traj, [0, 1])
assert name.encode("utf-8") in (root / "records.csv").read_bytes()
"""


class TestFilesOnDisk:
    def test_a_shorter_file_written_over_a_longer_one_reads_back_exactly(self, tmp_path):
        traj_path, fresh, records_path, pgm_path = (
            tmp_path / f for f in ("t.csv", "fresh.csv", "r.csv", "i.pgm"))
        short_traj = Trajectory([(3, EDGE_POSES[2]), (4, None)])
        trajectory.write_trajectory_file(traj_path, [(i, EDGE_POSES[i % 3]) for i in range(50)])
        trajectory.write_trajectory_file(traj_path, short_traj)
        trajectory.write_trajectory_file(fresh, short_traj)
        assert traj_path.read_bytes() == fresh.read_bytes()
        assert trajectory.read_trajectory_file(traj_path) == trajectory.read_trajectory_file(fresh)
        record = ev.RPERecord("s", 1, 8, 0.5, 0.25)
        ev.write_records_csv(records_path, [record] * 40)
        ev.write_records_csv(records_path, [record])
        assert records_path.read_bytes() == reference_bytes(ev.RECORDS_HEADER,
                                                            [("s", 1, 8, 0.5, 0.25)])
        image = np.round(np.random.default_rng(5).uniform(0, 1, (3, 5)) * 255) / 255.0
        world.write_pgm(pgm_path, np.ones((40, 40)))
        world.write_pgm(pgm_path, image)
        assert pgm_path.stat().st_size == len(b"P5\n5 3\n255\n") + 15
        np.testing.assert_array_equal(world.read_pgm(pgm_path), image)

    @pytest.mark.parametrize("read, header, good, bad", [
        (ev.read_records_csv, ev.RECORDS_HEADER, b"s,0,8,0.1,0.2", b"s\xe9q,1,8,0.1,0.2"),
        (trajectory.read_trajectory_file, trajectory.TRAJECTORY_HEADER, b"0,0,0,0,0,0,0",
         b"1,s\xe9q,0,0,0,0,0")], ids=["records", "trajectory"])
    def test_a_table_that_is_not_utf8_names_file_and_line(self, tmp_path, read, header,
                                                           good, bad):
        """A Latin-1 byte, as a writer under a Latin-1 locale would leave it."""
        path = tmp_path / "table.csv"
        for line, rows in (2, [bad]), (3, [good, bad]):
            path.write_bytes(b"\n".join([header.encode()] + rows) + b"\n")
            with pytest.raises(ValueError, match=re.escape(f"{path}, line {line}: not UTF-8 text")):
                read(path)

    def test_tables_are_utf8_whatever_the_locale_says(self, tmp_path):
        """No table read or write falls back to the locale's encoding: each would raise
        EncodingWarning, an error in this interpreter."""
        src = Path(world.__file__).resolve().parents[1]
        run = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-c", ROUND_TRIPS, str(tmp_path)],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                filter(None, [str(src), os.environ.get("PYTHONPATH")]))},
            capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
