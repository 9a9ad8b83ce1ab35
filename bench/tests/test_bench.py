"""Tests of the benchmark itself: smoke runs and the correctness check.

    python3 -m pytest -q bench/tests

The smoke tests run every workload at ``--tiny`` size through the command
line, traced and untraced, and check the result line against BENCHMARK.json.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _result(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_present_with_its_unit(workload, trace):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert np.isfinite(metric["value"]), name


def test_layer_metric_table_matches_benchmark_json():
    names = [m for m, *_ in tracing.LAYER_METRICS]
    names += [f"{layer}.self_s" for layer in tracing.SELF_TIME_LAYERS] + ["trace.overhead_s"]
    assert names == [m["name"] for m in SPEC["per_layer"]]


def test_untouched_directory_fails_without_a_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


@pytest.fixture(scope="module")
def tiny_pass(tmp_path_factory):
    config = wl.TINY["full-pipeline"]
    inputs = wl.setup(config, 3, tracing.Tracer(False))
    out = wl.run_pass(inputs, tracing.Tracer(False), tmp_path_factory.mktemp("work"))
    return inputs, out


def test_correct_outputs_pass_every_check(tiny_pass):
    inputs, out = tiny_pass
    per_unit = run.first_pass_problems(inputs, out, None, np.random.default_rng(0))
    assert per_unit == [[] for _ in inputs.units]
    assert run.repeat_problems(checks.pass_digest(out), out) == [[] for _ in inputs.units]


def _perturbed(out, factor=1.001):
    """A copy of the pass output whose first VO record has a wrong translation error."""
    unit = dataclasses.replace(out.units[0], records=dict(out.units[0].records))
    records = list(unit.records["vo"])
    records[0] = dataclasses.replace(records[0], trans_err=records[0].trans_err * factor + 1e-3)
    unit.records["vo"] = records
    return dataclasses.replace(out, units=[unit] + out.units[1:])


def test_perturbed_output_fails_the_oracle_and_raises_failed_count(tiny_pass, monkeypatch):
    inputs, out = tiny_pass
    bad = _perturbed(out)
    # Sample every record so the perturbed one is always checked.
    monkeypatch.setattr(checks, "ORACLE_SAMPLE", 10 ** 6)
    ledger = run.Ledger()
    ledger.add(run.first_pass_problems(inputs, bad, None, np.random.default_rng(0)))
    assert ledger.failed == 1 and ledger.attempted == len(inputs.units)
    assert "oracle" in ledger.problems[0]


def test_perturbed_output_fails_the_reference_and_repeat_checks(tiny_pass):
    inputs, out = tiny_pass
    reference = checks.pass_digest(out)
    bad = _perturbed(out, factor=1.0 + 1e-5)
    per_unit = run.first_pass_problems(inputs, bad, reference, np.random.default_rng(0))
    assert any("reference" in p for p in per_unit[0])
    assert run.repeat_problems(reference, bad)[0] != []


def _shifted_action(unit_out, shift=1e-6):
    """A copy of a unit's output whose first action window has one wrong delta."""
    t = min(unit_out.actions)
    arr = unit_out.actions[t].as_array().copy()
    arr[3, 0] += shift
    actions = dict(unit_out.actions)
    actions[t] = wl.trj.ActionSequence.from_array(arr)
    return dataclasses.replace(unit_out, actions=actions)


def test_wrong_action_fails_the_oracle_and_the_digest(tiny_pass, monkeypatch):
    inputs, out = tiny_pass
    bad = dataclasses.replace(out, units=[_shifted_action(out.units[0])] + out.units[1:])
    monkeypatch.setattr(checks, "ORACLE_SAMPLE", 10 ** 6)
    per_unit = run.first_pass_problems(inputs, bad, None, np.random.default_rng(0))
    assert any("action 4 of window" in p for p in per_unit[0]) and per_unit[1] == []
    assert run.repeat_problems(checks.pass_digest(out), bad)[0] != []


@pytest.fixture(scope="module")
def tiny_long_eval(tmp_path_factory):
    inputs = wl.setup(wl.TINY["long-eval"], 3, tracing.Tracer(False))
    out = wl.run_pass(inputs, tracing.Tracer(False), tmp_path_factory.mktemp("work"))
    return inputs, out


def test_wrong_anchor_or_extract_actions_fails_long_eval(tiny_long_eval, monkeypatch):
    inputs, out = tiny_long_eval
    monkeypatch.setattr(checks, "ORACLE_SAMPLE", 10 ** 6)
    rng = np.random.default_rng(0)
    assert run.first_pass_problems(inputs, out, None, rng) == [[]]
    unanchored = dataclasses.replace(
        out.units[0], anchored=wl.trj.rows_to_trajectory(inputs.units[0].estimate))
    for bad_unit in (unanchored, _shifted_action(out.units[0])):
        bad = dataclasses.replace(out, units=[bad_unit])
        assert run.first_pass_problems(inputs, bad, None, rng)[0] != []
        assert run.repeat_problems(checks.pass_digest(out), bad)[0] != []


def test_noisy_vo_panel_matches_reference_and_rejects_steps(tmp_path):
    assert wl.NOISY_VO in wl.panel_owners(wl.CONFIGS["full-pipeline"])
    assert checks.load_reference()[wl.NOISY_VO.name]["config"] == repr(wl.NOISY_VO)
    panel, problems = run.panel_problems(wl.NOISY_VO, tmp_path, np.random.default_rng(0))
    assert problems == []
    assert 0 < panel.valid < panel.total     # the VO rejected some of the steps


def test_span_cost_is_positive():
    assert 0.0 < tracing.span_cost(spans=2000, repeats=3) < 1e-3


def test_raising_unit_counts_as_failed(tiny_pass):
    inputs, out = tiny_pass
    broken = dataclasses.replace(out, units=[wl.UnitOutput("seq_000", error="ValueError: x")]
                                 + out.units[1:])
    ledger = run.Ledger()
    ledger.add(run.repeat_problems(checks.pass_digest(out), broken))
    assert ledger.failed == 1


def test_oracle_agrees_with_rpe_on_ground_truth_windows(tiny_pass):
    inputs, _ = tiny_pass
    gt = inputs.units[0].gt
    assert checks.check_self_zero(gt, inputs.units[0].name) == []
    matrices = {i: checks._matrix(p) for i, p in gt.frames}
    windows = wl.ev.constant_velocity_windows(gt, "s", 8)
    records, _ = wl.ev.rpe(windows, {"s": gt}, 8)
    for rec, win in zip(records, windows):
        trans, rot = checks.oracle_errors(win, matrices)
        assert abs(rec.trans_err - trans) <= checks.ORACLE_TRANS_MM
        assert abs(rec.rot_err - rot) <= checks.ORACLE_ROT_DEG


def test_panel_is_the_prefix_of_the_default_seed():
    config = wl.CONFIGS["long-eval"]
    small = dataclasses.replace(config, frames=300)
    full = wl.setup(small, wl.DEFAULT_SEED, tracing.Tracer(False))
    panel = wl.setup(wl.panel_config(small), wl.DEFAULT_SEED, tracing.Tracer(False))
    prefix = full.units[0].gt.frames[:wl.PANEL_FRAMES]
    assert [i for i, _ in prefix] == panel.units[0].gt.indices
    for (_, a), b in zip(prefix, panel.units[0].gt.poses):
        np.testing.assert_array_equal(a.translation, b.translation)


def test_self_time_subtracts_children():
    spans = [tracing.Span("bench.pass", 0.0, 10.0, None, 1, "pipeline"),
             tracing.Span("world.render", 1.0, 4.0, 0, 1, "pipeline"),
             tracing.Span("evaluation.rpe", 5.0, 6.0, 0, 1, "pipeline")]
    assert tracing.self_times(spans) == [6.0, 3.0, 1.0]


def test_failed_path_seed_is_redrawn_and_counted():
    config = wl.CONFIGS["full-pipeline"]
    with pytest.raises(RuntimeError):     # this seed's path gets stuck at the wall
        wl.world.generate_trajectory(10007, config.frames, config.profile)
    gt, redrawn = wl.ground_truth(config, [10007, 10008], tracing.Tracer(False))
    assert redrawn == 1 and len(gt) == config.frames
