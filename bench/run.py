#!/usr/bin/env python3
"""Benchmark of the policyvo pipeline: one workload, one seed, one result line.

    python3 bench/run.py --workload full-pipeline --seed 1 --seconds 50 --trace 0

Run from the repository root or anywhere else; the library is imported from
``src/`` next to this directory and from nowhere else.  The last line of
standard output is the result JSON (see bench/README.md); the line before it
holds details: machine, configuration, every timing sample and the problems
the correctness checks found.

``--trace 0`` reports the end-to-end metrics.  For ``--seconds`` the run
alternates steady-state passes with fresh child processes that time set-up
and the first pass, giving each about half of the time.  ``--trace 1`` reports the
per-layer metrics from a separate run with spans around every call into a
layer, and the tracing overhead: the measured cost of a span times the spans
of a traced pass.
"""

from __future__ import annotations

import os

# One BLAS thread: the load is one process with no extra threads, and BLAS
# threads of a run would compete for the cores of a small machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORKLOADS = ("full-pipeline", "long-eval")


def import_policyvo() -> None:
    """Import policyvo from this checkout's src/, or exit with code 2."""
    package = SRC / "policyvo"
    if not (package / "__init__.py").is_file():
        print(f"bench: no policyvo package at {package}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import policyvo

    if Path(policyvo.__file__).resolve().parent != package.resolve():
        print(f"bench: policyvo imported from {policyvo.__file__}, not {package}",
              file=sys.stderr)
        sys.exit(2)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="how long steady-state passes and fresh processes are measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes; no stored reference applies")
    parser.add_argument("--fresh-sample", metavar="DIR", type=Path,
                        help="internal: time set-up and the first pass with scratch files "
                             "in DIR, print both, exit")
    parser.add_argument("--fresh-setup", action="store_true",
                        help="internal: time set-up, print it, exit")
    return parser.parse_args(argv)


def _config(args):
    import workloads as wl

    return (wl.TINY if args.tiny else wl.CONFIGS)[args.workload]


def fresh_setup(args):
    """Import policyvo and generate the inputs, timing both.

    Returns (inputs, setup seconds).  The clock starts before policyvo (and
    so numpy) is imported.
    """
    start = time.perf_counter()
    import_policyvo()
    import tracing
    import workloads as wl

    inputs = wl.setup(_config(args), args.seed, tracing.Tracer(False))
    return inputs, time.perf_counter() - start


def child_command(args, workdir: Path, cold: bool) -> list[str]:
    """Command of a child process that times set-up and, if ``cold``, the first pass.

    A cold child keeps its scratch files in a fresh directory under
    ``workdir``, so the files go when the parent's scratch directory goes,
    even if the child was killed.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed)]
    if cold:
        cmd += ["--fresh-sample", tempfile.mkdtemp(prefix="fresh-", dir=workdir)]
    else:
        cmd.append("--fresh-setup")
    if args.tiny:
        cmd.append("--tiny")
    return cmd


def run_child(cmd: list[str]) -> dict:
    """Run one child process to its end and return the times it printed."""
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


class Ledger:
    """Sequence evaluations attempted and failed, with the problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, per_unit: list[list[str]]) -> None:
        self.attempted += len(per_unit)
        for problems in per_unit:
            if problems:
                self.failed += 1
                self.problems.extend(problems[:3])


def first_pass_problems(inputs, out, reference, rng) -> list[list[str]]:
    """Full checks of a pass: oracle, zero self-error, stored reference if any."""
    import checks

    per_unit = [checks.check_unit(o, u, rng) for o, u in zip(out.units, inputs.units)]
    per_unit[0] += checks.check_self_zero(inputs.units[0].gt, inputs.units[0].name)
    shared = [out.error] if out.error else []
    if reference is not None:
        digest = checks.pass_digest(out)
        for i, (got, want) in enumerate(zip(digest["units"], reference["units"])):
            per_unit[i] += checks.compare(got, want, f"reference/units[{i}]")
        shared += checks.compare(digest["stratified"], reference["stratified"],
                                 "reference/stratified")
    return [p + shared for p in per_unit]


def repeat_problems(first_digest: dict, out) -> list[list[str]]:
    """A later pass of the same run must reproduce the first pass exactly."""
    import checks

    digest = checks.pass_digest(out)
    shared = [out.error] if out.error else []
    if digest["stratified"] != first_digest["stratified"]:
        shared.append("stratified report differs from the first pass")
    per_unit = []
    for o, got, want in zip(out.units, digest["units"], first_digest["units"]):
        problems = [f"{o.name}: raised {o.error}"] if o.error else []
        if got != want:
            problems.append(f"{o.name}: output differs from the first pass")
        per_unit.append(problems + shared)
    return per_unit


def reference_entry(config):
    """The stored reference of this workload, if it was made with this config."""
    import checks

    entry = checks.load_reference().get(config.name)
    return entry if entry is not None and entry["config"] == repr(config) else None


def panel_problems(config, workdir: Path, rng):
    """Evaluate the panel of ``config`` and check it against the stored reference."""
    import checks
    import tracing
    import workloads as wl

    off = tracing.Tracer(False)
    inputs = wl.setup(wl.panel_config(config), wl.DEFAULT_SEED, off)
    panel = wl.run_pass(inputs, off, workdir).units[0]
    problems = checks.check_unit(panel, inputs.units[0], rng)
    reference = reference_entry(config)
    if reference is not None:
        problems += checks.compare(checks.unit_digest(panel), reference["panel"],
                                   "reference/panel")
    return panel, problems


def first_reference(config, seed: int):
    import workloads as wl

    return reference_entry(config) if seed == wl.DEFAULT_SEED else None


def quality(unit_out, method: str) -> dict:
    from policyvo import evaluation as ev

    s = ev.summarize(unit_out.records[method])
    return {"coverage_pct": 100.0 * unit_out.valid / unit_out.total,
            "rpe_trans_mm": s.trans_mean, "rpe_rot_deg": s.rot_mean}


def timed_pass(inputs, tracer, workdir):
    import workloads as wl

    start = time.perf_counter()
    out = wl.run_pass(inputs, tracer, workdir)
    return out, time.perf_counter() - start


def run_untraced(args, workdir: Path) -> tuple[dict, dict, Ledger]:
    inputs, setup_s = fresh_setup(args)
    import numpy as np

    import checks
    import tracing
    import workloads as wl

    off = tracing.Tracer(False)
    first, cold_s = timed_pass(inputs, off, workdir)
    config = _config(args)
    ledger, rng = Ledger(), np.random.default_rng(args.seed)
    ledger.add(first_pass_problems(inputs, first, first_reference(config, args.seed), rng))
    first_digest = checks.pass_digest(first)
    # For --seconds, fresh processes and steady-state passes take turns, each
    # getting about half of the time.  The machine's speed drifts over
    # seconds to minutes, so both kinds of sample are spread over the whole
    # run rather than taken in blocks.  A turn of children is one process that
    # times set-up and the first pass and one that times set-up only, which
    # costs little and doubles the set-up samples.
    samples, pass_s, child_s = [{"setup_s": setup_s, "cold_s": cold_s}], [], 0.0
    start = time.perf_counter()
    while not pass_s or time.perf_counter() - start < args.seconds:
        if child_s <= sum(pass_s):
            turn_start = time.perf_counter()
            samples += [run_child(child_command(args, workdir, cold)) for cold in (True, False)]
            child_s += time.perf_counter() - turn_start
        else:
            out, elapsed = timed_pass(inputs, off, workdir)
            pass_s.append(elapsed)
            ledger.add(repeat_problems(first_digest, out))
    setup_samples = [x["setup_s"] for x in samples]
    cold_samples = [x["cold_s"] for x in samples if "cold_s" in x]

    # Quality figures come from a fixed panel, the same for every --seed, so
    # any change to them is a change of results (README: "Quality panel").
    # full-pipeline also checks the noisy-vo panel, whose VO rejects steps.
    panels = []
    for owner in wl.panel_owners(config):
        panel, problems = panel_problems(owner, workdir, rng)
        ledger.add([problems])
        panels.append((owner, panel))
    panel = panels[0][1]
    method = wl.quality_method(config)

    frames_per_s = [inputs.frames / t for t in pass_s]
    metrics = {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "cold_s": {"value": statistics.median(cold_samples), "unit": "s"},
        "frames_per_s": {"value": statistics.median(frames_per_s), "unit": "frames/s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
        "ok_frac": {"value": 1.0 - ledger.failed / ledger.attempted, "unit": "ratio"},
    }
    panel_quality = quality(panel, method) if not panel.error else {}
    for name, unit in (("coverage_pct", "%"), ("rpe_trans_mm", "mm"), ("rpe_rot_deg", "deg")):
        metrics[name] = {"value": panel_quality.get(name, 0.0), "unit": unit}
    detail = {
        "setup_s_samples": setup_samples,
        "cold_s_samples": cold_samples,
        "pass_s_samples": pass_s,
        "frames_per_pass": inputs.frames,
        "redrawn_paths": inputs.redrawn_paths,
        "seeded_quality": [quality(u, method) for u in first.units
                           if not u.error and u.records.get(method)],
        "panel_quality": {owner.name: quality(p, wl.quality_method(owner))
                          for owner, p in panels
                          if not p.error and p.records.get(wl.quality_method(owner))},
    }
    return metrics, detail, ledger


def run_traced(args, workdir: Path) -> tuple[dict, dict, Ledger]:
    import_policyvo()
    import numpy as np

    import checks
    import probe
    import tracing
    import workloads as wl

    config = _config(args)
    tracer, off = tracing.Tracer(True), tracing.Tracer(False)
    tracer.phase = "setup"
    inputs = wl.setup(config, args.seed, tracer)
    tracer.phase = "probe"
    probe_in = probe.probe_inputs(inputs, tracer)
    probe.first_call(probe_in, tracer)
    ledger, rng = Ledger(), np.random.default_rng(args.seed)

    first, _ = timed_pass(inputs, off, workdir)     # cold pass, not traced
    ledger.add(first_pass_problems(inputs, first, first_reference(config, args.seed), rng))
    first_digest = checks.pass_digest(first)
    traced_s = []
    tracer.phase = "pipeline"
    start = time.perf_counter()
    while not traced_s or time.perf_counter() - start < args.seconds:
        with tracer.span("bench.pass"):
            out, elapsed = timed_pass(inputs, tracer, workdir)
        traced_s.append(elapsed)
        ledger.add(repeat_problems(first_digest, out))
    spans_per_pass = sum(s.phase == "pipeline" for s in tracer.spans) / len(traced_s)
    before_probe = len(tracer.spans)
    tracer.phase = "probe"
    probe.run(probe_in, tracer, workdir)

    metrics, sources = tracing.layer_metrics(tracer.spans, passes=len(traced_s))
    span_cost = tracing.span_cost()
    metrics["trace.overhead_s"] = {"value": span_cost * spans_per_pass, "unit": "s"}
    detail = {"traced_pass_s": traced_s, "spans_per_pass": spans_per_pass,
              "span_cost_us": span_cost * 1e6, "spans": before_probe,
              "probe_spans": len(tracer.spans) - before_probe, "metric_source": sources}
    return metrics, detail, ledger


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM unwind normally: subprocess.run kills and reaps a running
    # child, and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    if args.fresh_setup or args.fresh_sample:
        inputs, setup_s = fresh_setup(args)
        sample = {"setup_s": setup_s}
        if args.fresh_sample:
            import tracing

            _, sample["cold_s"] = timed_pass(inputs, tracing.Tracer(False), args.fresh_sample)
        print(json.dumps(sample))
        return 0
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as tmp:
        run = run_traced if args.trace else run_untraced
        metrics, detail, ledger = run(args, Path(tmp))
    import machine

    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, config=repr(_config(args)), machine=machine.machine_info(),
                  problems=ledger.problems[:20])
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
