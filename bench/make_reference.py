#!/usr/bin/env python3
"""Write bench/reference.json: the default-seed outputs the correctness check expects.

    python3 bench/make_reference.py

Runs one pass of every workload at the default seed and one of its quality
panel, and stores their digests (per-unit RPE summaries, record counts,
coverage, stratified bins) with the workload's configuration; for the
noisy-vo panel, which full-pipeline runs check, only the panel's digest.  Regenerate
only when a change of results is intended, and say so in CHANGES.md: the
check exists to catch changes that are not.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run


def panel_digest(config, wl, checks, off):
    """Digest of the panel of ``config``, or None (after a message) if it raised."""
    inputs = wl.setup(wl.panel_config(config), wl.DEFAULT_SEED, off)
    with tempfile.TemporaryDirectory(prefix=".work-", dir=run.BENCH) as tmp:
        panel = wl.run_pass(inputs, off, Path(tmp)).units[0]
    if panel.error:
        print(f"{config.name} panel: {panel.error}", file=sys.stderr)
        return None
    return checks.unit_digest(panel)


def main() -> int:
    run.import_policyvo()
    import checks
    import tracing
    import workloads as wl

    reference = {}
    off = tracing.Tracer(False)
    for name, config in wl.CONFIGS.items():
        inputs = wl.setup(config, wl.DEFAULT_SEED, off)
        with tempfile.TemporaryDirectory(prefix=".work-", dir=run.BENCH) as tmp:
            out = wl.run_pass(inputs, off, Path(tmp))
        errors = [u.error for u in out.units if u.error] + ([out.error] if out.error else [])
        if errors:
            print(f"{name}: {errors}", file=sys.stderr)
            return 1
        panel = panel_digest(config, wl, checks, off)
        if panel is None:
            return 1
        reference[name] = {"config": repr(config), "seed": wl.DEFAULT_SEED,
                           **checks.pass_digest(out), "panel": panel}
        print(f"{name}: done", file=sys.stderr)
    panel = panel_digest(wl.NOISY_VO, wl, checks, off)
    if panel is None:
        return 1
    reference[wl.NOISY_VO.name] = {"config": repr(wl.NOISY_VO), "seed": wl.DEFAULT_SEED,
                                   "panel": panel}
    checks.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
