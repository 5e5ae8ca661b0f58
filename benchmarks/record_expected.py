"""Record the reference results that run.py checks every sample against.

    python3 benchmarks/record_expected.py

Runs each workload's CLI experiment once and builds its wave profiles, then
writes `expected/<workload>.json` (headline results) and
`expected/waves.npz` (N, C and P_z of each distinct wave).  The references
define what a correct run is, so they are recorded once, at the commit that
defines the benchmark, and not re-recorded to make a change pass.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import pinned
import run
from probe import build, reference_key


def main() -> int:
    sys.path.insert(0, str(run.SRC_DIR))
    run.WORK_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=run.WORK_DIR))
    arrays = {}
    try:
        for workload in run.SUBCOMMANDS:
            child = run.spawn(run.untraced_argv(workload), tmp / workload,
                              time.monotonic() + 600)
            if child.code != 0:
                raise SystemExit(f"{workload}: exit code {child.code}")
            values = run.headline(workload, run.output_dir(workload, child.home))
            path = run.EXPECTED_DIR / f"{workload}.json"
            path.write_text(json.dumps({"headline": values}, indent=1, sort_keys=True)
                            + "\n")
            print(f"{workload}: {child.wall_s:.2f} s -> {path.name}")
            for eps, _, profile, _ in build(pinned.load(workload)):
                for name in ("N", "C", "P_z"):
                    arrays[reference_key(eps, name)] = np.asarray(getattr(profile, name))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    np.savez_compressed(run.EXPECTED_DIR / "waves.npz", **arrays)
    print(f"waves.npz: {sorted(arrays)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
