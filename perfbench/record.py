"""Record the delayed trajectories of the `delay` workload for later checks.

The delayed runs of the delay sweep oscillate and never reach a rest point,
so no closed form predicts them.  This script runs them with the current
code for every scenario seed in SEEDS and stores the time and the shares at
every SAMPLE_EVERY-th integration sample, exactly as the CSV writes them.
run.py maps every benchmark seed onto SEEDS and compares the written files
of every later commit against these values.

    python3 perfbench/record.py

Run it from the repository root; it rewrites perfbench/recorded_delay.json.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
RECORD_FILE = HERE / "recorded_delay.json"
SAMPLE_EVERY = 6000
SEEDS = range(100)  # run.py's RECORDED_SEEDS must equal len(SEEDS)


def main() -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(HERE.parent / "src"))
    from irsgame.config import load_config
    from irsgame.experiments import simulate

    base = load_config(HERE.parent / "src" / "irsgame" / "data" / "reduced.cfg")
    delays = [d for d in base.grids.delta if d > 0]
    seeds = {}
    for seed in SEEDS:
        runs = {}
        for delta in delays:
            traj = simulate(replace(base, seed=seed, delta=delta)).trajectory
            runs[repr(delta)] = {
                "t": traj.times[::SAMPLE_EVERY].tolist(),
                "p": traj.states[::SAMPLE_EVERY].tolist(),
            }
        seeds[str(seed)] = runs
        print("seed %d recorded" % seed, flush=True)
    record = {"delays": delays, "seeds": seeds}
    RECORD_FILE.write_text(json.dumps(record, indent=0) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
