"""One measured irsgame run in a fresh process.

run.py starts this script once per sample:

    python3 perfbench/probe.py --t0 T --config FILE --result FILE
        [--preset NAME --seed N --out DIR [--spans FILE]]

It imports irsgame from the checkout's src/ and loads the workload's config;
the time from T (CLOCK_MONOTONIC, read by the parent just before it started
this process) to that point is the set-up time.  Without --preset it stops
there.  With --preset it runs the preset through irsgame.cli.main and
records its wall time and the peak resident memory of this process.  Either
way it times the calibration loop, once after set-up and once more after
the preset, so that run.py can tell the machine's speed at that moment.

With --spans it first wraps the names the pipeline looks up at call time,
from outside the package, records one span per call (name, start, end,
parent, run id) in flat arrays, derives self times from the spans at the
end and writes the spans to FILE as .npz.  The run id of a span is the
number of experiments.simulate calls started before it, i.e. the sweep
point it belongs to (0 for preset-level work).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

CLOCK = time.CLOCK_MONOTONIC
SRC = Path(__file__).resolve().parent.parent / "src"

# (owner, attribute) -> span name; the layer is the part before the first dot.
# make_utilities returns the utility closure, whose calls are the spans;
# optimize_link is only counted, its rounds read from the trace list.
TRACED = {
    ("cli", "load_config"): "config.load_config",
    ("experiments", "simulate"): "experiments.simulate",
    ("experiments", "generate_channels"): "channel.generate_channels",
    ("experiments", "build_all_links"): "phy.build_all_links",
    ("phy", "optimize_link"): "phy.optimize_link",
    ("experiments", "make_utilities"): "game.utilities",
    ("experiments", "replicator_field"): "game.replicator_field",
    ("experiments", "delayed_replicator_field"): "game.delayed_replicator_field",
    ("experiments", "detect_equilibrium"): "game.detect_equilibrium",
    ("experiments", "stability_bound"): "game.stability_bound",
    ("experiments", "integrate_ode"): "dynamics.integrate_ode",
    ("experiments", "integrate_dde"): "dynamics.integrate_dde",
    ("HistoryBuffer", "lookup"): "dynamics.history_lookup",
    ("experiments", "emit_csv"): "experiments.emit_csv",
}


def calibration() -> float:
    """Seconds for a fixed loop of small numpy steps like the integrators' (the machine's speed)."""
    import numpy as np

    c = np.linspace(1.0, 2.0, 6)
    p = np.full(6, 1.0 / 6.0)
    t0 = time.clock_gettime(CLOCK)
    for _ in range(20000):
        u = np.divide(c, p * 100.0)
        p = p + 1e-9 * (u - float(np.sum(p * u)))
        p = p / float(p.sum())
    return time.clock_gettime(CLOCK) - t0


class Tracer:
    """Spans in flat arrays plus counters taken at the same call boundaries."""

    def __init__(self):
        self.names = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]
        self.counts = Counter()

    def span(self, name, fn, after=None):
        """fn wrapped to record one span per call; after(args, result) may replace the result."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        names, starts, ends, parents, stack = self.name, self.start, self.end, self.parent, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            return out if after is None else after(args, out)

        return traced

    def install(self) -> list:
        """Wrap every traced name of the package; returns the names it did not find."""
        import irsgame.cli
        import irsgame.dynamics
        import irsgame.experiments
        import irsgame.phy

        owners = {
            "cli": irsgame.cli,
            "experiments": irsgame.experiments,
            "phy": irsgame.phy,
            "HistoryBuffer": irsgame.dynamics.HistoryBuffer,
        }
        missing = []
        for (owner, attr), name in TRACED.items():
            fn = getattr(owners[owner], attr, None)
            if fn is None:
                missing.append("%s.%s" % (owner, attr))
            else:
                setattr(owners[owner], attr, self._wrap(name, fn))
        return missing

    def _wrap(self, name, fn):
        if name == "game.utilities":
            return lambda *args, **kwargs: self.span(name, fn(*args, **kwargs))
        if name == "phy.optimize_link":
            return self._count_rounds(fn)
        if name == "dynamics.integrate_ode":
            return self.span(name, fn, lambda args, traj: self._integrated(traj, 0.0))
        if name == "dynamics.integrate_dde":
            return self.span(name, fn, lambda args, traj: self._integrated(traj, float(args[2])))
        return self.span(name, fn)

    def _integrated(self, traj, delta):
        from irsgame import experiments
        from irsgame.game import detect_equilibrium

        steps = len(traj) - 1
        self.counts["steps"] += steps
        self.counts["total_drift"] += traj.total_drift
        self.counts["total_absorbed"] += traj.total_absorbed
        eq = detect_equilibrium(
            traj,
            getattr(experiments, "EPS_FIELD", 1e-6),
            getattr(experiments, "EPS_MASS", 1e-2),
            min_quiet=delta,
        )
        if eq is not None:
            self.counts["steps_past_equilibrium"] += steps - eq.index
        return traj

    def _count_rounds(self, optimize_link):
        counts = self.counts

        def counted(*args, **kwargs):
            trace = kwargs.get("trace")
            if trace is None:
                trace = kwargs["trace"] = []
            link = optimize_link(*args, **kwargs)
            rounds = len(trace) // 2  # two SNR entries per round: beam, then phases
            counts["links"] += 1
            counts["rounds"] += rounds
            if rounds >= kwargs.get("max_iters", 100):
                counts["unconverged_links"] += 1
            return link

        return counted

    def report(self, wall_s: float, spans_path: Path) -> dict:
        """Per-layer metrics from the spans and counters; writes the spans to spans_path."""
        import numpy as np

        name = np.asarray(self.name, dtype=np.int32)
        start = np.asarray(self.start)
        end = np.asarray(self.end)
        parent = np.asarray(self.parent, dtype=np.int32)
        dur = end - start
        nested = parent >= 0
        child_s = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_s = dur - child_s
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_s, minlength=k)
        by = {n: i for i, n in enumerate(self.names)}
        sim_starts = start[name == by.get("experiments.simulate", -1)]
        run = np.searchsorted(sim_starts, start, side="right").astype(np.int32)
        np.savez(spans_path, names=np.array(self.names), name=name, start=start, end=end, parent=parent, run=run)

        n_calls = lambda n: int(calls[by[n]]) if n in by else 0
        tot = lambda n: float(total[by[n]]) if n in by else 0.0
        slf = lambda n: float(own[by[n]]) if n in by else 0.0
        c = self.counts
        steps = c["steps"]
        per_step = lambda x: x / steps if steps else 0.0
        integrate_s = tot("dynamics.integrate_ode") + tot("dynamics.integrate_dde")
        return {
            "channel.generate_channels.calls": n_calls("channel.generate_channels"),
            "channel.generate_channels.s": tot("channel.generate_channels"),
            "phy.build_all_links.s": tot("phy.build_all_links"),
            "phy.links": c["links"],
            "phy.rounds_per_link": c["rounds"] / c["links"] if c["links"] else 0.0,
            "phy.unconverged_links": c["unconverged_links"],
            "game.utilities.calls": n_calls("game.utilities"),
            "game.utilities.s": tot("game.utilities"),
            "game.replicator_field.calls": n_calls("game.replicator_field"),
            "game.replicator_field.self_s": slf("game.replicator_field"),
            "game.delayed_replicator_field.calls": n_calls("game.delayed_replicator_field"),
            "game.delayed_replicator_field.self_s": slf("game.delayed_replicator_field"),
            "game.detect_equilibrium.s": tot("game.detect_equilibrium"),
            "game.stability_bound.s": tot("game.stability_bound"),
            "dynamics.integrate_ode.self_s": slf("dynamics.integrate_ode"),
            "dynamics.integrate_dde.self_s": slf("dynamics.integrate_dde"),
            "dynamics.steps": steps,
            "dynamics.us_per_step": per_step(integrate_s) * 1e6,
            "dynamics.field_evals_per_step": per_step(
                n_calls("game.replicator_field") + n_calls("game.delayed_replicator_field")
            ),
            "dynamics.history_lookups": n_calls("dynamics.history_lookup"),
            "dynamics.steps_past_equilibrium_ratio": per_step(c["steps_past_equilibrium"]),
            "dynamics.total_drift": c["total_drift"],
            "dynamics.total_absorbed": c["total_absorbed"],
            "experiments.simulate.calls": n_calls("experiments.simulate"),
            "experiments.emit_csv.s": tot("experiments.emit_csv"),
            "config.load_config.s": tot("config.load_config"),
            "trace.uncovered_s": wall_s - float(dur[~nested].sum()),
            "trace.spans": int(len(dur)),
        }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--preset")
    ap.add_argument("--seed")
    ap.add_argument("--out")
    ap.add_argument("--spans")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import irsgame

    irsgame.load_config(args.config)
    result = {"setup_s": time.clock_gettime(CLOCK) - args.t0, "irsgame": irsgame.__file__}
    calib = [calibration()]
    if args.preset:
        import irsgame.cli

        tracer = None
        if args.spans:
            tracer = Tracer()
            result["missing"] = tracer.install()
        argv = ["run", args.preset, "--config", args.config, "--seed", args.seed, "--out", args.out]
        t0 = time.clock_gettime(CLOCK)
        rc = irsgame.cli.main(argv)
        wall = time.clock_gettime(CLOCK) - t0
        result.update(
            rc=rc,
            wall_s=wall,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        calib.append(calibration())
        if tracer is not None:
            result["layers"] = tracer.report(wall, Path(args.spans))
    result["calib_s"] = sum(calib) / len(calib)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
