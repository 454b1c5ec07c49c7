"""irsgame benchmark: end-to-end metrics of one workload, or a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports irsgame from the checkout's
src/ and writes only under .perfbench_work/.  Every sample is a fresh,
single-threaded process (perfbench/probe.py) that runs one preset through
irsgame.cli.main, started one after another from this process.  The seed
becomes the scenario seed of the workload (for delay, modulo RECORDED_SEEDS,
so that every seed has a recorded oracle).

--trace 0 starts a few set-up-only processes, then preset runs until S
seconds have passed and at least MIN_SAMPLES ran, and reports the medians
of the end-to-end metrics listed in BENCHMARK.json.  --trace 1 alternates
an untraced and a traced preset run until S seconds have passed and
reports the per-layer metrics; the tracing overhead is the difference of
their median wall times.  Every sample process also times a fixed
calibration loop, and the gated times are reported at a nominal machine
speed (see NOMINAL_CALIB_S); the measured times are printed beside them.

Every written file is checked: shares are non-negative and sum to 1 on every
row, runs that must come to rest follow the closed-form solution of the
replicator dynamics (class Replicator), and the oscillating delayed runs
match the trajectories recorded by record.py.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  The exit code is 0 when every check passed, 1 when a check
failed, and 2 when the benchmark could not run at all (then no JSON line
is printed).
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "irsgame" / "data"
WORK = ROOT / ".perfbench_work"
CLOCK = time.CLOCK_MONOTONIC
START = time.clock_gettime(CLOCK)

SETUP_REPEATS = 7  # set-up-only processes per run, after one warm-up
MIN_SAMPLES = 2  # preset runs per untraced run, even when --seconds has passed
SOFT_LIMIT_S = 150.0  # start no sample expected to end later than this after START
HARD_LIMIT_S = 175.0  # kill a sample still running this long after START

# Each sample's time is scaled by NOMINAL_CALIB_S over the time its own process
# took for the fixed calibration loop (probe.calibration, run right before and
# right after the preset), and the run reports the median of the scaled times.
# The shared host's speed drifts by a quarter within minutes: in two sets of
# ten runs made one after the other, the measured delay medians differed by
# 26 %, above the 0.25 bound, while the scaled ones agreed within 1 %.
NOMINAL_CALIB_S = 0.2

RECORDED_SEEDS = 100  # record.py's SEEDS: the delay scenarios with recorded trajectories

TOL = 1e-9  # on |sum(p) - 1| of every written row, and on every gap to an oracle
ERR_FLOOR = 1e-17  # below the resolution of a 17-digit share; caps out_digits at 17


@dataclass(frozen=True)
class Workload:
    preset: str
    config: str  # bundled config file
    points: int  # sweep points one preset run produces


# The reasons are repeated, shorter, as the "why" of BENCHMARK.json.
WORKLOADS = {
    # The headline figure and acceptance criterion 01's path: 6 groups, RK4,
    # 60 000 steps, CSV stride 10.  integrate_ode and its 300 001 utility
    # closure calls are nearly the whole run; links and channels take
    # milliseconds.  An ODE-path change shows here; a phy change must not.
    "reference": Workload("utilities-vs-time", "default.cfg", 1),
    # delta = 0, 30, 60, 130 on the reduced scenario: one RK4 run and three
    # delayed-Euler runs of 60 000 steps, plus the stability bound.  The only
    # workload on integrate_dde, HistoryBuffer.lookup, delayed_replicator_field
    # and stability_bound.  All three delays exceed the bound, so those runs
    # oscillate and clamp mass.
    "delay": Workload("delay-sweep", "reduced.cfg", 4),
}


# --- output checks --------------------------------------------------------------


class Replicator:
    """Closed-form solution of the replicator dynamics of a scenario, from its optimized links.

    u_g = c_g / p_g, with c_g the valued rate minus prices over the population,
    so the field is mu * (c_g - p_g * C) with C = sum(c).  It rests at
    p* = c / C and, while every group is profitable (c_g > 0), follows
    p(t) = p* + (p0 - p*) * exp(-mu * C * t).  Groups with c_g <= 0 die out:
    then p* = c+ / sum(c+) and no trajectory is given.  Never uses an integrator.
    """

    def __init__(self, cfg):
        from irsgame import UtilityParams, build_all_links, generate_channels

        links = build_all_links(cfg, generate_channels(cfg))
        params = UtilityParams.from_config(cfg)
        c = np.empty(cfg.n_groups)
        for g, svc in enumerate(cfg.service_indices()):
            m = svc.sp - 1
            link = links[g]
            cost = params.price_irs[m] * len(link.phases.alphas) + params.price_power[m] * link.beam.power_w
            c[g] = (params.valuation[g] * cfg.sps[m].bandwidth_mhz * np.log2(1.0 + link.snr) - cost) / cfg.n_users
        self.profitable = bool(np.all(c > 0.0))
        surviving = np.maximum(c, 0.0)
        self.rest = surviving / surviving.sum()
        self.rate = cfg.mu * c.sum()
        self.p0 = cfg.initial_population()

    def gap(self, t: np.ndarray, p: np.ndarray) -> float:
        """Largest gap of written rows (times t, shares p) to the solution, or of the last row to p*."""
        if not self.profitable:
            return float(np.max(np.abs(p[-1] - self.rest)))
        exact = self.rest + (self.p0 - self.rest) * np.exp(-self.rate * t)[:, None]
        return float(np.max(np.abs(p - exact)))


def read_csv(path: Path):
    """(meta dict, header list, data rows as a 2-D array) of a written CSV."""
    meta, lines = {}, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        else:
            lines.append(line)
    return meta, lines[0].split(","), np.loadtxt(lines[1:], delimiter=",", ndmin=2)


def shares(header: list, data: np.ndarray) -> np.ndarray:
    return data[:, [i for i, col in enumerate(header) if col.startswith("p_")]]


@dataclass
class Check:
    """Outcome of the output check of one preset run."""

    ok: int = 0
    failed: int = 0
    err: float = 0.0  # largest gap to an oracle over the checked points
    notes: tuple = ()

    def point(self, what: str, p: np.ndarray, gap: float):
        """One sweep point: its written shares p (rows) and their gap to the oracle."""
        simplex = bool(np.all(p >= 0.0) and np.all(np.abs(p.sum(axis=1) - 1.0) <= TOL))
        self.err = max(self.err, gap)
        if simplex and gap <= TOL:
            self.ok += 1
        else:
            self.failed += 1
            self.notes += ("%s: on simplex %s, gap %.3g (tolerance %.0e)" % (what, simplex, gap, TOL),)


class Case:
    """One workload at one seed: its config file and the oracles of its outputs."""

    def __init__(self, name: str, seed: int):
        from irsgame import load_config, with_scalar_overrides

        self.name = name
        self.workload = WORKLOADS[name]
        self.config = DATA / self.workload.config
        self.seed = seed % RECORDED_SEEDS if name == "delay" else seed  # the scenario seed
        self.oracle = Replicator(with_scalar_overrides(load_config(self.config), seed=self.seed))
        self.recorded = {}
        if name == "delay":
            record = json.loads((HERE / "recorded_delay.json").read_text(encoding="utf-8"))
            self.recorded = record["seeds"].get(str(self.seed), {})

    def check(self, out: Path) -> Check:
        res = Check()
        if self.name == "reference":
            path = out / "utilities_vs_time.csv"
            if path.is_file():
                _, header, data = read_csv(path)
                p = shares(header, data)
                res.point(path.name, p, self.oracle.gap(data[:, 0], p))
        else:
            for path in sorted(out.glob("delay_sweep_delta*.csv")):
                meta, header, data = read_csv(path)
                p = shares(header, data)
                delta = float(meta["scenario.delta"])
                if delta == 0.0:
                    gap = self.oracle.gap(data[:, 0], p)
                else:
                    gap = self._recorded_gap(data[:, 0], p, delta)
                res.point(path.name, p, gap)
        res.failed += max(0, self.workload.points - res.ok - res.failed)  # points an aborted run never reached
        return res

    def _recorded_gap(self, t: np.ndarray, p: np.ndarray, delta: float) -> float:
        rec = self.recorded.get(repr(delta))
        if rec is None:
            return 1.0  # no recording to compare with: the point fails
        gap = 0.0
        for t_rec, p_rec in zip(rec["t"], rec["p"]):
            rows = np.nonzero(np.abs(t - t_rec) <= 1e-9)[0]
            if rows.size == 0:
                return 1.0
            gap = max(gap, float(np.max(np.abs(p[rows[0]] - np.asarray(p_rec)))))
        return gap


# --- samples --------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def probe(case: Case, preset: bool = True, traced: bool = False) -> dict:
    """Run probe.py once and return its result; raises when the process itself failed."""
    result = WORK / "probe_result.json"
    out = WORK / "out"
    result.unlink(missing_ok=True)
    shutil.rmtree(out, ignore_errors=True)
    extra = []
    if preset:
        extra = ["--preset", case.workload.preset, "--seed", str(case.seed), "--out", str(out)]
        if traced:
            extra += ["--spans", str(WORK / ("spans_%s.npz" % case.name))]
    t0 = time.clock_gettime(CLOCK)
    cmd = [sys.executable, str(HERE / "probe.py"), "--t0", repr(t0), "--config", str(case.config)]
    proc = subprocess.run(
        cmd + ["--result", str(result)] + extra,
        env=child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=max(1.0, START + HARD_LIMIT_S - t0),
    )
    if not result.is_file():
        raise RuntimeError("probe exited with %d:\n%s" % (proc.returncode, proc.stderr.decode(errors="replace")))
    res = json.loads(result.read_text(encoding="utf-8"))
    if not Path(res["irsgame"]).resolve().is_relative_to(SRC):
        raise RuntimeError("probe imported irsgame from %s, not from %s" % (res["irsgame"], SRC))
    if preset:
        res["check"] = case.check(out)
        res["bytes_written"] = sum(f.stat().st_size for f in out.iterdir()) if out.is_dir() else 0
        if res["rc"] != 0:  # a non-zero exit fails every point of the run, written or not
            res["check"].failed += res["check"].ok
            res["check"].ok = 0
            res["check"].notes += ("exit code %d: %s" % (res["rc"], proc.stderr.decode(errors="replace").strip()),)
    return res


def cpu_times() -> list:
    with open("/proc/stat", encoding="ascii") as fh:
        return [int(x) for x in fh.readline().split()[1:]]


def environment(stat0: list) -> str:
    stat1 = cpu_times()
    delta = [b - a for a, b in zip(stat0, stat1)]
    steal = 100.0 * delta[7] / sum(delta) if len(delta) > 7 and sum(delta) > 0 else 0.0
    with open("/proc/loadavg", encoding="ascii") as fh:
        load = ",".join(fh.read().split()[:3])
    return "env: nproc=%d python=%s numpy=%s loadavg=%s steal=%.2f%%" % (
        len(os.sched_getaffinity(0)),
        platform.python_version(),
        np.__version__,
        load,
        steal,
    )


def spread(values: list) -> str:
    return "median %.4g of %d, min %.4g, max %.4g" % (statistics.median(values), len(values), min(values), max(values))


def nominal(samples: list, key: str) -> float:
    """Median of the samples' times of key, each scaled to nominal speed by its own calibration."""
    return statistics.median(r[key] * NOMINAL_CALIB_S / r["calib_s"] for r in samples)


def sample_until(deadline: float, sample, minimum: int = 1) -> list:
    """Call sample() at least minimum times and again while time is left before deadline."""
    out = []
    while True:
        t0 = time.clock_gettime(CLOCK)
        out.append(sample())
        now = time.clock_gettime(CLOCK)
        if (now >= deadline and len(out) >= minimum) or now + (now - t0) > START + SOFT_LIMIT_S:
            return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "irsgame" / "__init__.py").is_file():
        print("perfbench: no irsgame sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    WORK.mkdir(exist_ok=True)
    stat0 = cpu_times()
    case = Case(args.workload, args.seed)
    print("perfbench: workload=%s preset=%s seed=%d scenario seed=%d seconds=%g trace=%d"
          % (case.name, case.workload.preset, args.seed, case.seed, args.seconds, args.trace))

    probe(case, preset=False)  # warm-up: byte-code caches and page cache
    setup_runs = [probe(case, preset=False) for _ in range(SETUP_REPEATS)]
    deadline = time.clock_gettime(CLOCK) + args.seconds
    if args.trace:
        pairs = sample_until(deadline, lambda: (probe(case), probe(case, traced=True)))
        runs = [r for pair in pairs for r in pair]
    else:
        runs = sample_until(deadline, lambda: probe(case), MIN_SAMPLES)
    print(environment(stat0))

    checks = [r["check"] for r in runs]
    attempted = sum(c.ok + c.failed for c in checks)
    failed = sum(c.failed for c in checks)
    err = max(c.err for c in checks)
    for note in sorted({n for c in checks for n in c.notes}):
        print("check: " + note)
    calibs = [r["calib_s"] for r in setup_runs + runs]
    walls = [r["wall_s"] for r in runs]
    print("calib_s samples: %s: %s" % (spread(calibs), " ".join("%.4f" % r["calib_s"] for r in runs)))
    print("wall_s samples as measured: %s: %s" % (spread(walls), " ".join("%.4f" % w for w in walls)))

    if args.trace:
        plain = nominal([r for r, _ in pairs], "wall_s")
        traced = [t for _, t in pairs]
        layers = {k: statistics.median_low(t["layers"][k] for t in traced) for k in traced[0]["layers"]}
        layers["experiments.bytes_written"] = statistics.median(t["bytes_written"] for t in traced)
        layers["trace.overhead_s"] = nominal(traced, "wall_s") - plain
        layers["env.calib_s"] = statistics.median(calibs)
        if traced[0].get("missing"):
            print("trace: names not found, not traced: %s" % ", ".join(traced[0]["missing"]))
        print("trace: at nominal speed, untraced wall_s %.4f s, overhead %.4f s; uncovered by spans %.4f s"
              % (plain, layers["trace.overhead_s"], layers["trace.uncovered_s"]))
        values, wanted = layers, declared["per_layer"]
    else:
        setups = [r["setup_s"] for r in setup_runs + runs]
        rss = [r["peak_rss_mb"] for r in runs]
        values = {
            "wall_s": nominal(runs, "wall_s"),
            "setup_s": nominal(setup_runs + runs, "setup_s"),
            "peak_rss_mb": statistics.median(rss),
            "out_digits": -math.log10(max(err, ERR_FLOOR)),
            "pass_ratio": (attempted - failed) / attempted,
        }
        print("setup_s samples as measured: %s" % spread(setups))
        print("peak_rss_mb samples: %s" % spread(rss))
        print("fail_ratio      %.6g (failed %d of %d points)" % (failed / attempted, failed, attempted))
        print("out_err_max     %.6g (largest gap to the closed form or the recording)" % err)
        wanted = declared["end_to_end"]
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print("%-40s %.10g %s" % (m["name"], values[m["name"]], m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        sys.exit(2)
