"""Experiment presets: simulate scenarios and emit CSV data files.

Every preset is a pure function of (config, seed): channels, links and
trajectories are deterministic, so rerunning a preset with the same inputs
reproduces its output files byte for byte.  A scenario enters the game only
through its payoff vector, numerators(cfg), so links are built once per radio
scenario: sweeps over mu, n_users, delta or a price reuse them.  The undelayed
sweeps sample no trajectory: they read each point's rest, or the sample where
it comes to rest, off its exact ReplicatorSolution, so integrator.horizon does
not enter them.  A preset's runner writes nothing: it yields each file's data,
and run_experiment names every file after the preset and writes it.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .channel import generate_channels
from .config import _COUNT, Position, ScenarioConfig, _finite, _raise, _require
from .dynamics import ReplicatorSolution, Trajectory, solve_delayed, solve_replicator
from .errors import ConfigurationError, NumericError
from .game import EPS_FIELD, detect_equilibrium, make_utilities, stability_bound, utility_numerators
from .phy import build_all_links

# trajectory CSVs keep every TRAJECTORY_STRIDE-th sample (plus the last)
TRAJECTORY_STRIDE = 10


@dataclass
class SimulationResult:
    """The trajectory of one scenario run (perfbench/record.py reads simulate(cfg).trajectory)."""

    trajectory: Trajectory


def numerators(cfg: ScenarioConfig) -> np.ndarray:
    """The scenario's payoff vector: channels, optimized links, then utility_numerators."""
    return utility_numerators(build_all_links(cfg, generate_channels(cfg)), cfg)


def simulate(cfg: ScenarioConfig) -> SimulationResult:
    """Run the full pipeline: the payoff vector numerators(cfg), then the selection dynamics."""
    return SimulationResult(_dynamics(cfg, numerators(cfg)))


def _dynamics(cfg: ScenarioConfig, numer: np.ndarray) -> Trajectory:
    """Selection dynamics of a scenario with payoff vector numer.

    A zero decision delay evaluates the exact solution of the replicator
    dynamics (solve_replicator) on the configured sample grid; a positive
    delay steps the delayed field with forward Euler, one delay window at a
    time (solve_delayed).
    """
    utilities = make_utilities(numer, cfg.n_users)
    p0 = cfg.initial_population()
    if cfg.delta > 0:
        return solve_delayed(utilities, cfg.mu, p0, cfg.delta, cfg.integrator)
    return solve_replicator(numer / cfg.n_users, cfg.mu, p0, cfg.integrator, utilities)


# --- CSV emission --------------------------------------------------------------


def _write_csv(path: Path, meta: list, columns: list, rows) -> Path:
    # %.17g reads back to the same float and prints integers below 10**17 exactly
    row = ",".join(["%.17g"] * len(columns))
    lines = ["# %s = %s" % (k, v) for k, v in meta]
    lines.append(",".join(columns))
    lines.extend(row % tuple(r) for r in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _write_json(path: Path, meta: list, columns: list, rows) -> Path:
    """The twin of _write_csv: the meta block, then one array per column, a non-finite cell as null."""
    cols = {name: [v if _finite(v) else None for v in col] for name, col in zip(columns, zip(*rows))}
    path.write_text(json.dumps({"meta": dict(meta), **cols}) + "\n", encoding="utf-8")
    return path


def _trajectory_table(traj: Trajectory, stride: int) -> tuple[list, list]:
    """emit_csv's (columns, rows): every stride-th sample and the last."""
    if len(traj) == 0:
        raise ConfigurationError("refusing to write an empty trajectory")
    _require("stride", stride, _COUNT, numbers.Integral)
    g = range(1, traj.states.shape[1] + 1)
    columns = ["t"] + ["p_%d" % k for k in g] + ["u_%d" % k for k in g] + ["u_bar"]
    idx = np.append(np.arange(0, len(traj) - 1, stride), len(traj) - 1)
    u = np.full((len(idx), len(g) + 1), np.nan)  # no utilities recorded
    if traj.utilities is not None:
        u = np.column_stack([traj.utilities[idx], traj.u_bar[idx]])
    return columns, np.column_stack([traj.times[idx], traj.states[idx], u]).tolist()


def emit_csv(traj: Trajectory, meta: list, path, stride: int = 1) -> Path:
    """Write a trajectory as CSV: '#' header lines, then t, shares, utilities.

    Columns: t, p_1..p_G, u_1..u_G, u_bar.  Utilities of empty groups are
    written as nan.  stride thins the samples but always keeps the last one.
    """
    return _write_csv(Path(path), meta, *_trajectory_table(traj, stride))


# --- presets -------------------------------------------------------------------
# A runner yields (file stem suffix, scenario, extra meta lines, data) per file,
# data a Trajectory or (columns, rows), one at a time: run_experiment writes each
# before the next is computed.


def _run_utilities_vs_time(cfg: ScenarioConfig):
    yield "", cfg, [], simulate(cfg).trajectory


def _run_convergence_speed(cfg: ScenarioConfig):
    numer = numerators(cfg)  # neither mu nor n_users enters the links
    p0 = cfg.initial_population()
    rows = []
    dt = cfg.integrator.dt
    for mu in cfg.grids.mu:
        for n in cfg.grids.n_users:
            solution = ReplicatorSolution(numer / n, mu, p0)
            try:
                index = solution.equilibrium_index(dt, EPS_FIELD)
            except ConfigurationError as exc:
                raise ConfigurationError("grid point mu=%g n_users=%d: %s" % (mu, n, exc)) from None
            rows.append((mu, n, index * dt))
    yield "", cfg, [], (["mu", "n_users", "t_equilibrium"], rows)


def _run_delay_sweep(cfg: ScenarioConfig):
    numer = numerators(cfg)  # delta does not enter the links
    try:
        bound = "%.17g" % stability_bound(numer, cfg.mu, cfg.n_users)
    except NumericError as exc:
        bound = "not computable (%s)" % exc
    for delta in cfg.grids.delta:
        point = replace(cfg, delta=delta)
        traj = _dynamics(point, numer)
        eq = detect_equilibrium(traj, min_quiet=delta)
        t_eq = "%.17g" % eq.time if eq is not None else "none (tail never rests for a full delay window)"
        # shortest round-trip form, so that distinct delays never share a file
        tag = repr(float(delta)).removesuffix(".0").replace(".", "p").replace("-", "m")
        yield "_delta" + tag, point, [("stability_bound", bound), ("t_equilibrium", t_eq)], traj


def _run_irs_size_sweep(cfg: ScenarioConfig):
    if len(cfg.sps) < 2:
        raise ConfigurationError("irs-size-sweep needs a second provider to resize")
    # keep the surface price low enough that the rate gain of extra elements
    # is not eaten by the element price across the whole default grid
    base = replace(cfg, sps=[replace(sp, price_irs=min(sp.price_irs, 0.05)) for sp in cfg.sps])
    p0 = base.initial_population()
    rows = []
    for k2 in base.grids.irs_elements_sp2:
        sps = list(base.sps)
        sps[1] = replace(sps[1], irs_elements=int(k2))
        numer = numerators(replace(base, sps=sps))
        rows.append((int(k2), *ReplicatorSolution(numer / base.n_users, base.mu, p0).rest))
    yield "", base, [], (["irs_elements_sp2"] + ["p_%d" % (g + 1) for g in range(base.n_groups)], rows)


def _run_distance_price_sweep(cfg: ScenarioConfig):
    sp1 = cfg.sps[0]
    norm = sp1.bs_position.distance_to(sp1.irs_position)
    if not norm < np.inf:
        raise NumericError("sp.1 BS to surface distance %r m is not finite" % norm)
    # Python floats: a user placed past the largest float is at inf, without a warning
    axis = ((sp1.irs_position.x - sp1.bs_position.x) / norm, (sp1.irs_position.y - sp1.bs_position.y) / norm)
    sp1_groups = cfg.groups_of_sp(1)
    sp2_groups = cfg.groups_of_sp(2) if len(cfg.sps) > 1 else []
    placed = []  # (distance, scenario, its links): the surface price does not enter the links
    for dist in cfg.grids.distance:
        user = Position(sp1.irs_position.x + axis[0] * dist, sp1.irs_position.y + axis[1] * dist)
        point = replace(cfg, sps=[replace(sp1, user_position=user)] + cfg.sps[1:])
        placed.append((dist, point, build_all_links(point, generate_channels(point))))
    p0 = cfg.initial_population()
    rows = []
    for price in cfg.grids.price_irs_sp1:
        for dist, point, links in placed:
            priced = replace(point, sps=[replace(point.sps[0], price_irs=price)] + point.sps[1:])
            rest = ReplicatorSolution(utility_numerators(links, priced) / cfg.n_users, cfg.mu, p0).rest
            rows.append((dist, price, float(rest[sp1_groups].sum()), float(rest[sp2_groups].sum())))
    yield "", cfg, [], (["distance", "price_irs_sp1", "share_sp1", "share_sp2"], rows)


# preset: (runner, the run flags it reads, the grids it sweeps in place of the others)
PRESET_TABLE = {
    "utilities-vs-time": (_run_utilities_vs_time, ("mu", "delta", "dt", "horizon", "n_users", "seed", "json"), ()),
    "convergence-speed": (_run_convergence_speed, ("dt", "seed"), ("mu", "n_users")),
    "delay-sweep": (_run_delay_sweep, ("mu", "dt", "horizon", "n_users", "seed", "json"), ("delta",)),
    "irs-size-sweep": (_run_irs_size_sweep, ("mu", "n_users", "seed"), ("irs_elements_sp2",)),
    "distance-price-sweep": (_run_distance_price_sweep, ("mu", "n_users", "seed"), ("distance", "price_irs_sp1")),
}
PRESETS = tuple(PRESET_TABLE)


def run_experiment(preset: str, cfg: ScenarioConfig, out_dir, flags=()) -> list:
    """Run one preset and write its data files; returns the written paths.

    flags names the run flags that were set; one the preset does not read is a
    configuration error, and "json" also writes a .json twin of every CSV:
    the same meta block and cells, as one array per column.
    """
    if preset not in PRESET_TABLE:
        raise ConfigurationError("unknown preset %r; choose one of: %s" % (preset, ", ".join(PRESETS)))
    run, reads, sweeps = PRESET_TABLE[preset]
    instead = "it sweeps " + " and ".join("grids." + name for name in sweeps)
    errors = ["%s does not read --%s; %s" % (preset, f.replace("_", "-"), instead) for f in flags if f not in reads]
    if cfg.delta > 0 and "delta" not in reads + sweeps:
        errors.append("scenario.delta = %g: needs delta = 0; use delay-sweep" % cfg.delta)
    _raise(errors)
    path = out = Path(out_dir)
    paths = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        for suffix, scenario, extra, data in run(cfg):
            path = out / (preset.replace("-", "_") + suffix + ".csv")
            meta = [("preset", preset)] + extra + scenario.flat_items()
            if isinstance(data, Trajectory):
                data = _trajectory_table(data, TRAJECTORY_STRIDE)
            paths.append(_write_csv(path, meta, *data))
            if "json" in flags:  # only presets of trajectories read it
                path = path.with_suffix(".json")
                paths.append(_write_json(path, meta, *data))
            del data  # a table is not kept while the runner computes the next file's data
    except OSError as exc:  # path is the directory or the file being written
        raise ConfigurationError("cannot write %s: %s" % (path, exc)) from None
    return paths
