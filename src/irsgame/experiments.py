"""Experiment presets: simulate scenarios and emit CSV data files.

Every preset is a pure function of (config, seed): channels, links and
trajectories are deterministic, so rerunning a preset with the same inputs
reproduces its output files byte for byte.  A scenario enters the game only
through its payoff vector, numerators(cfg), so links are built once per radio
scenario: sweeps over mu, n_users, delta or a price reuse them.  The undelayed
sweeps sample no trajectory: they read each point's rest, or the sample where
it comes to rest, off its exact ReplicatorSolution, so integrator.horizon does
not enter them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .channel import generate_channels
from .config import Position, ScenarioConfig
from .dynamics import ReplicatorSolution, Trajectory, solve_delayed, solve_replicator
from .errors import ConfigurationError, NumericError
from .game import detect_equilibrium, make_utilities, stability_bound, utility_numerators
from .phy import build_all_links

PRESETS = (
    "utilities-vs-time",
    "convergence-speed",
    "delay-sweep",
    "irs-size-sweep",
    "distance-price-sweep",
)

# equilibrium detection thresholds shared by all presets
EPS_FIELD = 1e-6
EPS_MASS = 1e-2

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


def _meta(cfg: ScenarioConfig, preset: str, extra: list = ()) -> list:
    return [("preset", preset)] + list(extra) + cfg.flat_items()


def emit_csv(traj: Trajectory, meta: list, path, stride: int = 1) -> Path:
    """Write a trajectory as CSV: '#' header lines, then t, shares, utilities.

    Columns: t, p_1..p_G, u_1..u_G, u_bar.  Utilities of empty groups are
    written as nan.  stride thins the samples but always keeps the last one.
    """
    if len(traj) == 0:
        raise ConfigurationError("refusing to write an empty trajectory")
    if stride < 1:
        raise ConfigurationError("stride must be at least 1")
    n_groups = traj.states.shape[1]
    columns = (
        ["t"]
        + ["p_%d" % (g + 1) for g in range(n_groups)]
        + ["u_%d" % (g + 1) for g in range(n_groups)]
        + ["u_bar"]
    )
    idx = np.arange(0, len(traj), stride)
    if idx[-1] != len(traj) - 1:
        idx = np.append(idx, len(traj) - 1)
    if traj.utilities is None:
        u, u_bar = np.full((len(idx), n_groups), np.nan), np.full(len(idx), np.nan)
    else:
        u, u_bar = traj.utilities[idx], traj.u_bar[idx]
    table = np.column_stack([traj.times[idx], traj.states[idx], u, u_bar])
    return _write_csv(Path(path), meta, columns, table.tolist())


def trajectory_json(traj: Trajectory) -> dict:
    """Trajectory as arrays keyed by CSV column name."""
    n_groups = traj.states.shape[1]
    out = {"t": traj.times.tolist()}
    for g in range(n_groups):
        out["p_%d" % (g + 1)] = traj.states[:, g].tolist()
    if traj.utilities is not None:
        for g in range(n_groups):
            col = traj.utilities[:, g]
            out["u_%d" % (g + 1)] = [None if not np.isfinite(v) else v for v in col]
        out["u_bar"] = traj.u_bar.tolist()
    return out


# --- presets -------------------------------------------------------------------


def _run_utilities_vs_time(cfg: ScenarioConfig, out_dir: Path, json_dump: bool = False) -> list:
    traj = simulate(cfg).trajectory
    paths = [
        emit_csv(
            traj,
            _meta(cfg, "utilities-vs-time"),
            out_dir / "utilities_vs_time.csv",
            stride=TRAJECTORY_STRIDE,
        )
    ]
    if json_dump:
        paths.append(_write_json(traj, out_dir / "utilities_vs_time.json"))
    return paths


def _write_json(traj: Trajectory, path: Path) -> Path:
    path.write_text(json.dumps(trajectory_json(traj)) + "\n", encoding="utf-8")
    return path


def _run_convergence_speed(cfg: ScenarioConfig, out_dir: Path, json_dump: bool = False) -> list:
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
    path = _write_csv(
        out_dir / "convergence_speed.csv",
        _meta(cfg, "convergence-speed"),
        ["mu", "n_users", "t_equilibrium"],
        rows,
    )
    return [path]


def _run_delay_sweep(cfg: ScenarioConfig, out_dir: Path, json_dump: bool = False) -> list:
    numer = numerators(cfg)  # delta does not enter the links
    try:
        bound = "%.17g" % stability_bound(numer, cfg.mu, cfg.n_users)
    except NumericError:
        bound = "not computable (aggregate utility term is not positive)"
    paths = []
    for delta in cfg.grids.delta:
        point = replace(cfg, delta=delta)
        traj = _dynamics(point, numer)
        eq = detect_equilibrium(traj, EPS_FIELD, EPS_MASS, min_quiet=delta)
        t_eq = "%.17g" % eq.time if eq is not None else "none (tail never rests for a full delay window)"
        # shortest round-trip form, so that distinct delays never share a file
        tag = repr(float(delta)).removesuffix(".0").replace(".", "p").replace("-", "m")
        paths.append(
            emit_csv(
                traj,
                _meta(point, "delay-sweep", [("stability_bound", bound), ("t_equilibrium", t_eq)]),
                out_dir / ("delay_sweep_delta%s.csv" % tag),
                stride=TRAJECTORY_STRIDE,
            )
        )
        if json_dump:
            paths.append(_write_json(traj, out_dir / ("delay_sweep_delta%s.json" % tag)))
    return paths


def _run_irs_size_sweep(cfg: ScenarioConfig, out_dir: Path, json_dump: bool = False) -> list:
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
    path = _write_csv(
        out_dir / "irs_size_sweep.csv",
        _meta(base, "irs-size-sweep"),
        ["irs_elements_sp2"] + ["p_%d" % (g + 1) for g in range(base.n_groups)],
        rows,
    )
    return [path]


def _run_distance_price_sweep(cfg: ScenarioConfig, out_dir: Path, json_dump: bool = False) -> list:
    sp1 = cfg.sps[0]
    axis = np.array(
        [sp1.irs_position.x - sp1.bs_position.x, sp1.irs_position.y - sp1.bs_position.y]
    )
    norm = float(np.hypot(*axis))
    if norm == 0:
        raise ConfigurationError("sp.1 BS and surface positions coincide; no sweep axis")
    axis = axis / norm
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
    path = _write_csv(
        out_dir / "distance_price_sweep.csv",
        _meta(cfg, "distance-price-sweep"),
        ["distance", "price_irs_sp1", "share_sp1", "share_sp2"],
        rows,
    )
    return [path]


_RUNNERS = {
    "utilities-vs-time": _run_utilities_vs_time,
    "convergence-speed": _run_convergence_speed,
    "delay-sweep": _run_delay_sweep,
    "irs-size-sweep": _run_irs_size_sweep,
    "distance-price-sweep": _run_distance_price_sweep,
}


def run_experiment(preset: str, cfg: ScenarioConfig, out_dir, json_dump: bool = False) -> list:
    """Run one preset and write its data files; returns the written paths.

    json_dump additionally writes a .json twin (arrays keyed by column name)
    for every trajectory CSV.
    """
    if preset not in _RUNNERS:
        raise ConfigurationError(
            "unknown preset %r; choose one of: %s" % (preset, ", ".join(PRESETS))
        )
    if cfg.delta > 0 and preset not in ("utilities-vs-time", "delay-sweep"):
        raise ConfigurationError("scenario.delta = %g: needs delta = 0; use delay-sweep" % cfg.delta)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return list(_RUNNERS[preset](cfg, out, json_dump))
