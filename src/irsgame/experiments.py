"""Experiment presets: simulate scenarios and emit CSV data files.

Every preset is a pure function of (config, seed): channels, links and trajectories are
deterministic, so rerunning a preset with the same inputs reproduces its output files byte for
byte.  A scenario enters the game only through its payoff vector, numerators(cfg), so links are
built once per radio scenario: sweeps over mu, n_users, delta or a price reuse them.  No preset
samples an undelayed run's full grid.  The undelayed sweeps read each point's rest, or the sample
where it comes to rest, off its exact ReplicatorSolution, so integrator.horizon does not enter
them.  Every undelayed trajectory file, utilities-vs-time's and delay-sweep's delta = 0 point,
evaluates that solution only at its written rows, every TRAJECTORY_STRIDE-th sample and the last,
each with the bits of the full grid's row (_exact_run); the delta = 0 point's rest index is
equilibrium_index on its own grid.  A preset's runner writes nothing: it yields each file's table,
and run_experiment, the package's one file writer, names and writes every file, CHUNK_CELLS cells
at a time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .channel import generate_channels
from .config import OVERRIDES, Position, ScenarioConfig, _finite, _raise
from .dynamics import ReplicatorSolution, Trajectory, solve_delayed, solve_replicator
from .errors import ConfigurationError, NumericError
from .game import detect_equilibrium, make_utilities, stability_bound, utility_numerators
from .phy import build_all_links

# trajectory CSVs keep every TRAJECTORY_STRIDE-th sample (plus the last)
TRAJECTORY_STRIDE = 10
# _write_csv formats max(1, CHUNK_CELLS // width) rows at a time: a chunk's largest temporaries, its
# 41-byte slots, then take 3072 * 41 = 125 952 bytes, below glibc malloc's 128 KiB mmap threshold,
# so each chunk reuses heap pages instead of mapping and faulting in fresh ones; 6 columns make 512 rows
CHUNK_CELLS = 3072


@dataclass
class SimulationResult:
    """The trajectory of one scenario run (perfbench/record.py reads simulate(cfg).trajectory)."""

    trajectory: Trajectory


def numerators(cfg: ScenarioConfig) -> np.ndarray:
    """The scenario's payoff vector: channels, optimized links, then utility_numerators."""
    return utility_numerators(build_all_links(cfg, generate_channels(cfg)), cfg)


def simulate(cfg: ScenarioConfig) -> SimulationResult:
    """Run the full pipeline: the payoff vector numerators(cfg), then the selection dynamics on the configured grid."""
    numer, p0 = numerators(cfg), cfg.initial_population()
    if cfg.delta > 0:
        return SimulationResult(solve_delayed(numer, cfg.n_users, cfg.mu, p0, cfg.delta, cfg.integrator))
    return SimulationResult(solve_replicator(numer, cfg.n_users, cfg.mu, p0, cfg.integrator))


# --- CSV emission --------------------------------------------------------------


# A cell is written as "%.17g" prints it, which reads back to the same float and
# prints integers below 10**17 exactly: a sweep's ints print as their floats.
# %.17g rounds |x| half to even to 17 significant digits, D * 10**(X - 16) with
# D in [10**16, 10**17), and prints fixed notation when X is in [-4, 16].
# _format_rows makes the text of those cells in numpy, from exact digits, and
# takes Python's own text for every other cell: zeros, inf, NaN, exponent form.
#
# X is the least k with rint(|x| * 10**(16 - k)) < 10**17, that is with
# |x| < (10**17 - 1/2) * 10**(k - 16).  _X_EDGES holds those bounds for k = -5 ... 16;
# int / int rounds correctly, and each of them rounds up, so X = (the number of
# edges <= |x|) - 5, and the cells with 1 to 21 edges below them print in fixed notation.
_X_EDGES = np.array([(2 * 10**17 - 1) / (2 * 10 ** (16 - k)) for k in range(-5, 17)])
# 10**e for e = 16 - X in [0, 20], exact in a float, and its halves for Dekker's product
_POW10 = np.array([float(10**e) for e in range(21)])
_SPLITTER = 2.0**27 + 1
_POW10_HI = _SPLITTER * _POW10 - (_SPLITTER * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# the text of 0 ... 9999, 4 digits each, as one uint32 per word
_DIGIT = np.frombuffer(b"0123456789", dtype=np.uint8)
_DIGITS4 = np.stack(
    np.broadcast_arrays(_DIGIT[:, None, None, None], _DIGIT[:, None, None], _DIGIT[:, None], _DIGIT), axis=-1
).view(np.uint32).ravel()
# A cell's slot: its sign, "0.000", D's 17 digits, the point, D's last 16 digits, ",".  A fixed
# cell prints some of its bytes, and each byte has a place that does not depend on the cell:
# X < 0 prints "0." and -X - 1 zeros before the first copy of the digits, X >= 0 prints
# digits 0 ... X of the first copy and the fraction from the second.  A cell printed as
# Python's text holds that text at the start of its slot.
_SLOT = 41
_TEMPLATE = np.frombuffer(b"-0.000" + b"0" * 17 + b"." + b"0" * 16 + b",", dtype=np.uint8)


def _keep_table() -> np.ndarray:
    """The bytes of a slot that a cell prints, one row per kind of cell.

    Row ((X + 4) * 17 + zeros) * 2 + negative is a fixed cell of exponent X whose D
    ends in that many zeros; the last 25 rows are Python's text of 0 ... 24 bytes.
    """
    at = np.arange(_SLOT)
    X = np.arange(-4, 17)[:, None, None, None]
    zeros = np.arange(17)[:, None, None]
    negative = np.arange(2)[:, None]
    fraction = np.where(X < 0, 0, np.maximum(16 - X - zeros, 0))  # digits after the point when X >= 0
    fixed = (
        ((at == 0) & (negative == 1))
        | ((1 <= at) & (at < np.where(X < 0, 2 - X, 1)))
        | ((6 <= at) & (at < np.where(X < 0, 23 - zeros, 7 + X)))
        | ((at == 23) & (fraction > 0))
        | ((24 + X <= at) & (at < 24 + X + fraction))
    )
    text = at < np.arange(25)[:, None]
    return np.concatenate([fixed.reshape(-1, _SLOT), text]) | (at == _SLOT - 1)


_KEEP = _keep_table()


def _digits(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The text of D = rint(a * 10**e), which lies in [10**16, 10**17): 20 bytes a row, "000" and D's digits."""
    # hi + lo = a * 10**e exactly (Dekker's product), and hi >= 2**53 is an even integer,
    # so hi + rint(lo) rounds half to even as the exact product would
    hi = a * _POW10[e]
    a_hi = _SPLITTER * a
    a_hi -= a_hi - a
    a_lo = a - a_hi
    lo = a_lo * _POW10_LO[e] - (((hi - a_hi * _POW10_HI[e]) - a_lo * _POW10_HI[e]) - a_hi * _POW10_LO[e])
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    high = d // 10**8
    low = d - high * 10**8
    hh, lh = high // 10**4, low // 10**4
    words = np.stack([hh // 10**4, hh % 10**4, high - hh * 10**4, lh, low - lh * 10**4], axis=1)
    return _DIGITS4[words].view(np.uint8)


def _format_rows(chunk: np.ndarray) -> bytes:
    """The rows of a 2-D float array as "%.17g" prints each cell, joined by "," and ended by "\\n"."""
    x = chunk.reshape(-1)
    a = np.abs(x)
    X = np.searchsorted(_X_EDGES, a, side="right") - 5
    other = np.flatnonzero((X < -4) | (X > 16))
    a[other] = 1.0  # a fixed cell, so that _digits sees finite numbers only
    X[other] = 0
    text = _digits(a, 16 - X)
    zeros = (text[:, :2:-1] == ord("0")).argmin(axis=1)  # D's trailing zeros
    kind = ((X + 4) * 17 + zeros) * 2 + (x < 0)
    slots = np.empty((len(x), _SLOT), dtype=np.uint8)
    slots[:] = _TEMPLATE
    slots[:, 6:23] = text[:, 3:]
    slots[:, 24:40] = text[:, 4:]
    slots.reshape(chunk.shape + (_SLOT,))[:, -1, -1] = ord("\n")
    if len(other):  # Python's text, once per bit pattern
        bits, which = np.unique(x[other].view(np.int64), return_inverse=True)
        texts = ["%.17g" % v for v in bits.view(np.float64).tolist()]
        slots[other, :24] = np.array(texts, dtype="S24").view(np.uint8).reshape(-1, 24)[which]
        kind[other] = len(_KEEP) - 25 + np.array([len(t) for t in texts])[which]
    return slots[np.take(_KEEP, kind, axis=0)].tobytes()


def _write_csv(path: Path, meta: list, columns: list, rows) -> Path:
    """The meta block, the header, then the rows, read as one float array and formatted CHUNK_CELLS cells a chunk."""
    rows = np.asarray(rows, dtype=float)
    step = max(1, CHUNK_CELLS // len(columns))
    with path.open("wb") as f:
        f.write("".join("# %s = %s\n" % (k, v) for k, v in meta).encode("utf-8"))
        f.write((",".join(columns) + "\n").encode("utf-8"))
        for i in range(0, len(rows), step):
            f.write(_format_rows(rows[i : i + step]))
    return path


def _write_json(path: Path, meta: list, columns: list, rows) -> Path:
    """The twin of _write_csv: the meta block, then one array per column, a non-finite cell as null.

    The text is json.dumps({"meta": dict(meta), **columns}), written one column at a time.
    """
    rows = np.asarray(rows, dtype=float)
    with path.open("w", encoding="utf-8") as f:
        f.write('{"meta": ' + json.dumps(dict(meta)))
        for j, name in enumerate(columns):
            cells = [v if _finite(v) else None for v in rows[:, j].tolist()]
            f.write(", %s: %s" % (json.dumps(name), json.dumps(cells)))
        f.write("}\n")
    return path


def _sampled_table(n: int, dt: float, states_at, utilities) -> tuple[list, np.ndarray]:
    """A trajectory file's (columns, rows) for a run of n samples on the grid t_i = i * dt.

    The rows are every TRAJECTORY_STRIDE-th sample and the last: t, shares, utilities and u_bar,
    with states_at(idx) the states of the sample indices idx and utilities the run's map.
    """
    idx = np.append(np.arange(0, n - 1, TRAJECTORY_STRIDE), n - 1)
    states = states_at(idx)
    u, u_bar = utilities(states)  # the map of the written rows only
    g = range(1, states.shape[1] + 1)
    columns = ["t"] + ["p_%d" % k for k in g] + ["u_%d" % k for k in g] + ["u_bar"]
    return columns, np.column_stack([idx * dt, states, u, u_bar])


def _trajectory_table(traj: Trajectory) -> tuple[list, np.ndarray]:
    """A sampled run's file table (columns, rows), thinned by TRAJECTORY_STRIDE."""
    return _sampled_table(len(traj), traj.dt, lambda idx: traj.states[idx], traj.utilities)


def _exact_run(cfg: ScenarioConfig, numer: np.ndarray) -> tuple[ReplicatorSolution, tuple[list, np.ndarray]]:
    """An undelayed run's exact solution, and its file table: the solution at the written rows only."""
    solution = ReplicatorSolution(numer, cfg.n_users, cfg.mu, cfg.initial_population())
    spec = cfg.integrator
    at = lambda idx: solution.at(idx * spec.dt)
    return solution, _sampled_table(spec.n_steps() + 1, spec.dt, at, make_utilities(numer, cfg.n_users))


# --- presets -------------------------------------------------------------------
# A runner yields (file stem suffix, scenario, extra meta lines, (columns, rows))
# per file, one at a time: run_experiment writes each table before the next is
# computed.


def _run_utilities_vs_time(cfg: ScenarioConfig):
    table = _trajectory_table(simulate(cfg).trajectory) if cfg.delta > 0 else _exact_run(cfg, numerators(cfg))[1]
    yield "", cfg, [], table


def _run_convergence_speed(cfg: ScenarioConfig):
    numer = numerators(cfg)  # neither mu nor n_users enters the links
    p0 = cfg.initial_population()
    rows = []
    dt = cfg.integrator.dt
    for mu in cfg.grids.mu:
        for n in cfg.grids.n_users:
            solution = ReplicatorSolution(numer, n, mu, p0)
            try:
                index = solution.equilibrium_index(dt)
            except ConfigurationError as exc:
                raise ConfigurationError("grid point mu=%g n_users=%d: %s" % (mu, n, exc)) from None
            rows.append((mu, n, index * dt))
    yield "", cfg, [], (["mu", "n_users", "t_equilibrium"], rows)


def _run_delay_sweep(cfg: ScenarioConfig):
    numer = numerators(cfg)  # delta does not enter the links
    try:
        bound = stability_bound(numer, cfg.mu, cfg.n_users)
        text = "%.17g" % bound
    except NumericError as exc:
        bound, text = None, "not computable (%s)" % exc
    for delta in cfg.grids.delta:
        point = replace(cfg, delta=delta)
        # shortest round-trip form, so that distinct delays never share a file
        tag = repr(float(delta)).removesuffix(".0").replace(".", "p").replace("-", "m")
        yield ("_delta" + tag, point, *_delay_point(point, numer, bound, text))


def _delay_point(point: ScenarioConfig, numer: np.ndarray, bound: float | None, text: str) -> tuple[list, tuple]:
    """A delay point's meta lines and table; its trajectory is freed on return, before the table is written.

    The delta = 0 point samples no trajectory: _exact_run gives its table, and equilibrium_index
    on the point's own grid gives detect_equilibrium's rest index of that grid.  bound is the
    stability bound, None when it is not computable, and text its meta value.  A point below the
    bound is stable: when it has not rested by the horizon, that is what its meta line says.
    """
    spec = point.integrator
    if point.delta > 0:
        traj = solve_delayed(numer, point.n_users, point.mu, point.initial_population(), point.delta, spec)
        index, table = detect_equilibrium(traj, min_quiet=point.delta), _trajectory_table(traj)
    else:
        solution, table = _exact_run(point, numer)
        index = solution.equilibrium_index(spec.dt, spec.n_steps())
    if index is not None:
        t_eq = "%.17g" % (index * spec.dt)
    elif bound is not None and point.delta < bound:
        t_eq = "none by the horizon (delta below the stability bound)"
    else:
        t_eq = "none (tail never rests for a full delay window)"
    return [("stability_bound", text), ("t_equilibrium", t_eq)], table


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
        rows.append((int(k2), *ReplicatorSolution(numer, base.n_users, base.mu, p0).rest))
    yield "", base, [], (["irs_elements_sp2"] + ["p_%d" % (g + 1) for g in range(base.n_groups)], rows)


def _run_distance_price_sweep(cfg: ScenarioConfig):
    sp1 = cfg.sps[0]
    norm = sp1.bs_position.distance_to(sp1.irs_position)
    if not norm < np.inf:
        raise NumericError("sp.1 BS to surface distance %r m is not finite" % norm)
    # Python floats: a user placed past the largest float is at inf, without a warning
    axis = ((sp1.irs_position.x - sp1.bs_position.x) / norm, (sp1.irs_position.y - sp1.bs_position.y) / norm)
    sp1_groups = cfg.groups_of_sp(1)
    sp2_groups = cfg.groups_of_sp(2)  # none without a second provider
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
            rest = ReplicatorSolution(utility_numerators(links, priced), cfg.n_users, cfg.mu, p0).rest
            rows.append((dist, price, float(rest[sp1_groups].sum()), float(rest[sp2_groups].sum())))
    yield "", cfg, [], (["distance", "price_irs_sp1", "share_sp1", "share_sp2"], rows)


# preset: (runner, the run flags it reads, the grids it sweeps in place of the others)
PRESET_TABLE = {
    "utilities-vs-time": (_run_utilities_vs_time, OVERRIDES + ("json",), ()),
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
    out = Path(out_dir)
    paths = []
    for suffix, scenario, extra, table in run(cfg):  # an OSError of the runner's own is not a write error
        meta = [("preset", preset)] + extra + scenario.flat_items()
        path = out
        try:
            out.mkdir(parents=True, exist_ok=True)  # once a table is ready: a run that fails first leaves no directory
            path = out / (preset.replace("-", "_") + suffix + ".csv")
            paths.append(_write_csv(path, meta, *table))
            if "json" in flags:  # only presets of trajectories read it
                path = path.with_suffix(".json")
                paths.append(_write_json(path, meta, *table))
        except OSError as exc:  # path is the directory or the file being written
            raise ConfigurationError("cannot write %s: %s" % (path, exc)) from None
        del table  # a table is not kept while the runner computes the next one
    return paths
