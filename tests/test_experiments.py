"""Preset plumbing: CSV layout, striding, JSON dump, determinism."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from irsgame import (
    ConfigurationError,
    SweepGrids,
    Trajectory,
    detect_equilibrium,
    run_experiment,
    simulate,
    stability_bound,
    with_scalar_overrides,
)
from irsgame import experiments
from irsgame.experiments import CHUNK_CELLS
import oracle


def toy_utilities(p):
    """Utilities 2 and 1, NaN for an empty group, as make_utilities marks it."""
    alive = p > 0.0
    u = np.where(alive, np.array([2.0, 1.0]), np.nan)
    return u, np.sum(np.where(alive, p * u, 0.0), axis=-1)


def toy_trajectory(n=5):
    states = np.column_stack([np.linspace(0.2, 0.4, n), np.linspace(0.8, 0.6, n)])
    return Trajectory(1.0, states, toy_utilities)


def read_csv(path):
    meta, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            k, _, v = line[1:].partition("=")
            meta.append((k.strip(), v.strip()))
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return dict(meta), header, rows


def write_toy(traj, cfg, out, monkeypatch, flags=()):
    """The files run_experiment writes for a utilities-vs-time run whose table is _trajectory_table(traj)."""
    _, reads, sweeps = experiments.PRESET_TABLE["utilities-vs-time"]
    run = lambda cfg: iter([("", cfg, [], experiments._trajectory_table(traj))])
    monkeypatch.setitem(experiments.PRESET_TABLE, "utilities-vs-time", (run, reads, sweeps))
    return run_experiment("utilities-vs-time", cfg, out, flags)


def test_emit_csv_layout(tmp_path, reduced_cfg, monkeypatch):
    traj = toy_trajectory(n=25)
    (path,) = write_toy(traj, reduced_cfg, tmp_path, monkeypatch)
    meta, header, rows = read_csv(path)
    assert meta["preset"] == "utilities-vs-time" and meta["scenario.seed"] == str(reduced_cfg.seed)
    assert header == ["t", "p_1", "p_2", "u_1", "u_2", "u_bar"]
    assert len(rows) == 4
    assert [float(c) for c in rows[0]] == [0.0, 0.2, 0.8, 2.0, 1.0, 0.2 * 2.0 + 0.8]
    # full precision cells: parse back exactly
    assert float(rows[1][1]) == traj.states[10, 0]


def test_emit_csv_stride_keeps_last(tmp_path, reduced_cfg, monkeypatch):
    # every TRAJECTORY_STRIDE-th sample, and the last one once
    for n, times in ((21, [0.0, 10.0, 20.0]), (25, [0.0, 10.0, 20.0, 24.0])):
        (path,) = write_toy(toy_trajectory(n), reduced_cfg, tmp_path / str(n), monkeypatch)
        assert [float(r[0]) for r in read_csv(path)[2]] == times


def test_trajectory_json_masks_non_finite(tmp_path, reduced_cfg, monkeypatch):
    # the twin holds the CSV's meta block and cells, a non-finite cell as null
    traj = toy_trajectory(n=25)
    traj.states[20] = [1.0, 0.0]  # group 2 empties: its utility is NaN
    csv, twin = write_toy(traj, reduced_cfg, tmp_path, monkeypatch, flags=["json"])
    d = json.loads(twin.read_text())
    meta, header, rows = read_csv(csv)
    assert list(d) == ["meta"] + header
    assert d["meta"] == meta
    assert d["u_2"][2] is None
    assert d["u_2"][0] == 1.0
    assert d["t"] == [0, 10, 20, 24]
    for j, name in enumerate(header):
        assert d[name] == [None if r[j] == "nan" else float(r[j]) for r in rows]


def price_out_sp2(cfg):
    """reduced.cfg with sp.2's surface price at 2: group 2's payoff is negative, and it empties at t = 11.05."""
    return dataclasses.replace(cfg, sps=[cfg.sps[0], dataclasses.replace(cfg.sps[1], price_irs=2.0)])


@pytest.mark.parametrize("grid", [{}, {"horizon": 37.3, "dt": 0.07}], ids=["default-grid", "horizon-off-the-stride"])
@pytest.mark.parametrize("scenario", ["default_cfg", "reduced_cfg", "reduced_cfg-group-2-dies"])
def test_undelayed_utilities_vs_time_writes_the_table_of_the_full_run(tmp_path, request, monkeypatch, scenario, grid):
    # the exact solution at the written rows only has the bits of those rows of the full sampled run
    cfg = request.getfixturevalue(scenario.removesuffix("-group-2-dies"))
    cfg = with_scalar_overrides(price_out_sp2(cfg) if scenario.endswith("dies") else cfg, **grid)
    traj = simulate(cfg).trajectory
    if scenario.endswith("dies"):
        assert traj.states[-1, 1] == 0.0
    table = experiments._trajectory_table(traj)
    meta = [("preset", "utilities-vs-time")] + cfg.flat_items()
    want = [
        experiments._write_csv(tmp_path / "want.csv", meta, *table).read_bytes(),
        experiments._write_json(tmp_path / "want.json", meta, *table).read_bytes(),
    ]
    del traj, table
    for name in ("simulate", "solve_replicator"):  # the run samples no full grid: these raise
        monkeypatch.setattr(experiments, name, lambda *args: pytest.fail("sampled the full grid"))
    assert [p.read_bytes() for p in run_experiment("utilities-vs-time", cfg, tmp_path / "got", ["json"])] == want
    (csv,) = run_experiment("utilities-vs-time", cfg, tmp_path / "csv-only")
    assert csv.read_bytes() == want[0]


def test_run_experiment_rejects_unknown_preset(tmp_path, default_cfg):
    with pytest.raises(ConfigurationError, match="unknown preset"):
        run_experiment("warp-speed", default_cfg, tmp_path)


def test_simulate_routes_by_delay(reduced_cfg):
    quick = with_scalar_overrides(reduced_cfg, dt=0.1, horizon=2.0)
    ode = simulate(quick)
    dde = simulate(dataclasses.replace(quick, delta=0.5))
    # the delayed run replays the initial state for the first delay window,
    # so the two trajectories part ways once the plain run starts moving
    assert np.array_equal(ode.trajectory.states[0], dde.trajectory.states[0])
    assert not np.allclose(ode.trajectory.states[-1], dde.trajectory.states[-1])
    assert len(ode.trajectory) == len(dde.trajectory)


NEVER_RESTS = "none (tail never rests for a full delay window)"


def test_delay_sweep_names_nearby_delays_apart(tmp_path, reduced_cfg):
    cfg = with_scalar_overrides(reduced_cfg, dt=0.5, horizon=2.0)
    cfg = dataclasses.replace(cfg, grids=dataclasses.replace(cfg.grids, delta=[30.0, 30.000001]))
    paths = run_experiment("delay-sweep", cfg, tmp_path)
    assert [p.name for p in paths] == ["delay_sweep_delta30.csv", "delay_sweep_delta30p000001.csv"]
    assert all(p.is_file() for p in paths)


@pytest.mark.parametrize("scenario", ["default_cfg", "reduced_cfg"])
def test_a_delay_point_that_does_not_rest_says_whether_it_is_below_the_bound(tmp_path, request, scenario):
    # bounds 46.84 (default.cfg) and 21.10 (reduced.cfg): delta = 15 rests on both, and neither rests
    # by t = 600 at 0.9 of its bound or at 60, above both
    cfg = request.getfixturevalue(scenario)
    numer = experiments.numerators(cfg)
    below = 0.9 * stability_bound(numer, cfg.mu, cfg.n_users)
    cfg = dataclasses.replace(cfg, grids=dataclasses.replace(cfg.grids, delta=[15.0, below, 60.0]))
    said = [read_csv(path)[0]["t_equilibrium"] for path in run_experiment("delay-sweep", cfg, tmp_path)]
    assert float(said[0]) > 0.0
    # the rest time is the time of the sample detect_equilibrium returns
    rest = simulate(dataclasses.replace(cfg, delta=15.0)).trajectory
    assert said[0] == "%.17g" % rest.times[detect_equilibrium(rest, min_quiet=15.0)]
    assert said[1:] == ["none by the horizon (delta below the stability bound)", NEVER_RESTS]
    # without a computable bound, no point is known to be below it
    meta = dict(experiments._delay_point(dataclasses.replace(cfg, delta=below), numer, None, "not computable")[0])
    assert meta["t_equilibrium"] == NEVER_RESTS


@pytest.mark.parametrize("json_flag", [False, True])
def test_every_file_is_named_after_its_preset(tmp_path, reduced_cfg, json_flag):
    cfg = small_grids(with_scalar_overrides(reduced_cfg, dt=0.5, horizon=2.0))
    cfg = dataclasses.replace(cfg, grids=dataclasses.replace(cfg.grids, delta=[0.0, 0.5, 30.0]))
    twin = [".json"] if json_flag else []
    written = {
        "utilities-vs-time": ["utilities_vs_time" + ext for ext in [".csv"] + twin],
        "convergence-speed": ["convergence_speed.csv"],
        "delay-sweep": ["delay_sweep_delta%s%s" % (tag, ext) for tag in ("0", "0p5", "30") for ext in [".csv"] + twin],
        "irs-size-sweep": ["irs_size_sweep.csv"],
        "distance-price-sweep": ["distance_price_sweep.csv"],
    }
    for preset, names in written.items():
        flags = ["json"] if json_flag and "json" in experiments.PRESET_TABLE[preset][1] else []
        paths = run_experiment(preset, cfg, tmp_path / preset, flags)
        assert [p.name for p in paths] == names, preset
        assert sorted(p.name for p in paths[0].parent.iterdir()) == sorted(names)
        extra = ["stability_bound", "t_equilibrium"] if preset == "delay-sweep" else []
        for path in paths:
            if path.suffix == ".csv":
                lines = path.read_text().splitlines()
                assert lines[0] == "# preset = %s" % preset
                keys = [line[2:].split(" = ")[0] for line in lines if line.startswith("#")]
                assert keys == ["preset"] + extra + [key for key, _ in cfg.flat_items()]


def test_utilities_vs_time_rerun_is_byte_identical(tmp_path, default_cfg):
    cfg = with_scalar_overrides(default_cfg, dt=0.05, horizon=3.0)
    first = run_experiment("utilities-vs-time", cfg, tmp_path / "one", flags=["json"])
    second = run_experiment("utilities-vs-time", cfg, tmp_path / "two", flags=["json"])
    assert [p.name for p in first] == [p.name for p in second]
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes()


def test_utilities_vs_time_csv_meta_block(tmp_path, default_cfg):
    cfg = with_scalar_overrides(default_cfg, dt=0.05, horizon=3.0)
    (path,) = run_experiment("utilities-vs-time", cfg, tmp_path)
    meta, header, rows = read_csv(path)
    assert meta["preset"] == "utilities-vs-time"
    assert meta["scenario.seed"] == "42"
    assert meta["integrator.dt"] == repr(0.05)
    assert header == (
        ["t"] + ["p_%d" % g for g in range(1, 7)] + ["u_%d" % g for g in range(1, 7)] + ["u_bar"]
    )
    # stride 10 of 61 samples, last kept: 0,10,...,60 -> 7 rows
    assert len(rows) == 7
    assert float(rows[-1][0]) == pytest.approx(3.0, abs=1e-12)
    shares = np.array([[float(c) for c in row[1:7]] for row in rows])
    assert np.all(np.abs(shares.sum(axis=1) - 1.0) < 1e-9)


def small_grids(cfg):
    return dataclasses.replace(
        cfg,
        grids=SweepGrids(
            mu=[0.2], n_users=[50, 100], irs_elements_sp2=[4, 8], distance=[10.0, 60.0], price_irs_sp1=[0.1]
        ),
    )


def test_undelayed_sweeps_sample_no_trajectory(tmp_path, default_cfg, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an undelayed sweep sampled a trajectory")

    monkeypatch.setattr(experiments, "simulate", refuse)
    monkeypatch.setattr(experiments, "detect_equilibrium", refuse)
    for preset in ("convergence-speed", "irs-size-sweep", "distance-price-sweep"):
        (path,) = run_experiment(preset, small_grids(default_cfg), tmp_path / preset)
        assert len(read_csv(path)[2]) == 2


def test_links_are_built_once_per_radio_scenario(tmp_path, default_cfg, monkeypatch):
    # mu, n_users, delta and the surface price do not enter the links; the
    # user position and the surface size do
    calls = []
    build = experiments.build_all_links

    def counted(*args):
        calls.append(1)
        return build(*args)

    monkeypatch.setattr(experiments, "build_all_links", counted)
    cfg = with_scalar_overrides(default_cfg, horizon=20.0)
    grids = cfg.grids
    builds = {
        "utilities-vs-time": 1,
        "convergence-speed": 1,
        "delay-sweep": 1,
        "irs-size-sweep": len(grids.irs_elements_sp2),
        "distance-price-sweep": len(grids.distance),
    }
    for preset, want in builds.items():
        calls.clear()
        run_experiment(preset, cfg, tmp_path / preset)
        assert len(calls) == want, preset


def test_undelayed_sweeps_match_long_sampled_runs(tmp_path, default_cfg):
    # the rest point and its sample index, against detect_equilibrium and the
    # last sample of runs long enough to settle
    cfg = small_grids(default_cfg)
    (path,) = run_experiment("convergence-speed", cfg, tmp_path)
    _, _, rows = read_csv(path)
    for mu, n, t_eq in rows:
        run = simulate(with_scalar_overrides(cfg, mu=float(mu), n_users=int(n), horizon=2400.0))
        index = detect_equilibrium(run.trajectory)
        assert index is not None and run.trajectory.times[index] == float(t_eq)
    (path,) = run_experiment("irs-size-sweep", cfg, tmp_path)
    _, _, rows = read_csv(path)
    # the sweep's own surface price cap
    base = dataclasses.replace(
        cfg, sps=[dataclasses.replace(sp, price_irs=min(sp.price_irs, 0.05)) for sp in cfg.sps]
    )
    for row in rows:
        sps = list(base.sps)
        sps[1] = dataclasses.replace(sps[1], irs_elements=int(row[0]))
        run = simulate(with_scalar_overrides(dataclasses.replace(base, sps=sps), horizon=2400.0))
        assert np.max(np.abs(np.array(row[1:], dtype=float) - run.trajectory.states[-1])) < 1e-9


def sweep_rows(n_rows):
    """A table as a sweep preset yields it: Python rows of ints up to 2**53 and floats, non-finite ones too."""
    ints = [0, 1, 7, 10**6, 2**53 - 1, 2**53, -(2**53)]
    cells = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1, 1.0]
    draws = np.random.default_rng(n_rows).random(n_rows).tolist()
    return [(ints[i % 7], cells[i % 7], cells[(i + 3) % 7], x, -x * 1e-300) for i, x in enumerate(draws)]


def random_bit_rows():
    """Random 64-bit patterns: column 0 runs through every exponent field (zeros, subnormals,
    infinities, NaN payloads), the others keep near the exponents %.17g prints in fixed notation."""
    rng = np.random.default_rng(26)
    shape = (4096, 6)
    exponent = rng.integers(1023 - 15, 1023 + 58, size=shape, dtype=np.uint64)
    exponent[:, 0] = np.arange(shape[0]) % 2048
    sign = rng.integers(0, 2, size=shape, dtype=np.uint64)
    bits = sign << np.uint64(63) | exponent << np.uint64(52) | rng.integers(0, 2**52, size=shape, dtype=np.uint64)
    return bits.view(np.float64).tolist()


def power_of_ten_rows():
    """10**j for j = -6 ... 18 and the floats on both sides of it, where the exponent of %.17g changes."""
    tens = np.array([float("1e%d" % j) for j in range(-6, 19)])
    cells = np.concatenate([np.nextafter(tens, 0.0), tens, np.nextafter(tens, np.inf)])
    return np.column_stack([cells, -cells]).tolist()


def half_way_rows():
    """Odd multiples of 1/4 in [2**49, 2**51): from 10**15 on, each one is an exact tie at the 17th digit."""
    odd = 2 * np.random.default_rng(27).integers(2**50, 2**52, size=2048) + 1
    return np.column_stack([odd / 4, -odd / 4]).tolist()


def sweep_rows_of_width(n_rows, width):
    """sweep_rows(n_rows) with each row's cells repeated out to width columns."""
    return [(row * (width // len(row) + 1))[:width] for row in sweep_rows(n_rows)]


def chunk_edges(width):
    """Tables of width columns with one row fewer, as many and one more than a chunk holds."""
    per = max(1, CHUNK_CELLS // width)
    return [
        pytest.param(sweep_rows_of_width(n, width), id="width%d-%d-rows" % (width, n))
        for n in sorted({max(1, per - 1), per, per + 1})
    ]


@pytest.mark.parametrize(
    "rows",
    [pytest.param(sweep_rows(n), id=str(n)) for n in (1, 6001)]
    + chunk_edges(6)
    + chunk_edges(14)
    + chunk_edges(CHUNK_CELLS + 5)
    + [
        pytest.param(random_bit_rows(), id="random-bits"),
        pytest.param(power_of_ten_rows(), id="powers-of-ten"),
        pytest.param(half_way_rows(), id="half-way"),
        pytest.param([row[:1] for row in random_bit_rows()], id="one-column"),
        pytest.param([sum(power_of_ten_rows(), [])], id="one-row"),
    ],
)
def test_chunked_writer_has_the_bytes_of_the_whole_file_writer(tmp_path, monkeypatch, rows):
    meta = [("preset", "delay-sweep"), ("t_equilibrium", "none (tail never rests for a full delay window)")]
    columns = ["c%d" % j for j in range(len(rows[0]))]
    want = oracle.write_csv(tmp_path / "want.csv", meta, columns, rows).read_bytes()
    assert len(want.splitlines()) == len(meta) + 1 + len(rows)
    for table in (rows, np.array(rows, dtype=float)):
        assert experiments._write_csv(tmp_path / "got.csv", meta, columns, table).read_bytes() == want
    # CHUNK_CELLS cells a chunk: max(1, CHUNK_CELLS // width) rows, the last chunk the rest
    chunks = []
    format_rows = experiments._format_rows
    monkeypatch.setattr(experiments, "_format_rows", lambda chunk: chunks.append(len(chunk)) or format_rows(chunk))
    experiments._write_csv(tmp_path / "chunked.csv", meta, columns, rows)
    per = max(1, CHUNK_CELLS // len(columns))
    assert chunks == [per] * (len(rows) // per) + ([len(rows) % per] if len(rows) % per else [])
    # a trajectory's JSON twin, from its array, is the twin of its Python rows
    floats = np.array(rows, dtype=float)
    want = oracle.write_json(tmp_path / "want.json", meta, columns, floats.tolist()).read_bytes()
    assert experiments._write_json(tmp_path / "got.json", meta, columns, floats).read_bytes() == want


@pytest.mark.parametrize(
    "preset, flags, bound_mib",
    [
        pytest.param("utilities-vs-time", (), 6.0, id="utilities-vs-time-6.0"),
        pytest.param("delay-sweep", (), 9.5, id="delay-sweep-9.5"),
        pytest.param("utilities-vs-time", ("json",), 6.0, id="utilities-vs-time-json-6.0"),
    ],
)
def test_run_peak_memory_is_bounded(tmp_path, default_cfg, preset, flags, bound_mib):
    # a run formats one chunk of a table at a time, writes a JSON twin one column at a time, and
    # holds no full-length array it does not return; a first run imports numpy.random, which
    # would count, so a short run goes first
    run_experiment(preset, with_scalar_overrides(default_cfg, horizon=1.0), tmp_path, flags)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run_experiment(preset, default_cfg, tmp_path, flags)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < bound_mib * 2**20, "peak %.2f MiB" % (peak / 2**20)
