"""Preset plumbing: CSV layout, striding, JSON dump, determinism."""

import dataclasses
import json

import numpy as np
import pytest

from irsgame import (
    ConfigurationError,
    SweepGrids,
    Trajectory,
    detect_equilibrium,
    emit_csv,
    run_experiment,
    simulate,
    with_scalar_overrides,
)
from irsgame import experiments


def toy_trajectory(n=5, groups=2):
    times = np.arange(n, dtype=float)
    states = np.column_stack([np.linspace(0.2, 0.4, n), np.linspace(0.8, 0.6, n)])
    utilities = np.column_stack([np.full(n, 2.0), np.full(n, 1.0)])
    u_bar = states[:, 0] * 2.0 + states[:, 1] * 1.0
    return Trajectory(times=times, states=states, utilities=utilities, u_bar=u_bar)


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


def test_emit_csv_layout(tmp_path):
    traj = toy_trajectory()
    path = emit_csv(traj, [("preset", "demo"), ("note", "x")], tmp_path / "out.csv")
    meta, header, rows = read_csv(path)
    assert meta["preset"] == "demo" and meta["note"] == "x"
    assert header == ["t", "p_1", "p_2", "u_1", "u_2", "u_bar"]
    assert len(rows) == 5
    assert [float(c) for c in rows[0]] == [0.0, 0.2, 0.8, 2.0, 1.0, 0.2 * 2.0 + 0.8]
    # full precision cells: parse back exactly
    assert float(rows[3][1]) == traj.states[3, 0]


def test_emit_csv_stride_keeps_last(tmp_path):
    traj = toy_trajectory(n=5)
    _, _, rows = read_csv(emit_csv(traj, [], tmp_path / "a.csv", stride=2))
    assert [float(r[0]) for r in rows] == [0.0, 2.0, 4.0]
    traj6 = toy_trajectory(n=6)
    _, _, rows = read_csv(emit_csv(traj6, [], tmp_path / "b.csv", stride=4))
    assert [float(r[0]) for r in rows] == [0.0, 4.0, 5.0]


def test_emit_csv_rejects_empty_and_bad_stride(tmp_path):
    empty = Trajectory(times=np.empty(0), states=np.empty((0, 2)))
    with pytest.raises(ConfigurationError, match="empty"):
        emit_csv(empty, [], tmp_path / "no.csv")
    with pytest.raises(ConfigurationError, match="stride"):
        emit_csv(toy_trajectory(), [], tmp_path / "no.csv", stride=0)


def test_emit_csv_without_utilities_writes_nan(tmp_path):
    traj = toy_trajectory()
    bare = Trajectory(times=traj.times, states=traj.states)
    _, header, rows = read_csv(emit_csv(bare, [], tmp_path / "bare.csv"))
    assert header[-1] == "u_bar"
    assert rows[0][3] == "nan" and rows[0][-1] == "nan"


def test_trajectory_json_masks_non_finite(tmp_path, reduced_cfg, monkeypatch):
    # the twin holds the CSV's meta block and cells, a non-finite cell as null
    traj = toy_trajectory(n=25)
    traj.utilities[20, 1] = np.nan
    monkeypatch.setattr(experiments, "simulate", lambda cfg: experiments.SimulationResult(traj))
    csv, twin = run_experiment("utilities-vs-time", reduced_cfg, tmp_path, flags=["json"])
    d = json.loads(twin.read_text())
    meta, header, rows = read_csv(csv)
    assert list(d) == ["meta"] + header
    assert d["meta"] == meta
    assert d["u_2"][2] is None
    assert d["u_2"][0] == 1.0
    assert d["t"] == [0, 10, 20, 24]
    for j, name in enumerate(header):
        assert d[name] == [None if r[j] == "nan" else float(r[j]) for r in rows]


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


def test_delay_sweep_names_nearby_delays_apart(tmp_path, reduced_cfg):
    cfg = with_scalar_overrides(reduced_cfg, dt=0.5, horizon=2.0)
    cfg = dataclasses.replace(cfg, grids=dataclasses.replace(cfg.grids, delta=[30.0, 30.000001]))
    paths = run_experiment("delay-sweep", cfg, tmp_path)
    assert [p.name for p in paths] == ["delay_sweep_delta30.csv", "delay_sweep_delta30p000001.csv"]
    assert all(p.is_file() for p in paths)


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
        assert detect_equilibrium(run.trajectory, experiments.EPS_FIELD).time == float(t_eq)
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
        assert np.max(np.abs(np.array(row[1:], dtype=float) - run.trajectory.terminal_state)) < 1e-9
