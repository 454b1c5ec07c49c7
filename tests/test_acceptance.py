"""Top-level acceptance checks, one test per shipping requirement.

Each test prints a single PASSED/FAILED line under pytest -v.  The heavy
runs (reference scenario, long delayed run) are module fixtures shared by
the criteria that need them.
"""

import dataclasses
import time

import numpy as np
import pytest

from irsgame import (
    ChannelSet,
    IntegratorSpec,
    SweepGrids,
    complex_rayleigh,
    default_config,
    detect_equilibrium,
    optimize_link,
    run_experiment,
    simulate,
    stability_bound,
    utility_spread,
)
from irsgame.experiments import numerators
from oracle import integrate_ode, picard_solve, replicator_field, snr


def read_rows(path):
    """Numeric CSV body (skipping '#' meta lines) as a list of float lists."""
    header, rows = None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
        else:
            rows.append([float(c) for c in line.split(",")])
    return header, rows


@pytest.fixture(scope="module")
def default_run():
    """Timed reference-scenario run with zero delay."""
    cfg = default_config()
    start = time.perf_counter()
    res = simulate(cfg)
    elapsed = time.perf_counter() - start
    return res, elapsed


@pytest.fixture(scope="module")
def reduced_setup(reduced_cfg):
    """Reduced scenario (one service per provider), its delay bound, delta=0 run."""
    cfg = reduced_cfg
    bound = stability_bound(numerators(cfg), cfg.mu, cfg.n_users)
    return cfg, bound, simulate(cfg)


@pytest.fixture(scope="module")
def divergent_run(reduced_setup):
    """Reduced scenario driven at twice the delay bound over a 10x horizon."""
    cfg, bound, _ = reduced_setup
    wild = dataclasses.replace(
        cfg,
        delta=2.0 * bound,
        integrator=dataclasses.replace(cfg.integrator, horizon=10.0 * cfg.integrator.horizon),
    )
    return simulate(wild)


def test_criterion_01_equal_utility_equilibrium(default_run):
    res, elapsed = default_run
    index = detect_equilibrium(res.trajectory)
    assert index is not None, "reference scenario never settled"
    assert utility_spread(res.trajectory, index) < 1e-3, "surviving groups earn unequal utilities"
    assert elapsed < 10.0, "reference run took %.2f s" % elapsed


def test_criterion_02_rate_and_population_monotonicity(tmp_path):
    cfg = default_config()
    (path,) = run_experiment("convergence-speed", cfg, tmp_path)
    header, rows = read_rows(path)
    assert header == ["mu", "n_users", "t_equilibrium"]
    t_eq = {(mu, int(n)): t for mu, n, t in rows}
    mus = sorted(cfg.grids.mu)
    pops = sorted(cfg.grids.n_users)
    for n in pops:
        series = [t_eq[(mu, n)] for mu in mus]
        assert np.all(np.diff(series) < 0.0), "not faster with larger mu at n=%d" % n
    for mu in mus:
        series = [t_eq[(mu, n)] for n in pops]
        assert np.all(np.diff(series) > 0.0), "not slower with more users at mu=%g" % mu


def test_criterion_03_delay_bracketing(reduced_setup, divergent_run):
    cfg, bound, base = reduced_setup
    assert detect_equilibrium(base.trajectory) is not None
    target = base.trajectory.states[-1]

    mild = dataclasses.replace(cfg, delta=0.5 * bound)
    res = simulate(mild)
    assert detect_equilibrium(res.trajectory, min_quiet=mild.delta) is not None
    assert np.max(np.abs(res.trajectory.states[-1] - target)) < 1e-3

    wild = divergent_run
    assert detect_equilibrium(wild.trajectory, min_quiet=2.0 * bound) is None
    # oscillation amplitude must not decay: peak deviation from the
    # undelayed equilibrium, in ten equal windows across the long horizon
    dev = np.abs(wild.trajectory.states[:, 0] - target[0])
    amps = np.array([w.max() for w in np.array_split(dev, 10)])
    assert amps[-1] >= 0.9 * amps[0]
    assert amps[-1] >= 0.1


def test_delay_bracketing_on_default_scenario(default_run):
    """Criterion 03's bracketing on the six-group scenario, three services per provider."""
    cfg = default_config()
    bound = stability_bound(numerators(cfg), cfg.mu, cfg.n_users)
    assert bound == pytest.approx(46.841, rel=1e-4)
    target = default_run[0].trajectory.states[-1]

    mild = dataclasses.replace(cfg, delta=0.5 * bound)
    res = simulate(mild)
    assert detect_equilibrium(res.trajectory, min_quiet=mild.delta) is not None
    assert np.max(np.abs(res.trajectory.states[-1] - target)) < 1e-3

    wild = dataclasses.replace(
        cfg, delta=2.0 * bound, integrator=dataclasses.replace(cfg.integrator, horizon=3000.0)
    )
    traj = simulate(wild).trajectory
    assert detect_equilibrium(traj, min_quiet=wild.delta) is None
    dev = np.abs(traj.states[:, 0] - target[0])
    amps = np.array([w.max() for w in np.array_split(dev, 10)])
    assert amps[-1] >= 0.9 * amps[0]
    assert amps[-1] >= 0.1


def test_criterion_04_surface_size_monotonicity(tmp_path):
    cfg = default_config()
    (path,) = run_experiment("irs-size-sweep", cfg, tmp_path)
    header, rows = read_rows(path)
    cols = [1 + g for g in cfg.groups_of_sp(2)]
    shares = np.array([sum(row[c] for c in cols) for row in rows])
    steps = np.diff(shares)
    assert np.all(steps >= -1e-12), "second provider's share dropped with a larger surface"
    assert steps[-1] < steps[0], "no diminishing returns at the top of the size range"


def test_criterion_05_distance_and_price_monotonicity(tmp_path):
    cfg = default_config()
    (path,) = run_experiment("distance-price-sweep", cfg, tmp_path)
    header, rows = read_rows(path)
    assert header == ["distance", "price_irs_sp1", "share_sp1", "share_sp2"]
    prices = sorted(cfg.grids.price_irs_sp1)
    dists = sorted(cfg.grids.distance)
    table = {(row[0], row[1]): (row[2], row[3]) for row in rows}
    for pr in prices:
        series = [table[(d, pr)][1] for d in dists]
        assert np.all(np.diff(series) >= -1e-12), "share_sp2 fell with distance at price %g" % pr
    for lo, hi in zip(prices, prices[1:]):
        for d in dists:
            assert table[(d, hi)][0] < table[(d, lo)][0], (
                "raising the element price %g -> %g did not lower share_sp1 at distance %g"
                % (lo, hi, d)
            )


def test_criterion_06_fixed_point_solver_matches_rk4(default_cfg, default_utilities):
    field = lambda t, p: replicator_field(t, p, default_utilities, default_cfg.mu)
    p0 = default_cfg.initial_population()
    spec = IntegratorSpec(dt=0.01, horizon=1.0)
    traj = integrate_ode(field, p0, spec, default_utilities)
    sol = picard_solve(field, p0, traj.times)
    assert np.max(np.abs(sol.states - traj.states)) < 1e-4


def test_criterion_07_two_strategy_closed_form():
    utilities = lambda p: (np.array([1.0, 0.0]), float(p[0]))
    field = lambda t, p: replicator_field(t, p, utilities, 1.0)
    spec = IntegratorSpec(dt=0.01, horizon=10.0)
    traj = integrate_ode(field, np.array([0.5, 0.5]), spec, utilities)
    exact = 1.0 / (1.0 + np.exp(-traj.times))
    assert np.max(np.abs(traj.states[:, 0] - exact)) < 1e-6


def test_criterion_08_link_optimizer_correctness():
    bandwidth, noise = 1.0, 1e-3
    # single-antenna closed form: perfect phase alignment adds magnitudes
    for seed in range(100):
        rng = np.random.default_rng(seed)
        ch = ChannelSet(
            h_direct=complex_rayleigh((1,), rng),
            g_bs_irs=complex_rayleigh((5, 1), rng),
            h_irs_user=complex_rayleigh((5,), rng),
        )
        link = optimize_link(ch, 2.0, bandwidth, noise)
        amp = abs(ch.h_direct[0]) + np.abs(ch.h_irs_user * ch.g_bs_irs[:, 0]).sum()
        expected = 2.0 * amp**2 / (bandwidth * noise)
        assert abs(link.snr - expected) <= 1e-9 * expected
    # alternating half steps never lower the SNR
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        ch = ChannelSet(
            h_direct=complex_rayleigh((4,), rng),
            g_bs_irs=complex_rayleigh((8, 4), rng),
            h_irs_user=complex_rayleigh((8,), rng),
        )
        trace = []
        optimize_link(ch, 2.0, bandwidth, noise, trace=trace)
        assert len(trace) >= 2
        assert np.all(np.diff(trace) >= -1e-12 * max(trace))
    # no reflecting surface: alternating optimizer equals plain max-ratio beam
    rng = np.random.default_rng(7)
    h = complex_rayleigh((4,), rng)
    ch = ChannelSet(h_direct=h, g_bs_irs=np.zeros((0, 4)), h_irs_user=np.zeros(0))
    link = optimize_link(ch, 2.0, bandwidth, noise)
    w = np.sqrt(2.0) * h / np.linalg.norm(h)
    manual = snr(ch, w, np.zeros(0), bandwidth, noise)
    assert link.snr == manual


def test_criterion_09_conservation(default_run, divergent_run, default_cfg, default_utilities):
    for traj in (default_run[0].trajectory, divergent_run.trajectory):
        sums = traj.states.sum(axis=1)
        assert float(np.max(np.abs(sums - 1.0))) < 1e-9
        assert float(traj.states.min()) >= 0.0
    rng = np.random.default_rng(2026)
    points = rng.dirichlet(np.ones(default_cfg.n_groups), size=1000)
    for p in points:
        f = replicator_field(0.0, p, default_utilities, default_cfg.mu)
        assert abs(float(f.sum())) < 1e-12


def test_criterion_10_preset_determinism(tmp_path):
    cfg = default_config()
    cfg = dataclasses.replace(
        cfg,
        grids=SweepGrids(
            mu=[0.1, 0.2],
            n_users=[50, 100],
            delta=[0.0, 30.0],
            irs_elements_sp2=[4, 8],
            distance=[10.0, 20.0],
            price_irs_sp1=[0.05, 0.1],
        ),
    )
    for preset in ("utilities-vs-time", "convergence-speed", "delay-sweep",
                   "irs-size-sweep", "distance-price-sweep"):
        first = run_experiment(preset, cfg, tmp_path / "a" / preset)
        second = run_experiment(preset, cfg, tmp_path / "b" / preset)
        assert first and [p.name for p in first] == [p.name for p in second]
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes(), "%s: %s differs between runs" % (
                preset,
                a.name,
            )
