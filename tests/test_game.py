"""Utilities, replicator fields, the delay bound and equilibrium detection."""

import dataclasses

import numpy as np
import pytest

from irsgame import (
    ConfigurationError,
    NumericError,
    Trajectory,
    UnsupportedScenarioError,
    UtilityParams,
    UtilityVector,
    detect_equilibrium,
    make_utilities,
    replicator_field,
    stability_bound,
)
from conftest import group_gains, one_service_cfg, one_service_links
from oracle import average_utility, utility


def test_make_utilities_matches_scalar_utility(default_cfg, default_links, default_utilities):
    params = UtilityParams.from_config(default_cfg)
    rng = np.random.default_rng(17)
    for _ in range(50):
        p = rng.dirichlet(np.ones(default_cfg.n_groups))
        uv = default_utilities(p)
        for g in range(default_cfg.n_groups):
            want = utility(default_links[g], p[g], params, default_cfg)
            assert uv.u[g] == pytest.approx(want, rel=1e-12)
        assert uv.u_bar == pytest.approx(average_utility(p, uv.u), rel=1e-12)


def test_make_utilities_marks_empty_groups(default_cfg, default_utilities):
    p = np.zeros(default_cfg.n_groups)
    p[0] = 0.25
    p[3] = 0.75
    uv = default_utilities(p)
    assert np.isnan(uv.u[1]) and np.isnan(uv.u[5])
    assert np.isfinite(uv.u[0]) and np.isfinite(uv.u[3])
    assert uv.u_bar == pytest.approx(0.25 * uv.u[0] + 0.75 * uv.u[3], rel=1e-12)


def test_make_utilities_stacked_states_match_single_calls(default_cfg, default_utilities):
    rng = np.random.default_rng(23)
    states = rng.dirichlet(np.ones(default_cfg.n_groups), size=200)
    states[::3, 2] = 0.0
    stacked = default_utilities(states)
    rows = [default_utilities(p) for p in states]
    assert np.array_equal(stacked.u, np.array([r.u for r in rows]), equal_nan=True)
    assert np.array_equal(stacked.u_bar, np.array([r.u_bar for r in rows]))


def test_replicator_field_hand_example():
    utilities = lambda p: UtilityVector(np.array([2.0, 1.0]), 1.5)
    f = replicator_field(0.0, np.array([0.5, 0.5]), utilities, mu=1.0)
    assert np.allclose(f, [0.25, -0.25], atol=1e-15)
    # doubling the adaptation rate doubles the field
    f2 = replicator_field(0.0, np.array([0.5, 0.5]), utilities, mu=2.0)
    assert np.allclose(f2, 2.0 * f, atol=1e-15)


def test_replicator_field_conserves_mass(default_cfg, default_utilities):
    rng = np.random.default_rng(23)
    for _ in range(200):
        p = rng.dirichlet(np.ones(default_cfg.n_groups))
        f = replicator_field(0.0, p, default_utilities, default_cfg.mu)
        assert abs(float(f.sum())) < 1e-12


def test_replicator_field_keeps_faces_invariant(default_cfg, default_utilities):
    p = np.array([0.0, 0.4, 0.0, 0.6, 0.0, 0.0])
    f = replicator_field(0.0, p, default_utilities, default_cfg.mu)
    assert f[0] == 0.0 and f[2] == 0.0 and f[4] == 0.0 and f[5] == 0.0
    assert abs(float(f.sum())) < 1e-12


def test_stability_bound_hand_value():
    cfg = one_service_cfg()
    links = one_service_links(snr=3.0)
    # each provider contributes log2(4) - 0.1*8 - 0.1*1 = 1.1
    want = np.pi / (2.0 * cfg.mu * 2.2 / cfg.n_users)
    assert stability_bound(cfg, links) == pytest.approx(want, rel=1e-12)


def test_stability_bound_scaling():
    cfg = one_service_cfg()
    links = one_service_links()
    base = stability_bound(cfg, links)
    halved = stability_bound(dataclasses.replace(cfg, mu=0.2), links)
    doubled = stability_bound(dataclasses.replace(cfg, n_users=200), links)
    assert halved == pytest.approx(base / 2.0, rel=1e-12)
    assert doubled == pytest.approx(base * 2.0, rel=1e-12)


def test_stability_bound_needs_reduced_scenario(default_cfg, default_links):
    with pytest.raises(UnsupportedScenarioError):
        stability_bound(default_cfg, default_links)


def test_stability_bound_rejects_unprofitable_scenario():
    cfg = one_service_cfg(price_irs=10.0)  # element price swamps the rate
    with pytest.raises(NumericError):
        stability_bound(cfg, one_service_links())


def test_stability_bound_matches_reduced_dynamics_rate(reduced_cfg, reduced_links):
    # the bound equals pi/2 over the linear convergence rate mu*S/n_users,
    # with S the summed group gains
    gains = group_gains(reduced_cfg, reduced_links)
    rate = reduced_cfg.mu * gains.sum() / reduced_cfg.n_users
    bound = stability_bound(reduced_cfg, reduced_links)
    assert bound == pytest.approx(np.pi / (2.0 * rate), rel=1e-12)


def constant_trajectory(p, n=5, dt=0.1):
    times = np.arange(n) * dt
    return Trajectory(times=times, states=np.tile(p, (n, 1)))


def test_detect_equilibrium_constant_trajectory():
    eq = detect_equilibrium(constant_trajectory(np.array([0.3, 0.7])))
    assert eq is not None and eq.index == 0 and eq.time == 0.0
    assert eq.utility_spread is None  # no utilities recorded


def test_detect_equilibrium_moving_tail_returns_none():
    states = np.array([[0.5, 0.5], [0.5, 0.5], [0.4, 0.6]])
    traj = Trajectory(times=np.arange(3) * 0.1, states=states)
    assert detect_equilibrium(traj) is None


def test_detect_equilibrium_finds_earliest_quiet_index():
    states = np.array([[0.5, 0.5], [0.4, 0.6], [0.3, 0.7], [0.3, 0.7], [0.3, 0.7]])
    traj = Trajectory(times=np.arange(5) * 1.0, states=states)
    eq = detect_equilibrium(traj, eps_field=1e-3)
    assert eq.index == 2 and eq.time == 2.0


def test_detect_equilibrium_min_quiet():
    traj = constant_trajectory(np.array([0.5, 0.5]), n=5, dt=0.1)  # 0.4 units long
    assert detect_equilibrium(traj, min_quiet=0.5) is None
    eq = detect_equilibrium(traj, min_quiet=0.4)
    assert eq is not None and eq.index == 0


def test_detect_equilibrium_reports_spread():
    p = np.array([0.6, 0.395, 0.005])
    traj = constant_trajectory(p, n=4)
    traj.utilities = np.tile(np.array([2.0, 1.0, 50.0]), (4, 1))
    traj.u_bar = np.full(4, 1.5)
    eq = detect_equilibrium(traj, eps_mass=1e-2)
    # the 0.5% group is below the mass cutoff; spread is (2-1)/2 of the rest
    assert eq.utility_spread == pytest.approx(0.5, rel=1e-12)


def test_detect_equilibrium_empty_and_single():
    with pytest.raises(ConfigurationError):
        detect_equilibrium(Trajectory(times=np.array([]), states=np.zeros((0, 2))))
    eq = detect_equilibrium(Trajectory(times=np.array([1.0]), states=np.array([[1.0, 0.0]])))
    assert eq is not None and eq.index == 0


def test_utility_params_valuation_shapes(default_cfg):
    params = UtilityParams.from_config(default_cfg)
    assert params.valuation.shape == (default_cfg.n_groups,)
    per_group = dataclasses.replace(default_cfg, valuation=[1.0] * default_cfg.n_groups)
    assert UtilityParams.from_config(per_group).valuation.shape == (default_cfg.n_groups,)
