"""Utilities, replicator fields, the delay bound and equilibrium detection."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irsgame import (
    ConfigurationError,
    NumericError,
    Trajectory,
    UtilityParams,
    detect_equilibrium,
    make_utilities,
    simulate,
    stability_bound,
    utility_numerators,
    utility_spread,
)
from irsgame import game, with_scalar_overrides
from irsgame.experiments import numerators
from irsgame.game import EPS_FIELD, SCAN_STEPS, quiet_steps
from conftest import group_gains, one_service_cfg, one_service_links
import oracle
from oracle import average_utility, replicator_field, utility


def test_make_utilities_matches_scalar_utility(default_cfg, default_links, default_utilities):
    params = UtilityParams.from_config(default_cfg)
    rng = np.random.default_rng(17)
    for _ in range(50):
        p = rng.dirichlet(np.ones(default_cfg.n_groups))
        u, u_bar = default_utilities(p)
        for g in range(default_cfg.n_groups):
            want = utility(default_links[g], g, p[g], params, default_cfg)
            assert u[g] == pytest.approx(want, rel=1e-12)
        assert u_bar == pytest.approx(average_utility(p, u), rel=1e-12)


def test_make_utilities_marks_empty_groups(default_cfg, default_utilities):
    p = np.zeros(default_cfg.n_groups)
    p[0] = 0.25
    p[3] = 0.75
    u, u_bar = default_utilities(p)
    assert np.isnan(u[1]) and np.isnan(u[5])
    assert np.isfinite(u[0]) and np.isfinite(u[3])
    assert u_bar == pytest.approx(0.25 * u[0] + 0.75 * u[3], rel=1e-12)


def test_make_utilities_stacked_states_match_single_calls(default_cfg, default_utilities):
    rng = np.random.default_rng(23)
    states = rng.dirichlet(np.ones(default_cfg.n_groups), size=200)
    states[::3, 2] = 0.0
    u, u_bar = default_utilities(states)
    rows = [default_utilities(p) for p in states]
    assert np.array_equal(u, np.array([r[0] for r in rows]), equal_nan=True)
    assert np.array_equal(u_bar, np.array([r[1] for r in rows]))


def test_replicator_field_hand_example():
    utilities = lambda p: (np.array([2.0, 1.0]), 1.5)
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
    numer = utility_numerators(links, cfg)
    assert stability_bound(numer, cfg.mu, cfg.n_users) == pytest.approx(want, rel=1e-12)


def test_stability_bound_scaling():
    cfg = one_service_cfg()
    numer = utility_numerators(one_service_links(), cfg)
    base = stability_bound(numer, cfg.mu, cfg.n_users)
    halved = stability_bound(numer, 0.2, cfg.n_users)
    doubled = stability_bound(numer, cfg.mu, 200)
    assert halved == pytest.approx(base / 2.0, rel=1e-12)
    assert doubled == pytest.approx(base * 2.0, rel=1e-12)


def test_stability_bound_on_default_scenario(default_cfg, default_links):
    # six groups, three per provider: the bound needs no one-service reduction
    numer = utility_numerators(default_links, default_cfg)
    assert stability_bound(numer, default_cfg.mu, default_cfg.n_users) == pytest.approx(46.841, rel=1e-4)


def test_stability_bound_counts_valuation(reduced_cfg, reduced_links):
    cfg = dataclasses.replace(reduced_cfg, valuation=2.0)
    c = utility_numerators(reduced_links, cfg)
    want = np.pi / (2.0 * cfg.mu * c.sum() / cfg.n_users)
    assert stability_bound(c, cfg.mu, cfg.n_users) == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(9.975, rel=1e-3)


def test_stability_bound_sums_only_profitable_groups():
    cfg = one_service_cfg()
    sps = [cfg.sps[0], dataclasses.replace(cfg.sps[1], price_irs=10.0)]
    cfg = dataclasses.replace(cfg, sps=sps)
    # provider 1 earns log2(4) - 0.1*8 - 0.1*1 = 1.1; provider 2 loses 2 - 80 - 0.1
    want = np.pi / (2.0 * cfg.mu * 1.1 / cfg.n_users)
    numer = utility_numerators(one_service_links(snr=3.0), cfg)
    assert stability_bound(numer, cfg.mu, cfg.n_users) == pytest.approx(want, rel=1e-12)


def test_delay_between_the_positive_and_the_full_sum_bound_does_not_settle(default_cfg):
    # at a surface price of 1.0 both of sp.2's groups lose money and die out,
    # so only the positive numerators set the delay bound
    sps = [default_cfg.sps[0], dataclasses.replace(default_cfg.sps[1], price_irs=1.0)]
    cfg = dataclasses.replace(default_cfg, sps=sps)
    c = numerators(cfg)
    assert np.any(c < 0.0)
    bound = stability_bound(c, cfg.mu, cfg.n_users)
    full_sum_bound = np.pi / (2.0 * cfg.mu * c.sum() / cfg.n_users)
    assert full_sum_bound > 1.2 * bound

    mild = dataclasses.replace(cfg, delta=0.5 * bound)
    assert detect_equilibrium(simulate(mild).trajectory, min_quiet=mild.delta) is not None
    between = dataclasses.replace(
        cfg,
        delta=0.5 * (bound + full_sum_bound),
        integrator=dataclasses.replace(cfg.integrator, horizon=3000.0),
    )
    assert detect_equilibrium(simulate(between).trajectory, min_quiet=between.delta) is None


@pytest.mark.filterwarnings("error")
def test_utility_numerators_reject_non_finite_payoffs():
    links = one_service_links(snr=3.0)  # each provider earns v * log2(4) - 0.9
    with pytest.raises(NumericError, match=r"payoff of group 2 \(sp 2, subset 1, power level 1\) is inf"):
        utility_numerators(links, dataclasses.replace(one_service_cfg(), valuation=[1.0, 1e308]))
    # finite entries of 1.2e308 whose sum is not
    with pytest.raises(NumericError, match="the payoffs of the 2 groups sum to inf"):
        utility_numerators(links, dataclasses.replace(one_service_cfg(), valuation=0.6e308))


def test_stability_bound_rejects_unprofitable_scenario():
    cfg = one_service_cfg(price_irs=10.0)  # element price swamps the rate
    with pytest.raises(NumericError, match="aggregate utility term is not positive"):
        stability_bound(utility_numerators(one_service_links(), cfg), cfg.mu, cfg.n_users)


def test_stability_bound_matches_reduced_dynamics_rate(reduced_cfg, reduced_links):
    # the bound equals pi/2 over the linear convergence rate mu*S/n_users,
    # with S the summed group gains
    gains = group_gains(reduced_cfg, reduced_links)
    rate = reduced_cfg.mu * gains.sum() / reduced_cfg.n_users
    numer = utility_numerators(reduced_links, reduced_cfg)
    bound = stability_bound(numer, reduced_cfg.mu, reduced_cfg.n_users)
    assert bound == pytest.approx(np.pi / (2.0 * rate), rel=1e-12)


# a utility map of two groups, for trajectories whose spread a test does not read
TWO_GROUPS = make_utilities(np.ones(2), 1)


def constant_trajectory(p, utilities, n=5, dt=0.1):
    return Trajectory(dt, np.tile(p, (n, 1)), utilities)


def test_detect_equilibrium_constant_trajectory():
    traj = constant_trajectory(np.array([0.3, 0.7]), TWO_GROUPS)
    index = detect_equilibrium(traj)
    assert index == 0 and traj.times[index] == 0.0


def test_detect_equilibrium_moving_tail_returns_none():
    states = np.array([[0.5, 0.5], [0.5, 0.5], [0.4, 0.6]])
    traj = Trajectory(0.1, states, TWO_GROUPS)
    assert detect_equilibrium(traj) is None


def test_detect_equilibrium_finds_earliest_quiet_index():
    states = np.array([[0.5, 0.5], [0.4, 0.6], [0.3, 0.7], [0.3, 0.7], [0.3, 0.7]])
    traj = Trajectory(1.0, states, TWO_GROUPS)
    index = detect_equilibrium(traj)
    assert index == 2 and traj.times[index] == 2.0


def test_detect_equilibrium_min_quiet():
    traj = constant_trajectory(np.array([0.5, 0.5]), TWO_GROUPS, n=5, dt=0.1)  # 0.4 units long
    assert detect_equilibrium(traj, min_quiet=0.5) is None
    assert detect_equilibrium(traj, min_quiet=0.4) == 0


def test_utility_spread_at_the_rest_point():
    p = np.array([0.6, 0.395, 0.005])
    traj = constant_trajectory(p, make_utilities(np.array([2.0, 1.0, 50.0]) * p, 1), n=4)  # utilities 2, 1 and 50
    index = detect_equilibrium(traj)
    # the 0.5% group is below the mass cutoff; spread is (2-1)/2 of the rest
    assert utility_spread(traj, index) == pytest.approx(0.5, rel=1e-12)


def test_utility_spread_without_a_group_above_the_mass_cutoff_is_none():
    # 100 groups of share 0.01 each: none is above EPS_MASS = 0.01
    traj = constant_trajectory(np.full(100, 0.01), make_utilities(np.linspace(1.0, 2.0, 100), 1))
    index = detect_equilibrium(traj)
    assert index is not None and utility_spread(traj, index) is None


def test_utility_spread_of_zero_utilities_is_zero():
    # every surviving utility is 0: the spread is 0.0, not 0 / 0
    traj = constant_trajectory(np.array([0.3, 0.7]), make_utilities(np.zeros(2), 1))
    index = detect_equilibrium(traj)
    assert index is not None and utility_spread(traj, index) == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("states", [[[-1e308, 1e308], [1e308, -1e308]], [[0.0, 1e308], [1e308, 0.0]]])
def test_detect_equilibrium_reads_a_difference_past_the_largest_float_as_moving(states):
    # the first difference overflows in the subtraction, the second in the division by dt = 0.5
    traj = Trajectory(0.5, states, TWO_GROUPS)
    assert detect_equilibrium(traj) is None
    assert oracle.detect_equilibrium(traj) is None


# the diffs whose rows the column-wise max must read as np.max does: NaN, infinities, signed
# zeros, subnormals, and the values either side of the threshold EPS_FIELD at dt = 1
SPECIAL_DIFFS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e-6, -1e-6]


@st.composite
def step_diffs(draw):
    """Differences (T, G) of 1 to 12 groups, mixing special values with values near the threshold, and steps dt (T,)."""
    g, t = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    # finite diffs up to 1e300, so that no quotient by dt overflows
    cell = st.one_of(st.sampled_from(SPECIAL_DIFFS), st.floats(-3e-6, 3e-6), st.floats(-1e300, 1e300))
    diffs = draw(st.lists(st.lists(cell, min_size=g, max_size=g), min_size=t, max_size=t))
    dt = draw(st.lists(st.sampled_from([1.0, 0.5, 0.01, 2.0]), min_size=t, max_size=t))
    return np.array(diffs, dtype=float).reshape(t, g), np.array(dt)


@settings(max_examples=300, deadline=None)
@given(step_diffs())
@example((np.array([[0.0, 2e-6], [2e-6, 0.0], [0.0, math.nan]]), np.ones(3)))  # each column decides a row
@example((np.array([[2e-6], [5e-7], [-math.inf]]), np.ones(3)))  # a single group
def test_quiet_steps_reads_each_row_as_np_max_does(case):
    diffs, dt = case
    expected = oracle.quiet_steps(diffs, dt)
    assert np.array_equal(quiet_steps(diffs.copy(), dt), expected)
    # each column can decide a row: a quiet row turns moving where any one of its cells does
    for g in range(diffs.shape[1]):
        loud = diffs.copy()
        loud[:, g] = 2.0 * EPS_FIELD * dt
        assert not quiet_steps(loud, dt).any()


def test_detect_equilibrium_empty_and_single():
    with pytest.raises(ConfigurationError):
        detect_equilibrium(Trajectory(0.1, np.zeros((0, 2)), TWO_GROUPS))
    assert detect_equilibrium(Trajectory(0.1, np.array([[1.0, 0.0]]), TWO_GROUPS)) == 0


@st.composite
def resting_runs(draw):
    """A run of 1 to 40 samples of 1 to 3 groups whose steps stand still, move at rates near EPS_FIELD
    or jump, and quiet for a drawn tail; a min_quiet, often a whole number of steps; and the steps
    that detect_equilibrium reads at a time, from 1 to past the run's length."""
    g, n = draw(st.integers(1, 3)), draw(st.integers(1, 40))
    dt = draw(st.sampled_from([0.01, 0.07, 0.1, 1.0, 3.0]))
    rate = st.sampled_from([0.0, 0.0, 0.5, 0.999999, 1.0, 1.000001, 2.0, 1e6])  # in units of EPS_FIELD
    rates = np.array(draw(st.lists(st.lists(rate, min_size=g, max_size=g), min_size=n - 1, max_size=n - 1)))
    rates[n - 1 - draw(st.integers(0, n - 1)) :] = 0.0
    states = np.cumsum(np.vstack((np.full(g, 0.5), rates.reshape(n - 1, g) * EPS_FIELD * dt)), axis=0)
    min_quiet = draw(st.one_of(st.integers(0, n).map(lambda k: k * dt), st.floats(0.0, 1.2 * n * dt)))
    scan = draw(st.integers(1, 6) | st.just(SCAN_STEPS))
    return Trajectory(dt, states, make_utilities(np.ones(g), 1)), min_quiet, scan


@settings(max_examples=300, deadline=None)
@given(resting_runs())
# the last step moves at EPS_FIELD over its time difference 0.4 - 0.30000000000000004, not over dt = 0.1
@example((Trajectory(0.1, [[0.0]] * 4 + [[9.999999999999997e-08]], make_utilities(np.ones(1), 1)), 0.0, 2))
def test_detect_equilibrium_is_the_full_grid_rule_at_any_block_size(case):
    traj, min_quiet, scan = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(game, "SCAN_STEPS", scan)
        assert detect_equilibrium(traj, min_quiet) == oracle.detect_equilibrium(traj, min_quiet)


def counted_scans(monkeypatch) -> list:
    """The quiet_steps calls of detect_equilibrium, one per block it reads, as a list that grows per call."""
    calls = []
    monkeypatch.setattr(game, "quiet_steps", lambda diffs, dt: calls.append(len(dt)) or quiet_steps(diffs, dt))
    return calls


@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_detect_equilibrium_reads_back_to_the_block_of_the_last_moving_step(monkeypatch, blocks, offset):
    # the last moving step j is the first step of the blocks-th block back from the tail, or one
    # step either side of it: one step earlier lies in the next block
    n = 3 * SCAN_STEPS + 5  # steps
    j = n - blocks * SCAN_STEPS + offset
    states = np.empty((n + 1, 2))
    states[: j + 1] = np.linspace(0.0, 1.0, j + 1)[:, None] * [1.0, -1.0]
    states[j + 1 :] = [2.0, 3.0]
    traj = Trajectory(0.01, states, TWO_GROUPS)
    calls = counted_scans(monkeypatch)
    assert detect_equilibrium(traj) == oracle.detect_equilibrium(traj) == j + 1
    assert calls == [SCAN_STEPS] * (blocks + (offset < 0))


@pytest.mark.parametrize("states", [[[0.3, 0.7]], [[0.3, 0.7], [0.3, 0.7]], [[0.3, 0.7], [0.4, 0.6]]])
@pytest.mark.parametrize("min_quiet", [0.0, 0.1, 0.2])
def test_detect_equilibrium_of_one_and_two_samples(states, min_quiet):
    traj = Trajectory(0.1, states, TWO_GROUPS)
    assert detect_equilibrium(traj, min_quiet) == oracle.detect_equilibrium(traj, min_quiet)


def test_detect_equilibrium_of_a_run_whose_last_step_moves_reads_one_block(monkeypatch, reduced_cfg):
    # reduced.cfg at delta = 30 never rests: its last step moves
    traj = simulate(dataclasses.replace(reduced_cfg, delta=30.0)).trajectory
    calls = counted_scans(monkeypatch)
    assert detect_equilibrium(traj, min_quiet=30.0) is None
    assert calls == [SCAN_STEPS]
    assert oracle.detect_equilibrium(traj, min_quiet=30.0) is None


@pytest.mark.parametrize("longer", [False, True])
def test_detect_equilibrium_with_a_min_quiet_longer_than_the_quiet_tail(longer):
    # the quiet tail from sample 6 spans three blocks: a min_quiet past its length is no rest
    n = 2 * SCAN_STEPS + 10
    states = np.tile([0.5, 0.5], (n + 1, 1))
    states[:6] = [[0.05 * k, 1.0 - 0.05 * k] for k in range(6)]
    traj = Trajectory(0.07, states, TWO_GROUPS)
    min_quiet = float(traj.times[-1] - traj.times[6])
    if longer:
        min_quiet = math.nextafter(min_quiet, math.inf)
    assert detect_equilibrium(traj, min_quiet) == oracle.detect_equilibrium(traj, min_quiet) == (None if longer else 6)


def test_the_bundled_delayed_rest_is_found_many_blocks_back(monkeypatch, default_cfg):
    # default.cfg at delta = 30 rests at t = 799.4 on a horizon of 2400: its last moving step is 39 blocks back
    cfg = with_scalar_overrides(default_cfg, delta=30.0, horizon=2400.0)
    traj = simulate(cfg).trajectory
    calls = counted_scans(monkeypatch)
    index = detect_equilibrium(traj, min_quiet=cfg.delta)
    assert index == oracle.detect_equilibrium(traj, min_quiet=cfg.delta) == 79_940
    assert "%.17g" % traj.times[index] == "799.39999999999998"
    assert len(calls) == (len(traj) - 1 - index) // SCAN_STEPS + 1 == 40


def test_utility_params_valuation_shapes(default_cfg):
    params = UtilityParams.from_config(default_cfg)
    assert params.valuation.shape == (default_cfg.n_groups,)
    per_group = dataclasses.replace(default_cfg, valuation=[1.0] * default_cfg.n_groups)
    assert UtilityParams.from_config(per_group).valuation.shape == (default_cfg.n_groups,)
