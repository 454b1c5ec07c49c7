"""Integrators: closed-form oracles, order, delay handling, Picard iteration."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from irsgame import (
    ConfigurationError,
    HistoryBuffer,
    IntegratorSpec,
    NonConvergenceError,
    NumericalDriftError,
    NumericError,
    ReplicatorSolution,
    UtilityVector,
    delayed_replicator_field,
    detect_equilibrium,
    integrate_dde,
    integrate_ode,
    make_utilities,
    picard_solve,
    replicator_field,
    simulate,
    solve_delayed,
    solve_replicator,
    utility_numerators,
    with_scalar_overrides,
)
from irsgame.dynamics import DRIFT_TOL, MAX_STEPS, _numpy_sum, _project_row, _project_step
from irsgame.experiments import numerators
from conftest import group_gains


def logistic_utilities(p):
    # constant payoff gap of 1 between two strategies
    return UtilityVector(np.array([1.0, 0.0]), float(p[0]))


def logistic_field(t, p):
    return replicator_field(t, p, logistic_utilities, mu=1.0)


def logistic_exact(t):
    return 1.0 / (1.0 + np.exp(-t))


def test_integrator_spec_validation():
    IntegratorSpec()
    with pytest.raises(ConfigurationError, match="method"):
        integrate_ode(logistic_field, np.array([0.5, 0.5]), IntegratorSpec(), method="euler")
    with pytest.raises(ConfigurationError):
        IntegratorSpec(dt=0.0)
    with pytest.raises(ConfigurationError):
        IntegratorSpec(horizon=-1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigurationError):
            IntegratorSpec(dt=bad)
        with pytest.raises(ConfigurationError):
            IntegratorSpec(horizon=bad)


def test_integrator_spec_caps_the_step_count():
    assert IntegratorSpec(dt=1.0, horizon=float(MAX_STEPS)).n_steps() == MAX_STEPS
    for dt, horizon in ((1.0, MAX_STEPS * (1.0 + 1e-15)), (1e-300, 600.0), (1e-200, 1e100)):
        with pytest.raises(ConfigurationError, match=r"integrator\.horizon / integrator\.dt .* exceeds the cap"):
            IntegratorSpec(dt=dt, horizon=horizon)


def test_integrator_spec_keeps_the_last_sample_time_finite():
    # horizon / dt rounds up to 40 steps, and 40 * dt is past the largest float
    with pytest.raises(ConfigurationError, match="last sample time 40 \\* 4.49423283715579e\\+306 is not a float"):
        IntegratorSpec(dt=4.49423283715579e306, horizon=1.7527508065357005e308)
    assert IntegratorSpec(dt=1e308, horizon=1e308).n_steps() == 1


def test_integrator_spec_step_count():
    assert IntegratorSpec(dt=0.1, horizon=1.0).n_steps() == 10
    assert IntegratorSpec(dt=0.1, horizon=0.95).n_steps() == 10
    # float noise in horizon/dt must not add a spurious extra step
    assert IntegratorSpec(dt=0.1, horizon=0.1 * 7).n_steps() == 7


def test_rk4_logistic_oracle():
    spec = IntegratorSpec(dt=0.01, horizon=10.0)
    traj = integrate_ode(logistic_field, np.array([0.5, 0.5]), spec)
    err = np.max(np.abs(traj.states[:, 0] - logistic_exact(traj.times)))
    assert err < 1e-6
    assert traj.states[-1, 0] == pytest.approx(logistic_exact(10.0), abs=1e-6)


def test_forward_euler_logistic_converges_coarsely():
    spec = IntegratorSpec(dt=0.01, horizon=5.0)
    traj = integrate_ode(logistic_field, np.array([0.5, 0.5]), spec, method="forward-euler")
    err = np.max(np.abs(traj.states[:, 0] - logistic_exact(traj.times)))
    assert err < 1e-3  # first order: noticeably worse than rk4 at the same step


def test_rk4_step_halving_order():
    def run(dt):
        spec = IntegratorSpec(dt=dt, horizon=1.0)
        traj = integrate_ode(logistic_field, np.array([0.5, 0.5]), spec)
        return abs(traj.states[-1, 0] - logistic_exact(1.0))

    e1, e2 = run(0.1), run(0.05)
    assert e1 / e2 >= 8.0  # fourth order would give 16


def test_zero_field_is_constant():
    spec = IntegratorSpec(dt=0.1, horizon=2.0)
    p0 = np.array([0.25, 0.75])
    traj = integrate_ode(lambda t, p: np.zeros_like(p), p0, spec)
    assert np.array_equal(traj.states, np.tile(p0, (len(traj), 1)))
    assert traj.total_drift == 0.0 and traj.total_absorbed == 0.0


def test_initial_state_validation():
    spec = IntegratorSpec(dt=0.1, horizon=1.0)
    for p0 in ([0.7, 0.7], [0.6, 0.6], [-0.1, 1.1], [[0.5, 0.5]], np.eye(2)):
        with pytest.raises(ConfigurationError):
            integrate_ode(logistic_field, np.array(p0), spec)


def test_drift_error_on_leaky_field():
    # a field that pumps mass in violates the tolerance within one step
    spec = IntegratorSpec(dt=0.1, horizon=1.0)
    with pytest.raises(NumericalDriftError):
        integrate_ode(lambda t, p: np.array([0.01, 0.0]), np.array([0.5, 0.5]), spec, method="forward-euler")


def test_drift_error_on_nan_step():
    # u = c / p overflows for a subnormal share; the NaN step must raise, not
    # fill every later row with NaN
    c = np.array([1.0, 1.0])

    def utilities(p):
        alive = p > 0.0
        u = np.divide(c, p, out=np.full(len(p), np.nan), where=alive)
        return UtilityVector(u, float(np.sum(np.where(alive, p * u, 0.0))))

    spec = IntegratorSpec(dt=0.01, horizon=1.0)
    with np.errstate(all="ignore"), pytest.raises(NumericalDriftError):
        integrate_ode(
            lambda t, p: replicator_field(t, p, utilities, 1.0), np.array([1.0, 2.2e-309]), spec, method="forward-euler"
        )


def test_drift_recorded_under_projection():
    # a leak of 1e-7 per step stays below DRIFT_TOL: every step is recorded
    # as drift and projected back onto the simplex
    spec = IntegratorSpec(dt=0.1, horizon=1.0)
    traj = integrate_ode(lambda t, p: np.array([1e-6, 0.0]), np.array([0.5, 0.5]), spec, method="forward-euler")
    assert traj.total_drift == pytest.approx(10 * 1e-7, rel=1e-6)
    assert traj.total_absorbed == 0.0
    assert np.all(np.abs(traj.states.sum(axis=1) - 1.0) <= 1e-15)
    assert traj.terminal_state[0] > 0.5


def test_boundary_clamp_is_absorbing_not_fatal():
    # outflow pushes the small group through zero; the overshoot is clamped,
    # recorded as absorbed mass, and the run continues
    spec = IntegratorSpec(dt=0.02, horizon=1.0)
    traj = integrate_ode(
        lambda t, p: np.array([-1.0, 1.0]) * (p[0] > 0.0), np.array([0.01, 0.99]), spec, method="forward-euler"
    )
    assert traj.terminal_state[0] == 0.0
    assert traj.total_absorbed == pytest.approx(0.01, rel=1e-9)
    assert abs(float(traj.terminal_state.sum()) - 1.0) < 1e-12


def test_history_buffer_lookup():
    hist = HistoryBuffer(t0=0.0, dt=0.5)
    a, b, c = np.array([1.0, 0.0]), np.array([0.5, 0.5]), np.array([0.0, 1.0])
    for s in (a, b, c):
        hist.append(s)
    assert np.array_equal(hist.lookup(0.0), a)
    assert np.array_equal(hist.lookup(0.5), b)
    assert np.array_equal(hist.lookup(1.0), c)
    # pre-history is the constant initial state
    assert np.array_equal(hist.lookup(-3.0), a)
    # interpolation halfway between samples
    assert np.allclose(hist.lookup(0.25), 0.5 * (a + b), atol=1e-15)
    # grid snap: a float hair off a sample still hits the sample exactly
    assert np.array_equal(hist.lookup(0.5 + 1e-12), b)
    with pytest.raises(ConfigurationError):
        hist.lookup(1.25)


def test_dde_zero_delay_matches_euler_exactly(default_cfg, default_utilities):
    spec = IntegratorSpec(dt=0.01, horizon=2.0)
    p0 = default_cfg.initial_population()
    mu = default_cfg.mu

    ode = integrate_ode(
        lambda t, p: replicator_field(t, p, default_utilities, mu), p0, spec, default_utilities, method="forward-euler"
    )
    dde = integrate_dde(
        lambda t, lookup: delayed_replicator_field(t, lookup, 0.0, mu),
        p0,
        0.0,
        spec,
        default_utilities,
    )
    assert np.array_equal(ode.states, dde.states)
    assert np.array_equal(ode.u_bar, dde.u_bar)


def test_dde_small_delay_reaches_known_equilibrium(reduced_cfg, reduced_links):
    utilities = make_utilities(utility_numerators(reduced_links, reduced_cfg), reduced_cfg.n_users)
    gains = group_gains(reduced_cfg, reduced_links)
    p_star = gains / gains.sum()
    spec = IntegratorSpec(dt=0.01, horizon=300.0)
    traj = integrate_dde(
        lambda t, lookup: delayed_replicator_field(t, lookup, 5.0, reduced_cfg.mu),
        reduced_cfg.initial_population(),
        5.0,
        spec,
        utilities,
    )
    assert np.max(np.abs(traj.terminal_state - p_star)) < 1e-6


def test_dde_rejects_negative_delay(default_cfg, default_utilities):
    spec = IntegratorSpec(dt=0.1, horizon=1.0)
    with pytest.raises(ConfigurationError):
        integrate_dde(
            lambda t, lookup: delayed_replicator_field(t, lookup, -1.0, 0.1),
            default_cfg.initial_population(),
            -1.0,
            spec,
            default_utilities,
        )


def test_simplex_preserved_along_default_run(default_cfg, default_utilities):
    spec = IntegratorSpec(dt=0.01, horizon=5.0)
    traj = integrate_ode(
        lambda t, p: replicator_field(t, p, default_utilities, default_cfg.mu),
        default_cfg.initial_population(),
        spec,
        default_utilities,
    )
    sums = traj.states.sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-9
    assert np.min(traj.states) >= 0.0


def test_picard_zero_field_fixed_point():
    times = np.linspace(0.0, 1.0, 11)
    diffs = []
    traj = picard_solve(lambda t, p: np.zeros_like(p), np.array([0.5, 0.5]), times, diffs=diffs)
    assert np.array_equal(traj.states, np.tile([0.5, 0.5], (11, 1)))
    assert len(diffs) == 1 and diffs[0] == 0.0


def test_picard_matches_logistic():
    times = np.arange(0.0, 1.0 + 1e-12, 0.01)
    diffs = []
    traj = picard_solve(logistic_field, np.array([0.5, 0.5]), times, diffs=diffs)
    err = np.max(np.abs(traj.states[:, 0] - logistic_exact(times)))
    assert err < 1e-4  # quadrature error of the trapezoid grid
    # successive approximation: the round-to-round change eventually contracts
    tail = np.array(diffs[2:])
    assert np.all(np.diff(tail) <= 0.0)


def test_picard_round_budget():
    times = np.linspace(0.0, 1.0, 51)
    with pytest.raises(NonConvergenceError):
        picard_solve(logistic_field, np.array([0.5, 0.5]), times, max_rounds=2)


def test_picard_grid_validation():
    p0 = np.array([1.0])
    with pytest.raises(ConfigurationError):
        picard_solve(lambda t, p: p, p0, np.array([0.0]))
    with pytest.raises(ConfigurationError):
        picard_solve(lambda t, p: p, p0, np.array([0.0, 0.0, 1.0]))


# --- exact solution of the built-in model: p_g * u_g = c_g -------------------


def payoff_utilities(c):
    """u_g = c_g / p_g for non-empty groups, written independently of make_utilities."""

    def utilities(p):
        alive = p > 0.0
        u = np.divide(c, p, out=np.full(len(p), np.nan), where=alive)
        return UtilityVector(u, float(np.sum(c[alive])))

    return utilities


def on_simplex(states):
    return np.min(states) >= 0.0 and np.max(np.abs(states.sum(axis=1) - 1.0)) < 1e-12


# empty groups included; rk4 divides by the shares, so the others stay well above zero
simplex_points = st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=2, max_size=6).filter(
    lambda w: max(w) > 0.0
)


@settings(max_examples=40, deadline=None)
@given(
    weights=simplex_points,
    gains=st.lists(st.floats(0.01, 1.0), min_size=6, max_size=6),
    mu=st.floats(0.05, 1.0),
)
def test_exact_solution_matches_rk4_when_every_group_is_profitable(weights, gains, mu):
    p0 = np.array(weights) / sum(weights)
    c = np.array(gains[: len(p0)])
    spec = IntegratorSpec(dt=0.01, horizon=5.0)
    exact = solve_replicator(c, mu, p0, spec)
    # rk4 at dt / 8, sampled on the dt grid: at dt its own truncation error
    # passes 1e-9 once mu * C nears 3; dividing the step by 8 cuts it ~4000-fold
    # (a power-of-two step keeps the sample times bit-identical)
    fine = integrate_ode(
        lambda t, p: replicator_field(t, p, payoff_utilities(c), mu), p0, dataclasses.replace(spec, dt=spec.dt / 8)
    )
    rk4_times, rk4_states = fine.times[::8], fine.states[::8]
    assert np.array_equal(exact.times, rk4_times)
    assert np.max(np.abs(exact.states - rk4_states)) < 1e-9
    assert np.all(exact.states[:, p0 == 0.0] == 0.0)
    assert exact.total_drift == 0.0 and exact.total_absorbed == 0.0


def test_exact_solution_with_unprofitable_groups(default_cfg):
    sps = list(default_cfg.sps)
    sps[0] = dataclasses.replace(sps[0], price_power=100.0)
    cfg = with_scalar_overrides(dataclasses.replace(default_cfg, sps=sps), horizon=20.0)
    res = simulate(cfg)
    traj = res.trajectory
    c = numerators(cfg) / cfg.n_users
    assert np.count_nonzero(c < 0.0) == 2
    assert on_simplex(traj.states)
    assert traj.total_absorbed == 0.0
    # extinction times from p(t) = p* + (q - p*) exp(-mu C (t - t_k)), one group at a time
    q, t_k, alive = cfg.initial_population(), 0.0, np.ones(len(c), dtype=bool)
    for _ in range(2):
        big_c = c[alive].sum()
        rest = np.where(alive, c, 0.0) / big_c
        hit = np.full(len(c), np.inf)
        dying = alive & (c < 0.0)
        hit[dying] = t_k + np.log(1.0 - q[dying] / rest[dying]) / (cfg.mu * big_c)
        g = int(np.argmin(hit))
        assert np.all(traj.states[traj.times < hit[g] - 1e-9, g] > 0.0)
        assert np.all(traj.states[traj.times > hit[g] + 1e-9, g] == 0.0)
        q = rest + (q - rest) * np.exp(-cfg.mu * big_c * (hit[g] - t_k))
        q[g] = 0.0
        alive[g] = False
        t_k = hit[g]
    utilities = make_utilities(numerators(cfg), cfg.n_users)
    rk4 = integrate_ode(
        lambda t, p: replicator_field(t, p, utilities, cfg.mu), cfg.initial_population(), cfg.integrator
    )
    assert rk4.total_absorbed > 0.0
    assert np.max(np.abs(traj.states - rk4.states)) < 1e-4


@settings(max_examples=40, deadline=None)
@given(weights=simplex_points, losses=st.lists(st.floats(0.01, 1.0), min_size=6, max_size=6))
def test_exact_solution_when_every_group_loses(weights, losses):
    # C < 0: the rest point c / C repels, groups empty one by one, and the
    # long horizon would overflow exp(mu * |C| * t) if the last state moved
    p0 = np.array(weights) / sum(weights)
    c = -np.array(losses[: len(p0)])
    # p_g / c_g moves by one affine map common to all groups, so distinct
    # ratios never tie and the state never comes to rest on some c / C
    ratios = np.sort(p0[p0 > 0.0] / c[p0 > 0.0])
    assume(np.all(np.diff(ratios) > 1e-3 * np.abs(ratios[1:])))
    traj = solve_replicator(c, 1.0, p0, IntegratorSpec(dt=1.0, horizon=10000.0))
    assert np.all(np.isfinite(traj.states))
    assert on_simplex(traj.states)
    end = traj.terminal_state
    assert np.count_nonzero(end) == 1 and np.max(end) == 1.0


def test_exact_solution_sample_one_ulp_before_extinction():
    # group 1 empties at t = 1.0397308807795256; its rounded share one ulp
    # earlier would be -7e-18 and must be written as 0
    c = np.array([-0.27460628588430325, 0.5215775691669651, -0.9470309021920553])
    p0 = np.array([0.04596755754020723, 0.21214003137166407, 0.7418924110881288])
    dt = 1.0397308807795254
    traj = solve_replicator(c, 0.17123965217126613, p0, IntegratorSpec(dt=dt, horizon=1.5 * dt))
    assert on_simplex(traj.states)


def test_exact_solution_keeps_the_last_group():
    # a lone losing group never empties, even when its share is a hair below 1
    p0 = np.array([1.0 - 5e-10, 0.0])
    traj = solve_replicator(np.array([-1.0, 1.0]), 1.0, p0, IntegratorSpec(dt=1.0, horizon=100.0))
    assert np.array_equal(traj.states, np.tile(p0, (len(traj), 1)))


def test_exact_solution_with_zero_aggregate_payoff():
    c = np.array([0.2, -0.2, 0.0])
    p0 = np.array([0.3, 0.3, 0.4])
    traj = solve_replicator(c, 0.5, p0, IntegratorSpec(dt=0.1, horizon=6.0))
    # C = 0: shares move linearly, p = p0 + mu * c * t, until group 2 empties at t = 3
    before = traj.times < 3.0 - 1e-9
    assert np.allclose(traj.states[before], p0 + 0.5 * np.outer(traj.times[before], c), atol=1e-15)
    assert np.all(traj.states[~before, 1] == 0.0)
    assert np.allclose(traj.states[30], [0.6, 0.0, 0.4], atol=1e-15)
    # then C = 0.2 > 0 and the payoff-free group 3 decays towards zero
    after = traj.times[~before] - 3.0
    assert np.allclose(traj.states[~before, 2], 0.4 * np.exp(-0.5 * 0.2 * after), atol=1e-15)


def test_exact_solution_records_utilities_in_one_call(default_cfg, default_utilities):
    calls = []

    def counted(p):
        calls.append(np.shape(p))
        return default_utilities(p)

    spec = IntegratorSpec(dt=0.1, horizon=3.0)
    c = np.linspace(0.01, 0.06, default_cfg.n_groups)
    traj = solve_replicator(c, default_cfg.mu, default_cfg.initial_population(), spec, counted)
    assert calls == [(31, default_cfg.n_groups)]
    assert traj.utilities.shape == (31, default_cfg.n_groups) and traj.u_bar.shape == (31,)
    with pytest.raises(ConfigurationError):
        solve_replicator(c[:-1], default_cfg.mu, default_cfg.initial_population(), spec)


# payoffs well away from zero, so that the rate of every moving piece changes
# per sample by far more than rounding moves it
payoffs = st.one_of(st.just(0.0), st.floats(0.01, 1.0), st.floats(-1.0, -0.01))


@settings(max_examples=150, deadline=None)
@given(
    weights=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=1, max_size=7).filter(
        lambda w: max(w) > 0.0
    ),
    c=st.lists(payoffs, min_size=7, max_size=7),
    mu=st.floats(0.05, 1.0),
    dt=st.floats(0.003, 0.1),
    eps=st.sampled_from([1e-6, 1e-4]),
)
def test_equilibrium_index_matches_detect_equilibrium(weights, c, mu, dt, eps):
    # extinctions, C <= 0 (all losing, or the sum of mixed signs), zero
    # payoffs and empty groups all occur among the draws
    p0 = np.array(weights) / sum(weights)
    c = np.array(c[: len(p0)])
    try:
        index = ReplicatorSolution(c, mu, p0).equilibrium_index(dt, eps)
    except ConfigurationError:  # beyond MAX_STEPS samples
        assume(False)
    assume(index <= 100_000)
    # every rate past the last sample must be quiet for detect_equilibrium
    # to find the index, so the tail only needs a margin
    traj = solve_replicator(c, mu, p0, IntegratorSpec(dt=dt, horizon=(index + 64) * dt))
    eq = detect_equilibrium(traj, eps)
    assert eq is not None and eq.index == index


def test_equilibrium_index_is_capped():
    solution = ReplicatorSolution(np.array([0.3, 0.1]), 0.1, np.array([0.5, 0.5]))
    assert solution.equilibrium_index(0.01, 1e-6) > 0
    with pytest.raises(ConfigurationError, match="cap of %d" % MAX_STEPS):
        solution.equilibrium_index(1e-10, 1e-6)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "c, mu",
    [
        ([1.5e-3, -6.3e291], 1e17),  # mu * C overflows at t = 0
        ([1e308, -1e308, 1e308], 1.0),  # C itself overflows once group 2 has emptied
    ],
)
def test_a_rate_beyond_a_float_is_a_numeric_error(c, mu):
    with pytest.raises(NumericError, match="replicator rate mu"):
        ReplicatorSolution(np.array(c), mu, np.full(len(c), 1.0 / len(c)))


@pytest.mark.filterwarnings("error")
def test_an_extinction_time_past_a_float_keeps_the_rest_point():
    # mu * C underflows, so group 3 empties after a time past the largest float: the
    # state does not move, and mu, which only rescales time, leaves the rest point as it is
    c, p0 = np.array([1.0, 0.5, -0.2]), np.array([0.2, 0.3, 0.5])
    frozen = ReplicatorSolution(c, 5e-324, p0)
    assert np.all(frozen.rest >= 0.0)
    assert np.allclose(frozen.rest, ReplicatorSolution(c, 0.1, p0).rest, rtol=0.0, atol=1e-12)
    assert len(frozen.pieces) == 1 and frozen.pieces[0][1] == np.inf
    assert np.array_equal(frozen.at(np.array([0.0, 1e6])), np.tile(p0, (2, 1)))
    # payoffs so small that even the mu-free extinction time overflows
    with pytest.raises(NumericError, match="mu-free time past the largest float"):
        ReplicatorSolution(np.array([2e-320, -1e-320]), 0.1, np.array([0.5, 0.5]))


def test_equilibrium_index_rejects_sample_times_past_a_float():
    solution = ReplicatorSolution(np.array([0.3, 0.1]), 0.1, np.array([0.5, 0.5]))
    with pytest.raises(ConfigurationError, match="past the largest float for dt = 1.7e"):
        solution.equilibrium_index(1.7e308, 1e-6)


@pytest.mark.filterwarnings("error")
def test_a_state_on_the_repelling_rest_point_holds():
    # p = c / C, but p * C rounds so that every slope is a hair below zero: no group may
    # empty, or all three would at once and leave nan shares
    p0 = np.full(3, 1.0 / 3.0)
    solution = ReplicatorSolution(np.full(3, -4.743286880619196e13), 1.0, p0)
    assert len(solution.pieces) == 1 and not solution.pieces[0][4].any()
    assert np.array_equal(solution.rest, p0)
    assert np.array_equal(solution.at(np.array([0.0, 1.0, 1e6])), np.tile(p0, (3, 1)))


@pytest.mark.parametrize(
    "c, p0, rest",
    [
        # group 2 empties; the payoff-free group 4 decays towards zero but stays alive
        ([0.3, -0.1, 0.2, 0.0], [0.25, 0.25, 0.25, 0.25], [0.3 / 0.5, 0.0, 0.2 / 0.5, 0.0]),
        # an empty group keeps its positive payoff out of C
        ([0.3, 0.5, 0.2], [0.5, 0.0, 0.5], [0.6, 0.0, 0.4]),
        # C = 0 then one survivor
        ([0.2, -0.2], [0.5, 0.5], [1.0, 0.0]),
        # every group loses: they empty until one is left, which holds
        ([-0.1, -0.3, -0.2], [0.2, 0.3, 0.5], [0.0, 0.0, 1.0]),
        # no payoff at all: nothing moves
        ([0.0, 0.0], [0.3, 0.7], [0.3, 0.7]),
    ],
)
def test_rest_point_is_c_alive_over_c(c, p0, rest):
    solution = ReplicatorSolution(np.array(c), 0.5, np.array(p0))
    assert np.allclose(solution.rest, rest, rtol=0.0, atol=1e-15)
    t_l, _, q, big_c, slope = solution.pieces[-1]
    if slope.any():
        c_alive = np.where(q > 0.0, c, 0.0)
        assert big_c > 0.0 and np.array_equal(solution.rest, c_alive / c_alive.sum())
    else:
        assert np.array_equal(solution.rest, q)
    late = solution.at(np.array([t_l + 500.0]))[0]
    assert np.max(np.abs(late - solution.rest)) < 1e-12


# --- delayed dynamics one delay window at a time: same samples as integrate_dde


@pytest.fixture(scope="module")
def ten_group_cfg(default_cfg):
    # 2 subsets x 4 power levels at sp.1: numpy's pairwise sums differ from
    # sequential ones from 8 terms on
    sps = list(default_cfg.sps)
    sps[0] = dataclasses.replace(sps[0], irs_modules=2, power_levels_dbm=[10.0, 15.0, 20.0, 30.0])
    return dataclasses.replace(default_cfg, sps=sps)


def scenario_utilities(cfg):
    return make_utilities(numerators(cfg), cfg.n_users)


@pytest.mark.parametrize(
    "scenario, delta, dt, horizon",
    [
        ("reduced_cfg", 30.0, 0.05, 250.0),
        ("reduced_cfg", 130.0, 0.05, 300.0),
        ("reduced_cfg", 2.505, 0.01, 30.0),
        ("reduced_cfg", 0.015, 0.01, 10.0),
        ("reduced_cfg", 0.004, 0.01, 10.0),
        ("default_cfg", 7.3, 0.01, 40.0),
        ("ten_group_cfg", 30.0, 0.05, 200.0),
        ("ten_group_cfg", 2.505, 0.01, 30.0),
    ],
)
def test_solve_delayed_matches_integrate_dde_bit_for_bit(request, scenario, delta, dt, horizon):
    cfg = request.getfixturevalue(scenario)
    utilities = scenario_utilities(cfg)
    spec = IntegratorSpec(dt=dt, horizon=horizon)
    p0 = cfg.initial_population()
    fast = solve_delayed(utilities, cfg.mu, p0, delta, spec)
    ref = integrate_dde(
        lambda t, lookup: delayed_replicator_field(t, lookup, delta, cfg.mu), p0, delta, spec, utilities
    )
    assert np.array_equal(fast.times, ref.times)
    assert np.array_equal(fast.states, ref.states)
    assert np.array_equal(fast.utilities, ref.utilities, equal_nan=True)
    assert np.array_equal(fast.u_bar, ref.u_bar)
    assert fast.total_drift == ref.total_drift
    assert fast.total_absorbed == ref.total_absorbed
    if scenario == "reduced_cfg" and delta >= 30.0:
        assert fast.total_absorbed > 0.0  # the run clamps shares at zero


def test_solve_delayed_rejects_negative_delay(default_cfg, default_utilities):
    with pytest.raises(ConfigurationError):
        solve_delayed(default_utilities, 0.1, default_cfg.initial_population(), -1.0, IntegratorSpec(dt=0.1, horizon=1.0))


def test_delayed_simulate_calls_utilities_once_per_delay_window(reduced_cfg, monkeypatch):
    calls = []

    def counted_make_utilities(*args):
        utilities = make_utilities(*args)

        def counted(p):
            calls.append(np.shape(p))
            return utilities(p)

        return counted

    monkeypatch.setattr("irsgame.experiments.make_utilities", counted_make_utilities)
    cfg = with_scalar_overrides(reduced_cfg, delta=30.0, dt=0.05, horizon=250.0)
    traj = simulate(cfg).trajectory
    n = cfg.integrator.n_steps()
    assert len(traj) == n + 1
    assert len(calls) <= int(np.ceil(n / np.floor(cfg.delta / cfg.integrator.dt))) + 2


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 300), elements=st.floats(-1e30, 1e30)))
def test_numpy_sum_has_the_bits_of_np_add_reduce(x):
    # lengths above 128 reach numpy's recursive split; a numpy release that
    # changes its summation order fails here instead of drifting silently
    assert np.float64(_numpy_sum(x.tolist())).tobytes() == np.add.reduce(x).tobytes()


def leaky_utilities(u, u_bar):
    """Constant utilities whose u_bar is not the population average, so the field does not conserve mass."""

    def utilities(p):
        p = np.asarray(p, dtype=float)
        return UtilityVector(np.broadcast_to(u, p.shape), u_bar if p.ndim == 1 else np.full(len(p), u_bar))

    return utilities


def nan_utilities(p):
    # u = c / p overflows for a subnormal share, as in test_drift_error_on_nan_step
    p = np.asarray(p, dtype=float)
    alive = p > 0.0
    u = np.divide(1.0, p, out=np.full(p.shape, np.nan), where=alive)
    u_bar = np.sum(np.where(alive, p * u, 0.0), axis=-1)
    return UtilityVector(u, float(u_bar) if p.ndim == 1 else u_bar)


@pytest.mark.parametrize(
    "utilities, p0, message",
    [
        (nan_utilities, [1.0, 2.2e-309], "simplex drift nan"),
        (leaky_utilities(np.array([1.0, 0.0]), 0.0), [0.5, 0.5], "simplex drift 5.000e-03 exceeds"),
    ],
)
def test_solve_delayed_guards_match_integrate_dde(utilities, p0, message):
    spec = IntegratorSpec(dt=0.01, horizon=1.0)
    delta = 0.05
    with np.errstate(all="ignore"), pytest.raises(NumericalDriftError, match=message) as fast:
        solve_delayed(utilities, 1.0, np.array(p0), delta, spec)
    with np.errstate(all="ignore"), pytest.raises(NumericalDriftError) as ref:
        integrate_dde(
            lambda t, lookup: delayed_replicator_field(t, lookup, delta, 1.0), np.array(p0), delta, spec, utilities
        )
    assert str(fast.value) == str(ref.value)


@st.composite
def rows_near_the_simplex(draw):
    """A raw step of 1-12 groups whose float sum lies within DRIFT_TOL of 1, negative entries allowed."""
    head = draw(st.lists(st.floats(-2.0, 2.0), max_size=11))
    last = 1.0 + draw(st.floats(-DRIFT_TOL, DRIFT_TOL)) - _numpy_sum(head)
    raw = np.array(head + [last])
    assume(abs(float(raw.sum()) - 1.0) <= DRIFT_TOL)
    return raw


@settings(max_examples=500, deadline=None)
@given(rows_near_the_simplex())
def test_projection_of_any_admitted_step_lies_on_the_simplex(raw):
    # a sum within DRIFT_TOL of 1 has a positive entry, so no step the drift
    # check admits is clamped away entirely
    state, drift, absorbed = _project_step(raw)
    assert np.all(state >= 0.0)
    assert abs(float(state.sum()) - 1.0) <= 1e-12
    assert drift <= DRIFT_TOL and absorbed >= 0.0
    row = _project_row(raw.tolist())
    assert np.array(row[0]).tobytes() == state.tobytes() and row[1:] == (drift, absorbed)
