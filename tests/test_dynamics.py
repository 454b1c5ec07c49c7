"""Integrators: closed-form oracles, order, delay handling, Picard iteration."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from irsgame import (
    ConfigurationError,
    HistoryBuffer,
    IntegratorSpec,
    NumericalDriftError,
    NumericError,
    ReplicatorSolution,
    detect_equilibrium,
    make_utilities,
    run_experiment,
    simulate,
    solve_delayed,
    solve_replicator,
    utility_numerators,
    with_scalar_overrides,
)
from irsgame import dynamics
from irsgame.dynamics import DRIFT_TOL, MAX_STEPS, _advance, delayed_steps
from irsgame.experiments import numerators
from conftest import group_gains
import oracle
from oracle import NonConvergenceError, _sum, integrate_ode, picard_solve, replicator_field


def logistic_utilities(p):
    # constant payoff gap of 1 between two strategies
    return np.array([1.0, 0.0]), float(p[0])


def logistic_field(t, p):
    return replicator_field(t, p, logistic_utilities, mu=1.0)


def logistic_exact(t):
    return 1.0 / (1.0 + np.exp(-t))


def test_integrator_spec_validation():
    IntegratorSpec()
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


def test_a_field_returning_a_list_steps_as_its_array():
    # dt times a list ended in a TypeError
    spec = IntegratorSpec(dt=0.1, horizon=2.0)
    array = integrate_ode(logistic_field, np.array([0.5, 0.5]), spec)
    listed = integrate_ode(lambda t, p: logistic_field(t, p).tolist(), np.array([0.5, 0.5]), spec)
    assert listed.states.tobytes() == array.states.tobytes()


def test_initial_state_validation():
    spec = IntegratorSpec(dt=0.1, horizon=1.0)
    for p0 in ([0.7, 0.7], [0.6, 0.6], [-0.1, 1.1], [[0.5, 0.5]], np.eye(2)):
        with pytest.raises(ConfigurationError):
            integrate_ode(logistic_field, np.array(p0), spec)


def test_drift_error_on_leaky_field():
    # a field that pumps mass in violates the tolerance within one step
    spec = IntegratorSpec(dt=0.1, horizon=1.0)
    with pytest.raises(NumericalDriftError):
        integrate_ode(lambda t, p: np.array([0.01, 0.0]), np.array([0.5, 0.5]), spec)


def test_drift_error_on_nan_step():
    # u = c / p overflows for a subnormal share; the NaN step must raise, not
    # fill every later row with NaN
    c = np.array([1.0, 1.0])

    def utilities(p):
        alive = p > 0.0
        u = np.divide(c, p, out=np.full(len(p), np.nan), where=alive)
        return u, float(np.sum(np.where(alive, p * u, 0.0)))

    spec = IntegratorSpec(dt=0.01, horizon=1.0)
    with np.errstate(all="ignore"), pytest.raises(NumericalDriftError):
        integrate_ode(lambda t, p: replicator_field(t, p, utilities, 1.0), np.array([1.0, 2.2e-309]), spec)


def test_drift_recorded_under_projection():
    # a leak of 1e-7 per step stays below DRIFT_TOL: every step is projected
    # back onto the simplex
    spec = IntegratorSpec(dt=0.1, horizon=1.0)
    traj = integrate_ode(lambda t, p: np.array([1e-6, 0.0]), np.array([0.5, 0.5]), spec)
    assert np.all(np.abs(traj.states.sum(axis=1) - 1.0) <= 1e-15)
    assert traj.states[-1, 0] > 0.5


def test_boundary_clamp_is_absorbing_not_fatal():
    # outflow pushes the small group through zero; the overshoot is clamped
    # and the run continues: the first rk4 step of 0.03 takes it from 0.01 to -0.005
    spec = IntegratorSpec(dt=0.03, horizon=1.0)
    traj = integrate_ode(lambda t, p: np.array([-1.0, 1.0]) * (p[0] > 0.0), np.array([0.01, 0.99]), spec)
    assert traj.states[1, 0] == 0.0
    assert traj.states[-1, 0] == 0.0
    assert abs(float(traj.states[-1].sum()) - 1.0) < 1e-12


@st.composite
def history_lookups(draw):
    """Samples at i * dt, and lookup times on the grid, 1e-12 off it, between samples and before 0."""
    dt = draw(st.sampled_from([0.5, 0.1, 0.01, 1.0 / 3.0]))
    n, g = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    states = np.array(draw(st.lists(st.lists(st.floats(-1.0, 1.0), min_size=g, max_size=g), min_size=n, max_size=n)))
    k = st.integers(0, n - 1)
    kinds = [
        k.map(lambda i: i * dt),  # on the grid
        st.tuples(k, st.sampled_from([-1e-12, 1e-12])).map(lambda x: x[0] * dt + x[1]),
        st.floats(-1e3, 0.0),
    ]
    if n > 1:  # between two samples
        fraction = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
        kinds.append(st.tuples(st.integers(0, n - 2), fraction).map(lambda x: (x[0] + x[1]) * dt))
    times = draw(st.lists(st.one_of(kinds), min_size=1, max_size=12))
    past = (n - 1 + draw(st.floats(1e-6, 100.0))) * dt
    return dt, states, times, past


@settings(max_examples=300, deadline=None)
@given(history_lookups())
def test_history_buffer_lookup(lookups):
    a, b, c = np.array([1.0, 0.0]), np.array([0.5, 0.5]), np.array([0.0, 1.0])
    hist = HistoryBuffer(dt=0.5, states=np.array([a, b, c]))
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
    # an array of times reads each one as the scalar rule does, bit for bit: only the times
    # between two samples interpolate, and no bundled delay grid has one
    dt, states, times, past = lookups
    hist, kept = HistoryBuffer(dt, states), states.copy()
    expected = np.array([oracle.history(states, dt, t) for t in times])
    stacked, rows = hist.lookup(np.array(times)), [hist.lookup(t) for t in times]
    assert stacked.tobytes() == expected.tobytes()
    assert b"".join(row.tobytes() for row in rows) == expected.tobytes()
    # a lookup returns states of its own, for a 0-d time too: writing them leaves the history
    for looked_up in [stacked] + rows:
        looked_up[...] = np.nan
    assert states.tobytes() == kept.tobytes()
    with pytest.raises(ConfigurationError, match="beyond the newest sample"):
        oracle.history(states, dt, past)
    with pytest.raises(ConfigurationError, match="beyond the newest sample"):
        hist.lookup(np.array(times + [past]))


def test_a_lookup_at_a_sample_time_reads_that_sample_up_to_the_step_cap():
    # (i * dt) / dt can be 1 ulp off i, more than 1e-9 steps past 2**21 steps: this lookup read
    # between samples 12582912 and 12582913, past the newest
    ones = np.broadcast_to(np.ones(1), (12582913, 1))
    assert HistoryBuffer(0.1, ones).lookup(12582912 * 0.1).tolist() == [1.0]
    assert oracle.history(ones, 0.1, 12582912 * 0.1).tolist() == [1.0]
    powers = 2.0 ** np.arange(27)  # MAX_STEPS = 10**8 is below 2**27
    i = np.unique(np.concatenate([np.linspace(0, MAX_STEPS, 100001).round(), powers, powers - 1]))
    for dt in (0.1, 0.01, 0.05, 1.0 / 3.0, 7e-5, 12.345):
        lo, hi, frac = dynamics._samples(i * dt, dt)
        assert np.array_equal(lo, i) and np.array_equal(hi, i) and not frac.any(), dt


def test_dde_small_delay_reaches_known_equilibrium(reduced_cfg, reduced_links):
    numer = utility_numerators(reduced_links, reduced_cfg)
    gains = group_gains(reduced_cfg, reduced_links)
    p_star = gains / gains.sum()
    spec = IntegratorSpec(dt=0.01, horizon=300.0)
    traj = solve_delayed(numer, reduced_cfg.n_users, reduced_cfg.mu, reduced_cfg.initial_population(), 5.0, spec)
    assert np.max(np.abs(traj.states[-1] - p_star)) < 1e-6


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
    # a horizon too long for a contraction exhausts PICARD_ROUNDS
    times = np.linspace(0.0, 30.0, 31)
    with pytest.raises(NonConvergenceError, match="did not reach tol=1.0e-10 in 200 rounds"):
        picard_solve(logistic_field, np.array([0.5, 0.5]), times)


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
        return u, float(np.sum(c[alive]))

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
    exact = solve_replicator(c, 1, mu, p0, spec)
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
    assert np.all(exact.states[:, p0 > 0.0] > 0.0)  # no group empties


def test_exact_solution_with_unprofitable_groups(default_cfg):
    sps = list(default_cfg.sps)
    sps[0] = dataclasses.replace(sps[0], price_power=100.0)
    cfg = with_scalar_overrides(dataclasses.replace(default_cfg, sps=sps), horizon=20.0)
    res = simulate(cfg)
    traj = res.trajectory
    c = numerators(cfg) / cfg.n_users
    assert np.count_nonzero(c < 0.0) == 2
    assert on_simplex(traj.states)
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
    assert np.any(rk4.states == 0.0)  # rk4 steps through zero, and the share is clamped
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
    traj = solve_replicator(c, 1, 1.0, p0, IntegratorSpec(dt=1.0, horizon=10000.0))
    assert np.all(np.isfinite(traj.states))
    assert on_simplex(traj.states)
    end = traj.states[-1]
    assert np.count_nonzero(end) == 1 and np.max(end) == 1.0


def test_exact_solution_sample_one_ulp_before_extinction():
    # group 1 empties at t = 1.0397308807795256; its rounded share one ulp
    # earlier would be -7e-18 and must be written as 0
    c = np.array([-0.27460628588430325, 0.5215775691669651, -0.9470309021920553])
    p0 = np.array([0.04596755754020723, 0.21214003137166407, 0.7418924110881288])
    dt = 1.0397308807795254
    traj = solve_replicator(c, 1, 0.17123965217126613, p0, IntegratorSpec(dt=dt, horizon=1.5 * dt))
    assert on_simplex(traj.states)


def test_exact_solution_keeps_the_last_group():
    # a lone losing group never empties, even when its share is a hair below 1
    p0 = np.array([1.0 - 5e-10, 0.0])
    traj = solve_replicator(np.array([-1.0, 1.0]), 1, 1.0, p0, IntegratorSpec(dt=1.0, horizon=100.0))
    assert np.array_equal(traj.states, np.tile(p0, (len(traj), 1)))


def test_exact_solution_with_zero_aggregate_payoff():
    c = np.array([0.2, -0.2, 0.0])
    p0 = np.array([0.3, 0.3, 0.4])
    traj = solve_replicator(c, 1, 0.5, p0, IntegratorSpec(dt=0.1, horizon=6.0))
    # C = 0: shares move linearly, p = p0 + mu * c * t, until group 2 empties at t = 3
    before = traj.times < 3.0 - 1e-9
    assert np.allclose(traj.states[before], p0 + 0.5 * np.outer(traj.times[before], c), atol=1e-15)
    assert np.all(traj.states[~before, 1] == 0.0)
    assert np.allclose(traj.states[30], [0.6, 0.0, 0.4], atol=1e-15)
    # then C = 0.2 > 0 and the payoff-free group 3 decays towards zero
    after = traj.times[~before] - 3.0
    assert np.allclose(traj.states[~before, 2], 0.4 * np.exp(-0.5 * 0.2 * after), atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(
    weights=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=1, max_size=7).filter(
        lambda w: max(w) > 0.0
    ),
    # zero, or far enough from it that every utility is a normal float: a subnormal loses relative bits
    numer=st.lists(st.one_of(st.just(0.0), st.floats(1e-290, 1e3), st.floats(-1e3, -1e-290)), min_size=7, max_size=7),
    n_users=st.integers(1, 10**6),
    mu=st.floats(0.05, 1.0),
)
def test_every_exact_sample_splits_each_payoff_over_its_users(weights, numer, n_users, mu):
    # through the trajectory's own map, p_g * u_g * n_users is numer_g in every non-empty group,
    # whatever the shares: the pair fixes both the dynamics and the utilities that are written
    p0 = np.array(weights) / sum(weights)
    numer = np.array(numer[: len(p0)])
    traj = solve_replicator(numer, n_users, mu, p0, IntegratorSpec(dt=0.1, horizon=20.0))
    alive = traj.states > 0.0
    earned = traj.states * traj.utilities(traj.states)[0] * n_users
    assert np.allclose(earned[alive], np.broadcast_to(numer, alive.shape)[alive], rtol=1e-13, atol=0.0)


def test_exact_solution_keeps_its_map_and_a_file_calls_it_once(default_cfg, default_utilities, tmp_path, monkeypatch):
    calls = []

    def counted(p):
        calls.append(np.shape(p))
        return default_utilities(p)

    made = []
    monkeypatch.setattr("irsgame.dynamics.make_utilities", lambda *args: made.append(args) or counted)
    spec = IntegratorSpec(dt=0.1, horizon=3.0)
    numer, n = np.linspace(0.01, 0.06, default_cfg.n_groups), default_cfg.n_users
    traj = solve_replicator(numer, n, default_cfg.mu, default_cfg.initial_population(), spec)
    assert calls == [] and traj.utilities is counted
    assert len(made) == 1 and made[0][0] is numer and made[0][1] == n  # the map of the pair it was given
    with pytest.raises(ConfigurationError):
        solve_replicator(numer[:-1], n, default_cfg.mu, default_cfg.initial_population(), spec)
    # a trajectory file applies the map once, to the stack of its written rows: 31 samples keep 4.
    # An undelayed utilities-vs-time run makes the scenario's map itself, beside the exact solution
    monkeypatch.setattr("irsgame.experiments.make_utilities", lambda *args: made.append(args) or counted)
    cfg = with_scalar_overrides(default_cfg, dt=0.1, horizon=3.0)
    (path,) = run_experiment("utilities-vs-time", cfg, tmp_path)
    assert calls == [(4, default_cfg.n_groups)]
    assert len(path.read_text().splitlines()) == 4 + 1 + len(cfg.flat_items()) + 1


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
    horizon=st.floats(0.5, 600.0),
    scale=st.sampled_from([1.0, 1e-2]),
)
def test_equilibrium_index_matches_detect_equilibrium(weights, c, mu, dt, horizon, scale):
    # extinctions, C <= 0 (all losing, or the sum of mixed signs), zero
    # payoffs and empty groups all occur among the draws.  The run of scale * c
    # sampled at step dt / scale is the run of c sampled at step dt, every rate
    # times scale: scale = 1e-2 checks the rates of c against 100 * EPS_FIELD
    p0 = np.array(weights) / sum(weights)
    c = scale * np.array(c[: len(p0)])
    dt = dt / scale
    # on a grid of the drawn horizon, the index of its own samples, None when its last step moves
    spec = IntegratorSpec(dt=dt, horizon=horizon / scale)
    n = spec.n_steps()
    want = oracle.detect_equilibrium(solve_replicator(c, 1, mu, p0, spec))
    assert ReplicatorSolution(c, 1, mu, p0).equilibrium_index(dt, n) == want
    try:
        index = ReplicatorSolution(c, 1, mu, p0).equilibrium_index(dt)
    except ConfigurationError:  # beyond MAX_STEPS samples
        assume(False)
    assume(index <= 100_000)
    # every rate past the last sample must be quiet for detect_equilibrium
    # to find the index, so the tail only needs a margin
    traj = solve_replicator(c, 1, mu, p0, IntegratorSpec(dt=dt, horizon=(index + 64) * dt))
    assert detect_equilibrium(traj) == index


@pytest.mark.parametrize(
    "c, w, mu, dt, n, want",
    [
        # from a fixed-seed search over random draws: a grid that stays quiet throughout while
        # the run moves after its end, its rest at sample 33700; its first moving step is 12242,
        # the step just past the end of a grid of 12242 steps
        ([-0.00095, -0.00032], [0.7480414960629921, 0.2518745039370079], 0.56, 0.34, 233, 0),
        ([-0.00095, -0.00032], [0.7480414960629921, 0.2518745039370079], 0.56, 0.34, 12242, 0),
        # a rest at sample 140, after the grid's end; then last moving steps at n - 1 and n - 2
        ([0.24, 0.06, -0.41], [0.24, 0.14, 0.6], 0.33, 0.68, 30, None),
        ([0.24, 0.06, -0.41], [0.24, 0.14, 0.6], 0.33, 0.68, 140, None),
        ([0.24, 0.06, -0.41], [0.24, 0.14, 0.6], 0.33, 0.68, 141, 140),
    ],
)
def test_equilibrium_index_on_a_grid_of_n_steps(c, w, mu, dt, n, want):
    p0 = np.array(w) / sum(w)
    solution = ReplicatorSolution(np.array(c), 1, mu, p0)
    traj = solve_replicator(np.array(c), 1, mu, p0, IntegratorSpec(dt=dt, horizon=n * dt))
    assert len(traj) == n + 1
    assert solution.equilibrium_index(dt, n) == oracle.detect_equilibrium(traj) == want
    assert solution.equilibrium_index(dt) == (33700 if want == 0 else 140)


def test_equilibrium_index_is_capped():
    solution = ReplicatorSolution(np.array([0.3, 0.1]), 1, 0.1, np.array([0.5, 0.5]))
    assert solution.equilibrium_index(0.01) > 0
    with pytest.raises(ConfigurationError, match="cap of %d" % MAX_STEPS):
        solution.equilibrium_index(1e-10)


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
        ReplicatorSolution(np.array(c), 1, mu, np.full(len(c), 1.0 / len(c)))


@pytest.mark.filterwarnings("error")
def test_an_extinction_time_past_a_float_keeps_the_rest_point():
    # mu * C underflows, so group 3 empties after a time past the largest float: the
    # state does not move, and mu, which only rescales time, leaves the rest point as it is
    c, p0 = np.array([1.0, 0.5, -0.2]), np.array([0.2, 0.3, 0.5])
    frozen = ReplicatorSolution(c, 1, 5e-324, p0)
    assert np.all(frozen.rest >= 0.0)
    assert np.allclose(frozen.rest, ReplicatorSolution(c, 1, 0.1, p0).rest, rtol=0.0, atol=1e-12)
    assert len(frozen.pieces) == 1 and frozen.pieces[0][1] == np.inf
    assert np.array_equal(frozen.at(np.array([0.0, 1e6])), np.tile(p0, (2, 1)))
    # payoffs so small that even the mu-free extinction time overflows
    with pytest.raises(NumericError, match="mu-free time past the largest float"):
        ReplicatorSolution(np.array([2e-320, -1e-320]), 1, 0.1, np.array([0.5, 0.5]))


def test_equilibrium_index_rejects_sample_times_past_a_float():
    solution = ReplicatorSolution(np.array([0.3, 0.1]), 1, 0.1, np.array([0.5, 0.5]))
    with pytest.raises(ConfigurationError, match="past the largest float for dt = 1.7e"):
        solution.equilibrium_index(1.7e308)


@pytest.mark.filterwarnings("error")
def test_equilibrium_index_where_c_dt_underflows():
    # C * dt underflows to 0: the rate bound k0 takes its limit mu * max|slope|, far below EPS_FIELD
    assert ReplicatorSolution(np.array([1e-300, 2e-300]), 1, 0.1, np.array([0.5, 0.5])).equilibrium_index(1e-30) == 0


@pytest.mark.filterwarnings("error")
def test_a_state_on_the_repelling_rest_point_holds():
    # p = c / C, but p * C rounds so that every slope is a hair below zero: no group may
    # empty, or all three would at once and leave nan shares
    p0 = np.full(3, 1.0 / 3.0)
    solution = ReplicatorSolution(np.full(3, -4.743286880619196e13), 1, 1.0, p0)
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
    solution = ReplicatorSolution(np.array(c), 1, 0.5, np.array(p0))
    assert np.allclose(solution.rest, rest, rtol=0.0, atol=1e-15)
    t_l, _, q, big_c, slope = solution.pieces[-1]
    if slope.any():
        c_alive = np.where(q > 0.0, c, 0.0)
        assert big_c > 0.0 and np.array_equal(solution.rest, c_alive / c_alive.sum())
    else:
        assert np.array_equal(solution.rest, q)
    late = solution.at(np.array([t_l + 500.0]))[0]
    assert np.max(np.abs(late - solution.rest)) < 1e-12


# --- delayed dynamics one delay window at a time: same samples as the step-by-step oracle


@pytest.fixture(scope="module")
def ten_group_cfg(default_cfg):
    # 2 subsets x 4 power levels at sp.1: 10 groups, more than the 8 from
    # which np.sum no longer adds left to right as the projection does
    sps = list(default_cfg.sps)
    sps[0] = dataclasses.replace(sps[0], irs_modules=2, power_levels_dbm=[10.0, 15.0, 20.0, 30.0])
    return dataclasses.replace(default_cfg, sps=sps)


@pytest.fixture(scope="module")
def three_group_cfg(reduced_cfg):
    # two power levels at sp.1: three groups, and long stretches that _advance takes in blocks
    sps = list(reduced_cfg.sps)
    sps[0] = dataclasses.replace(sps[0], power_levels_dbm=[20.0, 30.0])
    return dataclasses.replace(reduced_cfg, sps=sps)


@pytest.fixture
def block_rows(monkeypatch):
    """The first step and the rows of each block that dynamics._advance takes, in order."""
    taken, blocks = [], dynamics._blocks

    def spied(rows, steps, i, *args):
        end = blocks(rows, steps, i, *args)
        taken.append((i, end - i))
        return end

    monkeypatch.setattr(dynamics, "_blocks", spied)
    return taken


# fewest rows that _advance's blocks must take on a case (measured: 2706 of 12 000 steps)
BLOCK_ROWS = {"three_group_cfg": 2000}


def payoff_pair(cfg):
    return numerators(cfg), cfg.n_users


def clamp_facts(traj, steps):
    """The clamped steps and the absorbed mass of a delayed run, from the sums _advance projected."""
    raw = traj.states[:-1] + steps
    return int(np.count_nonzero(np.any(raw < 0.0, axis=1))), float(-np.sum(np.where(raw < 0.0, raw, 0.0)))


@pytest.mark.parametrize(
    "scenario, delta, dt, horizon",
    [
        ("default_cfg", 0.0, 0.01, 20.0),  # forward Euler of the undelayed field, one step at a time
        ("reduced_cfg", 30.0, 0.05, 250.0),
        ("reduced_cfg", 130.0, 0.05, 300.0),
        ("reduced_cfg", 2.505, 0.01, 30.0),
        ("reduced_cfg", 0.015, 0.01, 10.0),
        ("reduced_cfg", 0.004, 0.01, 10.0),
        ("default_cfg", 7.3, 0.01, 40.0),
        ("ten_group_cfg", 30.0, 0.05, 200.0),
        ("ten_group_cfg", 2.505, 0.01, 30.0),
        ("three_group_cfg", 130.0, 0.05, 600.0),
    ],
)
def test_solve_delayed_matches_oracle_bit_for_bit(request, scenario, delta, dt, horizon, block_rows):
    cfg = request.getfixturevalue(scenario)
    pair = payoff_pair(cfg)
    spec = IntegratorSpec(dt=dt, horizon=horizon)
    p0 = cfg.initial_population()
    fast = solve_delayed(*pair, cfg.mu, p0, delta, spec)
    assert sum(k for _, k in block_rows) >= BLOCK_ROWS.get(scenario, 0)
    # one field, one scalar history lookup and one projection per step
    ref, _, absorbed, clamped = oracle.delayed_euler(make_utilities(*pair), cfg.mu, p0, delta, spec)
    assert np.array_equal(fast.times, ref.times)
    assert np.array_equal(fast.states, ref.states)
    assert fast.states.tobytes() == ref.states.tobytes()
    # the run keeps the pair's map: on the stored states, stacked, it has the bits of one call per state
    (u, u_bar), rows = fast.utilities(fast.states), [ref.utilities(s) for s in ref.states]
    assert np.array_equal(u, np.array([r[0] for r in rows]), equal_nan=True)
    assert np.array_equal(u_bar, np.array([r[1] for r in rows]))
    # the facts recomputed from the stored states are the ones the oracle counts step by step
    facts = clamp_facts(fast, delayed_steps(fast, *pair, cfg.mu, delta))
    assert facts[0] == clamped
    assert abs(facts[1] - absorbed) <= 1e-12
    if scenario == "reduced_cfg" and delta >= 30.0:
        assert clamped > 0  # the run clamps shares at zero


def time_unit_runs(cfg, k: float, dt_ulps: int = 0):
    """solve_delayed's states of cfg at each grid delay that it runs (delta > 0), in the time unit 1 / k:
    mu / k, delta * k, dt * k (dt_ulps ulps up) and horizon * k."""
    spec, dt = cfg.integrator, cfg.integrator.dt * k
    for _ in range(dt_ulps):
        dt = math.nextafter(dt, math.inf)
    scaled = IntegratorSpec(dt=dt, horizon=spec.horizon * k)
    pair, p0 = payoff_pair(cfg), cfg.initial_population()
    return [solve_delayed(*pair, cfg.mu / k, p0, delta * k, scaled).states for delta in cfg.grids.delta if delta > 0]


@pytest.mark.parametrize("scenario", ["default_cfg", "reduced_cfg"])
def test_delayed_states_do_not_depend_on_the_time_unit(request, scenario):
    # a power of two k scales every product and quotient of a step and of its history read exactly,
    # so (mu / k, delta * k, dt * k, horizon * k) steps through the same bits (a metamorphic relation)
    cfg = request.getfixturevalue(scenario)
    runs = time_unit_runs(cfg, 1.0)
    assert len(runs) == 3
    for k in (2.0, 1024.0):
        assert [states.tobytes() for states in time_unit_runs(cfg, k)] == [states.tobytes() for states in runs]


def test_the_time_unit_relation_catches_one_ulp_of_dt(reduced_cfg):
    runs, nudged = time_unit_runs(reduced_cfg, 1.0), time_unit_runs(reduced_cfg, 2.0, dt_ulps=1)
    assert [states.shape for states in nudged] == [states.shape for states in runs]
    assert all(a.tobytes() != b.tobytes() for a, b in zip(nudged, runs))


@pytest.mark.parametrize("scenario", ["default_cfg", "reduced_cfg"])
@pytest.mark.parametrize("delta", [30.0, 60.0, 130.0])
def test_first_delay_window_is_the_exact_delay_solution(request, scenario, delta):
    # on [0, delta] every step reads the constant pre-history p0, so the delay equation's
    # solution is p0 + t * F with F the field at p0, until a share reaches zero
    cfg = request.getfixturevalue(scenario)
    pair = payoff_pair(cfg)
    p0 = cfg.initial_population()
    dt = cfg.integrator.dt
    traj = solve_delayed(*pair, cfg.mu, p0, delta, IntegratorSpec(dt=dt, horizon=delta))
    exact = p0 + traj.times[:, None] * replicator_field(0.0, p0, make_utilities(*pair), cfg.mu)
    alive = np.all(exact > 0.0, axis=1)
    first = len(alive) if alive.all() else int(np.argmin(alive))  # rows before the first clamp
    assert first > 1
    assert np.max(np.abs(traj.states[:first] - exact[:first])) <= 1e-12


def test_a_run_that_never_clamps_converges_to_the_exact_delay_solution(default_cfg):
    # default.cfg at delta = 30 (below its bound, 46.8) keeps every share positive, so the
    # delay equation has the exact method-of-steps solution; forward Euler is first order
    numer = numerators(default_cfg)
    p0 = default_cfg.initial_population()
    gaps = []
    for dt in (0.01, 0.005):
        traj = solve_delayed(numer, default_cfg.n_users, default_cfg.mu, p0, 30.0, IntegratorSpec(dt=dt, horizon=600.0))
        assert np.all(traj.states > 0.0)
        every = round(5.0 / dt)  # t = 0, 5, ..., 600
        exact = oracle.delay_exact(numer / default_cfg.n_users, default_cfg.mu, p0, 30.0, traj.times[::every])
        gaps.append(np.max(np.abs(traj.states[::every] - exact)))
    assert gaps[0] < 3e-5  # measured 2.03e-5
    assert gaps[0] / gaps[1] == pytest.approx(2.0, abs=0.05)


@pytest.mark.parametrize(
    "scenario, delta, first_clamp",
    [
        ("reduced_cfg", 30.0, 200.0),
        ("reduced_cfg", 60.0, 130.0),
        ("reduced_cfg", 130.0, 70.0),
        ("default_cfg", 60.0, 60.0),
        ("default_cfg", 130.0, 60.0),
    ],
)
def test_every_bundled_delayed_run_is_first_order_before_its_first_clamp(request, scenario, delta, first_clamp):
    # step-halving gaps at dt = 0.01, 0.005 and 0.0025, every 5 time units up to the first zero share
    cfg = request.getfixturevalue(scenario)
    pair = payoff_pair(cfg)
    p0 = cfg.initial_population()
    samples = []
    for dt in (0.01, 0.005, 0.0025):
        traj = solve_delayed(*pair, cfg.mu, p0, delta, IntegratorSpec(dt=dt, horizon=first_clamp))
        assert np.all(traj.states > 0.0)  # no share reaches zero by first_clamp
        samples.append(traj.states[:: round(5.0 / dt)])
    gaps = [np.max(np.abs(a - b)) for a, b in zip(samples, samples[1:])]
    if first_clamp > delta:  # measured 2.000 on both runs
        assert 1.9 <= gaps[0] / gaps[1] <= 2.1
    else:  # in the first delay window every step reads the constant pre-history, so Euler is exact
        assert max(gaps) <= 1e-12  # measured at most 3.2e-13


@pytest.mark.parametrize(
    "scenario, delta, first_zero, gap_bound",
    [  # gap_bound is twice the largest gap measured on the config: 1.9e-3 on reduced, 1.3e-4 on default
        ("reduced_cfg", 30.0, 201.8, 3.8e-3),  # measured gap 1.61e-3
        ("reduced_cfg", 60.0, 135.43, 3.8e-3),  # 1.92e-3
        ("reduced_cfg", 130.0, 72.95, 3.8e-3),  # 2.86e-4
        ("default_cfg", 60.0, 61.29, 2.6e-4),  # 1.26e-4
        ("default_cfg", 130.0, 61.26, 2.6e-4),  # 1.10e-4
    ],
)
def test_every_clamping_bundled_delayed_run_keeps_its_step_halving_gap_past_the_first_clamp(
    request, scenario, delta, first_zero, gap_bound
):
    # from the first zero share to t = 600, the bundled run (dt = 0.01) against the same run at
    # dt / 2, every sample: the gap is bounded, but no order is asserted past a clamp, since the
    # ratio of successive gaps (against dt / 4) measured 1.31 to 3.36 over these runs
    cfg = request.getfixturevalue(scenario)
    assert delta in cfg.grids.delta
    pair = payoff_pair(cfg)
    p0 = cfg.initial_population()
    dt, horizon = cfg.integrator.dt, cfg.integrator.horizon
    runs = [solve_delayed(*pair, cfg.mu, p0, delta, IntegratorSpec(dt=d, horizon=horizon)) for d in (dt, dt / 2)]
    first = int(np.flatnonzero(np.any(runs[0].states == 0.0, axis=1))[0])
    assert runs[0].times[first] == pytest.approx(first_zero, abs=0.01)
    gap = np.max(np.abs(runs[0].states[first:] - runs[1].states[2 * first :: 2]))
    assert 0.0 < gap < gap_bound


@pytest.mark.parametrize(
    "scenario, delta, clamped",
    [
        ("reduced_cfg", 30.0, 6219),
        ("reduced_cfg", 60.0, 13712),
        ("reduced_cfg", 130.0, 18945),
        ("default_cfg", 30.0, 0),
        ("default_cfg", 60.0, 13757),
        ("default_cfg", 130.0, 27098),
    ],
)
def test_every_bundled_delayed_run_replays_from_its_recomputed_steps(request, scenario, delta, clamped):
    # delay-sweep's delayed points: the steps recomputed from the stored states, fed to _advance,
    # take the run again bit for bit, so the facts read from them are the run's own
    cfg = request.getfixturevalue(scenario)
    assert delta in cfg.grids.delta
    pair = payoff_pair(cfg)
    traj = solve_delayed(*pair, cfg.mu, cfg.initial_population(), delta, cfg.integrator)
    steps = delayed_steps(traj, *pair, cfg.mu, delta)
    assert steps.shape == (len(traj) - 1, cfg.n_groups)
    rows = np.empty_like(traj.states)
    rows[0] = traj.states[0]
    _advance(rows, steps)
    assert rows.tobytes() == traj.states.tobytes()
    assert clamp_facts(traj, steps)[0] == clamped


def test_solve_delayed_rejects_negative_delay(default_cfg, default_links):
    pair = utility_numerators(default_links, default_cfg), default_cfg.n_users
    with pytest.raises(ConfigurationError):
        solve_delayed(*pair, 0.1, default_cfg.initial_population(), -1.0, IntegratorSpec(dt=0.1, horizon=1.0))


@pytest.mark.parametrize("delta", [np.nan, np.inf])
def test_solve_delayed_rejects_a_non_finite_delay(reduced_cfg, delta):
    spec = IntegratorSpec(dt=0.1, horizon=2.0)
    with pytest.raises(ConfigurationError, match="delay must be non-negative and finite"):
        solve_delayed(*payoff_pair(reduced_cfg), reduced_cfg.mu, reduced_cfg.initial_population(), delta, spec)


def test_delayed_simulate_calls_utilities_once_per_delay_window(reduced_cfg, monkeypatch):
    samples = dynamics._samples

    def no_buffer(*args, **kwargs):
        raise AssertionError("solve_delayed built a HistoryBuffer")

    monkeypatch.setattr(dynamics, "HistoryBuffer", no_buffer)  # the windows are read by the rule itself
    for delta in (30.0, 30.02):  # a delay on the grid of dt = 0.05, and one between two samples
        calls, made, sampled = [], [], []

        def counted_make_utilities(*args):
            utilities = make_utilities(*args)

            def counted(p):
                calls.append(np.shape(p))
                return utilities(p)

            made.append(counted)
            return counted

        def counted_samples(t, dt):
            sampled.append(np.shape(t))
            return samples(t, dt)

        monkeypatch.setattr("irsgame.dynamics.make_utilities", counted_make_utilities)
        monkeypatch.setattr(dynamics, "_samples", counted_samples)
        cfg = with_scalar_overrides(reduced_cfg, delta=delta, dt=0.05, horizon=250.0)
        traj = simulate(cfg).trajectory
        n = cfg.integrator.n_steps()
        assert len(traj) == n + 1
        assert made == [traj.utilities]  # the run makes the pair's map once and keeps it
        assert len(calls) <= int(np.ceil(n / np.floor(cfg.delta / cfg.integrator.dt))) + 2
        assert len(sampled) == len(calls)  # each window's times are sampled once
        p0, spec = cfg.initial_population(), cfg.integrator
        ref = oracle.delayed_euler(make_utilities(*payoff_pair(cfg)), cfg.mu, p0, delta, spec)[0]
        assert traj.states.tobytes() == ref.states.tobytes(), delta


def traced_peak(fn):
    """fn's result, and the most bytes that tracemalloc saw it hold above what was held before the call."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def test_a_delayed_run_and_its_rest_test_hold_little_beside_the_states(reduced_cfg):
    # reduced.cfg's delta = 30 point: solve_delayed builds each delay window's read times, not the
    # whole grid's, and detect_equilibrium reads one block of steps, since the run's last step
    # moves; a first short run compiles _advance's kernel, which would count
    cfg = dataclasses.replace(reduced_cfg, delta=30.0)
    args = (*payoff_pair(cfg), cfg.mu, cfg.initial_population(), cfg.delta)
    solve_delayed(*args, with_scalar_overrides(cfg, horizon=1.0).integrator)
    traj, run_peak = traced_peak(lambda: solve_delayed(*args, cfg.integrator))
    index, scan_peak = traced_peak(lambda: detect_equilibrium(traj, min_quiet=cfg.delta))
    assert index is None
    above = run_peak - traj.states.nbytes
    assert above < 512 * 2**10, "%.0f KiB above the states" % (above / 2**10)
    assert scan_peak < 512 * 2**10, "peak %.0f KiB" % (scan_peak / 2**10)


def test_solve_delayed_guards_match_oracle():
    # payoffs of opposite sign near the largest float: the first step's sum is 1 + 1, far off the simplex
    pair, p0 = ([8e307, -8e307], 1), [0.5, 0.5]
    spec = IntegratorSpec(dt=0.01, horizon=1.0)
    delta = 0.05
    message = "simplex drift 1.000e+00 exceeds 1.0e-06 in one step; reduce dt"
    with np.errstate(all="ignore"), pytest.raises(NumericalDriftError) as fast:
        solve_delayed(*pair, 1.0, p0, delta, spec)
    with np.errstate(all="ignore"), pytest.raises(NumericalDriftError) as ref:
        oracle.delayed_euler(make_utilities(*pair), 1.0, p0, delta, spec)
    assert str(fast.value) == str(ref.value) == message


@st.composite
def rows_near_the_simplex(draw):
    """A raw step of 1-12 groups whose float sum lies within DRIFT_TOL of 1, negative entries allowed."""
    head = draw(st.lists(st.floats(-2.0, 2.0), max_size=11))
    last = 1.0 + draw(st.floats(-DRIFT_TOL, DRIFT_TOL)) - _sum(head)
    raw = np.array(head + [last])
    assume(abs(_sum(raw.tolist()) - 1.0) <= DRIFT_TOL)
    return raw


@settings(max_examples=500, deadline=None)
@given(rows_near_the_simplex())
def test_projection_of_any_admitted_step_lies_on_the_simplex(raw):
    # a sum within DRIFT_TOL of 1 has a positive entry, so no step the drift
    # check admits is clamped away entirely
    rows = np.zeros((2, len(raw)))
    _advance(rows, raw[None])
    state = rows[1]
    assert np.all(state >= 0.0)
    assert abs(float(state.sum()) - 1.0) <= 1e-12
    clamped = np.maximum(raw, 0.0)
    assert np.allclose(state, clamped / clamped.sum(), rtol=0.0, atol=1e-12)


# rows that sum to 0 exactly or nearly, with the values that take _advance's other branches
NEAR_ZERO = [0.0, -0.0, 1e-9, -1e-9, 2e-6, -2e-6, np.nan, np.inf]
entries = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 0.25, -0.25, 1e-300, np.nan]), st.floats(-1.0, 1.0))


@st.composite
def projected_runs(draw):
    """A state of 1-6 groups and 0-8 steps, most of them summing to 0 exactly or within DRIFT_TOL."""
    g = draw(st.integers(1, 6))
    share = st.sampled_from([0.0, -0.0, 0.125, 0.25, 0.5]) | st.floats(0.0, 1.0)
    head = draw(st.lists(share, min_size=g - 1, max_size=g - 1))
    p = head + [1.0 - _sum(head)]
    steps = []
    for _ in range(draw(st.integers(0, 8))):
        row = draw(st.lists(entries, min_size=g - 1, max_size=g - 1))
        steps.append(row + [draw(st.sampled_from(NEAR_ZERO)) - _sum(row)] if draw(st.booleans()) else row + [0.0])
    return p, steps


def _projected(p, steps):
    """_advance's states as bytes (telling -0.0 from 0.0), or its error message."""
    rows = np.empty((len(steps) + 1, len(p)))
    rows[0] = p
    try:
        _advance(rows, np.reshape(steps, (-1, len(p))))
    except NumericalDriftError as exc:
        return str(exc)
    return rows[1:].tobytes()


def _oracle_projected(p, steps):
    """The same of oracle.advance, one projection per step."""
    try:
        flat = oracle.advance(p, steps, 0.0, 0.0, 0)[0]
    except NumericalDriftError as exc:
        return str(exc)
    return np.array(flat).tobytes()


@settings(max_examples=500, deadline=None)
@given(projected_runs())
@example(([0.5, 0.5], [[0.25, -0.25], [-0.5, 0.5]]))  # totals of exactly 1.0
@example(([0.5, 0.5], [[-0.75, 0.75], [0.125, -0.125]]))  # a negative entry clamped
@example(([-0.0, 1.0], [[-0.0, 0.0], [0.5, -0.5]]))  # -0.0 kept
@example(([0.5, 0.5], [[1e-9, 0.0], [np.nan, 0.0]]))  # NaN after an inexact total
@example(([0.5, 0.5], [[0.0, 0.0], [2e-6, 0.0]]))  # a sum past DRIFT_TOL
@example(([0.5, 0.5], [[0.6, 1e-9 - 0.6]]))  # clamped and inexact
def test_advance_has_the_bits_of_one_projection_per_step(run):
    assert _projected(*run) == _oracle_projected(*run)


# --- long runs, which _advance takes partly in blocks of verified rows


def _dyadic_state(rng, g: int) -> np.ndarray:
    """Shares that are multiples of 1/64 summing to exactly 1."""
    cuts = np.sort(rng.integers(0, 65, g - 1))
    return np.diff(np.concatenate(([0], cuts, [64]))) / 64.0


def _exact_steps(rng, g: int, n: int) -> np.ndarray:
    """n dyadic steps, each moving mass between two groups: a state of multiples of 2**-16 sums to exactly 1."""
    rows = np.zeros((n, g))
    if g > 1:
        a = rng.integers(0, g, n)
        b = (a + rng.integers(1, g, n)) % g
        rows[np.arange(n), a] = rng.integers(-8, 9, n) * 2.0**-16
        rows[np.arange(n), b] -= rows[np.arange(n), a]
    rows[(rows == 0.0) & (rng.random(rows.shape) < 0.5)] = -0.0  # x + -0.0 == x, and -0.0 + -0.0 is -0.0
    return rows


def _vertex_steps(rng, g: int, n: int) -> np.ndarray:
    """A step onto a vertex e_j of the simplex, n - 2 steps that the clamp and division hold it at,
    and a step back to a dyadic state."""
    j = rng.integers(0, g)
    others = np.arange(g) != j
    rows = np.zeros((n, g))
    rows[0, others], rows[0, j] = -2.0, 2.0 * (g - 1)  # clamped, then x / x == 1.0
    held = rows[1:-1]
    held[:, others] = -rng.random((n - 2, g - 1)) * 1e-3 * (rng.random((n - 2, g - 1)) < 0.8)
    held[:, j] = -np.sum(held[:, others], axis=1) + rng.choice([0.0, 1e-12, -3e-9, 5e-7], n - 2)
    rows[-1] = _dyadic_state(rng, g)
    rows[-1, j] -= 1.0  # e_j + rows[-1] is that state, exactly
    return rows


# the first entry of a row that the drift check rejects, by name
BAD_ROWS = {"NaN": np.nan, "past DRIFT_TOL": 2.0 * DRIFT_TOL}


def _stretches(g: int, seed: int, kinds: list, bad: str | None = None):
    """A dyadic state of g groups and a run of exact and vertex-hold stretches, each 25-500 steps.

    With bad, a row with that entry in its first group follows a long exact stretch.
    """
    rng = np.random.default_rng(seed)
    p = _dyadic_state(rng, g)
    make = {"exact": _exact_steps, "vertex": _vertex_steps}
    steps = [make[kind](rng, g, int(rng.integers(25, 501))) for kind in kinds]
    if bad is not None:
        row = np.zeros((1, g))
        row[0, 0] = BAD_ROWS[bad]
        steps += [_exact_steps(rng, g, 300), row, _exact_steps(rng, g, 10)]
    return p.tolist(), np.concatenate(steps).tolist()


@st.composite
def long_runs(draw):
    """100-2000 steps of 1-6 groups in stretches long enough for blocks."""
    kinds = draw(st.lists(st.sampled_from(["exact", "vertex"]), min_size=1, max_size=4))
    g, seed, bad = draw(st.integers(1, 6)), draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from([None, *BAD_ROWS]))
    run = _stretches(g, seed, kinds, bad)
    assume(100 <= len(run[1]) <= 2000)
    return run


def _held_negative_zero():
    # a share of -0.0 held at a vertex, one clamped step that makes it 0.0 (equal, but not in
    # its bits), and the held steps after it, which add -0.0 to the share: 0.0 + -0.0 is 0.0
    held = [[-0.0, 2.0**-40]] * 100
    return [-0.0, 1.0], held + [[-(2.0**-30), 2.0**-30]] + held


def _negative_zero_in_an_exact_run():
    # an exact running sum over a share of -0.0, which a step of 0.0 turns into 0.0 midway
    rows = [[-0.0, 2.0**-10, -(2.0**-10)], [-0.0, -(2.0**-10), 2.0**-10]] * 100
    rows[150] = [0.0, 0.0, 0.0]
    return [-0.0, 0.5, 0.5], rows


def _last_share_clamped_at_a_total_of_one():
    # an exact running sum to [1 - 2**-10, 2**-10], a step to [1.0, -2**-60], whose total rounds to
    # 1.0: clamped to [1.0, 0.0], it differs from the running sum in its last share only; the
    # next step reads that share, and it adds 2**-60 to 0.0, not to -2**-60
    toward = [[2.0**-10, -(2.0**-10)]] * 511
    return [0.5, 0.5], toward + [[2.0**-10, -(2.0**-10) - 2.0**-60], [-(2.0**-60), 2.0**-60]] + toward[:100]


LONG_RUNS = {
    "exact dyadic steps": _stretches(3, 1, ["exact", "exact"]),
    "vertex holds": _stretches(4, 2, ["vertex", "exact", "vertex"]),
    "one group held": _stretches(1, 3, ["vertex", "exact"]),
    "a NaN row inside a block": _stretches(2, 4, ["exact"], "NaN"),
    "a row past DRIFT_TOL inside a block": _stretches(5, 5, ["vertex", "exact"], "past DRIFT_TOL"),
    "-0.0 held at a vertex": _held_negative_zero(),
    "-0.0 in an exact run": _negative_zero_in_an_exact_run(),
    "a last share clamped at a total of 1.0": _last_share_clamped_at_a_total_of_one(),
}


@settings(max_examples=100, deadline=None)
@given(long_runs())
def test_advance_in_blocks_has_the_bits_of_one_projection_per_step(run):
    # blocks start after dynamics._STREAK steps of one kind; the property above draws too few steps
    assert _projected(*run) == _oracle_projected(*run)


@pytest.mark.parametrize("name", list(LONG_RUNS))
def test_long_runs_have_the_bits_of_one_projection_per_step(name, block_rows):
    run = LONG_RUNS[name]
    fast = _projected(*run)
    assert fast == _oracle_projected(*run)
    if "inside a block" in name:  # a block took the rows up to the bad row, 11 rows from the end
        bad = len(run[1]) - 11
        assert "simplex drift" in fast and any(i < bad == i + k for i, k in block_rows)
    assert sum(k for _, k in block_rows) >= len(run[1]) // 4  # blocks took a share of the rows


@pytest.fixture(scope="module")
def three_group_run(three_group_cfg):
    """The three-group case of test_solve_delayed_matches_oracle_bit_for_bit, with its oracle states."""
    pair, mu, p0 = payoff_pair(three_group_cfg), three_group_cfg.mu, three_group_cfg.initial_population()
    spec = IntegratorSpec(dt=0.05, horizon=600.0)
    return (*pair, mu, p0, 130.0, spec), oracle.delayed_euler(make_utilities(*pair), mu, p0, 130.0, spec)[0].states


@pytest.mark.parametrize("cap", [1, 3, 33])
def test_blocks_of_any_size_have_the_bits_of_one_projection_per_step(monkeypatch, block_rows, three_group_run, cap):
    # blocks of one row, a few rows and just past _STREAK, and the rows flushed after every chunk
    monkeypatch.setattr(dynamics, "_CAP", cap)
    for name, run in LONG_RUNS.items():
        block_rows.clear()
        assert _projected(*run) == _oracle_projected(*run), name
        assert sum(k for _, k in block_rows) >= len(run[1]) // 4, name
    block_rows.clear()
    run, states = three_group_run
    assert solve_delayed(*run).states.tobytes() == states.tobytes()
    assert sum(k for _, k in block_rows) >= BLOCK_ROWS["three_group_cfg"]


def test_a_chunk_back_at_its_start_proposes_a_held_block(block_rows):
    # from (1, 0): a step that moves, one clamped and divided back to (1, 0), then zero steps: the
    # first chunk ends on its first state, so a held block starts after it; its proposal stops at
    # the first step that moves the state (step 72), which a running-sum proposal would have passed
    steps = [[-0.25, 0.25], [0.5, -0.5]] + [[0.0, 0.0]] * 70 + [[-0.25, 0.25]] + [[0.0, 0.0]] * 40
    assert oracle.advance([1.0, 0.0], steps[:2], 0.0, 0.0, 0)[0] == [0.75, 0.25, 1.0, 0.0]
    assert _projected([1.0, 0.0], steps) == _oracle_projected([1.0, 0.0], steps)
    assert block_rows[0] == (dynamics._STREAK, 72 + 1 - dynamics._STREAK)


def _wide_run(g: int, seed: int, bad: str | None = None):
    """A run of g groups through each branch of _advance's step: exact totals, a clamp, divided
    totals, and a first share of -0.0 throughout; with bad, a row of BAD_ROWS ends it."""
    rng = np.random.default_rng(seed)
    p = np.concatenate(([-0.0], _dyadic_state(rng, g - 1)))
    clamp = np.zeros((1, g - 1))
    clamp[0, 0], clamp[0, 1] = -(p[1] + 0.25), p[1] + 0.25  # a share below zero: clamped, then divided
    noisy = rng.normal(0.0, 1e-3, (4, g - 1))
    noisy[:, -1] = -noisy[:, :-1].sum(axis=1)  # totals within rounding of 1, divided
    inexact = np.zeros((1, g - 1))
    inexact[0, -1] = 1e-9
    steps = [_exact_steps(rng, g - 1, 3), np.zeros((2, g - 1)), clamp, noisy, inexact, _exact_steps(rng, g - 1, 2)]
    if bad is not None:
        row = np.zeros((1, g - 1))
        row[0, -1] = BAD_ROWS[bad]
        steps += [row, _exact_steps(rng, g - 1, 2)]
    steps = np.concatenate(steps)
    return p.tolist(), np.hstack((np.full((len(steps), 1), -0.0), steps)).tolist()  # -0.0 + -0.0 is -0.0


@pytest.mark.parametrize("bad", [None, *BAD_ROWS])
@pytest.mark.parametrize("g", [7, 12, 40])
def test_advance_of_many_groups_has_the_bits_of_one_projection_per_step(g, bad):
    # the step code is generated per group count; the properties above draw 1-6 groups
    p, steps = _wide_run(g, g, bad)
    fast = _projected(p, steps)
    assert fast == _oracle_projected(p, steps)
    if bad is None:
        assert oracle.advance(p, steps, 0.0, 0.0, 0)[3] >= 1  # a clamped step
        assert np.signbit(np.frombuffer(fast)[::g]).all()  # the first share stays -0.0
    else:
        assert fast.startswith("simplex drift")


def test_advance_of_thousands_of_groups_has_the_bits_of_one_projection_per_step():
    # a sum of 3000 terms written as one nested expression overflows the compiler's recursion limit
    p, steps = _wide_run(3000, 1)
    assert _projected(p, steps) == _oracle_projected(p, steps)


def test_sum_adds_from_left_to_right():
    # a compensated sum (builtin sum from Python 3.12, math.fsum) gives 1.0
    assert _sum([1e16, 1.0, -1e16]) == 0.0


@pytest.mark.parametrize("case", ["default", "reduced", "unprofitable", "every group loses", "zero aggregate payoff"])
def test_exact_sampler_has_the_bits_of_new_arrays(case, default_cfg, reduced_cfg):
    # at() fills its rows in place; each sample keeps the bits of q + g * slope clamped at zero
    if case == "every group loses":  # C < 0: the groups empty one by one
        numer, n, mu, p0 = -np.array([0.3, 0.7, 0.5, 0.2]), 1, 1.0, np.array([0.1, 0.2, 0.3, 0.4])
        times, pieces, sign = np.arange(10001.0), 4, -1.0
    elif case == "zero aggregate payoff":  # C = 0 until group 2 empties at t = 3
        numer, n, mu, p0 = np.array([0.2, -0.2, 0.0]), 1, 0.5, np.array([0.3, 0.3, 0.4])
        times, pieces, sign = np.arange(61) * 0.1, 2, 0.0
    else:
        cfg = {"default": default_cfg, "reduced": reduced_cfg, "unprofitable": default_cfg}[case]
        if case == "unprofitable":  # sp.1's two groups lose and empty one after the other
            cfg = dataclasses.replace(cfg, sps=[dataclasses.replace(cfg.sps[0], price_power=100.0), *cfg.sps[1:]])
        numer, n, mu, p0 = numerators(cfg), cfg.n_users, cfg.mu, cfg.initial_population()
        times = np.arange(cfg.integrator.n_steps() + 1) * cfg.integrator.dt
        pieces, sign = (3 if case == "unprofitable" else 1), 1.0
    solution = ReplicatorSolution(numer, n, mu, p0)
    assert len(solution.pieces) == pieces and sign in {np.sign(piece[3]) for piece in solution.pieces}
    assert np.array_equal(solution.at(times).view(np.int64), oracle.replicator_at(solution, times).view(np.int64))
