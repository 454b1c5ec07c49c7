"""The Python API checks its arguments with the config key ranges, as the CLI does."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsgame import (
    Beamformer,
    ConfigurationError,
    IntegratorSpec,
    PhaseShiftVector,
    ReplicatorSolution,
    Trajectory,
    compute_snr,
    dbm_to_watt,
    delayed_replicator_field,
    emit_csv,
    generate_channels,
    integrate_dde,
    integrate_ode,
    make_utilities,
    optimize_link,
    picard_solve,
    reduced_config,
    replicator_field,
    solve_delayed,
    solve_replicator,
    stability_bound,
    utility_numerators,
)
from irsgame.errors import NonConvergenceError, NumericError
from irsgame.experiments import numerators

NAN, INF = math.nan, math.inf
CFG = reduced_config()
NUMER = numerators(CFG)  # the two groups' payoffs of the reduced scenario
UTILITIES = make_utilities(NUMER, CFG.n_users)
C = NUMER / CFG.n_users
CHANNEL = generate_channels(CFG)[0]
P0 = [0.5, 0.5]
SPEC = IntegratorSpec(dt=0.1, horizon=1.0)
BEAM = Beamformer(np.full(CHANNEL.n_antennas, 0.5 + 0.0j), 0.25 * CHANNEL.n_antennas)
NO_PHASES = PhaseShiftVector(np.zeros(0))


def _toy_trajectory():
    return Trajectory(times=np.arange(3.0), states=np.tile(P0, (3, 1)))


# one row per guarded call: each ended in a wrong value or a bare exception before
REGRESSIONS = {
    "negative mu of the exact solution": (lambda: ReplicatorSolution([1.0, 2.0], -1.0, P0), "mu must be positive"),
    # the wording is the config key's range
    "a NaN mu": (lambda: ReplicatorSolution([1.0, 2.0], NAN, P0), "mu must be positive and finite, got nan"),
    "negative mu of the delayed solver": (lambda: solve_delayed(UTILITIES, -1.0, P0, 1.0, SPEC), "mu must be positive"),
    "a NaN initial share": (lambda: solve_delayed(UTILITIES, 0.1, [NAN, 0.5], 1.0, SPEC), "p0 must be"),
    "a NaN transmit power": (lambda: optimize_link(CHANNEL, NAN, 1.0, 1e-3), "transmit power must be positive"),
    "a NaN noise of the link": (lambda: optimize_link(CHANNEL, 1.0, 1.0, NAN), "noise_var must be positive"),
    "a NaN beam power": (lambda: Beamformer(BEAM.w, NAN), "transmit power must be positive"),
    "a NaN beam entry": (lambda: Beamformer([NAN, 1.0], 1.0), "does not match the power budget"),
    "a NaN bandwidth": (lambda: compute_snr(CHANNEL, BEAM, NO_PHASES, NAN, 1e-3), "bandwidth must be positive"),
    "a NaN phase": (lambda: PhaseShiftVector([NAN]), r"phases must lie in \[0, 2\*pi\)"),
    "a negative population": (lambda: make_utilities(NUMER, -5), "n_users must be at least 1"),
    "a zero population": (lambda: make_utilities(NUMER, 0), "n_users must be at least 1"),
    "half a user": (lambda: make_utilities(NUMER, 0.5), r"n_users must be at least 1 and at most 2\*\*53, got 0.5"),
    "a bound without users": (lambda: stability_bound(NUMER, 0.1, 0), "n_users must be at least 1"),
    "a bound with a string mu": (lambda: stability_bound(NUMER, "0.1", 100), "mu must be positive"),
    "a fractional stride": (
        lambda: emit_csv(_toy_trajectory(), [], "missing/never.csv", stride=1.5),
        "stride must be at least 1",
    ),
    "a dB level past a float": (lambda: dbm_to_watt(1e6), "dBm level must be finite"),
    "a string integration step": (lambda: IntegratorSpec(dt="0.1"), r"integrator\.dt must be positive"),
    "a NaN Picard grid": (lambda: picard_solve(lambda t, p: 0.0 * p, P0, [0.0, NAN]), "picard grid must be finite"),
}


@pytest.mark.parametrize("name", list(REGRESSIONS))
def test_an_out_of_range_argument_is_a_configuration_error_naming_it(name):
    call, message = REGRESSIONS[name]
    with pytest.raises(ConfigurationError, match=message):
        call()


# the CLI fuzz's extreme values, and values of the wrong type
NUMBERS = [0.0, 1.0, -1.0, 5e-324, 1e300, 1e-300, NAN, INF, -INF]
extreme = st.sampled_from(NUMBERS + ["1", None])
shares = st.one_of(st.just(P0), st.lists(st.sampled_from(NUMBERS), min_size=2, max_size=2))


def arg(default):
    """An ordinary value or an extreme one, so that a call often has a single bad argument."""
    return st.one_of(st.just(default), extreme)


def _check_trajectory(traj):
    assert np.isfinite(traj.times).all()
    _check_shares(traj.states)
    if traj.utilities is not None:
        alive = traj.states > 0.0  # an empty group has no utility: NaN by design
        assert np.isfinite(traj.utilities[alive]).all() and np.isfinite(traj.u_bar).all()


def _check_shares(p):
    assert np.isfinite(p).all() and (p >= 0.0).all()
    assert np.abs(np.sum(p, axis=-1) - 1.0).max() <= 1e-9


def _solvers(mu, n_users, delta, dt, horizon, p0):
    spec = lambda: IntegratorSpec(dt=dt, horizon=horizon)  # noqa: E731
    field = lambda t, p: replicator_field(t, p, UTILITIES, 0.1)  # noqa: E731
    delayed = lambda t, lookup: delayed_replicator_field(t, lookup, delta, 0.1)  # noqa: E731
    yield lambda: _check_shares(ReplicatorSolution(C, mu, p0).rest)
    yield lambda: _check_trajectory(solve_replicator(C, mu, p0, spec(), UTILITIES))
    yield lambda: _check_trajectory(solve_delayed(make_utilities(NUMER, n_users), mu, p0, delta, spec()))
    yield lambda: _check_trajectory(integrate_ode(field, p0, spec(), UTILITIES))
    yield lambda: _check_trajectory(integrate_ode(field, p0, spec(), UTILITIES, method="forward-euler"))
    yield lambda: _check_trajectory(integrate_dde(delayed, p0, delta, spec(), UTILITIES))
    yield lambda: _check_shares(picard_solve(field, p0, np.array([0.0, horizon])).states)


def _links(mu, n_users, power, bandwidth, noise, level):
    # an SNR past the largest float is a link's result; utility_numerators reports it (payoffs below)
    def link():
        out = optimize_link(CHANNEL, power, bandwidth, noise)
        assert np.isfinite(out.beam.w).all() and np.isfinite(out.phases.alphas).all() and out.snr >= 0.0

    def payoffs():
        numer = utility_numerators([optimize_link(CHANNEL, dbm_to_watt(level), bandwidth, noise)] * CFG.n_groups, CFG)
        assert np.isfinite(numer).all()
        uv = make_utilities(numer, n_users)(np.array(P0))
        assert np.isfinite(uv.u).all() and math.isfinite(uv.u_bar)
        assert 0.0 < stability_bound(numer, mu, n_users) < INF

    def snr():
        assert compute_snr(CHANNEL, BEAM, NO_PHASES, bandwidth, noise) >= 0.0

    yield link
    yield payoffs
    yield snr
    yield lambda: Beamformer(BEAM.w, power)


# 200 examples take about 2 s on a 2-vCPU machine
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_extreme_arguments_end_in_an_irsgame_error_or_finite_output(data):
    mu, n_users = data.draw(arg(0.1)), data.draw(arg(100))
    calls = list(_solvers(mu, n_users, *(data.draw(arg(v)) for v in (1.0, 0.1, 1.0)), data.draw(shares)))
    calls += list(_links(mu, n_users, *(data.draw(arg(v)) for v in (1.0, 1.0, 1e-3, 30.0))))
    for call in calls:
        try:
            call()
        except (ConfigurationError, NumericError, NonConvergenceError):
            pass
