"""The Python API checks its arguments with the config key ranges, as the CLI does."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsgame import (
    Beamformer,
    ConfigurationError,
    HistoryBuffer,
    IntegratorSpec,
    PhaseShiftVector,
    ReplicatorSolution,
    SweepGrids,
    Trajectory,
    UtilityVector,
    build_all_links,
    compute_snr,
    dbm_to_watt,
    delayed_steps,
    detect_equilibrium,
    generate_channels,
    integrate_ode,
    load_config,
    make_utilities,
    optimize_link,
    picard_solve,
    replicator_field,
    solve_delayed,
    solve_replicator,
    stability_bound,
    utility_numerators,
)
from irsgame.errors import NonConvergenceError, NumericError
from irsgame.experiments import numerators
from conftest import REDUCED_CFG

NAN, INF = math.nan, math.inf
CFG = load_config(REDUCED_CFG)
NUMER = numerators(CFG)  # the two groups' payoffs of the reduced scenario
UTILITIES = make_utilities(NUMER, CFG.n_users)
CHANNEL = generate_channels(CFG)[0]
P0 = [0.5, 0.5]
SPEC = IntegratorSpec(dt=0.1, horizon=1.0)
BEAM = Beamformer(np.full(CHANNEL.n_antennas, 0.5 + 0.0j), 0.25 * CHANNEL.n_antennas)
NO_PHASES = PhaseShiftVector(np.zeros(0))


def _toy_trajectory():
    return Trajectory(times=np.arange(3.0), states=np.tile(P0, (3, 1)))


def _delayed_run():
    return solve_delayed(UTILITIES, 0.1, P0, 0.3, SPEC)


def _utilities_of(n):
    """A utility map of n groups, whatever the number of shares in the stack it is given."""
    return lambda p: UtilityVector(np.ones((len(p), n)), np.ones(len(p)))


# one row per guarded call: each ended in a wrong value or a bare exception before
REGRESSIONS = {
    "negative mu of the exact solution": (lambda: ReplicatorSolution([1.0, 2.0], 100, -1.0, P0), "mu must be positive"),
    # the wording is the config key's range
    "a NaN mu": (lambda: ReplicatorSolution([1.0, 2.0], 100, NAN, P0), "mu must be positive and finite, got nan"),
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
    "an exact solution without users": (lambda: ReplicatorSolution(NUMER, 0, 0.1, P0), "n_users must be at least 1"),
    # a whole number, as scenario.n_users is in a file
    "a fractional population of the utility map": (
        lambda: make_utilities(NUMER, 100.5),
        r"n_users must be at least 1 and at most 2\*\*53, got 100.5",
    ),
    "a fractional population of the bound": (
        lambda: stability_bound(NUMER, 0.1, 100.5),
        r"n_users must be at least 1 and at most 2\*\*53, got 100.5",
    ),
    "a bound with a string mu": (lambda: stability_bound(NUMER, "0.1", 100), "mu must be positive"),
    "a dB level past a float": (lambda: dbm_to_watt(1e6), "dBm level must be finite"),
    "a string integration step": (lambda: IntegratorSpec(dt="0.1"), r"integrator\.dt must be positive"),
    "a NaN Picard grid": (lambda: picard_solve(lambda t, p: 0.0 * p, P0, [0.0, NAN]), "picard grid must be finite"),
    # numpy broadcast a field of one value, and rk4 ended in a numpy ValueError on a longer one
    **{
        "a field of %d values for 2 groups" % n: (
            lambda n=n: integrate_ode(lambda t, p: np.zeros(n), P0, SPEC),
            r"the field returned shape \(%d,\) for a state of shape \(2,\)" % n,
        )
        for n in (1, 3)
    },
    # Picard reads the field by the same rule: a scalar field gave rows that sum to 1.2 and 1.4,
    # and 3 values for 2 shares ended in numpy's broadcast ValueError
    "a scalar field of the Picard solver": (
        lambda: picard_solve(lambda t, p: 0.1, P0, [0.0, 1.0, 2.0]),
        r"the field returned shape \(\) for a state of shape \(2,\)",
    ),
    "a field of 3 values for 2 groups of the Picard solver": (
        lambda: picard_solve(lambda t, p: np.zeros(3), P0, [0.0, 1.0, 2.0]),
        r"the field returned shape \(3,\) for a state of shape \(2,\)",
    ),
    # the exact solution wrote a row only where a time fell inside one of its pieces: these
    # returned memory that was never written
    **{
        "%s sample time of the exact solution" % name: (
            lambda t=t: ReplicatorSolution([1.0, 2.0], 100, 0.1, P0).at(np.array(t)),
            "sample times must be 1-D, finite, non-negative and non-decreasing",
        )
        for name, t in (("a NaN", [NAN]), ("a negative", [-1.0]), ("an infinite", [INF]), ("a decreasing", [2.0, 1.0]))
    },
    # a lookup read one share as a state
    "1-D states of the history": (
        lambda: HistoryBuffer(0.1, np.array(P0)),
        r"history states must be 2-D, got shape \(2,\)",
    ),
    # a state of no groups: detect_equilibrium ended in numpy's ValueError for a max over no
    # entries, and a lookup returned empty states
    "a trajectory of no groups": (
        lambda: detect_equilibrium(Trajectory([0.0, 1.0], np.zeros((2, 0)))),
        r"trajectory states need at least one group, got shape \(2, 0\)",
    ),
    "a history of no groups": (
        lambda: HistoryBuffer(0.1, np.zeros((3, 0))).lookup([0.05]),
        r"history states need at least one group, got shape \(3, 0\)",
    ),
    # elements beyond a short phase vector did not reflect; ChannelSet.subset says that
    "a phase vector shorter than the surface": (
        lambda: compute_snr(CHANNEL, BEAM, NO_PHASES, 1.0, 1e-3),
        "phase vector has 0 entries but the surface has %d elements" % CHANNEL.n_elements,
    ),
    # numpy broadcast a utility map of one group, and ended in a numpy ValueError on a longer one
    **{
        "a %d-group utility map for 2 shares of the delayed solver" % n: (
            lambda n=n: solve_delayed(_utilities_of(n), 0.1, P0, 1.0, SPEC),
            r"solve_delayed utilities of shape \(10, %d\) for states \(10, 2\)" % n,
        )
        for n in (1, 3)
    },
    "repeated times of a trajectory": (
        lambda: detect_equilibrium(Trajectory(times=np.array([0.0, 1.0, 1.0]), states=np.tile(P0, (3, 1)))),
        "trajectory times must be strictly increasing",
    ),
    # a Trajectory checks its own shape: detect_equilibrium answered t = 0 for 3 times with 2 states,
    # and t = nan for a single NaN time
    "an empty trajectory": (
        lambda: Trajectory(times=np.array([]), states=np.zeros((0, 2))),
        "trajectory times must be strictly increasing, with at least one",
    ),
    "a single NaN time": (
        lambda: detect_equilibrium(Trajectory(times=np.array([NAN]), states=np.array([P0]))),
        "trajectory times must be strictly increasing, with at least one",
    ),
    "3 times with 2 states": (
        lambda: detect_equilibrium(Trajectory(times=np.arange(3.0), states=np.tile(P0, (2, 1)))),
        "a trajectory of 3 times has 2 states",
    ),
    # a trajectory keeps its utility map, not a utility row per sample
    "utilities that are not a map": (
        lambda: Trajectory(times=np.arange(3.0), states=np.tile(P0, (3, 1)), utilities=np.zeros((3, 2))),
        "trajectory utilities must be a state -> UtilityVector map",
    ),
    # these ended in numpy's TypeError or ValueError, or in an AxisError in detect_equilibrium
    "a scalar time": (
        lambda: Trajectory(times=np.float64(0.0), states=np.array([P0])),
        r"trajectory times must be 1-D, got shape \(\)",
    ),
    "2-D times": (
        lambda: Trajectory(times=np.zeros((3, 1)), states=np.tile(P0, (3, 1))),
        r"trajectory times must be 1-D, got shape \(3, 1\)",
    ),
    "1-D states": (
        lambda: detect_equilibrium(Trajectory(times=np.arange(2.0), states=np.array(P0))),
        r"trajectory states must be 2-D, got shape \(2,\)",
    ),
    # delayed_steps checks what solve_delayed checks, and needs the map and the grid of a run
    "a negative delay of the recomputed steps": (
        lambda: delayed_steps(_delayed_run(), 0.1, -1.0),
        "delay must be non-negative and finite, got -1.0",
    ),
    "a NaN mu of the recomputed steps": (
        lambda: delayed_steps(_delayed_run(), NAN, 0.3),
        "mu must be positive and finite, got nan",
    ),
    "a 3-group utility map of the recomputed steps": (
        lambda: delayed_steps(replace(_delayed_run(), utilities=_utilities_of(3)), 0.1, 0.3),
        r"solve_delayed utilities of shape \(10, 3\) for states \(10, 2\)",
    ),
    "a one-sample trajectory of the recomputed steps": (
        lambda: delayed_steps(Trajectory(times=np.zeros(1), states=np.array([P0]), utilities=UTILITIES), 0.1, 0.3),
        "delayed_steps needs a trajectory of at least 2 samples that keeps its utility map",
    ),
    "a trajectory without a utility map of the recomputed steps": (
        lambda: delayed_steps(replace(_delayed_run(), utilities=None), 0.1, 0.3),
        "delayed_steps needs a trajectory of at least 2 samples that keeps its utility map",
    ),
    # read as if dt were 0.1 throughout
    "times off the grid of the recomputed steps": (
        lambda: delayed_steps(Trajectory(np.array([0.0, 0.1, 0.3]), np.tile(P0, (3, 1)), UTILITIES), 0.1, 0.3),
        r"delayed_steps needs the times t_i = i \* dt of a solve_delayed run",
    ),
    # numpy broadcast a single share and ended in its ValueError on another length, now from any reader
    "a state of 3 shares for a 2-group utility map": (
        lambda: UTILITIES(np.array([0.2, 0.3, 0.5])),
        r"a utility map of 2 groups got a state of shape \(3,\)",
    ),
    "a stack of 3-share states for a 2-group utility map": (
        lambda: solve_delayed(make_utilities(np.array([1.0, 2.0]), 100), 0.1, [0.2, 0.3, 0.5], 1.0, SPEC),
        r"a utility map of 2 groups got a state of shape \(10, 3\)",
    ),
    # a NaN payoff gave NaN utilities, or a bound that left it out; a list of strings ended in a TypeError.
    # The exact solution read strings as numbers, took a non-finite payoff for a NumericError, and
    # named a matrix or a scalar a length mismatch
    **{
        "%s of %s" % (name, call.__name__): (
            lambda call=call, numer=numer, args=args: call(numer, *args),
            "numer must be a 1-D vector of finite reals",
        )
        for call, args in (
            (make_utilities, (CFG.n_users,)),
            (stability_bound, (0.1, CFG.n_users)),
            (ReplicatorSolution, (CFG.n_users, 0.1, P0)),
        )
        for name, numer in (
            ("a NaN payoff", np.array([NAN, 1.0])),
            ("an infinite payoff", np.array([1.0, INF])),
            ("a payoff matrix", np.ones((2, 2))),
            ("string payoffs", ["1.0", "2.0"]),
            ("a scalar payoff", 1.0),
        )
    },
    # a zero dt divided by zero with a RuntimeWarning
    **{
        "a %s dt of the history" % name: (
            lambda dt=dt: HistoryBuffer(dt, np.array([P0])),
            "dt must be positive and finite, got %r" % dt,
        )
        for name, dt in (("zero", 0.0), ("negative", -0.1), ("NaN", NAN), ("string", "0.1"))
    },
    "a zero dt of the rest-point index": (
        lambda: ReplicatorSolution(NUMER, CFG.n_users, 0.1, P0).equilibrium_index(0.0),
        "dt must be positive and finite, got 0.0",
    ),
    "a negative dt of the rest-point index": (
        lambda: ReplicatorSolution(NUMER, CFG.n_users, 0.1, P0).equilibrium_index(-0.01),
        "dt must be positive and finite, got -0.01",
    ),
    "a string dt of the rest-point index": (
        lambda: ReplicatorSolution(NUMER, CFG.n_users, 0.1, P0).equilibrium_index("x"),
        "dt must be positive and finite, got 'x'",
    ),
    # on a resting trajectory, these returned None or an equilibrium at t = 0
    **{
        "a %s min_quiet of equilibrium detection" % name: (
            lambda x=x: detect_equilibrium(_toy_trajectory(), min_quiet=x),
            "min_quiet must be non-negative and finite, got %r" % x,
        )
        for name, x in (("NaN", NAN), ("negative", -5.0))
    },
    # a count that does not match the scenario ended in zip's ValueError or an IndexError
    "one link fewer than the groups of the payoffs": (
        lambda: utility_numerators([optimize_link(CHANNEL, 1.0, 1.0, 1e-3)] * (CFG.n_groups - 1), CFG),
        "%d links for a scenario of %d groups" % (CFG.n_groups - 1, CFG.n_groups),
    ),
    "fewer channel sets than providers": (
        lambda: build_all_links(CFG, [CHANNEL] * (len(CFG.sps) - 1)),
        "%d channel sets for a scenario of %d providers" % (len(CFG.sps) - 1, len(CFG.sps)),
    ),
    # the rules that span keys used to run on mistyped keys
    "a sweep grid that is not a list": (
        lambda: replace(CFG, grids=SweepGrids(mu=0.1)),
        "grids.mu must be a list of entries that are positive and finite",
    ),
    "a string surface partition": (
        lambda: replace(CFG, sps=[replace(CFG.sps[0], irs_modules="x"), CFG.sps[1]]),
        "sp.1.irs_modules must be at least 1",
    ),
    # an int key held a float: simulate ended in a TypeError, or drew the channels of int(seed)
    "a float surface partition": (
        lambda: replace(CFG, sps=[replace(CFG.sps[0], irs_modules=1.0), CFG.sps[1]]),
        r"sp\.1\.irs_modules must be an integer",
    ),
    "a fractional seed": (lambda: replace(CFG, seed=1.5), r"scenario\.seed must be an integer"),
    "a fractional population": (lambda: replace(CFG, n_users=100.5), r"scenario\.n_users must be an integer"),
    "a population grid of floats": (
        lambda: replace(CFG, grids=SweepGrids(n_users=[50.5, 100.0])),
        r"grids\.n_users entries must be integers",
    ),
}


@pytest.mark.parametrize("name", list(REGRESSIONS))
def test_an_out_of_range_argument_is_a_configuration_error_naming_it(name):
    call, message = REGRESSIONS[name]
    with pytest.raises(ConfigurationError, match=message):
        call()


def test_payoffs_given_as_a_list_act_as_their_array():
    assert stability_bound(NUMER.tolist(), 0.1, CFG.n_users) == stability_bound(NUMER, 0.1, CFG.n_users)
    listed, array = make_utilities(NUMER.tolist(), CFG.n_users)(P0), UTILITIES(P0)
    assert listed.u.tobytes() == array.u.tobytes() and listed.u_bar == array.u_bar
    # numpy's integers are whole numbers too
    assert make_utilities(NUMER, np.int64(CFG.n_users))(P0).u.tobytes() == array.u.tobytes()


def test_trajectories_and_histories_given_as_lists_act_as_their_arrays():
    # lists passed the shape checks and were kept: detect_equilibrium compared a list with a
    # float, and delayed_steps and HistoryBuffer.lookup indexed a list with an array
    resting = detect_equilibrium(Trajectory([0.0, 1.0], [P0, P0], UTILITIES))
    assert resting.utility_spread is not None
    assert resting == detect_equilibrium(Trajectory(np.arange(2.0), np.array([P0, P0]), UTILITIES))
    run = _delayed_run()
    listed = Trajectory(run.times.tolist(), run.states.tolist(), UTILITIES)
    assert delayed_steps(listed, 0.1, 0.3).tobytes() == delayed_steps(run, 0.1, 0.3).tobytes()
    times = np.array([0.05, 0.1, 0.75])
    history = HistoryBuffer(0.1, run.states.tolist())
    assert history.lookup(times).tobytes() == HistoryBuffer(0.1, run.states).lookup(times).tobytes()
    # a float array is kept as it is: solve_delayed's history reads rows written after it is built
    assert Trajectory(run.times, run.states).states is run.states
    assert HistoryBuffer(0.1, run.states).states is run.states


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
        uv = traj.utilities(traj.states)
        alive = traj.states > 0.0  # an empty group has no utility: NaN by design
        assert np.isfinite(uv.u[alive]).all() and np.isfinite(uv.u_bar).all()


def _check_shares(p):
    assert np.isfinite(p).all() and (p >= 0.0).all()
    assert np.abs(np.sum(p, axis=-1) - 1.0).max() <= 1e-9


def _solvers(mu, n_users, delta, dt, horizon, p0):
    spec = lambda: IntegratorSpec(dt=dt, horizon=horizon)  # noqa: E731
    field = lambda t, p: replicator_field(t, p, UTILITIES, 0.1)  # noqa: E731
    yield lambda: _check_shares(ReplicatorSolution(NUMER, n_users, mu, p0).rest)
    yield lambda: _check_trajectory(solve_replicator(NUMER, n_users, mu, p0, spec()))
    yield lambda: _check_trajectory(solve_delayed(make_utilities(NUMER, n_users), mu, p0, delta, spec()))
    yield lambda: _check_trajectory(integrate_ode(field, p0, spec(), UTILITIES))
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
        assert compute_snr(CHANNEL.subset(0), BEAM, NO_PHASES, bandwidth, noise) >= 0.0

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
