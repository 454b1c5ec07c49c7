"""The Python API checks its arguments with the config key ranges, as the CLI does."""

import ast
import importlib
import importlib.util
import math
import os
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsgame import (
    ChannelSet,
    ConfigurationError,
    HistoryBuffer,
    IntegratorSpec,
    Position,
    ReplicatorSolution,
    SweepGrids,
    Trajectory,
    build_all_links,
    dbm_to_watt,
    delayed_steps,
    detect_equilibrium,
    generate_channels,
    load_config,
    make_utilities,
    optimize_link,
    solve_delayed,
    solve_replicator,
    stability_bound,
    utility_numerators,
    utility_spread,
    with_scalar_overrides,
)
from irsgame.errors import NumericError
from irsgame.experiments import numerators
from conftest import REDUCED_CFG
from oracle import NonConvergenceError, integrate_ode, picard_solve, replicator_field

NAN, INF = math.nan, math.inf
HUGE = 10**400  # an int that no float can hold
CFG = load_config(REDUCED_CFG)
NUMER = numerators(CFG)  # the two groups' payoffs of the reduced scenario
PAIR = NUMER, CFG.n_users  # the payoff pair of the dynamics
UTILITIES = make_utilities(*PAIR)
CHANNEL = generate_channels(CFG)[0]
LINKS = build_all_links(CFG, generate_channels(CFG))
P0 = [0.5, 0.5]
SPEC = IntegratorSpec(dt=0.1, horizon=1.0)


def _toy_trajectory():
    return Trajectory(1.0, np.tile(P0, (3, 1)), UTILITIES)


def _with_sp1(**changes):
    """CFG with its first provider's keys changed."""
    return replace(CFG, sps=[replace(CFG.sps[0], **changes)] + CFG.sps[1:])


def _delayed_run():
    return solve_delayed(*PAIR, 0.1, P0, 0.3, SPEC)


# one row per guarded call: each ended in a wrong value or a bare exception before
REGRESSIONS = {
    "negative mu of the exact solution": (lambda: ReplicatorSolution([1.0, 2.0], 100, -1.0, P0), "mu must be positive"),
    # the wording is the config key's range
    "a NaN mu": (lambda: ReplicatorSolution([1.0, 2.0], 100, NAN, P0), "mu must be positive and finite, got nan"),
    "negative mu of the delayed solver": (lambda: solve_delayed(*PAIR, -1.0, P0, 1.0, SPEC), "mu must be positive"),
    "a NaN initial share": (lambda: solve_delayed(*PAIR, 0.1, [NAN, 0.5], 1.0, SPEC), "p0 must be"),
    "a NaN transmit power": (lambda: optimize_link(CHANNEL, NAN, 1.0, 1e-3), "transmit power must be positive"),
    "a NaN noise of the link": (lambda: optimize_link(CHANNEL, 1.0, 1.0, NAN), "noise_var must be positive"),
    "a NaN bandwidth": (lambda: optimize_link(CHANNEL, 1.0, NAN, 1e-3), "bandwidth must be positive"),
    "a negative transmit power": (lambda: optimize_link(CHANNEL, -1.0, 1.0, 1e-3), "transmit power must be positive"),
    "an infinite transmit power": (lambda: optimize_link(CHANNEL, INF, 1.0, 1e-3), "transmit power must be positive"),
    "a zero bandwidth": (lambda: optimize_link(CHANNEL, 1.0, 0.0, 1e-3), "bandwidth must be positive"),
    # the beam of a power near the least float squares to 0.0, and its SNR was 0 / 0 = nan
    "a transmit power too small for a beam to hold": (
        lambda: optimize_link(CHANNEL, 5e-324, 1.0, 1e-3),
        r"\|\|w\|\|\^2 = 0.0 does not match the power budget 5e-324",
    ),
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
    # a numpy dt checked the grid in numpy arithmetic, which warned on these overflows
    "a numpy dt whose last sample time is past the largest float": (
        lambda: IntegratorSpec(dt=np.float64(1e308), horizon=1.5e308),
        r"integrator: the last sample time 2 \* 1e\+308 is not a float",
    ),
    "a numpy dt whose step count is past the largest float": (
        lambda: IntegratorSpec(dt=np.float64(1e-300), horizon=1e100),
        r"integrator\.horizon / integrator\.dt = inf steps exceeds the cap",
    ),
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
        lambda: detect_equilibrium(Trajectory(1.0, np.zeros((2, 0)), UTILITIES)),
        r"trajectory states need at least one group, got shape \(2, 0\)",
    ),
    "a history of no groups": (
        lambda: HistoryBuffer(0.1, np.zeros((3, 0))).lookup([0.05]),
        r"history states need at least one group, got shape \(3, 0\)",
    ),
    # a lookup returned the non-finite share, or interpolated it into the states read
    **{
        "%s share of a history" % name: (
            lambda x=x: HistoryBuffer(0.1, [[x, 0.0], P0]).lookup([0.05]),
            "history states must be finite",
        )
        for name, x in (("an infinite", INF), ("a negative infinite", -INF), ("a NaN", NAN))
    },
    # a Trajectory checks its own shape, so detect_equilibrium never reads a run of no samples
    "an empty trajectory": (
        lambda: Trajectory(0.1, np.zeros((0, 2)), UTILITIES),
        r"trajectory states need at least one sample, got shape \(0, 2\)",
    ),
    "a history of no samples": (
        lambda: HistoryBuffer(0.1, np.zeros((0, 2))),
        r"history states need at least one sample, got shape \(0, 2\)",
    ),
    # an infinite share ended detect_equilibrium in numpy's "invalid value encountered in
    # subtract", and a NaN share returned None
    **{
        "%s share of a trajectory" % name: (
            lambda x=x: detect_equilibrium(Trajectory(0.5, [[x, 0.0], [x, 0.0]], UTILITIES)),
            "trajectory states must be finite",
        )
        for name, x in (("an infinite", INF), ("a negative infinite", -INF), ("a NaN", NAN))
    },
    # a trajectory keeps its utility map, not a utility row per sample, and a run always has one
    "utilities that are not a map": (
        lambda: Trajectory(1.0, np.tile(P0, (3, 1)), np.zeros((3, 2))),
        r"trajectory utilities must be a state -> \(u, u_bar\) map",
    ),
    "a trajectory without a utility map": (
        lambda: Trajectory(1.0, np.tile(P0, (3, 1)), None),
        r"trajectory utilities must be a state -> \(u, u_bar\) map, got None",
    ),
    # this ended in an AxisError in detect_equilibrium
    "1-D states": (
        lambda: detect_equilibrium(Trajectory(1.0, np.array(P0), UTILITIES)),
        r"trajectory states must be 2-D, got shape \(2,\)",
    ),
    # the times i * dt of the grid type are floats up to the last sample, as the integrator's are
    "a history whose last sample time is past the largest float": (
        lambda: HistoryBuffer(1e308, np.ones((3, 1))),
        r"history dt: the last sample time 2 \* 1e\+308 is not a float",
    ),
    "a trajectory whose last sample time is past the largest float": (  # a numpy dt, which warned on overflow
        lambda: Trajectory(np.float64(1e308), np.tile(P0, (3, 1)), UTILITIES),
        r"trajectory dt: the last sample time 2 \* 1e\+308 is not a float",
    ),
    # delayed_steps checks what solve_delayed checks
    "a negative delay of the recomputed steps": (
        lambda: delayed_steps(_delayed_run(), *PAIR, 0.1, -1.0),
        "delay must be non-negative and finite, got -1.0",
    ),
    "a NaN mu of the recomputed steps": (
        lambda: delayed_steps(_delayed_run(), *PAIR, NAN, 0.3),
        "mu must be positive and finite, got nan",
    ),
    "a one-sample trajectory of the recomputed steps": (
        lambda: delayed_steps(Trajectory(0.1, np.array([P0]), UTILITIES), *PAIR, 0.1, 0.3),
        "delayed_steps needs a trajectory of at least 2 samples",
    ),
    # numpy broadcast a single share and ended in its ValueError on another length, now from any reader
    "a state of 3 shares for a 2-group utility map": (
        lambda: UTILITIES(np.array([0.2, 0.3, 0.5])),
        r"a utility map of 2 groups got a state of shape \(3,\)",
    ),
    "a stack of 3-share states for a 2-group utility map": (
        lambda: solve_delayed(np.array([1.0, 2.0]), 100, 0.1, [0.2, 0.3, 0.5], 1.0, SPEC),
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
            (solve_delayed, (CFG.n_users, 0.1, P0, 1.0, SPEC)),
        )
        for name, numer in (
            ("a NaN payoff", np.array([NAN, 1.0])),
            ("an infinite payoff", np.array([1.0, INF])),
            ("a payoff matrix", np.ones((2, 2))),
            ("string payoffs", ["1.0", "2.0"]),
            ("a scalar payoff", 1.0),
        )
    },
    # a zero dt divided by zero with a RuntimeWarning; the grid type checks dt for a trajectory too
    **{
        "a %s dt of the %s" % (name, owner): (
            lambda dt=dt, build=build: build(dt, np.array([P0])),
            "dt must be positive and finite, got %r" % dt,
        )
        for owner, build in (("history", HistoryBuffer), ("trajectory", lambda dt, p: Trajectory(dt, p, UTILITIES)))
        for name, dt in (("zero", 0.0), ("negative", -0.1), ("NaN", NAN), ("infinite", INF), ("string", "0.1"))
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
    # a None override kept the setting; the CLI passes only the flags that were set
    "a None override": (lambda: with_scalar_overrides(CFG, mu=None), r"scenario\.mu must be positive and finite"),
    "a fractional seed": (lambda: replace(CFG, seed=1.5), r"scenario\.seed must be an integer"),
    "a fractional population": (lambda: replace(CFG, n_users=100.5), r"scenario\.n_users must be an integer"),
    "a population grid of floats": (
        lambda: replace(CFG, grids=SweepGrids(n_users=[50.5, 100.0])),
        r"grids\.n_users entries must be integers",
    ),
    # a ragged nest of lists ended in numpy's ValueError ("setting an array element with a sequence")
    "a ragged valuation": (
        lambda: replace(CFG, valuation=[[1.0], [1.0, 2.0]]),
        r"scenario\.valuation entries must be positive and finite",
    ),
    # an int that no float can hold passed the range rule as finite, and ended in an OverflowError
    # (optimize_link's power in a TypeError from np.sqrt); a seed past the float range is rejected too
    **{
        "an int past the float range as %s" % name: (call, message)
        for name, call, message in (
            ("the integration step", lambda: IntegratorSpec(dt=HUGE), r"integrator\.dt must be positive and finite"),
            ("mu of the exact solution", lambda: ReplicatorSolution(NUMER, 100, HUGE, P0),
             "mu must be positive and finite"),
            ("mu of the bound", lambda: stability_bound(NUMER, HUGE, 100), "mu must be positive and finite"),
            ("the delay", lambda: solve_delayed(*PAIR, 0.1, P0, HUGE, SPEC), "delay must be non-negative and finite"),
            ("the dt of a history", lambda: HistoryBuffer(HUGE, [P0]), "dt must be positive and finite"),
            ("the dt of the rest-point index", lambda: ReplicatorSolution(NUMER, 100, 0.1, P0).equilibrium_index(HUGE),
             "dt must be positive and finite"),
            ("min_quiet", lambda: detect_equilibrium(_toy_trajectory(), min_quiet=HUGE),
             "min_quiet must be non-negative and finite"),
            ("a transmit power", lambda: optimize_link(CHANNEL, HUGE, 1.0, 1e-3), "transmit power must be positive"),
            ("a bandwidth", lambda: optimize_link(CHANNEL, 1.0, HUGE, 1e-3), "bandwidth must be positive and finite"),
            ("a surface price", lambda: _with_sp1(price_irs=HUGE), r"sp\.1\.price_irs must be non-negative and finite"),
            ("a provider's bandwidth", lambda: _with_sp1(bandwidth_mhz=HUGE), r"sp\.1\.bandwidth_mhz must be positive"),
            ("a valuation", lambda: replace(CFG, valuation=HUGE), r"scenario\.valuation entries must be positive"),
            ("a noise variance", lambda: replace(CFG, noise_var=HUGE), r"scenario\.noise_var must be positive"),
            ("a seed", lambda: replace(CFG, seed=HUGE), r"scenario\.seed must be non-negative and finite"),
            ("a user position", lambda: _with_sp1(user_position=Position(HUGE, 0.0)), r"sp\.1\.user_position must be"),
            ("a distance grid entry", lambda: replace(CFG, grids=SweepGrids(distance=[HUGE])), r"grids\.distance must be"),
            # the float conversion of an array argument
            ("a share of the exact solution", lambda: ReplicatorSolution(NUMER, 100, 0.1, [HUGE, 0]), "p0 must hold"),
            ("a share of the delayed solver", lambda: solve_delayed(*PAIR, 0.1, [HUGE, 0], 1.0, SPEC), "p0 must hold"),
            ("a share of a scenario", lambda: replace(CFG, p0=[HUGE, 0]), r"scenario\.p0 must hold numbers"),
            ("a share of a history", lambda: HistoryBuffer(0.1, [[HUGE, 0], P0]), "history states must hold numbers"),
            ("a share of a utility map's state", lambda: UTILITIES([-HUGE, 0]), "a utility map's state must hold"),
            ("a sample time", lambda: ReplicatorSolution(NUMER, 100, 0.1, P0).at([HUGE]), "sample times must hold"),
            ("a lookup time", lambda: HistoryBuffer(0.1, [P0]).lookup([HUGE]), "lookup times must hold numbers"),
            ("a channel entry", lambda: ChannelSet([HUGE] * len(CHANNEL.h_direct), CHANNEL.g_bs_irs, CHANNEL.h_irs_user),
             "h_direct must hold numbers that a float can hold"),
            # a hand-built link's fields, which utility_numerators converts to floats
            ("a link's SNR", lambda: utility_numerators([LINKS[0], replace(LINKS[1], snr=HUGE)], CFG),
             r"the link of group 2 \(sp 2, subset 1, power level 1\) must hold numbers that a float can hold"),
            ("a link's power", lambda: utility_numerators([replace(LINKS[0], power_w=HUGE), LINKS[1]], CFG),
             r"the link of group 1 \(sp 1, subset 1, power level 1\) must hold numbers that a float can hold"),
        )
    },
}


@pytest.mark.parametrize("name", list(REGRESSIONS))
def test_an_out_of_range_argument_is_a_configuration_error_naming_it(name):
    call, message = REGRESSIONS[name]
    with pytest.raises(ConfigurationError, match=message):
        call()


def test_every_name_that_perfbench_imports_from_irsgame_exists():
    # the benchmark runs each commit's package: a name it imports and the package no longer has
    # fails here, in the tests, and not only when the benchmark runs
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    imported = [
        (path.name, node.module, alias.name)
        for path in sorted(perfbench.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "irsgame"
        for alias in node.names
    ]
    assert imported
    missing = [(f, module, name) for f, module, name in imported if not hasattr(importlib.import_module(module), name)]
    assert missing == []
    # it also reads names by attribute, as irsgame.dynamics.HistoryBuffer: each chain must resolve
    read = {
        (path.name, _dotted(node))
        for path in sorted(perfbench.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (_dotted(node) or "").startswith("irsgame.")
    }
    assert ("probe.py", "irsgame.dynamics.HistoryBuffer") in read
    assert sorted((f, name) for f, name in read if not _resolves(name)) == []


def test_perfbench_builds_the_oracle_of_each_workload_from_the_links(monkeypatch):
    # Case builds its Replicator oracle from each link's attributes before any sample runs: a link
    # attribute it reads and the package no longer has ends the benchmark without a result
    path = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look their module up there
    with mock.patch.dict(os.environ):  # the import sets the thread variables
        spec.loader.exec_module(run)
    for name in ("reference", "delay"):
        case = run.Case(name, 1)
        cfg = with_scalar_overrides(load_config(case.config), seed=case.seed)
        rest = ReplicatorSolution(numerators(cfg), cfg.n_users, cfg.mu, cfg.initial_population()).rest
        assert np.abs(case.oracle.rest - rest).max() <= 1e-12, name


def _dotted(node):
    """The dotted name of an attribute chain a.b.c rooted at a name, or None for any other node."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return ".".join([node.id] + names[::-1]) if names and isinstance(node, ast.Name) else None


def _resolves(dotted):
    """Whether each name of irsgame.a.b resolves, as an attribute or else as a submodule to import."""
    path, *names = dotted.split(".")
    obj = importlib.import_module(path)
    for name in names:
        path += "." + name
        if not hasattr(obj, name):
            try:
                importlib.import_module(path)
            except ImportError:
                return False
        obj = getattr(obj, name)
    return True


def test_payoffs_given_as_a_list_act_as_their_array():
    assert stability_bound(NUMER.tolist(), 0.1, CFG.n_users) == stability_bound(NUMER, 0.1, CFG.n_users)
    (listed, listed_bar), (array, array_bar) = make_utilities(NUMER.tolist(), CFG.n_users)(P0), UTILITIES(P0)
    assert listed.tobytes() == array.tobytes() and listed_bar == array_bar
    # numpy's integers are whole numbers too
    assert make_utilities(NUMER, np.int64(CFG.n_users))(P0)[0].tobytes() == array.tobytes()


def test_trajectories_and_histories_given_as_lists_act_as_their_arrays():
    # lists passed the shape checks and were kept: detect_equilibrium compared a list with a
    # float, and delayed_steps and HistoryBuffer.lookup indexed a list with an array
    listed, array = Trajectory(1.0, [P0, P0], UTILITIES), Trajectory(1.0, np.array([P0, P0]), UTILITIES)
    resting = detect_equilibrium(listed)
    assert resting is not None and utility_spread(listed, resting) is not None
    assert resting == detect_equilibrium(array) and utility_spread(listed, resting) == utility_spread(array, resting)
    run = _delayed_run()
    listed = Trajectory(run.dt, run.states.tolist(), UTILITIES)
    assert delayed_steps(listed, *PAIR, 0.1, 0.3).tobytes() == delayed_steps(run, *PAIR, 0.1, 0.3).tobytes()
    times = np.array([0.05, 0.1, 0.75])
    history = HistoryBuffer(0.1, run.states.tolist())
    assert history.lookup(times).tobytes() == HistoryBuffer(0.1, run.states).lookup(times).tobytes()
    # a float array is kept as it is: solve_delayed's history reads rows written after it is built
    assert Trajectory(run.dt, run.states, UTILITIES).states is run.states
    assert HistoryBuffer(0.1, run.states).states is run.states


# the CLI fuzz's extreme values, and values of the wrong type
NUMBERS = [0.0, 1.0, -1.0, 5e-324, 1e300, 1e-300, NAN, INF, -INF, HUGE, -HUGE]
extreme = st.sampled_from(NUMBERS + ["1", None])
shares = st.one_of(st.just(P0), st.lists(st.sampled_from(NUMBERS), min_size=2, max_size=2))


def arg(default):
    """An ordinary value or an extreme one, so that a call often has a single bad argument."""
    return st.one_of(st.just(default), extreme)


def _check_trajectory(traj):
    assert np.isfinite(traj.times).all()
    _check_shares(traj.states)
    u, u_bar = traj.utilities(traj.states)
    alive = traj.states > 0.0  # an empty group has no utility: NaN by design
    assert np.isfinite(u[alive]).all() and np.isfinite(u_bar).all()


def _check_shares(p):
    assert np.isfinite(p).all() and (p >= 0.0).all()
    assert np.abs(np.sum(p, axis=-1) - 1.0).max() <= 1e-9


def _solvers(mu, n_users, delta, dt, horizon, p0):
    spec = lambda: IntegratorSpec(dt=dt, horizon=horizon)  # noqa: E731
    field = lambda t, p: replicator_field(t, p, UTILITIES, 0.1)  # noqa: E731
    yield lambda: _check_shares(ReplicatorSolution(NUMER, n_users, mu, p0).rest)
    yield lambda: _check_trajectory(solve_replicator(NUMER, n_users, mu, p0, spec()))
    yield lambda: _check_trajectory(solve_delayed(NUMER, n_users, mu, p0, delta, spec()))
    yield lambda: _check_trajectory(integrate_ode(field, p0, spec(), UTILITIES))
    yield lambda: _check_shares(picard_solve(field, p0, np.array([0.0, horizon])).states)


def _links(mu, n_users, power, bandwidth, noise, level):
    # an SNR past the largest float is a link's result; utility_numerators reports it (payoffs below)
    def link():
        out = optimize_link(CHANNEL, power, bandwidth, noise)
        assert np.isfinite(out.w).all() and np.isfinite(out.alphas).all() and out.snr >= 0.0

    def payoffs():
        numer = utility_numerators([optimize_link(CHANNEL, dbm_to_watt(level), bandwidth, noise)] * CFG.n_groups, CFG)
        assert np.isfinite(numer).all()
        u, u_bar = make_utilities(numer, n_users)(np.array(P0))
        assert np.isfinite(u).all() and math.isfinite(u_bar)
        assert 0.0 < stability_bound(numer, mu, n_users) < INF

    yield link
    yield payoffs


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
