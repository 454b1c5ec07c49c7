"""Population game over provider/service groups: payoffs, utilities, stability and rest points.

Users are partitioned into G groups, one per (provider, surface subset,
transmit power) service triple.  The group utility is the valued expected
per-user rate minus per-user prices; utilities fall with the group share, so
the replicator dynamics (in dynamics) settle where all surviving groups earn
the same utility.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .config import _NON_NEGATIVE, _POSITIVE, _USERS, _array, _require
from .errors import ConfigurationError, NumericError

# equilibrium detection: the rate below which a step rests, and the share above which a group counts in utility_spread
EPS_FIELD = 1e-6
EPS_MASS = 1e-2


@np.errstate(over="ignore")  # a rate past the largest float is infinite: a moving step
def quiet_steps(diffs: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """The one test of a resting step: max_g |diffs_g| / dt < EPS_FIELD per row, taking abs of diffs (T, G) in place.

    The max goes column by column, exact and NaN-propagating: numpy's cost per row would dominate short rows."""
    return functools.reduce(np.maximum, np.abs(diffs, out=diffs).T) / dt < EPS_FIELD


@dataclass
class UtilityParams:
    """Per-group valuation and per-provider unit prices, read only by perfbench/run.py's Replicator: utility_numerators
    reads the scenario.  The benchmark change of ROADMAP item 5 deletes it, with experiments.SimulationResult."""

    valuation: np.ndarray  # value per rate unit, one entry per group
    price_irs: np.ndarray  # price per active surface element, one entry per provider
    price_power: np.ndarray  # price per watt of transmit power, one entry per provider

    @classmethod
    def from_config(cls, cfg) -> "UtilityParams":
        return cls(
            valuation=np.full(cfg.n_groups, cfg.valuation, dtype=float),
            price_irs=np.array([sp.price_irs for sp in cfg.sps], dtype=float),
            price_power=np.array([sp.price_power for sp in cfg.sps], dtype=float),
        )


def utility_numerators(links: list, cfg) -> np.ndarray:
    """Valued rate minus prices of every group, before the division by its headcount.

    links are the scenario's optimized links in group order.  numer_g is valuation * bandwidth_mhz * log2(1 + snr)
    - price_irs * active elements - price_power * watts, read from cfg and the group's provider cfg.sps[sp - 1].
    The utility of group g is numer_g / (p_g * n_users), so p_g * u_g = numer_g / n_users does not depend on the
    shares.  Raises NumericError, naming the group, when an entry or their sum is not finite, and
    ConfigurationError when there is not one link per group or, naming the group, when a link's snr
    or power_w is not a number that a float can hold.
    """
    n_groups = cfg.n_groups
    if len(links) != n_groups:
        raise ConfigurationError("%d links for a scenario of %d groups" % (len(links), n_groups))
    snr, bw, cost = np.empty((3, n_groups))
    services = cfg.service_indices()
    with np.errstate(all="ignore"):  # a non-finite payoff or sum is reported below
        for g, (svc, link) in enumerate(zip(services, links)):
            sp = cfg.sps[svc.sp - 1]
            try:
                snr[g], bw[g] = link.snr, sp.bandwidth_mhz
                cost[g] = float(sp.price_irs) * len(link.alphas) + float(sp.price_power) * link.power_w
            except (TypeError, ValueError, OverflowError) as exc:  # an int past a float, say
                raise ConfigurationError(
                    "the link of %s must hold numbers that a float can hold: %s" % (_group(g, svc), exc)
                ) from None
        numer = np.asarray(cfg.valuation, dtype=float) * bw * np.log2(1.0 + snr) - cost
        total = numer.sum()
    bad = np.flatnonzero(~np.isfinite(numer))
    if bad.size:
        g = int(bad[0])
        raise NumericError("payoff of %s is %r" % (_group(g, services[g]), float(numer[g])))
    if not np.isfinite(total):
        raise NumericError("the payoffs of the %d groups sum to %r" % (n_groups, float(total)))
    return numer


def _group(g: int, svc) -> str:
    return "group %d (sp %d, subset %d, power level %d)" % (g + 1, svc.sp, svc.subset, svc.power_level)


def _check_payoff(numer, n_users) -> tuple[np.ndarray, float]:
    """The payoff pair as floats, or a ConfigurationError unless numer is a 1-D vector of finite reals
    and n_users a whole number in range."""
    x = np.asarray(numer)
    if not (x.ndim == 1 and x.dtype.kind in "iuf" and np.all(np.isfinite(x))):
        raise ConfigurationError("numer must be a 1-D vector of finite reals, got %r" % (numer,))
    return x.astype(float, copy=False), float(_require("n_users", n_users, _USERS, numbers.Integral))


def make_utilities(numer: np.ndarray, n_users: int) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Build the state -> (u, u_bar) map u_g = numer_g / (p_g * n_users), u_bar = sum_g p_g * u_g.

    numer is utility_numerators of the scenario's optimized links; only the
    division by the group share happens per call.  An empty group (share
    exactly zero) has utility NaN and no part in u_bar.  The map takes one
    state (G,) or a stack of states (T, G) by one code path: u has the
    state's shape and u_bar drops its last axis, each row of a stack equal
    to the single-state result.  Raises NumericError when a utility
    overflows a float, and ConfigurationError for a numer that is not a 1-D
    vector of finite reals, an n_users that is not a whole number in range,
    or a state whose length is not numer's.
    """
    numer, n = _check_payoff(numer, n_users)

    def utilities(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        p = _array("a utility map's state", p)
        if p.shape[-1:] != numer.shape:  # numpy would broadcast a single share, or fail on another length
            raise ConfigurationError("a utility map of %d groups got a state of shape %s" % (len(numer), p.shape))
        alive = p > 0.0
        try:
            with np.errstate(over="raise"):  # an infinite u_g would make u_bar infinite too
                u = np.divide(numer, p * n, out=np.full(p.shape, np.nan), where=alive)
        except FloatingPointError:
            raise NumericError("a utility numer_g / (p_g * n_users) overflows a float") from None
        return u, np.sum(np.where(alive, p * u, 0.0), axis=-1)

    return utilities


def stability_bound(numer: np.ndarray, mu: float, n_users: int) -> float:
    """Largest decision delay with provably stable dynamics, for any scenario.

    With c = numer / n_users (numer from utility_numerators), groups with
    c_g <= 0 die out and each survivor follows
    dp_g/dt = mu (c_g - C+ p_g(t - delta)), where C+ is the sum of the
    positive c_g.  That is stable iff mu C+ delta < pi / 2 (Hayes, 1950), so
    the bound is pi / (2 mu C+).  Raises NumericError when no c_g is positive
    or when 2 mu C+ or the bound is not a positive finite number, and
    ConfigurationError for arguments out of range, as make_utilities does.
    """
    numer, n = _check_payoff(numer, n_users)
    _require("mu", mu, _POSITIVE)
    with np.errstate(over="ignore"):  # an infinite C+ is reported below
        total = float(numer[numer > 0.0].sum())
    if total <= 0.0:
        raise NumericError("aggregate utility term is not positive")
    rate = 2.0 * mu * total / n
    if not (0.0 < rate < np.inf and np.pi / rate < np.inf):
        raise NumericError("no positive finite delay bound pi / (2 mu C+) for mu = %r, C+ = %r" % (mu, total / n))
    return float(np.pi / rate)


def detect_equilibrium(traj, min_quiet: float = 0.0) -> Optional[int]:
    """Index of the earliest sample from which the Trajectory traj stops moving, as equilibrium_index
    gives it (its time is traj.times[index]), or None; index 0 is a rest at t = 0, so test "is None".

    The index is the first i from which max_g |p_{i+1,g} - p_{i,g}| / (t_{i+1} - t_i) < EPS_FIELD
    for every later step (quiet_steps, over the differences of traj.times: (i + 1) * dt - i * dt
    is not dt), so a single sample rests from index 0.  None when the tail never settles, or when
    the quiet tail is shorter than min_quiet time units.  Delayed runs should pass min_quiet >=
    the delay: they can sit exactly still for shorter spells while their history replays an
    excursion, and only a stretch longer than the information delay proves a genuine rest
    point.  Raises ConfigurationError for a negative min_quiet.
    """
    _require("min_quiet", min_quiet, _NON_NEGATIVE)
    times = traj.times
    with np.errstate(over="ignore"):  # an infinite difference is a moving step
        quiet = quiet_steps(np.diff(traj.states, axis=0), np.diff(times))
    if not np.all(quiet[-1:]):  # a single sample is quiet
        return None
    # first index from which the tail stays quiet
    moving = np.nonzero(~quiet)[0]
    idx = 0 if moving.size == 0 else int(moving[-1]) + 1
    if float(times[-1] - times[idx]) < min_quiet:
        return None
    return idx


def utility_spread(traj, index: int) -> Optional[float]:
    """Relative spread (max - min) / max |u| of the utilities at sample index of traj, over the groups
    with share above EPS_MASS: near zero at a rest point, where every surviving group earns u_bar.

    0.0 when those utilities are all zero, None when no group is above EPS_MASS.
    """
    p = traj.states[index]
    u = traj.utilities(p)[0][p > EPS_MASS]
    if u.size == 0:
        return None
    scale = float(np.max(np.abs(u)))
    if scale == 0.0:
        return 0.0
    return float((np.max(u) - np.min(u)) / scale)
