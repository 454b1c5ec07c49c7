"""Population game over provider/service groups and its replicator dynamics.

Users are partitioned into G groups, one per (provider, surface subset,
transmit power) service triple.  The group utility is the valued expected
per-user rate minus per-user prices; utilities fall with the group share, so
the dynamics settle where all surviving groups earn the same utility.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .config import _NON_NEGATIVE, _POSITIVE, _USERS, _require
from .errors import ConfigurationError, NumericError

# equilibrium detection: the rate below which a step rests, and the share above which a group counts in the spread
EPS_FIELD = 1e-6
EPS_MASS = 1e-2


def quiet_steps(diffs: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """The one test of a resting step: max_g |diffs_g| / dt < EPS_FIELD per row, taking abs of diffs (T, G) in place.

    The max goes column by column, exact and NaN-propagating: numpy's cost per row would dominate short rows."""
    return functools.reduce(np.maximum, np.abs(diffs, out=diffs).T) / dt < EPS_FIELD


@dataclass
class UtilityVector:
    """Per-group utilities plus their population average.

    Entries for empty groups (share exactly zero) are NaN: the utility of a
    service nobody uses is not applicable.  For a stack of states, u has one
    row and u_bar one entry per state.
    """

    u: np.ndarray
    u_bar: float | np.ndarray


@dataclass
class UtilityParams:
    """Economic parameters: per-group valuation, per-provider unit prices."""

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

    links are the scenario's optimized links in group order.  The utility of
    group g is numer_g / (p_g * n_users), so p_g * u_g = numer_g / n_users
    does not depend on the shares.  Raises NumericError, naming the group,
    when an entry or their sum is not finite, and ConfigurationError when
    there is not one link per group.
    """
    params = UtilityParams.from_config(cfg)
    n_groups = cfg.n_groups
    if len(links) != n_groups:
        raise ConfigurationError("%d links for a scenario of %d groups" % (len(links), n_groups))
    snr = np.empty(n_groups)
    bw = np.empty(n_groups)
    cost = np.empty(n_groups)
    services = cfg.service_indices()
    with np.errstate(all="ignore"):  # a non-finite payoff or sum is reported below
        for g, (svc, link) in enumerate(zip(services, links)):
            m = svc.sp - 1
            snr[g] = link.snr
            bw[g] = cfg.sps[m].bandwidth_mhz
            cost[g] = params.price_irs[m] * len(link.phases.alphas) + params.price_power[m] * link.beam.power_w
        numer = params.valuation * bw * np.log2(1.0 + snr) - cost
        total = numer.sum()
    bad = np.flatnonzero(~np.isfinite(numer))
    if bad.size:
        g = int(bad[0])
        svc = services[g]
        raise NumericError(
            "payoff of group %d (sp %d, subset %d, power level %d) is %r"
            % (g + 1, svc.sp, svc.subset, svc.power_level, float(numer[g]))
        )
    if not np.isfinite(total):
        raise NumericError("the payoffs of the %d groups sum to %r" % (n_groups, float(total)))
    return numer


def _check_payoff(numer, n_users) -> tuple[np.ndarray, float]:
    """The payoff pair as floats, or a ConfigurationError unless numer is a 1-D vector of finite reals
    and n_users a whole number in range."""
    x = np.asarray(numer)
    if not (x.ndim == 1 and x.dtype.kind in "iuf" and np.all(np.isfinite(x))):
        raise ConfigurationError("numer must be a 1-D vector of finite reals, got %r" % (numer,))
    return x.astype(float, copy=False), float(_require("n_users", n_users, _USERS, numbers.Integral))


def make_utilities(numer: np.ndarray, n_users: int) -> Callable[[np.ndarray], UtilityVector]:
    """Build the state -> UtilityVector map u_g = numer_g / (p_g * n_users).

    numer is utility_numerators of the scenario's optimized links; only the
    division by the group share happens per call.  The map takes one state
    (G,) or a stack of states (T, G); for a stack, u is (T, G) and u_bar is
    (T,), each row equal to the single-state result.  Raises NumericError when
    a utility overflows a float, and ConfigurationError for a numer that is not
    a 1-D vector of finite reals, an n_users that is not a whole number in
    range, or a state whose length is not numer's.
    """
    numer, n = _check_payoff(numer, n_users)
    n_nan = np.full(len(numer), np.nan)

    def utilities(p: np.ndarray) -> UtilityVector:
        p = np.asarray(p, dtype=float)
        if p.shape[-1:] != numer.shape:  # numpy would broadcast a single share, or fail on another length
            raise ConfigurationError("a utility map of %d groups got a state of shape %s" % (len(numer), p.shape))
        alive = p > 0.0
        empty = n_nan.copy() if p.ndim == 1 else np.full(p.shape, np.nan)
        try:
            with np.errstate(over="raise"):  # an infinite u_g would make u_bar infinite too
                u = np.divide(numer, p * n, out=empty, where=alive)
        except FloatingPointError:
            raise NumericError("a utility numer_g / (p_g * n_users) overflows a float") from None
        u_bar = np.sum(np.where(alive, p * u, 0.0), axis=-1)
        return UtilityVector(u=u, u_bar=float(u_bar) if p.ndim == 1 else u_bar)

    return utilities


def replicator_field(t: float, state: np.ndarray, utilities: Callable, mu: float) -> np.ndarray:
    """Replicator vector field dp_g = mu * p_g * (u_g - u_bar).

    Empty groups stay empty: their component is exactly zero without
    evaluating the (undefined) utility.
    """
    p = np.asarray(state, dtype=float)
    return selection_rates(p, utilities(p), mu)


def selection_rates(p: np.ndarray, uv: UtilityVector, mu: float) -> np.ndarray:
    """mu * p_g * (u_g - u_bar) for a state (G,) or row by row for a stack (T, G).

    Empty groups get exactly zero without reading their (NaN) utility.
    """
    u_bar = uv.u_bar if p.ndim == 1 else uv.u_bar[:, None]
    return mu * np.where(p > 0.0, p * (uv.u - u_bar), 0.0)


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


@dataclass
class Equilibrium:
    """Detected rest point of a trajectory."""

    time: float
    index: int
    utility_spread: Optional[float]  # relative spread among surviving groups, None without a utility map


def detect_equilibrium(traj, min_quiet: float = 0.0) -> Optional[Equilibrium]:
    """Earliest time after which the Trajectory traj (its shape checked on construction) stops moving.

    Uses finite differences of the stored states: the first sample index i from which
    max_g |p_{i+1,g} - p_{i,g}| / dt < EPS_FIELD for every later step (quiet_steps), so a single
    sample rests from its own time.  Returns None when the tail never settles, or when the
    quiet tail is shorter than min_quiet time units.  Delayed runs should pass min_quiet >=
    the delay: they can sit exactly still for shorter spells while their history replays an
    excursion, and only a stretch longer than the information delay proves a genuine rest
    point.  When the trajectory keeps its utility map, reports the relative utility spread
    over groups with share above EPS_MASS at the detected sample.  Raises ConfigurationError
    for a negative min_quiet.
    """
    _require("min_quiet", min_quiet, _NON_NEGATIVE)
    quiet = quiet_steps(np.diff(traj.states, axis=0), np.diff(traj.times))
    if not np.all(quiet[-1:]):  # a single sample is quiet
        return None
    # first index from which the tail stays quiet
    moving = np.nonzero(~quiet)[0]
    idx = 0 if moving.size == 0 else int(moving[-1]) + 1
    if float(traj.times[-1] - traj.times[idx]) < min_quiet:
        return None
    return Equilibrium(time=float(traj.times[idx]), index=idx, utility_spread=_spread(traj, idx))


def _spread(traj, idx: int) -> Optional[float]:
    if traj.utilities is None:
        return None
    p = traj.states[idx]
    u = traj.utilities(p).u[p > EPS_MASS]
    if u.size == 0:
        return None
    scale = float(np.max(np.abs(u)))
    if scale == 0.0:
        return 0.0
    return float((np.max(u) - np.min(u)) / scale)
