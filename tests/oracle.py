"""Independent oracles: the scalar utility model, one group at a time, of make_utilities; and
the step-by-step simplex projection, one call per step, of dynamics._advance."""

from operator import add

import numpy as np

from irsgame import ConfigurationError, NumericalDriftError
from irsgame.dynamics import DRIFT_TOL


def expected_rate(link, p_g: float, bandwidth: float, n_users: int) -> float:
    """Expected per-user rate of a group: share of bandwidth over its members.

    rate = bandwidth / (p_g * n_users) * log2(1 + snr).  The group share p_g
    must be positive; rates of empty groups are not defined.
    """
    if p_g <= 0.0:
        raise ConfigurationError("expected_rate needs a positive group share, got %r" % (p_g,))
    return bandwidth / (p_g * n_users) * np.log2(1.0 + link.snr)


def utility(link, g: int, p_g: float, params, cfg) -> float:
    """Utility of group g on its link: valued rate minus per-user surface and power prices."""
    svc = cfg.service_indices()[g]
    sp = cfg.sps[svc.sp - 1]
    rate = expected_rate(link, p_g, sp.bandwidth_mhz, cfg.n_users)
    n_active = len(link.phases.alphas)
    cost = params.price_irs[svc.sp - 1] * n_active + params.price_power[svc.sp - 1] * link.beam.power_w
    return float(params.valuation[g] * rate - cost / (p_g * cfg.n_users))


def average_utility(p: np.ndarray, u: np.ndarray) -> float:
    """Population-average utility sum(p_g * u_g); empty groups contribute zero."""
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)
    if p.shape != u.shape:
        raise ConfigurationError("share and utility vectors differ in length")
    return float(np.sum(np.where(p > 0.0, p * u, 0.0)))


def _sum(x: list) -> float:
    """Sum from left to right: builtin sum compensates from Python 3.12, so its bits depend on the version."""
    s = 0.0
    for v in x:
        s += v
    return s


def _project(raw: list) -> tuple[list, float, float]:
    """Clamp negatives, rescale to unit sum; returns (state, drift, absorbed).

    On Python floats, since numpy's fixed cost per call would dominate vectors a few groups
    long.  A raw sum within DRIFT_TOL of 1 has a positive entry, so the clamped sum is positive.
    """
    total = _sum(raw)
    drift = abs(total - 1.0)
    # written so that a NaN drift or total raises too
    if not drift <= DRIFT_TOL:
        raise NumericalDriftError("simplex drift %.3e exceeds %.1e in one step; reduce dt" % (drift, DRIFT_TOL))
    absorbed = 0.0
    if min(raw) < 0.0:  # raw holds no NaN here: its sum passed the drift check
        absorbed = -_sum([v for v in raw if v < 0.0])
        raw = [0.0 if v < 0.0 else v for v in raw]
        total = _sum(raw)
    return [v / total for v in raw], drift, absorbed


def advance(p: list, steps, drift_sum: float, absorbed_sum: float) -> tuple[list, float, float]:
    """dynamics._advance by one _project call per step: every step divided and counted."""
    flat = []
    for dp in steps:
        p, drift, absorbed = _project(list(map(add, p, dp)))
        drift_sum += drift
        absorbed_sum += absorbed
        flat += p
    return flat, drift_sum, absorbed_sum
