"""Scalar utility model, one group at a time: the independent oracle of make_utilities."""

import numpy as np

from irsgame import ConfigurationError


def expected_rate(link, p_g: float, bandwidth: float, n_users: int) -> float:
    """Expected per-user rate of a group: share of bandwidth over its members.

    rate = bandwidth / (p_g * n_users) * log2(1 + snr).  The group share p_g
    must be positive; rates of empty groups are not defined.
    """
    if p_g <= 0.0:
        raise ConfigurationError("expected_rate needs a positive group share, got %r" % (p_g,))
    return bandwidth / (p_g * n_users) * np.log2(1.0 + link.snr)


def utility(link, p_g: float, params, cfg) -> float:
    """Group utility: valued rate minus per-user surface and power prices."""
    svc = link.service
    g = cfg.group_index(svc)
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
