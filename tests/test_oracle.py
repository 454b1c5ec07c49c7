"""Hand values of the scalar utility oracle that test_game checks make_utilities against."""

import numpy as np
import pytest

from irsgame import ConfigurationError, UtilityParams
from conftest import one_service_cfg, one_service_links
from oracle import average_utility, expected_rate, utility


class _Link:
    """Minimal stand-in carrying just an snr attribute."""

    def __init__(self, snr):
        self.snr = snr


def test_expected_rate_hand_value():
    # snr 3 doubles the per-Hz rate; half the users of 100 share the band
    link = _Link(snr=3.0)
    assert expected_rate(link, 0.5, 1e6, 100) == pytest.approx(40000.0, rel=1e-12)
    with pytest.raises(ConfigurationError):
        expected_rate(link, 0.0, 1e6, 100)


def test_utility_hand_value():
    cfg = one_service_cfg()
    links = one_service_links(snr=3.0)
    params = UtilityParams.from_config(cfg)
    # rate = 1/(0.5*100) * log2(4) = 0.04
    # cost = 0.1 * 8 elements + 0.1 * 1 W = 0.9, shared by 50 users
    got = utility(links[0], 0, 0.5, params, cfg)
    assert got == pytest.approx(0.04 - 0.9 / 50.0, rel=1e-12)


def test_average_utility_skips_empty_groups():
    p = np.array([0.5, 0.5, 0.0])
    u = np.array([2.0, 1.0, np.nan])
    assert average_utility(p, u) == pytest.approx(1.5, rel=1e-15)
    with pytest.raises(ConfigurationError):
        average_utility(np.ones(2), np.ones(3))
