"""Shared fixtures: the two bundled scenarios, simulated once per session."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

import irsgame
from irsgame import (
    Position,
    ScenarioConfig,
    ServiceLink,
    SpConfig,
    build_all_links,
    default_config,
    generate_channels,
    load_config,
    make_utilities,
    utility_numerators,
)


# the bundled reduced scenario (one service per provider), read as a run reads its config file
REDUCED_CFG = Path(irsgame.__file__).parent / "data" / "reduced.cfg"


@pytest.fixture(scope="session")
def default_cfg():
    return default_config()


@pytest.fixture(scope="session")
def default_links(default_cfg):
    return build_all_links(default_cfg, generate_channels(default_cfg))


@pytest.fixture(scope="session")
def default_utilities(default_cfg, default_links):
    return make_utilities(utility_numerators(default_links, default_cfg), default_cfg.n_users)


@pytest.fixture(scope="session")
def reduced_cfg():
    return load_config(REDUCED_CFG)


@pytest.fixture(scope="session")
def reduced_links(reduced_cfg):
    return build_all_links(reduced_cfg, generate_channels(reduced_cfg))


def group_gains(cfg, links):
    """Per-group constant part of the utility: bandwidth-scaled log-rate minus
    prices (unit valuation, which both bundled scenarios use).  Multiplying by
    1 / (p_g * n_users) gives the utility, so the interior rest point puts
    each group's share proportional to its entry."""
    out = []
    for g, svc in enumerate(cfg.service_indices()):
        sp = cfg.sps[svc.sp - 1]
        out.append(
            sp.bandwidth_mhz * np.log2(1.0 + links[g].snr)
            - sp.price_irs * svc.subset * sp.irs_elements_per_module
            - sp.price_power * links[g].power_w
        )
    return np.array(out)


def one_service_cfg(price_irs=0.1, mu=0.1, n_users=100):
    """Two identical providers with one service each: unit bandwidth, 8 elements, 1 W, on one line."""
    sp = SpConfig(
        antennas=1,
        bandwidth_mhz=1.0,
        power_levels_dbm=[30.0],
        price_irs=price_irs,
        price_power=0.1,
        irs_elements=8,
        irs_modules=1,
        bs_position=Position(0.0, 0.0),
        irs_position=Position(10.0, 0.0),
        user_position=Position(20.0, 0.0),
    )
    return ScenarioConfig(sps=[sp, dataclasses.replace(sp)], mu=mu, n_users=n_users)


def one_service_links(snr=3.0):
    """Links of one_service_cfg: 1 W beams, 8 zero-phase elements, the same snr in both groups, no rounds climbed."""
    return [ServiceLink(w=np.array([1.0 + 0j]), alphas=np.zeros(8), power_w=1.0, snr=snr, rounds=0) for _ in range(2)]
