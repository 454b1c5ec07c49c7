"""Shared fixtures: the two bundled scenarios, simulated once per session."""

import dataclasses

import numpy as np
import pytest

from irsgame import (
    Beamformer,
    PhaseShiftVector,
    ScenarioConfig,
    ServiceIndex,
    ServiceLink,
    SpConfig,
    UtilityParams,
    build_all_links,
    default_config,
    generate_channels,
    make_utilities,
    reduced_config,
)


@pytest.fixture(scope="session")
def default_cfg():
    return default_config()


@pytest.fixture(scope="session")
def default_links(default_cfg):
    return build_all_links(default_cfg, generate_channels(default_cfg))


@pytest.fixture(scope="session")
def default_utilities(default_cfg, default_links):
    params = UtilityParams.from_config(default_cfg)
    return make_utilities(default_links, params, default_cfg)


@pytest.fixture(scope="session")
def reduced_cfg():
    return reduced_config()


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
            - sp.price_power * links[g].beam.power_w
        )
    return np.array(out)


def one_service_cfg(price_irs=0.1, mu=0.1, n_users=100):
    """Two identical providers with one service each: unit bandwidth, 8 elements, 1 W."""
    sp = SpConfig(
        antennas=1,
        bandwidth_mhz=1.0,
        power_levels_dbm=[30.0],
        price_irs=price_irs,
        price_power=0.1,
        irs_elements=8,
        irs_modules=1,
    )
    return ScenarioConfig(sps=[sp, dataclasses.replace(sp)], mu=mu, n_users=n_users)


def one_service_links(snr=3.0):
    """Links of one_service_cfg: 1 W beams, 8 zero-phase elements, the same snr in both groups."""
    links = {}
    for g in range(2):
        links[g] = ServiceLink(
            service=ServiceIndex(g + 1, 1, 1),
            beam=Beamformer(np.array([1.0 + 0j]), 1.0),
            phases=PhaseShiftVector(np.zeros(8)),
            snr=snr,
        )
    return links
