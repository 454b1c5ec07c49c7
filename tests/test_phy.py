"""Beamforming and phase alignment: closed forms, monotone ascent, optimality."""

from dataclasses import replace

import numpy as np
import pytest

from irsgame import (
    ChannelSet,
    ConfigurationError,
    ServiceIndex,
    build_all_links,
    complex_rayleigh,
    dbm_to_watt,
    generate_channels,
    optimize_link,
)
from irsgame import phy
from irsgame.phy import MAX_ITERS, _effective_channel, _mrt
import oracle

BW = 1.0
NOISE = 1e-3


def random_channels(rng, n_antennas=2, n_elements=4):
    return ChannelSet(
        h_direct=complex_rayleigh((n_antennas,), rng),
        g_bs_irs=complex_rayleigh((n_elements, n_antennas), rng),
        h_irs_user=complex_rayleigh((n_elements,), rng),
    )


def test_snr_single_element_hand_value():
    # h = 1, one reflecting element with h_iu = 1, G = 1, phase 0:
    # amplitude doubles, power quadruples
    ch = ChannelSet(
        h_direct=np.array([1.0 + 0j]),
        g_bs_irs=np.array([[1.0 + 0j]]),
        h_irs_user=np.array([1.0 + 0j]),
    )
    power = 2.0
    assert optimize_link(ch, power, BW, NOISE).snr == pytest.approx(4.0 * power / (BW * NOISE), rel=1e-12)
    # without the reflection the direct path alone carries the power
    snr0 = optimize_link(ch.subset(0), power, BW, NOISE).snr
    assert snr0 == pytest.approx(power / (BW * NOISE), rel=1e-12)


def test_snr_zero_channel_is_zero():
    ch = ChannelSet(
        h_direct=np.zeros(2, dtype=complex),
        g_bs_irs=np.zeros((3, 2), dtype=complex),
        h_irs_user=np.zeros(3, dtype=complex),
    )
    link = optimize_link(ch, power_w=1.0, bandwidth=BW, noise_var=NOISE)
    assert link.snr == 0.0


def test_the_cached_snr_is_the_snr_of_the_returned_link():
    # a last round that gained less than TOL returned the previous round's SNR, up to 7.1e-16 off
    for seed in range(200):
        rng = np.random.default_rng(seed)
        ch = random_channels(rng, n_antennas=int(rng.integers(1, 6)), n_elements=int(rng.integers(0, 20)))
        link = optimize_link(ch, 2.0, BW, NOISE)
        assert link.snr == oracle.snr(ch, link.w, link.alphas, BW, NOISE)


def test_single_antenna_closed_form():
    # with one antenna the aligned link amplitude is |h| plus the sum of the
    # per-element reflected magnitudes, reached in one alignment pass
    power = 2.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        ch = random_channels(rng, n_antennas=1, n_elements=5)
        expected_amp = abs(ch.h_direct[0]) + np.sum(
            np.abs(ch.h_irs_user) * np.abs(ch.g_bs_irs[:, 0])
        )
        expected = power * expected_amp ** 2 / (BW * NOISE)
        link = optimize_link(ch, power_w=power, bandwidth=BW, noise_var=NOISE)
        assert link.snr == pytest.approx(expected, rel=1e-9), "seed %d" % seed


def test_alternating_ascent_never_decreases():
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        ch = random_channels(rng, n_antennas=3, n_elements=6)
        trace = []
        link = optimize_link(ch, power_w=1.5, bandwidth=BW, noise_var=NOISE, trace=trace)
        assert len(trace) >= 2
        diffs = np.diff(trace)
        assert np.all(diffs >= -1e-12 * max(trace)), "seed %d: %r" % (seed, diffs)
        # the cached value is the trace maximum and matches a recomputation
        assert link.snr == pytest.approx(max(trace), rel=1e-12)
        recomputed = oracle.snr(ch, link.w, link.alphas, BW, NOISE)
        assert link.snr == pytest.approx(recomputed, rel=1e-12)


def test_mrt_beats_random_beams():
    rng = np.random.default_rng(99)
    ch = random_channels(rng, n_antennas=4, n_elements=4)
    power = 1.0
    link = optimize_link(ch, power_w=power, bandwidth=BW, noise_var=NOISE)
    for _ in range(100):
        w = complex_rayleigh((4,), rng)
        w = np.sqrt(power) * w / np.linalg.norm(w)
        rival = oracle.snr(ch, w, link.alphas, BW, NOISE)
        assert rival <= link.snr * (1.0 + 1e-12)


def test_phase_perturbations_never_improve():
    # the returned phases are aligned to the returned beam, so any phase
    # change at that beam can only lose power
    two_pi = 2.0 * np.pi
    for seed in range(10):
        rng = np.random.default_rng(7 + seed)
        ch = random_channels(rng, n_antennas=2, n_elements=5)
        link = optimize_link(ch, power_w=1.0, bandwidth=BW, noise_var=NOISE)
        for _ in range(20):
            bump = rng.choice([-0.1, 0.1], size=5)
            alphas = np.mod(link.alphas + bump, two_pi)
            alphas[alphas >= two_pi] = 0.0
            rival = oracle.snr(ch, link.w, alphas, BW, NOISE)
            assert rival <= link.snr * (1.0 + 1e-12)


def test_more_elements_never_hurt_single_antenna():
    rng = np.random.default_rng(21)
    ch = random_channels(rng, n_antennas=1, n_elements=8)
    snrs = [
        optimize_link(ch.subset(k), power_w=1.0, bandwidth=BW, noise_var=NOISE).snr
        for k in range(9)
    ]
    assert all(b > a for a, b in zip(snrs, snrs[1:]))


def test_zero_surface_equals_direct_mrt():
    rng = np.random.default_rng(4)
    ch = random_channels(rng, n_antennas=3, n_elements=4).subset(0)
    power = 1.0
    link = optimize_link(ch, power_w=power, bandwidth=BW, noise_var=NOISE)
    w = np.sqrt(power) * ch.h_direct / np.linalg.norm(ch.h_direct)
    assert link.snr == oracle.snr(ch, w, np.zeros(0), BW, NOISE)
    assert len(link.alphas) == 0


def test_a_channel_with_entries_near_1e_160_gives_a_beam_of_full_power():
    # the squares of such entries are subnormal and lose bits: the beam is normalized after a rescale
    ch = random_channels(np.random.default_rng(8))
    tiny = ChannelSet(1e-160 * ch.h_direct, 1e-160 * ch.g_bs_irs, 1e-160 * ch.h_irs_user)
    w = optimize_link(tiny, 2.0, BW, NOISE).w
    assert abs(float(np.vdot(w, w).real) - 2.0) <= 1e-9 * 2.0
    # a row whose norm is not that small keeps the bits of the plain formula
    eff = _effective_channel(ch, np.zeros(ch.n_elements))
    assert np.array_equal(_mrt(eff, 2.0), np.sqrt(2.0) * np.conj(eff) / np.linalg.norm(eff))


def test_every_link_holds_a_beam_of_its_power_and_one_phase_in_range_per_element():
    # random channels of 1-5 antennas and 0-11 elements, a zero channel and one near 1e-160
    rng = np.random.default_rng(9)
    channels = [random_channels(rng, int(rng.integers(1, 6)), int(rng.integers(0, 12))) for _ in range(100)]
    zero = random_channels(rng)
    channels.append(ChannelSet(0.0 * zero.h_direct, 0.0 * zero.g_bs_irs, 0.0 * zero.h_irs_user))
    channels.append(ChannelSet(1e-160 * zero.h_direct, 1e-160 * zero.g_bs_irs, 1e-160 * zero.h_irs_user))
    for i, ch in enumerate(channels):
        power = 10.0 ** rng.uniform(-3.0, 1.0)
        link = optimize_link(ch, power, BW, NOISE)
        assert link.power_w == power
        assert link.w.shape == ch.h_direct.shape and link.alphas.shape == ch.h_irs_user.shape, i
        assert abs(float(np.vdot(link.w, link.w).real) - power) <= 1e-9 * power, i
        assert np.all((link.alphas >= 0.0) & (link.alphas < 2.0 * np.pi)), i


def test_a_phase_a_hair_below_zero_is_stored_as_zero():
    # the reflected term lags the direct one by 1e-20 rad: mod(-1e-20, 2*pi) rounds to 2*pi itself
    ch = ChannelSet(np.array([1.0 + 0j]), np.array([[1.0 + 0j]]), np.array([np.exp(1e-20j)]))
    link = optimize_link(ch, 1.0, BW, NOISE)
    assert np.mod(-1e-20, 2.0 * np.pi) == 2.0 * np.pi
    assert link.alphas.tolist() == [0.0]
    assert link.snr == pytest.approx(4.0 / (BW * NOISE), rel=1e-12)


def test_optimize_link_argument_validation():
    rng = np.random.default_rng(2)
    ch = random_channels(rng)
    with pytest.raises(ConfigurationError, match="transmit power must be positive"):
        optimize_link(ch, power_w=0.0, bandwidth=BW, noise_var=NOISE)


def test_optimize_link_stops_at_an_infinite_snr(reduced_cfg):
    # inf - inf is nan, which no relative-improvement test passes: stop after the first round
    trace = []
    link = optimize_link(generate_channels(reduced_cfg)[0], 1.0, 1.0, 1e-320, trace=trace)
    assert len(trace) // 2 == 1
    assert link.snr == np.inf


def test_build_all_links_default_scenario(default_cfg, default_links):
    assert len(default_links) == default_cfg.n_groups
    svcs = default_cfg.service_indices()
    for g, svc in enumerate(svcs):
        sp = default_cfg.sps[svc.sp - 1]
        link = default_links[g]
        assert len(link.alphas) == svc.subset * sp.irs_elements_per_module
        assert link.snr > 0.0
    # larger surface subsets give a better optimized link at the same power
    for svc in svcs:
        if svc.subset == 1:
            continue
        smaller = svcs.index(ServiceIndex(svc.sp, svc.subset - 1, svc.power_level))
        assert default_links[svcs.index(svc)].snr > default_links[smaller].snr
    # higher power gives a proportionally better link: 15 dBm vs 30 dBm
    g15 = svcs.index(ServiceIndex(1, 1, 1))
    g30 = svcs.index(ServiceIndex(1, 1, 2))
    ratio = default_links[g30].snr / default_links[g15].snr
    assert ratio == pytest.approx(10.0 ** 1.5, rel=1e-6)


def test_build_all_links_deterministic(default_cfg, default_links):
    from irsgame import build_all_links, generate_channels

    again = build_all_links(default_cfg, generate_channels(default_cfg))
    assert len(again) == len(default_links)
    for g in range(len(default_links)):
        assert again[g].snr == default_links[g].snr
        assert np.array_equal(again[g].w, default_links[g].w)
        assert np.array_equal(again[g].alphas, default_links[g].alphas)


def test_sdr_bound_holds_for_random_phases_and_the_optimized_link():
    power = 1.5
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        ch = random_channels(rng, n_antennas=3, n_elements=6)
        bound = power * oracle.sdr_bound(ch) / (BW * NOISE)
        for _ in range(50):
            alphas = rng.uniform(0.0, 2.0 * np.pi, ch.n_elements)
            w = _mrt(_effective_channel(ch, alphas), power)
            assert oracle.snr(ch, w, alphas, BW, NOISE) <= bound * (1.0 + 1e-12), "seed %d" % seed
        assert optimize_link(ch, power, BW, NOISE).snr <= bound * (1.0 + 1e-12), "seed %d" % seed


def test_sdr_bound_is_the_closed_form_on_single_antenna_channels():
    # with one antenna R has rank 1 and the relaxation is tight: (sum |m_i|)^2
    for seed in range(200):
        rng = np.random.default_rng(3000 + seed)
        ch = random_channels(rng, n_antennas=1, n_elements=int(rng.integers(1, 9)))
        closed = (abs(ch.h_direct[0]) + np.sum(np.abs(ch.h_irs_user * ch.g_bs_irs[:, 0]))) ** 2
        assert oracle.sdr_bound(ch) == pytest.approx(closed, rel=1e-9, abs=0.0), "seed %d" % seed


@pytest.mark.parametrize("scenario", ["default_cfg", "reduced_cfg"])
def test_optimize_link_reaches_097_of_the_sdr_bound_on_every_bundled_link(request, scenario):
    # seeds 0-19: 120 links of default.cfg and 40 of reduced.cfg, measured minimum 0.9793
    base = request.getfixturevalue(scenario)
    for seed in range(20):
        cfg = replace(base, seed=seed)
        channels = generate_channels(cfg)
        for svc, link in zip(cfg.service_indices(), build_all_links(cfg, channels), strict=True):
            sp = cfg.sps[svc.sp - 1]
            ch = channels[svc.sp - 1].subset(svc.subset * sp.irs_elements_per_module)
            power = dbm_to_watt(sp.power_levels_dbm[svc.power_level - 1])
            bound = power * oracle.sdr_bound(ch) / (sp.bandwidth_mhz * cfg.noise_var)
            assert 0.97 * bound <= link.snr <= bound * (1.0 + 1e-12), "seed %d, %s" % (seed, svc)


def _same_link(got, want, got_trace, want_trace):
    return (
        np.array_equal(got.w, want.w)
        and np.array_equal(got.alphas, want.alphas)
        and (got.snr == want.snr or np.isnan(got.snr) and np.isnan(want.snr))
        and got_trace == want_trace
        and got.rounds == want.rounds
    )


@pytest.mark.parametrize("scenario", ["default_cfg", "reduced_cfg"])
def test_optimize_link_is_the_checked_oracle_bit_for_bit_on_every_bundled_link(request, scenario):
    # seeds 0-19: 120 links of default.cfg and 40 of reduced.cfg, trace lists included
    base = request.getfixturevalue(scenario)
    for seed in range(20):
        cfg = replace(base, seed=seed)
        channels = generate_channels(cfg)
        for svc, built in zip(cfg.service_indices(), build_all_links(cfg, channels), strict=True):
            sp = cfg.sps[svc.sp - 1]
            ch = channels[svc.sp - 1].subset(svc.subset * sp.irs_elements_per_module)
            args = (ch, dbm_to_watt(sp.power_levels_dbm[svc.power_level - 1]), sp.bandwidth_mhz, cfg.noise_var)
            got_trace, want_trace = [], []
            got = optimize_link(*args, trace=got_trace)
            want = oracle.optimize_link(*args, trace=want_trace)
            assert _same_link(got, want, got_trace, want_trace), "seed %d, %s" % (seed, svc)
            assert _same_link(built, want, [], []), "seed %d, %s" % (seed, svc)
            assert got.rounds == len(got_trace) // 2, "seed %d, %s" % (seed, svc)


def test_optimize_link_is_the_checked_oracle_bit_for_bit_on_random_channels():
    # 1-5 antennas, 0-11 elements, fading scales 1e-8 to 1 per channel, 1 mW to 10 W
    for seed in range(300):
        rng = np.random.default_rng(4000 + seed)
        ch = random_channels(rng, n_antennas=int(rng.integers(1, 6)), n_elements=int(rng.integers(0, 12)))
        scale = 10.0 ** rng.uniform(-8.0, 0.0, 3)
        ch = ChannelSet(scale[0] * ch.h_direct, scale[1] * ch.g_bs_irs, scale[2] * ch.h_irs_user)
        power = 10.0 ** rng.uniform(-3.0, 1.0)
        got_trace, want_trace = [], []
        got = optimize_link(ch, power, BW, NOISE, trace=got_trace)
        want = oracle.optimize_link(ch, power, BW, NOISE, trace=want_trace)
        assert _same_link(got, want, got_trace, want_trace), "seed %d" % seed
        assert _same_link(optimize_link(ch, power, BW, NOISE), want, [], []), "seed %d" % seed


@pytest.mark.parametrize("scenario, capped", [("default_cfg", [3, 4]), ("reduced_cfg", [1])])
def test_a_link_stopped_at_the_cap_says_so_in_its_rounds(request, monkeypatch, scenario, capped):
    # under a cap of 100 rounds, seed 168 holds three bundled links whose climb still rises at the
    # cap; the others stop by TOL
    monkeypatch.setattr(phy, "MAX_ITERS", 100)
    cfg = replace(request.getfixturevalue(scenario), seed=168)
    links = build_all_links(cfg, generate_channels(cfg))
    assert [g for g, link in enumerate(links, 1) if link.rounds == 100] == capped
    assert all(0 < link.rounds <= 100 for link in links)


@pytest.mark.parametrize("scenario, slow", [("default_cfg", [3, 4]), ("reduced_cfg", [1])])
def test_the_bundled_links_of_seed_168_stop_by_tol_below_the_cap(request, scenario, slow):
    # the links that a cap of 100 rounds stopped end after 131 rounds, below MAX_ITERS
    cfg = replace(request.getfixturevalue(scenario), seed=168)
    rounds = [link.rounds for link in build_all_links(cfg, generate_channels(cfg))]
    assert [g for g, r in enumerate(rounds, 1) if r == 131] == slow
    assert max(rounds) == 131 < MAX_ITERS


@pytest.mark.parametrize("traced", [False, True])
def test_the_climb_builds_one_effective_channel_per_round_and_one_to_start_each_link(default_cfg, monkeypatch, traced):
    # default.cfg's 6 links take 58 rounds: 64 effective channels
    channels = generate_channels(default_cfg)
    traces = []

    def climb(*args, **kwargs):  # rounds read from the trace, as perfbench/probe.py reads them
        traces.append([])
        return optimize_link(*args, trace=traces[-1], **kwargs)

    monkeypatch.setattr(phy, "optimize_link", climb)
    build_all_links(default_cfg, channels)
    rounds = sum(len(trace) // 2 for trace in traces)
    if not traced:
        monkeypatch.setattr(phy, "optimize_link", optimize_link)
    calls = 0
    effective_channel = phy._effective_channel

    def counted(*args):
        nonlocal calls
        calls += 1
        return effective_channel(*args)

    monkeypatch.setattr(phy, "_effective_channel", counted)
    links = build_all_links(default_cfg, channels)
    assert calls == rounds + len(links)
