"""Path loss, fading statistics and seeded reproducibility."""

import dataclasses

import numpy as np
import pytest

from irsgame import (
    ChannelSet,
    ConfigurationError,
    NumericError,
    PathLossModel,
    Position,
    complex_rayleigh,
    generate_channels,
    path_loss_linear,
)

MODEL = PathLossModel()  # -30 dB at 1 m


def test_position_distance():
    assert Position(0.0, 0.0).distance_to(Position(3.0, 4.0)) == 5.0
    assert Position(2.0, -1.0).distance_to(Position(2.0, -1.0)) == 0.0


def test_path_loss_reference_point():
    # at the reference distance the gain is the reference gain, 1e-3
    assert path_loss_linear(1.0, 2.0, MODEL) == pytest.approx(1e-3, rel=1e-12)
    assert path_loss_linear(1.0, 6.0, MODEL) == pytest.approx(1e-3, rel=1e-12)


def test_path_loss_hand_values():
    # d=10, alpha=2: 1e-3 * 10^-2 = 1e-5
    assert path_loss_linear(10.0, 2.0, MODEL) == pytest.approx(1e-5, rel=1e-12)
    # doubling the distance at alpha=2 quarters the gain
    g1 = path_loss_linear(25.0, 2.0, MODEL)
    g2 = path_loss_linear(50.0, 2.0, MODEL)
    assert g1 / g2 == pytest.approx(4.0, rel=1e-12)
    # the obstructed exponent costs a factor 50^4 more at d=50
    direct = path_loss_linear(50.0, 6.0, MODEL)
    hop = path_loss_linear(50.0, 2.0, MODEL)
    assert hop / direct == pytest.approx(50.0 ** 4, rel=1e-9)


def test_path_loss_rejects_nonpositive_distance():
    for d in (0.0, -1.0):
        with pytest.raises(ConfigurationError):
            path_loss_linear(d, 2.0, MODEL)


def test_path_loss_overflow_is_a_numeric_error():
    far_reference = PathLossModel(d0=1e6)
    with pytest.raises(NumericError, match=r"distance 50\.0 m with exponent 100\.0"):
        path_loss_linear(50.0, 100.0, far_reference)


def test_pathloss_model_validation():
    with pytest.raises(ConfigurationError):
        PathLossModel(d0=0.0)
    with pytest.raises(ConfigurationError):
        PathLossModel(alpha_direct=-1.0)


def test_rayleigh_unit_power():
    rng = np.random.default_rng(7)
    z = complex_rayleigh((100000,), rng)
    power = np.mean(np.abs(z) ** 2)
    assert abs(power - 1.0) < 0.02
    # circular symmetry: real and imaginary parts carry half the power each
    assert abs(np.mean(z.real ** 2) - 0.5) < 0.02
    assert abs(np.mean(z.imag ** 2) - 0.5) < 0.02
    assert abs(np.mean(z)) < 0.02


def test_generate_channels_mean_power_tracks_path_gain(default_cfg):
    # each entry is sqrt(gain(d)) * CN(0, 1): over 100 000 surface elements the
    # mean power of the surface-to-user entries is the hop's path gain
    def irs_user_power(distance, seed):
        sp = dataclasses.replace(
            default_cfg.sps[0],
            antennas=1,
            power_levels_dbm=[30.0],
            irs_elements=100000,
            irs_modules=1,
            user_position=Position(default_cfg.sps[0].irs_position.x + distance, 0.0),
        )
        chans = generate_channels(dataclasses.replace(default_cfg, sps=[sp], seed=seed))
        return np.mean(np.abs(chans[0].h_irs_user) ** 2)

    near, far = irs_user_power(10.0, 11), irs_user_power(20.0, 12)
    assert abs(near / far - 4.0) < 0.15
    gain = path_loss_linear(10.0, default_cfg.pathloss.alpha_irs_user, default_cfg.pathloss)
    assert abs(near / gain - 1.0) < 0.02


def test_channel_set_shape_validation():
    ok = ChannelSet(
        h_direct=np.ones(4, dtype=complex),
        g_bs_irs=np.ones((8, 4), dtype=complex),
        h_irs_user=np.ones(8, dtype=complex),
    )
    assert ok.n_antennas == 4 and ok.n_elements == 8
    with pytest.raises(ConfigurationError):
        ChannelSet(np.ones(3, dtype=complex), np.ones((8, 4), dtype=complex), np.ones(8, dtype=complex))
    with pytest.raises(ConfigurationError):
        ChannelSet(np.ones(4, dtype=complex), np.ones((8, 4), dtype=complex), np.ones(7, dtype=complex))


def test_channel_set_rejects_arrays_of_the_wrong_rank():
    # a (4, 1) direct channel has the length the (8, 4) surface channel expects
    with pytest.raises(ConfigurationError, match="channel arrays have wrong rank"):
        ChannelSet(np.ones((4, 1), dtype=complex), np.ones((8, 4), dtype=complex), np.ones(8, dtype=complex))


def test_channel_set_rejects_non_finite_entries():
    h_direct = np.array([1.0, np.nan, 1.0, 1.0], dtype=complex)
    with pytest.raises(NumericError, match="non-finite entries in h_direct"):
        ChannelSet(h_direct, np.ones((8, 4), dtype=complex), np.ones(8, dtype=complex))


def test_channel_set_subset():
    rng = np.random.default_rng(3)
    ch = ChannelSet(
        h_direct=complex_rayleigh((4,), rng),
        g_bs_irs=complex_rayleigh((8, 4), rng),
        h_irs_user=complex_rayleigh((8,), rng),
    )
    sub = ch.subset(3)
    assert sub.n_elements == 3
    assert np.array_equal(sub.g_bs_irs, ch.g_bs_irs[:3])
    assert np.array_equal(sub.h_irs_user, ch.h_irs_user[:3])
    assert np.array_equal(sub.h_direct, ch.h_direct)
    assert ch.subset(0).n_elements == 0
    with pytest.raises(ConfigurationError):
        ch.subset(9)
    with pytest.raises(ConfigurationError):
        ch.subset(-1)


def test_generate_channels_deterministic(default_cfg):
    a = generate_channels(default_cfg)
    b = generate_channels(default_cfg)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x.h_direct, y.h_direct)
        assert np.array_equal(x.g_bs_irs, y.g_bs_irs)
        assert np.array_equal(x.h_irs_user, y.h_irs_user)
    c = generate_channels(dataclasses.replace(default_cfg, seed=default_cfg.seed + 1))
    assert not np.array_equal(a[0].h_direct, c[0].h_direct)


def test_groups_of_one_provider_share_fading(default_cfg):
    # one channel set per provider, its full surface; every group of the
    # provider selects a subset of it
    chans = generate_channels(default_cfg)
    assert len(chans) == len(default_cfg.sps)
    for ch, sp in zip(chans, default_cfg.sps):
        assert (ch.n_antennas, ch.n_elements) == (sp.antennas, sp.irs_elements)
    # different providers draw independent fading
    assert not np.allclose(np.abs(chans[0].h_direct), np.abs(chans[1].h_direct))


def test_generate_channels_scales_with_geometry(default_cfg):
    chans = generate_channels(default_cfg)
    sp1 = default_cfg.sps[0]
    d = sp1.bs_position.distance_to(sp1.user_position)
    gain = path_loss_linear(d, default_cfg.pathloss.alpha_direct, default_cfg.pathloss)
    # h_direct is sqrt(gain) times a unit-variance draw; verify the scale by
    # rebuilding the draw from the documented splitting rule
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([default_cfg.seed, 1, 0])))
    z = complex_rayleigh((sp1.antennas,), rng)
    assert np.allclose(chans[0].h_direct, np.sqrt(gain) * z)


def test_generate_channels_missing_geometry(default_cfg):
    # a scenario validates at construction, so one without a position never reaches generate_channels
    sps = list(default_cfg.sps)
    sps[0] = dataclasses.replace(sps[0], user_position=None)
    with pytest.raises(ConfigurationError, match=r"sp\.1\.user_position"):
        dataclasses.replace(default_cfg, sps=sps)
