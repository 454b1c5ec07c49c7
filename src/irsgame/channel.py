"""Geometry, path loss and Rayleigh channel generation.

All links follow a log-distance power law referenced to 1 m, with independent
complex Gaussian small-scale fading on every entry.  Channels are static per
scenario: one realization is drawn per (provider, link type) from a counter
based sub-seed of the scenario seed and scaled by the path gain of that
provider's geometry.  Each group of a provider uses a leading subset of that
provider's surface (ChannelSet.subset).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import PathLossModel
from .errors import ConfigurationError, NumericError

# sub-seed discriminators for the three link types of one provider
_LINK_DIRECT = 0
_LINK_BS_IRS = 1
_LINK_IRS_USER = 2


def path_loss_linear(d: float, alpha: float, model: PathLossModel) -> float:
    """Linear power gain of a link of length d with exponent alpha.

    Args:
        d: link distance in meters, must be positive.
        alpha: path loss exponent.
        model: reference gain / distance parameters.

    Returns:
        Dimensionless power gain 10**(pl0_db/10) * (d/d0)**(-alpha).

    Raises:
        NumericError: (d/d0)**(-alpha) overflows a float.
    """
    if d <= 0:
        raise ConfigurationError("link distance must be positive, got %r" % (d,))
    try:
        return 10.0 ** (model.pl0_db / 10.0) * (d / model.d0) ** (-alpha)
    except OverflowError:
        raise NumericError("path gain overflows at distance %r m with exponent %r" % (d, alpha)) from None


def complex_rayleigh(shape, rng: np.random.Generator) -> np.ndarray:
    """Unit-variance circularly symmetric complex Gaussian samples."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


@dataclass
class ChannelSet:
    """The three channels of one provider: direct, BS-to-IRS and IRS-to-user.

    Shapes: h_direct (L,), g_bs_irs (K, L), h_irs_user (K,) where L is the
    provider's antenna count and K its full IRS element count.  Reduced
    surface subsets are the leading rows/entries (see subset()).
    """

    h_direct: np.ndarray
    g_bs_irs: np.ndarray
    h_irs_user: np.ndarray

    def __post_init__(self):
        self.h_direct = np.asarray(self.h_direct, dtype=complex)
        self.g_bs_irs = np.asarray(self.g_bs_irs, dtype=complex)
        self.h_irs_user = np.asarray(self.h_irs_user, dtype=complex)
        if self.h_direct.ndim != 1 or self.g_bs_irs.ndim != 2 or self.h_irs_user.ndim != 1:
            raise ConfigurationError("channel arrays have wrong rank")
        k, l = self.g_bs_irs.shape
        if self.h_direct.shape[0] != l:
            raise ConfigurationError(
                "h_direct has %d entries but g_bs_irs has %d columns" % (self.h_direct.shape[0], l)
            )
        if self.h_irs_user.shape[0] != k:
            raise ConfigurationError(
                "h_irs_user has %d entries but g_bs_irs has %d rows" % (self.h_irs_user.shape[0], k)
            )
        for name in ("h_direct", "g_bs_irs", "h_irs_user"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise NumericError("non-finite entries in %s" % name)

    @property
    def n_antennas(self) -> int:
        return self.h_direct.shape[0]

    @property
    def n_elements(self) -> int:
        return self.h_irs_user.shape[0]

    def subset(self, n_elements: int) -> "ChannelSet":
        """The channel set restricted to the first n_elements IRS elements."""
        if not 0 <= n_elements <= self.n_elements:
            raise ConfigurationError(
                "subset size %d outside [0, %d]" % (n_elements, self.n_elements)
            )
        return ChannelSet(
            h_direct=self.h_direct,
            g_bs_irs=self.g_bs_irs[:n_elements],
            h_irs_user=self.h_irs_user[:n_elements],
        )


def _link_rng(seed: int, sp_index: int, link_code: int) -> np.random.Generator:
    # splitting rule: PCG64 seeded by SeedSequence(entropy=[seed, provider, link])
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, sp_index, link_code])))


def generate_channels(cfg) -> list[ChannelSet]:
    """Draw the static channel realization of every provider of a scenario.

    The small-scale fading of each provider is drawn once per link type from
    its own sub-seeded generator and scaled by the path gain of the
    provider's geometry.

    Args:
        cfg: scenario configuration (providers, geometry, path loss model, seed).

    Returns:
        One ChannelSet per provider, in provider order.
    """
    root = int(cfg.seed)
    model = cfg.pathloss
    out = []
    for m, sp in enumerate(cfg.sps, start=1):
        l, k = sp.antennas, sp.irs_elements
        d_direct = sp.bs_position.distance_to(sp.user_position)
        d_bs_irs = sp.bs_position.distance_to(sp.irs_position)
        d_irs_user = sp.irs_position.distance_to(sp.user_position)
        out.append(
            ChannelSet(
                h_direct=np.sqrt(path_loss_linear(d_direct, model.alpha_direct, model))
                * complex_rayleigh((l,), _link_rng(root, m, _LINK_DIRECT)),
                g_bs_irs=np.sqrt(path_loss_linear(d_bs_irs, model.alpha_bs_irs, model))
                * complex_rayleigh((k, l), _link_rng(root, m, _LINK_BS_IRS)),
                h_irs_user=np.sqrt(path_loss_linear(d_irs_user, model.alpha_irs_user, model))
                * complex_rayleigh((k,), _link_rng(root, m, _LINK_IRS_USER)),
            )
        )
    return out
