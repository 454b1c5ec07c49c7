"""Geometry, path loss and Rayleigh channel generation.

All links follow a log-distance power law referenced to 1 m, with independent
complex Gaussian small-scale fading on every entry.  Channels are static per
scenario: one realization is drawn per (provider, link type) from a counter
based sub-seed of the scenario seed and scaled by the path gain of that
provider's geometry.  Each group of a provider uses a leading subset of that
provider's surface (ChannelSet.subset).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ._draw import Stream
from .config import PathLossModel, _array
from .errors import ConfigurationError, NumericError


def path_loss_linear(d: float, alpha: float, model: PathLossModel) -> float:
    """Linear power gain of a link of length d with exponent alpha.

    Args:
        d: link distance in meters, must be positive.
        alpha: path loss exponent.
        model: reference gain / distance parameters.

    Returns:
        Dimensionless power gain 10**(pl0_db/10) * (d/d0)**(-alpha).

    Raises:
        NumericError: d is not finite, (d/d0)**(-alpha) overflows a float, or d/d0 underflows to 0.
    """
    if d <= 0:
        raise ConfigurationError("link distance must be positive, got %r" % (d,))
    if not d < np.inf:
        raise NumericError("link distance %r m is not finite" % (d,))
    try:
        return 10.0 ** (model.pl0_db / 10.0) * (d / model.d0) ** (-alpha)
    except (OverflowError, ZeroDivisionError):  # d / d0 can underflow to 0
        raise NumericError("path gain overflows at distance %r m with exponent %r" % (d, alpha)) from None


def complex_rayleigh(shape, rng) -> np.ndarray:
    """Unit-variance circularly symmetric complex Gaussian samples.

    rng is any object with a standard_normal(shape) method, such as _link_rng's stream or an
    np.random.Generator; the real parts are drawn first, then the imaginary parts.
    """
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
        for f in fields(self):
            setattr(self, f.name, _array(f.name, getattr(self, f.name), complex))
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
        for f in fields(self):
            if not np.all(np.isfinite(getattr(self, f.name))):
                raise NumericError("non-finite entries in %s" % f.name)

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


def _link_rng(seed: int, sp_index: int, link_code: int) -> Stream:
    # splitting rule: PCG64 seeded by SeedSequence(entropy=[seed, provider, link]), drawn without
    # numpy.random but bit for bit as np.random.Generator draws it
    return Stream([seed, sp_index, link_code])


def generate_channels(cfg) -> list[ChannelSet]:
    """Draw the static channel realization of every provider of a scenario.

    A provider's links, in sub-seed order 0 direct (BS to user), 1 BS to surface and 2 surface to user,
    are each drawn by one rule: sqrt(path_loss_linear(d, alpha, model)) * complex_rayleigh(shape,
    _link_rng(seed, provider, code)), for the link's length d, exponent alpha and shape.

    Args:
        cfg: scenario configuration (providers, geometry, path loss model, seed).

    Returns:
        One ChannelSet per provider, in provider order.
    """
    model = cfg.pathloss
    out = []
    for m, sp in enumerate(cfg.sps, start=1):
        bs, irs, user, l, k = sp.bs_position, sp.irs_position, sp.user_position, sp.antennas, sp.irs_elements
        table = [
            (bs, user, model.alpha_direct, (l,)),
            (bs, irs, model.alpha_bs_irs, (k, l)),
            (irs, user, model.alpha_irs_user, (k,)),
        ]
        links = [
            np.sqrt(path_loss_linear(a.distance_to(b), alpha, model))
            * complex_rayleigh(shape, _link_rng(int(cfg.seed), m, code))
            for code, (a, b, alpha, shape) in enumerate(table)
        ]
        out.append(ChannelSet(*links))
    return out
