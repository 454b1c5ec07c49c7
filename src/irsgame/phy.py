"""Beamforming, phase shifts and SNR for one provider/service link.

The received signal combines the direct path with the surface-reflected
path, y = (h^H + h_iu^H Theta^H G) w.  optimize_link checks its scalars, then
alternates, on plain arrays, maximum ratio transmission with per-element
alignment of each reflected term to the direct term; neither lowers the SNR.
compute_snr and the ServiceLink it returns are the checked boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet
from .config import _POSITIVE, _require, dbm_to_watt
from .errors import ConfigurationError, NumericError

TWO_PI = 2.0 * np.pi

# stopping rule of optimize_link
TOL = 1e-6
MAX_ITERS = 100


@dataclass
class PhaseShiftVector:
    """Per-element surface phases, radians in [0, 2*pi).

    The reflection coefficients exp(1j * alpha) all have unit modulus; the
    surface neither amplifies nor attenuates.
    """

    alphas: np.ndarray

    def __post_init__(self):
        self.alphas = np.asarray(self.alphas, dtype=float)
        if self.alphas.ndim != 1:
            raise ConfigurationError("phase vector must be one-dimensional")
        if not np.all((self.alphas >= 0.0) & (self.alphas < TWO_PI)):  # a NaN phase fails too
            raise ConfigurationError("phases must lie in [0, 2*pi)")

    @property
    def coefficients(self) -> np.ndarray:
        return np.exp(1j * self.alphas)

    def __len__(self) -> int:
        return len(self.alphas)


@dataclass
class Beamformer:
    """Transmit beam w with ||w||^2 equal to the radiated power in watts."""

    w: np.ndarray
    power_w: float

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=complex)
        if self.w.ndim != 1:
            raise ConfigurationError("beamforming vector must be one-dimensional")
        _require("transmit power", self.power_w, _POSITIVE)
        norm_sq = float(np.vdot(self.w, self.w).real)
        if not abs(norm_sq - self.power_w) <= 1e-9 * self.power_w:  # a NaN entry fails too
            raise ConfigurationError(
                "||w||^2 = %r does not match the power budget %r" % (norm_sq, self.power_w)
            )


@dataclass
class ServiceLink:
    """An optimized link: beam, surface phases and the resulting SNR."""

    beam: Beamformer
    phases: PhaseShiftVector
    snr: float


def compute_snr(
    ch: ChannelSet,
    beam: Beamformer,
    phases: PhaseShiftVector,
    bandwidth: float,
    noise_var: float,
) -> float:
    """SNR of the combined direct plus reflected link.

    snr = |(h^H + h_iu^H Theta^H G) w|^2 / (bandwidth * noise_var), with
    one phase per surface element (ChannelSet.subset takes fewer elements).
    """
    _require("bandwidth", bandwidth, _POSITIVE)
    _require("noise_var", noise_var, _POSITIVE)
    if len(phases) != ch.n_elements:
        raise ConfigurationError(
            "phase vector has %d entries but the surface has %d elements" % (len(phases), ch.n_elements)
        )
    if len(beam.w) != ch.n_antennas:
        raise ConfigurationError(
            "beam has %d entries but the BS has %d antennas" % (len(beam.w), ch.n_antennas)
        )
    return _snr(_effective_channel(ch, phases.alphas), beam.w, bandwidth, noise_var)


def _snr(eff: np.ndarray, w: np.ndarray, bandwidth: float, noise_var: float) -> float:
    """|eff @ w|^2 / (bandwidth * noise_var) for an effective row eff and a beam w."""
    amp = eff @ w
    with np.errstate(all="ignore"):  # utility_numerators reports a non-finite SNR
        return float(abs(amp) ** 2 / (bandwidth * noise_var))


def _effective_channel(ch: ChannelSet, alphas: np.ndarray) -> np.ndarray:
    """The row h^H + h_iu^H Theta^H G, one phase per surface element."""
    eff = np.conj(ch.h_direct)
    if len(alphas):
        eff = eff + (np.conj(ch.h_irs_user) * np.conj(np.exp(1j * alphas))) @ ch.g_bs_irs
    return eff


def _mrt(eff_conj: np.ndarray, power_w: float) -> np.ndarray:
    """Maximum ratio beam for the effective row channel eff_conj = (h_eff)^H."""
    with np.errstate(over="ignore"):  # reported below
        norm = np.linalg.norm(eff_conj)
    if not norm < np.inf:
        raise NumericError("the effective channel's norm %r is not finite" % float(norm))
    if norm == 0.0:
        w = np.zeros(len(eff_conj), dtype=complex)
        w[0] = 1.0
        return np.sqrt(power_w) * w
    if norm < 1e-150:  # the squares of entries this small lose bits: scale the row up first
        eff_conj = eff_conj / np.max(np.abs(eff_conj))
        norm = np.linalg.norm(eff_conj)
    return np.sqrt(power_w) * np.conj(eff_conj) / norm


def optimize_link(
    ch: ChannelSet,
    power_w: float,
    bandwidth: float,
    noise_var: float,
    trace: list | None = None,
) -> ServiceLink:
    """Alternating beam / phase optimization of one link.

    Starts from all-zero phases and stops once the relative SNR improvement
    of a full round falls below TOL, at the first SNR that is not finite,
    or after MAX_ITERS rounds.  An optional trace list collects the SNR after
    every half step (beam update, then phase update) for monotonicity checks.

    Checks its scalars at entry.  Returns a checked ServiceLink whose cached
    snr field equals compute_snr for the returned beam and phases.
    """
    _require("transmit power", power_w, _POSITIVE)
    _require("bandwidth", bandwidth, _POSITIVE)
    _require("noise_var", noise_var, _POSITIVE)
    alphas = np.zeros(ch.n_elements)
    eff = _effective_channel(ch, alphas)
    snr = -np.inf
    for _ in range(MAX_ITERS):
        w = _mrt(eff, power_w)
        if trace is not None:
            trace.append(_snr(eff, w, bandwidth, noise_var))
        # align every reflected term with the direct term's phase
        a0 = np.conj(ch.h_direct) @ w
        b = np.conj(ch.h_irs_user) * (ch.g_bs_irs @ w)
        ref = np.angle(a0) if abs(a0) > 0.0 else 0.0
        alphas = np.mod(np.angle(b) - ref, TWO_PI)
        # mod can return the period itself when the argument is a tiny negative
        alphas[alphas >= TWO_PI] = 0.0
        eff = _effective_channel(ch, alphas)
        new_snr = _snr(eff, w, bandwidth, noise_var)
        if trace is not None:
            trace.append(new_snr)
        # a zero or non-finite SNR ends the climb before inf - inf gives nan
        stop = (new_snr == 0.0 and snr <= 0.0) or not np.isfinite(new_snr)
        stop = stop or (snr > -np.inf and new_snr - snr <= TOL * abs(snr))
        snr = new_snr
        if stop:
            break
    return ServiceLink(beam=Beamformer(w, power_w), phases=PhaseShiftVector(alphas), snr=snr)


def build_all_links(cfg, channels: list[ChannelSet]) -> list[ServiceLink]:
    """Optimize every group's link of a scenario, in group order.

    Group (sp, subset k, power j) uses the first k * elements_per_module
    surface elements of its provider's channel set and the j-th power level.
    Raises ConfigurationError unless there is one channel set per provider.
    """
    if len(channels) != len(cfg.sps):
        raise ConfigurationError("%d channel sets for a scenario of %d providers" % (len(channels), len(cfg.sps)))
    links = []
    for svc in cfg.service_indices():
        sp = cfg.sps[svc.sp - 1]
        links.append(
            optimize_link(
                channels[svc.sp - 1].subset(svc.subset * sp.irs_elements_per_module),
                power_w=dbm_to_watt(sp.power_levels_dbm[svc.power_level - 1]),
                bandwidth=sp.bandwidth_mhz,
                noise_var=cfg.noise_var,
            )
        )
    return links
