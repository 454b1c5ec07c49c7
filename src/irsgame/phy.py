"""Beamforming, phase shifts and SNR for one provider/service link.

The received signal combines the direct path with the surface-reflected
path, y = (h^H + h_iu^H Theta^H G) w.  optimize_link checks its scalars, then
alternates, on plain arrays, maximum ratio transmission with per-element
alignment of each reflected term to the direct term; neither lowers the SNR.
The ServiceLink it returns holds plain values: the beam, the phases, the
SNR and the rounds made.
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
MAX_ITERS = 150


@dataclass
class ServiceLink:
    """An optimized link: the beam w (||w||^2 = power_w watts), one surface phase in [0, 2*pi) per
    active element, the resulting SNR and the full beam-and-phase rounds made (MAX_ITERS when the
    climb ran to the cap, which no link of the bundled configs at seeds 0-299 reaches)."""

    w: np.ndarray
    alphas: np.ndarray
    power_w: float
    snr: float
    rounds: int

    # only for perfbench/run.py's Replicator, which reads each link's phases.alphas and beam.power_w,
    # as experiments.SimulationResult is kept only for perfbench: the benchmark change of ROADMAP
    # item 5 makes it read alphas and power_w, and deletes this line
    beam = phases = property(lambda self: self)


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
    or after MAX_ITERS rounds (the bundled configs' links of seeds 0-299 stop
    by TOL within 135).  An optional trace list collects the SNR after
    every half step (beam update, then phase update) for monotonicity checks.

    Checks its scalars at entry, and raises ConfigurationError when the beam
    cannot hold power_w (a power near the least float).  Returns a ServiceLink
    whose snr is the SNR of its beam and phases, and whose rounds count the
    full rounds made (len(trace) // 2).
    """
    _require("transmit power", power_w, _POSITIVE)
    _require("bandwidth", bandwidth, _POSITIVE)
    _require("noise_var", noise_var, _POSITIVE)
    alphas = np.zeros(ch.n_elements)
    eff = _effective_channel(ch, alphas)
    snr = -np.inf
    for rounds in range(1, MAX_ITERS + 1):
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
    norm_sq = float(np.vdot(w, w).real)
    if not abs(norm_sq - power_w) <= 1e-9 * power_w:  # the squares of a beam near the least float lose bits
        raise ConfigurationError("||w||^2 = %r does not match the power budget %r" % (norm_sq, power_w))
    return ServiceLink(w, alphas, power_w, snr, rounds)


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
