"""Independent oracles: the scalar utility model, one group at a time, of make_utilities; the
row max of game.quiet_steps by np.max along each row; the step-by-step simplex projection, one
call per step, of dynamics._advance; the delayed replicator dynamics one step and one scalar
history lookup at a time, of solve_delayed; the exact solution of the delay equation that
solve_delayed approximates; the semidefinite relaxation bound that certifies phy.optimize_link;
optimize_link with checked beam, phase and SNR objects every round; ReplicatorSolution.at with a
new array per expression; and the CSV and JSON writers that build a whole file's text at once."""

import json
import math
from fractions import Fraction
from math import factorial
from operator import add

import numpy as np

from irsgame import (
    Beamformer,
    ConfigurationError,
    NumericalDriftError,
    PhaseShiftVector,
    ServiceLink,
    Trajectory,
    compute_snr,
)
from irsgame.config import _POSITIVE, _require
from irsgame.dynamics import DRIFT_TOL, _growth
from irsgame.game import EPS_FIELD
from irsgame.phy import MAX_ITERS, TOL, TWO_PI, _mrt


def expected_rate(link, p_g: float, bandwidth: float, n_users: int) -> float:
    """Expected per-user rate of a group: share of bandwidth over its members.

    rate = bandwidth / (p_g * n_users) * log2(1 + snr).  The group share p_g
    must be positive; rates of empty groups are not defined.
    """
    if p_g <= 0.0:
        raise ConfigurationError("expected_rate needs a positive group share, got %r" % (p_g,))
    return bandwidth / (p_g * n_users) * np.log2(1.0 + link.snr)


def utility(link, g: int, p_g: float, params, cfg) -> float:
    """Utility of group g on its link: valued rate minus per-user surface and power prices."""
    svc = cfg.service_indices()[g]
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


def _sum(x: list) -> float:
    """Sum from left to right: builtin sum compensates from Python 3.12, so its bits depend on the version."""
    s = 0.0
    for v in x:
        s += v
    return s


def _project(raw: list) -> tuple[list, float, float]:
    """Clamp negatives, rescale to unit sum; returns (state, drift, absorbed).

    On Python floats, since numpy's fixed cost per call would dominate vectors a few groups
    long.  A raw sum within DRIFT_TOL of 1 has a positive entry, so the clamped sum is positive.
    """
    total = _sum(raw)
    drift = abs(total - 1.0)
    # written so that a NaN drift or total raises too
    if not drift <= DRIFT_TOL:
        raise NumericalDriftError("simplex drift %.3e exceeds %.1e in one step; reduce dt" % (drift, DRIFT_TOL))
    absorbed = 0.0
    if min(raw) < 0.0:  # raw holds no NaN here: its sum passed the drift check
        absorbed = -_sum([v for v in raw if v < 0.0])
        raw = [0.0 if v < 0.0 else v for v in raw]
        total = _sum(raw)
    return [v / total for v in raw], drift, absorbed


def advance(p: list, steps, drift_sum: float, absorbed_sum: float, clamped: int) -> tuple[list, float, float, int]:
    """dynamics._advance by one _project call per step: every step divided and counted.

    Returns the states, and the running sums of drift, absorbed mass and clamped steps.
    """
    flat = []
    for dp in steps:
        p, drift, absorbed = _project(list(map(add, p, dp)))
        drift_sum += drift
        absorbed_sum += absorbed
        clamped += absorbed > 0.0  # a step with a negative entry absorbs a positive mass
        flat += p
    return flat, drift_sum, absorbed_sum, clamped


def quiet_steps(diffs, dt) -> np.ndarray:
    """game.quiet_steps as the row form: np.max of |diffs| along each row, on a copy of diffs."""
    return np.max(np.abs(diffs), axis=1) / dt < EPS_FIELD


def history(states, dt: float, t: float) -> np.ndarray:
    """State at time t from the samples states[i] at i * dt, the rule of HistoryBuffer.lookup.

    A time within 1e-9 steps of a sample is that sample, one between two samples their linear
    interpolation, and t <= 0 the initial state; past the newest sample is a ConfigurationError.
    """
    if t <= 0.0:  # before t / dt can pass the largest float
        return states[0]
    x = t / dt
    i = int(round(x))
    if abs(x - i) < 1e-9:
        frac = 0.0
    else:
        i = int(np.floor(x))
        frac = x - i
    if i >= len(states) or (i == len(states) - 1 and frac > 0.0):
        raise ConfigurationError("history lookup at t=%r is beyond the newest sample" % (t,))
    if frac == 0.0:
        return states[i]
    return (1.0 - frac) * states[i] + frac * states[i + 1]


@np.errstate(over="ignore", invalid="ignore")  # a step that overflows fails the drift check
def delayed_euler(utilities, mu: float, p0, delta: float, spec) -> tuple[Trajectory, float, float, int]:
    """dynamics.solve_delayed one forward-Euler step at a time.

    Step i reads the state at i * dt - delta through history(), evaluates the replicator
    field mu * p_g * (u_g - u_bar) there (empty groups zero) and is projected by advance.
    Returns the trajectory, which keeps the utility map, and advance's sums over the run:
    drift, absorbed mass and clamped steps.
    """
    n, dt = spec.n_steps(), spec.dt
    states = [np.array(p0, dtype=float)]
    sums = 0.0, 0.0, 0
    for i in range(n):
        p_d = history(states, dt, i * dt - delta)
        uv = utilities(p_d)
        step = dt * (mu * np.where(p_d > 0.0, p_d * (uv.u - uv.u_bar), 0.0))
        flat, *sums = advance(states[-1].tolist(), [step.tolist()], *sums)
        states.append(np.array(flat))
    return Trajectory(np.arange(n + 1) * dt, np.array(states), utilities), *sums


def delay_exact(c, mu: float, p0, delta: float, times) -> np.ndarray:
    """Exact shares (T, G) of dp_g/dt = mu (c_g - C p_g(t - delta)), p = p0 for t <= 0, C = sum(c).

    This is the delayed replicator dynamics of the utilities c_g / p_g while no share reaches
    zero.  By the method of steps (Bellman & Cooke, 1963, ch. 3), x = p - c / C solves
    x' = -a x(t - delta) with a = mu C, and for t > 0
    x(t) = x0 * sum over k >= 0 with t - (k - 1) delta > 0 of (-a)^k (t - (k - 1) delta)^k / k!.
    Evaluated in fractions.Fraction from the float inputs, then rounded once per share.
    """
    c = [Fraction(float(v)) for v in c]
    big_c = sum(c)
    rest = [v / big_c for v in c]
    x0 = [Fraction(float(v)) - r for v, r in zip(p0, rest)]
    a, d = Fraction(mu) * big_c, Fraction(delta)
    rows = []
    for t in times:
        t, series, k = Fraction(float(t)), Fraction(1), 1
        while t - (k - 1) * d > 0:  # finitely many terms, for delta > 0
            series += (-a * (t - (k - 1) * d)) ** k / factorial(k)
            k += 1
        rows.append([float(r + x * series) for r, x in zip(rest, x0)])
    return np.array(rows)


def sdr_bound(ch, rank: int = 4, iters: int = 200) -> float:
    """Upper bound on max ||h_d^H + sum_k e^{-j alpha_k} phi_k||^2 over the surface phases alpha.

    phi_k is row k of Phi = diag(h_r^H) G.  With x = [e^{-j alpha}; 1] and M = [Phi; h_d^H],
    the norm is x^H R x, R = conj(M M^H), so with V = x x^H it is at most the relaxation
    max tr(R V) over V >= 0 with unit diagonal (Wu & Zhang, 2019).  Its optimum is sought by a
    rank-r Burer-Monteiro ascent V = U U^H (Burer & Monteiro, 2003), from a seeded start: each
    row of U becomes its row of R U scaled to unit norm, which never lowers tr(R V) for R >= 0.
    y = diag(R V) is then a dual point, and every y gives the weak-duality bound
    sum(y) + n max(0, -lambda_min(Diag(y) - R)): shifted by that margin, Diag(y) - R >= 0.
    The SNR of a link at transmit power P is at most P * bound / (bandwidth * noise_var).
    """
    phi = np.conj(ch.h_irs_user)[:, None] * ch.g_bs_irs
    m = np.vstack([phi, np.conj(ch.h_direct)[None, :]])
    r = np.conj(m @ m.conj().T)
    n = len(r)
    rng = np.random.default_rng(0)
    u = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    for _ in range(iters):
        u = r @ u
        u /= np.linalg.norm(u, axis=1, keepdims=True)
    y = np.sum((r @ u) * np.conj(u), axis=1).real
    margin = -np.linalg.eigvalsh(np.diag(y) - r)[0]
    return float(np.sum(y) + n * max(0.0, margin))


def _effective_channel(ch, phases) -> np.ndarray:
    """The row h^H + h_iu^H Theta^H G of a checked PhaseShiftVector."""
    eff = np.conj(ch.h_direct)
    if len(phases):
        eff = eff + (np.conj(ch.h_irs_user) * np.conj(phases.coefficients)) @ ch.g_bs_irs
    return eff


def optimize_link(ch, power_w: float, bandwidth: float, noise_var: float, trace: list | None = None):
    """phy.optimize_link as checked objects: a new PhaseShiftVector and Beamformer every round, every SNR
    by compute_snr, and the effective channel built again for the next round's beam."""
    _require("transmit power", power_w, _POSITIVE)
    alphas = np.zeros(ch.n_elements)
    snr = -np.inf
    beam = None
    for _ in range(MAX_ITERS):
        phases = PhaseShiftVector(alphas)
        beam = Beamformer(_mrt(_effective_channel(ch, phases), power_w), power_w)
        if trace is not None:
            trace.append(compute_snr(ch, beam, phases, bandwidth, noise_var))
        # align every reflected term with the direct term's phase
        if len(alphas):
            a0 = np.conj(ch.h_direct) @ beam.w
            b = np.conj(ch.h_irs_user) * (ch.g_bs_irs @ beam.w)
            ref = np.angle(a0) if abs(a0) > 0.0 else 0.0
            alphas = np.mod(np.angle(b) - ref, TWO_PI)
            # mod can return the period itself when the argument is a tiny negative
            alphas[alphas >= TWO_PI] = 0.0
        phases = PhaseShiftVector(alphas)
        new_snr = compute_snr(ch, beam, phases, bandwidth, noise_var)
        if trace is not None:
            trace.append(new_snr)
        # a zero or non-finite SNR ends the climb before inf - inf gives nan
        stop = (new_snr == 0.0 and snr <= 0.0) or not np.isfinite(new_snr)
        stop = stop or (snr > -np.inf and new_snr - snr <= TOL * abs(snr))
        snr = new_snr
        if stop:
            break
    return ServiceLink(beam=beam, phases=PhaseShiftVector(alphas), snr=snr)


def replicator_at(solution, times) -> np.ndarray:
    """ReplicatorSolution.at as q + g * slope, clamped at zero, in new arrays: the sampler its in-place rows match."""
    times = np.asarray(times, dtype=float)
    states = np.empty((len(times), len(solution.rest)))
    for t_k, t_end, q, big_c, slope in solution.pieces:
        i, j = np.searchsorted(times, [t_k, t_end])
        if not slope.any():
            states[i:j] = q
        else:  # rounding can put a share a hair below zero just before it empties
            states[i:j] = np.maximum(q + _growth(times[i:j] - t_k, solution.mu, big_c)[:, None] * slope, 0.0)
    return states


def write_csv(path, meta: list, columns: list, rows):
    """experiments._write_csv by Python's own "%.17g": every line formatted, joined, then written at once."""
    # %.17g reads back to the same float and prints integers below 10**17 exactly
    row = ",".join(["%.17g"] * len(columns))
    lines = ["# %s = %s" % (k, v) for k, v in meta]
    lines.append(",".join(columns))
    lines.extend(row % tuple(r) for r in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_json(path, meta: list, columns: list, rows):
    """experiments._write_json as one json.dumps of Python rows: one array per column, a non-finite cell as null."""
    cols = {name: [v if -math.inf < v < math.inf else None for v in col] for name, col in zip(columns, zip(*rows))}
    path.write_text(json.dumps({"meta": dict(meta), **cols}) + "\n", encoding="utf-8")
    return path
