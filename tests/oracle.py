"""Independent oracles: the scalar utility model, one group at a time, of make_utilities; the
row max of game.quiet_steps by np.max along each row; game.detect_equilibrium over the whole
grid at once, not back from the tail a block at a time; the step-by-step simplex projection, one
call per step, of dynamics._advance; the delayed replicator dynamics one step and one scalar
history lookup at a time, of solve_delayed; the exact solution of the delay equation that
solve_delayed approximates; the semidefinite relaxation bound that certifies phy.optimize_link;
optimize_link with its beam power and phase range asserted every round, every SNR by one formula
(snr); ReplicatorSolution.at with a new array per expression; and the CSV and JSON writers that
build a whole file's text at once.

Also the reference solvers that no run executes: the replicator field of any utility map at
one state (replicator_field; the package writes its field only in dynamics._steps_reading),
classic RK4 steps of any ordinary field (integrate_ode, which projects each step through
dynamics._advance) and the Picard iteration of its integral form (picard_solve, which raises
NonConvergenceError), both reading the field by one checked rule (_rate); and config_to_text,
the config writer that parse_config reads back."""

import json
import math
from collections import namedtuple
from fractions import Fraction
from itertools import groupby
from math import factorial
from operator import add
from typing import Callable

import numpy as np

from irsgame import (
    ConfigurationError,
    HistoryBuffer,
    IntegratorSpec,
    NumericalDriftError,
    ScenarioConfig,
    ServiceLink,
    Trajectory,
)
from irsgame.config import _POSITIVE, _array, _require
from irsgame.dynamics import DRIFT_TOL, _advance, _check_p0, _growth
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
    cost = params.price_irs[svc.sp - 1] * len(link.alphas) + params.price_power[svc.sp - 1] * link.power_w
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


@np.errstate(over="ignore")  # an infinite difference or rate is a moving step
def detect_equilibrium(traj, min_quiet: float = 0.0):
    """game.detect_equilibrium over the whole grid at once: every step's rate by quiet_steps, over
    the differences of traj.times, and the index after the last moving step."""
    times = traj.times
    quiet = quiet_steps(np.diff(traj.states, axis=0), np.diff(times))
    if not np.all(quiet[-1:]):  # a single sample is quiet
        return None
    moving = np.nonzero(~quiet)[0]
    idx = 0 if moving.size == 0 else int(moving[-1]) + 1
    if float(times[-1] - times[idx]) < min_quiet:
        return None
    return idx


def history(states, dt: float, t: float) -> np.ndarray:
    """State at time t from the samples states[i] at i * dt, the rule of HistoryBuffer.lookup.

    A time within 1e-9 steps or 4 ulps of t / dt of a sample is that sample, one between two
    samples their linear interpolation, and t <= 0 the initial state; past the newest sample is a
    ConfigurationError.
    """
    if t <= 0.0:  # before t / dt can pass the largest float
        return states[0]
    x = t / dt
    i = int(round(x))
    if abs(x - i) < max(1e-9, 4.0 * math.ulp(x)):
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
        u, u_bar = utilities(p_d)
        step = dt * (mu * np.where(p_d > 0.0, p_d * (u - u_bar), 0.0))
        flat, *sums = advance(states[-1].tolist(), [step.tolist()], *sums)
        states.append(np.array(flat))
    return Trajectory(dt, np.array(states), utilities), *sums


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


def _effective_channel(ch, alphas) -> np.ndarray:
    """The row h^H + h_iu^H Theta^H G, one phase per surface element."""
    eff = np.conj(ch.h_direct)
    if len(alphas):
        eff = eff + (np.conj(ch.h_irs_user) * np.conj(np.exp(1j * alphas))) @ ch.g_bs_irs
    return eff


def snr(ch, w, alphas, bandwidth: float, noise_var: float) -> float:
    """SNR |(h^H + h_iu^H Theta^H G) w|^2 / (bandwidth * noise_var) of a beam w and the surface phases alphas."""
    with np.errstate(all="ignore"):  # a link's SNR may pass the largest float
        return float(abs(_effective_channel(ch, alphas) @ w) ** 2 / (bandwidth * noise_var))


def optimize_link(ch, power_w: float, bandwidth: float, noise_var: float, trace: list | None = None):
    """phy.optimize_link with its postconditions asserted every round: ||w||^2 is the power within 1e-9
    and every phase lies in [0, 2*pi).  Every SNR comes from snr(), and the effective channel is built
    again for the next round's beam."""
    _require("transmit power", power_w, _POSITIVE)
    alphas = np.zeros(ch.n_elements)
    last = -np.inf
    for rounds in range(1, MAX_ITERS + 1):
        w = _mrt(_effective_channel(ch, alphas), power_w)
        assert abs(float(np.vdot(w, w).real) - power_w) <= 1e-9 * power_w, (w, power_w)
        if trace is not None:
            trace.append(snr(ch, w, alphas, bandwidth, noise_var))
        # align every reflected term with the direct term's phase
        if len(alphas):
            a0 = np.conj(ch.h_direct) @ w
            b = np.conj(ch.h_irs_user) * (ch.g_bs_irs @ w)
            ref = np.angle(a0) if abs(a0) > 0.0 else 0.0
            alphas = np.mod(np.angle(b) - ref, TWO_PI)
            # mod can return the period itself when the argument is a tiny negative
            alphas[alphas >= TWO_PI] = 0.0
        assert np.all((alphas >= 0.0) & (alphas < TWO_PI)), alphas
        new = snr(ch, w, alphas, bandwidth, noise_var)
        if trace is not None:
            trace.append(new)
        # a zero or non-finite SNR ends the climb before inf - inf gives nan
        stop = (new == 0.0 and last <= 0.0) or not np.isfinite(new)
        stop = stop or (last > -np.inf and new - last <= TOL * abs(last))
        last = new
        if stop:
            break
    return ServiceLink(w, alphas, power_w, last, rounds)


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


class NonConvergenceError(RuntimeError):
    """An iterative solver exhausted its budget without reaching tolerance."""


# picard_solve's stopping rule: the sup-norm change between rounds that ends it, and the most rounds
PICARD_TOL = 1e-10
PICARD_ROUNDS = 200


def replicator_field(t: float, state: np.ndarray, utilities: Callable, mu: float) -> np.ndarray:
    """Replicator vector field dp_g = mu * p_g * (u_g - u_bar) at one state, written apart from
    dynamics._steps_reading, as delayed_euler's step is.

    Empty groups stay empty: their component is exactly zero without
    evaluating the (undefined) utility.
    """
    p = np.asarray(state, dtype=float)
    u, u_bar = utilities(p)
    return mu * np.where(p > 0.0, p * (u - u_bar), 0.0)


def _rate(field: Callable, t: float, p: np.ndarray) -> np.ndarray:
    """field(t, p) as an array of the state's shape, the one rule by which both reference solvers read a field."""
    dp = np.asarray(field(t, p))  # a list would not scale by dt
    if dp.shape != p.shape:  # numpy would broadcast a single value, and _advance truncate a longer one
        raise ConfigurationError("the field returned shape %s for a state of shape %s" % (dp.shape, p.shape))
    return dp


@np.errstate(over="ignore", invalid="ignore")  # a step that overflows fails the drift check
def integrate_ode(field: Callable, p0, spec: IntegratorSpec, utilities: Callable | None = None) -> HistoryBuffer:
    """Integrate dp/dt = field(t, p) with one classic RK4 step per sample of the grid t_i = i * dt.

    Returns the Trajectory that keeps utilities as its map when they are given, else the
    HistoryBuffer of the samples.
    """
    p = _check_p0(p0)
    n = spec.n_steps()
    dt = spec.dt
    states = np.empty((n + 1, p.size))
    states[0] = p
    for i in range(n):
        t = i * dt
        k1 = _rate(field, t, p)
        k2 = _rate(field, t + 0.5 * dt, p + 0.5 * dt * k1)
        k3 = _rate(field, t + 0.5 * dt, p + 0.5 * dt * k2)
        k4 = _rate(field, t + dt, p + dt * k3)
        _advance(states[i : i + 2], (dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4))[None])
        p = states[i + 1]
    return HistoryBuffer(dt, states) if utilities is None else Trajectory(dt, states, utilities)


# picard_solve's result: states (T, G) on its grid of times (T,), which need not be evenly spaced
PicardSolution = namedtuple("PicardSolution", "times states")


@np.errstate(over="ignore", invalid="ignore")  # a round that overflows never reaches PICARD_TOL
def picard_solve(field: Callable, p0, times: np.ndarray, diffs: list | None = None) -> PicardSolution:
    """Solve p(t) = p0 + integral of field by fixed-point iteration.

    Starts from the constant initial state and applies trapezoidal
    quadrature on the given grid (any strictly increasing times) until the
    sup-norm change between rounds drops below PICARD_TOL.  Raises
    NonConvergenceError when PICARD_ROUNDS pass without reaching it (horizon
    too long for a contraction).  An optional diffs list collects the
    per-round sup-norm changes.
    """
    p_init = _check_p0(p0)
    times = _array("picard grid", times)  # an int past the float range is a ConfigurationError, as for p0
    if times.ndim != 1 or len(times) < 2 or not (np.isfinite(times).all() and np.all(np.diff(times) > 0)):
        raise ConfigurationError("picard grid must be finite, strictly increasing, with at least 2 points")
    t_count = len(times)
    current = np.tile(p_init, (t_count, 1))
    for _ in range(PICARD_ROUNDS):
        f = np.array([_rate(field, times[i], current[i]) for i in range(t_count)])
        seg = 0.5 * np.diff(times)[:, None] * (f[1:] + f[:-1])
        nxt = np.empty_like(current)
        nxt[0] = p_init
        nxt[1:] = p_init + np.cumsum(seg, axis=0)
        change = float(np.max(np.abs(nxt - current)))
        if diffs is not None:
            diffs.append(change)
        current = nxt
        if change < PICARD_TOL:
            return PicardSolution(times.copy(), current)
    raise NonConvergenceError(
        "picard iteration did not reach tol=%.1e in %d rounds" % (PICARD_TOL, PICARD_ROUNDS)
    )


def config_to_text(cfg: ScenarioConfig) -> str:
    """Serialize the fully resolved scenario back to config text: flat_items by section.

    parse_config(config_to_text(cfg)) reproduces cfg exactly: floats are
    written with round-trip precision and defaults are materialized.
    """
    out = []
    for name, items in groupby(cfg.flat_items(), key=lambda item: item[0].rpartition(".")[0]):
        out.append("[%s]\n" % name)
        out += ["%s = %s\n" % (key.rpartition(".")[2], value) for key, value in items]
        out.append("\n")
    return "".join(out)
