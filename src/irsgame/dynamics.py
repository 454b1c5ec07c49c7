"""Solvers for the selection dynamics.

ReplicatorSolution is the exact undelayed replicator dynamics of the built-in
utility model and its rest point; solve_replicator samples it.  integrate_ode steps
any ordinary field with forward Euler or classic rk4.  integrate_dde is its
forward Euler on the delayed field over a linearly interpolated history
buffer (constant pre-history); solve_delayed takes the same Euler steps in its
own loop, evaluating the delayed replicator field of a whole delay window at
once (method of steps), and integrate_dde stays as its reference.
picard_solve iterates the integral-equation form on a fixed grid and serves
as an independent cross-check of the steppers.

All steppers keep states on the probability simplex with one projection on
Python floats, summed left to right (_project).  Two corrections are
accounted separately: "drift" is the deviation of the component sum from 1
(a step-size symptom, bounded by DRIFT_TOL), while "absorbed" mass
comes from clamping components that cross zero, which is the exact boundary
behavior of the selection dynamics when a group empties in finite time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import add
from typing import Callable, Optional

import numpy as np

from .config import _NON_NEGATIVE, _POSITIVE, MAX_STEPS, IntegratorSpec, _on_simplex, _require
from .errors import ConfigurationError, NonConvergenceError, NumericalDriftError, NumericError
from .game import selection_rates

_METHODS = ("rk4", "forward-euler")


@dataclass
class Trajectory:
    """Sampled solution: one row per time point."""

    times: np.ndarray  # (T,)
    states: np.ndarray  # (T, G)
    utilities: Optional[np.ndarray] = None  # (T, G), NaN rows possible for empty groups
    u_bar: Optional[np.ndarray] = None  # (T,)
    total_drift: float = 0.0  # accumulated |sum(p) - 1| corrections
    total_absorbed: float = 0.0  # accumulated mass clamped at the zero boundary

    def __len__(self) -> int:
        return len(self.times)

    @property
    def terminal_state(self) -> np.ndarray:
        return self.states[-1]


def _check_p0(p0) -> np.ndarray:
    p = np.array(p0, dtype=float)
    if p.ndim != 1 or not _on_simplex(p):
        raise ConfigurationError("p0 must be a vector of non-negative shares that sum to 1 within 1e-9")
    return p


# Largest |sum(p) - 1| one step may leave before it is projected back
DRIFT_TOL = 1e-6


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


@np.errstate(over="ignore", invalid="ignore")  # a step that overflows fails the drift check
def integrate_ode(
    field: Callable, p0, spec: IntegratorSpec, utilities: Callable | None = None, method: str = "rk4"
) -> Trajectory:
    """Integrate dp/dt = field(t, p) on the fixed grid t_i = i * dt.

    field(t, p) -> dp, stepped with method "rk4" (classic Runge-Kutta) or
    "forward-euler".  When a utilities callback is supplied, the utility
    vector of every stored state is recorded alongside it.
    """
    if method not in _METHODS:
        raise ConfigurationError("integrate_ode method must be one of %s, got %r" % (_METHODS, method))
    p = _check_p0(p0)
    n = spec.n_steps()
    dt = spec.dt
    states = [p.copy()]
    drift_sum = absorbed_sum = 0.0
    for i in range(n):
        t = i * dt
        if method == "rk4":
            k1 = field(t, p)
            k2 = field(t + 0.5 * dt, p + 0.5 * dt * k1)
            k3 = field(t + 0.5 * dt, p + 0.5 * dt * k2)
            k4 = field(t + dt, p + dt * k3)
            raw = p + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            raw = p + dt * field(t, p)
        p, drift, absorbed = _project(raw.tolist())
        p = np.array(p)
        drift_sum += drift
        absorbed_sum += absorbed
        states.append(p.copy())
    states = np.array(states)
    u, u_bar = _record_utilities(states, utilities)
    return Trajectory(np.arange(n + 1) * dt, states, u, u_bar, drift_sum, absorbed_sum)


class ReplicatorSolution:
    """Exact replicator dynamics from p0 at t = 0 when p_g * u_g = c_g does not depend on the shares.

    Then dp/dt = mu * (c - p * C), C the sum of c over the non-empty groups, so from q at t_k
    p(t) = q + slope * g(t - t_k), slope = c - q * C, g(s) the integral of mu * exp(-mu * C * r)
    over [0, s].  A group with c_g < 0 may empty at a closed-form t_end: it is set to exactly
    zero, the others are rescaled and the next piece starts.  pieces holds (t_k, t_end, q, C,
    slope); a zero slope holds q.  The last piece decays with C > 0 to rest = c / C, or holds.
    An extinction time past the largest float (mu * C underflows) makes the current piece the
    last; mu only rescales time, so rest comes from the extinctions in mu-free time.  Raises
    NumericError when a piece's rate mu * C is not a finite float, or when a mu-free extinction
    time is past the largest float.
    """

    def __init__(self, c, mu: float, p0):
        _require("mu", mu, _POSITIVE)
        p = _check_p0(p0)
        c = np.asarray(c, dtype=float)
        if c.shape != p.shape:
            raise ConfigurationError("payoff vector and initial state differ in length")
        self.mu = mu
        self.pieces = []
        t_k, rate = 0.0, mu  # rate becomes 1 once an extinction time is past the largest float
        while True:
            c_alive = np.where(p > 0.0, c, 0.0)
            with np.errstate(over="ignore"):  # an infinite C is reported below
                big_c = float(c_alive.sum())
            if not abs(mu * big_c) < np.inf:  # exp(-mu * C * t) and the times t_end would be nan
                raise NumericError("the replicator rate mu * C is not finite for mu = %r, C = %r" % (mu, big_c))
            slope = c_alive - p * big_c  # dp/dt over mu at t_k
            doomed = (c_alive < 0.0) & (slope < 0.0)
            t_end = np.inf
            # the slopes sum to 0: with none positive (a lone group) they are rounding at rest
            if np.any(doomed) and np.any(slope > 0.0):
                q, c_d = p[doomed], c_alive[doomed]
                with np.errstate(divide="ignore", over="ignore"):  # rate * C may underflow
                    if big_c == 0.0:
                        s_zero = q / (rate * -c_d)
                    else:
                        s_zero = np.log1p(-q * big_c / c_d) / (rate * big_c)
                k = int(np.argmin(s_zero))
                t_end = t_k + float(s_zero[k])
                dying = np.flatnonzero(doomed)[k]
                if not t_end < np.inf:
                    if rate == 1.0:
                        raise NumericError("a group empties after a mu-free time past the largest float")
                    # mu only rescales time: at() holds this piece, and the rest
                    # point comes from the extinctions in mu-free time
                    self.pieces.append((t_k, np.inf, p, big_c, slope))
                    t_k, rate = 0.0, 1.0
                    continue
            elif big_c < 0.0:
                # c / C repels when C < 0: the state sits on it, and its
                # rounding must not grow like exp(mu * |C| * t)
                slope = np.zeros_like(p)
            if rate == mu:
                self.pieces.append((t_k, t_end, p, big_c, slope))
            if t_end == np.inf:
                break
            p = np.maximum(p + _growth(t_end - t_k, rate, big_c) * slope, 0.0)
            p[dying] = 0.0
            p /= p.sum()
            t_k = t_end
        self.rest = c_alive / big_c if slope.any() else p

    def at(self, times: np.ndarray) -> np.ndarray:
        """States (T, G) at the sorted non-negative times."""
        states = np.empty((len(times), len(self.rest)))
        for t_k, t_end, q, big_c, slope in self.pieces:
            i, j = np.searchsorted(times, [t_k, t_end])
            if not slope.any():
                states[i:j] = q
            else:  # rounding can put a share a hair below zero just before it empties
                states[i:j] = np.maximum(q + _growth(times[i:j] - t_k, self.mu, big_c)[:, None] * slope, 0.0)
        return states

    def equilibrium_index(self, dt: float, eps: float) -> int:
        """detect_equilibrium's index on the grid t_i = i * dt, however long the grid.

        Within a piece the rate max_g |p_{i+1,g} - p_{i,g}| / dt is k0 * exp(-a * (t - t_k)),
        a = mu * C, k0 = max|slope| * (1 - exp(-a * dt)) / (C * dt): with C > 0 it falls below
        eps for good after t_k + ln(k0 / eps) / a, else it peaks at t_end.  Going back from the
        last piece, only samples near those times and near t_k are checked, with
        detect_equilibrium's arithmetic.  Raises ConfigurationError past MAX_STEPS samples or
        when those samples' times pass the largest float.
        """
        for t_k, t_end, _, big_c, slope in reversed(self.pieces):
            near = [t_k, t_end] if t_end < np.inf else [t_k]
            if slope.any() and big_c > 0.0:
                k0 = float(np.max(np.abs(slope))) * -math.expm1(-self.mu * big_c * dt) / (big_c * dt)
                if k0 > eps:
                    near.append(min(t_end, t_k + math.log(k0 / eps) / (self.mu * big_c)))
            last = max(near) / dt
            if not last <= MAX_STEPS:
                raise ConfigurationError(
                    "the rest point comes after sample %.3g, beyond the cap of %d" % (last, MAX_STEPS)
                )
            if not (last + 4) * dt < np.inf:  # the samples checked below go up to ceil(last) + 3
                raise ConfigurationError("the samples near the rest point are past the largest float for dt = %r" % dt)
            i = np.unique(np.maximum(0, [math.ceil(t / dt) + k for t in near for k in range(-9, 3)]))
            rates = np.max(np.abs(self.at((i + 1) * dt) - self.at(i * dt)), axis=1) / ((i + 1) * dt - i * dt)
            moving = i[~(rates < eps)]
            if moving.size:
                return int(moving[-1]) + 1
        return 0


def solve_replicator(c, mu: float, p0, spec: IntegratorSpec, utilities: Callable | None = None) -> Trajectory:
    """ReplicatorSolution(c, mu, p0) sampled on the grid t_i = i * dt, i = 0..spec.n_steps().

    utilities, when given, maps the whole (T, G) state array to one row of utilities per state.
    """
    times = np.arange(spec.n_steps() + 1) * spec.dt
    states = ReplicatorSolution(c, mu, p0).at(times)
    if utilities is None:
        return Trajectory(times, states)
    uv = utilities(states)
    return Trajectory(times, states, uv.u, uv.u_bar)


def _growth(s, mu: float, big_c: float):
    """Integral of mu * exp(-mu * C * r) over r in [0, s]."""
    if big_c == 0.0:
        return mu * s
    # -mu * C * s can overflow only where C > 0 (with C < 0 a piece ends before its shares
    # blow up): expm1(-inf) = -1 is then the exact limit, the rest point
    with np.errstate(over="ignore"):
        return -np.expm1(-mu * big_c * s) / big_c


def _record_utilities(states: np.ndarray, utilities: Callable | None):
    if utilities is None:
        return None, None
    rows = [utilities(s) for s in states]
    return np.array([r.u for r in rows]), np.array([r.u_bar for r in rows])


@dataclass
class HistoryBuffer:
    """Grid-aligned state history of a delayed integration from t = 0.

    Stores one state per step and answers lookups at any t' <= newest
    sample: the exact sample when t' hits the grid, the linear interpolation
    between neighbours otherwise, and the constant initial state for
    t' <= 0.  Only states are stored; callers derive utilities from the
    looked-up state, which keeps identities of the utility map (such as the
    population average being the mass-weighted mean) exact even between
    grid points.
    """

    dt: float
    states: list = field(default_factory=list)

    def append(self, p: np.ndarray) -> None:
        self.states.append(p)

    def lookup(self, t: float) -> np.ndarray:
        """State at time t, interpolating between samples."""
        if t <= 0.0:  # before t / dt can pass the largest float
            return self.states[0]
        x = t / self.dt
        i = int(round(x))
        if abs(x - i) < 1e-9:
            frac = 0.0
        else:
            i = int(np.floor(x))
            frac = x - i
        if i >= len(self.states) or (i == len(self.states) - 1 and frac > 0.0):
            raise ConfigurationError("history lookup at t=%r is beyond the newest sample" % (t,))
        if frac == 0.0:
            return self.states[i]
        return (1.0 - frac) * self.states[i] + frac * self.states[i + 1]


def integrate_dde(field: Callable, p0, delta: float, spec: IntegratorSpec, utilities: Callable) -> Trajectory:
    """Forward-Euler integrate_ode of the delayed field over a recorded history.

    field(t, lookup) -> dp, where lookup(t') returns the (state, utilities)
    pair at an earlier time.  Before t = 0 the history is the constant
    initial state.  With delta = 0 the stepping reproduces forward-Euler
    integrate_ode sample for sample.
    """
    _require("delay", delta, _NON_NEGATIVE)
    hist = HistoryBuffer(dt=spec.dt)

    def lookup(t_query: float):
        p_q = hist.lookup(t_query)
        return p_q, utilities(p_q)

    def delayed(t: float, p: np.ndarray) -> np.ndarray:
        # Euler calls the field once per step, at the newest sample, so step i sees samples 0..i; rk4 would not
        hist.append(p)
        return field(t, lookup)

    return integrate_ode(delayed, p0, spec, utilities, method="forward-euler")


def solve_delayed(utilities: Callable, mu: float, p0, delta: float, spec: IntegratorSpec) -> Trajectory:
    """Forward-Euler steps of the delayed replicator field, one delay window at a time.

    Takes the same steps as integrate_dde with delayed_replicator_field and
    gives the same samples bit for bit, history rules included: grid snap,
    linear interpolation between samples, constant initial state for
    t' <= 0.  Step i reads history at i * dt - delta only, so every step
    whose newest history sample is already known (up to floor(delta / dt)
    steps) gets its field from one stacked utilities call (method of steps);
    only the projection onto the simplex, the one integrate_dde takes, runs
    step by step.  A delay below dt gives blocks of one step.  utilities
    must accept a (T, G) stack of states, as make_utilities' map does; the
    utilities of the samples are recorded with one more stacked call.
    """
    _require("delay", delta, _NON_NEGATIVE)
    _require("mu", mu, _POSITIVE)
    p = _check_p0(p0)
    n = spec.n_steps()
    dt = spec.dt
    # a step that overflows fails the drift check; a query time t_q / dt past a float is pre-history
    with np.errstate(over="ignore", invalid="ignore"):
        # HistoryBuffer.lookup(i * dt - delta) for every step: samples lo and hi
        # (hi = lo + 1 when interpolating) with weight frac on hi
        t_q = np.arange(n) * dt - delta
        x = t_q / dt
        near = np.round(x)
        snap = np.abs(x - near) < 1e-9
        lo = np.where(snap, near, np.floor(x))
        pre = (lo < 0) | (t_q <= 0.0)
        frac = np.where(snap | pre, 0.0, x - lo)
        lo = np.where(pre, 0, lo).astype(np.intp)
        hi = lo + (frac > 0.0)
        states = np.empty((n + 1, p.size))
        states[0] = p
        drift_sum = absorbed_sum = 0.0
        p = p.tolist()
        i = 0
        while i < n:
            j = max(int(np.searchsorted(hi, i, "right")), i + 1)  # steps i..j-1 read states[:i + 1]
            a, b, f = states[lo[i:j]], states[hi[i:j]], frac[i:j, None]
            p_d = np.where(f > 0.0, (1.0 - f) * a + f * b, a)
            step = dt * selection_rates(p_d, utilities(p_d), mu)
            flat = []  # the window's states in one list: less memory than a list per row
            for dp in step.tolist():
                p, drift, absorbed = _project(list(map(add, p, dp)))
                drift_sum += drift
                absorbed_sum += absorbed
                flat += p
            states[i + 1 : j + 1] = np.reshape(flat, (j - i, -1))
            i = j
    uv = utilities(states)
    return Trajectory(np.arange(n + 1) * dt, states, uv.u, uv.u_bar, drift_sum, absorbed_sum)


@np.errstate(over="ignore", invalid="ignore")  # a round that overflows never reaches tol
def picard_solve(
    field: Callable,
    p0,
    times: np.ndarray,
    tol: float = 1e-10,
    max_rounds: int = 200,
    diffs: list | None = None,
) -> Trajectory:
    """Solve p(t) = p0 + integral of field by fixed-point iteration.

    Starts from the constant initial state and applies trapezoidal
    quadrature on the given grid until the sup-norm change between rounds
    drops below tol.  Raises NonConvergenceError when max_rounds pass
    without reaching tolerance (horizon too long for a contraction).
    An optional diffs list collects the per-round sup-norm changes.
    """
    p_init = _check_p0(p0)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 2 or not (np.isfinite(times).all() and np.all(np.diff(times) > 0)):
        raise ConfigurationError("picard grid must be finite, strictly increasing, with at least 2 points")
    t_count = len(times)
    current = np.tile(p_init, (t_count, 1))
    for _ in range(max_rounds):
        f = np.array([field(times[i], current[i]) for i in range(t_count)])
        seg = 0.5 * np.diff(times)[:, None] * (f[1:] + f[:-1])
        nxt = np.empty_like(current)
        nxt[0] = p_init
        nxt[1:] = p_init + np.cumsum(seg, axis=0)
        change = float(np.max(np.abs(nxt - current)))
        if diffs is not None:
            diffs.append(change)
        current = nxt
        if change < tol:
            return Trajectory(times.copy(), current)
    raise NonConvergenceError(
        "picard iteration did not reach tol=%.1e in %d rounds" % (tol, max_rounds)
    )
