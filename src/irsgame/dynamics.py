"""Solvers for the selection dynamics.

solve_replicator evaluates the exact solution of the undelayed replicator
dynamics of the built-in utility model on a fixed grid.  integrate_ode steps
any ordinary field with forward Euler or classic rk4.  integrate_dde steps
the delayed field with forward Euler and a linearly interpolated history
buffer (constant pre-history); solve_delayed takes the same Euler steps for
the delayed replicator field, evaluating the field of a whole delay window
at once (method of steps) and projecting each step on Python floats summed
in numpy's order, and integrate_dde stays as its reference.
picard_solve iterates the integral-equation form on a fixed grid and serves
as an independent cross-check of the steppers.

All steppers keep states on the probability simplex.  Two corrections are
accounted separately: "drift" is the deviation of the component sum from 1
(a step-size symptom, bounded by spec.drift_tol), while "absorbed" mass
comes from clamping components that cross zero, which is the exact boundary
behavior of the selection dynamics when a group empties in finite time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import add
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, NonConvergenceError, NumericalDriftError
from .game import selection_rates

_METHODS = ("rk4", "forward-euler")


@dataclass
class IntegratorSpec:
    """Fixed-step integration parameters."""

    method: str = "rk4"  # "rk4" or "forward-euler"; delayed runs always step with Euler
    dt: float = 0.01
    horizon: float = 600.0
    renormalize: bool = True  # project every step back onto the simplex
    drift_tol: float = 1e-6  # max tolerated per-step sum deviation before erroring

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ConfigurationError("integrator.method must be one of %s" % (_METHODS,))
        if not 0.0 < self.dt < math.inf:
            raise ConfigurationError("integrator.dt must be positive and finite")
        if not 0.0 < self.horizon < math.inf:
            raise ConfigurationError("integrator.horizon must be positive and finite")

    def n_steps(self) -> int:
        return max(1, int(np.ceil(self.horizon / self.dt - 1e-9)))


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
    if p.ndim != 1:
        raise ConfigurationError("initial state must be a vector")
    if np.any(p < 0) or abs(float(p.sum()) - 1.0) > 1e-9:
        raise ConfigurationError("initial state must lie on the unit simplex")
    return p


def _project_step(raw: np.ndarray, spec: IntegratorSpec) -> tuple[np.ndarray, float, float]:
    """Clamp negatives, rescale to unit sum; returns (state, drift, absorbed)."""
    total = float(raw.sum())
    drift = abs(total - 1.0)
    if not spec.renormalize:
        return raw, drift, 0.0
    # written so that a NaN drift or total raises too
    if not drift <= spec.drift_tol:
        raise NumericalDriftError(
            "simplex drift %.3e exceeds %.1e in one step; reduce dt" % (drift, spec.drift_tol)
        )
    absorbed = 0.0
    if raw.min() < 0.0:
        neg = raw < 0.0
        absorbed = float(-raw[neg].sum())
        raw = np.where(neg, 0.0, raw)
        total = float(raw.sum())
    if not total > 0.0:
        raise NumericalDriftError("entire population clamped away; reduce dt")
    return raw / total, drift, absorbed


def _numpy_sum(x: list) -> float:
    """Sum of Python floats with the bits of np.add.reduce on a contiguous float64 vector.

    numpy adds below 8 terms from left to right, from 8 terms up in 8
    interleaved accumulators, and above 128 terms splits the vector into two
    halves (the first a multiple of 8 long) summed alike; the reduction
    starts from the identity 0.0.
    """
    if len(x) < 8:
        s = 0.0
        for v in x:
            s += v
        return s
    return 0.0 + _pairwise_blocks(x)


def _pairwise_blocks(x: list) -> float:
    n = len(x)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_blocks(x[:half]) + _pairwise_blocks(x[half:])
    r = x[:8]
    end = n - n % 8
    for k in range(8, end, 8):
        for j in range(8):
            r[j] += x[k + j]
    s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for v in x[end:]:
        s += v
    return s


def _project_row(raw: list, spec: IntegratorSpec) -> tuple[list, float, float]:
    """_project_step on a list of Python floats, with the same bits, rules and messages."""
    total = _numpy_sum(raw)
    drift = abs(total - 1.0)
    if not spec.renormalize:
        return raw, drift, 0.0
    if not drift <= spec.drift_tol:
        raise NumericalDriftError(
            "simplex drift %.3e exceeds %.1e in one step; reduce dt" % (drift, spec.drift_tol)
        )
    absorbed = 0.0
    if min(raw) < 0.0:  # raw holds no NaN here: its sum passed the drift check
        absorbed = -_numpy_sum([v for v in raw if v < 0.0])
        raw = [0.0 if v < 0.0 else v for v in raw]
        total = _numpy_sum(raw)
    if not total > 0.0:
        raise NumericalDriftError("entire population clamped away; reduce dt")
    return [v / total for v in raw], drift, absorbed


def integrate_ode(field: Callable, p0, spec: IntegratorSpec, utilities: Callable | None = None) -> Trajectory:
    """Integrate dp/dt = field(t, p) on the fixed grid t_i = i * dt.

    field(t, p) -> dp.  When a utilities callback is supplied, the utility
    vector of every stored state is recorded alongside it.
    """
    p = _check_p0(p0)
    n = spec.n_steps()
    dt = spec.dt
    states = [p.copy()]
    drift_sum = 0.0
    absorbed_sum = 0.0
    for i in range(n):
        t = i * dt
        if spec.method == "rk4":
            k1 = field(t, p)
            k2 = field(t + 0.5 * dt, p + 0.5 * dt * k1)
            k3 = field(t + 0.5 * dt, p + 0.5 * dt * k2)
            k4 = field(t + dt, p + dt * k3)
            raw = p + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            raw = p + dt * field(t, p)
        p, drift, absorbed = _project_step(raw, spec)
        drift_sum += drift
        absorbed_sum += absorbed
        states.append(p.copy())
    times = np.arange(n + 1) * dt
    states = np.array(states)
    u, u_bar = _record_utilities(states, utilities)
    return Trajectory(times, states, u, u_bar, drift_sum, absorbed_sum)


def solve_replicator(c, mu: float, p0, spec: IntegratorSpec, utilities: Callable | None = None) -> Trajectory:
    """Exact replicator dynamics when p_g * u_g = c_g does not depend on the shares.

    The field mu * p_g * (u_g - u_bar) is then linear: dp/dt = mu * (c - p * C),
    with C the sum of c over the non-empty groups.  From the state q at time
    t_k the solution is p(t) = q + (c - q * C) * g(t - t_k), with g(s) the
    integral of mu * exp(-mu * C * r) over [0, s]; it rests at c / C.  A
    shrinking group with c_g < 0 reaches zero at a closed-form time: there it
    is set to exactly zero, the others are rescaled to unit sum, C is
    recomputed and the next piece starts.  Empty groups stay exactly zero.

    Samples lie on the grid t_i = i * dt, i = 0..spec.n_steps().  Only the
    sample grid of spec is used; nothing is stepped, so drift and absorbed
    mass are zero.  utilities, when given, is called once with the whole
    (T, G) state array and must return one row of utilities per state.
    """
    p = _check_p0(p0)
    c = np.asarray(c, dtype=float)
    if c.shape != p.shape:
        raise ConfigurationError("payoff vector and initial state differ in length")
    n = spec.n_steps()
    times = np.arange(n + 1) * spec.dt
    states = np.empty((n + 1, p.size))
    t_k, i = 0.0, 0
    while True:
        c_alive = np.where(p > 0.0, c, 0.0)
        big_c = float(c_alive.sum())
        slope = c_alive - p * big_c  # dp/dt over mu at t_k
        doomed = (c_alive < 0.0) & (slope < 0.0)
        t_end = np.inf
        if np.any(doomed) and np.count_nonzero(p) > 1:  # the last group never empties
            q, c_d = p[doomed], c_alive[doomed]
            if big_c == 0.0:
                s_zero = q / (mu * -c_d)
            else:
                s_zero = np.log1p(-q * big_c / c_d) / (mu * big_c)
            k = int(np.argmin(s_zero))
            t_end = t_k + float(s_zero[k])
            dying = np.flatnonzero(doomed)[k]
        elif big_c < 0.0:
            # c / C repels when C < 0; with no group shrinking to zero the
            # state sits on it up to rounding, which must not grow like
            # exp(mu * |C| * t)
            states[i:] = p
            break
        j = int(np.searchsorted(times, t_end))  # first sample of the next piece
        # rounding can put a share a hair below zero just before it empties
        states[i:j] = np.maximum(p + _growth(times[i:j] - t_k, mu, big_c)[:, None] * slope, 0.0)
        if j > n:
            break
        p = np.maximum(p + _growth(t_end - t_k, mu, big_c) * slope, 0.0)
        p[dying] = 0.0
        p /= p.sum()
        t_k, i = t_end, j
    if utilities is None:
        return Trajectory(times, states)
    uv = utilities(states)
    return Trajectory(times, states, uv.u, uv.u_bar)


def _growth(s, mu: float, big_c: float):
    """Integral of mu * exp(-mu * C * r) over r in [0, s]."""
    if big_c == 0.0:
        return mu * s
    return -np.expm1(-mu * big_c * s) / big_c


def _record_utilities(states: np.ndarray, utilities: Callable | None):
    if utilities is None:
        return None, None
    rows = [utilities(s) for s in states]
    return np.array([r.u for r in rows]), np.array([r.u_bar for r in rows])


@dataclass
class HistoryBuffer:
    """Grid-aligned state history of a delayed integration.

    Stores one state per step and answers lookups at any t' <= newest
    sample: the exact sample when t' hits the grid, the linear interpolation
    between neighbours otherwise, and the constant initial state for
    t' <= t0.  Only states are stored; callers derive utilities from the
    looked-up state, which keeps identities of the utility map (such as the
    population average being the mass-weighted mean) exact even between
    grid points.
    """

    t0: float
    dt: float
    states: list = field(default_factory=list)

    def append(self, p: np.ndarray) -> None:
        self.states.append(p)

    def lookup(self, t: float) -> np.ndarray:
        """State at time t, interpolating between samples."""
        x = (t - self.t0) / self.dt
        i = int(round(x))
        if abs(x - i) < 1e-9:
            frac = 0.0
        else:
            i = int(np.floor(x))
            frac = x - i
        if i >= len(self.states) or (i == len(self.states) - 1 and frac > 0.0):
            raise ConfigurationError("history lookup at t=%r is beyond the newest sample" % (t,))
        if i < 0 or t <= self.t0:
            return self.states[0]
        if frac == 0.0:
            return self.states[i]
        return (1.0 - frac) * self.states[i] + frac * self.states[i + 1]


def integrate_dde(field: Callable, p0, delta: float, spec: IntegratorSpec, utilities: Callable) -> Trajectory:
    """Integrate the delayed field with forward Euler and recorded history.

    field(t, lookup) -> dp, where lookup(t') returns the (state, utilities)
    pair at an earlier time.  Before t0 the history is the constant initial
    state.  With delta = 0 the stepping reproduces forward-Euler
    integrate_ode sample for sample.
    """
    if delta < 0:
        raise ConfigurationError("delay must be non-negative, got %r" % (delta,))
    p = _check_p0(p0)
    n = spec.n_steps()
    dt = spec.dt
    hist = HistoryBuffer(t0=0.0, dt=dt)
    hist.append(p.copy())

    def lookup(t_query: float):
        p_q = hist.lookup(t_query)
        return p_q, utilities(p_q)

    states = [p.copy()]
    u_rows = [utilities(p)]
    drift_sum = 0.0
    absorbed_sum = 0.0
    for i in range(n):
        t = i * dt
        raw = p + dt * field(t, lookup)
        p, drift, absorbed = _project_step(raw, spec)
        drift_sum += drift
        absorbed_sum += absorbed
        hist.append(p.copy())
        states.append(p.copy())
        u_rows.append(utilities(p))
    times = np.arange(n + 1) * dt
    return Trajectory(
        times,
        np.array(states),
        np.array([r.u for r in u_rows]),
        np.array([r.u_bar for r in u_rows]),
        drift_sum,
        absorbed_sum,
    )


def solve_delayed(utilities: Callable, mu: float, p0, delta: float, spec: IntegratorSpec) -> Trajectory:
    """Forward-Euler steps of the delayed replicator field, one delay window at a time.

    Takes the same steps as integrate_dde with delayed_replicator_field and
    gives the same samples bit for bit, history rules included: grid snap,
    linear interpolation between samples, constant initial state for
    t' <= 0.  Step i reads history at i * dt - delta only, so every step
    whose newest history sample is already known (up to floor(delta / dt)
    steps) gets its field from one stacked utilities call (method of steps);
    only the projection onto the simplex runs step by step, on Python
    floats: numpy's fixed cost per call would dominate vectors this short.
    Its sums add in numpy's order (_numpy_sum), so every step keeps the bits
    of _project_step.  A delay below dt gives blocks of one step.  utilities
    must accept a (T, G) stack of states, as make_utilities' map does; the
    utilities of the samples are recorded with one more stacked call.
    """
    if delta < 0:
        raise ConfigurationError("delay must be non-negative, got %r" % (delta,))
    p = _check_p0(p0)
    n = spec.n_steps()
    dt = spec.dt
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
    drift_sum = 0.0
    absorbed_sum = 0.0
    p = p.tolist()
    i = 0
    while i < n:
        j = max(int(np.searchsorted(hi, i, "right")), i + 1)  # steps i..j-1 read states[:i + 1]
        a, b, f = states[lo[i:j]], states[hi[i:j]], frac[i:j, None]
        p_d = np.where(f > 0.0, (1.0 - f) * a + f * b, a)
        step = dt * selection_rates(p_d, utilities(p_d), mu)
        flat = []  # the window's states in one list: less memory than a list per row
        for dp in step.tolist():
            p, drift, absorbed = _project_row(list(map(add, p, dp)), spec)
            drift_sum += drift
            absorbed_sum += absorbed
            flat += p
        states[i + 1 : j + 1] = np.reshape(flat, (j - i, -1))
        i = j
    uv = utilities(states)
    return Trajectory(np.arange(n + 1) * dt, states, uv.u, uv.u_bar, drift_sum, absorbed_sum)


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
    if times.ndim != 1 or len(times) < 2 or np.any(np.diff(times) <= 0):
        raise ConfigurationError("picard grid must be strictly increasing with at least 2 points")
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
