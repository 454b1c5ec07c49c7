"""Solvers for the selection dynamics.

ReplicatorSolution is the exact undelayed replicator dynamics of the payoff pair
(numer, n_users) and its rest point; solve_replicator samples it.  solve_delayed,
the package's one forward-Euler stepper, steps the delayed replicator field, reading
past states through HistoryBuffer (linear interpolation between samples, constant
pre-history) and evaluating the field of a whole delay window at once (method of steps).
Two reference solvers take no settings and read any ordinary field through one
checked rule (_rate): integrate_ode takes classic RK4 steps, and picard_solve
iterates the integral-equation form on a fixed grid until PICARD_TOL.

All steppers take their steps through one loop (_advance), which adds each
step to the state and projects the sum back onto the probability simplex,
summing left to right.  It runs on Python floats, except along stretches where
every step is added unchanged (its total is exactly 1) or leaves the state as
it was (shares clamped at zero): there it proposes a block of rows with numpy
and keeps only the rows that carry the step-by-step loop's bits.  It keeps no
tally: delayed_steps recomputes a delayed run's steps from its stored states and map,
and the run's clamps, absorbed mass and drift follow from states[:-1] + steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add
from typing import Callable, Optional

import numpy as np

from .config import _NON_NEGATIVE, _POSITIVE, MAX_STEPS, IntegratorSpec, _on_simplex, _require
from .errors import ConfigurationError, NonConvergenceError, NumericalDriftError, NumericError
from .game import EPS_FIELD, _check_payoff, make_utilities, quiet_steps, selection_rates


@dataclass
class Trajectory:
    """Sampled solution: increasing times, one state per time, and the run's utility map, applied to the rows read."""

    times: np.ndarray  # (T,)
    states: np.ndarray  # (T, G)
    utilities: Optional[Callable] = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)  # a float array is kept, not copied
        self.states = np.asarray(self.states, dtype=float)
        for name, ndim in (("times", 1), ("states", 2)):
            if (rows := getattr(self, name)).ndim != ndim:
                raise ConfigurationError("trajectory %s must be %d-D, got shape %s" % (name, ndim, rows.shape))
        if not self.states.shape[1]:  # quiet_steps takes its row max column by column
            raise ConfigurationError("trajectory states need at least one group, got shape %s" % (self.states.shape,))
        if len(self.states) != len(self.times):
            raise ConfigurationError("a trajectory of %d times has %d states" % (len(self.times), len(self.states)))
        if not (self.utilities is None or callable(self.utilities)):
            raise ConfigurationError("trajectory utilities must be a state -> UtilityVector map, got %r" % (self.utilities,))
        t = self.times  # compared as views, with no array of differences
        if not (len(t) and not np.isnan(t[0]) and np.all(t[1:] > t[:-1])):  # a NaN time fails
            raise ConfigurationError("trajectory times must be strictly increasing, with at least one")

    def __len__(self) -> int:
        return len(self.times)


def _check_p0(p0) -> np.ndarray:
    p = np.array(p0, dtype=float)
    if p.ndim != 1 or not _on_simplex(p):
        raise ConfigurationError("p0 must be a vector of non-negative shares that sum to 1 within 1e-9")
    return p


# Largest |sum(p) - 1| one step may leave before it is projected back
DRIFT_TOL = 1e-6
# picard_solve's stopping rule: the sup-norm change between rounds that ends it, and the most rounds
PICARD_TOL = 1e-10
PICARD_ROUNDS = 200
# _advance's block path: the steps in a row that each added the step unchanged, or each left
# the state unchanged, before the next rows are proposed at once; the rows of a first block;
# and the most rows that a block doubles to or that the loop holds as Python floats, so that
# a long delay window does not grow the peak memory
_STREAK = 32
_FIRST = 64
_CAP = 2048


def _sum(x: list) -> float:
    """Sum from left to right: builtin sum compensates from Python 3.12, so its bits depend on the version."""
    s = 0.0
    for v in x:
        s += v
    return s


def _advance(rows: np.ndarray, steps: np.ndarray) -> None:
    """Add each row of steps to the state rows[0] in turn, projecting onto the simplex after each.

    Writes the state after step k into rows[k + 1].  A sum whose total is more than DRIFT_TOL
    from 1 raises NumericalDriftError; otherwise its negative entries are clamped to zero and
    it is rescaled to unit sum, summing left to right.  Steps run on Python floats, _STREAK
    rows at a time, since numpy's fixed cost per call would dominate vectors a few groups long.
    A total of exactly 1 is not divided: v / 1.0 == v.  A raw sum within DRIFT_TOL of 1 has a
    positive entry, so the clamped sum is positive.  After _STREAK steps that each added the
    step unchanged (a running sum) or each left the state unchanged (a share clamped at zero),
    _block proposes the next rows at once and keeps only what it verifies bit for bit.
    """
    n = len(steps)
    p = rows[0].tolist()
    i = done = 0  # steps taken, and rows written
    flat = []
    while i < n:
        chunk = steps[i : i + _STREAK].tolist()
        slow = held = 0
        for dp in chunk:
            q, p = p, list(map(add, p, dp))
            total, clamp = 0.0, False
            for v in p:
                total += v
                if v < 0.0:
                    clamp = True
            if total != 1.0 or clamp:  # true for a NaN total, which the drift check rejects
                drift = abs(total - 1.0)
                if not drift <= DRIFT_TOL:
                    raise NumericalDriftError(
                        "simplex drift %.3e exceeds %.1e in one step; reduce dt" % (drift, DRIFT_TOL)
                    )
                if clamp:  # p holds no NaN here: its sum passed the drift check
                    p = [0.0 if v < 0.0 else v for v in p]
                    total = _sum(p)
                if total != 1.0:
                    p = [v / total for v in p]
                slow += 1
                held += p == q
            flat += p
        i += len(chunk)
        streak = len(chunk) == _STREAK and held == slow
        if streak or i == n or i - done >= _CAP:  # the rows as one array, a few thousand at most
            rows[done + 1 : i + 1] = np.array(flat).reshape(i - done, -1)
            flat, done = [], i
        if streak:
            size = _FIRST
            while i < n:
                kept, whole = _block(rows, steps, i, size, slow > 0)
                i = done = i + kept
                if not whole:
                    break
                size = min(2 * size, _CAP)
            p = rows[i].tolist()


def _column_sums(x: np.ndarray) -> np.ndarray:
    """Each row's sum from left to right, from 0.0 as _advance's loop starts."""
    s = np.zeros(len(x))
    for column in x.T:
        s = s + column
    return s


@np.errstate(all="ignore")  # rows past the first that fails the drift check are never kept
def _block(rows, steps, i: int, size: int, hold: bool) -> tuple[int, bool]:
    """Up to size steps from step i at once, kept where they have the bits of _advance's loop.

    The proposal is the state rows[i] held (hold) or the running sum of the steps from it,
    added in sequence by cumsum.  Every proposed row is stepped again from the proposed
    previous state with the loop's arithmetic; the rows up to the first whose result differs
    from its proposal in any bit (as integers, so -0.0 differs from 0.0) are verified, and so
    is that row's own result, since its previous state is.  Only rows that pass the drift check
    are kept: the loop takes the first that fails and raises.  Returns the rows written, and
    whether the whole proposal held.
    """
    dp = steps[i : i + size]
    p = rows[i]
    if hold:
        prev = proposal = np.broadcast_to(p, dp.shape)
    else:
        run = np.cumsum(np.vstack((p, dp)), axis=0)  # p + dp[0] + ... + dp[r], added in sequence
        prev, proposal = run[:-1], run[1:]
    raw = prev + dp
    total = _column_sums(raw)
    clamped = np.where(raw < 0.0, 0.0, raw)
    # unclamped rows sum to total again; v / 1.0 == v, so dividing where the loop does not changes
    # no bit of a kept row, which holds no NaN
    result = clamped / _column_sums(clamped)[:, None]
    same = np.ones(len(dp), dtype=bool)
    for r, q in zip(result.view(np.int64).T, proposal.view(np.int64).T):  # numpy's cost per row dominates short rows
        same &= r == q
    kept = len(dp) if same.all() else int(np.argmin(same)) + 1
    failed = np.flatnonzero(~(np.abs(total[:kept] - 1.0) <= DRIFT_TOL))
    if failed.size:
        kept = int(failed[0])
    rows[i + 1 : i + 1 + kept] = result[:kept]
    return kept, kept == len(dp) and bool(same[-1])


def _rate(field: Callable, t: float, p: np.ndarray) -> np.ndarray:
    """field(t, p) as an array of the state's shape, the one rule by which both reference solvers read a field."""
    dp = np.asarray(field(t, p))  # a list would not scale by dt
    if dp.shape != p.shape:  # numpy would broadcast a single value, and _advance truncate a longer one
        raise ConfigurationError("the field returned shape %s for a state of shape %s" % (dp.shape, p.shape))
    return dp


@np.errstate(over="ignore", invalid="ignore")  # a step that overflows fails the drift check
def integrate_ode(field: Callable, p0, spec: IntegratorSpec, utilities: Callable | None = None) -> Trajectory:
    """Integrate dp/dt = field(t, p) with one classic RK4 step per sample of the grid t_i = i * dt.

    utilities, when given, is kept as the trajectory's utility map.
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
    return Trajectory(np.arange(n + 1) * dt, states, utilities)


class ReplicatorSolution:
    """Exact replicator dynamics from p0 at t = 0 of the payoff pair (numer, n_users).

    The utility map make_utilities(numer, n_users) gives p_g * u_g = c_g = numer_g / n_users
    in every state, so dp/dt = mu * (c - p * C), C the sum of c over the non-empty groups, and
    from q at t_k p(t) = q + slope * g(t - t_k), slope = c - q * C, g(s) the integral of
    mu * exp(-mu * C * r) over [0, s].  A group with c_g < 0 may empty at a closed-form t_end: it
    is set to exactly zero, the others are rescaled and the next piece starts.  pieces holds
    (t_k, t_end, q, C, slope); a zero slope holds q.  The last piece decays with C > 0 to
    rest = c / C, or holds.  An extinction time past the largest float (mu * C underflows) makes
    the current piece the last; mu only rescales time, so rest comes from the extinctions in
    mu-free time.  Raises NumericError when a piece's rate mu * C is not a finite float, or when a
    mu-free extinction time is past the largest float, and ConfigurationError for a pair that
    make_utilities rejects or a numer not of p0's length.
    """

    def __init__(self, numer, n_users: int, mu: float, p0):
        _require("mu", mu, _POSITIVE)
        p = _check_p0(p0)
        numer, n = _check_payoff(numer, n_users)
        if numer.shape != p.shape:
            raise ConfigurationError("payoff vector and initial state differ in length")
        c = numer / n
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
        """States (T, G) at the 1-D times, which must be finite, non-negative and non-decreasing.

        The pieces cover [0, inf) and each writes the rows of the times it holds, so any other
        time would leave its row unwritten: such times are a ConfigurationError.
        """
        times = np.asarray(times, dtype=float)
        with np.errstate(invalid="ignore"):  # 0 <= t_0 <= ... <= t_last < inf; a NaN time, or inf - inf, fails
            ordered = times.ndim == 1 and np.all(np.diff(times, prepend=0.0, append=np.inf) >= 0.0)
        if not ordered:
            raise ConfigurationError("sample times must be 1-D, finite, non-negative and non-decreasing")
        states = np.empty((len(times), len(self.rest)))
        for t_k, t_end, q, big_c, slope in self.pieces:
            i, j = np.searchsorted(times, [t_k, t_end])
            if not slope.any():
                states[i:j] = q
            else:  # in place, as q + g * slope (addition commutes); rounding can put a share a hair below zero
                rows = np.multiply(_growth(times[i:j] - t_k, self.mu, big_c)[:, None], slope, out=states[i:j])
                rows += q
                np.maximum(rows, 0.0, out=rows)
        return states

    def equilibrium_index(self, dt: float) -> int:
        """detect_equilibrium's index on the grid t_i = i * dt, however long the grid.

        Within a piece the rate max_g |p_{i+1,g} - p_{i,g}| / dt is k0 * exp(-a * (t - t_k)),
        a = mu * C, k0 = max|slope| * (1 - exp(-a * dt)) / (C * dt): with C > 0 it falls below
        EPS_FIELD for good after t_k + ln(k0 / EPS_FIELD) / a, else it peaks at t_end.  Going
        back from the last piece, only samples near those times and near t_k are checked, by
        quiet_steps as detect_equilibrium checks them.  Raises ConfigurationError for a dt that
        is not positive and finite, past MAX_STEPS samples, or when those samples' times pass
        the largest float.
        """
        _require("dt", dt, _POSITIVE)
        for t_k, t_end, _, big_c, slope in reversed(self.pieces):
            near = [t_k, t_end] if t_end < np.inf else [t_k]
            if slope.any() and big_c > 0.0:
                top = float(np.max(np.abs(slope)))  # -expm1(-mu C dt) / (C dt) tends to mu as C dt underflows to 0
                k0 = top * -math.expm1(-self.mu * big_c * dt) / (big_c * dt) if big_c * dt > 0.0 else top * self.mu
                if k0 > EPS_FIELD:
                    near.append(min(t_end, t_k + math.log(k0 / EPS_FIELD) / (self.mu * big_c)))
            last = max(near) / dt
            if not last <= MAX_STEPS:
                raise ConfigurationError(
                    "the rest point comes after sample %.3g, beyond the cap of %d" % (last, MAX_STEPS)
                )
            if not (last + 4) * dt < np.inf:  # the samples checked below go up to ceil(last) + 3
                raise ConfigurationError("the samples near the rest point are past the largest float for dt = %r" % dt)
            i = np.unique(np.maximum(0, [math.ceil(t / dt) + k for t in near for k in range(-9, 3)]))
            moving = i[~quiet_steps(self.at((i + 1) * dt) - self.at(i * dt), (i + 1) * dt - i * dt)]
            if moving.size:
                return int(moving[-1]) + 1
        return 0


def solve_replicator(numer, n_users: int, mu: float, p0, spec: IntegratorSpec) -> Trajectory:
    """ReplicatorSolution(numer, n_users, mu, p0) sampled on the grid t_i = i * dt, i = 0..spec.n_steps().

    The trajectory keeps make_utilities(numer, n_users) as its utility map.
    """
    times = np.arange(spec.n_steps() + 1) * spec.dt
    return Trajectory(times, ReplicatorSolution(numer, n_users, mu, p0).at(times), make_utilities(numer, n_users))


def _growth(s, mu: float, big_c: float):
    """Integral of mu * exp(-mu * C * r) over r in [0, s]."""
    if big_c == 0.0:
        return mu * s
    # -mu * C * s can overflow only where C > 0 (with C < 0 a piece ends before its shares
    # blow up): expm1(-inf) = -1 is then the exact limit, the rest point
    with np.errstate(over="ignore"):
        return -np.expm1(-mu * big_c * s) / big_c


@dataclass
class HistoryBuffer:
    """Grid-aligned state history of a delayed integration from t = 0: states[i] is the state at i * dt.

    The one history rule of the delayed dynamics: a time within 1e-9 steps of a sample is that
    sample, a time between two samples is their linear interpolation, and a time t <= 0 is the
    initial state (constant pre-history).  Only states are stored; callers derive utilities from
    the looked-up state, which keeps identities of the utility map (such as the population
    average being the mass-weighted mean) exact even between grid points.
    """

    dt: float
    states: np.ndarray  # (N, G)

    def __post_init__(self):
        _require("dt", self.dt, _POSITIVE)
        self.states = np.asarray(self.states, dtype=float)  # not a copy: solve_delayed writes rows after it
        if self.states.ndim != 2:  # a lookup would read one share as a state
            raise ConfigurationError("history states must be 2-D, got shape %s" % (self.states.shape,))
        if not self.states.shape[1]:  # a lookup would return empty states
            raise ConfigurationError("history states need at least one group, got shape %s" % (self.states.shape,))

    @np.errstate(over="ignore", invalid="ignore")  # t / dt past a float is pre-history or past the newest sample
    def _samples(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The samples lo <= hi that each time reads, and the weight frac of hi (0 when hi = lo)."""
        x = t / self.dt
        near = np.round(x)
        snap = np.abs(x - near) < 1e-9
        pre = t <= 0.0
        lo = np.where(pre, 0.0, np.where(snap, near, np.floor(x)))
        frac = np.where(snap | pre, 0.0, x - lo)
        return lo, lo + (frac > 0.0), frac

    def lookup(self, t) -> np.ndarray:
        """States at the time t (G,) or at each of the times t (T, G).

        Raises ConfigurationError when a time is past the newest sample, or NaN.
        """
        t = np.asarray(t, dtype=float)
        lo, hi, frac = self._samples(t)
        if not np.all(hi < len(self.states)):
            raise ConfigurationError("history lookup at t=%r is beyond the newest sample" % (float(np.max(t)),))
        a, between = self.states[lo.astype(np.intp)], frac > 0.0  # a is a copy, even for a 0-d t
        f = frac[between][:, None]  # only the times between two samples read hi
        a[between] = (1.0 - f) * a[between] + f * self.states[hi[between].astype(np.intp)]
        return a


def solve_delayed(utilities: Callable, mu: float, p0, delta: float, spec: IntegratorSpec) -> Trajectory:
    """Forward-Euler steps of the delayed replicator field, one delay window at a time.

    Step i adds dt * mu * p_g * (u_g - u_bar) with state and utilities at i * dt - delta, read
    from the samples so far by HistoryBuffer.lookup.  Every step whose history is already known
    (up to floor(delta / dt) + 1 steps) gets its field from one stacked utilities call (method
    of steps); only the projection onto the simplex runs step by step.  A delay below dt gives
    windows of one step, and delta = 0 is forward Euler of the undelayed replicator field.
    utilities must accept a (T, G) stack of states, as make_utilities' map does; it is kept as
    the trajectory's utility map.
    """
    _require("delay", delta, _NON_NEGATIVE)
    _require("mu", mu, _POSITIVE)
    p = _check_p0(p0)
    n = spec.n_steps()
    dt = spec.dt
    states = np.empty((n + 1, p.size))
    states[0] = p
    t_q = np.arange(n) * dt - delta  # the time each step reads
    history = HistoryBuffer(dt, states)
    reach = math.floor(min(delta / dt, n)) + 3  # step i + reach reads past sample i + 1: a window ends before it
    i = 0
    while i < n:
        newest = history._samples(t_q[i : i + reach])[1]  # the newest sample each step of the window reads
        j = i + max(int(np.searchsorted(newest, i, "right")), 1)  # steps i..j-1 read states[:i + 1]
        _advance(states[i : j + 1], _steps_reading(utilities, mu, HistoryBuffer(dt, states[: i + 1]), t_q[i:j]))
        i = j
    return Trajectory(np.arange(n + 1) * dt, states, utilities)


@np.errstate(over="ignore", invalid="ignore")  # a step that overflows fails the drift check
def _steps_reading(utilities: Callable, mu: float, history: HistoryBuffer, t: np.ndarray) -> np.ndarray:
    """The steps (T, G) that read the times t, dt * selection_rates at the looked-up states: the one step rule."""
    p_d = history.lookup(t)
    uv = utilities(p_d)
    if (shape := np.shape(uv.u)) != p_d.shape:  # numpy would broadcast a single value, or fail on a longer one
        raise ConfigurationError("solve_delayed utilities of shape %s for states %s" % (shape, p_d.shape))
    return history.dt * selection_rates(p_d, uv, mu)


def delayed_steps(traj: Trajectory, mu: float, delta: float) -> np.ndarray:
    """The steps (N - 1, G) of the solve_delayed run traj, recomputed from its states and map in one stacked call.

    traj.states[:-1] + steps are the sums that _advance projected.  Raises ConfigurationError
    for what solve_delayed rejects, a trajectory without a utility map or of fewer than 2
    samples, or times off the grid t_i = i * dt that solve_delayed samples.
    """
    _require("delay", delta, _NON_NEGATIVE)
    _require("mu", mu, _POSITIVE)
    if traj.utilities is None or len(traj) < 2:
        raise ConfigurationError("delayed_steps needs a trajectory of at least 2 samples that keeps its utility map")
    grid = np.arange(len(traj)) * float(traj.times[1] - traj.times[0])
    if not np.array_equal(traj.times, grid):
        raise ConfigurationError("delayed_steps needs the times t_i = i * dt of a solve_delayed run")
    return _steps_reading(traj.utilities, mu, HistoryBuffer(grid[1], traj.states), grid[:-1] - delta)


@np.errstate(over="ignore", invalid="ignore")  # a round that overflows never reaches PICARD_TOL
def picard_solve(field: Callable, p0, times: np.ndarray, diffs: list | None = None) -> Trajectory:
    """Solve p(t) = p0 + integral of field by fixed-point iteration.

    Starts from the constant initial state and applies trapezoidal
    quadrature on the given grid until the sup-norm change between rounds
    drops below PICARD_TOL.  Raises NonConvergenceError when PICARD_ROUNDS
    pass without reaching it (horizon too long for a contraction).
    An optional diffs list collects the per-round sup-norm changes.
    """
    p_init = _check_p0(p0)
    times = np.asarray(times, dtype=float)
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
            return Trajectory(times.copy(), current)
    raise NonConvergenceError(
        "picard iteration did not reach tol=%.1e in %d rounds" % (PICARD_TOL, PICARD_ROUNDS)
    )
