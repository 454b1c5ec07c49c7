"""Solvers for the selection dynamics.

ReplicatorSolution is the exact undelayed replicator dynamics of the payoff pair
(numer, n_users) and its rest point; solve_replicator samples it.  solve_delayed,
the package's one forward-Euler stepper, steps the delayed replicator field, reading
past states by one history rule (_samples, then _read: linear interpolation between
samples, constant pre-history), once per delay window, and evaluating the field of a
whole window at once (method of steps).  Each window builds the read times of its own
steps only, and _read gathers the rows they read with np.take.  Both return a Trajectory:
a HistoryBuffer, the states on the grid t_i = i * dt that lookup reads by the same rule,
with the run's utility map.

solve_delayed takes its steps through one loop (_advance), which adds each
step to the state and projects the sum back onto the probability simplex,
summing left to right.  It steps on Python floats in straight-line code that
_kernel generates for the group count (one statement per share and operation,
in the order of a loop over the shares), compiled on the first call for that
count and cached; except after a chunk of steps that were each added unchanged
(a total of exactly 1) or that ends where it started (shares clamped at zero):
there it proposes blocks of rows with numpy and keeps only the rows that carry
the step-by-step bits.  It keeps no tally: delayed_steps recomputes
a delayed run's steps from its stored states and payoff pair, and the run's
clamps, absorbed mass and drift follow from states[:-1] + steps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import _NON_NEGATIVE, _POSITIVE, MAX_STEPS, IntegratorSpec, _array, _on_simplex, _require
from .errors import ConfigurationError, NumericalDriftError, NumericError
from .game import EPS_FIELD, _check_payoff, make_utilities, quiet_steps


@dataclass
class HistoryBuffer:
    """States sampled on the grid t_i = i * dt, times = np.arange(N) * dt: the one grid type of the sampled runs.

    states are a float array (a float array is kept, not copied), 2-D, of at least one sample
    and one group, and finite: a lookup would read one share of a 1-D history as a state, and
    a non-finite state would make detect_equilibrium's differences NaN.  dt is positive and
    (N - 1) * dt a float.  lookup reads the states by the history rule of _samples and _read.
    """

    dt: float
    states: np.ndarray  # (N, G)

    _owner = "history"

    def __post_init__(self):
        dt = float(_require("dt", self.dt, _POSITIVE))  # a numpy dt would warn on the overflow below
        owner = self._owner
        states = self.states = _array("%s states" % owner, self.states)
        if states.ndim != 2:
            raise ConfigurationError("%s states must be 2-D, got shape %s" % (owner, states.shape))
        if not states.shape[0]:
            raise ConfigurationError("%s states need at least one sample, got shape %s" % (owner, states.shape))
        if not states.shape[1]:
            raise ConfigurationError("%s states need at least one group, got shape %s" % (owner, states.shape))
        if not np.all(np.isfinite(states)):
            raise ConfigurationError("%s states must be finite" % owner)
        if not (len(states) - 1) * dt < np.inf:
            raise ConfigurationError("%s dt: the last sample time %d * %r is not a float" % (owner, len(states) - 1, dt))

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.states)) * self.dt

    def __len__(self) -> int:
        return len(self.states)

    def lookup(self, t) -> np.ndarray:
        """States at the time t (G,) or at each of the times t (T, G).

        Raises ConfigurationError when a time is past the newest sample, or NaN.
        """
        return _read(self.states, t, *_samples(_array("lookup times", t), self.dt))


@dataclass
class Trajectory(HistoryBuffer):
    """A sampled run: its states on the grid t_i = i * dt and the run's state -> (u, u_bar) map.

    Only states are stored; utilities come from the map of a stored or looked-up state, which
    keeps its identities (such as u_bar being the mass-weighted mean of u) exact even between
    grid points.
    """

    utilities: Callable

    _owner = "trajectory"

    def __post_init__(self):
        super().__post_init__()
        if not callable(self.utilities):
            raise ConfigurationError("trajectory utilities must be a state -> (u, u_bar) map, got %r" % (self.utilities,))


def _check_p0(p0) -> np.ndarray:
    p = _array("p0", p0).copy()
    if p.ndim != 1 or not _on_simplex(p):
        raise ConfigurationError("p0 must be a vector of non-negative shares that sum to 1 within 1e-9")
    return p


# Largest |sum(p) - 1| one step may leave before it is projected back
DRIFT_TOL = 1e-6
# _advance's block path: the steps of a chunk, after which the chunk's ends may start a block; and
# the rows a block proposes at once, and the most that the loop holds as Python floats, so that a
# long delay window does not grow the peak memory
_STREAK = 32
_CAP = 2048


# _advance's step loop for G groups, with v0.. (state), d0.. (step) and x0.. (sum) filled in: the total
# takes one statement per share, since one nested sum of a few thousand terms overflows the compiler
_KERNEL = """
def step(p, chunk, flat):
    {v} = p
    slow = 0
    for {d} in chunk:
        {add}
        total = 0.0; {total}
        clamp = {negative}
        if total != 1.0 or clamp:  # true for a NaN total, which the drift check rejects
            drift = abs(total - 1.0)
            if not drift <= DRIFT_TOL:
                raise NumericalDriftError("simplex drift %.3e exceeds %.1e in one step; reduce dt" % (drift, DRIFT_TOL))
            if clamp:  # no sum is NaN here: their total passed the drift check
                {clamped}
                total = 0.0; {total}
            if total != 1.0:
                {divided}
            slow += 1
        {moved}
        flat += ({x})
    return ({v}), slow
"""


@functools.cache
def _kernel(g: int) -> Callable:
    """_advance's step loop for g groups: step(p, chunk, flat) -> (p, steps clamped or divided), extending flat."""

    def each(form: str, sep: str = "; ") -> str:  # form for the shares 0..g-1, # standing for the share
        return sep.join(form.replace("#", str(j)) for j in range(g))

    source = _KERNEL.format(
        v=each("v#, ", ""), d=each("d#, ", ""), x=each("x#, ", ""), add=each("x# = v# + d#"),
        total=each("total += x#"), negative=each("x# < 0.0", " or "), clamped=each("x# = 0.0 if x# < 0.0 else x#"),
        divided=each("x# = x# / total"), moved=each("v# = x#"),
    )
    scope = {}  # the function reads DRIFT_TOL and NumericalDriftError from this module
    exec(compile(source, "<irsgame.dynamics._kernel(%d)>" % g, "exec"), globals(), scope)
    return scope["step"]


def _advance(rows: np.ndarray, steps: np.ndarray) -> None:
    """Add each row of steps to the state rows[0] in turn, projecting onto the simplex after each.

    Writes the state after step k into rows[k + 1].  A sum whose total is more than DRIFT_TOL
    from 1 raises NumericalDriftError; otherwise its negative entries are clamped to zero and
    it is rescaled to unit sum, summing left to right.  Steps run on Python floats, _STREAK
    rows at a time, since numpy's fixed cost per call would dominate vectors a few groups long,
    through _kernel(G): the loop over the G shares unrolled, built on the first call for G.
    A total of exactly 1 is not divided: v / 1.0 == v.  A raw sum within DRIFT_TOL of 1 has a
    positive entry, so the clamped sum is positive.  A chunk of _STREAK steps with none clamped
    or divided (a running sum), or that ends on its first state (as shares clamped at zero hold
    it), starts _blocks, which proposes the next rows at once and keeps what it verifies.
    """
    n = len(steps)
    step = _kernel(rows.shape[1])
    p = rows[0].tolist()
    i = done = 0  # steps taken, and rows written
    flat = []
    while i < n:
        start = tuple(p)
        chunk = steps[i : i + _STREAK].tolist()
        p, slow = step(p, chunk, flat)
        i += len(chunk)
        block = len(chunk) == _STREAK and (not slow or p == start)
        if block or i == n or i - done >= _CAP:  # the rows as one array, a few thousand at most
            rows[done + 1 : i + 1] = np.array(flat).reshape(i - done, -1)
            flat, done = [], i
        if block:
            i = done = _blocks(rows, steps, i, slow > 0)
            p = rows[i].tolist()


def _column_sums(x: np.ndarray) -> np.ndarray:
    """Each row's sum from left to right, from 0.0 as _advance's loop starts."""
    s = np.zeros(len(x))
    for column in x.T:
        s = s + column
    return s


@np.errstate(all="ignore")  # rows past the first that fails the drift check are never kept
def _blocks(rows, steps, i: int, hold: bool) -> int:
    """The steps from step i, _CAP at a time, kept where they have the bits of _advance's loop.

    Each proposal is the state rows[i] held (hold) or the running sum of the steps from it,
    added in sequence by cumsum.  Every proposed row is stepped again from the proposed
    previous state with the loop's arithmetic; the rows up to the first whose result differs
    from its proposal in any bit (as integers, so -0.0 differs from 0.0) are verified, and so
    is that row's own result, since its previous state is.  Only rows that pass the drift check
    are kept: the loop takes the first that fails and raises.  Proposes again from the last
    kept row while a whole proposal holds; returns the first step not taken.
    """
    while i < len(steps):
        dp = steps[i : i + _CAP]
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
        for r, q in zip(result.view(np.int64).T, proposal.view(np.int64).T):  # numpy's cost per row dominates
            same &= r == q
        kept = len(dp) if same.all() else int(np.argmin(same)) + 1
        failed = np.flatnonzero(~(np.abs(total[:kept] - 1.0) <= DRIFT_TOL))
        if failed.size:
            kept = int(failed[0])
        rows[i + 1 : i + 1 + kept] = result[:kept]
        i += kept
        if kept < len(dp) or not same[-1]:
            break
    return i


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
        times = _array("sample times", times)
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

    def equilibrium_index(self, dt: float, n: int | None = None) -> int | None:
        """detect_equilibrium's index on the grid t_i = i * dt, i = 0..n, or on an unbounded grid (n None).

        Within a piece the rate max_g |p_{i+1,g} - p_{i,g}| / dt is k0 * exp(-a * (t - t_k)),
        a = mu * C, k0 = max|slope| * (1 - exp(-a * dt)) / (C * dt): with C > 0 it falls below
        EPS_FIELD for good after t_k + ln(k0 / EPS_FIELD) / a, else it peaks at t_end.  Going back
        from the last piece, only the steps i < n near those times and near t_k, each clipped to
        n * dt, are checked, by quiet_steps as detect_equilibrium checks them: None when step n - 1
        moves.  Raises ConfigurationError for a dt that is not positive and finite, past MAX_STEPS
        samples, or when those samples' times pass the largest float.
        """
        _require("dt", dt, _POSITIVE)
        end = np.inf if n is None else n  # the grid's last sample
        for t_k, t_end, _, big_c, slope in reversed(self.pieces):
            near = [t_k, t_end] if t_end < np.inf else [t_k]
            if slope.any() and big_c > 0.0:
                top = float(np.max(np.abs(slope)))  # -expm1(-mu C dt) / (C dt) tends to mu as C dt underflows to 0
                k0 = top * -math.expm1(-self.mu * big_c * dt) / (big_c * dt) if big_c * dt > 0.0 else top * self.mu
                if k0 > EPS_FIELD:
                    near.append(min(t_end, t_k + math.log(k0 / EPS_FIELD) / (self.mu * big_c)))
            near = [min(t, end * dt) for t in near]
            last = max(near) / dt
            if not last <= MAX_STEPS:
                raise ConfigurationError(
                    "the rest point comes after sample %.3g, beyond the cap of %d" % (last, MAX_STEPS)
                )
            if not min(last + 4, end) * dt < np.inf:  # the samples checked below go up to min(ceil(last) + 3, n)
                raise ConfigurationError("the samples near the rest point are past the largest float for dt = %r" % dt)
            steps = {max(0, math.ceil(t / dt) + k) for t in near for k in range(-9, 3)}
            i = np.array(sorted(j for j in steps if j < end))
            moving = i[~quiet_steps(self.at((i + 1) * dt) - self.at(i * dt), (i + 1) * dt - i * dt)]
            if moving.size:  # the sample after the last moving step, None when that is the grid's last
                return int(moving[-1]) + 1 if moving[-1] < end - 1 else None
        return 0


def solve_replicator(numer, n_users: int, mu: float, p0, spec: IntegratorSpec) -> Trajectory:
    """ReplicatorSolution(numer, n_users, mu, p0) sampled on the grid t_i = i * dt, i = 0..spec.n_steps().

    The trajectory keeps make_utilities(numer, n_users) as its utility map.
    """
    times = np.arange(spec.n_steps() + 1) * spec.dt
    return Trajectory(spec.dt, ReplicatorSolution(numer, n_users, mu, p0).at(times), make_utilities(numer, n_users))


def _growth(s, mu: float, big_c: float):
    """Integral of mu * exp(-mu * C * r) over r in [0, s]."""
    if big_c == 0.0:
        return mu * s
    # -mu * C * s can overflow only where C > 0 (with C < 0 a piece ends before its shares
    # blow up): expm1(-inf) = -1 is then the exact limit, the rest point
    with np.errstate(over="ignore"):
        return -np.expm1(-mu * big_c * s) / big_c


@np.errstate(over="ignore", invalid="ignore")  # t / dt past a float is pre-history or past the newest sample
def _samples(t: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The samples lo <= hi of the grid i * dt that each time t reads, and the weight frac of hi (0 when hi = lo).

    The one history rule of the delayed dynamics: a time within 1e-9 steps, or 4 ulps of t / dt
    (wider past 2**21 steps, where (i * dt) / dt may be 1 ulp off i), of a sample is that sample,
    a time between two samples is their linear interpolation, and t <= 0 the initial state.
    """
    x = t / dt
    near = np.round(x)
    snap = np.abs(x - near) < np.maximum(1e-9, 4.0 * np.spacing(np.abs(x)))
    pre = t <= 0.0
    lo = np.where(pre, 0.0, np.where(snap, near, np.floor(x)))
    frac = np.where(snap | pre, 0.0, x - lo)
    return lo, lo + (frac > 0.0), frac


def _read(states: np.ndarray, t: np.ndarray, lo: np.ndarray, hi: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """The states at the times t that read the samples (lo, hi, frac) = _samples(t, dt) of the rows states.

    Returns a new array; only the times between two samples read hi.  Raises ConfigurationError
    when a time is past the newest row, or NaN.
    """
    if not np.all(hi < len(states)):
        raise ConfigurationError("history lookup at t=%r is beyond the newest sample" % (float(np.max(t)),))
    a, between = np.take(states, lo.astype(np.intp), axis=0), frac > 0.0  # a copy, even for a 0-d time
    f = frac[between][:, None]
    a[between] = (1.0 - f) * a[between] + f * np.take(states, hi[between].astype(np.intp), axis=0)
    return a


def solve_delayed(numer, n_users: int, mu: float, p0, delta: float, spec: IntegratorSpec) -> Trajectory:
    """Forward-Euler steps of the delayed replicator field of the payoff pair, one delay window at a time.

    Step i adds dt * mu * p_g * (u_g - u_bar) with state and utilities at i * dt - delta, read
    from the rows written so far by the history rule, sampled once per window.  Every step whose
    history is already known (up to floor(delta / dt) + 1 steps) gets its field from one stacked call of
    make_utilities(numer, n_users) (method of steps), which the trajectory keeps as its map;
    only the projection onto the simplex runs step by step.  A delay below dt gives windows of
    one step, and delta = 0 is forward Euler of the undelayed replicator field.
    """
    _require("delay", delta, _NON_NEGATIVE)
    _require("mu", mu, _POSITIVE)
    p = _check_p0(p0)
    utilities = make_utilities(numer, n_users)
    n = spec.n_steps()
    dt = spec.dt
    states = np.empty((n + 1, p.size))
    states[0] = p
    reach = math.floor(min(delta / dt, n)) + 3  # step i + reach reads past sample i + 1: a window ends before it
    i = 0
    while i < n:
        t_q = np.arange(i, min(i + reach, n)) * dt - delta  # the time each step of the window reads
        lo, hi, frac = _samples(t_q, dt)
        k = max(int(np.searchsorted(hi, i, "right")), 1)  # steps i..i+k-1 read states[:i + 1]
        # only the rows written: a first time that rounds past i * dt is an error, not a read of np.empty
        steps = _steps_reading(utilities, mu, dt, _read(states[: i + 1], t_q[:k], lo[:k], hi[:k], frac[:k]))
        del t_q, lo, hi, frac  # the window's times, samples and past states are not held while it steps
        _advance(states[i : i + k + 1], steps)
        i += k
    return Trajectory(dt, states, utilities)


@np.errstate(over="ignore", invalid="ignore")  # a step that overflows fails the drift check
def _steps_reading(utilities: Callable, mu: float, dt: float, p_d: np.ndarray) -> np.ndarray:
    """The steps (T, G) that read the past states p_d, dt * mu * p_g * (u_g - u_bar) under make_utilities'
    map, empty groups exactly zero: the one step rule and replicator field."""
    u, u_bar = utilities(p_d)
    return dt * (mu * np.where(p_d > 0.0, p_d * (u - u_bar[:, None]), 0.0))


def delayed_steps(traj: Trajectory, numer, n_users: int, mu: float, delta: float) -> np.ndarray:
    """The steps (N - 1, G) of the solve_delayed run traj of the payoff pair, recomputed in one stacked call.

    traj.states[:-1] + steps are the sums that _advance projected.  Raises ConfigurationError
    for what solve_delayed rejects, or a trajectory of fewer than 2 samples.
    """
    _require("delay", delta, _NON_NEGATIVE)
    _require("mu", mu, _POSITIVE)
    if len(traj) < 2:
        raise ConfigurationError("delayed_steps needs a trajectory of at least 2 samples")
    return _steps_reading(make_utilities(numer, n_users), mu, traj.dt, traj.lookup(traj.times[:-1] - delta))
