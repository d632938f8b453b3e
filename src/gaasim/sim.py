"""Deterministic co-simulation of the interconnected concrete/abstract pair
under a piecewise abstract input policy, with jump-event handling and
trajectory-level verification.

The joint state z = [x; xhat] evolves under classical fixed-step RK4.  Each
control regime (`_Regime`) has an exact autonomous generator: a feedback
region's closed loop is autonomous as it is, and an open-loop segment
carries its polynomial drive on the augmented state [z; 1; s; ...; s^deg] of
normalized local time s.  The step map of every regime is RK4 of its
generator, one matrix (`_rk4_phi`); on a segment's powers of s it is their
exact flow.  One driver integrates a run span by span over the policy's
`spans`, whose cuts it inserts into the grid exactly (a feedback run is one
span): it propagates by repeated doubling (`_propagate`) until a sample
leaves the regime: a non-finite one fails the run, and a region's crossing
out of its box is located by bisection, the enclosing step split there, and
the regime switched.  The driver only integrates; its last row keeps the
regime of the span it ends, so every run boundary is a switch, where
`_jump_log` reads the input change (new minus old uhat) off the rows, one
rule (`_is_jump`) decides whether it is a jump, and one function
(`_judge_jumps`) judges the jumps.  A jump time's row stores the right
limit of the abstract input.  One pass over a finished run's
rows (`_error_bound`) proves a bound on the integration error of its
sampled vg, `decay_slack`.  The record keeps a run as its state: times,
joint states (column-major, propagated into place), vg and regime runs.
`_formed` forms the other columns on each read, a block of rows at a time
(`_blocks`), the policy over the block's slice of each run, every product
summed left to right (`numerics.ordered_dot`), so a row, and a point, has
the same bits in any block.

Integration within a run is sequential; distinct runs share no mutable
state and may execute in parallel.  `write_trajectory_csv`, the CSV export,
writes a block of rows at a time with `np.savetxt`, so it holds one block
of text.
"""

from __future__ import annotations

import functools
import io
import math
import warnings
from dataclasses import dataclass, fields
from typing import BinaryIO

import numpy as np

from . import numerics, refine
from .model import (
    AbstractInputPolicy,
    AbstractLinearSystem,
    Box,
    ConcreteLinearSystem,
    OpenLoopSegment,
    OperatingEnvelope,
)
from .synthesis import ConditionRecord, RefinementGains


class SimulationError(RuntimeError):
    """A run that cannot go on: a non-finite state (divergence), two input
    jumps closer than 10 steps, a region entered at a crossing and left within
    the same step, or (in the CLI) an infinite disturbance budget."""


#: minimum admissible spacing between jump events, in units of the step h
MIN_JUMP_SEPARATION_STEPS = 10

#: rows per slice of a stretch of `_error_bound`, so that its temporaries
#: stay small; `decay_slack` takes its maxima per slice, so depends on this size
_BOUND_ROWS = 65536

#: rows per block of every reader of the formed columns (`_blocks`): a
#: block's columns are the memory a reader holds beyond the record, which
#: `_preflight` counts; no bit depends on the size (see `_formed`)
_BLOCK_ROWS = 16384

#: rows `_integrate` allocates beyond its grid for the rows of located region
#: crossings; a run with more crossings grows its arrays in place, each time
#: by the larger of this and 1/64 of their rows
_CROSSING_ROWS = 64

#: unit roundoff of float64
_U = 2.0**-53


def _blocks(lo: int, hi: int):
    """Slices of at most `_BLOCK_ROWS` rows that cover rows lo..hi in order."""
    return (slice(a, min(a + _BLOCK_ROWS, hi)) for a in range(lo, hi, _BLOCK_ROWS))


#: relative threshold of `_is_jump`: a smaller input change is continuous
JUMP_VALUE_RTOL = 1e-12


def _is_jump(delta, before) -> bool:
    """Whether the input change `delta` at a switch away from `before` is a
    jump: its norm exceeds JUMP_VALUE_RTOL * max(1, ||before||)."""
    return bool(
        np.linalg.norm(delta) > JUMP_VALUE_RTOL * max(1.0, float(np.linalg.norm(before)))
    )


@dataclass
class JumpRecord:
    """One logged input jump, judged by its own budget: lhs <= rhs."""

    time: float
    delta: np.ndarray
    lhs: float
    rhs: float

    @property
    def passed(self) -> bool:
        return bool(self.lhs <= self.rhs)


@dataclass
class TrajectoryRecord:
    """A run as its state: times `t`, joint states `z` = [x; xhat], `vg`,
    the (start, stop, regime index) `runs` of the rows, the jump log and
    `decay_slack`, with the policy, gains and systems that form the rest.

    Rows are strictly increasing in time, cover [t0, t0 + horizon], and
    every jump time appears exactly on the grid (its row stores the
    post-jump abstract input).  `vg[0]` is the value at t[0] = t0 that the
    run anchored its jump envelope on, and `decay_slack` bounds the
    integration error of `vg` (see `simulate`).
    Each array is (rows,) or (rows, k) and F-contiguous: `t` and `z` are the
    arrays the run was integrated into, trimmed to its rows, and `x` and
    `xhat` are views of `z`, one contiguous column per coordinate.  `uhat`,
    `uhatdot`, `u`, `y`, `yhat` and `err` are formed anew, block by block
    (`_formed`), on every read, so a caller that needs one reads it once.
    A caller that needs C order copies with `np.ascontiguousarray`.
    """

    t: np.ndarray
    z: np.ndarray
    vg: np.ndarray
    runs: list[tuple[int, int, int]]
    jumps: list[JumpRecord]
    decay_slack: float
    policy: AbstractInputPolicy
    gains: RefinementGains
    concrete: ConcreteLinearSystem
    abstract: AbstractLinearSystem

    x = property(lambda self: self.z[:, : self.concrete.n])
    xhat = property(lambda self: self.z[:, self.concrete.n :])
    uhat = property(lambda self: self._column("uhat"))
    uhatdot = property(lambda self: self._column("uhatdot"))
    u = property(lambda self: self._column("u"))
    y = property(lambda self: self._column("y"))
    yhat = property(lambda self: self._column("yhat"))
    err = property(lambda self: self._column("err"))

    def _column(self, name: str) -> np.ndarray:
        """The formed column `name` over every row, F-contiguous: one
        coordinate per input or output channel, vg and err one value a row."""
        width = {"uhat": self.policy.m_r, "uhatdot": self.policy.m_r, "u": self.concrete.m,
                 "y": self.concrete.p, "yhat": self.abstract.p}
        out = np.empty((self.t.size, *((width[name],) if name in width else ())), order="F")
        for b in _blocks(0, self.t.size):
            out[b] = _formed(self, b, (name,))[name]
        return out


def eval_policy(policy: AbstractInputPolicy, abstract: AbstractLinearSystem, t: float, xhat):
    """(uhat, duhat/dt, None) at one time t and abstract state xhat, from the
    regime that `AbstractInputPolicy.regime_index` picks: the active
    polynomial and its derivative, or -K xhat and -K (A xhat + B uhat).  The
    third entry, always None, keeps the 3-tuple that callers unpack."""
    xhat = np.asarray(xhat, dtype=float).reshape(-1)
    regime = policy.regimes[policy.regime_index(t, xhat)]
    uhat = regime.uhat(t, xhat)
    return uhat, regime.uhatdot(abstract, np.array([t]), xhat[None], uhat[None])[0], None


# ---------------------------------------------------------------------------
# Generators of the per-regime dynamics dz/dt = F z + N uhat and their RK4 map


def _rk4_phi(F: np.ndarray, s: float) -> np.ndarray:
    """Classical RK4's map of dw/dt = F w over a step s: exp(sF) to 4th order."""
    eye = np.eye(F.shape[0])
    F2 = F @ F
    F3 = F2 @ F
    return eye + s * F + (s * s / 2.0) * F2 + (s**3 / 6.0) * F3 + (s**4 / 24.0) * F2 @ F2


def _joint_matrices(concrete, abstract, gains):
    """F and N of the interconnected dynamics with the refined input."""
    A, B = concrete.A, concrete.B
    on_x, on_xhat, on_uhat = refine.interface_gains(gains)
    n, n_r = A.shape[0], abstract.A.shape[0]
    F = np.zeros((n + n_r, n + n_r))
    F[:n, :n] = A + B @ on_x
    F[:n, n:] = B @ on_xhat
    F[n:, n:] = abstract.A
    N = np.vstack([B @ on_uhat, abstract.B])
    return F, N


def _binomial_shift(c: float, size: int) -> np.ndarray:
    """Lower-triangular L with L[i, k] = C(i, k) c^(i - k): a polynomial with
    ascending coefficients `coeffs` re-expands about c as p(c + tau) = sum_k
    (coeffs @ L)[k] tau^k."""
    out = np.zeros((size, size))
    for i in range(size):
        for k in range(i + 1):
            out[i, k] = math.comb(i, k) * c ** (i - k)
    return out


def _segment_generator(F, N, seg: OpenLoopSegment, a: float, length: float):
    """Exact generator of one open-loop segment on [a, a + length] as an
    autonomous system on w = [z; 1; s; ...; s^deg], s = (t - a) / length:
    dz/dt = F z + N uhat(a + length s), d(s^j)/dt = j s^(j-1) / length (Van
    Loan's augmented-matrix construction)."""
    size, nz = seg.coeffs.shape[1], F.shape[0]
    gen = np.zeros((nz + size, nz + size))
    gen[:nz, :nz] = F
    gen[:nz, nz:] = N @ ((seg.coeffs @ _binomial_shift(a, size)) * length ** np.arange(size))
    gen[nz:, nz:] = np.diag(np.arange(1.0, size), -1) / length
    return gen


@dataclass(frozen=True, eq=False)
class _Regime:
    """One control regime of a run, for a span [a, b] of it that `steps` steps
    of length `step` cover: a feedback region with its box, whose propagated
    state w is z, or an open-loop segment, whose w is [z; 1; s; ...; s^deg]
    with s = (t - a) / (b - a), `tail` after z at a.  A sample leaves it
    where z is not finite or outside the box.  `gen` is the exact generator
    of w (None for a segment over an empty span, which takes no step)."""

    index: int
    step: float
    steps: int
    gen: np.ndarray | None
    tail: np.ndarray
    box: Box | None = None


def _n_steps(a: float, b: float, h: float) -> int:
    return max(1, int(math.ceil((b - a) / h - 1e-9)))


def _regime(policy, F, N, index: int, a: float, b: float, h: float) -> _Regime:
    """The policy's regime `index` for the span [a, b] of a run of step h."""
    steps = _n_steps(a, b, h) if b > a else 0
    step = (b - a) / max(steps, 1)
    item = policy.regimes[index]
    if isinstance(item, OpenLoopSegment):
        gen = _segment_generator(F, N, item, a, b - a) if steps else None
        return _Regime(index, step, steps, gen, np.eye(item.coeffs.shape[1])[0])
    to_xhat = np.eye(F.shape[0])[F.shape[0] - item.gain.shape[1] :]
    return _Regime(index, step, steps, F - N @ (item.gain @ to_xhat), np.empty(0), item.box)


def _regimes(policy, F, N, h: float):
    """`_regime` of the policy for a run of step h with joint matrices F and
    N, memoized by (index, a, b), so that a run builds each regime once."""
    return functools.cache(lambda index, a, b: _regime(policy, F, N, index, a, b, h))


def _preflight(concrete, abstract, policy, horizon: float, h: float) -> None:
    """Refuse a run before anything is allocated: ValueError for a step that
    is not positive and finite or a negative horizon, and TooLarge, a
    MemoryError, when its largest live set would exceed physical memory.
    Each set is counted in doubles: per row, and per row of a slice or block
    (README, "What a run holds in memory")."""
    if not (h > 0 and math.isfinite(h)):
        raise ValueError(f"step h must be positive and finite, got {h}")
    if not horizon >= 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    n, n_r, m, m_r, p = concrete.n, abstract.n_r, concrete.m, abstract.m_r, concrete.p
    nz = n + n_r
    w = nz + max((seg.coeffs.shape[1] for seg in policy.segments), default=0)
    rows = horizon / h + 1.0
    # integrating: t and z with their crossing rows, then an open-loop span's
    # augmented scratch or a bound slice; the record: t, z and vg, and a
    # block of formed columns
    scratch = rows * w if policy.segments else 0.0
    need = max((rows + _CROSSING_ROWS) * (1 + nz)
               + max(scratch, min(rows, _BOUND_ROWS) * (w + 2 * nz + 8)),
               rows * (2 + nz) + min(rows, _BLOCK_ROWS) * (
                   2 * n + 4 * m + 4 * m_r + 3 * n_r + 3 * p + 4))
    numerics.require_memory(8.0 * need, "the run")


def _norm_bound(a: np.ndarray) -> float:
    """sqrt(|a|_1 |a|_inf), an upper bound on the spectral norm of `a`."""
    a = np.abs(a)
    return math.sqrt(float(a.sum(axis=0).max()) * float(a.sum(axis=1).max()))


def _column_norms(a: np.ndarray) -> np.ndarray:
    norms = np.einsum("ij,ij->j", a, a)
    return np.sqrt(norms, out=norms)


def _row_norms(a: np.ndarray) -> np.ndarray:
    """The 2-norm of each row of a (rows, k): the squares of its columns
    added in order, then the root.  On an F-ordered a this is the arithmetic
    of np.linalg.norm(a, axis=1), without its copies."""
    out = a[:, 0] * a[:, 0]
    for j in range(1, a.shape[1]):
        out += a[:, j] * a[:, j]
    return np.sqrt(out, out=out)


def _exp(x: float) -> float:
    """exp(x), or infinity where that overflows: a step far too large for the
    bound then gives a vacuous, infinite slack rather than an error."""
    return math.exp(x) if x < 700.0 else math.inf


def _max_column_norm(a: np.ndarray) -> float:
    """An upper bound on the largest column norm of `a`: sqrt(height) max |a_ij|."""
    return math.sqrt(a.shape[0]) * max(float(a.max()), -float(a.min()))


def _linear_recursion(b0: float, powers: np.ndarray, c: np.ndarray) -> np.ndarray:
    """b_1, ..., b_K of b_{k+1} = rho b_k + c_k >= 0 from b_0, given powers =
    rho^1..rho^L with rho^-L <= e^40, as discounted prefix sums over blocks
    of L rows, each rounded up by its count of roundings; written over c."""
    for k0 in range(0, c.size, powers.size):
        p, block = powers[: c.size - k0], c[k0 : k0 + powers.size]
        np.cumsum(np.divide(block, p, out=block), out=block)
        block += b0
        block *= p
        block *= 1.0 + 4.0 * (p.size + 2) * _U
        b0 = block[-1]
    return c


def _error_maps(gains: RefinementGains, nz: int, uhat_gain) -> tuple:
    """(to_e, e_map, e_abs) of a stretch whose uhat is `uhat_gain` xhat, or
    does not depend on z (None): to_e maps eps to (eps_e, eps_xhat), e_map is
    M^{1/2} times its e rows and e_abs is `_norm_bound` of e_map."""
    n = gains.P.shape[0]
    to_e = np.eye(nz)
    to_e[:n] = refine.error_map(gains, uhat_gain)
    e_map = gains.M_sqrt @ to_e[:n]
    return to_e, e_map, _norm_bound(e_map)


def _xhat_rates(gains: RefinementGains, mu: float, to_e: np.ndarray, gen_z: np.ndarray,
                h: float) -> tuple[float, float]:
    """(mu_x, gamma) of a stretch at step h whose generator has z-block
    gen_z: the log-norm of the xhat block of the error generator gt, and
    h |M^{1/2} C| e^(h max(mu, mu_x, 0)) of its coupling block C."""
    n, nz = gains.P.shape[0], to_e.shape[0]
    gt = to_e @ gen_z @ (2 * np.eye(nz) - to_e)  # from_e = 2 I - to_e
    mu_x = float(np.linalg.eigvalsh(gt[n:, n:] + gt[n:, n:].T).max()) / 2.0
    return mu_x, h * _norm_bound(gains.M_sqrt @ gt[:n, n:]) * _exp(h * max(mu, mu_x, 0.0))


def _step_terms(r: _Regime, h: float, exact: bool, nz: int) -> tuple:
    """(theta, Y, per_w) of a stretch of r at step h.  theta weighs a
    segment's powers of s by its drive, so that the bound scales with the
    states (1 for a region); Y is the first nz rows of sum_{j=1..8} (hG)^j / j!
    for the generator G of r with its drive divided by theta; and |d_k - v_k|
    <= per_w |w_k| + 3 u |v_k| bounds the Taylor remainder and the rounding
    of an inexact h, of Y, of the exact powers of s, of Y w_k and of v_k."""
    hg, theta = h * r.gen, 1.0
    if r.box is None:
        drive = r.gen[:nz, nz:]
        theta = _norm_bound(drive) / max(_norm_bound(r.gen[:nz, :nz]), 1.0 / (h * r.steps))
        hg[:nz, nz:] = h * (drive / theta) if theta > 0 else 0.0
    eye = np.eye(hg.shape[0])
    inner = eye
    for j in range(8, 1, -1):
        inner = eye + hg @ inner / j
    g_abs, rounding = _norm_bound(hg), (9 * hg.shape[0] + 30 + 2 * (not exact)) * _U
    per_w = (min(g_abs, 700.0) ** 8 / 362880.0 + rounding) * g_abs * _exp(g_abs)
    return theta, (hg @ inner)[:nz], per_w


def _error_bound(record: TrajectoryRecord, h: float, regime=None) -> tuple[float, float]:
    """(slack, v_rounding) of a run of step h, from its rows alone: slack +
    v_rounding max vg bounds the integration error of its sampled vg, by
    defect control over each stretch of one regime (derived in README, "What
    `decay_slack` bounds").  The walk retraces the run span by span, each
    step from row k to row k + 1 under the regime of row k, at the span's
    grid step.  A region's run ends where the run crossed out of its box,
    and a crossing row off the grid split its step in two, each read from
    t: exactly where the two times have one sign and are within a factor 2
    (Sterbenz), else with its rounding in the local term.  A row at a jump
    time restarts the window.  `regime`, the run's `_regimes`, is built
    from the record when not given.  The per-regime algebra is a table of
    the run, each entry built on first use and keyed by what it reads (see
    README), so that a stretch does only row arithmetic."""
    t, zs, gains, policy, con = record.t, record.z, record.gains, record.policy, record.concrete
    n, nz = con.n, zs.shape[1]
    if regime is None:
        regime = _regimes(policy, *_joint_matrices(con, record.abstract, gains), h)
    # log-norm of A + BK in the M-norm: |exp(h (A + BK))|_M <= e^(mu h)
    a_m = gains.M_sqrt @ (con.A + con.B @ gains.K) @ np.linalg.inv(gains.M_sqrt)
    mu = float(np.linalg.eigvalsh(a_m + a_m.T).max()) / 2.0
    e_rounding = 2 * (gains.P.shape[1] + gains.S.shape[1] + 2) * _U * _norm_bound(gains.M_sqrt)
    p_abs, s_abs = _norm_bound(gains.P), _norm_bound(gains.S)
    # rho^1..rho^L, built once for each distinct (step, L) of the run
    powers_of = functools.cache(
        lambda h, block: _exp(max(mu * h, -700.0)) ** np.arange(1.0, block + 1.0))
    maps, rates, terms = {}, {}, {}  # the run's table
    fresh = (0.0, 0.0, None)  # a, b and the e map of a window's last stretch
    slack, window = 0.0, fresh

    def entry(table: dict, key, build, *args):
        """table[key], built as build(*args) on first use."""
        if key not in table:
            table[key] = build(*args)
        return table[key]

    def stretch(r: _Regime, h: float, first: int, last: int, exact: bool = True) -> None:
        """Advance the window's a >= |eps_xhat| and b >= |eps_e|_M, which obey
        a' <= beta a + |d_xhat| and b' <= rho b + gamma a + |d_e|_M, over rows
        first..last, h apart under r (s = k / steps at row k of a segment's
        span).  A single row takes no step and adds only the rounding of e
        from it; an h not `exact`ly its rows' time difference adds its own."""
        nonlocal slack, window
        rows, item = zs[first : last + 1], policy.regimes[r.index]
        count = rows.shape[0] - 1
        gain = None if r.box is None else r.index
        to_e, e_map, e_abs = entry(maps, gain, _error_maps, gains, nz,
                                   None if gain is None else -item.gain)
        acc, b, e_prev = window
        if e_prev is not None:  # a region change within the window
            b += _norm_bound(e_map[:, n:] - e_prev[:, n:]) * acc
        b_max, z_max = b, float(np.linalg.norm(rows[-1]))
        if count:
            mu_x, gamma = entry(rates, (gain, h), _xhat_rates, gains, mu, to_e,
                                r.gen[:nz, :nz], h)
            theta, y, per_w = entry(terms, (r, h, exact), _step_terms, r, h, exact, nz)
            beta = _exp(max(mu_x, 0.0) * h * count)  # >= beta^k here
            block = min(count, max(1, int(min(40.0 / abs(mu * h or 1.0), _BOUND_ROWS))))
            powers = powers_of(h, block)
            for k0 in range(0, count, _BOUND_ROWS):
                z = rows[k0 : k0 + _BOUND_ROWS + 1].T  # one sample per column
                w = z[:, :-1]
                if r.box is None:  # [z; theta s^0; theta s^1; ...]
                    # s^0 = 1 and s^1 = s as power gives them; the higher powers
                    # take integer exponents, as float ones run a loop of other bits
                    s = np.arange(k0, k0 + w.shape[1]) / r.steps
                    w = np.empty((y.shape[1], s.size))
                    w[:nz], w[nz] = z[:, :-1], theta
                    if w.shape[0] > nz + 1:
                        np.multiply(theta, s, out=w[nz + 1])
                        np.multiply(theta, s ** np.arange(2, w.shape[0] - nz)[:, None],
                                    out=w[nz + 2 :])
                v = z[:, 1:] - z[:, :-1]
                v -= y @ w
                w_max = _max_column_norm(w)
                local = per_w * w_max + 3 * _U * _max_column_norm(v)  # on the whole slice
                d_x = _column_norms(v[n:])
                d_x += local
                sums = np.cumsum(d_x)
                added = float(sums[-1])
                # c += gamma beta (acc + sums - d_x) + e_abs local, in place over sums
                c = _column_norms(e_map @ v)
                sums += acc
                sums -= d_x
                sums *= gamma * beta
                sums += e_abs * local
                c += sums
                bs = _linear_recursion(b, powers, c)
                acc += added
                b, b_max = float(bs[-1]), float(np.maximum(b_max, bs.max()))  # keeps a NaN
                z_max = max(z_max, w_max)
            acc *= beta
        acc, b, b_max = (q if q <= math.inf else math.inf for q in (acc, b, b_max))
        window = (acc, b, e_map)
        # the absolute terms sum_j |c_j| |t|^j of the record's uhat bound its rounding
        if r.box is None:
            t_pow = max(abs(t[first]), abs(t[last])) ** np.arange(item.coeffs.shape[1])
            u_terms = float(np.linalg.norm(np.abs(item.coeffs) @ t_pow))
        else:
            u_terms = _norm_bound(item.gain) * z_max
        slack = max(slack, b_max + e_rounding * ((1.0 + p_abs) * z_max + s_abs * u_terms))

    def sub_step(r: _Regime, k: int) -> None:
        """Advance from row k to row k + 1, the step read from their times."""
        dt = float(t[k + 1] - t[k])
        stretch(r, dt, k, k + 1, exact=dt < min(abs(t[k]), abs(t[k + 1])))

    jump_rows = set(np.searchsorted(t, [j.time for j in record.jumps]).tolist())
    # an overflow gives an infinite, vacuous bound (a NaN reads as infinity; see `_exp`)
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b in policy.spans(float(t[0]), float(t[-1])):
            lo, hi = np.searchsorted(t, (a, b)).tolist()
            r = regime(next(i for s, e, i in record.runs if s <= lo < e), a, b)
            cuts = [(s, i) for (s, _, i), (_, _, prev) in zip(record.runs[1:], record.runs)
                    if lo < s <= hi and regime(prev, a, b).box is not None]
            k, splits = lo, 0
            window = fresh if lo in jump_rows else window
            for c, index in cuts:
                g = c - lo - splits  # the grid step that row c ends, or splits
                off = bool(t[c] != (b if g == r.steps else a + r.step * g))
                stretch(r, r.step, k, c - off)
                if off:
                    sub_step(r, c - 1)
                window = fresh if c in jump_rows else window
                r = regime(index, a, b)
                if off:
                    sub_step(r, c)
                k, splits = c + off, splits + off
            stretch(r, r.step, k, hi)
    return slack, 2 * (n**2 + 4) * _U * _norm_bound(gains.M) / gains.lambda_min_M


def simulate(
    concrete: ConcreteLinearSystem,
    abstract: AbstractLinearSystem,
    gains: RefinementGains,
    policy: AbstractInputPolicy,
    x0,
    xhat0,
    horizon: float,
    h: float,
    rbar_max: float = 0.0,
    t0: float = 0.0,
    epsilon: float | None = None,
) -> TrajectoryRecord:
    """Co-simulate the refined interconnection over [t0, t0 + horizon].

    Identical inputs produce bit-identical records.  A warning is issued
    when the initial triple is outside the relation at `epsilon` (by default
    the bundle's); the verdict on it is `verify_trajectory`'s.  Two jumps of
    the integrated rows (`_jump_log`) closer than 10 steps raise
    SimulationError; each is judged against the envelope of `rbar_max`,
    restarted after every jump (`_judge_jumps`): pass the `rbar_max` of
    `synthesis.feasibility`, as the default 0.0 makes omega smaller and each
    `JumpRecord.passed` optimistic.  Neither parameter changes the run's
    rows or `decay_slack`.
    A run whose arrays would exceed physical memory raises TooLarge, a
    MemoryError, before it allocates them.

    The record's `decay_slack` is a proven bound on |vg(t_k) - vg_exact(t_k)|
    at every sample of a decay window (the rows between logged jumps), where
    vg_exact is the exact flow of the recorded regime sequence started from
    the window's first row, over the recorded steps t[k+1] - t[k].  It is
    computed after the run, from its rows alone (`_error_bound`).
    So a window that passes `verify_trajectory` has vg_exact(t_k) <=
    omega(t_k - t_a, vg(t_a)) + 2 decay_slack at its samples.  The error of
    locating region crossings by bisection (to 1e-9 of the horizon) is
    outside the bound.
    """
    _preflight(concrete, abstract, policy, horizon, h)
    regime = _regimes(policy, *_joint_matrices(concrete, abstract, gains), h)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    xhat0 = np.asarray(xhat0, dtype=float).reshape(-1)
    if x0.size != concrete.n or xhat0.size != abstract.n_r:
        raise ValueError(f"initial states must have sizes {(concrete.n, abstract.n_r)}")
    eps_run = gains.epsilon if epsilon is None else float(epsilon)
    vg0 = refine.vg(refine.RelationPoint(x0, xhat0, policy.uhat_at(t0, xhat0)), gains)
    if not vg0 <= eps_run:
        warnings.warn(
            f"initial triple outside the relation: vg = {vg0:.6g} > "
            f"epsilon = {eps_run:.6g}",
            stacklevel=2,
        )
    # an overflow in a step makes a non-finite state, which ends the run
    with np.errstate(over="ignore", invalid="ignore"):
        times, zs, runs = _integrate(concrete, abstract, policy, x0, xhat0, horizon, h, t0, regime)
    log = _jump_log(policy, times, zs[:, concrete.n :], runs)
    min_sep = MIN_JUMP_SEPARATION_STEPS * h
    for (t_a, _), (t_b, _) in zip(log, log[1:]):
        if t_b - t_a < min_sep:
            raise SimulationError(f"jumps at {t_a:.6g} and {t_b:.6g} violate the "
                                  f"minimum separation {min_sep:.6g}")
    jumps = _judge_jumps(log, (t0, vg0), gains, eps_run, rbar_max)
    record = TrajectoryRecord(times, zs, None, runs, jumps, 0.0, policy, gains, concrete, abstract)
    # proved before vg is formed, so that the bound's slices and vg never coexist
    slack, v_rounding = _error_bound(record, h, regime)
    record.vg = record._column("vg")
    record.decay_slack = slack + v_rounding * float(np.max(record.vg))
    return record


def _judge_jumps(log, anchor, gains, epsilon, rbar_max) -> list[JumpRecord]:
    """The `JumpRecord` of each logged jump (tau, delta), in time order,
    judged against the envelope that starts at anchor = (t0, vg0) and
    restarts after every jump at (tau, omega(tau - t, v) + ||M^{1/2} S
    delta||), the most V can be just after it."""
    t_prev, v_prev = anchor
    records = []
    for tau, delta in log:
        lhs, rhs = refine.jump_admissible(delta, tau - t_prev, v_prev, gains, epsilon, rbar_max)
        records.append(JumpRecord(tau, delta, lhs, rhs))
        v_prev = refine.omega(tau - t_prev, v_prev, gains.a1, rbar_max) + math.sqrt(lhs)
        t_prev = tau
    return records


def _jump_log(policy, t, xhat, runs) -> list[tuple[float, np.ndarray]]:
    """The jumps (tau, delta) of the rows (t, xhat) that `runs` covers: at
    the first row of each run after the first, the new regime's uhat minus
    the old one's there, where `_is_jump` says so."""
    log = []
    for (_, _, old), (k, _, new) in zip(runs, runs[1:]):
        before, after = (policy.regimes[i].uhat(float(t[k]), xhat[k]) for i in (old, new))
        if _is_jump(after - before, before):
            log.append((float(t[k]), after - before))
    return log


def _integrate(concrete, abstract, policy, x0, xhat0, horizon, h, t0, regime):
    """Grid times, joint states z = [x; xhat] and the (start, stop, regime
    index) runs of their rows of one run (see `simulate`): each regime is
    `policy.regime_index`'s at its start (t0, a cut of `policy.spans`, or a
    located region crossing, whose row carries it, at its state).  The grid
    has a row at every step and crossing; the last row keeps its span's regime.

    t and z are allocated once, for the grid and `_CROSSING_ROWS` crossings,
    and each row is written where it is kept: a feedback span propagates
    into the rows themselves, an open-loop span copies z's rows out of its
    augmented scratch.  More crossings grow both arrays in place, and the
    end trims them in place to the rows kept, so z is never held twice.
    Each regime, from `regime` (the run's `_regimes`), and its grid-step map
    are built once.
    """
    n, n_r = concrete.n, abstract.n_r
    nz = n + n_r
    grid_map = functools.cache(lambda r: _rk4_phi(r.gen, r.step))
    t_end = t0 + horizon
    spans = policy.spans(t0, t_end)
    grid = 1 + sum(_n_steps(a, b, h) for a, b in spans if b > a)
    # the kept rows: times, states as one contiguous row per coordinate, runs
    t = np.empty(grid + _CROSSING_ROWS)
    zt = np.empty((nz, t.size))
    runs: list[tuple[int, int, int]] = []

    def kept() -> int:
        return runs[-1][1] if runs else 0

    def keep(count: int, index: int) -> None:
        """Keep the next `count` rows, written in place, for regime `index`,
        in the run of the rows before them when that has the same regime."""
        stop = kept() + count
        start = runs.pop()[0] if runs and runs[-1][2] == index else stop - count
        runs.append((start, stop, index))

    def keep_row(tau: float, z: np.ndarray, index: int) -> None:
        """Write and keep the row (tau, z) of regime `index`."""
        t[kept()], zt[:, kept()] = tau, z
        keep(1, index)

    def resize(rows: int) -> None:
        """Give t and z exactly `rows` rows in place, keeping the kept ones.
        No view of either is alive here (each is a local of the step that
        made it), so the reference check, which also counts a profiler's or
        debugger's reference to the array itself, is off."""
        old, used = t.size, kept()
        if rows == old:
            return
        t.resize(rows, refcheck=False)
        if rows > old:
            zt.resize((nz, rows), refcheck=False)
        _move_coordinates(zt.reshape(-1), nz, old, rows, used)
        if rows < old:
            zt.resize((nz, rows), refcheck=False)

    def propagate(r: _Regime, z: np.ndarray, count: int):
        """The rows z, phi z, ... of r, written from the next row on, as a
        (rows, n_z) view of the record's z, and the index of the first that
        leaves r, or -1 (`_propagate`): `count` rows, or those up to that one."""
        if kept() + count > t.size:
            resize(kept() + count + max(_CROSSING_ROWS, t.size // 64))
        rows = zt[:, kept() : kept() + count]
        # an open-loop span propagates its augmented state [z; 1; s; ...]
        w = np.empty((nz + r.tail.size, count)) if r.tail.size else rows
        w[:nz, 0], w[nz:, 0] = z, r.tail
        phi = grid_map(r) if count > 1 else None  # one row takes no step
        j = _propagate(phi, w, lambda new: _first_leaving(r, new, n, nz))
        filled = count if j < 0 else j + 1
        if w is not rows:
            rows[:, :filled] = w[:nz, :filled]
        return rows[:, :filled].T, j

    def run_span(r: _Regime, a: float, b: float, z: np.ndarray):
        """Integrate from z at a to b, starting in r: (z at b, the regime
        there).  Keeps every row but the one at b."""
        step, steps = r.step, r.steps

        def time(k: int) -> float:
            """The time of the span's grid row k."""
            return b if k == steps else a + step * k

        def keep_grid(lo: int, hi: int, index: int) -> None:
            """Keep grid rows lo..hi - 1, writing their times block by block."""
            at = kept() - lo
            for blk in _blocks(lo, hi):
                t[at + blk.start : at + blk.stop] = a + step * np.arange(blk.start, blk.stop)
            keep(hi - lo, index)

        tol_t = max(1e-9 * (b - a), 1e-15)
        i = 0
        while True:
            block, j = propagate(r, z, steps - i + 1)
            if j < 0:
                keep_grid(i, steps, r.index)
                return block[-1].copy(), r  # a view would not survive a resize
            if not np.isfinite(block[j]).all():
                raise SimulationError(f"non-finite state near t = {time(i + j):.6g}")

            # row j is outside the box; j >= 1 since z is inside
            keep_grid(i, i + j, r.index)
            z_a, z_b = block[j - 1].copy(), block[j].copy()
            t_a, t_b = time(i + j - 1), time(i + j)
            # bisect the crossing inside (t_a, t_b]
            lo_s, hi_s = 0.0, t_b - t_a
            while hi_s - lo_s > tol_t:
                mid = 0.5 * (lo_s + hi_s)
                if r.box.contains((_rk4_phi(r.gen, mid) @ z_a)[n:]):
                    lo_s = mid
                else:
                    hi_s = mid
            s_cross = max(hi_s, tol_t)
            # a crossing at (numerically) the step end snaps to the grid point
            split = (t_b - t_a) - s_cross > tol_t
            tau, z_tau = (t_a + s_cross, _rk4_phi(r.gen, s_cross) @ z_a) if split else (t_b, z_b)
            del block  # a view of z's rows, which a resize may move
            r = regime(policy.regime_index(tau, z_tau[n:]), a, b)
            if split:
                keep_row(tau, z_tau, r.index)
            z = _rk4_phi(r.gen, t_b - tau) @ z_tau if split else z_tau
            if not r.box.contains(z[n:]):
                raise SimulationError(f"second region crossing within one step at t ~ {t_b:.6g}")
            i += j  # the next block's first row, z, is judged at t_b

    z = np.concatenate([x0, xhat0])
    for a, b in spans:
        z, r = run_span(regime(policy.regime_index(a, z[n:]), a, b), a, b, z)
    keep_row(t_end, z, r.index)
    resize(kept())
    return t, zt.T, runs


def _first_leaving(r: _Regime, rows: np.ndarray, n: int, nz: int) -> int:
    """The index of the first of `rows`, each w with z = [x; xhat] (n and nz
    entries) first, that leaves r (see `_Regime`), or -1: looked for a block
    of rows at a time, for a segment only when one test of all the rows
    finds a non-finite z."""
    if r.box is None and np.isfinite(rows[:, :nz]).all():
        return -1
    for b in _blocks(0, rows.shape[0]):
        leaves = ~np.isfinite(rows[b, :nz]).all(axis=1)
        if r.box is not None:
            leaves |= ~r.box.contains(rows[b, n:nz])
        if leaves.any():
            return b.start + int(leaves.argmax())
    return -1


def _move_coordinates(flat: np.ndarray, nz: int, old: int, new: int, used: int) -> None:
    """Move the first `used` entries of each of the `nz` coordinates in
    `flat` from `old` entries apart to `new` entries apart, in place: the
    last coordinate first when they spread, so that none is written over
    before it moves (numpy assigns a source that overlaps its destination
    as if from a copy)."""
    for k in range(nz - 1, 0, -1) if new > old else range(1, nz):
        flat[k * new : k * new + used] = flat[k * old : k * old + used]


def _propagate(phi: np.ndarray, out: np.ndarray, leaves) -> int:
    """Fill the columns of `out`, (w, count) with z given as its first,
    with phi z, ..., phi^(count-1) z by repeated doubling, and return the
    index of the first column that leaves the regime, or -1 when all are
    filled and none does.  Each doubling stage, z alone the first, asks
    leaves(rows) of its new columns, as rows, for the index of the first
    that leaves, or -1, and the stage that finds one is the last filled."""
    count = out.shape[1]
    last, filled = 0, 1
    power = phi
    while True:
        j = leaves(out[:, last:filled].T)
        if j >= 0:
            return last + j
        if filled == count:
            return -1
        take = min(filled, count - filled)
        np.matmul(power, out[:, :take], out=out[:, filled : filled + take])
        last, filled = filled, filled + take
        if filled < count:
            power = power @ power


def _formed(record: TrajectoryRecord, b: slice,
            names=("uhat", "uhatdot", "u", "y", "yhat", "err")) -> dict:
    """The columns `names` of `record` at its rows b, and those they need:
    uhat and uhatdot from the policy over b's slice of each regime run, u
    and vg from the relation (`refine`), y, yhat and err from the outputs."""
    t, x, xhat = record.t[b], record.x[b], record.xhat[b]
    runs = [(max(a, b.start) - b.start, min(s, b.stop) - b.start, i)
            for a, s, i in record.runs if a < b.stop and s > b.start]
    out = {"uhat": record.policy.uhat(t, xhat, runs)}
    if "uhatdot" in names:
        out["uhatdot"] = record.policy.uhatdot(record.abstract, t, xhat, out["uhat"], runs)
    if "u" in names or "vg" in names:
        point = refine.RelationPoint(x, xhat, out["uhat"])
        e = refine.error_vector(point, record.gains)
        if "u" in names:
            out["u"] = refine.interface_u(point, record.gains, e)
        if "vg" in names:
            out["vg"] = refine.vg(point, record.gains, e)
    if {"y", "yhat", "err"} & set(names):
        out["y"] = numerics.ordered_dot(record.concrete.C, x.T).T
        out["yhat"] = numerics.ordered_dot(record.abstract.C, xhat.T).T
        out["err"] = _row_norms(out["y"] - out["yhat"])
    return out


def simulate_calibrated(*args, **kwargs) -> TrajectoryRecord:
    """`simulate`, kept for callers of the former step-halving calibration."""
    return simulate(*args, **kwargs)


@dataclass
class VerificationReport:
    """Sample-wise and budget checks of one trajectory record: its figures,
    and `checks`, one record per verdict, each judged from its own numbers."""

    max_output_error: float
    max_vg: float
    max_u_norm: float
    envelope_violation_count: int
    envelope_violations: list[dict]
    jumps_total: int
    jumps_passed: int
    decay_violations: int
    first_decay_violation_time: float | None
    decay_slack: float
    checks: tuple[ConditionRecord, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        """Every figure, each check's verdict under its name, and `passed`."""
        figures = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "checks"}
        return {**figures, **{c.name: c.passed for c in self.checks}, "passed": self.passed}


def verify_trajectory(
    record: TrajectoryRecord,
    gains: RefinementGains,
    epsilon: float,
    envelope: OperatingEnvelope,
    b_U: float,
    rbar_max: float,
) -> VerificationReport:
    """Check the record against the relation, the input ball, the envelope,
    the between-jumps decay bound, and the logged jump budgets.

    The decay bound is verified between consecutive jump times, anchored at
    each window's first sample, with the record's `decay_slack`: the bound
    on the integration error of vg that `simulate` proves.  Each jump budget
    is recomputed against the envelope restarted at the previous jump,
    anchored at the record's (t[0], vg[0]), as `simulate` logs it.
    `vg_ok` and `output_error_ok` judge the sampled maxima plus
    `decay_slack`, which also bounds the output's integration error where M
    dominates C^T C, so they hold for the exact flow at the samples;
    `initial_membership` judges vg[0] alone.
    """
    names = ("xhat_max", "uhat_max", "uhatdot_max")
    found: dict[str, list[dict]] = {name: [] for name in names}
    count, max_u, max_err = 0, 0.0, 0.0
    for b in _blocks(0, record.t.size):
        formed = _formed(record, b, ("uhatdot", "u", "err"))
        # np.maximum, like np.max over all rows, keeps a NaN
        max_u = float(np.maximum(max_u, np.max(_row_norms(formed["u"]))))
        max_err = float(np.maximum(max_err, np.max(formed["err"])))
        for name, values in zip(names, (record.xhat[b], formed["uhat"], formed["uhatdot"])):
            norms = _row_norms(values)
            bad = np.flatnonzero(norms > getattr(envelope, name))
            count += bad.size
            found[name] += [
                {"time": float(record.t[b][i]), "bound": name, "value": float(norms[i])}
                for i in bad[: 10 - len(found[name])]
            ]
    violations = [v for name in names for v in found[name]]

    # decay bound per inter-jump window, anchored at the window start sample;
    # a jump-time row stores the post-jump value and belongs to the window it
    # opens, not the one it closes
    decay_violations = 0
    first_violation = None
    starts = np.searchsorted(record.t, [record.t[0]] + [j.time for j in record.jumps])
    for lo, hi in zip(starts, [*starts[1:], record.t.size]):
        for b in _blocks(lo, hi):
            ts = record.t[b]
            bound = refine.omega(ts - record.t[lo], record.vg[lo], gains.a1, rbar_max)
            bad = np.flatnonzero(record.vg[b] > bound + record.decay_slack)
            decay_violations += int(bad.size)
            if bad.size and first_violation is None:  # windows and blocks in time order
                first_violation = float(ts[bad[0]])

    log = [(j.time, j.delta) for j in record.jumps]
    again = _judge_jumps(log, (record.t[0], float(record.vg[0])), gains, epsilon, rbar_max)
    jumps_passed = sum(
        a.passed and abs(a.lhs - j.lhs) <= 1e-9 * max(1.0, abs(j.lhs))
        for a, j in zip(again, record.jumps)
    )

    max_vg = float(np.max(record.vg))
    slack = record.decay_slack
    return VerificationReport(
        max_output_error=max_err,
        max_vg=max_vg,
        max_u_norm=max_u,
        envelope_violation_count=int(count),
        envelope_violations=violations,
        jumps_total=len(record.jumps),
        jumps_passed=jumps_passed,
        decay_violations=decay_violations,
        first_decay_violation_time=first_violation,
        decay_slack=slack,
        checks=(
            ConditionRecord("output_error_ok", max_err + slack, epsilon, "max |y - yhat| + slack"),
            ConditionRecord("vg_ok", max_vg + slack, epsilon, "max vg + slack"),
            ConditionRecord("input_ok", max_u, b_U, "max |u| vs the input ball"),
            ConditionRecord("envelope_ok", float(count), 0.0, "envelope violations"),
            ConditionRecord("jumps_ok", float(len(record.jumps) - jumps_passed), 0.0,
                            "failed jumps"),
            ConditionRecord("decay_ok", float(decay_violations), 0.0, "decay-bound violations"),
            ConditionRecord("initial_membership", float(record.vg[0]), epsilon, "vg at t[0]"),
        ),
    )


# ---------------------------------------------------------------------------
# CSV text (15 significant digits, deterministic bytes): every value is
# written as `'%.15g' % v`

#: the record arrays of the trajectory CSV, in column order; a 2-D array
#: `name` of width k gives the columns name1 .. namek
_CSV_COLUMNS = ("t", "x", "xhat", "uhat", "uhatdot", "u", "y", "yhat", "vg", "err")


def write_trajectory_csv(record: TrajectoryRecord, f: BinaryIO) -> int:
    """Write the trajectory CSV of `record` to the binary file `f` and return
    the number of bytes written: the header line, then each block of rows
    as `np.savetxt` formats it, one `f.write` a block."""

    def columns(b: slice) -> list[np.ndarray]:
        formed = _formed(record, b)
        return [formed[name] if name in formed else getattr(record, name)[b]
                for name in _CSV_COLUMNS]

    header = []
    for name, c in zip(_CSV_COLUMNS, columns(slice(0, 0))):
        header += [name] if c.ndim == 1 else [f"{name}{i + 1}" for i in range(c.shape[1])]

    head = (",".join(header) + "\n").encode("ascii")
    f.write(head)
    total = len(head)
    for b in _blocks(0, record.t.size):
        text = io.BytesIO()
        np.savetxt(text, np.column_stack(columns(b)), fmt="%.15g", delimiter=",")
        f.write(text.getvalue())
        total += text.tell()
    return total


def jumps_csv(record: TrajectoryRecord) -> str:
    header = ["tau"] + [f"delta{i + 1}" for i in range(record.policy.m_r)] + ["lhs", "rhs", "pass"]
    lines = [",".join(header)]
    for j in record.jumps:
        values = ",".join(f"{v:.15g}" for v in (j.time, *j.delta, j.lhs, j.rhs))
        lines.append(f"{values},{'true' if j.passed else 'false'}")
    return "\n".join(lines) + "\n"
