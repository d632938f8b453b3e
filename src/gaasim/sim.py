"""Deterministic co-simulation of the interconnected concrete/abstract pair
under a piecewise abstract input policy, with jump-event handling and
trajectory-level verification.

The joint state z = [x; xhat] evolves under classical fixed-step RK4.  Each
control regime (`_Regime`) has an exact autonomous generator: a feedback
region's closed loop is autonomous as it is, and an open-loop segment
carries its polynomial drive on the augmented state [z; 1; s; ...; s^deg]
of normalized local time s.  The step map of every regime is RK4 of its
generator, one matrix (`_rk4_phi`); on a segment's powers of s it is their
exact flow.  One driver integrates a run span by span between
the open-loop breakpoints, which it inserts into the grid exactly (a
feedback run is one span): it propagates by repeated doubling
(`_propagate`) until a sample leaves the regime's box, which a segment does
not have, locates the crossing by bisection, splits the enclosing step
there, and switches regime.  One rule (`_is_jump`) decides whether the
input change at a switch (new minus old uhat) is a jump, which the driver
only logs; one function (`_judge_jumps`) judges the logged jumps.  A jump
time's row stores the right limit of the abstract input.  Each run proves a bound on
the integration error of its sampled vg from its own rows (`_ErrorBound`)
and records it as `decay_slack`.  The record keeps a run as its state: times,
joint states (column-major, propagated into place), vg and regime runs.
`_formed` forms the other columns on each read, a block of rows at a time
(`_blocks`), the policy over the block's slice of each run,
every product summed left to right (`numerics.ordered_dot`), so a row, and a
point, has the same bits in any block.

Integration within a run is sequential; distinct runs share no mutable
state and may execute in parallel.  `write_trajectory_csv` streams CSV row
blocks, formatted on min(CPUs, 4) threads, to a file in row order, so it
holds at most 2 x min(CPUs, 4) blocks of text whatever the host.
"""

from __future__ import annotations

import math
import os
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
    jumps closer than the minimum separation of 10 steps, two region
    crossings within one step, or (in the CLI) an infinite disturbance budget."""


#: minimum admissible spacing between jump events, in units of the step h
MIN_JUMP_SEPARATION_STEPS = 10

#: rows per slice of `_ErrorBound.stretch`, so that its temporaries stay small;
#: `decay_slack` takes its maxima per slice, so its value depends on this size
_BOUND_ROWS = 65536

#: rows per block of every reader of the formed columns (`_blocks`); at 16,384
#: rows one column's CSV gather index (1.4 MB) fits in a 2 MB L2 cache
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
    """Whether an input change `delta` away from the value `before` is a jump:
    its norm exceeds JUMP_VALUE_RTOL * max(1, ||before||)."""
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
        """The formed column `name` over every row, F-contiguous."""
        width = _formed(self, slice(0, 0), (name,))[name].shape[1:]
        out = np.empty((self.t.size, *width), order="F")
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
    """One control regime of a run, for a span [a, b] of it: a feedback
    region with its box and gain, whose propagated state w is z, or an
    open-loop segment, whose w is [z; 1; s; ...; s^deg] with s = (t - a) /
    (b - a), and which has no box, so it never exits.  `gen` is the exact
    generator of w and `phi` = `_rk4_phi(gen, step)` its RK4 map over one of
    the `steps` steps of length `step` that cover the span (an empty span
    takes none, and a segment there has neither); `tail` is w after z at a."""

    index: int
    step: float
    steps: int
    gen: np.ndarray | None
    phi: np.ndarray | None
    tail: np.ndarray
    box: Box | None = None
    gain: np.ndarray | None = None
    seg: OpenLoopSegment | None = None
    span: tuple[float, float] = (0.0, 0.0)


def _n_steps(a: float, b: float, h: float) -> int:
    return max(1, int(math.ceil((b - a) / h - 1e-9)))


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


def _check_finite(zs: np.ndarray, time) -> None:
    """SimulationError at time(k) when row k of zs is the first not finite,
    looked for a block of rows at a time."""
    for b in _blocks(0, zs.shape[0]):
        finite = np.isfinite(zs[b])
        if not finite.all():
            bad = b.start + int(np.flatnonzero(~finite.all(axis=1))[0])
            raise SimulationError(f"non-finite state near t = {time(bad):.6g}")


def _norm_bound(a: np.ndarray) -> float:
    """sqrt(|a|_1 |a|_inf), an upper bound on the spectral norm of `a`."""
    a = np.abs(a)
    return math.sqrt(float(a.sum(axis=0).max()) * float(a.sum(axis=1).max()))


def _column_norms(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->j", a, a))


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
    of L rows, each rounded up by its count of roundings."""
    out = np.empty(c.size)
    for k0 in range(0, c.size, powers.size):
        p = powers[: c.size - k0]
        out[k0 : k0 + p.size] = p * (b0 + np.cumsum(c[k0 : k0 + p.size] / p))
        out[k0 : k0 + p.size] *= 1.0 + 4.0 * (p.size + 2) * _U
        b0 = out[k0 + p.size - 1]
    return out


class _ErrorBound:
    """A-posteriori bound on the integration error of the sampled vg of one
    run, from its rows alone (defect control; the derivation is in README,
    "What `decay_slack` bounds").  Per regime stretch of generator G and step
    h, the local defect d_k = z_{k+1} - [exp(hG) w_k]_z is evaluated as
    z_{k+1} - z_k - Y w_k, Y = sum_{j=1..8} (hG)^j / j!, up to the Taylor
    remainder and rounding.  In (e, xhat) coordinates a >= |eps_xhat| and
    b >= |eps_e|_M then obey a' <= beta a + |d_xhat| and b' <= rho b + gamma
    a + |d_e|_M, solved row by row in vector form.  `slack` is the largest b
    plus the rounding of e from a row; `v_rounding` is that of V from e,
    relative to V."""

    def __init__(self, concrete, gains):
        self.n, self.gains = concrete.n, gains
        # log-norm of A + BK in the M-norm: |exp(h (A + BK))|_M <= e^(mu h)
        a_m = gains.M_sqrt @ (concrete.A + concrete.B @ gains.K) @ np.linalg.inv(gains.M_sqrt)
        self.mu = float(np.linalg.eigvalsh(a_m + a_m.T).max()) / 2.0
        terms = gains.P.shape[1] + gains.S.shape[1] + 2
        self.e_rounding = 2 * terms * _U * _norm_bound(gains.M_sqrt)
        self.v_rounding = 2 * (self.n**2 + 4) * _U * _norm_bound(gains.M) / gains.lambda_min_M
        self.p_abs, self.s_abs = _norm_bound(gains.P), _norm_bound(gains.S)
        self.slack = 0.0
        self.restart()

    def restart(self) -> None:
        """A logged jump: the next window's reference starts at this row."""
        self.a = self.b = 0.0
        self.e_map = None

    def stretch(self, regime: _Regime, h: float, rows) -> None:
        """Advance over `rows`, samples h apart under `regime`: a region's
        closed loop with uhat = -gain xhat, or a segment's augmented system,
        with s = k / steps at row k of its span.  A single row takes no step
        and adds only its rounding."""
        g, n, nz, count = self.gains, self.n, rows.shape[1], rows.shape[0] - 1
        to_e = np.eye(nz)  # eps -> (eps_e, eps_xhat)
        to_e[:n] = refine.error_map(g, None if regime.gain is None else -regime.gain)
        e_map = g.M_sqrt @ to_e[:n]
        if self.e_map is not None:  # a region change within the window
            self.b += _norm_bound(e_map[:, n:] - self.e_map[:, n:]) * self.a
        self.e_map = e_map
        acc, b, b_max, z_max = self.a, self.b, self.b, float(np.linalg.norm(rows[-1]))
        if count:
            # theta weighs s^j by the drive, so the bound scales with the states
            gen, theta = regime.gen, 1.0
            if regime.seg is not None:
                theta = _norm_bound(gen[:nz, nz:]) / max(
                    _norm_bound(gen[:nz, :nz]), 1.0 / (h * regime.steps)
                )
                gen = gen.copy()
                gen[:nz, nz:] = gen[:nz, nz:] / theta if theta > 0 else 0.0
            from_e = 2 * np.eye(nz) - to_e
            gt = to_e @ gen[:nz, :nz] @ from_e
            mu_x = float(np.linalg.eigvalsh(gt[n:, n:] + gt[n:, n:].T).max()) / 2.0
            gamma = h * _norm_bound(g.M_sqrt @ gt[:n, n:]) * _exp(h * max(self.mu, mu_x, 0.0))
            beta = _exp(max(mu_x, 0.0) * h * count)  # >= beta^k here
            hg, eye = h * gen, np.eye(gen.shape[0])
            inner = eye
            for j in range(8, 1, -1):
                inner = eye + hg @ inner / j
            y = (hg @ inner)[:nz]
            # |d_k - v_k| <= per_w |w_k| + 3 u |v_k|: the remainder, and the
            # rounding of Y, of the exact powers of s, of Y w_k and of v_k
            g_abs = _norm_bound(hg)
            per_w = (min(g_abs, 700.0) ** 8 / 362880.0 + (9 * gen.shape[0] + 30) * _U) * g_abs
            per_w *= _exp(g_abs)
            e_abs = _norm_bound(e_map)
            block = min(count, max(1, int(min(40.0 / abs(self.mu * h or 1.0), _BOUND_ROWS))))
            powers = _exp(max(self.mu * h, -700.0)) ** np.arange(1.0, block + 1.0)
            columns = rows.T  # one sample per column
            # an overflow anywhere below ends as an infinite, vacuous bound,
            # and a NaN is kept by np.max and read as infinity at the end
            with np.errstate(over="ignore", invalid="ignore"):
                for k0 in range(0, count, _BOUND_ROWS):
                    z = columns[:, k0 : k0 + _BOUND_ROWS + 1]
                    w = z[:, :-1]
                    if regime.seg is not None:
                        s = np.arange(k0, k0 + w.shape[1]) / regime.steps
                        w = np.vstack([w, theta * s ** np.arange(gen.shape[0] - nz)[:, None]])
                    v = z[:, 1:] - z[:, :-1]
                    v -= y @ w
                    w_max = _max_column_norm(w)
                    local = per_w * w_max + 3 * _U * _max_column_norm(v)  # on the whole slice
                    d_x = _column_norms(v[n:]) + local
                    sums = np.cumsum(d_x)
                    c = _column_norms(e_map @ v)
                    c += gamma * beta * (acc + sums - d_x) + e_abs * local
                    bs = _linear_recursion(b, powers, c)
                    acc += float(sums[-1])
                    b, b_max = float(bs[-1]), float(np.max((b_max, bs.max())))
                    z_max = max(z_max, w_max)
            acc *= beta
        self.a, self.b, b_max = (q if q <= math.inf else math.inf for q in (acc, b, b_max))
        # the absolute terms sum_j |c_j| |t|^j of the record's uhat bound its rounding
        if regime.seg is None:
            u_terms = _norm_bound(regime.gain) * z_max
        else:
            t_pow = max(map(abs, regime.span)) ** np.arange(regime.seg.coeffs.shape[1])
            u_terms = float(np.linalg.norm(np.abs(regime.seg.coeffs) @ t_pow))
        self.slack = max(self.slack, b_max + self.e_rounding * (
            (1.0 + self.p_abs) * z_max + self.s_abs * u_terms
        ))


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
    the bundle's); the verdict on it is `verify_trajectory`'s.  Each logged
    jump is judged against the envelope of `rbar_max`, restarted after every
    jump (`_judge_jumps`): pass the `rbar_max` of `synthesis.feasibility`, as
    the default 0.0 makes omega smaller and each `JumpRecord.passed`
    optimistic.  Neither parameter changes the run's rows or `decay_slack`.
    A run whose arrays would exceed physical memory raises TooLarge, a
    MemoryError, before it allocates them.

    The record's `decay_slack` is a proven bound on |vg(t_k) - vg_exact(t_k)|
    at every sample of a decay window (the rows between logged jumps), where
    vg_exact is the exact flow of the recorded regime sequence started from
    the window's first row, taken over the steps the run made.  It is built
    from this run alone (`_ErrorBound`).
    So a window that passes `verify_trajectory` has vg_exact(t_k) <=
    omega(t_k - t_a, vg(t_a)) + 2 decay_slack at its samples.  The error of
    locating region crossings by bisection (to 1e-9 of the horizon) is
    outside the bound.
    """
    _preflight(concrete, abstract, policy, horizon, h)
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
    with np.errstate(over="ignore", invalid="ignore"):  # see `_check_finite`, `_exp`
        times, zs, runs, log, bound = _integrate(
            concrete, abstract, gains, policy, x0, xhat0, horizon, h, t0
        )
    jumps = _judge_jumps(log, (t0, vg0), gains, eps_run, rbar_max)
    record = TrajectoryRecord(times, zs, None, runs, jumps, 0.0, policy, gains, concrete, abstract)
    record.vg = record._column("vg")
    record.decay_slack = bound.slack + bound.v_rounding * float(np.max(record.vg))
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


def _integrate(concrete, abstract, gains, policy, x0, xhat0, horizon, h, t0):
    """Grid times, joint states z = [x; xhat], the (start, stop, regime
    index) runs of their rows, the jump log of (tau, delta) and the
    `_ErrorBound` of one run (see `simulate`).  The grid has a row at every
    step and at each located region crossing, which carries the regime after
    it; `bound` advances over every step in order and restarts at each jump.

    t and z are allocated once, for the grid and `_CROSSING_ROWS` crossings,
    and each row is written where it is kept: a feedback span propagates
    into the rows themselves, an open-loop span copies z's rows out of its
    augmented scratch.  More crossings grow both arrays in place, and the
    end trims them in place to the rows kept, so z is never held twice.
    """
    n, n_r = concrete.n, abstract.n_r
    nz = n + n_r
    F, N = _joint_matrices(concrete, abstract, gains)
    to_xhat = np.eye(nz)[n:]
    t_end = t0 + horizon
    breaks = [t0, *(tau for tau in policy.breakpoints() if t0 + 1e-12 < tau < t_end - 1e-12)]
    spans = list(zip(breaks, [*breaks[1:], t_end]))
    grid = 1 + sum(_n_steps(a, b, h) for a, b in spans if b > a)
    # the kept rows: times, states as one contiguous row per coordinate, runs
    t = np.empty(grid + _CROSSING_ROWS)
    zt = np.empty((nz, t.size))
    runs: list[tuple[int, int, int]] = []
    log: list[tuple[float, np.ndarray]] = []
    min_sep = MIN_JUMP_SEPARATION_STEPS * h
    bound = _ErrorBound(concrete, gains)

    def regime(index: int, a: float, b: float) -> _Regime:
        """The policy's regime `index` for the span [a, b]."""
        steps = _n_steps(a, b, h) if b > a else 0
        step = (b - a) / max(steps, 1)
        item = policy.regimes[index]
        if isinstance(item, OpenLoopSegment):
            gen = _segment_generator(F, N, item, a, b - a) if steps else None
            kind = dict(tail=np.eye(item.coeffs.shape[1])[0], seg=item, span=(a, b))
        else:
            gen = F - N @ (item.gain @ to_xhat)
            kind = dict(tail=np.empty(0), box=item.box, gain=item.gain)
        phi = None if gen is None else _rk4_phi(gen, step)
        return _Regime(index, step, steps, gen, phi, **kind)

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

    def propagate(r: _Regime, z: np.ndarray, count: int, stop) -> np.ndarray:
        """The rows z, phi z, ... of r, written from the next row on, as a
        (rows, n_z) view of the record's z: `count` of them, or fewer if
        `stop` ends the propagation early (`_propagate`)."""
        if kept() + count > t.size:
            resize(kept() + count + max(_CROSSING_ROWS, t.size // 64))
        rows = zt[:, kept() : kept() + count]
        if r.tail.size:  # an open-loop span's augmented state [z; 1; s; ...]
            w = np.empty((nz + r.tail.size, count))
            w[:nz, 0], w[nz:, 0] = z, r.tail
            filled = _propagate(r.phi, w, stop)
            rows[:, :filled] = w[:nz, :filled]
        else:
            rows[:, 0] = z
            filled = _propagate(r.phi, rows, stop)
        return rows[:, :filled].T

    def first_outside(r: _Regime, rows: np.ndarray) -> int:
        """The index of the first row of z outside r's box, looked for a
        block of rows at a time, or -1: always for a segment."""
        for b in _blocks(0, rows.shape[0] if r.box is not None else 0):
            exits = np.flatnonzero(~r.box.contains(rows[b, n:]))
            if exits.size:
                return b.start + int(exits[0])
        return -1

    def switch(old, tau: float, xhat_next, xhat_tau, a: float, b: float) -> _Regime:
        """The regime after `old` at tau, picked at xhat_next, for [a, b].
        Its input change, new minus old uhat at (tau, xhat_tau), is logged
        when it is a jump; the first regime (old None) has none."""
        new = regime(policy.regime_index(tau, xhat_next), a, b)
        if old is None:
            return new
        before, after = (policy.regimes[q.index].uhat(tau, xhat_tau) for q in (old, new))
        delta = after - before
        if _is_jump(delta, before):
            if log and tau - log[-1][0] < min_sep:
                raise SimulationError(
                    f"jumps at {log[-1][0]:.6g} and {tau:.6g} violate the "
                    f"minimum separation {min_sep:.6g}"
                )
            log.append((tau, delta))
            bound.restart()
        return new

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
            stop = None if r.box is None else (lambda rows: first_outside(r, rows) >= 0)
            block = propagate(r, z, steps - i + 1, stop)
            _check_finite(block, lambda k: time(i + k))
            j = first_outside(r, block)  # j >= 1 since z is inside
            if j < 0:
                keep_grid(i, steps, r.index)
                bound.stretch(r, step, block)
                return block[-1].copy(), r  # a view would not survive a resize

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
            split = (t_b - t_a) - s_cross > tol_t
            if split:
                tau, z_tau = t_a + s_cross, _rk4_phi(r.gen, s_cross) @ z_a
                bound.stretch(r, step, block[:j])
                bound.stretch(r, s_cross, np.stack([z_a, z_tau]))
            else:
                # crossing at (numerically) the step end: snap to the grid point
                tau, z_tau = t_b, z_b
                bound.stretch(r, step, block[: j + 1])
            del block  # a view of z's rows, which a resize may move
            r = switch(r, tau, z_b[n:], z_tau[n:], a, b)
            if split:
                keep_row(tau, z_tau, r.index)
                z = _rk4_phi(r.gen, t_b - tau) @ z_tau
                bound.stretch(r, t_b - tau, np.stack([z_tau, z]))
                if not r.box.contains(z[n:]):
                    raise SimulationError(
                        f"second region crossing within one step at t ~ {t_b:.6g}"
                    )
            else:
                z = z_tau
            _check_finite(z[None], lambda k: t_b)
            i += j

    z, r = np.concatenate([x0, xhat0]), None
    for a, b in spans:
        r = switch(r, a, z[n:], z[n:], a, b)
        z, r = run_span(r, a, b, z)
    # a segment ends at t_end, where the next one may start
    final = r.index if r.box is not None else policy.regime_index(t_end, z[n:])
    keep_row(t_end, z, final)
    resize(kept())
    return t, zt.T, runs, log, bound


def _move_coordinates(flat: np.ndarray, nz: int, old: int, new: int, used: int) -> None:
    """Move the first `used` entries of each of the `nz` coordinates in
    `flat` from `old` entries apart to `new` entries apart, in place: the
    last coordinate first when they spread, so that none is written over
    before it moves (numpy assigns a source that overlaps its destination
    as if from a copy)."""
    for k in range(nz - 1, 0, -1) if new > old else range(1, nz):
        flat[k * new : k * new + used] = flat[k * old : k * old + used]


def _propagate(phi: np.ndarray, out: np.ndarray, stop=None) -> int:
    """Fill the columns of `out`, (w, count) with z given as its first,
    with phi z, ..., phi^(count-1) z by repeated doubling, and return how
    many are filled: all, or those filled before the first doubling stage
    whose new columns, as rows, make stop(rows) hold."""
    count = out.shape[1]
    last, filled = 0, 1
    power = phi
    with np.errstate(over="ignore", invalid="ignore"):
        while filled < count:
            if stop is not None and stop(out[:, last:filled].T):
                return filled
            take = min(filled, count - filled)
            np.matmul(power, out[:, :take], out=out[:, filled : filled + take])
            last, filled = filled, filled + take
            if filled < count:
                power = power @ power
    return count


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
        out["err"] = np.linalg.norm(out["y"] - out["yhat"], axis=1)
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
        max_u = float(np.maximum(max_u, np.max(np.linalg.norm(formed["u"], axis=1))))
        max_err = float(np.maximum(max_err, np.max(formed["err"])))
        for name, values in zip(names, (record.xhat[b], formed["uhat"], formed["uhatdot"])):
            norms = np.linalg.norm(values, axis=1)
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
# CSV artifacts (15 significant digits, deterministic bytes)
#
# Trajectory values go through `textfmt`, whose bytes equal `'%.15g' % v`:
# the 15 digits come from one longdouble product whose error is below
# 1.01 eps_ld 1e15 (two roundings), and every value whose fraction lies
# within 16 eps_ld 1e15 of 1/2 is formatted by Python instead.

#: most threads that format CSV blocks, so that the text in flight (about
#: 6 MB per block of `_BLOCK_ROWS` rows) does not grow with the host's CPU count;
#: on a 2-CPU host two threads write 1.5-1.8x faster than one, and whether
#: a third or fourth pays off is unmeasured
_CSV_MAX_THREADS = 4

#: the record arrays of the trajectory CSV, in column order; a 2-D array
#: `name` of width k gives the columns name1 .. namek
_CSV_COLUMNS = ("t", "x", "xhat", "uhat", "uhatdot", "u", "y", "yhat", "vg", "err")


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _stream_blocks(fn, blocks, sink) -> int:
    """Call sink(fn(b)) for each row slice b of `blocks`, in this order, with
    the fn calls run on a pool of min(CPUs, 4) threads and the calling thread
    only sinking, and return the total length of the results.

    At most 2 x min(CPUs, 4) blocks are submitted but not yet sunk.  On the
    first exception, from `fn` or from `sink`, the blocks not yet started
    are cancelled and the error is re-raised once the pool is joined.
    """
    # imported on first use: `concurrent.futures` imports `logging`, which
    # runs without CSV output need not pay for
    import concurrent.futures

    threads = min(_cpus(), _CSV_MAX_THREADS)
    window = 2 * threads
    pending = []
    total = 0
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        try:
            for b in (*blocks, None):
                # sink the oldest block when the window is full, all at the end
                while pending and (len(pending) == window or b is None):
                    part = pending.pop(0).result()
                    sink(part)
                    total += len(part)
                if b is not None:
                    pending.append(pool.submit(fn, b))
        except BaseException:
            for future in pending:
                future.cancel()
            raise
    return total


def write_trajectory_csv(record: TrajectoryRecord, f: BinaryIO) -> int:
    """Write the trajectory CSV of `record` to the binary file `f` and return
    the number of bytes written.  Row blocks are formatted on min(CPUs, 4)
    threads and written in row order, so at most 2 x min(CPUs, 4) blocks of
    text are held."""
    # imported on first use: building its tables takes milliseconds that
    # runs without CSV output need not pay at import
    from . import textfmt

    def columns(b: slice) -> list[np.ndarray]:
        formed = _formed(record, b)
        return [formed[name] if name in formed else getattr(record, name)[b]
                for name in _CSV_COLUMNS]

    header = []
    for name, c in zip(_CSV_COLUMNS, columns(slice(0, 0))):
        header += [name] if c.ndim == 1 else [f"{name}{i + 1}" for i in range(c.shape[1])]

    head = (",".join(header) + "\n").encode("ascii")
    f.write(head)
    return len(head) + _stream_blocks(lambda b: textfmt.csv_rows(np.column_stack(columns(b))),
                                      _blocks(0, record.t.size), f.write)


def jumps_csv(record: TrajectoryRecord) -> str:
    header = ["tau"] + [f"delta{i + 1}" for i in range(record.policy.m_r)] + ["lhs", "rhs", "pass"]
    lines = [",".join(header)]
    for j in record.jumps:
        values = ",".join(f"{v:.15g}" for v in (j.time, *j.delta, j.lhs, j.rhs))
        lines.append(f"{values},{'true' if j.passed else 'false'}")
    return "\n".join(lines) + "\n"
