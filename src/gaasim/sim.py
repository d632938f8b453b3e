"""Deterministic co-simulation of the interconnected concrete/abstract pair
under a piecewise abstract input policy, with jump-event handling and
trajectory-level verification.

The joint state z = [x; xhat] evolves under classical fixed-step RK4.  For
each control regime (an open-loop polynomial segment or a feedback region)
the right-hand side is affine, so the RK4 step is an exact per-regime step
map, algebraically identical to stage-wise evaluation.  Both kinds of
regime (`_Regime`) make that map autonomous: a feedback region's closed
loop is autonomous as it is, and an open-loop segment carries its
polynomial drive on the augmented state [z; 1; s; ...; s^deg] of
normalized local time s.  One driver integrates a run span by span between
the open-loop breakpoints, which it inserts into the grid exactly (a
feedback run is one span): it propagates by repeated doubling
(`_propagate`) until a sample leaves the regime's box, which a segment does
not have, locates the crossing by bisection, splits the enclosing step
there, and switches regime.  One rule (`_is_jump`) decides whether the
input change at a switch is a jump.  The grid sample at a jump time
stores the right limit of the abstract input.  Each run proves a bound on
the integration error of its sampled vg from its own rows (`_ErrorBound`)
and records it as `decay_slack`.  Samples are held column-major from the
propagation to the record, so every per-sample formula runs over
contiguous columns.

Integration within a run is sequential; distinct runs share no mutable
state and may execute in parallel.  `write_trajectory_csv` streams CSV row
blocks, formatted on every CPU the process may use, to a file in row order.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import asdict, dataclass, field
from typing import BinaryIO

import numpy as np

from . import refine
from .model import (
    AbstractInputPolicy,
    AbstractLinearSystem,
    Box,
    ConcreteLinearSystem,
    OpenLoopSegment,
    OperatingEnvelope,
    JUMP_VALUE_RTOL,
)
from .synthesis import RefinementGains


class NonFiniteState(RuntimeError):
    """Integration produced NaN/Inf (divergence)."""


class ZenoViolation(RuntimeError):
    """Two input jumps closer than the minimum separation of 10 steps."""


#: minimum admissible spacing between jump events, in units of the step h
MIN_JUMP_SEPARATION_STEPS = 10

#: rows per slice of `_ErrorBound.stretch`, so that its temporaries stay small
_BOUND_ROWS = 65536

#: unit roundoff of float64
_U = 2.0**-53


def _is_jump(delta, before) -> bool:
    """Whether an input change `delta` away from the value `before` is a jump:
    its norm exceeds JUMP_VALUE_RTOL * max(1, ||before||)."""
    return bool(
        np.linalg.norm(delta) > JUMP_VALUE_RTOL * max(1.0, float(np.linalg.norm(before)))
    )


@dataclass
class JumpRecord:
    time: float
    delta: np.ndarray
    cause: str  # segment_boundary | region_crossing
    lhs: float
    rhs: float
    passed: bool


@dataclass
class TrajectoryRecord:
    """Sampled joint evolution plus the jump log.

    Rows are strictly increasing in time, cover [t0, t0 + horizon], and
    every jump time appears exactly on the grid (its row stores the
    post-jump abstract input).  `vg0` is the value at (x0, xhat0) that the
    run anchored its jump envelope and initial membership on, and
    `decay_slack` bounds the integration error of `vg` (see `simulate`).
    Each array is (rows,) or (rows, k) and F-contiguous: `x` and `xhat` are
    views of the run's column-major store, one contiguous column per
    coordinate, and the other arrays share that layout.  A caller that
    needs C order copies with `np.ascontiguousarray`.
    """

    t: np.ndarray
    x: np.ndarray
    xhat: np.ndarray
    uhat: np.ndarray
    uhatdot: np.ndarray
    u: np.ndarray
    y: np.ndarray
    yhat: np.ndarray
    vg: np.ndarray
    err: np.ndarray
    jumps: list[JumpRecord]
    concrete: ConcreteLinearSystem
    abstract: AbstractLinearSystem
    h: float
    horizon: float
    t0: float
    initial_membership: bool
    vg0: float
    decay_slack: float


def eval_policy(policy: AbstractInputPolicy, abstract: AbstractLinearSystem, t: float, xhat):
    """(uhat, duhat/dt, None) at one time t and abstract state xhat, from
    `AbstractInputPolicy.uhat_at` and `.uhatdot`: the active polynomial and its
    derivative, or -K xhat and -K (A xhat + B uhat).  The third entry, always
    None, keeps the 3-tuple that callers unpack."""
    xhat = np.asarray(xhat, dtype=float).reshape(-1)
    uhat = policy.uhat_at(t, xhat)
    regime = policy.regime_index(t, xhat)
    uhatdot = policy.uhatdot(
        abstract, np.array([t]), xhat[None], uhat[None], np.array([regime])
    )[0]
    return uhat, uhatdot, None


# ---------------------------------------------------------------------------
# RK4 step matrices for the per-regime affine dynamics dz/dt = F z + N uhat


def _rk4_phi(F: np.ndarray, s: float) -> np.ndarray:
    eye = np.eye(F.shape[0])
    F2 = F @ F
    F3 = F2 @ F
    return eye + s * F + (s * s / 2.0) * F2 + (s**3 / 6.0) * F3 + (s**4 / 24.0) * F2 @ F2


def _rk4_affine(F: np.ndarray, N: np.ndarray, s: float):
    """Step matrices (Phi, D1, D2, D3) of classical RK4 for dz = F z + N u(t):
    z+ = Phi z + D1 u(t) + D2 u(t + s/2) + D3 u(t + s)."""
    FN = F @ N
    F2N = F @ FN
    F3N = F @ F2N
    phi = _rk4_phi(F, s)
    d1 = (s / 6.0) * N + (s * s / 6.0) * FN + (s**3 / 12.0) * F2N + (s**4 / 24.0) * F3N
    d2 = (2.0 * s / 3.0) * N + (s * s / 3.0) * FN + (s**3 / 12.0) * F2N
    d3 = (s / 6.0) * N
    return phi, d1, d2, d3


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
    """Lower-triangular L with L[i, k] = C(i, k) c^(i - k).

    A polynomial with ascending coefficients `coeffs` re-expands about c as
    p(c + tau) = sum_k (coeffs @ L)[k] tau^k, and the monomials advance as
    [(s + c)^i]_i = L [s^k]_k.
    """
    out = np.zeros((size, size))
    for i in range(size):
        for k in range(i + 1):
            out[i, k] = math.comb(i, k) * c ** (i - k)
    return out


def _segment_maps(F, N, seg: OpenLoopSegment, a: float, length: float, steps: int):
    """Exact generator and RK4 step map of one open-loop segment on [a, a +
    length], in `steps` steps, as an autonomous system on w = [z; 1; s; ...;
    s^deg], s = (t - a) / length.

    The generator is dz/dt = F z + N uhat(a + length s), d(s^j)/dt = j
    s^(j-1) / length.  The drive D1 u(t) + D2 u(t + h/2) + D3 u(t + h) of
    each step is the segment polynomial re-expanded about the three stage
    offsets, hence linear in the powers of s; s advances by 1/steps through a
    binomial shift (Van Loan's augmented-matrix construction).
    """
    h_eff = length / steps
    phi, d1, d2, d3 = _rk4_affine(F, N, h_eff)
    size, nz = seg.coeffs.shape[1], F.shape[0]
    scale = length ** np.arange(size)
    drive = sum(
        d @ ((seg.coeffs @ _binomial_shift(a + offset, size)) * scale)
        for d, offset in ((d1, 0.0), (d2, 0.5 * h_eff), (d3, h_eff))
    )
    gen = np.zeros((nz + size, nz + size))
    gen[:nz, :nz] = F
    gen[:nz, nz:] = N @ ((seg.coeffs @ _binomial_shift(a, size)) * scale)
    gen[nz:, nz:] = np.diag(np.arange(1.0, size), -1) / length
    step_map = np.zeros_like(gen)
    step_map[:nz, :nz] = phi
    step_map[:nz, nz:] = drive
    step_map[nz:, nz:] = _binomial_shift(1.0 / steps, size)
    return gen, step_map


@dataclass(frozen=True, eq=False)
class _Regime:
    """One control regime of a run, for a span [a, b] of it: a feedback
    region with its box and gain, whose propagated state w is z, or an
    open-loop segment, whose w is [z; 1; s; ...; s^deg] with s = (t - a) /
    (b - a), and which has no box, so it never exits.  `gen` is the exact
    generator of w and `phi` its RK4 map over one of the `steps` steps of
    length `step` that cover the span (an empty span takes none, and a
    segment there has no maps); `tail` is w after z at a."""

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


class _Recorder:
    """Grow-able store for (t, z, regime id) that holds z column-major, as
    (n + n_r, capacity): each state is one contiguous column of samples."""

    def __init__(self, nj: int, capacity: int):
        self.t = np.empty(max(capacity, 16))
        self.z = np.empty((nj, max(capacity, 16)))
        self.regime = np.empty(max(capacity, 16), dtype=np.int64)
        self.count = 0
        self.grown = False

    def _grow(self, need: int):
        cap = self.t.size
        while cap < need:
            cap = int(cap * 1.5) + 16
        self.t = np.resize(self.t, cap)
        z = np.empty((self.z.shape[0], cap))
        z[:, : self.count] = self.z[:, : self.count]
        self.z = z
        self.regime = np.resize(self.regime, cap)
        self.grown = True

    def add(self, t: float, z: np.ndarray, regime: int):
        self.add_block(np.array([t]), np.reshape(z, (1, -1)), regime)

    def add_block(self, ts: np.ndarray, zs: np.ndarray, regime: int):
        """Append the rows (ts, zs), zs shaped (rows, n + n_r)."""
        need = self.count + ts.size
        if need > self.t.size:
            self._grow(need)
        self.t[self.count : need] = ts
        self.z[:, self.count : need] = zs.T
        self.regime[self.count : need] = regime
        self.count = need

    def rows(self):
        """The recorded (t, z, regime), z shaped (rows, n + n_r) and
        F-contiguous, which ends the recording.  They are views of the store,
        its columns moved together in place, or trimmed copies once it has
        grown, so that its spare capacity does not outlive the run."""
        count, (nj, cap) = self.count, self.z.shape
        if self.grown:
            return self.t[:count].copy(), self.z[:, :count].copy().T, self.regime[:count].copy()
        flat = self.z.reshape(-1)
        for j in range(1, nj):
            flat[j * count : (j + 1) * count] = flat[j * cap : j * cap + count]
        return self.t[:count], flat[: nj * count].reshape(nj, count).T, self.regime[:count]


def _physical_memory() -> float:
    """Bytes of physical memory, or infinity where the platform does not say."""
    try:
        return float(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"))
    except (AttributeError, ValueError, OSError):
        return math.inf


def _preflight(concrete, abstract, horizon: float, h: float) -> None:
    """Raise MemoryError, before anything is allocated, when a run over
    `horizon` at step h would hold more array bytes (rows x record columns
    x 8) than the machine has physical memory."""
    if not h > 0:
        return  # `_integrate` refuses the step
    columns = 4 + concrete.n + abstract.n_r + 2 * abstract.m_r + concrete.m + 2 * concrete.p
    need = 8.0 * columns * (horizon / h + 1.0)
    limit = _physical_memory()
    if need > limit:
        raise MemoryError(
            f"the run needs about {need / 2**30:.3g} GiB of arrays, more than "
            f"the {limit / 2**30:.3g} GiB of physical memory"
        )


def _check_finite(zs: np.ndarray, ts) -> None:
    if not np.all(np.isfinite(zs)):
        bad = np.flatnonzero(~np.all(np.isfinite(np.atleast_2d(zs)), axis=1))[0]
        t_bad = float(np.atleast_1d(ts)[min(bad, np.atleast_1d(ts).size - 1)])
        raise NonFiniteState(f"non-finite state near t = {t_bad:.6g}")


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
            block = min(count, _BOUND_ROWS, max(1, int(40.0 / abs(self.mu * h or 1.0))))
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
                    v = z[:, 1:] - z[:, :-1] - y @ w
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

    Identical inputs produce bit-identical records.  The initial triple is
    checked for relation membership (a warning is issued when it fails and
    the record carries the flag); each jump is checked against the budget
    of the envelope derived from `rbar_max`, which restarts after every
    logged jump, and logged.  `epsilon` defaults to the bundle's value and
    can be tightened per run.  A run whose arrays would exceed
    physical memory raises MemoryError before it allocates them.

    The record's `decay_slack` is a proven bound on |vg(t_k) - vg_exact(t_k)|
    at every sample of a decay window (the rows between logged jumps), where
    vg_exact is the exact flow of the recorded regime sequence started from
    the window's first row, taken over the steps the run made.  It is built
    from this run alone (`_ErrorBound`) and does not depend on `rbar_max`.
    So a window that passes `verify_trajectory` has vg_exact(t_k) <=
    omega(t_k - t_a, vg(t_a)) + 2 decay_slack at its samples.  The error of
    locating region crossings by bisection (to 1e-9 of the horizon) is
    outside the bound.
    """
    _preflight(concrete, abstract, horizon, h)
    times, zs, regimes, jumps, initial_ok, vg0, bound = _integrate(
        concrete, abstract, gains, policy, x0, xhat0, horizon, h, rbar_max, t0, epsilon
    )
    return _assemble_record(
        concrete, abstract, gains, policy, times, zs, regimes, jumps,
        h, horizon, t0, initial_ok, vg0, bound,
    )


def _judge_jump(anchor, tau, delta, gains, epsilon, rbar_max):
    """Budget verdict (lhs, rhs, passed) of the jump `delta` at `tau`
    against the envelope that starts at anchor = (t, v), and the anchor
    after it: (tau, omega(tau - t, v) + ||M^{1/2} S delta||), the most V
    can be just after the jump.  The first anchor is (t0, vg0)."""
    t_prev, v_prev = anchor
    lhs, rhs, ok = refine.jump_admissible(delta, tau - t_prev, v_prev, gains, epsilon, rbar_max)
    restart = refine.omega(tau - t_prev, v_prev, gains.a1, rbar_max) + math.sqrt(lhs)
    return lhs, rhs, ok, (tau, restart)


def _integrate(concrete, abstract, gains, policy, x0, xhat0, horizon, h, rbar_max, t0, epsilon):
    """Grid times, joint states z = [x; xhat], regime ids, the jump log, the
    initial-membership flag, vg0 and the `_ErrorBound` of one run (see
    `simulate`).  The grid has a row at every step and at each located
    region crossing, which carries the regime after it; `bound` advances
    over every step in order.
    """
    if not (h > 0 and math.isfinite(h)):
        raise ValueError(f"step h must be positive and finite, got {h}")
    if not horizon >= 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    eps_run = gains.epsilon if epsilon is None else float(epsilon)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    xhat0 = np.asarray(xhat0, dtype=float).reshape(-1)
    n, n_r = concrete.n, abstract.n_r
    if x0.size != n or xhat0.size != n_r:
        raise ValueError(f"initial states must have sizes {(n, n_r)}")

    uhat0 = policy.uhat_at(t0, xhat0)
    vg0 = refine.vg(refine.RelationPoint(x0, xhat0, uhat0), gains)
    initial_ok = vg0 <= eps_run
    if not initial_ok:
        warnings.warn(
            f"initial triple outside the relation: vg = {vg0:.6g} > "
            f"epsilon = {eps_run:.6g}",
            stacklevel=3,
        )

    F, N = _joint_matrices(concrete, abstract, gains)
    to_xhat = np.eye(n + n_r)[n:]
    t_end = t0 + horizon
    rec = _Recorder(n + n_r, _n_steps(t0, max(t_end, t0 + h), h) + 16)
    jumps: list[JumpRecord] = []
    min_sep = MIN_JUMP_SEPARATION_STEPS * h
    anchor = (t0, vg0)
    bound = _ErrorBound(concrete, gains)

    def regime(index: int, a: float, b: float) -> _Regime:
        """The policy's regime `index` for the span [a, b]."""
        steps = _n_steps(a, b, h) if b > a else 0
        step = (b - a) / max(steps, 1)
        if policy.kind == "open_loop":
            seg = policy.segments[index]
            maps = _segment_maps(F, N, seg, a, b - a, steps) if steps else (None, None)
            tail = np.eye(seg.coeffs.shape[1])[0]
            return _Regime(index, step, steps, *maps, tail, seg=seg, span=(a, b))
        region = policy.regions[index]
        gen = F - N @ (region.gain @ to_xhat)
        return _Regime(index, step, steps, gen, _rk4_phi(gen, step), np.empty(0),
                       region.box, region.gain)

    def outside(r: _Regime, rows: np.ndarray) -> np.ndarray:
        """Indices of the rows of z outside r's box: none for a segment."""
        if r.box is None:
            return np.empty(0, dtype=int)
        return np.flatnonzero(~r.box.contains(rows[:, n:]))

    def switch(old, tau: float, xhat_next, xhat_tau, a: float, b: float) -> _Regime:
        """The regime after `old` at tau, picked at xhat_next, for [a, b].
        Its input change at tau (at xhat_tau for a region) is judged and
        logged when it is a jump; the first regime (old None) has none."""
        nonlocal anchor
        new = regime(policy.regime_index(tau, xhat_next), a, b)
        if old is None:
            return new
        if policy.kind == "open_loop":
            before = old.seg.value(tau)
            delta, cause = new.seg.value(tau) - before, "segment_boundary"
        else:
            before = old.gain @ xhat_tau
            delta, cause = (old.gain - new.gain) @ xhat_tau, "region_crossing"
        if _is_jump(delta, before):
            if jumps and tau - jumps[-1].time < min_sep:
                raise ZenoViolation(
                    f"jumps at {jumps[-1].time:.6g} and {tau:.6g} violate the "
                    f"minimum separation {min_sep:.6g}"
                )
            lhs, rhs, ok, anchor = _judge_jump(anchor, tau, delta, gains, eps_run, rbar_max)
            jumps.append(JumpRecord(tau, delta, cause, lhs, rhs, ok))
            bound.restart()
        return new

    def run_span(r: _Regime, a: float, b: float, z: np.ndarray):
        """Integrate from z at a to b, starting in r: (z at b, the regime
        there).  Records every row but the one at b."""
        ts = a + r.step * np.arange(r.steps + 1)
        ts[r.steps] = b
        tol_t = max(1e-9 * (b - a), 1e-15)
        i = 0
        while True:
            stop = None if r.box is None else (lambda rows: outside(r, rows).size > 0)
            w = np.concatenate([z, r.tail])
            block = _propagate(r.phi, w, r.steps - i + 1, stop)[:, : z.size]
            _check_finite(block, ts[i:])
            exits = outside(r, block)
            if exits.size == 0:
                rec.add_block(ts[i : r.steps], block[:-1], r.index)
                bound.stretch(r, r.step, block)
                return block[-1], r

            j = int(exits[0])  # first sample outside; j >= 1 since z is inside
            rec.add_block(ts[i : i + j], block[:j], r.index)
            z_a, z_b = block[j - 1], block[j]
            t_a, t_b = ts[i + j - 1], ts[i + j]
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
                bound.stretch(r, r.step, block[:j])
                bound.stretch(r, s_cross, np.stack([z_a, z_tau]))
            else:
                # crossing at (numerically) the step end: snap to the grid point
                tau, z_tau = t_b, z_b
                bound.stretch(r, r.step, block[: j + 1])
            r = switch(r, tau, z_b[n:], z_tau[n:], a, b)
            if split:
                rec.add(tau, z_tau, r.index)
                z = _rk4_phi(r.gen, t_b - tau) @ z_tau
                bound.stretch(r, t_b - tau, np.stack([z_tau, z]))
                if not r.box.contains(z[n:]):
                    raise ZenoViolation(
                        f"second region crossing within one step at t ~ {t_b:.6g}"
                    )
            else:
                z = z_tau
            _check_finite(z, t_b)
            i += j

    breaks = [t0, *(tau for tau in policy.breakpoints() if t0 + 1e-12 < tau < t_end - 1e-12)]
    z, r = np.concatenate([x0, xhat0]), None
    for a, b in zip(breaks, [*breaks[1:], t_end]):
        r = switch(r, a, z[n:], z[n:], a, b)
        z, r = run_span(r, a, b, z)
    # a segment ends at t_end, where the next one may start
    final = r.index if r.box is not None else policy.regime_index(t_end, z[n:])
    rec.add(t_end, z, final)

    times, zs, regimes = rec.rows()
    return times, zs, regimes, jumps, initial_ok, vg0, bound


def _propagate(phi: np.ndarray, z: np.ndarray, count: int, stop=None) -> np.ndarray:
    """Rows z, phi z, ..., phi^(count-1) z by repeated doubling, shaped
    (count, z.size) with contiguous columns, or the rows filled before the
    first doubling stage whose new rows make stop(new rows) hold."""
    out = np.empty((z.size, count))
    out[:, 0] = z
    last, filled = 0, 1
    power = phi
    with np.errstate(over="ignore", invalid="ignore"):
        while filled < count:
            if stop is not None and stop(out[:, last:filled].T):
                return out[:, :filled].T
            take = min(filled, count - filled)
            out[:, filled : filled + take] = power @ out[:, :take]
            last, filled = filled, filled + take
            if filled < count:
                power = power @ power
    return out.T


def _assemble_record(
    concrete, abstract, gains, policy, times, zs, regimes, jumps,
    h, horizon, t0, initial_ok, vg0, bound,
) -> TrajectoryRecord:
    n = concrete.n
    x = zs[:, :n]
    xhat = zs[:, n:]
    uhat = policy.uhat(times, xhat, regimes)
    uhatdot = policy.uhatdot(abstract, times, xhat, uhat, regimes)
    rows = refine.RelationPoint(x, xhat, uhat)
    e = refine.error_vector(rows, gains)
    vg = refine.vg(rows, gains, e)
    u, _ = refine.interface_u(rows, gains, e)
    y = (concrete.C @ x.T).T
    yhat = (abstract.C @ xhat.T).T
    err = np.linalg.norm(y - yhat, axis=1)
    return TrajectoryRecord(
        t=times,
        x=x,
        xhat=xhat,
        uhat=uhat,
        uhatdot=uhatdot,
        u=u,
        y=y,
        yhat=yhat,
        vg=vg,
        err=err,
        jumps=jumps,
        concrete=concrete,
        abstract=abstract,
        h=h,
        horizon=horizon,
        t0=t0,
        initial_membership=initial_ok,
        vg0=vg0,
        decay_slack=bound.slack + bound.v_rounding * float(np.max(vg)),
    )


def simulate_calibrated(*args, **kwargs) -> TrajectoryRecord:
    """`simulate`, kept for callers of the former step-halving calibration."""
    return simulate(*args, **kwargs)


@dataclass
class VerificationReport:
    """Sample-wise and budget checks of one trajectory record."""

    max_output_error: float
    max_vg: float
    max_u_norm: float
    output_error_ok: bool
    vg_ok: bool
    input_ok: bool
    envelope_violation_count: int
    envelope_violations: list[dict] = field(default_factory=list)
    jumps_total: int = 0
    jumps_passed: int = 0
    decay_violations: int = 0
    first_decay_violation_time: float | None = None
    initial_membership: bool = True
    decay_slack: float = 0.0

    @property
    def envelope_ok(self) -> bool:
        return self.envelope_violation_count == 0

    @property
    def jumps_ok(self) -> bool:
        return self.jumps_passed == self.jumps_total

    @property
    def decay_ok(self) -> bool:
        return self.decay_violations == 0

    @property
    def passed(self) -> bool:
        return (
            self.output_error_ok
            and self.vg_ok
            and self.input_ok
            and self.envelope_ok
            and self.jumps_ok
            and self.decay_ok
        )

    def to_dict(self) -> dict:
        """Every field plus the four verdicts."""
        verdicts = ("passed", "envelope_ok", "jumps_ok", "decay_ok")
        return {**asdict(self), **{name: getattr(self, name) for name in verdicts}}


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
    anchored at the record's `vg0`, as `simulate` logs it.
    """
    u_norm = np.linalg.norm(record.u, axis=1)
    xhat_norm = np.linalg.norm(record.xhat, axis=1)
    uhat_norm = np.linalg.norm(record.uhat, axis=1)
    uhatdot_norm = np.linalg.norm(record.uhatdot, axis=1)

    violations: list[dict] = []
    count = 0
    for name, values, bound in (
        ("xhat_max", xhat_norm, envelope.xhat_max),
        ("uhat_max", uhat_norm, envelope.uhat_max),
        ("uhatdot_max", uhatdot_norm, envelope.uhatdot_max),
    ):
        bad = np.flatnonzero(values > bound)
        count += bad.size
        for i in bad[:10]:
            violations.append(
                {"time": float(record.t[i]), "bound": name, "value": float(values[i])}
            )

    # decay bound per inter-jump window, anchored at the window start sample;
    # a jump-time row stores the post-jump value and belongs to the window it
    # opens, not the one it closes
    decay_violations = 0
    first_violation = None
    starts = np.searchsorted(record.t, [record.t[0]] + [j.time for j in record.jumps])
    for lo, hi in zip(starts, [*starts[1:], record.t.size]):
        if lo == hi:
            continue
        ts = record.t[lo:hi]
        vgs = record.vg[lo:hi]
        bound = refine.omega(ts - ts[0], vgs[0], gains.a1, rbar_max)
        bad = np.flatnonzero(vgs > bound + record.decay_slack)
        if bad.size:
            decay_violations += int(bad.size)
            t_bad = float(ts[bad[0]])
            if first_violation is None or t_bad < first_violation:
                first_violation = t_bad

    jumps_passed = 0
    anchor = (record.t0, record.vg0)
    for j in record.jumps:
        lhs, _, ok, anchor = _judge_jump(anchor, j.time, j.delta, gains, epsilon, rbar_max)
        if ok and abs(lhs - j.lhs) <= 1e-9 * max(1.0, abs(j.lhs)):
            jumps_passed += 1

    max_err = float(np.max(record.err))
    max_vg = float(np.max(record.vg))
    max_u = float(np.max(u_norm)) if u_norm.size else 0.0
    return VerificationReport(
        max_output_error=max_err,
        max_vg=max_vg,
        max_u_norm=max_u,
        output_error_ok=bool(max_err <= epsilon),
        vg_ok=bool(max_vg <= epsilon),
        input_ok=bool(max_u <= b_U),
        envelope_violation_count=int(count),
        envelope_violations=violations,
        jumps_total=len(record.jumps),
        jumps_passed=jumps_passed,
        decay_violations=decay_violations,
        first_decay_violation_time=first_violation,
        initial_membership=record.initial_membership,
        decay_slack=record.decay_slack,
    )


# ---------------------------------------------------------------------------
# CSV artifacts (15 significant digits, deterministic bytes)
#
# Trajectory values go through `textfmt`, whose bytes equal `'%.15g' % v`:
# the 15 digits come from one longdouble product whose error is below
# 1.01 eps_ld 1e15 (two roundings), and every value whose fraction lies
# within 16 eps_ld 1e15 of 1/2 is formatted by Python instead.
# A pool of CPUs threads formats row blocks ahead of the calling thread,
# which only writes them, in row order; at most 2 x CPUs blocks are submitted
# but unwritten, so CSV memory is the record plus them.

#: rows formatted and compressed per block of `write_trajectory_csv`; at 16,384
#: rows one column's gather index (1.4 MB) fits in a 2 MB L2 cache
_CSV_CHUNK_ROWS = 16384


def _fmt(v: float) -> str:
    return f"{v:.15g}"


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _stream_blocks(fn, count: int, sink) -> int:
    """Call sink(fn(0)), ..., sink(fn(count - 1)) in this order, with the fn
    calls run on a pool of CPUs threads and the calling thread only sinking,
    and return the total length of the blocks.

    At most 2 x CPUs blocks are submitted but not yet sunk.  On the first
    exception, from `fn` or from `sink`, the blocks not yet started are
    cancelled and the error is re-raised once the pool is joined.
    """
    # imported on first use: `concurrent.futures` imports `logging`, which
    # runs without CSV output need not pay for
    import collections
    import concurrent.futures

    window = 2 * _cpus()
    pending = collections.deque()
    total = 0
    with concurrent.futures.ThreadPoolExecutor(max_workers=_cpus()) as pool:
        try:
            for i in range(count + 1):
                # sink the oldest block when the window is full, all at the end
                while pending and (len(pending) == window or i == count):
                    part = pending.popleft().result()
                    sink(part)
                    total += len(part)
                if i < count:
                    pending.append(pool.submit(fn, i))
        except BaseException:
            for future in pending:
                future.cancel()
            raise
    return total


def write_trajectory_csv(record: TrajectoryRecord, f: BinaryIO) -> int:
    """Write the trajectory CSV of `record` to the binary file `f` and return
    the number of bytes written.  Row blocks are formatted on every CPU and
    written in row order, so at most 2 x CPUs blocks of text are held."""
    # imported on first use: building its tables takes milliseconds that
    # runs without CSV output need not pay at import
    from . import textfmt

    n = record.x.shape[1]
    n_r = record.xhat.shape[1]
    m_r = record.uhat.shape[1]
    m = record.u.shape[1]
    p = record.y.shape[1]
    header = (
        ["t"]
        + [f"x{i + 1}" for i in range(n)]
        + [f"xhat{i + 1}" for i in range(n_r)]
        + [f"uhat{i + 1}" for i in range(m_r)]
        + [f"uhatdot{i + 1}" for i in range(m_r)]
        + [f"u{i + 1}" for i in range(m)]
        + [f"y{i + 1}" for i in range(p)]
        + [f"yhat{i + 1}" for i in range(p)]
        + ["vg", "err"]
    )
    columns = (
        record.t,
        record.x,
        record.xhat,
        record.uhat,
        record.uhatdot,
        record.u,
        record.y,
        record.yhat,
        record.vg,
        record.err,
    )
    chunk = _CSV_CHUNK_ROWS

    def block_bytes(k: int) -> bytes:
        a = k * chunk
        return textfmt.csv_rows(np.column_stack([c[a : a + chunk] for c in columns]))

    head = (",".join(header) + "\n").encode("ascii")
    f.write(head)
    return len(head) + _stream_blocks(block_bytes, -(-record.t.size // chunk), f.write)


def jumps_csv(record: TrajectoryRecord) -> str:
    m_r = record.uhat.shape[1]
    header = ["tau"] + [f"delta{i + 1}" for i in range(m_r)] + ["lhs", "rhs", "pass"]
    lines = [",".join(header)]
    for j in record.jumps:
        row = [_fmt(j.time)] + [_fmt(v) for v in j.delta] + [
            _fmt(j.lhs),
            _fmt(j.rhs),
            "true" if j.passed else "false",
        ]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
