"""Runtime evaluation of the simulation function, the control-refinement
interface, initial-state lifting, and the jump budget for discontinuous
abstract inputs.

All functions are pure and stateless.  The output metric is the Euclidean
norm; the interface never clamps the concrete input, whose norm
`sim.verify_trajectory` judges against the input ball.  `error_vector`,
`vg`, `interface_u` and `omega` take one point or rows of points; a point
is evaluated as a one-row array, by the expression that evaluates a
record's rows, so these formulas are written only here.  Rows come as
(rows, k) arrays and are evaluated column by column, each product summed
left to right (`numerics.ordered_dot`), so a record stored column-major is
read contiguously, and a point has its row's bits in any block of rows.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .numerics import ordered_dot


class RelationPoint(NamedTuple):
    """A triple (x, xhat, uhat) in the joint relation space: one point of
    vectors, or rows of 2-D arrays, one point per row."""

    x: np.ndarray
    xhat: np.ndarray
    uhat: np.ndarray


def _columns(point, gains) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """x, xhat, uhat as (k, rows) arrays, one row per coordinate, and whether
    `point` is one point."""
    single = np.ndim(point.x) < 2
    cols = [np.asarray(v, dtype=float) for v in point]
    cols = [v.reshape(-1, 1) if single else v.T for v in cols]
    dims, expected = tuple(v.shape[0] for v in cols), (*gains.P.shape, gains.S.shape[1])
    if dims != expected:
        raise ValueError(f"point dimensions {dims} do not match gains {expected}")
    return (*cols, single)


def _error_columns(point, gains) -> np.ndarray:
    x, xhat, uhat, _ = _columns(point, gains)
    e = x - ordered_dot(gains.P, xhat)
    e -= ordered_dot(gains.S, uhat)
    return e


def _points(e) -> np.ndarray:
    """An error vector, or rows of them, as (n, rows) columns."""
    return np.reshape(e, (-1, np.shape(e)[-1])).T


def error_vector(point: RelationPoint, gains) -> np.ndarray:
    """e = x - P xhat - S uhat: (n,) for one point, (rows, n) F-contiguous
    for rows."""
    e = _error_columns(point, gains)
    return e[:, 0] if np.ndim(point.x) < 2 else e.T


def vg(point: RelationPoint, gains, e=None):
    """Simulation-function value sqrt(e' M e), zero exactly when e = 0: a
    float for one point, an array for rows.  `e` is the point's
    `error_vector`, where the caller has formed it already.  e' M e adds
    (e_j M_jk) e_k to zero over j, then k, in order."""
    cols = _error_columns(point, gains) if e is None else _points(e)
    q, terms = np.zeros(cols.shape[1]), np.empty_like(cols)
    for j in range(gains.M.shape[0]):
        np.multiply(cols[j], gains.M[j, :, None], out=terms)
        terms *= cols
        for term in terms:
            q += term
    values = np.sqrt(np.maximum(q, 0.0))
    return float(values[0]) if np.ndim(point.x) < 2 else values


def interface_u(point: RelationPoint, gains, e=None) -> np.ndarray:
    """Refined concrete input u = K e + Q xhat + R uhat (`e` as in `vg`),
    never clamped: (m,) for one point, (rows, m) F-contiguous for rows."""
    _, xhat, uhat, single = _columns(point, gains)
    e = _error_columns(point, gains) if e is None else _points(e)
    u = ordered_dot(gains.K, e) + ordered_dot(gains.Q, xhat)
    u += ordered_dot(gains.R, uhat)
    return u[:, 0] if single else u.T


def interface_gains(gains) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(K, Q - K P, R - K S): the interface u as a linear map of (x, xhat, uhat)."""
    return gains.K, gains.Q - gains.K @ gains.P, gains.R - gains.K @ gains.S


def error_map(gains, uhat_gain=None) -> np.ndarray:
    """[I, -P - S L]: e as a linear map of z = [x; xhat] where uhat = L xhat
    with L = `uhat_gain`, or where uhat does not depend on z (None)."""
    on_xhat = gains.P if uhat_gain is None else gains.P + gains.S @ uhat_gain
    return np.hstack([np.eye(gains.P.shape[0]), -on_xhat])


def lift_initial(xhat0, uhat0, gains) -> np.ndarray:
    """x0 = P xhat0 + S uhat0: (n,) for one point, (rows, n) for rows, with
    the products summed as `error_vector` sums them, so the lifted triple
    has vg = 0 whenever that sum is exact, as it is when S uhat0 = 0."""
    xhat0 = np.asarray(xhat0, dtype=float)
    x0 = ordered_dot(gains.P, np.reshape(xhat0, (-1, gains.P.shape[1])).T)
    x0 += ordered_dot(gains.S, np.reshape(np.asarray(uhat0, dtype=float), (-1, gains.S.shape[1])).T)
    return x0[:, 0] if xhat0.ndim < 2 else x0.T


def omega(tau, vg0: float, a1: float, rbar_max: float):
    """Decay envelope exp(-a1 tau / 2) vg0 + (1 - exp(-a1 tau / 2)) 2 rbar_max / a1.

    It bounds V itself, not V^2, a time tau after a start where V <= vg0: a
    float for one tau, an array for an array of them.  A NaN or infinite
    rbar_max would make every bound vacuous, so it is refused.
    """
    tau = np.asarray(tau, dtype=float)
    if (tau < 0).any():
        raise ValueError(f"tau must be nonnegative, got {np.min(tau)}")
    if not 0.0 <= rbar_max < math.inf:
        raise ValueError(f"rbar_max must be finite and nonnegative, got {rbar_max}")
    decay = np.exp(-0.5 * a1 * tau)
    w = decay * vg0 + (1.0 - decay) * (2.0 * rbar_max / a1)
    return float(w) if w.ndim == 0 else w


def jump_admissible(
    delta, tau: float, vg0: float, gains, epsilon: float, rbar_max: float
) -> tuple[float, float]:
    """The two sides (lhs, rhs) of the jump budget
    delta^T S^T M S delta <= (epsilon - omega(tau))^2, which the jump
    passes where lhs <= rhs, as `sim.JumpRecord.passed` judges it.

    omega(tau) bounds V just before the jump and sqrt(lhs) = ||M^{1/2} S
    delta|| bounds how far the jump moves it, so a passing jump keeps
    V <= epsilon.  `tau` and `vg0` are those of the current envelope: the
    run start, or the previous jump, where the envelope restarts at
    omega + sqrt(lhs).  When omega(tau) exceeds epsilon the budget is
    degenerate; the right-hand side is reported as zero so that any nonzero
    effective jump fails loudly rather than squaring the negative margin.
    """
    delta = np.asarray(delta, dtype=float).reshape(-1)
    s_delta = gains.S @ delta
    lhs = float(s_delta @ gains.M @ s_delta)
    w = omega(tau, vg0, gains.a1, rbar_max)
    rhs = 0.0 if w > epsilon else (epsilon - w) ** 2
    return lhs, rhs
