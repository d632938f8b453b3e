"""Runtime evaluation of the simulation function, the control-refinement
interface, relation membership, initial-state lifting, and the jump budget
for discontinuous abstract inputs.

All functions are pure and stateless.  The output metric is the Euclidean
norm; the interface never clamps the concrete input, it only flags when the
bound is exceeded.  `error_vector`, `vg`, `interface_u` and `omega` take one
point or rows of points; a point is evaluated as a one-row array, by the
expression that evaluates a record's rows, so these formulas are written
only here.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class RelationPoint(NamedTuple):
    """A triple (x, xhat, uhat) in the joint relation space: one point of
    vectors, or rows of 2-D arrays, one point per row."""

    x: np.ndarray
    xhat: np.ndarray
    uhat: np.ndarray


def _rows(point, gains) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """x, xhat, uhat as 2-D row arrays, and whether `point` is one point."""
    single = np.ndim(point.x) < 2
    rows = [np.asarray(v, dtype=float) for v in point]
    if single:
        rows = [v.reshape(1, -1) for v in rows]
    dims, expected = tuple(v.shape[1] for v in rows), (*gains.P.shape, gains.S.shape[1])
    if dims != expected:
        raise ValueError(f"point dimensions {dims} do not match gains {expected}")
    return (*rows, single)


def error_vector(point: RelationPoint, gains) -> np.ndarray:
    """e = x - P xhat - S uhat: (n,) for one point, (rows, n) for rows."""
    x, xhat, uhat, single = _rows(point, gains)
    e = x - xhat @ gains.P.T - uhat @ gains.S.T
    return e[0] if single else e


def vg(point: RelationPoint, gains, e=None):
    """Simulation-function value sqrt(e' M e), zero exactly when e = 0: a
    float for one point, an array for rows.  `e` is the point's
    `error_vector`, where the caller has formed it already."""
    if e is None:
        e = error_vector(point, gains)
    rows = e.reshape(1, -1) if e.ndim == 1 else e
    values = np.sqrt(np.maximum(np.einsum("ij,jk,ik->i", rows, gains.M, rows), 0.0))
    return float(values[0]) if e.ndim == 1 else values


def interface_u(point: RelationPoint, gains, e=None):
    """Refined concrete input u = K e + Q xhat + R uhat (`e` as in `vg`) and
    whether ||u|| exceeds the certified input bound; u is never clamped.
    For rows, u has a row per point and the flag is None: `verify_trajectory`
    judges the input norms of a whole record."""
    _, xhat, uhat, single = _rows(point, gains)
    if e is None:
        e = error_vector(point, gains)
    u = e.reshape(len(xhat), -1) @ gains.K.T + xhat @ gains.Q.T + uhat @ gains.R.T
    if not single:
        return u, None
    return u[0], bool(np.linalg.norm(u[0]) > gains.input_bound + 1e-12)


def interface_gains(gains) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(K, Q - K P, R - K S): the interface u as a linear map of (x, xhat, uhat)."""
    return gains.K, gains.Q - gains.K @ gains.P, gains.R - gains.K @ gains.S


def error_map(gains, uhat_gain=None) -> np.ndarray:
    """[I, -P - S L]: e as a linear map of z = [x; xhat] where uhat = L xhat
    with L = `uhat_gain`, or where uhat does not depend on z (None)."""
    on_xhat = gains.P if uhat_gain is None else gains.P + gains.S @ uhat_gain
    return np.hstack([np.eye(gains.P.shape[0]), -on_xhat])


def lift_initial(xhat0, uhat0, gains) -> np.ndarray:
    """x0 = P xhat0 + S uhat0; the lifted triple has vg = 0 by construction."""
    xhat0 = np.asarray(xhat0, dtype=float).reshape(-1)
    uhat0 = np.asarray(uhat0, dtype=float).reshape(-1)
    return gains.P @ xhat0 + gains.S @ uhat0


def in_relation(point: RelationPoint, gains, epsilon: float) -> bool:
    """Membership in the epsilon-sublevel set of the simulation function."""
    return vg(point, gains) <= epsilon


def omega(tau, vg0: float, a1: float, rbar_max: float):
    """Decay envelope exp(-a1 tau / 2) vg0 + (1 - exp(-a1 tau / 2)) 2 rbar_max / a1.

    It bounds V itself, not V^2, a time tau after a start where V <= vg0: a
    float for one tau, an array for an array of them.
    """
    tau = np.asarray(tau, dtype=float)
    if (tau < 0).any():
        raise ValueError(f"tau must be nonnegative, got {np.min(tau)}")
    decay = np.exp(-0.5 * a1 * tau)
    w = decay * vg0 + (1.0 - decay) * (2.0 * rbar_max / a1)
    return float(w) if w.ndim == 0 else w


def jump_admissible(
    delta, tau: float, vg0: float, gains, epsilon: float, rbar_max: float
) -> tuple[float, float, bool]:
    """Jump-budget check delta^T S^T M S delta <= (epsilon - omega(tau))^2.

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
    return lhs, rhs, lhs <= rhs
