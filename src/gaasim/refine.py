"""Runtime evaluation of the simulation function, the control-refinement
interface, relation membership, initial-state lifting, and the jump budget
for discontinuous abstract inputs.

All functions are pure and stateless.  The output metric is the Euclidean
norm; the interface never clamps the concrete input, it only flags when the
bound is exceeded.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


class RelationPoint(NamedTuple):
    """A triple (x, xhat, uhat) in the joint relation space."""

    x: np.ndarray
    xhat: np.ndarray
    uhat: np.ndarray


def _as_point(point, gains) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x = np.asarray(point.x, dtype=float).reshape(-1)
    xhat = np.asarray(point.xhat, dtype=float).reshape(-1)
    uhat = np.asarray(point.uhat, dtype=float).reshape(-1)
    n, n_r = gains.P.shape
    m_r = gains.S.shape[1]
    if x.size != n or xhat.size != n_r or uhat.size != m_r:
        raise ValueError(
            f"point dimensions {(x.size, xhat.size, uhat.size)} do not match "
            f"gains {(n, n_r, m_r)}"
        )
    return x, xhat, uhat


def error_vector(point: RelationPoint, gains) -> np.ndarray:
    """e = x - P xhat - S uhat."""
    x, xhat, uhat = _as_point(point, gains)
    return x - gains.P @ xhat - gains.S @ uhat


def vg(point: RelationPoint, gains) -> float:
    """Simulation-function value sqrt(e^T M e); zero exactly when e = 0."""
    e = error_vector(point, gains)
    return float(math.sqrt(max(e @ gains.M @ e, 0.0)))


def interface_u(point: RelationPoint, gains) -> tuple[np.ndarray, bool]:
    """Refined concrete input K e + Q xhat + R uhat.

    Returns (u, exceeded) where `exceeded` flags ||u|| above the gains'
    certified input bound; the input is reported as-is, never clamped.
    """
    x, xhat, uhat = _as_point(point, gains)
    e = x - gains.P @ xhat - gains.S @ uhat
    u = gains.K @ e + gains.Q @ xhat + gains.R @ uhat
    exceeded = bool(np.linalg.norm(u) > gains.input_bound + 1e-12)
    return u, exceeded


def lift_initial(xhat0, uhat0, gains) -> np.ndarray:
    """x0 = P xhat0 + S uhat0; the lifted triple has vg = 0 by construction."""
    xhat0 = np.asarray(xhat0, dtype=float).reshape(-1)
    uhat0 = np.asarray(uhat0, dtype=float).reshape(-1)
    return gains.P @ xhat0 + gains.S @ uhat0


def in_relation(point: RelationPoint, gains, epsilon: float) -> bool:
    """Membership in the epsilon-sublevel set of the simulation function."""
    return vg(point, gains) <= epsilon


def omega(tau: float, vg0: float, a1: float, rbar_max: float) -> float:
    """Decay envelope exp(-a1 tau / 2) vg0 + (1 - exp(-a1 tau / 2)) 2 rbar_max / a1.

    It bounds V itself, not V^2, a time tau after a start where V <= vg0.
    """
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    decay = math.exp(-0.5 * a1 * tau)
    return decay * vg0 + (1.0 - decay) * (2.0 * rbar_max / a1)


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
