"""Computes the refinement parameter bundle (M, P, Q, S, R, decay rates,
input bound) for a concrete/abstract system pair and checks every standing
hypothesis: the structural equalities, the Lyapunov decay inequality, the
coupling residuals rbar1..3 recomputed from the bundle's own matrices, the
input bound, the disturbance-budget feasibility, and the initial-set lift.

The stabilizing gain K is a required user input; the tool validates it (and
reports the largest admissible decay rate) rather than synthesizing it.  M
is obtained from a unit-right-hand-side Lyapunov solve plus scaling so the
output weight is dominated, or supplied by the user and validated.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import model, numerics, refine
from .model import (
    AbstractInputPolicy,
    AbstractLinearSystem,
    ConcreteLinearSystem,
    DomainGap,
    OperatingEnvelope,
)
from .numerics import as_matrix


class NotStabilizing(ValueError):
    """A + B K is not Hurwitz, or the requested decay rate is infeasible."""


#: tolerance on ||C P - Chat||_F, ||C S||_F and each stated rbar's error
STRUCT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class RefinementGains:
    """Full parameter bundle of the simulation function and interface.  M is
    its one weight: M_sqrt and lambda_min_M are attributes derived from it."""

    _MATRICES = ("M", "K", "P", "Q", "S", "R")
    #: the scalars that must be positive; the others must be nonnegative
    _POSITIVE = ("a1", "epsilon")

    M: np.ndarray
    K: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    S: np.ndarray
    R: np.ndarray
    a1: float
    epsilon: float
    rbar1: float
    rbar2: float
    rbar3: float
    input_bound: float

    def __post_init__(self):
        for name in self._MATRICES:
            object.__setattr__(self, name, as_matrix(getattr(self, name), name))
        n = self.M.shape[0]
        m, n_r = self.Q.shape
        m_r = self.S.shape[1]
        expected = {
            "M": (n, n),
            "K": (m, n),
            "P": (n, n_r),
            "Q": (m, n_r),
            "S": (n, m_r),
            "R": (m, m_r),
        }
        for name, shape in expected.items():
            if getattr(self, name).shape != shape:
                raise ValueError(
                    f"gains.{name}: expected shape {shape}, got {getattr(self, name).shape}"
                )
        for name in (f.name for f in fields(self) if f.name not in self._MATRICES):
            value, positive = float(getattr(self, name)), name in self._POSITIVE
            object.__setattr__(self, name, value)
            if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
                rule = "> 0" if positive else ">= 0"
                raise ValueError(f"gains.{name} must be finite and {rule}, got {value}")
        for name, value in zip(("M_sqrt", "lambda_min_M"), _weight(self.M, "gains.M")):
            object.__setattr__(self, name, value)

    def to_dict(self) -> dict:
        """Every field; matrices as lists of rows."""
        return {
            f.name: getattr(self, f.name).tolist() if f.name in self._MATRICES
            else getattr(self, f.name)
            for f in fields(self)
        }

    @classmethod
    def from_dict(cls, d) -> "RefinementGains":
        """The bundle of a parsed gains document, read as a config section:
        unknown or missing keys and non-finite numbers are refused."""
        table = {f.name: model._matrix if f.name in cls._MATRICES else model._number
                 for f in fields(cls)}
        return cls(**model._section(d, "gains", table))


@dataclass(frozen=True)
class ConditionRecord:
    """One check, which judges itself: it passes when `value <= tolerance`,
    so a NaN value never passes."""

    name: str
    value: float
    tolerance: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.tolerance)

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


@dataclass(frozen=True)
class ConditionReport:
    records: tuple[ConditionRecord, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "records": [r.to_dict() for r in self.records]}


def max_feasible_a1(A, B, K) -> float:
    """Largest decay rate admitting a Lyapunov certificate: -2 max Re(eig(A+BK)).

    Callers must pick a1 strictly below the returned value.
    """
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    K = as_matrix(K, "K")
    alpha = numerics.real_spectral_abscissa(A + B @ K)
    if alpha >= 0:
        raise NotStabilizing(f"A + B K has spectral abscissa {alpha:.6g} >= 0")
    return -2.0 * alpha


def synthesize_M(A, B, C, K, a1: float) -> np.ndarray:
    """Weight matrix from a shifted Lyapunov solve with unit right-hand side.

    Solves (Acl + a1/2 I)^T M0 + M0 (Acl + a1/2 I) = -I, then scales so the
    output Gramian C^T C is dominated; the scaling preserves the decay
    inequality because both sides are homogeneous in M.
    """
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    C = as_matrix(C, "C")
    K = as_matrix(K, "K")
    feasible = max_feasible_a1(A, B, K)
    if not a1 < feasible:
        raise NotStabilizing(
            f"a1 = {a1:.6g} is not strictly below the feasible bound {feasible:.6g}"
        )
    shifted = A + B @ K + 0.5 * a1 * np.eye(A.shape[0])
    m0 = numerics.solve_lyapunov(shifted.T, -np.eye(A.shape[0]))
    m0 = 0.5 * (m0 + m0.T)

    values, vectors = numerics.sym_eig(m0)
    if values[0] <= 0:
        raise NotStabilizing(
            f"Lyapunov solution not positive definite (lambda_min {values[0]:.3e})"
        )
    inv_sqrt = vectors @ np.diag(1.0 / np.sqrt(values)) @ vectors.T
    weight = inv_sqrt @ (C.T @ C) @ inv_sqrt
    lam_top = numerics.sym_eig(0.5 * (weight + weight.T)).values[-1]
    scale = max(1.0, lam_top * (1.0 + 1e-6))
    return scale * m0


def _weight(M, name: str = "M") -> tuple[np.ndarray, float]:
    """(M^{1/2}, lambda_min(M)) of a symmetric M from one eigendecomposition
    M = V diag(lam) V^T, with the root 0.5 (R + R^T), R = V diag(sqrt(lam)) V^T.
    Raises NumericsError, its message starting with `name`, when M is not
    positive definite."""
    values, vectors = numerics.sym_eig(M, name)
    if not values[0] > 0:
        raise numerics.NumericsError(f"{name} not positive definite: eigenvalue {values[0]:.3e}")
    root = vectors @ np.diag(np.sqrt(values)) @ vectors.T
    return 0.5 * (root + root.T), float(values[0])


def _coupling(A, B, C, M_sqrt, G, W, H, x_free: bool = True, constraint=None):
    """(X, Y, ||M^{1/2}((A X - X G + B Y) - W)||) at the minimizer of that
    weighted residual's Frobenius norm subject to C X = H, or over Y alone
    with X = 0 when not `x_free` (the S = 0 baseline).  Among minimizers,
    the one of least norm of (vec X, vec Y).  Without X, or in (X V, Y V)
    for a symmetric G = V diag(lam) V^T, the columns are separate problems
    in A - lam_j I, one solve per distinct lam_j: V is orthogonal, so the
    norms, the minimizer and its tie-break are unchanged (Golub, Nash & Van
    Loan 1979); they share one `constraint`, [C 0] factored by
    `numerics.equality_constraint` (factored here when not given).  Only a
    non-symmetric G builds the Kronecker operator, and TooLarge is raised
    before any np.kron when its doubles exceed memory."""
    n, m, k = A.shape[0], B.shape[1], G.shape[0]
    if not x_free:
        X, Y = np.zeros((n, k)), numerics.constrained_lstsq(M_sqrt @ B, M_sqrt @ W)
    elif np.array_equal(G, G.T):
        lam, V = numerics.sym_eig(G, "G")
        target, eq_rhs, sol = M_sqrt @ W @ V, H @ V, np.empty((n + m, k))
        eq = constraint or numerics.equality_constraint(np.hstack([C, np.zeros((C.shape[0], m))]))
        # lam ascends: its distinct values without np.unique, which would
        # import numpy.ma on its first call in a process
        for value in lam[np.r_[True, lam[1:] != lam[:-1]]]:
            cols, obj = lam == value, np.hstack([M_sqrt @ A - value * M_sqrt, M_sqrt @ B])
            sol[:, cols] = numerics.constrained_lstsq(obj, target[:, cols], eq, eq_rhs[:, cols])
        X, Y = sol[:n] @ V.T, sol[n:] @ V.T
    else:
        numerics.require_memory(8 * k * k * (n + C.shape[0]) * (n + m), "the Kronecker operator")
        eye = np.eye(k)
        obj = np.hstack([np.kron(eye, M_sqrt @ A) - np.kron(G.T, M_sqrt), np.kron(eye, M_sqrt @ B)])
        eq = np.hstack([np.kron(eye, C), np.zeros((C.shape[0] * k, m * k))])
        sol = numerics.constrained_lstsq(
            obj, (M_sqrt @ W).reshape(-1, order="F"), eq, H.reshape(-1, order="F"))
        X, Y = (part.reshape((-1, k), order="F") for part in (sol[: n * k], sol[n * k :]))
    return X, Y, _residual(A, B, M_sqrt, G, W, X, Y)


def _residual(A, B, M_sqrt, G, W, X, Y) -> float:
    """rbar1 or rbar2: ||M^{1/2}((A X - X G + B Y) - W)|| at a coupling (X, Y)."""
    return numerics.spectral_norm(M_sqrt @ (((A @ X - X @ G) + B @ Y) - W))


def solve_PQ(
    A, Ahat, B, C, Chat, M_sqrt, constraint=None
) -> tuple[np.ndarray, np.ndarray, float]:
    """Minimize ||M^{1/2}(A P - P Ahat + B Q)|| subject to C P = Chat.

    Returns (P, Q, rbar1) with rbar1 the spectral norm of the achieved
    weighted residual.  `constraint` is [C 0] as `_coupling` takes it.
    """
    A, Ahat = as_matrix(A, "A"), as_matrix(Ahat, "Ahat")
    B, C, Chat = as_matrix(B, "B"), as_matrix(C, "C"), as_matrix(Chat, "Chat")
    W = np.zeros((A.shape[0], Ahat.shape[0]))
    return _coupling(A, B, C, as_matrix(M_sqrt, "M_sqrt"), Ahat, W, Chat, constraint=constraint)


def solve_SR(
    A, B, C, P, Bhat, M_sqrt, force_s_zero: bool = False, constraint=None
) -> tuple[np.ndarray, np.ndarray, float]:
    """Minimize ||M^{1/2}(A S + B R - P Bhat)|| subject to C S = 0.

    With force_s_zero the S = 0 interface of the classical refinement is
    reproduced and only R is optimized.  Returns (S, R, rbar2).
    `constraint` is [C 0] as `_coupling` takes it.
    """
    A, B, C = as_matrix(A, "A"), as_matrix(B, "B"), as_matrix(C, "C")
    P, Bhat = as_matrix(P, "P"), as_matrix(Bhat, "Bhat")
    m_r = Bhat.shape[1]
    return _coupling(
        A, B, C, as_matrix(M_sqrt, "M_sqrt"), np.zeros((m_r, m_r)), P @ Bhat,
        np.zeros((C.shape[0], m_r)), x_free=not force_s_zero, constraint=constraint,
    )


def rbar3_of(M_sqrt, S) -> float:
    """Input-rate sensitivity ||M^{1/2} S||."""
    return numerics.spectral_norm(as_matrix(M_sqrt, "M_sqrt") @ as_matrix(S, "S"))


def input_bound(
    K, Q, R, lambda_min_M: float, epsilon: float, envelope: OperatingEnvelope
) -> float:
    """Certified input bound b, which `check_assumption` judges against the
    input ball.

    b = ||K|| eps / sqrt(lambda_min(M)) + ||Q|| xhat_max + ||R|| uhat_max,
    an operator-norm over-approximation of the state-dependent terms over
    the envelope.
    """
    b = numerics.spectral_norm(K) * epsilon / np.sqrt(lambda_min_M)
    b += numerics.spectral_norm(Q) * envelope.xhat_max
    b += numerics.spectral_norm(R) * envelope.uhat_max
    return float(b)


def feasibility(
    rbar1: float,
    rbar2: float,
    rbar3: float,
    envelope: OperatingEnvelope,
    a1: float,
    epsilon: float,
) -> tuple[float, float, bool]:
    """Disturbance budget rbar_max over the envelope and the decay test.

    Returns (rbar_max, margin, pass) with margin = epsilon - 2 rbar_max / a1.
    """
    rbar_max = (
        rbar1 * envelope.xhat_max
        + rbar2 * envelope.uhat_max
        + rbar3 * envelope.uhatdot_max
    )
    margin = epsilon - 2.0 * rbar_max / a1
    return float(rbar_max), float(margin), bool(margin >= 0.0)


def synthesize_gains(
    concrete: ConcreteLinearSystem,
    abstract: AbstractLinearSystem,
    K,
    a1: float,
    epsilon: float,
    envelope: OperatingEnvelope,
    M=None,
    force_s_zero: bool = False,
) -> RefinementGains:
    """End-to-end bundle computation.

    A supplied M is symmetrized and must be positive definite (`_weight`);
    whether it satisfies the decay inequality at the requested a1 is
    reported by check_assumption rather than raised here.
    """
    K = as_matrix(K, "K")
    if M is None:
        M = synthesize_M(concrete.A, concrete.B, concrete.C, K, a1)
    else:
        M = as_matrix(M, "M")
        M = 0.5 * (M + M.T)
    M_sqrt, lam_min = _weight(M)

    A, B, C = concrete.A, concrete.B, concrete.C
    # C P = Chat and C S = 0 constrain one map [C 0], factored once for both
    eq = numerics.equality_constraint(np.hstack([C, np.zeros((C.shape[0], B.shape[1]))]))
    P, Q, rbar1 = solve_PQ(A, abstract.A, B, C, abstract.C, M_sqrt, eq)
    S, R, rbar2 = solve_SR(A, B, C, P, abstract.B, M_sqrt, force_s_zero, eq)
    rbar3 = rbar3_of(M_sqrt, S)
    b = input_bound(K, Q, R, lam_min, epsilon, envelope)
    if not math.isfinite(b):
        raise numerics.NumericsError(f"the input bound overflows ({b})")
    return RefinementGains(
        M=M,
        K=K,
        P=P,
        Q=Q,
        S=S,
        R=R,
        a1=float(a1),
        epsilon=float(epsilon),
        rbar1=float(rbar1),
        rbar2=float(rbar2),
        rbar3=float(rbar3),
        input_bound=float(b),
    )


def lifted_start(
    concrete: ConcreteLinearSystem,
    gains: RefinementGains,
    policy: AbstractInputPolicy | None,
    xhat0,
    t0: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """(x0, uhat0) of a run that starts at t0 from xhat0 with no concrete
    state given: uhat0 is the policy's input at t0 (zero without a policy),
    and x0 is the lift P xhat0 + S uhat0 clamped into the concrete initial
    box."""
    xhat0 = np.asarray(xhat0, dtype=float)
    uhat0 = np.zeros(gains.S.shape[1]) if policy is None else policy.uhat_at(t0, xhat0)
    x0 = concrete.initial_state_set.clamp(refine.lift_initial(xhat0, uhat0, gains))
    return x0, uhat0


def _lift_bound(
    concrete: ConcreteLinearSystem,
    gains: RefinementGains,
    policy: AbstractInputPolicy | None,
    box: model.Box,
    t0: float,
) -> tuple[float, str]:
    """(b, piece): b bounds the vg, as `refine.vg` evaluates it, of the
    start `lifted_start` gives at t0 to each point of the abstract box
    `box`, and `piece` names the piece of the box where the bound is
    largest.  O(pieces n (n + n_r)) operations.

    On each piece (`policy.pieces`, or the whole box without a policy) uhat
    is affine, L xhat + c, so the lift J xhat + S c, J = P + S L, has the
    per-coordinate hull [J+ lo + J- hi, J+ hi + J- lo] + S c (Moore,
    Kearfott & Cloud 2009).  The clamp moves a lift by at most d_i, the
    amount by which the hull passes the concrete box, so the witness has
    |e_i| <= d_i and vg <= sqrt(d' |M| d).  The hull is widened by the
    rounding of the lift and its own, e by that of its two subtractions,
    which is nil where S uhat is zero, and the bound by that of vg's sums
    and its own, so it holds for the floating-point vg of every start."""
    P, S = gains.P, gains.S
    (n, n_r), m_r = P.shape, S.shape[1]
    u = 2.0**-53
    no_gain, no_offset = np.zeros((m_r, n_r)), np.zeros(m_r)
    if policy is None:
        pieces = [("the whole box", box, no_gain, no_offset)]
    elif policy.kind == "open_loop":
        pieces = [(f"segment {i}", part, no_gain, policy.regimes[i].uhat(t0, part.lows))
                  for i, part in policy.pieces(t0, box)]
    else:
        pieces = [(f"region {i}", part, -policy.regimes[i].gain, no_offset)
                  for i, part in policy.pieces(t0, box)]
    lows, highs = concrete.initial_state_set.lows, concrete.initial_state_set.highs
    abs_M, bounds = np.abs(gains.M), []
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the record
        for _, part, gain, offset in pieces:
            J, shift = P + S @ gain, S @ offset
            pos, neg = np.maximum(J, 0.0), np.minimum(J, 0.0)
            top = pos @ part.highs + neg @ part.lows + shift
            bottom = pos @ part.lows + neg @ part.highs + shift
            reach = np.maximum(np.abs(part.lows), np.abs(part.highs))
            s_uhat = np.abs(S) @ (np.abs(gain) @ reach + np.abs(offset))
            size = np.maximum(np.abs(top), np.abs(bottom))
            widen = 8 * (n_r + m_r + 4) * u * (np.abs(P) @ reach + s_uhat + size)
            d = np.maximum(0.0, np.maximum(lows - (bottom - widen), (top + widen) - highs))
            e = d + 4 * u * (d + np.where(s_uhat > 0, size + widen + s_uhat, 0.0))
            b = math.sqrt(e @ abs_M @ e) * (1 + 4 * (n + 2) ** 2 * u)
            bounds.append(b if b <= math.inf else math.inf)  # a NaN is an overflow
    worst = max(range(len(pieces)), key=bounds.__getitem__)
    return bounds[worst], pieces[worst][0]


def check_assumption(
    concrete: ConcreteLinearSystem,
    abstract: AbstractLinearSystem,
    gains: RefinementGains,
    envelope: OperatingEnvelope,
    policy: AbstractInputPolicy | None = None,
    t0: float = 0.0,
) -> ConditionReport:
    """One record per standing condition, with numeric residual or margin.

    Structural equalities, output-weight domination of M (positive definite
    in any bundle), the Lyapunov decay inequality at a1, each stated rbar1..3
    against the residual that the bundle's own P, Q, S, R leave (no coupling
    is solved again, so any coupling with the stated residuals passes), the
    input bound against the input ball, the disturbance-budget feasibility,
    and the initial-set lift, judged at the start `lifted_start` gives at t0,
    the start a run from t0 without x0 takes: its vg where the abstract
    initial box is a point, else a bound on its vg over every point of the
    box (`_lift_bound`), infinite where a point lies outside every feedback
    region.  Every record passes when its value is at most its tolerance.
    """
    A, B, C = concrete.A, concrete.B, concrete.C
    M, K = gains.M, gains.K
    records: list[ConditionRecord] = []

    def check(name: str, value, tolerance, detail: str) -> None:
        records.append(ConditionRecord(name, float(value), tolerance, detail))

    cp = float(np.linalg.norm(C @ gains.P - abstract.C, "fro"))
    check("CP_equals_Chat", cp, STRUCT_TOL, "||C P - Chat||_F")
    cs = float(np.linalg.norm(C @ gains.S, "fro"))
    check("CS_zero", cs, STRUCT_TOL, "||C S||_F")

    m_norm = numerics.spectral_norm(M)
    acl = A + B @ K
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails its record
        dominance = M - C.T @ C
        lyap = acl.T @ M + M @ acl + gains.a1 * M
        lyap = 0.5 * (lyap + lyap.T)
    for name, sym, pick, detail in (
        ("output_weight_dominated", dominance, lambda lam: -lam[0], "-lambda_min(M - C^T C)"),
        ("lyapunov_decay", lyap, lambda lam: lam[-1], "lambda_max((A+BK)^T M + M (A+BK) + a1 M)"),
    ):
        finite = bool(np.isfinite(sym).all())
        value = pick(numerics.sym_eig(sym).values) if finite else np.inf
        check(name, value, 1e-9 * m_norm, detail + ("" if finite else ": overflows"))

    m_r = gains.S.shape[1]
    r1 = _residual(A, B, gains.M_sqrt, abstract.A, 0.0, gains.P, gains.Q)
    check("rbar1_consistent", abs(r1 - gains.rbar1), STRUCT_TOL,
          "| ||M^{1/2}(A P - P Ahat + B Q)|| - rbar1 |")
    r2 = _residual(
        A, B, gains.M_sqrt, np.zeros((m_r, m_r)), gains.P @ abstract.B, gains.S, gains.R)
    check("rbar2_consistent", abs(r2 - gains.rbar2), STRUCT_TOL,
          "| ||M^{1/2}(A S + B R - P Bhat)|| - rbar2 |")
    r3_dev = abs(rbar3_of(gains.M_sqrt, gains.S) - gains.rbar3)
    check("rbar3_consistent", r3_dev, STRUCT_TOL,
          "| ||M^{1/2}S|| - rbar3 |")

    b = input_bound(K, gains.Q, gains.R, gains.lambda_min_M, gains.epsilon, envelope)
    check("input_bound", b, concrete.input_ball_radius, "b vs input ball radius")

    rbar_max, margin, _ = feasibility(
        gains.rbar1, gains.rbar2, gains.rbar3, envelope, gains.a1, gains.epsilon
    )
    check("feasibility", 2.0 * rbar_max / gains.a1, gains.epsilon,
          f"2 rbar_max / a1 vs epsilon (rbar_max={rbar_max:.6g}, margin={margin:.6g})")

    # initial lift: every point of the abstract initial box must admit a
    # concrete start within epsilon, witnessed by the start a run takes
    box = abstract.initial_state_set
    try:
        if np.array_equal(box.lows, box.highs):
            witness, uhat0 = lifted_start(concrete, gains, policy, box.lows, t0)
            check("initial_lift", refine.vg(refine.RelationPoint(witness, box.lows, uhat0), gains),
                  gains.epsilon, "vg at the lift of the abstract initial point")
        else:
            bound, worst = _lift_bound(concrete, gains, policy, box, t0)
            check("initial_lift", bound, gains.epsilon,
                  f"bound on vg over the lift of the abstract initial box, largest on {worst}")
    except DomainGap as exc:
        check("initial_lift", np.inf, gains.epsilon, str(exc))

    return ConditionReport(tuple(records))
