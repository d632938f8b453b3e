import dataclasses
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from gaasim import casestudy, refine, synthesis
from gaasim import numerics as nx
from gaasim.model import (
    AbstractInputPolicy,
    AbstractLinearSystem,
    Box,
    ConcreteLinearSystem,
    FeedbackRegion,
    OpenLoopSegment,
    OperatingEnvelope,
    parse_config,
)
from gaasim.synthesis import (
    NotStabilizing,
    check_assumption,
    feasibility,
    input_bound,
    lifted_start,
    max_feasible_a1,
    rbar3_of,
    solve_PQ,
    solve_SR,
    synthesize_M,
    synthesize_gains,
)

from conftest import A1_5, EPS5, K5, M5, box_study, condition, kron_coupling, m_root

A5 = np.array([[0.0, 1.0], [0.0, 0.0]])
B5 = np.array([[0.0], [1.0]])
C5 = np.array([[1.0, 0.0]])


def lift_study(x0_box, xhat0_box, epsilon):
    """`conftest.box_study` and its bundle."""
    sc = box_study(x0_box, xhat0_box, epsilon)
    return sc, synthesize_gains(sc.concrete, sc.abstract, sc.K, sc.a1, sc.epsilon,
                                sc.envelope, M=sc.M)


def random_lift_case(rng, kind, n_r):
    """(concrete, abstract, gains, policy, t0): a random bundle of a 3-state
    plant and an n_r-state abstraction, an abstract box across the origin,
    where the feedback regions (the orthants of [-5, 5]^n_r) meet, and a
    concrete box about the lift of the box's middle.  With n_r = 1 the box
    holds every lift, so vg is rounding alone; with n_r = 2 its half-widths
    are 20-90 % of the lift's spread, so lifts pass it."""
    n = 3
    a = rng.standard_normal((n, n))
    gains = synthesis.RefinementGains(
        M=a @ a.T + np.eye(n), K=np.zeros((1, n)), P=rng.standard_normal((n, n_r)),
        Q=np.zeros((1, n_r)), S=rng.standard_normal((n, n_r)), R=np.zeros((1, n_r)),
        a1=0.5, epsilon=1.0, rbar1=0.0, rbar2=0.0, rbar3=0.0, input_bound=0.0)
    box = Box(rng.uniform(-2.0, -0.1, n_r), rng.uniform(0.1, 2.0, n_r))
    abstract = AbstractLinearSystem(A=-np.eye(n_r), B=np.eye(n_r), C=np.ones((1, n_r)),
                                    initial_state_set=box)
    policy, t0, reach = None, 0.0, np.zeros(n_r)
    if kind == "open_loop":
        t0 = float(rng.uniform(0.0, 2.0))
        policy = AbstractInputPolicy(kind, segments=(
            OpenLoopSegment(0.0, 1.0, rng.standard_normal((n_r, 3))),
            OpenLoopSegment(1.0, 3.0, rng.standard_normal((n_r, 2)))))
        reach = np.abs(policy.uhat_at(t0, box.lows))
    elif kind == "switched_feedback":
        regions = tuple(
            FeedbackRegion(Box(np.minimum(signs, 0.0), np.maximum(signs, 0.0)),
                           rng.standard_normal((n_r, n_r)))
            for signs in itertools.product((-5.0, 5.0), repeat=n_r))
        policy = AbstractInputPolicy(kind, regions=regions)
        reach = 2.0 * np.ones(n_r)
    middle = 0.5 * (box.lows + box.highs)
    lift = refine.lift_initial(
        middle, np.zeros(n_r) if policy is None else policy.uhat_at(t0, middle), gains)
    spread = np.abs(gains.P) @ (box.highs - middle) + np.abs(gains.S) @ reach
    half = (2.0 if n_r == 1 else rng.uniform(0.2, 0.9, n)) * spread
    concrete = ConcreteLinearSystem(A=-np.eye(n), B=np.ones((n, 1)), C=np.ones((1, n)),
                                    input_ball_radius=1.0,
                                    initial_state_set=Box(lift - half, lift + half))
    return concrete, abstract, gains, policy, t0


def wide_config(n, k, half):
    """A config of an n-state plant (A = -I, B = e1, K = 0, M solved) against
    a k-state diagonal abstraction under the ramp policy, its concrete
    initial box the origin and its abstract one [40.1, 0, ...] +- half."""
    cfg = casestudy.ramp_config()
    e = lambda i, j: float(i == j)  # noqa: E731
    cfg["concrete"].update(A=[[-e(i, j) for j in range(n)] for i in range(n)],
                           B=[[e(i, 0)] for i in range(n)], C=[[e(0, j) for j in range(n)]],
                           x0_box=[[0.0, 0.0]] * n)
    x = [40.1] + [0.0] * (k - 1)
    cfg["abstract"].update(A=[[-(1.0 + i / k) * e(i, j) for j in range(k)] for i in range(k)],
                           B=[[e(i, 0)] for i in range(k)], C=[[e(0, j) for j in range(k)]],
                           x0_box=[[v - half, v + half] for v in x])
    cfg["scenario"].update(K=[[0.0] * n], x0=[0.0] * n, xhat0=x)
    cfg["scenario"].pop("M")
    return cfg


class TestMaxFeasibleA1:
    def test_negative_identity(self):
        assert max_feasible_a1(-np.eye(2), np.zeros((2, 1)), np.zeros((1, 2))) == pytest.approx(2.0)

    def test_study_gain(self):
        # closed loop s^2 + 1.4108 s + 1.3298: abscissa -0.7054 by the
        # quadratic formula, so the feasible bound is 1.4108
        assert max_feasible_a1(A5, B5, K5) == pytest.approx(1.4108, abs=1e-10)

    def test_not_stabilizing(self):
        with pytest.raises(NotStabilizing):
            max_feasible_a1(A5, B5, np.zeros((1, 2)))


class TestSynthesizeM:
    def test_scalar_example(self):
        # a = -1, b = 0, k = 0, c = 1, a1 = 1: (-1 + 0.5) 2 M0 = -1 so M0 = 1
        m = synthesize_M([[-1.0]], [[0.0]], [[1.0]], [[0.0]], 1.0)
        assert m[0, 0] == pytest.approx(1.0, rel=1e-5)
        assert m[0, 0] >= 1.0  # output weight dominated
        m_sqrt, lam = synthesis._weight(m)
        assert m_sqrt[0, 0] == pytest.approx(np.sqrt(m[0, 0]))
        assert lam == pytest.approx(m[0, 0])

    def test_study_inputs_satisfy_decay(self):
        m = synthesize_M(A5, B5, C5, K5, A1_5)
        acl = A5 + B5 @ K5
        t = acl.T @ m + m @ acl + A1_5 * m
        assert nx.sym_eig(0.5 * (t + t.T)).values[-1] <= 1e-9 * nx.spectral_norm(m)
        assert nx.sym_eig(m - C5.T @ C5).values[0] >= -1e-9 * nx.sym_eig(m).values[-1]

    def test_infeasible_rate(self):
        with pytest.raises(NotStabilizing):
            synthesize_M(A5, B5, C5, K5, 1.5)

    def test_paper_weight_passes_validator(self):
        # 2x2 oracle: T = (A+BK)^T M + M (A+BK) + 0.5 M must be negative
        # definite, i.e. trace < 0 and det > 0
        acl = A5 + B5 @ K5
        t = acl.T @ M5 + M5 @ acl + 0.5 * M5
        assert np.allclose(t, [[-1.1625, -2.7408], [-2.7408, -7.4505]], atol=5e-4)
        assert np.trace(t) < 0
        assert np.linalg.det(t) == pytest.approx(1.149, abs=5e-3)
        assert nx.sym_eig(t).values[-1] <= 0.0


class TestSolvePQ:
    def test_study_solution(self, gains5):
        assert np.allclose(gains5.P, [[1.0], [0.0]], atol=1e-12)
        assert np.allclose(gains5.Q, [[0.0]], atol=1e-12)
        assert gains5.rbar1 < 1e-9

    def test_self_abstraction(self):
        m_sqrt = m_root(M5)
        p, q, rbar1 = solve_PQ(A5, A5, B5, C5, C5, m_sqrt)
        assert np.allclose(p, np.eye(2), atol=1e-10)
        assert np.allclose(q, np.zeros((1, 2)), atol=1e-10)
        assert rbar1 < 1e-9

    def test_matches_projected_gradient_oracle(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((3, 3))
        ahat = np.array([[-0.4]])
        b = rng.standard_normal((3, 2))
        c = rng.standard_normal((1, 3))
        spd = rng.standard_normal((3, 3))
        m_sqrt = m_root(spd @ spd.T + np.eye(3))
        chat = np.array([[0.7]])
        p, q, rbar1 = solve_PQ(a, ahat, b, c, chat, m_sqrt)

        # oracle: projected gradient descent on the same least-squares
        # objective over vec([P; Q]) with the equality constraint handled by
        # null-space projection (numpy SVD only)
        eye = np.eye(1)
        obj = np.hstack(
            [np.kron(eye, m_sqrt @ a) - np.kron(ahat.T, m_sqrt), np.kron(eye, m_sqrt @ b)]
        )
        eq = np.hstack([np.kron(eye, c), np.zeros((1, 2))])
        x = np.linalg.pinv(eq) @ chat.reshape(-1)
        _, _, vt = np.linalg.svd(eq)
        null = vt[1:].T
        proj = null @ null.T
        step = 1.0 / np.linalg.norm(obj.T @ obj, 2)
        for _ in range(20000):
            grad = obj.T @ (obj @ x)
            x = x - step * (proj @ grad)
        resid_oracle = np.linalg.norm(obj @ x)
        # with a 1-state abstraction the residual is a single column, so the
        # spectral and Frobenius norms coincide
        assert rbar1 <= resid_oracle + 1e-9
        assert rbar1 == pytest.approx(resid_oracle, abs=1e-6)


class TestCouplingColumnSplit:
    """A symmetric G is solved column by column in its eigenbasis: the same
    minimizer and the same minimum-norm tie-break as the Kronecker operator."""

    @staticmethod
    def problem(G, m=3, seed=5):
        """A 6-state plant with p = 2; with m >= 2 its last input column is a
        combination of the others, so B Y does not fix Y and the tie-break
        chooses among the minimizers."""
        rng = np.random.default_rng(seed)
        n, k = 6, G.shape[0]
        B = rng.standard_normal((n, m))
        if m >= 2:
            B[:, -1] = B[:, 0] - 2.0 * B[:, -2]
        root = rng.standard_normal((n, n))
        return (rng.standard_normal((n, n)), B, rng.standard_normal((2, n)),
                m_root(root @ root.T + np.eye(n)), G,
                rng.standard_normal((n, k)), rng.standard_normal((2, k)))

    @staticmethod
    def dense_with_repeated_eigenvalue():
        q = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))[0]
        g = q @ np.diag([-1.0, -1.0, -2.0, -0.5]) @ q.T
        return 0.5 * (g + g.T)

    @pytest.mark.parametrize("x_free", [True, False])
    @pytest.mark.parametrize("G", [
        np.diag([-1.0, -0.25, 0.5, -1.0]),
        dense_with_repeated_eigenvalue(),
        np.zeros((3, 3)),
        np.diag([-1.0, -1.0, -2.0]),
    ], ids=["diagonal", "dense_repeated", "zero", "repeated_pair"])
    @pytest.mark.parametrize("m", [1, 3])
    def test_matches_the_kronecker_reference(self, G, m, x_free, monkeypatch):
        args = self.problem(G, m)
        ref_x, ref_y = kron_coupling(*args, x_free=x_free)
        # the split builds no operator, so it needs no room for one
        monkeypatch.setattr(np, "kron", None)
        monkeypatch.setattr(nx, "physical_memory", lambda: 1.0)
        x, y, rbar = synthesis._coupling(*args, x_free=x_free)
        ref, got = np.vstack([ref_x, ref_y]), np.vstack([x, y])
        # deviation relative to the largest entry of the reference
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        a, b, _, root, g, w, _ = args
        resid = root @ (a @ ref_x - ref_x @ g + b @ ref_y - w)
        assert rbar == pytest.approx(nx.spectral_norm(resid), rel=1e-12)

    @pytest.mark.parametrize("G, solves", [
        (np.diag([-1.0, -1.0, -2.0]), 2),
        (np.zeros((3, 3)), 1),  # the (S, R) problem
    ], ids=["repeated_pair", "zero"])
    def test_one_solve_per_distinct_eigenvalue(self, G, solves, monkeypatch):
        """The columns of each distinct eigenvalue of G, grouped by == in
        ascending order, are one solve, and its operator is the one that
        np.unique's grouping gave, so the coupling keeps its bits."""
        args = self.problem(G, m=2)
        A, root = args[0], args[3]
        operators, solve = [], nx.constrained_lstsq

        def recording(obj, *rest):
            operators.append(obj)
            return solve(obj, *rest)

        monkeypatch.setattr(nx, "constrained_lstsq", recording)
        synthesis._coupling(*args)
        distinct = np.unique(nx.sym_eig(G).values)
        assert len(operators) == distinct.size == solves
        for obj, value in zip(operators, distinct):
            assert obj[:, : A.shape[0]].tobytes() == (root @ A - value * root).tobytes()

    @pytest.mark.parametrize("x_free", [True, False])
    def test_one_state_abstraction_is_bit_identical(self, x_free):
        # k = 1: the column problem is the Kronecker operator itself,
        # M^{1/2} A - g M^{1/2} beside M^{1/2} B, with the same right-hand side
        args = self.problem(np.array([[-0.7]]), m=2)
        x, y, _ = synthesis._coupling(*args, x_free=x_free)
        ref_x, ref_y = kron_coupling(*args, x_free=x_free)
        assert x.tobytes() == ref_x.tobytes() and y.tobytes() == ref_y.tobytes()


def test_bundle_factors_its_constraint_once(sys5, env5, monkeypatch):
    """The (P, Q) and (S, R) couplings of a bundle share one factored [C 0],
    and the bundle keeps the bits of one factored per solve."""
    concrete, abstract = sys5
    factored, factor = [], nx.equality_constraint
    monkeypatch.setattr(nx, "equality_constraint", lambda e: factored.append(e) or factor(e))
    gains = synthesize_gains(concrete, abstract, K5, A1_5, EPS5, env5, M=M5)
    assert len(factored) == 1
    A, B, C = concrete.A, concrete.B, concrete.C
    p, q, rbar1 = solve_PQ(A, abstract.A, B, C, abstract.C, gains.M_sqrt)
    s, r, rbar2 = solve_SR(A, B, C, p, abstract.B, gains.M_sqrt)
    assert len(factored) == 3
    for name, value in zip("PQSR", (p, q, s, r)):
        assert getattr(gains, name).tobytes() == value.tobytes(), name
    assert (gains.rbar1, gains.rbar2) == (rbar1, rbar2)


class TestSolveSR:
    def test_study_solution(self, gains5):
        assert np.allclose(gains5.S, [[0.0], [1.0]], atol=1e-12)
        assert np.allclose(gains5.R, [[0.0]], atol=1e-12)
        assert gains5.rbar2 < 1e-9

    def test_forced_s_zero_closed_form(self):
        # minimizing [-1, r] M [-1; r] over r gives r = m12 / m22 and
        # residual sqrt(m11 - m12^2 / m22)
        m_sqrt = m_root(M5)
        p = np.array([[1.0], [0.0]])
        s, r, rbar2 = solve_SR(A5, B5, C5, p, np.array([[1.0]]), m_sqrt, force_s_zero=True)
        assert np.allclose(s, np.zeros((2, 1)))
        r_star = M5[0, 1] / M5[1, 1]
        resid_star = np.sqrt(M5[0, 0] - M5[0, 1] ** 2 / M5[1, 1])
        assert r[0, 0] == pytest.approx(r_star, abs=1e-10)
        assert rbar2 == pytest.approx(resid_star, abs=1e-9)

    def test_zero_abstract_input_matrix(self):
        m_sqrt = m_root(M5)
        s, r, rbar2 = solve_SR(A5, B5, C5, np.array([[1.0], [0.0]]), np.array([[0.0]]), m_sqrt)
        assert np.allclose(s, 0.0, atol=1e-12)
        assert np.allclose(r, 0.0, atol=1e-12)
        assert rbar2 < 1e-12


class TestScalars:
    def test_rbar3(self, gains5):
        assert rbar3_of(gains5.M_sqrt, np.zeros((2, 1))) == 0.0
        assert rbar3_of(gains5.M_sqrt, gains5.S) == pytest.approx(np.sqrt(4.2262), abs=1e-9)
        assert rbar3_of(np.eye(2), [[0.0], [1.0]]) == pytest.approx(1.0)

    def test_input_bound_study(self, env5):
        lam_min = nx.sym_eig(M5).values[0]
        b = input_bound(K5, np.zeros((1, 1)), np.zeros((1, 1)), lam_min, EPS5, env5)
        k_norm = np.sqrt(1.3298**2 + 1.4108**2)
        assert b == pytest.approx(k_norm * 0.5 / np.sqrt(lam_min), abs=1e-12)
        assert 0.5685 <= b <= 0.5695  # quoted bound 0.5690
        assert b <= 0.57  # inside the study's input ball

    def test_input_bound_zero_gains(self, env5):
        b = input_bound(np.zeros((1, 2)), np.zeros((1, 1)), np.zeros((1, 1)), 1.0, EPS5, env5)
        assert b == 0.0

    def test_input_bound_linear_in_epsilon(self, env5):
        lam_min = nx.sym_eig(M5).values[0]
        zero = np.zeros((1, 1))
        b1 = input_bound(K5, zero, zero, lam_min, EPS5, env5)
        b2 = input_bound(K5, zero, zero, lam_min, 2 * EPS5, env5)
        assert b2 == pytest.approx(2 * b1, rel=1e-12)

    def test_feasibility_study_numbers(self):
        env = OperatingEnvelope(xhat_max=41.0, uhat_max=0.05, uhatdot_max=0.0486)
        rbar3 = np.sqrt(4.2262)
        rmax, margin, ok = feasibility(0.0, 0.0, rbar3, env, A1_5, EPS5)
        assert rmax == pytest.approx(rbar3 * 0.0486, rel=1e-12)
        assert 0.0995 <= rmax <= 0.1003
        assert 2 * rmax / A1_5 == pytest.approx(0.39964, abs=1e-4)
        assert ok and margin == pytest.approx(EPS5 - 2 * rmax / A1_5)

    def test_feasibility_zero_budget(self, env5):
        rmax, margin, ok = feasibility(0.0, 0.0, 0.0, env5, A1_5, EPS5)
        assert rmax == 0.0 and ok and margin == EPS5

    def test_feasibility_fails_on_loose_rate_bound(self):
        env = OperatingEnvelope(xhat_max=41.0, uhat_max=0.05, uhatdot_max=0.07)
        rmax, _, ok = feasibility(0.0, 0.0, np.sqrt(4.2262), env, A1_5, EPS5)
        assert 2 * rmax / A1_5 == pytest.approx(0.5756, abs=1e-3)
        assert not ok


class TestRefinementGains:
    @pytest.mark.parametrize("name, value", [
        ("a1", 0.0), ("epsilon", -0.5), ("epsilon", math.inf),
        ("rbar1", math.nan), ("rbar2", math.inf), ("rbar3", -1e-3), ("input_bound", -math.inf),
    ])
    def test_bad_scalar_refused(self, gains5, name, value):
        # a NaN rbar1 used to be accepted, and to make the decay check vacuous
        with pytest.raises(ValueError, match=rf"^gains\.{name} must be finite and >=? 0, got "):
            dataclasses.replace(gains5, **{name: value})

    def test_zero_budget_terms_accepted(self, gains5):
        bundle = dataclasses.replace(gains5, rbar1=0, rbar2=0.0, rbar3=0.0, input_bound=0.0)
        assert bundle.rbar1 == 0.0 and isinstance(bundle.rbar1, float)

    @staticmethod
    def stated_weight(M):
        """(M^{1/2}, lambda_min(M)) as gains.json stated them: the symmetric
        PSD root of M's eigendecomposition and its least eigenvalue."""
        values, vectors = nx.sym_eig(M, "M")
        root = vectors @ np.diag(np.sqrt(np.clip(values, 0.0, None))) @ vectors.T
        return 0.5 * (root + root.T), values[0]

    def test_weight_is_derived_from_M_alone(self, sys5, env5, gains5):
        rng = np.random.default_rng(8)
        names = {f.name for f in dataclasses.fields(synthesis.RefinementGains)}
        assert not {"M_sqrt", "lambda_min_M"} & (names | set(gains5.to_dict()))
        concrete, abstract = sys5
        weights = [M5, None] + [a @ a.T + np.eye(2) for a in rng.standard_normal((10, 2, 2))]
        for M in weights:
            gains = synthesize_gains(concrete, abstract, K5, A1_5, EPS5, env5, M=M)
            root, lam = self.stated_weight(gains.M)
            for bundle in (gains, synthesis.RefinementGains.from_dict(gains.to_dict())):
                assert bundle.M_sqrt.tobytes() == root.tobytes()
                assert bundle.lambda_min_M == lam
            scaled = dataclasses.replace(gains, M=3.0 * gains.M)
            root, lam = self.stated_weight(3.0 * gains.M)
            assert scaled.M_sqrt.tobytes() == root.tobytes() and scaled.lambda_min_M == lam

    def test_one_eigendecomposition_of_M_per_bundle(self, sys5, env5, monkeypatch):
        concrete, abstract = sys5
        calls, sym_eig = [], nx.sym_eig
        monkeypatch.setattr(nx, "sym_eig", lambda a, *args: calls.append(
            np.array_equal(a, M5)) or sym_eig(a, *args))
        gains = synthesize_gains(concrete, abstract, K5, A1_5, EPS5, env5, M=M5)
        assert calls.count(True) == 2  # the couplings' and the bundle's
        calls.clear()
        synthesis.RefinementGains.from_dict(gains.to_dict())
        assert calls == [True]


class TestCheckAssumption:
    def test_study_bundle_all_pass(self, sys5, env5, gains5):
        concrete, abstract = sys5
        report = check_assumption(concrete, abstract, gains5, env5)
        assert report.passed
        names = {r.name for r in report.records}
        assert {
            "CP_equals_Chat",
            "CS_zero",
            "output_weight_dominated",
            "lyapunov_decay",
            "rbar1_consistent",
            "rbar2_consistent",
            "rbar3_consistent",
            "input_bound",
            "feasibility",
            "initial_lift",
        } <= names
        # a bundle's M is positive definite by construction: no record restates it
        assert "M_positive_definite" not in names

    def test_perturbed_s_fails_cs_record(self, sys5, env5, gains5):
        concrete, abstract = sys5
        bad = dataclasses.replace(gains5, S=np.array([[0.1], [1.0]]))
        report = check_assumption(concrete, abstract, bad, env5)
        assert not condition(report, "CS_zero").passed
        assert condition(report, "CS_zero").value == pytest.approx(0.1)

    def test_infeasible_a1_fails_decay_record(self, sys5, env5, gains5):
        concrete, abstract = sys5
        bad = dataclasses.replace(gains5, a1=1.5)
        report = check_assumption(concrete, abstract, bad, env5)
        assert not condition(report, "lyapunov_decay").passed

    @pytest.mark.parametrize("t_start", [-10.0, 0.0])
    def test_initial_lift_uses_the_input_at_time_zero(self, t_start):
        # uhat = 0.5 + 0.05401 t: uhat(-10) = -0.0401 would match the concrete
        # start [40, -0.0401] (vg 0.1989), but a run lifts x0 with uhat(0) = 0.5
        cfg = casestudy.ramp_config(horizon=20.0)
        cfg["policy"]["segments"] = [
            {"t_start": t_start, "t_end": 21.0, "coeffs": [[0.5, 0.05401]]}
        ]
        cfg["envelope"].update(uhat_max=2.0, uhatdot_max=0.06)
        cfg["concrete"]["x0_box"] = [[40.0, 40.0], [-0.0401, -0.0401]]
        del cfg["scenario"]["x0"]
        sc = parse_config(cfg)
        gains = synthesize_gains(
            sc.concrete, sc.abstract, sc.K, sc.a1, sc.epsilon, sc.envelope, M=sc.M
        )
        report = check_assumption(sc.concrete, sc.abstract, gains, sc.envelope, policy=sc.policy)
        lift = condition(report, "initial_lift")
        # the lift [40.1, 0.5] at t = 0, clamped into the point box [40, -0.0401]
        e = np.array([-0.1, -0.5401])
        expected = math.sqrt(e @ M5 @ e)
        assert expected == pytest.approx(1.1832, abs=1e-4)
        assert lift.value == pytest.approx(expected, rel=1e-9)
        assert not lift.passed

    def test_initial_lift_fails_where_an_interior_start_leaves_epsilon(self):
        # the gain switches at the region edge xhat = 10 inside the abstract
        # box, so the lift jumps there: the box's ends lift to vg 0.1128 at
        # most, while a start just below 10 reaches 0.14555 > epsilon = 0.129
        sc, gains = lift_study([[4.69, 12.85], [0.0308, 0.0760]], [[5.67, 12.03]], 0.129)
        lift = condition(check_assumption(
            sc.concrete, sc.abstract, gains, sc.envelope, policy=sc.policy), "initial_lift")
        below = np.nextafter(10.0, 0.0)
        x0, uhat0 = lifted_start(sc.concrete, gains, sc.policy, [below])
        interior = refine.vg(refine.RelationPoint(x0, [below], uhat0), gains)
        assert interior == pytest.approx(0.14555, abs=1e-5)
        assert lift.value >= interior and lift.value == pytest.approx(interior, rel=1e-9)
        assert not lift.passed and lift.detail.endswith("largest on region 3")

    def test_initial_lift_over_a_box_beyond_the_regions_is_a_domain_gap(self):
        sc, gains = lift_study([[0.0, 50.0], [-1.0, 1.0]], [[35.0, 45.0]], 0.5)
        lift = condition(check_assumption(
            sc.concrete, sc.abstract, gains, sc.envelope, policy=sc.policy), "initial_lift")
        assert lift.value == math.inf
        assert lift.detail == "abstract state [42.55] outside all regions"

    @pytest.mark.parametrize("n_r", [1, 2])
    @pytest.mark.parametrize("kind", [None, "open_loop", "switched_feedback"])
    def test_initial_lift_bounds_every_start_of_the_box(self, kind, n_r):
        """On a seeded random bundle and box (`random_lift_case`), which
        straddles the region edges, the record is at least the vg of each of
        10^4 starts, each lifted by `lifted_start` at one point: the box's
        corners, points on the edges and either side of them, and uniform
        points; and it is no vacuous bound."""
        rng = np.random.default_rng([5, n_r, len(kind or "")])
        concrete, abstract, gains, policy, t0 = random_lift_case(rng, kind, n_r)
        box = abstract.initial_state_set
        report = check_assumption(concrete, abstract, gains, OperatingEnvelope(1.0, 1.0, 1.0),
                                  policy=policy, t0=t0)
        lift = condition(report, "initial_lift")
        starts = rng.uniform(box.lows, box.highs, (10_000, n_r))
        corners = np.stack(np.meshgrid(*zip(box.lows, box.highs), indexing="ij"), -1)
        starts[: 2**n_r] = corners.reshape(-1, n_r)
        for j, edge in enumerate([-5e-324, 0.0, 5e-324]):  # on and either side of 0
            for axis in range(n_r):
                starts[100 * (3 * axis + j + 1): 100 * (3 * axis + j + 2), axis] = edge
        lifted = [lifted_start(concrete, gains, policy, xhat, t0) for xhat in starts]
        x0, uhat0 = (np.array(column) for column in zip(*lifted))
        worst = float(np.max(refine.vg(refine.RelationPoint(x0, starts, uhat0), gains)))
        assert lift.value >= worst
        assert lift.value <= 2 * worst if n_r == 2 else lift.value <= 1e-12

    def test_initial_lift_over_a_wide_box_is_polynomial(self):
        # a 64-state plant against a 16-state abstraction whose initial box
        # spans +-0.5 on every axis: 65,536 corners, one affine piece
        sc = parse_config(wide_config(64, 16, 0.5))
        gains = synthesize_gains(sc.concrete, sc.abstract, sc.K, sc.a1, sc.epsilon, sc.envelope)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            report = check_assumption(sc.concrete, sc.abstract, gains, sc.envelope, sc.policy)
            times.append(time.perf_counter() - start)
        lift = condition(report, "initial_lift")
        assert math.isfinite(lift.value) and lift.detail.endswith("largest on segment 0")
        assert min(times) <= 0.1
        # 2^30 corners were never enumerable: the record is still a number
        sc = parse_config(wide_config(30, 30, 0.5))
        gains = synthesize_gains(sc.concrete, sc.abstract, sc.K, sc.a1, sc.epsilon, sc.envelope)
        lift = condition(check_assumption(sc.concrete, sc.abstract, gains, sc.envelope),
                         "initial_lift")
        assert math.isfinite(lift.value) and lift.detail.endswith("largest on the whole box")

    def test_report_json_stable_names(self, sys5, env5, gains5):
        concrete, abstract = sys5
        report = check_assumption(concrete, abstract, gains5, env5)
        payload = report.to_dict()
        assert payload["passed"] is True
        assert all({"name", "value", "tolerance", "passed", "detail"} <= set(r) for r in payload["records"])


def exact_decay_holds(concrete, gains) -> bool:
    """Whether (A+BK)^T M + M (A+BK) + a1 M is negative definite, decided in
    exact rational arithmetic from the float entries of A, B, K, M and a1
    taken exactly: an LDL^T of its negation, whose pivots must all be
    positive."""
    def exact(matrix):
        return [[Fraction(v) for v in row] for row in np.asarray(matrix).tolist()]

    def mul(x, y):
        return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)] for row in x]

    A, B, K, M = (exact(m) for m in (concrete.A, concrete.B, gains.K, gains.M))
    acl = [[a + bk for a, bk in zip(ra, rb)] for ra, rb in zip(A, mul(B, K))]
    lhs = mul([list(col) for col in zip(*acl)], M)
    rhs = mul(M, acl)
    a1 = Fraction(gains.a1)
    neg = [[-(p + q + a1 * m) for p, q, m in zip(*rows)] for rows in zip(lhs, rhs, M)]
    for k in range(len(neg)):
        if neg[k][k] <= 0:
            return False
        for i in range(k + 1, len(neg)):
            f = neg[i][k] / neg[k][k]
            for j in range(k + 1, len(neg)):
                neg[i][j] -= f * neg[k][j]
    return True


class TestDecayRecordAgainstTheExactLmi:
    """Falsifier cases of `lyapunov_decay` on the switched study's A, B, K
    and M: the record must pass only where the exact inequality holds.  The
    largest float a1 where it holds is 0.54215050149730948."""

    @staticmethod
    def decay(a1):
        sc = parse_config(casestudy.switched_config())
        gains = synthesize_gains(sc.concrete, sc.abstract, sc.K, sc.a1, sc.epsilon,
                                 sc.envelope, M=sc.M)
        gains = dataclasses.replace(gains, a1=a1)
        report = check_assumption(sc.concrete, sc.abstract, gains, sc.envelope)
        return condition(report, "lyapunov_decay").passed, exact_decay_holds(sc.concrete, gains)

    @pytest.mark.parametrize("a1", [0.5, 0.54215050149730948])
    def test_passes_where_the_lmi_holds(self, a1):
        assert self.decay(a1) == (True, True)

    def test_fails_well_past_the_boundary(self):
        assert self.decay(0.54215051) == (False, False)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 8: the record compares computed eigenvalues with "
        "1e-9 ||M||, which admits a violated inequality just past the boundary"))
    @pytest.mark.parametrize("a1", [0.5421505015, 0.5421505020, 0.54215050313728674])
    def test_fails_just_past_the_boundary(self, a1):
        assert self.decay(a1) == (False, False)


class TestInvariants:
    def test_decay_record_scaling_invariance(self, sys5, env5, gains5):
        concrete, abstract = sys5
        for c in (0.5, 2.0, 10.0):
            scaled = dataclasses.replace(gains5, M=c * gains5.M)
            report = check_assumption(concrete, abstract, scaled, env5)
            assert condition(report, "lyapunov_decay").passed

    def test_resolve_idempotence(self, sys5, gains5):
        concrete, abstract = sys5
        p, q, _ = solve_PQ(concrete.A, abstract.A, concrete.B, concrete.C, abstract.C, gains5.M_sqrt)
        s, r, _ = solve_SR(concrete.A, concrete.B, concrete.C, p, abstract.B, gains5.M_sqrt)
        assert np.max(np.abs(p - gains5.P)) <= 1e-10
        assert np.max(np.abs(q - gains5.Q)) <= 1e-10
        assert np.max(np.abs(s - gains5.S)) <= 1e-10
        assert np.max(np.abs(r - gains5.R)) <= 1e-10

    def test_monotonicity(self, gains5):
        rng = np.random.default_rng(4)
        for _ in range(50):
            base = OperatingEnvelope(*rng.uniform(0.0, 2.0, size=3))
            bumped = OperatingEnvelope(
                base.xhat_max + rng.uniform(0, 1), base.uhat_max, base.uhatdot_max
            )
            r1, r2, r3 = rng.uniform(0.0, 1.0, size=3)
            rmax_a, margin_a, _ = feasibility(r1, r2, r3, base, A1_5, EPS5)
            rmax_b, _, _ = feasibility(r1, r2, r3, bumped, A1_5, EPS5)
            assert rmax_b >= rmax_a
            _, margin_wide, _ = feasibility(r1, r2, r3, base, A1_5, EPS5 + 0.3)
            assert margin_wide >= margin_a

    def test_input_bound_is_upper_bound(self, sys5, env5, gains5):
        rng = np.random.default_rng(12)
        root = gains5.M_sqrt
        inv_root = np.linalg.inv(root)
        b = gains5.input_bound
        for _ in range(1000):
            xhat = rng.uniform(-1, 1, size=1) * env5.xhat_max
            uhat = rng.uniform(-1, 1, size=1) * env5.uhat_max
            raw = rng.standard_normal(2)
            e = inv_root @ raw
            e *= rng.uniform(0.0, 1.0) * EPS5 / np.sqrt(e @ gains5.M @ e)
            u = gains5.K @ e + gains5.Q @ xhat + gains5.R @ uhat
            assert np.linalg.norm(u) <= b + 1e-9


def test_synthesized_m_end_to_end(sys5, env5):
    # without a user-supplied weight the pipeline must still satisfy every
    # condition at the study decay rate; the Lyapunov-normalized weight has
    # its own scale, so the certified input bound differs from the study's
    # and the input ball is widened accordingly
    concrete, abstract = sys5
    concrete = dataclasses.replace(concrete, input_ball_radius=2.0)
    gains = synthesize_gains(concrete, abstract, K5, A1_5, EPS5, env5)
    report = check_assumption(concrete, abstract, gains, env5)
    failed = [r.name for r in report.records if not r.passed]
    assert report.passed, failed
    assert gains.rbar1 < 1e-9 and gains.rbar2 < 1e-9


@pytest.mark.parametrize("make, failing", [
    (casestudy.switched_config, ["input_bound"]),
    (casestudy.ramp_config, ["input_bound", "feasibility"]),
], ids=["switched", "ramp"])
def test_baseline_bundle_states_its_own_residual(make, failing):
    # S = 0 is not the least-squares (S, R), but the bundle states the
    # residual it leaves; its report fails only on the numbers that fail
    sc = parse_config(make(horizon=20.0))
    gains = synthesize_gains(
        sc.concrete, sc.abstract, sc.K, sc.a1, sc.epsilon, sc.envelope, M=sc.M,
        force_s_zero=True,
    )
    report = check_assumption(sc.concrete, sc.abstract, gains, sc.envelope, policy=sc.policy)
    assert condition(report, "rbar2_consistent").passed
    assert gains.rbar2 > 1.0
    assert [r.name for r in report.records if not r.passed] == failing


def test_equally_good_coupling_with_another_tie_break_passes(sys5, env5):
    # B = [b, b] with K split between the columns: any Q + [t; -t] leaves
    # the same rbar1 = 0, while a re-solve returns the least-norm Q and
    # would flag this bundle by t = 0.01
    concrete, abstract = sys5
    concrete = dataclasses.replace(concrete, B=[[0.0, 0.0], [1.0, 1.0]])
    gains = synthesize_gains(
        concrete, abstract, np.vstack([K5, K5]) / 2, A1_5, EPS5, env5, M=M5
    )
    tied = dataclasses.replace(gains, Q=gains.Q + [[0.01], [-0.01]])
    record = condition(check_assumption(concrete, abstract, tied, env5), "rbar1_consistent")
    assert record.passed and record.value <= 1e-12


@pytest.mark.parametrize("name", ["rbar1", "rbar2"])
def test_stated_residual_below_its_own_fails(sys5, env5, name):
    # rbar1: a Q that leaves ||M^{1/2} B Q|| > 0 against a stated 0;
    # rbar2: the S = 0 bundle's rbar2 (about 1.90) stated as 1.0
    concrete, abstract = sys5
    gains = synthesize_gains(
        concrete, abstract, K5, A1_5, EPS5, env5, M=M5, force_s_zero=name == "rbar2"
    )
    change = {"rbar1": {"Q": [[0.1]]}, "rbar2": {"rbar2": 1.0}}[name]
    bad = dataclasses.replace(gains, **change)
    record = condition(check_assumption(concrete, abstract, bad, env5), f"{name}_consistent")
    assert not record.passed and record.value > 0.1


def test_check_assumption_solves_no_coupling(sys5, env5, gains5, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a coupling was solved again")

    monkeypatch.setattr(synthesis, "_coupling", no_solve)
    monkeypatch.setattr(nx, "constrained_lstsq", no_solve)
    concrete, abstract = sys5
    report = check_assumption(concrete, abstract, gains5, env5)
    assert report.passed
    for name in ("rbar1_consistent", "rbar2_consistent", "rbar3_consistent"):
        assert condition(report, name).value == 0.0


def test_every_record_passes_exactly_at_most_its_tolerance():
    for value, tolerance, passed in (
        (-2.25, 5e-9, True), (5e-9, 5e-9, True), (6e-9, 5e-9, False),
        (math.nan, 1.0, False), (math.inf, 0.0, False),
    ):
        for name in ("output_weight_dominated", "input_bound"):
            assert synthesis.ConditionRecord(name, value, tolerance).passed is passed
