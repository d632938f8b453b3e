"""Acceptance criteria, one test per criterion, each printing a pass/fail
line and enforcing its stated tolerance and runtime budget."""

import math
import time

import numpy as np

from gaasim import casestudy, sim
from gaasim import numerics as nx
from gaasim.model import (
    AbstractInputPolicy,
    AbstractLinearSystem,
    ConcreteLinearSystem,
    OpenLoopSegment,
    OperatingEnvelope,
    parse_config,
)
from gaasim.refine import lift_initial, omega
from gaasim.sim import simulate, verify_trajectory
from gaasim.synthesis import (
    check_assumption,
    feasibility,
    input_bound,
    max_feasible_a1,
    solve_PQ,
    solve_SR,
    synthesize_gains,
)

from conftest import A1_5, EPS5, K5, M5, condition, m_root, point_box

A5 = np.array([[0.0, 1.0], [0.0, 0.0]])
B5 = np.array([[0.0], [1.0]])
C5 = np.array([[1.0, 0.0]])


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


#: wall-clock accounting for the criterion-7 property suites
_SUITE_TIMES: dict[str, float] = {}


def study_scenario(horizon, step=1e-3):
    sc = parse_config(casestudy.switched_config(horizon=horizon, step=step))
    gains = synthesize_gains(
        sc.concrete, sc.abstract, sc.K, sc.a1, sc.epsilon, sc.envelope, M=sc.M
    )
    rmax, _, _ = feasibility(
        gains.rbar1, gains.rbar2, gains.rbar3, sc.envelope, sc.a1, sc.epsilon
    )
    return sc, gains, rmax


def test_criterion_1_assumption_validation(sys5, env5, gains5):
    start = time.perf_counter()
    acl = A5 + B5 @ K5
    decay = acl.T @ M5 + M5 @ acl + A1_5 * M5
    lam_top = nx.sym_eig(0.5 * (decay + decay.T)).values[-1]
    dominated = nx.sym_eig(M5 - C5.T @ C5).values[0]
    concrete, abstract = sys5
    checker = check_assumption(concrete, abstract, gains5, env5)
    elapsed = time.perf_counter() - start
    ok = (
        lam_top <= 1e-9
        and dominated >= -1e-9 * nx.sym_eig(M5).values[-1]
        and condition(checker, "lyapunov_decay").passed
        and condition(checker, "output_weight_dominated").passed
        and elapsed < 1.0
    )
    report(
        "criterion 1 (decay inequality and output-weight domination)",
        ok,
        f"lambda_max={lam_top:.3e}, lambda_min(M - C'C)={dominated:.3e}, "
        f"runtime={elapsed:.3f}s",
    )


def test_criterion_2_structural_synthesis():
    start = time.perf_counter()
    m_sqrt = m_root(M5)
    p, q, rbar1 = solve_PQ(A5, np.zeros((1, 1)), B5, C5, np.array([[1.0]]), m_sqrt)
    s, r, rbar2 = solve_SR(A5, B5, C5, p, np.array([[1.0]]), m_sqrt)
    elapsed = time.perf_counter() - start
    ok = (
        np.allclose(p, [[1.0], [0.0]], atol=1e-9)
        and np.allclose(q, [[0.0]], atol=1e-9)
        and np.allclose(s, [[0.0], [1.0]], atol=1e-9)
        and np.allclose(r, [[0.0]], atol=1e-9)
        and rbar1 < 1e-9
        and rbar2 < 1e-9
        and elapsed < 1.0
    )
    report(
        "criterion 2 (couplings P=[1;0], S=[0;1], Q=R=0)",
        ok,
        f"rbar1={rbar1:.2e}, rbar2={rbar2:.2e}, runtime={elapsed:.3f}s",
    )


def test_criterion_3_input_bound(env5):
    lam_min = nx.sym_eig(M5).values[0]
    b = input_bound(K5, np.zeros((1, 1)), np.zeros((1, 1)), lam_min, EPS5, env5)
    ok = 0.5685 <= b <= 0.5695
    report("criterion 3 (input bound near 0.5690)", ok, f"b={b:.6f}")


def test_criterion_4_feasibility_arithmetic():
    rbar3 = nx.spectral_norm(m_root(M5) @ np.array([[0.0], [1.0]]))
    env = OperatingEnvelope(
        xhat_max=41.0, uhat_max=0.05, uhatdot_max=casestudy.STUDY_UHATDOT_ALLOWANCE
    )
    rmax, margin, feas = feasibility(0.0, 0.0, rbar3, env, A1_5, EPS5)
    ratio = 2.0 * rmax / A1_5
    # the quoted 0.1 figure matches the budget rbar_max, not the rate gain
    # rbar3; both quantities must be distinct and reported
    ok = (
        0.0995 <= rmax <= 0.1003
        and 0.398 <= ratio <= 0.401
        and ratio <= EPS5
        and feas
        and abs(rbar3 - 2.0558) < 1e-3
    )
    report(
        "criterion 4 (budget ~0.0999 and ratio ~0.3996 at rate allowance 0.0486)",
        ok,
        f"rbar_max={rmax:.6f}, 2 rbar_max/a1={ratio:.6f}, rbar3={rbar3:.5f}",
    )


def test_criterion_5_switched_feedback_run():
    start = time.perf_counter()
    sc, gains, rmax = study_scenario(horizon=1000.0, step=1e-3)
    rec = simulate(
        sc.concrete, sc.abstract, gains, sc.policy, sc.x0, sc.xhat0,
        horizon=sc.horizon, h=sc.step, rbar_max=rmax,
    )
    verdict = verify_trajectory(rec, gains, EPS5, sc.envelope, sc.b_U, rmax)
    elapsed = time.perf_counter() - start
    ok = (
        verdict.max_output_error <= 0.5
        and verdict.max_vg <= 0.5
        and verdict.jumps_total >= 3
        and verdict.to_dict()["jumps_ok"]
        and elapsed < 30.0
    )
    report(
        "criterion 5 (switched run: outputs within 0.5, all jumps admissible)",
        ok,
        f"max_err={verdict.max_output_error:.4f}, max_vg={verdict.max_vg:.4f}, "
        f"jumps={verdict.jumps_passed}/{verdict.jumps_total}, runtime={elapsed:.1f}s",
    )


def test_criterion_6_baseline_comparison():
    start = time.perf_counter()
    sc = parse_config(casestudy.ramp_config(horizon=200.0, step=1e-3))
    errs = {}
    for label, force in (("gaas", False), ("s_zero", True)):
        gains = synthesize_gains(
            sc.concrete, sc.abstract, sc.K, sc.a1, sc.epsilon, sc.envelope,
            M=sc.M, force_s_zero=force,
        )
        rec = simulate(
            sc.concrete, sc.abstract, gains, sc.policy, sc.x0, sc.xhat0,
            horizon=sc.horizon, h=sc.step,
        )
        errs[label] = float(np.max(rec.err))
    elapsed = time.perf_counter() - start
    ok = errs["gaas"] <= 0.5 and errs["s_zero"] > 0.5 and elapsed < 30.0
    report(
        "criterion 6 (full interface within 0.5, S=0 baseline exceeds it)",
        ok,
        f"gaas={errs['gaas']:.4f}, s_zero={errs['s_zero']:.4f}, runtime={elapsed:.1f}s",
    )


# --- criterion 7: property suites ------------------------------------------


def test_criterion_7a_output_closeness(sys5, gains5):
    t_start = time.perf_counter()
    concrete, abstract = sys5
    rng = np.random.default_rng(100)
    count = 10_000
    inv_root = np.linalg.inv(gains5.M_sqrt)
    e = rng.standard_normal((count, 2)) @ inv_root.T
    norms = np.sqrt(np.einsum("ij,jk,ik->i", e, gains5.M, e))
    e *= (EPS5 * rng.uniform(0.0, 1.0, size=count) / norms)[:, None]
    xhat = rng.uniform(-41, 41, size=(count, 1))
    uhat = rng.uniform(-0.05, 0.05, size=(count, 1))
    x = xhat @ gains5.P.T + uhat @ gains5.S.T + e
    vgs = np.sqrt(np.einsum("ij,jk,ik->i", e, gains5.M, e))
    errs = np.linalg.norm(x @ concrete.C.T - xhat @ abstract.C.T, axis=1)
    worst = float(np.max(errs - EPS5))
    ok = bool(np.all(vgs <= EPS5 + 1e-12) and np.all(errs <= EPS5 + 1e-9))
    _SUITE_TIMES["7a"] = time.perf_counter() - t_start
    report(
        "criterion 7a (output closeness on 10^4 relation points)",
        ok,
        f"max(err - eps)={worst:.2e}",
    )


def _random_feasible_scenario(rng):
    """Random stable closed loop, 1-state abstraction, gentle two-segment
    cubic policy with a small declared value jump at mid-horizon."""
    n = int(rng.integers(2, 4))
    while True:
        b_mat = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        if abs(np.linalg.det(b_mat)) > 0.2:
            break
    a_mat = rng.standard_normal((n, n))
    target = rng.standard_normal((n, n))
    target -= (nx.real_spectral_abscissa(target) + rng.uniform(0.7, 1.3)) * np.eye(n)
    k_mat = np.linalg.solve(b_mat, target - a_mat)
    c_mat = rng.standard_normal((1, n))
    c_mat /= np.linalg.norm(c_mat)

    concrete = ConcreteLinearSystem(
        A=a_mat, B=b_mat, C=c_mat, input_ball_radius=1e6,
        initial_state_set=point_box(np.zeros(n)),
    )
    abstract = AbstractLinearSystem(
        A=[[-float(rng.uniform(0.0, 0.4))]],
        B=[[1.0]],
        C=[[float(rng.uniform(0.5, 1.5))]],
        initial_state_set=point_box([0.0]),
    )
    a1 = rng.uniform(0.4, 0.7) * max_feasible_a1(a_mat, b_mat, k_mat)
    env_probe = OperatingEnvelope(1.0, 1.0, 1.0)
    gains = synthesize_gains(concrete, abstract, k_mat, a1, EPS5, env_probe)

    horizon = 6.0
    base = rng.uniform(-1.0, 1.0, size=4)
    xhat0 = rng.uniform(-0.5, 0.5, size=1)
    # closed-form suprema: |uhat| and |duhat/dt| from coefficient sums, and
    # ||xhat|| <= |xhat0| + T sup|uhat| since the abstract pole is stable;
    # scale the whole (linear) abstract side so the budget uses 30% of the
    # admissible disturbance level
    powers = horizon ** np.arange(4)
    uhat_sup = float(np.abs(base) @ powers) + 1.0  # +1 covers the jump shift
    uhatdot_sup = float(np.abs(base[1:]) @ (np.arange(1, 4) * powers[:3]))
    xhat_sup = float(abs(xhat0[0])) + horizon * uhat_sup
    rbar_bound = (
        gains.rbar1 * xhat_sup + gains.rbar2 * uhat_sup + gains.rbar3 * uhatdot_sup
    )
    sigma = min(1.0, 0.3 * (a1 * EPS5 / 2.0) / max(rbar_bound, 1e-12))
    base *= sigma
    xhat0 = xhat0 * sigma
    delta = sigma * rng.uniform(-1.0, 1.0)
    shifted = base.copy()
    shifted[0] += delta
    policy = AbstractInputPolicy(
        kind="open_loop",
        segments=(
            OpenLoopSegment(t_start=0.0, t_end=horizon / 2, coeffs=[list(base)]),
            OpenLoopSegment(t_start=horizon / 2, t_end=horizon, coeffs=[list(shifted)]),
        ),
    )
    uhat0 = policy.uhat_at(0.0, xhat0)
    e0 = np.linalg.inv(gains.M_sqrt) @ rng.standard_normal(n)
    e0 *= rng.uniform(0.0, 0.3) * EPS5 / math.sqrt(e0 @ gains.M @ e0)
    x0 = lift_initial(xhat0, uhat0, gains) + e0
    return concrete, abstract, gains, policy, x0, xhat0, horizon


def test_criterion_7b_decay_bound_random_scenarios():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    violations = 0
    infeasible = 0
    for _ in range(100):
        concrete, abstract, gains, policy, x0, xhat0, horizon = (
            _random_feasible_scenario(rng)
        )
        rec = simulate(concrete, abstract, gains, policy, x0, xhat0, horizon, h=2e-3)
        # the envelope is the realized suprema, so the declared budget
        # genuinely bounds the disturbance along the run
        env = OperatingEnvelope(
            xhat_max=float(np.max(np.linalg.norm(rec.xhat, axis=1))) * (1 + 1e-9),
            uhat_max=float(np.max(np.linalg.norm(rec.uhat, axis=1))) * (1 + 1e-9),
            uhatdot_max=float(np.max(np.linalg.norm(rec.uhatdot, axis=1))) * (1 + 1e-9),
        )
        rmax, _, feasible = feasibility(
            gains.rbar1, gains.rbar2, gains.rbar3, env, gains.a1, gains.epsilon
        )
        if not feasible:
            infeasible += 1
            continue
        verdict = verify_trajectory(
            rec, gains, gains.epsilon, env, concrete.input_ball_radius, rmax
        )
        violations += verdict.decay_violations
    elapsed = time.perf_counter() - start
    _SUITE_TIMES["7b"] = elapsed
    ok = violations == 0 and infeasible == 0
    report(
        "criterion 7b (decay bound on 100 random feasible scenarios)",
        ok,
        f"violations={violations}, infeasible_draws={infeasible}, "
        f"runtime={elapsed:.1f}s",
    )


def test_criterion_7c_jump_budget_implies_membership(gains5):
    t_start = time.perf_counter()
    rng = np.random.default_rng(55)
    checked = dict.fromkeys((0.5, 5.0, 50.0), 0)
    worst = -np.inf
    inv_root = np.linalg.inv(gains5.M_sqrt)

    def draw_jump(w, eps, aligned):
        """A jump that moves V by up to 25 % more than the budget (eps - w)^2
        allows, from a pre-jump error with V <= w; the aligned worst case is
        V = w against S delta.  Returns the jump and V just after it."""
        delta = rng.standard_normal(1)
        s_delta = gains5.S @ delta
        reach = rng.uniform(0.0, 1.25) * (eps - w)
        delta *= reach / math.sqrt(s_delta @ gains5.M @ s_delta)
        if aligned:
            e = -w / reach * (gains5.S @ delta)
        else:
            e = inv_root @ rng.standard_normal(2)
            e *= rng.uniform(0.0, 1.0) * w / math.sqrt(e @ gains5.M @ e)
        e_post = e - gains5.S @ delta
        return delta, math.sqrt(e_post @ gains5.M @ e_post)

    for eps in checked:
        draw = 0
        while checked[eps] < 1000:
            draw += 1
            # every other sequence is the worst case at both jumps
            aligned = draw % 2 == 0
            # w1 bounds V just before the first jump: pick tau1 so the
            # envelope from vg0 >= w1 with budget rmax is exactly w1 there
            w1 = rng.uniform(0.0, eps)
            rmax = rng.uniform(0.0, 0.3) * gains5.a1 * w1 / 2.0
            limit = 2.0 * rmax / gains5.a1
            vg0 = rng.uniform(w1, eps)
            frac = (w1 - limit) / (vg0 - limit)
            tau1 = -2.0 / gains5.a1 * math.log(max(frac, 1e-300))
            delta1, vg_post1 = draw_jump(w1, eps, aligned)
            # a second jump later on: V before it is at most the envelope
            # restarted from V just after the first jump; both are judged as
            # one log, so the second from the anchor that the first restarts
            tau2 = tau1 + rng.exponential(2.0 / gains5.a1)
            w2 = omega(tau2 - tau1, vg_post1, gains5.a1, rmax)
            delta2, vg_post2 = draw_jump(w2, eps, aligned)
            first, second = sim._judge_jumps(
                [(tau1, delta1), (tau2, delta2)], (0.0, vg0), gains5, eps, rmax
            )
            if not first.passed:
                # a rejected worst-case jump really leaves the relation
                assert not aligned or vg_post1 > eps - 1e-9
                continue
            assert vg_post1 <= eps + 1e-9
            if not second.passed:
                assert not aligned or vg_post2 > eps - 1e-9
                continue
            worst = max(worst, vg_post1 - eps, vg_post2 - eps)
            assert vg_post2 <= eps + 1e-9
            checked[eps] += 1
    _SUITE_TIMES["7c"] = time.perf_counter() - t_start
    report(
        "criterion 7c (admissible jumps keep post-jump membership, 10^3 "
        "two-jump sequences at each eps in 0.5, 5, 50)",
        all(c == 1000 for c in checked.values()) and worst <= 1e-9,
        f"max(vg_post - eps)={worst:.2e}",
    )


def test_criterion_7d_solver_residuals():
    start = time.perf_counter()
    rng = np.random.default_rng(33)
    worst_ratio = 0.0
    for i in range(1000):
        n = int(rng.integers(1, 6))
        f = rng.standard_normal((n, n))
        f -= (nx.real_spectral_abscissa(f) + 0.5) * np.eye(n)
        w = rng.standard_normal((n, n))
        if i % 2:
            w = -(w @ w.T + np.eye(n))  # a symmetric right-hand side
        x = nx.solve_lyapunov(f, w)
        resid = np.linalg.norm(f @ x + x @ f.T - w)
        bound = 2 * np.linalg.norm(f) * np.linalg.norm(x) + np.linalg.norm(w)
        worst_ratio = max(worst_ratio, resid / bound)
    elapsed = time.perf_counter() - start
    _SUITE_TIMES["7d"] = elapsed
    ok = worst_ratio <= 1e-8
    report(
        "criterion 7d (Lyapunov residuals on 10^3 instances)",
        ok,
        f"worst resid/scale={worst_ratio:.2e}, runtime={elapsed:.1f}s",
    )


def test_criterion_7e_rk4_order():
    t_start = time.perf_counter()
    sc = parse_config(casestudy.ramp_config(horizon=5.0))
    policy = AbstractInputPolicy(
        kind="open_loop",
        segments=(
            OpenLoopSegment(t_start=0.0, t_end=6.0, coeffs=[[0.3, 0.2, -0.05, 0.004]]),
        ),
    )
    gains = synthesize_gains(
        sc.concrete, sc.abstract, sc.K, sc.a1, sc.epsilon, sc.envelope, M=sc.M
    )

    def terminal(h):
        rec = simulate(
            sc.concrete, sc.abstract, gains, policy,
            [40.0, 0.3], [40.1], horizon=5.0, h=h,
        )
        return np.concatenate([rec.x[-1], rec.xhat[-1]])

    ref = terminal(0.05 / 8.0)
    dev_h = np.linalg.norm(terminal(0.05) - ref)
    dev_h2 = np.linalg.norm(terminal(0.025) - ref)
    ratio = dev_h / dev_h2
    ok = 12.0 <= ratio <= 20.0
    _SUITE_TIMES["7e"] = time.perf_counter() - t_start
    report("criterion 7e (RK4 step-halving factor)", ok, f"ratio={ratio:.2f}")


def test_criterion_7_total_runtime_budget():
    total = sum(_SUITE_TIMES.values())
    report(
        "criterion 7 total runtime (property suites 7a-7e)",
        total < 300.0 and len(_SUITE_TIMES) == 5,
        f"total={total:.1f}s over {sorted(_SUITE_TIMES)}",
    )
