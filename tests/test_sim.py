import cProfile
import dataclasses
import hashlib
import io
import math
import sys
import threading
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from gaasim import casestudy, numerics, sim
from gaasim.model import (
    AbstractInputPolicy,
    AbstractLinearSystem,
    Box,
    ConcreteLinearSystem,
    DomainGap,
    FeedbackRegion,
    OpenLoopSegment,
    OperatingEnvelope,
    parse_config,
)
from gaasim.refine import (
    RelationPoint,
    error_vector,
    interface_u,
    jump_admissible,
    lift_initial,
    omega,
    vg,
)
from gaasim.sim import (
    SimulationError,
    eval_policy,
    jumps_csv,
    simulate,
    simulate_calibrated,
    verify_trajectory,
)
from gaasim.synthesis import RefinementGains, feasibility, max_feasible_a1, synthesize_gains

from conftest import (
    EPS5,
    M5,
    assert_formed_by_blocks,
    assert_same_bits,
    csv_text,
    point_box,
    under_row_blocks,
)


def open_loop_config(segments, horizon, **scenario_extra):
    cfg = casestudy.ramp_config(horizon=horizon)
    cfg["policy"]["segments"] = segments
    cfg["scenario"].update(scenario_extra)
    return cfg


@pytest.fixture
def switched5():
    sc = parse_config(casestudy.switched_config(horizon=400.0, step=1e-3))
    gains = synthesize_gains(
        sc.concrete, sc.abstract, sc.K, sc.a1, sc.epsilon, sc.envelope, M=sc.M
    )
    rmax, _, _ = feasibility(
        gains.rbar1, gains.rbar2, gains.rbar3, sc.envelope, sc.a1, sc.epsilon
    )
    return sc, gains, rmax


class TestEvalPolicy:
    def test_ramp_value_and_derivative(self):
        sc = parse_config(casestudy.ramp_config(horizon=200.0))
        uhat, uhatdot, pending = eval_policy(sc.policy, sc.abstract, 10.0, [0.0])
        assert uhat[0] == pytest.approx(0.2)
        assert uhatdot[0] == pytest.approx(0.02)
        assert pending is None

    def test_feedback_chain_rule(self):
        sc = parse_config(casestudy.switched_config())
        uhat, uhatdot, pending = eval_policy(sc.policy, sc.abstract, 0.0, [40.0])
        assert uhat[0] == pytest.approx(-0.04)
        # Ahat = 0, Bhat = 1: duhat/dt = -k uhat = 4e-5
        assert uhatdot[0] == pytest.approx(4e-5)
        assert pending is None

    def test_constant_segment_zero_derivative(self):
        sc = parse_config(casestudy.ramp_config(horizon=200.0))
        _, uhatdot, _ = eval_policy(sc.policy, sc.abstract, 80.0, [0.0])
        assert uhatdot[0] == 0.0

    def test_domain_gap(self):
        sc = parse_config(casestudy.switched_config())
        with pytest.raises(DomainGap):
            eval_policy(sc.policy, sc.abstract, 0.0, [99.0])


def identity_gains(n, epsilon=1.0):
    return RefinementGains(
        M=np.eye(n),
        K=np.zeros((n, n)),
        P=np.eye(n),
        Q=np.zeros((n, n)),
        S=np.zeros((n, n)),
        R=np.eye(n),
        a1=1.0,
        epsilon=epsilon,
        rbar1=0.0,
        rbar2=0.0,
        rbar3=0.0,
        input_bound=1.0,
    )


class TestSimulate:
    def test_zero_dynamics_constant(self):
        concrete = ConcreteLinearSystem(
            A=np.zeros((1, 1)), B=[[1.0]], C=[[1.0]],
            input_ball_radius=1.0, initial_state_set=point_box([0.3]),
        )
        abstract = AbstractLinearSystem(
            A=np.zeros((1, 1)), B=[[1.0]], C=[[1.0]],
            initial_state_set=point_box([0.3]),
        )
        cfg_policy = parse_config(open_loop_config(
            [{"t_start": 0.0, "t_end": 2.0, "coeffs": [[0.0]]}], horizon=1.0))
        rec = simulate(
            concrete, abstract, identity_gains(1), cfg_policy.policy,
            [0.3], [0.3], horizon=1.0, h=0.01,
        )
        assert np.allclose(rec.x, 0.3)
        assert np.allclose(rec.xhat, 0.3)
        assert np.allclose(rec.vg, 0.0)
        assert rec.jumps == []

    def test_exact_lift_self_abstraction_stays_on_relation(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((2, 2)) - 2 * np.eye(2)
        concrete = ConcreteLinearSystem(
            A=a, B=np.eye(2), C=[[1.0, 0.0]],
            input_ball_radius=50.0, initial_state_set=point_box([0.5, -0.2]),
        )
        abstract = AbstractLinearSystem(
            A=a, B=np.eye(2), C=[[1.0, 0.0]],
            initial_state_set=point_box([0.5, -0.2]),
        )
        env = OperatingEnvelope(5.0, 5.0, 5.0)
        # the identity refinement P = I, Q = 0, S = 0, R = I has zero
        # residuals for the self-pair, so the disturbance budget vanishes
        gains = synthesize_gains(
            concrete, abstract, np.zeros((2, 2)), 0.5, 1.0, env, force_s_zero=True
        )
        gains = dataclasses.replace(
            gains, P=np.eye(2), Q=np.zeros((2, 2)), S=np.zeros((2, 2)), R=np.eye(2)
        )
        assert np.linalg.norm(a @ gains.P - gains.P @ a + np.eye(2) @ gains.Q) < 1e-12
        assert gains.rbar3 == 0.0
        policy = AbstractInputPolicy(
            kind="open_loop",
            segments=(
                OpenLoopSegment(
                    t_start=0.0,
                    t_end=4.0,
                    coeffs=[[0.1, 0.05, 0.0, 0.01], [0.2, -0.03, 0.0, 0.0]],
                ),
            ),
        )
        uhat0 = policy.uhat_at(0.0, [0.5, -0.2])
        x0 = lift_initial([0.5, -0.2], uhat0, gains)
        rec = simulate(concrete, abstract, gains, policy, x0, [0.5, -0.2],
                       horizon=3.0, h=1e-3)
        assert np.max(rec.vg) <= 1e-9

    def test_grid_and_breakpoint_insertion(self):
        segments = [
            {"t_start": 0.0, "t_end": 0.985, "coeffs": [[0.0]]},
            {"t_start": 0.985, "t_end": 3.0, "coeffs": [[0.4]]},
        ]
        sc = parse_config(open_loop_config(segments, horizon=2.0))
        gains = synthesize_gains(sc.concrete, sc.abstract, sc.K, sc.a1,
                                 sc.epsilon, sc.envelope, M=sc.M)
        rec = simulate(sc.concrete, sc.abstract, gains, sc.policy,
                       [40.0, 0.0], [40.1], horizon=2.0, h=0.01, rbar_max=0.05)
        assert np.all(np.diff(rec.t) > 0)
        assert np.max(np.diff(rec.t)) <= 0.01 + 1e-12
        assert rec.t[0] == 0.0 and rec.t[-1] == 2.0
        assert np.any(rec.t == 0.985)
        assert len(rec.jumps) == 1
        assert rec.jumps[0].time == pytest.approx(0.985)
        assert rec.jumps[0].delta[0] == pytest.approx(0.4)
        assert rec.jumps[0].time in sc.policy.breakpoints()
        # row at the jump time stores the right limit
        idx = int(np.flatnonzero(rec.t == 0.985)[0])
        assert rec.uhat[idx, 0] == pytest.approx(0.4)

    def test_segment_starting_just_after_its_predecessor_ends_takes_over(self):
        """Segments may abut within 1e-12: the one that starts 5e-13 after
        80 runs from 80 on, and the input jumps there by +0.5."""
        segments = [
            {"t_start": 0.0, "t_end": 40.0, "coeffs": [[0.0]]},
            {"t_start": 40.0, "t_end": 80.0, "coeffs": [[0.5]]},
            {"t_start": 80.0 + 5e-13, "t_end": 121.0, "coeffs": [[1.0]]},
        ]
        sc = parse_config(open_loop_config(segments, horizon=120.0))
        assert sc.policy.regime_index(80.0, sc.xhat0) == 2
        gains = synthesize_gains(sc.concrete, sc.abstract, sc.K, sc.a1,
                                 sc.epsilon, sc.envelope, M=sc.M)
        rec = simulate(sc.concrete, sc.abstract, gains, sc.policy,
                       sc.x0, sc.xhat0, horizon=120.0, h=0.1)
        assert np.all(rec.uhat[rec.t >= 80.0, 0] == 1.0)
        assert [(j.time, float(j.delta[0])) for j in rec.jumps] == [(40.0, 0.5), (80.0, 0.5)]

    def test_continuous_breakpoint_is_not_a_jump(self):
        sc = parse_config(casestudy.ramp_config(horizon=120.0))
        gains = synthesize_gains(sc.concrete, sc.abstract, sc.K, sc.a1,
                                 sc.epsilon, sc.envelope, M=sc.M)
        rec = simulate(sc.concrete, sc.abstract, gains, sc.policy,
                       sc.x0, sc.xhat0, horizon=120.0, h=1e-2)
        assert rec.jumps == []
        assert np.any(rec.t == 50.0)

    def test_switched_jump_log_matches_hand_values(self, switched5):
        sc, gains, rmax = switched5
        rec = simulate(sc.concrete, sc.abstract, gains, sc.policy,
                       sc.x0, sc.xhat0, horizon=400.0, h=1e-3, rbar_max=rmax)
        assert len(rec.jumps) == 1
        jump = rec.jumps[0]
        # crossing of xhat = 30: delta = -(0.0013 - 0.001) * 30
        assert jump.delta[0] == pytest.approx(-0.009, abs=1e-9)
        assert jump.lhs == pytest.approx(0.009**2 * M5[1, 1], rel=1e-7)
        assert jump.passed
        # analytic crossing time: xhat = 40.1 exp(-0.001 t) hits 30
        assert jump.time == pytest.approx(1000.0 * math.log(40.1 / 30.0), abs=0.05)
        # jump time on the grid; uhat there is the right limit
        idx = int(np.flatnonzero(rec.t == jump.time)[0])
        assert rec.uhat[idx, 0] == pytest.approx(-0.0013 * rec.xhat[idx, 0], rel=1e-12)

    def test_jump_consistency_invariant(self, switched5):
        sc, gains, rmax = switched5
        rec = simulate(sc.concrete, sc.abstract, gains, sc.policy,
                       sc.x0, sc.xhat0, horizon=400.0, h=1e-3, rbar_max=rmax)
        jump = rec.jumps[0]
        idx = int(np.flatnonzero(rec.t == jump.time)[0])
        xhat_tau = rec.xhat[idx]
        uhat_pre = -sc.policy.regions[0].gain @ xhat_tau
        uhat_post = rec.uhat[idx]
        assert np.allclose(uhat_post - uhat_pre, jump.delta, atol=1e-12)
        e_pre = rec.x[idx] - gains.P @ xhat_tau - gains.S @ uhat_pre
        e_post = rec.x[idx] - gains.P @ xhat_tau - gains.S @ uhat_post
        assert np.allclose(e_post - e_pre, -gains.S @ jump.delta, atol=1e-12)

    def test_rk4_order_step_halving(self):
        segments = [{"t_start": 0.0, "t_end": 6.0,
                     "coeffs": [[0.3, 0.2, -0.05, 0.004]]}]
        sc = parse_config(open_loop_config(segments, horizon=5.0))
        gains = synthesize_gains(sc.concrete, sc.abstract, sc.K, sc.a1,
                                 sc.epsilon, sc.envelope, M=sc.M)

        def terminal(h):
            rec = simulate(sc.concrete, sc.abstract, gains, sc.policy,
                           [40.0, 0.3], [40.1], horizon=5.0, h=h)
            return np.concatenate([rec.x[-1], rec.xhat[-1]])

        ref = terminal(0.05 / 8)
        dev_h = np.linalg.norm(terminal(0.05) - ref)
        dev_h2 = np.linalg.norm(terminal(0.025) - ref)
        assert 12.0 <= dev_h / dev_h2 <= 20.0

    def test_envelope_restarts_after_each_jump(self):
        # two +0.24 steps 0.1 s apart from a lifted start: each is within the
        # budget of an envelope anchored at t0, yet together they take vg
        # past eps; anchored at the first jump, the second one fails
        segments = [
            {"t_start": 0.0, "t_end": 1.0, "coeffs": [[0.0]]},
            {"t_start": 1.0, "t_end": 1.1, "coeffs": [[0.24]]},
            {"t_start": 1.1, "t_end": 3.0, "coeffs": [[0.48]]},
        ]
        sc = parse_config(open_loop_config(segments, horizon=2.0))
        gains = synthesize_gains(sc.concrete, sc.abstract, sc.K, sc.a1,
                                 sc.epsilon, sc.envelope, M=sc.M)
        x0 = lift_initial(sc.xhat0, [0.0], gains)
        rec = simulate(sc.concrete, sc.abstract, gains, sc.policy, x0, sc.xhat0,
                       horizon=2.0, h=1e-3, rbar_max=0.0)
        assert rec.vg[0] == 0.0 and np.max(rec.vg) > EPS5
        first, second = rec.jumps
        assert first.lhs == pytest.approx(0.24**2 * M5[1, 1], rel=1e-12)
        assert first.lhs <= EPS5**2  # the budget of an envelope anchored at t0
        assert first.rhs == pytest.approx(EPS5**2) and first.passed
        restart = omega(0.1, math.sqrt(first.lhs), gains.a1, 0.0)
        assert second.rhs == pytest.approx((EPS5 - restart) ** 2, rel=1e-12)
        assert not second.passed
        report = verify_trajectory(rec, gains, EPS5, sc.envelope, sc.b_U, 0.0)
        assert (report.jumps_passed, report.jumps_total) == (1, 2)

    @pytest.mark.parametrize("kind", ["switched", "open_loop"])
    def test_judge_jumps_gives_back_the_record_jumps(self, kind):
        """Re-judged from the record's (t[0], vg[0]) at the run's own epsilon
        and rbar_max, the logged jumps are the record's jumps: on the study's
        region crossing, and on two open-loop value jumps, the second judged
        from the anchor that the first restarts."""
        if kind == "switched":
            args, rmax = TestDecaySlack.study("switched")
            gains = args[2]
        else:
            segments = [
                {"t_start": 0.0, "t_end": 1.0, "coeffs": [[0.0]]},
                {"t_start": 1.0, "t_end": 1.1, "coeffs": [[0.1]]},
                {"t_start": 1.1, "t_end": 3.0, "coeffs": [[0.2]]},
            ]
            sc = parse_config(open_loop_config(segments, horizon=2.0))
            gains = synthesize_gains(sc.concrete, sc.abstract, sc.K, sc.a1,
                                     sc.epsilon, sc.envelope, M=sc.M)
            x0 = lift_initial(sc.xhat0, [0.0], gains)
            args = (sc.concrete, sc.abstract, gains, sc.policy, x0, sc.xhat0, 2.0, 1e-3)
            rmax = 1e-3
        eps = 0.9 * gains.epsilon
        rec = simulate(*args, rbar_max=rmax, epsilon=eps)
        log = [(j.time, j.delta) for j in rec.jumps]
        again = sim._judge_jumps(log, (rec.t[0], rec.vg[0]), gains, eps, rmax)
        assert len(rec.jumps) == (1 if kind == "switched" else 2)
        assert [(j.time, j.delta.tobytes(), j.lhs, j.rhs) for j in again] == [
            (j.time, j.delta.tobytes(), j.lhs, j.rhs) for j in rec.jumps]

    def test_jump_record_judges_itself(self):
        # `passed` is no stored field but lhs <= rhs, like a condition record
        assert [f.name for f in dataclasses.fields(sim.JumpRecord)] == [
            "time", "delta", "lhs", "rhs"]
        jump = sim.JumpRecord(1.0, np.array([0.5]), 0.25, 0.25)
        assert jump.passed is True
        jump.lhs = 0.26
        assert jump.passed is False
        assert sim.JumpRecord(1.0, np.array([0.5]), math.nan, 1.0).passed is False

    def test_determinism_bitwise(self, switched5):
        sc, gains, rmax = switched5
        args = (sc.concrete, sc.abstract, gains, sc.policy, sc.x0, sc.xhat0)
        rec1 = simulate(*args, horizon=350.0, h=2e-3, rbar_max=rmax)
        rec2 = simulate(*args, horizon=350.0, h=2e-3, rbar_max=rmax)
        assert csv_text(rec1) == csv_text(rec2)
        assert jumps_csv(rec1) == jumps_csv(rec2)

    def test_membership_warning(self, switched5):
        sc, gains, rmax = switched5
        with pytest.warns(UserWarning, match="outside the relation") as caught:
            rec = simulate(sc.concrete, sc.abstract, gains, sc.policy,
                           [45.0, 0.0], sc.xhat0, horizon=1.0, h=1e-2)
        assert caught[0].filename == __file__  # it points at simulate's caller
        report = verify_trajectory(rec, gains, EPS5, sc.envelope, sc.b_U, rmax)
        assert not report.to_dict()["initial_membership"]

    def test_zeno_guard(self):
        segments = [
            {"t_start": 0.0, "t_end": 0.40, "coeffs": [[0.0]]},
            {"t_start": 0.40, "t_end": 0.45, "coeffs": [[0.2]]},
            {"t_start": 0.45, "t_end": 2.0, "coeffs": [[0.4]]},
        ]
        sc = parse_config(open_loop_config(segments, horizon=1.0))
        gains = synthesize_gains(sc.concrete, sc.abstract, sc.K, sc.a1,
                                 sc.epsilon, sc.envelope, M=sc.M)
        with pytest.raises(SimulationError, match="violate the minimum separation"):
            simulate(sc.concrete, sc.abstract, gains, sc.policy,
                     [40.0, 0.0], [40.1], horizon=1.0, h=0.01)

    def test_divergence_detected(self):
        concrete = ConcreteLinearSystem(
            A=[[40.0]], B=[[1.0]], C=[[1.0]],
            input_ball_radius=1.0, initial_state_set=point_box([1.0]),
        )
        abstract = AbstractLinearSystem(
            A=[[0.0]], B=[[1.0]], C=[[1.0]], initial_state_set=point_box([1.0]),
        )
        # a zero and a cubic drive: both propagate through the augmented map
        for coeffs in ([[0.0]], [[0.1, 0.0, 0.0, 1e-3]]):
            sc = parse_config(open_loop_config(
                [{"t_start": 0.0, "t_end": 60.0, "coeffs": coeffs}], horizon=50.0))
            with pytest.raises(SimulationError, match="non-finite state near t = "):
                simulate(concrete, abstract, identity_gains(1), sc.policy,
                         [1.0], [1.0], horizon=50.0, h=0.5)

    def test_horizon_zero_single_sample(self, switched5):
        sc, gains, rmax = switched5
        rec = simulate(sc.concrete, sc.abstract, gains, sc.policy,
                       sc.x0, sc.xhat0, horizon=0.0, h=1e-3)
        assert rec.t.size == 1
        report = verify_trajectory(rec, gains, EPS5, sc.envelope, sc.b_U, rmax)
        assert report.passed

    @pytest.mark.filterwarnings("ignore:initial triple outside the relation")
    @pytest.mark.parametrize("t0", [10.0, 60.0])  # in the first and the second segment
    def test_horizon_zero_records_the_segment_active_at_t0(self, t0):
        sc = parse_config(casestudy.ramp_config())
        gains = synthesize_gains(sc.concrete, sc.abstract, sc.K, sc.a1,
                                 sc.epsilon, sc.envelope, M=sc.M)
        rec = simulate(sc.concrete, sc.abstract, gains, sc.policy,
                       sc.x0, sc.xhat0, horizon=0.0, h=1e-3, t0=t0)
        uhat0 = sc.policy.uhat_at(t0, sc.xhat0)
        assert rec.uhat[0, 0] == uhat0[0]
        assert rec.vg[0] == vg(RelationPoint(sc.x0, sc.xhat0, uhat0), gains)

    @pytest.mark.parametrize("horizon, h, message", [
        (1.0, math.nan, "step h must be positive and finite"),
        (1.0, math.inf, "step h must be positive and finite"),
        (1.0, -math.inf, "step h must be positive and finite"),
        (math.nan, 1e-2, "horizon must be nonnegative"),
    ])
    def test_non_finite_step_or_horizon_refused(self, switched5, horizon, h, message):
        sc, gains, _ = switched5
        for run in (simulate, simulate_calibrated):
            with pytest.raises(ValueError, match=message):
                run(sc.concrete, sc.abstract, gains, sc.policy,
                    sc.x0, sc.xhat0, horizon=horizon, h=h)


class TestVerify:
    def test_injected_vg_violation_located(self, switched5):
        sc, gains, rmax = switched5
        rec = simulate(sc.concrete, sc.abstract, gains, sc.policy,
                       sc.x0, sc.xhat0, horizon=2.0, h=1e-2, rbar_max=rmax)
        rec.vg = rec.vg.copy()
        rec.vg[50] = EPS5 + 0.01
        report = verify_trajectory(rec, gains, EPS5, sc.envelope, sc.b_U, rmax)
        assert not report.passed
        assert not report.to_dict()["vg_ok"]
        assert report.max_vg == pytest.approx(EPS5 + 0.01)

    def test_decay_calibration_and_pass(self, switched5):
        sc, gains, rmax = switched5
        rec = simulate_calibrated(sc.concrete, sc.abstract, gains, sc.policy,
                                  sc.x0, sc.xhat0, horizon=320.0, h=5e-3,
                                  rbar_max=rmax)
        report = verify_trajectory(rec, gains, EPS5, sc.envelope, sc.b_U, rmax)
        assert report.decay_violations == 0
        assert report.passed
        assert rec.decay_slack >= 1e-12

    def test_envelope_violation_reported(self, switched5):
        sc, gains, rmax = switched5
        tight = OperatingEnvelope(xhat_max=39.0, uhat_max=0.05, uhatdot_max=2e-4)
        rec = simulate(sc.concrete, sc.abstract, gains, sc.policy,
                       sc.x0, sc.xhat0, horizon=1.0, h=1e-2, rbar_max=rmax)
        report = verify_trajectory(rec, gains, EPS5, tight, sc.b_U, rmax)
        assert not report.to_dict()["envelope_ok"]
        assert report.envelope_violations[0]["bound"] == "xhat_max"

    @pytest.mark.parametrize("check, figure", [
        ("vg_ok", "max_vg"), ("output_error_ok", "max_output_error"),
    ])
    def test_sampled_maximum_within_the_slack_of_epsilon_fails(
        self, switched5, check, figure
    ):
        """A sampled maximum less than `decay_slack` below epsilon proves
        nothing about the exact flow, so the check adds the slack to it; the
        report keeps the sampled maximum."""
        sc, gains, rmax = switched5
        rec = simulate(sc.concrete, sc.abstract, gains, sc.policy,
                       sc.x0, sc.xhat0, horizon=2.0, h=1e-2, rbar_max=rmax)
        slack = rec.decay_slack
        raw = getattr(verify_trajectory(rec, gains, EPS5, sc.envelope, sc.b_U, rmax), figure)
        assert 0 < slack and raw < raw + slack / 2
        for eps, holds in ((raw + 2 * slack, True), (raw + slack / 2, False)):
            report = verify_trajectory(rec, gains, eps, sc.envelope, sc.b_U, rmax)
            assert getattr(report, figure) == raw
            assert report.to_dict()[check] is holds
        assert not report.passed


def test_output_columns_recompute(switched5):
    sc, gains, rmax = switched5
    rec = simulate(sc.concrete, sc.abstract, gains, sc.policy,
                   sc.x0, sc.xhat0, horizon=5.0, h=1e-2)
    assert np.max(np.abs(rec.y - rec.x @ sc.concrete.C.T)) <= 1e-12
    assert np.max(np.abs(rec.yhat - rec.xhat @ sc.abstract.C.T)) <= 1e-12
    assert np.max(np.abs(rec.err - np.linalg.norm(rec.y - rec.yhat, axis=1))) <= 1e-12


class TestCsv:
    def test_trajectory_header(self, switched5):
        sc, gains, rmax = switched5
        rec = simulate(sc.concrete, sc.abstract, gains, sc.policy,
                       sc.x0, sc.xhat0, horizon=0.1, h=1e-2)
        text = csv_text(rec)
        header = text.splitlines()[0]
        assert header == "t,x1,x2,xhat1,uhat1,uhatdot1,u1,y1,yhat1,vg,err"
        assert len(text.splitlines()) == rec.t.size + 1

    def test_jumps_header(self, switched5):
        sc, gains, rmax = switched5
        rec = simulate(sc.concrete, sc.abstract, gains, sc.policy,
                       sc.x0, sc.xhat0, horizon=0.1, h=1e-2)
        assert jumps_csv(rec).splitlines()[0] == "tau,delta1,lhs,rhs,pass"

    def test_15_significant_digits(self, switched5):
        sc, gains, rmax = switched5
        rec = simulate(sc.concrete, sc.abstract, gains, sc.policy,
                       sc.x0, sc.xhat0, horizon=0.01, h=1e-3)
        row = csv_text(rec).splitlines()[2]
        value = row.split(",")[2]  # x2 entry, irrational-ish
        assert len(value.replace("-", "").replace(".", "").lstrip("0")) >= 15
        assert float(value) == pytest.approx(rec.x[1, 1], rel=1e-14)


def rowwise_trajectory_csv(record) -> str:
    """The former row-wise writer: the reference for `write_trajectory_csv`."""
    n, n_r = record.x.shape[1], record.xhat.shape[1]
    m_r, m, p = record.uhat.shape[1], record.u.shape[1], record.y.shape[1]
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
    table = np.column_stack([
        record.t, record.x, record.xhat, record.uhat, record.uhatdot,
        record.u, record.y, record.yhat, record.vg, record.err,
    ])
    row_fmt = ",".join(["%.15g"] * table.shape[1])
    lines = [",".join(header)]
    lines.extend(row_fmt % tuple(row) for row in table)
    return "\n".join(lines) + "\n"


class TestTrajectoryCsvBytes:
    """`write_trajectory_csv` must write exactly the bytes of the row-wise writer."""

    @staticmethod
    def study_record(kind):
        if kind == "switched":
            cfg = casestudy.switched_config(horizon=330.0, step=5e-3)
        else:
            cfg = casestudy.ramp_config(horizon=60.0, step=2e-3)
        sc = parse_config(cfg)
        gains = synthesize_gains(sc.concrete, sc.abstract, sc.K, sc.a1,
                                 sc.epsilon, sc.envelope, M=sc.M)
        x0 = sc.x0
        if x0 is None:
            x0 = lift_initial(sc.xhat0, sc.policy.uhat_at(0.0, sc.xhat0), gains)
        return simulate(sc.concrete, sc.abstract, gains, sc.policy, x0, sc.xhat0,
                        sc.horizon, sc.step)

    @pytest.mark.parametrize("kind", ["switched", "ramp"])
    def test_study_matches_rowwise_reference(self, kind):
        rec = self.study_record(kind)
        if kind == "switched":
            assert rec.t.size > sim._BLOCK_ROWS  # crosses a real block boundary
        assert csv_text(rec) == rowwise_trajectory_csv(rec)

    def test_injected_special_values(self):
        rec = self.study_record("ramp")
        special = np.array([
            0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
            1e15, -1e16, 1e-5, 9.99999999999999e-05, 3.5e-7, -1.234e-300,
            1.7976931348623157e308, 999999999999999.5, np.inf, -np.inf, np.nan,
        ])
        # through the stored state and vg: x1 carries them into y1, u and err
        z = rec.z.copy(order="F")
        z[: special.size, 0] = special
        vg_values = rec.vg.copy()
        vg_values[-special.size :] = special[::-1]
        injected = dataclasses.replace(rec, z=z, vg=vg_values)
        assert np.array_equal(injected.x[: special.size, 0], special, equal_nan=True)
        with warnings.catch_warnings():  # the formed columns overflow, on the writer's threads too
            warnings.simplefilter("ignore", RuntimeWarning)
            text = csv_text(injected)
            assert text == rowwise_trajectory_csv(injected)
        assert text.splitlines()[2].split(",")[1] == "-0"
        assert text.splitlines()[3].split(",")[1] == "4.94065645841247e-324"

    @pytest.mark.parametrize("block", [7, 10, 1])
    def test_rows_crossing_chunk_boundaries(self, monkeypatch, switched5, block):
        sc, gains, _ = switched5
        rec = simulate(sc.concrete, sc.abstract, gains, sc.policy,
                       sc.x0, sc.xhat0, horizon=0.3, h=1e-2)
        assert rec.t.size % 7 != 0
        monkeypatch.setattr(sim, "_BLOCK_ROWS", block)
        assert csv_text(rec) == rowwise_trajectory_csv(rec)


class TestWriteTrajectoryCsv:
    """The streaming writer: row-order bytes from blocks formatted on several
    threads, a bounded window of formatted blocks, and a clean stop when a
    block or the file fails."""

    @pytest.fixture
    def record(self, switched5):
        sc, gains, _ = switched5
        rec = simulate(sc.concrete, sc.abstract, gains, sc.policy,
                       sc.x0, sc.xhat0, horizon=50.0, h=1e-2)
        assert rec.t.size == 5001
        return rec

    @staticmethod
    def empty(record):
        """`record` with no rows: every array it stores cut to length 0."""
        return dataclasses.replace(
            record, t=record.t[:0], z=record.z[:0], vg=record.vg[:0], runs=[]
        )

    @pytest.mark.parametrize("cpus", [1, 4])
    @pytest.mark.parametrize("block", [7, 1000])
    def test_bytes_match_rowwise_reference(self, monkeypatch, record, cpus, block):
        """The bytes and size of the row-wise writer, for the record and for
        the empty record (the header alone), formatted on at most `cpus`
        threads that are all joined at the end."""
        from gaasim import textfmt

        threads = set()
        csv_rows = textfmt.csv_rows

        def recording(table):
            threads.add(threading.get_ident())
            return csv_rows(table)

        monkeypatch.setattr(sim, "_cpus", lambda: cpus)
        monkeypatch.setattr(sim, "_BLOCK_ROWS", block)
        monkeypatch.setattr(textfmt, "csv_rows", recording)
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            for rec in (record, self.empty(record)):
                f = io.BytesIO()
                size = sim.write_trajectory_csv(rec, f)
                expected = rowwise_trajectory_csv(rec).encode()
                assert f.getvalue() == expected
                assert size == len(expected)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before
        assert len(threads) <= cpus

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_formatted_blocks_wait_for_a_slow_file(self, monkeypatch, record, cpus):
        from gaasim import textfmt

        lock = threading.Lock()
        counts = {"formatted": 0, "writes": 0, "peak": 0}
        csv_rows = textfmt.csv_rows

        def recording(table):
            part = csv_rows(table)
            with lock:
                counts["formatted"] += 1
                # the first write is the header
                unwritten = counts["formatted"] - max(counts["writes"] - 1, 0)
                counts["peak"] = max(counts["peak"], unwritten)
            return part

        class SlowFile:
            def write(self, data):
                time.sleep(2e-3)
                with lock:
                    counts["writes"] += 1
                return len(data)

        monkeypatch.setattr(sim, "_cpus", lambda: cpus)
        monkeypatch.setattr(sim, "_BLOCK_ROWS", 100)
        monkeypatch.setattr(textfmt, "csv_rows", recording)
        sim.write_trajectory_csv(record, SlowFile())
        assert counts["writes"] == 1 + 51
        assert counts["formatted"] == 51
        assert 1 <= counts["peak"] <= 2 * cpus

    def test_text_in_flight_does_not_grow_past_four_threads(self, monkeypatch, record):
        """On a 64-CPU host the blocks are formatted on 4 threads, so the
        traced peak above the record is that of a 4-CPU host, not up to 16
        times as much, and the bytes are those of one thread."""

        class SlowHashingFile:  # keeps no text: the peak is the blocks in flight
            def __init__(self):
                self.digest = hashlib.sha256()

            def write(self, data):
                time.sleep(1e-3)  # formatted blocks queue up behind the file
                self.digest.update(data)
                return len(data)

        monkeypatch.setattr(sim, "_BLOCK_ROWS", 100)  # 51 blocks
        peaks, digests = {}, {}
        for cpus in (1, 4, 64):
            monkeypatch.setattr(sim, "_cpus", lambda: cpus)
            f = SlowHashingFile()
            tracemalloc.start()
            try:
                sim.write_trajectory_csv(record, f)
                peaks[cpus] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            digests[cpus] = f.digest.digest()
        assert digests[64] == digests[4] == digests[1]
        assert peaks[64] <= 1.5 * peaks[4], peaks

    def test_write_error_stops_new_blocks(self, monkeypatch, record):
        from gaasim import textfmt

        cpus = 4
        started = []
        csv_rows = textfmt.csv_rows

        def recording(table):
            started.append(table[0, 0])
            return csv_rows(table)

        class FailingFile:
            calls = 0

            def write(self, data):
                self.calls += 1
                if self.calls == 3:
                    raise OSError("disk full")
                return len(data)

        monkeypatch.setattr(sim, "_cpus", lambda: cpus)
        monkeypatch.setattr(sim, "_BLOCK_ROWS", 7)
        monkeypatch.setattr(textfmt, "csv_rows", recording)
        before = threading.active_count()
        with pytest.raises(OSError, match="disk full"):
            sim.write_trajectory_csv(record, FailingFile())
        assert threading.active_count() == before
        # the header and block 0 were written and block 1 failed: only the
        # blocks the window already held were started, of 715
        assert 2 <= len(started) <= 1 + 2 * cpus

    def test_block_error_propagates_after_join(self, monkeypatch, record):
        from gaasim import textfmt

        cpus = 4
        started = []
        csv_rows = textfmt.csv_rows

        def failing(table):
            started.append(table[0, 0])
            if table[0, 0] == record.t[7 * 100]:
                raise ValueError("block 100 failed")
            if table[0, 0] > record.t[7 * 100]:
                time.sleep(0.2)  # keep the pool busy while the error surfaces
            return csv_rows(table)

        monkeypatch.setattr(sim, "_cpus", lambda: cpus)
        monkeypatch.setattr(sim, "_BLOCK_ROWS", 7)
        monkeypatch.setattr(textfmt, "csv_rows", failing)
        before = threading.active_count()
        with pytest.raises(ValueError, match="block 100 failed"):
            csv_text(record)
        assert threading.active_count() == before
        # of 715 blocks, only the window beyond block 100 was submitted, and
        # the blocks queued behind the busy pool were cancelled
        assert len(started) <= 101 + 2 * cpus
        assert len(started) <= 101 + cpus

def plant_config(n: int, kind: str):
    """The study's policy of `kind` over 1000 s at h = 0.005 on the plant
    A = -I, B = e1, C = e1^T of n states with K = 0 and M solved, started
    on the relation."""
    cfg = (casestudy.ramp_config if kind == "open_loop" else casestudy.switched_config)(
        horizon=1000.0, step=0.005)
    eye, start = np.eye(n), [40.1] + [0.0] * (n - 1)
    cfg["concrete"].update(A=(-eye).tolist(), B=eye[:, :1].tolist(), C=eye[:1].tolist(),
                           x0_box=[[v, v] for v in start])
    cfg["scenario"].update(K=[[0.0] * n], x0=start)
    del cfg["scenario"]["M"]
    return parse_config(cfg)


class TestPreflight:
    """Runs are refused before allocation when their arrays exceed memory."""

    def test_counts_the_run_at_h_only(self, monkeypatch, switched5):
        sc, gains, _ = switched5
        args = (sc.concrete, sc.abstract, gains, sc.policy, sc.x0, sc.xhat0, 1.0, 1e-2)
        # 101 rows at h, the largest set is the record's: 101 x (2 + 3)
        # doubles and a block of its formed columns, 101 x (4 + 4 + 4 + 3 +
        # 3 + 4); integrating, 101 x (1 + 3), with no open-loop scratch, and a
        # bound slice of 101 x (3 + 2 x 3 + 8) stay below it; no second run
        # at h/2 is made
        need = 8 * 101 * (5 + 22)
        monkeypatch.setattr(numerics, "physical_memory", lambda: need)
        assert simulate(*args).t.size == 101
        assert simulate_calibrated(*args).t.size == 101
        monkeypatch.setattr(numerics, "physical_memory", lambda: need - 1.0)
        with pytest.raises(numerics.TooLarge, match="^the run needs about .* GiB of arrays, "
                           "more than the .* GiB of physical memory$"):
            simulate(*args)

    def test_refused_before_recorder_allocates(self, monkeypatch, switched5):
        """A run propagates into the rows it keeps; a refused run never
        calls `_propagate`."""
        sc, gains, _ = switched5

        def no_propagation(*a, **k):
            raise AssertionError("nothing may be propagated")

        monkeypatch.setattr(numerics, "physical_memory", lambda: 1e6)
        monkeypatch.setattr(sim, "_propagate", no_propagation)
        with pytest.raises(MemoryError) as info:
            simulate(sc.concrete, sc.abstract, gains, sc.policy, sc.x0, sc.xhat0,
                     horizon=1e9, h=1e-3)
        assert len(str(info.value).splitlines()) == 1

    def test_physical_memory_probe(self):
        assert numerics.physical_memory() > 0

    @pytest.mark.parametrize("kind", ["open_loop", "switched_feedback"])
    @pytest.mark.parametrize("n", [2, 20, 60])
    def test_count_covers_the_traced_peak(self, monkeypatch, n, kind):
        """200,001 rows at h = 0.005: the count is at least the traced peak of
        `simulate`; from n = 20 on, where the peak is well above the record
        alone, a memory between the two, which a count of the record alone
        accepted, refuses the run."""
        sc = plant_config(n, kind)
        gains = synthesize_gains(sc.concrete, sc.abstract, sc.K, sc.a1, sc.epsilon, sc.envelope)
        args = (sc.concrete, sc.abstract, gains, sc.policy, sc.x0, sc.xhat0, sc.horizon, sc.step)
        counted = []
        monkeypatch.setattr(numerics, "require_memory", lambda nbytes, what: counted.append(nbytes))
        tracemalloc.start()
        try:
            rows = simulate(*args).t.size
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows >= 200_001 and counted[0] >= peak
        monkeypatch.undo()
        if n < 20:
            return
        record = 8 * 200_001 * (2 + n + sc.abstract.n_r)  # t, vg and z
        limit = 0.5 * (record + peak)
        assert record < limit < peak
        monkeypatch.setattr(numerics, "physical_memory", lambda: limit)
        with pytest.raises(numerics.TooLarge):
            simulate(*args)


def test_a_span_frees_its_buffer_before_the_next(monkeypatch):
    """The state carried from one span to the next is a copy: when the
    second span starts propagating, the first span's augmented scratch,
    which the open-loop kernel fills, is gone."""
    sc = parse_config(casestudy.ramp_config(horizon=100.0, step=1e-2))
    gains = synthesize_gains(sc.concrete, sc.abstract, sc.K, sc.a1, sc.epsilon, sc.envelope,
                             M=sc.M)
    buffers, alive = [], []
    propagate = sim._propagate

    def tracing(phi, out, stop=None):
        alive.append([ref() is not None for ref in buffers])
        filled = propagate(phi, out, stop)
        buffers.append(weakref.ref(out))
        return filled

    monkeypatch.setattr(sim, "_propagate", tracing)
    simulate(sc.concrete, sc.abstract, gains, sc.policy, sc.x0, sc.xhat0, sc.horizon, sc.step)
    assert alive == [[], [False]]


def test_step_size_invariance_of_verdicts(switched5):
    sc, gains, rmax = switched5
    recs = {}
    for h in (1e-3, 2e-3):
        recs[h] = simulate(sc.concrete, sc.abstract, gains, sc.policy,
                           sc.x0, sc.xhat0, horizon=50.0, h=h, rbar_max=rmax)
    final_1 = np.concatenate([recs[1e-3].x[-1], recs[1e-3].xhat[-1]])
    final_2 = np.concatenate([recs[2e-3].x[-1], recs[2e-3].xhat[-1]])
    assert np.linalg.norm(final_1 - final_2) < 1e-6


def rk4_reference(concrete, abstract, gains, seg, z0, a, b, h):
    """Rows z(a), ..., z(b) of classical RK4 stepped one step at a time,
    stage by stage, on f(t, z) = F z + N uhat(t)."""
    F, N = sim._joint_matrices(concrete, abstract, gains)
    steps = sim._n_steps(a, b, h)
    h_eff = (b - a) / steps

    def f(t, z):
        return F @ z + N @ seg.uhat(t, None)

    z = np.asarray(z0, dtype=float)
    rows = [z]
    for t in a + h_eff * np.arange(steps):
        k1 = f(t, z)
        k2 = f(t + 0.5 * h_eff, z + 0.5 * h_eff * k1)
        k3 = f(t + 0.5 * h_eff, z + 0.5 * h_eff * k2)
        k4 = f(t + h_eff, z + h_eff * k3)
        z = z + (h_eff / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rows.append(z)
    return np.array(rows)


def absolute_coeffs(local, t_start):
    """Ascending coefficients in absolute t of sum_k local[k] (t - t_start)^k."""
    shifted = np.polynomial.Polynomial(local)(np.polynomial.Polynomial([-t_start, 1.0]))
    return np.pad(shifted.coef, (0, len(local) - shifted.coef.size))


class TestOpenLoopKernel:
    """Open-loop segments propagate by doubling an augmented RK4 map; the
    rows must match sequential RK4 stepping."""

    @staticmethod
    def assert_matches_reference(concrete, abstract, gains, seg, x0, xhat0, h):
        rec = simulate(concrete, abstract, gains, AbstractInputPolicy(
            kind="open_loop", segments=(seg,)), x0, xhat0,
            horizon=seg.t_end - seg.t_start, h=h, t0=seg.t_start)
        z = np.hstack([rec.x, rec.xhat])
        ref = rk4_reference(concrete, abstract, gains, seg, z[0],
                            seg.t_start, seg.t_end, h)
        assert z.shape == ref.shape
        assert np.max(np.abs(z - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))

    @pytest.fixture
    def ramp_pair(self):
        sc = parse_config(casestudy.ramp_config(horizon=20.0))
        gains = synthesize_gains(sc.concrete, sc.abstract, sc.K, sc.a1,
                                 sc.epsilon, sc.envelope, M=sc.M)
        return sc, gains

    def test_cubic_segment_late_start(self, ramp_pair):
        sc, gains = ramp_pair
        coeffs = absolute_coeffs([0.1, 0.02, -0.003, 0.0001], 500.0)
        assert abs(coeffs[3] * 500.0**3) > 1e4  # absolute-t form cancels heavily
        seg = OpenLoopSegment(t_start=500.0, t_end=520.0, coeffs=[coeffs])
        x0 = lift_initial([2.0], seg.uhat(500.0, None), gains)
        self.assert_matches_reference(sc.concrete, sc.abstract, gains, seg, x0, [2.0], 1e-3)

    def test_two_channel_cubic_segment(self):
        a = np.array([[-1.5, 0.4], [-0.3, -2.2]])
        concrete = ConcreteLinearSystem(
            A=a, B=np.eye(2), C=[[1.0, 0.0]],
            input_ball_radius=50.0, initial_state_set=point_box([0.5, -0.2]),
        )
        abstract = AbstractLinearSystem(
            A=a, B=np.eye(2), C=[[1.0, 0.0]],
            initial_state_set=point_box([0.5, -0.2]),
        )
        seg = OpenLoopSegment(t_start=1.0, t_end=9.0, coeffs=[
            [0.1, 0.05, -0.02, 0.004], [-0.2, 0.3, 0.01, -0.002]])
        self.assert_matches_reference(concrete, abstract, identity_gains(2, epsilon=10.0),
                                      seg, [0.6, -0.1], [0.5, -0.2], 2e-3)

    def test_constant_segment(self, ramp_pair):
        sc, gains = ramp_pair
        seg = OpenLoopSegment(t_start=0.0, t_end=50.0, coeffs=[[0.3]])
        x0 = lift_initial([40.1], seg.uhat(0.0, None), gains)
        self.assert_matches_reference(sc.concrete, sc.abstract, gains, seg, x0, [40.1], 1e-2)


def assert_same_record(rec, ref):
    """`rec` and `ref` have the same rows, columns and jump log, bit for bit."""
    for name in ("t", "x", "xhat", "uhat", "uhatdot", "u", "y", "yhat", "vg", "err"):
        assert np.array_equal(getattr(rec, name), getattr(ref, name)), name
    assert rec.runs == ref.runs and rec.decay_slack == ref.decay_slack
    assert len(rec.jumps) == len(ref.jumps)
    for j, k in zip(rec.jumps, ref.jumps):
        assert (j.time, j.lhs, j.rhs, j.passed) == (k.time, k.lhs, k.rhs, k.passed)
        assert np.array_equal(j.delta, k.delta)


class TestFeedbackStopsAtRegionExit:
    """Each feedback stretch is propagated only until it leaves its region."""

    @staticmethod
    def scenario():
        """(concrete, abstract, gains, policy, x0, xhat0): an abstract
        oscillator whose xhat1 changes sign every pi / 2 s switches between
        two gains 64 times in 100 s."""
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        k = -a - np.eye(2)
        concrete = ConcreteLinearSystem(
            A=a, B=np.eye(2), C=np.eye(2), input_ball_radius=1e3,
            initial_state_set=Box(-5 * np.ones(2), 5 * np.ones(2)),
        )
        abstract = AbstractLinearSystem(
            A=[[0.0, 2.0], [-2.0, 0.0]], B=np.eye(2), C=np.eye(2),
            initial_state_set=point_box([1.0, 0.0]),
        )
        gains = synthesize_gains(concrete, abstract, k, 0.5 * max_feasible_a1(a, np.eye(2), k),
                                 0.5, OperatingEnvelope(10.0, 10.0, 10.0))
        regions = (
            FeedbackRegion(Box([0.0, -5.0], [5.0, 5.0]), 0.01 * np.eye(2)),
            FeedbackRegion(Box([-5.0, -5.0], [0.0, 5.0]), np.zeros((2, 2))),
        )
        policy = AbstractInputPolicy(kind="switched_feedback", regions=regions)
        xhat0 = np.array([1.0, 0.0])
        x0 = lift_initial(xhat0, -regions[0].gain @ xhat0, gains)
        return concrete, abstract, gains, policy, x0, xhat0

    @classmethod
    def run(cls, monkeypatch, drop_stop: bool):
        computed = []
        propagate = sim._propagate

        def counting(phi, out, stop=None):
            filled = propagate(phi, out, None if drop_stop else stop)
            computed.append(filled)
            return filled

        monkeypatch.setattr(sim, "_propagate", counting)
        rec = simulate(*cls.scenario(), horizon=100.0, h=1e-2)
        return rec, sum(computed)

    def test_rows_computed_within_4x_of_kept(self, monkeypatch):
        rec, computed = self.run(monkeypatch, drop_stop=False)
        assert len(rec.jumps) >= 50
        for j in rec.jumps:  # a located crossing: a row inserted inside a step
            i = int(np.searchsorted(rec.t, j.time))
            assert rec.t[i] == j.time and rec.t[i + 1] - rec.t[i - 1] == pytest.approx(1e-2)
        assert computed <= 4 * rec.t.size

    def test_same_record_as_whole_horizon_propagation(self, monkeypatch):
        rec, _ = self.run(monkeypatch, drop_stop=False)
        ref, computed = self.run(monkeypatch, drop_stop=True)
        assert computed > 4 * ref.t.size
        # propagated into the record a stretch per crossing, the states are
        # still columns
        assert rec.x.flags.f_contiguous and rec.xhat.flags.f_contiguous
        assert_same_record(rec, ref)

    @pytest.mark.parametrize("h", [1e-2, 0.1])
    def test_arrays_grown_past_the_crossing_rows(self, monkeypatch, h):
        """With room for one crossing, the run's 64 crossings grow t and z in
        place (once at h = 0.01, several times at 0.1), and the record has
        the bits of the run that fits its arrays, also under a profiler,
        which holds references to the arrays whose methods it sees called."""
        moves = []
        move = sim._move_coordinates
        monkeypatch.setattr(sim, "_move_coordinates", lambda *a: moves.append(a[2:]) or move(*a))
        rec = simulate(*self.scenario(), horizon=100.0, h=h)
        assert len(rec.jumps) == 64 and moves == []  # 64 crossings: no growth, no trim
        monkeypatch.setattr(sim, "_CROSSING_ROWS", 1)
        grown = cProfile.Profile().runcall(simulate, *self.scenario(), horizon=100.0, h=h)
        growths = len(moves) - 1
        assert growths >= (1 if h < 0.1 else 2)
        assert [old < new for old, new, _ in moves] == [True] * growths + [False]  # then a trim
        assert moves[-1][1] == grown.t.size
        for r in (rec, grown):
            assert r.z.flags.f_contiguous and r.t.flags.c_contiguous
        assert_same_record(grown, rec)

    def test_decay_windows_match_a_per_window_reference(self):
        """`verify_trajectory` finds each decay window by binary search; over
        64 crossings it counts the violations a per-window mask counts."""
        concrete, abstract, gains, policy, x0, xhat0 = self.scenario()
        rec = simulate(concrete, abstract, gains, policy, x0 + [0.05, -0.03], xhat0,
                       horizon=100.0, h=1e-2)
        assert len(rec.jumps) >= 50
        env = OperatingEnvelope(10.0, 10.0, 10.0)
        spiked = rec.vg.copy()
        late = int(np.searchsorted(rec.t, rec.jumps[30].time)) + 7
        spiked[late] += 0.01
        found = []
        for a1, rmax, values in ((gains.a1, 0.0, rec.vg), (4 * gains.a1, 0.0, rec.vg),
                                 (40 * gains.a1, 1e-3, rec.vg), (gains.a1, 0.0, spiked)):
            run = dataclasses.replace(rec, vg=values)
            report = verify_trajectory(run, dataclasses.replace(gains, a1=a1), 0.5, env,
                                       1e3, rmax)
            count, first = 0, None
            for sel in _decay_windows(run):
                ts, vgs = run.t[sel], run.vg[sel]
                bad = np.flatnonzero(vgs > omega(ts - ts[0], vgs[0], a1, rmax) + run.decay_slack)
                count += bad.size
                if bad.size and first is None:
                    first = float(ts[bad[0]])
            assert (report.decay_violations, report.first_decay_violation_time) == (count, first)
            found.append(first)
        assert found[0] is None and found[1] is not None and found[3] == rec.t[late]


class TestRecordLayout:
    """Every record array keeps its (rows, k) shape over a column-major
    store, and its relation columns are `refine`'s one-point values."""

    @staticmethod
    def runs():
        """(concrete, abstract, gains, record) of each run."""
        for kind in ("switched", "ramp", "ramp_s_zero"):
            args, _ = TestDecaySlack.study(kind)
            yield *args[:3], simulate(*args)
        from test_acceptance import _random_feasible_scenario

        concrete, abstract, gains, policy, x0, xhat0, horizon = (
            _random_feasible_scenario(np.random.default_rng(4))
        )
        assert policy.kind == "open_loop" and abstract.n_r == 1 and concrete.n >= 2
        yield concrete, abstract, gains, simulate(
            concrete, abstract, gains, policy, x0, xhat0, horizon, 2e-3
        )

    def test_arrays_are_f_contiguous_rows(self):
        for concrete, abstract, _, rec in self.runs():
            rows = rec.t.size
            widths = {"x": concrete.n, "xhat": abstract.n_r, "uhat": abstract.m_r,
                      "uhatdot": abstract.m_r, "u": concrete.m, "y": concrete.p,
                      "yhat": abstract.p}
            for name in ("t", "vg", "err"):
                assert getattr(rec, name).shape == (rows,), name
            for name, k in widths.items():
                values = getattr(rec, name)
                assert values.shape == (rows, k) and values.flags.f_contiguous, name

    def test_record_stores_its_state_alone(self):
        """The record's own arrays are t, z and vg: (2 + n_z) doubles a row,
        whatever the number of inputs and outputs it forms."""
        for concrete, abstract, _, rec in self.runs():
            stored = [getattr(rec, f.name) for f in dataclasses.fields(rec)]
            nbytes = sum(a.nbytes for a in stored if isinstance(a, np.ndarray))
            assert nbytes == (2 + concrete.n + abstract.n_r) * 8 * rec.t.size
            assert np.shares_memory(rec.x, rec.z) and np.shares_memory(rec.xhat, rec.z)

    def test_relation_columns_are_the_one_point_values(self):
        for _, _, gains, rec in self.runs():
            picks = np.unique(np.r_[np.linspace(0, rec.t.size - 1, 400).astype(int),
                                    rec.t.size - np.arange(1, 6)])
            e = error_vector(RelationPoint(rec.x, rec.xhat, rec.uhat), gains)
            for i in picks:
                point = RelationPoint(rec.x[i], rec.xhat[i], rec.uhat[i])
                assert np.array_equal(error_vector(point, gains), e[i])
                assert vg(point, gains) == rec.vg[i]
                assert np.array_equal(interface_u(point, gains), rec.u[i])


class SpikedPolicy:
    """`policy`, with uhat set to `value` at the rows whose time is one of
    `times`; uhatdot stays the policy's own, and so does every other row."""

    def __init__(self, policy, times, value):
        self.policy, self.times, self.value = policy, times, value
        self.m_r = policy.m_r

    def uhat(self, t, xhat, runs):
        out = self.policy.uhat(t, xhat, runs)
        out[np.isin(t, self.times)] = self.value
        return out

    def uhatdot(self, abstract, t, xhat, uhat, runs):
        return self.policy.uhatdot(abstract, t, xhat, self.policy.uhat(t, xhat, runs), runs)


class TestRowBlocks:
    """`simulate`, `verify_trajectory` and the record's reads form its
    columns a block of rows at a time; 1,000-row blocks give the bits of one
    block over the whole record."""

    @staticmethod
    def crossing_run():
        """The run of `TestFeedbackStopsAtRegionExit`, started off the
        relation: 10,001 steps and a row at each of its 64 region crossings."""
        concrete, abstract, gains, policy, x0, xhat0 = TestFeedbackStopsAtRegionExit.scenario()
        rec = simulate(concrete, abstract, gains, policy, x0 + [0.05, -0.03], xhat0,
                       horizon=100.0, h=1e-2)
        assert rec.t.size == 10_065 and len(rec.jumps) == 64
        return gains, rec

    def test_feedback_run_with_region_crossings(self, monkeypatch):
        env = OperatingEnvelope(10.0, 10.0, 10.0)

        def run():
            gains, rec = self.crossing_run()
            # at 4 a1 the decay envelope is violated in many windows
            fast = dataclasses.replace(gains, a1=4 * gains.a1)
            return rec, verify_trajectory(rec, fast, 0.5, env, 1e3, 0.0)

        blocked, whole = under_row_blocks(monkeypatch, run)
        assert blocked[1].decay_violations > 0
        assert_same_bits(blocked, whole)

    def test_open_loop_run_with_a_jump(self, monkeypatch):
        from test_acceptance import _random_feasible_scenario

        concrete, abstract, gains, policy, x0, xhat0, horizon = (
            _random_feasible_scenario(np.random.default_rng(4))
        )

        def run():
            rec = simulate(concrete, abstract, gains, policy, x0, xhat0, horizon, 2e-4)
            # half the realized suprema: every bound is violated, in many blocks
            env = OperatingEnvelope(*(0.5 * np.max(np.linalg.norm(a, axis=1))
                                      for a in (rec.xhat, rec.uhat, rec.uhatdot)))
            return rec, verify_trajectory(rec, gains, gains.epsilon, env,
                                          concrete.input_ball_radius, 0.0)

        blocked, whole = under_row_blocks(monkeypatch, run)
        rec, report = blocked
        assert rec.t.size == 30_001 and len(rec.jumps) == 1
        assert {v["bound"] for v in report.envelope_violations} == {
            "xhat_max", "uhat_max", "uhatdot_max"
        }
        assert_same_bits(blocked, whole)

    @pytest.mark.parametrize("kind", ["switched", "open_loop"])
    def test_formed_columns_by_blocks(self, monkeypatch, kind):
        """Forming a record's columns over each block's slice of each regime
        run gives the bits of one block over all rows, across the switched
        study's region crossing and the open-loop run's jump, whose C has
        three nonzero entries."""
        if kind == "switched":
            args, _ = TestDecaySlack.study("switched", step=0.05)
            rec = simulate(*args)
            assert len(rec.runs) == 2 and len(rec.jumps) == 1
        else:
            from test_acceptance import _random_feasible_scenario

            concrete, abstract, gains, policy, x0, xhat0, horizon = (
                _random_feasible_scenario(np.random.default_rng(4))
            )
            rec = simulate(concrete, abstract, gains, policy, x0, xhat0, horizon, 2e-3)
            assert np.count_nonzero(concrete.C) == 3 and len(rec.jumps) == 1
        assert_formed_by_blocks(monkeypatch, rec)

    def test_decay_window_across_a_block_boundary(self, monkeypatch):
        gains, rec = self.crossing_run()
        window = next(w for w in _decay_windows(rec) if w[0] // 1000 < w[-1] // 1000)
        k = window[-1] // 1000 * 1000  # the first row of a block, not the window's
        spiked = rec.vg.copy()
        spiked[[k - 1, k]] += 0.01
        run = dataclasses.replace(rec, vg=spiked)
        env = OperatingEnvelope(10.0, 10.0, 10.0)
        blocked, whole = under_row_blocks(
            monkeypatch, lambda: verify_trajectory(run, gains, 0.5, env, 1e3, 0.0)
        )
        assert blocked.to_dict() == whole.to_dict()
        assert (blocked.decay_violations, blocked.first_decay_violation_time) == (2, rec.t[k - 1])

    def test_first_ten_envelope_violations_across_blocks(self, monkeypatch):
        gains, rec = self.crossing_run()
        rows = [3, 999, 1000, 1001, 2999, 3000, 5000, 7001, 8999, 9000, 9999, 10_000]
        run = dataclasses.replace(rec, policy=SpikedPolicy(rec.policy, rec.t[rows], 20.0))
        assert np.all(run.uhat[rows] == 20.0) and np.array_equal(run.uhatdot, rec.uhatdot)
        env = OperatingEnvelope(10.0, 10.0, 10.0)
        blocked, whole = under_row_blocks(
            monkeypatch, lambda: verify_trajectory(run, gains, 0.5, env, 1e3, 0.0)
        )
        assert blocked.to_dict() == whole.to_dict()
        assert blocked.envelope_violation_count == len(rows)
        assert [v["time"] for v in blocked.envelope_violations] == rec.t[rows[:10]].tolist()


class TestRowBlockMemory:
    def test_peaks_above_the_record_do_not_grow_with_the_run(self):
        """Beyond the record itself (t, z and vg), neither `simulate` nor
        `verify_trajectory` holds more memory over 400,002 rows than over
        100,001."""
        args, rmax = TestDecaySlack.study("switched", step=1e-3)
        sc = parse_config(casestudy.switched_config())
        extra = []
        for horizon in (100.0, 400.0):
            tracemalloc.start()
            try:
                rec = simulate(*args[:-2], horizon, args[-1], rbar_max=rmax)
                simulate_peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                verify_trajectory(rec, args[2], sc.epsilon, sc.envelope, sc.b_U, rmax)
                verify_peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            size = rec.t.nbytes + rec.z.nbytes + rec.vg.nbytes
            extra.append((simulate_peak - size, verify_peak - size))
        assert rec.t.size == 400_002
        (simulate_short, verify_short), (simulate_long, verify_long) = extra
        assert simulate_long <= simulate_short + 2**20
        assert verify_long <= verify_short + 2**20


def _decay_windows(rec):
    """Row indices of each decay window: a jump-time row opens its window."""
    edges = [rec.t[0]] + [j.time for j in rec.jumps] + [np.inf]
    return [np.flatnonzero((rec.t >= a) & (rec.t < b)) for a, b in zip(edges, edges[1:])]


class TestDecaySlack:
    """`decay_slack` is a proven bound on the integration error of vg."""

    @staticmethod
    def study(kind, step=5e-3):
        if kind == "switched":
            cfg = casestudy.switched_config(horizon=320.0, step=step)
        else:
            cfg = casestudy.ramp_config(horizon=120.0, step=step)
        sc = parse_config(cfg)
        gains = synthesize_gains(sc.concrete, sc.abstract, sc.K, sc.a1, sc.epsilon,
                                 sc.envelope, M=sc.M, force_s_zero=kind == "ramp_s_zero")
        rmax, _, _ = feasibility(gains.rbar1, gains.rbar2, gains.rbar3,
                                 sc.envelope, sc.a1, sc.epsilon)
        return (sc.concrete, sc.abstract, gains, sc.policy, sc.x0, sc.xhat0,
                sc.horizon, sc.step), rmax

    @staticmethod
    def assert_covers_references(args):
        """Restart each decay window from its first and to its last row on
        the h grid at h/2 and h/16: vg at the shared times differs by at most
        the sum of the two slacks.  A restart from a row the run reached is
        covered, since the bound of a window covers the flow from each of its
        later rows too."""
        concrete, abstract, gains, policy, x0, xhat0, horizon, h = args
        rec = simulate(*args)
        assert 0.0 < rec.decay_slack < 1e-4 * gains.epsilon
        checked = 0
        for sel in _decay_windows(rec):
            steps = (rec.t[sel] - rec.t[0]) / h
            i, j = sel[np.abs(steps - np.round(steps)) < 1e-6][[0, -1]]
            for divisor in (2, 16):
                ref = simulate(concrete, abstract, gains, policy, rec.x[i], rec.xhat[i],
                               rec.t[j] - rec.t[i], h / divisor, t0=rec.t[i])
                _, ia, ib = np.intersect1d(np.round(rec.t[i : j + 1], 9), np.round(ref.t, 9),
                                           return_indices=True)
                assert ia.size == j - i + 1
                dev = np.max(np.abs(rec.vg[i : j + 1][ia] - ref.vg[ib]))
                assert dev <= rec.decay_slack + ref.decay_slack
                checked += ia.size
        return rec, checked

    # at h = 0.05 the RK4 truncation, not rounding, dominates the error
    @pytest.mark.parametrize("kind, step", [
        ("switched", 5e-3), ("ramp", 5e-3), ("ramp_s_zero", 5e-3), ("switched", 0.05),
        ("ramp", 0.05),
    ])
    def test_bound_covers_the_study_references(self, kind, step):
        args, _ = self.study(kind, step)
        rec, checked = self.assert_covers_references(args)
        # the switched run crosses into a second gain region near t = 290
        assert len(_decay_windows(rec)) == (2 if kind == "switched" else 1)
        assert checked > 0.99 * 2 * rec.t.size

    def test_a_vacuous_budget_is_refused(self):
        # one late sample raised to 0.45: within eps, but above the envelope;
        # a NaN or infinite rbar_max used to pass it
        args, rmax = self.study("ramp")
        rec, gains = simulate(*args), args[2]
        rec.vg[-100] = 0.45
        envelope = parse_config(casestudy.ramp_config(horizon=120.0)).envelope
        report = verify_trajectory(rec, gains, EPS5, envelope, 0.57, rmax)
        assert report.decay_violations == 1 and not report.to_dict()["decay_ok"]
        for vacuous in (math.nan, math.inf):
            with pytest.raises(ValueError, match="rbar_max must be finite and nonnegative"):
                verify_trajectory(rec, gains, EPS5, envelope, 0.57, vacuous)

    @pytest.mark.parametrize("step", [2e-3, 0.05])
    def test_bound_covers_random_scenarios(self, step):
        from test_acceptance import _random_feasible_scenario

        rng = np.random.default_rng(5)
        for _ in range(20):
            *args, horizon = _random_feasible_scenario(rng)
            rec, _ = self.assert_covers_references((*args, horizon, step))
            assert len(rec.jumps) == 1

    def test_bound_ignores_rbar_max(self):
        """The rows and `decay_slack` of a run depend on neither epsilon nor
        rbar_max, which only judge its jumps: those differ in rhs alone."""
        args, rmax = self.study("switched")
        assert rmax > 0
        plain = simulate(*args)
        judged = simulate(*args, rbar_max=rmax, epsilon=2.0 * args[2].epsilon)
        for name in ("t", "x", "xhat", "uhat", "uhatdot", "vg"):
            assert getattr(judged, name).tobytes() == getattr(plain, name).tobytes(), name
        assert judged.decay_slack == plain.decay_slack
        assert len(judged.jumps) == len(plain.jumps) >= 1
        for a, b in zip(judged.jumps, plain.jumps):
            assert (a.time, a.delta.tobytes(), a.lhs) == (b.time, b.delta.tobytes(), b.lhs)
            assert a.rhs != b.rhs

    def test_step_far_outside_rk4_stability_gives_a_vacuous_bound(self):
        # one step of 400 s: h |G| is in the hundreds, the bound overflows,
        # and the run still completes, warning-free, with an infinite slack
        args, rmax = self.study("switched")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = simulate(*args[:-2], 400.0, 400.0, rbar_max=rmax)
        assert rec.t[-1] == 400.0 and rec.decay_slack == math.inf

    def test_violation_by_ten_slacks_fails(self):
        args, rmax = self.study("switched")
        rec = simulate(*args, rbar_max=rmax)
        gains, eps = args[2], args[2].epsilon
        env = parse_config(casestudy.switched_config()).envelope
        b_u = args[0].input_ball_radius
        assert verify_trajectory(rec, gains, eps, env, b_u, rmax).to_dict()["decay_ok"]
        window = _decay_windows(rec)[1]
        k = window[len(window) // 2]
        bound = omega(rec.t[k] - rec.t[window[0]], rec.vg[window[0]], gains.a1, rmax)
        rec.vg = rec.vg.copy()
        for raise_by, violations in ((0.5, 0), (10.0, 1)):
            rec.vg[k] = bound + raise_by * rec.decay_slack
            assert rec.vg[k] <= eps
            report = verify_trajectory(rec, gains, eps, env, b_u, rmax)
            assert report.decay_violations == violations
        assert report.first_decay_violation_time == rec.t[k]

    def test_vg0_is_the_anchor_of_the_run(self):
        """The record's `vg[0]` has the bits of the one-point value at the
        start, on which the run anchored its jump envelope."""
        from test_acceptance import _random_feasible_scenario

        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            for _ in range(30):
                concrete, abstract, gains, policy, x0, xhat0, horizon = (
                    _random_feasible_scenario(rng)
                )
                rec = simulate(concrete, abstract, gains, policy, x0, xhat0, horizon, 2e-3)
                anchor = vg(RelationPoint(x0, xhat0, policy.uhat_at(0.0, xhat0)), gains)
                assert rec.vg[0] == anchor
                assert rec.jumps[0].rhs == jump_admissible(
                    rec.jumps[0].delta, rec.jumps[0].time, anchor, gains, gains.epsilon, 0.0
                )[1]
