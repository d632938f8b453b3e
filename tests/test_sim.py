import cProfile
import collections
import dataclasses
import io
import math
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
    FORMED_COLUMNS,
    M5,
    assert_formed_by_blocks,
    assert_same_bits,
    csv_text,
    exact_vg,
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

    def test_divergence_detected(self, monkeypatch):
        """The state overflows at row 79 (t = 39.5) of 1,001: the span stops
        at the doubling stage that holds that row, columns 64..127, so at
        most twice the rows up to it are written."""
        concrete = ConcreteLinearSystem(
            A=[[40.0]], B=[[1.0]], C=[[1.0]],
            input_ball_radius=1.0, initial_state_set=point_box([1.0]),
        )
        abstract = AbstractLinearSystem(
            A=[[0.0]], B=[[1.0]], C=[[1.0]], initial_state_set=point_box([1.0]),
        )
        sentinel, written = -7.25e300, []
        propagate = sim._propagate

        def marked(phi, out, leaves):
            out[:, 1:] = sentinel
            j = propagate(phi, out, leaves)
            written.append(1 + int((out[:, 1:] != sentinel).any(axis=0).sum()))
            return j

        monkeypatch.setattr(sim, "_propagate", marked)
        # a zero and a cubic drive: both propagate through the augmented map
        for coeffs in ([[0.0]], [[0.1, 0.0, 0.0, 1e-3]]):
            sc = parse_config(open_loop_config(
                [{"t_start": 0.0, "t_end": 600.0, "coeffs": coeffs}], horizon=500.0))
            written.clear()
            with pytest.raises(SimulationError, match=r"^non-finite state near t = 39\.5$"):
                simulate(concrete, abstract, identity_gains(1), sc.policy,
                         [1.0], [1.0], horizon=500.0, h=0.5)
            assert len(written) == 1 and written[0] <= 2 * (79 + 1)

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
        with warnings.catch_warnings():  # the formed columns overflow
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
    """The CSV export: row-order bytes from blocks of rows, and a clean stop
    when a block or the file fails."""

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

    @staticmethod
    def recording_formed(monkeypatch, on_call=None) -> list:
        """The first row of each block that `sim._formed` forms, in call
        order, with `on_call(b)` run before each block is formed."""
        started, formed = [], sim._formed

        def recording(record, b, *args):
            started.append(b.start)
            if on_call is not None:
                on_call(b)
            return formed(record, b, *args)

        monkeypatch.setattr(sim, "_formed", recording)
        return started

    @staticmethod
    def plant_record(n: int):
        """5,001 rows of the switched policy on the plant of n states of
        `plant_config`, whose CSV has n columns x1 .. xn."""
        sc = plant_config(n, "switched_feedback")
        gains = synthesize_gains(sc.concrete, sc.abstract, sc.K, sc.a1, sc.epsilon, sc.envelope)
        rec = simulate(sc.concrete, sc.abstract, gains, sc.policy,
                       sc.x0, sc.xhat0, horizon=50.0, h=1e-2)
        assert rec.t.size == 5001 and rec.x.shape[1] == n
        return rec

    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("block", [7, 1000])
    def test_bytes_match_rowwise_reference(self, monkeypatch, block, n):
        """The bytes and size of the row-wise writer, for the record of a
        plant of n states and for its empty record (the header alone)."""
        record = self.plant_record(n)
        monkeypatch.setattr(sim, "_BLOCK_ROWS", block)
        for rec in (record, self.empty(record)):
            f = io.BytesIO()
            size = sim.write_trajectory_csv(rec, f)
            expected = rowwise_trajectory_csv(rec).encode()
            assert f.getvalue() == expected
            assert size == len(expected)

    @pytest.mark.parametrize("n", [1, 4])
    def test_formatted_blocks_wait_for_a_slow_file(self, monkeypatch, n):
        """Each block is written before the next one is formed, so however
        slow the file, one formed block at a time waits for it."""
        record = self.plant_record(n)
        counts = {"formed": 0, "writes": 0, "peak": 0}

        def on_call(b):
            counts["formed"] += 1
            counts["peak"] = max(counts["peak"], counts["formed"] - counts["writes"])

        class SlowFile:
            def write(self, data):
                time.sleep(1e-3)
                counts["writes"] += 1
                return len(data)

        monkeypatch.setattr(sim, "_BLOCK_ROWS", 100)
        started = self.recording_formed(monkeypatch, on_call)
        sim.write_trajectory_csv(record, SlowFile())
        # the header's call forms no rows, then blocks 0 to 50
        assert started == [0, *range(0, 5001, 100)]
        assert counts["writes"] == counts["formed"] == 1 + 51
        assert counts["peak"] == 1

    def test_write_error_stops_new_blocks(self, monkeypatch, record):
        class FailingFile:
            calls = 0

            def write(self, data):
                self.calls += 1
                if self.calls == 3:
                    raise OSError("disk full")
                return len(data)

        monkeypatch.setattr(sim, "_BLOCK_ROWS", 7)
        started = self.recording_formed(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            sim.write_trajectory_csv(record, FailingFile())
        # the header (formed from no rows) and block 0 were written and block
        # 1 failed: no block of the 715 after it was formed
        assert started == [0, 0, 7]

    def test_block_error_propagates(self, monkeypatch, record):
        def fail_at_block_100(b):
            if b.start == 7 * 100:
                raise ValueError("block 100 failed")

        monkeypatch.setattr(sim, "_BLOCK_ROWS", 7)
        started = self.recording_formed(monkeypatch, fail_at_block_100)
        with pytest.raises(ValueError, match="block 100 failed"):
            csv_text(record)
        # the header's call, then blocks 0 to 100 of 715, in row order
        assert started == [0, *range(0, 7 * 101, 7)]


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

        def no_propagation(phi, out, leaves):
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

    def tracing(phi, out, leaves):
        alive.append([ref() is not None for ref in buffers])
        j = propagate(phi, out, leaves)
        buffers.append(weakref.ref(out))
        return j

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
    def run(cls, monkeypatch, whole_horizon: bool):
        """The scenario's record and the rows propagated for it: as
        `simulate` propagates, where the predicate sees each computed row
        once, or with every stretch filled to the horizon and then judged by
        the same predicate as one block."""
        computed = []
        propagate = sim._propagate

        def counting(phi, out, leaves):
            if not whole_horizon:
                return propagate(phi, out, lambda rows: computed.append(len(rows)) or leaves(rows))
            assert propagate(phi, out, lambda rows: -1) == -1
            computed.append(out.shape[1])
            return leaves(out.T)

        monkeypatch.setattr(sim, "_propagate", counting)
        rec = simulate(*cls.scenario(), horizon=100.0, h=1e-2)
        return rec, sum(computed)

    def test_rows_computed_within_4x_of_kept(self, monkeypatch):
        rec, computed = self.run(monkeypatch, whole_horizon=False)
        assert len(rec.jumps) >= 50
        for j in rec.jumps:  # a located crossing: a row inserted inside a step
            i = int(np.searchsorted(rec.t, j.time))
            assert rec.t[i] == j.time and rec.t[i + 1] - rec.t[i - 1] == pytest.approx(1e-2)
        assert computed <= 4 * rec.t.size

    def test_same_record_as_whole_horizon_propagation(self, monkeypatch):
        rec, _ = self.run(monkeypatch, whole_horizon=False)
        ref, computed = self.run(monkeypatch, whole_horizon=True)
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

    @pytest.mark.parametrize("kind", ["switched", "open_loop", "spiked"])
    def test_column_forms_each_block_once(self, monkeypatch, kind):
        """A read of a formed column calls `_formed` once per block, for that
        column alone, and over no empty slice: its width comes from the
        record's systems and policy.  The column has the shape and bits of
        one block over every row, for both policy kinds and for
        `SpikedPolicy`, which has only `m_r`, `uhat` and `uhatdot`."""
        if kind == "open_loop":
            from test_acceptance import _random_feasible_scenario

            concrete, abstract, gains, policy, x0, xhat0, horizon = (
                _random_feasible_scenario(np.random.default_rng(4))
            )
            rec = simulate(concrete, abstract, gains, policy, x0, xhat0, horizon, 2e-3)
        else:
            rec = simulate(*TestDecaySlack.study("switched", step=0.05)[0])
            if kind == "spiked":
                rec = dataclasses.replace(
                    rec, policy=SpikedPolicy(rec.policy, rec.t[[3, 999, 1000, 4000]], 20.0))
        monkeypatch.setattr(sim, "_BLOCK_ROWS", 1000)
        assert rec.t.size > 2 * sim._BLOCK_ROWS
        formed, calls = sim._formed, []
        monkeypatch.setattr(sim, "_formed", lambda record, b, names: (
            calls.append((b.start, b.stop, names)) or formed(record, b, names)))
        names = (*FORMED_COLUMNS, "vg")
        whole = formed(rec, slice(0, rec.t.size), names)
        for name in names:
            calls.clear()
            column = rec._column(name)
            assert calls == [(b.start, b.stop, (name,)) for b in sim._blocks(0, rec.t.size)]
            assert column.shape == whole[name].shape and column.flags.f_contiguous, name
            assert column.tobytes("F") == whole[name].tobytes("F"), name

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
    def study(kind, step=5e-3, horizon=None):
        if kind == "switched":
            cfg = casestudy.switched_config(horizon=horizon or 320.0, step=step)
        else:
            cfg = casestudy.ramp_config(horizon=horizon or 120.0, step=step)
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

    @staticmethod
    def assert_covers_the_exact_flow(rec):
        """vg is within `decay_slack` of `exact_vg` at every row, with room
        for the oracle's own error: its change from s to s + 2 squarings,
        which must be under 1 % of the slack."""
        exact = exact_vg(rec)
        oracle_error = float(np.max(np.abs(exact_vg(rec, extra_squarings=2) - exact)))
        assert oracle_error <= 1e-2 * rec.decay_slack
        assert float(np.max(np.abs(rec.vg - exact))) + oracle_error <= rec.decay_slack

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

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-17,
                        reason="np.longdouble is no wider than float64 here, so the "
                        "exact-flow oracle cannot resolve a float64 run's error")
    @pytest.mark.parametrize("kind, step", [
        *((kind, step) for kind in ("switched", "ramp", "ramp_s_zero") for step in (0.05, 5e-3)),
        ("crossings", 0.1), ("crossings", 0.01), ("crossings", 3e-3), ("crossings_t0", 0.1),
    ])
    def test_bound_covers_the_exact_flow(self, kind, step):
        """Over one 280 s decay window of a study run, 5,601 or 56,001 rows,
        and over the 65 windows of the 64 region crossings, each step split
        at its crossing and both parts read from t, vg is within
        `decay_slack` of vg_exact at every sample, with room for the oracle's
        own error: its change from s to s + 2 squarings, under 1 % of it.
        From t0 = -0.75 the first crossing splits the step from -0.05 to
        0.05, whose first part, a difference of times of two signs, the
        bound takes with its rounding."""
        if kind.startswith("crossings"):
            t0 = -0.75 if kind == "crossings_t0" else 0.0
            rec = simulate(*TestFeedbackStopsAtRegionExit.scenario(), horizon=100.0, h=step,
                           t0=t0)
            assert len(rec.jumps) == 64
            assert t0 == 0.0 or rec.t[7] < 0.0 < rec.t[8] == rec.jumps[0].time
        else:
            args, _ = self.study(kind, step, horizon=280.0)
            rec = simulate(*args)
            assert rec.t.size == round(280.0 / step) + 1 and not rec.jumps
        self.assert_covers_the_exact_flow(rec)

    #: the decay_slack of each run below
    PINNED = {
        "switched": 2.1001823414644133e-08,
        "ramp": 1.1093984314242183e-06,
        "ramp_s_zero": 1.4999470790047986e-07,
        "crossings": 1.1306195873398558e-13,
    }

    @pytest.mark.parametrize("kind", list(PINNED))
    def test_slack_is_pinned(self, kind):
        """`decay_slack` keeps its value to a relative 1e-9 on the studies at
        h = 0.05 (320 s switched, 120 s ramp) and on the 64 region crossings
        at h = 0.003.  The other checks compare a slack only with the same
        code's, so a change to how the bound walks steps, split steps at
        crossings and jumps would show nowhere else."""
        if kind == "crossings":
            rec = simulate(*TestFeedbackStopsAtRegionExit.scenario(), horizon=100.0, h=3e-3)
            assert len(rec.jumps) == 64
        else:
            args, _ = self.study(kind, 0.05)
            rec = simulate(*args)
        assert rec.decay_slack == pytest.approx(self.PINNED[kind], rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("kind", ["switched", "ramp_late_start", "crossings"])
    def test_slack_is_a_function_of_the_record(self, kind):
        """`decay_slack` is recomputed bit for bit from a record rebuilt out of
        copies of the run's t, z, runs and jumps, with its policy, gains and
        systems: the bound reads nothing else of the run.  The runs are the
        switched study at h = 0.05, the ramp study from t0 = 7.25, whose two
        spans meet at the breakpoint at 50, and the 64 region crossings at
        h = 0.003, whose split steps are read from t."""
        if kind == "crossings":
            h = 3e-3
            rec = simulate(*TestFeedbackStopsAtRegionExit.scenario(), horizon=100.0, h=h)
            assert len(rec.jumps) == 64
        elif kind == "switched":
            args, _ = self.study("switched", 0.05, horizon=1000.0)
            rec, h = simulate(*args), args[-1]
            assert len(rec.jumps) >= 2
        else:
            args, _ = self.study("ramp", 0.05)
            concrete, abstract, gains, policy, _, xhat0, horizon, h = args
            x0 = lift_initial(xhat0, policy.uhat_at(7.25, xhat0), gains)
            rec = simulate(concrete, abstract, gains, policy, x0, xhat0, horizon, h, t0=7.25)
            assert rec.t[0] == 7.25 and 50.0 in rec.t
        rebuilt = sim.TrajectoryRecord(
            rec.t.copy(), rec.z.copy(order="F"), None, list(rec.runs), list(rec.jumps), 0.0,
            rec.policy, rec.gains, rec.concrete, rec.abstract)
        slack, v_rounding = sim._error_bound(rebuilt, h)
        assert 0.0 < rec.decay_slack < math.inf
        assert slack + v_rounding * float(np.max(rebuilt._column("vg"))) == rec.decay_slack

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
        """On 20 random feasible draws with one jump each, the bound covers the
        restarted references and the exact flow; the worst (|vg - vg_exact| +
        oracle error) / slack is 0.55 at h = 2e-3 and 0.86 at h = 0.05."""
        from test_acceptance import _random_feasible_scenario

        rng = np.random.default_rng(5)
        for _ in range(20):
            *args, horizon = _random_feasible_scenario(rng)
            rec, _ = self.assert_covers_references((*args, horizon, step))
            assert len(rec.jumps) == 1
            # the exact-flow oracle needs a longdouble wider than float64
            if np.finfo(np.longdouble).eps <= 1e-17:
                self.assert_covers_the_exact_flow(rec)

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


class TestPerRunSetUp:
    """A run builds its set-up once, and the cheaper tests keep the bits
    of the ones they replace."""

    @pytest.mark.parametrize("kind", ["switched", "ramp", "crossings"])
    def test_each_regime_is_built_once_per_run(self, monkeypatch, kind):
        """Each regime of a run, by (index, a, b), is built once: the error
        bound reads the integrator's, and a region entered again at one of
        the 64 crossings is not rebuilt."""
        built = collections.Counter()
        regime = sim._regime

        def counting(policy, F, N, index, a, b, h):
            built[index, a, b] += 1
            return regime(policy, F, N, index, a, b, h)

        monkeypatch.setattr(sim, "_regime", counting)
        if kind == "crossings":
            rec = simulate(*TestFeedbackStopsAtRegionExit.scenario(), horizon=100.0, h=0.1)
            assert len(rec.jumps) == 64 and len(built) == 2
        else:
            rec = simulate(*TestDecaySlack.study(kind, 0.05)[0])
            spans = len(sim._spans(rec.policy, float(rec.t[0]), float(rec.t[-1])))
            assert len(built) >= spans
        assert 0.0 < rec.decay_slack < math.inf
        assert set(built.values()) == {1}, built

    @pytest.mark.parametrize("kind", ["crossings", "open_loop"])
    def test_bound_table_builds_each_key_once(self, monkeypatch, kind):
        """The error bound builds each entry of its per-run table once: the
        error maps by uhat gain, the xhat rates by (gain, step) and the step
        terms by (regime, step).  The 64 crossings at h = 0.1 re-enter their
        2 regions 64 times: one grid-step entry per region, and one per
        distinct step of the sub-steps, each read from t.  The two segments
        of an open-loop run share one error map and, at one step, one rate
        entry."""
        built = {name: collections.Counter() for name in ("maps", "rates", "terms")}

        def counting(name, build, key):
            def wrapper(*args):
                built[name][key(*args)] += 1
                return build(*args)
            return wrapper

        monkeypatch.setattr(sim, "_error_maps", counting(
            "maps", sim._error_maps, lambda gains, nz, gain: None if gain is None else gain.tobytes()))
        monkeypatch.setattr(sim, "_xhat_rates", counting(
            "rates", sim._xhat_rates,
            lambda gains, mu, to_e, gen_z, h: (to_e.tobytes(), gen_z.tobytes(), h)))
        monkeypatch.setattr(sim, "_step_terms", counting(
            "terms", sim._step_terms, lambda r, h, exact, nz: (r.index, h, exact)))
        if kind == "crossings":
            h = 0.1
            rec = simulate(*TestFeedbackStopsAtRegionExit.scenario(), horizon=100.0, h=h)
            assert len(rec.jumps) == 64
            regime_of = np.empty(rec.t.size, dtype=int)
            for start, stop, index in rec.runs:
                regime_of[start:stop] = index
            # each crossing row off the grid splits its step in two
            off = np.flatnonzero(~np.isin(rec.t, h * np.arange(1001)))
            assert off.size == rec.t.size - 1001 > 0
            steps = {(i, h) for i in (0, 1)} | {
                (int(regime_of[k]), float(rec.t[k + 1] - rec.t[k])) for c in off for k in (c - 1, c)}
            assert len(built["maps"]) == 2
            assert {(i, h) for i, h, _ in built["terms"]} == steps
            assert len(built["terms"]) == len(built["rates"]) == len(steps)
        else:
            from test_acceptance import _random_feasible_scenario

            concrete, abstract, gains, policy, x0, xhat0, horizon = (
                _random_feasible_scenario(np.random.default_rng(4))
            )
            rec = simulate(concrete, abstract, gains, policy, x0, xhat0, horizon, 2e-3)
            assert len(policy.segments) == 2 and len(rec.jumps) == 1
            assert list(built["maps"]) == [None] and len(built["rates"]) == 1
            assert len(built["terms"]) == 2
        assert 0.0 < rec.decay_slack < math.inf
        for name, counts in built.items():
            assert set(counts.values()) == {1}, (name, counts)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_row_norms_have_the_bits_of_linalg_norm(self, k):
        """On F-ordered (rows, k) arrays, with zeros of both signs,
        subnormals, squares that overflow or underflow, infinities and NaN."""
        rng = np.random.default_rng(k)
        special = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e-160, -3e-170, 1e154,
                            -2e160, 1e308, np.inf, -np.inf, np.nan, 1.0, -1.5])
        for _ in range(50):
            a = rng.standard_normal((200, k)) * 10.0 ** rng.integers(-200, 200, (200, k))
            mask = rng.random((200, k)) < 0.3
            a[mask] = rng.choice(special, size=int(mask.sum()))
            a = np.asfortranarray(a)
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                assert sim._row_norms(a).tobytes() == np.linalg.norm(a, axis=1).tobytes()

    @pytest.mark.parametrize("where", ["first", "middle", "last", "none"])
    def test_stage_test_finds_the_block_scan_row(self, monkeypatch, where):
        """A segment's stage, tested in one call, stops at the row a block
        by block scan of its z finds, in any block; its tail is not read."""
        monkeypatch.setattr(sim, "_BLOCK_ROWS", 7)
        n, nz, count = 2, 3, 50
        segment = sim._Regime(0, 0.1, count, None, np.ones(2))
        for bad in (np.nan, np.inf, -np.inf):
            w = np.arange(1.0, 1.0 + 5 * count).reshape(5, count)  # (w, count), as propagated
            w[nz:, ::3] = np.nan
            if where != "none":
                row = {"first": 0, "middle": count // 2, "last": count - 1}[where]
                w[row % nz, row] = bad
                w[1, row + 3 :: 5] = bad  # later rows leave too
            rows = w.T
            scan = np.flatnonzero(~np.isfinite(rows[:, :nz]).all(axis=1))
            expected = int(scan[0]) if scan.size else -1
            assert expected == (-1 if where == "none" else row)
            assert sim._first_leaving(segment, rows, n, nz) == expected
