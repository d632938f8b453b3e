import dataclasses
import io
import math
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from gaasim import casestudy, sim
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
    NonFiniteState,
    ZenoViolation,
    eval_policy,
    jumps_csv,
    simulate,
    simulate_calibrated,
    verify_trajectory,
)
from gaasim.synthesis import RefinementGains, feasibility, max_feasible_a1, synthesize_gains

from conftest import EPS5, M5, csv_text, point_box


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
        M_sqrt=np.eye(n),
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
        lambda_min_M=1.0,
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
        uhat0, _, _ = eval_policy(policy, abstract, 0.0, [0.5, -0.2])
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
        assert rec.jumps[0].cause == "segment_boundary"
        # row at the jump time stores the right limit
        idx = int(np.flatnonzero(rec.t == 0.985)[0])
        assert rec.uhat[idx, 0] == pytest.approx(0.4)

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
        assert rec.vg0 == 0.0 and np.max(rec.vg) > EPS5
        first, second = rec.jumps
        assert first.lhs == pytest.approx(0.24**2 * M5[1, 1], rel=1e-12)
        assert first.lhs <= EPS5**2  # the budget of an envelope anchored at t0
        assert first.rhs == pytest.approx(EPS5**2) and first.passed
        restart = omega(0.1, math.sqrt(first.lhs), gains.a1, 0.0)
        assert second.rhs == pytest.approx((EPS5 - restart) ** 2, rel=1e-12)
        assert not second.passed
        report = verify_trajectory(rec, gains, EPS5, sc.envelope, sc.b_U, 0.0)
        assert (report.jumps_passed, report.jumps_total) == (1, 2)

    def test_determinism_bitwise(self, switched5):
        sc, gains, rmax = switched5
        args = (sc.concrete, sc.abstract, gains, sc.policy, sc.x0, sc.xhat0)
        rec1 = simulate(*args, horizon=350.0, h=2e-3, rbar_max=rmax)
        rec2 = simulate(*args, horizon=350.0, h=2e-3, rbar_max=rmax)
        assert csv_text(rec1) == csv_text(rec2)
        assert jumps_csv(rec1) == jumps_csv(rec2)

    def test_membership_warning(self, switched5):
        sc, gains, rmax = switched5
        with pytest.warns(UserWarning, match="outside the relation"):
            rec = simulate(sc.concrete, sc.abstract, gains, sc.policy,
                           [45.0, 0.0], sc.xhat0, horizon=1.0, h=1e-2)
        assert not rec.initial_membership

    def test_zeno_guard(self):
        segments = [
            {"t_start": 0.0, "t_end": 0.40, "coeffs": [[0.0]]},
            {"t_start": 0.40, "t_end": 0.45, "coeffs": [[0.2]]},
            {"t_start": 0.45, "t_end": 2.0, "coeffs": [[0.4]]},
        ]
        sc = parse_config(open_loop_config(segments, horizon=1.0))
        gains = synthesize_gains(sc.concrete, sc.abstract, sc.K, sc.a1,
                                 sc.epsilon, sc.envelope, M=sc.M)
        with pytest.raises(ZenoViolation):
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
            with pytest.raises(NonFiniteState):
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
        assert rec.uhat[0, 0] == sc.policy.uhat_at(t0, sc.xhat0)[0]
        assert rec.vg[0] == rec.vg0

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
        assert not report.vg_ok
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
        assert not report.envelope_ok
        assert report.envelope_violations[0]["bound"] == "xhat_max"


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
            assert rec.t.size > sim._CSV_CHUNK_ROWS  # crosses a real chunk boundary
        assert csv_text(rec) == rowwise_trajectory_csv(rec)

    def test_injected_special_values(self):
        rec = self.study_record("ramp")
        special = np.array([
            0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
            1e15, -1e16, 1e-5, 9.99999999999999e-05, 3.5e-7, -1.234e-300,
            1.7976931348623157e308, 999999999999999.5, np.inf, -np.inf, np.nan,
        ])
        x = rec.x.copy()
        x[: special.size, 0] = special
        err = rec.err.copy()
        err[-special.size :] = special[::-1]
        injected = dataclasses.replace(rec, x=x, err=err)
        text = csv_text(injected)
        assert text == rowwise_trajectory_csv(injected)
        assert text.splitlines()[2].split(",")[1] == "-0"
        assert text.splitlines()[3].split(",")[1] == "4.94065645841247e-324"

    @pytest.mark.parametrize("chunk", [7, 10, 1])
    def test_rows_crossing_chunk_boundaries(self, monkeypatch, switched5, chunk):
        sc, gains, _ = switched5
        rec = simulate(sc.concrete, sc.abstract, gains, sc.policy,
                       sc.x0, sc.xhat0, horizon=0.3, h=1e-2)
        assert rec.t.size % 7 != 0
        monkeypatch.setattr(sim, "_CSV_CHUNK_ROWS", chunk)
        assert csv_text(rec) == rowwise_trajectory_csv(rec)


class TestTrajectoryCsvThreads:
    """Blocks formatted on several threads join to the row-wise bytes."""

    @pytest.fixture
    def record(self, switched5):
        sc, gains, _ = switched5
        rec = simulate(sc.concrete, sc.abstract, gains, sc.policy,
                       sc.x0, sc.xhat0, horizon=50.0, h=1e-2)
        assert rec.t.size == 5001
        return rec

    @pytest.mark.parametrize("cpus", [1, 4])
    @pytest.mark.parametrize("chunk", [7, 1000])
    def test_bytes_match_rowwise_reference(self, monkeypatch, record, cpus, chunk):
        from gaasim import textfmt

        threads = set()
        csv_rows = textfmt.csv_rows

        def recording(table):
            threads.add(threading.get_ident())
            return csv_rows(table)

        monkeypatch.setattr(sim, "_cpus", lambda: cpus)
        monkeypatch.setattr(sim, "_CSV_CHUNK_ROWS", chunk)
        monkeypatch.setattr(textfmt, "csv_rows", recording)
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            text = csv_text(record)
        finally:
            sys.setswitchinterval(interval)
        assert text == rowwise_trajectory_csv(record)
        assert threading.active_count() == before
        assert len(threads) <= cpus

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
        monkeypatch.setattr(sim, "_CSV_CHUNK_ROWS", 7)
        monkeypatch.setattr(textfmt, "csv_rows", failing)
        before = threading.active_count()
        with pytest.raises(ValueError, match="block 100 failed"):
            csv_text(record)
        assert threading.active_count() == before
        # of 715 blocks, only the window beyond block 100 was submitted, and
        # the blocks queued behind the busy pool were cancelled
        assert len(started) <= 101 + 2 * cpus
        assert len(started) <= 101 + cpus

    def test_empty_record_is_the_header(self, record):
        empty = dataclasses.replace(record, **{
            name: getattr(record, name)[:0]
            for name in ("t", "x", "xhat", "uhat", "uhatdot", "u", "y", "yhat", "vg", "err")
        })
        assert csv_text(empty) == rowwise_trajectory_csv(empty)


class TestWriteTrajectoryCsv:
    """The streaming writer: row-order bytes, a bounded window of formatted
    blocks, and a clean stop when the file fails."""

    @pytest.fixture
    def record(self, switched5):
        sc, gains, _ = switched5
        return simulate(sc.concrete, sc.abstract, gains, sc.policy,
                        sc.x0, sc.xhat0, horizon=50.0, h=1e-2)

    @staticmethod
    def empty(record):
        return dataclasses.replace(record, **{
            name: getattr(record, name)[:0]
            for name in ("t", "x", "xhat", "uhat", "uhatdot", "u", "y", "yhat", "vg", "err")
        })

    @pytest.mark.parametrize("cpus", [1, 4])
    @pytest.mark.parametrize("chunk", [7, 1000])
    def test_bytes_match_rowwise_reference(self, monkeypatch, record, cpus, chunk):
        monkeypatch.setattr(sim, "_cpus", lambda: cpus)
        monkeypatch.setattr(sim, "_CSV_CHUNK_ROWS", chunk)
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
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
        monkeypatch.setattr(sim, "_CSV_CHUNK_ROWS", 100)
        monkeypatch.setattr(textfmt, "csv_rows", recording)
        sim.write_trajectory_csv(record, SlowFile())
        assert counts["writes"] == 1 + 51
        assert counts["formatted"] == 51
        assert 1 <= counts["peak"] <= 2 * cpus

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
        monkeypatch.setattr(sim, "_CSV_CHUNK_ROWS", 7)
        monkeypatch.setattr(textfmt, "csv_rows", recording)
        before = threading.active_count()
        with pytest.raises(OSError, match="disk full"):
            sim.write_trajectory_csv(record, FailingFile())
        assert threading.active_count() == before
        # the header and block 0 were written and block 1 failed: only the
        # blocks the window already held were started, of 715
        assert 2 <= len(started) <= 1 + 2 * cpus


class TestPreflight:
    """Runs are refused before allocation when their arrays exceed memory."""

    def test_counts_the_run_at_h_only(self, monkeypatch, switched5):
        sc, gains, _ = switched5
        args = (sc.concrete, sc.abstract, gains, sc.policy, sc.x0, sc.xhat0, 1.0, 1e-2)
        # 12 columns x 8 bytes: 101 rows at h; no second run at h/2 is made
        monkeypatch.setattr(sim, "_physical_memory", lambda: 12 * 8 * 101.0)
        assert simulate(*args).t.size == 101
        assert simulate_calibrated(*args).t.size == 101
        monkeypatch.setattr(sim, "_physical_memory", lambda: 12 * 8 * 100.0)
        with pytest.raises(MemoryError, match="needs about .* GiB of arrays"):
            simulate(*args)

    def test_refused_before_recorder_allocates(self, monkeypatch, switched5):
        sc, gains, _ = switched5

        def no_recorder(*a, **k):
            raise AssertionError("the recorder must not be built")

        monkeypatch.setattr(sim, "_physical_memory", lambda: 1e6)
        monkeypatch.setattr(sim, "_Recorder", no_recorder)
        with pytest.raises(MemoryError) as info:
            simulate(sc.concrete, sc.abstract, gains, sc.policy, sc.x0, sc.xhat0,
                     horizon=1e9, h=1e-3)
        assert len(str(info.value).splitlines()) == 1

    def test_physical_memory_probe(self):
        assert sim._physical_memory() > 0


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
    """Rows z(a), ..., z(b) of classical RK4 stepped one step at a time."""
    F, N = sim._joint_matrices(concrete, abstract, gains)
    steps = sim._n_steps(a, b, h)
    h_eff = (b - a) / steps
    phi, d1, d2, d3 = sim._rk4_affine(F, N, h_eff)
    z = np.asarray(z0, dtype=float)
    rows = [z]
    for t in a + h_eff * np.arange(steps):
        u1, u2, u3 = seg.value(np.array([t, t + 0.5 * h_eff, t + h_eff]))
        z = phi @ z + d1 @ u1 + d2 @ u2 + d3 @ u3
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
        x0 = lift_initial([2.0], seg.value(500.0), gains)
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
        x0 = lift_initial([40.1], seg.value(0.0), gains)
        self.assert_matches_reference(sc.concrete, sc.abstract, gains, seg, x0, [40.1], 1e-2)


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

        def counting(phi, z, count, stop=None):
            rows = propagate(phi, z, count, None if drop_stop else stop)
            computed.append(rows.shape[0])
            return rows

        monkeypatch.setattr(sim, "_propagate", counting)
        rec = simulate(*cls.scenario(), horizon=100.0, h=1e-2)
        return rec, sum(computed)

    def test_rows_computed_within_4x_of_kept(self, monkeypatch):
        rec, computed = self.run(monkeypatch, drop_stop=False)
        assert len(rec.jumps) >= 50
        assert all(j.cause == "region_crossing" for j in rec.jumps)
        assert computed <= 4 * rec.t.size

    def test_same_record_as_whole_horizon_propagation(self, monkeypatch):
        rec, _ = self.run(monkeypatch, drop_stop=False)
        ref, computed = self.run(monkeypatch, drop_stop=True)
        assert computed > 4 * ref.t.size
        for name in ("t", "x", "xhat", "uhat", "uhatdot", "u", "y", "yhat", "vg", "err"):
            assert np.array_equal(getattr(rec, name), getattr(ref, name)), name
        assert len(rec.jumps) == len(ref.jumps)
        for j, k in zip(rec.jumps, ref.jumps):
            assert (j.time, j.cause, j.lhs, j.rhs, j.passed) == (k.time, k.cause, k.lhs, k.rhs, k.passed)
            assert np.array_equal(j.delta, k.delta)

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


class TestRecorderRows:
    def test_views_while_within_capacity(self):
        rec = sim._Recorder(3, 20)
        zs = np.arange(15.0).reshape(5, 3)
        rec.add_block(np.arange(4.0), zs[:4], 0)
        rec.add(4.0, zs[4], 1)
        t, z, regime = rec.rows()
        assert t.size == 5 and z.shape == (5, 3) and regime.size == 5
        assert z.flags.f_contiguous
        assert np.shares_memory(t, rec.t) and np.shares_memory(z, rec.z)
        assert np.array_equal(z, zs) and np.array_equal(regime, [0, 0, 0, 0, 1])

    def test_trimmed_copies_after_growth(self):
        rec = sim._Recorder(2, 16)
        for i in range(50):
            rec.add(float(i), np.array([i, -i]), i % 3)
        t, z, regime = rec.rows()
        assert rec.t.size > 50
        assert not np.shares_memory(t, rec.t) and not np.shares_memory(z, rec.z)
        assert z.shape == (50, 2) and z.flags.f_contiguous
        assert np.array_equal(t, np.arange(50.0))
        assert np.array_equal(z[:, 1], -np.arange(50.0))
        assert np.array_equal(regime, np.arange(50) % 3)


class TestRecordLayout:
    """Every record array keeps its (rows, k) shape over a column-major
    store, and its relation columns are `refine`'s one-point values."""

    @staticmethod
    def runs():
        for kind in ("switched", "ramp", "ramp_s_zero"):
            args, _ = TestDecaySlack.study(kind)
            yield args[2], simulate(*args)
        from test_acceptance import _random_feasible_scenario

        concrete, abstract, gains, policy, x0, xhat0, horizon = (
            _random_feasible_scenario(np.random.default_rng(4))
        )
        assert policy.kind == "open_loop" and abstract.n_r == 1 and concrete.n >= 2
        yield gains, simulate(concrete, abstract, gains, policy, x0, xhat0, horizon, 2e-3)

    def test_arrays_are_f_contiguous_rows(self):
        for gains, rec in self.runs():
            rows = rec.t.size
            widths = {"x": rec.concrete.n, "xhat": rec.abstract.n_r, "uhat": rec.abstract.m_r,
                      "uhatdot": rec.abstract.m_r, "u": rec.concrete.m, "y": rec.concrete.p,
                      "yhat": rec.abstract.p}
            for name in ("t", "vg", "err"):
                assert getattr(rec, name).shape == (rows,), name
            for name, k in widths.items():
                values = getattr(rec, name)
                assert values.shape == (rows, k) and values.flags.f_contiguous, name

    def test_relation_columns_are_the_one_point_values(self):
        for gains, rec in self.runs():
            picks = np.unique(np.r_[np.linspace(0, rec.t.size - 1, 400).astype(int),
                                    rec.t.size - np.arange(1, 6)])
            e = error_vector(RelationPoint(rec.x, rec.xhat, rec.uhat), gains)
            for i in picks:
                point = RelationPoint(rec.x[i], rec.xhat[i], rec.uhat[i])
                assert np.array_equal(error_vector(point, gains), e[i])
                assert vg(point, gains) == rec.vg[i]
                assert np.array_equal(interface_u(point, gains)[0], rec.u[i])


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

    @pytest.mark.parametrize("step", [2e-3, 0.05])
    def test_bound_covers_random_scenarios(self, step):
        from test_acceptance import _random_feasible_scenario

        rng = np.random.default_rng(5)
        for _ in range(20):
            *args, horizon = _random_feasible_scenario(rng)
            rec, _ = self.assert_covers_references((*args, horizon, step))
            assert len(rec.jumps) == 1

    def test_bound_ignores_rbar_max(self):
        args, rmax = self.study("switched")
        assert rmax > 0
        assert simulate(*args, rbar_max=rmax).decay_slack == simulate(*args).decay_slack

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
        assert verify_trajectory(rec, gains, eps, env, b_u, rmax).decay_ok
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
        """`vg0` is the one-point value the jump envelope and the initial
        membership were anchored on, not the batch-evaluated `vg[0]`."""
        from test_acceptance import _random_feasible_scenario

        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            for _ in range(30):
                concrete, abstract, gains, policy, x0, xhat0, horizon = (
                    _random_feasible_scenario(rng)
                )
                rec = simulate(concrete, abstract, gains, policy, x0, xhat0, horizon, 2e-3)
                anchor = vg(RelationPoint(x0, xhat0, policy.uhat_at(0.0, xhat0)), gains)
                assert rec.vg0 == anchor
                assert rec.jumps[0].rhs == jump_admissible(
                    rec.jumps[0].delta, rec.jumps[0].time, anchor, gains, gains.epsilon, 0.0
                )[1]
