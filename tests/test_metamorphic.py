"""Metamorphic properties of the certificates.

Scaling the states, the inputs, epsilon, the envelope, the input ball and
(through the envelope) rbar_max by one factor c cannot change the truth of
any certificate, and neither can shifting the start time of a run together
with its policy.  So every condition record, jump verdict and decay verdict
must come out the same, and the proven decay slack must scale with c.

The same holds for an orthogonal change x -> T x of the concrete state
(a rotation, a permutation, -I), under which the slack must stay within a
factor 2.  A non-orthogonal T is not covered yet: the proven slack is
taken in the raw coordinates of the joint state, and grows with cond(T).
"""

import dataclasses

import numpy as np
import pytest

from gaasim import casestudy, sim
from gaasim.model import (
    AbstractInputPolicy,
    Box,
    FeedbackRegion,
    OpenLoopSegment,
    OperatingEnvelope,
    Scenario,
    parse_config,
)
from gaasim.synthesis import check_assumption, feasibility, synthesize_gains

from conftest import EPS5, box_study
from test_acceptance import _random_feasible_scenario

SCALES = (1e-3, 1.0, 1e3)
SHIFT = 10.0
#: orthogonal changes x -> T x of the studies' two-state concrete plant
ORTHOGONAL = {
    "rotation": np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]]),
    "swap": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "minus_identity": -np.eye(2),
}


def _box(box: Box, c: float) -> Box:
    return Box(c * box.lows, c * box.highs)


def _policy(policy: AbstractInputPolicy, c: float = 1.0, shift: float = 0.0):
    """`policy` with its values scaled by c and its time moved by `shift`."""
    if policy.kind == "switched_feedback":
        regions = tuple(FeedbackRegion(_box(r.box, c), r.gain) for r in policy.regions)
        return AbstractInputPolicy(kind=policy.kind, regions=regions)
    segments = tuple(
        OpenLoopSegment(
            t_start=seg.t_start + shift,
            t_end=seg.t_end + shift,
            coeffs=c * seg.coeffs @ sim._binomial_shift(-shift, seg.coeffs.shape[1]),
        )
        for seg in policy.segments
    )
    return AbstractInputPolicy(kind=policy.kind, segments=segments)


def _scaled(sc: Scenario, c: float) -> Scenario:
    env = sc.envelope
    return dataclasses.replace(
        sc,
        concrete=dataclasses.replace(
            sc.concrete,
            input_ball_radius=c * sc.concrete.input_ball_radius,
            initial_state_set=_box(sc.concrete.initial_state_set, c),
        ),
        abstract=dataclasses.replace(
            sc.abstract, initial_state_set=_box(sc.abstract.initial_state_set, c)
        ),
        envelope=OperatingEnvelope(c * env.xhat_max, c * env.uhat_max, c * env.uhatdot_max),
        policy=_policy(sc.policy, c),
        epsilon=c * sc.epsilon,
        xhat0=c * sc.xhat0,
        x0=c * sc.x0,
    )


def _transformed(sc: Scenario, T: np.ndarray) -> Scenario:
    """`sc` in the coordinates T x of its concrete state: A -> T A T^-1,
    B -> T B, C -> C T^-1, K -> K T^-1, M -> T^-T M T^-1, x0 -> T x0, and
    the concrete initial box the point T x0."""
    t_inv = np.linalg.inv(T)
    x0 = T @ sc.x0
    concrete = dataclasses.replace(
        sc.concrete, A=T @ sc.concrete.A @ t_inv, B=T @ sc.concrete.B,
        C=sc.concrete.C @ t_inv, initial_state_set=Box(x0, x0),
    )
    return dataclasses.replace(sc, concrete=concrete, K=sc.K @ t_inv,
                               M=t_inv.T @ sc.M @ t_inv, x0=x0)


def _certify(sc: Scenario, force_s_zero: bool = False, shift: float = 0.0):
    """The verdicts of synthesis, checks, run and verification, and the
    run's decay slack, with the run and its policy started `shift` later."""
    gains = synthesize_gains(sc.concrete, sc.abstract, sc.K, sc.a1, sc.epsilon,
                             sc.envelope, M=sc.M, force_s_zero=force_s_zero)
    policy = _policy(sc.policy, shift=shift)
    report = check_assumption(sc.concrete, sc.abstract, gains, sc.envelope, policy=policy,
                              t0=shift)
    rmax, _, _ = feasibility(gains.rbar1, gains.rbar2, gains.rbar3, sc.envelope,
                             sc.a1, sc.epsilon)
    rec = sim.simulate(sc.concrete, sc.abstract, gains, policy, sc.x0, sc.xhat0,
                       sc.horizon, sc.step, rbar_max=rmax, t0=shift, epsilon=sc.epsilon)
    verdict = sim.verify_trajectory(rec, gains, sc.epsilon, sc.envelope, sc.b_U, rmax)
    run = {
        "jumps": [(j.time - shift, j.passed) for j in rec.jumps],
        "jumps_passed": verdict.jumps_passed,
        "decay_violations": verdict.decay_violations,
        "passed": verdict.passed,
    }
    return [(r.name, r.passed) for r in report.records], run, rec.decay_slack


def _assert_invariant(sc: Scenario, force_s_zero: bool = False) -> None:
    records, run, slack = _certify(sc, force_s_zero)
    for c in SCALES:
        records_c, run_c, slack_c = _certify(_scaled(sc, c), force_s_zero)
        assert records_c == records
        assert run_c == run
        assert 0.5 <= slack_c / c / slack <= 2.0
    records_shifted, run_shifted, slack_shifted = _certify(sc, force_s_zero, shift=SHIFT)
    assert records_shifted == records
    assert run_shifted == run
    assert 0.5 <= slack_shifted / slack <= 2.0


def _study(kind: str) -> Scenario:
    if kind == "switched":
        return parse_config(casestudy.switched_config(horizon=320.0, step=5e-3))
    if kind == "switched_box":
        # abstract starts across the region edge at 10, which the lift of
        # the concrete box fails (initial_lift 0.14555 > epsilon)
        return box_study([[4.69, 12.85], [0.0308, 0.0760]], [[5.67, 12.03]], 0.129)
    return parse_config(casestudy.ramp_config(horizon=120.0, step=5e-3))


@pytest.mark.parametrize("kind", ["switched", "switched_box", "ramp", "ramp_s_zero"])
def test_study_verdicts_are_invariant(kind):
    _assert_invariant(_study(kind), force_s_zero=kind == "ramp_s_zero")


@pytest.mark.parametrize("kind", ["switched", "ramp", "ramp_s_zero"])
def test_study_verdicts_are_invariant_under_orthogonal_coordinates(kind):
    sc, force_s_zero = _study(kind), kind == "ramp_s_zero"
    assert np.all(sc.concrete.initial_state_set.lows == sc.concrete.initial_state_set.highs)
    records, run, slack = _certify(sc, force_s_zero)
    for name, T in ORTHOGONAL.items():
        assert np.allclose(T @ T.T, np.eye(2), rtol=0.0, atol=1e-15), name
        records_t, run_t, slack_t = _certify(_transformed(sc, T), force_s_zero)
        assert records_t == records, name
        assert run_t == run, name
        assert 0.5 <= slack_t / slack <= 2.0, (name, slack_t / slack)


def test_random_scenario_verdicts_are_invariant():
    rng = np.random.default_rng(11)
    for _ in range(10):
        concrete, abstract, gains, policy, x0, xhat0, horizon = _random_feasible_scenario(rng)
        probe = sim.simulate(concrete, abstract, gains, policy, x0, xhat0, horizon, 2e-3)
        # the envelope is the realized suprema, as in acceptance test 7b
        envelope = OperatingEnvelope(*(
            float(np.max(np.linalg.norm(rows, axis=1))) * (1 + 1e-9)
            for rows in (probe.xhat, probe.uhat, probe.uhatdot)
        ))
        sc = Scenario(concrete=concrete, abstract=abstract, envelope=envelope,
                      policy=policy, epsilon=EPS5, a1=gains.a1, K=gains.K,
                      horizon=horizon, step=2e-3, xhat0=xhat0, x0=x0, M=gains.M)
        _assert_invariant(sc)


def test_initial_lift_is_judged_at_the_start_time():
    """The ramp's abstract start lifts with uhat(t0): shifted by 10 s, its
    policy is judged at t0 = 10 s, not at t = 0, where its first segment
    (from 10 s) would give uhat = -0.2."""
    sc = parse_config(casestudy.ramp_config(horizon=120.0, step=5e-3))
    gains = synthesize_gains(sc.concrete, sc.abstract, sc.K, sc.a1, sc.epsilon,
                             sc.envelope, M=sc.M)

    def initial_lift(policy, t0):
        report = check_assumption(sc.concrete, sc.abstract, gains, sc.envelope,
                                  policy=policy, t0=t0)
        return next(r.value for r in report.records if r.name == "initial_lift")

    unshifted = initial_lift(sc.policy, 0.0)
    assert unshifted == pytest.approx(0.19886, abs=1e-5)
    shifted = _policy(sc.policy, shift=SHIFT)
    assert initial_lift(shifted, SHIFT) == pytest.approx(unshifted, rel=1e-12)
    assert initial_lift(shifted, 0.0) == pytest.approx(0.40171, abs=1e-5)
