"""Multi-output plants and multi-channel abstract inputs (the study is
single-channel: these cover the vector paths end to end)."""

import numpy as np
import pytest

from gaasim import numerics as nx
from gaasim.model import (
    AbstractInputPolicy,
    AbstractLinearSystem,
    Box,
    ConcreteLinearSystem,
    FeedbackRegion,
    OpenLoopSegment,
    OperatingEnvelope,
)
from gaasim.refine import lift_initial
from gaasim.sim import eval_policy, simulate, verify_trajectory
from gaasim.synthesis import (
    check_assumption,
    feasibility,
    max_feasible_a1,
    synthesize_gains,
)

from conftest import csv_text


@pytest.fixture(scope="module")
def mimo_pair():
    rng = np.random.default_rng(42)
    n, p = 4, 2
    a = rng.standard_normal((n, n)) * 0.5
    b = np.eye(n) + 0.1 * rng.standard_normal((n, n))
    c = np.hstack([np.eye(p), np.zeros((p, n - p))])
    target = rng.standard_normal((n, n))
    target -= (nx.real_spectral_abscissa(target) + 1.0) * np.eye(n)
    k = np.linalg.solve(b, target - a)
    concrete = ConcreteLinearSystem(
        A=a, B=b, C=c, input_ball_radius=1e3,
        initial_state_set=Box(-5 * np.ones(n), 5 * np.ones(n)),
    )
    abstract = AbstractLinearSystem(
        A=np.diag([-0.1, -0.2]), B=np.eye(2), C=np.eye(2),
        initial_state_set=Box([1.0, -0.5], [1.0, -0.5]),
    )
    env = OperatingEnvelope(10.0, 10.0, 10.0)
    a1 = 0.5 * max_feasible_a1(a, b, k)
    gains = synthesize_gains(concrete, abstract, k, a1, 0.5, env)
    return concrete, abstract, gains


def realized_envelope(rec) -> OperatingEnvelope:
    return OperatingEnvelope(
        xhat_max=float(np.max(np.linalg.norm(rec.xhat, axis=1))) * 1.01,
        uhat_max=float(np.max(np.linalg.norm(rec.uhat, axis=1))) * 1.01,
        uhatdot_max=float(np.max(np.linalg.norm(rec.uhatdot, axis=1))) * 1.01,
    )


def test_couplings_exact_for_invertible_b(mimo_pair):
    _, _, gains = mimo_pair
    assert gains.rbar1 < 1e-9
    assert gains.rbar2 < 1e-9
    assert gains.P.shape == (4, 2) and gains.S.shape == (4, 2)


def test_two_channel_open_loop_with_single_channel_jump(mimo_pair):
    concrete, abstract, gains = mimo_pair
    policy = AbstractInputPolicy(
        kind="open_loop",
        segments=(
            OpenLoopSegment(0.0, 3.0, [[0.05, 0.01], [0.02, -0.005]]),
            OpenLoopSegment(3.0, 8.0, [[0.08, 0.01], [0.02, -0.005]]),
        ),
    )
    xhat0 = np.array([1.0, -0.5])
    uhat0, _, _ = eval_policy(policy, abstract, 0.0, xhat0)
    x0 = lift_initial(xhat0, uhat0, gains)
    rec = simulate(concrete, abstract, gains, policy, x0, xhat0,
                   horizon=6.0, h=1e-3, rbar_max=0.01)
    assert len(rec.jumps) == 1
    assert np.allclose(rec.jumps[0].delta, [0.03, 0.0], atol=1e-12)
    env = realized_envelope(rec)
    rmax, _, feasible = feasibility(
        gains.rbar1, gains.rbar2, gains.rbar3, env, gains.a1, gains.epsilon
    )
    assert feasible
    verdict = verify_trajectory(rec, gains, gains.epsilon, env,
                                concrete.input_ball_radius, rmax)
    assert verdict.passed
    header = csv_text(rec).splitlines()[0]
    assert header == (
        "t,x1,x2,x3,x4,xhat1,xhat2,uhat1,uhat2,uhatdot1,uhatdot2,"
        "u1,u2,u3,u4,y1,y2,yhat1,yhat2,vg,err"
    )
    report = check_assumption(concrete, abstract, gains, env, policy=policy)
    assert report.passed


def test_two_dim_region_crossing(mimo_pair):
    concrete, abstract, gains = mimo_pair
    regions = (
        FeedbackRegion(box=Box([2.0, -10.0], [10.0, 10.0]), gain=0.05 * np.eye(2)),
        FeedbackRegion(box=Box([-10.0, -10.0], [2.0, 10.0]), gain=0.12 * np.eye(2)),
    )
    policy = AbstractInputPolicy(kind="switched_feedback", regions=regions)
    xhat0 = np.array([4.0, 1.0])
    uhat0, _, _ = eval_policy(policy, abstract, 0.0, xhat0)
    x0 = lift_initial(xhat0, uhat0, gains)
    rec = simulate(concrete, abstract, gains, policy, x0, xhat0,
                   horizon=12.0, h=1e-3, rbar_max=1e-3)
    assert len(rec.jumps) == 1
    jump = rec.jumps[0]
    assert jump.cause == "region_crossing"
    # the jump time row carries the post-crossing abstract state; the first
    # coordinate sits on the boundary plane
    idx = int(np.flatnonzero(rec.t == jump.time)[0])
    assert rec.xhat[idx, 0] == pytest.approx(2.0, abs=1e-6)
    expected_delta = (regions[0].gain - regions[1].gain) @ rec.xhat[idx]
    assert np.allclose(jump.delta, expected_delta, atol=1e-12)
    assert jump.passed
