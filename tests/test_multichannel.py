"""Multi-output plants and multi-channel abstract inputs (the study is
single-channel: these cover the vector paths end to end)."""

import numpy as np
import pytest

from gaasim import numerics as nx
from gaasim import refine, sim
from gaasim.model import (
    AbstractInputPolicy,
    AbstractLinearSystem,
    Box,
    ConcreteLinearSystem,
    FeedbackRegion,
    OpenLoopSegment,
    OperatingEnvelope,
)
from gaasim.refine import RelationPoint, lift_initial
from gaasim.sim import simulate, verify_trajectory
from gaasim.synthesis import (
    check_assumption,
    feasibility,
    max_feasible_a1,
    synthesize_gains,
)

from conftest import assert_formed_by_blocks, assert_same_bits, csv_text, under_row_blocks


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


def two_channel_open_loop():
    """(policy, xhat0, horizon, rbar_max): two-channel segments whose first
    channel jumps at t = 3."""
    policy = AbstractInputPolicy(
        kind="open_loop",
        segments=(
            OpenLoopSegment(0.0, 3.0, [[0.05, 0.01], [0.02, -0.005]]),
            OpenLoopSegment(3.0, 8.0, [[0.08, 0.01], [0.02, -0.005]]),
        ),
    )
    return policy, np.array([1.0, -0.5]), 6.0, 0.01


def two_dim_regions():
    """(policy, xhat0, horizon, rbar_max): two gain regions split at xhat1 = 2."""
    regions = (
        FeedbackRegion(box=Box([2.0, -10.0], [10.0, 10.0]), gain=0.05 * np.eye(2)),
        FeedbackRegion(box=Box([-10.0, -10.0], [2.0, 10.0]), gain=0.12 * np.eye(2)),
    )
    policy = AbstractInputPolicy(kind="switched_feedback", regions=regions)
    return policy, np.array([4.0, 1.0]), 12.0, 1e-3


def simulate_lifted(mimo_pair, policy, xhat0, horizon, rbar_max):
    """The run at h = 1e-3 from xhat0 and its lift onto the relation."""
    concrete, abstract, gains = mimo_pair
    uhat0 = policy.uhat_at(0.0, xhat0)
    x0 = lift_initial(xhat0, uhat0, gains)
    return simulate(concrete, abstract, gains, policy, x0, xhat0,
                    horizon=horizon, h=1e-3, rbar_max=rbar_max)


def test_two_channel_open_loop_with_single_channel_jump(mimo_pair):
    concrete, abstract, gains = mimo_pair
    policy, *_ = run = two_channel_open_loop()
    rec = simulate_lifted(mimo_pair, *run)
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
    policy, *_ = run = two_dim_regions()
    rec = simulate_lifted(mimo_pair, *run)
    assert len(rec.jumps) == 1
    jump = rec.jumps[0]
    # the jump time row, inserted inside a step, carries the post-crossing
    # abstract state; the first coordinate sits on the boundary plane
    idx = int(np.flatnonzero(rec.t == jump.time)[0])
    assert rec.t[idx + 1] - rec.t[idx - 1] == pytest.approx(1e-3)
    assert rec.xhat[idx, 0] == pytest.approx(2.0, abs=1e-6)
    regions = policy.regions
    expected_delta = (regions[0].gain - regions[1].gain) @ rec.xhat[idx]
    assert np.allclose(jump.delta, expected_delta, atol=1e-12)
    assert jump.passed


def test_uhat_is_one_evaluation_per_run_of_one_region(mimo_pair):
    """The kept blocks of one region join into one run of rows, and the
    record's uhat and uhatdot there have the bits of one evaluation of that
    region over the whole run."""
    concrete, abstract, gains = mimo_pair
    policy, xhat0, horizon, _ = run = two_dim_regions()
    rec = simulate_lifted(mimo_pair, *run)
    x0 = lift_initial(xhat0, policy.uhat_at(0.0, xhat0), gains)
    regime = sim._regimes(policy, *sim._joint_matrices(concrete, abstract, gains), 1e-3)
    times, zs, runs = sim._integrate(concrete, abstract, policy, x0, xhat0, horizon, 1e-3, 0.0,
                                     regime)
    log = sim._jump_log(policy, times, zs[:, concrete.n :], runs)
    assert times.tobytes() == rec.t.tobytes()
    # the second run joins the jump's row, kept alone, to the block after it
    assert [idx for _, _, idx in runs] == [0, 1]
    assert [tau for tau, _ in log] == [rec.jumps[0].time] == [rec.t[runs[1][0]]]
    assert runs[0][0] == 0 and runs[0][1] == runs[1][0] and runs[1][1] == rec.t.size
    for a, b, idx in runs:
        region = policy.regions[idx]
        assert np.all(region.box.contains(rec.xhat[a:b]))
        uhat = region.uhat(rec.t[a:b], rec.xhat[a:b])
        uhatdot = region.uhatdot(abstract, rec.t[a:b], rec.xhat[a:b], uhat)
        assert rec.uhat[a:b].tobytes() == uhat.tobytes()
        assert rec.uhatdot[a:b].tobytes() == uhatdot.tobytes()


@pytest.mark.parametrize("scenario", [two_channel_open_loop, two_dim_regions])
def test_row_blocks_give_the_bits_of_one_block(monkeypatch, mimo_pair, scenario):
    """`sim` evaluates a record's row-local formulas in blocks of rows: with
    several blocks every array and verdict has the bits of one block."""
    concrete, _, gains = mimo_pair

    def run():
        rec = simulate_lifted(mimo_pair, *scenario())
        # a tenth of the realized suprema: each bound is violated in many blocks
        env = realized_envelope(rec)
        env = OperatingEnvelope(env.xhat_max / 10, env.uhat_max / 10, env.uhatdot_max / 10)
        return rec, verify_trajectory(rec, gains, gains.epsilon, env,
                                      concrete.input_ball_radius, 0.0)

    blocked, whole = under_row_blocks(monkeypatch, run)
    assert blocked[0].t.size > 6000 and blocked[1].envelope_violation_count > 3000
    assert_same_bits(blocked, whole)


def test_formed_columns_by_blocks_on_two_regions(monkeypatch, mimo_pair):
    """A two-state feedback run: its columns formed over 7- or 1,000-row
    blocks have the bits of one block."""
    rec = simulate_lifted(mimo_pair, *two_dim_regions())
    assert [idx for _, _, idx in rec.runs] == [0, 1]
    assert_formed_by_blocks(monkeypatch, rec)


def test_points_have_the_bits_of_their_rows(monkeypatch, mimo_pair):
    """Under region gains with two nonzero entries in every row, started off
    the relation: uhat at each row's point has the bits of the record's row,
    the start's vg is the record's vg[0], each logged jump has the budget
    `verify_trajectory` finds when it judges the jump again from vg[0], and
    the columns formed in blocks have the bits of one block."""
    concrete, abstract, gains = mimo_pair
    regions = (
        FeedbackRegion(Box([2.0, -10.0], [10.0, 10.0]), [[0.05, 0.02], [-0.013, 0.047]]),
        FeedbackRegion(Box([-10.0, -10.0], [2.0, 10.0]), [[0.12, -0.031], [0.017, 0.11]]),
    )
    policy = AbstractInputPolicy(kind="switched_feedback", regions=regions)
    xhat0, rbar_max = np.array([5.0, 2.0]), 1e-3
    x0 = lift_initial(xhat0, policy.uhat_at(0.0, xhat0), gains) + [0.05, -0.03, 0.02, 0.01]
    rec = simulate(concrete, abstract, gains, policy, x0, xhat0,
                   horizon=12.0, h=1e-3, rbar_max=rbar_max)
    assert [idx for _, _, idx in rec.runs] == [0, 1] and len(rec.jumps) == 1
    uhat = rec.uhat
    assert all(policy.uhat_at(t, xhat).tobytes() == row.tobytes()
               for t, xhat, row in zip(rec.t, rec.xhat, uhat))
    start = RelationPoint(x0, xhat0, policy.uhat_at(0.0, xhat0))
    assert refine.vg(start, gains) == rec.vg[0]

    judge, again = sim._judge_jumps, []

    def judging(*args):
        again.extend(judge(*args))
        return again

    monkeypatch.setattr(sim, "_judge_jumps", judging)
    verify_trajectory(rec, gains, gains.epsilon, realized_envelope(rec),
                      concrete.input_ball_radius, rbar_max)
    assert [(j.lhs, j.rhs) for j in again] == [(j.lhs, j.rhs) for j in rec.jumps]
    assert_formed_by_blocks(monkeypatch, rec)
