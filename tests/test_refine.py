import math

import numpy as np
import pytest

from gaasim.model import Box
from gaasim.refine import (
    RelationPoint,
    error_map,
    error_vector,
    interface_u,
    jump_admissible,
    lift_initial,
    omega,
    vg,
)
from gaasim.synthesis import RefinementGains

from conftest import EPS5, M5


def sample_in_weighted_ball(rng, gains, radius, count=1):
    """Error vectors with sqrt(e^T M e) <= radius, uniform radius scaling."""
    inv_root = np.linalg.inv(gains.M_sqrt)
    out = []
    for _ in range(count):
        e = inv_root @ rng.standard_normal(gains.M.shape[0])
        e *= rng.uniform(0.0, 1.0) * radius / math.sqrt(e @ gains.M @ e)
        out.append(e)
    return out if count > 1 else out[0]


class TestVg:
    def test_lifted_point_is_zero(self, gains5):
        x = lift_initial([40.1], [-0.0401], gains5)
        assert vg(RelationPoint(x, [40.1], [-0.0401]), gains5) == 0.0

    def test_study_initial_point(self, gains5):
        # e = [-0.1, 0], so vg = sqrt(0.01 * 3.9544)
        point = RelationPoint([40.0, -0.0401], [40.1], [-0.0401])
        expected = math.sqrt(0.01 * M5[0, 0])
        assert vg(point, gains5) == pytest.approx(expected, abs=1e-12)
        assert vg(point, gains5) == pytest.approx(0.19886, abs=1e-5)

    def test_identity_weight_unit_error(self, gains5):
        import dataclasses

        gains = dataclasses.replace(gains5, M=np.eye(2), M_sqrt=np.eye(2))
        point = RelationPoint([41.1, -0.0401], [40.1], [-0.0401])  # e = [1, 0]
        assert vg(point, gains) == pytest.approx(1.0)

    def test_homogeneous_in_error(self, gains5):
        rng = np.random.default_rng(0)
        for _ in range(50):
            e = rng.standard_normal(2)
            c = rng.uniform(-3.0, 3.0)
            p1 = RelationPoint(gains5.P @ [1.0] + e, [1.0], [0.0])
            p2 = RelationPoint(gains5.P @ [1.0] + c * e, [1.0], [0.0])
            assert vg(p2, gains5) == pytest.approx(abs(c) * vg(p1, gains5), rel=1e-12)


class TestInterface:
    def test_zero_error_zero_input(self, gains5):
        x = lift_initial([7.0], [0.3], gains5)
        u, exceeded = interface_u(RelationPoint(x, [7.0], [0.3]), gains5)
        assert np.allclose(u, 0.0, atol=1e-12)
        assert not exceeded

    def test_study_point(self, gains5):
        point = RelationPoint([40.0, -0.0401], [40.1], [-0.0401])
        u, exceeded = interface_u(point, gains5)
        # u = K e with e = [-0.1, 0]
        assert u[0] == pytest.approx(-1.3298 * -0.1, abs=1e-12)
        assert u[0] == pytest.approx(0.13298)
        assert not exceeded

    def test_bounded_inside_relation(self, gains5):
        rng = np.random.default_rng(1)
        for e in sample_in_weighted_ball(rng, gains5, EPS5, count=500):
            xhat = rng.uniform(-41, 41, size=1)
            uhat = rng.uniform(-0.05, 0.05, size=1)
            x = gains5.P @ xhat + gains5.S @ uhat + e
            u, exceeded = interface_u(RelationPoint(x, xhat, uhat), gains5)
            assert np.linalg.norm(u) <= 0.5690 + 1e-4
            assert not exceeded

    def test_affine_in_error(self, gains5):
        rng = np.random.default_rng(2)
        xhat, uhat = [3.0], [0.01]
        base = gains5.P @ xhat + gains5.S @ uhat
        for _ in range(20):
            e1, e2 = rng.standard_normal(2), rng.standard_normal(2)
            u1, _ = interface_u(RelationPoint(base + e1, xhat, uhat), gains5)
            u12, _ = interface_u(RelationPoint(base + e1 + e2, xhat, uhat), gains5)
            assert np.allclose(u12 - u1, gains5.K @ e2, atol=1e-10)


class TestLift:
    def test_study_lift(self, gains5):
        x0 = lift_initial([40.1], [-0.0401], gains5)
        assert np.allclose(x0, [40.1, -0.0401], atol=1e-12)

    def test_zero(self, gains5):
        assert np.allclose(lift_initial([0.0], [0.0], gains5), 0.0)

    def test_any_lift_has_zero_vg(self, gains5):
        rng = np.random.default_rng(3)
        for _ in range(100):
            xhat = rng.uniform(-50, 50, size=1)
            uhat = rng.uniform(-1, 1, size=1)
            x = lift_initial(xhat, uhat, gains5)
            assert vg(RelationPoint(x, xhat, uhat), gains5) <= 1e-12


class TestInRelation:
    def test_study_initial(self, gains5):
        point = RelationPoint([40.0, -0.0401], [40.1], [-0.0401])
        assert vg(point, gains5) <= 0.5
        assert not vg(point, gains5) <= 0.15

    def test_boundary(self, gains5):
        rng = np.random.default_rng(4)
        e = sample_in_weighted_ball(rng, gains5, 1.0)
        e *= 0.51 / math.sqrt(e @ gains5.M @ e)
        x = gains5.P @ [1.0] + gains5.S @ [0.1] + e
        assert not vg(RelationPoint(x, [1.0], [0.1]), gains5) <= 0.5


class TestOmega:
    def test_zero_time(self):
        assert omega(0.0, 0.37, 0.5, 0.2) == pytest.approx(0.37)

    def test_large_time_limit(self):
        assert omega(1e6, 0.0, 0.5, 0.1) == pytest.approx(2 * 0.1 / 0.5)

    def test_study_arithmetic(self):
        # e^{-1} 0.19886 + (1 - e^{-1}) 0.39964
        got = omega(4.0, 0.19886, 0.5, 0.09991)
        expected = math.exp(-1.0) * 0.19886 + (1 - math.exp(-1.0)) * (2 * 0.09991 / 0.5)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.32578, abs=5e-4)

    def test_monotone_and_bounded(self):
        vg0, a1, rmax = 0.05, 0.7, 0.09
        limit = 2 * rmax / a1
        taus = np.linspace(0.0, 40.0, 200)
        values = [omega(t, vg0, a1, rmax) for t in taus]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
        assert all(min(vg0, limit) - 1e-12 <= v <= max(vg0, limit) + 1e-12 for v in values)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            omega(-1.0, 0.1, 0.5, 0.0)


class TestJumpAdmissible:
    def test_zero_jump_always_passes(self, gains5):
        lhs, rhs, ok = jump_admissible([0.0], 5.0, 0.19886, gains5, EPS5, 0.09991)
        assert lhs == 0.0 and ok and rhs >= 0.0

    def test_study_region_crossing(self, gains5):
        # crossing at xhat = 30: delta = -(0.0013 - 0.001) * 30 = -0.009
        delta = np.array([-0.009])
        rbar_max = 4.1115e-4  # runtime-envelope budget
        tau = 290.18
        lhs, rhs, ok = jump_admissible(delta, tau, 0.19886, gains5, EPS5, rbar_max)
        assert lhs == pytest.approx(0.009**2 * M5[1, 1], rel=1e-12)
        assert lhs == pytest.approx(3.423e-4, abs=2e-7)
        w = omega(tau, 0.19886, gains5.a1, rbar_max)
        assert rhs == pytest.approx((EPS5 - w) ** 2, rel=1e-12)
        assert ok

    def test_boundary_violation_fails(self, gains5):
        rbar_max = 4.1115e-4
        w = omega(10.0, 0.19886, gains5.a1, rbar_max)
        budget = (EPS5 - w) ** 2
        delta_mag = math.sqrt((budget + 1e-6) / M5[1, 1])
        lhs, rhs, ok = jump_admissible([delta_mag], 10.0, 0.19886, gains5, EPS5, rbar_max)
        assert lhs > rhs
        assert not ok

    def test_degenerate_budget_reports_zero(self, gains5):
        # saturated omega above eps: 2 rbar_max / a1 = 0.6 > 0.5
        lhs, rhs, ok = jump_admissible([0.01], 300.0, 0.19886, gains5, EPS5, 0.15)
        assert rhs == 0.0
        assert not ok
        _, rhs0, ok0 = jump_admissible([0.0], 300.0, 0.19886, gains5, EPS5, 0.15)
        assert rhs0 == 0.0 and ok0

    def test_budget_is_in_units_of_v(self, gains5):
        # omega bounds V, not V^2: at eps = 5 with omega = 2.46 the budget
        # (eps - sqrt(omega))^2 = 11.77 would admit a post-jump V of 5.89
        eps, w = 5.0, 2.46
        s_unit = gains5.S @ [1.0]
        v_unit = math.sqrt(s_unit @ gains5.M @ s_unit)
        # a pre-jump error of V = omega that the jump pushes straight outwards
        e = -w * s_unit / v_unit

        def post_jump_vg(lhs_target):
            delta = np.array([math.sqrt(lhs_target) / v_unit])
            lhs, rhs, ok = jump_admissible(delta, 0.0, w, gains5, eps, 0.0)
            e_post = e - gains5.S @ delta
            return lhs, rhs, ok, math.sqrt(e_post @ gains5.M @ e_post)

        lhs, rhs, ok, vg_post = post_jump_vg(11.0)
        assert lhs <= (eps - math.sqrt(w)) ** 2
        assert rhs == pytest.approx((eps - w) ** 2, rel=1e-12)
        assert vg_post > eps and not ok
        lhs, rhs, ok, vg_post = post_jump_vg((1.0 - 1e-9) * (eps - w) ** 2)
        assert ok and vg_post <= eps

    def test_pass_implies_post_jump_membership(self, gains5):
        rng = np.random.default_rng(5)
        for eps in (0.5, 5.0, 50.0):
            for i in range(300):
                # w bounds V just before the jump; omega(tau) = w from
                # vg0 = eps when rbar_max = 0
                w = rng.uniform(0.0, eps)
                tau = -2.0 / gains5.a1 * math.log(max(w / eps, 1e-300))
                # a jump that moves V by up to 25 % more than the budget allows
                delta = rng.standard_normal(1)
                s_delta = gains5.S @ delta
                reach = rng.uniform(0.0, 1.25) * (eps - w)
                delta *= reach / math.sqrt(s_delta @ gains5.M @ s_delta)
                # every other pre-jump error is the worst case: V = w aligned
                # against S delta, so that V = w + reach after the jump
                aligned = i % 2 == 0
                if aligned:
                    e = -w / reach * (gains5.S @ delta)
                else:
                    e = sample_in_weighted_ball(rng, gains5, w)
                lhs, rhs, ok = jump_admissible(delta, tau, eps, gains5, eps, 0.0)
                e_post = e - gains5.S @ delta
                vg_post = math.sqrt(e_post @ gains5.M @ e_post)
                if ok:
                    assert vg_post <= eps + 1e-9
                elif aligned:
                    assert vg_post > eps - 1e-9  # the rejection is not spurious


def random_bundle(rng, n, m, n_r, m_r) -> RefinementGains:
    """Gains of random couplings and a random positive definite M."""
    root = rng.standard_normal((n, n))
    root = root @ root.T + np.eye(n)
    return RefinementGains(
        M=root @ root, M_sqrt=root, K=rng.standard_normal((m, n)),
        P=rng.standard_normal((n, n_r)), Q=rng.standard_normal((m, n_r)),
        S=rng.standard_normal((n, m_r)), R=rng.standard_normal((m, m_r)),
        a1=0.5, epsilon=1.0, rbar1=0.0, rbar2=0.0, rbar3=0.0,
        lambda_min_M=1.0, input_bound=1.0,
    )


@pytest.mark.parametrize("dims", [None, (4, 3, 2, 2)])
def test_error_map_is_the_error_vector_of_a_linear_input(gains5, dims):
    rng = np.random.default_rng(12)
    gains = gains5 if dims is None else random_bundle(rng, *dims)
    (_, n_r), m_r = gains.Q.shape, gains.S.shape[1]
    x = rng.uniform(-50.0, 50.0, (100, gains.M.shape[0]))
    xhat = rng.uniform(-50.0, 50.0, (100, n_r))
    z = np.hstack([x, xhat])
    uhat_gain = rng.standard_normal((m_r, n_r))
    for gain, uhat in ((None, np.zeros((100, m_r))), (uhat_gain, xhat @ uhat_gain.T)):
        e = error_vector(RelationPoint(x, xhat, uhat), gains)
        assert np.allclose(z @ error_map(gains, gain).T, e, rtol=0.0, atol=1e-12)


class TestRowsMatchPoints:
    """error_vector, vg, interface_u, omega and Box.contains over rows
    against the same functions called on each point and stacked."""

    @pytest.mark.parametrize("dims", [None, (4, 3, 2, 2)])
    def test_relation(self, gains5, dims):
        rng = np.random.default_rng(10)
        gains = gains5 if dims is None else random_bundle(rng, *dims)
        (m, n_r), m_r = gains.Q.shape, gains.S.shape[1]
        count = 2000
        x = rng.uniform(-50.0, 50.0, (count, gains.M.shape[0]))
        xhat = rng.uniform(-50.0, 50.0, (count, n_r))
        uhat = rng.uniform(-1.0, 1.0, (count, m_r))
        rows = RelationPoint(x, xhat, uhat)
        e_rows = error_vector(rows, gains)
        v_rows = vg(rows, gains, e_rows)
        u_rows, exceeded = interface_u(rows, gains, e_rows)
        assert e_rows.shape == x.shape and v_rows.shape == (count,)
        assert u_rows.shape == (count, m) and exceeded is None
        assert np.array_equal(v_rows, vg(rows, gains))
        assert np.array_equal(u_rows, interface_u(rows, gains)[0])

        points = [RelationPoint(*p) for p in zip(x, xhat, uhat)]
        e_pts = np.array([error_vector(p, gains) for p in points])
        v_pts = np.array([vg(p, gains) for p in points])
        u_pts = np.array([interface_u(p, gains)[0] for p in points])
        for i in range(0, count, 97):
            # a point is a one-row array through the rows expression
            one = RelationPoint(x[i : i + 1], xhat[i : i + 1], uhat[i : i + 1])
            assert np.array_equal(error_vector(one, gains), e_pts[i : i + 1])
            assert np.array_equal(vg(one, gains), v_pts[i : i + 1])
            assert np.array_equal(interface_u(one, gains)[0], u_pts[i : i + 1])
        # refine fixes the order of every sum, so the stacked points are the
        # rows bit for bit
        assert np.array_equal(e_pts, e_rows)
        assert np.array_equal(v_pts, v_rows)
        assert np.array_equal(u_pts, u_rows)

    def test_omega(self):
        rng = np.random.default_rng(11)
        taus = np.concatenate([[0.0], rng.exponential(4.0, 999)])
        for vg0, a1, rmax in ((0.19886, 0.5, 4.1e-4), (3.0, 0.05, 0.2), (0.0, 2.0, 1.0)):
            rows = omega(taus, vg0, a1, rmax)
            assert np.array_equal(rows, [omega(t, vg0, a1, rmax) for t in taus])
        with pytest.raises(ValueError):
            omega(np.array([1.0, -1e-9]), 0.1, 0.5, 0.0)

    def test_box_contains(self):
        rng = np.random.default_rng(12)
        lows = np.array([-1.0, 0.5, 2.0])
        box = Box(lows, np.array([1.0, 0.5, 3.0]))  # the middle axis is a point
        pts = rng.uniform(-1.5, 3.5, (3000, 3))
        pts[::3, 1] = 0.5
        pts[::7] = np.clip(pts[::7], lows, box.highs)  # inside, often on a face
        rows = box.contains(pts)
        assert rows.dtype == bool and 0 < rows.sum() < rows.size
        assert np.array_equal(rows, [box.contains(p) for p in pts])
        assert all(isinstance(box.contains(p), bool) for p in pts[:5])


def test_output_closeness_inside_relation(sys5, gains5):
    concrete, abstract = sys5
    rng = np.random.default_rng(6)
    inv_root = np.linalg.inv(gains5.M_sqrt)
    n = 2000
    e = rng.standard_normal((n, 2)) @ inv_root.T
    norms = np.sqrt(np.einsum("ij,jk,ik->i", e, gains5.M, e))
    e *= (EPS5 * rng.uniform(0.0, 1.0, size=n) / norms)[:, None]
    xhat = rng.uniform(-41, 41, size=(n, 1))
    uhat = rng.uniform(-0.05, 0.05, size=(n, 1))
    x = xhat @ gains5.P.T + uhat @ gains5.S.T + e
    err = np.linalg.norm(x @ concrete.C.T - xhat @ abstract.C.T, axis=1)
    assert np.all(err <= EPS5 + 1e-9)
