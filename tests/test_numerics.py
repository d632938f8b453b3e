import re
import warnings

import numpy as np
import pytest

from gaasim import numerics as nx
from gaasim import synthesis

from conftest import M5, m_root


def eig2_sym_oracle(m):
    """Eigenvalues of a symmetric 2x2 via the quadratic formula."""
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = np.sqrt(tr * tr - 4.0 * det)
    return np.array([(tr - disc) / 2.0, (tr + disc) / 2.0])


class TestSymEig:
    def test_identity(self):
        res = nx.sym_eig(np.eye(2))
        assert np.allclose(res.values, [1.0, 1.0])
        assert np.allclose(res.vectors.T @ res.vectors, np.eye(2), atol=1e-12)

    def test_diagonal(self):
        res = nx.sym_eig(np.diag([4.0, 9.0]))
        assert np.allclose(res.values, [4.0, 9.0])

    def test_study_weight_matrix(self):
        expected = eig2_sym_oracle(M5)
        res = nx.sym_eig(M5)
        assert np.allclose(res.values, expected, atol=1e-12)
        # quoted approximations
        assert res.values == pytest.approx([2.9019, 5.2787], abs=2e-4)

    def test_errors(self):
        with pytest.raises(nx.NumericsError, match=r"expected square, got \(2, 3\)"):
            nx.sym_eig(np.ones((2, 3)))
        with pytest.raises(nx.NumericsError, match="not symmetric"):
            nx.sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_reconstruction_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            a = rng.standard_normal((n, n))
            a = a + a.T
            values, vectors = nx.sym_eig(a)
            assert np.all(np.diff(values) >= 0)
            assert np.linalg.norm(vectors.T @ vectors - np.eye(n)) <= 1e-10 * n
            recon = vectors @ np.diag(values) @ vectors.T
            assert np.linalg.norm(recon - a) <= 1e-9 * max(np.linalg.norm(a), 1e-30)


class TestSpectralNorm:
    def test_zero(self):
        assert nx.spectral_norm(np.zeros((3, 2))) == 0.0

    def test_unit_column(self):
        assert nx.spectral_norm(np.array([[0.0], [1.0]])) == pytest.approx(1.0)

    def test_weighted_unit_column(self):
        root = m_root(M5)
        got = nx.spectral_norm(root @ np.array([[0.0], [1.0]]))
        assert got == pytest.approx(np.sqrt(4.2262), abs=1e-9)

    def test_dominates_rayleigh_quotients(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 3))
        norm = nx.spectral_norm(a)
        for _ in range(100):
            v = rng.standard_normal(3)
            assert norm >= np.linalg.norm(a @ v) / np.linalg.norm(v) - 1e-12
        gram = a.T @ a
        top = nx.sym_eig(gram).vectors[:, -1]
        assert np.linalg.norm(a @ top) == pytest.approx(norm, abs=1e-8)


class TestSpectralAbscissa:
    def test_negative_identity(self):
        assert nx.real_spectral_abscissa(-np.eye(2)) == pytest.approx(-1.0)

    def test_nilpotent(self):
        assert nx.real_spectral_abscissa([[0.0, 1.0], [0.0, 0.0]]) == pytest.approx(0.0)

    def test_study_closed_loop(self):
        # roots of s^2 + 1.4108 s + 1.3298: real part -1.4108/2
        acl = np.array([[0.0, 1.0], [-1.3298, -1.4108]])
        assert nx.real_spectral_abscissa(acl) == pytest.approx(-0.7054, abs=1e-10)

    def test_matches_numpy_on_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            a = rng.standard_normal((n, n))
            ref = float(np.max(np.linalg.eigvals(a).real))
            assert nx.real_spectral_abscissa(a) == pytest.approx(ref, abs=1e-8 * max(1, abs(ref)))


def kron_oracle(f, w):
    """F X + X F^T = W solved through its dense Kronecker operator."""
    n = len(f)
    op = np.kron(np.eye(n), f) + np.kron(f, np.eye(n))
    return np.linalg.solve(op, w.reshape(-1, order="F")).reshape((n, n), order="F")


def hurwitz(rng, n):
    """A random n x n matrix shifted to spectral abscissa -0.5."""
    f = rng.standard_normal((n, n))
    return f - (nx.real_spectral_abscissa(f) + 0.5) * np.eye(n)


class TestSylvester:
    """The Lyapunov equation F X + X F^T = W, the Sylvester equation whose
    second coefficient is F^T, with any right-hand side W."""

    def test_scalar(self):
        x = nx.solve_lyapunov([[-1.0]], [[-2.0]])
        assert x[0, 0] == pytest.approx(1.0)

    def test_identity_pair(self):
        rng = np.random.default_rng(5)
        w0 = rng.standard_normal((2, 2))
        x = nx.solve_lyapunov(-np.eye(2), -w0)
        assert np.allclose(x, w0 / 2.0, atol=1e-14)

    def test_shifted_lyapunov_study(self):
        acl = np.array([[0.0, 1.0], [-1.3298, -1.4108]])
        shifted = acl + 0.25 * np.eye(2)
        x = nx.solve_lyapunov(shifted.T, -np.eye(2))
        # independent 4x4 Kronecker oracle assembled by hand
        op = np.kron(np.eye(2), shifted.T) + np.kron(shifted.T, np.eye(2))
        ref = np.linalg.solve(op, (-np.eye(2)).reshape(-1, order="F")).reshape(
            (2, 2), order="F"
        )
        assert np.allclose(x, ref, atol=1e-12)
        assert np.allclose(x, x.T, atol=1e-12)
        assert np.all(eig2_sym_oracle(x) > 0)

    def test_singular_detection(self):
        with pytest.raises(nx.NumericsError, match="F is not Hurwitz"):
            nx.solve_lyapunov([[1.0]], [[1.0]])

    def test_size_cap_refuses_before_building_the_operator(self, monkeypatch):
        # the coupling of a 10-state plant (m = p = 1) with a 3-state
        # abstraction whose G = -I + N (N nilpotent) is not symmetric, so it
        # needs the Kronecker operators, of 3*11 x 3*11 and 3*1 x 3*11 doubles
        def no_operator(*args):
            raise AssertionError("Kronecker operator built above the size cap")

        n, k = 10, 3
        args = (-np.eye(n), np.eye(n, 1), np.eye(1, n), np.eye(n),
                -np.eye(k) + np.eye(k, k=1), np.zeros((n, k)), np.zeros((1, k)))
        need = 8.0 * k * k * (n + 1) * (n + 1)
        monkeypatch.setattr(nx, "physical_memory", lambda: need)
        synthesis._coupling(*args)  # fits exactly
        monkeypatch.setattr(nx, "physical_memory", lambda: need - 1.0)
        monkeypatch.setattr(np, "kron", no_operator)
        # the S = 0 baseline builds no operator: with X = 0 the columns of Y
        # are separate problems, whatever G is
        synthesis._coupling(*args, x_free=False)
        with pytest.raises(nx.TooLarge, match="^the Kronecker operator needs about ") as info:
            synthesis._coupling(*args)
        assert len(str(info.value).splitlines()) == 1

    @pytest.mark.parametrize("n, lam", [(2, -1.0), (6, -0.5), (12, -1.0)])
    def test_jordan_blocks(self, n, lam):
        # one defective eigenvalue: F^T and F have a single Jordan block
        j = lam * np.eye(n) + np.eye(n, k=1)
        w = np.random.default_rng(n).standard_normal((n, n))
        for f, rhs in ((j.T, -np.eye(n)), (j, -np.eye(n)), (j, w)):
            x = nx.solve_lyapunov(f, rhs)
            ref = kron_oracle(f, rhs)
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("f", [
        [[-1e-4]],
        [[-1e-4, 1.0], [-1.0, -1e-4]],  # a complex pair 1e-4 from the axis
        np.diag([-1e-4, -1.0, -100.0]),
    ])
    def test_pole_near_the_imaginary_axis(self, f, monkeypatch):
        f, steps, inv = np.array(f), [], np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: steps.append(1) or inv(a))
        x = nx.solve_lyapunov(f.T, -np.eye(len(f)))
        ref = kron_oracle(f.T, -np.eye(len(f)))
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
        assert len(steps) <= 8  # the unscaled iteration takes 18 to 19

    #: what solve_lyapunov says of a coefficient that is not Hurwitz
    NOT_HURWITZ = "F is not Hurwitz|Lyapunov residual"

    @pytest.mark.parametrize("f, g", [
        ([[1.0]], [[-1.0]]),  # F anti-stable
        ([[-1.0, 0.0], [0.0, 2.0]], [[-1.0]]),  # one unstable mode of F
        ([[-1.0]], [[0.0, 1.0], [-1.0, 0.0]]),  # G on the imaginary axis
        ([[0.0, 1.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]),  # F exactly singular
        ([[0.0]], [[-1.0]]),
        ([[0.0, 1.0], [-1.0, 0.0]], [[0.0, 1.0], [-1.0, 0.0]]),  # G = -F^T: a singular iterate
    ])
    def test_refuses_a_pair_that_is_not_hurwitz(self, f, g):
        # F X + X G = W is the top right block of the Lyapunov equation in
        # diag(F, G^T) with W as the top right block of its right-hand side;
        # diag(F, G^T) is Hurwitz exactly when F and G are
        f, g = np.array(f), np.array(g)
        n, k = len(f), len(g)
        d = np.block([[f, np.zeros((n, k))], [np.zeros((k, n)), g.T]])
        w = np.block([[np.zeros((n, n)), np.ones((n, k))], [np.zeros((k, n + k))]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(nx.NumericsError, match=self.NOT_HURWITZ) as info:
                nx.solve_lyapunov(d, w)
        assert len(str(info.value).splitlines()) == 1

    @pytest.mark.parametrize("n", [100, 200])
    def test_residual_bound_large(self, n):
        rng = np.random.default_rng(n)
        f = rng.standard_normal((n, n)) / np.sqrt(n)
        f -= (nx.real_spectral_abscissa(f) + 0.05) * np.eye(n)
        for w in (-np.eye(n), rng.standard_normal((n, n))):
            x = nx.solve_lyapunov(f, w)
            resid = np.linalg.norm(f @ x + x @ f.T - w)
            scale = 2 * np.linalg.norm(f) * np.linalg.norm(x) + np.linalg.norm(w)
            assert resid <= 1e-8 * scale

    def test_agrees_with_kronecker_oracle(self):
        rng = np.random.default_rng(23)
        for i in range(60):
            n = int(rng.integers(1, 21))
            f = hurwitz(rng, n)
            w = -np.eye(n) if i % 2 else rng.standard_normal((n, n))
            ref = kron_oracle(f, w)
            assert np.linalg.norm(nx.solve_lyapunov(f, w) - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_residual_bound_random(self):
        rng = np.random.default_rng(17)
        for _ in range(150):
            n = int(rng.integers(1, 6))
            f, w = hurwitz(rng, n), rng.standard_normal((n, n))
            x = nx.solve_lyapunov(f, w)
            resid = np.linalg.norm(f @ x + x @ f.T - w)
            assert resid <= 1e-8 * (2 * np.linalg.norm(f) * np.linalg.norm(x) + np.linalg.norm(w))


class TestPsdSqrt:
    """The weight's root M^{1/2}, which `synthesis._weight` derives with
    lambda_min(M) from one eigendecomposition."""

    def test_identity(self):
        assert np.allclose(m_root(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        root, lam = synthesis._weight(np.diag([4.0, 9.0]))
        assert np.allclose(root, np.diag([2.0, 3.0])) and lam == 4.0

    def test_study_weight(self):
        r = m_root(M5)
        assert np.linalg.norm(r @ r - M5) <= 1e-9 * np.linalg.norm(M5)
        assert np.allclose(r, r.T)

    def test_not_psd(self):
        for m, lam in ((np.diag([1.0, -0.5]), "-5.000e-01"), (np.zeros((2, 2)), "0.000e+00")):
            message = f"M not positive definite: eigenvalue {lam}"
            with pytest.raises(nx.NumericsError, match=f"^{re.escape(message)}$"):
                synthesis._weight(m)

    def test_orthogonal_conjugation(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((4, 4))
        m = a @ a.T
        q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        left = m_root(q.T @ m @ q)
        right = q.T @ m_root(m) @ q
        assert np.linalg.norm(left - right) <= 1e-8 * np.linalg.norm(m)


class TestConstrainedLstsq:
    def test_unconstrained_invertible(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        c = rng.standard_normal(3)
        x = nx.constrained_lstsq(a, c)
        assert np.allclose(x, np.linalg.solve(a, c), atol=1e-10)

    def test_study_pq_problem(self):
        # unknowns [p11, p21, q]; objective M^{1/2} [p21; q]; constraint p11 = 1
        root = m_root(M5)
        obj = np.zeros((2, 3))
        obj[:, 1] = root @ np.array([1.0, 0.0])
        obj[:, 2] = root @ np.array([0.0, 1.0])
        x = nx.constrained_lstsq(obj, np.zeros(2), np.array([[1.0, 0.0, 0.0]]), [1.0])
        assert np.allclose(x, [1.0, 0.0, 0.0], atol=1e-12)

    def test_study_sr_problem(self):
        # unknowns [s1, s2, r]; objective M^{1/2} ([s2; r] - [1; 0]); constraint s1 = 0
        root = m_root(M5)
        obj = np.zeros((2, 3))
        obj[:, 1] = root @ np.array([1.0, 0.0])
        obj[:, 2] = root @ np.array([0.0, 1.0])
        rhs = root @ np.array([1.0, 0.0])
        x = nx.constrained_lstsq(obj, rhs, np.array([[1.0, 0.0, 0.0]]), [0.0])
        assert np.allclose(x, [0.0, 1.0, 0.0], atol=1e-12)

    def test_factored_constraint_has_the_bits_of_the_matrix(self):
        """A constraint factored once gives every problem that shares it the
        bits that factoring it in the call gives."""
        rng = np.random.default_rng(8)
        e = np.hstack([rng.standard_normal((2, 4)), np.zeros((2, 2))])
        eq = nx.equality_constraint(e)
        assert eq.null_basis.shape == (6, 4)
        for rhs_cols in ((), (3,)):
            a = rng.standard_normal((5, 6))
            c = rng.standard_normal((5, *rhs_cols))
            b = rng.standard_normal((2, *rhs_cols))
            x = nx.constrained_lstsq(a, c, eq, b)
            assert x.tobytes() == nx.constrained_lstsq(a, c, e, b).tobytes()
        with pytest.raises(nx.NumericsError, match="inconsistent equality constraints"):
            nx.constrained_lstsq(np.eye(2), np.zeros(2), nx.equality_constraint(
                [[1.0, 0.0], [1.0, 0.0]]), [0.0, 1.0])

    def test_inconsistent(self):
        with pytest.raises(nx.NumericsError, match="inconsistent equality constraints"):
            nx.constrained_lstsq(
                np.eye(2), np.zeros(2), np.array([[1.0, 0.0], [1.0, 0.0]]), [0.0, 1.0]
            )

    def test_feasible_and_optimal_vs_perturbations(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            d, q, r = 6, 4, 2
            a = rng.standard_normal((q, d))
            c = rng.standard_normal(q)
            e = rng.standard_normal((r, d))
            x_feas = rng.standard_normal(d)
            b = e @ x_feas
            x = nx.constrained_lstsq(a, c, e, b)
            assert np.linalg.norm(e @ x - b) <= 1e-8 * max(np.linalg.norm(b), 1e-30)
            base = np.linalg.norm(a @ x - c)
            # null-space directions keep feasibility; objective must not improve
            _, _, vt = np.linalg.svd(e)
            null = vt[r:].T
            for _ in range(100):
                pert = x + null @ rng.standard_normal(d - r)
                assert base <= np.linalg.norm(a @ pert - c) + 1e-9

    def test_min_norm_among_minimizers(self):
        # objective ignores one free coordinate; solution must zero it
        a = np.array([[1.0, 0.0, 0.0]])
        x = nx.constrained_lstsq(a, [2.0], np.array([[0.0, 1.0, 0.0]]), [3.0])
        assert np.allclose(x, [2.0, 3.0, 0.0], atol=1e-10)

    def test_rank_cutoff_relative_to_largest_singular_value(self):
        # PINV_RANK_RTOL = 1e-10 bounds squared singular-value ratios, so a
        # direction at ratio 2e-5 (squared 4e-10) is kept and one at ratio
        # 5e-6 (squared 2.5e-11) is treated as zero
        sv = np.diag([1.0, 2e-5, 5e-6])
        x = nx.constrained_lstsq(sv, [1.0, 1.0, 1.0])
        assert x == pytest.approx([1.0, 5e4, 0.0], rel=1e-9)
        # as equality constraints, the dropped direction joins the null space
        # and the objective then sets it
        x = nx.constrained_lstsq(np.eye(3), [0.0, 0.0, 3.0], sv, [1.0, 2e-5, 0.0])
        assert x == pytest.approx([1.0, 1.0, 3.0], rel=1e-9)


class TestRequireMemory:
    def test_refusal_is_one_memory_error(self, monkeypatch):
        monkeypatch.setattr(nx, "physical_memory", lambda: 1e9)
        nx.require_memory(10**9, "a fit")
        with pytest.raises(nx.TooLarge) as info:
            nx.require_memory(1.5e9, "the test")
        assert isinstance(info.value, MemoryError) and isinstance(info.value, nx.NumericsError)
        assert str(info.value) == ("the test needs about 1.40 GiB of arrays, more than "
                                   "the 0.931 GiB of physical memory")

    def test_compares_and_prints_any_int(self, monkeypatch):
        monkeypatch.setattr(nx, "physical_memory", lambda: 2.0**60)
        nx.require_memory(2**60, "a fit")
        # one byte more, which float(2**60 + 1) would round away
        with pytest.raises(nx.TooLarge, match="needs about 1.07e[+]9 GiB of arrays"):
            nx.require_memory(2**60 + 1, "one byte more")
        # 8 * 2^1100 bytes: beyond any float, where nbytes / 2**30 overflows
        with pytest.raises(nx.TooLarge, match="needs about 1.01e[+]323 GiB of arrays"):
            nx.require_memory(8 * 2**1100, "2^1100 corners")


def test_ordered_dot_sums_each_row_left_to_right():
    """Entry (i, k) is 0 + a[i, 0] c[0, k] + a[i, 1] c[1, k] + ..., added in
    this order, alone or among other columns, so a product -0 sums to +0."""
    rng = np.random.default_rng(3)
    a, cols = rng.standard_normal((3, 5)), rng.standard_normal((5, 40))
    out = nx.ordered_dot(a, cols)
    for i in range(3):
        for k in range(40):
            ref = 0.0
            for j in range(5):
                ref += float(a[i, j]) * float(cols[j, k])
            assert out[i, k] == ref == nx.ordered_dot(a, cols[:, k : k + 1])[i, 0]
    assert np.signbit(nx.ordered_dot(np.array([[-1.0]]), np.zeros((1, 2)))).sum() == 0
