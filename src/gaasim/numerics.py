"""Dense real-matrix kernels used by the synthesis and runtime layers.

The factorizations are numpy's LAPACK routines: symmetric eigendecomposition
(``eigh``), general eigenvalues (``eigvals``), the inverse, and the SVD behind
spectral norms and the pseudoinverse and null space of equality-constrained
least squares.  This module adds input validation and the checks the callers
rely on: symmetry, the Lyapunov residual and the consistency of equality
constraints.  Lyapunov equations with a Hurwitz coefficient are solved by the
scaled matrix-sign iteration in O(n^3) time (numpy has no Schur form).  Every
failure, LAPACK's included, is a ``NumericsError`` whose message says what
failed; ``TooLarge`` is the one told apart, a problem refused for its size
(`require_memory`).  `ordered_dot` sums each per-row product of a run left to
right (Higham 2002), so a point has its row's bits in any block of rows.
"""

from __future__ import annotations

import math
import os
from typing import NamedTuple

import numpy as np


class NumericsError(ValueError):
    """A kernel-level failure; the message says what failed."""


class TooLarge(NumericsError, MemoryError):
    """A problem whose arrays would not fit in physical memory."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a dense 2-D float64 matrix.

    Accepts anything array-like; 1-D input is treated as a single row.
    Rejects empty or non-finite entries.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2:
        raise NumericsError(f"{name}: expected a 2-D array, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise NumericsError(f"{name}: empty matrix {m.shape}")
    if not np.isfinite(m).all():
        raise NumericsError(f"{name}: non-finite entries")
    return m


def _rhs(a, rows: int, name: str) -> np.ndarray:
    """A right-hand side of `rows` entries, or one such column per problem."""
    v = np.asarray(a, dtype=float)
    if v.ndim not in (1, 2) or v.shape[0] != rows:
        raise NumericsError(f"{name}: expected length {rows}, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise NumericsError(f"{name}: non-finite entries")
    return v


def physical_memory() -> float:
    """Bytes of physical memory, or infinity where the platform does not say."""
    try:
        return float(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"))
    except (AttributeError, ValueError, OSError):
        return math.inf


def require_memory(nbytes, what: str) -> None:
    """Raise TooLarge when `what` needs `nbytes` bytes of arrays, more than
    physical memory; an int compares exactly and prints, however large."""
    limit = physical_memory()
    if nbytes > limit:
        from decimal import Decimal  # imported on first use: 0.4 MB, only for a refusal
        need, have = (f"{Decimal(b) / 2**30:.3g}" for b in (nbytes, limit))
        raise TooLarge(f"{what} needs about {need} GiB of arrays, more than "
                       f"the {have} GiB of physical memory")


def ordered_dot(a: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """a @ cols for columns of points (width, rows): row i adds a[i, j]
    cols[j] to zero over j in order, each product and sum rounded once, so a
    point's bits depend neither on the other rows, nor on their layout, nor
    on the BLAS."""
    out = a[:, 0, None] * cols[0]
    out += 0.0  # the sum starts at zero: a product -0 adds up to +0
    for j in range(1, a.shape[1]):
        out += a[:, j, None] * cols[j]
    return out


def _require_square(a: np.ndarray, name: str) -> None:
    if a.shape[0] != a.shape[1]:
        raise NumericsError(f"{name}: expected square, got {a.shape}")


class SymEigResult(NamedTuple):
    """Eigenvalues (ascending) and orthonormal eigenvectors (as columns)."""

    values: np.ndarray
    vectors: np.ndarray


#: relative asymmetry accepted by sym_eig
SYMMETRY_RTOL = 1e-12


def _lapack(routine, *args, **kwargs):
    """Call a numpy.linalg routine, reporting LAPACK failures as NumericsError."""
    try:
        return routine(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"{routine.__name__}: {exc}") from exc


def sym_eig(A, name: str = "A") -> SymEigResult:
    """Eigendecomposition of a symmetric matrix (LAPACK ``syevd``); `name`
    starts the message of a failure."""
    A = as_matrix(A, name)
    _require_square(A, name)
    asym = np.linalg.norm(A - A.T, "fro")
    if asym > SYMMETRY_RTOL * max(np.linalg.norm(A, "fro"), 1e-300):
        raise NumericsError(f"{name} not symmetric: ||{name} - {name}^T||_F = {asym:.3e}")
    values, vectors = _lapack(np.linalg.eigh, 0.5 * (A + A.T))
    return SymEigResult(values, vectors)


def spectral_norm(A) -> float:
    """Largest singular value, the first of LAPACK's descending ones."""
    return float(_lapack(np.linalg.svd, as_matrix(A, "A"), compute_uv=False)[0])


def eigenvalues(A) -> np.ndarray:
    """All eigenvalues of a real square matrix, as a complex array."""
    A = as_matrix(A, "A")
    _require_square(A, "A")
    return _lapack(np.linalg.eigvals, A).astype(complex)


def real_spectral_abscissa(A) -> float:
    """max Re(lambda) over the spectrum of a square real matrix."""
    return float(np.max(eigenvalues(A).real))


#: most steps of the sign iteration; with its scaling a pole 1e-4 from the axis takes under 10
SIGN_STEPS = 60


def solve_lyapunov(F, W) -> np.ndarray:
    """Solve F X + X F^T = W for Hurwitz F (n x n) and any W (n x n).

    Scaled Newton iteration for the matrix sign function (Roberts 1980;
    Benner & Quintana-Orti 1999): from (A, C) = (F, -W),
    A <- (mu A + A^-1 / mu) / 2 and C <- (mu C + A^-1 C A^-T / mu) / 2 until
    A reaches -I; then X = C / 2.  Raises NumericsError that F is not
    Hurwitz when an iterate is singular or A does not reach -I in
    SIGN_STEPS steps, or when the residual exceeds 1e-8 of its scale.
    """
    F = as_matrix(F, "F")
    W = as_matrix(W, "W")
    _require_square(F, "F")
    n = F.shape[0]
    if W.shape != (n, n):
        raise NumericsError(f"W: expected shape {(n, n)}, got {W.shape}")

    a, c = F, -W
    eye, last = np.eye(n), False
    not_hurwitz = "F is not Hurwitz: the sign iteration did not reach -I"
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(SIGN_STEPS):
            try:
                a_inv = np.linalg.inv(a)
            except np.linalg.LinAlgError:  # a singular iterate
                raise NumericsError(not_hurwitz) from None
            # Frobenius-norm scaling mu, as up = mu / 2 and down = 1 / (2 mu),
            # but for the last step, which follows the first within 1e-8 of -I
            up = 0.5 if last else 0.5 * float(np.vdot(a_inv, a_inv) / np.vdot(a, a)) ** 0.25
            down = 0.25 / up
            c = c * up + (a_inv @ c @ a_inv.T) * down
            a = a * up + a_inv * down
            if last:
                break
            gap = a + eye
            last = np.vdot(gap, gap) <= 1e-16
        else:
            raise NumericsError(not_hurwitz)
    X = 0.5 * c

    resid = np.linalg.norm(F @ X + X @ F.T - W)
    scale = 2 * np.linalg.norm(F) * np.linalg.norm(X) + np.linalg.norm(W)
    if not resid <= 1e-8 * max(scale, 1e-300):
        raise NumericsError(f"Lyapunov residual {resid:.3e} > 1e-8 of its scale {scale:.3e}")
    return X


#: relative rank cutoff on Gram-matrix eigenvalues (squared singular values)
#: for pseudoinverse solves
PINV_RANK_RTOL = 1e-10


def _lstsq(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution pinv(A) @ b, with the singular
    values at or below sqrt(PINV_RANK_RTOL) * sigma_max counted as zero."""
    return _lapack(np.linalg.lstsq, A, b, rcond=np.sqrt(PINV_RANK_RTOL))[0]


class EqualityConstraint(NamedTuple):
    """An equality map E with the parts of one SVD E = U diag(s) V^T that
    `constrained_lstsq` reads: the singular triplets above its rank cutoff,
    and an orthonormal basis of the null space of E."""

    E: np.ndarray
    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray
    null_basis: np.ndarray


def equality_constraint(eq_map) -> EqualityConstraint:
    """eq_map validated and factored once, for `constrained_lstsq` to use
    in every problem that shares it; the rank cutoff is _lstsq's."""
    E = as_matrix(eq_map, "eq_map")
    u, s, vt = _lapack(np.linalg.svd, E)
    rank = int(np.count_nonzero(s > np.sqrt(PINV_RANK_RTOL) * s[0]))
    return EqualityConstraint(E, u[:, :rank], s[:rank], vt[:rank], vt[rank:].T)


def constrained_lstsq(obj_map, obj_rhs, eq_map=None, eq_rhs=None) -> np.ndarray:
    """Minimize ||obj_map @ x - obj_rhs|| subject to eq_map @ x = eq_rhs.

    Null-space method: a particular solution of the equality system comes
    from the pseudoinverse (rank cutoff PINV_RANK_RTOL relative to the
    largest Gram eigenvalue), the objective is then minimized over the orthonormal
    null-space basis.  Among objective minimizers the minimum-norm point is
    returned.  Passing eq_map=None solves the unconstrained problem.  With
    one column per problem in obj_rhs and eq_rhs, one factorization solves
    them all, one column of the result each; an eq_map given as its
    `equality_constraint` is not factored again.
    """
    A = as_matrix(obj_map, "obj_map")
    c = _rhs(obj_rhs, A.shape[0], "obj_rhs")
    d = A.shape[1]

    factored = isinstance(eq_map, EqualityConstraint)
    if not factored and (eq_map is None or np.size(eq_map) == 0):
        return _lstsq(A, c)

    # one SVD of E gives the particular solution and the null-space basis
    eq = eq_map if factored else equality_constraint(eq_map)
    E = eq.E
    b = _rhs(np.zeros(E.shape[:1] + c.shape[1:]) if eq_rhs is None else eq_rhs,
             E.shape[0], "eq_rhs")
    if E.shape[1] != d or b.shape[1:] != c.shape[1:]:
        raise NumericsError(f"eq_map, eq_rhs: shapes {E.shape}, {b.shape} do not fit "
                            f"{d} unknowns and obj_rhs {c.shape}")

    x_part = eq.vt.T @ ((eq.u.T @ b).T / eq.s).T
    null_basis = eq.null_basis
    resid, scale = np.linalg.norm(E @ x_part - b), np.linalg.norm(b)
    if resid > 1e-8 * max(scale, 1e-300):
        raise NumericsError(
            f"inconsistent equality constraints: residual {resid:.3e} vs ||rhs|| {scale:.3e}"
        )
    if null_basis.shape[1] == 0:
        return x_part
    z = _lstsq(A @ null_basis, c - A @ x_part)
    return x_part + null_basis @ z
