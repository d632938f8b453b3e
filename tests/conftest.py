import io
import math

import numpy as np
import pytest

from gaasim import casestudy, sim
from gaasim import numerics as nx
from gaasim.model import (
    AbstractLinearSystem,
    Box,
    ConcreteLinearSystem,
    OpenLoopSegment,
    OperatingEnvelope,
    parse_config,
)
from gaasim.synthesis import _weight, synthesize_gains

# double-integrator study values (weight, stabilizing gain, decay rate)
M5 = np.array([[3.9544, 1.1805], [1.1805, 4.2262]])
K5 = np.array([[-1.3298, -1.4108]])
A1_5 = 0.5
EPS5 = 0.5


def m_root(M) -> np.ndarray:
    """M^{1/2}, as a gains bundle derives it from M."""
    return _weight(M)[0]


def kron_coupling(A, B, C, M_sqrt, G, W, H, x_free=True):
    """(X, Y) of `synthesis._coupling`'s problem, solved through its dense
    Kronecker operator by the same constrained least squares."""
    n, m, k = A.shape[0], B.shape[1], G.shape[0]
    eye, vec = np.eye(k), (lambda a: a.reshape(-1, order="F"))
    on_y = np.kron(eye, M_sqrt @ B)
    if not x_free:
        return np.zeros((n, k)), nx.constrained_lstsq(on_y, vec(M_sqrt @ W)).reshape(
            (m, k), order="F")
    obj = np.hstack([np.kron(eye, M_sqrt @ A) - np.kron(G.T, M_sqrt), on_y])
    eq = np.hstack([np.kron(eye, C), np.zeros((C.shape[0] * k, m * k))])
    sol = nx.constrained_lstsq(obj, vec(M_sqrt @ W), eq, vec(H))
    return sol[: n * k].reshape((n, k), order="F"), sol[n * k :].reshape((m, k), order="F")


def csv_text(record) -> str:
    """The trajectory CSV of `record`, as `sim.write_trajectory_csv` writes it."""
    with io.BytesIO() as f:
        sim.write_trajectory_csv(record, f)
        return f.getvalue().decode("ascii")


RECORD_ARRAYS = ("t", "x", "xhat", "uhat", "uhatdot", "u", "y", "yhat", "vg", "err")


def under_row_blocks(monkeypatch, run):
    """run() with `sim` blocking its row-local formulas by 1,000 rows, and
    with one block over every row."""
    results = []
    for rows in (1000, 1 << 40):
        monkeypatch.setattr(sim, "_BLOCK_ROWS", rows)
        results.append(run())
    return results


#: the record columns formed on each read, as `sim._formed` names them
FORMED_COLUMNS = ("uhat", "uhatdot", "u", "y", "yhat", "err")


def assert_formed_by_blocks(monkeypatch, record) -> None:
    """Each formed column of `record`, and `vg` formed as `simulate` forms
    it, has the same bits with `sim` forming it in blocks of 7 rows and of
    1,000 rows as in one block over every row: every per-row product is
    summed left to right, so a row's bits do not depend on its block."""
    monkeypatch.setattr(sim, "_BLOCK_ROWS", 1 << 40)
    whole = {name: getattr(record, name) for name in FORMED_COLUMNS}
    whole["vg"] = record._column("vg")
    assert whole["vg"].tobytes() == record.vg.tobytes()
    for rows in (7, 1000):
        monkeypatch.setattr(sim, "_BLOCK_ROWS", rows)
        assert record.t.size > 2 * rows
        for name in (*FORMED_COLUMNS, "vg"):
            a = record._column("vg") if name == "vg" else getattr(record, name)
            assert a.flags.f_contiguous and a.shape == whole[name].shape, (rows, name)
            assert a.tobytes("F") == whole[name].tobytes("F"), (rows, name)


def assert_same_bits(blocked, whole) -> None:
    """Two (record, verify_trajectory report) pairs hold the same bits."""
    (rec, report), (ref, ref_report) = blocked, whole
    for name in RECORD_ARRAYS:
        a, b = getattr(rec, name), getattr(ref, name)
        assert a.flags.f_contiguous and a.tobytes("F") == b.tobytes("F"), name
    assert rec.decay_slack == ref.decay_slack
    assert report.to_dict() == ref_report.to_dict()


def exact_vg(record, extra_squarings: int = 0) -> np.ndarray:
    """vg_exact of `record` at every row, in np.longdouble, as `sim.simulate`
    defines it: the exact flow of the recorded regime sequence, restarted
    from the recorded state at the first row of each decay window (a jump
    row opens one), each step from row k to row k + 1 under the regime of
    row k.  A step of length dt maps w = [z; p] by exp(dt G), with G the
    regime's generator: a region's closed loop on w = z, or a segment's Van
    Loan generator on p_i = (t - t_start)^i / i!, which carries its drive
    exactly.  exp is the Taylor series of dt G / 2^s, squared s times, where
    s is the least with |dt G / 2^s|_1 <= 1/2, plus `extra_squarings`."""
    ld = np.longdouble
    con, ab, g, policy = record.concrete, record.abstract, record.gains, record.policy
    A, B, Ah, Bh, K, P, Q, R, S, M = (np.asarray(v, dtype=ld) for v in (
        con.A, con.B, ab.A, ab.B, g.K, g.P, g.Q, g.R, g.S, g.M))
    n, nz = con.n, con.n + ab.n_r
    F = np.block([[A + B @ K, B @ (Q - K @ P)], [np.zeros((ab.n_r, n), ld), Ah]])
    N = np.vstack([B @ (R - K @ S), Bh])
    t, z = record.t.astype(ld), record.z.astype(ld)
    regime = np.empty(t.size, dtype=int)
    for a, b, index in record.runs:
        regime[a:b] = index

    def generator(index):
        """G and the tail p(t) of w, one row per time, of regime `index`."""
        item = policy.regimes[index]
        if not isinstance(item, OpenLoopSegment):
            return F - N @ np.asarray(item.gain, ld) @ np.eye(nz, dtype=ld)[n:], None
        size, origin = item.coeffs.shape[1], ld(item.t_start)
        shift = np.array([[math.comb(i, k) for k in range(size)] for i in range(size)], ld)
        shift *= origin ** np.maximum(np.subtract.outer(np.arange(size), np.arange(size)), 0)
        fact = np.array([math.factorial(i) for i in range(size)], ld)
        gen = np.zeros((nz + size, nz + size), ld)
        gen[:nz, :nz] = F
        gen[:nz, nz:] = N @ ((np.asarray(item.coeffs, ld) @ shift) * fact)
        gen[nz + 1 :, nz:-1] = np.eye(size - 1, dtype=ld)
        return gen, lambda times: (times[:, None] - origin) ** np.arange(size) / fact

    def expm(a):
        norm = float(np.abs(a).sum(axis=0).max())
        s = (math.ceil(math.log2(2 * norm)) if norm > 0.5 else 0) + extra_squarings
        b, eye = a / ld(2) ** s, np.eye(len(a), dtype=ld)
        out = eye
        for k in range(24, 0, -1):  # Horner: |b| <= 1/2 leaves 2^-25 / 25!
            out = eye + b @ out / k
        for _ in range(s):
            out = out @ out
        return out

    gens = {index: generator(index) for index in set(regime.tolist())}
    tails = {index: tail(t) for index, (_, tail) in gens.items() if tail is not None}
    maps, exact = {}, np.empty_like(z)
    starts = set(np.searchsorted(record.t, [record.t[0], *(j.time for j in record.jumps)]).tolist())
    for k in range(t.size):
        if k in starts:
            exact[k] = z[k]
            continue
        index, dt = int(regime[k - 1]), t[k] - t[k - 1]
        step = maps.get((index, dt))
        if step is None:  # the z rows of the step's map
            step = maps[index, dt] = expm(dt * gens[index][0])[:nz]
        w = exact[k - 1] if index not in tails else np.concatenate([exact[k - 1], tails[index][k - 1]])
        exact[k] = step @ w
    x, xhat = exact[:, :n], exact[:, n:]
    uhat = np.empty((t.size, ab.m_r), ld)
    for a, b, index in record.runs:
        item = policy.regimes[index]
        if isinstance(item, OpenLoopSegment):
            uhat[a:b] = (t[a:b, None] ** np.arange(item.coeffs.shape[1])) @ np.asarray(
                item.coeffs, ld).T
        else:
            uhat[a:b] = -xhat[a:b] @ np.asarray(item.gain, ld).T
    e = x - xhat @ P.T - uhat @ S.T
    return np.sqrt(np.einsum("ij,jk,ik->i", e, M, e))


def condition(report, name: str):
    """The record `name` of a `check_assumption` report."""
    return next(r for r in report.records if r.name == name)


def point_box(values) -> Box:
    v = np.asarray(values, dtype=float)
    return Box(v, v)


def box_study(x0_box, xhat0_box, epsilon: float, horizon: float = 320.0, step: float = 5e-3):
    """The switched study with the initial boxes `x0_box` and `xhat0_box` and
    `epsilon`, started from the abstract box's lower corner and the point of
    the concrete box nearest [xhat0, 0]."""
    cfg = casestudy.switched_config(horizon=horizon, step=step)
    cfg["concrete"]["x0_box"], cfg["abstract"]["x0_box"] = x0_box, xhat0_box
    xhat0 = [lo for lo, _ in xhat0_box]
    x0 = Box(*zip(*x0_box)).clamp([xhat0[0], 0.0]).tolist()
    cfg["scenario"].update(epsilon=epsilon, xhat0=xhat0, x0=x0)
    return parse_config(cfg)


@pytest.fixture
def sys5():
    concrete = ConcreteLinearSystem(
        A=[[0.0, 1.0], [0.0, 0.0]],
        B=[[0.0], [1.0]],
        C=[[1.0, 0.0]],
        input_ball_radius=0.57,
        initial_state_set=point_box([40.0, -0.0401]),
    )
    abstract = AbstractLinearSystem(
        A=[[0.0]],
        B=[[1.0]],
        C=[[1.0]],
        initial_state_set=point_box([40.1]),
    )
    return concrete, abstract


@pytest.fixture
def env5():
    # bounds the switched policy actually attains (plus margin)
    return OperatingEnvelope(xhat_max=41.0, uhat_max=0.05, uhatdot_max=2.0e-4)


@pytest.fixture
def gains5(sys5, env5):
    concrete, abstract = sys5
    return synthesize_gains(concrete, abstract, K5, A1_5, EPS5, env5, M=M5)
