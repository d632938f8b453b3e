import io

import numpy as np
import pytest

from gaasim import numerics as nx
from gaasim import sim
from gaasim.model import (
    AbstractLinearSystem,
    Box,
    ConcreteLinearSystem,
    OperatingEnvelope,
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


def condition(report, name: str):
    """The record `name` of a `check_assumption` report."""
    return next(r for r in report.records if r.name == name)


def point_box(values) -> Box:
    v = np.asarray(values, dtype=float)
    return Box(v, v)


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
