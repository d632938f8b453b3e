import io

import numpy as np
import pytest

from gaasim import sim
from gaasim.model import (
    AbstractLinearSystem,
    Box,
    ConcreteLinearSystem,
    OperatingEnvelope,
)
from gaasim.synthesis import synthesize_gains

# double-integrator study values (weight, stabilizing gain, decay rate)
M5 = np.array([[3.9544, 1.1805], [1.1805, 4.2262]])
K5 = np.array([[-1.3298, -1.4108]])
A1_5 = 0.5
EPS5 = 0.5


def csv_text(record) -> str:
    """The trajectory CSV of `record`, as `sim.write_trajectory_csv` writes it."""
    with io.BytesIO() as f:
        sim.write_trajectory_csv(record, f)
        return f.getvalue().decode("ascii")


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
