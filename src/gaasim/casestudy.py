"""Embedded double-integrator case study.

Concrete plant: position/velocity double integrator with acceleration
input and position output.  Abstract model: single integrator whose input
is the commanded velocity.  The weight matrix, stabilizing gain, and decay
rate are fixed study values; the couplings resolve to P = [1; 0],
S = [0; 1], Q = R = 0.

Two scenarios are bundled:

* a switched-feedback run where the abstract controller uhat = -k xhat is
  deliberately discontinuous across four gain regions, exercising the jump
  budget; its envelope declares the bounds the policy actually attains, so
  the runtime checks (including every region-crossing jump) are meaningful;
* an open-loop ramp run (uhat = 0.02 t, then 1) used to compare the full
  interface against the classical S = 0 baseline, which loses the output
  bound on the same scenario.

The study values also quote an input-rate allowance of 0.0486; the
feasibility arithmetic at that allowance (budget ~0.0999, decay ratio
~0.3996) is reported separately from the runtime envelope.  Note the
published figure 0.1 matches the *budget* rbar_max, not the rate gain
rbar3 = sqrt(4.2262) ~ 2.0558; the report surfaces both numbers.
"""

from __future__ import annotations

import copy

#: input-rate allowance used by the quoted feasibility arithmetic
STUDY_UHATDOT_ALLOWANCE = 0.0486

#: default switched horizon (it covers the three crossings), ramp horizon cap and step
HORIZON, RAMP_HORIZON, STEP = 1000.0, 200.0, 1e-3

#: quoted reference values with acceptance windows
EXPECTED = {
    "input_bound": (0.5685, 0.5695),
    "rbar_max_allowance": (0.0995, 0.1003),
    "decay_ratio_allowance": (0.398, 0.401),
}

_SYSTEMS = {
    "concrete": {
        "A": [[0.0, 1.0], [0.0, 0.0]],
        "B": [[0.0], [1.0]],
        "C": [[1.0, 0.0]],
        "input_ball_radius": 0.57,
        "x0_box": [[40.0, 40.0], [-0.0401, -0.0401]],
    },
    "abstract": {
        "A": [[0.0]],
        "B": [[1.0]],
        "C": [[1.0]],
        "x0_box": [[40.1, 40.1]],
    },
}

_GAINS = {
    "M": [[3.9544, 1.1805], [1.1805, 4.2262]],
    "K": [[-1.3298, -1.4108]],
    "a1": 0.5,
    "epsilon": 0.5,
}


def _scenario(horizon: float, step: float, x0: list[float]) -> dict:
    """The scenario section of both studies: the study gains, the run and its start."""
    return {**copy.deepcopy(_GAINS), "horizon": horizon, "step": step, "x0": x0, "xhat0": [40.1]}


def switched_config(horizon: float = HORIZON, step: float = STEP) -> dict:
    """Switched-feedback scenario (region gains 0.001 / 0.0013 / 0.002 / 0.004).

    The three region crossings happen near t ~ 290, 600, 950 s, so the
    default horizon covers all of them.  The envelope declares what the
    closed loop actually attains: |uhat| <= 0.001 * 40.1, |duhat/dt| =
    k^2 |xhat| <= 0.004^2 * 10 = 1.6e-4 (declared 2e-4 with margin).
    """
    cfg = copy.deepcopy(_SYSTEMS)
    cfg["envelope"] = {"xhat_max": 41.0, "uhat_max": 0.05, "uhatdot_max": 2.0e-4}
    cfg["policy"] = {
        "kind": "switched_feedback",
        "regions": [
            {"box": [[30.0, 40.1]], "gain": [[0.001]]},
            {"box": [[20.0, 30.0]], "gain": [[0.0013]]},
            {"box": [[10.0, 20.0]], "gain": [[0.002]]},
            {"box": [[0.0, 10.0]], "gain": [[0.004]]},
        ],
    }
    cfg["scenario"] = _scenario(horizon, step, [40.0, -0.0401])
    return cfg


def ramp_config(horizon: float = RAMP_HORIZON, step: float = STEP) -> dict:
    """Open-loop comparison scenario: uhat = 0.02 t on [0, 50], then 1.

    The ramp value is continuous at t = 50 (only its slope jumps), so the
    run has no input jumps.  The concrete start [40, 0], which is also its
    (point) initial box, matches uhat(0) = 0;
    the abstract state grows to ~40.1 + 25 + (horizon - 50), which sizes the
    envelope bound on ||xhat||.
    """
    cfg = copy.deepcopy(_SYSTEMS)
    cfg["concrete"]["x0_box"] = [[40.0, 40.0], [0.0, 0.0]]
    xhat_peak = 40.1 + 25.0 + max(0.0, horizon - 50.0)
    cfg["envelope"] = {
        "xhat_max": xhat_peak * 1.01,
        "uhat_max": 1.0,
        "uhatdot_max": 0.02,
    }
    cfg["policy"] = {
        "kind": "open_loop",
        "segments": [
            {"t_start": 0.0, "t_end": 50.0, "coeffs": [[0.0, 0.02]]},
            {"t_start": 50.0, "t_end": max(horizon, 50.0) + 1.0, "coeffs": [[1.0]]},
        ],
    }
    cfg["scenario"] = _scenario(horizon, step, [40.0, 0.0])
    return cfg
