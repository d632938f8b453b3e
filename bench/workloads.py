"""Inputs, operations and correctness gates of the four benchmark workloads.

Each ``setup_*`` function builds a workload's inputs from the seed (the
program receives only these inputs, never the seed) and returns the list
of operations of one pass, a clean-up callable and, for ``casestudy``, the
size of the files written.  An operation calls
the program through module attributes (``synthesis.synthesize_gains``,
``sim.simulate_calibrated``) so that the tracer's wrappers see the calls;
its judge runs after the timed call, calls no program function, and turns
the result into verdicts and determinism fingerprints.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from gaasim import casestudy, cli, model, refine, sim, synthesis

EPSILON = 0.5

#: smoke mode: short study runs, n <= 8, a few sweep scenarios
SMOKE_STUDY = {"horizon": 1000.0, "step": 0.05}
SMOKE_RAMP = {"horizon": 200.0, "step": 0.05}
SYNTH_SIZES = (2, 8, 16, 32)
SMOKE_SYNTH_SIZES = (2, 4, 8)
SWEEP_SCENARIOS = 100
SMOKE_SWEEP_SCENARIOS = 5
SWEEP_HORIZON = 6.0
SWEEP_STEP = 2e-3


@dataclass
class Verdict:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Op:
    """One timed call into the program and the verdicts it settles."""

    name: str
    run: Callable[[], object]
    judge: Callable[[object], tuple[list[Verdict], dict]]
    verdict_names: tuple[str, ...]


@dataclass
class Setup:
    ops: list[Op]
    cleanup: Callable[[], None] = lambda: None
    artifacts: Callable[[], float] = lambda: 0.0


def sha256_arrays(*arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _gains_fingerprint(gains) -> dict:
    return {
        "input_bound": gains.input_bound,
        "rbar1": gains.rbar1,
        "rbar2": gains.rbar2,
        "rbar3": gains.rbar3,
    }


def _run_fingerprint(record, verdict) -> dict:
    return {
        "max_output_error": verdict.max_output_error,
        "max_vg": verdict.max_vg,
        "jumps": [[j.lhs, j.rhs] for j in record.jumps],
        "record_sha256": sha256_arrays(
            record.t, record.x, record.xhat, record.uhat, record.u, record.vg
        ),
    }


# -- casestudy: `gaasim casestudy` with the defaults ---------------------------

#: casestudy_summary.json checks settled by each study run
_CASESTUDY_CHECKS = {
    "switched": (
        "assumption_report_passed", "input_bound_in_window", "rbar1_zero",
        "rbar2_zero", "allowance_rbar_max_in_window",
        "allowance_decay_ratio_in_window", "switched_verification_passed",
        "switched_jumps_all_pass",
    ),
    "ramp_gaas": ("ramp_gaas_within_epsilon",),
    "ramp_s_zero": ("ramp_baseline_exceeds_epsilon",),
}


def setup_casestudy(seed: int, smoke: bool, scratch: Path) -> Setup:
    scratch.mkdir(parents=True, exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix="casestudy-", dir=scratch))
    argv = ["casestudy", "--out", str(out)]
    if smoke:
        argv += ["--horizon", str(SMOKE_STUDY["horizon"]), "--step", str(SMOKE_STUDY["step"])]

    def run():
        # the CLI prints its table; keep the worker's stdout for the result
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def judge(code):
        summary = json.loads((out / "casestudy_summary.json").read_text(encoding="utf-8"))
        checks = summary["checks"]
        verdicts = []
        for name, keys in _CASESTUDY_CHECKS.items():
            failed = [k for k in keys if not checks.get(k, False)]
            if code != 0:
                failed.append(f"exit code {code}")
            verdicts.append(Verdict(name, not failed, ", ".join(failed)))
        with open(out / "jumps_switched.csv", newline="", encoding="utf-8") as fh:
            jumps = [[float(r["lhs"]), float(r["rhs"])] for r in csv.DictReader(fh)]
        fingerprint = {
            "input_bound": summary["input_bound"],
            "rbar1": summary["rbar1"],
            "rbar2": summary["rbar2"],
            "rbar3": summary["rbar3"],
            "switched": {
                "max_output_error": summary["switched"]["max_output_error"],
                "max_vg": summary["switched"]["max_vg"],
                "jumps": jumps,
            },
            "ramp": {
                label: {k: values[k] for k in ("max_output_error", "max_vg")}
                for label, values in summary["ramp_compare"].items()
            },
            "csv_sha256": {
                p.name: sha256_file(p) for p in sorted(out.glob("trajectory_*.csv"))
            },
        }
        return verdicts, fingerprint

    def artifacts():
        return sum(p.stat().st_size for p in out.iterdir() if p.is_file()) / 1e6

    return Setup(
        ops=[Op("casestudy", run, judge, tuple(_CASESTUDY_CHECKS))],
        cleanup=lambda: shutil.rmtree(out, ignore_errors=True),
        artifacts=artifacts,
    )


# -- cosim: the three study runs through the library, no artifacts ------------


def _study_run(sc, force_s_zero: bool) -> dict:
    gains = synthesis.synthesize_gains(
        sc.concrete, sc.abstract, sc.K, sc.a1, sc.epsilon, sc.envelope,
        M=sc.M, force_s_zero=force_s_zero,
    )
    synthesis.check_assumption(sc.concrete, sc.abstract, gains, sc.envelope, policy=sc.policy)
    rbar_max, _, _ = synthesis.feasibility(
        gains.rbar1, gains.rbar2, gains.rbar3, sc.envelope, gains.a1, gains.epsilon
    )
    record = sim.simulate_calibrated(
        sc.concrete, sc.abstract, gains, sc.policy, sc.x0, sc.xhat0,
        sc.horizon, sc.step, rbar_max=rbar_max, epsilon=sc.epsilon,
    )
    verdict = sim.verify_trajectory(
        record, gains, sc.epsilon, sc.envelope, sc.b_U, rbar_max
    )
    return {"gains": gains, "record": record, "verdict": verdict, "epsilon": sc.epsilon}


def _cosim_judge(label: str):
    def judge(result):
        verdict = result["verdict"]
        eps = result["epsilon"]
        if label == "switched":
            ok = verdict.passed and verdict.jumps_total == 3 and verdict.jumps_passed == 3
            detail = f"passed={verdict.passed} jumps {verdict.jumps_passed}/{verdict.jumps_total}"
        elif label == "ramp_gaas":
            ok = verdict.max_output_error <= eps
            detail = f"max_output_error {verdict.max_output_error:.6g} <= {eps}"
        else:
            ok = verdict.max_output_error > eps
            detail = f"max_output_error {verdict.max_output_error:.6g} > {eps}"
        fingerprint = _gains_fingerprint(result["gains"])
        fingerprint.update(_run_fingerprint(result["record"], verdict))
        return [Verdict(label, bool(ok), "" if ok else detail)], fingerprint

    return judge


def setup_cosim(seed: int, smoke: bool, scratch: Path) -> Setup:
    study = SMOKE_STUDY if smoke else {}
    ramp = SMOKE_RAMP if smoke else {}
    switched_sc = model.parse_config(casestudy.switched_config(**study))
    ramp_sc = model.parse_config(casestudy.ramp_config(**ramp))
    ops = []
    for label, sc, force in (
        ("switched", switched_sc, False),
        ("ramp_gaas", ramp_sc, False),
        ("ramp_s_zero", ramp_sc, True),
    ):
        ops.append(Op(label, lambda sc=sc, force=force: _study_run(sc, force),
                      _cosim_judge(label), (label,)))
    return Setup(ops)


# -- synth: random stabilizable pairs, synthesis and condition checks ----------


def _synth_pair(rng: np.random.Generator, n: int):
    """A stable pair (A, B, K) with n_r = m = p = m_r = max(1, n/4), a
    full-row-rank output map and a stable abstraction."""
    k = max(1, n // 4)
    while True:
        g = rng.standard_normal((n, n)) / math.sqrt(n)
        a = g - (np.max(np.linalg.eigvals(g).real) + rng.uniform(0.3, 1.0)) * np.eye(n)
        b = rng.standard_normal((n, k)) / math.sqrt(n)
        gain = 0.3 * rng.standard_normal((k, n)) / math.sqrt(n)
        if np.max(np.linalg.eigvals(a + b @ gain).real) < -0.1:
            break
    concrete = model.ConcreteLinearSystem(
        A=a, B=b, C=rng.standard_normal((k, n)) / math.sqrt(n),
        input_ball_radius=1e6,
        initial_state_set=model.Box(-1e6 * np.ones(n), 1e6 * np.ones(n)),
    )
    abstract = model.AbstractLinearSystem(
        A=-np.diag(rng.uniform(0.1, 1.0, k)),
        B=rng.standard_normal((k, k)),
        C=rng.standard_normal((k, k)),
        initial_state_set=model.Box(-np.ones(k), np.ones(k)),
    )
    return concrete, abstract, gain, float(rng.uniform(0.3, 0.7))


def _synth_op(concrete, abstract, gain, a1_frac: float) -> dict:
    a1 = a1_frac * synthesis.max_feasible_a1(concrete.A, concrete.B, gain)
    probe = model.OperatingEnvelope(1.0, 1.0, 1.0)
    gains = synthesis.synthesize_gains(concrete, abstract, gain, a1, EPSILON, probe)
    # the envelope enters only the budget and the input bound: scale it so
    # the budget 2 rbar_max / a1 uses half of epsilon
    level = 0.5 * (a1 * EPSILON / 2.0) / max(gains.rbar1 + gains.rbar2 + gains.rbar3, 1e-300)
    envelope = model.OperatingEnvelope(level, level, level)
    report = synthesis.check_assumption(concrete, abstract, gains, envelope)
    return {"gains": gains, "report": report}


def _synth_judge(name: str):
    def judge(result):
        report = result["report"]
        failed = [r.name for r in report.records if not r.passed]
        fingerprint = _gains_fingerprint(result["gains"])
        fingerprint["lambda_min_M"] = result["gains"].lambda_min_M
        fingerprint["records"] = {r.name: r.value for r in report.records}
        return [Verdict(name, not failed, ", ".join(failed))], fingerprint

    return judge


def setup_synth(seed: int, smoke: bool, scratch: Path) -> Setup:
    rng = np.random.default_rng([seed, 1])
    ops = []
    for n in SMOKE_SYNTH_SIZES if smoke else SYNTH_SIZES:
        args = _synth_pair(rng, n)
        name = f"n{n}"
        ops.append(Op(name, lambda args=args: _synth_op(*args), _synth_judge(name), (name,)))
    return Setup(ops)


# -- sweep: many short open-loop scenarios with one value jump -----------------


def _sweep_spec(rng: np.random.Generator) -> dict:
    """Random stable closed loop, 1-state abstraction and the raw draws of
    a two-segment cubic policy; the pass scales the abstract side."""
    n = int(rng.integers(2, 4))
    while True:
        b = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        if abs(np.linalg.det(b)) > 0.2:
            break
    a = rng.standard_normal((n, n))
    target = rng.standard_normal((n, n))
    target -= (np.max(np.linalg.eigvals(target).real) + rng.uniform(0.7, 1.3)) * np.eye(n)
    c = rng.standard_normal((1, n))
    concrete = model.ConcreteLinearSystem(
        A=a, B=b, C=c / np.linalg.norm(c), input_ball_radius=1e6,
        initial_state_set=model.Box(-1e3 * np.ones(n), 1e3 * np.ones(n)),
    )
    abstract = model.AbstractLinearSystem(
        A=[[-float(rng.uniform(0.0, 0.4))]], B=[[1.0]],
        C=[[float(rng.uniform(0.5, 1.5))]],
        initial_state_set=model.Box([-1.0], [1.0]),
    )
    return {
        "concrete": concrete,
        "abstract": abstract,
        "K": np.linalg.solve(b, target - a),
        "a1_frac": float(rng.uniform(0.4, 0.7)),
        "base": rng.uniform(-1.0, 1.0, size=4),
        "xhat0": rng.uniform(-0.5, 0.5, size=1),
        "delta": float(rng.uniform(-1.0, 1.0)),
        "e0_dir": rng.standard_normal(n),
        "e0_frac": float(rng.uniform(0.0, 0.3)),
    }


def _sweep_op(spec: dict) -> dict:
    concrete, abstract, gain = spec["concrete"], spec["abstract"], spec["K"]
    a1 = spec["a1_frac"] * synthesis.max_feasible_a1(concrete.A, concrete.B, gain)
    probe = model.OperatingEnvelope(1.0, 1.0, 1.0)
    gains = synthesis.synthesize_gains(concrete, abstract, gain, a1, EPSILON, probe)

    # closed-form suprema of |uhat|, |duhat/dt| and ||xhat|| (the abstract
    # pole is stable); the abstract side is linear, so scaling it by sigma
    # makes the budget use 30 % of the admissible disturbance level
    powers = SWEEP_HORIZON ** np.arange(4)
    base = spec["base"]
    uhat_sup = float(np.abs(base) @ powers) + 1.0  # +1 covers the jump
    uhatdot_sup = float(np.abs(base[1:]) @ (np.arange(1, 4) * powers[:3]))
    xhat_sup = float(abs(spec["xhat0"][0])) + SWEEP_HORIZON * uhat_sup
    rbar_bound = gains.rbar1 * xhat_sup + gains.rbar2 * uhat_sup + gains.rbar3 * uhatdot_sup
    sigma = min(1.0, 0.3 * (a1 * EPSILON / 2.0) / max(rbar_bound, 1e-12))
    shifted = sigma * base
    shifted[0] += sigma * spec["delta"]
    half = SWEEP_HORIZON / 2
    policy = model.AbstractInputPolicy(
        kind="open_loop",
        segments=(
            model.OpenLoopSegment(t_start=0.0, t_end=half, coeffs=[list(sigma * base)]),
            model.OpenLoopSegment(t_start=half, t_end=SWEEP_HORIZON, coeffs=[list(shifted)]),
        ),
    )
    envelope = model.OperatingEnvelope(sigma * xhat_sup, sigma * uhat_sup, sigma * uhatdot_sup)
    synthesis.check_assumption(concrete, abstract, gains, envelope, policy=policy)

    xhat0 = sigma * spec["xhat0"]
    uhat0, _, _ = sim.eval_policy(policy, abstract, 0.0, xhat0)
    e0 = np.linalg.inv(gains.M_sqrt) @ spec["e0_dir"]
    e0 *= spec["e0_frac"] * EPSILON / math.sqrt(e0 @ gains.M @ e0)
    x0 = refine.lift_initial(xhat0, uhat0, gains) + e0
    rbar_max, _, _ = synthesis.feasibility(
        gains.rbar1, gains.rbar2, gains.rbar3, envelope, a1, EPSILON
    )
    record = sim.simulate_calibrated(
        concrete, abstract, gains, policy, x0, xhat0, SWEEP_HORIZON, SWEEP_STEP,
        rbar_max=rbar_max,
    )
    # the decay bound is judged against the realized suprema, so the budget
    # genuinely bounds the disturbance along the run
    realized = model.OperatingEnvelope(
        xhat_max=float(np.max(np.linalg.norm(record.xhat, axis=1))) * (1 + 1e-9),
        uhat_max=float(np.max(np.linalg.norm(record.uhat, axis=1))) * (1 + 1e-9),
        uhatdot_max=float(np.max(np.linalg.norm(record.uhatdot, axis=1))) * (1 + 1e-9),
    )
    rmax, _, feasible = synthesis.feasibility(
        gains.rbar1, gains.rbar2, gains.rbar3, realized, a1, EPSILON
    )
    verdict = sim.verify_trajectory(
        record, gains, EPSILON, realized, concrete.input_ball_radius, rmax
    )
    return {"gains": gains, "record": record, "verdict": verdict, "feasible": feasible}


def _sweep_judge(name: str):
    def judge(result):
        verdict = result["verdict"]
        ok = result["feasible"] and verdict.decay_violations == 0
        detail = f"feasible={result['feasible']} decay_violations={verdict.decay_violations}"
        fingerprint = _gains_fingerprint(result["gains"])
        fingerprint.update(_run_fingerprint(result["record"], verdict))
        return [Verdict(name, bool(ok), "" if ok else detail)], fingerprint

    return judge


def setup_sweep(seed: int, smoke: bool, scratch: Path) -> Setup:
    rng = np.random.default_rng([seed, 2])
    ops = []
    for i in range(SMOKE_SWEEP_SCENARIOS if smoke else SWEEP_SCENARIOS):
        spec = _sweep_spec(rng)
        name = f"s{i:03d}"
        ops.append(Op(name, lambda spec=spec: _sweep_op(spec), _sweep_judge(name), (name,)))
    return Setup(ops)


SETUPS = {
    "casestudy": setup_casestudy,
    "cosim": setup_cosim,
    "synth": setup_synth,
    "sweep": setup_sweep,
}
