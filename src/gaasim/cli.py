"""Command-line entry point.

Subcommands
    synthesize   config -> gains.json + report.json + manifest.json
    simulate     config + gains -> trajectory.npz + jumps.csv + verify.json
    compare      config -> paired runs (full interface vs forced S = 0)
    casestudy    embedded double-integrator study, end to end

Exit codes: 0 pass, 1 check/verification failure, 2 usage/config error
(including a run too large to sample in memory).
All reports are machine-readable JSON; the printed tables render the same
data.  The layout of each run's arrays in trajectory.npz is documented in
the README.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__, casestudy, sim, synthesis
from .model import ConfigError, Scenario, emit_config, parse_config
from .numerics import NumericsError
from .synthesis import NotStabilizing, RefinementGains


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaasim",
        description="Synthesize, verify, and co-simulate approximate "
        "simulation relations between an LTI system and its abstraction.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_overrides(p, *names, with_config=True):  # names: the scalars it uses
        if with_config:
            p.add_argument("--config", required=True, metavar="JSON")
        p.add_argument("--out", required=True, metavar="DIR")
        for name in names:
            p.add_argument(f"--{name}", type=float, default=None)

    syn = sub.add_parser("synthesize", help="Compute gains and check every condition.")
    add_overrides(syn, "epsilon", "a1")
    syn.add_argument("--force-s-zero", action="store_true",
                     help="baseline interface with S = 0")

    simp = sub.add_parser("simulate", help="Co-simulate and verify one scenario.")
    add_overrides(simp, "epsilon", "step", "horizon")
    simp.add_argument("--gains", required=True, metavar="JSON")

    comp = sub.add_parser("compare", help="Run full interface vs S = 0 baseline.")
    add_overrides(comp, "epsilon", "a1", "step", "horizon")

    case = sub.add_parser("casestudy", help="Run the embedded case study end to end.")
    add_overrides(case, "epsilon", "a1", "step", "horizon", with_config=False)
    return parser


def _load_scenario(args) -> Scenario:
    scalars = {name: getattr(args, name, None) for name in ("epsilon", "a1", "step", "horizon")}
    return parse_config(Path(args.config).read_bytes(), **scalars)


def _digest(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _manifest(out: Path, command: str, digest: str, outputs: list[Path], started: float):
    payload = {
        "command": command,
        "config_digest": digest,
        "outputs": sorted(str(p) for p in outputs),
        "version": __version__,
        "duration_seconds": time.monotonic() - started,
    }
    return _write(out / "manifest.json", _json_text(payload))


def _rbar_max(gains: RefinementGains, scenario: Scenario) -> float:
    rbar_max, _, _ = synthesis.feasibility(
        gains.rbar1, gains.rbar2, gains.rbar3,
        scenario.envelope, gains.a1, gains.epsilon,
    )
    return rbar_max


def _synthesize_pipeline(scenario: Scenario, force_s_zero: bool):
    """(gains or None, ConditionReport).  Construction failures become a
    single failing record so the report is still written."""
    try:
        gains = synthesis.synthesize_gains(
            scenario.concrete, scenario.abstract, scenario.K, scenario.a1,
            scenario.epsilon, scenario.envelope, M=scenario.M,
            force_s_zero=force_s_zero,
        )
    except (NotStabilizing, NumericsError) as exc:
        record = synthesis.ConditionRecord(
            name="gains_constructible",
            value=float("inf"),
            tolerance=0.0,
            detail=f"{type(exc).__name__}: {exc}",
        )
        return None, synthesis.ConditionReport((record,))
    report = synthesis.check_assumption(
        scenario.concrete, scenario.abstract, gains, scenario.envelope,
        policy=scenario.policy,
    )
    return gains, report


def cmd_synthesize(args) -> int:
    started = time.monotonic()
    scenario = _load_scenario(args)
    out = Path(args.out)
    gains, report = _synthesize_pipeline(scenario, args.force_s_zero)
    outputs = [_write(out / "report.json", _json_text(report.to_dict()))]
    if gains is not None:
        outputs.append(_write(out / "gains.json", _json_text(gains.to_dict())))
    outputs.append(_manifest(out, "synthesize", _digest(emit_config(scenario)), outputs, started))
    for record in report.records:
        status = "pass" if record.passed else "FAIL"
        print(f"{status}  {record.name}: value={record.value:.6g} tol={record.tolerance:.6g}")
    print(f"overall: {'pass' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def _run(scenario: Scenario, gains: RefinementGains, out: Path, stem: str,
         outputs: list) -> sim.VerificationReport:
    """Simulate `scenario` under `gains` from its x0, or from the lifted
    start where it has none, verify the run, write trajectory{stem}.npz
    (the record's t, z, vg and runs, as they are in memory),
    jumps{stem}.csv and verify{stem}.json to `out`, append their paths to
    `outputs`, and return the verdict.  The record dies here, before the
    caller's next run, so a command holds one run at a time, as
    `sim._preflight` counts."""
    x0 = scenario.x0
    if x0 is None:
        x0, _ = synthesis.lifted_start(scenario.concrete, gains, scenario.policy, scenario.xhat0)
    rbar_max = _rbar_max(gains, scenario)
    if rbar_max == float("inf"):  # no decay or jump bound of the run could hold
        raise sim.SimulationError(f"the disturbance budget rbar_max overflows ({rbar_max})")
    record = sim.simulate(
        scenario.concrete, scenario.abstract, gains, scenario.policy,
        x0, scenario.xhat0, scenario.horizon, scenario.step,
        rbar_max=rbar_max, epsilon=scenario.epsilon,
    )
    verdict = sim.verify_trajectory(
        record, gains, scenario.epsilon, scenario.envelope,
        scenario.b_U, rbar_max,
    )
    path = out / f"trajectory{stem}.npz"
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, t=record.t, z=record.z, vg=record.vg,
             runs=np.array(record.runs, dtype=np.int64).reshape(-1, 3))
    jumps = _write(out / f"jumps{stem}.csv", sim.jumps_csv(record))
    outputs += [path, jumps, _write(out / f"verify{stem}.json", _json_text(verdict.to_dict()))]
    return verdict


def cmd_simulate(args) -> int:
    started = time.monotonic()
    scenario = _load_scenario(args)
    try:
        gains = RefinementGains.from_dict(json.loads(Path(args.gains).read_text(encoding="utf-8")))
    except ValueError as exc:
        raise ConfigError(f"gains file {args.gains}: {exc}") from exc
    bundle = (gains.M.shape[0], *gains.Q.shape, gains.S.shape[1])
    systems = (
        scenario.concrete.n, scenario.concrete.m, scenario.abstract.n_r, scenario.abstract.m_r
    )
    if bundle != systems:
        raise ConfigError(
            f"gains dimensions (n, m, n_r, m_r) = {bundle} do not match the "
            f"configured systems {systems}"
        )
    out, outputs = Path(args.out), []
    verdict = _run(scenario, gains, out, "", outputs)
    outputs.append(_manifest(out, "simulate", _digest(emit_config(scenario)), outputs, started))
    print(
        f"max |y - yhat| = {verdict.max_output_error:.6g}, max vg = "
        f"{verdict.max_vg:.6g}, max |u| = {verdict.max_u_norm:.6g}, "
        f"jumps {verdict.jumps_passed}/{verdict.jumps_total}"
    )
    print(f"verification: {'pass' if verdict.passed else 'FAIL'}")
    return 0 if verdict.passed else 1


def _compare_runs(scenario: Scenario, out: Path, prefix: str, outputs: list) -> dict | None:
    """Run `scenario` with the full interface ("gaas") and with S = 0
    ("s_zero"), one after the other, write each run's artifacts with stem
    _{prefix}{label} to `out`, appending their paths to `outputs`, and
    return each run's figures by label, or None, after one stderr line,
    when a run's gains are not constructible."""
    results = {}
    for label, force in (("gaas", False), ("s_zero", True)):
        gains, report = _synthesize_pipeline(scenario, force)
        if gains is None:
            print(f"{label}: gains not constructible: {report.records[0].detail}",
                  file=sys.stderr)
            return None
        verdict = _run(scenario, gains, out, f"_{prefix}{label}", outputs)
        verified = verdict.to_dict()
        results[label] = {
            **{key: verified[key] for key in (
                "max_output_error", "max_vg", "max_u_norm", "output_error_ok", "decay_slack")},
            "verification_passed": verdict.passed,
            "conditions_passed": report.passed,
            "rbar2": gains.rbar2,
            "rbar3": gains.rbar3,
            "input_bound": gains.input_bound,
        }
    return results


def cmd_compare(args) -> int:
    started = time.monotonic()
    scenario = _load_scenario(args)
    out = Path(args.out)
    outputs = []
    results = _compare_runs(scenario, out, "", outputs)
    if results is None:
        return 1
    verdict_word = {
        (True, False): "gaas_pass_baseline_fail",
        (True, True): "both_pass",
        (False, True): "gaas_fail_baseline_pass",
        (False, False): "both_fail",
    }[(results["gaas"]["output_error_ok"], results["s_zero"]["output_error_ok"])]
    summary = {"epsilon": scenario.epsilon, "verdict": verdict_word, "runs": results}
    outputs.append(_write(out / "summary.json", _json_text(summary)))
    outputs.append(_manifest(out, "compare", _digest(emit_config(scenario)), outputs, started))
    print(f"gaas     max |y - yhat| = {results['gaas']['max_output_error']:.6g}")
    print(f"s_zero   max |y - yhat| = {results['s_zero']['max_output_error']:.6g}")
    print(f"verdict: {verdict_word}")
    return 0


def cmd_casestudy(args) -> int:
    started = time.monotonic()
    out = Path(args.out)
    horizon = args.horizon if args.horizon is not None else casestudy.HORIZON
    step = args.step if args.step is not None else casestudy.STEP
    ramp_horizon = min(horizon, casestudy.RAMP_HORIZON)

    scalars = {"epsilon": args.epsilon, "a1": args.a1}
    switched = parse_config(casestudy.switched_config(horizon=horizon, step=step), **scalars)
    ramp = parse_config(casestudy.ramp_config(horizon=ramp_horizon, step=step), **scalars)
    outputs = [
        _write(out / "casestudy_switched.json", _json_text(emit_config(switched))),
        _write(out / "casestudy_ramp.json", _json_text(emit_config(ramp))),
    ]

    gains, report = _synthesize_pipeline(switched, force_s_zero=False)
    if gains is None:
        print(f"gains not constructible: {report.records[0].detail}", file=sys.stderr)
        return 1
    outputs.append(_write(out / "gains.json", _json_text(gains.to_dict())))
    outputs.append(_write(out / "report.json", _json_text(report.to_dict())))

    # feasibility arithmetic at the quoted input-rate allowance
    allowance = dataclasses.replace(
        switched.envelope, uhatdot_max=casestudy.STUDY_UHATDOT_ALLOWANCE
    )
    rmax_allow, margin_allow, feas_allow = synthesis.feasibility(
        gains.rbar1, gains.rbar2, gains.rbar3, allowance, gains.a1, gains.epsilon
    )
    ratio_allow = 2.0 * rmax_allow / gains.a1
    rbar_max = _rbar_max(gains, switched)

    switched_verdict = _run(switched, gains, out, "_switched", outputs)
    verified = switched_verdict.to_dict()

    compare_results = _compare_runs(ramp, out, "ramp_", outputs)
    if compare_results is None:
        return 1

    gaas, s0 = compare_results["gaas"], compare_results["s_zero"]
    lo, hi = casestudy.EXPECTED["input_bound"]
    rlo, rhi = casestudy.EXPECTED["rbar_max_allowance"]
    dlo, dhi = casestudy.EXPECTED["decay_ratio_allowance"]
    checks = {
        "assumption_report_passed": report.passed,
        "input_bound_in_window": lo <= gains.input_bound <= hi,
        "rbar1_zero": gains.rbar1 < 1e-9,
        "rbar2_zero": gains.rbar2 < 1e-9,
        "allowance_rbar_max_in_window": rlo <= rmax_allow <= rhi,
        "allowance_decay_ratio_in_window": dlo <= ratio_allow <= dhi and feas_allow,
        "switched_verification_passed": switched_verdict.passed,
        "switched_jumps_all_pass": verified["jumps_ok"],
        "ramp_gaas_within_epsilon": gaas["output_error_ok"],
        "ramp_baseline_exceeds_epsilon": s0["max_output_error"] - s0["decay_slack"] > ramp.epsilon,
    }
    summary = {
        "epsilon": gains.epsilon,
        "a1": gains.a1,
        "input_bound": gains.input_bound,
        "rbar1": gains.rbar1,
        "rbar2": gains.rbar2,
        "rbar3": gains.rbar3,
        "uhatdot_allowance": casestudy.STUDY_UHATDOT_ALLOWANCE,
        "allowance_rbar_max": rmax_allow,
        "allowance_decay_ratio": ratio_allow,
        "allowance_margin": margin_allow,
        "scenario_rbar_max": rbar_max,
        "note_rbar3_vs_rbar_max": (
            "the quoted study figure 0.1 corresponds to rbar_max = rbar3 * "
            "uhatdot allowance, not to rbar3 itself (which is "
            f"{gains.rbar3:.6g}); both are reported"
        ),
        "switched": verified,
        "ramp_compare": compare_results,
        "checks": checks,
    }
    outputs.append(_write(out / "casestudy_summary.json", _json_text(summary)))
    outputs.append(_manifest(out, "casestudy", _digest(emit_config(switched)), outputs, started))

    def note(check: str, claim: str) -> str:
        """`claim` where the check `check` holds, else that it failed."""
        return claim if checks[check] else f"FAILED {check}"

    rows = [
        ("input bound b", f"{gains.input_bound:.6g}",
         note("input_bound_in_window", f"<= ball {switched.b_U}")),
        ("rbar1", f"{gains.rbar1:.3g}", ""),
        ("rbar2", f"{gains.rbar2:.3g}", ""),
        ("rbar3", f"{gains.rbar3:.6g}", "often misread as 0.1; see note"),
        ("rbar_max @ allowance 0.0486", f"{rmax_allow:.6g}",
         note("allowance_rbar_max_in_window", "matches the quoted 0.1")),
        ("2 rbar_max / a1 @ allowance", f"{ratio_allow:.6g}",
         note("allowance_decay_ratio_in_window", f"<= eps {gains.epsilon}")),
        ("scenario rbar_max", f"{rbar_max:.6g}", "runtime envelope"),
        ("switched max |y - yhat|", f"{switched_verdict.max_output_error:.6g}",
         f"jumps {switched_verdict.jumps_passed}/{switched_verdict.jumps_total}"),
        ("ramp gaas max |y - yhat|", f"{gaas['max_output_error']:.6g}",
         note("ramp_gaas_within_epsilon", f"<= eps {ramp.epsilon}")),
        ("ramp S=0 max |y - yhat|", f"{s0['max_output_error']:.6g}",
         note("ramp_baseline_exceeds_epsilon", "exceeds eps as expected")),
    ]
    width = max(len(r[0]) for r in rows)
    print(f"{'quantity':<{width}}  value        note")
    for name, value, note in rows:
        print(f"{name:<{width}}  {value:<12} {note}")
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        print(f"FAILED checks: {failed}")
        return 1
    print("all embedded case-study checks passed")
    return 0


def _warning_line(message, category, filename, lineno, file=None, line=None) -> None:
    """Print a warning as one stderr line, without the source file and line
    that `warnings` shows."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "synthesize": cmd_synthesize,
        "simulate": cmd_simulate,
        "compare": cmd_compare,
        "casestudy": cmd_casestudy,
    }
    with warnings.catch_warnings():
        warnings.showwarning = _warning_line
        try:
            return handlers[args.command](args)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:  # a missing input, a directory as a file, a file as --out
            print(f"file error: {exc}", file=sys.stderr)
            return 2
        except sim.SimulationError as exc:
            print(f"simulation failed: {exc}", file=sys.stderr)
            return 1
        except MemoryError as exc:
            print(f"error: out of memory ({str(exc) or 'allocation failed'}); "
                  "shorten the horizon or enlarge the step", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
