"""Benchmark of gaasim: four workloads, end-to-end metrics, and a traced
run that gives per-layer metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all              # every workload, untraced then traced
    python3 bench/run.py --workload all --smoke --seconds 1

Every pass runs in a fresh worker process (bench/worker.py) with BLAS
pinned to one thread; passes repeat, one after the other, until
``--seconds`` have passed.  Timings are reported at the reference speed of
bench/gauge.py: each is scaled by the gauge time measured on the same core
while it ran, which cancels the drift of a shared machine's speed; the raw
times are kept in the full result.  The metric names, units and bounds are
those of BENCHMARK.json.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full result, fingerprints included, is also written under .bench_results/.
The exit code is 1 when an operation failed or two passes disagree on the
fingerprints, 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gauge import normalize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".bench_results"

WORKLOADS = ("casestudy", "cosim", "synth", "sweep")

#: set-up-only workers per untraced run, on top of one set-up per pass
SETUP_PROBES = 3

#: a run must end within 180 s; workers get what is left of this
RUN_DEADLINE_S = 170.0

WORKER_ENV = dict(
    os.environ,
    OPENBLAS_NUM_THREADS="1",
    OMP_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
)


class WorkerFailed(RuntimeError):
    pass


def _worker(workload, seed, mode, traced, smoke, deadline) -> dict:
    cmd = [
        sys.executable, "-I", str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--trace", str(int(traced)),
    ] + (["--smoke"] if smoke else [])
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=WORKER_ENV, capture_output=True, text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker timed out after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}: " + " | ".join(tail))
    result = json.loads(lines[-1])
    # CLOCK_MONOTONIC is shared by all processes on the machine
    result["raw_setup_s"] = result.pop("setup_end") - spawned
    result["setup_s"] = normalize(result["raw_setup_s"], result["setup_gauge_s"])
    if mode == "pass":
        result["raw_wall_s"] = result["wall_s"]
        result["wall_s"] = normalize(result["wall_s"], result["gauge_s"])
    return result


def run_workload(workload, seed, seconds, traced, smoke, spec) -> tuple[dict, dict]:
    """(final-line object, detailed result) of one run."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    setups: list[float] = []
    passes: dict[bool, list[dict]] = {False: [], True: []}
    errors: list[str] = []
    kinds = (False, True) if traced else (False,)
    try:
        if not traced:
            for _ in range(SETUP_PROBES):
                setups.append(_worker(workload, seed, "setup", False, smoke, deadline)["setup_s"])
        started = time.monotonic()
        while True:
            for kind in kinds:
                result = _worker(workload, seed, "pass", kind, smoke, deadline)
                passes[kind].append(result)
                setups.append(result["setup_s"])
            if time.monotonic() - started >= seconds:
                break
    except WorkerFailed as exc:
        errors.append(str(exc))

    done = passes[False] + passes[True]
    verdicts = [v for r in done for v in r["verdicts"]]
    attempted = len(verdicts) + len(errors)
    failures = [f"{name}: {detail}" for name, ok, detail in verdicts if not ok] + errors
    digests = sorted({r["fingerprint_sha256"] for r in done})
    if len(digests) > 1:
        failures.append(f"passes disagree on fingerprints: {digests}")

    metrics = {}
    if not errors:
        values = _end_to_end(passes[False], setups) if not traced else _per_layer(passes, spec)
        names = spec["per_layer"] if traced else spec["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    final = {
        "correct": not failures,
        "attempted": max(attempted, len(failures), 1),
        "failed": len(failures),
        "metrics": metrics,
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "smoke": smoke,
        "environment": done[0]["environment"] if done else None,
        "passes": {"untraced": len(passes[False]), "traced": len(passes[True])},
        "pass_wall_s": [r["wall_s"] for r in done],
        "pass_raw_wall_s": [r["raw_wall_s"] for r in done],
        "pass_gauge_us": [r["gauge_s"] * 1e6 for r in done],
        "setup_s_samples": setups,
        "failures": failures,
        "fingerprint_sha256": digests,
        "fingerprints": done[0]["fingerprints"] if done else None,
        "largest_span": [r["largest_span"] for r in passes[True]],
    }
    return final, detail


def _end_to_end(passes, setups) -> dict:
    return {
        "wall_s": statistics.median(r["wall_s"] for r in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
    }


def _per_layer(passes, spec) -> dict:
    traced = passes[True]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    def at_reference_speed(result, name):
        value = result["layers"][name]
        if units.get(name) == "s":
            return normalize(value, result["gauge_s"])
        if units.get(name, "").endswith("/s"):
            return value / normalize(1.0, result["gauge_s"])
        return value

    values = {
        name: statistics.median(at_reference_speed(r, name) for r in traced)
        for name in traced[0]["layers"]
    }
    untraced_wall = statistics.median(r["wall_s"] for r in passes[False])
    values["cli.artifact_mb"] = statistics.median(r["artifact_mb"] for r in traced)
    values["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - untraced_wall
    values["pass.raw_wall_s"] = statistics.median(r["raw_wall_s"] for r in passes[False])
    values["pass.gauge_us"] = statistics.median(r["gauge_s"] * 1e6 for r in passes[False])
    return values


def _print_run(workload, final, detail) -> None:
    mode = "traced" if detail["trace"] else "untraced"
    print(f"== {workload} ({mode}, seed {detail['seed']}, passes {detail['passes']})")
    for name, metric in final["metrics"].items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'ops_failed':<40} {final['failed']:>14d} of {final['attempted']} attempted")
    for failure in detail["failures"]:
        print(f"  FAILED {failure}")
    if detail["largest_span"]:
        print(f"  largest span by self time: {detail['largest_span'][0]}")
    print(f"  fingerprints sha256: {' '.join(detail['fingerprint_sha256'])}")


def _save(workload, detail) -> Path:
    RESULTS.mkdir(exist_ok=True)
    tag = f"{workload}-seed{detail['seed']}-trace{detail['trace']}"
    path = RESULTS / (tag + ("-smoke" if detail["smoke"] else "") + ".json")
    path.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark gaasim.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="short horizons, n <= 8, a few sweep scenarios")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gaasim" / "__init__.py").is_file():
        print(f"bench: no gaasim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    finals = {}
    for workload, traced in runs:
        final, detail = run_workload(workload, args.seed, seconds, traced, args.smoke, spec)
        _print_run(workload, final, detail)
        print(f"  result: {_save(workload, detail)}")
        finals[(workload, traced)] = final

    if len(finals) == 1:
        final = next(iter(finals.values()))
    else:
        final = {
            "correct": all(f["correct"] for f in finals.values()),
            "attempted": sum(f["attempted"] for f in finals.values()),
            "failed": sum(f["failed"] for f in finals.values()),
            "metrics": {
                f"{w}.{name}": metric
                for (w, _), f in finals.items() for name, metric in f["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
