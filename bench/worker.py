"""One benchmark pass in a fresh process.

Started by run.py, never imported by it.  The worker puts the checkout's
``src`` first on the import path, builds the workload's inputs (set-up),
runs every operation once (the pass), judges the results, and prints one
JSON object as the last line of its standard output.  The gauge sampler
runs from the first line, so set-up and the pass each get the mean gauge
time of their own window.

    python3 -I bench/worker.py --workload sweep --seed 1 --mode pass --trace 1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_tmp"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gauge  # noqa: E402


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    with gauge.Sampler() as sampler:
        return _work(args, sampler)


def _work(args, sampler) -> int:
    import gaasim

    if Path(gaasim.__file__).resolve().parent != ROOT / "src" / "gaasim":
        print(f"worker: imported gaasim from {gaasim.__file__}, not from src/", file=sys.stderr)
        return 2
    import spans
    import workloads

    tracer = spans.Tracer()
    if args.trace:
        tracer.install(gaasim)
    setup = workloads.SETUPS[args.workload](args.seed, args.smoke, SCRATCH)
    result = {"setup_end": time.monotonic(), "setup_gauge_s": sampler.mark()}
    try:
        if args.mode == "pass":
            result.update(_run_pass(setup, tracer))
            result["gauge_s"] = sampler.mark()
            result["environment"] = _environment()
    finally:
        setup.cleanup()
        tracer.uninstall()
    print(json.dumps(result))
    return 0


def _run_pass(setup, tracer) -> dict:
    pass_start = time.perf_counter()
    wall = 0.0
    verdicts = []
    fingerprints = {}
    for op in setup.ops:
        start = time.perf_counter()
        try:
            outcome = op.run()
        except Exception as exc:  # an operation that raises counts as failed
            wall += time.perf_counter() - start
            detail = f"{type(exc).__name__}: {exc}"
            verdicts.extend([name, False, detail] for name in op.verdict_names)
            continue
        wall += time.perf_counter() - start
        try:
            op_verdicts, fingerprint = op.judge(outcome)
        except (KeyError, OSError, ValueError) as exc:  # missing or malformed output
            detail = f"judge: {type(exc).__name__}: {exc}"
            verdicts.extend([name, False, detail] for name in op.verdict_names)
            continue
        finally:
            del outcome
        verdicts.extend([v.name, v.ok, v.detail] for v in op_verdicts)
        fingerprints[op.name] = fingerprint
    digest = hashlib.sha256(json.dumps(fingerprints, sort_keys=True).encode()).hexdigest()
    out = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "artifact_mb": setup.artifacts(),
        "verdicts": verdicts,
        "fingerprints": fingerprints,
        "fingerprint_sha256": digest,
    }
    if tracer.spans:
        out["layers"] = tracer.metrics(pass_start, wall)
        self_times = tracer.self_times()
        out["largest_span"] = max(self_times, key=self_times.get)
    return out


if __name__ == "__main__":
    sys.exit(main())
