"""Spans around the public functions of each gaasim module, recorded from
outside the program.

Each wrapped function is replaced at every place where callers look it
up: its defining module and every gaasim module that imported it by name
(``cli.parse_config`` is ``model.parse_config``).  Calls made through a
module attribute (``numerics.sym_eig``, ``sim.simulate``) and through a
module's globals therefore both land in the wrapper.  Spans are kept in
memory and reduced to per-layer metrics after the pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

#: layer -> public functions wrapped in that module
WRAPPED = {
    "model": ("parse_config", "emit_config", "validate_pair"),
    "casestudy": ("switched_config", "ramp_config"),
    "synthesis": (
        "max_feasible_a1", "synthesize_M", "solve_PQ", "solve_SR", "rbar3_of",
        "input_bound", "feasibility", "synthesize_gains", "check_assumption",
    ),
    "numerics": (
        "sym_eig", "eigenvalues", "real_spectral_abscissa", "solve_sylvester",
        "psd_sqrt", "constrained_lstsq", "spectral_norm",
    ),
    "refine": (
        "error_vector", "vg", "interface_u", "lift_initial", "in_relation",
        "omega", "jump_admissible",
    ),
    "sim": (
        "eval_policy", "simulate", "simulate_calibrated", "verify_trajectory",
        "trajectory_csv", "jumps_csv",
    ),
    # the subcommand handlers stay inside cli.main, whose self time is then
    # the CLI's own work: argument parsing, JSON text and file writes
    "cli": ("main",),
}

LAYERS = tuple(WRAPPED)

#: spans that stand for work the tracer itself does (counter bookkeeping);
#: they are children of the span that was open, so no layer is charged
HOOK_SPAN = "trace.hooks"


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    child_s: float = 0.0
    payload: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, time.perf_counter(), parent))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self.stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def _wrap(self, name: str, fn, hook):
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if hook is not None:
                hook_index = self._open(HOOK_SPAN)
                try:
                    hook(self, index, args, result)
                finally:
                    self._close(hook_index)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- installing --------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every function of WRAPPED that the package defines; names
        missing from the package are skipped, so their metrics read 0."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        for layer in LAYERS:
            module = getattr(package, layer)
            for fname in WRAPPED[layer]:
                original = getattr(module, fname, None)
                if original is None:
                    continue
                name = f"{layer}.{fname}"
                wrapper = self._wrap(name, original, _HOOKS.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    # -- reducing ----------------------------------------------------------

    def metrics(self, pass_start: float, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of every span recorded so far.

        Spans from the set-up phase count towards their layer (config
        parsing is set-up on some workloads); `trace.uncovered_s` is the
        part of the pass's timed wall time `wall_s` that no outermost span
        started after `pass_start` covers.
        """
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        covered = 0.0
        for span in self.spans:
            total[span.name] = total.get(span.name, 0.0) + span.duration
            self_s[span.name] = self_s.get(span.name, 0.0) + span.duration - span.child_s
            calls[span.name] = calls.get(span.name, 0) + 1
            if span.parent is None and span.start >= pass_start:
                covered += span.duration

        def layer_self(layer: str) -> float:
            return sum(v for k, v in self_s.items() if k.startswith(layer + "."))

        synthesis_s = sum(
            span.duration for span in self.spans
            if span.name.startswith("synthesis.") and not self._has_ancestor(span, "synthesis.")
        )
        c = self.counters
        out = {
            "sim.trajectory_csv.s": total.get("sim.trajectory_csv", 0.0),
            "sim.trajectory_csv.mb": c.get("sim.trajectory_csv.bytes", 0.0) / 1e6,
            "sim.jumps_csv.s": total.get("sim.jumps_csv", 0.0),
            "cli.main.self_s": self_s.get("cli.main", 0.0),
            "sim.simulate.s": total.get("sim.simulate", 0.0),
            "sim.simulate.calls": calls.get("sim.simulate", 0),
            "sim.simulate.rows": c.get("sim.simulate.rows", 0.0),
            "sim.simulate_calibrated.self_s": self_s.get("sim.simulate_calibrated", 0.0),
            "sim.calibration.useful_row_fraction": _ratio(
                c.get("sim.calibration.useful_rows", 0.0),
                c.get("sim.calibration.half_rows", 0.0),
            ),
            "sim.verify_trajectory.s": total.get("sim.verify_trajectory", 0.0),
            "sim.jumps.logged": c.get("sim.jumps.logged", 0.0),
            "numerics.sym_eig.calls": calls.get("numerics.sym_eig", 0),
            "numerics.sym_eig.max_dim": c.get("numerics.sym_eig.max_dim", 0.0),
            "numerics.eigenvalues.calls": calls.get("numerics.eigenvalues", 0),
            "numerics.share": _ratio(layer_self("numerics"), synthesis_s),
            "model.parse_config.s": total.get("model.parse_config", 0.0),
            "trace.uncovered_s": wall_s - covered,
        }
        out["sim.trajectory_csv.mb_per_s"] = _ratio(
            out["sim.trajectory_csv.mb"], out["sim.trajectory_csv.s"]
        )
        out["sim.simulate.rows_per_s"] = _ratio(out["sim.simulate.rows"], out["sim.simulate.s"])
        for fname in ("sym_eig", "eigenvalues", "solve_sylvester", "constrained_lstsq",
                      "spectral_norm", "psd_sqrt"):
            out[f"numerics.{fname}.self_s"] = self_s.get(f"numerics.{fname}", 0.0)
        for fname in ("synthesize_gains", "check_assumption", "max_feasible_a1"):
            out[f"synthesis.{fname}.s"] = total.get(f"synthesis.{fname}", 0.0)
            out[f"synthesis.{fname}.calls"] = calls.get(f"synthesis.{fname}", 0)
        out["refine.jump_admissible.s"] = total.get("refine.jump_admissible", 0.0)
        out["refine.jump_admissible.calls"] = calls.get("refine.jump_admissible", 0)
        for layer in LAYERS:
            if layer != "cli":
                out[f"{layer}.self_s"] = layer_self(layer)
        return out

    def self_times(self) -> dict[str, float]:
        """Self time per span name, for naming the largest span."""
        out: dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.duration - span.child_s
        out.pop(HOOK_SPAN, None)
        return out

    def _has_ancestor(self, span: Span, prefix: str) -> bool:
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name.startswith(prefix):
                return True
            parent = self.spans[parent].parent
        return False


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


# -- counters taken where the work happens -----------------------------------


def _sym_eig_hook(tracer: Tracer, index: int, args, result) -> None:
    dim = float(np.shape(args[0])[0])
    tracer.counters["numerics.sym_eig.max_dim"] = max(
        tracer.counters.get("numerics.sym_eig.max_dim", 0.0), dim
    )


def _simulate_hook(tracer: Tracer, index: int, args, record) -> None:
    tracer.count("sim.simulate.rows", record.t.size)
    tracer.count("sim.jumps.logged", len(record.jumps))
    parent = tracer.spans[index].parent
    if parent is not None and tracer.spans[parent].name == "sim.simulate_calibrated":
        tracer.spans[parent].payload.append(record.t)


def _calibrated_hook(tracer: Tracer, index: int, args, record) -> None:
    # simulate_calibrated runs at h, then at h/2, and compares vg at the
    # grid times the two runs share (rounded as the program rounds them)
    times = tracer.spans[index].payload
    if len(times) == 2:
        shared = np.intersect1d(np.round(times[0], 9), np.round(times[1], 9)).size
        tracer.count("sim.calibration.useful_rows", shared)
        tracer.count("sim.calibration.half_rows", times[1].size)
    times.clear()


def _csv_hook(tracer: Tracer, index: int, args, text) -> None:
    tracer.count("sim.trajectory_csv.bytes", len(text))


_HOOKS = {
    "numerics.sym_eig": _sym_eig_hook,
    "sim.simulate": _simulate_hook,
    "sim.simulate_calibrated": _calibrated_hook,
    "sim.trajectory_csv": _csv_hook,
}
