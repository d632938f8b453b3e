"""System/scenario data model, validation, and JSON configuration ingestion.

The configuration document is a single JSON object with top-level keys
``concrete``, ``abstract``, ``envelope``, ``policy``, ``scenario``; matrices
are row-major arrays of arrays.  Unknown keys are rejected, every error
carries the offending path.  Parsed objects are immutable after
construction and safe for concurrent shared reads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .numerics import as_matrix

#: scenario defaults applied when the config omits the keys
DEFAULT_EPSILON = 0.5
DEFAULT_STEP = 1e-3

#: input-value changes below this (relative) threshold at a segment boundary
#: are treated as continuous, not as jumps
JUMP_VALUE_RTOL = 1e-12


class ConfigError(ValueError):
    """Base class for configuration ingestion failures."""


class SchemaError(ConfigError):
    """Missing, unknown, or wrongly-typed field; message names the path."""


class DimensionMismatch(ConfigError):
    pass


class InvariantViolation(ConfigError):
    pass


class DomainGap(ConfigError):
    """Abstract state left the declared switched-feedback domain."""


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box; a point is the degenerate lo == hi case."""

    lows: np.ndarray
    highs: np.ndarray

    def __post_init__(self):
        lows = np.asarray(self.lows, dtype=float).reshape(-1)
        highs = np.asarray(self.highs, dtype=float).reshape(-1)
        object.__setattr__(self, "lows", lows)
        object.__setattr__(self, "highs", highs)
        if lows.shape != highs.shape:
            raise DimensionMismatch("box lows/highs length mismatch")
        if not (np.all(np.isfinite(lows)) and np.all(np.isfinite(highs))):
            raise InvariantViolation("box bounds must be finite")
        if np.any(lows > highs):
            raise InvariantViolation("box requires lo <= hi in every axis")

    @property
    def dim(self) -> int:
        return self.lows.size

    def contains(self, x):
        """Whether x lies in the box: a bool for one point, one bool per
        row for rows of points."""
        x = np.asarray(x, dtype=float)
        inside = np.ones(x.shape[:-1], dtype=bool)
        for k in range(self.dim):  # one pass per column of rows
            inside &= (x[..., k] >= self.lows[k]) & (x[..., k] <= self.highs[k])
        return bool(inside) if inside.ndim == 0 else inside

    def clamp(self, x) -> np.ndarray:
        """x, or each row of x, clamped into the box."""
        return np.clip(np.asarray(x, dtype=float), self.lows, self.highs)

    def corners(self) -> np.ndarray:
        """All 2^d corner points (deduplicated for degenerate axes)."""
        cols = [np.unique([lo, hi]) for lo, hi in zip(self.lows, self.highs)]
        grid = np.meshgrid(*cols, indexing="ij")
        return np.stack([g.reshape(-1) for g in grid], axis=-1)

    def interior_overlaps(self, other: "Box") -> bool:
        lo = np.maximum(self.lows, other.lows)
        hi = np.minimum(self.highs, other.highs)
        return bool(np.all(lo < hi))

    def as_lists(self) -> list[list[float]]:
        return [[float(lo), float(hi)] for lo, hi in zip(self.lows, self.highs)]


def _check_lti(system, prefix: str) -> None:
    """Coerce A, B, C of an LTI system to matrices and check their shapes and
    the initial box against the state dimension; `prefix` starts each path."""
    for name in ("A", "B", "C"):
        object.__setattr__(system, name, as_matrix(getattr(system, name), f"{prefix}.{name}"))
    n = system.A.shape[0]
    if system.A.shape[1] != n:
        raise DimensionMismatch(f"{prefix}.A must be square, got {system.A.shape}")
    if system.B.shape[0] != n:
        raise DimensionMismatch(
            f"{prefix}.B row count {system.B.shape[0]} != state dimension {n}"
        )
    if system.C.shape[1] != n:
        raise DimensionMismatch(
            f"{prefix}.C column count {system.C.shape[1]} != state dimension {n}"
        )
    if system.initial_state_set.dim != n:
        raise DimensionMismatch(
            f"{prefix}.x0_box dimension {system.initial_state_set.dim} != {n}"
        )


@dataclass(frozen=True, eq=False)
class ConcreteLinearSystem:
    """dx/dt = A x + B u, y = C x, with admissible inputs ||u|| <= input_ball_radius."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    input_ball_radius: float
    initial_state_set: Box

    def __post_init__(self):
        _check_lti(self, "concrete")
        if not (np.isfinite(self.input_ball_radius) and self.input_ball_radius > 0):
            raise InvariantViolation("concrete.input_ball_radius must be positive")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True, eq=False)
class AbstractLinearSystem:
    """dxhat/dt = Ahat xhat + Bhat uhat, yhat = Chat xhat."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    initial_state_set: Box

    def __post_init__(self):
        _check_lti(self, "abstract")

    @property
    def n_r(self) -> int:
        return self.A.shape[0]

    @property
    def m_r(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class OperatingEnvelope:
    """Declared suprema of ||xhat||, ||uhat||, ||duhat/dt|| along the run."""

    xhat_max: float
    uhat_max: float
    uhatdot_max: float

    def __post_init__(self):
        for name in ("xhat_max", "uhat_max", "uhatdot_max"):
            v = float(getattr(self, name))
            object.__setattr__(self, name, v)
            if not (np.isfinite(v) and v >= 0):
                raise InvariantViolation(f"envelope.{name} must be finite and >= 0")


@dataclass(frozen=True, eq=False)
class OpenLoopSegment:
    """Per-channel polynomial input on [t_start, t_end), degree <= 3."""

    t_start: float
    t_end: float
    coeffs: np.ndarray  # (m_r, deg+1), ascending powers of absolute t

    def __post_init__(self):
        object.__setattr__(self, "coeffs", as_matrix(self.coeffs, "segment.coeffs"))
        if self.coeffs.shape[1] > 4:
            raise InvariantViolation("segment polynomial degree exceeds 3")
        if not self.t_end > self.t_start:
            raise InvariantViolation(
                f"segment needs t_end > t_start, got [{self.t_start}, {self.t_end}]"
            )

    def value(self, t) -> np.ndarray:
        """uhat at t: (m_r,) for a scalar t, (len(t), m_r) for a 1-D array."""
        return self._poly(self.coeffs, np.arange(self.coeffs.shape[1]), t)

    def derivative(self, t) -> np.ndarray:
        """duhat/dt at t, shaped as `value`."""
        k = np.arange(1, self.coeffs.shape[1])
        return self._poly(self.coeffs[:, 1:] * k, k - 1, t)

    @staticmethod
    def _poly(coeffs: np.ndarray, exponents: np.ndarray, t) -> np.ndarray:
        """sum_j coeffs[:, j] t^exponents[j], added to zero in the order of j,
        so a time gives the same bits alone as among others."""
        times = np.asarray(t, dtype=float)
        powers = times.reshape(1, -1) ** exponents[:, None]
        rows = np.zeros((coeffs.shape[0], times.size))
        for j in range(exponents.size):
            rows += coeffs[:, j, None] * powers[j]
        return rows.T[0] if times.ndim == 0 else rows.T


@dataclass(frozen=True, eq=False)
class FeedbackRegion:
    """Box region of the abstract state with gain uhat = -K xhat."""

    box: Box
    gain: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gain", as_matrix(self.gain, "region.gain"))
        if self.gain.shape[1] != self.box.dim:
            raise DimensionMismatch(
                f"region gain columns {self.gain.shape[1]} != box dimension {self.box.dim}"
            )


@dataclass(frozen=True, eq=False)
class AbstractInputPolicy:
    """Piecewise abstract control: open-loop segments or switched feedback.

    Switched-feedback region lookup is first-match in declared order; with
    regions listed from high to low this reproduces half-open interval
    semantics on shared boundaries.
    """

    kind: str
    segments: tuple[OpenLoopSegment, ...] = ()
    regions: tuple[FeedbackRegion, ...] = ()

    def __post_init__(self):
        if self.kind not in ("open_loop", "switched_feedback"):
            raise SchemaError(f"policy.kind: unknown kind {self.kind!r}")
        if self.kind == "open_loop":
            if not self.segments:
                raise InvariantViolation("open_loop policy needs at least one segment")
            for a, b in zip(self.segments, self.segments[1:]):
                if b.t_start < a.t_end - 1e-12 or b.t_start > a.t_end + 1e-12:
                    raise InvariantViolation(
                        f"segments must abut: [{a.t_start}, {a.t_end}] then "
                        f"[{b.t_start}, {b.t_end}]"
                    )
            widths = {seg.coeffs.shape[0] for seg in self.segments}
            if len(widths) != 1:
                raise DimensionMismatch("all segments must share the channel count")
        else:
            if not self.regions:
                raise InvariantViolation("switched_feedback policy needs regions")
            dims = {r.box.dim for r in self.regions}
            gains = {r.gain.shape[0] for r in self.regions}
            if len(dims) != 1 or len(gains) != 1:
                raise DimensionMismatch("regions must share box dimension and gain rows")
            for i, ri in enumerate(self.regions):
                for rj in self.regions[i + 1 :]:
                    if ri.box.interior_overlaps(rj.box):
                        raise InvariantViolation("region interiors must be disjoint")
            if next(iter(dims)) == 1:
                # 1-D coverage: sorted regions must tile without gaps
                spans = sorted((r.box.lows[0], r.box.highs[0]) for r in self.regions)
                for (_, hi_a), (lo_b, _) in zip(spans, spans[1:]):
                    if lo_b > hi_a + 1e-12:
                        raise InvariantViolation(
                            f"coverage gap between regions at {hi_a} .. {lo_b}"
                        )

    @property
    def m_r(self) -> int:
        if self.kind == "open_loop":
            return self.segments[0].coeffs.shape[0]
        return self.regions[0].gain.shape[0]

    @property
    def t_end(self) -> float:
        if self.kind == "open_loop":
            return self.segments[-1].t_end
        return np.inf

    def segment_index(self, t: float) -> int:
        if self.kind != "open_loop":
            raise ValueError("segment_index on a feedback policy")
        for i, seg in enumerate(self.segments):
            if seg.t_start <= t < seg.t_end:
                return i
        if t >= self.segments[-1].t_end:
            return len(self.segments) - 1
        return 0

    def region_index(self, xhat) -> int:
        if self.kind != "switched_feedback":
            raise ValueError("region_index on an open-loop policy")
        for i, region in enumerate(self.regions):
            if region.box.contains(xhat):
                return i
        raise DomainGap(f"abstract state {np.asarray(xhat).tolist()} outside all regions")

    def regime_index(self, t: float, xhat) -> int:
        """The regime active at time t and abstract state xhat: the index of
        the segment that holds t, or of the first region that holds xhat."""
        if self.kind == "open_loop":
            return self.segment_index(t)
        return self.region_index(xhat)

    def breakpoints(self) -> list[float]:
        """Interior open-loop segment boundaries (candidate jump times)."""
        if self.kind != "open_loop":
            return []
        return [seg.t_end for seg in self.segments[:-1]]

    def uhat_at(self, t: float, xhat) -> np.ndarray:
        """uhat at one time t and abstract state xhat: the polynomial of the
        segment active at t, or -K xhat with the gain of the region that
        holds xhat."""
        xhat = np.asarray(xhat, dtype=float).reshape(-1)
        index = self.regime_index(t, xhat)
        if self.kind == "open_loop":
            return self.segments[index].value(t)
        return -self.regions[index].gain @ xhat

    def uhat(self, times: np.ndarray, xhat: np.ndarray, regimes: np.ndarray) -> np.ndarray:
        """(len(times), m_r) uhat, F-contiguous, at rows (times, xhat) whose
        regime ids (segment or region indices) are `regimes`, one vectorized
        evaluation per run of one id."""
        out = np.empty((times.size, self.m_r), order="F")
        for a, b, idx in _runs(regimes):
            if self.kind == "open_loop":
                out[a:b] = self.segments[idx].value(times[a:b])
            else:
                out[a:b] = -(self.regions[idx].gain @ xhat[a:b].T).T
        return out

    def uhatdot(
        self, abstract: "AbstractLinearSystem", times: np.ndarray, xhat: np.ndarray,
        uhat: np.ndarray, regimes: np.ndarray,
    ) -> np.ndarray:
        """duhat/dt at the rows of `uhat`, laid out as `uhat`: the segment
        derivative, or -K (A xhat + B uhat) of the region by the chain rule."""
        out = np.empty_like(uhat)
        for a, b, idx in _runs(regimes):
            if self.kind == "open_loop":
                out[a:b] = self.segments[idx].derivative(times[a:b])
            else:
                xhatdot = abstract.A @ xhat[a:b].T + abstract.B @ uhat[a:b].T
                out[a:b] = -(self.regions[idx].gain @ xhatdot).T
        return out


def _runs(regimes: np.ndarray) -> list[tuple[int, int, int]]:
    """(start, stop, id) of each contiguous run of one regime id."""
    starts = [0, *(np.flatnonzero(regimes[1:] != regimes[:-1]) + 1).tolist(), regimes.size]
    return [(a, b, int(regimes[a])) for a, b in zip(starts, starts[1:])]


@dataclass(frozen=True, eq=False)
class Scenario:
    """Fully parsed configuration bundle."""

    concrete: ConcreteLinearSystem
    abstract: AbstractLinearSystem
    envelope: OperatingEnvelope
    policy: AbstractInputPolicy
    epsilon: float
    a1: float
    K: np.ndarray
    horizon: float
    step: float
    xhat0: np.ndarray
    x0: np.ndarray | None = None
    M: np.ndarray | None = None

    @property
    def b_U(self) -> float:
        return self.concrete.input_ball_radius


# ---------------------------------------------------------------------------
# JSON ingestion


def _expect_dict(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _reject_unknown(d: dict, allowed: Sequence[str], path: str) -> None:
    unknown = set(d) - set(allowed)
    if unknown:
        raise SchemaError(f"{path}: unknown keys {sorted(unknown)}")


def _get(d: dict, key: str, path: str, required: bool = True, default=None):
    if key not in d:
        if required:
            raise SchemaError(f"{path}.{key}: required key missing")
        return default
    return d[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):  # JSON admits NaN and Infinity
        raise SchemaError(f"{path}: expected a finite number, got {number}")
    return number


def _matrix(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{path}: expected a non-empty array of arrays")
    rows = []
    width = None
    for i, row in enumerate(value):
        if not isinstance(row, list) or not row:
            raise SchemaError(f"{path}[{i}]: expected a non-empty array of numbers")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SchemaError(f"{path}[{i}]: ragged row (expected {width} entries)")
        rows.append([_number(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)])
    return np.array(rows, dtype=float)


def _vector(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{path}: expected a non-empty array of numbers")
    return np.array([_number(x, f"{path}[{i}]") for i, x in enumerate(value)], dtype=float)


def _box(value, path: str) -> Box:
    m = _matrix(value, path)
    if m.shape[1] != 2:
        raise SchemaError(f"{path}: expected [lo, hi] pairs per axis")
    return Box(m[:, 0], m[:, 1])


def _parse_policy(d: dict, path: str) -> AbstractInputPolicy:
    d = _expect_dict(d, path)
    kind = _get(d, "kind", path)
    if kind not in ("open_loop", "switched_feedback"):
        raise SchemaError(f"{path}.kind: unknown kind {kind!r}")
    key = "segments" if kind == "open_loop" else "regions"
    _reject_unknown(d, ["kind", key], path)
    raw = _get(d, key, path)
    if not isinstance(raw, list):
        raise SchemaError(f"{path}.{key}: expected an array")
    items = []
    for i, item in enumerate(raw):
        ipath = f"{path}.{key}[{i}]"
        item = _expect_dict(item, ipath)
        if kind == "open_loop":
            _reject_unknown(item, ["t_start", "t_end", "coeffs"], ipath)
            items.append(OpenLoopSegment(
                t_start=_number(_get(item, "t_start", ipath), f"{ipath}.t_start"),
                t_end=_number(_get(item, "t_end", ipath), f"{ipath}.t_end"),
                coeffs=_matrix(_get(item, "coeffs", ipath), f"{ipath}.coeffs"),
            ))
        else:
            _reject_unknown(item, ["box", "gain"], ipath)
            items.append(FeedbackRegion(
                box=_box(_get(item, "box", ipath), f"{ipath}.box"),
                gain=_matrix(_get(item, "gain", ipath), f"{ipath}.gain"),
            ))
    return AbstractInputPolicy(kind=kind, **{key: tuple(items)})


def parse_config(document) -> Scenario:
    """Parse and validate a configuration document (JSON text or dict)."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"malformed JSON: {exc}") from exc
    doc = _expect_dict(document, "$")
    _reject_unknown(doc, ["concrete", "abstract", "envelope", "policy", "scenario"], "$")

    c = _expect_dict(_get(doc, "concrete", "$"), "concrete")
    _reject_unknown(c, ["A", "B", "C", "input_ball_radius", "x0_box"], "concrete")
    concrete = ConcreteLinearSystem(
        A=_matrix(_get(c, "A", "concrete"), "concrete.A"),
        B=_matrix(_get(c, "B", "concrete"), "concrete.B"),
        C=_matrix(_get(c, "C", "concrete"), "concrete.C"),
        input_ball_radius=_number(
            _get(c, "input_ball_radius", "concrete"), "concrete.input_ball_radius"
        ),
        initial_state_set=_box(_get(c, "x0_box", "concrete"), "concrete.x0_box"),
    )

    a = _expect_dict(_get(doc, "abstract", "$"), "abstract")
    _reject_unknown(a, ["A", "B", "C", "x0_box"], "abstract")
    abstract = AbstractLinearSystem(
        A=_matrix(_get(a, "A", "abstract"), "abstract.A"),
        B=_matrix(_get(a, "B", "abstract"), "abstract.B"),
        C=_matrix(_get(a, "C", "abstract"), "abstract.C"),
        initial_state_set=_box(_get(a, "x0_box", "abstract"), "abstract.x0_box"),
    )

    pair = (
        ("state_dim_reduced", abstract.n_r <= concrete.n, f"n_r={abstract.n_r} vs n={concrete.n}"),
        ("input_dim_reduced", abstract.m_r <= concrete.m, f"m_r={abstract.m_r} vs m={concrete.m}"),
        ("output_dim_equal", abstract.p == concrete.p, f"p_hat={abstract.p} vs p={concrete.p}"),
    )
    failed = [f"{name} failed ({detail})" for name, ok, detail in pair if not ok]
    if failed:
        raise DimensionMismatch("; ".join(failed))

    e = _expect_dict(_get(doc, "envelope", "$"), "envelope")
    _reject_unknown(e, ["xhat_max", "uhat_max", "uhatdot_max"], "envelope")
    envelope = OperatingEnvelope(
        xhat_max=_number(_get(e, "xhat_max", "envelope"), "envelope.xhat_max"),
        uhat_max=_number(_get(e, "uhat_max", "envelope"), "envelope.uhat_max"),
        uhatdot_max=_number(_get(e, "uhatdot_max", "envelope"), "envelope.uhatdot_max"),
    )

    policy = _parse_policy(_get(doc, "policy", "$"), "policy")
    if policy.m_r != abstract.m_r:
        raise DimensionMismatch(
            f"policy channel count {policy.m_r} != abstract input dimension {abstract.m_r}"
        )
    if policy.kind == "switched_feedback" and policy.regions[0].box.dim != abstract.n_r:
        raise DimensionMismatch(
            f"policy region dimension {policy.regions[0].box.dim} != n_r {abstract.n_r}"
        )

    s = _expect_dict(_get(doc, "scenario", "$"), "scenario")
    _reject_unknown(
        s, ["epsilon", "a1", "K", "horizon", "step", "x0", "xhat0", "M"], "scenario"
    )
    epsilon = _number(_get(s, "epsilon", "scenario", required=False, default=DEFAULT_EPSILON), "scenario.epsilon")
    a1 = _number(_get(s, "a1", "scenario"), "scenario.a1")
    K = _matrix(_get(s, "K", "scenario"), "scenario.K")
    horizon = _number(_get(s, "horizon", "scenario"), "scenario.horizon")
    step = _number(_get(s, "step", "scenario", required=False, default=DEFAULT_STEP), "scenario.step")
    xhat0 = _vector(_get(s, "xhat0", "scenario"), "scenario.xhat0")
    raw_x0 = _get(s, "x0", "scenario", required=False)
    x0 = None if raw_x0 is None else _vector(raw_x0, "scenario.x0")
    raw_m = _get(s, "M", "scenario", required=False)
    M = None if raw_m is None else _matrix(raw_m, "scenario.M")

    _check_scalars(policy, epsilon=epsilon, a1=a1, step=step, horizon=horizon)
    if K.shape != (concrete.m, concrete.n):
        raise DimensionMismatch(
            f"scenario.K shape {K.shape} != (m, n) = {(concrete.m, concrete.n)}"
        )
    if xhat0.size != abstract.n_r:
        raise DimensionMismatch(
            f"scenario.xhat0 length {xhat0.size} != n_r {abstract.n_r}"
        )
    if x0 is not None and x0.size != concrete.n:
        raise DimensionMismatch(f"scenario.x0 length {x0.size} != n {concrete.n}")
    for name, start, where, box in (
        ("x0", x0, "concrete", concrete.initial_state_set),
        ("xhat0", xhat0, "abstract", abstract.initial_state_set),
    ):
        if start is not None and not box.contains(start):
            raise InvariantViolation(f"scenario.{name} {start.tolist()} outside {where}.x0_box")
    if M is not None and M.shape != (concrete.n, concrete.n):
        raise DimensionMismatch(
            f"scenario.M shape {M.shape} != (n, n) = {(concrete.n, concrete.n)}"
        )

    return Scenario(
        concrete=concrete,
        abstract=abstract,
        envelope=envelope,
        policy=policy,
        epsilon=epsilon,
        a1=a1,
        K=K,
        horizon=horizon,
        step=step,
        xhat0=xhat0,
        x0=x0,
        M=M,
    )


def _check_scalars(policy: AbstractInputPolicy, **values: float) -> None:
    """Check scenario scalars (any of epsilon, a1, step, horizon) as a
    configuration file would have them: finite, the horizon nonnegative and
    covered by open-loop segments, the others positive."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise InvariantViolation(f"scenario.{name} must be finite, got {value}")
        if name == "horizon":
            if value < 0:
                raise InvariantViolation("scenario.horizon must be nonnegative")
        elif value <= 0:
            raise InvariantViolation(f"scenario.{name} must be positive")
    horizon = values.get("horizon", 0.0)
    if policy.kind == "open_loop" and horizon > 0:
        if policy.segments[0].t_start > 1e-12 or policy.t_end < horizon - 1e-12:
            raise InvariantViolation(
                f"open-loop segments cover [{policy.segments[0].t_start}, "
                f"{policy.t_end}] but the horizon is [0, {horizon}]"
            )


def replace_scalars(scenario: Scenario, **values: float) -> Scenario:
    """`scenario` with some of epsilon, a1, step and horizon replaced,
    checked exactly as `parse_config` checks them."""
    values = {name: float(value) for name, value in values.items()}
    _check_scalars(scenario.policy, **values)
    return replace(scenario, **values)


def _matrix_lists(m: np.ndarray) -> list[list[float]]:
    return [[float(v) for v in row] for row in np.atleast_2d(m)]


def emit_config(scenario: Scenario) -> dict:
    """Inverse of parse_config: a JSON-ready dict that parses back equal."""
    policy = scenario.policy
    if policy.kind == "open_loop":
        items = [
            {"t_start": float(seg.t_start), "t_end": float(seg.t_end),
             "coeffs": _matrix_lists(seg.coeffs)}
            for seg in policy.segments
        ]
    else:
        items = [{"box": r.box.as_lists(), "gain": _matrix_lists(r.gain)} for r in policy.regions]
    systems = {
        name: {
            **{key: _matrix_lists(getattr(system, key)) for key in ("A", "B", "C")},
            "x0_box": system.initial_state_set.as_lists(),
        }
        for name, system in (("concrete", scenario.concrete), ("abstract", scenario.abstract))
    }
    systems["concrete"]["input_ball_radius"] = scenario.concrete.input_ball_radius
    s: dict = {
        "epsilon": scenario.epsilon,
        "a1": scenario.a1,
        "K": _matrix_lists(scenario.K),
        "horizon": scenario.horizon,
        "step": scenario.step,
        "xhat0": [float(v) for v in scenario.xhat0],
    }
    if scenario.x0 is not None:
        s["x0"] = [float(v) for v in scenario.x0]
    if scenario.M is not None:
        s["M"] = _matrix_lists(scenario.M)
    key = "segments" if policy.kind == "open_loop" else "regions"
    return {
        **systems,
        "envelope": {
            k: getattr(scenario.envelope, k) for k in ("xhat_max", "uhat_max", "uhatdot_max")
        },
        "policy": {"kind": policy.kind, key: items},
        "scenario": s,
    }
