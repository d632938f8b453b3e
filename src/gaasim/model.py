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
from dataclasses import dataclass

import numpy as np

from .numerics import as_matrix, ordered_dot

#: scenario defaults applied when the config omits the keys
DEFAULT_EPSILON = 0.5
DEFAULT_STEP = 1e-3


class ConfigError(ValueError):
    """A missing, unknown or wrongly-typed field, a dimension mismatch or a
    violated invariant of the configuration; the message names the path."""


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
            raise ConfigError("box lows/highs length mismatch")
        if not (np.isfinite(lows).all() and np.isfinite(highs).all()):
            raise ConfigError("box bounds must be finite")
        if np.any(lows > highs):
            raise ConfigError("box requires lo <= hi in every axis")

    @property
    def dim(self) -> int:
        return self.lows.size

    def contains(self, x):
        """Whether x lies in the box: a bool for one point, one bool per
        row for rows of points."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return bool((self.lows <= x).all() and (x <= self.highs).all())
        inside = np.ones(x.shape[:-1], dtype=bool)
        for k in range(self.dim):  # one pass per column of rows
            inside &= (x[..., k] >= self.lows[k]) & (x[..., k] <= self.highs[k])
        return bool(inside) if inside.ndim == 0 else inside

    def clamp(self, x) -> np.ndarray:
        """x, or each row of x, clamped into the box."""
        return np.clip(np.asarray(x, dtype=float), self.lows, self.highs)

    def meet(self, other: "Box") -> "Box | None":
        """The closed intersection of the two boxes, or None when it is empty."""
        lo = np.maximum(self.lows, other.lows)
        hi = np.minimum(self.highs, other.highs)
        return Box(lo, hi) if np.all(lo <= hi) else None

    def interior_overlaps(self, other: "Box") -> bool:
        lo = np.maximum(self.lows, other.lows)
        hi = np.minimum(self.highs, other.highs)
        return bool(np.all(lo < hi))

    def uncovered(self, covers) -> np.ndarray | None:
        """A point of the box that no box of `covers` holds, or None when
        their union holds the whole box, by recursive box subtraction: each
        cover cuts every piece left into the part it holds, dropped, and at
        most two pieces per axis that it does not.  What no cover holds is
        open in the box, so it is empty exactly when no piece is left that
        has width along every axis where the box has width; a cover that
        shares no such width with a piece leaves it whole, so every piece
        left has it.  The point is the middle of the first piece left."""
        axes = np.flatnonzero(self.lows < self.highs)
        pieces = [(self.lows, self.highs)]
        for cover in covers:
            left = []
            for lo, hi in pieces:
                cut_lo, cut_hi = np.maximum(lo, cover.lows), np.minimum(hi, cover.highs)
                if not (np.all(cut_lo <= cut_hi) and np.all(cut_lo[axes] < cut_hi[axes])):
                    left.append((lo, hi))
                    continue
                for k in axes:
                    at = np.arange(self.dim) == k
                    if lo[k] < cut_lo[k]:
                        left.append((lo, np.where(at, cut_lo, hi)))
                    if cut_hi[k] < hi[k]:
                        left.append((np.where(at, cut_hi, lo), hi))
                    lo, hi = np.where(at, cut_lo, lo), np.where(at, cut_hi, hi)
            pieces = left
        return 0.5 * pieces[0][0] + 0.5 * pieces[0][1] if pieces else None

    def as_lists(self) -> list[list[float]]:
        return [[float(lo), float(hi)] for lo, hi in zip(self.lows, self.highs)]


def _check_lti(system, prefix: str) -> None:
    """Coerce A, B, C of an LTI system to matrices and check their shapes and
    the initial box against the state dimension; `prefix` starts each path."""
    for name in ("A", "B", "C"):
        object.__setattr__(system, name, as_matrix(getattr(system, name), f"{prefix}.{name}"))
    n = system.A.shape[0]
    if system.A.shape[1] != n:
        raise ConfigError(f"{prefix}.A must be square, got {system.A.shape}")
    if system.B.shape[0] != n:
        raise ConfigError(
            f"{prefix}.B row count {system.B.shape[0]} != state dimension {n}"
        )
    if system.C.shape[1] != n:
        raise ConfigError(
            f"{prefix}.C column count {system.C.shape[1]} != state dimension {n}"
        )
    if system.initial_state_set.dim != n:
        raise ConfigError(
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
            raise ConfigError("concrete.input_ball_radius must be positive")

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
                raise ConfigError(f"envelope.{name} must be finite and >= 0")


@dataclass(frozen=True, eq=False)
class OpenLoopSegment:
    """Per-channel polynomial input on [t_start, t_end), degree <= 3."""

    t_start: float
    t_end: float
    coeffs: np.ndarray  # (m_r, deg+1), ascending powers of absolute t

    def __post_init__(self):
        object.__setattr__(self, "coeffs", as_matrix(self.coeffs, "segment.coeffs"))
        if self.coeffs.shape[1] > 4:
            raise ConfigError("segment polynomial degree exceeds 3")
        if not self.t_end > self.t_start:
            raise ConfigError(
                f"segment needs t_end > t_start, got [{self.t_start}, {self.t_end}]"
            )

    @staticmethod
    def _poly(coeffs: np.ndarray, t) -> np.ndarray:
        """sum_j coeffs[:, j] t^j, added to zero in the order of j, with t^j
        the product t^(j-1) t, so a time gives the same bits alone as among
        others."""
        times = np.asarray(t, dtype=float).reshape(-1)
        rows = np.zeros((coeffs.shape[0], times.size))
        for j in range(coeffs.shape[1]):  # t^0 = 1 and t^1 = t take no product
            power = None if j == 0 else times if j == 1 else power * times
            rows += coeffs[:, j, None] if j == 0 else coeffs[:, j, None] * power
        return rows.T[0] if np.ndim(t) == 0 else rows.T

    def holds(self, t: float, xhat) -> bool:
        """Whether the segment ends after t."""
        return t < self.t_end

    def uhat(self, t, xhat) -> np.ndarray:
        """uhat at t: (m_r,) for a scalar t, (len(t), m_r) for a 1-D array."""
        return self._poly(self.coeffs, t)

    def uhatdot(self, abstract, t, xhat, uhat) -> np.ndarray:
        """duhat/dt at t, shaped as `uhat`: the segment derivative."""
        return self._poly(self.coeffs[:, 1:] * np.arange(1, self.coeffs.shape[1]), t)


@dataclass(frozen=True, eq=False)
class FeedbackRegion:
    """Box region of the abstract state with gain uhat = -K xhat."""

    box: Box
    gain: np.ndarray

    #: a region holds at every time it holds xhat, so it has no end
    t_end = math.inf

    def __post_init__(self):
        object.__setattr__(self, "gain", as_matrix(self.gain, "region.gain"))
        if self.gain.shape[1] != self.box.dim:
            raise ConfigError(
                f"region gain columns {self.gain.shape[1]} != box dimension {self.box.dim}"
            )

    def holds(self, t: float, xhat) -> bool:
        """Whether the box holds xhat."""
        return self.box.contains(xhat)

    def uhat(self, t, xhat: np.ndarray) -> np.ndarray:
        """-K xhat at one abstract state, or at each row of xhat."""
        out = -ordered_dot(self.gain, np.reshape(xhat, (-1, self.box.dim)).T)
        return out[:, 0] if np.ndim(xhat) < 2 else out.T

    def uhatdot(self, abstract, t, xhat: np.ndarray, uhat: np.ndarray) -> np.ndarray:
        """duhat/dt at the rows (t, xhat, uhat): -K (A xhat + B uhat), by the
        chain rule."""
        rate = ordered_dot(abstract.A, xhat.T) + ordered_dot(abstract.B, uhat.T)
        return -ordered_dot(self.gain, rate).T


@dataclass(frozen=True, eq=False)
class AbstractInputPolicy:
    """Piecewise abstract control: open-loop segments or switched feedback.

    The active regime is the first one in declared order that holds (see
    `regime_index`); with regions listed from high to low this reproduces
    half-open interval semantics on shared boundaries.
    """

    kind: str
    segments: tuple[OpenLoopSegment, ...] = ()
    regions: tuple[FeedbackRegion, ...] = ()

    def __post_init__(self):
        _kind(self.kind, "policy.kind")
        if self.kind == "open_loop":
            if not self.segments:
                raise ConfigError("open_loop policy needs at least one segment")
            for a, b in zip(self.segments, self.segments[1:]):
                if b.t_start < a.t_end - 1e-12 or b.t_start > a.t_end + 1e-12:
                    raise ConfigError(
                        f"segments must abut: [{a.t_start}, {a.t_end}] then "
                        f"[{b.t_start}, {b.t_end}]"
                    )
            widths = {seg.coeffs.shape[0] for seg in self.segments}
            if len(widths) != 1:
                raise ConfigError("all segments must share the channel count")
        else:
            if not self.regions:
                raise ConfigError("switched_feedback policy needs regions")
            dims = {r.box.dim for r in self.regions}
            gains = {r.gain.shape[0] for r in self.regions}
            if len(dims) != 1 or len(gains) != 1:
                raise ConfigError("regions must share box dimension and gain rows")
            for i, ri in enumerate(self.regions):
                for rj in self.regions[i + 1 :]:
                    if ri.box.interior_overlaps(rj.box):
                        raise ConfigError("region interiors must be disjoint")
            if next(iter(dims)) == 1:
                # 1-D coverage: sorted regions must tile without gaps
                spans = sorted((r.box.lows[0], r.box.highs[0]) for r in self.regions)
                for (_, hi_a), (lo_b, _) in zip(spans, spans[1:]):
                    if lo_b > hi_a + 1e-12:
                        raise ConfigError(
                            f"coverage gap between regions at {hi_a} .. {lo_b}"
                        )

    @property
    def regimes(self) -> tuple:
        """The segments or the regions, in declared order."""
        return getattr(self, _POLICY_KINDS[self.kind][0])

    @property
    def m_r(self) -> int:
        if self.kind == "open_loop":
            return self.segments[0].coeffs.shape[0]
        return self.regions[0].gain.shape[0]

    @property
    def t_end(self) -> float:
        return self.regimes[-1].t_end

    def regime_index(self, t: float, xhat) -> int:
        """The index of the first regime that holds at time t and abstract
        state xhat: the first segment that ends after t, and the last one
        from its end on, or the first region whose box holds xhat."""
        for i, regime in enumerate(self.regimes):
            if regime.holds(t, xhat):
                return i
        if t >= self.t_end:
            return len(self.regimes) - 1
        raise DomainGap(f"abstract state {np.asarray(xhat).tolist()} outside all regions")

    def pieces(self, t: float, box: Box) -> list[tuple[int, Box]]:
        """(i, part) for each regime i that `regime_index` can pick at time
        t at a point of `box`, with the part of the box where it can: the
        segment it picks at t, over the whole box, or each region whose
        closed box meets `box`, over their intersection.  The parts cover the
        box, and may overlap.  Raises DomainGap, as `regime_index` does,
        where a point of the box lies in no region."""
        if self.kind == "open_loop":
            return [(self.regime_index(t, box.lows), box)]
        gap = box.uncovered([r.box for r in self.regions])
        if gap is not None:
            raise DomainGap(f"abstract state {gap.tolist()} outside all regions")
        parts = [(i, box.meet(r.box)) for i, r in enumerate(self.regions)]
        return [(i, part) for i, part in parts if part is not None]

    def breakpoints(self) -> list[float]:
        """Interior open-loop segment boundaries (candidate jump times)."""
        return [r.t_end for r in self.regimes[:-1] if r.t_end < math.inf]

    def uhat_at(self, t: float, xhat) -> np.ndarray:
        """uhat at one time t and abstract state xhat, from the regime that
        `regime_index` picks there."""
        xhat = np.asarray(xhat, dtype=float).reshape(-1)
        return self.regimes[self.regime_index(t, xhat)].uhat(t, xhat)

    def uhat(self, times: np.ndarray, xhat: np.ndarray, runs) -> np.ndarray:
        """(len(times), m_r) uhat, F-contiguous, at rows (times, xhat) that
        `runs` covers as (start, stop, regime index), one vectorized
        evaluation per run."""
        out = np.empty((times.size, self.m_r), order="F")
        for a, b, idx in runs:
            out[a:b] = self.regimes[idx].uhat(times[a:b], xhat[a:b])
        return out

    def uhatdot(
        self, abstract: "AbstractLinearSystem", times: np.ndarray, xhat: np.ndarray,
        uhat: np.ndarray, runs,
    ) -> np.ndarray:
        """duhat/dt at the rows of `uhat`, laid out as `uhat`."""
        out = np.empty_like(uhat)
        for a, b, idx in runs:
            out[a:b] = self.regimes[idx].uhatdot(abstract, times[a:b], xhat[a:b], uhat[a:b])
        return out


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


def _section(value, path: str, table: dict) -> dict:
    """The parsed value of every key of `table`, read from the object `value`
    at `path`.  The table maps each key to its parser, or to (parser,
    default) when the key may be left out; a key whose default is None may
    also be given as null."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {type(value).__name__}")
    unknown = set(value) - set(table)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    fields = {}
    for key, entry in table.items():
        parse, *default = entry if isinstance(entry, tuple) else (entry,)
        if key not in value and not default:
            raise ConfigError(f"{path}.{key}: required key missing")
        raw = value.get(key, *default)
        fields[key] = None if raw is None and default == [None] else parse(raw, f"{path}.{key}")
    return fields


def _any(value, path: str):
    return value


def _array(value, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected an array")
    return value


def _kind(value, path: str) -> str:
    if value not in list(_POLICY_KINDS):  # compared by ==: a JSON value may be unhashable
        raise ConfigError(f"{path}: unknown kind {value!r}")
    return value


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):  # JSON admits NaN and Infinity
        raise ConfigError(f"{path}: expected a finite number, got {number}")
    return number


def _matrix(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty array of arrays")
    rows = []
    width = None
    for i, row in enumerate(value):
        if not isinstance(row, list) or not row:
            raise ConfigError(f"{path}[{i}]: expected a non-empty array of numbers")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ConfigError(f"{path}[{i}]: ragged row (expected {width} entries)")
        rows.append([_number(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)])
    return np.array(rows, dtype=float)


def _vector(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty array of numbers")
    return np.array([_number(x, f"{path}[{i}]") for i, x in enumerate(value)], dtype=float)


def _box(value, path: str) -> Box:
    m = _matrix(value, path)
    if m.shape[1] != 2:
        raise ConfigError(f"{path}: expected [lo, hi] pairs per axis")
    return Box(m[:, 0], m[:, 1])


#: the key table of each section of a configuration but the policy: a key
#: maps to its parser, or to (parser, default) when it may be left out
_SECTIONS = {
    "concrete": {
        "A": _matrix, "B": _matrix, "C": _matrix, "input_ball_radius": _number, "x0_box": _box,
    },
    "abstract": {"A": _matrix, "B": _matrix, "C": _matrix, "x0_box": _box},
    "envelope": {"xhat_max": _number, "uhat_max": _number, "uhatdot_max": _number},
    "scenario": {
        "epsilon": (_number, DEFAULT_EPSILON), "a1": _number, "K": _matrix, "horizon": _number,
        "step": (_number, DEFAULT_STEP), "xhat0": _vector, "x0": (_vector, None),
        "M": (_matrix, None),
    },
}

#: the policy's key table beside its items
_POLICY = {"kind": _kind}

#: each policy kind: the key of its items, and their class and key table
_POLICY_KINDS = {
    "open_loop": (
        "segments", OpenLoopSegment, {"t_start": _number, "t_end": _number, "coeffs": _matrix},
    ),
    "switched_feedback": ("regions", FeedbackRegion, {"box": _box, "gain": _matrix}),
}

#: config keys whose value an object holds under another attribute name
_ATTRIBUTE = {"x0_box": "initial_state_set"}


def _fields(doc: dict, name: str) -> dict:
    """Section `name` of the document, parsed, by attribute name."""
    fields = _section(doc[name], name, _SECTIONS[name])
    return {_ATTRIBUTE.get(key, key): value for key, value in fields.items()}


def _parse_policy(value, path: str) -> AbstractInputPolicy:
    """The policy at `path`: its kind first, then the items of that kind."""
    any_items = {key: (_any, None) for key, _, _ in _POLICY_KINDS.values()}
    kind = _section(value, path, {**_POLICY, **any_items})["kind"]
    key, item_class, item_table = _POLICY_KINDS[kind]
    fields = _section(value, path, {**_POLICY, key: _array})
    fields[key] = tuple(
        item_class(**_section(item, f"{path}.{key}[{i}]", item_table))
        for i, item in enumerate(fields[key])
    )
    return AbstractInputPolicy(**fields)


def parse_config(document, **overrides: float | None) -> Scenario:
    """Parse and validate a configuration document (JSON text or dict).  The
    `overrides` that are not None replace scenario scalars (epsilon, a1,
    step, horizon) before those are checked."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"malformed JSON: {exc}") from exc
    doc = _section(document, "$", dict.fromkeys([*_SECTIONS, "policy"], _any))
    concrete = ConcreteLinearSystem(**_fields(doc, "concrete"))
    abstract = AbstractLinearSystem(**_fields(doc, "abstract"))

    pair = (
        ("state_dim_reduced", abstract.n_r <= concrete.n, f"n_r={abstract.n_r} vs n={concrete.n}"),
        ("input_dim_reduced", abstract.m_r <= concrete.m, f"m_r={abstract.m_r} vs m={concrete.m}"),
        ("output_dim_equal", abstract.p == concrete.p, f"p_hat={abstract.p} vs p={concrete.p}"),
    )
    failed = [f"{name} failed ({detail})" for name, ok, detail in pair if not ok]
    if failed:
        raise ConfigError("; ".join(failed))

    envelope = OperatingEnvelope(**_fields(doc, "envelope"))
    policy = _parse_policy(doc["policy"], "policy")
    if policy.m_r != abstract.m_r:
        raise ConfigError(
            f"policy channel count {policy.m_r} != abstract input dimension {abstract.m_r}"
        )
    if policy.kind == "switched_feedback" and policy.regions[0].box.dim != abstract.n_r:
        raise ConfigError(
            f"policy region dimension {policy.regions[0].box.dim} != n_r {abstract.n_r}"
        )

    scalars = {name: float(value) for name, value in overrides.items() if value is not None}
    sc = Scenario(concrete, abstract, envelope, policy, **{**_fields(doc, "scenario"), **scalars})
    _check_scalars(policy, epsilon=sc.epsilon, a1=sc.a1, step=sc.step, horizon=sc.horizon)
    n, m, n_r = concrete.n, concrete.m, abstract.n_r
    for name, shape in (("K", (m, n)), ("xhat0", (n_r,)), ("x0", (n,)), ("M", (n, n))):
        value = getattr(sc, name)
        if value is not None and value.shape != shape:
            raise ConfigError(f"scenario.{name} shape {value.shape} != {shape}")
    for name, start, where, box in (
        ("x0", sc.x0, "concrete", concrete.initial_state_set),
        ("xhat0", sc.xhat0, "abstract", abstract.initial_state_set),
    ):
        if start is not None and not box.contains(start):
            raise ConfigError(f"scenario.{name} {start.tolist()} outside {where}.x0_box")
    return sc


def _check_scalars(policy: AbstractInputPolicy, **values: float) -> None:
    """Check scenario scalars (any of epsilon, a1, step, horizon) as a
    configuration file would have them: finite, the horizon nonnegative and
    covered by open-loop segments, the others positive."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ConfigError(f"scenario.{name} must be finite, got {value}")
        if name == "horizon":
            if value < 0:
                raise ConfigError("scenario.horizon must be nonnegative")
        elif value <= 0:
            raise ConfigError(f"scenario.{name} must be positive")
    horizon = values.get("horizon", 0.0)
    if policy.kind == "open_loop" and horizon > 0:
        if policy.segments[0].t_start > 1e-12 or policy.t_end < horizon - 1e-12:
            raise ConfigError(
                f"open-loop segments cover [{policy.segments[0].t_start}, "
                f"{policy.t_end}] but the horizon is [0, {horizon}]"
            )


def _lists(a) -> list:
    return np.asarray(a, dtype=float).tolist()


#: the JSON form of a parsed value, by the parser that read it
_JSON = {_number: float, _vector: _lists, _matrix: _lists, _box: Box.as_lists, _kind: str}


def _emit(obj, table: dict) -> dict:
    """The config object of `obj` under the key table `table`; an attribute
    that is None is left out."""
    out = {}
    for key, entry in table.items():
        value = getattr(obj, _ATTRIBUTE.get(key, key))
        if value is not None:
            out[key] = _JSON[entry[0] if isinstance(entry, tuple) else entry](value)
    return out


def emit_config(scenario: Scenario) -> dict:
    """Inverse of parse_config: a JSON-ready dict that parses back equal."""
    policy = scenario.policy
    key, _, item_table = _POLICY_KINDS[policy.kind]
    # the scenario section's keys are fields of the Scenario itself
    sections = {name: getattr(scenario, name, scenario) for name in _SECTIONS}
    return {
        **{name: _emit(obj, _SECTIONS[name]) for name, obj in sections.items()},
        "policy": {**_emit(policy, _POLICY), key: [_emit(r, item_table) for r in policy.regimes]},
    }
