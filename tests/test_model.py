import copy
import json
import re

import numpy as np
import pytest

from gaasim import casestudy
from gaasim.model import (
    AbstractInputPolicy,
    AbstractLinearSystem,
    Box,
    ConcreteLinearSystem,
    ConfigError,
    DomainGap,
    FeedbackRegion,
    OpenLoopSegment,
    OperatingEnvelope,
    TIME_TOL,
    emit_config,
    parse_config,
)

from conftest import point_box


class TestParseConfig:
    def test_study_config_dimensions(self):
        sc = parse_config(casestudy.switched_config())
        assert (sc.concrete.n, sc.concrete.m, sc.concrete.p) == (2, 1, 1)
        assert (sc.abstract.n_r, sc.abstract.m_r) == (1, 1)
        assert np.allclose(sc.concrete.A, [[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(sc.abstract.B, [[1.0]])
        assert sc.epsilon == 0.5 and sc.a1 == 0.5

    def test_accepts_json_text(self):
        sc = parse_config(json.dumps(casestudy.ramp_config()))
        assert sc.policy.kind == "open_loop"

    def test_wrong_b_row_count(self):
        cfg = casestudy.switched_config()
        cfg["concrete"]["B"] = [[0.0]]
        with pytest.raises(ConfigError, match="concrete.B"):
            parse_config(cfg)

    def test_empty_segments_rejected(self):
        cfg = casestudy.ramp_config()
        cfg["policy"]["segments"] = []
        with pytest.raises(ConfigError, match="needs at least one segment"):
            parse_config(cfg)

    def test_coverage_gap_rejected(self):
        cfg = casestudy.ramp_config(horizon=100.0)
        cfg["policy"]["segments"] = [cfg["policy"]["segments"][0]]  # [0, 50] only
        with pytest.raises(ConfigError, match="cover"):
            parse_config(cfg)

    def test_unknown_keys_rejected(self):
        cfg = casestudy.switched_config()
        cfg["extra"] = 1
        with pytest.raises(ConfigError, match="extra"):
            parse_config(cfg)
        cfg = casestudy.switched_config()
        cfg["scenario"]["mystery"] = 2
        with pytest.raises(ConfigError, match="mystery"):
            parse_config(cfg)

    def test_missing_required_key_names_path(self):
        cfg = casestudy.switched_config()
        del cfg["scenario"]["K"]
        with pytest.raises(ConfigError, match=r"scenario\.K"):
            parse_config(cfg)

    def test_defaults_applied(self):
        cfg = casestudy.switched_config()
        del cfg["scenario"]["epsilon"]
        del cfg["scenario"]["step"]
        sc = parse_config(cfg)
        assert sc.epsilon == 0.5
        assert sc.step == 1e-3

    def test_malformed_json(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_config("{not json")

    def test_non_numeric_entry(self):
        cfg = casestudy.switched_config()
        cfg["scenario"]["a1"] = "fast"
        with pytest.raises(ConfigError, match=r"scenario\.a1"):
            parse_config(cfg)

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400])
    def test_non_finite_number_rejected(self, text):
        document = json.dumps(casestudy.switched_config()).replace(
            '"step": 0.001', f'"step": {text}'
        )
        assert f'"step": {text}' in document
        with pytest.raises(ConfigError, match=r"scenario\.step: expected a finite number"):
            parse_config(document)

    def test_non_finite_matrix_entry_rejected(self):
        cfg = casestudy.switched_config()
        cfg["concrete"]["A"][0][1] = float("inf")
        with pytest.raises(ConfigError, match=r"concrete\.A\[0\]\[1\]"):
            parse_config(cfg)

    def test_round_trip(self):
        for cfg in (casestudy.switched_config(), casestudy.ramp_config()):
            first = emit_config(parse_config(cfg))
            second = emit_config(parse_config(first))
            assert first == second

    def test_optional_x0_and_m(self):
        cfg = casestudy.switched_config()
        del cfg["scenario"]["x0"]
        del cfg["scenario"]["M"]
        sc = parse_config(cfg)
        assert sc.x0 is None and sc.M is None

    @pytest.mark.parametrize("key, value, message", [
        ("x0", [40.3, -0.0401], r"scenario.x0 \[40.3, -0.0401\] outside concrete.x0_box"),
        ("xhat0", [40.05], r"scenario.xhat0 \[40.05\] outside abstract.x0_box"),
    ])
    def test_start_outside_its_initial_box_rejected(self, key, value, message):
        # both boxes of the study are points: [40, -0.0401] and [40.1]
        cfg = casestudy.switched_config(horizon=5.0, step=0.01)
        cfg["scenario"][key] = value
        with pytest.raises(ConfigError, match=message):
            parse_config(cfg)

    def test_study_starts_lie_in_their_boxes(self):
        for cfg in (casestudy.switched_config(), casestudy.ramp_config()):
            sc = parse_config(cfg)
            assert sc.concrete.initial_state_set.contains(sc.x0)
            assert sc.abstract.initial_state_set.contains(sc.xhat0)


class TestValidatePair:
    """The dimension checks of a concrete/abstract pair, in parse_config."""

    def test_study_pair_passes(self):
        for cfg in (casestudy.switched_config(), casestudy.ramp_config()):
            sc = parse_config(cfg)
            assert sc.abstract.n_r <= sc.concrete.n
            assert sc.abstract.m_r <= sc.concrete.m
            assert sc.abstract.p == sc.concrete.p

    def test_oversized_abstract_state(self):
        cfg = casestudy.switched_config()
        cfg["abstract"].update(
            A=np.zeros((3, 3)).tolist(), B=np.zeros((3, 1)).tolist(),
            C=np.ones((1, 3)).tolist(), x0_box=[[0.0, 0.0]] * 3,
        )
        message = "state_dim_reduced failed (n_r=3 vs n=2)"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(cfg)

    def test_output_dim_mismatch(self):
        cfg = casestudy.switched_config()
        cfg["abstract"]["C"] = [[1.0], [0.0]]
        message = "output_dim_equal failed (p_hat=2 vs p=1)"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(cfg)


class TestTypes:
    def test_box_invariants(self):
        with pytest.raises(ConfigError, match="lo <= hi"):
            Box([1.0], [0.0])
        b = Box([0.0, 1.0], [2.0, 1.0])
        assert b.contains([1.0, 1.0])
        assert not b.contains([3.0, 1.0])
        assert np.allclose(b.clamp([5.0, 0.0]), [2.0, 1.0])
        assert b.meet(Box([1.0, 1.0], [3.0, 4.0])).as_lists() == [[1.0, 2.0], [1.0, 1.0]]
        # closed: boxes that touch meet in their common face, here a point
        assert b.meet(Box([2.0, 0.0], [3.0, 5.0])).as_lists() == [[2.0, 2.0], [1.0, 1.0]]
        assert b.meet(Box([2.0, 0.0], [3.0, 0.5])) is None

    def test_point_and_row_paths_agree(self):
        """One point gives the bool its row gives, on random points, NaN,
        infinities and points on each face."""
        rng = np.random.default_rng(3)
        box = Box([-1.0, 0.0, 2.0], [1.0, 0.0, 5.0])
        faces = np.array([box.lows, box.highs])
        points = rng.uniform(-2.0, 6.0, (400, 3))
        for k in range(3):  # one coordinate on a face, a NaN or an infinity
            pick = rng.integers(0, 8, 400)
            points[pick == 0, k] = faces[0, k]
            points[pick == 1, k] = faces[1, k]
            points[pick == 2, k] = np.nan
            points[pick == 3, k] = rng.choice([np.inf, -np.inf])
        points = np.vstack([points, faces, [[0.5, 0.0, 3.0], [0.5, -0.0, 5.0]]])
        rows = box.contains(points)
        assert rows.any() and not rows.all()
        for point, inside in zip(points, rows):
            assert box.contains(point) is bool(inside)

    @pytest.mark.parametrize("covers, gap", [
        # two halves meeting on a face cover the square, in either order
        ([[[0, 0], [1, 2]], [[1, 0], [2, 2]]], None),
        ([[[1, 0], [2, 2]], [[0, 0], [1, 2]]], None),
        # four quadrants, and a cover wider than the box
        ([[[0, 0], [1, 1]], [[1, 0], [2, 1]], [[0, 1], [1, 2]], [[1, 1], [2, 2]]], None),
        ([[[-5, -5], [5, 5]]], None),
        # a slit of width 0.5 between the halves; a missing quadrant
        ([[[0, 0], [1, 2]], [[1.5, 0], [2, 2]]], [1.25, 1.0]),
        ([[[0, 0], [1, 1]], [[1, 0], [2, 1]], [[0, 1], [1, 2]]], [1.5, 1.5]),
        # a cover that only touches the box's edge leaves it all uncovered
        ([[[2, 0], [3, 2]]], [1.0, 1.0]),
    ])
    def test_uncovered(self, covers, gap):
        square = Box([0.0, 0.0], [2.0, 2.0])
        found = square.uncovered([Box(*c) for c in covers])
        assert (found is None) if gap is None else found.tolist() == gap

    def test_uncovered_flat_box(self):
        # a box that is a segment is covered by covers that hold its line:
        # width across that line does not count
        segment = Box([0.0, 1.0], [2.0, 1.0])
        halves = [Box([0.0, 0.0], [1.0, 1.0]), Box([1.0, 1.0], [2.0, 3.0])]
        assert segment.uncovered(halves) is None
        assert segment.uncovered(halves[:1]).tolist() == [1.5, 1.0]
        assert segment.uncovered([Box([0.0, 1.5], [2.0, 3.0])]).tolist() == [1.0, 1.0]
        assert Box([1.0], [1.0]).uncovered([Box([0.0], [1.0])]) is None

    def test_envelope_rejects_negative(self):
        with pytest.raises(ConfigError, match=r"envelope\.xhat_max must be finite and >= 0"):
            OperatingEnvelope(xhat_max=-1.0, uhat_max=0.0, uhatdot_max=0.0)

    def test_positive_input_ball(self):
        with pytest.raises(ConfigError, match=r"concrete\.input_ball_radius must be positive"):
            ConcreteLinearSystem(
                A=[[0.0]],
                B=[[1.0]],
                C=[[1.0]],
                input_ball_radius=0.0,
                initial_state_set=point_box([0.0]),
            )

    def test_segment_degree_cap(self):
        with pytest.raises(ConfigError, match="degree exceeds 3"):
            OpenLoopSegment(t_start=0.0, t_end=1.0, coeffs=[[1.0, 1.0, 1.0, 1.0, 1.0]])

    def test_region_overlap_rejected(self):
        with pytest.raises(ConfigError, match="disjoint"):
            AbstractInputPolicy(
                kind="switched_feedback",
                regions=(
                    FeedbackRegion(box=Box([0.0], [2.0]), gain=[[1.0]]),
                    FeedbackRegion(box=Box([1.0], [3.0]), gain=[[2.0]]),
                ),
            )

    def test_region_gap_rejected_1d(self):
        with pytest.raises(ConfigError, match="gap"):
            AbstractInputPolicy(
                kind="switched_feedback",
                regions=(
                    FeedbackRegion(box=Box([2.0], [3.0]), gain=[[1.0]]),
                    FeedbackRegion(box=Box([0.0], [1.0]), gain=[[2.0]]),
                ),
            )

    def test_region_lookup_first_match(self):
        sc = parse_config(casestudy.switched_config())
        # shared boundary 30 belongs to the earlier-declared (upper) region
        assert sc.policy.regime_index(0.0, [30.0]) == 0
        assert sc.policy.regime_index(0.0, [29.999]) == 1
        with pytest.raises(DomainGap):
            sc.policy.regime_index(0.0, [100.0])


class TestTimeRule:
    """Two times within TIME_TOL are one instant: the regime that holds
    from a time on and the cuts of a run follow the same rule."""

    @staticmethod
    def policy():
        """uhat 0 on [0, 50], then 1 on [50, 200]."""
        return AbstractInputPolicy(kind="open_loop", segments=(
            OpenLoopSegment(0.0, 50.0, [[0.0]]), OpenLoopSegment(50.0, 200.0, [[1.0]])))

    @pytest.mark.parametrize("t, index", [
        (50.0 - 2e-12, 0), (50.0 - 5e-13, 1), (50.0, 1), (200.0 - 2e-12, 1),
    ])
    def test_a_time_within_one_instant_before_an_end_is_the_next_segment(self, t, index):
        assert self.policy().regime_index(t, [0.0]) == index

    @pytest.mark.parametrize("t", [200.0, 250.0, 200.0 - 5e-13])
    def test_the_last_segment_holds_from_within_one_instant_of_its_end(self, t):
        policy = self.policy()
        assert not policy.segments[-1].holds(t, [0.0])
        assert policy.regime_index(t, [0.0]) == 1

    @pytest.mark.parametrize("t0, t_end, spans", [
        (0.0, 100.0, [(0.0, 50.0), (50.0, 100.0)]),
        (50.0 - 2e-12, 100.0, [(50.0 - 2e-12, 50.0), (50.0, 100.0)]),
        (50.0 - 0.5 * TIME_TOL, 100.0, [(50.0 - 0.5 * TIME_TOL, 100.0)]),
        (0.0, 50.0 + 0.5 * TIME_TOL, [(0.0, 50.0 + 0.5 * TIME_TOL)]),
        (0.0, 50.0, [(0.0, 50.0)]),
    ])
    def test_a_cut_within_one_instant_of_either_end_is_dropped(self, t0, t_end, spans):
        policy = self.policy()
        assert policy.spans(t0, t_end) == spans
        # each span after the first starts with the segment that starts there
        assert [policy.regime_index(a, [0.0]) for a, _ in spans[1:]] == [1] * (len(spans) - 1)

    def test_a_feedback_run_is_one_span(self):
        policy = parse_config(casestudy.switched_config()).policy
        assert policy.spans(0.0, 1000.0) == [(0.0, 1000.0)]

    def test_ramp_study_spans(self):
        policy = parse_config(casestudy.ramp_config(horizon=200.0)).policy
        assert policy.spans(0.0, 200.0) == [(0.0, 50.0), (50.0, 200.0)]


class TestPolicyEvaluationGrid:
    def test_open_loop_smooth_within_segments(self):
        sc = parse_config(casestudy.ramp_config(horizon=200.0))
        policy = sc.policy
        breaks = {a for a, _ in policy.spans(0.0, 200.0)[1:]}
        ts = np.linspace(0.0, 200.0, 10_000)
        lip = 0.03  # |duhat/dt| <= 0.02 on the ramp, 0 afterwards
        values = []
        for t in ts:
            values.append(policy.uhat_at(t, [0.0]))
        values = np.array(values)
        for i in range(len(ts) - 1):
            spans_break = any(ts[i] < b <= ts[i + 1] for b in breaks)
            if not spans_break:
                dv = np.linalg.norm(values[i + 1] - values[i])
                assert dv <= lip * (ts[i + 1] - ts[i]) + 1e-12

    def test_switched_jumps_only_at_boundaries(self):
        sc = parse_config(casestudy.switched_config())
        policy = sc.policy
        boundaries = {30.0, 20.0, 10.0}
        xs = np.linspace(0.0, 40.1, 10_000)
        gains = np.array([policy.regions[policy.regime_index(0.0, [x])].gain[0, 0] for x in xs])
        values = -gains * xs
        max_gain = max(r.gain[0, 0] for r in policy.regions)
        for i in range(len(xs) - 1):
            spans = any(xs[i] < b <= xs[i + 1] for b in boundaries)
            if not spans:
                dv = abs(values[i + 1] - values[i])
                assert dv <= max_gain * (xs[i + 1] - xs[i]) + 1e-12

    def test_cubic_segment_time_alone_equals_its_row(self):
        """A time evaluated alone (as `uhat_at` does) gives the bits of its
        row among others (as a record's `uhat` does), for value and
        derivative alike."""
        rng = np.random.default_rng(4)
        mismatches = 0
        for _ in range(10):
            t_start = rng.uniform(0.0, 3.0)
            seg = OpenLoopSegment(t_start, t_start + 3.0, [rng.uniform(-1.0, 1.0, 4)])
            times = rng.uniform(seg.t_start, seg.t_end, 82)
            for at in (seg.uhat, lambda t, xhat: seg.uhatdot(None, t, xhat, None)):
                rows = at(times, None)
                mismatches += sum(not np.array_equal(at(t, None), row) for t, row in zip(times, rows))
        assert mismatches == 0

    def test_every_row_of_a_long_grid_equals_its_time_alone(self):
        """On a 30,001-row grid, as long as a record's, every row of value and
        derivative has the bits of its time evaluated alone: the powers of t
        do not depend on how many times are evaluated together."""
        rng = np.random.default_rng(4)
        seg = OpenLoopSegment(0.0, 6.0, rng.uniform(-1.0, 1.0, (2, 4)))
        times = np.linspace(0.0, 6.0, 30_001)
        for at in (seg.uhat, lambda t, xhat: seg.uhatdot(None, t, xhat, None)):
            rows = at(times, None)
            assert rows.shape == (times.size, 2)
            assert all(np.array_equal(at(t, None), row) for t, row in zip(times, rows))


class TestReplaceScalars:
    """`parse_config`'s overrides replace scenario scalars before the checks."""

    def test_valid_values_replace(self):
        cfg = casestudy.switched_config()
        out = parse_config(cfg, epsilon=0.4, a1=1, step=2e-3, horizon=10.0)
        assert (out.epsilon, out.a1, out.step, out.horizon) == (0.4, 1.0, 2e-3, 10.0)
        assert isinstance(out.a1, float)
        cfg["scenario"].update(epsilon=0.4, a1=1.0, step=2e-3, horizon=10.0)
        assert emit_config(out) == cfg
        assert emit_config(parse_config(cfg, epsilon=None)) == cfg  # None replaces nothing

    @pytest.mark.parametrize("name, value, message", [
        ("epsilon", 0.0, "must be positive"),
        ("a1", -1.0, "must be positive"),
        ("step", 0.0, "must be positive"),
        ("horizon", -1.0, "must be nonnegative"),
        ("step", float("nan"), "must be finite"),
        ("horizon", float("inf"), "must be finite"),
        ("epsilon", float("-inf"), "must be finite"),
    ])
    def test_checked_like_the_config(self, name, value, message):
        with pytest.raises(ConfigError, match=rf"scenario\.{name} {message}"):
            parse_config(casestudy.switched_config(), **{name: value})

    def test_horizon_beyond_open_loop_segments(self):
        cfg = casestudy.ramp_config(horizon=100.0)
        parse_config(cfg, horizon=50.0)
        with pytest.raises(ConfigError, match="open-loop segments cover"):
            parse_config(cfg, horizon=1000.0)
        # the effective value is checked: an overridden file value is not
        cfg["scenario"]["horizon"] = 1000.0
        with pytest.raises(ConfigError, match="open-loop segments cover"):
            parse_config(cfg)
        assert parse_config(cfg, horizon=50.0).horizon == 50.0


def test_emit_equals_source_dict():
    for cfg in (casestudy.switched_config(), casestudy.ramp_config()):
        emitted = emit_config(parse_config(copy.deepcopy(cfg)))
        assert emitted == cfg


def _path_name(path) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:]


def _schema_keys(optional: bool):
    """A case (study config, path) for every key of the configuration
    schema, the keys that may be left out among them when `optional`."""
    sections = {
        "concrete": ("A", "B", "C", "input_ball_radius", "x0_box"),
        "abstract": ("A", "B", "C", "x0_box"),
        "envelope": ("xhat_max", "uhat_max", "uhatdot_max"),
        "scenario": ("a1", "K", "horizon", "xhat0") + (("epsilon", "step", "x0", "M") * optional),
        "policy": ("kind", "regions"),
    }
    switched, ramp = casestudy.switched_config, casestudy.ramp_config
    keys = [(switched, (name, key)) for name, keys in sections.items() for key in keys]
    keys += [(switched, ("policy", "regions", 0, key)) for key in ("box", "gain")]
    keys += [(ramp, ("policy", "segments"))]
    keys += [(ramp, ("policy", "segments", 0, key)) for key in ("t_start", "t_end", "coeffs")]
    return [pytest.param(config, path, id=_path_name(path)) for config, path in keys]


def _parse_with(config, path, change):
    """parse_config of `config()` after change(parent object, last key)."""
    cfg = config()
    node = cfg
    for step in path[:-1]:
        node = node[step]
    change(node, path[-1])
    return parse_config(cfg)


@pytest.mark.parametrize("config, path", _schema_keys(optional=False))
def test_missing_key_names_its_path(config, path):
    with pytest.raises(ConfigError, match=re.escape(f"{_path_name(path)}: required key missing")):
        _parse_with(config, path, lambda node, key: node.pop(key))


@pytest.mark.parametrize("config, path", _schema_keys(optional=True))
def test_wrongly_typed_value_names_its_path(config, path):
    with pytest.raises(ConfigError, match=re.escape(f"{_path_name(path)}: ")):
        _parse_with(config, path, lambda node, key: node.__setitem__(key, "text"))


def test_parser_mutation_fuzz_raises_only_config_errors():
    # delete keys, retype values, and scramble leaves: the parser must
    # either accept the document or raise from the ConfigError family,
    # never a bare KeyError/TypeError/IndexError
    rng = np.random.default_rng(2024)
    poison = [None, True, "text", 3, [], {}, [[]], [[None]], float("nan")]

    def all_paths(node, prefix=()):
        if isinstance(node, dict):
            for key, value in node.items():
                yield prefix + (key,)
                yield from all_paths(value, prefix + (key,))
        elif isinstance(node, list):
            for i, value in enumerate(node):
                yield from all_paths(value, prefix + (i,))

    def mutate(cfg, path, value, delete):
        node = cfg
        for step in path[:-1]:
            node = node[step]
        if delete and isinstance(node, dict):
            del node[path[-1]]
        else:
            node[path[-1]] = value

    base = casestudy.switched_config()
    paths = list(all_paths(base))
    for _ in range(300):
        cfg = copy.deepcopy(base)
        path = paths[int(rng.integers(len(paths)))]
        delete = bool(rng.integers(2))
        value = poison[int(rng.integers(len(poison)))]
        try:
            mutate(cfg, path, value, delete)
            parse_config(cfg)
        except ConfigError:
            pass  # expected failure family
