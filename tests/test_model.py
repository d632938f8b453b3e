import copy
import json

import numpy as np
import pytest

from gaasim import casestudy
from gaasim.model import (
    AbstractInputPolicy,
    AbstractLinearSystem,
    Box,
    ConcreteLinearSystem,
    DimensionMismatch,
    DomainGap,
    FeedbackRegion,
    InvariantViolation,
    OpenLoopSegment,
    OperatingEnvelope,
    SchemaError,
    emit_config,
    parse_config,
    replace_scalars,
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
        with pytest.raises(DimensionMismatch, match="concrete.B"):
            parse_config(cfg)

    def test_empty_segments_rejected(self):
        cfg = casestudy.ramp_config()
        cfg["policy"]["segments"] = []
        with pytest.raises(InvariantViolation):
            parse_config(cfg)

    def test_coverage_gap_rejected(self):
        cfg = casestudy.ramp_config(horizon=100.0)
        cfg["policy"]["segments"] = [cfg["policy"]["segments"][0]]  # [0, 50] only
        with pytest.raises(InvariantViolation, match="cover"):
            parse_config(cfg)

    def test_unknown_keys_rejected(self):
        cfg = casestudy.switched_config()
        cfg["extra"] = 1
        with pytest.raises(SchemaError, match="extra"):
            parse_config(cfg)
        cfg = casestudy.switched_config()
        cfg["scenario"]["mystery"] = 2
        with pytest.raises(SchemaError, match="mystery"):
            parse_config(cfg)

    def test_missing_required_key_names_path(self):
        cfg = casestudy.switched_config()
        del cfg["scenario"]["K"]
        with pytest.raises(SchemaError, match=r"scenario\.K"):
            parse_config(cfg)

    def test_defaults_applied(self):
        cfg = casestudy.switched_config()
        del cfg["scenario"]["epsilon"]
        del cfg["scenario"]["step"]
        sc = parse_config(cfg)
        assert sc.epsilon == 0.5
        assert sc.step == 1e-3

    def test_malformed_json(self):
        with pytest.raises(SchemaError, match="malformed"):
            parse_config("{not json")

    def test_non_numeric_entry(self):
        cfg = casestudy.switched_config()
        cfg["scenario"]["a1"] = "fast"
        with pytest.raises(SchemaError, match=r"scenario\.a1"):
            parse_config(cfg)

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400])
    def test_non_finite_number_rejected(self, text):
        document = json.dumps(casestudy.switched_config()).replace(
            '"step": 0.001', f'"step": {text}'
        )
        assert f'"step": {text}' in document
        with pytest.raises(SchemaError, match=r"scenario\.step: expected a finite number"):
            parse_config(document)

    def test_non_finite_matrix_entry_rejected(self):
        cfg = casestudy.switched_config()
        cfg["concrete"]["A"][0][1] = float("inf")
        with pytest.raises(SchemaError, match=r"concrete\.A\[0\]\[1\]"):
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
        with pytest.raises(InvariantViolation, match=message):
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
        with pytest.raises(DimensionMismatch) as info:
            parse_config(cfg)
        assert str(info.value) == "state_dim_reduced failed (n_r=3 vs n=2)"

    def test_output_dim_mismatch(self):
        cfg = casestudy.switched_config()
        cfg["abstract"]["C"] = [[1.0], [0.0]]
        with pytest.raises(DimensionMismatch) as info:
            parse_config(cfg)
        assert str(info.value) == "output_dim_equal failed (p_hat=2 vs p=1)"


class TestTypes:
    def test_box_invariants(self):
        with pytest.raises(InvariantViolation):
            Box([1.0], [0.0])
        b = Box([0.0, 1.0], [2.0, 1.0])
        assert b.contains([1.0, 1.0])
        assert not b.contains([3.0, 1.0])
        assert np.allclose(b.clamp([5.0, 0.0]), [2.0, 1.0])
        assert b.corners().shape == (2, 2)  # degenerate second axis deduplicated

    def test_envelope_rejects_negative(self):
        with pytest.raises(InvariantViolation):
            OperatingEnvelope(xhat_max=-1.0, uhat_max=0.0, uhatdot_max=0.0)

    def test_positive_input_ball(self):
        with pytest.raises(InvariantViolation):
            ConcreteLinearSystem(
                A=[[0.0]],
                B=[[1.0]],
                C=[[1.0]],
                input_ball_radius=0.0,
                initial_state_set=point_box([0.0]),
            )

    def test_segment_degree_cap(self):
        with pytest.raises(InvariantViolation):
            OpenLoopSegment(t_start=0.0, t_end=1.0, coeffs=[[1.0, 1.0, 1.0, 1.0, 1.0]])

    def test_region_overlap_rejected(self):
        with pytest.raises(InvariantViolation, match="disjoint"):
            AbstractInputPolicy(
                kind="switched_feedback",
                regions=(
                    FeedbackRegion(box=Box([0.0], [2.0]), gain=[[1.0]]),
                    FeedbackRegion(box=Box([1.0], [3.0]), gain=[[2.0]]),
                ),
            )

    def test_region_gap_rejected_1d(self):
        with pytest.raises(InvariantViolation, match="gap"):
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
        assert sc.policy.region_index([30.0]) == 0
        assert sc.policy.region_index([29.999]) == 1
        with pytest.raises(DomainGap):
            sc.policy.region_index([100.0])


class TestPolicyEvaluationGrid:
    def test_open_loop_smooth_within_segments(self):
        sc = parse_config(casestudy.ramp_config(horizon=200.0))
        policy = sc.policy
        breaks = set(policy.breakpoints())
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
        gains = np.array([policy.regions[policy.region_index([x])].gain[0, 0] for x in xs])
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
            for rows, at in ((seg.value(times), seg.value), (seg.derivative(times), seg.derivative)):
                mismatches += sum(not np.array_equal(at(t), row) for t, row in zip(times, rows))
        assert mismatches == 0


class TestReplaceScalars:
    def test_valid_values_replace(self):
        sc = parse_config(casestudy.switched_config())
        out = replace_scalars(sc, epsilon=0.4, a1=1, step=2e-3, horizon=10.0)
        assert (out.epsilon, out.a1, out.step, out.horizon) == (0.4, 1.0, 2e-3, 10.0)
        assert isinstance(out.a1, float)
        assert out.policy is sc.policy

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
        sc = parse_config(casestudy.switched_config())
        with pytest.raises(InvariantViolation, match=rf"scenario\.{name} {message}"):
            replace_scalars(sc, **{name: value})

    def test_horizon_beyond_open_loop_segments(self):
        sc = parse_config(casestudy.ramp_config(horizon=100.0))
        replace_scalars(sc, horizon=50.0)
        with pytest.raises(InvariantViolation, match="open-loop segments cover"):
            replace_scalars(sc, horizon=1000.0)


def test_emit_equals_source_dict():
    cfg = casestudy.switched_config()
    emitted = emit_config(parse_config(copy.deepcopy(cfg)))
    assert emitted == cfg


def test_parser_mutation_fuzz_raises_only_config_errors():
    # delete keys, retype values, and scramble leaves: the parser must
    # either accept the document or raise from the ConfigError family,
    # never a bare KeyError/TypeError/IndexError
    from gaasim.model import ConfigError

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
