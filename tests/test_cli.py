import json
from pathlib import Path

import numpy as np
import pytest

from gaasim import casestudy, cli
from gaasim.cli import main

from conftest import csv_text


def write_config(tmp_path: Path, cfg: dict, name: str = "config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def short_switched(tmp_path):
    return write_config(tmp_path, casestudy.switched_config(horizon=40.0, step=5e-3))


@pytest.fixture
def short_ramp(tmp_path):
    return write_config(
        tmp_path, casestudy.ramp_config(horizon=120.0, step=5e-3), "ramp.json"
    )


class TestSynthesize:
    def test_study_config_passes(self, tmp_path, short_switched):
        out = tmp_path / "syn"
        assert main(["synthesize", "--config", str(short_switched), "--out", str(out)]) == 0
        gains = json.loads((out / "gains.json").read_text())
        assert gains["P"] == [[1.0], [0.0]]
        assert gains["S"] == [[0.0], [1.0]]
        assert gains["Q"] == [[0.0]]
        assert abs(gains["R"][0][0]) < 1e-9
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "synthesize"
        for listed in manifest["outputs"]:
            assert Path(listed).exists()

    def test_missing_gain_key_exits_2(self, tmp_path):
        cfg = casestudy.switched_config()
        del cfg["scenario"]["K"]
        path = write_config(tmp_path, cfg)
        assert main(["synthesize", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_infeasible_rate_exits_1_with_report(self, tmp_path, short_switched, capsys):
        out = tmp_path / "syn_a15"
        code = main([
            "synthesize", "--config", str(short_switched), "--out", str(out),
            "--a1", "1.5",
        ])
        assert code == 1
        report = json.loads((out / "report.json").read_text())
        by_name = {r["name"]: r for r in report["records"]}
        assert by_name["lyapunov_decay"]["passed"] is False

    def test_force_s_zero(self, tmp_path, short_switched):
        out = tmp_path / "syn_s0"
        code = main([
            "synthesize", "--config", str(short_switched), "--out", str(out),
            "--force-s-zero",
        ])
        assert code == 1  # optimality record fails for the baseline bundle
        gains = json.loads((out / "gains.json").read_text())
        assert gains["S"] == [[0.0], [0.0]]
        assert gains["rbar2"] > 1.0

    def test_sylvester_size_cap_is_a_failing_record(self, tmp_path, capsys):
        # a 61-state stable plant: its 61 x 61 Lyapunov solve is above the cap
        n = 61
        cfg = casestudy.ramp_config(horizon=1.0)
        cfg["concrete"].update(
            A=(-np.eye(n)).tolist(),
            B=np.eye(n, 1).tolist(),
            C=np.eye(1, n).tolist(),
            x0_box=[[0.0, 0.0]] * n,
        )
        cfg["scenario"].update(K=np.zeros((1, n)).tolist(), x0=[0.0] * n)
        del cfg["scenario"]["M"]
        out = tmp_path / "big"
        code = main(["synthesize", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        fails = [line for line in captured.out.splitlines() if line.startswith("FAIL")]
        assert fails == ["FAIL  gains_constructible: value=inf tol=0"]
        assert "Traceback" not in captured.out + captured.err
        report = json.loads((out / "report.json").read_text())
        assert report["records"][0]["detail"].startswith("TooLarge:")


class TestSimulate:
    def test_round_trip(self, tmp_path, short_switched):
        syn = tmp_path / "syn"
        assert main(["synthesize", "--config", str(short_switched), "--out", str(syn)]) == 0
        out = tmp_path / "run"
        code = main([
            "simulate", "--config", str(short_switched),
            "--gains", str(syn / "gains.json"), "--out", str(out),
        ])
        assert code == 0
        verify = json.loads((out / "verify.json").read_text())
        assert verify["passed"] is True
        assert verify["max_output_error"] <= 0.5
        assert (out / "trajectory.csv").exists()
        assert (out / "jumps.csv").exists()

    def test_tight_epsilon_fails(self, tmp_path, short_switched):
        syn = tmp_path / "syn"
        main(["synthesize", "--config", str(short_switched), "--out", str(syn)])
        with pytest.warns(UserWarning, match="outside the relation"):
            code = main([
                "simulate", "--config", str(short_switched),
                "--gains", str(syn / "gains.json"), "--out", str(tmp_path / "run2"),
                "--epsilon", "0.15",
            ])
        assert code == 1

    def test_missing_gains_file_exits_2(self, tmp_path, short_switched):
        code = main([
            "simulate", "--config", str(short_switched),
            "--gains", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_horizon_zero_single_sample(self, tmp_path, short_switched):
        syn = tmp_path / "syn"
        main(["synthesize", "--config", str(short_switched), "--out", str(syn)])
        out = tmp_path / "run0"
        code = main([
            "simulate", "--config", str(short_switched),
            "--gains", str(syn / "gains.json"), "--out", str(out),
            "--horizon", "0",
        ])
        assert code == 0
        assert len((out / "trajectory.csv").read_text().splitlines()) == 2

    def test_mismatched_gains_exit_2(self, tmp_path, short_switched, short_ramp):
        syn = tmp_path / "syn"
        main(["synthesize", "--config", str(short_switched), "--out", str(syn)])
        gains = json.loads((syn / "gains.json").read_text())
        gains["P"] = [[1.0, 0.0], [0.0, 1.0]]  # wrong abstract dimension
        bad = tmp_path / "bad_gains.json"
        bad.write_text(json.dumps(gains))
        code = main([
            "simulate", "--config", str(short_switched),
            "--gains", str(bad), "--out", str(tmp_path / "o2"),
        ])
        assert code == 2

    def test_gains_for_another_input_dimension_exit_2(self, tmp_path, short_switched, capsys):
        # a bundle for m = 1 against a plant with m = 2 used to end in a
        # matmul traceback when the joint dynamics were formed
        syn = tmp_path / "syn"
        main(["synthesize", "--config", str(short_switched), "--out", str(syn)])
        capsys.readouterr()
        cfg = casestudy.switched_config(horizon=40.0, step=5e-3)
        cfg["concrete"]["B"] = [[0.0, 0.0], [1.0, 1.0]]
        cfg["scenario"]["K"] = [[-1.3298, -1.4108], [0.0, 0.0]]
        two_inputs = write_config(tmp_path, cfg, "m2.json")
        code = main([
            "simulate", "--config", str(two_inputs),
            "--gains", str(syn / "gains.json"), "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err == (
            "config error: gains dimensions (n, m, n_r, m_r) = (2, 1, 1, 1) do not "
            "match the configured systems (2, 2, 1, 1)\n"
        )

    def test_start_without_x0_is_the_clamped_lift(self, tmp_path):
        # uhat(0) = 0.5 lifts xhat0 = 40.1 to [40.1, 0.5], outside the point
        # box [40, -0.0401]; the run starts in the box, where synthesize's
        # initial_lift judges it, and fails with it
        cfg = casestudy.ramp_config(horizon=20.0, step=1e-2)
        cfg["policy"]["segments"] = [
            {"t_start": -10.0, "t_end": 21.0, "coeffs": [[0.5, 0.05401]]}
        ]
        cfg["envelope"].update(uhat_max=2.0, uhatdot_max=0.06)
        cfg["concrete"]["x0_box"] = [[40.0, 40.0], [-0.0401, -0.0401]]
        del cfg["scenario"]["x0"]
        config = write_config(tmp_path, cfg)
        syn = tmp_path / "syn"
        assert main(["synthesize", "--config", str(config), "--out", str(syn)]) == 1
        report = json.loads((syn / "report.json").read_text())
        lift = next(r for r in report["records"] if r["name"] == "initial_lift")
        assert lift["value"] == pytest.approx(1.18316, abs=1e-5) and not lift["passed"]
        out = tmp_path / "run"
        with pytest.warns(UserWarning, match="outside the relation"):
            code = main([
                "simulate", "--config", str(config),
                "--gains", str(syn / "gains.json"), "--out", str(out),
            ])
        assert code == 1
        first = (out / "trajectory.csv").read_text().splitlines()[1].split(",")
        assert first[:4] == ["0", "40", "-0.0401", "40.1"]
        verify = json.loads((out / "verify.json").read_text())
        assert verify["max_vg"] == pytest.approx(lift["value"], rel=1e-12)
        assert not verify["vg_ok"]

    def test_horizon_too_long_to_sample_is_one_line_exit_2(
        self, tmp_path, short_switched, monkeypatch, capsys
    ):
        syn = tmp_path / "syn"
        main(["synthesize", "--config", str(short_switched), "--out", str(syn)])
        capsys.readouterr()
        huge = write_config(tmp_path, casestudy.ramp_config(horizon=1e9), "huge.json")

        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        # stands in for the real allocation, which must never be attempted
        monkeypatch.setattr("gaasim.sim.simulate", no_memory)
        code = main([
            "simulate", "--config", str(huge),
            "--gains", str(syn / "gains.json"), "--out", str(tmp_path / "o3"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "7.28 TiB" in err
        assert len(err.strip().splitlines()) == 1

    def test_preflight_refuses_a_run_larger_than_memory(
        self, tmp_path, short_switched, monkeypatch, capsys
    ):
        syn = tmp_path / "syn"
        main(["synthesize", "--config", str(short_switched), "--out", str(syn)])
        capsys.readouterr()
        # 8,001 rows at h, 12 columns: about 0.77 MB
        monkeypatch.setattr("gaasim.sim._physical_memory", lambda: 5e5)
        out = tmp_path / "o"
        code = main([
            "simulate", "--config", str(short_switched),
            "--gains", str(syn / "gains.json"), "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory (the run needs about ")
        assert len(err.strip().splitlines()) == 1
        assert not (out / "trajectory.csv").exists()


class TestInitialSets:
    @pytest.mark.parametrize("key, value", [("x0", [40.3, -0.0401]), ("xhat0", [40.05])])
    def test_start_outside_its_box_exits_2(self, tmp_path, capsys, key, value):
        cfg = casestudy.switched_config(horizon=5.0, step=0.01)
        cfg["scenario"][key] = value
        config = write_config(tmp_path, cfg)
        for command in (["synthesize"], ["simulate", "--gains", str(tmp_path / "g.json")]):
            code = main([*command, "--config", str(config), "--out", str(tmp_path / "o")])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: scenario.{key} ")
            assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()


class TestOverrides:
    BAD = [("--epsilon", "0"), ("--a1", "0"), ("--step", "nan"), ("--horizon", "inf"),
           ("--horizon", "-1")]

    @staticmethod
    def one_line_config_error(capsys) -> str:
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert len(err.strip().splitlines()) == 1
        return err

    @pytest.mark.parametrize("flag, value", BAD)
    def test_casestudy_refuses_before_any_artifact(self, tmp_path, capsys, flag, value):
        out = tmp_path / "case"
        assert main(["casestudy", "--out", str(out), flag, value]) == 2
        self.one_line_config_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", BAD)
    def test_config_commands_check_overrides(
        self, tmp_path, short_switched, capsys, flag, value
    ):
        out = tmp_path / "syn"
        code = main(["synthesize", "--config", str(short_switched), "--out", str(out),
                     flag, value])
        assert code == 2
        err = self.one_line_config_error(capsys)
        assert f"scenario.{flag[2:]}" in err

    def test_horizon_beyond_open_loop_segments(self, tmp_path, short_ramp, capsys):
        code = main(["compare", "--config", str(short_ramp), "--out", str(tmp_path / "c"),
                     "--horizon", "500"])
        assert code == 2
        assert "open-loop segments cover" in self.one_line_config_error(capsys)


class TestWrite:
    def test_writes_the_bytes_of_write_text(self, tmp_path):
        text = "t,x1\n" + "".join(f"{k},{k / 7:.15g}\u00b5\n" for k in range(50))
        expected = tmp_path / "expected.csv"
        expected.write_text(text, encoding="utf-8")
        written = cli._write(tmp_path / "sub" / "written.csv", text)
        assert written.read_bytes() == expected.read_bytes()
        assert cli._write(tmp_path / "empty.csv", "").read_bytes() == b""

    def test_trajectory_is_streamed_in_binary(self, tmp_path):
        from gaasim import sim
        from gaasim.model import parse_config
        from gaasim.synthesis import synthesize_gains

        sc = parse_config(casestudy.switched_config(horizon=2.0, step=1e-2))
        gains = synthesize_gains(sc.concrete, sc.abstract, sc.K, sc.a1,
                                 sc.epsilon, sc.envelope, M=sc.M)
        record = sim.simulate(sc.concrete, sc.abstract, gains, sc.policy,
                              sc.x0, sc.xhat0, sc.horizon, sc.step)
        written = cli._write_trajectory(tmp_path / "sub" / "trajectory.csv", record)
        data = written.read_bytes()
        assert data == csv_text(record).encode("ascii")
        assert b"\r" not in data and data.count(b"\n") == record.t.size + 1


def square_input_config(uhat_const: float, horizon: float = 8.0) -> dict:
    """Two-input plant with invertible B: both interfaces achieve exact
    couplings, so with a constant abstract input and per-interface lifted
    starts both runs stay on the relation."""
    return {
        "concrete": {
            "A": [[-1.2, 0.4], [0.3, -1.6]],
            "B": [[1.0, 0.1], [0.0, 1.0]],
            "C": [[1.0, 0.0]],
            "input_ball_radius": 100.0,
            "x0_box": [[-5.0, 5.0], [-5.0, 5.0]],
        },
        "abstract": {
            "A": [[-0.2]],
            "B": [[1.0]],
            "C": [[1.0]],
            "x0_box": [[0.4, 0.4]],
        },
        "envelope": {"xhat_max": 5.0, "uhat_max": 5.0, "uhatdot_max": 5.0},
        "policy": {
            "kind": "open_loop",
            "segments": [
                {"t_start": 0.0, "t_end": horizon, "coeffs": [[uhat_const]]}
            ],
        },
        "scenario": {
            "epsilon": 0.5,
            "a1": 0.8,
            "K": [[-1.0, 0.0], [0.0, -1.0]],
            "horizon": horizon,
            "step": 1e-3,
            "xhat0": [0.4],
        },
    }


class TestCompare:
    def test_study_ramp_verdict(self, tmp_path, short_ramp):
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(short_ramp), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["verdict"] == "gaas_pass_baseline_fail"
        assert summary["runs"]["gaas"]["max_output_error"] <= 0.5
        assert summary["runs"]["s_zero"]["max_output_error"] > 0.5
        assert (out / "trajectory_gaas.csv").exists()
        assert (out / "trajectory_s_zero.csv").exists()

    def test_constant_input_exact_lift_both_track(self, tmp_path):
        path = write_config(tmp_path, square_input_config(0.3), "const.json")
        out = tmp_path / "cmp_const"
        assert main(["compare", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["runs"]["gaas"]["max_output_error"] <= 1e-9
        assert summary["runs"]["s_zero"]["max_output_error"] <= 1e-9
        assert summary["verdict"] == "both_pass"

    def test_zero_dynamics_zero_input(self, tmp_path):
        cfg = square_input_config(0.0)
        cfg["concrete"]["A"] = [[0.0, 0.0], [0.0, 0.0]]
        cfg["abstract"]["A"] = [[0.0]]
        cfg["abstract"]["x0_box"] = [[0.0, 0.0]]
        cfg["scenario"]["xhat0"] = [0.0]
        path = write_config(tmp_path, cfg, "zero.json")
        out = tmp_path / "cmp_zero"
        assert main(["compare", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["runs"]["gaas"]["max_output_error"] == 0.0
        assert summary["runs"]["s_zero"]["max_output_error"] == 0.0


class TestManifest:
    def test_digest_stable_and_sensitive(self, tmp_path, short_switched):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["synthesize", "--config", str(short_switched), "--out", str(out_a)])
        main(["synthesize", "--config", str(short_switched), "--out", str(out_b)])
        da = json.loads((out_a / "manifest.json").read_text())["config_digest"]
        db = json.loads((out_b / "manifest.json").read_text())["config_digest"]
        assert da == db
        # same-value override keeps the digest; changed value moves it
        out_c = tmp_path / "c"
        main(["synthesize", "--config", str(short_switched), "--out", str(out_c),
              "--epsilon", "0.5"])
        dc = json.loads((out_c / "manifest.json").read_text())["config_digest"]
        assert dc == da
        out_d = tmp_path / "d"
        main(["synthesize", "--config", str(short_switched), "--out", str(out_d),
              "--epsilon", "0.4"])
        dd = json.loads((out_d / "manifest.json").read_text())["config_digest"]
        assert dd != da


class TestCaseStudy:
    def test_epsilon_override_matching_default_is_identity(self, tmp_path):
        results = {}
        for label, extra in (("default", []), ("explicit", ["--epsilon", "0.5"])):
            out = tmp_path / label
            code = main(["casestudy", "--out", str(out), "--horizon", "40",
                         "--step", "0.01", *extra])
            assert code == 0
            summary = json.loads((out / "casestudy_summary.json").read_text())
            results[label] = summary
        assert results["default"] == results["explicit"]

    def test_writes_and_digests_the_configs_it_runs(self, tmp_path):
        digests = {}
        for label, extra in (
            ("default", []), ("epsilon", ["--epsilon", "0.45"]), ("a1", ["--a1", "0.4"])
        ):
            out = tmp_path / label
            main(["casestudy", "--out", str(out), "--horizon", "320", "--step", "0.01",
                  *extra])
            digests[label] = json.loads((out / "manifest.json").read_text())["config_digest"]
            written = json.loads((out / "casestudy_switched.json").read_text())
            assert cli._digest(written) == digests[label]
            if label == "default":
                continue
            # the written config carries the override, so simulate on it
            # reproduces the run, whose jump budget depends on eps and a1
            run = tmp_path / f"{label}_sim"
            main(["simulate", "--config", str(out / "casestudy_switched.json"),
                  "--gains", str(out / "gains.json"), "--out", str(run)])
            for mine, study in (
                ("trajectory.csv", "trajectory_switched.csv"),
                ("jumps.csv", "jumps_switched.csv"),
                ("verify.json", "verify_switched.json"),
            ):
                assert (run / mine).read_bytes() == (out / study).read_bytes()
        assert len(set(digests.values())) == 3
        assert json.loads((tmp_path / "epsilon" / "casestudy_ramp.json").read_text())[
            "scenario"]["epsilon"] == 0.45

    def test_short_run_all_checks(self, tmp_path):
        out = tmp_path / "cs"
        code = main(["casestudy", "--out", str(out), "--horizon", "320",
                     "--step", "0.005"])
        assert code == 0
        summary = json.loads((out / "casestudy_summary.json").read_text())
        assert 0.5685 <= summary["input_bound"] <= 0.5695
        assert summary["rbar1"] < 1e-9 and summary["rbar2"] < 1e-9
        assert 0.0995 <= summary["allowance_rbar_max"] <= 0.1003
        assert 0.398 <= summary["allowance_decay_ratio"] <= 0.401
        # both the rate gain and the budget are surfaced (the quoted 0.1
        # matches the budget, not the gain)
        assert summary["rbar3"] == pytest.approx(2.0558, abs=1e-4)
        assert "note_rbar3_vs_rbar_max" in summary
        assert summary["switched"]["jumps_total"] == 1
        assert summary["switched"]["passed"] is True
        assert all(summary["checks"].values())
