import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import textwrap
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gaasim import casestudy, cli, sim
from gaasim.cli import main
from gaasim.model import parse_config
from gaasim.synthesis import RefinementGains


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


@pytest.fixture
def simulated(monkeypatch):
    """The records `sim.simulate` returns while the test runs, in call order."""
    records, simulate = [], sim.simulate

    def keep(*args, **kwargs):
        records.append(simulate(*args, **kwargs))
        return records[-1]

    monkeypatch.setattr(sim, "simulate", keep)
    return records


def savez_bytes(**arrays) -> bytes:
    """The bytes `np.savez` writes for `arrays`."""
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


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
        assert code == 1  # the baseline's input bound exceeds the input ball
        gains = json.loads((out / "gains.json").read_text())
        assert gains["S"] == [[0.0], [0.0]]
        assert gains["rbar2"] > 1.0
        report = json.loads((out / "report.json").read_text())
        assert [r["name"] for r in report["records"] if not r["passed"]] == ["input_bound"]

    @staticmethod
    def stable_plant_config(tmp_path, n, abstract_A=None):
        """The ramp study with an n-state plant A = -I, B = e1, C = e1^T,
        K = 0 and no M, so synthesize solves an n x n Lyapunov equation.  A
        k x k `abstract_A` replaces the 1-state abstraction, with B = e1,
        C = e1^T and the point initial box 40.1 e1."""
        cfg = casestudy.ramp_config(horizon=1.0)
        cfg["concrete"].update(
            A=(-np.eye(n)).tolist(),
            B=np.eye(n, 1).tolist(),
            C=np.eye(1, n).tolist(),
            x0_box=[[0.0, 0.0]] * n,
        )
        cfg["scenario"].update(K=np.zeros((1, n)).tolist(), x0=[0.0] * n)
        if abstract_A is not None:
            k = len(abstract_A)
            start = [40.1] + [0.0] * (k - 1)
            cfg["abstract"].update(A=abstract_A, B=np.eye(k, 1).tolist(),
                                   C=np.eye(1, k).tolist(), x0_box=[[v, v] for v in start])
            cfg["scenario"]["xhat0"] = start
        del cfg["scenario"]["M"]
        return write_config(tmp_path, cfg)

    def test_sylvester_size_cap_is_a_failing_record(self, tmp_path, capsys, monkeypatch):
        # physical memory below the (P, Q) coupling's Kronecker operator, which
        # the non-symmetric 2-state abstraction needs (2*62 x 2*62 doubles,
        # 123 kB): refused before np.kron, as one record
        def no_operator(*args):
            raise AssertionError("Kronecker operator built above the size cap")

        config = self.stable_plant_config(tmp_path, 61, abstract_A=[[0.0, 1.0], [0.0, 0.0]])
        monkeypatch.setattr("gaasim.numerics.physical_memory", lambda: 3e4)
        monkeypatch.setattr(np, "kron", no_operator)
        out = tmp_path / "big"
        code = main(["synthesize", "--config", str(config), "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        fails = [line for line in captured.out.splitlines() if line.startswith("FAIL")]
        assert fails == ["FAIL  gains_constructible: value=inf tol=0"]
        assert "Traceback" not in captured.out + captured.err
        report = json.loads((out / "report.json").read_text())
        assert report["records"][0]["detail"].startswith(
            "TooLarge: the Kronecker operator needs about ")

    @pytest.mark.parametrize("fault, detail", [
        ("K not stabilizing", "NotStabilizing: A + B K has spectral abscissa 1.61803 >= 0"),
        ("M indefinite", "NumericsError: M not positive definite: eigenvalue -1.000e+00"),
    ])
    def test_bundle_that_cannot_be_built_is_one_failing_record(
        self, tmp_path, capsys, fault, detail
    ):
        cfg = casestudy.switched_config(horizon=40.0, step=5e-3)
        if fault == "K not stabilizing":
            cfg["scenario"]["K"] = [[1.0, 1.0]]
            del cfg["scenario"]["M"]
        else:
            cfg["scenario"]["M"] = [[1.0, 0.0], [0.0, -1.0]]
        out = tmp_path / "syn"
        code = main(["synthesize", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        fails = [line for line in captured.out.splitlines() if line.startswith("FAIL")]
        assert fails == ["FAIL  gains_constructible: value=inf tol=0"]
        assert "Traceback" not in captured.out + captured.err
        report = json.loads((out / "report.json").read_text())
        assert report["records"][0]["detail"] == detail

    def test_plant_above_the_old_size_cap_synthesizes(self, tmp_path, capsys):
        # 61 states: the Kronecker Lyapunov solve refused it (n^2 > 3600)
        out = tmp_path / "big"
        code = main(["synthesize", "--config", str(self.stable_plant_config(tmp_path, 61)),
                     "--out", str(out)])
        assert code in (0, 1)  # the ramp study's input ball and boxes do not fit this plant
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        by_name = {r["name"]: r for r in json.loads((out / "report.json").read_text())["records"]}
        assert "gains_constructible" not in by_name
        for name in ("lyapunov_decay", "output_weight_dominated",
                     "CP_equals_Chat", "CS_zero", "rbar1_consistent", "rbar2_consistent"):
            assert by_name[name]["passed"], name
        gains = json.loads((out / "gains.json").read_text())
        assert np.array(gains["M"]).shape == (61, 61)


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
        assert (out / "trajectory.npz").exists()
        assert (out / "jumps.csv").exists()

    def test_tight_epsilon_fails(self, tmp_path, short_switched, capsys):
        syn = tmp_path / "syn"
        main(["synthesize", "--config", str(short_switched), "--out", str(syn)])
        capsys.readouterr()
        code = main([
            "simulate", "--config", str(short_switched),
            "--gains", str(syn / "gains.json"), "--out", str(tmp_path / "run2"),
            "--epsilon", "0.15",
        ])
        assert code == 1
        # the warning is one line of its own, with no source file or line
        err = capsys.readouterr().err
        assert err.startswith("warning: initial triple outside the relation: vg = ")
        assert err.endswith(" > epsilon = 0.15\n") and err.count("\n") == 1

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
        with np.load(out / "trajectory.npz") as saved:
            assert saved["t"].tolist() == [0.0] and saved["z"].shape == (1, 3)

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

    def test_start_without_x0_is_the_clamped_lift(self, tmp_path, capsys):
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
        capsys.readouterr()
        code = main([
            "simulate", "--config", str(config),
            "--gains", str(syn / "gains.json"), "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "warning: initial triple outside the relation: vg = 1.18316 > epsilon = 0.5\n"
        )
        with np.load(out / "trajectory.npz") as saved:
            assert saved["t"][0] == 0.0 and saved["z"][0].tolist() == [40.0, -0.0401, 40.1]
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
        # 8,001 rows at h, integrating: about 1.8 MB
        monkeypatch.setattr("gaasim.numerics.physical_memory", lambda: 5e5)
        out = tmp_path / "o"
        code = main([
            "simulate", "--config", str(short_switched),
            "--gains", str(syn / "gains.json"), "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory (the run needs about ")
        assert len(err.strip().splitlines()) == 1
        assert not (out / "trajectory.npz").exists()


class TestInitialSets:
    @pytest.mark.parametrize("key, value, message", [
        ("K", [[-1.3298, -1.4108, 0.0]], "scenario.K shape (1, 3) != (1, 2)"),
        ("xhat0", [40.1, 0.0], "scenario.xhat0 shape (2,) != (1,)"),
        ("x0", [40.0], "scenario.x0 shape (1,) != (2,)"),
        ("M", [[1.0]], "scenario.M shape (1, 1) != (2, 2)"),
    ])
    def test_wrong_scenario_shape_is_one_line(self, tmp_path, capsys, key, value, message):
        cfg = casestudy.switched_config(horizon=5.0, step=0.01)
        cfg["scenario"][key] = value
        code = main(["synthesize", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

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
        # synthesize takes the synthesis scalars; compare also the run's
        command = "synthesize" if flag in ("--epsilon", "--a1") else "compare"
        out = tmp_path / "out"
        code = main([command, "--config", str(short_switched), "--out", str(out),
                     flag, value])
        assert code == 2
        err = self.one_line_config_error(capsys)
        assert f"scenario.{flag[2:]}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        ("simulate", "--a1"), ("synthesize", "--step"), ("synthesize", "--horizon"),
    ])
    def test_flags_a_command_does_not_use_exit_2(
        self, tmp_path, short_switched, capsys, command, flag
    ):
        # simulate runs on the bundle's a1; synthesize runs nothing over time
        argv = [command, "--config", str(short_switched), "--out", str(tmp_path / "o"),
                flag, "0.05"]
        if command == "simulate":
            argv += ["--gains", str(tmp_path / "gains.json")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 0.05" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_horizon_beyond_open_loop_segments(self, tmp_path, short_ramp, capsys):
        code = main(["compare", "--config", str(short_ramp), "--out", str(tmp_path / "c"),
                     "--horizon", "500"])
        assert code == 2
        assert "open-loop segments cover" in self.one_line_config_error(capsys)


class TestBadFilesExit2:
    """Bad input files end in exit 2 and one line on stderr, never a traceback."""

    @staticmethod
    def exits_2_with_one_line(capsys, argv):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        return err

    def test_out_naming_an_existing_file(self, tmp_path, short_switched, capsys):
        taken = tmp_path / "taken"
        taken.write_text("x")
        self.exits_2_with_one_line(
            capsys, ["synthesize", "--config", str(short_switched), "--out", str(taken)]
        )

    def test_config_naming_a_directory(self, tmp_path, capsys):
        self.exits_2_with_one_line(
            capsys, ["synthesize", "--config", str(tmp_path), "--out", str(tmp_path / "o")]
        )

    def test_config_not_utf8(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b"\xff\xfe{")
        self.exits_2_with_one_line(
            capsys, ["synthesize", "--config", str(config), "--out", str(tmp_path / "o")]
        )

    def simulate_edited_bundle(self, tmp_path, config, capsys, edit) -> str:
        """The one stderr line of `simulate` on `config` with the study's
        gains file replaced by edit(its bundle)."""
        syn = tmp_path / "syn"
        assert main(["synthesize", "--config", str(config), "--out", str(syn)]) == 0
        gains = tmp_path / "gains.json"
        gains.write_text(json.dumps(edit(json.loads((syn / "gains.json").read_text()))))
        err = self.exits_2_with_one_line(capsys, [
            "simulate", "--config", str(config), "--gains", str(gains),
            "--out", str(tmp_path / "run"),
        ])
        assert err.startswith(f"config error: gains file {gains}: ")
        return err

    @pytest.mark.parametrize("fault", [
        "lambda_min_M zero", "lambda_min_M 1e12", "M zero", "M indefinite", "M_sqrt not a root",
    ])
    def test_gains_bundle_without_a_positive_definite_weight(
        self, tmp_path, short_switched, capsys, fault
    ):
        # M^{1/2} and lambda_min(M) are derived from M, so a file that still
        # states either (the old format), true or stale, is refused by name
        changes, line = {
            "lambda_min_M zero": ({"lambda_min_M": 0}, "gains: unknown keys ['lambda_min_M']"),
            "lambda_min_M 1e12": ({"lambda_min_M": 1e12}, "gains: unknown keys ['lambda_min_M']"),
            "M zero": ({"M": [[0.0, 0.0], [0.0, 0.0]]},
                       "gains.M not positive definite: eigenvalue 0.000e+00"),
            "M indefinite": ({"M": [[1.0, 0.0], [0.0, -1.0]]},
                             "gains.M not positive definite: eigenvalue -1.000e+00"),
            "M_sqrt not a root": ({"M_sqrt": [[1.0, 0.0], [0.0, 1.0]]},
                                  "gains: unknown keys ['M_sqrt']"),
        }[fault]
        err = self.simulate_edited_bundle(
            tmp_path, short_switched, capsys, lambda bundle: {**bundle, **changes})
        assert err.endswith(f": {line}\n")

    @pytest.mark.parametrize("fault, names", [
        ("array", "gains: expected an object"),
        ("a1 null", "gains.a1: expected a number"),
        ("rbar2 a list", "gains.rbar2: expected a number"),
        ("rbar1 NaN", "gains.rbar1: expected a finite number"),
        ("rbar1 Infinity", "gains.rbar1: expected a finite number"),
        ("rbar3 negative", "gains.rbar3 must be finite and >= 0"),
        ("unknown key", "gains: unknown keys ['mystery']"),
        ("M asymmetric", "gains.M not symmetric"),
    ])
    def test_gains_file_that_is_not_a_bundle(
        self, tmp_path, short_switched, capsys, fault, names
    ):
        # each used to end in a traceback, or, for NaN, in a vacuous pass
        changes = {
            "a1 null": {"a1": None}, "rbar2 a list": {"rbar2": [0]},
            "rbar1 NaN": {"rbar1": float("nan")}, "rbar1 Infinity": {"rbar1": float("inf")},
            "rbar3 negative": {"rbar3": -1.0}, "unknown key": {"mystery": 1},
            "M asymmetric": {"M": [[4.0, 1.0], [1.5, 4.0]]},
        }

        def edit(bundle):
            return [bundle] if fault == "array" else {**bundle, **changes[fault]}

        assert names in self.simulate_edited_bundle(tmp_path, short_switched, capsys, edit)


class TestOverflowingNumbers:
    """Inputs whose numbers overflow, each fixed where the number is
    formed: a count derived from a float is clamped before int, and a check
    whose number is not finite fails its record, its cause in `detail`.
    None ends in a traceback or prints more than one stderr line."""

    def test_subnormal_horizon_is_a_two_row_run(self, tmp_path, short_switched, capsys):
        # mu h is subnormal there, and 40 / (mu h) was an infinite block count
        syn = tmp_path / "syn"
        assert main(["synthesize", "--config", str(short_switched), "--out", str(syn)]) == 0
        for command, extra in (("simulate", ["--gains", str(syn / "gains.json")]),
                               ("compare", [])):
            argv = [command, "--config", str(short_switched), "--out", str(tmp_path / command),
                    "--horizon", "1e-308", *extra]
            assert main(argv) == 0
        assert capsys.readouterr().err == ""
        with np.load(tmp_path / "simulate" / "trajectory.npz") as saved:
            assert saved["t"].tolist() == [0.0, 1e-308]

    def test_epsilon_whose_input_bound_overflows(self, tmp_path, short_switched, capsys):
        out = tmp_path / "syn"
        argv = ["synthesize", "--config", str(short_switched), "--out", str(out),
                "--epsilon", "1e308"]
        assert main(argv) == 1
        assert capsys.readouterr().err == ""
        (record,) = json.loads((out / "report.json").read_text())["records"]
        assert record["name"] == "gains_constructible" and record["passed"] is False
        assert record["detail"] == "NumericsError: the input bound overflows (inf)"
        assert not (out / "gains.json").exists()

    def test_casestudy_whose_input_bound_overflows(self, tmp_path, capsys):
        assert main(["casestudy", "--epsilon", "1e308", "--out", str(tmp_path / "cs")]) == 1
        assert capsys.readouterr().err == (
            "gains not constructible: NumericsError: the input bound overflows (inf)\n")

    @pytest.mark.parametrize("command", ["synthesize", "compare"])
    def test_gain_whose_closed_loop_overflows(self, tmp_path, capsys, command):
        cfg = casestudy.switched_config(horizon=30.0, step=0.05)
        cfg["scenario"]["K"] = [[1e308, 1e308]]
        out = tmp_path / "out"
        assert main([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        if command == "compare":  # the run itself diverges at its first step
            assert err == "simulation failed: non-finite state near t = 0.05\n"
            return
        assert err == ""
        records = {r["name"]: r for r in json.loads((out / "report.json").read_text())["records"]}
        lyapunov = records["lyapunov_decay"]
        assert lyapunov["value"] == np.inf and lyapunov["passed"] is False
        assert lyapunov["detail"] == "lambda_max((A+BK)^T M + M (A+BK) + a1 M): overflows"
        assert [name for name, r in records.items() if not r["passed"]] == [
            "lyapunov_decay", "input_bound"]

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_disturbance_budget_that_overflows(self, tmp_path, capsys, command):
        # rbar1 xhat_max + rbar2 uhat_max + rbar3 uhatdot_max is infinite, which
        # the decay envelope refused with a ValueError, a traceback
        cfg = casestudy.ramp_config(horizon=60.0, step=0.05)
        config = write_config(tmp_path, cfg)
        argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
        if command == "simulate":
            assert main(["synthesize", "--config", str(config), "--out", str(tmp_path)]) == 0
            bundle = json.loads((tmp_path / "gains.json").read_text())
            (tmp_path / "gains.json").write_text(json.dumps({**bundle, "rbar1": 1e308}))
            argv += ["--gains", str(tmp_path / "gains.json")]
        else:
            cfg["envelope"]["uhat_max"] = 1e308
            write_config(tmp_path, cfg)
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "simulation failed: the disturbance budget rbar_max overflows (inf)\n")

    def test_output_matrix_whose_gramian_overflows(self, tmp_path, capsys):
        # C^T C overflows, and taking the eigenvalues of M - C^T C raised
        cfg = casestudy.ramp_config(horizon=60.0, step=0.05)
        cfg["concrete"]["C"] = [[1e300, 0.0]]
        out = tmp_path / "out"
        assert main(["synthesize", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == ""
        records = {r["name"]: r for r in json.loads((out / "report.json").read_text())["records"]}
        dominated = records["output_weight_dominated"]
        assert dominated["value"] == np.inf and dominated["passed"] is False
        assert dominated["detail"] == "-lambda_min(M - C^T C): overflows"

    @pytest.mark.filterwarnings("always")  # shown, not raised, under -W error too
    def test_overflow_outside_the_run_is_one_line(self, tmp_path, capsys):
        # y = C x overflows where `verify_trajectory` forms it, outside the
        # run, whose warning the command printed as its source file and line
        cfg = casestudy.switched_config(horizon=30.0, step=0.05)
        cfg["concrete"]["C"] = [[1e300, 0.0]]
        argv = ["compare", "--config", str(write_config(tmp_path, cfg)),
                "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        lines = capsys.readouterr().err.splitlines()
        assert "warning: overflow encountered in multiply" in lines
        assert all(line.startswith("warning: ") and ".py:" not in line for line in lines)


class TestWrite:
    def test_writes_the_bytes_of_write_text(self, tmp_path):
        text = "t,x1\n" + "".join(f"{k},{k / 7:.15g}\u00b5\n" for k in range(50))
        expected = tmp_path / "expected.csv"
        expected.write_text(text, encoding="utf-8")
        written = cli._write(tmp_path / "sub" / "written.csv", text)
        assert written.read_bytes() == expected.read_bytes()
        assert cli._write(tmp_path / "empty.csv", "").read_bytes() == b""

    def test_trajectory_is_streamed_in_binary(self, tmp_path, simulated):
        from gaasim.synthesis import synthesize_gains

        sc = parse_config(casestudy.switched_config(horizon=2.0, step=1e-2))
        gains = synthesize_gains(sc.concrete, sc.abstract, sc.K, sc.a1,
                                 sc.epsilon, sc.envelope, M=sc.M)
        outputs = []
        verdict = cli._run(sc, gains, tmp_path / "sub", "_x", outputs)
        (record,) = simulated
        trajectory, jumps, verify = outputs
        assert (trajectory.name, jumps.name, verify.name) == (
            "trajectory_x.npz", "jumps_x.csv", "verify_x.json")
        with np.load(trajectory) as saved:
            assert list(saved) == ["t", "z", "vg", "runs"]
        assert jumps.read_text(encoding="utf-8") == sim.jumps_csv(record)
        assert json.loads(verify.read_text(encoding="utf-8")) == verdict.to_dict()


class TestTrajectoryRecordFile:
    """Each run's trajectory{stem}.npz holds its record's state, t, z, vg and
    runs, bit for bit: enough to re-derive the run's verdicts, with the same
    bytes each time the run is written."""

    STEMS = ("_switched", "_ramp_gaas", "_ramp_s_zero")

    @staticmethod
    def study(out: Path) -> Path:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["casestudy", "--out", str(out), "--horizon", "320",
                         "--step", "0.05"]) == 0
        return out

    @staticmethod
    def loaded(path: Path) -> dict:
        with np.load(path) as saved:
            assert list(saved) == ["t", "z", "vg", "runs"]
            return {name: saved[name] for name in saved}

    def test_loads_each_record_bit_for_bit(self, tmp_path, simulated):
        out = self.study(tmp_path / "cs")
        assert len(simulated) == len(self.STEMS)
        for stem, record in zip(self.STEMS, simulated):
            saved = self.loaded(out / f"trajectory{stem}.npz")
            runs = np.array(record.runs, dtype=np.int64)
            for name, value in (("t", record.t), ("z", record.z), ("vg", record.vg),
                                ("runs", runs)):
                assert saved[name].dtype == value.dtype, (stem, name)
                assert saved[name].shape == value.shape, (stem, name)
                assert saved[name].tobytes() == value.tobytes(), (stem, name)
            assert saved["z"].flags.f_contiguous and saved["runs"].shape[1:] == (3,)

    def test_verify_on_the_loaded_record_reproduces_verify_json(self, tmp_path, simulated):
        out = self.study(tmp_path / "cs")
        switched = parse_config((out / "casestudy_switched.json").read_bytes())
        ramp = parse_config((out / "casestudy_ramp.json").read_bytes())
        for stem, record, sc in zip(self.STEMS, simulated, (switched, ramp, ramp)):
            saved = self.loaded(out / f"trajectory{stem}.npz")
            rebuilt = dataclasses.replace(
                record, t=saved["t"], z=saved["z"], vg=saved["vg"],
                runs=[tuple(r) for r in saved["runs"].tolist()])
            verdict = sim.verify_trajectory(rebuilt, record.gains, sc.epsilon, sc.envelope,
                                            sc.b_U, cli._rbar_max(record.gains, sc))
            assert cli._json_text(verdict.to_dict()) == (
                out / f"verify{stem}.json").read_text(encoding="utf-8"), stem

    def test_each_record_has_the_bytes_of_np_savez(self, tmp_path, simulated):
        out = self.study(tmp_path / "cs")
        for stem, record in zip(self.STEMS, simulated):
            runs = np.array(record.runs, dtype=np.int64).reshape(-1, 3)
            expected = savez_bytes(t=record.t, z=record.z, vg=record.vg, runs=runs)
            assert (out / f"trajectory{stem}.npz").read_bytes() == expected, stem

    ARRAYS = {
        "1d": np.linspace(0.0, 1.0, 7),
        "f_order": np.asfortranarray(np.arange(15.0).reshape(5, 3)),
        "c_order": np.arange(15.0).reshape(5, 3),
        "one_row": np.arange(3.0).reshape(1, 3),
        "zero_rows": np.empty((0, 3)),
        "runs_int64": np.array([[0, 4, 1], [4, 9, 0], [9, 12, 1]], dtype=np.int64),
        "strided": np.arange(30.0).reshape(5, 6)[:, ::2],
    }

    @pytest.mark.parametrize("name", ARRAYS)
    def test_writer_has_the_bytes_of_np_savez(self, tmp_path, name):
        a = self.ARRAYS[name]
        written = cli._write_npz(tmp_path / "sub" / "a.npz", a=a, b=a[:1])
        assert written.read_bytes() == savez_bytes(a=a, b=a[:1])
        with np.load(written) as saved:
            for key, value in (("a", a), ("b", a[:1])):
                loaded = saved[key]
                assert (loaded.dtype, loaded.shape) == (value.dtype, value.shape)
                assert np.array_equal(loaded, value)
                ordered = value.flags.c_contiguous or value.flags.f_contiguous
                flags = value.flags if ordered else np.ascontiguousarray(value).flags
                assert (loaded.flags.c_contiguous, loaded.flags.f_contiguous) == (
                    flags.c_contiguous, flags.f_contiguous)

    def test_two_writes_of_a_run_have_the_same_bytes(self, tmp_path, monkeypatch):
        sc = parse_config(casestudy.switched_config(horizon=40.0, step=5e-3))
        gains, _ = cli._synthesize_pipeline(sc, force_s_zero=False)
        first, second = [], []
        cli._run(sc, gains, tmp_path / "first", "", first)
        # a day later, as far as the clock that could date a zip entry knows
        now = time.time
        monkeypatch.setattr(time, "time", lambda: now() + 86400.0)
        cli._run(sc, gains, tmp_path / "second", "", second)
        assert [p.name for p in first] == [p.name for p in second]
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes(), a.name


@pytest.fixture
def slack_across_epsilon(monkeypatch):
    """Runs whose decay_slack is |eps - max |y - yhat|| + 1e-3: a sampled
    maximum within eps is no longer proven within, and one beyond eps is
    no longer proven beyond."""
    simulate = sim.simulate

    def run(*args, **kwargs):
        record = simulate(*args, **kwargs)
        record.decay_slack = abs(kwargs["epsilon"] - float(np.max(record.err))) + 1e-3
        return record

    monkeypatch.setattr(sim, "simulate", run)


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
        for label, run in summary["runs"].items():
            ok = run["max_output_error"] + run["decay_slack"] <= 0.5
            assert run["output_error_ok"] is ok and run["decay_slack"] > 0
            assert (out / f"trajectory_{label}.npz").exists()
            assert (out / f"jumps_{label}.csv").exists()
            verify = json.loads((out / f"verify_{label}.json").read_text())
            assert verify["passed"] is run["verification_passed"]
            assert verify["max_output_error"] == run["max_output_error"]

    def test_verdict_word_takes_the_proven_slack(self, tmp_path, short_ramp,
                                                 slack_across_epsilon):
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(short_ramp), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["runs"]["gaas"]["max_output_error"] <= 0.5  # sampled: within
        assert not summary["runs"]["gaas"]["output_error_ok"]
        assert summary["verdict"] == "both_fail"

    def test_constant_input_exact_lift_both_track(self, tmp_path):
        path = write_config(tmp_path, square_input_config(0.3), "const.json")
        out = tmp_path / "cmp_const"
        assert main(["compare", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["runs"]["gaas"]["max_output_error"] <= 1e-9
        assert summary["runs"]["s_zero"]["max_output_error"] <= 1e-9
        assert summary["verdict"] == "both_pass"

    @pytest.mark.parametrize("command", ["synthesize", "compare"])
    def test_bundle_that_cannot_be_built_exits_1(self, tmp_path, capsys, command):
        """A K that does not stabilize fails one check in `synthesize`, and
        ends `compare` in one stderr line: both exit 1, as a failed check."""
        cfg = casestudy.ramp_config(horizon=120.0, step=5e-3)
        cfg["scenario"]["K"] = [[1.0, 1.0]]
        del cfg["scenario"]["M"]
        path = write_config(tmp_path, cfg)
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        detail = "gains not constructible: NotStabilizing: A + B K has spectral abscissa"
        if command == "synthesize":
            fails = [line for line in captured.out.splitlines() if line.startswith("FAIL")]
            assert fails == ["FAIL  gains_constructible: value=inf tol=0"]
            assert captured.err == ""
        else:
            assert len(captured.err.splitlines()) == 1
            assert captured.err.startswith(f"gaas: {detail}")

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
                ("trajectory.npz", "trajectory_switched.npz"),
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

    def test_within_and_beyond_take_the_proven_slack(self, tmp_path, slack_across_epsilon):
        out = tmp_path / "cs"
        assert main(["casestudy", "--out", str(out), "--horizon", "120", "--step", "0.05"]) == 1
        summary = json.loads((out / "casestudy_summary.json").read_text())
        gaas, base = summary["ramp_compare"]["gaas"], summary["ramp_compare"]["s_zero"]
        assert gaas["max_output_error"] <= 0.5 < base["max_output_error"]
        assert not summary["checks"]["ramp_gaas_within_epsilon"]
        assert not summary["checks"]["ramp_baseline_exceeds_epsilon"]

    def test_table_notes_follow_the_checks(self, tmp_path, capsys):
        """At horizon 0 the S = 0 baseline cannot leave eps: the run fails
        that check, and the table says so instead of stating the note."""
        code = main(["casestudy", "--out", str(tmp_path / "cs"), "--horizon", "0"])
        printed = capsys.readouterr().out
        assert code == 1
        assert "exceeds eps as expected" not in printed
        assert "FAILED ramp_baseline_exceeds_epsilon" in printed
        assert "matches the quoted 0.1" in printed  # a check that holds keeps its note


class TestFrozenReaders:
    """What CI's checks and the benchmark harness read, neither of which
    follows a rename: the keys of `verify.json` and `report.json`, and the
    attributes of the reports and the record that `bench/workloads.py` uses."""

    VERIFY_KEYS = {
        "max_output_error", "max_vg", "max_u_norm", "envelope_violation_count",
        "envelope_violations", "jumps_total", "jumps_passed", "decay_violations",
        "first_decay_violation_time", "decay_slack", "initial_membership", "passed",
        "output_error_ok", "vg_ok", "input_ok", "envelope_ok", "jumps_ok", "decay_ok",
    }
    RECORD_NAMES = [
        "CP_equals_Chat", "CS_zero", "output_weight_dominated", "lyapunov_decay",
        "rbar1_consistent", "rbar2_consistent", "rbar3_consistent", "input_bound", "feasibility",
        "initial_lift",
    ]

    def test_artifact_keys_and_library_attributes(self, tmp_path, simulated):
        document = casestudy.switched_config(horizon=320.0, step=0.05)
        config = write_config(tmp_path, document)
        syn, run = tmp_path / "syn", tmp_path / "run"
        assert main(["synthesize", "--config", str(config), "--out", str(syn)]) == 0
        assert main(["simulate", "--config", str(config), "--gains", str(syn / "gains.json"),
                     "--out", str(run)]) == 0
        verify = json.loads((run / "verify.json").read_text())
        assert set(verify) == self.VERIFY_KEYS
        oks = [key for key in verify if key.endswith("_ok")]
        assert len(oks) == 6 and verify["passed"] is all(verify[key] for key in oks)
        assert verify["decay_ok"] and 0 < verify["decay_slack"] <= 1e-6
        report = json.loads((syn / "report.json").read_text())
        assert set(report) == {"passed", "records"}
        assert [r["name"] for r in report["records"]] == self.RECORD_NAMES
        for r in report["records"]:
            assert set(r) == {"name", "value", "tolerance", "passed", "detail"}
            assert r["passed"] is (r["value"] <= r["tolerance"])

        scenario = parse_config(document)
        gains, conditions = cli._synthesize_pipeline(scenario, force_s_zero=False)
        verdict = cli._run(scenario, gains, tmp_path / "again", "", [])
        record = simulated[-1]
        assert verdict.to_dict() == verify
        for r in conditions.records:
            assert type(r.value) is float and type(r.passed) is bool and r.name
        assert type(verdict.passed) is bool
        for name in ("jumps_total", "jumps_passed", "decay_violations"):
            assert type(getattr(verdict, name)) is int
        for name in ("max_output_error", "max_vg"):
            assert type(getattr(verdict, name)) is float
        assert verdict.jumps_total == len(record.jumps) == 1
        assert all(type(j.lhs) is float and type(j.rhs) is float for j in record.jumps)
        for name in ("t", "x", "xhat", "uhat", "uhatdot", "u", "vg"):
            assert len(getattr(record, name)) == record.t.size


class TestMemory:
    def test_compare_holds_one_run_at_a_time(self, tmp_path, monkeypatch):
        """`compare` frees each run's record before the next run starts, so
        its traced peak is that of `simulate` on one of its runs (100,001
        rows each), not that of two runs (about 1.5 times as much).  The
        blocks of formed columns are cut to 4,096 rows, so that the run
        arrays, not a block, set the peak."""
        monkeypatch.setattr(sim, "_BLOCK_ROWS", 4096)
        config = write_config(tmp_path, casestudy.ramp_config(horizon=100.0, step=1e-3))
        syn = tmp_path / "syn"
        assert main(["synthesize", "--config", str(config), "--out", str(syn)]) == 0
        peaks = {}
        for command, extra in (
            ("compare", []), ("simulate", ["--gains", str(syn / "gains.json")])
        ):
            tracemalloc.start()
            try:
                argv = [command, "--config", str(config), "--out", str(tmp_path / command)]
                assert main(argv + extra) == 0
                peaks[command] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["compare"] < 1.25 * peaks["simulate"], peaks

    def test_writing_a_record_copies_nothing(self, tmp_path):
        """The writer hands each array's own memory to the zip entry: a
        200,001-row record (9.6 MB) is written with under 64 KiB traced,
        where `np.savez` traces 6.4 MB of chunk copies."""
        rows = 200_001
        record = {
            "t": np.linspace(0.0, 200.0, rows),
            "z": np.asfortranarray(np.ones((rows, 4))),
            "vg": np.ones(rows),
            "runs": np.array([[0, rows, 0]], dtype=np.int64),
        }
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cli._write_npz(tmp_path / "record.npz", **record)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak

    def test_simulate_holds_no_more_than_the_library_run(self, tmp_path):
        """The `simulate` command's traced peak is that of the library's
        `sim.simulate` and `verify_trajectory` on the same run (400,001
        rows of the switched study), within 1 MiB: writing its files holds
        nothing beyond the record."""
        config = write_config(tmp_path, casestudy.switched_config(horizon=400.0, step=1e-3))
        syn = tmp_path / "syn"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["synthesize", "--config", str(config), "--out", str(syn)]) == 0
        sc = parse_config(config.read_bytes())
        gains = RefinementGains.from_dict(json.loads((syn / "gains.json").read_text()))
        rbar_max = cli._rbar_max(gains, sc)
        peaks = {}
        tracemalloc.start()
        try:
            record = sim.simulate(sc.concrete, sc.abstract, gains, sc.policy, sc.x0, sc.xhat0,
                                  sc.horizon, sc.step, rbar_max=rbar_max, epsilon=sc.epsilon)
            sim.verify_trajectory(record, gains, sc.epsilon, sc.envelope, sc.b_U, rbar_max)
            peaks["library"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del record
        tracemalloc.start()
        try:
            argv = ["simulate", "--config", str(config), "--gains", str(syn / "gains.json"),
                    "--out", str(tmp_path / "sim")]
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            peaks["simulate"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peaks["simulate"] <= peaks["library"] + 2**20, peaks


class TestFirstUseImports:
    #: the thread pool and the logging it imports, which no command needs
    POOL_MODULES = ("concurrent.futures", "logging")

    @pytest.fixture(scope="class")
    def loaded(self, tmp_path_factory):
        """A fresh interpreter runs the library pipeline on both studies and
        the `synthesize` command, then the `simulate` command, then the CSV
        export of a record; after each part it prints which of
        `POOL_MODULES`, `numpy.ma`, `fractions` and `decimal` it has loaded."""
        script = textwrap.dedent("""
            import io, json, sys
            from pathlib import Path
            from gaasim import casestudy, cli, sim, synthesis
            from gaasim.model import parse_config

            def loaded():
                names = ("concurrent.futures", "logging", "numpy.ma", "fractions", "decimal")
                print("loaded", json.dumps([name for name in names if name in sys.modules]))

            out = Path(sys.argv[1])
            for make in (casestudy.switched_config, casestudy.ramp_config):
                sc = parse_config(make(horizon=20.0, step=0.05))
                gains = synthesis.synthesize_gains(
                    sc.concrete, sc.abstract, sc.K, sc.a1, sc.epsilon, sc.envelope, M=sc.M)
                synthesis.check_assumption(
                    sc.concrete, sc.abstract, gains, sc.envelope, policy=sc.policy)
                x0 = sc.x0
                if x0 is None:
                    x0, _ = synthesis.lifted_start(sc.concrete, gains, sc.policy, sc.xhat0)
                rbar_max = cli._rbar_max(gains, sc)
                record = sim.simulate(sc.concrete, sc.abstract, gains, sc.policy, x0,
                                      sc.xhat0, sc.horizon, sc.step,
                                      rbar_max=rbar_max, epsilon=sc.epsilon)
                sim.verify_trajectory(record, gains, sc.epsilon, sc.envelope, sc.b_U,
                                      rbar_max)
            config = out / "switched.json"
            config.write_text(json.dumps(casestudy.switched_config(horizon=20.0, step=0.05)))
            assert cli.main(["synthesize", "--config", str(config), "--out", str(out / "s")]) == 0
            loaded()
            assert cli.main(["simulate", "--config", str(config), "--gains",
                             str(out / "s" / "gains.json"), "--out", str(out / "r")]) == 0
            loaded()
            sim.write_trajectory_csv(record, io.BytesIO())
            loaded()
            print("numpy.ma" in sys.modules)
        """)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path_factory.mktemp("run"))],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()

    def test_run_path_never_imports_numpy_ma(self, loaded):
        """numpy.ma costs a fresh process some 15 ms and 1.3 MB on first
        use, and plain np.unique imports it; no step of a run may, so a
        fresh interpreter runs the library pipeline on both studies, the
        `synthesize` and `simulate` commands and the CSV export without ever
        loading it."""
        assert loaded[-1] == "False"

    def test_no_command_loads_the_thread_pool_or_logging(self, loaded):
        """No part loads `concurrent.futures` or `logging`: not the library
        pipeline, not `synthesize` or `simulate`, which writes its run as a
        binary record, and not the CSV export."""
        after = [[name for name in json.loads(line[len("loaded "):]) if name in self.POOL_MODULES]
                 for line in loaded if line.startswith("loaded ")]
        assert after == [[], [], []]

    def test_csv_writing_loads_neither_fractions_nor_decimal(self, loaded):
        """Neither a run nor the CSV export imports `fractions` or `decimal`;
        `decimal` is loaded only to report a memory refusal."""
        after = [json.loads(line[len("loaded "):]) for line in loaded if line.startswith("loaded ")]
        assert len(after) == 3
        assert not {"fractions", "decimal"} & {name for names in after for name in names}
