"""Command-line pipeline: subcommands, artifacts, exit codes, determinism."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from lyagate.cli import main

SPEC_DIR = os.path.join(os.path.dirname(__file__), "..", "demos", "specs")
SPEC_1D = os.path.join(SPEC_DIR, "example1d.json")
SPEC_G15 = os.path.join(SPEC_DIR, "example1d_with_g15.json")
SPEC_NAV = os.path.join(SPEC_DIR, "phase_plane.json")
SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src")


def run(*argv):
    return main(list(argv))


class TestValidate:
    def test_ok(self, tmp_path, capsys):
        assert run("validate", SPEC_1D, "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "validation.json").read_text())
        assert report["controls"]["g0"]["family_1"] == {"1": "-", "2": "-"}
        assert report["controls"]["g2x"]["family_1"] == {"1": "+", "2": "+"}

    def test_inadmissible_control_fails(self, tmp_path, capsys):
        assert run("validate", SPEC_G15, "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert "not admissible" in err and "slice 1" in err

    def test_missing_file(self, tmp_path):
        assert run("validate", "no_such.json", "--out", str(tmp_path)) == 1


class TestAbstract:
    def test_artifacts(self, tmp_path, capsys):
        assert run("abstract", SPEC_1D, "--out", str(tmp_path)) == 0
        auto = json.loads((tmp_path / "automaton.json").read_text())
        non_sink = [l for l in auto["locations"] if not l["sink"]]
        assert len(non_sink) == 6
        bounds = json.loads((tmp_path / "bounds.json").read_text())
        assert bounds["f1.s1.g0"]["t_hi"] == "inf"
        out = capsys.readouterr().out
        assert "6 non-sink locations" in out

    def test_extended_mode(self, tmp_path):
        assert run("abstract", SPEC_1D, "--mode", "extended",
                   "--out", str(tmp_path)) == 0
        auto = json.loads((tmp_path / "automaton.json").read_text())
        non_sink = [l for l in auto["locations"] if not l["sink"]]
        assert len(non_sink) == 4

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("abstract", SPEC_1D, "--out", str(a)) == 0
        assert run("abstract", SPEC_1D, "--out", str(b)) == 0
        for name in ("automaton.json", "bounds.json", "complex.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestSynthesize:
    def test_reach_by_label(self, tmp_path, capsys):
        assert run("synthesize", SPEC_1D, "--reach", "[-1,1]",
                   "--out", str(tmp_path)) == 0
        strat = json.loads((tmp_path / "strategy.json").read_text())["strategy"]
        assert set(strat.values()) == {"g0"}
        synth = json.loads((tmp_path / "synthesis.json").read_text())
        assert synth["realizable"] is True
        bounds = {k: v for k, v in synth["bounds"].items() if v != 0}
        assert all(abs(v - 4.0) < 0.05 for v in bounds.values())

    def test_reach_by_point(self, tmp_path):
        assert run("synthesize", SPEC_1D, "--reach", "@0.0",
                   "--out", str(tmp_path)) == 0

    def test_avoid_sink(self, tmp_path):
        assert run("synthesize", SPEC_1D, "--avoid", "",
                   "--out", str(tmp_path)) == 0
        synth = json.loads((tmp_path / "synthesis.json").read_text())
        assert synth["realizable"] is True

    def test_unknown_cell(self, tmp_path):
        assert run("synthesize", SPEC_1D, "--reach", "[7,8]",
                   "--out", str(tmp_path)) == 1


class TestSimulate:
    def test_single_start(self, tmp_path):
        assert run("simulate", SPEC_1D, "--strategy", "const:g0",
                   "--x0", "2.5", "--horizon", "3", "--step", "0.001",
                   "--out", str(tmp_path)) == 0
        index = json.loads((tmp_path / "traces.json").read_text())
        assert index["runs"][0]["events"] == 1
        assert 0.0 <= index["runs"][0]["step_error"] < 1e-7
        csv = (tmp_path / "trace_000.csv").read_text().splitlines()
        assert csv[0] == "t,x1,cell,control"

    def test_overflowing_field_exits_1(self, tmp_path, capsys):
        """A valid spec whose field overflows a Python float mid-step is bad
        input (exit 1), not an internal error (exit 3)."""
        spec = dict(json.loads(open(SPEC_1D).read()))
        spec["dynamics"] = ["-x1^9 + u1"]
        spec["controls"] = {"g0": ["0"]}
        path = tmp_path / "steep.json"
        path.write_text(json.dumps(spec))
        assert run("validate", str(path), "--out", str(tmp_path)) == 0
        assert run("simulate", str(path), "--strategy", "const:g0",
                   "--x0", "2.5", "--horizon", "5", "--step", "1",
                   "--out", str(tmp_path)) == 1
        assert "overflows" in capsys.readouterr().err

    def test_sampled_starts(self, tmp_path):
        strat = tmp_path / "strategy.json"
        run("synthesize", SPEC_1D, "--reach", "[-1,1]", "--out", str(tmp_path))
        assert run("simulate", SPEC_1D, "--strategy", str(strat),
                   "--samples", "4", "--horizon", "2", "--step", "0.001",
                   "--out", str(tmp_path / "sim")) == 0
        index = json.loads((tmp_path / "sim" / "traces.json").read_text())
        assert len(index["runs"]) == 4


class TestCheckSound:
    def test_clean_pass(self, tmp_path):
        assert run("check-sound", SPEC_1D, "--strategy", "const:g0",
                   "--samples", "20", "--horizon", "5", "--step", "0.002",
                   "--out", str(tmp_path)) == 0
        rep = json.loads((tmp_path / "soundness.json").read_text())
        assert rep["passed"] is True
        assert rep["traces"] == 20

    def test_default_step_report(self, tmp_path, capsys):
        assert run("check-sound", SPEC_1D, "--strategy", "const:g0",
                   "--samples", "30", "--horizon", "10",
                   "--out", str(tmp_path)) == 0
        rep = json.loads((tmp_path / "soundness.json").read_text())
        assert rep["step"] == pytest.approx(4.0 / 900.0, rel=1e-12)
        assert 0.0 < rep["max_step_error"] <= rep["step_error_budget"] == 1e-7
        out, err = capsys.readouterr()
        assert out.startswith("soundness: 30 traces, 0 violations, "
                              "completeness 1.00, step 0.00444444, "
                              "max step error ")
        assert "warning" not in err

    def test_step_error_over_budget_warns(self, tmp_path, capsys):
        """A band 0.02 wide in phi at 100x the default step: the verdict and
        exit code stand, and stderr says the step is too coarse."""
        spec = dict(json.loads(open(SPEC_1D).read()))
        spec["partitions"] = [{"phi": "x1^2", "levels": [0.0, 1.0, 1.02, 9.0]}]
        spec["grid"] = {"points_per_dim": 512, "admissibility": 512}
        path = tmp_path / "thin.json"
        path.write_text(json.dumps(spec))
        assert run("check-sound", str(path), "--strategy", "const:g0",
                   "--samples", "6", "--horizon", "10", "--step", "0.44",
                   "--out", str(tmp_path)) == 0
        rep = json.loads((tmp_path / "soundness.json").read_text())
        assert rep["max_step_error"] > rep["step_error_budget"]
        assert "exceeds the budget" in capsys.readouterr().err

    def test_slice_without_admissibility_sign_exits_1(self, tmp_path, capsys):
        """The thin band [1, 1.02] holds no point of the 128-point
        admissibility grid, so it has no sign; the build refuses it with a
        hint instead of ending in a KeyError (exit 3) at check-sound."""
        spec = dict(json.loads(open(SPEC_1D).read()))
        spec["partitions"] = [{"phi": "x1^2", "levels": [0.0, 1.0, 1.02, 9.0]}]
        spec["grid"] = {"points_per_dim": 512, "admissibility": 128}
        path = tmp_path / "thin128.json"
        path.write_text(json.dumps(spec))
        assert run("abstract", str(path), "--out", str(tmp_path)) == 1
        assert run("check-sound", str(path), "--strategy", "const:g0",
                   "--samples", "2", "--horizon", "10",
                   "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.count("family 1, slice 2 has no admissibility sign under "
                         "control g0") == 2
        assert "raise grid.admissibility" in err

    def test_phase_plane_reach_strategy_embeds(self, tmp_path):
        """Every entry switch of the reach strategy is the automaton's own
        total switch map; what remains are box exits, which have no sink
        edge yet."""
        assert run("synthesize", SPEC_NAV, "--reach", "@0.5,0",
                   "--out", str(tmp_path)) == 0
        code = run("check-sound", SPEC_NAV,
                   "--strategy", str(tmp_path / "strategy.json"),
                   "--samples", "100", "--horizon", "6",
                   "--out", str(tmp_path))
        rep = json.loads((tmp_path / "soundness.json").read_text())
        assert code == (0 if rep["passed"] else 2)
        assert len(rep["violations"]) <= 3
        for v in rep["violations"]:
            assert v["violation"]["kind"] == "missing-edge"
            assert v["violation"]["detail"] == "no transition to sink"

    def test_invalid_spec_exits_1(self, tmp_path):
        assert run("check-sound", SPEC_G15, "--strategy", "const:g0",
                   "--samples", "5", "--horizon", "2",
                   "--out", str(tmp_path)) == 1

    def test_exit_code_2_on_violation(self, tmp_path):
        """An outermost level that never meets the box means box exits have
        no sink edge; the embedding check must flag those traces (exit 2)."""
        spec = dict(json.loads(open(SPEC_1D).read()))
        spec["partitions"] = [{"phi": "x1^2", "levels": [0.0, 1.0, 16.0]}]
        path = tmp_path / "leaky.json"
        path.write_text(json.dumps(spec))
        code = run("check-sound", str(path), "--strategy", "const:g2x",
                   "--from", "@0.5", "--samples", "10", "--horizon", "5",
                   "--step", "0.002", "--out", str(tmp_path))
        assert code == 2
        rep = json.loads((tmp_path / "soundness.json").read_text())
        assert rep["passed"] is False
        assert rep["violations"]


class TestBadStep:
    """A step that is not finite and positive is bad input, wherever it
    comes from; before, -0.01 and nan gave false violations (exit 2), inf
    passed and 0 silently meant the default."""

    @pytest.mark.parametrize("command", ["simulate", "check-sound"])
    @pytest.mark.parametrize("step", ["-0.01", "nan", "inf", "0"])
    def test_cli_step_exits_1(self, tmp_path, capsys, command, step):
        assert run(command, SPEC_1D, "--strategy", "const:g0",
                   "--samples", "3", "--horizon", "10", "--step=" + step,
                   "--out", str(tmp_path)) == 1
        assert "--step must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("step", [-0.01, float("nan"), float("inf"), 0.0])
    def test_spec_step_exits_1(self, tmp_path, capsys, step):
        spec = dict(json.loads(open(SPEC_1D).read()))
        spec["grid"] = dict(spec["grid"], step=step)
        path = tmp_path / "bad_step.json"
        path.write_text(json.dumps(spec))
        assert run("check-sound", str(path), "--strategy", "const:g0",
                   "--samples", "3", "--horizon", "10",
                   "--out", str(tmp_path)) == 1
        assert "grid.step must be finite and positive" in capsys.readouterr().err


class TestBadPoint:
    """A point or cell selector that does not fit the spec is bad input:
    exit 1, with no coordinate silently dropped."""

    @pytest.mark.parametrize("spec,argv,message", [
        ("example1d", ["simulate", "--x0", "abc"], "not a list of numbers"),
        ("example1d", ["synthesize", "--reach", "@abc"], "not a list of numbers"),
        ("example1d", ["simulate", "--x0", "2.5,1"], "has 2 coordinates"),
        ("phase_plane", ["simulate", "--x0", "0.5"], "has 1 coordinates"),
        ("example1d", ["synthesize", "--reach", "@0.5,7"], "has 2 coordinates"),
        ("example1d", ["simulate", "--from", "@2.5,99"], "has 2 coordinates"),
        ("example1d", ["simulate", "--from", ";"], "selects no cell"),
        ("example1d", ["check-sound", "--from", ";"], "selects no cell"),
    ])
    def test_exits_1(self, tmp_path, capsys, spec, argv, message):
        command, *rest = argv
        if command != "synthesize":
            rest += ["--strategy", "const:g0", "--horizon", "1"]
        path = os.path.join(SPEC_DIR, spec + ".json")
        assert run(command, path, *rest, "--out", str(tmp_path)) == 1
        assert message in capsys.readouterr().err


class TestExport:
    def test_dot(self, tmp_path):
        assert run("export", SPEC_1D, "--out", str(tmp_path)) == 0
        dot = (tmp_path / "automaton.dot").read_text()
        assert dot.startswith("digraph")
        assert "style=dashed" in dot and "style=solid" in dot

    @pytest.mark.parametrize("spec", [SPEC_1D, SPEC_NAV])
    @pytest.mark.parametrize("mode", ["cells", "extended"])
    def test_dot_both_modes(self, tmp_path, spec, mode):
        assert run("export", spec, "--mode", mode,
                   "--out", str(tmp_path)) == 0
        assert (tmp_path / "automaton.dot").stat().st_size > 0


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.abspath(SRC_DIR), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "lyagate", "validate", SPEC_1D,
             "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "validation ok" in proc.stdout
        assert (tmp_path / "validation.json").exists()
