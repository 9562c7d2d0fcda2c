"""Command-line surface: flags, config parsing, determinism, exit codes."""

import numpy as np
import pytest

from mdatrack import kvtext
from mdatrack.affinity import (
    AffinityProviderParams,
    ConnectionGateConfig,
    save_params,
)
from mdatrack.cli import RunConfig, build_run_config, main
from mdatrack.evalio import ScenarioSpec
from mdatrack.errors import ContractError, ParseError


def read_losses(path):
    return [line.split()[1] for line in path.read_text().splitlines()]


def test_numpy_floats_are_written_as_plain_floats():
    text = kvtext.format_kv({"a": np.float64(1.0000000000000004),
                             "b": np.float32(0.5), "c": 0.1, "d": 3})
    assert text == "a = 1.0000000000000004\nb = 0.5\nc = 0.1\nd = 3\n"


class TestConfig:
    def test_defaults_without_file(self):
        cfg = build_run_config(None, None)
        assert cfg.scenario.frame_count == 50
        assert cfg.pipeline.alpha == 0.8
        assert cfg.learning_rate == 0.05
        assert cfg == RunConfig()

    @pytest.mark.parametrize("line, section, name, expected", [
        ("velocity_max = 6.0", "scenario", "velocity_range",
         (ScenarioSpec.velocity_range[0], 6.0)),
        ("box_min = 30.0", "scenario", "box_size_range",
         (30.0, ScenarioSpec.box_size_range[1])),
        ("size_ratio_high = 3.0", "gate", "size_ratio_bounds",
         (ConnectionGateConfig.size_ratio_bounds[0], 3.0)),
    ])
    def test_one_bound_keeps_the_other_at_its_default(
            self, tmp_path, line, section, name, expected):
        path = tmp_path / "run.cfg"
        path.write_text(line + "\n")
        cfg = build_run_config(str(path), None)
        assert getattr(getattr(cfg, section), name) == expected

    def test_file_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "frame_count = 12\ntarget_count = 3\nalpha = 0.6\n"
            "learning_rate = 0.01\nvelocity_min = 2.0\nvelocity_max = 3.0\n")
        cfg = build_run_config(str(path), None)
        assert cfg.scenario.frame_count == 12
        assert cfg.scenario.velocity_range == (2.0, 3.0)
        assert cfg.pipeline.alpha == 0.6
        assert cfg.learning_rate == 0.01

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("frames = 12\n")
        with pytest.raises(ContractError):
            build_run_config(str(path), None)

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = 1\n# more\nepochs = 2\n")
        with pytest.raises(
                ParseError,
                match=r"^line 3: key 'epochs' repeated, first set on line 1$"):
            build_run_config(str(path), None)

    def test_seed_flag_overrides_scenario_seed(self):
        cfg = build_run_config(None, 123)
        assert cfg.seed == 123
        assert cfg.scenario.seed == 123

    def test_config_seed_reaches_scenario(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 41\n")
        cfg = build_run_config(str(path), None)
        assert cfg.seed == 41
        assert cfg.scenario.seed == 41
        assert build_run_config(str(path), 7).scenario.seed == 7


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text("frame_count = 10\ntarget_count = 3\nepochs = 3\n")
    return str(path)


class TestTrainMode:
    def test_zero_learning_rate_keeps_the_loss_flat(self, tmp_path, small_cfg):
        cfg_path = tmp_path / "zero22.cfg"
        cfg_path.write_text(
            "frame_count = 10\ntarget_count = 3\nepochs = 3\n"
            "learning_rate = 0.0\n")
        out = tmp_path / "params.txt"
        rc = main(["--mode", "train", "--config", str(cfg_path),
                   "--out", str(out)])
        assert rc == 0
        losses = read_losses(tmp_path / "params.txt.loss")
        assert len(losses) == 3
        assert len(set(losses)) == 1

    def test_same_seed_bit_identical_curves(self, tmp_path, small_cfg):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"params_{name}.txt"
            rc = main(["--mode", "train", "--config", small_cfg,
                       "--out", str(out), "--seed", "5"])
            assert rc == 0
            outs.append((tmp_path / f"params_{name}.txt.loss").read_text())
        first = [line.split(" ", 1)[1] for line in outs[0].splitlines()]
        second = [line.split(" ", 1)[1] for line in outs[1].splitlines()]
        assert first == second
        assert (tmp_path / "params_a.txt").read_text() == \
            (tmp_path / "params_b.txt").read_text()

    def test_missing_out_is_a_usage_error(self, small_cfg):
        assert main(["--mode", "train", "--config", small_cfg]) == 1


class TestTrackEvalChain:
    def test_synth_track_eval_round_trip(self, tmp_path, small_cfg):
        gt = tmp_path / "gt.txt"
        det = tmp_path / "det.txt"
        hyp = tmp_path / "hyp.txt"
        metrics = tmp_path / "metrics.txt"
        assert main(["--mode", "synth", "--config", small_cfg,
                     "--gt", str(gt), "--out", str(det)]) == 0
        assert gt.exists() and det.exists()
        assert main(["--mode", "track", "--config", small_cfg,
                     "--out", str(hyp)]) == 0
        assert main(["--mode", "eval", "--gt", str(gt), "--input", str(hyp),
                     "--out", str(metrics)]) == 0
        text = metrics.read_text()
        values = dict(line.split(" = ") for line in text.strip().splitlines())
        assert float(values["MOTA"]) == 1.0
        assert int(values["IDS"]) == 0

    def test_eval_report_reads_back_as_plain_numbers(self, tmp_path, small_cfg):
        gt = tmp_path / "gt.txt"
        metrics = tmp_path / "metrics.txt"
        assert main(["--mode", "synth", "--config", small_cfg,
                     "--gt", str(gt), "--out", str(tmp_path / "det.txt")]) == 0
        assert main(["--mode", "eval", "--gt", str(gt), "--input", str(gt),
                     "--out", str(metrics)]) == 0
        values = kvtext.load_kv(metrics)
        assert sorted(values) == ["FN", "FP", "IDS", "ML", "MOTA", "MOTP", "MT"]
        for name in ("FN", "FP", "IDS"):
            assert int(values[name]) == 0
        for name in ("MOTA", "MOTP", "MT", "ML"):
            float(values[name])
        assert 0.0 < float(values["MOTP"]) <= 1.0

    def test_eval_identical_files(self, tmp_path, small_cfg, capsys):
        gt = tmp_path / "gt.txt"
        det = tmp_path / "det.txt"
        main(["--mode", "synth", "--config", small_cfg,
              "--gt", str(gt), "--out", str(det)])
        assert main(["--mode", "eval", "--gt", str(gt),
                     "--input", str(gt)]) == 0
        out = capsys.readouterr().out
        assert "MOTA 1.0000" in out

    def test_track_from_detection_file(self, tmp_path, small_cfg):
        gt = tmp_path / "gt.txt"
        det = tmp_path / "det.txt"
        hyp = tmp_path / "hyp.txt"
        main(["--mode", "synth", "--config", small_cfg,
              "--gt", str(gt), "--out", str(det)])
        assert main(["--mode", "track", "--config", small_cfg,
                     "--input", str(det), "--out", str(hyp)]) == 0
        assert hyp.read_text().strip()

    def test_trained_params_feed_tracking(self, tmp_path, small_cfg):
        params = tmp_path / "params.txt"
        hyp = tmp_path / "hyp.txt"
        assert main(["--mode", "train", "--config", small_cfg,
                     "--out", str(params)]) == 0
        assert main(["--mode", "track", "--config", small_cfg,
                     "--params", str(params), "--out", str(hyp)]) == 0
        assert hyp.read_text().strip()


class TestErrors:
    def test_nonexistent_config_is_validation_failure(self, tmp_path):
        assert main(["--mode", "synth", "--config", "/no/such/file",
                     "--gt", str(tmp_path / "gt.txt"),
                     "--out", str(tmp_path / "det.txt")]) == 1

    def test_check_mode_is_not_a_mode(self):
        # verification lives in the test suite, not behind the CLI
        with pytest.raises(SystemExit) as exc:
            main(["--mode", "check"])
        assert exc.value.code == 2

    def test_eval_requires_both_files(self):
        assert main(["--mode", "eval", "--gt", "only.txt"]) == 1

    def test_zero_power_iterations_exits_before_any_work(
            self, tmp_path, monkeypatch, capsys):
        from mdatrack import cli

        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(cli, "generate_scenario", no_work)
        monkeypatch.setattr(cli, "run_sequence", no_work)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frame_count = 6\ntarget_count = 2\n"
                       "power_iterations = 0\n")
        hyp = tmp_path / "hyp.txt"
        assert main(["--mode", "track", "--config", str(cfg),
                     "--out", str(hyp)]) == 1
        assert not hyp.exists()
        assert "power_iterations" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["base_distance_factor = nan",
                                      "relaxation_factor = inf",
                                      "position_scale = nan",
                                      "motion_weight = nan",
                                      "noise_sigma = nan",
                                      "false_positive_rate = inf",
                                      "descriptor_noise = nan",
                                      "velocity_min = nan",
                                      "box_max = inf",
                                      "frame_width = inf"])
    def test_non_finite_config_exits_before_tracking(
            self, tmp_path, monkeypatch, capsys, line):
        from mdatrack import cli

        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(cli, "generate_scenario", no_work)
        monkeypatch.setattr(cli, "run_sequence", no_work)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"frame_count = 10\ntarget_count = 5\n{line}\n")
        hyp = tmp_path / "hyp.txt"
        assert main(["--mode", "track", "--config", str(cfg),
                     "--out", str(hyp)]) == 1
        assert not hyp.exists()
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert line.split()[0] in err

    @pytest.mark.parametrize("line", ["target_count = -1", "frame_count = 0",
                                      "descriptor_length = 0"])
    def test_bad_scene_count_exits_before_generating(
            self, tmp_path, monkeypatch, capsys, line):
        from mdatrack import cli

        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(cli, "generate_scenario", no_work)
        monkeypatch.setattr(cli, "train_provider", no_work)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{line}\n")
        out = tmp_path / "params.txt"
        assert main(["--mode", "train", "--config", str(cfg),
                     "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert line.split()[0] in err

    @pytest.mark.parametrize("line, kind", [
        ("frame_count = 1.5", "int"), ("epochs = 2.0", "int"),
        ("max_relaxations = two", "int"), ("alpha = abc", "float"),
        ("motion_weight = 1,0", "float"),
    ])
    def test_unreadable_config_value_names_its_key(
            self, tmp_path, capsys, line, kind):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{line}\n")
        out = tmp_path / "gt.txt"
        assert main(["--mode", "synth", "--config", str(cfg), "--gt", str(out),
                     "--out", str(tmp_path / "det.txt")]) == 1
        assert not out.exists()
        key, _, value = line.partition(" = ")
        assert capsys.readouterr().err == (
            f"error: {key} = {value!r} is not a valid {kind}\n")

    @pytest.mark.parametrize("edit, name", [
        (("motion_weight = 1.0", "motion_weight = abc"), "motion_weight"),
        (("size_weight = 0.5", "size_weight = 0.5\nbogus = 3"), "bogus"),
    ])
    def test_bad_parameter_file_exits_before_tracking(
            self, tmp_path, monkeypatch, capsys, small_cfg, edit, name):
        from mdatrack import cli

        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(cli, "run_sequence", no_work)
        params = tmp_path / "params.txt"
        save_params(AffinityProviderParams(), params)
        params.write_text(params.read_text().replace(*edit))
        hyp = tmp_path / "hyp.txt"
        assert main(["--mode", "track", "--config", small_cfg,
                     "--params", str(params), "--out", str(hyp)]) == 1
        assert not hyp.exists()
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert name in err

    def test_negative_seed_exits_before_generating(
            self, tmp_path, monkeypatch, capsys):
        from mdatrack import cli

        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(cli, "generate_scenario", no_work)
        gt = tmp_path / "gt.txt"
        assert main(["--mode", "synth", "--seed", "-1", "--gt", str(gt),
                     "--out", str(tmp_path / "det.txt")]) == 1
        assert not gt.exists()
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"

    # each bad setting is reported once, by the error line alone
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("line, name", [
        ("learning_rate = nan", "learning_rate"),
        ("learning_rate = -0.5", "learning_rate"),
        ("epochs = -1", "epochs"), ("epochs = 0", "epochs"),
        ("frame_count = 2", "3 frames"),
        # 2.0 ** 2000 is past the float range
        ("max_relaxations = 2000", "max_relaxations"),
    ])
    def test_bad_training_setting_exits_without_training(
            self, tmp_path, capsys, line, name):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"target_count = 2\n{line}\n")
        out = tmp_path / "params.txt"
        assert main(["--mode", "train", "--config", str(cfg),
                     "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert name in err

    def test_infinite_frame_in_eval_input_is_a_validation_failure(
            self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        gt.write_text("1,1,10,20,30,40,1\n")
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("inf,1,10,20,30,40,1\n")
        assert main(["--mode", "eval", "--gt", str(gt),
                     "--input", str(hyp)]) == 1
        assert "line 1: field 1 is not finite" in capsys.readouterr().err

    def test_repeated_id_in_eval_ground_truth_is_a_validation_failure(
            self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        gt.write_text("1,1,10,20,30,40,1\n1,1,50,20,30,40,1\n"
                      "2,1,12,20,30,40,1\n")
        assert main(["--mode", "eval", "--gt", str(gt),
                     "--input", str(gt)]) == 1
        assert "frame 1: id 1 appears twice" in capsys.readouterr().err

    def test_repeated_id_in_training_ground_truth_exits_before_training(
            self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        gt.write_text("".join(f"{f},0,{10 + f},20,30,40,1\n"
                              for f in (1, 2, 3, 3)))
        out = tmp_path / "params.txt"
        assert main(["--mode", "train", "--gt", str(gt),
                     "--out", str(out)]) == 1
        assert not out.exists()
        assert "frame 3: id 0 appears twice" in capsys.readouterr().err

    def test_detection_file_as_training_ground_truth_is_rejected(
            self, tmp_path, small_cfg, capsys):
        gt = tmp_path / "gt.txt"
        det = tmp_path / "det.txt"
        assert main(["--mode", "synth", "--config", small_cfg,
                     "--gt", str(gt), "--out", str(det)]) == 0
        out = tmp_path / "params.txt"
        assert main(["--mode", "train", "--config", small_cfg,
                     "--gt", str(det), "--out", str(out)]) == 1
        assert not out.exists()
        assert "frame 1: id -1 is negative" in capsys.readouterr().err

    def test_bad_input_file(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not,a,valid,mot,line\n")
        hyp = tmp_path / "hyp.txt"
        assert main(["--mode", "track", "--input", str(bad),
                     "--out", str(hyp)]) == 1

    def test_internal_invariant_maps_to_exit_two(self, tmp_path, monkeypatch):
        from mdatrack import cli
        from mdatrack.errors import InternalInvariantError

        def boom(spec):
            raise InternalInvariantError("bookkeeping broke")

        monkeypatch.setattr(cli, "generate_scenario", boom)
        assert main(["--mode", "synth", "--gt", str(tmp_path / "gt.txt"),
                     "--out", str(tmp_path / "det.txt")]) == 2


class TestModuleEntry:
    def test_python_dash_m_invocation(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path
        src = Path(__file__).resolve().parents[1] / "src"
        cfg = tmp_path / "t.cfg"
        cfg.write_text("frame_count = 6\ntarget_count = 2\n")
        hyp = tmp_path / "hyp.txt"
        # the child process finds the package where the tests import it
        proc = subprocess.run(
            [sys.executable, "-m", "mdatrack", "--mode", "track",
             "--config", str(cfg), "--out", str(hyp)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert hyp.exists()
