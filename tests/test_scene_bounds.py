"""Tracking accuracy where virtual candidates and coasting matter most,
with bounds frozen from the first run of virtuals at the motion prediction
with re-acquisition (seeds listed in full, none left out):

* 40-target scenes whose candidates carry zero descriptors, as candidates
  loaded from a MOT file do;
* the same scene size through the command line: synth, track --input, eval;
* 10-target, 300-frame scenes, where predictions are carried longest;
* 20-target scenes at a smaller solver budget, where duplicate births
  beside coasting tracks cascaded.
"""

import dataclasses

import numpy as np
import pytest

from mdatrack import kvtext, pipeline
from mdatrack.affinity import AffinityProviderParams, ConnectionGateConfig
from mdatrack.cli import main
from mdatrack.evalio import ScenarioSpec, clear_mot, generate_scenario

NOISE = {"noise_sigma": 1.0, "miss_probability": 0.1,
         "false_positive_rate": 0.2}


def track(detection_frames, quality, config=pipeline.PipelineConfig()):
    return pipeline.run_sequence(
        detection_frames, ConnectionGateConfig(), AffinityProviderParams(),
        config, quality)


@pytest.mark.parametrize("seed, bound", [(0, 0.98), (1, 0.9775),
                                         (2, 0.9625)])
def test_crowd_without_descriptors_keeps_its_mota(seed, bound):
    # 40 targets, 30 frames; zero descriptors score a neutral 0.5
    scenario = generate_scenario(ScenarioSpec(
        frame_count=30, target_count=40, seed=seed, **NOISE))
    blank = [[dataclasses.replace(c, appearance=np.zeros_like(c.appearance))
              for c in frame] for frame in scenario.detection_frames]
    tracks = track(blank, pipeline.GroundTruthQuality(scenario.gt_tracks))
    report = clear_mot(scenario.gt_tracks, {t.id: t.boxes for t in tracks})
    assert report.mota >= bound


@pytest.mark.parametrize("seed, bound", [(0, 0.9708333333333333), (1, 0.95),
                                         (2, 0.9625)])
def test_crowd_round_trip_through_the_cli_keeps_its_mota(tmp_path, seed,
                                                         bound):
    config = tmp_path / "crowd.cfg"
    config.write_text("frame_count = 30\ntarget_count = 40\n"
                      "noise_sigma = 1.0\nmiss_probability = 0.1\n"
                      "false_positive_rate = 0.2\n")
    gt, det, hyp, metrics = (tmp_path / name
                             for name in ("gt", "det", "hyp", "metrics"))
    common = ["--config", str(config), "--seed", str(seed)]
    assert main(["--mode", "synth", *common, "--gt", str(gt),
                 "--out", str(det)]) == 0
    assert main(["--mode", "track", *common, "--input", str(det),
                 "--out", str(hyp)]) == 0
    assert main(["--mode", "eval", "--gt", str(gt), "--input", str(hyp),
                 "--out", str(metrics)]) == 0
    assert float(kvtext.load_kv(metrics)["MOTA"]) >= bound


@pytest.mark.parametrize("estimator, bounds", [
    ("ground truth", [11, 10, 10, 10, 11, 11]),
    ("confidence", [24, 17, 21, 18, 18, 19]),
])
def test_long_scenes_keep_their_track_counts(estimator, bounds):
    # 10 targets over 300 frames, seeds 0-5: every track the run makes
    for seed, bound in enumerate(bounds):
        scenario = generate_scenario(ScenarioSpec(
            frame_count=300, target_count=10, seed=seed, **NOISE))
        quality = (pipeline.GroundTruthQuality(scenario.gt_tracks)
                   if estimator == "ground truth"
                   else pipeline.ConfidenceQuality())
        assert len(track(scenario.detection_frames, quality)) <= bound


@pytest.mark.parametrize("seed", range(6))
def test_smaller_solver_budget_keeps_the_mota(seed):
    # 20 targets, 30 frames: at 5 power iterations and 5 normalization
    # pairs, MOTA stays within 0.05 of the default 10/10 budget's
    scenario = generate_scenario(ScenarioSpec(
        frame_count=30, target_count=20, seed=seed, **NOISE))
    quality = pipeline.GroundTruthQuality(scenario.gt_tracks)
    mota = [clear_mot(scenario.gt_tracks, {
        t.id: t.boxes for t in track(
            scenario.detection_frames, quality,
            pipeline.PipelineConfig(power_iterations=n, norm_pairs=n))}).mota
        for n in (10, 5)]
    assert mota[1] >= mota[0] - 0.05
