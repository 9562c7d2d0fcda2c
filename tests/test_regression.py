"""Regression pins: tracks and trained parameters that only a change meant
to move them may re-record, logging old and new figures in CHANGES.md.

The tracks are compared by a SHA-256 digest of their exact float repr; the
trained parameters to 1e-12.
"""

import hashlib

import numpy as np

from mdatrack.affinity import AffinityProviderParams, ConnectionGateConfig
from mdatrack.evalio import ScenarioSpec, clear_mot, generate_scenario
from mdatrack.pipeline import GroundTruthQuality, PipelineConfig, run_sequence
from mdatrack.training import train_provider

NOISE = {"noise_sigma": 1.0, "miss_probability": 0.1,
         "false_positive_rate": 0.2}


def test_baseline_scene_tracks_are_unchanged():
    # the ROADMAP 10-target baseline scene: seed 0, 30 frames
    scenario = generate_scenario(ScenarioSpec(
        frame_count=30, target_count=10, seed=0, **NOISE))
    tracks = run_sequence(scenario.detection_frames, ConnectionGateConfig(),
                          AffinityProviderParams(), PipelineConfig(),
                          GroundTruthQuality(scenario.gt_tracks))
    report = clear_mot(scenario.gt_tracks, {t.id: t.boxes for t in tracks})
    assert (len(tracks), report.id_switches) == (10, 0)
    assert report.mota == 0.9966666666666667
    digest = repr(tuple((t.id, t.status, tuple(sorted(t.boxes.items())))
                        for t in tracks))
    assert hashlib.sha256(digest.encode()).hexdigest() == (
        "172e1a0bda180b75959287f9ffd7da0fd519ae074d62c2386e7ff80cdabe8225")


def test_long_noisy_scene_tracks_are_unchanged():
    # 10 targets over 300 frames, seed 4: long enough for coasting tracks to
    # carry predictions across many windows.  This pins the known
    # duplicate-birth loop (ROADMAP item 4) as it stands; the change that
    # mends it re-records these figures and logs why in CHANGES.md.
    scenario = generate_scenario(ScenarioSpec(
        frame_count=300, target_count=10, seed=4, **NOISE))
    tracks = run_sequence(scenario.detection_frames, ConnectionGateConfig(),
                          AffinityProviderParams(), PipelineConfig(),
                          GroundTruthQuality(scenario.gt_tracks))
    report = clear_mot(scenario.gt_tracks, {t.id: t.boxes for t in tracks})
    assert (len(tracks), report.id_switches,
            report.false_positives) == (80, 10, 816)
    assert report.mota == 0.723
    digest = repr(tuple((t.id, t.status, tuple(sorted(t.boxes.items())))
                        for t in tracks))
    assert hashlib.sha256(digest.encode()).hexdigest() == (
        "8692d29f7177256de90f4eeac0ec96188ce63fafca685c8edd739302ef29de54")


def test_training_run_parameters_are_unchanged():
    # a 3-target, 30-frame, 5-epoch run; the default gate keeps three
    # targets apart (one hypothesis each, parameters never move), so a wide
    # gate and an off-default start make the gradient do work
    scenario = generate_scenario(ScenarioSpec(
        frame_count=30, target_count=3, seed=0, **NOISE))
    start = AffinityProviderParams(motion_weight=0.3, position_scale=15.0,
                                   size_weight=1.0, appearance_weight=0.3,
                                   long_term_weight=0.5)
    params, losses = train_provider(
        scenario.gt_frames, scenario.gt_frame_ids,
        ConnectionGateConfig(base_distance_factor=4.0), start,
        epochs=5, learning_rate=0.05)
    np.testing.assert_allclose(
        params.as_vector(),
        [0.26884308874510904, 15.015396904347945, 0.7756604865785895,
         0.3509353926819637, 0.7974591421485444], rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        losses,
        [0.11272298574199549, 0.10572006620305918, 0.10166625881110536,
         0.09877040082854308, 0.0962514447604982], rtol=0, atol=1e-12)
