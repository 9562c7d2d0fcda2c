"""What the log-domain solver keeps at crowd sizes: every real row that a
hypothesis reaches keeps mass after the normalization, and tracking
accuracy at 40 and 100 targets stays within bounds frozen from the first
run of the log-domain solver (seeds 0-2, none left out)."""

import numpy as np
import pytest

from mdatrack import pipeline
from mdatrack.affinity import AffinityProviderParams, ConnectionGateConfig
from mdatrack.evalio import ScenarioSpec, clear_mot, generate_scenario

NOISE = {"noise_sigma": 1.0, "miss_probability": 0.1,
         "false_positive_rate": 0.2}


def track(target_count, frame_count, seed):
    scenario = generate_scenario(ScenarioSpec(
        frame_count=frame_count, target_count=target_count, seed=seed,
        **NOISE))
    tracks = pipeline.run_sequence(
        scenario.detection_frames, ConnectionGateConfig(),
        AffinityProviderParams(), pipeline.PipelineConfig(),
        pipeline.GroundTruthQuality(scenario.gt_tracks))
    return clear_mot(scenario.gt_tracks, {t.id: t.boxes for t in tracks})


def test_real_rows_keep_mass_on_the_crowd_scene():
    # the 40-target, seed-0, 30-frame scene; a solver whose weak entries
    # underflow leaves such rows with no mass over the real columns
    scenario = generate_scenario(ScenarioSpec(
        frame_count=30, target_count=40, seed=0, **NOISE))
    windows = []
    compute, normalize = pipeline.compute_affinity, pipeline.l1_normalize_forward

    def record_bundle(*args, **kwargs):
        windows.append([compute(*args, **kwargs)])
        return windows[-1][0]

    def record_normalization(*args, **kwargs):
        state = normalize(*args, **kwargs)
        windows[-1].append(state)
        return state

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "compute_affinity", record_bundle)
        patch.setattr(pipeline, "l1_normalize_forward", record_normalization)
        pipeline.run_sequence(
            scenario.detection_frames, ConnectionGateConfig(),
            AffinityProviderParams(), pipeline.PipelineConfig(),
            pipeline.GroundTruthQuality(scenario.gt_tracks))

    masses = []
    for bundle, state in (w for w in windows if len(w) == 2):
        entries, sizes = bundle.tensor.entries, bundle.tensor.sizes
        matrices = state.matrices()
        # a later window normalizes its last pair only
        for k, m in enumerate(matrices, start=len(sizes) - 1 - len(matrices)):
            # every frame's last slot is its virtual one
            real = ((entries[:, k] < sizes[k] - 1)
                    & (entries[:, k + 1] < sizes[k + 1] - 1))
            masses.append(m[np.unique(entries[real, k]), :-1].sum(axis=1))
    masses = np.concatenate(masses)
    assert len(masses) > 1000
    assert np.count_nonzero(masses == 0.0) == 0
    assert masses.min() > 1e-3


@pytest.mark.parametrize("seed, bound", [(0, 8), (1, 11), (2, 16)])
def test_crowd_id_switches_stay_bounded(seed, bound):
    # 40 targets, 30 frames
    assert track(40, 30, seed).id_switches <= bound


@pytest.mark.parametrize("seed, bound", [
    (0, 0.9066666666666666), (1, 0.9358333333333333), (2, 0.9325)])
def test_hundred_target_mota_stays_bounded(seed, bound):
    # 100 targets, 12 frames
    assert track(100, 12, seed).mota >= bound
