"""Training loop: ground-truth assignments, projection, convergence."""

import numpy as np
import pytest

from mdatrack.affinity import AffinityProviderParams, ConnectionGateConfig
from mdatrack.evalio import ScenarioSpec, generate_scenario
from mdatrack.training import (
    assignment_ground_truth,
    project_param_vector,
    train_provider,
)


class TestAssignmentGroundTruth:
    def test_matching_ids_give_ones(self):
        mats = assignment_ground_truth([[3, 5], [5, 3], [3]])
        np.testing.assert_array_equal(mats[0], [[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(mats[1], [[0.0], [1.0]])

    def test_disjoint_ids_give_zeros(self):
        mats = assignment_ground_truth([[1], [2], [3]])
        assert all(np.all(m == 0) for m in mats)

    def test_empty_frame_gives_empty_matrices(self):
        mats = assignment_ground_truth([[1, 2], [], [2]])
        assert [m.shape for m in mats] == [(2, 0), (0, 1)]
        assert all(m.dtype == float for m in mats)


class TestProjection:
    def test_negative_weights_clip_to_zero(self):
        vec = AffinityProviderParams().as_vector()
        vec[0] = -0.4          # motion_weight
        vec[2] = -1.0          # size_weight
        projected = project_param_vector(vec)
        assert projected[0] == 0.0
        assert projected[2] == 0.0
        # the projected vector always yields a constructible parameter set
        AffinityProviderParams.from_vector(projected)

    def test_position_scale_floor(self):
        vec = AffinityProviderParams().as_vector()
        vec[1] = -3.0          # an aggressive step through zero
        projected = project_param_vector(vec)
        assert projected[1] == pytest.approx(1e-3)
        assert AffinityProviderParams.from_vector(projected).position_scale > 0


class TestTrainProvider:
    def test_loss_decreases_on_small_scene(self):
        spec = ScenarioSpec(frame_count=15, target_count=4, seed=2)
        scenario = generate_scenario(spec)
        params, losses = train_provider(
            scenario.gt_frames, scenario.gt_frame_ids,
            ConnectionGateConfig(), AffinityProviderParams(),
            epochs=8, learning_rate=0.05)
        assert len(losses) == 8
        assert losses[-1] < losses[0]
        # the projection keeps every weight nonnegative
        assert np.all(params.as_vector() >= 0.0)
        assert params.position_scale > 0.0

    def test_zero_learning_rate_changes_nothing(self):
        spec = ScenarioSpec(frame_count=8, target_count=3, seed=3)
        scenario = generate_scenario(spec)
        before = AffinityProviderParams()
        params, losses = train_provider(
            scenario.gt_frames, scenario.gt_frame_ids,
            ConnectionGateConfig(), before, epochs=3, learning_rate=0.0)
        assert params == before
        assert len(set(losses)) == 1

    def test_degenerate_windows_are_skipped(self):
        spec = ScenarioSpec(frame_count=8, target_count=2, seed=4)
        scenario = generate_scenario(spec)
        frames = [list(f) for f in scenario.gt_frames]
        ids = [list(i) for i in scenario.gt_frame_ids]
        frames[4] = []   # an empty frame degenerates three windows
        ids[4] = []
        params, losses = train_provider(
            frames, ids, ConnectionGateConfig(), AffinityProviderParams(),
            epochs=2, learning_rate=0.01)
        assert len(losses) == 2
        assert all(np.isfinite(l) for l in losses)

    def test_training_is_deterministic(self):
        spec = ScenarioSpec(frame_count=10, target_count=3, seed=5)
        scenario = generate_scenario(spec)
        runs = []
        for _ in range(2):
            params, losses = train_provider(
                scenario.gt_frames, scenario.gt_frame_ids,
                ConnectionGateConfig(), AffinityProviderParams(),
                epochs=4, learning_rate=0.05)
            runs.append((params, tuple(losses)))
        assert runs[0] == runs[1]
