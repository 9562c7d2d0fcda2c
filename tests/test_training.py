"""Training loop: ground-truth assignments, projection, convergence."""

import math
import warnings

import numpy as np
import pytest

from mdatrack import training
from mdatrack.affinity import (
    AffinityProviderParams,
    ConnectionGateConfig,
    backprop_affinity,
    compute_affinity,
    generate_hypotheses,
)
from mdatrack.errors import ContractError, NumericError
from mdatrack.evalio import ScenarioSpec, generate_scenario
from mdatrack.solver import (
    bce_loss,
    l1_normalize_backward,
    l1_normalize_forward,
    power_iteration_backward,
    power_iteration_forward,
)
from mdatrack.training import (
    TrainingWindow,
    assignment_ground_truth,
    project_param_vector,
    train_provider,
    train_window,
)
from mdatrack.types import AssociationBatch, batch_windows


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

    def test_non_finite_gradient_names_its_window_and_layer(self):
        # no real scene is known to give a non-finite gradient, so each
        # backward layer in turn is made to return a NaN on every call
        scenario = generate_scenario(ScenarioSpec(
            frame_count=8, target_count=3, seed=0, **NOISE))
        for layer in ("l1_normalize_backward", "power_iteration_backward",
                      "backprop_affinity"):
            def poisoned(*args, _fn=getattr(training, layer), **kwargs):
                out = np.array(_fn(*args, **kwargs), dtype=float)
                out.flat[0] = np.nan
                return out

            with pytest.MonkeyPatch.context() as patch, pytest.raises(
                    NumericError,
                    match=r"^non-finite gradient on the window of frames "
                          rf"\(0, 1, 2\), first from {layer}$"):
                patch.setattr(training, layer, poisoned)
                train_provider(scenario.gt_frames, scenario.gt_frame_ids,
                               ConnectionGateConfig(),
                               AffinityProviderParams(), epochs=1)

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


def rebuilt_every_step(gt_frames, gt_frame_ids, gate, params, epochs,
                       learning_rate, power_iterations=10, norm_pairs=10):
    """The training loop restated without any reuse: every step builds the
    batch, its hypotheses, their affinity and the ground truth afresh."""
    losses = []
    for _ in range(epochs):
        epoch_losses = []
        for window in batch_windows(len(gt_frames)):
            batch = AssociationBatch(
                frames=tuple(window),
                candidates=tuple(tuple(gt_frames[f]) for f in window))
            hypotheses = generate_hypotheses(batch, gate)
            if len(hypotheses) == 0:
                continue
            bundle = compute_affinity(batch, hypotheses, params)
            if bundle.tensor.values.max() <= 0.0:
                continue
            power_state = power_iteration_forward(bundle.tensor,
                                                  power_iterations)
            norm_state = l1_normalize_forward(power_state.log_pairs(),
                                              norm_pairs)
            target = assignment_ground_truth([gt_frame_ids[f] for f in window])
            loss, d_pred = bce_loss(norm_state.matrices(), target)
            d_values = power_iteration_backward(
                power_state, l1_normalize_backward(norm_state, d_pred))
            grads = backprop_affinity(bundle, d_values)
            params = AffinityProviderParams.from_vector(project_param_vector(
                params.as_vector() - learning_rate * grads))
            epoch_losses.append(loss)
        losses.append(float(np.mean(epoch_losses)) if epoch_losses else 0.0)
    return params, losses


NOISE = {"noise_sigma": 1.0, "miss_probability": 0.1,
         "false_positive_rate": 0.2}
WIDE_GATE = ConnectionGateConfig(base_distance_factor=4.0)
OFF_DEFAULT = AffinityProviderParams(motion_weight=0.3, position_scale=15.0,
                                     size_weight=1.0, appearance_weight=0.3,
                                     long_term_weight=0.5)


class TestTrainWorkloadCheck:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_loss_curve_ends_at_or_below_epoch_0(self, seed):
        # the benchmark's train workload: 3-target ground truth, 30 frames,
        # 5 epochs, default gate and parameters; its run is incorrect when
        # the parameters or the loss curve are non-finite, or when the last
        # epoch's loss is above epoch 0's
        scenario = generate_scenario(ScenarioSpec(
            frame_count=30, target_count=3, seed=seed, **NOISE))
        params, losses = train_provider(
            scenario.gt_frames, scenario.gt_frame_ids, ConnectionGateConfig(),
            AffinityProviderParams(), epochs=5)
        assert np.all(np.isfinite(params.as_vector()))
        assert len(losses) == 5 and np.all(np.isfinite(losses))
        assert losses[-1] <= losses[0]


class TestCrowdTraining:
    @pytest.mark.parametrize("targets", [10, 20])
    def test_training_finishes_on_every_seed(self, targets):
        # 30 noisy frames of 10 or 20 targets, seeds 0-19, 5 epochs, default
        # gate and parameters: every run ends with finite parameters and
        # losses, without a NumericError (or, as the suite runs, a numpy
        # floating-point warning)
        failures = []
        for seed in range(20):
            scenario = generate_scenario(ScenarioSpec(
                frame_count=30, target_count=targets, seed=seed, **NOISE))
            try:
                params, losses = train_provider(
                    scenario.gt_frames, scenario.gt_frame_ids,
                    ConnectionGateConfig(), AffinityProviderParams(),
                    epochs=5)
            except NumericError as error:
                failures.append((seed, str(error)))
                continue
            if not (np.isfinite(params.as_vector()).all()
                    and np.isfinite(losses).all()):
                failures.append((seed, "non-finite output"))
        assert failures == []


def scene_with_empty_frame():
    scenario = generate_scenario(ScenarioSpec(frame_count=8, target_count=3,
                                              seed=0, **NOISE))
    frames = [list(f) for f in scenario.gt_frames]
    ids = [list(i) for i in scenario.gt_frame_ids]
    frames[4], ids[4] = [], []       # three windows without hypotheses
    return frames, ids


class TestWindowReuse:
    @pytest.mark.parametrize("case", ["default gate", "wide gate",
                                      "empty frame"])
    def test_matches_rebuilding_every_step(self, case):
        if case == "empty frame":
            frames, ids = scene_with_empty_frame()
            gate, start = WIDE_GATE, OFF_DEFAULT
        else:
            scenario = generate_scenario(ScenarioSpec(
                frame_count=12, target_count=3, seed=0, **NOISE))
            frames, ids = scenario.gt_frames, scenario.gt_frame_ids
            gate, start = ((ConnectionGateConfig(), AffinityProviderParams())
                           if case == "default gate" else (WIDE_GATE, OFF_DEFAULT))
        expected = rebuilt_every_step(frames, ids, gate, start, epochs=4,
                                      learning_rate=0.05)
        params, losses = train_provider(frames, ids, gate, start, epochs=4,
                                        learning_rate=0.05)
        assert np.array_equal(params.as_vector(), expected[0].as_vector())
        assert np.array_equal(losses, expected[1])
        if case != "default gate":
            assert params != start       # the steps did move the parameters

    @pytest.mark.parametrize("empty_frame", [False, True])
    def test_front_end_runs_once_per_window(self, monkeypatch, empty_frame):
        if empty_frame:
            frames, ids = scene_with_empty_frame()
        else:
            scenario = generate_scenario(ScenarioSpec(
                frame_count=9, target_count=3, seed=1, **NOISE))
            frames, ids = scenario.gt_frames, scenario.gt_frame_ids
        calls = {"generate_hypotheses": [], "compute_affinity": [],
                 "power_iteration_forward": []}
        for name, record in calls.items():
            def counted(*args, _fn=getattr(training, name), _record=record,
                        **kwargs):
                result = _fn(*args, **kwargs)
                _record.append(result)
                return result
            monkeypatch.setattr(training, name, counted)
        epochs, windows = 3, len(frames) - 2
        train_provider(frames, ids, WIDE_GATE, OFF_DEFAULT, epochs=epochs,
                       learning_rate=0.05)
        with_hypotheses = sum(
            len(h) > 0 for h in calls["generate_hypotheses"])
        assert len(calls["generate_hypotheses"]) == windows
        assert len(calls["compute_affinity"]) == with_hypotheses
        assert len(calls["power_iteration_forward"]) == epochs * with_hypotheses
        assert with_hypotheses == (windows - 3 if empty_frame else windows)

    def test_parameters_decide_degeneracy_on_every_step(self):
        scenario = generate_scenario(ScenarioSpec(
            frame_count=3, target_count=3, seed=0, **NOISE))
        zero = AffinityProviderParams(motion_weight=0.0, size_weight=0.0,
                                      appearance_weight=0.0,
                                      long_term_weight=0.0)
        for first in (AffinityProviderParams(), zero):
            window = TrainingWindow(
                frames=(0, 1, 2),
                candidates=tuple(map(tuple, scenario.gt_frames)),
                ids=tuple(map(tuple, scenario.gt_frame_ids)),
                gate=ConnectionGateConfig())
            steps = [train_window(window, p, 10, 10, 0.05)
                     for p in (first, zero, AffinityProviderParams())]
            assert steps[1] is None
            assert steps[2] is not None
            assert (steps[0] is None) == (first is zero)

    def test_kept_bundle_is_never_rescored_in_place(self):
        scenario = generate_scenario(ScenarioSpec(
            frame_count=3, target_count=3, seed=0, **NOISE))
        window = TrainingWindow(
            frames=(0, 1, 2), candidates=tuple(map(tuple, scenario.gt_frames)),
            ids=tuple(map(tuple, scenario.gt_frame_ids)), gate=WIDE_GATE)
        first = window.scored(AffinityProviderParams())
        values = first.tensor.values.copy()
        later = window.scored(OFF_DEFAULT)
        assert window.bundle is first
        assert first.params == AffinityProviderParams()
        assert np.array_equal(first.tensor.values, values)
        assert later.params == OFF_DEFAULT
        assert later.tensor.order is first.tensor.order


class TestArguments:
    @pytest.mark.parametrize("name, value", [
        ("epochs", 0), ("epochs", -1), ("epochs", math.nan),
        ("learning_rate", math.nan), ("learning_rate", math.inf),
        ("learning_rate", -0.01),
        ("power_iterations", 0), ("norm_pairs", -1),
    ])
    def test_bad_argument_rejected_before_any_window(self, monkeypatch,
                                                     name, value):
        def no_window(*args, **kwargs):
            raise AssertionError("a window ran")

        monkeypatch.setattr(training, "train_window", no_window)
        scenario = generate_scenario(ScenarioSpec(frame_count=6,
                                                  target_count=2, seed=0))
        with pytest.raises(ContractError, match=name):
            train_provider(scenario.gt_frames, scenario.gt_frame_ids,
                           ConnectionGateConfig(), AffinityProviderParams(),
                           **{name: value})

    @pytest.mark.parametrize("frame_count", [1, 2])
    def test_scene_without_a_window_rejected(self, frame_count):
        # reported once, by the error alone: the schedule's short-sequence
        # warning is never reached
        scenario = generate_scenario(ScenarioSpec(frame_count=frame_count,
                                                  target_count=2, seed=0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match="3 frames"):
                train_provider(scenario.gt_frames, scenario.gt_frame_ids,
                               ConnectionGateConfig(), AffinityProviderParams())


def permuted(frames, ids, seed):
    """Each frame's candidates and ids under the same permutation, one
    fixed permutation per frame."""
    rng = np.random.default_rng(seed)
    orders = [rng.permutation(len(cands)) for cands in frames]
    return ([[cands[i] for i in order] for cands, order in zip(frames, orders)],
            [[tids[i] for i in order] for tids, order in zip(ids, orders)])


class TestCandidateOrder:
    @pytest.mark.parametrize("targets, seed",
                             [(3, s) for s in range(4)] + [(10, s) for s in range(3)])
    def test_training_ignores_candidate_order(self, targets, seed):
        scenario = generate_scenario(ScenarioSpec(
            frame_count=30, target_count=targets, seed=seed, noise_sigma=1.0,
            miss_probability=0.1, false_positive_rate=0.2))

        def trained(frames, ids):
            params, losses = train_provider(
                frames, ids, ConnectionGateConfig(), AffinityProviderParams(),
                epochs=5)
            return np.concatenate([params.as_vector(), losses])

        expected = trained(scenario.gt_frames, scenario.gt_frame_ids)
        for k in range(3):
            np.testing.assert_allclose(
                trained(*permuted(scenario.gt_frames, scenario.gt_frame_ids, k)),
                expected, rtol=1e-12, atol=0)
