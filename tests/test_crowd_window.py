"""The solver on a real 40-target tracking window: it equals the dense
restatement, and its memory follows the hypothesis count, not the size of
the dense pairwise tensor."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from dense_reference import assert_sparse_equals_dense
from mdatrack import pipeline
from mdatrack.affinity import AffinityProviderParams, ConnectionGateConfig
from mdatrack.evalio import ScenarioSpec, generate_scenario
from mdatrack.solver import power_iteration_forward


@pytest.fixture(scope="module")
def crowd_window():
    """(bundle, tensor, state) of the window with the most candidates while
    tracking 30 frames of a 40-target scene."""
    scenario = generate_scenario(ScenarioSpec(
        frame_count=30, target_count=40, seed=0, noise_sigma=1.0,
        miss_probability=0.1, false_positive_rate=0.2))
    windows = []
    compute, forward = pipeline.compute_affinity, pipeline.power_iteration_forward

    def record_bundle(*args, **kwargs):
        windows.append([compute(*args, **kwargs)])
        return windows[-1][0]

    def record_forward(tensor, *args, **kwargs):
        state = forward(tensor, *args, **kwargs)
        windows[-1] += [tensor, state]
        return state

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "compute_affinity", record_bundle)
        patch.setattr(pipeline, "power_iteration_forward", record_forward)
        pipeline.run_sequence(
            scenario.detection_frames, ConnectionGateConfig(),
            AffinityProviderParams(), pipeline.PipelineConfig(),
            pipeline.GroundTruthQuality(scenario.gt_tracks))
    solved = [w for w in windows if len(w) == 3]
    return max(solved, key=lambda w: sum(w[1].sizes))


def arrays(obj):
    """Every numpy array reachable through dataclass fields and sequences."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from arrays(getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from arrays(item)


def test_window_has_crowd_size(crowd_window):
    _, tensor, _ = crowd_window
    assert min(tensor.sizes) >= 40
    assert len(tensor.values) > 0


def test_sparse_equals_dense(crowd_window):
    _, tensor, _ = crowd_window
    assert_sparse_equals_dense(tensor, 10, np.random.default_rng(0))


def test_forward_peak_memory_stays_under_a_megabyte(crowd_window):
    _, tensor, _ = crowd_window
    tracemalloc.start()
    try:
        power_iteration_forward(tensor, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dense_bytes = 8 * int(np.prod(tensor.shape))
    assert dense_bytes > 20_000_000          # what the dense tensor would take
    assert peak < 1_000_000


def test_no_array_of_dense_size(crowd_window):
    # every array the window keeps is sized by the hypotheses or by the
    # stacked iterates (one vector per frame pair), never by the product of
    # the pairs
    bundle, tensor, state = crowd_window
    H, columns = tensor.entries.shape
    bound = max(H * columns, tensor.offsets[-1])
    kept = list(arrays(bundle)) + list(arrays(state))
    assert any(a is tensor.values for a in arrays(state))
    assert max(a.size for a in kept) <= bound < int(np.prod(tensor.shape)) // 100
