"""The names the benchmark wraps are the names the program calls.

perfbench times each window and layer by rebinding a name in the module
whose global lookup the program uses (``perfbench/worker.py``: ``OPERATIONS``
and ``LAYERS``).  If the program stops calling a layer through that name,
the traced run reads 0 for it and nothing else fails; this test does.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import worker  # noqa: E402
from mdatrack import pipeline, training  # noqa: E402
from mdatrack.affinity import (  # noqa: E402
    AffinityProviderParams,
    ConnectionGateConfig,
)
from mdatrack.evalio import ScenarioSpec, generate_scenario  # noqa: E402

EXPECTED = {
    "track": (pipeline, ["track_batch", "resolve_virtuals",
                         "generate_hypotheses", "compute_affinity",
                         "power_iteration_forward", "l1_normalize_forward",
                         "discretize"]),
    "train": (training, ["train_window", "generate_hypotheses",
                         "compute_affinity", "power_iteration_forward",
                         "l1_normalize_forward", "bce_loss",
                         "l1_normalize_backward", "power_iteration_backward",
                         "backprop_affinity"]),
}


def wrapped_names(kind):
    """(module, name) of the operation and of each layer, in table order."""
    module, attr, _ = worker.OPERATIONS[kind]
    return [(module, attr)] + [(m, a) for m, a, _ in worker.LAYERS[kind]]


def run(kind):
    scenario = generate_scenario(ScenarioSpec(
        frame_count=8, target_count=3, seed=0, noise_sigma=1.0,
        miss_probability=0.1, false_positive_rate=0.2))
    if kind == "track":
        pipeline.run_sequence(
            scenario.detection_frames, ConnectionGateConfig(),
            AffinityProviderParams(), pipeline.PipelineConfig(),
            pipeline.GroundTruthQuality(scenario.gt_tracks))
    else:
        training.train_provider(
            scenario.gt_frames, scenario.gt_frame_ids, ConnectionGateConfig(),
            AffinityProviderParams(), epochs=2)


@pytest.mark.parametrize("kind", sorted(EXPECTED))
def test_every_wrapped_name_is_called(kind, monkeypatch):
    module, names = EXPECTED[kind]
    assert wrapped_names(kind) == [(module, name) for name in names]
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counting(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    run(kind)
    assert [name for name, count in calls.items() if count == 0] == []
