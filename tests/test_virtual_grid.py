"""Virtual candidates sit exactly where the per-anchor restatement of the
constant-velocity placement puts them, on a real crowd run and on
edge-case windows."""

import numpy as np
import pytest

from mdatrack import pipeline
from mdatrack.affinity import AffinityProviderParams, ConnectionGateConfig
from mdatrack.evalio import ScenarioSpec, generate_scenario
from mdatrack.pipeline import resolve_virtuals
from mdatrack.types import AssociationBatch, Candidate
from virtual_reference import resolve_virtuals_reference


def assert_same_centers(batch, velocities):
    got = resolve_virtuals(batch, velocities)
    want = resolve_virtuals_reference(batch, velocities)
    assert sorted(got) == sorted(want)
    for pos in want:
        # exact equality; NaN marks the virtual anchor slot in both
        assert np.array_equal(got[pos], want[pos], equal_nan=True)
    return got


@pytest.fixture(scope="module")
def crowd_calls():
    """(batch, velocities) of every window of a 40-target, 30-frame run."""
    scenario = generate_scenario(ScenarioSpec(
        frame_count=30, target_count=40, seed=0, noise_sigma=1.0,
        miss_probability=0.1, false_positive_rate=0.2))
    calls = []
    resolve = pipeline.resolve_virtuals

    def record(batch, velocities):
        calls.append((batch, dict(velocities)))
        return resolve(batch, velocities)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "resolve_virtuals", record)
        pipeline.run_sequence(
            scenario.detection_frames, ConnectionGateConfig(),
            AffinityProviderParams(), pipeline.PipelineConfig(),
            pipeline.GroundTruthQuality(scenario.gt_tracks))
    return calls


def test_crowd_run_resolves_the_same_centers(crowd_calls):
    assert len(crowd_calls) == 28
    assert max(len(b.candidates[1]) for b, _ in crowd_calls) > 40
    assert any(v for _, v in crowd_calls)          # moving anchors too
    for batch, velocities in crowd_calls:
        assert_same_centers(batch, velocities)


def cand(frame, cx, cy, w, h, appearance):
    return Candidate(frame_index=frame, center=(cx, cy),
                     box=(cx - w / 2, cy - h / 2, w, h), score=1.0,
                     appearance=np.asarray(appearance, dtype=float))


def window(per_frame):
    return AssociationBatch(frames=(0, 1, 2),
                            candidates=tuple(tuple(f) for f in per_frame),
                            virtual=True)


def random_window(rng, counts, appearance):
    return [[cand(f, *rng.uniform(50, 150, 2), rng.uniform(15, 30),
                  rng.uniform(15, 30), appearance(f))
             for _ in range(n)] for f, n in enumerate(counts)]


@pytest.mark.parametrize("seed", range(20))
def test_random_windows_resolve_the_same_centers(seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 6, 3)
    counts[1] = max(counts[1], 1)
    per_frame = random_window(rng, counts, lambda f: rng.normal(size=8))
    velocities = {slot: tuple(rng.uniform(-8, 8, 2))
                  for slot in range(counts[1]) if rng.uniform() < 0.6}
    assert_same_centers(window(per_frame), velocities)


def test_frame_without_detections_resolves_on_the_prior():
    rng = np.random.default_rng(1)
    per_frame = random_window(rng, (3, 4, 0), lambda f: rng.normal(size=8))
    velocities = {0: (4.0, -2.0), 2: (-3.0, 1.5)}
    got = assert_same_centers(window(per_frame), velocities)
    for slot, anchor in enumerate(per_frame[1]):
        vx, vy = velocities.get(slot, (0.0, 0.0))
        assert tuple(got[2][slot]) == (anchor.center[0] + vx,
                                       anchor.center[1] + vy)


def test_opposite_descriptors_resolve_on_the_extrapolation():
    # detections that look nothing like their anchor leave it on its
    # extrapolation, as every other detection does
    rng = np.random.default_rng(2)
    appearance = rng.normal(size=8)
    per_frame = random_window(
        rng, (4, 5, 4), lambda f: -appearance if f != 1 else appearance)
    velocities = {slot: tuple(rng.uniform(-5, 5, 2)) for slot in range(5)}
    got = assert_same_centers(window(per_frame), velocities)
    for slot, anchor in enumerate(per_frame[1]):
        vx, vy = velocities[slot]
        for pos, dt in ((0, -1.0), (2, 1.0)):
            assert tuple(got[pos][slot]) == (anchor.center[0] + vx * dt,
                                             anchor.center[1] + vy * dt)


def test_single_anchor():
    rng = np.random.default_rng(4)
    for _ in range(10):
        per_frame = random_window(rng, (4, 1, 4), lambda f: rng.normal(size=8))
        assert_same_centers(window(per_frame),
                            {0: tuple(rng.uniform(-5, 5, 2))})
