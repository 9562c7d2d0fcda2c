"""The stacked log-domain solver equals the per-mode restatement in
``solver_reference.py`` bit for bit: log iterates, log slices, contraction
constants and value gradient of the power iteration, and the stages,
normalized matrices, exemptions and input-log gradient of the l1
normalization, on the power iteration's own log matrices and on dense
matrices, including lines long enough for numpy to sum them pairwise."""

import numpy as np
import pytest

import solver_reference as ref
from dense_reference import random_solver_instance
from mdatrack import pipeline
from mdatrack.affinity import AffinityProviderParams, ConnectionGateConfig
from mdatrack.evalio import ScenarioSpec, generate_scenario
from mdatrack.solver import (
    HypothesisTensor,
    l1_normalize_backward,
    l1_normalize_forward,
    power_iteration_backward,
    power_iteration_forward,
)


def assert_equal_lists(actual, reference):
    assert len(actual) == len(reference)
    for a, b in zip(actual, reference):
        assert np.array_equal(a, b, equal_nan=True)


def stacked(arrays):
    """Per-pair arrays raveled end to end, as the solver stacks them."""
    return np.concatenate([np.empty(0)] + [np.ravel(a) for a in arrays])


def assert_power_matches(tensor, iterations, rng, x0=None):
    state = power_iteration_forward(tensor, iterations, x0=x0)
    expected = ref.power_iteration_forward(tensor, iterations, x0=x0)
    assert state.contraction_history == expected.contraction_history
    assert_equal_lists(state.log_iterates,
                       [stacked(y) for y in expected.iterate_history])
    assert_equal_lists(state.log_slices,
                       [stacked(s) for s in expected.slice_history])
    assert_equal_lists(state.matrices(), expected.matrices())

    d_log = rng.normal(size=len(tensor.support))
    d_values = power_iteration_backward(state, d_log)
    assert np.array_equal(d_values,
                          ref.power_iteration_backward(expected, d_log))
    assert np.isfinite(d_values).all()
    return state


def assert_norm_matches(state, expected, pairs, rng):
    assert_equal_lists(state.matrices(), expected.matrices())
    assert state.skipped_lines == expected.skipped_lines
    assert len(state.stages) - 1 == len(expected.norm_history)
    for s, reference in enumerate(expected.norm_history):
        axis = ("row", "col")[s % 2]
        assert axis == reference.axis
        assert np.array_equal(state.stages[s], stacked(reference.pre),
                              equal_nan=True)
        applied = np.ones(len(state.support.line[axis]), dtype=bool)
        applied[state.exempt[axis]] = False
        assert np.array_equal(applied, stacked(reference.applied))

    w = [rng.normal(size=m.shape) for m in state.matrices()]
    d_log = l1_normalize_backward(state, w)
    assert np.array_equal(d_log,
                          stacked(ref.l1_normalize_backward(expected, w)))
    assert np.isfinite(d_log).all()


def assert_power_norm_matches(power, pairs, rng, virtual=False, first=0):
    """The normalization of the power iteration's log matrices, pairs
    ``first`` onward."""
    expected_power = ref.power_iteration_forward(
        power.tensor, len(power.contraction_history))
    state = l1_normalize_forward(power.log_pairs(first), pairs, virtual=virtual)
    expected = ref.l1_normalize_forward(
        expected_power.shapes[first:], expected_power.supports[first:],
        expected_power.x[first:], pairs, virtual)
    assert_norm_matches(state, expected, pairs, rng)


def assert_dense_norm_matches(matrices, pairs, rng, virtual=False):
    state = l1_normalize_forward(matrices, pairs, virtual=virtual)
    expected = ref.l1_normalize_dense(matrices, pairs, virtual)
    assert_norm_matches(state, expected, pairs, rng)


def random_tensor(rng, K):
    """A random hypothesis list over K+1 frames of 1-4 candidates, about
    half of all tuples, with some exact zeros among the values."""
    sizes = tuple(int(s) for s in rng.integers(1, 5, size=K + 1))
    tuples = np.stack(np.unravel_index(np.arange(np.prod(sizes)), sizes), axis=1)
    keep = rng.uniform(size=len(tuples)) < 0.5
    keep[rng.integers(len(tuples))] = True
    entries = tuples[keep]
    values = rng.uniform(0.0, 1.0, size=len(entries))
    values[rng.uniform(size=len(entries)) < 0.1] = 0.0
    values[rng.integers(len(entries))] = 1.0
    return HypothesisTensor(entries, values, sizes)


@pytest.mark.parametrize("K", [2, 3, 4])
@pytest.mark.parametrize("seed", range(20))
def test_random_tensors(K, seed):
    rng = np.random.default_rng(1000 * K + seed)
    tensor = random_tensor(rng, K)
    iterations = int(rng.integers(1, 6))
    x0 = ([rng.uniform(0.1, 1.0, size=d) for d in tensor.shape]
          if seed % 2 else None)
    state = assert_power_matches(tensor, iterations, rng, x0=x0)
    pairs = int(rng.integers(0, 4))
    if x0 is None:
        assert_power_norm_matches(state, pairs, rng, first=seed % K)
    assert_dense_norm_matches(state.matrices(), pairs, rng)


@pytest.mark.parametrize("seed", range(50))
def test_check_instances(seed):
    # the instances and iteration counts of the check suite's
    # power-iteration gradient check
    rng = np.random.default_rng(seed)
    tensor = random_solver_instance(rng)
    iterations = int(rng.integers(1, 4))
    assert_power_matches(tensor, iterations, rng)


@pytest.mark.parametrize("seed", range(10))
def test_masked_matrices_with_zero_lines(seed):
    rng = np.random.default_rng(seed)
    shapes = [tuple(int(s) for s in rng.integers(2, 7, size=2))
              for _ in range(2)]
    matrices = [rng.uniform(0.0, 1.0, size=shape) for shape in shapes]
    matrices[0][int(rng.integers(shapes[0][0] - 1))] = 0.0
    matrices[1][:, int(rng.integers(shapes[1][1] - 1))] = 0.0
    assert_dense_norm_matches(matrices, int(rng.integers(1, 11)), rng,
                              virtual=seed % 2 == 0)


@pytest.mark.parametrize("sizes", [
    (1, 9, 1), (9, 1, 12), (8, 10, 9),      # K = 2
    (1, 9, 9, 1), (10, 1, 8, 11),           # K = 3
])
@pytest.mark.parametrize("seed", range(8))
def test_long_lines(sizes, seed):
    # pairs shaped (1, >=8), (>=8, 1) and (>=8, >=8): numpy adds the rest
    # of a segment of eight or more entries pairwise, a row of a wide matrix
    # as much as the column of a one-column matrix, so a line sum that adds
    # sequentially rounds differently here, in the backward pass's inner
    # products with a random gradient; the forward's log sums run
    # sequentially either way.  Each window runs without and with virtual
    # slots
    rng = np.random.default_rng(100 * len(sizes) + seed)
    matrices = [rng.uniform(0.0, 1.0, size=shape)
                for shape in zip(sizes, sizes[1:])]
    for m in matrices:
        rows, cols = m.shape
        # zero-at-entry lines other than the virtual ones
        if rows > 1:
            m[int(rng.integers(rows - 1))] = 0.0
        if cols > 1:
            m[:, int(rng.integers(cols - 1))] = 0.0
    pairs = int(rng.integers(1, 6))
    for virtual in (False, True):
        assert_dense_norm_matches(matrices, pairs, rng, virtual=virtual)


@pytest.fixture(scope="module")
def crowd_tensors():
    """The tensor of every solved window while tracking 30 frames of a
    40-target scene."""
    scenario = generate_scenario(ScenarioSpec(
        frame_count=30, target_count=40, seed=0, noise_sigma=1.0,
        miss_probability=0.1, false_positive_rate=0.2))
    tensors = []
    forward = pipeline.power_iteration_forward

    def record_forward(tensor, *args, **kwargs):
        tensors.append(tensor)
        return forward(tensor, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "power_iteration_forward", record_forward)
        pipeline.run_sequence(
            scenario.detection_frames, ConnectionGateConfig(),
            AffinityProviderParams(), pipeline.PipelineConfig(),
            pipeline.GroundTruthQuality(scenario.gt_tracks))
    return tensors


def test_crowd_windows(crowd_tensors):
    config = pipeline.PipelineConfig()
    rng = np.random.default_rng(0)
    assert len(crowd_tensors) > 20
    for tensor in crowd_tensors:
        state = assert_power_matches(tensor, config.power_iterations, rng)
        for first in (0, 1):
            assert_power_norm_matches(state, config.norm_pairs, rng,
                                      virtual=True, first=first)


def test_huge_entries_normalize_without_overflow():
    # row 0 sums past the largest float, but its log sum is finite: the
    # row steps scale it like any other row
    matrix = np.array([[1e308, 1e308], [1.0, 1.0]])
    out = l1_normalize_forward([matrix], 2).matrices()[0]
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out.sum(axis=0), 1.0, rtol=1e-12)
    # nor does the backward pass, which never forms the sum
    assert_dense_norm_matches([matrix], 2, np.random.default_rng(0))


def test_extreme_initial_vector_stays_finite():
    # in linear form pair 1's slice overflows from this start; as logs every
    # iterate stays finite on the support and each pair's vector sums to one
    tensor = HypothesisTensor(np.array([[0, 0, 0], [0, 0, 1], [1, 1, 0]]),
                              np.array([1e10, 1.0, 1.0]), (2, 2, 2))
    x0 = [np.array([1e300, 1e-300, 1e-300, 1e-300]), np.full(4, 1e-300)]
    state = assert_power_matches(tensor, 1, np.random.default_rng(0), x0=x0)
    assert np.all(np.isfinite(state.log_iterates[-1]))
    for vector in state.x:
        assert vector.sum() == pytest.approx(1.0, rel=1e-12)
