"""The stacked solver equals the per-mode restatement in
``solver_reference.py`` bit for bit: iterates, slices, contraction
constants, both gradients of the power iteration, and the normalized
matrices, divisors, exemptions and gradients of the l1 normalization,
including on matrices whose lines are long enough for numpy to sum them
pairwise."""

import numpy as np
import pytest

import solver_reference as ref
from mdatrack import pipeline
from mdatrack.affinity import AffinityProviderParams, ConnectionGateConfig
from mdatrack.checks import random_solver_instance
from mdatrack.errors import DegenerateInputError, NumericError
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


def assert_power_matches(tensor, iterations, rng, x0=None):
    state = power_iteration_forward(tensor, iterations, x0=x0)
    expected = ref.power_iteration_forward(tensor, iterations, x0=x0)
    assert state.contraction_history == expected.contraction_history
    for actual, reference in zip(state.iterate_history,
                                 expected.iterate_history, strict=True):
        assert_equal_lists(actual, reference)
    for actual, reference in zip(state.slice_history,
                                 expected.slice_history, strict=True):
        assert_equal_lists(actual, reference)
    assert_equal_lists(state.x, expected.x)

    w = [rng.normal(size=d) for d in tensor.shape]
    d_values, d_x0 = power_iteration_backward(state, w)
    expected_values, expected_x0 = ref.power_iteration_backward(expected, w)
    assert np.array_equal(d_values, expected_values, equal_nan=True)
    assert_equal_lists(d_x0, expected_x0)
    return state


def assert_norm_matches(matrices, pairs, rng, virtual_rows=None,
                        virtual_cols=None):
    state = l1_normalize_forward(matrices, pairs, virtual_rows, virtual_cols)
    expected = ref.l1_normalize_forward(matrices, pairs, virtual_rows,
                                        virtual_cols)
    assert_equal_lists(state.matrices(), expected.matrices())
    assert state.skipped_lines == expected.skipped_lines
    assert len(state.norm_history) == len(expected.norm_history)
    for step, reference in zip(state.norm_history, expected.norm_history):
        assert step.axis == reference.axis
        assert_equal_lists(step.pre, reference.pre)
        assert_equal_lists(step.divisors, reference.divisors)
        assert_equal_lists(step.applied, reference.applied)

    w = [rng.normal(size=m.shape) for m in state.matrices()]
    assert_equal_lists(l1_normalize_backward(state, w),
                       ref.l1_normalize_backward(expected, w))


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
    assert_norm_matches(state.matrices(), int(rng.integers(0, 4)), rng)


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
    assert_norm_matches(matrices, int(rng.integers(1, 11)), rng,
                        [True, seed % 2 == 0], [True, seed % 3 == 0])


@pytest.mark.parametrize("sizes", [
    (1, 9, 1), (9, 1, 12), (8, 10, 9),      # K = 2
    (1, 9, 9, 1), (10, 1, 8, 11),           # K = 3
])
@pytest.mark.parametrize("seed", range(8))
def test_long_lines(sizes, seed):
    # pairs shaped (1, >=8), (>=8, 1) and (>=8, >=8): numpy sums a line of
    # eight or more entries pairwise, a row of a wide matrix as much as the
    # column of a one-column matrix, so a line sum that adds sequentially
    # (one bincount for all pairs) rounds differently here.  Normalizing a
    # one-entry line makes it exactly 1 and cuts its gradient, so a
    # one-column pair gets a virtual last row and a one-row pair a virtual
    # last column, whose values the long line then sums and passes back
    rng = np.random.default_rng(100 * len(sizes) + seed)
    matrices = [rng.uniform(0.0, 1.0, size=shape)
                for shape in zip(sizes, sizes[1:])]
    virtual_rows, virtual_cols = [], []
    for m in matrices:
        rows, cols = m.shape
        virtual_rows.append(cols == 1 or (rows > 1 and bool(rng.integers(2))))
        virtual_cols.append(rows == 1 or (cols > 1 and bool(rng.integers(2))))
        # zero-at-entry lines other than the virtual ones
        if rows > 1:
            m[int(rng.integers(rows - 1))] = 0.0
        if cols > 1:
            m[:, int(rng.integers(cols - 1))] = 0.0
    assert_norm_matches(matrices, int(rng.integers(1, 6)), rng,
                        virtual_rows, virtual_cols)


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
    # real rows that lose all mass make some random-gradient backward
    # passes overflow; both solvers must then agree on the non-finite values
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for tensor in crowd_tensors:
            state = assert_power_matches(tensor, config.power_iterations, rng)
            assert_norm_matches(state.matrices(), config.norm_pairs, rng,
                                [True, True], [True, True])


def test_row_sum_overflow_loses_all_mass():
    # row 0 sums to inf, so the first row step zeroes it; the second row
    # step then finds it empty
    matrix = np.array([[1e308, 1e308], [1.0, 1.0]])
    with np.errstate(over="ignore"), pytest.raises(
            DegenerateInputError,
            match=r"^pair 0: row 0 lost all mass during normalization$"):
        l1_normalize_forward([matrix], 2)


def test_overflowing_slice_names_its_pair():
    # the contraction stays finite while pair 1's slice overflows, so the
    # error maps the first non-finite stacked position back to pair 1
    tensor = HypothesisTensor(np.array([[0, 0, 0], [0, 0, 1], [1, 1, 0]]),
                              np.array([1e10, 1.0, 1.0]), (2, 2, 2))
    x0 = [np.array([1e300, 1e-300, 1e-300, 1e-300]), np.full(4, 1e-300)]
    with np.errstate(over="ignore"), pytest.raises(
            NumericError, match=r"^non-finite iterate for pair 1 at iteration 0$"):
        power_iteration_forward(tensor, 1, x0=x0)
