"""The in-house matcher against scipy's ``linear_sum_assignment``, which
stays the tests' reference: the same row and column indices on every
input, ties included."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment as scipy_assignment

from mdatrack import pipeline, solver
from mdatrack.affinity import AffinityProviderParams, ConnectionGateConfig
from mdatrack.assignment import linear_sum_assignment
from mdatrack.errors import ContractError, NumericError
from mdatrack.evalio import ScenarioSpec, generate_scenario

SRC = Path(__file__).resolve().parents[1] / "src"


def assert_matches_scipy(cost):
    rows, cols = linear_sum_assignment(cost)
    expected_rows, expected_cols = scipy_assignment(cost)
    assert np.array_equal(rows, expected_rows), cost
    assert np.array_equal(cols, expected_cols), cost
    assert rows.dtype.kind == cols.dtype.kind == "i"


def random_matrices(kind, rng, count=400, largest=9):
    for _ in range(count):
        shape = tuple(rng.integers(1, largest, 2))
        values = rng.random(shape)
        if kind == "float":
            yield values
        elif kind == "small-integer":
            yield rng.integers(0, 4, shape).astype(float)
        elif kind == "zero-heavy":
            yield values * (rng.random(shape) < 0.2)
        elif kind == "all-zero":
            yield np.zeros(shape)
        elif kind == "signed-zero":
            # what discretize hands over: negated weights, mostly -0.0
            yield -(values * (rng.random(shape) < 0.3))
        elif kind == "tiny":
            yield rng.integers(-2, 3, shape) * 1e-300


KINDS = ["float", "small-integer", "zero-heavy", "all-zero", "signed-zero",
         "tiny"]


@pytest.mark.parametrize("kind", KINDS)
def test_random_matrices_match_scipy(kind):
    rng = np.random.default_rng(KINDS.index(kind))
    for cost in random_matrices(kind, rng):
        assert_matches_scipy(cost)


@pytest.mark.parametrize("kind", ["float", "small-integer", "signed-zero"])
def test_crowd_sized_matrices_match_scipy(kind):
    rng = np.random.default_rng(20 + KINDS.index(kind))
    for cost in random_matrices(kind, rng, count=60, largest=50):
        assert_matches_scipy(cost)


@pytest.mark.parametrize("shape", [(3, 7), (7, 3), (1, 6), (6, 1), (1, 1),
                                   (0, 5), (5, 0), (0, 0)])
def test_every_shape_matches_scipy(shape):
    rng = np.random.default_rng(sum(shape))
    for cost in (rng.random(shape), np.zeros(shape),
                 rng.integers(0, 2, shape).astype(float)):
        assert_matches_scipy(cost)
    rows, cols = linear_sum_assignment(np.zeros(shape))
    assert len(rows) == len(cols) == min(shape)


@pytest.mark.parametrize("targets, frames", [(40, 8), (10, 30)])
def test_every_discretize_input_of_a_scene_matches_scipy(targets, frames,
                                                         monkeypatch):
    scenario = generate_scenario(ScenarioSpec(
        frame_count=frames, target_count=targets, seed=0, noise_sigma=1.0,
        miss_probability=0.1, false_positive_rate=0.2))
    costs = []

    def checked(cost):
        costs.append(cost)
        assert_matches_scipy(cost)
        return linear_sum_assignment(cost)

    monkeypatch.setattr(solver, "linear_sum_assignment", checked)
    pipeline.run_sequence(
        scenario.detection_frames, ConnectionGateConfig(),
        AffinityProviderParams(), pipeline.PipelineConfig(),
        pipeline.GroundTruthQuality(scenario.gt_tracks))
    # one call per discretized pair: two in the first window, then one
    assert len(costs) == frames - 1
    assert max(min(cost.shape) for cost in costs) >= min(targets, 30)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entry_is_named(bad):
    cost = np.zeros((3, 4))
    cost[2, 1] = bad
    with pytest.raises(NumericError, match=rf"entry \(2, 1\) is {bad}"):
        linear_sum_assignment(cost)


def test_cost_must_be_a_matrix():
    with pytest.raises(ContractError, match="2-D"):
        linear_sum_assignment(np.zeros(3))


def test_importing_the_package_loads_no_scipy():
    code = ("import sys, mdatrack.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.stdout.strip() == "[]"
