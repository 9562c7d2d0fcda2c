"""The brute-force search and finite-difference checker are themselves
tested here, against direct enumeration and analytic derivatives."""

import itertools

import numpy as np
import pytest

from mdatrack.errors import ContractError
from oracle_reference import SizeGuardError, brute_force_mda, finite_diff_grad


class TestBruteForce:
    def test_single_candidate_instance(self):
        values = np.array([[[0.7]]])
        result = brute_force_mda(values)
        assert result.best_value == pytest.approx(0.7)
        assert result.feasible_count == 1
        assert result.best_assignment[0, 0, 0] == 1.0

    def test_identity_dominant_instance(self):
        values = np.full((2, 2, 2), 0.1)
        values[0, 0, 0] = values[1, 1, 1] = 1.0
        result = brute_force_mda(values)
        # all four feasible assignments enumerated by hand:
        # (id,id)=2.0, (id,swap)=0.2, (swap,id)=0.2, (swap,swap)=0.2
        assert result.feasible_count == 4
        assert result.best_value == pytest.approx(2.0)
        assert result.best_assignment[0, 0, 0] == 1.0
        assert result.best_assignment[1, 1, 1] == 1.0
        assert result.tie_count == 1

    def test_uniform_instance_reports_ties(self):
        values = np.full((2, 2, 2), 0.5)
        result = brute_force_mda(values)
        assert result.best_value == pytest.approx(1.0)
        assert result.tie_count == 4
        # lexicographic-first encoding is the double identity
        assert result.best_assignment[0, 0, 0] == 1.0

    def test_matches_direct_enumeration(self):
        rng = np.random.default_rng(11)
        for n in (2, 3):
            values = rng.uniform(size=(n, n, n))
            result = brute_force_mda(values)
            best = -np.inf
            for s1 in itertools.permutations(range(n)):
                for s2 in itertools.permutations(range(n)):
                    total = sum(values[i, s1[i], s2[s1[i]]] for i in range(n))
                    best = max(best, total)
            assert result.best_value == pytest.approx(best)

    def test_single_nonzero_entry_selected(self):
        values = np.zeros((3, 3, 3))
        values[1, 2, 0] = 1.0
        result = brute_force_mda(values)
        assert result.best_assignment[1, 2, 0] == 1.0

    def test_unequal_sizes_infeasible(self):
        with pytest.raises(ContractError):
            brute_force_mda(np.zeros((2, 3, 2)))

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            brute_force_mda(np.zeros((8, 8, 8)), guard=1000)

    def test_best_equals_max_of_all_values(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(size=(3, 3, 3))
        result = brute_force_mda(values)
        assert result.all_values is not None
        assert result.best_value == pytest.approx(
            max(v for _, v in result.all_values))

    def test_relaxed_mode_virtual_absorbs_leftovers(self):
        # 2 real + 1 virtual per frame; only one real trajectory is strong
        values = np.zeros((3, 3, 3))
        values[0, 0, 0] = 1.0
        values[1, 2, 1] = 0.4     # second real start exits via virtual middle
        result = brute_force_mda(values, virtual_last=[True, True, True])
        assert result.best_value >= 1.0
        assert result.best_assignment[0, 0, 0] == 1.0


class TestFiniteDiff:
    def test_square_function(self):
        grad = finite_diff_grad(lambda x: float(x[0] ** 2), np.array([3.0]))
        assert grad[0] == pytest.approx(6.0, abs=1e-6)

    def test_constant_function(self):
        grad = finite_diff_grad(lambda x: 1.25, np.array([0.3, -2.0]))
        assert np.all(np.abs(grad) <= 1e-9)

    def test_matches_analytic_on_quadratic_form(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(4, 4))
        sym = m + m.T
        x0 = rng.normal(size=4)
        grad = finite_diff_grad(lambda x: float(x @ sym @ x / 2.0), x0)
        np.testing.assert_allclose(grad, sym @ x0, rtol=1e-5, atol=1e-7)

    def test_probes_the_whole_solver_chain(self):
        # loss = bce of (normalize . power-iterate) checked against the
        # composed analytic backward passes: this probe is the oracle for
        # the solver's gradients
        from dense_reference import tuple_tensor
        from mdatrack.solver import (
            HypothesisTensor,
            bce_loss,
            l1_normalize_backward,
            l1_normalize_forward,
            power_iteration_backward,
            power_iteration_forward,
        )

        rng = np.random.default_rng(8)
        values = rng.uniform(0.1, 1.0, size=(2, 2, 2))
        tensor = tuple_tensor(values)
        target = [np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])]

        def loss(v):
            s = power_iteration_forward(
                HypothesisTensor(tensor.entries, v, tensor.sizes), 3)
            n = l1_normalize_forward(s.log_pairs(), 2)
            return bce_loss(n.matrices(), target)[0]

        state = power_iteration_forward(tensor, 3)
        norm = l1_normalize_forward(state.log_pairs(), 2)
        _, d_pred = bce_loss(norm.matrices(), target)
        analytic = power_iteration_backward(
            state, l1_normalize_backward(norm, d_pred))

        numeric = finite_diff_grad(loss, tensor.values)
        assert np.all(np.abs(analytic - numeric)
                      <= 1e-7 + 1e-4 * np.abs(numeric))
