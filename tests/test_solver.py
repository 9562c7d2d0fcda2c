"""Power iteration, normalization, loss and discretization, each checked
against independent oracles (finite differences, brute force, hand math)."""

import numpy as np
import pytest

from dense_reference import (
    assert_sparse_equals_dense,
    dense_history,
    entry_gradient,
    last_matrices,
    log_gradient,
    log_matrices,
    pairwise_objective,
    random_solver_instance,
    reshape_to_pairwise,
    tuple_tensor,
)
from mdatrack.errors import ContractError, DegenerateInputError, NumericError
from mdatrack.solver import (
    HypothesisTensor,
    bce_loss,
    discretize,
    l1_normalize_backward,
    l1_normalize_forward,
    power_iteration_backward,
    power_iteration_forward,
)
from oracle_reference import (
    assignment_objective,
    brute_force_mda,
    finite_diff_grad,
)

GRAD_RTOL = 1e-4
GRAD_ATOL = 1e-7


def with_values(tensor, values):
    return HypothesisTensor(tensor.entries, values, tensor.sizes)


def grad_close(analytic, numeric, rtol=GRAD_RTOL, atol=GRAD_ATOL):
    return np.all(np.abs(analytic - numeric) <= atol + rtol * np.abs(numeric))


class TestPowerIterationForward:
    def test_single_hypothesis_pins_to_one(self):
        values = np.array([[[0.37]]])
        state = power_iteration_forward(tuple_tensor(values), 5)
        for iterate in dense_history(state)[0]:
            for vec in np.split(iterate, state.tensor.offsets[1:-1]):
                np.testing.assert_allclose(vec, [1.0])

    def test_identity_dominant_instance_recovers_identity(self):
        values = np.full((2, 2, 2), 0.1)
        values[0, 0, 0] = values[1, 1, 1] = 1.0
        state = power_iteration_forward(tuple_tensor(values), 20)
        norm = l1_normalize_forward(state.log_pairs(), 10)
        binary = discretize(norm.matrices())
        np.testing.assert_array_equal(binary[0], np.eye(2))
        np.testing.assert_array_equal(binary[1], np.eye(2))
        # brute force confirms identity is the optimum of this instance
        oracle = brute_force_mda(values)
        assert assignment_objective(values, binary) == pytest.approx(
            oracle.best_value)

    def test_uniform_instance_stays_uniform(self):
        values = np.full((2, 2, 2), 0.3)
        state = power_iteration_forward(tuple_tensor(values), 6)
        for iterate in dense_history(state)[0]:
            for vec in np.split(iterate, state.tensor.offsets[1:-1]):
                assert np.ptp(vec) == 0.0

    def test_every_updated_vector_sums_to_one(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(0.1, 1.0, size=(3, 3, 3))
        state = power_iteration_forward(tuple_tensor(values), 4)
        for iterate in dense_history(state)[0][1:]:
            for vec in np.split(iterate, state.tensor.offsets[1:-1]):
                assert vec.sum() == pytest.approx(1.0)
                assert np.all(vec >= 0)

    def test_scale_equivariance_power_of_two_is_bit_exact(self):
        rng = np.random.default_rng(4)
        values = rng.uniform(0.1, 1.0, size=(2, 2, 2))
        a = power_iteration_forward(tuple_tensor(values), 5)
        b = power_iteration_forward(tuple_tensor(4.0 * values), 5)
        for va, vb in zip(last_matrices(a), last_matrices(b)):
            np.testing.assert_array_equal(va, vb)

    def test_scale_equivariance_general_scalar(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(0.1, 1.0, size=(3, 3, 3))
        a = power_iteration_forward(tuple_tensor(values), 5)
        b = power_iteration_forward(tuple_tensor(np.pi * values), 5)
        for va, vb in zip(last_matrices(a), last_matrices(b)):
            np.testing.assert_allclose(va, vb, rtol=1e-12)

    def test_all_zero_tensor_is_degenerate(self):
        with pytest.raises(DegenerateInputError, match="iteration 0"):
            power_iteration_forward(tuple_tensor(np.zeros((2, 2, 2))), 3)

    def test_non_finite_tensor_rejected(self):
        values = np.ones((2, 2, 2))
        values[0, 0, 0] = np.nan
        with pytest.raises(NumericError):
            power_iteration_forward(tuple_tensor(values), 3)

    def test_shape_validation(self):
        # hypotheses must fit the frame sizes, one value per hypothesis
        with pytest.raises(ContractError):
            HypothesisTensor(np.array([[0, 2, 0]]), np.ones(1), (2, 2, 2))
        with pytest.raises(ContractError):
            HypothesisTensor(np.array([[0, 1]]), np.ones(1), (2, 2, 2))
        with pytest.raises(ContractError):
            HypothesisTensor(np.array([[0, 1, 0]]), np.ones(2), (2, 2, 2))

    def test_new_values_on_the_same_layout(self):
        tensor = random_solver_instance(np.random.default_rng(8))
        values = tensor.values[::-1] * 2.0
        moved = tensor.with_values(values)
        for name in ("entries", "sizes", "shape", "offsets", "support",
                     "order", "starts", "position", "hypothesis",
                     "factor_support", "pair_supports"):
            assert getattr(moved, name) is getattr(tensor, name)
        fresh = HypothesisTensor(tensor.entries, values, tensor.sizes)
        assert np.array_equal(moved.values, values)
        assert not np.array_equal(tensor.values, values)
        a = power_iteration_forward(moved, 4)
        b = power_iteration_forward(fresh, 4)
        assert all(np.array_equal(x, y)
                   for x, y in zip(a.log_iterates, b.log_iterates))

    @pytest.mark.parametrize("shape", ["short", "long", "column"])
    def test_new_values_need_one_float_per_hypothesis(self, shape):
        tensor = random_solver_instance(np.random.default_rng(8))
        count = len(tensor.values)
        values = {"short": np.ones(count - 1), "long": np.ones(count + 1),
                  "column": np.ones((count, 1))}[shape]
        with pytest.raises(ContractError, match="hypotheses but values"):
            tensor.with_values(values)

    def test_new_values_keep_the_forward_checks(self):
        tensor = random_solver_instance(np.random.default_rng(8))
        bad = tensor.values.copy()
        bad[0] = -1.0
        with pytest.raises(ContractError):
            power_iteration_forward(tensor.with_values(bad), 3)
        bad[0] = np.inf
        with pytest.raises(NumericError):
            power_iteration_forward(tensor.with_values(bad), 3)

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(6)
        values = rng.uniform(0.1, 1.0, size=(3, 3, 3))
        a = power_iteration_forward(tuple_tensor(values), 7)
        b = power_iteration_forward(tuple_tensor(values.copy()), 7)
        for va, vb in zip(last_matrices(a), last_matrices(b)):
            np.testing.assert_array_equal(va, vb)


class TestPowerIterationBackward:
    def test_zero_incoming_gradient_gives_zero_tensor_gradient(self):
        rng = np.random.default_rng(7)
        tensor = tuple_tensor(rng.uniform(0.1, 1.0, size=(2, 2, 2)))
        state = power_iteration_forward(tensor, 3)
        d_values = power_iteration_backward(state, np.zeros(8))
        assert d_values.shape == (8,)
        assert np.all(d_values == 0)

    def test_gradient_shape_checked(self):
        state = power_iteration_forward(
            tuple_tensor(np.ones((2, 2, 2))), 2)
        with pytest.raises(ContractError, match=r"expected \(8,\)"):
            power_iteration_backward(state, np.zeros(4))

    def test_single_hypothesis_one_step_closed_form(self):
        # with one hypothesis the iterate is constantly 1 whatever the
        # affinity, so the hand-differentiated value gradient is zero
        state = power_iteration_forward(
            HypothesisTensor(np.zeros((1, 3), int), [0.37], (1, 1, 1)), 1)
        d_values = power_iteration_backward(
            state, log_gradient(state, [np.array([2.0]), np.array([-3.0])]))
        np.testing.assert_allclose(d_values, [0.0])

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        iterations = int(rng.integers(1, 4))
        values = rng.uniform(0.1, 1.0, size=(n, n, n))
        tensor = tuple_tensor(values)
        w = [rng.normal(size=tensor.shape[0]), rng.normal(size=tensor.shape[1])]

        state = power_iteration_forward(tensor, iterations)
        analytic = power_iteration_backward(state, log_gradient(state, w))

        def loss(v):
            s = power_iteration_forward(with_values(tensor, v), iterations)
            return sum(float(wk @ m.ravel())
                       for wk, m in zip(w, last_matrices(s)))

        numeric = finite_diff_grad(loss, tensor.values)
        assert grad_close(analytic, numeric)

    def test_zero_valued_hypothesis_gets_its_gradient(self):
        # a hypothesis of value 0 beside others on each of its positions:
        # the loss still moves with its value, as the dense restatement,
        # differentiated in the linear domain, shows
        rng = np.random.default_rng(43)
        values = rng.uniform(0.1, 1.0, size=(2, 2, 2))
        values[0, 1, 0] = 0.0
        tensor = tuple_tensor(values)
        assert_sparse_equals_dense(tensor, 3, rng)
        state = power_iteration_forward(tensor, 3)
        w = [rng.normal(size=4), rng.normal(size=4)]
        d_values = power_iteration_backward(state, log_gradient(state, w))
        assert d_values[2] != 0.0

    def test_three_pair_instance_matches_finite_differences(self):
        # K=3: four frames, three assignment vectors
        rng = np.random.default_rng(9)
        n = 2
        values = rng.uniform(0.1, 1.0, size=(n, n, n, n))
        tensor = tuple_tensor(values)
        w = [rng.normal(size=n * n) for _ in range(3)]
        state = power_iteration_forward(tensor, 2)
        analytic = power_iteration_backward(state, log_gradient(state, w))

        def loss(v):
            s = power_iteration_forward(with_values(tensor, v), 2)
            return sum(float(wk @ m.ravel())
                       for wk, m in zip(w, last_matrices(s)))

        numeric = finite_diff_grad(loss, tensor.values)
        assert grad_close(analytic, numeric)


class TestL1Normalization:
    def test_doubly_stochastic_fixed_point(self):
        mat = np.array([[0.5, 0.5], [0.5, 0.5]])
        state = l1_normalize_forward(log_matrices([mat]), 3)
        np.testing.assert_allclose(state.matrices()[0], mat, atol=1e-15)

    def test_diagonal_row_scaling(self):
        mat = np.array([[2.0, 0.0], [0.0, 3.0]])
        state = l1_normalize_forward(log_matrices([mat]), 1)
        np.testing.assert_allclose(state.matrices()[0], np.eye(2))

    def test_positive_matrix_converges(self):
        rng = np.random.default_rng(10)
        mat = rng.uniform(0.1, 1.0, size=(3, 3))
        state = l1_normalize_forward(log_matrices([mat]), 50)
        out = state.matrices()[0]
        np.testing.assert_allclose(out.sum(axis=0), 1.0, atol=1e-6)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)

    def test_masked_virtual_column_left_unconstrained(self):
        rng = np.random.default_rng(11)
        mat = rng.uniform(0.1, 1.0, size=(9, 6))  # 8 real rows, 5 real cols
        out = l1_normalize_forward(log_matrices([mat]), 50,
                                   virtual=True).matrices()[0]
        np.testing.assert_allclose(out[:8].sum(axis=1), 1.0, atol=1e-6)
        np.testing.assert_allclose(out[:, :5].sum(axis=0), 1.0, atol=1e-6)
        # the virtual column absorbs the slack of 8 real rows over 5 real
        # columns, beyond what the virtual row holds
        assert out[:, 5].sum() - out[8].sum() == pytest.approx(3.0, abs=1e-5)

    def test_masked_virtual_row_left_unconstrained(self):
        rng = np.random.default_rng(12)
        mat = rng.uniform(0.1, 1.0, size=(6, 9))  # 5 real rows, 8 real cols
        out = l1_normalize_forward(log_matrices([mat]), 50,
                                   virtual=True).matrices()[0]
        np.testing.assert_allclose(out[:, :8].sum(axis=0), 1.0, atol=1e-6)
        np.testing.assert_allclose(out[:5].sum(axis=1), 1.0, atol=1e-6)
        assert out[5].sum() - out[:, 8].sum() == pytest.approx(3.0, abs=1e-5)

    def test_zero_lines_excluded_and_reported(self):
        mat = np.array([[0.0, 0.0], [1.0, 3.0]])
        state = l1_normalize_forward(log_matrices([mat]), 2)
        assert (0, "row", 0) in state.skipped_lines
        out = state.matrices()[0]
        assert np.all(out[0] == 0.0)

    def test_negative_pair_count_rejected(self):
        with pytest.raises(ContractError, match="pair count"):
            l1_normalize_forward(log_matrices([np.ones((2, 2))]), -1)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_virtual_flag_on_pair_without_lines_rejected(self, shape):
        with pytest.raises(ContractError,
                           match=r"^pair 1 of shape .* has no virtual "):
            l1_normalize_forward(
                log_matrices([np.ones((2, 2)), np.zeros(shape)]), 2,
                virtual=True)


class TestL1NormalizationBackward:
    def test_zero_gradient_propagates_zero(self):
        rng = np.random.default_rng(13)
        mats = [rng.uniform(0.1, 1.0, size=(3, 3))]
        state = l1_normalize_forward(log_matrices(mats), 2)
        grads = l1_normalize_backward(state, [np.zeros((3, 3))])
        assert grads.shape == (9,)
        assert np.all(grads == 0)

    def test_one_by_one_matrix_is_a_constant_map(self):
        state = l1_normalize_forward(log_matrices([np.array([[0.4]])]), 2)
        np.testing.assert_allclose(state.matrices()[0], [[1.0]])
        grads = l1_normalize_backward(state, [np.array([[5.0]])])
        np.testing.assert_allclose(grads, [0.0], atol=1e-15)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        pairs = int(rng.integers(1, 4))
        mats = [rng.uniform(0.1, 1.0, size=(3, 3)) for _ in range(2)]
        w = [rng.normal(size=(3, 3)) for _ in range(2)]

        state = l1_normalize_forward(log_matrices(mats), pairs)
        analytic = entry_gradient(state, l1_normalize_backward(state, w))

        for k in range(2):
            def loss(m, k=k):
                inputs = [x.copy() for x in mats]
                inputs[k] = m
                s = l1_normalize_forward(log_matrices(inputs), pairs)
                return sum(float(np.sum(a * b))
                           for a, b in zip(w, s.matrices()))

            numeric = finite_diff_grad(loss, mats[k])
            assert grad_close(analytic[k], numeric)

    def test_masked_lines_pass_gradient_through(self):
        rng = np.random.default_rng(20)
        mat = rng.uniform(0.1, 1.0, size=(3, 4))
        w = [rng.normal(size=(3, 4))]
        state = l1_normalize_forward(log_matrices([mat]), 2, virtual=True)
        analytic = entry_gradient(state, l1_normalize_backward(state, w))

        def loss(m):
            s = l1_normalize_forward(log_matrices([m]), 2, virtual=True)
            return float(np.sum(w[0] * s.matrices()[0]))

        numeric = finite_diff_grad(loss, mat)
        assert grad_close(analytic[0], numeric)


class TestBceLoss:
    def test_perfect_prediction_is_near_zero(self):
        target = [np.array([[1.0, 0.0], [0.0, 1.0]])]
        loss, _ = bce_loss(target, target)
        assert loss <= 4 * abs(np.log(1 - 1e-7)) + 1e-12

    def test_uniform_half_prediction(self):
        pred = [np.full((3, 4), 0.5), np.full((2, 2), 0.5)]
        target = [np.zeros((3, 4)), np.ones((2, 2))]
        loss, _ = bce_loss(pred, target)
        assert loss == pytest.approx(16 * np.log(2))

    def test_gradient_matches_finite_differences(self):
        failures = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 5))
            pred = [rng.uniform(0.05, 0.95, size=(n, n))]
            target = [(rng.uniform(size=(n, n)) > 0.5).astype(float)]
            _, grads = bce_loss(pred, target)
            numeric = finite_diff_grad(
                lambda p: bce_loss([p], target)[0], pred[0])
            if not grad_close(grads[0], numeric, rtol=1e-6, atol=1e-9):
                failures.append(seed)
        assert failures == []

    def test_clamped_region_has_zero_gradient(self):
        pred = [np.array([[0.0, 1.0]])]
        target = [np.array([[1.0, 0.0]])]
        loss, grads = bce_loss(pred, target)
        assert np.isfinite(loss)
        assert np.all(grads[0] == 0.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            bce_loss([np.zeros((2, 2))], [np.zeros((2, 3))])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_prediction_rejected(self, bad):
        pred = [np.full((2, 2), 0.5), np.full((2, 2), 0.5)]
        pred[1][0, 1] = bad
        with pytest.raises(NumericError,
                           match=r"^pair 1 carries non-finite predictions$"):
            bce_loss(pred, [np.eye(2), np.eye(2)])


class TestDiscretize:
    def test_dominant_diagonal(self):
        mat = np.full((3, 3), 0.05)
        np.fill_diagonal(mat, 0.9)
        out = discretize([mat])[0]
        np.testing.assert_array_equal(out, np.eye(3))

    def test_anti_diagonal_beats_diagonal(self):
        mat = np.array([[0.4, 0.6], [0.6, 0.4]])
        out = discretize([mat])[0]
        # both matchings enumerated: anti-diagonal totals 1.2 vs 0.8
        np.testing.assert_array_equal(out, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_virtual_column_wins_below_threshold(self):
        # two real rows, both with weak real weights and a stronger virtual
        mat = np.array([
            [0.2, 0.1, 0.5],
            [0.1, 0.2, 0.5],
            [0.3, 0.3, 0.3],   # virtual row
        ])
        out = discretize([mat], virtual=True)[0]
        assert out[0, 2] == 1.0 and out[1, 2] == 1.0
        # both rows legally share the virtual column
        assert out[:, 2].sum() == 2.0
        assert out[:2, :2].sum() == 0.0
        # the real columns left without a partner go to the virtual row
        np.testing.assert_array_equal(out[2], [1.0, 1.0, 0.0])

    def test_real_match_kept_when_it_beats_virtual(self):
        mat = np.array([[0.9, 0.3], [0.2, 0.3], [0.1, 0.1]])
        out = discretize([mat], virtual=True)[0]
        assert out[0, 0] == 1.0
        assert out[1, 1] == 1.0   # row 1: real 0.2 < virtual 0.3

    def test_unmatched_real_column_attaches_to_virtual_row(self):
        mat = np.array([
            [0.9, 0.1, 0.8],
            [0.3, 0.4, 0.2],   # virtual row
        ])
        out = discretize([mat], virtual=True)[0]
        assert out[0, 0] == 1.0
        assert out[1, 1] == 1.0   # leftover real column claimed by virtual row
        assert out[1, 2] == 0.0   # virtual-virtual cell stays empty

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ContractError, match=r"^pair 0 is not a matrix$"):
            discretize([np.ones(3)])

    def test_non_finite_input_rejected(self):
        mat = np.eye(3)
        mat[2, 0] = np.nan
        with pytest.raises(NumericError,
                           match=r"^pair 1 carries non-finite entries$"):
            discretize([np.eye(3), mat])

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_virtual_flag_on_pair_without_lines_rejected(self, shape):
        with pytest.raises(ContractError,
                           match=r"^pair 0 of shape .* has no virtual "):
            discretize([np.zeros(shape)], virtual=True)


class TestObjectiveHelpers:
    def test_pairwise_matches_assignment_objective(self):
        # the sparse solver's contraction constant at each iteration is the
        # multilinear objective at that iteration's start, the all-ones
        # start and then a non-uniform iterate: equal to the dense pairwise
        # contraction and to the tuple-tensor assignment objective
        rng = np.random.default_rng(31)
        values = rng.uniform(size=(3, 3, 3))
        state = power_iteration_forward(tuple_tensor(values), 2)
        pairwise = reshape_to_pairwise(values, np.ones(values.shape, bool))
        for n, iterate in enumerate(dense_history(state)[0][:2]):
            xs = np.split(iterate, state.tensor.offsets[1:-1])
            lhs = state.contraction_history[n]
            dense = pairwise_objective(pairwise, xs)
            rhs = assignment_objective(values, [x.reshape(3, 3) for x in xs])
            assert abs(lhs - dense) <= 1e-12
            assert lhs == pytest.approx(rhs, abs=1e-12)

    @pytest.mark.parametrize("seed", range(50))
    def test_sparse_equals_dense_on_check_instances(self, seed):
        # small random instances and 1 to 3 iterations, as the
        # finite-difference gradient tests draw them
        rng = np.random.default_rng(seed)
        tensor = random_solver_instance(rng)
        iterations = int(rng.integers(1, 4))
        assert_sparse_equals_dense(tensor, iterations, rng)
