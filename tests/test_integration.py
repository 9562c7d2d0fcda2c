"""Cross-module integration: four-frame (K=3) association end to end, and
gradient flow through sparse hypothesis supports."""

import numpy as np
import pytest

from dense_reference import (
    assert_sparse_equals_dense,
    dense_history,
    last_matrices,
    log_gradient,
    pairwise_objective,
    pairwise_tensor,
    tuple_tensor,
)
from mdatrack.affinity import (
    AffinityProviderParams,
    ConnectionGateConfig,
    backprop_affinity,
    compute_affinity,
    generate_hypotheses,
)
from mdatrack.solver import (
    HypothesisTensor,
    bce_loss,
    discretize,
    l1_normalize_backward,
    l1_normalize_forward,
    power_iteration_backward,
    power_iteration_forward,
)
from mdatrack.types import AssociationBatch, Candidate
from oracle_reference import (
    assignment_objective,
    brute_force_mda,
    finite_diff_grad,
)


def dense_values(batch, hyps, values):
    """The (K+1)-order tuple tensor holding each hypothesis value."""
    dense = np.zeros(batch.sizes)
    dense[tuple(hyps.T)] = values
    return dense


def cand(frame, cx, cy, w=20.0, h=20.0, appearance=None):
    if appearance is None:
        appearance = np.ones(8)
    return Candidate(frame_index=frame, center=(cx, cy),
                     box=(cx - w / 2, cy - h / 2, w, h), score=1.0,
                     appearance=np.asarray(appearance, dtype=float))


class TestFourFrameAssociation:
    """Two targets over four frames, solved on the K=3 tensor."""

    def build(self):
        rng = np.random.default_rng(77)
        descriptors = [rng.normal(size=8) for _ in range(2)]
        frames = []
        for f in range(4):
            frames.append((
                cand(f, 100.0 + 4.0 * f, 100.0, appearance=descriptors[0]),
                cand(f, 260.0 - 4.0 * f, 240.0, appearance=descriptors[1]),
            ))
        return AssociationBatch(frames=(0, 1, 2, 3), candidates=tuple(frames))

    def test_pipeline_of_layers_recovers_both_targets(self):
        batch = self.build()
        gate = ConnectionGateConfig()
        hyps = generate_hypotheses(batch, gate)
        assert {tuple(h) for h in hyps.tolist()} == {(0, 0, 0, 0), (1, 1, 1, 1)}

        # widen the gate so wrong combinations compete and must be rejected
        wide = ConnectionGateConfig(base_distance_factor=12.0,
                                    max_relaxations=0)
        hyps = generate_hypotheses(batch, wide)
        assert len(hyps) == 16
        bundle = compute_affinity(batch, hyps, AffinityProviderParams())
        state = power_iteration_forward(bundle.tensor, 10)
        norm = l1_normalize_forward(state.log_pairs(), 10)
        binary = discretize(norm.matrices())
        for mat in binary:
            np.testing.assert_array_equal(mat, np.eye(2))

        values = dense_values(batch, hyps, bundle.tensor.values)
        oracle = brute_force_mda(values)
        achieved = assignment_objective(values, binary)
        assert achieved == pytest.approx(oracle.best_value)

    def test_energy_identity_on_four_frames(self):
        # the sparse K=3 solver equals the dense restatement, and its
        # contraction constant is the multilinear objective at the
        # iteration's start, the all-ones start and then a non-uniform
        # iterate
        batch = self.build()
        wide = ConnectionGateConfig(base_distance_factor=12.0,
                                    max_relaxations=0)
        hyps = generate_hypotheses(batch, wide)
        bundle = compute_affinity(batch, hyps, AffinityProviderParams())
        tensor = bundle.tensor
        rng = np.random.default_rng(5)
        state = power_iteration_forward(tensor, 2)
        for n, iterate in enumerate(dense_history(state)[0][:2]):
            xs = np.split(iterate, tensor.offsets[1:-1])
            lhs = state.contraction_history[n]
            dense = pairwise_objective(pairwise_tensor(tensor), xs)
            rhs = assignment_objective(
                dense_values(batch, hyps, tensor.values),
                [x.reshape(2, 2) for x in xs])
            assert abs(lhs - rhs) <= 1e-12
            assert abs(lhs - dense) <= 1e-12
        assert_sparse_equals_dense(tensor, 10, rng)
        assert_sparse_equals_dense(tensor, 3, rng)

    def test_full_training_step_gradient_on_four_frames(self):
        batch = self.build()
        wide = ConnectionGateConfig(base_distance_factor=12.0,
                                    max_relaxations=0)
        hyps = generate_hypotheses(batch, wide)
        params = AffinityProviderParams(position_scale=20.0)
        target = [np.eye(2)] * 3

        def loss_of(vec):
            p = AffinityProviderParams.from_vector(vec)
            b = compute_affinity(batch, hyps, p)
            s = power_iteration_forward(b.tensor, 3)
            n = l1_normalize_forward(s.log_pairs(), 2)
            return bce_loss(n.matrices(), target)[0]

        bundle = compute_affinity(batch, hyps, params)
        state = power_iteration_forward(bundle.tensor, 3)
        norm = l1_normalize_forward(state.log_pairs(), 2)
        _, d_pred = bce_loss(norm.matrices(), target)
        d_values = power_iteration_backward(
            state, l1_normalize_backward(norm, d_pred))
        analytic = backprop_affinity(bundle, d_values)
        numeric = finite_diff_grad(loss_of, params.as_vector())
        assert np.all(np.abs(analytic - numeric)
                      <= 1e-7 + 1e-4 * np.abs(numeric))


class TestSparseSupportGradients:
    """Backward passes stay exact when the hypothesis set is sparse."""

    @staticmethod
    def masked_support(rng):
        n = 3
        mask = rng.uniform(size=(n, n, n)) > 0.4
        # guarantee a feasible support: plant one full assignment
        for i in range(n):
            mask[i, i, i] = True
        values = rng.uniform(0.2, 1.0, size=(n, n, n)) * mask
        return tuple_tensor(values, mask)

    @pytest.mark.parametrize("seed", range(5))
    def test_power_backward_on_masked_support(self, seed):
        rng = np.random.default_rng(seed)
        tensor = self.masked_support(rng)
        w = [rng.normal(size=d) for d in tensor.shape]

        state = power_iteration_forward(tensor, 3)
        analytic = power_iteration_backward(state, log_gradient(state, w))

        def loss(v):
            s = power_iteration_forward(
                HypothesisTensor(tensor.entries, v, tensor.sizes), 3)
            return sum(float(wk @ m.ravel())
                       for wk, m in zip(w, last_matrices(s)))

        numeric = finite_diff_grad(loss, tensor.values)
        assert np.all(np.abs(analytic - numeric)
                      <= 1e-7 + 1e-4 * np.abs(numeric))

    @pytest.mark.parametrize("seed", range(5))
    def test_sparse_equals_dense_on_masked_support(self, seed):
        rng = np.random.default_rng(seed)
        assert_sparse_equals_dense(self.masked_support(rng), 3, rng)

    def test_affinity_chain_on_gated_support(self):
        # gradients flow only through generated hypotheses; parameters
        # untouched by the valid set get zero gradient
        frames = [
            (cand(0, 50.0, 50.0), cand(0, 400.0, 300.0)),
            (cand(1, 52.0, 50.0), cand(1, 398.0, 300.0)),
            (cand(2, 54.0, 50.0), cand(2, 396.0, 300.0)),
        ]
        batch = AssociationBatch(frames=(0, 1, 2), candidates=tuple(frames))
        gate = ConnectionGateConfig(max_relaxations=0)
        hyps = generate_hypotheses(batch, gate)
        assert len(hyps) == 2
        bundle = compute_affinity(batch, hyps, AffinityProviderParams())
        # the tensor holds the two same-target hypotheses and nothing at
        # the cross-target entries
        dense = pairwise_tensor(bundle.tensor)
        assert np.count_nonzero(dense) == 2
        for i0, i1, i2 in hyps.tolist():
            assert dense[i0 * 2 + i1, i1 * 2 + i2] > 0.0
        # the gradient is the sum of the per-hypothesis contributions
        grads = backprop_affinity(bundle, np.ones(2))
        per_hypothesis = [backprop_affinity(bundle, e) for e in np.eye(2)]
        np.testing.assert_allclose(grads, sum(per_hypothesis))
