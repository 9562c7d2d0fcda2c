"""End-to-end training of the affinity provider.

Training windows are built from ground-truth boxes (no virtual candidates,
full normalization).  The loss is the binary cross entropy between the
normalized soft assignments and the ground-truth assignment matrices; its
gradient flows through the normalization layer and the power iteration to
the hypothesis affinities, and from there into the provider parameters,
which take a plain projected gradient-descent step per window.
"""

from __future__ import annotations

import logging

import numpy as np

from .affinity import (
    AffinityProviderParams,
    ConnectionGateConfig,
    backprop_affinity,
    compute_affinity,
    generate_hypotheses,
)
from .solver import (
    bce_loss,
    l1_normalize_backward,
    l1_normalize_forward,
    power_iteration_backward,
    power_iteration_forward,
)
from .types import AssociationBatch, Candidate, batch_windows

logger = logging.getLogger(__name__)

POSITION_SCALE_FLOOR = 1e-3


def assignment_ground_truth(ids_per_frame: list[list[int]]) -> list[np.ndarray]:
    """Binary per-pair matrices: entry (i, j) is 1 when the candidates share
    a target id."""
    return [np.equal.outer(prev_ids, next_ids).astype(float)
            for prev_ids, next_ids in zip(ids_per_frame, ids_per_frame[1:])]


def project_param_vector(vec: np.ndarray) -> np.ndarray:
    """Keep every weight nonnegative (the affinity must stay a sum of
    nonnegative terms) and the position scale strictly positive."""
    vec = np.maximum(np.asarray(vec, dtype=float), 0.0)
    scale_pos = AffinityProviderParams.FIELD_NAMES.index("position_scale")
    vec[scale_pos] = max(vec[scale_pos], POSITION_SCALE_FLOOR)
    return vec


def train_window(frames: tuple[int, ...],
                 candidates: list[list[Candidate]],
                 ids: list[list[int]],
                 gate: ConnectionGateConfig,
                 params: AffinityProviderParams,
                 power_iterations: int,
                 norm_pairs: int,
                 learning_rate: float
                 ) -> tuple[AffinityProviderParams, float] | None:
    """One training step on one window; None when the window is degenerate
    (no hypotheses or zero affinity mass)."""
    batch = AssociationBatch(frames=tuple(frames),
                             candidates=tuple(tuple(c) for c in candidates))
    hypotheses = generate_hypotheses(batch, gate)
    if len(hypotheses) == 0:
        return None
    bundle = compute_affinity(batch, hypotheses, params)
    if bundle.tensor.values.max() <= 0.0:
        return None

    power_state = power_iteration_forward(bundle.tensor, power_iterations)
    norm_state = l1_normalize_forward(power_state.matrices(), norm_pairs)

    predicted = norm_state.matrices()
    target = assignment_ground_truth(ids)
    loss, d_pred = bce_loss(predicted, target)

    d_norm_in = l1_normalize_backward(norm_state, d_pred)
    d_values, _ = power_iteration_backward(
        power_state, [g.reshape(-1) for g in d_norm_in])
    grads = backprop_affinity(bundle, d_values)

    new_vector = project_param_vector(params.as_vector() - learning_rate * grads)
    return AffinityProviderParams.from_vector(new_vector), loss


def train_provider(gt_frames: list[list[Candidate]],
                   gt_frame_ids: list[list[int]],
                   gate: ConnectionGateConfig,
                   params: AffinityProviderParams,
                   epochs: int = 50,
                   learning_rate: float = 0.05,
                   power_iterations: int = 10,
                   norm_pairs: int = 10,
                   ) -> tuple[AffinityProviderParams, list[float]]:
    """Train over sliding windows of the ground truth; returns the trained
    parameters and the per-epoch mean loss curve."""
    windows = batch_windows(len(gt_frames))
    losses: list[float] = []
    skipped = 0
    for _ in range(epochs):
        epoch_losses = []
        for window in windows:
            frames = tuple(window)
            result = train_window(
                frames,
                [gt_frames[f] for f in window],
                [gt_frame_ids[f] for f in window],
                gate, params, power_iterations, norm_pairs, learning_rate)
            if result is None:
                skipped += 1
                continue
            params, loss = result
            epoch_losses.append(loss)
        losses.append(float(np.mean(epoch_losses)) if epoch_losses else 0.0)
    if skipped:
        logger.info("skipped %d degenerate windows during training", skipped)
    return params, losses
