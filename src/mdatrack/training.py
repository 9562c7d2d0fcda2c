"""End-to-end training of the affinity provider.

Training windows are built from ground-truth boxes (no virtual candidates,
full normalization).  The loss is the binary cross entropy between the
normalized soft assignments and the ground-truth assignment matrices; its
gradient flows through the normalization layer and the power iteration to
the hypothesis affinities, and from there into the provider parameters,
which take a plain projected gradient-descent step per window.

Only the parameters change during a run, so each window's parameter-free
part is built once per :func:`train_provider` call, by the first step on
that window: the batch with its frame arrays, the gated hypotheses, their
affinity statistics with the solver tensor's stacked layout, and the
ground-truth assignment matrices (:class:`TrainingWindow`).  Every later
step rescores the cached statistics under the current parameters
(:func:`mdatrack.affinity.rescore_affinity`), then runs the solver layers
and the gradient step.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .affinity import (
    AffinityProviderParams,
    AffinityTensorBundle,
    ConnectionGateConfig,
    backprop_affinity,
    compute_affinity,
    generate_hypotheses,
    rescore_affinity,
)
from .errors import ContractError, NumericError
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


@dataclass(eq=False)
class TrainingWindow:
    """One entry of the training schedule: the ground-truth candidates and
    target ids of its frames.

    The first :meth:`scored` call builds the window's parameter-free part
    and keeps it; a window without hypotheses is kept as degenerate.
    """

    frames: tuple[int, ...]
    candidates: tuple[tuple[Candidate, ...], ...]
    ids: tuple[tuple[int, ...], ...]
    gate: ConnectionGateConfig
    built: bool = field(default=False, init=False)
    bundle: AffinityTensorBundle | None = field(default=None, init=False)
    target: list[np.ndarray] = field(default_factory=list, init=False)

    def scored(self, params: AffinityProviderParams
               ) -> AffinityTensorBundle | None:
        """The window's affinity bundle under ``params``, or None when the
        gate leaves it without hypotheses.

        The first call builds the batch, the hypotheses, their statistics
        and the ground-truth matrices and scores them under ``params``;
        later calls rescore the kept statistics, which stay as built.
        """
        if self.built:
            return (None if self.bundle is None
                    else rescore_affinity(self.bundle, params))
        self.built = True
        batch = AssociationBatch(frames=self.frames, candidates=self.candidates)
        hypotheses = generate_hypotheses(batch, self.gate)
        if len(hypotheses) == 0:
            return None
        self.bundle = compute_affinity(batch, hypotheses, params)
        self.target = assignment_ground_truth(self.ids)
        return self.bundle


def train_window(window: TrainingWindow,
                 params: AffinityProviderParams,
                 power_iterations: int,
                 norm_pairs: int,
                 learning_rate: float
                 ) -> tuple[AffinityProviderParams, float] | None:
    """One training step on one window; None when the window is degenerate
    (no hypotheses, or zero affinity mass under ``params``).  A non-finite
    parameter gradient raises, naming the window and the first backward
    layer whose output is non-finite; the backward passes raise no numpy
    floating-point warning before it."""
    bundle = window.scored(params)
    if bundle is None or bundle.tensor.values.max() <= 0.0:
        return None

    power_state = power_iteration_forward(bundle.tensor, power_iterations)
    norm_state = l1_normalize_forward(power_state.log_pairs(), norm_pairs)

    predicted = norm_state.matrices()
    loss, d_pred = bce_loss(predicted, window.target)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        d_norm_in = l1_normalize_backward(norm_state, d_pred)
        d_values, _ = power_iteration_backward(
            power_state, [g.reshape(-1) for g in d_norm_in])
        grads = backprop_affinity(bundle, d_values)
    if not np.isfinite(grads).all():
        layer = next(name for name, arrays in (
            ("l1_normalize_backward", d_norm_in),
            ("power_iteration_backward", [d_values]),
            ("backprop_affinity", [grads]))
            if not all(np.isfinite(a).all() for a in arrays))
        raise NumericError(f"non-finite gradient on the window of frames "
                           f"{window.frames}, first from {layer}")

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
    parameters and the per-epoch mean loss curve.

    The arguments are checked before any window runs; each window's
    parameter-free part is built by its first step and reused by the
    steps of every later epoch.
    """
    # written so that NaN fails every bound
    if not epochs >= 1:
        raise ContractError(f"epochs must be >= 1, got {epochs}")
    if not 0.0 <= learning_rate < np.inf:
        raise ContractError(
            f"learning_rate must be finite and >= 0, got {learning_rate}")
    if not power_iterations >= 1:
        raise ContractError(
            f"power_iterations must be >= 1, got {power_iterations}")
    if not norm_pairs >= 0:
        raise ContractError(f"norm_pairs must be >= 0, got {norm_pairs}")
    # checked here, before batch_windows would also warn about it
    if len(gt_frames) < 3:
        raise ContractError(
            f"training needs at least one window of 3 frames, got "
            f"{len(gt_frames)} frames")
    windows = [TrainingWindow(frames=tuple(window),
                              candidates=tuple(tuple(gt_frames[f]) for f in window),
                              ids=tuple(tuple(gt_frame_ids[f]) for f in window),
                              gate=gate)
               for window in batch_windows(len(gt_frames))]
    losses: list[float] = []
    skipped = 0
    for _ in range(epochs):
        epoch_losses = []
        for window in windows:
            result = train_window(window, params, power_iterations,
                                  norm_pairs, learning_rate)
            if result is None:
                skipped += 1
                continue
            params, loss = result
            epoch_losses.append(loss)
        losses.append(float(np.mean(epoch_losses)) if epoch_losses else 0.0)
    if skipped:
        logger.info("skipped %d degenerate windows during training", skipped)
    return params, losses
