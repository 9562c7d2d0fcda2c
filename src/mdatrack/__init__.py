"""Trainable multi-object tracking via differentiable multi-dimensional
assignment: affinity tensors over hypothesis trajectories, a rank-1
power-iteration solver with analytic gradients, alternating l1
normalization, an online tracking loop with virtual candidates, and CLEAR
MOT evaluation."""

from .affinity import (
    AffinityProviderParams,
    AffinityTensorBundle,
    ConnectionGateConfig,
    backprop_affinity,
    compute_affinity,
    generate_hypotheses,
    load_params,
    rescore_affinity,
    save_params,
)
from .evalio import (
    ClearMotReport,
    MotRecord,
    Scenario,
    ScenarioSpec,
    clear_mot,
    generate_scenario,
    load_mot,
    load_mot_records,
    records_to_tracks,
    save_mot_records,
    tracks_to_records,
)
from .oracle import (
    BruteForceResult,
    assignment_objective,
    brute_force_mda,
    finite_diff_grad,
)
from .pipeline import (
    ConfidenceQuality,
    GroundTruthQuality,
    PipelineConfig,
    TrackRecord,
    TrackState,
    resolve_virtuals,
    run_sequence,
    track_batch,
)
from .solver import (
    HypothesisTensor,
    NormalizationState,
    PowerIterationState,
    bce_loss,
    discretize,
    l1_normalize_backward,
    l1_normalize_forward,
    power_iteration_backward,
    power_iteration_forward,
)
from .training import train_provider
from .types import (
    AssociationBatch,
    Candidate,
    batch_windows,
)

__version__ = "0.1.0"
